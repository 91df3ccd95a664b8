//! Live entries addressed by an id that is handed out in order.
//!
//! The device's request ids are monotone (they travel in wire headers and
//! traces, so they must stay that way), and requests are mostly retired in
//! the order they were made. A deque of slots starting at the oldest live id
//! then finds any request by subtraction: no hashing, and no allocation once
//! the deque has reached the depth of the deepest burst.

use std::collections::VecDeque;

/// Entries keyed by consecutive ids, oldest live id first.
pub(crate) struct IdWindow<T> {
    /// Id of `slots[0]`.
    base: u64,
    /// `None` marks an id retired out of order; the front is always live
    /// (or the deque is empty), so the window spans oldest-live..newest.
    slots: VecDeque<Option<T>>,
    live: usize,
}

impl<T> IdWindow<T> {
    /// An empty window whose first entry will get `first_id`.
    pub fn new(first_id: u64) -> Self {
        IdWindow {
            base: first_id,
            slots: VecDeque::new(),
            live: 0,
        }
    }

    /// Store `v` under the next id and return that id.
    pub fn push(&mut self, v: T) -> u64 {
        let id = self.base + self.slots.len() as u64;
        self.slots.push_back(Some(v));
        self.live += 1;
        id
    }

    #[inline]
    fn index(&self, id: u64) -> Option<usize> {
        id.checked_sub(self.base).map(|i| i as usize)
    }

    /// The live entry under `id`.
    #[inline]
    pub fn get(&self, id: u64) -> Option<&T> {
        self.slots.get(self.index(id)?)?.as_ref()
    }

    /// The live entry under `id`, mutably.
    #[inline]
    pub fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        let i = self.index(id)?;
        self.slots.get_mut(i)?.as_mut()
    }

    /// Retire `id`, returning its entry; the window then closes up to the
    /// oldest id still live.
    pub fn remove(&mut self, id: u64) -> Option<T> {
        let i = self.index(id)?;
        let v = self.slots.get_mut(i)?.take()?;
        self.live -= 1;
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        Some(v)
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Ids the window currently spans, live or retired (what bounds its
    /// memory).
    #[cfg(test)]
    pub fn span(&self) -> usize {
        self.slots.len()
    }

    /// Every live entry, oldest first.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.slots.iter_mut().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_consecutive_from_the_first() {
        let mut w = IdWindow::new(1);
        assert_eq!([w.push('a'), w.push('b'), w.push('c')], [1, 2, 3]);
        assert_eq!(w.get(2), Some(&'b'));
        assert_eq!(w.get(0), None, "below the window");
        assert_eq!(w.get(4), None, "not handed out yet");
        *w.get_mut(3).unwrap() = 'z';
        assert_eq!(w.remove(3), Some('z'));
        assert_eq!(w.remove(3), None, "already retired");
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn out_of_order_retirement_closes_up_to_the_oldest_live_id() {
        let mut w = IdWindow::new(1);
        for i in 0..6u64 {
            w.push(i);
        }
        // Retire the middle and the end: the front still pins the window.
        for id in [3, 2, 6, 5] {
            assert!(w.remove(id).is_some());
        }
        assert_eq!((w.len(), w.span()), (2, 6));
        assert_eq!(w.get(3), None);
        assert_eq!(w.get(4), Some(&3));
        // Retiring the front skips every hole behind it; holes after the
        // oldest live id stay (ids 5 and 6 must not be handed out again).
        assert_eq!(w.remove(1), Some(0));
        assert_eq!((w.len(), w.span()), (1, 3));
        assert_eq!(w.get(4), Some(&3));
        assert_eq!(w.remove(4), Some(3));
        assert_eq!((w.len(), w.span()), (0, 0));
        // Ids keep counting from where they were.
        assert_eq!(w.push(9), 7);
        assert_eq!(w.values_mut().map(|v| *v).collect::<Vec<_>>(), [9]);
    }

    #[test]
    fn a_long_run_of_short_lived_entries_keeps_the_window_bounded() {
        let mut w = IdWindow::new(1);
        let mut peak = 0;
        for round in 0..25_000u64 {
            // Four in flight at a time, retired newest-first.
            let ids: Vec<u64> = (0..4).map(|k| w.push(round * 4 + k)).collect();
            peak = peak.max(w.span());
            for id in ids.into_iter().rev() {
                assert!(w.remove(id).is_some());
            }
        }
        assert_eq!((w.len(), w.span()), (0, 0));
        assert_eq!(peak, 4, "10^5 requests never widened the window past 4");
        assert_eq!(w.push(0), 100_001);
    }
}
