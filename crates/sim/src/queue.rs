//! The global event queue.
//!
//! A binary min-heap keyed by `(time, sequence)` where the sequence number
//! is a monotonically increasing insertion counter. Two events scheduled for
//! the same virtual instant are therefore delivered in the order they were
//! scheduled, which makes the whole simulation deterministic.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A pending event, ordered on `(time, seq)` alone.
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl<E> Eq for Entry<E> {}

/// Min-queue of timestamped events with FIFO tie-breaking.
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    next_seq: u64,
    peak: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue with room for `cap` events before reallocating.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
            peak: 0,
        }
    }

    /// Schedule `event` to fire at absolute time `at`.
    pub fn push(&mut self, at: SimTime, event: E) {
        self.heap.push(Reverse(Entry {
            time: at,
            seq: self.next_seq,
            event,
        }));
        self.next_seq += 1;
        self.peak = self.peak.max(self.heap.len());
    }

    /// Timestamp of the earliest pending event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.0.time)
    }

    /// Remove and return the earliest pending event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|Reverse(e)| (e.time, e.event))
    }

    /// Remove and return the earliest event **iff** it is due at or before
    /// `limit` — the scheduler's peek-then-pop collapsed into one call.
    #[inline]
    pub fn pop_due(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        if self.peek_time()? <= limit {
            self.pop()
        } else {
            None
        }
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events ever scheduled (insertion counter).
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// Peak occupancy ever reached.
    pub fn peak(&self) -> usize {
        self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use crate::time::SimDuration;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::micros(us)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(30), "c");
        q.push(t(10), "a");
        q.push(t(20), "b");
        assert_eq!(q.peek_time(), Some(t(10)));
        assert_eq!(q.pop(), Some((t(10), "a")));
        assert_eq!(q.pop(), Some((t(20), "b")));
        assert_eq!(q.pop(), Some((t(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(t(10), 1);
        q.push(t(5), 0);
        assert_eq!(q.pop().unwrap().1, 0);
        q.push(t(7), 2);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert!(q.is_empty());
        assert_eq!(q.scheduled_total(), 3);
    }

    #[test]
    fn pop_due_respects_limit() {
        let mut q = EventQueue::new();
        q.push(t(10), "a");
        q.push(t(20), "b");
        assert_eq!(q.pop_due(t(5)), None);
        assert_eq!(q.pop_due(t(10)), Some((t(10), "a")));
        assert_eq!(q.pop_due(t(15)), None);
        assert_eq!(q.pop_due(t(25)), Some((t(20), "b")));
        assert_eq!(q.pop_due(t(1_000)), None);
    }

    #[test]
    fn random_fill_drains_sorted_and_stable() {
        // Pop order must match a stable sort by (time, seq) for arbitrary
        // interleavings — the determinism contract of the whole engine.
        let mut rng = SplitMix64::new(0xDECAF);
        for round in 0..20 {
            let mut q = EventQueue::with_capacity(64);
            let n = 1 + (rng.next_below(200) as usize);
            let mut expect: Vec<(SimTime, u64)> = Vec::new();
            for i in 0..n as u64 {
                let at = SimTime(rng.next_below(50));
                q.push(at, i);
                expect.push((at, i));
            }
            expect.sort_by_key(|&(at, i)| (at, i));
            let got: Vec<(SimTime, u64)> = std::iter::from_fn(|| q.pop()).collect();
            assert_eq!(got, expect, "round {round}");
        }
    }

    /// Reference implementation: a linear scan for the `(time, seq)` minimum.
    struct RefHeap {
        v: Vec<(SimTime, u64)>,
        seq: u64,
    }

    impl RefHeap {
        fn new() -> Self {
            RefHeap {
                v: Vec::new(),
                seq: 0,
            }
        }
        fn push(&mut self, at: SimTime) {
            self.v.push((at, self.seq));
            self.seq += 1;
        }
        fn pop(&mut self) -> Option<(SimTime, u64)> {
            let i = self
                .v
                .iter()
                .enumerate()
                .min_by_key(|(_, &k)| k)
                .map(|(i, _)| i)?;
            Some(self.v.remove(i))
        }
    }

    #[test]
    fn queue_matches_reference_scan() {
        // Property test with interleaved pops: times mix same-instant ties,
        // near and far horizons.
        let mut rng = SplitMix64::new(0xBEEF_CAFE);
        for round in 0..40 {
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut r = RefHeap::new();
            let ops = 1 + rng.next_below(400);
            for _ in 0..ops {
                if rng.next_below(3) == 0 && !q.is_empty() {
                    assert_eq!(q.pop(), r.pop(), "round {round}");
                } else {
                    let at = match rng.next_below(4) {
                        0 => SimTime(rng.next_below(2_000)),
                        1 => SimTime(rng.next_below(1 << 12)),
                        2 => SimTime(rng.next_below(1 << 20)),
                        _ => SimTime(rng.next_below(1 << 34)),
                    };
                    q.push(at, r.seq);
                    r.push(at);
                }
            }
            loop {
                let got = q.pop();
                assert_eq!(got, r.pop(), "round {round} drain");
                if got.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn peak_tracks_the_high_water_mark() {
        let mut q = EventQueue::new();
        assert_eq!(q.peak(), 0);
        q.push(t(1), 0);
        q.push(t(2), 1);
        q.pop();
        q.push(t(3), 2);
        assert_eq!(q.peak(), 2, "pop then push stays at the high-water mark");
    }
}
