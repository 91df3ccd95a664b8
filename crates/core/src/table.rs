//! The per-rank channel table.

use crate::device::Channel;

/// Sparse channel table, keyed by **slot** `peer * vis_per_peer + stripe`
/// (with the default `vis_per_peer = 1` a slot *is* the peer rank). A
/// channel materializes on first *mutable* access (`&mut table[slot]`), so a
/// rank's footprint is O(channels it actually touched) instead of O(world
/// size) — the property that lets np=4096 on-demand worlds fit in memory.
/// Immutable indexing of a never-touched slot yields a shared default
/// `Unconnected` view, and iteration visits materialized channels in
/// ascending slot order — the order a dense table would walk them, with the
/// untouched no-op entries (empty queues, `Unconnected` state) skipped.
///
/// A lookup is one binary search of a compact sorted index; the channels
/// themselves sit in the order they were first touched and never move, so
/// materializing one shifts index entries, not channels.
pub struct ChannelTable {
    /// `(slot, position in channels)` of every materialized channel,
    /// ascending by slot.
    index: Vec<(usize, u32)>,
    /// The channels, in first-touch order; append-only.
    channels: Vec<Channel>,
    /// Stripes per peer pair (`cfg.vis_per_peer`), for slot decoding.
    stripes: usize,
    /// Read-only stand-in for never-touched slots. Its `peer` field is a
    /// sentinel and never read: every consumer carries the index separately.
    empty: Channel,
}

impl ChannelTable {
    pub(crate) fn new(stripes: usize) -> Self {
        ChannelTable {
            index: Vec::new(),
            channels: Vec::new(),
            stripes,
            empty: Channel::new(usize::MAX, 0),
        }
    }

    /// Where `slot` is in the index, or where it would be inserted.
    #[inline]
    fn find(&self, slot: usize) -> Result<usize, usize> {
        self.index.binary_search_by_key(&slot, |&(s, _)| s)
    }

    /// Materialized channels, ascending by slot.
    pub fn iter(&self) -> impl Iterator<Item = &Channel> {
        self.iter_entries().map(|(_, c)| c)
    }

    /// `(slot, channel)` pairs over materialized channels, ascending.
    pub fn iter_entries(&self) -> impl Iterator<Item = (usize, &Channel)> {
        self.index
            .iter()
            .map(|&(slot, at)| (slot, &self.channels[at as usize]))
    }
}

impl std::ops::Index<usize> for ChannelTable {
    type Output = Channel;
    #[inline]
    fn index(&self, slot: usize) -> &Channel {
        match self.find(slot) {
            Ok(i) => &self.channels[self.index[i].1 as usize],
            Err(_) => &self.empty,
        }
    }
}

impl std::ops::IndexMut<usize> for ChannelTable {
    #[inline]
    fn index_mut(&mut self, slot: usize) -> &mut Channel {
        let at = match self.find(slot) {
            Ok(i) => self.index[i].1,
            Err(i) => {
                let at = u32::try_from(self.channels.len()).expect("channel count fits u32");
                self.channels
                    .push(Channel::new(slot / self.stripes, slot % self.stripes));
                self.index.insert(i, (slot, at));
                at
            }
        };
        &mut self.channels[at as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::ChanState;
    use std::collections::BTreeMap;
    use viampi_sim::SplitMix64;

    /// What the model keeps of a channel: who it is, and a value written
    /// through `&mut table[slot]` (any public field would do).
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    struct Model {
        peer: usize,
        stripe: usize,
        credits: usize,
    }

    fn observed(slot_ch: (usize, &Channel)) -> (usize, Model) {
        let (slot, c) = slot_ch;
        let m = Model {
            peer: c.peer,
            stripe: c.stripe,
            credits: c.credits,
        };
        (slot, m)
    }

    /// Ascending iteration of `table` shows exactly the model's entries.
    fn assert_same_entries(table: &ChannelTable, model: &BTreeMap<usize, Model>, at: &str) {
        let got: Vec<_> = table.iter_entries().map(observed).collect();
        let want: Vec<_> = model.iter().map(|(&s, &m)| (s, m)).collect();
        assert_eq!(got, want, "{at}");
        assert!(
            table
                .iter()
                .map(|c| c.peer)
                .eq(want.iter().map(|w| w.1.peer)),
            "{at}"
        );
    }

    #[test]
    fn behaves_like_an_ordered_map_that_materializes_on_mutable_access() {
        for (seed, stripes) in [(1u64, 1usize), (2, 1), (3, 4), (4, 3)] {
            let mut rng = SplitMix64::new(seed);
            let mut table = ChannelTable::new(stripes);
            let mut model: BTreeMap<usize, Model> = BTreeMap::new();
            for step in 0..4_000usize {
                // A small slot space, so slots are revisited; touched in
                // no particular order.
                let slot = (rng.next_u64() % 300) as usize;
                if rng.next_u64().is_multiple_of(3) {
                    let ch = &mut table[slot];
                    ch.credits += step;
                    let m = model.entry(slot).or_insert(Model {
                        peer: slot / stripes,
                        stripe: slot % stripes,
                        credits: 0,
                    });
                    m.credits += step;
                } else {
                    // Reading never materializes.
                    let ch = &table[slot];
                    match model.get(&slot) {
                        Some(m) => assert_eq!(observed((slot, ch)).1, *m),
                        None => {
                            assert_eq!(ch.conn.state(), ChanState::Unconnected);
                            assert!(ch.outq.is_empty());
                            assert_eq!((ch.credits, ch.credits_owed, ch.bufs), (0, 0, 0));
                        }
                    }
                }
                if step.is_multiple_of(97) {
                    assert_same_entries(&table, &model, &format!("seed {seed} step {step}"));
                }
            }
            assert_same_entries(&table, &model, &format!("seed {seed} at the end"));
            assert!(
                model.len() > 100 && model.len() < 300,
                "some slots touched, some never"
            );
        }
    }
}
