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
/// A lookup searches a compact sorted index; the channels themselves sit in
/// the order they were first touched and never move, so materializing one
/// shifts index entries, not channels. A statically wired rank touches every
/// peer's slots, so the lookup first checks where a dense index holds the
/// slot (`find_slot`) and binary-searches only on a miss.
pub struct ChannelTable {
    /// `(slot, position in channels)` of every materialized channel,
    /// ascending by slot.
    index: Vec<(usize, u32)>,
    /// The channels, in first-touch order; append-only.
    channels: Vec<Channel>,
    /// The owning rank, whose own slots the dense index skips.
    rank: usize,
    /// Stripes per peer pair (`cfg.vis_per_peer`), for slot decoding.
    stripes: usize,
    /// Read-only stand-in for never-touched slots. Its `peer` field is a
    /// sentinel and never read: every consumer carries the index separately.
    empty: Channel,
}

impl ChannelTable {
    pub(crate) fn new(rank: usize, stripes: usize) -> Self {
        ChannelTable {
            index: Vec::new(),
            channels: Vec::new(),
            rank,
            stripes,
            empty: Channel::new(usize::MAX, 0),
        }
    }

    /// Where `slot` is in the index, or where it would be inserted.
    #[inline]
    fn find(&self, slot: usize) -> Result<usize, usize> {
        find_slot(&self.index, slot, self.rank, self.stripes, |&(s, _)| s)
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

/// Find `slot` in `list`, ascending by `slot_of` (slot `peer * stripes +
/// stripe`), as a binary search does: `Ok` with its position, or `Err` with
/// where it would go. The position a dense list of every peer's slots but
/// `own`'s holds it — `slot` below `own`'s slots, `slot - stripes` above —
/// is checked first, so a fully wired table is found without a search.
#[inline]
pub(crate) fn find_slot<T>(
    list: &[T],
    slot: usize,
    own: usize,
    stripes: usize,
    slot_of: impl Fn(&T) -> usize,
) -> Result<usize, usize> {
    let guess = if slot < own * stripes {
        slot
    } else {
        slot.wrapping_sub(stripes)
    };
    match list.get(guess) {
        Some(e) if slot_of(e) == slot => Ok(guess),
        _ => list.binary_search_by_key(&slot, slot_of),
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

    /// Apply one step to both: with `write`, add it to the slot's credits
    /// through `&mut table[slot]`; without, read the slot and check it
    /// against the model (reading never materializes).
    fn visit(
        table: &mut ChannelTable,
        model: &mut BTreeMap<usize, Model>,
        slot: usize,
        write: Option<usize>,
    ) {
        let stripes = table.stripes;
        if let Some(add) = write {
            table[slot].credits += add;
            let m = model.entry(slot).or_insert(Model {
                peer: slot / stripes,
                stripe: slot % stripes,
                credits: 0,
            });
            m.credits += add;
            return;
        }
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

    /// Index entries a lookup of `slot` reads: 1 when the dense guess hits.
    fn probes(table: &ChannelTable, slot: usize) -> usize {
        let n = std::cell::Cell::new(0);
        let found = find_slot(&table.index, slot, table.rank, table.stripes, |&(s, _)| {
            n.set(n.get() + 1);
            s
        });
        assert_eq!(found, table.find(slot));
        n.get()
    }

    #[test]
    fn behaves_like_an_ordered_map_that_materializes_on_mutable_access() {
        for (seed, stripes) in [(1u64, 1usize), (2, 1), (3, 4), (4, 3)] {
            let mut rng = SplitMix64::new(seed);
            let rank = (seed as usize * 37) % 100;
            let mut table = ChannelTable::new(rank, stripes);
            let mut model: BTreeMap<usize, Model> = BTreeMap::new();
            let mut searched = 0;
            for step in 0..4_000usize {
                // A small slot space, so slots are revisited; touched in
                // no particular order.
                let slot = (rng.next_u64() % 300) as usize;
                let write = rng.next_u64().is_multiple_of(3).then_some(step);
                visit(&mut table, &mut model, slot, write);
                if model.contains_key(&slot) && probes(&table, slot) > 1 {
                    searched += 1;
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
            assert!(searched > 100, "seed {seed}: the fallback search is taken");
        }
    }

    #[test]
    fn a_dense_fill_around_the_own_rank_is_found_without_a_search() {
        const NP: usize = 12;
        for stripes in 1..=4 {
            for rank in [0, 5, NP - 1] {
                let at = format!("rank {rank} of {NP}, {stripes} stripes");
                let mut rng = SplitMix64::new((rank * 8 + stripes) as u64);
                let mut table = ChannelTable::new(rank, stripes);
                let mut model: BTreeMap<usize, Model> = BTreeMap::new();
                let own = rank * stripes..(rank + 1) * stripes;
                // Ascending, as static wiring touches its channels, with a
                // read of any slot (the own ones and past the end included)
                // after each.
                for slot in (0..NP * stripes).filter(|s| !own.contains(s)) {
                    visit(&mut table, &mut model, slot, Some(slot + 1));
                    assert_eq!(probes(&table, slot), 1, "{at}: slot {slot}");
                    let any = (rng.next_u64() % ((NP + 1) * stripes) as u64) as usize;
                    visit(&mut table, &mut model, any, None);
                }
                assert_same_entries(&table, &model, &at);
                assert_eq!(model.len(), (NP - 1) * stripes, "{at}");
                for &slot in model.keys() {
                    assert_eq!(probes(&table, slot), 1, "{at}: slot {slot}");
                }
                for slot in own.chain(NP * stripes..(NP + 1) * stripes) {
                    visit(&mut table, &mut model, slot, None);
                }
            }
        }
    }
}
