//! The channel laws every finished world obeys (paper §3.3–§3.5).
//!
//! [`crate::Universe::run`] checks them on every world, in every build,
//! after the last event. Nothing quiesces first: a finished rank stops
//! polling, so a message or credit return that lands after its last pass
//! stays in its NIC's completion queue, and the laws count it there. Per
//! `(pair, stripe)` channel end:
//!
//! 1. nothing is queued (`pending == 0`) and nothing is in flight
//!    (`inflight == 0`);
//! 2. at most `vis_per_peer` connected VIs join the pair;
//! 3. a `Connected` end's own VI is connected, and so is its peer end's;
//! 4. **credit conservation**, wherever both ends hold a VI: the sender's
//!    credits, plus the credits piggybacked on receive completions still in
//!    the sender's queue, plus the receiver's owed credits, plus the
//!    receive completions still in the receiver's queue, equal the
//!    receiver's window `bufs`;
//! 5. **posted window**: an end's VI holds `bufs` receive descriptors,
//!    less the receive completions still in its queue.
//!
//! `ChanState::is_settled` is not a law of every world: a handshake nobody
//! answered (§3.5's `ANY_SOURCE` fan-out) or a promotion nobody polled for
//! can end a run. Harnesses whose programs quiesce check it themselves.

use crate::conn::ChanState;
use crate::device::ChannelSnapshot;
use crate::protocol::Header;
use std::fmt;
use viampi_via::{CompletionKind, Fabric, Nic, ViId};

/// One broken law at one channel end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rank holding the end.
    pub rank: usize,
    /// The end's peer rank.
    pub peer: usize,
    /// The end's stripe.
    pub stripe: usize,
    /// The law broken, numbered as in the module doc.
    pub law: u8,
    /// What the end holds.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rank {} -> {} stripe {}: law {}: {}",
            self.rank, self.peer, self.stripe, self.law, self.detail
        )
    }
}

/// Receive completions on `vi` still in `nic`'s queue, and the credits
/// their headers return.
fn unreaped(nic: &Nic, vi: ViId) -> (usize, usize) {
    let recvs = nic
        .cq
        .iter()
        .filter(|c| c.vi == vi && c.kind == CompletionKind::Recv);
    recvs.fold((0, 0), |(n, credits), c| {
        let header = c
            .payload
            .as_ref()
            .and_then(|p| Header::decode(p.as_slice()));
        (n + 1, credits + header.map_or(0, |h| h.credits as usize))
    })
}

/// Check every law on a finished world. `ends[r]` is rank `r`'s channel
/// snapshots, ascending by `(peer, stripe)` as the device reports them, so
/// an end's reverse is one binary search away.
pub fn check(vis_per_peer: usize, ends: &[&[ChannelSnapshot]], fabric: &Fabric) -> Vec<Violation> {
    let mut out = Vec::new();
    for (rank, mine) in ends.iter().enumerate() {
        let nic = &fabric.nics[rank];
        for e in mine.iter() {
            let mut broke = |law, detail| {
                out.push(Violation {
                    rank,
                    peer: e.peer,
                    stripe: e.stripe,
                    law,
                    detail,
                })
            };
            if e.pending != 0 || e.inflight != 0 {
                let (p, i) = (e.pending, e.inflight);
                broke(1, format!("{p} sends queued, {i} descriptors in flight"));
            }
            if e.connected_vis_to_peer > vis_per_peer {
                let n = e.connected_vis_to_peer;
                broke(2, format!("{n} connected VIs (cap {vis_per_peer})"));
            }
            let theirs = ends[e.peer];
            let back = theirs
                .binary_search_by_key(&(rank, e.stripe), |c| (c.peer, c.stripe))
                .map(|i| &theirs[i])
                .ok();
            let peer_up = back.is_some_and(|b| b.vi_connected);
            if e.state == ChanState::Connected && !(e.vi_connected && peer_up) {
                let own = e.vi_connected;
                broke(3, format!("Connected, own VI up: {own}, peer's: {peer_up}"));
            }
            let Some(vi) = e.vi else { continue };
            // invariant: the device never destroys a VI it created.
            let posted = nic.vis[vi.0 as usize].recv_posted;
            let (recvs, returning) = unreaped(nic, vi);
            if posted + recvs != e.bufs {
                let bufs = e.bufs;
                broke(5, format!("{posted} posted + {recvs} unreaped != {bufs}"));
            }
            // Law 4 with this end as the sender.
            let Some((b, b_vi)) = back.and_then(|b| Some((b, b.vi?))) else {
                continue;
            };
            let (consumed, _) = unreaped(&fabric.nics[e.peer], b_vi);
            if e.credits + returning + b.credits_owed + consumed != b.bufs {
                broke(
                    4,
                    format!(
                        "{} held + {returning} returning + {} owed + {consumed} unreaped != {} bufs",
                        e.credits, b.credits_owed, b.bufs
                    ),
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{MsgKind, HEADER_LEN};
    use viampi_via::fabric::Bytes;
    use viampi_via::{Completion, DescId, DeviceProfile, ViState};

    /// Receive window of every test channel.
    const W: usize = 8;

    /// Two ranks joined on `stripes` stripes by connected VIs (stripe `s`
    /// on VI `s`), every window posted and every credit at home.
    fn pair(stripes: usize) -> (Fabric, [Vec<ChannelSnapshot>; 2]) {
        let mut fabric = Fabric::new(DeviceProfile::clan(), 2);
        let ends = [0, 1].map(|rank| {
            let nic = &mut fabric.nics[rank];
            (0..stripes)
                .map(|stripe| {
                    let vi = nic.create_vi(16).unwrap();
                    let v = &mut nic.vis[vi.0 as usize];
                    v.state = ViState::Connected;
                    v.recv_posted = W;
                    ChannelSnapshot {
                        peer: 1 - rank,
                        stripe,
                        state: ChanState::Connected,
                        credits: W,
                        credits_owed: 0,
                        bufs: W,
                        pending: 0,
                        inflight: 0,
                        vi: Some(vi),
                        vi_connected: true,
                        connected_vis_to_peer: stripes,
                    }
                })
                .collect()
        });
        (fabric, ends)
    }

    /// `(rank, peer, stripe, law)` of every violation, sorted.
    fn broken(
        stripes: usize,
        ends: &[Vec<ChannelSnapshot>; 2],
        fabric: &Fabric,
    ) -> Vec<(usize, usize, usize, u8)> {
        let mut v: Vec<_> = check(stripes, &[&ends[0], &ends[1]], fabric)
            .iter()
            .map(|v| (v.rank, v.peer, v.stripe, v.law))
            .collect();
        v.sort();
        v
    }

    /// A message lands on `rank`'s `vi`, returning `credits`, and nobody
    /// reaps it: one descriptor consumed, one completion queued.
    fn land_unreaped(fabric: &mut Fabric, rank: usize, vi: ViId, credits: u8) {
        let mut h = Header::control(MsgKind::Credit, 0, 0, 0);
        h.credits = credits;
        let nic = &mut fabric.nics[rank];
        nic.vis[vi.0 as usize].recv_posted -= 1;
        nic.cq.push_back(Completion {
            vi,
            kind: CompletionKind::Recv,
            desc: DescId(0),
            len: HEADER_LEN,
            imm: 0,
            segment: None,
            payload: Some(Bytes::from_vec(h.to_bytes().to_vec())),
        });
    }

    #[test]
    fn a_credit_one_short_or_one_over_is_a_leak() {
        let (fabric, mut ends) = pair(1);
        assert_eq!(broken(1, &ends, &fabric), []);
        for held in [W - 1, W + 1] {
            ends[0][0].credits = held;
            assert_eq!(broken(1, &ends, &fabric), [(0, 1, 0, 4)], "held {held}");
        }
    }

    #[test]
    fn two_connected_vis_for_one_pair_at_one_stripe() {
        let (fabric, mut ends) = pair(1);
        for end in &mut ends {
            end[0].connected_vis_to_peer = 2;
        }
        assert_eq!(broken(1, &ends, &fabric), [(0, 1, 0, 2), (1, 0, 0, 2)]);
    }

    #[test]
    fn a_connected_end_whose_peers_vi_is_down() {
        let (fabric, mut ends) = pair(1);
        ends[1][0].state = ChanState::Connecting;
        ends[1][0].vi_connected = false;
        assert_eq!(broken(1, &ends, &fabric), [(0, 1, 0, 3)]);
        // A `Connecting` end whose VI is already up is a promotion its rank
        // never polled for, not a violation.
        ends[1][0].vi_connected = true;
        assert_eq!(broken(1, &ends, &fabric), []);
    }

    #[test]
    fn an_unreaped_credit_return_balances_the_law() {
        // Rank 0 sent 3 messages that rank 1 reaped; rank 1 returned their
        // credits on a message of its own that rank 0 never reaped.
        let (mut fabric, mut ends) = pair(1);
        let vi0 = ends[0][0].vi.unwrap();
        ends[0][0].credits -= 3;
        ends[1][0].credits -= 1;
        land_unreaped(&mut fabric, 0, vi0, 3);
        assert_eq!(broken(1, &ends, &fabric), []);
        // Without the completion, the credits and the descriptor are gone.
        fabric.nics[0].cq.clear();
        assert_eq!(
            broken(1, &ends, &fabric),
            [(0, 1, 0, 4), (0, 1, 0, 5), (1, 0, 0, 4)]
        );
    }

    #[test]
    fn a_leak_on_stripe_two_of_four_names_that_stripe() {
        let (fabric, mut ends) = pair(4);
        assert_eq!(broken(4, &ends, &fabric), []);
        ends[1][2].credits_owed += 1;
        assert_eq!(broken(4, &ends, &fabric), [(0, 1, 2, 4)]);
    }
}
