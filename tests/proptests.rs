//! Property-based tests over the whole stack: wire protocol, matching
//! semantics, data integrity through eager/rendezvous, collective algebra,
//! and event-queue ordering.
//!
//! Cases are generated from a seeded [`SplitMix64`] stream instead of
//! `proptest` (unavailable offline), so every run exercises the identical
//! deterministic case set; regression cases proptest once shrank to are
//! kept as explicit tests.

use viampi::core::matching::{MatchEngine, PostedRecv, Unexpected, UnexpectedBody};
use viampi::core::protocol::{Header, MsgKind};
use viampi::sim::{EventQueue, SimTime, SplitMix64};
use viampi::{ConnMode, Device, ReduceOp, Universe, WaitPolicy};

const KINDS: [MsgKind; 5] = [
    MsgKind::Eager,
    MsgKind::Rts,
    MsgKind::Cts,
    MsgKind::Fin,
    MsgKind::Credit,
];

// ---------------------------------------------------------------------
// Wire protocol
// ---------------------------------------------------------------------

#[test]
fn header_roundtrips() {
    let mut rng = SplitMix64::new(0x4EAD);
    for _ in 0..500 {
        let h = Header {
            kind: KINDS[rng.next_below(KINDS.len() as u64) as usize],
            credits: rng.next_u64() as u8,
            context: rng.next_u64() as u16,
            src: rng.next_u64() as u32,
            tag: rng.next_u64() as i32,
            aux1: rng.next_u64(),
            aux2: rng.next_u64(),
            len: rng.next_u64() as u32,
        };
        assert_eq!(Header::decode(&h.to_bytes()), Some(h));
    }
}

#[test]
fn cts_packing_roundtrips() {
    let mut rng = SplitMix64::new(0xC75);
    for _ in 0..500 {
        let rreq = rng.next_below(u32::MAX as u64);
        let mem = rng.next_u64() as u32;
        let packed = Header::pack_cts(rreq, mem);
        assert_eq!(Header::unpack_cts(packed), (rreq, mem));
    }
}

// ---------------------------------------------------------------------
// Matching engine vs a reference model
// ---------------------------------------------------------------------

/// O(n²) reference implementation of the MPI matching rules.
#[derive(Default)]
struct RefModel {
    posted: Vec<(u64, Option<u32>, Option<i32>)>,
    unexpected: Vec<(u32, i32, u64)>,
}

impl RefModel {
    fn post(&mut self, req: u64, src: Option<u32>, tag: Option<i32>) -> Option<u64> {
        // Oldest matching unexpected message wins.
        let pos = self
            .unexpected
            .iter()
            .position(|&(s, t, _)| src.is_none_or(|x| x == s) && tag.is_none_or(|x| x == t));
        match pos {
            Some(i) => Some(self.unexpected.remove(i).2),
            None => {
                self.posted.push((req, src, tag));
                None
            }
        }
    }

    fn incoming(&mut self, src: u32, tag: i32, uid: u64) -> Option<u64> {
        let pos = self
            .posted
            .iter()
            .position(|&(_, s, t)| s.is_none_or(|x| x == src) && t.is_none_or(|x| x == tag));
        match pos {
            Some(i) => Some(self.posted.remove(i).0),
            None => {
                self.unexpected.push((src, tag, uid));
                None
            }
        }
    }
}

#[test]
fn matching_agrees_with_reference() {
    for case in 0..60u64 {
        let mut rng = SplitMix64::new(0x0A7C ^ case);
        let nops = 1 + rng.next_below(120) as usize;
        let mut eng = MatchEngine::new();
        let mut refm = RefModel::default();
        let mut next_req = 0u64;
        let mut next_uid = 0u64;
        for _ in 0..nops {
            if rng.next_below(2) == 0 {
                // Post a receive with optional src/tag wildcards.
                let src = if rng.next_below(3) == 0 {
                    None
                } else {
                    Some(rng.next_below(4) as u32)
                };
                let tag = if rng.next_below(3) == 0 {
                    None
                } else {
                    Some(rng.next_below(4) as i32)
                };
                let req = next_req;
                next_req += 1;
                let got = eng.post_recv(PostedRecv {
                    req,
                    context: 0,
                    src,
                    tag,
                });
                let want = refm.post(req, src, tag);
                // Compare by the unexpected message identity (stored in
                // the eager payload).
                let got_uid = got.map(|u| match u.body {
                    UnexpectedBody::Eager(d) => u64::from_le_bytes(d[..].try_into().unwrap()),
                    _ => unreachable!(),
                });
                assert_eq!(got_uid, want, "case {case}");
            } else {
                let src = rng.next_below(4) as u32;
                let tag = rng.next_below(4) as i32;
                let uid = next_uid;
                next_uid += 1;
                let got = eng.incoming(0, src, tag).map(|p| p.req);
                let want = refm.incoming(src, tag, uid);
                assert_eq!(got, want, "case {case}");
                if got.is_none() {
                    eng.push_unexpected(Unexpected {
                        context: 0,
                        src,
                        tag,
                        body: UnexpectedBody::Eager(uid.to_le_bytes().to_vec().into()),
                    });
                }
            }
        }
        assert_eq!(eng.posted_len(), refm.posted.len());
        assert_eq!(eng.unexpected_len(), refm.unexpected.len());
    }
}

// ---------------------------------------------------------------------
// Event queue ordering
// ---------------------------------------------------------------------

#[test]
fn event_queue_is_stable_min_heap() {
    for case in 0..30u64 {
        let mut rng = SplitMix64::new(0x5EAB ^ case);
        let n = 1 + rng.next_below(200) as usize;
        let times: Vec<u64> = (0..n).map(|_| rng.next_below(1000)).collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime(t), i);
        }
        let mut expect: Vec<(u64, usize)> = times.iter().copied().zip(0..).collect();
        expect.sort_by_key(|&(t, i)| (t, i)); // stable by insertion order
        for (t, i) in expect {
            let (pt, pi) = q.pop().unwrap();
            assert_eq!((pt, pi), (SimTime(t), i), "case {case}");
        }
        assert!(q.pop().is_none());
    }
}

// ---------------------------------------------------------------------
// End-to-end data integrity and collective algebra (full simulations —
// a handful of cases each, they are whole cluster runs)
// ---------------------------------------------------------------------

#[test]
fn arbitrary_message_sequences_arrive_intact_and_in_order() {
    for case in 0..8u64 {
        let mut rng = SplitMix64::new(0x1A7E ^ case);
        let n = 1 + rng.next_below(11) as usize;
        let sizes: Vec<usize> = (0..n).map(|_| rng.next_below(20_000) as usize).collect();
        let seed = rng.next_u64();
        let sizes2 = sizes.clone();
        let report = Universe::new(2, Device::Clan, ConnMode::OnDemand, WaitPolicy::Polling)
            .run(move |mpi| {
                if mpi.rank() == 0 {
                    for (i, &n) in sizes2.iter().enumerate() {
                        let payload: Vec<u8> =
                            (0..n).map(|j| (j as u64 ^ seed ^ i as u64) as u8).collect();
                        mpi.send(&payload, 1, 0);
                    }
                    true
                } else {
                    let mut ok = true;
                    for (i, &n) in sizes2.iter().enumerate() {
                        let (d, st) = mpi.recv(Some(0), Some(0));
                        let expect: Vec<u8> =
                            (0..n).map(|j| (j as u64 ^ seed ^ i as u64) as u8).collect();
                        ok &= d == expect && st.len == n;
                    }
                    ok
                }
            })
            .unwrap();
        assert!(report.results.iter().all(|&ok| ok), "case {case}");
    }
}

#[test]
fn allreduce_equals_serial_sum() {
    for case in 0..6u64 {
        let mut rng = SplitMix64::new(0xA115 ^ case);
        let np = 2 + rng.next_below(7) as usize;
        let n = 1 + rng.next_below(31) as usize;
        let vals: Vec<f64> = (0..n).map(|_| (rng.next_f64() - 0.5) * 2.0e6).collect();
        let vals2 = vals.clone();
        let report = Universe::new(np, Device::Clan, ConnMode::OnDemand, WaitPolicy::Polling)
            .run(move |mpi| {
                let mine: Vec<f64> = vals2
                    .iter()
                    .map(|v| v * (mpi.rank() as f64 + 1.0))
                    .collect();
                mpi.allreduce(&mine, ReduceOp::Sum)
            })
            .unwrap();
        // Serial reference: sum over ranks of v * (r+1) = v * np(np+1)/2.
        let k = (np * (np + 1) / 2) as f64;
        for result in &report.results {
            for (got, v) in result.iter().zip(&vals) {
                let want = v * k;
                let tol = 1e-9 * want.abs().max(1.0);
                assert!((got - want).abs() <= tol, "case {case}: {got} vs {want}");
            }
        }
        // Every rank gets the identical vector.
        for r in 1..np {
            assert_eq!(&report.results[r], &report.results[0]);
        }
    }
}

#[test]
fn alltoall_is_a_transpose() {
    for case in 0..6u64 {
        let mut rng = SplitMix64::new(0xA27A ^ case);
        let np = 2 + rng.next_below(5) as usize;
        let len = rng.next_below(4096) as usize;
        let report = Universe::new(np, Device::Clan, ConnMode::OnDemand, WaitPolicy::Polling)
            .run(move |mpi| {
                let rank = mpi.rank();
                let send: Vec<Vec<u8>> = (0..np)
                    .map(|dst| vec![(rank * np + dst) as u8; len])
                    .collect();
                let recv = mpi.alltoall(send);
                recv.iter().enumerate().all(|(src, b)| {
                    b.len() == len && b.iter().all(|&x| x == (src * np + rank) as u8)
                })
            })
            .unwrap();
        assert!(report.results.iter().all(|&ok| ok), "case {case}");
    }
}

#[test]
fn wildcard_receives_never_lose_messages() {
    for case in 0..6u64 {
        let mut rng = SplitMix64::new(0x71DC ^ case);
        // Random senders each send one tagged message; rank 0 receives them
        // all with ANY_SOURCE and accounts for every one.
        let n = 1 + rng.next_below(9) as usize;
        let senders: Vec<usize> = (0..n).map(|_| 1 + rng.next_below(4) as usize).collect();
        let senders2 = senders.clone();
        let report = Universe::new(5, Device::Clan, ConnMode::OnDemand, WaitPolicy::Polling)
            .run(move |mpi| {
                let rank = mpi.rank();
                if rank == 0 {
                    let mut got = vec![0usize; 5];
                    for _ in 0..n {
                        let (_, st) = mpi.recv(viampi::ANY_SOURCE, Some(3));
                        got[st.source] += 1;
                    }
                    got
                } else {
                    for &s in &senders2 {
                        if s == rank {
                            mpi.send(&[rank as u8], 0, 3);
                        }
                    }
                    Vec::new()
                }
            })
            .unwrap();
        let mut want = vec![0usize; 5];
        for s in senders {
            want[s] += 1;
        }
        assert_eq!(&report.results[0], &want, "case {case}");
    }
}

// ---------------------------------------------------------------------
// Random schedules vs the MPI matching oracle
// ---------------------------------------------------------------------

/// Rank 0 sends a random schedule of tagged messages; rank 1 receives
/// them in a random tag order. Oracle: for each (src, tag) stream,
/// messages arrive in send order (MPI non-overtaking), regardless of
/// the receive interleaving and of eager/rendezvous protocol choice.
fn check_per_tag_fifo(msgs: &[(i32, usize)], recv_perm_seed: u64, dynamic: bool) {
    // Stamp each message with its per-tag sequence number.
    let mut per_tag = [0u32; 3];
    let schedule: Vec<(i32, usize, u32)> = msgs
        .iter()
        .map(|&(tag, size)| {
            let seq = per_tag[tag as usize];
            per_tag[tag as usize] += 1;
            (tag, size.max(8), seq)
        })
        .collect();
    // Receive order: shuffle tags deterministically from the seed but
    // keep per-tag order (receives for one tag are posted in order).
    let mut recv_order: Vec<(i32, usize, u32)> = schedule.clone();
    let mut x = recv_perm_seed | 1;
    for i in (1..recv_order.len()).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = (x % (i as u64 + 1)) as usize;
        recv_order.swap(i, j);
    }
    // Restore per-tag relative order after the shuffle.
    let mut streams: [Vec<(i32, usize, u32)>; 3] = Default::default();
    for &m in &schedule {
        streams[m.0 as usize].push(m);
    }
    let mut cursor = [0usize; 3];
    let recv_order: Vec<(i32, usize, u32)> = recv_order
        .iter()
        .map(|&(tag, _, _)| {
            let m = streams[tag as usize][cursor[tag as usize]];
            cursor[tag as usize] += 1;
            m
        })
        .collect();

    let sched2 = schedule.clone();
    let rorder = recv_order.clone();
    let mut uni = Universe::new(2, Device::Clan, ConnMode::OnDemand, WaitPolicy::Polling);
    uni.config_mut().dynamic_credits = dynamic;
    uni.config_mut().os_noise = false;
    let report = uni
        .run(move |mpi| {
            if mpi.rank() == 0 {
                // Nonblocking sends: a blocking rendezvous send against
                // an out-of-order receive schedule would be an
                // MPI-erroneous (deadlocking) program.
                let reqs: Vec<_> = sched2
                    .iter()
                    .map(|&(tag, size, seq)| {
                        let mut payload = vec![tag as u8; size];
                        payload[..4].copy_from_slice(&seq.to_le_bytes());
                        mpi.isend(&payload, 1, tag)
                    })
                    .collect();
                mpi.waitall(&reqs);
                true
            } else {
                rorder.iter().all(|&(tag, size, seq)| {
                    let (d, st) = mpi.recv(Some(0), Some(tag));
                    let got_seq = u32::from_le_bytes(d[..4].try_into().unwrap());
                    d.len() == size && st.tag == tag && got_seq == seq
                })
            }
        })
        .unwrap();
    assert!(report.results[1], "per-tag FIFO violated");
}

#[test]
fn random_schedules_respect_per_tag_fifo() {
    for case in 0..8u64 {
        let mut rng = SplitMix64::new(0xF1F0 ^ case);
        let n = 1 + rng.next_below(19) as usize;
        let msgs: Vec<(i32, usize)> = (0..n)
            .map(|_| (rng.next_below(3) as i32, 1 + rng.next_below(8999) as usize))
            .collect();
        let seed = rng.next_u64();
        let dynamic = rng.next_below(2) == 1;
        check_per_tag_fifo(&msgs, seed, dynamic);
    }
}

#[test]
fn per_tag_fifo_regression_mixed_protocol_overlap() {
    // Shrunk failure case recorded by the original proptest run: five
    // messages straddling the eager/rendezvous threshold with an
    // adversarial receive permutation.
    let msgs = [(1, 5003), (0, 4354), (1, 8256), (1, 723), (1, 5238)];
    check_per_tag_fifo(&msgs, 1_892_417_116_517_223_958, false);
}

/// The same random schedule produces byte-identical results under all
/// three connection managers.
#[test]
fn random_schedules_identical_across_managers() {
    for case in 0..6u64 {
        let mut rng = SplitMix64::new(0x1DE7 ^ case);
        let n = 1 + rng.next_below(9) as usize;
        let msgs: Vec<(i32, usize)> = (0..n)
            .map(|_| (rng.next_below(3) as i32, 1 + rng.next_below(6999) as usize))
            .collect();
        let run = |conn: ConnMode| {
            let msgs = msgs.clone();
            Universe::new(2, Device::Clan, conn, WaitPolicy::Polling)
                .run(move |mpi| {
                    if mpi.rank() == 0 {
                        for (i, &(tag, size)) in msgs.iter().enumerate() {
                            mpi.send(&vec![(i * 7) as u8; size], 1, tag);
                        }
                        Vec::new()
                    } else {
                        msgs.iter()
                            .map(|&(tag, _)| mpi.recv(Some(0), Some(tag)).0)
                            .collect::<Vec<_>>()
                    }
                })
                .unwrap()
                .results
                .remove(1)
        };
        let a = run(ConnMode::OnDemand);
        let b = run(ConnMode::StaticPeerToPeer);
        let c = run(ConnMode::StaticClientServer);
        assert_eq!(&a, &b, "case {case}");
        assert_eq!(&b, &c, "case {case}");
    }
}
