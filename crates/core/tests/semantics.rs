//! MPI point-to-point semantics across connection managers, devices and
//! wait policies.

use viampi_core::{
    Comm, ConnMode, Device, Mpi, ReduceOp, Universe, WaitPolicy, ANY_SOURCE, ANY_TAG,
};

fn uni(np: usize, conn: ConnMode) -> Universe {
    Universe::new(np, Device::Clan, conn, WaitPolicy::Polling)
}

const ALL_MODES: [ConnMode; 3] = [
    ConnMode::OnDemand,
    ConnMode::StaticPeerToPeer,
    ConnMode::StaticClientServer,
];

#[test]
fn two_rank_round_trip_all_modes() {
    for conn in ALL_MODES {
        let report = uni(2, conn)
            .run(|mpi| {
                if mpi.rank() == 0 {
                    mpi.send(b"ping", 1, 7);
                    let (d, st) = mpi.recv(Some(1), Some(8));
                    assert_eq!(&d, b"pong");
                    assert_eq!(st.source, 1);
                    assert_eq!(st.tag, 8);
                    st.len
                } else {
                    let (d, st) = mpi.recv(Some(0), Some(7));
                    assert_eq!(&d, b"ping");
                    assert_eq!(st.len, 4);
                    mpi.send(b"pong", 0, 8);
                    0
                }
            })
            .unwrap();
        assert_eq!(report.results[0], 4, "mode {conn:?}");
    }
}

#[test]
fn payload_integrity_across_eager_rendezvous_boundary() {
    // Sizes straddling the 5000-byte threshold, including 0 and > buffer.
    let sizes = [0usize, 1, 64, 4096, 4999, 5000, 5001, 8192, 65_536, 300_000];
    for conn in [ConnMode::OnDemand, ConnMode::StaticPeerToPeer] {
        let report = uni(2, conn)
            .run(move |mpi| {
                let mut checked = 0usize;
                for (i, &n) in sizes.iter().enumerate() {
                    let payload: Vec<u8> = (0..n).map(|j| (j * 31 + i) as u8).collect();
                    if mpi.rank() == 0 {
                        mpi.send(&payload, 1, i as i32);
                    } else {
                        let (d, st) = mpi.recv(Some(0), Some(i as i32));
                        assert_eq!(d, payload, "size {n} corrupted");
                        assert_eq!(st.len, n);
                        checked += 1;
                    }
                }
                checked
            })
            .unwrap();
        assert_eq!(report.results[1], sizes.len());
    }
}

#[test]
fn non_overtaking_same_pair_same_tag() {
    // 100 messages, same destination, same tag: must arrive in order.
    let report = uni(2, ConnMode::OnDemand)
        .run(|mpi| {
            if mpi.rank() == 0 {
                for i in 0..100u32 {
                    mpi.send(&i.to_le_bytes(), 1, 5);
                }
                0
            } else {
                let mut ok = 0;
                for i in 0..100u32 {
                    let (d, _) = mpi.recv(Some(0), Some(5));
                    if u32::from_le_bytes(d.try_into().unwrap()) == i {
                        ok += 1;
                    }
                }
                ok
            }
        })
        .unwrap();
    assert_eq!(report.results[1], 100);
}

#[test]
fn non_overtaking_mixed_eager_and_rendezvous() {
    // Alternate small (eager) and large (rendezvous) messages with one tag;
    // MPI order must still hold even though the protocols differ.
    let report = uni(2, ConnMode::OnDemand)
        .run(|mpi| {
            let sizes: Vec<usize> = (0..20)
                .map(|i| if i % 2 == 0 { 16 } else { 20_000 })
                .collect();
            if mpi.rank() == 0 {
                for (i, &n) in sizes.iter().enumerate() {
                    let buf = vec![i as u8; n];
                    mpi.send(&buf, 1, 3);
                }
                0
            } else {
                let mut ok = 0;
                for (i, &n) in sizes.iter().enumerate() {
                    let (d, _) = mpi.recv(Some(0), Some(3));
                    if d.len() == n && d.iter().all(|&b| b == i as u8) {
                        ok += 1;
                    }
                }
                ok
            }
        })
        .unwrap();
    assert_eq!(report.results[1], 20);
}

#[test]
fn any_source_any_tag_wildcards() {
    let report = uni(4, ConnMode::OnDemand)
        .run(|mpi| {
            if mpi.rank() == 0 {
                let mut seen = [false; 4];
                for _ in 0..3 {
                    let (d, st) = mpi.recv(ANY_SOURCE, ANY_TAG);
                    assert_eq!(d[0] as usize, st.source);
                    assert_eq!(st.tag, st.source as i32 * 10);
                    seen[st.source] = true;
                }
                seen.iter().filter(|&&s| s).count()
            } else {
                let r = mpi.rank();
                mpi.send(&[r as u8], 0, r as i32 * 10);
                0
            }
        })
        .unwrap();
    assert_eq!(report.results[0], 3, "all three senders matched");
}

#[test]
fn unexpected_messages_are_buffered_and_matched_in_order() {
    let report = uni(2, ConnMode::OnDemand)
        .run(|mpi| {
            if mpi.rank() == 0 {
                for i in 0..10u8 {
                    mpi.send(&[i], 1, 1);
                }
                // Handshake so rank 1 posts receives only after all arrived.
                mpi.send(b"done", 1, 2);
                0
            } else {
                let (_, _) = mpi.recv(Some(0), Some(2));
                let unexpected = mpi.metrics_snapshot().get("mpi.unexpected_msgs");
                assert!(unexpected.unwrap() >= 10, "messages arrived early");
                let mut ok = 0;
                for i in 0..10u8 {
                    let (d, _) = mpi.recv(Some(0), Some(1));
                    if d == [i] {
                        ok += 1;
                    }
                }
                ok
            }
        })
        .unwrap();
    assert_eq!(report.results[1], 10);
}

#[test]
fn tag_selectivity_reorders_against_posting() {
    // Receive tag 2 first even though tag 1's message arrived first.
    let report = uni(2, ConnMode::StaticPeerToPeer)
        .run(|mpi| {
            if mpi.rank() == 0 {
                mpi.send(b"first", 1, 1);
                mpi.send(b"second", 1, 2);
                0
            } else {
                let (d2, _) = mpi.recv(Some(0), Some(2));
                let (d1, _) = mpi.recv(Some(0), Some(1));
                assert_eq!(&d2, b"second");
                assert_eq!(&d1, b"first");
                1
            }
        })
        .unwrap();
    assert_eq!(report.results[1], 1);
}

#[test]
fn nonblocking_sendrecv_ring() {
    for np in [2, 3, 5, 8] {
        let report = uni(np, ConnMode::OnDemand)
            .run(move |mpi| {
                let (rank, size) = (mpi.rank(), mpi.size());
                let next = (rank + 1) % size;
                let prev = (rank + size - 1) % size;
                let rr = mpi.irecv(Some(prev), Some(0));
                let sr = mpi.isend(&(rank as u64).to_le_bytes(), next, 0);
                let (d, st) = mpi.wait(rr);
                mpi.wait(sr);
                assert_eq!(st.source, prev);
                u64::from_le_bytes(d.unwrap().try_into().unwrap()) as usize
            })
            .unwrap();
        for r in 0..np {
            assert_eq!(report.results[r], (r + np - 1) % np);
        }
    }
}

#[test]
fn waitall_completes_a_batch() {
    let report = uni(3, ConnMode::OnDemand)
        .run(|mpi| {
            if mpi.rank() == 0 {
                let reqs: Vec<_> = (0..10)
                    .flat_map(|i| {
                        [
                            mpi.isend(&[i as u8], 1, i),
                            mpi.isend(&[i as u8 + 100], 2, i),
                        ]
                    })
                    .collect();
                mpi.waitall(&reqs);
                20
            } else {
                let mut n = 0;
                for i in 0..10 {
                    let (d, _) = mpi.recv(Some(0), Some(i));
                    let expect = if mpi.rank() == 1 {
                        i as u8
                    } else {
                        i as u8 + 100
                    };
                    assert_eq!(d, [expect]);
                    n += 1;
                }
                n
            }
        })
        .unwrap();
    assert_eq!(report.results, vec![20, 10, 10]);
}

#[test]
fn test_polls_without_blocking() {
    let report = uni(2, ConnMode::OnDemand)
        .run(|mpi| {
            if mpi.rank() == 0 {
                // Delay so rank 1's test loop spins a while first.
                mpi.advance(viampi_sim::SimDuration::millis(2));
                mpi.send(b"x", 1, 0);
                0
            } else {
                let r = mpi.irecv(Some(0), Some(0));
                let mut polls = 0u64;
                while !mpi.test(r) {
                    polls += 1;
                    mpi.advance(viampi_sim::SimDuration::micros(50));
                }
                let (d, _) = mpi.wait(r);
                assert_eq!(d.unwrap(), b"x");
                assert!(polls > 10, "test spun before completion: {polls}");
                polls
            }
        })
        .unwrap();
    assert!(report.results[1] > 0);
}

#[test]
fn probe_reports_pending_message_without_consuming() {
    let report = uni(2, ConnMode::OnDemand)
        .run(|mpi| {
            if mpi.rank() == 0 {
                mpi.send(&[7u8; 123], 1, 9);
                0
            } else {
                let st = mpi.probe(Some(0), Some(9));
                assert_eq!(st.len, 123);
                assert_eq!(st.source, 0);
                let (d, _) = mpi.recv(Some(0), Some(9));
                assert_eq!(d.len(), 123);
                1
            }
        })
        .unwrap();
    assert_eq!(report.results[1], 1);
}

#[test]
fn iprobe_none_when_no_message() {
    uni(2, ConnMode::OnDemand)
        .run(|mpi| {
            if mpi.rank() == 1 {
                assert!(mpi.iprobe(Some(0), Some(5)).is_none());
            }
            // Keep ranks in step so neither exits early.
            mpi.barrier();
        })
        .unwrap();
}

#[test]
fn self_send_and_recv() {
    uni(2, ConnMode::OnDemand)
        .run(|mpi| {
            let r = mpi.rank();
            mpi.send(&[r as u8; 10], r, 4);
            let (d, st) = mpi.recv(Some(r), Some(4));
            assert_eq!(d, vec![r as u8; 10]);
            assert_eq!(st.source, r);
            // Self-traffic must not create VIs.
            assert_eq!(mpi.live_vis(), 0);
            mpi.barrier();
        })
        .unwrap();
}

#[test]
fn synchronous_send_blocks_until_receiver_arrives() {
    // ssend completes only when matched: measure that the sender's clock
    // advanced past the receiver's arrival at the recv.
    let report = uni(2, ConnMode::StaticPeerToPeer)
        .run(|mpi| {
            if mpi.rank() == 0 {
                let t0 = mpi.now();
                mpi.ssend(b"sync", 1, 0);
                (mpi.now().since(t0)).as_micros_f64() as u64
            } else {
                // Receiver dawdles 5 ms before posting the receive.
                mpi.advance(viampi_sim::SimDuration::millis(5));
                let (d, _) = mpi.recv(Some(0), Some(0));
                assert_eq!(&d, b"sync");
                0
            }
        })
        .unwrap();
    assert!(
        report.results[0] >= 5_000,
        "ssend completed in {}us, before the matching receive",
        report.results[0]
    );
}

#[test]
fn buffered_send_completes_locally_before_receiver_arrives() {
    let report = uni(2, ConnMode::StaticPeerToPeer)
        .run(|mpi| {
            if mpi.rank() == 0 {
                let t0 = mpi.now();
                mpi.bsend(b"buffered", 1, 0);
                let elapsed = mpi.now().since(t0).as_micros_f64() as u64;
                mpi.barrier();
                elapsed
            } else {
                mpi.advance(viampi_sim::SimDuration::millis(5));
                let (d, _) = mpi.recv(Some(0), Some(0));
                assert_eq!(&d, b"buffered");
                mpi.barrier();
                0
            }
        })
        .unwrap();
    assert!(
        report.results[0] < 5_000,
        "bsend took {}us — it must not wait for the receiver",
        report.results[0]
    );
}

#[test]
fn ready_send_delivers_when_receive_pre_posted() {
    let report = uni(2, ConnMode::StaticPeerToPeer)
        .run(|mpi| {
            if mpi.rank() == 1 {
                let r = mpi.irecv(Some(0), Some(0));
                mpi.barrier(); // receive now posted
                let (d, _) = mpi.wait(r);
                assert_eq!(d.unwrap(), b"ready");
                1
            } else {
                mpi.barrier();
                mpi.rsend(b"ready", 1, 0);
                0
            }
        })
        .unwrap();
    assert_eq!(report.results[1], 1);
}

#[test]
fn requests_complete_and_are_collected_in_any_order() {
    // Request ids are a window over the live ones: waiting newest-first,
    // with an early receive left outstanding across the whole batch, must
    // find every request and leave none behind.
    let report = uni(2, ConnMode::OnDemand)
        .run(|mpi| {
            let other = 1 - mpi.rank();
            let last = mpi.irecv(Some(other), Some(999));
            for round in 0..50 {
                let recvs: Vec<_> = (0..8).map(|t| mpi.irecv(Some(other), Some(t))).collect();
                let sends: Vec<_> = (0..8)
                    .map(|t| mpi.isend(&[round as u8, t as u8], other, t))
                    .collect();
                for (t, r) in recvs.into_iter().enumerate().rev() {
                    let (d, st) = mpi.wait(r);
                    assert_eq!(d.unwrap(), [round as u8, t as u8]);
                    assert_eq!(st.tag, t as i32);
                }
                for s in sends.into_iter().rev() {
                    mpi.wait(s);
                }
            }
            mpi.send(&[42], other, 999);
            mpi.wait(last).0.unwrap()
        })
        .unwrap();
    assert_eq!(report.results, vec![vec![42], vec![42]]);
}

#[test]
fn waiting_twice_on_a_request_is_an_unknown_request() {
    let err = uni(2, ConnMode::OnDemand)
        .run(|mpi| {
            if mpi.rank() == 0 {
                let s = mpi.isend(&[1], 1, 0);
                mpi.wait(s);
                mpi.wait(s);
            } else {
                mpi.recv(Some(0), Some(0));
            }
        })
        .unwrap_err();
    assert!(err.to_string().contains("unknown request"), "got: {err}");
}

#[test]
fn deadlock_is_detected_not_hung() {
    let err = uni(2, ConnMode::StaticPeerToPeer)
        .run(|mpi| {
            if mpi.rank() == 0 {
                // Both ranks receive from each other; nobody sends.
                mpi.recv(Some(1), Some(0));
            } else {
                mpi.recv(Some(0), Some(0));
            }
        })
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("deadlock"), "got: {msg}");
}

#[test]
fn rank_panic_surfaces_as_error() {
    let err = uni(2, ConnMode::OnDemand)
        .run(|mpi| {
            if mpi.rank() == 1 {
                panic!("numerical blow-up");
            }
            mpi.recv(Some(1), Some(0));
        })
        .unwrap_err();
    assert!(err.to_string().contains("numerical blow-up"));
}

/// A receive naming a rank outside the world is rejected in the caller,
/// like a send to one, before a VI is created or a request leaves the NIC.
fn recv_from_a_missing_rank_is_rejected(conn: ConnMode) {
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::{Arc, Mutex};
    let vis = Arc::new(Mutex::new(None));
    let seen = vis.clone();
    let err = uni(2, conn)
        .run(move |mpi| {
            if mpi.rank() == 0 {
                let before = mpi.metrics_snapshot().get("nic.vis_created").unwrap();
                let panic = catch_unwind(AssertUnwindSafe(|| mpi.irecv(Some(7), Some(0))))
                    .expect_err("an out-of-range source must be rejected");
                *seen.lock().unwrap() = Some((
                    before,
                    mpi.metrics_snapshot().get("nic.vis_created").unwrap(),
                ));
                resume_unwind(panic);
            }
        })
        .unwrap_err()
        .to_string();
    assert!(err.contains("'rank0'"), "blamed on the caller: {err}");
    assert!(err.contains("invalid source rank 7"), "got: {err}");
    let (before, after) = vis.lock().unwrap().expect("rank 0 ran");
    assert_eq!(before, after, "no VI was provisioned for the missing rank");
}

#[test]
fn recv_from_a_missing_rank_is_rejected_on_demand() {
    recv_from_a_missing_rank_is_rejected(ConnMode::OnDemand);
}

#[test]
fn recv_from_a_missing_rank_is_rejected_static_p2p() {
    recv_from_a_missing_rank_is_rejected(ConnMode::StaticPeerToPeer);
}

#[test]
fn recv_from_a_missing_rank_is_rejected_static_cs() {
    recv_from_a_missing_rank_is_rejected(ConnMode::StaticClientServer);
}

#[test]
fn sendrecv_bidirectional_exchange() {
    let report = uni(2, ConnMode::OnDemand)
        .run(|mpi| {
            let other = 1 - mpi.rank();
            let mine = vec![mpi.rank() as u8; 6000]; // rendezvous size
            let (theirs, _) = mpi.sendrecv(&mine, other, 0, Some(other), Some(0));
            theirs == vec![other as u8; 6000]
        })
        .unwrap();
    assert!(report.results.iter().all(|&ok| ok));
}

#[test]
fn results_identical_across_connection_modes() {
    // The paper's core correctness claim: on-demand is semantically
    // transparent. Run a mixed workload under all three managers and
    // compare outputs bit-for-bit.
    fn workload(mpi: &viampi_core::Mpi) -> Vec<u64> {
        let (rank, size) = (mpi.rank(), mpi.size());
        let mut acc: Vec<u64> = vec![rank as u64];
        // Ring shift.
        let next = (rank + 1) % size;
        let prev = (rank + size - 1) % size;
        let (d, _) = mpi.sendrecv(&acc[0].to_le_bytes(), next, 1, Some(prev), Some(1));
        acc.push(u64::from_le_bytes(d.try_into().unwrap()));
        // Allreduce.
        let s = mpi.allreduce(&[rank as i64 + 1], viampi_core::ReduceOp::Sum);
        acc.push(s[0] as u64);
        // Large exchange with rank^1 partner.
        if size % 2 == 0 {
            let partner = rank ^ 1;
            let big = vec![(rank * 3) as u8; 10_000];
            let (got, _) = mpi.sendrecv(&big, partner, 2, Some(partner), Some(2));
            acc.push(got.iter().map(|&b| b as u64).sum());
        }
        acc
    }
    let mut outputs = Vec::new();
    for conn in ALL_MODES {
        let report = uni(4, conn).run(workload).unwrap();
        outputs.push(report.results);
    }
    assert_eq!(outputs[0], outputs[1]);
    assert_eq!(outputs[1], outputs[2]);
}

#[test]
fn all_policies_and_devices_run_a_workload() {
    for device in [Device::Clan, Device::Berkeley] {
        for wait in [WaitPolicy::Polling, WaitPolicy::spinwait_default()] {
            for conn in ALL_MODES {
                let report = Universe::new(3, device, conn, wait)
                    .run(|mpi| {
                        let v = mpi.allreduce(&[mpi.rank() as i64], viampi_core::ReduceOp::Sum);
                        v[0]
                    })
                    .unwrap();
                assert_eq!(
                    report.results,
                    vec![3, 3, 3],
                    "{device:?}/{wait:?}/{conn:?}"
                );
            }
        }
    }
}

#[test]
fn a_payload_is_written_once_on_its_way_to_the_receiver() {
    // `nic.pool.bytes_copied` counts every byte the data plane writes into
    // a pooled buffer or a registered region. One message, one pass over
    // its payload: the user buffer into the pooled buffer that then travels
    // by reference — sender request → pinned region → RDMA packet → landing
    // region → receive request for rendezvous, wire frame → completion →
    // receive request for eager — plus the wire headers built around it.
    use viampi_core::protocol::HEADER_LEN;
    let copied = |len: usize| {
        let report = uni(2, ConnMode::OnDemand)
            .run(move |mpi| {
                if mpi.rank() == 0 {
                    mpi.send(&vec![0xA5u8; len], 1, 3);
                } else {
                    let (d, _) = mpi.recv(Some(0), Some(3));
                    assert!(d.len() == len && d.iter().all(|&b| b == 0xA5));
                }
            })
            .unwrap();
        report.metrics.get("nic.pool.bytes_copied").unwrap()
    };
    // Eager: one frame, header and payload together.
    assert_eq!(copied(4 << 10), (4 << 10) + HEADER_LEN as u64);
    // Rendezvous: the payload, and the RTS, CTS and FIN control frames.
    assert_eq!(copied(1 << 20), (1 << 20) + 3 * HEADER_LEN as u64);
}

/// One rooted collective called with `root`, on the world (`comm` is
/// `None`) or on a sub-communicator.
type Rooted = fn(&Mpi, Option<&Comm>, usize);

/// A rooted collective naming a root outside its group fails in the calling
/// rank — on the world and on a split communicator, whose group is smaller
/// than the world, so a root that is a valid *world* rank must still be
/// rejected — with a message naming the caller, the root and the group size.
fn missing_root_is_rejected(op: &str, call: Rooted) {
    for (split, root, group) in [(false, 5, 4), (true, 2, 2)] {
        let err = uni(4, ConnMode::OnDemand)
            .run(move |mpi| {
                let comm = split.then(|| mpi.comm_split((mpi.rank() % 2) as i64, 0));
                call(mpi, comm.as_ref(), root);
            })
            .unwrap_err()
            .to_string();
        let want = format!("{op}: invalid root rank {root} (called by rank ");
        assert!(err.contains("simulated process 'rank"), "got: {err}");
        assert!(err.contains(&want), "split {split}: got: {err}");
        let size = format!("of a group of {group})");
        assert!(err.contains(&size), "split {split}: got: {err}");
    }
}

#[test]
fn bcast_from_a_missing_root_is_rejected() {
    missing_root_is_rejected("bcast", |mpi, comm, root| {
        // Every rank supplies data: whoever the wrapped tree made root
        // would otherwise die on its own missing buffer first.
        let data = Some(&b"payload"[..]);
        match comm {
            None => mpi.bcast(root, data),
            Some(c) => c.bcast(mpi, root, data),
        };
    });
}

#[test]
fn reduce_to_a_missing_root_is_rejected() {
    missing_root_is_rejected("reduce", |mpi, comm, root| {
        match comm {
            None => mpi.reduce(root, &[1.0f64], ReduceOp::Sum),
            Some(c) => c.reduce(mpi, root, &[1.0f64], ReduceOp::Sum),
        };
    });
}

#[test]
fn gather_to_a_missing_root_is_rejected() {
    missing_root_is_rejected("gather", |mpi, comm, root| {
        match comm {
            None => mpi.gather(root, b"x"),
            Some(c) => c.gather(mpi, root, b"x"),
        };
    });
}

#[test]
fn scatter_from_a_missing_root_is_rejected() {
    missing_root_is_rejected("scatter", |mpi, comm, root| {
        match comm {
            None => mpi.scatter(root, None),
            Some(c) => c.scatter(mpi, root, None),
        };
    });
}
