//! Credit-based flow control under stress: bursts larger than the credit
//! window, bidirectional floods, explicit credit returns, and starvation
//! freedom.

use viampi_core::{ConnMode, Device, Universe, WaitPolicy};

fn quiet(np: usize) -> Universe {
    let mut u = Universe::new(np, Device::Clan, ConnMode::OnDemand, WaitPolicy::Polling);
    u.config_mut().os_noise = false;
    u
}

#[test]
fn burst_larger_than_credit_window_is_delivered_in_order() {
    // 15 credits per VI; send 200 eager messages in one nonblocking burst.
    let report = quiet(2)
        .run(|mpi| {
            if mpi.rank() == 0 {
                let reqs: Vec<_> = (0..200u32)
                    .map(|i| mpi.isend(&i.to_le_bytes(), 1, 0))
                    .collect();
                mpi.waitall(&reqs);
                mpi.nic_stats().drops_no_desc
            } else {
                for i in 0..200u32 {
                    let (d, _) = mpi.recv(Some(0), Some(0));
                    assert_eq!(u32::from_le_bytes(d.try_into().unwrap()), i);
                }
                // The receiver must have returned credits explicitly at
                // least once (one-way traffic has nothing to piggyback on).
                assert!(mpi.mpi_stats().credit_msgs > 0, "explicit credit returns");
                0
            }
        })
        .unwrap();
    assert_eq!(report.results[0], 0, "flow control must prevent overruns");
}

#[test]
fn bidirectional_flood_makes_progress() {
    // Both sides flood simultaneously: piggybacked credits must keep both
    // directions moving with no deadlock.
    let n = 300u32;
    let report = quiet(2)
        .run(move |mpi| {
            let other = 1 - mpi.rank();
            let sends: Vec<_> = (0..n)
                .map(|i| mpi.isend(&i.to_le_bytes(), other, 1))
                .collect();
            let recvs: Vec<_> = (0..n).map(|_| mpi.irecv(Some(other), Some(1))).collect();
            let got = mpi.waitall(&recvs);
            mpi.waitall(&sends);
            got.iter().enumerate().all(|(i, (d, _))| {
                u32::from_le_bytes(d.as_ref().unwrap().as_slice().try_into().unwrap()) == i as u32
            })
        })
        .unwrap();
    assert!(report.results.iter().all(|&ok| ok));
}

#[test]
fn many_to_one_incast_is_delivered() {
    // Seven senders flood one receiver — per-channel credits are
    // independent, and the receiver's progress engine must keep reposting.
    let np = 8;
    let per = 60u32;
    let report = quiet(np)
        .run(move |mpi| {
            if mpi.rank() == 0 {
                let mut counts = vec![0u32; np];
                for _ in 0..per * (np as u32 - 1) {
                    let (_, st) = mpi.recv(viampi_core::ANY_SOURCE, Some(2));
                    counts[st.source] += 1;
                }
                counts.iter().skip(1).all(|&c| c == per)
            } else {
                for i in 0..per {
                    mpi.send(&i.to_le_bytes(), 0, 2);
                }
                true
            }
        })
        .unwrap();
    assert!(report.results[0], "every sender's messages all arrived");
}

#[test]
fn tiny_credit_window_still_works() {
    let mut uni = Universe::new(2, Device::Clan, ConnMode::OnDemand, WaitPolicy::Polling);
    uni.config_mut().num_bufs = 2; // minimum legal window
    uni.config_mut().os_noise = false;
    let report = uni
        .run(|mpi| {
            if mpi.rank() == 0 {
                for i in 0..50u8 {
                    mpi.send(&[i], 1, 0);
                }
                true
            } else {
                (0..50u8).all(|i| mpi.recv(Some(0), Some(0)).0 == [i])
            }
        })
        .unwrap();
    assert!(report.results[1]);
}

#[test]
fn rendezvous_messages_bypass_credit_pressure() {
    // Long messages move by RDMA (no receive descriptor consumed), so a
    // rendezvous flood needs only control-message credits.
    let report = quiet(2)
        .run(|mpi| {
            let big = vec![7u8; 50_000];
            if mpi.rank() == 0 {
                let reqs: Vec<_> = (0..20).map(|_| mpi.isend(&big, 1, 0)).collect();
                mpi.waitall(&reqs);
                true
            } else {
                (0..20).all(|_| {
                    let (d, _) = mpi.recv(Some(0), Some(0));
                    d.len() == 50_000 && d.iter().all(|&b| b == 7)
                })
            }
        })
        .unwrap();
    assert!(report.results[1]);
}

#[test]
fn mixed_sizes_interleaved_heavily() {
    // Randomized-but-deterministic interleaving of eager and rendezvous
    // messages between 4 ranks, all-to-all, checked for content.
    let np = 4;
    let rounds = 15usize;
    let report = quiet(np)
        .run(move |mpi| {
            let rank = mpi.rank();
            let mut reqs = Vec::new();
            for round in 0..rounds {
                for dst in 0..np {
                    if dst == rank {
                        continue;
                    }
                    let size = if (round + dst + rank) % 3 == 0 {
                        12_000
                    } else {
                        100
                    };
                    let fill = (round * np + rank) as u8;
                    reqs.push(mpi.isend(&vec![fill; size], dst, round as i32));
                }
            }
            let mut ok = true;
            for round in 0..rounds {
                for src in 0..np {
                    if src == rank {
                        continue;
                    }
                    let size = if (round + rank + src) % 3 == 0 {
                        12_000
                    } else {
                        100
                    };
                    let (d, _) = mpi.recv(Some(src), Some(round as i32));
                    let fill = (round * np + src) as u8;
                    ok &= d.len() == size && d.iter().all(|&b| b == fill);
                }
            }
            mpi.waitall(&reqs);
            ok
        })
        .unwrap();
    assert!(report.results.iter().all(|&ok| ok));
}
