//! Collective-operation correctness across process counts, devices and
//! connection managers, checked against serial references.

use viampi_core::{ConnMode, Device, ReduceOp, Universe, WaitPolicy};

const NPS: [usize; 6] = [2, 3, 4, 5, 8, 16];

fn uni(np: usize, conn: ConnMode) -> Universe {
    Universe::new(np, Device::Clan, conn, WaitPolicy::Polling)
}

#[test]
fn barrier_synchronizes_ranks() {
    for np in NPS {
        // Each rank sleeps rank*1ms before the barrier; afterwards all
        // clocks must be at least the max sleeper's time.
        let report = uni(np, ConnMode::OnDemand)
            .run(move |mpi| {
                mpi.advance(viampi_sim::SimDuration::millis(mpi.rank() as u64));
                mpi.barrier();
                mpi.now().as_micros_f64() as u64
            })
            .unwrap();
        let slowest = (np as u64 - 1) * 1000;
        for (r, &t) in report.results.iter().enumerate() {
            assert!(
                t >= slowest,
                "np={np} rank {r} left the barrier at {t}us before the slowest rank arrived"
            );
        }
    }
}

#[test]
fn bcast_delivers_to_every_rank_from_every_root() {
    for np in [2, 3, 5, 8] {
        for root in 0..np {
            let report = uni(np, ConnMode::OnDemand)
                .run(move |mpi| {
                    let data: Vec<u8> = (0..50).map(|i| (i * 7 + root) as u8).collect();
                    let msg = if mpi.rank() == root {
                        mpi.bcast(root, Some(&data))
                    } else {
                        mpi.bcast(root, None)
                    };
                    msg == data
                })
                .unwrap();
            assert!(report.results.iter().all(|&ok| ok), "np={np} root={root}");
        }
    }
}

#[test]
fn reduce_sums_to_root() {
    for np in NPS {
        for root in [0, np - 1] {
            let report = uni(np, ConnMode::OnDemand)
                .run(move |mpi| {
                    let mine: Vec<i64> = (0..8).map(|i| (mpi.rank() * 10 + i) as i64).collect();
                    mpi.reduce(root, &mine, ReduceOp::Sum)
                })
                .unwrap();
            let expected: Vec<i64> = (0..8)
                .map(|i| (0..np).map(|r| (r * 10 + i) as i64).sum())
                .collect();
            for (r, res) in report.results.iter().enumerate() {
                if r == root {
                    assert_eq!(res.as_ref().unwrap(), &expected, "np={np} root={root}");
                } else {
                    assert!(res.is_none(), "non-root got a result");
                }
            }
        }
    }
}

#[test]
fn allreduce_sum_min_max_f64() {
    for np in NPS {
        let report = uni(np, ConnMode::OnDemand)
            .run(move |mpi| {
                let r = mpi.rank() as f64;
                let sum = mpi.allreduce(&[r, r * 2.0], ReduceOp::Sum);
                let min = mpi.allreduce(&[r], ReduceOp::Min);
                let max = mpi.allreduce(&[r], ReduceOp::Max);
                (sum, min, max)
            })
            .unwrap();
        let n = np as f64;
        let esum = n * (n - 1.0) / 2.0;
        for (sum, min, max) in &report.results {
            assert_eq!(sum, &vec![esum, esum * 2.0], "np={np}");
            assert_eq!(min, &vec![0.0]);
            assert_eq!(max, &vec![n - 1.0]);
        }
    }
}

#[test]
fn allreduce_large_vector_crosses_rendezvous() {
    // 4096 f64 = 32 KiB per message — the reduce tree runs on rendezvous.
    let report = uni(8, ConnMode::OnDemand)
        .run(|mpi| {
            let mine: Vec<f64> = (0..4096)
                .map(|i| (mpi.rank() + 1) as f64 * i as f64)
                .collect();
            let total = mpi.allreduce(&mine, ReduceOp::Sum);
            total[1] as u64
        })
        .unwrap();
    // Element 1: sum over ranks of (r+1)*1 = 36.
    assert!(report.results.iter().all(|&v| v == 36));
}

#[test]
fn allgather_collects_rank_blocks_in_order() {
    for np in NPS {
        let report = uni(np, ConnMode::OnDemand)
            .run(move |mpi| {
                let mine = vec![mpi.rank() as u8; mpi.rank() + 1]; // ragged sizes
                let all = mpi.allgather(&mine);
                all.iter()
                    .enumerate()
                    .all(|(r, b)| b.len() == r + 1 && b.iter().all(|&x| x == r as u8))
            })
            .unwrap();
        assert!(report.results.iter().all(|&ok| ok), "np={np}");
    }
}

#[test]
fn alltoall_transposes_blocks() {
    for np in NPS {
        let report = uni(np, ConnMode::OnDemand)
            .run(move |mpi| {
                let rank = mpi.rank();
                let send: Vec<Vec<u8>> = (0..np)
                    .map(|dst| vec![(rank * np + dst) as u8; 32])
                    .collect();
                let recv = mpi.alltoall(send);
                recv.iter()
                    .enumerate()
                    .all(|(src, b)| b.iter().all(|&x| x == (src * np + rank) as u8))
            })
            .unwrap();
        assert!(report.results.iter().all(|&ok| ok), "np={np}");
    }
}

#[test]
fn alltoallv_with_ragged_and_empty_blocks() {
    let np = 6;
    let report = uni(np, ConnMode::OnDemand)
        .run(move |mpi| {
            let rank = mpi.rank();
            // Block for dst has size (rank + dst) % 4 * 2000 (some empty,
            // some rendezvous-sized), all cut from one send buffer.
            let counts: Vec<usize> = (0..np).map(|dst| ((rank + dst) % 4) * 2000).collect();
            let send = vec![rank as u8; counts.iter().sum()];
            let recv = mpi.alltoallv(&send.into(), &counts);
            recv.iter().enumerate().all(|(src, b)| {
                b.len() == ((src + rank) % 4) * 2000 && b.iter().all(|&x| x == src as u8)
            })
        })
        .unwrap();
    assert!(report.results.iter().all(|&ok| ok));
}

#[test]
fn gather_and_scatter_roundtrip() {
    let np = 5;
    let report = uni(np, ConnMode::OnDemand)
        .run(move |mpi| {
            let rank = mpi.rank();
            // Gather rank-stamped blocks to root 2, scatter them back +1.
            let gathered = mpi.gather(2, &[rank as u8; 3]);
            let blocks: Option<Vec<Vec<u8>>> = gathered.map(|bs| {
                bs.into_iter()
                    .map(|b| b.iter().map(|x| x + 1).collect())
                    .collect()
            });
            let back = mpi.scatter(2, blocks.as_deref());
            back == vec![rank as u8 + 1; 3]
        })
        .unwrap();
    assert!(report.results.iter().all(|&ok| ok));
}

#[test]
fn repeated_collectives_do_not_cross_match() {
    // 50 consecutive allreduces with distinct values; any tag confusion
    // between rounds would corrupt results.
    let report = uni(7, ConnMode::OnDemand)
        .run(|mpi| {
            let mut ok = true;
            for round in 0..50i64 {
                let s = mpi.allreduce(&[mpi.rank() as i64 + round], ReduceOp::Sum);
                let expected: i64 = (0..7).map(|r| r + round).sum();
                ok &= s[0] == expected;
            }
            ok
        })
        .unwrap();
    assert!(report.results.iter().all(|&ok| ok));
}

#[test]
fn collectives_work_on_berkeley_and_with_spinwait() {
    for device in [Device::Clan, Device::Berkeley] {
        for wait in [WaitPolicy::Polling, WaitPolicy::spinwait_default()] {
            let report = Universe::new(8, device, ConnMode::OnDemand, wait)
                .run(|mpi| {
                    mpi.barrier();
                    let v = mpi.allreduce(&[1i64], ReduceOp::Sum);
                    let all = mpi.allgather(&[mpi.rank() as u8]);
                    (v[0], all.len())
                })
                .unwrap();
            for &(sum, n) in &report.results {
                assert_eq!((sum, n), (8, 8), "{device:?} {wait:?}");
            }
        }
    }
}

#[test]
fn single_rank_collectives_are_identity() {
    let report = uni(1, ConnMode::OnDemand)
        .run(|mpi| {
            mpi.barrier();
            let s = mpi.allreduce(&[5i64], ReduceOp::Sum);
            let b = mpi.bcast(0, Some(b"solo"));
            let g = mpi.allgather(b"me");
            let a = mpi.alltoall(vec![b"x".to_vec()]);
            (s[0], b, g.len(), a[0].clone())
        })
        .unwrap();
    let (s, b, g, a) = &report.results[0];
    assert_eq!(*s, 5);
    assert_eq!(b, b"solo");
    assert_eq!(*g, 1);
    assert_eq!(a, b"x");
}
