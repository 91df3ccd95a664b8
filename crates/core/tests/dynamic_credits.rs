//! The paper's stated future work, implemented: **dynamic flow control on
//! each VI connection** (§6). Channels start with a small buffer window and
//! grow toward the configured maximum under traffic pressure, so pinned
//! memory tracks per-peer intensity instead of the worst case.

use viampi_core::config::INITIAL_BUFS;
use viampi_core::{ConnMode, Device, Universe, WaitPolicy};

fn uni(dynamic: bool) -> Universe {
    let mut u = Universe::new(2, Device::Clan, ConnMode::OnDemand, WaitPolicy::Polling);
    u.config_mut().os_noise = false;
    u.config_mut().dynamic_credits = dynamic;
    u
}

#[test]
fn light_channel_pins_only_the_initial_window() {
    let run = |dynamic: bool| {
        uni(dynamic)
            .run(|mpi| {
                let other = 1 - mpi.rank();
                // Two small messages: no pressure, no growth.
                mpi.sendrecv(&[1, 2, 3], other, 0, Some(other), Some(0));
                mpi.nic_stats().pinned_peak
            })
            .unwrap()
            .results[0]
    };
    let fixed = run(false);
    let dynamic = run(true);
    assert!(
        dynamic * 3 <= fixed,
        "dynamic ({dynamic} B) must pin far less than fixed ({fixed} B) on idle channels"
    );
}

#[test]
fn heavy_channel_grows_to_the_configured_window() {
    let report = uni(true)
        .run(|mpi| {
            if mpi.rank() == 0 {
                let reqs: Vec<_> = (0..300u32)
                    .map(|i| mpi.isend(&i.to_le_bytes(), 1, 0))
                    .collect();
                mpi.waitall(&reqs);
                0
            } else {
                for i in 0..300u32 {
                    let (d, _) = mpi.recv(Some(0), Some(0));
                    assert_eq!(u32::from_le_bytes(d.try_into().unwrap()), i);
                }
                mpi.mpi_stats().credit_growths
            }
        })
        .unwrap();
    assert!(
        report.results[1] >= 1,
        "sustained traffic must trigger pool growth"
    );
}

#[test]
fn dynamic_throughput_approaches_fixed_after_warmup() {
    let bw = |dynamic: bool| {
        uni(dynamic)
            .run(|mpi| {
                let buf = vec![1u8; 4096];
                // Warm-up: drives the growth to the full window.
                if mpi.rank() == 0 {
                    for _ in 0..100 {
                        mpi.send(&buf, 1, 0);
                    }
                } else {
                    for _ in 0..100 {
                        mpi.recv(Some(0), Some(0));
                    }
                }
                let t0 = mpi.now();
                if mpi.rank() == 0 {
                    let reqs: Vec<_> = (0..200).map(|_| mpi.isend(&buf, 1, 1)).collect();
                    mpi.waitall(&reqs);
                    mpi.recv(Some(1), Some(2));
                } else {
                    let reqs: Vec<_> = (0..200).map(|_| mpi.irecv(Some(0), Some(1))).collect();
                    mpi.waitall(&reqs);
                    mpi.send(&[1], 0, 2);
                }
                (200.0 * 4096.0) / mpi.now().since(t0).as_secs_f64() / 1e6
            })
            .unwrap()
            .results[0]
    };
    let fixed = bw(false);
    let dynamic = bw(true);
    assert!(
        dynamic > fixed * 0.9,
        "post-warmup dynamic bandwidth ({dynamic:.1} MB/s) must be within 10% of fixed ({fixed:.1})"
    );
}

#[test]
fn ordering_preserved_across_growth_boundaries() {
    // Mixed sizes while the window is actively growing.
    let report = uni(true)
        .run(|mpi| {
            if mpi.rank() == 0 {
                for i in 0..80u32 {
                    let n = if i % 7 == 3 { 9000 } else { 64 };
                    let mut payload = vec![(i % 251) as u8; n];
                    payload[..4].copy_from_slice(&i.to_le_bytes());
                    mpi.send(&payload, 1, 0);
                }
                true
            } else {
                (0..80u32).all(|i| {
                    let (d, _) = mpi.recv(Some(0), Some(0));
                    u32::from_le_bytes(d[..4].try_into().unwrap()) == i
                })
            }
        })
        .unwrap();
    assert!(report.results[1]);
}

#[test]
fn growth_is_per_channel_not_global() {
    // Rank 0 floods rank 1 but only whispers to rank 2: rank 1's pool
    // grows, rank 2's stays at the initial window.
    let mut u = Universe::new(3, Device::Clan, ConnMode::OnDemand, WaitPolicy::Polling);
    u.config_mut().os_noise = false;
    u.config_mut().dynamic_credits = true;
    let report = u
        .run(|mpi| {
            match mpi.rank() {
                0 => {
                    let reqs: Vec<_> = (0..200u32)
                        .map(|i| mpi.isend(&i.to_le_bytes(), 1, 0))
                        .collect();
                    mpi.send(&[9], 2, 0);
                    mpi.waitall(&reqs);
                }
                1 => {
                    for _ in 0..200 {
                        mpi.recv(Some(0), Some(0));
                    }
                }
                _ => {
                    mpi.recv(Some(0), Some(0));
                }
            }
            (mpi.mpi_stats().credit_growths, mpi.nic_stats().pinned_now)
        })
        .unwrap();
    let (growths1, _) = report.results[1];
    let (growths2, pinned2) = report.results[2];
    assert!(growths1 >= 1, "flooded channel must grow");
    assert_eq!(growths2, 0, "whispered channel must not grow");
    // Rank 2 holds one initial-window pair only.
    let cfg = report.config.clone().normalized();
    assert_eq!(pinned2, 2 * INITIAL_BUFS * cfg.buf_size());
}

#[test]
fn dynamic_composes_with_static_managers_too() {
    let mut u = Universe::new(
        4,
        Device::Clan,
        ConnMode::StaticPeerToPeer,
        WaitPolicy::Polling,
    );
    u.config_mut().dynamic_credits = true;
    u.config_mut().os_noise = false;
    let report = u
        .run(|mpi| {
            // Static mesh + dynamic windows: a full mesh of cheap channels.
            let v = mpi.allreduce(&[mpi.rank() as i64], viampi_core::ReduceOp::Sum);
            (v[0], mpi.nic_stats().pinned_peak)
        })
        .unwrap();
    let cfg = report.config.clone().normalized();
    for &(sum, pinned) in &report.results {
        assert_eq!(sum, 6);
        // 3 channels × initial window on both sides, far below 3 × full.
        assert!(pinned <= 3 * 2 * INITIAL_BUFS * cfg.buf_size());
        assert!(pinned < 3 * cfg.per_vi_buffer_bytes());
    }
}
