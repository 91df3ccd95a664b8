//! Cross-crate integration: the full stack (engine → VIA → MPI → NPB)
//! exercised through the facade crate, plus determinism and resource-limit
//! behaviour.

use viampi::core::{mpi_metrics, nic_metrics};
use viampi::npb::{adi, cg, ep, ft, is, llc, lu, mg, Class};
use viampi::sim::SimDuration;
use viampi::via::{fabric_engine, DeviceProfile, ViaPort};
use viampi::{ConnMode, Device, ReduceOp, Universe, WaitPolicy};

#[test]
fn full_npb_suite_verifies_under_every_manager() {
    for conn in [
        ConnMode::OnDemand,
        ConnMode::StaticPeerToPeer,
        ConnMode::StaticClientServer,
    ] {
        let report = Universe::new(4, Device::Clan, conn, WaitPolicy::Polling)
            .run(|mpi| {
                let results = [
                    ep::run(mpi, Class::S),
                    cg::run(mpi, Class::S),
                    mg::run(mpi, Class::S),
                    is::run(mpi, Class::S),
                    ft::run(mpi, Class::S),
                    lu::run(mpi, Class::S),
                    adi::run(mpi, adi::App::Sp, Class::S),
                    adi::run(mpi, adi::App::Bt, Class::S),
                ];
                results.iter().all(|r| r.verified)
            })
            .unwrap();
        assert!(
            report.results.iter().all(|&ok| ok),
            "all kernels verify under {conn:?}"
        );
    }
}

#[test]
fn identical_runs_are_bitwise_deterministic() {
    let run = || {
        Universe::new(6, Device::Berkeley, ConnMode::OnDemand, WaitPolicy::Polling)
            .run(|mpi| {
                let r = is::run(mpi, Class::S);
                (r.checksum, r.time_secs, mpi.now().as_nanos())
            })
            .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.results, b.results, "simulation must be deterministic");
    assert_eq!(a.end_time, b.end_time);
    assert_eq!(a.events, b.events);
    // Every counter of every layer, `MPI_Init` time included.
    assert_eq!(a.metrics.render(), b.metrics.render());
}

#[test]
fn mixed_point_to_point_and_collectives_interleave_safely() {
    let report = Universe::new(8, Device::Clan, ConnMode::OnDemand, WaitPolicy::Polling)
        .run(|mpi| {
            let (rank, size) = (mpi.rank(), mpi.size());
            let mut acc = 0i64;
            for round in 0..10 {
                // Point-to-point ring shift with a tag reused every round.
                let next = (rank + 1) % size;
                let prev = (rank + size - 1) % size;
                let (d, _) =
                    mpi.sendrecv(&(rank as i64).to_le_bytes(), next, 5, Some(prev), Some(5));
                acc += i64::from_le_bytes(d.try_into().unwrap());
                // Interleaved collective on the same ranks.
                acc += mpi.allreduce(&[round], ReduceOp::Sum)[0];
                if round % 3 == 0 {
                    mpi.barrier();
                }
            }
            acc
        })
        .unwrap();
    // prev-rank sum over 10 rounds + sum over rounds of 8*round.
    for (rank, &acc) in report.results.iter().enumerate() {
        let prev = (rank + 8 - 1) % 8;
        let want = 10 * prev as i64 + (0..10).map(|r| 8 * r).sum::<i64>();
        assert_eq!(acc, want, "rank {rank}");
    }
}

#[test]
fn via_vi_limit_is_enforced() {
    let mut profile = DeviceProfile::clan();
    profile.max_vis = 3;
    let mut eng = fabric_engine(profile, 1);
    eng.spawn("p", |ctx| {
        let port = ViaPort::open(ctx, 0);
        for _ in 0..3 {
            port.create_vi().unwrap();
        }
        assert!(matches!(
            port.create_vi(),
            Err(viampi::via::ViaError::TooManyVis)
        ));
    });
    eng.run().unwrap();
}

#[test]
fn via_pin_limit_is_enforced() {
    let mut profile = DeviceProfile::clan();
    profile.max_pinned = 100_000;
    let mut eng = fabric_engine(profile, 1);
    eng.spawn("p", |ctx| {
        let port = ViaPort::open(ctx, 0);
        port.register(60_000).unwrap();
        assert!(matches!(
            port.register(60_000),
            Err(viampi::via::ViaError::PinLimitExceeded { .. })
        ));
        port.register(40_000).unwrap();
    });
    eng.run().unwrap();
}

#[test]
fn static_mesh_exhausts_small_vi_budget_on_demand_does_not() {
    // The paper's scalability argument §1(2): the NIC's VI limit caps a
    // fully-connected job size. With max_vis < N-1, static init must fail
    // (panics inside the rank) while on-demand runs the same neighbour-only
    // application happily.
    let np = 8;
    let make = |conn| {
        let mut uni = Universe::new(np, Device::Clan, conn, WaitPolicy::Polling);
        // Not exposed via MpiConfig (it is a NIC property), so emulate by
        // checking live VI counts instead: the on-demand run must stay
        // within a 4-VI budget that a static mesh (7) would exceed.
        uni.config_mut().os_noise = false;
        uni
    };
    let od = make(ConnMode::OnDemand)
        .run(|mpi| {
            let partner = mpi.rank() ^ 1;
            mpi.sendrecv(&[1], partner, 0, Some(partner), Some(0));
            mpi.live_vis()
        })
        .unwrap();
    assert!(od.results.iter().all(|&v| v <= 4), "{:?}", od.results);
    let st = make(ConnMode::StaticPeerToPeer)
        .run(|mpi| {
            let partner = mpi.rank() ^ 1;
            mpi.sendrecv(&[1], partner, 0, Some(partner), Some(0));
            mpi.live_vis()
        })
        .unwrap();
    assert!(st.results.iter().all(|&v| v == np - 1));
}

#[test]
fn llcbench_microbenchmarks_run_on_facade() {
    let report = Universe::new(4, Device::Clan, ConnMode::OnDemand, WaitPolicy::Polling)
        .run(|mpi| {
            (
                llc::barrier_latency(mpi, 50),
                llc::allreduce_latency(mpi, 50, 4),
            )
        })
        .unwrap();
    let (b, a) = &report.results[0];
    assert!(b.unwrap() > 0.0);
    assert!(a.unwrap() > 0.0);
}

#[test]
fn berkeley_full_app_on_demand_beats_static_end_to_end() {
    // The paper's headline BVIA result at application level: total virtual
    // time (init + compute + communicate) favours on-demand.
    let time = |conn| {
        Universe::new(8, Device::Berkeley, conn, WaitPolicy::Polling)
            .run(|mpi| cg::run(mpi, Class::S))
            .unwrap()
            .end_time
    };
    let st = time(ConnMode::StaticPeerToPeer);
    let od = time(ConnMode::OnDemand);
    assert!(
        od < st,
        "on-demand CG end-to-end ({od}) must beat static ({st}) on BVIA"
    );
}

#[test]
fn wtime_advances_with_compute() {
    Universe::new(1, Device::Clan, ConnMode::OnDemand, WaitPolicy::Polling)
        .run(|mpi| {
            let t0 = mpi.wtime();
            mpi.compute(280_000.0); // 1 ms at 280 Mflop/s
            let dt = mpi.wtime() - t0;
            assert!((dt - 1.0e-3).abs() < 1.0e-6, "dt = {dt}");
            mpi.advance(SimDuration::millis(2));
            assert!(mpi.wtime() - t0 >= 3.0e-3);
        })
        .unwrap();
}

#[test]
fn rank_reports_account_for_traffic() {
    let report = Universe::new(3, Device::Clan, ConnMode::OnDemand, WaitPolicy::Polling)
        .run(|mpi| {
            if mpi.rank() == 0 {
                mpi.send(&[1u8; 100], 1, 0);
                mpi.send(&vec![2u8; 20_000], 2, 0); // rendezvous
            } else {
                mpi.recv(Some(0), Some(0));
            }
        })
        .unwrap();
    let r0 = &report.ranks[0];
    assert_eq!(r0.mpi.counter(mpi_metrics::SENDS), 2);
    assert_eq!(r0.mpi.counter(mpi_metrics::EAGER_SENT), 1);
    assert_eq!(r0.mpi.counter(mpi_metrics::RENDEZVOUS_SENT), 1);
    assert!(r0.nic.counter(nic_metrics::BYTES_TX) >= 20_100);
    assert_eq!(report.ranks[1].mpi.counter(mpi_metrics::RECVS), 1);
    assert_eq!(report.ranks[1].nic.counter(nic_metrics::DROPS_NO_DESC), 0);
    // Rendezvous pinned the 20 kB payload on both sides beyond the pools.
    let pools = report.config.clone().normalized().per_vi_buffer_bytes();
    assert!(r0.nic.gauge(nic_metrics::PINNED_PEAK) > pools as u64);
}
