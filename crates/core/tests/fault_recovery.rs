//! Connection-fault recovery: injected connection-packet loss below the
//! retry budget must be survived transparently (no application-visible
//! error), and a deliberately exhausted budget must take a clean error
//! path through `wait_checked` instead of hanging or panicking.

use viampi_core::{mpi_metrics, ConnMode, Device, FaultProfile, MpiError, Universe, WaitPolicy};

fn drop_profile(seed: u64, drop_prob: f64) -> FaultProfile {
    FaultProfile {
        drop_prob,
        ..FaultProfile::none(seed)
    }
}

/// Sub-budget packet loss is recovered by the retry machinery without the
/// application ever seeing an error: every run completes with correct
/// data, and the runs that actually lost packets show retries.
#[test]
fn dropped_connect_packets_recover_transparently() {
    let mut recovered = 0u32;
    let mut retried = 0u32;
    for seed in 0..24u64 {
        let mut uni = Universe::new(2, Device::Clan, ConnMode::OnDemand, WaitPolicy::Polling);
        uni.config_mut().faults = Some(drop_profile(seed, 0.5));
        uni.config_mut().os_noise = false;
        let report = uni
            .run(|mpi| {
                if mpi.rank() == 0 {
                    mpi.send(b"ping", 1, 7);
                    let (data, st) = mpi.recv(Some(1), Some(8));
                    assert_eq!(st.source, 1);
                    data
                } else {
                    let (data, _) = mpi.recv(Some(0), Some(7));
                    assert_eq!(data, b"ping");
                    mpi.send(b"pong", 0, 8);
                    data
                }
            })
            .unwrap_or_else(|e| panic!("seed {seed}: run failed: {e}"));
        assert_eq!(report.results[0], b"pong");
        assert_eq!(report.results[1], b"ping");
        let retries: u64 = report
            .ranks
            .iter()
            .map(|r| r.mpi.counter(mpi_metrics::CONN_RETRIES))
            .sum();
        let failures: u64 = report
            .ranks
            .iter()
            .map(|r| r.mpi.counter(mpi_metrics::CONN_FAILURES))
            .sum();
        assert_eq!(failures, 0, "seed {seed}: no budget exhaustion expected");
        if report.metrics.get("fault.conn_dropped").unwrap() > 0 {
            recovered += 1;
        }
        if retries > 0 {
            retried += 1;
        }
    }
    assert!(
        recovered >= 5,
        "drop_prob 0.5 should lose packets in most runs (got {recovered}/24)"
    );
    // A simultaneous connect can mask one lost direction (the surviving
    // request still matches), but across 24 seeds some run must have needed
    // an actual retransmission.
    assert!(
        retried >= 1,
        "no run exercised the retry path across 24 seeds"
    );
}

/// With every connection packet dropped and a tiny budget, requests toward
/// the unreachable peer complete with `PeerUnreachable` through
/// `wait_checked`, finalize still terminates, and the retry counters
/// record the exhausted budget.
#[test]
fn exhausted_retry_budget_takes_clean_error_path() {
    let mut uni = Universe::new(2, Device::Clan, ConnMode::OnDemand, WaitPolicy::Polling);
    uni.config_mut().faults = Some(drop_profile(11, 1.0));
    uni.config_mut().conn_retry_max = 2;
    uni.config_mut().os_noise = false;
    let report = uni
        .run(|mpi| {
            let peer = 1 - mpi.rank();
            let req = if mpi.rank() == 0 {
                mpi.isend(b"doomed", peer, 0)
            } else {
                mpi.irecv(Some(peer), Some(0))
            };
            match mpi.wait_checked(req) {
                Err(MpiError::PeerUnreachable { peer: p }) => {
                    assert_eq!(p, peer);
                    true
                }
                Ok(_) => false,
            }
        })
        .expect("run terminates despite unreachable peers");
    assert_eq!(report.results, vec![true, true]);
    for r in &report.ranks {
        assert_eq!(
            r.mpi.counter(mpi_metrics::CONN_FAILURES),
            1,
            "rank {}: one failed channel",
            r.rank
        );
        assert_eq!(
            r.mpi.counter(mpi_metrics::CONN_RETRIES),
            2,
            "rank {}: full budget spent before giving up",
            r.rank
        );
        let snap = r
            .channels
            .iter()
            .find(|c| c.peer == 1 - r.rank)
            .expect("snapshot for the peer");
        assert_eq!(format!("{:?}", snap.state), "Failed");
        assert_eq!(snap.pending, 0, "failed channel keeps no queued sends");
    }
    assert!(report.metrics.get("fault.conn_dropped").unwrap() > 0);
}

/// Sends posted *after* a channel already failed also error out instead of
/// wedging finalize, and a directed receive toward the failed peer fails.
#[test]
fn requests_after_failure_error_immediately() {
    let mut uni = Universe::new(2, Device::Clan, ConnMode::OnDemand, WaitPolicy::Polling);
    uni.config_mut().faults = Some(drop_profile(5, 1.0));
    uni.config_mut().conn_retry_max = 1;
    uni.config_mut().os_noise = false;
    let report = uni
        .run(|mpi| {
            let peer = 1 - mpi.rank();
            let first = mpi.isend(b"a", peer, 0);
            assert!(mpi.wait_checked(first).is_err());
            // Channel is now Failed: both a fresh send and a directed
            // receive fail without blocking.
            let late_send = mpi.isend(b"b", peer, 1);
            let late_recv = mpi.irecv(Some(peer), Some(2));
            let se = mpi.wait_checked(late_send);
            let re = mpi.wait_checked(late_recv);
            matches!(se, Err(MpiError::PeerUnreachable { .. }))
                && matches!(re, Err(MpiError::PeerUnreachable { .. }))
        })
        .expect("run terminates");
    assert_eq!(report.results, vec![true, true]);
}

/// Static peer-to-peer init survives sub-budget loss: the deadline timers
/// wake blocked ranks so the retransmissions happen inside `MPI_Init`.
#[test]
fn static_p2p_init_recovers_from_drops() {
    for seed in [2u64, 3, 4] {
        let mut uni = Universe::new(
            3,
            Device::Clan,
            ConnMode::StaticPeerToPeer,
            WaitPolicy::spinwait_default(),
        );
        uni.config_mut().faults = Some(drop_profile(seed, 0.4));
        uni.config_mut().os_noise = false;
        let report = uni
            .run(|mpi| {
                let next = (mpi.rank() + 1) % mpi.size();
                let prev = (mpi.rank() + mpi.size() - 1) % mpi.size();
                let (data, _) = mpi.sendrecv(&[mpi.rank() as u8], next, 0, Some(prev), Some(0));
                data[0] as usize
            })
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(report.results, vec![2, 0, 1]);
        let failures: u64 = report
            .ranks
            .iter()
            .map(|r| r.mpi.counter(mpi_metrics::CONN_FAILURES))
            .sum();
        assert_eq!(failures, 0);
    }
}

/// A fault profile with zero rates still runs the whole injector plumbing
/// but changes nothing observable: counters stay zero and nothing retries
/// spuriously (the retry timeout is far above legitimate establishment).
#[test]
fn zero_rate_profile_neither_faults_nor_retries() {
    let mut uni = Universe::new(4, Device::Berkeley, ConnMode::OnDemand, WaitPolicy::Polling);
    uni.config_mut().faults = Some(FaultProfile::none(42));
    let report = uni
        .run(|mpi| {
            let next = (mpi.rank() + 1) % mpi.size();
            let prev = (mpi.rank() + mpi.size() - 1) % mpi.size();
            let (data, _) = mpi.sendrecv(&[mpi.rank() as u8], next, 0, Some(prev), Some(0));
            data[0] as usize
        })
        .unwrap();
    assert_eq!(report.results, vec![3, 0, 1, 2]);
    let faults = report.metrics.entries.iter();
    assert!(faults
        .filter(|e| e.name.starts_with("fault."))
        .all(|e| e.value == 0));
    for r in &report.ranks {
        assert_eq!(r.mpi.counter(mpi_metrics::CONN_RETRIES), 0);
        assert_eq!(r.mpi.counter(mpi_metrics::CONN_FAILURES), 0);
    }
}
