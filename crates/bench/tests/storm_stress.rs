//! `MPI_ANY_SOURCE` connection-storm stress (§3.5 worst case).
//!
//! One receiver posts wildcard receives, which in on-demand mode fires a
//! connection request at every peer at once, while every sender
//! simultaneously connects back to the receiver — the densest
//! simultaneous-connect race the protocol can produce. Across 100 random
//! schedules (half of them with light connection faults on top) every
//! message must be delivered exactly once, with no sender's stream lost,
//! duplicated, or reordered. That the race and duplicated connection
//! packets never yield twin VIs is a world-end law
//! (`viampi_core::invariants`) that `Universe::run` checks on every world.

use viampi_bench::runner::{nproc, par_map};
use viampi_core::{ConnMode, Device, FaultProfile, Mpi, Universe, WaitPolicy, ANY_SOURCE};

const MSGS_PER_SENDER: u32 = 3;

/// Rank 0 receives `(np-1) * m` wildcard messages and acks every sender;
/// senders push their burst then await the ack. Returns rank 0's receive
/// log as `(source, sequence)` pairs.
fn storm(mpi: &Mpi, m: u32) -> Vec<(usize, u32)> {
    let rank = mpi.rank();
    let np = mpi.size();
    let mut log = Vec::new();
    if rank == 0 {
        let total = (np - 1) as u32 * m;
        let reqs: Vec<_> = (0..total).map(|_| mpi.irecv(ANY_SOURCE, Some(0))).collect();
        for (data, st) in mpi.waitall(&reqs) {
            let data = data.unwrap();
            assert_eq!(data[0] as usize, st.source, "payload tags its sender");
            log.push((
                st.source,
                u32::from_le_bytes([data[1], data[2], data[3], data[4]]),
            ));
        }
        for peer in 1..np {
            mpi.send(b"ack", peer, 1);
        }
    } else {
        for seq in 0..m {
            let mut msg = vec![rank as u8];
            msg.extend_from_slice(&seq.to_le_bytes());
            msg.resize(64, rank as u8);
            mpi.send(&msg, 0, 0);
        }
        let (data, _) = mpi.recv(Some(0), Some(1));
        assert_eq!(data, b"ack");
    }
    log
}

#[test]
fn any_source_storm_yields_one_vi_per_pair_and_no_duplicates() {
    let outcomes = par_map(nproc(), (0..100u64).collect(), |seed| {
        let np = 4 + (seed % 5) as usize; // 3..=7 senders
        let m = MSGS_PER_SENDER;
        let mut uni = Universe::new(np, Device::Clan, ConnMode::OnDemand, WaitPolicy::Polling);
        uni.config_mut().sched_seed = Some(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        if seed % 2 == 1 {
            uni.config_mut().faults = Some(FaultProfile::light(seed));
        }
        let report = uni
            .run(move |mpi| storm(mpi, m))
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));

        // No duplicated, lost, or reordered delivery at the receiver: each
        // sender's stream is exactly 0..m, in order.
        let log = &report.results[0];
        assert_eq!(
            log.len(),
            (np - 1) * m as usize,
            "seed {seed}: delivery count"
        );
        for s in 1..np {
            let got: Vec<u32> = log
                .iter()
                .filter(|&&(src, _)| src == s)
                .map(|&(_, q)| q)
                .collect();
            let want: Vec<u32> = (0..m).collect();
            assert_eq!(got, want, "seed {seed}: stream from sender {s}");
        }
        let faults = report.metrics.entries.iter();
        faults
            .filter(|e| e.name.starts_with("fault."))
            .map(|e| e.value)
            .sum::<u64>()
    });
    // The faulted half of the schedule sweep must actually have injected
    // something, or the stress claim is hollow.
    let injected: u64 = outcomes.iter().sum();
    assert!(injected > 0, "no faults injected across the faulted runs");
}
