//! Quickstart: run an 8-rank MPI program over simulated VIA with on-demand
//! connection management, and watch connections appear only where traffic
//! flows.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use viampi::core::nic_metrics;
use viampi::{ConnMode, Device, ReduceOp, Universe, WaitPolicy};

fn main() {
    let np = 8;
    let uni = Universe::new(np, Device::Clan, ConnMode::OnDemand, WaitPolicy::Polling);

    let report = uni
        .run(|mpi| {
            let (rank, size) = (mpi.rank(), mpi.size());

            // Ring shift: everyone passes a greeting to the right.
            let next = (rank + 1) % size;
            let prev = (rank + size - 1) % size;
            let msg = format!("hello from rank {rank}");
            let (got, st) = mpi.sendrecv(msg.as_bytes(), next, 0, Some(prev), Some(0));
            assert_eq!(st.source, prev);
            let got = String::from_utf8(got).unwrap();

            // A global reduction.
            let total = mpi.allreduce(&[rank as i64 + 1], ReduceOp::Sum)[0];

            // What did this cost in connection resources?
            (got, total, mpi.live_vis())
        })
        .unwrap();

    println!(
        "simulated {np}-rank run finished at t = {}",
        report.end_time
    );
    println!();
    for (rank, (got, total, vis)) in report.results.iter().enumerate() {
        let pinned = report.ranks[rank].nic.gauge(nic_metrics::PINNED_PEAK);
        println!(
            "rank {rank}: received {got:?}, sum = {total}, VIs = {vis}, pinned = {} KiB",
            pinned / 1024
        );
    }
    println!();
    println!(
        "average VIs per process: {:.2} (a fully-connected static MPI would use {})",
        report.avg_vis(),
        np - 1
    );
    println!(
        "VI utilization: {:.0}% (paper Table 2: on-demand is always 100%)",
        report.utilization() * 100.0
    );
}
