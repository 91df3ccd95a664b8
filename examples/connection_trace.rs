//! Watch the on-demand connection machinery itself: pre-posted send FIFOs,
//! lazy VI creation, the `MPI_ANY_SOURCE` connect-to-all rule (§3.5), and
//! the init-time difference against both static models (Fig. 8).
//!
//! ```text
//! cargo run --release --example connection_trace
//! ```

use viampi::core::mpi_metrics;
use viampi::{ConnMode, Device, Universe, WaitPolicy, ANY_SOURCE};

fn main() {
    // --- Act 1: lazy connections + the pre-posted send FIFO (§3.4) -------
    let report = Universe::new(4, Device::Clan, ConnMode::OnDemand, WaitPolicy::Polling)
        .run(|mpi| {
            let mut log = Vec::new();
            match mpi.rank() {
                0 => {
                    log.push(format!("t={} VIs={}", mpi.now(), mpi.live_vis()));
                    // Burst of sends *before* any connection exists: all are
                    // held in the per-VI FIFO, none is lost to the VIA
                    // unconnected-send discard rule.
                    let reqs: Vec<_> = (0..10u8).map(|i| mpi.isend(&[i], 1, 0)).collect();
                    let m = mpi.metrics_snapshot();
                    log.push(format!(
                        "posted 10 isends; fifo-deferred={} drops={}",
                        m.get("mpi.fifo_deferred_sends").unwrap(),
                        m.get("nic.drops_unconnected").unwrap()
                    ));
                    mpi.waitall(&reqs);
                    log.push(format!(
                        "t={} all sends complete, VIs={}",
                        mpi.now(),
                        mpi.live_vis()
                    ));
                }
                1 => {
                    for i in 0..10u8 {
                        let (d, _) = mpi.recv(Some(0), Some(0));
                        assert_eq!(d, [i], "FIFO preserved MPI order");
                    }
                    log.push("received 10 messages in order".into());
                }
                2 => {
                    // ANY_SOURCE: must connect to everyone (§3.5).
                    let before = mpi.live_vis();
                    let (d, st) = mpi.recv(ANY_SOURCE, Some(7));
                    log.push(format!(
                        "ANY_SOURCE recv: VIs {before} -> {} (connected to all), \
                         got {:?} from rank {}",
                        mpi.live_vis(),
                        d,
                        st.source
                    ));
                }
                _ => {
                    mpi.advance(viampi::sim::SimDuration::millis(1));
                    mpi.send(b"x", 2, 7);
                }
            }
            log.join("\n  ")
        })
        .unwrap();
    println!("== on-demand mechanics ==");
    for (rank, log) in report.results.iter().enumerate() {
        println!("rank {rank}:\n  {log}");
    }

    // --- Act 2: init time across the three managers (Fig. 8) -------------
    println!("\n== MPI_Init time, np = 12 (Fig. 8) ==");
    for mode in [
        ConnMode::StaticClientServer,
        ConnMode::StaticPeerToPeer,
        ConnMode::OnDemand,
    ] {
        let r = Universe::new(12, Device::Clan, mode, WaitPolicy::Polling)
            .run(|_| ())
            .unwrap();
        println!(
            "  {:10}  init = {:>12}  connections at init = {}",
            mode.name(),
            format!("{}", r.avg_init_time()),
            r.ranks[0].mpi.gauge(mpi_metrics::CONNS_AT_INIT)
        );
    }
}
