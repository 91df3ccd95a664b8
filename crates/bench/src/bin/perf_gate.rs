//! Hot-path performance gate.
//!
//! The gate counts scheduling work instead of timing it, so it means the
//! same on any machine: it runs two small worlds, reads the engine's and
//! the device's own counters and compares them with `==` to the committed
//! record. A change that adds a token switch or a channel-table walk per
//! message, or a world access per provisioned channel, fails it; one that
//! removes some re-blesses it. (Wall-clock
//! regressions are the repo benchmark's job: `benchmark/run.sh`.)
//!
//! ```text
//! perf_gate --exact results/perf_exact.json [--bless]
//! ```

use viampi_bench::json::to_string_pretty;
use viampi_bench::report::{fmt, table};
use viampi_core::{ConnMode, Device, RunReport, Universe, WaitPolicy};
use viampi_npb::llc;

viampi_bench::record! {
    /// One exact work count: `count` units of scheduling work for `per`
    /// units of modelled work, both read from a finished world's metrics.
    struct ExactCount {
        name: String,
        count: u64,
        per: u64,
    }
}

fn metric<R>(report: &RunReport<R>, name: &str) -> u64 {
    report
        .metrics
        .get(name)
        .unwrap_or_else(|| die(&format!("the run published no `{name}`")))
}

/// Run the gate's two worlds and count.
fn measure_exact() -> Vec<ExactCount> {
    let world = |np, conn| Universe::new(np, Device::Clan, conn, WaitPolicy::Polling);
    // fig4's largest cLAN point: token switches per wire message.
    let barrier = world(16, ConnMode::OnDemand)
        .run(|mpi| llc::barrier_latency(mpi, 300))
        .unwrap_or_else(|e| die(&format!("barrier world: {e}")));
    let switches = metric(&barrier, "sim.handoffs")
        - metric(&barrier, "sim.fast_resumes")
        - metric(&barrier, "sim.direct.self_resumes");
    // fig8's static wiring: world accesses per provisioned channel.
    let wiring = world(32, ConnMode::StaticPeerToPeer)
        .run(|_| ())
        .unwrap_or_else(|e| die(&format!("static world: {e}")));
    vec![
        ExactCount {
            name: "switches_per_message.barrier_np16_clan".into(),
            count: switches,
            per: metric(&barrier, "nic.msgs_tx"),
        },
        ExactCount {
            name: "world_accesses_per_channel.static_np32_clan".into(),
            count: metric(&wiring, "sim.world_accesses"),
            per: metric(&wiring, "nic.vis_created"),
        },
        // The §3.3 property: progress passes are many per message, so an
        // idle one must not walk the channel table.
        ExactCount {
            name: "progress_passes_per_message.barrier_np16_clan".into(),
            count: metric(&barrier, "mpi.progress_passes"),
            per: metric(&barrier, "nic.msgs_tx"),
        },
        ExactCount {
            name: "table_walks_per_message.barrier_np16_clan".into(),
            count: metric(&barrier, "mpi.table_walks"),
            per: metric(&barrier, "nic.msgs_tx"),
        },
    ]
}

/// Measure, then compare the rendering byte for byte with the committed
/// record (or rewrite the record when blessing).
fn gate(path: &str, bless: bool) {
    let now = measure_exact();
    let current = to_string_pretty(&now);
    if bless {
        std::fs::write(path, &current).unwrap_or_else(|e| die(&format!("write {path}: {e}")));
        println!("perf gate: exact record written to {path}");
    }
    let committed =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("read {path}: {e}")));
    let rows: Vec<Vec<String>> = now
        .iter()
        .map(|m| {
            vec![
                m.name.clone(),
                format!("{} / {}", m.count, m.per),
                fmt(m.count as f64 / m.per as f64),
            ]
        })
        .collect();
    println!("{}", table(&["exact count", "current", "ratio"], &rows));
    if current != committed {
        eprintln!("committed {path}:\n{committed}\ncurrent:\n{current}");
        eprintln!(
            "perf_gate: FAIL exact counts differ from {path}; if the change is \
             deliberate, re-run with --bless and commit the record"
        );
        std::process::exit(1);
    }
    println!("perf gate passed: {} exact counts equal", now.len());
}

fn die(msg: &str) -> ! {
    eprintln!("perf_gate: {msg}");
    std::process::exit(2);
}

fn main() {
    let mut path = None;
    let mut bless = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--exact" => path = Some(args.next().unwrap_or_else(|| die("--exact needs a value"))),
            "--bless" => bless = true,
            "--help" | "-h" => {
                println!("usage: perf_gate --exact FILE [--bless]");
                return;
            }
            other => die(&format!("unknown argument: {other}")),
        }
    }
    gate(&path.unwrap_or_else(|| die("--exact is required")), bless);
}
