//! Hot-path performance gate, in two stages.
//!
//! The **exact** stage counts scheduling work instead of timing it, so it
//! means the same on any machine: it runs two small worlds, reads the
//! engine's own counters and compares them with `==` to the committed
//! record. A change that adds a token switch per message or a world access
//! per provisioned channel fails it; one that removes some re-blesses it.
//!
//! ```text
//! perf_gate --exact results/perf_exact.json [--bless]
//! ```
//!
//! The **timed** stage compares a fresh `bench_hotpaths` record against the
//! committed baseline and fails on large regressions.
//!
//! ```text
//! perf_gate --baseline results/bench_hotpaths_baseline.json \
//!           --current results/bench_hotpaths_current.json \
//!           [--max-regress PCT]
//! ```
//!
//! Both files are the flat `[{name, ns_per_iter, iters}]` records the
//! minibench harness writes. The gate prints a comparison table and exits
//! nonzero if any benchmark present in the baseline is missing from the
//! current record or slowed down by more than `--max-regress` percent
//! (default 25 — wide enough to ride out best-of-3 sampling noise on
//! shared CI runners, tight enough to catch a real hot-path regression).
//! Speedups and newly added benchmarks only update the table.

use viampi_bench::json::{self, to_string_pretty};
use viampi_bench::report::{fmt, table};
use viampi_core::{ConnMode, Device, RunReport, Universe, WaitPolicy};
use viampi_npb::llc;

enum Args {
    /// The exact stage against the record at `path`.
    Exact { path: String, bless: bool },
    /// The timed stage.
    Timed {
        baseline: String,
        current: String,
        max_regress: f64,
    },
}

/// One exact work count: `count` units of scheduling work for `per` units
/// of modelled work, both read from a finished world's metrics.
struct ExactCount {
    name: String,
    count: u64,
    per: u64,
}
viampi_bench::impl_json!(ExactCount { name, count, per });

fn metric<R>(report: &RunReport<R>, name: &str) -> u64 {
    report
        .metrics
        .get(name)
        .unwrap_or_else(|| die(&format!("the run published no `{name}`")))
}

/// Run the exact stage's two worlds and count.
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
    ]
}

fn read_exact(path: &str) -> Vec<ExactCount> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("read {path}: {e}")));
    let doc = json::parse(&text).unwrap_or_else(|e| die(&format!("{path}: {e}")));
    let field = |v: &json::Value, k: &str| {
        v.get(k)
            .and_then(json::Value::as_u64)
            .unwrap_or_else(|| die(&format!("{path}: record without an integer `{k}`")))
    };
    doc.as_arr()
        .unwrap_or_else(|| die(&format!("{path}: expected an array of records")))
        .iter()
        .map(|v| ExactCount {
            name: v
                .get("name")
                .and_then(json::Value::as_str)
                .unwrap_or_else(|| die(&format!("{path}: record without a `name`")))
                .to_string(),
            count: field(v, "count"),
            per: field(v, "per"),
        })
        .collect()
}

/// The exact stage: measure, then compare with `==` (or rewrite the
/// record when blessing).
fn exact_stage(path: &str, bless: bool) {
    let now = measure_exact();
    if bless {
        std::fs::write(path, to_string_pretty(&now))
            .unwrap_or_else(|e| die(&format!("write {path}: {e}")));
        println!("perf gate: exact record written to {path}");
    }
    let committed = read_exact(path);
    let mut rows = Vec::new();
    let mut failed = committed.len() != now.len();
    for m in &now {
        let c = committed.iter().find(|c| c.name == m.name);
        let same = c.is_some_and(|c| (c.count, c.per) == (m.count, m.per));
        failed |= !same;
        rows.push(vec![
            m.name.clone(),
            c.map_or("-".into(), |c| format!("{} / {}", c.count, c.per)),
            format!("{} / {}", m.count, m.per),
            fmt(m.count as f64 / m.per as f64),
            if same { "ok" } else { "MOVED" }.into(),
        ]);
    }
    println!(
        "{}",
        table(
            &["exact count", "committed", "current", "ratio", "status"],
            &rows
        )
    );
    if failed {
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

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().collect();
    let mut exact = None;
    let mut bless = false;
    let mut baseline = None;
    let mut current = None;
    let mut max_regress = 25.0;
    let value = |argv: &[String], i: usize, flag: &str| -> String {
        argv.get(i + 1)
            .unwrap_or_else(|| die(&format!("{flag} needs a value")))
            .clone()
    };
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--baseline" => {
                baseline = Some(value(&argv, i, "--baseline"));
                i += 2;
            }
            "--current" => {
                current = Some(value(&argv, i, "--current"));
                i += 2;
            }
            "--max-regress" => {
                max_regress = value(&argv, i, "--max-regress")
                    .parse()
                    .unwrap_or_else(|_| die("--max-regress expects a percentage"));
                i += 2;
            }
            "--exact" => {
                exact = Some(value(&argv, i, "--exact"));
                i += 2;
            }
            "--bless" => {
                bless = true;
                i += 1;
            }
            "--help" | "-h" => {
                println!(
                    "usage: perf_gate --exact FILE [--bless]\n       \
                     perf_gate --baseline FILE --current FILE [--max-regress PCT]"
                );
                std::process::exit(0);
            }
            other => die(&format!("unknown argument: {other}")),
        }
    }
    if let Some(path) = exact {
        return Args::Exact { path, bless };
    }
    Args::Timed {
        baseline: baseline.unwrap_or_else(|| die("--baseline is required")),
        current: current.unwrap_or_else(|| die("--current is required")),
        max_regress,
    }
}

/// Parse a minibench record: the build has no JSON parser crate, so this
/// reads exactly the line-per-field layout `minibench::Bench::finish`
/// writes (`"name": "..."` followed by `"ns_per_iter": N`).
fn parse_records(text: &str, path: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut name: Option<String> = None;
    for line in text.lines() {
        let t = line.trim().trim_end_matches(',');
        if let Some(rest) = t.strip_prefix("\"name\": \"") {
            let n = rest
                .strip_suffix('"')
                .unwrap_or_else(|| die(&format!("{path}: malformed name line: {t}")));
            name = Some(n.to_string());
        } else if let Some(rest) = t.strip_prefix("\"ns_per_iter\": ") {
            let v: f64 = rest
                .parse()
                .unwrap_or_else(|_| die(&format!("{path}: malformed ns_per_iter line: {t}")));
            let n = name
                .take()
                .unwrap_or_else(|| die(&format!("{path}: ns_per_iter before any name")));
            out.push((n, v));
        }
    }
    if out.is_empty() {
        die(&format!("{path}: no benchmark records found"));
    }
    out
}

fn read_records(path: &str) -> Vec<(String, f64)> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("read {path}: {e}")));
    parse_records(&text, path)
}

fn main() {
    let (baseline, current, max_regress) = match parse_args() {
        Args::Exact { path, bless } => return exact_stage(&path, bless),
        Args::Timed {
            baseline,
            current,
            max_regress,
        } => (read_records(&baseline), read_records(&current), max_regress),
    };

    let mut rows = Vec::new();
    let mut failures = Vec::new();
    for (name, base_ns) in &baseline {
        let Some((_, cur_ns)) = current.iter().find(|(n, _)| n == name) else {
            rows.push(vec![
                name.clone(),
                fmt(*base_ns),
                "-".into(),
                "-".into(),
                "MISSING".into(),
            ]);
            failures.push(format!(
                "{name}: present in baseline, missing from current run"
            ));
            continue;
        };
        let delta_pct = (cur_ns / base_ns - 1.0) * 100.0;
        let status = if delta_pct > max_regress {
            failures.push(format!(
                "{name}: {} -> {} ns/iter (+{:.1}% > {:.0}% budget)",
                fmt(*base_ns),
                fmt(*cur_ns),
                delta_pct,
                max_regress
            ));
            "REGRESSED"
        } else {
            "ok"
        };
        rows.push(vec![
            name.clone(),
            fmt(*base_ns),
            fmt(*cur_ns),
            format!("{delta_pct:+.1}%"),
            status.into(),
        ]);
    }
    for (name, cur_ns) in &current {
        if !baseline.iter().any(|(n, _)| n == name) {
            rows.push(vec![
                name.clone(),
                "-".into(),
                fmt(*cur_ns),
                "-".into(),
                "new".into(),
            ]);
        }
    }

    println!(
        "{}",
        table(
            &["benchmark", "baseline ns", "current ns", "delta", "status"],
            &rows
        )
    );

    if failures.is_empty() {
        println!(
            "perf gate passed: {} benchmarks within the {:.0}% budget",
            baseline.len(),
            max_regress
        );
    } else {
        for f in &failures {
            eprintln!("perf_gate: FAIL {f}");
        }
        std::process::exit(1);
    }
}
