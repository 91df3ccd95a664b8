//! Schedule-exploration and fault-injection driver.
//!
//! Runs small MPI programs across many random scheduler/fault seeds and
//! checks connection state-machine legality, credit conservation, message
//! delivery and FIFO order after each run (see `viampi_bench::simcheck`).
//!
//! ```text
//! simcheck [--seeds N] [--start S] [--fault none|light|heavy] [--jobs J]
//! simcheck --replay KEY [--fault ...]
//! simcheck --campaign [--start S] [--seeds BUDGET | --timebox SECS]
//!          [--fault ...] [--jobs J] [--corpus FILE] [--summary-out FILE]
//! ```
//!
//! A batch prints its per-program table, every offending seed (replay key)
//! and its totals, and writes nothing — the standard batch's record,
//! `results/simcheck.json`, is the `simcheck` row of `repro_all`. The exit
//! code is nonzero on any violation.
//!
//! Campaign mode runs the coverage-directed engine in
//! `viampi_bench::campaign` from root seed `--start` (default 0, below
//! 2⁴⁸) in memory; a budgeted campaign's totals do not depend on `--jobs`.
//! Its summary names `start` and `next_start`, the `--start` of a campaign
//! that continues where this one stopped. A `--replay` key whose tag names
//! no scenario axis is refused (exit 2).

use viampi_bench::campaign::{default_corpus_path, run_campaign, CampaignConfig};
use viampi_bench::json::to_string_pretty;
use viampi_bench::report::fmt;
use viampi_bench::runner;
use viampi_bench::simcheck::{
    batch_output, describe_key, key, run_key, run_seeds, FaultKind, SeedOutcome,
};

struct Args {
    jobs: usize,
    seeds: Option<u64>,
    start: u64,
    fault: FaultKind,
    replay: Option<u64>,
    campaign: bool,
    timebox: Option<f64>,
    corpus: Option<std::path::PathBuf>,
    summary_out: Option<std::path::PathBuf>,
}

fn parse_args() -> Args {
    let mut argv: Vec<String> = std::env::args().collect();
    let mut args = Args {
        jobs: runner::jobs_from_args(&mut argv).unwrap_or_else(|e| die(&e)),
        seeds: None,
        start: 0,
        fault: FaultKind::Heavy,
        replay: None,
        campaign: false,
        timebox: None,
        corpus: None,
        summary_out: None,
    };
    let mut i = 1;
    let value = |argv: &[String], i: usize, flag: &str| -> String {
        argv.get(i + 1)
            .unwrap_or_else(|| die(&format!("{flag} needs a value")))
            .clone()
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--seeds" => {
                args.seeds = Some(
                    value(&argv, i, "--seeds")
                        .parse()
                        .unwrap_or_else(|_| die("--seeds expects a number")),
                );
                i += 2;
            }
            "--start" => {
                args.start = value(&argv, i, "--start")
                    .parse()
                    .unwrap_or_else(|_| die("--start expects a number"));
                i += 2;
            }
            "--fault" => {
                let v = value(&argv, i, "--fault");
                args.fault =
                    FaultKind::parse(&v).unwrap_or_else(|| die("--fault expects none|light|heavy"));
                i += 2;
            }
            "--replay" => {
                let v = value(&argv, i, "--replay");
                let parsed = match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16).ok(),
                    None => v.parse().ok(),
                };
                args.replay =
                    Some(parsed.unwrap_or_else(|| die("--replay expects a key (decimal or 0x…)")));
                i += 2;
            }
            "--campaign" => {
                args.campaign = true;
                i += 1;
            }
            "--timebox" => {
                args.timebox = Some(
                    value(&argv, i, "--timebox")
                        .parse()
                        .unwrap_or_else(|_| die("--timebox expects seconds")),
                );
                i += 2;
            }
            "--corpus" => {
                args.corpus = Some(value(&argv, i, "--corpus").into());
                i += 2;
            }
            "--summary-out" => {
                args.summary_out = Some(value(&argv, i, "--summary-out").into());
                i += 2;
            }
            "--help" | "-h" => {
                println!(
                    "usage: simcheck [--seeds N] [--start S] \
                     [--fault none|light|heavy] [--jobs J] [--replay KEY]\n       \
                     simcheck --campaign [--start S] [--seeds BUDGET] [--timebox SECS] \
                     [--corpus FILE] [--summary-out FILE]"
                );
                std::process::exit(0);
            }
            other => die(&format!("unknown argument: {other}")),
        }
    }
    args
}

fn die(msg: &str) -> ! {
    eprintln!("simcheck: {msg}");
    std::process::exit(2);
}

fn describe(o: &SeedOutcome) -> String {
    format!(
        "seed {}: np={} program={} device={} conn={} wait={} fault={}",
        o.seed, o.np, o.program, o.device, o.conn, o.wait, o.fault
    )
}

fn run_campaign_cli(args: &Args) -> ! {
    // Without an explicit stop condition a campaign would explore forever;
    // default to a one-minute timebox.
    let timebox = match (args.seeds, args.timebox) {
        (None, None) => {
            println!("simcheck: no --seeds budget or --timebox given, defaulting to 60s timebox");
            Some(60.0)
        }
        _ => args.timebox,
    };
    let cfg = CampaignConfig {
        kind: args.fault,
        start: args.start,
        seeds_budget: args.seeds,
        timebox,
        corpus_path: args.corpus.clone(),
        jobs: args.jobs,
    };
    let report = match run_campaign(&cfg) {
        Ok(r) => r,
        Err(e) => die(&e),
    };
    let s = &report.summary;
    println!(
        "campaign ({} fault, {} jobs) from start {}: {} keys in {:.1}s ({:.0} seeds/hour), \
         stopped: {}, next start {}",
        s.fault,
        s.jobs,
        s.start,
        report.state.seeds_run,
        s.wall_secs,
        s.seeds_per_hour,
        s.stopped,
        s.next_start
    );
    println!(
        "  corpus: {} replayed, {} still violating, {} new minimized entries",
        s.corpus_replayed, s.corpus_open, s.corpus_new
    );
    println!(
        "  {} events, {} faults injected, {} retries",
        report.state.events, report.state.faults_injected, report.state.conn_retries
    );
    for line in &s.metrics {
        println!("  {} = {}", line.name, line.value);
    }
    for o in &report.corpus_open {
        println!("OPEN {}", describe(o));
        for v in &o.violations {
            println!("  {v}");
        }
        println!("  replay: simcheck --replay {} --fault {}", o.seed, o.fault);
    }
    for line in &report.state.corpus {
        println!("NEW VIOLATION (minimized): {line}");
    }
    match &args.summary_out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, to_string_pretty(s)) {
                die(&format!("write {}: {e}", path.display()));
            }
            println!("campaign summary: {}", path.display());
        }
        None => println!("campaign summary:\n{}", to_string_pretty(s)),
    }
    println!(
        "corpus file: {}",
        cfg.corpus_path
            .clone()
            .unwrap_or_else(default_corpus_path)
            .display()
    );
    if s.corpus_open > 0 || s.corpus_new > 0 {
        std::process::exit(1);
    }
    std::process::exit(0);
}

fn main() {
    let args = parse_args();

    if let Some(k) = args.replay {
        key::check(k).unwrap_or_else(|e| die(&e));
        print!("{}", describe_key(k, args.fault));
        let o = run_key(k, args.fault);
        println!(
            "  end {} us, {} events, {} faults injected, {} retries, {} failures",
            fmt(o.end_us),
            o.events,
            o.faults_injected,
            o.conn_retries,
            o.conn_failures
        );
        println!(
            "  retry depth max {}, {} unexpected arrivals",
            o.retry_depth_max, o.unexpected_msgs
        );
        println!("  coverage signature: {}", o.signature);
        if o.violations.is_empty() {
            println!("  all invariants hold");
        } else {
            for v in &o.violations {
                println!("  VIOLATION: {v}");
            }
            std::process::exit(1);
        }
        return;
    }

    if args.campaign {
        run_campaign_cli(&args);
    }

    let seeds = args.seeds.unwrap_or(1000);
    let ((outcomes, summary), perf) = runner::timed("simcheck", args.jobs, || {
        run_seeds(args.start, seeds, args.fault, args.jobs)
    });
    println!("{}", batch_output(&outcomes, &summary).text);

    for o in outcomes.iter().filter(|o| !o.violations.is_empty()) {
        println!("FAIL {}", describe(o));
        for v in &o.violations {
            println!("  {v}");
        }
        println!("  replay: simcheck --replay {} --fault {}", o.seed, o.fault);
    }

    println!(
        "{} seeds in {:.2}s on {} jobs: {} faults injected, {} retries, {} combos, {} failing",
        summary.seeds,
        perf.wall_secs,
        perf.jobs,
        summary.faults_injected,
        summary.conn_retries,
        summary.combos,
        summary.failing
    );
    if summary.failing > 0 {
        std::process::exit(1);
    }
}
