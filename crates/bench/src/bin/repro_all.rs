//! The one experiment executable: walks `experiments::ALL`.
//!
//! ```text
//! repro_all [--jobs N] [--check] [NAME…]
//! repro_all --list
//! ```
//!
//! No names means every row. Each row's simulations fan out over `N`
//! workers (default: all cores); records are byte-identical at any `N`.
//! Without `--check` each table is printed and `results/<name>.json`
//! rewritten — this is the only program that writes there, and a write that
//! fails is exit 1 naming the file. With `--check` nothing is written: each
//! regenerated record is byte-compared with the committed file, a difference
//! prints `MOVED results/<name>.json` and the exit code is 1. Wall-clock and
//! events/s per row are printed either way and, by a run that regenerated
//! every row, recorded in `results/perf.json`.

use std::path::Path;
use viampi_bench::experiments::{self, Experiment, ALL};
use viampi_bench::json::to_string_pretty;
use viampi_bench::report::{record_table, results_dir, write_record, Output, Record};
use viampi_bench::runner::{self, PerfRecord};

const USAGE: &str = "usage: repro_all [--jobs N] [--check] [NAME…] | repro_all --list";

fn die(msg: &str) -> ! {
    eprintln!("repro_all: {msg}\n{USAGE}");
    std::process::exit(2);
}

/// Write one file under `results/`, or exit 1 naming it.
fn write(dir: &Path, name: &str, json: &str) {
    if let Err(e) = write_record(dir, name, json) {
        eprintln!("repro_all: cannot write results/{name}.json: {e}");
        std::process::exit(1);
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let jobs = runner::jobs_from_args(&mut args).unwrap_or_else(|e| die(&e));
    let mut check = false;
    let mut rows: Vec<&Experiment> = Vec::new();
    for arg in &args {
        match arg.as_str() {
            "--check" => check = true,
            "--list" => return ALL.iter().for_each(|e| println!("{}", e.name)),
            "--help" | "-h" => return println!("{USAGE}"),
            flag if flag.starts_with('-') => die(&format!("unknown flag {flag}")),
            name => rows.push(experiments::find(name).unwrap_or_else(|| {
                die(&format!(
                    "no experiment named `{name}` (`repro_all --list` prints the names)"
                ))
            })),
        }
    }
    let every = rows.is_empty();
    if every {
        rows.extend(ALL);
    }

    let t0 = std::time::Instant::now();
    let what = if every { "all" } else { "selected" };
    println!("== viampi paper reproduction: {what} experiments ({jobs} jobs) ==\n");
    let dir = results_dir();
    let mut perf: Vec<PerfRecord> = Vec::new();
    let mut moved = 0;
    for e in rows {
        let (Output { json, text }, record) = runner::timed(e.name, jobs, || (e.run)(jobs));
        perf.push(record);
        if check {
            let committed = std::fs::read_to_string(dir.join(format!("{}.json", e.name)));
            let same = committed.is_ok_and(|c| c == json);
            moved += usize::from(!same);
            let verdict = if same { "same " } else { "MOVED" };
            println!("{verdict} results/{}.json", e.name);
        } else {
            println!("{text}");
            write(&dir, e.name, &json);
        }
    }

    let wall: f64 = perf.iter().map(|r| r.wall_secs).sum();
    let events: u64 = perf.iter().map(|r| r.events).sum();
    println!(
        "{}harness wall-clock ({jobs} jobs on {} cores; {events} events in {wall:.1}s):\n\n{}",
        if check { "\n" } else { "" },
        runner::nproc(),
        record_table(PerfRecord::HEADERS, &perf),
    );
    if check {
        println!("{moved} of {} records moved", perf.len());
        std::process::exit(if moved == 0 { 0 } else { 1 });
    }
    if every {
        write(&dir, "perf", &to_string_pretty(&perf));
    }
    println!(
        "{} experiments regenerated in {:.1}s (wall); JSON written to results/",
        perf.len(),
        t0.elapsed().as_secs_f64()
    );
}
