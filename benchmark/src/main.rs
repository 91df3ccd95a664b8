//! The repo benchmark. See README.md for the metric catalogue and
//! `../BENCHMARK.json` for the contract the pipeline checks.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1 [--out DIR]
//!     one run of one workload; the last line of stdout is the result
//! benchmark [--workload W] [--seed N] [--run-s S] [--smoke] [--out DIR]
//!     the suite: every workload, untraced pass then traced pass, each in
//!     its own process; prints every metric and writes DIR/suite.json
//! benchmark compare A.json B.json
//!     applies each metric's bound and direction to two suite files
//! ```

mod api;
mod catalog;
mod compare;
mod json;
mod probes;
mod run;
mod stats;
mod suite;
mod sys;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

/// Seconds of measured time per workload in the suite's untraced pass
/// (the traced pass takes half); `BENCHMARK.json` fixes the pipeline's.
const DEFAULT_RUN_S: f64 = 20.0;

struct Args {
    workload: Option<&'static workloads::Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    smoke: bool,
    out: PathBuf,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_RUN_S,
        trace: None,
        smoke: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                a.workload = Some(workloads::by_name(name).ok_or_else(|| {
                    let known: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
                    format!("unknown workload '{name}' (known: {})", known.join(", "))
                })?)
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" | "--run-s" => {
                a.seconds = value()?.parse().map_err(|e| format!("{flag}: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err(format!("{flag} must be in (0, 600]"));
                }
            }
            "--trace" => {
                a.trace = Some(match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                })
            }
            "--smoke" => a.smoke = true,
            "--out" => a.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match argv.as_slice() {
            [_, a, b] => compare::main(a.as_ref(), b.as_ref()),
            _ => {
                eprintln!("usage: benchmark compare A.json B.json");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match (args.trace, args.workload) {
        (Some(traced), Some(workload)) => single(run::Options {
            workload,
            seed: args.seed,
            seconds: args.seconds,
            traced,
            smoke: args.smoke,
            out: args.out,
        }),
        (Some(_), None) => {
            eprintln!("benchmark: --trace needs --workload");
            ExitCode::from(2)
        }
        (None, workload) => suite::main(workload, args.seed, args.seconds, args.smoke, &args.out),
    }
}

fn single(opts: run::Options) -> ExitCode {
    let rec = run::run(opts);
    rec.print_table();
    if let Err(e) = rec.write_files() {
        eprintln!("benchmark: writing results: {e}");
        return ExitCode::from(2);
    }
    println!("{}", rec.result_line());
    if rec.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
