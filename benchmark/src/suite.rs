//! The suite: every workload, untraced pass then traced pass. Each pass is
//! a child process of its own, so `peak_rss_mb` is per workload and one
//! pass's heap cannot warm the next one's.

use crate::json::Json;
use crate::workloads::{self, Workload};
use std::path::Path;
use std::process::{Command, ExitCode};

fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    out: &Path,
) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(out);
    if smoke {
        cmd.arg("--smoke");
    }
    // `status` waits for the child; its table goes straight to our stdout.
    let status = cmd
        .status()
        .map_err(|e| format!("starting {workload}: {e}"))?;
    Ok(status.success())
}

fn read_record(out: &Path, workload: &str, pass: &str) -> Result<Json, String> {
    let path = out.join(format!("{workload}_{pass}.json"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn main(only: Option<&Workload>, seed: u64, run_s: f64, smoke: bool, out: &Path) -> ExitCode {
    let selected: Vec<&str> = match only {
        Some(w) => vec![w.name],
        None => workloads::ALL.iter().map(|w| w.name).collect(),
    };
    let mut all_ok = true;
    let mut records = Vec::new();
    for name in selected {
        // Smoke is the untraced pass alone: one unit, does it verify?
        let passes: &[(bool, &str, f64)] = if smoke {
            &[(false, "e2e", run_s)]
        } else {
            &[(false, "e2e", run_s), (true, "layers", run_s / 2.0)]
        };
        let mut entry = Vec::new();
        for &(traced, pass, seconds) in passes {
            match run_child(name, seed, seconds, traced, smoke, out) {
                Ok(ok) => all_ok &= ok,
                Err(e) => {
                    eprintln!("benchmark: {e}");
                    return ExitCode::from(2);
                }
            }
            match read_record(out, name, pass) {
                Ok(rec) => entry.push((pass.to_string(), rec)),
                Err(e) => {
                    eprintln!("benchmark: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        records.push((name.to_string(), Json::Obj(entry)));
    }
    let suite = Json::Obj(vec![
        ("seed".into(), Json::Num(seed as f64)),
        ("run_s".into(), Json::Num(run_s)),
        ("smoke".into(), Json::Bool(smoke)),
        ("workloads".into(), Json::Obj(records)),
    ]);
    let path = out.join("suite.json");
    if let Err(e) = std::fs::write(&path, suite.pretty()) {
        eprintln!("benchmark: {}: {e}", path.display());
        return ExitCode::from(2);
    }
    println!(
        "== suite {}: wrote {}",
        if all_ok { "passed" } else { "FAILED" },
        path.display()
    );
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
