//! `benchmark compare A.json B.json`: B (the candidate) against A (the
//! baseline), two `suite.json` files.
//!
//! * A host end-to-end metric regresses when B's median is worse than A's
//!   by more than the metric's bound; when either run's own spread (IQR as
//!   a share of its median) exceeds the bound, or either run was unpinned,
//!   the verdict is `unresolved`, never `unchanged`.
//! * A modelled metric or a count must be exactly equal.
//! * Per-layer host metrics have no bound; their ratio is printed.
//!
//! Exit code 1 on a regression or a mismatch, 0 otherwise.

use crate::catalog::{self, Better, Kind, MetricDef};
use crate::json::Json;
use std::path::Path;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Improved,
    Regression,
    Unresolved,
    Equal,
    Mismatch,
    /// Per-layer host metric: no bound to apply.
    Info,
    /// Not measured on one side.
    Missing,
}

struct Side {
    value: Option<f64>,
    iqr_share: Option<f64>,
    pinned: bool,
}

fn side(record: &Json, section: &str, name: &str) -> Side {
    let m = record.get(section).and_then(|s| s.get(name));
    let value = m.and_then(|m| m.get("value")).and_then(Json::as_f64);
    let q = |k| m.and_then(|m| m.get(k)).and_then(Json::as_f64);
    Side {
        value,
        iqr_share: match (q("q1"), q("q3"), value) {
            (Some(q1), Some(q3), Some(v)) if v != 0.0 => Some((q3 - q1) / v),
            _ => None,
        },
        pinned: record
            .get("pinned")
            .and_then(Json::as_bool)
            .unwrap_or(false),
    }
}

/// How much worse `b` is than `a`, as a share of `a`.
fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    match def.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

fn judge(def: &MetricDef, a: &Side, b: &Side) -> Verdict {
    let (Some(va), Some(vb)) = (a.value, b.value) else {
        return if a.value == b.value {
            Verdict::Equal
        } else {
            Verdict::Missing
        };
    };
    match (def.kind, def.bound) {
        (Kind::Exact, _) => {
            if va.to_bits() == vb.to_bits() {
                Verdict::Equal
            } else {
                Verdict::Mismatch
            }
        }
        (Kind::Host, None) => Verdict::Info,
        (Kind::Host, Some(bound)) => {
            let spread = a.iqr_share.unwrap_or(0.0).max(b.iqr_share.unwrap_or(0.0));
            let worse = worsening(def, va, vb);
            if !(a.pinned && b.pinned) || spread > bound {
                Verdict::Unresolved
            } else if worse > bound {
                Verdict::Regression
            } else if worse < -bound {
                Verdict::Improved
            } else {
                Verdict::Ok
            }
        }
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Compare two parsed suites; prints one row per metric and returns the
/// verdicts that decide the exit code.
pub fn compare(a: &Json, b: &Json) -> Vec<(String, &'static str, Verdict)> {
    let mut rows = Vec::new();
    let empty = Json::Obj(vec![]);
    let workloads = a.get("workloads").unwrap_or(&empty);
    for (wname, wa) in workloads.entries() {
        let wb = b
            .get("workloads")
            .and_then(|w| w.get(wname))
            .unwrap_or(&empty);
        let sections: [(&str, &str, &[MetricDef]); 3] = [
            ("e2e", "metrics", catalog::END_TO_END),
            ("layers", "metrics", catalog::PER_LAYER),
            ("layers", "extra", catalog::ACCUMULATOR_ONLY),
        ];
        for (pass, section, defs) in sections {
            let (ra, rb) = (
                wa.get(pass).unwrap_or(&empty),
                wb.get(pass).unwrap_or(&empty),
            );
            for def in defs {
                let (sa, sb) = (side(ra, section, def.name), side(rb, section, def.name));
                let verdict = judge(def, &sa, &sb);
                let show = |v: Option<f64>| v.map_or("null".to_string(), |v| format!("{v:.6}"));
                let change = match (sa.value, sb.value) {
                    (Some(x), Some(y)) if x != 0.0 => format!("{:+.2}%", (y - x) / x * 100.0),
                    _ => "-".to_string(),
                };
                println!(
                    "{wname:<8} {:<34} {:>16} {:>16} {change:>9} {:<5} {}",
                    def.name,
                    show(sa.value),
                    show(sb.value),
                    def.unit,
                    match verdict {
                        Verdict::Ok => "ok (within bound)",
                        Verdict::Improved => "improved",
                        Verdict::Regression => "REGRESSION",
                        Verdict::Unresolved => "unresolved (spread exceeds bound, or unpinned)",
                        Verdict::Equal => "equal",
                        Verdict::Mismatch => "MISMATCH (must be exactly equal)",
                        Verdict::Info => "",
                        Verdict::Missing => "MISSING on one side",
                    }
                );
                rows.push((wname.clone(), def.name, verdict));
            }
        }
    }
    rows
}

pub fn main(a: &Path, b: &Path) -> ExitCode {
    let (a, b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("benchmark compare: {e}");
            return ExitCode::from(2);
        }
    };
    let rows = compare(&a, &b);
    let count = |v: Verdict| rows.iter().filter(|r| r.2 == v).count();
    let bad = count(Verdict::Regression) + count(Verdict::Mismatch) + count(Verdict::Missing);
    println!(
        "== {} metrics: {} regressions, {} mismatches, {} missing, {} unresolved",
        rows.len(),
        count(Verdict::Regression),
        count(Verdict::Mismatch),
        count(Verdict::Missing),
        count(Verdict::Unresolved),
    );
    if rows.is_empty() || bad > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host(value: f64, q1: f64, q3: f64, pinned: bool) -> Side {
        Side {
            value: Some(value),
            iqr_share: Some((q3 - q1) / value),
            pinned,
        }
    }

    fn exact(value: Option<f64>) -> Side {
        Side {
            value,
            iqr_share: None,
            pinned: true,
        }
    }

    #[test]
    fn host_metrics_follow_bound_direction_and_spread() {
        let wall = &MetricDef {
            name: "wall",
            unit: "ms",
            better: Better::Lower,
            kind: Kind::Host,
            bound: Some(0.10),
        };
        let base = host(100.0, 99.0, 101.0, true);
        assert_eq!(
            judge(wall, &base, &host(105.0, 104.0, 106.0, true)),
            Verdict::Ok
        );
        assert_eq!(
            judge(wall, &base, &host(111.0, 110.0, 112.0, true)),
            Verdict::Regression
        );
        assert_eq!(
            judge(wall, &base, &host(80.0, 79.0, 81.0, true)),
            Verdict::Improved
        );
        // A spread wider than the bound, or an unpinned run, decides nothing.
        assert_eq!(
            judge(wall, &base, &host(150.0, 120.0, 180.0, true)),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(wall, &base, &host(100.0, 99.0, 101.0, false)),
            Verdict::Unresolved
        );
    }

    #[test]
    fn modelled_metrics_and_counts_must_be_bit_equal() {
        let ratio = catalog::find("virt_time_ratio").unwrap();
        assert_eq!(
            judge(ratio, &exact(Some(0.886)), &exact(Some(0.886))),
            Verdict::Equal
        );
        assert_eq!(
            judge(ratio, &exact(Some(0.886)), &exact(Some(0.886_000_1))),
            Verdict::Mismatch
        );
        let count = catalog::find("via.nic.msgs_tx").unwrap();
        assert_eq!(
            judge(count, &exact(Some(6400.0)), &exact(Some(6401.0))),
            Verdict::Mismatch
        );
        assert_eq!(judge(count, &exact(None), &exact(None)), Verdict::Equal);
        assert_eq!(
            judge(count, &exact(Some(1.0)), &exact(None)),
            Verdict::Missing
        );
    }

    #[test]
    fn per_layer_host_metrics_carry_no_verdict() {
        let probe = catalog::find("sim.engine.switch_ns").unwrap();
        assert_eq!(
            judge(
                probe,
                &host(5000.0, 4900.0, 5100.0, true),
                &host(90.0, 89.0, 91.0, true)
            ),
            Verdict::Info
        );
    }
}
