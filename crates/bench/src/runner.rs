//! Parallel experiment runner.
//!
//! Every simulation in the harness is an independent, deterministic,
//! single-process job, so experiments fan their configuration grids out
//! over a scoped worker pool. Results are collected by item index, which
//! makes the output order — and therefore every table and JSON record —
//! identical to the serial run regardless of worker count.
//!
//! The worker count is an argument, never ambient state: an executable
//! reads it from its command line once ([`jobs_from_args`]) and passes it
//! down; a test names the counts it compares.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Take `--jobs N` / `--jobs=N` out of `args` and return the worker count:
/// `N` (0 means 1), or every core when the flag is absent. A value that is
/// not a number, or a flag without one, is an error, not "all cores".
pub fn jobs_from_args(args: &mut Vec<String>) -> Result<usize, String> {
    let Some(i) = args
        .iter()
        .position(|a| a == "--jobs" || a.starts_with("--jobs="))
    else {
        return Ok(nproc());
    };
    let flag = args.remove(i);
    let value = match flag.strip_prefix("--jobs=") {
        Some(v) => v.to_string(),
        None if i < args.len() => args.remove(i),
        None => return Err("--jobs needs a value".into()),
    };
    match value.parse::<usize>() {
        Ok(n) => Ok(n.max(1)),
        Err(_) => Err(format!("--jobs expects a number, got `{value}`")),
    }
}

/// Map `f` over `items` on a scoped pool of `jobs` workers, returning
/// results in item order. With one worker (or one item) this degenerates to
/// a plain serial loop on the calling thread.
pub fn par_map<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Send + Sync,
{
    let n = items.len();
    let workers = jobs.min(n);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let items: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = items[i]
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .take()
                    .expect("work item claimed twice");
                let result = f(item);
                *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("worker stored every result")
        })
        .collect()
}

/// Cores this machine offers the process — recorded beside every wall-clock
/// number, because a `--jobs 1` wall on a 2-core box and on a 64-core box are
/// the same measurement only if the record says so.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

crate::record! {
    /// Wall-clock/throughput record for one timed experiment.
    pub struct PerfRecord {
        /// Experiment name (matches the `results/<name>.json` record).
        name: String = "experiment",
        /// Cores available to the process when it was measured ([`nproc`]).
        nproc: usize,
        /// Wall-clock seconds.
        wall_secs: f64 = "wall (s)" => |s: &f64| format!("{s:.2}"),
        /// Worker count in effect.
        jobs: usize = "jobs",
        /// Simulations completed.
        runs: u64 = "sims",
        /// Wall-clock milliseconds per simulation (`wall ÷ sims`, all
        /// workers combined), so a row of a few large worlds reads as
        /// what one world costs.
        ms_per_sim: f64 = "ms/sim" => |r: &f64| format!("{r:.1}"),
        /// Engine events applied.
        events: u64 = "events",
        /// Engine events per wall-clock second (all workers combined).
        events_per_sec: f64 = "events/s" => |r: &f64| format!("{r:.0}"),
    }
}

/// Run `f` and return its result with the wall time and engine throughput
/// it took (`jobs` is recorded beside them, not applied). Wall-clock data
/// stays out of the result itself: records are pure virtual-time quantities.
pub fn timed<R>(name: &str, jobs: usize, f: impl FnOnce() -> R) -> (R, PerfRecord) {
    let before = viampi_sim::engine_totals();
    let t0 = Instant::now();
    let result = f();
    let wall = t0.elapsed().as_secs_f64();
    let after = viampi_sim::engine_totals();
    let events = after.events - before.events;
    let runs = after.runs - before.runs;
    let record = PerfRecord {
        name: name.to_string(),
        nproc: nproc(),
        wall_secs: wall,
        jobs,
        runs,
        ms_per_sim: if runs > 0 {
            wall * 1e3 / runs as f64
        } else {
            0.0
        },
        events,
        events_per_sec: if wall > 0.0 {
            events as f64 / wall
        } else {
            0.0
        },
    };
    (result, record)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Record;

    fn parse(args: &[&str]) -> (Result<usize, String>, Vec<String>) {
        let mut args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        (jobs_from_args(&mut args), args)
    }

    #[test]
    fn jobs_flag_is_parsed_removed_or_refused() {
        assert_eq!(
            parse(&["--jobs", "3", "fig1"]),
            (Ok(3), vec!["fig1".into()])
        );
        assert_eq!(
            parse(&["--check", "--jobs=0"]),
            (Ok(1), vec!["--check".into()])
        );
        assert_eq!(parse(&["--check"]), (Ok(nproc()), vec!["--check".into()]));
        for bad in [
            &["--jobs", "1x"][..],
            &["--jobs=banana"],
            &["fig1", "--jobs"],
        ] {
            assert!(parse(bad).0.is_err(), "{bad:?} must be refused");
        }
    }

    #[test]
    fn par_map_preserves_order() {
        let out = par_map(4, (0..100).collect::<Vec<usize>>(), |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_serial_matches_parallel() {
        let serial = par_map(1, (0..40).collect::<Vec<u64>>(), |i| i * i + 1);
        let parallel = par_map(7, (0..40).collect::<Vec<u64>>(), |i| i * i + 1);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn par_map_empty_and_singleton() {
        let empty: Vec<u32> = par_map(8, Vec::<u32>::new(), |x| x);
        assert!(empty.is_empty());
        assert_eq!(par_map(8, vec![9u32], |x| x + 1), vec![10]);
    }

    #[test]
    fn timed_records_throughput() {
        let (v, rec) = timed("runner_test_timed", 3, || 42);
        assert_eq!(v, 42);
        assert_eq!((rec.name.as_str(), rec.jobs), ("runner_test_timed", 3));
        assert_eq!(rec.nproc, nproc());
        assert!(rec.nproc >= 1);
        // No simulation ran on this thread's watch: no per-sim figure.
        // (The engine totals are process-wide, so another test's worlds
        // may land in this window; only the arithmetic is checked then.)
        if rec.runs == 0 {
            assert_eq!(rec.ms_per_sim, 0.0);
        }
        let (_, rec) = timed("runner_test_sims", 1, || {
            for _ in 0..2 {
                let mut eng = viampi_via::fabric_engine(viampi_via::DeviceProfile::clan(), 1);
                eng.spawn("p", |_| {});
                eng.run().unwrap();
            }
        });
        assert!(rec.runs >= 2, "the two worlds were counted");
        let want = rec.wall_secs * 1e3 / rec.runs as f64;
        assert!((rec.ms_per_sim - want).abs() <= 1e-9 * want.max(1.0));
        let at = PerfRecord::HEADERS
            .iter()
            .position(|&h| h == "ms/sim")
            .unwrap();
        assert_eq!(rec.cells()[at], format!("{:.1}", rec.ms_per_sim));
    }
}
