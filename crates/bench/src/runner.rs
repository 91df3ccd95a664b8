//! Parallel experiment runner.
//!
//! Every simulation in the harness is an independent, deterministic,
//! single-process job, so experiments fan their configuration grids out
//! over a scoped worker pool. Results are collected by item index, which
//! makes the output order — and therefore every table and JSON record —
//! identical to the serial run regardless of worker count.
//!
//! The worker count comes from, in priority order: [`set_jobs`] (used by
//! `--jobs` parsing and tests), the `VIAMPI_JOBS` environment variable,
//! and the machine's available parallelism.

use crate::report::{results_dir, write_json};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Explicit override (0 = unset). Set once at startup or by tests.
static JOBS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Worker count used by [`par_map`].
pub fn jobs() -> usize {
    let forced = JOBS_OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    if let Some(v) = std::env::var("VIAMPI_JOBS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
    {
        return v.max(1);
    }
    nproc()
}

/// Force the worker count (overrides `VIAMPI_JOBS`); 0 restores defaults.
pub fn set_jobs(n: usize) {
    JOBS_OVERRIDE.store(n, Ordering::Relaxed);
}

/// Parse a `--jobs N` / `--jobs=N` command-line flag (used by every bench
/// binary's `main`). Unrecognized arguments are ignored.
pub fn init_from_args() {
    let args: Vec<String> = std::env::args().collect();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        let parsed = if let Some(v) = a.strip_prefix("--jobs=") {
            v.parse::<usize>().ok()
        } else if a == "--jobs" {
            args.get(i + 1).and_then(|v| v.parse::<usize>().ok())
        } else {
            None
        };
        if let Some(n) = parsed {
            set_jobs(n.max(1));
            return;
        }
        i += 1;
    }
}

/// Map `f` over `items` on a scoped worker pool, returning results in item
/// order. With one worker (or one item) this degenerates to a plain serial
/// loop on the calling thread.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Send + Sync,
{
    let n = items.len();
    let workers = jobs().min(n);
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

/// Resumable sharded execution: run `shards` on the worker pool and hand
/// each result to `commit` **strictly in shard order**, as soon as the
/// contiguous prefix is complete — no barrier between shards, so a slow
/// shard never idles the pool.
///
/// `commit` runs on the calling thread (it may hold mutable campaign
/// state and checkpoint to disk); returning `false` stops the run:
/// workers finish their in-flight shard, later results are discarded, and
/// no further shard commits. Returns the number of shards committed.
///
/// The committed sequence at any worker count is a prefix of the serial
/// one — this is what makes a killed-and-resumed campaign byte-identical
/// to a one-shot run.
pub fn shard_map<T, R, F, C>(shards: Vec<T>, run: F, mut commit: C) -> usize
where
    T: Send + Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
    C: FnMut(usize, R) -> bool,
{
    let n = shards.len();
    if n == 0 {
        return 0;
    }
    let workers = jobs().min(n);
    if workers <= 1 {
        for (i, shard) in shards.iter().enumerate() {
            let r = run(i, shard);
            if !commit(i, r) {
                return i + 1;
            }
        }
        return n;
    }
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let slots: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
    let ready = Condvar::new();
    let mut committed = 0usize;
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = run(i, &shards[i]);
                let mut guard = slots.lock().unwrap_or_else(|e| e.into_inner());
                guard[i] = Some(r);
                drop(guard);
                ready.notify_all();
            });
        }
        // Committer: drain the contiguous prefix in order on this thread.
        for k in 0..n {
            let mut guard = slots.lock().unwrap_or_else(|e| e.into_inner());
            while guard[k].is_none() {
                guard = ready.wait(guard).unwrap_or_else(|e| e.into_inner());
            }
            let r = guard[k].take().expect("checked above");
            drop(guard);
            if !commit(k, r) {
                stop.store(true, Ordering::Relaxed);
                committed = k + 1;
                return;
            }
            committed = k + 1;
        }
    });
    committed
}

/// Cores this machine offers the process — recorded beside every wall-clock
/// number, because a `--jobs 1` wall on a 2-core box and on a 64-core box are
/// the same measurement only if the record says so.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Wall-clock/throughput record for one timed experiment.
#[derive(Debug, Clone)]
pub struct PerfRecord {
    /// Experiment name (matches the `results/<name>.json` record).
    pub name: String,
    /// Cores available to the process when it was measured ([`nproc`]).
    pub nproc: usize,
    /// Wall-clock seconds.
    pub wall_secs: f64,
    /// Worker count in effect.
    pub jobs: usize,
    /// Simulations completed.
    pub runs: u64,
    /// Engine events applied.
    pub events: u64,
    /// Engine events per wall-clock second (all workers combined).
    pub events_per_sec: f64,
}

crate::impl_json!(PerfRecord {
    name,
    nproc,
    wall_secs,
    jobs,
    runs,
    events,
    events_per_sec,
});

static PERF_LOG: Mutex<Vec<PerfRecord>> = Mutex::new(Vec::new());

/// Run `f`, recording wall time and engine throughput under `name`.
///
/// The record goes to the in-process perf log (see [`write_perf`]); the
/// simulation results themselves are pure virtual-time quantities and are
/// unaffected by the measurement.
pub fn timed<R>(name: &str, f: impl FnOnce() -> R) -> R {
    let before = viampi_sim::engine_totals();
    let t0 = Instant::now();
    let result = f();
    let wall = t0.elapsed().as_secs_f64();
    let after = viampi_sim::engine_totals();
    let events = after.events - before.events;
    let record = PerfRecord {
        name: name.to_string(),
        nproc: nproc(),
        wall_secs: wall,
        jobs: jobs(),
        runs: after.runs - before.runs,
        events,
        events_per_sec: if wall > 0.0 {
            events as f64 / wall
        } else {
            0.0
        },
    };
    PERF_LOG
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(record);
    result
}

/// Drain the perf log into `results/<name>.json` and return a printable
/// summary. Wall-clock data lives in its own file so the figure/table
/// records stay byte-identical between machines and worker counts.
pub fn write_perf(name: &str) -> String {
    let records: Vec<PerfRecord> = PERF_LOG
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .drain(..)
        .collect();
    write_json(name, &records);
    let total_wall: f64 = records.iter().map(|r| r.wall_secs).sum();
    let total_events: u64 = records.iter().map(|r| r.events).sum();
    let rows: Vec<Vec<String>> = records
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                format!("{:.2}", r.wall_secs),
                r.jobs.to_string(),
                r.runs.to_string(),
                r.events.to_string(),
                format!("{:.0}", r.events_per_sec),
            ]
        })
        .collect();
    format!(
        "harness wall-clock ({} jobs on {} cores; {} events in {:.1}s):\n\n{}\nperf record: {}",
        jobs(),
        nproc(),
        total_events,
        total_wall,
        crate::report::table(
            &[
                "experiment",
                "wall (s)",
                "jobs",
                "sims",
                "events",
                "events/s"
            ],
            &rows
        ),
        results_dir().join(format!("{name}.json")).display(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        set_jobs(4);
        let out = par_map((0..100).collect::<Vec<usize>>(), |i| i * 3);
        set_jobs(0);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_serial_matches_parallel() {
        set_jobs(1);
        let serial = par_map((0..40).collect::<Vec<u64>>(), |i| i * i + 1);
        set_jobs(7);
        let parallel = par_map((0..40).collect::<Vec<u64>>(), |i| i * i + 1);
        set_jobs(0);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn par_map_empty_and_singleton() {
        set_jobs(8);
        let empty: Vec<u32> = par_map(Vec::<u32>::new(), |x| x);
        assert!(empty.is_empty());
        assert_eq!(par_map(vec![9u32], |x| x + 1), vec![10]);
        set_jobs(0);
    }

    #[test]
    fn shard_map_commits_in_order_at_any_worker_count() {
        for jobs in [1, 4, 7] {
            set_jobs(jobs);
            let mut seen = Vec::new();
            let committed = shard_map(
                (0..20).collect::<Vec<u64>>(),
                |i, &x| (i as u64, x * 2),
                |i, (idx, doubled)| {
                    assert_eq!(i as u64, idx);
                    seen.push(doubled);
                    true
                },
            );
            set_jobs(0);
            assert_eq!(committed, 20);
            assert_eq!(seen, (0..20).map(|x| x * 2).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn shard_map_stop_commits_a_prefix() {
        for jobs in [1, 5] {
            set_jobs(jobs);
            let mut seen = Vec::new();
            let committed = shard_map(
                (0..30).collect::<Vec<u64>>(),
                |_, &x| x,
                |_, x| {
                    seen.push(x);
                    x < 9
                },
            );
            set_jobs(0);
            assert_eq!(committed, 10, "stops after the first false commit");
            assert_eq!(seen, (0..10).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn shard_map_empty() {
        assert_eq!(shard_map(Vec::<u8>::new(), |_, &x| x, |_, _| true), 0);
    }

    #[test]
    fn timed_records_throughput() {
        let v = timed("runner_test_timed", || 42);
        assert_eq!(v, 42);
        let log = PERF_LOG.lock().unwrap_or_else(|e| e.into_inner());
        let rec = log
            .iter()
            .find(|r| r.name == "runner_test_timed")
            .expect("timed() pushed a record");
        assert_eq!(rec.nproc, nproc());
        assert!(rec.nproc >= 1);
    }
}
