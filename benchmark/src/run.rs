//! One run: one workload, one pass. The untraced pass (`--trace 0`)
//! measures the end-to-end metrics with every instrument off; the traced
//! pass (`--trace 1`) takes the probes, the per-unit counts, the spans and
//! the accumulator, and measures its own overhead against untraced units
//! interleaved in the same process.

use crate::catalog::{self, Measured};
use crate::json::Json;
use crate::probes::{self, Probes};
use crate::stats;
use crate::sys;
use crate::trace::SpanLog;
use crate::workloads::{self, Inputs, UnitOut, Workload};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// One timed unit, three set-ups, no warm-up and no static twin: does
    /// everything still run and verify?
    pub smoke: bool,
    /// Where result files go.
    pub out: PathBuf,
}

/// Empty-body worlds timed for `setup_s`: this many before the first
/// unit and `SETUP_REPS_PER_UNIT` more after every timed unit. A world
/// sets up in about a millisecond, and the host has slow spells of a
/// second or two that a single burst can land in; samples spread over the
/// whole window give a median that repeats. The traced pass needs the
/// number only for `setup_us_per_rank`.
const SETUP_REPS: usize = 31;
const SETUP_REPS_PER_UNIT: usize = 16;
const SETUP_REPS_TRACED: usize = 9;
const SETUP_REPS_SMOKE: usize = 3;
/// A median needs a few units whatever the clock says.
const MIN_UNITS: usize = 3;

/// The outcome of a run, ready to print and to write.
pub struct Record {
    pub opts: Options,
    pub nproc: usize,
    pub pinned_cpu: Option<usize>,
    pub scrubbed: Vec<String>,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// The metrics of the pass, in catalogue order.
    pub metrics: Vec<Measured>,
    /// Accumulator-only metrics and other numbers for the table and the
    /// result file that are not part of the one-line result.
    pub extra: Vec<Measured>,
    /// `est_s` rows: (layer, estimate s, share of unit wall covered).
    pub estimates: Vec<(&'static str, f64, f64)>,
    pub spans: Option<SpanLog>,
}

impl Record {
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The one-line result the pipeline reads.
    pub fn result_line(&self) -> String {
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failures.len() as f64)),
            (
                "metrics".into(),
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| (m.name.to_string(), m.to_json(false)))
                        .collect(),
                ),
            ),
        ])
        .render()
    }

    /// The fuller record for `out/`, which `compare` and the suite read.
    pub fn to_json(&self) -> Json {
        let section = |ms: &[Measured]| {
            Json::Obj(
                ms.iter()
                    .map(|m| (m.name.to_string(), m.to_json(true)))
                    .collect(),
            )
        };
        Json::Obj(vec![
            ("workload".into(), Json::str(self.opts.workload.name)),
            ("traced".into(), Json::Bool(self.opts.traced)),
            ("smoke".into(), Json::Bool(self.opts.smoke)),
            ("seed".into(), Json::Num(self.opts.seed as f64)),
            ("seconds".into(), Json::Num(self.opts.seconds)),
            ("nproc".into(), Json::Num(self.nproc as f64)),
            ("pinned".into(), Json::Bool(self.pinned_cpu.is_some())),
            (
                "pinned_cpu".into(),
                Json::opt(self.pinned_cpu.map(|c| c as f64)),
            ),
            (
                "scrubbed_env".into(),
                Json::Arr(self.scrubbed.iter().map(Json::str).collect()),
            ),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failures.len() as f64)),
            (
                "failures".into(),
                Json::Arr(self.failures.iter().map(Json::str).collect()),
            ),
            ("metrics".into(), section(&self.metrics)),
            ("extra".into(), section(&self.extra)),
            (
                "estimates".into(),
                Json::Arr(
                    self.estimates
                        .iter()
                        .map(|&(layer, est_s, covered)| {
                            Json::Obj(vec![
                                ("layer".into(), Json::str(layer)),
                                ("est_s".into(), Json::Num(est_s)),
                                ("share_of_unit_wall".into(), Json::Num(covered)),
                                ("uncovered_share".into(), Json::Num(1.0 - covered)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Every metric by name with its unit. Host timings taken unpinned are
    /// shown as unresolved: this program's default engine is bimodal
    /// unpinned, so such a number says nothing about the code.
    pub fn print_table(&self) {
        println!(
            "== {} ({} pass) seed={} seconds={} nproc={} pinned_cpu={} pinned: {}",
            self.opts.workload.name,
            if self.opts.traced {
                "traced"
            } else {
                "untraced"
            },
            self.opts.seed,
            self.opts.seconds,
            self.nproc,
            self.pinned_cpu.map_or("-".into(), |c| c.to_string()),
            self.pinned_cpu.is_some(),
        );
        println!("   why: {}", self.opts.workload.why);
        if !self.scrubbed.is_empty() {
            println!(
                "   scrubbed from the environment: {}",
                self.scrubbed.join(" ")
            );
        }
        for m in self.metrics.iter().chain(&self.extra) {
            let host = catalog::find(m.name).map(|d| d.kind) != Some(catalog::Kind::Exact);
            let value = match m.value {
                None => "null".to_string(),
                Some(_) if host && self.pinned_cpu.is_none() => "unresolved (unpinned)".into(),
                Some(v) => format!("{v}"),
            };
            let spread = m.spread.map_or(String::new(), |s| {
                format!("   [q1 {} q3 {} n {}]", s.q1, s.q3, s.n)
            });
            println!("{:<36} {:>24} {:<6}{}", m.name, value, m.unit, spread);
        }
        for &(layer, est_s, covered) in &self.estimates {
            println!(
                "   estimate {layer:<12} {est_s:>10.4} s = {:>5.1}% of unit wall, leaves {:>5.1}% uncovered",
                covered * 100.0,
                (1.0 - covered) * 100.0
            );
        }
        for f in &self.failures {
            println!("   FAILED: {f}");
        }
    }

    /// Write `<workload>_<pass>.json` (and the spans) under the out dir.
    pub fn write_files(&self) -> std::io::Result<()> {
        let dir = &self.opts.out;
        std::fs::create_dir_all(dir)?;
        let pass = if self.opts.traced { "layers" } else { "e2e" };
        std::fs::write(
            dir.join(format!("{}_{pass}.json", self.opts.workload.name)),
            self.to_json().pretty(),
        )?;
        if let Some(spans) = &self.spans {
            std::fs::write(
                dir.join(format!("spans_{}.json", self.opts.workload.name)),
                spans.to_json().pretty(),
            )?;
        }
        Ok(())
    }
}

/// Units of one pass, checked as they finish.
#[derive(Default)]
struct Units {
    reference_digest: Option<u64>,
    attempted: u64,
    failures: Vec<String>,
}

impl Units {
    fn run(&mut self, w: &Workload, inp: &Arc<Inputs>, traced: bool) -> UnitOut {
        let unit = workloads::run_unit(w, inp, traced);
        self.attempted += 1;
        let id = self.attempted;
        if let Some(why) = &unit.failure {
            self.failures.push(format!("unit {id}: {why}"));
        } else {
            match self.reference_digest {
                None => self.reference_digest = Some(unit.digest),
                Some(d) if d != unit.digest => self.failures.push(format!(
                    "unit {id}: digest {:016x} differs from the first unit's {d:016x}",
                    unit.digest
                )),
                Some(_) => {}
            }
        }
        unit
    }
}

/// Time `reps` more empty-body worlds into `samples`.
fn sample_setup(
    w: &Workload,
    inp: &Arc<Inputs>,
    reps: usize,
    samples: &mut Vec<f64>,
    failures: &mut Vec<String>,
) {
    for _ in 0..reps {
        match workloads::setup_once(w, inp) {
            Ok(s) => samples.push(s),
            Err(e) => failures.push(format!("set-up {}: {e}", samples.len())),
        }
    }
}

/// Median set-up time; `null` if every set-up failed.
fn setup_metric(samples: &[f64]) -> Measured {
    if samples.is_empty() {
        Measured::new("setup_s", None)
    } else {
        Measured::median_of("setup_s", samples, 1.0)
    }
}

pub fn run(opts: Options) -> Record {
    let scrubbed = sys::scrub_env();
    let nproc = sys::nproc();
    let pinned_cpu = sys::pin_to_last_cpu();
    let w = opts.workload;
    let inp = Inputs::generate(w, opts.seed);
    let mut rec = Record {
        opts,
        nproc,
        pinned_cpu,
        scrubbed,
        attempted: 0,
        failures: Vec::new(),
        metrics: Vec::new(),
        extra: Vec::new(),
        estimates: Vec::new(),
        spans: None,
    };
    if rec.opts.traced {
        traced_pass(w, &inp, &mut rec);
    } else {
        untraced_pass(w, &inp, &mut rec);
    }
    rec
}

fn untraced_pass(w: &Workload, inp: &Arc<Inputs>, rec: &mut Record) {
    let smoke = rec.opts.smoke;
    let mut units = Units::default();
    let mut setup = Vec::new();
    let reps = if smoke { SETUP_REPS_SMOKE } else { SETUP_REPS };
    sample_setup(w, inp, reps, &mut setup, &mut units.failures);

    let twin = if smoke {
        None
    } else {
        match workloads::static_twin_virt_secs(w, inp) {
            Ok(s) => Some(s),
            Err(e) => {
                units.failures.push(format!("static twin: {e}"));
                None
            }
        }
    };
    if !smoke {
        units.run(w, inp, false); // warm-up: sets the reference digest
    }

    let mut walls = Vec::new();
    let window = Instant::now();
    let unit = loop {
        let unit = units.run(w, inp, false);
        walls.push(unit.wall_s());
        if smoke {
            break unit;
        }
        sample_setup(w, inp, SETUP_REPS_PER_UNIT, &mut setup, &mut units.failures);
        if walls.len() >= MIN_UNITS && window.elapsed().as_secs_f64() >= rec.opts.seconds {
            break unit;
        }
    };

    rec.metrics = vec![
        Measured::median_of("unit_wall_ms", &walls, 1e3),
        setup_metric(&setup),
        Measured::new("peak_rss_mb", sys::peak_rss_mb()),
        Measured::new("virt_time_ratio", twin.map(|t| unit.virt_secs / t)),
        Measured::new("vis_per_rank", Some(unit.vis_per_rank)),
    ];
    rec.attempted = units.attempted;
    rec.failures = units.failures;
}

fn traced_pass(w: &Workload, inp: &Arc<Inputs>, rec: &mut Record) {
    let pass_start = Instant::now();
    let mut units = Units::default();
    // Probes first, on a fifth of the window (they are workload-independent).
    let p = probes::run(rec.opts.seed, (rec.opts.seconds * 0.2).min(4.0));
    let mut setup = Vec::new();
    sample_setup(w, inp, SETUP_REPS_TRACED, &mut setup, &mut units.failures);
    units.run(w, inp, false); // warm-up: sets the reference digest

    // Untraced and traced units alternate, so both see the same machine
    // state and their difference is the tracing overhead.
    let mut log = SpanLog::new(pass_start);
    let root = log.push("workload", pass_start, pass_start, None, None);
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let (mut run_s, mut kernel_s, mut inside_s, mut body_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut counted: Option<UnitOut> = None;
    loop {
        plain_walls.push(units.run(w, inp, false).wall_s());
        let unit = units.run(w, inp, true);
        traced_walls.push(unit.wall_s());
        let id = units.attempted;
        let us = log.push("unit", unit.start, unit.end, Some(root), Some(id));
        for ws in &unit.worlds {
            log.push("core.universe.run", ws.start, ws.end, Some(us), Some(id));
        }
        let split = unit.split();
        run_s.push(unit.worlds_s());
        kernel_s.push(split.kernel.as_secs_f64());
        inside_s.push(split.inside.as_secs_f64());
        body_s.push(split.body.as_secs_f64());
        counted.get_or_insert(unit);
        let spent = pass_start.elapsed().as_secs_f64();
        if traced_walls.len() >= MIN_UNITS && spent >= rec.opts.seconds {
            break;
        }
    }
    log.close(root, Instant::now());

    let wall = stats::summarize(&plain_walls);
    let pass = Pass {
        unit: counted.expect("the loop ran at least once"),
        wall,
        setup_s: setup_metric(&setup).value,
        run_s: stats::median(&run_s),
        kernel_s: stats::median(&kernel_s),
        verified: units.failures.is_empty(),
        units: units.attempted,
        spans: log.len(),
        overhead_pct: (stats::median(&traced_walls) - wall.median) / wall.median * 100.0,
    };
    (rec.metrics, rec.estimates) = layer_metrics(w, &p, &pass);

    // The accumulator only splits a body the benchmark authored.
    let authored = w.authored_bodies();
    rec.extra = vec![
        Measured::new(
            "core.mpi.inside_s",
            authored.then(|| stats::median(&inside_s)),
        ),
        Measured::new("npb.body_s", authored.then(|| stats::median(&body_s))),
    ];
    rec.spans = Some(log);
    rec.attempted = units.attempted;
    rec.failures = units.failures;
}

/// What the traced pass measured beside the probes.
struct Pass {
    /// The unit whose counts are reported (they repeat exactly, or the
    /// digest check fails the later unit).
    unit: UnitOut,
    /// Untraced unit wall, seconds.
    wall: stats::Summary,
    setup_s: Option<f64>,
    run_s: f64,
    kernel_s: f64,
    verified: bool,
    units: u64,
    spans: usize,
    overhead_pct: f64,
}

/// Every per-layer metric in catalogue order — a unit's counts, the
/// probes, the two multiplied, and the pass's spans — plus the `est_s`
/// rows as (layer, estimate, share of unit wall it covers).
fn layer_metrics(
    w: &Workload,
    p: &Probes,
    pass: &Pass,
) -> (Vec<Measured>, Vec<(&'static str, f64, f64)>) {
    let (unit, wall) = (&pass.unit, pass.wall);
    let count = |name: &str| unit.counters.get(name).copied().flatten().map(|v| v as f64);
    let events = unit.events as f64;
    let handoffs = count("sim.engine.handoffs");
    let (hits, misses) = (count("sim.pool.hits"), count("sim.pool.misses"));
    let times = |a: Option<f64>, b: f64| a.map(|a| a * b);

    let engine_est = times(count("sim.engine.switches"), p.engine_switch_ns * 1e-9);
    let queue_est = times(count("sim.queue.pushes"), p.queue_push_pop_ns * 1e-9);
    let pool_est = times(
        count("via.nic.bytes_tx"),
        p.pool_copy_ns_per_kib * 1e-9 / 1024.0,
    );
    let via_est = times(count("via.nic.msgs_tx"), p.via_self_us_per_msg * 1e-6);
    let core_self_us = p.mpi_msg_host_us - p.via_msg_host_us;
    let core_est = times(count("core.device.sends"), core_self_us * 1e-6);
    let estimates = [
        ("sim.engine", engine_est),
        ("sim.queue", queue_est),
        ("sim.pool", pool_est),
        ("via", via_est),
        ("core", core_est),
    ];
    let covered: Option<f64> = estimates.iter().map(|e| e.1).sum();

    let metrics = catalog::PER_LAYER
        .iter()
        .map(|def| {
            let value = match def.name {
                "sim.engine.events_per_s" => Some(events / wall.median),
                "sim.engine.ns_per_event" => Some(wall.median * 1e9 / events),
                "sim.engine.handoffs_per_event" => handoffs.map(|h| h / events),
                "sim.engine.switch_ns" => Some(p.engine_switch_ns),
                "sim.engine.advance_ns" => Some(p.engine_advance_ns),
                "sim.engine.spawn_us_per_proc" => Some(p.engine_spawn_us_per_proc),
                "sim.engine.est_s" => engine_est,
                "sim.queue.push_pop_ns" => Some(p.queue_push_pop_ns),
                "sim.queue.est_s" => queue_est,
                "sim.pool.miss_ratio" => match (hits, misses) {
                    (Some(h), Some(m)) if h + m > 0.0 => Some(m / (h + m)),
                    _ => None,
                },
                "sim.pool.copy_ns_per_kib" => Some(p.pool_copy_ns_per_kib),
                "sim.pool.alloc_small_ns" => Some(p.pool_alloc_small_ns),
                "sim.pool.est_s" => pool_est,
                "via.port.msg_host_us" => Some(p.via_msg_host_us),
                "via.port.connect_host_us" => Some(p.via_connect_host_us),
                "via.self_us_per_msg" => Some(p.via_self_us_per_msg),
                "via.est_s" => via_est,
                "core.mpi.msg_host_us" => Some(p.mpi_msg_host_us),
                "core.mpi.rndv_ns_per_kib" => Some(p.mpi_rndv_ns_per_kib),
                "core.matching.post_match_ns" => Some(p.matching_post_match_ns),
                "core.matching.unexpected_scan_ns" => Some(p.matching_unexpected_scan_ns),
                "core.device.self_us_per_msg" => Some(core_self_us),
                "core.universe.setup_us_per_rank" => pass.setup_s.map(|s| s * 1e6 / w.np as f64),
                "core.universe.run_s" => Some(pass.run_s),
                "core.universe.virt_init_us" => Some(unit.virt_init_us),
                "core.est_s" => core_est,
                "npb.kernel_s" => Some(pass.kernel_s),
                "npb.unattributed_s" => covered.map(|c| wall.median - c),
                "npb.verified" => Some(if pass.verified { 1.0 } else { 0.0 }),
                "bench.units" => Some(pass.units as f64),
                "bench.unit_wall_iqr_pct" => Some(wall.iqr_share() * 100.0),
                "trace.spans" => Some(pass.spans as f64),
                "trace.overhead_pct" => Some(pass.overhead_pct),
                counter => count(counter),
            };
            Measured::new(def.name, value)
        })
        .collect();
    let rows = estimates
        .into_iter()
        .filter_map(|(layer, est)| est.map(|e| (layer, e, e / wall.median)))
        .collect();
    (metrics, rows)
}
