//! The metric catalogue: every metric the benchmark reports, with its
//! unit, direction, bound and layer. `BENCHMARK.json` at the repo root
//! carries the same names, units, directions and bounds (a test here holds
//! the two together); README.md explains each entry.

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Whether a metric is host time or memory (noisy, compared within its
/// bound) or a modelled quantity or count (repeats exactly, compared
/// with `==`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Host,
    Exact,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
    /// Share of the baseline's median by which the metric may worsen
    /// before it is a regression. End-to-end metrics only.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, kind: Kind, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        kind,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, kind: Kind) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        kind,
        bound: None,
    }
}

/// What a user of the simulator sees, per workload. The host bounds are
/// what this sandbox allows, not what one would like: machine-level slow
/// spells of tens of seconds move every workload's wall time by 5–10%
/// between runs of one binary (README.md, "How steady it is").
pub const END_TO_END: &[MetricDef] = &[
    e2e("unit_wall_ms", "ms", Kind::Host, 0.25),
    e2e("setup_s", "s", Kind::Host, 0.25),
    e2e("peak_rss_mb", "MB", Kind::Host, 0.20),
    e2e("virt_time_ratio", "ratio", Kind::Exact, 0.01),
    e2e("vis_per_rank", "count", Kind::Exact, 0.01),
];

use Better::{Higher, Lower};
use Kind::{Exact, Host};

/// Single-layer metrics defined on every workload: the traced run's
/// one-line result carries exactly these.
pub const PER_LAYER: &[MetricDef] = &[
    // sim.engine
    layer("sim.engine.events_per_s", "1/s", Higher, Host),
    layer("sim.engine.ns_per_event", "ns", Lower, Host),
    layer("sim.engine.handoffs", "count", Lower, Exact),
    layer("sim.engine.handoffs_per_event", "ratio", Lower, Exact),
    layer("sim.engine.switches", "count", Lower, Exact),
    layer("sim.engine.switch_ns", "ns", Lower, Host),
    layer("sim.engine.advance_ns", "ns", Lower, Host),
    layer("sim.engine.spawn_us_per_proc", "us", Lower, Host),
    layer("sim.engine.est_s", "s", Lower, Host),
    // sim.queue
    layer("sim.queue.pushes", "count", Lower, Exact),
    layer("sim.queue.peak", "count", Lower, Exact),
    layer("sim.queue.cascades", "count", Lower, Exact),
    layer("sim.queue.push_pop_ns", "ns", Lower, Host),
    layer("sim.queue.est_s", "s", Lower, Host),
    // sim.pool
    layer("sim.pool.hits", "count", Higher, Exact),
    layer("sim.pool.misses", "count", Lower, Exact),
    layer("sim.pool.miss_ratio", "ratio", Lower, Exact),
    layer("sim.pool.live_peak", "count", Lower, Exact),
    layer("sim.pool.copy_ns_per_kib", "ns", Lower, Host),
    layer("sim.pool.alloc_small_ns", "ns", Lower, Host),
    layer("sim.pool.est_s", "s", Lower, Host),
    // via
    layer("via.nic.msgs_tx", "count", Lower, Exact),
    layer("via.nic.bytes_tx", "count", Lower, Exact),
    layer("via.nic.vis_created", "count", Lower, Exact),
    layer("via.nic.conn_requests", "count", Lower, Exact),
    layer("via.nic.conns_established", "count", Lower, Exact),
    layer("via.nic.drops", "count", Lower, Exact),
    layer("via.port.msg_host_us", "us", Lower, Host),
    layer("via.port.connect_host_us", "us", Lower, Host),
    layer("via.self_us_per_msg", "us", Lower, Host),
    layer("via.est_s", "s", Lower, Host),
    // core
    layer("core.device.sends", "count", Lower, Exact),
    layer("core.device.eager_sent", "count", Lower, Exact),
    layer("core.device.rndv_sent", "count", Lower, Exact),
    layer("core.device.credit_msgs", "count", Lower, Exact),
    layer("core.device.unexpected_msgs", "count", Lower, Exact),
    layer("core.device.fifo_deferred_sends", "count", Lower, Exact),
    layer("core.device.collectives", "count", Lower, Exact),
    layer("core.mpi.msg_host_us", "us", Lower, Host),
    layer("core.mpi.rndv_ns_per_kib", "ns", Lower, Host),
    layer("core.matching.post_match_ns", "ns", Lower, Host),
    layer("core.matching.unexpected_scan_ns", "ns", Lower, Host),
    layer("core.device.self_us_per_msg", "us", Lower, Host),
    layer("core.universe.setup_us_per_rank", "us", Lower, Host),
    layer("core.universe.run_s", "s", Lower, Host),
    layer("core.universe.virt_init_us", "us", Lower, Exact),
    layer("core.est_s", "s", Lower, Host),
    // npb
    layer("npb.kernel_s", "s", Lower, Host),
    layer("npb.unattributed_s", "s", Lower, Host),
    layer("npb.verified", "count", Higher, Exact),
    // the benchmark itself: noise and overhead accounting
    layer("bench.units", "count", Higher, Host),
    layer("bench.unit_wall_iqr_pct", "%", Lower, Host),
    layer("trace.spans", "count", Lower, Host),
    layer("trace.overhead_pct", "%", Lower, Host),
];

/// The boundary accumulator's two sides. Only a body the benchmark
/// authored can be split (`coll16`, `conn128`); on the NPB workloads these
/// are `null`, so they live in the benchmark's own table and result files,
/// not in the one-line result.
pub const ACCUMULATOR_ONLY: &[MetricDef] = &[
    layer("core.mpi.inside_s", "s", Lower, Host),
    layer("npb.body_s", "s", Lower, Host),
];

pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .chain(ACCUMULATOR_ONLY)
        .find(|m| m.name == name)
}

/// One measured metric: its value (`None`: not measured here, printed as
/// `null`, never as 0) and, for a median over samples, the samples in the
/// order taken and their quartiles.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: Option<f64>,
    pub spread: Option<crate::stats::Summary>,
    pub samples: Vec<f64>,
}

impl Measured {
    pub fn new(name: &'static str, value: Option<f64>) -> Self {
        let def = find(name).unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        Measured {
            name,
            unit: def.unit,
            value,
            spread: None,
            samples: Vec::new(),
        }
    }

    /// A metric reported as the median of a sample.
    pub fn median_of(name: &'static str, samples: &[f64], scale: f64) -> Self {
        let scaled: Vec<f64> = samples.iter().map(|s| s * scale).collect();
        let s = crate::stats::summarize(&scaled);
        Measured {
            spread: Some(s),
            samples: scaled,
            ..Measured::new(name, Some(s.median))
        }
    }

    /// `{"value": …, "unit": …}` plus quartiles when there are any.
    pub fn to_json(&self, with_spread: bool) -> Json {
        let mut kv = vec![
            ("value".to_string(), Json::opt(self.value)),
            ("unit".to_string(), Json::str(self.unit)),
        ];
        if let (true, Some(s)) = (with_spread, self.spread) {
            kv.push(("q1".into(), Json::Num(s.q1)));
            kv.push(("q3".into(), Json::Num(s.q3)));
            kv.push(("n".into(), Json::Num(s.n as f64)));
            let samples = self.samples.iter().map(|&v| Json::Num(v)).collect();
            kv.push(("samples".into(), Json::Arr(samples)));
        }
        Json::Obj(kv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn check_section(section: &Json, defs: &[MetricDef], bounded: bool) {
        assert_eq!(section.items().len(), defs.len());
        for (got, def) in section.items().iter().zip(defs) {
            assert_eq!(got.get("name").and_then(Json::as_str), Some(def.name));
            assert_eq!(
                got.get("unit").and_then(Json::as_str),
                Some(def.unit),
                "{}",
                def.name
            );
            assert_eq!(
                got.get("better").and_then(Json::as_str),
                Some(def.better.name()),
                "{}",
                def.name
            );
            assert_eq!(
                got.get("bound").and_then(Json::as_f64),
                def.bound,
                "{}",
                def.name
            );
            assert_eq!(got.entries().len(), if bounded { 4 } else { 3 });
        }
    }

    #[test]
    fn benchmark_json_agrees_with_the_catalogue() {
        let m = manifest();
        check_section(m.get("end_to_end").unwrap(), END_TO_END, true);
        check_section(m.get("per_layer").unwrap(), PER_LAYER, false);
        let names: Vec<&str> = m
            .get("workloads")
            .unwrap()
            .items()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = crate::workloads::ALL.iter().map(|w| w.name).collect();
        assert_eq!(names, ours);
        let keys: Vec<&str> = m.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }

    #[test]
    fn names_and_units_fit_the_pipeline_s_limits() {
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER).chain(ACCUMULATOR_ONLY) {
            assert!(ok(m.name, "_.-", 64), "{}", m.name);
            assert!(m.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(ok(m.unit, "_/%.-", 16), "{}: {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} twice", m.name);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().all(|m| m.bound.unwrap() <= 0.25));
    }
}
