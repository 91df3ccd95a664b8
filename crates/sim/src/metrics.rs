//! Cross-layer metrics registry.
//!
//! Every layer of the stack (engine, fabric/NIC, MPI device) publishes its
//! counters into a [`Registry`]: a statically registered, index-addressed
//! store of typed metrics — monotone counters, point-in-time gauges and
//! log₂-bucket histograms. Registration is static: a layer declares its
//! metric set once with [`metric_defs!`](crate::metric_defs), which yields
//! typed handles ([`CounterId`]/[`GaugeId`]/[`HistId`]) and the definition
//! tables a registry is built from, so every update is a bounds-checked
//! vector index — no hashing, no locks, no allocation on the update path.
//!
//! Everything is virtual-time aware by construction: values are only ever
//! driven by simulation activity, so a [`MetricsSnapshot`] is as
//! deterministic as the run that produced it — identical across repeat
//! runs, worker counts, and the engine's fast-path setting.
//!
//! Snapshots from different layers (and different ranks) compose: each
//! entry carries its cross-registry merge rule ([`MergeOp`]), so per-rank
//! snapshots fold into the flat per-run snapshot exposed by the `core`
//! crate's `RunReport`.

use std::borrow::Cow;

/// Static description of one metric, produced by [`metric_defs!`](crate::metric_defs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Dotted metric name (`layer.metric`), unique within its registry.
    pub name: &'static str,
    /// One-line human description.
    pub help: &'static str,
}

/// Typed handle of a registered counter (index into the counter table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(u32);

/// Typed handle of a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(u32);

/// Typed handle of a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistId(u32);

impl CounterId {
    /// Handle for the counter registered at `idx` (use via
    /// [`metric_defs!`](crate::metric_defs)).
    pub const fn new(idx: u32) -> Self {
        CounterId(idx)
    }
}

impl GaugeId {
    /// Handle for the gauge registered at `idx` (use via
    /// [`metric_defs!`](crate::metric_defs)).
    pub const fn new(idx: u32) -> Self {
        GaugeId(idx)
    }
}

impl HistId {
    /// Handle for the histogram registered at `idx` (use via
    /// [`metric_defs!`](crate::metric_defs)).
    pub const fn new(idx: u32) -> Self {
        HistId(idx)
    }
}

/// Declare a metric set: generates one typed handle constant per metric
/// plus `COUNTER_DEFS` / `GAUGE_DEFS` / `HIST_DEFS` tables in registration
/// order and a `registry()` constructor. Invoke inside a dedicated module:
///
/// ```
/// pub mod my_metrics {
///     viampi_sim::metric_defs! {
///         counters { HITS => "demo.hits": "Times the demo path ran" }
///         gauges { DEPTH => "demo.depth": "Current queue depth" }
///         hists { BYTES => "demo.bytes": "Payload size distribution" }
///     }
/// }
/// let mut reg = my_metrics::registry();
/// reg.inc(my_metrics::HITS);
/// assert_eq!(reg.counter(my_metrics::HITS), 1);
/// ```
#[macro_export]
macro_rules! metric_defs {
    (
        counters { $($cid:ident => $cname:literal : $chelp:literal),* $(,)? }
        gauges { $($gid:ident => $gname:literal : $ghelp:literal),* $(,)? }
        hists { $($hid:ident => $hname:literal : $hhelp:literal),* $(,)? }
    ) => {
        #[allow(non_camel_case_types, dead_code, clippy::upper_case_acronyms)]
        enum __CounterIdx { $($cid),* }
        #[allow(non_camel_case_types, dead_code, clippy::upper_case_acronyms)]
        enum __GaugeIdx { $($gid),* }
        #[allow(non_camel_case_types, dead_code, clippy::upper_case_acronyms)]
        enum __HistIdx { $($hid),* }

        $(
            #[doc = $chelp]
            pub const $cid: $crate::metrics::CounterId =
                $crate::metrics::CounterId::new(__CounterIdx::$cid as u32);
        )*
        $(
            #[doc = $ghelp]
            pub const $gid: $crate::metrics::GaugeId =
                $crate::metrics::GaugeId::new(__GaugeIdx::$gid as u32);
        )*
        $(
            #[doc = $hhelp]
            pub const $hid: $crate::metrics::HistId =
                $crate::metrics::HistId::new(__HistIdx::$hid as u32);
        )*

        /// Counter definitions, in registration order.
        pub const COUNTER_DEFS: &[$crate::metrics::MetricDef] = &[
            $($crate::metrics::MetricDef { name: $cname, help: $chelp }),*
        ];
        /// Gauge definitions, in registration order.
        pub const GAUGE_DEFS: &[$crate::metrics::MetricDef] = &[
            $($crate::metrics::MetricDef { name: $gname, help: $ghelp }),*
        ];
        /// Histogram definitions, in registration order.
        pub const HIST_DEFS: &[$crate::metrics::MetricDef] = &[
            $($crate::metrics::MetricDef { name: $hname, help: $hhelp }),*
        ];

        /// A fresh registry over this metric set.
        pub fn registry() -> $crate::metrics::Registry {
            $crate::metrics::Registry::new(COUNTER_DEFS, GAUGE_DEFS, HIST_DEFS)
        }
    };
}

/// The engine's own metric set (`crates/sim` publishes here at the end of
/// every run; see `Outcome::metrics`). Every entry is a pure function of
/// the simulated configuration.
pub mod engine {
    crate::metric_defs! {
        counters {
            HANDOFFS => "sim.handoffs": "Scheduler token grants, including fast-path self-resumes",
            EVENTS => "sim.events": "World events processed",
            FAST_RESUMES => "sim.fast_resumes": "Token passes short-circuited by the self-resume fast path",
            EVENTS_SCHEDULED => "sim.events_scheduled": "Events ever pushed on the event queue",
            DIRECT_HANDOFFS => "sim.direct.handoffs": "Token grants that switched straight from the yielding process's fiber to the next one",
            DIRECT_SELF => "sim.direct.self_resumes": "Inline decisions that returned the token to the caller after event processing",
            WORLD_ACCESSES => "sim.world_accesses": "with_world and block_on entries: the scheduling points a process's world accesses make",
            WHEEL_CASCADES => "sim.wheel.cascades": "Always 0: the event queue is a binary heap and never cascades; the name stays because the frozen repo benchmark reads it as sim.queue.cascades",
        }
        gauges {
            READY_PEAK => "sim.ready_peak": "Peak ready-heap depth",
            QUEUE_PEAK => "sim.queue_peak": "Peak event-queue occupancy",
        }
        hists {}
    }
}

/// The per-thread fiber stack pool's metric set (see
/// [`crate::stack_pool_metrics`]). These describe a *thread's* history —
/// which run maps a stack and which reuses it depends on what ran before —
/// so they are never merged into a run's deterministic snapshot.
pub mod fiber {
    crate::metric_defs! {
        counters {
            STACKS_MAPPED => "sim.fiber.stacks_mapped": "Fiber stacks mmap'd by this thread",
            STACKS_REUSED => "sim.fiber.stacks_reused": "Fiber starts served from this thread's free list",
        }
        gauges {
            STACKS_LIVE => "sim.fiber.stacks_live": "Stacks currently checked out by fiber sets on this thread",
            POOL_FREE => "sim.fiber.pool_free": "Stacks on this thread's free list (bounded by STACK_POOL_CAP)",
        }
        hists {}
    }
}

/// Counters of the simcheck campaign engine (seed sweeps, coverage-directed
/// exploration, violation shrinking). Summed across shards into the campaign
/// summary JSON.
pub mod campaign {
    crate::metric_defs! {
        counters {
            SEEDS_RUN => "sim.campaign.seeds_run": "Scenario keys executed (roots, children and shrink probes)",
            COVERAGE_SIGNATURES => "sim.campaign.coverage_signatures": "Distinct coverage signatures in the cumulative map",
            DERIVED_SEEDS => "sim.campaign.derived_seeds": "Child keys spawned from rare-signature hits",
            SHRINK_STEPS => "sim.campaign.shrink_steps": "Shrink candidate runs attempted while minimizing violations",
            VIOLATIONS => "sim.campaign.violations": "Violating scenario keys found (pre-shrink)",
        }
        gauges {}
        hists {}
    }
}

/// One log₂-bucket histogram: `buckets[i]` counts observations whose value
/// has `i` significant bits (bucket 0 holds zeros).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hist {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
    /// Log₂ buckets (65 covers the full `u64` range).
    pub buckets: [u64; 65],
}

impl Hist {
    fn new() -> Self {
        Hist {
            count: 0,
            sum: 0,
            max: 0,
            buckets: [0; 65],
        }
    }

    #[inline]
    fn observe(&mut self, v: u64) {
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
        self.buckets[(64 - v.leading_zeros()) as usize] += 1;
    }
}

/// An index-addressed store of one layer's metrics.
///
/// Built from the static definition tables of a
/// [`metric_defs!`](crate::metric_defs) set; updates go through the typed
/// handles the same macro produced.
#[derive(Debug, Clone)]
pub struct Registry {
    counter_defs: &'static [MetricDef],
    gauge_defs: &'static [MetricDef],
    hist_defs: &'static [MetricDef],
    counters: Vec<u64>,
    gauges: Vec<u64>,
    hists: Vec<Hist>,
}

impl Registry {
    /// A registry with one slot per definition, all zero.
    pub fn new(
        counter_defs: &'static [MetricDef],
        gauge_defs: &'static [MetricDef],
        hist_defs: &'static [MetricDef],
    ) -> Self {
        Registry {
            counter_defs,
            gauge_defs,
            hist_defs,
            counters: vec![0; counter_defs.len()],
            gauges: vec![0; gauge_defs.len()],
            hists: hist_defs.iter().map(|_| Hist::new()).collect(),
        }
    }

    /// Increment a counter by one.
    #[inline]
    pub fn inc(&mut self, c: CounterId) {
        self.add(c, 1);
    }

    /// Increment a counter by `n`.
    #[inline]
    pub fn add(&mut self, c: CounterId, n: u64) {
        self.counters[c.0 as usize] += n;
    }

    /// Current counter value.
    #[inline]
    pub fn counter(&self, c: CounterId) -> u64 {
        self.counters[c.0 as usize]
    }

    /// Set a gauge to `v`.
    #[inline]
    pub fn gauge_set(&mut self, g: GaugeId, v: u64) {
        self.gauges[g.0 as usize] = v;
    }

    /// Add `n` to a gauge.
    #[inline]
    pub fn gauge_add(&mut self, g: GaugeId, n: u64) {
        self.gauges[g.0 as usize] += n;
    }

    /// Subtract `n` from a gauge.
    #[inline]
    pub fn gauge_sub(&mut self, g: GaugeId, n: u64) {
        self.gauges[g.0 as usize] -= n;
    }

    /// Raise a gauge to `v` if `v` is larger (high-water marks).
    #[inline]
    pub fn gauge_max(&mut self, g: GaugeId, v: u64) {
        let slot = &mut self.gauges[g.0 as usize];
        if v > *slot {
            *slot = v;
        }
    }

    /// Current gauge value.
    #[inline]
    pub fn gauge(&self, g: GaugeId) -> u64 {
        self.gauges[g.0 as usize]
    }

    /// Record one observation in a histogram.
    #[inline]
    pub fn observe(&mut self, h: HistId, v: u64) {
        self.hists[h.0 as usize].observe(v);
    }

    /// The histogram behind a handle.
    pub fn hist(&self, h: HistId) -> &Hist {
        &self.hists[h.0 as usize]
    }

    /// Flatten the registry into a snapshot, in registration order.
    /// Counters merge by sum; gauges (high-water marks and point-in-time
    /// values) merge by max; a histogram flattens to `_count`/`_sum`
    /// (summed) and `_max` (maxed) entries.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut entries =
            Vec::with_capacity(self.counters.len() + self.gauges.len() + 3 * self.hists.len());
        for (def, &v) in self.counter_defs.iter().zip(&self.counters) {
            entries.push(MetricEntry::add(def.name, v));
        }
        for (def, &v) in self.gauge_defs.iter().zip(&self.gauges) {
            entries.push(MetricEntry::max(def.name, v));
        }
        for (def, h) in self.hist_defs.iter().zip(&self.hists) {
            entries.push(MetricEntry::add(format!("{}_count", def.name), h.count));
            entries.push(MetricEntry::add(format!("{}_sum", def.name), h.sum));
            entries.push(MetricEntry::max(format!("{}_max", def.name), h.max));
        }
        MetricsSnapshot { entries }
    }
}

/// How an entry combines with the same-named entry of another snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeOp {
    /// Sum the values (monotone counters).
    Add,
    /// Keep the larger value (gauges, high-water marks).
    Max,
}

/// One flattened metric value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricEntry {
    /// Dotted metric name: borrowed from the definition table for counters
    /// and gauges, so a snapshot allocates only for histogram suffixes.
    pub name: Cow<'static, str>,
    /// Cross-snapshot merge rule.
    pub op: MergeOp,
    /// The value.
    pub value: u64,
}

impl MetricEntry {
    /// A sum-merged entry (counter semantics).
    pub fn add(name: impl Into<Cow<'static, str>>, value: u64) -> Self {
        MetricEntry {
            name: name.into(),
            op: MergeOp::Add,
            value,
        }
    }

    /// A max-merged entry (gauge semantics).
    pub fn max(name: impl Into<Cow<'static, str>>, value: u64) -> Self {
        MetricEntry {
            name: name.into(),
            op: MergeOp::Max,
            value,
        }
    }
}

/// A flat, ordered collection of metric values — the exportable form of
/// one or many [`Registry`]s. Entry order is registration order and is
/// stable across runs, so [`MetricsSnapshot::render`] output is
/// byte-comparable between runs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// The entries, in registration/merge order.
    pub entries: Vec<MetricEntry>,
}

impl MetricsSnapshot {
    /// Fold `other` into `self`: same-named entries combine under their
    /// [`MergeOp`]; names new to `self` are appended in `other`'s order.
    ///
    /// Snapshots of one registry list the same names in the same order, so
    /// each entry is first looked for right after the previous match and
    /// only searched for by name when it is not there: folding a world's
    /// ranks together costs one comparison per entry, not one scan.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        let mut next = 0;
        for e in &other.entries {
            let at = match self.entries.get(next) {
                Some(m) if m.name == e.name => Some(next),
                _ => self.entries.iter().position(|m| m.name == e.name),
            };
            match at {
                Some(i) => {
                    let m = &mut self.entries[i];
                    match m.op {
                        MergeOp::Add => m.value += e.value,
                        MergeOp::Max => m.value = m.value.max(e.value),
                    }
                    next = i + 1;
                }
                None => {
                    self.entries.push(e.clone());
                    next = self.entries.len();
                }
            }
        }
    }

    /// Value of the named entry, if present.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.entries
            .iter()
            .find(|e| e.name == name)
            .map(|e| e.value)
    }

    /// Deterministic text rendering: one `name value` line per entry, in
    /// snapshot order (byte-identical for equal snapshots).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let width = self.entries.iter().map(|e| e.name.len()).max().unwrap_or(0);
        let mut out = String::new();
        for e in &self.entries {
            let _ = writeln!(out, "{:<width$}  {}", e.name, e.value);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    mod demo {
        crate::metric_defs! {
            counters {
                HITS => "demo.hits": "Times something happened",
                BYTES => "demo.bytes": "Bytes moved",
            }
            gauges {
                DEPTH => "demo.depth": "Current depth",
                PEAK => "demo.peak": "Peak depth",
            }
            hists {
                SIZE => "demo.size": "Size distribution",
            }
        }
    }

    #[test]
    fn register_increment_snapshot() {
        let mut r = demo::registry();
        r.inc(demo::HITS);
        r.inc(demo::HITS);
        r.add(demo::BYTES, 100);
        r.gauge_add(demo::DEPTH, 3);
        r.gauge_sub(demo::DEPTH, 1);
        r.gauge_max(demo::PEAK, 3);
        r.gauge_max(demo::PEAK, 2);
        r.observe(demo::SIZE, 0);
        r.observe(demo::SIZE, 9);
        assert_eq!(r.counter(demo::HITS), 2);
        assert_eq!(r.counter(demo::BYTES), 100);
        assert_eq!(r.gauge(demo::DEPTH), 2);
        assert_eq!(r.gauge(demo::PEAK), 3);
        let h = r.hist(demo::SIZE);
        assert_eq!((h.count, h.sum, h.max), (2, 9, 9));
        assert_eq!(h.buckets[0], 1, "zero lands in bucket 0");
        assert_eq!(h.buckets[4], 1, "9 has 4 significant bits");

        let s = r.snapshot();
        assert_eq!(s.get("demo.hits"), Some(2));
        assert_eq!(s.get("demo.bytes"), Some(100));
        assert_eq!(s.get("demo.depth"), Some(2));
        assert_eq!(s.get("demo.peak"), Some(3));
        assert_eq!(s.get("demo.size_count"), Some(2));
        assert_eq!(s.get("demo.size_sum"), Some(9));
        assert_eq!(s.get("demo.size_max"), Some(9));
        assert_eq!(s.get("demo.missing"), None);
    }

    #[test]
    fn handles_index_their_registration_order() {
        assert_eq!(demo::COUNTER_DEFS.len(), 2);
        assert_eq!(demo::COUNTER_DEFS[0].name, "demo.hits");
        assert_eq!(demo::COUNTER_DEFS[1].name, "demo.bytes");
        assert_eq!(demo::GAUGE_DEFS[1].name, "demo.peak");
        assert_eq!(demo::HIST_DEFS[0].name, "demo.size");
    }

    #[test]
    fn merge_sums_counters_and_maxes_gauges() {
        let snap = |hits: u64, peak: u64| {
            let mut r = demo::registry();
            r.add(demo::HITS, hits);
            r.gauge_max(demo::PEAK, peak);
            r.snapshot()
        };
        let mut a = snap(3, 10);
        let b = snap(4, 7);
        a.merge(&b);
        assert_eq!(a.get("demo.hits"), Some(7));
        assert_eq!(a.get("demo.peak"), Some(10));
        // Foreign names append in the other snapshot's order.
        let mut c = a.clone();
        c.merge(&MetricsSnapshot {
            entries: vec![MetricEntry::add("other.thing", 1)],
        });
        assert_eq!(c.get("other.thing"), Some(1));
        assert_eq!(c.entries.last().unwrap().name, "other.thing");
    }

    /// The merge as it was before the positional shortcut: every entry
    /// found by name.
    fn merge_by_lookup(into: &mut MetricsSnapshot, other: &MetricsSnapshot) {
        for e in &other.entries {
            match into.entries.iter_mut().find(|m| m.name == e.name) {
                Some(m) => match m.op {
                    MergeOp::Add => m.value += e.value,
                    MergeOp::Max => m.value = m.value.max(e.value),
                },
                None => into.entries.push(e.clone()),
            }
        }
    }

    #[test]
    fn positional_merge_equals_the_lookup_merge() {
        let full = |seed: u64| {
            let mut r = demo::registry();
            r.add(demo::HITS, seed);
            r.add(demo::BYTES, 10 * seed);
            r.gauge_set(demo::DEPTH, 7 - seed.min(7));
            r.gauge_max(demo::PEAK, seed * seed);
            r.observe(demo::SIZE, seed);
            r.snapshot()
        };
        let identical = full(3);
        let mut shuffled = full(4);
        shuffled.entries.reverse();
        shuffled.entries.swap(1, 4);
        let mut partial = full(5);
        partial
            .entries
            .retain(|e| e.name.contains("size") || e.name == "demo.bytes");
        // A foreign prefix, as the engine's `sim.*` entries are to a rank's
        // `mpi.*`/`nic.*` ones, and foreign names in the middle.
        let mut prefixed = MetricsSnapshot {
            entries: vec![MetricEntry::add("sim.a", 1), MetricEntry::max("sim.b", 2)],
        };
        prefixed.entries.extend(full(1).entries);
        let mut interleaved = full(6);
        interleaved
            .entries
            .insert(2, MetricEntry::add("other.x", 9));
        interleaved.entries.push(MetricEntry::max("other.y", 1));

        let others = [&identical, &shuffled, &partial, &prefixed, &interleaved];
        for base in [&full(2), &prefixed, &partial, &MetricsSnapshot::default()] {
            for other in others {
                let (mut fast, mut slow) = (base.clone(), base.clone());
                // Twice: the second fold sees the names the first appended.
                for _ in 0..2 {
                    fast.merge(other);
                    merge_by_lookup(&mut slow, other);
                    assert_eq!(fast, slow);
                    assert_eq!(fast.render(), slow.render());
                }
            }
        }
    }

    #[test]
    fn render_is_deterministic_and_ordered() {
        let mut r = demo::registry();
        r.inc(demo::HITS);
        let a = r.snapshot().render();
        let b = r.snapshot().render();
        assert_eq!(a, b);
        let lines: Vec<&str> = a.lines().collect();
        assert!(lines[0].starts_with("demo.hits"));
        assert!(lines[0].ends_with(" 1"), "{a}");
    }

    #[test]
    fn engine_metric_set_is_well_formed() {
        let mut r = engine::registry();
        r.add(engine::EVENTS, 2);
        r.gauge_max(engine::QUEUE_PEAK, 5);
        let s = r.snapshot();
        assert_eq!(s.get("sim.events"), Some(2));
        assert_eq!(s.get("sim.queue_peak"), Some(5));
        assert_eq!(
            s.entries.len(),
            engine::COUNTER_DEFS.len() + engine::GAUGE_DEFS.len()
        );
    }
}
