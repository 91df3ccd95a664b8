//! Deterministic fault injection for the connection path.
//!
//! The paper's on-demand protocol folds connection management into the MPI
//! progress engine; its correctness depends on surviving lost, duplicated,
//! delayed and reordered connection packets (real VIA/InfiniBand stacks add
//! explicit retry for exactly this reason). This module injects those faults
//! at the fabric's connection-packet scheduling points — and into VI
//! creation — driven entirely by a [`SplitMix64`] stream seeded from the
//! profile, so every observed failure is replayable from its seed.
//!
//! Scope: *connection* traffic (peer-to-peer requests and establishment
//! notifications) and VI creation can be dropped, duplicated, delayed and
//! reordered. Data-transfer packets are never lost or duplicated, as on a
//! real VIA fabric (VIA assumes a reliable delivery network) — but they may
//! be **losslessly jittered**: an optional delay/reorder perturbation
//! stretches individual wire arrivals so cross-VI interleavings at the
//! receiver (unexpected-queue ordering, `ANY_SOURCE` match order,
//! credit-return timing) are explored under adversarial schedules. Per-VI
//! in-order delivery is preserved by construction: a jittered packet never
//! overtakes an earlier packet on the same VI (the MPI layer's
//! non-overtaking and rendezvous-FIN-after-data guarantees depend on it).
//! The jitter draws from its own RNG stream, so enabling it never perturbs
//! the connection-fault decisions of an existing replay seed.

use crate::types::{NodeId, ViId};
use std::collections::HashMap;
use viampi_sim::{Registry, SimDuration, SimTime, SplitMix64};

/// Fault rates for one simulation run. All probabilities are in `[0, 1]`
/// and are rolled independently per connection packet.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultProfile {
    /// Seed of the injector's private RNG stream.
    pub seed: u64,
    /// Probability a connection packet is silently dropped.
    pub drop_prob: f64,
    /// Probability a connection packet is duplicated (the copy gets its own
    /// independent delay, so it may arrive before the original).
    pub dup_prob: f64,
    /// Probability a connection packet is delayed by up to
    /// [`FaultProfile::delay_max_us`].
    pub delay_prob: f64,
    /// Probability a connection packet gets an extra-large delay (up to
    /// 4 × `delay_max_us`), letting later packets overtake it.
    pub reorder_prob: f64,
    /// Maximum injected delay, in microseconds.
    pub delay_max_us: u64,
    /// Probability a VI creation fails transiently.
    pub vi_fail_prob: f64,
    /// Probability a *data* wire packet is delayed by up to
    /// [`FaultProfile::data_delay_max_us`]. Lossless: data packets are never
    /// dropped or duplicated, and per-VI delivery order is preserved.
    pub data_delay_prob: f64,
    /// Probability a data wire packet gets an overtaking-scale delay (up to
    /// 4 × `data_delay_max_us`), reordering it against *other* VIs' traffic.
    pub data_reorder_prob: f64,
    /// Maximum injected data-packet delay, in microseconds.
    pub data_delay_max_us: u64,
}

impl FaultProfile {
    /// No faults at all (useful to exercise the injector plumbing alone).
    pub fn none(seed: u64) -> Self {
        FaultProfile {
            seed,
            drop_prob: 0.0,
            dup_prob: 0.0,
            delay_prob: 0.0,
            reorder_prob: 0.0,
            delay_max_us: 0,
            vi_fail_prob: 0.0,
            data_delay_prob: 0.0,
            data_reorder_prob: 0.0,
            data_delay_max_us: 0,
        }
    }

    /// Mild fault rates: occasional drops/duplicates, frequent small delays.
    pub fn light(seed: u64) -> Self {
        FaultProfile {
            seed,
            drop_prob: 0.02,
            dup_prob: 0.02,
            delay_prob: 0.20,
            reorder_prob: 0.05,
            delay_max_us: 300,
            vi_fail_prob: 0.01,
            data_delay_prob: 0.0,
            data_reorder_prob: 0.0,
            data_delay_max_us: 0,
        }
    }

    /// Aggressive fault rates for stress runs.
    pub fn heavy(seed: u64) -> Self {
        FaultProfile {
            seed,
            drop_prob: 0.10,
            dup_prob: 0.10,
            delay_prob: 0.40,
            reorder_prob: 0.15,
            delay_max_us: 2000,
            vi_fail_prob: 0.05,
            data_delay_prob: 0.0,
            data_reorder_prob: 0.0,
            data_delay_max_us: 0,
        }
    }

    /// `self` with lossless data-plane jitter enabled at the given rates.
    /// The connection-fault decision stream is unaffected (data jitter draws
    /// from a separate RNG stream), so existing seeds replay identically.
    pub fn with_data_jitter(mut self, delay_prob: f64, reorder_prob: f64, max_us: u64) -> Self {
        self.data_delay_prob = delay_prob;
        self.data_reorder_prob = reorder_prob;
        self.data_delay_max_us = max_us;
        self
    }
}

/// The fault injector's metric set (`fault.*` entries of a run's
/// snapshot): faults actually injected, by kind.
pub mod fault_metrics {
    viampi_sim::metric_defs! {
        counters {
            CONN_DROPPED => "fault.conn_dropped": "Connection packets dropped",
            CONN_DUPLICATED => "fault.conn_duplicated": "Connection packets duplicated",
            CONN_DELAYED => "fault.conn_delayed": "Connection packets delayed (jitter added to the base latency)",
            CONN_REORDERED => "fault.conn_reordered": "Connection packets given an overtaking-scale delay",
            VI_CREATE_FAILURES => "fault.vi_create_failures": "VI creations failed transiently",
            DATA_DELAYED => "fault.data_delayed": "Data wire packets delayed (losslessly)",
            DATA_REORDERED => "fault.data_reordered": "Data wire packets given an overtaking-scale delay",
        }
        gauges {}
        hists {}
    }
}

/// The stateful injector: a profile plus its private deterministic RNG.
#[derive(Debug)]
pub struct FaultInjector {
    profile: FaultProfile,
    rng: SplitMix64,
    /// Separate stream for data-plane jitter so enabling it leaves the
    /// connection-fault decision sequence (and thus every existing replay
    /// seed's connection schedule) byte-identical.
    data_rng: SplitMix64,
    /// Highest arrival time already scheduled per source (node, VI): the
    /// monotone floor that keeps jittered data packets from overtaking
    /// earlier packets on the same VI.
    data_floor: HashMap<(NodeId, ViId), SimTime>,
    /// Faults injected so far ([`fault_metrics`] set).
    pub metrics: Registry,
}

impl FaultInjector {
    /// Build an injector; the RNG stream is derived from `profile.seed`.
    pub fn new(profile: FaultProfile) -> Self {
        let rng = SplitMix64::new(profile.seed);
        let data_rng = SplitMix64::new(profile.seed ^ 0xDA7A_11AB_1E5E_ED01);
        FaultInjector {
            profile,
            rng,
            data_rng,
            data_floor: HashMap::new(),
            metrics: fault_metrics::registry(),
        }
    }

    /// The installed profile.
    pub fn profile(&self) -> &FaultProfile {
        &self.profile
    }

    /// Decide the fate of one connection packet whose fault-free latency is
    /// `base`. Returns the delivery delays to schedule: empty means the
    /// packet was dropped; more than one entry means it was duplicated.
    pub fn conn_packet(&mut self, base: SimDuration) -> Vec<SimDuration> {
        if self.rng.next_f64() < self.profile.drop_prob {
            self.metrics.inc(fault_metrics::CONN_DROPPED);
            return Vec::new();
        }
        let mut first = base;
        if self.rng.next_f64() < self.profile.delay_prob {
            first += self.jitter(self.profile.delay_max_us);
            self.metrics.inc(fault_metrics::CONN_DELAYED);
        }
        if self.rng.next_f64() < self.profile.reorder_prob {
            first += self.jitter(self.profile.delay_max_us.saturating_mul(4));
            self.metrics.inc(fault_metrics::CONN_REORDERED);
        }
        let mut out = vec![first];
        if self.rng.next_f64() < self.profile.dup_prob {
            // The duplicate gets its own independent jitter, so it may land
            // before or after the original.
            let dup = base + self.jitter(self.profile.delay_max_us);
            self.metrics.inc(fault_metrics::CONN_DUPLICATED);
            out.push(dup);
        }
        out
    }

    /// Roll whether a VI creation on `_node` fails transiently.
    pub fn vi_create_fails(&mut self, _node: NodeId) -> bool {
        if self.rng.next_f64() < self.profile.vi_fail_prob {
            self.metrics.inc(fault_metrics::VI_CREATE_FAILURES);
            true
        } else {
            false
        }
    }

    /// Perturb the arrival time of one data wire packet sent on `(node, vi)`.
    ///
    /// Lossless and per-VI order-preserving: the returned time is the rolled
    /// (possibly jittered) arrival clamped up to this VI's monotone floor, so
    /// a later packet on the same VI never lands before an earlier one. With
    /// both data probabilities zero this is the identity and touches no state.
    pub fn wire_arrival(&mut self, src: (NodeId, ViId), arrive: SimTime) -> SimTime {
        if self.profile.data_delay_prob <= 0.0 && self.profile.data_reorder_prob <= 0.0 {
            return arrive;
        }
        let mut t = arrive;
        if self.data_rng.next_f64() < self.profile.data_delay_prob {
            t += self.data_jitter(self.profile.data_delay_max_us);
            self.metrics.inc(fault_metrics::DATA_DELAYED);
        }
        if self.data_rng.next_f64() < self.profile.data_reorder_prob {
            t += self.data_jitter(self.profile.data_delay_max_us.saturating_mul(4));
            self.metrics.inc(fault_metrics::DATA_REORDERED);
        }
        let floor = self.data_floor.entry(src).or_insert(t);
        if t < *floor {
            t = *floor;
        } else {
            *floor = t;
        }
        t
    }

    fn jitter(&mut self, max_us: u64) -> SimDuration {
        if max_us == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::nanos(self.rng.next_below(max_us * 1000))
    }

    fn data_jitter(&mut self, max_us: u64) -> SimDuration {
        if max_us == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::nanos(self.data_rng.next_below(max_us * 1000))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_replays_identical_decisions() {
        let decide = || {
            let mut inj = FaultInjector::new(FaultProfile::heavy(77));
            let fates: Vec<Vec<SimDuration>> = (0..200)
                .map(|_| inj.conn_packet(SimDuration::micros(12)))
                .collect();
            let vi: Vec<bool> = (0..50).map(|_| inj.vi_create_fails(0)).collect();
            (fates, vi, inj.metrics.snapshot())
        };
        assert_eq!(decide(), decide());
    }

    #[test]
    fn none_profile_injects_nothing() {
        let mut inj = FaultInjector::new(FaultProfile::none(1));
        for _ in 0..100 {
            assert_eq!(
                inj.conn_packet(SimDuration::micros(5)),
                vec![SimDuration::micros(5)]
            );
            assert!(!inj.vi_create_fails(0));
        }
        assert!(inj.metrics.snapshot().entries.iter().all(|e| e.value == 0));
    }

    #[test]
    fn heavy_profile_exercises_every_fault_kind() {
        let mut inj = FaultInjector::new(FaultProfile::heavy(3));
        for _ in 0..2000 {
            inj.conn_packet(SimDuration::micros(12));
            inj.vi_create_fails(0);
        }
        let n = |c| inj.metrics.counter(c);
        assert!(n(fault_metrics::CONN_DROPPED) > 0);
        assert!(n(fault_metrics::CONN_DUPLICATED) > 0);
        assert!(n(fault_metrics::CONN_DELAYED) > 0);
        assert!(n(fault_metrics::CONN_REORDERED) > 0);
        assert!(n(fault_metrics::VI_CREATE_FAILURES) > 0);
        assert_eq!(
            n(fault_metrics::DATA_DELAYED) + n(fault_metrics::DATA_REORDERED),
            0,
            "no data jitter configured"
        );
    }

    #[test]
    fn data_jitter_preserves_per_vi_order() {
        let profile = FaultProfile::none(42).with_data_jitter(0.5, 0.2, 500);
        let mut inj = FaultInjector::new(profile);
        let mut last = [SimTime::ZERO; 3];
        for i in 0..300u64 {
            let vi = (i % 3) as u32;
            let base = SimTime::ZERO + SimDuration::micros(i * 10);
            let t = inj.wire_arrival((0, ViId(vi)), base);
            assert!(t >= base, "jitter only ever adds latency");
            assert!(t >= last[vi as usize], "per-VI arrivals stay monotone");
            last[vi as usize] = t;
        }
        assert!(inj.metrics.counter(fault_metrics::DATA_DELAYED) > 0);
        assert!(inj.metrics.counter(fault_metrics::DATA_REORDERED) > 0);
    }

    #[test]
    fn data_jitter_disabled_is_identity() {
        let mut inj = FaultInjector::new(FaultProfile::heavy(5));
        for i in 0..100u64 {
            let base = SimTime::ZERO + SimDuration::micros(i);
            assert_eq!(inj.wire_arrival((1, ViId(0)), base), base);
        }
        assert_eq!(inj.metrics.counter(fault_metrics::DATA_DELAYED), 0);
        assert_eq!(inj.metrics.counter(fault_metrics::DATA_REORDERED), 0);
    }

    #[test]
    fn data_jitter_does_not_perturb_conn_stream() {
        let plain = {
            let mut inj = FaultInjector::new(FaultProfile::heavy(11));
            (0..200)
                .map(|_| inj.conn_packet(SimDuration::micros(12)))
                .collect::<Vec<_>>()
        };
        let with_jitter = {
            let mut inj =
                FaultInjector::new(FaultProfile::heavy(11).with_data_jitter(0.9, 0.5, 800));
            (0..200)
                .map(|i| {
                    // Interleave data traffic; it must not consume conn RNG draws.
                    inj.wire_arrival((0, ViId(0)), SimTime::ZERO + SimDuration::micros(i));
                    inj.conn_packet(SimDuration::micros(12))
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(plain, with_jitter);
    }

    #[test]
    fn delays_never_shrink_below_base() {
        let mut inj = FaultInjector::new(FaultProfile::heavy(9));
        let base = SimDuration::micros(12);
        for _ in 0..500 {
            for d in inj.conn_packet(base) {
                assert!(d >= base, "injected jitter only ever adds latency");
            }
        }
    }
}
