//! SPMD runner: spawns `np` simulated MPI ranks over a fresh fabric, runs a
//! closure on each, and collects results plus per-rank resource reports —
//! the raw material for every experiment in the paper.

use crate::config::{ConnMode, Device, MpiConfig, WaitPolicy};
use crate::device::{mpi_metrics, ChannelSnapshot, Device as AdiDevice};
use crate::mpi::Mpi;
use crate::trace::{Span, TraceEvent};
use std::sync::Arc;
use viampi_sim::sync::Mutex;
use viampi_sim::{Engine, MetricsSnapshot, Registry, SimDuration, SimError, SimTime};

use viampi_via::{nic_metrics, Fabric, ViaPort};

/// Per-rank resource/usage report.
#[derive(Debug, Clone)]
pub struct RankReport {
    /// Rank.
    pub rank: usize,
    /// Virtual finish time of the rank body.
    pub finish: SimTime,
    /// MPI-layer counters ([`mpi_metrics`] set), taken after
    /// `MPI_Finalize`.
    pub mpi: Registry,
    /// NIC-layer counters ([`nic_metrics`] set), taken at the same moment.
    /// A finished rank's NIC keeps receiving (credit returns it never
    /// reaps), so the finished fabric would show later values.
    pub nic: Registry,
    /// VIs alive at the end.
    pub vis_live: usize,
    /// VIs that carried at least one message (Table 2 utilization).
    pub vis_used: usize,
    /// Per-peer channel state captured after `MPI_Finalize`, ascending by
    /// `(peer, stripe)`: what [`crate::invariants::check`] reads.
    pub channels: Vec<ChannelSnapshot>,
    /// Protocol trace (empty unless `MpiConfig::trace`; a body that calls
    /// `Mpi::take_trace` keeps its events — they are not re-collected here).
    pub trace: Vec<TraceEvent>,
    /// Recorded spans (empty unless `MpiConfig::trace`; same take semantics
    /// as `trace`).
    pub spans: Vec<Span>,
}

/// Outcome of a completed run.
#[derive(Debug, Clone)]
pub struct RunReport<R> {
    /// Per-rank closure results, in rank order.
    pub results: Vec<R>,
    /// Per-rank reports, in rank order.
    pub ranks: Vec<RankReport>,
    /// Simulation makespan.
    pub end_time: SimTime,
    /// Events processed by the engine.
    pub events: u64,
    /// Deepest fiber stack any rank was seen using, in bytes — a host-side
    /// measurement (it moves with the compiler), so it is a field here and
    /// not an entry of the deterministic `metrics` snapshot.
    pub stack_depth_peak: u64,
    /// Whole-run flat metrics snapshot: the engine's `sim.*` entries merged
    /// with every rank's `mpi.*`/`nic.*` entries and the fabric's `fault.*`
    /// and `nic.pool.*` counters.
    pub metrics: MetricsSnapshot,
    /// Configuration used.
    pub config: MpiConfig,
}

impl<R> RunReport<R> {
    /// Average live VIs per process (Table 2 "Ave. number of VIs").
    pub fn avg_vis(&self) -> f64 {
        self.ranks.iter().map(|r| r.vis_live as f64).sum::<f64>() / self.ranks.len() as f64
    }

    /// Average used VIs per process.
    pub fn avg_used_vis(&self) -> f64 {
        self.ranks.iter().map(|r| r.vis_used as f64).sum::<f64>() / self.ranks.len() as f64
    }

    /// Resource utilization: used / created (Table 2).
    pub fn utilization(&self) -> f64 {
        let created: f64 = self.ranks.iter().map(|r| r.vis_live as f64).sum();
        if created == 0.0 {
            return 1.0;
        }
        self.ranks.iter().map(|r| r.vis_used as f64).sum::<f64>() / created
    }

    /// Mean `MPI_Init` time across ranks (Fig. 8's metric).
    pub fn avg_init_time(&self) -> SimDuration {
        let total: u64 = self
            .ranks
            .iter()
            .map(|r| r.mpi.gauge(mpi_metrics::INIT_TIME_NS))
            .sum();
        SimDuration::nanos(total / self.ranks.len() as u64)
    }

    /// Peak pinned bytes across ranks.
    pub fn max_pinned(&self) -> usize {
        self.ranks
            .iter()
            .map(|r| r.nic.gauge(nic_metrics::PINNED_PEAK) as usize)
            .max()
            .unwrap_or(0)
    }
}

/// A configured SPMD world, ready to run.
#[derive(Debug, Clone)]
pub struct Universe {
    np: usize,
    cfg: MpiConfig,
}

impl Universe {
    /// `np` ranks with paper-default protocol settings.
    pub fn new(np: usize, device: Device, conn: ConnMode, wait: WaitPolicy) -> Self {
        assert!(np >= 1, "need at least one rank");
        Universe {
            np,
            cfg: MpiConfig::new(device, conn, wait),
        }
    }

    /// Number of ranks.
    pub fn np(&self) -> usize {
        self.np
    }

    /// Tune protocol parameters before running.
    pub fn config_mut(&mut self) -> &mut MpiConfig {
        &mut self.cfg
    }

    /// The configuration (normalized as it will be used).
    pub fn config(&self) -> MpiConfig {
        self.cfg.clone().normalized()
    }

    /// Run `body` on every rank (SPMD). Returns per-rank results and
    /// reports, or the simulation error: a deadlock, a rank panic, or a
    /// finished world that broke a channel law ([`crate::invariants`],
    /// [`SimError::Invariant`]).
    pub fn run<R, F>(self, body: F) -> Result<RunReport<R>, SimError>
    where
        R: Send + 'static,
        F: Fn(&Mpi) -> R + Send + Sync + 'static,
    {
        let np = self.np;
        let cfg = self.cfg.clone().normalized();
        let mut fabric = Fabric::new(cfg.device.profile(), np);
        if let Some(fp) = cfg.faults.clone() {
            fabric.set_faults(fp);
        }
        let mut engine = Engine::new(fabric);
        engine.set_sched_seed(cfg.sched_seed);
        let body = Arc::new(body);
        type Slot<R> = Option<(R, RankReport)>;
        let slots: Arc<Mutex<Vec<Slot<R>>>> = Arc::new(Mutex::new((0..np).map(|_| None).collect()));

        for rank in 0..np {
            let body = body.clone();
            let slots = slots.clone();
            let cfg = cfg.clone();
            engine.spawn(format!("rank{rank}"), move |ctx| {
                let port = ViaPort::open(ctx, rank);
                let mut dev = AdiDevice::new(port, rank, np, cfg);
                dev.init();
                let mpi = Mpi::new(dev);
                let result = body(&mpi);
                let (channels, trace, spans, mpi_counters, nic_counters) = {
                    let mut dev = mpi.device().borrow_mut();
                    assert_eq!(
                        dev.live_requests(),
                        0,
                        "rank {rank} finalized with incomplete requests"
                    );
                    dev.finalize();
                    (
                        dev.channel_snapshots(),
                        std::mem::take(&mut dev.trace),
                        std::mem::take(&mut dev.spans),
                        dev.metrics.clone(),
                        dev.port.metrics(),
                    )
                };
                let report = RankReport {
                    rank,
                    finish: SimTime::ZERO, // filled from the outcome below
                    mpi: mpi_counters,
                    nic: nic_counters,
                    vis_live: mpi.live_vis(),
                    vis_used: mpi.used_vis(),
                    channels,
                    trace,
                    spans,
                };
                slots.lock()[rank] = Some((result, report));
            });
        }

        let (fabric, outcome) = engine.run()?;
        let mut results = Vec::with_capacity(np);
        let mut ranks = Vec::with_capacity(np);
        let mut slots = Arc::try_unwrap(slots)
            .unwrap_or_else(|_| panic!("rank closures leaked the result store"))
            .into_inner();
        for (rank, slot) in slots.drain(..).enumerate() {
            let (r, mut report) = slot.expect("every rank stored a result");
            report.finish = outcome.proc_finish[rank];
            results.push(r);
            ranks.push(report);
        }
        let ends: Vec<&[ChannelSnapshot]> = ranks.iter().map(|r| r.channels.as_slice()).collect();
        let broken = crate::invariants::check(cfg.vis_per_peer, &ends, &fabric);
        if !broken.is_empty() {
            let violations = broken.iter().map(ToString::to_string).collect();
            return Err(SimError::Invariant { violations });
        }
        let mut metrics = outcome.metrics.clone();
        for r in &ranks {
            metrics.merge(&r.mpi.snapshot());
            metrics.merge(&r.nic.snapshot());
        }
        metrics.merge(&fabric.fault_metrics().snapshot());
        // The wire-buffer pool is fabric-global, so its counters are
        // published once per run here, not per rank (a per-rank snapshot
        // would multiply them under the Add merge).
        metrics.merge(&fabric.pool_metrics_snapshot());
        Ok(RunReport {
            results,
            ranks,
            end_time: outcome.end_time,
            events: outcome.events_processed,
            stack_depth_peak: outcome.stack_depth_peak,
            metrics,
            config: self.cfg,
        })
    }
}
