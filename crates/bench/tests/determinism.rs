//! Determinism regression suite: the paper-reproduction numbers must be a
//! pure function of the configuration — identical across repeat runs and
//! across worker counts, and equal to the constants pinned from the engine
//! generation that still had selectable backends and scheduler modes.

use viampi_bench::json::to_string_pretty;
use viampi_bench::runner::par_map;
use viampi_core::{
    fault_metrics, mpi_metrics, nic_metrics, ConnMode, Device, FaultProfile, ReduceOp, RunReport,
    Universe, WaitPolicy,
};
use viampi_npb::{cg, llc, Class};
use viampi_sim::SimTime;

/// The virtual-time fingerprint of a run: everything in the outcome that
/// the experiments derive numbers from.
#[derive(Debug, Clone, PartialEq)]
struct Fingerprint {
    end_time: SimTime,
    events: u64,
    finishes: Vec<SimTime>,
    result_bits: Vec<u64>,
}

fn fingerprint(report: &RunReport<Option<f64>>) -> Fingerprint {
    Fingerprint {
        end_time: report.end_time,
        events: report.events,
        finishes: report.ranks.iter().map(|r| r.finish).collect(),
        result_bits: report
            .results
            .iter()
            .map(|r| r.unwrap_or(f64::NAN).to_bits())
            .collect(),
    }
}

fn barrier_run(np: usize) -> RunReport<Option<f64>> {
    // The fig4 configuration at its largest cLAN point.
    Universe::new(np, Device::Clan, ConnMode::OnDemand, WaitPolicy::Polling)
        .run(|mpi| llc::barrier_latency(mpi, 300))
        .unwrap()
}

fn npb_run() -> RunReport<Option<f64>> {
    // One NPB kernel (CG class S), reduced to the same result shape.
    Universe::new(8, Device::Clan, ConnMode::OnDemand, WaitPolicy::Polling)
        .run(|mpi| {
            let r = cg::run(mpi, Class::S);
            Some(if r.verified { r.time_secs } else { f64::NAN })
        })
        .unwrap()
}

#[test]
fn barrier_outcome_is_bit_identical_across_repeats() {
    let a = fingerprint(&barrier_run(32));
    let b = fingerprint(&barrier_run(32));
    assert_eq!(a, b, "repeat fig4 run must be bit-identical");
}

#[test]
fn npb_outcome_is_bit_identical_across_repeats() {
    let a = fingerprint(&npb_run());
    let b = fingerprint(&npb_run());
    assert_eq!(a, b, "repeat CG run must be bit-identical");
}

#[test]
fn fig4_json_is_identical_under_jobs_1_and_n() {
    // The full fig4 experiment on 1 and on 4 workers must produce the same
    // points in the same order, down to the serialized bytes and the table.
    let fig4 = viampi_bench::experiments::find("fig4_barrier_latency").unwrap();
    assert_eq!(
        (fig4.run)(1),
        (fig4.run)(4),
        "fig4 must not depend on the worker count"
    );
}

#[test]
fn npb_point_is_identical_under_jobs_1_and_n() {
    let instances = [(viampi_bench::experiments::Prog::Cg, Class::S, 8)];
    let run =
        |jobs| viampi_bench::experiments::npb_figure("det_cg", Device::Clan, &instances, jobs);
    assert_eq!(run(1), run(4), "NPB must not depend on the worker count");
}

fn pooled_ring_run(np: usize) -> RunReport<Option<f64>> {
    // Eager + rendezvous neighbor exchange: every payload rides the pooled
    // data plane (frame alloc, single staging copy, by-reference delivery,
    // recycle on drop), with sizes crossing several pool size classes and
    // one rendezvous transfer (> eager threshold).
    Universe::new(np, Device::Clan, ConnMode::OnDemand, WaitPolicy::Polling)
        .run(|mpi| {
            let np = mpi.size();
            let me = mpi.rank();
            let right = (me + 1) % np;
            let left = (me + np - 1) % np;
            let mut acc = 0.0f64;
            for &sz in &[1usize, 64, 256, 1500, 4000, 6000] {
                let sbuf = vec![(me as u8) ^ (sz as u8); sz];
                let (data, status) = mpi.sendrecv(&sbuf, right, 7, Some(left), Some(7));
                assert_eq!(data.len(), sz);
                assert_eq!(status.source, left);
                assert!(data.iter().all(|&b| b == (left as u8) ^ (sz as u8)));
                acc += data.iter().map(|&b| b as f64).sum::<f64>();
            }
            Some(acc)
        })
        .unwrap()
}

#[test]
fn pooled_exchange_is_bit_identical_across_repeats() {
    let a = pooled_ring_run(8);
    let b = pooled_ring_run(8);
    assert_eq!(
        fingerprint(&a),
        fingerprint(&b),
        "repeat pooled-path run must be bit-identical"
    );
    let ra = a.metrics.render();
    assert_eq!(ra, b.metrics.render(), "pool/queue counters must replay");
    for name in [
        "nic.pool.hits",
        "nic.pool.recycled",
        "nic.pool.bytes_copied",
        "sim.queue_peak",
    ] {
        assert!(ra.contains(name), "snapshot is missing {name}:\n{ra}");
    }
}

#[test]
fn pooled_exchange_is_identical_under_jobs_1_and_n() {
    let render = |jobs| {
        par_map(jobs, vec![2usize, 4, 8], |np| {
            pooled_ring_run(np).metrics.render()
        })
    };
    assert_eq!(
        render(1),
        render(4),
        "pooled-path metrics must not depend on the worker count"
    );
}

#[test]
fn fault_injected_outcome_is_bit_identical_across_repeats() {
    // Fault injection must not break replayability: the injector draws
    // from its own seeded stream, so the same seed gives the same drops,
    // duplications, delays and retries — and therefore the same virtual
    // times, event counts and counters, down to the serialized bytes.
    for seed in [3u64, 8, 21] {
        let a = viampi_bench::simcheck::run_key(seed, viampi_bench::simcheck::FaultKind::Heavy);
        let b = viampi_bench::simcheck::run_key(seed, viampi_bench::simcheck::FaultKind::Heavy);
        assert!(a.violations.is_empty(), "seed {seed}: {:?}", a.violations);
        assert_eq!(
            to_string_pretty(&a),
            to_string_pretty(&b),
            "seed {seed}: fault-injected replay diverged"
        );
    }
}

#[test]
fn simcheck_batch_is_identical_under_jobs_1_and_n() {
    // A fault-injected simcheck batch fans out over the worker pool; the
    // outcomes and the summary must not depend on the worker count.
    let batch = |jobs| {
        viampi_bench::simcheck::run_seeds(0, 16, viampi_bench::simcheck::FaultKind::Light, jobs)
    };
    let (serial_outcomes, serial_summary) = batch(1);
    let (parallel_outcomes, parallel_summary) = batch(4);
    assert_eq!(
        to_string_pretty(&serial_summary),
        to_string_pretty(&parallel_summary),
        "simcheck summary must not depend on the worker count"
    );
    for (s, p) in serial_outcomes.iter().zip(&parallel_outcomes) {
        assert_eq!(
            to_string_pretty(s),
            to_string_pretty(p),
            "seed {}: outcome differs between --jobs 1 and --jobs 4",
            s.seed
        );
    }
}

#[test]
fn metrics_snapshot_is_byte_identical_across_repeats() {
    // The cross-layer metrics snapshot is part of the run outcome, so it
    // obeys the same contract as the virtual-time numbers: its rendered
    // form must be byte-identical across repeat runs, and it must carry
    // entries from every publishing layer.
    let a = barrier_run(8).metrics.render();
    let b = barrier_run(8).metrics.render();
    assert_eq!(a, b, "repeat runs must render identical metrics");
    for name in [
        "sim.events",
        "sim.handoffs",
        "mpi.collectives",
        "mpi.sends",
        "mpi.progress_passes",
        "mpi.table_walks",
        "nic.msgs_tx",
        "nic.conns_established",
        "fault.conn_dropped",
    ] {
        assert!(a.contains(name), "snapshot is missing {name}:\n{a}");
    }
}

#[test]
fn metrics_snapshot_is_identical_under_jobs_1_and_n() {
    // Runs fanned out over the worker pool must produce the same metrics
    // as the serial loop, in the same order, down to the rendered bytes.
    let render = |jobs| {
        par_map(jobs, vec![4usize, 8, 12, 16], |np| {
            barrier_run(np).metrics.render()
        })
    };
    assert_eq!(
        render(1),
        render(4),
        "metrics must not depend on the worker count"
    );
}

#[test]
fn every_published_name_comes_from_a_table() {
    // A run's snapshot lists the engine's table, then the device's, the
    // NIC's and the fault injector's, each in registration order and with
    // histograms expanded: a name written by hand outside a table shows up
    // here as an extra or misplaced entry.
    let mut uni = Universe::new(6, Device::Clan, ConnMode::OnDemand, WaitPolicy::Polling);
    uni.config_mut().faults = Some(FaultProfile::heavy(7));
    let report = uni
        .run(|mpi| mpi.allreduce(&[1i64], ReduceOp::Sum)[0])
        .unwrap();
    let faults = report.metrics.entries.iter();
    let injected: u64 = faults
        .filter(|e| e.name.starts_with("fault."))
        .map(|e| e.value)
        .sum();
    assert!(injected > 0, "the world must see faults");
    let tables = [
        viampi_sim::metrics::engine::registry(),
        mpi_metrics::registry(),
        nic_metrics::registry(),
        fault_metrics::registry(),
    ];
    let want: Vec<String> = tables
        .iter()
        .flat_map(|t| t.snapshot().entries)
        .map(|e| e.name.into_owned())
        .collect();
    let got: Vec<&str> = report
        .metrics
        .entries
        .iter()
        .map(|e| e.name.as_ref())
        .collect();
    assert_eq!(got, want);
}

// ---------------------------------------------------------------------------
// Campaign engine: shrinking, worker-count independence, pinned summary
// metrics.
// ---------------------------------------------------------------------------

use viampi_bench::campaign::{run_campaign, CampaignConfig, CampaignReport, BATCH_ROOTS};
use viampi_bench::simcheck::{key, run_key, shrink_key, Axis, FaultKind};

/// A heavy-fault campaign from root 0 that stops at `budget` keys, with its
/// corpus file in a scratch directory of its own.
fn campaign(label: &str, budget: u64, jobs: usize) -> CampaignReport {
    let dir = std::env::temp_dir().join(format!("viampi_campaign_{}_{label}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let report = run_campaign(&CampaignConfig {
        kind: FaultKind::Heavy,
        start: 0,
        seeds_budget: Some(budget),
        timebox: None,
        corpus_path: Some(dir.join("corpus.seeds")),
        jobs,
    })
    .unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    report
}

#[test]
fn shrinker_minimum_still_fails_and_is_deterministic() {
    // Start from a large-np mutated key and "fail" whenever the scenario
    // keeps np >= 8 — the shrinker must walk the ladder down to the
    // smallest still-failing scenario, identically on every run.
    let start = key::mutated(Axis::NpLarge, 7, 1234);
    let mut fails = |k: u64| run_key(k, FaultKind::None).np >= 8;
    assert!(fails(start), "sanity: the starting key must fail");
    let (min_a, steps_a) = shrink_key(start, &mut fails);
    let (min_b, steps_b) = shrink_key(start, &mut fails);
    assert_eq!((min_a, steps_a), (min_b, steps_b), "shrinking must replay");
    assert!(steps_a > 0, "a large-np start must shrink at least once");
    let min_run = run_key(min_a, FaultKind::None);
    assert!(min_run.np >= 8, "the minimized key must still fail");
    assert_eq!(
        min_run.np, 8,
        "np ladder must reach the smallest failing band"
    );
    assert!(
        run_key(start, FaultKind::None).np >= min_run.np,
        "shrinking must never grow the scenario"
    );
}

#[test]
fn shrinker_keeps_the_original_when_nothing_smaller_fails() {
    // A predicate that only the original key satisfies: no candidate can
    // replace it, and the result replays the original exactly.
    let start = key::mutated(Axis::Storm, 3, 99);
    let mut only_start = |k: u64| k == start;
    let (min, _steps) = shrink_key(start, &mut only_start);
    assert_eq!(min, start);
}

#[test]
fn campaign_is_identical_under_jobs_1_and_n() {
    // A budget one key past the first batch's roots, so a child round runs
    // too: the coverage map, the counters and the corpus lines are folded
    // in key order between rounds and must not depend on the worker count.
    let serial = campaign("j1", BATCH_ROOTS + 1, 1);
    let parallel = campaign("j4", BATCH_ROOTS + 1, 4);
    assert!(
        serial.state.seeds_run > BATCH_ROOTS && serial.state.derived_seeds > 0,
        "a child round ran"
    );
    assert_eq!(
        serial.state, parallel.state,
        "campaign state must not depend on the worker count"
    );
    assert_eq!(serial.summary.next_start, parallel.summary.next_start);
}

#[test]
fn campaign_summary_metrics_are_pinned() {
    // The summary publishes its counters through the `metric_defs!`
    // registry: the dotted names are part of the interface and must not
    // drift, and the values must equal the cumulative state counters.
    let report = campaign("metrics", 1, 1);
    let names: Vec<&str> = report
        .summary
        .metrics
        .iter()
        .map(|m| m.name.as_str())
        .collect();
    assert_eq!(
        names,
        [
            "sim.campaign.seeds_run",
            "sim.campaign.coverage_signatures",
            "sim.campaign.derived_seeds",
            "sim.campaign.shrink_steps",
            "sim.campaign.violations",
        ]
    );
    let value = |n: &str| {
        report
            .summary
            .metrics
            .iter()
            .find(|m| m.name.ends_with(n))
            .unwrap()
            .value
    };
    assert_eq!(value("seeds_run"), report.state.seeds_run);
    assert_eq!(
        value("coverage_signatures"),
        report.state.coverage.len() as u64
    );
    assert_eq!(value("derived_seeds"), report.state.derived_seeds);
    assert_eq!(value("violations"), report.state.violations);
    assert_eq!(report.state.seeds_run, BATCH_ROOTS, "one round of roots");
    let json = to_string_pretty(&report.summary);
    assert!(
        json.contains("\"sim.campaign.seeds_run\""),
        "summary JSON embeds the names"
    );
}

// ---------------------------------------------------------------------------
// The one engine: pinned outcomes and the `sim.*` metrics interface.
// ---------------------------------------------------------------------------

#[test]
fn fig4_and_cg_outcomes_match_the_pinned_constants() {
    // These numbers were produced — identically — by every configuration
    // of the previous engine generation (thread and fiber backends, fast
    // path on/off, lazy and eager compute charging, pre-release widths,
    // shard counts). The single engine that remains must keep producing
    // them; a diff here is a virtual-time change, not a refactor.
    let fig4 = barrier_run(16);
    assert_eq!(
        (
            fig4.end_time,
            fig4.events,
            fig4.results[0].map(f64::to_bits)
        ),
        (SimTime(23_123_059), 38_795, Some(4633699682191422322))
    );
    let cg = npb_run();
    assert_eq!(
        (cg.end_time, cg.events, cg.results[0].map(f64::to_bits)),
        (SimTime(10_495_836), 6_737, Some(4576031583667881064))
    );
}

#[test]
fn engine_counter_names_are_pinned() {
    // The engine's counters are part of the metrics interface (the repo
    // benchmark reads several by name): the `sim.*` set is exactly this,
    // in this order — nothing drifts, and nothing from a deleted engine
    // mode (`sim.coalesce.*`, `sim.par.*`, `sim.shard.*`, `sim.sm.*`)
    // lingers at zero. The one zero-valued name kept is
    // `sim.wheel.cascades`: the event queue is a binary heap now, but the
    // frozen repo benchmark reads that name as `sim.queue.cascades`.
    let r = barrier_run(8);
    let sim: Vec<&str> = r
        .metrics
        .entries
        .iter()
        .map(|e| e.name.as_ref())
        .filter(|n| n.starts_with("sim."))
        .collect();
    assert_eq!(
        sim,
        [
            "sim.handoffs",
            "sim.events",
            "sim.fast_resumes",
            "sim.events_scheduled",
            "sim.direct.handoffs",
            "sim.direct.self_resumes",
            "sim.world_accesses",
            "sim.wheel.cascades",
            "sim.ready_peak",
            "sim.queue_peak",
        ]
    );
    // An 8-rank barrier loop really does hand the token between fibers,
    // and every grant is accounted for: a self-resume, an inline grant by
    // the yielding rank, or one of the driver's (the first grant, plus at
    // most one per rank body that returned).
    let get = |name| r.metrics.get(name).unwrap();
    assert_eq!(get("sim.wheel.cascades"), 0);
    assert!(get("sim.direct.handoffs") > 0);
    let inline =
        get("sim.fast_resumes") + get("sim.direct.handoffs") + get("sim.direct.self_resumes");
    let by_driver = get("sim.handoffs") - inline;
    assert!(
        (1..=8).contains(&by_driver),
        "driver made {by_driver} grants"
    );
    // The per-thread stack-pool counters are *not* per-run metrics: which
    // run maps a stack depends on what the worker ran before.
    assert!(!r.metrics.render().contains("sim.fiber."));
    assert!(r.stack_depth_peak > 0, "ranks parked, so a depth was seen");
}

// ---------------------------------------------------------------------------
// Multi-VI endpoints: stripe channels and the MPI+threads producer model.
// ---------------------------------------------------------------------------

/// A threads-per-rank pair exchange with `vis_per_peer` stripe VIs per
/// pair, on BVIA (whose per-VI polling + lock-convoy charges make the
/// endpoint model observable in virtual time).
fn multivi_run(vis_per_peer: usize, threads: usize) -> RunReport<Option<f64>> {
    let mut uni = Universe::new(2, Device::Berkeley, ConnMode::OnDemand, WaitPolicy::Polling);
    uni.config_mut().vis_per_peer = vis_per_peer;
    uni.run(move |mpi| {
        let peer = 1 - mpi.rank();
        viampi_npb::patterns::threaded_pair_exchange(mpi, peer, threads, 24, 256);
        Some(mpi.now().as_secs_f64())
    })
    .unwrap()
}

#[test]
fn multivi_exchange_is_bit_identical_across_repeats() {
    for (vis, threads) in [(1usize, 4usize), (4, 4)] {
        let a = multivi_run(vis, threads);
        let b = multivi_run(vis, threads);
        assert_eq!(
            fingerprint(&a),
            fingerprint(&b),
            "repeat multi-VI run (S={vis}, T={threads}) must be bit-identical"
        );
        assert_eq!(
            a.metrics.render(),
            b.metrics.render(),
            "multi-VI metrics (S={vis}, T={threads}) must replay bit-identically"
        );
    }
}

#[test]
fn multivi_endpoint_counter_names_are_pinned() {
    // The endpoint/convoy observability counters are part of the metrics
    // interface: dotted names must not drift, and a striped multi-producer
    // run must actually exercise stripe setup, striped sends and the
    // shared-VI convoy accounting.
    let r = multivi_run(4, 4);
    let rendered = r.metrics.render();
    for name in [
        "mpi.endpoint.stripe_setups",
        "mpi.endpoint.striped_sends",
        "mpi.endpoint.vis_per_peer",
        "mpi.endpoint.threads_max",
        "nic.vi.producer_switches",
        "nic.vi.convoy_ns",
        "nic.vi.multi_producer_vis",
    ] {
        assert!(
            rendered.contains(name),
            "snapshot is missing {name}:\n{rendered}"
        );
    }
    assert!(
        r.metrics.get("mpi.endpoint.stripe_setups").unwrap() > 0,
        "striped run must provision non-zero stripes"
    );
    assert!(
        r.metrics.get("mpi.endpoint.striped_sends").unwrap() > 0,
        "striped run must send on non-zero stripes"
    );
    assert_eq!(r.metrics.get("mpi.endpoint.vis_per_peer"), Some(4));
    // A shared-VI multi-producer run pays convoys; the default does not.
    let shared = multivi_run(1, 4);
    assert!(
        shared.metrics.get("nic.vi.producer_switches").unwrap() > 0,
        "shared-VI multi-producer run must count producer switches"
    );
    let default = multivi_run(1, 1);
    assert_eq!(default.metrics.get("nic.vi.producer_switches"), Some(0));
    assert_eq!(default.metrics.get("mpi.endpoint.striped_sends"), Some(0));
}
