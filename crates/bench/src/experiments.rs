//! The experiment table. [`ALL`] is the one list of what this harness
//! regenerates — every paper table and figure, the ablations, the
//! beyond-paper series, the standard fault sweep and the two pinned
//! artifacts (exact scheduling counts and a Chrome trace) — and `repro_all`
//! is the one executable that walks it. A row is a record name and a
//! function from a worker count to an [`Output`]; computing one writes
//! nothing.
//!
//! Every driver fans its configuration grid out over
//! [`par_map`]: each grid point is an independent deterministic
//! simulation, and results are collected by index, so the tables and JSON
//! records are byte-identical at any `jobs`.

use crate::report::{kib, milli, table, Output};
use crate::runner::par_map;
use crate::{ablation, micro, profile, record, simcheck};
use viampi_core::{ConnMode, Device, Mpi, RunReport, Universe, WaitPolicy};
use viampi_npb::{adi, cg, ep, ft, is, llc, lu, mg, patterns, ring, Class};
use viampi_via::DeviceProfile;

/// One row of [`ALL`].
pub struct Experiment {
    /// The record's name: `results/<name>.json`.
    pub name: &'static str,
    /// Compute the record and its table on `jobs` workers.
    pub run: fn(jobs: usize) -> Output,
}

const fn row(name: &'static str, run: fn(usize) -> Output) -> Experiment {
    Experiment { name, run }
}

/// Every experiment, in the order `repro_all` runs them: the paper's
/// evaluation, the DESIGN.md ablations, then what the repo adds. Adding an
/// experiment is adding a row here and its record under `results/`
/// (`tests/records.rs` fails until both exist).
pub const ALL: &[Experiment] = &[
    row("fig1_vi_scaling", fig1),
    row("tab1_destinations", tab1),
    row("tab2_resources", tab2),
    row("fig2_latency", fig2),
    row("fig3_bandwidth", fig3),
    row("fig4_barrier_latency", fig4),
    row("fig5_allreduce_latency", fig5),
    row("fig6_npb_clan", fig6),
    row("fig7_npb_bvia", fig7),
    row("fig8_init_time", fig8),
    row("ablation_spincount", ablation::spincount),
    row("ablation_threshold", ablation::eager_threshold),
    row("ablation_credits", ablation::credits),
    row("ablation_pervi", ablation::per_vi_cost),
    row("ablation_dynamic_window", ablation::dynamic_window),
    row("ft_lu_supplement", ft_lu_supplement),
    row("fig9_threads", fig9),
    row("fig8_largen", fig8_largen),
    row("tab2_largen", tab2_largen),
    row("simcheck", simcheck::standard_sweep),
    row("perf_exact", perf_exact),
    row("trace_ring_np2", profile::ring_np2),
];

/// The row called `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    ALL.iter().find(|e| e.name == name)
}

type Config = (&'static str, ConnMode, WaitPolicy);

/// The configurations of §5.3: three on cLAN, two on Berkeley VIA (where
/// wait *is* poll, so spinwait and polling coincide).
fn configs_for(device: Device) -> &'static [Config] {
    const SPINWAIT: Config = (
        "static-spinwait",
        ConnMode::StaticPeerToPeer,
        WaitPolicy::SpinWait { spincount: 100 },
    );
    const POLLING: Config = (
        "static-polling",
        ConnMode::StaticPeerToPeer,
        WaitPolicy::Polling,
    );
    const ON_DEMAND: Config = ("on-demand", ConnMode::OnDemand, WaitPolicy::Polling);
    match device {
        Device::Clan => &[SPINWAIT, POLLING, ON_DEMAND],
        Device::Berkeley => &[POLLING, ON_DEMAND],
    }
}

const DEVICES: [Device; 2] = [Device::Clan, Device::Berkeley];

// ========================================================================
// Figure 1 — BVIA latency vs number of active VIs
// ========================================================================

record! {
    /// One Fig. 1 series point.
    pub struct Fig1Point {
        /// Device profile name.
        device: String = "device",
        /// Message size in bytes.
        size: usize = "bytes",
        /// Total active VIs on the NIC (idle + the one in use).
        active_vis: usize = "active VIs",
        /// One-way latency in µs.
        latency_us: f64 = "latency (us)",
    }
}

/// Fig. 1: VIA-level latency as a function of active VIs.
fn fig1(jobs: usize) -> Output {
    let mut grid = Vec::new();
    for profile in [DeviceProfile::berkeley(), DeviceProfile::clan()] {
        for size in [4usize, 1024, 4096] {
            for idle in [0usize, 1, 3, 7, 11, 15] {
                grid.push((profile.clone(), size, idle));
            }
        }
    }
    let points = par_map(jobs, grid, |(profile, size, idle)| Fig1Point {
        device: profile.name.into(),
        size,
        active_vis: idle + 1,
        latency_us: micro::via_latency_with_idle_vis(profile, size, idle),
    });
    Output::of(
        "Figure 1 — latency vs number of active VIs (paper: BVIA grows, hardware VIA flat)",
        &points,
    )
}

// ========================================================================
// Table 1 — average distinct destinations per process
// ========================================================================

record! {
    /// One Table 1 row.
    pub struct Tab1Row {
        /// Application model.
        app: String = "app",
        /// Rank count.
        np: usize = "procs",
        /// Mean distinct destinations per process.
        avg_destinations: f64 = "measured",
        /// The paper's value (from Vetter & Mueller), for comparison.
        paper: f64 = "paper",
    }
}

/// Table 1, from the pattern generators (no simulation, so no workers).
fn tab1(_jobs: usize) -> Output {
    type PatternGen = fn(usize) -> Vec<std::collections::BTreeSet<usize>>;
    let apps: [(&str, PatternGen, [f64; 2]); 6] = [
        ("sPPM", patterns::sppm, [5.5, 6.0]),
        ("SMG2000", patterns::smg2000, [41.88, 1023.0]),
        ("Sphot", patterns::sphot, [0.98, 1.0]),
        ("Sweep3D", patterns::sweep3d, [3.5, 4.0]),
        ("Samrai4", patterns::samrai, [4.94, 10.0]),
        ("CG", patterns::cg, [6.36, 11.0]),
    ];
    let mut rows = Vec::new();
    for (name, gen, paper) in apps {
        for (np, paper) in [64usize, 1024].into_iter().zip(paper) {
            rows.push(Tab1Row {
                app: name.into(),
                np,
                avg_destinations: patterns::average_destinations(&gen(np)),
                paper,
            });
        }
    }
    Output::of(
        "Table 1 — average number of distinct destinations per process",
        &rows,
    )
}

// ========================================================================
// Table 2 — VIs and resource utilization per workload
// ========================================================================

record! {
    /// One Table 2 row.
    pub struct Tab2Row {
        /// Workload.
        app: String = "app",
        /// Ranks.
        np: usize = "size",
        /// Average live VIs per process, static management.
        static_vis: f64 = "VIs st",
        /// Average live VIs per process, on-demand management.
        ondemand_vis: f64 = "VIs od",
        /// Utilization (used/created), static.
        static_util: f64 = "util st",
        /// Utilization, on-demand.
        ondemand_util: f64 = "util od",
        /// Peak pinned eager-pool bytes per process, static.
        static_pinned: usize = "pin st" => kib,
        /// Peak pinned bytes per process, on-demand.
        ondemand_pinned: usize = "pin od" => kib,
    }
}

/// A named rank body. `_ =` drops each kernel's own result: the resource
/// tables read the run's report, not what the ranks return.
type Workload = (&'static str, fn(&Mpi));

/// Table 2's workloads that run at any rank count.
const TAB2_APPS: [Workload; 11] = [
    ("Ring", |mpi| _ = ring::run(mpi, 4, 64)),
    ("Barrier", |mpi| _ = llc::barrier_latency(mpi, 20)),
    ("Allreduce", |mpi| _ = llc::allreduce_latency(mpi, 20, 4)),
    ("Alltoall", |mpi| _ = llc::alltoall_latency(mpi, 5, 64)),
    ("Allgather", |mpi| _ = llc::allgather_latency(mpi, 5, 64)),
    ("Bcast", |mpi| _ = llc::bcast_latency(mpi, 20, 64)),
    ("CG", |mpi| _ = cg::run(mpi, Class::S)),
    ("MG", |mpi| _ = mg::run(mpi, Class::S)),
    ("IS", |mpi| _ = is::run(mpi, Class::S)),
    ("EP", |mpi| _ = ep::run(mpi, Class::S)),
    // FT needs the grid side divisible by np: class S (16³) up to 16
    // ranks, class A (32³) beyond.
    ("FT", |mpi| {
        let class = if mpi.size() > 16 { Class::A } else { Class::S };
        ft::run(mpi, class);
    }),
];

/// The ones that need a square rank count.
const TAB2_SQUARE_APPS: [Workload; 3] = [
    ("SP", |mpi| _ = adi::run(mpi, adi::App::Sp, Class::S)),
    ("BT", |mpi| _ = adi::run(mpi, adi::App::Bt, Class::S)),
    ("LU", |mpi| _ = lu::run(mpi, Class::S)),
];

/// Table 2 at the paper's sizes: 16 and 32, with SP/BT/LU at 16 and, 32
/// not being square, 36.
fn tab2(jobs: usize) -> Output {
    let mut grid = Vec::new();
    for (np, square) in [(16usize, 16usize), (32, 36)] {
        grid.extend(TAB2_APPS.map(|app| (app, np)));
        grid.extend(TAB2_SQUARE_APPS.map(|app| (app, square)));
    }
    let rows = par_map(jobs, grid, |((app, body), np)| {
        let run = |conn| {
            Universe::new(np, Device::Clan, conn, WaitPolicy::Polling)
                .run(body)
                .unwrap()
        };
        let st = run(ConnMode::StaticPeerToPeer);
        let od = run(ConnMode::OnDemand);
        Tab2Row {
            app: app.into(),
            np,
            static_vis: st.avg_vis(),
            ondemand_vis: od.avg_vis(),
            static_util: st.utilization(),
            ondemand_util: od.utilization(),
            static_pinned: st.max_pinned(),
            ondemand_pinned: od.max_pinned(),
        }
    });
    Output::of(
        "Table 2 — average VIs and resource utilization per process",
        &rows,
    )
}

// ========================================================================
// Figures 2 & 3 — latency and bandwidth
// ========================================================================

record! {
    /// One latency/bandwidth point.
    pub struct MicroPoint {
        /// Device.
        device: String = "device",
        /// Configuration label.
        config: String = "config",
        /// Message size in bytes.
        size: usize = "bytes",
        /// Metric value (µs for latency, MB/s for bandwidth); the figure
        /// names the column.
        value: f64 = "value",
    }
}

/// The grid Figs. 2 and 3 share: every device × configuration × size, one
/// two-rank `measure` each.
fn micro_sweep(
    jobs: usize,
    title: &str,
    metric: &str,
    sizes: &[usize],
    measure: fn(Device, ConnMode, WaitPolicy, usize) -> f64,
) -> Output {
    let mut grid = Vec::new();
    for device in DEVICES {
        for &config in configs_for(device) {
            grid.extend(sizes.iter().map(|&size| (device, config, size)));
        }
    }
    let points = par_map(jobs, grid, |(device, (label, conn, wait), size)| {
        MicroPoint {
            device: device.name().into(),
            config: label.into(),
            size,
            value: measure(device, conn, wait, size),
        }
    });
    Output::titled(title, &["device", "config", "bytes", metric], &points)
}

/// Fig. 2: one-way latency vs message size.
fn fig2(jobs: usize) -> Output {
    micro_sweep(
        jobs,
        "Figure 2 — one-way latency vs message size (us)",
        "latency",
        &[0, 4, 16, 64, 256, 1024, 2048, 4096],
        |device, conn, wait, size| micro::pingpong_latency(device, conn, wait, size, 200),
    )
}

/// Fig. 3: bandwidth vs message size (the dip at the 5000-byte
/// eager→rendezvous threshold is the paper's §5.3 observation).
fn fig3(jobs: usize) -> Output {
    micro_sweep(
        jobs,
        "Figure 3 — bandwidth vs message size (MB/s)",
        "MB/s",
        &[
            64, 256, 1024, 2048, 4096, 4999, 5001, 8192, 16_384, 65_536, 262_144,
        ],
        |device, conn, wait, size| micro::bandwidth(device, conn, wait, size, 10, 8),
    )
}

// ========================================================================
// Figures 4 & 5 — barrier / allreduce latency vs process count
// ========================================================================

record! {
    /// One collective-latency point.
    pub struct CollPoint {
        /// Device.
        device: String = "device",
        /// Configuration label.
        config: String = "config",
        /// Ranks.
        np: usize = "procs",
        /// Mean latency in µs (llcbench methodology).
        latency_us: f64 = "latency",
    }
}

fn collective_sweep(jobs: usize, op: &str, timer: fn(&Mpi) -> Option<f64>) -> Output {
    let mut grid = Vec::new();
    for device in DEVICES {
        let nps: &[usize] = match device {
            Device::Clan => &[2, 3, 4, 6, 8, 12, 16, 24, 32],
            Device::Berkeley => &[2, 3, 4, 6, 8], // the paper could run ≤ 8 on BVIA
        };
        for &config in configs_for(device) {
            grid.extend(nps.iter().map(|&np| (device, config, np)));
        }
    }
    let points = par_map(jobs, grid, |(device, (label, conn, wait), np)| {
        let report = Universe::new(np, device, conn, wait).run(timer).unwrap();
        CollPoint {
            device: device.name().into(),
            config: label.into(),
            np,
            latency_us: report.results[0].expect("rank 0 reports"),
        }
    });
    Output::of(
        &format!("{op} latency vs process count (us, llcbench methodology)"),
        &points,
    )
}

/// Fig. 4 (barrier latency).
fn fig4(jobs: usize) -> Output {
    collective_sweep(jobs, "fig4_barrier", |mpi| llc::barrier_latency(mpi, 300))
}

/// Fig. 5 (allreduce latency, MPI_SUM over one double).
fn fig5(jobs: usize) -> Output {
    collective_sweep(jobs, "fig5_allreduce", |mpi| {
        llc::allreduce_latency(mpi, 300, 1)
    })
}

// ========================================================================
// Figures 6 & 7 (and Table 3, their `time (s)` column) — NAS benchmarks
// ========================================================================

/// NPB program selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Prog {
    Cg,
    Mg,
    Is,
    Ep,
    Sp,
    Bt,
    Ft,
    Lu,
}

record! {
    /// One NPB measurement. Key-only: the printed table is the normalized
    /// view [`npb_figure`] derives from the points.
    pub struct NpbPoint {
        /// Device.
        device: String,
        /// Configuration label.
        config: String,
        /// `PROG.CLASS.NP` label.
        label: String,
        /// Measured-region time in virtual seconds (max over ranks, as NPB
        /// reports) — the paper's Table 3.
        time_secs: f64,
        /// Verification outcome.
        verified: bool,
    }
}

type Instance = (Prog, Class, usize);

fn npb_point(device: Device, (label, conn, wait): Config, (prog, class, np): Instance) -> NpbPoint {
    let report = Universe::new(np, device, conn, wait)
        .run(move |mpi| match prog {
            Prog::Cg => cg::run(mpi, class),
            Prog::Mg => mg::run(mpi, class),
            Prog::Is => is::run(mpi, class),
            Prog::Ep => ep::run(mpi, class),
            Prog::Sp => adi::run(mpi, adi::App::Sp, class),
            Prog::Bt => adi::run(mpi, adi::App::Bt, class),
            Prog::Ft => ft::run(mpi, class),
            Prog::Lu => lu::run(mpi, class),
        })
        .unwrap();
    NpbPoint {
        device: device.name().into(),
        config: label.into(),
        label: report.results[0].label(),
        time_secs: report
            .results
            .iter()
            .map(|r| r.time_secs)
            .fold(0.0f64, f64::max),
        verified: report.results.iter().all(|r| r.verified),
    }
}

/// A full NPB figure: every instance under every configuration of
/// `device`, printed with the paper's y-axis (time over the instance's
/// static-polling time) beside the absolute seconds.
pub fn npb_figure(name: &str, device: Device, instances: &[Instance], jobs: usize) -> Output {
    let configs = configs_for(device);
    let mut grid = Vec::new();
    for &instance in instances {
        grid.extend(configs.iter().map(|&config| (config, instance)));
    }
    let points = par_map(jobs, grid, |(config, instance)| {
        npb_point(device, config, instance)
    });
    let mut rows = Vec::new();
    for of_instance in points.chunks(configs.len()) {
        let base = of_instance
            .iter()
            .find(|p| p.config == "static-polling")
            .map_or(1.0, |p| p.time_secs);
        for p in of_instance {
            rows.push(vec![
                p.label.clone(),
                p.config.clone(),
                milli(&p.time_secs),
                milli(&(p.time_secs / base)),
                if p.verified { "ok" } else { "FAIL" }.into(),
            ]);
        }
    }
    Output {
        json: crate::json::to_string_pretty(&points),
        text: format!(
            "{name} — NPB times on {} (normalized to static-polling)\n\n{}",
            device.name(),
            table(
                &["instance", "config", "time (s)", "normalized", "verify"],
                &rows
            )
        ),
    }
}

/// Fig. 6: the paper's cLAN instance list.
fn fig6(jobs: usize) -> Output {
    let mut instances = Vec::new();
    for prog in [Prog::Mg, Prog::Is, Prog::Cg] {
        for (class, np) in [
            (Class::A, 16),
            (Class::B, 16),
            (Class::A, 32),
            (Class::B, 32),
            (Class::C, 32),
        ] {
            instances.push((prog, class, np));
        }
    }
    for prog in [Prog::Sp, Prog::Bt] {
        instances.extend([(prog, Class::A, 16), (prog, Class::B, 16)]);
    }
    npb_figure("fig6_npb_clan", Device::Clan, &instances, jobs)
}

/// Fig. 7: the paper's Berkeley VIA instance list (≤ 8 processes).
fn fig7(jobs: usize) -> Output {
    let instances = [
        (Prog::Is, Class::A, 8),
        (Prog::Is, Class::B, 8),
        (Prog::Cg, Class::A, 8),
        (Prog::Cg, Class::B, 8),
        (Prog::Ep, Class::A, 8),
        (Prog::Cg, Class::A, 4),
        (Prog::Is, Class::A, 4),
        (Prog::Bt, Class::A, 4),
        (Prog::Sp, Class::A, 4),
    ];
    npb_figure("fig7_npb_bvia", Device::Berkeley, &instances, jobs)
}

/// Supplement: the two NPB programs the paper's suite lists (§5.5) but does
/// not plot — FT (alltoall transposes) and LU (pipelined wavefront) — under
/// every cLAN configuration.
fn ft_lu_supplement(jobs: usize) -> Output {
    let instances = [
        (Prog::Ft, Class::A, 16),
        (Prog::Ft, Class::A, 32),
        (Prog::Ft, Class::B, 16),
        (Prog::Lu, Class::A, 16),
        (Prog::Lu, Class::B, 16),
        (Prog::Lu, Class::A, 4),
    ];
    npb_figure("ft_lu_supplement", Device::Clan, &instances, jobs)
}

// ========================================================================
// Figure 8 — MPI_Init time, at the paper's sizes and at large N
// ========================================================================

record! {
    /// One init-time point.
    pub struct InitPoint {
        /// Device.
        device: String = "device",
        /// Connection mode.
        mode: String = "mode",
        /// Ranks.
        np: usize = "procs",
        /// Mean `MPI_Init` time across ranks, ms.
        init_ms: f64 = "init (ms)",
    }
}

/// The sweep Fig. 8 and its large-N extension share: one empty-bodied
/// world per grid point, reporting the mean `MPI_Init` time.
fn init_sweep(jobs: usize, title: &str, grid: Vec<(Device, ConnMode, usize)>) -> Output {
    let points = par_map(jobs, grid, |(device, mode, np)| {
        let report = Universe::new(np, device, mode, WaitPolicy::Polling)
            .run(|_mpi| ())
            .unwrap();
        InitPoint {
            device: device.name().into(),
            mode: mode.name().into(),
            np,
            init_ms: report.avg_init_time().as_secs_f64() * 1e3,
        }
    });
    Output::of(title, &points)
}

/// Fig. 8: `MPI_Init` time vs process count for client/server static,
/// peer-to-peer static, and on-demand.
fn fig8(jobs: usize) -> Output {
    use ConnMode::*;
    let mut grid = Vec::new();
    for device in DEVICES {
        let (modes, nps): (&[ConnMode], &[usize]) = match device {
            Device::Clan => (
                &[StaticClientServer, StaticPeerToPeer, OnDemand],
                &[2, 4, 6, 8, 10, 12, 14, 16],
            ),
            // BVIA provides only the peer-to-peer model.
            Device::Berkeley => (&[StaticPeerToPeer, OnDemand], &[2, 4, 6, 8]),
        };
        for &mode in modes {
            grid.extend(nps.iter().map(|&np| (device, mode, np)));
        }
    }
    init_sweep(jobs, "Figure 8 — MPI_Init time vs process count (ms)", grid)
}

/// The large-N grid: the paper's worst-case static setup (client/server on
/// cLAN; BVIA only implements peer-to-peer) vs on-demand. On-demand scales
/// to 4096 ranks. Static modes stop where the NIC VI table stops them: a
/// fully wired world needs np-1 VIs per process, so cLAN (`max_vis` 1024)
/// tops out at np = 1024 and BVIA (`max_vis` 256) at np = 256 — which is
/// the paper's resource argument made literal.
fn largen_grid() -> Vec<(Device, ConnMode, usize)> {
    let mut grid = Vec::new();
    for (device, static_mode, static_nps) in [
        (Device::Clan, ConnMode::StaticClientServer, &[256, 1024][..]),
        (Device::Berkeley, ConnMode::StaticPeerToPeer, &[256]),
    ] {
        grid.extend(static_nps.iter().map(|&np| (device, static_mode, np)));
        grid.extend([256, 1024, 4096].map(|np| (device, ConnMode::OnDemand, np)));
    }
    grid
}

/// Fig. 8 extension: `MPI_Init` time at np = 256/1024/4096 (static capped
/// by the VI table), both devices.
fn fig8_largen(jobs: usize) -> Output {
    init_sweep(
        jobs,
        "Figure 8 (large-N) — MPI_Init time vs process count (ms)",
        largen_grid(),
    )
}

record! {
    /// One large-N resource row.
    pub struct Tab2LargenRow {
        /// Workload name.
        app: String = "app",
        /// Device.
        device: String = "device",
        /// Connection-mode label.
        mode: String = "mode",
        /// Ranks.
        np: usize = "size",
        /// Average live VIs per process.
        avg_vis: f64 = "VIs",
        /// Utilization (used/created).
        utilization: f64 = "util",
        /// Peak pinned eager-pool bytes per process.
        pinned_peak: usize = "pin" => kib,
        /// Most channels any one rank materialized — the O(used-channels)
        /// witness: ≪ np for on-demand sparse workloads, np-1 for static.
        chan_peak: usize = "chan pk",
    }
}

/// Table 2 extension: VI/memory resources for a ring and a CG-style
/// neighbour exchange over the large-N grid.
fn tab2_largen(jobs: usize) -> Output {
    const APPS: [Workload; 2] = [
        ("Ring", |mpi| _ = ring::run(mpi, 4, 64)),
        ("CG-x", |mpi| {
            let partners = patterns::cg_rank(mpi.size(), mpi.rank());
            patterns::neighbor_exchange(mpi, &partners, 2, 64);
        }),
    ];
    let mut grid = Vec::new();
    for point in largen_grid() {
        grid.extend(APPS.map(|app| (app, point)));
    }
    let rows = par_map(jobs, grid, |((app, body), (device, mode, np))| {
        let report = Universe::new(np, device, mode, WaitPolicy::Polling)
            .run(body)
            .unwrap();
        Tab2LargenRow {
            app: app.into(),
            device: device.name().into(),
            mode: mode.name().into(),
            np,
            avg_vis: report.avg_vis(),
            utilization: report.utilization(),
            pinned_peak: report.max_pinned(),
            chan_peak: report
                .ranks
                .iter()
                .map(|r| r.channels.len())
                .max()
                .unwrap_or(0),
        }
    });
    Output::of("Table 2 (large-N) — resources per process at scale", &rows)
}

// ========================================================================
// Figure 9 — MPI+threads message rate: shared VI vs multi-VI endpoints
// ========================================================================

record! {
    /// One Fig. 9 series point: `threads` simulated producer threads per
    /// rank driving a bidirectional pair exchange, either funnelled through
    /// one shared VI per peer or striped across `vis_per_peer` endpoint VIs.
    pub struct Fig9Point {
        /// Device profile name.
        device: String = "device",
        /// Connection-mode label.
        mode: String = "mode",
        /// Endpoint layout: `shared` (one VI per pair) or `striped`
        /// (`vis_per_peer == threads`, one VI per producer thread).
        endpoints: String = "endpoints",
        /// Configured VIs per peer pair.
        vis_per_peer: usize = "VIs",
        /// Simulated producer threads per rank.
        threads: usize = "T",
        /// Steady-state message rate per rank, thousand msgs/s.
        rate_kmsgs: f64 = "kmsg/s",
        /// Total NIC producer switches (shared-VI lock-convoy events).
        producer_switches: u64 = "switches",
        /// Total virtual time charged to VI lock convoys, µs.
        convoy_us: f64 = "convoy (µs)",
    }
}

/// The Fig. 9 measurement kernel: per-rank steady-state message rate
/// (thousand msgs/s) of a `threads`-producer bidirectional pair exchange
/// at np = 2, with `vis_per_peer` endpoint VIs per pair, plus the run's
/// producer switches and convoy µs. A one-message warm-up round brings
/// every stripe up first (so on-demand connection setup stays out of the
/// measured window), then `msgs` messages per thread are timed.
pub fn threaded_rate(
    device: Device,
    mode: ConnMode,
    vis_per_peer: usize,
    threads: usize,
    msgs: usize,
    len: usize,
) -> (f64, u64, f64) {
    let mut uni = Universe::new(2, device, mode, WaitPolicy::Polling);
    uni.config_mut().vis_per_peer = vis_per_peer;
    let report = uni
        .run(move |mpi| {
            let peer = 1 - mpi.rank();
            patterns::threaded_pair_exchange(mpi, peer, threads, 1, len);
            let t0 = mpi.now();
            patterns::threaded_pair_exchange(mpi, peer, threads, msgs, len);
            (threads * msgs) as f64 / mpi.now().since(t0).as_secs_f64() / 1e3
        })
        .unwrap();
    let rate = report.results[0];
    let switches = report.metrics.get("nic.vi.producer_switches").unwrap_or(0);
    let convoy_us = report.metrics.get("nic.vi.convoy_ns").unwrap_or(0) as f64 / 1e3;
    (rate, switches, convoy_us)
}

/// Fig. 9: message rate vs producer threads T ∈ {1, 2, 4, 8} for a shared
/// single VI per pair vs `T` endpoint VIs (Zambre-style multi-VI
/// endpoints), under both connection modes on both devices. The shared VI
/// serializes producers through one doorbell and pays the device's
/// lock-convoy charge on every producer switch; striping trades that for
/// the NIC's per-VI polling overhead, and wins from T = 4 up.
fn fig9(jobs: usize) -> Output {
    const MSGS: usize = 256;
    const LEN: usize = 256;
    let mut grid = Vec::new();
    for device in DEVICES {
        for mode in [ConnMode::OnDemand, ConnMode::StaticPeerToPeer] {
            for threads in [1usize, 2, 4, 8] {
                for (endpoints, vis) in [("shared", 1usize), ("striped", threads)] {
                    grid.push((device, mode, threads, endpoints, vis));
                }
            }
        }
    }
    let points = par_map(jobs, grid, |(device, mode, threads, endpoints, vis)| {
        let (rate_kmsgs, producer_switches, convoy_us) =
            threaded_rate(device, mode, vis, threads, MSGS, LEN);
        Fig9Point {
            device: device.name().into(),
            mode: mode.name().into(),
            endpoints: endpoints.into(),
            vis_per_peer: vis,
            threads,
            rate_kmsgs,
            producer_switches,
            convoy_us,
        }
    });
    Output::of(
        "Figure 9 — MPI+threads message rate: shared VI vs multi-VI endpoints",
        &points,
    )
}

// ========================================================================
// Exact scheduling work — what a message and a channel cost the harness
// ========================================================================

record! {
    /// One exact work count: `count` units of scheduling work for `per`
    /// units of modelled work, both read from a finished world's metrics.
    pub struct ExactCount {
        /// What is counted, per what, in which world.
        name: String = "exact count",
        /// Units of scheduling work.
        count: u64 = "count",
        /// Units of modelled work.
        per: u64 = "per",
    }
}

fn metric<R>(report: &RunReport<R>, name: &str) -> u64 {
    report
        .metrics
        .get(name)
        .unwrap_or_else(|| panic!("the run published no `{name}`"))
}

/// Scheduling work counted, not timed, so the record means the same on any
/// machine and moves on *any* change to it: token switches, progress passes
/// and channel-table walks per wire message on fig4's largest cLAN point,
/// and world accesses per provisioned channel on fig8's static wiring.
fn perf_exact(_jobs: usize) -> Output {
    let world = |np, conn| Universe::new(np, Device::Clan, conn, WaitPolicy::Polling);
    let barrier = world(16, ConnMode::OnDemand)
        .run(|mpi| llc::barrier_latency(mpi, 300))
        .unwrap();
    let switches = metric(&barrier, "sim.handoffs")
        - metric(&barrier, "sim.fast_resumes")
        - metric(&barrier, "sim.direct.self_resumes");
    let messages = metric(&barrier, "nic.msgs_tx");
    let wiring = world(32, ConnMode::StaticPeerToPeer).run(|_| ()).unwrap();
    let counts = [
        ExactCount {
            name: "switches_per_message.barrier_np16_clan".into(),
            count: switches,
            per: messages,
        },
        ExactCount {
            name: "world_accesses_per_channel.static_np32_clan".into(),
            count: metric(&wiring, "sim.world_accesses"),
            per: metric(&wiring, "nic.vis_created"),
        },
        // The §3.3 property: progress passes are many per message, so an
        // idle one must not walk the channel table.
        ExactCount {
            name: "progress_passes_per_message.barrier_np16_clan".into(),
            count: metric(&barrier, "mpi.progress_passes"),
            per: messages,
        },
        ExactCount {
            name: "table_walks_per_message.barrier_np16_clan".into(),
            count: metric(&barrier, "mpi.table_walks"),
            per: messages,
        },
    ];
    Output::of(
        "Exact scheduling work per message and per channel (counts, not time)",
        &counts,
    )
}
