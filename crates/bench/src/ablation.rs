//! Ablation studies for the design choices DESIGN.md calls out: spincount,
//! eager threshold, credit count, the BVIA per-VI cost, and the dynamic
//! credit window (the paper's §6 future work, implemented).

use crate::micro;
use crate::record;
use crate::report::{kib, milli, Output};
use crate::runner::par_map;
use viampi_core::{nic_metrics, ConnMode, Device, Universe, WaitPolicy};
use viampi_npb::llc;

record! {
    /// One point of a sweep: the swept parameter and what was measured
    /// there. Each ablation names its own two columns.
    pub struct AblationPoint {
        /// Swept parameter value (∞ — JSON `null` — is "no limit").
        param: f64 = "param" => swept,
        /// Metric (µs or MB/s, see the ablation).
        value: f64 = "value",
    }
}

/// A swept parameter as a column: a whole number, or `polling` for the
/// spincount sweep's ∞.
fn swept(param: &f64) -> String {
    if param.is_infinite() {
        "polling".into()
    } else {
        format!("{}", *param as u64)
    }
}

/// A two-rank on-demand cLAN world, the bandwidth ablations' testbed.
fn clan_pair() -> Universe {
    Universe::new(2, Device::Clan, ConnMode::OnDemand, WaitPolicy::Polling)
}

/// Barrier latency vs spincount on cLAN (np = 8, static management): why
/// MVICH's default of 100 sits in the bad zone and polling (≈∞) wins.
pub fn spincount(jobs: usize) -> Output {
    let points = par_map(jobs, vec![0u32, 10, 50, 100, 400, 2000, u32::MAX], |sc| {
        let (param, wait) = match sc {
            u32::MAX => (f64::INFINITY, WaitPolicy::Polling),
            _ => (sc as f64, WaitPolicy::SpinWait { spincount: sc }),
        };
        let report = Universe::new(8, Device::Clan, ConnMode::StaticPeerToPeer, wait)
            .run(|mpi| llc::barrier_latency(mpi, 300))
            .unwrap();
        AblationPoint {
            param,
            value: report.results[0].unwrap(),
        }
    });
    Output::titled(
        "Ablation — barrier latency (np=8, cLAN static) vs spincount",
        &["spincount", "barrier (us)"],
        &points,
    )
}

/// Bandwidth at a probe size (8 KiB, the message size the paper's jump
/// hurts) vs the eager→rendezvous threshold: the paper's ">5000 bytes would
/// be better" remark, quantified.
pub fn eager_threshold(jobs: usize) -> Output {
    let thresholds = vec![1024usize, 2048, 5000, 8192, 16_384, 32_768, 65_536];
    let points = par_map(jobs, thresholds, |thr| {
        let mut uni = clan_pair();
        uni.config_mut().eager_threshold = thr;
        AblationPoint {
            param: thr as f64,
            value: micro::bandwidth_in(uni, 8192, 20, 8, true).results[0],
        }
    });
    Output::titled(
        "Ablation — 8 KiB-message bandwidth vs eager threshold (cLAN)",
        &["threshold (B)", "MB/s"],
        &points,
    )
}

/// Streaming bandwidth vs per-VI credit count: the flow-control window
/// trade against pinned memory.
pub fn credits(jobs: usize) -> Output {
    let points = par_map(jobs, vec![2usize, 4, 8, 15, 32, 64], |nbufs| {
        let mut uni = clan_pair();
        uni.config_mut().num_bufs = nbufs;
        AblationPoint {
            param: nbufs as f64,
            value: micro::bandwidth_in(uni, 4096, 1, 200, true).results[0],
        }
    });
    Output::titled(
        "Ablation — 4 KiB streaming bandwidth vs per-VI credits (cLAN)",
        &["credits", "MB/s"],
        &points,
    )
}

record! {
    /// The per-VI sweep's point: [`AblationPoint`]'s keys, the ratio
    /// printed to three decimals.
    pub struct RatioPoint {
        /// Per-VI doorbell-scan cost, ns.
        param: f64 = "per-VI scan (ns)" => swept,
        /// Static over on-demand per-message cost.
        value: f64 = "static/od ratio" => milli,
    }
}

/// Sensitivity of the BVIA on-demand advantage to the per-VI doorbell-scan
/// cost: sweep the Fig.-1 slope and report the static/on-demand barrier
/// ratio at np = 8.
pub fn per_vi_cost(jobs: usize) -> Output {
    let points = par_map(jobs, vec![0u64, 400, 800, 1400, 2800, 5600], |scan_ns| {
        let mut profile = viampi_via::DeviceProfile::berkeley();
        profile.per_vi_poll = viampi_sim::SimDuration::nanos(scan_ns);
        // Ratio proxy: VIA-level latency with 7 live VIs (static mesh at
        // np=8) over latency with 2 live VIs (on-demand barrier tree).
        let with_static = micro::via_latency_with_idle_vis(profile.clone(), 4, 6);
        let with_od = micro::via_latency_with_idle_vis(profile, 4, 1);
        RatioPoint {
            param: scan_ns as f64,
            value: with_static / with_od,
        }
    });
    Output::of(
        "Ablation — BVIA static/on-demand per-message cost ratio vs per-VI scan cost",
        &points,
    )
}

record! {
    /// One dynamic-window row as printed. The record keeps only
    /// [`AblationPoint`]'s two keys of it (messages, MB/s).
    struct WindowRow {
        /// Messages streamed.
        msgs: usize = "messages",
        /// Fixed 15-buffer window or the 4→15 adaptive one.
        dynamic: bool = "window" => |d: &bool| if *d { "dynamic" } else { "fixed" }.to_string(),
        /// Achieved bandwidth, MB/s.
        bw: f64 = "MB/s",
        /// Rank 0's peak pinned bytes.
        pinned: usize = "pinned" => kib,
    }
}

/// The implemented future-work extension (§6): dynamic per-VI flow
/// control. Compare pinned memory and achieved bandwidth between the fixed
/// 15-buffer window and a 4→15 adaptive window, across traffic volumes.
pub fn dynamic_window(jobs: usize) -> Output {
    let grid = [2usize, 20, 200]
        .into_iter()
        .flat_map(|msgs| [(msgs, false), (msgs, true)])
        .collect();
    let rows = par_map(jobs, grid, |(msgs, dynamic)| {
        let mut uni = clan_pair();
        uni.config_mut().os_noise = false;
        uni.config_mut().dynamic_credits = dynamic;
        let report = micro::bandwidth_in(uni, 2048, 1, msgs, false);
        WindowRow {
            msgs,
            dynamic,
            bw: report.results[0],
            pinned: report.ranks[0].nic.gauge(nic_metrics::PINNED_PEAK) as usize,
        }
    });
    let points: Vec<AblationPoint> = rows
        .iter()
        .map(|r| AblationPoint {
            param: r.msgs as f64,
            value: r.bw,
        })
        .collect();
    Output {
        json: crate::json::to_string_pretty(&points),
        ..Output::of(
            "Ablation — dynamic per-VI flow control (paper §6 future work)",
            &rows,
        )
    }
}
