//! Ablation studies for the design choices DESIGN.md calls out:
//! spincount, eager threshold, credit count, and the BVIA per-VI cost.

use crate::impl_json;
use crate::micro;
use crate::report::{fmt, table, write_json};
use crate::runner;
use viampi_core::{ConnMode, Device, Universe, WaitPolicy};
use viampi_npb::llc;

/// Generic ablation point.
#[derive(Debug, Clone)]
pub struct AblationPoint {
    /// Swept parameter value.
    pub param: f64,
    /// Metric (µs or MB/s, see the ablation).
    pub value: f64,
}

impl_json!(AblationPoint { param, value });

/// Barrier latency vs spincount on cLAN (static management): why MVICH's
/// default of 100 sits in the bad zone and polling (≈∞) wins.
pub fn spincount(np: usize) -> (String, Vec<AblationPoint>) {
    let points = runner::timed("ablation_spincount", || {
        runner::par_map(vec![0u32, 10, 50, 100, 400, 2000, u32::MAX], |sc| {
            let wait = if sc == u32::MAX {
                WaitPolicy::Polling
            } else {
                WaitPolicy::SpinWait { spincount: sc }
            };
            let report = Universe::new(np, Device::Clan, ConnMode::StaticPeerToPeer, wait)
                .run(|mpi| llc::barrier_latency(mpi, 300))
                .unwrap();
            AblationPoint {
                param: if sc == u32::MAX {
                    f64::INFINITY
                } else {
                    sc as f64
                },
                value: report.results[0].unwrap(),
            }
        })
    });
    write_json("ablation_spincount", &points);
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                if p.param.is_infinite() {
                    "polling".into()
                } else {
                    format!("{}", p.param as u64)
                },
                fmt(p.value),
            ]
        })
        .collect();
    (
        format!(
            "Ablation — barrier latency (np={np}, cLAN static) vs spincount\n\n{}",
            table(&["spincount", "barrier (us)"], &rows)
        ),
        points,
    )
}

/// Bandwidth at a probe size vs the eager→rendezvous threshold: the
/// paper's ">5000 bytes would be better" remark, quantified.
pub fn eager_threshold() -> (String, Vec<AblationPoint>) {
    let probe = 8192usize; // the message size the paper's jump hurts
    let thresholds = vec![1024usize, 2048, 5000, 8192, 16_384, 32_768, 65_536];
    let points = runner::timed("ablation_threshold", || {
        runner::par_map(thresholds, |thr| {
            let mut uni = Universe::new(2, Device::Clan, ConnMode::OnDemand, WaitPolicy::Polling);
            uni.config_mut().eager_threshold = thr;
            let report = uni
                .run(move |mpi| {
                    let buf = vec![1u8; probe];
                    if mpi.rank() == 0 {
                        mpi.send(&buf, 1, 0); // warm up
                    } else {
                        mpi.recv(Some(0), Some(0));
                    }
                    let t0 = mpi.now();
                    let bursts = 20;
                    for _ in 0..bursts {
                        if mpi.rank() == 0 {
                            let reqs: Vec<_> = (0..8).map(|_| mpi.isend(&buf, 1, 1)).collect();
                            mpi.waitall(&reqs);
                            mpi.recv(Some(1), Some(2));
                        } else {
                            let reqs: Vec<_> =
                                (0..8).map(|_| mpi.irecv(Some(0), Some(1))).collect();
                            mpi.waitall(&reqs);
                            mpi.send(&[1], 0, 2);
                        }
                    }
                    (bursts * 8 * probe) as f64 / mpi.now().since(t0).as_secs_f64() / 1e6
                })
                .unwrap();
            AblationPoint {
                param: thr as f64,
                value: report.results[0],
            }
        })
    });
    write_json("ablation_threshold", &points);
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| vec![format!("{}", p.param as u64), fmt(p.value)])
        .collect();
    (
        format!(
            "Ablation — 8 KiB-message bandwidth vs eager threshold (cLAN)\n\n{}",
            table(&["threshold (B)", "MB/s"], &rows)
        ),
        points,
    )
}

/// Streaming bandwidth vs per-VI credit count: the flow-control window
/// trade against pinned memory.
pub fn credits() -> (String, Vec<AblationPoint>) {
    let points = runner::timed("ablation_credits", || {
        runner::par_map(vec![2usize, 4, 8, 15, 32, 64], |nbufs| {
            let mut uni = Universe::new(2, Device::Clan, ConnMode::OnDemand, WaitPolicy::Polling);
            uni.config_mut().num_bufs = nbufs;
            let report = uni
                .run(|mpi| {
                    let buf = vec![1u8; 4096];
                    if mpi.rank() == 0 {
                        mpi.send(&buf, 1, 0);
                    } else {
                        mpi.recv(Some(0), Some(0));
                    }
                    let t0 = mpi.now();
                    let n = 200;
                    if mpi.rank() == 0 {
                        let reqs: Vec<_> = (0..n).map(|_| mpi.isend(&buf, 1, 1)).collect();
                        mpi.waitall(&reqs);
                        mpi.recv(Some(1), Some(2));
                    } else {
                        let reqs: Vec<_> = (0..n).map(|_| mpi.irecv(Some(0), Some(1))).collect();
                        mpi.waitall(&reqs);
                        mpi.send(&[1], 0, 2);
                    }
                    (n * 4096) as f64 / mpi.now().since(t0).as_secs_f64() / 1e6
                })
                .unwrap();
            AblationPoint {
                param: nbufs as f64,
                value: report.results[0],
            }
        })
    });
    write_json("ablation_credits", &points);
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| vec![format!("{}", p.param as u64), fmt(p.value)])
        .collect();
    (
        format!(
            "Ablation — 4 KiB streaming bandwidth vs per-VI credits (cLAN)\n\n{}",
            table(&["credits", "MB/s"], &rows)
        ),
        points,
    )
}

/// Sensitivity of the BVIA on-demand advantage to the per-VI doorbell-scan
/// cost: sweep the Fig.-1 slope and report the static/on-demand barrier
/// ratio at np = 8.
pub fn per_vi_cost() -> (String, Vec<AblationPoint>) {
    let points = runner::timed("ablation_pervi", || {
        runner::par_map(vec![0u64, 400, 800, 1400, 2800, 5600], |scan_ns| {
            let mut profile = viampi_via::DeviceProfile::berkeley();
            profile.per_vi_poll = viampi_sim::SimDuration::nanos(scan_ns);
            // Ratio proxy: VIA-level latency with 7 live VIs (static mesh at
            // np=8) over latency with 2 live VIs (on-demand barrier tree).
            let with_static = micro::via_latency_with_idle_vis(profile.clone(), 4, 6);
            let with_od = micro::via_latency_with_idle_vis(profile, 4, 1);
            AblationPoint {
                param: scan_ns as f64,
                value: with_static / with_od,
            }
        })
    });
    write_json("ablation_pervi", &points);
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| vec![format!("{}", p.param as u64), format!("{:.3}", p.value)])
        .collect();
    (
        format!(
            "Ablation — BVIA static/on-demand per-message cost ratio vs per-VI scan cost\n\n{}",
            table(&["per-VI scan (ns)", "static/od ratio"], &rows)
        ),
        points,
    )
}

/// The implemented future-work extension (§6): dynamic per-VI flow
/// control. Compare pinned memory and achieved bandwidth between the fixed
/// 15-buffer window and a 4→15 adaptive window, across traffic volumes.
pub fn dynamic_window() -> (String, Vec<AblationPoint>) {
    let mut items = Vec::new();
    for &msgs in &[2usize, 20, 200] {
        for dynamic in [false, true] {
            items.push((msgs, dynamic));
        }
    }
    let measured = runner::timed("ablation_dynamic_window", || {
        runner::par_map(items, |(msgs, dynamic)| {
            let mut uni = Universe::new(2, Device::Clan, ConnMode::OnDemand, WaitPolicy::Polling);
            uni.config_mut().os_noise = false;
            uni.config_mut().dynamic_credits = dynamic;
            let report = uni
                .run(move |mpi| {
                    let buf = vec![1u8; 2048];
                    let t0 = mpi.now();
                    if mpi.rank() == 0 {
                        let reqs: Vec<_> = (0..msgs).map(|_| mpi.isend(&buf, 1, 1)).collect();
                        mpi.waitall(&reqs);
                        mpi.recv(Some(1), Some(2));
                    } else {
                        let reqs: Vec<_> = (0..msgs).map(|_| mpi.irecv(Some(0), Some(1))).collect();
                        mpi.waitall(&reqs);
                        mpi.send(&[1], 0, 2);
                    }
                    let secs = mpi.now().since(t0).as_secs_f64();
                    (
                        (msgs as f64 * 2048.0) / secs / 1e6,
                        mpi.nic_stats().pinned_peak,
                    )
                })
                .unwrap();
            let (bw, pinned) = report.results[0];
            (msgs, dynamic, bw, pinned)
        })
    });
    let mut rows = Vec::new();
    let mut points = Vec::new();
    for (msgs, dynamic, bw, pinned) in measured {
        rows.push(vec![
            msgs.to_string(),
            if dynamic {
                "dynamic".into()
            } else {
                "fixed".to_string()
            },
            fmt(bw),
            format!("{}K", pinned >> 10),
        ]);
        points.push(AblationPoint {
            param: msgs as f64,
            value: bw,
        });
    }
    write_json("ablation_dynamic_window", &points);
    (
        format!(
            "Ablation — dynamic per-VI flow control (paper §6 future work)\n\n{}",
            table(&["messages", "window", "MB/s", "pinned"], &rows)
        ),
        points,
    )
}
