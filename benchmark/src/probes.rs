//! Probes: the unit cost of one public operation of each layer, timed in
//! isolation. They do not depend on the workload; the traced pass takes
//! them once and copies them beside each workload's counts, where
//! `count × probe cost` forms that layer's `est_s` row.

use crate::api::{self, Batch};
use crate::stats;
use crate::workloads::Rng;
use std::time::Instant;

/// Every probe's result, in the unit its metric name carries.
#[derive(Debug, Clone, Copy)]
pub struct Probes {
    pub engine_switch_ns: f64,
    pub engine_advance_ns: f64,
    pub engine_spawn_us_per_proc: f64,
    pub queue_push_pop_ns: f64,
    pub pool_copy_ns_per_kib: f64,
    pub pool_alloc_small_ns: f64,
    pub via_msg_host_us: f64,
    pub via_connect_host_us: f64,
    /// `via_msg_host_us` minus the process switches and queue events the same
    /// ping-pong spent, priced at the engine and queue probes: what is left
    /// for the NIC/fabric model itself. An estimate.
    pub via_self_us_per_msg: f64,
    pub mpi_msg_host_us: f64,
    pub mpi_rndv_ns_per_kib: f64,
    pub matching_post_match_ns: f64,
    pub matching_unexpected_scan_ns: f64,
}

/// Repeat `batch` for about `budget_s` (at least three times) and return
/// the median seconds per operation with the last batch's counts.
fn per_op(budget_s: f64, mut batch: impl FnMut() -> Batch) -> (f64, Batch) {
    let t = Instant::now();
    let mut samples = Vec::new();
    let mut last = batch(); // warm-up, not sampled
    while samples.len() < 3 || t.elapsed().as_secs_f64() < budget_s {
        last = batch();
        samples.push(last.wall_s / last.ops as f64);
    }
    (stats::median(&samples), last)
}

/// Run every probe, spending roughly `budget_s` in all. `seed` draws the
/// event queue's timestamps.
pub fn run(seed: u64, budget_s: f64) -> Probes {
    let each = budget_s / 12.0;

    let (switch_s, _) = per_op(each, || api::engine_token_pass(1000));
    let (advance_s, _) = per_op(each, || api::engine_lone_advance(1_000_000));
    let (spawn_s, _) = per_op(each, || api::engine_spawn(256));

    // Mixed horizons, so pushes land on every level of the timing wheel.
    let mut rng = Rng::new(seed ^ 0x0051_EDED);
    let times: Vec<u64> = (0..1000u64)
        .map(|i| rng.below(1 << [11u32, 17, 22, 34][(i % 4) as usize]))
        .collect();
    let (push_pop_s, _) = per_op(each, || api::queue_push_pop(&times));

    let payload = vec![0xA5u8; 16 << 10];
    let (frame_s, _) = per_op(each, || api::pool_prefixed(&payload, 2000));
    let (alloc_s, _) = per_op(each, || api::pool_alloc(64, 20_000));

    let (via_msg_s, via_batch) = per_op(each, || api::via_pingpong(256, 500));
    let (via_conn_s, _) = per_op(each, || api::via_connect(64));
    let (mpi_msg_s, _) = per_op(each, || api::mpi_pingpong(256, 500));
    let (rndv_s, _) = per_op(each, || api::mpi_pingpong(64 << 10, 50));
    let (post_match_s, _) = per_op(each, || api::matching_post_match(64, 200));
    let (scan_s, _) = per_op(each, || api::matching_unexpected_scan(64, 200));

    let via_engine_share_s = (via_batch.switches.unwrap_or(0) as f64 * switch_s
        + via_batch.events.unwrap_or(0) as f64 * push_pop_s)
        / via_batch.ops as f64;

    Probes {
        engine_switch_ns: switch_s * 1e9,
        engine_advance_ns: advance_s * 1e9,
        engine_spawn_us_per_proc: spawn_s * 1e6,
        queue_push_pop_ns: push_pop_s * 1e9,
        pool_copy_ns_per_kib: frame_s * 1e9 / 16.0,
        pool_alloc_small_ns: alloc_s * 1e9,
        via_msg_host_us: via_msg_s * 1e6,
        via_connect_host_us: via_conn_s * 1e6,
        via_self_us_per_msg: (via_msg_s - via_engine_share_s) * 1e6,
        mpi_msg_host_us: mpi_msg_s * 1e6,
        mpi_rndv_ns_per_kib: rndv_s * 1e9 / 64.0,
        matching_post_match_ns: post_match_s * 1e9,
        matching_unexpected_scan_ns: scan_s * 1e9,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_measure_something_and_report_per_operation_costs() {
        let p = run(1, 0.0);
        for (name, v) in [
            ("switch", p.engine_switch_ns),
            ("advance", p.engine_advance_ns),
            ("spawn", p.engine_spawn_us_per_proc),
            ("push_pop", p.queue_push_pop_ns),
            ("copy", p.pool_copy_ns_per_kib),
            ("alloc", p.pool_alloc_small_ns),
            ("via msg", p.via_msg_host_us),
            ("via connect", p.via_connect_host_us),
            ("mpi msg", p.mpi_msg_host_us),
            ("rndv", p.mpi_rndv_ns_per_kib),
            ("post/match", p.matching_post_match_ns),
            ("scan", p.matching_unexpected_scan_ns),
        ] {
            assert!(v > 0.0 && v.is_finite(), "{name}: {v}");
        }
        // A lone advance never leaves its process; a token pass does.
        assert!(p.engine_advance_ns < p.engine_switch_ns);
    }
}
