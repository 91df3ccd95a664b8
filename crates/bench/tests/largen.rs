//! Large-N resource regression wall: a 1024-rank on-demand world must
//! stay cheap — bounded wall-clock on one core, O(used-channels) channel
//! state instead of O(np) per rank, and a bounded per-rank fiber stack
//! footprint.

use std::time::{Duration, Instant};
use viampi_core::{ConnMode, Device, Universe, WaitPolicy};
use viampi_npb::{patterns, ring};

#[test]
fn np1024_ring_is_fast_and_sparse() {
    let start = Instant::now();
    let report = Universe::new(1024, Device::Clan, ConnMode::OnDemand, WaitPolicy::Polling)
        .run(|mpi| {
            ring::run(mpi, 4, 4096);
        })
        .unwrap();
    let elapsed = start.elapsed();

    // Wall-clock budget: generous enough for an unoptimized debug build
    // on a loaded single core, yet far below what any O(np²) regression
    // in init, channel tables or snapshots would cost.
    assert!(
        elapsed < Duration::from_secs(120),
        "np=1024 ring took {elapsed:?}"
    );

    // O(used-channels): a ring touches exactly its two neighbours, so no
    // rank may materialize more than a handful of channels — and the world
    // total must be nowhere near the np² a dense table would hold.
    let per_rank_max = report
        .ranks
        .iter()
        .map(|r| r.channels.len())
        .max()
        .unwrap_or(0);
    let total: usize = report.ranks.iter().map(|r| r.channels.len()).sum();
    assert!(
        per_rank_max <= 4,
        "a ring rank materialized {per_rank_max} channels"
    );
    assert!(
        total <= 4 * 1024,
        "world materialized {total} channels (dense would be ~{})",
        1024 * 1023
    );

    // Peak per-rank fiber stack stays well inside the minimum 32 KiB
    // stack: rank memory is bounded by real usage, not by np.
    let peak = report.stack_depth_peak;
    assert!(
        peak > 0 && peak < 32 * 1024,
        "peak fiber stack {peak} bytes out of bounds"
    );
}

#[test]
fn np1024_cg_pattern_completes() {
    // The CG-style neighbour exchange at np=1024: ~11 partners per rank
    // (log-structured), still O(used-channels) sparse.
    let start = Instant::now();
    let report = Universe::new(1024, Device::Clan, ConnMode::OnDemand, WaitPolicy::Polling)
        .run(|mpi| {
            let partners = patterns::cg_rank(mpi.size(), mpi.rank());
            patterns::neighbor_exchange(mpi, &partners, 2, 64);
        })
        .unwrap();
    assert!(
        start.elapsed() < Duration::from_secs(120),
        "np=1024 CG exchange took {:?}",
        start.elapsed()
    );
    let per_rank_max = report
        .ranks
        .iter()
        .map(|r| r.channels.len())
        .max()
        .unwrap_or(0);
    assert!(
        (2..=16).contains(&per_rank_max),
        "CG exchange materialized {per_rank_max} channels per rank"
    );
}
