//! Kernel verification: deterministic results, np-invariance, and the
//! communication-footprint properties Table 2 depends on.

use viampi_core::{mpi_metrics, ConnMode, Device, Universe, WaitPolicy};
use viampi_npb::{cg, ep, llc, ring, Class, KernelResult};

fn uni(np: usize) -> Universe {
    Universe::new(np, Device::Clan, ConnMode::OnDemand, WaitPolicy::Polling)
}

fn run_kernel(
    np: usize,
    f: impl Fn(&viampi_core::Mpi) -> KernelResult + Send + Sync + 'static,
) -> viampi_core::RunReport<KernelResult> {
    uni(np).run(f).unwrap()
}

#[test]
fn ep_verifies_and_is_np_invariant() {
    let r1 = run_kernel(1, |mpi| ep::run(mpi, Class::S));
    let r4 = run_kernel(4, |mpi| ep::run(mpi, Class::S));
    let r8 = run_kernel(8, |mpi| ep::run(mpi, Class::S));
    assert!(r1.results[0].verified);
    assert!(r4.results[0].verified);
    // Checksums agree up to reduction-order rounding (the allreduce tree
    // sums sx/sy in a different order per np).
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * a.abs();
    assert!(close(r1.results[0].checksum, r4.results[0].checksum));
    assert!(close(r4.results[0].checksum, r8.results[0].checksum));
    // All ranks of one run agree exactly.
    for r in &r8.results {
        assert_eq!(r.checksum, r8.results[0].checksum);
    }
}

#[test]
fn ep_vi_footprint_is_allreduce_tree() {
    let report = run_kernel(16, |mpi| ep::run(mpi, Class::S));
    // Table 2: EP at np=16 → 4 VIs (the recursive-doubling partners).
    let avg = report.avg_vis();
    assert!((3.5..=5.5).contains(&avg), "EP avg VIs {avg} should be ≈ 4");
    assert!((report.utilization() - 1.0).abs() < 1e-9);
}

#[test]
fn cg_converges_and_is_np_invariant() {
    let r1 = run_kernel(1, |mpi| cg::run(mpi, Class::S));
    let r4 = run_kernel(4, |mpi| cg::run(mpi, Class::S));
    let r16 = run_kernel(16, |mpi| cg::run(mpi, Class::S));
    assert!(r1.results[0].verified, "CG must converge serially");
    assert!(r4.results[0].verified);
    assert!(r16.results[0].verified);
    let z1 = r1.results[0].checksum;
    let z4 = r4.results[0].checksum;
    let z16 = r16.results[0].checksum;
    assert!(
        (z1 - z4).abs() < 1e-9 * z1.abs(),
        "zeta differs across np: {z1} vs {z4}"
    );
    assert!((z4 - z16).abs() < 1e-9 * z4.abs(), "{z4} vs {z16}");
}

#[test]
fn cg_vi_footprint_matches_table_2() {
    // Paper: CG on-demand → 4.75 VIs at np=16, 5.78 at np=32.
    let r16 = run_kernel(16, |mpi| cg::run(mpi, Class::S));
    let avg16 = r16.avg_vis();
    assert!(
        (3.75..=6.0).contains(&avg16),
        "CG np=16 avg VIs {avg16}, paper: 4.75"
    );
    assert!(
        avg16 < 15.0 / 2.0,
        "CG must use far fewer than the static N-1"
    );
    assert!((r16.utilization() - 1.0).abs() < 1e-9);
}

#[test]
fn cg_works_on_nonsquare_grids() {
    for np in [2usize, 8, 32] {
        let r = run_kernel(np, move |mpi| cg::run(mpi, Class::S));
        assert!(r.results[0].verified, "np={np}");
        let serial = run_kernel(1, |mpi| cg::run(mpi, Class::S));
        assert!(
            (r.results[0].checksum - serial.results[0].checksum).abs()
                < 1e-9 * serial.results[0].checksum.abs(),
            "np={np} zeta mismatch"
        );
    }
}

#[test]
fn ring_reports_positive_latency_and_two_vis() {
    let report = uni(8)
        .run(|mpi| {
            let lat = ring::run(mpi, 10, 64);
            (lat, mpi.live_vis())
        })
        .unwrap();
    for &(lat, vis) in &report.results {
        assert!(lat > 0.0);
        assert_eq!(vis, 2, "ring uses exactly two VIs per rank");
    }
}

#[test]
fn llc_latencies_are_positive_and_scale_with_np() {
    let lat = |np: usize| {
        uni(np)
            .run(|mpi| llc::barrier_latency(mpi, 100))
            .unwrap()
            .results[0]
            .unwrap()
    };
    let l4 = lat(4);
    let l16 = lat(16);
    assert!(l4 > 0.0);
    assert!(l16 > l4, "barrier latency must grow with np: {l4} vs {l16}");
}

#[test]
fn llc_allreduce_and_alltoall_run() {
    let report = uni(8)
        .run(|mpi| {
            let ar = llc::allreduce_latency(mpi, 50, 1);
            let aa = llc::alltoall_latency(mpi, 20, 64);
            let bc = llc::bcast_latency(mpi, 20, 64);
            let ag = llc::allgather_latency(mpi, 20, 64);
            (ar, aa, bc, ag)
        })
        .unwrap();
    let (ar, aa, bc, ag) = &report.results[0];
    assert!(ar.unwrap() > 0.0);
    assert!(aa.unwrap() > 0.0);
    assert!(bc.unwrap() > 0.0);
    assert!(ag.unwrap() > 0.0);
    // Non-root ranks see None.
    assert!(report.results[1].0.is_none());
}

#[test]
fn kernels_agree_across_connection_modes() {
    let mut sums = Vec::new();
    for conn in [
        ConnMode::OnDemand,
        ConnMode::StaticPeerToPeer,
        ConnMode::StaticClientServer,
    ] {
        let report = Universe::new(4, Device::Clan, conn, WaitPolicy::Polling)
            .run(|mpi| {
                let e = ep::run(mpi, Class::S);
                let c = cg::run(mpi, Class::S);
                (e.checksum, c.checksum)
            })
            .unwrap();
        sums.push(report.results[0]);
    }
    assert_eq!(sums[0], sums[1]);
    assert_eq!(sums[1], sums[2]);
}

#[test]
fn is_sorts_and_is_np_invariant() {
    let r1 = run_kernel(1, |mpi| viampi_npb::is::run(mpi, Class::S));
    let r4 = run_kernel(4, |mpi| viampi_npb::is::run(mpi, Class::S));
    let r8 = run_kernel(8, |mpi| viampi_npb::is::run(mpi, Class::S));
    assert!(r1.results[0].verified);
    assert!(r4.results[0].verified);
    assert!(r8.results[0].verified);
    assert_eq!(r1.results[0].checksum, r4.results[0].checksum);
    assert_eq!(r4.results[0].checksum, r8.results[0].checksum);
}

/// The IS timed loop as first written — `Vec<Vec<u32>>` partition, typed
/// codecs, `sort_unstable` — kept here as the reference the kernel's
/// counting-sort path is checked against. Returns this rank's sorted keys,
/// the timed section's virtual seconds and the global key sum.
fn is_reference(mpi: &viampi_core::Mpi, class: Class) -> (Vec<u32>, f64, f64) {
    use viampi_core::{from_bytes, to_bytes, ReduceOp};
    const BUCKETS: usize = 1 << 10;
    let (total_keys, max_key, iterations) = match class {
        Class::S => (1u64 << 14, 1u32 << 11, 4),
        Class::A => (1 << 20, 1 << 15, 10),
        _ => unreachable!("reference runs the small classes only"),
    };
    let (rank, np) = (mpi.rank(), mpi.size());
    let per = total_keys / np as u64;
    let lo = rank as u64 * per;
    let hi = if rank == np - 1 { total_keys } else { lo + per };
    let keys: Vec<u32> = (lo..hi)
        .map(|idx| {
            let mut rng = viampi_sim::SplitMix64::new(0x1234_5678 ^ (idx * 0x9E37_79B9));
            (0..4)
                .map(|_| rng.next_below(max_key as u64 / 4) as u32)
                .sum()
        })
        .collect();
    mpi.barrier();
    let t0 = mpi.now();
    let shift = (max_key as usize / BUCKETS).max(1);
    let mut sorted: Vec<u32> = Vec::new();
    for iter in 0..iterations {
        let mut hist = vec![0i64; BUCKETS];
        for &k in &keys {
            hist[(k as usize / shift).min(BUCKETS - 1)] += 1;
        }
        mpi.compute(keys.len() as f64 * 2.0);
        let global = mpi.allreduce(&hist, ReduceOp::Sum);
        let target = global.iter().sum::<i64>() / np as i64 + 1;
        let mut owner = vec![0usize; BUCKETS];
        let (mut acc, mut cur) = (0i64, 0usize);
        for b in 0..BUCKETS {
            owner[b] = cur;
            acc += global[b];
            if acc >= target && cur + 1 < np {
                cur += 1;
                acc = 0;
            }
        }
        mpi.compute(BUCKETS as f64 * 2.0);
        let mut outgoing: Vec<Vec<u32>> = vec![Vec::new(); np];
        for &k in &keys {
            outgoing[owner[(k as usize / shift).min(BUCKETS - 1)]].push(k);
        }
        mpi.compute(keys.len() as f64);
        let send: Vec<Vec<u8>> = outgoing.iter().map(|v| to_bytes(v)).collect();
        let mut mine: Vec<u32> = Vec::new();
        for block in mpi.alltoall(send) {
            mine.extend(from_bytes::<u32>(&block));
        }
        // Every iteration sorted; only the last one's order is ever read,
        // and a debug-build sort of a class A rank is not cheap.
        if iter + 1 == iterations {
            mine.sort_unstable();
        }
        mpi.compute(mine.len() as f64 * 8.0);
        sorted = mine;
    }
    mpi.barrier();
    let time = mpi.now().since(t0).as_secs_f64();
    // What a rank does next reaches ranks still inside the timed section,
    // so the reference also keeps the original verification's traffic.
    if np > 1 {
        let top = sorted.last().copied().unwrap_or(0);
        let (next, prev) = ((rank + 1) % np, (rank + np - 1) % np);
        mpi.sendrecv(&top.to_le_bytes(), next, 77, Some(prev), Some(77));
    }
    mpi.allreduce(&[sorted.len() as i64], ReduceOp::Sum);
    let sum = mpi.allreduce(
        &[sorted.iter().map(|&k| k as i64).sum::<i64>()],
        ReduceOp::Sum,
    );
    (sorted, time, sum[0] as f64)
}

/// Sorted keys, checksum and — because every modelled charge and message
/// size is unchanged — the virtual time, bit for bit, against the reference.
/// np = 7 exercises the non-power-of-two allreduce and an uneven last rank.
/// Class S at np = 32 and 64 leaves ranks that own no bucket (one at 32,
/// four at 64), so their zero-length runs are compared too.
fn is_matches_reference(class: Class, nps: &[usize]) {
    for &np in nps {
        let want = uni(np).run(move |mpi| is_reference(mpi, class)).unwrap();
        let got = uni(np)
            .run(move |mpi| viampi_npb::is::sort(mpi, class))
            .unwrap();
        for (rank, ((res, keys), (ref_keys, ref_time, ref_sum))) in
            got.results.iter().zip(&want.results).enumerate()
        {
            let at = format!("IS.{class}.{np} rank {rank}");
            assert!(res.verified, "{at}");
            assert_eq!(keys, ref_keys, "{at}: sorted keys");
            assert_eq!(res.checksum, *ref_sum, "{at}: checksum");
            assert_eq!(
                res.time_secs.to_bits(),
                ref_time.to_bits(),
                "{at}: virtual time"
            );
        }
        if np >= 32 {
            assert!(
                got.results.iter().any(|(_, keys)| keys.is_empty()),
                "IS.{class}.{np}: every rank holds keys, so no empty run is compared"
            );
        }
    }
}

#[test]
fn is_class_s_matches_the_sort_unstable_reference() {
    is_matches_reference(Class::S, &[1, 2, 4, 7, 8, 32, 64]);
}

#[test]
fn is_class_a_matches_the_sort_unstable_reference() {
    is_matches_reference(Class::A, &[1, 2, 4, 7, 8]);
}

#[test]
fn is_uses_full_connectivity() {
    // Table 2: IS → all N-1 VIs, utilization 1.0 under both managers.
    let report = run_kernel(8, |mpi| viampi_npb::is::run(mpi, Class::S));
    for r in &report.ranks {
        assert_eq!(r.vis_live, 7);
    }
    assert!((report.utilization() - 1.0).abs() < 1e-9);
}

#[test]
fn mg_reduces_residual() {
    for np in [1usize, 8, 16] {
        let r = run_kernel(np, move |mpi| viampi_npb::mg::run(mpi, Class::S));
        assert!(r.results[0].verified, "np={np}: residual did not decrease");
        // All ranks agree on the norm.
        for res in &r.results {
            assert_eq!(res.checksum, r.results[0].checksum, "np={np}");
        }
    }
}

#[test]
fn mg_reaches_full_connectivity_at_16() {
    // Table 2: MG at np=16 → 15 VIs (the coarse-grid stage touches all).
    let report = run_kernel(16, |mpi| viampi_npb::mg::run(mpi, Class::S));
    for r in &report.ranks {
        assert_eq!(r.vis_live, 15, "rank {} has {} VIs", r.rank, r.vis_live);
    }
    assert!((report.utilization() - 1.0).abs() < 1e-9);
}

#[test]
fn sp_bt_verify_and_are_np_invariant() {
    use viampi_npb::adi::{self, App};
    for app in [App::Sp, App::Bt] {
        let r1 = run_kernel(1, move |mpi| adi::run(mpi, app, Class::S));
        let r4 = run_kernel(4, move |mpi| adi::run(mpi, app, Class::S));
        assert!(r1.results[0].verified, "{app:?}");
        assert!(r4.results[0].verified, "{app:?}");
        let (c1, c4) = (r1.results[0].checksum, r4.results[0].checksum);
        assert!(
            (c1 - c4).abs() < 1e-9 * c1.abs(),
            "{app:?} checksum differs across np: {c1} vs {c4}"
        );
    }
}

#[test]
fn sp_bt_vi_footprint_is_eight_at_16() {
    use viampi_npb::adi::{self, App};
    let report = run_kernel(16, |mpi| adi::run(mpi, App::Sp, Class::S));
    // Table 2: SP/BT at np=16 → 8 VIs. Our row-major grid overlaps two of
    // the four barrier partners with the eight stencil neighbours (NPB's
    // diagonal multipartition mapping overlaps all four), so we measure 10;
    // the shape (half the static 15, utilization 1.0) is preserved.
    let avg = report.avg_vis();
    assert!((7.5..=10.5).contains(&avg), "SP avg VIs {avg}, paper: 8");
    assert!((report.utilization() - 1.0).abs() < 1e-9);
}

#[test]
fn bt_costs_more_time_than_sp() {
    use viampi_npb::adi::{self, App};
    // Class A, where compute dominates (at class S the shared
    // communication costs dilute the flop difference).
    let sp = run_kernel(4, |mpi| adi::run(mpi, App::Sp, Class::A));
    let bt = run_kernel(4, |mpi| adi::run(mpi, App::Bt, Class::A));
    let ratio = bt.results[0].time_secs / sp.results[0].time_secs;
    assert!(
        (1.3..=2.4).contains(&ratio),
        "BT/SP time ratio {ratio}, expected ≈1.8 (Table 3 shape)"
    );
}

#[test]
fn class_scaling_increases_time() {
    let a = run_kernel(4, |mpi| viampi_npb::is::run(mpi, Class::S));
    let b = run_kernel(4, |mpi| viampi_npb::is::run(mpi, Class::A));
    assert!(
        b.results[0].time_secs > a.results[0].time_secs * 2.0,
        "class A must cost much more than S: {} vs {}",
        b.results[0].time_secs,
        a.results[0].time_secs
    );
}

#[test]
fn ft_fft_is_np_invariant_and_verified() {
    use viampi_npb::ft;
    let r1 = run_kernel(1, |mpi| ft::run(mpi, Class::S));
    let r4 = run_kernel(4, |mpi| ft::run(mpi, Class::S));
    let r8 = run_kernel(8, |mpi| ft::run(mpi, Class::S));
    assert!(r1.results[0].verified);
    assert!(r4.results[0].verified);
    let (c1, c4, c8) = (
        r1.results[0].checksum,
        r4.results[0].checksum,
        r8.results[0].checksum,
    );
    assert!((c1 - c4).abs() < 1e-9 * c1.abs().max(1.0), "{c1} vs {c4}");
    assert!((c4 - c8).abs() < 1e-9 * c4.abs().max(1.0), "{c4} vs {c8}");
}

#[test]
fn ft_uses_full_connectivity_like_is() {
    use viampi_npb::ft;
    let report = run_kernel(8, |mpi| ft::run(mpi, Class::S));
    for r in &report.ranks {
        assert_eq!(r.vis_live, 7, "FT's alltoall transpose touches everyone");
    }
    assert!((report.utilization() - 1.0).abs() < 1e-9);
}

#[test]
fn lu_wavefront_is_np_invariant() {
    use viampi_npb::lu;
    let r1 = run_kernel(1, |mpi| lu::run(mpi, Class::S));
    let r4 = run_kernel(4, |mpi| lu::run(mpi, Class::S));
    let r16 = run_kernel(16, |mpi| lu::run(mpi, Class::S));
    assert!(r1.results[0].verified);
    let (c1, c4, c16) = (
        r1.results[0].checksum,
        r4.results[0].checksum,
        r16.results[0].checksum,
    );
    assert!(
        (c1 - c4).abs() < 1e-9 * c1.abs(),
        "Gauss-Seidel wavefront must be np-invariant: {c1} vs {c4}"
    );
    assert!((c4 - c16).abs() < 1e-9 * c4.abs(), "{c4} vs {c16}");
}

#[test]
fn lu_has_four_neighbours_and_many_small_messages() {
    use viampi_npb::lu;
    let report = run_kernel(16, |mpi| lu::run(mpi, Class::S));
    // Interior ranks: 4 stencil partners + barrier tree; far below 15.
    let avg = report.avg_vis();
    assert!(avg < 9.0, "LU avg VIs {avg} must stay well under N-1");
    // The wavefront sends one message per z-plane per sweep: lots of eager
    // traffic, no rendezvous.
    let r5 = &report.ranks[5]; // interior rank on the 4x4 grid
    assert!(
        r5.mpi.counter(mpi_metrics::EAGER_SENT) > 50,
        "pipelined plane messages"
    );
    assert_eq!(
        r5.mpi.counter(mpi_metrics::RENDEZVOUS_SENT),
        0,
        "planes are small"
    );
}
