//! Distributed sample sort over `alltoallv` — an all-to-all workload like
//! NPB IS, where even on-demand management ends up fully connected (paper
//! Table 2, utilization 1.0) but the connections are built *gradually* as
//! the first exchange unfolds (§5.5's note on IS over Berkeley VIA).
//!
//! ```text
//! cargo run --release --example sample_sort
//! ```

use viampi::sim::PooledBuf;
use viampi::{ConnMode, Device, Mpi, Universe, WaitPolicy};

fn sort_rank(mpi: &Mpi) -> (bool, usize) {
    let (rank, size) = (mpi.rank(), mpi.size());
    let n_local = 4000usize;

    // Deterministic pseudo-random local keys.
    let mut keys: Vec<u32> = (0..n_local)
        .map(|i| {
            let x = (rank * n_local + i) as u64;
            (x.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as u32
        })
        .collect();

    // 1. Everyone contributes samples; rank 0 picks splitters, broadcasts.
    let sample: Vec<u8> = keys
        .iter()
        .step_by(n_local / 16)
        .flat_map(|k| k.to_le_bytes())
        .collect();
    let gathered = mpi.gather(0, &sample);
    let splitters: Vec<u32> = {
        let bytes = if let Some(blocks) = gathered {
            let mut all: Vec<u32> = blocks
                .iter()
                .flat_map(|b| {
                    b.chunks_exact(4)
                        .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
                })
                .collect();
            all.sort_unstable();
            let step = all.len() / size;
            let picks: Vec<u8> = (1..size)
                .flat_map(|i| all[i * step].to_le_bytes())
                .collect();
            mpi.bcast(0, Some(&picks))
        } else {
            mpi.bcast(0, None)
        };
        bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect()
    };

    // 2. Sort locally, so each destination's keys are one run of a single
    //    send buffer, and exchange all-to-all: every rank gets a window.
    keys.sort_unstable();
    let mut counts = vec![0usize; size];
    for &k in &keys {
        counts[splitters.partition_point(|&s| s <= k)] += 4;
    }
    let send: Vec<u8> = keys.iter().flat_map(|k| k.to_le_bytes()).collect();
    let received = mpi.alltoallv(&PooledBuf::from_vec(send), &counts);

    // 3. Local sort of the received range.
    keys = received
        .iter()
        .flat_map(|b| {
            b.chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
        })
        .collect();
    keys.sort_unstable();
    mpi.compute(keys.len() as f64 * 10.0);

    // 4. Verify global order across rank boundaries.
    let my_max = keys.last().copied().unwrap_or(0);
    let mut ok = keys.windows(2).all(|w| w[0] <= w[1]);
    if size > 1 {
        let next = (rank + 1) % size;
        let prev = (rank + size - 1) % size;
        let (pm, _) = mpi.sendrecv(&my_max.to_le_bytes(), next, 9, Some(prev), Some(9));
        let prev_max = u32::from_le_bytes(pm.try_into().unwrap());
        if rank > 0 {
            ok &= keys.first().map(|&f| prev_max <= f).unwrap_or(true);
        }
    }
    (ok, mpi.live_vis())
}

fn main() {
    let np = 12;
    let report = Universe::new(
        np,
        Device::Berkeley,
        ConnMode::OnDemand,
        WaitPolicy::Polling,
    )
    .run(sort_rank)
    .unwrap();
    let all_sorted = report.results.iter().all(|r| r.0);
    println!("sample sort on {np} Berkeley-VIA ranks: sorted = {all_sorted}");
    println!(
        "per-rank VIs after the all-to-all: {:?}",
        report.results.iter().map(|r| r.1).collect::<Vec<_>>()
    );
    println!(
        "all-to-all forces full connectivity ({} VIs each) even on-demand —\n\
         but every VI is used (utilization {:.0}%), unlike a static mesh under\n\
         a neighbour-only workload.",
        np - 1,
        report.utilization() * 100.0
    );
    assert!(all_sorted);
}
