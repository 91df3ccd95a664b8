//! A 2D heat-diffusion solver with halo exchange — the nearest-neighbour
//! communication pattern that motivates on-demand connection management
//! (paper §1, Table 1: most large applications talk to a handful of
//! neighbours, yet static MPI-over-VIA pins resources for everyone).
//!
//! The same solver runs under static and on-demand management; the physics
//! is identical, the resource bill is not.
//!
//! ```text
//! cargo run --release --example heat_stencil
//! ```

use viampi::core::nic_metrics;
use viampi::{from_bytes, to_bytes, ConnMode, Device, Mpi, ReduceOp, Universe, WaitPolicy};

const N: usize = 64; // global grid side
const STEPS: usize = 50;

/// One rank's strip of the domain: rows `[r0, r0 + rows)` with halo rows.
fn solve(mpi: &Mpi) -> f64 {
    let (rank, size) = (mpi.rank(), mpi.size());
    assert_eq!(N % size, 0);
    let rows = N / size;
    let r0 = rank * rows;

    // Local field with one halo row above and below.
    let mut u = vec![0.0f64; (rows + 2) * N];
    // Hot spot in the global middle.
    for lr in 0..rows {
        for c in 0..N {
            let gr = r0 + lr;
            if (N / 2 - 4..N / 2 + 4).contains(&gr) && (N / 2 - 4..N / 2 + 4).contains(&c) {
                u[(lr + 1) * N + c] = 100.0;
            }
        }
    }

    for step in 0..STEPS {
        // Halo exchange with up/down neighbours (non-periodic).
        let tag = step as i32 % 2;
        if rank > 0 {
            let top = to_bytes(&u[N..2 * N]);
            let (recv, _) = mpi.sendrecv(&top, rank - 1, tag, Some(rank - 1), Some(tag));
            u[..N].copy_from_slice(&from_bytes::<f64>(&recv));
        }
        if rank + 1 < size {
            let bottom = to_bytes(&u[rows * N..(rows + 1) * N]);
            let (recv, _) = mpi.sendrecv(&bottom, rank + 1, tag, Some(rank + 1), Some(tag));
            u[(rows + 1) * N..].copy_from_slice(&from_bytes::<f64>(&recv));
        }
        // Jacobi sweep (real arithmetic + modelled flops).
        let mut next = u.clone();
        for lr in 1..=rows {
            let gr = r0 + lr - 1;
            for c in 1..N - 1 {
                if gr == 0 || gr == N - 1 {
                    continue;
                }
                let i = lr * N + c;
                next[i] = 0.25 * (u[i - 1] + u[i + 1] + u[i - N] + u[i + N]);
            }
        }
        u = next;
        mpi.compute((rows * N) as f64 * 4.0);
    }

    // Total heat (conserved up to boundary loss) via allreduce.
    let local: f64 = (1..=rows)
        .map(|lr| u[lr * N..(lr + 1) * N].iter().sum::<f64>())
        .sum();
    mpi.allreduce(&[local], ReduceOp::Sum)[0]
}

fn main() {
    let np = 16;
    for (label, conn) in [
        ("static ", ConnMode::StaticPeerToPeer),
        ("ondemand", ConnMode::OnDemand),
    ] {
        let report = Universe::new(np, Device::Clan, conn, WaitPolicy::Polling)
            .run(solve)
            .unwrap();
        let heat = report.results[0];
        let pinned = report
            .ranks
            .iter()
            .map(|r| r.nic.gauge(nic_metrics::PINNED_PEAK));
        let avg_pinned = pinned.sum::<u64>() / np as u64;
        println!(
            "{label}  np={np}  total heat = {heat:10.3}  avg VIs/process = {:5.2}  \
             avg pinned = {:4} KiB  init = {}",
            report.avg_vis(),
            avg_pinned / 1024,
            report.avg_init_time(),
        );
    }
    println!();
    println!("identical physics; the stencil only ever talks to 2 neighbours,");
    println!(
        "so on-demand pins 2 VIs' worth of buffers instead of {}.",
        np - 1
    );
}
