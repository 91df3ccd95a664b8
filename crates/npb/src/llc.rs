//! llcbench-style collective latency harnesses (paper §5.4).
//!
//! Methodology follows the paper's description of its `llcbench` runs:
//! each rank repeats the operation `reps` times and computes its own mean
//! latency; rank 0 then gathers all per-rank means and reports their
//! average. (That final gather is also why the paper's Table 2 shows one
//! extra VI for some collective benchmarks.)

use viampi_core::{Mpi, ReduceOp};

fn collect_average(mpi: &Mpi, mine_us: f64) -> Option<f64> {
    let blocks = mpi.gather(0, &mine_us.to_le_bytes());
    blocks.map(|bs| {
        let vals: Vec<f64> = bs
            .iter()
            .map(|b| f64::from_le_bytes(b.as_slice().try_into().unwrap()))
            .collect();
        vals.iter().sum::<f64>() / vals.len() as f64
    })
}

/// Mean barrier latency in µs; `Some` on rank 0 only.
pub fn barrier_latency(mpi: &Mpi, reps: usize) -> Option<f64> {
    mpi.barrier(); // warm up / connect
    let t0 = mpi.now();
    for _ in 0..reps {
        mpi.barrier();
    }
    let mine = mpi.now().since(t0).as_micros_f64() / reps as f64;
    collect_average(mpi, mine)
}

/// Mean `MPI_Allreduce(MPI_SUM)` latency over `nelems` f64 in µs.
pub fn allreduce_latency(mpi: &Mpi, reps: usize, nelems: usize) -> Option<f64> {
    let data = vec![1.0f64; nelems];
    mpi.allreduce(&data, ReduceOp::Sum); // warm up
    let t0 = mpi.now();
    for _ in 0..reps {
        mpi.allreduce(&data, ReduceOp::Sum);
    }
    let mine = mpi.now().since(t0).as_micros_f64() / reps as f64;
    collect_average(mpi, mine)
}

/// Mean broadcast latency in µs (llcbench inserts a barrier per repetition
/// so roots do not pipeline ahead).
pub fn bcast_latency(mpi: &Mpi, reps: usize, nbytes: usize) -> Option<f64> {
    let payload = vec![7u8; nbytes];
    mpi.barrier();
    let t0 = mpi.now();
    for _ in 0..reps {
        if mpi.rank() == 0 {
            mpi.bcast(0, Some(&payload));
        } else {
            mpi.bcast(0, None);
        }
        mpi.barrier();
    }
    let mine = mpi.now().since(t0).as_micros_f64() / reps as f64;
    collect_average(mpi, mine)
}

/// Mean allgather latency in µs.
pub fn allgather_latency(mpi: &Mpi, reps: usize, nbytes: usize) -> Option<f64> {
    let block = vec![3u8; nbytes];
    mpi.allgather(&block); // warm up
    let t0 = mpi.now();
    for _ in 0..reps {
        mpi.allgather(&block);
    }
    let mine = mpi.now().since(t0).as_micros_f64() / reps as f64;
    collect_average(mpi, mine)
}

/// Mean alltoall latency in µs.
pub fn alltoall_latency(mpi: &Mpi, reps: usize, nbytes: usize) -> Option<f64> {
    let send: Vec<Vec<u8>> = (0..mpi.size()).map(|_| vec![9u8; nbytes]).collect();
    // `alltoall` takes its blocks; every call here sends the same ones.
    mpi.alltoall(send.clone()); // warm up
    let t0 = mpi.now();
    for _ in 0..reps {
        mpi.alltoall(send.clone());
    }
    let mine = mpi.now().since(t0).as_micros_f64() / reps as f64;
    collect_average(mpi, mine)
}
