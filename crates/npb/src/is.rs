//! IS — the NPB integer-sort kernel: bucket sort with an allreduce'd
//! bucket histogram and an all-to-all-v key redistribution per iteration.
//! Communication-bound and fully connected (Table 2: utilization 1.0 with
//! every VI in use under both managers).
//!
//! Host cost per iteration is three passes over the rank's keys: the
//! bucket histogram, the partition (keys go straight into wire buffers
//! sized from the histogram), and a counting sort run off the received
//! byte blocks over the rank's own key range. The received blocks are the
//! next iteration's wire buffers, so once they have grown to size the
//! loop allocates no key-sized buffer. As in NPB, an iteration *ranks* the
//! keys (the count table); the sorted sequence is written out once, for
//! the full verification after the timed loop.

use crate::class::Class;
use crate::result::KernelResult;
use viampi_core::{Mpi, ReduceOp};
use viampi_sim::SplitMix64;

struct Params {
    total_keys: u64,
    max_key: u32,
    iterations: usize,
}

fn params(class: Class) -> Params {
    // NPB (real): A: 2^23 keys / 2^19 max, B: 2^25/2^21, C: 2^27/2^23,
    // 10 iterations. Scaled by 2^5; ratios kept.
    match class {
        Class::S => Params {
            total_keys: 1 << 14,
            max_key: 1 << 11,
            iterations: 4,
        },
        Class::A => Params {
            total_keys: 1 << 20,
            max_key: 1 << 15,
            iterations: 10,
        },
        Class::B => Params {
            total_keys: 1 << 22,
            max_key: 1 << 17,
            iterations: 10,
        },
        Class::C => Params {
            total_keys: 1 << 23,
            max_key: 1 << 18,
            iterations: 10,
        },
    }
}

const BUCKETS: usize = 1 << 10;

/// Set in a rank's "top" word when the rank holds any keys; the low bits
/// are then its largest key.
const HAS_KEYS: u32 = 1 << 31;

/// The largest key on the nearest rank below `rank` that holds any keys:
/// the predecessor's top as the neighbour exchange delivered it, or, past
/// empty ranks, the gathered tops of the ranks further down.
fn key_below(rank: usize, prev_top: u32, tops: &[i64]) -> Option<u32> {
    let top = if rank > 0 && prev_top & HAS_KEYS != 0 {
        prev_top
    } else {
        *tops[..rank].iter().rev().find(|&&t| t != 0)? as u32
    };
    Some(top & !HAS_KEYS)
}

/// Run IS. Deterministic for a given class; keys are partitioned by global
/// index so the result is independent of np.
pub fn run(mpi: &Mpi, class: Class) -> KernelResult {
    sort(mpi, class).0
}

/// Run IS and also return this rank's share of the globally sorted keys
/// (concatenated in rank order they are the whole sorted sequence).
pub fn sort(mpi: &Mpi, class: Class) -> (KernelResult, Vec<u32>) {
    let p = params(class);
    let (rank, np) = (mpi.rank(), mpi.size());
    let per = p.total_keys / np as u64;
    let lo = rank as u64 * per;
    let hi = if rank == np - 1 {
        p.total_keys
    } else {
        lo + per
    };

    // Key generation (NPB uses a Gaussian-ish sum of 4 uniforms).
    let mut keys: Vec<u32> = Vec::with_capacity((hi - lo) as usize);
    for idx in lo..hi {
        let mut rng = SplitMix64::new(0x1234_5678 ^ (idx * 0x9E37_79B9));
        let k = (0..4)
            .map(|_| rng.next_below(p.max_key as u64 / 4) as u32)
            .sum::<u32>();
        keys.push(k);
    }

    mpi.barrier();
    let t0 = mpi.now();

    // `max_key` and `BUCKETS` are powers of two, so a key's bucket is a
    // shift (clamped: the top bucket also takes anything above `max_key`).
    let shift = (p.max_key as usize / BUCKETS).max(1);
    assert!(
        shift.is_power_of_two(),
        "bucket width must be a power of two"
    );
    let log_shift = shift.trailing_zeros();
    let bucket = |k: u32| ((k >> log_shift) as usize).min(BUCKETS - 1);

    // Occurrences of each key in this rank's key range `key_lo..`, from the
    // last iteration's counting sort.
    let mut counts: Vec<u32> = Vec::new();
    let mut key_lo = 0u32;
    let mut mine = 0usize;
    // Per-destination wire buffers, kept across iterations (NPB's static
    // `key_buff`s). `alltoallv` takes them and hands back the blocks it
    // received, which become the next iteration's buffers: a buffer
    // shuttles between one pair of ranks and soon holds either direction,
    // so the timed loop does not hand megabytes back to the allocator and
    // fault them in again every round.
    let mut send: Vec<Vec<u8>> = vec![Vec::new(); np];
    for _iter in 0..p.iterations {
        // Local bucket histogram.
        let mut hist = vec![0i64; BUCKETS];
        for &k in &keys {
            hist[bucket(k)] += 1;
        }
        mpi.compute(keys.len() as f64 * 2.0);
        // Global histogram (8 KiB message — crosses the eager threshold).
        let global = mpi.allreduce(&hist, ReduceOp::Sum);
        // Assign contiguous bucket ranges to ranks, balancing key counts.
        let total: i64 = global.iter().sum();
        let target = total / np as i64 + 1;
        let mut owner = vec![0usize; BUCKETS];
        let mut acc = 0i64;
        let mut cur = 0usize;
        for b in 0..BUCKETS {
            owner[b] = cur;
            acc += global[b];
            if acc >= target && cur + 1 < np {
                cur += 1;
                acc = 0;
            }
        }
        mpi.compute(BUCKETS as f64 * 2.0);
        // Redistribute keys to their bucket owners. The local histogram
        // gives each destination's exact size, so every key is written once,
        // as wire bytes, into a buffer that never grows.
        let mut sizes = vec![0usize; np];
        for (b, &n) in hist.iter().enumerate() {
            sizes[owner[b]] += n as usize;
        }
        for (buf, &n) in send.iter_mut().zip(&sizes) {
            buf.clear();
            buf.reserve_exact(n * 4);
        }
        for &k in &keys {
            send[owner[bucket(k)]].extend_from_slice(&k.to_le_bytes());
        }
        mpi.compute(keys.len() as f64);
        let recv = mpi.alltoallv(send);
        // Local counting sort, straight off the received blocks: this rank
        // owns a contiguous bucket range, hence a contiguous key range.
        let b_lo = owner.partition_point(|&o| o < rank);
        let b_hi = owner.partition_point(|&o| o <= rank);
        key_lo = (b_lo << log_shift) as u32;
        counts.clear();
        counts.resize((b_hi - b_lo) << log_shift, 0);
        mine = 0;
        for block in &recv {
            for k in block.chunks_exact(4) {
                let k = u32::from_le_bytes(k.try_into().expect("4-byte chunk"));
                counts[(k - key_lo) as usize] += 1;
            }
            mine += block.len() / 4;
        }
        mpi.compute(mine as f64 * 8.0);
        send = recv;
    }

    mpi.barrier();
    let time = mpi.now().since(t0).as_secs_f64();

    // Full verification: the sorted sequence written out from the counts,
    // globally ordered across rank boundaries, and no key lost or altered.
    // The keys are summed and let go first, with the wire buffers, so the
    // sorted copy does not stack on top of them.
    let sum = |v: &[u32]| v.iter().map(|&k| k as i64).sum::<i64>();
    let keys_sum = sum(&keys);
    drop((keys, send));
    let mut sorted: Vec<u32> = Vec::with_capacity(mine);
    for (i, &c) in counts.iter().enumerate() {
        sorted.resize(sorted.len() + c as usize, key_lo + i as u32);
    }
    let locally_sorted = sorted.windows(2).all(|w| w[0] <= w[1]);
    // The neighbour exchange and the count reduction are the first things a
    // rank does on leaving the timed section, while slower ranks are still
    // inside it, so their sizes and order are part of every recorded
    // `time_secs` and stay as they are. The four bytes carry this rank's
    // `(non_empty, max)`: keys stay below 2^31, which frees the top bit.
    assert!(p.max_key <= HAS_KEYS, "keys must leave the flag bit free");
    let top = sorted.last().map_or(0, |&max| HAS_KEYS | max);
    let mut prev_top = 0;
    if np > 1 {
        let (next, prev) = ((rank + 1) % np, (rank + np - 1) % np);
        let (b, _) = mpi.sendrecv(&top.to_le_bytes(), next, 77, Some(prev), Some(77));
        prev_top = u32::from_le_bytes(b.try_into().expect("4-byte top"));
    }
    let held = mpi.allreduce(&[sorted.len() as i64], ReduceOp::Sum);
    // One more reduction sums the keys as generated and as sorted, and —
    // each rank adding into a slot of its own — gathers every rank's top,
    // which is where a rank looks when its predecessor holds no keys.
    let mut mix = vec![0i64; 2 + np];
    (mix[0], mix[1], mix[2 + rank]) = (sum(&sorted), keys_sum, top as i64);
    let mix = mpi.allreduce(&mix, ReduceOp::Sum);
    let boundary_ok = match (key_below(rank, prev_top, &mix[2..]), sorted.first()) {
        (Some(below), Some(&my_min)) => below <= my_min,
        _ => true,
    };
    let count_ok = held[0] == p.total_keys as i64;
    let sum_ok = mix[0] == mix[1];

    let result = KernelResult {
        name: "is",
        class,
        np,
        time_secs: time,
        verified: locally_sorted && boundary_ok && count_ok && sum_ok,
        checksum: mix[0] as f64,
    };
    (result, sorted)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_below_sees_a_zero_maximum_and_looks_past_empty_ranks() {
        let has = |k: u32| (HAS_KEYS | k) as i64;
        // Rank 0 has nothing below it, whatever the ring wrapped around.
        assert_eq!(key_below(0, HAS_KEYS | 9, &[has(1), has(9)]), None);
        // A predecessor whose largest key is 0 still has a largest key.
        assert_eq!(key_below(1, HAS_KEYS, &[has(0), has(5)]), Some(0));
        // Ranks 1 and 2 are empty: rank 3 is checked against rank 0.
        let tops = [has(7), 0, 0, has(8)];
        assert_eq!(key_below(3, 0, &tops), Some(7));
        assert_eq!(key_below(2, 0, &tops), Some(7));
        // Nothing below holds a key.
        assert_eq!(key_below(2, 0, &[0, 0, has(3)]), None);
    }
}
