//! IS — the NPB integer-sort kernel: bucket sort with an allreduce'd
//! bucket histogram and an all-to-all-v key redistribution per iteration.
//! Communication-bound and fully connected (Table 2: utilization 1.0 with
//! every VI in use under both managers).
//!
//! A rank's keys never change across iterations, and a destination owns a
//! contiguous bucket range, so right after generation (untimed, like the
//! generation itself) the keys — generated as the little-endian bytes they
//! travel as — are put in bucket order once, in place, and become one
//! buffer: the only copy of its keys a rank ever holds. Their bucket
//! histogram does not change either; it is the lengths of the keys'
//! bucket runs, found once by galloping from one run boundary to the next
//! and decoding a key at each probe. Each timed iteration then sends every
//! destination its keys as one window of the buffer — a single `alltoallv`
//! that copies nothing, a rendezvous registering the window in place —
//! and runs a counting sort off the received windows over the rank's own
//! key range. So the only per-key work in the loop is that counting sort,
//! and the loop allocates no key-sized buffer; every iteration is still
//! charged for the histogram and the partition it would have computed. As
//! in NPB, an iteration *ranks* the keys (the count table); the sorted
//! sequence is written out once, for the full verification after the
//! timed loop.

use crate::class::Class;
use crate::result::KernelResult;
use viampi_core::{Mpi, ReduceOp};
use viampi_sim::{PooledBuf, SplitMix64};

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

/// A key as it travels: four little-endian bytes.
type Key = [u8; 4];

/// The value of a key in its wire form.
fn value(k: &Key) -> u32 {
    u32::from_le_bytes(*k)
}

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

/// Put `keys` in bucket order, in place: one counting pass for each
/// bucket's start, then American-flag passes. A pass walks the unplaced
/// slots of every unfinished bucket once and swaps the key it finds into
/// the next free slot of that key's own bucket, so each swap puts one key
/// where it stays: `keys.len()` swaps in all, and no second copy of the
/// keys. The key swapped out is parked in the walked slot for a later
/// pass (about a third are left after each pass), instead of being
/// carried on to its own bucket as a cycle-following permutation does:
/// the swaps of a pass then do not wait on one another's loads, and the
/// grouping of a class C rank took a third of the cycle-following time
/// (2-core Xeon).
fn group_by_bucket(keys: &mut [Key], bucket: impl Fn(u32) -> usize) {
    let mut ends = vec![0usize; BUCKETS];
    for k in keys.iter() {
        ends[bucket(value(k))] += 1;
    }
    // Bucket `b`'s slots end at `ends[b]`; those before `next[b]` hold
    // only its own keys.
    let mut next = vec![0usize; BUCKETS];
    let mut acc = 0;
    for (n, e) in next.iter_mut().zip(&mut ends) {
        *n = acc;
        acc += *e;
        *e = acc;
    }
    let mut open: Vec<usize> = (0..BUCKETS).filter(|&b| next[b] < ends[b]).collect();
    while !open.is_empty() {
        for &b in &open {
            for i in next[b]..ends[b] {
                let t = bucket(value(&keys[i]));
                keys.swap(i, next[t]);
                next[t] += 1;
            }
        }
        open.retain(|&b| next[b] < ends[b]);
    }
}

/// The end of the run of `keys[from..]` below `limit`: the first index at
/// or after `from` whose key is at least `limit`, or `keys.len()`. The keys
/// must be ordered with respect to `limit` (every key below it comes
/// first). Gallops out from `from` in doubling steps and bisects only the
/// last step, so a short run is found near where it starts rather than by
/// probes spread over the whole remaining slice.
fn run_end(keys: &[Key], from: usize, limit: u32) -> usize {
    // Invariant: every key in `keys[from..lo]` is below `limit`.
    let (mut lo, mut step) = (from, 1);
    let hi = loop {
        let probe = lo + step - 1;
        if probe >= keys.len() {
            break keys.len();
        }
        if value(&keys[probe]) >= limit {
            break probe;
        }
        lo = probe + 1;
        step *= 2;
    };
    lo + keys[lo..hi].partition_point(|k| value(k) < limit)
}

/// The bucket histogram of bucket-ordered `keys`, read off the run
/// boundaries: bucket `b` ends where the first key of bucket `b + 1` or
/// above starts, galloping from where bucket `b - 1` ended. The top bucket
/// takes the rest, as [`group_by_bucket`]'s clamped bucket does.
fn boundary_histogram(keys: &[Key], log_shift: u32) -> Vec<i64> {
    let mut hist = vec![0i64; BUCKETS];
    let mut from = 0;
    for (b, h) in hist[..BUCKETS - 1].iter_mut().enumerate() {
        let end = run_end(keys, from, ((b + 1) as u32) << log_shift);
        *h = (end - from) as i64;
        from = end;
    }
    hist[BUCKETS - 1] = (keys.len() - from) as i64;
    hist
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

    // Key generation (NPB uses a Gaussian-ish sum of 4 uniforms), straight
    // into the little-endian form the keys travel in.
    let mut keys: Vec<Key> = Vec::with_capacity((hi - lo) as usize);
    for idx in lo..hi {
        let mut rng = SplitMix64::new(0x1234_5678 ^ (idx * 0x9E37_79B9));
        let k = (0..4)
            .map(|_| rng.next_below(p.max_key as u64 / 4) as u32)
            .sum::<u32>();
        keys.push(k.to_le_bytes());
    }

    // `max_key` and `BUCKETS` are powers of two, so a key's bucket is a
    // shift (clamped: the top bucket also takes anything above `max_key`).
    let shift = (p.max_key as usize / BUCKETS).max(1);
    assert!(
        shift.is_power_of_two(),
        "bucket width must be a power of two"
    );
    let log_shift = shift.trailing_zeros();
    // Bucket order, once, untimed and uncharged like the generation: the
    // keys never change, and it is the layout every iteration reads.
    group_by_bucket(&mut keys, |k| ((k >> log_shift) as usize).min(BUCKETS - 1));
    // The same allocation, as one byte buffer: the rank holds its keys
    // once, and every iteration sends windows of `wire`.
    let wire = PooledBuf::from_vec(keys.into_flattened());
    let (keys, _) = wire.as_chunks::<4>();
    // Nor does their bucket histogram: it is read off the run boundaries
    // once, here, and each iteration is charged for computing it.
    let hist = boundary_histogram(keys, log_shift);

    mpi.barrier();
    let t0 = mpi.now();

    // Occurrences of each key in this rank's key range `key_lo..`, from the
    // last iteration's counting sort.
    let mut counts: Vec<u32> = Vec::new();
    let mut key_lo = 0u32;
    let mut mine = 0usize;
    for _iter in 0..p.iterations {
        // Local bucket histogram (read before the loop; NPB computes it
        // every iteration).
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
        // Redistribute keys to their bucket owners. `owner` never decreases
        // with the bucket, so destination `d`'s keys are the next
        // `sizes[d]` bytes of the bucket-ordered wire bytes: one window,
        // sent as it lies. The charge is NPB's partition into `key_buff`s.
        let mut sizes = vec![0usize; np];
        for (b, &n) in hist.iter().enumerate() {
            sizes[owner[b]] += n as usize * 4;
        }
        mpi.compute(keys.len() as f64);
        let recv = mpi.alltoallv(&wire, &sizes);
        // Local counting sort, straight off the received blocks: this rank
        // owns a contiguous bucket range, hence a contiguous key range.
        let b_lo = owner.partition_point(|&o| o < rank);
        let b_hi = owner.partition_point(|&o| o <= rank);
        key_lo = (b_lo << log_shift) as u32;
        counts.clear();
        counts.resize((b_hi - b_lo) << log_shift, 0);
        mine = 0;
        for block in &recv {
            let (block, _) = block.as_chunks::<4>();
            for k in block {
                counts[(value(k) - key_lo) as usize] += 1;
            }
            mine += block.len();
        }
        mpi.compute(mine as f64 * 8.0);
    }

    mpi.barrier();
    let time = mpi.now().since(t0).as_secs_f64();

    // Full verification: the sorted sequence written out from the counts,
    // globally ordered across rank boundaries, and no key lost or altered.
    // The keys are summed off their wire bytes and let go first, so the
    // sorted copy does not stack on top of them.
    let keys_sum: i64 = keys.iter().map(|k| value(k) as i64).sum();
    drop(wire);
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
    let sorted_sum = sorted.iter().map(|&k| k as i64).sum();
    (mix[0], mix[1], mix[2 + rank]) = (sorted_sum, keys_sum, top as i64);
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

    const LOG_SHIFT: u32 = 2;

    fn bucket(k: u32) -> usize {
        ((k >> LOG_SHIFT) as usize).min(BUCKETS - 1)
    }

    /// Keys with every third bucket left empty, some beyond the top
    /// bucket's range (the clamp puts them in it), in generation order
    /// rather than bucket order.
    fn sample(n: usize) -> Vec<u32> {
        let mut rng = SplitMix64::new(7);
        let top = (BUCKETS as u64 + 64) << LOG_SHIFT;
        let mut keys = Vec::with_capacity(n);
        while keys.len() < n {
            let k = rng.next_below(top) as u32;
            if bucket(k) % 3 != 1 {
                keys.push(k);
            }
        }
        keys
    }

    /// `keys` as they travel: the byte-resident form the kernel reads.
    fn wire(keys: &[u32]) -> Vec<Key> {
        keys.iter().map(|k| k.to_le_bytes()).collect()
    }

    #[test]
    fn run_end_finds_empty_and_full_runs_at_every_edge() {
        let keys = wire(&[1, 2, 5, 6, 6, 9]);
        // An empty run at the start, in the middle and at the end.
        assert_eq!(run_end(&keys, 0, 1), 0);
        assert_eq!(run_end(&keys, 2, 3), 2);
        assert_eq!(run_end(&keys, 5, 9), 5);
        // A run that reaches the end of the slice.
        assert_eq!(run_end(&keys, 3, 100), 6);
        assert_eq!(run_end(&keys, 0, 100), 6);
        // Nothing left to search.
        assert_eq!(run_end(&keys, 6, 0), 6);
        assert_eq!(run_end(&keys, 6, 100), 6);
        assert_eq!(run_end(&[], 0, 3), 0);
        // A one-key slice.
        let one = wire(&[4]);
        assert_eq!(run_end(&one, 0, 4), 0);
        assert_eq!(run_end(&one, 0, 5), 1);
        assert_eq!(run_end(&one, 1, 5), 1);
        // A key whose low byte alone would compare the other way.
        assert_eq!(run_end(&wire(&[0x1FF, 0x200]), 0, 0x200), 1);
    }

    #[test]
    fn run_end_agrees_with_a_linear_scan_past_every_gallop_step() {
        // Every start and every limit over runs of 0 to 4 equal keys, so
        // the gallop stops after every step size and the bisection lands
        // at every offset.
        let keys: Vec<u32> = (0..70u32).flat_map(|k| vec![k; (k % 5) as usize]).collect();
        let bytes = wire(&keys);
        for from in 0..=keys.len() {
            for limit in 0..=71 {
                let want = from + keys[from..].iter().take_while(|&&k| k < limit).count();
                assert_eq!(
                    run_end(&bytes, from, limit),
                    want,
                    "from {from} limit {limit}"
                );
            }
        }
    }

    #[test]
    fn boundary_histogram_equals_a_per_key_count() {
        let mut keys = sample(20_000);
        keys.sort_unstable_by_key(|&k| bucket(k));
        let mut want = vec![0i64; BUCKETS];
        for &k in &keys {
            want[bucket(k)] += 1;
        }
        assert!(want.contains(&0), "the sample has empty buckets");
        assert_eq!(boundary_histogram(&wire(&keys), LOG_SHIFT), want);
        // No keys at all: every bucket is an empty run.
        assert_eq!(boundary_histogram(&[], LOG_SHIFT), vec![0; BUCKETS]);
    }

    #[test]
    fn group_by_bucket_is_a_bucket_ordered_permutation() {
        for n in [0, 1, 2, 1000, 20_000] {
            let input = sample(n);
            let mut keys = wire(&input);
            group_by_bucket(&mut keys, bucket);
            let keys: Vec<u32> = keys.iter().map(value).collect();
            assert!(
                keys.windows(2).all(|w| bucket(w[0]) <= bucket(w[1])),
                "n = {n}: not in bucket order"
            );
            let (mut got, mut want) = (keys, input);
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "n = {n}: not a permutation");
        }
    }

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
