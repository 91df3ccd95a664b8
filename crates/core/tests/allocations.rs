//! Heap allocations on the paths that are meant to make none, or a bounded
//! number: an idle pass of the progress engine, and wiring one channel of a
//! static world — and the bytes such a channel holds while it sits idle, or
//! at most holds while an `alltoall` is under way. Counted per thread by a
//! wrapping global allocator — a whole simulation runs on the thread that
//! called `Universe::run`, and the test harness gives every test its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use viampi_core::{ConnMode, Device, Universe, WaitPolicy};
use viampi_sim::{PooledBuf, SimDuration};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// High-water mark of `LIVE` since the last [`reset_peak`].
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// Count `grown` bytes coming live (negative: freed), and one allocation
/// if `fresh`.
fn count(grown: isize, fresh: bool) {
    // `try_with`: the allocator is still called while a thread tears down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + u64::from(fresh)));
    let _ = LIVE.try_with(|c| {
        let live = c.get() + grown;
        c.set(live);
        let _ = PEAK.try_with(|p| p.set(p.get().max(live)));
    });
}

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        count(l.size() as isize, true);
        System.alloc(l)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        count(-(l.size() as isize), false);
        System.dealloc(p, l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        count(n as isize - l.size() as isize, true);
        System.realloc(p, l, n)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) this thread has made so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Heap bytes this thread has allocated and not freed (a block freed on
/// another thread stays counted here).
fn live_bytes() -> isize {
    LIVE.with(Cell::get)
}

/// Start a new high-water mark at the bytes live now, and return them.
fn reset_peak() -> isize {
    let live = live_bytes();
    PEAK.with(|p| p.set(live));
    live
}

/// The most bytes this thread has held at once since [`reset_peak`].
fn peak_bytes() -> isize {
    PEAK.with(Cell::get)
}

/// Rank 0 of a connected pair runs 1000 idle progress passes while rank 1
/// sits parked in a receive; returns what rank 0's passes allocated and how
/// many times they walked the channel table.
fn idle_progress_allocs_and_walks(conn: ConnMode) -> (u64, u64) {
    let report = Universe::new(2, Device::Clan, conn, WaitPolicy::Polling)
        .run(|mpi| {
            let other = 1 - mpi.rank();
            // Bring the channel up and size its queues.
            mpi.sendrecv(&[7u8; 64], other, 0, Some(other), Some(0));
            if mpi.rank() == 1 {
                mpi.recv(Some(0), Some(1));
                return (0, 0);
            }
            // Let everything the exchange left in flight land and be
            // consumed, so the passes below find nothing to do.
            mpi.advance(SimDuration::millis(1));
            for _ in 0..4 {
                mpi.progress();
            }
            let count = |name| mpi.metrics_snapshot().get(name).expect("device metric");
            let (passes, walks) = (count("mpi.progress_passes"), count("mpi.table_walks"));
            let before = allocs();
            for _ in 0..1000 {
                mpi.progress();
            }
            let made = allocs() - before;
            assert_eq!(count("mpi.progress_passes") - passes, 1000);
            let walked = count("mpi.table_walks") - walks;
            mpi.send(&[0], 1, 1);
            (made, walked)
        })
        .unwrap();
    report.results[0]
}

#[test]
fn an_idle_progress_pass_allocates_nothing_and_walks_no_table() {
    for conn in [ConnMode::StaticPeerToPeer, ConnMode::OnDemand] {
        assert_eq!(idle_progress_allocs_and_walks(conn), (0, 0), "{conn:?}");
    }
}

#[test]
fn a_statically_provisioned_channel_costs_a_bounded_number_of_allocations() {
    const NP: usize = 32;
    // The last rank reports what the thread holds once `MPI_Init` has wired
    // every channel end and before anything is sent.
    let world = || {
        Universe::new(
            NP,
            Device::Clan,
            ConnMode::StaticPeerToPeer,
            WaitPolicy::Polling,
        )
        .run(|mpi| (mpi.rank() == NP - 1).then(live_bytes))
        .unwrap()
    };
    // The first world on a thread also fills the fiber stack pool.
    world();
    let (before, held_before) = (allocs(), live_bytes());
    let report = world();
    let made = allocs() - before;
    let channels = (NP * (NP - 1)) as u64;
    assert_eq!(report.metrics.get("nic.vis_created"), Some(channels));
    // Everything the world allocates — engine, ranks and reports included —
    // divided by the channel endpoints it wires: 4.71 as measured (4.74
    // while each NIC filed its connection targets in a `BTreeSet`, 8.6
    // while the device mirrored each VI's receive queue, 13.1 before the
    // queues were sized at provisioning and the hashed tables went). The
    // bound leaves room for a std or compiler change, not for a per-descriptor or
    // per-message allocation coming back.
    let per_channel = made as f64 / channels as f64;
    assert!(
        (1.0..=5.5).contains(&per_channel),
        "{made} allocations for {channels} channels = {per_channel:.2} per channel"
    );
    // What an idle, fully wired world holds per channel end, engine and
    // ranks included. A bound, not an exact figure: byte counts follow
    // std's growth policy. 848 B as measured; 872 B with the `BTreeSet` of
    // targets, 1 660 B while the device mirrored the NIC's queue and the
    // NIC kept one entry per descriptor.
    let held = report.results[NP - 1].expect("the last rank reports") - held_before;
    let per_end = held as f64 / channels as f64;
    assert!(
        per_end <= 1000.0,
        "{held} live bytes for {channels} channel ends = {per_end:.0} per end"
    );
}

/// An np = 4 world in which every rank builds four `block`-byte blocks and
/// exchanges them — as four `Vec`s handed to `alltoall`, or, with
/// `one_buffer`, as one buffer `alltoallv` cuts into windows; returns the
/// most bytes the thread held at once above what it held before the world,
/// the blocks included.
fn exchange_peak(block: usize, one_buffer: bool) -> isize {
    const NP: usize = 4;
    let world = move || {
        Universe::new(NP, Device::Clan, ConnMode::OnDemand, WaitPolicy::Polling)
            .run(move |mpi| {
                let rank = mpi.rank();
                let byte = |dst: usize| (rank * NP + dst) as u8;
                let arrived = |src: usize, b: &[u8]| {
                    b.len() == block && b.iter().all(|&x| x == (src * NP + rank) as u8)
                };
                if one_buffer {
                    // Built at its final size: a growing buffer would hold
                    // two copies of itself at each doubling.
                    let mut send = Vec::with_capacity(NP * block);
                    for dst in 0..NP {
                        send.resize(send.len() + block, byte(dst));
                    }
                    let recv = mpi.alltoallv(&PooledBuf::from_vec(send), &[block; NP]);
                    (recv.iter().enumerate()).all(|(src, b)| arrived(src, b))
                } else {
                    let send = (0..NP).map(|dst| vec![byte(dst); block]);
                    let recv = mpi.alltoall(send.collect());
                    (recv.iter().enumerate()).all(|(src, b)| arrived(src, b))
                }
            })
            .unwrap()
    };
    // The first world on a thread also fills the fiber stack pool.
    world();
    let before = reset_peak();
    let report = world();
    assert!(report.results.iter().all(|&ok| ok), "a block arrived wrong");
    peak_bytes() - before
}

#[test]
fn an_alltoall_holds_its_payload_once() {
    // 64 KiB blocks go by rendezvous. Each block is built by its sender,
    // registered in place, written into the receiver's landing region and
    // handed over as the receive; the own block goes straight back. So the
    // world holds one copy of the payload, on top of what the same
    // exchange holds with empty blocks, plus a slack: one block for the
    // receiver-side copy of a block whose sender has not yet unpinned it,
    // and half a block for the rendezvous headers and requests. Recorded:
    // 1.013 copies above the empty exchange (1.07 when the test was
    // written, before `alltoall` shared `alltoallv`'s exchange); 1.13 when
    // the device copies an owned payload into a pooled buffer; 2.01 when
    // `alltoall` borrowed its blocks, copied each into the pool and cloned
    // the own one.
    const BLOCK: usize = 64 << 10;
    const PAYLOAD: isize = (4 * 4 * BLOCK) as isize;
    const SLACK: isize = (BLOCK + BLOCK / 2) as isize;
    let empty = exchange_peak(0, false);
    let peak = exchange_peak(BLOCK, false);
    assert!(
        peak <= empty + PAYLOAD + SLACK,
        "an alltoall of {PAYLOAD} B peaked {peak} B above its baseline \
         ({empty} B with empty blocks, slack {SLACK} B)"
    );
}

#[test]
fn an_alltoallv_from_one_buffer_holds_its_payload_once() {
    // The same exchange from one buffer per rank. Each block is a window of
    // its sender's buffer, registered in place; the landing region adopts
    // what the RDMA write carries, and the receive hands over that window
    // as it landed, with no copy out. So the world holds its payload once
    // and nothing per block beyond the rendezvous headers and requests —
    // not even the receiver-side block `alltoall`'s slack allows for.
    // Recorded: 1.013 copies above the empty exchange.
    const BLOCK: usize = 64 << 10;
    const PAYLOAD: isize = (4 * 4 * BLOCK) as isize;
    const SLACK: isize = (BLOCK / 2) as isize;
    let empty = exchange_peak(0, true);
    let peak = exchange_peak(BLOCK, true);
    assert!(
        peak <= empty + PAYLOAD + SLACK,
        "an alltoallv of {PAYLOAD} B peaked {peak} B above its baseline \
         ({empty} B with empty blocks, slack {SLACK} B)"
    );
}
