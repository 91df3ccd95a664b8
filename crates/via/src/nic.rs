//! Per-node NIC state: VI endpoints, registered memory, completion queue,
//! pending connection requests, and resource accounting.

use crate::fabric::Bytes;
use crate::types::{
    Completion, CsRequest, DescId, Discriminator, MemHandle, NodeId, PeerRequest, ViId, ViState,
    ViaError,
};
use std::collections::{BTreeSet, VecDeque};
use viampi_sim::{BufferPool, ProcId, Registry, SimTime};

/// The NIC metric set (see [`viampi_sim::metrics`]): every fabric-level
/// counter, the raw material of the paper's Table 2 and the resource-usage
/// arguments of §1. A reader takes them from [`Nic::metrics`].
pub mod nic_metrics {
    viampi_sim::metric_defs! {
        counters {
            VIS_CREATED => "nic.vis_created": "VIs ever created",
            VIS_DESTROYED => "nic.vis_destroyed": "VIs destroyed",
            CONNS_ESTABLISHED => "nic.conns_established": "Connections fully established (per local endpoint)",
            CONN_REQUESTS => "nic.conn_requests": "Outgoing connection requests issued",
            CONN_RETRIES => "nic.conn_retries": "Connection-step retransmissions after a retry timeout",
            MSGS_TX => "nic.msgs_tx": "Messages transmitted (send + RDMA)",
            BYTES_TX => "nic.bytes_tx": "Bytes transmitted",
            MSGS_RX => "nic.msgs_rx": "Messages received",
            BYTES_RX => "nic.bytes_rx": "Bytes received",
            DROPS_UNCONNECTED => "nic.drops_unconnected": "Sends discarded on unconnected VIs",
            DROPS_NO_DESC => "nic.drops_no_desc": "Arrivals dropped with no posted receive descriptor",
            DROPS_TOO_BIG => "nic.drops_too_big": "Arrivals dropped into a too-small buffer",
            DROPS_RDMA => "nic.drops_rdma": "RDMA writes dropped for addressing errors",
            DESCS_POSTED => "nic.descs_posted": "Descriptors posted (sends + receives + RDMA)",
            POOL_HITS => "nic.pool.hits": "Wire-buffer allocations served from a free list",
            POOL_MISSES => "nic.pool.misses": "Wire-buffer allocations that touched the system allocator",
            POOL_RECYCLED => "nic.pool.recycled": "Wire buffers returned to a free list on final drop",
            POOL_DISCARDED => "nic.pool.discarded": "Wire buffers not retained (oversize, full list, or exported)",
            POOL_BYTES_COPIED => "nic.pool.bytes_copied": "Bytes written building pooled buffers (fabric-wide) plus bytes copied into this NIC's registered regions",
            VI_PRODUCER_SWITCHES => "nic.vi.producer_switches": "Posts to a VI whose previous post came from a different producer thread",
            VI_CONVOY_NS => "nic.vi.convoy_ns": "Virtual nanoseconds of lock-convoy charge on shared VIs",
        }
        gauges {
            VIS_PEAK => "nic.vis_peak": "Peak simultaneously-live VIs",
            VI_MULTI_PRODUCER => "nic.vi.multi_producer_vis": "VIs that have seen posts from more than one producer thread",
            PINNED_NOW => "nic.pinned_now": "Currently pinned bytes",
            PINNED_PEAK => "nic.pinned_peak": "Peak pinned bytes",
            POOL_LIVE => "nic.pool.live": "Pooled wire buffers live at snapshot time",
            POOL_LIVE_PEAK => "nic.pool.live_peak": "Peak simultaneously-live pooled wire buffers",
        }
        hists {
            TX_BYTES => "nic.tx_bytes": "Per-packet transmit size distribution",
        }
    }
}

/// A run of `n` posted receive descriptors: ids `first, first + 1, …` over
/// consecutive `len`-byte segments of `mem` starting at `off`. The head of
/// the run — `(first, mem, off, len)` — is the descriptor the next arrival
/// consumes.
#[derive(Debug, Clone, Copy)]
pub struct RecvRun {
    /// Identifier of the head descriptor, echoed in its completion.
    pub first: DescId,
    /// Registered region the payloads land in.
    pub mem: MemHandle,
    /// Byte offset of the head descriptor's segment within the region.
    pub off: usize,
    /// Capacity of each segment.
    pub len: usize,
    /// Descriptors in the run (never 0; `u32` keeps an entry at 32 bytes).
    pub n: u32,
}

impl RecvRun {
    /// Whether descriptors `first..` over `(mem, off, len)` continue this
    /// run: next id, same region and length, next segment.
    fn is_continued_by(&self, first: DescId, mem: MemHandle, off: usize, len: usize) -> bool {
        self.first.0 + self.n as u64 == first.0
            && self.mem == mem
            && self.len == len
            && self.off + self.n as usize * self.len == off
    }
}

/// One VI endpoint. Its receive queue holds one entry per posted run, not
/// per descriptor: a deep window that nothing uses (the static baseline's
/// common case, paper §1) costs the host one entry.
#[derive(Debug)]
pub struct Vi {
    /// Connection state.
    pub state: ViState,
    /// Remote endpoint once connected.
    pub peer: Option<(NodeId, ViId)>,
    /// Remote node targeted while connecting.
    pub remote: Option<NodeId>,
    /// Discriminator used by the in-flight connect.
    pub disc: Option<Discriminator>,
    /// Pre-posted receive descriptors as runs, consumed FIFO by arrivals. A
    /// window posted in one call and one posted a descriptor at a time, in
    /// order, are the same single entry.
    pub recv_q: VecDeque<RecvRun>,
    /// Descriptors in `recv_q` (what the queue limit counts).
    pub recv_posted: usize,
    /// Messages sent on this VI (usage accounting for Table 2).
    pub msgs_sent: u64,
    /// Messages received on this VI.
    pub msgs_recvd: u64,
    /// Producer thread of the most recent post (send or RDMA). A switch
    /// between posts triggers the lock-convoy charge of
    /// [`crate::DeviceProfile::vi_lock_convoy`]; `None` until first post.
    pub last_producer: Option<u32>,
    /// True once a second distinct producer has posted on this VI.
    pub multi_producer: bool,
    /// True once destroyed; the slot is never reused so `ViId`s stay unique.
    pub destroyed: bool,
}

impl Vi {
    fn new() -> Self {
        Vi {
            state: ViState::Idle,
            peer: None,
            remote: None,
            disc: None,
            recv_q: VecDeque::new(),
            recv_posted: 0,
            msgs_sent: 0,
            msgs_recvd: 0,
            last_producer: None,
            multi_producer: false,
            destroyed: false,
        }
    }

    /// Queue `n` descriptors `first..` over consecutive `len`-byte segments
    /// of `mem` from `off` (bounds and the queue limit already checked):
    /// they extend the back run if they continue it, else start a new one.
    pub(crate) fn push_recv(
        &mut self,
        first: DescId,
        mem: MemHandle,
        off: usize,
        len: usize,
        n: usize,
    ) {
        if n == 0 {
            return;
        }
        self.recv_posted += n;
        let n = u32::try_from(n).expect("the queue limit bounds a run");
        match self.recv_q.back_mut() {
            Some(run) if run.is_continued_by(first, mem, off, len) => run.n += n,
            _ => {
                // Most queues hold one run for good: size the first
                // allocation for one, not for `VecDeque`'s minimum of four.
                if self.recv_q.capacity() == 0 {
                    self.recv_q.reserve_exact(1);
                }
                self.recv_q.push_back(RecvRun {
                    first,
                    mem,
                    off,
                    len,
                    n,
                });
            }
        }
    }
}

/// A registered (pinned) memory region.
///
/// The backing bytes are committed lazily: registration records the length
/// (pin accounting charges immediately, as on real hardware), but no host
/// memory is allocated until the first simulated DMA or host access. Large
/// worlds pre-post thousands of eager pools that are mostly never touched —
/// those cost bookkeeping only, which is what keeps np=4096 runs resident.
///
/// The backing store is a ref-counted [`Bytes`], so a payload buffer can be
/// handed through a region instead of copied through it: a region may
/// *adopt* the buffer it is registered over ([`Nic::register_buf`]), lend a
/// window of it to an in-flight RDMA write ([`Region::window`]), have an
/// arriving RDMA buffer *installed* as its backing ([`Nic::land_rdma`]),
/// and give the buffer up on deregistration ([`Nic::deregister_take`]).
/// Writes ([`Nic::write_region`]) are copy-on-write, so a window lent
/// earlier keeps the bytes it had.
#[derive(Debug)]
pub struct Region {
    /// Backing storage, exactly `len` bytes once present; `None` until the
    /// first access materializes it or a buffer is adopted or installed.
    data: Option<Bytes>,
    /// Registered length (the accounting unit; `data` commits lazily).
    len: usize,
    /// False once deregistered (slot retained so handles stay unique).
    pub active: bool,
}

impl Region {
    /// Registered length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for a zero-length registration.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn backing(&mut self) -> &mut Bytes {
        let len = self.len;
        self.data
            .get_or_insert_with(|| Bytes::from_vec(vec![0; len]))
    }

    /// The region's bytes, materialized (zero-filled) on first access.
    pub fn bytes(&mut self) -> &[u8] {
        self.backing().as_slice()
    }

    /// A ref-counted view of `len` bytes at `off` — what a simulated DMA
    /// read puts on the wire, without copying. Later writes to the region
    /// do not show through it.
    pub fn window(&mut self, off: usize, len: usize) -> Bytes {
        let mut w = self.backing().clone();
        w.advance(off);
        w.truncate(len);
        w
    }

    /// Copy `src` into the region at `off`. If a window of the backing
    /// buffer is still held elsewhere (an RDMA write in flight), the region
    /// moves to a private copy, so the window keeps its snapshot.
    fn write(&mut self, pool: &BufferPool, off: usize, src: &[u8]) {
        let buf = self.backing();
        match buf.unique_mut() {
            Some(dst) => dst[off..off + src.len()].copy_from_slice(src),
            None => {
                let mut private = pool.from_slice(buf);
                private.unique_mut().expect("fresh buffer has one handle")[off..off + src.len()]
                    .copy_from_slice(src);
                *buf = private;
            }
        }
    }
}

/// One simulated NIC.
#[derive(Debug)]
pub struct Nic {
    /// Owning node.
    pub node: NodeId,
    /// VI table, indexed by `ViId.0`. Slots are never reused.
    pub vis: Vec<Vi>,
    /// Every live VI that has named a connection target, as `(remote,
    /// disc, vi)` — what connection matching looks endpoints up by. Ordered,
    /// so the VIs of one target come out lowest id first, as a scan of
    /// `vis` would find them.
    targets: BTreeSet<(NodeId, Discriminator, ViId)>,
    /// Registered-memory table, indexed by `MemHandle.0`.
    pub regions: Vec<Region>,
    /// The completion queue shared by all of this NIC's work queues.
    pub cq: VecDeque<Completion>,
    /// Processes parked waiting for NIC activity.
    pub waiters: Vec<ProcId>,
    /// Monotone counter bumped on every externally visible NIC event
    /// (completion, connection change, incoming request, OOB message).
    pub activity: u64,
    /// Monotone counter of fired host timers (kept separate from `activity`
    /// so a spin-window timer never masquerades as real NIC progress).
    pub timer_seq: u64,
    /// Earliest time the transmit engine is free (serialization point).
    pub tx_busy_until: SimTime,
    /// Next descriptor id.
    pub next_desc: u64,
    /// Peer-to-peer connection requests that arrived before the local
    /// process issued a matching `connect_peer`.
    pub incoming_peer: Vec<PeerRequest>,
    /// Client/server requests awaiting accept/reject.
    pub incoming_cs: Vec<CsRequest>,
    /// Next client/server request id.
    pub next_cs_id: u64,
    /// Out-of-band (process-manager) mailbox: `(from, payload)`.
    pub oob: VecDeque<(NodeId, crate::fabric::OobBytes)>,
    /// Resource counters ([`nic_metrics`] set); the pin limit and the
    /// live-VI limit read their own accounting back.
    pub metrics: Registry,
}

impl Nic {
    /// Fresh NIC for `node`.
    pub fn new(node: NodeId) -> Self {
        Nic {
            node,
            vis: Vec::new(),
            targets: BTreeSet::new(),
            regions: Vec::new(),
            cq: VecDeque::new(),
            waiters: Vec::new(),
            activity: 0,
            timer_seq: 0,
            tx_busy_until: SimTime::ZERO,
            next_desc: 0,
            incoming_peer: Vec::new(),
            incoming_cs: Vec::new(),
            next_cs_id: 0,
            oob: VecDeque::new(),
            metrics: nic_metrics::registry(),
        }
    }

    /// Number of currently live (created, not destroyed) VIs. This is the
    /// "active VIs" count whose growth degrades Berkeley VIA (paper Fig. 1).
    pub fn live_vis(&self) -> usize {
        (self.metrics.counter(nic_metrics::VIS_CREATED)
            - self.metrics.counter(nic_metrics::VIS_DESTROYED)) as usize
    }

    /// Create a VI, respecting the per-NIC limit.
    pub fn create_vi(&mut self, max_vis: usize) -> Result<ViId, ViaError> {
        if self.live_vis() >= max_vis {
            return Err(ViaError::TooManyVis);
        }
        let id = ViId(self.vis.len() as u32);
        self.vis.push(Vi::new());
        self.metrics.inc(nic_metrics::VIS_CREATED);
        let live = self.live_vis() as u64;
        self.metrics.gauge_max(nic_metrics::VIS_PEAK, live);
        Ok(id)
    }

    /// Look up a live VI.
    pub fn vi(&self, id: ViId) -> Result<&Vi, ViaError> {
        match self.vis.get(id.0 as usize) {
            Some(v) if !v.destroyed => Ok(v),
            _ => Err(ViaError::InvalidVi),
        }
    }

    /// Look up a live VI mutably.
    pub fn vi_mut(&mut self, id: ViId) -> Result<&mut Vi, ViaError> {
        match self.vis.get_mut(id.0 as usize) {
            Some(v) if !v.destroyed => Ok(v),
            _ => Err(ViaError::InvalidVi),
        }
    }

    /// Start connecting the idle VI `id` to `(remote, disc)`, in `state`
    /// (`Connecting` for a request, `Establishing` for an accept): the one
    /// place a VI's target is set, so the one place it is filed under it.
    pub fn aim_vi(
        &mut self,
        id: ViId,
        remote: NodeId,
        disc: Discriminator,
        state: ViState,
    ) -> Result<(), ViaError> {
        let v = self.vi_mut(id)?;
        if v.state != ViState::Idle {
            return Err(ViaError::AlreadyConnected);
        }
        v.state = state;
        v.remote = Some(remote);
        v.disc = Some(disc);
        self.targets.insert((remote, disc, id));
        Ok(())
    }

    /// The live VIs aimed at `(remote, disc)`, lowest id first.
    pub fn vis_aimed_at(
        &self,
        remote: NodeId,
        disc: Discriminator,
    ) -> impl Iterator<Item = (ViId, &Vi)> {
        self.targets
            .range((remote, disc, ViId(0))..=(remote, disc, ViId(u32::MAX)))
            .map(|&(_, _, id)| (id, &self.vis[id.0 as usize]))
    }

    /// Destroy a VI (its slot id is retired, never reused).
    pub fn destroy_vi(&mut self, id: ViId) -> Result<(), ViaError> {
        let vi = self.vi_mut(id)?;
        vi.destroyed = true;
        vi.state = ViState::Error;
        vi.recv_q.clear();
        vi.recv_posted = 0;
        if let (Some(remote), Some(disc)) = (vi.remote, vi.disc) {
            self.targets.remove(&(remote, disc, id));
        }
        self.metrics.inc(nic_metrics::VIS_DESTROYED);
        Ok(())
    }

    /// Register (pin) `len` bytes, respecting the pin limit.
    pub fn register(&mut self, len: usize, max_pinned: usize) -> Result<MemHandle, ViaError> {
        let pinned_now = self.metrics.gauge(nic_metrics::PINNED_NOW) as usize;
        if pinned_now + len > max_pinned {
            return Err(ViaError::PinLimitExceeded {
                requested: len,
                available: max_pinned - pinned_now,
            });
        }
        let h = MemHandle(self.regions.len() as u32);
        self.regions.push(Region {
            data: None,
            len,
            active: true,
        });
        self.metrics.gauge_add(nic_metrics::PINNED_NOW, len as u64);
        let now = self.metrics.gauge(nic_metrics::PINNED_NOW);
        self.metrics.gauge_max(nic_metrics::PINNED_PEAK, now);
        Ok(h)
    }

    /// Register (pin) the buffer `data` itself: the region adopts it as its
    /// backing store, so an RDMA write out of the region sends these bytes
    /// with no staging copy. A zero-length buffer pins one byte, as the
    /// smallest registration does.
    pub fn register_buf(&mut self, data: Bytes, max_pinned: usize) -> Result<MemHandle, ViaError> {
        let h = self.register(data.len().max(1), max_pinned)?;
        if !data.is_empty() {
            self.regions[h.0 as usize].data = Some(data);
        }
        Ok(h)
    }

    /// Deregister a region, releasing its pinned bytes.
    pub fn deregister(&mut self, h: MemHandle) -> Result<(), ViaError> {
        self.deregister_take(h, 0).map(drop)
    }

    /// Deregister a region and take its first `len` bytes with it — the
    /// backing buffer itself, not a copy.
    pub fn deregister_take(&mut self, h: MemHandle, len: usize) -> Result<Bytes, ViaError> {
        self.check_bounds(h, 0, len)?;
        let r = &mut self.regions[h.0 as usize];
        r.active = false;
        // An untouched region reads as zeros, here as everywhere.
        let mut data = r
            .data
            .take()
            .unwrap_or_else(|| Bytes::from_vec(vec![0; len]));
        data.truncate(len);
        self.metrics
            .gauge_sub(nic_metrics::PINNED_NOW, r.len as u64);
        Ok(data)
    }

    /// Copy `src` into region `mem` at `off` — a host store or a simulated
    /// DMA write. The caller has checked bounds. Counted in
    /// `nic.pool.bytes_copied`, as is the private copy a region makes first
    /// when a window of its buffer is still in flight.
    pub fn write_region(&mut self, pool: &BufferPool, mem: MemHandle, off: usize, src: &[u8]) {
        self.regions[mem.0 as usize].write(pool, off, src);
        self.metrics
            .add(nic_metrics::POOL_BYTES_COPIED, src.len() as u64);
    }

    /// Land an arriving RDMA payload in region `mem` at `off` (bounds
    /// checked by the caller). A payload that covers the whole of a region
    /// nothing has touched yet becomes the region's backing store as it is;
    /// any other write is copied in.
    pub fn land_rdma(&mut self, pool: &BufferPool, mem: MemHandle, off: usize, data: Bytes) {
        let r = &mut self.regions[mem.0 as usize];
        if r.data.is_none() && off == 0 && data.len() == r.len {
            r.data = Some(data);
        } else {
            self.write_region(pool, mem, off, &data);
        }
    }

    /// Validate a `(mem, off, len)` triple against a live region.
    pub fn check_bounds(&self, mem: MemHandle, off: usize, len: usize) -> Result<(), ViaError> {
        let r = self
            .regions
            .get(mem.0 as usize)
            .ok_or(ViaError::InvalidMem)?;
        if !r.active {
            return Err(ViaError::InvalidMem);
        }
        if off.checked_add(len).is_none_or(|end| end > r.len) {
            return Err(ViaError::OutOfBounds);
        }
        Ok(())
    }

    /// Consume the receive descriptor a `len`-byte arrival on `vi` lands
    /// in — the head of the front run — and return its id and segment
    /// `(desc, mem, off)`. `None` is a counted drop: no live VI, nothing
    /// posted, or a posted buffer too small (VIA leaves that one posted).
    pub(crate) fn take_recv(&mut self, vi: ViId, len: usize) -> Option<(DescId, MemHandle, usize)> {
        let v = match self.vis.get_mut(vi.0 as usize) {
            Some(v) if !v.destroyed => v,
            _ => {
                self.metrics.inc(nic_metrics::DROPS_NO_DESC);
                return None;
            }
        };
        let Some(run) = v.recv_q.front_mut() else {
            self.metrics.inc(nic_metrics::DROPS_NO_DESC);
            return None;
        };
        if run.len < len {
            self.metrics.inc(nic_metrics::DROPS_TOO_BIG);
            return None;
        }
        let head = (run.first, run.mem, run.off);
        if run.n == 1 {
            v.recv_q.pop_front();
        } else {
            run.first.0 += 1;
            run.off += run.len;
            run.n -= 1;
        }
        v.recv_posted -= 1;
        v.msgs_recvd += 1;
        self.metrics.inc(nic_metrics::MSGS_RX);
        self.metrics.add(nic_metrics::BYTES_RX, len as u64);
        Some(head)
    }

    /// Allocate the next descriptor id.
    pub fn alloc_desc(&mut self) -> DescId {
        self.alloc_descs(1)
    }

    /// Allocate `n` consecutive descriptor ids; returns the first.
    pub fn alloc_descs(&mut self, n: usize) -> DescId {
        let d = DescId(self.next_desc);
        self.next_desc += n as u64;
        self.metrics.add(nic_metrics::DESCS_POSTED, n as u64);
        d
    }

    /// Record externally visible activity and drain the waiter list into
    /// `wake` (the caller wakes them through the engine API).
    pub fn bump_activity(&mut self, wake: &mut Vec<ProcId>) {
        self.activity += 1;
        wake.append(&mut self.waiters);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vi_ids_are_never_reused() {
        let mut nic = Nic::new(0);
        let a = nic.create_vi(16).unwrap();
        nic.destroy_vi(a).unwrap();
        let b = nic.create_vi(16).unwrap();
        assert_ne!(a, b);
        assert!(nic.vi(a).is_err(), "destroyed VI is invalid");
        assert!(nic.vi(b).is_ok());
    }

    #[test]
    fn vi_limit_counts_live_not_cumulative() {
        let mut nic = Nic::new(0);
        let a = nic.create_vi(2).unwrap();
        let _b = nic.create_vi(2).unwrap();
        assert_eq!(nic.create_vi(2).unwrap_err(), ViaError::TooManyVis);
        nic.destroy_vi(a).unwrap();
        assert!(nic.create_vi(2).is_ok(), "destroying frees a slot");
        assert_eq!(nic.metrics.counter(nic_metrics::VIS_CREATED), 3);
        assert_eq!(nic.metrics.gauge(nic_metrics::VIS_PEAK), 2);
    }

    #[test]
    fn pin_accounting_tracks_peak_and_current() {
        let mut nic = Nic::new(0);
        let a = nic.register(1000, 2000).unwrap();
        let err = nic.register(1500, 2000).unwrap_err();
        assert!(matches!(
            err,
            ViaError::PinLimitExceeded {
                available: 1000,
                ..
            }
        ));
        let b = nic.register(1000, 2000).unwrap();
        assert_eq!(nic.metrics.gauge(nic_metrics::PINNED_NOW), 2000);
        nic.deregister(a).unwrap();
        assert_eq!(nic.metrics.gauge(nic_metrics::PINNED_NOW), 1000);
        assert_eq!(nic.metrics.gauge(nic_metrics::PINNED_PEAK), 2000);
        assert!(nic.deregister(a).is_err(), "double deregister rejected");
        nic.deregister(b).unwrap();
        assert_eq!(nic.metrics.gauge(nic_metrics::PINNED_NOW), 0);
    }

    #[test]
    fn bounds_checking() {
        let mut nic = Nic::new(0);
        let h = nic.register(100, 1 << 20).unwrap();
        assert!(nic.check_bounds(h, 0, 100).is_ok());
        assert!(nic.check_bounds(h, 50, 50).is_ok());
        assert_eq!(nic.check_bounds(h, 50, 51), Err(ViaError::OutOfBounds));
        assert_eq!(
            nic.check_bounds(h, usize::MAX, 2),
            Err(ViaError::OutOfBounds),
            "offset overflow is caught"
        );
        assert_eq!(
            nic.check_bounds(MemHandle(99), 0, 1),
            Err(ViaError::InvalidMem)
        );
    }

    #[test]
    fn activity_bump_drains_waiters() {
        let mut nic = Nic::new(0);
        nic.waiters.extend([3, 5]);
        let mut wake = Vec::new();
        nic.bump_activity(&mut wake);
        assert_eq!(wake, vec![3, 5]);
        assert!(nic.waiters.is_empty());
        assert_eq!(nic.activity, 1);
    }

    /// A one-node fabric with one VI and two 64 KiB regions.
    fn one_vi(max_recv_descs: usize) -> (crate::fabric::Fabric, ViId, MemHandle, MemHandle) {
        let mut profile = crate::DeviceProfile::clan();
        profile.max_recv_descs = max_recv_descs;
        let mut f = crate::fabric::Fabric::new(profile, 1);
        let vi = f.nics[0].create_vi(16).unwrap();
        let a = f.nics[0].register(1 << 16, 1 << 20).unwrap();
        let b = f.nics[0].register(1 << 16, 1 << 20).unwrap();
        (f, vi, a, b)
    }

    #[test]
    fn a_run_is_consumed_as_the_single_posts_it_stands_for() {
        let drain = |as_run: bool| {
            let (mut f, vi, mem, _) = one_vi(512);
            if as_run {
                f.post_recv(0, vi, mem, 0, 512, 16).unwrap();
            } else {
                for i in 0..16 {
                    f.post_recv(0, vi, mem, i * 512, 512, 1).unwrap();
                }
            }
            assert_eq!(f.nics[0].vis[0].recv_q.len(), 1, "one entry either way");
            let got: Vec<_> = (0..16)
                .map(|_| f.nics[0].take_recv(vi, 100).unwrap())
                .collect();
            assert!(f.nics[0].take_recv(vi, 100).is_none(), "window used up");
            assert_eq!(f.nics[0].metrics.counter(nic_metrics::DROPS_NO_DESC), 1);
            got
        };
        let (run, singles) = (drain(true), drain(false));
        assert_eq!(run, singles);
        let mem = MemHandle(0);
        let want: Vec<_> = (0..16)
            .map(|i| (DescId(i), mem, i as usize * 512))
            .collect();
        assert_eq!(run, want);
    }

    #[test]
    fn a_repost_that_breaks_contiguity_starts_a_new_run() {
        let (mut f, vi, a, b) = one_vi(512);
        let runs = |f: &crate::fabric::Fabric| -> Vec<(u64, usize, usize)> {
            let q = &f.nics[0].vis[0].recv_q;
            q.iter().map(|r| (r.first.0, r.off, r.n as usize)).collect()
        };
        f.post_recv(0, vi, a, 0, 64, 4).unwrap();
        assert_eq!(f.nics[0].vis[0].recv_q.capacity(), 1, "one run, one entry");
        // Consume the head and repost its segment, as the device does: the
        // segment lies behind the run's end, so it starts a run of its own.
        let (_, mem, off) = f.nics[0].take_recv(vi, 64).unwrap();
        assert_eq!((mem, off), (a, 0));
        f.post_recv(0, vi, mem, off, 64, 1).unwrap();
        assert_eq!(runs(&f), [(1, 64, 3), (4, 0, 1)]);
        // The next segment with the next id continues that run ...
        f.post_recv(0, vi, a, 64, 64, 1).unwrap();
        assert_eq!(runs(&f), [(1, 64, 3), (4, 0, 2)]);
        // ... but not after an id went to a send, nor in another region,
        // nor at another length.
        f.nics[0].alloc_desc();
        f.post_recv(0, vi, a, 128, 64, 1).unwrap();
        f.post_recv(0, vi, b, 192, 64, 1).unwrap();
        f.post_recv(0, vi, b, 256, 32, 1).unwrap();
        assert_eq!(
            runs(&f),
            [(1, 64, 3), (4, 0, 2), (7, 128, 1), (8, 192, 1), (9, 256, 1)]
        );
        assert_eq!(f.nics[0].vis[0].recv_posted, 8);
    }

    #[test]
    fn the_queue_limit_counts_descriptors_not_runs() {
        // A run of 500, then twelve singles that each start a run.
        let (mut f, vi, a, b) = one_vi(512);
        f.post_recv(0, vi, a, 0, 64, 500).unwrap();
        for i in (0..12).rev() {
            f.post_recv(0, vi, b, i * 64, 64, 1).unwrap();
        }
        assert_eq!(f.nics[0].vis[0].recv_q.len(), 13);
        assert_eq!(
            f.post_recv(0, vi, b, 0, 64, 1),
            Err(ViaError::RecvQueueFull)
        );
        // One run of 512 fills the queue as one entry.
        let (mut f, vi, a, _) = one_vi(512);
        assert_eq!(
            f.post_recv(0, vi, a, 0, 64, 513),
            Err(ViaError::RecvQueueFull)
        );
        f.post_recv(0, vi, a, 0, 64, 512).unwrap();
        assert_eq!(f.nics[0].vis[0].recv_q.len(), 1);
        assert_eq!(
            f.post_recv(0, vi, a, 0, 64, 1),
            Err(ViaError::RecvQueueFull)
        );
        // An arrival frees exactly one descriptor's room.
        f.nics[0].take_recv(vi, 64).unwrap();
        f.post_recv(0, vi, a, 0, 64, 1).unwrap();
        assert_eq!(
            f.post_recv(0, vi, a, 64, 64, 1),
            Err(ViaError::RecvQueueFull)
        );
    }

    #[test]
    fn destroy_vi_empties_the_queue_and_its_count() {
        let (mut f, vi, a, _) = one_vi(512);
        f.post_recv(0, vi, a, 0, 64, 8).unwrap();
        f.post_recv(0, vi, a, 1024, 64, 1).unwrap();
        assert_eq!(f.nics[0].vis[0].recv_posted, 9);
        f.nics[0].destroy_vi(vi).unwrap();
        let v = &f.nics[0].vis[0];
        assert!(v.recv_q.is_empty());
        assert_eq!(v.recv_posted, 0);
    }

    #[test]
    fn desc_ids_monotone() {
        let mut nic = Nic::new(0);
        let a = nic.alloc_desc();
        let b = nic.alloc_desc();
        assert!(b.0 > a.0);
        assert_eq!(nic.metrics.counter(nic_metrics::DESCS_POSTED), 2);
        assert_eq!(
            nic.metrics.snapshot().get("nic.descs_posted"),
            Some(2),
            "registry snapshot agrees with the compatibility view"
        );
    }
}
