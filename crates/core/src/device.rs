//! The ADI-layer device: per-rank data-path state over a [`ViaPort`].
//!
//! This is the reproduction of MVICH's VIA device, §4 of the paper, minus
//! the connection manager, which lives in [`crate::conn`] and is called
//! from here at the points where the paper calls it (a send's or receive's
//! first use of a peer, and the top of the progress loop). What is left:
//!
//! * per-peer **channels**, each owning a pre-posted eager receive pool, a
//!   send staging pool, a credit counter, and the **pre-posted send FIFO**
//!   that holds sends issued before the connection exists (§3.4); with
//!   `vis_per_peer > 1` a pair holds several independent *stripe* channels
//!   (the Zambre et al. endpoint model): sends pick the stripe
//!   `thread % vis_per_peer`, per-VI FIFO is preserved per stripe, and
//!   cross-stripe ordering is relaxed;
//! * the **eager** protocol (≤ threshold, staged copies, credits, dynamic
//!   pool growth) and the **rendezvous** protocol (RTS → CTS → RDMA write →
//!   FIN, zero-copy);
//! * the polling **progress engine** `check_once`, the analogue of MVICH's
//!   `MPID_DeviceCheck`: connection progress first (§3.3), then
//!   completions, stalled FIFOs and credit returns;
//! * the **wait policies** of §5.3: `Polling` vs `SpinWait` (spin
//!   `spincount` polls, then a kernel wait that pays an interrupt wake-up
//!   on cLAN; on Berkeley VIA wait is itself a poll loop);
//! * the request table, the process-manager bootstrap and `MPI_Finalize`.

use crate::config::{MpiConfig, WaitPolicy, INITIAL_BUFS, NOISE_DURATION_US, NOISE_INTERVAL_US};
use crate::conn::{ChanState, Conn, ConnAction};
use crate::matching::{MatchEngine, PostedRecv, Unexpected, UnexpectedBody};
use crate::protocol::{Header, MsgKind, HEADER_LEN};
use crate::request::{SendMode, Status};
pub use crate::table::ChannelTable;
use crate::trace::{Span, SpanKind, TraceKind};
use crate::window::IdWindow;
use std::collections::VecDeque;
use viampi_sim::{BufferPool, Registry, SimDuration, SimTime};
use viampi_via::fabric::{Bytes, OobBytes};
use viampi_via::{CompletionKind, MemHandle, Open, ViId, ViaError, ViaPort};

/// The MPI device's metric set (`mpi.*` entries of the cross-layer
/// registry). A reader takes them from [`Device::metrics`], or after a run
/// from [`crate::RankReport::mpi`].
pub mod mpi_metrics {
    viampi_sim::metric_defs! {
        counters {
            SENDS => "mpi.sends": "Point-to-point sends issued",
            RECVS => "mpi.recvs": "Receives posted",
            EAGER_SENT => "mpi.eager_sent": "Eager-protocol data messages sent",
            RENDEZVOUS_SENT => "mpi.rendezvous_sent": "Rendezvous-protocol messages sent",
            CREDIT_MSGS => "mpi.credit_msgs": "Explicit credit-return messages sent",
            UNEXPECTED_MSGS => "mpi.unexpected_msgs": "Messages that arrived before their receive was posted",
            COLLECTIVES => "mpi.collectives": "Collective operations performed",
            FIFO_DEFERRED_SENDS => "mpi.fifo_deferred_sends": "Sends queued in a pre-posted FIFO (paper 3.4)",
            CREDIT_GROWTHS => "mpi.credit_growths": "Dynamic-flow-control pool growths",
            CONN_RETRIES => "mpi.conn_retries": "Connection retransmissions issued (fault injection)",
            CONN_FAILURES => "mpi.conn_failures": "Channels failed after exhausting the retry budget",
            ENDPOINT_STRIPE_SETUPS => "mpi.endpoint.stripe_setups": "Non-zero stripe channels provisioned (multi-VI endpoints)",
            ENDPOINT_STRIPED_SENDS => "mpi.endpoint.striped_sends": "Wire messages sent on a non-zero stripe (multi-VI endpoints)",
            PROGRESS_PASSES => "mpi.progress_passes": "Passes of the progress engine (check_once calls)",
            TABLE_WALKS => "mpi.table_walks": "Channel-table walks made by progress passes (connecting, queued-send and credit-return scans)",
        }
        gauges {
            INIT_TIME_NS => "mpi.init_time_ns": "Virtual time spent inside MPI_Init, in nanoseconds",
            CONNS_AT_INIT => "mpi.conns_at_init": "Connections established during MPI_Init",
            CONN_RETRY_DEPTH_MAX => "mpi.conn_retry_depth_max": "Deepest retry attempt reached on any one channel (fault injection)",
            ENDPOINT_VIS_PER_PEER => "mpi.endpoint.vis_per_peer": "Configured VIs (stripe channels) per peer pair",
            ENDPOINT_THREADS_MAX => "mpi.endpoint.threads_max": "Highest producer-thread index observed, plus one",
        }
        hists {
            EAGER_BYTES => "mpi.eager_bytes": "Payload size distribution of eager sends",
            RNDV_BYTES => "mpi.rndv_bytes": "Payload size distribution of rendezvous sends",
        }
    }
}

/// What an in-flight send descriptor was carrying.
#[derive(Debug)]
enum SlotUse {
    /// Eager data or control message occupying a staging slot; `sreq` is
    /// the request to complete at descriptor completion (None for control).
    Wire { sreq: Option<u64> },
    /// Rendezvous RDMA write; on completion deregister `mem` and finish.
    Rdma { sreq: u64, mem: MemHandle },
}

/// A queued outgoing wire message (the pre-posted send FIFO of §3.4 plus
/// credit/staging stalls share this queue; order is preserved per peer).
/// The frame is the full pooled wire buffer — `HEADER_LEN` placeholder
/// bytes (encoded late, so piggybacked credits are current at transmit
/// time) followed by the payload, already copied exactly once.
#[derive(Debug)]
pub(crate) struct OutMsg {
    header: Header,
    frame: Bytes,
    /// Producer thread that issued the message — stamped at post time, so
    /// a send that stalls in the FIFO still charges the NIC's lock-convoy
    /// model against the thread that posted it, not whichever thread later
    /// happens to drive the drain.
    producer: u32,
}

/// Per-peer channel (one *stripe* of a pair when `vis_per_peer > 1`).
///
/// A channel does not mirror what the NIC already holds. Its pools are
/// pinned regions whose handles it never reads back: the posted receive
/// window lives in the VI's queue, and a receive completion names the
/// segment to repost. A staging slot's identity is never read either — a
/// frame is pooled and sent by reference — so the channel counts how many
/// are free.
pub struct Channel {
    /// Peer rank.
    pub peer: usize,
    /// Stripe index within the pair, `0..vis_per_peer`. Always 0 at the
    /// default configuration (one VI per pair, as in the paper).
    pub stripe: usize,
    /// Connection state machine and VI (see [`crate::conn`]).
    pub(crate) conn: Conn,
    /// Buffers per pinned pool region: the whole window in static flow
    /// control; the growth step under dynamic flow control (the paper's
    /// stated future work).
    chunk: usize,
    /// Current posted receive buffers (== credits granted to the peer).
    pub bufs: usize,
    /// Messages received since the last pool growth (pressure signal).
    recvs_since_grow: u64,
    /// Free send staging slots.
    send_slots: usize,
    /// Posted send descriptors awaiting their completion, oldest first. A
    /// VI completes its descriptors in the order they were posted, so the
    /// match is at the front; depth is bounded by the staging slots plus
    /// the rendezvous writes in flight.
    inflight: VecDeque<(u64, SlotUse)>,
    /// Eager sends we may still issue (free remote buffers).
    pub credits: usize,
    /// Remote buffers we consumed and reposted but have not yet returned.
    pub credits_owed: usize,
    pub(crate) outq: VecDeque<OutMsg>,
}

impl Channel {
    pub(crate) fn new(peer: usize, stripe: usize) -> Self {
        Channel {
            peer,
            stripe,
            conn: Conn::default(),
            chunk: 0,
            bufs: 0,
            recvs_since_grow: 0,
            send_slots: 0,
            inflight: VecDeque::new(),
            credits: 0,
            credits_owed: 0,
            outq: VecDeque::new(),
        }
    }

    /// Take the in-flight record of descriptor `desc`.
    fn take_inflight(&mut self, desc: u64) -> Option<SlotUse> {
        let at = self.inflight.iter().position(|&(d, _)| d == desc)?;
        self.inflight.remove(at).map(|(_, u)| u)
    }

    /// Owed credits at which an explicit return is due: half the window —
    /// the current one, so a small dynamic window still returns credits
    /// promptly, and never more than half the configured one.
    fn owes_credits(&self, num_bufs: usize) -> bool {
        self.credits_owed >= (self.bufs.min(num_bufs) / 2).max(1)
    }

    /// Whether an explicit credit message can go out now: it spends the
    /// reserved last credit and needs a staging slot.
    fn can_return_credits(&self) -> bool {
        self.conn.is_connected() && self.credits >= 1 && self.send_slots > 0
    }
}

/// A send's payload: the caller's bytes, lent for the call, or a buffer
/// handed over with the send.
#[derive(Debug)]
pub enum Payload<'a> {
    /// Lent: a rendezvous copies it once into a pooled buffer.
    Borrowed(&'a [u8]),
    /// Handed over: a rendezvous registers this very buffer, or a window
    /// of one the caller still shares, and copies nothing.
    Owned(Bytes),
}

impl std::ops::Deref for Payload<'_> {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match self {
            Payload::Borrowed(s) => s,
            Payload::Owned(b) => b,
        }
    }
}

impl<'a> From<&'a [u8]> for Payload<'a> {
    fn from(s: &'a [u8]) -> Self {
        Payload::Borrowed(s)
    }
}

/// Internal request record.
struct ReqState {
    done: bool,
    /// Completed with an error (peer unreachable) rather than a result.
    failed: bool,
    status: Status,
    /// Recv: completed payload (the pooled wire frame, delivered by
    /// reference). Send (rendezvous): retained user data until the CTS
    /// arrives.
    data: Option<Bytes>,
    /// Recv rendezvous landing region (registered at CTS time).
    rndv_mem: Option<MemHandle>,
    /// Recv rendezvous expected length; on sends, the rendezvous payload
    /// length (kept for the span closed at RDMA completion).
    rndv_len: usize,
    /// Peer (for rendezvous send).
    peer: usize,
    /// When tracing, the time the rendezvous was started (RTS posted) —
    /// the start of the span closed when the transfer completes.
    rndv_begin: Option<SimTime>,
}

impl ReqState {
    /// Complete with the peer-unreachable error.
    fn fail(&mut self) {
        self.done = true;
        self.failed = true;
    }
}

/// The per-rank ADI device.
pub struct Device {
    /// This process's rank (== fabric node).
    pub rank: usize,
    /// World size.
    pub size: usize,
    /// Configuration.
    pub cfg: MpiConfig,
    /// VIA provider handle.
    pub port: ViaPort,
    /// Per-slot channels (`slot = peer * vis_per_peer + stripe`),
    /// materialized lazily on first touch (`channels[rank]` is never used).
    /// Never-touched slots read as `Unconnected`, so rank memory is
    /// O(used channels), not O(np).
    pub channels: ChannelTable,
    /// Matching queues.
    pub matcher: MatchEngine,
    /// Live requests by id. Ids are handed out in order from 1 and never
    /// reused (they travel in wire headers and traces).
    reqs: IdWindow<ReqState>,
    /// Channel slot of each VI this device created, indexed by `ViId.0`
    /// (a NIC numbers its VIs densely from 0); `None` for a VI some other
    /// user of the port created.
    vi_to_slot: Vec<Option<usize>>,
    /// Calling producer-thread index (see [`Device::set_thread`]); selects
    /// the stripe `cur_thread % vis_per_peer` for outgoing wire traffic.
    cur_thread: usize,
    /// Next virtual time at which modelled OS noise preempts this rank.
    next_noise_at: viampi_sim::SimTime,
    /// Latest connection-retry deadline a timer event has been scheduled
    /// for (deduplicates timer arming; `None` when no timer is pending).
    pub(crate) armed_conn_timer: Option<SimTime>,
    /// Some channel may be `Connecting`: set by every transition that
    /// leaves one so, cleared by a `conn_poll` walk that finds none. While
    /// clear, a progress pass does not walk the table for handshakes.
    pub(crate) conn_dirty: bool,
    /// Some channel may hold queued sends (set where a send stays queued,
    /// cleared by a walk that finds none).
    outq_dirty: bool,
    /// Some channel may owe an explicit credit return (set where
    /// `credits_owed` reaches the threshold, cleared by a walk that finds
    /// none).
    owed_dirty: bool,
    /// Recorded protocol events (empty unless `cfg.trace`).
    pub trace: Vec<crate::trace::TraceEvent>,
    /// Recorded spans (empty unless `cfg.trace`).
    pub spans: Vec<Span>,
    /// MPI-level counters ([`mpi_metrics`] set).
    pub metrics: Registry,
    /// Handle to the fabric's shared wire-buffer pool (cached so hot paths
    /// don't take the world lock just to allocate a frame).
    pool: BufferPool,
}

impl Device {
    /// Build the device; does **not** perform `MPI_Init` connection setup
    /// (see [`Device::init`]).
    pub fn new(port: ViaPort, rank: usize, size: usize, cfg: MpiConfig) -> Self {
        let pool = port.pool();
        let stripes = cfg.vis_per_peer.max(1);
        Device {
            rank,
            size,
            cfg,
            port,
            channels: ChannelTable::new(rank, stripes),
            matcher: MatchEngine::new(),
            reqs: IdWindow::new(1),
            vi_to_slot: Vec::new(),
            cur_thread: 0,
            next_noise_at: viampi_sim::SimTime::ZERO,
            armed_conn_timer: None,
            conn_dirty: false,
            outq_dirty: false,
            owed_dirty: false,
            trace: Vec::new(),
            spans: Vec::new(),
            metrics: mpi_metrics::registry(),
            pool,
        }
    }

    /// Stripes (VIs) per peer pair.
    #[inline]
    pub(crate) fn nstripes(&self) -> usize {
        self.cfg.vis_per_peer.max(1)
    }

    /// The stripe the calling producer thread sends on.
    #[inline]
    pub(crate) fn send_stripe(&self) -> usize {
        self.cur_thread % self.nstripes()
    }

    /// Channel-table slot for `(peer, stripe)`.
    #[inline]
    pub(crate) fn slot_of(&self, peer: usize, stripe: usize) -> usize {
        peer * self.nstripes() + stripe
    }

    /// Declare which simulated producer thread is issuing the following MPI
    /// calls. Thread `t` sends on stripe `t % vis_per_peer`, which is how
    /// the Zambre endpoint model maps threads onto per-pair VI sets. The
    /// default thread 0 on the default single-VI configuration is a no-op.
    pub fn set_thread(&mut self, t: usize) {
        self.cur_thread = t;
        self.metrics
            .gauge_max(mpi_metrics::ENDPOINT_THREADS_MAX, (t + 1) as u64);
    }

    /// Flat snapshot of this rank's device **and** NIC registries
    /// (`mpi.*` + `nic.*` entries).
    pub fn metrics_snapshot(&self) -> viampi_sim::MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        snap.merge(&self.port.metrics().snapshot());
        snap
    }

    #[inline]
    pub(crate) fn trace(&mut self, kind: TraceKind) {
        if self.cfg.trace {
            self.trace.push(crate::trace::TraceEvent {
                t: self.port.ctx().now(),
                kind,
            });
        }
    }

    /// Modelled OS noise: the paper's testbed ran Linux 2.2 on 4-way SMP
    /// nodes, where timer ticks and daemons periodically steal the CPU.
    /// Each rank is preempted for `noise_duration` every `noise_interval`
    /// (staggered per rank, fully deterministic). This skew is what makes
    /// spinwait miss its spin window in collective operations (§5.4) while
    /// leaving tight request-response patterns inside the window.
    pub fn maybe_noise(&mut self) {
        if !self.cfg.os_noise {
            return;
        }
        let now = self.port.ctx().now();
        if now >= self.next_noise_at {
            let interval = SimDuration::micros(NOISE_INTERVAL_US + 97 * self.rank as u64 % 541);
            self.next_noise_at = now + interval;
            self.port.charge(SimDuration::micros(NOISE_DURATION_US));
        }
    }

    // =====================================================================
    // Process-manager bootstrap (MPI_Init's address exchange, init/finalize sync)
    // =====================================================================

    /// Process-manager address exchange: everyone sends its NIC address to
    /// rank 0, which gathers and rebroadcasts the table.
    pub(crate) fn bootstrap_exchange(&mut self) {
        if self.size == 1 {
            return;
        }
        if self.rank == 0 {
            let mut seen = 1usize;
            while seen < self.size {
                let (_from, _data) = self.port.oob_recv();
                seen += 1;
            }
            // Build the table once and broadcast a shared handle: the oob
            // layer clones an `Arc`, not the table bytes, so the root's
            // init-time cost scales with one table, not `size` copies.
            let table: OobBytes = (0..self.size as u32)
                .flat_map(|r| r.to_le_bytes())
                .collect::<Vec<u8>>()
                .into();
            for r in 1..self.size {
                self.port.oob_send_shared(r, table.clone());
            }
        } else {
            self.port
                .oob_send(0, (self.rank as u32).to_le_bytes().to_vec());
            let _ = self.port.oob_recv_shared();
        }
    }

    /// Final init sync so no rank leaves `MPI_Init` before all are ready.
    pub(crate) fn bootstrap_sync(&mut self) {
        if self.size == 1 {
            return;
        }
        if self.rank == 0 {
            for _ in 1..self.size {
                let _ = self.port.oob_recv();
            }
            for r in 1..self.size {
                self.port.oob_send(r, vec![1]);
            }
        } else {
            self.port.oob_send(0, vec![1]);
            let _ = self.port.oob_recv();
        }
    }

    // =====================================================================
    // Buffer pools
    // =====================================================================

    /// Bring up `slot`'s freshly created `vi` in one port call: pin its
    /// buffer pools, pre-post its eager receive window — which must be in
    /// place *before* the connection completes or early arrivals would be
    /// dropped — and `open` it. Completions on `vi` route to `slot`.
    pub(crate) fn bring_up(&mut self, slot: usize, vi: ViId, open: Open) -> Result<(), ViaError> {
        // Under dynamic flow control (the paper's future-work extension)
        // each side starts with a small chunk and grows under pressure;
        // both sides compute the same initial size so credits agree.
        let chunk = if self.cfg.dynamic_credits {
            INITIAL_BUFS.min(self.cfg.num_bufs).max(2)
        } else {
            self.cfg.num_bufs
        };
        self.port.bring_up(vi, self.cfg.buf_size(), chunk, open)?;
        let ch = &mut self.channels[slot];
        ch.chunk = chunk;
        ch.bufs = chunk;
        ch.send_slots = chunk;
        ch.credits = chunk;
        let at = vi.0 as usize;
        if self.vi_to_slot.len() <= at {
            self.vi_to_slot.resize(at + 1, None);
        }
        self.vi_to_slot[at] = Some(slot);
        Ok(())
    }

    /// Dynamic flow control: grow a channel's receive pool by one chunk and
    /// grant the new buffers to the sender through the credit-return path.
    fn grow_recv_pool(&mut self, slot: usize) {
        let bsz = self.cfg.buf_size();
        let (chunk, vi) = {
            let ch = &self.channels[slot];
            (ch.chunk, ch.conn.vi().unwrap())
        };
        let mem = self.port.register(chunk * bsz).expect("pin grown pool");
        for i in 0..chunk {
            self.port
                .post_recv(vi, mem, i * bsz, bsz)
                .expect("post grown buffer");
        }
        let ch = &mut self.channels[slot];
        ch.bufs += chunk;
        // Grant the new window to the peer.
        ch.credits_owed += chunk;
        ch.recvs_since_grow = 0;
        self.owed_dirty |= ch.owes_credits(self.cfg.num_bufs);
        let bufs = ch.bufs;
        let peer = ch.peer;
        self.metrics.inc(mpi_metrics::CREDIT_GROWTHS);
        self.trace(TraceKind::PoolGrown { peer, bufs });
    }

    /// Dynamic flow control, sender side: the peer granted more credits
    /// than we have staging slots; grow the staging pool to use them.
    fn grow_send_pool(&mut self, slot: usize) {
        let bsz = self.cfg.buf_size();
        let chunk = self.channels[slot].chunk;
        self.port.register(chunk * bsz).expect("pin grown staging");
        self.channels[slot].send_slots += chunk;
    }

    /// Drop the sends queued behind `slot` and fail every live request bound
    /// to its peer (the connection manager gave up on the peer).
    pub(crate) fn fail_requests(&mut self, slot: usize) {
        let ch = &mut self.channels[slot];
        ch.outq.clear();
        let peer = ch.peer;
        for r in self.reqs.values_mut().filter(|r| r.peer == peer && !r.done) {
            r.fail();
        }
    }

    // =====================================================================
    // Send / receive entry points
    // =====================================================================

    /// Post a point-to-point send; returns the request id. This is the
    /// `MPID_IsendContig` analogue: if no connection exists, it is created
    /// (on-demand) and the message queued in the per-VI FIFO (§3.4).
    ///
    /// A caller that no longer needs the payload, or shares it read-only,
    /// hands it over as [`Payload::Owned`]: a rendezvous send then
    /// registers that very buffer, as MVICH registers the user buffer, and
    /// copies nothing. A borrowed payload is copied once into a pooled
    /// buffer; an eager one is copied once into its wire frame either way.
    pub fn post_send_msg(
        &mut self,
        dst: usize,
        context: u16,
        tag: i32,
        data: Payload<'_>,
        mode: SendMode,
    ) -> u64 {
        assert!(dst < self.size, "invalid destination rank {dst}");
        self.metrics.inc(mpi_metrics::SENDS);
        let req = self.alloc_req(dst);
        if dst == self.rank {
            // Self-send: loop back through the matcher (always buffered).
            match self.matcher.incoming(context, self.rank as u32, tag) {
                Some(posted) => {
                    let payload = self.pool.from_slice(&data);
                    self.complete_recv(posted.req, self.rank, tag, payload);
                }
                None => {
                    self.matcher.push_unexpected(Unexpected {
                        context,
                        src: self.rank as u32,
                        tag,
                        body: UnexpectedBody::Eager(self.pool.from_slice(&data)),
                    });
                }
            }
            self.reqs.get_mut(req).unwrap().done = true;
            return req;
        }
        let rendezvous = data.len() > self.cfg.eager_threshold || mode == SendMode::Synchronous;
        if rendezvous {
            self.metrics.inc(mpi_metrics::RENDEZVOUS_SENT);
            self.metrics
                .observe(mpi_metrics::RNDV_BYTES, data.len() as u64);
            self.trace(TraceKind::RndvStarted {
                peer: dst,
                bytes: data.len(),
            });
            let len = data.len();
            {
                let r = self.reqs.get_mut(req).unwrap();
                r.data = Some(match data {
                    Payload::Owned(b) => b,
                    Payload::Borrowed(s) => self.pool.from_slice(s),
                });
                r.rndv_len = len;
                if self.cfg.trace {
                    r.rndv_begin = Some(self.port.ctx().now());
                }
            }
            let header = Header {
                kind: MsgKind::Rts,
                credits: 0,
                context,
                src: self.rank as u32,
                tag,
                aux1: req,
                aux2: len as u64,
                len: 0,
            };
            let frame = self.pool.alloc(HEADER_LEN);
            self.enqueue_wire(dst, self.send_stripe(), header, frame);
        } else {
            self.metrics.inc(mpi_metrics::EAGER_SENT);
            self.metrics
                .observe(mpi_metrics::EAGER_BYTES, data.len() as u64);
            let header = Header {
                kind: MsgKind::Eager,
                credits: 0,
                context,
                src: self.rank as u32,
                tag,
                aux1: req,
                aux2: 0,
                len: data.len() as u32,
            };
            // The single copy of the eager path: user buffer → pooled wire
            // frame (header placeholder + payload). Everything downstream
            // hands this frame around by reference.
            let frame = self.pool.prefixed(HEADER_LEN, &data);
            self.enqueue_wire(dst, self.send_stripe(), header, frame);
            if mode == SendMode::Buffered {
                // Buffered sends are local: payload captured, complete now.
                let r = self.reqs.get_mut(req).unwrap();
                r.done = true;
            }
        }
        req
    }

    /// Post a receive; the `MPID_VIA_Irecv` analogue. A receive is a first
    /// use of the connection(s) it names (§3.5).
    pub fn post_recv_msg(&mut self, src: Option<usize>, context: u16, tag: Option<i32>) -> u64 {
        if let Some(s) = src {
            assert!(s < self.size, "invalid source rank {s}");
        }
        self.metrics.inc(mpi_metrics::RECVS);
        let req = self.alloc_req(src.unwrap_or(usize::MAX));
        if !self.recv_first_use(src) {
            // A receive directed at an unreachable peer can never be
            // satisfied; fail it now rather than leaving a dangling
            // posted entry in the matcher.
            self.reqs.get_mut(req).unwrap().fail();
            return req;
        }
        let entry = PostedRecv {
            req,
            context,
            src: src.map(|s| s as u32),
            tag,
        };
        if let Some(u) = self.matcher.post_recv(entry) {
            self.deliver_matched(req, u);
        }
        req
    }

    /// Complete receive `req` with `payload` from `source`.
    fn complete_recv(&mut self, req: u64, source: usize, tag: i32, payload: Bytes) {
        let r = self.reqs.get_mut(req).unwrap();
        r.status = Status {
            source,
            tag,
            len: payload.len(),
        };
        r.data = Some(payload);
        r.done = true;
    }

    /// Handle an unexpected message that matched a newly posted receive.
    fn deliver_matched(&mut self, req: u64, u: Unexpected) {
        match u.body {
            UnexpectedBody::Eager(payload) => {
                // The unexpected path already copied data out of the VI
                // buffer; the copy to the user buffer is charged here.
                self.port
                    .charge(self.port.profile().copy_time(payload.len()));
                self.complete_recv(req, u.src as usize, u.tag, payload);
            }
            UnexpectedBody::Rts { sreq, len, stripe } => {
                self.begin_rendezvous_recv(req, u.src as usize, u.tag, sreq, len, stripe);
            }
        }
    }

    /// Receiver side of the rendezvous: register a landing region and send
    /// the CTS advertising it. `stripe` is the stripe the RTS arrived on —
    /// the CTS must return on that same stripe, because the sender has
    /// already drained a send through that VI (so it is Connected on the
    /// sender's side), while the sender's half of any *other* stripe may
    /// still be mid-handshake under connection faults.
    fn begin_rendezvous_recv(
        &mut self,
        rreq: u64,
        src: usize,
        tag: i32,
        sreq: u64,
        len: usize,
        stripe: usize,
    ) {
        let mem = self.port.register(len.max(1)).expect("pin rendezvous buf");
        {
            let r = self.reqs.get_mut(rreq).unwrap();
            r.rndv_mem = Some(mem);
            r.rndv_len = len;
            r.status = Status {
                source: src,
                tag,
                len,
            };
        }
        let header = Header::control(
            MsgKind::Cts,
            self.rank as u32,
            sreq,
            Header::pack_cts(rreq, mem.0),
        );
        let frame = self.pool.alloc(HEADER_LEN);
        self.enqueue_wire(src, stripe, header, frame);
    }

    // =====================================================================
    // Outgoing wire queue (pre-posted send FIFO + credit/slot stalls)
    // =====================================================================

    /// Queue a wire message for `peer` on `stripe` and try to drain.
    /// `frame` is the full pooled wire buffer: `HEADER_LEN` placeholder
    /// bytes + payload.
    fn enqueue_wire(&mut self, peer: usize, stripe: usize, header: Header, frame: Bytes) {
        let slot = self.slot_of(peer, stripe);
        match self.admit_send(slot) {
            ConnAction::Reject => {
                // Peer unreachable: fail the owning request instead of
                // queueing (a queued message would wedge `finalize`). Only
                // Eager/Rts can target a never-connected channel, and for
                // those `aux1` is the local send request id.
                if matches!(header.kind, MsgKind::Eager | MsgKind::Rts) {
                    if let Some(r) = self.reqs.get_mut(header.aux1) {
                        r.fail();
                    }
                }
                return;
            }
            ConnAction::Defer => self.metrics.inc(mpi_metrics::FIFO_DEFERRED_SENDS),
            _ => {}
        }
        let producer = self.cur_thread as u32;
        self.channels[slot].outq.push_back(OutMsg {
            header,
            frame,
            producer,
        });
        self.try_drain(slot);
        // Whatever did not go out at once is for the progress passes.
        self.outq_dirty |= !self.channels[slot].outq.is_empty();
    }

    /// Push queued messages into the VI while the connection is up and
    /// credits + staging slots allow. Preserves FIFO order (§3.4) per
    /// stripe channel.
    pub(crate) fn try_drain(&mut self, slot: usize) {
        loop {
            let ch = &self.channels[slot];
            if ch.outq.is_empty() || !ch.conn.is_connected() {
                return;
            }
            // Reserve the last credit for explicit credit returns.
            if ch.credits < 2 {
                let peer = ch.peer;
                self.trace(TraceKind::CreditStall { peer });
                return;
            }
            if ch.send_slots == 0 {
                // Credits in hand but every staging slot in flight: under
                // dynamic flow control the peer granted more credits than we
                // have staging; grow to match.
                if self.cfg.dynamic_credits {
                    self.grow_send_pool(slot);
                    continue;
                }
                return;
            }
            self.send_wire(slot, None);
        }
    }

    /// Transmit one wire message on the channel behind `slot` — `msg`, or
    /// with `None` the head of its queue — consuming a credit and a staging
    /// slot, and piggybacking owed credit returns.
    fn send_wire(&mut self, slot: usize, msg: Option<OutMsg>) {
        let ch = &mut self.channels[slot];
        debug_assert!(ch.conn.is_connected());
        let OutMsg {
            mut header,
            mut frame,
            producer,
        } = msg
            .or_else(|| ch.outq.pop_front())
            .expect("caller checked the queue");
        ch.send_slots = ch.send_slots.checked_sub(1).expect("caller checked slots");
        let piggy = ch.credits_owed.min(255);
        ch.credits_owed -= piggy;
        ch.credits -= 1;
        header.credits = piggy as u8;
        let total = frame.len();
        debug_assert!(total <= self.cfg.buf_size(), "wire message exceeds buffer");
        // Late header encode, in place in the pooled frame (credits are
        // piggybacked at transmit time, so this cannot happen at enqueue).
        header.encode(frame.unique_mut().expect("queued frame is sole handle"));
        // The staging copy: charged for the payload (the header is free —
        // MVICH builds it in place in the descriptor). The physical copy
        // already happened once at enqueue; only its time is charged here.
        self.port
            .charge(self.port.profile().copy_time(total - HEADER_LEN));
        let vi = ch.conn.vi().unwrap();
        let desc = self
            .port
            .post_send_pooled_as(vi, frame, 0, producer)
            .expect("post send");
        let sreq = match header.kind {
            MsgKind::Eager => Some(header.aux1),
            _ => None,
        };
        ch.inflight.push_back((desc.0, SlotUse::Wire { sreq }));
        let (peer, stripe) = (ch.peer, ch.stripe);
        if stripe > 0 {
            self.metrics.inc(mpi_metrics::ENDPOINT_STRIPED_SENDS);
        }
        self.trace(TraceKind::WireSent { peer, bytes: total });
    }

    /// Issue the rendezvous RDMA write + FIN after receiving a CTS. `slot`
    /// is the channel the CTS arrived on: that stripe is connected on both
    /// sides, and posting the RDMA and FIN on the *same* VI preserves the
    /// in-order FIN-after-data guarantee.
    fn rendezvous_send_data(&mut self, sreq: u64, rreq: u64, remote_mem: u32, slot: usize) {
        let peer = self.reqs.get(sreq).expect("CTS for live request").peer;
        debug_assert_eq!(self.channels[slot].peer, peer, "CTS arrived off-pair");
        let data = self.reqs.get_mut(sreq).unwrap().data.take().unwrap();
        let len = data.len();
        // Register the user buffer (MVICH's dynamic registration), RDMA it,
        // then a FIN control message completes the receiver. In-order VI
        // delivery guarantees FIN arrives after the data. The region adopts
        // the request's buffer — the caller's own when it was handed over,
        // else the payload's one pooled copy — and the RDMA write carries a
        // view of it.
        let mem = self.port.register_buf(data).expect("pin send buf");
        let vi = self.channels[slot].conn.vi().unwrap();
        let stripe = self.channels[slot].stripe;
        let desc = self
            .port
            .post_rdma_write_as(
                vi,
                mem,
                0,
                len,
                MemHandle(remote_mem),
                0,
                self.cur_thread as u32,
            )
            .expect("post rdma");
        self.channels[slot]
            .inflight
            .push_back((desc.0, SlotUse::Rdma { sreq, mem }));
        let header = Header::control(MsgKind::Fin, self.rank as u32, rreq, 0);
        let frame = self.pool.alloc(HEADER_LEN);
        self.enqueue_wire(peer, stripe, header, frame);
    }

    // =====================================================================
    // Progress engine (MPID_DeviceCheck)
    // =====================================================================

    /// One non-blocking pass of the progress engine. Returns true if any
    /// visible progress was made.
    ///
    /// A pass walks the channel table only for what one of the three dirty
    /// bits says may be there — handshakes in progress, queued sends, owed
    /// credit returns — so in the steady state it costs the completion-queue
    /// poll and nothing per channel (§3.3: connection progress can live in
    /// the polling loop because an idle pass is free).
    pub fn check_once(&mut self) -> bool {
        self.metrics.inc(mpi_metrics::PROGRESS_PASSES);
        let mut progress = self.conn_poll();

        // Drain the completion queue.
        while let Some(c) = self.port.cq_poll() {
            progress = true;
            let Some(&Some(slot)) = self.vi_to_slot.get(c.vi.0 as usize) else {
                continue;
            };
            match c.kind {
                CompletionKind::Send | CompletionKind::RdmaWrite => {
                    self.on_send_complete(slot, c.desc.0)
                }
                CompletionKind::Recv => {
                    let frame = c.payload.expect("wire recv carries its pooled frame");
                    let segment = c.segment.expect("recv names its segment");
                    self.on_recv_complete(slot, frame, segment);
                }
            }
        }

        // Drain any unblocked outgoing queues. Draining one channel never
        // affects another, so deciding the set up front is exact (and
        // `try_drain` leaves a channel that is not connected yet alone).
        if self.outq_dirty {
            self.metrics.inc(mpi_metrics::TABLE_WALKS);
            let queued: Vec<usize> = (self.channels.iter_entries())
                .filter(|(_, c)| !c.outq.is_empty())
                .map(|(slot, _)| slot)
                .collect();
            self.outq_dirty = !queued.is_empty();
            for slot in queued {
                let before = self.channels[slot].outq.len();
                self.try_drain(slot);
                progress |= self.channels[slot].outq.len() != before;
            }
        }

        // Explicit credit returns where piggybacking has stalled.
        self.return_credits();

        #[cfg(debug_assertions)]
        self.assert_clean_bits_mean_empty_walks();
        progress
    }

    /// Send explicit `Credit` messages for channels whose owed count crossed
    /// the threshold (the piggyback path has stalled). Uses the reserved
    /// last credit, so it can always make progress.
    fn return_credits(&mut self) {
        if !self.owed_dirty {
            return;
        }
        self.metrics.inc(mpi_metrics::TABLE_WALKS);
        // Sending a credit message never changes another channel's owed
        // count, so every peer is decided up front.
        let num_bufs = self.cfg.num_bufs;
        let mut owed = false;
        let owing: Vec<usize> = self
            .channels
            .iter_entries()
            .filter(|(_, ch)| {
                let owes = ch.owes_credits(num_bufs);
                owed |= owes;
                owes && ch.can_return_credits()
            })
            .map(|(slot, _)| slot)
            .collect();
        self.owed_dirty = owed;
        for slot in owing {
            self.metrics.inc(mpi_metrics::CREDIT_MSGS);
            let credit = OutMsg {
                header: Header::control(MsgKind::Credit, self.rank as u32, 0, 0),
                frame: self.pool.alloc(HEADER_LEN),
                producer: self.cur_thread as u32,
            };
            self.send_wire(slot, Some(credit));
        }
    }

    /// Recount the three walks: a clean bit must mean an empty walk. Run at
    /// the end of every pass of a debug build, so every test and every
    /// replayed scenario checks the bits against the tables they summarize.
    #[cfg(debug_assertions)]
    fn assert_clean_bits_mean_empty_walks(&self) {
        let num_bufs = self.cfg.num_bufs;
        for (slot, ch) in self.channels.iter_entries() {
            assert!(
                self.conn_dirty || ch.conn.state() != ChanState::Connecting,
                "rank {}: slot {slot} is connecting behind a clean bit",
                self.rank
            );
            assert!(
                self.outq_dirty || ch.outq.is_empty(),
                "rank {}: slot {slot} holds queued sends behind a clean bit",
                self.rank
            );
            assert!(
                self.owed_dirty || !ch.owes_credits(num_bufs),
                "rank {}: slot {slot} owes a credit return behind a clean bit",
                self.rank
            );
        }
    }

    /// A send descriptor of `slot` completed: release what it was carrying.
    fn on_send_complete(&mut self, slot: usize, desc: u64) {
        let ch = &mut self.channels[slot];
        match ch.take_inflight(desc) {
            Some(SlotUse::Wire { sreq }) => {
                ch.send_slots += 1;
                if let Some(req) = sreq.and_then(|r| self.reqs.get_mut(r)) {
                    req.done = true;
                }
                self.try_drain(slot);
            }
            Some(SlotUse::Rdma { sreq, mem }) => {
                self.port.deregister(mem).expect("deregister send buf");
                let Some(req) = self.reqs.get_mut(sreq) else {
                    return;
                };
                req.done = true;
                if let Some(begin) = req.rndv_begin.take() {
                    let (peer, bytes) = (req.peer, req.rndv_len);
                    self.spans.push(Span {
                        begin,
                        end: self.port.ctx().now(),
                        kind: SpanKind::Rendezvous { peer, bytes },
                    });
                }
            }
            None => {}
        }
    }

    /// Process one arrived wire message on the channel behind `slot`. The
    /// frame is the pooled wire buffer the sender transmitted, delivered by
    /// reference — no copy out of the VI buffer is needed; `(mem, off)` is
    /// the eager buffer the message consumed.
    fn on_recv_complete(&mut self, slot: usize, frame: Bytes, (mem, off): (MemHandle, usize)) {
        let bsz = self.cfg.buf_size();
        let ch = &mut self.channels[slot];
        // Repost the buffer immediately (MVICH does this before protocol
        // processing so the credit can be returned).
        self.port
            .post_recv(ch.conn.vi().unwrap(), mem, off, bsz)
            .expect("repost eager buffer");
        ch.credits_owed += 1;
        ch.recvs_since_grow += 1;
        self.owed_dirty |= ch.owes_credits(self.cfg.num_bufs);
        let stripe = ch.stripe;
        if self.cfg.dynamic_credits
            && ch.bufs < self.cfg.num_bufs
            && ch.recvs_since_grow >= ch.bufs as u64
        {
            self.grow_recv_pool(slot);
        }
        let header = Header::decode(&frame).expect("valid wire header");
        if header.credits > 0 {
            self.channels[slot].credits += header.credits as usize;
            self.try_drain(slot);
        }
        match header.kind {
            MsgKind::Eager => {
                // Narrow the frame view past the header — no copy; the
                // pooled buffer itself becomes the delivered payload.
                let mut payload = frame;
                payload.advance(HEADER_LEN);
                payload.truncate(header.len as usize);
                match self
                    .matcher
                    .incoming(header.context, header.src, header.tag)
                {
                    Some(posted) => {
                        self.trace(TraceKind::Delivered {
                            src: header.src as usize,
                            bytes: payload.len(),
                        });
                        // The copy out of the VI buffer into the user buffer
                        // still costs virtual time even though the host-side
                        // copy is gone.
                        self.port
                            .charge(self.port.profile().copy_time(payload.len()));
                        self.complete_recv(posted.req, header.src as usize, header.tag, payload);
                    }
                    None => {
                        self.metrics.inc(mpi_metrics::UNEXPECTED_MSGS);
                        // The copy into the unexpected pool is likewise a
                        // charge only; the frame is parked by reference.
                        self.port
                            .charge(self.port.profile().copy_time(payload.len()));
                        self.matcher.push_unexpected(Unexpected {
                            context: header.context,
                            src: header.src,
                            tag: header.tag,
                            body: UnexpectedBody::Eager(payload),
                        });
                    }
                }
            }
            MsgKind::Rts => {
                let mlen = header.aux2 as usize;
                match self
                    .matcher
                    .incoming(header.context, header.src, header.tag)
                {
                    Some(posted) => self.begin_rendezvous_recv(
                        posted.req,
                        header.src as usize,
                        header.tag,
                        header.aux1,
                        mlen,
                        stripe,
                    ),
                    None => {
                        self.metrics.inc(mpi_metrics::UNEXPECTED_MSGS);
                        self.matcher.push_unexpected(Unexpected {
                            context: header.context,
                            src: header.src,
                            tag: header.tag,
                            body: UnexpectedBody::Rts {
                                sreq: header.aux1,
                                len: mlen,
                                stripe,
                            },
                        });
                    }
                }
            }
            MsgKind::Cts => {
                let (rreq, mem) = Header::unpack_cts(header.aux2);
                self.rendezvous_send_data(header.aux1, rreq, mem, slot);
            }
            MsgKind::Fin => {
                let rreq = header.aux1;
                let (mem, mlen) = {
                    let r = self.reqs.get(rreq).expect("FIN for live request");
                    (r.rndv_mem.unwrap(), r.rndv_len)
                };
                // Zero-copy: the landing region *is* the user buffer, and
                // unpinning it hands over the buffer the RDMA write landed.
                let data = self
                    .port
                    .deregister_take(mem, mlen)
                    .expect("deregister rndv buf");
                let r = self.reqs.get_mut(rreq).unwrap();
                r.data = Some(data);
                r.done = true;
            }
            MsgKind::Credit => { /* piggyback accounting already applied */ }
        }
    }

    // =====================================================================
    // Blocking wait with the configured policy (§5.3)
    // =====================================================================

    /// Wait until `pred(self)` holds, running the progress engine and
    /// applying the configured wait policy when idle.
    pub fn wait_until(&mut self, mut pred: impl FnMut(&Device) -> bool) {
        loop {
            if pred(self) {
                return;
            }
            let stamp = self.port.activity_stamp();
            if self.check_once() {
                continue;
            }
            if pred(self) {
                return;
            }
            self.wait_for_activity(stamp);
        }
    }

    /// Idle-wait for NIC activity, charging wait-policy costs.
    fn wait_for_activity(&mut self, stamp: u64) {
        let profile = self.port.profile().clone();
        let spincount = match self.cfg.wait {
            WaitPolicy::SpinWait { spincount } if !profile.wait_is_polling => spincount,
            // Polling — or Berkeley VIA, whose wait is itself a poll loop.
            _ => {
                self.conn_wait(stamp);
                self.port.charge(profile.cq_poll);
                return;
            }
        };
        let window = profile.spin_iter.saturating_mul(spincount as u64);
        let deadline = self.port.ctx().now() + window;
        self.port.schedule_timer(window);
        let mut t = self.port.timer_stamp();
        loop {
            let (a2, t2) = self.port.wait_activity_or_timer(stamp, t);
            if a2 != stamp {
                // Completed during the spin window: cheap detection.
                self.port.charge(profile.cq_poll);
                return;
            }
            if self.port.ctx().now() >= deadline {
                break;
            }
            // A stale timer from an earlier (already satisfied) episode
            // fired; our spin window is still open.
            t = t2;
        }
        // Spin exhausted: fall into the kernel wait and pay the interrupt
        // wake-up on resume — the spinwait penalty the paper measures on
        // cLAN (§5.4).
        self.conn_wait(stamp);
        self.port.charge(profile.wakeup);
    }

    /// The `MPI_Finalize` analogue: flush every channel's outgoing queue and
    /// in-flight descriptors, then synchronize through the process manager.
    /// Deliberately does **not** use MPI traffic, so it creates no
    /// connections (MVICH finalizes through mpirun's control channel) and
    /// Table-2 VI counts reflect the application alone.
    ///
    /// The caller must have completed all its requests (MPI requires all
    /// communication finished before `MPI_Finalize`).
    pub fn finalize(&mut self) {
        self.wait_until(|d| {
            d.channels
                .iter()
                .all(|c| c.outq.is_empty() && c.inflight.is_empty())
        });
        self.bootstrap_sync();
    }

    // =====================================================================
    // Request table
    // =====================================================================

    fn alloc_req(&mut self, peer: usize) -> u64 {
        self.reqs.push(ReqState {
            done: false,
            failed: false,
            status: Status::empty(),
            data: None,
            rndv_mem: None,
            rndv_len: 0,
            peer,
            rndv_begin: None,
        })
    }

    /// Is the request complete?
    pub fn req_done(&self, req: u64) -> bool {
        self.reqs.get(req).map(|r| r.done).unwrap_or(true)
    }

    /// Consume a completed request, returning its payload (receives) as it
    /// landed — the eager frame past its header, or the buffer the RDMA
    /// write landed — and its status. Panics if not complete or if it
    /// failed (use [`Device::take_req_checked`] to handle connection
    /// failures).
    pub fn take_req(&mut self, req: u64) -> (Option<Bytes>, Status) {
        self.take_req_checked(req).unwrap_or_else(|e| {
            panic!("request failed: {e} (use wait_checked to handle this error)")
        })
    }

    /// Consume a completed request, surfacing a connection failure as an
    /// error instead of panicking.
    pub fn take_req_checked(
        &mut self,
        req: u64,
    ) -> Result<(Option<Bytes>, Status), crate::request::MpiError> {
        let r = self.reqs.remove(req).expect("unknown request");
        assert!(r.done, "take_req on incomplete request");
        if r.failed {
            return Err(crate::request::MpiError::PeerUnreachable { peer: r.peer });
        }
        Ok((r.data, r.status))
    }

    /// Number of live (incomplete or uncollected) requests.
    pub fn live_requests(&self) -> usize {
        self.reqs.len()
    }

    /// Externally visible state of every *touched* remote channel,
    /// ascending by `(peer, stripe)`, for the world-end laws of
    /// [`crate::invariants`]. Sparse: a peer with no snapshot was never
    /// communicated with and is implied `Unconnected` with empty queues, so
    /// report size is O(used channels), not O(np²) across the world.
    pub fn channel_snapshots(&self) -> Vec<ChannelSnapshot> {
        // One pass over the NIC's VI table serves every channel.
        let remote_of = self.port.connected_remotes();
        let mut vis_to = vec![0usize; self.size];
        for &remote in remote_of.iter().flatten() {
            vis_to[remote] += 1;
        }
        self.channels
            .iter()
            .filter(|ch| ch.peer != self.rank)
            .map(|ch| {
                let vi = ch.conn.vi();
                ChannelSnapshot {
                    peer: ch.peer,
                    stripe: ch.stripe,
                    state: ch.conn.state(),
                    credits: ch.credits,
                    credits_owed: ch.credits_owed,
                    bufs: ch.bufs,
                    pending: ch.outq.len(),
                    inflight: ch.inflight.len(),
                    vi,
                    vi_connected: vi.is_some_and(|v| remote_of[v.0 as usize].is_some()),
                    connected_vis_to_peer: vis_to[ch.peer],
                }
            })
            .collect()
    }
}

/// Point-in-time view of one per-peer channel, captured when a rank
/// finishes, for the world-end laws ([`crate::invariants`]).
#[derive(Debug, Clone)]
pub struct ChannelSnapshot {
    /// Peer rank.
    pub peer: usize,
    /// Stripe index within the pair (0 on the default single-VI config).
    pub stripe: usize,
    /// Channel FSM state.
    pub state: ChanState,
    /// Eager send credits held toward the peer.
    pub credits: usize,
    /// Credits consumed from the peer but not yet returned.
    pub credits_owed: usize,
    /// Receive buffers posted for the peer (the credit window it sees).
    pub bufs: usize,
    /// Length of the pre-posted/stalled send FIFO.
    pub pending: usize,
    /// In-flight send descriptors.
    pub inflight: usize,
    /// The channel's VI, once provisioned.
    pub vi: Option<ViId>,
    /// Whether the channel's VI is in the `Connected` VIA state.
    pub vi_connected: bool,
    /// Connected VIs on this NIC whose remote end is `peer` — counted per
    /// *pair*, so every stripe snapshot of the pair reports the same total
    /// (must be ≤ `vis_per_peer`: the simultaneous-connect race must never
    /// yield duplicate VIs for a stripe).
    pub connected_vis_to_peer: usize,
}
