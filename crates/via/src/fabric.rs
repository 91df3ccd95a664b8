//! The fabric: every NIC in the cluster plus the switch/connection-manager
//! behaviour, implemented as a [`viampi_sim::World`].
//!
//! All state mutation happens either synchronously (a process posting a
//! descriptor via [`crate::ViaPort`]) or in [`FabricEvent`] handlers (message
//! arrival, connection handshake steps). Ordering guarantees:
//!
//! * per-VI transmit serialization through `Nic::tx_busy_until` plus a
//!   constant wire latency gives **in-order delivery per VI**, which the
//!   MVICH-style MPI layer depends on (MPI non-overtaking, rendezvous FIN
//!   after RDMA data);
//! * connection matching is race-safe: when two peers issue simultaneous
//!   `connect_peer` calls, exactly one match is made (the second request to
//!   arrive finds its initiator already matched and is dropped as stale).

use crate::fault::{fault_metrics, FaultInjector, FaultProfile};
use crate::nic::{nic_metrics, Nic};
use crate::profile::DeviceProfile;
use crate::types::{
    Completion, CompletionKind, CsRequest, DescId, Discriminator, MemHandle, NodeId, Open,
    PeerRequest, ViId, ViState, ViaError,
};
use viampi_sim::{Api, BufferPool, Registry, SimDuration, World};

/// Cheaply clonable payload bytes: a ref-counted view into a pooled
/// allocation (internal replacement for the `bytes` crate, which is
/// unavailable in the offline build environment). Dropping the last handle
/// recycles the backing buffer into the fabric's [`BufferPool`].
pub type Bytes = viampi_sim::PooledBuf;

/// Cheaply clonable out-of-band payload: one allocation shared by every
/// recipient of a bootstrap broadcast.
pub type OobBytes = std::sync::Arc<[u8]>;

/// A framed wire message: header + payload in one pooled buffer, copied
/// once at the sender and handed by reference through the NIC, switch, and
/// receive completion.
#[derive(Debug, Clone)]
pub struct WireMsg {
    /// Full frame bytes (wire header followed by payload), pooled.
    pub data: Bytes,
}

/// Payload of an in-flight message.
#[derive(Debug, Clone)]
pub enum PacketBody {
    /// Two-sided send; consumes a receive descriptor at the target.
    Send {
        /// Message bytes.
        data: Bytes,
        /// Immediate word delivered in the completion.
        imm: u32,
    },
    /// Two-sided framed send on the zero-copy path: consumes a receive
    /// descriptor at the target, but the frame is delivered by reference in
    /// [`Completion::payload`] instead of being copied into the descriptor's
    /// registered region.
    Wire {
        /// The framed message.
        msg: WireMsg,
        /// Immediate word delivered in the completion.
        imm: u32,
    },
    /// One-sided RDMA write into a remote registered region; invisible to
    /// the target process (no descriptor consumed, no completion raised).
    Rdma {
        /// Message bytes.
        data: Bytes,
        /// Target region (as advertised by the target in its own protocol).
        remote_mem: MemHandle,
        /// Byte offset within the target region.
        remote_off: usize,
    },
}

/// An in-flight message.
#[derive(Debug, Clone)]
pub struct Packet {
    /// Source endpoint.
    pub src: (NodeId, ViId),
    /// Destination endpoint.
    pub dst: (NodeId, ViId),
    /// Payload.
    pub body: PacketBody,
}

/// Deferred fabric activity.
///
/// `Clone` exists so the fault injector can duplicate connection packets;
/// the engine itself never clones events.
#[derive(Debug, Clone)]
pub enum FabricEvent {
    /// Sender-side NIC finished serializing a descriptor.
    TxDone {
        /// Sending node.
        node: NodeId,
        /// Sending VI.
        vi: ViId,
        /// Completed descriptor.
        desc: DescId,
        /// Send vs RDMA-write completion.
        kind: CompletionKind,
    },
    /// Message fully arrived (wire + receive processing done).
    Deliver {
        /// The message.
        pkt: Packet,
    },
    /// A peer-to-peer connection request reached the target NIC.
    PeerReqArrive {
        /// Target node.
        dst: NodeId,
        /// Requesting node.
        from: NodeId,
        /// Its discriminator.
        disc: Discriminator,
    },
    /// A client/server connection request reached the server NIC.
    CsReqArrive {
        /// Server node.
        dst: NodeId,
        /// Client node.
        from: NodeId,
        /// Its discriminator.
        disc: Discriminator,
    },
    /// A matched endpoint finishes establishment and becomes `Connected`.
    Established {
        /// Node whose endpoint connects.
        node: NodeId,
        /// The endpoint.
        vi: ViId,
        /// Its now-known remote endpoint.
        peer: (NodeId, ViId),
    },
    /// A client/server reject notification reaches the client.
    CsRejected {
        /// Client node.
        node: NodeId,
        /// Client VI that had issued `connect_request`.
        vi: ViId,
    },
    /// A host-armed timer fires (used to model bounded spin windows in the
    /// MPI wait policies). Bumps NIC activity so waiters re-check state.
    Timer {
        /// Node whose waiters to wake.
        node: NodeId,
    },
    /// An out-of-band (process manager / TCP bootstrap) message arrives.
    OobDeliver {
        /// Target node.
        dst: NodeId,
        /// Source node.
        from: NodeId,
        /// Payload (shared, so a broadcast clones a pointer, not bytes).
        data: OobBytes,
    },
}

/// The whole simulated cluster interconnect.
pub struct Fabric {
    /// Cost/limit model shared by every NIC (experiments use one network at
    /// a time, as in the paper).
    pub profile: DeviceProfile,
    /// One NIC per node.
    pub nics: Vec<Nic>,
    /// Latency of the out-of-band bootstrap channel (process manager TCP).
    pub oob_latency: SimDuration,
    /// Optional fault injector for connection packets and VI creation
    /// (see [`crate::fault`]). `None` (the default) means a perfectly
    /// reliable connection path — the behaviour of every experiment run.
    faults: Option<FaultInjector>,
    /// Shared wire-buffer pool for the zero-copy data plane.
    pub(crate) pool: BufferPool,
    /// Reusable list of processes an event handler wakes, so handling an
    /// event allocates nothing.
    wake_scratch: Vec<viampi_sim::ProcId>,
}

impl Fabric {
    /// A fabric of `nodes` NICs with the given device profile.
    pub fn new(profile: DeviceProfile, nodes: usize) -> Self {
        Fabric {
            profile,
            nics: (0..nodes).map(Nic::new).collect(),
            oob_latency: SimDuration::micros(120),
            faults: None,
            pool: BufferPool::new(),
            wake_scratch: Vec::new(),
        }
    }

    /// A handle to the fabric's shared wire-buffer pool.
    pub fn pool(&self) -> BufferPool {
        self.pool.clone()
    }

    /// The pool counters rendered as `nic.pool.*` metric entries, for
    /// merging into a whole-run snapshot. Published once per run (the pool
    /// is fabric-global, so per-rank publication would multiply counts).
    pub fn pool_metrics_snapshot(&self) -> viampi_sim::MetricsSnapshot {
        let s = self.pool.stats();
        let mut reg = nic_metrics::registry();
        reg.add(nic_metrics::POOL_HITS, s.hits);
        reg.add(nic_metrics::POOL_MISSES, s.misses);
        reg.add(nic_metrics::POOL_RECYCLED, s.recycled);
        reg.add(nic_metrics::POOL_DISCARDED, s.discarded);
        reg.add(nic_metrics::POOL_BYTES_COPIED, s.bytes_copied);
        reg.gauge_set(nic_metrics::POOL_LIVE, s.live);
        reg.gauge_set(nic_metrics::POOL_LIVE_PEAK, s.live_peak);
        reg.snapshot()
    }

    /// Install a fault-injection profile (replaces any previous one and
    /// resets its stats). Call before the simulation starts.
    pub fn set_faults(&mut self, profile: FaultProfile) {
        self.faults = Some(FaultInjector::new(profile));
    }

    /// The faults injected so far ([`fault_metrics`] set; all zero when no
    /// profile is installed).
    pub fn fault_metrics(&self) -> Registry {
        self.faults
            .as_ref()
            .map_or_else(fault_metrics::registry, |f| f.metrics.clone())
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nics.len()
    }

    /// Schedule a connection packet, routing it through the fault injector
    /// when one is installed: the packet may be dropped (scheduled zero
    /// times), delayed, reordered, or duplicated.
    fn schedule_conn(
        &mut self,
        api: &mut Api<'_, FabricEvent>,
        base: SimDuration,
        ev: FabricEvent,
    ) {
        match &mut self.faults {
            None => api.schedule(base, ev),
            Some(inj) => {
                for d in inj.conn_packet(base) {
                    api.schedule(d, ev.clone());
                }
            }
        }
    }

    /// Create a VI on `node`, subject to the per-NIC limit and (when fault
    /// injection is active) transient creation failures.
    pub fn create_vi(&mut self, node: NodeId) -> Result<ViId, ViaError> {
        if let Some(inj) = &mut self.faults {
            if inj.vi_create_fails(node) {
                return Err(ViaError::TransientFailure);
            }
        }
        self.nics[node].create_vi(self.profile.max_vis)
    }

    /// Post a send descriptor on `vi`. Reads `len` bytes at `(mem, off)`.
    ///
    /// Per the VIA spec (and paper §3.4), a send posted on an unconnected VI
    /// is **discarded**: the call succeeds, no completion is ever generated,
    /// and `drops_unconnected` is incremented.
    #[allow(clippy::too_many_arguments)]
    pub fn post_send(
        &mut self,
        api: &mut Api<'_, FabricEvent>,
        node: NodeId,
        vi: ViId,
        mem: MemHandle,
        off: usize,
        len: usize,
        imm: u32,
    ) -> Result<DescId, ViaError> {
        self.nics[node].check_bounds(mem, off, len)?;
        let peer = {
            let v = self.nics[node].vi(vi)?;
            if !v.state.is_connected() {
                let desc = self.nics[node].alloc_desc();
                self.nics[node].metrics.inc(nic_metrics::DROPS_UNCONNECTED);
                return Ok(desc);
            }
            v.peer.expect("connected VI has a peer")
        };
        let data = self
            .pool
            .from_slice(&self.nics[node].regions[mem.0 as usize].bytes()[off..off + len]);
        let desc = self.nics[node].alloc_desc();
        self.launch(
            api,
            node,
            vi,
            desc,
            Packet {
                src: (node, vi),
                dst: peer,
                body: PacketBody::Send { data, imm },
            },
            0,
        );
        Ok(desc)
    }

    /// Post a pooled framed send on `vi` — the zero-copy data plane. The
    /// frame is not staged in a registered region: `data` travels by
    /// reference and surfaces in [`Completion::payload`] at the receiver.
    /// Costs (doorbell, serialization, wire, receive processing) are
    /// identical to [`Fabric::post_send`] for the same byte count.
    ///
    /// As with `post_send`, a frame posted on an unconnected VI is
    /// discarded: the call succeeds, no completion is ever generated, and
    /// `drops_unconnected` is incremented.
    ///
    /// `producer` is the posting thread. A post whose producer differs from
    /// the VI's previous post pays the [`DeviceProfile::vi_lock_convoy`]
    /// charge — the shared-VI contention of multithreaded ranks. Producer 0
    /// (the legacy entry points) on a single-producer VI never pays it.
    pub fn post_send_pooled_as(
        &mut self,
        api: &mut Api<'_, FabricEvent>,
        node: NodeId,
        vi: ViId,
        data: Bytes,
        imm: u32,
        producer: u32,
    ) -> Result<DescId, ViaError> {
        let peer = {
            let v = self.nics[node].vi(vi)?;
            if !v.state.is_connected() {
                let desc = self.nics[node].alloc_desc();
                self.nics[node].metrics.inc(nic_metrics::DROPS_UNCONNECTED);
                return Ok(desc);
            }
            v.peer.expect("connected VI has a peer")
        };
        let desc = self.nics[node].alloc_desc();
        self.launch(
            api,
            node,
            vi,
            desc,
            Packet {
                src: (node, vi),
                dst: peer,
                body: PacketBody::Wire {
                    msg: WireMsg { data },
                    imm,
                },
            },
            producer,
        );
        Ok(desc)
    }

    /// Post an RDMA write on `vi` targeting `(remote_mem, remote_off)` in
    /// the peer's registered memory.
    #[allow(clippy::too_many_arguments)]
    pub fn post_rdma_write(
        &mut self,
        api: &mut Api<'_, FabricEvent>,
        node: NodeId,
        vi: ViId,
        mem: MemHandle,
        off: usize,
        len: usize,
        remote_mem: MemHandle,
        remote_off: usize,
    ) -> Result<DescId, ViaError> {
        self.post_rdma_write_as(api, node, vi, mem, off, len, remote_mem, remote_off, 0)
    }

    /// [`Fabric::post_rdma_write`] with an explicit posting producer thread
    /// (see [`Fabric::post_send_pooled_as`]).
    #[allow(clippy::too_many_arguments)]
    pub fn post_rdma_write_as(
        &mut self,
        api: &mut Api<'_, FabricEvent>,
        node: NodeId,
        vi: ViId,
        mem: MemHandle,
        off: usize,
        len: usize,
        remote_mem: MemHandle,
        remote_off: usize,
        producer: u32,
    ) -> Result<DescId, ViaError> {
        self.nics[node].check_bounds(mem, off, len)?;
        let peer = {
            let v = self.nics[node].vi(vi)?;
            if !v.state.is_connected() {
                return Err(ViaError::NotConnected);
            }
            v.peer.expect("connected VI has a peer")
        };
        // The region is the pinned user buffer: the NIC reads it in place,
        // so the packet carries a view of it, not a copy.
        let data = self.nics[node].regions[mem.0 as usize].window(off, len);
        let desc = self.nics[node].alloc_desc();
        self.launch(
            api,
            node,
            vi,
            desc,
            Packet {
                src: (node, vi),
                dst: peer,
                body: PacketBody::Rdma {
                    data,
                    remote_mem,
                    remote_off,
                },
            },
            producer,
        );
        Ok(desc)
    }

    /// Shared transmit path: NIC serialization, Fig.-1 per-VI scan cost,
    /// the shared-VI lock-convoy charge on a producer switch, bandwidth,
    /// wire latency, receive processing.
    fn launch(
        &mut self,
        api: &mut Api<'_, FabricEvent>,
        node: NodeId,
        vi: ViId,
        desc: DescId,
        pkt: Packet,
        producer: u32,
    ) {
        let bytes = match &pkt.body {
            PacketBody::Send { data, .. } => data.len(),
            PacketBody::Wire { msg, .. } => msg.data.len(),
            PacketBody::Rdma { data, .. } => data.len(),
        };
        let kind = match &pkt.body {
            PacketBody::Send { .. } | PacketBody::Wire { .. } => CompletionKind::Send,
            PacketBody::Rdma { .. } => CompletionKind::RdmaWrite,
        };
        let nic = &mut self.nics[node];
        nic.metrics.inc(nic_metrics::MSGS_TX);
        nic.metrics.add(nic_metrics::BYTES_TX, bytes as u64);
        nic.metrics.observe(nic_metrics::TX_BYTES, bytes as u64);
        // Lock-convoy detection: the doorbell/descriptor-queue lock bounces
        // when consecutive posts on one VI come from different producer
        // threads (Zambre et al.'s shared-endpoint pathology). Single-
        // producer VIs — every run at the default threads=1 — never match,
        // so the charge (and the timing) is bit-identical with older
        // revisions there.
        let convoy = {
            let v = &mut nic.vis[vi.0 as usize];
            v.msgs_sent += 1;
            let switched = v.last_producer.is_some_and(|p| p != producer);
            v.last_producer = Some(producer);
            if switched && !v.multi_producer {
                v.multi_producer = true;
            }
            switched
        };
        if convoy {
            nic.metrics.inc(nic_metrics::VI_PRODUCER_SWITCHES);
            nic.metrics.add(
                nic_metrics::VI_CONVOY_NS,
                self.profile.vi_lock_convoy.as_nanos(),
            );
            let multi = nic.vis.iter().filter(|v| v.multi_producer).count() as u64;
            nic.metrics.gauge_max(nic_metrics::VI_MULTI_PRODUCER, multi);
        }
        let live = nic.live_vis();
        let mut start = (api.now() + self.profile.doorbell).max(nic.tx_busy_until);
        if convoy {
            start += self.profile.vi_lock_convoy;
        }
        let tx_done = start + self.profile.tx_time(bytes, live);
        nic.tx_busy_until = tx_done;
        api.schedule_at(
            tx_done,
            FabricEvent::TxDone {
                node,
                vi,
                desc,
                kind,
            },
        );
        let mut arrive = tx_done + self.profile.wire_latency + self.profile.nic_rx;
        if let Some(inj) = self.faults.as_mut() {
            // Lossless data-plane jitter: may stretch this packet's arrival
            // but never reorders it against earlier packets on the same VI.
            arrive = inj.wire_arrival((node, vi), arrive);
        }
        api.schedule_at(arrive, FabricEvent::Deliver { pkt });
    }

    /// Post `n` receive descriptors on `vi`, over consecutive `len`-byte
    /// segments of `mem` starting at `off`; returns the first descriptor's
    /// id (the rest follow consecutively). All or nothing: the whole run is
    /// validated against the region and the VI's queue limit (counted in
    /// descriptors) before anything is posted. The NIC keeps the run as one
    /// queue entry, or grows the entry it continues.
    pub fn post_recv(
        &mut self,
        node: NodeId,
        vi: ViId,
        mem: MemHandle,
        off: usize,
        len: usize,
        n: usize,
    ) -> Result<DescId, ViaError> {
        let span = len.checked_mul(n).ok_or(ViaError::OutOfBounds)?;
        self.nics[node].check_bounds(mem, off, span)?;
        let max = self.profile.max_recv_descs;
        let nic = &mut self.nics[node];
        if nic.vi(vi)?.recv_posted + n > max {
            return Err(ViaError::RecvQueueFull);
        }
        let first = nic.alloc_descs(n);
        nic.vis[vi.0 as usize].push_recv(first, mem, off, len, n);
        Ok(first)
    }

    /// Bring up the idle `(node, vi)` as a channel end: pin a receive pool
    /// and a send pool of `n` segments of `len` bytes each, post the whole
    /// receive pool as one run, and `open` the VI — the verbs `register`,
    /// `register`, [`Fabric::post_recv`] and the open, in that order.
    ///
    /// The whole sequence is checked first, and an error is the one the
    /// first failing verb would return; an error changes nothing. The
    /// pools and the window stay private to this NIC until the open: no
    /// arrival can reach a VI that is not connected, and only the owning
    /// process reads its pin accounting.
    pub fn bring_up(
        &mut self,
        api: &mut Api<'_, FabricEvent>,
        node: NodeId,
        vi: ViId,
        len: usize,
        n: usize,
        open: Open,
    ) -> Result<(), ViaError> {
        let pool = len.checked_mul(n).ok_or(ViaError::OutOfBounds)?;
        let nic = &self.nics[node];
        nic.check_pins(&[pool, pool], self.profile.max_pinned)?;
        if nic.vi(vi)?.recv_posted + n > self.profile.max_recv_descs {
            return Err(ViaError::RecvQueueFull);
        }
        self.check_open(node, vi, open)?;
        // Checked above: none of the verbs below can fail.
        let recv = self.nics[node].register(pool, self.profile.max_pinned)?;
        self.nics[node].register(pool, self.profile.max_pinned)?;
        self.post_recv(node, vi, recv, 0, len, n)?;
        match open {
            Open::Peer { remote, disc } => self.connect_peer(api, node, vi, remote, disc),
            Open::Request { remote, disc } => self.connect_request(api, node, vi, remote, disc),
            Open::Accept { req_id } => self.accept_cs(api, node, req_id, vi),
        }
    }

    /// The error `open` would return on `(node, vi)`, without acting.
    fn check_open(&self, node: NodeId, vi: ViId, open: Open) -> Result<(), ViaError> {
        let nic = &self.nics[node];
        let Open::Accept { req_id } = open else {
            return nic.check_aim(vi);
        };
        let req = (nic.incoming_cs.iter())
            .find(|r| r.id == req_id)
            .ok_or(ViaError::NoSuchRequest)?;
        nic.check_aim(vi)?;
        self.find_connecting(req.from, node, req.disc)
            .map(drop)
            .ok_or(ViaError::NoSuchRequest)
    }

    /// Issue a peer-to-peer connection request from `(node, vi)` to
    /// `remote` under `disc` (VIA 1.0 `VipConnectPeerRequest`).
    ///
    /// If a matching request from `remote` already arrived here, the match
    /// completes locally; otherwise the request travels to `remote`, where
    /// it either matches an outstanding request or becomes visible through
    /// [`Fabric::incoming_peer`].
    pub fn connect_peer(
        &mut self,
        api: &mut Api<'_, FabricEvent>,
        node: NodeId,
        vi: ViId,
        remote: NodeId,
        disc: Discriminator,
    ) -> Result<(), ViaError> {
        self.nics[node].aim_vi(vi, remote, disc, ViState::Connecting)?;
        self.nics[node].metrics.inc(nic_metrics::CONN_REQUESTS);

        // Did the remote's request already arrive here?
        let pending = self.nics[node]
            .incoming_peer
            .iter()
            .position(|r| r.from == remote && r.disc == disc);
        if let Some(idx) = pending {
            self.nics[node].incoming_peer.remove(idx);
            self.match_peer(api, remote, node, disc, SimDuration::ZERO);
            return Ok(());
        }
        self.schedule_conn(
            api,
            self.profile.conn_wire,
            FabricEvent::PeerReqArrive {
                dst: remote,
                from: node,
                disc,
            },
        );
        Ok(())
    }

    /// Re-issue the in-flight connection step for `(node, vi)` after a
    /// retry timeout. For a `Connecting` VI the peer-to-peer request packet
    /// is retransmitted (first re-checking the local pending-request list —
    /// the peer's own request may have arrived in the meantime); for an
    /// `Establishing` VI, the endpoint's lost `Established` notification is
    /// regenerated from the far NIC's tables. Returns `Ok(false)` when the
    /// VI no longer needs a retry (already connected, or the handshake
    /// partner vanished). Retransmissions run back through the fault
    /// injector, so a retry can itself be dropped — that is what the
    /// caller's backoff budget is for.
    pub fn retry_connect(
        &mut self,
        api: &mut Api<'_, FabricEvent>,
        node: NodeId,
        vi: ViId,
    ) -> Result<bool, ViaError> {
        let (state, remote, disc) = {
            let v = self.nics[node].vi(vi)?;
            (v.state, v.remote, v.disc)
        };
        let (Some(remote), Some(disc)) = (remote, disc) else {
            return Err(ViaError::NotConnected);
        };
        match state {
            ViState::Connected => Ok(false),
            ViState::Connecting => {
                self.nics[node].metrics.inc(nic_metrics::CONN_RETRIES);
                let pending = self.nics[node]
                    .incoming_peer
                    .iter()
                    .position(|r| r.from == remote && r.disc == disc);
                if let Some(idx) = pending {
                    self.nics[node].incoming_peer.remove(idx);
                    self.match_peer(api, remote, node, disc, SimDuration::ZERO);
                } else {
                    self.schedule_conn(
                        api,
                        self.profile.conn_wire,
                        FabricEvent::PeerReqArrive {
                            dst: remote,
                            from: node,
                            disc,
                        },
                    );
                }
                Ok(true)
            }
            ViState::Establishing => {
                // Our own Established notification was lost. The match was
                // already made, so the peer endpoint is recoverable from the
                // far NIC's tables (the connection manager's global view).
                let Some(peer_vi) = self.find_matched(remote, node, disc) else {
                    return Ok(false);
                };
                self.nics[node].metrics.inc(nic_metrics::CONN_RETRIES);
                self.schedule_conn(
                    api,
                    self.profile.conn_establish,
                    FabricEvent::Established {
                        node,
                        vi,
                        peer: (remote, peer_vi),
                    },
                );
                Ok(true)
            }
            _ => Err(ViaError::NotConnected),
        }
    }

    /// The unmatched Connecting VI on `node` targeting `(remote, disc)` —
    /// the lowest-numbered one, should the process have issued several.
    fn find_connecting(&self, node: NodeId, remote: NodeId, disc: Discriminator) -> Option<ViId> {
        (self.nics[node].vis_aimed_at(remote, disc))
            .find(|(_, v)| v.state == ViState::Connecting)
            .map(|(id, _)| id)
    }

    /// The VI on `node` already matched or connected to `(remote, disc)`.
    fn find_matched(&self, node: NodeId, remote: NodeId, disc: Discriminator) -> Option<ViId> {
        (self.nics[node].vis_aimed_at(remote, disc))
            .find(|(_, v)| matches!(v.state, ViState::Establishing | ViState::Connected))
            .map(|(id, _)| id)
    }

    /// Both sides have issued matching requests: move them to `Establishing`
    /// and schedule `Established` on each after the handshake cost.
    ///
    /// `a` is the side whose request travelled (or `from` in a local match);
    /// `b` is the side where the match was discovered. `extra` is any
    /// additional one-way delay to fold in (zero for a local discovery).
    fn match_peer(
        &mut self,
        api: &mut Api<'_, FabricEvent>,
        a: NodeId,
        b: NodeId,
        disc: Discriminator,
        extra: SimDuration,
    ) {
        let Some(vi_a) = self.find_connecting(a, b, disc) else {
            // Initiator vanished (destroyed VI) — drop silently.
            return;
        };
        let Some(vi_b) = self.find_connecting(b, a, disc) else {
            return;
        };
        self.nics[a].vis[vi_a.0 as usize].state = ViState::Establishing;
        self.nics[b].vis[vi_b.0 as usize].state = ViState::Establishing;
        let est = self.profile.conn_establish + extra;
        // The discovery side connects after the local handshake; the far
        // side additionally waits for the response to travel back.
        self.schedule_conn(
            api,
            est,
            FabricEvent::Established {
                node: b,
                vi: vi_b,
                peer: (a, vi_a),
            },
        );
        self.schedule_conn(
            api,
            est + self.profile.conn_wire,
            FabricEvent::Established {
                node: a,
                vi: vi_a,
                peer: (b, vi_b),
            },
        );
    }

    /// Issue a client/server connection request (VIA 0.95
    /// `VipConnectRequest`) from `(node, vi)` to the server `remote`.
    pub fn connect_request(
        &mut self,
        api: &mut Api<'_, FabricEvent>,
        node: NodeId,
        vi: ViId,
        remote: NodeId,
        disc: Discriminator,
    ) -> Result<(), ViaError> {
        self.nics[node].aim_vi(vi, remote, disc, ViState::Connecting)?;
        self.nics[node].metrics.inc(nic_metrics::CONN_REQUESTS);
        api.schedule(
            self.profile.conn_wire,
            FabricEvent::CsReqArrive {
                dst: remote,
                from: node,
                disc,
            },
        );
        Ok(())
    }

    /// Server side: accept pending request `req_id` on endpoint `vi`
    /// (VIA `VipConnectAccept`). The accept is checked first: an error
    /// leaves the request pending and every VI as it was.
    pub fn accept_cs(
        &mut self,
        api: &mut Api<'_, FabricEvent>,
        node: NodeId,
        req_id: u64,
        vi: ViId,
    ) -> Result<(), ViaError> {
        self.check_open(node, vi, Open::Accept { req_id })?;
        // Checked above: the request is pending, `vi` is idle and the
        // client's VI still waits, so nothing below can fail.
        let nic = &mut self.nics[node];
        let idx = (nic.incoming_cs.iter())
            .position(|r| r.id == req_id)
            .ok_or(ViaError::NoSuchRequest)?;
        let req = nic.incoming_cs.remove(idx);
        let client_vi = self
            .find_connecting(req.from, node, req.disc)
            .ok_or(ViaError::NoSuchRequest)?;
        self.nics[node].aim_vi(vi, req.from, req.disc, ViState::Establishing)?;
        self.nics[req.from].vis[client_vi.0 as usize].state = ViState::Establishing;
        let est = self.profile.conn_accept + self.profile.conn_establish;
        api.schedule(
            est,
            FabricEvent::Established {
                node,
                vi,
                peer: (req.from, client_vi),
            },
        );
        api.schedule(
            est + self.profile.conn_wire,
            FabricEvent::Established {
                node: req.from,
                vi: client_vi,
                peer: (node, vi),
            },
        );
        Ok(())
    }

    /// Server side: reject pending request `req_id`.
    pub fn reject_cs(
        &mut self,
        api: &mut Api<'_, FabricEvent>,
        node: NodeId,
        req_id: u64,
    ) -> Result<(), ViaError> {
        let idx = self.nics[node]
            .incoming_cs
            .iter()
            .position(|r| r.id == req_id)
            .ok_or(ViaError::NoSuchRequest)?;
        let req = self.nics[node].incoming_cs.remove(idx);
        if let Some(client_vi) = self.find_connecting(req.from, node, req.disc) {
            api.schedule(
                self.profile.conn_wire,
                FabricEvent::CsRejected {
                    node: req.from,
                    vi: client_vi,
                },
            );
        }
        Ok(())
    }

    /// Send an out-of-band (process-manager) message.
    pub fn oob_send(
        &mut self,
        api: &mut Api<'_, FabricEvent>,
        from: NodeId,
        to: NodeId,
        data: Vec<u8>,
    ) {
        self.oob_send_shared(api, from, to, OobBytes::from(data));
    }

    /// Send an out-of-band message whose payload is already shared — a
    /// broadcast sends the same allocation to every recipient, so bootstrap
    /// cost scales with the table size, not `ranks × table size`.
    pub fn oob_send_shared(
        &mut self,
        api: &mut Api<'_, FabricEvent>,
        from: NodeId,
        to: NodeId,
        data: OobBytes,
    ) {
        // Model a TCP-ish channel: fixed latency plus ~12 B/us.
        let lat = self.oob_latency + SimDuration::micros_f64(data.len() as f64 / 12.0);
        api.schedule(
            lat,
            FabricEvent::OobDeliver {
                dst: to,
                from,
                data,
            },
        );
    }
}

impl World for Fabric {
    type Event = FabricEvent;

    fn handle_event(&mut self, event: FabricEvent, api: &mut Api<'_, FabricEvent>) {
        let mut wake = std::mem::take(&mut self.wake_scratch);
        self.apply_event(event, api, &mut wake);
        for pid in wake.drain(..) {
            api.wake(pid);
        }
        self.wake_scratch = wake;
    }
}

impl Fabric {
    /// Apply `event`, collecting the processes it wakes into `wake`.
    fn apply_event(
        &mut self,
        event: FabricEvent,
        api: &mut Api<'_, FabricEvent>,
        wake: &mut Vec<viampi_sim::ProcId>,
    ) {
        match event {
            FabricEvent::TxDone {
                node,
                vi,
                desc,
                kind,
            } => {
                let nic = &mut self.nics[node];
                nic.cq.push_back(Completion {
                    vi,
                    kind,
                    desc,
                    len: 0,
                    imm: 0,
                    segment: None,
                    payload: None,
                });
                nic.bump_activity(wake);
            }
            FabricEvent::Deliver { pkt } => {
                let (dst_node, dst_vi) = pkt.dst;
                match pkt.body {
                    PacketBody::Send { data, imm } => {
                        let nic = &mut self.nics[dst_node];
                        let Some((desc, mem, off)) = nic.take_recv(dst_vi, data.len()) else {
                            return;
                        };
                        nic.write_region(&self.pool, mem, off, &data);
                        nic.cq.push_back(Completion {
                            vi: dst_vi,
                            kind: CompletionKind::Recv,
                            desc,
                            len: data.len(),
                            imm,
                            segment: Some((mem, off)),
                            payload: None,
                        });
                        nic.bump_activity(wake);
                    }
                    PacketBody::Wire { msg, imm } => {
                        // Zero-copy delivery: the frame consumes a receive
                        // descriptor (flow control and sizing behave exactly
                        // like `Send`) but travels by reference into the
                        // completion instead of through the descriptor's
                        // registered region.
                        let nic = &mut self.nics[dst_node];
                        let Some((desc, mem, off)) = nic.take_recv(dst_vi, msg.data.len()) else {
                            return;
                        };
                        nic.cq.push_back(Completion {
                            vi: dst_vi,
                            kind: CompletionKind::Recv,
                            desc,
                            len: msg.data.len(),
                            imm,
                            segment: Some((mem, off)),
                            payload: Some(msg.data),
                        });
                        nic.bump_activity(wake);
                    }
                    PacketBody::Rdma {
                        data,
                        remote_mem,
                        remote_off,
                    } => {
                        let nic = &mut self.nics[dst_node];
                        if nic
                            .check_bounds(remote_mem, remote_off, data.len())
                            .is_err()
                        {
                            nic.metrics.inc(nic_metrics::DROPS_RDMA);
                            return;
                        }
                        nic.metrics.inc(nic_metrics::MSGS_RX);
                        nic.metrics.add(nic_metrics::BYTES_RX, data.len() as u64);
                        nic.land_rdma(&self.pool, remote_mem, remote_off, data);
                        // One-sided: no completion, no activity (invisible to
                        // the target process, as in the VI Architecture).
                    }
                }
            }
            FabricEvent::PeerReqArrive { dst, from, disc } => {
                if self.find_connecting(dst, from, disc).is_some() {
                    // Mutual outstanding requests: match here.
                    self.match_peer(api, from, dst, disc, SimDuration::ZERO);
                } else if self.find_matched(dst, from, disc).is_some() {
                    // Stale duplicate of a simultaneous connect — both
                    // requests crossed on the wire and the other one already
                    // made the match. Drop.
                } else {
                    let nic = &mut self.nics[dst];
                    if !nic
                        .incoming_peer
                        .iter()
                        .any(|r| r.from == from && r.disc == disc)
                    {
                        nic.incoming_peer.push(PeerRequest { from, disc });
                    }
                    nic.bump_activity(wake);
                }
            }
            FabricEvent::CsReqArrive { dst, from, disc } => {
                let nic = &mut self.nics[dst];
                let id = nic.next_cs_id;
                nic.next_cs_id += 1;
                nic.incoming_cs.push(CsRequest { id, from, disc });
                nic.bump_activity(wake);
            }
            FabricEvent::Established { node, vi, peer } => {
                let nic = &mut self.nics[node];
                if let Ok(v) = nic.vi_mut(vi) {
                    // Idempotent: a duplicated or retransmitted notification
                    // for an already-connected endpoint is dropped, so the
                    // establishment is counted exactly once.
                    if v.state != ViState::Connected {
                        v.state = ViState::Connected;
                        v.peer = Some(peer);
                        nic.metrics.inc(nic_metrics::CONNS_ESTABLISHED);
                        nic.bump_activity(wake);
                    }
                }
            }
            FabricEvent::CsRejected { node, vi } => {
                let nic = &mut self.nics[node];
                if let Ok(v) = nic.vi_mut(vi) {
                    v.state = ViState::Error;
                    nic.bump_activity(wake);
                }
            }
            FabricEvent::Timer { node } => {
                let nic = &mut self.nics[node];
                nic.timer_seq += 1;
                wake.append(&mut nic.waiters);
            }
            FabricEvent::OobDeliver { dst, from, data } => {
                let nic = &mut self.nics[dst];
                nic.oob.push_back((from, data));
                nic.bump_activity(wake);
            }
        }
    }

    /// Snapshot of the pending incoming peer requests on `node`.
    pub fn incoming_peer(&self, node: NodeId) -> &[PeerRequest] {
        &self.nics[node].incoming_peer
    }

    /// Snapshot of the pending incoming client/server requests on `node`.
    pub fn incoming_cs(&self, node: NodeId) -> &[CsRequest] {
        &self.nics[node].incoming_cs
    }
}
