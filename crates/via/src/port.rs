//! `ViaPort` — the per-process provider-library handle (the analogue of a
//! VIPL `VipNic` handle in MVICH).
//!
//! Every method charges the *host-side* cost of the corresponding VIPL call
//! to the calling process's virtual clock and then performs the state change
//! against the shared [`Fabric`] (receive posting does the two in the other
//! order — see [`ViaPort::post_recv_run`]). NIC-side and wire costs are paid
//! by the events the fabric schedules.
//!
//! One fabric node corresponds to one MPI process. (The paper's testbed had
//! 4-way SMP nodes, but its Berkeley-VIA experiments — the ones where
//! per-NIC VI counts matter — ran one process per node, and cLAN has no
//! per-VI effect, so a per-process NIC preserves every reported phenomenon.)

use crate::fabric::{Fabric, FabricEvent};
use crate::profile::DeviceProfile;
use crate::types::{
    Completion, CsRequest, DescId, Discriminator, MemHandle, NodeId, PeerRequest, ViId, ViState,
    ViaError,
};
use viampi_sim::{ProcCtx, Registry, SimDuration};

/// Per-process handle onto one NIC of the fabric.
pub struct ViaPort {
    ctx: ProcCtx<Fabric>,
    node: NodeId,
    profile: DeviceProfile,
}

impl ViaPort {
    /// Open the NIC of `node` from the calling simulated process.
    pub fn open(ctx: ProcCtx<Fabric>, node: NodeId) -> Self {
        let profile = ctx.with_world(|f, _| {
            assert!(node < f.nodes(), "node {node} out of range");
            f.profile.clone()
        });
        ViaPort { ctx, node, profile }
    }

    /// The fabric node this port is bound to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The device cost profile (cloned at open time; immutable thereafter).
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Underlying simulation context (virtual clock, etc.).
    pub fn ctx(&self) -> &ProcCtx<Fabric> {
        &self.ctx
    }

    // ---- endpoint lifecycle -------------------------------------------------

    /// `VipCreateVi`: allocate a VI endpoint. Under fault injection this
    /// can fail with [`ViaError::TransientFailure`]; callers retry.
    pub fn create_vi(&self) -> Result<ViId, ViaError> {
        self.ctx.advance(self.profile.conn_call / 4);
        let node = self.node;
        self.ctx.with_world(|f, _| f.create_vi(node))
    }

    /// `VipDestroyVi`.
    pub fn destroy_vi(&self, vi: ViId) -> Result<(), ViaError> {
        self.ctx.advance(self.profile.conn_call / 4);
        let node = self.node;
        self.ctx.with_world(|f, _| f.nics[node].destroy_vi(vi))
    }

    /// Connection state of `vi`.
    pub fn vi_state(&self, vi: ViId) -> Result<ViState, ViaError> {
        let node = self.node;
        self.ctx.with_world(|f, _| Ok(f.nics[node].vi(vi)?.state))
    }

    // ---- memory registration ------------------------------------------------

    /// `VipRegisterMem`: pin a region of `len` bytes. Charges the pin cost.
    pub fn register(&self, len: usize) -> Result<MemHandle, ViaError> {
        self.ctx.advance(self.profile.reg_time(len));
        let node = self.node;
        self.ctx
            .with_world(|f, _| f.nics[node].register(len, f.profile.max_pinned))
    }

    /// `VipRegisterMem` over the buffer `data` itself (the rendezvous
    /// sender pinning the user buffer): the region adopts it, so an RDMA
    /// write out of the region involves no staging copy. Charges the pin
    /// cost of the buffer's length.
    pub fn register_buf(&self, data: crate::fabric::Bytes) -> Result<MemHandle, ViaError> {
        self.ctx.advance(self.profile.reg_time(data.len().max(1)));
        let node = self.node;
        self.ctx
            .with_world(|f, _| f.nics[node].register_buf(data, f.profile.max_pinned))
    }

    /// `VipDeregisterMem`.
    pub fn deregister(&self, h: MemHandle) -> Result<(), ViaError> {
        self.deregister_take(h, 0).map(drop)
    }

    /// `VipDeregisterMem` that hands back the region's first `len` bytes
    /// (the rendezvous receiver unpinning the user buffer the data landed
    /// in) — the backing buffer itself, no copy and no copy charge.
    pub fn deregister_take(
        &self,
        h: MemHandle,
        len: usize,
    ) -> Result<crate::fabric::Bytes, ViaError> {
        self.ctx.advance(self.profile.reg_mem_base / 2);
        let node = self.node;
        self.ctx
            .with_world(|f, _| f.nics[node].deregister_take(h, len))
    }

    /// Copy host data **into** a registered region, charging memcpy time
    /// (the eager-buffer staging copy of MVICH).
    pub fn mem_write(&self, h: MemHandle, off: usize, data: &[u8]) -> Result<(), ViaError> {
        self.ctx.advance(self.profile.copy_time(data.len()));
        self.mem_fill(h, off, data)
    }

    /// Copy data **out of** a registered region, charging memcpy time.
    pub fn mem_read(&self, h: MemHandle, off: usize, len: usize) -> Result<Vec<u8>, ViaError> {
        self.ctx.advance(self.profile.copy_time(len));
        self.mem_peek(h, off, len)
    }

    /// Place data in a registered region **without** charging copy time —
    /// models zero-copy situations where the user buffer itself is pinned
    /// (the rendezvous-protocol path).
    pub fn mem_fill(&self, h: MemHandle, off: usize, data: &[u8]) -> Result<(), ViaError> {
        let node = self.node;
        self.ctx.with_world(|f, _| {
            f.nics[node].check_bounds(h, off, data.len())?;
            f.nics[node].write_region(&f.pool, h, off, data);
            Ok(())
        })
    }

    /// Read a registered region without charging copy time (zero-copy view).
    pub fn mem_peek(&self, h: MemHandle, off: usize, len: usize) -> Result<Vec<u8>, ViaError> {
        let node = self.node;
        self.ctx.with_world(|f, _| {
            f.nics[node].check_bounds(h, off, len)?;
            Ok(f.nics[node].regions[h.0 as usize].bytes()[off..off + len].to_vec())
        })
    }

    // ---- data transfer ------------------------------------------------------

    /// `VipPostSend`. On an unconnected VI the payload is silently discarded
    /// (counted in `nic.drops_unconnected`), as in the VI spec.
    pub fn post_send(
        &self,
        vi: ViId,
        mem: MemHandle,
        off: usize,
        len: usize,
        imm: u32,
    ) -> Result<DescId, ViaError> {
        self.ctx.advance(self.profile.post_send);
        let node = self.node;
        self.ctx
            .with_world(|f, api| f.post_send(api, node, vi, mem, off, len, imm))
    }

    /// `VipPostSend` on the zero-copy wire path: the pooled frame travels
    /// by reference and surfaces in [`Completion::payload`] at the
    /// receiver. Charges exactly what [`ViaPort::post_send`] charges.
    /// `producer` is the posting thread: a post whose producer differs from
    /// the VI's previous post pays the device's shared-VI lock-convoy charge
    /// (see [`crate::DeviceProfile::vi_lock_convoy`]).
    pub fn post_send_pooled_as(
        &self,
        vi: ViId,
        data: crate::fabric::Bytes,
        imm: u32,
        producer: u32,
    ) -> Result<DescId, ViaError> {
        self.ctx.advance(self.profile.post_send);
        let node = self.node;
        self.ctx
            .with_world(|f, api| f.post_send_pooled_as(api, node, vi, data, imm, producer))
    }

    /// A handle to the fabric's shared wire-buffer pool.
    pub fn pool(&self) -> viampi_sim::BufferPool {
        self.ctx.with_world(|f, _| f.pool())
    }

    /// `VipPostRecv`: the `n = 1` case of [`ViaPort::post_recv_run`].
    pub fn post_recv(
        &self,
        vi: ViId,
        mem: MemHandle,
        off: usize,
        len: usize,
    ) -> Result<DescId, ViaError> {
        self.post_recv_run(vi, mem, off, len, 1)
    }

    /// `n` × `VipPostRecv` over consecutive `len`-byte segments of `mem`
    /// starting at `off`, in one world access; returns the first
    /// descriptor's id. The run is validated as a whole, so an error posts
    /// nothing — and charges nothing, which is why this is the one call
    /// that acts before it charges: the descriptors appear at the start of
    /// the `n × post_recv` the call costs rather than one by one through
    /// it. Only the owner posts to a VI and a sender needs a credit that is
    /// granted after the call returns, so no arrival can tell the
    /// difference; a caller that does depend on when each descriptor of a
    /// run appears on a live VI posts them one at a time.
    pub fn post_recv_run(
        &self,
        vi: ViId,
        mem: MemHandle,
        off: usize,
        len: usize,
        n: usize,
    ) -> Result<DescId, ViaError> {
        let node = self.node;
        let first = self
            .ctx
            .with_world(|f, _| f.post_recv(node, vi, mem, off, len, n))?;
        self.ctx
            .advance(self.profile.post_recv.saturating_mul(n as u64));
        Ok(first)
    }

    /// RDMA write (`VipPostSend` with `VIP_RDMAWRITE`): one-sided transfer
    /// into the peer's registered memory.
    #[allow(clippy::too_many_arguments)]
    pub fn post_rdma_write(
        &self,
        vi: ViId,
        mem: MemHandle,
        off: usize,
        len: usize,
        remote_mem: MemHandle,
        remote_off: usize,
    ) -> Result<DescId, ViaError> {
        self.post_rdma_write_as(vi, mem, off, len, remote_mem, remote_off, 0)
    }

    /// [`ViaPort::post_rdma_write`] with an explicit posting producer
    /// thread (see [`ViaPort::post_send_pooled_as`]).
    #[allow(clippy::too_many_arguments)]
    pub fn post_rdma_write_as(
        &self,
        vi: ViId,
        mem: MemHandle,
        off: usize,
        len: usize,
        remote_mem: MemHandle,
        remote_off: usize,
        producer: u32,
    ) -> Result<DescId, ViaError> {
        self.ctx.advance(self.profile.post_send);
        let node = self.node;
        self.ctx.with_world(|f, api| {
            f.post_rdma_write_as(
                api, node, vi, mem, off, len, remote_mem, remote_off, producer,
            )
        })
    }

    // ---- completions --------------------------------------------------------

    /// Poll the NIC completion queue (`VipCQDone`). Charges one poll.
    pub fn cq_poll(&self) -> Option<Completion> {
        self.ctx.advance(self.profile.cq_poll);
        let node = self.node;
        self.ctx.with_world(|f, _| f.nics[node].cq.pop_front())
    }

    /// Current NIC activity stamp (bumped on every externally visible NIC
    /// event). Free; used to detect "anything happened since".
    pub fn activity_stamp(&self) -> u64 {
        let node = self.node;
        self.ctx.with_world(|f, _| f.nics[node].activity)
    }

    /// Block until NIC activity differs from `stamp`; returns the new stamp.
    /// The caller charges wait-policy costs (spin iterations, interrupt
    /// wake-up) around this primitive.
    pub fn wait_activity(&self, stamp: u64) -> u64 {
        let node = self.node;
        let pid = self.ctx.pid();
        self.ctx.block_on(move |f, _| {
            let nic = &mut f.nics[node];
            if nic.activity != stamp {
                Some(nic.activity)
            } else {
                nic.waiters.push(pid);
                None
            }
        })
    }

    /// Arm a timer that wakes this NIC's waiters after `d` (models the end
    /// of a bounded spin window in the spinwait completion policy). Fired
    /// timers bump the *timer* counter, not the activity counter.
    pub fn schedule_timer(&self, d: SimDuration) {
        let node = self.node;
        self.ctx
            .with_world(|_, api| api.schedule(d, FabricEvent::Timer { node }));
    }

    /// Current timer counter.
    pub fn timer_stamp(&self) -> u64 {
        let node = self.node;
        self.ctx.with_world(|f, _| f.nics[node].timer_seq)
    }

    /// Block until either NIC activity differs from `astamp` or the timer
    /// counter differs from `tstamp`; returns `(activity, timer_seq)`.
    pub fn wait_activity_or_timer(&self, astamp: u64, tstamp: u64) -> (u64, u64) {
        let node = self.node;
        let pid = self.ctx.pid();
        self.ctx.block_on(move |f, _| {
            let nic = &mut f.nics[node];
            if nic.activity != astamp || nic.timer_seq != tstamp {
                Some((nic.activity, nic.timer_seq))
            } else {
                nic.waiters.push(pid);
                None
            }
        })
    }

    // ---- connection management ----------------------------------------------

    /// `VipConnectPeerRequest` (VIA ≥ 1.0 peer-to-peer model).
    pub fn connect_peer(
        &self,
        vi: ViId,
        remote: NodeId,
        disc: Discriminator,
    ) -> Result<(), ViaError> {
        self.ctx.advance(self.profile.conn_call);
        let node = self.node;
        self.ctx
            .with_world(|f, api| f.connect_peer(api, node, vi, remote, disc))
    }

    /// Peer requests that arrived before we issued a matching connect.
    pub fn peer_requests(&self) -> Vec<PeerRequest> {
        let node = self.node;
        self.ctx.with_world(|f, _| f.incoming_peer(node).to_vec())
    }

    /// Retransmit the in-flight connection step for `vi` after a retry
    /// timeout (see [`Fabric::retry_connect`]). Charges one connection call.
    pub fn retry_connect(&self, vi: ViId) -> Result<bool, ViaError> {
        self.ctx.advance(self.profile.conn_call);
        let node = self.node;
        self.ctx.with_world(|f, api| f.retry_connect(api, node, vi))
    }

    /// The remote node of every VI on this NIC, indexed by `ViId.0`:
    /// `Some` for a live `Connected` VI, `None` otherwise. One pass over the
    /// VI table in one world access (the `simcheck` exactly-one-VI-per-pair
    /// invariant input for a whole rank).
    pub fn connected_remotes(&self) -> Vec<Option<NodeId>> {
        let node = self.node;
        self.ctx.with_world(|f, _| {
            f.nics[node]
                .vis
                .iter()
                .map(|v| {
                    (!v.destroyed && v.state == ViState::Connected)
                        .then_some(v.remote)
                        .flatten()
                })
                .collect()
        })
    }

    /// `VipConnectRequest` (VIA 0.95 client/server model, client side).
    pub fn connect_request(
        &self,
        vi: ViId,
        remote: NodeId,
        disc: Discriminator,
    ) -> Result<(), ViaError> {
        self.ctx.advance(self.profile.conn_call);
        let node = self.node;
        self.ctx
            .with_world(|f, api| f.connect_request(api, node, vi, remote, disc))
    }

    /// Pending client/server requests (server side of `VipConnectWait`).
    pub fn cs_requests(&self) -> Vec<CsRequest> {
        let node = self.node;
        self.ctx.with_world(|f, _| f.incoming_cs(node).to_vec())
    }

    /// `VipConnectAccept`.
    pub fn accept_cs(&self, req_id: u64, vi: ViId) -> Result<(), ViaError> {
        self.ctx.advance(self.profile.conn_call);
        let node = self.node;
        self.ctx
            .with_world(|f, api| f.accept_cs(api, node, req_id, vi))
    }

    /// `VipConnectReject`.
    pub fn reject_cs(&self, req_id: u64) -> Result<(), ViaError> {
        self.ctx.advance(self.profile.conn_call);
        let node = self.node;
        self.ctx.with_world(|f, api| f.reject_cs(api, node, req_id))
    }

    /// Block until `vi` leaves the `Connecting`/`Establishing` states;
    /// returns the final state (`Connected` or `Error`).
    pub fn connect_wait(&self, vi: ViId) -> Result<ViState, ViaError> {
        loop {
            let stamp = self.activity_stamp();
            match self.vi_state(vi)? {
                ViState::Connected => return Ok(ViState::Connected),
                ViState::Error => return Ok(ViState::Error),
                _ => {
                    self.wait_activity(stamp);
                }
            }
        }
    }

    // ---- out-of-band bootstrap ----------------------------------------------

    /// Send a process-manager (TCP bootstrap) message to `to`.
    pub fn oob_send(&self, to: NodeId, data: Vec<u8>) {
        let node = self.node;
        self.ctx
            .with_world(|f, api| f.oob_send(api, node, to, data));
    }

    /// Send a process-manager message whose payload is already shared —
    /// broadcasting the same `Arc` to every rank costs one allocation total.
    pub fn oob_send_shared(&self, to: NodeId, data: crate::fabric::OobBytes) {
        let node = self.node;
        self.ctx
            .with_world(|f, api| f.oob_send_shared(api, node, to, data));
    }

    /// Blocking OOB receive.
    pub fn oob_recv(&self) -> (NodeId, Vec<u8>) {
        let (n, d) = self.oob_recv_shared();
        (n, d.to_vec())
    }

    /// Blocking OOB receive of the shared payload (no copy).
    pub fn oob_recv_shared(&self) -> (NodeId, crate::fabric::OobBytes) {
        let node = self.node;
        let pid = self.ctx.pid();
        self.ctx.block_on(move |f, _| {
            let nic = &mut f.nics[node];
            if let Some(m) = nic.oob.pop_front() {
                Some(m)
            } else {
                nic.waiters.push(pid);
                None
            }
        })
    }

    // ---- introspection --------------------------------------------------------

    /// A copy of this NIC's counters as they stand now
    /// ([`crate::nic::nic_metrics`] set).
    pub fn metrics(&self) -> Registry {
        let node = self.node;
        self.ctx.with_world(|f, _| f.nics[node].metrics.clone())
    }

    /// Live VI count on this NIC.
    pub fn live_vis(&self) -> usize {
        let node = self.node;
        self.ctx.with_world(|f, _| f.nics[node].live_vis())
    }

    /// Per-VI usage: `(vi, msgs_sent, msgs_recvd)` for every non-destroyed
    /// VI. Basis of the paper's Table 2 utilization column.
    pub fn vi_usage(&self) -> Vec<(ViId, u64, u64)> {
        let node = self.node;
        self.ctx.with_world(|f, _| {
            f.nics[node]
                .vis
                .iter()
                .enumerate()
                .filter(|(_, v)| !v.destroyed)
                .map(|(i, v)| (ViId(i as u32), v.msgs_sent, v.msgs_recvd))
                .collect()
        })
    }

    /// Charge an arbitrary host-side duration (protocol bookkeeping in the
    /// layers above).
    pub fn charge(&self, d: SimDuration) {
        self.ctx.advance(d);
    }
}

/// Convenience: build an engine over a fresh fabric.
pub fn fabric_engine(profile: DeviceProfile, nodes: usize) -> viampi_sim::Engine<Fabric> {
    viampi_sim::Engine::new(Fabric::new(profile, nodes))
}

// Re-export the event type name for downstream `World` plumbing.
pub use crate::fabric::FabricEvent as PortEvent;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nic::nic_metrics;
    use crate::types::CompletionKind;
    use viampi_sim::Engine;

    fn engine(nodes: usize) -> Engine<Fabric> {
        fabric_engine(DeviceProfile::clan(), nodes)
    }

    /// Two-node connect + ping exchanging one message each way.
    #[test]
    fn peer_connect_and_send_recv() {
        let mut eng = engine(2);
        let disc = Discriminator(7);
        eng.spawn("n0", move |ctx| {
            let port = ViaPort::open(ctx, 0);
            let vi = port.create_vi().unwrap();
            let mem = port.register(4096).unwrap();
            port.post_recv(vi, mem, 0, 2048).unwrap();
            port.connect_peer(vi, 1, disc).unwrap();
            assert_eq!(port.connect_wait(vi).unwrap(), ViState::Connected);
            port.mem_write(mem, 2048, b"hello from n0").unwrap();
            port.post_send(vi, mem, 2048, 13, 0).unwrap();
            // Wait for our send completion and the pong.
            let mut got_send = false;
            let mut got_recv = false;
            while !(got_send && got_recv) {
                let stamp = port.activity_stamp();
                match port.cq_poll() {
                    Some(c) if c.kind == CompletionKind::Send => got_send = true,
                    Some(c) if c.kind == CompletionKind::Recv => {
                        assert_eq!(c.len, 4);
                        let data = port.mem_read(mem, 0, 4).unwrap();
                        assert_eq!(&data, b"pong");
                        got_recv = true;
                    }
                    Some(_) => {}
                    None => {
                        port.wait_activity(stamp);
                    }
                }
            }
        });
        eng.spawn("n1", move |ctx| {
            let port = ViaPort::open(ctx, 1);
            let vi = port.create_vi().unwrap();
            let mem = port.register(4096).unwrap();
            port.post_recv(vi, mem, 0, 2048).unwrap();
            port.connect_peer(vi, 0, disc).unwrap();
            assert_eq!(port.connect_wait(vi).unwrap(), ViState::Connected);
            // Receive the hello.
            loop {
                let stamp = port.activity_stamp();
                if let Some(c) = port.cq_poll() {
                    if c.kind == CompletionKind::Recv {
                        assert_eq!(c.len, 13);
                        let data = port.mem_read(mem, 0, 13).unwrap();
                        assert_eq!(&data, b"hello from n0");
                        break;
                    }
                } else {
                    port.wait_activity(stamp);
                }
            }
            port.mem_write(mem, 2048, b"pong").unwrap();
            port.post_send(vi, mem, 2048, 4, 0).unwrap();
            // Drain our send completion so stats are deterministic.
            loop {
                let stamp = port.activity_stamp();
                match port.cq_poll() {
                    Some(c) if c.kind == CompletionKind::Send => break,
                    Some(_) => {}
                    None => {
                        port.wait_activity(stamp);
                    }
                }
            }
        });
        let (fabric, out) = eng.run().unwrap();
        assert!(out.end_time.as_nanos() > 0);
        assert_eq!(fabric.nics[0].metrics.counter(nic_metrics::MSGS_TX), 1);
        assert_eq!(fabric.nics[0].metrics.counter(nic_metrics::MSGS_RX), 1);
        assert_eq!(
            fabric.nics[0].metrics.counter(nic_metrics::DROPS_NO_DESC),
            0
        );
        assert_eq!(
            fabric.nics[0]
                .metrics
                .counter(nic_metrics::CONNS_ESTABLISHED),
            1
        );
        assert_eq!(
            fabric.nics[1]
                .metrics
                .counter(nic_metrics::CONNS_ESTABLISHED),
            1
        );
    }

    /// The on-demand scenario: one side connects late, discovering the
    /// pending request through `peer_requests`.
    #[test]
    fn late_peer_answers_pending_request() {
        let mut eng = engine(2);
        let disc = Discriminator(99);
        eng.spawn("early", move |ctx| {
            let port = ViaPort::open(ctx, 0);
            let vi = port.create_vi().unwrap();
            port.connect_peer(vi, 1, disc).unwrap();
            assert_eq!(port.connect_wait(vi).unwrap(), ViState::Connected);
        });
        eng.spawn("late", move |ctx| {
            let port = ViaPort::open(ctx, 1);
            // Wait until the request shows up, as an on-demand progress
            // engine would.
            loop {
                let stamp = port.activity_stamp();
                let reqs = port.peer_requests();
                if let Some(r) = reqs.first() {
                    assert_eq!(r.from, 0);
                    assert_eq!(r.disc, disc);
                    break;
                }
                port.wait_activity(stamp);
            }
            let vi = port.create_vi().unwrap();
            port.connect_peer(vi, 0, disc).unwrap();
            assert_eq!(port.connect_wait(vi).unwrap(), ViState::Connected);
            assert!(
                port.peer_requests().is_empty(),
                "answered request is consumed"
            );
        });
        eng.run().unwrap();
    }

    /// Simultaneous mutual connects must establish exactly one connection
    /// per side (no duplicate Established, no stray pending request).
    #[test]
    fn simultaneous_peer_connect_race() {
        let mut eng = engine(2);
        let disc = Discriminator(5);
        for me in 0..2usize {
            let other = 1 - me;
            eng.spawn(format!("n{me}"), move |ctx| {
                let port = ViaPort::open(ctx, me);
                let vi = port.create_vi().unwrap();
                port.connect_peer(vi, other, disc).unwrap();
                assert_eq!(port.connect_wait(vi).unwrap(), ViState::Connected);
                assert_eq!(port.connected_remotes()[vi.0 as usize], Some(other));
                assert!(port.peer_requests().is_empty());
            });
        }
        let (fabric, _) = eng.run().unwrap();
        assert_eq!(
            fabric.nics[0]
                .metrics
                .counter(nic_metrics::CONNS_ESTABLISHED),
            1
        );
        assert_eq!(
            fabric.nics[1]
                .metrics
                .counter(nic_metrics::CONNS_ESTABLISHED),
            1
        );
    }

    /// Two `Connecting` VIs of one NIC under one `(remote, disc)`: a match
    /// takes the lowest-numbered one that is still `Connecting`.
    #[test]
    fn a_match_takes_the_lowest_connecting_vi_of_its_target() {
        let mut eng = engine(2);
        let disc = Discriminator(17);
        eng.spawn("twice", move |ctx| {
            let port = ViaPort::open(ctx, 0);
            let _idle = port.create_vi().unwrap();
            let low = port.create_vi().unwrap();
            let high = port.create_vi().unwrap();
            // Issued highest first: it is the id that decides, not the order.
            port.connect_peer(high, 1, disc).unwrap();
            port.connect_peer(low, 1, disc).unwrap();
            assert_eq!(port.connect_wait(low).unwrap(), ViState::Connected);
            assert_eq!(port.vi_state(high).unwrap(), ViState::Connecting);
            port.oob_send(1, vec![1]);
            assert_eq!(port.connect_wait(high).unwrap(), ViState::Connected);
            assert_eq!(port.connected_remotes(), [None, Some(1), Some(1)]);
        });
        eng.spawn("once_then_again", move |ctx| {
            let port = ViaPort::open(ctx, 1);
            // Let both requests arrive first.
            port.charge(SimDuration::millis(1));
            assert_eq!(port.peer_requests().len(), 1, "one request per target");
            let first = port.create_vi().unwrap();
            port.connect_peer(first, 0, disc).unwrap();
            assert_eq!(port.connect_wait(first).unwrap(), ViState::Connected);
            // The lower VI is matched now; the next match is the other one.
            port.oob_recv();
            let second = port.create_vi().unwrap();
            port.connect_peer(second, 0, disc).unwrap();
            assert_eq!(port.connect_wait(second).unwrap(), ViState::Connected);
        });
        let (fabric, _) = eng.run().unwrap();
        assert_eq!(fabric.nics[0].vis[1].peer, Some((1, ViId(0))));
        assert_eq!(fabric.nics[0].vis[2].peer, Some((1, ViId(1))));
        assert_eq!(
            fabric.nics[0]
                .metrics
                .counter(nic_metrics::CONNS_ESTABLISHED),
            2
        );
        assert_eq!(
            fabric.nics[1]
                .metrics
                .counter(nic_metrics::CONNS_ESTABLISHED),
            2
        );
    }

    /// Client/server model: server accepts a pending request.
    #[test]
    fn client_server_connect() {
        let mut eng = engine(2);
        let disc = Discriminator(3);
        eng.spawn("server", move |ctx| {
            let port = ViaPort::open(ctx, 0);
            let req = loop {
                let stamp = port.activity_stamp();
                if let Some(r) = port.cs_requests().first().copied() {
                    break r;
                }
                port.wait_activity(stamp);
            };
            assert_eq!(req.from, 1);
            let vi = port.create_vi().unwrap();
            port.accept_cs(req.id, vi).unwrap();
            assert_eq!(port.connect_wait(vi).unwrap(), ViState::Connected);
        });
        eng.spawn("client", move |ctx| {
            let port = ViaPort::open(ctx, 1);
            let vi = port.create_vi().unwrap();
            port.connect_request(vi, 0, disc).unwrap();
            assert_eq!(port.connect_wait(vi).unwrap(), ViState::Connected);
        });
        eng.run().unwrap();
    }

    /// Client/server reject drives the client VI to `Error`.
    #[test]
    fn client_server_reject() {
        let mut eng = engine(2);
        eng.spawn("server", move |ctx| {
            let port = ViaPort::open(ctx, 0);
            let req = loop {
                let stamp = port.activity_stamp();
                if let Some(r) = port.cs_requests().first().copied() {
                    break r;
                }
                port.wait_activity(stamp);
            };
            port.reject_cs(req.id).unwrap();
        });
        eng.spawn("client", move |ctx| {
            let port = ViaPort::open(ctx, 1);
            let vi = port.create_vi().unwrap();
            port.connect_request(vi, 0, Discriminator(1)).unwrap();
            assert_eq!(port.connect_wait(vi).unwrap(), ViState::Error);
        });
        eng.run().unwrap();
    }

    /// Paper §3.4: a send posted before the connection exists is *lost*.
    #[test]
    fn unconnected_send_is_discarded() {
        let mut eng = engine(2);
        eng.spawn("n0", move |ctx| {
            let port = ViaPort::open(ctx, 0);
            let vi = port.create_vi().unwrap();
            let mem = port.register(64).unwrap();
            // Never connected: the post "succeeds" but the data vanishes.
            port.post_send(vi, mem, 0, 16, 0).unwrap();
            assert_eq!(port.metrics().counter(nic_metrics::DROPS_UNCONNECTED), 1);
            assert_eq!(
                port.metrics().counter(nic_metrics::MSGS_TX),
                0,
                "nothing hit the wire"
            );
        });
        eng.run().unwrap();
    }

    /// VIA requires a pre-posted receive descriptor; without one the message
    /// is dropped.
    #[test]
    fn arrival_without_recv_descriptor_drops() {
        let mut eng = engine(2);
        let disc = Discriminator(11);
        eng.spawn("tx", move |ctx| {
            let port = ViaPort::open(ctx, 0);
            let vi = port.create_vi().unwrap();
            let mem = port.register(64).unwrap();
            port.connect_peer(vi, 1, disc).unwrap();
            port.connect_wait(vi).unwrap();
            port.post_send(vi, mem, 0, 8, 0).unwrap();
            // Let the message arrive and be dropped.
            port.charge(SimDuration::millis(1));
        });
        eng.spawn("rx", move |ctx| {
            let port = ViaPort::open(ctx, 1);
            let vi = port.create_vi().unwrap();
            port.connect_peer(vi, 0, disc).unwrap();
            port.connect_wait(vi).unwrap();
            // No post_recv — wait out the drop.
            port.charge(SimDuration::millis(1));
            assert_eq!(port.metrics().counter(nic_metrics::DROPS_NO_DESC), 1);
            assert_eq!(port.metrics().counter(nic_metrics::MSGS_RX), 0);
        });
        eng.run().unwrap();
    }

    /// RDMA write lands in the remote region with no remote completion.
    #[test]
    fn rdma_write_is_one_sided() {
        let mut eng = engine(2);
        let disc = Discriminator(21);
        eng.spawn("src", move |ctx| {
            let port = ViaPort::open(ctx, 0);
            let vi = port.create_vi().unwrap();
            let mem = port.register(128).unwrap();
            port.mem_fill(mem, 0, &[0xAB; 64]).unwrap();
            port.connect_peer(vi, 1, disc).unwrap();
            port.connect_wait(vi).unwrap();
            // Remote handle 0 at offset 16, as if advertised via a CTS.
            port.post_rdma_write(vi, mem, 0, 64, MemHandle(0), 16)
                .unwrap();
            // Local RDMA completion arrives on the CQ.
            loop {
                let stamp = port.activity_stamp();
                match port.cq_poll() {
                    Some(c) => {
                        assert_eq!(c.kind, CompletionKind::RdmaWrite);
                        break;
                    }
                    None => {
                        port.wait_activity(stamp);
                    }
                }
            }
        });
        eng.spawn("dst", move |ctx| {
            let port = ViaPort::open(ctx, 1);
            let vi = port.create_vi().unwrap();
            let mem = port.register(128).unwrap();
            assert_eq!(mem, MemHandle(0));
            port.connect_peer(vi, 0, disc).unwrap();
            port.connect_wait(vi).unwrap();
            // No completion will ever arrive; just give the write time.
            port.charge(SimDuration::millis(1));
            let data = port.mem_peek(mem, 16, 64).unwrap();
            assert_eq!(data, vec![0xAB; 64]);
            assert!(port.cq_poll().is_none(), "one-sided: no completion");
        });
        eng.run().unwrap();
    }

    /// Messages posted back-to-back on one VI arrive in order.
    #[test]
    fn in_order_delivery_per_vi() {
        let mut eng = engine(2);
        let disc = Discriminator(31);
        eng.spawn("tx", move |ctx| {
            let port = ViaPort::open(ctx, 0);
            let vi = port.create_vi().unwrap();
            let mem = port.register(1024).unwrap();
            port.connect_peer(vi, 1, disc).unwrap();
            port.connect_wait(vi).unwrap();
            for i in 0..10u8 {
                port.mem_fill(mem, i as usize * 16, &[i; 16]).unwrap();
                port.post_send(vi, mem, i as usize * 16, 16, i as u32)
                    .unwrap();
            }
        });
        eng.spawn("rx", move |ctx| {
            let port = ViaPort::open(ctx, 1);
            let vi = port.create_vi().unwrap();
            let mem = port.register(4096).unwrap();
            for i in 0..10 {
                port.post_recv(vi, mem, i * 32, 32).unwrap();
            }
            port.connect_peer(vi, 0, disc).unwrap();
            port.connect_wait(vi).unwrap();
            let mut next = 0u32;
            while next < 10 {
                let stamp = port.activity_stamp();
                match port.cq_poll() {
                    Some(c) => {
                        assert_eq!(c.kind, CompletionKind::Recv);
                        assert_eq!(c.imm, next, "messages must not be reordered");
                        next += 1;
                    }
                    None => {
                        port.wait_activity(stamp);
                    }
                }
            }
        });
        let (fabric, _) = eng.run().unwrap();
        assert_eq!(fabric.nics[1].metrics.counter(nic_metrics::MSGS_RX), 10);
    }

    /// OOB bootstrap channel delivers with its own latency.
    #[test]
    fn oob_roundtrip() {
        let mut eng = engine(2);
        eng.spawn("a", move |ctx| {
            let port = ViaPort::open(ctx, 0);
            port.oob_send(1, b"addr:0".to_vec());
            let (from, data) = port.oob_recv();
            assert_eq!(from, 1);
            assert_eq!(&data, b"addr:1");
            // OOB is slow (TCP-ish): two hops cost at least 2 * oob latency.
            assert!(port.ctx().now().as_micros_f64() >= 240.0);
        });
        eng.spawn("b", move |ctx| {
            let port = ViaPort::open(ctx, 1);
            let (from, data) = port.oob_recv();
            assert_eq!(from, 0);
            assert_eq!(&data, b"addr:0");
            port.oob_send(0, b"addr:1".to_vec());
        });
        eng.run().unwrap();
    }

    /// Berkeley VIA: adding idle VIs slows an active ping-pong — the
    /// mechanism behind the paper's Figure 1.
    #[test]
    fn berkeley_idle_vis_slow_traffic() {
        let run = |idle_vis: usize| -> u64 {
            let mut eng = fabric_engine(DeviceProfile::berkeley(), 2);
            let disc = Discriminator(77);
            eng.spawn("tx", move |ctx| {
                let port = ViaPort::open(ctx, 0);
                for _ in 0..idle_vis {
                    port.create_vi().unwrap();
                }
                let vi = port.create_vi().unwrap();
                let mem = port.register(256).unwrap();
                port.connect_peer(vi, 1, disc).unwrap();
                port.connect_wait(vi).unwrap();
                let t0 = port.ctx().now();
                for _ in 0..100 {
                    port.post_recv(vi, mem, 128, 64).unwrap();
                    port.post_send(vi, mem, 0, 4, 0).unwrap();
                    loop {
                        let stamp = port.activity_stamp();
                        match port.cq_poll() {
                            Some(c) if c.kind == CompletionKind::Recv => break,
                            Some(_) => {}
                            None => {
                                port.wait_activity(stamp);
                            }
                        }
                    }
                }
                let rtt = port.ctx().now().since(t0);
                port.oob_send(0, rtt.as_nanos().to_le_bytes().to_vec());
            });
            eng.spawn("rx", move |ctx| {
                let port = ViaPort::open(ctx, 1);
                let vi = port.create_vi().unwrap();
                let mem = port.register(256).unwrap();
                port.post_recv(vi, mem, 0, 64).unwrap();
                port.connect_peer(vi, 0, disc).unwrap();
                port.connect_wait(vi).unwrap();
                for _ in 0..100 {
                    loop {
                        let stamp = port.activity_stamp();
                        match port.cq_poll() {
                            Some(c) if c.kind == CompletionKind::Recv => break,
                            Some(_) => {}
                            None => {
                                port.wait_activity(stamp);
                            }
                        }
                    }
                    port.post_recv(vi, mem, 0, 64).unwrap();
                    port.post_send(vi, mem, 128, 4, 0).unwrap();
                }
            });
            let (fabric, _) = eng.run().unwrap();
            let (_, data) = fabric.nics[0].oob.front().cloned().unwrap();
            u64::from_le_bytes(data[..].try_into().unwrap())
        };
        let base = run(0);
        let loaded = run(8);
        assert!(
            loaded > base,
            "idle VIs must slow BVIA traffic: {base} !< {loaded}"
        );
        // 8 extra VIs × 1.4us per message × 100 one-way messages from the tx
        // side alone ⇒ at least ~1.1ms extra.
        assert!(loaded - base > 1_000_000);
    }

    // ------------------------------------------------------------------
    // Fault injection on the connection path
    // ------------------------------------------------------------------

    use crate::fault::{fault_metrics, FaultInjector, FaultProfile};

    /// Drop-only profile used by the retry tests.
    fn drop_profile(seed: u64, drop_prob: f64) -> FaultProfile {
        FaultProfile {
            drop_prob,
            ..FaultProfile::none(seed)
        }
    }

    /// Both initial peer requests are dropped; a single `retry_connect`
    /// retransmission completes the handshake.
    #[test]
    fn dropped_peer_requests_recover_via_retry() {
        // The run draws from the injector in a fixed order: the two
        // create_vi rolls, n0's request, n1's request, n0's retry, then the
        // two Established notifications. Find a seed whose two request
        // packets drop and the next three pass, by replaying the exact draw
        // pattern on a probe injector.
        let wire = SimDuration::micros(12);
        let seed = (0..10_000u64)
            .find(|&s| {
                let mut probe = FaultInjector::new(drop_profile(s, 0.6));
                probe.vi_create_fails(0);
                probe.vi_create_fails(1);
                probe.conn_packet(wire).is_empty()
                    && probe.conn_packet(wire).is_empty()
                    && !probe.conn_packet(wire).is_empty()
                    && !probe.conn_packet(wire).is_empty()
                    && !probe.conn_packet(wire).is_empty()
            })
            .expect("a drop-drop-pass-pass-pass seed exists");
        let mut fabric = Fabric::new(DeviceProfile::clan(), 2);
        fabric.set_faults(drop_profile(seed, 0.6));
        let mut eng = Engine::new(fabric);
        let disc = Discriminator(5);
        eng.spawn("n0", move |ctx| {
            let port = ViaPort::open(ctx, 0);
            let vi = port.create_vi().unwrap();
            port.connect_peer(vi, 1, disc).unwrap();
            // Give the (dropped) handshake ample time, then retransmit.
            port.charge(SimDuration::millis(2));
            assert_eq!(port.vi_state(vi).unwrap(), ViState::Connecting);
            assert!(port.retry_connect(vi).unwrap(), "retry was still needed");
            assert_eq!(port.connect_wait(vi).unwrap(), ViState::Connected);
        });
        eng.spawn("n1", move |ctx| {
            let port = ViaPort::open(ctx, 1);
            let vi = port.create_vi().unwrap();
            port.charge(SimDuration::micros(10));
            port.connect_peer(vi, 0, disc).unwrap();
            assert_eq!(port.connect_wait(vi).unwrap(), ViState::Connected);
        });
        let (fabric, _) = eng.run().unwrap();
        assert_eq!(
            fabric.fault_metrics().counter(fault_metrics::CONN_DROPPED),
            2
        );
        assert_eq!(fabric.nics[0].metrics.counter(nic_metrics::CONN_RETRIES), 1);
        assert_eq!(
            fabric.nics[0]
                .metrics
                .counter(nic_metrics::CONNS_ESTABLISHED),
            1
        );
        assert_eq!(
            fabric.nics[1]
                .metrics
                .counter(nic_metrics::CONNS_ESTABLISHED),
            1
        );
    }

    /// Every connection packet duplicated: the stale-request and
    /// idempotent-Established guards must still count exactly one
    /// establishment per side.
    #[test]
    fn duplicated_packets_establish_exactly_once() {
        let mut fabric = Fabric::new(DeviceProfile::clan(), 2);
        fabric.set_faults(FaultProfile {
            dup_prob: 1.0,
            ..FaultProfile::none(11)
        });
        let mut eng = Engine::new(fabric);
        let disc = Discriminator(21);
        for node in 0..2usize {
            eng.spawn(format!("n{node}"), move |ctx| {
                let port = ViaPort::open(ctx, node);
                let vi = port.create_vi().unwrap();
                port.connect_peer(vi, 1 - node, disc).unwrap();
                assert_eq!(port.connect_wait(vi).unwrap(), ViState::Connected);
                // Linger so late duplicates arrive while we still exist.
                port.charge(SimDuration::millis(5));
            });
        }
        let (fabric, _) = eng.run().unwrap();
        assert!(
            fabric
                .fault_metrics()
                .counter(fault_metrics::CONN_DUPLICATED)
                > 0
        );
        for n in 0..2 {
            assert_eq!(
                fabric.nics[n]
                    .metrics
                    .counter(nic_metrics::CONNS_ESTABLISHED),
                1,
                "duplicates must not double-establish on node {n}"
            );
            assert!(fabric.nics[n].incoming_peer.is_empty());
        }
    }

    /// A transiently failed VI creation succeeds when retried.
    #[test]
    fn transient_vi_creation_failure_is_retryable() {
        let seed = (0..10_000u64)
            .find(|&s| {
                let mut probe = FaultInjector::new(FaultProfile {
                    vi_fail_prob: 0.5,
                    ..FaultProfile::none(s)
                });
                probe.vi_create_fails(0) && !probe.vi_create_fails(0)
            })
            .expect("a fail-then-pass seed exists");
        let mut fabric = Fabric::new(DeviceProfile::clan(), 1);
        fabric.set_faults(FaultProfile {
            vi_fail_prob: 0.5,
            ..FaultProfile::none(seed)
        });
        let mut eng = Engine::new(fabric);
        eng.spawn("n0", move |ctx| {
            let port = ViaPort::open(ctx, 0);
            assert_eq!(port.create_vi().unwrap_err(), ViaError::TransientFailure);
            port.create_vi().expect("second attempt succeeds");
        });
        let (fabric, _) = eng.run().unwrap();
        assert_eq!(
            fabric
                .fault_metrics()
                .counter(fault_metrics::VI_CREATE_FAILURES),
            1
        );
        assert_eq!(fabric.nics[0].metrics.counter(nic_metrics::VIS_CREATED), 1);
    }
}
