//! The user-facing MPI handle.
//!
//! One [`Mpi`] value is passed to each rank's closure by
//! [`crate::universe::Universe::run`]. The API is a Rust-idiomatic subset of
//! MPI 1.2: blocking and nonblocking point-to-point in all four send modes,
//! wildcard receives, probe, and (in [`crate::collective`]) the collective
//! operations the paper benchmarks.

use crate::config::{MpiConfig, CALL_OVERHEAD, FLOPS_PER_US};
use crate::device::{Device, Payload};
use crate::request::{MpiError, Request, SendMode, Status};
use std::cell::RefCell;
use viampi_sim::{SimDuration, SimTime};
use viampi_via::fabric::Bytes;

/// Wildcard for the source rank (`MPI_ANY_SOURCE`).
pub const ANY_SOURCE: Option<usize> = None;
/// Wildcard for the tag (`MPI_ANY_TAG`).
pub const ANY_TAG: Option<i32> = None;

/// Per-rank MPI handle (not shareable across simulated processes).
pub struct Mpi {
    dev: RefCell<Device>,
    /// Next context id for communicator splits. Contexts 0 (point-to-point)
    /// and 1 (world collectives) are reserved; every `comm_split` call
    /// advances this identically on all ranks.
    next_context: std::cell::Cell<u16>,
}

impl Mpi {
    /// Wrap an initialized device. Used by the universe runner.
    pub(crate) fn new(dev: Device) -> Self {
        Mpi {
            dev: RefCell::new(dev),
            next_context: std::cell::Cell::new(8),
        }
    }

    /// Allocate the next communicator context id (identical across ranks
    /// because `comm_split` is collective).
    pub(crate) fn alloc_context(&self) -> u16 {
        let c = self.next_context.get();
        self.next_context
            .set(c.checked_add(1).expect("context ids exhausted"));
        c
    }

    /// This process's rank in `COMM_WORLD`.
    pub fn rank(&self) -> usize {
        self.dev.borrow().rank
    }

    /// Number of processes in `COMM_WORLD`.
    pub fn size(&self) -> usize {
        self.dev.borrow().size
    }

    /// `MPI_Wtime`: virtual seconds since simulation start.
    pub fn wtime(&self) -> f64 {
        self.now().as_secs_f64()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.dev.borrow().port.ctx().now()
    }

    /// Run configuration.
    pub fn config(&self) -> MpiConfig {
        self.dev.borrow().cfg.clone()
    }

    /// Charge virtual compute time for `flops` floating-point operations at
    /// the modelled host rate ([`FLOPS_PER_US`]).
    pub fn compute(&self, flops: f64) {
        self.advance(SimDuration::micros_f64(flops / FLOPS_PER_US));
    }

    /// Charge an explicit virtual duration.
    pub fn advance(&self, d: SimDuration) {
        self.dev.borrow().port.ctx().advance(d);
    }

    /// Declare which simulated producer thread issues the following MPI
    /// calls (the MPI+threads workload axis). Thread `t` sends on stripe
    /// `t % vis_per_peer` of each peer's VI set, and consecutive posts to
    /// one VI from different threads pay the device's shared-VI lock-convoy
    /// charge. The default thread 0 with the default single VI per pair is
    /// a no-op, reproducing the paper's single-threaded protocol exactly.
    pub fn set_thread(&self, t: usize) {
        self.dev.borrow_mut().set_thread(t);
    }

    fn charge_call(&self) {
        let mut dev = self.dev.borrow_mut();
        dev.maybe_noise();
        dev.port.charge(CALL_OVERHEAD);
    }

    // ---- nonblocking point-to-point ----------------------------------------

    /// `MPI_Isend` (standard mode).
    pub fn isend(&self, buf: &[u8], dst: usize, tag: i32) -> Request {
        self.isend_mode(buf, dst, tag, SendMode::Standard)
    }

    /// `MPI_Issend` (synchronous mode).
    pub fn issend(&self, buf: &[u8], dst: usize, tag: i32) -> Request {
        self.isend_mode(buf, dst, tag, SendMode::Synchronous)
    }

    /// `MPI_Ibsend` (buffered mode).
    pub fn ibsend(&self, buf: &[u8], dst: usize, tag: i32) -> Request {
        self.isend_mode(buf, dst, tag, SendMode::Buffered)
    }

    /// `MPI_Irsend` (ready mode).
    pub fn irsend(&self, buf: &[u8], dst: usize, tag: i32) -> Request {
        self.isend_mode(buf, dst, tag, SendMode::Ready)
    }

    /// Nonblocking send in an explicit mode, on the point-to-point context.
    pub fn isend_mode(&self, buf: &[u8], dst: usize, tag: i32, mode: SendMode) -> Request {
        assert!(tag >= 0, "user tags must be non-negative");
        self.charge_call();
        let id = self
            .dev
            .borrow_mut()
            .post_send_msg(dst, 0, tag, Payload::Borrowed(buf), mode);
        Request(id)
    }

    /// Internal: send on an arbitrary context (collectives use context 1).
    /// An owned `buf` is handed over: a rendezvous registers it in place.
    pub(crate) fn isend_ctx(
        &self,
        buf: Payload<'_>,
        dst: usize,
        context: u16,
        tag: i32,
    ) -> Request {
        self.charge_call();
        let id = self
            .dev
            .borrow_mut()
            .post_send_msg(dst, context, tag, buf, SendMode::Standard);
        Request(id)
    }

    /// `MPI_Irecv`. `src`/`tag` accept [`ANY_SOURCE`] / [`ANY_TAG`].
    pub fn irecv(&self, src: Option<usize>, tag: Option<i32>) -> Request {
        self.charge_call();
        let id = self.dev.borrow_mut().post_recv_msg(src, 0, tag);
        Request(id)
    }

    /// Internal: receive on an arbitrary context.
    pub(crate) fn irecv_ctx(&self, src: Option<usize>, context: u16, tag: Option<i32>) -> Request {
        self.charge_call();
        let id = self.dev.borrow_mut().post_recv_msg(src, context, tag);
        Request(id)
    }

    // ---- completion ----------------------------------------------------------

    /// `MPI_Wait`: block (with the configured wait policy) until `req`
    /// completes; returns the received payload (for receives) and status.
    pub fn wait(&self, req: Request) -> (Option<Vec<u8>>, Status) {
        let (data, status) = self.wait_bytes(req);
        (data.map(Bytes::into_vec), status)
    }

    /// Internal: [`Mpi::wait`] that returns a received payload as it
    /// landed, by reference. [`Mpi::wait`] takes it out as a `Vec`: a
    /// uniquely held full-range buffer gives up its allocation, and a
    /// window (an eager payload past its header) is copied once there —
    /// the user-buffer copy already charged.
    pub(crate) fn wait_bytes(&self, req: Request) -> (Option<Bytes>, Status) {
        self.charge_call();
        let mut dev = self.dev.borrow_mut();
        dev.wait_until(|d| d.req_done(req.0));
        dev.take_req(req.0)
    }

    /// `MPI_Wait` with error reporting: like [`Mpi::wait`], but a request
    /// bound to an unreachable peer (connection retry budget exhausted
    /// under fault injection) returns `Err` instead of panicking.
    pub fn wait_checked(&self, req: Request) -> Result<(Option<Vec<u8>>, Status), MpiError> {
        self.charge_call();
        let mut dev = self.dev.borrow_mut();
        dev.wait_until(|d| d.req_done(req.0));
        let (data, status) = dev.take_req_checked(req.0)?;
        Ok((data.map(Bytes::into_vec), status))
    }

    /// `MPI_Test`: non-blocking completion check (drives progress once).
    pub fn test(&self, req: Request) -> bool {
        self.charge_call();
        let mut dev = self.dev.borrow_mut();
        dev.check_once();
        dev.req_done(req.0)
    }

    /// `MPI_Waitall`.
    pub fn waitall(&self, reqs: &[Request]) -> Vec<(Option<Vec<u8>>, Status)> {
        self.charge_call();
        let mut dev = self.dev.borrow_mut();
        dev.wait_until(|d| reqs.iter().all(|r| d.req_done(r.0)));
        reqs.iter()
            .map(|r| {
                let (data, status) = dev.take_req(r.0);
                (data.map(Bytes::into_vec), status)
            })
            .collect()
    }

    // ---- blocking convenience -------------------------------------------------

    /// `MPI_Send` (standard mode, blocking).
    pub fn send(&self, buf: &[u8], dst: usize, tag: i32) {
        let r = self.isend(buf, dst, tag);
        self.wait(r);
    }

    /// `MPI_Ssend`.
    pub fn ssend(&self, buf: &[u8], dst: usize, tag: i32) {
        let r = self.issend(buf, dst, tag);
        self.wait(r);
    }

    /// `MPI_Bsend`.
    pub fn bsend(&self, buf: &[u8], dst: usize, tag: i32) {
        let r = self.ibsend(buf, dst, tag);
        self.wait(r);
    }

    /// `MPI_Rsend`.
    pub fn rsend(&self, buf: &[u8], dst: usize, tag: i32) {
        let r = self.irsend(buf, dst, tag);
        self.wait(r);
    }

    /// `MPI_Recv`: blocking receive, returns the payload and status.
    pub fn recv(&self, src: Option<usize>, tag: Option<i32>) -> (Vec<u8>, Status) {
        let r = self.irecv(src, tag);
        let (data, status) = self.wait(r);
        (data.expect("receive produces data"), status)
    }

    /// `MPI_Sendrecv`: simultaneous send and receive (deadlock-free pairwise
    /// exchange building block).
    pub fn sendrecv(
        &self,
        sbuf: &[u8],
        dst: usize,
        stag: i32,
        src: Option<usize>,
        rtag: Option<i32>,
    ) -> (Vec<u8>, Status) {
        let rr = self.irecv(src, rtag);
        let sr = self.isend(sbuf, dst, stag);
        let (data, status) = self.wait(rr);
        self.wait(sr);
        (data.expect("receive produces data"), status)
    }

    /// Internal sendrecv on a context (collectives).
    pub(crate) fn sendrecv_ctx(
        &self,
        sbuf: &[u8],
        dst: usize,
        context: u16,
        stag: i32,
        src: usize,
        rtag: i32,
    ) -> Vec<u8> {
        let rr = self.irecv_ctx(Some(src), context, Some(rtag));
        let sr = self.isend_ctx(sbuf.into(), dst, context, stag);
        let (data, _) = self.wait(rr);
        self.wait(sr);
        data.expect("receive produces data")
    }

    // ---- probe -----------------------------------------------------------------

    /// `MPI_Iprobe`: check for a matching unexpected message without
    /// receiving it.
    pub fn iprobe(&self, src: Option<usize>, tag: Option<i32>) -> Option<Status> {
        self.charge_call();
        let mut dev = self.dev.borrow_mut();
        dev.check_once();
        dev.matcher
            .probe(0, src.map(|s| s as u32), tag)
            .map(|u| Status {
                source: u.src as usize,
                tag: u.tag,
                len: match &u.body {
                    crate::matching::UnexpectedBody::Eager(d) => d.len(),
                    crate::matching::UnexpectedBody::Rts { len, .. } => *len,
                },
            })
    }

    /// `MPI_Probe`: block until a matching message is available.
    pub fn probe(&self, src: Option<usize>, tag: Option<i32>) -> Status {
        loop {
            if let Some(s) = self.iprobe(src, tag) {
                return s;
            }
            let mut dev = self.dev.borrow_mut();
            let srcu = src.map(|s| s as u32);
            dev.wait_until(|d| d.matcher.probe(0, srcu, tag).is_some());
        }
    }

    // ---- introspection -----------------------------------------------------------

    /// Flat metrics snapshot of this rank (`mpi.*` + `nic.*` entries).
    pub fn metrics_snapshot(&self) -> viampi_sim::MetricsSnapshot {
        self.dev.borrow().metrics_snapshot()
    }

    /// Live VI endpoints on this rank's NIC.
    pub fn live_vis(&self) -> usize {
        self.dev.borrow().port.live_vis()
    }

    /// Number of VIs that actually carried at least one message.
    pub fn used_vis(&self) -> usize {
        self.dev
            .borrow()
            .port
            .vi_usage()
            .iter()
            .filter(|(_, s, r)| s + r > 0)
            .count()
    }

    /// Channels currently mid-handshake. Harnesses (simcheck) poll this to
    /// quiesce a rank before `MPI_Finalize`, so retransmissions triggered by
    /// injected faults can complete while the rank still drives progress.
    pub fn pending_connections(&self) -> usize {
        self.dev.borrow().pending_connections()
    }

    /// Count a collective operation (called at the top of every collective
    /// algorithm). The returned guard closes the collective's span when it
    /// drops — bind it for the duration of the operation.
    pub(crate) fn count_collective(&self, op: &'static str) -> CollectiveGuard<'_> {
        let mut dev = self.dev.borrow_mut();
        dev.metrics.inc(crate::device::mpi_metrics::COLLECTIVES);
        let begin = dev.port.ctx().now();
        drop(dev);
        CollectiveGuard {
            mpi: self,
            op,
            begin,
        }
    }

    /// Access the device (crate-internal plumbing & tests).
    pub(crate) fn device(&self) -> &RefCell<Device> {
        &self.dev
    }

    /// Run one pass of the progress engine (exposed for tests and for
    /// latency-hiding call sites in workloads).
    pub fn progress(&self) {
        self.dev.borrow_mut().check_once();
    }

    /// Take the recorded protocol trace (empty unless `MpiConfig::trace`).
    pub fn take_trace(&self) -> Vec<crate::trace::TraceEvent> {
        std::mem::take(&mut self.dev.borrow_mut().trace)
    }

    /// Take the recorded spans (empty unless `MpiConfig::trace`).
    pub fn take_spans(&self) -> Vec<crate::trace::Span> {
        std::mem::take(&mut self.dev.borrow_mut().spans)
    }
}

/// Open-collective marker returned by [`Mpi::count_collective`]; closes the
/// collective's span (when tracing) as it goes out of scope, so early
/// returns in the algorithms still end the span.
pub(crate) struct CollectiveGuard<'a> {
    mpi: &'a Mpi,
    op: &'static str,
    begin: SimTime,
}

impl Drop for CollectiveGuard<'_> {
    fn drop(&mut self) {
        let mut dev = self.mpi.dev.borrow_mut();
        if dev.cfg.trace {
            let end = dev.port.ctx().now();
            dev.spans.push(crate::trace::Span {
                begin: self.begin,
                end,
                kind: crate::trace::SpanKind::Collective { op: self.op },
            });
        }
    }
}
