//! The connection manager: the paper's per-peer state machine (§3.3–§3.5,
//! §4), one small machine per `(peer, stripe)` channel.
//!
//! Every change of a channel's connection state goes through `step`:
//!
//! | state \ event | `Wanted` | `NoVi` | `Up` | `Timeout` < budget | `Timeout` ≥ budget | `Send` |
//! |---|---|---|---|---|---|---|
//! | `Unconnected` | → `Connecting`, *Provision* | – | – | – | – | *Defer* |
//! | `Connecting` | – | → `Failed`, *Fail* | → `Connected`, *Drain* | *Resend* | → `Failed`, *Fail* | *Defer* |
//! | `Connected` | – | – | – | – | – | *Transmit* |
//! | `Failed` | – | – | – | – | – | *Reject* |
//!
//! (– is a stale or repeated event: no transition, nothing to do.) The
//! `impl Device` block below feeds the machine from the three places the
//! paper names — `MPI_Init` ([`Device::init`], per [`ConnMode`]), the first
//! use of a peer by a send or a receive (`Device::admit_send`,
//! `Device::recv_first_use`), and the progress loop
//! (`Device::conn_poll`: incoming peer requests, promotion, retry) — and
//! carries out the action the machine returns. The data path lives in
//! [`crate::device`] and never assigns a connection state.

use crate::config::{ConnMode, CONN_RETRY_TIMEOUT_US};
use crate::device::{mpi_metrics, Device};
use crate::trace::{Span, SpanKind, TraceKind};
use viampi_sim::{SimDuration, SimTime};
use viampi_via::{nic_metrics, Discriminator, ViId, ViState, ViaError, ViaPort};

/// Channel connection state (mirrors the per-peer FSM of §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChanState {
    /// No VI exists for this peer yet.
    #[default]
    Unconnected,
    /// VI created, buffers posted, connection request issued.
    Connecting,
    /// Fully connected; the FIFO has been drained into the VI.
    Connected,
    /// The connection retry budget was exhausted (fault injection only);
    /// queued and future requests toward this peer fail.
    Failed,
}

impl ChanState {
    /// A state a fault-tolerant run may legally end in: the pair never
    /// talked, or its connection is up. (`Connecting` at the end is a lost
    /// handshake; `Failed` is a retry budget the injected faults exceeded.)
    pub fn is_settled(self) -> bool {
        matches!(self, ChanState::Unconnected | ChanState::Connected)
    }
}

/// What can happen to a channel's connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ConnEvent {
    /// First use: a send, a directed or `MPI_ANY_SOURCE` receive, `MPI_Init`
    /// of a static mode, or a peer's connection request names this channel.
    Wanted,
    /// The VI could not be created within the transient-failure budget.
    NoVi,
    /// The VI reached the VIA `Connected` state.
    Up,
    /// The retry deadline passed with `attempts` retransmissions issued.
    Timeout { attempts: u32, budget: u32 },
    /// Send-side query: may a wire message go out, must it wait, or fail?
    Send,
}

/// What the driver must do after an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ConnAction {
    /// Nothing: the event was stale or repeated.
    None,
    /// Create the VI, pre-post its eager window, issue the connect request.
    Provision,
    /// The connection is up: drain the pre-posted send FIFO in order (§3.4).
    Drain,
    /// Retransmit the connect request and back off.
    Resend,
    /// Drop the FIFO and fail every live request bound to the peer.
    Fail,
    /// Answer to `Send`: the message may go out (FIFO order permitting).
    Transmit,
    /// Answer to `Send`: park the message in the pre-posted FIFO.
    Defer,
    /// Answer to `Send`: the peer is unreachable, fail the request.
    Reject,
}

/// The transition function: pure, total, and the only place a connection
/// state is decided. Every pair is listed — a new state or event does not
/// compile until it is placed in the table.
pub(crate) fn step(state: ChanState, event: ConnEvent) -> (ChanState, ConnAction) {
    use ChanState::{Connected, Connecting, Failed, Unconnected};
    use {ConnAction as A, ConnEvent as E};
    match (state, event) {
        (Unconnected, E::Wanted) => (Connecting, A::Provision),
        (Connecting, E::NoVi) => (Failed, A::Fail),
        (Connecting, E::Up) => (Connected, A::Drain),
        (Connecting, E::Timeout { attempts, budget }) if attempts >= budget => (Failed, A::Fail),
        (Connecting, E::Timeout { .. }) => (Connecting, A::Resend),
        (Unconnected | Connecting, E::Send) => (state, A::Defer),
        (Connected, E::Send) => (Connected, A::Transmit),
        (Failed, E::Send) => (Failed, A::Reject),
        // Stale or repeated events. `Connected` and `Failed` are absorbing.
        (Unconnected, E::NoVi | E::Up | E::Timeout { .. })
        | (Connecting, E::Wanted)
        | (Connected | Failed, E::Wanted | E::NoVi | E::Up | E::Timeout { .. }) => (state, A::None),
    }
}

/// The connection half of a channel.
#[derive(Debug, Default)]
pub(crate) struct Conn {
    state: ChanState,
    /// The VI, once created.
    vi: Option<ViId>,
    /// Virtual time at which the pending connect is retried (armed only
    /// while `Connecting` and only under fault injection).
    deadline: SimTime,
    /// Retransmissions issued for the pending connect.
    attempts: u32,
    /// When the channel was provisioned (start of the connection-setup span).
    begin: SimTime,
}

impl Conn {
    /// Apply `event`: the only assignment to `state` anywhere.
    fn on(&mut self, event: ConnEvent) -> ConnAction {
        let (next, action) = step(self.state, event);
        self.state = next;
        action
    }

    pub(crate) fn state(&self) -> ChanState {
        self.state
    }

    pub(crate) fn is_connected(&self) -> bool {
        self.state == ChanState::Connected
    }

    pub(crate) fn vi(&self) -> Option<ViId> {
        self.vi
    }
}

/// Discriminator for one stripe of a pair: the two ranks, low first, with
/// the stripe index in bits 48+. Stripe 0 is the classic pair discriminator,
/// so single-VI runs are wire-identical with older revisions.
fn pair_disc(a: usize, b: usize, stripe: usize) -> Discriminator {
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    Discriminator(((stripe as u64) << 48) | ((lo as u64) << 32) | hi as u64)
}

/// Recover the stripe index a peer encoded in its connect discriminator.
fn disc_stripe(d: Discriminator) -> usize {
    (d.0 >> 48) as usize
}

impl Device {
    // ---- MPI_Init -------------------------------------------------------

    /// The `MPID_Init` analogue: out-of-band bootstrap, then connection
    /// setup according to the configured [`ConnMode`].
    pub fn init(&mut self) {
        let t0 = self.port.ctx().now();
        self.metrics
            .gauge_set(mpi_metrics::ENDPOINT_VIS_PER_PEER, self.nstripes() as u64);
        self.bootstrap_exchange();
        match self.cfg.conn {
            ConnMode::OnDemand => {} // the whole point: no connections here
            ConnMode::StaticPeerToPeer => self.wire_peer_to_peer(),
            ConnMode::StaticClientServer => self.wire_client_server(),
        }
        self.bootstrap_sync();
        let init_time = self.port.ctx().now().since(t0);
        self.metrics
            .gauge_set(mpi_metrics::INIT_TIME_NS, init_time.as_nanos());
        self.metrics.gauge_set(
            mpi_metrics::CONNS_AT_INIT,
            self.port.metrics().counter(nic_metrics::CONNS_ESTABLISHED),
        );
    }

    /// Static peer-to-peer: issue every connect concurrently, then progress
    /// until the process network is fully connected.
    fn wire_peer_to_peer(&mut self) {
        let rank = self.rank;
        for peer in (0..self.size).filter(|&p| p != rank) {
            for stripe in 0..self.nstripes() {
                self.conn_event(self.slot_of(peer, stripe), ConnEvent::Wanted);
            }
        }
        while self.connecting().next().is_some() {
            let stamp = self.port.activity_stamp();
            if !self.conn_poll() {
                self.conn_wait(stamp);
            }
        }
        if let Some(c) = self
            .channels
            .iter()
            .find(|c| c.conn.state == ChanState::Failed)
        {
            panic!(
                "static peer-to-peer init: connection to rank {} failed \
                 after exhausting the retry budget",
                c.peer
            );
        }
    }

    /// Static client/server, serialized exactly as MVICH's implementation:
    /// every rank walks the global pair list `(i, j), i < j` in the same
    /// order; the lower rank acts as server, the higher as client, and each
    /// pair completes before the next is attempted (paper §5.6).
    ///
    /// Every pair not involving this rank is a pure no-op for it, so each
    /// rank only visits its own pairs, in the order the global walk does:
    /// `(0, rank) .. (rank-1, rank)` as client, then `(rank, rank+1) ..
    /// (rank, size-1)` as server. The global serialization is enforced by
    /// the blocking handshakes, not by walking the O(N²) list. With multi-VI
    /// endpoints every stripe of a pair is brought up in stripe order, each
    /// serialized like the pair itself.
    fn wire_client_server(&mut self) {
        for server in 0..self.rank {
            for stripe in 0..self.nstripes() {
                let disc = pair_disc(server, self.rank, stripe);
                self.cs_handshake(server, stripe, |port, vi| {
                    port.connect_request(vi, server, disc)
                        .expect("issue client request");
                });
            }
        }
        for client in (self.rank + 1)..self.size {
            // The client issues its stripe requests strictly in order (each
            // blocks in its handshake), so matching the next request from
            // that client per stripe preserves the stripe pairing.
            for stripe in 0..self.nstripes() {
                let req = loop {
                    let stamp = self.port.activity_stamp();
                    let pending = self.port.cs_requests();
                    if let Some(r) = pending.iter().find(|r| r.from == client) {
                        break *r;
                    }
                    self.port.wait_activity(stamp);
                };
                self.cs_handshake(client, stripe, |port, vi| {
                    port.accept_cs(req.id, vi).expect("accept pending request");
                });
            }
        }
    }

    /// One blocking client/server handshake: provision the channel, `open`
    /// it (the client's request or the server's accept), wait for the VI.
    fn cs_handshake(&mut self, peer: usize, stripe: usize, open: impl FnOnce(&ViaPort, ViId)) {
        let slot = self.slot_of(peer, stripe);
        let action = self.conn_on(slot, ConnEvent::Wanted);
        debug_assert_eq!(action, ConnAction::Provision);
        let vi = self
            .provision(slot)
            .unwrap_or_else(|e| panic!("provision channel to rank {peer}: {e}"));
        open(&self.port, vi);
        let st = self.port.connect_wait(vi).expect("valid VI");
        assert_eq!(st, ViState::Connected);
        self.conn_event(slot, ConnEvent::Up);
    }

    // ---- first use (§3.4, §3.5) ----------------------------------------

    /// Send-side entry, the `MPID_IsendContig` point of §3.4: connect on
    /// first use, then say whether the message may go out (`Transmit`),
    /// must wait in the pre-posted FIFO (`Defer`), or fails (`Reject`).
    pub(crate) fn admit_send(&mut self, slot: usize) -> ConnAction {
        if self.channels[slot].conn.state == ChanState::Unconnected {
            assert!(
                self.cfg.conn == ConnMode::OnDemand,
                "static connection mode but channel to {} unconnected",
                self.channels[slot].peer
            );
            self.conn_event(slot, ConnEvent::Wanted);
        }
        self.conn_on(slot, ConnEvent::Send)
    }

    /// Receive-side entry, the `MPID_VIA_Irecv` point of §3.5: under
    /// on-demand management a directed receive wants its source and an
    /// `MPI_ANY_SOURCE` receive (`src == None`) wants **every** peer, on the
    /// calling thread's stripe — the stripe a symmetric peer thread sends
    /// on. Returns false when the receive names an unreachable peer.
    pub(crate) fn recv_first_use(&mut self, src: Option<usize>) -> bool {
        let (rank, stripe) = (self.rank, self.send_stripe());
        if self.cfg.conn == ConnMode::OnDemand {
            let wanted = src.map_or(0..self.size, |s| s..s + 1);
            for peer in wanted.filter(|&p| p != rank) {
                self.conn_event(self.slot_of(peer, stripe), ConnEvent::Wanted);
            }
        }
        !src.is_some_and(|s| {
            s != rank && self.channels[self.slot_of(s, stripe)].conn.state == ChanState::Failed
        })
    }

    // ---- the progress loop (§3.3) ----------------------------------------

    /// Connection progress: answer incoming peer requests (on-demand),
    /// promote `Connecting` channels whose VI reached `Connected`, and —
    /// under fault injection — retransmit connects whose deadline passed,
    /// failing the channel once the retry budget is spent. Returns true if
    /// anything moved.
    pub(crate) fn conn_poll(&mut self) -> bool {
        let mut progress = false;
        // Static worlds never receive a peer request after `MPI_Init`; not
        // polling for one keeps their progress passes free of a world access.
        if self.cfg.conn == ConnMode::OnDemand {
            for req in self.port.peer_requests() {
                // The requester encodes its stripe in the discriminator;
                // answer on the same stripe so the pairing lines up.
                let stripe = disc_stripe(req.disc);
                if stripe < self.nstripes() {
                    let slot = self.slot_of(req.from, stripe);
                    progress |= self.conn_event(slot, ConnEvent::Wanted) != ConnAction::None;
                }
            }
        }
        if !self.conn_dirty {
            return progress;
        }
        self.metrics.inc(mpi_metrics::TABLE_WALKS);
        // Collected after the pass above so channels it just set up are
        // promoted this round.
        let connecting: Vec<usize> = self.connecting().collect();
        self.conn_dirty = !connecting.is_empty();
        for slot in connecting {
            let conn = &self.channels[slot].conn;
            let (vi, deadline, attempts) = (conn.vi.unwrap(), conn.deadline, conn.attempts);
            // The promotion check comes first so a connection that completed
            // just before its deadline never retries.
            let event = if self.port.vi_state(vi) == Ok(ViState::Connected) {
                ConnEvent::Up
            } else if self.retries_armed() && self.port.ctx().now() >= deadline {
                let budget = self.cfg.conn_retry_max;
                ConnEvent::Timeout { attempts, budget }
            } else {
                continue;
            };
            self.conn_event(slot, event);
            progress = true;
        }
        progress
    }

    /// Block for NIC activity, but — when a connection retry is pending —
    /// also schedule a timer at its deadline so a rank whose connect
    /// packets were all dropped still wakes up to retransmit.
    pub(crate) fn conn_wait(&mut self, stamp: u64) {
        let earliest = if self.retries_armed() {
            let deadlines = self.connecting().map(|s| self.channels[s].conn.deadline);
            deadlines.min()
        } else {
            None
        };
        let Some(deadline) = earliest else {
            self.port.wait_activity(stamp);
            return;
        };
        let now = self.port.ctx().now();
        let covered = self
            .armed_conn_timer
            .is_some_and(|t| t > now && t <= deadline);
        if !covered {
            let delay = deadline.since(now); // saturates at zero
            self.port.schedule_timer(delay);
            self.armed_conn_timer = Some(now + delay);
        }
        let t = self.port.timer_stamp();
        self.port.wait_activity_or_timer(stamp, t);
    }

    /// Channels currently mid-handshake.
    pub(crate) fn pending_connections(&self) -> usize {
        self.connecting().count()
    }

    /// Slots of the `Connecting` channels, ascending.
    fn connecting(&self) -> impl Iterator<Item = usize> + '_ {
        self.channels
            .iter_entries()
            .filter(|(_, c)| c.conn.state == ChanState::Connecting)
            .map(|(slot, _)| slot)
    }

    /// True when the retry machinery is armed. Gated on fault injection so
    /// fault-free runs schedule no extra timer events.
    fn retries_armed(&self) -> bool {
        self.cfg.faults.is_some()
    }

    // ---- the machine's driver -------------------------------------------

    /// Feed `event` to the machine of `slot`: the only caller of
    /// [`Conn::on`], so the only place a channel can become `Connecting` —
    /// which is what `conn_dirty` tells the progress loop to look for.
    fn conn_on(&mut self, slot: usize, event: ConnEvent) -> ConnAction {
        let conn = &mut self.channels[slot].conn;
        let action = conn.on(event);
        self.conn_dirty |= conn.state == ChanState::Connecting;
        action
    }

    /// Feed `event` to the machine of `slot` and carry out what it asks.
    fn conn_event(&mut self, slot: usize, event: ConnEvent) -> ConnAction {
        let action = self.conn_on(slot, event);
        match action {
            ConnAction::Provision => self.issue_peer_connect(slot),
            ConnAction::Drain => self.promote(slot),
            ConnAction::Resend => self.resend(slot),
            ConnAction::Fail => self.give_up(slot),
            ConnAction::None | ConnAction::Transmit | ConnAction::Defer | ConnAction::Reject => {}
        }
        action
    }

    /// Create the VI of `slot` and hand it to the data path for its buffer
    /// pools and pre-posted receive window — which must be in place *before*
    /// the connection completes or early arrivals would be dropped. Shared
    /// by all three managers. Transient VI-creation failures (fault
    /// injection) are retried up to the configured budget; only an
    /// exhausted budget surfaces as an error.
    fn provision(&mut self, slot: usize) -> Result<ViId, ViaError> {
        let (peer, stripe) = (self.channels[slot].peer, self.channels[slot].stripe);
        let mut attempt = 0u32;
        let vi = loop {
            match self.port.create_vi() {
                Ok(vi) => break vi,
                Err(ViaError::TransientFailure) => {
                    attempt += 1;
                    self.metrics.inc(mpi_metrics::CONN_RETRIES);
                    self.metrics
                        .gauge_max(mpi_metrics::CONN_RETRY_DEPTH_MAX, attempt as u64);
                    self.trace(TraceKind::ConnRetry { peer, attempt });
                    if attempt > self.cfg.conn_retry_max {
                        return Err(ViaError::TransientFailure);
                    }
                }
                Err(e) => panic!("create VI for peer {peer}: {e}"),
            }
        };
        self.attach_pools(slot, vi);
        let conn = &mut self.channels[slot].conn;
        conn.vi = Some(vi);
        conn.begin = self.port.ctx().now();
        if stripe > 0 {
            self.metrics.inc(mpi_metrics::ENDPOINT_STRIPE_SETUPS);
        }
        Ok(vi)
    }

    /// `Provision`, peer-to-peer flavour (on-demand and static p2p): create
    /// the channel and issue the connect request.
    fn issue_peer_connect(&mut self, slot: usize) {
        let (peer, stripe) = (self.channels[slot].peer, self.channels[slot].stripe);
        let Ok(vi) = self.provision(slot) else {
            self.conn_event(slot, ConnEvent::NoVi);
            return;
        };
        self.port
            .connect_peer(vi, peer, pair_disc(self.rank, peer, stripe))
            .expect("issue peer connect");
        if self.retries_armed() {
            self.channels[slot].conn.deadline =
                self.port.ctx().now() + SimDuration::micros(CONN_RETRY_TIMEOUT_US);
        }
        self.trace(TraceKind::ConnIssued { peer });
    }

    /// `Drain`: the channel is connected; record it and drain its
    /// pre-posted send FIFO in order.
    fn promote(&mut self, slot: usize) {
        let ch = &self.channels[slot];
        let (peer, deferred, begin) = (ch.peer, ch.outq.len(), ch.conn.begin);
        self.trace(TraceKind::ConnEstablished { peer, deferred });
        if self.cfg.trace {
            self.spans.push(Span {
                begin,
                end: self.port.ctx().now(),
                kind: SpanKind::ConnSetup { peer },
            });
        }
        self.try_drain(slot);
    }

    /// `Resend`: retransmit the connect and double the timeout.
    fn resend(&mut self, slot: usize) {
        let peer = self.channels[slot].peer;
        let conn = &mut self.channels[slot].conn;
        conn.attempts += 1;
        let (vi, attempt) = (conn.vi.unwrap(), conn.attempts);
        self.metrics
            .gauge_max(mpi_metrics::CONN_RETRY_DEPTH_MAX, attempt as u64);
        match self.port.retry_connect(vi) {
            Ok(true) => {
                self.metrics.inc(mpi_metrics::CONN_RETRIES);
                self.trace(TraceKind::ConnRetry { peer, attempt });
            }
            // Already connected (or no longer retryable): the next pass
            // promotes the channel.
            Ok(false) => {}
            Err(e) => panic!("retry connect to rank {peer}: {e}"),
        }
        let backoff =
            SimDuration::micros(CONN_RETRY_TIMEOUT_US).saturating_mul(1u64 << attempt.min(20));
        self.channels[slot].conn.deadline = self.port.ctx().now() + backoff;
    }

    /// `Fail`: give up on the connection — the clean error path an
    /// exhausted retry budget must take instead of hanging `finalize`.
    fn give_up(&mut self, slot: usize) {
        let peer = self.channels[slot].peer;
        let attempts = self.channels[slot].conn.attempts;
        self.metrics.inc(mpi_metrics::CONN_FAILURES);
        self.trace(TraceKind::ConnFailed { peer, attempts });
        self.fail_requests(slot);
    }
}

#[cfg(test)]
mod tests {
    use super::ChanState::{Connected, Connecting, Failed, Unconnected};
    use super::{step, ChanState, ConnAction as A, ConnEvent as E};

    const STATES: [ChanState; 4] = [Unconnected, Connecting, Connected, Failed];

    /// Every event, with `Timeout` below, at and above its budget.
    fn events() -> Vec<E> {
        let timeout = |attempts| E::Timeout {
            attempts,
            budget: 3,
        };
        let timeouts = [0, 2, 3, 4].map(timeout);
        [E::Wanted, E::NoVi, E::Up, E::Send]
            .into_iter()
            .chain(timeouts)
            .collect()
    }

    /// The table of the module header: the listed transitions, by pair.
    /// Everything absent from it must be a no-op.
    fn listed(state: ChanState, event: E) -> Option<(ChanState, A)> {
        Some(match (state, event) {
            (Unconnected, E::Wanted) => (Connecting, A::Provision),
            (Connecting, E::NoVi) => (Failed, A::Fail),
            (Connecting, E::Up) => (Connected, A::Drain),
            (Connecting, E::Timeout { attempts, budget }) => {
                if attempts < budget {
                    (Connecting, A::Resend)
                } else {
                    (Failed, A::Fail)
                }
            }
            (Unconnected | Connecting, E::Send) => (state, A::Defer),
            (Connected, E::Send) => (Connected, A::Transmit),
            (Failed, E::Send) => (Failed, A::Reject),
            _ => return None,
        })
    }

    #[test]
    fn the_table_is_total_and_matches_the_header() {
        let mut transitions = 0;
        for state in STATES {
            for event in events() {
                // No pair panics; each is a listed transition or a no-op.
                let got = step(state, event);
                let want = listed(state, event).unwrap_or((state, A::None));
                assert_eq!(got, want, "{state:?} x {event:?}");
                transitions += usize::from(got.0 != state);
            }
        }
        // Wanted, NoVi, Up, and Timeout at and above the budget.
        assert_eq!(transitions, 5);
    }

    #[test]
    fn connected_and_failed_are_absorbing_and_only_answer_sends() {
        for state in [Connected, Failed] {
            for event in events() {
                let (next, action) = step(state, event);
                assert_eq!(next, state, "{state:?} left on {event:?}");
                let query = event == E::Send;
                assert_eq!(action != A::None, query, "{state:?} x {event:?}");
            }
        }
    }

    #[test]
    fn timeout_resends_below_the_budget_and_fails_at_it() {
        for budget in 0..4 {
            for attempts in 0..6 {
                let got = step(Connecting, E::Timeout { attempts, budget });
                let want = if attempts < budget {
                    (Connecting, A::Resend)
                } else {
                    (Failed, A::Fail)
                };
                assert_eq!(got, want, "attempt {attempts} of {budget}");
            }
        }
    }

    #[test]
    fn settled_states_are_the_legal_end_states() {
        let settled: Vec<_> = STATES.into_iter().filter(|s| s.is_settled()).collect();
        assert_eq!(settled, [Unconnected, Connected]);
    }
}
