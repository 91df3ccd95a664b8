//! The virtual-time engine.
//!
//! Every simulated process (an MPI rank, in this repository) runs as a
//! stackful fiber ([`crate::fiber`]) on the one OS thread that called
//! [`Engine::run`], and **exactly one** of {driver, processes} executes at
//! any real instant: a token is passed to the process with the smallest
//! virtual clock. Hardware activity (NIC processing, wire flight, DMA,
//! connection handshakes) is represented by events in a `(time, seq)`
//! binary-heap queue ([`crate::queue`]); events due at or before the next
//! process resume time are applied first.
//!
//! The result is a *deterministic* simulation: given the same world, the same
//! spawned closures and the same seeds, every run produces identical virtual
//! timestamps, identical message interleavings, and identical statistics.
//! There is one engine and it has no modes: multicore speed comes from
//! running independent simulations on separate threads (the bench harness's
//! `--jobs`), each with its own engine and its own fiber stack pool.
//!
//! Blocking is cooperative. A process that would spin-poll a completion queue
//! instead parks in [`ProcCtx::block_on`]; whoever makes the awaited state
//! change (an event handler or another process) calls [`Api::wake`], and the
//! engine resumes the sleeper *at the virtual time of the wake*. Wait-policy
//! costs (poll-detect vs interrupt wake-up) are charged by the caller on top.
//!
//! ## One scheduling decision, taken where another process could tell
//!
//! [`Inner::decide`] is the whole scheduler: apply every event due at or
//! before the earliest ready process's clock (events win ties), then grant
//! the token to the head of the ready heap. The only places a process can
//! observe or change anything shared are its world accesses, so those are
//! the only places it offers the token: [`ProcCtx::advance`] is arithmetic
//! on the process's own clock plus a "charged" flag, and the offer for the
//! whole stretch of charges is made once, on entry to the next
//! [`ProcCtx::with_world`] / [`ProcCtx::block_on`] (a compute park at the
//! summed clock) or folded into the next [`ProcCtx::yield_now`] (one
//! voluntary park). A body that returns with a charge pending has nothing
//! left to order itself against; its finish time includes the charge.
//!
//! A park is [`Inner::reschedule`]: the same decision with the parking
//! process as one more Ready entry, except that the entry is never filed.
//! It is held beside the heap while due events are applied, and then the
//! process either still orders first and simply carries on, or trades
//! places with the head in one sift ([`ReadyHeap::replace_top`]) and
//! switches straight to that process's fiber. The order is `(clock, key,
//! pid)` either way and `last_run` is stamped exactly as a push, a full
//! decision and a pop would stamp it, so the shortcut can never change a
//! result. Two counters tell the ways of keeping the token apart:
//!
//! * **self-resume** (`sim.fast_resumes`): nothing was due — no event at or
//!   before the caller's clock, no Ready process ordered before it;
//! * **inline self-grant** (`sim.direct.self_resumes`): events were
//!   applied, and afterwards the caller was still (or again, for a
//!   `block_on` the events woke) the first in line.
//!
//! The driver context (the caller of [`Engine::run`]) only starts the
//! first process, picks the next one when a process body returns, and —
//! when a decision finds nothing runnable — tells "everyone finished" from
//! deadlock and unwinds whatever is left.
//!
//! ## Equal-clock ties and recency stamps
//!
//! The unseeded tie-break orders equal-clock processes least-recently-run
//! first. "Run" counts *voluntary* scheduling points only — `yield_now`,
//! `block_on` wake-ups and the initial grant — never compute-parked grants
//! (`advance`). This is why settling N charges with one park at their sum
//! is result-neutral: the parks it replaces stamped nothing and touched
//! nothing, and everything they would have let run first is still ordered
//! before the one park that remains.

use crate::error::{BlockedProc, SimError};
use crate::fiber::FiberSet;
use crate::queue::EventQueue;
use crate::rng::SplitMix64;
use crate::time::{SimDuration, SimTime};
use std::cell::{Cell, RefCell, RefMut};
use std::panic::{self, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

/// Identifier of a spawned simulated process (dense, starting at 0 in spawn
/// order — MPI layers use it directly as the rank).
pub type ProcId = usize;

/// Fiber stack bytes per process. Stacks are lazily committed, so this costs
/// only address space until a rank actually recurses into it — and none
/// does: the deepest park of the heaviest instance of every NPB program
/// (class C at np = 32, class B at np = 16) sits 6.7–7.2 KB down, and 5 KB
/// in every np = 256–4096 world, so nothing needs to size it per run.
const STACK_BYTES: usize = 1 << 20;

/// The simulated hardware/world state shared by all processes.
///
/// The world owns everything "below" the process boundary: NIC state,
/// in-flight messages, connection matchmaking. Processes mutate it through
/// [`ProcCtx::with_world`]; deferred activity is expressed as typed events
/// which the engine feeds back through [`World::handle_event`].
pub trait World: Sized + Send + 'static {
    /// Deferred-activity payload (message arrival, DMA completion, ...).
    type Event: Send + 'static;

    /// Apply `event` at its due time. May schedule follow-up events and wake
    /// blocked processes through `api`.
    fn handle_event(&mut self, event: Self::Event, api: &mut Api<'_, Self::Event>);
}

/// Scheduling capabilities handed to event handlers and world accessors.
pub struct Api<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
    wakes: &'a mut Vec<ProcId>,
}

impl<'a, E> Api<'a, E> {
    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` to fire `after` from now.
    #[inline]
    pub fn schedule(&mut self, after: SimDuration, event: E) {
        self.queue.push(self.now + after, event);
    }

    /// Schedule `event` at an absolute time (clamped to now if in the past).
    #[inline]
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        self.queue.push(at.max(self.now), event);
    }

    /// Mark a blocked process runnable at the current virtual time. Waking a
    /// process that is not blocked is a harmless no-op (the "wakeup" races
    /// are resolved by re-checking predicates in [`ProcCtx::block_on`]).
    #[inline]
    pub fn wake(&mut self, pid: ProcId) {
        self.wakes.push(pid);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProcState {
    /// Runnable at its clock (present in the ready heap).
    Ready,
    /// Currently holding the execution token.
    Running,
    /// Parked in `block_on` waiting for a wake.
    Blocked,
    /// Body returned normally.
    Finished,
    /// Body panicked (or was poisoned during teardown).
    Panicked,
}

/// Why a process last left the Running state (what kind of ready-heap entry
/// it owns). Voluntary parks stamp scheduling recency; compute parks do
/// not — see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ParkSite {
    /// Parked to settle `advance` charges before a world access (a
    /// pure-compute yield). Its grant does not update `last_run`.
    Compute,
    /// Parked by `yield_now`, `block_on`, or not yet run at all. Its grant
    /// stamps `last_run` so equal-clock processes round-robin.
    Voluntary,
}

struct ProcSlot {
    name: String,
    state: ProcState,
    /// Engine pass on which this slot was last *voluntarily* scheduled
    /// (`yield_now` / `block_on` / initial grant); breaks clock ties
    /// least-recently-run-first so equal-time processes round-robin.
    /// Compute-parked grants do not stamp it, which keeps the tie-break —
    /// and therefore every result — independent of how compute stretches
    /// are segmented.
    last_run: u64,
    /// Kind of the ready-heap entry this slot currently owns (valid while
    /// `state == Ready`).
    site: ParkSite,
}

/// A ready-heap entry. Entries order by `(clock, key, pid)`; clock and key
/// are packed into one word, most significant first, so the comparison that
/// decides nearly every sift step is a single wide compare instead of a
/// three-field tuple's chain of branches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct ReadyEntry {
    /// `clock << 64 | key`.
    order: u128,
    pid: ProcId,
}

impl ReadyEntry {
    #[inline]
    fn new(clock: SimTime, key: u64, pid: ProcId) -> Self {
        ReadyEntry {
            order: (clock.0 as u128) << 64 | key as u128,
            pid,
        }
    }

    #[inline]
    fn clock(self) -> SimTime {
        SimTime((self.order >> 64) as u64)
    }
}

/// Index min-heap over the Ready processes, keyed `(clock, last_run, pid)`.
///
/// Every transition into `ProcState::Ready` files exactly one entry (a
/// wake pushes it, a park trades it for the minimum); the scheduler pops
/// the minimum. `(clock, last_run)` are immutable while a process is Ready
/// (wakes only touch Blocked processes), so entries are never stale — no
/// lazy-deletion bookkeeping is needed.
struct ReadyHeap {
    heap: Vec<ReadyEntry>,
    peak: usize,
}

/// Second component of the ready-heap key for a process at `clock`.
///
/// Without a schedule seed this is `last_run`, so equal-clock processes
/// round-robin least-recently-run-first. With a seed it is a *stateless*
/// hash of `(seed, pid, clock)`: equal-clock ties then resolve in a
/// seed-dependent order, which is what the `simcheck` harness uses to
/// explore different interleavings. The hash must be stateless (not a
/// shared RNG stream) so a park that keeps the token — and so never becomes
/// Ready — is ordered by the identical key.
#[inline]
fn sched_key(sched_seed: Option<u64>, last_run: u64, pid: ProcId, clock: SimTime) -> u64 {
    match sched_seed {
        None => last_run,
        Some(seed) => SplitMix64::new(
            seed ^ (pid as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ clock.0.wrapping_mul(0xD1B5_4A32_D192_ED03),
        )
        .next_u64(),
    }
}

impl ReadyHeap {
    fn with_capacity(cap: usize) -> Self {
        ReadyHeap {
            heap: Vec::with_capacity(cap),
            peak: 0,
        }
    }

    #[inline]
    fn peek(&self) -> Option<ReadyEntry> {
        self.heap.first().copied()
    }

    fn push(&mut self, clock: SimTime, last_run: u64, pid: ProcId) {
        self.heap.push(ReadyEntry::new(clock, last_run, pid));
        if self.heap.len() > self.peak {
            self.peak = self.heap.len();
        }
        let mut i = self.heap.len() - 1;
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[i] >= self.heap[parent] {
                break;
            }
            self.heap.swap(i, parent);
            i = parent;
        }
    }

    fn pop(&mut self) -> Option<ReadyEntry> {
        if self.heap.is_empty() {
            return None;
        }
        let last = self.heap.len() - 1;
        self.heap.swap(0, last);
        let e = self.heap.pop().expect("non-empty");
        let n = self.heap.len();
        let mut i = 0;
        loop {
            let l = 2 * i + 1;
            if l >= n {
                break;
            }
            let r = l + 1;
            let mut smallest = l;
            if r < n && self.heap[r] < self.heap[l] {
                smallest = r;
            }
            if self.heap[smallest] >= self.heap[i] {
                break;
            }
            self.heap.swap(i, smallest);
            i = smallest;
        }
        Some(e)
    }

    /// An entry was Ready beside the heap (a parking process, held out of
    /// it): the high-water mark counts it as if it had been pushed.
    fn count_held_out(&mut self) {
        self.peak = self.peak.max(self.heap.len() + 1);
    }

    /// Take the minimum and file `e`, which orders after it, in one sift:
    /// what `push(e)` then `pop()` returns and leaves, without growing the
    /// heap. Bottom-up — the hole left by the minimum walks down the path
    /// of smaller children to a leaf (one comparison a level), then `e`
    /// climbs from there; a process that just ran orders late, so the climb
    /// is usually nil.
    fn replace_top(&mut self, e: ReadyEntry) -> ReadyEntry {
        let n = self.heap.len();
        let top = self.heap[0];
        debug_assert!(top < e, "the caller keeps the token when it orders first");
        let mut i = 0;
        loop {
            let l = 2 * i + 1;
            if l >= n {
                break;
            }
            let r = l + 1;
            let child = l + usize::from(r < n && self.heap[r] < self.heap[l]);
            self.heap[i] = self.heap[child];
            i = child;
        }
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[parent] <= e {
                break;
            }
            self.heap[i] = self.heap[parent];
            i = parent;
        }
        self.heap[i] = e;
        top
    }
}

/// Everything the scheduler mutates. One `RefCell` guards it: the engine is
/// single-threaded by construction, and no borrow is ever held across a
/// fiber switch.
struct Inner<W: World> {
    world: W,
    queue: EventQueue<W::Event>,
    procs: Vec<ProcSlot>,
    /// Per-process virtual clocks, shared with [`ProcCtx::now`] so reading
    /// the time never needs the `RefCell` (it is legal inside a
    /// `with_world` closure).
    clocks: Rc<[Cell<SimTime>]>,
    /// Ready processes, ordered as the scheduler will pick them.
    ready: ReadyHeap,
    /// First process panic observed (poisons the simulation).
    poisoned: Option<(String, String)>,
    /// Set once the driver starts unwinding the survivors: nothing is
    /// scheduled any more, and every fiber resumed from here on unwinds at
    /// its park site.
    teardown: bool,
    /// Monotone counter stamped into `ProcSlot::last_run`.
    pass: u64,
    /// Events applied so far.
    events_processed: u64,
    /// Token passes short-circuited by the self-resume fast path.
    fast_resumes: u64,
    /// Token grants that switched fiber-to-fiber from a yielding process.
    direct_handoffs: u64,
    /// Inline decisions that handed the token straight back to the
    /// yielding process after event processing (no switch).
    direct_self: u64,
    /// `with_world` and `block_on` entries: the places a process meets the
    /// rest of the simulation, and so the places it offers the token.
    world_accesses: u64,
    /// Reusable wake buffer so `with_world`/`block_on`/event dispatch do not
    /// allocate a fresh `Vec` per call.
    wake_scratch: Vec<ProcId>,
    /// Schedule-exploration seed (see [`sched_key`]). Immutable after init.
    sched_seed: Option<u64>,
}

impl<W: World> Inner<W> {
    /// Run `f` against the world at instant `now`, then file every process
    /// it woke as Ready at `max(its clock, now)`.
    #[inline]
    fn with_api<R>(
        &mut self,
        now: SimTime,
        f: impl FnOnce(&mut W, &mut Api<'_, W::Event>) -> R,
    ) -> R {
        let mut api = Api {
            now,
            queue: &mut self.queue,
            wakes: &mut self.wake_scratch,
        };
        let r = f(&mut self.world, &mut api);
        if !self.wake_scratch.is_empty() {
            self.file_wakes(now);
        }
        r
    }

    /// File the processes an access or event handler at `now` woke.
    fn file_wakes(&mut self, now: SimTime) {
        for i in 0..self.wake_scratch.len() {
            let pid = self.wake_scratch[i];
            if self.procs[pid].state == ProcState::Blocked {
                let clock = self.clocks[pid].get().max(now);
                self.clocks[pid].set(clock);
                self.make_ready(pid, clock, ParkSite::Voluntary);
            }
        }
        self.wake_scratch.clear();
    }

    /// File `pid` on the ready heap at `clock`.
    #[inline]
    fn make_ready(&mut self, pid: ProcId, clock: SimTime, site: ParkSite) {
        let slot = &mut self.procs[pid];
        slot.state = ProcState::Ready;
        slot.site = site;
        let key = sched_key(self.sched_seed, slot.last_run, pid, clock);
        self.ready.push(clock, key, pid);
    }

    /// A park of the running process `pid` at `clock`: the scheduling
    /// decision of [`Inner::decide`] with `pid` as one more Ready entry,
    /// taken with that entry held *out* of the heap. Events due at or before
    /// the earlier of `clock` and the heap's head are applied first (events
    /// win ties); then either `pid` still orders first under `(clock, key,
    /// pid)` and keeps the token with no heap operation at all, or it trades
    /// places with the head in one sift. Returns who runs next; `None` only
    /// while the simulation is being torn down.
    fn reschedule(&mut self, pid: ProcId, clock: SimTime, site: ParkSite) -> Option<ProcId> {
        let key = sched_key(self.sched_seed, self.procs[pid].last_run, pid, clock);
        let entry = ReadyEntry::new(clock, key, pid);
        let mut applied = false;
        let head = loop {
            if self.poisoned.is_some() || self.teardown {
                self.make_ready(pid, clock, site);
                return None;
            }
            let head = self.ready.peek();
            let limit = head.map_or(clock, |head| head.clock().min(clock));
            let Some((t, ev)) = self.queue.pop_due(limit) else {
                break head;
            };
            self.events_processed += 1;
            self.with_api(t, |world, api| world.handle_event(ev, api));
            applied = true;
        };
        let keeps = head.is_none_or(|head| entry < head);
        if keeps && !applied {
            // Nothing was due: the decision was forced before it was taken.
            self.grant(pid, site);
            self.fast_resumes += 1;
            return Some(pid);
        }
        // From here on `pid` queued, if only behind an event.
        self.ready.count_held_out();
        if keeps {
            self.grant(pid, site);
            self.direct_self += 1;
            return Some(pid);
        }
        let slot = &mut self.procs[pid];
        slot.state = ProcState::Ready;
        slot.site = site;
        let next = self.ready.replace_top(entry).pid;
        debug_assert_eq!(self.procs[next].state, ProcState::Ready);
        self.procs[next].state = ProcState::Running;
        self.grant(next, self.procs[next].site);
        Some(next)
    }

    /// Count a token grant to `pid` and stamp its recency if the entry it
    /// is granted from was a voluntary park.
    #[inline]
    fn grant(&mut self, pid: ProcId, site: ParkSite) {
        self.pass += 1;
        if site == ParkSite::Voluntary {
            self.procs[pid].last_run = self.pass;
        }
    }

    /// The scheduler: apply every event due at or before the next ready
    /// process's clock (events win ties), then grant the token to the head
    /// of the ready heap and return it. `None` means nothing is runnable —
    /// every process finished, the simulation deadlocked, or it is being
    /// torn down; the driver sorts out which.
    fn decide(&mut self) -> Option<ProcId> {
        loop {
            if self.poisoned.is_some() || self.teardown {
                return None;
            }
            let limit = self
                .ready
                .peek()
                .map_or(SimTime(u64::MAX), ReadyEntry::clock);
            if let Some((t, ev)) = self.queue.pop_due(limit) {
                self.events_processed += 1;
                self.with_api(t, |world, api| world.handle_event(ev, api));
                continue;
            }
            let pid = self.ready.pop()?.pid;
            debug_assert_eq!(self.procs[pid].state, ProcState::Ready);
            self.procs[pid].state = ProcState::Running;
            self.grant(pid, self.procs[pid].site);
            return Some(pid);
        }
    }
}

struct Shared<W: World> {
    inner: RefCell<Inner<W>>,
    clocks: Rc<[Cell<SimTime>]>,
    /// The running process has advanced its clock since it last offered the
    /// token. Only ever set for the token holder and always cleared before
    /// the token moves, so one flag serves every process.
    charged: Cell<bool>,
    /// The fibers hosting the processes, one per [`ProcId`].
    fibers: FiberSet,
}

/// Panic payload used to unwind simulated processes during teardown.
struct SimPoison;

/// Handle passed to each simulated process body.
///
/// Cheap to clone; all methods may only be called by the owning process
/// while it holds the execution token (which is the case whenever the body
/// is executing).
pub struct ProcCtx<W: World> {
    shared: Rc<Shared<W>>,
    pid: ProcId,
    /// Cached process count — immutable after spawn.
    nprocs: usize,
}

impl<W: World> Clone for ProcCtx<W> {
    fn clone(&self) -> Self {
        ProcCtx {
            shared: self.shared.clone(),
            pid: self.pid,
            nprocs: self.nprocs,
        }
    }
}

impl<W: World> ProcCtx<W> {
    /// This process's identifier (its spawn index).
    #[inline]
    pub fn pid(&self) -> ProcId {
        self.pid
    }

    /// Number of processes spawned into the simulation. Cached in the
    /// context (the value is immutable), so this is a plain field read —
    /// safe to call in the hottest loops.
    #[inline]
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Current virtual time of this process: one `Cell` read, so hot kernels
    /// that timestamp every iteration never touch the scheduler.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.shared.clocks[self.pid].get()
    }

    /// Charge `d` of virtual compute time to this process: arithmetic on its
    /// own clock, so `now()` is exact at once. Nothing another process does
    /// can depend on the charge until this one next touches the world, so
    /// the token is offered there, once for the whole stretch.
    #[inline]
    pub fn advance(&self, d: SimDuration) {
        if d == SimDuration::ZERO {
            return;
        }
        let clock = &self.shared.clocks[self.pid];
        clock.set(clock.get() + d);
        self.shared.charged.set(true);
    }

    /// Yield the token without advancing time. Equal-clock processes are
    /// scheduled least-recently-run-first, so this round-robins fairly
    /// (unless a schedule-exploration seed is set, in which case ties
    /// resolve in a seed-dependent order). A pending charge is settled by
    /// the same decision. When this process is the only runnable entity (no
    /// equal-or-earlier Ready process, no due event), the fast path returns
    /// immediately.
    pub fn yield_now(&self) {
        self.shared.charged.set(false);
        let g = self.shared.inner.borrow_mut();
        self.give_up_token(g, ParkSite::Voluntary);
    }

    /// Offer the token to whatever is due before `(now, self)`. Hands back
    /// the scheduler borrow, retaken if the token went away and came back.
    fn give_up_token<'a>(
        &'a self,
        mut g: RefMut<'a, Inner<W>>,
        site: ParkSite,
    ) -> RefMut<'a, Inner<W>> {
        let next = g.reschedule(self.pid, self.now(), site);
        if next == Some(self.pid) {
            return g;
        }
        self.switch_to(g, next);
        self.shared.inner.borrow_mut()
    }

    /// Borrow the scheduler state for a world access, first settling any
    /// pending charge with one compute park at the current clock.
    #[inline]
    fn enter_world(&self) -> RefMut<'_, Inner<W>> {
        let mut g = self.shared.inner.borrow_mut();
        if self.shared.charged.replace(false) {
            g = self.give_up_token(g, ParkSite::Compute);
        }
        g.world_accesses += 1;
        g
    }

    /// Run `f` against the world at the current instant (zero virtual time).
    /// `f` may schedule events and wake blocked processes.
    pub fn with_world<R>(&self, f: impl FnOnce(&mut W, &mut Api<'_, W::Event>) -> R) -> R {
        self.enter_world().with_api(self.now(), f)
    }

    /// Park until `f` yields `Some`. `f` is evaluated against the world; if
    /// it returns `None` the process blocks and is re-evaluated after each
    /// [`Api::wake`] targeting it, at the virtual time of that wake.
    pub fn block_on<R>(&self, mut f: impl FnMut(&mut W, &mut Api<'_, W::Event>) -> Option<R>) -> R {
        let mut g = self.enter_world();
        loop {
            if let Some(r) = g.with_api(self.now(), &mut f) {
                return r;
            }
            g.procs[self.pid].state = ProcState::Blocked;
            // The decision runs inline, here. A grant straight back (an
            // event woke this process and left it first in line) is no
            // switch at all.
            let next = g.decide();
            if next == Some(self.pid) {
                g.direct_self += 1;
                continue;
            }
            self.switch_to(g, next);
            g = self.shared.inner.borrow_mut();
        }
    }

    /// Suspend until re-granted: one fiber-to-fiber switch to `next`, or
    /// back to the driver when nothing is runnable.
    fn switch_to(&self, mut g: RefMut<'_, Inner<W>>, next: Option<ProcId>) {
        match next {
            Some(next) => {
                g.direct_handoffs += 1;
                drop(g);
                self.shared.fibers.resume(next);
            }
            None => {
                drop(g);
                self.shared.fibers.yield_to_driver();
            }
        }
        // Resumed. During teardown that means "unwind": the driver resumes
        // each surviving fiber exactly so that it raises `SimPoison` here.
        if self.shared.inner.borrow().teardown {
            panic::panic_any(SimPoison);
        }
    }
}

// Cumulative totals over every `Engine::run` in the process. Monotone
// write-only counters from the scheduler's perspective — they are never
// read back by scheduling decisions, so they cannot affect results. The
// bench harness snapshots them around an experiment to report aggregate
// events/sec across worker threads.
static TOTAL_RUNS: AtomicU64 = AtomicU64::new(0);
static TOTAL_EVENTS: AtomicU64 = AtomicU64::new(0);

/// Process-wide cumulative totals over every completed [`Engine::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineTotals {
    /// Simulations completed successfully.
    pub runs: u64,
    /// Events applied, summed over those runs.
    pub events: u64,
}

/// Snapshot the process-wide cumulative engine counters.
pub fn engine_totals() -> EngineTotals {
    EngineTotals {
        runs: TOTAL_RUNS.load(Ordering::Relaxed),
        events: TOTAL_EVENTS.load(Ordering::Relaxed),
    }
}

/// Summary of a completed simulation.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Virtual finish time of each process, in spawn order.
    pub proc_finish: Vec<SimTime>,
    /// Latest process finish time (makespan).
    pub end_time: SimTime,
    /// Number of events the engine applied.
    pub events_processed: u64,
    /// Deepest fiber stack usage observed at any park site, in bytes. A
    /// *host-side* measurement — it moves with the compiler version and
    /// with any edit to the frames under a park site — so it lives here and
    /// not in the deterministic [`Outcome::metrics`].
    pub stack_depth_peak: u64,
    /// The engine's metric set ([`crate::metrics::engine`]), published once
    /// at the end of the run: handoffs, events, fast resumes, scheduled
    /// events, and the ready-heap / event-queue high-water marks. Built
    /// outside the scheduling hot path, so observability costs nothing
    /// while the simulation runs.
    pub metrics: crate::metrics::MetricsSnapshot,
}

type ProcBody<W> = Box<dyn FnOnce(ProcCtx<W>) + Send + 'static>;

/// A configured simulation: a world plus a set of process bodies.
pub struct Engine<W: World> {
    world: W,
    bodies: Vec<(String, ProcBody<W>)>,
    sched_seed: Option<u64>,
}

impl<W: World> Engine<W> {
    /// Create an engine around an initial world state.
    pub fn new(world: W) -> Self {
        Engine {
            world,
            bodies: Vec::new(),
            sched_seed: None,
        }
    }

    /// Install a schedule-exploration seed. When set, equal-clock scheduling
    /// ties are broken by a deterministic hash of `(seed, pid, clock)`
    /// instead of least-recently-run order: each seed yields one fixed,
    /// replayable interleaving, and different seeds explore different
    /// interleavings. `None` (the default) keeps the exact round-robin
    /// behaviour.
    pub fn set_sched_seed(&mut self, seed: Option<u64>) {
        self.sched_seed = seed;
    }

    /// Register a simulated process. Returns its [`ProcId`] (spawn index).
    pub fn spawn(
        &mut self,
        name: impl Into<String>,
        body: impl FnOnce(ProcCtx<W>) + Send + 'static,
    ) -> ProcId {
        self.bodies.push((name.into(), Box::new(body)));
        self.bodies.len() - 1
    }

    /// Run the simulation to completion on the calling thread. Returns the
    /// final world (for statistics extraction) and an [`Outcome`], or a
    /// [`SimError`] if the simulated program deadlocked or panicked.
    pub fn run(self) -> Result<(W, Outcome), SimError> {
        let n = self.bodies.len();
        let clocks: Rc<[Cell<SimTime>]> = (0..n).map(|_| Cell::new(SimTime::ZERO)).collect();
        let mut ready = ReadyHeap::with_capacity(n);
        for pid in 0..n {
            ready.push(
                SimTime::ZERO,
                sched_key(self.sched_seed, 0, pid, SimTime::ZERO),
                pid,
            );
        }
        let shared = Rc::new(Shared {
            inner: RefCell::new(Inner {
                world: self.world,
                queue: EventQueue::with_capacity(64),
                procs: self
                    .bodies
                    .iter()
                    .map(|(name, _)| ProcSlot {
                        name: name.clone(),
                        state: ProcState::Ready,
                        last_run: 0,
                        site: ParkSite::Voluntary,
                    })
                    .collect(),
                clocks: clocks.clone(),
                ready,
                poisoned: None,
                teardown: false,
                pass: 0,
                events_processed: 0,
                fast_resumes: 0,
                direct_handoffs: 0,
                direct_self: 0,
                world_accesses: 0,
                wake_scratch: Vec::with_capacity(8),
                sched_seed: self.sched_seed,
            }),
            clocks,
            charged: Cell::new(false),
            fibers: FiberSet::new(n, STACK_BYTES),
        });

        for (pid, (_name, body)) in self.bodies.into_iter().enumerate() {
            let ctx = ProcCtx {
                shared: shared.clone(),
                pid,
                nprocs: n,
            };
            let shared2 = shared.clone();
            shared.fibers.set_body(
                pid,
                Box::new(move || {
                    let result = panic::catch_unwind(AssertUnwindSafe(|| body(ctx)));
                    // A charge the body never settled is already in its
                    // finish time; the flag must not reach the next process.
                    shared2.charged.set(false);
                    let mut g = shared2.inner.borrow_mut();
                    match result {
                        Ok(()) => g.procs[pid].state = ProcState::Finished,
                        Err(payload) => {
                            g.procs[pid].state = ProcState::Panicked;
                            if payload.downcast_ref::<SimPoison>().is_none() && g.poisoned.is_none()
                            {
                                let msg = panic_message(payload.as_ref());
                                let name = g.procs[pid].name.clone();
                                g.poisoned = Some((name, msg));
                            }
                        }
                    }
                    // Returning hands control to the driver context.
                }),
            );
        }

        let error = Self::drive(&shared);
        // Nothing may outlive the run holding a ProcCtx: drop any body
        // never started (its closure captured one).
        shared.fibers.clear();
        let stack_depth_peak = shared.fibers.stack_depth_peak();
        let shared = Rc::try_unwrap(shared)
            .unwrap_or_else(|_| panic!("a simulated process leaked its ProcCtx"));
        // Dropping the fiber set hands every stack back to this thread's
        // pool — on the error paths too.
        let inner = shared.inner.into_inner();

        if let Some(err) = error {
            return Err(err);
        }
        let proc_finish: Vec<SimTime> = shared.clocks.iter().map(Cell::get).collect();
        let end_time = proc_finish.iter().copied().max().unwrap_or(SimTime::ZERO);
        TOTAL_RUNS.fetch_add(1, Ordering::Relaxed);
        TOTAL_EVENTS.fetch_add(inner.events_processed, Ordering::Relaxed);
        let metrics = {
            use crate::metrics::engine as em;
            let mut reg = em::registry();
            reg.add(em::HANDOFFS, inner.pass);
            reg.add(em::EVENTS, inner.events_processed);
            reg.add(em::FAST_RESUMES, inner.fast_resumes);
            reg.add(em::EVENTS_SCHEDULED, inner.queue.scheduled_total());
            reg.add(em::DIRECT_HANDOFFS, inner.direct_handoffs);
            reg.add(em::DIRECT_SELF, inner.direct_self);
            reg.add(em::WORLD_ACCESSES, inner.world_accesses);
            reg.gauge_max(em::READY_PEAK, inner.ready.peak as u64);
            reg.gauge_max(em::QUEUE_PEAK, inner.queue.peak() as u64);
            reg.snapshot()
        };
        Ok((
            inner.world,
            Outcome {
                proc_finish,
                end_time,
                events_processed: inner.events_processed,
                stack_depth_peak,
                metrics,
            },
        ))
    }

    /// The driver context's loop — the only schedule loop there is. Control
    /// is here before the first process starts, whenever a process body
    /// returns, and whenever an inline decision found nothing runnable; no
    /// process is ever mid-step at that point. Returns `Some(error)` if the
    /// simulation ended abnormally (after unwinding every live process).
    fn drive(shared: &Shared<W>) -> Option<SimError> {
        loop {
            let mut g = shared.inner.borrow_mut();
            if let Some(pid) = g.decide() {
                drop(g);
                shared.fibers.resume(pid);
                continue;
            }
            let error = if let Some((name, message)) = g.poisoned.clone() {
                SimError::ProcPanic { name, message }
            } else {
                // No due events, no ready processes: every process
                // finished, or the survivors are blocked forever.
                let blocked: Vec<BlockedProc> = (g.procs.iter().zip(shared.clocks.iter()))
                    .filter(|(p, _)| p.state == ProcState::Blocked)
                    .map(|(p, clock)| BlockedProc {
                        name: p.name.clone(),
                        blocked_at: clock.get(),
                    })
                    .collect();
                if blocked.is_empty() {
                    return None;
                }
                let at = shared
                    .clocks
                    .iter()
                    .map(Cell::get)
                    .max()
                    .unwrap_or(SimTime::ZERO);
                SimError::Deadlock { at, blocked }
            };
            g.teardown = true;
            drop(g);
            Self::teardown(shared);
            return Some(error);
        }
    }

    /// Unwind every process that is still parked: resume its fiber, which
    /// raises [`SimPoison`] at its park site (`Inner::teardown` is set) and
    /// comes back here once its body epilogue has run. Processes that never
    /// started are dropped without ever getting a stack.
    fn teardown(shared: &Shared<W>) {
        for pid in 0..shared.clocks.len() {
            let mut g = shared.inner.borrow_mut();
            if !matches!(g.procs[pid].state, ProcState::Ready | ProcState::Blocked) {
                continue;
            }
            if shared.fibers.abandon(pid) {
                g.procs[pid].state = ProcState::Panicked;
                continue;
            }
            g.procs[pid].state = ProcState::Running;
            drop(g);
            shared.fibers.resume(pid);
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::fiber::tests::on_fresh_thread;
    use std::collections::VecDeque;

    /// Minimal mailbox world used by the engine unit tests.
    struct MailWorld {
        boxes: Vec<VecDeque<(u64, SimTime)>>,
        waiters: Vec<Option<ProcId>>,
        log: Vec<String>,
    }

    enum MailEvent {
        Deliver { to: usize, value: u64 },
    }

    impl World for MailWorld {
        type Event = MailEvent;
        fn handle_event(&mut self, ev: MailEvent, api: &mut Api<'_, MailEvent>) {
            match ev {
                MailEvent::Deliver { to, value } => {
                    self.boxes[to].push_back((value, api.now()));
                    if let Some(pid) = self.waiters[to].take() {
                        api.wake(pid);
                    }
                }
            }
        }
    }

    impl MailWorld {
        fn new(n: usize) -> Self {
            MailWorld {
                boxes: (0..n).map(|_| VecDeque::new()).collect(),
                waiters: vec![None; n],
                log: Vec::new(),
            }
        }
    }

    fn send(ctx: &ProcCtx<MailWorld>, to: usize, value: u64, latency: SimDuration) {
        ctx.with_world(|_, api| api.schedule(latency, MailEvent::Deliver { to, value }));
    }

    fn recv(ctx: &ProcCtx<MailWorld>) -> (u64, SimTime) {
        let pid = ctx.pid();
        ctx.block_on(move |w, _| {
            if let Some(v) = w.boxes[pid].pop_front() {
                Some(v)
            } else {
                w.waiters[pid] = Some(pid);
                None
            }
        })
    }

    #[test]
    fn advance_accumulates_virtual_time() {
        let mut eng = Engine::new(MailWorld::new(1));
        eng.spawn("p0", |ctx| {
            assert_eq!(ctx.now(), SimTime::ZERO);
            ctx.advance(SimDuration::micros(3));
            ctx.advance(SimDuration::micros(4));
            assert_eq!(ctx.now(), SimTime(7_000));
        });
        let (_, out) = eng.run().unwrap();
        assert_eq!(out.end_time, SimTime(7_000));
        assert_eq!(out.proc_finish, vec![SimTime(7_000)]);
    }

    #[test]
    fn message_latency_is_respected() {
        let mut eng = Engine::new(MailWorld::new(2));
        eng.spawn("sender", |ctx| {
            ctx.advance(SimDuration::micros(10));
            send(&ctx, 1, 42, SimDuration::micros(5));
        });
        eng.spawn("receiver", |ctx| {
            let (v, at) = recv(&ctx);
            assert_eq!(v, 42);
            assert_eq!(at, SimTime(15_000));
            assert_eq!(ctx.now(), SimTime(15_000), "woken at delivery time");
        });
        let (_, out) = eng.run().unwrap();
        assert_eq!(out.end_time, SimTime(15_000));
    }

    #[test]
    fn receiver_already_past_delivery_keeps_its_clock() {
        let mut eng = Engine::new(MailWorld::new(2));
        eng.spawn("sender", |ctx| {
            send(&ctx, 1, 7, SimDuration::micros(1));
        });
        eng.spawn("receiver", |ctx| {
            ctx.advance(SimDuration::micros(100));
            let (v, _) = recv(&ctx);
            assert_eq!(v, 7);
            // Message arrived long ago; the receiver's clock must not go back.
            assert_eq!(ctx.now(), SimTime(100_000));
        });
        eng.run().unwrap();
    }

    #[test]
    fn events_fire_before_equal_or_later_procs() {
        // An event at t=5 must be applied before a proc resumes at t=5.
        struct ProbeWorld {
            fired: bool,
        }
        enum E {
            Fire,
        }
        impl World for ProbeWorld {
            type Event = E;
            fn handle_event(&mut self, _: E, _: &mut Api<'_, E>) {
                self.fired = true;
            }
        }
        let mut eng = Engine::new(ProbeWorld { fired: false });
        eng.spawn("p", |ctx| {
            ctx.with_world(|_, api| api.schedule(SimDuration::micros(5), E::Fire));
            ctx.advance(SimDuration::micros(5));
            assert!(ctx.with_world(|w, _| w.fired));
        });
        eng.run().unwrap();
    }

    #[test]
    fn deadlock_is_detected_and_reported() {
        let mut eng = Engine::new(MailWorld::new(2));
        eng.spawn("a", |ctx| {
            recv(&ctx); // nobody ever sends
        });
        eng.spawn("b", |ctx| {
            ctx.advance(SimDuration::micros(1));
        });
        match eng.run() {
            Err(SimError::Deadlock { blocked, .. }) => {
                assert_eq!(blocked.len(), 1);
                assert_eq!(blocked[0].name, "a");
            }
            other => panic!("expected deadlock, got {:?}", other.map(|(_, o)| o)),
        }
    }

    #[test]
    fn proc_panic_is_captured_and_teardown_completes() {
        let mut eng = Engine::new(MailWorld::new(3));
        eng.spawn("victim", |ctx| {
            ctx.advance(SimDuration::micros(1));
            panic!("boom in rank");
        });
        eng.spawn("waiter", |ctx| {
            recv(&ctx);
        });
        eng.spawn("sleeper", |ctx| {
            ctx.advance(SimDuration::millis(1000));
        });
        match eng.run() {
            Err(SimError::ProcPanic { name, message }) => {
                assert_eq!(name, "victim");
                assert!(message.contains("boom in rank"), "got message: {message:?}");
            }
            other => panic!("expected panic error, got {:?}", other.map(|(_, o)| o)),
        }
    }

    #[test]
    fn equal_clock_processes_round_robin() {
        let mut eng = Engine::new(MailWorld::new(2));
        for pid in 0..2 {
            eng.spawn(format!("p{pid}"), move |ctx| {
                for i in 0..3 {
                    ctx.with_world(move |w, _| {
                        w.log.push(format!("p{pid}:{i}"));
                    });
                    ctx.yield_now();
                }
            });
        }
        let (w, _) = eng.run().unwrap();
        assert_eq!(
            w.log,
            vec!["p0:0", "p1:0", "p0:1", "p1:1", "p0:2", "p1:2"],
            "yield_now round-robins between equal-clock processes"
        );
    }

    #[test]
    fn deterministic_event_ordering_across_runs() {
        let run = || {
            let mut eng = Engine::new(MailWorld::new(4));
            for s in 0..3usize {
                eng.spawn(format!("s{s}"), move |ctx| {
                    for i in 0..10u64 {
                        ctx.advance(SimDuration::nanos(100 * (s as u64 + 1)));
                        send(&ctx, 3, (s as u64) * 100 + i, SimDuration::micros(2));
                    }
                });
            }
            eng.spawn("sink", |ctx| {
                let mut got = Vec::new();
                for _ in 0..30 {
                    got.push(recv(&ctx).0);
                }
                ctx.with_world(move |w, _| {
                    w.log = got.iter().map(|v| v.to_string()).collect();
                });
            });
            let (w, out) = eng.run().unwrap();
            (w.log, out.end_time, out.events_processed)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "simulation must be bitwise deterministic");
        assert_eq!(a.2, 30);
    }

    #[test]
    fn with_world_is_zero_time() {
        let mut eng = Engine::new(MailWorld::new(1));
        eng.spawn("p", |ctx| {
            let t0 = ctx.now();
            for _ in 0..100 {
                ctx.with_world(|_, _| {});
            }
            assert_eq!(ctx.now(), t0);
        });
        eng.run().unwrap();
    }

    #[test]
    fn many_processes_interleave_by_clock() {
        let mut eng = Engine::new(MailWorld::new(8));
        for pid in 0..8usize {
            eng.spawn(format!("p{pid}"), move |ctx| {
                // Each process advances by a different stride; the engine must
                // always run the smallest-clock process next.
                for _ in 0..50 {
                    ctx.advance(SimDuration::nanos((pid as u64 + 1) * 10));
                    let now = ctx.now();
                    ctx.with_world(move |w, _| w.log.push(format!("{}", now.as_nanos())));
                }
            });
        }
        let (w, _) = eng.run().unwrap();
        let times: Vec<u64> = w.log.iter().map(|s| s.parse().unwrap()).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted, "global observation order is time order");
    }

    #[test]
    fn outcome_metrics_mirror_the_run() {
        let run = || {
            let mut eng = Engine::new(MailWorld::new(2));
            for pid in 0..2usize {
                eng.spawn(format!("p{pid}"), move |ctx| {
                    for _ in 0..10 {
                        ctx.with_world(|_, api| {
                            api.schedule(
                                SimDuration::nanos(5),
                                MailEvent::Deliver { to: 0, value: 1 },
                            );
                        });
                        ctx.advance(SimDuration::nanos(10));
                    }
                });
            }
            eng.run().unwrap().1
        };
        let out = run();
        assert_eq!(out.metrics.get("sim.events"), Some(out.events_processed));
        assert_eq!(out.metrics.get("sim.events_scheduled"), Some(20));
        assert!(
            out.metrics.get("sim.handoffs").unwrap()
                >= out.metrics.get("sim.fast_resumes").unwrap()
        );
        assert!(out.metrics.get("sim.ready_peak").unwrap() >= 2);
        assert!(out.metrics.get("sim.queue_peak").unwrap() >= 1);
        // Virtual-time determinism extends to the snapshot.
        assert_eq!(out.metrics, run().metrics);
    }

    // ------------------------------------------------------------------
    // The ready heap
    // ------------------------------------------------------------------

    /// Everything left in `h`, in the order the scheduler would take it.
    fn drain(mut h: ReadyHeap) -> Vec<ReadyEntry> {
        std::iter::from_fn(|| h.pop()).collect()
    }

    #[test]
    fn entries_order_as_clock_key_pid_tuples() {
        let mut rng = SplitMix64::new(7);
        // Mostly small values, so ties in every prefix occur, and some with
        // the top bit set, where a signed or truncated packing would flip.
        let field = |rng: &mut SplitMix64| match rng.next_u64() % 4 {
            0 => rng.next_u64() | 1 << 63,
            _ => rng.next_u64() % 3,
        };
        for _ in 0..10_000 {
            let a = (field(&mut rng), field(&mut rng), field(&mut rng) as usize);
            let b = (field(&mut rng), field(&mut rng), field(&mut rng) as usize);
            let packed = |(clock, key, pid)| ReadyEntry::new(SimTime(clock), key, pid);
            assert_eq!(packed(a).cmp(&packed(b)), a.cmp(&b), "{a:?} vs {b:?}");
            assert_eq!(packed(a).clock(), SimTime(a.0));
        }
    }

    #[test]
    fn replace_top_is_push_then_pop() {
        let mut rng = SplitMix64::new(0x5EED);
        let mut sifted = ReadyHeap::with_capacity(8);
        let mut model = ReadyHeap::with_capacity(8);
        // Clocks and keys from small ranges, so equal clocks and equal
        // (clock, key) pairs are the common case; pids are unique per entry,
        // as they are in the engine.
        let mut entry = |pid| (SimTime(rng.next_u64() % 8), rng.next_u64() % 3, pid);
        let mut replaced = 0;
        for op in 0..10_000 {
            let (clock, key, pid) = entry(op);
            let e = ReadyEntry::new(clock, key, pid);
            if model.peek().is_some_and(|top| top < e) && op % 4 != 0 {
                model.push(clock, key, pid);
                let out = model.pop().expect("just pushed");
                assert_eq!(sifted.replace_top(e), out, "op {op}");
                replaced += 1;
            } else if op % 3 == 0 {
                assert_eq!(sifted.pop(), model.pop(), "op {op}");
            } else {
                sifted.push(clock, key, pid);
                model.push(clock, key, pid);
            }
            assert_eq!(sifted.heap.len(), model.heap.len());
            if op % 64 == 0 {
                let copy = |h: &ReadyHeap| ReadyHeap {
                    heap: h.heap.clone(),
                    peak: 0,
                };
                assert_eq!(drain(copy(&sifted)), drain(copy(&model)), "op {op}");
            }
        }
        assert!(replaced > 2_000, "only {replaced} replacements exercised");
        assert!(sifted.heap.len() > 100, "the heap stayed trivially small");
        assert_eq!(drain(sifted), drain(model));
    }

    // ------------------------------------------------------------------
    // Parks that keep the token
    // ------------------------------------------------------------------

    #[test]
    fn lone_process_fast_resumes() {
        let mut eng = Engine::new(MailWorld::new(1));
        eng.spawn("p", |ctx| {
            for _ in 0..100 {
                ctx.advance(SimDuration::nanos(10));
            }
            for _ in 0..50 {
                ctx.yield_now();
            }
        });
        let (_, out) = eng.run().unwrap();
        assert_eq!(out.end_time, SimTime(1_000));
        assert_eq!(
            out.metrics.get("sim.fast_resumes"),
            Some(50),
            "the 100 charges settle with the first yield; every yield of a \
             lone process takes the fast path"
        );
        // The initial grant is the only one that was not a self-resume,
        // and it came from the driver, not from a yielding process.
        assert_eq!(out.metrics.get("sim.handoffs"), Some(51));
        assert_eq!(out.metrics.get("sim.world_accesses"), Some(0));
        assert_eq!(out.metrics.get("sim.direct.handoffs"), Some(0));
        assert_eq!(out.metrics.get("sim.direct.self_resumes"), Some(0));
    }

    #[test]
    fn fast_path_never_skips_a_pending_event() {
        // A process advancing *past* (not just onto) a pending event must
        // still go through the engine so the event is applied at its own
        // time, before the process resumes.
        struct ProbeWorld {
            fired_at: Option<SimTime>,
        }
        enum E {
            Fire,
        }
        impl World for ProbeWorld {
            type Event = E;
            fn handle_event(&mut self, _: E, api: &mut Api<'_, E>) {
                self.fired_at = Some(api.now());
            }
        }
        let mut eng = Engine::new(ProbeWorld { fired_at: None });
        eng.spawn("p", |ctx| {
            ctx.with_world(|_, api| api.schedule(SimDuration::micros(5), E::Fire));
            // Fast path allowed: 3 < 5.
            ctx.advance(SimDuration::micros(3));
            assert_eq!(ctx.with_world(|w, _| w.fired_at), None);
            // Crosses the event: must yield to the engine.
            ctx.advance(SimDuration::micros(4));
            assert_eq!(
                ctx.with_world(|w, _| w.fired_at),
                Some(SimTime(5_000)),
                "event fired at its own time while the proc moved 3us -> 7us"
            );
        });
        eng.run().unwrap();
    }

    #[test]
    fn fast_path_yields_to_just_woken_equal_clock_peer() {
        // p0 wakes p1 at p0's own clock, then advances. p1 (equal clock,
        // older last_run) must run before p0 continues — the fast path may
        // not starve the round-robin tie-break.
        let mut eng = Engine::new(MailWorld::new(2));
        eng.spawn("p0", |ctx| {
            ctx.advance(SimDuration::micros(1));
            // Deliver instantly: the event is due at p0's clock, so the
            // next advance may not fast-path over it.
            send(&ctx, 1, 9, SimDuration::ZERO);
            ctx.advance(SimDuration::nanos(1));
            let seen = ctx.with_world(|w, _| w.log.clone());
            assert_eq!(
                seen,
                vec!["p1:got9".to_string()],
                "woken equal-clock peer ran before p0's next step"
            );
        });
        eng.spawn("p1", |ctx| {
            let (v, _) = recv(&ctx);
            ctx.with_world(move |w, _| w.log.push(format!("p1:got{v}")));
        });
        eng.run().unwrap();
    }

    #[test]
    fn fast_path_respects_earlier_ready_process() {
        // Two processes with different strides: the faster-advancing one
        // must never overtake the slower one in observation order even
        // though both mostly self-resume when alone at the frontier.
        let mut eng = Engine::new(MailWorld::new(2));
        for pid in 0..2usize {
            eng.spawn(format!("p{pid}"), move |ctx| {
                for _ in 0..100 {
                    ctx.advance(SimDuration::nanos((pid as u64 + 1) * 7));
                    let now = ctx.now();
                    ctx.with_world(move |w, _| {
                        w.log.push(format!("{}", now.as_nanos()));
                    });
                }
            });
        }
        let (w, _) = eng.run().unwrap();
        let times: Vec<u64> = w.log.iter().map(|s| s.parse().unwrap()).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted, "time order preserved under fast path");
    }

    // ------------------------------------------------------------------
    // Lazy charging: how a compute stretch is cut up is unobservable
    // ------------------------------------------------------------------

    /// Charge `total` as 1..=32 `advance` calls whose lengths `rng` picks
    /// (zero-length pieces included).
    fn advance_in_pieces(ctx: &ProcCtx<MailWorld>, total: u64, rng: &mut SplitMix64) {
        let pieces = 1 + rng.next_u64() % 32;
        let mut left = total;
        for i in 0..pieces {
            let d = if i + 1 == pieces {
                left
            } else {
                rng.next_u64() % (left + 1)
            };
            ctx.advance(SimDuration::nanos(d));
            left -= d;
        }
    }

    /// A four-process ring in which every compute stretch is cut up by
    /// `split_seed` and is followed by each kind of scheduling point in
    /// turn. Stretch lengths repeat across processes, so equal-clock ties
    /// are common. Returns the world's log and the whole `Outcome`.
    fn segmented_ring(split_seed: u64, sched_seed: Option<u64>) -> (Vec<String>, Outcome) {
        const N: usize = 4;
        let mut eng = Engine::new(MailWorld::new(N));
        eng.set_sched_seed(sched_seed);
        for pid in 0..N {
            eng.spawn(format!("p{pid}"), move |ctx| {
                let mut rng = SplitMix64::new(split_seed ^ ((pid as u64) << 32));
                for round in 0..12u64 {
                    let stretch = 100 * (1 + (round + pid as u64) % 3);
                    advance_in_pieces(&ctx, stretch, &mut rng);
                    send(&ctx, (pid + 1) % N, round, SimDuration::nanos(250));
                    advance_in_pieces(&ctx, 100, &mut rng);
                    ctx.yield_now();
                    advance_in_pieces(&ctx, stretch / 2, &mut rng);
                    let (v, at) = recv(&ctx);
                    assert_eq!(v, round);
                    let now = ctx.now();
                    ctx.with_world(move |w, _| {
                        w.log.push(format!("p{pid}:{round}@{at:?}/{now:?}"))
                    });
                }
                // Leave with a charge pending.
                advance_in_pieces(&ctx, 40 * pid as u64, &mut rng);
            });
        }
        let (w, out) = eng.run().unwrap();
        (w.log, out)
    }

    #[test]
    fn outcome_is_independent_of_how_compute_is_segmented() {
        for sched_seed in [None, Some(1), Some(0xC0FFEE)] {
            let (log, base) = segmented_ring(0, sched_seed);
            assert_eq!(log.len(), 48);
            for split_seed in 1..40 {
                let (l, out) = segmented_ring(split_seed, sched_seed);
                assert_eq!(l, log, "split {split_seed}, sched {sched_seed:?}");
                assert_eq!(out.proc_finish, base.proc_finish);
                assert_eq!(out.events_processed, base.events_processed);
                // Every engine counter, `sim.handoffs` and `sim.direct.*`
                // included: the split decides nothing.
                assert_eq!(out.metrics, base.metrics, "split {split_seed}");
            }
        }
        // The seeds do explore: some tie resolves differently.
        assert_ne!(
            segmented_ring(0, None).0,
            segmented_ring(0, Some(0xC0FFEE)).0
        );
    }

    #[test]
    fn body_may_return_with_a_charge_pending() {
        let mut eng = Engine::new(MailWorld::new(3));
        eng.spawn("p0", |ctx| {
            ctx.advance(SimDuration::micros(1));
            send(&ctx, 1, 10, SimDuration::micros(2));
            send(&ctx, 2, 20, SimDuration::micros(1));
            // Never settled: the body returns on it.
            ctx.advance(SimDuration::micros(5));
        });
        for pid in 1..3usize {
            eng.spawn(format!("p{pid}"), move |ctx| {
                let (v, at) = recv(&ctx);
                ctx.with_world(move |w, _| w.log.push(format!("p{pid}:{v}@{}", at.as_nanos())));
            });
        }
        let (w, out) = eng.run().unwrap();
        assert_eq!(out.proc_finish, [6_000, 3_000, 2_000].map(SimTime));
        assert_eq!(
            out.end_time,
            SimTime(6_000),
            "the charge is in the makespan"
        );
        assert_eq!(
            w.log,
            ["p2:20@2000", "p1:10@3000"],
            "woken in delivery order"
        );
        // p0's flag did not outlive it: p1 and p2 enter the world four
        // times between them without one compute park. Grants: three
        // initial, one settling p0's first charge, two wake-ups.
        assert_eq!(out.metrics.get("sim.handoffs"), Some(6));
        assert_eq!(out.metrics.get("sim.world_accesses"), Some(6));
    }

    // ------------------------------------------------------------------
    // Schedule-exploration seed
    // ------------------------------------------------------------------

    /// Equal-clock tie workload: 3 processes advancing in lockstep, each
    /// logging its pid at every step. Unseeded this round-robins; seeded,
    /// the per-step order depends on the seed.
    fn tie_log(seed: Option<u64>) -> Vec<String> {
        let mut eng = Engine::new(MailWorld::new(3));
        eng.set_sched_seed(seed);
        for pid in 0..3usize {
            eng.spawn(format!("p{pid}"), move |ctx| {
                for _ in 0..6 {
                    ctx.advance(SimDuration::nanos(10));
                    ctx.with_world(move |w, _| w.log.push(format!("p{pid}")));
                }
            });
        }
        let (w, _) = eng.run().unwrap();
        w.log
    }

    #[test]
    fn sched_seed_is_replayable() {
        assert_eq!(tie_log(Some(42)), tie_log(Some(42)));
        assert_eq!(tie_log(Some(7)), tie_log(Some(7)));
    }

    #[test]
    fn sched_seeds_explore_distinct_interleavings() {
        let orders: std::collections::HashSet<Vec<String>> =
            (0..8u64).map(|s| tie_log(Some(s))).collect();
        assert!(
            orders.len() > 1,
            "different seeds should produce different equal-clock orders"
        );
    }

    #[test]
    fn no_sched_seed_keeps_round_robin() {
        let expected: Vec<String> = (0..6)
            .flat_map(|_| ["p0", "p1", "p2"])
            .map(str::to_string)
            .collect();
        assert_eq!(tie_log(None), expected);
    }

    // ------------------------------------------------------------------
    // A mixed workload: every observable pinned, and replayable
    // ------------------------------------------------------------------

    /// A mixed compute/communication workload; returns every virtual-time
    /// observable.
    fn mixed_workload() -> (Vec<String>, SimTime, u64, Vec<SimTime>) {
        let (log, out) = mixed_workload_seeded(None);
        (log, out.end_time, out.events_processed, out.proc_finish)
    }

    fn mixed_workload_seeded(sched_seed: Option<u64>) -> (Vec<String>, Outcome) {
        let mut eng = Engine::new(MailWorld::new(5));
        eng.set_sched_seed(sched_seed);
        for s in 0..4usize {
            eng.spawn(format!("s{s}"), move |ctx| {
                for i in 0..12u64 {
                    // Fragmented compute stretch.
                    for _ in 0..8 {
                        ctx.advance(SimDuration::nanos(25 * (s as u64 + 1)));
                    }
                    send(&ctx, 4, (s as u64) * 100 + i, SimDuration::micros(1));
                    if i % 3 == 0 {
                        ctx.yield_now();
                    }
                }
            });
        }
        eng.spawn("sink", |ctx| {
            let mut got = Vec::new();
            for _ in 0..48 {
                got.push(recv(&ctx).0);
            }
            ctx.with_world(move |w, _| {
                w.log = got.iter().map(|v| v.to_string()).collect();
            });
        });
        let (w, out) = eng.run().unwrap();
        (w.log, out)
    }

    /// Sixteen processes in lockstep round a ring: everyone charges the
    /// same stretch, posts to its right-hand neighbour and waits for its
    /// left-hand one, so every clock ties at every step.
    fn lockstep_ring(sched_seed: Option<u64>) -> Outcome {
        const N: usize = 16;
        let mut eng = Engine::new(MailWorld::new(N));
        eng.set_sched_seed(sched_seed);
        for pid in 0..N {
            eng.spawn(format!("r{pid}"), move |ctx| {
                for round in 0..20u64 {
                    ctx.advance(SimDuration::nanos(100));
                    send(&ctx, (pid + 1) % N, round, SimDuration::nanos(300));
                    ctx.advance(SimDuration::nanos(50));
                    assert_eq!(recv(&ctx).0, round);
                    if round % 4 == 0 {
                        ctx.yield_now();
                    }
                }
            });
        }
        eng.run().unwrap().1
    }

    /// The scheduling counters of `out`, in the order the pins list them:
    /// handoffs, fast resumes, direct handoffs, direct self-resumes, ready
    /// peak, world accesses.
    fn sched_counts(out: &Outcome) -> [u64; 6] {
        [
            "sim.handoffs",
            "sim.fast_resumes",
            "sim.direct.handoffs",
            "sim.direct.self_resumes",
            "sim.ready_peak",
            "sim.world_accesses",
        ]
        .map(|name| out.metrics.get(name).expect("engine metric published"))
    }

    /// Pinned from an engine whose park was two peeks, a push and a pop:
    /// how a park is carried out may change, how many of each kind there
    /// are may not. In particular a park that keeps the token after
    /// applying an event is a direct self-resume, not a fast resume, and the
    /// ready peak counts the parking process whenever it had to queue.
    #[test]
    fn scheduling_counts_are_pinned() {
        let seeds = [None, Some(1), Some(0xC0FFEE)];
        let mixed = seeds.map(|s| sched_counts(&mixed_workload_seeded(s).1));
        let ring = seeds.map(|s| sched_counts(&lockstep_ring(s)));
        assert_eq!(mixed, MIXED_PINS, "mixed workload");
        assert_eq!(ring, RING_PINS, "lockstep ring");
    }

    const MIXED_PINS: [[u64; 6]; 3] = [
        [98, 16, 70, 7, 5, 97],
        [98, 17, 69, 7, 5, 97],
        [98, 16, 69, 8, 5, 97],
    ];
    const RING_PINS: [[u64; 6]; 3] = [
        [1056, 0, 1040, 0, 16, 640],
        [1056, 83, 957, 0, 16, 640],
        [1056, 82, 956, 2, 16, 640],
    ];

    #[test]
    fn mixed_workload_replays_and_matches_the_pinned_schedule() {
        let a = mixed_workload();
        assert_eq!(a, mixed_workload(), "repeat runs must agree bit for bit");
        // Pinned from the engine that still had a thread backend, sharding,
        // pre-release and lazy compute charging — all of which produced
        // exactly this, so the one engine left must too.
        assert_eq!(a.0[..8], ["0", "100", "1", "200", "2", "300", "3", "101"]);
        assert_eq!(a.1, SimTime(10_600));
        assert_eq!(a.2, 48);
        assert_eq!(a.3, [2_400, 4_800, 7_200, 9_600, 10_600].map(SimTime));
    }

    #[test]
    fn now_is_exact_after_every_advance() {
        let mut eng = Engine::new(MailWorld::new(1));
        eng.spawn("p", |ctx| {
            let mut expect = 0u64;
            for i in 1..=64u64 {
                ctx.advance(SimDuration::nanos(i));
                expect += i;
                assert_eq!(ctx.now(), SimTime(expect));
            }
        });
        let (_, out) = eng.run().unwrap();
        assert_eq!(out.end_time, SimTime((1..=64u64).sum()));
    }

    #[test]
    fn now_is_readable_inside_with_world() {
        let mut eng = Engine::new(MailWorld::new(1));
        eng.spawn("p", |ctx| {
            ctx.advance(SimDuration::micros(2));
            let inner = ctx.clone();
            let (seen, api_now) = ctx.with_world(move |_, api| (inner.now(), api.now()));
            assert_eq!(seen, SimTime(2_000));
            assert_eq!(api_now, seen);
        });
        eng.run().unwrap();
    }

    #[test]
    fn panic_on_the_first_grant_drops_never_started_processes() {
        let mut eng = Engine::new(MailWorld::new(3));
        eng.spawn("victim", |ctx| {
            let _ = &ctx;
            panic!("boom in fiber");
        });
        eng.spawn("waiter", |ctx| {
            recv(&ctx);
        });
        eng.spawn("late", |ctx| {
            // Never scheduled: the victim panics on the very first
            // grant, so this body must be dropped unstarted.
            ctx.advance(SimDuration::millis(1000));
        });
        match eng.run() {
            Err(SimError::ProcPanic { name, message }) => {
                assert_eq!(name, "victim");
                assert!(message.contains("boom in fiber"), "got {message:?}");
            }
            other => panic!("expected panic error, got {:?}", other.map(|(_, o)| o)),
        }
    }

    #[test]
    fn large_world_runs_in_one_thread() {
        // A np=512 ring: one OS thread, 512 fibers.
        let n = 512usize;
        let mut eng = Engine::new(MailWorld::new(n));
        for pid in 0..n {
            eng.spawn(format!("r{pid}"), move |ctx| {
                let next = (pid + 1) % ctx.nprocs();
                ctx.advance(SimDuration::nanos(10 * (pid as u64 % 7 + 1)));
                send(&ctx, next, pid as u64, SimDuration::micros(1));
                let (v, _) = recv(&ctx);
                assert_eq!(v as usize, (pid + ctx.nprocs() - 1) % ctx.nprocs());
            });
        }
        let (_, out) = eng.run().unwrap();
        assert_eq!(out.proc_finish.len(), n);
        assert!(out.metrics.get("sim.direct.handoffs").unwrap_or(0) > 0);
        assert!(
            out.stack_depth_peak > 0,
            "fibers parked, so a depth was seen"
        );
    }

    // ------------------------------------------------------------------
    // The per-thread stack pool
    // ------------------------------------------------------------------

    fn pool_metric(name: &str) -> u64 {
        crate::stack_pool_metrics()
            .get(name)
            .expect("sim.fiber.* metric published")
    }

    /// An `n`-process world in which everyone posts to its right-hand
    /// neighbour and waits for its left-hand one: every fiber starts, parks
    /// and finishes.
    fn ring_world(n: usize) -> Engine<MailWorld> {
        let mut eng = Engine::new(MailWorld::new(n));
        for pid in 0..n {
            eng.spawn(format!("r{pid}"), move |ctx| {
                send(
                    &ctx,
                    (pid + 1) % ctx.nprocs(),
                    pid as u64,
                    SimDuration::micros(1),
                );
                recv(&ctx);
            });
        }
        eng
    }

    #[test]
    fn back_to_back_worlds_reuse_the_same_stacks() {
        on_fresh_thread(|| {
            for _ in 0..50 {
                ring_world(128).run().unwrap();
            }
            assert_eq!(pool_metric("sim.fiber.stacks_mapped"), 128);
            assert_eq!(pool_metric("sim.fiber.stacks_reused"), 49 * 128);
            assert_eq!(pool_metric("sim.fiber.stacks_live"), 0);
            assert_eq!(pool_metric("sim.fiber.pool_free"), 128);
        });
    }

    #[test]
    fn free_list_stays_within_its_cap_after_a_huge_world() {
        on_fresh_thread(|| {
            ring_world(4096).run().unwrap();
            assert_eq!(pool_metric("sim.fiber.stacks_mapped"), 4096);
            assert_eq!(pool_metric("sim.fiber.stacks_live"), 0);
            assert_eq!(
                pool_metric("sim.fiber.pool_free"),
                crate::STACK_POOL_CAP as u64,
                "everything beyond the cap was unmapped"
            );
            // The next world is served from the list first.
            ring_world(300).run().unwrap();
            assert_eq!(
                pool_metric("sim.fiber.stacks_reused"),
                crate::STACK_POOL_CAP as u64
            );
            assert!(pool_metric("sim.fiber.pool_free") <= crate::STACK_POOL_CAP as u64);
        });
    }

    #[test]
    fn failed_worlds_return_every_stack() {
        on_fresh_thread(|| {
            // Deadlock: 8 started and parked forever, none finishes alone.
            let mut eng = Engine::new(MailWorld::new(8));
            for pid in 0..8 {
                eng.spawn(format!("d{pid}"), |ctx| {
                    recv(&ctx);
                });
            }
            assert!(matches!(eng.run(), Err(SimError::Deadlock { .. })));
            assert_eq!(pool_metric("sim.fiber.stacks_mapped"), 8);
            assert_eq!(pool_metric("sim.fiber.stacks_live"), 0);
            assert_eq!(pool_metric("sim.fiber.pool_free"), 8);

            // Panic: the victim runs last (latest clock), so the other
            // seven are parked mid-body when the world is torn down.
            let mut eng = Engine::new(MailWorld::new(8));
            for pid in 0..7 {
                eng.spawn(format!("w{pid}"), |ctx| {
                    recv(&ctx);
                });
            }
            eng.spawn("victim", |ctx| {
                ctx.advance(SimDuration::micros(1));
                panic!("boom");
            });
            assert!(matches!(eng.run(), Err(SimError::ProcPanic { .. })));
            assert_eq!(pool_metric("sim.fiber.stacks_mapped"), 8, "all reused");
            assert_eq!(pool_metric("sim.fiber.stacks_live"), 0);
            assert_eq!(pool_metric("sim.fiber.pool_free"), 8);
        });
    }

    #[test]
    fn concurrent_workers_do_not_share_a_pool() {
        // Two `--jobs`-style workers, alive at the same time (the barrier):
        // with a shared list the second world of one would reuse stacks
        // the other released, and the per-thread counts would not add up.
        let gate = std::sync::Arc::new(std::sync::Barrier::new(2));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let gate = gate.clone();
                std::thread::spawn(move || {
                    ring_world(16).run().unwrap();
                    gate.wait();
                    ring_world(16).run().unwrap();
                    gate.wait();
                    (
                        pool_metric("sim.fiber.stacks_mapped"),
                        pool_metric("sim.fiber.stacks_reused"),
                        pool_metric("sim.fiber.pool_free"),
                    )
                })
            })
            .collect();
        for w in workers {
            assert_eq!(w.join().expect("worker"), (16, 16, 16));
        }
    }
}
