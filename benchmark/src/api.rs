//! Every call the benchmark makes into the program, in one file. README.md
//! lists this surface; a refactor of the program has to keep exactly this
//! file compiling, and nothing else in `benchmark/` names a program type.
//!
//! Nothing here touches an engine knob: worlds are built by
//! `Universe::new(np, device, conn, wait)` and run as they come.

use crate::trace;
use std::time::Instant;
use viampi_core::matching::{MatchEngine, PostedRecv, Unexpected, UnexpectedBody};
use viampi_core::{ConnMode, Device, Mpi, ReduceOp, RunReport, Universe, WaitPolicy};
use viampi_npb::{cg, is, patterns, Class, KernelResult};
use viampi_sim::{
    Api, BufferPool, Engine, EventQueue, MetricsSnapshot, Outcome, SimDuration, SimTime, World,
};
use viampi_via::{fabric_engine, CompletionKind, DeviceProfile, Discriminator, ViaPort};

// ---- worlds -----------------------------------------------------------------

/// The modelled interconnect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Net {
    /// GigaNet cLAN.
    Clan,
    /// Berkeley VIA over Myrinet.
    Bvia,
}

/// Connection management; the wait policy is always polling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Conn {
    OnDemand,
    /// Fully connected in `MPI_Init`, peer-to-peer model: the on-demand
    /// worlds' static-polling twin.
    Static,
}

/// What the benchmark reads out of a finished world's `RunReport`.
#[derive(Debug, Clone)]
pub struct WorldOut<R> {
    pub results: Vec<R>,
    /// Virtual makespan, ns.
    pub end_ns: u64,
    /// Virtual finish time of each rank, ns.
    pub finish_ns: Vec<u64>,
    pub events: u64,
    pub avg_vis: f64,
    /// Mean virtual `MPI_Init` time, µs.
    pub avg_init_us: f64,
    counters: MetricsSnapshot,
}

impl<R> WorldOut<R> {
    /// A counter or gauge of the run by the program's own name; `None` for
    /// a name the program does not publish (never 0).
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name)
    }
}

/// Build an `np`-rank world and run `body` on every rank. The body runs on
/// the `Body` side of the trace accumulator (a no-op unless tracing).
pub fn run_world<R, F>(np: usize, net: Net, conn: Conn, body: F) -> Result<WorldOut<R>, String>
where
    R: Send + 'static,
    F: Fn(&Rank<'_>) -> R + Send + Sync + 'static,
{
    let device = match net {
        Net::Clan => Device::Clan,
        Net::Bvia => Device::Berkeley,
    };
    let conn = match conn {
        Conn::OnDemand => ConnMode::OnDemand,
        Conn::Static => ConnMode::StaticPeerToPeer,
    };
    let report: RunReport<R> = Universe::new(np, device, conn, WaitPolicy::Polling)
        .run(move |mpi| {
            trace::enter_body();
            let r = body(&Rank { mpi });
            trace::leave_body();
            r
        })
        .map_err(|e| format!("simulation failed: {e}"))?;
    Ok(WorldOut {
        end_ns: report.end_time.as_nanos(),
        finish_ns: report.ranks.iter().map(|r| r.finish.as_nanos()).collect(),
        events: report.events,
        avg_vis: report.avg_vis(),
        avg_init_us: report.avg_init_time().as_micros_f64(),
        counters: report.metrics,
        results: report.results,
    })
}

/// One rank's MPI handle as a benchmark-authored body sees it: each call
/// crosses the trace accumulator's boundary on the way in and out.
pub struct Rank<'a> {
    mpi: &'a Mpi,
}

impl Rank<'_> {
    pub fn rank(&self) -> usize {
        self.mpi.rank()
    }

    pub fn size(&self) -> usize {
        self.mpi.size()
    }

    /// Current virtual time, ns.
    pub fn now_ns(&self) -> u64 {
        self.mpi.now().as_nanos()
    }

    /// Let `ns` of virtual time pass on this rank.
    pub fn advance_ns(&self, ns: u64) {
        trace::inside(|| self.mpi.advance(SimDuration::nanos(ns)))
    }

    pub fn send(&self, buf: &[u8], dst: usize, tag: i32) {
        trace::inside(|| self.mpi.send(buf, dst, tag))
    }

    /// Blocking receive; `src = None` is `MPI_ANY_SOURCE`. Returns the
    /// payload and the actual source.
    pub fn recv(&self, src: Option<usize>, tag: i32) -> (Vec<u8>, usize) {
        let (data, status) = trace::inside(|| self.mpi.recv(src, Some(tag)));
        (data, status.source)
    }

    /// Exchange one message with `peer` in both directions.
    pub fn sendrecv(&self, buf: &[u8], peer: usize, tag: i32) -> Vec<u8> {
        trace::inside(|| self.mpi.sendrecv(buf, peer, tag, Some(peer), Some(tag)).0)
    }

    pub fn barrier(&self) {
        trace::inside(|| self.mpi.barrier())
    }

    pub fn allreduce_sum(&self, data: &[f64]) -> Vec<f64> {
        trace::inside(|| self.mpi.allreduce(data, ReduceOp::Sum))
    }

    /// The NPB kernels take the program's own handle, so their `Mpi` calls
    /// are not bracketed: the whole kernel counts as body.
    pub fn npb_cg_class_b(&self) -> Kernel {
        cg::run(self.mpi, Class::B).into()
    }

    pub fn npb_is_class_c(&self) -> Kernel {
        is::run(self.mpi, Class::C).into()
    }
}

/// What the benchmark keeps of an NPB `KernelResult`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Kernel {
    pub verified: bool,
    /// Virtual seconds of the kernel's timed section on this rank.
    pub time_secs: f64,
    pub checksum: f64,
}

impl From<KernelResult> for Kernel {
    fn from(k: KernelResult) -> Self {
        Kernel {
            verified: k.verified,
            time_secs: k.time_secs,
            checksum: k.checksum,
        }
    }
}

/// NPB CG's communication partners of rank `me` (a symmetric relation).
pub fn cg_partners(np: usize, me: usize) -> Vec<usize> {
    patterns::cg_rank(np, me).into_iter().collect()
}

// ---- probes: one batch of isolated work each, timed by the caller's clock ---

/// The engine counters behind `sim.engine.switches`: token grants, minus
/// the grants that handed the token straight back to the process that
/// held it. A subtrahend the program no longer publishes counts as none.
pub const SWITCHES: (&str, &[&str]) = (
    "sim.handoffs",
    &["sim.fast_resumes", "sim.direct.self_resumes"],
);

fn switches(m: &MetricsSnapshot) -> Option<u64> {
    let (grants, back_to_self) = SWITCHES;
    let back: u64 = back_to_self.iter().filter_map(|n| m.get(n)).sum();
    m.get(grants).map(|g| g.saturating_sub(back))
}

/// Host seconds plus the engine's own counts for one probe batch.
#[derive(Debug, Clone, Copy)]
pub struct Batch {
    pub wall_s: f64,
    /// Operations the batch performed (the probe's divisor).
    pub ops: u64,
    /// Process switches and events of the batch, where an engine ran.
    pub switches: Option<u64>,
    pub events: Option<u64>,
}

impl Batch {
    fn plain(wall_s: f64, ops: u64) -> Self {
        Batch {
            wall_s,
            ops,
            switches: None,
            events: None,
        }
    }

    fn engine(wall_s: f64, ops: u64, out: &Outcome) -> Self {
        Batch {
            wall_s,
            ops,
            switches: switches(&out.metrics),
            events: Some(out.events_processed),
        }
    }
}

struct Nop;

impl World for Nop {
    type Event = ();
    fn handle_event(&mut self, _: (), _: &mut Api<'_, ()>) {}
}

fn run_nop_engine(procs: usize, steps: u64, yield_each_step: bool) -> (f64, Outcome) {
    let t = Instant::now();
    let mut eng = Engine::new(Nop);
    for p in 0..procs {
        eng.spawn(format!("p{p}"), move |ctx| {
            for _ in 0..steps {
                ctx.advance(SimDuration::nanos(10));
                if yield_each_step {
                    ctx.yield_now();
                }
            }
        });
    }
    let (_, out) = eng.run().expect("a no-op world cannot deadlock");
    (t.elapsed().as_secs_f64(), out)
}

/// Two processes on a no-op world, each advancing and yielding `n` times:
/// at every yield the peer's clock is the earlier one, so the token
/// passes. ops = the switches the engine itself counted (the yields, if
/// it no longer counts), so that `workload switches × cost` prices the
/// same thing the workload's counter counts.
pub fn engine_token_pass(n: u64) -> Batch {
    let (wall, out) = run_nop_engine(2, n, true);
    let batch = Batch::engine(wall, 2 * n, &out);
    Batch {
        ops: batch.switches.unwrap_or(batch.ops),
        ..batch
    }
}

/// A lone process advancing `n` times without touching the world: the
/// compute-clock path.
pub fn engine_lone_advance(n: u64) -> Batch {
    let (wall, out) = run_nop_engine(1, n, false);
    Batch::engine(wall, n, &out)
}

/// `procs` processes that each yield once and finish: spawn, first
/// schedule and tear-down. ops = processes.
pub fn engine_spawn(procs: usize) -> Batch {
    let t = Instant::now();
    let mut eng = Engine::new(Nop);
    for p in 0..procs {
        eng.spawn(format!("p{p}"), |ctx| ctx.yield_now());
    }
    let (_, out) = eng.run().expect("a no-op world cannot deadlock");
    Batch::engine(t.elapsed().as_secs_f64(), procs as u64, &out)
}

/// Push then pop every time in `times_ns` through one `EventQueue`.
/// ops = push/pop pairs.
pub fn queue_push_pop(times_ns: &[u64]) -> Batch {
    let t = Instant::now();
    let mut q = EventQueue::with_capacity(times_ns.len());
    for (i, &at) in times_ns.iter().enumerate() {
        q.push(SimTime(at), i);
    }
    let mut popped = 0u64;
    while let Some(e) = q.pop() {
        std::hint::black_box(e);
        popped += 1;
    }
    assert_eq!(popped, times_ns.len() as u64);
    Batch::plain(t.elapsed().as_secs_f64(), popped)
}

/// `reps` wire frames of a 32-byte header plus `payload`, each dropped
/// back to the pool: the data plane's one copy. ops = frames.
pub fn pool_prefixed(payload: &[u8], reps: u64) -> Batch {
    let pool = BufferPool::new();
    let t = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(pool.prefixed(32, std::hint::black_box(payload)));
    }
    Batch::plain(t.elapsed().as_secs_f64(), reps)
}

/// `reps` zero-filled `len`-byte allocations, each dropped back.
pub fn pool_alloc(len: usize, reps: u64) -> Batch {
    let pool = BufferPool::new();
    let t = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(pool.alloc(std::hint::black_box(len)));
    }
    Batch::plain(t.elapsed().as_secs_f64(), reps)
}

/// Post `depth` receives, then match `depth` arrivals against them.
/// ops = post/match pairs.
pub fn matching_post_match(depth: u64, reps: u64) -> Batch {
    let t = Instant::now();
    for _ in 0..reps {
        let mut m = MatchEngine::new();
        for i in 0..depth {
            m.post_recv(PostedRecv {
                req: i,
                context: 0,
                src: Some((i % 8) as u32),
                tag: Some(i as i32),
            });
        }
        for i in 0..depth {
            let hit = m.incoming(0, (i % 8) as u32, i as i32);
            assert!(std::hint::black_box(hit).is_some());
        }
    }
    Batch::plain(t.elapsed().as_secs_f64(), depth * reps)
}

/// Park `depth` unexpected messages, then post receives that match them
/// newest-first, so each post walks the queue. ops = receives posted.
pub fn matching_unexpected_scan(depth: u64, reps: u64) -> Batch {
    let t = Instant::now();
    for _ in 0..reps {
        let mut m = MatchEngine::new();
        for i in 0..depth {
            m.push_unexpected(Unexpected {
                context: 0,
                src: (i % 8) as u32,
                tag: i as i32,
                body: UnexpectedBody::Eager(vec![0u8; 16].into()),
            });
        }
        for i in (0..depth).rev() {
            let hit = m.post_recv(PostedRecv {
                req: i,
                context: 0,
                src: Some((i % 8) as u32),
                tag: Some(i as i32),
            });
            assert!(std::hint::black_box(hit).is_some());
        }
    }
    Batch::plain(t.elapsed().as_secs_f64(), depth * reps)
}

/// Raw VIA ping-pong between two nodes over `fabric_engine` + `ViaPort`:
/// `round_trips` × 2 messages of `size` bytes. ops = messages.
pub fn via_pingpong(size: usize, round_trips: u64) -> Batch {
    let t = Instant::now();
    let mut eng = fabric_engine(DeviceProfile::clan(), 2);
    let slot = size.max(64);
    for me in 0..2usize {
        eng.spawn(format!("n{me}"), move |ctx| {
            let port = ViaPort::open(ctx, me);
            let vi = port.create_vi().expect("create VI");
            let mem = port.register(2 * slot + 128).expect("register");
            port.post_recv(vi, mem, 0, slot).expect("post recv");
            port.connect_peer(vi, 1 - me, Discriminator(1))
                .expect("connect");
            port.connect_wait(vi).expect("connect wait");
            let data_off = slot + 64;
            for _ in 0..round_trips {
                if me == 0 {
                    port.post_send(vi, mem, data_off, size, 0).expect("send");
                }
                wait_for_recv(&port);
                port.post_recv(vi, mem, 0, slot).expect("post recv");
                if me == 1 {
                    port.post_send(vi, mem, data_off, size, 0).expect("send");
                }
            }
        });
    }
    let (_, out) = eng.run().expect("ping-pong cannot deadlock");
    Batch::engine(t.elapsed().as_secs_f64(), 2 * round_trips, &out)
}

fn wait_for_recv(port: &ViaPort) {
    loop {
        let stamp = port.activity_stamp();
        match port.cq_poll() {
            Some(c) if c.kind == CompletionKind::Recv => return,
            Some(_) => {}
            None => {
                port.wait_activity(stamp);
            }
        }
    }
}

/// Two nodes wire `conns` VI pairs peer-to-peer, all requests in flight
/// at once as a static `MPI_Init` issues them. ops = connections.
pub fn via_connect(conns: u64) -> Batch {
    let t = Instant::now();
    let mut eng = fabric_engine(DeviceProfile::clan(), 2);
    for me in 0..2usize {
        eng.spawn(format!("n{me}"), move |ctx| {
            let port = ViaPort::open(ctx, me);
            let vis: Vec<_> = (0..conns)
                .map(|d| {
                    let vi = port.create_vi().expect("create VI");
                    port.connect_peer(vi, 1 - me, Discriminator(d + 1))
                        .expect("connect");
                    vi
                })
                .collect();
            for vi in vis {
                let state = port.connect_wait(vi).expect("connect wait");
                assert!(state.is_connected());
            }
        });
    }
    let (_, out) = eng.run().expect("connects cannot deadlock");
    Batch::engine(t.elapsed().as_secs_f64(), conns, &out)
}

/// Two-rank MPI ping-pong of `size`-byte messages over an on-demand cLAN
/// world, after one warm-up exchange. ops = messages; the world's set-up
/// is inside the wall time, so use enough round trips to drown it.
pub fn mpi_pingpong(size: usize, round_trips: u64) -> Batch {
    let t = Instant::now();
    let report = Universe::new(2, Device::Clan, ConnMode::OnDemand, WaitPolicy::Polling)
        .run(move |mpi| {
            let other = 1 - mpi.rank();
            let buf = vec![0x5Au8; size];
            mpi.sendrecv(&buf, other, 0, Some(other), Some(0));
            for _ in 0..round_trips {
                if mpi.rank() == 0 {
                    mpi.send(&buf, 1, 1);
                    mpi.recv(Some(1), Some(1));
                } else {
                    mpi.recv(Some(0), Some(1));
                    mpi.send(&buf, 0, 1);
                }
            }
        })
        .expect("ping-pong cannot deadlock");
    Batch {
        wall_s: t.elapsed().as_secs_f64(),
        ops: 2 * round_trips,
        switches: switches(&report.metrics),
        events: Some(report.events),
    }
}
