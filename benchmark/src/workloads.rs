//! The four workloads: what one *unit* of each runs, what it checks, and
//! what it reads out. A unit is one or a few complete worlds; every world
//! is `Universe::new(np, device, conn, Polling)` as a user gets it.

use crate::api::{self, Conn, Net, Rank, WorldOut};
use crate::trace::{self, Split};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One world of a unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Body {
    /// 200 barriers, then 200 allreduces of 4×f64 with every sum checked.
    Collectives,
    /// `npb::cg::run(Class::B)`.
    NpbCg,
    /// `npb::is::run(Class::C)`.
    NpbIs,
    /// Nothing: the world is `MPI_Init` and `MPI_Finalize`.
    Empty,
    /// Two rounds of 64-byte exchanges with the rank's NPB-CG partners, in
    /// ascending order (deadlock-free for any symmetric partner relation).
    Exchange,
    /// Every rank sends 64 bytes to rank 0, which receives `MPI_ANY_SOURCE`.
    FanIn,
}

/// Which virtual time of a world the on-demand ÷ static ratio compares.
#[derive(Debug, Clone, Copy)]
enum VirtTime {
    /// Mean over ranks of the body's timed section (llcbench's average).
    MeanRank,
    /// Slowest rank's timed section (what NPB reports).
    MaxRank,
    /// The world's makespan, `MPI_Init` included.
    Makespan,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub np: usize,
    pub net: Net,
    pub why: &'static str,
    /// The unit's worlds, in order, with their connection management.
    worlds: &'static [(Body, Conn)],
    /// Index in `worlds` of the on-demand world whose modelled numbers
    /// (virtual time, VIs, init time) the workload reports, and how its
    /// virtual time is read. Its static twin is the same body under
    /// `Conn::Static`.
    modelled: usize,
    virt: VirtTime,
}

pub const ALL: [Workload; 4] = [
    Workload {
        name: "coll16",
        np: 16,
        net: Net::Clan,
        why: "fig4/fig5 traffic: payload and compute are nil, so host time is scheduler \
              hand-offs, the event queue, the NIC model and device progress",
        worlds: &[(Body::Collectives, Conn::OnDemand)],
        modelled: 0,
        virt: VirtTime::MeanRank,
    },
    Workload {
        name: "cg_b16",
        np: 16,
        net: Net::Bvia,
        why: "the same engine used differently: compute-clock advances plus nonblocking \
              neighbour exchange, on the device where on-demand wins in the paper",
        worlds: &[(Body::NpbCg, Conn::OnDemand)],
        modelled: 0,
        virt: VirtTime::MaxRank,
    },
    Workload {
        name: "is_c16",
        np: 16,
        net: Net::Clan,
        why: "engine-independent: large eager/rendezvous payload movement (alltoallv), \
              pool traffic and kernel arithmetic; engine work should not move it",
        worlds: &[(Body::NpbIs, Conn::OnDemand)],
        modelled: 0,
        virt: VirtTime::MaxRank,
    },
    Workload {
        name: "conn128",
        np: 128,
        net: Net::Clan,
        why: "the paper's mechanism at scale: world construction, VIA handshakes, the \
              connection FSM, the pre-posted-send FIFO and ANY_SOURCE fan-out",
        worlds: &[
            (Body::Empty, Conn::Static),
            (Body::Exchange, Conn::OnDemand),
            (Body::FanIn, Conn::OnDemand),
        ],
        modelled: 1,
        virt: VirtTime::Makespan,
    },
];

impl Workload {
    /// Whether every rank body of the unit is the benchmark's own, so the
    /// boundary accumulator can split it (an NPB kernel's `Mpi` calls
    /// cannot be bracketed from outside).
    pub fn authored_bodies(&self) -> bool {
        !self
            .worlds
            .iter()
            .any(|(b, _)| matches!(b, Body::NpbCg | Body::NpbIs))
    }
}

pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

// ---- inputs -------------------------------------------------------------------

/// SplitMix64: the benchmark's own input generator. The program never
/// sees the seed, only what is generated from it.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const PAYLOAD_LEN: usize = 64;
const COLLECTIVE_REPS: usize = 200;
const REDUCE_WIDTH: usize = 4;
const EXCHANGE_ROUNDS: i32 = 2;
/// Virtual gap between consecutive fan-in senders, so the seed's
/// permutation is the order rank 0 hears from them.
const FAN_IN_STAGGER_NS: u64 = 2_000;

/// Everything a unit's bodies take from the seed, generated once per run.
pub struct Inputs {
    /// Per rank: the allreduce operand (small whole numbers, so sums are
    /// exact in any order).
    operands: Vec<[f64; REDUCE_WIDTH]>,
    operand_sums: [f64; REDUCE_WIDTH],
    /// Per rank: the payload it sends in `Exchange` and `FanIn`.
    payloads: Vec<[u8; PAYLOAD_LEN]>,
    /// Per rank: its `Exchange` partners (NPB-CG's pattern), ascending.
    /// Not drawn from the seed: relabelling the ranks moves the exchange
    /// world's virtual makespan by ±10%, and `virt_time_ratio` has to read
    /// the same for every seed.
    partners: Vec<Vec<usize>>,
    /// Per rank: its position in the `FanIn` sending order.
    fan_in_pos: Vec<u64>,
}

impl Inputs {
    pub fn generate(w: &Workload, seed: u64) -> Arc<Inputs> {
        let np = w.np;
        let mut rng = Rng::new(seed ^ 0x5EED_1A9E_0011_0BAD);
        let operands: Vec<[f64; REDUCE_WIDTH]> = (0..np)
            .map(|_| std::array::from_fn(|_| rng.below(1000) as f64))
            .collect();
        let operand_sums = std::array::from_fn(|k| operands.iter().map(|o| o[k]).sum());
        let payloads = (0..np)
            .map(|_| std::array::from_fn(|_| rng.next() as u8))
            .collect();
        let partners = (0..np).map(|me| api::cg_partners(np, me)).collect();
        // Fisher–Yates over the senders 1..np.
        let mut order: Vec<usize> = (1..np).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let mut fan_in_pos = vec![0u64; np];
        for (pos, &rank) in order.iter().enumerate() {
            fan_in_pos[rank] = pos as u64;
        }
        Arc::new(Inputs {
            operands,
            operand_sums,
            payloads,
            partners,
            fan_in_pos,
        })
    }
}

// ---- rank bodies ----------------------------------------------------------------

/// What one rank hands back: its timed section's virtual length, a word
/// for the determinism digest, and whether its own checks passed.
#[derive(Debug, Clone, Copy)]
struct RankOut {
    timed_ns: u64,
    check: u64,
    ok: bool,
}

fn fnv(h: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn hash_bytes(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| fnv(h, u64::from(b)))
}

fn collectives(r: &Rank<'_>, inp: &Inputs) -> RankOut {
    let np = r.size() as f64;
    let mine = inp.operands[r.rank()];
    let mut ok = true;
    let mut check = FNV_OFFSET;
    // As llcbench does (paper §5.4), one of each before the clock starts:
    // the timed section is steady-state latency, connections already up.
    r.barrier();
    ok &= r.allreduce_sum(&mine) == inp.operand_sums;
    let t0 = r.now_ns();
    for _ in 0..COLLECTIVE_REPS {
        r.barrier();
    }
    for i in 0..COLLECTIVE_REPS {
        let operand: [f64; REDUCE_WIDTH] = std::array::from_fn(|k| mine[k] + i as f64);
        let sum = r.allreduce_sum(&operand);
        ok &= sum.len() == REDUCE_WIDTH
            && (0..REDUCE_WIDTH).all(|k| sum[k] == inp.operand_sums[k] + np * i as f64);
        check = sum.iter().fold(check, |h, s| fnv(h, s.to_bits()));
    }
    RankOut {
        timed_ns: r.now_ns() - t0,
        check,
        ok,
    }
}

fn kernel(k: api::Kernel) -> RankOut {
    RankOut {
        timed_ns: (k.time_secs * 1e9).round() as u64,
        check: k.checksum.to_bits(),
        ok: k.verified,
    }
}

fn exchange(r: &Rank<'_>, inp: &Inputs) -> RankOut {
    let t0 = r.now_ns();
    let me = r.rank();
    let mut ok = true;
    let mut check = FNV_OFFSET;
    for round in 0..EXCHANGE_ROUNDS {
        for &p in &inp.partners[me] {
            let got = r.sendrecv(&inp.payloads[me], p, round);
            ok &= got == inp.payloads[p];
            check = fnv(check, hash_bytes(&got));
        }
    }
    RankOut {
        timed_ns: r.now_ns() - t0,
        check,
        ok,
    }
}

fn fan_in(r: &Rank<'_>, inp: &Inputs) -> RankOut {
    let t0 = r.now_ns();
    let me = r.rank();
    let mut ok = true;
    let mut check = FNV_OFFSET;
    if me == 0 {
        let mut heard = vec![false; r.size()];
        for _ in 1..r.size() {
            let (got, src) = r.recv(None, 7);
            ok &= src != 0 && !std::mem::replace(&mut heard[src], true);
            ok &= got == inp.payloads[src];
            check = fnv(check, src as u64);
        }
    } else {
        r.advance_ns(inp.fan_in_pos[me] * FAN_IN_STAGGER_NS);
        r.send(&inp.payloads[me], 0, 7);
    }
    RankOut {
        timed_ns: r.now_ns() - t0,
        check,
        ok,
    }
}

fn run_body(
    body: Body,
    np: usize,
    net: Net,
    conn: Conn,
    inp: &Arc<Inputs>,
) -> Result<WorldOut<RankOut>, String> {
    let inp = inp.clone();
    api::run_world(np, net, conn, move |r| match body {
        Body::Collectives => collectives(r, &inp),
        Body::NpbCg => kernel(r.npb_cg_class_b()),
        Body::NpbIs => kernel(r.npb_is_class_c()),
        Body::Empty => RankOut {
            timed_ns: 0,
            check: 0,
            ok: true,
        },
        Body::Exchange => exchange(r, &inp),
        Body::FanIn => fan_in(r, &inp),
    })
}

fn virt_secs(how: VirtTime, out: &WorldOut<RankOut>) -> f64 {
    let timed = out.results.iter().map(|r| r.timed_ns as f64);
    let ns = match how {
        VirtTime::MeanRank => timed.sum::<f64>() / out.results.len() as f64,
        VirtTime::MaxRank => timed.fold(0.0, f64::max),
        VirtTime::Makespan => out.end_ns as f64,
    };
    ns / 1e9
}

// ---- units ----------------------------------------------------------------------

/// The program counters the benchmark reads, under the benchmark's metric
/// names: (metric, program names summed, program names subtracted, peak).
/// `peak` gauges combine by maximum across a unit's worlds, counts by sum.
type CounterDef = (
    &'static str,
    &'static [&'static str],
    &'static [&'static str],
    bool,
);

const fn count(name: &'static str, program: &'static [&'static str]) -> CounterDef {
    (name, program, &[], false)
}

const COUNTERS: &[CounterDef] = &[
    count("sim.engine.handoffs", &["sim.handoffs"]),
    (
        "sim.engine.switches",
        &[api::SWITCHES.0],
        api::SWITCHES.1,
        false,
    ),
    count("sim.queue.pushes", &["sim.events_scheduled"]),
    ("sim.queue.peak", &["sim.queue_peak"], &[], true),
    count("sim.queue.cascades", &["sim.wheel.cascades"]),
    count("sim.pool.hits", &["nic.pool.hits"]),
    count("sim.pool.misses", &["nic.pool.misses"]),
    ("sim.pool.live_peak", &["nic.pool.live_peak"], &[], true),
    count("via.nic.msgs_tx", &["nic.msgs_tx"]),
    count("via.nic.bytes_tx", &["nic.bytes_tx"]),
    count("via.nic.vis_created", &["nic.vis_created"]),
    count("via.nic.conn_requests", &["nic.conn_requests"]),
    count("via.nic.conns_established", &["nic.conns_established"]),
    count(
        "via.nic.drops",
        &[
            "nic.drops_unconnected",
            "nic.drops_no_desc",
            "nic.drops_too_big",
            "nic.drops_rdma",
        ],
    ),
    count("core.device.sends", &["mpi.sends"]),
    count("core.device.eager_sent", &["mpi.eager_sent"]),
    count("core.device.rndv_sent", &["mpi.rendezvous_sent"]),
    count("core.device.credit_msgs", &["mpi.credit_msgs"]),
    count("core.device.unexpected_msgs", &["mpi.unexpected_msgs"]),
    count(
        "core.device.fifo_deferred_sends",
        &["mpi.fifo_deferred_sends"],
    ),
    count("core.device.collectives", &["mpi.collectives"]),
];

/// Read one benchmark counter from a world: `None` as soon as one of the
/// summed program names is no longer published (never 0). A subtracted
/// name that is gone subtracts nothing: its mechanism is gone with it.
fn read_counter<R>(out: &WorldOut<R>, plus: &[&str], minus: &[&str]) -> Option<u64> {
    let sum: Option<u64> = plus.iter().map(|n| out.counter(n)).sum();
    let back: u64 = minus.iter().filter_map(|n| out.counter(n)).sum();
    sum.map(|s| s.saturating_sub(back))
}

/// Host-side record of one world of a unit (traced pass only uses `split`).
#[derive(Debug, Clone, Copy)]
pub struct WorldSpan {
    pub start: Instant,
    pub end: Instant,
    pub split: Option<Split>,
}

/// One finished unit.
#[derive(Debug, Clone)]
pub struct UnitOut {
    pub start: Instant,
    pub end: Instant,
    /// Why the unit failed, if it did.
    pub failure: Option<String>,
    /// Hash of everything deterministic the unit produced; equal across
    /// units of one run, or the later unit fails.
    pub digest: u64,
    /// Modelled numbers of the workload's on-demand world.
    pub virt_secs: f64,
    pub vis_per_rank: f64,
    pub virt_init_us: f64,
    pub events: u64,
    /// Benchmark counter name → value over the unit (`None`: not published).
    pub counters: BTreeMap<&'static str, Option<u64>>,
    pub worlds: Vec<WorldSpan>,
}

impl UnitOut {
    pub fn wall_s(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }

    /// Host seconds inside the unit's `Universe::run` calls.
    pub fn worlds_s(&self) -> f64 {
        let total: Duration = self.worlds.iter().map(|ws| ws.end - ws.start).sum();
        total.as_secs_f64()
    }

    /// The accumulator's split summed over the unit's worlds (zero for an
    /// untraced unit).
    pub fn split(&self) -> Split {
        self.worlds
            .iter()
            .filter_map(|ws| ws.split)
            .fold(Split::default(), |a, s| Split {
                inside: a.inside + s.inside,
                body: a.body + s.body,
                kernel: a.kernel + s.kernel,
            })
    }
}

/// Run one unit of `w`. With `traced`, each world runs under the boundary
/// accumulator.
pub fn run_unit(w: &Workload, inp: &Arc<Inputs>, traced: bool) -> UnitOut {
    let start = Instant::now();
    let mut unit = UnitOut {
        start,
        end: start,
        failure: None,
        digest: FNV_OFFSET,
        virt_secs: 0.0,
        vis_per_rank: 0.0,
        virt_init_us: 0.0,
        events: 0,
        counters: BTreeMap::new(),
        worlds: Vec::with_capacity(w.worlds.len()),
    };
    for (i, &(body, conn)) in w.worlds.iter().enumerate() {
        let world_start = Instant::now();
        if traced {
            trace::begin(world_start);
        }
        let out = run_body(body, w.np, w.net, conn, inp);
        let world_end = Instant::now();
        let split = traced.then(|| trace::end(world_end));
        unit.worlds.push(WorldSpan {
            start: world_start,
            end: world_end,
            split,
        });
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                unit.failure = Some(format!("world {i} ({body:?}): {e}"));
                break;
            }
        };
        if let Some(bad) = out.results.iter().position(|r| !r.ok) {
            unit.failure = Some(format!("world {i} ({body:?}): rank {bad} failed its check"));
        }
        unit.digest = digest_world(unit.digest, &out);
        unit.events += out.events;
        for &(name, plus, minus, peak) in COUNTERS {
            let v = read_counter(&out, plus, minus);
            unit.counters
                .entry(name)
                .and_modify(|acc| {
                    *acc = match (*acc, v) {
                        (Some(a), Some(b)) if peak => Some(a.max(b)),
                        (Some(a), Some(b)) => Some(a + b),
                        _ => None,
                    }
                })
                .or_insert(v);
        }
        if i == w.modelled {
            unit.virt_secs = virt_secs(w.virt, &out);
            unit.vis_per_rank = out.avg_vis;
            unit.virt_init_us = out.avg_init_us;
        }
    }
    unit.end = Instant::now();
    unit
}

fn digest_world(mut h: u64, out: &WorldOut<RankOut>) -> u64 {
    h = fnv(h, out.end_ns);
    h = fnv(h, out.avg_vis.to_bits());
    for (r, &finish) in out.results.iter().zip(&out.finish_ns) {
        h = fnv(h, finish);
        h = fnv(h, r.timed_ns);
        h = fnv(h, r.check);
    }
    h
}

/// Virtual time of the static-polling twin of the workload's modelled
/// world: the denominator of `virt_time_ratio`. Untimed, run once.
pub fn static_twin_virt_secs(w: &Workload, inp: &Arc<Inputs>) -> Result<f64, String> {
    let (body, _) = w.worlds[w.modelled];
    let out = run_body(body, w.np, w.net, Conn::Static, inp)?;
    if out.results.iter().any(|r| !r.ok) {
        return Err("static twin failed its check".into());
    }
    Ok(virt_secs(w.virt, &out))
}

/// One empty-body on-demand world at the workload's size and device: world
/// construction, simulated `MPI_Init`, finalize and tear-down. Returns
/// host seconds.
pub fn setup_once(w: &Workload, inp: &Arc<Inputs>) -> Result<f64, String> {
    let t = Instant::now();
    run_body(Body::Empty, w.np, w.net, Conn::OnDemand, inp)?;
    Ok(t.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let w = by_name("conn128").unwrap();
        let (a, b, c) = (
            Inputs::generate(w, 3),
            Inputs::generate(w, 3),
            Inputs::generate(w, 4),
        );
        assert_eq!(a.payloads, b.payloads);
        assert_eq!(a.partners, b.partners);
        assert_eq!(a.fan_in_pos, b.fan_in_pos);
        assert_eq!(a.operands, b.operands);
        assert_ne!(a.payloads, c.payloads);
        assert_ne!(a.fan_in_pos, c.fan_in_pos);
    }

    #[test]
    fn exchange_partners_are_symmetric_and_fan_in_is_a_permutation() {
        let w = by_name("conn128").unwrap();
        for seed in 0..8 {
            let inp = Inputs::generate(w, seed);
            for (me, ps) in inp.partners.iter().enumerate() {
                assert!(!ps.contains(&me));
                assert!(ps.windows(2).all(|p| p[0] < p[1]));
                for &p in ps {
                    assert!(inp.partners[p].contains(&me), "seed {seed}: {me} -> {p}");
                }
            }
            let mut pos: Vec<u64> = inp.fan_in_pos[1..].to_vec();
            pos.sort_unstable();
            assert!(pos.iter().copied().eq(0..w.np as u64 - 1));
        }
    }

    /// A 16-rank stand-in for conn128, so the test stays quick.
    const SMALL: Workload = Workload {
        name: "conn16",
        np: 16,
        net: Net::Clan,
        why: "",
        worlds: &[
            (Body::Empty, Conn::Static),
            (Body::Exchange, Conn::OnDemand),
            (Body::FanIn, Conn::OnDemand),
        ],
        modelled: 1,
        virt: VirtTime::Makespan,
    };

    #[test]
    fn digest_is_stable_across_runs_of_one_world_and_moves_with_the_seed() {
        let inp = Inputs::generate(&SMALL, 1);
        let (a, b) = (run_unit(&SMALL, &inp, false), run_unit(&SMALL, &inp, false));
        assert_eq!(a.failure, None);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.virt_secs.to_bits(), b.virt_secs.to_bits());
        let other = run_unit(&SMALL, &Inputs::generate(&SMALL, 2), false);
        assert_eq!(other.failure, None);
        assert_ne!(a.digest, other.digest);
    }

    #[test]
    fn the_modelled_world_is_the_on_demand_exchange_and_has_a_static_twin() {
        let inp = Inputs::generate(&SMALL, 1);
        let unit = run_unit(&SMALL, &inp, false);
        // NPB-CG's pattern at np=16 has five partners; static wires all 15.
        assert!(unit.vis_per_rank < 15.0, "{}", unit.vis_per_rank);
        assert!(unit.virt_init_us > 0.0);
        let twin = static_twin_virt_secs(&SMALL, &inp).unwrap();
        assert!(twin > 0.0 && unit.virt_secs > 0.0 && twin != unit.virt_secs);
    }

    #[test]
    fn an_unknown_counter_name_is_none_not_zero() {
        let inp = Inputs::generate(&SMALL, 1);
        let out = run_body(Body::Empty, 4, Net::Clan, Conn::OnDemand, &inp).unwrap();
        assert_eq!(read_counter(&out, &["sim.no_such_counter"], &[]), None);
        assert_eq!(
            read_counter(&out, &["nic.msgs_tx", "sim.no_such_counter"], &[]),
            None
        );
        assert_eq!(read_counter(&out, &["nic.drops_no_desc"], &[]), Some(0));
        let grants = read_counter(&out, &["sim.handoffs"], &[]).unwrap();
        assert!(grants > 0);
        // A subtrahend that is gone subtracts nothing.
        assert_eq!(
            read_counter(&out, &["sim.handoffs"], &["sim.no_such_counter"]),
            Some(grants)
        );
    }

    #[test]
    fn a_wrong_collective_result_fails_the_unit() {
        // Operand sums that do not match the operands: every rank's check
        // must trip.
        let w = &ALL[0];
        let good = Inputs::generate(w, 1);
        let bad = Arc::new(Inputs {
            operands: good.operands.clone(),
            operand_sums: [1.0; REDUCE_WIDTH],
            payloads: good.payloads.clone(),
            partners: good.partners.clone(),
            fan_in_pos: good.fan_in_pos.clone(),
        });
        let small = Workload { np: 4, ..*w };
        assert!(run_unit(&small, &bad, false).failure.is_some());
    }
}
