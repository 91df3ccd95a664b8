//! simcheck — deterministic fault-injection & schedule-exploration harness.
//!
//! Each seed deterministically derives a whole scenario: a world size, a
//! small MPI program, a device, a connection mode, a wait policy, a
//! scheduler tie-break seed and a fault-injector seed. The scenario is
//! simulated with connection faults enabled. `Universe::run` holds every
//! world to the channel laws of `viampi_core::invariants` — nothing queued
//! or in flight, at most one connected VI per pair and stripe, `Connected`
//! only over connected VIs, credit conservation, posted windows — and a
//! broken law comes back as the seed's violation. The programs here end in
//! a quiesce, so the harness also checks what only a quiesced world
//! promises:
//!
//! * **settled connections** — every channel ends `Unconnected` or
//!   `Connected`;
//! * **no lost or duplicated message, per-sender FIFO** — payloads carry
//!   `(sender, sequence)` and every rank checks it received exactly the
//!   expected sequences, in order, with intact bytes;
//! * **transparent recovery** — sub-budget packet loss must never surface
//!   as an application error (`conn_failures == 0`).
//!
//! A violation reports the offending seed; rerunning that seed replays the
//! identical schedule and fault pattern (see `--replay` on the `simcheck`
//! binary).

use crate::record;
use crate::report::{table, Output};
use crate::runner::par_map;
use viampi_core::{ChanState, ConnMode, Device, FaultProfile, RunReport, Universe, WaitPolicy};
use viampi_sim::{MetricsSnapshot, SimDuration, SimError, SplitMix64};

/// Fault intensity selector for a batch of seeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// No fault injection at all: pure schedule exploration.
    None,
    /// [`FaultProfile::light`] rates.
    Light,
    /// [`FaultProfile::heavy`] rates.
    Heavy,
}

impl FaultKind {
    /// Parse a `--fault` argument.
    pub fn parse(s: &str) -> Option<FaultKind> {
        match s {
            "none" => Some(FaultKind::None),
            "light" => Some(FaultKind::Light),
            "heavy" => Some(FaultKind::Heavy),
            _ => None,
        }
    }

    /// Name for reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::None => "none",
            FaultKind::Light => "light",
            FaultKind::Heavy => "heavy",
        }
    }

    fn profile(self, seed: u64) -> Option<FaultProfile> {
        match self {
            FaultKind::None => None,
            FaultKind::Light => Some(FaultProfile::light(seed)),
            FaultKind::Heavy => Some(FaultProfile::heavy(seed)),
        }
    }
}

/// The small MPI programs the harness cycles through. Every program is
/// symmetric enough that both ends of each communicating pair initiate the
/// channel (a rank that stops progressing can otherwise strand a peer whose
/// retransmissions it alone could answer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Program {
    /// Directed eager traffic around a ring, `m` messages per hop.
    Ring,
    /// Connection storm: rank 0 receives `(np-1) * m` `MPI_ANY_SOURCE`
    /// messages while every other rank sends and awaits a directed ack —
    /// the §3.5 worst case (wildcard receive connects to every peer).
    Storm,
    /// Pairwise sendrecv rounds with rendezvous-sized payloads.
    ShiftLarge,
    /// Every rank exchanges `m` eager messages with every other rank.
    AllToAll,
}

impl Program {
    fn name(self) -> &'static str {
        match self {
            Program::Ring => "ring",
            Program::Storm => "storm",
            Program::ShiftLarge => "shift-large",
            Program::AllToAll => "all-to-all",
        }
    }
}

/// Fully derived scenario for one seed.
#[derive(Debug, Clone)]
struct Scenario {
    np: usize,
    program: Program,
    device: Device,
    conn: ConnMode,
    wait: WaitPolicy,
    dynamic_credits: bool,
    sched_seed: u64,
    fault_seed: u64,
    /// Messages per pair/hop.
    m: u32,
    /// Percent scaling (25–100) applied to every fault probability; the
    /// shrinker walks it down to find the mildest still-failing intensity.
    fault_scale: u32,
    /// Retry-edge mutation: override the profile's connection-drop
    /// probability (always kept sub-budget, ≤ 0.18).
    drop_override: Option<f64>,
    /// Data-plane jitter `(delay_prob, reorder_prob, delay_max_us)`.
    data_jitter: Option<(f64, f64, u64)>,
    /// Stripe VIs per peer pair (the endpoints axis; 1 = the paper's
    /// single-VI channel).
    vis_per_peer: usize,
    /// Simulated producer threads. Threads map to peers (`thread = peer %
    /// threads`), so each pair's traffic stays on one stripe and per-source
    /// FIFO expectations hold; cross-VI relaxed ordering within a pair is
    /// fig9's territory.
    threads: usize,
}

/// Derive the scenario for `seed` (a pure function of the seed).
///
/// The draw sequence below is frozen: every pre-campaign corpus seed must
/// keep its exact scenario. New scenario territory (large np, data jitter,
/// …) lives in the mutated-key namespace (see [`key`]), never in new draws
/// here.
fn derive(seed: u64) -> Scenario {
    let mut rng = SplitMix64::new(seed ^ 0x51AC_C4EC_5EED_0001);
    Scenario {
        np: 2 + rng.next_below(5) as usize,
        program: match rng.next_below(4) {
            0 => Program::Ring,
            1 => Program::Storm,
            2 => Program::ShiftLarge,
            _ => Program::AllToAll,
        },
        device: if rng.next_below(2) == 0 {
            Device::Clan
        } else {
            Device::Berkeley
        },
        conn: match rng.next_below(10) {
            0..=5 => ConnMode::OnDemand,
            6..=7 => ConnMode::StaticPeerToPeer,
            _ => ConnMode::StaticClientServer,
        },
        wait: if rng.next_below(2) == 0 {
            WaitPolicy::Polling
        } else {
            WaitPolicy::spinwait_default()
        },
        dynamic_credits: rng.next_below(4) == 0,
        sched_seed: rng.next_u64(),
        fault_seed: rng.next_u64(),
        m: 2 + rng.next_below(3) as u32,
        fault_scale: 100,
        drop_override: None,
        data_jitter: None,
        vis_per_peer: 1,
        threads: 1,
    }
}

/// Campaign scenario-key encoding.
///
/// A key is a `u64` whose top 4 bits (the *tag*) select its class:
///
/// * tag `0` — **plain seed**: the whole key is the seed fed to `derive`,
///   so every pre-campaign corpus seed keeps its exact scenario;
/// * a tag that names an [`Axis`] — **mutated**: bits 0–47 hold the 48-bit
///   root seed, bits 48–59 a 12-bit variant, and the tag is the axis being
///   mutated away from the root's derived scenario (one axis per key);
///   [`key::check`] refuses every other tag in `1..=14`;
/// * tag `0xF` — **shrink**: bits 0–47 hold the root, bits 56–59 the
///   parent's mutation axis (0 = plain parent) and bits 48–55 pack the
///   shrink overrides as table indices (np, messages-per-pair, fault
///   scale).
///
/// Every key is therefore replayable from a bare `u64` — children and
/// minimized violations included — with no side table.
pub mod key {
    /// Mask of the 48-bit root-seed field.
    pub const ROOT_MASK: u64 = (1u64 << 48) - 1;
    /// Tag of shrink keys.
    pub const SHRINK_TAG: u64 = 0xF;

    /// Top-4-bit class tag.
    pub fn tag(k: u64) -> u64 {
        k >> 60
    }

    /// 48-bit root seed (identity for plain keys below 2⁴⁸).
    pub fn root(k: u64) -> u64 {
        k & ROOT_MASK
    }

    /// 12-bit mutation variant of a mutated key.
    pub fn variant(k: u64) -> u32 {
        ((k >> 48) & 0xFFF) as u32
    }

    /// Is `k` a plain seed?
    pub fn is_plain(k: u64) -> bool {
        tag(k) == 0
    }

    /// Is `k` a shrink key?
    pub fn is_shrink(k: u64) -> bool {
        tag(k) == SHRINK_TAG
    }

    /// Encode a mutated child key.
    pub fn mutated(axis: super::Axis, variant: u32, root: u64) -> u64 {
        ((axis as u64) << 60) | (((variant as u64) & 0xFFF) << 48) | (root & ROOT_MASK)
    }

    /// Encode a shrink key (`parent_axis` 0 means the parent was plain).
    pub fn shrink(
        parent_axis: u64,
        np_idx: usize,
        m_idx: usize,
        scale_idx: usize,
        root: u64,
    ) -> u64 {
        (SHRINK_TAG << 60)
            | ((parent_axis & 0xF) << 56)
            | (((np_idx as u64) & 0xF) << 52)
            | (((m_idx as u64) & 0x3) << 50)
            | (((scale_idx as u64) & 0x3) << 48)
            | (root & ROOT_MASK)
    }

    /// Decode a shrink key's `(parent_axis, np_idx, m_idx, scale_idx)`.
    pub fn shrink_parts(k: u64) -> (u64, usize, usize, usize) {
        (
            (k >> 56) & 0xF,
            ((k >> 52) & 0xF) as usize,
            ((k >> 50) & 0x3) as usize,
            ((k >> 48) & 0x3) as usize,
        )
    }

    /// Refuse a key whose tag — or, for a shrink key, whose parent-axis
    /// nibble — names no [`Axis`](super::Axis): such a key has no
    /// scenario. Keys from outside a campaign (`--replay`, corpus lines)
    /// pass through here before they run.
    pub fn check(k: u64) -> Result<(), String> {
        let axis = match tag(k) {
            0 => return Ok(()),
            SHRINK_TAG => match shrink_parts(k).0 {
                0 => return Ok(()),
                parent => parent,
            },
            t => t,
        };
        match super::Axis::from_tag(axis) {
            Some(_) => Ok(()),
            None => Err(format!("key {k:#018x}: tag {axis} names no scenario axis")),
        }
    }
}

/// One scenario axis a derived child key mutates away from its root. The
/// discriminant doubles as the key tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u64)]
pub enum Axis {
    /// Large world sizes (np 8–64): wide connection fan-out.
    NpLarge = 1,
    /// Force the §3.5 wildcard-receive connection storm at np 6–32.
    Storm = 2,
    /// On-demand connections under boosted — but still sub-budget —
    /// drop rates: the retry-budget edge.
    RetryEdge = 3,
    /// More messages per pair (m 4–15): deeper credit/FIFO pressure.
    Msgs = 4,
    /// Sweep connection mode × wait policy × dynamic credits.
    ConnWait = 5,
    /// Lossless data-plane delay/reorder jitter: the pooled data path
    /// under adversarial wire schedules.
    DataJitter = 6,
    /// Dynamic flow control on, with enough traffic to trigger growth.
    DynCredits = 7,
    // Tags 8, 9 and 11 are retired: they selected engine modes that no
    // longer exist, and `key::check` refuses them. The numbers are never
    // reused, so surviving axes keep their tags and signature bytes.
    /// Multi-VI endpoints: stripe VIs per pair × producer threads. The
    /// world-end laws hold per (peer, stripe): per-VI credit conservation
    /// and the per-pair VI cap.
    Endpoints = 10,
}

impl Axis {
    /// Every axis, in tag order.
    pub const ALL: [Axis; 8] = [
        Axis::NpLarge,
        Axis::Storm,
        Axis::RetryEdge,
        Axis::Msgs,
        Axis::ConnWait,
        Axis::DataJitter,
        Axis::DynCredits,
        Axis::Endpoints,
    ];

    /// Axis for a key tag in `1..=14`.
    pub fn from_tag(t: u64) -> Option<Axis> {
        Axis::ALL.into_iter().find(|&a| a as u64 == t)
    }

    /// Name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Axis::NpLarge => "np-large",
            Axis::Storm => "storm",
            Axis::RetryEdge => "retry-edge",
            Axis::Msgs => "msgs",
            Axis::ConnWait => "conn-wait",
            Axis::DataJitter => "data-jitter",
            Axis::DynCredits => "dyn-credits",
            Axis::Endpoints => "endpoints",
        }
    }

    /// Child-spawn weight: the campaign biases exploration toward large
    /// np, `ANY_SOURCE` storms and retry-budget edges.
    pub fn weight(self) -> u32 {
        match self {
            Axis::NpLarge | Axis::Storm | Axis::RetryEdge => 4,
            Axis::DataJitter | Axis::Endpoints => 2,
            Axis::Msgs | Axis::ConnWait | Axis::DynCredits => 1,
        }
    }
}

/// np ladder the shrinker walks down (shrink keys index into it).
const NP_SHRINK: [usize; 13] = [2, 3, 4, 5, 6, 8, 10, 12, 16, 24, 32, 48, 64];
/// Messages-per-pair ladder.
const M_SHRINK: [u32; 4] = [1, 2, 4, 8];
/// Fault-intensity ladder, percent of the profile's rates.
const SCALE_SHRINK: [u32; 4] = [25, 50, 75, 100];

/// Mutate one axis of `sc` (the root's derived scenario). The full key
/// salts a fresh RNG, so every variant also gets new scheduler and fault
/// seeds — same topology, different race.
fn apply_axis(mut sc: Scenario, axis: Axis, variant: u32, k: u64) -> Scenario {
    let mut rng = SplitMix64::new(k ^ 0x0DD5_EED5_0C4A_FE01);
    sc.sched_seed = rng.next_u64();
    sc.fault_seed = rng.next_u64();
    match axis {
        Axis::NpLarge => {
            const NP_BAND: [usize; 11] = [8, 10, 12, 16, 20, 24, 32, 40, 48, 56, 64];
            sc.np = NP_BAND[variant as usize % NP_BAND.len()];
            // Keep the widest worlds affordable: rendezvous shift rounds
            // and full all-to-all grow quadratically with np.
            if sc.np > 24 && sc.program == Program::ShiftLarge {
                sc.program = Program::Ring;
            }
            if sc.np > 32 && sc.program == Program::AllToAll {
                sc.program = Program::Ring;
            }
            if sc.np >= 32 {
                sc.m = sc.m.min(2);
            }
        }
        Axis::Storm => {
            sc.program = Program::Storm;
            sc.np = 6 + (variant as usize % 27);
        }
        Axis::RetryEdge => {
            sc.conn = ConnMode::OnDemand;
            // 0.06..=0.18: deep retry chains, yet budget exhaustion
            // (P ≈ drop^(retry_max+1)) stays negligible.
            sc.drop_override = Some(0.06 + 0.02 * (variant % 7) as f64);
        }
        Axis::Msgs => {
            sc.m = 4 + variant % 12;
        }
        Axis::ConnWait => {
            sc.conn = match variant % 3 {
                0 => ConnMode::OnDemand,
                1 => ConnMode::StaticPeerToPeer,
                _ => ConnMode::StaticClientServer,
            };
            sc.wait = if (variant / 3).is_multiple_of(2) {
                WaitPolicy::Polling
            } else {
                WaitPolicy::spinwait_default()
            };
            sc.dynamic_credits = (variant / 6) % 2 == 1;
        }
        Axis::DataJitter => {
            let dp = 0.25 + 0.05 * (variant % 8) as f64;
            let rp = 0.10 + 0.05 * ((variant / 8) % 4) as f64;
            let max = 200 + 400 * ((variant / 32) % 4) as u64;
            sc.data_jitter = Some((dp, rp, max));
        }
        Axis::DynCredits => {
            sc.dynamic_credits = true;
            sc.m = 3 + variant % 6;
        }
        Axis::Endpoints => {
            // Stripe count × producer threads, covering T < S (idle
            // stripes), T == S (one thread per VI) and T > S (threads
            // sharing stripes, the convoy path).
            sc.vis_per_peer = [2, 4][variant as usize % 2];
            sc.threads = [1, 2, 4][(variant as usize / 2) % 3];
        }
    }
    sc
}

/// The axis a tag of a [`key::check`]ed key names.
fn axis_of(tag: u64) -> Axis {
    Axis::from_tag(tag).expect("invariant: keys from outside a campaign pass key::check")
}

/// Derive the scenario for a campaign key (a pure function of the key).
/// Plain keys reproduce [`derive`] exactly.
fn derive_key(k: u64) -> Scenario {
    match key::tag(k) {
        0 => derive(k),
        key::SHRINK_TAG => {
            let (axis, np_idx, m_idx, scale_idx) = key::shrink_parts(k);
            let root = key::root(k);
            let mut sc = match axis {
                0 => derive(root),
                t => {
                    let a = axis_of(t);
                    apply_axis(derive(root), a, 0, key::mutated(a, 0, root))
                }
            };
            sc.np = NP_SHRINK[np_idx.min(NP_SHRINK.len() - 1)];
            sc.m = M_SHRINK[m_idx];
            sc.fault_scale = SCALE_SHRINK[scale_idx];
            sc
        }
        t => apply_axis(derive(key::root(k)), axis_of(t), key::variant(k), k),
    }
}

/// The fault profile actually installed for a scenario: the batch kind's
/// base rates with the scenario's overrides (retry-edge drop boost, data
/// jitter, shrink scaling) applied.
fn effective_profile(sc: &Scenario, kind: FaultKind) -> Option<FaultProfile> {
    let mut p = match kind.profile(sc.fault_seed) {
        Some(p) => p,
        None => {
            // Pure schedule exploration: only lossless data jitter can
            // apply (it cannot manufacture connection faults).
            let (dp, rp, max) = sc.data_jitter?;
            return Some(FaultProfile::none(sc.fault_seed).with_data_jitter(dp, rp, max));
        }
    };
    if let Some(d) = sc.drop_override {
        p.drop_prob = d;
    }
    if let Some((dp, rp, max)) = sc.data_jitter {
        p = p.with_data_jitter(dp, rp, max);
    }
    if sc.fault_scale != 100 {
        let s = sc.fault_scale as f64 / 100.0;
        p.drop_prob *= s;
        p.dup_prob *= s;
        p.delay_prob *= s;
        p.reorder_prob *= s;
        p.vi_fail_prob *= s;
        p.data_delay_prob *= s;
        p.data_reorder_prob *= s;
    }
    Some(p)
}

/// Deterministic payload for message `seq` from `src` of length `len`.
fn payload(src: usize, seq: u32, len: usize) -> Vec<u8> {
    let mut rng = SplitMix64::new(((src as u64) << 32) ^ seq as u64 ^ 0xC0FFEE);
    let mut v = Vec::with_capacity(len + 5);
    v.push(src as u8);
    v.extend_from_slice(&seq.to_le_bytes());
    for _ in 0..len {
        v.push(rng.next_u64() as u8);
    }
    v
}

/// One received message, as recorded by a rank: `(source, sequence,
/// payload intact)`.
type RecvRecord = (usize, u32, bool);

fn decode(data: &[u8]) -> RecvRecord {
    if data.len() < 5 {
        return (usize::MAX, u32::MAX, false);
    }
    let src = data[0] as usize;
    let seq = u32::from_le_bytes([data[1], data[2], data[3], data[4]]);
    (
        src,
        seq,
        data == payload(src, seq, data.len() - 5).as_slice(),
    )
}

record! {
    /// Outcome of one seed.
    #[derive(Default)]
    pub struct SeedOutcome {
        /// The seed (replay key).
        seed: u64,
        /// World size.
        np: usize,
        /// Program name.
        program: String,
        /// Device name.
        device: String,
        /// Connection mode name.
        conn: String,
        /// Wait policy name.
        wait: String,
        /// Fault intensity.
        fault: String,
        /// Virtual makespan, µs.
        end_us: f64,
        /// Engine events processed.
        events: u64,
        /// Faults the fabric injected.
        faults_injected: u64,
        /// Connection retries across ranks.
        conn_retries: u64,
        /// Channels failed after budget exhaustion (must be 0).
        conn_failures: u64,
        /// Deepest per-channel retry attempt across ranks.
        retry_depth_max: u64,
        /// Messages that arrived before their receive was posted, summed.
        unexpected_msgs: u64,
        /// Deterministic coverage signature (field layout documented in the
        /// campaign section of EXPERIMENTS.md).
        signature: String,
        /// Invariant violations (empty = pass).
        violations: Vec<String>,
    }
}

record! {
    /// Batch summary: the `simcheck` record.
    pub struct Summary {
        /// Fault intensity of the batch.
        fault: String,
        /// First seed.
        start: u64,
        /// Seeds run.
        seeds: u64,
        /// Seeds with at least one invariant violation.
        failing: u64,
        /// The offending seeds (replay keys).
        failing_seeds: Vec<u64>,
        /// Engine events across the batch.
        events: u64,
        /// Faults injected across the batch.
        faults_injected: u64,
        /// Connection retries across the batch.
        conn_retries: u64,
        /// Distinct `(program, conn)` combinations exercised.
        combos: u64,
    }
}

/// After the program body, drive progress until no connection is pending
/// (injected loss can push a handshake several backoff periods out), then
/// synchronize virtual clocks with a barrier and run a few settle rounds
/// so in-flight credit returns land and are reaped.
///
/// The barrier matters: retry backoff can stretch one rank's timeline by
/// thousands of virtual microseconds, and a rank that finalizes early in
/// virtual time never polls again. The world-end laws count what such a
/// rank left unreaped, so they do not need the settle window; the drain is
/// what leaves every channel settled, which [`check_invariants`] asserts.
///
/// `settle_rounds` scales that window: data-plane jitter can hold a
/// packet up to 5×`data_delay_max_us` past its nominal arrival (delay
/// draw + 4× reorder draw), and the worst chain is two hops deep — a
/// jittered payload whose credit return is jittered again — so jittered
/// scenarios wait out ~10× the jitter bound where fault-free ones wait
/// the base window. The window is part of every scenario's schedule, so
/// every committed outcome depends on it.
fn quiesce(mpi: &viampi_core::Mpi, settle_rounds: u64) {
    let round = SimDuration::micros(600);
    let drain = |label: &str| {
        let mut rounds = 0u32;
        while mpi.pending_connections() > 0 {
            mpi.advance(round);
            mpi.progress();
            rounds += 1;
            assert!(
                rounds < 10_000,
                "quiesce ({label}) did not converge: connection stuck beyond every backoff"
            );
        }
    };
    drain("pre-barrier");
    mpi.barrier();
    // The barrier itself may have opened new channels under fault
    // injection; let those handshakes finish too.
    drain("post-barrier");
    for _ in 0..settle_rounds {
        mpi.advance(round);
        mpi.progress();
    }
}

/// Post-barrier settle rounds for a scenario: the base window plus enough
/// 600 µs rounds to cover a two-hop worst-case data-jitter chain.
fn settle_rounds(sc: &Scenario) -> u64 {
    let base = 6;
    match sc.data_jitter {
        Some((_, _, max_us)) => base + (12 * max_us).div_ceil(600),
        None => base,
    }
}

/// Run the scenario's program on one rank; returns the receive log.
fn run_program(mpi: &viampi_core::Mpi, sc: &Scenario) -> Vec<RecvRecord> {
    let rank = mpi.rank();
    let np = mpi.size();
    let m = sc.m;
    let mut log = Vec::new();
    // Endpoints axis: pin each peer's traffic to one producer thread, so a
    // pair's messages all ride one stripe and the per-source FIFO
    // expectations below stay valid (cross-VI relaxed ordering within a
    // pair is the fig9 workload's territory, where tags are per-thread).
    // No-op below the axis: `set_thread` is never called at the defaults.
    let th = |peer: usize| {
        if sc.threads > 1 {
            mpi.set_thread(peer % sc.threads);
        }
    };
    match sc.program {
        Program::Ring => {
            let next = (rank + 1) % np;
            let prev = (rank + np - 1) % np;
            let mut reqs = Vec::new();
            let mut sends = Vec::new();
            for seq in 0..m {
                th(prev);
                reqs.push(mpi.irecv(Some(prev), Some(0)));
                th(next);
                sends.push(mpi.isend(&payload(rank, seq, 48), next, 0));
            }
            for seq in 0..m {
                th(next);
                sends.push(mpi.isend(&payload(rank, m + seq, 48), next, 1));
            }
            for r in reqs {
                let (data, _) = mpi.wait(r);
                log.push(decode(&data.unwrap()));
            }
            for _ in 0..m {
                let (data, _) = mpi.recv(Some(prev), Some(1));
                log.push(decode(&data));
            }
            mpi.waitall(&sends);
        }
        Program::Storm => {
            if rank == 0 {
                let total = (np - 1) as u32 * m;
                let reqs: Vec<_> = (0..total)
                    .map(|_| mpi.irecv(viampi_core::ANY_SOURCE, Some(0)))
                    .collect();
                for (data, _) in mpi.waitall(&reqs) {
                    log.push(decode(&data.unwrap()));
                }
                // Directed ack back to every sender (gives the senders a
                // receive so both pair ends keep progressing).
                for peer in 1..np {
                    th(peer);
                    mpi.send(&payload(0, 0, 16), peer, 9);
                }
            } else {
                th(0);
                for seq in 0..m {
                    mpi.send(&payload(rank, seq, 64), 0, 0);
                }
                let (data, _) = mpi.recv(Some(0), Some(9));
                log.push(decode(&data));
            }
        }
        Program::ShiftLarge => {
            // One rendezvous-sized and one eager exchange per shift.
            for k in 1..np {
                let dst = (rank + k) % np;
                let src = (rank + np - k) % np;
                th(dst);
                let (data, _) =
                    mpi.sendrecv(&payload(rank, k as u32, 7000), dst, 0, Some(src), Some(0));
                log.push(decode(&data));
                let (data, _) = mpi.sendrecv(
                    &payload(rank, np as u32 + k as u32, 32),
                    dst,
                    1,
                    Some(src),
                    Some(1),
                );
                log.push(decode(&data));
            }
        }
        Program::AllToAll => {
            let mut reqs = Vec::new();
            let mut sends = Vec::new();
            for seq in 0..m {
                for peer in 0..np {
                    if peer != rank {
                        th(peer);
                        reqs.push(mpi.irecv(Some(peer), Some(0)));
                        sends.push(mpi.isend(&payload(rank, seq, 40), peer, 0));
                    }
                }
            }
            for (data, _) in mpi.waitall(&reqs) {
                log.push(decode(&data.unwrap()));
            }
            mpi.waitall(&sends);
        }
    }
    if sc.threads > 1 {
        // Quiesce (barrier + credit settling) from thread 0 on every rank.
        mpi.set_thread(0);
    }
    quiesce(mpi, settle_rounds(sc));
    log
}

/// Expected per-source sequence streams for `rank` under the scenario.
/// Returns `(source, sequences-in-FIFO-order)` pairs.
fn expected_streams(sc: &Scenario, rank: usize) -> Vec<(usize, Vec<u32>)> {
    let np = sc.np;
    let m = sc.m;
    match sc.program {
        Program::Ring => {
            let prev = (rank + np - 1) % np;
            vec![(prev, (0..2 * m).collect())]
        }
        Program::Storm => {
            if rank == 0 {
                (1..np).map(|s| (s, (0..m).collect())).collect()
            } else {
                vec![(0, vec![0])]
            }
        }
        Program::ShiftLarge => (1..np)
            .map(|k| {
                let src = (rank + np - k) % np;
                (src, vec![k as u32, (np + k) as u32])
            })
            .collect(),
        Program::AllToAll => (0..np)
            .filter(|&s| s != rank)
            .map(|s| (s, (0..m).collect()))
            .collect(),
    }
}

/// Check what only this harness's quiesced programs promise, beyond the
/// laws `Universe::run` already held the world to: settled channels,
/// exactly-once per-sender FIFO delivery with intact payloads, and no
/// retry budget spent. Returns human-readable violations (empty = pass).
fn check_invariants(sc: &Scenario, report: &RunReport<Vec<RecvRecord>>) -> Vec<String> {
    let mut v = Vec::new();
    // 1. `quiesce` drained every handshake: each channel ended
    //    `Unconnected` or `Connected`.
    for (i, r) in report.ranks.iter().enumerate() {
        for c in r.channels.iter().filter(|c| !c.state.is_settled()) {
            v.push(format!(
                "rank {i} -> {} stripe {}: non-terminal channel state {:?}",
                c.peer, c.stripe, c.state
            ));
        }
    }

    // 2. Exactly-once delivery, intact payloads, per-sender FIFO.
    for rank in 0..sc.np {
        let log = &report.results[rank];
        for &(src, seq, ok) in log {
            if !ok {
                v.push(format!("rank {rank}: corrupt payload ({src}, {seq})"));
            }
        }
        for (src, want) in expected_streams(sc, rank) {
            let got: Vec<u32> = log
                .iter()
                .filter(|&&(s, _, _)| s == src)
                .map(|&(_, q, _)| q)
                .collect();
            if got != want {
                v.push(format!(
                    "rank {rank} <- {src}: sequence stream {got:?}, want {want:?} \
                     (lost/duplicated/reordered message)"
                ));
            }
        }
    }

    // 3. Sub-budget faults must be invisible to the application.
    let failures = metric(&report.metrics, "mpi.conn_failures");
    if failures > 0 {
        v.push(format!(
            "{failures} channel(s) exhausted the retry budget under sub-budget fault rates"
        ));
    }
    v
}

/// A whole-run entry: rank counters summed, high-water marks maxed.
fn metric(m: &MetricsSnapshot, name: &str) -> u64 {
    m.get(name)
        .unwrap_or_else(|| panic!("the run published no `{name}`"))
}

/// Letter-per-kind mask of the faults that fired in a run, for coverage
/// signatures: `d`rop, d`u`plicate, de`l`ay, `r`eorder, `v`i-failure,
/// data-`j`itter; `-` when nothing fired.
fn fired_mask(m: &MetricsSnapshot) -> String {
    let fired = |name| metric(m, name) > 0;
    let mut mask: String = [
        ('d', "fault.conn_dropped"),
        ('u', "fault.conn_duplicated"),
        ('l', "fault.conn_delayed"),
        ('r', "fault.conn_reordered"),
        ('v', "fault.vi_create_failures"),
    ]
    .into_iter()
    .filter(|&(_, name)| fired(name))
    .map(|(letter, _)| letter)
    .collect();
    if fired("fault.data_delayed") || fired("fault.data_reordered") {
        mask.push('j');
    }
    if mask.is_empty() {
        mask.push('-');
    }
    mask
}

/// np bucket of a coverage signature.
fn np_band(np: usize) -> &'static str {
    match np {
        0..=3 => "np2-3",
        4..=6 => "np4-6",
        7..=8 => "np7-8",
        9..=16 => "np9-16",
        17..=32 => "np17-32",
        33..=64 => "np33-64",
        _ => "np65+",
    }
}

/// Retry-depth bucket of a coverage signature.
fn retry_band(depth: u64) -> &'static str {
    match depth {
        0 => "r0",
        1 => "r1",
        2..=3 => "r2-3",
        4..=6 => "r4-6",
        _ => "r7+",
    }
}

/// log₂ bucket (`<prefix><bit length>`) for open-ended counts.
fn log2_band(prefix: char, v: u64) -> String {
    format!("{prefix}{}", u64::BITS - v.leading_zeros())
}

/// Run one campaign key and check every invariant: the channel laws
/// `Universe::run` holds every world to — a broken one comes back as this
/// key's violations, so a campaign reports and shrinks it like any other —
/// then this harness's own checks (settled channels, per-sender FIFO, no
/// spent retry budget). Plain seeds behave exactly as in the pre-campaign
/// harness.
pub fn run_key(k: u64, kind: FaultKind) -> SeedOutcome {
    let sc = derive_key(k);
    let mut uni = Universe::new(sc.np, sc.device, sc.conn, sc.wait);
    {
        let cfg = uni.config_mut();
        cfg.faults = effective_profile(&sc, kind);
        cfg.sched_seed = Some(sc.sched_seed);
        cfg.dynamic_credits = sc.dynamic_credits;
        cfg.vis_per_peer = sc.vis_per_peer;
    }
    let mut o = SeedOutcome {
        seed: k,
        np: sc.np,
        program: sc.program.name().to_string(),
        device: sc.device.name().to_string(),
        conn: sc.conn.name().to_string(),
        wait: sc.wait.name().to_string(),
        fault: kind.name().to_string(),
        signature: format!(
            "{}|{}|{}|{}|{}|{}",
            np_band(sc.np),
            sc.program.name(),
            sc.device.name(),
            sc.conn.name(),
            sc.wait.name(),
            if sc.dynamic_credits { "dyn" } else { "fix" },
        ),
        ..SeedOutcome::default()
    };
    let sc2 = sc.clone();
    let report = match uni.run(move |mpi| run_program(mpi, &sc2)) {
        Ok(report) => report,
        Err(SimError::Invariant { violations }) => {
            o.signature.push_str("|invariant");
            o.violations = violations;
            return o;
        }
        Err(e) => panic!("key {k}: simulation failed: {e}"),
    };
    let m = &report.metrics;
    o.retry_depth_max = metric(m, "mpi.conn_retry_depth_max");
    o.unexpected_msgs = metric(m, "mpi.unexpected_msgs");
    let channels_connected = report
        .ranks
        .iter()
        .flat_map(|r| r.channels.iter())
        .filter(|c| c.state == ChanState::Connected)
        .count() as u64;
    o.signature.push_str(&format!(
        "|{}|{}|{}|{}",
        fired_mask(m),
        retry_band(o.retry_depth_max),
        log2_band('u', o.unexpected_msgs),
        log2_band('c', channels_connected),
    ));
    // Endpoint-axis scenarios get their own coverage token; default
    // single-VI single-thread scenarios keep their historical bytes.
    if sc.vis_per_peer > 1 || sc.threads > 1 {
        o.signature
            .push_str(&format!("|ep{}x{}", sc.vis_per_peer, sc.threads));
    }
    o.end_us = report.end_time.as_secs_f64() * 1e6;
    o.events = report.events;
    o.faults_injected = m
        .entries
        .iter()
        .filter(|e| e.name.starts_with("fault."))
        .map(|e| e.value)
        .sum();
    o.conn_retries = metric(m, "mpi.conn_retries");
    o.conn_failures = metric(m, "mpi.conn_failures");
    o.violations = check_invariants(&sc, &report);
    o
}

/// One-step shrink candidates for `k`, in a fixed order: np down, messages
/// down, fault intensity down, drop the mutation axis. A non-shrink key's
/// first candidate is its own (rounded-down) shrink encoding; a mutated
/// key also offers its bare root.
pub fn shrink_candidates(k: u64) -> Vec<u64> {
    let mut out = Vec::new();
    if key::is_shrink(k) {
        let (axis, np_idx, m_idx, scale_idx) = key::shrink_parts(k);
        let np_idx = np_idx.min(NP_SHRINK.len() - 1);
        let root = key::root(k);
        if np_idx > 0 {
            out.push(key::shrink(axis, np_idx - 1, m_idx, scale_idx, root));
        }
        if m_idx > 0 {
            out.push(key::shrink(axis, np_idx, m_idx - 1, scale_idx, root));
        }
        if scale_idx > 0 {
            out.push(key::shrink(axis, np_idx, m_idx, scale_idx - 1, root));
        }
        if axis != 0 {
            out.push(key::shrink(0, np_idx, m_idx, scale_idx, root));
        }
    } else {
        let sc = derive_key(k);
        let np_idx = NP_SHRINK.iter().rposition(|&v| v <= sc.np).unwrap_or(0);
        let m_idx = M_SHRINK.iter().rposition(|&v| v <= sc.m).unwrap_or(0);
        let scale_idx = SCALE_SHRINK
            .iter()
            .rposition(|&v| v <= sc.fault_scale)
            .unwrap_or(SCALE_SHRINK.len() - 1);
        out.push(key::shrink(
            key::tag(k),
            np_idx,
            m_idx,
            scale_idx,
            key::root(k),
        ));
        if !key::is_plain(k) {
            out.push(key::root(k));
        }
    }
    out
}

/// Greedily minimize a violating key: walk [`shrink_candidates`] and take
/// the first candidate `check` confirms still violates, until none does.
/// Every accepted step is re-verified, so the result is guaranteed to
/// still fail; returns the minimized key and the number of candidate runs
/// spent. Deterministic given a deterministic `check`.
pub fn shrink_key(k: u64, check: &mut dyn FnMut(u64) -> bool) -> (u64, u64) {
    let mut cur = k;
    let mut steps = 0u64;
    'outer: loop {
        for cand in shrink_candidates(cur) {
            steps += 1;
            if check(cand) {
                cur = cand;
                continue 'outer;
            }
        }
        return (cur, steps);
    }
}

/// Human-readable description of a key's fully derived scenario (what
/// `simcheck --replay` prints), so corpus triage doesn't require reading
/// `derive()`.
pub fn describe_key(k: u64, kind: FaultKind) -> String {
    let sc = derive_key(k);
    let class = match key::tag(k) {
        0 => format!("plain seed {k}"),
        key::SHRINK_TAG => {
            let (axis, np_idx, m_idx, scale_idx) = key::shrink_parts(k);
            let parent = match axis {
                0 => "plain".to_string(),
                t => format!("axis {}", axis_of(t).name()),
            };
            format!(
                "shrink of root {} ({parent}; np={} m={} faults×{}%)",
                key::root(k),
                NP_SHRINK[np_idx.min(NP_SHRINK.len() - 1)],
                M_SHRINK[m_idx],
                SCALE_SHRINK[scale_idx],
            )
        }
        t => format!(
            "root {} mutated on axis {} (variant {})",
            key::root(k),
            axis_of(t).name(),
            key::variant(k)
        ),
    };
    let mut s = String::new();
    s.push_str(&format!("key             0x{k:016x} ({class})\n"));
    s.push_str(&format!("np              {}\n", sc.np));
    s.push_str(&format!("program         {}\n", sc.program.name()));
    s.push_str(&format!("device          {}\n", sc.device.name()));
    s.push_str(&format!("conn mode       {}\n", sc.conn.name()));
    s.push_str(&format!("wait policy     {}\n", sc.wait.name()));
    s.push_str(&format!(
        "dynamic credits {}\n",
        if sc.dynamic_credits { "yes" } else { "no" }
    ));
    s.push_str(&format!("msgs per pair   {}\n", sc.m));
    s.push_str(&format!("sched seed      0x{:016x}\n", sc.sched_seed));
    s.push_str(&format!("fault seed      0x{:016x}\n", sc.fault_seed));
    match effective_profile(&sc, kind) {
        None => s.push_str("faults          none (pure schedule exploration)\n"),
        Some(p) => {
            s.push_str(&format!(
                "faults          {} ×{}%: drop {:.3} dup {:.3} delay {:.3} \
                 reorder {:.3} (max {} µs) vi-fail {:.3}\n",
                kind.name(),
                sc.fault_scale,
                p.drop_prob,
                p.dup_prob,
                p.delay_prob,
                p.reorder_prob,
                p.delay_max_us,
                p.vi_fail_prob,
            ));
            if p.data_delay_prob > 0.0 || p.data_reorder_prob > 0.0 {
                s.push_str(&format!(
                    "data jitter     delay {:.3} reorder {:.3} (max {} µs, lossless)\n",
                    p.data_delay_prob, p.data_reorder_prob, p.data_delay_max_us,
                ));
            }
        }
    }
    s
}

/// Run `count` seeds starting at `start` on `jobs` workers and summarize.
pub fn run_seeds(
    start: u64,
    count: u64,
    kind: FaultKind,
    jobs: usize,
) -> (Vec<SeedOutcome>, Summary) {
    let outcomes = par_map(jobs, (start..start + count).collect(), |seed| {
        run_key(seed, kind)
    });
    let failing_seeds: Vec<u64> = outcomes
        .iter()
        .filter(|o| !o.violations.is_empty())
        .map(|o| o.seed)
        .collect();
    let mut combos: Vec<(String, String)> = outcomes
        .iter()
        .map(|o| (o.program.clone(), o.conn.clone()))
        .collect();
    combos.sort();
    combos.dedup();
    let summary = Summary {
        fault: kind.name().to_string(),
        start,
        seeds: count,
        failing: failing_seeds.len() as u64,
        failing_seeds,
        events: outcomes.iter().map(|o| o.events).sum(),
        faults_injected: outcomes.iter().map(|o| o.faults_injected).sum(),
        conn_retries: outcomes.iter().map(|o| o.conn_retries).sum(),
        combos: combos.len() as u64,
    };
    (outcomes, summary)
}

/// A batch as an [`Output`]: the summary is the record, the per-program
/// breakdown the table.
pub fn batch_output(outcomes: &[SeedOutcome], summary: &Summary) -> Output {
    let mut rows = Vec::new();
    for program in ["ring", "storm", "shift-large", "all-to-all"] {
        let group: Vec<&SeedOutcome> = outcomes.iter().filter(|o| o.program == program).collect();
        if group.is_empty() {
            continue;
        }
        let sum = |f: fn(&SeedOutcome) -> u64| group.iter().map(|o| f(o)).sum::<u64>().to_string();
        rows.push(vec![
            program.to_string(),
            group.len().to_string(),
            sum(|o| o.faults_injected),
            sum(|o| o.conn_retries),
            sum(|o| !o.violations.is_empty() as u64),
        ]);
    }
    Output {
        json: crate::json::to_string_pretty(summary),
        text: format!(
            "simcheck — {} seeds from {} under {} faults: invariants by program\n\n{}",
            summary.seeds,
            summary.start,
            summary.fault,
            table(
                &["program", "seeds", "faults", "retries", "violations"],
                &rows
            )
        ),
    }
}

/// The standard acceptance sweep — 1000 seeds, heavy faults, zero
/// violations — as the `simcheck` row of [`crate::experiments::ALL`].
pub fn standard_sweep(jobs: usize) -> Output {
    let (outcomes, summary) = run_seeds(0, 1000, FaultKind::Heavy, jobs);
    batch_output(&outcomes, &summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_is_deterministic_and_varied() {
        let a = derive(17);
        let b = derive(17);
        assert_eq!(a.np, b.np);
        assert_eq!(a.sched_seed, b.sched_seed);
        assert_eq!(a.fault_seed, b.fault_seed);
        let programs: std::collections::HashSet<&str> =
            (0..64).map(|s| derive(s).program.name()).collect();
        assert_eq!(programs.len(), 4, "all programs appear in 64 seeds");
        let conns: std::collections::HashSet<&str> =
            (0..64).map(|s| derive(s).conn.name()).collect();
        assert_eq!(conns.len(), 3, "all connection modes appear in 64 seeds");
    }

    #[test]
    fn fired_mask_reflects_categories() {
        use viampi_core::fault_metrics;
        let mut faults = fault_metrics::registry();
        assert_eq!(fired_mask(&faults.snapshot()), "-");
        faults.inc(fault_metrics::CONN_DROPPED);
        faults.add(fault_metrics::DATA_DELAYED, 2);
        assert_eq!(fired_mask(&faults.snapshot()), "dj");
    }

    #[test]
    fn payloads_roundtrip() {
        let p = payload(3, 9, 48);
        assert_eq!(decode(&p), (3, 9, true));
        let mut corrupt = p.clone();
        corrupt[10] ^= 0xFF;
        assert!(!decode(&corrupt).2);
    }

    #[test]
    fn a_fault_free_seed_passes_all_invariants() {
        let o = run_key(1, FaultKind::None);
        assert!(o.violations.is_empty(), "{:?}", o.violations);
        assert_eq!(o.faults_injected, 0);
    }

    #[test]
    fn a_heavy_fault_seed_passes_all_invariants() {
        let o = run_key(2, FaultKind::Heavy);
        assert!(o.violations.is_empty(), "{:?}", o.violations);
    }

    #[test]
    fn seed_outcomes_replay_identically() {
        let a = run_key(5, FaultKind::Light);
        let b = run_key(5, FaultKind::Light);
        assert_eq!(a.end_us.to_bits(), b.end_us.to_bits());
        assert_eq!(a.events, b.events);
        assert_eq!(a.faults_injected, b.faults_injected);
        assert_eq!(a.conn_retries, b.conn_retries);
        assert_eq!(a.signature, b.signature);
    }

    #[test]
    fn plain_keys_keep_their_pre_campaign_scenarios() {
        for seed in [0u64, 1, 17, 910] {
            let a = derive(seed);
            let b = derive_key(seed);
            assert_eq!(a.np, b.np);
            assert_eq!(a.program, b.program);
            assert_eq!(a.sched_seed, b.sched_seed);
            assert_eq!(a.fault_seed, b.fault_seed);
            assert_eq!(a.m, b.m);
            assert_eq!(b.fault_scale, 100);
            assert!(b.drop_override.is_none() && b.data_jitter.is_none());
        }
    }

    #[test]
    fn key_encoding_roundtrips() {
        let root = 0x1234_5678_9ABCu64;
        let k = key::mutated(Axis::Storm, 0x7FF, root);
        assert_eq!(key::tag(k), Axis::Storm as u64);
        assert_eq!(key::variant(k), 0x7FF);
        assert_eq!(key::root(k), root);
        let s = key::shrink(Axis::NpLarge as u64, 9, 2, 1, root);
        assert!(key::is_shrink(s));
        assert_eq!(key::shrink_parts(s), (Axis::NpLarge as u64, 9, 2, 1));
        assert_eq!(key::root(s), root);
    }

    #[test]
    fn each_axis_mutates_its_scenario_dimension() {
        let root = 42u64;
        let base = derive(root);
        let np_large = derive_key(key::mutated(Axis::NpLarge, 0, root));
        assert!(np_large.np >= 8);
        let storm = derive_key(key::mutated(Axis::Storm, 3, root));
        assert_eq!(storm.program, Program::Storm);
        assert!(storm.np >= 6);
        let retry = derive_key(key::mutated(Axis::RetryEdge, 6, root));
        assert_eq!(retry.conn, ConnMode::OnDemand);
        let d = retry.drop_override.unwrap();
        assert!((0.06..=0.18).contains(&d));
        let msgs = derive_key(key::mutated(Axis::Msgs, 11, root));
        assert!(msgs.m >= 4);
        let jitter = derive_key(key::mutated(Axis::DataJitter, 40, root));
        let (dp, rp, max) = jitter.data_jitter.unwrap();
        assert!(dp > 0.0 && rp > 0.0 && max >= 200);
        let dync = derive_key(key::mutated(Axis::DynCredits, 0, root));
        assert!(dync.dynamic_credits);
        for variant in 0..6 {
            let ep = derive_key(key::mutated(Axis::Endpoints, variant, root));
            assert!([2, 4].contains(&ep.vis_per_peer));
            assert!([1, 2, 4].contains(&ep.threads));
        }
        assert_eq!(
            derive_key(key::mutated(Axis::Endpoints, 1, root)).vis_per_peer,
            4
        );
        assert_eq!(
            derive_key(key::mutated(Axis::Endpoints, 4, root)).threads,
            4
        );
        // Every mutated key reseeds the schedule: same topology axis,
        // different race.
        assert_ne!(np_large.sched_seed, base.sched_seed);
        assert_ne!(storm.sched_seed, np_large.sched_seed);
    }

    #[test]
    fn shrink_keys_override_np_m_and_scale() {
        let root = 7u64;
        let k = key::shrink(0, 0, 0, 0, root);
        let sc = derive_key(k);
        assert_eq!(sc.np, 2);
        assert_eq!(sc.m, 1);
        assert_eq!(sc.fault_scale, 25);
        let p = effective_profile(&sc, FaultKind::Heavy).unwrap();
        let full = FaultProfile::heavy(sc.fault_seed);
        assert!(p.drop_prob < full.drop_prob);
    }

    #[test]
    fn shrink_candidates_strictly_reduce() {
        let mut k = key::shrink(Axis::Storm as u64, 5, 3, 3, 99);
        // Walking first candidates repeatedly must terminate (every step
        // reduces an index or drops the axis).
        let mut steps = 0;
        loop {
            let cands = shrink_candidates(k);
            match cands.first() {
                Some(&c) => {
                    assert_ne!(c, k);
                    k = c;
                }
                None => break,
            }
            steps += 1;
            assert!(steps < 64, "shrink walk did not terminate");
        }
        let (_, np_idx, m_idx, scale_idx) = key::shrink_parts(k);
        assert_eq!((np_idx, m_idx, scale_idx), (0, 0, 0));
    }

    #[test]
    fn a_mutated_storm_key_passes_invariants() {
        let o = run_key(key::mutated(Axis::Storm, 0, 11), FaultKind::Light);
        assert!(o.violations.is_empty(), "{:?}", o.violations);
        assert_eq!(o.program, "storm");
    }

    #[test]
    fn an_endpoints_key_passes_invariants_and_replays() {
        // Variant 5 → 4 VIs per pair with 4 producer threads (threads
        // share no stripe); variant 2 → 2 VIs, 2 threads. The per-stripe
        // world-end laws and settled stripe states must hold, with and
        // without faults.
        for (variant, kind) in [(5u32, FaultKind::None), (2, FaultKind::Heavy)] {
            let k = key::mutated(Axis::Endpoints, variant, 13);
            let a = run_key(k, kind);
            assert!(a.violations.is_empty(), "{:?}", a.violations);
            assert!(a.signature.contains("|ep"), "{}", a.signature);
            let b = run_key(k, kind);
            assert_eq!(
                crate::json::to_string_pretty(&a),
                crate::json::to_string_pretty(&b),
                "endpoints key {k} must replay"
            );
        }
    }

    #[test]
    fn a_data_jitter_key_passes_invariants() {
        let o = run_key(key::mutated(Axis::DataJitter, 5, 4), FaultKind::Heavy);
        assert!(o.violations.is_empty(), "{:?}", o.violations);
    }

    #[test]
    fn tags_that_name_no_axis_are_refused() {
        // Tags 8, 9 and 11 are retired and 12–14 unused: a key carrying
        // one — as its tag or as a shrink key's parent axis — has no
        // scenario and is refused. The numbers are not reused, so
        // surviving axes (endpoints = 10) keep their historical tags.
        let root = 23u64;
        for tag in [8u64, 9, 11, 12, 13, 14] {
            assert!(Axis::from_tag(tag).is_none());
            let err = key::check((tag << 60) | (3 << 48) | root).unwrap_err();
            assert!(err.contains(&format!("tag {tag} ")), "{err}");
            assert!(key::check(key::shrink(tag, 2, 1, 0, root)).is_err());
        }
        assert_eq!(Axis::Endpoints as u64, 10);
        assert_eq!(Axis::from_tag(10), Some(Axis::Endpoints));
        for k in [
            root,
            key::mutated(Axis::Endpoints, 3, root),
            key::shrink(0, 2, 1, 0, root),
            key::shrink(Axis::Storm as u64, 2, 1, 0, root),
        ] {
            assert_eq!(key::check(k), Ok(()), "{k:#x}");
        }
    }

    #[test]
    fn describe_key_names_the_scenario() {
        let d = describe_key(key::mutated(Axis::Storm, 2, 17), FaultKind::Heavy);
        assert!(d.contains("storm"), "{d}");
        assert!(d.contains("faults"), "{d}");
        let d0 = describe_key(42, FaultKind::None);
        assert!(d0.contains("plain seed 42"), "{d0}");
    }
}
