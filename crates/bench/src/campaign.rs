//! Coverage-directed simcheck campaign engine.
//!
//! A campaign is a pure, in-memory function of its fault intensity, where
//! it starts (the first root seed) and its budget. It sweeps the
//! scenario-key space (see [`crate::simcheck::key`]) in deterministic units
//! of work:
//!
//! * **batches** of [`BATCH_ROOTS`] consecutive plain root seeds;
//! * each batch runs up to three **rounds** — the roots themselves, then
//!   children spawned from rare-coverage hits, then grandchildren;
//! * each round executes on the worker pool ([`crate::runner::par_map`])
//!   and is folded into the cumulative state in key order.
//!
//! The seed budget and the timebox are checked between rounds, so a
//! budgeted campaign's coverage map, counters and corpus lines are the
//! same at any `--jobs` count. Nothing is persisted but the minimized
//! corpus: the summary's `next_start` — the first root of the first batch
//! not finished — is where a later campaign continues.
//!
//! Coverage is a map from deterministic per-run signatures (np band,
//! program, device, connection mode, wait policy, fired-fault mix, retry
//! depth, unexpected/channel-count bands) to hit counts. The first hit of
//! a signature spawns 1–3 child keys that each mutate one scenario axis,
//! weighted toward large np, `ANY_SOURCE` storms and retry-budget edges.
//! A violating key is minimized by [`crate::simcheck::shrink_key`] and
//! appended to the on-disk corpus (`tests/corpus/minimized.seeds`), which
//! every campaign invocation replays before exploring new keys.

use crate::runner::par_map;
use crate::simcheck::{key, run_key, shrink_key, Axis, FaultKind, SeedOutcome};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use viampi_sim::SplitMix64;

/// Salt of the child-spawn RNG stream (keyed by the parent key).
const CHILD_SALT: u64 = 0xC41D_0FF5_0C4A_FE02;
/// Root seeds per batch.
pub const BATCH_ROOTS: u64 = 256;
/// Rounds per batch: roots, children, grandchildren.
const MAX_ROUNDS: u64 = 3;
/// Cap on children queued per round (bounds round growth).
const MAX_CHILDREN_PER_ROUND: usize = 512;

/// What a campaign has folded so far. Nothing wall-clock-dependent, so it
/// is the same at any worker count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignState {
    /// Scenario keys executed (roots, children and shrink probes).
    pub seeds_run: u64,
    /// Child keys spawned from rare-signature hits.
    pub derived_seeds: u64,
    /// Shrink candidate runs spent minimizing violations.
    pub shrink_steps: u64,
    /// Violating keys found (pre-shrink).
    pub violations: u64,
    /// Engine events across all folded runs.
    pub events: u64,
    /// Faults injected across all folded runs.
    pub faults_injected: u64,
    /// Connection retries across all folded runs.
    pub conn_retries: u64,
    /// Coverage map: signature → hit count.
    pub coverage: BTreeMap<String, u64>,
    /// Minimized-corpus lines (`<key> <fault>  # <signature>`) this
    /// campaign appended to the corpus file.
    pub corpus: Vec<String>,
}

crate::record! {
    /// One `sim.campaign.*` metric line of the summary.
    pub struct MetricLine {
        /// Dotted metric name.
        name: String,
        /// Counter value.
        value: u64,
    }
}

crate::record! {
    /// Summary of one campaign invocation (`simcheck --summary-out`, or
    /// stdout). The only place wall-clock fields live.
    pub struct CampaignSummary {
        /// Fault intensity.
        fault: String,
        /// Worker count in effect.
        jobs: usize,
        /// First root seed explored.
        start: u64,
        /// First root of the first batch not finished: `--start` for a
        /// campaign that continues where this one stopped.
        next_start: u64,
        /// Wall-clock seconds of this invocation.
        wall_secs: f64,
        /// Throughput of this invocation.
        seeds_per_hour: f64,
        /// Why the invocation stopped (`budget`, `timebox`).
        stopped: String,
        /// Minimized-corpus keys replayed before exploration.
        corpus_replayed: u64,
        /// Corpus keys that still violate (open bugs).
        corpus_open: u64,
        /// Minimized lines appended to the corpus by this invocation.
        corpus_new: u64,
        /// Totals as `sim.campaign.*` metric entries (from the
        /// `metric_defs!` registry, pinned by the determinism suite).
        metrics: Vec<MetricLine>,
    }
}

/// Render the state counters through the `viampi_sim::metrics::campaign`
/// registry, so the summary's metric names are the registry's — not
/// ad-hoc strings.
pub fn campaign_metrics(state: &CampaignState) -> Vec<MetricLine> {
    use viampi_sim::metrics::campaign as m;
    let mut reg = m::registry();
    reg.add(m::SEEDS_RUN, state.seeds_run);
    reg.add(m::COVERAGE_SIGNATURES, state.coverage.len() as u64);
    reg.add(m::DERIVED_SEEDS, state.derived_seeds);
    reg.add(m::SHRINK_STEPS, state.shrink_steps);
    reg.add(m::VIOLATIONS, state.violations);
    reg.snapshot()
        .entries
        .into_iter()
        .map(|e| MetricLine {
            name: e.name.into_owned(),
            value: e.value,
        })
        .collect()
}

/// Configuration of one campaign invocation.
pub struct CampaignConfig {
    /// Fault intensity.
    pub kind: FaultKind,
    /// First root seed of batch 0; below 2⁴⁸, the width of a key's root
    /// field.
    pub start: u64,
    /// Stop once `seeds_run` reaches this (checked between rounds, so the
    /// stopping point is deterministic).
    pub seeds_budget: Option<u64>,
    /// Stop after this many wall-clock seconds (checked between rounds).
    pub timebox: Option<f64>,
    /// Minimized-corpus file (default `tests/corpus/minimized.seeds`).
    pub corpus_path: Option<PathBuf>,
    /// Worker count. The state and the corpus lines do not depend on it.
    pub jobs: usize,
}

/// Result of one campaign invocation.
pub struct CampaignReport {
    /// What the campaign folded.
    pub state: CampaignState,
    /// The invocation summary.
    pub summary: CampaignSummary,
    /// Outcomes of the pre-exploration corpus replay that still violate.
    pub corpus_open: Vec<SeedOutcome>,
}

/// Workspace-root `tests/corpus/minimized.seeds`.
pub fn default_corpus_path() -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push("tests");
    p.push("corpus");
    p.push("minimized.seeds");
    p
}

/// Spawn 1–3 children of `k` (first hit of a rare signature), mutating one
/// axis each, biased by [`Axis::weight`]. Deterministic in `k` alone.
fn spawn_children(k: u64, out: &mut Vec<u64>) -> u64 {
    let mut rng = SplitMix64::new(k ^ CHILD_SALT);
    let total: u64 = Axis::ALL.iter().map(|a| a.weight() as u64).sum();
    let n = 1 + rng.next_below(3);
    let mut spawned = 0;
    for _ in 0..n {
        if out.len() >= MAX_CHILDREN_PER_ROUND {
            break;
        }
        let mut t = rng.next_below(total);
        let axis = Axis::ALL
            .into_iter()
            .find(|a| {
                if t < a.weight() as u64 {
                    true
                } else {
                    t -= a.weight() as u64;
                    false
                }
            })
            .expect("weights cover the draw");
        let variant = rng.next_below(4096) as u32;
        out.push(key::mutated(axis, variant, key::root(k)));
        spawned += 1;
    }
    spawned
}

/// Fold one finished run into the state: coverage, counters, child
/// spawning into `children` (none in a batch's last round), and — on
/// violation — shrinking plus corpus append. `known` holds every corpus
/// line already in the file, so a rediscovered violation is not appended
/// twice.
fn fold_outcome(
    state: &mut CampaignState,
    kind: FaultKind,
    o: &SeedOutcome,
    children: Option<&mut Vec<u64>>,
    corpus_path: &Path,
    known: &mut Vec<String>,
) -> Result<(), String> {
    state.seeds_run += 1;
    state.events += o.events;
    state.faults_injected += o.faults_injected;
    state.conn_retries += o.conn_retries;
    let hits = state.coverage.entry(o.signature.clone()).or_insert(0);
    *hits += 1;
    if let (1, Some(children)) = (*hits, children) {
        state.derived_seeds += spawn_children(o.seed, children);
    }
    if o.violations.is_empty() {
        return Ok(());
    }
    state.violations += 1;
    // Minimize while it still fails; every probe counts as a seed run.
    let mut probes = 0u64;
    let (min_key, steps) = shrink_key(o.seed, &mut |k| {
        probes += 1;
        !run_key(k, kind).violations.is_empty()
    });
    state.shrink_steps += steps;
    state.seeds_run += probes;
    let min_sig = run_key(min_key, kind).signature;
    state.seeds_run += 1;
    let line = format!("{min_key} {}  # {}", kind.name(), min_sig);
    if !known.contains(&line) {
        append_corpus_line(corpus_path, &line)
            .map_err(|e| format!("append to {}: {e}", corpus_path.display()))?;
        known.push(line.clone());
        state.corpus.push(line);
    }
    Ok(())
}

/// Non-comment corpus-file lines (`<key> <fault>  # ...`), in file order;
/// empty if the file does not exist.
fn corpus_file_lines(path: &Path) -> Vec<String> {
    std::fs::read_to_string(path)
        .map(|text| {
            text.lines()
                .map(str::trim_end)
                .filter(|l| !l.trim().is_empty() && !l.trim_start().starts_with('#'))
                .map(str::to_string)
                .collect()
        })
        .unwrap_or_default()
}

/// Append one line to the minimized corpus file, creating it (with a
/// header) on the first violation. The file is never created empty: the
/// corpus replay test treats an empty `*.seeds` file as an error.
fn append_corpus_line(path: &Path, line: &str) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let fresh = !path.exists();
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    if fresh {
        writeln!(
            f,
            "# Minimized violation corpus (campaign shrinker output).\n\
             # <key> <fault>  # <coverage signature at minimization time>"
        )?;
    }
    writeln!(f, "{line}")
}

/// Run a campaign. Replays the minimized corpus first, then explores
/// batches from `cfg.start` until the seed budget or timebox is hit.
pub fn run_campaign(cfg: &CampaignConfig) -> Result<CampaignReport, String> {
    let t0 = Instant::now();
    if cfg.start > key::ROOT_MASK {
        return Err(format!(
            "start {} is not below 2^48 (the root field of a key)",
            cfg.start
        ));
    }
    let corpus_path = cfg.corpus_path.clone().unwrap_or_else(default_corpus_path);

    // Stage 1: replay the full minimized corpus. Replays are
    // reporting-only — they never touch the state.
    let mut known = corpus_file_lines(&corpus_path);
    let mut corpus_keys = Vec::new();
    for line in &known {
        let mut parts = line.split('#').next().unwrap().split_whitespace();
        let (Some(k), Some(kind)) = (
            parts.next().and_then(|s| s.parse::<u64>().ok()),
            parts.next().and_then(FaultKind::parse),
        ) else {
            continue;
        };
        key::check(k).map_err(|e| format!("{}: {e}", corpus_path.display()))?;
        corpus_keys.push((k, kind));
    }
    let corpus_replayed = corpus_keys.len() as u64;
    let corpus_open: Vec<SeedOutcome> =
        par_map(cfg.jobs, corpus_keys, |(k, kind)| run_key(k, kind))
            .into_iter()
            .filter(|o| !o.violations.is_empty())
            .collect();

    // Stage 2: frontier exploration, batch by batch, round by round.
    let mut state = CampaignState::default();
    let mut batch = cfg.start;
    let stopped = 'explore: loop {
        let mut round_keys: Vec<u64> = (batch..batch + BATCH_ROOTS).collect();
        for round in 1..=MAX_ROUNDS {
            if cfg.seeds_budget.is_some_and(|b| state.seeds_run >= b) {
                break 'explore "budget";
            }
            if cfg
                .timebox
                .is_some_and(|tb| t0.elapsed().as_secs_f64() >= tb)
            {
                break 'explore "timebox";
            }
            let outcomes = par_map(cfg.jobs, round_keys, |k| run_key(k, cfg.kind));
            let mut children = Vec::new();
            for o in &outcomes {
                let spawn = (round < MAX_ROUNDS).then_some(&mut children);
                fold_outcome(&mut state, cfg.kind, o, spawn, &corpus_path, &mut known)?;
            }
            if children.is_empty() {
                break;
            }
            round_keys = children;
        }
        batch += BATCH_ROOTS;
    };

    let wall = t0.elapsed().as_secs_f64();
    let summary = CampaignSummary {
        fault: cfg.kind.name().to_string(),
        jobs: cfg.jobs,
        start: cfg.start,
        next_start: batch,
        wall_secs: wall,
        seeds_per_hour: if wall > 0.0 {
            state.seeds_run as f64 * 3600.0 / wall
        } else {
            0.0
        },
        stopped: stopped.to_string(),
        corpus_replayed,
        corpus_open: corpus_open.len() as u64,
        corpus_new: state.corpus.len() as u64,
        metrics: campaign_metrics(&state),
    };
    Ok(CampaignReport {
        state,
        summary,
        corpus_open,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_spawning_is_deterministic_and_bounded() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        let n1 = spawn_children(12345, &mut a);
        let n2 = spawn_children(12345, &mut b);
        assert_eq!(a, b);
        assert_eq!(n1, n2);
        assert!((1..=3).contains(&(n1 as usize)));
        for &c in &a {
            assert!(!key::is_plain(c), "children are mutated keys");
            assert_eq!(key::root(c), key::root(12345));
        }
    }

    #[test]
    fn campaign_metrics_use_registry_names() {
        let mut st = CampaignState {
            seeds_run: 7,
            ..CampaignState::default()
        };
        st.coverage.insert("x".into(), 2);
        let m = campaign_metrics(&st);
        let names: Vec<&str> = m.iter().map(|l| l.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "sim.campaign.seeds_run",
                "sim.campaign.coverage_signatures",
                "sim.campaign.derived_seeds",
                "sim.campaign.shrink_steps",
                "sim.campaign.violations",
            ]
        );
        assert_eq!(m[0].value, 7);
        assert_eq!(m[1].value, 1);
    }

    #[test]
    fn a_corpus_line_that_cannot_be_written_is_an_error() {
        // A corpus path under a regular file: the directory cannot be
        // created, and the found violation must not vanish silently.
        let dir = std::env::temp_dir().join(format!("viampi_corpus_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("regular");
        std::fs::write(&file, "").unwrap();
        let err = append_corpus_line(&file.join("minimized.seeds"), "1 heavy  # sig");
        assert!(err.is_err(), "appending under a regular file must fail");
        // The happy path writes the header once, then the lines.
        let ok = dir.join("sub").join("minimized.seeds");
        append_corpus_line(&ok, "1 heavy  # a").unwrap();
        append_corpus_line(&ok, "2 light  # b").unwrap();
        assert_eq!(
            corpus_file_lines(&ok),
            ["1 heavy  # a".to_string(), "2 light  # b".to_string()]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_start_past_the_root_field_is_refused() {
        let cfg = CampaignConfig {
            kind: FaultKind::Heavy,
            start: 1 << 48,
            seeds_budget: Some(1),
            timebox: None,
            corpus_path: None,
            jobs: 1,
        };
        assert!(run_campaign(&cfg).is_err());
    }
}
