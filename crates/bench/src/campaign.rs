//! Sharded, resumable, coverage-directed simcheck campaign engine.
//!
//! A campaign sweeps the scenario-key space (see [`crate::simcheck::key`])
//! in deterministic units of work:
//!
//! * **batches** of [`CampaignState::batch_roots`] consecutive plain root
//!   seeds;
//! * each batch runs up to three **rounds** — the roots themselves, then
//!   children spawned from rare-coverage hits, then grandchildren;
//! * each round is cut into fixed-size **shards**, executed by the worker
//!   pool ([`crate::runner::shard_map`]) but folded into the cumulative
//!   state **strictly in shard order** and checkpointed to disk after every
//!   shard.
//!
//! Because folding is in-order and the checkpoint is atomic (write to a
//! temp file, then rename), killing a campaign at any instant leaves a
//! state file equal to some shard-boundary prefix of the serial run, and
//! resuming completes the identical work sequence: a killed-and-resumed
//! campaign is **byte-identical** to a one-shot run at any `--jobs` count.
//!
//! Coverage is a map from deterministic per-run signatures (np band,
//! program, device, connection mode, wait policy, fired-fault mix, retry
//! depth, unexpected/channel-count bands) to hit counts. The first hit of
//! a signature spawns 1–3 child keys that each mutate one scenario axis,
//! weighted toward large np, `ANY_SOURCE` storms and retry-budget edges.
//! A violating key is minimized by [`crate::simcheck::shrink_key`] and
//! appended to the on-disk corpus (`tests/corpus/minimized.seeds`), which
//! every campaign invocation replays before exploring new keys.

use crate::json::{self, emit_object, to_string_pretty, ToJson, Value};
use crate::runner::{par_map, shard_map};
use crate::simcheck::{key, run_key, shrink_key, Axis, FaultKind, SeedOutcome};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use viampi_sim::SplitMix64;

/// Salt of the child-spawn RNG stream (keyed by the parent key).
const CHILD_SALT: u64 = 0xC41D_0FF5_0C4A_FE02;
/// Rounds per batch: roots, children, grandchildren.
const MAX_ROUNDS: u64 = 3;
/// Cap on children queued per round (bounds round growth).
const MAX_CHILDREN_PER_ROUND: usize = 512;

/// The whole persistent campaign state — everything needed to resume, and
/// nothing wall-clock-dependent, so the file is byte-stable across worker
/// counts and kill/resume splits.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignState {
    /// Fault intensity of the campaign (`none`/`light`/`heavy`).
    pub fault: String,
    /// First root seed of batch 0.
    pub origin: u64,
    /// Root seeds per batch.
    pub batch_roots: u64,
    /// Keys per shard (the checkpoint granularity).
    pub shard_size: u64,
    /// Current batch index.
    pub batch: u64,
    /// Current round within the batch (0 = roots).
    pub round: u64,
    /// Next shard index to commit within the current round.
    pub shard: u64,
    /// Keys of the current round (persisted: child rounds are not
    /// recomputable without re-running their parents).
    pub round_keys: Vec<u64>,
    /// Children spawned so far by the current round's commits.
    pub pending_children: Vec<u64>,
    /// Scenario keys executed (roots, children and shrink probes).
    pub seeds_run: u64,
    /// Child keys spawned from rare-signature hits.
    pub derived_seeds: u64,
    /// Shrink candidate runs spent minimizing violations.
    pub shrink_steps: u64,
    /// Violating keys found (pre-shrink).
    pub violations: u64,
    /// Engine events across all committed runs.
    pub events: u64,
    /// Faults injected across all committed runs.
    pub faults_injected: u64,
    /// Connection retries across all committed runs.
    pub conn_retries: u64,
    /// Cumulative coverage map: signature → hit count (sorted, so the
    /// serialized state is byte-stable).
    pub coverage: BTreeMap<String, u64>,
    /// Minimized-corpus lines (`<key> <fault>  # <signature>`), mirroring
    /// what was appended to the corpus file.
    pub corpus: Vec<String>,
}

impl CampaignState {
    /// A fresh campaign at `origin` with default batch/shard geometry.
    pub fn new(kind: FaultKind, origin: u64) -> CampaignState {
        let batch_roots = 256;
        CampaignState {
            fault: kind.name().to_string(),
            origin,
            batch_roots,
            shard_size: 32,
            batch: 0,
            round: 0,
            shard: 0,
            round_keys: (origin..origin + batch_roots).collect(),
            pending_children: Vec::new(),
            seeds_run: 0,
            derived_seeds: 0,
            shrink_steps: 0,
            violations: 0,
            events: 0,
            faults_injected: 0,
            conn_retries: 0,
            coverage: BTreeMap::new(),
            corpus: Vec::new(),
        }
    }

    /// Advance past a fully committed round: into the next round of this
    /// batch if children are pending (and rounds remain), else into the
    /// next batch's roots.
    fn advance_round(&mut self) {
        self.shard = 0;
        if self.round + 1 < MAX_ROUNDS && !self.pending_children.is_empty() {
            self.round += 1;
            self.round_keys = std::mem::take(&mut self.pending_children);
        } else {
            self.pending_children.clear();
            self.batch += 1;
            self.round = 0;
            let start = self.origin + self.batch * self.batch_roots;
            self.round_keys = (start..start + self.batch_roots).collect();
        }
    }

    /// Parse a state file's JSON.
    pub fn from_json(text: &str) -> Result<CampaignState, String> {
        let v = json::parse(text)?;
        let s = |k: &str| -> Result<String, String> {
            Ok(v.get(k)
                .and_then(Value::as_str)
                .ok_or_else(|| format!("missing string field '{k}'"))?
                .to_string())
        };
        let n = |k: &str| -> Result<u64, String> {
            v.get(k)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("missing integer field '{k}'"))
        };
        let keys = |k: &str| -> Result<Vec<u64>, String> {
            v.get(k)
                .and_then(Value::as_arr)
                .ok_or_else(|| format!("missing array field '{k}'"))?
                .iter()
                .map(|x| x.as_u64().ok_or_else(|| format!("non-integer in '{k}'")))
                .collect()
        };
        let version = n("version")?;
        if version != 1 {
            return Err(format!("unsupported campaign state version {version}"));
        }
        let mut coverage = BTreeMap::new();
        match v.get("coverage") {
            Some(Value::Obj(fields)) => {
                for (sig, count) in fields {
                    let c = count
                        .as_u64()
                        .ok_or_else(|| format!("non-integer coverage count for '{sig}'"))?;
                    coverage.insert(sig.clone(), c);
                }
            }
            _ => return Err("missing object field 'coverage'".to_string()),
        }
        let corpus = v
            .get("corpus")
            .and_then(Value::as_arr)
            .ok_or("missing array field 'corpus'")?
            .iter()
            .map(|x| {
                x.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| "non-string corpus line".to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(CampaignState {
            fault: s("fault")?,
            origin: n("origin")?,
            batch_roots: n("batch_roots")?,
            shard_size: n("shard_size")?,
            batch: n("batch")?,
            round: n("round")?,
            shard: n("shard")?,
            round_keys: keys("round_keys")?,
            pending_children: keys("pending_children")?,
            seeds_run: n("seeds_run")?,
            derived_seeds: n("derived_seeds")?,
            shrink_steps: n("shrink_steps")?,
            violations: n("violations")?,
            events: n("events")?,
            faults_injected: n("faults_injected")?,
            conn_retries: n("conn_retries")?,
            coverage,
            corpus,
        })
    }

    /// Atomically checkpoint to `path` (temp file + rename, so a kill can
    /// never leave a torn state file).
    pub fn checkpoint(&self, path: &Path) -> std::io::Result<()> {
        let tmp = path.with_extension("json.tmp");
        std::fs::write(&tmp, to_string_pretty(self))?;
        std::fs::rename(&tmp, path)
    }
}

/// Coverage map emitted as a JSON object (signature → count).
struct CoverageJson<'a>(&'a BTreeMap<String, u64>);

impl ToJson for CoverageJson<'_> {
    fn emit(&self, out: &mut String, indent: usize) {
        let pairs: Vec<(&str, &dyn ToJson)> = self
            .0
            .iter()
            .map(|(k, v)| (k.as_str(), v as &dyn ToJson))
            .collect();
        emit_object(out, indent, &pairs);
    }
}

impl ToJson for CampaignState {
    fn emit(&self, out: &mut String, indent: usize) {
        let version = 1u64;
        let coverage = CoverageJson(&self.coverage);
        emit_object(
            out,
            indent,
            &[
                ("version", &version),
                ("fault", &self.fault),
                ("origin", &self.origin),
                ("batch_roots", &self.batch_roots),
                ("shard_size", &self.shard_size),
                ("batch", &self.batch),
                ("round", &self.round),
                ("shard", &self.shard),
                ("round_keys", &self.round_keys),
                ("pending_children", &self.pending_children),
                ("seeds_run", &self.seeds_run),
                ("derived_seeds", &self.derived_seeds),
                ("shrink_steps", &self.shrink_steps),
                ("violations", &self.violations),
                ("events", &self.events),
                ("faults_injected", &self.faults_injected),
                ("conn_retries", &self.conn_retries),
                ("coverage", &coverage),
                ("corpus", &self.corpus),
            ],
        );
    }
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
    /// stdout). Wall-clock fields live here — never in the state file — so
    /// the state stays byte-stable.
    pub struct CampaignSummary {
        /// Fault intensity.
        fault: String,
        /// Worker count in effect.
        jobs: usize,
        /// Wall-clock seconds of this invocation.
        wall_secs: f64,
        /// Keys executed by this invocation (including shrink probes).
        seeds_this_run: u64,
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
        /// Cumulative totals as `sim.campaign.*` metric entries (from the
        /// `metric_defs!` registry, pinned by the determinism suite).
        metrics: Vec<MetricLine>,
    }
}

/// Render the cumulative state counters through the
/// `viampi_sim::metrics::campaign` registry, so the summary's metric names
/// are the registry's — not ad-hoc strings.
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
    /// State-file path (created if absent).
    pub state_path: PathBuf,
    /// Fault intensity (must match a resumed state's).
    pub kind: FaultKind,
    /// Stop once `seeds_run` reaches this (checked at shard boundaries, so
    /// the stopping point is deterministic).
    pub seeds_budget: Option<u64>,
    /// Stop after this many wall-clock seconds (checked at shard
    /// boundaries; the state is a valid prefix wherever it lands).
    pub timebox: Option<f64>,
    /// Minimized-corpus file (default `tests/corpus/minimized.seeds`).
    pub corpus_path: Option<PathBuf>,
    /// Worker count. The state and corpus bytes do not depend on it.
    pub jobs: usize,
}

/// Result of one campaign invocation.
pub struct CampaignReport {
    /// Final (checkpointed) state.
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
/// spawning, and — on violation — shrinking plus corpus append. `known`
/// holds every corpus line already on disk or in the state, so a
/// violation rediscovered after the state file was reset is not appended
/// twice.
fn fold_outcome(
    state: &mut CampaignState,
    kind: FaultKind,
    o: &SeedOutcome,
    corpus_path: &Path,
    known: &mut Vec<String>,
) {
    state.seeds_run += 1;
    state.events += o.events;
    state.faults_injected += o.faults_injected;
    state.conn_retries += o.conn_retries;
    let hits = state.coverage.entry(o.signature.clone()).or_insert(0);
    *hits += 1;
    let first_hit = *hits == 1;
    if first_hit && state.round + 1 < MAX_ROUNDS {
        state.derived_seeds += spawn_children(o.seed, &mut state.pending_children);
    }
    if !o.violations.is_empty() {
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
        if !state.corpus.contains(&line) {
            state.corpus.push(line.clone());
        }
        if !known.contains(&line) {
            known.push(line.clone());
            append_corpus_line(corpus_path, &line);
        }
    }
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
fn append_corpus_line(path: &Path, line: &str) {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let fresh = !path.exists();
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
    {
        if fresh {
            let _ = writeln!(
                f,
                "# Minimized violation corpus (campaign shrinker output).\n\
                 # <key> <fault>  # <coverage signature at minimization time>"
            );
        }
        let _ = writeln!(f, "{line}");
    }
}

/// Run (or resume) a campaign. Replays the minimized corpus first, then
/// explores shards until the seed budget or timebox is hit.
pub fn run_campaign(cfg: &CampaignConfig) -> Result<CampaignReport, String> {
    let t0 = Instant::now();
    let corpus_path = cfg.corpus_path.clone().unwrap_or_else(default_corpus_path);
    let mut state = match std::fs::read_to_string(&cfg.state_path) {
        Ok(text) => {
            let st = CampaignState::from_json(&text)
                .map_err(|e| format!("{}: {e}", cfg.state_path.display()))?;
            if st.fault != cfg.kind.name() {
                return Err(format!(
                    "state {} is a '{}' campaign, got --fault {}",
                    cfg.state_path.display(),
                    st.fault,
                    cfg.kind.name()
                ));
            }
            st
        }
        Err(_) => CampaignState::new(cfg.kind, 0),
    };

    // Stage 1: always replay the full minimized corpus first — the
    // on-disk file plus any state entries not yet written there. Replays
    // are reporting-only — they never touch the deterministic state.
    let mut known = corpus_file_lines(&corpus_path);
    for line in &state.corpus {
        if !known.contains(line) {
            known.push(line.clone());
        }
    }
    let corpus_keys: Vec<(u64, FaultKind)> = known
        .iter()
        .filter_map(|line| {
            let mut parts = line.split('#').next().unwrap().split_whitespace();
            let k: u64 = parts.next()?.parse().ok()?;
            let kind = FaultKind::parse(parts.next()?)?;
            Some((k, kind))
        })
        .collect();
    let corpus_replayed = corpus_keys.len() as u64;
    let corpus_open: Vec<SeedOutcome> =
        par_map(cfg.jobs, corpus_keys, |(k, kind)| run_key(k, kind))
            .into_iter()
            .filter(|o| !o.violations.is_empty())
            .collect();

    // Stage 2: frontier exploration, shard by shard.
    let seeds_at_start = state.seeds_run;
    let stopped;
    loop {
        if let Some(budget) = cfg.seeds_budget {
            if state.seeds_run >= budget {
                stopped = "budget";
                break;
            }
        }
        if let Some(tb) = cfg.timebox {
            if t0.elapsed().as_secs_f64() >= tb {
                stopped = "timebox";
                break;
            }
        }
        let shard_size = state.shard_size.max(1) as usize;
        let chunks: Vec<Vec<u64>> = state
            .round_keys
            .chunks(shard_size)
            .skip(state.shard as usize)
            .map(<[u64]>::to_vec)
            .collect();
        if chunks.is_empty() {
            state.advance_round();
            state
                .checkpoint(&cfg.state_path)
                .map_err(|e| format!("checkpoint {}: {e}", cfg.state_path.display()))?;
            continue;
        }
        let kind = cfg.kind;
        let mut checkpoint_err = None;
        let mut stop_reason = None;
        let committed = shard_map(
            cfg.jobs,
            chunks,
            |_, keys| keys.iter().map(|&k| run_key(k, kind)).collect::<Vec<_>>(),
            |_, outcomes: Vec<SeedOutcome>| {
                for o in &outcomes {
                    fold_outcome(&mut state, kind, o, &corpus_path, &mut known);
                }
                state.shard += 1;
                if let Err(e) = state.checkpoint(&cfg.state_path) {
                    checkpoint_err = Some(format!("checkpoint {}: {e}", cfg.state_path.display()));
                    return false;
                }
                if let Some(budget) = cfg.seeds_budget {
                    if state.seeds_run >= budget {
                        stop_reason = Some("budget");
                        return false;
                    }
                }
                if let Some(tb) = cfg.timebox {
                    if t0.elapsed().as_secs_f64() >= tb {
                        stop_reason = Some("timebox");
                        return false;
                    }
                }
                true
            },
        );
        if let Some(e) = checkpoint_err {
            return Err(e);
        }
        match stop_reason {
            Some(r) => {
                stopped = r;
                break;
            }
            None => {
                let _ = committed;
                state.advance_round();
                state
                    .checkpoint(&cfg.state_path)
                    .map_err(|e| format!("checkpoint {}: {e}", cfg.state_path.display()))?;
            }
        }
    }
    state
        .checkpoint(&cfg.state_path)
        .map_err(|e| format!("checkpoint {}: {e}", cfg.state_path.display()))?;

    let wall = t0.elapsed().as_secs_f64();
    let seeds_this_run = state.seeds_run - seeds_at_start;
    let summary = CampaignSummary {
        fault: state.fault.clone(),
        jobs: cfg.jobs,
        wall_secs: wall,
        seeds_this_run,
        seeds_per_hour: if wall > 0.0 {
            seeds_this_run as f64 * 3600.0 / wall
        } else {
            0.0
        },
        stopped: stopped.to_string(),
        corpus_replayed,
        corpus_open: corpus_open.len() as u64,
        corpus_new: known.len() as u64 - corpus_replayed,
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
    fn state_json_roundtrips_bytewise() {
        let mut st = CampaignState::new(FaultKind::Heavy, 0);
        st.coverage.insert("np4-6|ring|clan".to_string(), 3);
        st.coverage.insert("np2-3|storm|bvia".to_string(), 1);
        st.corpus.push("17 heavy  # np2-3|storm".to_string());
        st.pending_children.push(key::mutated(Axis::Storm, 9, 17));
        st.seeds_run = 42;
        let text = to_string_pretty(&st);
        let back = CampaignState::from_json(&text).unwrap();
        assert_eq!(back, st);
        assert_eq!(to_string_pretty(&back), text);
    }

    #[test]
    fn from_json_rejects_bad_versions() {
        assert!(CampaignState::from_json("{\"version\": 2}").is_err());
        assert!(CampaignState::from_json("not json").is_err());
    }

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
    fn advance_round_walks_rounds_then_batches() {
        let mut st = CampaignState::new(FaultKind::Light, 0);
        st.pending_children.push(key::mutated(Axis::Msgs, 1, 7));
        st.advance_round();
        assert_eq!(st.round, 1);
        assert_eq!(st.round_keys.len(), 1);
        assert!(st.pending_children.is_empty());
        // No grandchildren pending: next advance starts batch 1's roots.
        st.advance_round();
        assert_eq!((st.batch, st.round), (1, 0));
        assert_eq!(st.round_keys[0], st.batch_roots);
        assert_eq!(st.round_keys.len(), st.batch_roots as usize);
    }

    #[test]
    fn campaign_metrics_use_registry_names() {
        let mut st = CampaignState::new(FaultKind::Heavy, 0);
        st.seeds_run = 7;
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
}
