//! Replay the seed corpus under `tests/corpus/` (workspace root).
//!
//! Each `*.seeds` file holds `<seed> <fault-profile>` lines — replay keys
//! that once exposed a bug (plus a broad coverage set). The full simcheck
//! invariant battery must hold on every one, forever, and a key whose tag
//! names no scenario axis fails the test at its line.

use std::path::PathBuf;
use viampi_bench::simcheck::{key, run_seed, FaultKind};

fn corpus_dir() -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push("tests");
    p.push("corpus");
    p
}

/// Parse one corpus file into `(seed, fault, line-number)` entries.
fn parse(path: &std::path::Path) -> Vec<(u64, FaultKind, usize)> {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let mut entries = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap().trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let seed: u64 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("{}:{}: expected a seed", path.display(), lineno + 1));
        if let Err(e) = key::check(seed) {
            panic!("{}:{}: {e}", path.display(), lineno + 1);
        }
        let fault = parts.next().and_then(FaultKind::parse).unwrap_or_else(|| {
            panic!(
                "{}:{}: expected none|light|heavy",
                path.display(),
                lineno + 1
            )
        });
        assert!(
            parts.next().is_none(),
            "{}:{}: trailing tokens",
            path.display(),
            lineno + 1
        );
        entries.push((seed, fault, lineno + 1));
    }
    entries
}

#[test]
fn corpus_seeds_replay_clean() {
    let dir = corpus_dir();
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("corpus dir {}: {e}", dir.display()))
        .filter_map(|e| Some(e.ok()?.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "seeds"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no *.seeds files in {}", dir.display());

    let mut replayed = 0usize;
    for file in &files {
        let entries = parse(file);
        assert!(!entries.is_empty(), "{}: empty corpus file", file.display());
        let jobs = viampi_bench::runner::nproc();
        let outcomes = viampi_bench::runner::par_map(jobs, entries, |(seed, fault, lineno)| {
            (run_seed(seed, fault), lineno)
        });
        for (o, lineno) in outcomes {
            assert!(
                o.violations.is_empty(),
                "{}:{}: seed {} ({}) regressed:\n  {}",
                file.display(),
                lineno,
                o.seed,
                o.fault,
                o.violations.join("\n  ")
            );
            replayed += 1;
        }
    }
    assert!(replayed >= 20, "corpus shrank to {replayed} seeds");
}
