#!/usr/bin/env bash
# Pre-PR gate: formatting, lints, rustdoc, the tier-1 build/test pair, the
# record identity check, the campaign frontier, and a smoke run and a
# traced run of the repo benchmark, all offline (the build environment has
# no crate registry — see DESIGN.md §3) and, for the workspace, --locked,
# so a drifted Cargo.lock fails loudly instead of resolving. The traced
# run's result lines are checked with jq.
#
# Usage:
#   scripts/check.sh                  # the full gate (default)
#   scripts/check.sh records          # regenerate every row of the
#                                     # experiment table and byte-compare
#                                     # it with the committed results/
#   scripts/check.sh campaign [SECS] [START]
#                                     # long timeboxed simcheck campaign
#                                     # (default 600 s) from root seed
#                                     # START (default 0)
#
# The full gate is CI's one job and the campaign stage the nightly's, so
# the exact commands live here and can never drift from the workflows.
set -euo pipefail
cd "$(dirname "$0")/.."

# Every committed results/<name>.json against a fresh regeneration, writing
# nothing; a row that differs prints `MOVED results/<name>.json` and fails
# the stage. The rows take about 35 s on one worker of a 2-core box, most
# of it fig6_npb_clan and the large-N row tab2_largen, whose np = 1024
# static worlds hold about 0.55 GB each — two at once on 2 workers:
# 1.16 GB max RSS measured for the process (2.9 GB when every posted
# descriptor was its own queue entry).
records_stage() {
    echo "== record identity: every experiment vs the committed results/"
    cargo run -q --release --offline --locked -p viampi-bench --bin repro_all -- --check
}

# Timeboxed coverage-directed campaign for $1 seconds from root seed $2,
# held in memory. The stage always replays the full minimized corpus
# (tests/corpus/minimized.seeds) before exploring, then pushes the
# coverage frontier for the wall budget; any new violation is shrunk,
# appended to the corpus, and fails the stage. The summary (with `start`
# and `next_start`) lands in target/campaign/summary.json.
campaign_stage() {
    mkdir -p target/campaign
    cargo run -q --release --offline --locked -p viampi-bench --bin simcheck -- \
        --campaign --start "$2" --timebox "$1" --fault heavy \
        --summary-out target/campaign/summary.json
}

if [[ "${1:-all}" == "records" ]]; then
    records_stage
    exit 0
fi

if [[ "${1:-all}" == "campaign" ]]; then
    echo "== simcheck campaign (timebox: ${2:-600}s, start: ${3:-0})"
    campaign_stage "${2:-600}" "${3:-0}"
    exit 0
fi

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --offline --locked -- -D warnings

# A doc link to a deleted or private item is an error, not a silent
# dangling link (about 6 s on 2 cores).
echo "== rustdoc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --locked --workspace

echo "== tier-1: cargo build --release (offline)"
cargo build --release --offline --locked

echo "== tier-1: cargo test -q (offline, full workspace)"
cargo test -q --offline --locked --workspace

records_stage

echo "== simcheck campaign frontier (timeboxed, from root seed 0)"
campaign_stage 20 0

# The repo benchmark is a package of its own that the workspace neither
# sees nor builds, so nothing above notices a change that breaks the API
# surface it is frozen against (benchmark/README.md). Run its own unit
# tests (about 6 s), in the target directory run.sh builds into, then build
# it and run one unit of every workload, each checked for correctness
# (< 15 s). No --locked, for the reason run.sh gives.
echo "== repo benchmark: unit tests, offline build + smoke run"
cargo test -q --offline --manifest-path benchmark/Cargo.toml \
    --target-dir "${CARGO_TARGET_DIR:-target/benchmark}"
bash benchmark/run.sh --smoke

# The smoke run is untraced, and only a traced run reads engine counters by
# name: a name the engine stops publishing reads as null on the result
# line, with exit status 0. So run each workload once traced (a few
# seconds each) and fail unless its last stdout line is one JSON object
# with no null anywhere in it.
echo "== repo benchmark: one traced run per workload"
for workload in coll16 cg_b16 is_c16 conn128; do
    bash benchmark/run.sh --workload "$workload" --seed 1 --seconds 1 --trace 1 |
        tail -n 1 |
        jq -es 'length == 1 and (.[0] | type == "object") and all(..; . != null)' \
            >/dev/null ||
        { echo "traced $workload: last line is not JSON or holds a null"; exit 1; }
done

echo "all checks passed"
