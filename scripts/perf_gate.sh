#!/usr/bin/env bash
# Hot-path performance gate: count token switches per message (np=16 cLAN
# barrier world) and world accesses per provisioned channel (static np=32
# world) and compare them with == to results/perf_exact.json — scheduling
# work, not time, so the gate means the same on any machine. Wall-clock
# regressions are measured by the repo benchmark (benchmark/run.sh), with
# bounds and spread handling.
#
# See `perf_gate --help`, and results/README.md for how to refresh the
# record after a deliberate change.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo run -q --release --offline --locked -p viampi-bench --bin perf_gate -- \
    --exact results/perf_exact.json
