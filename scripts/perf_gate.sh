#!/usr/bin/env bash
# Hot-path performance gate, two stages.
#
# Exact: count token switches per message (np=16 cLAN barrier world) and
# world accesses per provisioned channel (static np=32 world) and compare
# them with == to results/perf_exact.json — scheduling work, not time, so
# the stage means the same on any machine.
#
# Timed: measure the hotpaths microbenchmarks into a scratch record and
# compare it against the committed baseline
# (results/bench_hotpaths_baseline.json). Fails if any hot-path benchmark
# regressed by more than 25%.
#
# See `perf_gate --help` for the knobs, and results/README.md for how to
# refresh either record after a deliberate change.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== exact stage: scheduling work per message and per channel"
cargo run -q --release --offline --locked -p viampi-bench --bin perf_gate -- \
    --exact results/perf_exact.json

echo "== measuring hot paths (bench_hotpaths -> bench_hotpaths_current)"
cargo bench -q --offline --locked -p viampi-bench --bench hotpaths -- \
    --json-out bench_hotpaths_current

echo "== checking required benches are present"
for b in eager_pingpong_pooled queue_wheel_1k engine_1k_advances \
         engine_1k_token_passes; do
    grep -q "\"$b\"" results/bench_hotpaths_current.json || {
        echo "perf_gate: required bench '$b' missing from current record" >&2
        exit 1
    }
done

echo "== comparing against the committed baseline"
cargo run -q --release --offline --locked -p viampi-bench --bin perf_gate -- \
    --baseline results/bench_hotpaths_baseline.json \
    --current results/bench_hotpaths_current.json \
    --max-regress 25
