#!/usr/bin/env bash
# The repo benchmark's one command. Builds the benchmark package (a
# workspace of its own, offline, optimized) and runs it.
#
#   benchmark/run.sh                      # the suite: every workload,
#                                         # untraced pass then traced pass;
#                                         # prints every metric, writes
#                                         # benchmark/out/*.json
#   benchmark/run.sh --smoke              # one unit per workload, < 15 s
#   benchmark/run.sh --seed 7 --run-s 10 --workload coll16
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         # one run, as the pipeline calls
#                                         # it; last stdout line = result
#   benchmark/run.sh compare A.json B.json
#
# Exits non-zero when the build fails or any unit fails its checks.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# The pipeline names the target directory; a developer's build goes under
# the repo's ignored target/. Relative names are relative to the caller.
target="${CARGO_TARGET_DIR:-$here/../target/benchmark}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac

# No `--locked`: the benchmark's Cargo.lock only pins path packages, and a
# later change to the repo's crates (a version bump, a new in-repo
# dependency) may not edit files under benchmark/ to refresh it.
# The build's chatter goes to stderr so stdout stays the benchmark's own.
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2

if [ "${1:-}" = compare ]; then
    exec "$target/release/benchmark" "$@"
fi
exec "$target/release/benchmark" --out "$here/out" "$@"
