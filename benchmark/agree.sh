#!/usr/bin/env bash
# Do two sets of runs of the same code agree within the benchmark's own
# bounds? Runs the full command twice (every workload, one child process
# each), then compares the two result files: every (workload, metric) is
# printed as agrees, differs or unresolved, one workload per row, every
# ratio with its base. Exit code 0 only when everything agrees.
#
#   ./agree.sh                    end-to-end metrics
#   ./agree.sh --traced           also the per-layer model counters
#   ./agree.sh --seed 7           on another seed
set -euo pipefail
cd "$(dirname "$0")"

bench() {
    cargo run --release --offline --quiet --manifest-path Cargo.toml -- "$@"
}
bench all --out out/agree-a.json "$@"
bench all --out out/agree-b.json "$@"
bench compare out/agree-a.json out/agree-b.json
