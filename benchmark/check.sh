#!/usr/bin/env bash
# Everything the repository's CI would run on this package if it saw it:
# the root workspace does not include benchmark/, so nothing at the root
# builds, lints or tests these files.
#
#   ./check.sh           format, lints, unit tests, deletion-list grep
#   ./check.sh --slow    also the ten-seed calibration test (release, ~2 min)
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --manifest-path Cargo.toml --check
cargo clippy --offline --manifest-path Cargo.toml --all-targets -- -D warnings
cargo test --offline --manifest-path Cargo.toml
if [[ "${1:-}" == "--slow" ]]; then
    cargo test --release --offline --manifest-path Cargo.toml -- --ignored --nocapture
fi

# The benchmark must survive the deletions ROADMAP.md schedules, so no file
# here may name anything on that list, nor depend on the bench crate. Each
# pattern brackets one letter so that this script does not match itself.
# (`on_wakeup_into` and `complete_into` are the kept, non-allocating forms.)
banned='[E]xecutionMode|sim::[p]arallel|[d]rain_window|[N]aiveQueue|[E]ventQueue'
banned+='|[B]andwidthMultiplier|core::[d]river|[E]ngineKind'
banned+='|\.[o]n_wakeup\(|\.[c]omplete\(|skipper[-_][b]ench\b'
if grep -rnE "$banned" --exclude-dir=target --exclude-dir=out .; then
    echo "check.sh: a file names an API on the ROADMAP deletion list" >&2
    exit 1
fi
echo "check.sh: all checks passed"
