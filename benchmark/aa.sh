#!/usr/bin/env bash
# A/A check: every workload, ten seeds, twice on one build; exits 1 if
# any workload x end-to-end metric misses its bound. See README.md.
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --aa "$@"
