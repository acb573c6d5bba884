#!/usr/bin/env bash
# Same-host perf gate. The committed BENCH_simperf.json was recorded on
# one host, and ci.sh's absolute check holds every run to it with a
# wide 30% tolerance. This script instead measures the parent revision
# on this host, in the same minutes as the change: it builds
# <parent-rev> in a git worktree, runs the four smoke bins' `--perf`
# alternately (parent, then change) <pairs> times, merges the parent's
# fragments into one baseline with scripts/merge_perf.sh, and gates
# the change's fragments with `wifictl perf regress --tolerance 10%`
# against it. Both sides fold best-of-<pairs> per label. The planner
# bins' 100 ms samples spread by ±30% run to run on a 2-core host; with
# 3 pairs one run flagged an unchanged planner label at 0.85, so the
# default is 5.
#
# Usage: scripts/perf_pairs.sh <parent-rev> [pairs]   (default 5)
# scripts/ci.sh runs it when CI_PARENT_REV is set.
set -euo pipefail
cd "$(dirname "$0")/.."

[[ $# -ge 1 && $# -le 2 ]] \
  || { echo "usage: scripts/perf_pairs.sh <parent-rev> [pairs]" >&2; exit 2; }
rev="$(git rev-parse --verify --quiet "$1^{commit}")" \
  || { echo "perf_pairs: $1 is not a revision" >&2; exit 2; }
pairs="${2:-5}"
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] \
  || { echo "perf_pairs: pairs must be a positive integer, got $pairs" >&2; exit 2; }

bins=(fig18_multi_ap fig19_qoe abl_penalty abl_nbo_hops)
bin_args=()
for b in "${bins[@]}"; do bin_args+=(--bin "$b"); done
out="target/perf-pairs"
parent="$out/parent"
export IMC_RESULTS_DIR="$out/results"

# A run killed mid-way leaves its worktree registered: drop it first.
rm -rf "$out"
git worktree prune
mkdir -p "$out"
git worktree add --detach "$parent" "$rev" > /dev/null
trap 'git worktree remove --force "$parent"' EXIT

echo "perf_pairs: building parent $rev and the change"
(cd "$parent" && cargo build --release --offline --quiet -p bench "${bin_args[@]}")
cargo build --release --offline --quiet -p bench "${bin_args[@]}"
cargo build --release --offline --quiet -p wifictl

for i in $(seq 1 "$pairs"); do
  for b in "${bins[@]}"; do
    "$parent/target/release/$b" --perf "$out/parent-$b-$i.json" > /dev/null
    "target/release/$b" --perf "$out/change-$b-$i.json" > /dev/null
  done
done

scripts/merge_perf.sh "$out/baseline.json" "$out"/parent-*.json
target/release/wifictl perf regress "$out"/change-*.json \
  --baseline "$out/baseline.json" --tolerance 10% \
  || { echo "perf_pairs: a smoke label ran >10% below the parent on this host"; exit 1; }
