#!/usr/bin/env bash
# Tier-1 CI gate: formatting, lints, the determinism linter, and the
# full test suite (plain + sanitized). Everything here must pass before
# a change lands.
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "=== cargo fmt --check ==="
cargo fmt --all -- --check

echo "=== cargo clippy (deny warnings) ==="
cargo clippy --workspace --all-targets --quiet -- -D warnings

echo "=== simcheck (determinism & unit-safety linter) ==="
# Exits 1 on any diagnostic surviving the allowlists; see DESIGN.md
# "Determinism rules" and `cargo run -p simcheck -- --help`.
cargo run -p simcheck --release --quiet

echo "=== speccheck (spec-anchored compliance coverage) ==="
# Exits 1 if any registered MUST clause (specs/*.spec) lacks both an
# implementation citation and an enforcing-test citation, if a
# `//= spec:` annotation names a nonexistent clause, or if a citation
# no longer anchors to code; see DESIGN.md "Spec compliance".
cargo run -p speccheck --release --quiet -- summary

echo "=== speccheck JSON reproducibility ==="
# The machine-readable report is consumed downstream; two runs over
# the same tree must be byte-identical.
spec_dir="$(mktemp -d)"
for i in 1 2; do
  cargo run -p speccheck --release --quiet -- json > "$spec_dir/spec-$i.json"
done
cmp "$spec_dir/spec-1.json" "$spec_dir/spec-2.json" \
  || { echo "speccheck json diverged between identical runs"; rm -rf "$spec_dir"; exit 1; }
rm -rf "$spec_dir"

echo "=== one codec, one JSON (no re-grown wire-format helpers) ==="
# Every wire format is lexed and escaped in telemetry::{codec,json}
# (DESIGN.md §6). simcheck/speccheck stay zero-dependency linters and
# the proptest shim is vendored, so they keep their own copies.
if grep -rnE 'fn json_escape|fn json_string|0xcbf2_9ce4_8422_2325|fn put_varint' crates \
    --include='*.rs' \
    | grep -vE '^crates/(telemetry/src/(json|codec)\.rs|simcheck/|speccheck/|proptest/)'; then
  echo "wire-format helper defined outside telemetry::{codec,json}"; exit 1
fi

echo "=== cargo test ==="
cargo test --workspace -q

echo "=== cargo test (sim-sanitizer forced on) ==="
# Debug tests already run sanitized via debug_assertions; this pass
# proves the `sanitize` feature wiring itself stays sound.
cargo test --workspace --features sanitize -q

echo "=== metrics snapshot reproducibility ==="
# Two invocations of the same bench binary must emit byte-identical
# --metrics snapshots (see DESIGN.md "Observability"): the registry is
# fed only by the deterministic simulation, so any diff here means
# wall-clock, iteration-order, or uninitialized state leaked in.
metrics_dir="$(mktemp -d)"
trap 'rm -rf "$metrics_dir"' EXIT
cargo build --release --quiet -p bench --bin fig14_cwnd
for i in 1 2; do
  IMC_RESULTS_DIR="$metrics_dir" \
    target/release/fig14_cwnd --metrics "$metrics_dir/metrics-$i.json" \
    > /dev/null
done
cmp "$metrics_dir/metrics-1.json" "$metrics_dir/metrics-2.json" \
  || { echo "metrics snapshot diverged between identical runs"; exit 1; }

echo "=== flight-recorder dump reproducibility ==="
# Same property for the causal flight recorder: two runs of the same
# experiment must serialize byte-identical --trace dumps, and wifictl trace
# must be able to read them back.
cargo build --release --quiet -p bench --bin fig15_aggregation
cargo build --release --quiet -p wifictl
for i in 1 2; do
  IMC_RESULTS_DIR="$metrics_dir" \
    target/release/fig15_aggregation --trace "$metrics_dir/trace-$i.bin" \
    --metrics "$metrics_dir/f15-metrics-$i.json" \
    > /dev/null
done
cmp "$metrics_dir/trace-1.bin" "$metrics_dir/trace-2.bin" \
  || { echo "flight-recorder dump diverged between identical runs"; exit 1; }
target/release/wifictl trace summary "$metrics_dir/trace-1.bin" > /dev/null \
  || { echo "wifictl trace could not parse its own dump"; exit 1; }
target/release/wifictl trace chain "$metrics_dir/trace-1.bin" | grep -q "chain complete" \
  || { echo "wifictl trace chain found no complete causal chain in fig15 dump"; exit 1; }

echo "=== health snapshot reproducibility ==="
# Same property for the health/alerting layer: two runs of the same
# experiment (default rules) must serialize byte-identical --health
# snapshots, and wifictl health must be able to triage them.
cargo build --release --quiet -p bench --bin fig18_multi_ap
for i in 1 2; do
  IMC_RESULTS_DIR="$metrics_dir" \
    target/release/fig18_multi_ap --health "$metrics_dir/health-$i.json" \
    > /dev/null
done
cmp "$metrics_dir/health-1.json" "$metrics_dir/health-2.json" \
  || { echo "health snapshot diverged between identical runs"; exit 1; }
target/release/wifictl health summary "$metrics_dir/health-1.json" > /dev/null \
  || { echo "wifictl health could not parse its own snapshot"; exit 1; }
target/release/wifictl health explain "$metrics_dir/health-1.json" > /dev/null \
  || { echo "wifictl health explain failed on the fig18 snapshot"; exit 1; }
target/release/wifictl health diff "$metrics_dir/health-1.json" "$metrics_dir/health-2.json" \
  > /dev/null \
  || { echo "wifictl health diff flagged identical snapshots"; exit 1; }

echo "=== QoE pipeline reproducibility ==="
# Same property for the application-layer QoE subsystem: probe
# injection, windowed scoring and the qoe-degraded detector must be
# deterministic end to end — two fig19_qoe runs byte-identical in both
# --metrics and --health — and the machine-readable wifictl health listings
# must round-trip the snapshot.
cargo build --release --quiet -p bench --bin fig19_qoe
for i in 1 2; do
  IMC_RESULTS_DIR="$metrics_dir" \
    target/release/fig19_qoe --metrics "$metrics_dir/qoe-metrics-$i.json" \
    --health "$metrics_dir/qoe-health-$i.json" \
    > /dev/null
done
cmp "$metrics_dir/qoe-metrics-1.json" "$metrics_dir/qoe-metrics-2.json" \
  || { echo "fig19_qoe metrics snapshot diverged between identical runs"; exit 1; }
cmp "$metrics_dir/qoe-health-1.json" "$metrics_dir/qoe-health-2.json" \
  || { echo "fig19_qoe health snapshot diverged between identical runs"; exit 1; }
target/release/wifictl health alerts "$metrics_dir/qoe-health-1.json" \
  --rule qoe-degraded --json | grep -q '"rule":"qoe-degraded"' \
  || { echo "wifictl health alerts --json found no qoe-degraded alert"; exit 1; }
target/release/wifictl health summary "$metrics_dir/qoe-health-1.json" --json > /dev/null \
  || { echo "wifictl health summary --json failed on the fig19 snapshot"; exit 1; }

echo "=== perf smoke (wifictl perf regress vs committed baseline) ==="
# Three short fig18 `--perf` runs gated by `wifictl perf regress`: fail if
# the best-of-3 events/s for any shared label lands more than 30% below
# the committed BENCH_simperf.json baseline. Wall-clock on shared CI
# hosts is noisy, so the gate exists to catch real hot-path regressions
# (an accidental allocation or O(n) scan per event), not jitter.
for i in 1 2 3; do
  IMC_RESULTS_DIR="$metrics_dir" \
    target/release/fig18_multi_ap --perf "$metrics_dir/perf-smoke-$i.json" \
    > /dev/null
  for key in '"bench"' '"samples"' '"label"' '"events"' '"wall_s"' '"events_per_s"' '"peak_rss_bytes"'; do
    grep -q "$key" "$metrics_dir/perf-smoke-$i.json" \
      || { echo "perf sample JSON missing required key $key"; exit 1; }
  done
done
target/release/wifictl perf regress \
  "$metrics_dir"/perf-smoke-{1,2,3}.json \
  --baseline BENCH_simperf.json --tolerance 30% \
  || { echo "wifictl perf regress: fig18 events/s regressed >30% vs committed baseline"; exit 1; }

echo "=== run-profile reproducibility (deterministic section) ==="
# The `--runprof` sidecar is split into a deterministic section
# (resource watermarks — byte-comparable) and a wall-clock section
# (stage timings — host noise, never compared). Two identical fig15
# runs must agree on the former; `wifictl perf diff` exits 1 if they don't,
# and while it's here the run must not have perturbed the simulation:
# the --metrics snapshot with profiling enabled must match the earlier
# unprofiled one byte for byte.
for i in 1 2; do
  IMC_RESULTS_DIR="$metrics_dir" \
    target/release/fig15_aggregation --runprof "$metrics_dir/runprof-$i.json" \
    --trace "$metrics_dir/trace-prof-$i.bin" \
    > /dev/null
done
target/release/wifictl perf diff "$metrics_dir/runprof-1.json" "$metrics_dir/runprof-2.json" \
  > /dev/null \
  || { echo "runprof deterministic sections diverged between identical runs"; exit 1; }
cmp "$metrics_dir/trace-1.bin" "$metrics_dir/trace-prof-1.bin" \
  || { echo "enabling --runprof changed the fig15 trace artifact"; exit 1; }
target/release/wifictl perf summary "$metrics_dir/runprof-1.json" > /dev/null \
  || { echo "wifictl perf could not summarize its own sidecar"; exit 1; }

echo "=== timeline dump reproducibility and neutrality ==="
# Same property for the time-series sampler (see DESIGN.md §6,
# "Timeline"): two identical runs must serialize byte-identical
# --timeline TSL1 dumps, wifictl time must read them back, and — the
# stronger claim — sampling must be trajectory-neutral: every other
# artifact of a sampled run must byte-match the unsampled runs above.
for i in 1 2; do
  IMC_RESULTS_DIR="$metrics_dir" \
    target/release/fig15_aggregation --timeline "$metrics_dir/tl-$i.bin" \
    --trace "$metrics_dir/trace-tl-$i.bin" \
    --metrics "$metrics_dir/f15-metrics-tl-$i.json" \
    > /dev/null
done
cmp "$metrics_dir/tl-1.bin" "$metrics_dir/tl-2.bin" \
  || { echo "timeline dump diverged between identical runs"; exit 1; }
cmp "$metrics_dir/trace-1.bin" "$metrics_dir/trace-tl-1.bin" \
  || { echo "enabling --timeline changed the fig15 trace artifact"; exit 1; }
cmp "$metrics_dir/f15-metrics-1.json" "$metrics_dir/f15-metrics-tl-1.json" \
  || { echo "enabling --timeline changed the fig15 metrics artifact"; exit 1; }
IMC_RESULTS_DIR="$metrics_dir" \
  target/release/fig18_multi_ap --timeline "$metrics_dir/tl-f18.bin" \
  --health "$metrics_dir/health-tl.json" \
  > /dev/null
cmp "$metrics_dir/health-1.json" "$metrics_dir/health-tl.json" \
  || { echo "enabling --timeline changed the fig18 health artifact"; exit 1; }
target/release/wifictl time summary "$metrics_dir/tl-1.bin" > /dev/null \
  || { echo "wifictl time could not parse its own dump"; exit 1; }
target/release/wifictl time diff "$metrics_dir/tl-1.bin" "$metrics_dir/tl-2.bin" \
  > /dev/null \
  || { echo "wifictl time diff flagged identical dumps"; exit 1; }

echo "=== timeline reproduces the fig14 cwnd curve ==="
# The retired ad-hoc cwnd probe's replacement: fig14's timeline series
# must carry the congestion window at the same 250 ms cadence, and
# wifictl time query must be able to read the curve out of the dump.
IMC_RESULTS_DIR="$metrics_dir" \
  target/release/fig14_cwnd --timeline "$metrics_dir/tl-f14.bin" \
  > /dev/null
target/release/wifictl time query "$metrics_dir/tl-f14.bin" \
  base.tcp.flow0.cwnd_segments | grep -q "^0.25 " \
  || { echo "wifictl time query found no cwnd sample at t=0.25s in the fig14 dump"; exit 1; }
target/release/wifictl time plot "$metrics_dir/tl-f14.bin" \
  base.tcp.flow0.cwnd_segments > /dev/null \
  || { echo "wifictl time plot failed on the fig14 cwnd series"; exit 1; }

echo "=== perf merge determinism ==="
# scripts/merge_perf.sh is the only writer of BENCH_simperf.json and
# must be canonical: merging the same fragments twice has to produce
# byte-identical output (same contract as every other artifact above).
for i in 1 2; do
  scripts/merge_perf.sh "$metrics_dir/perf-merged-$i.json" \
    "$metrics_dir/perf-smoke-1.json" "$metrics_dir/perf-smoke-2.json"
done
cmp "$metrics_dir/perf-merged-1.json" "$metrics_dir/perf-merged-2.json" \
  || { echo "merge_perf.sh output diverged between identical runs"; exit 1; }

echo "ci: all green"
