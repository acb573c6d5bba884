#!/usr/bin/env bash
# Run every paper-reproduction experiment and ablation; results land in
# <outdir>/*.json (default: results/). Exits 1 if any experiment
# failed (a paper-vs-measured mismatch or a crash), 3 if every
# experiment passed and only the wall-clock perf gate failed, 0 if all
# passed. The last line says which.
#
# Usage: scripts/run_experiments.sh [outdir]
set -euo pipefail
cd "$(dirname "$0")/.."

OUTDIR="${1:-results}"
mkdir -p "$OUTDIR"
# Picked up by bench::harness::Experiment's report step for the JSON dumps.
export IMC_RESULTS_DIR="$OUTDIR"

EXPERIMENTS=(
  fig01_client_capabilities fig02_utilization_cdf fig03_interferer_cdf
  fig04_ac_latency fig05_bitrate_distribution tab01_channel_width
  fig06_ap_snapshot tab02_usage fig07_rssi_pdf fig08_tcp_latency_cdf
  fig09_bitrate_efficiency fig10_latency_vs_clients fig14_cwnd
  fig15_aggregation fig16_throughput fig17_fairness fig18_multi_ap
  fig19_qoe fleet_scale
  abl_nbo_hops abl_penalty abl_fastack_cache abl_bad_hints abl_rxwin abl_baselines
)

# Build everything up front so a missing/broken binary fails fast,
# before any experiment has run.
echo "=== building experiment binaries ==="
cargo build --release -p bench --quiet
for exp in "${EXPERIMENTS[@]}"; do
  if [[ ! -x "target/release/$exp" ]]; then
    echo "!! experiment binary missing after build: $exp" >&2
    exit 2
  fi
done

# Experiments that double as wall-clock throughput benchmarks. Each
# writes a per-binary `--perf` artifact, the throughput samples merged
# into BENCH_simperf.json below, plus a `--runprof` sidecar (stage wall
# times, watermarks, peak RSS — see `wifictl perf summary`), which
# holds no samples.
# Perf numbers are host-dependent and never byte-compared — they exist
# to catch order-of-magnitude regressions.
PERF_EXPERIMENTS=(
  fig14_cwnd fig15_aggregation fig16_throughput fig17_fairness
  fig18_multi_ap fig19_qoe fleet_scale
  abl_nbo_hops abl_penalty abl_fastack_cache abl_bad_hints abl_rxwin
  abl_baselines
)

failed=()
for exp in "${EXPERIMENTS[@]}"; do
  echo "=== $exp ==="
  args=()
  for p in "${PERF_EXPERIMENTS[@]}"; do
    if [[ "$exp" == "$p" ]]; then
      args=(--perf "$OUTDIR/$exp.perf.json" --runprof "$OUTDIR/$exp.runprof.json")
    fi
  done
  if ! "target/release/$exp" "${args[@]}"; then
    echo "!! $exp reported mismatches"
    failed+=("$exp")
  fi
done

# Merge the per-binary perf artifacts into one canonical
# BENCH_simperf.json (see scripts/merge_perf.sh for the byte-stability
# contract).
frags=()
for p in "${PERF_EXPERIMENTS[@]}"; do
  frags+=("$OUTDIR/$p.perf.json")
done
scripts/merge_perf.sh "$OUTDIR/BENCH_simperf.json" "${frags[@]}"
echo "=== perf baseline: $OUTDIR/BENCH_simperf.json ==="

perf_failed=0
# Gate the fresh grid against the committed baseline. --strict makes a
# bench that silently dropped out of the grid (label present in the
# baseline but never measured above) a failure, not a "(not measured)"
# pass. Generous tolerance: this catches order-of-magnitude cliffs and
# missing benches, not host-to-host jitter.
if [[ -f BENCH_simperf.json ]]; then
  echo "=== perf regression gate (strict) ==="
  cargo build --release -p wifictl --quiet
  if ! target/release/wifictl perf regress "$OUTDIR/BENCH_simperf.json" \
      --baseline BENCH_simperf.json --tolerance 50% --strict; then
    echo "!! perf regression gate failed"
    perf_failed=1
  fi
fi

if (( ${#failed[@]} > 0 )); then
  also=""
  if ((perf_failed)); then also=" (and the perf gate)"; fi
  echo "FAILED: ${failed[*]}$also"
  exit 1
elif ((perf_failed)); then
  echo "FAILED: perf gate only"
  exit 3
fi
echo "ok: every experiment and the perf gate passed"
