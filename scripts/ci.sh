#!/usr/bin/env bash
# Tier-1 CI gate: formatting, lints, the determinism linter, the full
# test suite (sim-sanitized, as every debug build is) and the committed
# results. Everything here must pass before a change lands.
#
# Usage: scripts/ci.sh                       (CI_PARENT_REV=<rev> adds
#        the same-host perf gate of scripts/perf_pairs.sh)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "=== DESIGN.md describes what exists ==="
# DESIGN.md describes the system as it stands; its history lives in
# CHANGES.md (ROADMAP item 19). It may only shrink: lower this ceiling
# with it.
design_ceiling=990
design="$(wc -l < DESIGN.md)"
(( design <= design_ceiling )) \
  || { echo "DESIGN.md is $design lines, over the $design_ceiling ceiling in scripts/ci.sh"; exit 1; }
echo "DESIGN.md: $design lines (ceiling $design_ceiling)"
# Every backticked repo path in it resolves from the root. A path is a
# code span (outside fenced blocks, and free to wrap) with a slash and
# no space; a `::item` after a file is dropped and a <placeholder>
# matches any name. A leading slash is a host path, and the grid's
# output, results/BENCH_simperf.json, exists only after a grid run.
while read -r path; do
  [[ $path == /* || $path == results/BENCH_simperf.json ]] && continue
  glob="$(sed -E 's/::.*//; s/<[^>]*>/*/g' <<< "$path")"
  # shellcheck disable=SC2086  # $glob is a pattern by construction
  ls -d -- $glob > /dev/null 2>&1 \
    || { echo "DESIGN.md cites $path, which does not exist"; exit 1; }
done < <(awk '/^```/ { fence = !fence; next } !fence' DESIGN.md | tr '\n' ' ' \
  | grep -oE '`[^`]*`' | tr -d '`' | grep -E '^[^ ]*/[^ ]*$' | sort -u)
# Every DESIGN.md section another file cites exists: a quoted name is a
# heading or a bold label (whole, or up to its colon, parenthesis or
# period), a § number a numbered section. Comment leaders are stripped
# and each file read as one line, so a citation may wrap.
awk '
  function known(n,   i) {
    for (i = 1; i <= nlab; i++)
      if (lab[i] == n || index(lab[i], n ":") == 1 || index(lab[i], n " (") == 1 \
          || index(lab[i], n ".") == 1)
        return 1
    return 0
  }
  function check(   s, c, n) {
    s = text
    while (match(s, /DESIGN\.md( §[0-9]+)?,? "[^"]+"(,? (and|or) "[^"]+")*/)) {
      c = substr(s, RSTART, RLENGTH)
      s = substr(s, RSTART + RLENGTH)
      while (match(c, /"[^"]+"/)) {
        n = substr(c, RSTART + 1, RLENGTH - 2)
        c = substr(c, RSTART + RLENGTH)
        if (!known(n)) {
          printf "%s cites DESIGN.md \"%s\", which is no heading or bold label in it\n", file, n
          bad = 1
        }
      }
    }
    s = text
    while (match(s, /DESIGN\.md §[0-9]+/)) {
      c = substr(s, RSTART, RLENGTH)
      s = substr(s, RSTART + RLENGTH)
      sub(/.*§/, "", c)
      if (!(c in section)) {
        printf "%s cites DESIGN.md §%s, which is no numbered section in it\n", file, c
        bad = 1
      }
    }
  }
  FILENAME == "DESIGN.md" {
    if (/^#+ /) { t = $0; sub(/^#+ ([0-9]+\. )?/, "", t); lab[++nlab] = t }
    if (/^## [0-9]+\. /) { n = $2; sub(/\.$/, "", n); section[n] = 1 }
    s = $0
    while (match(s, /\*\*[^*]+\*\*/)) {
      lab[++nlab] = substr(s, RSTART + 2, RLENGTH - 4)
      s = substr(s, RSTART + RLENGTH)
    }
    next
  }
  FNR == 1 { check(); text = ""; file = FILENAME }
  { line = $0; sub(/^[ \t]*(\/\/[\/!]?|#+)?[ \t]*/, "", line); text = text " " line }
  END { check(); exit bad }
' DESIGN.md $(find crates tests scripts -type f \( -name '*.rs' -o -name '*.sh' \) | sort) \
  clippy.toml README.md EXPERIMENTS.md .claude/skills/verify/SKILL.md

echo "=== cargo fmt --check ==="
cargo fmt --all -- --check

echo "=== cargo clippy (deny warnings) ==="
cargo clippy --workspace --all-targets --quiet -- -D warnings

echo "=== benchmark/ builds against the workspace ==="
# The standalone package the pipeline measures with (BENCHMARK.json) is
# not a workspace member, so nothing above compiles it: an API deletion
# that breaks it has to fail here, not after the PR.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

echo "=== simcheck (determinism rules + spec-anchored compliance) ==="
# One pass over the tree. Exits 1 on any diagnostic surviving the
# allowlists, on a `//= spec:` annotation that is malformed, names a
# nonexistent clause or no longer anchors to code, or if any registered
# MUST clause (specs/*.spec) lacks an implementation citation or an
# enforcing-test citation; exits 2 on a registry that fails to parse.
# See DESIGN.md §5 "Determinism rules" and "Spec compliance".
cargo run -p simcheck --release --quiet

echo "=== one codec, one JSON (no re-grown wire-format helpers) ==="
# Every wire format is lexed and escaped in telemetry::{codec,json}
# (DESIGN.md §6). simcheck writes no JSON at all; only the vendored
# proptest shim keeps its own copy.
if grep -rnE 'fn json_escape|fn json_string|0xcbf2_9ce4_8422_2325|fn put_varint|fn put_u16|fn put_u32|fn put_u64|fn from_tag' crates \
    --include='*.rs' \
    | grep -vE '^crates/(telemetry/src/(json|codec)\.rs|proptest/)'; then
  echo "wire-format helper defined outside telemetry::{codec,json}"; exit 1
fi

echo "=== no cargo features at all ==="
# The test pass below builds with no features, and the sim-sanitizer's
# one switch is debug_assertions: a feature is code no gate compiles.
if grep -n '^\[features\]' Cargo.toml crates/*/Cargo.toml; then
  echo "a manifest declares cargo features no gate builds"; exit 1
fi

echo "=== no god-files (every file; testbed, health, timeline, flight), taps cannot steer ==="
# A file's non-test body is its lines above its first `#[cfg(test)]` (a
# `tests.rs` is all test): no body under crates/ may pass 800 lines.
# Four modules were one file each once and are layered pieces now, and
# no file of any may grow back past its own, tighter limit.
# netsim::testbed is a protocol world plus read-only taps (DESIGN.md
# "Testbed anatomy"); telemetry::health is wire format / rules / engine
# / catalog (DESIGN.md "Health & alerting"); telemetry::timeline is
# store / sampler / wire / query (DESIGN.md "Timeline");
# telemetry::flight is record / recorder / dump / wire (DESIGN.md
# "Flight recorder"). The taps file, besides, may not so much as name
# the two types a sink would need to change a trajectory.
while read -r file; do
  body="$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")"
  (( body <= 800 )) \
    || { echo "$file has a $body-line non-test body (limit 800)"; exit 1; }
done < <(find crates -name '*.rs' ! -name tests.rs | sort)
while read -r limit files; do
  while read -r lines file; do
    [[ $file == total ]] || (( lines <= limit )) \
      || { echo "$file has $lines lines (limit $limit)"; exit 1; }
  # shellcheck disable=SC2086  # $files is a glob by construction
  done < <(wc -l $files)
done << EOF
800 crates/netsim/src/testbed/*.rs
600 crates/telemetry/src/health/*.rs
600 crates/telemetry/src/timeline/*.rs
600 crates/telemetry/src/flight/*.rs
EOF
if grep -nwE 'Rng|EventQueue' crates/netsim/src/testbed/taps.rs; then
  echo "testbed/taps.rs names Rng or EventQueue"; exit 1
fi

echo "=== less code (ROADMAP item 4's number may only go down) ==="
# Raising the ceiling is a deliberate, reviewed edit of this line: say
# in CHANGES.md what the new lines bought. Lower it when a PR deletes.
loc_ceiling=39986
loc="$(find crates tests examples -name '*.rs' -print0 | xargs -0 cat | wc -l)"
(( loc <= loc_ceiling )) \
  || { echo "workspace Rust is $loc lines, over the $loc_ceiling ceiling in scripts/ci.sh: delete something, or raise the ceiling on purpose and defend it in review"; exit 1; }
# Item 4's non-test count, printed and not gated: the lines of each
# `.rs` file under crates/ and examples/ above its first line that is
# exactly `#[cfg(test)]`, with `tests.rs` files and `*/tests/*` left out.
nontest="$(find crates examples -name '*.rs' ! -name tests.rs ! -path '*/tests/*' -print0 \
  | xargs -0 awk '/^#\[cfg\(test\)\]$/ { nextfile } { n++ } END { print n + 0 }')"
echo "workspace Rust: $loc lines (ceiling $loc_ceiling), $nontest of them non-test"

echo "=== MUST clauses (the number may only go up) ==="
# simcheck fails a MUST clause that lacks a citation, not one that is
# gone: deleting a clause, or downgrading it to SHOULD, would pass its
# coverage rule. Lowering this floor is a deliberate, reviewed edit.
must_floor=39
must="$(grep -hE '^clause [^ ]+ MUST[[:space:]]*$' specs/*.spec | wc -l)"
(( must >= must_floor )) \
  || { echo "specs/ registers $must MUST clauses, under the floor of $must_floor in scripts/ci.sh"; exit 1; }

echo "=== cargo test ==="
# A debug build, so the sim-sanitizer (sim::sanitize) is on throughout.
cargo test --workspace -q
# The allocation budget again in release, the build users run: the
# debug run above could pass on allocations only release code makes.
cargo test --release -q --test alloc_budget

echo "=== artifact reproducibility and observer neutrality ==="
# Every sink a bench binary writes (DESIGN.md §6) is fed only by the
# deterministic simulation, so for each pinned experiment: runs A and B
# carry every flag, run C only the three sink flags. A == B byte for
# byte on the four artifacts — and on the --runprof sidecar's
# deterministic section, which `wifictl perf diff` compares (its
# wall-clock half is host noise) — is reproducibility: a diff means
# wall-clock, iteration order or uninitialized state leaked in. A == C
# on metrics/trace/health is neutrality: neither the timeline sampler
# nor the host profiler may steer a run.
art="$(mktemp -d)"
trap 'rm -rf "$art"' EXIT
export IMC_RESULTS_DIR="$art"
cargo build --release --quiet -p bench -p wifictl
ctl=target/release/wifictl
for bin in fig14_cwnd fig15_aggregation fig18_multi_ap fig19_qoe; do
  fig="${bin%%_*}"
  for run in a b c; do
    flags=(--metrics "$art/$fig.$run.metrics" --trace "$art/$fig.$run.trace"
           --health "$art/$fig.$run.health")
    [[ $run == c ]] \
      || flags+=(--timeline "$art/$fig.$run.timeline" --runprof "$art/$fig.$run.runprof")
    "target/release/$bin" "${flags[@]}" > /dev/null
  done
  for kind in metrics trace health timeline; do
    cmp "$art/$fig.a.$kind" "$art/$fig.b.$kind" \
      || { echo "$bin --$kind diverged between identical runs"; exit 1; }
  done
  "$ctl" perf diff "$art/$fig.a.runprof" "$art/$fig.b.runprof" > /dev/null \
    || { echo "$bin --runprof deterministic sections diverged between identical runs"; exit 1; }
  for kind in metrics trace health; do
    cmp "$art/$fig.a.$kind" "$art/$fig.c.$kind" \
      || { echo "--timeline/--runprof changed the $bin --$kind artifact"; exit 1; }
  done
done
# Every tracked result is what its bin writes, byte for byte: the
# packet figures above wrote theirs, the rest run once here (~6 s).
for bin in fig01_client_capabilities fig02_utilization_cdf fig03_interferer_cdf \
    fig04_ac_latency fig05_bitrate_distribution fig06_ap_snapshot fig07_rssi_pdf \
    fig08_tcp_latency_cdf fig09_bitrate_efficiency fig10_latency_vs_clients \
    fig16_throughput fig17_fairness tab01_channel_width tab02_usage \
    abl_bad_hints abl_baselines abl_fastack_cache abl_nbo_hops abl_penalty abl_rxwin; do
  "target/release/$bin" > /dev/null
done
results="$(git ls-files 'results/*.json')"
[[ -n $results ]] || { echo "git lists no tracked results/*.json"; exit 1; }
for result in $results; do
  cmp "$art/${result#results/}" "$result" \
    || { echo "$result differs from what its bin writes"; exit 1; }
done

echo "=== wifictl reads every artifact back ==="
# One line per smoke, "<pattern>|<wifictl arguments>": the inspector
# must exit 0 on the dumps above and, unless the pattern is "-", print
# a line matching it — a complete causal chain in the fig15 trace, a
# non-empty match of the one component filter, the qoe-degraded alert
# fig19's interferer raises (an empty match prints only "0 alerts
# matched"), fig14's cwnd curve at the sampler's first 250 ms tick, the
# header of fig15's CSV export.
while IFS='|' read -r want args; do
  # shellcheck disable=SC2086  # $args is a word list by construction
  out="$("$ctl" $args)" || { echo "wifictl $args failed"; exit 1; }
  [[ $want == - ]] || grep -q -- "$want" <<< "$out" \
    || { echo "wifictl $args printed nothing matching '$want'"; exit 1; }
done << EOF
-|trace summary $art/fig15.a.trace
chain complete|trace chain $art/fig15.a.trace
^[1-9][0-9]* records matched$|trace grep $art/fig15.a.trace --component fast.fastack.synth
-|health summary $art/fig18.a.health
-|health explain $art/fig18.a.health
-|health diff $art/fig18.a.health $art/fig18.b.health
qoe-degraded|health alerts $art/fig19.a.health --rule qoe-degraded
-|health summary $art/fig19.a.health
-|perf summary $art/fig15.a.runprof
-|time summary $art/fig15.a.timeline
-|time diff $art/fig15.a.timeline $art/fig15.b.timeline
^0.25 |time query $art/fig14.a.timeline base.tcp.flow0.cwnd_segments
-|time plot $art/fig14.a.timeline base.tcp.flow0.cwnd_segments
^series,kind,t_ns,value$|time export $art/fig15.a.timeline
EOF
# A reader that stops early (`| head`) closes the pipe under wifictl:
# it must still exit 0 and print nothing to stderr. The export must be
# larger than the 64 KiB pipe buffer, or wifictl never meets EPIPE.
csv_bytes="$("$ctl" time export "$art/fig15.a.timeline" | wc -c)"
(( csv_bytes > 65536 )) \
  || { echo "fig15's CSV export is $csv_bytes bytes: too small to fill a pipe"; exit 1; }
"$ctl" time export "$art/fig15.a.timeline" 2> "$art/epipe.err" | head -n 1 > /dev/null \
  || { echo "wifictl time export failed when its reader closed the pipe"; exit 1; }
[[ ! -s $art/epipe.err ]] \
  || { echo "wifictl wrote to stderr when its reader closed the pipe:"; cat "$art/epipe.err"; exit 1; }

if [[ -n "${CI_PARENT_REV:-}" ]]; then
  echo "=== same-host perf pairs vs $CI_PARENT_REV ==="
  # The absolute check below needs a host as fast as the one the
  # baseline was recorded on; this one compares against the parent
  # built and run on this host, alternately with the change. It runs
  # first so a slow host still gets its verdict.
  scripts/perf_pairs.sh "$CI_PARENT_REV"
fi

echo "=== perf smoke (wifictl perf regress vs committed baseline) ==="
# Three short `--perf` runs each of fig18 (the packet path), of
# fig19_qoe (the one bin with probing and health scoring of QoE windows
# on its default path: the sinks) and of abl_penalty and abl_nbo_hops
# (the planner: whole TurboCA plans, single NBO passes — each sample
# repeats its seeded plans until 100 ms are timed, because best-of-3 of
# a 5 ms sample is noise), gated by
# `wifictl perf regress`: fail if the best-of-3 rate for any shared
# label lands more than 30% below the committed BENCH_simperf.json
# baseline. Wall-clock on shared CI hosts is noisy, so the gate exists
# to catch real hot-path regressions (an accidental allocation or O(n)
# scan per event, a copy-and-sort per score, a per-call geometry
# rebuild in the planner's inner loop), not jitter.
for bin in fig18_multi_ap fig19_qoe abl_penalty abl_nbo_hops; do
  for i in 1 2 3; do
    "target/release/$bin" --perf "$art/perf-smoke-$bin-$i.json" > /dev/null
    for key in '"bench"' '"samples"' '"label"' '"events"' '"wall_s"' '"events_per_s"' '"peak_rss_bytes"' '"cores"'; do
      grep -q "$key" "$art/perf-smoke-$bin-$i.json" \
        || { echo "perf sample JSON missing required key $key"; exit 1; }
    done
  done
done
target/release/wifictl perf regress \
  "$art"/perf-smoke-*.json \
  --baseline BENCH_simperf.json --tolerance 30% \
  || { echo "wifictl perf regress: a smoke label regressed >30% vs committed baseline"; exit 1; }

echo "=== perf merge determinism ==="
# scripts/merge_perf.sh is the only writer of BENCH_simperf.json and
# must be canonical: merging the same fragments twice has to produce
# byte-identical output (same contract as every other artifact above).
for i in 1 2; do
  scripts/merge_perf.sh "$art/perf-merged-$i.json" \
    "$art/perf-smoke-fig18_multi_ap-1.json" "$art/perf-smoke-abl_penalty-1.json"
done
cmp "$art/perf-merged-1.json" "$art/perf-merged-2.json" \
  || { echo "merge_perf.sh output diverged between identical runs"; exit 1; }

echo "ci: all green"
