//! Byte-identity pins for the packet-level experiments.
//!
//! Perf work is only allowed to make the simulator *faster*, and
//! observation (`--runprof`, `--timeline`) is only allowed to watch:
//! neither may change what a run computes. Each test here runs one
//! experiment's arm list (`bench::arms`) through the harness path its
//! binary uses — `Experiment::run_arms`, then `Experiment::artifacts`,
//! the very bytes `--metrics`/`--trace`/`--health`/`--timeline` write —
//! and pins their hashes against `tests/golden/artifact_hashes.txt`,
//! so any trajectory drift fails tier-1 rather than slipping silently
//! into a perf PR.
//!
//! Every run has the host-side profiler **and** the timeline sampler
//! on (100 ms; fig14 keeps its own 250 ms one). The fig15/18/19
//! metrics/trace/health hashes were pinned from unobserved runs, so
//! their not moving is the tier-1 proof that both are
//! trajectory-neutral; scripts/ci.sh repeats it on the binaries.
//!
//! Refreshing after an *intentional* behaviour change:
//!
//! ```text
//! IMC_UPDATE_GOLDENS=1 cargo test --test golden_artifacts -- --test-threads=1
//! ```
//!
//! (one thread: every test rewrites its own lines of the one file) then
//! the rewritten hash file together with the change that explains it.

mod common;

use bench::arms::{self, Arm};
use bench::harness::Experiment;
use common::{check_goldens, fnv1a};

/// Run `arms` the way the `fig` binary does under `--timeline x
/// --runprof y` and pin all four artifacts as `<fig>.<artifact>`.
fn pin<const N: usize>(fig: &str, arms: [Arm; N]) {
    let argv = [fig, "--timeline", "unwritten", "--runprof", "unwritten"].map(str::to_owned);
    let mut exp = Experiment::parse(fig, "golden pin", &argv, &[]).unwrap();
    exp.run_arms(arms);
    let entries: Vec<(String, u64)> = exp
        .artifacts()
        .iter()
        .map(|(name, bytes)| (format!("{fig}.{name}"), fnv1a(bytes)))
        .collect();
    check_goldens(fig, &entries);
}

/// `fig14_cwnd`'s two runs: the always-on 250 ms sampler that feeds the
/// figure's cwnd curves.
#[test]
fn fig14_artifacts_match_goldens() {
    pin("fig14", arms::fig14());
}

/// `fig15_aggregation`'s three runs (TCP baseline, FastACK, UDP bound).
#[test]
fn fig15_artifacts_match_goldens() {
    pin("fig15", arms::fig15());
}

/// `fig18_multi_ap`'s three runs.
#[test]
fn fig18_artifacts_match_goldens() {
    pin("fig18", arms::fig18());
}

/// `fig19_qoe`'s two runs — the QoE subsystem (probe flows, per-client
/// scoring, the `qoe-degraded` detector) under the byte-identity pin,
/// so probe scheduling or scoring drift fails tier-1 instead of
/// shipping.
#[test]
fn fig19_artifacts_match_goldens() {
    pin("fig19", arms::fig19());
}
