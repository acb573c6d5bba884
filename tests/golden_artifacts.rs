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

use bench::arms::{self, Arm};
use bench::harness::Experiment;
use wifi_core::telemetry::codec::Fnv1a;

/// FNV-1a 64 over the artifact bytes: stable, dependency-free, and more
/// than enough to detect drift (these are equality pins, not security).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/artifact_hashes.txt"
);

/// Compare `name -> hash` lines against the committed golden file, or
/// rewrite the file when `IMC_UPDATE_GOLDENS` is set. Entries missing
/// from the file fail (pin everything), and per-entry drift reports the
/// artifact name so the failure says *what* diverged.
fn check_goldens(entries: &[(String, u64)]) {
    let rendered: String = entries
        .iter()
        .map(|(name, h)| format!("{name} {h:016x}\n"))
        .collect();
    if std::env::var_os("IMC_UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(std::path::Path::new(GOLDEN_PATH).parent().unwrap()).unwrap();
        // Merge with any entries the other golden test wrote: each test
        // owns the lines bearing its prefix, everything else is kept.
        let prefix = entries[0].0.split('.').next().unwrap();
        let existing = std::fs::read_to_string(GOLDEN_PATH).unwrap_or_default();
        let kept: String = existing
            .lines()
            .filter(|l| !l.starts_with(prefix))
            .map(|l| format!("{l}\n"))
            .collect();
        let mut all: Vec<&str> = Vec::new();
        let merged = format!("{kept}{rendered}");
        all.extend(merged.lines());
        all.sort_unstable();
        let out: String = all.iter().map(|l| format!("{l}\n")).collect();
        std::fs::write(GOLDEN_PATH, out).unwrap();
        eprintln!("updated {GOLDEN_PATH}");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH).unwrap_or_else(|e| {
        panic!("missing golden file {GOLDEN_PATH}: {e} (run with IMC_UPDATE_GOLDENS=1 to create)")
    });
    for (name, h) in entries {
        let want = golden
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{name} ")))
            .unwrap_or_else(|| panic!("artifact {name} not pinned in {GOLDEN_PATH}"));
        assert_eq!(
            format!("{h:016x}"),
            want,
            "artifact {name} drifted from its golden hash — the simulation \
             trajectory changed. If intentional, refresh with \
             IMC_UPDATE_GOLDENS=1 cargo test --test golden_artifacts"
        );
    }
}

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
    check_goldens(&entries);
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
