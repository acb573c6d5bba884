//! Byte-identity pins for the perf-campaign experiments.
//!
//! The hot-path speed work (arena event store, batched DCF stepping,
//! PHY lookup tables) is only allowed to make the simulator *faster*,
//! never to change what it computes: the determinism guarantee says the
//! fig18 and fig15 `--metrics`/`--trace`/`--health` artifacts must stay
//! byte-identical across such changes. These tests reproduce exactly
//! the artifact bytes the bench binaries emit (same runs, same absorb
//! order, same serialization calls) and pin their hashes against
//! `tests/golden/artifact_hashes.txt`, so any trajectory drift fails
//! tier-1 rather than slipping silently into a perf PR.
//!
//! Refreshing after an *intentional* behaviour change:
//!
//! ```text
//! IMC_UPDATE_GOLDENS=1 cargo test --test golden_artifacts
//! ```
//!
//! then commit the rewritten hash file together with the change that
//! explains it.

use wifi_core::netsim::testbed::{InterfererFault, Traffic};
use wifi_core::prelude::*;
use wifi_core::telemetry::codec::Fnv1a;
use wifi_core::telemetry::{FlightDump, HealthReport, Registry};

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
fn check_goldens(entries: &[(&str, u64)]) {
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

/// Exactly `fig18_multi_ap`'s three runs and artifact assembly. Runs
/// with the host-side profiler enabled: the pinned hashes double as
/// proof that `--runprof` is trajectory-neutral (same bytes whether or
/// not wall-clock spans are being recorded).
#[test]
fn fig18_artifacts_match_goldens() {
    wifi_core::telemetry::runprof::set_enabled(true);
    let run = |fa1: bool, fa2: bool| {
        Testbed::new(TestbedConfig {
            n_aps: 2,
            clients_per_ap: 10,
            fastack: vec![fa1, fa2],
            seed: 1818,
            ap_buffer_pool_frames: 512,
            ..TestbedConfig::default()
        })
        .run(SimDuration::from_secs(6))
    };
    let bb = run(false, false);
    let bf = run(false, true);
    let ff = run(true, true);

    let mut metrics = Registry::default();
    metrics.merge_from(&bb.metrics);
    metrics.merge_from(&bf.metrics);
    metrics.merge_from(&ff.metrics);
    let mut flight = FlightDump::default();
    flight.absorb("bb", &bb.flight);
    flight.absorb("bf", &bf.flight);
    flight.absorb("ff", &ff.flight);
    let mut health = HealthReport::default();
    health.absorb("bb", &bb.health);
    health.absorb("bf", &bf.health);
    health.absorb("ff", &ff.health);

    check_goldens(&[
        ("fig18.metrics", fnv1a(metrics.to_json().as_bytes())),
        ("fig18.trace", fnv1a(&flight.to_bytes())),
        ("fig18.health", fnv1a(health.to_json().as_bytes())),
    ]);
}

/// Exactly `fig15_aggregation`'s three runs and artifact assembly (the
/// bench binary absorbs no health reports, so its `--health` artifact
/// is the canonical empty report — pinned all the same).
#[test]
fn fig15_artifacts_match_goldens() {
    wifi_core::telemetry::runprof::set_enabled(true);
    let run = |fastack: bool| {
        Testbed::new(TestbedConfig {
            clients_per_ap: 30,
            fastack: vec![fastack],
            seed: 1515,
            ..TestbedConfig::default()
        })
        .run(SimDuration::from_secs(8))
    };
    let base = run(false);
    let fast = run(true);
    let udp = Testbed::new(TestbedConfig {
        clients_per_ap: 30,
        fastack: vec![false],
        seed: 1515,
        traffic: Traffic::UdpSaturate,
        ..TestbedConfig::default()
    })
    .run(SimDuration::from_secs(4));

    let mut metrics = Registry::default();
    metrics.merge_from(&base.metrics);
    metrics.merge_from(&fast.metrics);
    metrics.merge_from(&udp.metrics);
    let mut flight = FlightDump::default();
    flight.absorb("base", &base.flight);
    flight.absorb("fast", &fast.flight);
    flight.absorb("udp", &udp.flight);
    let health = HealthReport::default();

    check_goldens(&[
        ("fig15.metrics", fnv1a(metrics.to_json().as_bytes())),
        ("fig15.trace", fnv1a(&flight.to_bytes())),
        ("fig15.health", fnv1a(health.to_json().as_bytes())),
    ]);
}

/// Exactly `fig19_qoe`'s two runs and artifact assembly — the QoE
/// subsystem (probe flows, per-client scoring, the `qoe-degraded`
/// detector) joins fig15/fig18 under the byte-identity pin, so probe
/// scheduling or scoring drift fails tier-1 instead of shipping.
#[test]
fn fig19_artifacts_match_goldens() {
    wifi_core::telemetry::runprof::set_enabled(true);
    let run = |fastack: bool| {
        Testbed::new(TestbedConfig {
            clients_per_ap: 6,
            fastack: vec![fastack],
            seed: 1919,
            interferer: Some(InterfererFault::default()),
            qoe: Some(ProbeConfig::default()),
            ..TestbedConfig::default()
        })
        .run(SimDuration::from_secs(5))
    };
    let base = run(false);
    let fast = run(true);

    let mut metrics = Registry::default();
    metrics.merge_from(&base.metrics);
    metrics.merge_from(&fast.metrics);
    let mut flight = FlightDump::default();
    flight.absorb("base", &base.flight);
    flight.absorb("fast", &fast.flight);
    let mut health = HealthReport::default();
    health.absorb("base", &base.health);
    health.absorb("fast", &fast.health);

    check_goldens(&[
        ("fig19.metrics", fnv1a(metrics.to_json().as_bytes())),
        ("fig19.trace", fnv1a(&flight.to_bytes())),
        ("fig19.health", fnv1a(health.to_json().as_bytes())),
    ]);
}
