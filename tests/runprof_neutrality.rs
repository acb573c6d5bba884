//! Trajectory-neutrality of the host-side profiler.
//!
//! `telemetry::runprof` reads the host clock — the one audited
//! exception to the workspace's wall-clock ban (its one
//! `#[allow(clippy::disallowed_methods)]`). The exemption is
//! only sound if profiling can never steer the simulation: every
//! deterministic artifact must be byte-identical whether the profiler
//! is off, on, or toggled between runs. This test pins that property
//! directly on one fig18 and one fig15 arm (`bench::arms`, the lists
//! the golden-artifact pins cover in full), and checks the sidecar
//! itself splits cleanly into reproducible and wall-clock halves.
//!
//! Everything lives in one `#[test]` because `runprof` state is
//! process-global: parallel test threads toggling `set_enabled` would
//! race each other's measurements (never the simulation — that is the
//! point — but the assertions below compare profiler state too).

use bench::arms;
use bench::harness::Experiment;
use wifi_core::telemetry::runprof;

/// The four deterministic artifacts a bench binary would emit after
/// fig18's mixed arm (two co-channel APs, baseline + FastACK) and
/// fig15's UDP-saturation arm, run through the harness path.
fn artifacts() -> Vec<(&'static str, Vec<u8>)> {
    let mut exp = Experiment::parse("neutrality", "profiler on/off", &[]).unwrap();
    let [_, bf, _] = arms::fig18();
    let [_, _, udp] = arms::fig15();
    for arm in [bf, udp] {
        exp.run_arm(arm.label, arm.cfg, arm.duration);
    }
    exp.artifacts()
}

#[test]
fn profiler_on_off_produces_identical_artifacts() {
    // Pass 1: profiler off (and any stale state cleared).
    runprof::set_enabled(false);
    runprof::reset();
    let off = artifacts();
    let off_snapshot = runprof::snapshot();
    assert!(
        off_snapshot.watermarks.is_empty() && off_snapshot.stages.is_empty(),
        "disabled profiler must record nothing"
    );

    // Pass 2: profiler on. Same seeds, same configs — every
    // deterministic artifact must not move by a byte.
    runprof::set_enabled(true);
    let on = artifacts();
    runprof::set_enabled(false);

    for ((name, off), (_, on)) in off.iter().zip(&on) {
        assert!(off == on, "fig18/fig15 {name} drifted under profiling");
    }

    // The profiled pass must actually have measured something, and the
    // deterministic half of its sidecar must reproduce: same runs,
    // same watermarks, byte for byte.
    let snap = runprof::snapshot();
    assert!(
        snap.stages.contains_key("testbed.run"),
        "profiled pass recorded no testbed.run span"
    );
    assert!(
        snap.watermarks.contains_key("sim.queue.depth_peak"),
        "profiled pass recorded no queue-depth watermark"
    );
    let det = |p: &runprof::RunProfile| {
        let json = p.to_json("neutrality");
        let (head, _) = json
            .split_once("\"wall_clock\"")
            .expect("sidecar has a wall_clock section");
        head.to_owned()
    };
    let first = det(&snap);

    runprof::reset();
    runprof::set_enabled(true);
    let rerun = artifacts();
    runprof::set_enabled(false);
    assert!(on == rerun, "fig18/fig15 artifacts drifted across reruns");
    assert_eq!(
        first,
        det(&runprof::snapshot()),
        "deterministic sidecar section diverged between identical runs"
    );
}
