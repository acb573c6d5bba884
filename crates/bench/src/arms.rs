//! The arm lists of the pinned experiments: label, testbed config and
//! simulated duration of every run behind Figs. 14, 15, 18 and 19.
//!
//! The bench binaries, `tests/golden_artifacts.rs` and
//! `tests/runprof_neutrality.rs` all feed these to
//! [`Experiment::run_arms`](crate::harness::Experiment::run_arms), so
//! tier-1 pins the bytes the binaries emit — there is no second copy of
//! a config to drift.

use wifi_core::netsim::testbed::{InterfererFault, Traffic};
use wifi_core::prelude::*;

/// One testbed run of an experiment.
pub struct Arm {
    /// Prefix of the run's flight components, alert components and
    /// timeline series in the merged artifacts.
    pub label: &'static str,
    pub cfg: TestbedConfig,
    pub duration: SimDuration,
}

/// Fig. 14 — 10 concurrent flows, baseline vs FastACK.
pub fn fig14() -> [Arm; 2] {
    [("base", false), ("fast", true)].map(|(label, fastack)| Arm {
        label,
        cfg: TestbedConfig {
            clients_per_ap: 10,
            fastack: vec![fastack],
            seed: 1414,
            // The cwnd curves come off the timeline sampler (always on for
            // this figure: the CSV series need it regardless of argv; the
            // `--timeline` flag only controls whether the TSL1 store is
            // dumped). 250 ms matches the retired ad-hoc cwnd probe, so
            // the figure's series are byte-identical before/after.
            timeline: Some(TimelineConfig::sampling(SimDuration::from_millis(250))),
            ..TestbedConfig::default()
        },
        duration: SimDuration::from_secs(10),
    })
}

/// Fig. 15 — 30 clients, baseline vs FastACK, plus UDP saturation as
/// the connectionless upper bound.
pub fn fig15() -> [Arm; 3] {
    [
        ("base", false, Traffic::Tcp, 8),
        ("fast", true, Traffic::Tcp, 8),
        ("udp", false, Traffic::UdpSaturate, 4),
    ]
    .map(|(label, fastack, traffic, secs)| Arm {
        label,
        cfg: TestbedConfig {
            clients_per_ap: 30,
            fastack: vec![fastack],
            seed: 1515,
            traffic,
            ..TestbedConfig::default()
        },
        duration: SimDuration::from_secs(secs),
    })
}

/// Fig. 18 — two co-channel APs, 10 clients each: base/base, mixed,
/// fast/fast.
pub fn fig18() -> [Arm; 3] {
    [
        ("bb", [false, false]),
        ("bf", [false, true]),
        ("ff", [true, true]),
    ]
    .map(|(label, fastack)| Arm {
        label,
        cfg: TestbedConfig {
            n_aps: 2,
            clients_per_ap: 10,
            fastack: fastack.to_vec(),
            seed: 1818,
            // Two APs in one collision domain each get roughly half the
            // airtime, so per-flow queue residency doubles and the era's
            // ~512-frame firmware buffer pools bind the baseline arm (the
            // single-AP experiments use a roomier host-side default).
            ap_buffer_pool_frames: 512,
            ..TestbedConfig::default()
        },
        duration: SimDuration::from_secs(6),
    })
}

/// Fig. 19 — 6 clients with probe flows under a mid-run interferer,
/// baseline vs FastACK.
pub fn fig19() -> [Arm; 2] {
    [("base", false), ("fast", true)].map(|(label, fastack)| Arm {
        label,
        cfg: TestbedConfig {
            clients_per_ap: 6,
            fastack: vec![fastack],
            seed: 1919,
            interferer: Some(InterfererFault::default()),
            qoe: Some(ProbeConfig::default()),
            ..TestbedConfig::default()
        },
        duration: SimDuration::from_secs(5),
    })
}
