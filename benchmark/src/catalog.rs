//! The benchmark's names: workloads, end-to-end metrics with their
//! bounds, per-layer metrics. `BENCHMARK.json` is rendered from this
//! table (`--manifest`), and a unit test keeps the committed file equal
//! to the rendering, so the names the program prints and the names the
//! manifest promises cannot drift apart.

/// How long one run measures, seconds (`BENCHMARK.json: run_seconds`).
pub const RUN_SECONDS: u64 = 15;

/// Seed used when `--seed` is absent; the pinned digests belong to it.
pub const DEFAULT_SEED: u64 = 20_171_101;

/// Added to the measured set-up time to give `setup_s`. ISSUE 11 bounds
/// set-up absolutely (+0.05 s): it is tens of microseconds to a few
/// milliseconds today, and a move of a few microseconds is no
/// regression. The manifest can only express a bound as a share of the
/// parent's median, so the reported value carries this floor, and the
/// 0.25 share of it is that +0.05 s.
pub const SETUP_FLOOR_S: f64 = 0.2;

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
    /// FNV-1a digest of one rep's deterministic outputs at
    /// [`DEFAULT_SEED`].
    pub pinned_digest: u64,
}

pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "dense_fastack",
        why: "2 APs x 20 clients, baseline arm + FastACK arm: DCF contention, A-MPDU build and the TCP/FastACK fast paths do nearly all the work; loss recovery and telemetry do little",
        pinned_digest: 0xe59a_0144_b862_72dd,
    },
    WorkloadDef {
        name: "lossy_recovery",
        why: "1 AP x 3 clients at low SNR with 1% upstream loss and 5% bad hints: SACK/RTO recovery, FastACK holes and MAC retries carry the run while contention is almost idle",
        pinned_digest: 0x11c6_fd04_5a61_2dd8,
    },
    WorkloadDef {
        name: "obs_full",
        why: "the dense FastACK arm with every sink on (64k flight rings, health, 10 ms timeline, QoE probes, interferer) plus dump and strict re-parse of each artifact: the observability tax",
        pinned_digest: 0x13ea_147e_439d_240c,
    },
    WorkloadDef {
        name: "planner_campus",
        why: "TurboCA alone on three 100-AP views (two Fast plans, one Slow): acc, node_p_ln, candidate scans and hop search are the whole cost, with no fleet, threads or evaluation",
        pinned_digest: 0xd364_cc7c_9714_bbdc,
    },
    WorkloadDef {
        name: "fleet_epoch",
        why: "run_fleet over 12 networks of 16 APs for 4 epochs: many small plans, shard executor, evaluation, ingest and rollups, and the thread-invariance contract",
        pinned_digest: 0xf41e_dffd_db53_60e1,
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// One bound for all three, the widest the manifest format allows. The
/// driver that accepts this benchmark runs every workload on ten
/// *different* seeds and refuses a metric whose interquartile spread
/// over those ten runs exceeds its bound, so a bound cannot sit below
/// the cross-seed spread, and the builder is told to keep that spread
/// under a third of the bound. It is input variation on top of noise.
/// `work_per_s` reads 3-9 % on the packet workloads and up to 9 % and
/// 14 % on `planner_campus` and `fleet_epoch`, even after their
/// median-load selection. `peak_rss_mb` repeats to 0.3 % on a seed but
/// reads 9-12 % across seeds on `lossy_recovery` (three clients' drawn
/// SNRs size its buffers: 21.7-30.6 MB over forty seeds), even with
/// the allocator's mmap threshold fixed (`fix_mmap_threshold` in
/// main.rs; 15-17 % without). `--aa` prints the same-seed run-to-run
/// noise (0.1-6 %) beside the spread as "pair noise".
const BOUND: f64 = 0.25;

/// Every end-to-end metric is reported on every workload. Seconds are
/// calibrated seconds (see calibrate.rs).
pub const END_TO_END: [EndToEnd; 3] = [
    // [`SETUP_FLOOR_S`] + the measured set-up; it exists to catch work
    // moved out of the timed region.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: BOUND,
    },
    // The workload's own unit of work per second: simulator events on
    // the packet workloads (ISSUE 11's `events_per_s`), plans on the
    // planner workloads (its `plans_per_s`). One name, because the
    // manifest wants every end-to-end metric on every workload.
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: "higher",
        bound: BOUND,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: BOUND,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn pl(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

const LO: &str = "lower";
const HI: &str = "higher";

/// Per-layer metrics, grouped by crate. A metric whose layer does no
/// work on a workload reads 0 there (and `n/a` in the printed table).
pub const PER_LAYER: [PerLayer; 99] = [
    pl("sim.events", "count", LO),
    pl("sim.events_scheduled", "count", LO),
    pl("sim.events_cancelled", "count", LO),
    pl("sim.queue_depth_peak", "count", LO),
    pl("sim.queue_ns_per_event", "ns", LO),
    pl("sim.est_share", "share", LO),
    pl("phy80211.airtime_ns_per_lookup", "ns", LO),
    pl("phy80211.per_ns_per_lookup", "ns", LO),
    pl("phy80211.est_share", "share", LO),
    pl("mac80211.ampdu_aggregates", "count", LO),
    pl("mac80211.ampdu_frames", "count", HI),
    pl("mac80211.ampdu_mean_size", "frames", HI),
    pl("mac80211.collisions", "count", LO),
    pl("mac80211.backoff_draws", "count", LO),
    pl("mac80211.collision_ratio", "share", LO),
    pl("mac80211.retry_drops", "count", LO),
    pl("mac80211.build_ampdu_ns_per_aggregate", "ns", LO),
    pl("mac80211.contention_ns_per_round", "ns", LO),
    pl("mac80211.est_share", "share", LO),
    pl("tcp.segments_acked", "count", HI),
    pl("tcp.retransmits", "count", LO),
    pl("tcp.fast_retransmits", "count", LO),
    pl("tcp.timeouts", "count", LO),
    pl("tcp.retransmit_ratio", "share", LO),
    pl("tcp.sender_ns_per_segment_clean", "ns", LO),
    pl("tcp.sender_ns_per_segment_lossy", "ns", LO),
    pl("tcp.est_share", "share", LO),
    pl("fastack.fast_acks_sent", "count", HI),
    pl("fastack.client_acks_suppressed", "count", HI),
    pl("fastack.local_retransmits", "count", LO),
    pl("fastack.holes_detected", "count", LO),
    pl("fastack.cache_bypasses", "count", LO),
    pl("fastack.slow_path_ratio", "share", LO),
    pl("fastack.agent_ns_per_segment_clean", "ns", LO),
    pl("fastack.agent_ns_per_segment_holes", "ns", LO),
    pl("fastack.est_share", "share", LO),
    pl("netsim.testbed_new_s", "s", LO),
    pl("netsim.testbed_run_s", "s", LO),
    pl("netsim.ns_per_event", "ns", LO),
    pl("netsim.unattributed_share", "share", LO),
    pl("netsim.sim_s_per_wall_s", "s/s", HI),
    pl("netsim.goodput_gain_pct", "%", HI),
    pl("netsim.to_view_ms", "ms", LO),
    pl("netsim.evaluate_ms_per_network", "ms", LO),
    pl("telemetry.flight_records", "count", HI),
    pl("telemetry.flight_dropped", "count", LO),
    pl("telemetry.flight_emit_ns_per_record", "ns", LO),
    pl("telemetry.health_step_ns", "ns", LO),
    pl("telemetry.timeline_sample_ns_per_tick", "ns", LO),
    pl("telemetry.metrics_to_json_ms", "ms", LO),
    pl("telemetry.flight_to_bytes_ms", "ms", LO),
    pl("telemetry.flight_parse_ms", "ms", LO),
    pl("telemetry.timeline_to_bytes_ms", "ms", LO),
    pl("telemetry.timeline_parse_ms", "ms", LO),
    pl("telemetry.health_to_json_ms", "ms", LO),
    pl("telemetry.artifact_bytes", "B", LO),
    pl("telemetry.est_share", "share", LO),
    pl("telemetry.tax_ratio", "x", LO),
    pl("qoe.probes_sent", "count", HI),
    pl("qoe.probes_delivered", "count", HI),
    pl("qoe.probe_ns_per_sample", "ns", LO),
    pl("chanassign.plans", "count", HI),
    pl("chanassign.nbo_runs", "count", LO),
    pl("chanassign.plans_improved", "count", HI),
    pl("chanassign.switches", "count", LO),
    pl("chanassign.netp_ln", "ln", HI),
    pl("chanassign.candidates_per_ap_mean", "count", LO),
    pl("chanassign.neighbors_per_ap_mean", "count", LO),
    pl("chanassign.run_fast_ms_p50", "ms", LO),
    pl("chanassign.run_slow_ms_p50", "ms", LO),
    pl("chanassign.nbo_hop0_ms", "ms", LO),
    pl("chanassign.nbo_hop1_ms", "ms", LO),
    pl("chanassign.nbo_hop2_ms", "ms", LO),
    pl("chanassign.acc_us_per_call", "us", LO),
    pl("chanassign.node_p_ln_us_per_call", "us", LO),
    pl("chanassign.net_p_ln_us_per_call", "us", LO),
    pl("chanassign.candidates_us_per_call", "us", LO),
    pl("chanassign.hop_distances_us_per_call", "us", LO),
    pl("chanassign.fallback_channels_us_per_call", "us", LO),
    pl("fleet.networks", "count", HI),
    pl("fleet.epochs", "count", HI),
    pl("fleet.plans", "count", HI),
    pl("fleet.aps_total", "count", HI),
    pl("fleet.generate_ms_per_network", "ms", LO),
    pl("fleet.tick_ms_per_network", "ms", LO),
    pl("fleet.registry_merge_us_per_network", "us", LO),
    pl("fleet.finalize_ms_per_network", "ms", LO),
    pl("fleet.ingest_us_per_report", "us", LO),
    pl("fleet.aggregate_ms", "ms", LO),
    pl("fleet.rollup_ms", "ms", LO),
    pl("fleet.planner_share", "share", LO),
    pl("fleet.run_1t_s", "s", LO),
    pl("fleet.run_2t_s", "s", LO),
    pl("fleet.thread_scaling_x", "x", HI),
    pl("fleet.replay_checksum_match", "count", HI),
    pl("bench.trace_overhead_pct", "%", LO),
    pl("bench.reps", "count", HI),
    pl("bench.rep_wall_iqr_pct", "%", LO),
    pl("bench.cores", "count", HI),
];

/// Render `BENCHMARK.json` (the builder-contract manifest).
pub fn manifest() -> String {
    let rows = |rows: Vec<String>| rows.join(",\n");
    let workloads = rows(
        WORKLOADS
            .iter()
            .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect(),
    );
    let end_to_end = rows(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name, m.unit, m.better, m.bound
                )
            })
            .collect(),
    );
    let per_layer = rows(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name, m.unit, m.better
                )
            })
            .collect(),
    );
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \
         \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{workloads}\n  ],\n  \
         \"end_to_end\": [\n{end_to_end}\n  ],\n  \
         \"per_layer\": [\n{per_layer}\n  ]\n}}\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(s: &str) -> bool {
        let body = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars().all(body)
    }

    #[test]
    fn committed_manifest_is_the_rendered_catalog() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            manifest(),
            "regenerate with: cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --manifest > BENCHMARK.json"
        );
    }

    #[test]
    fn names_units_and_bounds_fit_the_contract() {
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = BTreeSet::new();
        for m in &END_TO_END {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(manifest().len() <= 64 * 1024);
    }

    #[test]
    fn readme_names_every_workload_and_metric() {
        let readme = include_str!("../README.md");
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(
                readme.contains(&format!("`{name}`")),
                "README lacks `{name}`"
            );
        }
    }
}
