//! # fleet — the cloud-controller analog of Meraki's backend
//!
//! The paper's TurboCA is not a single-network program: it runs in the
//! cloud over millions of APs, collecting telemetry from every
//! deployment and pushing channel plans back on the tiered cadence of
//! §4.5 (15 min / 3 h / daily). This crate is that layer for the
//! reproduction:
//!
//! * [`shard`] — the shard executor: N independent networks spread over
//!   `std::thread::scope` workers, results bit-identical for any thread
//!   count because each network's RNG streams derive from
//!   `(master_seed, network_id)` alone ([`sim::derive_stream_seed`]);
//! * [`network`] — one managed network: planner view, tiered
//!   [`chanassign::Scheduler`], private RNG streams, telemetry buffers;
//! * [`ingest`] — per-metric pooling of the network reports plus
//!   fleet-wide CDFs / Jain aggregation (reproducing Fig. 2's synthetic
//!   fleet sweep as one fleet run);
//! * [`report`] — [`NetworkReport`] / [`FleetReport`] and the FNV-based
//!   determinism [`report::Checksum`].
//!
//! ## The collect→plan→push loop
//!
//! [`run_fleet`] advances a shared epoch clock in `collect_period`
//! steps. Each epoch, every network **collects** (utilization polls,
//! RF churn) and the networks whose schedulers are due **plan** and
//! **push** (accepted plans mutate the view, standing in for the
//! config push to the APs). Batching is per-epoch: the whole due set is
//! sharded across workers, ticked, and the clock only then advances —
//! so the simulated cadence is exact regardless of parallelism.
//!
//! ```
//! use fleet::{run_fleet, FleetConfig};
//! use sim::SimDuration;
//!
//! let cfg = FleetConfig {
//!     n_networks: 4,
//!     aps_min: 10,
//!     aps_max: 12,
//!     horizon: SimDuration::from_mins(30),
//!     ..FleetConfig::default()
//! };
//! let one = run_fleet(&cfg);
//! let four = run_fleet(&FleetConfig { threads: 4, ..cfg });
//! assert_eq!(one.report.checksum, four.report.checksum);
//! ```

pub mod ingest;
pub mod network;
pub mod report;
pub mod sanitize;
pub mod shard;

pub use ingest::{FleetAggregate, FleetIngest};
pub use network::ManagedNetwork;
pub use report::{Checksum, FleetReport, NetworkReport};

use netsim::deployment::UtilizationProfile;
pub use netsim::testbed::ConfigError;
use sim::{SimDuration, SimTime};
use telemetry::stats::median;

/// Configuration of one fleet run.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Networks under management.
    pub n_networks: usize,
    /// Worker threads for the shard executor (1 = sequential).
    pub threads: usize,
    /// Master seed; network `i` derives its stream from `(seed, i)`.
    pub master_seed: u64,
    /// Simulated span of the run.
    pub horizon: SimDuration,
    /// Epoch length: collection cadence and scheduler tick granularity.
    /// The paper's fast tier runs every 15 minutes, so that is the
    /// natural (and default) epoch.
    pub collect_period: SimDuration,
    /// AP-count range per network (paper's fleet filter: ≥ 10 APs).
    pub aps_min: u64,
    pub aps_max: u64,
    /// TurboCA NBO runs per hop value (planning effort knob).
    pub nbo_runs: usize,
    /// Per-AP, per-epoch probability that an external interferer level
    /// changes (keeps fast ticks honest after initial convergence).
    pub rf_churn: f64,
    /// Utilization regime polled from the 5 GHz radio, and the level an
    /// RF churn event sets (Fig. 2). The 2.4 GHz radio is polled from
    /// [`UtilizationProfile::FLEET_2_4`].
    pub profile_5: UtilizationProfile,
    /// Sample a controller-side timeline at every epoch barrier: the
    /// per-network registries folded in id order (plus the controller's
    /// own epoch counters) snapshotted into [`FleetRun::timeline`] at
    /// `collect_period` cadence. Observation only — the sampler reads
    /// the merged registry and never writes back, so enabling it cannot
    /// change any trajectory, and the dump is bit-identical for any
    /// thread count like every other controller artifact.
    pub timeline: bool,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            n_networks: 100,
            threads: 1,
            master_seed: 0x1_AC17_FEE7,
            horizon: SimDuration::from_hours(1),
            collect_period: SimDuration::from_mins(15),
            aps_min: 10,
            aps_max: 40,
            nbo_runs: 1,
            rf_churn: 0.05,
            profile_5: UtilizationProfile::FLEET_5,
            timeline: false,
        }
    }
}

/// The widest log-space spread `FleetConfig::validate` lets a
/// utilization profile have: `standard_normal` draws |z| < 8.6, so
/// `exp(sigma * z)` stays finite, and a zero median never meets
/// 0 × ∞ = NaN.
const MAX_SIGMA: f64 = 80.0;

impl FleetConfig {
    /// Check what a run would otherwise trip over: a fleet or a network
    /// with nothing in it, an AP-count range with no member, an epoch
    /// the clock never gets past, a churn probability that is not one,
    /// a `profile_5` whose draws could be NaN (`sample` clamps to
    /// [0, 1] but passes NaN through).
    /// (`nbo_runs: 0` is a plan of fewer passes, not an error: the
    /// size-scaled runs still happen.) [`run_fleet`] panics with the
    /// error's `Display`.
    pub fn validate(&self) -> Result<(), ConfigError> {
        ConfigError::not_positive(&[
            ("n_networks", self.n_networks == 0),
            ("aps_min", self.aps_min == 0),
            ("collect_period", self.collect_period == SimDuration::ZERO),
        ])?;
        ConfigError::in_ranges(&[
            ("aps_min", self.aps_min as f64, 1.0, self.aps_max as f64),
            ("rf_churn", self.rf_churn, 0.0, 1.0),
            ("profile_5.median", self.profile_5.median, 0.0, 1.0),
            ("profile_5.sigma", self.profile_5.sigma, 0.0, MAX_SIGMA),
        ])
    }
}

/// Everything a fleet run produces: the summary report, the telemetry
/// store + aggregates, and the raw per-network reports (id order).
pub struct FleetRun {
    pub report: FleetReport,
    pub ingest: FleetIngest,
    pub aggregate: FleetAggregate,
    pub per_network: Vec<NetworkReport>,
    /// Controller-side metrics snapshot: every network's registry
    /// merged in id order plus the controller's own epoch counters.
    /// `metrics.to_json()` is byte-identical for any thread count —
    /// the shard-executor determinism contract extends to telemetry.
    pub metrics: telemetry::Registry,
    /// Controller-side flight trace: one `FleetEpoch` record per epoch
    /// barrier under the `fleet.epoch` component. Byte-identical dump
    /// for any thread count, like [`FleetRun::metrics`].
    pub flight: telemetry::FlightDump,
    /// Fleet-wide health rollup: every network's alert stream merged
    /// in id order (components prefixed `net<id>.`) with counts by
    /// rule/severity and the worst-N networks. `health.to_json()` is
    /// byte-identical for any thread count.
    pub health: telemetry::HealthRollup,
    /// Fleet-wide QoE rollup: per-network scores folded in id order —
    /// mean, degraded/critical band counts, worst-N networks by score,
    /// and alert counts by rule. `qoe.to_json()` is byte-identical for
    /// any thread count.
    pub qoe: qoe::QoeRollup,
    /// Sealed per-epoch fleet timeline (`Some` iff
    /// [`FleetConfig::timeline`]): one tick per epoch barrier at
    /// `collect_period` cadence, series delta-encoded between epochs.
    /// `timeline.to_bytes()` is bit-identical for any thread count.
    pub timeline: Option<telemetry::Timeline>,
}

/// Run the collect→plan→push loop over a synthesized fleet. Panics
/// with the [`ConfigError`] if `cfg` does not
/// [`validate`](FleetConfig::validate).
pub fn run_fleet(cfg: &FleetConfig) -> FleetRun {
    if let Err(e) = cfg.validate() {
        panic!("invalid FleetConfig: {e}");
    }

    // Host-side wall-clock profile of the whole collect→plan→push run;
    // every probe below is a disabled no-op unless --runprof is live.
    let _prof = telemetry::runprof::span("fleet.run");
    telemetry::runprof::watermark("fleet.networks", cfg.n_networks as u64);

    // Synthesize the fleet (sharded; generation dominates small runs).
    let workers = shard::workers(cfg.threads);
    let mut nets = shard::map_sharded(cfg.n_networks, workers, "fleet.shard.generate", &|i| {
        network::ManagedNetwork::generate(cfg, i as u64)
    });

    // The epoch loop: one barrier per collect period. The controller's
    // flight recorder keeps one typed record per barrier — enough to
    // correlate a misbehaving network trace with the epoch that pushed
    // its config.
    let flight = telemetry::FlightRecorder::new(4096);
    let epoch_ring = flight.ring("fleet.epoch");
    let mut timeline = cfg.timeline.then(|| {
        telemetry::Timeline::new(&telemetry::TimelineConfig::sampling(cfg.collect_period))
    });
    let end = SimTime::ZERO + cfg.horizon;
    let mut now = SimTime::ZERO;
    let mut epochs = 0u64;
    while now < end {
        let epoch_prof = telemetry::runprof::span("fleet.epoch");
        shard::for_each_mut_sharded(&mut nets, workers, "fleet.shard.tick", &|net| {
            net.on_tick(now, cfg)
        });
        drop(epoch_prof);
        sanitize::check_epoch(&nets, now);
        flight.emit(
            epoch_ring,
            now,
            telemetry::CauseId::NONE,
            telemetry::TraceRecord::FleetEpoch {
                epoch: epochs,
                networks: cfg.n_networks as u64,
            },
        );
        // Per-epoch timeline tick on the controller thread: fold the
        // network registries in id order (shard-invariant, like the
        // final snapshot below) and sample the merged view. The fold is
        // rebuilt each epoch so series stay cumulative counters the
        // delta codec collapses; the whole block is skipped unless
        // `cfg.timeline` asked for it.
        if let Some(tl) = timeline.as_mut() {
            let mut snap = telemetry::Registry::new();
            snap.count("fleet.epochs", epochs + 1);
            snap.count("fleet.networks", cfg.n_networks as u64);
            for net in &nets {
                snap.merge_from(&net.metrics);
            }
            tl.sample(now, &snap);
        }
        now += cfg.collect_period;
        epochs += 1;
    }

    // Final plan evaluation, sharded as well.
    shard::for_each_mut_sharded(&mut nets, workers, "fleet.shard.finalize", &|net| {
        net.finalize()
    });
    // Reports pending ingest on the controller thread — the structure
    // ROADMAP-1 must keep bounded as fleets grow toward 1M networks.
    telemetry::runprof::watermark("fleet.reports.pending", nets.len() as u64);

    // Controller-side registry: own counters, then every network's
    // registry merged in id order. Thread count is deliberately NOT
    // recorded — the snapshot must be shard-invariant.
    let mut metrics = telemetry::Registry::new();
    metrics.count("fleet.epochs", epochs);
    metrics.count("fleet.networks", cfg.n_networks as u64);
    for net in &nets {
        metrics.merge_from(&net.metrics);
    }

    let per_network: Vec<NetworkReport> = nets
        .into_iter()
        .map(|n| n.report.expect("finalize filled the report"))
        .collect();

    // Ingest + aggregate on the controller thread, in id order.
    let mut ingest = FleetIngest::new();
    let mut checksum = Checksum::new();
    for r in &per_network {
        ingest.ingest(r);
        report::mix_network_report(&mut checksum, r);
    }
    let aggregate = ingest.aggregate();

    // Fleet health rollup, folded in id order like everything else.
    let health = telemetry::HealthRollup::rollup(
        per_network
            .iter()
            .map(|r| (format!("net{}", r.id), &r.health)),
        10,
    );

    // Fleet QoE rollup, same fold order and worst-N depth.
    let qoe_rollup = qoe::QoeRollup::rollup(
        per_network
            .iter()
            .map(|r| (format!("net{}", r.id), r.qoe_score, &r.health)),
        10,
    );

    let (util_2_4_median, util_5_median) = aggregate.util_medians();
    let netp: Vec<f64> = per_network.iter().map(|r| r.final_net_p_ln).collect();
    let p50s: Vec<f64> = per_network.iter().map(|r| r.tcp_p50_ms).collect();
    let p90s: Vec<f64> = per_network.iter().map(|r| r.tcp_p90_ms).collect();
    let p99s: Vec<f64> = per_network.iter().map(|r| r.tcp_p99_ms).collect();
    let report = FleetReport {
        n_networks: cfg.n_networks,
        threads: cfg.threads,
        horizon: cfg.horizon,
        total_aps: per_network.iter().map(|r| r.n_aps).sum(),
        plans_run: per_network.iter().map(|r| r.plans_run).sum(),
        accepted: per_network.iter().map(|r| r.accepted).sum(),
        switches: per_network.iter().map(|r| r.switches).sum(),
        mean_net_p_ln: netp.iter().sum::<f64>() / netp.len() as f64,
        util_2_4_median,
        util_5_median,
        tcp_p50_ms: median(&p50s).unwrap_or(0.0),
        tcp_p90_ms: median(&p90s).unwrap_or(0.0),
        tcp_p99_ms: median(&p99s).unwrap_or(0.0),
        jain_goodput: aggregate.jain_goodput.unwrap_or(0.0),
        checksum: checksum.finish(),
    };

    if let Some(tl) = timeline.as_mut() {
        tl.seal();
    }

    FleetRun {
        report,
        ingest,
        aggregate,
        per_network,
        metrics,
        flight: flight.snapshot(),
        health,
        qoe: qoe_rollup,
        timeline,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(threads: usize) -> FleetConfig {
        FleetConfig {
            n_networks: 6,
            threads,
            aps_min: 10,
            aps_max: 12,
            horizon: SimDuration::from_mins(45),
            master_seed: 0xF1EE7,
            ..FleetConfig::default()
        }
    }

    #[test]
    fn validate_names_every_config_a_run_cannot_survive() {
        use ConfigError::*;
        let range = |field, value, min, max| OutOfRange {
            field,
            value,
            min,
            max,
        };
        type Edit = fn(&mut FleetConfig);
        let cases: Vec<(Edit, ConfigError)> = vec![
            (|c| c.n_networks = 0, NotPositive("n_networks")),
            (|c| c.aps_min = 0, NotPositive("aps_min")),
            (
                |c| c.collect_period = SimDuration::ZERO,
                NotPositive("collect_period"),
            ),
            (|c| c.aps_min = 13, range("aps_min", 13.0, 1.0, 12.0)),
            (|c| c.rf_churn = 1.5, range("rf_churn", 1.5, 0.0, 1.0)),
            (|c| c.rf_churn = -0.1, range("rf_churn", -0.1, 0.0, 1.0)),
            (
                |c| c.profile_5.median = f64::INFINITY,
                range("profile_5.median", f64::INFINITY, 0.0, 1.0),
            ),
            (
                |c| c.profile_5.median = 1.5,
                range("profile_5.median", 1.5, 0.0, 1.0),
            ),
            (
                |c| c.profile_5.median = -0.1,
                range("profile_5.median", -0.1, 0.0, 1.0),
            ),
            (
                |c| c.profile_5.sigma = f64::INFINITY,
                range("profile_5.sigma", f64::INFINITY, 0.0, 80.0),
            ),
            (
                |c| c.profile_5.sigma = -1.0,
                range("profile_5.sigma", -1.0, 0.0, 80.0),
            ),
            // exp(1e300 * z) is ∞, and at a zero median 0 × ∞ is NaN.
            (
                |c| c.profile_5.sigma = 1e300,
                range("profile_5.sigma", 1e300, 0.0, 80.0),
            ),
        ];
        assert_eq!(small(1).validate(), Ok(()));
        for (edit, want) in cases {
            let mut cfg = small(1);
            edit(&mut cfg);
            assert_eq!(cfg.validate(), Err(want.clone()), "{want}");
            assert!(!want.to_string().contains('\n'), "one line: {want}");
        }
        // NaN is outside every range.
        type NanEdit = fn(&mut FleetConfig);
        let nans: [(NanEdit, &str); 3] = [
            (
                |c| c.rf_churn = f64::NAN,
                "rf_churn = NaN must be in [0, 1]",
            ),
            (
                |c| c.profile_5.median = f64::NAN,
                "profile_5.median = NaN must be in [0, 1]",
            ),
            (
                |c| c.profile_5.sigma = f64::NAN,
                "profile_5.sigma = NaN must be in [0, 80]",
            ),
        ];
        for (edit, want) in nans {
            let mut cfg = small(1);
            edit(&mut cfg);
            assert_eq!(cfg.validate().unwrap_err().to_string(), want);
        }
        // Inclusive where a run is fine at the bound; no threads, no
        // horizon and no extra NBO runs are all runs, if short ones.
        let edge = FleetConfig {
            aps_min: 12,
            rf_churn: 1.0,
            threads: 0,
            nbo_runs: 0,
            horizon: SimDuration::ZERO,
            ..small(1)
        };
        assert_eq!(edge.validate(), Ok(()));
        assert_eq!(run_fleet(&edge).report.plans_run, 0);
    }

    #[test]
    #[should_panic(expected = "invalid FleetConfig: aps_min = 13 must be in [1, 12]")]
    fn run_fleet_refuses_an_invalid_config() {
        run_fleet(&FleetConfig {
            aps_min: 13,
            ..small(1)
        });
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let base = run_fleet(&small(1));
        for threads in [3, 8] {
            let run = run_fleet(&small(threads));
            assert_eq!(
                base.report.checksum, run.report.checksum,
                "threads={threads}"
            );
            assert_eq!(base.per_network, run.per_network, "threads={threads}");
        }
    }

    #[test]
    fn metrics_json_is_byte_identical_across_1_2_8_threads() {
        let base = run_fleet(&small(1)).metrics.to_json();
        assert!(!base.is_empty());
        for threads in [2, 8] {
            let json = run_fleet(&small(threads)).metrics.to_json();
            assert_eq!(base, json, "metrics snapshot diverged at {threads} threads");
        }
    }

    #[test]
    fn timeline_dump_is_byte_identical_across_1_2_8_threads() {
        let with_tl = |threads| FleetConfig {
            timeline: true,
            ..small(threads)
        };
        let one = run_fleet(&with_tl(1));
        let tl = one.timeline.as_ref().expect("timeline enabled");
        // 45-min horizon / 15-min epochs = 3 epoch barriers = 3 ticks.
        assert_eq!(tl.ticks(), 3);
        assert_eq!(tl.every(), SimDuration::from_mins(15));
        // The controller's own epoch counter rides along and counts up.
        assert_eq!(
            tl.range("fleet.epochs", SimTime::ZERO, SimTime::MAX)
                .into_iter()
                .map(|(_, v)| v)
                .collect::<Vec<_>>(),
            [1.0, 2.0, 3.0]
        );
        let bytes = tl.to_bytes();
        assert_eq!(
            telemetry::Timeline::parse(&bytes)
                .expect("parses")
                .to_bytes(),
            bytes
        );
        for threads in [2, 8] {
            let run = run_fleet(&with_tl(threads));
            assert_eq!(
                run.timeline.expect("timeline enabled").to_bytes(),
                bytes,
                "fleet timeline diverged at {threads} threads"
            );
        }
        // And the sampler is observation-only: the run's other
        // artifacts are byte-identical to a run without it.
        let plain = run_fleet(&small(1));
        assert_eq!(plain.metrics.to_json(), one.metrics.to_json());
        assert_eq!(plain.flight.to_bytes(), one.flight.to_bytes());
        assert_eq!(plain.health.to_json(), one.health.to_json());
        assert_eq!(plain.report.checksum, one.report.checksum);
    }

    #[test]
    fn flight_dump_records_every_epoch_and_is_thread_invariant() {
        let base = run_fleet(&small(1));
        // 45-min horizon / 15-min epochs = 3 epoch barriers.
        let comp = base
            .flight
            .components
            .iter()
            .find(|c| c.name == "fleet.epoch")
            .expect("fleet.epoch component");
        assert_eq!(comp.records.len(), 3);
        assert_eq!(
            comp.records[0].record(),
            telemetry::TraceRecord::FleetEpoch {
                epoch: 0,
                networks: 6,
            }
        );
        let bytes = base.flight.to_bytes();
        for threads in [2, 8] {
            assert_eq!(
                run_fleet(&small(threads)).flight.to_bytes(),
                bytes,
                "flight dump diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn metrics_sum_network_registries_into_fleet_totals() {
        let run = run_fleet(&small(2));
        let m = &run.metrics;
        // 45-min horizon / 15-min epochs = 3 epochs; 6 networks.
        assert_eq!(m.counter_value("fleet.epochs"), Some(3));
        assert_eq!(m.counter_value("fleet.networks"), Some(6));
        assert_eq!(m.counter_value("fleet.net.epochs"), Some(3 * 6));
        assert_eq!(
            m.counter_value("fleet.net.plans_run"),
            Some(run.report.plans_run as u64)
        );
        assert_eq!(
            m.counter_value("fleet.net.channel_switches"),
            Some(run.report.switches as u64)
        );
        assert_eq!(
            m.counter_value("fleet.net.aps"),
            Some(run.report.total_aps as u64)
        );
        // Every utilization poll landed in the merged histograms.
        let polls = m.counter_value("fleet.net.polls").unwrap();
        let h24 = m.histogram_value("fleet.net.util_2_4").unwrap();
        let h5 = m.histogram_value("fleet.net.util_5").unwrap();
        assert_eq!(h24.total + h5.total, polls);
        assert_eq!(h24.nan_count, 0);
    }

    #[test]
    fn every_network_plans_and_reports() {
        let run = run_fleet(&small(2));
        assert_eq!(run.per_network.len(), 6);
        for (i, r) in run.per_network.iter().enumerate() {
            assert_eq!(r.id, i as u64);
            // 45 min horizon with 15-min epochs: ticks at 0/15/30 ->
            // slow tier at t=0 plus two fast ticks = 3 runs.
            assert_eq!(r.plans_run, 3);
            assert!(r.accepted >= 1, "initial untangling must be accepted");
            assert!((10..=14).contains(&r.n_aps));
            assert_eq!(r.util_2_4.len(), 3 * r.n_aps);
            assert!(r.tcp_p50_ms > 0.0);
            assert!(r.tcp_p99_ms >= r.tcp_p90_ms && r.tcp_p90_ms >= r.tcp_p50_ms);
        }
        assert_eq!(run.ingest.reports_ingested(), 6);
        assert_eq!(run.report.plans_run, 3 * 6);
    }

    #[test]
    fn health_rollup_is_byte_identical_across_1_2_8_threads() {
        let one = run_fleet(&small(1)).health;
        let base = one.to_json();
        assert!(!base.is_empty());
        for threads in [2, 8] {
            let json = run_fleet(&small(threads)).health.to_json();
            assert_eq!(base, json, "health rollup diverged at {threads} threads");
        }
        // The merged report is what `fleet_scale --health` writes, and
        // it round-trips through the on-disk format.
        let report = one.report.to_json();
        let parsed = telemetry::HealthReport::parse(&report).expect("parses");
        assert_eq!(parsed.to_json(), report);
    }

    #[test]
    fn qoe_rollup_is_byte_identical_across_1_2_8_threads() {
        let one = run_fleet(&small(1));
        let base = one.qoe.to_json();
        assert_eq!(one.qoe.n, 6);
        assert!(
            one.per_network.iter().all(|r| r.qoe_score > 0.0),
            "every network gets a score: {:?}",
            one.per_network
                .iter()
                .map(|r| r.qoe_score)
                .collect::<Vec<_>>()
        );
        // Worst-N is populated (ascending by score) even with no alerts.
        assert!(!one.qoe.worst.is_empty());
        for threads in [2, 8] {
            let json = run_fleet(&small(threads)).qoe.to_json();
            assert_eq!(base, json, "qoe rollup diverged at {threads} threads");
        }
    }

    #[test]
    fn calm_fleet_raises_no_alerts() {
        // Default churn: the scheduler converges and sits still, so
        // channel-flap must stay silent on every network.
        let run = run_fleet(&small(2));
        assert!(
            run.health.report.alerts.is_empty(),
            "{:#?}",
            run.health.report.alerts
        );
        assert!(run.health.worst.is_empty());
        assert!(run.per_network.iter().all(|r| r.health.steps > 0));
    }

    #[test]
    fn churning_fleet_raises_channel_flap() {
        // Crank RF churn AND its strength (churn values are drawn from
        // `profile_5`; the HQ 2.4 GHz regime's ~82 % busy makes every
        // appearance a strong interferer): the fast tier keeps escaping
        // dirty channels and the reassignment rate crosses the flap
        // threshold.
        let cfg = FleetConfig {
            n_networks: 3,
            rf_churn: 0.95,
            profile_5: UtilizationProfile::HQ_2_4,
            horizon: SimDuration::from_hours(3),
            ..small(1)
        };
        let run = run_fleet(&cfg);
        assert!(
            run.health.by_rule.contains_key("channel-flap"),
            "by_rule: {:?} switches: {}",
            run.health.by_rule,
            run.report.switches
        );
        // The worst ranking names flapping networks.
        assert!(!run.health.worst.is_empty());
        assert!(run.health.worst[0].0.starts_with("net"));
        // Merged alert components carry the network prefix.
        assert!(run
            .health
            .report
            .alerts
            .iter()
            .all(|a| a.component.starts_with("net") && a.component.ends_with(".sched")));
    }

    #[test]
    fn master_seed_changes_everything() {
        let a = run_fleet(&small(1));
        let b = run_fleet(&FleetConfig {
            master_seed: 0xBEEF,
            ..small(1)
        });
        assert_ne!(a.report.checksum, b.report.checksum);
    }

    #[test]
    fn utilization_medians_track_profiles() {
        // Small fleet, one epoch: enough samples for stable medians
        // (the full Fig. 2 sweep lives in the fleet_scale bench).
        let cfg = FleetConfig {
            n_networks: 12,
            aps_min: 10,
            aps_max: 20,
            horizon: SimDuration::from_mins(15),
            ..small(2)
        };
        let run = run_fleet(&cfg);
        let (m24, m5) = run.aggregate.util_medians();
        assert!((m24 - 0.20).abs() < 0.05, "2.4 GHz median {m24}");
        assert!((m5 - 0.03).abs() < 0.02, "5 GHz median {m5}");
        assert!(run.report.util_2_4_median == m24 && run.report.util_5_median == m5);
    }

    #[test]
    fn planning_improves_mean_netp() {
        // Same fleet with and without planning effort: running the
        // scheduler must not make the fleet metric worse, and the run
        // with planning should land strictly higher than the seeded
        // random assignment's incumbent score on average.
        let cfg = small(1);
        let run = run_fleet(&cfg);
        assert!(run.report.accepted > 0);
        let incumbent_mean: f64 = {
            let nets: Vec<f64> = (0..cfg.n_networks as u64)
                .map(|i| {
                    let net = network::ManagedNetwork::generate(&cfg, i);
                    let planner = chanassign::TurboCa::new(0);
                    chanassign::net_p_ln(
                        &planner.params,
                        &net.view,
                        &chanassign::Plan::current(&net.view),
                    )
                })
                .collect();
            nets.iter().sum::<f64>() / nets.len() as f64
        };
        assert!(
            run.report.mean_net_p_ln > incumbent_mean,
            "planned {} !> incumbent {}",
            run.report.mean_net_p_ln,
            incumbent_mean
        );
    }
}
