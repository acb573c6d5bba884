//! The three packet workloads: `dense_fastack`, `lossy_recovery` and
//! `obs_full`, all on `netsim::testbed::Testbed`.

use super::{LayerValues, RepSummary, Workload};
use crate::digest::Digest;
use crate::kernels;
use crate::trace::Tracer;
use wifi_core::netsim::testbed::{InterfererFault, Testbed, TestbedConfig, TestbedReport};
use wifi_core::qoe::ProbeConfig;
use wifi_core::sim::{derive_stream_seed, SimDuration, SimTime};
use wifi_core::telemetry::health::RULE_AMPDU_COLLAPSE;
use wifi_core::telemetry::{FlightDump, HealthReport, Timeline, TimelineConfig};

const MSS: u64 = kernels::MSS as u64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    DenseFastack,
    LossyRecovery,
    ObsFull,
}

pub struct Packet {
    kind: Kind,
    /// Seed of every testbed this workload builds.
    testbed_seed: u64,
}

/// When `obs_full`'s interferer switches on.
const INTERFERER_AT: SimTime = SimTime::from_millis(10_000);

impl Packet {
    pub fn new(kind: Kind, seed: u64) -> Packet {
        Packet {
            kind,
            testbed_seed: derive_stream_seed(seed, kind as u64),
        }
    }

    fn sim_duration(&self) -> SimDuration {
        match self.kind {
            Kind::DenseFastack | Kind::ObsFull => SimDuration::from_secs(30),
            Kind::LossyRecovery => SimDuration::from_secs(120),
        }
    }

    /// FastACK setting of each arm of a rep.
    fn arms(&self) -> &'static [bool] {
        match self.kind {
            Kind::DenseFastack | Kind::LossyRecovery => &[false, true],
            Kind::ObsFull => &[true],
        }
    }

    fn config(&self, fastack: bool) -> TestbedConfig {
        let dense = TestbedConfig {
            n_aps: 2,
            clients_per_ap: 20,
            fastack: vec![fastack; 2],
            seed: self.testbed_seed,
            ..TestbedConfig::default()
        };
        match self.kind {
            Kind::DenseFastack => dense,
            Kind::LossyRecovery => TestbedConfig {
                n_aps: 1,
                clients_per_ap: 3,
                fastack: vec![fastack],
                upstream_loss: 0.01,
                bad_hint_rate: 0.05,
                base_snr_db: 24.0,
                snr_spread_db: 10.0,
                seed: self.testbed_seed,
                ..TestbedConfig::default()
            },
            Kind::ObsFull => TestbedConfig {
                flight_capacity: 65_536,
                timeline: Some(Self::timeline_config()),
                qoe: Some(ProbeConfig::default()),
                interferer: Some(InterfererFault {
                    at: INTERFERER_AT,
                    ..InterfererFault::default()
                }),
                ..dense
            },
        }
    }

    fn timeline_config() -> TimelineConfig {
        TimelineConfig::sampling(SimDuration::from_millis(10))
    }

    /// `obs_full`'s scenario with the sinks back at their defaults: the
    /// denominator of `telemetry.tax_ratio`.
    fn default_sinks_config(&self) -> TestbedConfig {
        let d = TestbedConfig::default();
        TestbedConfig {
            flight_capacity: d.flight_capacity,
            timeline: None,
            qoe: None,
            ..self.config(true)
        }
    }
}

/// `obs_full` only: every artifact serialised, and parsed back.
pub struct Artifacts {
    metrics_json: String,
    flight: Vec<u8>,
    timeline: Vec<u8>,
    health_json: String,
    parsed_flight: Result<FlightDump, String>,
    parsed_timeline: Result<Timeline, String>,
    parsed_health: Result<HealthReport, String>,
}

impl Artifacts {
    fn dump(report: &TestbedReport, t: &mut Tracer) -> Artifacts {
        let metrics_json = t.span("telemetry.metrics_to_json", |_| report.metrics.to_json());
        let flight = t.span("telemetry.flight_to_bytes", |_| report.flight.to_bytes());
        let parsed_flight = t.span("telemetry.flight_parse", |_| FlightDump::parse(&flight));
        let timeline = t.span("telemetry.timeline_to_bytes", |_| {
            report
                .timeline
                .as_ref()
                .expect("obs_full samples a timeline")
                .to_bytes()
        });
        let parsed_timeline = t.span("telemetry.timeline_parse", |_| Timeline::parse(&timeline));
        let health_json = t.span("telemetry.health_to_json", |_| report.health.to_json());
        let parsed_health = t.span("telemetry.health_parse", |_| {
            HealthReport::parse(&health_json)
        });
        Artifacts {
            metrics_json,
            flight,
            timeline,
            health_json,
            parsed_flight,
            parsed_timeline,
            parsed_health,
        }
    }

    fn total_bytes(&self) -> usize {
        self.metrics_json.len() + self.flight.len() + self.timeline.len() + self.health_json.len()
    }

    /// Every artifact must re-serialise byte-identically after parse.
    fn check_round_trips(&self, failures: &mut Vec<String>) {
        let mut check = |what: &str, again: Result<bool, &String>| match again {
            Ok(true) => {}
            Ok(false) => failures.push(format!("{what} changed across parse + re-serialise")),
            Err(e) => failures.push(format!("{what} did not parse back: {e}")),
        };
        check(
            "flight dump",
            self.parsed_flight
                .as_ref()
                .map(|p| p.to_bytes() == self.flight),
        );
        check(
            "timeline dump",
            self.parsed_timeline
                .as_ref()
                .map(|p| p.to_bytes() == self.timeline),
        );
        check(
            "health report",
            self.parsed_health
                .as_ref()
                .map(|p| p.to_json() == self.health_json),
        );
    }
}

pub struct PacketOut {
    /// One report per arm, in [`Packet::arms`] order.
    reports: Vec<TestbedReport>,
    artifacts: Option<Artifacts>,
}

fn counter(r: &TestbedReport, path: &str) -> u64 {
    r.metrics.counter_value(path).unwrap_or(0)
}

/// Sum of every counter whose path starts with `prefix` and ends with
/// `suffix` (per-AP and per-client counters share a shape).
fn counter_sum(r: &TestbedReport, prefix: &str, suffix: &str) -> u64 {
    r.metrics
        .counters()
        .filter(|(k, _)| k.starts_with(prefix) && k.ends_with(suffix))
        .map(|(_, v)| v)
        .sum()
}

impl Workload for Packet {
    type Input = Vec<Testbed>;
    type Output = PacketOut;

    fn setup(&self, t: &mut Tracer) -> Vec<Testbed> {
        self.arms()
            .iter()
            .map(|&fa| t.span("netsim.testbed_new", |_| Testbed::new(self.config(fa))))
            .collect()
    }

    fn run(&self, input: Vec<Testbed>, t: &mut Tracer) -> PacketOut {
        let mut reports: Vec<TestbedReport> = Vec::new();
        for tb in input {
            if !reports.is_empty() {
                t.lap();
            }
            reports.push(t.span("netsim.testbed_run", |_| tb.run(self.sim_duration())));
        }
        let artifacts = (self.kind == Kind::ObsFull).then(|| Artifacts::dump(&reports[0], t));
        PacketOut { reports, artifacts }
    }

    fn summarise(&self, out: &PacketOut) -> RepSummary {
        let mut failures = Vec::new();
        let mut d = Digest::new();
        for r in &out.reports {
            for &b in &r.client_bytes {
                d.u64(b);
            }
            for &a in &r.client_aggregation {
                d.f64(a);
            }
            for s in &r.sender_stats {
                d.u64(s.acked_bytes);
                d.u64(s.retransmits);
                d.u64(s.fast_retransmits);
                d.u64(s.timeouts);
                d.f64(s.cwnd_segments);
                d.f64(s.srtt_ms);
            }
        }
        match &out.artifacts {
            None => {
                for r in &out.reports {
                    d.bytes(r.metrics.to_json().as_bytes());
                }
            }
            Some(a) => {
                d.bytes(a.metrics_json.as_bytes());
                d.bytes(&a.flight);
                d.bytes(&a.timeline);
                d.bytes(a.health_json.as_bytes());
                a.check_round_trips(&mut failures);
                // The interferer's signature is collapsing aggregates:
                // that rule must stay quiet until it switches on and
                // fire afterwards. (Other rules may fire earlier: a
                // 40-client cell trips qoe-degraded from the start.)
                let collapse: Vec<_> = out.reports[0]
                    .health
                    .alerts
                    .iter()
                    .filter(|a| a.rule == RULE_AMPDU_COLLAPSE)
                    .collect();
                if collapse.iter().any(|a| a.raised_at < INTERFERER_AT) {
                    failures.push("ampdu-collapse alert before the interferer started".into());
                }
                if collapse.is_empty() {
                    failures.push("no ampdu-collapse alert after the interferer started".into());
                }
            }
        }
        if let [base, fast] = &out.reports[..] {
            if fast.total_mbps() < base.total_mbps() {
                failures.push(format!(
                    "FastACK arm {:.2} Mbps below baseline arm {:.2} Mbps",
                    fast.total_mbps(),
                    base.total_mbps()
                ));
            }
        }
        RepSummary {
            digest: d.finish(),
            work: out
                .reports
                .iter()
                .map(|r| counter(r, "sim.queue.popped"))
                .sum(),
            ops: out.reports.len() as u64,
            failures,
        }
    }

    fn layers(&self, out: &PacketOut, t: &mut Tracer, m: &mut LayerValues) -> Vec<String> {
        let sum = |path: &str| -> f64 {
            out.reports.iter().map(|r| counter(r, path)).sum::<u64>() as f64
        };
        let sum_like = |prefix: &str, suffix: &str| -> f64 {
            out.reports
                .iter()
                .map(|r| counter_sum(r, prefix, suffix))
                .sum::<u64>() as f64
        };
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let cfg = self.config(true);
        let stations = cfg.n_aps * (1 + cfg.clients_per_ap);

        // netsim: the traced rep's own spans.
        let run_s = t.total_s("netsim.testbed_run");
        let events = sum("sim.queue.popped");
        let sim_s = self.sim_duration().as_secs_f64() * out.reports.len() as f64;
        m.insert("netsim.testbed_new_s", t.total_s("netsim.testbed_new"));
        m.insert("netsim.testbed_run_s", run_s);
        m.insert("netsim.ns_per_event", run_s * 1e9 / events);
        m.insert("netsim.sim_s_per_wall_s", sim_s / run_s);
        if let [base, fast] = &out.reports[..] {
            m.insert(
                "netsim.goodput_gain_pct",
                (fast.total_mbps() / base.total_mbps() - 1.0) * 100.0,
            );
        }
        // Estimated share of the run a layer accounts for: units of its
        // work counted in the rep x the kernel's cost per unit.
        let share = |units: f64, ns_per_unit: f64| units * ns_per_unit / (run_s * 1e9);

        // sim
        let depth_peak = out
            .reports
            .iter()
            .filter_map(|r| r.metrics.gauge_value("sim.queue.depth_peak"))
            .max()
            .unwrap_or(0);
        let queue_ns = t.span("kernel.sim.queue", |_| {
            kernels::queue_ns_per_event(depth_peak as usize)
        });
        m.insert("sim.events", events);
        m.insert("sim.events_scheduled", sum("sim.queue.scheduled"));
        m.insert("sim.events_cancelled", sum("sim.queue.cancelled"));
        m.insert("sim.queue_depth_peak", depth_peak as f64);
        m.insert("sim.queue_ns_per_event", queue_ns);
        m.insert("sim.est_share", share(events, queue_ns));

        // mac80211
        let aggregates = sum("mac.ampdu.aggregates");
        let frames = sum("mac.ampdu.frames");
        let collisions = sum("mac.collisions");
        let wins = sum_like("mac.", ".backoff.successes");
        let rounds = wins + collisions;
        // Every contender of a round ends it as a winner (success or
        // collision failure) or frozen (a stall).
        let contenders =
            wins + sum_like("mac.", ".backoff.failures") + sum_like("mac.", ".backoff.stalls");
        let mean_size = ratio(frames, aggregates);
        let build_ns = t.span("kernel.mac80211.build_ampdu", |_| {
            kernels::build_ampdu_ns_per_aggregate(mean_size.round() as usize)
        });
        let contention_ns = t.span("kernel.mac80211.contention", |_| {
            kernels::contention_ns_per_round(
                (ratio(contenders, rounds).round() as usize).clamp(1, stations),
            )
        });
        m.insert("mac80211.ampdu_aggregates", aggregates);
        m.insert("mac80211.ampdu_frames", frames);
        m.insert("mac80211.ampdu_mean_size", mean_size);
        m.insert("mac80211.collisions", collisions);
        m.insert("mac80211.backoff_draws", sum_like("mac.", ".backoff.draws"));
        m.insert("mac80211.collision_ratio", ratio(collisions, rounds));
        m.insert("mac80211.retry_drops", sum_like("mac.", ".backoff.drops"));
        m.insert("mac80211.build_ampdu_ns_per_aggregate", build_ns);
        m.insert("mac80211.contention_ns_per_round", contention_ns);
        m.insert(
            "mac80211.est_share",
            share(aggregates, build_ns) + share(rounds, contention_ns),
        );

        // phy80211: one PER lookup per AP TXOP, one airtime lookup per
        // client TXOP (the per-frame airtime probes of an A-MPDU build
        // are already inside build_ampdu's cost).
        let airtime_ns = t.span("kernel.phy80211.airtime", |_| {
            kernels::airtime_ns_per_lookup()
        });
        let per_ns = t.span("kernel.phy80211.per", |_| {
            kernels::per_ns_per_lookup(cfg.n_aps * cfg.clients_per_ap)
        });
        m.insert("phy80211.airtime_ns_per_lookup", airtime_ns);
        m.insert("phy80211.per_ns_per_lookup", per_ns);
        m.insert(
            "phy80211.est_share",
            share(aggregates, per_ns) + share(sum("mac.clients.backoff.successes"), airtime_ns),
        );

        // tcp: the lossy kernel is calibrated at 1 % loss, so a run's
        // unit cost slides from clean to lossy as its retransmit ratio
        // approaches that.
        let segments: f64 = out
            .reports
            .iter()
            .flat_map(|r| &r.sender_stats)
            .map(|s| (s.acked_bytes / MSS) as f64)
            .sum();
        let retransmits = sum("tcp.retransmits");
        let retransmit_ratio = ratio(retransmits, segments);
        let clean_ns = t.span("kernel.tcp.sender_clean", |_| {
            kernels::sender_ns_per_segment(0.0)
        });
        let lossy_ns = t.span("kernel.tcp.sender_lossy", |_| {
            kernels::sender_ns_per_segment(0.01)
        });
        let blend = |clean: f64, slow: f64, slow_ratio: f64| {
            clean + (slow - clean) * (slow_ratio / 0.01).min(1.0)
        };
        m.insert("tcp.segments_acked", segments);
        m.insert("tcp.retransmits", retransmits);
        m.insert("tcp.fast_retransmits", sum("tcp.fast_retransmits"));
        m.insert("tcp.timeouts", sum("tcp.timeouts"));
        m.insert("tcp.retransmit_ratio", retransmit_ratio);
        m.insert("tcp.sender_ns_per_segment_clean", clean_ns);
        m.insert("tcp.sender_ns_per_segment_lossy", lossy_ns);
        m.insert(
            "tcp.est_share",
            share(segments, blend(clean_ns, lossy_ns, retransmit_ratio)),
        );

        // fastack: only the FastACK arm's segments pass an enabled agent.
        let fast_acks = sum_like("fastack.", ".fast_acks_sent");
        let local_retx = sum_like("fastack.", ".local_retransmits");
        let holes = sum_like("fastack.", ".holes_detected");
        let bypasses = sum_like("fastack.", ".cache_bypasses");
        let agent_segments: f64 = out
            .reports
            .last()
            .map(|r| r.client_bytes.iter().map(|b| (b / MSS) as f64).sum())
            .unwrap_or(0.0);
        let agent_clean_ns = t.span("kernel.fastack.agent_clean", |_| {
            kernels::agent_ns_per_segment(0)
        });
        let agent_holes_ns = t.span("kernel.fastack.agent_holes", |_| {
            kernels::agent_ns_per_segment(100)
        });
        m.insert("fastack.fast_acks_sent", fast_acks);
        m.insert(
            "fastack.client_acks_suppressed",
            sum_like("fastack.", ".client_acks_suppressed"),
        );
        m.insert("fastack.local_retransmits", local_retx);
        m.insert("fastack.holes_detected", holes);
        m.insert("fastack.cache_bypasses", bypasses);
        m.insert(
            "fastack.slow_path_ratio",
            ratio(local_retx + holes + bypasses, agent_segments),
        );
        m.insert("fastack.agent_ns_per_segment_clean", agent_clean_ns);
        m.insert("fastack.agent_ns_per_segment_holes", agent_holes_ns);
        m.insert(
            "fastack.est_share",
            share(
                agent_segments,
                blend(agent_clean_ns, agent_holes_ns, ratio(holes, agent_segments)),
            ),
        );

        // telemetry: records retained + dropped = records emitted.
        let last = out.reports.last().expect("at least one arm");
        let retained: f64 = out
            .reports
            .iter()
            .map(|r| r.flight.total_records() as f64)
            .sum();
        let dropped: f64 = out
            .reports
            .iter()
            .map(|r| r.flight.total_dropped() as f64)
            .sum();
        let health_steps: f64 = out.reports.iter().map(|r| r.health.steps as f64).sum();
        let emit_ns = t.span("kernel.telemetry.flight_emit", |_| {
            kernels::flight_emit_ns_per_record(cfg.flight_capacity)
        });
        let health_ns = t.span("kernel.telemetry.health_step", |_| {
            kernels::health_step_ns(&last.metrics, cfg.n_aps, cfg.clients_per_ap)
        });
        m.insert("telemetry.flight_records", retained);
        m.insert("telemetry.flight_dropped", dropped);
        m.insert("telemetry.flight_emit_ns_per_record", emit_ns);
        m.insert("telemetry.health_step_ns", health_ns);
        let mut telemetry_share =
            share(retained + dropped, emit_ns) + share(health_steps, health_ns);

        if let Some(a) = &out.artifacts {
            let ms = |name: &str| t.total_s(name) * 1e3;
            m.insert(
                "telemetry.metrics_to_json_ms",
                ms("telemetry.metrics_to_json"),
            );
            m.insert(
                "telemetry.flight_to_bytes_ms",
                ms("telemetry.flight_to_bytes"),
            );
            m.insert("telemetry.flight_parse_ms", ms("telemetry.flight_parse"));
            m.insert(
                "telemetry.timeline_to_bytes_ms",
                ms("telemetry.timeline_to_bytes"),
            );
            m.insert(
                "telemetry.timeline_parse_ms",
                ms("telemetry.timeline_parse"),
            );
            m.insert(
                "telemetry.health_to_json_ms",
                ms("telemetry.health_to_json"),
            );
            m.insert("telemetry.artifact_bytes", a.total_bytes() as f64);

            let sample_ns = t.span("kernel.telemetry.timeline_sample", |_| {
                kernels::timeline_sample_ns_per_tick(&last.metrics, &Self::timeline_config())
            });
            let ticks = last.timeline.as_ref().map_or(0, Timeline::ticks) as f64;
            m.insert("telemetry.timeline_sample_ns_per_tick", sample_ns);
            telemetry_share += share(ticks, sample_ns);

            // One more rep of the same scenario with default sinks.
            let plain = t.span("netsim.testbed_new.default_sinks", |_| {
                Testbed::new(self.default_sinks_config())
            });
            let plain = t.span("netsim.testbed_run.default_sinks", |_| {
                plain.run(self.sim_duration())
            });
            let plain_ns_per_event = t.total_s("netsim.testbed_run.default_sinks") * 1e9
                / counter(&plain, "sim.queue.popped") as f64;
            m.insert(
                "telemetry.tax_ratio",
                (run_s * 1e9 / events) / plain_ns_per_event,
            );

            // qoe
            let probe_ns = t.span("kernel.qoe.probe", |_| kernels::qoe_probe_ns_per_sample());
            m.insert("qoe.probes_sent", sum_like("qoe.client", ".sent"));
            m.insert("qoe.probes_delivered", sum_like("qoe.client", ".delivered"));
            m.insert("qoe.probe_ns_per_sample", probe_ns);
        }
        m.insert("telemetry.est_share", telemetry_share);

        let attributed: f64 = [
            "sim.est_share",
            "phy80211.est_share",
            "mac80211.est_share",
            "tcp.est_share",
            "fastack.est_share",
            "telemetry.est_share",
        ]
        .iter()
        .map(|k| m[k])
        .sum();
        m.insert("netsim.unattributed_share", 1.0 - attributed);
        Vec::new()
    }
}
