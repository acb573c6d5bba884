//! Byte pins for the seven health rules: the packet-level goldens raise
//! `rto-storm`, `ampdu-collapse` and `qoe-degraded` only.
//!
//! Every rule is built by its public constructor under its default
//! thresholds and stepped by one `HealthEngine` over a scripted
//! `Registry` and a small flight dump: each rule raises, upgrades to
//! critical, clears and raises again, with a cause resolved from the
//! dump, and the second alert of the two rules with a finish-time
//! cross-check is one the dump refutes. Each rule's share of the report
//! is pinned as `health.rule.<name>` in `golden/artifact_hashes.txt`,
//! generated on the one-file `telemetry::health`: a rework of the
//! detectors must leave those lines alone.
//!
//! ```text
//! IMC_UPDATE_GOLDENS=1 cargo test --test health_rules_golden
//! ```

mod common;

use common::{check_goldens, fnv1a};
use wifi_core::sim::{SimDuration, SimTime};
use wifi_core::telemetry::health::{
    AirtimeSlo, AirtimeSloRule, AmpduCollapse, ChannelFlap, ChannelFlapRule, FastAckStall,
    FastAckStallRule, QueueStarvation, QueueStarvationRule, RtoStorm, RtoStormRule,
};
use wifi_core::telemetry::{
    cause_for, AirKind, CauseId, Detector, FlightRecorder, HealthEngine, HealthReport, HealthRules,
    QoeDegraded, Registry, TraceRecord,
};

/// Epochs in the script, 250 ms apart.
const EPOCHS: usize = 80;

/// `(n, v)` runs flattened — `n` epochs at `v` each — to [`EPOCHS`].
fn runs(runs: &[(usize, i64)]) -> Vec<i64> {
    let flat: Vec<i64> = runs
        .iter()
        .flat_map(|&(n, v)| std::iter::repeat_n(v, n))
        .collect();
    assert_eq!(flat.len(), EPOCHS);
    flat
}

/// The record the testbed files under `component`, for `flow` at `epoch`.
fn record(component: &str, flow: u64, epoch: u64) -> TraceRecord {
    match component {
        "tcp.wire" => TraceRecord::TcpSeg {
            flow,
            seq: epoch,
            len: 1460,
            retransmit: false,
        },
        "mac.ampdu" => TraceRecord::AmpduBuild {
            flow,
            frames: 8,
            bytes: 11_680,
        },
        "fastack.synth" | "tcp.ack" => TraceRecord::FastAckSynth {
            flow,
            ack: epoch,
            synthetic: component == "fastack.synth",
        },
        "qoe.tx" => TraceRecord::QoeProbe {
            flow,
            seq: epoch,
            delay_ns: 0,
        },
        "air" => TraceRecord::AirtimeSpan {
            kind: AirKind::ApTxop,
            dur: SimDuration::from_millis(3),
        },
        other => panic!("no record for {other}"),
    }
}

#[test]
fn health_rules_match_goldens() {
    let rules = HealthRules::default();
    let (flap, rto) = (ChannelFlapRule::default(), rules.rto_storm.unwrap());
    let (air, queue) = (rules.airtime_slo.unwrap(), rules.queue_starvation);
    let stall = rules.fastack_stall;
    let scores = [("c0", 0x4000), ("c1", 0x4001)].map(|(path, flow)| (path.to_string(), flow));
    let starved = QueueStarvation::new("ap0", "backlog", "served", vec![7], queue);
    let collapse = AmpduCollapse::new("ap0", "aggregates", "frames", vec![17]);
    let degraded = QoeDegraded::new("ap0", scores.to_vec());
    let detectors: [Box<dyn Detector>; 7] = [
        Box::new(ChannelFlap::new("sched", "switches", flap)),
        Box::new(RtoStorm::new("tcp", "timeouts", vec![1, 2], rto)),
        Box::new(AirtimeSlo::new("air", "busy_ns", air)),
        Box::new(starved),
        Box::new(FastAckStall::new("ap0", "acks", "inflight", vec![3], stall)),
        Box::new(collapse),
        Box::new(degraded),
    ];

    // A convergence burst inside the warm-up, then churn twice.
    let switches = runs(&[(1, 8), (68, 0), (2, 2), (1, 3), (6, 0), (2, 2)]);
    let timeouts = runs(&[(50, 0), (1, 4), (1, 3), (1, 6), (26, 0), (1, 7)]);
    // Busy nanoseconds per epoch: 70 %, 99.95 %, 100 %, 20 %, 99.95 %.
    let busy = [
        (45, 7_000),
        (10, 9_995),
        (8, 10_000),
        (4, 2_000),
        (13, 9_995),
    ];
    let busy_ns = runs(&busy.map(|(n, share)| (n, 25_000 * share)));
    let backlog = runs(&[(2, 0), (78, 40)]);
    let served = runs(&[(34, 2), (17, 0), (1, 1), (20, 2), (8, 0)]);
    // The agent goes silent over epochs 40..=58 and from 68 on.
    let acks = runs(&[(40, 5), (19, 0), (9, 5), (12, 0)]);
    // 10 aggregates an epoch at this mean size; none in an idle epoch.
    let mean = runs(&[
        (25, 40),
        (8, 20),
        (10, 8),
        (12, 40),
        (6, 0),
        (6, 40),
        (13, 18),
    ]);
    // Client 1 sinks through warning to critical and recovers; later
    // client 0, with no probe on record, is the worst one.
    let c0 = runs(&[(76, 95), (4, 50)]);
    let c1 = runs(&[(60, 95), (1, 55), (2, 30), (17, 95)]);
    // Per epoch, a counter moves by the value or a gauge is set to it.
    let (counter, gauge) = (true, false);
    let feeds = [
        ("switches", counter, switches),
        ("timeouts", counter, timeouts),
        ("busy_ns", counter, busy_ns),
        ("backlog", gauge, backlog),
        ("served", counter, served),
        ("inflight", gauge, runs(&[(80, 30)])),
        ("acks", counter, acks),
        (
            "aggregates",
            counter,
            mean.iter().map(|&m| 10 * m.min(1)).collect(),
        ),
        ("frames", counter, mean.iter().map(|&m| 10 * m).collect()),
        ("c0", gauge, c0),
        ("c1", gauge, c1),
    ];
    // `(component, epoch, flow)`, emitted at the epoch's instant under
    // `cause_for(flow, epoch)`. Flows 8, 9 and 18 are nobody's.
    let flight: &[(&'static str, u64, u64)] = &[
        ("tcp.wire", 48, 1),
        ("tcp.wire", 50, 2),
        ("tcp.wire", 51, 9),
        ("tcp.wire", 60, 1),
        ("air", 40, 5),
        ("air", 50, 6),
        ("air", 70, 5),
        ("mac.ampdu", 30, 7),
        ("tcp.wire", 40, 7),
        ("tcp.wire", 41, 8),
        ("mac.ampdu", 75, 7),
        ("fastack.synth", 45, 3),
        // A forwarded client ACK inside the first gap refutes nothing,
        // nor does a synthetic one right after it (its last silent
        // epoch is 58); the one inside the second gap refutes that alert.
        ("tcp.ack", 50, 3),
        ("fastack.synth", 59, 3),
        ("fastack.synth", 77, 3),
        ("mac.ampdu", 20, 17),
        ("mac.ampdu", 27, 17),
        ("mac.ampdu", 28, 18),
        ("mac.ampdu", 70, 17),
        ("qoe.tx", 58, 0x4001),
        ("qoe.tx", 60, 0x4001),
    ];

    let t = |epoch: u64| SimTime::from_millis(250 * epoch);
    let mut m = Registry::new();
    let mut eng = HealthEngine::new();
    detectors.into_iter().for_each(|d| eng.add(d));
    for epoch in 0..EPOCHS {
        for (path, is_counter, script) in &feeds {
            if *is_counter {
                m.count(path, script[epoch] as u64);
            } else {
                let id = m.gauge(path);
                m.gauge_set(id, script[epoch]);
            }
        }
        eng.step(t(epoch as u64), &m);
    }
    let rec = FlightRecorder::new(64);
    for &(component, epoch, flow) in flight {
        let cause = cause_for(flow, epoch);
        rec.emit(component, t(epoch), cause, record(component, flow, epoch));
    }
    assert_eq!(eng.alerts_so_far(), 14, "two per rule");
    let report = eng.finish(&rec.snapshot());
    assert_eq!(report.alerts.len(), 12, "two refuted");

    let mut names: Vec<&str> = report.alerts.iter().map(|a| a.rule.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), 7);
    let pin = |rule: &str| {
        let mut alerts = report.alerts.clone();
        alerts.retain(|a| a.rule == rule);
        let share = HealthReport {
            steps: report.steps,
            alerts,
        };
        let json = share.to_json();
        (format!("health.rule.{rule}"), fnv1a(json.as_bytes()))
    };
    check_goldens(
        "health.rule",
        &names.into_iter().map(pin).collect::<Vec<_>>(),
    );
}

/// Every cause and cross-check the engine settles at finish time, over a
/// dump built to be awkward: instants tied within and across components,
/// `CauseId::NONE` records, records exactly at alert instants, and a
/// `tcp.wire` component emitted out of time order. Six detectors raise
/// and clear every few epochs, so well over a hundred alerts settle.
/// `health.settle.dump` pins the dump, `health.settle.report` the alerts.
#[test]
fn settled_causes_match_goldens() {
    let rto = RtoStormRule {
        window: 1,
        raise: 1.0,
        clear: 0.0,
        critical: 5.0,
    };
    let stall = FastAckStallRule {
        gap_steps: 2.0,
        critical_steps: 4.0,
        min_inflight: 1.0,
    };
    let starved = QueueStarvationRule {
        stall_steps: 1.0,
        critical_steps: 3.0,
        min_backlog: 1.0,
    };
    let air = AirtimeSloRule {
        window: 1,
        raise_util: 0.9,
        clear_util: 0.5,
        critical_util: 0.98,
    };
    let scores = (0..3u64).map(|k| (format!("c{k}"), 0x4000 + k)).collect();
    let detectors: [Box<dyn Detector>; 6] = [
        Box::new(RtoStorm::new("tcp", "timeouts", vec![1, 2, 3], rto)),
        // No flows: a record of any flow explains it.
        Box::new(RtoStorm::new("tcp.any", "timeouts3", vec![], rto)),
        Box::new(QueueStarvation::new(
            "ap0",
            "backlog",
            "served",
            vec![4, 5],
            starved,
        )),
        Box::new(FastAckStall::new("ap0", "acks", "inflight", vec![3], stall)),
        Box::new(AirtimeSlo::new("air", "busy_ns", air)),
        // Client 2 has no probe on record: its alerts are refuted.
        Box::new(QoeDegraded::new("ap1", scores)),
    ];
    let t = |epoch: u64| SimTime::from_millis(250 * epoch);
    let mut m = Registry::new();
    let mut eng = HealthEngine::new();
    detectors.into_iter().for_each(|d| eng.add(d));
    for e in 0..EPOCHS as u64 {
        m.count("timeouts", e % 2);
        m.count("timeouts3", u64::from(e % 3 == 1));
        m.count("served", u64::from(e % 4 == 0));
        m.count("acks", u64::from(e % 5 == 0));
        m.count("busy_ns", 2_500_000 * if e % 2 == 0 { 99 } else { 10 });
        let score = |k: u64| if e % 2 == 0 && e / 2 % 3 == k { 30 } else { 95 };
        let levels = [("backlog", 40), ("inflight", 30)];
        let scores = [("c0", score(0)), ("c1", score(1)), ("c2", score(2))];
        for (path, level) in levels.into_iter().chain(scores) {
            let id = m.gauge(path);
            m.gauge_set(id, level);
        }
        eng.step(t(e), &m);
    }

    // xorshift64: a fixed stream of choices, no dependency.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut draw = move |n: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % n
    };
    let components: [(&'static str, &[u64]); 8] = [
        ("air", &[1, 2, 3, 4, 5]),
        ("fastack.synth", &[3, 4]),
        ("mac.ampdu", &[4, 5, 17]),
        ("mac.tx", &[1, 3, 5, 0x4000, 0x4001]),
        ("qoe.tx", &[0x4000, 0x4001]),
        ("tcp.ack", &[3]),
        ("tcp.retx", &[1, 2, 4, 5]),
        ("tcp.wire", &[1, 2, 3, 4, 5, 9]),
    ];
    let rec = FlightRecorder::new(4096);
    let mut seq = 0u64;
    for (component, flows) in components {
        // `tcp.wire` files the second half of the run first.
        let epochs: Vec<u64> = match component {
            "tcp.wire" => (40..80).chain(0..40).collect(),
            _ => (0..80).collect(),
        };
        for e in epochs {
            // Up to two records an epoch, in time order, ties allowed;
            // half land exactly on the instant an alert is raised at.
            let n = draw(3);
            let mut offsets: Vec<u64> = (0..n).map(|_| [0, 0, 50, 125][draw(4) as usize]).collect();
            offsets.sort_unstable();
            for ms in offsets {
                let flow = flows[draw(flows.len() as u64) as usize];
                seq += 1;
                let cause = if draw(6) == 0 {
                    CauseId::NONE
                } else {
                    cause_for(flow, seq)
                };
                let at = t(e) + SimDuration::from_millis(ms);
                rec.emit(component, at, cause, settle_record(component, flow, seq));
            }
        }
    }
    let dump = rec.snapshot();
    let report = eng.finish(&dump);
    assert!(report.alerts.len() > 100, "{} alerts", report.alerts.len());
    check_goldens(
        "health.settle",
        &[
            ("health.settle.dump".to_string(), fnv1a(&dump.to_bytes())),
            (
                "health.settle.report".to_string(),
                fnv1a(report.to_json().as_bytes()),
            ),
        ],
    );
}

/// The record `component` files for `flow`, numbered `seq`.
fn settle_record(component: &str, flow: u64, seq: u64) -> TraceRecord {
    match component {
        "tcp.wire" | "tcp.retx" => TraceRecord::TcpSeg {
            flow,
            seq,
            len: 1460,
            retransmit: component == "tcp.retx",
        },
        "mac.tx" => TraceRecord::MacTx {
            flow,
            seq,
            delivered: !seq.is_multiple_of(3),
        },
        "fastack.synth" | "tcp.ack" => TraceRecord::FastAckSynth {
            flow,
            ack: seq,
            synthetic: component == "fastack.synth",
        },
        "qoe.tx" => TraceRecord::QoeProbe {
            flow,
            seq,
            delay_ns: 0,
        },
        other => record(other, flow, seq),
    }
}
