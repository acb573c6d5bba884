//! The catalog's tests, one lifecycle per rule (`#[cfg(test)] mod tests`
//! in `mod.rs`; apart so that `catalog.rs` stays under the line gate).

use super::*;
use crate::flight::{cause_for, FlightDump, FlightRecorder, TraceRecord};
use crate::metrics::{GaugeId, Registry};
use sim::SimTime;

pub(super) fn t(step: u64) -> SimTime {
    SimTime::from_millis(250 * step)
}

#[test]
fn rto_storm_lifecycle_with_severity_upgrade() {
    let mut m = Registry::new();
    let c = m.counter("tcp.timeouts");
    let mut eng = HealthEngine::new();
    eng.add(Box::new(RtoStorm::new(
        "tcp",
        "tcp.timeouts",
        vec![],
        RtoStormRule {
            window: 4,
            raise: 3.0,
            clear: 0.0,
            critical: 8.0,
        },
    )));
    // Quiet warmup.
    for s in 0..4 {
        eng.step(t(s), &m);
    }
    // 4 timeouts in one epoch: raise (warning).
    m.add(c, 4);
    eng.step(t(4), &m);
    // 6 more: the open alert upgrades to critical.
    m.add(c, 6);
    eng.step(t(5), &m);
    // Quiet epochs flush the window back to zero: clear.
    for s in 6..10 {
        eng.step(t(s), &m);
    }
    let report = eng.finish(&FlightDump::default());
    assert_eq!(report.steps, 10);
    assert_eq!(report.alerts.len(), 1);
    let a = &report.alerts[0];
    assert_eq!(a.rule, RULE_RTO_STORM);
    assert_eq!(a.component, "tcp");
    assert_eq!(a.severity, Severity::Critical, "upgraded while open");
    assert_eq!(a.raised_at, t(4));
    assert_eq!(a.cleared_at, Some(t(9)));
    assert!(a.value >= 10.0, "peak level recorded: {}", a.value);
    assert!(a.cause.is_none(), "no flight records to link");
}

#[test]
fn channel_flap_ignores_warmup_then_fires_on_churn() {
    let mut m = Registry::new();
    let c = m.counter("sched.switches");
    let mut flap = ChannelFlap::new(
        "sched",
        "sched.switches",
        ChannelFlapRule {
            window: 4,
            raise: 3.0,
            clear: 0.0,
            critical: 6.0,
            warmup_steps: 1,
        },
    );
    // Initial convergence burst lands in the warmup step.
    m.add(c, 8);
    assert_eq!(flap.step(t(0), &m), None);
    for s in 1..5 {
        assert_eq!(flap.step(t(s), &m), None, "stable network stays quiet");
    }
    // Churn: 2 + 2 switches in adjacent epochs crosses raise=3.
    m.add(c, 2);
    assert_eq!(flap.step(t(5), &m), None);
    m.add(c, 2);
    let raised = flap.step(t(6), &m);
    assert!(
        matches!(
            raised,
            Some(Transition::Raise {
                severity: Severity::Warning,
                ..
            })
        ),
        "{raised:?}"
    );
    // Four quiet epochs drain the window: clear.
    let mut cleared = None;
    for s in 7..12 {
        if let Some(tr) = flap.step(t(s), &m) {
            cleared = Some(tr);
        }
    }
    assert_eq!(cleared, Some(Transition::Clear));
}

#[test]
fn ampdu_collapse_needs_sustained_drop_and_recovers() {
    let mut m = Registry::new();
    let aggs = m.counter("mac.ap0.ampdu.aggregates");
    let frames = m.counter("mac.ap0.ampdu.frames");
    let mut det = AmpduCollapse::new(
        "ap0",
        "mac.ap0.ampdu.aggregates",
        "mac.ap0.ampdu.frames",
        vec![7],
    );
    let feed = |m: &mut Registry, n_aggs: u64, mean: u64| {
        m.add(aggs, n_aggs);
        m.add(frames, n_aggs * mean);
    };
    let mut raised_step = None;
    let mut cleared_step = None;
    for s in 0..60 {
        // Healthy 40-frame aggregates, a collapse to 8 frames for
        // steps 25..40, healthy again after.
        let mean = if (25..40).contains(&s) { 8 } else { 40 };
        feed(&mut m, 10, mean);
        match det.step(t(s), &m) {
            Some(Transition::Raise { .. }) if raised_step.is_none() => {
                raised_step = Some(s);
            }
            Some(Transition::Clear) => cleared_step = Some(s),
            _ => {}
        }
    }
    let raised = raised_step.expect("collapse detected");
    assert!(
        (25..40).contains(&raised),
        "raised during the collapse: step {raised}"
    );
    let cleared = cleared_step.expect("recovery clears the alert");
    assert!(cleared >= 40, "cleared after recovery: step {cleared}");
}

#[test]
fn ampdu_collapse_skips_idle_steps() {
    let mut m = Registry::new();
    let aggs = m.counter("a");
    let frames = m.counter("f");
    let mut det = AmpduCollapse::new("ap0", "a", "f", vec![]);
    for s in 0..20 {
        m.add(aggs, 10);
        m.add(frames, 400);
        assert_eq!(det.step(t(s), &m), None);
    }
    // 20 idle epochs: no aggregates at all must NOT look collapsed.
    for s in 20..40 {
        assert_eq!(det.step(t(s), &m), None, "idle step {s} raised");
    }
}

fn stall_registry() -> (Registry, GaugeId, GaugeId) {
    let mut m = Registry::new();
    let synth = m.gauge("health.ap0.fast_acks");
    let inflight = m.gauge("health.ap0.inflight");
    m.gauge_set(inflight, 30);
    (m, synth, inflight)
}

#[test]
fn fastack_stall_raises_and_links_last_emission() {
    let rule = FastAckStallRule {
        gap_steps: 4.0,
        critical_steps: 16.0,
        min_inflight: 4.0,
    };
    let rec = FlightRecorder::new(64);
    // Healthy epochs emit synthetic ACKs (flight side).
    for s in 0..3 {
        rec.emit(
            "fastack.synth",
            t(s),
            cause_for(3, 1000 + s),
            TraceRecord::FastAckSynth {
                flow: 3,
                ack: 1000 + s,
                synthetic: true,
            },
        );
    }
    let run = || {
        let (mut m, synth, _inflight) = stall_registry();
        let mut eng = HealthEngine::new();
        eng.add(Box::new(FastAckStall::new(
            "ap0",
            "health.ap0.fast_acks",
            "health.ap0.inflight",
            vec![3],
            rule,
        )));
        for s in 0..9 {
            if s < 3 {
                // Metrics side of the healthy emissions.
                m.gauge_add(synth, 5);
            }
            // From step 3 on: silence with 30 segments in flight —
            // a stall after gap_steps quiet epochs.
            eng.step(t(s), &m);
        }
        eng.finish(&rec.snapshot())
    };
    let report = run();
    assert_eq!(report.alerts.len(), 1);
    let a = &report.alerts[0];
    assert_eq!(a.rule, RULE_FASTACK_STALL);
    assert!(a.cleared_at.is_none(), "still stalled at finish");
    assert_eq!(
        a.cause,
        Some(cause_for(3, 1002)),
        "linked to the last synthetic ACK before the gap"
    );
    assert_eq!(a.cause_flow(), Some(3));
    // Determinism: the identical scenario reproduces byte-for-byte.
    assert_eq!(run().to_json(), report.to_json());
}

#[test]
fn fastack_stall_refuted_by_flight_records() {
    let (m, _synth, _inflight) = stall_registry();
    let rec = FlightRecorder::new(64);
    let mut eng = HealthEngine::new();
    eng.add(Box::new(FastAckStall::new(
        "ap0",
        "health.ap0.fast_acks",
        "health.ap0.inflight",
        vec![3],
        FastAckStallRule {
            gap_steps: 4.0,
            critical_steps: 16.0,
            min_inflight: 4.0,
        },
    )));
    // The gauge never moves (metrics claim a stall) but the flight
    // ring shows a synthetic emission inside the gap: the
    // cross-check must drop the alert.
    for s in 0..9 {
        eng.step(t(s), &m);
    }
    rec.emit(
        "fastack.synth",
        t(5),
        cause_for(3, 2000),
        TraceRecord::FastAckSynth {
            flow: 3,
            ack: 2000,
            synthetic: true,
        },
    );
    let report = eng.finish(&rec.snapshot());
    assert!(
        report.alerts.is_empty(),
        "flight record inside the gap refutes the stall: {:?}",
        report.alerts
    );
}

#[test]
fn queue_starvation_requires_backlog_and_silence() {
    let mut m = Registry::new();
    let backlog = m.gauge("health.ap0.backlog");
    let served = m.counter("mac.ap0.ampdu.aggregates");
    let rule = QueueStarvationRule {
        stall_steps: 3.0,
        critical_steps: 6.0,
        min_backlog: 1.0,
    };
    let mut det = QueueStarvation::new(
        "ap0",
        "health.ap0.backlog",
        "mac.ap0.ampdu.aggregates",
        vec![],
        rule,
    );
    // Empty queue + silence: fine.
    for s in 0..5 {
        assert_eq!(det.step(t(s), &m), None);
    }
    // Backlog while serving: fine.
    m.gauge_set(backlog, 40);
    for s in 5..10 {
        m.add(served, 2);
        assert_eq!(det.step(t(s), &m), None);
    }
    // Backlog and zero service: raises on the 3rd silent epoch.
    assert_eq!(det.step(t(10), &m), None);
    assert_eq!(det.step(t(11), &m), None);
    assert!(matches!(
        det.step(t(12), &m),
        Some(Transition::Raise { .. })
    ));
    // Service resumes: streak collapses, alert clears.
    m.add(served, 1);
    assert_eq!(det.step(t(13), &m), Some(Transition::Clear));
}

#[test]
fn airtime_slo_raises_when_budget_exceeded() {
    let mut m = Registry::new();
    let busy = m.gauge("health.air.busy_ns");
    let mut det = AirtimeSlo::new(
        "air",
        "health.air.busy_ns",
        AirtimeSloRule {
            window: 4,
            raise_util: 0.9,
            clear_util: 0.5,
            critical_util: 0.99,
        },
    );
    let step_ns = 250_000_000i64;
    // 70% busy: under budget.
    for s in 0..8 {
        m.gauge_add(busy, step_ns * 7 / 10);
        assert_eq!(det.step(t(s), &m), None);
    }
    // Pinned at 98% busy: crosses the 0.9 budget once the window
    // fills with hot epochs.
    let mut raised = false;
    for s in 8..16 {
        m.gauge_add(busy, step_ns * 98 / 100);
        if matches!(det.step(t(s), &m), Some(Transition::Raise { .. })) {
            raised = true;
        }
    }
    assert!(raised, "pinned medium must violate the SLO");
}

#[test]
fn qoe_degraded_tracks_worst_client_and_links_its_probe_flow() {
    let rec = FlightRecorder::new(64);
    // Probe traffic for both clients; flow 0x4001 is the one that
    // degrades, so its last probe record is the expected cause.
    for s in 0..4u64 {
        for flow in [0x4000u64, 0x4001] {
            rec.emit(
                "qoe.tx",
                t(s),
                cause_for(flow, s),
                TraceRecord::QoeProbe {
                    flow,
                    seq: s,
                    delay_ns: 0,
                },
            );
        }
    }
    let run = || {
        let mut m = Registry::new();
        let g0 = m.gauge("qoe.client0.score");
        let g1 = m.gauge("qoe.client1.score");
        let mut eng = HealthEngine::new();
        eng.add(Box::new(QoeDegraded::new(
            "ap0",
            vec![
                ("qoe.client0.score".to_string(), 0x4000),
                ("qoe.client1.score".to_string(), 0x4001),
            ],
        )));
        for s in 0..12 {
            m.gauge_set(g0, 95);
            // Client 1 collapses at step 4: score 30 (penalty 70,
            // past the critical threshold), recovers at step 8.
            m.gauge_set(g1, if (4..8).contains(&s) { 30 } else { 95 });
            eng.step(t(s), &m);
        }
        eng.finish(&rec.snapshot())
    };
    let report = run();
    assert_eq!(report.alerts.len(), 1);
    let a = &report.alerts[0];
    assert_eq!(a.rule, RULE_QOE_DEGRADED);
    assert_eq!(a.severity, Severity::Critical, "penalty 70 >= critical 55");
    assert_eq!(a.raised_at, t(4));
    assert_eq!(a.cleared_at, Some(t(8)), "recovery clears via hysteresis");
    assert_eq!(
        a.cause_flow(),
        Some(0x4001),
        "cause is the worst-affected client's probe flow"
    );
    assert_eq!(
        a.cause,
        Some(cause_for(0x4001, 3)),
        "last probe before raise"
    );
    // Determinism: identical scenario reproduces byte-for-byte.
    assert_eq!(run().to_json(), report.to_json());
}

#[test]
fn qoe_degraded_is_silent_without_score_gauges() {
    let m = Registry::new();
    let mut det = QoeDegraded::new("ap0", vec![("qoe.client0.score".to_string(), 0x4000)]);
    for s in 0..20 {
        assert_eq!(det.step(t(s), &m), None, "unregistered gauge raised");
    }
}

#[test]
fn qoe_degraded_refuted_when_probe_records_miss_the_flow() {
    let rec = FlightRecorder::new(64);
    // Probe records exist, but only for a *different* flow: the
    // claimed victim has no probe traffic on record, so confirm
    // must refute the alert.
    rec.emit(
        "qoe.tx",
        t(0),
        cause_for(0x4002, 0),
        TraceRecord::QoeProbe {
            flow: 0x4002,
            seq: 0,
            delay_ns: 0,
        },
    );
    let mut m = Registry::new();
    let g = m.gauge("qoe.client0.score");
    let mut eng = HealthEngine::new();
    eng.add(Box::new(QoeDegraded::new(
        "ap0",
        vec![("qoe.client0.score".to_string(), 0x4000)],
    )));
    m.gauge_set(g, 20);
    for s in 0..4 {
        eng.step(t(s), &m);
    }
    let report = eng.finish(&rec.snapshot());
    assert!(
        report.alerts.is_empty(),
        "alert without probe evidence for its flow must be refuted"
    );
}
