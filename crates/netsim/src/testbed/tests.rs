use super::*;
use telemetry::{AirKind, Timeline, TimelineConfig, TraceRecord};

/// One AP with `clients` stations and its FastACK arm on or off;
/// everything else default.
fn one_ap(clients: usize, fastack: bool) -> TestbedConfig {
    TestbedConfig {
        clients_per_ap: clients,
        fastack: vec![fastack],
        ..TestbedConfig::default()
    }
}

fn quick(cfg: TestbedConfig, secs: u64) -> TestbedReport {
    Testbed::new(cfg).run(SimDuration::from_secs(secs))
}

#[test]
fn single_client_moves_data() {
    let r = quick(one_ap(1, true), 2);
    assert!(r.client_bytes[0] > 1_000_000, "{:?}", r.client_bytes);
    assert!(r.total_mbps() > 50.0, "{}", r.total_mbps());
    assert!(r.medium_utilization > 0.1);
}

#[test]
fn dense_run_schedules_into_the_queue_lane() {
    // Every wire event is scheduled at `now + WIRED_LATENCY` off a
    // clock that only moves forward, so each must be an O(1) append to
    // the event queue's sorted run; a schedule site that breaks the
    // pattern would quietly put the O(n) ordered insert on the packet
    // path. One row per packet shape the benchmark runs.
    let (dense, lossy) = (TestbedConfig::dense(true), TestbedConfig::lossy(true));
    let obs = TestbedConfig {
        flight_capacity: 65_536,
        qoe: Some(qoe::ProbeConfig::default()),
        interferer: Some(InterfererFault {
            at: SimTime::from_millis(1_000),
        }),
        ..TestbedConfig::dense(true)
    };
    for (shape, cfg) in [("dense", dense), ("lossy", lossy), ("obs", obs)] {
        let mut tb = Testbed::new(cfg);
        tb.world.run_until(SimTime::from_secs(2), &mut tb.taps);
        let scheduled = tb.world.queue.stats().scheduled;
        assert!(scheduled > 10_000, "{shape}: {scheduled} events");
        assert_eq!(tb.world.queue.out_of_order(), 0, "{shape} inserted");
    }
}

#[test]
fn baseline_also_moves_data() {
    let r = quick(one_ap(1, false), 2);
    assert!(r.client_bytes[0] > 500_000, "{:?}", r.client_bytes);
    assert_eq!(r.agent_stats[0].fast_acks_sent, 0);
}

#[test]
fn fastack_beats_baseline_with_many_clients() {
    let mk = |fa: bool| {
        quick(
            TestbedConfig {
                seed: 7,
                ..one_ap(10, fa)
            },
            3,
        )
    };
    let fast = mk(true);
    let base = mk(false);
    assert!(
        fast.total_mbps() > base.total_mbps(),
        "fast={} base={}",
        fast.total_mbps(),
        base.total_mbps()
    );
    // Aggregation improves too.
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    assert!(
        mean(&fast.client_aggregation) > mean(&base.client_aggregation),
        "fast={:?} base={:?}",
        mean(&fast.client_aggregation),
        mean(&base.client_aggregation)
    );
}

#[test]
fn fast_acks_flow_and_client_acks_suppressed() {
    let r = quick(one_ap(5, true), 2);
    let st = r.agent_stats[0];
    assert!(st.fast_acks_sent > 100, "{st:?}");
    assert!(st.client_acks_suppressed > 50, "{st:?}");
}

#[test]
fn tcp_latency_exceeds_mac_latency() {
    // Fig. 10's core observation.
    let r = quick(one_ap(10, false), 3);
    let mac = r.mac_latencies.mean_s();
    let tcp = r.tcp_latencies.mean_s();
    assert!(!r.mac_latencies.is_empty() && !r.tcp_latencies.is_empty());
    assert!(tcp > mac, "tcp={tcp} mac={mac}");
}

#[test]
fn bad_hints_trigger_local_retransmits() {
    let r = quick(
        TestbedConfig {
            bad_hint_rate: 0.05,
            seed: 3,
            ..one_ap(4, true)
        },
        3,
    );
    assert!(
        r.agent_stats[0].local_retransmits > 0,
        "{:?}",
        r.agent_stats[0]
    );
    // Flows still make progress despite 5% bad hints.
    assert!(
        r.client_bytes.iter().all(|&b| b > 100_000),
        "{:?}",
        r.client_bytes
    );
}

#[test]
fn upstream_loss_detected_as_holes() {
    let r = quick(
        TestbedConfig {
            upstream_loss: 0.02,
            seed: 5,
            ..one_ap(3, true)
        },
        3,
    );
    assert!(
        r.agent_stats[0].holes_detected > 0,
        "{:?}",
        r.agent_stats[0]
    );
    assert!(r.client_bytes.iter().all(|&b| b > 100_000));
}

#[test]
fn two_aps_share_the_medium() {
    let r = quick(
        TestbedConfig {
            n_aps: 2,
            clients_per_ap: 5,
            fastack: vec![true, true],
            seed: 11,
            ..TestbedConfig::default()
        },
        3,
    );
    assert_eq!(r.ap_mbps.len(), 2);
    assert!(
        r.ap_mbps[0] > 10.0 && r.ap_mbps[1] > 10.0,
        "{:?}",
        r.ap_mbps
    );
    // Neither AP should starve: within 3x of each other.
    let ratio = r.ap_mbps[0] / r.ap_mbps[1];
    assert!((0.33..3.0).contains(&ratio), "{ratio}");
}

/// The timeline carries Fig. 14's curves: one `tcp.flow{c}.cwnd_segments`
/// f64 series per flow, a point per tick on the sampler's grid.
#[test]
fn timeline_records_a_cwnd_series_per_flow() {
    let r = quick(
        TestbedConfig {
            timeline: Some(TimelineConfig::sampling(SimDuration::from_millis(100))),
            ..one_ap(2, true)
        },
        2,
    );
    let tl = r.timeline.as_ref().expect("timeline enabled");
    for c in 0..2usize {
        let series = tl.range(
            &format!("tcp.flow{c}.cwnd_segments"),
            SimTime::ZERO,
            SimTime::MAX,
        );
        assert!(series.len() >= 15, "flow {c}: {}", series.len());
        for (i, (at, _)) in series.iter().enumerate() {
            assert_eq!(*at, SimTime::from_millis(100 * i as u64), "flow {c}");
        }
        // cwnd grows over the run with FastACK.
        let last = series[series.len() - 1].1;
        assert!(last > 10.0, "flow {c}: {last}");
    }
    // The registry series rode along: health gauges are visible as
    // timeline series on the same grid.
    assert!(tl.series_names().any(|n| n == "health.air.busy_ns"));
    assert_eq!(tl.every(), SimDuration::from_millis(100));
}

/// Crown-jewel check for the sampler itself: a run with a timeline
/// produces byte-identical metrics/flight/health artifacts to the
/// same run without one (trajectory neutrality), and double-running
/// with the timeline yields byte-identical TSL1 dumps.
#[test]
fn timeline_is_trajectory_neutral_and_deterministic() {
    let base = quick(
        TestbedConfig {
            seed: 77,
            ..one_ap(3, true)
        },
        2,
    );
    let mk = || {
        quick(
            TestbedConfig {
                seed: 77,
                timeline: Some(TimelineConfig::sampling(SimDuration::from_millis(50))),
                ..one_ap(3, true)
            },
            2,
        )
    };
    let a = mk();
    let b = mk();
    assert_eq!(base.metrics.to_json(), a.metrics.to_json());
    assert_eq!(base.flight.to_bytes(), a.flight.to_bytes());
    assert_eq!(base.health.to_json(), a.health.to_json());
    let da = a.timeline.as_ref().expect("timeline").to_bytes();
    let db = b.timeline.as_ref().expect("timeline").to_bytes();
    assert_eq!(da, db);
    assert!(Timeline::parse(&da).expect("parse").ticks() > 0);
}

/// Observers cannot steer a run: with each sink toggled alone and all
/// together, everything the protocol world ends up with is the same to
/// the bit. (The types already rule it out — `Taps::on` returns `()` —
/// so this pins the wiring: that no sink setting leaks into `World::new`
/// or the run loop.) Probing stays on throughout: probes are traffic.
#[test]
fn sinks_do_not_steer_the_world() {
    let all_off = TestbedConfig {
        n_aps: 2,
        clients_per_ap: 3,
        fastack: vec![true, false],
        upstream_loss: 0.01,
        bad_hint_rate: 0.05,
        seed: 23,
        interferer: Some(InterfererFault {
            at: SimTime::from_millis(400),
        }),
        qoe: Some(qoe::ProbeConfig::default()),
        flight_capacity: 0,
        health: false,
        timeline: None,
        ..TestbedConfig::default()
    };
    let flight = |c: &mut TestbedConfig| c.flight_capacity = 65_536;
    let health = |c: &mut TestbedConfig| c.health = true;
    let timeline = |c: &mut TestbedConfig| {
        c.timeline = Some(TimelineConfig::sampling(SimDuration::from_millis(10)))
    };
    // `{:?}` of an f64 round-trips, so equal text is equal bits.
    let world_state = |edits: &[&dyn Fn(&mut TestbedConfig)]| {
        let mut cfg = all_off.clone();
        edits.iter().for_each(|edit| edit(&mut cfg));
        let r = Testbed::new(cfg).run(SimDuration::from_millis(800));
        let queue = ["sim.queue.scheduled", "sim.queue.popped"].map(|p| r.metrics.counter_value(p));
        let state = (r.client_bytes, r.sender_stats, r.agent_stats, queue);
        format!("{state:?}")
    };
    let want = world_state(&[]);
    assert!(want.contains("local_retransmits: ") && !want.contains("acked_bytes: 0,"));
    assert_eq!(world_state(&[&flight]), want, "flight recorder");
    assert_eq!(world_state(&[&health]), want, "health engine");
    assert_eq!(world_state(&[&timeline]), want, "timeline");
    assert_eq!(world_state(&[&flight, &health, &timeline]), want, "all on");
}

#[test]
fn udp_saturation_hits_the_blockack_window() {
    let r = quick(
        TestbedConfig {
            traffic: Traffic::UdpSaturate,
            ..one_ap(5, false)
        },
        2,
    );
    let mean = r.client_aggregation.iter().sum::<f64>() / 5.0;
    assert!(mean > 60.0, "UDP bound should approach 64: {mean}");
    assert!(r.total_mbps() > 300.0, "{}", r.total_mbps());
    // No TCP machinery ran.
    assert!(r.tcp_latencies.is_empty());
    assert_eq!(r.agent_stats[0].fast_acks_sent, 0);
}

#[test]
fn deterministic_replay() {
    let cfg = TestbedConfig {
        seed: 99,
        ..one_ap(4, true)
    };
    let a = Testbed::new(cfg.clone()).run(SimDuration::from_secs(1));
    let b = Testbed::new(cfg).run(SimDuration::from_secs(1));
    assert_eq!(a.client_bytes, b.client_bytes);
    assert_eq!(a.agent_stats, b.agent_stats);
    // The metrics snapshot is part of the determinism contract:
    // byte-identical JSON for equal seeds.
    assert_eq!(a.metrics.to_json(), b.metrics.to_json());
    // So is the flight dump: byte-identical binary for equal seeds.
    assert_eq!(a.flight.to_bytes(), b.flight.to_bytes());
    assert!(a.flight.total_records() > 0);
}

#[test]
fn flight_chain_crosses_the_stack() {
    // The acceptance chain: one flow traceable TCP-seg → A-MPDU →
    // MAC tx → BlockAck → fast ACK, plus the airtime it paid for.
    let r = quick(
        TestbedConfig {
            seed: 17,
            ..one_ap(2, true)
        },
        2,
    );
    assert_eq!(
        r.metrics.counter_value("trace.dropped"),
        Some(r.flight.total_dropped())
    );
    let chain = r.flight.chain(1);
    let has = |layer: &str| chain.iter().any(|(_, ev)| ev.record().layer() == layer);
    for layer in [
        "tcp-seg",
        "ampdu-build",
        "mac-tx",
        "block-ack",
        "fastack-synth",
        "airtime-span",
    ] {
        assert!(has(layer), "chain is missing {layer}: {:?}", chain.len());
    }
    // Time-ordered.
    assert!(chain.windows(2).all(|w| w[0].1.at <= w[1].1.at));
    // Components carry the expected names.
    for name in [
        "tcp.wire",
        "mac.ampdu",
        "mac.tx",
        "mac.back",
        "fastack.synth",
    ] {
        assert!(
            r.flight.components.iter().any(|c| c.name == name),
            "missing component {name}"
        );
    }
}

#[test]
fn flight_capacity_zero_disables_recording() {
    let r = quick(
        TestbedConfig {
            flight_capacity: 0,
            ..one_ap(1, true)
        },
        1,
    );
    assert_eq!(r.flight.total_records(), 0);
    assert_eq!(r.metrics.counter_value("trace.dropped"), Some(0));
}

#[test]
fn metrics_cover_every_plane() {
    let r = quick(
        TestbedConfig {
            seed: 21,
            ..one_ap(4, true)
        },
        2,
    );
    let m = &r.metrics;
    // sim kernel
    assert!(m.counter_value("sim.queue.scheduled").unwrap() > 0);
    assert!(m.counter_value("sim.queue.popped").unwrap() > 0);
    // MAC
    assert!(m.counter_value("mac.ampdu.frames").unwrap() > 0);
    assert!(m.counter_value("mac.ap0.backoff.draws").unwrap() > 0);
    let h = m.histogram_value("mac.ampdu.size").unwrap();
    assert!(h.total > 0 && h.nan_count == 0);
    // TCP + FastACK
    assert!(m.counter_value("tcp.retransmits").is_some());
    assert!(m.gauge_value("tcp.cwnd_segments").is_some());
    assert!(m.counter_value("fastack.ap0.fast_acks_sent").unwrap() > 0);
    // Sim-time profiler: AP TXOPs dominate a downlink-heavy run and
    // total attributed airtime matches the utilization accounting.
    let ap = m.span_value("air.ap_txop").unwrap();
    assert!(ap.calls > 0 && ap.time > sim::SimDuration::ZERO);
    let spans = [
        "air.ap_txop",
        "air.client_txop",
        "air.beacon",
        "air.collision",
        "air.interferer",
    ];
    let attributed: u64 = spans
        .iter()
        .filter_map(|s| m.span_value(s))
        .map(|s| s.time.as_nanos())
        .sum();
    let busy_ns = (r.medium_utilization * r.duration_s * 1e9) as u64;
    let diff = attributed.abs_diff(busy_ns);
    assert!(diff < busy_ns / 100, "spans {attributed} vs busy {busy_ns}");
}

#[test]
fn clean_run_raises_no_alerts() {
    // The default rule catalog over a fault-free run must stay
    // silent — the central false-positive guarantee.
    let r = quick(
        TestbedConfig {
            seed: 42,
            ..one_ap(6, true)
        },
        4,
    );
    assert!(r.health.steps > 10, "sampler never ran: {}", r.health.steps);
    assert!(r.health.alerts.is_empty(), "{:#?}", r.health.alerts);
}

/// The testbed's catalog, row by row: per AP the standard detectors
/// (FastACK's stall rule on its arm only), then the shared TCP and
/// airtime rules, then QoE per AP while probing. Most of these rules
/// raise in no golden run, so this is what sees one go missing.
#[test]
fn health_catalog_builds_every_rule_once_per_scope() {
    let cfg = TestbedConfig {
        n_aps: 2,
        fastack: vec![true, false],
        qoe: Some(qoe::ProbeConfig::default()),
        ..TestbedConfig::default()
    };
    let rows: Vec<_> = super::taps::health_catalog(&cfg)
        .iter()
        .map(|d| (d.rule(), d.component().to_string()))
        .collect();
    let want = [
        ("ampdu-collapse", "ap0"),
        ("fastack-stall", "ap0"),
        ("queue-starvation", "ap0"),
        ("ampdu-collapse", "ap1"),
        ("queue-starvation", "ap1"),
        ("rto-storm", "tcp"),
        ("airtime-slo", "air"),
        ("qoe-degraded", "ap0"),
        ("qoe-degraded", "ap1"),
    ];
    assert_eq!(rows, want.map(|(rule, c)| (rule, c.to_string())));
}

#[test]
fn health_rules_none_disables_the_engine() {
    let r = quick(
        TestbedConfig {
            health: false,
            ..one_ap(2, true)
        },
        1,
    );
    assert_eq!(r.health.steps, 0);
    assert!(r.health.alerts.is_empty());
}

#[test]
fn interferer_fault_raises_ampdu_collapse_with_causal_chain() {
    // The acceptance scenario: a non-WiFi interferer switches on
    // mid-run, aggregates collapse, the detector raises, and the
    // alert's cause id resolves to a complete cross-layer chain.
    let cfg = TestbedConfig {
        seed: 42,
        interferer: Some(InterfererFault::default()),
        ..one_ap(6, true)
    };
    let r = Testbed::new(cfg.clone()).run(SimDuration::from_secs(5));
    let collapse: Vec<_> = r
        .health
        .alerts
        .iter()
        .filter(|a| a.rule == "ampdu-collapse")
        .collect();
    assert!(!collapse.is_empty(), "alerts: {:#?}", r.health.alerts);
    let alert = collapse[0];
    assert!(alert.raised_at >= InterfererFault::default().at);
    let flow = alert.cause_flow().expect("cause id resolved");
    let chain = r.flight.chain(flow);
    for layer in ["tcp-seg", "ampdu-build", "mac-tx", "block-ack"] {
        assert!(
            chain.iter().any(|(_, ev)| ev.record().layer() == layer),
            "chain for flow {flow} is missing {layer}"
        );
    }
    // The interferer's airtime is itself on the record.
    assert!(r
        .flight
        .components
        .iter()
        .any(|c| c.records.iter().any(|ev| matches!(
            ev.record(),
            TraceRecord::AirtimeSpan {
                kind: AirKind::Interferer,
                ..
            }
        ))));
    // And the health verdict is part of the determinism contract.
    let again = Testbed::new(cfg).run(SimDuration::from_secs(5));
    assert_eq!(r.health.to_json(), again.health.to_json());
}

#[test]
fn qoe_probes_flow_and_score_on_a_clean_run() {
    let cfg = TestbedConfig {
        seed: 42,
        qoe: Some(qoe::ProbeConfig::default()),
        ..one_ap(4, true)
    };
    let r = Testbed::new(cfg).run(SimDuration::from_secs(4));
    assert_eq!(r.qoe.len(), 4);
    for cr in &r.qoe {
        assert!(cr.sent > 100, "client {} sent {}", cr.client, cr.sent);
        assert!(
            cr.delivered as f64 >= cr.sent as f64 * 0.5,
            "client {}: {}/{} delivered",
            cr.client,
            cr.delivered,
            cr.sent
        );
    }
    // No interferer: nobody should look degraded.
    assert!(
        !r.health.alerts.iter().any(|a| a.rule == "qoe-degraded"),
        "clean run raised: {:#?}",
        r.health.alerts
    );
    // Probe counters land in the metrics namespace.
    assert!(r.metrics.counter_value("qoe.client0.sent").unwrap_or(0) > 100);
    assert!(r.metrics.counter_value("qoe.client0.score_x100").is_some());
}

/// Every probe a client sent is delivered, lost or still outstanding:
/// nothing settles the probes in flight when a run ends, so `sent`
/// exceeds `delivered + lost` by exactly the collector's outstanding
/// count. The lossy shape under the interferer loses some to the MAC
/// retry limit.
#[test]
fn probe_counts_add_up_per_client() {
    let cfg = TestbedConfig {
        qoe: Some(qoe::ProbeConfig::default()),
        interferer: Some(InterfererFault {
            at: SimTime::from_millis(1_000),
        }),
        ..TestbedConfig::lossy(true)
    };
    let mut tb = Testbed::new(cfg);
    tb.world.run_until(SimTime::from_secs(3), &mut tb.taps);
    let qoe = &tb.taps.qoe;
    assert_eq!(qoe.len(), 3);
    for (c, q) in qoe.iter().enumerate() {
        assert!(q.sent > 100, "client {c} sent {}", q.sent);
        let settled = q.delivered + q.lost;
        assert_eq!(q.sent, settled + q.outstanding(), "client {c}");
    }
    assert!(qoe.iter().any(|q| q.lost > 0), "no probe was lost");
}

#[test]
fn qoe_degrades_under_interference_with_probe_causal_chain() {
    // The QoE acceptance scenario: the interferer switches on
    // mid-run, probe delay/loss blow up, the worst client's score
    // collapses, and the alert's cause resolves to the probe flow's
    // own records.
    let cfg = TestbedConfig {
        seed: 42,
        interferer: Some(InterfererFault::default()),
        qoe: Some(qoe::ProbeConfig::default()),
        ..one_ap(6, true)
    };
    let r = Testbed::new(cfg.clone()).run(SimDuration::from_secs(5));
    let degraded: Vec<_> = r
        .health
        .alerts
        .iter()
        .filter(|a| a.rule == "qoe-degraded")
        .collect();
    assert!(!degraded.is_empty(), "alerts: {:#?}", r.health.alerts);
    let alert = degraded[0];
    assert!(alert.raised_at >= InterfererFault::default().at);
    let flow = alert.cause_flow().expect("cause id resolved");
    assert!(
        qoe::is_probe_flow(flow),
        "cause flow {flow:#x} is not a probe flow"
    );
    let chain = r.flight.chain(flow);
    for layer in ["qoe-probe", "mac-tx"] {
        assert!(
            chain.iter().any(|(_, ev)| ev.record().layer() == layer),
            "chain for probe flow {flow:#x} is missing {layer}"
        );
    }
    // The victim's report shows the damage the alert claims.
    let victim = qoe::probe_client(flow).expect("probe flow maps back");
    let score = r.qoe[victim].score();
    assert!(score <= 60.0, "victim score {score} not degraded");

    // Determinism: the whole QoE pipeline is part of the contract.
    let again = Testbed::new(cfg).run(SimDuration::from_secs(5));
    assert_eq!(r.health.to_json(), again.health.to_json());
    assert_eq!(r.metrics.to_json(), again.metrics.to_json());
    assert_eq!(r.flight.to_bytes(), again.flight.to_bytes());
    assert_eq!(r.qoe, again.qoe);
}
