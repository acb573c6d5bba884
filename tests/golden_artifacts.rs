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

mod common;

use bench::arms::{self, Arm};
use bench::harness::Experiment;
use common::{check_goldens, fnv1a};
use std::fmt::Write as _;
use wifi_core::mac::ac::AccessCategory;
use wifi_core::mac::medium::{LinkParams, MediumSim};
use wifi_core::netsim::testbed::{InterfererFault, Testbed, TestbedConfig, TestbedReport};
use wifi_core::qoe::{ClientReport, DimSummary, ProbeConfig};
use wifi_core::sim::{EventQueue, Rng, SimDuration, SimTime};
use wifi_core::telemetry::codec::Fnv1a;
use wifi_core::telemetry::{Agg, Timeline, TimelineConfig};

/// Run `arms` the way the `fig` binary does under `--timeline x
/// --runprof y` and pin all four artifacts as `<fig>.<artifact>`, with
/// `queries` also what the merged timeline answers.
fn pin<const N: usize>(fig: &str, arms: [Arm; N], queries: bool) {
    let argv = [fig, "--timeline", "unwritten", "--runprof", "unwritten"].map(str::to_owned);
    let mut exp = Experiment::parse(fig, "golden pin", &argv).unwrap();
    exp.run_arms(arms);
    let mut entries: Vec<(String, u64)> = exp
        .artifacts()
        .iter()
        .map(|(name, bytes)| (format!("{fig}.{name}"), fnv1a(bytes)))
        .collect();
    if queries {
        let h = queries_hash(&exp.timeline);
        entries.push((format!("{fig}.timeline.queries"), h));
    }
    check_goldens(fig, &entries);
}

/// The `TSL1` hashes pin what a timeline *writes*; this pins what it
/// *answers*: a canonical text (values as bit patterns) of the header
/// accessors and, per series, `kind` / `series_len` / `last`,
/// `range_bits` over everything and over a window that starts and ends
/// off the grid, `downsample` for every `Agg` at a bucket that is not a
/// multiple of the cadence, and every tier's shape and rows — asked of
/// `tl`, of its dump parsed back, and of that dump absorbed into an
/// empty timeline under a label.
fn queries_hash(tl: &Timeline) -> u64 {
    struct Text(Fnv1a);
    impl std::fmt::Write for Text {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0.write(s.as_bytes());
            Ok(())
        }
    }
    let parsed = Timeline::parse(&tl.to_bytes()).expect("own dump parses");
    let mut absorbed = Timeline::default();
    absorbed.absorb("arm", &parsed);
    let mut h = Text(Fnv1a::new());
    for tl in [tl, &parsed, &absorbed] {
        let every = tl.every().as_nanos();
        let first = tl.first_stamp().expect("ticks").as_nanos();
        let last = tl.last_stamp().expect("ticks").as_nanos();
        let _ = writeln!(h, "{every} {} {} {first} {last}", tl.ticks(), tl.dropped());
        let lo = SimTime::from_nanos(first + every * 7 / 3);
        let hi = SimTime::from_nanos(last - every * 5 / 3);
        let bucket = SimDuration::from_nanos(every * 7 / 2);
        for name in tl.series_names() {
            let kind = tl.kind(name).expect("listed").label();
            let last = tl.last(name).map(f64::to_bits);
            let _ = writeln!(h, "{name} {kind} {} {last:x?}", tl.series_len(name));
            for (from, to) in [(SimTime::ZERO, SimTime::MAX), (lo, hi)] {
                for (at, kind, bits) in tl.range_bits(name, from, to) {
                    let _ = writeln!(h, "{} {} {bits:x}", at.as_nanos(), kind.label());
                }
            }
            for agg in [
                Agg::Mean,
                Agg::Max,
                Agg::Min,
                Agg::Sum,
                Agg::Count,
                Agg::Last,
            ] {
                for (at, v) in tl.downsample(name, lo, hi, bucket, agg) {
                    let _ = writeln!(h, "{} {} {:x}", agg.label(), at.as_nanos(), v.to_bits());
                }
            }
        }
        for t in tl.tiers() {
            let (bucket, agg) = (t.bucket().as_nanos(), t.agg().expect("a tier").label());
            let _ = writeln!(h, "tier {bucket} {agg} {} {}", t.rows(), t.dropped_rows());
            for name in tl.series_names() {
                for (at, v) in t.series(name) {
                    let _ = writeln!(h, "{name} {} {:x}", at.as_nanos(), v.to_bits());
                }
            }
        }
    }
    h.0.finish()
}

/// `fig14_cwnd`'s two runs: the always-on 250 ms sampler that feeds the
/// figure's cwnd curves.
#[test]
fn fig14_artifacts_match_goldens() {
    pin("fig14", arms::fig14(), false);
}

/// `fig15_aggregation`'s three runs (TCP baseline, FastACK, UDP bound):
/// 8 s / 8 s / 4 s, so the merged timeline spans unequal extents and
/// its queries are pinned too.
#[test]
fn fig15_artifacts_match_goldens() {
    pin("fig15", arms::fig15(), true);
}

/// `fig18_multi_ap`'s three runs.
#[test]
fn fig18_artifacts_match_goldens() {
    pin("fig18", arms::fig18(), false);
}

/// `fig19_qoe`'s two runs — the QoE subsystem (probe flows, per-client
/// scoring, the `qoe-degraded` detector) under the byte-identity pin,
/// so probe scheduling or scoring drift fails tier-1 instead of
/// shipping.
#[test]
fn fig19_artifacts_match_goldens() {
    pin("fig19", arms::fig19(), false);
}

/// Every field of every QoE client report, bit for bit.
fn qoe_hash(reports: &[ClientReport]) -> u64 {
    let mut h = Fnv1a::new();
    let dim = |h: &mut Fnv1a, d: Option<DimSummary>| match d {
        None => h.write(&[0]),
        Some(d) => {
            h.write(&[1]);
            for v in [d.min, d.p50, d.p99, d.max] {
                h.write(&v.to_bits().to_le_bytes());
            }
        }
    };
    for r in reports {
        for v in [r.client as u64, r.sent, r.delivered, r.lost, r.reordered] {
            h.write(&v.to_le_bytes());
        }
        for w in &r.windows {
            h.write(&(w.samples as u64).to_le_bytes());
            dim(&mut h, w.delay_ms);
            dim(&mut h, w.jitter_ms);
            for v in [w.loss, w.reorder, w.score] {
                h.write(&v.to_bits().to_le_bytes());
            }
        }
    }
    h.finish()
}

/// The benchmark's `obs_full` shape cut down to debug tier-1 size: the
/// dense FastACK arm with every sink on and each sink past its
/// steady-state edge — the 64k `mac.tx` ring wraps, the 256-tick raw
/// timeline ring and the 32-row first tier evict, both tiers flush,
/// the 1 s QoE windows roll, and the interferer (on at 2 s of 8) trips
/// the health rules. Pins what the sinks write (and what the evicted
/// timeline answers), so reworking how they hold their data cannot
/// move a byte.
#[test]
fn obs_dense_artifacts_match_goldens() {
    let mut timeline = TimelineConfig::sampling(SimDuration::from_millis(10));
    timeline.capacity = 256;
    timeline.tiers[0].capacity = 32;
    let cfg = TestbedConfig {
        flight_capacity: 65_536,
        timeline: Some(timeline),
        qoe: Some(ProbeConfig::default()),
        interferer: Some(InterfererFault::default()),
        ..TestbedConfig::dense(true)
    };
    let r = Testbed::new(cfg).run(SimDuration::from_secs(8));
    let tl = r.timeline.as_ref().expect("timeline enabled");
    assert!(r.flight.total_dropped() > 0, "a flight ring must wrap");
    assert!(tl.dropped() > 0, "the raw timeline ring must evict");
    assert!(tl.tiers().all(|t| t.rows() > 0), "both tiers must flush");
    assert!(tl.tiers().next().is_some_and(|t| t.dropped_rows() > 0));
    assert!(!r.health.alerts.is_empty(), "the interferer must alert");
    let entries = [
        ("metrics", fnv1a(r.metrics.to_json().as_bytes())),
        ("trace", fnv1a(&r.flight.to_bytes())),
        ("health", fnv1a(r.health.to_json().as_bytes())),
        ("timeline", fnv1a(&tl.to_bytes())),
        ("timeline.queries", queries_hash(tl)),
        ("qoe", qoe_hash(&r.qoe)),
        ("latency", latency_hash(&r)),
    ]
    .map(|(name, h)| (format!("obs.dense.{name}"), h));
    check_goldens("obs", &entries);
}

/// Every field of every per-flow sender report, per-AP agent report and
/// per-client byte count, bit for bit.
fn stats_hash(r: &TestbedReport) -> u64 {
    let mut h = Fnv1a::new();
    for s in &r.sender_stats {
        for v in [
            s.acked_bytes,
            s.cwnd_segments.to_bits(),
            s.retransmits,
            s.fast_retransmits,
            s.timeouts,
            s.srtt_ms.to_bits(),
        ] {
            h.write(&v.to_le_bytes());
        }
    }
    for a in &r.agent_stats {
        for v in [
            a.fast_acks_sent,
            a.client_acks_suppressed,
            a.client_acks_forwarded,
            a.local_retransmits,
            a.spurious_drops,
            a.priority_forwards,
            a.holes_detected,
            a.hole_dupacks_sent,
            a.cache_bypasses,
            a.queue_drops,
        ] {
            h.write(&v.to_le_bytes());
        }
    }
    for b in &r.client_bytes {
        h.write(&b.to_le_bytes());
    }
    h.finish()
}

/// Every MAC and TCP latency sample, bit for bit and in order: what the
/// testbed's latency ledger computes.
fn latency_hash(r: &TestbedReport) -> u64 {
    let mut h = Fnv1a::new();
    for v in r.tcp_latencies.iter().chain(r.mac_latencies.iter()) {
        h.write(&v.to_bits().to_le_bytes());
    }
    h.finish()
}

/// The benchmark's `lossy_recovery` shape cut down to debug tier-1
/// size, both arms: 1% upstream loss, 5% bad hints and low SNR put the
/// run on the slow paths of every sequence-keyed container — SACK
/// marking and mid-window retransmits at the sender, `ooo` merges at
/// the receiver, holes, `q_seq` merges, `lookup_range` and cache
/// release at the agent, and the testbed's latency ledger. A third
/// arm, FastACK with a cache too small for the flows' windows, sends
/// segments past the agent's cache, which fills and releases its
/// `uncached` window. Pins what those paths compute, so reworking how
/// the containers hold their data cannot move a byte.
#[test]
fn lossy_artifacts_match_goldens() {
    let mut entries = Vec::new();
    let (mut fast_retx, mut timeouts) = (0, 0);
    for (arm, fastack, cache) in [
        ("base", false, None),
        ("fastack", true, None),
        ("tinycache", true, Some(16 * 1460)),
    ] {
        let cfg = TestbedConfig {
            agent_cache_bytes: cache,
            ..TestbedConfig::lossy(fastack)
        };
        let r = Testbed::new(cfg).run(SimDuration::from_secs(20));
        fast_retx += r
            .sender_stats
            .iter()
            .map(|s| s.fast_retransmits)
            .sum::<u64>();
        timeouts += r.sender_stats.iter().map(|s| s.timeouts).sum::<u64>();
        if fastack {
            assert!(r.agent_stats[0].holes_detected > 0, "no hole opened");
            assert!(r.agent_stats[0].local_retransmits > 0, "no local repair");
        }
        if cache.is_some() {
            assert!(r.agent_stats[0].cache_bypasses > 0, "no cache bypass");
        }
        entries.extend([
            (
                format!("lossy.{arm}.metrics"),
                fnv1a(r.metrics.to_json().as_bytes()),
            ),
            (format!("lossy.{arm}.trace"), fnv1a(&r.flight.to_bytes())),
            (format!("lossy.{arm}.stats"), stats_hash(&r)),
            (format!("lossy.{arm}.latency"), latency_hash(&r)),
        ]);
    }
    assert!(fast_retx > 0, "no fast retransmit");
    assert!(timeouts > 0, "no RTO fired");
    check_goldens("lossy", &entries);
}

/// Every deadline the run loop keeps, firing at once: two APs on
/// opposite arms with four clients each, every client laggy (stall
/// episodes freeze and release contenders), 5% bad hints (repair
/// polls), 2% upstream loss (RTOs and delayed ACKs), QoE probes, an
/// interferer from 1 s and beacons, so rounds and idle wakes alternate.
/// The flight rings never wrap and the timeline samples every 5 ms, so
/// moving one poll instant or one contender moves a pinned byte.
#[test]
fn loop_deadlines_match_goldens() {
    let cfg = TestbedConfig {
        n_aps: 2,
        clients_per_ap: 4,
        fastack: vec![true, false],
        laggy_client_fraction: 1.0,
        bad_hint_rate: 0.05,
        upstream_loss: 0.02,
        flight_capacity: 1 << 20,
        timeline: Some(TimelineConfig::sampling(SimDuration::from_millis(5))),
        qoe: Some(ProbeConfig::default()),
        interferer: Some(InterfererFault {
            at: SimTime::from_millis(1_000),
        }),
        ..TestbedConfig::default()
    };
    let r = Testbed::new(cfg).run(SimDuration::from_secs(5));
    assert_eq!(r.flight.total_dropped(), 0, "every record kept");
    let totals = |f: fn(&wifi_core::netsim::testbed::SenderStats) -> u64| {
        r.sender_stats.iter().map(f).sum::<u64>()
    };
    assert!(totals(|s| s.timeouts) > 0, "no RTO fired");
    assert!(r.agent_stats[0].local_retransmits > 0, "no local repair");
    let tl = r.timeline.as_ref().expect("timeline enabled");
    let entries = [
        ("metrics", fnv1a(r.metrics.to_json().as_bytes())),
        ("trace", fnv1a(&r.flight.to_bytes())),
        ("health", fnv1a(r.health.to_json().as_bytes())),
        ("timeline", fnv1a(&tl.to_bytes())),
        ("qoe", qoe_hash(&r.qoe)),
        ("stats", stats_hash(&r)),
        ("latency", latency_hash(&r)),
    ]
    .map(|(name, h)| (format!("loop.deadlines.{name}"), h));
    check_goldens("loop", &entries);
}

/// `fig04_ac_latency`'s shape cut down to debug tier-1 size: the EDCA
/// medium with all four access categories contending, saturated BK/BE
/// queues (one of each on a link that loses most MPDUs, so the retry
/// limit drops frames) and VI/VO frames released every 20 ms through
/// `advance_to`. Pins every delivery `(queue, id, latency)`, every drop
/// `(queue, id)` and the final clock.
#[test]
fn medium_edca_matches_golden() {
    use AccessCategory::{Background, BestEffort, Video, Voice};
    // (AC, per-MPDU error rate, frames, frame bytes, released every 20 ms)
    let links = [
        (Background, 0.02, 60, 1460, false),
        (Background, 0.85, 60, 1460, false),
        (BestEffort, 0.05, 60, 1460, false),
        (BestEffort, 0.90, 60, 1460, false),
        (BestEffort, 0.0, 60, 1460, false),
        (Video, 0.03, 25, 1000, true),
        (Video, 0.0, 25, 1000, true),
        (Voice, 0.01, 25, 240, true),
        (Voice, 0.0, 25, 240, true),
    ];
    let mut m = MediumSim::new(404);
    let mut due = Vec::new();
    for (k, &(ac, per, frames, bytes, periodic)) in links.iter().enumerate() {
        let mut lp = LinkParams::clean(ac);
        lp.mpdu_error_rate = per;
        let q = m.add_queue(lp);
        for i in 0..frames {
            let id = (q * 100_000 + i) as u64;
            if periodic {
                let at = SimTime::from_micros(5_000 * k as u64 + 20_000 * i as u64);
                due.push((at, q, id, bytes));
            } else {
                m.enqueue(q, id, bytes);
            }
        }
    }
    due.sort_by_key(|&(at, ..)| at);
    let (mut h, mut next, mut drops) = (Fnv1a::new(), 0, 0);
    loop {
        while next < due.len() && m.now() >= due[next].0 {
            let (_, q, id, bytes) = due[next];
            m.enqueue(q, id, bytes);
            next += 1;
        }
        let Some(r) = m.step() else {
            match due.get(next) {
                Some(&(at, ..)) => m.advance_to(at),
                None => break,
            }
            continue;
        };
        for d in &r.deliveries {
            h.write(&[0]);
            for v in [d.queue as u64, d.id, d.latency.as_nanos()] {
                h.write(&v.to_le_bytes());
            }
        }
        for d in &r.drops {
            h.write(&[1]);
            for v in [d.queue as u64, d.id] {
                h.write(&v.to_le_bytes());
            }
        }
        drops += r.drops.len();
    }
    assert!(drops > 0, "the retry limit must drop frames");
    h.write(&m.now().as_nanos().to_le_bytes());
    check_goldens("mac", &[("mac.medium.edca".to_string(), h.finish())]);
}

/// `sim::EventQueue` on seeded schedules that mix every way an entry can
/// arrive and leave: appends at or after the latest `at`, ties with it,
/// inserts behind it (some tying with an entry already queued),
/// `advance_to` past pending events (late fires), and `pop_due` drains
/// beside plain pops. Pins every `(time, payload)` popped.
#[test]
fn event_queue_mixed_schedules_match_golden() {
    let (mut h, mut behind) = (Fnv1a::new(), 0);
    let mut record = |(t, p): (SimTime, u64)| {
        h.write(&t.as_nanos().to_le_bytes());
        h.write(&p.to_le_bytes());
    };
    for seed in [1, 2, 3] {
        let mut rng = Rng::new(seed);
        let mut q = EventQueue::new();
        let (mut back, mut ats) = (SimTime::ZERO, Vec::<SimTime>::new());
        for payload in 0..3_000u64 {
            let now = q.now();
            let at = match rng.below(9) {
                0 | 1 => back.max(now) + SimDuration::from_micros(rng.below(50)),
                2 => back.max(now),
                3 | 4 => {
                    let span = back.saturating_since(now).as_micros();
                    now + SimDuration::from_micros(rng.below(span + 1))
                }
                5 if !ats.is_empty() => ats[rng.below(ats.len() as u64) as usize].max(now),
                6 => {
                    q.advance_to(now + SimDuration::from_micros(rng.below(120)));
                    continue;
                }
                7 => {
                    while let Some(due) = q.pop_due() {
                        record(due);
                    }
                    continue;
                }
                _ => {
                    q.pop().map(&mut record);
                    continue;
                }
            };
            behind += usize::from(at < back);
            back = back.max(at);
            ats.push(at);
            q.schedule(at, payload);
        }
        while let Some(popped) = q.pop() {
            record(popped);
        }
    }
    assert!(
        behind > 1_000,
        "only {behind} schedules landed behind the latest"
    );
    check_goldens("sim", &[("sim.queue.mixed".to_string(), h.finish())]);
}
