//! The recording half of the testbed: every sink that only observes a
//! run — metrics registry, flight recorder, health engine, timeline,
//! QoE collectors, the TCP-latency ledger and the report's latency
//! logs — behind one borrowed [`Seam`] and one entry point,
//! [`Taps::on`].
//!
//! Trajectory-neutrality is a property of the types: `Taps` holds no
//! random stream and no event queue, `on` returns `()`, and it sees the
//! protocol world only as `&World`. Adding or removing a sink edits
//! this file and nothing else.

use super::cadence::Cadence;
use super::config::TestbedConfig;
use super::report::{LatencyLog, TestbedReport};
use super::world::World;
use fastack::Action;
use mac80211::aggregation::Ampdu;
use sim::{SimDuration, SimTime};
use tcpsim::{AckSegment, FlowId, SeqWindow};
use telemetry::health::{
    standard_ap_detectors, AirtimeSlo, Detector, HealthRules, QoeDegraded, RtoStorm,
};
use telemetry::{
    AirKind, CauseId, CounterId, FlightRecorder, GaugeId, HealthEngine, HistId, Registry, RingId,
    SpanId, StagedId, Timeline, TraceRecord,
};

/// One thing the protocol world did, as the sinks see it. Every variant
/// is stamped with the `now` passed to [`Taps::on`].
pub(super) enum Seam<'a> {
    /// The medium was held for `dur`, ending now.
    Air {
        kind: AirKind,
        dur: SimDuration,
        cause: CauseId,
    },
    /// An agent verdict about to be applied (`fastack`: that AP's arm).
    Action { act: &'a Action, fastack: bool },
    /// A data segment ending at offset `end` was queued toward its
    /// client: its TCP-latency clock starts.
    Forwarded { flow: FlowId, end: u64 },
    /// A client's TCP ACK reached its AP (stops the clocks it covers).
    ClientAck(&'a AckSegment),
    /// AP `ap` assembled an aggregate for `flow`.
    Ampdu {
        ap: usize,
        flow: FlowId,
        ampdu: &'a Ampdu,
    },
    /// The MAC's verdict on one MPDU in the air, first queued at `enq`.
    /// A delivered probe (`id` says which are) is scored here.
    Mpdu {
        id: u64,
        enq: SimTime,
        delivered: bool,
    },
    /// The BlockAck closing `ampdu`: `acked` of its MPDUs got through.
    BlockAck {
        flow: FlowId,
        ampdu: &'a Ampdu,
        acked: usize,
    },
    /// Probe `seq` was queued toward `client`.
    ProbeSent { client: usize, seq: u64 },
    /// A queued probe was dropped at the MAC retry limit.
    ProbeLost { client: usize, seq: u64 },
    /// Top of a medium round: the health engine samples here.
    BeforeRound(&'a World),
    /// Bottom of a round or idle wake: the timeline samples here.
    AfterRound(&'a World),
}

/// Per-AP metric handles.
struct ApHandles {
    aggregates: CounterId,
    frames: CounterId,
    inflight: GaugeId,
    fast_acks: GaugeId,
    backlog: GaugeId,
}

/// The flight rings the seams record into, one per component, resolved
/// once so that an emit looks nothing up.
struct Rings {
    air: RingId,
    ampdu: RingId,
    back: RingId,
    tx: RingId,
    wire: RingId,
    retx: RingId,
    synth: RingId,
    ack: RingId,
    qoe_tx: RingId,
    qoe_rx: RingId,
}

impl Rings {
    fn new(flight: &FlightRecorder) -> Rings {
        Rings {
            air: flight.ring("air"),
            ampdu: flight.ring("mac.ampdu"),
            back: flight.ring("mac.back"),
            tx: flight.ring("mac.tx"),
            wire: flight.ring("tcp.wire"),
            retx: flight.ring("fastack.retx"),
            synth: flight.ring("fastack.synth"),
            ack: flight.ring("tcp.ack"),
            qoe_tx: flight.ring("qoe.tx"),
            qoe_rx: flight.ring("qoe.rx"),
        }
    }
}

pub(super) struct Taps {
    /// Handles below are registered once in `new`; the registry itself
    /// moves into the report at `finish`.
    metrics: Registry,
    flight: FlightRecorder,
    rings: Rings,
    /// Detector engine and its sampling clock (None when health is off).
    health: Option<(Cadence, HealthEngine)>,
    /// Time-series sampler, its clock, and the per-flow handles of the
    /// staged `tcp.flow{c}.cwnd_segments` series.
    timeline: Option<(Cadence, Timeline, Vec<StagedId>)>,
    /// Per-client QoE collectors (empty when probing is disabled).
    qoe: Vec<qoe::ClientQoe>,
    /// Data-segment forward times at the AP for TCP-latency accounting,
    /// one window per flow (index `flow.0 - 1`) of end-offset → forward
    /// time. New data extends the tail; a cumulative client ACK drains
    /// every entry at or below it from the front; a retransmission
    /// (rare) lands mid-window, first write wins.
    tcp_lat_pending: Vec<SeqWindow<SimTime>>,
    mac_latencies: LatencyLog,
    tcp_latencies: LatencyLog,
    sp_ap_txop: SpanId,
    sp_client_txop: SpanId,
    sp_beacon: SpanId,
    sp_collision: SpanId,
    sp_interferer: SpanId,
    h_ampdu: HistId,
    h_cwnd: HistId,
    c_aggregates: CounterId,
    c_frames: CounterId,
    c_collisions: CounterId,
    /// Per-AP A-MPDU counters (the ampdu-collapse detector's input) and
    /// health sampling gauges, refreshed on every health tick.
    ap: Vec<ApHandles>,
    g_busy: GaugeId,
    g_timeouts: GaugeId,
    /// Per-client QoE score gauges (registered only when probing is on;
    /// the `QoeDegraded` detector reads these paths).
    g_qoe_score: Vec<GaugeId>,
}

fn gauge_level(v: u64) -> i64 {
    i64::try_from(v).unwrap_or(i64::MAX)
}

impl Taps {
    pub(super) fn new(cfg: &TestbedConfig) -> Taps {
        let n_clients = cfg.n_aps * cfg.clients_per_ap;
        let mut metrics = Registry::new();
        // A-MPDU sizes are bounded by the 64-frame BlockAck window;
        // cwnd by the 770-segment OS cap (clamped into the last bin).
        let h_ampdu = metrics.histogram("mac.ampdu.size", 0.0, 64.0, 64);
        let h_cwnd = metrics.histogram("tcp.cwnd_segments", 0.0, 1024.0, 32);
        let ap = (0..cfg.n_aps)
            .map(|a| ApHandles {
                aggregates: metrics.counter(&format!("mac.ap{a}.ampdu.aggregates")),
                frames: metrics.counter(&format!("mac.ap{a}.ampdu.frames")),
                inflight: metrics.gauge(&format!("health.ap{a}.inflight")),
                fast_acks: metrics.gauge(&format!("health.ap{a}.fast_acks")),
                backlog: metrics.gauge(&format!("health.ap{a}.backlog")),
            })
            .collect();
        // QoE state exists only when probing is configured, so a
        // probe-free run's registry (and its JSON) is untouched.
        let (qoe, g_qoe_score) = match &cfg.qoe {
            Some(p) => (0..n_clients)
                .map(|c| {
                    let g = metrics.gauge(&format!("qoe.client{c}.score"));
                    (qoe::ClientQoe::new(p), g)
                })
                .unzip(),
            None => (Vec::new(), Vec::new()),
        };
        let flight = FlightRecorder::new(cfg.flight_capacity);
        if let Some(path) = &cfg.flight_dump_on_violation {
            telemetry::flight::install_violation_dump(&flight, path.clone());
        }
        let timeline = cfg.timeline.as_ref().map(|tc| {
            let mut tl = Timeline::new(tc);
            let cwnd = (0..n_clients)
                .map(|c| tl.stage_f64(&format!("tcp.flow{c}.cwnd_segments")))
                .collect();
            (Cadence::new(SimTime::ZERO, tl.every()), tl, cwnd)
        });
        Taps {
            sp_ap_txop: metrics.span("air.ap_txop"),
            sp_client_txop: metrics.span("air.client_txop"),
            sp_beacon: metrics.span("air.beacon"),
            sp_collision: metrics.span("air.collision"),
            sp_interferer: metrics.span("air.interferer"),
            h_ampdu,
            h_cwnd,
            c_aggregates: metrics.counter("mac.ampdu.aggregates"),
            c_frames: metrics.counter("mac.ampdu.frames"),
            c_collisions: metrics.counter("mac.collisions"),
            ap,
            g_busy: metrics.gauge("health.air.busy_ns"),
            g_timeouts: metrics.gauge("health.tcp.timeouts"),
            g_qoe_score,
            metrics,
            rings: Rings::new(&flight),
            flight,
            health: health_engine(cfg),
            timeline,
            qoe,
            tcp_lat_pending: vec![SeqWindow::new(); n_clients],
            mac_latencies: LatencyLog::default(),
            tcp_latencies: LatencyLog::default(),
        }
    }

    /// The one entry point: record `seam`, which happened at `now`.
    /// Always inlined, so a call site compiles to its own arm and the
    /// `match` costs nothing at run time.
    #[inline(always)]
    pub(super) fn on(&mut self, now: SimTime, seam: Seam<'_>) {
        match seam {
            Seam::Air { kind, dur, cause } => self.air(now, kind, dur, cause),
            Seam::Action { act, fastack } => self.action(now, act, fastack),
            Seam::Forwarded { flow, end } => {
                // First write wins: a retransmission of a segment still
                // pending does not restart its clock.
                self.tcp_lat_pending[(flow.0 - 1) as usize].get_or_insert(end, now);
            }
            Seam::ClientAck(ack) => {
                // The cumulative ACK covers every pending segment at or
                // below it: pop the flow's window from the front.
                let lat = &mut self.tcp_lat_pending[(ack.flow.0 - 1) as usize];
                while let Some(&(end, t0)) = lat.front() {
                    if end > ack.ack {
                        break;
                    }
                    lat.pop_front();
                    self.tcp_latencies.push(now.saturating_since(t0));
                }
            }
            Seam::Ampdu { ap, flow, ampdu } => {
                let rec = ampdu.flight_record(flow.0);
                self.flight.emit(self.rings.ampdu, now, ampdu.cause(), rec);
                let frames = ampdu.size();
                self.metrics.inc(self.c_aggregates);
                self.metrics.add(self.c_frames, frames as u64);
                self.metrics.inc(self.ap[ap].aggregates);
                self.metrics.add(self.ap[ap].frames, frames as u64);
                self.metrics.observe(self.h_ampdu, frames as f64);
            }
            Seam::Mpdu { id, enq, delivered } => self.mpdu(now, id, enq, delivered),
            Seam::BlockAck { flow, ampdu, acked } => {
                let rec = TraceRecord::BlockAck {
                    flow: flow.0,
                    acked: u32::try_from(acked).expect("BlockAck window"),
                    lost: u32::try_from(ampdu.size() - acked).expect("BlockAck window"),
                };
                self.flight.emit(self.rings.back, now, ampdu.cause(), rec);
            }
            Seam::ProbeSent { client, seq } => {
                // The world numbers probes by tick, the collector by
                // its own `on_sent` calls: one per client per tick.
                let counted = self.qoe[client].on_sent(now);
                debug_assert_eq!(counted, seq, "probe sequence out of step");
                let flow = qoe::probe_flow(client);
                let rec = TraceRecord::QoeProbe {
                    flow,
                    seq,
                    delay_ns: 0,
                };
                let cause = telemetry::cause_for(flow, seq);
                self.flight.emit(self.rings.qoe_tx, now, cause, rec);
            }
            // Dropped probes are terminal: the collector scores them lost.
            Seam::ProbeLost { client, seq } => self.qoe[client].on_lost(seq),
            Seam::BeforeRound(world) => {
                while let Some(at) = self.health.as_mut().and_then(|(c, _)| c.fire(now)) {
                    self.health_sample(at, world);
                }
            }
            Seam::AfterRound(world) => {
                while let Some(at) = self.timeline.as_mut().and_then(|(c, ..)| c.fire(now)) {
                    self.timeline_tick(at, world);
                }
            }
        }
    }

    /// Airtime accounting: the sim-time span the hold covered, the
    /// collision count, and the one `AirtimeSpan` record.
    fn air(&mut self, now: SimTime, kind: AirKind, dur: SimDuration, cause: CauseId) {
        let span = match kind {
            AirKind::ApTxop => self.sp_ap_txop,
            AirKind::ClientTxop => self.sp_client_txop,
            AirKind::Beacon => self.sp_beacon,
            AirKind::Interferer => self.sp_interferer,
            AirKind::Collision => {
                self.metrics.inc(self.c_collisions);
                self.sp_collision
            }
        };
        self.metrics.record(span, dur);
        let rec = TraceRecord::AirtimeSpan { kind, dur };
        self.flight.emit(self.rings.air, now, cause, rec);
    }

    /// Record a FastACK agent action into the flight rings. The record
    /// and causal id come from the action itself
    /// ([`Action::flight_record`]); this only picks the ring: forwards
    /// are the wired plane, local retransmissions and synthesized ACKs
    /// are FastACK's doing, pass-through client ACKs are plain TCP.
    fn action(&mut self, now: SimTime, act: &Action, fastack: bool) {
        let ring = match act {
            Action::Forward { .. } => self.rings.wire,
            Action::LocalRetransmit(_) => self.rings.retx,
            Action::SendAckUpstream(_) if fastack => self.rings.synth,
            Action::SendAckUpstream(_) => self.rings.ack,
            Action::DropData(_) | Action::SuppressClientAck(_) => return,
        };
        if let Some((cause, rec)) = act.flight_record(fastack) {
            self.flight.emit(ring, now, cause, rec);
        }
    }

    /// One MPDU's delivery report: the MAC tx record; then, if it got
    /// through, the probe's one-way delay to its collector (and the
    /// receive side of the probe chain) or an 802.11 latency sample —
    /// the figure samples measure the bulk workload, not probes.
    fn mpdu(&mut self, now: SimTime, id: u64, enq: SimTime, delivered: bool) {
        let cause = CauseId(id);
        // Probe MPDUs carry their own flow id in the packed MPDU id; for
        // TCP (and UDP) MPDUs the hint is the flow itself.
        let (flow, seq) = (cause.flow_hint(), cause.seq_hint());
        let rec = TraceRecord::MacTx {
            flow,
            seq,
            delivered,
        };
        self.flight.emit(self.rings.tx, now, cause, rec);
        if !delivered {
            return;
        }
        let delay = now.saturating_since(enq);
        match qoe::probe_client(flow) {
            Some(client) => {
                if self.qoe[client].on_delivered(seq, now).is_some() {
                    let rec = TraceRecord::QoeProbe {
                        flow,
                        seq,
                        delay_ns: delay.as_nanos(),
                    };
                    self.flight.emit(self.rings.qoe_rx, now, cause, rec);
                }
            }
            None => self.mac_latencies.push(delay),
        }
    }

    /// One health tick: refresh the sampling gauges from live state,
    /// then step every detector over the registry.
    fn health_sample(&mut self, at: SimTime, w: &World) {
        let nc = w.cfg.clients_per_ap;
        let senders = &w.wired.senders;
        for (a, (ap, h)) in w.aps.iter().zip(&self.ap).enumerate() {
            self.metrics
                .gauge_set(h.backlog, gauge_level(ap.queued() as u64));
            self.metrics
                .gauge_set(h.fast_acks, gauge_level(ap.agent.stats.fast_acks_sent));
            let inflight = senders[a * nc..(a + 1) * nc]
                .iter()
                .map(|s| s.flight_size())
                .sum();
            self.metrics.gauge_set(h.inflight, gauge_level(inflight));
        }
        let timeouts = senders.iter().map(|s| s.timeout_count).sum();
        self.metrics
            .gauge_set(self.g_timeouts, gauge_level(timeouts));
        self.metrics
            .gauge_set(self.g_busy, gauge_level(w.medium.busy.as_nanos()));
        for (q, &g) in self.qoe.iter().zip(&self.g_qoe_score) {
            let score = q.score(qoe::OPERATIONAL_WINDOW);
            self.metrics.gauge_set(g, score.round() as i64);
        }
        if let Some((_, eng)) = self.health.as_mut() {
            eng.step(at, &self.metrics);
        }
    }

    /// One timeline tick at its nominal instant: stage the per-flow
    /// cwnd f64 series (Fig. 14's curves), then snapshot the registry's
    /// counters and gauges. Not folded into the idle wake: samples
    /// land when the loop is awake anyway, stamped nominally.
    fn timeline_tick(&mut self, at: SimTime, w: &World) {
        let (_, tl, cwnd) = self.timeline.as_mut().expect("timeline enabled");
        for (&id, s) in cwnd.iter().zip(&w.wired.senders) {
            tl.set(id, s.cwnd_segments());
        }
        tl.sample(at, &self.metrics);
    }

    /// Close every sink over the finished world and assemble the report.
    pub(super) fn finish(mut self, w: &World, end: SimTime) -> TestbedReport {
        let mut report = w.summarize(end);
        report.mac_latencies = std::mem::take(&mut self.mac_latencies);
        report.tcp_latencies = std::mem::take(&mut self.tcp_latencies);
        // The flight rings move into the report (nothing records after
        // this); wraparound losses become visible in the registry as
        // `trace.dropped`.
        self.metrics
            .count("trace.dropped", self.flight.total_dropped());
        report.flight = self.flight.take();
        // Health verdict: resolve every alert's causal id against the
        // flight dump (and drop alerts the dump refutes).
        if let Some((_, eng)) = self.health.take() {
            report.health = eng.finish(&report.flight);
            self.metrics
                .count("health.alerts", report.health.alerts.len() as u64);
        }
        self.export_world(w, &report);
        // QoE snapshot: per-client probe counters plus the operational
        // score (x100 so the integer counter keeps two decimals), and
        // the full windowed reports on the report struct.
        for (c, q) in self.qoe.iter().enumerate() {
            let score = q.score(qoe::OPERATIONAL_WINDOW);
            for (name, v) in [
                ("sent", q.sent),
                ("delivered", q.delivered),
                ("lost", q.lost),
                ("reordered", q.reordered),
                ("score_x100", (score * 100.0).round() as u64),
            ] {
                self.metrics.count(&format!("qoe.client{c}.{name}"), v);
            }
            report.qoe.push(qoe::ClientReport::from_qoe(c, q));
        }
        // Seal the timeline (flush in-progress downsample buckets) so
        // the report's dump is complete and round-trips byte-stably.
        report.timeline = self.timeline.take().map(|(_, mut tl, _)| {
            tl.seal();
            tl
        });
        report.metrics = self.metrics;
        report
    }

    /// Snapshot every subsystem's own counters into the registry.
    fn export_world(&mut self, w: &World, report: &TestbedReport) {
        let qs = w.queue.stats();
        self.metrics.count("sim.queue.scheduled", qs.scheduled);
        self.metrics.count("sim.queue.popped", qs.popped);
        // The queue cannot cancel; the path stays because the pinned
        // metrics snapshots carry it.
        self.metrics.count("sim.queue.cancelled", 0);
        // Capacity-sizing gauge: the deepest the pending set got, a
        // deterministic function of the trajectory, so it lives in the
        // metrics snapshot proper; runprof mirrors it (with the
        // flight-ring occupancy) into its sidecar. `arena_peak` is the
        // same number under the name the pinned snapshots carry: the
        // payload arena it sized only ever grew to the pending depth.
        for path in ["sim.queue.arena_peak", "sim.queue.depth_peak"] {
            let g = self.metrics.gauge(path);
            self.metrics.gauge_set(g, gauge_level(qs.depth_peak));
        }
        telemetry::runprof::watermark("sim.queue.depth_peak", qs.depth_peak);
        telemetry::runprof::watermark("flight.ring.records", report.flight.total_records() as u64);
        telemetry::runprof::watermark("flight.ring.dropped", report.flight.total_dropped());
        for (a, ap) in w.aps.iter().enumerate() {
            ap.backoff
                .stats
                .export_metrics(&mut self.metrics, &format!("mac.ap{a}.backoff"));
            ap.agent
                .stats
                .export_metrics(&mut self.metrics, &format!("fastack.ap{a}"));
        }
        for c in &w.clients {
            // One shared prefix: client queues sum into fleet-level
            // totals instead of exploding the path space per station.
            c.backoff
                .stats
                .export_metrics(&mut self.metrics, "mac.clients.backoff");
        }
        for s in &w.wired.senders {
            s.export_metrics(&mut self.metrics, "tcp");
            self.metrics.observe(self.h_cwnd, s.cwnd_segments());
        }
    }
}

/// How often the health engine steps: the testbed's collection epoch.
const HEALTH_EVERY: SimDuration = SimDuration::from_millis(250);

/// The health engine over [`health_catalog`] on its sampling clock;
/// `None` when health is off.
fn health_engine(cfg: &TestbedConfig) -> Option<(Cadence, HealthEngine)> {
    cfg.health.then(|| {
        let mut eng = HealthEngine::new();
        health_catalog(cfg).into_iter().for_each(|d| eng.add(d));
        (Cadence::new(SimTime::ZERO, HEALTH_EVERY), eng)
    })
}

/// The standard rule catalog, scoped per AP (each watches only the flows
/// terminating there) plus the shared TCP and airtime detectors over the
/// whole collision domain.
pub(super) fn health_catalog(cfg: &TestbedConfig) -> Vec<Box<dyn Detector>> {
    let rules = HealthRules::default();
    let nc = cfg.clients_per_ap;
    let mut out = Vec::new();
    for a in 0..cfg.n_aps {
        let flows = (0..nc).map(|k| (a * nc + k) as u64 + 1).collect();
        out.extend(standard_ap_detectors(a, flows, cfg.fastack[a], &rules));
    }
    if let Some(r) = rules.rto_storm {
        let all_flows = (1..=(cfg.n_aps * nc) as u64).collect();
        let d = RtoStorm::new("tcp", "health.tcp.timeouts", all_flows, r);
        out.push(Box::new(d));
    }
    if let Some(r) = rules.airtime_slo {
        out.push(Box::new(AirtimeSlo::new("air", "health.air.busy_ns", r)));
    }
    // QoE degradation watches each AP's clients' score gauges; like the
    // gauges themselves it exists only when probing is configured.
    if cfg.qoe.is_some() {
        for a in 0..cfg.n_aps {
            let watch = (a * nc..(a + 1) * nc)
                .map(|c| (format!("qoe.client{c}.score"), qoe::probe_flow(c)))
                .collect();
            out.push(Box::new(QoeDegraded::new(format!("ap{a}"), watch)));
        }
    }
    out
}
