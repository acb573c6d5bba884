//! Layer kernels for the packet workloads: the benchmark calling one
//! layer's public functions directly, at the sizes the traced rep
//! observed, to price a unit of that layer's work. Each returns
//! nanoseconds per unit. They run only in a traced run, after the
//! traced rep, inside a span of their own.

use crate::workloads::ns_per_op;
use std::hint::black_box;
use wifi_core::fastack::{Action, Agent, AgentConfig};
use wifi_core::mac::ac::{AccessCategory, EdcaParams};
use wifi_core::mac::aggregation::{build_ampdu, AggLimits, QueuedMpdu};
use wifi_core::mac::backoff::Backoff;
use wifi_core::mac::contention;
use wifi_core::phy::airtime::AirtimeTable;
use wifi_core::phy::channels::Width;
use wifi_core::phy::error_model::PerCache;
use wifi_core::phy::mcs::{GuardInterval, Mcs};
use wifi_core::qoe::{ClientQoe, ProbeConfig, OPERATIONAL_WINDOW};
use wifi_core::sim::{EventQueue, Rng, SimDuration, SimTime};
use wifi_core::tcp::{
    AckSegment, DataSegment, FlowId, ReceiverConfig, SenderConfig, TcpReceiver, TcpSender,
};
use wifi_core::telemetry::health::{standard_ap_detectors, AirtimeSlo, RtoStorm};
use wifi_core::telemetry::{
    cause_for, FlightRecorder, HealthEngine, HealthRules, Registry, Timeline, TimelineConfig,
    TraceRecord,
};

const ROUNDS: usize = 5;
/// Segment size of every TCP flow in the testbed and the kernels.
pub const MSS: u32 = 1460;

/// `EventQueue::schedule` + `pop`, with the queue held at `depth`.
pub fn queue_ns_per_event(depth: usize) -> f64 {
    const N: u64 = 200_000;
    let mut rng = Rng::new(1);
    let mut q = EventQueue::new();
    for i in 0..depth.max(1) as u64 {
        q.schedule(SimTime::from_nanos(rng.below(1_000_000)), i);
    }
    ns_per_op(N, ROUNDS, || {
        for _ in 0..N {
            let (at, v) = q.pop().expect("queue held at depth");
            q.schedule(at + SimDuration::from_nanos(1 + rng.below(1_000_000)), v);
        }
        black_box(q.len());
    })
}

/// `AirtimeTable::ppdu_duration` over a spread of PSDU sizes.
pub fn airtime_ns_per_lookup() -> f64 {
    const N: u64 = 1_000_000;
    let table = AirtimeTable::new(Mcs(7), 2, Width::W80, GuardInterval::Short)
        .expect("MCS 7 x 2SS is valid at 80 MHz");
    ns_per_op(N, ROUNDS, || {
        let mut acc = SimDuration::ZERO;
        for i in 0..N {
            acc += table.ppdu_duration(black_box(1_534 * (1 + (i % 64) as usize)));
        }
        black_box(acc);
    })
}

/// `PerCache::error_rate`, warm, over `distinct_snrs` SNR values (the
/// number of clients: each client link has its own SNR).
pub fn per_ns_per_lookup(distinct_snrs: usize) -> f64 {
    const N: u64 = 1_000_000;
    let mut cache = PerCache::new(Width::W80, 1500);
    let snrs: Vec<f64> = (0..distinct_snrs.max(1))
        .map(|i| 12.0 + 26.0 * i as f64 / distinct_snrs.max(1) as f64)
        .collect();
    ns_per_op(N, ROUNDS, || {
        let mut acc = 0.0;
        for i in 0..N as usize {
            acc += cache.error_rate(snrs[i % snrs.len()], Mcs((i % 10) as u8));
        }
        black_box(acc);
    })
}

/// `build_ampdu` over a queue of `frames` full-size MPDUs.
pub fn build_ampdu_ns_per_aggregate(frames: usize) -> f64 {
    const N: u64 = 20_000;
    let template: Vec<QueuedMpdu> = (0..frames.max(1) as u64)
        .map(|id| QueuedMpdu { id, bytes: 1500 })
        .collect();
    let mut queue = Vec::with_capacity(template.len());
    ns_per_op(N, ROUNDS, || {
        for _ in 0..N {
            queue.clear();
            queue.extend_from_slice(&template);
            black_box(build_ampdu(
                &mut queue,
                Mcs(9),
                3,
                Width::W80,
                GuardInterval::Short,
                AggLimits::default(),
            ));
        }
    })
}

/// `contention::resolve` among `stations` saturated queues.
pub fn contention_ns_per_round(stations: usize) -> f64 {
    const N: u64 = 50_000;
    let mut rng = Rng::new(2);
    let mut backoffs: Vec<Backoff> = (0..stations.max(1))
        .map(|_| Backoff::new(EdcaParams::for_ac(AccessCategory::BestEffort)))
        .collect();
    ns_per_op(N, ROUNDS, || {
        let mut refs: Vec<&mut Backoff> = backoffs.iter_mut().collect();
        for _ in 0..N {
            let out = contention::resolve(&mut refs, &mut rng).expect("stations contend");
            let clean = out.winners.len() == 1;
            for &w in &out.winners {
                if clean {
                    refs[w].on_success();
                } else if !refs[w].on_failure() {
                    refs[w].on_drop();
                }
            }
        }
    })
}

/// `TcpSender::poll_into` + `on_ack_into` per acknowledged segment, over
/// a fixed-delay pipe that drops `loss` of first transmissions. Only the
/// sender calls are timed; the receiver that produces the ACKs (with
/// SACK) runs between the timed sections.
pub fn sender_ns_per_segment(loss: f64) -> f64 {
    const SEGMENTS: u64 = 200_000;
    let run = || {
        let flow = FlowId(1);
        let mut rng = Rng::new(3);
        let mut snd = TcpSender::new(flow, SenderConfig::default());
        let mut rcv = TcpReceiver::new(flow, ReceiverConfig::default());
        let rtt = SimDuration::from_millis(2);
        let mut now = SimTime::ZERO;
        let mut wire: Vec<DataSegment> = Vec::new();
        let mut acks: Vec<AckSegment> = Vec::new();
        let mut busy = std::time::Duration::ZERO;
        while snd.acked_bytes() < SEGMENTS * MSS as u64 {
            let t = std::time::Instant::now();
            snd.poll_into(now, &mut wire);
            busy += t.elapsed();

            now += rtt;
            acks.clear();
            for seg in wire.drain(..) {
                if !seg.retransmit && rng.chance(loss) {
                    continue;
                }
                acks.extend(rcv.on_data(&seg, now));
            }
            if acks.is_empty() {
                // Nothing in flight produced an ACK: fire whichever
                // timer is pending so the flow cannot stall.
                match rcv.on_delack_timeout(now) {
                    Some(ack) => acks.push(ack),
                    None => {
                        now = now.max(snd.rto_deadline().expect("data outstanding"));
                        let t = std::time::Instant::now();
                        wire.extend(snd.on_timeout(now));
                        busy += t.elapsed();
                    }
                }
            }

            let t = std::time::Instant::now();
            for ack in &acks {
                snd.on_ack_into(ack, now, &mut wire);
            }
            busy += t.elapsed();
        }
        busy.as_secs_f64() * 1e9 / (snd.acked_bytes() / MSS as u64) as f64
    };
    run();
    (0..ROUNDS).map(|_| run()).fold(f64::INFINITY, f64::min)
}

/// One pre-generated input to the FastACK agent.
enum AgentEvent {
    Wire(DataSegment),
    MacAck(u64),
    ClientAck(AckSegment),
}

/// `Agent::on_wire_data_into` + `on_mac_ack_into` + `on_client_ack_into`
/// per data segment. Every `hole_every`-th segment (0 = never) is lost
/// upstream of the AP and arrives eight segments late as an end-to-end
/// retransmission, which drives hole detection, emulated dupACKs and
/// the dupACK-serving path. The client's ACKs come from a real
/// `TcpReceiver`; the event list is generated before timing starts.
pub fn agent_ns_per_segment(hole_every: u64) -> f64 {
    const SEGMENTS: u64 = 100_000;
    let flow = FlowId(1);
    let mut events = Vec::new();
    let mut client = TcpReceiver::new(flow, ReceiverConfig::default());
    let mut late: Option<(u64, DataSegment)> = None;
    let now = SimTime::ZERO;
    let mut deliver = |events: &mut Vec<AgentEvent>, seg: DataSegment| {
        events.push(AgentEvent::Wire(seg));
        events.push(AgentEvent::MacAck(seg.seq));
        events.extend(client.on_data(&seg, now).map(AgentEvent::ClientAck));
    };
    for i in 0..SEGMENTS {
        let seg = DataSegment {
            flow,
            seq: i * MSS as u64,
            len: MSS,
            retransmit: false,
        };
        if hole_every > 0 && i % hole_every == hole_every - 1 && late.is_none() {
            late = Some((
                i + 8,
                DataSegment {
                    retransmit: true,
                    ..seg
                },
            ));
            continue;
        }
        deliver(&mut events, seg);
        if late.is_some_and(|(due, _)| due == i) {
            deliver(&mut events, late.take().expect("checked").1);
        }
    }

    let mut out: Vec<Action> = Vec::new();
    ns_per_op(SEGMENTS, ROUNDS, || {
        let mut agent = Agent::new(AgentConfig::default());
        for ev in &events {
            out.clear();
            match ev {
                AgentEvent::Wire(seg) => agent.on_wire_data_into(seg, &mut out),
                AgentEvent::MacAck(seq) => agent.on_mac_ack_into(flow, *seq, MSS, &mut out),
                AgentEvent::ClientAck(ack) => agent.on_client_ack_into(ack, &mut out),
            }
            black_box(out.len());
        }
    })
}

/// `FlightRecorder::emit` into rings of `capacity` records.
pub fn flight_emit_ns_per_record(capacity: usize) -> f64 {
    const N: u64 = 500_000;
    let rec = FlightRecorder::new(capacity);
    ns_per_op(N, ROUNDS, || {
        for i in 0..N {
            rec.emit(
                "mac.tx",
                SimTime::from_nanos(i),
                cause_for(1 + i % 40, i),
                TraceRecord::MacTx {
                    flow: 1 + i % 40,
                    seq: i,
                    delivered: i % 16 != 0,
                },
            );
        }
        black_box(rec.total_dropped());
    })
}

/// `HealthEngine::step` with the testbed's detector catalog for
/// `n_aps` x `clients_per_ap`, over the traced rep's final registry.
pub fn health_step_ns(metrics: &Registry, n_aps: usize, clients_per_ap: usize) -> f64 {
    const N: u64 = 2_000;
    let rules = HealthRules::default();
    ns_per_op(N, ROUNDS, || {
        let mut eng = HealthEngine::new();
        for a in 0..n_aps {
            let flows = (0..clients_per_ap)
                .map(|k| (a * clients_per_ap + k) as u64 + 1)
                .collect();
            for d in standard_ap_detectors(a, flows, true, &rules) {
                eng.add(d);
            }
        }
        let all_flows: Vec<u64> = (1..=(n_aps * clients_per_ap) as u64).collect();
        if let Some(r) = rules.rto_storm {
            eng.add(Box::new(RtoStorm::new(
                "tcp",
                "health.tcp.timeouts",
                all_flows,
                r,
            )));
        }
        if let Some(r) = rules.airtime_slo {
            eng.add(Box::new(AirtimeSlo::new("air", "health.air.busy_ns", r)));
        }
        for i in 0..N {
            eng.step(SimTime::from_millis(250 * i), metrics);
        }
        black_box(eng.alerts_so_far());
    })
}

/// `Timeline::sample` of the traced rep's final registry on the
/// workload's sampling grid.
pub fn timeline_sample_ns_per_tick(metrics: &Registry, cfg: &TimelineConfig) -> f64 {
    const N: u64 = 2_000;
    ns_per_op(N, ROUNDS, || {
        let mut tl = Timeline::new(cfg);
        let mut at = SimTime::ZERO;
        for _ in 0..N {
            tl.sample(at, metrics);
            at += cfg.every;
        }
        black_box(tl.ticks());
    })
}

/// `ClientQoe::on_sent` + `on_delivered` + `score` per probe.
pub fn qoe_probe_ns_per_sample() -> f64 {
    const N: u64 = 10_000;
    let cfg = ProbeConfig::default();
    ns_per_op(N, ROUNDS, || {
        let mut q = ClientQoe::new(&cfg);
        let mut acc = 0.0;
        for i in 0..N {
            let at = SimTime::ZERO + cfg.interval() * i;
            let seq = q.on_sent(at);
            q.on_delivered(seq, at + SimDuration::from_micros(500 + (i % 7) * 300));
            acc += q.score(OPERATIONAL_WINDOW);
        }
        black_box(acc);
    })
}
