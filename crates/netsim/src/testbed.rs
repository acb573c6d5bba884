//! The performance testbed of the paper's §5.6 (Fig. 13), in software:
//! one or two 802.11ac APs in a single collision domain, N wireless
//! clients each sinking one bulk TCP downlink flow from a wired sender
//! behind an MGig switch. FastACK can be toggled per AP at run time.
//!
//! The event loop interleaves three planes exactly as the hardware does:
//!
//! * **wired plane** — sender ↔ AP segments with a fixed switch latency;
//! * **wireless plane** — EDCA contention among every backlogged
//!   transmitter (the APs and every client with pending TCP ACKs),
//!   A-MPDU aggregation per destination, BlockAck delivery reports;
//! * **host plane** — TCP senders (cwnd/RTO), TCP receivers (delayed
//!   ACKs), and the FastACK agent on the AP's forwarding path.
//!
//! Measurements recorded per run match the paper's figures: per-MPDU
//! 802.11 latency, AP-observed TCP latency, per-client throughput and
//! achieved aggregate sizes, cwnd traces, and per-AP airtime.

use fastack::{Action, Agent, AgentConfig};
use mac80211::ac::{AccessCategory, EdcaParams};
use mac80211::aggregation::{build_ampdu, AggLimits, QueuedMpdu};
use mac80211::backoff::Backoff;
use mac80211::contention::BatchResolver;
use mac80211::protection::Protection;
use phy80211::airtime::{ack_duration, block_ack_duration, AirtimeTable, SIFS};
use phy80211::channels::Width;
use phy80211::error_model::PerCache;
use phy80211::mcs::GuardInterval;
use phy80211::rate::RateCache;
use sim::{EventQueue, Rng, SimDuration, SimTime};
use std::collections::VecDeque;
use tcpsim::{
    AckSegment, CcAlgorithm, DataSegment, FlowId, ReceiverConfig, SenderConfig, SeqWindow,
    TcpReceiver, TcpSender,
};
use telemetry::health::{standard_ap_detectors, AirtimeSlo, QoeDegraded, RtoStorm};
use telemetry::{
    AirKind, CauseId, CounterId, FlightDump, FlightRecorder, GaugeId, HealthEngine, HealthReport,
    HealthRules, HistId, Registry, SpanId, StagedId, Timeline, TimelineConfig, TraceRecord,
};

/// Transport driving the downlink flows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Traffic {
    /// Bulk TCP downloads (the paper's main workload).
    #[default]
    Tcp,
    /// Connectionless saturation: the sender keeps every client queue
    /// full with no ACK clock at all — the paper's UDP upper bound for
    /// aggregation (Fig. 15).
    UdpSaturate,
}

/// Fault injection: a non-WiFi interferer (microwave oven, analog
/// video sender — the §3.2.4 interference sources) that switches on
/// mid-run. While active it occupies `duty` of every `period` with
/// energy the MAC cannot decode, and degrades every station's
/// effective SNR by `snr_penalty_db` — which drags rate selection and
/// per-MPDU delivery down exactly the way shrinking A-MPDU sizes show
/// up in the paper's aggregation CDFs.
#[derive(Debug, Clone, Copy)]
pub struct InterfererFault {
    /// When the interferer switches on.
    pub at: SimTime,
    /// Effective SNR degradation while active, dB.
    pub snr_penalty_db: f64,
    /// Fraction of each period the interferer holds the medium.
    pub duty: f64,
    /// Burst repetition period.
    pub period: SimDuration,
}

impl Default for InterfererFault {
    fn default() -> Self {
        InterfererFault {
            at: SimTime::from_millis(2_000),
            snr_penalty_db: 20.0,
            duty: 0.35,
            period: SimDuration::from_millis(25),
        }
    }
}

/// Per-client wireless link quality.
#[derive(Debug, Clone, Copy)]
pub struct ClientLink {
    /// Downlink SNR at the client, dB.
    pub snr_db: f64,
    /// Max spatial streams the client supports.
    pub max_nss: u8,
}

/// Testbed configuration.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    /// Number of APs (1 or 2 — Fig. 16 vs Fig. 18).
    pub n_aps: usize,
    /// Clients per AP.
    pub clients_per_ap: usize,
    /// FastACK enabled per AP.
    pub fastack: Vec<bool>,
    /// Channel width used by the AP radios.
    pub width: Width,
    /// Wired one-way latency sender ↔ AP.
    pub wired_latency: SimDuration,
    /// Probability an MPDU's 802.11 delivery report is a "bad hint"
    /// (MAC said delivered, transport never got it; paper footnote 15:
    /// ≈ 1.5 %). Only meaningful on FastACK-enabled APs: it models the
    /// hint channel FastACK consumes — the paper's *baseline* testbed
    /// shows no persistent transport loss (its flows reach the cwnd cap
    /// in Fig. 14), so on baseline APs MAC-acknowledged MPDUs always
    /// reach the transport.
    pub bad_hint_rate: f64,
    /// Probability a wired segment is dropped before the AP (upstream
    /// loss, exercises the §5.5.3 holes path).
    pub upstream_loss: f64,
    /// Base SNR for clients placed nearest the AP; each client's SNR is
    /// spread downward from this to model the Fig. 13 office layout.
    pub base_snr_db: f64,
    /// SNR spread between best- and worst-placed client.
    pub snr_spread_db: f64,
    /// Congestion control on the senders.
    pub cc: CcAlgorithm,
    /// Medium protection (Fig. 18's co-channel APs rely on RTS/CTS).
    pub protection: Protection,
    /// Mean client-side delay before a generated TCP ACK is even
    /// eligible for transmission ("many client devices take over 2 ms to
    /// even begin transmitting TCP ACKs", §5.1), exponential.
    pub ack_base_delay: SimDuration,
    /// Fraction of clients that are "laggy": they experience episodic
    /// uplink stalls (power save, background scans, driver hiccups) — the
    /// paper's arbitrarily slow clients behind the > 400 ms latency tail
    /// and behind Fig. 14's baseline flows that never open their cwnd.
    pub laggy_client_fraction: f64,
    /// Mean interval between stall episodes on a laggy client, seconds.
    pub stall_interval_s: f64,
    /// Stall episode duration range (uniform), ms.
    pub stall_ms: (f64, f64),
    /// FastACK staging target per client, frames: the agent's
    /// queue-budget backpressure keeps about this much buffered per
    /// client (the Click pull stage refills the driver ring from here).
    pub ap_queue_frames: usize,
    /// Shared driver/firmware buffer pool on the baseline arm, frames.
    /// Per-station share = clamp(pool / clients, 24, pool); beyond it,
    /// tail drop. A shared pool is how real NICs behave and is why
    /// baseline aggregation shrinks as client count grows (the §5.6.3
    /// observation that FastACK's headroom grows with contention).
    pub ap_buffer_pool_frames: usize,
    /// Override the FastACK agent's retransmission-cache budget
    /// (None = agent default). Used by the cache ablation.
    pub agent_cache_bytes: Option<u64>,
    /// RNG seed.
    pub seed: u64,
    /// Time-series sampling (see [`telemetry::timeline`]): when set,
    /// a [`Timeline`] ticks on the config's cadence, snapshotting the
    /// selected registry counters/gauges plus the per-flow cwnd f64
    /// series, and the legacy Fig. 14 `cwnd_trace` points are emitted
    /// from the same tick. Sampling only reads — it schedules no
    /// events, draws no randomness, and writes no metric — so every
    /// other artifact stays byte-identical with it on or off. `None`
    /// (the default) samples nothing.
    pub timeline: Option<TimelineConfig>,
    /// Workload driving the flows.
    pub traffic: Traffic,
    /// Beacon interval per AP (102.4 ms nominal); beacons ride the
    /// legacy basic rate and consume airtime whether or not anyone is
    /// listening. `None` disables beaconing.
    pub beacon_interval: Option<SimDuration>,
    /// Flight-recorder ring capacity per component (last-N window of
    /// typed trace records, see `telemetry::flight`). 0 disables
    /// recording entirely.
    pub flight_capacity: usize,
    /// When set, arm flight-recorder mode: any sim-sanitizer violation
    /// writes the recorder's last-N snapshot to this path before the
    /// panic unwinds.
    pub flight_dump_on_violation: Option<std::path::PathBuf>,
    /// Health-rule catalog evaluated over the run's own metrics on the
    /// rules' sampling cadence (see [`telemetry::health`]). Sampling
    /// draws no randomness and schedules no events, so enabling it
    /// cannot perturb the run's trajectory. `None` disables the engine.
    pub health_rules: Option<HealthRules>,
    /// Optional fault injection: a non-WiFi interferer that switches on
    /// mid-run (the health layer's acceptance scenario).
    pub interferer: Option<InterfererFault>,
    /// Application-layer QoE probing (see the `qoe` crate): when set,
    /// every client receives a fixed-rate stream of tiny timestamped
    /// probe MSDUs riding the normal downlink MAC path, and the run
    /// reports per-client delay/jitter/loss/reorder windows reduced to
    /// a 0–100 QoE score. `None` (the default) injects nothing and
    /// registers nothing — existing runs keep their exact trajectory.
    pub qoe: Option<qoe::ProbeConfig>,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        TestbedConfig {
            n_aps: 1,
            clients_per_ap: 10,
            fastack: vec![true],
            width: Width::W80,
            wired_latency: SimDuration::from_micros(200),
            // Footnote 15 reports "bad hints occur ≈1.5%" without a
            // denominator. Applied iid per MPDU at 45-60-deep aggregates
            // that would put a transport hole in nearly every aggregate
            // and contradict the paper's own Fig. 15/16 results, so the
            // default models a lower effective rate; `abl_bad_hints`
            // sweeps 0-10% to map the sensitivity.
            bad_hint_rate: 0.002,
            upstream_loss: 0.0,
            base_snr_db: 38.0,
            snr_spread_db: 16.0,
            cc: CcAlgorithm::Cubic,
            protection: Protection::RtsCts,
            ack_base_delay: SimDuration::from_millis(2),
            laggy_client_fraction: 0.25,
            stall_interval_s: 1.5,
            stall_ms: (60.0, 280.0),
            ap_queue_frames: 256,
            ap_buffer_pool_frames: 1600,
            agent_cache_bytes: None,
            seed: 1,
            timeline: None,
            traffic: Traffic::Tcp,
            beacon_interval: Some(SimDuration::from_micros(102_400)),
            flight_capacity: 1024,
            flight_dump_on_violation: None,
            health_rules: Some(HealthRules::default()),
            interferer: None,
            qoe: None,
        }
    }
}

/// Per-sender diagnostics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SenderStats {
    pub acked_bytes: u64,
    pub cwnd_segments: f64,
    pub retransmits: u64,
    pub fast_retransmits: u64,
    pub timeouts: u64,
    pub srtt_ms: f64,
}

/// Results of a testbed run.
#[derive(Debug, Clone, Default)]
pub struct TestbedReport {
    /// Per-client delivered application bytes.
    pub client_bytes: Vec<u64>,
    /// Per-client mean achieved A-MPDU size.
    pub client_aggregation: Vec<f64>,
    /// Per-client throughput in Mbps over the run.
    pub client_mbps: Vec<f64>,
    /// Per-AP aggregate throughput (Mbps).
    pub ap_mbps: Vec<f64>,
    /// 802.11 latencies (enqueue → BlockAck), seconds.
    pub mac_latencies: Vec<f64>,
    /// AP-observed TCP latencies (data forwarded → client ACK covering
    /// it arrives back at the AP), seconds — the §4.6.2 definition.
    pub tcp_latencies: Vec<f64>,
    /// cwnd traces: (client index, time s, cwnd segments).
    pub cwnd_trace: Vec<(usize, f64, f64)>,
    /// FastACK agent stats per AP.
    pub agent_stats: Vec<fastack::AgentStats>,
    /// Per-flow TCP sender diagnostics.
    pub sender_stats: Vec<SenderStats>,
    /// Total simulated duration, seconds.
    pub duration_s: f64,
    /// Collision-domain busy fraction.
    pub medium_utilization: f64,
    /// Deterministic metrics snapshot: counters/gauges/histograms from
    /// every plane (`sim.queue.*`, `mac.*`, `tcp.*`, `fastack.*`) plus
    /// the sim-time airtime profile (`air.*` spans). Serialize with
    /// [`Registry::to_json`]; equal seeds yield byte-identical JSON.
    pub metrics: Registry,
    /// Causal flight-recorder snapshot: the last-N typed trace records
    /// per component (`tcp.wire`, `mac.ampdu`, `mac.tx`, `mac.back`,
    /// `fastack.*`, `air`). Serialize with [`FlightDump::to_bytes`];
    /// equal seeds yield byte-identical dumps.
    pub flight: FlightDump,
    /// Health verdict for the run: the alert stream the configured
    /// rule catalog raised over the metrics, with causal ids resolved
    /// against the flight dump. Serialize with
    /// [`HealthReport::to_json`]; equal seeds yield byte-identical
    /// JSON. Empty (zero steps) when `health_rules` is `None`.
    pub health: HealthReport,
    /// Per-client application-layer QoE reports (probe-flow derived
    /// delay/jitter/loss/reorder windows and 0–100 scores). Empty when
    /// `qoe` probing is disabled.
    pub qoe: Vec<qoe::ClientReport>,
    /// Sealed time-series store (None when `timeline` is disabled).
    /// Serialize with [`Timeline::to_bytes`]; equal seeds yield
    /// byte-identical `TSL1` dumps.
    pub timeline: Option<Timeline>,
}

impl TestbedReport {
    pub fn total_mbps(&self) -> f64 {
        self.ap_mbps.iter().sum()
    }
}

// ---------------------------------------------------------------------
// internal world
// ---------------------------------------------------------------------

#[derive(Debug)]
enum Event {
    /// Data segment reaches AP `ap` from the wired side.
    WireData(usize, DataSegment),
    /// ACK reaches the sender of `flow`.
    WireAck(AckSegment),
}

struct ClientState {
    ap: usize,
    flow: FlowId,
    recv: TcpReceiver,
    link: ClientLink,
    /// Uplink queue of pending ACK frames with their earliest-release
    /// times (client-side processing/stall delays; FIFO, so a stalled
    /// head holds everything behind it — exactly the head-of-line
    /// behaviour that trips the sender's RTO).
    ack_queue: VecDeque<(SimTime, AckSegment)>,
    backoff: Backoff,
    /// Bytes delivered to the client transport.
    bytes: u64,
    agg_sizes: Vec<usize>,
    /// Laggy-client stall state: uplink frozen until `stall_until`;
    /// next episode begins at `next_stall_at` (MAX = never, for normal
    /// clients).
    stall_until: SimTime,
    next_stall_at: SimTime,
}

struct ApState {
    agent: Agent,
    /// Per-client downlink MSDU queues (front = oldest). Entries carry
    /// the enqueue time for 802.11-latency accounting.
    queues: Vec<VecDeque<(QueuedMpdu, SimTime)>>,
    /// Priority (head-of-line) stage per client.
    prio: Vec<VecDeque<(QueuedMpdu, SimTime)>>,
    /// MPDUs held across `queues` and `prio` — what the contender scan
    /// and the health sampler read instead of walking every deque.
    backlog: usize,
    backoff: Backoff,
    /// Round-robin pointer over clients.
    rr: usize,
    bytes_delivered: u64,
}

impl ApState {
    /// Queue an MSDU for client `slot`, behind the bulk traffic or in
    /// the head-of-line stage.
    fn enqueue(&mut self, slot: usize, priority: bool, mpdu: QueuedMpdu, at: SimTime) {
        let q = if priority {
            &mut self.prio[slot]
        } else {
            &mut self.queues[slot]
        };
        q.push_back((mpdu, at));
        self.backlog += 1;
    }
}

/// Key for mapping an MPDU id back to its TCP segment. This is exactly
/// the flight recorder's causal-id convention, so an MPDU id *is* the
/// [`CauseId`] joining MAC delivery reports to their TCP segment.
fn mpdu_id(flow: FlowId, seq: u64) -> u64 {
    telemetry::cause_for(flow.0, seq).0
}

fn mpdu_seq(id: u64) -> u64 {
    CauseId(id).seq_hint()
}

pub struct Testbed {
    cfg: TestbedConfig,
    queue: EventQueue<Event>,
    rng: Rng,
    senders: Vec<TcpSender>,
    clients: Vec<ClientState>,
    aps: Vec<ApState>,
    /// Data-segment send times at the AP for TCP-latency accounting,
    /// one window per flow (index `flow.0 - 1`) of end-offset → forward
    /// time. New data extends the tail; a cumulative client ACK drains
    /// every entry at or below it from the front; a retransmission
    /// (rare) lands mid-window, first write wins.
    tcp_lat_pending: Vec<SeqWindow<SimTime>>,
    report: TestbedReport,
    busy: SimDuration,
    /// Time-series sampler (None when `cfg.timeline` is None); ticked
    /// on its nominal grid in the run loop, sealed into the report.
    timeline: Option<Timeline>,
    /// Per-flow handles of the staged `tcp.flow{c}.cwnd_segments`
    /// series (empty without a timeline).
    tl_cwnd: Vec<StagedId>,
    next_timeline: SimTime,
    udp_seq: u64,
    next_beacon: SimTime,
    /// Per-flow (last seq_tcp seen, when it last advanced) — drives the
    /// bad-hint liveness repair (see `fastack::Agent::force_repair`).
    repair_watch: Vec<(u64, SimTime)>,
    /// Hot-path metric handles (registered once in `new`); the registry
    /// itself moves into the report at `finish`.
    metrics: Registry,
    /// Causal flight recorder; its rings move into the report at `finish`.
    flight: FlightRecorder,
    /// Health-detector engine (None when `health_rules` is None);
    /// stepped every `sample_every` of sim time in the run loop.
    health: Option<HealthEngine>,
    next_health: SimTime,
    /// Next interferer burst (MAX when no fault is configured).
    next_interference: SimTime,
    /// Per-client QoE collectors (empty when probing is disabled).
    qoe: Vec<qoe::ClientQoe>,
    /// Next probe-injection tick (MAX when probing is disabled).
    next_probe: SimTime,
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
    /// Per-AP A-MPDU counters feeding the ampdu-collapse detector.
    c_ap_aggs: Vec<CounterId>,
    c_ap_frames: Vec<CounterId>,
    /// Health sampling gauges, refreshed on every health tick.
    g_inflight: Vec<GaugeId>,
    g_fast_acks: Vec<GaugeId>,
    g_backlog: Vec<GaugeId>,
    g_busy: GaugeId,
    g_timeouts: GaugeId,
    /// Per-client QoE score gauges (registered only when probing is on;
    /// the `QoeDegraded` detector reads these paths).
    g_qoe_score: Vec<GaugeId>,
    /// Reusable contender scratch for `medium_round` (no per-round Vec).
    who_buf: Vec<Who>,
    /// Reusable A-MPDU assembly scratch for `ap_txop`.
    staged_buf: Vec<(QueuedMpdu, SimTime)>,
    raw_buf: Vec<QueuedMpdu>,
    /// Reusable sender-output scratch for the wired-ACK hot path.
    seg_buf: Vec<DataSegment>,
    /// Reusable FastACK-action scratch for the per-event agent calls.
    act_buf: Vec<Action>,
    /// In-place DCF round engine (no Backoff clone-out/put-back).
    resolver: BatchResolver,
    /// Exact memoized rate selection keyed on SNR bits (see `RateCache`).
    rate_cache: RateCache,
    /// Exact memoized 1500-byte PER keyed on SNR bits (see `PerCache`).
    per_cache: PerCache,
}

/// A station contending in one medium round.
#[derive(Clone, Copy)]
enum Who {
    Ap(usize),
    Client(usize),
}

impl Testbed {
    pub fn new(cfg: TestbedConfig) -> Testbed {
        assert!(cfg.n_aps >= 1 && cfg.n_aps == cfg.fastack.len());
        // Cadences the run loop catches up on by repeated addition: a
        // zero step would never get past `now`.
        if let Some(rules) = &cfg.health_rules {
            assert!(
                rules.sample_every > SimDuration::ZERO,
                "health_rules.sample_every must be > 0"
            );
        }
        if let Some(intf) = &cfg.interferer {
            assert!(
                intf.period > SimDuration::ZERO,
                "interferer.period must be > 0"
            );
        }
        if let Some(probe) = &cfg.qoe {
            assert!(
                probe.interval() > SimDuration::ZERO,
                "qoe.pps = {} leaves a probe interval of 0 ns",
                probe.pps
            );
        }
        let mut rng = Rng::new(cfg.seed);
        let n_clients = cfg.n_aps * cfg.clients_per_ap;

        let mut senders = Vec::with_capacity(n_clients);
        let mut clients = Vec::with_capacity(n_clients);
        for c in 0..n_clients {
            let flow = FlowId(c as u64 + 1);
            senders.push(TcpSender::new(
                flow,
                SenderConfig {
                    algorithm: cfg.cc,
                    ..SenderConfig::default()
                },
            ));
            // Spread client SNRs across the configured range; 3x3
            // MacBooks per the paper, but NSS varies with position noise.
            let frac = if n_clients == 1 {
                0.0
            } else {
                (c % cfg.clients_per_ap) as f64 / (cfg.clients_per_ap - 1).max(1) as f64
            };
            let snr = cfg.base_snr_db - frac * cfg.snr_spread_db + rng.normal(0.0, 1.0);
            let laggy = rng.chance(cfg.laggy_client_fraction);
            let next_stall_at = if laggy {
                SimTime::ZERO + SimDuration::from_secs_f64(rng.exponential(cfg.stall_interval_s))
            } else {
                SimTime::MAX
            };
            clients.push(ClientState {
                ap: c / cfg.clients_per_ap,
                flow,
                recv: TcpReceiver::new(flow, ReceiverConfig::default()),
                link: ClientLink {
                    snr_db: snr,
                    max_nss: 3,
                },
                ack_queue: VecDeque::new(),
                backoff: Backoff::new(EdcaParams::for_ac(AccessCategory::BestEffort)),
                bytes: 0,
                agg_sizes: Vec::new(),
                stall_until: SimTime::ZERO,
                next_stall_at,
            });
        }

        let aps = (0..cfg.n_aps)
            .map(|a| ApState {
                agent: Agent::new(AgentConfig {
                    enabled: cfg.fastack[a],
                    queue_budget_bytes: Some(cfg.ap_queue_frames as u64 * 1460),
                    cache_capacity_bytes: cfg
                        .agent_cache_bytes
                        .unwrap_or(AgentConfig::default().cache_capacity_bytes),
                    ..AgentConfig::default()
                }),
                queues: vec![VecDeque::new(); cfg.clients_per_ap],
                prio: vec![VecDeque::new(); cfg.clients_per_ap],
                backlog: 0,
                backoff: Backoff::new(EdcaParams::for_ac(AccessCategory::BestEffort)),
                rr: 0,
                bytes_delivered: 0,
            })
            .collect();

        let mut metrics = Registry::new();
        let sp_ap_txop = metrics.span("air.ap_txop");
        let sp_client_txop = metrics.span("air.client_txop");
        let sp_beacon = metrics.span("air.beacon");
        let sp_collision = metrics.span("air.collision");
        // A-MPDU sizes are bounded by the 64-frame BlockAck window;
        // cwnd by the 770-segment OS cap (clamped into the last bin).
        let h_ampdu = metrics.histogram("mac.ampdu.size", 0.0, 64.0, 64);
        let h_cwnd = metrics.histogram("tcp.cwnd_segments", 0.0, 1024.0, 32);
        let c_aggregates = metrics.counter("mac.ampdu.aggregates");
        let c_frames = metrics.counter("mac.ampdu.frames");
        let c_collisions = metrics.counter("mac.collisions");
        let sp_interferer = metrics.span("air.interferer");
        let c_ap_aggs: Vec<CounterId> = (0..cfg.n_aps)
            .map(|a| metrics.counter(&format!("mac.ap{a}.ampdu.aggregates")))
            .collect();
        let c_ap_frames: Vec<CounterId> = (0..cfg.n_aps)
            .map(|a| metrics.counter(&format!("mac.ap{a}.ampdu.frames")))
            .collect();
        let g_inflight: Vec<GaugeId> = (0..cfg.n_aps)
            .map(|a| metrics.gauge(&format!("health.ap{a}.inflight")))
            .collect();
        let g_fast_acks: Vec<GaugeId> = (0..cfg.n_aps)
            .map(|a| metrics.gauge(&format!("health.ap{a}.fast_acks")))
            .collect();
        let g_backlog: Vec<GaugeId> = (0..cfg.n_aps)
            .map(|a| metrics.gauge(&format!("health.ap{a}.backlog")))
            .collect();
        let g_busy = metrics.gauge("health.air.busy_ns");
        let g_timeouts = metrics.gauge("health.tcp.timeouts");
        // QoE score gauges exist only when probing is configured, so a
        // probe-free run's registry (and its JSON) is untouched.
        let g_qoe_score: Vec<GaugeId> = if cfg.qoe.is_some() {
            (0..n_clients)
                .map(|c| metrics.gauge(&format!("qoe.client{c}.score")))
                .collect()
        } else {
            Vec::new()
        };

        // The standard rule catalog, scoped per AP (each watches only
        // the flows terminating there) plus the shared TCP and airtime
        // detectors over the whole collision domain.
        let health = cfg.health_rules.and_then(|rules| {
            let mut eng = HealthEngine::new();
            for a in 0..cfg.n_aps {
                let flows: Vec<u64> = (0..cfg.clients_per_ap)
                    .map(|k| (a * cfg.clients_per_ap + k) as u64 + 1)
                    .collect();
                for d in standard_ap_detectors(a, flows, cfg.fastack[a], &rules) {
                    eng.add(d);
                }
            }
            let all_flows: Vec<u64> = (1..=n_clients as u64).collect();
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
            // QoE degradation watches each AP's clients' score gauges;
            // like the gauges themselves it exists only when probing is
            // configured.
            if cfg.qoe.is_some() {
                if let Some(r) = rules.qoe_degraded {
                    for a in 0..cfg.n_aps {
                        let watch: Vec<(String, u64)> = (0..cfg.clients_per_ap)
                            .map(|k| {
                                let c = a * cfg.clients_per_ap + k;
                                (format!("qoe.client{c}.score"), qoe::probe_flow(c))
                            })
                            .collect();
                        eng.add(Box::new(QoeDegraded::new(format!("ap{a}"), watch, r)));
                    }
                }
            }
            (!eng.is_empty()).then_some(eng)
        });

        let flight = FlightRecorder::new(cfg.flight_capacity);
        if let Some(path) = &cfg.flight_dump_on_violation {
            telemetry::flight::install_violation_dump(&flight, path.clone());
        }
        let next_interference = cfg.interferer.map_or(SimTime::MAX, |i| i.at);
        let qoe_state: Vec<qoe::ClientQoe> = match &cfg.qoe {
            Some(p) => (0..n_clients).map(|_| qoe::ClientQoe::new(p)).collect(),
            None => Vec::new(),
        };
        let next_probe = cfg
            .qoe
            .as_ref()
            .map_or(SimTime::MAX, |p| SimTime::ZERO + p.interval());

        let width = cfg.width;
        let mut timeline = cfg.timeline.as_ref().map(Timeline::new);
        let tl_cwnd: Vec<StagedId> = timeline.as_mut().map_or_else(Vec::new, |tl| {
            (0..n_clients)
                .map(|c| tl.stage_f64(&format!("tcp.flow{c}.cwnd_segments")))
                .collect()
        });
        Testbed {
            cfg,
            queue: EventQueue::new(),
            rng,
            senders,
            clients,
            aps,
            tcp_lat_pending: vec![SeqWindow::new(); n_clients],
            report: TestbedReport::default(),
            busy: SimDuration::ZERO,
            timeline,
            tl_cwnd,
            next_timeline: SimTime::ZERO,
            udp_seq: 0,
            next_beacon: SimTime::ZERO,
            repair_watch: vec![(0, SimTime::ZERO); n_clients],
            metrics,
            flight,
            health,
            next_health: SimTime::ZERO,
            next_interference,
            qoe: qoe_state,
            next_probe,
            sp_ap_txop,
            sp_client_txop,
            sp_beacon,
            sp_collision,
            sp_interferer,
            h_ampdu,
            h_cwnd,
            c_aggregates,
            c_frames,
            c_collisions,
            c_ap_aggs,
            c_ap_frames,
            g_inflight,
            g_fast_acks,
            g_backlog,
            g_busy,
            g_timeouts,
            g_qoe_score,
            who_buf: Vec::new(),
            staged_buf: Vec::new(),
            raw_buf: Vec::new(),
            seg_buf: Vec::new(),
            act_buf: Vec::new(),
            resolver: BatchResolver::new(),
            rate_cache: RateCache::new(width),
            per_cache: PerCache::new(width, 1500),
        }
    }

    /// Run the testbed for `duration` of simulated time and produce the
    /// measurement report.
    pub fn run(mut self, duration: SimDuration) -> TestbedReport {
        // Host-side wall-clock attribution for the whole event loop;
        // a disabled no-op unless the binary was started with --runprof.
        let _prof = telemetry::runprof::span("testbed.run");
        let end = SimTime::ZERO + duration;
        self.run_until(end);
        self.finish(end)
    }

    /// The event loop of [`Testbed::run`], up to simulated time `end`.
    fn run_until(&mut self, end: SimTime) {
        match self.cfg.traffic {
            Traffic::Tcp => {
                // Kick every sender.
                for s in 0..self.senders.len() {
                    let segs = self.senders[s].poll(SimTime::ZERO);
                    self.ship_to_ap(s, &segs, SimTime::ZERO);
                }
            }
            Traffic::UdpSaturate => self.top_up_udp(),
        }

        while self.queue.now() < end {
            if self.cfg.traffic == Traffic::UdpSaturate {
                self.top_up_udp();
            }
            // 1. Drain wire events due before the next medium round.
            while let Some(t) = self.queue.peek_time() {
                if t > self.queue.now() {
                    break;
                }
                let (at, ev) = self.queue.pop().expect("peeked");
                self.handle_event(ev, at);
            }
            // 2. Host-plane timers (RTO, delayed ACKs), polled per round.
            self.poll_timers();
            // 2b. Beacons: every AP transmits one per interval at the
            // basic control rate (~120 us of airtime for a 300-byte
            // frame + DIFS), independent of traffic.
            if let Some(interval) = self.cfg.beacon_interval {
                if self.queue.now() >= self.next_beacon {
                    let one =
                        phy80211::airtime::control_frame_duration(300) + phy80211::airtime::DIFS;
                    let all = SimDuration::from_nanos(one.as_nanos() * self.cfg.n_aps as u64);
                    let sp = self.metrics.enter(self.sp_beacon, self.queue.now());
                    self.occupy(all);
                    self.metrics.exit(sp, self.queue.now());
                    self.flight.emit(
                        "air",
                        self.queue.now(),
                        CauseId::NONE,
                        TraceRecord::AirtimeSpan {
                            kind: AirKind::Beacon,
                            dur: all,
                        },
                    );
                    self.next_beacon += interval;
                }
            }
            // 2c. Interferer bursts (fault injection): once switched
            // on, the interferer holds the medium for `duty` of every
            // period. Stations defer exactly as they do for beacons.
            if let Some(intf) = self.cfg.interferer {
                if self.queue.now() >= self.next_interference {
                    let hold = SimDuration::from_secs_f64(intf.period.as_secs_f64() * intf.duty);
                    let sp = self.metrics.enter(self.sp_interferer, self.queue.now());
                    self.occupy(hold);
                    self.metrics.exit(sp, self.queue.now());
                    self.flight.emit(
                        "air",
                        self.queue.now(),
                        CauseId::NONE,
                        TraceRecord::AirtimeSpan {
                            kind: AirKind::Interferer,
                            dur: hold,
                        },
                    );
                    self.next_interference += intf.period;
                }
            }
            // 2d. Health sampling on the rules' fixed cadence. The
            // sampler only refreshes gauges and steps the detector
            // engine — no randomness, no events — so enabling it leaves
            // the run's trajectory bit-identical.
            if let Some(rules) = self.cfg.health_rules {
                if self.health.is_some() {
                    while self.queue.now() >= self.next_health {
                        let at = self.next_health;
                        self.health_sample(at);
                        self.next_health += rules.sample_every;
                    }
                }
            }
            // 2e. QoE probe injection on its fixed cadence: one tiny
            // timestamped MSDU per client per tick, enqueued behind the
            // bulk traffic. Probes ride the normal MAC path — contention,
            // aggregation, retries — so their one-way delay measures
            // what an application flow would experience. Injection draws
            // no randomness.
            if let Some(pcfg) = self.cfg.qoe {
                while self.queue.now() >= self.next_probe {
                    let at = self.next_probe;
                    self.inject_probes(&pcfg, at);
                    self.next_probe += pcfg.interval();
                }
            }
            // 3. One contention round on the medium.
            if !self.medium_round() {
                // Medium idle: advance to whatever fires next — a wire
                // event, an RTO, a delayed-ACK timer, or a client-side
                // ACK release.
                let mut wake = self.queue.peek_time();
                let mut fold = |t: Option<SimTime>| {
                    if let Some(t) = t {
                        wake = Some(match wake {
                            Some(w) => w.min(t),
                            None => t,
                        });
                    }
                };
                for s in &self.senders {
                    fold(s.rto_deadline());
                }
                for (ci, c) in self.clients.iter().enumerate() {
                    fold(c.recv.delack_deadline());
                    if let Some((rel, _)) = c.ack_queue.front() {
                        fold(Some((*rel).max(c.stall_until)));
                    }
                    // Pending bad-hint repair.
                    let ap = c.ap;
                    if let Some(st) = self.aps[ap].agent.flow_state(c.flow) {
                        if st.seq_tcp < st.seq_fack {
                            fold(Some(self.repair_watch[ci].1 + SimDuration::from_millis(31)));
                        }
                    }
                }
                // Interferer bursts wake the loop on their own (folded
                // only when configured, so fault-free runs keep their
                // exact event trajectory).
                if self.cfg.interferer.is_some() {
                    fold(Some(self.next_interference));
                }
                // Probe ticks likewise wake the loop only when QoE
                // probing is configured.
                if self.cfg.qoe.is_some() {
                    fold(Some(self.next_probe));
                }
                match wake {
                    Some(t) if t < end => {
                        let t = t.max(self.queue.now());
                        self.queue.advance_to(t);
                        while let Some(pt) = self.queue.peek_time() {
                            if pt > t {
                                break;
                            }
                            let (at, ev) = self.queue.pop().expect("peeked");
                            self.handle_event(ev, at);
                        }
                    }
                    _ => break,
                }
            }
            // 4. Timeline tick (subsumes the old ad-hoc Fig. 14 cwnd
            // probe): catch up to now on the nominal grid, staging the
            // per-flow cwnd series and snapshotting the registry at
            // each tick's nominal instant. Reads only — no events, no
            // randomness, no metric writes — so the trajectory and
            // every other artifact are bit-identical with sampling on
            // or off. Like the old probe (and unlike interferer/probe
            // ticks) this is not folded into the idle wake: samples
            // land when the loop is awake anyway, stamped nominally.
            if let Some(every) = self.timeline.as_ref().map(|t| t.every()) {
                while self.queue.now() >= self.next_timeline {
                    let at = self.next_timeline;
                    self.timeline_tick(at);
                    self.next_timeline += every;
                }
            }
        }
    }

    /// One timeline tick at its nominal instant: emit the legacy
    /// Fig. 14 `cwnd_trace` point and stage the per-flow cwnd f64
    /// series (exactly the values, times and order the retired
    /// `cwnd_sample_every` probe produced), then snapshot the selected
    /// registry counters/gauges. Reads only.
    fn timeline_tick(&mut self, at: SimTime) {
        let tl = self.timeline.as_mut().expect("timeline enabled");
        let t = at.as_nanos() as f64 / 1e9;
        for (c, s) in self.senders.iter().enumerate() {
            let w = s.cwnd_segments();
            self.report.cwnd_trace.push((c, t, w));
            tl.set(self.tl_cwnd[c], w);
        }
        tl.sample(at, &self.metrics);
    }

    fn finish(mut self, end: SimTime) -> TestbedReport {
        let dur = end.as_secs_f64().max(1e-9);
        self.report.duration_s = dur;
        self.report.client_bytes = self.clients.iter().map(|c| c.bytes).collect();
        self.report.client_mbps = self
            .clients
            .iter()
            .map(|c| c.bytes as f64 * 8.0 / dur / 1e6)
            .collect();
        self.report.client_aggregation = self
            .clients
            .iter()
            .map(|c| {
                if c.agg_sizes.is_empty() {
                    0.0
                } else {
                    c.agg_sizes.iter().sum::<usize>() as f64 / c.agg_sizes.len() as f64
                }
            })
            .collect();
        self.report.ap_mbps = self
            .aps
            .iter()
            .map(|a| a.bytes_delivered as f64 * 8.0 / dur / 1e6)
            .collect();
        self.report.agent_stats = self.aps.iter().map(|a| a.agent.stats).collect();
        self.report.sender_stats = self
            .senders
            .iter()
            .map(|s| SenderStats {
                acked_bytes: s.acked_bytes(),
                cwnd_segments: s.cwnd_segments(),
                retransmits: s.retransmit_count,
                fast_retransmits: s.fast_retransmit_count,
                timeouts: s.timeout_count,
                srtt_ms: s.srtt().map(|d| d.as_secs_f64() * 1e3).unwrap_or(0.0),
            })
            .collect();
        self.report.medium_utilization = self.busy.as_secs_f64() / dur;
        // The flight rings move into the report (nothing records after
        // this); wraparound losses become visible in the registry as
        // `trace.dropped`.
        self.metrics
            .count("trace.dropped", self.flight.total_dropped());
        self.report.flight = self.flight.take();

        // Health verdict: resolve every alert's causal id against the
        // flight dump (and drop alerts the dump refutes).
        if let Some(eng) = self.health.take() {
            let health = eng.finish(&self.report.flight);
            self.metrics
                .count("health.alerts", health.alerts.len() as u64);
            self.report.health = health;
        }

        // Snapshot every subsystem's counters into the registry.
        let qs = self.queue.stats();
        self.metrics.count("sim.queue.scheduled", qs.scheduled);
        self.metrics.count("sim.queue.popped", qs.popped);
        self.metrics.count("sim.queue.cancelled", qs.cancelled);
        // Capacity-sizing gauges: the arena's lifetime high-water mark
        // (slab slots ever allocated) and the deepest the pending set
        // got. Both are deterministic functions of the trajectory, so
        // they live in the metrics snapshot proper; runprof mirrors
        // them (with the flight-ring occupancy) into its sidecar.
        let arena_peak = self.queue.arena_capacity() as u64;
        let g = self.metrics.gauge("sim.queue.arena_peak");
        self.metrics
            .gauge_set(g, i64::try_from(arena_peak).unwrap_or(i64::MAX));
        let g = self.metrics.gauge("sim.queue.depth_peak");
        self.metrics
            .gauge_set(g, i64::try_from(qs.depth_peak).unwrap_or(i64::MAX));
        telemetry::runprof::watermark("sim.queue.arena_peak", arena_peak);
        telemetry::runprof::watermark("sim.queue.arena_free", self.queue.arena_free() as u64);
        telemetry::runprof::watermark("sim.queue.depth_peak", qs.depth_peak);
        telemetry::runprof::watermark(
            "flight.ring.records",
            self.report.flight.total_records() as u64,
        );
        telemetry::runprof::watermark("flight.ring.dropped", self.report.flight.total_dropped());
        for (a, ap) in self.aps.iter().enumerate() {
            ap.backoff
                .stats
                .export_metrics(&mut self.metrics, &format!("mac.ap{a}.backoff"));
            ap.agent
                .stats
                .export_metrics(&mut self.metrics, &format!("fastack.ap{a}"));
        }
        for c in &self.clients {
            // One shared prefix: client queues sum into fleet-level
            // totals instead of exploding the path space per station.
            c.backoff
                .stats
                .export_metrics(&mut self.metrics, "mac.clients.backoff");
        }
        for s in &self.senders {
            s.export_metrics(&mut self.metrics, "tcp");
            self.metrics.observe(self.h_cwnd, s.cwnd_segments());
        }
        // QoE snapshot: per-client probe counters plus the operational
        // score (x100 so the integer counter keeps two decimals), and
        // the full windowed reports on the report struct.
        if !self.qoe.is_empty() {
            for (c, q) in self.qoe.iter().enumerate() {
                self.metrics.count(&format!("qoe.client{c}.sent"), q.sent);
                self.metrics
                    .count(&format!("qoe.client{c}.delivered"), q.delivered);
                self.metrics.count(&format!("qoe.client{c}.lost"), q.lost);
                self.metrics
                    .count(&format!("qoe.client{c}.reordered"), q.reordered);
                let score = q.score(qoe::OPERATIONAL_WINDOW);
                self.metrics.count(
                    &format!("qoe.client{c}.score_x100"),
                    (score * 100.0).round() as u64,
                );
            }
            self.report.qoe = self
                .qoe
                .iter()
                .enumerate()
                .map(|(c, q)| qoe::ClientReport::from_qoe(c, q))
                .collect();
        }
        // Seal the timeline (flush in-progress downsample buckets) so
        // the report's dump is complete and round-trips byte-stably.
        if let Some(mut tl) = self.timeline.take() {
            tl.seal();
            self.report.timeline = Some(tl);
        }
        debug_assert!(self.metrics.profiler_idle(), "unbalanced span guards");
        self.report.metrics = std::mem::take(&mut self.metrics);
        self.report
    }

    // -- wired plane ---------------------------------------------------

    fn ship_to_ap(&mut self, sender_idx: usize, segs: &[DataSegment], now: SimTime) {
        let ap = self.clients[sender_idx].ap;
        for &seg in segs {
            if self.rng.chance(self.cfg.upstream_loss) {
                continue; // dropped at the switch
            }
            self.queue
                .schedule(now + self.cfg.wired_latency, Event::WireData(ap, seg));
        }
    }

    fn handle_event(&mut self, ev: Event, at: SimTime) {
        match ev {
            Event::WireData(ap, seg) => self.ap_ingress(ap, seg, at),
            Event::WireAck(ack) => {
                let idx = (ack.flow.0 - 1) as usize;
                let mut more = std::mem::take(&mut self.seg_buf);
                more.clear();
                self.senders[idx].on_ack_into(&ack, at, &mut more);
                self.ship_to_ap(idx, &more, at);
                self.seg_buf = more;
            }
        }
    }

    /// Record a FastACK agent action into the flight rings. The record
    /// and causal id come from the action itself
    /// ([`Action::flight_record`]); this only picks the component:
    /// forwards are the wired plane, local retransmissions and
    /// synthesized ACKs are FastACK's doing, pass-through client ACKs
    /// are plain TCP.
    fn record_action(&self, act: &Action, ap_fastack: bool, now: SimTime) {
        let Some((cause, rec)) = act.flight_record(ap_fastack) else {
            return;
        };
        let component = match act {
            Action::Forward { .. } => "tcp.wire",
            Action::LocalRetransmit(_) => "fastack.retx",
            Action::SendAckUpstream(_) => {
                if ap_fastack {
                    "fastack.synth"
                } else {
                    "tcp.ack"
                }
            }
            Action::DropData(_) | Action::SuppressClientAck(_) => return,
        };
        self.flight.emit(component, now, cause, rec);
    }

    /// A data segment arrives at the AP from the wire: run it through the
    /// FastACK agent and enqueue per its verdict.
    fn ap_ingress(&mut self, ap: usize, seg: DataSegment, now: SimTime) {
        let client_slot = (seg.flow.0 - 1) as usize % self.cfg.clients_per_ap;
        let mut actions = std::mem::take(&mut self.act_buf);
        actions.clear();
        self.aps[ap].agent.on_wire_data_into(&seg, &mut actions);
        for act in actions.drain(..) {
            self.record_action(&act, self.cfg.fastack[ap], now);
            match act {
                Action::Forward { seg, priority } => {
                    let depth = self.aps[ap].queues[client_slot].len()
                        + self.aps[ap].prio[client_slot].len();
                    let share = (self.cfg.ap_buffer_pool_frames / self.cfg.clients_per_ap)
                        .clamp(24, self.cfg.ap_buffer_pool_frames);
                    if !self.cfg.fastack[ap] && !priority && !seg.retransmit && depth >= share {
                        // Baseline arm: hard tail drop at the driver
                        // queue; the endpoints recover end-to-end.
                        // Retransmissions bypass the cap (paced by loss
                        // recovery; dropping a repair would livelock).
                        continue;
                    }
                    // First write wins: a retransmission of a segment
                    // still pending does not restart its clock.
                    let lat = &mut self.tcp_lat_pending[(seg.flow.0 - 1) as usize];
                    if lat.get(seg.end()).is_none() {
                        lat.insert(seg.end(), now);
                    }
                    let mpdu = QueuedMpdu {
                        id: mpdu_id(seg.flow, seg.seq),
                        bytes: seg.len as usize + 40, // + IP/TCP headers
                    };
                    self.aps[ap].enqueue(client_slot, priority, mpdu, now);
                }
                Action::DropData(_) => {}
                Action::SendAckUpstream(ack) => {
                    self.queue
                        .schedule(now + self.cfg.wired_latency, Event::WireAck(ack));
                }
                Action::LocalRetransmit(seg) => {
                    let mpdu = QueuedMpdu {
                        id: mpdu_id(seg.flow, seg.seq),
                        bytes: seg.len as usize + 40,
                    };
                    self.aps[ap].enqueue(client_slot, true, mpdu, now);
                }
                Action::SuppressClientAck(_) => {}
            }
        }
        self.act_buf = actions;
    }

    // -- host-plane timers ----------------------------------------------

    /// Keep every client's downlink queue saturated with datagrams
    /// (UDP mode). Datagram ids share the MPDU id space but are never
    /// reported to the FastACK agent (no TCP flow to accelerate).
    fn top_up_udp(&mut self) {
        let now = self.queue.now();
        let target = self.cfg.ap_queue_frames.max(64);
        for a in 0..self.aps.len() {
            for slot in 0..self.cfg.clients_per_ap {
                while self.aps[a].queues[slot].len() < target {
                    let n = self.udp_seq;
                    self.udp_seq += 1;
                    let client = a * self.cfg.clients_per_ap + slot;
                    let flow = self.clients[client].flow;
                    let mpdu = QueuedMpdu {
                        id: mpdu_id(flow, n * 1460),
                        bytes: 1500,
                    };
                    self.aps[a].enqueue(slot, false, mpdu, now);
                }
            }
        }
    }

    fn poll_timers(&mut self) {
        if self.cfg.traffic == Traffic::UdpSaturate {
            return; // no TCP machinery to tick
        }
        let now = self.queue.now();
        for s in 0..self.senders.len() {
            if let Some(dl) = self.senders[s].rto_deadline() {
                if now >= dl {
                    let segs = self.senders[s].on_timeout(now);
                    self.ship_to_ap(s, &segs, now);
                }
            }
        }
        // Bad-hint liveness: a flow whose client ACK point trails the
        // fast-ACK point and hasn't moved for a while needs its hole
        // re-served from the cache (both the original and the local
        // retransmission were lost between MAC and transport).
        const REPAIR_AFTER: SimDuration = SimDuration::from_millis(8);
        for c in 0..self.clients.len() {
            let ap = self.clients[c].ap;
            let flow = self.clients[c].flow;
            let (gap, tcp_pt) = match self.aps[ap].agent.flow_state(flow) {
                Some(st) if st.seq_tcp < st.seq_fack => (true, st.seq_tcp),
                Some(st) => (false, st.seq_tcp),
                None => continue,
            };
            let (last_pt, last_at) = self.repair_watch[c];
            if tcp_pt != last_pt {
                self.repair_watch[c] = (tcp_pt, now);
            } else if gap && now.saturating_since(last_at) > REPAIR_AFTER {
                self.repair_watch[c].1 = now;
                let acts = self.aps[ap].agent.force_repair(flow);
                for act in acts {
                    self.record_action(&act, self.cfg.fastack[self.clients[c].ap], now);
                    if let Action::LocalRetransmit(seg) = act {
                        let slot = c % self.cfg.clients_per_ap;
                        let mpdu = QueuedMpdu {
                            id: mpdu_id(seg.flow, seg.seq),
                            bytes: seg.len as usize + 40,
                        };
                        self.aps[ap].enqueue(slot, true, mpdu, now);
                    }
                }
            }
        }
        for c in 0..self.clients.len() {
            if let Some(dl) = self.clients[c].recv.delack_deadline() {
                if now >= dl {
                    if let Some(ack) = self.clients[c].recv.on_delack_timeout(now) {
                        self.push_client_ack(c, ack, now);
                    }
                }
            }
        }
    }

    /// One health tick: refresh the sampling gauges from live state,
    /// then step every detector over the registry. Reads only — the
    /// trajectory of the run is untouched.
    fn health_sample(&mut self, at: SimTime) {
        let nc = self.cfg.clients_per_ap;
        for a in 0..self.aps.len() {
            self.metrics.gauge_set(
                self.g_backlog[a],
                i64::try_from(self.aps[a].backlog).unwrap_or(i64::MAX),
            );
            self.metrics.gauge_set(
                self.g_fast_acks[a],
                i64::try_from(self.aps[a].agent.stats.fast_acks_sent).unwrap_or(i64::MAX),
            );
            let inflight: u64 = self.senders[a * nc..(a + 1) * nc]
                .iter()
                .map(|s| s.flight_size())
                .sum();
            self.metrics.gauge_set(
                self.g_inflight[a],
                i64::try_from(inflight).unwrap_or(i64::MAX),
            );
        }
        let timeouts: u64 = self.senders.iter().map(|s| s.timeout_count).sum();
        self.metrics
            .gauge_set(self.g_timeouts, i64::try_from(timeouts).unwrap_or(i64::MAX));
        self.metrics.gauge_set(
            self.g_busy,
            i64::try_from(self.busy.as_nanos()).unwrap_or(i64::MAX),
        );
        if !self.qoe.is_empty() {
            for (c, q) in self.qoe.iter().enumerate() {
                let score = q.score(qoe::OPERATIONAL_WINDOW);
                self.metrics
                    .gauge_set(self.g_qoe_score[c], score.round() as i64);
            }
        }
        if let Some(eng) = self.health.as_mut() {
            eng.step(at, &self.metrics);
        }
    }

    /// One probe tick: every client gets one tiny MSDU stamped with its
    /// send time (the collector keeps the timestamp; the MPDU id packs
    /// the probe flow + sequence, which is also the flight-record cause
    /// joining the tx record to the MAC's delivery report).
    fn inject_probes(&mut self, pcfg: &qoe::ProbeConfig, at: SimTime) {
        for c in 0..self.clients.len() {
            let seq = self.qoe[c].on_sent(at);
            let flow = qoe::probe_flow(c);
            let cause = telemetry::cause_for(flow, seq);
            self.flight.emit(
                "qoe.tx",
                at,
                cause,
                TraceRecord::QoeProbe {
                    flow,
                    seq,
                    delay_ns: 0,
                },
            );
            let ap = self.clients[c].ap;
            let slot = c % self.cfg.clients_per_ap;
            let mpdu = QueuedMpdu {
                id: cause.0,
                bytes: pcfg.payload_bytes as usize + 40, // + IP/UDP headers
            };
            self.aps[ap].enqueue(slot, false, mpdu, at);
        }
    }

    /// Effective-SNR degradation from the interferer, dB (0 before it
    /// switches on or when no fault is configured).
    fn snr_penalty(&self, now: SimTime) -> f64 {
        match self.cfg.interferer {
            Some(i) if now >= i.at => i.snr_penalty_db,
            _ => 0.0,
        }
    }

    /// Queue a client-generated ACK with its release delay.
    fn push_client_ack(&mut self, c: usize, ack: AckSegment, now: SimTime) {
        let delay =
            SimDuration::from_secs_f64(self.rng.exponential(self.cfg.ack_base_delay.as_secs_f64()));
        self.clients[c].ack_queue.push_back((now + delay, ack));
    }

    /// Advance laggy clients' stall episodes.
    fn roll_stalls(&mut self, now: SimTime) {
        let (lo, hi) = self.cfg.stall_ms;
        let interval = self.cfg.stall_interval_s;
        for c in self.clients.iter_mut() {
            if now >= c.next_stall_at {
                let dur = SimDuration::from_secs_f64(self.rng.uniform(lo, hi) / 1e3);
                c.stall_until = now + dur;
                c.next_stall_at = c.stall_until
                    + SimDuration::from_secs_f64(self.rng.exponential(interval).max(0.05));
            }
        }
    }

    // -- wireless plane --------------------------------------------------

    /// Run one EDCA contention round. Returns false if nothing wanted
    /// the medium.
    fn medium_round(&mut self) -> bool {
        // Contenders: APs with any backlog, clients with pending ACKs.
        // The scratch Vec is owned by the testbed and reused round to
        // round; `mem::take` detaches it so `self` stays borrowable.
        let mut who = std::mem::take(&mut self.who_buf);
        who.clear();
        for (a, ap) in self.aps.iter().enumerate() {
            debug_assert_eq!(
                ap.backlog,
                ap.queues
                    .iter()
                    .chain(&ap.prio)
                    .map(|q| q.len())
                    .sum::<usize>(),
                "AP backlog count out of step with its queues"
            );
            if ap.backlog > 0 {
                who.push(Who::Ap(a));
            }
        }
        let now = self.queue.now();
        self.roll_stalls(now);
        for (c, cl) in self.clients.iter().enumerate() {
            // A client contends only when its head-of-line ACK has
            // cleared the client-side processing delay and the client is
            // not inside a stall episode.
            if cl.stall_until <= now
                && cl
                    .ack_queue
                    .front()
                    .map(|(rel, _)| *rel <= now)
                    .unwrap_or(false)
            {
                who.push(Who::Client(c));
            }
        }
        if who.is_empty() {
            self.who_buf = who;
            return false;
        }

        // Resolve contention in place over the stations' own backoff
        // state. Draw order (and therefore the RNG stream) matches the
        // old clone-out/`resolve` path exactly: `who` order.
        self.resolver.begin();
        for w in &who {
            match *w {
                Who::Ap(a) => self.resolver.enter(&mut self.aps[a].backoff, &mut self.rng),
                Who::Client(c) => self
                    .resolver
                    .enter(&mut self.clients[c].backoff, &mut self.rng),
            }
        }
        for (i, w) in who.iter().enumerate() {
            match *w {
                Who::Ap(a) => self.resolver.settle(i, &mut self.aps[a].backoff),
                Who::Client(c) => self.resolver.settle(i, &mut self.clients[c].backoff),
            }
        }

        self.queue
            .advance_to(self.queue.now() + self.resolver.idle_time());
        let collision = self.resolver.winners().len() > 1;

        if collision {
            // All colliding transmissions fail; airtime lost depends on
            // protection (RTS collisions are short).
            let cost = self
                .cfg
                .protection
                .collision_cost(SimDuration::from_millis(2));
            self.metrics.inc(self.c_collisions);
            let sp = self.metrics.enter(self.sp_collision, self.queue.now());
            self.occupy(cost);
            self.metrics.exit(sp, self.queue.now());
            self.flight.emit(
                "air",
                self.queue.now(),
                CauseId::NONE,
                TraceRecord::AirtimeSpan {
                    kind: AirKind::Collision,
                    dur: cost,
                },
            );
            for k in 0..self.resolver.winners().len() {
                let wi = self.resolver.winners()[k];
                match who[wi] {
                    Who::Ap(a) => {
                        let _ = self.aps[a].backoff.on_failure();
                    }
                    Who::Client(c) => {
                        let _ = self.clients[c].backoff.on_failure();
                    }
                }
            }
            self.who_buf = who;
            return true;
        }

        let winner = who[self.resolver.winners()[0]];
        self.who_buf = who;
        match winner {
            Who::Ap(a) => self.ap_txop(a),
            Who::Client(c) => self.client_txop(c),
        }
        true
    }

    fn occupy(&mut self, d: SimDuration) {
        self.busy += d;
        self.queue.advance_to(self.queue.now() + d);
    }

    /// The AP won a TXOP: serve the next backlogged client with an
    /// A-MPDU.
    fn ap_txop(&mut self, a: usize) {
        // Pick destination: round-robin over clients with backlog,
        // priority queues first.
        let nc = self.cfg.clients_per_ap;
        let mut slot = None;
        for k in 0..nc {
            let cand = (self.aps[a].rr + k) % nc;
            if !self.aps[a].prio[cand].is_empty() || !self.aps[a].queues[cand].is_empty() {
                slot = Some(cand);
                break;
            }
        }
        let Some(slot) = slot else {
            self.aps[a].backoff.on_success();
            return;
        };
        self.aps[a].rr = (slot + 1) % nc;
        let client_idx = a * nc + slot;
        let link = self.clients[client_idx].link;
        let snr_db = link.snr_db - self.snr_penalty(self.queue.now());

        // Rate from the client's SNR (degraded while an interferer is
        // active — rate control reacts to the noise floor it measures).
        // Memoized: bit-exact `IdealSelector` result per distinct SNR.
        let rate = self.rate_cache.select(link.max_nss, snr_db);

        // Assemble the aggregate: priority MPDUs first, then the queue.
        // Both scratch Vecs live on the testbed and are recycled every
        // TXOP, so steady state allocates nothing here.
        let mut staged = std::mem::take(&mut self.staged_buf);
        let mut raw = std::mem::take(&mut self.raw_buf);
        staged.clear();
        raw.clear();
        while let Some(x) = self.aps[a].prio[slot].pop_front() {
            staged.push(x);
        }
        while let Some(x) = self.aps[a].queues[slot].pop_front() {
            staged.push(x);
        }
        // Whatever does not fly goes back below, with its count.
        self.aps[a].backlog -= staged.len();
        raw.extend(staged.iter().map(|(m, _)| *m));
        let Some(ampdu) = build_ampdu(
            &mut raw,
            rate.mcs,
            rate.nss,
            self.cfg.width,
            GuardInterval::Short,
            AggLimits::default(),
        ) else {
            // Rate invalid (cannot happen with IdealSelector) — restore.
            self.aps[a].backlog += staged.len();
            for x in staged.drain(..).rev() {
                self.aps[a].queues[slot].push_front(x);
            }
            self.staged_buf = staged;
            self.raw_buf = raw;
            self.aps[a].backoff.on_success();
            return;
        };
        let taken = ampdu.size();
        // Anything beyond the aggregate goes back to the queue front.
        self.aps[a].backlog += staged.len() - taken;
        for x in staged.drain(taken..).rev() {
            self.aps[a].queues[slot].push_front(x);
        }
        let flow = self.clients[client_idx].flow;
        self.flight.emit(
            "mac.ampdu",
            self.queue.now(),
            ampdu.cause(),
            ampdu.flight_record(flow.0),
        );

        // Airtime: protection + data + SIFS + BlockAck.
        let air = self.cfg.protection.overhead() + ampdu.duration + SIFS + block_ack_duration();
        let sp = self.metrics.enter(self.sp_ap_txop, self.queue.now());
        self.occupy(air);
        self.metrics.exit(sp, self.queue.now());
        let now = self.queue.now();
        self.flight.emit(
            "air",
            now,
            ampdu.cause(),
            TraceRecord::AirtimeSpan {
                kind: AirKind::ApTxop,
                dur: air,
            },
        );

        self.clients[client_idx].agg_sizes.push(taken);
        self.metrics.inc(self.c_aggregates);
        self.metrics.add(self.c_frames, taken as u64);
        self.metrics.inc(self.c_ap_aggs[a]);
        self.metrics.add(self.c_ap_frames[a], taken as u64);
        self.metrics.observe(self.h_ampdu, taken as f64);

        // Per-MPDU delivery draws. The cache returns the exact
        // `mpdu_success_rate` value, so `1.0 - …` is bitwise what the
        // uncached expression produced (NOT `per_cache.error_rate`,
        // which differs in the last ulp from `1 - (1 - per)`).
        let per = 1.0 - self.per_cache.success_rate(snr_db - 1.0, rate.mcs);
        let mut delivered_count = 0usize;
        for (mpdu, enq) in staged.drain(..) {
            let delivered = !self.rng.chance(per);
            // Probe MPDUs carry their own flow id in the packed MPDU id;
            // for TCP (and UDP) MPDUs the hint equals `flow.0`.
            let mflow = CauseId(mpdu.id).flow_hint();
            self.flight.emit(
                "mac.tx",
                now,
                CauseId(mpdu.id),
                TraceRecord::MacTx {
                    flow: mflow,
                    seq: mpdu_seq(mpdu.id),
                    delivered,
                },
            );
            if !delivered {
                // MAC retransmission: back to the priority stage so it
                // leads the next TXOP for this client.
                self.aps[a].enqueue(slot, true, mpdu, enq);
                continue;
            }
            delivered_count += 1;
            // QoE probe delivery: hand the one-way delay to the client's
            // collector and record the receive side of the probe chain.
            // Probes carry no TCP payload, so they bypass the transport
            // and throughput accounting below (and the MAC-latency
            // figure samples, which measure the bulk workload).
            if !self.qoe.is_empty() {
                if let Some(pc) = qoe::probe_client(mflow) {
                    let seq = mpdu_seq(mpdu.id);
                    if self.qoe[pc].on_delivered(seq, now).is_some() {
                        self.flight.emit(
                            "qoe.rx",
                            now,
                            CauseId(mpdu.id),
                            TraceRecord::QoeProbe {
                                flow: mflow,
                                seq,
                                delay_ns: now.saturating_since(enq).as_nanos(),
                            },
                        );
                    }
                    continue;
                }
            }
            // 802.11 latency sample.
            self.report
                .mac_latencies
                .push(now.saturating_since(enq).as_secs_f64());

            if self.cfg.traffic == Traffic::UdpSaturate {
                self.clients[client_idx].bytes += (mpdu.bytes - 40) as u64;
                self.aps[a].bytes_delivered += (mpdu.bytes - 40) as u64;
                continue;
            }

            let seq = mpdu_seq(mpdu.id);
            // Every data MPDU is built with `bytes = seg.len + 40` (wire
            // ingress and local retransmits alike), so the segment
            // length is recovered from the MPDU itself — the old
            // `(flow, seq) → len` side map held exactly this value.
            let len = (mpdu.bytes - 40) as u32;

            // Bad hint: the MAC reports success but the transport never
            // sees the segment (FastACK-signal pathology; see field doc).
            let bad_hint = self.cfg.fastack[a] && self.rng.chance(self.cfg.bad_hint_rate);

            // FastACK observes the 802.11 ACK.
            let mut actions = std::mem::take(&mut self.act_buf);
            actions.clear();
            self.aps[a]
                .agent
                .on_mac_ack_into(flow, seq, len, &mut actions);
            for act in actions.drain(..) {
                self.record_action(&act, self.cfg.fastack[a], now);
                if let Action::SendAckUpstream(ack) = act {
                    self.queue
                        .schedule(now + self.cfg.wired_latency, Event::WireAck(ack));
                }
            }
            self.act_buf = actions;

            if bad_hint {
                continue;
            }

            // Deliver to the client's TCP receiver.
            let seg = DataSegment {
                flow,
                seq,
                len,
                retransmit: false,
            };
            let before = self.clients[client_idx].recv.delivered_bytes;
            let ack = self.clients[client_idx].recv.on_data(&seg, now);
            let after = self.clients[client_idx].recv.delivered_bytes;
            let newly = after - before;
            self.clients[client_idx].bytes += newly;
            self.aps[a].bytes_delivered += newly;
            if let Some(ack) = ack {
                self.push_client_ack(client_idx, ack, now);
            }
        }

        self.staged_buf = staged;
        self.raw_buf = raw;
        self.flight.emit(
            "mac.back",
            now,
            ampdu.cause(),
            TraceRecord::BlockAck {
                flow: flow.0,
                acked: u32::try_from(delivered_count).expect("BlockAck window"),
                lost: u32::try_from(taken - delivered_count).expect("BlockAck window"),
            },
        );

        if delivered_count == 0 {
            // Whole-PPDU loss: the BlockAck never came back; contention
            // treats it as a failed attempt (CW doubles).
            let exhausted = self.aps[a].backoff.on_failure();
            if exhausted {
                // Retry limit: drop this client's pending retransmissions
                // (rare at these SNRs; TCP recovers end-to-end). Dropped
                // QoE probes are terminal — report them to the collector
                // as lost. Draining equals the old `clear()` when no
                // probes are queued.
                while let Some((m, _)) = self.aps[a].prio[slot].pop_front() {
                    self.aps[a].backlog -= 1;
                    if self.qoe.is_empty() {
                        continue;
                    }
                    if let Some(pc) = qoe::probe_client(CauseId(m.id).flow_hint()) {
                        self.qoe[pc].on_lost(mpdu_seq(m.id));
                    }
                }
                self.aps[a].backoff.on_drop();
            }
        } else {
            self.aps[a].backoff.on_success();
        }
    }

    /// A client won a TXOP: transmit its queued TCP ACKs (coalesced into
    /// one short uplink burst).
    fn client_txop(&mut self, c: usize) {
        // All *released* pending ACKs ride one TXOP (they are tiny
        // frames); model airtime as one small A-MPDU at the client's
        // uplink rate.
        let now = self.queue.now();
        let n = self.clients[c]
            .ack_queue
            .iter()
            .take_while(|(rel, _)| *rel <= now)
            .count()
            .min(64);
        if n == 0 {
            self.clients[c].backoff.on_success();
            return;
        }
        let link = self.clients[c].link;
        // Uplink slightly worse; the interferer hits it too.
        let rate = self
            .rate_cache
            .select(link.max_nss, link.snr_db - 2.0 - self.snr_penalty(now));
        // Uniform 90-byte ACK MPDUs (TCP ACK + MAC overhead): the
        // airtime table computes the burst without building a sizes Vec.
        let dur = AirtimeTable::new(rate.mcs, rate.nss, self.cfg.width, GuardInterval::Short)
            .map(|t| t.ampdu_duration_uniform(n, 90))
            .unwrap_or(ack_duration());
        let air = dur + SIFS + block_ack_duration();
        // The uplink burst joins the chain of its head ACK.
        let burst_cause = self.clients[c]
            .ack_queue
            .front()
            .map_or(CauseId::NONE, |(_, ack)| ack.cause());
        let sp = self.metrics.enter(self.sp_client_txop, self.queue.now());
        self.occupy(air);
        self.metrics.exit(sp, self.queue.now());
        let now = self.queue.now();
        self.flight.emit(
            "air",
            now,
            burst_cause,
            TraceRecord::AirtimeSpan {
                kind: AirKind::ClientTxop,
                dur: air,
            },
        );

        let ap = self.clients[c].ap;
        for _ in 0..n {
            let (_, ack) = self.clients[c].ack_queue.pop_front().expect("n bounded");
            // TCP latency samples: the cumulative ACK covers every
            // pending data segment at or below it — pop the flow's
            // sorted deque from the front (same ascending order the old
            // map range walk produced).
            let lat = &mut self.tcp_lat_pending[(ack.flow.0 - 1) as usize];
            while let Some(&(end, t0)) = lat.front() {
                if end > ack.ack {
                    break;
                }
                lat.pop_front();
                self.report
                    .tcp_latencies
                    .push(now.saturating_since(t0).as_secs_f64());
            }
            let mut actions = std::mem::take(&mut self.act_buf);
            actions.clear();
            self.aps[ap].agent.on_client_ack_into(&ack, &mut actions);
            for act in actions.drain(..) {
                self.record_action(&act, self.cfg.fastack[ap], now);
                match act {
                    Action::SendAckUpstream(a2) => {
                        self.queue
                            .schedule(now + self.cfg.wired_latency, Event::WireAck(a2));
                    }
                    Action::LocalRetransmit(seg) => {
                        let slot = c % self.cfg.clients_per_ap;
                        let mpdu = QueuedMpdu {
                            id: mpdu_id(seg.flow, seg.seq),
                            bytes: seg.len as usize + 40,
                        };
                        self.aps[ap].enqueue(slot, true, mpdu, now);
                    }
                    _ => {}
                }
            }
            self.act_buf = actions;
        }
        self.clients[c].backoff.on_success();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(cfg: TestbedConfig, secs: u64) -> TestbedReport {
        Testbed::new(cfg).run(SimDuration::from_secs(secs))
    }

    #[test]
    fn single_client_moves_data() {
        let r = quick(
            TestbedConfig {
                clients_per_ap: 1,
                fastack: vec![true],
                ..TestbedConfig::default()
            },
            2,
        );
        assert!(r.client_bytes[0] > 1_000_000, "{:?}", r.client_bytes);
        assert!(r.total_mbps() > 50.0, "{}", r.total_mbps());
        assert!(r.medium_utilization > 0.1);
    }

    #[test]
    fn dense_run_schedules_into_the_queue_lane() {
        // Every wire event is scheduled at `now + wired_latency` off a
        // clock that only moves forward, so the event queue's sorted-run
        // lane must take (nearly) all of them; a schedule site that
        // breaks the pattern would quietly put the heap back on the
        // packet path.
        let mut tb = Testbed::new(TestbedConfig {
            n_aps: 2,
            clients_per_ap: 20,
            fastack: vec![true; 2],
            ..TestbedConfig::default()
        });
        tb.run_until(SimTime::ZERO + SimDuration::from_secs(2));
        let scheduled = tb.queue.stats().scheduled;
        let heap = tb.queue.heap_fallbacks();
        assert!(scheduled > 10_000, "only {scheduled} events scheduled");
        assert!(
            heap * 100 <= scheduled,
            "{heap} of {scheduled} events fell back to the heap"
        );
    }

    #[test]
    fn baseline_also_moves_data() {
        let r = quick(
            TestbedConfig {
                clients_per_ap: 1,
                fastack: vec![false],
                ..TestbedConfig::default()
            },
            2,
        );
        assert!(r.client_bytes[0] > 500_000, "{:?}", r.client_bytes);
        assert_eq!(r.agent_stats[0].fast_acks_sent, 0);
    }

    #[test]
    fn fastack_beats_baseline_with_many_clients() {
        let mk = |fa: bool| {
            quick(
                TestbedConfig {
                    clients_per_ap: 10,
                    fastack: vec![fa],
                    seed: 7,
                    ..TestbedConfig::default()
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
        let r = quick(
            TestbedConfig {
                clients_per_ap: 5,
                fastack: vec![true],
                ..TestbedConfig::default()
            },
            2,
        );
        let st = r.agent_stats[0];
        assert!(st.fast_acks_sent > 100, "{st:?}");
        assert!(st.client_acks_suppressed > 50, "{st:?}");
    }

    #[test]
    fn tcp_latency_exceeds_mac_latency() {
        // Fig. 10's core observation.
        let r = quick(
            TestbedConfig {
                clients_per_ap: 10,
                fastack: vec![false],
                ..TestbedConfig::default()
            },
            3,
        );
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
        let mac = mean(&r.mac_latencies);
        let tcp = mean(&r.tcp_latencies);
        assert!(!r.mac_latencies.is_empty() && !r.tcp_latencies.is_empty());
        assert!(tcp > mac, "tcp={tcp} mac={mac}");
    }

    #[test]
    fn bad_hints_trigger_local_retransmits() {
        let r = quick(
            TestbedConfig {
                clients_per_ap: 4,
                fastack: vec![true],
                bad_hint_rate: 0.05,
                seed: 3,
                ..TestbedConfig::default()
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
                clients_per_ap: 3,
                fastack: vec![true],
                upstream_loss: 0.02,
                seed: 5,
                ..TestbedConfig::default()
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

    #[test]
    fn cwnd_trace_is_recorded() {
        let r = quick(
            TestbedConfig {
                clients_per_ap: 2,
                fastack: vec![true],
                timeline: Some(TimelineConfig::sampling(SimDuration::from_millis(100))),
                ..TestbedConfig::default()
            },
            2,
        );
        assert!(r.cwnd_trace.len() >= 2 * 15, "{}", r.cwnd_trace.len());
        // cwnd grows over the run with FastACK.
        let last = r.cwnd_trace.iter().rev().find(|t| t.0 == 0).unwrap();
        assert!(last.2 > 10.0, "{last:?}");
    }

    /// The timeline's f64 cwnd series reproduces the legacy
    /// `cwnd_trace` points bit-for-bit: same instants (to the printed
    /// f64 second), same values, per flow — the acceptance criterion
    /// for retiring the ad-hoc cwnd sampler.
    #[test]
    fn timeline_cwnd_series_matches_cwnd_trace() {
        let r = quick(
            TestbedConfig {
                clients_per_ap: 2,
                fastack: vec![true],
                timeline: Some(TimelineConfig::sampling(SimDuration::from_millis(100))),
                ..TestbedConfig::default()
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
            let legacy: Vec<(f64, f64)> = r
                .cwnd_trace
                .iter()
                .filter(|t| t.0 == c)
                .map(|&(_, at, w)| (at, w))
                .collect();
            assert_eq!(series.len(), legacy.len(), "flow {c}");
            for ((at, w), (lat, lw)) in series.iter().zip(&legacy) {
                assert_eq!(at.as_nanos() as f64 / 1e9, *lat, "flow {c}");
                assert_eq!(w.to_bits(), lw.to_bits(), "flow {c}");
            }
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
                clients_per_ap: 3,
                fastack: vec![true],
                seed: 77,
                ..TestbedConfig::default()
            },
            2,
        );
        let mk = || {
            quick(
                TestbedConfig {
                    clients_per_ap: 3,
                    fastack: vec![true],
                    seed: 77,
                    timeline: Some(TimelineConfig::sampling(SimDuration::from_millis(50))),
                    ..TestbedConfig::default()
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

    #[test]
    fn udp_saturation_hits_the_blockack_window() {
        let r = quick(
            TestbedConfig {
                clients_per_ap: 5,
                fastack: vec![false],
                traffic: Traffic::UdpSaturate,
                ..TestbedConfig::default()
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
            clients_per_ap: 4,
            fastack: vec![true],
            seed: 99,
            ..TestbedConfig::default()
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
                clients_per_ap: 2,
                fastack: vec![true],
                seed: 17,
                ..TestbedConfig::default()
            },
            2,
        );
        assert_eq!(
            r.metrics.counter_value("trace.dropped"),
            Some(r.flight.total_dropped())
        );
        let chain = r.flight.chain(1);
        let has = |layer: &str| chain.iter().any(|(_, ev)| ev.record.layer() == layer);
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
                clients_per_ap: 1,
                fastack: vec![true],
                flight_capacity: 0,
                ..TestbedConfig::default()
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
                clients_per_ap: 4,
                fastack: vec![true],
                seed: 21,
                ..TestbedConfig::default()
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
        assert!(ap.calls > 0 && ap.total_time > sim::SimDuration::ZERO);
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
            .map(|s| s.total_time.as_nanos())
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
                clients_per_ap: 6,
                fastack: vec![true],
                seed: 42,
                ..TestbedConfig::default()
            },
            4,
        );
        assert!(r.health.steps > 10, "sampler never ran: {}", r.health.steps);
        assert!(r.health.alerts.is_empty(), "{:#?}", r.health.alerts);
    }

    #[test]
    fn health_rules_none_disables_the_engine() {
        let r = quick(
            TestbedConfig {
                clients_per_ap: 2,
                fastack: vec![true],
                health_rules: None,
                ..TestbedConfig::default()
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
            clients_per_ap: 6,
            fastack: vec![true],
            seed: 42,
            interferer: Some(InterfererFault::default()),
            ..TestbedConfig::default()
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
                chain.iter().any(|(_, ev)| ev.record.layer() == layer),
                "chain for flow {flow} is missing {layer}"
            );
        }
        // The interferer's airtime is itself on the record.
        assert!(r
            .flight
            .components
            .iter()
            .any(|c| c.records.iter().any(|ev| matches!(
                ev.record,
                TraceRecord::AirtimeSpan {
                    kind: AirKind::Interferer,
                    ..
                }
            ))));
        // And the health verdict is part of the determinism contract.
        let again = Testbed::new(cfg).run(SimDuration::from_secs(5));
        assert_eq!(r.health.to_json(), again.health.to_json());
    }

    // Three one-field configs the run loop's catch-up `while now >=
    // next { next += step }` loops cannot survive; `new` names the field
    // instead of letting `run` spin (or, for the probe rate, letting the
    // QoE windows ask for 160 GB).

    #[test]
    #[should_panic(expected = "health_rules.sample_every must be > 0")]
    fn zero_health_cadence_is_rejected_up_front() {
        let cfg = TestbedConfig {
            health_rules: Some(HealthRules {
                sample_every: SimDuration::ZERO,
                ..HealthRules::default()
            }),
            ..TestbedConfig::default()
        };
        let _ = Testbed::new(cfg).run(SimDuration::from_millis(100));
    }

    #[test]
    #[should_panic(expected = "interferer.period must be > 0")]
    fn zero_interferer_period_is_rejected_up_front() {
        let cfg = TestbedConfig {
            interferer: Some(InterfererFault {
                at: SimTime::from_millis(10),
                period: SimDuration::ZERO,
                ..InterfererFault::default()
            }),
            ..TestbedConfig::default()
        };
        let _ = Testbed::new(cfg).run(SimDuration::from_millis(100));
    }

    #[test]
    #[should_panic(expected = "qoe.pps = 2000000000 leaves a probe interval of 0 ns")]
    fn probe_rate_past_one_per_nanosecond_is_rejected_up_front() {
        let cfg = TestbedConfig {
            qoe: Some(qoe::ProbeConfig {
                pps: 2_000_000_000,
                ..qoe::ProbeConfig::default()
            }),
            ..TestbedConfig::default()
        };
        let _ = Testbed::new(cfg).run(SimDuration::from_millis(100));
    }

    #[test]
    fn qoe_probes_flow_and_score_on_a_clean_run() {
        let cfg = TestbedConfig {
            clients_per_ap: 4,
            fastack: vec![true],
            seed: 42,
            qoe: Some(qoe::ProbeConfig::default()),
            ..TestbedConfig::default()
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

    #[test]
    fn qoe_degrades_under_interference_with_probe_causal_chain() {
        // The QoE acceptance scenario: the interferer switches on
        // mid-run, probe delay/loss blow up, the worst client's score
        // collapses, and the alert's cause resolves to the probe flow's
        // own records.
        let cfg = TestbedConfig {
            clients_per_ap: 6,
            fastack: vec![true],
            seed: 42,
            interferer: Some(InterfererFault::default()),
            qoe: Some(qoe::ProbeConfig::default()),
            ..TestbedConfig::default()
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
                chain.iter().any(|(_, ev)| ev.record.layer() == layer),
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
}
