//! What a testbed run hands back: [`TestbedReport`].

use telemetry::{FlightDump, HealthReport, Registry, Timeline};

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
