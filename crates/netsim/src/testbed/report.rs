//! What a testbed run hands back: [`TestbedReport`].

use sim::SimDuration;
use telemetry::{FlightDump, HealthReport, Registry, Timeline};

/// Latency samples in the order they were taken, as runs of equal
/// whole nanoseconds (`u32`, under 4.3 s): a segment run reaches the AP
/// at one instant and leaves under one BlockAck and one client ACK, so
/// about nine samples in ten repeat the one before. A longer sample is
/// a `u32::MAX` run whose exact nanoseconds wait, in order, in a side
/// list, so no sample is ever truncated.
#[derive(Debug, Clone, Default)]
pub struct LatencyLog {
    /// `(ns, count)`: `count` samples in a row of `ns` nanoseconds.
    runs: Vec<(u32, u32)>,
    /// The samples behind the `u32::MAX` runs, one per run, in order.
    long: Vec<u64>,
    len: usize,
}

impl LatencyLog {
    /// Append one sample: one more in the last run if it repeats that
    /// run's exact value and the run's count has room, else a new run.
    pub fn push(&mut self, d: SimDuration) {
        let exact = d.as_nanos();
        let ns = u32::try_from(exact).unwrap_or(u32::MAX);
        self.len += 1;
        if let Some((last, count)) = self.runs.last_mut() {
            let same = *last == ns && (ns != u32::MAX || self.long.last() == Some(&exact));
            if same && *count < u32::MAX {
                *count += 1;
                return;
            }
        }
        self.runs.push((ns, 1));
        if ns == u32::MAX {
            self.long.push(exact);
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Every sample in order, in seconds as [`SimDuration::as_secs_f64`] has it.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        let mut long = self.long.iter();
        self.runs.iter().flat_map(move |&(ns, count)| {
            let ns = match ns {
                u32::MAX => *long.next().expect("one long sample per marker run"),
                ns => u64::from(ns),
            };
            std::iter::repeat_n(SimDuration::from_nanos(ns).as_secs_f64(), count as usize)
        })
    }

    /// The mean sample in seconds (0 when empty), summed sample by
    /// sample in order: value × count would round differently.
    pub fn mean_s(&self) -> f64 {
        self.iter().sum::<f64>() / self.len.max(1) as f64
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
    /// 802.11 latency of every delivered non-probe MPDU (enqueue →
    /// BlockAck), in delivery order: the MPDUs of one BlockAck that
    /// were enqueued together are one run of the log.
    pub mac_latencies: LatencyLog,
    /// AP-observed TCP latency of every segment a client ACK covered
    /// (data forwarded → client ACK covering it arrives back at the
    /// AP), in ACK order — the §4.6.2 definition: the segments one ACK
    /// covers that were forwarded together are one run of the log.
    pub tcp_latencies: LatencyLog,
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Against the naive spec, the `Vec<f64>` of `as_secs_f64`
        /// samples the log replaced: the same bits in the same order,
        /// the same length and the same mean, over durations around
        /// the `u32` edge and up to `u64::MAX / 2` ns, with runs (of
        /// short samples, of long ones, equal or not) as common as in
        /// the testbed; and one run wherever the nanoseconds change.
        #[test]
        fn log_matches_f64_samples(ops in proptest::collection::vec(any::<u64>(), 0..200)) {
            let (mut log, mut spec) = (LatencyLog::default(), Vec::<f64>::new());
            let (mut runs, mut long_runs) = (0, 0);
            let edge = [0, 1, u64::from(u32::MAX - 1), u64::from(u32::MAX), 1 << 32];
            let mut prev = 0;
            for op in ops {
                let ns = match op % 10 {
                    k @ 0..=4 => edge[k as usize],
                    5 => u64::from((op >> 4) as u32),
                    6 => op >> 1,
                    _ => prev,
                };
                // A new run wherever the exact nanoseconds change.
                if spec.is_empty() || ns != prev {
                    runs += 1;
                    long_runs += usize::from(ns >= u64::from(u32::MAX));
                }
                prev = ns;
                let d = SimDuration::from_nanos(ns);
                log.push(d);
                spec.push(d.as_secs_f64());
            }
            prop_assert_eq!((log.len(), log.is_empty()), (spec.len(), spec.is_empty()));
            let bits: Vec<u64> = spec.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(log.iter().map(f64::to_bits).collect::<Vec<_>>(), bits);
            let mean = spec.iter().sum::<f64>() / spec.len().max(1) as f64;
            prop_assert_eq!(log.mean_s().to_bits(), mean.to_bits());
            prop_assert_eq!((log.runs.len(), log.long.len()), (runs, long_runs));
        }
    }

    /// A run holds up to `u32::MAX` samples, short or long, and the
    /// sample after a full run starts a new one.
    #[test]
    fn a_full_run_starts_another() {
        for exact in [7, u64::from(u32::MAX), 1 << 40] {
            let d = SimDuration::from_nanos(exact);
            let ns = u32::try_from(exact).unwrap_or(u32::MAX);
            let mut log = LatencyLog::default();
            log.push(d);
            // As if pushed `u32::MAX - 1` times.
            (log.runs[0].1, log.len) = (u32::MAX - 1, u32::MAX as usize - 1);
            log.push(d);
            assert_eq!(log.runs, [(ns, u32::MAX)]);
            log.push(d);
            assert_eq!(log.runs, [(ns, u32::MAX), (ns, 1)]);
            let long: &[u64] = if ns == u32::MAX { &[exact, exact] } else { &[] };
            assert_eq!(log.long, long);
            assert_eq!(log.len(), u32::MAX as usize + 1);
        }
    }
}
