//! # qoe — application-layer quality-of-experience measurement
//!
//! The paper's premise is that radio-level counters are poor proxies
//! for what users experience. This crate closes the gap with a
//! netpoke-style synthetic probe pipeline:
//!
//! * **Probe flows** — fixed-rate small-packet streams injected per
//!   client next to the bulk TCP workload. Every probe carries a send
//!   timestamp and a sequence number, so the receiving side computes
//!   one-way delay, jitter (RFC 3550 §6.4.1 EWMA), loss, and
//!   reordering deterministically from sim time alone. Probe flow ids
//!   live in their own range ([`PROBE_FLOW_BASE`]) so they share the
//!   flight recorder's `CauseId` packing without colliding with TCP
//!   flow ids.
//! * **Scoring** — per-client rolling windows (1 s / 10 s / 60 s at
//!   the configured probe rate) summarized as min/p50/p99/max per
//!   dimension and reduced to a 0–100 [`score`] via a documented
//!   piecewise penalty model.
//! * **Rollups** — [`QoeRollup`] aggregates per-network scores fleet
//!   wide (worst-N networks, alert counts by rule) with byte-stable
//!   JSON for the determinism contract shared by every snapshot type
//!   in the stack.
//!
//! Everything here is a pure function of the observation sequence: no
//! wall clock, no OS entropy, no iteration over unordered maps.

use sim::{SimDuration, SimTime};
use std::collections::{BTreeMap, VecDeque};
use telemetry::health::HealthReport;
use telemetry::json::{f64_exact, write_str};
use telemetry::stats::quantile_sorted;
use telemetry::streaming::RollingWindow;

/// First probe flow id. Probe ids must fit the flight recorder's
/// 16-bit flow field of [`telemetry::cause_for`]; TCP flows are
/// `1..=n_clients`, so a disjoint high range keeps the two spaces
/// separable by a single comparison.
pub const PROBE_FLOW_BASE: u64 = 0x4000;

/// Probe flow id for client index `c`.
pub fn probe_flow(client: usize) -> u64 {
    PROBE_FLOW_BASE + client as u64
}

/// Inverse of [`probe_flow`]; `None` for non-probe flows.
pub fn probe_client(flow: u64) -> Option<usize> {
    flow.checked_sub(PROBE_FLOW_BASE).map(|c| c as usize)
}

/// Is `flow` a probe flow id?
pub fn is_probe_flow(flow: u64) -> bool {
    flow >= PROBE_FLOW_BASE
}

/// Rolling-window spans, shortest first. Window capacities are
/// `pps * secs` samples, so a span covers its nominal wall of sim
/// time at the configured probe rate.
pub const WINDOW_SECS: [u64; 3] = [1, 10, 60];

/// Index into [`WINDOW_SECS`] of the span driving operational scoring
/// (gauges, the `QoeDegraded` detector): long enough to smooth single
/// TXOP hiccups, short enough to track a real fault within seconds.
pub const OPERATIONAL_WINDOW: usize = 1;

/// Probe payload, bytes (MAC/IP overhead is the host's concern).
pub const PROBE_PAYLOAD_BYTES: u32 = 200;

/// Synthetic probe-flow shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeConfig {
    /// Probes per second per client.
    pub pps: u64,
}

impl Default for ProbeConfig {
    fn default() -> ProbeConfig {
        ProbeConfig { pps: 50 }
    }
}

impl ProbeConfig {
    /// Inter-probe interval per client.
    pub fn interval(&self) -> SimDuration {
        SimDuration::from_nanos(1_000_000_000 / self.pps.max(1))
    }

    /// Window capacity in samples for span `w` (see [`WINDOW_SECS`]).
    pub fn window_cap(&self, w: usize) -> usize {
        (self.pps.max(1) * WINDOW_SECS[w]) as usize
    }
}

/// Order statistics of one dimension over one rolling window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DimSummary {
    pub min: f64,
    pub p50: f64,
    pub p99: f64,
    pub max: f64,
}

/// `win`'s p50 and p99, `None` while it is empty: two reads of its
/// sorted mirror when `mirrored`, else one sorted copy of its ring.
fn p50_p99(win: &RollingWindow, mirrored: bool) -> Option<(f64, f64)> {
    if mirrored {
        return Some((win.quantile(0.5)?, win.quantile(0.99)?));
    }
    let mut sorted = win.values();
    sorted.sort_by(f64::total_cmp);
    let at = |q| quantile_sorted(&sorted, q);
    (!sorted.is_empty()).then(|| (at(0.5), at(0.99)))
}

/// One window span's summary: delay/jitter order statistics plus loss
/// and reordering rates, reduced to the piecewise-penalty score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QoeSummary {
    /// Delivered probes currently inside the delay window.
    pub samples: usize,
    pub delay_ms: Option<DimSummary>,
    pub jitter_ms: Option<DimSummary>,
    /// Fraction of terminal probe outcomes in-window that were losses.
    pub loss: f64,
    /// Fraction of in-window deliveries that arrived out of order.
    pub reorder: f64,
    /// The 0–100 score (see [`score`]).
    pub score: f64,
}

/// The dimensions the penalty model scores.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QoeDims {
    pub delay_p50_ms: f64,
    pub delay_p99_ms: f64,
    pub jitter_p50_ms: f64,
    /// Loss fraction in `[0, 1]`.
    pub loss: f64,
    /// Reordering fraction in `[0, 1]`.
    pub reorder: f64,
}

/// Linear ramp: 0 penalty at or below `lo`, `max_pen` at or above
/// `hi`, linear between. The building block of the penalty model.
fn ramp(x: f64, lo: f64, hi: f64, max_pen: f64) -> f64 {
    if x <= lo {
        0.0
    } else if x >= hi {
        max_pen
    } else {
        (x - lo) / (hi - lo) * max_pen
    }
}

/// The documented piecewise penalty model: start from 100, subtract a
/// capped linear penalty per dimension, clamp to `[0, 100]`.
///
/// | dimension | free below | max penalty at | penalty |
/// |---|---|---|---|
/// | delay p50 | 20 ms | 200 ms | 25 |
/// | delay p99 | 50 ms | 400 ms | 25 |
/// | jitter p50 | 5 ms | 50 ms | 20 |
/// | loss | 0 % | 10 % | 40 |
/// | reorder | 1 % | 20 % | 10 |
///
/// The knees follow the paper's latency story: Fig. 8 puts the
/// healthy AP-observed TCP p50 well under 20 ms, while the >200 ms
/// regime is where §4.6.2 calls sessions visibly degraded; 10 % probe
/// loss makes interactive traffic unusable regardless of delay, so it
/// alone can push a client into the critical band.
pub fn score(d: &QoeDims) -> f64 {
    let pen = ramp(d.delay_p50_ms, 20.0, 200.0, 25.0)
        + ramp(d.delay_p99_ms, 50.0, 400.0, 25.0)
        + ramp(d.jitter_p50_ms, 5.0, 50.0, 20.0)
        + ramp(d.loss, 0.0, 0.10, 40.0)
        + ramp(d.reorder, 0.01, 0.20, 10.0);
    (100.0 - pen).clamp(0.0, 100.0)
}

/// One rolling-window span: per-dimension sample windows sized for
/// the span's nominal duration at the probe rate.
#[derive(Debug, Clone)]
struct SpanWindows {
    delay_ms: RollingWindow,
    jitter_ms: RollingWindow,
    /// Terminal outcomes: lost (`true`) or delivered.
    outcome: RateWindow,
    /// Delivery order: out of order (`true`) or in order.
    order: RateWindow,
}

impl SpanWindows {
    /// Span `w`'s windows, `cap` samples each. Only the operational
    /// span's delay and jitter keep a sorted mirror: the health tick
    /// reads their p50/p99 for every client on every step. The other
    /// spans are read once, by the end-of-run report, from one sorted
    /// copy of each ring ([`p50_p99`]).
    fn new(w: usize, cap: usize) -> SpanWindows {
        let ring = if w == OPERATIONAL_WINDOW {
            RollingWindow::with_quantiles
        } else {
            RollingWindow::new
        };
        SpanWindows {
            delay_ms: ring(cap),
            jitter_ms: ring(cap),
            outcome: RateWindow::new(cap),
            order: RateWindow::new(cap),
        }
    }
}

/// A ring of yes/no outcomes and a running count of the yeses. Its
/// rate, `yes / len`, has the bits a ring of 1.0s and 0.0s had for its
/// mean: sums of ones and zeros are exact.
#[derive(Debug, Clone)]
struct RateWindow {
    capacity: usize,
    ring: VecDeque<bool>,
    yes: usize,
}

impl RateWindow {
    fn new(capacity: usize) -> RateWindow {
        RateWindow {
            capacity,
            ring: VecDeque::new(),
            yes: 0,
        }
    }

    /// Append an outcome, evicting the oldest at capacity.
    fn push(&mut self, yes: bool) {
        if self.ring.len() == self.capacity && self.ring.pop_front() == Some(true) {
            self.yes -= 1;
        }
        self.ring.push_back(yes);
        self.yes += usize::from(yes);
    }

    /// The share of yeses, 0 while empty.
    fn rate(&self) -> f64 {
        if self.ring.is_empty() {
            0.0
        } else {
            self.yes as f64 / self.ring.len() as f64
        }
    }
}

/// Per-client probe-flow receiver state: pending sends, RFC 3550
/// jitter, cumulative counts, and the three window spans.
#[derive(Debug, Clone)]
pub struct ClientQoe {
    /// Sequence number of `pending`'s front slot.
    base: u64,
    /// Send instant of each probe from `base` on, `None` once settled
    /// (delivered or lost); settled slots pop off the front.
    pending: VecDeque<Option<SimTime>>,
    /// Highest sequence delivered so far.
    highest: Option<u64>,
    /// Previous delivery's one-way delay (RFC 3550 transit), ms.
    prev_delay_ms: Option<f64>,
    /// RFC 3550 §6.4.1 interarrival jitter estimate, ms.
    jitter_ms: f64,
    pub sent: u64,
    pub delivered: u64,
    pub lost: u64,
    pub reordered: u64,
    spans: Vec<SpanWindows>,
}

impl ClientQoe {
    pub fn new(cfg: &ProbeConfig) -> ClientQoe {
        ClientQoe {
            base: 0,
            pending: VecDeque::new(),
            highest: None,
            prev_delay_ms: None,
            jitter_ms: 0.0,
            sent: 0,
            delivered: 0,
            lost: 0,
            reordered: 0,
            spans: (0..WINDOW_SECS.len())
                .map(|w| SpanWindows::new(w, cfg.window_cap(w)))
                .collect(),
        }
    }

    /// Record a probe injection at `at`; returns the assigned sequence
    /// number (strictly increasing from 0).
    pub fn on_sent(&mut self, at: SimTime) -> u64 {
        let seq = self.base + self.pending.len() as u64;
        self.pending.push_back(Some(at));
        self.sent += 1;
        seq
    }

    /// Settle probe `seq`: its send instant, or `None` when it was never
    /// sent or is settled already.
    fn settle(&mut self, seq: u64) -> Option<SimTime> {
        let i = usize::try_from(seq.checked_sub(self.base)?).ok()?;
        let at = self.pending.get_mut(i)?.take()?;
        while self.pending.front() == Some(&None) {
            self.pending.pop_front();
            self.base += 1;
        }
        Some(at)
    }

    /// Record delivery of probe `seq` at `now`. Returns the one-way
    /// delay in ms, or `None` for an unknown/duplicate sequence.
    pub fn on_delivered(&mut self, seq: u64, now: SimTime) -> Option<f64> {
        let sent_at = self.settle(seq)?;
        self.delivered += 1;
        let delay_ms = now.saturating_since(sent_at).as_secs_f64() * 1e3;
        // RFC 3550 §6.4.1: J += (|D| - J) / 16 where D is the
        // transit-time difference between consecutive arrivals. With
        // synchronized sim clocks the transit IS the one-way delay.
        if let Some(prev) = self.prev_delay_ms {
            let d = (delay_ms - prev).abs();
            self.jitter_ms += (d - self.jitter_ms) / 16.0;
        }
        self.prev_delay_ms = Some(delay_ms);
        let out_of_order = self.highest.is_some_and(|h| seq < h);
        if out_of_order {
            self.reordered += 1;
        } else {
            self.highest = Some(seq);
        }
        let jitter = self.jitter_ms;
        for s in &mut self.spans {
            s.delay_ms.push(delay_ms);
            s.jitter_ms.push(jitter);
            s.outcome.push(false);
            s.order.push(out_of_order);
        }
        Some(delay_ms)
    }

    /// Record terminal loss of probe `seq` (MAC retry exhaustion).
    /// Unknown sequences are ignored. Probes still in flight when a run
    /// ends are not lost: they stay [`outstanding`](ClientQoe::outstanding).
    pub fn on_lost(&mut self, seq: u64) {
        if self.settle(seq).is_none() {
            return;
        }
        self.lost += 1;
        for s in &mut self.spans {
            s.outcome.push(true);
        }
    }

    /// Probes sent but neither delivered nor lost yet, counted off the
    /// ring: `sent == delivered + lost + outstanding()`.
    pub fn outstanding(&self) -> u64 {
        self.pending.iter().flatten().count() as u64
    }

    /// Span `w`'s delay and jitter `(p50, p99)`, `None` while empty.
    fn quantiles(&self, w: usize) -> [Option<(f64, f64)>; 2] {
        let s = &self.spans[w];
        [&s.delay_ms, &s.jitter_ms].map(|win| p50_p99(win, w == OPERATIONAL_WINDOW))
    }

    /// The scored dimensions of span `w`, given its `quantiles` (0
    /// where a window is empty).
    fn dims(&self, w: usize, [delay, jitter]: [Option<(f64, f64)>; 2]) -> QoeDims {
        let s = &self.spans[w];
        QoeDims {
            delay_p50_ms: delay.map_or(0.0, |(p50, _)| p50),
            delay_p99_ms: delay.map_or(0.0, |(_, p99)| p99),
            jitter_p50_ms: jitter.map_or(0.0, |(p50, _)| p50),
            loss: s.outcome.rate(),
            reorder: s.order.rate(),
        }
    }

    /// Summarize window span `w` (index into [`WINDOW_SECS`]).
    pub fn summary(&self, w: usize) -> QoeSummary {
        let s = &self.spans[w];
        let [delay, jitter] = self.quantiles(w);
        let dims = self.dims(w, [delay, jitter]);
        let dim = |win: &RollingWindow, q: Option<(f64, f64)>| {
            let (p50, p99) = q?;
            Some(DimSummary {
                min: win.min()?,
                p50,
                p99,
                max: win.max()?,
            })
        };
        QoeSummary {
            samples: s.delay_ms.len(),
            delay_ms: dim(&s.delay_ms, delay),
            jitter_ms: dim(&s.jitter_ms, jitter),
            loss: dims.loss,
            reorder: dims.reorder,
            score: score(&dims),
        }
    }

    /// The 0–100 score over window span `w`. A client with no
    /// observations yet scores 100 (no evidence of degradation).
    /// Skips the min/max folds only [`ClientQoe::summary`] reports; on
    /// the operational span it reads four mirror entries and two
    /// running counts and allocates nothing.
    pub fn score(&self, w: usize) -> f64 {
        score(&self.dims(w, self.quantiles(w)))
    }
}

/// End-of-run per-client record, embedded in host reports.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientReport {
    pub client: usize,
    pub sent: u64,
    pub delivered: u64,
    pub lost: u64,
    pub reordered: u64,
    /// One summary per [`WINDOW_SECS`] span.
    pub windows: Vec<QoeSummary>,
}

impl ClientReport {
    pub fn from_qoe(client: usize, q: &ClientQoe) -> ClientReport {
        ClientReport {
            client,
            sent: q.sent,
            delivered: q.delivered,
            lost: q.lost,
            reordered: q.reordered,
            windows: (0..WINDOW_SECS.len()).map(|w| q.summary(w)).collect(),
        }
    }

    /// The operational-window score (what the detector watched).
    pub fn score(&self) -> f64 {
        self.windows[OPERATIONAL_WINDOW].score
    }
}

// ---------------------------------------------------------------------
// fleet rollup
// ---------------------------------------------------------------------

/// Fleet-wide QoE rollup: worst-N networks by score, score bands, and
/// alert counts by rule across every member's health report. Built
/// from per-network results in id order, so it is byte-identical for
/// any worker-thread count.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QoeRollup {
    /// Networks rolled up.
    pub n: u64,
    pub mean_score: f64,
    /// Score < 70: noticeably degraded.
    pub degraded: u64,
    /// Score < 50: unusable for interactive traffic.
    pub critical: u64,
    /// `(rule, count)` over every member's alerts, sorted by rule.
    pub by_rule: Vec<(String, u64)>,
    /// `(label, score)` ascending by score, truncated to worst-N.
    pub worst: Vec<(String, f64)>,
}

impl QoeRollup {
    /// Roll up `(label, score, health)` triples. Caller supplies
    /// members in a deterministic order; ties in score keep that
    /// order.
    pub fn rollup<'a, I>(members: I, n_worst: usize) -> QoeRollup
    where
        I: IntoIterator<Item = (String, f64, &'a HealthReport)>,
    {
        let mut n = 0u64;
        let mut sum = 0.0;
        let mut degraded = 0u64;
        let mut critical = 0u64;
        let mut by_rule: BTreeMap<String, u64> = BTreeMap::new();
        let mut all: Vec<(String, f64)> = Vec::new();
        for (label, score, health) in members {
            n += 1;
            sum += score;
            if score < 70.0 {
                degraded += 1;
            }
            if score < 50.0 {
                critical += 1;
            }
            for a in &health.alerts {
                *by_rule.entry(a.rule.clone()).or_insert(0) += 1;
            }
            all.push((label, score));
        }
        // Stable sort: equal scores keep the caller's (id) order.
        all.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        all.truncate(n_worst);
        QoeRollup {
            n,
            mean_score: if n == 0 { 0.0 } else { sum / n as f64 },
            degraded,
            critical,
            by_rule: by_rule.into_iter().collect(),
            worst: all,
        }
    }

    /// Canonical byte-stable JSON (fixed key order, `{:?}` floats —
    /// the same conventions as every snapshot type in the stack).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"qoe\":{");
        out.push_str(&format!("\"n\":{},", self.n));
        out.push_str(&format!("\"mean_score\":{},", f64_exact(self.mean_score)));
        out.push_str(&format!("\"degraded\":{},", self.degraded));
        out.push_str(&format!("\"critical\":{},", self.critical));
        out.push_str("\"by_rule\":[");
        for (i, (rule, count)) in self.by_rule.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            write_str(&mut out, rule);
            out.push_str(&format!(",{count}]"));
        }
        out.push_str("],\"worst\":[");
        for (i, (label, score)) in self.worst.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            write_str(&mut out, label);
            out.push_str(&format!(",{}]", f64_exact(*score)));
        }
        out.push_str("]}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn cfg() -> ProbeConfig {
        ProbeConfig::default()
    }

    #[test]
    fn flow_id_packing_roundtrips() {
        assert_eq!(probe_client(probe_flow(7)), Some(7));
        assert!(is_probe_flow(probe_flow(0)));
        assert!(!is_probe_flow(1));
        // Probe flows must survive the 16-bit CauseId flow field.
        let id = telemetry::cause_for(probe_flow(12), 345);
        assert_eq!(id.flow_hint(), probe_flow(12));
        assert_eq!(id.seq_hint(), 345);
    }

    #[test]
    fn perfect_stream_scores_100() {
        let mut q = ClientQoe::new(&cfg());
        let mut at = SimTime::ZERO;
        for _ in 0..100 {
            let seq = q.on_sent(at);
            q.on_delivered(seq, at + SimDuration::from_millis(5));
            at += SimDuration::from_millis(20);
        }
        assert_eq!(q.delivered, 100);
        assert_eq!(q.lost, 0);
        for w in 0..WINDOW_SECS.len() {
            let s = q.summary(w);
            assert_eq!(s.score, 100.0, "window {w}: {s:?}");
            assert_eq!(s.loss, 0.0);
            assert!(s.jitter_ms.unwrap().max < 1e-9);
        }
    }

    #[test]
    fn empty_collector_scores_100_with_no_samples() {
        let q = ClientQoe::new(&cfg());
        let s = q.summary(OPERATIONAL_WINDOW);
        assert_eq!(s.samples, 0);
        assert_eq!(s.score, 100.0);
        assert!(s.delay_ms.is_none());
    }

    #[test]
    fn penalty_model_knees() {
        let base = QoeDims::default();
        assert_eq!(score(&base), 100.0);
        // Each dimension alone at its max-penalty point.
        let d = QoeDims {
            delay_p50_ms: 200.0,
            ..base
        };
        assert_eq!(score(&d), 75.0);
        let d = QoeDims {
            delay_p99_ms: 400.0,
            ..base
        };
        assert_eq!(score(&d), 75.0);
        let d = QoeDims {
            jitter_p50_ms: 50.0,
            ..base
        };
        assert_eq!(score(&d), 80.0);
        let d = QoeDims { loss: 0.10, ..base };
        assert_eq!(score(&d), 60.0);
        let d = QoeDims {
            reorder: 0.20,
            ..base
        };
        assert_eq!(score(&d), 90.0);
        // Midpoint of a ramp is half the penalty.
        let d = QoeDims {
            delay_p50_ms: 110.0,
            ..base
        };
        assert_eq!(score(&d), 87.5);
        // Everything saturated clamps at 0.
        let d = QoeDims {
            delay_p50_ms: 1e9,
            delay_p99_ms: 1e9,
            jitter_p50_ms: 1e9,
            loss: 1.0,
            reorder: 1.0,
        };
        assert_eq!(score(&d), 0.0);
    }

    #[test]
    fn score_is_monotone_in_each_dimension() {
        let worse = |a: QoeDims, b: QoeDims| assert!(score(&b) <= score(&a), "{a:?} vs {b:?}");
        let base = QoeDims {
            delay_p50_ms: 30.0,
            delay_p99_ms: 80.0,
            jitter_p50_ms: 8.0,
            loss: 0.01,
            reorder: 0.02,
        };
        for f in [
            (|d: &mut QoeDims| d.delay_p50_ms += 50.0) as fn(&mut QoeDims),
            |d| d.delay_p99_ms += 50.0,
            |d| d.jitter_p50_ms += 5.0,
            |d| d.loss += 0.03,
            |d| d.reorder += 0.05,
        ] {
            let mut b = base;
            f(&mut b);
            worse(base, b);
        }
    }

    #[test]
    fn rfc3550_jitter_matches_hand_computation() {
        let mut q = ClientQoe::new(&cfg());
        // Delays 10, 14, 8 ms: D1=4, J=4/16=0.25; D2=6, J=0.25+(6-0.25)/16.
        let mut at = SimTime::ZERO;
        for delay_ms in [10u64, 14, 8] {
            let seq = q.on_sent(at);
            q.on_delivered(seq, at + SimDuration::from_millis(delay_ms));
            at += SimDuration::from_millis(20);
        }
        let expect = 0.25 + (6.0 - 0.25) / 16.0;
        assert!((q.jitter_ms - expect).abs() < 1e-12, "{}", q.jitter_ms);
    }

    #[test]
    fn loss_and_reorder_are_counted() {
        let mut q = ClientQoe::new(&cfg());
        let at = SimTime::ZERO;
        let s0 = q.on_sent(at);
        let s1 = q.on_sent(at);
        let s2 = q.on_sent(at);
        let s3 = q.on_sent(at);
        q.on_delivered(s1, at + SimDuration::from_millis(5));
        // s0 arrives after s1: reordered.
        q.on_delivered(s0, at + SimDuration::from_millis(6));
        q.on_lost(s2);
        q.on_delivered(s3, at + SimDuration::from_millis(7));
        assert_eq!((q.delivered, q.lost, q.reordered), (3, 1, 1));
        let s = q.summary(OPERATIONAL_WINDOW);
        assert!((s.loss - 0.25).abs() < 1e-12, "{s:?}");
        assert!((s.reorder - 1.0 / 3.0).abs() < 1e-12, "{s:?}");
        // Duplicate delivery and unknown loss are ignored.
        assert_eq!(q.on_delivered(s1, at + SimDuration::from_millis(9)), None);
        q.on_lost(999);
        assert_eq!((q.delivered, q.lost), (3, 1));
    }

    #[test]
    fn degraded_stream_scores_low() {
        let mut q = ClientQoe::new(&cfg());
        let mut at = SimTime::ZERO;
        for i in 0..200u64 {
            let seq = q.on_sent(at);
            if i % 5 == 0 {
                q.on_lost(seq); // 20 % loss
            } else {
                // 150-450 ms delays with heavy swing.
                let d = 150 + (i % 4) * 100;
                q.on_delivered(seq, at + SimDuration::from_millis(d));
            }
            at += SimDuration::from_millis(20);
        }
        let s = q.summary(OPERATIONAL_WINDOW);
        assert!(s.score < 50.0, "{s:?}");
    }

    #[test]
    fn client_report_captures_all_windows() {
        let mut q = ClientQoe::new(&cfg());
        let seq = q.on_sent(SimTime::ZERO);
        q.on_delivered(seq, SimTime::from_millis(3));
        let r = ClientReport::from_qoe(4, &q);
        assert_eq!(r.client, 4);
        assert_eq!(r.windows.len(), WINDOW_SECS.len());
        assert_eq!(r.score(), r.windows[OPERATIONAL_WINDOW].score);
        assert_eq!(r.sent, 1);
    }

    #[test]
    fn rollup_orders_worst_first_and_counts_bands() {
        let h = HealthReport::default();
        let members = vec![
            ("net0".to_string(), 95.0, &h),
            ("net1".to_string(), 45.0, &h),
            ("net2".to_string(), 65.0, &h),
            ("net3".to_string(), 80.0, &h),
        ];
        let r = QoeRollup::rollup(members, 2);
        assert_eq!(r.n, 4);
        assert_eq!(r.degraded, 2);
        assert_eq!(r.critical, 1);
        assert_eq!(r.worst.len(), 2);
        assert_eq!(r.worst[0].0, "net1");
        assert_eq!(r.worst[1].0, "net2");
        assert!((r.mean_score - 71.25).abs() < 1e-12);
    }

    #[test]
    fn rollup_json_roundtrips_byte_stable() {
        let mut h = HealthReport::default();
        h.alerts.push(telemetry::Alert {
            rule: "qoe-degraded".into(),
            component: "ap0".into(),
            severity: telemetry::Severity::Critical,
            raised_at: SimTime::from_millis(100),
            cleared_at: None,
            cause: None,
            value: 55.0,
            threshold: 40.0,
        });
        let members = vec![
            ("net0".to_string(), 88.5, &h),
            ("net\"1".to_string(), 42.25, &h),
        ];
        let r = QoeRollup::rollup(members, 8);
        let js = r.to_json();
        assert_eq!(
            js,
            "{\"qoe\":{\"n\":2,\"mean_score\":65.375,\"degraded\":1,\"critical\":1,\
             \"by_rule\":[[\"qoe-degraded\",2]],\"worst\":[[\"net\\\"1\",42.25],[\"net0\",88.5]]}}"
        );
        // Valid JSON that reads back to the same numbers and labels.
        let v = telemetry::json::parse(&js).expect("valid JSON");
        let q = v.get("qoe").expect("qoe object");
        assert_eq!(
            q.get("mean_score").and_then(|x| x.as_f64()),
            Some(r.mean_score)
        );
        let worst = q.get("worst").and_then(|x| x.as_arr()).expect("worst list");
        assert_eq!(worst[0].as_arr().unwrap()[0].as_str(), Some("net\"1"));
    }

    /// What `ClientQoe` must compute, spelled out naively: every sample
    /// pushed per dimension is kept, and a span's summary copies the
    /// last `cap` of them and sorts the copy for each order statistic.
    #[derive(Default)]
    struct ReferenceQoe {
        next_seq: u64,
        pending: BTreeMap<u64, SimTime>,
        highest: Option<u64>,
        prev_delay_ms: Option<f64>,
        jitter: f64,
        delay_ms: Vec<f64>,
        jitter_ms: Vec<f64>,
        outcome: Vec<f64>,
        order: Vec<f64>,
    }

    impl ReferenceQoe {
        fn on_sent(&mut self, at: SimTime) -> u64 {
            self.pending.insert(self.next_seq, at);
            self.next_seq += 1;
            self.next_seq - 1
        }

        fn on_delivered(&mut self, seq: u64, now: SimTime) {
            let Some(sent_at) = self.pending.remove(&seq) else {
                return;
            };
            let delay_ms = now.saturating_since(sent_at).as_secs_f64() * 1e3;
            if let Some(prev) = self.prev_delay_ms {
                self.jitter += ((delay_ms - prev).abs() - self.jitter) / 16.0;
            }
            self.prev_delay_ms = Some(delay_ms);
            let out_of_order = self.highest.is_some_and(|h| seq < h);
            if !out_of_order {
                self.highest = Some(seq);
            }
            self.delay_ms.push(delay_ms);
            self.jitter_ms.push(self.jitter);
            self.outcome.push(0.0);
            self.order.push(if out_of_order { 1.0 } else { 0.0 });
        }

        fn on_lost(&mut self, seq: u64) {
            if self.pending.remove(&seq).is_some() {
                self.outcome.push(1.0);
            }
        }

        fn summary(&self, cap: usize) -> QoeSummary {
            let tail = |all: &[f64]| all[all.len().saturating_sub(cap)..].to_vec();
            let dim = |all: &[f64]| {
                let w = tail(all);
                Some(DimSummary {
                    min: w.iter().copied().reduce(f64::min)?,
                    p50: telemetry::stats::quantile(&w, 0.5)?,
                    p99: telemetry::stats::quantile(&w, 0.99)?,
                    max: w.iter().copied().reduce(f64::max)?,
                })
            };
            let mean = |all: &[f64]| {
                let w = tail(all);
                if w.is_empty() {
                    0.0
                } else {
                    w.iter().sum::<f64>() / w.len() as f64
                }
            };
            let (delay, jitter) = (dim(&self.delay_ms), dim(&self.jitter_ms));
            let (loss, reorder) = (mean(&self.outcome), mean(&self.order));
            QoeSummary {
                samples: tail(&self.delay_ms).len(),
                delay_ms: delay,
                jitter_ms: jitter,
                loss,
                reorder,
                score: score(&QoeDims {
                    delay_p50_ms: delay.map_or(0.0, |d| d.p50),
                    delay_p99_ms: delay.map_or(0.0, |d| d.p99),
                    jitter_p50_ms: jitter.map_or(0.0, |d| d.p50),
                    loss,
                    reorder,
                }),
            }
        }
    }

    /// A summary as the bit patterns of its fields, so `-0.0` vs `0.0`
    /// or a one-ulp interpolation difference cannot hide behind `==`.
    fn summary_bits(s: &QoeSummary) -> Vec<u64> {
        let dim = |d: Option<DimSummary>| match d {
            None => vec![0],
            Some(d) => vec![
                1,
                d.min.to_bits(),
                d.p50.to_bits(),
                d.p99.to_bits(),
                d.max.to_bits(),
            ],
        };
        let mut out = vec![s.samples as u64];
        out.extend(dim(s.delay_ms));
        out.extend(dim(s.jitter_ms));
        out.extend([s.loss.to_bits(), s.reorder.to_bits(), s.score.to_bits()]);
        out
    }

    proptest! {
        /// Every field of every span's summary equals the naive
        /// copy-and-sort reference, bit for bit, under arbitrary
        /// interleavings of sends, deliveries and losses — reordered,
        /// duplicate and never-sent sequence numbers included, and the
        /// edges of the pending set: at and just below the oldest probe
        /// still pending, and past the newest one sent.
        #[test]
        fn summaries_match_copy_and_sort_reference(
            pps in 1u64..4,
            ops in vec(0u32..4_000_000, 1..350),
        ) {
            let cfg = ProbeConfig { pps };
            let mut q = ClientQoe::new(&cfg);
            let mut r = ReferenceQoe::default();
            let mut now = SimTime::ZERO;
            for (i, &op) in ops.iter().enumerate() {
                now += SimDuration::from_micros(u64::from(op / 8 % 9_000));
                let x = u64::from(op / 32);
                let oldest = r.pending.keys().next().copied().unwrap_or(r.next_seq);
                let seq = match op / 8 % 4 {
                    // Any sequence up to two past the newest one sent.
                    0 | 1 => x % (r.next_seq + 2),
                    // The oldest pending probe, or one or two below it.
                    2 => oldest.saturating_sub(x % 3),
                    // Past the newest one sent, up to the end of the space.
                    _ if x % 4 == 0 => u64::MAX,
                    _ => r.next_seq + x % 3,
                };
                match op % 8 {
                    0..=3 => prop_assert_eq!(q.on_sent(now), r.on_sent(now)),
                    4..=6 => {
                        q.on_delivered(seq, now);
                        r.on_delivered(seq, now);
                    }
                    _ => {
                        q.on_lost(seq);
                        r.on_lost(seq);
                    }
                }
                prop_assert_eq!(q.outstanding(), r.pending.len() as u64);
                if i % 7 == 0 || i + 1 == ops.len() {
                    for w in 0..WINDOW_SECS.len() {
                        let want = r.summary(cfg.window_cap(w));
                        prop_assert_eq!(
                            summary_bits(&q.summary(w)),
                            summary_bits(&want),
                            "span {} after op {}", w, i
                        );
                        prop_assert_eq!(q.score(w).to_bits(), want.score.to_bits());
                    }
                }
            }
        }
    }
}
