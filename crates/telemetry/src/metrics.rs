//! Deterministic, allocation-light metrics registry + sim-time profiler.
//!
//! The paper's evaluation is measurement-driven: every figure is a
//! counter, CDF or latency distribution harvested from live APs. This
//! module is the reproduction's equivalent of that harvest pipeline — a
//! uniform way to ask any run "what did each subsystem count, and where
//! did the simulated time go?".
//!
//! Three metric kinds, all keyed by static dotted paths
//! (`mac.ap1.ampdu.frames`):
//!
//! * **counters** — monotonic `u64` (events popped, retransmits, …);
//! * **gauges** — signed `i64` levels (slot occupancy, cwnd, …);
//! * **histograms** — fixed-bin [`Histogram`]s (aggregation sizes, …).
//!
//! Plus a **sim-time profiler**: [`Registry::record`] attributes a span
//! of simulated time to a component path, which keeps the number of
//! spans and the time they covered.
//!
//! ## Determinism contract
//!
//! Registries carry no wall-clock state and iterate only `BTreeMap`s,
//! so [`Registry::to_json`] is byte-identical for identical runs, and
//! [`Registry::merge_from`] is associative over the deterministic shard
//! order the fleet controller already uses for its checksum — the
//! merged snapshot of an N-network fleet is bit-identical for any
//! thread count.
//!
//! ## Hot-path discipline
//!
//! Registration (`counter`, `gauge`, `histogram`, `span`) does one
//! `BTreeMap` lookup and possibly one allocation; do it once at setup.
//! The per-event operations (`inc`, `add`, `gauge_add`, `observe`,
//! `record`) take copyable integer handles and touch only
//! `Vec`-indexed slots — no hashing, no allocation, no string work.
//!
//! ```
//! use sim::SimDuration;
//! use telemetry::metrics::Registry;
//!
//! let mut m = Registry::new();
//! let pops = m.counter("sim.queue.popped");
//! m.inc(pops);
//! m.add(pops, 2);
//! let txop = m.span("mac.txop");
//! m.record(txop, SimDuration::from_micros(4));
//! assert_eq!(m.counter_value("sim.queue.popped"), Some(3));
//! assert!(m.to_json().contains("\"mac.txop\""));
//! ```

use crate::json;
use crate::stats::Histogram;
use sim::SimDuration;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// Handle to a registered counter. Cheap to copy; valid only for the
/// registry that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(u32);

/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(u32);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistId(u32);

/// Handle to a registered profiler span path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

/// Accumulated profile for one span path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Recorded spans.
    pub calls: u64,
    /// Sim time they covered.
    pub time: SimDuration,
}

/// A registry's identity: every new registry and every clone draws a
/// fresh one from a process-wide counter, so no two ever share one.
#[derive(Debug)]
struct Identity(u64);

impl Default for Identity {
    fn default() -> Identity {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        Identity(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

impl Clone for Identity {
    fn clone(&self) -> Identity {
        Identity::default()
    }
}

/// A deterministic metrics registry (see module docs).
#[derive(Debug, Clone, Default)]
pub struct Registry {
    id: Identity,
    counter_ids: BTreeMap<String, u32>,
    counters: Vec<u64>,
    gauge_ids: BTreeMap<String, u32>,
    gauges: Vec<i64>,
    hist_ids: BTreeMap<String, u32>,
    hists: Vec<Histogram>,
    span_ids: BTreeMap<String, u32>,
    spans: Vec<SpanStat>,
}

fn intern(ids: &mut BTreeMap<String, u32>, next: usize, path: &str) -> (u32, bool) {
    debug_assert!(!path.is_empty(), "metric path must be non-empty");
    if let Some(&id) = ids.get(path) {
        (id, false)
    } else {
        let id = u32::try_from(next).expect("metric id space exhausted");
        ids.insert(path.to_owned(), id);
        (id, true)
    }
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    // ---- counters -------------------------------------------------

    /// Register (or look up) a monotonic counter.
    pub fn counter(&mut self, path: &str) -> CounterId {
        let (id, fresh) = intern(&mut self.counter_ids, self.counters.len(), path);
        if fresh {
            self.counters.push(0);
        }
        CounterId(id)
    }

    /// Increment a counter by 1.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.counters[id.0 as usize] += 1;
    }

    /// Increment a counter by `n`.
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.counters[id.0 as usize] += n;
    }

    /// One-shot register-and-add, for cold paths (exports, finalizers)
    /// where keeping a handle around isn't worth it.
    pub fn count(&mut self, path: &str, n: u64) {
        let id = self.counter(path);
        self.add(id, n);
    }

    /// Current value of a counter, by path.
    pub fn counter_value(&self, path: &str) -> Option<u64> {
        self.counter_ids
            .get(path)
            .map(|&id| self.counters[id as usize])
    }

    /// Every registered counter as `(path, value)`, sorted by path.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counter_ids
            .iter()
            .map(|(path, &id)| (path.as_str(), self.counters[id as usize]))
    }

    // ---- gauges ---------------------------------------------------

    /// Register (or look up) a gauge. Gauges are signed levels; across
    /// [`Registry::merge_from`] they **sum**, so use them for
    /// quantities where the fleet-wide aggregate is meaningful (slot
    /// occupancy, queue depth), not for ratios.
    pub fn gauge(&mut self, path: &str) -> GaugeId {
        let (id, fresh) = intern(&mut self.gauge_ids, self.gauges.len(), path);
        if fresh {
            self.gauges.push(0);
        }
        GaugeId(id)
    }

    /// Set a gauge to an absolute level.
    #[inline]
    pub fn gauge_set(&mut self, id: GaugeId, v: i64) {
        self.gauges[id.0 as usize] = v;
    }

    /// Adjust a gauge by a signed delta.
    #[inline]
    pub fn gauge_add(&mut self, id: GaugeId, dv: i64) {
        self.gauges[id.0 as usize] += dv;
    }

    /// Current value of a gauge, by path.
    pub fn gauge_value(&self, path: &str) -> Option<i64> {
        self.gauge_ids.get(path).map(|&id| self.gauges[id as usize])
    }

    /// Every registered gauge as `(path, value)`, sorted by path.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, i64)> {
        self.gauge_ids
            .iter()
            .map(|(path, &id)| (path.as_str(), self.gauges[id as usize]))
    }

    /// The counters' and the gauges' name index (path → slot, a
    /// handle's index), then their values by slot.
    pub(crate) fn slots(&self) -> ([&BTreeMap<String, u32>; 2], &[u64], &[i64]) {
        (
            [&self.counter_ids, &self.gauge_ids],
            &self.counters,
            &self.gauges,
        )
    }

    /// The layout stamp: an identity no other registry shares, and the
    /// counter and gauge counts. Registration only appends, so while
    /// the stamp holds, the same paths sit in the same slots.
    pub(crate) fn layout(&self) -> (u64, usize, usize) {
        (self.id.0, self.counters.len(), self.gauges.len())
    }

    // ---- histograms -----------------------------------------------

    /// Register (or look up) a fixed-bin histogram over `[lo, hi)`.
    /// Re-registering an existing path must use the same binning.
    pub fn histogram(&mut self, path: &str, lo: f64, hi: f64, bins: usize) -> HistId {
        assert!(
            lo.is_finite() && hi.is_finite(),
            "histogram bounds must be finite: {path}"
        );
        let (id, fresh) = intern(&mut self.hist_ids, self.hists.len(), path);
        if fresh {
            self.hists.push(Histogram::new(lo, hi, bins));
        } else {
            let h = &self.hists[id as usize];
            assert!(
                h.lo.to_bits() == lo.to_bits()
                    && h.hi.to_bits() == hi.to_bits()
                    && h.counts.len() == bins,
                "histogram {path} re-registered with different binning"
            );
        }
        HistId(id)
    }

    /// Record one observation.
    #[inline]
    pub fn observe(&mut self, id: HistId, x: f64) {
        self.hists[id.0 as usize].add(x);
    }

    /// The accumulated histogram, by path.
    pub fn histogram_value(&self, path: &str) -> Option<&Histogram> {
        self.hist_ids.get(path).map(|&id| &self.hists[id as usize])
    }

    // ---- sim-time profiler ----------------------------------------

    /// Register (or look up) a profiler span path.
    pub fn span(&mut self, path: &str) -> SpanId {
        let (id, fresh) = intern(&mut self.span_ids, self.spans.len(), path);
        if fresh {
            self.spans.push(SpanStat::default());
        }
        SpanId(id)
    }

    /// Attribute one span of `dur` simulated time to `id`'s path.
    pub fn record(&mut self, id: SpanId, dur: SimDuration) {
        let stat = &mut self.spans[id.0 as usize];
        stat.calls += 1;
        stat.time += dur;
    }

    /// Accumulated profile for a span path.
    pub fn span_value(&self, path: &str) -> Option<SpanStat> {
        self.span_ids.get(path).map(|&id| self.spans[id as usize])
    }

    // ---- merge / export -------------------------------------------

    /// Fold another registry into this one: counters, gauges, span
    /// times and histogram bins all sum; paths union. Histograms shared
    /// by both sides must have identical binning.
    pub fn merge_from(&mut self, other: &Registry) {
        for (path, &id) in &other.counter_ids {
            self.count(path, other.counters[id as usize]);
        }
        for (path, &id) in &other.gauge_ids {
            let g = self.gauge(path);
            self.gauge_add(g, other.gauges[id as usize]);
        }
        for (path, &id) in &other.hist_ids {
            let src = &other.hists[id as usize];
            let dst_id = self.histogram(path, src.lo, src.hi, src.counts.len());
            let dst = &mut self.hists[dst_id.0 as usize];
            for (d, s) in dst.counts.iter_mut().zip(&src.counts) {
                *d += s;
            }
            dst.total += src.total;
            dst.nan_count += src.nan_count;
        }
        for (path, &id) in &other.span_ids {
            let src = other.spans[id as usize];
            let dst_id = self.span(path);
            let dst = &mut self.spans[dst_id.0 as usize];
            dst.calls += src.calls;
            dst.time += src.time;
        }
    }

    /// Serialize the registry as JSON with sorted keys. Byte-identical
    /// for identical contents — this is the artifact the determinism
    /// gate diffs.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push('{');
        out.push_str("\"counters\":{");
        push_entries(&mut out, &self.counter_ids, |o, id| {
            let _ = write!(o, "{}", self.counters[id as usize]);
        });
        out.push_str("},\"gauges\":{");
        push_entries(&mut out, &self.gauge_ids, |o, id| {
            let _ = write!(o, "{}", self.gauges[id as usize]);
        });
        out.push_str("},\"histograms\":{");
        push_entries(&mut out, &self.hist_ids, |o, id| {
            let h = &self.hists[id as usize];
            debug_assert!(h.lo.is_finite() && h.hi.is_finite());
            let _ = write!(
                o,
                "{{\"lo\":{},\"hi\":{},\"total\":{},\"nan_count\":{},\"counts\":[",
                json::f64_exact(h.lo),
                json::f64_exact(h.hi),
                h.total,
                h.nan_count
            );
            for (i, c) in h.counts.iter().enumerate() {
                if i > 0 {
                    o.push(',');
                }
                let _ = write!(o, "{c}");
            }
            o.push_str("]}");
        });
        out.push_str("},\"spans\":{");
        // Spans never nest, so a span's self time is its total time; the
        // snapshot keeps writing both.
        push_entries(&mut out, &self.span_ids, |o, id| {
            let s = &self.spans[id as usize];
            let ns = s.time.as_nanos();
            let _ = write!(
                o,
                "{{\"calls\":{},\"self_ns\":{ns},\"total_ns\":{ns}}}",
                s.calls
            );
        });
        out.push_str("}}");
        out
    }
}

/// Write the sorted `"path":<value>` entries of one section.
fn push_entries(
    out: &mut String,
    ids: &BTreeMap<String, u32>,
    mut value: impl FnMut(&mut String, u32),
) {
    for (i, (path, &id)) in ids.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_str(out, path);
        out.push(':');
        value(out, id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_roundtrip() {
        let mut m = Registry::new();
        let c = m.counter("a.b.c");
        m.inc(c);
        m.add(c, 4);
        // Re-registration returns the same slot.
        let c2 = m.counter("a.b.c");
        m.inc(c2);
        assert_eq!(m.counter_value("a.b.c"), Some(6));
        assert_eq!(m.counter_value("missing"), None);

        let g = m.gauge("depth");
        m.gauge_set(g, 10);
        m.gauge_add(g, -3);
        assert_eq!(m.gauge_value("depth"), Some(7));
    }

    #[test]
    fn histogram_registration_is_idempotent() {
        let mut m = Registry::new();
        let h = m.histogram("agg.size", 0.0, 64.0, 16);
        m.observe(h, 10.0);
        let h2 = m.histogram("agg.size", 0.0, 64.0, 16);
        m.observe(h2, 11.0);
        assert_eq!(m.histogram_value("agg.size").unwrap().total, 2);
    }

    #[test]
    #[should_panic(expected = "different binning")]
    fn histogram_rebinning_panics() {
        let mut m = Registry::new();
        m.histogram("h", 0.0, 64.0, 16);
        m.histogram("h", 0.0, 32.0, 16);
    }

    #[test]
    fn spans_count_calls_and_sum_time() {
        let mut m = Registry::new();
        let a = m.span("a");
        m.record(a, SimDuration::from_micros(3));
        m.record(a, SimDuration::from_micros(5));
        let s = m.span_value("a").unwrap();
        assert_eq!(s.calls, 2);
        assert_eq!(s.time, SimDuration::from_micros(8));
        assert_eq!(m.span_value("b"), None);
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = Registry::new();
        let mut b = Registry::new();
        a.count("shared", 2);
        a.count("only_a", 1);
        b.count("shared", 3);
        b.count("only_b", 7);
        let ga = a.gauge("g");
        a.gauge_set(ga, 5);
        let gb = b.gauge("g");
        b.gauge_set(gb, -2);
        let ha = a.histogram("h", 0.0, 10.0, 5);
        a.observe(ha, 1.0);
        let hb = b.histogram("h", 0.0, 10.0, 5);
        b.observe(hb, 1.0);
        b.observe(hb, 9.0);
        let sa = b.span("sp");
        b.record(sa, SimDuration::from_micros(4));

        a.merge_from(&b);
        assert_eq!(a.counter_value("shared"), Some(5));
        assert_eq!(a.counter_value("only_a"), Some(1));
        assert_eq!(a.counter_value("only_b"), Some(7));
        assert_eq!(a.gauge_value("g"), Some(3));
        let h = a.histogram_value("h").unwrap();
        assert_eq!(h.total, 3);
        assert_eq!(h.counts[0], 2);
        assert_eq!(h.counts[4], 1);
        assert_eq!(
            a.span_value("sp").unwrap().time,
            SimDuration::from_micros(4)
        );
    }

    #[test]
    fn merge_is_order_insensitive_for_shared_paths() {
        // Summing is commutative; path sets union. Two merge orders
        // must serialize identically.
        let mk = |n: u64| {
            let mut r = Registry::new();
            r.count("x", n);
            r.count(&format!("only.{n}"), 1);
            r
        };
        let (r1, r2) = (mk(1), mk(2));
        let mut a = Registry::new();
        a.merge_from(&r1);
        a.merge_from(&r2);
        let mut b = Registry::new();
        b.merge_from(&r2);
        b.merge_from(&r1);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn json_is_sorted_and_stable() {
        let mut m = Registry::new();
        m.count("z.last", 1);
        m.count("a.first", 2);
        let g = m.gauge("mid");
        m.gauge_set(g, -4);
        let h = m.histogram("hist", 0.0, 2.0, 2);
        m.observe(h, 0.5);
        let sp = m.span("work");
        m.record(sp, SimDuration::from_nanos(42));

        let j = m.to_json();
        assert_eq!(
            j,
            "{\"counters\":{\"a.first\":2,\"z.last\":1},\
             \"gauges\":{\"mid\":-4},\
             \"histograms\":{\"hist\":{\"lo\":0.0,\"hi\":2.0,\"total\":1,\"nan_count\":0,\"counts\":[1,0]}},\
             \"spans\":{\"work\":{\"calls\":1,\"self_ns\":42,\"total_ns\":42}}}"
        );
        // Stability: a clone serializes identically.
        assert_eq!(m.clone().to_json(), j);
    }
}
