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
//! Plus a **sim-time profiler**: [`Registry::enter`] returns a
//! [`Span`] guard; [`Registry::exit`] attributes the elapsed simulated
//! time to the span's component, separating *self* time from time spent
//! in nested child spans — a flamegraph over sim time, flattened to
//! per-component totals.
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
//! `enter`/`exit`) take copyable integer handles and touch only
//! `Vec`-indexed slots — no hashing, no allocation, no string work.
//!
//! ```
//! use sim::SimTime;
//! use telemetry::metrics::Registry;
//!
//! let mut m = Registry::new();
//! let pops = m.counter("sim.queue.popped");
//! m.inc(pops);
//! m.add(pops, 2);
//! let txop = m.span("mac.txop");
//! let s = m.enter(txop, SimTime::from_micros(10));
//! m.exit(s, SimTime::from_micros(14));
//! assert_eq!(m.counter_value("sim.queue.popped"), Some(3));
//! assert!(m.to_json().contains("\"mac.txop\""));
//! ```

use crate::json;
use crate::stats::Histogram;
use sim::{sanitize, SimDuration, SimTime};
use std::collections::BTreeMap;
use std::fmt::Write as _;

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

/// Open-span guard returned by [`Registry::enter`]. Must be closed with
/// [`Registry::exit`] in LIFO order; the registry checks both the span
/// identity and the nesting depth on exit.
#[derive(Debug)]
#[must_use = "a Span must be closed with Registry::exit to record its time"]
pub struct Span {
    id: u32,
    depth: u32,
}

/// Accumulated profile for one span path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Completed enter/exit pairs.
    pub calls: u64,
    /// Sim time inside this span excluding nested child spans.
    pub self_time: SimDuration,
    /// Sim time inside this span including nested child spans.
    pub total_time: SimDuration,
}

#[derive(Debug, Clone, Copy)]
struct Frame {
    id: u32,
    start: SimTime,
    child: SimDuration,
}

/// A deterministic metrics registry (see module docs).
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counter_ids: BTreeMap<String, u32>,
    counters: Vec<u64>,
    gauge_ids: BTreeMap<String, u32>,
    gauges: Vec<i64>,
    hist_ids: BTreeMap<String, u32>,
    hists: Vec<Histogram>,
    span_ids: BTreeMap<String, u32>,
    spans: Vec<SpanStat>,
    stack: Vec<Frame>,
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
    /// The timeline sampler snapshots registries through this.
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

    /// Open a span at sim time `now`. Close it with [`Registry::exit`].
    #[inline]
    pub fn enter(&mut self, id: SpanId, now: SimTime) -> Span {
        self.stack.push(Frame {
            id: id.0,
            start: now,
            child: SimDuration::ZERO,
        });
        Span {
            id: id.0,
            depth: u32::try_from(self.stack.len()).expect("span stack depth overflow"),
        }
    }

    /// Close a span at sim time `now`, attributing `now - start` to its
    /// path (self time excludes nested spans closed in between).
    pub fn exit(&mut self, span: Span, now: SimTime) {
        sanitize::check(
            self.stack.len() == span.depth as usize,
            "profiler spans closed out of LIFO order",
        );
        let frame = self.stack.pop().expect("exit with no open span");
        sanitize::check(
            frame.id == span.id,
            "profiler span token does not match the innermost open span",
        );
        let elapsed = now.saturating_since(frame.start);
        let stat = &mut self.spans[frame.id as usize];
        stat.calls += 1;
        stat.self_time += elapsed.saturating_sub(frame.child);
        stat.total_time += elapsed;
        if let Some(parent) = self.stack.last_mut() {
            parent.child += elapsed;
        }
    }

    /// Accumulated profile for a span path.
    pub fn span_value(&self, path: &str) -> Option<SpanStat> {
        self.span_ids.get(path).map(|&id| self.spans[id as usize])
    }

    /// True if no span is currently open.
    pub fn profiler_idle(&self) -> bool {
        self.stack.is_empty()
    }

    // ---- merge / export -------------------------------------------

    /// Fold another registry into this one: counters, gauges, span
    /// times and histogram bins all sum; paths union. Histograms shared
    /// by both sides must have identical binning. `other` must have no
    /// open spans.
    pub fn merge_from(&mut self, other: &Registry) {
        assert!(
            other.stack.is_empty(),
            "cannot merge a registry with open profiler spans"
        );
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
            dst.self_time += src.self_time;
            dst.total_time += src.total_time;
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
        push_entries(&mut out, &self.span_ids, |o, id| {
            let s = &self.spans[id as usize];
            let _ = write!(
                o,
                "{{\"calls\":{},\"self_ns\":{},\"total_ns\":{}}}",
                s.calls,
                s.self_time.as_nanos(),
                s.total_time.as_nanos()
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
    fn spans_attribute_self_and_total_time() {
        let mut m = Registry::new();
        let outer = m.span("outer");
        let inner = m.span("inner");
        let t = SimTime::from_micros;

        let so = m.enter(outer, t(0));
        let si = m.enter(inner, t(3));
        m.exit(si, t(5));
        m.exit(so, t(10));

        let o = m.span_value("outer").unwrap();
        assert_eq!(o.calls, 1);
        assert_eq!(o.total_time, SimDuration::from_micros(10));
        assert_eq!(o.self_time, SimDuration::from_micros(8));
        let i = m.span_value("inner").unwrap();
        assert_eq!(i.calls, 1);
        assert_eq!(i.total_time, SimDuration::from_micros(2));
        assert_eq!(i.self_time, SimDuration::from_micros(2));
        assert!(m.profiler_idle());
    }

    #[test]
    #[cfg(any(feature = "sanitize", debug_assertions))]
    #[should_panic(expected = "sim-sanitizer: profiler spans closed out of LIFO order")]
    fn out_of_order_exit_is_violation() {
        let mut m = Registry::new();
        let a = m.span("a");
        let b = m.span("b");
        let sa = m.enter(a, SimTime::ZERO);
        let _sb = m.enter(b, SimTime::ZERO);
        m.exit(sa, SimTime::from_micros(1));
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
        let tok = b.enter(sa, SimTime::ZERO);
        b.exit(tok, SimTime::from_micros(4));

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
            a.span_value("sp").unwrap().total_time,
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
        let s = m.enter(sp, SimTime::ZERO);
        m.exit(s, SimTime::from_nanos(42));

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
