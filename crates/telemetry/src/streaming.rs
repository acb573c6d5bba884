//! Streaming statistics for memory-constrained collectors.
//!
//! An AP cannot buffer every latency sample between backend polls
//! (§2.2: some statistics "are only stored in memory"); it keeps small
//! summaries. This module provides the two the detectors use:
//!
//! * [`Ewma`] — exponentially weighted moving averages (the long-run
//!   baseline of the health engine's A-MPDU collapse detector);
//! * [`RollingWindow`] — a fixed-capacity ring of recent samples with
//!   exact windowed statistics (the basis of `telemetry::health`
//!   detector levels and of the `qoe` crate's per-client windows).

use sim::sanitize;

/// Exponentially weighted moving average.
#[derive(Debug, Clone, Copy)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    pub fn new(alpha: f64) -> Ewma {
        assert!((0.0..=1.0).contains(&alpha));
        Ewma { alpha, value: None }
    }

    pub fn observe(&mut self, x: f64) -> f64 {
        let v = match self.value {
            None => x,
            Some(v) => (1.0 - self.alpha) * v + self.alpha * x,
        };
        self.value = Some(v);
        v
    }

    pub fn value(&self) -> Option<f64> {
        self.value
    }
}

/// Fixed-capacity ring of the most recent samples, with exact windowed
/// statistics: it stores the window, so its quantiles are exact.
/// Windows run from a handful of collection epochs (the health
/// detectors) to thousands of per-packet samples (QoE keeps 50 / 500 /
/// 3 000 probe delays per client, and reads p50/p99 of the 500 on every
/// health tick), so nothing here costs more than the window's data: the
/// ring grows as samples arrive, `sum` / `min` / `max` fold
/// it in place, and a window whose owner reads quantiles
/// ([`RollingWindow::with_quantiles`]) keeps a sorted mirror of the
/// ring up to date on every push, which makes [`RollingWindow::quantile`]
/// two indexed reads. Once full, each push overwrites the oldest sample.
#[derive(Debug, Clone)]
pub struct RollingWindow {
    capacity: usize,
    /// The ring; grows one sample at a time up to `capacity`.
    buf: Vec<f64>,
    /// Oldest sample (== next write position) once the ring is full;
    /// 0 while it is still growing.
    head: usize,
    /// The ring's samples ordered by `total_cmp`, for windows built
    /// [`RollingWindow::with_quantiles`].
    sorted: Option<Vec<f64>>,
}

impl RollingWindow {
    /// A window read through `sum` / `mean` / `min` / `max` only.
    pub fn new(capacity: usize) -> RollingWindow {
        assert!(capacity > 0, "rolling window needs capacity >= 1");
        RollingWindow {
            capacity,
            buf: Vec::new(),
            head: 0,
            sorted: None,
        }
    }

    /// A window whose owner also reads [`RollingWindow::quantile`]:
    /// every push pays one binary search and a short shift to keep the
    /// sorted mirror current.
    pub fn with_quantiles(capacity: usize) -> RollingWindow {
        RollingWindow {
            sorted: Some(Vec::new()),
            ..RollingWindow::new(capacity)
        }
    }

    /// Append a sample, evicting the oldest when at capacity. NaN is a
    /// caller bug (same discipline as [`crate::stats::Histogram`]) and
    /// is dropped rather than poisoning every later statistic.
    pub fn push(&mut self, x: f64) {
        if x.is_nan() {
            sanitize::check(false, "NaN sample pushed into rolling window");
            return;
        }
        let below_x = |v: &f64| v.total_cmp(&x).is_lt();
        if self.buf.len() < self.capacity {
            self.buf.push(x);
            if let Some(sorted) = &mut self.sorted {
                let at = sorted.partition_point(below_x);
                sorted.insert(at, x);
            }
            return;
        }
        let evicted = std::mem::replace(&mut self.buf[self.head], x);
        self.head = (self.head + 1) % self.capacity;
        if let Some(sorted) = &mut self.sorted {
            // `total_cmp`-equal samples are bit-identical, so whichever
            // equal element the search lands on is the evicted one.
            let out = sorted
                .binary_search_by(|v| v.total_cmp(&evicted))
                .expect("the mirror holds every ring sample");
            // Slide the samples between the hole and `x`'s place over
            // by one instead of a full remove + insert.
            let at = sorted.partition_point(below_x);
            if at > out {
                sorted[out..at].rotate_left(1);
                sorted[at - 1] = x;
            } else {
                sorted[at..=out].rotate_right(1);
                sorted[at] = x;
            }
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// True once the ring holds `capacity` samples (pushes keep
    /// working; they evict the oldest).
    pub fn is_full(&self) -> bool {
        self.buf.len() == self.capacity
    }

    /// Forget every sample (capacity is retained).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        if let Some(sorted) = &mut self.sorted {
            sorted.clear();
        }
    }

    /// The retained samples oldest first, as the ring's two runs.
    fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        let (newer, older) = self.buf.split_at(self.head);
        older.iter().chain(newer).copied()
    }

    /// The retained samples, oldest first.
    pub fn values(&self) -> Vec<f64> {
        self.iter().collect()
    }

    pub fn sum(&self) -> f64 {
        self.iter().sum()
    }

    pub fn mean(&self) -> Option<f64> {
        if self.is_empty() {
            None
        } else {
            Some(self.sum() / self.len() as f64)
        }
    }

    pub fn min(&self) -> Option<f64> {
        self.iter().reduce(f64::min)
    }

    pub fn max(&self) -> Option<f64> {
        self.iter().reduce(f64::max)
    }

    /// Exact q-th quantile of the retained samples (linear
    /// interpolation, same convention as [`crate::stats::quantile`]).
    /// Only on a window built [`RollingWindow::with_quantiles`].
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let sorted = self
            .sorted
            .as_ref()
            .expect("quantile() needs a window built with_quantiles()");
        if q.is_nan() {
            sanitize::check(false, "quantile called with q = NaN");
            return None;
        }
        if sorted.is_empty() {
            return None;
        }
        Some(crate::stats::quantile_sorted(sorted, q))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_converges_to_constant_input() {
        let mut e = Ewma::new(0.2);
        assert!(e.value().is_none());
        for _ in 0..100 {
            e.observe(7.0);
        }
        assert!((e.value().unwrap() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn ewma_responds_to_steps() {
        let mut e = Ewma::new(0.5);
        e.observe(0.0);
        e.observe(10.0);
        assert_eq!(e.value(), Some(5.0));
    }

    #[test]
    fn rolling_window_empty_has_no_statistics() {
        let w = RollingWindow::with_quantiles(4);
        assert_eq!(w.capacity(), 4);
        assert_eq!(w.len(), 0);
        assert!(w.is_empty());
        assert!(!w.is_full());
        assert!(w.values().is_empty());
        assert_eq!(w.sum(), 0.0);
        assert!(w.mean().is_none());
        assert!(w.min().is_none());
        assert!(w.max().is_none());
        assert!(w.quantile(0.5).is_none());
    }

    #[test]
    fn rolling_window_single_sample_is_every_statistic() {
        let mut w = RollingWindow::with_quantiles(4);
        w.push(3.5);
        assert_eq!(w.len(), 1);
        assert!(!w.is_empty());
        assert!(!w.is_full());
        assert_eq!(w.values(), vec![3.5]);
        assert_eq!(w.mean(), Some(3.5));
        assert_eq!(w.min(), Some(3.5));
        assert_eq!(w.max(), Some(3.5));
        assert_eq!(w.quantile(0.0), Some(3.5));
        assert_eq!(w.quantile(0.5), Some(3.5));
        assert_eq!(w.quantile(1.0), Some(3.5));
    }

    #[test]
    fn rolling_window_exactly_at_capacity_then_evicts_oldest() {
        let mut w = RollingWindow::with_quantiles(3);
        for x in [1.0, 2.0, 3.0] {
            w.push(x);
        }
        // Exactly at capacity: nothing evicted yet.
        assert!(w.is_full());
        assert_eq!(w.len(), 3);
        assert_eq!(w.values(), vec![1.0, 2.0, 3.0]);
        assert_eq!(w.sum(), 6.0);
        assert_eq!(w.quantile(0.5), Some(2.0));
        // One past capacity: the oldest sample (1.0) falls out.
        w.push(4.0);
        assert_eq!(w.len(), 3);
        assert_eq!(w.values(), vec![2.0, 3.0, 4.0]);
        assert_eq!(w.quantile(0.5), Some(3.0));
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.capacity(), 3);
    }

    #[test]
    fn rolling_window_grows_with_its_samples_not_its_capacity() {
        // 160 GB up front under the old `vec![0.0; capacity]`.
        let mut w = RollingWindow::with_quantiles(20_000_000_000);
        w.push(2.0);
        w.push(1.0);
        assert_eq!(w.capacity(), 20_000_000_000);
        assert_eq!(w.values(), vec![2.0, 1.0]);
        assert_eq!(w.quantile(0.5), Some(1.5));
        assert!(!w.is_full());
    }

    #[test]
    #[should_panic(expected = "needs a window built with_quantiles()")]
    fn quantile_on_a_mean_only_window_is_a_caller_bug() {
        let mut w = RollingWindow::new(4);
        w.push(1.0);
        let _ = w.quantile(0.5);
    }

    mod rolling_window_props {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        proptest! {
            // The window against every sample pushed since the last
            // `clear`, bit for bit after every step: its last `cap` are
            // the window, their oldest-first folds its sum / mean / min /
            // max, `stats::quantile` of them its quantiles. Samples come
            // from a small palette so duplicates, both zeros and both
            // infinities meet each other; code 0 clears mid-stream.
            fn window_matches_naive_tail(
                cap in 1usize..9,
                codes in vec(0u8..40, 1..90),
                q in -0.5f64..1.5,
            ) {
                const PALETTE: [f64; 9] = [
                    0.0, -0.0, 1.0, -1.0, 2.5, 2.5,
                    f64::INFINITY, f64::NEG_INFINITY, 1e-300,
                ];
                let bits = |v: Option<f64>| v.map(f64::to_bits);
                let mut w = RollingWindow::with_quantiles(cap);
                let mut pushed = Vec::new();
                for (step, &code) in codes.iter().enumerate() {
                    if code == 0 {
                        w.clear();
                        pushed.clear();
                    } else {
                        let x = match PALETTE.get(usize::from(code) - 1) {
                            Some(&x) => x,
                            None => f64::from(code) * 0.37 - 9.0,
                        };
                        w.push(x);
                        pushed.push(x);
                    }
                    let tail = &pushed[pushed.len().saturating_sub(cap)..];
                    let ctx = format!("cap {cap} step {step} code {code}");
                    prop_assert_eq!(w.len(), tail.len(), "{}", ctx);
                    prop_assert_eq!(
                        w.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        tail.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        "values, {}", ctx
                    );
                    let sum = tail.iter().sum::<f64>();
                    let mean = (!tail.is_empty()).then(|| sum / tail.len() as f64);
                    let min = tail.iter().copied().reduce(f64::min);
                    let max = tail.iter().copied().reduce(f64::max);
                    prop_assert_eq!(w.sum().to_bits(), sum.to_bits(), "sum, {}", ctx);
                    prop_assert_eq!(bits(w.mean()), bits(mean), "mean, {}", ctx);
                    prop_assert_eq!(bits(w.min()), bits(min), "min, {}", ctx);
                    prop_assert_eq!(bits(w.max()), bits(max), "max, {}", ctx);
                    for probe in [0.0, 0.5, 0.99, 1.0, q] {
                        prop_assert_eq!(
                            bits(w.quantile(probe)),
                            bits(crate::stats::quantile(tail, probe)),
                            "q {}, {}", probe, ctx
                        );
                    }
                }
            }
        }
    }
}
