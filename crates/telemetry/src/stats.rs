//! Statistics used throughout the evaluation: summary moments,
//! percentiles, empirical CDFs/PDFs, histograms and Jain's fairness
//! index (the paper cites \[26\] for the latter and reports it for
//! Fig. 17).
//!
//! NaN discipline: a NaN observation or quantile is a caller bug, so
//! the sim-sanitizer treats both as violations. In unsanitized release
//! builds the fallback degrades gracefully instead of corrupting
//! figures — [`Histogram::add`] counts NaNs separately (they used to
//! land silently in bin 0) and [`quantile_sorted`] returns NaN (it
//! used to return `sorted[0]`).

use sim::sanitize;

/// Summary statistics over a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub mean: f64,
    pub std_dev: f64,
    pub min: f64,
    pub max: f64,
}

/// Compute summary statistics. Returns `None` for an empty sample.
pub fn summarize(xs: &[f64]) -> Option<Summary> {
    if xs.is_empty() {
        return None;
    }
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    Some(Summary {
        count: xs.len(),
        mean,
        std_dev: var.sqrt(),
        min,
        max,
    })
}

/// q-th quantile (0 ≤ q ≤ 1) by linear interpolation on the sorted
/// sample. Returns `None` on an empty sample or a NaN `q` (the latter
/// is a sanitizer violation when the sim-sanitizer is active).
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if q.is_nan() {
        sanitize::check(false, "quantile called with q = NaN");
        return None;
    }
    if xs.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    Some(quantile_sorted(&sorted, q))
}

/// q-th quantile on an already-sorted slice. A NaN `q` is a sanitizer
/// violation; in unsanitized builds it yields NaN (NaN clamps to
/// itself, so the old code walked the `NaN as usize` path and returned
/// `sorted[0]` — a silently wrong answer).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    if q.is_nan() {
        sanitize::check(false, "quantile_sorted called with q = NaN");
        return f64::NAN;
    }
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Median (50th percentile).
pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

/// An empirical CDF: sorted sample with evaluation helpers. This is the
/// representation behind every "CDF of …" figure in the paper.
#[derive(Debug, Clone)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Build from a sample (empty input yields an empty CDF).
    pub fn new(xs: &[f64]) -> Cdf {
        let mut sorted = xs.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        Cdf { sorted }
    }

    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// P(X ≤ x).
    pub fn at(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Inverse CDF (quantile).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            None
        } else {
            Some(quantile_sorted(&self.sorted, q))
        }
    }

    /// Sampled (x, F(x)) pairs at `n` evenly spaced quantiles — the
    /// series a plotting harness prints.
    pub fn series(&self, n: usize) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() || n == 0 {
            return Vec::new();
        }
        (0..=n)
            .map(|i| {
                let q = i as f64 / n as f64;
                (quantile_sorted(&self.sorted, q), q)
            })
            .collect()
    }
}

/// Fixed-bin histogram over `[lo, hi)`; values outside clamp to the end
/// bins. Used for the PDF figures (Fig. 5 bit-rate distribution, Fig. 7
/// RSSI PDF).
#[derive(Debug, Clone)]
pub struct Histogram {
    pub lo: f64,
    pub hi: f64,
    pub counts: Vec<u64>,
    /// Observations binned (excludes NaNs).
    pub total: u64,
    /// NaN observations, counted separately so they cannot distort the
    /// PDF. NaN reaching a histogram is a sanitizer violation.
    pub nan_count: u64,
}

impl Histogram {
    pub fn new(lo: f64, hi: f64, bins: usize) -> Histogram {
        assert!(bins > 0 && hi > lo);
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
            nan_count: 0,
        }
    }

    pub fn add(&mut self, x: f64) {
        if x.is_nan() {
            // `(NaN.max(0.0) as usize)` is 0, so the old code silently
            // inflated bin 0 — visible as a phantom spike at `lo` in
            // every PDF figure fed a NaN.
            sanitize::check(false, "NaN observation added to histogram");
            self.nan_count += 1;
            return;
        }
        let bins = self.counts.len();
        let span = self.hi - self.lo;
        let t = ((x - self.lo) / span * bins as f64).floor();
        let mut idx = (t.max(0.0) as usize).min(bins - 1);
        // Bins are half-open `[edge_i, edge_{i+1})` with
        // `edge_i = lo + span * i / bins`. The scaled floor above can
        // land one bin off when `x` sits on (or within an ulp of) an
        // interior edge — e.g. `lo=0, hi=10, bins=5`: `6.0/10*5`
        // evaluates to 2.999…96, putting an exact upper-edge value in
        // the bin *below* its edge — so correct against the true edges.
        let edge = |i: usize| self.lo + span * (i as f64 / bins as f64);
        if idx + 1 < bins && x >= edge(idx + 1) {
            idx += 1;
        } else if idx > 0 && x < edge(idx) {
            idx -= 1;
        }
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Normalized bin frequencies (the PDF), with bin centers.
    pub fn pdf(&self) -> Vec<(f64, f64)> {
        let bins = self.counts.len();
        let w = (self.hi - self.lo) / bins as f64;
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let center = self.lo + (i as f64 + 0.5) * w;
                let f = if self.total == 0 {
                    0.0
                } else {
                    c as f64 / self.total as f64
                };
                (center, f)
            })
            .collect()
    }
}

/// Jain's fairness index: (Σx)² / (n·Σx²). 1.0 = perfectly fair,
/// 1/n = one host takes everything.
pub fn jain_fairness(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let sum: f64 = xs.iter().sum();
    let sum_sq: f64 = xs.iter().map(|x| x * x).sum();
    // Exact-zero guard, not a tolerance comparison: sum of squares is
    // 0.0 iff every input is exactly 0.0.
    // simcheck: allow(float-eq)
    if sum_sq == 0.0 {
        return Some(1.0); // all-zero allocation is (vacuously) fair
    }
    Some(sum * sum / (xs.len() as f64 * sum_sq))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(s.count, 4);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.std_dev - 1.118).abs() < 0.001);
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(quantile(&xs, 0.0), Some(10.0));
        assert_eq!(quantile(&xs, 1.0), Some(40.0));
        assert_eq!(median(&xs), Some(25.0));
        assert_eq!(quantile(&xs, 0.25), Some(17.5));
        assert!(quantile(&[], 0.5).is_none());
    }

    #[test]
    fn quantile_single_element() {
        assert_eq!(quantile(&[7.0], 0.0), Some(7.0));
        assert_eq!(quantile(&[7.0], 0.5), Some(7.0));
        assert_eq!(quantile(&[7.0], 1.0), Some(7.0));
    }

    #[test]
    fn cdf_evaluation() {
        let c = Cdf::new(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(c.at(0.5), 0.0);
        assert_eq!(c.at(1.0), 0.25);
        assert_eq!(c.at(2.5), 0.5);
        assert_eq!(c.at(10.0), 1.0);
        assert_eq!(c.quantile(0.5), Some(2.5));
    }

    #[test]
    fn cdf_series_is_monotone() {
        let xs: Vec<f64> = (0..100).map(|i| (i * 37 % 100) as f64).collect();
        let c = Cdf::new(&xs);
        let s = c.series(20);
        assert_eq!(s.len(), 21);
        for w in s.windows(2) {
            assert!(w[1].0 >= w[0].0);
            assert!(w[1].1 >= w[0].1);
        }
    }

    #[test]
    fn empty_cdf_is_safe() {
        let c = Cdf::new(&[]);
        assert!(c.is_empty());
        assert_eq!(c.at(1.0), 0.0);
        assert!(c.quantile(0.5).is_none());
        assert!(c.series(10).is_empty());
    }

    #[test]
    fn histogram_bins_and_clamps() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for x in [0.5, 1.5, 2.5, 2.6, -5.0, 15.0] {
            h.add(x);
        }
        assert_eq!(h.counts, vec![3, 2, 0, 0, 1]);
        assert_eq!(h.total, 6);
        let pdf = h.pdf();
        assert_eq!(pdf.len(), 5);
        assert!((pdf[0].1 - 0.5).abs() < 1e-12);
        assert_eq!(pdf[0].0, 1.0, "bin center");
        let total: f64 = pdf.iter().map(|(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    // Regression: values exactly on an interior upper edge belong to
    // the bin *above* the edge (`[edge_i, edge_{i+1})`). Pre-fix, pure
    // float scaling put 6.0 into [4,6) — `6.0/10*5` rounds to
    // 2.999…96 and floors to bin 2 — so detectors comparing adjacent
    // histogram snapshots saw edge values migrate between bins.
    #[test]
    fn histogram_upper_edge_values_land_in_upper_bin() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for x in [0.0, 2.0, 4.0, 6.0, 8.0] {
            h.add(x); // every exact edge opens its own bin
        }
        assert_eq!(h.counts, vec![1, 1, 1, 1, 1]);
        h.add(10.0); // `hi` itself clamps into the last bin
        h.add(5.999999999999999); // just under an edge stays below it
        assert_eq!(h.counts, vec![1, 1, 2, 1, 2]);
        assert_eq!(h.total, 7);
    }

    // NaN regression tests. Pre-fix, `add(NaN)` landed in bin 0 and
    // `quantile(_, NaN)` returned the minimum — both silently.
    #[cfg(debug_assertions)]
    mod nan_sanitized {
        use super::*;

        #[test]
        #[should_panic(expected = "sim-sanitizer: NaN observation added to histogram")]
        fn histogram_nan_is_violation() {
            let mut h = Histogram::new(0.0, 10.0, 5);
            h.add(f64::NAN);
        }

        #[test]
        #[should_panic(expected = "sim-sanitizer: quantile_sorted called with q = NaN")]
        fn quantile_sorted_nan_q_is_violation() {
            quantile_sorted(&[1.0, 2.0], f64::NAN);
        }

        #[test]
        #[should_panic(expected = "sim-sanitizer: quantile called with q = NaN")]
        fn quantile_nan_q_is_violation() {
            quantile(&[1.0, 2.0], f64::NAN);
        }
    }

    // Unsanitized-build fallback: NaNs are quarantined, not binned.
    #[cfg(not(debug_assertions))]
    mod nan_release {
        use super::*;

        #[test]
        fn histogram_quarantines_nan() {
            let mut h = Histogram::new(0.0, 10.0, 5);
            h.add(f64::NAN);
            h.add(1.0);
            assert_eq!(h.counts, vec![1, 0, 0, 0, 0], "NaN must not hit bin 0");
            assert_eq!(h.total, 1);
            assert_eq!(h.nan_count, 1);
            let pdf = h.pdf();
            assert!((pdf[0].1 - 1.0).abs() < 1e-12, "PDF normalizes without NaN");
        }

        #[test]
        fn quantile_nan_q_does_not_return_minimum() {
            assert!(quantile_sorted(&[1.0, 2.0], f64::NAN).is_nan());
            assert_eq!(quantile(&[1.0, 2.0], f64::NAN), None);
        }
    }

    #[test]
    fn histogram_nan_count_starts_zero() {
        let h = Histogram::new(0.0, 1.0, 2);
        assert_eq!(h.nan_count, 0);
    }

    #[test]
    fn jain_index_extremes() {
        assert_eq!(jain_fairness(&[5.0, 5.0, 5.0, 5.0]), Some(1.0));
        let j = jain_fairness(&[1.0, 0.0, 0.0, 0.0]).unwrap();
        assert!((j - 0.25).abs() < 1e-12, "1/n for a monopolist");
        assert!(jain_fairness(&[]).is_none());
        assert_eq!(jain_fairness(&[0.0, 0.0]), Some(1.0));
    }

    #[test]
    fn jain_matches_paper_magnitudes() {
        // 80% of clients near max, a few stragglers → index ≈ 0.9+,
        // the regime of the paper's 0.88–0.94 comparisons.
        let mut xs = vec![100.0; 24];
        xs.extend([60.0, 50.0, 40.0, 30.0, 25.0, 20.0]);
        let j = jain_fairness(&xs).unwrap();
        assert!((0.85..0.98).contains(&j), "{j}");
    }
}
