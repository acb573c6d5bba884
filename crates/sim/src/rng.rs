//! Deterministic pseudo-random number generation.
//!
//! The simulator carries its own generator — xoshiro256\*\* seeded through
//! splitmix64 — rather than pulling in `rand`: bit-for-bit reproducibility
//! of a run from its seed is a hard requirement (replay-based debugging,
//! CI-stable experiment outputs) and must not depend on a third-party
//! crate's version-to-version stream stability.
//!
//! The generator is never global: every simulation world owns its `Rng`,
//! and sub-components that need independent streams `fork()` one off.

/// xoshiro256\*\* by Blackman & Vigna — 256-bit state, period 2^256 − 1,
/// passes BigCrush. Plenty for a network simulator.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Derive the seed of an independent sub-stream from a master seed and a
/// stream index, via two splitmix64 steps (one per input word). This is
/// how fleet-scale runs give every network its own decorrelated,
/// reproducible RNG: the derived seed depends only on `(master, index)`,
/// never on scheduling order or thread count.
pub fn derive_stream_seed(master: u64, index: u64) -> u64 {
    let mut s = master;
    let a = splitmix64(&mut s);
    s ^= index.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    a ^ splitmix64(&mut s)
}

impl Rng {
    /// Build a generator from a 64-bit seed. Equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        // splitmix64 expansion guarantees a non-zero xoshiro state even
        // for seed = 0.
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Derive an independent generator (distinct, decorrelated stream).
    /// Used so that e.g. the traffic model and the channel-error model
    /// draw from different streams and adding draws to one does not
    /// perturb the other.
    pub fn fork(&mut self) -> Rng {
        Rng::new(self.next_u64() ^ 0xA5A5_5A5A_D00D_F00D)
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform float in `[0, 1)` with 53-bit precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`. Uses Lemire's multiply-shift rejection
    /// method for unbiased output. `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "Rng::below(0)");
        // Lemire 2018: unbiased bounded generation without division in
        // the common path.
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range");
        if lo == 0 && hi == u64::MAX {
            return self.next_u64();
        }
        lo + self.below(hi - lo + 1)
    }

    /// Uniform float in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }

    /// Bernoulli trial with probability `p` of `true` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Exponentially distributed value with the given mean (> 0).
    /// Used for Poisson inter-arrival times.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        // Inverse CDF. 1 - f64() is in (0, 1], so ln() is finite.
        -mean * (1.0 - self.f64()).ln()
    }

    /// Standard normal via Box–Muller (one value per call; we do not
    /// cache the second to keep the stream position obvious).
    pub fn standard_normal(&mut self) -> f64 {
        let u1 = 1.0 - self.f64(); // (0, 1]
        let u2 = self.f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Normal with given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.standard_normal()
    }

    /// Log-normal shadowing term in dB is just `normal(0, sigma)`; this
    /// helper exists for call-site readability in propagation models.
    pub fn shadowing_db(&mut self, sigma_db: f64) -> f64 {
        self.normal(0.0, sigma_db)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// Pick an index in `[0, weights.len())` with probability proportional
    /// to `weights[i]`. Non-positive weights are treated as zero. If every
    /// weight is zero, picks uniformly — this mirrors TurboCA's
    /// load-weighted AP ordering where idle APs must still be schedulable.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty());
        let total: f64 = weights.iter().map(|w| w.max(0.0)).sum();
        if total <= 0.0 {
            return self.below(weights.len() as u64) as usize;
        }
        let mut target = self.f64() * total;
        for (i, w) in weights.iter().enumerate() {
            target -= w.max(0.0);
            if target <= 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = Rng::new(0);
        // State must not be all zeros (xoshiro fixed point).
        assert!(r.s.iter().any(|&x| x != 0));
        assert_ne!(r.next_u64(), r.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::new(7);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_respects_bound_and_covers() {
        let mut r = Rng::new(3);
        let mut seen = [false; 7];
        for _ in 0..10_000 {
            let x = r.below(7);
            assert!(x < 7);
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn range_inclusive_hits_endpoints() {
        let mut r = Rng::new(11);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..10_000 {
            match r.range_inclusive(5, 8) {
                5 => lo_seen = true,
                8 => hi_seen = true,
                x => assert!((5..=8).contains(&x)),
            }
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = Rng::new(5);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| r.exponential(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean = {mean}");
    }

    #[test]
    fn normal_moments_are_close() {
        let mut r = Rng::new(13);
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal(10.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean = {mean}");
        assert!((var - 4.0).abs() < 0.2, "var = {var}");
    }

    #[test]
    fn chance_rate_is_close() {
        let mut r = Rng::new(19);
        let hits = (0..100_000).filter(|_| r.chance(0.3)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.3).abs() < 0.01, "rate = {rate}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng::new(23);
        let mut xs: Vec<u32> = (0..100).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(xs, (0..100).collect::<Vec<_>>(), "astronomically unlikely");
    }

    #[test]
    fn weighted_index_prefers_heavy_items() {
        let mut r = Rng::new(29);
        let w = [1.0, 0.0, 9.0];
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[r.weighted_index(&w)] += 1;
        }
        assert_eq!(counts[1], 0);
        assert!(counts[2] > counts[0] * 5);
    }

    #[test]
    fn weighted_index_all_zero_is_uniform() {
        let mut r = Rng::new(31);
        let w = [0.0, 0.0, 0.0, 0.0];
        let mut counts = [0usize; 4];
        for _ in 0..8_000 {
            counts[r.weighted_index(&w)] += 1;
        }
        for &c in &counts {
            assert!(c > 1_500, "counts = {counts:?}");
        }
    }

    #[test]
    fn derived_stream_seeds_are_stable_and_distinct() {
        // Stable: pure function of (master, index).
        assert_eq!(derive_stream_seed(42, 7), derive_stream_seed(42, 7));
        // Distinct across indices and masters, and the derived streams
        // are decorrelated from each other.
        let mut seen = std::collections::BTreeSet::new();
        for master in [0u64, 1, 42, u64::MAX] {
            for idx in 0..1000 {
                assert!(seen.insert(derive_stream_seed(master, idx)));
            }
        }
        let mut a = Rng::new(derive_stream_seed(5, 0));
        let mut b = Rng::new(derive_stream_seed(5, 1));
        let same = (0..1000).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_streams_are_decorrelated() {
        let mut a = Rng::new(99);
        let mut b = a.fork();
        let same = (0..1000).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }
}
