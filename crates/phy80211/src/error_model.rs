//! SNR → packet-error-rate model.
//!
//! Each MCS has a threshold SNR (see [`crate::mcs::snr_requirement_db`]);
//! around that threshold the PER follows a logistic ("waterfall") curve,
//! which is the standard abstraction of coded-OFDM link behaviour: a few
//! dB above threshold the link is clean, a few dB below it is unusable.
//! PER also scales with frame length (more bits, more chances to break).

use crate::channels::Width;
use crate::mcs::{snr_requirement_db, Mcs};
use std::collections::BTreeMap;

/// Steepness of the PER waterfall, per dB. 1.0–2.0 matches measured
/// 802.11 receiver curves; we use 1.5.
const WATERFALL_SLOPE: f64 = 1.5;

/// Reference frame length for the threshold tables (bytes).
const REF_FRAME_BYTES: f64 = 1024.0;

/// Waterfall argument beyond which the logistic saturates *exactly* in
/// f64 arithmetic, not just approximately: for x ≥ 41, `1 + exp(x)`
/// rounds to `exp(x)`, so `per_ref = 1/exp(x) ≤ exp(-41) < 2⁻⁵⁴` and
/// `1 − per_ref` rounds to exactly 1.0 — the full computation returns
/// exactly 0.0 (and symmetrically exactly 1.0 at x ≤ −41). The
/// early-outs below therefore change no result by even one ULP; a unit
/// test pins the equivalence on both sides of the cutoff.
const SATURATION_ARG: f64 = 41.0;

/// Probability that a single MPDU of `frame_bytes` is corrupted when
/// received at `snr_db` with the given MCS/width.
///
/// At `snr == threshold` the PER is 50% for a 1024-byte frame; +4 dB is
/// effectively clean (<0.3%), −4 dB effectively dead (>99%).
pub fn mpdu_error_rate(snr_db: f64, mcs: Mcs, width: Width, frame_bytes: usize) -> f64 {
    let threshold = snr_requirement_db(mcs, width);
    let margin = snr_db - threshold;
    let x = WATERFALL_SLOPE * margin;
    // Exact saturation shortcuts: skip the exp/powf pair for links far
    // from the waterfall (most of a healthy network). See SATURATION_ARG
    // for why these are bit-identical to the slow path.
    if x >= SATURATION_ARG {
        return 0.0;
    }
    if x <= -SATURATION_ARG {
        return 1.0;
    }
    let per_ref = 1.0 / (1.0 + x.exp());
    // Convert to per-bit success and re-scale to the actual length:
    // s_len = s_ref^(len/ref).
    let success_ref = 1.0 - per_ref;
    if success_ref <= 0.0 {
        return 1.0;
    }
    let scale = frame_bytes as f64 / REF_FRAME_BYTES;
    1.0 - success_ref.powf(scale.max(1e-3))
}

/// Probability that an MPDU survives.
pub fn mpdu_success_rate(snr_db: f64, mcs: Mcs, width: Width, frame_bytes: usize) -> f64 {
    1.0 - mpdu_error_rate(snr_db, mcs, width, frame_bytes)
}

/// Expected throughput utility of sending at (mcs, width) given the SNR:
/// `rate × P(success)`. Rate selection maximizes this.
pub fn expected_goodput_bps(
    snr_db: f64,
    mcs: Mcs,
    nss: u8,
    width: Width,
    gi: crate::mcs::GuardInterval,
    frame_bytes: usize,
) -> f64 {
    match crate::mcs::vht_rate_bps(mcs, nss, width, gi) {
        Some(bps) => bps as f64 * mpdu_success_rate(snr_db, mcs, width, frame_bytes),
        None => 0.0,
    }
}

/// Exact memoized PER for a fixed (width, frame length) pair.
///
/// The deterministic hot path cannot use a lossy quantized table — a PER
/// off by one ULP shifts a `rng.chance` outcome and the whole trajectory
/// with it (the repo's byte-identity guarantee). Instead this cache maps
/// the SNR's *bit pattern* (`f64::to_bits`, so every distinct input is
/// its own key and NaN can't poison comparisons) and MCS to the exact
/// [`mpdu_error_rate`] result. Testbed links hold only a handful of
/// distinct SNR values (fixed placement ± interferer penalty), so the
/// cache converges to ~100% hits and the per-frame `exp`/`powf` pair
/// drops out of the per-TXOP cost entirely.
#[derive(Debug, Clone)]
pub struct PerCache {
    width: Width,
    frame_bytes: usize,
    cache: BTreeMap<(u64, u8), f64>,
}

impl PerCache {
    pub fn new(width: Width, frame_bytes: usize) -> PerCache {
        PerCache {
            width,
            frame_bytes,
            cache: BTreeMap::new(),
        }
    }

    /// Exactly `mpdu_error_rate(snr_db, mcs, self.width, self.frame_bytes)`.
    pub fn error_rate(&mut self, snr_db: f64, mcs: Mcs) -> f64 {
        *self
            .cache
            .entry((snr_db.to_bits(), mcs.0))
            .or_insert_with(|| mpdu_error_rate(snr_db, mcs, self.width, self.frame_bytes))
    }

    /// Exactly `mpdu_success_rate(...)` via the same cache.
    pub fn success_rate(&mut self, snr_db: f64, mcs: Mcs) -> f64 {
        1.0 - self.error_rate(snr_db, mcs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcs::GuardInterval;

    #[test]
    fn per_at_threshold_is_half() {
        let t = snr_requirement_db(Mcs(4), Width::W20);
        let per = mpdu_error_rate(t, Mcs(4), Width::W20, 1024);
        assert!((per - 0.5).abs() < 1e-9, "{per}");
    }

    #[test]
    fn per_waterfall_shape() {
        let t = snr_requirement_db(Mcs(4), Width::W20);
        assert!(mpdu_error_rate(t + 4.0, Mcs(4), Width::W20, 1024) < 0.01);
        assert!(mpdu_error_rate(t - 4.0, Mcs(4), Width::W20, 1024) > 0.99);
    }

    #[test]
    fn per_monotone_decreasing_in_snr() {
        let mut prev = 1.1;
        for snr in -10..50 {
            let per = mpdu_error_rate(snr as f64, Mcs(7), Width::W40, 1460);
            assert!(per <= prev);
            prev = per;
        }
    }

    #[test]
    fn longer_frames_fail_more() {
        let t = snr_requirement_db(Mcs(4), Width::W20) + 2.0;
        let short = mpdu_error_rate(t, Mcs(4), Width::W20, 64);
        let long = mpdu_error_rate(t, Mcs(4), Width::W20, 1460);
        assert!(long > short, "{long} !> {short}");
    }

    #[test]
    fn per_is_a_probability() {
        for snr in [-50.0, 0.0, 15.0, 60.0] {
            for m in 0..=9u8 {
                let per = mpdu_error_rate(snr, Mcs(m), Width::W80, 1460);
                assert!((0.0..=1.0).contains(&per), "snr={snr} mcs={m} per={per}");
            }
        }
    }

    #[test]
    fn goodput_peaks_at_the_right_mcs() {
        // At SNR 20 dB on 20 MHz, MCS6 (threshold 20) should beat both
        // MCS9 (way above threshold -> PER ~1) and MCS0 (slow but clean).
        let snr = 20.0;
        let g =
            |m: u8| expected_goodput_bps(snr, Mcs(m), 1, Width::W20, GuardInterval::Short, 1460);
        let best = (0..=9u8).max_by(|&a, &b| g(a).total_cmp(&g(b))).unwrap();
        assert!((4..=6).contains(&best), "best = {best}");
        assert!(g(best) > g(0) && g(best) > g(9));
    }

    #[test]
    fn invalid_mcs_has_zero_goodput() {
        let g = expected_goodput_bps(30.0, Mcs(9), 1, Width::W20, GuardInterval::Short, 1460);
        assert_eq!(g, 0.0);
    }

    #[test]
    fn saturation_early_out_is_bit_identical_to_slow_path() {
        // Recompute the pre-shortcut formula and compare bit patterns on
        // both sides of SATURATION_ARG. The early-out claims *exact*
        // equality, not closeness — byte-identical replay depends on it.
        let slow = |snr_db: f64, mcs: Mcs, width: Width, frame_bytes: usize| -> f64 {
            let margin = snr_db - snr_requirement_db(mcs, width);
            let per_ref = 1.0 / (1.0 + (WATERFALL_SLOPE * margin).exp());
            let success_ref = 1.0 - per_ref;
            if success_ref <= 0.0 {
                return 1.0;
            }
            let scale = frame_bytes as f64 / REF_FRAME_BYTES;
            1.0 - success_ref.powf(scale.max(1e-3))
        };
        let t = snr_requirement_db(Mcs(4), Width::W20);
        for len in [64usize, 1024, 1500, 65_000] {
            for dx in [-80.0, -41.1, -41.0 / 1.5, 41.0 / 1.5, 41.1, 60.0, 500.0] {
                let snr = t + dx;
                let fast = mpdu_error_rate(snr, Mcs(4), Width::W20, len);
                assert_eq!(
                    fast.to_bits(),
                    slow(snr, Mcs(4), Width::W20, len).to_bits(),
                    "snr offset {dx}, len {len}"
                );
            }
        }
        // And the saturated values really are the exact constants.
        assert_eq!(mpdu_error_rate(t + 100.0, Mcs(4), Width::W20, 1500), 0.0);
        assert_eq!(mpdu_error_rate(t - 100.0, Mcs(4), Width::W20, 1500), 1.0);
    }

    #[test]
    fn per_cache_is_exact_and_memoizes() {
        let mut c = PerCache::new(Width::W80, 1500);
        assert!(c.cache.is_empty());
        for snr in [3.7, 15.0, 28.25, 60.0] {
            for m in 0..=9u8 {
                let got = c.error_rate(snr, Mcs(m));
                let exact = mpdu_error_rate(snr, Mcs(m), Width::W80, 1500);
                assert_eq!(got.to_bits(), exact.to_bits(), "snr={snr} mcs={m}");
                assert_eq!(
                    c.success_rate(snr, Mcs(m)).to_bits(),
                    mpdu_success_rate(snr, Mcs(m), Width::W80, 1500).to_bits(),
                );
            }
        }
        let resolved = c.cache.len();
        assert_eq!(resolved, 4 * 10);
        // Hits resolve without growing the cache.
        let _ = c.error_rate(15.0, Mcs(5));
        assert_eq!(c.cache.len(), resolved);
    }
}
