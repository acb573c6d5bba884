//! Bit-rate selection.
//!
//! Selection is by oracle: [`IdealSelector`] picks the (MCS, NSS)
//! maximizing expected goodput at the known SNR, scoring no row too slow
//! to win, and [`RateCache`] memoizes it exactly.
//!
//! The paper's *bit-rate efficiency* metric — achieved rate normalized by
//! the max rate supported by both ends of the association — is
//! implemented here as [`bitrate_efficiency`].

use crate::channels::Width;
use crate::error_model::expected_goodput_bps;
use crate::mcs::{rate_table, GuardInterval, Mcs, RateRow};

/// A selected transmission rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateChoice {
    pub mcs: Mcs,
    pub nss: u8,
    pub bps: u64,
}

/// Oracle rate selection from SNR.
#[derive(Debug, Clone)]
pub struct IdealSelector {
    pub width: Width,
    pub gi: GuardInterval,
    pub max_nss: u8,
    /// Safety margin subtracted from the SNR before selection, dB.
    /// Real selectors are conservative; 1–2 dB is typical.
    pub margin_db: f64,
}

impl IdealSelector {
    pub fn new(width: Width, max_nss: u8) -> IdealSelector {
        IdealSelector {
            width,
            gi: GuardInterval::Short,
            max_nss,
            margin_db: 1.0,
        }
    }

    /// The rows to choose among: a device has one to four streams.
    fn rows(&self) -> &'static [RateRow] {
        rate_table(self.max_nss.clamp(1, 4), self.width, self.gi)
    }

    /// Best (MCS, NSS) for the given SNR by expected goodput on a
    /// 1460-byte frame; the lowest rate if everything is bad.
    ///
    /// *Bit identity* with scoring every row and keeping the first strict
    /// maximum (`full_scan` in the tests): a row scores `bps × success`,
    /// success in [0, 1], so the scan runs best rate first and stops at a
    /// row whose rate is *below* the best score — it and every row under
    /// it are slower. A rate equal to it may tie, so it is scored, and an
    /// equal score takes the lead (the full scan keeps the lower row). A
    /// NaN SNR fails every comparison and leaves `best` on the lowest row.
    pub fn select(&self, snr_db: f64) -> RateChoice {
        let snr = snr_db - self.margin_db;
        let rows = self.rows();
        let (mut best, mut best_g) = (0, f64::NEG_INFINITY);
        for (i, &(mcs, nss, bps)) in rows.iter().enumerate().rev() {
            if (bps as f64) < best_g {
                break;
            }
            // Multi-stream transmission needs extra SNR for stream
            // separation: ~3 dB per extra stream is the standard rule.
            let eff_snr = snr - 3.0 * (nss as f64 - 1.0);
            let g = expected_goodput_bps(eff_snr, mcs, nss, self.width, self.gi, 1460);
            if g >= best_g {
                (best, best_g) = (i, g);
            }
        }
        let (mcs, nss, bps) = rows[best];
        RateChoice { mcs, nss, bps }
    }

    /// The maximum rate this selector could ever pick.
    pub fn max_rate_bps(&self) -> u64 {
        self.rows().last().expect("at least one stream").2
    }
}

/// Exact memoized [`IdealSelector`] for a fixed channel width.
///
/// `select` takes an `exp` / `powf` pair per row it scores, yet the
/// network testbed calls it with a handful of distinct SNR values per
/// client (fixed placement, ± the interferer penalty). Keyed on the SNR's
/// bits and the stream cap, a hit is the *exact* cached [`RateChoice`]
/// for one BTree probe, so replay stays byte-identical.
#[derive(Debug, Clone)]
pub struct RateCache {
    width: Width,
    cache: std::collections::BTreeMap<(u64, u8), RateChoice>,
}

impl RateCache {
    pub fn new(width: Width) -> RateCache {
        RateCache {
            width,
            cache: std::collections::BTreeMap::new(),
        }
    }

    /// Exactly `IdealSelector::new(self.width, max_nss).select(snr_db)`.
    pub fn select(&mut self, max_nss: u8, snr_db: f64) -> RateChoice {
        *self
            .cache
            .entry((snr_db.to_bits(), max_nss))
            .or_insert_with(|| IdealSelector::new(self.width, max_nss).select(snr_db))
    }
}

/// Achieved-rate / max-supported-rate, the paper's bit-rate efficiency
/// metric (§4.6.2). Max rate is the highest rate supported by *both*
/// sides of the association.
pub fn bitrate_efficiency(achieved_bps: u64, ap_max_bps: u64, client_max_bps: u64) -> f64 {
    let cap = ap_max_bps.min(client_max_bps);
    if cap == 0 {
        return 0.0;
    }
    (achieved_bps as f64 / cap as f64).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The spec `select` is held to: score every row, keep the first
    /// strict maximum.
    fn full_scan(sel: &IdealSelector, snr_db: f64) -> RateChoice {
        let snr = snr_db - sel.margin_db;
        let mut best: Option<(f64, RateChoice)> = None;
        for &(mcs, nss, bps) in sel.rows() {
            let eff_snr = snr - 3.0 * (nss as f64 - 1.0);
            let g = expected_goodput_bps(eff_snr, mcs, nss, sel.width, sel.gi, 1460);
            if best.is_none_or(|(bg, _)| g > bg) {
                best = Some((g, RateChoice { mcs, nss, bps }));
            }
        }
        best.expect("at least one stream").1
    }

    /// Every width and guard interval at stream caps 0..=5, both sides of
    /// the clamp included.
    fn selectors() -> Vec<IdealSelector> {
        let mut out = Vec::new();
        for max_nss in 0..=5u8 {
            for width in Width::ALL {
                for gi in [GuardInterval::Long, GuardInterval::Short] {
                    out.push(IdealSelector {
                        gi,
                        ..IdealSelector::new(width, max_nss)
                    });
                }
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any bit pattern (mostly far outside the rate table's reach,
        /// sometimes ±∞, a subnormal or NaN), an SNR where rows compete,
        /// and a NaN carrying the pattern's payload and sign.
        #[test]
        fn select_matches_the_full_scan(bits in any::<u64>(), snr in -60.0..120.0f64) {
            let nan = f64::from_bits(bits | 0x7ff0_0000_0000_0001);
            for sel in selectors() {
                for x in [f64::from_bits(bits), snr, nan] {
                    prop_assert_eq!(sel.select(x), full_scan(&sel, x), "{:?} at {:?}", sel, x);
                }
            }
        }
    }

    #[test]
    fn every_row_scoring_zero_picks_the_lowest_row() {
        for sel in selectors() {
            for snr in [-200.0, f64::NEG_INFINITY] {
                let eff = |nss: u8| snr - sel.margin_db - 3.0 * (nss as f64 - 1.0);
                // Exactly +0.0 on every row: a tie all the way down.
                assert!(sel.rows().iter().all(|&(mcs, nss, _)| {
                    let g = expected_goodput_bps(eff(nss), mcs, nss, sel.width, sel.gi, 1460);
                    g.to_bits() == 0
                }));
                let c = sel.select(snr);
                assert_eq!((c.mcs, c.nss, c.bps), sel.rows()[0], "{sel:?} at {snr}");
            }
        }
    }

    #[test]
    fn a_zero_stream_cap_counts_as_one() {
        for width in Width::ALL {
            let (zero, one) = (IdealSelector::new(width, 0), IdealSelector::new(width, 1));
            assert_eq!(zero.max_rate_bps(), one.max_rate_bps());
            for snr in [f64::NAN, 3.0, 25.0, 60.0] {
                assert_eq!(zero.select(snr), one.select(snr), "{width} at {snr}");
            }
        }
        assert_eq!(RateCache::new(Width::W80).select(0, 60.0).nss, 1);
    }

    #[test]
    fn ideal_selector_monotone_in_snr() {
        let sel = IdealSelector::new(Width::W80, 3);
        let mut prev = 0u64;
        for snr in (0..50).step_by(5) {
            let c = sel.select(snr as f64);
            assert!(c.bps >= prev, "rate dropped at snr={snr}");
            prev = c.bps;
        }
    }

    #[test]
    fn ideal_selector_high_snr_reaches_top() {
        let sel = IdealSelector::new(Width::W80, 3);
        let c = sel.select(60.0);
        assert_eq!(c.bps, sel.max_rate_bps());
        assert_eq!(c.bps, 1_300_000_000);
    }

    #[test]
    fn ideal_selector_low_snr_falls_back() {
        let sel = IdealSelector::new(Width::W80, 3);
        let c = sel.select(3.0);
        assert_eq!(c.nss, 1);
        assert!(c.mcs.0 <= 1);
    }

    #[test]
    fn office_snr_yields_paper_rate_band() {
        // Fig. 5: most 5 GHz rates fall in 256–512 Mbps. A typical office
        // SNR of ~32 dB on an 80 MHz 2SS association should land there.
        let sel = IdealSelector::new(Width::W80, 2);
        let c = sel.select(32.0);
        assert!(
            (256_000_000..=600_000_000).contains(&c.bps),
            "{} Mbps",
            c.bps / 1_000_000
        );
    }

    #[test]
    fn rate_cache_matches_ideal_selector_exactly() {
        let mut c = RateCache::new(Width::W80);
        assert!(c.cache.is_empty());
        for snr in [2.5, 17.0, 23.75, 32.0, 60.0] {
            for nss in 1..=3u8 {
                let got = c.select(nss, snr);
                let want = IdealSelector::new(Width::W80, nss).select(snr);
                assert_eq!(got, want, "snr={snr} nss={nss}");
            }
        }
        let resolved = c.cache.len();
        assert_eq!(resolved, 5 * 3);
        // Cache hit: no growth, same answer.
        let again = c.select(2, 17.0);
        assert_eq!(again, IdealSelector::new(Width::W80, 2).select(17.0));
        assert_eq!(c.cache.len(), resolved);
    }

    #[test]
    fn efficiency_metric_basics() {
        assert_eq!(
            bitrate_efficiency(433_300_000, 1_300_000_000, 866_700_000),
            433_300_000_f64 / 866_700_000_f64
        );
        assert_eq!(bitrate_efficiency(0, 100, 100), 0.0);
        assert_eq!(bitrate_efficiency(200, 100, 100), 1.0, "clamped at 1");
        assert_eq!(bitrate_efficiency(50, 0, 100), 0.0, "zero cap");
    }
}
