//! Bit-rate selection.
//!
//! Two selectors are provided:
//!
//! * [`IdealSelector`] — oracle selection: pick the (MCS, NSS) maximizing
//!   expected goodput at the known SNR. Used where the experiment is not
//!   about rate adaptation itself (most of the paper's figures).
//! * [`MinstrelLite`] — a sampling-based adapter in the spirit of
//!   Minstrel-HT: EWMA per-rate success probability, periodic probing of
//!   neighbouring rates. Used to show the bit-rate *efficiency* metric of
//!   §4.6.2 responds to contention, and for the Fig. 5 distribution.
//!
//! The paper's *bit-rate efficiency* metric — achieved rate normalized by
//! the max rate supported by both ends of the association — is
//! implemented here as [`bitrate_efficiency`].

use crate::channels::Width;
use crate::error_model::expected_goodput_bps;
use crate::mcs::{rate_table, GuardInterval, Mcs, RateRow};
use sim::Rng;

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

    /// Best (MCS, NSS) for the given SNR, maximizing expected goodput on
    /// a 1460-byte frame. Returns the lowest rate if everything is bad.
    pub fn select(&self, snr_db: f64) -> RateChoice {
        let snr = snr_db - self.margin_db;
        let mut best: Option<(f64, RateChoice)> = None;
        for &(mcs, nss, bps) in rate_table(self.max_nss, self.width, self.gi) {
            // Multi-stream transmission needs extra SNR for stream
            // separation: ~3 dB per extra stream is the standard rule.
            let eff_snr = snr - 3.0 * (nss as f64 - 1.0);
            let g = expected_goodput_bps(eff_snr, mcs, nss, self.width, self.gi, 1460);
            let cand = RateChoice { mcs, nss, bps };
            if best.map(|(bg, _)| g > bg).unwrap_or(true) {
                best = Some((g, cand));
            }
        }
        best.expect("rate table is never empty").1
    }

    /// The maximum rate this selector could ever pick.
    pub fn max_rate_bps(&self) -> u64 {
        rate_table(self.max_nss, self.width, self.gi)
            .last()
            .expect("non-empty")
            .2
    }
}

/// Exact memoized [`IdealSelector`] for a fixed channel width.
///
/// `select` walks the whole rate table computing an `exp`/`powf` pair
/// per entry — ~30 transcendentals per call — yet the network testbed
/// calls it with only a handful of distinct SNR values per client
/// (fixed placement, ± the interferer penalty). Keying on the SNR's bit
/// pattern (`f64::to_bits`) and the stream cap returns the *exact*
/// cached [`RateChoice`], so replay stays byte-identical while the
/// per-TXOP selection cost collapses to one BTree probe.
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

    /// Distinct (SNR, NSS-cap) pairs resolved so far.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
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

/// Minstrel-style adaptive selector: tracks an EWMA success probability
/// per rate-table index, transmits at the best-goodput rate, and probes
/// a random other rate every `probe_interval_tx` transmissions.
#[derive(Debug, Clone)]
pub struct MinstrelLite {
    table: &'static [RateRow],
    /// EWMA of per-rate delivery probability.
    prob: Vec<f64>,
    ewma_alpha: f64,
    tx_count: u64,
    probe_interval_tx: u64,
    current: usize,
}

impl MinstrelLite {
    pub fn new(width: Width, max_nss: u8) -> MinstrelLite {
        let table = rate_table(max_nss, width, GuardInterval::Short);
        let n = table.len();
        MinstrelLite {
            table,
            // Optimistic initialization: try everything once.
            prob: vec![1.0; n],
            ewma_alpha: 0.25,
            tx_count: 0,
            probe_interval_tx: 16,
            current: 0,
        }
    }

    /// Rate to use for the next transmission.
    pub fn select(&mut self, rng: &mut Rng) -> RateChoice {
        self.tx_count += 1;
        let idx = if self.tx_count.is_multiple_of(self.probe_interval_tx) {
            // Probe a random rate near the current best to learn drift.
            let lo = self.best_index().saturating_sub(2);
            let hi = (self.best_index() + 2).min(self.table.len() - 1);
            rng.range_inclusive(lo as u64, hi as u64) as usize
        } else {
            self.best_index()
        };
        self.current = idx;
        let (mcs, nss, bps) = self.table[idx];
        RateChoice { mcs, nss, bps }
    }

    /// Report the outcome of the last transmission at `choice`.
    pub fn report(&mut self, choice: RateChoice, success: bool) {
        if let Some(idx) = self
            .table
            .iter()
            .position(|&(m, n, _)| m == choice.mcs && n == choice.nss)
        {
            let x = if success { 1.0 } else { 0.0 };
            self.prob[idx] = (1.0 - self.ewma_alpha) * self.prob[idx] + self.ewma_alpha * x;
        }
    }

    fn best_index(&self) -> usize {
        let mut best = 0;
        let mut best_g = -1.0;
        for i in 0..self.table.len() {
            let g = self.table[i].2 as f64 * self.prob[i];
            if g > best_g {
                best_g = g;
                best = i;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error_model::mpdu_success_rate;

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
        assert!(c.is_empty());
        for snr in [2.5, 17.0, 23.75, 32.0, 60.0] {
            for nss in 1..=3u8 {
                let got = c.select(nss, snr);
                let want = IdealSelector::new(Width::W80, nss).select(snr);
                assert_eq!(got, want, "snr={snr} nss={nss}");
            }
        }
        let resolved = c.len();
        assert_eq!(resolved, 5 * 3);
        // Cache hit: no growth, same answer.
        let again = c.select(2, 17.0);
        assert_eq!(again, IdealSelector::new(Width::W80, 2).select(17.0));
        assert_eq!(c.len(), resolved);
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

    #[test]
    fn minstrel_converges_to_sustainable_rate() {
        let mut rng = Rng::new(7);
        let mut m = MinstrelLite::new(Width::W80, 2);
        let snr = 25.0;
        for _ in 0..2_000 {
            let c = m.select(&mut rng);
            let eff_snr = snr - 3.0 * (c.nss as f64 - 1.0);
            let p = mpdu_success_rate(eff_snr, c.mcs, Width::W80, 1460);
            let ok = rng.chance(p);
            m.report(c, ok);
        }
        // The ideal selector's choice at this SNR is the goodput target.
        let ideal = IdealSelector::new(Width::W80, 2).select(snr);
        let i = m.best_index();
        let est = m.table[i].2 as f64 * m.prob[i];
        assert!(
            est > 0.5 * ideal.bps as f64,
            "estimated {est} vs ideal {}",
            ideal.bps
        );
    }

    #[test]
    fn minstrel_probes_periodically() {
        let mut rng = Rng::new(3);
        let mut m = MinstrelLite::new(Width::W20, 1);
        let mut distinct = std::collections::BTreeSet::new();
        for _ in 0..64 {
            let c = m.select(&mut rng);
            distinct.insert((c.mcs.0, c.nss));
            m.report(c, true);
        }
        assert!(distinct.len() > 1, "probing must explore");
    }

    #[test]
    fn minstrel_abandons_failing_rate() {
        let mut rng = Rng::new(11);
        let mut m = MinstrelLite::new(Width::W20, 1);
        // Everything above MCS2 always fails.
        for _ in 0..500 {
            let c = m.select(&mut rng);
            m.report(c, c.mcs.0 <= 2);
        }
        let c = m.select(&mut rng);
        assert!(c.mcs.0 <= 3, "stuck at {:?}", c);
    }
}
