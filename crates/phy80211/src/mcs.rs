//! HT (802.11n) and VHT (802.11ac) MCS tables.
//!
//! Rates are computed from first principles rather than hard-coded:
//!
//! ```text
//! rate = N_SD × N_BPSCS × R × N_SS / T_sym
//! ```
//!
//! where `N_SD` is the number of data subcarriers for the width, `N_BPSCS`
//! the bits per subcarrier per stream of the modulation, `R` the coding
//! rate, `N_SS` the spatial streams, and `T_sym` the OFDM symbol duration
//! (3.2 µs + 0.8 µs long GI, or + 0.4 µs short GI). This reproduces the
//! canonical tables (e.g. VHT MCS9 3SS 80 MHz SGI = 1300 Mbps) and is
//! pinned against them in tests. Footnote 2 of the paper assumes SGI
//! (400 ns), as do we by default.

use crate::channels::Width;

/// Modulation and coding scheme index, VHT-style 0..=9.
/// (HT MCS 0–7 per stream map onto the same 0..=7 entries.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Mcs(pub u8);

/// Guard interval length.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GuardInterval {
    /// 800 ns.
    Long,
    /// 400 ns (SGI) — the paper's assumption.
    Short,
}

impl GuardInterval {
    /// OFDM symbol duration in nanoseconds.
    pub const fn symbol_ns(self) -> u64 {
        match self {
            GuardInterval::Long => 4_000,
            GuardInterval::Short => 3_600,
        }
    }
}

/// (bits per subcarrier, coding rate numerator, denominator) per MCS.
const MCS_MOD: [(u32, u32, u32); 10] = [
    (1, 1, 2), // 0: BPSK 1/2
    (2, 1, 2), // 1: QPSK 1/2
    (2, 3, 4), // 2: QPSK 3/4
    (4, 1, 2), // 3: 16-QAM 1/2
    (4, 3, 4), // 4: 16-QAM 3/4
    (6, 2, 3), // 5: 64-QAM 2/3
    (6, 3, 4), // 6: 64-QAM 3/4
    (6, 5, 6), // 7: 64-QAM 5/6
    (8, 3, 4), // 8: 256-QAM 3/4
    (8, 5, 6), // 9: 256-QAM 5/6
];

/// Data subcarriers per channel width (VHT numerology; HT at 20/40 MHz
/// matches: 52 and 108).
const fn data_subcarriers(width: Width) -> u32 {
    match width {
        Width::W20 => 52,
        Width::W40 => 108,
        Width::W80 => 234,
        Width::W160 => 468,
    }
}

/// VHT MCS validity: a few (MCS, NSS, width) combinations are excluded by
/// the standard because the interleaver doesn't fit. The two relevant to
/// 1–4 streams: MCS9 is invalid at 20 MHz except 3SS, and MCS6 is invalid
/// at 80 MHz for 3SS.
pub const fn vht_mcs_valid(mcs: Mcs, nss: u8, width: Width) -> bool {
    if mcs.0 > 9 || nss == 0 || nss > 4 {
        return false;
    }
    !matches!(
        (mcs.0, nss, width),
        (9, 1, Width::W20)
            | (9, 2, Width::W20)
            | (9, 4, Width::W20)
            | (6, 3, Width::W80)
            | (9, 3, Width::W160)
    )
}

/// Data rate in bits per second for a VHT transmission.
/// Returns `None` for invalid (MCS, NSS, width) combinations.
pub const fn vht_rate_bps(mcs: Mcs, nss: u8, width: Width, gi: GuardInterval) -> Option<u64> {
    if !vht_mcs_valid(mcs, nss, width) {
        return None;
    }
    let (bpscs, rn, rd) = MCS_MOD[mcs.0 as usize];
    let nsd = data_subcarriers(width);
    // bits per symbol across all streams
    let bits_per_sym = nsd as u64 * bpscs as u64 * nss as u64 * rn as u64 / rd as u64;
    Some(bits_per_sym * 1_000_000_000 / gi.symbol_ns())
}

/// Data rate in Mbps (floating, for reporting).
pub fn vht_rate_mbps(mcs: Mcs, nss: u8, width: Width, gi: GuardInterval) -> Option<f64> {
    vht_rate_bps(mcs, nss, width, gi).map(|bps| bps as f64 / 1e6)
}

/// HT (802.11n) rate: MCS 0–7 per stream, widths 20/40 only.
pub fn ht_rate_bps(mcs: Mcs, nss: u8, width: Width, gi: GuardInterval) -> Option<u64> {
    if mcs.0 > 7 || nss == 0 || nss > 4 || !matches!(width, Width::W20 | Width::W40) {
        return None;
    }
    vht_rate_bps(mcs, nss, width, gi)
}

/// Minimum SNR (dB) needed to sustain each MCS at a reasonable PER on a
/// 20 MHz channel. Standard link-adaptation thresholds (cf. Minstrel-HT
/// and 802.11 receiver sensitivity tables). Wider channels need
/// `10·log10(width/20)` more SNR because noise power grows with bandwidth
/// — callers apply that via [`snr_requirement_db`].
const MCS_MIN_SNR_DB: [f64; 10] = [2.0, 5.0, 9.0, 11.0, 15.0, 18.0, 20.0, 25.0, 29.0, 31.0];

/// SNR (dB) required for the given MCS and width.
pub fn snr_requirement_db(mcs: Mcs, width: Width) -> f64 {
    let base = MCS_MIN_SNR_DB[(mcs.0.min(9)) as usize];
    let bw_penalty = 10.0 * (width.mhz() as f64 / 20.0).log10();
    base + bw_penalty
}

/// One (MCS, NSS, bits per second) row of a [`rate_table`].
pub type RateRow = (Mcs, u8, u64);

/// A rate table with room for every (MCS, NSS) pair.
#[derive(Clone, Copy)]
struct RateTable {
    rows: [RateRow; 40],
    len: usize,
}

/// The valid (MCS, NSS) pairs up to `max_nss` streams, best-rate-last;
/// equal rates keep (NSS, MCS) order.
const fn build_rate_table(max_nss: u8, width: Width, gi: GuardInterval) -> RateTable {
    let mut t = RateTable {
        rows: [(Mcs(0), 0, 0); 40],
        len: 0,
    };
    let mut nss = 1;
    while nss <= max_nss {
        let mut m = 0;
        while m <= 9 {
            if let Some(bps) = vht_rate_bps(Mcs(m), nss, width, gi) {
                // Insert behind every row that is no faster.
                let mut at = t.len;
                while at > 0 && t.rows[at - 1].2 > bps {
                    t.rows[at] = t.rows[at - 1];
                    at -= 1;
                }
                t.rows[at] = (Mcs(m), nss, bps);
                t.len += 1;
            }
            m += 1;
        }
        nss += 1;
    }
    t
}

/// `RATE_TABLES[max_nss][width][gi]`: the standard fixes them all.
static RATE_TABLES: [[[RateTable; 2]; 4]; 5] = {
    let mut all = [[[build_rate_table(0, Width::W20, GuardInterval::Long); 2]; 4]; 5];
    let mut max_nss: u8 = 1;
    while max_nss <= 4 {
        let mut w = 0;
        while w < 4 {
            all[max_nss as usize][w] = [
                build_rate_table(max_nss, Width::ALL[w], GuardInterval::Long),
                build_rate_table(max_nss, Width::ALL[w], GuardInterval::Short),
            ];
            w += 1;
        }
        max_nss += 1;
    }
    all
};

/// The set of candidate (MCS, NSS) pairs for a device with `max_nss`
/// streams (at most four count), best-rate-last.
pub fn rate_table(max_nss: u8, width: Width, gi: GuardInterval) -> &'static [RateRow] {
    let t = &RATE_TABLES[usize::from(max_nss.min(4))][width as usize][gi as usize];
    &t.rows[..t.len]
}

/// Legacy (802.11a/g OFDM) rate used for control frames (ACKs, RTS/CTS)
/// and PHY headers, in bits per second. 24 Mbps is the standard basic
/// rate for control responses in 5 GHz enterprise networks.
pub const LEGACY_CONTROL_RATE_BPS: u64 = 24_000_000;

#[cfg(test)]
mod tests {
    use super::*;

    fn mbps(mcs: u8, nss: u8, w: Width, gi: GuardInterval) -> f64 {
        vht_rate_mbps(Mcs(mcs), nss, w, gi).unwrap()
    }

    // Pin against the canonical VHT table.
    #[test]
    fn canonical_vht_rates() {
        // MCS0 1SS 20MHz LGI = 6.5 Mbps
        assert_eq!(mbps(0, 1, Width::W20, GuardInterval::Long), 6.5);
        // MCS7 1SS 20MHz LGI = 65 Mbps
        assert_eq!(mbps(7, 1, Width::W20, GuardInterval::Long), 65.0);
        // MCS9 1SS 80MHz SGI = 433.3 Mbps
        let r = mbps(9, 1, Width::W80, GuardInterval::Short);
        assert!((r - 433.3).abs() < 0.1, "{r}");
        // MCS9 2SS 80MHz SGI = 866.7 Mbps (the paper's "867 Mbps" client)
        let r = mbps(9, 2, Width::W80, GuardInterval::Short);
        assert!((r - 866.7).abs() < 0.1, "{r}");
        // MCS9 3SS 80MHz SGI = 1300 Mbps
        assert_eq!(mbps(9, 3, Width::W80, GuardInterval::Short), 1300.0);
        // MCS9 4SS 160MHz SGI = 3466.7 Mbps
        let r = mbps(9, 4, Width::W160, GuardInterval::Short);
        assert!((r - 3466.7).abs() < 0.1, "{r}");
    }

    // The paper: "typical 802.11n/ac clients will have maximum bit rates
    // of 300 Mbps and 867 Mbps respectively" (2SS 40MHz HT, 2SS 80MHz VHT,
    // SGI per footnote 2).
    #[test]
    fn paper_typical_client_max_rates() {
        let ht = ht_rate_bps(Mcs(7), 2, Width::W40, GuardInterval::Short).unwrap();
        assert_eq!(ht, 300_000_000);
        let vht = vht_rate_bps(Mcs(9), 2, Width::W80, GuardInterval::Short).unwrap();
        assert_eq!(vht, 866_666_666);
    }

    #[test]
    fn invalid_combinations_are_none() {
        assert!(vht_rate_bps(Mcs(9), 1, Width::W20, GuardInterval::Short).is_none());
        assert!(vht_rate_bps(Mcs(6), 3, Width::W80, GuardInterval::Short).is_none());
        assert!(vht_rate_bps(Mcs(10), 1, Width::W20, GuardInterval::Short).is_none());
        assert!(vht_rate_bps(Mcs(0), 0, Width::W20, GuardInterval::Short).is_none());
        assert!(vht_rate_bps(Mcs(0), 5, Width::W20, GuardInterval::Short).is_none());
        // MCS9 3SS *is* valid at 20 MHz.
        assert!(vht_rate_bps(Mcs(9), 3, Width::W20, GuardInterval::Short).is_some());
    }

    #[test]
    fn ht_is_capped_at_mcs7_and_40mhz() {
        assert!(ht_rate_bps(Mcs(8), 1, Width::W20, GuardInterval::Long).is_none());
        assert!(ht_rate_bps(Mcs(7), 1, Width::W80, GuardInterval::Long).is_none());
        assert!(ht_rate_bps(Mcs(7), 1, Width::W40, GuardInterval::Long).is_some());
    }

    #[test]
    fn rate_monotone_in_mcs_nss_width() {
        let gi = GuardInterval::Short;
        for nss in 1..=4u8 {
            let mut prev = 0;
            for m in 0..=9u8 {
                if let Some(r) = vht_rate_bps(Mcs(m), nss, Width::W80, gi) {
                    assert!(r > prev);
                    prev = r;
                }
            }
        }
        let narrow = vht_rate_bps(Mcs(5), 2, Width::W20, gi).unwrap();
        let wide = vht_rate_bps(Mcs(5), 2, Width::W40, gi).unwrap();
        assert!(wide > 2 * narrow, "40MHz more than doubles (108 vs 52 SD)");
    }

    #[test]
    fn snr_requirements_increase_with_mcs_and_width() {
        for m in 1..=9u8 {
            assert!(
                snr_requirement_db(Mcs(m), Width::W20) > snr_requirement_db(Mcs(m - 1), Width::W20)
            );
        }
        let narrow = snr_requirement_db(Mcs(5), Width::W20);
        let wide = snr_requirement_db(Mcs(5), Width::W80);
        assert!((wide - narrow - 6.02).abs() < 0.01, "80MHz needs ~6dB more");
    }

    /// `rate_table` as it was: rebuilt and sorted on every call.
    fn old_rate_table(max_nss: u8, width: Width, gi: GuardInterval) -> Vec<RateRow> {
        let mut out = Vec::new();
        for nss in 1..=max_nss.min(4) {
            for m in 0..=9u8 {
                if let Some(bps) = vht_rate_bps(Mcs(m), nss, width, gi) {
                    out.push((Mcs(m), nss, bps));
                }
            }
        }
        out.sort_by_key(|&(_, _, bps)| bps);
        out
    }

    #[test]
    fn static_rate_tables_equal_a_rebuilt_one_for_every_key() {
        for max_nss in 0..=9u8 {
            for width in Width::ALL {
                for gi in [GuardInterval::Long, GuardInterval::Short] {
                    assert_eq!(
                        rate_table(max_nss, width, gi),
                        old_rate_table(max_nss, width, gi),
                        "{max_nss} streams, {width}, {gi:?}"
                    );
                }
            }
        }
        // Ties exist, so the order among equal rates is part of the pin.
        let t = rate_table(4, Width::W80, GuardInterval::Short);
        assert!(t.windows(2).any(|w| w[0].2 == w[1].2));
    }

    #[test]
    fn rate_table_sorted_and_complete() {
        let t = rate_table(3, Width::W80, GuardInterval::Short);
        // 3 NSS × 10 MCS − 1 invalid (MCS6 3SS 80) = 29 entries.
        assert_eq!(t.len(), 29);
        assert!(t.windows(2).all(|w| w[0].2 <= w[1].2));
        assert_eq!(t.last().unwrap().2, 1_300_000_000);
    }

    #[test]
    fn sgi_speedup_is_symbol_ratio() {
        let lgi = vht_rate_bps(Mcs(4), 2, Width::W40, GuardInterval::Long).unwrap();
        let sgi = vht_rate_bps(Mcs(4), 2, Width::W40, GuardInterval::Short).unwrap();
        let ratio = sgi as f64 / lgi as f64;
        assert!((ratio - 4000.0 / 3600.0).abs() < 1e-9);
    }
}
