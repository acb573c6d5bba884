//! Frame airtime computation and 802.11 timing constants.
//!
//! Everything FastACK's benefit rests on is airtime arithmetic: a
//! transmit opportunity costs a fixed overhead (backoff + preamble +
//! SIFS + BlockAck), so packing more MPDUs into one A-MPDU amortizes
//! that overhead. These functions compute exact durations so the
//! simulator reproduces the efficiency-vs-aggregate-size curve.

use crate::channels::Width;
use crate::mcs::{GuardInterval, Mcs, LEGACY_CONTROL_RATE_BPS};
use sim::SimDuration;

/// Short Interframe Space for OFDM PHYs (5 GHz): 16 µs.
pub const SIFS: SimDuration = SimDuration::from_micros(16);
/// Slot time for OFDM PHYs: 9 µs.
pub const SLOT: SimDuration = SimDuration::from_micros(9);
/// DIFS = SIFS + 2 × slot.
pub const DIFS: SimDuration = SimDuration::from_micros(16 + 2 * 9);

/// Legacy OFDM preamble + PLCP header: 20 µs.
pub const LEGACY_PREAMBLE: SimDuration = SimDuration::from_micros(20);

/// Maximum MPDUs in one A-MPDU under a single BlockAck window (footnote
/// 14 of the paper: "A-MPDU will aggregate up to 64 packets in one frame").
pub const MAX_AMPDU_FRAMES: usize = 64;

/// Maximum A-MPDU duration: 802.11ac wave-2 allows ~5.3 ms of airtime in
/// a single transmission (paper footnote 6).
pub const MAX_AMPDU_DURATION: SimDuration = SimDuration::from_micros(5_300);

/// Per-MPDU overhead inside an A-MPDU: 4-byte delimiter + up to 3 bytes
/// of padding; plus MAC header (26 B QoS data) + FCS (4 B).
pub const AMPDU_DELIMITER_BYTES: usize = 4;
/// MAC header + FCS bytes for a QoS data frame.
pub const MAC_OVERHEAD_BYTES: usize = 30;

/// VHT preamble: L-STF(8) + L-LTF(8) + L-SIG(4) + VHT-SIG-A(8) +
/// VHT-STF(4) + VHT-LTF(4·N_LTF) + VHT-SIG-B(4) µs. N_LTF is 1/2/4/4 for
/// 1/2/3/4 streams (3 streams uses 4 LTFs).
pub fn vht_preamble(nss: u8) -> SimDuration {
    let n_ltf: u64 = match nss {
        1 => 1,
        2 => 2,
        _ => 4,
    };
    SimDuration::from_micros(8 + 8 + 4 + 8 + 4 + 4 * n_ltf + 4)
}

/// Precomputed airtime parameters for one (MCS, NSS, width, GI) rate.
///
/// The VHT rate, symbol time, bits-per-symbol and preamble are all fixed
/// per rate; resolving them once turns every subsequent airtime query
/// into two integer ops (a `div_ceil` and a multiply). The A-MPDU
/// builder probes airtime once per candidate MPDU — with up to 64
/// frames per aggregate and a rate lookup per probe, this table is what
/// keeps aggregate assembly O(frames) instead of O(frames × lookups).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AirtimeTable {
    /// Data bits carried per OFDM symbol at this rate.
    bits_per_sym: u64,
    /// OFDM symbol duration, ns (GI-dependent).
    sym_ns: u64,
    /// VHT preamble for this stream count.
    preamble: SimDuration,
}

impl AirtimeTable {
    /// Resolve the rate; `None` for invalid (MCS, NSS, width) combos.
    pub fn new(mcs: Mcs, nss: u8, width: Width, gi: GuardInterval) -> Option<AirtimeTable> {
        let bps = crate::mcs::vht_rate_bps(mcs, nss, width, gi)?;
        let sym_ns = gi.symbol_ns();
        // bits per symbol = rate × T_sym
        let bits_per_sym = bps * sym_ns / 1_000_000_000;
        if bits_per_sym == 0 {
            return None;
        }
        Some(AirtimeTable {
            bits_per_sym,
            sym_ns,
            preamble: vht_preamble(nss),
        })
    }

    /// Duration of the data portion of a PPDU carrying `psdu_bytes`:
    /// number of OFDM symbols × symbol time. Includes the 16-bit
    /// SERVICE field and 6 tail bits.
    pub fn psdu_duration(&self, psdu_bytes: usize) -> SimDuration {
        let total_bits = 16 + 8 * psdu_bytes as u64 + 6;
        let symbols = total_bits.div_ceil(self.bits_per_sym);
        SimDuration::from_nanos(symbols * self.sym_ns)
    }

    /// Full duration of a data PPDU: VHT preamble + data symbols.
    pub fn ppdu_duration(&self, psdu_bytes: usize) -> SimDuration {
        self.preamble + self.psdu_duration(psdu_bytes)
    }

    /// PSDU bytes one MSDU contributes to an A-MPDU (MAC header + FCS +
    /// delimiter/padding on top of the payload).
    pub fn ampdu_mpdu_bytes(msdu_bytes: usize) -> usize {
        msdu_bytes + MAC_OVERHEAD_BYTES + AMPDU_DELIMITER_BYTES
    }

    /// Airtime of an A-MPDU of `frames` equal-sized MSDUs — the uplink
    /// ACK-burst case, without materializing a sizes slice.
    pub fn ampdu_duration_uniform(&self, frames: usize, msdu_bytes: usize) -> SimDuration {
        self.ppdu_duration(frames * Self::ampdu_mpdu_bytes(msdu_bytes))
    }
}

/// Duration of a legacy control frame (ACK = 14 bytes, RTS = 20, CTS = 14,
/// BlockAck = 32) at the basic control rate.
pub fn control_frame_duration(frame_bytes: usize) -> SimDuration {
    let bits_per_sym = LEGACY_CONTROL_RATE_BPS * 4_000 / 1_000_000_000; // 96 bits @ 24Mbps, 4us symbols
    let total_bits = 16 + 8 * frame_bytes as u64 + 6;
    let symbols = total_bits.div_ceil(bits_per_sym);
    LEGACY_PREAMBLE + SimDuration::from_nanos(symbols * 4_000)
}

/// 802.11 ACK frame duration (normal ACK, 14 bytes).
pub fn ack_duration() -> SimDuration {
    control_frame_duration(14)
}

/// Compressed BlockAck frame duration (32 bytes).
pub fn block_ack_duration() -> SimDuration {
    control_frame_duration(32)
}

/// RTS frame duration (20 bytes).
pub fn rts_duration() -> SimDuration {
    control_frame_duration(20)
}

/// CTS frame duration (14 bytes).
pub fn cts_duration() -> SimDuration {
    control_frame_duration(14)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SGI: GuardInterval = GuardInterval::Short;

    #[test]
    fn timing_constants() {
        assert_eq!(SIFS.as_micros(), 16);
        assert_eq!(SLOT.as_micros(), 9);
        assert_eq!(DIFS.as_micros(), 34);
    }

    #[test]
    fn vht_preamble_grows_with_streams() {
        // 36 us base (L-STF 8 + L-LTF 8 + L-SIG 4 + VHT-SIG-A 8 +
        // VHT-STF 4 + VHT-SIG-B 4) + 4 us per VHT-LTF (1/2/4/4 LTFs).
        assert_eq!(vht_preamble(1).as_micros(), 40);
        assert_eq!(vht_preamble(2).as_micros(), 44);
        assert_eq!(vht_preamble(3).as_micros(), 52);
        assert_eq!(vht_preamble(4).as_micros(), 52);
    }

    #[test]
    fn psdu_duration_is_symbol_quantized() {
        // 1500B at MCS9 2SS 80MHz SGI: 3120 bits/sym,
        // (16 + 12000 + 6) = 12022 bits -> 4 symbols -> 14.4us
        let t = AirtimeTable::new(Mcs(9), 2, Width::W80, SGI).unwrap();
        assert_eq!(t.psdu_duration(1500).as_nanos(), 4 * 3_600);
    }

    #[test]
    fn ampdu_amortizes_preamble() {
        // One 1500B MPDU vs 32: per-MPDU airtime must drop sharply.
        let t = AirtimeTable::new(Mcs(9), 2, Width::W80, SGI).unwrap();
        let per_one = t.ampdu_duration_uniform(1, 1534).as_nanos();
        let per_many = t.ampdu_duration_uniform(32, 1534).as_nanos() / 32;
        assert!(per_many < per_one, "{per_many} !< {per_one}");
    }

    #[test]
    fn control_frames_cost_tens_of_microseconds() {
        // ACK: preamble 20us + ceil((16+112+6)/96)*4us = 20 + 8 = 28us.
        assert_eq!(ack_duration().as_micros(), 28);
        assert_eq!(block_ack_duration().as_micros(), 32);
        assert_eq!(rts_duration().as_micros(), 28);
        assert_eq!(cts_duration().as_micros(), 28);
    }

    #[test]
    fn max_ampdu_of_full_mpdus_fits_duration_cap() {
        // 64 × 1534B at a mid rate must stay under 5.3ms at high rates
        // but exceed it at low rates — the MAC must honour both caps.
        let hi = AirtimeTable::new(Mcs(9), 3, Width::W80, SGI).unwrap();
        let hi = hi.ampdu_duration_uniform(64, 1534);
        assert!(hi < MAX_AMPDU_DURATION, "{hi}");
        let lo = AirtimeTable::new(Mcs(0), 1, Width::W20, SGI).unwrap();
        let lo = lo.ampdu_duration_uniform(64, 1534);
        assert!(lo > MAX_AMPDU_DURATION, "{lo}");
    }

    #[test]
    fn ppdu_includes_preamble() {
        let t = AirtimeTable::new(Mcs(4), 1, Width::W40, SGI).unwrap();
        assert_eq!(
            t.ppdu_duration(1500) - t.psdu_duration(1500),
            vht_preamble(1)
        );
    }

    #[test]
    fn invalid_rates_have_no_table() {
        assert!(AirtimeTable::new(Mcs(9), 1, Width::W20, SGI).is_none());
        assert!(AirtimeTable::new(Mcs(10), 1, Width::W20, SGI).is_none());
    }
}
