//! TCP sequence-number arithmetic.
//!
//! Wire sequence numbers are 32-bit and wrap (RFC 793 §3.3); comparisons
//! must be modular. The simulator internally tracks *unwrapped* 64-bit
//! stream offsets (no wrap bookkeeping in every component), and this
//! module provides the wrapped view: [`WireSeq`] for wire-format
//! faithfulness plus an [`Unwrapper`] that reconstructs 64-bit offsets
//! from a stream of wrapped values — exactly what an AP-side middlebox
//! like FastACK has to do when it snoops sequence numbers off the wire.

use std::fmt;

/// A 32-bit wrapping TCP sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct WireSeq(pub u32);

impl WireSeq {
    /// Modular "less than": true if `self` precedes `other` within half
    /// the sequence space.
    //= spec: rfc793:3.3:modular-compare
    pub fn lt(self, other: WireSeq) -> bool {
        (other.0.wrapping_sub(self.0) as i32) > 0
    }

    /// Modular `<=`.
    pub fn le(self, other: WireSeq) -> bool {
        self == other || self.lt(other)
    }

    /// Advance by `n` bytes, wrapping. Deliberately not `ops::Add`: the
    /// asymmetric signature (seq + byte count) shouldn't look like
    /// general arithmetic on sequence numbers.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, n: u32) -> WireSeq {
        WireSeq(self.0.wrapping_add(n))
    }

    /// Bytes from `self` to `other` (forward distance, modular).
    //= spec: rfc793:3.3:modular-compare
    pub fn distance_to(self, other: WireSeq) -> u32 {
        other.0.wrapping_sub(self.0)
    }
}

impl fmt::Display for WireSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Reconstructs unwrapped 64-bit stream offsets from wrapped wire
/// sequence numbers, tolerating reordering within ±2^31 of the highest
/// offset seen. Seeded with the ISN.
#[derive(Debug, Clone)]
pub struct Unwrapper {
    isn: u32,
    /// Highest unwrapped offset observed so far.
    high: u64,
}

impl Unwrapper {
    pub fn new(isn: u32) -> Unwrapper {
        Unwrapper { isn, high: 0 }
    }

    /// Map a wire sequence number to its unwrapped stream offset
    /// (0-based: ISN maps to 0).
    pub fn unwrap(&mut self, wire: WireSeq) -> u64 {
        let rel = wire.0.wrapping_sub(self.isn);
        // Candidate offsets congruent to `rel` mod 2^32, nearest to high.
        let base = self.high & !0xFFFF_FFFFu64;
        let candidates = [
            base.wrapping_sub(1 << 32) | rel as u64,
            base | rel as u64,
            (base + (1u64 << 32)) | rel as u64,
        ];
        // `candidates` is a fixed 3-element array.
        #[allow(clippy::expect_used)]
        let best = *candidates
            .iter()
            .min_by_key(|&&c| c.abs_diff(self.high))
            .expect("non-empty");
        self.high = self.high.max(best);
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_without_wrap() {
        assert!(WireSeq(100).lt(WireSeq(200)));
        assert!(!WireSeq(200).lt(WireSeq(100)));
        assert!(WireSeq(100).le(WireSeq(100)));
    }

    #[test]
    fn ordering_across_wrap() {
        //= spec: rfc793:3.3:modular-compare
        let near_max = WireSeq(u32::MAX - 10);
        let wrapped = WireSeq(5);
        assert!(near_max.lt(wrapped));
        assert!(!wrapped.lt(near_max));
    }

    #[test]
    fn add_wraps() {
        assert_eq!(WireSeq(u32::MAX).add(1), WireSeq(0));
        assert_eq!(WireSeq(u32::MAX - 1).add(10), WireSeq(8));
    }

    #[test]
    fn distance_is_modular() {
        //= spec: rfc793:3.3:modular-compare
        assert_eq!(WireSeq(10).distance_to(WireSeq(30)), 20);
        assert_eq!(WireSeq(u32::MAX - 5).distance_to(WireSeq(4)), 10);
    }

    #[test]
    fn unwrapper_tracks_linear_stream() {
        let mut u = Unwrapper::new(1000);
        assert_eq!(u.unwrap(WireSeq(1000)), 0);
        assert_eq!(u.unwrap(WireSeq(1000).add(1460)), 1460);
        assert_eq!(u.unwrap(WireSeq(1000).add(2920)), 2920);
    }

    #[test]
    fn unwrapper_handles_reordering() {
        let mut u = Unwrapper::new(0);
        assert_eq!(u.unwrap(WireSeq(14600)), 14600);
        // An older (reordered) segment still maps below.
        assert_eq!(u.unwrap(WireSeq(1460)), 1460);
        assert_eq!(u.unwrap(WireSeq(14600)), 14600);
    }

    #[test]
    fn unwrapper_survives_wraparound() {
        let isn = u32::MAX - 1000;
        let mut u = Unwrapper::new(isn);
        assert_eq!(u.unwrap(WireSeq(isn)), 0);
        // 2000 bytes later the wire seq has wrapped past zero.
        let wrapped = WireSeq(isn).add(2000);
        assert!(wrapped.0 < 1000);
        assert_eq!(u.unwrap(wrapped), 2000);
        // Keep going for several wraps.
        let mut off = 2000u64;
        let mut wire = wrapped;
        for _ in 0..10_000 {
            off += 1_000_000;
            wire = wire.add(1_000_000);
            assert_eq!(u.unwrap(wire), off);
        }
    }
}
