//! Virtual carrier sense: what an RTS/CTS exchange costs.
//!
//! §4.1.2 of the paper: neighbouring APs on overlapping channels share
//! the medium via CSMA, and RTS/CTS mitigates hidden nodes by reserving
//! the medium for the full exchange. The testbed runs every TXOP behind
//! RTS/CTS, and the practical effects are (a) a fixed per-TXOP overhead
//! and (b) collisions costing only the RTS duration instead of the whole
//! A-MPDU — which is why §5.6.3's two-AP tests split airtime fairly.

use phy80211::airtime::{cts_duration, rts_duration, SIFS};
use sim::SimDuration;

/// Extra airtime added to every successful TXOP by the protection
/// handshake (RTS + SIFS + CTS + SIFS).
pub fn rts_cts_overhead() -> SimDuration {
    rts_duration() + SIFS + cts_duration() + SIFS
}

/// Airtime wasted when a collision occurs: only the RTS frames collide;
/// the data never airs.
pub fn rts_collision_cost() -> SimDuration {
    rts_duration()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rts_overhead_is_about_90us() {
        assert_eq!(rts_cts_overhead().as_micros(), 28 + 16 + 28 + 16);
    }

    #[test]
    fn collision_cost_is_capped_by_rts() {
        assert_eq!(rts_collision_cost(), rts_duration());
    }
}
