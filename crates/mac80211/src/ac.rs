//! 802.11e EDCA access categories.
//!
//! The four ACs (§3.2.4 of the paper): Background (BK), Best Effort (BE),
//! Video (VI) and Voice (VO), from least to most aggressive. A more
//! aggressive AC has a shorter arbitration wait (AIFSN) and smaller
//! contention windows, so it wins the medium sooner — but "exhausts retry
//! attempts more quickly" (the paper observes higher loss for VO than VI
//! partly for this reason). Parameter values are the 802.11 defaults.

use std::fmt;

/// EDCA access category, ordered least → most aggressive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AccessCategory {
    Background,
    BestEffort,
    Video,
    Voice,
}

impl AccessCategory {
    pub const ALL: [AccessCategory; 4] = [
        AccessCategory::Background,
        AccessCategory::BestEffort,
        AccessCategory::Video,
        AccessCategory::Voice,
    ];

    /// Short name used in reports ("BK"/"BE"/"VI"/"VO").
    pub const fn abbrev(self) -> &'static str {
        match self {
            AccessCategory::Background => "BK",
            AccessCategory::BestEffort => "BE",
            AccessCategory::Video => "VI",
            AccessCategory::Voice => "VO",
        }
    }
}

impl fmt::Display for AccessCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.abbrev())
    }
}

/// EDCA parameter set for one AC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdcaParams {
    /// Arbitration interframe spacing number: slots waited after SIFS
    /// before backoff countdown may begin.
    pub aifsn: u32,
    /// Minimum contention window (slots); backoff drawn uniformly from
    /// `[0, cw]`.
    pub cw_min: u32,
    /// Maximum contention window after exponential growth.
    pub cw_max: u32,
    /// Retry limit before the frame is dropped (the paper's "loss means
    /// failure after exhausting retransmission attempts").
    pub retry_limit: u32,
}

impl EdcaParams {
    /// 802.11 default EDCA parameters for 5 GHz OFDM PHYs.
    pub const fn for_ac(ac: AccessCategory) -> EdcaParams {
        match ac {
            AccessCategory::Background => EdcaParams {
                aifsn: 7,
                cw_min: 15,
                cw_max: 1023,
                retry_limit: 7,
            },
            AccessCategory::BestEffort => EdcaParams {
                aifsn: 3,
                cw_min: 15,
                cw_max: 1023,
                retry_limit: 7,
            },
            AccessCategory::Video => EdcaParams {
                aifsn: 2,
                cw_min: 7,
                cw_max: 15,
                retry_limit: 4,
            },
            AccessCategory::Voice => EdcaParams {
                aifsn: 2,
                cw_min: 3,
                cw_max: 7,
                retry_limit: 4,
            },
        }
    }

    /// Contention window for the given retry count (exponential growth,
    /// capped at `cw_max`).
    //= spec: dot11ac:dcf:cw-doubling
    pub fn cw_for_retry(&self, retries: u32) -> u32 {
        let mut cw = self.cw_min;
        for _ in 0..retries {
            cw = ((cw + 1) * 2 - 1).min(self.cw_max);
            if cw == self.cw_max {
                break;
            }
        }
        cw
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggressiveness_ordering() {
        // More aggressive ACs have smaller/equal AIFSN and CWmin.
        let p: Vec<EdcaParams> = AccessCategory::ALL
            .iter()
            .map(|&ac| EdcaParams::for_ac(ac))
            .collect();
        for w in p.windows(2) {
            assert!(w[1].aifsn <= w[0].aifsn);
            assert!(w[1].cw_min <= w[0].cw_min);
        }
    }

    #[test]
    fn cw_doubles_then_caps() {
        //= spec: dot11ac:dcf:cw-doubling
        let be = EdcaParams::for_ac(AccessCategory::BestEffort);
        assert_eq!(be.cw_for_retry(0), 15);
        assert_eq!(be.cw_for_retry(1), 31);
        assert_eq!(be.cw_for_retry(2), 63);
        assert_eq!(be.cw_for_retry(6), 1023);
        assert_eq!(be.cw_for_retry(20), 1023, "capped");
        let vo = EdcaParams::for_ac(AccessCategory::Voice);
        assert_eq!(vo.cw_for_retry(0), 3);
        assert_eq!(vo.cw_for_retry(1), 7);
        assert_eq!(vo.cw_for_retry(5), 7);
    }

    #[test]
    fn abbrevs() {
        let names: Vec<&str> = AccessCategory::ALL.iter().map(|a| a.abbrev()).collect();
        assert_eq!(names, vec!["BK", "BE", "VI", "VO"]);
    }

    #[test]
    fn voice_runs_out_of_retries_sooner() {
        let vo = EdcaParams::for_ac(AccessCategory::Voice);
        let be = EdcaParams::for_ac(AccessCategory::BestEffort);
        assert!(vo.retry_limit < be.retry_limit);
    }
}
