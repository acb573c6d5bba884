//! Congestion control: CUBIC.
//!
//! The congestion window is the lever FastACK acts on — by delivering
//! ACKs promptly and smoothly the sender's cwnd opens to the cap and
//! stays there (the paper's Fig. 14) — so the controller is the Linux
//! default of the paper's era, CUBIC (RFC 8312): slow start with
//! appropriate byte counting, a cubic window function in congestion
//! avoidance, and a reduction by β = 0.7 on loss.

use sim::{SimDuration, SimTime};

/// Congestion controller state, in bytes.
#[derive(Debug, Clone)]
pub struct CongestionController {
    mss: u32,
    cwnd: f64,
    ssthresh: f64,
    /// Upper bound on cwnd, bytes (the paper's testbed OS caps at 770
    /// segments; see Fig. 14).
    max_cwnd: f64,
    // CUBIC state.
    w_max: f64,
    epoch_start: Option<SimTime>,
    k: f64,
}

/// CUBIC constants (RFC 8312): C = 0.4, beta = 0.7.
const CUBIC_C: f64 = 0.4;
const CUBIC_BETA: f64 = 0.7;

impl CongestionController {
    /// Fresh controller: IW = 10 segments (RFC 6928), ssthresh = ∞.
    pub fn new(mss: u32, max_cwnd_segments: u32) -> CongestionController {
        CongestionController {
            mss,
            cwnd: 10.0 * mss as f64,
            ssthresh: f64::INFINITY,
            max_cwnd: max_cwnd_segments as f64 * mss as f64,
            w_max: 0.0,
            epoch_start: None,
            k: 0.0,
        }
    }

    /// Current congestion window in bytes.
    pub fn cwnd_bytes(&self) -> u64 {
        self.cwnd as u64
    }

    /// Current congestion window in segments (for reporting, cf. Fig. 14).
    pub fn cwnd_segments(&self) -> f64 {
        self.cwnd / self.mss as f64
    }

    /// True while in slow start.
    pub fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }

    /// Progress: `acked` new bytes were cumulatively acknowledged.
    pub fn on_ack(&mut self, acked: u64, now: SimTime, srtt: SimDuration) {
        if acked == 0 {
            return;
        }
        if self.in_slow_start() {
            // Appropriate byte counting (RFC 3465) with L = 2: growth per
            // ACK is capped at 2·MSS, so a jump-ACK after recovery cannot
            // instantly inflate cwnd into a line-rate burst.
            //= spec: rfc5681:3.1:slow-start-growth
            //= spec: rfc5681:3.1:abc-byte-counting
            let inc = (acked as f64).min(2.0 * self.mss as f64);
            self.cwnd = (self.cwnd + inc).min(self.max_cwnd);
            if self.cwnd >= self.ssthresh {
                self.cwnd = self.ssthresh.min(self.max_cwnd);
            }
            return;
        }
        // RFC 8312: W_cubic(t) = C(t − K)³ + W_max, in segments;
        // per ACK, grow toward W_cubic(t + RTT).
        let mss_f = self.mss as f64;
        if self.epoch_start.is_none() {
            self.epoch_start = Some(now);
            let wmax_seg = self.w_max.max(self.cwnd) / mss_f;
            let cwnd_seg = self.cwnd / mss_f;
            self.k = ((wmax_seg - cwnd_seg).max(0.0) / CUBIC_C).cbrt();
        }
        // Set by the `is_none()` branch directly above.
        #[allow(clippy::expect_used)]
        let t = now
            .saturating_since(self.epoch_start.expect("just set"))
            .as_secs_f64();
        let rtt_s = srtt.as_secs_f64().max(1e-3);
        let wmax_seg = self.w_max.max(self.cwnd) / mss_f;
        let w_cubic_seg = CUBIC_C * (t + rtt_s - self.k).powi(3) + wmax_seg;
        // RFC 8312 §4.2 TCP-friendly region: near the origin the
        // cubic term is glacial (0.4·t³ segments); CUBIC must
        // never grow slower than an AIMD flow would.
        let w_est_seg =
            wmax_seg * CUBIC_BETA + 3.0 * (1.0 - CUBIC_BETA) / (1.0 + CUBIC_BETA) * (t / rtt_s);
        let target = w_cubic_seg.max(w_est_seg) * mss_f;
        // Per-ACK increment, scaled by segments acknowledged;
        // in the plateau region grow minimally (1% of MSS/ACK).
        let per_ack = if target > self.cwnd {
            (target - self.cwnd) / (self.cwnd / mss_f)
        } else {
            0.01 * mss_f
        };
        let segs = (acked as f64 / mss_f).clamp(1.0, 2.0);
        self.cwnd = (self.cwnd + per_ack * segs).min(self.max_cwnd);
    }

    /// A loss was detected by duplicate ACKs / SACK (fast retransmit):
    /// multiplicative decrease.
    pub fn on_loss(&mut self) {
        self.w_max = self.cwnd;
        self.epoch_start = None;
        //= spec: rfc5681:3.1:ssthresh-on-loss
        //= spec: rfc9002:7.3.2:ssthresh-on-recovery
        self.ssthresh = (self.cwnd * CUBIC_BETA).max(2.0 * self.mss as f64);
        // Reduced at once, not gradually: cwnd equals ssthresh, so slow
        // start is over and recovery ends at the reduced window.
        //= spec: rfc9002:7.3.1:exit-slow-start-on-loss
        //= spec: rfc9002:7.3.2:cwnd-before-exit
        self.cwnd = self.ssthresh;
    }

    /// Retransmission timeout: collapse to one segment, re-enter slow
    /// start (RFC 5681 §3.1).
    pub fn on_timeout(&mut self) {
        self.w_max = self.cwnd;
        self.epoch_start = None;
        self.ssthresh = (self.cwnd / 2.0).max(2.0 * self.mss as f64);
        //= spec: rfc5681:3.1:rto-collapse
        self.cwnd = self.mss as f64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: u32 = 1460;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn rtt() -> SimDuration {
        SimDuration::from_millis(20)
    }

    #[test]
    fn initial_window_is_ten_segments() {
        let cc = CongestionController::new(MSS, 770);
        assert_eq!(cc.cwnd_bytes(), 10 * MSS as u64);
        assert!(cc.in_slow_start());
    }

    /// Acknowledge a full window in per-segment ACKs (the way a real
    /// ACK stream arrives) and return the number of ACKs used.
    fn ack_full_window(cc: &mut CongestionController, at_ms: u64) -> u64 {
        let w = cc.cwnd_bytes();
        let mut acked = 0u64;
        let mut n = 0;
        while acked < w {
            cc.on_ack(MSS as u64, t(at_ms), rtt());
            acked += MSS as u64;
            n += 1;
        }
        n
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        //= spec: rfc5681:3.1:slow-start-growth
        let mut cc = CongestionController::new(MSS, 770);
        let before = cc.cwnd_bytes();
        ack_full_window(&mut cc, 20);
        assert_eq!(cc.cwnd_bytes(), 2 * before);
    }

    #[test]
    fn abc_caps_jump_ack_growth() {
        // A single cumulative ACK covering 100 segments must not inflate
        // cwnd by 100 segments (RFC 3465, L = 2).
        //= spec: rfc5681:3.1:abc-byte-counting
        let mut cc = CongestionController::new(MSS, 770);
        let before = cc.cwnd_bytes();
        cc.on_ack(100 * MSS as u64, t(20), rtt());
        assert_eq!(cc.cwnd_bytes(), before + 2 * MSS as u64);
    }

    #[test]
    fn cwnd_caps_at_max() {
        let mut cc = CongestionController::new(MSS, 770);
        for i in 0..100 {
            ack_full_window(&mut cc, 20 * (i + 1));
        }
        assert_eq!(cc.cwnd_bytes(), 770 * MSS as u64);
        assert_eq!(cc.cwnd_segments(), 770.0);
    }

    #[test]
    fn cubic_loss_reduces_by_beta() {
        //= spec: rfc5681:3.1:ssthresh-on-loss
        //= spec: rfc9002:7.3.1:exit-slow-start-on-loss
        //= spec: rfc9002:7.3.2:ssthresh-on-recovery
        //= spec: rfc9002:7.3.2:cwnd-before-exit
        let mut cc = CongestionController::new(MSS, 770);
        for i in 0..20 {
            ack_full_window(&mut cc, 20 * (i + 1));
        }
        assert!(cc.in_slow_start());
        let before = cc.cwnd_bytes() as f64;
        cc.on_loss();
        let after = cc.cwnd_bytes() as f64;
        assert!((after / before - CUBIC_BETA).abs() < 0.01);
        assert!(!cc.in_slow_start(), "loss ends slow start");
        // A window already below 2·SMSS / β reduces to the 2·SMSS floor.
        cc.on_timeout();
        assert_eq!(cc.cwnd_bytes(), MSS as u64);
        cc.on_loss();
        assert_eq!(cc.cwnd_bytes(), 2 * MSS as u64);
        assert!(!cc.in_slow_start());
    }

    #[test]
    fn timeout_collapses_to_one_mss() {
        //= spec: rfc5681:3.1:rto-collapse
        let mut cc = CongestionController::new(MSS, 770);
        for i in 0..10 {
            ack_full_window(&mut cc, 20 * (i + 1));
        }
        cc.on_timeout();
        assert_eq!(cc.cwnd_bytes(), MSS as u64);
        assert!(cc.in_slow_start());
    }

    #[test]
    fn cubic_recovers_toward_wmax() {
        // Small cap so K = cbrt(ΔW/C) stays a few seconds and the
        // concave-convex recovery completes within the simulated acks.
        let mut cc = CongestionController::new(MSS, 100);
        for i in 0..30 {
            ack_full_window(&mut cc, 10 * (i + 1));
        }
        let w_before_loss = cc.cwnd_bytes();
        assert_eq!(w_before_loss, 100 * MSS as u64);
        cc.on_loss();
        let floor = cc.cwnd_bytes();
        let mut now = 400;
        for _ in 0..2000 {
            now += 10;
            cc.on_ack(MSS as u64, t(now), rtt());
        }
        assert!(cc.cwnd_bytes() > floor);
        assert!(
            cc.cwnd_bytes() >= (w_before_loss as f64 * 0.8) as u64,
            "cwnd = {} of {}",
            cc.cwnd_bytes(),
            w_before_loss
        );
    }

    #[test]
    fn zero_ack_is_noop() {
        let mut cc = CongestionController::new(MSS, 770);
        let before = cc.cwnd_bytes();
        cc.on_ack(0, t(5), rtt());
        assert_eq!(cc.cwnd_bytes(), before);
    }
}
