//! The TCP receiver endpoint (the wireless client in the paper).
//!
//! Maintains the reassembly state, generates cumulative ACKs (with
//! optional SACK blocks), applies delayed-ACK coalescing, and advertises
//! a finite receive window. The `rx_win` it advertises is the quantity
//! FastACK must respect on the sender side (§5.5.2): the AP's fast ACKs
//! advertise `rx_win − out_bytes` so the sender can never overrun the
//! real client buffer.

use crate::segment::{AckSegment, DataSegment, FlowId, SackBlocks};
use crate::window::SeqWindow;
use sim::{SimDuration, SimTime};

/// Receiver configuration.
#[derive(Debug, Clone)]
pub struct ReceiverConfig {
    /// Receive buffer capacity in bytes (advertised window base).
    pub buffer_bytes: u64,
    /// Generate SACK blocks on out-of-order data.
    pub sack: bool,
}

/// ACK every `DELACK_EVERY` in-order segments (RFC 1122 says 2).
const DELACK_EVERY: u32 = 2;
/// Max time an ACK may be delayed.
const DELACK_TIMEOUT: SimDuration = SimDuration::from_millis(40);

impl Default for ReceiverConfig {
    fn default() -> Self {
        ReceiverConfig {
            // macOS/Linux receive autotuning of the paper's era reaches
            // several MB on fast links; 4 MB keeps rwnd from binding.
            buffer_bytes: 4 << 20,
            sack: true,
        }
    }
}

/// The receiver endpoint. The application drains in-order data
/// immediately (bulk download), so the advertised window is the buffer
/// capacity minus the out-of-order bytes held for reassembly.
#[derive(Debug, Clone)]
pub struct TcpReceiver {
    pub flow: FlowId,
    cfg: ReceiverConfig,
    /// Next expected in-order byte.
    rcv_nxt: u64,
    /// Out-of-order ranges: start → end (exclusive), non-overlapping.
    ooo: SeqWindow<u64>,
    /// In-order segments since the last ACK was emitted.
    unacked_segments: u32,
    /// When the pending delayed ACK must fire.
    delack_deadline: Option<SimTime>,
    /// Total in-order bytes delivered to the application.
    pub delivered_bytes: u64,
    /// Count of duplicate (already-delivered) segments seen.
    pub duplicate_segments: u64,
}

impl TcpReceiver {
    pub fn new(flow: FlowId, cfg: ReceiverConfig) -> TcpReceiver {
        TcpReceiver {
            flow,
            cfg,
            rcv_nxt: 0,
            ooo: SeqWindow::new(),
            unacked_segments: 0,
            delack_deadline: None,
            delivered_bytes: 0,
            duplicate_segments: 0,
        }
    }

    /// Next expected sequence offset.
    pub fn rcv_nxt(&self) -> u64 {
        self.rcv_nxt
    }

    /// Current advertised window.
    pub fn rwnd(&self) -> u64 {
        let held: u64 = self.ooo.iter().map(|(s, e)| e - s).sum();
        self.cfg.buffer_bytes.saturating_sub(held)
    }

    /// Handle an arriving data segment. Returns the ACK to transmit now,
    /// if any (out-of-order and duplicate data always ACK immediately;
    /// in-order data honours delayed-ACK policy).
    pub fn on_data(&mut self, seg: &DataSegment, now: SimTime) -> Option<AckSegment> {
        debug_assert_eq!(seg.flow, self.flow);
        let (start, end) = (seg.seq, seg.end());

        if end <= self.rcv_nxt {
            // Entirely old: duplicate. Immediate ACK (it may be a window
            // probe or a retransmission racing our ACK).
            self.duplicate_segments += 1;
            return Some(self.make_ack());
        }

        if start <= self.rcv_nxt {
            // In-order (possibly partially duplicate) data. If the
            // reassembly queue was non-empty this segment fills (part of)
            // a hole, and RFC 5681 §4.2 requires an immediate ACK.
            let had_ooo = !self.ooo.is_empty();
            self.advance_to(end);
            self.absorb_ooo();
            self.unacked_segments += 1;
            //= spec: rfc5681:4.2:ack-every-second
            //= spec: rfc5681:4.2:holefill-immediate-ack
            if self.unacked_segments >= DELACK_EVERY || had_ooo {
                return Some(self.emit_ack());
            }
            // The delayed ACK is bounded by the delack timer, far inside
            // the 500 ms ceiling.
            //= spec: rfc5681:4.2:ack-500ms
            if self.delack_deadline.is_none() {
                self.delack_deadline = Some(now + DELACK_TIMEOUT);
            }
            return None;
        }

        // Out of order: store and emit an immediate duplicate ACK with
        // SACK info (this is what drives fast retransmit at the sender).
        //= spec: rfc5681:4.2:ooo-immediate-dupack
        self.ooo.merge_range(start, end);
        Some(self.emit_ack())
    }

    /// Deadline of the pending delayed ACK, if one is armed.
    pub fn delack_deadline(&self) -> Option<SimTime> {
        self.delack_deadline
    }

    /// The delayed-ACK timer fired.
    pub fn on_delack_timeout(&mut self, now: SimTime) -> Option<AckSegment> {
        match self.delack_deadline {
            Some(dl) if now >= dl && self.unacked_segments > 0 => Some(self.emit_ack()),
            _ => None,
        }
    }

    fn advance_to(&mut self, end: u64) {
        let newly = end - self.rcv_nxt;
        self.rcv_nxt = end;
        self.delivered_bytes += newly;
    }

    /// Pull any now-contiguous out-of-order ranges into the in-order
    /// stream.
    fn absorb_ooo(&mut self) {
        while let Some(&(s, e)) = self.ooo.front() {
            if s > self.rcv_nxt {
                break;
            }
            self.ooo.pop_front();
            if e > self.rcv_nxt {
                self.advance_to(e);
            }
        }
    }

    fn emit_ack(&mut self) -> AckSegment {
        self.unacked_segments = 0;
        self.delack_deadline = None;
        self.make_ack()
    }

    fn make_ack(&self) -> AckSegment {
        let sack = if self.cfg.sack {
            // Up to 3 SACK blocks (collecting into `SackBlocks` keeps
            // the first 3), the lowest ranges, lowest first: a
            // deviation from the clause's newest-first order, recorded
            // in its spec entry (the receiver's ooo ranges are few; the
            // AP-side FastACK emulation orders most-recent-first).
            // Every block comes from `ooo`, which only ever holds ranges
            // above `rcv_nxt`.
            //= spec: rfc2018:4:three-block-limit
            //= spec: rfc2018:4:blocks-above-ack
            self.ooo.iter().copied().collect()
        } else {
            SackBlocks::default()
        };
        AckSegment {
            flow: self.flow,
            //= spec: rfc793:3.3:cumulative-ack
            ack: self.rcv_nxt,
            rwnd: self.rwnd(),
            sack,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn seg(seq: u64, len: u32) -> DataSegment {
        DataSegment {
            flow: FlowId(1),
            seq,
            len,
            retransmit: false,
        }
    }

    fn mk() -> TcpReceiver {
        TcpReceiver::new(FlowId(1), ReceiverConfig::default())
    }

    #[test]
    fn in_order_data_delack_every_second_segment() {
        //= spec: rfc5681:4.2:ack-every-second
        let mut r = mk();
        assert!(r.on_data(&seg(0, 1460), t(0)).is_none(), "first delayed");
        let a = r.on_data(&seg(1460, 1460), t(1)).expect("second acks");
        assert_eq!(a.ack, 2920);
        assert!(a.sack.is_empty());
    }

    #[test]
    fn delack_timer_flushes() {
        //= spec: rfc5681:4.2:ack-500ms
        let mut r = mk();
        assert!(r.on_data(&seg(0, 1460), t(0)).is_none());
        let dl = r.delack_deadline().unwrap();
        assert_eq!(dl, t(40));
        assert!(r.on_delack_timeout(t(39)).is_none(), "not yet");
        let a = r.on_delack_timeout(t(40)).unwrap();
        assert_eq!(a.ack, 1460);
        assert!(r.delack_deadline().is_none());
    }

    #[test]
    fn out_of_order_acks_immediately_with_sack() {
        //= spec: rfc5681:4.2:ooo-immediate-dupack
        //= spec: rfc2018:4:blocks-above-ack
        let mut r = mk();
        let a = r.on_data(&seg(2920, 1460), t(0)).expect("immediate dupack");
        assert_eq!(a.ack, 0, "cumulative ack unchanged");
        assert_eq!(a.sack, vec![(2920, 4380)]);
    }

    #[test]
    fn hole_fill_advances_over_ooo() {
        //= spec: rfc793:3.3:cumulative-ack
        let mut r = mk();
        r.on_data(&seg(1460, 1460), t(0)); // ooo
        r.on_data(&seg(2920, 1460), t(1)); // ooo, merged
        let a = r.on_data(&seg(0, 1460), t(2)).expect("ack on fill");
        assert_eq!(a.ack, 4380, "jumped past merged ooo data");
        assert!(a.sack.is_empty());
        assert_eq!(r.delivered_bytes, 4380);
    }

    #[test]
    fn duplicate_data_acks_immediately() {
        let mut r = mk();
        r.on_data(&seg(0, 1460), t(0));
        r.on_data(&seg(1460, 1460), t(1));
        let a = r.on_data(&seg(0, 1460), t(2)).expect("dup ack");
        assert_eq!(a.ack, 2920);
        assert_eq!(r.duplicate_segments, 1);
        assert_eq!(r.delivered_bytes, 2920, "no double count");
    }

    #[test]
    fn rwnd_shrinks_with_held_ooo_bytes() {
        let mut r = TcpReceiver::new(
            FlowId(1),
            ReceiverConfig {
                buffer_bytes: 10_000,
                ..ReceiverConfig::default()
            },
        );
        assert_eq!(r.rwnd(), 10_000);
        r.on_data(&seg(5000, 2000), t(0));
        assert_eq!(r.rwnd(), 8_000);
        // Fill the hole: ooo drains, window restores.
        r.on_data(&seg(0, 5000), t(1));
        assert_eq!(r.rwnd(), 10_000);
    }

    #[test]
    fn sack_disabled_sends_plain_dupacks() {
        let mut r = TcpReceiver::new(
            FlowId(1),
            ReceiverConfig {
                sack: false,
                ..ReceiverConfig::default()
            },
        );
        let a = r.on_data(&seg(2920, 1460), t(0)).unwrap();
        assert!(a.sack.is_empty());
    }

    #[test]
    fn sack_blocks_capped_at_three() {
        //= spec: rfc2018:4:three-block-limit
        let mut r = mk();
        // Four disjoint holes.
        r.on_data(&seg(2_000, 500), t(0));
        r.on_data(&seg(4_000, 500), t(0));
        r.on_data(&seg(6_000, 500), t(0));
        let a = r.on_data(&seg(8_000, 500), t(0)).unwrap();
        // The recorded deviation: the three lowest ranges, lowest first.
        assert_eq!(a.sack, [(2_000, 2_500), (4_000, 4_500), (6_000, 6_500)]);
    }

    #[test]
    fn overlapping_ooo_ranges_merge() {
        let mut r = mk();
        r.on_data(&seg(1000, 500), t(0));
        r.on_data(&seg(1400, 500), t(0)); // overlaps previous
        r.on_data(&seg(1900, 100), t(0)); // adjacent
        let a = r.on_data(&seg(5000, 10), t(0)).unwrap();
        assert_eq!(a.sack[0], (1000, 2000), "merged into one block");
    }

    #[test]
    fn partially_duplicate_segment_advances_correctly() {
        let mut r = mk();
        r.on_data(&seg(0, 1460), t(0));
        // Overlapping retransmission covering old + new bytes.
        r.on_data(&seg(730, 1460), t(1));
        assert_eq!(r.rcv_nxt(), 2190);
        assert_eq!(r.delivered_bytes, 2190);
    }

    #[test]
    fn in_order_while_holes_exist_acks_immediately() {
        let mut r = mk();
        //= spec: rfc5681:4.2:holefill-immediate-ack
        r.on_data(&seg(2920, 1460), t(0)); // hole at [0,2920)
                                           // First in-order segment: must ACK immediately (not delay) while
                                           // reassembly queue is non-empty, per RFC 5681 §4.2.
        let a = r.on_data(&seg(0, 1460), t(1)).expect("immediate");
        assert_eq!(a.ack, 1460);
        assert_eq!(a.sack, vec![(2920, 4380)]);
    }
}
