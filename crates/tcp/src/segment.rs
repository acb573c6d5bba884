//! Wire-visible TCP units exchanged in the simulator.
//!
//! Sequence positions are *unwrapped* 64-bit stream offsets (see
//! [`crate::seq`] for the wrapped wire view). A data segment carries
//! `[seq, seq + len)`; an ACK segment acknowledges every byte below
//! `ack` (cumulative, the paper's footnote 11) and may carry SACK
//! blocks and the receiver window.

/// Identifies a TCP flow (one sender → one wireless client).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u64);

/// A TCP data segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataSegment {
    pub flow: FlowId,
    /// First byte offset carried.
    pub seq: u64,
    /// Payload length in bytes.
    pub len: u32,
    /// True if this is a (sender or middlebox) retransmission.
    pub retransmit: bool,
}

impl DataSegment {
    /// One past the last byte carried.
    pub fn end(&self) -> u64 {
        self.seq + self.len as u64
    }

    /// Causal id for the flight recorder: shared by every record any
    /// layer emits while handling this segment's first byte.
    pub fn cause(&self) -> telemetry::CauseId {
        telemetry::cause_for(self.flow.0, self.seq)
    }

    /// Typed flight-recorder record for this segment crossing a hop.
    pub fn flight_record(&self) -> telemetry::TraceRecord {
        telemetry::TraceRecord::TcpSeg {
            flow: self.flow.0,
            seq: self.seq,
            len: self.len,
            retransmit: self.retransmit,
        }
    }
}

/// The SACK blocks `[start, end)` one ACK carries: at most
/// [`SackBlocks::CAP`], held inline so an ACK never allocates. Derefs to
/// the blocks as a slice; collecting keeps the first `CAP` items and
/// [`SackBlocks::push`] on a full value drops the block.
#[derive(Clone, Copy, Default)]
pub struct SackBlocks {
    len: u8,
    blocks: [(u64, u64); SackBlocks::CAP],
}

impl SackBlocks {
    /// The TCP option-space limit (RFC 2018 §3, with timestamps on).
    pub const CAP: usize = 3;

    /// Append `block` if there is room; returns whether it was kept.
    pub fn push(&mut self, block: (u64, u64)) -> bool {
        let Some(slot) = self.blocks.get_mut(self.len as usize) else {
            return false;
        };
        *slot = block;
        self.len += 1;
        true
    }
}

impl std::ops::Deref for SackBlocks {
    type Target = [(u64, u64)];
    fn deref(&self) -> &[(u64, u64)] {
        &self.blocks[..self.len as usize]
    }
}

impl std::ops::DerefMut for SackBlocks {
    fn deref_mut(&mut self) -> &mut [(u64, u64)] {
        &mut self.blocks[..self.len as usize]
    }
}

impl FromIterator<(u64, u64)> for SackBlocks {
    fn from_iter<I: IntoIterator<Item = (u64, u64)>>(iter: I) -> SackBlocks {
        let mut out = SackBlocks::default();
        for b in iter.into_iter().take(SackBlocks::CAP) {
            out.push(b);
        }
        out
    }
}

impl AsRef<[(u64, u64)]> for SackBlocks {
    fn as_ref(&self) -> &[(u64, u64)] {
        self
    }
}

/// Equal when the blocks in use are: a `SackBlocks`, `Vec` or array.
impl<T: AsRef<[(u64, u64)]> + ?Sized> PartialEq<T> for SackBlocks {
    fn eq(&self, other: &T) -> bool {
        **self == *other.as_ref()
    }
}

impl Eq for SackBlocks {}

impl std::fmt::Debug for SackBlocks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A TCP acknowledgment: 80 bytes, `Copy`, with its SACK blocks inline,
/// so forwarding, queueing or sorting one never touches the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AckSegment {
    pub flow: FlowId,
    /// Cumulative ACK: all bytes below this offset are acknowledged.
    pub ack: u64,
    /// Receiver window in bytes (already scaled).
    pub rwnd: u64,
    /// SACK blocks; empty when the option is off or nothing is out of
    /// order. `TcpReceiver` sends its three lowest out-of-order ranges,
    /// lowest first (a deviation from RFC 2018's most-recent-first
    /// order, recorded in `specs/rfc2018.spec`); the FastACK agent
    /// orders its blocks most recently received first.
    pub sack: SackBlocks,
}

impl AckSegment {
    /// A plain cumulative ACK.
    pub fn plain(flow: FlowId, ack: u64, rwnd: u64) -> AckSegment {
        AckSegment {
            flow,
            ack,
            rwnd,
            sack: SackBlocks::default(),
        }
    }

    /// Causal id for the flight recorder: an ACK is caused by the
    /// delivery of the bytes just below it, so it joins the chain of
    /// the segment whose end equals `ack`.
    pub fn cause(&self) -> telemetry::CauseId {
        telemetry::cause_for(self.flow.0, self.ack)
    }

    /// Typed flight-recorder record for this ACK leaving the AP.
    /// `synthetic` is true when FastACK fabricated it from a MAC
    /// delivery report rather than forwarding a client ACK.
    pub fn flight_record(&self, synthetic: bool) -> telemetry::TraceRecord {
        telemetry::TraceRecord::FastAckSynth {
            flow: self.flow.0,
            ack: self.ack,
            synthetic,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_end() {
        let s = DataSegment {
            flow: FlowId(1),
            seq: 1000,
            len: 1460,
            retransmit: false,
        };
        assert_eq!(s.end(), 2460);
    }

    #[test]
    fn plain_ack_has_no_sack() {
        let a = AckSegment::plain(FlowId(2), 5000, 65535);
        assert!(a.sack.is_empty());
        assert_eq!(a.ack, 5000);
    }

    #[test]
    fn sack_blocks_keep_the_first_three() {
        let five = [(1, 2), (3, 4), (5, 6), (7, 8), (9, 10)];
        let mut b: SackBlocks = five.into_iter().collect();
        assert_eq!(b, five[..3]);
        assert!(!b.push((11, 12)), "a full value drops the block");
        assert_eq!(b, [(1, 2), (3, 4), (5, 6)]);
        b.sort_unstable_by(|x, y| y.cmp(x));
        assert_eq!(b, [(5, 6), (3, 4), (1, 2)]);
        assert_eq!(format!("{:?}", SackBlocks::default()), "[]");
    }

    #[test]
    fn flight_records_carry_segment_identity() {
        let s = DataSegment {
            flow: FlowId(3),
            seq: 1460,
            len: 1460,
            retransmit: true,
        };
        assert_eq!(s.cause(), telemetry::cause_for(3, 1460));
        assert_eq!(
            s.flight_record(),
            telemetry::TraceRecord::TcpSeg {
                flow: 3,
                seq: 1460,
                len: 1460,
                retransmit: true,
            }
        );

        let a = AckSegment::plain(FlowId(3), 2920, 65535);
        assert_eq!(a.cause(), telemetry::cause_for(3, 2920));
        assert_eq!(
            a.flight_record(true),
            telemetry::TraceRecord::FastAckSynth {
                flow: 3,
                ack: 2920,
                synthetic: true,
            }
        );
    }
}
