//! Per-flow FastACK state — the paper's Table 3, field for field.
//!
//! | paper        | here        | meaning                                            |
//! |--------------|-------------|----------------------------------------------------|
//! | `holes_vec`  | `holes`     | TCP holes vector (gaps dropped upstream of the AP) |
//! | `seq_high`   | `seq_high`  | highest TCP data seq seen                          |
//! | `seq_exp`    | `seq_exp`   | expected TCP data seq from the sender              |
//! | `seq_fack`   | `seq_fack`  | last fast-ACKed TCP data seq                       |
//! | `seq_tcp`    | `seq_tcp`   | last TCP data seq ACKed at the TCP layer           |
//! | `q_seq`      | `q_seq`     | queue of seqs waiting to be fast-ACKed             |
//!
//! Sequence positions are unwrapped 64-bit stream offsets; "seq" fields
//! hold the *next expected byte* convention (so `seq_fack` is one past
//! the last fast-ACKed byte, matching cumulative-ACK semantics).

use tcpsim::SeqWindow;

/// A gap in the sequence stream as seen by the AP: `[start, end)` never
/// arrived from the wire (dropped upstream, §5.5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hole {
    pub start: u64,
    pub end: u64,
}

/// Per-flow state held by the FastACK agent.
#[derive(Debug, Clone, Default)]
pub struct FlowState {
    /// Gaps the AP observed in the incoming stream.
    pub holes: Vec<Hole>,
    /// One past the highest data byte seen from the sender.
    pub seq_high: u64,
    /// Next expected data byte from the sender.
    pub seq_exp: u64,
    /// Next byte to be fast-ACKed (everything below is fast-ACKed).
    pub seq_fack: u64,
    /// Next byte the client itself has cumulatively ACKed.
    pub seq_tcp: u64,
    /// 802.11-acknowledged ranges waiting for fast-ACK continuity:
    /// start → end, non-overlapping, sorted.
    pub q_seq: SeqWindow<u64>,
    /// Latest receive window advertised by the client (bytes).
    pub client_rwnd: u64,
    /// The rx'_win value last advertised to the sender in a fast ACK /
    /// window update (drives window-update suppression).
    pub last_advertised_rwnd: u64,
    /// Count of client duplicate ACKs at the current `seq_tcp`.
    pub client_dup_acks: u32,
    /// Dup-ACK count at which the last local retransmission fired
    /// (0 = none this episode); used for exponential re-fire spacing.
    pub last_fire_dup: u32,
    /// Mid-stream adoption gate: fast ACKs are cumulative, so until the
    /// client's own ACK proves everything below the adoption baseline
    /// arrived, emitting one would vouch for bytes the agent never saw.
    /// `Some(baseline)` = hold emission until `seq_tcp ≥ baseline`.
    pub gate_until: Option<u64>,
}

impl FlowState {
    pub fn new(initial_rwnd: u64) -> FlowState {
        FlowState {
            client_rwnd: initial_rwnd,
            ..FlowState::default()
        }
    }

    /// Outstanding bytes as defined in §5.5.2:
    /// `out_bytes = seq_high − seq_tcp`.
    pub fn out_bytes(&self) -> u64 {
        self.seq_high.saturating_sub(self.seq_tcp)
    }

    /// The modified window to advertise in fast ACKs:
    /// `rx'_win = rx_win − out_bytes`.
    pub fn fast_ack_rwnd(&self) -> u64 {
        self.client_rwnd.saturating_sub(self.out_bytes())
    }

    /// Record a hole `[start, end)` (upstream loss).
    pub fn add_hole(&mut self, start: u64, end: u64) {
        debug_assert!(start < end);
        // Keep `holes` sorted by start. Upstream gaps always append
        // (seq_exp is monotone, so pos == len and this is O(1)); only a
        // queue drop of a priority retransmission can land mid-list.
        // The invariant lets per-segment SACK generation walk the holes
        // directly instead of clone+sorting on every arriving segment.
        let pos = self.holes.partition_point(|h| h.start < start);
        self.holes.insert(pos, Hole { start, end });
    }

    /// Remove/shrink holes fully covered by a retransmission `[s, e)`.
    pub fn fill_hole(&mut self, s: u64, e: u64) {
        let mut i = 0;
        while let Some(&h) = self.holes.get(i) {
            if e <= h.start || s >= h.end {
                i += 1; // disjoint
                continue;
            }
            // What survives of `h`: the part below `s`, the part from `e`.
            match (s > h.start, e < h.end) {
                (false, false) => {
                    self.holes.remove(i);
                }
                (true, false) => {
                    self.holes[i].end = s;
                    i += 1;
                }
                (false, true) => {
                    self.holes[i].start = e;
                    i += 1;
                }
                (true, true) => {
                    self.holes[i].end = s;
                    self.holes.insert(i + 1, Hole { start: e, ..h });
                    i += 2;
                }
            }
        }
    }

    /// True if `[s, e)` overlaps any recorded hole.
    pub fn in_hole(&self, s: u64, e: u64) -> bool {
        self.holes.iter().any(|h| s < h.end && h.start < e)
    }

    /// Total bytes of recorded holes above the fast-ACK point — bytes the
    /// AP never actually holds, excluded from queue-occupancy estimates.
    pub fn hole_bytes(&self) -> u64 {
        self.holes
            .iter()
            .map(|h| h.end.max(self.seq_fack) - h.start.max(self.seq_fack).min(h.end))
            .sum()
    }

    /// Enqueue an 802.11-acknowledged range into `q_seq`, merging with
    /// neighbours (802.11 ACKs arrive out of order; TCP ACKs are
    /// cumulative, so contiguity must be reconstructed here).
    pub fn enqueue_acked(&mut self, start: u64, end: u64) {
        if end <= self.seq_fack {
            return; // already fast-ACKed
        }
        self.q_seq.merge_range(start.max(self.seq_fack), end);
    }

    /// Drain `q_seq` as far as continuity from `seq_fack` allows,
    /// advancing `seq_fack`. Returns the new cumulative fast-ACK point if
    /// it advanced (the value to put in the fast ACK), else `None`.
    ///
    /// This is the paper's §5.4 "802.11 ACK flow" loop: compare the first
    /// entry with `seq_fack`; on a match emit a fast ACK and repeat until
    /// continuity breaks.
    pub fn drain_contiguous(&mut self) -> Option<u64> {
        let before = self.seq_fack;
        while let Some(&(s, e)) = self.q_seq.front() {
            if s > self.seq_fack {
                break; // continuity broken: wait for missing 802.11 ACKs
            }
            self.q_seq.pop_front();
            self.seq_fack = self.seq_fack.max(e);
        }
        (self.seq_fack > before).then_some(self.seq_fack)
    }

    /// Snapshot for roaming transfer (§5.5.4) — everything except the
    /// cache, which travels separately.
    pub fn export(&self) -> FlowState {
        self.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_bytes_and_rwnd_math() {
        let mut s = FlowState::new(65_535);
        s.seq_high = 50_000;
        s.seq_tcp = 20_000;
        assert_eq!(s.out_bytes(), 30_000);
        assert_eq!(s.fast_ack_rwnd(), 35_535);
        // Window never goes negative.
        s.seq_high = 200_000;
        assert_eq!(s.fast_ack_rwnd(), 0);
    }

    #[test]
    fn holes_add_fill_query() {
        let mut s = FlowState::default();
        s.add_hole(1000, 3000);
        assert!(s.in_hole(1500, 1600));
        assert!(s.in_hole(0, 1001));
        assert!(!s.in_hole(3000, 4000));
        // Partial fill splits the hole.
        s.fill_hole(1500, 2000);
        assert!(s.in_hole(1000, 1500));
        assert!(!s.in_hole(1500, 2000));
        assert!(s.in_hole(2000, 3000));
        assert_eq!(s.holes.len(), 2);
        // Fill the rest.
        s.fill_hole(1000, 1500);
        s.fill_hole(2000, 3000);
        assert!(s.holes.is_empty());
    }

    #[test]
    fn fill_spanning_several_holes_trims_the_ends_in_place() {
        let mut s = FlowState::default();
        for (a, b) in [(10, 20), (30, 40), (50, 60)] {
            s.add_hole(a, b);
        }
        s.fill_hole(15, 55);
        let left: Vec<(u64, u64)> = s.holes.iter().map(|h| (h.start, h.end)).collect();
        assert_eq!(left, vec![(10, 15), (55, 60)]);
    }

    #[test]
    fn drain_in_order_acks() {
        let mut s = FlowState::default();
        s.enqueue_acked(0, 1460);
        assert_eq!(s.drain_contiguous(), Some(1460));
        s.enqueue_acked(1460, 2920);
        assert_eq!(s.drain_contiguous(), Some(2920));
        assert_eq!(s.seq_fack, 2920);
        assert!(s.q_seq.is_empty());
    }

    #[test]
    fn drain_blocks_on_gap_then_releases() {
        // The paper's example: client acks seq_i and seq_{i+2} but not
        // seq_{i+1}; the fast ACK must wait for the missing one.
        let mut s = FlowState::default();
        s.enqueue_acked(0, 1460);
        s.enqueue_acked(2920, 4380); // i+2 before i+1
        assert_eq!(s.drain_contiguous(), Some(1460), "only the first");
        assert_eq!(s.q_seq.len(), 1, "i+2 parked");
        s.enqueue_acked(1460, 2920); // the straggler
        assert_eq!(s.drain_contiguous(), Some(4380), "both released");
    }

    #[test]
    fn no_advance_returns_none() {
        let mut s = FlowState::default();
        assert_eq!(s.drain_contiguous(), None);
        s.enqueue_acked(5000, 6000);
        assert_eq!(s.drain_contiguous(), None);
    }

    #[test]
    fn duplicate_mac_acks_are_idempotent() {
        let mut s = FlowState::default();
        s.enqueue_acked(0, 1460);
        s.drain_contiguous();
        // Same range acked again (MAC-level retransmission of an
        // already-delivered MPDU): must not regress or re-ack.
        s.enqueue_acked(0, 1460);
        assert!(s.q_seq.is_empty());
        assert_eq!(s.drain_contiguous(), None);
    }

    #[test]
    fn overlapping_ranges_merge_in_qseq() {
        let mut s = FlowState::default();
        s.enqueue_acked(1000, 2000);
        s.enqueue_acked(1500, 2500);
        s.enqueue_acked(2500, 3000); // adjacent
        assert_eq!(s.q_seq.len(), 1);
        assert_eq!(s.q_seq.front(), Some(&(1000, 3000)));
    }

    #[test]
    fn export_is_faithful() {
        let mut s = FlowState::new(1000);
        s.seq_high = 42;
        s.add_hole(1, 2);
        s.enqueue_acked(10, 20);
        let e = s.export();
        assert_eq!(e.seq_high, 42);
        assert_eq!(e.holes, s.holes);
        assert_eq!(e.q_seq, s.q_seq);
    }
}
