//! The AP-side retransmission cache.
//!
//! §5.5.1 of the paper: because a fast ACK moves the TCP sender past a
//! sequence number, the sender may discard the data from its own buffers
//! — so the AP *must* be able to serve local retransmissions when the
//! client duplicate-ACKs. Every data segment is inserted here before
//! being forwarded downstream, and evicted only when the *client's* TCP
//! ACK (not the fast ACK) covers it.

use tcpsim::segment::{DataSegment, FlowId};
use tcpsim::SeqWindow;

/// A cached segment (payload bytes are not materialized in the simulator;
/// length is what matters for airtime and window math).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CachedSegment {
    pub seq: u64,
    pub len: u32,
}

/// Per-flow retransmission cache with a byte budget.
#[derive(Debug, Clone)]
pub struct RetransmissionCache {
    segments: SeqWindow<u32>,
    bytes: u64,
    capacity_bytes: u64,
}

impl RetransmissionCache {
    pub fn new(capacity_bytes: u64) -> RetransmissionCache {
        RetransmissionCache {
            segments: SeqWindow::new(),
            bytes: 0,
            capacity_bytes,
        }
    }

    /// Bytes currently held.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Number of cached segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Would inserting `len` more bytes exceed the budget?
    pub fn would_overflow(&self, len: u32) -> bool {
        self.bytes + len as u64 > self.capacity_bytes
    }

    /// Insert a segment. Returns `false` (and caches nothing) if the
    /// byte budget would be exceeded — the caller must then bypass
    /// fast-ACKing for this segment, since a fast ACK without a cached
    /// copy could strand the flow.
    pub fn insert(&mut self, seq: u64, len: u32) -> bool {
        if self.would_overflow(len) {
            return false;
        }
        if let Some(old) = self.segments.insert(seq, len) {
            // Re-insertion of a retransmitted segment: adjust accounting.
            self.bytes -= old as u64;
        }
        self.bytes += len as u64;
        true
    }

    /// Fetch the cached segment that *contains* offset `seq`, for serving
    /// a duplicate ACK (the client asks for the byte at its rcv_nxt).
    pub fn lookup_containing(&self, seq: u64) -> Option<CachedSegment> {
        let &(start, len) = self.segments.floor(seq)?;
        if seq < start + len as u64 {
            Some(CachedSegment { seq: start, len })
        } else {
            None
        }
    }

    /// Append every cached segment overlapping `[from, to)` to `out` —
    /// used for SACK-driven hole retransmission. An inverted or empty
    /// range overlaps nothing.
    pub fn lookup_range(&self, from: u64, to: u64, out: &mut Vec<CachedSegment>) {
        if from >= to {
            return;
        }
        // A segment starting before `from` may still overlap it.
        let first = self.lookup_containing(from);
        let rest = self
            .segments
            .range(from, to)
            .map(|&(seq, len)| CachedSegment { seq, len });
        out.extend(first.into_iter().chain(rest.filter(|s| Some(*s) != first)));
    }

    /// Evict everything below `acked` (cumulatively acknowledged by the
    /// client at the TCP layer). Returns evicted byte count.
    pub fn release_below(&mut self, acked: u64) -> u64 {
        let mut freed = 0u64;
        self.segments.retain_below(acked, |seq, &len| {
            let covered = seq + len as u64 <= acked;
            if covered {
                freed += len as u64;
            }
            !covered
        });
        self.bytes -= freed;
        freed
    }

    /// Build a retransmittable data segment from a cached entry.
    pub fn to_segment(&self, flow: FlowId, c: CachedSegment) -> DataSegment {
        DataSegment {
            flow,
            seq: c.seq,
            len: c.len,
            retransmit: true,
        }
    }

    /// Drop everything (flow teardown / roam-away).
    pub fn clear(&mut self) {
        self.segments.clear();
        self.bytes = 0;
    }

    /// Snapshot for roaming state transfer.
    pub fn export(&self) -> Vec<CachedSegment> {
        self.segments
            .iter()
            .map(|&(seq, len)| CachedSegment { seq, len })
            .collect()
    }

    /// Restore from a roaming snapshot.
    pub fn import(&mut self, segs: &[CachedSegment]) {
        self.clear();
        for s in segs {
            self.insert(s.seq, s.len);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk() -> RetransmissionCache {
        RetransmissionCache::new(1 << 20)
    }

    #[test]
    fn insert_and_lookup() {
        let mut c = mk();
        assert!(c.insert(0, 1460));
        assert!(c.insert(1460, 1460));
        assert_eq!(c.len(), 2);
        assert_eq!(c.bytes(), 2920);
        let s = c.lookup_containing(1460).unwrap();
        assert_eq!(s.seq, 1460);
        // Mid-segment offset resolves to its containing segment.
        let s = c.lookup_containing(2000).unwrap();
        assert_eq!(s.seq, 1460);
    }

    #[test]
    fn lookup_misses_gaps() {
        let mut c = mk();
        c.insert(0, 1000);
        c.insert(5000, 1000);
        assert!(c.lookup_containing(2000).is_none());
        assert!(c.lookup_containing(4999).is_none());
        assert!(c.lookup_containing(5000).is_some());
    }

    #[test]
    fn release_below_evicts_covered_only() {
        let mut c = mk();
        c.insert(0, 1460);
        c.insert(1460, 1460);
        c.insert(2920, 1460);
        // ACK covering one and a half segments frees only the first.
        let freed = c.release_below(2000);
        assert_eq!(freed, 1460);
        assert_eq!(c.len(), 2);
        assert!(c.lookup_containing(1460).is_some());
    }

    #[test]
    fn capacity_rejects_overflow() {
        let mut c = RetransmissionCache::new(3000);
        assert!(c.insert(0, 1460));
        assert!(c.insert(1460, 1460));
        assert!(!c.insert(2920, 1460), "over budget");
        assert_eq!(c.len(), 2);
        // Releasing makes room again.
        c.release_below(1460);
        assert!(c.insert(2920, 1460));
    }

    #[test]
    fn reinsert_does_not_double_count() {
        let mut c = mk();
        c.insert(0, 1460);
        c.insert(0, 1460);
        assert_eq!(c.bytes(), 1460);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn range_lookup_covers_partial_overlap() {
        let mut c = mk();
        c.insert(0, 1460);
        c.insert(1460, 1460);
        c.insert(2920, 1460);
        let starts = |from, to| {
            let mut hits = Vec::new();
            c.lookup_range(from, to, &mut hits);
            hits.iter().map(|s| s.seq).collect::<Vec<u64>>()
        };
        assert_eq!(starts(1000, 3000), vec![0, 1460, 2920]);
        assert_eq!(starts(1460, 2920), vec![1460]);
    }

    #[test]
    fn inverted_and_empty_range_lookups_find_nothing() {
        let mut c = mk();
        c.insert(0, 1460);
        c.insert(1460, 1460);
        let mut hits = Vec::new();
        c.lookup_range(2000, 1000, &mut hits); // inverted
        c.lookup_range(1000, 1000, &mut hits); // empty
        assert!(hits.is_empty());
    }

    #[test]
    fn export_import_roundtrip() {
        let mut c = mk();
        c.insert(0, 100);
        c.insert(100, 200);
        let snapshot = c.export();
        let mut c2 = mk();
        c2.import(&snapshot);
        assert_eq!(c2.export(), snapshot);
        assert_eq!(c2.bytes(), 300);
    }

    #[test]
    fn to_segment_marks_retransmit() {
        let c = mk();
        let seg = c.to_segment(FlowId(9), CachedSegment { seq: 50, len: 10 });
        assert!(seg.retransmit);
        assert_eq!(seg.seq, 50);
    }

    #[test]
    fn clear_resets() {
        let mut c = mk();
        c.insert(0, 100);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.bytes(), 0);
    }
}
