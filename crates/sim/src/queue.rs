//! The event queue at the heart of the discrete-event kernel.
//!
//! The queue is generic over the event payload type: each domain crate
//! (MAC simulation, network simulation, …) defines its own event enum and
//! drives an `EventQueue<E>`. Two properties the rest of the system relies
//! on:
//!
//! 1. **Monotonicity** — events pop in non-decreasing timestamp order, and
//!    scheduling strictly in the past is rejected (`schedule` panics in
//!    debug builds, clamps to `now` in release).
//! 2. **Stable tie-break** — events with equal timestamps pop in the order
//!    they were scheduled. Without this, runs would be sensitive to heap
//!    internals and replay determinism would be lost.
//!
//! ## Arena payload store
//!
//! Payloads live in a slab (`Vec<Option<(seq, E)>>`) with a free-list, not
//! inside the ordering entries. An entry is three plain words
//! `(at, seq, slot)`, and a popped or cancelled payload's slot is reused
//! by the next `schedule` — steady-state simulation allocates nothing per
//! event. Stale entries left behind by lazy cancellation never touch the
//! payload: liveness is decided by the seq tag stored in the slab slot,
//! so an entry (or an [`EventId`]) pointing at a reused slot sees a
//! different tag and is discarded. No auxiliary map.
//!
//! ## A sorted-run lane in front of the heap
//!
//! A packet simulation schedules almost everything at `now + constant`,
//! and `now` only moves forward: the timestamps arrive already sorted.
//! Entries therefore go first to a FIFO lane (`VecDeque<Entry>`).
//! **Lane invariant: the lane is a sorted run** — `schedule` appends
//! to it when its back is `<= at` (seq tags only grow, so the run is
//! sorted by `(at, seq)`), and only an entry scheduled before the
//! lane's back falls back to the binary heap. `pop` and `peek_time`
//! take the `(at, seq)`-minimum of the lane front and the heap top,
//! which is exactly the order one heap over all entries would produce:
//! pop order, tie-break, every [`QueueStats`] counter and the arena's
//! slot assignment do not depend on where an entry waited. Cost: an
//! entry that rides the lane is O(1) in and out (a `push_back`, a
//! `pop_front` and one compare); an out-of-order entry pays the heap's
//! O(log n) over the *out-of-order* entries only. One lane, because
//! the one driver with a monotone schedule (`netsim::testbed`) has one
//! delay; a second lane belongs with the first workload that has two.

use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Handle identifying a scheduled event; used to cancel timers
/// (e.g. a TCP retransmission timer that is re-armed on every ACK).
/// Carries the event's unique sequence number (the identity, and the
/// ordering) plus its arena slot, so cancellation is a direct slab
/// probe — the slot alone would be ambiguous after reuse, the seq tag
/// disambiguates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId {
    seq: u64,
    slot: usize,
}

/// Lifetime counters for one queue — cheap plain integers the driver
/// can export into a `telemetry::metrics` registry (`sim` sits below
/// `telemetry` in the dependency graph, so the queue cannot hold a
/// registry handle itself).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events ever scheduled.
    pub scheduled: u64,
    /// Live events popped (excludes cancelled ones skipped over).
    pub popped: u64,
    /// Successful cancellations.
    pub cancelled: u64,
    /// High-watermark of simultaneously pending live events — how deep
    /// the queue ever got. Together with `arena_capacity` this is the
    /// capacity-sizing number for the ROADMAP's bounded-memory claims.
    pub depth_peak: u64,
}

/// One pending entry: ordering key plus the slab slot holding the
/// payload. Deliberately payload-free and `Copy` — heap sifts and lane
/// pushes move 24 bytes.
#[derive(Clone, Copy)]
struct Entry {
    at: SimTime,
    seq: u64,
    slot: usize,
}

impl Entry {
    /// Pop order: earliest first, ties by ascending sequence number.
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

// BinaryHeap is a max-heap; invert the ordering to pop earliest first,
// breaking timestamp ties by ascending sequence number.
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Entry {}

/// A time-ordered queue of future events.
pub struct EventQueue<E> {
    // A run sorted by `(at, seq)`; see the module docs.
    lane: VecDeque<Entry>,
    // Entries the lane could not take (scheduled before its back).
    heap: BinaryHeap<Entry>,
    // How many entries that was, ever — a driver whose schedule is
    // monotone should see this stay near zero.
    heap_fallbacks: u64,
    // Arena of pending payloads. `Some((seq, payload))` while the event
    // is live; the seq tag lets the sanitizer prove an entry and its
    // slot still describe the same event.
    slab: Vec<Option<(u64, E)>>,
    // Vacant slab indices, reused LIFO by the next schedule.
    free: Vec<usize>,
    now: SimTime,
    next_seq: u64,
    // Cancelled events keep their lane or heap entry (lazy deletion)
    // and are skipped on pop; cancellation itself is an O(1) slab probe
    // through the handle's (slot, seq) pair. This counter keeps
    // `len`/`is_empty` honest without a side map.
    live_count: usize,
    stats: QueueStats,
    // Timestamp of the most recently popped event, used by the
    // sim-sanitizer to re-verify pop order from outside the containers.
    last_popped_at: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Empty queue positioned at time zero.
    pub fn new() -> Self {
        EventQueue {
            lane: VecDeque::new(),
            heap: BinaryHeap::new(),
            heap_fallbacks: 0,
            slab: Vec::new(),
            free: Vec::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            live_count: 0,
            stats: QueueStats::default(),
            last_popped_at: SimTime::ZERO,
        }
    }

    /// Current simulated time: the timestamp of the last popped event
    /// (or zero before any pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.live_count
    }

    /// True when no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live_count == 0
    }

    /// Lifetime scheduled/popped/cancelled counters.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Slab slots ever allocated for payload storage. Once the queue
    /// reaches its steady-state high-water mark this stops growing —
    /// popped and cancelled slots are recycled through the free-list.
    pub fn arena_capacity(&self) -> usize {
        self.slab.len()
    }

    /// Vacant slab slots awaiting reuse.
    pub fn arena_free(&self) -> usize {
        self.free.len()
    }

    /// Events ever scheduled that the sorted-run lane could not take and
    /// the heap ordered instead (`stats().scheduled` minus this rode the
    /// lane at O(1)). Test diagnostics, not API: exported nowhere.
    #[doc(hidden)]
    pub fn heap_fallbacks(&self) -> u64 {
        self.heap_fallbacks
    }

    /// Schedule `payload` at absolute time `at`. Returns a handle usable
    /// with [`EventQueue::cancel`].
    ///
    /// Scheduling before `now` is a logic error: debug builds panic;
    /// release builds clamp to `now` so a slightly-stale timer fires
    /// immediately rather than corrupting the clock.
    pub fn schedule(&mut self, at: SimTime, payload: E) -> EventId {
        debug_assert!(
            at >= self.now,
            "scheduled event in the past: at={at} now={}",
            self.now
        );
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                crate::sanitize::check(
                    self.slab[slot].is_none(),
                    "event arena free-list handed out an occupied slot",
                );
                self.slab[slot] = Some((seq, payload));
                slot
            }
            None => {
                self.slab.push(Some((seq, payload)));
                self.slab.len() - 1
            }
        };
        let entry = Entry { at, seq, slot };
        if self.lane.back().is_none_or(|b| b.at <= at) {
            self.lane.push_back(entry);
        } else {
            self.heap.push(entry);
            self.heap_fallbacks += 1;
        }
        self.live_count += 1;
        self.stats.scheduled += 1;
        self.stats.depth_peak = self.stats.depth_peak.max(self.live_count as u64);
        EventId { seq, slot }
    }

    /// Schedule `payload` after a delay relative to `now`.
    pub fn schedule_in(&mut self, delay: SimDuration, payload: E) -> EventId {
        let at = self.now + delay;
        self.schedule(at, payload)
    }

    /// Cancel a previously scheduled event. Returns `true` if the event
    /// was still pending. O(1): the handle names its arena slot, and the
    /// slot's seq tag says whether it still holds this event (a popped or
    /// cancelled event's slot either went vacant or was reused under a
    /// different seq). The lane or heap entry stays behind (lazy deletion)
    /// and is discarded when it becomes the minimum. A TCP RTO re-arm (one
    /// cancel per ACK) used to pay a full-heap existence scan here,
    /// quadratic in flight size.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let live = id.slot < self.slab.len()
            && self.slab[id.slot]
                .as_ref()
                .is_some_and(|&(seq, _)| seq == id.seq);
        if live {
            self.slab[id.slot] = None;
            self.free.push(id.slot);
            self.live_count -= 1;
            self.stats.cancelled += 1;
        }
        live
    }

    /// Liveness: the slot must still carry the entry's seq tag — a
    /// cancelled event left the slot vacant (or reused under a newer
    /// seq), so a stale entry can never surface a payload that is not
    /// its own.
    fn is_live(&self, entry: &Entry) -> bool {
        self.slab[entry.slot]
            .as_ref()
            .is_some_and(|&(seq, _)| seq == entry.seq)
    }

    /// The `(at, seq)`-minimum live entry and whether it waits in the
    /// lane (else the heap), discarding cancelled entries as they
    /// surface.
    fn next_live(&mut self) -> Option<(bool, Entry)> {
        loop {
            let (in_lane, entry) = match (self.lane.front(), self.heap.peek()) {
                (Some(&l), Some(&h)) if h.key() < l.key() => (false, h),
                (Some(&l), _) => (true, l),
                (None, Some(&h)) => (false, h),
                (None, None) => return None,
            };
            if self.is_live(&entry) {
                return Some((in_lane, entry));
            }
            self.discard(in_lane);
        }
    }

    /// Drop the front of the lane or the top of the heap (see
    /// [`Self::next_live`]).
    fn discard(&mut self, in_lane: bool) {
        if in_lane {
            self.lane.pop_front();
        } else {
            self.heap.pop();
        }
    }

    /// Pop the earliest live event, advancing `now` to its timestamp.
    /// Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (in_lane, entry) = self.next_live()?;
        Some(self.take(in_lane, entry))
    }

    /// [`Self::pop`] iff the earliest live event is due (`at <= now()`):
    /// a driver that moves the clock itself with [`Self::advance_to`]
    /// drains what it skipped past with `while let Some(..) = pop_due()`,
    /// one minimum search per event.
    pub fn pop_due(&mut self) -> Option<(SimTime, E)> {
        let (in_lane, entry) = self.next_live()?;
        (entry.at <= self.now).then(|| self.take(in_lane, entry))
    }

    /// Remove the live minimum [`Self::next_live`] just found and move
    /// the clock to it.
    fn take(&mut self, in_lane: bool, entry: Entry) -> (SimTime, E) {
        self.discard(in_lane);
        let (_, payload) = self.slab[entry.slot]
            .take()
            // `next_live` just matched this slot's tag.
            // simcheck: allow(unwrap-in-lib)
            .expect("live event missing from arena");
        self.free.push(entry.slot);
        self.live_count -= 1;
        crate::sanitize::check_event_order(self.last_popped_at, entry.at);
        self.last_popped_at = entry.at;
        // If the clock was advanced past this event (a driver that
        // models busy periods with `advance_to`), the event fires
        // late, at the current clock — time never runs backwards.
        let next_now = self.now.max(entry.at);
        crate::sanitize::check_time_monotonic(self.now, next_now);
        self.now = next_now;
        self.stats.popped += 1;
        (self.now, payload)
    }

    /// Timestamp of the next live event without popping it.
    ///
    /// Takes `&mut self` so cancelled entries sitting at the minimum can
    /// be discarded as they are found, instead of being re-skipped on
    /// every run-loop bounds check.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.next_live().map(|(_, entry)| entry.at)
    }

    /// Advance the clock with no event — used by drivers that model
    /// occupancy (e.g. a radio busy period) outside the queue. Pending
    /// events whose timestamps fall inside the skipped span fire *late*,
    /// at the advanced clock, when next popped.
    pub fn advance_to(&mut self, to: SimTime) {
        crate::sanitize::check_time_monotonic(self.now, to);
        self.now = self.now.max(to);
    }

    /// Sanitizer audit of the arena bookkeeping as a whole: occupied +
    /// free slots cover the slab with no overlap, occupancy equals the
    /// live count, no free slot still holds a payload, the lane is a
    /// sorted run, and every occupied slot has exactly one live lane or
    /// heap entry naming it (its seq tag). O(n log n) — called from tests
    /// and the property suite, not from the hot path. No-op unless the
    /// sim-sanitizer is active.
    pub fn audit_arena(&self) {
        if !crate::sanitize::enabled() {
            return;
        }
        let occupied = self.slab.iter().filter(|s| s.is_some()).count();
        crate::sanitize::check(
            occupied == self.live_count,
            "arena occupancy disagrees with the live-event count",
        );
        crate::sanitize::check(
            occupied + self.free.len() == self.slab.len(),
            "arena slots leaked: occupied + free != allocated",
        );
        for slot in &self.free {
            crate::sanitize::check(
                self.slab[*slot].is_none(),
                "free-list references an occupied arena slot",
            );
        }
        crate::sanitize::check(
            self.lane
                .iter()
                .zip(self.lane.iter().skip(1))
                .all(|(a, b)| a.key() < b.key()),
            "event lane is not a sorted run",
        );
        // Each occupied slot's tag must be backed by exactly one entry
        // carrying that (seq, slot) pair — a live event with no entry
        // would never fire; a duplicate would fire twice.
        let mut tags: Vec<(u64, usize)> = self
            .lane
            .iter()
            .chain(self.heap.iter())
            .filter(|e| self.is_live(e))
            .map(|e| (e.seq, e.slot))
            .collect();
        tags.sort_unstable();
        tags.dedup();
        crate::sanitize::check(
            tags.len() == occupied,
            "live events and backing entries disagree",
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(30), "c");
        q.schedule(SimTime::from_micros(10), "a");
        q.schedule(SimTime::from_micros(20), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn now_tracks_last_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_micros(7));
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(10), 1);
        q.pop();
        q.schedule_in(SimDuration::from_micros(5), 2);
        let (t, e) = q.pop().unwrap();
        assert_eq!(e, 2);
        assert_eq!(t, SimTime::from_micros(15));
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_micros(1), "a");
        q.schedule(SimTime::from_micros(2), "b");
        assert_eq!(q.len(), 2);
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel reports false");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, "b");
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_after_pop_is_false() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_micros(1), "a");
        q.pop();
        assert!(!q.cancel(a));
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut q: EventQueue<()> = EventQueue::new();
        // A handle naming a slot the arena never allocated.
        assert!(!q.cancel(EventId {
            seq: 12345,
            slot: 12345
        }));
        // A handle naming a real slot but a seq that no longer owns it.
        let a = q.schedule(SimTime::from_micros(1), ());
        assert!(q.cancel(a));
        assert!(!q.cancel(EventId {
            seq: a.seq + 999,
            slot: a.slot
        }));
    }

    #[test]
    fn peek_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_micros(1), "a");
        q.schedule(SimTime::from_micros(2), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(2)));
    }

    #[test]
    fn len_is_exact_under_mixed_ops() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..10)
            .map(|i| q.schedule(SimTime::from_micros(i), i))
            .collect();
        q.cancel(ids[3]);
        q.cancel(ids[7]);
        assert_eq!(q.len(), 8);
        let mut n = 0;
        while q.pop().is_some() {
            n += 1;
        }
        assert_eq!(n, 8);
        assert!(q.is_empty());
    }

    #[test]
    fn stats_track_scheduled_popped_cancelled() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..5)
            .map(|i| q.schedule(SimTime::from_micros(i), i))
            .collect();
        q.cancel(ids[1]);
        q.cancel(ids[1]); // no-op, must not double count
        q.pop();
        q.pop();
        let s = q.stats();
        assert_eq!(s.scheduled, 5);
        assert_eq!(s.cancelled, 1);
        assert_eq!(s.popped, 2);
    }

    #[test]
    fn depth_peak_tracks_max_concurrent_pending() {
        let mut q = EventQueue::new();
        for i in 0..7 {
            q.schedule(SimTime::from_micros(i), i);
        }
        // Drain to zero, then refill shallower: the peak must not move.
        while q.pop().is_some() {}
        for i in 0..3u64 {
            q.schedule(q.now() + SimDuration::from_micros(i + 1), i);
        }
        assert_eq!(q.stats().depth_peak, 7);
        // A deeper refill raises it.
        for i in 3..9u64 {
            q.schedule(q.now() + SimDuration::from_micros(i + 1), i);
        }
        assert_eq!(q.stats().depth_peak, 9);
    }

    #[test]
    fn peek_discards_cancelled_tops_eagerly() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..50)
            .map(|i| q.schedule(SimTime::from_micros(i), i))
            .collect();
        for id in &ids[..49] {
            q.cancel(*id);
        }
        // 49 cancelled entries sit on top; peek must skip them all and
        // still report the single live event.
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(49)));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, 49);
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn cancel_interleaved_with_equal_times_keeps_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        let ids: Vec<_> = (0..10).map(|i| q.schedule(t, i)).collect();
        for i in (0..10).step_by(2) {
            assert!(q.cancel(ids[i]));
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn advance_to_moves_clock() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.advance_to(SimTime::from_secs(3));
        assert_eq!(q.now(), SimTime::from_secs(3));
    }

    #[test]
    fn arena_reuses_slots_in_steady_state() {
        let mut q = EventQueue::new();
        // Prime the arena to its high-water mark.
        let ids: Vec<_> = (0..16)
            .map(|i| q.schedule(SimTime::from_micros(i), i))
            .collect();
        assert_eq!(q.arena_capacity(), 16);
        // Half cancelled, half popped: every slot must return to the
        // free-list either way.
        for id in &ids[..8] {
            q.cancel(*id);
        }
        while q.pop().is_some() {}
        assert_eq!(q.arena_free(), 16);
        // Steady-state churn: the arena never grows past its peak.
        for round in 0..100u64 {
            for i in 0..16 {
                q.schedule(q.now() + SimDuration::from_micros(i + 1), round);
            }
            while q.pop().is_some() {}
        }
        assert_eq!(q.arena_capacity(), 16, "arena grew under steady churn");
        q.audit_arena();
    }

    #[test]
    fn stale_heap_entry_never_reads_a_reused_slot() {
        let mut q = EventQueue::new();
        // Cancel an event, then immediately reschedule into the slot it
        // vacated (LIFO free-list guarantees reuse) with a *later* time.
        // The stale heap entry surfaces first and must be skipped, not
        // resolved through the reused slot.
        let a = q.schedule(SimTime::from_micros(1), "dead");
        q.cancel(a);
        q.schedule(SimTime::from_micros(5), "live");
        assert_eq!(q.arena_capacity(), 1, "slot was not reused");
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(5)));
        assert_eq!(q.pop(), Some((SimTime::from_micros(5), "live")));
        assert!(q.pop().is_none());
        q.audit_arena();
    }

    #[test]
    #[should_panic(expected = "scheduled event in the past")]
    #[cfg(debug_assertions)]
    fn scheduling_in_past_panics_in_debug() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(10), ());
        q.pop();
        q.schedule(SimTime::from_micros(5), ());
    }

    #[test]
    #[should_panic(expected = "sim-sanitizer: clock moved backwards")]
    #[cfg(any(debug_assertions, feature = "sanitize"))]
    fn advancing_clock_backwards_is_a_violation() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.advance_to(SimTime::from_secs(3));
        q.advance_to(SimTime::from_secs(2));
    }

    #[test]
    #[cfg(any(debug_assertions, feature = "sanitize"))]
    fn pop_order_recheck_passes_on_normal_runs() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(10), 1);
        q.advance_to(SimTime::from_micros(50)); // event at t=10 fires late
        q.schedule(SimTime::from_micros(60), 2);
        assert_eq!(q.pop().unwrap(), (SimTime::from_micros(50), 1));
        assert_eq!(q.pop().unwrap(), (SimTime::from_micros(60), 2));
    }
}

#[cfg(test)]
mod model_tests {
    //! The queue must agree, operation by operation, with a naive model
    //! (a plain Vec scanned for the minimum) on `len`, cancel results,
    //! peek times, pop order and counters — and the arena bookkeeping
    //! must stay internally consistent throughout (see `audit_arena`).

    use super::*;
    use proptest::prelude::*;

    /// Naive reference: (at, seq, payload) triples, popped by scanning
    /// for min (at, seq) — FIFO on ties by construction.
    #[derive(Default)]
    struct NaiveQueue {
        pending: Vec<(SimTime, u64, u64)>,
        now: SimTime,
        next_seq: u64,
        stats: QueueStats,
    }

    impl NaiveQueue {
        fn schedule(&mut self, at: SimTime, payload: u64) -> u64 {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.pending.push((at.max(self.now), seq, payload));
            self.stats.scheduled += 1;
            self.stats.depth_peak = self.stats.depth_peak.max(self.pending.len() as u64);
            seq
        }

        fn cancel(&mut self, seq: u64) -> bool {
            if let Some(pos) = self.pending.iter().position(|&(_, s, _)| s == seq) {
                self.pending.remove(pos);
                self.stats.cancelled += 1;
                true
            } else {
                false
            }
        }

        fn peek_time(&self) -> Option<SimTime> {
            self.pending.iter().map(|&(at, _, _)| at).min()
        }

        fn pop(&mut self) -> Option<(SimTime, u64)> {
            let pos = self
                .pending
                .iter()
                .enumerate()
                .min_by_key(|(_, &(at, seq, _))| (at, seq))
                .map(|(i, _)| i)?;
            let (at, _, payload) = self.pending.remove(pos);
            self.now = self.now.max(at);
            self.stats.popped += 1;
            Some((self.now, payload))
        }

        fn pop_due(&mut self) -> Option<(SimTime, u64)> {
            self.peek_time().filter(|&at| at <= self.now)?;
            self.pop()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Every way an entry can reach the lane or the heap, mixed: runs
        /// that extend the lane, repeats of one timestamp, inserts below
        /// the lane's back (heap), `advance_to` past pending events
        /// (late fires), cancels of whatever is pending — lane and heap
        /// entries alike — and reschedules into the slot a cancel just
        /// freed (LIFO free-list) while the cancelled entry is still
        /// pending discard. `peek_time` runs after only half of the
        /// operations, so a stale minimum is evicted sometimes by a peek
        /// and sometimes by the pop (or `pop_due`) itself. Pop order, peek,
        /// `len` and all four counters must track the model throughout.
        #[test]
        fn mixed_schedules_match_naive_model(
            ops in proptest::collection::vec(any::<u64>(), 1..400),
        ) {
            let mut q = EventQueue::new();
            let mut model = NaiveQueue::default();
            let mut ids: Vec<(EventId, u64)> = Vec::new();
            let mut last_at = SimTime::ZERO;

            for op in ops {
                let arg = op >> 4;
                let schedule_at = match op % 16 {
                    // Monotone run: at or after the previous schedule.
                    0..=4 => Some(last_at.max(q.now()) + SimDuration::from_micros(arg % 4)),
                    // Anywhere ahead of the clock: usually out of order.
                    5 | 6 => Some(q.now() + SimDuration::from_micros(arg % 1000)),
                    7 | 8 => {
                        if !ids.is_empty() {
                            let (id, seq) = ids[arg as usize % ids.len()];
                            prop_assert_eq!(q.cancel(id), model.cancel(seq));
                        }
                        // Odd: the next schedule reuses the freed slot.
                        (op % 16 == 8).then(|| q.now() + SimDuration::from_micros(arg % 300))
                    }
                    9 => {
                        let to = q.now() + SimDuration::from_micros(arg % 200);
                        q.advance_to(to);
                        model.now = model.now.max(to);
                        None
                    }
                    // Due-only pop: `None` while the minimum is ahead of
                    // the clock, however much is pending.
                    10 | 11 => {
                        prop_assert_eq!(q.pop_due(), model.pop_due());
                        None
                    }
                    _ => {
                        prop_assert_eq!(q.pop(), model.pop());
                        None
                    }
                };
                if let Some(at) = schedule_at {
                    last_at = at;
                    ids.push((q.schedule(at, arg), model.schedule(at, arg)));
                }
                prop_assert_eq!(q.now(), model.now);
                prop_assert_eq!(q.len(), model.pending.len());
                if op >> 63 == 0 {
                    prop_assert_eq!(q.peek_time(), model.peek_time());
                }
                prop_assert_eq!(q.stats(), model.stats);
                q.audit_arena();
            }

            while let Some(popped) = model.pop() {
                prop_assert_eq!(q.pop(), Some(popped));
            }
            prop_assert_eq!(q.pop(), None);
            prop_assert_eq!(q.stats(), model.stats);
            prop_assert!(q.heap_fallbacks() <= q.stats().scheduled);
            q.audit_arena();
        }
    }

    // Cancel-dense mixes: 2 of every 5 (resp. 6) operations cancel, so
    // lazy deletion and slot reuse stay busy on live entries.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn cancel_heavy_ops_match_naive_model(
            ops in proptest::collection::vec(any::<u64>(), 1..300),
        ) {
            let mut q = EventQueue::new();
            let mut model = NaiveQueue::default();
            let mut ids: Vec<(EventId, u64)> = Vec::new();

            for op in ops {
                // Decode each word into an operation; bias toward
                // cancellation so the lazy-deletion path stays busy.
                match op % 5 {
                    0 | 1 => {
                        let dt = SimDuration::from_micros((op >> 3) % 1000);
                        let at = q.now() + dt;
                        let payload = op >> 3;
                        let id = q.schedule(at, payload);
                        let seq = model.schedule(at, payload);
                        ids.push((id, seq));
                    }
                    2 | 3 => {
                        if !ids.is_empty() {
                            let (id, seq) = ids[(op as usize >> 3) % ids.len()];
                            prop_assert_eq!(q.cancel(id), model.cancel(seq));
                        }
                    }
                    _ => {
                        prop_assert_eq!(q.pop(), model.pop());
                    }
                }
                prop_assert_eq!(q.len(), model.pending.len());
                prop_assert_eq!(q.peek_time(), model.peek_time());
            }

            // Drain: remaining pop order must match exactly.
            loop {
                let (a, b) = (q.pop(), model.pop());
                prop_assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
            prop_assert!(q.is_empty());
        }

        /// Cancel-then-immediately-reschedule interleaved with the eager
        /// peek-discard: the regression surface for the arena rewrite.
        /// Cancelling frees a slot that the very next schedule reuses
        /// (LIFO free-list) while the cancelled event's heap entry is
        /// still pending discard; a `peek_time` may or may not have
        /// evicted that stale entry in between. Whatever the
        /// interleaving, the queue must track the naive model exactly
        /// and the live-map/slab/free-list triple must stay coherent.
        #[test]
        fn cancel_reschedule_races_peek_discard(
            ops in proptest::collection::vec(any::<u64>(), 1..300),
        ) {
            let mut q = EventQueue::new();
            let mut model = NaiveQueue::default();
            let mut ids: Vec<(EventId, u64)> = Vec::new();

            for op in ops {
                match op % 6 {
                    0 => {
                        let dt = SimDuration::from_micros((op >> 3) % 500);
                        let at = q.now() + dt;
                        let payload = op >> 3;
                        let id = q.schedule(at, payload);
                        let seq = model.schedule(at, payload);
                        ids.push((id, seq));
                    }
                    // Cancel-then-reschedule as one compound op: the new
                    // event lands in the just-vacated arena slot with a
                    // fresh id, while the old heap entry goes stale.
                    1 | 2 => {
                        if !ids.is_empty() {
                            let (id, seq) = ids[(op as usize >> 3) % ids.len()];
                            prop_assert_eq!(q.cancel(id), model.cancel(seq));
                            let dt = SimDuration::from_micros((op >> 7) % 500);
                            let at = q.now() + dt;
                            let payload = op >> 7;
                            let id = q.schedule(at, payload);
                            let seq = model.schedule(at, payload);
                            ids.push((id, seq));
                        }
                    }
                    // Bare peek: drives the eager discard of stale tops
                    // at arbitrary points between cancels and pops.
                    3 => {
                        prop_assert_eq!(q.peek_time(), model.peek_time());
                    }
                    _ => {
                        prop_assert_eq!(q.pop(), model.pop());
                    }
                }
                prop_assert_eq!(q.len(), model.pending.len());
                q.audit_arena();
            }

            loop {
                let (a, b) = (q.pop(), model.pop());
                prop_assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
            prop_assert!(q.is_empty());
            q.audit_arena();
        }
    }
}
