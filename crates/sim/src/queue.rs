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
//! ## A sorted-run lane in front of the heap
//!
//! A packet simulation schedules almost everything at `now + constant`,
//! and `now` only moves forward: the timestamps arrive already sorted.
//! Entries — `(at, seq, payload)`, the payload inline — therefore go
//! first to a FIFO lane (`VecDeque<Entry<E>>`).
//! **Lane invariant: the lane is a sorted run** — `schedule` appends
//! to it when its back is `<= at` (seq tags only grow, so the run is
//! sorted by `(at, seq)`), and only an entry scheduled before the
//! lane's back falls back to the binary heap. `pop` and `peek_time`
//! take the `(at, seq)`-minimum of the lane front and the heap top,
//! which is exactly the order one heap over all entries would produce:
//! pop order, tie-break and every [`QueueStats`] counter do not depend
//! on where an entry waited. Cost: an entry that rides the lane is O(1)
//! in and out (a `push_back`, a `pop_front` and one compare); an
//! out-of-order entry pays the heap's O(log n) over the *out-of-order*
//! entries only. One lane, because the one driver with a monotone
//! schedule (`netsim::testbed`) has one delay; a second lane belongs
//! with the first workload that has two.
//!
//! There is no cancellation. A timer that moves is a fired event that
//! compares against its owner's current deadline and re-arms itself if
//! the deadline moved on — no handle, no tombstone.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Lifetime counters for one queue — cheap plain integers the driver
/// can export into a `telemetry::metrics` registry (`sim` sits below
/// `telemetry` in the dependency graph, so the queue cannot hold a
/// registry handle itself).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events ever scheduled.
    pub scheduled: u64,
    /// Events popped.
    pub popped: u64,
    /// High-watermark of simultaneously pending events — how deep the
    /// queue ever got: the capacity-sizing number for the ROADMAP's
    /// bounded-memory claims.
    pub depth_peak: u64,
}

/// One pending event: the ordering key and the payload it carries.
struct Entry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> Entry<E> {
    /// Pop order: earliest first, ties by ascending sequence number.
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

// BinaryHeap is a max-heap; invert the ordering to pop earliest first,
// breaking timestamp ties by ascending sequence number. The payload
// takes no part: seq tags are unique.
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<E> Eq for Entry<E> {}

/// A time-ordered queue of future events.
pub struct EventQueue<E> {
    // A run sorted by `(at, seq)`; see the module docs.
    lane: VecDeque<Entry<E>>,
    // Entries the lane could not take (scheduled before its back).
    heap: BinaryHeap<Entry<E>>,
    // How many entries that was, ever — a driver whose schedule is
    // monotone should see this stay near zero.
    heap_fallbacks: u64,
    now: SimTime,
    next_seq: u64,
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
            now: SimTime::ZERO,
            next_seq: 0,
            stats: QueueStats::default(),
            last_popped_at: SimTime::ZERO,
        }
    }

    /// Current simulated time: the timestamp of the last popped event
    /// (or zero before any pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.lane.len() + self.heap.len()
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime scheduled/popped counters and the depth high-watermark.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Events ever scheduled that the sorted-run lane could not take and
    /// the heap ordered instead (`stats().scheduled` minus this rode the
    /// lane at O(1)). Test diagnostics, not API: exported nowhere.
    #[doc(hidden)]
    pub fn heap_fallbacks(&self) -> u64 {
        self.heap_fallbacks
    }

    /// Schedule `payload` at absolute time `at`.
    ///
    /// Scheduling before `now` is a logic error: debug builds panic;
    /// release builds clamp to `now` so a slightly-stale timer fires
    /// immediately rather than corrupting the clock.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        debug_assert!(
            at >= self.now,
            "scheduled event in the past: at={at} now={}",
            self.now
        );
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = Entry { at, seq, payload };
        if self.lane.back().is_none_or(|b| b.at <= at) {
            self.lane.push_back(entry);
        } else {
            self.heap.push(entry);
            self.heap_fallbacks += 1;
        }
        self.stats.scheduled += 1;
        self.stats.depth_peak = self.stats.depth_peak.max(self.len() as u64);
    }

    /// When the `(at, seq)`-minimum entry is due and whether it waits
    /// in the lane (else the heap).
    fn earliest(&self) -> Option<(SimTime, bool)> {
        match (self.lane.front(), self.heap.peek()) {
            (Some(l), Some(h)) if h.key() < l.key() => Some((h.at, false)),
            (Some(l), _) => Some((l.at, true)),
            (None, Some(h)) => Some((h.at, false)),
            (None, None) => None,
        }
    }

    /// Pop the earliest event, advancing `now` to its timestamp.
    /// Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (_, in_lane) = self.earliest()?;
        self.take(in_lane)
    }

    /// [`Self::pop`] iff the earliest event is due (`at <= now()`): a
    /// driver that moves the clock itself with [`Self::advance_to`]
    /// drains what it skipped past with `while let Some(..) = pop_due()`,
    /// one minimum search per event.
    pub fn pop_due(&mut self) -> Option<(SimTime, E)> {
        let (at, in_lane) = self.earliest()?;
        if at > self.now {
            return None;
        }
        self.take(in_lane)
    }

    /// Remove the minimum [`Self::earliest`] just found and move the clock
    /// to it.
    fn take(&mut self, in_lane: bool) -> Option<(SimTime, E)> {
        let entry = if in_lane {
            self.lane.pop_front()?
        } else {
            self.heap.pop()?
        };
        crate::sanitize::check_event_order(self.last_popped_at, entry.at);
        self.last_popped_at = entry.at;
        // If the clock was advanced past this event (a driver that
        // models busy periods with `advance_to`), the event fires
        // late, at the current clock — time never runs backwards.
        let next_now = self.now.max(entry.at);
        crate::sanitize::check_time_monotonic(self.now, next_now);
        self.now = next_now;
        self.stats.popped += 1;
        Some((self.now, entry.payload))
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.earliest().map(|(at, _)| at)
    }

    /// Advance the clock with no event — used by drivers that model
    /// occupancy (e.g. a radio busy period) outside the queue. Pending
    /// events whose timestamps fall inside the skipped span fire *late*,
    /// at the advanced clock, when next popped.
    pub fn advance_to(&mut self, to: SimTime) {
        crate::sanitize::check_time_monotonic(self.now, to);
        self.now = self.now.max(to);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

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
    fn a_payload_that_is_not_copy_round_trips() {
        // The heap sifts and the lane shifts whole entries: an owned
        // payload must come out of either as it went in.
        let mut q = EventQueue::new();
        for (at, len) in [(30, 3), (10, 1), (20, 2), (40, 4)] {
            q.schedule(SimTime::from_micros(at), vec![at; len]);
        }
        assert_eq!(q.heap_fallbacks(), 2, "10 and 20 wait in the heap");
        for (at, len) in [(10, 1), (20, 2), (30, 3), (40, 4)] {
            assert_eq!(q.pop(), Some((SimTime::from_micros(at), vec![at; len])));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn len_is_exact_under_mixed_ops() {
        let mut q = EventQueue::new();
        for i in [3, 1, 4, 1, 5, 9, 2, 6] {
            q.schedule(SimTime::from_micros(i), i);
        }
        assert_eq!(q.len(), 8);
        q.pop();
        q.pop();
        assert_eq!(q.len(), 6);
        let mut n = 0;
        while q.pop().is_some() {
            n += 1;
        }
        assert_eq!(n, 6);
        assert!(q.is_empty());
    }

    #[test]
    fn stats_track_scheduled_popped() {
        let mut q = EventQueue::new();
        for i in 0..5 {
            q.schedule(SimTime::from_micros(i), i);
        }
        q.pop();
        q.pop();
        let s = q.stats();
        assert_eq!(s.scheduled, 5);
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
    fn advance_to_moves_clock() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.advance_to(SimTime::from_secs(3));
        assert_eq!(q.now(), SimTime::from_secs(3));
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

    /// An event the clock was advanced past fires late, at the clock;
    /// `pop_due` hands out exactly the overdue ones, in order.
    #[test]
    fn late_events_fire_at_the_advanced_clock() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(10), 1);
        q.schedule(SimTime::from_micros(20), 2);
        assert_eq!(q.pop_due(), None, "nothing is due at t=0");
        q.advance_to(SimTime::from_micros(50));
        q.schedule(SimTime::from_micros(60), 3);
        assert_eq!(q.pop_due(), Some((SimTime::from_micros(50), 1)));
        assert_eq!(q.pop_due(), Some((SimTime::from_micros(50), 2)));
        assert_eq!(q.pop_due(), None, "t=60 is still ahead");
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(60)));
        assert_eq!(q.pop(), Some((SimTime::from_micros(60), 3)));
    }
}

#[cfg(test)]
mod model_tests {
    //! The queue must agree, operation by operation, with a naive model
    //! (a plain Vec scanned for the minimum) on `len`, peek times, pop
    //! order and counters, and its lane must stay a sorted run.

    use super::*;
    use crate::time::SimDuration;
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
        fn schedule(&mut self, at: SimTime, payload: u64) {
            self.pending
                .push((at.max(self.now), self.next_seq, payload));
            self.next_seq += 1;
            self.stats.scheduled += 1;
            self.stats.depth_peak = self.stats.depth_peak.max(self.pending.len() as u64);
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
        /// the lane's back (heap) and `advance_to` past pending events
        /// (late fires), drained by `pop` and `pop_due` alike, with
        /// `peek_time` after half of the operations. Pop order, peek,
        /// `len` and all three counters must track the model throughout.
        #[test]
        fn mixed_schedules_match_naive_model(
            ops in proptest::collection::vec(any::<u64>(), 1..400),
        ) {
            let mut q = EventQueue::new();
            let mut model = NaiveQueue::default();
            let mut last_at = SimTime::ZERO;

            for op in ops {
                let arg = op >> 4;
                let schedule_at = match op % 16 {
                    // Monotone run: at or after the previous schedule.
                    0..=4 => Some(last_at.max(q.now()) + SimDuration::from_micros(arg % 4)),
                    // Anywhere ahead of the clock: usually out of order.
                    5..=8 => Some(q.now() + SimDuration::from_micros(arg % 1000)),
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
                    q.schedule(at, arg);
                    model.schedule(at, arg);
                }
                prop_assert_eq!(q.now(), model.now);
                prop_assert_eq!(q.len(), model.pending.len());
                if op >> 63 == 0 {
                    prop_assert_eq!(q.peek_time(), model.peek_time());
                }
                prop_assert_eq!(q.stats(), model.stats);
                let lane: Vec<_> = q.lane.iter().map(Entry::key).collect();
                prop_assert!(lane.windows(2).all(|w| w[0] < w[1]), "lane is not a sorted run");
            }

            while let Some(popped) = model.pop() {
                prop_assert_eq!(q.pop(), Some(popped));
            }
            prop_assert_eq!(q.pop(), None);
            prop_assert_eq!(q.stats(), model.stats);
            prop_assert!(q.heap_fallbacks() <= q.stats().scheduled);
        }
    }
}
