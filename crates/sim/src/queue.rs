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
//!    they were scheduled. Without this, runs would be sensitive to
//!    container internals and replay determinism would be lost.
//!
//! ## One sorted run
//!
//! Every pending entry — `(at, payload)`, the payload inline — waits in
//! one `VecDeque<Entry<E>>`. **Invariant: the deque is sorted by `at`,
//! ties in schedule order**, so the front is always the next event and
//! `pop`, `pop_due` and `peek_time` read it. A packet simulation
//! schedules almost everything at `now + constant`, and `now` only moves
//! forward: the timestamps arrive already sorted, and `schedule` appends
//! (the back is `<= at`) in O(1). Any other schedule is legal and takes
//! an ordered insert after every entry due at or before `at` — so ties
//! stay FIFO — for a binary search plus shifting the shorter side of the
//! deque: O(n) in the pending count.
//!
//! There is no cancellation. A timer that moves is a fired event that
//! compares against its owner's current deadline and re-arms itself if
//! the deadline moved on — no handle, no tombstone.

use crate::time::SimTime;
use std::collections::VecDeque;

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

/// One pending event: when it is due and the payload it carries.
struct Entry<E> {
    at: SimTime,
    payload: E,
}

/// A time-ordered queue of future events.
pub struct EventQueue<E> {
    // One run sorted by `at`, ties in schedule order; see the module docs.
    pending: VecDeque<Entry<E>>,
    // Schedules that took the ordered insert, ever — a driver whose
    // schedule is monotone should see none.
    out_of_order: u64,
    now: SimTime,
    stats: QueueStats,
    // Timestamp of the most recently popped event, used by the
    // sim-sanitizer to re-verify pop order from outside the run.
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
            pending: VecDeque::new(),
            out_of_order: 0,
            now: SimTime::ZERO,
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
        self.pending.len()
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime scheduled/popped counters and the depth high-watermark.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Events ever scheduled before the back of the run, which took the
    /// O(n) ordered insert (`stats().scheduled` minus this were O(1)
    /// appends). Test diagnostics, not API: exported nowhere.
    #[doc(hidden)]
    pub fn out_of_order(&self) -> u64 {
        self.out_of_order
    }

    /// Schedule `payload` at absolute time `at`.
    ///
    /// Scheduling before `now` is a logic error: debug builds panic;
    /// release builds clamp to `now` so a slightly-stale timer fires
    /// immediately rather than corrupting the clock.
    /// Inlined, so an append writes the entry straight into the deque,
    /// not through a stack copy.
    #[inline]
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        debug_assert!(
            at >= self.now,
            "scheduled event in the past: at={at} now={}",
            self.now
        );
        let at = at.max(self.now);
        let entry = Entry { at, payload };
        if self.pending.back().is_none_or(|b| b.at <= at) {
            self.pending.push_back(entry);
        } else {
            self.insert_ordered(entry);
        }
        self.stats.scheduled += 1;
        self.stats.depth_peak = self.stats.depth_peak.max(self.len() as u64);
    }

    /// Insert after every entry due at or before `entry.at`: ties stay FIFO.
    #[cold]
    #[inline(never)]
    fn insert_ordered(&mut self, entry: Entry<E>) {
        let i = self.pending.partition_point(|e| e.at <= entry.at);
        self.pending.insert(i, entry);
        self.out_of_order += 1;
    }

    /// Pop the earliest event, advancing `now` to its timestamp.
    /// Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.pending.pop_front()?;
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

    /// [`Self::pop`] iff the earliest event is due (`at <= now()`): a
    /// driver that moves the clock itself with [`Self::advance_to`]
    /// drains what it skipped past with `while let Some(..) = pop_due()`.
    pub fn pop_due(&mut self) -> Option<(SimTime, E)> {
        if self.peek_time()? > self.now {
            return None;
        }
        self.pop()
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.pending.front().map(|e| e.at)
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
        // The insert shifts whole entries: an owned payload must come
        // out as it went in, appended or inserted.
        let mut q = EventQueue::new();
        for (at, len) in [(30, 3), (10, 1), (20, 2), (40, 4)] {
            q.schedule(SimTime::from_micros(at), vec![at; len]);
        }
        assert_eq!(q.out_of_order(), 2, "10 and 20 are inserted ahead of 30");
        for (at, len) in [(10, 1), (20, 2), (30, 3), (40, 4)] {
            assert_eq!(q.pop(), Some((SimTime::from_micros(at), vec![at; len])));
        }
        assert!(q.is_empty());
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
    #[cfg(debug_assertions)]
    fn advancing_clock_backwards_is_a_violation() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.advance_to(SimTime::from_secs(3));
        q.advance_to(SimTime::from_secs(2));
    }

    #[test]
    #[cfg(debug_assertions)]
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
    //! order and counters, and its pending entries must stay one sorted
    //! run.

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

        /// Every way an entry can reach the run, mixed: appends at or
        /// after its back, repeats of one timestamp, inserts ahead of its
        /// back and `advance_to` past pending events
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
                    // The model's seq tag as payload: the run's order
                    // below is then checkable as `(at, seq)`.
                    let seq = model.next_seq;
                    q.schedule(at, seq);
                    model.schedule(at, seq);
                }
                prop_assert_eq!(q.now(), model.now);
                prop_assert_eq!(q.len(), model.pending.len());
                if op >> 63 == 0 {
                    prop_assert_eq!(q.peek_time(), model.peek_time());
                }
                prop_assert_eq!(q.stats(), model.stats);
                let run: Vec<_> = q.pending.iter().map(|e| (e.at, e.payload)).collect();
                prop_assert!(run.windows(2).all(|w| w[0] < w[1]), "pending is not a sorted run");
            }

            while let Some(popped) = model.pop() {
                prop_assert_eq!(q.pop(), Some(popped));
            }
            prop_assert_eq!(q.pop(), None);
            prop_assert_eq!(q.stats(), model.stats);
            prop_assert!(q.out_of_order() <= q.stats().scheduled);
        }
    }
}
