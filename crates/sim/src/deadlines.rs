//! Per-owner deadlines for a run loop that polls, and the ordered index
//! set it reports them in.
//!
//! A polling loop asks two questions every round: *which owners are due
//! now* (each in owner order, because what they do next draws from one
//! random stream) and *when is the earliest due* (how far an idle loop
//! may jump). Asking every owner costs a visit per owner per round, due
//! or not. [`Deadlines`] answers both from a min-heap the owners keep
//! current through [`Deadlines::set`], and [`IndexSet`] hands the due
//! ones back in ascending order.
//!
//! Like the event queue, the heap has no cancellation. A deadline that
//! moves *later* — an RTO restarted by every ACK, the common case —
//! costs one compare: its entry stays where it was, and when it surfaces
//! it finds the deadline moved on and re-arms itself there. Only a
//! deadline that moves *earlier* pushes a new entry; the one it
//! overtook surfaces later as stale and is dropped.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A set of small indices (owners, stations, slots) that yields its
/// members in ascending order: one bit each.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IndexSet {
    words: Vec<u64>,
}

impl IndexSet {
    pub fn insert(&mut self, i: usize) {
        let w = i / 64;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1 << (i % 64);
    }

    /// Remove `i`; true if it was a member.
    pub fn remove(&mut self, i: usize) -> bool {
        let Some(word) = self.words.get_mut(i / 64) else {
            return false;
        };
        let bit = 1 << (i % 64);
        let was = *word & bit != 0;
        *word &= !bit;
        was
    }

    pub fn contains(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1 << (i % 64)) != 0)
    }

    /// Remove and return the smallest member.
    pub fn pop_first(&mut self) -> Option<usize> {
        let (k, w) = self.words.iter_mut().enumerate().find(|(_, w)| **w != 0)?;
        let bit = w.trailing_zeros() as usize;
        *w &= *w - 1;
        Some(k * 64 + bit)
    }

    /// The members, smallest first.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(k, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                (w != 0).then(|| {
                    let bit = w.trailing_zeros() as usize;
                    w &= w - 1;
                    k * 64 + bit
                })
            })
        })
    }
}

/// At most one deadline per owner `0..n`; see the module docs.
///
/// Invariant: an owner with a deadline `d` has an entry `(a, owner)` in
/// the heap with `a <= d`, and `armed` holds that `a`.
#[derive(Debug, Clone)]
pub struct Deadlines {
    heap: BinaryHeap<Reverse<(SimTime, usize)>>,
    /// Each owner's current deadline.
    at: Vec<Option<SimTime>>,
    /// The earliest heap entry standing for each owner; every other
    /// entry for it is stale.
    armed: Vec<Option<SimTime>>,
}

impl Deadlines {
    /// `owners` owners, none with a deadline.
    pub fn new(owners: usize) -> Deadlines {
        Deadlines {
            heap: BinaryHeap::new(),
            at: vec![None; owners],
            armed: vec![None; owners],
        }
    }

    /// Owner `i`'s deadline is now `at`. O(1) unless it moved earlier
    /// than the entry standing for it.
    #[inline]
    pub fn set(&mut self, i: usize, at: Option<SimTime>) {
        self.at[i] = at;
        self.arm(i, at);
    }

    fn arm(&mut self, i: usize, at: Option<SimTime>) {
        if let Some(t) = at {
            if self.armed[i].is_none_or(|a| t < a) {
                self.heap.push(Reverse((t, i)));
                self.armed[i] = Some(t);
            }
        }
    }

    /// Pop the top entry, which stands for owner `i` at `t`, and re-arm
    /// `i` at its current deadline if the entry was its standing one.
    fn surface(&mut self, t: SimTime, i: usize) {
        self.heap.pop();
        if self.armed[i] == Some(t) {
            self.armed[i] = None;
            self.arm(i, self.at[i]);
        }
    }

    /// Fire every owner whose deadline is at or before `now`: each joins
    /// `due` and its deadline is cleared (the owner sets its next one).
    pub fn fire(&mut self, now: SimTime, due: &mut IndexSet) {
        while let Some(&Reverse((t, i))) = self.heap.peek() {
            if t > now {
                break;
            }
            if self.armed[i] == Some(t) && self.at[i].is_some_and(|d| d <= now) {
                self.heap.pop();
                self.armed[i] = None;
                self.at[i] = None;
                due.insert(i);
            } else {
                self.surface(t, i);
            }
        }
    }

    /// The earliest deadline of any owner.
    pub fn earliest(&mut self) -> Option<SimTime> {
        while let Some(&Reverse((t, i))) = self.heap.peek() {
            if self.armed[i] == Some(t) && self.at[i] == Some(t) {
                return Some(t);
            }
            self.surface(t, i);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn us(t: u64) -> SimTime {
        SimTime::from_micros(t)
    }

    #[test]
    fn index_set_yields_members_in_order_across_words() {
        let mut s = IndexSet::default();
        for i in [130, 3, 64, 0, 63] {
            s.insert(i);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), [0, 3, 63, 64, 130]);
        assert!(s.remove(3) && !s.remove(3) && !s.remove(999));
        assert!(s.contains(130) && !s.contains(3) && !s.contains(999));
        let drained: Vec<_> = std::iter::from_fn(|| s.pop_first()).collect();
        assert_eq!(drained, [0, 63, 64, 130]);
        assert_eq!(s.pop_first(), None);
    }

    #[test]
    fn a_later_deadline_reuses_its_entry_an_earlier_one_overtakes() {
        let mut d = Deadlines::new(2);
        d.set(0, Some(us(10)));
        // Restarted later twice: one entry, re-armed when it surfaces.
        d.set(0, Some(us(20)));
        d.set(0, Some(us(30)));
        assert_eq!(d.heap.len(), 1);
        assert_eq!(d.earliest(), Some(us(30)));
        // Pulled earlier: a second entry, the old one goes stale.
        d.set(1, Some(us(25)));
        d.set(0, Some(us(5)));
        assert_eq!(d.earliest(), Some(us(5)));
        let mut due = IndexSet::default();
        d.fire(us(24), &mut due);
        assert_eq!(due.iter().collect::<Vec<_>>(), [0]);
        assert_eq!((d.at[0], d.earliest()), (None, Some(us(25))));
        d.fire(us(40), &mut due);
        assert_eq!(due.iter().collect::<Vec<_>>(), [0, 1]);
        assert_eq!(
            (d.earliest(), d.heap.len()),
            (None, 0),
            "stale entries dropped"
        );
    }

    /// Naive reference: every owner's deadline, scanned.
    struct Naive {
        at: Vec<Option<SimTime>>,
    }

    impl Naive {
        fn fire(&mut self, now: SimTime) -> Vec<usize> {
            let due: Vec<usize> = (0..self.at.len())
                .filter(|&i| self.at[i].is_some_and(|d| d <= now))
                .collect();
            for &i in &due {
                self.at[i] = None;
            }
            due
        }

        fn earliest(&self) -> Option<SimTime> {
            self.at.iter().flatten().min().copied()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Deadlines set later, earlier, cleared and re-set, fired at a
        /// clock that only moves forward, and `earliest` asked in between:
        /// the due owners (in order), `earliest` and every deadline track
        /// a scan over every owner throughout.
        #[test]
        fn deadlines_match_a_scan_over_every_owner(
            ops in proptest::collection::vec(any::<u64>(), 1..400),
        ) {
            const OWNERS: usize = 70;
            let mut d = Deadlines::new(OWNERS);
            let mut naive = Naive { at: vec![None; OWNERS] };
            let mut now = SimTime::ZERO;
            let mut due = IndexSet::default();
            for op in ops {
                let (i, arg) = ((op >> 8) as usize % OWNERS, op >> 16);
                match op % 8 {
                    0..=3 => {
                        let at = now + crate::SimDuration::from_micros(arg % 500);
                        d.set(i, Some(at));
                        naive.at[i] = Some(at);
                    }
                    4 => {
                        d.set(i, None);
                        naive.at[i] = None;
                    }
                    5 | 6 => {
                        now += crate::SimDuration::from_micros(arg % 200);
                        d.fire(now, &mut due);
                        let fired: Vec<usize> = std::iter::from_fn(|| due.pop_first()).collect();
                        prop_assert_eq!(fired, naive.fire(now));
                    }
                    _ => prop_assert_eq!(d.earliest(), naive.earliest()),
                }
                prop_assert_eq!(d.at[i], naive.at[i]);
            }
            prop_assert_eq!(d.earliest(), naive.earliest());
        }
    }
}
