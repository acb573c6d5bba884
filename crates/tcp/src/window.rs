//! [`SeqWindow`]: the sorted slice behind every sequence-keyed table on
//! the packet path.
//!
//! A TCP stream is produced in order and released in order: the
//! sender's outstanding segments, the FastACK cache, `q_seq`, the
//! receiver's reassembly queue and the testbed's latency ledger are all
//! appended at the tail and drained from the head, and only loss
//! recovery (a retransmission, a SACK block, a hole) touches the middle.
//! **Window invariant: entries are sorted by strictly increasing key.**
//!
//! The entries live in one `Vec` behind a released-head offset: the
//! live window is always the single sorted slice `items[head..]`, so
//! every lookup is a plain slice search with no wraparound. Releasing
//! the head advances `head` (an emptied window restarts at 0);
//! extending the tail is a `push`. **Compaction rule:** when the `Vec`
//! is full and any of it is released head, the live entries move down
//! to the front instead of the allocation growing. It grows only when
//! live entries fill it, as a ring buffer's does, so a window never
//! holds more memory than a ring of the same entries. A compaction
//! moves every live entry once; on the packet path that comes to about
//! one move per insert. A mid-window insert or removal shifts the
//! shorter side, into released head room when the key is nearer the
//! front.

use std::fmt;
use std::ops::Range;

/// Map from sequence offset to `V`, held as a sorted slice behind a
/// released-head offset.
pub struct SeqWindow<V> {
    /// `items[head..]` is the window; `items[..head]` is released.
    items: Vec<(u64, V)>,
    head: usize,
}

impl<V> Default for SeqWindow<V> {
    fn default() -> Self {
        SeqWindow {
            items: Vec::new(),
            head: 0,
        }
    }
}

/// Only live entries take part: windows holding the same entries are
/// equal whatever either has released.
impl<V: PartialEq> PartialEq for SeqWindow<V> {
    fn eq(&self, other: &Self) -> bool {
        self.live() == other.live()
    }
}

impl<V: Clone> Clone for SeqWindow<V> {
    fn clone(&self) -> Self {
        SeqWindow {
            items: self.live().to_vec(),
            head: 0,
        }
    }
}

impl<V: fmt::Debug> fmt::Debug for SeqWindow<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SeqWindow")
            .field("items", &self.live())
            .finish()
    }
}

impl<V> SeqWindow<V> {
    pub fn new() -> Self {
        Self::default()
    }

    fn live(&self) -> &[(u64, V)] {
        &self.items[self.head..]
    }

    fn live_mut(&mut self) -> &mut [(u64, V)] {
        &mut self.items[self.head..]
    }

    pub fn len(&self) -> usize {
        self.items.len() - self.head
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn clear(&mut self) {
        self.items.clear();
        self.head = 0;
    }

    /// Lowest entry.
    pub fn front(&self) -> Option<&(u64, V)> {
        self.live().first()
    }

    /// Entries in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = &(u64, V)> {
        self.live().iter()
    }

    /// Values in ascending key order, mutable.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.live_mut().iter_mut().map(|(_, v)| v)
    }

    /// Live index of the first entry with key `>= key`; the ends are
    /// probed first, so in-order traffic (and a burst of sends stamped
    /// with one instant) never reaches the binary search.
    fn lower_bound(&self, key: u64) -> usize {
        let live = self.live();
        match (live.first(), live.last()) {
            (_, Some(&(back, _))) if back < key => live.len(),
            (_, Some(&(back, _))) if back == key => live.len() - 1,
            (Some(&(front, _)), _) if front >= key => 0,
            _ => live.partition_point(|&(k, _)| k < key),
        }
    }

    /// `Ok(index)` of `key`, or `Err(index)` where it would be inserted.
    fn find(&self, key: u64) -> Result<usize, usize> {
        let i = self.lower_bound(key);
        match self.live().get(i) {
            Some(&(k, _)) if k == key => Ok(i),
            _ => Err(i),
        }
    }

    /// Live index of the first entry with key `> key`.
    fn upper_bound(&self, key: u64) -> usize {
        key.checked_add(1)
            .map_or(self.len(), |above| self.lower_bound(above))
    }

    /// Live index range covering the keys in `[from, to)`; empty when
    /// the bounds are inverted (`BTreeMap::range` panics there).
    fn span(&self, from: u64, to: u64) -> Range<usize> {
        let lo = self.lower_bound(from);
        lo..self.lower_bound(to).max(lo)
    }

    pub fn get(&self, key: u64) -> Option<&V> {
        self.find(key).ok().map(|i| &self.live()[i].1)
    }

    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        self.find(key).ok().map(|i| &mut self.live_mut()[i].1)
    }

    /// The entry with the greatest key `<= key`.
    pub fn floor(&self, key: u64) -> Option<&(u64, V)> {
        self.upper_bound(key)
            .checked_sub(1)
            .map(|i| &self.live()[i])
    }

    /// Entries with keys in `[from, to)`, ascending.
    pub fn range(&self, from: u64, to: u64) -> impl Iterator<Item = &(u64, V)> {
        self.live()[self.span(from, to)].iter()
    }

    /// Values with keys in `[from, to)`, ascending, mutable.
    pub fn range_mut(&mut self, from: u64, to: u64) -> impl Iterator<Item = &mut V> {
        let span = self.span(from, to);
        self.live_mut()[span].iter_mut().map(|(_, v)| v)
    }

    /// Entries with keys `>= from`, ascending.
    pub fn range_from(&self, from: u64) -> impl Iterator<Item = &(u64, V)> {
        self.live()[self.lower_bound(from)..].iter()
    }
}

impl<V: Copy> SeqWindow<V> {
    /// Release the lowest entry.
    pub fn pop_front(&mut self) -> Option<(u64, V)> {
        let first = *self.front()?;
        self.head += 1;
        self.released();
        Some(first)
    }

    /// Insert or replace; returns the value `key` held before.
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        match self.find(key) {
            Ok(i) => Some(std::mem::replace(&mut self.live_mut()[i].1, value)),
            Err(i) => {
                self.place(i, (key, value));
                None
            }
        }
    }

    /// The value at `key`, inserting `value` first if `key` is absent:
    /// one search where `get_mut` then `insert` make two.
    pub fn get_or_insert(&mut self, key: u64, value: V) -> &mut V {
        let at = match self.find(key) {
            Ok(i) => self.head + i,
            Err(i) => self.place(i, (key, value)),
        };
        &mut self.items[at].1
    }

    pub fn remove(&mut self, key: u64) -> Option<V> {
        let i = self.find(key).ok()?;
        let (_, v) = self.live()[i];
        self.cut(i..i + 1);
        Some(v)
    }

    /// Drop every entry below `bound` that `keep` turns down. A
    /// cumulative ACK releases a prefix, and each of those removals is
    /// a head advance; an entry kept below the bound (a segment the ACK
    /// covers only in part) does not shield the ones above it.
    pub fn retain_below(&mut self, bound: u64, mut keep: impl FnMut(u64, &V) -> bool) {
        // Pack the kept entries at the front of the walked span, then
        // cut the dropped ones after them.
        let (mut kept, mut read) = (self.head, self.head);
        while let Some(&(k, v)) = self.items.get(read) {
            if k >= bound {
                break;
            }
            if keep(k, &v) {
                self.items[kept] = (k, v);
                kept += 1;
            }
            read += 1;
        }
        self.cut(kept - self.head..read - self.head);
    }

    /// Insert `entry` at live index `i`, shifting the shorter side;
    /// returns its index in `items`. The entries before `i` move down
    /// into the released head when they are the shorter side. A full
    /// `Vec` with any released head is compacted instead of grown.
    fn place(&mut self, i: usize, entry: (u64, V)) -> usize {
        if self.head > 0 && i < self.len() - i {
            self.head -= 1;
            let at = self.head + i;
            self.items.copy_within(self.head + 1..=at, self.head);
            self.items[at] = entry;
            return at;
        }
        if self.items.len() == self.items.capacity() && self.head > 0 {
            self.items.drain(..self.head);
            self.head = 0;
        }
        let at = self.head + i;
        self.items.insert(at, entry);
        at
    }

    /// Remove the entries at live indices `r`, shifting the shorter
    /// side over them: the entries before `r` move up (the released
    /// head grows) or the entries after it move down.
    fn cut(&mut self, r: Range<usize>) {
        if r.is_empty() {
            return;
        }
        let (lo, hi) = (self.head + r.start, self.head + r.end);
        if r.start < self.items.len() - hi {
            self.items.copy_within(self.head..lo, self.head + r.len());
            self.head += r.len();
        } else {
            self.items.drain(lo..hi);
        }
        self.released();
    }

    /// An emptied window starts again at the front of its allocation.
    fn released(&mut self) {
        if self.head == self.items.len() {
            self.clear();
        }
    }
}

/// The interval-set form: `start → end` (exclusive), disjoint and not
/// touching, so ends ascend with starts.
impl SeqWindow<u64> {
    /// Add `[start, end)`, absorbing every range it overlaps or touches.
    pub fn merge_range(&mut self, mut start: u64, mut end: u64) {
        let live = self.live();
        let lo = match live.last() {
            Some(&(_, e)) if e < start => live.len(),
            _ => live.partition_point(|&(_, e)| e < start),
        };
        let mut hi = lo;
        while let Some(&(s, e)) = self.live().get(hi) {
            if s > end {
                break;
            }
            start = start.min(s);
            end = end.max(e);
            hi += 1;
        }
        if hi == lo {
            self.place(lo, (start, end));
        } else {
            self.live_mut()[lo] = (start, end);
            self.cut(lo + 1..hi);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn entries<V: Copy>(w: &SeqWindow<V>) -> Vec<(u64, V)> {
        w.iter().copied().collect()
    }

    fn model<V: Copy>(m: &BTreeMap<u64, V>) -> Vec<(u64, V)> {
        m.iter().map(|(&k, &v)| (k, v)).collect()
    }

    #[test]
    fn inverted_and_empty_ranges_are_empty() {
        let mut w = SeqWindow::new();
        for k in [10, 20, 30] {
            w.insert(k, k);
        }
        let (above, below) = (25, 15);
        assert_eq!(w.range(above, below).count(), 0);
        assert_eq!(w.range(20, 20).count(), 0);
        assert_eq!(w.range_mut(above, below).count(), 0);
        assert_eq!(w.range_from(0).count(), 3);
        assert_eq!(w.floor(u64::MAX), Some(&(30, 30)));
        assert_eq!(w.floor(9), None);
    }

    /// A window of constant live size sliding far past its first
    /// allocation reuses its released head: the allocation stays at
    /// what a ring buffer would hold, the live size plus the entry
    /// inserted before each release, rounded up to a power of two.
    #[test]
    fn sliding_window_reclaims_its_released_head() {
        for live in [4u64, 5, 8, 13, 64, 100] {
            let mut w = SeqWindow::new();
            for k in 0..live {
                w.insert(k, k);
            }
            let bound = (live as usize + 1).next_power_of_two();
            for k in live..101 * live {
                w.insert(k, k);
                assert_eq!(w.pop_front(), Some((k - live, k - live)));
                assert!(
                    w.items.capacity() <= bound,
                    "live {live}: {}",
                    w.items.capacity()
                );
            }
            assert_eq!(w.len() as u64, live);
        }
    }

    /// Equality, `Debug` and `Clone` see only the live entries.
    #[test]
    fn released_head_is_not_part_of_the_value() {
        let (mut a, mut b) = (SeqWindow::new(), SeqWindow::new());
        for k in 0..10 {
            a.insert(k, k);
        }
        for _ in 0..6 {
            a.pop_front();
        }
        for k in 6..10 {
            b.insert(k, k);
        }
        assert_ne!(a.head, b.head);
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!((a.clone(), a.clone().head), (b.clone(), 0));
        b.pop_front();
        assert_ne!(a, b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Point form against `BTreeMap`: tail appends, head releases,
        /// mid-window inserts, replacements, removals, range walks, the
        /// filtered prefix release, runs of releases followed by
        /// inserts and upserts beside the front, and clears.
        #[test]
        fn point_ops_match_btreemap(ops in proptest::collection::vec(any::<u64>(), 1..300)) {
            let mut w: SeqWindow<u64> = SeqWindow::new();
            let mut m: BTreeMap<u64, u64> = BTreeMap::new();
            let mut tail = 0u64;
            for op in ops {
                let (arg, key) = (op >> 5, (op >> 5) % 64);
                let near_front = w
                    .front()
                    .map_or(key, |&(f, _)| f.saturating_sub(arg % 3) + arg / 3 % 3);
                match op % 20 {
                    0..=5 => {
                        tail += 1 + arg % 3;
                        prop_assert_eq!(w.insert(tail, arg), m.insert(tail, arg));
                    }
                    6 => prop_assert_eq!(w.pop_front(), m.pop_first()),
                    7 | 8 => prop_assert_eq!(w.insert(key, arg), m.insert(key, arg)),
                    9 => prop_assert_eq!(w.remove(key), m.remove(&key)),
                    10 => {
                        if let Some(v) = w.get_mut(key) {
                            *v += 1;
                        }
                        if let Some(v) = m.get_mut(&key) {
                            *v += 1;
                        }
                    }
                    11 => {
                        let (a, b) = (key, (arg >> 6) % 64);
                        let got: Vec<_> = w.range(a, b).copied().collect();
                        let want: Vec<_> = if a <= b {
                            m.range(a..b).map(|(&k, &v)| (k, v)).collect()
                        } else {
                            Vec::new()
                        };
                        prop_assert_eq!(got, want);
                        w.range_mut(a, b).for_each(|v| *v ^= 1);
                        if a < b {
                            m.range_mut(a..b).for_each(|(_, v)| *v ^= 1);
                        }
                    }
                    12 => {
                        let got: Vec<_> = w.range_from(key).copied().collect();
                        let want: Vec<_> = m.range(key..).map(|(&k, &v)| (k, v)).collect();
                        prop_assert_eq!(got, want);
                    }
                    13 => prop_assert_eq!(
                        w.floor(key).copied(),
                        m.range(..=key).next_back().map(|(&k, &v)| (k, v))
                    ),
                    // A run of head releases, then inserts next to
                    // the front: into released head room and just past
                    // the front.
                    14 => {
                        for _ in 0..1 + arg % 8 {
                            prop_assert_eq!(w.pop_front(), m.pop_first());
                        }
                    }
                    15 => prop_assert_eq!(w.insert(near_front, arg), m.insert(near_front, arg)),
                    16 => {
                        *w.get_or_insert(near_front, arg) ^= 2;
                        *m.entry(near_front).or_insert(arg) ^= 2;
                    }
                    17 => {
                        w.clear();
                        m.clear();
                    }
                    _ => {
                        // The old release: collect the covered keys
                        // below the bound, then remove each. Half the
                        // bounds fall just past the front.
                        let bound = if arg % 2 == 0 { key } else { near_front + arg % 16 };
                        let covered = |k: u64, v: u64| k + v % 8 <= bound;
                        let keys: Vec<u64> = m
                            .range(..bound)
                            .filter(|(&k, &v)| covered(k, v))
                            .map(|(&k, _)| k)
                            .collect();
                        for k in keys {
                            m.remove(&k);
                        }
                        w.retain_below(bound, |k, &v| !covered(k, v));
                    }
                }
                prop_assert_eq!(w.get(key), m.get(&key));
                prop_assert_eq!(w.front().copied(), m.first_key_value().map(|(&k, &v)| (k, v)));
                prop_assert_eq!(w.len(), m.len());
                prop_assert_eq!(entries(&w), model(&m));
                prop_assert!(w.head < w.items.len() || w.head == 0, "an emptied window restarts at 0");
            }
        }

        /// Range-merge form against the `BTreeMap` merge it replaces
        /// (collect the overlapping keys, remove each, insert the hull),
        /// with head drains in between as `drain_contiguous` and
        /// `absorb_ooo` do them.
        #[test]
        fn merge_range_matches_btreemap(ops in proptest::collection::vec(any::<u64>(), 1..200)) {
            let mut w: SeqWindow<u64> = SeqWindow::new();
            let mut m: BTreeMap<u64, u64> = BTreeMap::new();
            let mut tail = 0u64;
            for op in ops {
                let arg = op >> 2;
                let (mut start, mut end) = match op % 4 {
                    // In order: at, touching or past the tail.
                    0 | 1 => (tail + arg % 2 * 10, tail + arg % 2 * 10 + 1 + arg % 30),
                    // Anywhere: fills holes, bridges ranges, repeats.
                    2 => (arg % 400, arg % 400 + (arg >> 9) % 60),
                    _ => {
                        prop_assert_eq!(w.pop_front(), m.pop_first());
                        continue;
                    }
                };
                tail = tail.max(end);
                w.merge_range(start, end);
                let overlapping: Vec<u64> = m
                    .range(..=end)
                    .filter(|(&s, &e)| e >= start && s <= end)
                    .map(|(&s, _)| s)
                    .collect();
                for s in overlapping {
                    let e = m.remove(&s).expect("present");
                    start = start.min(s);
                    end = end.max(e);
                }
                m.insert(start, end);
                prop_assert_eq!(entries(&w), model(&m));
            }
        }
    }
}
