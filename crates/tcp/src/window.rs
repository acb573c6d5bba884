//! [`SeqWindow`]: the sorted deque behind every sequence-keyed table on
//! the packet path.
//!
//! A TCP stream is produced in order and released in order: the
//! sender's outstanding segments, the FastACK cache, `q_seq`, the
//! receiver's reassembly queue and the testbed's latency ledger are all
//! appended at the tail and drained from the head, and only loss
//! recovery (a retransmission, a SACK block, a hole) touches the middle.
//! **Window invariant: entries are sorted by strictly increasing key.**
//! Extending the tail and releasing the head are O(1); everything else
//! is a binary search plus, for a mid-window insert or removal, a shift
//! of the shorter side.

use std::collections::VecDeque;
use std::ops::Range;

/// Map from sequence offset to `V`, held as a sorted deque.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeqWindow<V> {
    items: VecDeque<(u64, V)>,
}

impl<V> Default for SeqWindow<V> {
    fn default() -> Self {
        SeqWindow {
            items: VecDeque::new(),
        }
    }
}

impl<V> SeqWindow<V> {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    pub fn clear(&mut self) {
        self.items.clear();
    }

    /// Lowest entry.
    pub fn front(&self) -> Option<&(u64, V)> {
        self.items.front()
    }

    /// Release the lowest entry.
    pub fn pop_front(&mut self) -> Option<(u64, V)> {
        self.items.pop_front()
    }

    /// Entries in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = &(u64, V)> {
        self.items.iter()
    }

    /// Values in ascending key order, mutable.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.items.iter_mut().map(|(_, v)| v)
    }

    /// Index of the first entry with key `>= key`; the ends are probed
    /// first, so in-order traffic never reaches the binary search.
    fn lower_bound(&self, key: u64) -> usize {
        match (self.items.front(), self.items.back()) {
            (_, Some(&(back, _))) if back < key => self.items.len(),
            (Some(&(front, _)), _) if front >= key => 0,
            _ => self.items.partition_point(|&(k, _)| k < key),
        }
    }

    /// `Ok(index)` of `key`, or `Err(index)` where it would be inserted.
    fn find(&self, key: u64) -> Result<usize, usize> {
        let i = self.lower_bound(key);
        match self.items.get(i) {
            Some(&(k, _)) if k == key => Ok(i),
            _ => Err(i),
        }
    }

    /// Index of the first entry with key `> key`.
    fn upper_bound(&self, key: u64) -> usize {
        key.checked_add(1)
            .map_or(self.items.len(), |above| self.lower_bound(above))
    }

    /// Index range covering the keys in `[from, to)`; empty when the
    /// bounds are inverted (`BTreeMap::range` panics there).
    fn span(&self, from: u64, to: u64) -> Range<usize> {
        let lo = self.lower_bound(from);
        lo..self.lower_bound(to).max(lo)
    }

    pub fn get(&self, key: u64) -> Option<&V> {
        self.find(key).ok().map(|i| &self.items[i].1)
    }

    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        self.find(key).ok().map(|i| &mut self.items[i].1)
    }

    /// The entry with the greatest key `<= key`.
    pub fn floor(&self, key: u64) -> Option<&(u64, V)> {
        self.upper_bound(key).checked_sub(1).map(|i| &self.items[i])
    }

    /// Insert or replace; returns the value `key` held before.
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        match self.find(key) {
            Ok(i) => Some(std::mem::replace(&mut self.items[i].1, value)),
            Err(i) => {
                self.items.insert(i, (key, value));
                None
            }
        }
    }

    pub fn remove(&mut self, key: u64) -> Option<V> {
        let i = self.find(key).ok()?;
        self.items.remove(i).map(|(_, v)| v)
    }

    /// Entries with keys in `[from, to)`, ascending.
    pub fn range(&self, from: u64, to: u64) -> impl Iterator<Item = &(u64, V)> {
        self.items.range(self.span(from, to))
    }

    /// Values with keys in `[from, to)`, ascending, mutable.
    pub fn range_mut(&mut self, from: u64, to: u64) -> impl Iterator<Item = &mut V> {
        let span = self.span(from, to);
        self.items.range_mut(span).map(|(_, v)| v)
    }

    /// Entries with keys `>= from`, ascending.
    pub fn range_from(&self, from: u64) -> impl Iterator<Item = &(u64, V)> {
        self.items.range(self.lower_bound(from)..)
    }

    /// Drop every entry below `bound` that `keep` turns down. A
    /// cumulative ACK releases a prefix, and each of those removals is
    /// a head pop; an entry kept below the bound (a segment the ACK
    /// covers only in part) does not shield the ones above it.
    pub fn retain_below(&mut self, bound: u64, mut keep: impl FnMut(u64, &V) -> bool) {
        let mut i = 0;
        while let Some((k, v)) = self.items.get(i) {
            if *k >= bound {
                break;
            }
            if keep(*k, v) {
                i += 1;
            } else {
                self.items.remove(i);
            }
        }
    }
}

/// The interval-set form: `start → end` (exclusive), disjoint and not
/// touching, so ends ascend with starts.
impl SeqWindow<u64> {
    /// Add `[start, end)`, absorbing every range it overlaps or touches.
    pub fn merge_range(&mut self, mut start: u64, mut end: u64) {
        let lo = match self.items.back() {
            Some(&(_, e)) if e < start => self.items.len(),
            _ => self.items.partition_point(|&(_, e)| e < start),
        };
        let mut hi = lo;
        while let Some(&(s, e)) = self.items.get(hi) {
            if s > end {
                break;
            }
            start = start.min(s);
            end = end.max(e);
            hi += 1;
        }
        if hi == lo {
            self.items.insert(lo, (start, end));
        } else {
            self.items[lo] = (start, end);
            self.items.drain(lo + 1..hi);
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Point form against `BTreeMap`: tail appends, head releases,
        /// mid-window inserts, replacements, removals, range walks and
        /// the filtered prefix release.
        #[test]
        fn point_ops_match_btreemap(ops in proptest::collection::vec(any::<u64>(), 1..300)) {
            let mut w: SeqWindow<u64> = SeqWindow::new();
            let mut m: BTreeMap<u64, u64> = BTreeMap::new();
            let mut tail = 0u64;
            for op in ops {
                let (arg, key) = (op >> 4, (op >> 4) % 64);
                match op % 16 {
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
                    _ => {
                        // The old release: collect the covered keys
                        // below the bound, then remove each.
                        let covered = |k: u64, v: u64| k + v % 8 <= key;
                        let keys: Vec<u64> = m
                            .range(..key)
                            .filter(|(&k, &v)| covered(k, v))
                            .map(|(&k, _)| k)
                            .collect();
                        for k in keys {
                            m.remove(&k);
                        }
                        w.retain_below(key, |k, &v| !covered(k, v));
                    }
                }
                prop_assert_eq!(w.get(key), m.get(&key));
                prop_assert_eq!(w.front().copied(), m.first_key_value().map(|(&k, &v)| (k, v)));
                prop_assert_eq!(w.len(), m.len());
                prop_assert_eq!(entries(&w), model(&m));
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
