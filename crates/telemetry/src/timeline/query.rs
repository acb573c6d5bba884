//! Read side: the header accessors, `range` / `last` / `downsample`
//! over the raw ring, and [`TableView`], the one accessor every table
//! (raw ring and tiers alike) is read through.

use super::store::{bits_to_f64, Acc, Series, Table};
use super::{Agg, SeriesKind, Timeline};
use sim::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Read-only view of one table of a timeline: the raw ring, or a tier
/// (for `wifictl time summary` / `diff` and tier queries).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TableView<'a> {
    table: &'a Table,
    agg: Option<Agg>,
    index: &'a BTreeMap<String, usize>,
}

impl<'a> TableView<'a> {
    /// Grid step: a tier's bucket width, the raw ring's cadence.
    pub fn bucket(&self) -> SimDuration {
        SimDuration::from_nanos(self.table.step_ns)
    }

    /// Aggregation a tier applies; `None` for the raw ring.
    pub fn agg(&self) -> Option<Agg> {
        self.agg
    }

    /// Retained rows (of a tier: completed buckets).
    pub fn rows(&self) -> u64 {
        self.table.len
    }

    /// Rows evicted from the front of the ring.
    pub fn dropped_rows(&self) -> u64 {
        self.table.base
    }

    fn get(&self, name: &str) -> Option<&'a Series> {
        self.table.cols[*self.index.get(name)?].as_ref()
    }

    /// One series as `(row start, kind, bits)`; nothing if absent.
    fn stamped(&self, name: &str) -> impl Iterator<Item = (SimTime, SeriesKind, u64)> + 'a {
        let table = self.table;
        (self.get(name).into_iter()).flat_map(move |s| table.stamped(s))
    }

    /// One series as `(row start, kind, bits)` with its exact bit
    /// patterns — what `wifictl time diff` compares so divergence is
    /// never masked by float printing. Tier rows are `f64` bits.
    pub fn series_bits(&self, name: &str) -> Vec<(SimTime, SeriesKind, u64)> {
        self.stamped(name).collect()
    }

    /// One series as `(row start, value)`.
    pub fn series(&self, name: &str) -> Vec<(SimTime, f64)> {
        let value = |kind, bits| match self.agg {
            Some(_) => f64::from_bits(bits),
            None => bits_to_f64(kind, bits),
        };
        let rows = self.stamped(name);
        rows.map(|(at, kind, bits)| (at, value(kind, bits)))
            .collect()
    }
}

impl Timeline {
    /// Read-only views of the raw ring, then the tiers in config order.
    pub fn tables(&self) -> impl Iterator<Item = TableView<'_>> {
        let index = &self.store.index;
        let view = move |(table, agg)| TableView { table, agg, index };
        self.store.tables().map(view)
    }

    /// Read-only tier views, in config order.
    pub fn tiers(&self) -> impl Iterator<Item = TableView<'_>> {
        self.tables().skip(1)
    }

    fn raw(&self) -> TableView<'_> {
        self.tables().next().expect("the raw ring")
    }

    /// Sampling interval.
    pub fn every(&self) -> SimDuration {
        self.raw().bucket()
    }

    /// Retained raw ticks.
    pub fn ticks(&self) -> u64 {
        self.raw().rows()
    }

    /// Ticks evicted from the front of the raw ring.
    pub fn dropped(&self) -> u64 {
        self.raw().dropped_rows()
    }

    /// True when nothing has ever been sampled or absorbed.
    pub fn is_empty(&self) -> bool {
        let raw = &self.store.raw;
        raw.step_ns == 0 || (raw.len == 0 && raw.cols.iter().all(Option::is_none))
    }

    /// Instant of the first retained tick (none while empty).
    pub fn first_stamp(&self) -> Option<SimTime> {
        let raw = &self.store.raw;
        (raw.len > 0).then(|| SimTime::from_nanos(raw.base * raw.step_ns))
    }

    /// Instant of the last retained tick (none while empty).
    pub fn last_stamp(&self) -> Option<SimTime> {
        let raw = &self.store.raw;
        (raw.len > 0).then(|| SimTime::from_nanos((raw.base + raw.len - 1) * raw.step_ns))
    }

    /// Series names, ascending.
    pub fn series_names(&self) -> impl Iterator<Item = &str> {
        let cols = &self.store.raw.cols;
        let named = self.store.index.iter();
        named
            .filter(|&(_, &col)| cols[col].is_some())
            .map(|(name, _)| name.as_str())
    }

    /// Kind of a series, if present.
    pub fn kind(&self, name: &str) -> Option<SeriesKind> {
        self.raw().get(name).map(|s| s.kind)
    }

    /// Retained sample count of a series.
    pub fn series_len(&self, name: &str) -> usize {
        self.raw().get(name).map_or(0, |s| s.vals.len())
    }

    /// Raw samples of a series in `[from, to)` as `(instant, value)`.
    pub fn range(&self, name: &str, from: SimTime, to: SimTime) -> Vec<(SimTime, f64)> {
        let value = |(at, kind, bits)| (at, bits_to_f64(kind, bits));
        (self.range_bits(name, from, to).into_iter().map(value)).collect()
    }

    /// Raw samples in `[from, to)` with their exact bit patterns (see
    /// [`TableView::series_bits`]).
    pub fn range_bits(
        &self,
        name: &str,
        from: SimTime,
        to: SimTime,
    ) -> Vec<(SimTime, SeriesKind, u64)> {
        let rows = self.raw().stamped(name);
        rows.filter(|&(at, ..)| at >= from && at < to).collect()
    }

    /// Latest retained value of a series.
    pub fn last(&self, name: &str) -> Option<f64> {
        let s = self.raw().get(name)?;
        s.vals.back().map(|&bits| bits_to_f64(s.kind, bits))
    }

    /// Downsample a series on the fly into fixed-width buckets: grid
    /// anchored at `from`, empty buckets omitted, samples folded in
    /// time order (so values are bit-identical to the tiers' rows).
    pub fn downsample(
        &self,
        name: &str,
        from: SimTime,
        to: SimTime,
        bucket: SimDuration,
        agg: Agg,
    ) -> Vec<(SimTime, f64)> {
        assert!(bucket > SimDuration::ZERO);
        let mut samples = self.range(name, from, to).into_iter().peekable();
        let mut out: Vec<(SimTime, f64)> = Vec::new();
        let mut bucket_start = from;
        while bucket_start < to && samples.peek().is_some() {
            // A bucket that would end past the end of time ends at `to`.
            let bucket_end = bucket_start
                .checked_add(bucket)
                .map_or(to, |end| end.min(to));
            let mut acc = Acc::new();
            while let Some((_, v)) = samples.next_if(|&(at, _)| at < bucket_end) {
                acc.feed(v);
            }
            if acc.count > 0 {
                out.push((bucket_start, acc.finish(agg)));
            }
            bucket_start = bucket_end;
        }
        out
    }
}
