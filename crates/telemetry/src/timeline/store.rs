//! The store: one dense [`Table`] of series on a fixed-step grid — the
//! raw ring is one, every [`Tier`] wraps one — under a column id per
//! series name ([`Store`]), and [`Timeline::absorb`], which merges two.

use super::{Agg, SeriesKind, TierConfig, Timeline, TimelineConfig};
use sim::SimTime;
use std::collections::{BTreeMap, VecDeque};

/// A raw-ring value as the `f64` queries and tiers work in.
pub(super) fn bits_to_f64(kind: SeriesKind, bits: u64) -> f64 {
    match kind {
        SeriesKind::Counter => bits as f64,
        SeriesKind::Gauge => bits.cast_signed() as f64,
        SeriesKind::F64 => f64::from_bits(bits),
    }
}

/// One series: values for consecutive rows starting at absolute row
/// `start`, as `u64` bit patterns. In the raw ring `kind` says which
/// (counter value, `i64` bits, `f64` bits); a tier row is always `f64`
/// bits and `kind` names the raw series it was folded from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) struct Series {
    pub kind: SeriesKind,
    pub start: u64,
    pub vals: VecDeque<u64>,
}

impl Series {
    /// Append row `row`'s value. Rows are dense: a series that holds
    /// values continues at its next row or not at all.
    fn push(&mut self, row: u64, bits: u64) {
        if self.vals.is_empty() {
            self.start = row;
        } else {
            let next = self.start + self.vals.len() as u64;
            assert_eq!(next, row, "a series skipped a row of its grid");
        }
        self.vals.push_back(bits);
    }
}

/// A dense table of series on a `step_ns` grid behind a ring header:
/// rows `base .. base + len` are retained, at most `capacity` of them.
#[derive(Debug, Clone, PartialEq, Default)]
pub(super) struct Table {
    pub step_ns: u64,
    pub capacity: usize,
    /// Absolute index of the first retained row (== evicted rows).
    pub base: u64,
    /// Retained row count.
    pub len: u64,
    /// Series by column id (see [`Store`]); `None` where the column has
    /// no series in this table.
    pub cols: Vec<Option<Series>>,
}

impl Table {
    pub fn new(step_ns: u64, capacity: usize) -> Table {
        Table {
            step_ns,
            capacity: capacity.max(1),
            ..Table::default()
        }
    }

    fn series_mut(&mut self, col: usize) -> &mut Series {
        let s = self.cols[col].as_mut();
        s.expect("a sampled column holds a series in every table")
    }

    /// Row `row` is complete: count it, then evict the oldest rows down
    /// to `capacity`, from the header and from every series that still
    /// starts there.
    pub fn commit(&mut self, row: u64) {
        if self.len == 0 {
            self.base = row;
        } else {
            assert_eq!(self.base + self.len, row, "table rows must stay dense");
        }
        self.len += 1;
        while self.len > self.capacity as u64 {
            let evicted = self.base;
            self.base += 1;
            self.len -= 1;
            for s in self.cols.iter_mut().flatten() {
                if s.start == evicted && !s.vals.is_empty() {
                    s.vals.pop_front();
                    s.start += 1;
                }
            }
        }
    }

    /// `s`, a series of this table, as `(instant, kind, bits)` rows.
    pub fn stamped<'a>(
        &self,
        s: &'a Series,
    ) -> impl Iterator<Item = (SimTime, SeriesKind, u64)> + 'a {
        let step_ns = self.step_ns;
        let at = move |i: usize| SimTime::from_nanos((s.start + i as u64) * step_ns);
        (s.vals.iter().enumerate()).map(move |(i, &bits)| (at(i), s.kind, bits))
    }

    /// Widen the retained extent to cover `other`'s as well; an empty
    /// extent covers nothing.
    fn cover(&mut self, other: &Table) {
        if self.len == 0 {
            (self.base, self.len) = (other.base, other.len);
        } else if other.len > 0 {
            let end = (self.base + self.len).max(other.base + other.len);
            self.base = self.base.min(other.base);
            self.len = end - self.base;
        }
    }
}

/// Per-bucket accumulator; updates fold a bucket's samples in time
/// order, so tier rows are bit-identical to collecting the bucket and
/// recomputing naively.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) struct Acc {
    pub count: u64,
    sum: f64,
    min: f64,
    max: f64,
    last: f64,
}

impl Acc {
    pub fn new() -> Acc {
        Acc {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            last: 0.0,
        }
    }

    pub fn feed(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.last = v;
    }

    pub fn finish(&self, agg: Agg) -> f64 {
        match agg {
            Agg::Mean => self.sum / self.count as f64,
            Agg::Max => self.max,
            Agg::Min => self.min,
            Agg::Sum => self.sum,
            Agg::Count => self.count as f64,
            Agg::Last => self.last,
        }
    }
}

/// One downsampled tier: a [`Table`] of completed buckets, plus the
/// bucket in progress.
#[derive(Debug, Clone, PartialEq)]
pub(super) struct Tier {
    pub table: Table,
    pub agg: Agg,
    /// Absolute index of the in-progress (unflushed) bucket.
    cur: Option<u64>,
    /// The in-progress bucket's accumulator per column, empty where the
    /// column has not been fed since the last flush.
    accs: Vec<Acc>,
}

impl Tier {
    pub fn new(table: Table, agg: Agg) -> Tier {
        let accs = vec![Acc::new(); table.cols.len()];
        Tier {
            table,
            agg,
            cur: None,
            accs,
        }
    }

    /// Called once per raw tick before any feeds: flush the previous
    /// bucket if this tick starts a new one.
    pub fn roll(&mut self, stamp_ns: u64) {
        let bucket = stamp_ns / self.table.step_ns;
        if self.cur.is_some_and(|cur| bucket > cur) {
            self.flush();
        }
        self.cur.get_or_insert(bucket);
    }

    /// Complete the bucket in progress, if there is one: a row from
    /// every column fed since the last flush.
    pub fn flush(&mut self) {
        let Some(row) = self.cur.take() else { return };
        for (col, acc) in self.accs.iter_mut().enumerate() {
            if acc.count > 0 {
                let bits = acc.finish(self.agg).to_bits();
                self.table.series_mut(col).push(row, bits);
                *acc = Acc::new();
            }
        }
        self.table.commit(row);
    }
}

/// Every series the timeline holds under one dense column id:
/// `raw.cols[c]` and each `tiers[t].table.cols[c]` are column `c`'s raw
/// series and its rows in tier `t`. `index` maps a series name to its
/// column and is touched only when a name has to be resolved — a
/// registry layout the sampler has not planned, a query, `absorb`,
/// `parse`, and the name-ordered walk of `to_bytes` — never per series
/// per tick. A column the sampler opened holds a series in every table;
/// `None` entries only come out of `parse` / `absorb`, where a dump may
/// name a series in one table and not another.
#[derive(Debug, Clone, PartialEq, Default)]
pub(super) struct Store {
    pub index: BTreeMap<String, usize>,
    pub raw: Table,
    pub tiers: Vec<Tier>,
}

impl Store {
    pub fn new(cfg: &TimelineConfig) -> Store {
        let tier = |t: &TierConfig| Tier::new(Table::new(t.bucket.as_nanos(), t.capacity), t.agg);
        Store {
            index: BTreeMap::new(),
            raw: Table::new(cfg.every.as_nanos(), cfg.capacity),
            tiers: cfg.tiers.iter().map(tier).collect(),
        }
    }

    /// The raw ring (which aggregates nothing), then every tier.
    pub fn tables(&self) -> impl Iterator<Item = (&Table, Option<Agg>)> {
        let tiers = self.tiers.iter().map(|t| (&t.table, Some(t.agg)));
        std::iter::once((&self.raw, None)).chain(tiers)
    }

    pub fn tables_mut(&mut self) -> impl Iterator<Item = &mut Table> {
        std::iter::once(&mut self.raw).chain(self.tiers.iter_mut().map(|t| &mut t.table))
    }

    /// The column named `name`, added (empty in every table) if new.
    pub fn id(&mut self, name: &str) -> usize {
        if let Some(&col) = self.index.get(name) {
            return col;
        }
        let col = self.raw.cols.len();
        self.index.insert(name.to_owned(), col);
        self.tables_mut().for_each(|t| t.cols.push(None));
        self.tiers.iter_mut().for_each(|t| t.accs.push(Acc::new()));
        col
    }

    /// The sampler's column for `path` from tick `idx` on. On first
    /// sight, a series starts here in the raw ring and an empty one in
    /// every tier; after that, the kind must be the one it started as.
    pub fn open(&mut self, path: &str, kind: SeriesKind, idx: u64) -> usize {
        let col = self.id(path);
        if let Some(s) = &self.raw.cols[col] {
            assert_eq!(s.kind, kind, "series kind changed: {path}");
        } else {
            let series = |start, room| Series {
                kind,
                start,
                vals: VecDeque::with_capacity(room),
            };
            self.raw.cols[col] = Some(series(idx, 16));
            for t in &mut self.tiers {
                t.table.cols[col] = Some(series(0, 0));
            }
        }
        col
    }

    /// Append tick `idx`'s value to column `col`, of the `kind` it was
    /// [opened](Store::open) as, and feed every tier's accumulator, in
    /// tier order.
    pub fn record(&mut self, col: usize, kind: SeriesKind, bits: u64, idx: u64) {
        self.raw.series_mut(col).push(idx, bits);
        let v = bits_to_f64(kind, bits);
        for t in &mut self.tiers {
            t.accs[col].feed(v);
        }
    }
}

impl Timeline {
    /// Merge `other` into this timeline, prefixing its series names
    /// with `label.` (empty label = verbatim). Cadences must match
    /// (an empty receiver adopts the other's); series names must not
    /// collide. The result is frozen: it reports and serializes but
    /// cannot keep sampling, because the merged tick range is no
    /// longer a single sampler's own grid.
    pub fn absorb(&mut self, label: &str, other: &Timeline) {
        if other.is_empty() {
            return;
        }
        let (dst, src) = (&mut self.store, &other.store);
        if dst.raw.step_ns == 0 {
            let empty = |t: &Table| Table::new(t.step_ns, t.capacity);
            dst.raw = empty(&src.raw);
            let tiers = src.tiers.iter();
            dst.tiers = tiers.map(|t| Tier::new(empty(&t.table), t.agg)).collect();
        }
        self.frozen = true;
        let shape = |s: &Store| Vec::from_iter(s.tables().map(|(t, agg)| (t.step_ns, agg)));
        assert_eq!(shape(dst), shape(src), "absorb: cadence or tier mismatch");
        for (d, (s, _)) in dst.tables_mut().zip(src.tables()) {
            d.cover(s);
        }
        for (name, &from) in &src.index {
            let key = if label.is_empty() {
                name.clone()
            } else {
                format!("{label}.{name}")
            };
            let to = dst.id(&key);
            for (d, (s, _)) in dst.tables_mut().zip(src.tables()) {
                if let Some(series) = &s.cols[from] {
                    let prev = d.cols[to].replace(series.clone());
                    assert!(prev.is_none(), "absorb: series collision on {key}");
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{cfg, naive_buckets, tick};
    use super::*;
    use crate::metrics::Registry;
    use sim::SimDuration;

    #[test]
    fn ring_retention_is_bounded() {
        let mut reg = Registry::new();
        let c = reg.counter("mac.frames");
        let mut config = cfg(100);
        config.capacity = 64;
        config.tiers = vec![TierConfig {
            bucket: SimDuration::from_secs(1),
            agg: Agg::Mean,
            capacity: 32,
        }];
        let mut tl = Timeline::new(&config);
        for i in 0..10_000 {
            reg.inc(c);
            tl.sample(tick(i, 100), &reg);
        }
        tl.seal();
        assert_eq!(tl.ticks(), 64);
        assert_eq!(tl.dropped(), 10_000 - 64);
        assert_eq!(tl.series_len("mac.frames"), 64);
        let tier = tl.tiers().next().expect("tier");
        assert_eq!(tier.rows(), 32);
        assert_eq!(tier.dropped_rows(), 1_000 - 32);
        // The retained window is the most recent one.
        let r = tl.range("mac.frames", SimTime::ZERO, SimTime::MAX);
        assert_eq!(r.first().expect("samples").1, (10_000 - 64 + 1) as f64);
        assert_eq!(r.last().expect("samples").1, 10_000.0);
    }

    #[test]
    fn tiers_match_naive_downsample() {
        let mut reg = Registry::new();
        let g = reg.gauge("phy.level");
        let mut config = cfg(100);
        config.tiers = vec![
            TierConfig {
                bucket: SimDuration::from_millis(700),
                agg: Agg::Mean,
                capacity: 4096,
            },
            TierConfig {
                bucket: SimDuration::from_millis(300),
                agg: Agg::Max,
                capacity: 4096,
            },
        ];
        let mut tl = Timeline::new(&config);
        let mut samples = Vec::new();
        for i in 0..97u64 {
            // A wobbly deterministic trajectory with sign changes.
            let v = i64::try_from(i).expect("fits") * 13 % 41 - 20;
            reg.gauge_set(g, v);
            let at = tick(i, 100);
            samples.push((at, v as f64));
            tl.sample(at, &reg);
        }
        tl.seal();
        let horizon = tick(97, 100);
        for (i, (bucket, agg)) in [
            (SimDuration::from_millis(700), Agg::Mean),
            (SimDuration::from_millis(300), Agg::Max),
        ]
        .iter()
        .enumerate()
        {
            let naive = naive_buckets(&samples, *bucket, *agg);
            let tier = tl.tiers().nth(i).expect("tier");
            assert_eq!(tier.series("phy.level"), naive, "tier {i}");
            // And the on-the-fly query path agrees with both.
            assert_eq!(
                tl.downsample("phy.level", SimTime::ZERO, horizon, *bucket, *agg),
                naive
            );
        }
    }
}
