//! Deterministic time-series telemetry: the timeline sampler.
//!
//! The paper's method is measurement *over time* — every AP pushes
//! periodic counter samples into LittleTable (§2.2) and the cloud
//! queries series, not snapshots. This module gives the reproduction
//! that time dimension: a [`Timeline`] samples selected counters and
//! gauges out of a [`Registry`](crate::metrics::Registry) every fixed
//! sim-time interval into per-series columns, keeps a bounded ring of
//! raw ticks plus coarse downsampled tiers (LittleTable-style
//! [`Agg`] buckets), and serializes to a byte-stable `TSL1` binary dump with a
//! strict parser — the same idiom as the flight recorder's `FLT1`.
//!
//! ## Sampling model
//!
//! Ticks are **nominal and dense**: tick `i` is at sim time
//! `i * every`, and [`Timeline::sample`] must be called exactly on
//! that grid (the testbed and fleet drive it from catch-up loops that
//! guarantee this). Series therefore need no per-sample timestamps —
//! a series is `(start tick, values…)` and the shared timestamp
//! column in the dump is pure delta-encoded bookkeeping.
//!
//! Three series kinds:
//!
//! * **counter** — monotonic `u64`, stored as first value + varint
//!   deltas (non-negative in practice; wrapping arithmetic makes the
//!   round-trip exact regardless);
//! * **gauge** — signed `i64` level, zigzag + varint deltas;
//! * **f64** — explicitly staged floating-point signals (e.g. the
//!   Fig. 14 cwnd curve), XOR-of-bits + varint.
//!
//! Counters and gauges are found by walking the registry; an f64
//! signal is pushed by its owner. [`Timeline::stage_f64`] registers a
//! path once and returns a [`StagedId`]; [`Timeline::set`] refreshes
//! the value through the handle with no string work, and every tick
//! from then on samples the latest value. [`Timeline::set_f64`] does
//! both by name for callers that stage a signal or two off the hot
//! path.
//!
//! ## What a tick costs
//!
//! Series live in one dense column table (raw values plus each
//! tier's accumulator per column); a name index resolves names for
//! queries, `absorb`, `parse` and the sorted dump order only.
//! [`Timeline::sample`] remembers, per registry section, the sorted
//! list of paths it has met and merge-joins it against the registry's
//! own path-sorted iteration: one string compare and a few indexed
//! pushes per series per tick, a map insert only for a path met for
//! the first time. Nothing is cached about the registry itself, so a
//! fresh (merged) registry every tick — the fleet's — samples the same
//! way. DESIGN.md §6 "Sinks: what a tick costs" has the rules this
//! keeps so no dump byte moves.
//!
//! ## Determinism contract
//!
//! The sampler only *reads* the registry — enabling a timeline never
//! schedules events, draws randomness, or writes a metric, so every
//! other artifact of a run is byte-identical with sampling on or off.
//! Dump order comes from ordered maps only; [`Timeline::to_bytes`] is
//! byte-identical for identical runs and `scripts/ci.sh` double-runs
//! and `cmp`s exactly those dumps.
//!
//! ```
//! use sim::{SimDuration, SimTime};
//! use telemetry::metrics::Registry;
//! use telemetry::timeline::{Timeline, TimelineConfig};
//!
//! let mut reg = Registry::new();
//! let c = reg.counter("mac.frames");
//! let mut tl = Timeline::new(&TimelineConfig::sampling(SimDuration::from_millis(100)));
//! for i in 0..5u64 {
//!     reg.add(c, 7);
//!     tl.sample(SimTime::from_millis(100 * i), &reg);
//! }
//! tl.seal();
//! let parsed = Timeline::parse(&tl.to_bytes()).unwrap();
//! assert_eq!(parsed.to_bytes(), tl.to_bytes());
//! assert_eq!(tl.last("mac.frames"), Some(35.0));
//! ```

use crate::codec::{put_name, put_varint, unzigzag, zigzag, Reader};
use crate::metrics::Registry;
use sim::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::{BTreeMap, VecDeque};

/// Dump file magic: "TSL" + format version.
const MAGIC: &[u8; 4] = b"TSL1";

/// What a series holds; fixed at the series' first sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesKind {
    /// Monotonic `u64` counter snapshot.
    Counter,
    /// Signed `i64` gauge level.
    Gauge,
    /// Explicitly staged `f64` signal (see [`Timeline::stage_f64`]).
    F64,
}

impl SeriesKind {
    fn tag(self) -> u8 {
        match self {
            SeriesKind::Counter => 0,
            SeriesKind::Gauge => 1,
            SeriesKind::F64 => 2,
        }
    }

    fn from_tag(tag: u8) -> Result<SeriesKind, String> {
        match tag {
            0 => Ok(SeriesKind::Counter),
            1 => Ok(SeriesKind::Gauge),
            2 => Ok(SeriesKind::F64),
            t => Err(format!("unknown series kind tag {t}")),
        }
    }

    /// Short human label (`wifictl time summary`).
    pub fn label(self) -> &'static str {
        match self {
            SeriesKind::Counter => "counter",
            SeriesKind::Gauge => "gauge",
            SeriesKind::F64 => "f64",
        }
    }
}

/// One downsampled retention tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierConfig {
    /// Bucket width; must be ≥ the raw sampling interval so every
    /// bucket in range contains at least one tick (rows stay dense).
    pub bucket: SimDuration,
    /// Aggregation applied per bucket, with [`Timeline::downsample`]'s
    /// semantics exactly.
    pub agg: Agg,
    /// Retained rows before the oldest is evicted.
    pub capacity: usize,
}

/// Sampler configuration. The `Option<TimelineConfig>` on testbed and
/// harness configs defaults to `None`: runs pay nothing unless a
/// timeline is asked for.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineConfig {
    /// Sampling interval; tick `i` lands at `i * every`.
    pub every: SimDuration,
    /// Dotted-path prefixes to sample (empty = every counter/gauge).
    pub select: Vec<String>,
    /// Retained raw ticks before ring eviction.
    pub capacity: usize,
    /// Coarse downsampled tiers kept alongside the raw ring.
    pub tiers: Vec<TierConfig>,
}

impl TimelineConfig {
    /// Everything-selected config with the default retention shape:
    /// 4096 raw ticks plus a 10× mean tier and a 100× max tier.
    pub fn sampling(every: SimDuration) -> TimelineConfig {
        TimelineConfig {
            every,
            select: Vec::new(),
            capacity: 4096,
            tiers: vec![
                TierConfig {
                    bucket: every * 10,
                    agg: Agg::Mean,
                    capacity: 4096,
                },
                TierConfig {
                    bucket: every * 100,
                    agg: Agg::Max,
                    capacity: 4096,
                },
            ],
        }
    }
}

/// One raw series: values for consecutive ticks starting at absolute
/// tick `start`, stored as raw `u64` bit patterns (counter value,
/// `i64` bits, or `f64` bits depending on `kind`).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Series {
    kind: SeriesKind,
    start: u64,
    vals: VecDeque<u64>,
}

fn bits_to_f64(kind: SeriesKind, bits: u64) -> f64 {
    match kind {
        SeriesKind::Counter => bits as f64,
        SeriesKind::Gauge => i64::from_le_bytes(bits.to_le_bytes()) as f64,
        SeriesKind::F64 => f64::from_bits(bits),
    }
}

/// Aggregation applied when downsampling a range into buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    Mean,
    Max,
    Min,
    Sum,
    Count,
    Last,
}

/// Per-bucket accumulator; updates fold a bucket's samples in time
/// order, so tier rows are bit-identical to collecting the bucket and
/// recomputing naively.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Acc {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    last: f64,
}

impl Acc {
    fn new() -> Acc {
        Acc {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            last: 0.0,
        }
    }

    fn feed(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.last = v;
    }

    fn finish(&self, agg: Agg) -> f64 {
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

/// One tier series: completed-bucket values (f64 bits) for dense rows
/// starting at absolute bucket row `start`.
#[derive(Debug, Clone, PartialEq)]
struct TierSeries {
    kind: SeriesKind,
    start: u64,
    vals: VecDeque<u64>,
    acc: Option<Acc>,
}

/// One downsampled tier: dense rows of completed buckets.
#[derive(Debug, Clone, PartialEq)]
struct Tier {
    bucket_ns: u64,
    agg: Agg,
    capacity: usize,
    /// Absolute row index of the first retained row (== evicted rows).
    base: u64,
    /// Retained row count.
    len: u64,
    /// Absolute index of the in-progress (unflushed) bucket.
    cur: Option<u64>,
    /// This tier's series by column id (see [`Columns`]); `None` where
    /// the column has no series in this tier.
    cols: Vec<Option<TierSeries>>,
}

impl Tier {
    fn new(cfg: &TierConfig) -> Tier {
        Tier {
            bucket_ns: cfg.bucket.as_nanos(),
            agg: cfg.agg,
            capacity: cfg.capacity.max(1),
            base: 0,
            len: 0,
            cur: None,
            cols: Vec::new(),
        }
    }

    /// Called once per raw tick before any feeds: flush the previous
    /// bucket if this tick starts a new one.
    fn roll(&mut self, stamp_ns: u64) {
        let b = stamp_ns / self.bucket_ns;
        match self.cur {
            None => self.cur = Some(b),
            Some(p) if b > p => {
                self.flush_row(p);
                self.cur = Some(b);
            }
            Some(_) => {}
        }
    }

    fn feed(&mut self, col: usize, kind: SeriesKind, v: f64) {
        let s = self.cols[col]
            .as_mut()
            .expect("a sampled column holds a series in every tier");
        debug_assert_eq!(s.kind, kind, "tier series kind changed: column {col}");
        s.acc.get_or_insert_with(Acc::new).feed(v);
    }

    /// Flush completed bucket `row` into every accumulating series.
    fn flush_row(&mut self, row: u64) {
        if self.len == 0 {
            self.base = row;
        } else {
            assert_eq!(
                self.base + self.len,
                row,
                "tier rows must stay dense (bucket < sampling interval?)"
            );
        }
        for (col, s) in self.cols.iter_mut().enumerate() {
            let Some(s) = s else { continue };
            let Some(acc) = s.acc.take() else { continue };
            if s.vals.is_empty() {
                s.start = row;
            } else {
                assert_eq!(
                    s.start + s.vals.len() as u64,
                    row,
                    "tier series in column {col} skipped a bucket"
                );
            }
            s.vals.push_back(acc.finish(self.agg).to_bits());
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
}

/// The column table: every series the timeline holds, raw and per
/// tier, under one dense column id. `raw[c]` and each `tiers[t].cols[c]`
/// are column `c`'s raw series and its row in tier `t`; `index` maps a
/// series name to its column and is touched only when a name has to be
/// resolved — a path the sampler has not met before, a query, `absorb`,
/// `parse`, and the name-ordered walk of `to_bytes` — never per series
/// per tick. A column the sampler opened holds a series in every
/// table; `None` entries only come out of `parse` / `absorb`, where a
/// dump may name a series in one table and not another.
#[derive(Debug, Clone, PartialEq, Default)]
struct Columns {
    index: BTreeMap<String, usize>,
    raw: Vec<Option<Series>>,
    tiers: Vec<Tier>,
}

impl Columns {
    /// The column named `name`, added (empty in every table) if new.
    fn id(&mut self, name: &str) -> usize {
        if let Some(&col) = self.index.get(name) {
            return col;
        }
        let col = self.raw.len();
        self.index.insert(name.to_owned(), col);
        self.raw.push(None);
        for t in &mut self.tiers {
            t.cols.push(None);
        }
        col
    }

    /// First sight of `path` by the sampler, at tick `idx`: its column,
    /// with a series starting here in every table. A column that
    /// already holds one (the same path under another kind) is left
    /// as it is for [`Columns::record`] to reject.
    fn open(&mut self, path: &str, kind: SeriesKind, idx: u64) -> usize {
        let col = self.id(path);
        if self.raw[col].is_none() {
            self.raw[col] = Some(Series {
                kind,
                start: idx,
                vals: VecDeque::with_capacity(16),
            });
            for t in &mut self.tiers {
                t.cols[col] = Some(TierSeries {
                    kind,
                    start: 0,
                    vals: VecDeque::new(),
                    acc: None,
                });
            }
        }
        col
    }

    /// Append tick `idx`'s value to column `col` and feed every tier's
    /// accumulator, in tier order.
    fn record(&mut self, col: usize, path: &str, kind: SeriesKind, bits: u64, idx: u64) {
        let s = self.raw[col]
            .as_mut()
            .expect("a sampled column holds a raw series");
        assert_eq!(s.kind, kind, "series kind changed: {path}");
        assert_eq!(
            s.start + s.vals.len() as u64,
            idx,
            "series {path} skipped a tick"
        );
        s.vals.push_back(bits);
        let v = bits_to_f64(kind, bits);
        for t in &mut self.tiers {
            t.feed(col, kind, v);
        }
    }

    fn series(&self, name: &str) -> Option<&Series> {
        self.raw[*self.index.get(name)?].as_ref()
    }
}

/// One path the sampler has met in a registry section, in path order
/// (see [`Timeline::sample`]).
#[derive(Debug, Clone, PartialEq)]
struct Walk {
    path: String,
    /// The path's column; `None` when `select` turned it away.
    col: Option<usize>,
}

/// Snapshot one path-sorted registry section (all counters, or all
/// gauges) at tick `idx`: a merge join of `section` against `walk`,
/// the same section's paths as the sampler last saw them. On the steady
/// path each series costs one string compare and indexed pushes; a path
/// not met before is resolved once (`select`, then the name index) and
/// spliced into `walk`; a path the registry no longer lists is stepped
/// over. Nothing identifies the registry but the paths it yields, so a
/// fresh merged registry per tick (the fleet's) walks the same way.
fn sample_section<'a>(
    cols: &mut Columns,
    walk: &mut Vec<Walk>,
    select: &[String],
    kind: SeriesKind,
    idx: u64,
    section: impl Iterator<Item = (&'a str, u64)>,
) {
    let mut k = 0;
    for (path, bits) in section {
        let col = loop {
            match walk.get(k).map(|w| w.path.as_str().cmp(path)) {
                Some(Ordering::Equal) => break walk[k].col,
                Some(Ordering::Less) => k += 1,
                Some(Ordering::Greater) | None => {
                    let take = select.is_empty() || select.iter().any(|p| path.starts_with(p));
                    let col = take.then(|| cols.open(path, kind, idx));
                    walk.insert(
                        k,
                        Walk {
                            path: path.to_owned(),
                            col,
                        },
                    );
                    break col;
                }
            }
        };
        k += 1;
        if let Some(col) = col {
            cols.record(col, path, kind, bits, idx);
        }
    }
}

/// Read-only view of one tier (for `wifictl time summary`/queries).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierView<'a> {
    tier: &'a Tier,
    index: &'a BTreeMap<String, usize>,
}

impl<'a> TierView<'a> {
    /// Bucket width.
    pub fn bucket(&self) -> SimDuration {
        SimDuration::from_nanos(self.tier.bucket_ns)
    }

    /// Aggregation this tier applies.
    pub fn agg(&self) -> Agg {
        self.tier.agg
    }

    /// Completed, retained rows.
    pub fn rows(&self) -> u64 {
        self.tier.len
    }

    /// Rows evicted from the front of the tier ring.
    pub fn dropped_rows(&self) -> u64 {
        self.tier.base
    }

    /// Completed-bucket values of one series as `(bucket start, value)`.
    pub fn series(&self, name: &str) -> Vec<(SimTime, f64)> {
        let Some(s) = self
            .index
            .get(name)
            .and_then(|&c| self.tier.cols[c].as_ref())
        else {
            return Vec::new();
        };
        s.vals
            .iter()
            .enumerate()
            .map(|(i, &bits)| {
                let row = s.start + i as u64;
                (
                    SimTime::from_nanos(row * self.tier.bucket_ns),
                    f64::from_bits(bits),
                )
            })
            .collect()
    }
}

/// One explicitly staged f64 signal (see [`Timeline::stage_f64`]).
#[derive(Debug, Clone, PartialEq)]
struct Staged {
    path: String,
    /// Latest staged value; `None` until the first [`Timeline::set`].
    bits: Option<u64>,
    /// The signal's column, opened by the first tick that samples it.
    col: Option<usize>,
}

/// Handle to a staged f64 signal, issued by [`Timeline::stage_f64`]
/// and valid only for the timeline that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StagedId(u32);

/// The timeline sampler + store (see module docs).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Timeline {
    every_ns: u64,
    capacity: usize,
    select: Vec<String>,
    /// Absolute index of the first retained tick (== evicted ticks).
    base: u64,
    /// Retained tick count.
    len: u64,
    cols: Columns,
    /// Every counter path met so far, path-sorted ([`sample_section`]).
    counter_walk: Vec<Walk>,
    /// Every gauge path met so far, path-sorted.
    gauge_walk: Vec<Walk>,
    /// Explicitly staged f64 signals, re-sampled every tick.
    staged: Vec<Staged>,
    /// Set by `absorb`/`parse`: the tick grid is no longer this
    /// sampler's own, so further `sample` calls are a bug.
    frozen: bool,
}

impl Timeline {
    pub fn new(cfg: &TimelineConfig) -> Timeline {
        assert!(
            cfg.every > SimDuration::ZERO,
            "sampling interval must be > 0"
        );
        for t in &cfg.tiers {
            assert!(
                t.bucket >= cfg.every,
                "tier bucket {} < sampling interval {}",
                t.bucket,
                cfg.every
            );
        }
        Timeline {
            every_ns: cfg.every.as_nanos(),
            capacity: cfg.capacity.max(1),
            select: cfg.select.clone(),
            cols: Columns {
                tiers: cfg.tiers.iter().map(Tier::new).collect(),
                ..Columns::default()
            },
            ..Timeline::default()
        }
    }

    // ---- sampling -------------------------------------------------

    /// Register an f64 signal and return its handle; a path staged
    /// before gets the handle it got then. The signal joins the ticks
    /// once a value has been [`set`](Timeline::set). Call once at
    /// setup and keep the handle: this resolves the name by scanning
    /// the staged signals.
    pub fn stage_f64(&mut self, path: &str) -> StagedId {
        let slot = self
            .staged
            .iter()
            .position(|s| s.path == path)
            .unwrap_or_else(|| {
                self.staged.push(Staged {
                    path: path.to_owned(),
                    bits: None,
                    col: None,
                });
                self.staged.len() - 1
            });
        StagedId(u32::try_from(slot).expect("staged id space exhausted"))
    }

    /// Stage (or refresh) a signal's value; every subsequent tick
    /// samples the latest one. NaN is rejected at the door so tier
    /// aggregates can never be poisoned.
    pub fn set(&mut self, id: StagedId, v: f64) {
        let s = &mut self.staged[id.0 as usize];
        assert!(!v.is_nan(), "NaN staged for timeline series {}", s.path);
        s.bits = Some(v.to_bits());
    }

    /// [`stage_f64`](Timeline::stage_f64) + [`set`](Timeline::set) by
    /// name, for callers off the hot path.
    pub fn set_f64(&mut self, path: &str, v: f64) {
        let id = self.stage_f64(path);
        self.set(id, v);
    }

    /// Record tick `base + len` at its nominal instant: snapshot every
    /// selected counter and gauge plus all staged f64 signals. Reads
    /// the registry only — never writes it.
    pub fn sample(&mut self, at: SimTime, reg: &Registry) {
        assert!(!self.frozen, "sample() on an absorbed/parsed timeline");
        assert!(
            self.every_ns > 0,
            "sample() on a default-constructed timeline"
        );
        let idx = self.base + self.len;
        let stamp_ns = at.as_nanos();
        assert_eq!(
            stamp_ns,
            idx * self.every_ns,
            "timeline tick off the nominal grid"
        );
        let cols = &mut self.cols;
        for t in &mut cols.tiers {
            t.roll(stamp_ns);
        }
        sample_section(
            cols,
            &mut self.counter_walk,
            &self.select,
            SeriesKind::Counter,
            idx,
            reg.counters(),
        );
        sample_section(
            cols,
            &mut self.gauge_walk,
            &self.select,
            SeriesKind::Gauge,
            idx,
            reg.gauges().map(|(path, v)| (path, i64_bits(v))),
        );
        for s in &mut self.staged {
            let Some(bits) = s.bits else { continue };
            let col = *s
                .col
                .get_or_insert_with(|| cols.open(&s.path, SeriesKind::F64, idx));
            cols.record(col, &s.path, SeriesKind::F64, bits, idx);
        }
        self.len += 1;
        if self.len > self.capacity as u64 {
            let evicted = self.base;
            self.base += 1;
            self.len -= 1;
            for s in cols.raw.iter_mut().flatten() {
                if s.start == evicted && !s.vals.is_empty() {
                    s.vals.pop_front();
                    s.start += 1;
                }
            }
        }
    }

    /// Flush every tier's in-progress bucket. Call once after the last
    /// `sample` and before `to_bytes` — dumps carry completed buckets
    /// only, so an unsealed trailing bucket would silently vanish.
    pub fn seal(&mut self) {
        for t in &mut self.cols.tiers {
            if let Some(p) = t.cur.take() {
                t.flush_row(p);
            }
        }
    }

    // ---- queries --------------------------------------------------

    /// Sampling interval.
    pub fn every(&self) -> SimDuration {
        SimDuration::from_nanos(self.every_ns)
    }

    /// Retained raw ticks.
    pub fn ticks(&self) -> u64 {
        self.len
    }

    /// Ticks evicted from the front of the raw ring.
    pub fn dropped(&self) -> u64 {
        self.base
    }

    /// True when nothing has ever been sampled or absorbed.
    pub fn is_empty(&self) -> bool {
        self.every_ns == 0 || (self.len == 0 && self.cols.raw.iter().all(Option::is_none))
    }

    /// Instant of the first retained tick (none while empty).
    pub fn first_stamp(&self) -> Option<SimTime> {
        (self.len > 0).then(|| SimTime::from_nanos(self.base * self.every_ns))
    }

    /// Instant of the last retained tick (none while empty).
    pub fn last_stamp(&self) -> Option<SimTime> {
        (self.len > 0).then(|| SimTime::from_nanos((self.base + self.len - 1) * self.every_ns))
    }

    /// Series names, ascending.
    pub fn series_names(&self) -> impl Iterator<Item = &str> {
        let raw = &self.cols.raw;
        self.cols
            .index
            .iter()
            .filter(|&(_, &col)| raw[col].is_some())
            .map(|(name, _)| name.as_str())
    }

    /// Kind of a series, if present.
    pub fn kind(&self, name: &str) -> Option<SeriesKind> {
        self.cols.series(name).map(|s| s.kind)
    }

    /// Retained sample count of a series.
    pub fn series_len(&self, name: &str) -> usize {
        self.cols.series(name).map_or(0, |s| s.vals.len())
    }

    /// Raw samples of a series in `[from, to)` as `(instant, value)`.
    pub fn range(&self, name: &str, from: SimTime, to: SimTime) -> Vec<(SimTime, f64)> {
        self.range_bits(name, from, to)
            .into_iter()
            .map(|(t, kind, bits)| (t, bits_to_f64(kind, bits)))
            .collect()
    }

    /// Raw samples in `[from, to)` with their exact bit patterns —
    /// what `wifictl time diff` compares so divergence is never masked by
    /// float printing.
    pub fn range_bits(
        &self,
        name: &str,
        from: SimTime,
        to: SimTime,
    ) -> Vec<(SimTime, SeriesKind, u64)> {
        let Some(s) = self.cols.series(name) else {
            return Vec::new();
        };
        s.vals
            .iter()
            .enumerate()
            .filter_map(|(i, &bits)| {
                let at = SimTime::from_nanos((s.start + i as u64) * self.every_ns);
                (at >= from && at < to).then_some((at, s.kind, bits))
            })
            .collect()
    }

    /// Latest retained value of a series.
    pub fn last(&self, name: &str) -> Option<f64> {
        let s = self.cols.series(name)?;
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
        let samples = self.range(name, from, to);
        let mut out: Vec<(SimTime, f64)> = Vec::new();
        let mut i = 0;
        let mut bucket_start = from;
        while bucket_start < to && i < samples.len() {
            // A bucket that would end past the end of time ends at `to`.
            let bucket_end = bucket_start
                .checked_add(bucket)
                .map_or(to, |end| end.min(to));
            let mut acc = Acc::new();
            let mut any = false;
            while i < samples.len() && samples[i].0 < bucket_end {
                acc.feed(samples[i].1);
                any = true;
                i += 1;
            }
            if any {
                out.push((bucket_start, acc.finish(agg)));
            }
            bucket_start = bucket_end;
        }
        out
    }

    /// Read-only tier views, in config order.
    pub fn tiers(&self) -> impl Iterator<Item = TierView<'_>> {
        self.cols.tiers.iter().map(|tier| TierView {
            tier,
            index: &self.cols.index,
        })
    }

    // ---- merging --------------------------------------------------

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
        if self.every_ns == 0 {
            self.every_ns = other.every_ns;
            self.capacity = other.capacity;
            self.base = other.base;
            self.len = other.len;
            let n_cols = self.cols.raw.len();
            self.cols.tiers = other
                .cols
                .tiers
                .iter()
                .map(|t| Tier {
                    bucket_ns: t.bucket_ns,
                    agg: t.agg,
                    capacity: t.capacity,
                    base: t.base,
                    len: t.len,
                    cur: None,
                    cols: vec![None; n_cols],
                })
                .collect();
        } else {
            assert_eq!(
                self.every_ns, other.every_ns,
                "absorb: timeline cadence mismatch"
            );
            let end = (self.base + self.len).max(other.base + other.len);
            self.base = self.base.min(other.base);
            self.len = end - self.base;
        }
        self.frozen = true;
        assert_eq!(
            self.cols.tiers.len(),
            other.cols.tiers.len(),
            "absorb: tier shape mismatch"
        );
        for (dst, src) in self.cols.tiers.iter_mut().zip(&other.cols.tiers) {
            assert_eq!(dst.bucket_ns, src.bucket_ns, "absorb: tier bucket mismatch");
            assert_eq!(dst.agg, src.agg, "absorb: tier agg mismatch");
            if dst.len == 0 {
                dst.base = src.base;
                dst.len = src.len;
            } else if src.len > 0 {
                let end = (dst.base + dst.len).max(src.base + src.len);
                dst.base = dst.base.min(src.base);
                dst.len = end - dst.base;
            }
        }
        for (name, &from) in &other.cols.index {
            let key = if label.is_empty() {
                name.clone()
            } else {
                format!("{label}.{name}")
            };
            let to = self.cols.id(&key);
            if let Some(s) = &other.cols.raw[from] {
                let prev = self.cols.raw[to].replace(s.clone());
                assert!(prev.is_none(), "absorb: series collision on {key}");
            }
            for (dst, src) in self.cols.tiers.iter_mut().zip(&other.cols.tiers) {
                if let Some(s) = &src.cols[from] {
                    let prev = dst.cols[to].replace(s.clone());
                    assert!(prev.is_none(), "absorb: tier series collision on {key}");
                }
            }
        }
    }

    // ---- binary serialization ------------------------------------

    /// Serialize to the deterministic, byte-stable `TSL1` dump:
    ///
    /// ```text
    /// "TSL1"
    /// u64 sampling interval (ns)
    /// u64 evicted tick count
    /// u32 retained tick count
    /// shared timestamp column (if any ticks):
    ///   u64 first instant (ns), varint deltas × (count − 1)
    /// u32 series count
    /// per series (sorted by name):
    ///   u16 name length, name bytes (UTF-8)
    ///   u8  kind (0 counter, 1 gauge, 2 f64)
    ///   u64 start tick (absolute index)
    ///   u32 value count
    ///   u32 payload byte length
    ///   payload:
    ///     counter: varint first, varint deltas
    ///     gauge:   zigzag-varint first, zigzag-varint deltas
    ///     f64:     u64 first bits (LE), varint XOR-with-previous
    /// u32 tier count
    /// per tier:
    ///   u64 bucket (ns), u8 agg tag, u64 evicted rows, u32 row count
    ///   u32 series count, then series as above (values f64-encoded)
    /// ```
    ///
    /// All integers little-endian. Only completed buckets are dumped —
    /// call [`Timeline::seal`] first. `parse(to_bytes())` round-trips
    /// byte-identically.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&self.every_ns.to_le_bytes());
        out.extend_from_slice(&self.base.to_le_bytes());
        out.extend_from_slice(&u32::try_from(self.len).expect("tick count").to_le_bytes());
        if self.len > 0 {
            out.extend_from_slice(&(self.base * self.every_ns).to_le_bytes());
            for _ in 1..self.len {
                put_varint(&mut out, self.every_ns);
            }
        }
        let index = &self.cols.index;
        put_table(&mut out, index, &self.cols.raw, |s| {
            (s.kind, s.start, &s.vals)
        });
        out.extend_from_slice(
            &u32::try_from(self.cols.tiers.len())
                .expect("tier count")
                .to_le_bytes(),
        );
        for t in &self.cols.tiers {
            out.extend_from_slice(&t.bucket_ns.to_le_bytes());
            out.push(agg_tag(t.agg));
            out.extend_from_slice(&t.base.to_le_bytes());
            out.extend_from_slice(&u32::try_from(t.len).expect("row count").to_le_bytes());
            put_table(&mut out, index, &t.cols, |s| (s.kind, s.start, &s.vals));
        }
        out
    }

    /// Parse a dump produced by [`Timeline::to_bytes`]. Strict: any
    /// truncation, bad tag, off-grid timestamp, tick/series/tier grid
    /// whose last instant overflows `u64` nanoseconds, payload-length
    /// mismatch, or trailing garbage is an error. The parsed timeline
    /// is frozen (query/serialize only).
    pub fn parse(bytes: &[u8]) -> Result<Timeline, String> {
        let mut r = Reader::new(bytes);
        let magic = r.take(4)?;
        if magic != MAGIC {
            return Err(format!("bad magic {magic:02x?}, want {MAGIC:02x?}"));
        }
        let every_ns = r.u64()?;
        let base = r.u64()?;
        let len = u64::from(r.u32()?);
        if len > 0 {
            if every_ns == 0 {
                return Err("tick count > 0 with zero sampling interval".to_owned());
            }
            let first = r.u64()?;
            if base.checked_mul(every_ns) != Some(first) {
                return Err(format!(
                    "first timestamp {first}ns off the nominal grid (tick {base} x {every_ns}ns)"
                ));
            }
            for _ in 1..len {
                let d = r.varint()?;
                if d != every_ns {
                    return Err(format!(
                        "timestamp delta {d}ns != sampling interval {every_ns}ns"
                    ));
                }
            }
        }
        grid_fits("tick column", base, len, every_ns)?;
        let mut cols = Columns::default();
        for (name, kind, start, vals) in take_table(&mut r, every_ns)? {
            let col = cols.id(&name);
            cols.raw[col] = Some(Series { kind, start, vals });
        }
        let n_tiers = r.u32()?;
        let n_tiers = r.count(n_tiers.into(), MIN_TIER_BYTES)?;
        for tier in 0..n_tiers {
            let bucket_ns = r.u64()?;
            if bucket_ns == 0 {
                return Err("tier bucket must be > 0".to_owned());
            }
            let agg = agg_from_tag(r.u8()?)?;
            let t_base = r.u64()?;
            let t_len = u64::from(r.u32()?);
            grid_fits("tier rows", t_base, t_len, bucket_ns)?;
            cols.tiers.push(Tier {
                bucket_ns,
                agg,
                capacity: usize::MAX,
                base: t_base,
                len: t_len,
                cur: None,
                cols: vec![None; cols.raw.len()],
            });
            for (name, kind, start, vals) in take_table(&mut r, bucket_ns)? {
                let col = cols.id(&name);
                cols.tiers[tier].cols[col] = Some(TierSeries {
                    kind,
                    start,
                    vals,
                    acc: None,
                });
            }
        }
        r.end("the last tier")?;
        Ok(Timeline {
            every_ns,
            capacity: usize::MAX,
            base,
            len,
            cols,
            frozen: true,
            ..Timeline::default()
        })
    }
}

fn agg_tag(agg: Agg) -> u8 {
    match agg {
        Agg::Mean => 0,
        Agg::Max => 1,
        Agg::Min => 2,
        Agg::Sum => 3,
        Agg::Count => 4,
        Agg::Last => 5,
    }
}

fn agg_from_tag(tag: u8) -> Result<Agg, String> {
    match tag {
        0 => Ok(Agg::Mean),
        1 => Ok(Agg::Max),
        2 => Ok(Agg::Min),
        3 => Ok(Agg::Sum),
        4 => Ok(Agg::Count),
        5 => Ok(Agg::Last),
        t => Err(format!("unknown agg tag {t}")),
    }
}

/// Human label for an aggregation (`wifictl time summary`/`query --agg`).
pub fn agg_label(agg: Agg) -> &'static str {
    match agg {
        Agg::Mean => "mean",
        Agg::Max => "max",
        Agg::Min => "min",
        Agg::Sum => "sum",
        Agg::Count => "count",
        Agg::Last => "last",
    }
}

/// Parse an aggregation name (as printed by [`agg_label`]).
pub fn agg_from_name(name: &str) -> Option<Agg> {
    match name {
        "mean" => Some(Agg::Mean),
        "max" => Some(Agg::Max),
        "min" => Some(Agg::Min),
        "sum" => Some(Agg::Sum),
        "count" => Some(Agg::Count),
        "last" => Some(Agg::Last),
        _ => None,
    }
}

// ---- codec --------------------------------------------------------

/// Smallest encoded series: empty name, kind, start, value count,
/// payload length.
const MIN_SERIES_BYTES: usize = 2 + 1 + 8 + 4 + 4;
/// Smallest encoded tier: bucket, agg tag, evicted rows, row count,
/// series count.
const MIN_TIER_BYTES: usize = 8 + 1 + 8 + 4 + 4;

fn i64_bits(v: i64) -> u64 {
    u64::from_le_bytes(v.to_le_bytes())
}

fn bits_i64(bits: u64) -> i64 {
    i64::from_le_bytes(bits.to_le_bytes())
}

/// One table of the dump: a `u32` series count, then the table's
/// series in name order. `cols` is indexed by column id; columns with
/// no series in this table are skipped.
fn put_table<T>(
    out: &mut Vec<u8>,
    index: &BTreeMap<String, usize>,
    cols: &[Option<T>],
    parts: impl Fn(&T) -> (SeriesKind, u64, &VecDeque<u64>),
) {
    let present = cols.iter().flatten().count();
    out.extend_from_slice(&u32::try_from(present).expect("series count").to_le_bytes());
    for (name, &col) in index {
        if let Some(s) = &cols[col] {
            let (kind, start, vals) = parts(s);
            put_series(out, name, kind, start, vals);
        }
    }
}

/// One series: header, then its values delta-encoded straight into
/// `out`, the payload length patched in once it is known.
fn put_series(out: &mut Vec<u8>, name: &str, kind: SeriesKind, start: u64, vals: &VecDeque<u64>) {
    put_name(out, name);
    out.push(kind.tag());
    out.extend_from_slice(&start.to_le_bytes());
    out.extend_from_slice(
        &u32::try_from(vals.len())
            .expect("value count")
            .to_le_bytes(),
    );
    let len_at = out.len();
    out.extend_from_slice(&[0; 4]);
    let mut prev: Option<u64> = None;
    for &bits in vals {
        match (kind, prev) {
            (SeriesKind::Counter, None) => put_varint(out, bits),
            (SeriesKind::Counter, Some(p)) => put_varint(out, bits.wrapping_sub(p)),
            (SeriesKind::Gauge, None) => put_varint(out, zigzag(bits_i64(bits))),
            (SeriesKind::Gauge, Some(p)) => {
                put_varint(out, zigzag(bits_i64(bits).wrapping_sub(bits_i64(p))));
            }
            (SeriesKind::F64, None) => out.extend_from_slice(&bits.to_le_bytes()),
            (SeriesKind::F64, Some(p)) => put_varint(out, bits ^ p),
        }
        prev = Some(bits);
    }
    let payload = u32::try_from(out.len() - len_at - 4).expect("payload length");
    out[len_at..len_at + 4].copy_from_slice(&payload.to_le_bytes());
}

/// `count` grid points from index `first`, `step_ns` apart, must end on
/// an instant `u64` nanoseconds can hold: the stamp accessors
/// (`last_stamp`, `range_bits`, `TierView::series`) multiply these out
/// unchecked, so a dump that fails here is rejected at parse instead of
/// overflowing on the first query.
fn grid_fits(what: &str, first: u64, count: u64, step_ns: u64) -> Result<(), String> {
    if count == 0 {
        return Ok(());
    }
    first
        .checked_add(count)
        .and_then(|end| (end - 1).checked_mul(step_ns))
        .map(drop)
        .ok_or_else(|| {
            format!("{what}: {count} points from index {first} at {step_ns}ns overflow the clock")
        })
}

/// One decoded series: name, kind, start index, values.
type TakenSeries = (String, SeriesKind, u64, VecDeque<u64>);

/// A `u32` series count, then that many series in strictly ascending
/// name order, each on the `step_ns` grid (see [`grid_fits`]).
fn take_table(r: &mut Reader<'_>, step_ns: u64) -> Result<Vec<TakenSeries>, String> {
    let n = r.u32()?;
    let n = r.count(n.into(), MIN_SERIES_BYTES)?;
    let mut table: Vec<TakenSeries> = Vec::with_capacity(n);
    for _ in 0..n {
        let taken = take_series(r)?;
        let (name, _, start, vals) = &taken;
        grid_fits(name, *start, vals.len() as u64, step_ns)?;
        if table.last().is_some_and(|(prev, ..)| name <= prev) {
            return Err(format!("series {name} out of order"));
        }
        table.push(taken);
    }
    Ok(table)
}

fn take_series(r: &mut Reader<'_>) -> Result<TakenSeries, String> {
    let name = r.name("series")?;
    let kind = SeriesKind::from_tag(r.u8()?)?;
    let start = r.u64()?;
    let count = r.u32()?;
    let payload_len = r.u32()? as usize;
    let mut p = Reader::new(
        r.take(payload_len)
            .map_err(|_| format!("truncated payload for series {name}"))?,
    );
    // Every encoded value takes at least one payload byte.
    let count = p.count(count.into(), 1)?;
    let mut vals = VecDeque::with_capacity(count);
    let mut prev: Option<u64> = None;
    for _ in 0..count {
        let bits = match (kind, prev) {
            (SeriesKind::Counter, None) => p.varint()?,
            (SeriesKind::Counter, Some(prev)) => prev.wrapping_add(p.varint()?),
            (SeriesKind::Gauge, None) => i64_bits(unzigzag(p.varint()?)),
            (SeriesKind::Gauge, Some(prev)) => {
                i64_bits(bits_i64(prev).wrapping_add(unzigzag(p.varint()?)))
            }
            (SeriesKind::F64, None) => p.u64()?,
            (SeriesKind::F64, Some(prev)) => prev ^ p.varint()?,
        };
        vals.push_back(bits);
        prev = Some(bits);
    }
    if p.remaining() != 0 {
        return Err(format!(
            "payload length mismatch for series {name}: {count} values end {} bytes short of the declared {payload_len}",
            p.remaining()
        ));
    }
    Ok((name, kind, start, vals))
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn cfg(every_ms: u64) -> TimelineConfig {
        TimelineConfig::sampling(SimDuration::from_millis(every_ms))
    }

    fn tick(i: u64, every_ms: u64) -> SimTime {
        SimTime::from_millis(i * every_ms)
    }

    /// Build a timeline over `n` ticks with one counter, one gauge and
    /// one staged f64 following simple deterministic trajectories.
    fn build(n: u64) -> Timeline {
        let mut reg = Registry::new();
        let c = reg.counter("mac.frames");
        let g = reg.gauge("tcp.backlog");
        let mut tl = Timeline::new(&cfg(100));
        for i in 0..n {
            reg.add(c, 3 + i % 5);
            reg.gauge_set(g, 10 - i64::try_from(i % 21).expect("fits"));
            tl.set_f64("tcp.flow0.cwnd_segments", 10.0 + i as f64 * 0.25);
            tl.sample(tick(i, 100), &reg);
        }
        tl
    }

    #[test]
    fn sample_records_all_kinds() {
        let tl = build(10);
        assert_eq!(tl.ticks(), 10);
        assert_eq!(tl.dropped(), 0);
        assert_eq!(tl.kind("mac.frames"), Some(SeriesKind::Counter));
        assert_eq!(tl.kind("tcp.backlog"), Some(SeriesKind::Gauge));
        assert_eq!(tl.kind("tcp.flow0.cwnd_segments"), Some(SeriesKind::F64));
        let r = tl.range("mac.frames", SimTime::ZERO, SimTime::MAX);
        assert_eq!(r.len(), 10);
        assert_eq!(r[0], (SimTime::ZERO, 3.0));
        assert_eq!(r[1].0, SimTime::from_millis(100));
        let w = tl.range("tcp.flow0.cwnd_segments", SimTime::ZERO, SimTime::MAX);
        assert_eq!(w[4].1, 11.0);
    }

    #[test]
    fn roundtrip_is_byte_identical() {
        let mut tl = build(37);
        tl.seal();
        let bytes = tl.to_bytes();
        let parsed = Timeline::parse(&bytes).expect("parse");
        assert_eq!(parsed.to_bytes(), bytes);
        assert_eq!(parsed.ticks(), tl.ticks());
        assert_eq!(
            parsed.range("tcp.backlog", SimTime::ZERO, SimTime::MAX),
            tl.range("tcp.backlog", SimTime::ZERO, SimTime::MAX)
        );
        // Tier rows survive the round-trip too.
        let t0: Vec<_> = tl.tiers().next().expect("tier").series("mac.frames");
        let p0: Vec<_> = parsed.tiers().next().expect("tier").series("mac.frames");
        assert!(!t0.is_empty());
        assert_eq!(t0, p0);
    }

    #[test]
    fn empty_timeline_roundtrips() {
        let tl = Timeline::new(&cfg(100));
        let bytes = tl.to_bytes();
        let parsed = Timeline::parse(&bytes).expect("parse");
        assert_eq!(parsed.to_bytes(), bytes);
        assert!(parsed.is_empty());
    }

    #[test]
    fn parse_rejects_inflated_counts_without_allocating() {
        let all_ones = |bytes: &[u8], off: usize, was: u32| {
            let mut b = bytes.to_vec();
            assert_eq!(b[off..off + 4], was.to_le_bytes(), "layout moved");
            b[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            b
        };
        // Empty timeline: magic, cadence, base, tick count, then the
        // series count, the tier count and tier 0's header.
        let empty = Timeline::new(&cfg(100)).to_bytes();
        let series_count = 4 + 8 + 8 + 4;
        let tier_count = series_count + 4;
        let tier0_series_count = tier_count + 4 + 8 + 1 + 8 + 4;
        for (off, was) in [(series_count, 0), (tier_count, 2), (tier0_series_count, 0)] {
            assert!(Timeline::parse(&all_ones(&empty, off, was)).is_err());
        }
        // One tick of one counter named "c": the per-series value count.
        let mut reg = Registry::new();
        reg.count("c", 1);
        let mut tl = Timeline::new(&cfg(100));
        tl.sample(SimTime::ZERO, &reg);
        tl.seal();
        let value_count = 4 + 8 + 8 + 4 + 8 + 4 + 2 + 1 + 1 + 8;
        assert!(Timeline::parse(&all_ones(&tl.to_bytes(), value_count, 1)).is_err());
    }

    #[test]
    fn parse_rejects_corruption() {
        let mut tl = build(5);
        tl.seal();
        let bytes = tl.to_bytes();
        assert!(Timeline::parse(&bytes[..bytes.len() - 1])
            .unwrap_err()
            .contains("truncated"));
        let mut garbage = bytes.clone();
        garbage.push(0);
        assert!(Timeline::parse(&garbage)
            .unwrap_err()
            .contains("trailing garbage"));
        let mut bad = bytes;
        bad[0] = b'X';
        assert!(Timeline::parse(&bad).unwrap_err().contains("bad magic"));
        assert!(Timeline::parse(b"TSL1").unwrap_err().contains("truncated"));
    }

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

    /// The independent oracle for tiers and `downsample`: collect each
    /// bucket's values, then aggregate the collected slice.
    fn naive_buckets(
        samples: &[(SimTime, f64)],
        bucket: SimDuration,
        agg: Agg,
    ) -> Vec<(SimTime, f64)> {
        // Keyed by bucket start, in nanoseconds.
        let width = bucket.as_nanos();
        let mut buckets: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        for &(at, v) in samples {
            let start = at.as_nanos() / width * width;
            buckets.entry(start).or_default().push(v);
        }
        let fold = |vals: &[f64]| match agg {
            Agg::Mean => vals.iter().sum::<f64>() / vals.len() as f64,
            Agg::Max => vals.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            Agg::Min => vals.iter().copied().fold(f64::INFINITY, f64::min),
            Agg::Sum => vals.iter().sum(),
            Agg::Count => vals.len() as f64,
            Agg::Last => vals[vals.len() - 1],
        };
        buckets
            .iter()
            .map(|(&start, vals)| (SimTime::from_nanos(start), fold(vals)))
            .collect()
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

    #[test]
    fn absorb_prefixes_and_keeps_sorted_dump() {
        let a = build(10);
        let b = build(7);
        let mut merged = Timeline::default();
        merged.absorb("base", &a);
        merged.absorb("fast", &b);
        assert_eq!(merged.ticks(), 10);
        assert_eq!(
            merged.range("fast.mac.frames", SimTime::ZERO, SimTime::MAX),
            b.range("mac.frames", SimTime::ZERO, SimTime::MAX)
        );
        // Absorb order must not matter for the serialized bytes of the
        // same content set.
        let mut flipped = Timeline::default();
        flipped.absorb("fast", &b);
        flipped.absorb("base", &a);
        assert_eq!(merged.to_bytes(), flipped.to_bytes());
        let parsed = Timeline::parse(&merged.to_bytes()).expect("parse");
        assert_eq!(parsed.to_bytes(), merged.to_bytes());
    }

    #[test]
    #[should_panic(expected = "off the nominal grid")]
    fn off_grid_sample_panics() {
        let reg = Registry::new();
        let mut tl = Timeline::new(&cfg(100));
        tl.sample(SimTime::from_millis(50), &reg);
    }

    /// Candidate paths for the equivalence proptest: counters and
    /// gauges under prefixes a `select` can split, two of them sharing
    /// a prefix with each other (`mac.ap1` / `mac.ap10`) so sorted
    /// position is not just first-letter order.
    const COUNTERS: [&str; 8] = [
        "fleet.epochs",
        "mac.ap0.frames",
        "mac.ap1.frames",
        "mac.ap10.frames",
        "mac.collisions",
        "qoe.client0.sent",
        "tcp.retransmits",
        "trace.dropped",
    ];
    const GAUGES: [&str; 6] = [
        "health.air.busy_ns",
        "health.ap0.backlog",
        "mac.ap0.inflight",
        "qoe.client0.score",
        "sim.queue.depth",
        "tcp.backlog",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        // The column-table sampler against the map-probing one it
        // replaced (`reference::Timeline`), on the dump bytes after
        // every tick: paths appear mid-run (late registration) and, when
        // each tick reads a fresh registry, drop out for good; the
        // registry lists its paths in whatever order they were
        // registered that tick; `select` may be non-empty; the raw ring
        // and both tiers are small enough to evict; one f64 signal is
        // staged by handle, one by name, one starts late. Then the
        // sealed dump must survive parse -> to_bytes unchanged.
        fn column_sampler_matches_map_probing_reference(
            births in vec(0u64..14, 14..15),
            deaths in vec(0u64..60, 14..15),
            n_ticks in 1u64..48,
            capacity in 1usize..9,
            tier_caps in vec(1usize..5, 2..3),
            select_mode in 0u8..3,
            fresh in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let every = SimDuration::from_millis(10);
            let config = TimelineConfig {
                every,
                select: match select_mode {
                    0 => Vec::new(),
                    1 => vec!["mac.".to_owned()],
                    _ => vec!["tcp.".to_owned(), "mac.ap1".to_owned(), "nothing".to_owned()],
                },
                capacity,
                tiers: vec![
                    TierConfig { bucket: every * 3, agg: Agg::Mean, capacity: tier_caps[0] },
                    TierConfig { bucket: every * 7, agg: Agg::Max, capacity: tier_caps[1] },
                ],
            };
            let mut new = Timeline::new(&config);
            let mut old = reference::Timeline::new(&config);
            let by_handle = new.stage_f64("tcp.flow0.cwnd_segments");
            let mut persistent = Registry::new();
            let mut rng = sim::Rng::new(seed);
            for i in 0..n_ticks {
                // Alive this tick: born by now and, on a fresh registry,
                // not yet dead (a persistent one cannot unregister).
                let alive = |k: usize| births[k] <= i && (!fresh || i < births[k] + deaths[k]);
                let mut reg = Registry::new();
                let reg = if fresh { &mut reg } else { &mut persistent };
                let mut order: Vec<usize> = (0..COUNTERS.len() + GAUGES.len()).collect();
                if i % 2 == 1 {
                    order.reverse();
                }
                for k in order.into_iter().filter(|&k| alive(k)) {
                    if let Some(path) = COUNTERS.get(k) {
                        let c = reg.counter(path);
                        reg.add(c, rng.next_u64() >> 40);
                    } else {
                        let g = reg.gauge(GAUGES[k - COUNTERS.len()]);
                        let v = i64::try_from(rng.next_u64() >> 44).expect("fits");
                        reg.gauge_set(g, v - (1 << 19));
                    }
                }
                let cwnd = 10.0 + (rng.next_u64() % 64) as f64 * 0.25;
                new.set(by_handle, cwnd);
                old.set_f64("tcp.flow0.cwnd_segments", cwnd);
                new.set_f64("fleet.load", -cwnd);
                old.set_f64("fleet.load", -cwnd);
                if i >= 5 {
                    new.set_f64("late.signal", cwnd * 1e-3);
                    old.set_f64("late.signal", cwnd * 1e-3);
                }
                let at = SimTime::ZERO + every * i;
                new.sample(at, reg);
                old.sample(at, reg);
                prop_assert_eq!(new.to_bytes(), old.to_bytes(), "after tick {}", i);
            }
            // The walks are what keeps the name index off the steady
            // path: each met path once, in path order.
            for walk in [&new.counter_walk, &new.gauge_walk] {
                prop_assert!(walk.windows(2).all(|w| w[0].path < w[1].path));
            }
            new.seal();
            old.seal();
            let bytes = new.to_bytes();
            prop_assert_eq!(&bytes, &old.to_bytes(), "sealed");
            let parsed = Timeline::parse(&bytes).expect("own dump parses");
            prop_assert_eq!(parsed.to_bytes(), bytes, "parse -> to_bytes");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        fn counter_series_roundtrip(deltas in vec(0u64..1_000_000, 1..200)) {
            let mut reg = Registry::new();
            let c = reg.counter("c");
            let mut tl = Timeline::new(&cfg(10));
            let mut raw = Vec::new();
            let mut total = 0u64;
            for (i, d) in deltas.iter().enumerate() {
                total += d;
                reg.add(c, *d);
                tl.sample(tick(i as u64, 10), &reg);
                raw.push(total as f64);
            }
            tl.seal();
            let parsed = Timeline::parse(&tl.to_bytes()).expect("parse");
            let got: Vec<f64> = parsed
                .range("c", SimTime::ZERO, SimTime::MAX)
                .iter()
                .map(|&(_, v)| v)
                .collect();
            prop_assert_eq!(got, raw);
            prop_assert_eq!(parsed.to_bytes(), tl.to_bytes());
        }

        fn gauge_and_f64_series_roundtrip(vals in vec(-1_000_000i64..1_000_000, 1..200)) {
            let mut reg = Registry::new();
            let g = reg.gauge("g");
            let mut tl = Timeline::new(&cfg(10));
            let mut raw_g = Vec::new();
            let mut raw_f = Vec::new();
            for (i, v) in vals.iter().enumerate() {
                reg.gauge_set(g, *v);
                let f = *v as f64 * 0.125;
                tl.set_f64("f", f);
                tl.sample(tick(i as u64, 10), &reg);
                raw_g.push(*v as f64);
                raw_f.push(f);
            }
            tl.seal();
            let parsed = Timeline::parse(&tl.to_bytes()).expect("parse");
            let got_g: Vec<f64> = parsed
                .range("g", SimTime::ZERO, SimTime::MAX)
                .iter()
                .map(|&(_, v)| v)
                .collect();
            let got_f: Vec<f64> = parsed
                .range("f", SimTime::ZERO, SimTime::MAX)
                .iter()
                .map(|&(_, v)| v)
                .collect();
            prop_assert_eq!(got_g, raw_g);
            prop_assert_eq!(got_f, raw_f);
            prop_assert_eq!(parsed.to_bytes(), tl.to_bytes());
        }
    }
}
