//! Deterministic time-series telemetry: the timeline sampler and store.
//!
//! The paper's method is measurement *over time* — every AP pushes
//! periodic counter samples into LittleTable (§2.2) and the cloud
//! queries series, not snapshots. A [`Timeline`] samples every counter
//! and gauge of a [`Registry`](crate::metrics::Registry), plus f64
//! signals their owners stage, on a fixed sim-time grid; keeps a
//! bounded ring of raw ticks and coarse downsampled tiers
//! (LittleTable-style [`Agg`] buckets); and serializes to the
//! byte-stable `TSL1` dump. Each decision has one file (DESIGN.md §6
//! "Timeline" has the same map with its tests, and the `TSL1` layout):
//!
//! * this file — the config ([`TimelineConfig::validate`] refuses what
//!   [`Timeline::new`] would panic on), [`SeriesKind`] and [`Agg`] with
//!   their one tag / label row per variant (a `codec` tag table);
//! * `store` — one `Table` (ring header + series by column id) under
//!   the raw ring and every tier, eviction, tier accumulators, `absorb`;
//! * `sampler` — `sample` / `seal`, the plan of each registry slot's
//!   column, and the staged f64 signals;
//! * `wire` — the only code that knows `TSL1`: writer and strict parser;
//! * `query` — `range` / `last` / `downsample` and [`TableView`], the
//!   one read accessor over the raw ring and the tiers.
//!
//! The sampler keeps three rules, stated in full in DESIGN.md: tick `i`
//! is at sim time `i * every` exactly ([`Timeline::sample`] panics on
//! drift), so series carry no timestamps; the registry is read-only, so
//! every other artifact is byte-identical with a timeline on or off;
//! and the name index is off the steady path — while the registry's
//! layout stamp holds, a tick costs indexed pushes per series.
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

mod query;
mod sampler;
mod store;
mod wire;

pub use query::TableView;
pub use sampler::StagedId;

use crate::codec::{row_of, Row};
use sim::SimDuration;

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

const KINDS: &[Row<SeriesKind>] = &[
    (SeriesKind::Counter, 0, "counter"),
    (SeriesKind::Gauge, 1, "gauge"),
    (SeriesKind::F64, 2, "f64"),
];

const AGGS: &[Row<Agg>] = &[
    (Agg::Mean, 0, "mean"),
    (Agg::Max, 1, "max"),
    (Agg::Min, 2, "min"),
    (Agg::Sum, 3, "sum"),
    (Agg::Count, 4, "count"),
    (Agg::Last, 5, "last"),
];

impl SeriesKind {
    fn tag(self) -> u8 {
        row_of(KINDS, self).1
    }

    /// Short human label (`wifictl time summary`).
    pub fn label(self) -> &'static str {
        row_of(KINDS, self).2
    }
}

impl Agg {
    fn tag(self) -> u8 {
        row_of(AGGS, self).1
    }

    /// Human label (`wifictl time summary` / `query --agg`).
    pub fn label(self) -> &'static str {
        row_of(AGGS, self).2
    }

    /// Parse an aggregation name (as printed by [`Agg::label`]).
    pub fn from_name(name: &str) -> Option<Agg> {
        AGGS.iter().find(|r| r.2 == name).map(|r| r.0)
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
    /// Retained raw ticks before ring eviction.
    pub capacity: usize,
    /// Coarse downsampled tiers kept alongside the raw ring.
    pub tiers: Vec<TierConfig>,
}

impl TimelineConfig {
    /// The default retention shape: 4096 raw ticks plus a 10× mean
    /// tier and a 100× max tier.
    pub fn sampling(every: SimDuration) -> TimelineConfig {
        let tier = |factor, agg| TierConfig {
            bucket: every * factor,
            agg,
            capacity: 4096,
        };
        TimelineConfig {
            every,
            capacity: 4096,
            tiers: vec![tier(10, Agg::Mean), tier(100, Agg::Max)],
        }
    }

    /// The first `(field, nanoseconds, min, max)` out of range, if any:
    /// `every` is at least 1 ns and no tier's bucket is narrower than
    /// `every`. [`Timeline::new`] panics on the same check; hosts call
    /// this from their own `validate` to refuse the config first.
    pub fn validate(&self) -> Result<(), (&'static str, f64, f64, f64)> {
        let floor = ("timeline.every", self.every, SimDuration::from_nanos(1));
        let buckets = self.tiers.iter().map(|t| t.bucket);
        let mut rows = std::iter::once(floor)
            .chain(buckets.map(|b| ("timeline.tiers[i].bucket", b, self.every)));
        let ns = |d: SimDuration| d.as_nanos() as f64;
        let bad = rows.find(|&(_, value, min)| value < min);
        bad.map_or(Ok(()), |(field, v, min)| {
            Err((field, ns(v), ns(min), f64::INFINITY))
        })
    }
}

/// The timeline sampler + store (see module docs).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Timeline {
    store: store::Store,
    /// The layout stamp of the registry `plan` was built for.
    layout: Option<(u64, usize, usize)>,
    /// The column of each of its counter slots, then of each gauge slot
    /// (`sampler`).
    plan: [Vec<usize>; 2],
    /// Explicitly staged f64 signals, re-sampled every tick.
    staged: Vec<sampler::Staged>,
    /// Set by `absorb`/`parse`: the tick grid is no longer this
    /// sampler's own, so further `sample` calls are a bug.
    frozen: bool,
}

impl Timeline {
    /// Panics on a config [`TimelineConfig::validate`] refuses.
    pub fn new(cfg: &TimelineConfig) -> Timeline {
        if let Err((field, ns, min, _)) = cfg.validate() {
            panic!("{field} = {ns} ns is under the {min} ns minimum");
        }
        Timeline {
            store: store::Store::new(cfg),
            ..Timeline::default()
        }
    }
}

#[cfg(test)]
mod tests;
