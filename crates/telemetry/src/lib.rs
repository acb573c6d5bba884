//! # telemetry — measurement plumbing
//!
//! The measurement side of the reproduction: summary statistics,
//! percentiles, empirical CDFs/PDFs, histograms and Jain's fairness
//! index ([`stats`]), the in-memory summaries a collector keeps between
//! polls ([`streaming`]: EWMA, rolling windows), a deterministic metrics
//! registry + sim-time profiler ([`metrics`]) that every subsystem
//! reports its counters through, and a causal flight recorder
//! ([`flight`]) that captures typed, cross-layer packet traces into
//! fixed-capacity rings with deterministic binary dumps, and a
//! rule-driven SLO/anomaly-detection engine ([`health`]) that turns
//! those raw signals into a typed, byte-stable alert stream, and a
//! host-side run profiler ([`runprof`]) — the one audited wall-clock
//! module — measuring the simulator as a program (stage wall time,
//! peak RSS, structure watermarks) without touching any
//! trajectory, and a deterministic time-series sampler ([`timeline`])
//! that snapshots registry counters/gauges every fixed sim-time
//! interval into delta-encoded per-series columns with bounded ring
//! retention, bucketed downsampling and `TSL1` binary dumps (`wifictl
//! time` reads those) — the one time-series store, standing in for the
//! LittleTable backend the paper's data-collection pipeline writes into.
//! Underneath all of them sit the two wire-format modules: [`codec`]
//! (bounds-checked binary reader, varints, FNV-1a) and [`json`] (the one
//! JSON escaper and strict reader).
//!
//! ```
//! use telemetry::stats::{Cdf, jain_fairness};
//!
//! let c = Cdf::new(&[1.0, 2.0, 3.0, 4.0]);
//! assert_eq!(c.quantile(0.5), Some(2.5));
//! assert_eq!(jain_fairness(&[5.0, 5.0]), Some(1.0));
//! ```

pub mod codec;
pub mod flight;
pub mod health;
pub mod json;
pub mod metrics;
pub mod runprof;
pub mod stats;
pub mod streaming;
pub mod timeline;

pub use flight::{
    cause_for, AirKind, CauseId, ComponentTrace, FlightDump, FlightEvent, FlightRecorder, RingId,
    TraceRecord,
};
pub use health::{
    Alert, Detector, HealthEngine, HealthReport, HealthRollup, HealthRules, QoeDegraded,
    QoeDegradedRule, Severity,
};
pub use metrics::{CounterId, GaugeId, HistId, Registry, SpanId, SpanStat};
pub use runprof::{RunProfile, StageStat, WallSpan};
pub use stats::{jain_fairness, median, quantile, summarize, Cdf, Histogram, Summary};
pub use streaming::{Ewma, RollingWindow};
pub use timeline::{Agg, SeriesKind, StagedId, TierConfig, Timeline, TimelineConfig};
