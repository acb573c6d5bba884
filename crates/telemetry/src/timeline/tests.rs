//! Fixtures the module's unit tests share, and the tests that span
//! files: sampling into queries, `absorb` into `to_bytes` / `parse`.

use super::*;
use crate::metrics::Registry;
use sim::SimTime;
use std::collections::BTreeMap;

pub(super) fn cfg(every_ms: u64) -> TimelineConfig {
    TimelineConfig::sampling(SimDuration::from_millis(every_ms))
}

pub(super) fn tick(i: u64, every_ms: u64) -> SimTime {
    SimTime::from_millis(i * every_ms)
}

/// Build a timeline over `n` ticks with one counter, one gauge and
/// one staged f64 following simple deterministic trajectories.
pub(super) fn build(n: u64) -> Timeline {
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

/// The independent oracle for tiers and `downsample`: collect each
/// bucket's values, then aggregate the collected slice.
pub(super) fn naive_buckets(
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
