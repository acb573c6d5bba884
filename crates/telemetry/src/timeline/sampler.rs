//! The sampler: one tick reads the registry's counters and gauges and
//! the staged f64 signals into the store. It only ever *reads* the
//! registry, and by index alone while the registry's layout stamp is
//! the one its plan was built for; a fresh registry per tick (the
//! fleet's) plans anew on every tick.

use super::{SeriesKind, Timeline};
use crate::metrics::Registry;
use sim::SimTime;

/// One explicitly staged f64 signal (see [`Timeline::stage_f64`]).
#[derive(Debug, Clone, PartialEq)]
pub(super) struct Staged {
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

impl Timeline {
    /// Register an f64 signal and return its handle; a path staged
    /// before gets the handle it got then. The signal joins the ticks
    /// once a value has been [`set`](Timeline::set). Call once at
    /// setup and keep the handle: this resolves the name by scanning
    /// the staged signals.
    pub fn stage_f64(&mut self, path: &str) -> StagedId {
        let known = self.staged.iter().position(|s| s.path == path);
        let slot = known.unwrap_or_else(|| {
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

    /// Record the next tick at its nominal instant: snapshot every
    /// counter and gauge plus all staged f64 signals. Reads the
    /// registry only — never writes it.
    pub fn sample(&mut self, at: SimTime, reg: &Registry) {
        assert!(!self.frozen, "sample() on an absorbed/parsed timeline");
        let store = &mut self.store;
        let every_ns = store.raw.step_ns;
        assert!(every_ns > 0, "sample() on a default-constructed timeline");
        let idx = store.raw.base + store.raw.len;
        let stamp_ns = at.as_nanos();
        assert_eq!(
            stamp_ns,
            idx * every_ns,
            "timeline tick off the nominal grid"
        );
        for t in &mut store.tiers {
            t.roll(stamp_ns);
        }
        let (ids, counters, gauges) = reg.slots();
        if self.layout != Some(reg.layout()) {
            // Not planned for: resolve each path through the name index
            // in path order (counters, then gauges), opening a column for
            // one not met before and checking its kind, once.
            self.layout = Some(reg.layout());
            let kinds = [SeriesKind::Counter, SeriesKind::Gauge];
            for ((cols, ids), kind) in self.plan.iter_mut().zip(ids).zip(kinds) {
                cols.resize(ids.len(), 0);
                for (path, &slot) in ids {
                    cols[slot as usize] = store.open(path, kind, idx);
                }
            }
        }
        let [counter_cols, gauge_cols] = &self.plan;
        for (&col, &v) in counter_cols.iter().zip(counters) {
            store.record(col, SeriesKind::Counter, v, idx);
        }
        for (&col, &v) in gauge_cols.iter().zip(gauges) {
            store.record(col, SeriesKind::Gauge, v.cast_unsigned(), idx);
        }
        for s in &mut self.staged {
            let Some(bits) = s.bits else { continue };
            let col = *s
                .col
                .get_or_insert_with(|| store.open(&s.path, SeriesKind::F64, idx));
            store.record(col, SeriesKind::F64, bits, idx);
        }
        store.raw.commit(idx);
    }

    /// Flush every tier's in-progress bucket. Call once after the last
    /// `sample` and before `to_bytes` — dumps carry completed buckets
    /// only, so an unsealed trailing bucket would silently vanish.
    pub fn seal(&mut self) {
        self.store.tiers.iter_mut().for_each(|t| t.flush());
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{cfg, naive_buckets};
    use super::super::{Agg, TierConfig, TimelineConfig};
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use sim::SimDuration;
    use std::collections::{BTreeMap, BTreeSet};
    use std::ops::Range;

    #[test]
    #[should_panic(expected = "off the nominal grid")]
    fn off_grid_sample_panics() {
        let reg = Registry::new();
        let mut tl = Timeline::new(&cfg(100));
        tl.sample(SimTime::from_millis(50), &reg);
    }

    /// Candidate paths for the equivalence proptest: counters and
    /// gauges, two of them sharing a prefix with each other (`mac.ap1`
    /// / `mac.ap10`) so sorted position is not just first-letter order.
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

    /// One tick of the naive model: every series sampled, with its kind
    /// and value.
    type Snapshot = BTreeMap<String, (SeriesKind, f64)>;

    /// Every counter and gauge of `reg`, as the naive model's tick.
    fn snapshot(reg: &Registry) -> Snapshot {
        let counters = reg
            .counters()
            .map(|(p, v)| (p, (SeriesKind::Counter, v as f64)));
        let gauges = reg
            .gauges()
            .map(|(p, v)| (p, (SeriesKind::Gauge, v as f64)));
        let rows = counters.chain(gauges);
        rows.map(|(p, s)| (p.to_owned(), s)).collect()
    }

    /// `tl` against the naive model of `history`, through the public
    /// read API: the raw ring is the last `capacity` ticks, and a tier
    /// is `naive_buckets` over the whole history, its last `capacity`
    /// completed rows (the bucket in progress completes at `seal`).
    fn check_model(
        tl: &Timeline,
        config: &TimelineConfig,
        history: &[Snapshot],
        sealed: bool,
    ) -> Result<(), TestCaseError> {
        let bits = |rows: Vec<(SimTime, f64)>| -> Vec<(SimTime, u64)> {
            rows.into_iter().map(|(at, v)| (at, v.to_bits())).collect()
        };
        // Of `done` rows, the last `cap`; a row on a `step_ns` grid
        // starts at `row × step_ns`.
        let last = |done: u64, cap: usize| done.saturating_sub(cap as u64)..done;
        let kept = |at: SimTime, step_ns: u64, rows: &Range<u64>| {
            rows.contains(&(at.as_nanos() / step_ns))
        };
        let (n, every) = (history.len() as u64, config.every.as_nanos());
        let ticks = last(n, config.capacity);
        prop_assert_eq!(
            (tl.ticks(), tl.dropped()),
            (ticks.end - ticks.start, ticks.start)
        );
        let tiers = Vec::from_iter(config.tiers.iter().map(|t| {
            let done = (n - 1) * every / t.bucket.as_nanos() + u64::from(sealed);
            (t, last(done, t.capacity))
        }));
        for (view, (_, rows)) in tl.tiers().zip(&tiers) {
            let want = (rows.end - rows.start, rows.start);
            prop_assert_eq!((view.rows(), view.dropped_rows()), want);
        }
        let at = |i: u64| SimTime::from_nanos(i * every);
        let paths = BTreeSet::from_iter(history.iter().flat_map(BTreeMap::keys));
        for path in paths {
            let samples = Vec::from_iter(
                (0..)
                    .zip(history)
                    .filter_map(|(i, s)| Some((at(i), *s.get(path)?))),
            );
            prop_assert_eq!(tl.kind(path), samples.first().map(|(_, (kind, _))| *kind));
            let values = Vec::from_iter(samples.iter().map(|&(at, (_, v))| (at, v)));
            let raw = Vec::from_iter(
                values
                    .iter()
                    .copied()
                    .filter(|&(at, _)| kept(at, every, &ticks)),
            );
            prop_assert_eq!(tl.series_len(path), raw.len(), "{}", path);
            let range = tl.range(path, SimTime::ZERO, SimTime::MAX);
            prop_assert_eq!(bits(range), bits(raw), "{}", path);
            for (view, (t, rows)) in tl.tiers().zip(&tiers) {
                let buckets = naive_buckets(&values, t.bucket, t.agg).into_iter();
                let step_ns = t.bucket.as_nanos();
                let want = Vec::from_iter(buckets.filter(|&(at, _)| kept(at, step_ns, rows)));
                prop_assert_eq!(
                    bits(view.series(path)),
                    bits(want),
                    "{} in the {:?} tier",
                    path,
                    t.agg
                );
            }
        }
        Ok(())
    }

    /// Registries swapped under one timeline with the same counts: a
    /// persistent one that registers a counter and a gauge after
    /// several ticks; then another holding the same paths registered
    /// in reverse order (equal counts, every handle different); the
    /// first again; then a clone of it and the source each registering
    /// one more counter of their own (equal counts again, one path
    /// apart). Each tick is checked against the naive model.
    #[test]
    fn registries_with_equal_counts_match_naive_model() {
        let config = TimelineConfig {
            capacity: 4,
            ..cfg(10)
        };
        let mut tl = Timeline::new(&config);
        let mut history: Vec<Snapshot> = Vec::new();
        let mut sample = |tl: &mut Timeline, i: u64, reg: &mut Registry| {
            // Distinct values per path and tick, so a value recorded
            // under another path's column cannot pass.
            let counters = Vec::from_iter(reg.counters().map(|(p, _)| p.to_owned()));
            for (k, path) in (0..).zip(&counters) {
                let c = reg.counter(path);
                reg.add(c, 1 + 10 * k + 1_000 * i);
            }
            let gauges = Vec::from_iter(reg.gauges().map(|(p, _)| p.to_owned()));
            for (k, path) in (0..).zip(&gauges) {
                let g = reg.gauge(path);
                reg.gauge_set(g, -7 - 10 * k - 1_000 * i64::try_from(i).expect("fits"));
            }
            tl.sample(SimTime::from_millis(10 * i), reg);
            history.push(snapshot(reg));
            check_model(tl, &config, &history, false)
        };
        let mut first = Registry::new();
        first.counter("mac.frames");
        first.gauge("tcp.backlog");
        for i in 0..3 {
            sample(&mut tl, i, &mut first).expect("early ticks");
        }
        first.counter("qoe.client0.sent");
        first.gauge("health.ap0.backlog");
        sample(&mut tl, 3, &mut first).expect("after late registration");
        let mut other = Registry::new();
        for path in ["qoe.client0.sent", "mac.frames"] {
            other.counter(path);
        }
        for path in ["tcp.backlog", "health.ap0.backlog"] {
            other.gauge(path);
        }
        sample(&mut tl, 4, &mut other).expect("reversed registry");
        sample(&mut tl, 5, &mut first).expect("first registry again");
        let mut clone = first.clone();
        first.counter("z.source.only");
        sample(&mut tl, 6, &mut first).expect("source after the clone");
        clone.counter("b.clone.only");
        sample(&mut tl, 7, &mut clone).expect("clone with equal counts");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        // The sampler against the naive model after every tick, live and
        // parsed back from its dump: paths appear mid-run (late
        // registration) and, when each tick reads a fresh registry, drop
        // out for good; the registry lists its paths in whatever order
        // they were registered that tick; the raw ring and both tiers are
        // small enough to evict; one f64 signal is staged by handle, one
        // by name, one starts late. Then the sealed timeline, and its
        // dump surviving parse -> to_bytes unchanged. The dump's bytes
        // themselves are pinned by the timeline golden lines.
        fn column_sampler_matches_naive_model(
            births in vec(0u64..14, 14..15),
            deaths in vec(0u64..60, 14..15),
            n_ticks in 1u64..48,
            capacity in 1usize..9,
            tier_caps in vec(1usize..5, 2..3),
            fresh in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let every = SimDuration::from_millis(10);
            let config = TimelineConfig {
                every,
                capacity,
                tiers: vec![
                    TierConfig { bucket: every * 3, agg: Agg::Mean, capacity: tier_caps[0] },
                    TierConfig { bucket: every * 7, agg: Agg::Max, capacity: tier_caps[1] },
                ],
            };
            let mut tl = Timeline::new(&config);
            let by_handle = tl.stage_f64("tcp.flow0.cwnd_segments");
            let mut history: Vec<Snapshot> = Vec::new();
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
                tl.set(by_handle, cwnd);
                tl.set_f64("fleet.load", -cwnd);
                let mut staged = vec![("tcp.flow0.cwnd_segments", cwnd), ("fleet.load", -cwnd)];
                if i >= 5 {
                    tl.set_f64("late.signal", cwnd * 1e-3);
                    staged.push(("late.signal", cwnd * 1e-3));
                }
                tl.sample(SimTime::ZERO + every * i, reg);
                let signals = staged.into_iter().map(|(p, v)| (p.to_owned(), (SeriesKind::F64, v)));
                history.push(snapshot(reg).into_iter().chain(signals).collect());
                check_model(&tl, &config, &history, false)?;
                let parsed = Timeline::parse(&tl.to_bytes()).expect("own dump parses");
                check_model(&parsed, &config, &history, false)?;
            }
            tl.seal();
            check_model(&tl, &config, &history, true)?;
            let bytes = tl.to_bytes();
            let parsed = Timeline::parse(&bytes).expect("own dump parses");
            check_model(&parsed, &config, &history, true)?;
            prop_assert_eq!(parsed.to_bytes(), bytes, "parse -> to_bytes");
        }
    }
}
