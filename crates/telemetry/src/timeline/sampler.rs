//! The sampler: one tick reads the registry's counters and gauges (a
//! merge join per section against the paths met so far) and the staged
//! f64 signals into the store. It only ever *reads* the registry.

use super::store::Store;
use super::{SeriesKind, Timeline};
use crate::metrics::Registry;
use sim::SimTime;
use std::cmp::Ordering;

/// One path the sampler has met in a registry section, in path order,
/// and its column.
#[derive(Debug, Clone, PartialEq)]
pub(super) struct Walk {
    pub path: String,
    col: usize,
}

/// Snapshot one path-sorted registry section (all counters, or all
/// gauges) at tick `idx`: a merge join of `section` against `walk`,
/// the same section's paths as the sampler last saw them. On the steady
/// path each series costs one string compare and indexed pushes; a path
/// not met before is resolved once through the name index and spliced
/// into `walk`; a path the registry no longer lists is stepped over.
/// Nothing identifies the registry but the paths it yields, so a fresh
/// merged registry per tick (the fleet's) walks the same way.
fn sample_section<'a>(
    store: &mut Store,
    walk: &mut Vec<Walk>,
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
                    let (path, col) = (path.to_owned(), store.open(path, kind, idx));
                    walk.insert(k, Walk { path, col });
                    break col;
                }
            }
        };
        k += 1;
        store.record(col, path, kind, bits, idx);
    }
}

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
        let [counters, gauges] = &mut self.walks;
        sample_section(store, counters, SeriesKind::Counter, idx, reg.counters());
        let levels = reg.gauges().map(|(path, v)| (path, v.cast_unsigned()));
        sample_section(store, gauges, SeriesKind::Gauge, idx, levels);
        for s in &mut self.staged {
            let Some(bits) = s.bits else { continue };
            let col = *s
                .col
                .get_or_insert_with(|| store.open(&s.path, SeriesKind::F64, idx));
            store.record(col, &s.path, SeriesKind::F64, bits, idx);
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
    use super::super::tests::cfg;
    use super::super::{reference, Agg, TierConfig, TimelineConfig};
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use sim::SimDuration;

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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        // The column-table sampler against the map-probing one it
        // replaced (`reference::Timeline`), on the dump bytes after
        // every tick: paths appear mid-run (late registration) and, when
        // each tick reads a fresh registry, drop out for good; the
        // registry lists its paths in whatever order they were
        // registered that tick; the raw ring
        // and both tiers are small enough to evict; one f64 signal is
        // staged by handle, one by name, one starts late. Then the
        // sealed dump must survive parse -> to_bytes unchanged.
        fn column_sampler_matches_map_probing_reference(
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
            for walk in &new.walks {
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
}
