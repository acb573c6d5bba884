//! The map-probing sampler `telemetry::timeline` shipped before its
//! series moved into a dense column table — `BTreeMap<String, _>` per
//! table, three probes per series per tick, one `Vec` per encoded
//! series — kept verbatim as the reference the equivalence proptest in
//! `timeline::tests` compares the new sampler against, dump byte for
//! dump byte. Test-only; only what that comparison drives is here.

use super::store::{bits_to_f64, Acc, Series};
use super::wire::MAGIC;
use super::{Agg, SeriesKind, TierConfig, TimelineConfig};
use crate::codec::{put_name, put_varint, zigzag};
use crate::metrics::Registry;
use sim::{SimDuration, SimTime};
use std::collections::{BTreeMap, VecDeque};

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
    series: BTreeMap<String, TierSeries>,
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
            series: BTreeMap::new(),
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

    fn feed(&mut self, path: &str, kind: SeriesKind, v: f64) {
        if let Some(s) = self.series.get_mut(path) {
            debug_assert_eq!(s.kind, kind, "tier series kind changed: {path}");
            s.acc.get_or_insert_with(Acc::new).feed(v);
        } else {
            let mut acc = Acc::new();
            acc.feed(v);
            self.series.insert(
                path.to_owned(),
                TierSeries {
                    kind,
                    start: 0,
                    vals: VecDeque::new(),
                    acc: Some(acc),
                },
            );
        }
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
        for (path, s) in self.series.iter_mut() {
            let Some(acc) = s.acc.take() else { continue };
            if s.vals.is_empty() {
                s.start = row;
            } else {
                assert_eq!(
                    s.start + s.vals.len() as u64,
                    row,
                    "tier series {path} skipped a bucket"
                );
            }
            s.vals.push_back(acc.finish(self.agg).to_bits());
        }
        self.len += 1;
        while self.len > self.capacity as u64 {
            let evicted = self.base;
            self.base += 1;
            self.len -= 1;
            for s in self.series.values_mut() {
                if s.start == evicted && !s.vals.is_empty() {
                    s.vals.pop_front();
                    s.start += 1;
                }
            }
        }
    }
}

/// The timeline sampler + store (see module docs).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Timeline {
    every_ns: u64,
    capacity: usize,
    /// Absolute index of the first retained tick (== evicted ticks).
    base: u64,
    /// Retained tick count.
    len: u64,
    /// Explicitly staged f64 signals, re-sampled every tick.
    staged: BTreeMap<String, u64>,
    series: BTreeMap<String, Series>,
    tiers: Vec<Tier>,
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
            base: 0,
            len: 0,
            staged: BTreeMap::new(),
            series: BTreeMap::new(),
            tiers: cfg.tiers.iter().map(Tier::new).collect(),
            frozen: false,
        }
    }

    /// Stage (or refresh) an f64 signal; every subsequent tick samples
    /// the latest staged value. NaN is rejected at the door so tier
    /// aggregates can never be poisoned.
    pub fn set_f64(&mut self, path: &str, v: f64) {
        assert!(!v.is_nan(), "NaN staged for timeline series {path}");
        if let Some(slot) = self.staged.get_mut(path) {
            *slot = v.to_bits();
        } else {
            self.staged.insert(path.to_owned(), v.to_bits());
        }
    }

    /// Record tick `base + len` at its nominal instant: snapshot every
    /// counter and gauge plus all staged f64 signals. Reads
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
        for t in &mut self.tiers {
            t.roll(stamp_ns);
        }
        let series = &mut self.series;
        let tiers = &mut self.tiers;
        let mut record = |path: &str, kind: SeriesKind, bits: u64| {
            if let Some(s) = series.get_mut(path) {
                assert_eq!(s.kind, kind, "series kind changed: {path}");
                assert_eq!(
                    s.start + s.vals.len() as u64,
                    idx,
                    "series {path} skipped a tick"
                );
                s.vals.push_back(bits);
            } else {
                let mut vals = VecDeque::with_capacity(16);
                vals.push_back(bits);
                series.insert(
                    path.to_owned(),
                    Series {
                        kind,
                        start: idx,
                        vals,
                    },
                );
            }
            let v = bits_to_f64(kind, bits);
            for t in tiers.iter_mut() {
                t.feed(path, kind, v);
            }
        };
        for (path, v) in reg.counters() {
            record(path, SeriesKind::Counter, v);
        }
        for (path, v) in reg.gauges() {
            record(path, SeriesKind::Gauge, u64::from_le_bytes(v.to_le_bytes()));
        }
        for (path, &bits) in &self.staged {
            record(path, SeriesKind::F64, bits);
        }
        self.len += 1;
        if self.len > self.capacity as u64 {
            let evicted = self.base;
            self.base += 1;
            self.len -= 1;
            for s in self.series.values_mut() {
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
        for t in &mut self.tiers {
            if let Some(p) = t.cur.take() {
                t.flush_row(p);
            }
        }
    }

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
        out.extend_from_slice(
            &u32::try_from(self.series.len())
                .expect("series count")
                .to_le_bytes(),
        );
        for (name, s) in &self.series {
            put_series(&mut out, name, s.kind, s.start, &s.vals);
        }
        out.extend_from_slice(
            &u32::try_from(self.tiers.len())
                .expect("tier count")
                .to_le_bytes(),
        );
        for t in &self.tiers {
            out.extend_from_slice(&t.bucket_ns.to_le_bytes());
            out.push(t.agg.tag());
            out.extend_from_slice(&t.base.to_le_bytes());
            out.extend_from_slice(&u32::try_from(t.len).expect("row count").to_le_bytes());
            out.extend_from_slice(
                &u32::try_from(t.series.len())
                    .expect("tier series count")
                    .to_le_bytes(),
            );
            for (name, s) in &t.series {
                put_series(&mut out, name, s.kind, s.start, &s.vals);
            }
        }
        out
    }
}

/// Delta-encode one column of raw series bits.
fn encode_vals(kind: SeriesKind, vals: &VecDeque<u64>) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len() * 2 + 8);
    let mut prev: Option<u64> = None;
    for &bits in vals {
        match (kind, prev) {
            (SeriesKind::Counter, None) => put_varint(&mut out, bits),
            (SeriesKind::Counter, Some(p)) => put_varint(&mut out, bits.wrapping_sub(p)),
            (SeriesKind::Gauge, None) => put_varint(&mut out, zigzag(bits.cast_signed())),
            (SeriesKind::Gauge, Some(p)) => {
                put_varint(
                    &mut out,
                    zigzag(bits.cast_signed().wrapping_sub(p.cast_signed())),
                );
            }
            (SeriesKind::F64, None) => out.extend_from_slice(&bits.to_le_bytes()),
            (SeriesKind::F64, Some(p)) => put_varint(&mut out, bits ^ p),
        }
        prev = Some(bits);
    }
    out
}

fn put_series(out: &mut Vec<u8>, name: &str, kind: SeriesKind, start: u64, vals: &VecDeque<u64>) {
    put_name(out, name);
    out.push(kind.tag());
    out.extend_from_slice(&start.to_le_bytes());
    out.extend_from_slice(
        &u32::try_from(vals.len())
            .expect("value count")
            .to_le_bytes(),
    );
    let payload = encode_vals(kind, vals);
    out.extend_from_slice(
        &u32::try_from(payload.len())
            .expect("payload length")
            .to_le_bytes(),
    );
    out.extend_from_slice(&payload);
}
