//! `TSL1`, the timeline's byte-stable dump: the writer and the strict
//! parser, and the only code that knows the format. All integers are
//! little-endian; DESIGN.md §6 "Timeline" has the layout table.

use super::store::{Series, Store, Table, Tier};
use super::{SeriesKind, Timeline, AGGS, KINDS};
use crate::codec::{
    from_tag, put_block, put_count, put_name, put_u64, put_varint, unzigzag, zigzag, Reader,
};
use std::collections::{BTreeMap, VecDeque};

/// Dump file magic: "TSL" + format version.
pub(super) const MAGIC: &[u8; 4] = b"TSL1";

/// Smallest encoded series: empty name, kind, start, value count,
/// payload length.
const MIN_SERIES_BYTES: usize = 2 + 1 + 8 + 4 + 4;
/// Smallest encoded tier: bucket, agg tag, evicted rows, row count,
/// series count.
const MIN_TIER_BYTES: usize = 8 + 1 + 8 + 4 + 4;

impl Timeline {
    /// Serialize to the deterministic `TSL1` dump. Only completed
    /// buckets are dumped — call [`Timeline::seal`] first.
    /// `parse(to_bytes())` round-trips byte-identically.
    pub fn to_bytes(&self) -> Vec<u8> {
        let Store { index, raw, tiers } = &self.store;
        let mut out = Vec::with_capacity(256);
        out.extend_from_slice(MAGIC);
        put_u64(&mut out, raw.step_ns);
        put_table(&mut out, index, raw, true);
        put_count(&mut out, tiers.len(), "tier count");
        for t in tiers {
            put_u64(&mut out, t.table.step_ns);
            out.push(t.agg.tag());
            put_table(&mut out, index, &t.table, false);
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
        let (raw, series) = take_table(&mut r, every_ns, true)?;
        let mut named = vec![series];
        let n_tiers = r.u32()?;
        let n_tiers = r.count(n_tiers.into(), MIN_TIER_BYTES)?;
        let mut tiers = Vec::with_capacity(n_tiers);
        for _ in 0..n_tiers {
            let bucket_ns = r.u64()?;
            if bucket_ns == 0 {
                return Err("tier bucket must be > 0".to_owned());
            }
            let agg = from_tag(AGGS, "agg", r.u8()?)?;
            let (table, series) = take_table(&mut r, bucket_ns, false)?;
            tiers.push(Tier::new(table, agg));
            named.push(series);
        }
        r.end("the last tier")?;
        let index = BTreeMap::new();
        let mut store = Store { index, raw, tiers };
        for (t, series) in named.into_iter().enumerate() {
            for (name, s) in series {
                let col = store.id(&name);
                let table = store.tables_mut().nth(t).expect("a list per table");
                table.cols[col] = Some(s);
            }
        }
        Ok(Timeline {
            store,
            frozen: true,
            ..Timeline::default()
        })
    }
}

/// One table of the dump after its step (and a tier's agg tag): the
/// ring header, for the raw ring the shared timestamp column — pure
/// bookkeeping on a nominal grid — and the table's series in name
/// order. `cols` is indexed by column id; columns with no series in
/// this table are skipped.
fn put_table(out: &mut Vec<u8>, index: &BTreeMap<String, usize>, t: &Table, stamps: bool) {
    put_u64(out, t.base);
    put_count(out, t.len, "row count");
    if stamps && t.len > 0 {
        put_u64(out, t.base * t.step_ns);
        for _ in 1..t.len {
            put_varint(out, t.step_ns);
        }
    }
    put_count(out, t.cols.iter().flatten().count(), "series count");
    for (name, &col) in index {
        if let Some(s) = &t.cols[col] {
            put_series(out, name, s);
        }
    }
}

/// One series: header, then its values delta-encoded as one
/// length-prefixed payload.
fn put_series(out: &mut Vec<u8>, name: &str, s: &Series) {
    put_name(out, name);
    out.push(s.kind.tag());
    put_u64(out, s.start);
    put_count(out, s.vals.len(), "value count");
    put_block::<4>(out, |out| {
        let mut prev: Option<u64> = None;
        for &bits in &s.vals {
            match (s.kind, prev) {
                (SeriesKind::Counter, None) => put_varint(out, bits),
                (SeriesKind::Counter, Some(p)) => put_varint(out, bits.wrapping_sub(p)),
                (SeriesKind::Gauge, None) => put_varint(out, zigzag(bits.cast_signed())),
                (SeriesKind::Gauge, Some(p)) => {
                    put_varint(
                        out,
                        zigzag(bits.cast_signed().wrapping_sub(p.cast_signed())),
                    );
                }
                (SeriesKind::F64, None) => put_u64(out, bits),
                (SeriesKind::F64, Some(p)) => put_varint(out, bits ^ p),
            }
            prev = Some(bits);
        }
    });
}

/// `count` grid points from index `first`, `step_ns` apart, must end on
/// an instant `u64` nanoseconds can hold: the stamp accessors
/// (`last_stamp`, `range_bits`, `TableView::series`) multiply these out
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

/// The inverse of [`put_table`]: the header of a table on the `step_ns`
/// grid (no columns yet) and its series, which come in strictly
/// ascending name order and fit the grid (see [`grid_fits`]).
fn take_table(
    r: &mut Reader<'_>,
    step_ns: u64,
    stamps: bool,
) -> Result<(Table, Vec<(String, Series)>), String> {
    let base = r.u64()?;
    let len = u64::from(r.u32()?);
    if stamps && len > 0 {
        if step_ns == 0 {
            return Err("tick count > 0 with zero sampling interval".to_owned());
        }
        let first = r.u64()?;
        if base.checked_mul(step_ns) != Some(first) {
            return Err(format!(
                "first timestamp {first}ns off the nominal grid (tick {base} x {step_ns}ns)"
            ));
        }
        for _ in 1..len {
            let d = r.varint()?;
            if d != step_ns {
                return Err(format!(
                    "timestamp delta {d}ns != sampling interval {step_ns}ns"
                ));
            }
        }
    }
    grid_fits(
        if stamps { "tick column" } else { "tier rows" },
        base,
        len,
        step_ns,
    )?;
    let n = r.u32()?;
    let n = r.count(n.into(), MIN_SERIES_BYTES)?;
    let mut series: Vec<(String, Series)> = Vec::with_capacity(n);
    for _ in 0..n {
        let (name, s) = take_series(r)?;
        grid_fits(&name, s.start, s.vals.len() as u64, step_ns)?;
        if series.last().is_some_and(|(prev, _)| name <= *prev) {
            return Err(format!("series {name} out of order"));
        }
        series.push((name, s));
    }
    let table = Table {
        base,
        len,
        ..Table::new(step_ns, usize::MAX)
    };
    Ok((table, series))
}

fn take_series(r: &mut Reader<'_>) -> Result<(String, Series), String> {
    let name = r.name("series")?;
    let kind = from_tag(KINDS, "series kind", r.u8()?)?;
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
            (SeriesKind::Gauge, None) => unzigzag(p.varint()?).cast_unsigned(),
            (SeriesKind::Gauge, Some(prev)) => {
                (prev.cast_signed().wrapping_add(unzigzag(p.varint()?))).cast_unsigned()
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
    Ok((name, Series { kind, start, vals }))
}

#[cfg(test)]
mod tests {
    use super::super::tests::{build, cfg, tick};
    use super::*;
    use crate::metrics::Registry;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use sim::SimTime;

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

    /// Every retained value of series `name`, in tick order.
    fn values(tl: &Timeline, name: &str) -> Vec<f64> {
        let samples = tl.range(name, SimTime::ZERO, SimTime::MAX);
        samples.iter().map(|&(_, v)| v).collect()
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
            prop_assert_eq!(values(&parsed, "c"), raw);
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
            prop_assert_eq!(values(&parsed, "g"), raw_g);
            prop_assert_eq!(values(&parsed, "f"), raw_f);
            prop_assert_eq!(parsed.to_bytes(), tl.to_bytes());
        }
    }
}
