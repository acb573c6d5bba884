//! Hostile-input sweep over every artifact parser.
//!
//! One small fig15-style run with every sink on produces the four
//! artifact kinds the stack writes and reads back (metrics JSON, health
//! JSON, the `FLT1` flight dump, the `TSL1` timeline dump). Each is
//! then fed back to its parser truncated, with single bits flipped,
//! with single bytes overwritten at seeded random offsets, and — for
//! the binary formats — with every kind of length field set to
//! all-ones. A parser may answer `Ok` or `Err`; it may never panic,
//! and it may never abort on an allocation sized by a hostile length
//! (an abort kills this process, so merely finishing is the assertion).
//! The binary parsers are strict besides: a mutant they accept is
//! exactly what their writer makes of the parse, and every query runs
//! on it without a panic.

use std::panic::{catch_unwind, AssertUnwindSafe};
use wifi_core::netsim::testbed::InterfererFault;
use wifi_core::prelude::*;
use wifi_core::telemetry::codec::{put_varint, Reader};
use wifi_core::telemetry::{json, FlightDump, HealthReport};

/// Seeded single-byte overwrites per artifact.
const OVERWRITES: usize = 512;

/// ~256 evenly spaced offsets plus the first and last 64 bytes.
fn offsets(len: usize) -> Vec<usize> {
    let stride = (len / 256).max(1);
    let mut offs: Vec<usize> = (0..len).step_by(stride).collect();
    offs.extend(0..len.min(64));
    offs.extend(len.saturating_sub(64)..len);
    offs.sort_unstable();
    offs.dedup();
    offs
}

/// Run one parse, turning a panic into a test failure that names the
/// mutation which provoked it.
fn attempt<T>(what: &str, mutation: &str, parse: impl FnOnce() -> T) -> T {
    catch_unwind(AssertUnwindSafe(parse))
        .unwrap_or_else(|_| panic!("{what} parser panicked on {mutation}"))
}

/// Every mutant of `bytes` through `parse`: the strided schedule
/// (truncations and single-bit flips at [`offsets`]), then the seeded
/// one ([`OVERWRITES`] single bytes overwritten, offset and value drawn
/// from a fixed-seed `sim::Rng`). With `write` the format is strict: a
/// mutant `parse` accepts must be exactly what `write` makes of it.
fn sweep<T>(
    what: &str,
    bytes: &[u8],
    parse: impl Fn(&[u8]) -> Result<T, String>,
    write: Option<fn(&T) -> Vec<u8>>,
) {
    let check = |mutation: String, m: &[u8]| {
        if let (Ok(parsed), Some(write)) = (attempt(what, &mutation, || parse(m)), write) {
            assert!(write(&parsed) == m, "{what}: {mutation} is not canonical");
        }
    };
    for off in offsets(bytes.len()) {
        check(format!("truncation to {off} bytes"), &bytes[..off]);
        let mut flipped = bytes.to_vec();
        flipped[off] ^= 1 << (off % 8);
        check(format!("bit flip at byte {off}"), &flipped);
    }
    let mut rng = Rng::new(0x5eed_f1a7);
    let mut m = bytes.to_vec();
    for _ in 0..OVERWRITES {
        let off = rng.below(bytes.len() as u64) as usize;
        m[off] = rng.below(256) as u8;
        check(format!("byte {off} overwritten with {:#04x}", m[off]), &m);
        m[off] = bytes[off];
    }
}

/// The same sweep for a text format. A flipped high bit leaves invalid
/// UTF-8; the lossy decode turns it into a multi-byte replacement
/// character, which is exactly the input error contexts must survive.
fn sweep_text<T>(what: &str, text: &str, parse: impl Fn(&str) -> Result<T, String>) {
    let lossy = |b: &[u8]| parse(&String::from_utf8_lossy(b));
    sweep(what, text.as_bytes(), lossy, None);
}

/// Overwrite each listed little-endian length field with all-ones: no
/// such dump is valid, so here the parser must answer `Err`.
fn inflate<T>(
    what: &str,
    bytes: &[u8],
    fields: &[(usize, usize)],
    parse: impl Fn(&[u8]) -> Result<T, String>,
) {
    assert!(!fields.is_empty(), "{what}: no length fields located");
    for &(off, width) in fields {
        let mut hostile = bytes.to_vec();
        hostile[off..off + width].fill(0xff);
        let mutation = format!("all-ones {width}-byte length at byte {off}");
        assert!(
            attempt(what, &mutation, || parse(&hostile)).is_err(),
            "{what} parser accepted {mutation}"
        );
    }
}

/// `(offset, width)` of the length fields of an `FLT1` dump: component
/// count, then per component the name length, the record count and the
/// first and last record's length prefix.
fn flt1_length_fields(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut r = Reader::new(bytes);
    let mut fields = Vec::new();
    r.take(4).unwrap();
    fields.push((r.offset(), 4));
    for _ in 0..r.u32().unwrap() {
        fields.push((r.offset(), 2));
        let name_len = r.u16().unwrap();
        r.take(usize::from(name_len) + 8 + 8).unwrap();
        fields.push((r.offset(), 4));
        let n_records = r.u32().unwrap();
        for i in 0..n_records {
            if i == 0 || i == n_records - 1 {
                fields.push((r.offset(), 2));
            }
            let len = r.u16().unwrap();
            r.take(usize::from(len)).unwrap();
        }
    }
    r.end("the walk").unwrap();
    fields
}

/// `(offset, width)` of the length fields of a `TSL1` dump: tick count,
/// series counts, tier count, and per (tier) series the name length,
/// value count and payload length.
fn tsl1_length_fields(bytes: &[u8]) -> Vec<(usize, usize)> {
    fn series(r: &mut Reader<'_>, fields: &mut Vec<(usize, usize)>) {
        fields.push((r.offset(), 4));
        for _ in 0..r.u32().unwrap() {
            fields.push((r.offset(), 2));
            let name_len = r.u16().unwrap();
            r.take(usize::from(name_len) + 1 + 8).unwrap();
            fields.push((r.offset(), 4));
            r.u32().unwrap();
            fields.push((r.offset(), 4));
            let payload_len = r.u32().unwrap();
            r.take(payload_len as usize).unwrap();
        }
    }
    let mut r = Reader::new(bytes);
    let mut fields = Vec::new();
    r.take(4 + 8 + 8).unwrap();
    fields.push((r.offset(), 4));
    let ticks = r.u32().unwrap();
    if ticks > 0 {
        r.u64().unwrap();
        for _ in 1..ticks {
            r.varint().unwrap();
        }
    }
    series(&mut r, &mut fields);
    fields.push((r.offset(), 4));
    for _ in 0..r.u32().unwrap() {
        // Bucket, agg tag, evicted rows, and the retained-row count: a
        // reported number that sizes nothing, so not a length field.
        r.take(8 + 1 + 8 + 4).unwrap();
        series(&mut r, &mut fields);
    }
    r.end("the walk").unwrap();
    fields
}

/// Touch every stamp accessor of a parsed timeline: "parses" has to
/// mean "safe to query", so a dump whose grid overflows the clock must
/// have been rejected before it gets here.
fn query_all(tl: &Timeline) {
    let _ = (tl.ticks(), tl.first_stamp(), tl.last_stamp());
    for name in tl.series_names() {
        let _ = tl.range(name, SimTime::ZERO, SimTime::MAX);
        for tier in tl.tiers() {
            let _ = tier.series(name);
        }
    }
}

/// Every query `wifictl trace` asks of a flight dump, on a dump that
/// parsed: each record unpacked, through every accessor and `Display`.
fn query_flight(dump: &FlightDump) {
    let _ = (dump.total_records(), dump.total_dropped());
    for (_, ev) in dump.events(None, None) {
        let _ = (ev.flow(), ev.record().to_string());
    }
    for flow in dump.flows() {
        let _ = dump.chain(flow);
    }
}

/// `TSL1` header: magic, cadence, evicted ticks, retained ticks and —
/// when any are retained — the shared timestamp column.
fn tsl1_header(every_ns: u64, base: u64, len: u32) -> Vec<u8> {
    let mut b = b"TSL1".to_vec();
    b.extend_from_slice(&every_ns.to_le_bytes());
    b.extend_from_slice(&base.to_le_bytes());
    b.extend_from_slice(&len.to_le_bytes());
    if len > 0 {
        b.extend_from_slice(&(base * every_ns).to_le_bytes());
        for _ in 1..len {
            put_varint(&mut b, every_ns);
        }
    }
    b
}

/// Well-formed dumps whose last tick / last tier row lies past what
/// `u64` nanoseconds can hold used to parse `Ok` and then overflow in
/// `last_stamp` / `TableView::series`; they are rejected at parse now.
#[test]
fn tsl1_grids_that_overflow_the_clock_are_rejected() {
    // Ticks 3 and 4 at 2^62 ns: the first stamp fits, the last does not.
    let mut ticks = tsl1_header(1 << 62, 3, 2);
    ticks.extend_from_slice(&[0; 8]); // no series, no tiers
    assert_eq!(ticks.len(), 49);
    let verdict = Timeline::parse(&ticks).map(|tl| query_all(&tl));
    assert!(verdict.is_err(), "tick column past the clock parsed");

    // An empty raw ring, one tier whose only series holds row 4 of a
    // 2^62 ns bucket.
    let mut tier = tsl1_header(1, 0, 0);
    tier.extend_from_slice(&0u32.to_le_bytes()); // series
    tier.extend_from_slice(&1u32.to_le_bytes()); // tiers
    tier.extend_from_slice(&(1u64 << 62).to_le_bytes());
    tier.push(0); // mean
    tier.extend_from_slice(&0u64.to_le_bytes()); // evicted rows
    tier.extend_from_slice(&0u32.to_le_bytes()); // retained rows
    tier.extend_from_slice(&1u32.to_le_bytes()); // tier series
    tier.extend_from_slice(&[1, 0, b'x', 2]); // name, f64 kind
    tier.extend_from_slice(&4u64.to_le_bytes()); // start row
    tier.extend_from_slice(&1u32.to_le_bytes()); // one value
    tier.extend_from_slice(&8u32.to_le_bytes()); // payload bytes
    tier.extend_from_slice(&1.0f64.to_bits().to_le_bytes());
    let verdict = Timeline::parse(&tier).map(|tl| tl.tiers().for_each(|t| drop(t.series("x"))));
    assert!(verdict.is_err(), "tier row past the clock parsed");
}

#[test]
fn every_parser_survives_truncation_bitflips_and_inflated_lengths() {
    let report = Testbed::new(TestbedConfig {
        clients_per_ap: 4,
        fastack: vec![true],
        seed: 1212,
        flight_capacity: 96,
        interferer: Some(InterfererFault {
            at: SimTime::from_millis(500),
        }),
        qoe: Some(ProbeConfig::default()),
        timeline: Some(TimelineConfig::sampling(SimDuration::from_millis(50))),
        ..TestbedConfig::default()
    })
    .run(SimDuration::from_secs(3));
    assert!(
        !report.health.alerts.is_empty(),
        "the interferer must alert"
    );

    let metrics = report.metrics.to_json();
    let health = report.health.to_json();
    let flight = report.flight.to_bytes();
    let timeline = report.timeline.as_ref().expect("sampled").to_bytes();

    // Untouched bytes round-trip byte-identically.
    assert!(json::parse(&metrics).is_ok());
    assert_eq!(HealthReport::parse(&health).unwrap().to_json(), health);
    assert_eq!(FlightDump::parse(&flight).unwrap().to_bytes(), flight);
    assert_eq!(Timeline::parse(&timeline).unwrap().to_bytes(), timeline);

    sweep_text("metrics json", &metrics, json::parse);
    sweep_text("health json", &health, HealthReport::parse);
    let flight_queried = |b: &[u8]| FlightDump::parse(b).inspect(query_flight);
    sweep("FLT1", &flight, flight_queried, Some(FlightDump::to_bytes));
    let queried = |b: &[u8]| Timeline::parse(b).inspect(query_all);
    sweep("TSL1", &timeline, queried, Some(Timeline::to_bytes));
    inflate(
        "FLT1",
        &flight,
        &flt1_length_fields(&flight),
        FlightDump::parse,
    );
    inflate(
        "TSL1",
        &timeline,
        &tsl1_length_fields(&timeline),
        Timeline::parse,
    );
}
