use super::record::AIR_KINDS;
use super::wire::MAGIC;
use super::*;
use crate::codec::put_name;
use proptest::collection::vec;
use proptest::prelude::*;
use sim::SimDuration;

fn seg(flow: u64, seq: u64) -> TraceRecord {
    TraceRecord::TcpSeg {
        flow,
        seq,
        len: 1460,
        retransmit: false,
    }
}

/// `n` segments of `flow` under `component`, one a microsecond.
fn emit_segs(rec: &FlightRecorder, component: &'static str, flow: u64, n: u64) {
    for i in 0..n {
        let at = SimTime::from_micros(i);
        rec.emit(component, at, cause_for(flow, i), seg(flow, i));
    }
}

#[test]
fn cause_packs_flow_and_seq() {
    let c = cause_for(7, 1460);
    assert_eq!(c.flow_hint(), 7);
    assert_eq!(c.seq_hint(), 1460);
    assert_eq!(CauseId::NONE.flow_hint(), 0);
}

#[test]
fn disabled_recorder_stores_nothing() {
    let rec = FlightRecorder::new(0);
    let ring = rec.ring("y");
    rec.emit("x", SimTime::ZERO, CauseId::NONE, seg(1, 0));
    rec.emit(ring, SimTime::ZERO, CauseId::NONE, seg(1, 1));
    assert_eq!(rec.snapshot().total_records(), 0);
    assert_eq!(rec.take(), FlightDump::default());
    assert_eq!(rec.total_dropped(), 0);
}

#[test]
fn ring_wraps_and_accounts_for_drops() {
    let rec = FlightRecorder::new(4);
    emit_segs(&rec, "tcp.wire", 1, 10);
    let dump = rec.snapshot();
    assert_eq!(dump.components.len(), 1);
    let c = &dump.components[0];
    assert_eq!(c.records.len(), 4);
    assert_eq!(c.dropped, 6);
    assert_eq!(rec.total_dropped(), 6);
    // Last-N window, chronological: seqs 6..=9.
    let seqs: Vec<u64> = c
        .records
        .iter()
        .map(|r| match r.record() {
            TraceRecord::TcpSeg { seq, .. } => seq,
            _ => unreachable!(),
        })
        .collect();
    assert_eq!(seqs, vec![6, 7, 8, 9]);
}

#[test]
fn take_moves_out_what_snapshot_copies() {
    // One ring wrapped mid-buffer, one exactly full, one part-full,
    // emitted in unsorted component order.
    let rec = FlightRecorder::new(4);
    emit_segs(&rec, "tcp.wire", 1, 10);
    emit_segs(&rec, "mac.tx", 2, 4);
    rec.emit("air", SimTime::from_micros(3), CauseId::NONE, seg(3, 0));
    let copied = rec.snapshot();
    assert_eq!(rec.take(), copied);
    assert_eq!(rec.snapshot(), FlightDump::default());
    assert_eq!(rec.total_dropped(), 0);
    // Still a recorder of the same capacity.
    emit_segs(&rec, "air", 3, 6);
    assert_eq!(rec.take().components[0].dropped, 2);
}

#[test]
fn a_ring_never_emitted_into_stays_out_of_every_dump() {
    // Registered around the one ring emitted into, which wraps.
    let rec = FlightRecorder::new(4);
    rec.ring("a.idle");
    let wire = rec.ring("tcp.wire");
    rec.ring("z.idle");
    assert_eq!(rec.ring("tcp.wire"), wire, "one ring per name");
    for i in 0..6 {
        rec.emit(wire, SimTime::from_micros(i), cause_for(1, i), seg(1, i));
    }
    let by_name = FlightRecorder::new(4);
    emit_segs(&by_name, "tcp.wire", 1, 6);
    assert_eq!(rec.total_dropped(), 2);
    let copied = rec.snapshot();
    assert_eq!(copied.components.len(), 1);
    assert_eq!(copied.to_bytes(), by_name.snapshot().to_bytes());
    assert_eq!(rec.take(), copied);
    // The handle outlives `take`; its emptied ring is out until refilled.
    assert_eq!(rec.snapshot(), FlightDump::default());
    rec.emit(wire, SimTime::ZERO, CauseId::NONE, seg(1, 0));
    assert_eq!(rec.snapshot().total_records(), 1);
}

#[test]
fn ring_under_capacity_keeps_everything() {
    let rec = FlightRecorder::new(100);
    emit_segs(&rec, "c", 1, 5);
    let dump = rec.snapshot();
    assert_eq!(dump.components[0].records.len(), 5);
    assert_eq!(dump.components[0].dropped, 0);
    // `Debug` prints the record unpacked.
    let debug = format!("{:?}", dump.components[0].records[0]);
    assert!(debug.ends_with("record: TcpSeg { flow: 1, seq: 0, len: 1460, retransmit: false } }"));
}

/// One record of every variant, each under the component the testbed
/// files it in, emitted through `emit`.
fn sample_with(
    emit: fn(&FlightRecorder, &'static str, SimTime, CauseId, TraceRecord),
) -> FlightDump {
    let rec = FlightRecorder::new(64);
    let t = SimTime::from_micros;
    let c = cause_for(3, 1460);
    emit(&rec, "tcp.wire", t(1), c, seg(3, 1460));
    emit(
        &rec,
        "mac.ampdu",
        t(2),
        c,
        TraceRecord::AmpduBuild {
            flow: 3,
            frames: 12,
            bytes: 17520,
        },
    );
    emit(
        &rec,
        "mac.tx",
        t(3),
        c,
        TraceRecord::MacTx {
            flow: 3,
            seq: 1460,
            delivered: true,
        },
    );
    emit(
        &rec,
        "mac.back",
        t(4),
        c,
        TraceRecord::BlockAck {
            flow: 3,
            acked: 12,
            lost: 0,
        },
    );
    emit(
        &rec,
        "air",
        t(4),
        c,
        TraceRecord::AirtimeSpan {
            kind: AirKind::ApTxop,
            dur: SimDuration::from_micros(900),
        },
    );
    emit(
        &rec,
        "fastack.synth",
        t(5),
        c,
        TraceRecord::FastAckSynth {
            flow: 3,
            ack: 2920,
            synthetic: true,
        },
    );
    emit(
        &rec,
        "fleet.epoch",
        t(6),
        CauseId::NONE,
        TraceRecord::FleetEpoch {
            epoch: 0,
            networks: 4,
        },
    );
    let pc = cause_for(0x4000, 7);
    let probe = |delay_ns| TraceRecord::QoeProbe {
        flow: 0x4000,
        seq: 7,
        delay_ns,
    };
    emit(&rec, "qoe.tx", t(7), pc, probe(0));
    emit(&rec, "qoe.rx", t(8), pc, probe(850_000));
    rec.snapshot()
}

/// [`sample_with`] through ring handles.
fn sample_dump() -> FlightDump {
    sample_with(|rec, component, at, cause, record| {
        rec.emit(rec.ring(component), at, cause, record)
    })
}

#[test]
fn handles_and_names_dump_the_same_bytes() {
    let by_name =
        sample_with(|rec, component, at, cause, record| rec.emit(component, at, cause, record));
    assert_eq!(by_name.to_bytes(), sample_dump().to_bytes());
}

#[test]
fn dump_roundtrips_through_bytes() {
    let dump = sample_dump();
    let bytes = dump.to_bytes();
    let parsed = FlightDump::parse(&bytes).expect("parse");
    assert_eq!(parsed, dump);
    // Byte-stability: serialize → parse → serialize is identity.
    assert_eq!(parsed.to_bytes(), bytes);
}

#[test]
fn parse_rejects_corruption() {
    let dump = sample_dump();
    let bytes = dump.to_bytes();
    assert!(FlightDump::parse(&bytes[..bytes.len() - 1]).is_err());
    assert!(FlightDump::parse(b"NOPE").is_err());
    let mut trailing = bytes.clone();
    trailing.push(0);
    assert!(FlightDump::parse(&trailing).is_err());
    let mut bad_tag = bytes.clone();
    // Flip the tag byte of the first record of the first component
    // ("air": name at 8, fixed header 20, record prefix 2, at+cause 16).
    let tag_off = 4 + 4 + 2 + 3 + 8 + 8 + 4 + 2 + 16;
    bad_tag[tag_off] = 250;
    assert!(FlightDump::parse(&bad_tag).is_err());
    // A bool byte other than 0 or 1 would parse to a dump that writes
    // back different bytes: `tcp.wire` is last, its `retransmit` the
    // final byte.
    let mut bad_bool = bytes;
    *bad_bool.last_mut().unwrap() = 2;
    let err = FlightDump::parse(&bad_bool).unwrap_err();
    assert!(err.starts_with("bool byte 2"), "{err}");
}

#[test]
fn parse_rejects_inflated_counts_without_allocating() {
    // Component count: 4G components declared, zero bytes follow.
    let mut hostile = b"FLT1".to_vec();
    hostile.extend_from_slice(&u32::MAX.to_le_bytes());
    assert!(FlightDump::parse(&hostile).is_err());
    // A valid one-component header whose record count is all-ones.
    let rec = FlightRecorder::new(4);
    rec.emit("c", SimTime::ZERO, CauseId::NONE, seg(1, 0));
    let mut bytes = rec.snapshot().to_bytes();
    let count_off = 4 + 4 + 2 + 1 + 8 + 8;
    assert_eq!(bytes[count_off..count_off + 4], 1u32.to_le_bytes());
    bytes[count_off..count_off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(FlightDump::parse(&bytes).is_err());
}

#[test]
fn parse_refuses_components_out_of_name_order_or_repeated() {
    // Built by hand: `to_bytes` writes components in name order.
    let dump = |names: [&str; 2]| {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&2u32.to_le_bytes());
        for name in names {
            put_name(&mut bytes, name);
            bytes.extend_from_slice(&[0; 8 + 8 + 4]); // capacity, dropped, no records
        }
        bytes
    };
    let ok = FlightDump::parse(&dump(["a", "b"])).unwrap();
    assert_eq!(ok.to_bytes(), dump(["a", "b"]));
    for names in [["b", "a"], ["a", "a"]] {
        let err = FlightDump::parse(&dump(names)).unwrap_err();
        assert_eq!(err, format!("component {} out of order", names[1]));
    }
}

#[test]
fn chain_spans_all_layers_time_ordered() {
    let dump = sample_dump();
    let chain = dump.chain(3);
    let layers: Vec<&str> = chain.iter().map(|(_, ev)| ev.record().layer()).collect();
    assert_eq!(
        layers,
        vec![
            "tcp-seg",
            "ampdu-build",
            "mac-tx",
            "airtime-span", // t=4, "air" sorts before "mac.back"
            "block-ack",
            "fastack-synth",
        ]
    );
    // The airtime span has no flow field: it joined via cause hint.
    assert!(chain.iter().any(|(c, _)| *c == "air"));
    // Chains are per-flow.
    assert!(dump.chain(99).is_empty());
    assert_eq!(dump.flows(), vec![3, 0x4000]);
    // The probe flow chains independently of the TCP flow.
    let probe = dump.chain(0x4000);
    let probe_layers: Vec<&str> = probe.iter().map(|(_, ev)| ev.record().layer()).collect();
    assert_eq!(probe_layers, vec!["qoe-probe", "qoe-probe"]);
    assert!(probe.windows(2).all(|w| w[0].1.at <= w[1].1.at));
}

#[test]
fn absorb_prefixes_and_stays_sorted() {
    let a = sample_dump();
    let mut merged = FlightDump::default();
    merged.absorb("base", &a);
    merged.absorb("fast", &a);
    let names: Vec<&str> = merged.components.iter().map(|c| c.name.as_str()).collect();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    assert_eq!(names, sorted);
    assert!(names.contains(&"base.mac.tx") && names.contains(&"fast.mac.tx"));
    assert_eq!(merged.total_records(), 2 * a.total_records());
    // Absorbing the same label twice merges time-ordered.
    merged.absorb("fast", &a);
    let c = merged
        .components
        .iter()
        .find(|c| c.name == "fast.tcp.wire")
        .unwrap();
    assert_eq!(c.records.len(), 2);
    assert!(c.records[0].at <= c.records[1].at);
}

#[test]
fn empty_dump_roundtrips() {
    let empty = FlightDump::default();
    let bytes = empty.to_bytes();
    assert_eq!(FlightDump::parse(&bytes).unwrap(), empty);
}

#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "sim-sanitizer: flight-recorder post-mortem")]
fn violation_dump_is_written_and_parses() {
    // Arm the recorder, trip a violation, then — after catching the
    // unwind — assert the post-mortem artifact exists and parses
    // before re-raising the original panic for #[should_panic].
    let rec = FlightRecorder::new(8);
    emit_segs(&rec, "tcp.wire", 1, 20);
    let path = std::env::temp_dir().join("imc-flight-violation-test.bin");
    let _ = std::fs::remove_file(&path);
    install_violation_dump(&rec, path.clone());

    let err = std::panic::catch_unwind(|| {
        sim::sanitize::check(false, "flight-recorder post-mortem");
    })
    .expect_err("the violation must panic");

    let bytes = std::fs::read(&path).expect("violation dump must exist");
    let dump = FlightDump::parse(&bytes).expect("violation dump must parse");
    assert_eq!(dump.components.len(), 1);
    assert_eq!(dump.components[0].records.len(), 8, "last-N window");
    assert_eq!(dump.components[0].dropped, 12);
    let _ = std::fs::remove_file(&path);

    std::panic::resume_unwind(err);
}

/// Each variant's fields in `FLT1` order, by tag: the largest value
/// the field may hold and its width in bytes, as DESIGN.md §6 states.
const FIELDS: [&[(u64, usize)]; 8] = {
    let (flow, n32, n64) = (0xffff, 0xffff_ffff, u64::MAX);
    [
        &[(flow, 8), (n64, 8), (n32, 4), (1, 1)],
        &[(flow, 8), (n64, 8), (1, 1)],
        &[(flow, 8), (n32, 4), (n64, 8)],
        &[(flow, 8), (n32, 4), (n32, 4)],
        &[(4, 1), (n64, 8)],
        &[(flow, 8), (n64, 8), (1, 1)],
        &[(n64, 8), ((1 << 56) - 1, 8)],
        &[(flow, 8), ((1 << 48) - 1, 8), ((1 << 56) - 1, 8)],
    ]
};

/// A record's tag and its fields `v` as `FLT1` writes them.
fn naive_fields(tag: u8, v: &[u64]) -> Vec<u8> {
    let mut bytes = vec![tag];
    for (&(_, width), v) in FIELDS[usize::from(tag)].iter().zip(v) {
        bytes.extend_from_slice(&v.to_le_bytes()[..width]);
    }
    bytes
}

/// The record of variant `tag` with fields `v` in `FLT1` order (as
/// `u64`s, a bool 1 or 0, an [`AirKind`] its tag).
pub(crate) fn record_of(tag: u8, v: [u64; 4]) -> TraceRecord {
    use TraceRecord::*;
    match tag {
        0 => TcpSeg {
            flow: v[0],
            seq: v[1],
            len: v[2] as u32,
            retransmit: v[3] == 1,
        },
        1 => MacTx {
            flow: v[0],
            seq: v[1],
            delivered: v[2] == 1,
        },
        2 => AmpduBuild {
            flow: v[0],
            frames: v[1] as u32,
            bytes: v[2],
        },
        3 => BlockAck {
            flow: v[0],
            acked: v[1] as u32,
            lost: v[2] as u32,
        },
        4 => AirtimeSpan {
            kind: AIR_KINDS[v[0] as usize].0,
            dur: SimDuration::from_nanos(v[1]),
        },
        5 => FastAckSynth {
            flow: v[0],
            ack: v[1],
            synthetic: v[2] == 1,
        },
        6 => FleetEpoch {
            epoch: v[0],
            networks: v[1],
        },
        _ => QoeProbe {
            flow: v[0],
            seq: v[1],
            delay_ns: v[2],
        },
    }
}

/// The record of variant `w[0] % 8` the other words draw, each field at
/// its largest value or 0 one draw in four each, else below the
/// largest; and its [`naive_fields`].
fn drawn_record(w: &[u64]) -> (TraceRecord, Vec<u8>) {
    let tag = (w[0] % 8) as u8;
    let mut v = [0; 4];
    for (i, &(max, _)) in FIELDS[usize::from(tag)].iter().enumerate() {
        v[i] = [max, 0, (w[i + 1] >> 2) % max, (w[i + 1] >> 2) % max][(w[i + 1] % 4) as usize];
    }
    (record_of(tag, v), naive_fields(tag, &v))
}

/// The `FLT1` dump of one component `c` of capacity 64 holding
/// `records`, each an `at`, a cause and its tag and fields.
fn naive_dump(records: &[(SimTime, CauseId, Vec<u8>)]) -> Vec<u8> {
    let mut out = MAGIC.to_vec();
    out.extend_from_slice(&1u32.to_le_bytes());
    put_name(&mut out, "c");
    out.extend_from_slice(&[64, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
    out.extend_from_slice(&(records.len() as u32).to_le_bytes());
    for (at, cause, fields) in records {
        out.extend_from_slice(&(16 + fields.len() as u16).to_le_bytes());
        out.extend_from_slice(&at.as_nanos().to_le_bytes());
        out.extend_from_slice(&cause.0.to_le_bytes());
        out.extend_from_slice(fields);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]
    /// Every variant, each field up to its bound − 1: the events a
    /// recorder keeps hold the records emitted, compare equal exactly
    /// when those do, and dump as the naive layout says.
    #[test]
    fn events_match_the_wide_records(words in vec(any::<u64>(), 6..90)) {
        let rec = FlightRecorder::new(64);
        let (mut wide, mut naive) = (Vec::new(), Vec::new());
        for w in words.chunks_exact(6) {
            let ((record, fields), cause) = (drawn_record(w), CauseId(w[5] >> 62));
            let at = SimTime::from_nanos(w[5] % 3);
            rec.emit("c", at, cause, record);
            wide.push((at, cause, record));
            naive.push((at, cause, fields));
        }
        let dump = rec.snapshot();
        let events = &dump.components[0].records;
        prop_assert_eq!(events.len(), wide.len());
        for (a, wa) in events.iter().zip(&wide) {
            prop_assert_eq!((a.at, a.cause, a.record()), *wa);
            for (b, wb) in events.iter().zip(&wide) {
                prop_assert_eq!(a == b, wa == wb);
            }
        }
        prop_assert_eq!(dump.to_bytes(), naive_dump(&naive));
        prop_assert_eq!(FlightDump::parse(&dump.to_bytes()), Ok(dump));
    }
}

#[test]
fn parse_refuses_a_field_over_its_bound() {
    for (tag, v, err) in [
        (
            0,
            [1 << 16, 0, 0, 0],
            "TcpSeg.flow = 65536 is not below 2^16",
        ),
        (
            7,
            [1, 1 << 48, 0, 0],
            "QoeProbe.seq = 281474976710656 is not below 2^48",
        ),
        (
            6,
            [0, 1 << 56, 0, 0],
            "FleetEpoch.networks = 72057594037927936 is not below 2^56",
        ),
    ] {
        let dump = naive_dump(&[(SimTime::ZERO, CauseId::NONE, naive_fields(tag, &v))]);
        assert_eq!(FlightDump::parse(&dump), Err(err.to_owned()));
    }
}

#[test]
#[should_panic(expected = "flight record QoeProbe.flow = 65536 is not below 2^16")]
fn emit_refuses_a_field_over_its_bound() {
    let probe = TraceRecord::QoeProbe {
        flow: 1 << 16,
        seq: 0,
        delay_ns: 0,
    };
    FlightRecorder::new(4).emit("qoe.tx", SimTime::ZERO, CauseId::NONE, probe);
}
