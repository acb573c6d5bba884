//! `FLT1`, the flight recorder's byte-stable dump: the writer and the
//! strict parser, and the only code that knows the format. All integers
//! are little-endian; DESIGN.md §6 "Flight recorder" has the layout.

use super::record::AIR_KINDS;
use super::{AirKind, CauseId, ComponentTrace, FlightDump, FlightEvent, TraceRecord};
use crate::codec::{from_tag, put_block, put_count, put_name, put_u32, put_u64, row_of, Reader};
use sim::{SimDuration, SimTime};

/// Dump file magic: "FLT" + format version.
pub(super) const MAGIC: &[u8; 4] = b"FLT1";

/// Smallest encoded component: empty name, capacity, dropped, count.
const MIN_COMPONENT_BYTES: usize = 2 + 8 + 8 + 4;
/// Smallest encoded record: length prefix, `at`, `cause`, tag.
const MIN_RECORD_BYTES: usize = 2 + 8 + 8 + 1;

impl FlightDump {
    /// Serialize to the deterministic `FLT1` dump: identical dumps
    /// serialize to identical bytes; `scripts/ci.sh` diffs exactly this.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.total_records() * 40);
        out.extend_from_slice(MAGIC);
        put_count(&mut out, self.components.len(), "component count");
        debug_assert!(
            self.components.windows(2).all(|w| w[0].name < w[1].name),
            "flight dump components out of name order"
        );
        for comp in &self.components {
            put_name(&mut out, &comp.name);
            put_u64(&mut out, comp.capacity);
            put_u64(&mut out, comp.dropped);
            put_count(&mut out, comp.records.len(), "record count");
            for ev in &comp.records {
                put_block::<2>(&mut out, |p| encode_event(p, ev));
            }
        }
        out
    }

    /// Parse a dump produced by [`FlightDump::to_bytes`]. Strict: any
    /// truncation, unknown tag, bool byte other than 0 or 1, component
    /// out of name order (or repeated), or trailing garbage is an
    /// error, so every dump that parses is exactly what `to_bytes`
    /// writes back.
    pub fn parse(bytes: &[u8]) -> Result<FlightDump, String> {
        let mut r = Reader::new(bytes);
        let magic = r.take(4)?;
        if magic != MAGIC {
            return Err(format!("bad magic {magic:02x?}, want {MAGIC:02x?}"));
        }
        let n = r.u32()?;
        let mut components: Vec<ComponentTrace> =
            Vec::with_capacity(r.count(n.into(), MIN_COMPONENT_BYTES)?);
        for _ in 0..n {
            let name = r.name("component")?;
            if components.last().is_some_and(|c| name <= c.name) {
                return Err(format!("component {name} out of order"));
            }
            let capacity = r.u64()?;
            let dropped = r.u64()?;
            let n_records = r.u32()?;
            let mut records = Vec::with_capacity(r.count(n_records.into(), MIN_RECORD_BYTES)?);
            for _ in 0..n_records {
                let len = r.u16()?;
                records.push(decode_event(r.take(len.into())?)?);
            }
            components.push(ComponentTrace {
                name,
                capacity,
                dropped,
                records,
            });
        }
        r.end("the last component")?;
        Ok(FlightDump { components })
    }
}

/// How a record field of each type is spelled in `FLT1`.
trait Field: Sized {
    fn put(self, p: &mut Vec<u8>);
    fn take(r: &mut Reader<'_>) -> Result<Self, String>;
}

/// One [`Field`] impl per row: how a value `v` of the type is put into
/// `p` and taken from `r` (little-endian integers, a `0`/`1` bool, an
/// [`AirKind`] tag byte, a duration in nanoseconds). The methods are
/// `#[inline]`: they run per record field, and left out of line they
/// made `FlightDump::parse` half again slower.
macro_rules! fields {
    ($($t:ty: |$v:ident, $p:ident| $put:expr, |$r:ident| $take:expr;)+) => {$(
        impl Field for $t {
            #[inline]
            fn put(self, $p: &mut Vec<u8>) {
                let $v = self;
                $put;
            }
            #[inline]
            fn take($r: &mut Reader<'_>) -> Result<Self, String> {
                $take
            }
        }
    )+};
}

fields! {
    u64: |v, p| put_u64(p, v), |r| r.u64();
    u32: |v, p| put_u32(p, v), |r| r.u32();
    bool: |v, p| p.push(u8::from(v)), |r| r.bool();
    AirKind: |v, p| p.push(row_of(AIR_KINDS, v).1), |r| from_tag(AIR_KINDS, "AirKind", r.u8()?);
    SimDuration: |v, p| put_u64(p, v.as_nanos()), |r| Ok(SimDuration::from_nanos(r.u64()?));
}

/// `encode_event` and `decode_event` from one table: each record
/// variant's tag byte and its fields in wire order, each spelled as its
/// type's [`Field`] says, so the two directions cannot disagree. Both
/// run once per record and are `#[inline]` for the same reason.
macro_rules! records {
    ($($tag:literal => $variant:ident { $($field:ident),+ },)+) => {
        #[inline]
        fn encode_event(p: &mut Vec<u8>, ev: &FlightEvent) {
            put_u64(p, ev.at.as_nanos());
            put_u64(p, ev.cause.0);
            match ev.record {
                $(TraceRecord::$variant { $($field),+ } => {
                    p.push($tag);
                    $($field.put(p);)+
                })+
            }
        }

        #[inline]
        fn decode_event(payload: &[u8]) -> Result<FlightEvent, String> {
            let mut r = Reader::new(payload);
            let at = SimTime::from_nanos(r.u64()?);
            let cause = CauseId(r.u64()?);
            let record = match r.u8()? {
                $($tag => TraceRecord::$variant { $($field: Field::take(&mut r)?),+ },)+
                t => return Err(format!("unknown record tag {t}")),
            };
            r.end("the record")?;
            Ok(FlightEvent { at, cause, record })
        }
    };
}

records! {
    0 => TcpSeg { flow, seq, len, retransmit },
    1 => MacTx { flow, seq, delivered },
    2 => AmpduBuild { flow, frames, bytes },
    3 => BlockAck { flow, acked, lost },
    4 => AirtimeSpan { kind, dur },
    5 => FastAckSynth { flow, ack, synthetic },
    6 => FleetEpoch { epoch, networks },
    7 => QoeProbe { flow, seq, delay_ns },
}
