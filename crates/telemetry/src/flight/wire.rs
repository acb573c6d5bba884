//! `FLT1`, the flight recorder's byte-stable dump: the writer and the
//! strict parser, and the only code that knows the format. All integers
//! are little-endian; DESIGN.md §6 "Flight recorder" has the layout.

use super::record::AIR_KINDS;
use super::{AirKind, CauseId, ComponentTrace, FlightDump, FlightEvent, TraceRecord};
use crate::codec::{from_tag, put_block, put_count, put_name, put_u32, put_u64, row_of, Reader};
use sim::{SimDuration, SimTime};
use std::fmt;

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

/// How a record field of each type is spelled in `FLT1`, and held in
/// its slot of a [`Packed`] record.
trait Field: Sized {
    fn put(self, p: &mut Vec<u8>);
    fn take(r: &mut Reader<'_>) -> Result<Self, String>;
    /// The field as the bits its slot holds.
    fn bits(self) -> u64;
    /// The field whose [`Field::bits`] are `b`.
    fn from_bits(b: u64) -> Self;
}

/// One [`Field`] impl per row: how a value `v` of the type is put into
/// `p` and taken from `r` (little-endian integers, a `0`/`1` bool, an
/// [`AirKind`] tag byte, a duration in nanoseconds), then its slot bits
/// and the value bits `b` hold. The methods are `#[inline]`: they run
/// per record field, and left out of line they made
/// `FlightDump::parse` half again slower.
macro_rules! fields {
    ($($t:ty: |$v:ident, $p:ident| $put:expr, |$r:ident| $take:expr, $bits:expr, |$b:ident| $from:expr;)+) => {$(
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
            #[inline]
            fn bits(self) -> u64 { let $v = self; $bits }
            #[inline]
            fn from_bits($b: u64) -> Self { $from }
        }
    )+};
}

fields! {
    u64: |v, p| put_u64(p, v), |r| r.u64(), v, |b| b;
    u32: |v, p| put_u32(p, v), |r| r.u32(), v.into(), |b| b as u32;
    bool: |v, p| p.push(u8::from(v)), |r| r.bool(), v.into(), |b| b == 1;
    // An `AirKind`'s tag is its row's index in `AIR_KINDS`.
    AirKind: |v, p| p.push(row_of(AIR_KINDS, v).1), |r| from_tag(AIR_KINDS, "AirKind", r.u8()?),
        row_of(AIR_KINDS, v).1.into(), |b| AIR_KINDS[b as usize].0;
    SimDuration: |v, p| put_u64(p, v.as_nanos()), |r| Ok(SimDuration::from_nanos(r.u64()?)),
        v.as_nanos(), |b| SimDuration::from_nanos(b);
}

/// A record in 16 bytes: the tag in the low byte of `small`, each field
/// in the bits of `wide` or `small` its row of [`records!`] gives it,
/// every other bit zero (so `==` on the words is `==` on the records).
/// Its `Debug` is the unpacked record's.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(super) struct Packed {
    wide: u64,
    small: u64,
}

impl fmt::Debug for Packed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        unpack(*self).fmt(f)
    }
}

/// `bits` moved to bits `lo..hi` of a word, or `Err` naming the field
/// if they do not fit there.
#[inline(always)]
fn slot(variant: &str, field: &str, bits: u64, lo: u32, hi: u32) -> Result<u64, String> {
    let width = hi - lo;
    if bits.leading_zeros() < 64 - width {
        return Err(format!("{variant}.{field} = {bits} is not below 2^{width}"));
    }
    Ok(bits << lo)
}

/// `FLT1`'s encode and decode and the [`Packed`] form's pack and unpack
/// from one table: each record variant's tag byte and its fields in
/// wire order, each with its slot, spelled as its type's [`Field`]
/// says, so no two of them can disagree. The wire pair runs once per
/// record and is `#[inline]` for the same reason; pack runs per emit.
macro_rules! records {
    ($($tag:literal => $variant:ident { $($field:ident: $word:ident[$lo:literal..$hi:literal]),+ },)+) => {
        #[inline]
        fn encode_event(p: &mut Vec<u8>, ev: &FlightEvent) {
            put_u64(p, ev.at.as_nanos());
            put_u64(p, ev.cause.0);
            match ev.record() {
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
            Ok(FlightEvent { at, cause, record: pack(record)? })
        }

        /// `record` packed, or `Err` naming the first field over its slot.
        #[inline(always)]
        pub(super) fn pack(record: TraceRecord) -> Result<Packed, String> {
            let mut p = Packed { wide: 0, small: 0 };
            match record {
                $(TraceRecord::$variant { $($field),+ } => {
                    p.small = $tag;
                    let variant = stringify!($variant);
                    $(p.$word |= slot(variant, stringify!($field), $field.bits(), $lo, $hi)?;)+
                })+
            }
            Ok(p)
        }

        /// The record [`pack`] made `p` of.
        #[inline]
        pub(super) fn unpack(p: Packed) -> TraceRecord {
            match p.small & 0xff {
                $($tag => TraceRecord::$variant {
                    $($field: Field::from_bits((p.$word >> $lo) & (u64::MAX >> (64 - $hi + $lo)))),+
                },)+
                t => unreachable!("packed record tag {t}"),
            }
        }
    };
}

// A slot is a bit range `lo..hi` of a `Packed` word; `small[0..8]`
// holds the tag.
records! {
    0 => TcpSeg { flow: small[8..24], seq: wide[0..64], len: small[24..56], retransmit: small[56..57] },
    1 => MacTx { flow: small[8..24], seq: wide[0..64], delivered: small[24..25] },
    2 => AmpduBuild { flow: small[8..24], frames: small[24..56], bytes: wide[0..64] },
    3 => BlockAck { flow: small[8..24], acked: small[24..56], lost: wide[0..32] },
    4 => AirtimeSpan { kind: small[8..16], dur: wide[0..64] },
    5 => FastAckSynth { flow: small[8..24], ack: wide[0..64], synthetic: small[24..25] },
    6 => FleetEpoch { epoch: wide[0..64], networks: small[8..64] },
    7 => QoeProbe { flow: wide[48..64], seq: wide[0..48], delay_ns: small[8..64] },
}
