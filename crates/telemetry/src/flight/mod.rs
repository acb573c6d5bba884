//! Causal flight recorder — typed cross-layer packet tracing.
//!
//! The paper's key claims are causal chains: a delayed 802.11 BlockAck
//! starves the TCP self-clock, which shrinks the next A-MPDU, which
//! wastes airtime (§5). The metrics registry says *that* aggregation
//! collapsed; this module records *which* frame chain caused it. One
//! byte of payload can be followed from TCP segment → MAC frame →
//! A-MPDU slot → airtime span → (fast) ACK, across every layer that
//! emits records.
//!
//! Each decision has one file (DESIGN.md §6 "Flight recorder" has the
//! same map with its tests, and the `FLT1` layout):
//!
//! * **Causal identity** (this file) — every [`FlightEvent`] carries a
//!   [`CauseId`] built by [`cause_for`]`(flow, seq)`: the flow id in the
//!   high 16 bits, the stream offset of the first byte in the low 48.
//!   Records emitted at different layers for the same payload share
//!   the id, so a chain is reconstructible without any cross-layer
//!   bookkeeping.
//! * **Typed records** (`record`) — [`TraceRecord`] is a plain enum of
//!   `Copy` fields; emission never formats or allocates per record (the
//!   ring slot is overwritten in place once the buffer is warm).
//! * **Fixed-capacity rings** (`recorder`) — one ring per component
//!   (`"mac.tx"`, `"tcp.wire"`, …) behind [`FlightRecorder`], resolved
//!   once to a [`RingId`] that `emit` indexes by; when full,
//!   the oldest record is overwritten and the component's `dropped`
//!   count grows: always a *last-N* window, usable at fleet scale.
//!   [`install_violation_dump`] arms `sim::sanitize` so any invariant
//!   panic first writes that window to disk.
//! * **Queries** (`dump`) — [`FlightDump`]: `absorb`, `events`,
//!   `chain`, `flows` and the totals.
//! * **Deterministic dumps** (`wire`) — the only code that knows `FLT1`
//!   and the packed record a [`FlightEvent`] holds, both from one table:
//!   identical runs dump identical bytes, the artifact `wifictl trace
//!   diff` triages, and the strict parser accepts nothing else.
//!
//! ```
//! use sim::SimTime;
//! use telemetry::flight::{cause_for, FlightRecorder, TraceRecord};
//!
//! let rec = FlightRecorder::new(64);
//! let wire = rec.ring("tcp.wire");
//! let cause = cause_for(7, 1460);
//! rec.emit(
//!     wire,
//!     SimTime::from_micros(10),
//!     cause,
//!     TraceRecord::TcpSeg { flow: 7, seq: 1460, len: 1460, retransmit: false },
//! );
//! let dump = rec.snapshot();
//! assert_eq!(dump.chain(7).len(), 1);
//! ```

mod dump;
mod record;
mod recorder;
mod wire;

pub use dump::{ComponentTrace, FlightDump};
pub(crate) use record::LAYERS;
pub use record::{AirKind, TraceRecord};
pub use recorder::{install_violation_dump, FlightRecorder, IntoRingId, RingId};

use sim::SimTime;
use wire::Packed;

/// Causal identity shared by every record describing the same payload:
/// flow id in the high 16 bits, first stream-byte offset in the low 48.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct CauseId(pub u64);

/// Offset bits reserved for the stream position inside a [`CauseId`].
pub const CAUSE_SEQ_BITS: u32 = 48;

/// Build the causal id for `(flow, seq)`. Flow ids are small and
/// sequence offsets stay far below 2^48 in any practical run, so the
/// packing is collision-free in practice; it is also exactly the MPDU
/// id convention the testbed uses, which is what makes MAC delivery
/// reports joinable with transport records.
pub const fn cause_for(flow: u64, seq: u64) -> CauseId {
    CauseId((flow << CAUSE_SEQ_BITS) | (seq & ((1 << CAUSE_SEQ_BITS) - 1)))
}

impl CauseId {
    /// No causal link (beacons, collisions, controller housekeeping).
    pub const NONE: CauseId = CauseId(0);

    /// The flow id packed into this cause, 0 if none.
    pub const fn flow_hint(self) -> u64 {
        self.0 >> CAUSE_SEQ_BITS
    }

    /// The stream offset packed into this cause.
    pub const fn seq_hint(self) -> u64 {
        self.0 & ((1 << CAUSE_SEQ_BITS) - 1)
    }
}

/// One recorded event: when, what chain, and the typed payload, packed
/// into 16 bytes so an event is 32. `wire`'s `records!` table gives
/// each field its slot: a `flow` below 2^16 (a [`CauseId`]'s flow
/// bits), a probe `seq` below 2^48 (a probe MPDU id's seq bits), a
/// probe `delay_ns` and an epoch's `networks` below 2^56, every other
/// field whole.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    pub at: SimTime,
    pub cause: CauseId,
    record: Packed,
}

const _: () = assert!(std::mem::size_of::<FlightEvent>() == 32);

impl FlightEvent {
    /// `record` at `at` on chain `cause`. Panics, naming the field, on
    /// a field over its bound.
    #[inline(always)]
    pub fn new(at: SimTime, cause: CauseId, record: TraceRecord) -> FlightEvent {
        let record = wire::pack(record).unwrap_or_else(|e| panic!("flight record {e}"));
        FlightEvent { at, cause, record }
    }

    /// The record, unpacked.
    pub fn record(&self) -> TraceRecord {
        wire::unpack(self.record)
    }

    /// The flow this event belongs to: the record's own flow, falling
    /// back to the one packed in the cause (airtime spans).
    pub fn flow(&self) -> Option<u64> {
        self.record().flow().or_else(|| {
            let hint = self.cause.flow_hint();
            (hint != 0).then_some(hint)
        })
    }
}

#[cfg(test)]
pub(crate) mod tests;
