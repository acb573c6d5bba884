//! What the recorder stores: the typed, allocation-free [`TraceRecord`]
//! and the [`AirKind`] of an airtime span.

use crate::codec::{row_of, Row};
use sim::SimDuration;
use std::fmt;

/// What an [`TraceRecord::AirtimeSpan`] paid the medium for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AirKind {
    /// Downlink A-MPDU TXOP (protection + aggregate + SIFS + BlockAck).
    ApTxop,
    /// Uplink client TXOP (TCP ACK burst).
    ClientTxop,
    /// Beacon at the legacy basic rate.
    Beacon,
    /// Collision cost (all colliding transmissions lost).
    Collision,
    /// Non-WiFi interferer occupying the medium (fault injection).
    Interferer,
}

/// Each [`AirKind`]'s `FLT1` tag and label.
pub(super) const AIR_KINDS: &[Row<AirKind>] = &[
    (AirKind::ApTxop, 0, "ap_txop"),
    (AirKind::ClientTxop, 1, "client_txop"),
    (AirKind::Beacon, 2, "beacon"),
    (AirKind::Collision, 3, "collision"),
    (AirKind::Interferer, 4, "interferer"),
];

/// Every [`TraceRecord::layer`] label, in variant order.
pub(crate) const LAYERS: [&str; 8] = [
    "tcp-seg",
    "mac-tx",
    "ampdu-build",
    "block-ack",
    "airtime-span",
    "fastack-synth",
    "fleet-epoch",
    "qoe-probe",
];

/// One typed, allocation-free trace record. Variants are per-layer; the
/// causal [`CauseId`](super::CauseId) carried next to the record (see
/// [`FlightEvent`](super::FlightEvent)) is what stitches them into
/// chains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceRecord {
    /// A TCP data segment crossed the wired/forwarding plane (AP
    /// ingress, or a FastACK local retransmission when `retransmit`).
    TcpSeg {
        flow: u64,
        seq: u64,
        len: u32,
        retransmit: bool,
    },
    /// Per-MPDU MAC transmit outcome inside an A-MPDU.
    MacTx {
        flow: u64,
        seq: u64,
        delivered: bool,
    },
    /// An A-MPDU was assembled for one destination.
    AmpduBuild { flow: u64, frames: u32, bytes: u64 },
    /// BlockAck delivery report for one aggregate.
    BlockAck { flow: u64, acked: u32, lost: u32 },
    /// Medium occupancy attributed to one transmission (or loss).
    AirtimeSpan { kind: AirKind, dur: SimDuration },
    /// An ACK left the AP upstream: synthesized by FastACK on the MAC
    /// delivery report (`synthetic`), or a forwarded client ACK.
    FastAckSynth {
        flow: u64,
        ack: u64,
        synthetic: bool,
    },
    /// One controller epoch of the fleet collect→plan→push loop.
    FleetEpoch { epoch: u64, networks: u64 },
    /// A synthetic QoE probe crossed the application layer: injected
    /// at the AP (`delay_ns == 0`) or delivered at the client with the
    /// measured one-way delay.
    QoeProbe { flow: u64, seq: u64, delay_ns: u64 },
}

impl TraceRecord {
    /// The flow this record belongs to, if any.
    pub fn flow(&self) -> Option<u64> {
        match *self {
            TraceRecord::TcpSeg { flow, .. }
            | TraceRecord::MacTx { flow, .. }
            | TraceRecord::AmpduBuild { flow, .. }
            | TraceRecord::BlockAck { flow, .. }
            | TraceRecord::FastAckSynth { flow, .. }
            | TraceRecord::QoeProbe { flow, .. } => Some(flow),
            TraceRecord::AirtimeSpan { .. } | TraceRecord::FleetEpoch { .. } => None,
        }
    }

    /// Short layer label (`tcp-seg`, `mac-tx`, …) for summaries.
    pub fn layer(&self) -> &'static str {
        LAYERS[self.layer_index()]
    }

    /// This record's place in [`LAYERS`]: one per variant.
    pub(crate) fn layer_index(&self) -> usize {
        match self {
            TraceRecord::TcpSeg { .. } => 0,
            TraceRecord::MacTx { .. } => 1,
            TraceRecord::AmpduBuild { .. } => 2,
            TraceRecord::BlockAck { .. } => 3,
            TraceRecord::AirtimeSpan { .. } => 4,
            TraceRecord::FastAckSynth { .. } => 5,
            TraceRecord::FleetEpoch { .. } => 6,
            TraceRecord::QoeProbe { .. } => 7,
        }
    }
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TraceRecord::TcpSeg {
                flow,
                seq,
                len,
                retransmit,
            } => write!(
                f,
                "tcp-seg flow={flow} seq={seq} len={len}{}",
                if retransmit { " retransmit" } else { "" }
            ),
            TraceRecord::MacTx {
                flow,
                seq,
                delivered,
            } => write!(
                f,
                "mac-tx flow={flow} seq={seq} {}",
                if delivered { "delivered" } else { "lost" }
            ),
            TraceRecord::AmpduBuild {
                flow,
                frames,
                bytes,
            } => {
                write!(f, "ampdu-build flow={flow} frames={frames} bytes={bytes}")
            }
            TraceRecord::BlockAck { flow, acked, lost } => {
                write!(f, "block-ack flow={flow} acked={acked} lost={lost}")
            }
            TraceRecord::AirtimeSpan { kind, dur } => {
                let kind = row_of(AIR_KINDS, kind).2;
                write!(f, "airtime-span kind={kind} dur={dur}")
            }
            TraceRecord::FastAckSynth {
                flow,
                ack,
                synthetic,
            } => write!(
                f,
                "{} flow={flow} ack={ack}",
                if synthetic { "fast-ack" } else { "client-ack" }
            ),
            TraceRecord::FleetEpoch { epoch, networks } => {
                write!(f, "fleet-epoch epoch={epoch} networks={networks}")
            }
            TraceRecord::QoeProbe {
                flow,
                seq,
                delay_ns,
            } => {
                if delay_ns == 0 {
                    write!(f, "qoe-probe flow={flow} seq={seq} sent")
                } else {
                    write!(f, "qoe-probe flow={flow} seq={seq} delay_ns={delay_ns}")
                }
            }
        }
    }
}
