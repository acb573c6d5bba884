//! # tcpsim — TCP substrate for the 802.11ac simulator
//!
//! A deliberately compact but faithful TCP implementation: sequence
//! arithmetic with wire-wrap handling ([`seq`]), segments and ACKs
//! ([`segment`]), CUBIC congestion control ([`cc`]), RFC 6298
//! retransmission timeouts ([`rto`]), a self-clocking bulk sender with
//! NewReno + SACK loss recovery ([`sender`]), and a receiver with
//! delayed ACKs, reassembly and a finite advertised window
//! ([`receiver`]). Every sequence-keyed table of the packet path, here
//! and in `fastack` / `netsim`, is one sorted slice behind a
//! released-head offset, compacted instead of grown while any head is
//! released ([`window`]).
//!
//! Endpoints own no clock and do no I/O: the network simulation calls
//! them with events and transmits whatever they return. This is also
//! what makes the FastACK middlebox (crate `fastack`) testable end to
//! end: sender → (wire) → AP agent → (wireless) → receiver is a pure
//! function chain over these types.
//!
//! ```
//! use tcpsim::{SenderConfig, TcpSender, TcpReceiver, ReceiverConfig, FlowId};
//! use sim::SimTime;
//!
//! let mut tx = TcpSender::new(FlowId(1), SenderConfig::default());
//! let mut rx = TcpReceiver::new(FlowId(1), ReceiverConfig::default());
//! let t0 = SimTime::ZERO;
//! // Sender releases its initial window; deliver it; ACK it back.
//! for seg in tx.poll(t0) {
//!     if let Some(ack) = rx.on_data(&seg, t0) {
//!         tx.on_ack(&ack, SimTime::from_millis(10));
//!     }
//! }
//! assert!(tx.acked_bytes() > 0);
//! ```

// A panic mid-simulation loses the whole run: hot-path library code
// handles the case, or states its invariant at the site with
// `#[allow(clippy::expect_used)]`. Test code may panic (clippy.toml).
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod cc;
pub mod receiver;
pub mod rto;
pub mod segment;
pub mod sender;
pub mod seq;
pub mod window;

pub use cc::CongestionController;
pub use receiver::{ReceiverConfig, TcpReceiver};
pub use rto::RtoEstimator;
pub use segment::{AckSegment, DataSegment, FlowId, SackBlocks};
pub use sender::{SenderConfig, TcpSender};
pub use seq::{Unwrapper, WireSeq};
pub use window::SeqWindow;
