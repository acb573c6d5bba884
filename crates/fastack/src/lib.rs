//! # fastack — the paper's §5 contribution
//!
//! An AP-resident TCP accelerator for 802.11ac: on seeing the wireless
//! MAC acknowledge a TCP data segment, the AP immediately fabricates the
//! corresponding TCP ACK toward the sender ("fast ACK"), suppresses the
//! client's later duplicate, serves client loss reports from a local
//! retransmission cache, and rewrites the advertised window to
//! `rx_win − out_bytes` so the real receive buffer can never overflow.
//! The effect: the sender's self-clock runs at wired speed, its cwnd
//! opens fully (Fig. 14), the AP's per-client queues stay deep, and
//! A-MPDU aggregates grow from ~17–41 to ~33–56 MPDUs (Fig. 15),
//! raising throughput up to 38 % (Fig. 16).
//!
//! The agent is a pure packet function over `tcpsim` types — see
//! [`agent::Agent`] — and is wired into the network simulator by the
//! `netsim` crate exactly where the paper wires it into Click.
//!
//! ```
//! use fastack::{Agent, AgentConfig, Action};
//! use tcpsim::{DataSegment, FlowId};
//!
//! let mut agent = Agent::new(AgentConfig::default());
//! let seg = DataSegment { flow: FlowId(1), seq: 0, len: 1460, retransmit: false };
//! // Wire data is cached + forwarded...
//! assert!(matches!(agent.on_wire_data(&seg)[0], Action::Forward { .. }));
//! // ...and the MAC delivery report mints the fast ACK.
//! let acts = agent.on_mac_ack(FlowId(1), 0, 1460);
//! assert!(matches!(&acts[0], Action::SendAckUpstream(a) if a.ack == 1460));
//! ```

// A panic mid-simulation loses the whole run: hot-path library code
// handles the case, or states its invariant at the site with
// `#[allow(clippy::expect_used)]`. Test code may panic (clippy.toml).
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod agent;
pub mod cache;
pub mod classifier;
pub mod state;

pub use agent::{Action, Agent, AgentConfig, AgentStats};
pub use cache::{CachedSegment, RetransmissionCache};
pub use classifier::{Classifier, FlowPolicy};
pub use state::{FlowState, Hole};
