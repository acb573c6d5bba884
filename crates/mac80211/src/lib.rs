//! # mac80211 — 802.11 MAC simulation
//!
//! The medium-access layer the paper's FastACK lives against: EDCA
//! access categories ([`ac`]), CSMA/CA backoff with freeze-resume
//! semantics ([`backoff`]), contention resolution and collisions
//! ([`contention`]), A-MPDU aggregation + BlockAck ([`aggregation`]),
//! what RTS/CTS virtual carrier sense costs ([`protection`]), and a
//! runnable single-collision-domain EDCA simulator that sends one MPDU
//! per TXOP ([`medium`], the Fig. 4 model).
//!
//! ```
//! use mac80211::{ac::AccessCategory, medium::{LinkParams, MediumSim}};
//! use sim::SimTime;
//!
//! let mut m = MediumSim::new(7);
//! let vo = m.add_queue(LinkParams::clean(AccessCategory::Voice));
//! let be = m.add_queue(LinkParams { mpdu_error_rate: 0.3, ..LinkParams::clean(AccessCategory::BestEffort) });
//! for i in 0..30 {
//!     m.enqueue(vo, i, 240);
//!     m.enqueue(be, 100 + i, 1460);
//! }
//! let reports = m.run_until_idle(SimTime::from_secs(1));
//! let delivered: usize = reports.iter().map(|r| r.deliveries.len()).sum();
//! let dropped: usize = reports.iter().map(|r| r.drops.len()).sum();
//! // Every frame is delivered or dropped at its retry limit, one per TXOP.
//! assert_eq!(delivered + dropped, 60);
//! assert!(reports.len() >= 60);
//! ```

// A panic mid-simulation loses the whole run: hot-path library code
// handles the case, or states its invariant at the site with
// `#[allow(clippy::expect_used)]`. Test code may panic (clippy.toml).
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod ac;
pub mod aggregation;
pub mod backoff;
pub mod contention;
pub mod medium;
pub mod protection;

pub use ac::{AccessCategory, EdcaParams};
pub use aggregation::{build_ampdu, AggLimits, Ampdu, BlockAck, QueuedMpdu};
pub use backoff::{Backoff, BackoffStats};
pub use contention::{resolve, ContentionOutcome};
pub use medium::{Delivery, LinkParams, MediumSim, StepReport};
