//! # mac80211 — 802.11 MAC simulation
//!
//! The medium-access layer the paper's FastACK lives against: EDCA
//! access categories ([`ac`]), CSMA/CA backoff with freeze-resume
//! semantics ([`backoff`]), contention resolution and collisions
//! ([`contention`]), A-MPDU aggregation + BlockAck ([`aggregation`]),
//! what RTS/CTS virtual carrier sense costs ([`protection`]), and a
//! runnable single-collision-domain simulator ([`medium`]).
//!
//! ```
//! use mac80211::{ac::AccessCategory, medium::{LinkParams, MediumSim}};
//! use sim::SimTime;
//!
//! let mut m = MediumSim::new(7);
//! let q = m.add_queue(LinkParams::clean(AccessCategory::BestEffort));
//! for i in 0..30 { m.enqueue(q, i, 1460); }
//! let reports = m.run_until_idle(SimTime::from_secs(1));
//! let delivered: usize = reports.iter().map(|r| r.deliveries.len()).sum();
//! assert_eq!(delivered, 30);
//! ```

pub mod ac;
pub mod aggregation;
pub mod backoff;
pub mod contention;
pub mod medium;
pub mod protection;

pub use ac::{AccessCategory, EdcaParams};
pub use aggregation::{build_ampdu, AggLimits, AggregationStats, Ampdu, BlockAck, QueuedMpdu};
pub use backoff::{Backoff, BackoffStats};
pub use contention::{resolve, ContentionOutcome};
pub use medium::{Delivery, LinkParams, MediumSim, StepReport};
