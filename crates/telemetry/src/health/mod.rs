//! `telemetry::health` — deterministic SLO / anomaly detection over the
//! metrics registry, with causes resolved from the flight dump: the
//! layer that *interprets* what the APs measure (paper §2.2, §4.5).
//! `wire` owns the alert types and their byte-stable JSON grammar,
//! `rules` the thresholds (`*Rule`, and [`HealthRules`] for the
//! standard catalog), `engine` the one raise / clear / critical state
//! machine, the registry readers and [`HealthEngine`], `settle` the
//! index ([`DumpIndex`]) that finish time reads the flight dump through,
//! `catalog` the one detector shell over five signals and the seven
//! rules built from them. A host runs one fixed catalog, as the paper's
//! backend polls one fixed set of counters. Detectors read only the
//! deterministic registry at simulated instants, so a report is
//! byte-identical run to run and across threads.

mod catalog;
mod engine;
mod rules;
mod settle;
mod wire;

pub use catalog::{
    standard_ap_detectors, AirtimeSlo, AmpduCollapse, ChannelFlap, FastAckStall, QoeDegraded,
    QueueStarvation, RtoStorm,
};
pub use engine::{Detector, HealthEngine, Transition};
pub use rules::*;
pub use settle::DumpIndex;
pub use wire::*;

#[cfg(test)]
mod tests;
