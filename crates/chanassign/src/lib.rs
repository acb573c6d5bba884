//! # chanassign — TurboCA and baseline channel assignment
//!
//! The paper's §4 contribution: a centralized, channel-bonding-aware,
//! stability-conscious channel planner.
//!
//! * [`model`] — the planner's input (per-AP reports: neighbors,
//!   utilization, quality, load) and the output [`model::Plan`];
//! * [`metrics`] — NodeP / NetP in the log domain, as one-shot
//!   functions of a view;
//! * `dense` (private) — the representation the planner works in: a
//!   report as per-slot arrays carrying the one NodeP formula, and a
//!   partial plan with maintained per-slot contender counts. Built from
//!   the `&NetworkView` a call receives, dropped when it returns;
//! * [`turboca`] — `ACC(v, ψ)`, the NBO pass (Algorithm 1) and the
//!   15-min / 3-hour / daily runtime schedule;
//! * [`scheduler`] — the service loop driving those tiers over time;
//! * [`baselines`] — ReservedCA (the paper's §4.6.1 incumbent), random
//!   assignment, channel hopping and least-congested scan.
//!
//! ```
//! use chanassign::model::{ApLoad, ApReport, NetworkView};
//! use chanassign::turboca::{ScheduleTier, TurboCa};
//! use phy80211::channels::{Band, Channel, Width};
//!
//! // Three co-located APs all on channel 36: TurboCA untangles them.
//! let aps: Vec<ApReport> = (0..3).map(|i| {
//!     let mut a = ApReport::idle_on(Channel::five(36));
//!     a.neighbors = (0..3).filter(|&j| j != i).collect();
//!     a.load = ApLoad { by_width: vec![(Width::W80, 1.0)] };
//!     a
//! }).collect();
//! let view = NetworkView { band: Band::Band5, aps };
//! let result = TurboCa::new(1).run(&view, ScheduleTier::Medium);
//! assert!(result.improved);
//! ```

pub mod baselines;
mod dense;
pub mod metrics;
pub mod model;
#[cfg(test)]
mod reference;
pub mod scheduler;
pub mod turboca;

pub use baselines::{least_congested, random_plan, ChannelHopping, ReservedCa};
pub use metrics::{airtime, capacity, net_p_ln, node_p_ln, MetricParams};
pub use model::{ApLoad, ApReport, NetworkView, Plan};
pub use scheduler::{ScheduledRun, Scheduler};
pub use turboca::{acc, nbo, PlanResult, ScheduleTier, TurboCa};
