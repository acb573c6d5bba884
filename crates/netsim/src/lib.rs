//! # netsim — full-stack network simulation
//!
//! Glue layer that assembles the substrate crates into the paper's
//! experimental environments (see DESIGN.md §1 for the substitution
//! statement):
//!
//! * [`testbed`] — the §5.6 performance testbed: APs + N clients in one
//!   collision domain, bulk TCP downlink, FastACK toggleable per AP;
//! * [`population`] — client capability mixes (Fig. 1) and channel-width
//!   configuration (Table 1);
//! * [`topology`] — AP placement + interference graphs (Fig. 3);
//! * [`deployment`] — fleet-scale utilization synthesis (Fig. 2) and
//!   planner-view builders for UNet / MNet (§4.6);
//! * [`diurnal`] — the office day-shape load model behind Fig. 6.

pub mod deployment;
pub mod disruption;
pub mod diurnal;
pub mod neteval;
pub mod population;
pub mod testbed;
pub mod topology;

pub use testbed::{Testbed, TestbedConfig, TestbedReport};
