//! The performance testbed of the paper's §5.6 (Fig. 13), in software:
//! one or two 802.11ac APs in a single collision domain, N wireless
//! clients each sinking one bulk TCP downlink flow from a wired sender
//! behind an MGig switch. FastACK is toggled per AP when the run is built.
//!
//! The event loop interleaves three planes exactly as the hardware does:
//!
//! * **wired plane** — sender ↔ AP segments with a fixed switch latency
//!   (`wired`);
//! * **wireless plane** — EDCA contention among every backlogged
//!   transmitter (the APs and every client with pending TCP ACKs),
//!   A-MPDU aggregation per destination, BlockAck delivery reports
//!   (`medium`, `ap`);
//! * **host plane** — TCP senders (cwnd/RTO), TCP receivers (delayed
//!   ACKs, `client`), and the FastACK agent on the AP's forwarding path.
//!
//! A [`Testbed`] is two halves. The protocol `world` owns everything
//! that can steer a trajectory; the `taps` own everything that only
//! records it — the measurements behind the paper's figures (per-MPDU
//! 802.11 latency, AP-observed TCP latency, cwnd traces, per-AP airtime)
//! and the telemetry sinks — and see the world read-only through one
//! `Seam` enum (DESIGN.md "Testbed anatomy").

mod ap;
mod cadence;
mod client;
mod config;
mod medium;
mod report;
mod taps;
#[cfg(test)]
mod tests;
mod wired;
mod world;

pub use config::{ClientLink, ConfigError, InterfererFault, TestbedConfig, Traffic};
pub use report::{LatencyLog, SenderStats, TestbedReport};

use sim::{SimDuration, SimTime};
use taps::Taps;
use world::World;

pub struct Testbed {
    world: World,
    taps: Taps,
}

impl Testbed {
    /// Build a testbed. Panics with the [`ConfigError`] if `cfg` does
    /// not [`validate`](TestbedConfig::validate).
    pub fn new(cfg: TestbedConfig) -> Testbed {
        if let Err(e) = cfg.validate() {
            panic!("invalid TestbedConfig: {e}");
        }
        Testbed {
            taps: Taps::new(&cfg),
            world: World::new(cfg),
        }
    }

    /// Run the testbed for `duration` of simulated time and produce the
    /// measurement report.
    pub fn run(mut self, duration: SimDuration) -> TestbedReport {
        // Host-side wall-clock attribution for the whole event loop;
        // a disabled no-op unless the binary was started with --runprof.
        let _prof = telemetry::runprof::span("testbed.run");
        let end = SimTime::ZERO + duration;
        self.world.run_until(end, &mut self.taps);
        self.taps.finish(&self.world, end)
    }
}
