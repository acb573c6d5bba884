//! Quickstart: the paper's headline claim in one run.
//!
//! Simulates an 802.11ac AP with 10 clients, each sinking a bulk TCP
//! download, twice — baseline TCP vs FastACK — and prints throughput,
//! achieved A-MPDU aggregation and TCP latency for both.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use wifi_core::prelude::*;
use wifi_core::telemetry::stats::median;

fn run(fastack: bool) -> TestbedReport {
    let cfg = TestbedConfig {
        clients_per_ap: 10,
        fastack: vec![fastack],
        seed: 42,
        ..TestbedConfig::default()
    };
    Testbed::new(cfg).run(SimDuration::from_secs(10))
}

fn main() {
    println!("IMC'17 802.11ac reproduction — quickstart");
    println!("10 clients, one 802.11ac wave-2 AP, bulk TCP downlink, 10 s\n");

    let base = run(false);
    let fast = run(true);

    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let row = |name: &str, r: &TestbedReport| {
        println!(
            "{name:<9} {:>8.1} Mbps   aggregation {:>5.1} MPDUs   median TCP latency {:>6.1} ms   medium busy {:>4.0}%",
            r.total_mbps(),
            mean(&r.client_aggregation),
            median(&r.tcp_latencies.iter().collect::<Vec<_>>()).unwrap_or(0.0) * 1e3,
            r.medium_utilization * 100.0,
        );
    };
    row("baseline", &base);
    row("fastack", &fast);

    let gain = (fast.total_mbps() / base.total_mbps() - 1.0) * 100.0;
    println!("\nFastACK throughput gain: {gain:+.0}%  (paper Fig. 16: up to +38%)");

    let st = fast.agent_stats[0];
    println!(
        "agent: {} fast ACKs, {} client ACKs suppressed, {} local retransmissions",
        st.fast_acks_sent, st.client_acks_suppressed, st.local_retransmits
    );
}
