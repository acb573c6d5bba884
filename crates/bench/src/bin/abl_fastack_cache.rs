//! Ablation — the retransmission cache (§5.5.1). Without it, a bad hint
//! (MAC-acked but transport-lost segment) cannot be repaired locally:
//! the sender has already discarded the data, so the flow stalls until
//! the sender's RTO and recovery grind forward — the paper's rationale
//! for caching every forwarded segment.
//!
//! The cache cannot simply be deleted (FastACK without it is unsound);
//! instead we shrink it to a uselessly small budget so every segment
//! bypasses caching, and measure the damage under bad hints.

use bench::harness::{f, pct, Experiment};
use wifi_core::fastack::AgentConfig;
use wifi_core::prelude::*;

fn main() {
    let mut exp = Experiment::from_args("abl_fastack_cache", "retransmission cache disabled");
    // Direct agent-level demonstration: with a tiny cache, segments are
    // forwarded uncached, never fast-ACKed, and the flow degrades to
    // plain end-to-end TCP (no acceleration at all).
    let mut tiny = wifi_core::fastack::Agent::new(AgentConfig {
        cache_capacity_bytes: 1_000,
        ..AgentConfig::default()
    });
    let mut normal = wifi_core::fastack::Agent::new(AgentConfig::default());
    for i in 0..50u64 {
        let seg = wifi_core::tcp::DataSegment {
            flow: FlowId(1),
            seq: i * 1460,
            len: 1460,
            retransmit: false,
        };
        tiny.on_wire_data(&seg);
        normal.on_wire_data(&seg);
        tiny.on_mac_ack(FlowId(1), i * 1460, 1460);
        normal.on_mac_ack(FlowId(1), i * 1460, 1460);
    }
    exp.compare(
        "fast ACKs with tiny cache",
        "0 (unsafe to accelerate uncached data)",
        f(tiny.stats.fast_acks_sent as f64),
        tiny.stats.fast_acks_sent == 0,
    );
    exp.compare(
        "cache bypasses with tiny cache",
        "every segment",
        f(tiny.stats.cache_bypasses as f64),
        tiny.stats.cache_bypasses == 50,
    );
    exp.compare(
        "fast ACKs with normal cache",
        "one per MAC ack",
        f(normal.stats.fast_acks_sent as f64),
        normal.stats.fast_acks_sent == 50,
    );

    // End-to-end: a FastACK AP that cannot serve local retransmissions
    // loses its edge under bad hints.
    let mut run = |label: &str, cache: u64| {
        let cfg = TestbedConfig {
            clients_per_ap: 10,
            fastack: vec![true],
            seed: 51,
            bad_hint_rate: 0.004,
            agent_cache_bytes: Some(cache),
            ..TestbedConfig::default()
        };
        exp.run_arm(label, cfg, SimDuration::from_secs(4))
    };
    let full = run("cache", 16 << 20);
    let none = run("nocache", 1_000);
    exp.compare(
        "throughput, cache vs no cache (0.4% bad hints)",
        "cache recovers locally",
        format!("{} vs {} Mbps", f(full.total_mbps()), f(none.total_mbps())),
        full.total_mbps() > none.total_mbps(),
    );
    exp.compare(
        "local retransmissions served",
        "cache-backed repairs",
        pct(full.agent_stats[0].local_retransmits as f64
            / full.agent_stats[0].fast_acks_sent.max(1) as f64),
        full.agent_stats[0].local_retransmits > 0 && none.agent_stats[0].local_retransmits == 0,
    );
    exp.exit();
}
