//! The full §5.6 testbed experience: 30 clients on one AP, then the
//! two-AP co-channel deployment, reporting the paper's micro-benchmarks
//! (aggregation, fairness) and the multi-AP throughput matrix (Fig. 18).
//!
//! ```text
//! cargo run --release --example fastack_testbed
//! ```

use wifi_core::prelude::*;

fn single_ap(fastack: bool) -> TestbedReport {
    Testbed::new(TestbedConfig {
        clients_per_ap: 30,
        fastack: vec![fastack],
        seed: 13,
        ..TestbedConfig::default()
    })
    .run(SimDuration::from_secs(8))
}

fn two_aps(fa1: bool, fa2: bool) -> TestbedReport {
    Testbed::new(TestbedConfig {
        n_aps: 2,
        clients_per_ap: 10,
        fastack: vec![fa1, fa2],
        seed: 1818,
        // Two APs share the collision domain: queue residency doubles,
        // and era-realistic ~512-frame firmware pools bind the baseline
        // (see `fig18` in crates/bench/src/arms.rs).
        ap_buffer_pool_frames: 512,
        ..TestbedConfig::default()
    })
    .run(SimDuration::from_secs(8))
}

fn main() {
    println!("== single AP, 30 clients (Figs. 15/17) ==");
    let base = single_ap(false);
    let fast = single_ap(true);
    for (name, r) in [("baseline", &base), ("fastack", &fast)] {
        let mut agg = r.client_aggregation.clone();
        agg.sort_by(|a, b| a.total_cmp(b));
        let fairness = jain_fairness(&r.client_mbps).unwrap_or(0.0);
        println!(
            "{name:<9} {:>7.1} Mbps   aggregation {:>4.1}–{:<4.1} (mean {:>4.1})   Jain {:.2}",
            r.total_mbps(),
            agg.first().unwrap(),
            agg.last().unwrap(),
            agg.iter().sum::<f64>() / agg.len() as f64,
            fairness,
        );
    }

    println!("\n== two co-channel APs, 10 clients each (Fig. 18) ==");
    println!(
        "{:<22} {:>8} {:>8} {:>9}",
        "configuration", "AP1", "AP2", "combined"
    );
    for (label, fa1, fa2) in [
        ("baseline + baseline", false, false),
        ("baseline + fastack", false, true),
        ("fastack + fastack", true, true),
    ] {
        let r = two_aps(fa1, fa2);
        println!(
            "{label:<22} {:>8.1} {:>8.1} {:>9.1}",
            r.ap_mbps[0],
            r.ap_mbps[1],
            r.total_mbps()
        );
    }
    println!("\n(paper: 251 -> 325 -> 395 Mbps; shape: fast/fast > mixed > base/base)");
}
