//! Ablation — bad-hint rate sweep (footnote 15). The paper measured
//! ≈ 1.5 % bad hints in its testbed; this sweep maps FastACK's
//! sensitivity from a clean hint channel to a badly broken one.

use bench::harness::{f, Experiment};
use wifi_core::prelude::*;

fn main() {
    let mut exp = Experiment::from_args("abl_bad_hints", "bad-hint rate sweep 0-10%");
    let mut series = Vec::new();
    let mut retx_series = Vec::new();
    for &bh in &[0.0, 0.001, 0.002, 0.005, 0.01, 0.03, 0.10] {
        let cfg = TestbedConfig {
            clients_per_ap: 10,
            fastack: vec![true],
            seed: 61,
            bad_hint_rate: bh,
            ..TestbedConfig::default()
        };
        // Per-rate label (in tenths of a percent): one simulation per
        // flight component and timeline series.
        let label = format!("bh{:04}", (bh * 1000.0) as u64);
        let r = exp.run_arm(&label, cfg, SimDuration::from_secs(4));
        series.push((bh, r.total_mbps()));
        retx_series.push((bh, r.agent_stats[0].local_retransmits as f64));
    }
    let clean = series[0].1;
    // Exact key lookup against the literal used to build the series.
    let at_1pct = series.iter().find(|(b, _)| *b == 0.01).unwrap().1; // simcheck: allow(float-eq)
    let at_10pct = series.last().unwrap().1;
    exp.compare(
        "graceful degradation to 1% bad hints",
        "keeps most throughput",
        format!("{} -> {} Mbps", f(clean), f(at_1pct)),
        at_1pct > 0.5 * clean,
    );
    exp.compare(
        "throughput declines monotonically-ish with bad hints",
        "worse hints, worse flow",
        format!("{} @0% vs {} @10%", f(clean), f(at_10pct)),
        at_10pct < clean,
    );
    exp.compare(
        "local retransmissions scale with bad hints",
        "unnecessary retransmissions (paper §5.7)",
        format!(
            "{} -> {}",
            f(retx_series[0].1),
            f(retx_series.last().unwrap().1)
        ),
        retx_series.last().unwrap().1 > retx_series[0].1,
    );
    exp.series("mbps-vs-badhint", series);
    exp.series("local-retx-vs-badhint", retx_series);
    exp.exit();
}
