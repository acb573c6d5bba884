//! Fig. 16 — aggregate downlink throughput vs client count, baseline vs
//! FastACK: FastACK wins in every scenario, by up to ~38 %, and the
//! benefit generally grows with the number of clients.

use bench::harness::{f, pct, Experiment};
use wifi_core::prelude::*;

fn main() {
    let mut exp = Experiment::from_args("fig16", "aggregate throughput vs client count");
    let mut base_series = Vec::new();
    let mut fast_series = Vec::new();
    let mut gains = Vec::new();
    for &n in &[1usize, 5, 10, 20, 30] {
        // Labels carry the client count: one simulation per flight
        // component and timeline series.
        let mut run = |arm: &str, fa: bool| {
            let cfg = TestbedConfig {
                clients_per_ap: n,
                fastack: vec![fa],
                seed: 1616,
                ..TestbedConfig::default()
            };
            exp.run_arm(&format!("{arm}{n}"), cfg, SimDuration::from_secs(6))
        };
        let (b, fa) = (
            run("base", false).total_mbps(),
            run("fast", true).total_mbps(),
        );
        base_series.push((n as f64, b));
        fast_series.push((n as f64, fa));
        gains.push((n, fa / b - 1.0));
    }
    for &(n, g) in &gains {
        exp.compare(
            format!("gain at {n} clients"),
            if n == 1 {
                "≈0 (little headroom)"
            } else {
                "up to +38%"
            },
            pct(g),
            if n == 1 { g > -0.15 } else { g > 0.0 },
        );
    }
    let max_gain = gains.iter().map(|&(_, g)| g).fold(f64::MIN, f64::max);
    exp.compare(
        "max gain",
        "+38%",
        pct(max_gain),
        (0.15..=0.60).contains(&max_gain),
    );
    exp.compare(
        "benefit grows with client count",
        "more contention, more headroom",
        format!("gain(5)={} gain(30)={}", pct(gains[1].1), pct(gains[4].1)),
        gains[4].1 > gains[1].1,
    );
    let b30 = base_series.last().unwrap().1;
    let f30 = fast_series.last().unwrap().1;
    exp.compare(
        "30-client absolute throughputs plausible for 3x3 80MHz",
        "hundreds of Mbps",
        format!("{} vs {} Mbps", f(b30), f(f30)),
        b30 > 100.0 && f30 > 200.0,
    );
    exp.series("throughput-baseline", base_series);
    exp.series("throughput-fastack", fast_series);
    exp.exit();
}
