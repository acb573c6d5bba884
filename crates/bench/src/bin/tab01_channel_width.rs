//! Table 1 — configured channel widths of 80 MHz-capable APs, overall
//! vs large (>10 AP) networks.

use bench::harness::{close, pct, Experiment};
use wifi_core::netsim::population::sample_width_config;
use wifi_core::phy::channels::Width;
use wifi_core::sim::Rng;

fn main() {
    let mut exp = Experiment::from_args("tab01", "configured channel width distribution");
    let mut rng = Rng::new(401);
    let measure = |n_aps: usize, rng: &mut Rng| {
        let n = 200_000;
        let mut counts = [0usize; 3];
        for _ in 0..n {
            match sample_width_config(n_aps, rng) {
                Width::W20 => counts[0] += 1,
                Width::W40 => counts[1] += 1,
                _ => counts[2] += 1,
            }
        }
        [
            counts[0] as f64 / n as f64,
            counts[1] as f64 / n as f64,
            counts[2] as f64 / n as f64,
        ]
    };
    let all = measure(5, &mut rng);
    let large = measure(50, &mut rng);
    for (name, paper, got) in [
        ("all APs 20MHz", 0.149, all[0]),
        ("all APs 40MHz", 0.191, all[1]),
        ("all APs 80MHz", 0.660, all[2]),
        ("large nets 20MHz", 0.173, large[0]),
        ("large nets 40MHz", 0.194, large[1]),
        ("large nets 80MHz", 0.633, large[2]),
    ] {
        exp.compare(name, pct(paper), pct(got), close(got, paper, 0.05));
    }
    exp.compare(
        "admins narrow more in large networks",
        "37% vs 34% narrowed",
        format!("{} vs {}", pct(1.0 - large[2]), pct(1.0 - all[2])),
        large[2] < all[2],
    );
    exp.exit();
}
