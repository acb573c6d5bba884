//! Fig. 2 — CDF of channel utilization: fleet networks (≥10 APs) vs the
//! Meraki HQ office, both bands.
//!
//! Paper medians: fleet 20 % (2.4 GHz) / 3 % (5 GHz); HQ 82 % / 23 %.

use bench::harness::{close, pct, Experiment};
use wifi_core::netsim::deployment::{fleet_utilization_samples, UtilizationProfile};
use wifi_core::sim::Rng;
use wifi_core::telemetry::stats::Cdf;

fn main() {
    let mut exp = Experiment::from_args("fig02", "CDF of channel utilization, fleet vs HQ office");
    let mut rng = Rng::new(202);
    let (u24, u5) = fleet_utilization_samples(
        1_000,
        UtilizationProfile::FLEET_2_4,
        UtilizationProfile::FLEET_5,
        &mut rng,
    );
    let hq24: Vec<f64> = (0..4_000)
        .map(|_| UtilizationProfile::HQ_2_4.sample(&mut rng))
        .collect();
    let hq5: Vec<f64> = (0..4_000)
        .map(|_| UtilizationProfile::HQ_5.sample(&mut rng))
        .collect();

    for (name, xs, paper) in [
        ("fleet median util 2.4GHz", &u24, 0.20),
        ("fleet median util 5GHz", &u5, 0.03),
        ("HQ median util 2.4GHz", &hq24, 0.82),
        ("HQ median util 5GHz", &hq5, 0.23),
    ] {
        let cdf = Cdf::new(xs);
        let m = cdf.quantile(0.5).unwrap();
        exp.compare(name, pct(paper), pct(m), close(m, paper, 0.15));
        exp.series(name, cdf.series(50));
    }
    // The qualitative claim: HQ-like dense offices are dramatically
    // busier than the fleet median on both bands.
    let fleet_m = Cdf::new(&u24).quantile(0.5).unwrap();
    let hq_m = Cdf::new(&hq24).quantile(0.5).unwrap();
    exp.compare(
        "HQ >> fleet on 2.4GHz",
        "82% vs 20%",
        format!("{} vs {}", pct(hq_m), pct(fleet_m)),
        hq_m > 3.0 * fleet_m,
    );
    exp.exit();
}
