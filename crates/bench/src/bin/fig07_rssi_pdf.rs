//! Fig. 7 — RSSI PDF at MNet during peak vs non-peak hours: the
//! distributions coincide even though usage doubles, showing RSSI is a
//! poor proxy for network health.

use bench::harness::{f, Experiment};
use bench::turboca_eval::evaluate_profile;
use wifi_core::netsim::deployment::DeploymentProfile;
use wifi_core::telemetry::stats::{summarize, Histogram};

fn main() {
    let mut exp = Experiment::from_args("fig07", "RSSI PDF, peak vs non-peak hours (MNet)");
    // Peak and non-peak hours draw from the same physical placement:
    // different client subsets (non-peak ≈ half the visitors), same
    // propagation. Model with two independent evaluation runs.
    let peak = evaluate_profile(DeploymentProfile::MNET, 71);
    let nonpeak = evaluate_profile(DeploymentProfile::MNET, 72);

    let mut h_peak = Histogram::new(-95.0, -35.0, 24);
    let mut h_non = Histogram::new(-95.0, -35.0, 24);
    for &r in &peak.turbo.rssi_dbm {
        h_peak.add(r);
    }
    // Non-peak: half the client population is present.
    for &r in nonpeak.turbo.rssi_dbm.iter().step_by(2) {
        h_non.add(r);
    }

    let sp = summarize(&peak.turbo.rssi_dbm).unwrap();
    let sn = summarize(
        &nonpeak
            .turbo
            .rssi_dbm
            .iter()
            .step_by(2)
            .copied()
            .collect::<Vec<_>>(),
    )
    .unwrap();
    exp.compare(
        "mean RSSI peak vs non-peak",
        "distributions coincide",
        format!("{} vs {} dBm", f(sp.mean), f(sn.mean)),
        (sp.mean - sn.mean).abs() < 2.0,
    );
    exp.compare(
        "std-dev similar",
        "same shape",
        format!("{} vs {}", f(sp.std_dev), f(sn.std_dev)),
        (sp.std_dev - sn.std_dev).abs() < 2.0,
    );
    // Total-variation distance between the two PDFs should be small.
    let tv: f64 = h_peak
        .pdf()
        .iter()
        .zip(h_non.pdf().iter())
        .map(|((_, a), (_, b))| (a - b).abs())
        .sum::<f64>()
        / 2.0;
    exp.compare("PDF total-variation distance", "~0", f(tv), tv < 0.08);
    exp.series("pdf-peak", h_peak.pdf());
    exp.series("pdf-nonpeak", h_non.pdf());
    exp.exit();
}
