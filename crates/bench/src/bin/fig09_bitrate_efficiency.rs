//! Fig. 9 — CDF of bit-rate efficiency (achieved rate / max rate of the
//! association) at MNet: TurboCA gains ~15 % over ReservedCA.

use bench::harness::{f, pct, Experiment};
use bench::turboca_eval::evaluate_profile;
use wifi_core::netsim::deployment::DeploymentProfile;
use wifi_core::telemetry::stats::Cdf;

fn main() {
    let mut exp = Experiment::from_args(
        "fig09",
        "bit-rate efficiency CDF, ReservedCA vs TurboCA (MNet)",
    );
    let ev = evaluate_profile(DeploymentProfile::MNET, 91);
    let c_res = Cdf::new(&ev.reserved.bitrate_efficiency);
    let c_turbo = Cdf::new(&ev.turbo.bitrate_efficiency);
    let m_res = c_res.quantile(0.5).unwrap();
    let m_turbo = c_turbo.quantile(0.5).unwrap();
    let gain = m_turbo / m_res - 1.0;

    exp.compare(
        "median bit-rate efficiency gain",
        "15%",
        pct(gain),
        (0.05..=0.40).contains(&gain),
    );
    exp.compare(
        "TurboCA dominates across the CDF",
        "stochastic dominance",
        format!(
            "p25 {} vs {}, p75 {} vs {}",
            f(c_turbo.quantile(0.25).unwrap()),
            f(c_res.quantile(0.25).unwrap()),
            f(c_turbo.quantile(0.75).unwrap()),
            f(c_res.quantile(0.75).unwrap())
        ),
        c_turbo.quantile(0.25).unwrap() >= c_res.quantile(0.25).unwrap()
            && c_turbo.quantile(0.75).unwrap() >= c_res.quantile(0.75).unwrap(),
    );
    exp.series("cdf-reservedca", c_res.series(50));
    exp.series("cdf-turboca", c_turbo.series(50));
    exp.exit();
}
