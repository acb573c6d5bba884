//! Fig. 8 — CDF of AP-observed TCP latency at MNet: TurboCA cuts the
//! median by ~40 % vs ReservedCA, while the > 400 ms pathological tail
//! (non-responsive clients) is planner-independent.

use bench::harness::{f, pct, Experiment};
use bench::turboca_eval::evaluate_profile;
use wifi_core::netsim::deployment::DeploymentProfile;
use wifi_core::telemetry::stats::Cdf;

fn main() {
    let mut exp = Experiment::from_args("fig08", "TCP latency CDF, ReservedCA vs TurboCA (MNet)");
    let ev = evaluate_profile(DeploymentProfile::MNET, 81);
    let c_res = Cdf::new(&ev.reserved.tcp_latency_ms);
    let c_turbo = Cdf::new(&ev.turbo.tcp_latency_ms);
    let m_res = c_res.quantile(0.5).unwrap();
    let m_turbo = c_turbo.quantile(0.5).unwrap();
    let drop = 1.0 - m_turbo / m_res;

    exp.compare(
        "median TCP latency drop under TurboCA",
        "40%",
        pct(drop),
        (0.15..=0.65).contains(&drop),
    );
    exp.compare(
        "medians",
        "TurboCA < ReservedCA",
        format!("{} < {} ms", f(m_turbo), f(m_res)),
        m_turbo < m_res,
    );
    // The >400ms tail mass is similar for both (stuck clients are not a
    // medium-availability problem).
    let tail_res = 1.0 - c_res.at(400.0);
    let tail_turbo = 1.0 - c_turbo.at(400.0);
    exp.compare(
        ">400ms tail mass planner-independent",
        "similar",
        format!("{} vs {}", pct(tail_res), pct(tail_turbo)),
        (tail_res - tail_turbo).abs() < 0.02,
    );
    exp.series("cdf-reservedca", c_res.series(50));
    exp.series("cdf-turboca", c_turbo.series(50));
    exp.exit();
}
