//! Table 2 — daily and peak-hour usage (TB) at UNet and MNet under
//! ReservedCA and TurboCA.
//!
//! The paper's reading: UNet is uplink-limited, so both planners deliver
//! the same usage (daily ≈ 11.3/10.7 TB, peak ≈ 0.58/0.54); MNet is
//! demand-limited off-peak (daily ≈ 0.56 both) but capacity-limited at
//! peak, where TurboCA delivers 27 % more (0.0588 → 0.0748 TB).
//!
//! Absolute magnitudes are calibration targets (client demand levels are
//! not derivable from the paper); the *validated* quantity is the
//! capacity ratio between the planners, which comes from the plans.

use bench::harness::{close, f, pct, Experiment};
use bench::turboca_eval::evaluate_profile;
use wifi_core::netsim::deployment::DeploymentProfile;

/// Campus/museum hourly demand envelopes (fraction of peak demand).
const UNET_DEMAND: [f64; 24] = [
    0.25, 0.2, 0.18, 0.18, 0.2, 0.25, 0.4, 0.6, 0.85, 0.95, 1.0, 1.0, 0.95, 1.0, 1.0, 0.95, 0.9,
    0.85, 0.8, 0.75, 0.65, 0.5, 0.4, 0.3,
];
const MNET_DEMAND: [f64; 24] = [
    0.02, 0.02, 0.02, 0.02, 0.02, 0.02, 0.05, 0.1, 0.3, 0.6, 0.85, 1.0, 1.0, 0.95, 0.9, 0.8, 0.6,
    0.3, 0.1, 0.05, 0.02, 0.02, 0.02, 0.02,
];

/// Deliver demand against a capacity and an optional uplink cap,
/// returning (daily TB, peak-hour TB).
fn deliver(
    demand_peak_tb_per_h: f64,
    envelope: &[f64; 24],
    capacity_tb_per_h: f64,
    uplink_tb_per_h: Option<f64>,
) -> (f64, f64) {
    let mut daily = 0.0;
    let mut peak: f64 = 0.0;
    for &frac in envelope {
        let mut d = (demand_peak_tb_per_h * frac).min(capacity_tb_per_h);
        if let Some(u) = uplink_tb_per_h {
            d = d.min(u);
        }
        daily += d;
        peak = peak.max(d);
    }
    (daily, peak)
}

fn main() {
    let mut exp = Experiment::from_args("tab02", "daily and peak-hour usage (TB), UNet & MNet");

    // -- MNet: capacity-limited at peak ---------------------------------
    let mnet = evaluate_profile(DeploymentProfile::MNET, 21);
    let cap_res: f64 = mnet.reserved.ap_goodput_mbps.iter().sum();
    let cap_turbo: f64 = mnet.turbo.ap_goodput_mbps.iter().sum();
    let ratio = cap_turbo / cap_res;
    // Calibrate: ReservedCA peak capacity = the paper's 0.0588 TB/h.
    let k = 0.0588 / cap_res;
    let demand_peak = 0.080; // TB/h — above ReservedCA capacity at peak
    let (res_daily, res_peak) = deliver(demand_peak, &MNET_DEMAND, k * cap_res, None);
    let (turbo_daily, turbo_peak) = deliver(demand_peak, &MNET_DEMAND, k * cap_turbo, None);

    exp.compare(
        "MNet planner capacity ratio (TurboCA/ReservedCA)",
        "1.27 (peak +27%)",
        f(ratio),
        close(ratio, 1.27, 0.2),
    );
    exp.compare(
        "MNet daily ReservedCA (TB)",
        "0.562",
        f(res_daily),
        close(res_daily, 0.562, 0.25),
    );
    exp.compare(
        "MNet daily TurboCA (TB)",
        "0.564",
        f(turbo_daily),
        close(turbo_daily, 0.564, 0.25),
    );
    exp.compare(
        "MNet daily similar across planners",
        "demand-limited",
        pct(turbo_daily / res_daily - 1.0),
        (turbo_daily / res_daily - 1.0).abs() < 0.15,
    );
    exp.compare(
        "MNet peak ReservedCA (TB)",
        "0.0588",
        format!("{res_peak:.4}"),
        close(res_peak, 0.0588, 0.1),
    );
    exp.compare(
        "MNet peak gain under TurboCA",
        "+27%",
        pct(turbo_peak / res_peak - 1.0),
        (0.10..=0.45).contains(&(turbo_peak / res_peak - 1.0)),
    );

    // -- UNet: uplink-limited --------------------------------------------
    let unet = evaluate_profile(DeploymentProfile::UNET, 22);
    let ucap_res: f64 = unet.reserved.ap_goodput_mbps.iter().sum();
    let ucap_turbo: f64 = unet.turbo.ap_goodput_mbps.iter().sum();
    // Calibrate demand/capacity so the uplink (0.584 TB/h ≈ 1.3 Gbps)
    // binds at busy hours for both planners.
    let uplink = 0.584;
    let ku = (uplink * 1.6) / ucap_res; // capacity well above the uplink
    let u_demand_peak = uplink * 1.4;
    let (ur_daily, ur_peak) = deliver(u_demand_peak, &UNET_DEMAND, ku * ucap_res, Some(uplink));
    let (ut_daily, ut_peak) = deliver(u_demand_peak, &UNET_DEMAND, ku * ucap_turbo, Some(uplink));

    exp.compare(
        "UNet daily ReservedCA (TB)",
        "11.3",
        f(ur_daily),
        close(ur_daily, 11.3, 0.2),
    );
    exp.compare(
        "UNet daily TurboCA (TB)",
        "10.7",
        f(ut_daily),
        close(ut_daily, 10.7, 0.2),
    );
    exp.compare(
        "UNet peak equal across planners (uplink-bound)",
        "0.584 vs 0.542",
        format!("{ur_peak:.3} vs {ut_peak:.3}"),
        (ur_peak - ut_peak).abs() < 0.05,
    );
    exp.compare(
        "UNet usage insensitive to planner",
        "uplink is the bottleneck",
        pct(ut_daily / ur_daily - 1.0),
        (ut_daily / ur_daily - 1.0).abs() < 0.1,
    );
    exp.exit();
}
