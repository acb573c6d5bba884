//! Fig. 15 — per-client mean A-MPDU aggregate size, 30 clients:
//! FastACK 33–56 MPDUs vs baseline 17–41 (+36–94 %), with UDP as the
//! connectionless upper bound.

use bench::arms;
use bench::harness::{f, pct, Experiment};
use wifi_core::prelude::*;

fn main() {
    let mut exp = Experiment::from_args("fig15", "802.11 aggregation size per client (30 clients)");
    let [base, fast, udp] = exp.run_arms(arms::fig15());

    let sorted = |r: &TestbedReport| {
        let mut v = r.client_aggregation.clone();
        v.sort_by(|a, b| a.total_cmp(b));
        v
    };
    let b = sorted(&base);
    let fa = sorted(&fast);
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let gain = mean(&fa) / mean(&b) - 1.0;

    exp.compare(
        "baseline aggregation range",
        "17-41 MPDUs",
        format!("{}-{} (mean {})", f(b[0]), f(b[29]), f(mean(&b))),
        b[29] < 64.0 && mean(&b) < 45.0,
    );
    exp.compare(
        "FastACK aggregation range",
        "33-56 MPDUs",
        format!("{}-{} (mean {})", f(fa[0]), f(fa[29]), f(mean(&fa))),
        mean(&fa) > 33.0,
    );
    exp.compare(
        "mean aggregation improvement",
        "+36-94%",
        pct(gain),
        gain > 0.25,
    );
    exp.compare(
        "FastACK dominates per client",
        "larger aggregates throughout",
        format!("min {} vs {}", f(fa[0]), f(b[0])),
        mean(&fa) > mean(&b) && fa[29] > b[29],
    );
    // UDP upper bound: connectionless saturation, measured.
    let udp_mean = udp.client_aggregation.iter().sum::<f64>() / 30.0;
    exp.compare(
        "UDP upper bound",
        "~64 (BlockAck window)",
        f(udp_mean),
        udp_mean > mean(&fa) && udp_mean > 55.0,
    );
    exp.series(
        "agg-baseline-sorted",
        b.iter().enumerate().map(|(i, &v)| (i as f64, v)).collect(),
    );
    exp.series(
        "agg-fastack-sorted",
        fa.iter().enumerate().map(|(i, &v)| (i as f64, v)).collect(),
    );
    exp.exit();
}
