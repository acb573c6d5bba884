//! Fig. 14 — sender congestion windows, 10 concurrent flows: with
//! baseline TCP not every flow opens to the OS cap of 770 segments;
//! with FastACK every flow does, quickly.

use bench::arms;
use bench::harness::{f, Experiment};
use wifi_core::prelude::*;

/// One flow's cwnd curve, (seconds, segments), off the arm's timeline.
fn cwnd(r: &TestbedReport, c: usize) -> Vec<(f64, f64)> {
    let tl = r.timeline.as_ref().expect("fig14 arms sample a timeline");
    tl.range(
        &format!("tcp.flow{c}.cwnd_segments"),
        SimTime::ZERO,
        SimTime::MAX,
    )
    .into_iter()
    .map(|(at, w)| (at.as_secs_f64(), w))
    .collect()
}

fn main() {
    let mut exp = Experiment::from_args("fig14", "TCP cwnd traces, baseline vs FastACK (10 flows)");
    let [base, fast] = exp.run_arms(arms::fig14());
    let curves =
        |r: &TestbedReport| -> Vec<Vec<(f64, f64)>> { (0..10).map(|c| cwnd(r, c)).collect() };
    let (base, fast) = (curves(&base), curves(&fast));

    // Final-second cwnd per flow.
    let final_cwnd = |curves: &[Vec<(f64, f64)>]| -> Vec<f64> {
        curves
            .iter()
            .map(|curve| curve.last().map_or(0.0, |&(_, w)| w))
            .collect()
    };
    let base_final = final_cwnd(&base);
    let fast_final = final_cwnd(&fast);
    let at_cap = |xs: &[f64]| xs.iter().filter(|&&w| w >= 700.0).count();

    exp.compare(
        "FastACK flows reaching the 770-segment cap",
        "all 10",
        format!("{}/10", at_cap(&fast_final)),
        at_cap(&fast_final) >= 9,
    );
    exp.compare(
        "baseline flows reaching the cap",
        "not all",
        format!("{}/10", at_cap(&base_final)),
        at_cap(&base_final) < at_cap(&fast_final),
    );
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    exp.compare(
        "mean final cwnd",
        "FastACK opens windows fully",
        format!(
            "{} vs {} segments",
            f(mean(&fast_final)),
            f(mean(&base_final))
        ),
        mean(&fast_final) > mean(&base_final),
    );
    // FastACK opens fast: mean cwnd at t=2s already near cap.
    let early_fast: Vec<f64> = fast
        .iter()
        .flatten()
        .filter(|(t, _)| (1.9..2.1).contains(t))
        .map(|&(_, w)| w)
        .collect();
    exp.compare(
        "FastACK cwnd at t=2s",
        "opens up quickly",
        format!("{} segments", f(mean(&early_fast))),
        mean(&early_fast) > 500.0,
    );
    // Dump traces for flows 0..3 of each.
    for c in 0..3 {
        exp.series(format!("cwnd-baseline-flow{c}"), base[c].clone());
        exp.series(format!("cwnd-fastack-flow{c}"), fast[c].clone());
    }
    exp.exit();
}
