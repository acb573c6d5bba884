//! Ablation — the channel-switch penalty (§4.5.1): with the penalty off,
//! the planner chases transient optima and churns client-carrying APs;
//! with it on, switches concentrate on idle APs.

use bench::harness::Experiment;
use wifi_core::chanassign::metrics::MetricParams;
use wifi_core::chanassign::turboca::TurboCa;
use wifi_core::netsim::deployment::{to_view, ViewOptions};
use wifi_core::netsim::topology;
use wifi_core::prelude::*;

fn switches_with(params: MetricParams, seed: u64) -> (usize, usize) {
    let mut rng = Rng::new(seed);
    let topo = topology::grid(5, 5, 13.0, 2.0, Band::Band5, &mut rng);
    let (view, _) = to_view(&topo, &ViewOptions::default(), &mut rng);
    let mut tca = TurboCa::new(seed);
    tca.params = params;
    let plan = tca.run(&view, ScheduleTier::Medium).plan;
    let total = plan.switches_from_current(&view);
    let loaded = plan
        .channels
        .iter()
        .zip(view.aps.iter())
        .filter(|(c, a)| **c != a.current && a.has_clients)
        .count();
    (total, loaded)
}

fn main() {
    let mut exp = Experiment::from_args(
        "abl_penalty",
        "switch penalty on/off: churn on client-carrying APs",
    );
    let with = MetricParams::default();
    let without = MetricParams {
        switch_penalty_with_clients: 0.0,
        switch_penalty_idle: 0.0,
        penalty_2_4ghz_extra: 0.0,
        high_util_extra: 0.0,
    };
    // The `--perf` workload unit is one full TurboCA planning run: two
    // per seed, for as many rounds as the sample takes.
    let seeds = [41u64, 42, 43, 44];
    let ((churn_with, churn_without), _) = exp.timed_repeating(
        "abl_penalty_plans",
        || {
            let (mut churn_with, mut churn_without) = (0usize, 0usize);
            for seed in seeds {
                churn_with += switches_with(with.clone(), seed).1;
                churn_without += switches_with(without.clone(), seed).1;
            }
            (churn_with, churn_without)
        },
        |_| 2 * seeds.len() as u64,
    );
    exp.compare(
        "client-carrying switches, penalty off vs on",
        "penalty protects connected clients",
        format!("{churn_without} vs {churn_with}"),
        churn_with <= churn_without,
    );
    exp.series(
        "loaded-switches",
        vec![(0.0, churn_with as f64), (1.0, churn_without as f64)],
    );
    exp.exit();
}
