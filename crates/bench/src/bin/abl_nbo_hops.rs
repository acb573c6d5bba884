//! Ablation — NBO hop limit `i` (DESIGN.md): i = 0 is fast but greedy
//! w.r.t. current assignments; larger i ignores more of the initial
//! plan, escaping local optima at the cost of more switches. This is
//! the trade-off behind TurboCA's tiered 15-min/3-h/daily schedule.

use bench::harness::{f, Experiment};
use wifi_core::chanassign::metrics::{net_p_ln, MetricParams};
use wifi_core::chanassign::turboca::nbo;
use wifi_core::netsim::deployment::{to_view, SeedChannels, ViewOptions};
use wifi_core::netsim::topology;
use wifi_core::prelude::*;

fn main() {
    let mut exp = Experiment::from_args("abl_nbo_hops", "NBO hop limit: plan quality vs churn");
    let mut rng = Rng::new(31);
    // A crowded floor whose APs all sit on one channel (fresh deploy).
    let topo = topology::grid(6, 5, 12.0, 2.0, Band::Band5, &mut rng);
    let (view, _) = to_view(
        &topo,
        &ViewOptions {
            seed_channels: SeedChannels::AllDefault,
            ..ViewOptions::default()
        },
        &mut rng,
    );
    let params = MetricParams::default();
    let runs = 6;
    // The `--perf` workload unit is one NBO optimization pass: `runs`
    // per hop limit, for as many rounds as the sample takes.
    let (rows, _) = exp.timed_repeating(
        "abl_nbo_passes",
        || {
            let mut rows = Vec::new();
            for i in 0..=2usize {
                let mut best = f64::NEG_INFINITY;
                let mut switches = 0usize;
                let mut r = Rng::new(32 + i as u64);
                for _ in 0..runs {
                    let plan = nbo(&params, &view, i, &mut r);
                    let score = net_p_ln(&params, &view, &plan);
                    if score > best {
                        best = score;
                        switches = plan.switches_from_current(&view);
                    }
                }
                rows.push((i, best, switches));
            }
            rows
        },
        |rows| (rows.len() * runs) as u64,
    );
    for &(i, score, switches) in &rows {
        exp.compare(
            format!("i={i}: ln NetP / switches"),
            "quality rises with i",
            format!("{} / {}", f(score), switches),
            score.is_finite(),
        );
    }
    exp.compare(
        "i>=1 matches or beats i=0 on plan quality",
        "escapes local optima",
        format!("{} vs {}", f(rows[1].1.max(rows[2].1)), f(rows[0].1)),
        rows[1].1.max(rows[2].1) >= rows[0].1 - 1e-9,
    );
    exp.series(
        "netp-by-hop",
        rows.iter().map(|&(i, s, _)| (i as f64, s)).collect(),
    );
    exp.exit();
}
