//! Ablation — the planner landscape (§4.2): TurboCA against every
//! baseline category the paper surveys, on one crowded office floor:
//! plan quality (ln NetP on the true network), channel switches, and
//! client-seconds of disruption (the §4.3.1 cost TurboCA is designed to
//! contain).

use bench::harness::{f, Experiment};
use wifi_core::chanassign::baselines::ChannelHopping;
use wifi_core::chanassign::metrics::{net_p_ln, MetricParams};
use wifi_core::chanassign::{least_congested, random_plan};
use wifi_core::netsim::deployment::{to_view, ViewOptions};
use wifi_core::netsim::disruption::{assess, DisruptionModel};
use wifi_core::netsim::topology;
use wifi_core::prelude::*;

fn main() {
    let mut exp =
        Experiment::from_args("abl_baselines", "planner comparison incl. channel hopping");
    // The `--perf` workload unit here is one planner producing a
    // full-floor plan (floor set-up included, as it always was), for as
    // many rounds as the sample takes.
    let ((view, caps, plans), _) = exp.timed_repeating(
        "abl_baselines_plans",
        || {
            let mut rng = Rng::new(71);
            let topo = topology::grid(6, 5, 12.0, 2.0, Band::Band5, &mut rng);
            let (view, caps) = to_view(&topo, &ViewOptions::default(), &mut rng);
            let mut hop = ChannelHopping::new(Width::W40, 72);
            let plans = vec![
                ("random", random_plan(&view, Width::W40, &mut Rng::new(73))),
                ("least-congested", least_congested(&view, Width::W40)),
                ("hopping (one epoch)", hop.next_epoch(&view)),
                ("ReservedCA", ReservedCa::new(Width::W40).run(&view)),
                (
                    "TurboCA",
                    TurboCa::new(74).run(&view, ScheduleTier::Slow).plan,
                ),
            ];
            (view, caps, plans)
        },
        |(_, _, plans)| plans.len() as u64,
    );
    let clients: Vec<usize> = caps.iter().map(|c| c.len()).collect();
    let params = MetricParams::default();
    let model = DisruptionModel::default();

    let mut scores = Vec::new();
    for (name, plan) in &plans {
        let score = net_p_ln(&params, &view, plan);
        let d = assess(&model, &view, plan, &clients, &mut Rng::new(75));
        scores.push((name.to_string(), score, d.clone()));
        exp.compare(
            format!("{name}: ln NetP / switches / client-sec lost"),
            "TurboCA best on quality AND cheapest per switch",
            format!("{} / {} / {}", f(score), d.switches, f(d.client_seconds)),
            score.is_finite() || *name == "random",
        );
    }
    let turbo = scores.last().unwrap();
    let best_other = scores[..scores.len() - 1]
        .iter()
        .map(|(_, s, _)| *s)
        .fold(f64::NEG_INFINITY, f64::max);
    exp.compare(
        "TurboCA beats every baseline on NetP",
        "§4.2's motivation",
        format!("{} vs best-other {}", f(turbo.1), f(best_other)),
        turbo.1 >= best_other,
    );
    // Hopping's recurring cost: per-epoch disruption × 12 epochs/hour
    // dwarfs TurboCA's one-shot cost.
    let hop_d = &scores[2].2;
    let hourly_hop = hop_d.client_seconds * 12.0;
    exp.compare(
        "hopping hourly disruption vs TurboCA one-shot",
        "hopping churns clients continuously",
        format!(
            "{} vs {} client-sec",
            f(hourly_hop),
            f(turbo.2.client_seconds)
        ),
        hourly_hop > turbo.2.client_seconds,
    );
    exp.exit();
}
