//! `planner_campus`: `chanassign` alone on three large views. Also
//! home of the `chanassign` kernels, which `fleet_epoch` runs on its
//! own (small) views.

use super::{ns_per_op, LayerValues, RepSummary, Workload};
use crate::digest::Digest;
use crate::stats::median;
use crate::trace::Tracer;
use std::hint::black_box;
use wifi_core::chanassign::model::{NetworkView, Plan};
use wifi_core::chanassign::turboca::{fallback_channels, PlanResult, ScheduleTier, TurboCa};
use wifi_core::chanassign::{acc, nbo, net_p_ln, node_p_ln, MetricParams};
use wifi_core::netsim::deployment::{to_view, ViewOptions};
use wifi_core::netsim::topology;
use wifi_core::phy::channels::{Band, Channel};
use wifi_core::sim::{derive_stream_seed, Rng};

const APS_PER_VIEW: usize = 100;
/// Floor area per AP, as in `fleet::ManagedNetwork::generate`.
const M2_PER_AP: f64 = 350.0;
/// Tier planned on each view of a rep, in order.
const TIERS: [ScheduleTier; 3] = [ScheduleTier::Fast, ScheduleTier::Fast, ScheduleTier::Slow];

/// Candidate inputs drawn per seed; the one of median [`scan_load`] is
/// used.
const CANDIDATES: u64 = 32;

/// Of [`CANDIDATES`] seed-derived candidate seeds, the one whose input
/// has the median `load`.
pub fn median_load_seed(seed: u64, stream: u64, load: impl Fn(u64) -> u64) -> u64 {
    let mut candidates: Vec<(u64, u64)> = (0..CANDIDATES)
        .map(|j| derive_stream_seed(seed, stream + j))
        .map(|candidate| (load(candidate), candidate))
        .collect();
    candidates.sort_unstable();
    candidates[candidates.len() / 2].1
}

pub struct PlannerCampus {
    /// Seed of each view's topology, its view and its planner.
    view_seeds: Vec<u64>,
}

impl PlannerCampus {
    /// Three random 100-AP areas cost 3.9-5.3 s to plan depending on how
    /// dense they came out (plans per second 23.5 % apart over ten
    /// seeds, interquartile; 7 % with the selection), and the driver
    /// that accepts the benchmark compares runs on different seeds (see
    /// `catalog::BOUND`). So each view is, of [`CANDIDATES`]
    /// seed-derived candidates, the one whose predicted planning work is
    /// the median: still made from the seed, and of typical density on
    /// every seed.
    pub fn new(seed: u64) -> PlannerCampus {
        let view_seeds = (0..TIERS.len() as u64)
            .map(|k| {
                median_load_seed(seed, 0x1000 + k * CANDIDATES, |view_seed| {
                    scan_load(&build(view_seed, &mut Tracer::off(1)).0)
                })
            })
            .collect();
        PlannerCampus { view_seeds }
    }
}

/// One 100-AP view and the planner that will run on it.
fn build(view_seed: u64, t: &mut Tracer) -> (NetworkView, TurboCa) {
    let mut rng = Rng::new(view_seed);
    let side = (APS_PER_VIEW as f64 * M2_PER_AP).sqrt();
    let topo = t.span("netsim.topology", |_| {
        topology::random_area(APS_PER_VIEW, side, side, Band::Band5, &mut rng)
    });
    let (view, _caps) = t.span("netsim.to_view", |_| {
        to_view(&topo, &ViewOptions::default(), &mut rng)
    });
    (view, TurboCa::new(rng.next_u64()))
}

/// Predicted work of one planning pass over `view`, from the input
/// alone: the (candidate channel of AP v, AP x whose NodeP that
/// candidate changes, AP y that x is compared against) triples an
/// exhaustive pass examines.
pub fn scan_load(view: &NetworkView) -> u64 {
    let scans_at = |x: usize| 1 + view.aps[x].neighbors.len() as u64;
    (0..view.len())
        .map(|v| {
            let affected: u64 = scans_at(v)
                + view.aps[v]
                    .neighbors
                    .iter()
                    .map(|&n| scans_at(n))
                    .sum::<u64>();
            view.candidates(v).len() as u64 * affected
        })
        .sum()
}

pub struct PlannerOut {
    views: Vec<NetworkView>,
    results: Vec<PlanResult>,
}

fn digest_plan(d: &mut Digest, plan: &Plan) {
    let channel = |d: &mut Digest, c: &Channel| {
        d.u64(u64::from(c.primary));
        d.u64(u64::from(c.width.mhz()));
    };
    for c in &plan.channels {
        channel(d, c);
    }
    for f in &plan.fallback {
        match f {
            Some(c) => channel(d, c),
            None => d.u64(0),
        }
    }
}

impl Workload for PlannerCampus {
    type Input = Vec<(NetworkView, TurboCa)>;
    type Output = PlannerOut;

    fn setup(&self, t: &mut Tracer) -> Self::Input {
        self.view_seeds.iter().map(|&s| build(s, t)).collect()
    }

    fn run(&self, input: Self::Input, t: &mut Tracer) -> PlannerOut {
        let (views, planners): (Vec<_>, Vec<_>) = input.into_iter().unzip();
        let mut results = Vec::new();
        for ((view, mut planner), tier) in views.iter().zip(planners).zip(TIERS) {
            if !results.is_empty() {
                t.lap();
            }
            let name = match tier {
                ScheduleTier::Slow => "chanassign.run_slow",
                _ => "chanassign.run_fast",
            };
            results.push(t.span(name, |_| planner.run(view, tier)));
        }
        PlannerOut { views, results }
    }

    fn summarise(&self, out: &PlannerOut) -> RepSummary {
        let mut d = Digest::new();
        let mut failures = Vec::new();
        for (i, r) in out.results.iter().enumerate() {
            digest_plan(&mut d, &r.plan);
            d.f64(r.net_p_ln);
            d.f64(r.incumbent_net_p_ln);
            d.u64(r.runs as u64);
            if r.net_p_ln < r.incumbent_net_p_ln {
                failures.push(format!(
                    "plan {i}: ln NetP {} below the incumbent's {}",
                    r.net_p_ln, r.incumbent_net_p_ln
                ));
            }
        }
        RepSummary {
            digest: d.finish(),
            work: out.results.len() as u64,
            ops: out.results.len() as u64,
            failures,
        }
    }

    fn layers(&self, out: &PlannerOut, t: &mut Tracer, m: &mut LayerValues) -> Vec<String> {
        let n = out.results.len() as f64;
        m.insert("chanassign.plans", n);
        m.insert(
            "chanassign.nbo_runs",
            out.results.iter().map(|r| r.runs as f64).sum(),
        );
        m.insert(
            "chanassign.plans_improved",
            out.results.iter().filter(|r| r.improved).count() as f64,
        );
        m.insert(
            "chanassign.switches",
            out.results
                .iter()
                .zip(&out.views)
                .map(|(r, v)| r.plan.switches_from_current(v) as f64)
                .sum(),
        );
        m.insert(
            "chanassign.netp_ln",
            out.results.iter().map(|r| r.net_p_ln).sum::<f64>() / n,
        );
        let ms = |name: &str| -> Vec<f64> {
            t.durations_ns(name)
                .iter()
                .map(|&ns| ns as f64 / 1e6)
                .collect()
        };
        m.insert(
            "chanassign.run_fast_ms_p50",
            median(&ms("chanassign.run_fast")),
        );
        m.insert(
            "chanassign.run_slow_ms_p50",
            median(&ms("chanassign.run_slow")),
        );
        m.insert(
            "netsim.to_view_ms",
            ms("netsim.to_view").iter().sum::<f64>() / n,
        );
        let views: Vec<&NetworkView> = out.views.iter().collect();
        chanassign_kernels(&views, t, m);
        Vec::new()
    }
}

/// The `chanassign` kernels: each public planner function called
/// directly over every AP of `views`, priced per call; one NBO pass per
/// hop limit on each view.
pub fn chanassign_kernels(views: &[&NetworkView], t: &mut Tracer, m: &mut LayerValues) {
    let params = MetricParams::default();
    let aps: u64 = views.iter().map(|v| v.len() as u64).sum();
    let mean_per_ap = |f: &dyn Fn(&NetworkView, usize) -> usize| -> f64 {
        views
            .iter()
            .map(|view| (0..view.len()).map(|v| f(view, v)).sum::<usize>())
            .sum::<usize>() as f64
            / aps as f64
    };
    m.insert(
        "chanassign.candidates_per_ap_mean",
        mean_per_ap(&|view, v| view.candidates(v).len()),
    );
    m.insert(
        "chanassign.neighbors_per_ap_mean",
        mean_per_ap(&|view, v| view.aps[v].neighbors.len()),
    );

    // Everyone on their current channel: the i = 0 regime every tier
    // ends with.
    let assigned: Vec<Vec<Option<Channel>>> = views
        .iter()
        .map(|view| view.aps.iter().map(|a| Some(a.current)).collect())
        .collect();
    let plans: Vec<Plan> = views.iter().map(|view| Plan::current(view)).collect();
    let mut per_call_us =
        |name: &'static str, key: &'static str, calls: u64, rounds: usize, f: &mut dyn FnMut()| {
            let ns = t.span(name, |_| ns_per_op(calls, rounds, f));
            m.insert(key, ns / 1e3);
        };
    per_call_us(
        "kernel.chanassign.acc",
        "chanassign.acc_us_per_call",
        aps,
        1,
        &mut || {
            for (view, assigned) in views.iter().zip(&assigned) {
                for v in 0..view.len() {
                    black_box(acc(&params, view, assigned, v));
                }
            }
        },
    );
    per_call_us(
        "kernel.chanassign.node_p_ln",
        "chanassign.node_p_ln_us_per_call",
        aps,
        5,
        &mut || {
            for (view, assigned) in views.iter().zip(&assigned) {
                for v in 0..view.len() {
                    black_box(node_p_ln(&params, view, assigned, v, view.aps[v].current));
                }
            }
        },
    );
    per_call_us(
        "kernel.chanassign.net_p_ln",
        "chanassign.net_p_ln_us_per_call",
        views.len() as u64,
        5,
        &mut || {
            for (view, plan) in views.iter().zip(&plans) {
                black_box(net_p_ln(&params, view, plan));
            }
        },
    );
    per_call_us(
        "kernel.chanassign.candidates",
        "chanassign.candidates_us_per_call",
        aps,
        5,
        &mut || {
            for view in views {
                for v in 0..view.len() {
                    black_box(view.candidates(v));
                }
            }
        },
    );
    per_call_us(
        "kernel.chanassign.hop_distances",
        "chanassign.hop_distances_us_per_call",
        aps,
        5,
        &mut || {
            for view in views {
                for v in 0..view.len() {
                    black_box(view.hop_distances(v));
                }
            }
        },
    );
    per_call_us(
        "kernel.chanassign.fallback_channels",
        "chanassign.fallback_channels_us_per_call",
        views.len() as u64,
        5,
        &mut || {
            for (view, plan) in views.iter().zip(&plans) {
                black_box(fallback_channels(view, &plan.channels));
            }
        },
    );

    for (hop, name, key) in [
        (0, "kernel.chanassign.nbo_hop0", "chanassign.nbo_hop0_ms"),
        (1, "kernel.chanassign.nbo_hop1", "chanassign.nbo_hop1_ms"),
        (2, "kernel.chanassign.nbo_hop2", "chanassign.nbo_hop2_ms"),
    ] {
        let mut rng = Rng::new(hop as u64);
        let ns = t.span(name, |_| {
            ns_per_op(views.len() as u64, 1, || {
                for view in views {
                    black_box(nbo(&params, view, hop, &mut rng));
                }
            })
        });
        m.insert(key, ns / 1e6);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_candidate_of_median_load_is_kept() {
        let mut seeds: Vec<u64> = (0..CANDIDATES)
            .map(|j| derive_stream_seed(7, 0x40 + j))
            .collect();
        // With a candidate's seed as its load, the pick is the upper
        // median of the seeds; with equal loads, the same by tie-break.
        seeds.sort_unstable();
        let upper_median = seeds[CANDIDATES as usize / 2];
        assert_eq!(
            median_load_seed(7, 0x40, |candidate| candidate),
            upper_median
        );
        assert_eq!(median_load_seed(7, 0x40, |_| 1), upper_median);
    }

    #[test]
    fn a_denser_view_predicts_more_scans() {
        let (view, _) = build(1, &mut Tracer::off(1));
        let mut sparser = view.clone();
        for ap in &mut sparser.aps {
            ap.neighbors.truncate(1);
        }
        assert!(scan_load(&sparser) < scan_load(&view));
    }
}
