//! Test-only oracle: TurboCA (§4.4) stated once, naively, over the
//! exchange types — channel-number maps, neighbour lists and
//! `Channel::overlaps` — with none of `dense`'s slot tables, maintained
//! contender counts or bounds. The proptests at the bottom hold the
//! planner to it bit for bit.

use crate::dense::{HIGH_UTIL_THRESHOLD, IDLE_EPSILON_LOAD};
use crate::metrics::MetricParams;
use crate::model::{NetworkView, Plan};
use crate::turboca::{fallback_channels, ScheduleTier};
use phy80211::channels::{Band, Channel, Width};
use sim::Rng;

/// `ln NodeP(v, cand)` of §4.4.1 under `plan` (`None` = in ψ): for each
/// loaded width `b`, `load(b) · ln channel_metric`, where
/// `channel_metric = airtime × capacity − penalty`, airtime is the
/// minimum over sub-channels of `(1 − busy) / (1 + neighbours assigned
/// over it)` and capacity the mean quality × `b`/20; −∞ as soon as a
/// channel_metric is ≤ 0. The penalty is §4.5.1's: 0 for staying, more
/// with clients, more again on 2.4 GHz, and more onto a channel over 90 %
/// busy.
fn node_p_ln(
    params: &MetricParams,
    view: &NetworkView,
    plan: &[Option<Channel>],
    v: usize,
    cand: Channel,
) -> f64 {
    let ap = &view.aps[v];
    let mut penalty = 0.0;
    if cand != ap.current {
        penalty = if ap.has_clients {
            params.switch_penalty_with_clients
        } else {
            params.switch_penalty_idle
        };
        if view.band == Band::Band2_4 && ap.has_clients {
            penalty += params.penalty_2_4ghz_extra;
        }
        let subs = cand.subchannels().unwrap_or_default();
        let busiest = subs
            .iter()
            .map(|&s| ap.external_busy_on(s))
            .fold(0.0, f64::max);
        if busiest > HIGH_UTIL_THRESHOLD {
            penalty += params.high_util_extra;
        }
    }
    let mut total = 0.0;
    for &b in cand.width.up_to() {
        let mut load = ap.load.at_width(b);
        if b == Width::W20 {
            load = load.max(IDLE_EPSILON_LOAD);
        }
        if load <= 0.0 {
            continue;
        }
        let Ok(bond) = Channel::new(cand.band, cand.primary, b) else {
            return f64::NEG_INFINITY;
        };
        let subs = bond.subchannels().expect("a legal channel");
        let share = |s: u16| {
            let sub = Channel::new(bond.band, s, Width::W20).expect("a sub-channel");
            let over = |n: &&usize| matches!(plan.get(**n), Some(Some(c)) if c.overlaps(&sub));
            let contenders = ap.neighbors.iter().filter(over).count();
            (1.0 - ap.external_busy_on(s)).max(0.0) / (1.0 + contenders as f64)
        };
        let airtime = subs.iter().map(|&s| share(s)).fold(1.0, f64::min);
        let quality = subs.iter().map(|&s| ap.quality_on(s)).sum::<f64>() / subs.len() as f64;
        let metric = airtime * (quality * (b.mhz() as f64 / 20.0)) - penalty;
        if metric <= 0.0 {
            return f64::NEG_INFINITY;
        }
        total += load * metric.ln();
    }
    total
}

/// `ln NetP`: every AP's `ln NodeP` on its channel of `plan`, summed.
fn net_p_ln(params: &MetricParams, view: &NetworkView, plan: &Plan) -> f64 {
    let channels: Vec<Option<Channel>> = plan.channels.iter().copied().map(Some).collect();
    (0..view.len()).fold(0.0, |total, v| {
        total + node_p_ln(params, view, &channels, v, plan.channels[v])
    })
}

/// ACC(v, ψ): the first candidate of highest `ln NodeP` of `v` on it
/// plus, in list order, that of every neighbour with a channel.
fn acc(
    params: &MetricParams,
    view: &NetworkView,
    assigned: &[Option<Channel>],
    v: usize,
) -> Channel {
    let mut trial = assigned.to_vec();
    let mut score = |cand| {
        trial[v] = Some(cand);
        let own = node_p_ln(params, view, &trial, v, cand);
        let neighbors = view.aps[v].neighbors.iter();
        let theirs = neighbors.filter_map(|&n| {
            let nc = trial.get(n).copied().flatten()?;
            Some(node_p_ln(params, view, &trial, n, nc))
        });
        theirs.fold(own, |total, np| total + np)
    };
    let cands = view.candidates(v);
    let mut best = (score(cands[0]), cands[0]);
    for &cand in &cands[1..] {
        let s = score(cand);
        if s > best.0 {
            best = (s, cand);
        }
    }
    best.1
}

/// NBO, Algorithm 1: while APs remain, draw one, hide it and the others
/// remaining within `hop_limit` hops (ψ), and give them channels by ACC
/// in load-weighted random order; every AP not in ψ and not yet placed
/// shows its current channel.
fn nbo(params: &MetricParams, view: &NetworkView, hop_limit: usize, rng: &mut Rng) -> Plan {
    let mut visible: Vec<Option<Channel>> = view.aps.iter().map(|a| Some(a.current)).collect();
    let mut remaining: Vec<usize> = (0..view.len()).collect();
    while !remaining.is_empty() {
        let seed = remaining[rng.below(remaining.len() as u64) as usize];
        let dist = view.hop_distances(seed);
        let (mut group, rest): (Vec<usize>, _) =
            remaining.iter().partition(|&&u| dist[u] <= hop_limit);
        remaining = rest;
        for &g in &group {
            visible[g] = None;
        }
        while !group.is_empty() {
            let weights: Vec<f64> = group
                .iter()
                .map(|&g| view.aps[g].load.total().max(1e-3))
                .collect();
            let m = group.swap_remove(rng.weighted_index(&weights));
            visible[m] = Some(acc(params, view, &visible, m));
        }
    }
    let channels: Vec<Channel> = visible.into_iter().flatten().collect();
    let fallback = fallback_channels(view, &channels);
    Plan { channels, fallback }
}

/// The tier loop: `runs` NBO passes per hop limit of `tier`; a pass that
/// beats the best NetP so far (charged against `view`'s channels) becomes
/// the plan and the assignment later passes start from. Returns the
/// plan, its NetP, the incumbent's, and the passes run.
fn run(
    params: &MetricParams,
    runs_per_tier: usize,
    rng: &mut Rng,
    view: &NetworkView,
    tier: ScheduleTier,
) -> (Plan, f64, f64, usize) {
    let incumbent = net_p_ln(params, view, &Plan::current(view));
    let runs = runs_per_tier + (view.len() as f64).log2().ceil().max(0.0) as usize;
    let (mut best, mut best_score, mut working) = (Plan::current(view), incumbent, view.clone());
    let hops = tier.hop_sequence();
    for &i in hops {
        for _ in 0..runs {
            let proposal = nbo(params, &working, i, rng);
            let score = net_p_ln(params, view, &proposal);
            if score > best_score {
                for (ap, &ch) in working.aps.iter_mut().zip(&proposal.channels) {
                    ap.current = ch;
                }
                (best, best_score) = (proposal, score);
            }
        }
    }
    (best, best_score, incumbent, runs * hops.len())
}

mod equivalence {
    use super::*;
    use crate::model::{ApLoad, ApReport};
    use crate::turboca::{ScheduleTier, TurboCa};
    use phy80211::channels::channel_numbers;
    use proptest::prelude::*;

    /// Every legal (primary, width) of `band` — every primary of every
    /// block, not only the block-naming one `all_channels` lists, so a
    /// `current` like 44@80 is outside every candidate set.
    fn legal_channels(band: Band) -> Vec<Channel> {
        let mut out = Vec::new();
        for &primary in channel_numbers(band) {
            for width in Width::ALL {
                out.extend(Channel::new(band, primary, width));
            }
        }
        out
    }

    fn pick<T: Copy>(rng: &mut Rng, from: &[T]) -> T {
        from[rng.below(from.len() as u64) as usize]
    }

    /// A small view with everything the generators never produce but a
    /// scanned or hand-built view may hold: asymmetric, repeated and
    /// self-referencing neighbour lists, saturated and over-unity
    /// `external_busy`, 160 MHz loads, channel 165, empty loads, and a
    /// `current` of any legal shape. `beyond` extra neighbour indices
    /// point past the view's end.
    fn random_view(rng: &mut Rng, beyond: usize) -> NetworkView {
        let band = if rng.chance(0.3) {
            Band::Band2_4
        } else {
            Band::Band5
        };
        let n = 1 + rng.below(10) as usize;
        let legal = legal_channels(band);
        let aps = (0..n)
            .map(|_| {
                let mut ap = ApReport::idle_on(pick(rng, &legal));
                ap.neighbors = (0..rng.below(7))
                    .map(|_| rng.below((n + beyond) as u64) as usize)
                    .collect();
                for &ch20 in channel_numbers(band) {
                    if rng.chance(0.4) {
                        let busy = match rng.below(8) {
                            0 => 1.0,
                            1 => 1.25,
                            _ => rng.f64(),
                        };
                        ap.external_busy.insert(ch20, busy);
                    }
                    if rng.chance(0.2) {
                        ap.quality.insert(ch20, rng.uniform(0.3, 1.0));
                    }
                }
                ap.load = ApLoad {
                    by_width: (0..rng.below(4))
                        .map(|_| {
                            let weight = if rng.chance(0.2) {
                                0.0
                            } else {
                                rng.uniform(0.1, 9.0)
                            };
                            (pick(rng, &Width::ALL), weight)
                        })
                        .collect(),
                };
                ap.max_width = pick(rng, &Width::ALL);
                ap.dfs_certified = rng.chance(0.7);
                ap.has_clients = rng.chance(0.6);
                ap
            })
            .collect();
        NetworkView { band, aps }
    }

    /// A view made to tie, and the few channels its assignments draw
    /// from: every AP on one channel and a copy of one of two reports —
    /// idle, or loaded at one width — with the same `external_busy`, each
    /// channel clean, saturated, or at 0.85, where a penalized loaded AP
    /// survives alone and sinks (−∞) once one more contender joins it;
    /// every neighbour list the same clique once or twice over, some
    /// listing themselves.
    fn tie_view(rng: &mut Rng) -> (NetworkView, Vec<Channel>) {
        let band = if rng.chance(0.2) {
            Band::Band2_4
        } else {
            Band::Band5
        };
        let legal = legal_channels(band);
        let numbers = channel_numbers(band);
        let mut idle = ApReport::idle_on(pick(rng, &legal));
        for &ch20 in numbers {
            match rng.below(4) {
                0 => idle.external_busy.insert(ch20, 1.0),
                1 => idle.external_busy.insert(ch20, 0.85),
                _ => None,
            };
        }
        let loaded = ApReport {
            has_clients: true,
            load: ApLoad {
                by_width: vec![(pick(rng, &Width::ALL), 1.0)],
            },
            max_width: Width::W160,
            ..idle.clone()
        };
        let n = 2 + rng.below(7) as usize;
        let (reps, self_listed) = (1 + rng.below(2) as usize, rng.chance(0.3));
        let aps = (0..n)
            .map(|i| ApReport {
                neighbors: (0..reps)
                    .flat_map(|_| (0..n).filter(move |&j| j != i || self_listed))
                    .collect(),
                ..(if rng.chance(0.5) { &loaded } else { &idle }).clone()
            })
            .collect();
        let palette = (0..1 + rng.below(4))
            .map(|_| {
                if rng.chance(0.7) {
                    Channel::new(band, pick(rng, numbers), Width::W20).expect("20 MHz")
                } else {
                    pick(rng, &legal)
                }
            })
            .collect();
        (NetworkView { band, aps }, palette)
    }

    /// `len` plan entries: ψ holes and any legal channel.
    fn random_assignment(rng: &mut Rng, band: Band, len: usize) -> Vec<Option<Channel>> {
        let legal = legal_channels(band);
        (0..len)
            .map(|_| (!rng.chance(0.25)).then(|| pick(rng, &legal)))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The one-shot NodeP and NetP, over plans shorter and longer
        /// than the view and neighbour indices past both.
        #[test]
        fn one_shot_metrics_match_the_reference(seed in any::<u64>()) {
            let rng = &mut Rng::new(seed);
            let view = random_view(rng, 3);
            let params = MetricParams::default();
            let plan_len = rng.below(view.len() as u64 + 5) as usize;
            let plan_channels = random_assignment(rng, view.band, plan_len);
            let legal = legal_channels(view.band);
            for v in 0..view.len() {
                let cand = pick(rng, &legal);
                prop_assert_eq!(
                    crate::metrics::node_p_ln(&params, &view, &plan_channels, v, cand).to_bits(),
                    node_p_ln(&params, &view, &plan_channels, v, cand).to_bits(),
                    "ln NodeP of {} on {}", v, cand
                );
            }
            // NetP needs a channel per AP; a longer plan makes the
            // out-of-view neighbour indices count.
            let plan = Plan {
                channels: (0..view.len() + 3).map(|_| pick(rng, &legal)).collect(),
                fallback: Vec::new(),
            };
            prop_assert_eq!(
                crate::metrics::net_p_ln(&params, &view, &plan).to_bits(),
                net_p_ln(&params, &view, &plan).to_bits()
            );
        }

        /// ACC over partial plans with ψ holes and `assigned[v]` set, then
        /// whole NBO passes and whole TurboCA runs from one seed, on views
        /// listing neighbours past their end.
        #[test]
        fn acc_nbo_and_run_match_the_reference(seed in any::<u64>()) {
            let rng = &mut Rng::new(seed);
            let view = random_view(rng, 2);
            let params = MetricParams::default();
            for v in 0..view.len() {
                let assigned = random_assignment(rng, view.band, view.len());
                prop_assert_eq!(
                    crate::turboca::acc(&params, &view, &assigned, v),
                    acc(&params, &view, &assigned, v),
                    "ACC of {} under {:?}", v, assigned
                );
            }
            for hop_limit in 0..=2 {
                prop_assert_eq!(
                    crate::turboca::nbo(&params, &view, hop_limit, &mut Rng::new(seed)),
                    nbo(&params, &view, hop_limit, &mut Rng::new(seed)),
                    "NBO pass at i = {}", hop_limit
                );
            }
            for tier in [ScheduleTier::Fast, ScheduleTier::Slow] {
                let mut planner = TurboCa::new(seed);
                let got = planner.run(&view, tier);
                let (plan, score, incumbent, runs) =
                    run(&params, planner.runs_per_tier, &mut Rng::new(seed), &view, tier);
                prop_assert_eq!(&got.plan, &plan);
                prop_assert_eq!(got.net_p_ln.to_bits(), score.to_bits());
                prop_assert_eq!(got.incumbent_net_p_ln.to_bits(), incumbent.to_bits());
                prop_assert_eq!(got.runs, runs);
            }
        }

        /// ACC on views made to tie, under ψ-holed draws from their
        /// palette: the first best candidate in list order wins, and the
        /// first candidate when every one is −∞.
        #[test]
        fn acc_breaks_ties_like_the_reference(seed in any::<u64>()) {
            let rng = &mut Rng::new(seed);
            let (view, palette) = tie_view(rng);
            let params = MetricParams::default();
            for _ in 0..4 {
                let assigned: Vec<Option<Channel>> = (0..view.len())
                    .map(|_| (!rng.chance(0.3)).then(|| pick(rng, &palette)))
                    .collect();
                for v in 0..view.len() {
                    prop_assert_eq!(
                        crate::turboca::acc(&params, &view, &assigned, v),
                        acc(&params, &view, &assigned, v),
                        "ACC of {} under {:?}", v, assigned
                    );
                }
            }
        }
    }
}
