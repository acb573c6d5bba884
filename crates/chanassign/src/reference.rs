//! Test-only reference: the planner as it stood when the metric read
//! channel-number maps and re-derived channel geometry per call — one
//! `overlaps` scan per sub-channel per neighbour, a cloned `assigned`
//! per ACC, a BFS per NBO seed. Kept verbatim (minus `pub`) so the
//! proptests at the bottom can hold the dense planner to it bit for bit.

use crate::dense::{HIGH_UTIL_THRESHOLD, IDLE_EPSILON_LOAD};
use crate::metrics::MetricParams;
use crate::model::{NetworkView, Plan};
use phy80211::channels::{all_channels, non_dfs_channels, Band, Channel, Width};
use sim::Rng;

fn airtime(view: &NetworkView, plan_channels: &[Option<Channel>], v: usize, bond: Channel) -> f64 {
    let ap = &view.aps[v];
    let subs = bond
        .subchannel_numbers()
        .expect("candidate channels are validated");
    let mut worst: f64 = 1.0;
    for s in subs {
        let sub = Channel::new(bond.band, s, Width::W20).expect("valid subchannel");
        let ext = ap.external_busy_on(s);
        let mut contenders = 0usize;
        for &n in &ap.neighbors {
            if let Some(Some(nc)) = plan_channels.get(n) {
                if nc.overlaps(&sub) {
                    contenders += 1;
                }
            }
        }
        let share = (1.0 - ext).max(0.0) / (1.0 + contenders as f64);
        worst = worst.min(share);
    }
    worst
}

fn capacity(view: &NetworkView, v: usize, bond: Channel) -> f64 {
    let ap = &view.aps[v];
    let subs = bond.subchannel_numbers().expect("validated");
    let q: f64 = subs.iter().map(|&s| ap.quality_on(s)).sum::<f64>() / subs.len() as f64;
    q * (bond.width.mhz() as f64 / 20.0)
}

fn switch_penalty(params: &MetricParams, view: &NetworkView, v: usize, cand: Channel) -> f64 {
    let ap = &view.aps[v];
    if cand == ap.current {
        return 0.0;
    }
    let mut p = if ap.has_clients {
        params.switch_penalty_with_clients
    } else {
        params.switch_penalty_idle
    };
    if view.band == Band::Band2_4 && ap.has_clients {
        p += params.penalty_2_4ghz_extra;
    }
    let cand_util: f64 = cand
        .subchannel_numbers()
        .map(|subs| {
            subs.iter()
                .map(|&s| ap.external_busy_on(s))
                .fold(0.0, f64::max)
        })
        .unwrap_or(0.0);
    if cand_util > HIGH_UTIL_THRESHOLD {
        p += params.high_util_extra;
    }
    p
}

fn node_p_ln(
    params: &MetricParams,
    view: &NetworkView,
    plan_channels: &[Option<Channel>],
    v: usize,
    cand: Channel,
) -> f64 {
    let ap = &view.aps[v];
    let penalty = switch_penalty(params, view, v, cand);
    let mut total = 0.0;
    for &b in cand.width.up_to() {
        let mut load = ap.load.at_width(b);
        if b == Width::W20 {
            load = load.max(IDLE_EPSILON_LOAD);
        }
        if load <= 0.0 {
            continue;
        }
        let bond = match Channel::new(cand.band, cand.primary, b) {
            Ok(c) => c,
            Err(_) => return f64::NEG_INFINITY,
        };
        let metric = airtime(view, plan_channels, v, bond) * capacity(view, v, bond) - penalty;
        if metric <= 0.0 {
            return f64::NEG_INFINITY;
        }
        total += load * metric.ln();
    }
    total
}

fn net_p_ln(params: &MetricParams, view: &NetworkView, plan: &Plan) -> f64 {
    let channels: Vec<Option<Channel>> = plan.channels.iter().copied().map(Some).collect();
    let mut total = 0.0;
    for v in 0..view.len() {
        let np = node_p_ln(params, view, &channels, v, plan.channels[v]);
        if np == f64::NEG_INFINITY {
            return f64::NEG_INFINITY;
        }
        total += np;
    }
    total
}

fn candidates(view: &NetworkView, v: usize) -> Vec<Channel> {
    let ap = &view.aps[v];
    let width_cap = ap
        .load
        .max_client_width()
        .unwrap_or(Width::W20)
        .min(ap.max_width);
    let mut out = Vec::new();
    for w in Width::ALL {
        if w > width_cap {
            break;
        }
        for ch in all_channels(view.band, w) {
            if ch.requires_dfs() {
                if !ap.dfs_certified {
                    continue;
                }
                if ap.has_clients && !ch.overlaps(&ap.current) {
                    continue;
                }
            }
            out.push(ch);
        }
    }
    if !out.contains(&ap.current) {
        out.push(ap.current);
    }
    out
}

fn hop_distances(view: &NetworkView, v: usize) -> Vec<usize> {
    let mut dist = vec![usize::MAX; view.aps.len()];
    let mut queue = std::collections::VecDeque::new();
    dist[v] = 0;
    queue.push_back(v);
    while let Some(u) = queue.pop_front() {
        for &n in &view.aps[u].neighbors {
            if dist[n] == usize::MAX {
                dist[n] = dist[u] + 1;
                queue.push_back(n);
            }
        }
    }
    dist
}

fn acc(
    params: &MetricParams,
    view: &NetworkView,
    assigned: &[Option<Channel>],
    v: usize,
) -> Channel {
    let mut best: Option<(f64, Channel)> = None;
    let mut trial: Vec<Option<Channel>> = assigned.to_vec();
    for cand in candidates(view, v) {
        trial[v] = Some(cand);
        let mut score = node_p_ln(params, view, &trial, v, cand);
        if score > f64::NEG_INFINITY {
            for &n in &view.aps[v].neighbors {
                if let Some(nc) = trial[n] {
                    let np = node_p_ln(params, view, &trial, n, nc);
                    if np == f64::NEG_INFINITY {
                        score = f64::NEG_INFINITY;
                        break;
                    }
                    score += np;
                }
            }
        }
        match best {
            Some((bs, _)) if bs >= score => {}
            _ => best = Some((score, cand)),
        }
    }
    best.map(|(_, c)| c).unwrap_or(view.aps[v].current)
}

fn fallback_channels(view: &NetworkView, channels: &[Channel]) -> Vec<Option<Channel>> {
    channels
        .iter()
        .enumerate()
        .map(|(v, ch)| {
            if !ch.requires_dfs() {
                return None;
            }
            let ap = &view.aps[v];
            non_dfs_channels(view.band, Width::W20)
                .into_iter()
                .min_by(|a, b| {
                    ap.external_busy_on(a.primary)
                        .total_cmp(&ap.external_busy_on(b.primary))
                })
        })
        .collect()
}

fn nbo(params: &MetricParams, view: &NetworkView, hop_limit: usize, rng: &mut Rng) -> Plan {
    let n = view.len();
    let mut assigned: Vec<Option<Channel>> = vec![None; n];
    let mut remaining: Vec<usize> = (0..n).collect();
    let mut visible: Vec<Option<Channel>> = view.aps.iter().map(|a| Some(a.current)).collect();

    while !remaining.is_empty() {
        let pick = rng.below(remaining.len() as u64) as usize;
        let seed = remaining[pick];
        let dist = hop_distances(view, seed);
        let mut group: Vec<usize> = remaining
            .iter()
            .copied()
            .filter(|&u| dist[u] <= hop_limit)
            .collect();
        remaining.retain(|u| !group.contains(u));
        for &g in &group {
            visible[g] = None;
        }
        while !group.is_empty() {
            let weights: Vec<f64> = group
                .iter()
                .map(|&g| view.aps[g].load.total().max(1e-3))
                .collect();
            let idx = rng.weighted_index(&weights);
            let m = group.swap_remove(idx);
            let ch = acc(params, view, &visible, m);
            visible[m] = Some(ch);
            assigned[m] = Some(ch);
        }
    }

    let channels: Vec<Channel> = assigned
        .into_iter()
        .enumerate()
        .map(|(v, c)| c.unwrap_or(view.aps[v].current))
        .collect();
    let fallback = fallback_channels(view, &channels);
    Plan { channels, fallback }
}

/// `TurboCa::run` as it cloned the view to carry the working assignment.
fn run(
    params: &MetricParams,
    runs_per_tier: usize,
    rng: &mut Rng,
    view: &NetworkView,
    tier: crate::turboca::ScheduleTier,
) -> (Plan, f64, f64, usize) {
    let incumbent = Plan::current(view);
    let incumbent_score = net_p_ln(params, view, &incumbent);
    let runs = runs_per_tier + (view.len() as f64).log2().ceil().max(0.0) as usize;
    let mut best_plan = incumbent.clone();
    let mut best_score = incumbent_score;
    let mut total_runs = 0;
    let mut working = view.clone();
    for &i in tier.hop_sequence() {
        for _ in 0..runs {
            total_runs += 1;
            let proposal = nbo(params, &working, i, rng);
            let score = net_p_ln(params, view, &proposal);
            if score > best_score {
                best_score = score;
                best_plan = proposal;
                for (ap, &ch) in working.aps.iter_mut().zip(best_plan.channels.iter()) {
                    ap.current = ch;
                }
            }
        }
    }
    (best_plan, best_score, incumbent_score, total_runs)
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

        /// The one-shot metric functions, over plans shorter and longer
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
                    crate::metrics::airtime(&view, &plan_channels, v, cand).to_bits(),
                    airtime(&view, &plan_channels, v, cand).to_bits(),
                    "airtime of {} on {}", v, cand
                );
                prop_assert_eq!(
                    crate::metrics::capacity(&view, v, cand).to_bits(),
                    capacity(&view, v, cand).to_bits(),
                    "capacity of {} on {}", v, cand
                );
                prop_assert_eq!(
                    crate::metrics::switch_penalty(&params, &view, v, cand).to_bits(),
                    switch_penalty(&params, &view, v, cand).to_bits(),
                    "switch penalty of {} to {}", v, cand
                );
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
        /// whole NBO passes and whole TurboCA runs from one seed.
        #[test]
        fn acc_nbo_and_run_match_the_reference(seed in any::<u64>()) {
            let rng = &mut Rng::new(seed);
            let view = random_view(rng, 0);
            let params = MetricParams::default();
            for v in 0..view.len() {
                prop_assert_eq!(view.candidates(v), candidates(&view, v));
                prop_assert_eq!(view.hop_distances(v), hop_distances(&view, v));
                let assigned = random_assignment(rng, view.band, view.len());
                prop_assert_eq!(
                    crate::turboca::acc(&params, &view, &assigned, v),
                    acc(&params, &view, &assigned, v),
                    "ACC of {} under {:?}", v, assigned
                );
            }
            let channels: Vec<Channel> = view.aps.iter().map(|ap| ap.current).collect();
            prop_assert_eq!(
                crate::turboca::fallback_channels(&view, &channels),
                fallback_channels(&view, &channels)
            );
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
