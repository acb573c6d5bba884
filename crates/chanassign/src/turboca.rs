//! TurboCA — the paper's §4.4 channel-assignment algorithm.
//!
//! * [`acc`] — AP Channel Calculation `ACC(v, ψ)`: the best channel for
//!   one AP, maximizing the NetP restricted to `v` and its neighbours,
//!   with the channels of APs in ψ ignored ("presuming a channel
//!   change", which is how TurboCA escapes the local optima of §4.3.2).
//! * [`nbo`] — Network Basic Operation (Algorithm 1): one pass over the
//!   network, grouping APs within `i` hops and assigning them in
//!   load-weighted random order.
//! * [`TurboCa`] — the runtime schedule: i=0 every 15 minutes, i=1→0
//!   every 3 hours, i=2→1→0 daily; multiple NBO runs proportional to
//!   network size; a proposed plan replaces the assigned plan only when
//!   it raises NetP.
//!
//! Once a pass adopts nothing, the working plan is a fixed point and the
//! passes after it mostly rebuild it in another order, asking ACC what
//! it already answered. So each AP keeps its last ACC call while the
//! working assignment stands — the star (`dense::Partial::star`) it was
//! solved on and the pick — and a call on an equal star takes that
//! pick unsolved (debug builds solve it anyway and compare). Accepting
//! a proposal forgets every answer, and nothing outlives one
//! [`TurboCa::run`] or [`nbo`] call.

use crate::dense::{count, heard, hears_back, ApRow, Partial, ViewIndex};
use crate::metrics::MetricParams;
use crate::model::{NetworkView, Plan};
use phy80211::channels::{blocks, Channel, Width};
use sim::{Rng, SimDuration};

/// AP Channel Calculation: pick the channel for `v` that maximizes the
/// local NetP contribution (NodeP of `v` plus NodeP of its neighbours,
/// the only terms `v`'s channel can affect). `assigned` holds the
/// partial plan: `None` entries are APs in ψ (or not yet assigned) whose
/// current channel must be ignored; `assigned[v]` itself is ignored.
pub fn acc(
    params: &MetricParams,
    view: &NetworkView,
    assigned: &[Option<Channel>],
    v: usize,
) -> Channel {
    // All ACC reads is the star around `v`: itself (local index 0) and
    // the APs it hears (1.., in list order), each with the contenders
    // everyone but `v` puts on it.
    let heard = heard(view, v);
    let star: Vec<usize> = std::iter::once(v).chain(heard.iter().copied()).collect();
    let rows: Vec<ApRow> = star
        .iter()
        .map(|&u| ApRow::new(view.band, &view.aps[u]))
        .collect();
    let mut channels: Vec<Option<Channel>> = star.iter().map(|&u| assigned[u]).collect();
    channels[0] = None;
    let contenders = star
        .iter()
        .map(|&u| count(view.band, &view.aps[u].neighbors, assigned, Some(v)))
        .collect();
    let current: Vec<Channel> = star.iter().map(|&u| view.aps[u].current).collect();
    let local: Vec<usize> = (0..heard.len())
        .map(|k| if heard[k] == v { 0 } else { k + 1 })
        .collect();
    Partial::new(view.band, &rows, channels, contenders).acc(
        params,
        &current,
        0,
        &view.candidates(v),
        &local,
        &hears_back(view, v, &heard),
    )
}

/// The assignment NBO starts from, the candidate list it implies for
/// each AP, the partial plan every pass copies to start from, and what
/// ACC answered under it. [`TurboCa::run`] moves it as proposals are
/// accepted; the view it came from is never touched.
struct Working<'a> {
    current: Vec<Channel>,
    candidates: Vec<Vec<Channel>>,
    /// Every AP on its `current` channel, contenders counted.
    start: Partial<'a>,
    /// Per AP, its last ACC call under this assignment: the
    /// [`Partial::star`] it was solved on (empty, which no star is, for
    /// none yet) and the pick.
    memo: Vec<(Vec<u32>, Channel)>,
    /// The star of the call in hand.
    star: Vec<u32>,
    /// ACC calls made, and how many of them were solved.
    acc_calls: usize,
    acc_solved: usize,
}

impl<'a> Working<'a> {
    fn new(index: &'a ViewIndex) -> Working<'a> {
        let view = index.view;
        let current: Vec<Channel> = view.aps.iter().map(|ap| ap.current).collect();
        Working {
            start: Partial::over(view, &index.rows, &current),
            candidates: (0..view.len()).map(|v| view.candidates(v)).collect(),
            memo: current.iter().map(|&ch| (Vec::new(), ch)).collect(),
            current,
            star: Vec::new(),
            acc_calls: 0,
            acc_solved: 0,
        }
    }

    /// Move onto `channels`; only an AP whose channel changed needs its
    /// candidates rebuilt (the DFS-with-clients rule and the "current is
    /// always eligible" rule read it). ACC's answers go: the candidates
    /// and switch penalties they were solved under are gone.
    fn adopt(&mut self, index: &'a ViewIndex, channels: &[Channel]) {
        let view = index.view;
        for (v, &ch) in channels.iter().enumerate() {
            if self.current[v] != ch {
                self.current[v] = ch;
                self.candidates[v] = view.aps[v].candidates_from(view.band, ch);
            }
        }
        self.start = Partial::over(view, &index.rows, channels);
        for (star, _) in &mut self.memo {
            star.clear();
        }
    }

    /// ACC(m) on `visible`: the pick of `m`'s last call when its star has
    /// not moved since, else solved.
    fn acc(
        &mut self,
        params: &MetricParams,
        index: &ViewIndex,
        visible: &mut Partial,
        m: usize,
    ) -> Channel {
        let neighbors = &index.neighbors[m];
        let solve = |visible: &mut Partial| {
            let (cands, hears_v) = (&self.candidates[m], &index.hears_back[m]);
            visible.acc(params, &self.current, m, cands, neighbors, hears_v)
        };
        visible.star(m, neighbors, &mut self.star);
        self.acc_calls += 1;
        let (star, pick) = &mut self.memo[m];
        if *star == self.star {
            debug_assert_eq!(solve(visible), *pick, "ACC of {m} recalled a stale pick");
            return *pick;
        }
        self.acc_solved += 1;
        *pick = solve(visible);
        std::mem::swap(star, &mut self.star);
        *pick
    }
}

/// Network Basic Operation — the paper's Algorithm 1.
///
/// Starts from an empty proposed channel plan; repeatedly picks a random
/// unassigned AP, forms the candidate set of nodes (CSN) within `i` hops,
/// and assigns each CSN member via `ACC(m, CSN)` in load-weighted random
/// order (heavier APs first with higher probability, so they get first
/// pick of clean channels).
pub fn nbo(params: &MetricParams, view: &NetworkView, hop_limit: usize, rng: &mut Rng) -> Plan {
    let index = ViewIndex::new(view);
    let pass = nbo_pass(params, &index, &mut Working::new(&index), hop_limit, rng);
    plan_of(view, &pass)
}

/// One NBO pass from `working`, returned as the (complete) partial plan
/// it ends on — channels plus the contender counts NetP needs.
fn nbo_pass<'a>(
    params: &MetricParams,
    index: &'a ViewIndex,
    working: &mut Working<'a>,
    hop_limit: usize,
    rng: &mut Rng,
) -> Partial<'a> {
    let view = index.view;
    let n = view.len();
    // With i = 0 the CSN is just {n} and every other AP's *current*
    // channel is visible; the paper expresses that by seeding the plan
    // with current assignments and overwriting one at a time. We model
    // both regimes uniformly: unassigned APs outside the active group
    // contribute their current channel.
    let mut visible = working.start.clone();
    let mut remaining: Vec<usize> = (0..n).collect();
    let mut dist = vec![usize::MAX; n];
    let (mut ball, mut group, mut weights) = (vec![], vec![], vec![]);

    while !remaining.is_empty() {
        // Line 4: random unassigned AP.
        let pick = rng.below(remaining.len() as u64) as usize;
        let seed = remaining[pick];
        // Line 5: the group = seed plus APs within i hops, unassigned,
        // in index order.
        view.reach(seed, hop_limit, &mut dist, &mut ball);
        group.clear();
        group.extend(remaining.iter().filter(|&&u| dist[u] != usize::MAX));
        remaining.retain(|&u| dist[u] == usize::MAX);
        for &u in &ball {
            dist[u] = usize::MAX;
        }
        // The group's current channels are ignored (ψ = CSN): presume
        // they all change.
        for &g in &group {
            visible.lift(g, &index.heard_by[g]);
        }
        // Lines 7–11: assign group members in load-weighted random order.
        while !group.is_empty() {
            weights.clear();
            weights.extend(group.iter().map(|&g| index.weight[g]));
            let m = group.swap_remove(rng.weighted_index(&weights));
            let ch = working.acc(params, index, &mut visible, m);
            visible.place(m, ch, &index.heard_by[m]);
        }
    }
    visible
}

/// The plan a finished pass proposes, fallbacks attached.
fn plan_of(view: &NetworkView, pass: &Partial) -> Plan {
    let channels: Vec<Channel> = pass
        .channels
        .iter()
        .map(|c| c.expect("every AP is in exactly one group"))
        .collect();
    let fallback = fallback_channels(view, &channels);
    Plan { channels, fallback }
}

/// §4.5.2: every AP on a DFS channel carries a non-DFS fallback it can
/// jump to instantly on a radar event (no CAC on non-DFS channels): the
/// least externally busy non-DFS 20 MHz channel, the first of equals.
pub fn fallback_channels(view: &NetworkView, channels: &[Channel]) -> Vec<Option<Channel>> {
    channels
        .iter()
        .enumerate()
        .map(|(v, ch)| {
            if !ch.requires_dfs() {
                return None;
            }
            let ap = &view.aps[v];
            blocks(view.band)
                .iter()
                .take_while(|b| b.channel.width == Width::W20)
                .filter(|b| !b.dfs)
                .map(|b| (ap.external_busy_on(b.channel.primary), b.channel))
                .min_by(|a, b| a.0.total_cmp(&b.0))
                .map(|(_, ch)| ch)
        })
        .collect()
}

/// Which schedule tier is running (§4.4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleTier {
    /// Every 15 minutes: i = 0.
    Fast,
    /// Every 3 hours: i = 1 then i = 0.
    Medium,
    /// Daily: i = 2, then i = 1, then i = 0.
    Slow,
}

impl ScheduleTier {
    /// Hop-limit sequence for this tier. "All schedules end with i = 0,
    /// since that guarantees NetP will increase unless a local optimum
    /// was found in previous rounds."
    pub fn hop_sequence(self) -> &'static [usize] {
        match self {
            ScheduleTier::Fast => &[0],
            ScheduleTier::Medium => &[1, 0],
            ScheduleTier::Slow => &[2, 1, 0],
        }
    }

    /// Period between runs of this tier.
    pub fn period(self) -> SimDuration {
        match self {
            ScheduleTier::Fast => SimDuration::from_mins(15),
            ScheduleTier::Medium => SimDuration::from_hours(3),
            ScheduleTier::Slow => SimDuration::from_hours(24),
        }
    }
}

/// Result of one TurboCA planning run.
#[derive(Debug, Clone)]
pub struct PlanResult {
    pub plan: Plan,
    pub net_p_ln: f64,
    /// NetP of the incumbent (keep-current) plan, for comparison.
    pub incumbent_net_p_ln: f64,
    /// Whether the proposal improves on the incumbent (if not, the
    /// caller keeps the current assignment — stability first).
    pub improved: bool,
    /// NBO runs executed.
    pub runs: usize,
    /// ACC calls those runs made, and how many of them were solved: the
    /// rest saw the star their AP's last call was solved on, and took its
    /// pick.
    pub acc_calls: usize,
    pub acc_solved: usize,
}

/// The TurboCA planner.
#[derive(Debug, Clone)]
pub struct TurboCa {
    pub params: MetricParams,
    /// NBO runs per hop-limit value, scaled by network size elsewhere.
    pub runs_per_tier: usize,
    rng: Rng,
}

impl TurboCa {
    pub fn new(seed: u64) -> TurboCa {
        TurboCa {
            params: MetricParams::default(),
            runs_per_tier: 4,
            rng: Rng::new(seed),
        }
    }

    /// Execute one scheduled run. Runs NBO `runs` times per hop value in
    /// the tier's sequence (the paper: "the actual number of runs is
    /// proportional to the network size"), keeps the best proposal, and
    /// accepts it only if it beats the incumbent plan's NetP.
    pub fn run(&mut self, view: &NetworkView, tier: ScheduleTier) -> PlanResult {
        let index = ViewIndex::new(view);
        // "Whenever a single run of NBO increases NetP, the new proposed
        // channel plan replaces the assigned channel plan for the
        // following rounds": the best-so-far plan is the assignment the
        // next passes start from, while NetP keeps charging switches
        // against the channels the APs are really on.
        let mut working = Working::new(&index);
        let on_air = working.current.clone();
        let incumbent_score = working.start.net_p_ln(&self.params, &on_air);
        // Runs proportional to network size (log-scaled to stay cheap on
        // 600-AP networks), at least runs_per_tier.
        let runs = self.runs_per_tier + (view.len() as f64).log2().ceil().max(0.0) as usize;

        let mut best_plan = Plan::current(view);
        let mut best_score = incumbent_score;
        let mut total_runs = 0;
        for &i in tier.hop_sequence() {
            for _ in 0..runs {
                total_runs += 1;
                let pass = nbo_pass(&self.params, &index, &mut working, i, &mut self.rng);
                let score = pass.net_p_ln(&self.params, &on_air);
                if score > best_score {
                    best_score = score;
                    best_plan = plan_of(view, &pass);
                    working.adopt(&index, &best_plan.channels);
                }
            }
        }
        PlanResult {
            improved: best_score > incumbent_score,
            plan: best_plan,
            net_p_ln: best_score,
            incumbent_net_p_ln: incumbent_score,
            runs: total_runs,
            acc_calls: working.acc_calls,
            acc_solved: working.acc_solved,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ApLoad, ApReport};
    use phy80211::channels::{Band, Width};

    fn loaded_ap(ch: Channel, neighbors: Vec<usize>) -> ApReport {
        let mut a = ApReport::idle_on(ch);
        a.neighbors = neighbors;
        a.has_clients = true;
        a.load = ApLoad {
            by_width: vec![(Width::W80, 1.0)],
        };
        a
    }

    /// `n` loaded APs on channel 36, each hearing all the others.
    fn cochannel_clique(n: usize) -> NetworkView {
        NetworkView {
            band: Band::Band5,
            aps: (0..n)
                .map(|i| loaded_ap(Channel::five(36), (0..n).filter(|&j| j != i).collect()))
                .collect(),
        }
    }

    #[test]
    fn acc_avoids_busy_channel() {
        let mut ap = loaded_ap(Channel::five(36), vec![]);
        for s in [36, 40, 44, 48] {
            ap.external_busy.insert(s, 0.95);
        }
        let view = NetworkView {
            band: Band::Band5,
            aps: vec![ap],
        };
        let assigned = vec![None];
        let ch = acc(&MetricParams::default(), &view, &assigned, 0);
        assert!(
            !ch.subchannels()
                .unwrap()
                .iter()
                .any(|s| (36..=48).contains(s)),
            "picked {ch}"
        );
    }

    #[test]
    fn acc_separates_from_neighbor() {
        let view = NetworkView {
            band: Band::Band5,
            aps: vec![
                loaded_ap(Channel::new(Band::Band5, 36, Width::W80).unwrap(), vec![1]),
                loaded_ap(Channel::new(Band::Band5, 36, Width::W80).unwrap(), vec![0]),
            ],
        };
        let assigned = vec![Some(view.aps[0].current), None];
        let ch = acc(&MetricParams::default(), &view, &assigned, 1);
        assert!(!ch.overlaps(&view.aps[0].current), "picked {ch}");
    }

    /// The paper's §4.3.2 example: A on 36, B on 149; an interferer
    /// appears on 149 near B. Greedy (i=0) keeps A at 36 and strands B.
    /// With ψ (i≥1) the pair lands on {149-clean-for-A? no: A moves to a
    /// clean channel and B takes A's old one or any clean one}.
    #[test]
    fn psi_escapes_local_optimum() {
        // Restrict the world to two channels to force the dilemma: only
        // 36 and 149 exist as candidates. We emulate by saturating every
        // other channel for both APs.
        let mut a = loaded_ap(Channel::five(36), vec![1]);
        let mut b = loaded_ap(Channel::five(149), vec![0]);
        for ch in phy80211::channels::US_5GHZ_20 {
            if ch != 36 && ch != 149 {
                a.external_busy.insert(ch, 1.0);
                b.external_busy.insert(ch, 1.0);
            }
        }
        // Interferer near B on 149 (B suffers, A does not hear it).
        b.external_busy.insert(149, 0.6);
        // Clients are 20MHz-only so bonding never pulls in other channels.
        a.load = ApLoad {
            by_width: vec![(Width::W20, 1.0)],
        };
        b.load = ApLoad {
            by_width: vec![(Width::W20, 1.0)],
        };
        let view = NetworkView {
            band: Band::Band5,
            aps: vec![a, b],
        };
        let params = MetricParams::default();

        // Greedy per-AP (i=0 semantics): B sees A on 36, stays on 149.
        let assigned = vec![Some(Channel::five(36)), None];
        let greedy_b = acc(&params, &view, &assigned, 1);
        assert_eq!(greedy_b, Channel::five(149), "locally optimal trap");

        // With A's channel ignored (ψ), B takes 36 and A lands on 149.
        let mut rng = Rng::new(5);
        let plan = nbo(&params, &view, 1, &mut rng);
        let (ca, cb) = (plan.channels[0], plan.channels[1]);
        assert_eq!(cb, Channel::five(36), "B escapes to the clean channel");
        assert_eq!(ca, Channel::five(149), "A absorbs the interferer side");
    }

    #[test]
    fn nbo_i0_assigns_all_and_respects_current_neighbors() {
        let view = NetworkView {
            band: Band::Band5,
            aps: vec![
                loaded_ap(Channel::five(36), vec![1, 2]),
                loaded_ap(Channel::five(36), vec![0, 2]),
                loaded_ap(Channel::five(36), vec![0, 1]),
            ],
        };
        let mut rng = Rng::new(1);
        let plan = nbo(&MetricParams::default(), &view, 0, &mut rng);
        assert_eq!(plan.channels.len(), 3);
        // Three mutually-interfering APs must end on pairwise
        // non-overlapping channels — there is plenty of 5 GHz spectrum.
        for i in 0..3 {
            for j in (i + 1)..3 {
                assert!(
                    !plan.channels[i].overlaps(&plan.channels[j]),
                    "{} vs {}",
                    plan.channels[i],
                    plan.channels[j]
                );
            }
        }
    }

    #[test]
    fn turboca_improves_cochannel_mess() {
        let view = cochannel_clique(8);
        let mut tca = TurboCa::new(42);
        let result = tca.run(&view, ScheduleTier::Medium);
        assert!(result.improved);
        assert!(result.net_p_ln > result.incumbent_net_p_ln);
        // The plan should spread across several distinct channels.
        let distinct: std::collections::BTreeSet<u16> =
            result.plan.channels.iter().map(|c| c.primary).collect();
        assert!(distinct.len() >= 4, "only {distinct:?}");
    }

    #[test]
    fn turboca_stays_put_when_already_good() {
        // Two far-apart APs on clean, disjoint channels: no churn.
        let view = NetworkView {
            band: Band::Band5,
            aps: vec![
                loaded_ap(Channel::new(Band::Band5, 36, Width::W80).unwrap(), vec![]),
                loaded_ap(Channel::new(Band::Band5, 149, Width::W80).unwrap(), vec![]),
            ],
        };
        let mut tca = TurboCa::new(7);
        let result = tca.run(&view, ScheduleTier::Fast);
        assert_eq!(
            result.plan.switches_from_current(&view),
            0,
            "stability: already-optimal assignment unchanged"
        );
    }

    #[test]
    fn fallback_present_exactly_for_dfs_assignments() {
        let view = NetworkView {
            band: Band::Band5,
            aps: vec![
                loaded_ap(Channel::five(52), vec![]),
                loaded_ap(Channel::five(36), vec![]),
            ],
        };
        let channels = vec![Channel::five(52), Channel::five(36)];
        let fb = fallback_channels(&view, &channels);
        assert!(fb[0].is_some());
        assert!(!fb[0].unwrap().requires_dfs());
        assert!(fb[1].is_none());
    }

    #[test]
    fn schedule_tiers_match_paper() {
        assert_eq!(ScheduleTier::Fast.hop_sequence(), &[0]);
        assert_eq!(ScheduleTier::Medium.hop_sequence(), &[1, 0]);
        assert_eq!(ScheduleTier::Slow.hop_sequence(), &[2, 1, 0]);
        assert_eq!(ScheduleTier::Fast.period(), SimDuration::from_mins(15));
        assert_eq!(ScheduleTier::Medium.period(), SimDuration::from_hours(3));
        assert_eq!(ScheduleTier::Slow.period(), SimDuration::from_hours(24));
    }

    /// Once a Fast run's working plan is a fixed point, later passes
    /// rebuild it from stars already solved; one pass solves every call.
    #[test]
    fn repeated_stars_are_recalled_not_solved() {
        let view = cochannel_clique(6);
        let result = TurboCa::new(9).run(&view, ScheduleTier::Fast);
        assert_eq!(result.acc_calls, result.runs * view.len());
        assert!(
            result.acc_solved < result.acc_calls,
            "{} of {} solved",
            result.acc_solved,
            result.acc_calls
        );
        let index = ViewIndex::new(&view);
        let mut working = Working::new(&index);
        let params = MetricParams::default();
        nbo_pass(&params, &index, &mut working, 0, &mut Rng::new(9));
        assert_eq!((working.acc_calls, working.acc_solved), (6, 6));
    }

    /// Two stars alike but for which of AP 0's neighbours on channel 36
    /// is in ψ: AP 1, who hears AP 0, or AP 2, who does not. Both show
    /// one AP on 36 with the same counts, and AP 0 stays on 36 only where
    /// no listener pays for it: where ψ sits must be in the star.
    #[test]
    fn stars_tell_which_neighbour_is_in_psi() {
        let w20 = |neighbors| ApReport {
            load: ApLoad {
                by_width: vec![(Width::W20, 1.0)],
            },
            ..loaded_ap(Channel::five(36), neighbors)
        };
        let mut aps = vec![w20(vec![1, 2]), w20(vec![0]), w20(vec![])];
        for ch20 in phy80211::channels::US_5GHZ_20 {
            let busy = match ch20 {
                36 => 0.0,
                40 => 0.5,
                _ => 1.0,
            };
            aps[0].external_busy.insert(ch20, busy);
        }
        let view = NetworkView {
            band: Band::Band5,
            aps,
        };
        let (params, index) = (MetricParams::default(), ViewIndex::new(&view));
        let mut working = Working::new(&index);
        let pick_with_only = |working: &mut Working, shown: usize| {
            let mut visible = working.start.clone();
            for g in [0, 3 - shown] {
                visible.lift(g, &index.heard_by[g]);
            }
            working.acc(&params, &index, &mut visible, 0)
        };
        assert_eq!(pick_with_only(&mut working, 1), Channel::five(40));
        assert_eq!(pick_with_only(&mut working, 2), Channel::five(36));
        assert_eq!(working.acc_solved, 2);
    }

    /// A neighbour index past the view's end counts for nothing: the view
    /// plans and answers ACC as if the entry were not listed.
    #[test]
    fn neighbors_past_the_end_count_for_nothing() {
        let view = NetworkView {
            band: Band::Band5,
            aps: vec![
                loaded_ap(Channel::five(36), vec![1, 7, 2]),
                loaded_ap(Channel::five(36), vec![3, 0, 3]),
                loaded_ap(Channel::five(40), vec![0, 1, 2, 99]),
            ],
        };
        let mut listed = view.clone();
        for ap in &mut listed.aps {
            ap.neighbors.retain(|&n| n < 3);
        }
        for tier in [ScheduleTier::Fast, ScheduleTier::Medium, ScheduleTier::Slow] {
            let got = TurboCa::new(3).run(&view, tier);
            let want = TurboCa::new(3).run(&listed, tier);
            assert_eq!(got.plan, want.plan);
            assert_eq!(got.net_p_ln.to_bits(), want.net_p_ln.to_bits());
        }
        let params = MetricParams::default();
        let assigned = vec![Some(Channel::five(36)), None, Some(Channel::five(44))];
        for v in 0..3 {
            assert_eq!(
                acc(&params, &view, &assigned, v),
                acc(&params, &listed, &assigned, v)
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let view = cochannel_clique(6);
        let p1 = TurboCa::new(123).run(&view, ScheduleTier::Medium).plan;
        let p2 = TurboCa::new(123).run(&view, ScheduleTier::Medium).plan;
        assert_eq!(p1, p2);
    }
}
