//! The planner's view of a network: what the Meraki back-end collects
//! from every AP (§4.4) — neighbor reports from the scanning radio,
//! per-channel utilization from external networks, channel quality /
//! non-WiFi interference, client load broken down by supported width,
//! and the current assignment.
//!
//! This crate deliberately does not depend on the full network simulator:
//! `netsim` produces these reports from its world, and the planner
//! consumes them — the same division of labour as AP ↔ backend in the
//! paper's architecture.
//!
//! These are the *exchange* types: maps keyed by channel number, lists
//! of neighbour indices, public fields anyone may fill in. The planner
//! does not score on them directly — `dense` re-indexes a view by 20 MHz
//! slot and by legal block at the start of every call — so the maps
//! need only be faithful. What the planner does call per AP per accepted
//! pass, [`ApReport::candidates_from`], reads the band's block table
//! rather than constructing and validating channels.

use crate::dense::footprint_in;
use phy80211::channels::{blocks, Band, Channel, Width};
use std::collections::BTreeMap;

/// Per-width client load on an AP: the paper's `load(b)` is
/// "proportional to the number of associated clients with maximum
/// channel width b and their corresponding usage".
#[derive(Debug, Clone, Default)]
pub struct ApLoad {
    /// (max supported width, clients × usage weight) entries.
    pub by_width: Vec<(Width, f64)>,
}

impl ApLoad {
    /// Weight applicable at width `b`: clients whose maximum width is
    /// ≥ `b` benefit from (and load) the sub-band of width `b`.
    pub fn at_width(&self, b: Width) -> f64 {
        self.by_width
            .iter()
            .filter(|(w, _)| *w >= b)
            .map(|(_, wt)| wt)
            .sum()
    }

    /// Total load weight across widths.
    pub fn total(&self) -> f64 {
        self.by_width.iter().map(|(_, w)| w).sum()
    }

    /// The widest width any client supports (caps useful channel width;
    /// NodeP property (ii): no gain from widths no client can use).
    pub fn max_client_width(&self) -> Option<Width> {
        self.by_width
            .iter()
            .filter(|(_, wt)| *wt > 0.0)
            .map(|(w, _)| *w)
            .max()
    }
}

/// One AP's report to the planner.
#[derive(Debug, Clone)]
pub struct ApReport {
    /// Indices of in-network APs this AP can hear (interference graph
    /// edges; symmetric by construction in the generators).
    pub neighbors: Vec<usize>,
    /// External (out-of-network) utilization per 20 MHz channel number,
    /// 0..1. Missing entries mean 0.
    pub external_busy: BTreeMap<u16, f64>,
    /// Channel quality per 20 MHz channel number, 0..1 (1 = clean;
    /// lowered by non-WiFi interference). Missing entries mean 1.
    pub quality: BTreeMap<u16, f64>,
    /// Client load by width.
    pub load: ApLoad,
    /// Hardware's maximum width.
    pub max_width: Width,
    /// Whether this AP may use DFS channels at all.
    pub dfs_certified: bool,
    /// Whether clients are currently associated (gates DFS switches,
    /// §4.5.2, and raises the switch penalty).
    pub has_clients: bool,
    /// Currently assigned channel.
    pub current: Channel,
}

impl ApReport {
    /// A quiet AP on the given channel (test/bench helper).
    pub fn idle_on(current: Channel) -> ApReport {
        ApReport {
            neighbors: Vec::new(),
            external_busy: BTreeMap::new(),
            quality: BTreeMap::new(),
            load: ApLoad::default(),
            max_width: Width::W80,
            dfs_certified: true,
            has_clients: false,
            current,
        }
    }

    pub fn external_busy_on(&self, ch20: u16) -> f64 {
        self.external_busy.get(&ch20).copied().unwrap_or(0.0)
    }

    pub fn quality_on(&self, ch20: u16) -> f64 {
        self.quality.get(&ch20).copied().unwrap_or(1.0)
    }

    /// [`NetworkView::candidates`] for this AP as if it sat on `current`
    /// (the planner's working assignment moves between NBO tiers; the
    /// report does not).
    pub(crate) fn candidates_from(&self, band: Band, current: Channel) -> Vec<Channel> {
        let width_cap = self
            .load
            .max_client_width()
            .unwrap_or(Width::W20)
            .min(self.max_width);
        // DFS exists in 5 GHz only, where sharing a slot is sharing
        // spectrum.
        let on_air = footprint_in(band, current);
        let mut out = Vec::new();
        for b in blocks(band) {
            if b.channel.width > width_cap {
                break; // narrow widths come first
            }
            if b.dfs {
                if !self.dfs_certified {
                    continue;
                }
                if self.has_clients && b.footprint & on_air == 0 {
                    continue; // no switching onto DFS with clients
                }
            }
            out.push(b.channel);
        }
        if !out.contains(&current) {
            out.push(current);
        }
        out
    }
}

/// The planner's input: every AP of one band of one network
/// (TurboCA "treats each network as a unit", §4.4).
#[derive(Debug, Clone)]
pub struct NetworkView {
    pub band: Band,
    pub aps: Vec<ApReport>,
}

impl NetworkView {
    pub fn len(&self) -> usize {
        self.aps.len()
    }

    pub fn is_empty(&self) -> bool {
        self.aps.is_empty()
    }

    /// Candidate channels for AP `v`: every legal (primary, width ≤
    /// both the hardware max and the widest client width), DFS-filtered.
    /// An AP with connected clients is additionally barred from
    /// *switching onto* a DFS channel (§4.5.2), though it may stay on one.
    pub fn candidates(&self, v: usize) -> Vec<Channel> {
        self.aps[v].candidates_from(self.band, self.aps[v].current)
    }

    /// Hop distances from `v` in the interference graph (BFS). Entry is
    /// `usize::MAX` for unreachable APs.
    pub fn hop_distances(&self, v: usize) -> Vec<usize> {
        let mut dist = vec![usize::MAX; self.aps.len()];
        self.reach(
            v,
            usize::MAX,
            &mut dist,
            &mut Vec::with_capacity(self.aps.len()),
        );
        dist
    }

    /// Breadth-first search from `v`, at most `limit` hops deep: `ball`
    /// becomes the APs reached, in visiting order, and `dist` — which
    /// must be all `usize::MAX` on entry — their hop counts. A neighbour
    /// index past the view's end leads nowhere.
    pub(crate) fn reach(&self, v: usize, limit: usize, dist: &mut [usize], ball: &mut Vec<usize>) {
        ball.clear();
        dist[v] = 0;
        ball.push(v);
        let mut head = 0;
        while let Some(&u) = ball.get(head) {
            head += 1;
            if dist[u] == limit {
                continue;
            }
            for &n in &self.aps[u].neighbors {
                if dist.get(n) == Some(&usize::MAX) {
                    dist[n] = dist[u] + 1;
                    ball.push(n);
                }
            }
        }
    }
}

/// A proposed or assigned channel plan: one channel per AP, plus the
/// non-DFS fallback required whenever an AP sits on a DFS channel
/// (§4.5.2 — radar events mandate an immediate, CAC-free escape hatch).
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    pub channels: Vec<Channel>,
    pub fallback: Vec<Option<Channel>>,
}

impl Plan {
    /// Plan that keeps every AP on its current channel.
    pub fn current(view: &NetworkView) -> Plan {
        Plan {
            channels: view.aps.iter().map(|a| a.current).collect(),
            fallback: vec![None; view.aps.len()],
        }
    }

    /// Number of APs whose channel differs from their current one.
    pub fn switches_from_current(&self, view: &NetworkView) -> usize {
        self.channels
            .iter()
            .zip(view.aps.iter())
            .filter(|(c, a)| **c != a.current)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(width: Width, wt: f64) -> (Width, f64) {
        (width, wt)
    }

    #[test]
    fn load_at_width_counts_capable_clients() {
        let load = ApLoad {
            by_width: vec![w(Width::W20, 2.0), w(Width::W40, 3.0), w(Width::W80, 5.0)],
        };
        assert_eq!(load.at_width(Width::W20), 10.0);
        assert_eq!(load.at_width(Width::W40), 8.0);
        assert_eq!(load.at_width(Width::W80), 5.0);
        assert_eq!(load.at_width(Width::W160), 0.0);
        assert_eq!(load.total(), 10.0);
        assert_eq!(load.max_client_width(), Some(Width::W80));
    }

    #[test]
    fn zero_weight_widths_ignored_for_max() {
        let load = ApLoad {
            by_width: vec![w(Width::W20, 1.0), w(Width::W160, 0.0)],
        };
        assert_eq!(load.max_client_width(), Some(Width::W20));
        assert_eq!(ApLoad::default().max_client_width(), None);
    }

    fn view_with(ap: ApReport) -> NetworkView {
        NetworkView {
            band: Band::Band5,
            aps: vec![ap],
        }
    }

    #[test]
    fn candidates_respect_client_width_cap() {
        let mut ap = ApReport::idle_on(Channel::five(36));
        ap.load = ApLoad {
            by_width: vec![w(Width::W40, 1.0)],
        };
        let view = view_with(ap);
        let cands = view.candidates(0);
        assert!(cands.iter().all(|c| c.width <= Width::W40));
        assert!(cands.iter().any(|c| c.width == Width::W40));
    }

    #[test]
    fn candidates_without_dfs_certification() {
        let mut ap = ApReport::idle_on(Channel::five(36));
        ap.dfs_certified = false;
        ap.load = ApLoad {
            by_width: vec![w(Width::W80, 1.0)],
        };
        let view = view_with(ap);
        let cands = view.candidates(0);
        assert!(cands.iter().all(|c| !c.requires_dfs()));
        // §4.5.2: 9× 20MHz + 4× 40MHz + 2× 80MHz = 15 candidates.
        assert_eq!(cands.len(), 15);
    }

    #[test]
    fn dfs_switch_barred_with_clients() {
        let mut ap = ApReport::idle_on(Channel::five(36));
        ap.has_clients = true;
        ap.load = ApLoad {
            by_width: vec![w(Width::W20, 1.0)],
        };
        let view = view_with(ap);
        let cands = view.candidates(0);
        assert!(
            cands.iter().all(|c| !c.requires_dfs()),
            "no DFS switch while clients are connected"
        );
    }

    #[test]
    fn staying_on_dfs_is_allowed() {
        let mut ap = ApReport::idle_on(Channel::five(52)); // on DFS now
        ap.has_clients = true;
        ap.load = ApLoad {
            by_width: vec![w(Width::W20, 1.0)],
        };
        let view = view_with(ap);
        let cands = view.candidates(0);
        assert!(cands.contains(&Channel::five(52)), "current stays eligible");
    }

    #[test]
    fn idle_ap_candidates_are_20mhz_plus_current() {
        let ap = ApReport::idle_on(Channel::new(Band::Band5, 36, Width::W80).unwrap());
        let view = view_with(ap);
        let cands = view.candidates(0);
        // No clients → width cap 20MHz, but current (80MHz) is kept.
        assert!(cands.iter().any(|c| c.width == Width::W80));
        assert!(cands.iter().filter(|c| c.width != Width::W20).count() == 1);
    }

    #[test]
    fn hop_distance_bfs() {
        let mk = |neighbors: Vec<usize>| {
            let mut a = ApReport::idle_on(Channel::five(36));
            a.neighbors = neighbors;
            a
        };
        // Chain 0-1-2, isolated 3.
        let view = NetworkView {
            band: Band::Band5,
            aps: vec![mk(vec![1]), mk(vec![0, 2]), mk(vec![1]), mk(vec![])],
        };
        let d = view.hop_distances(0);
        assert_eq!(d, vec![0, 1, 2, usize::MAX]);
    }

    #[test]
    fn plan_switch_counting() {
        let view = NetworkView {
            band: Band::Band5,
            aps: vec![
                ApReport::idle_on(Channel::five(36)),
                ApReport::idle_on(Channel::five(40)),
            ],
        };
        let mut plan = Plan::current(&view);
        assert_eq!(plan.switches_from_current(&view), 0);
        plan.channels[1] = Channel::five(149);
        assert_eq!(plan.switches_from_current(&view), 1);
    }
}
