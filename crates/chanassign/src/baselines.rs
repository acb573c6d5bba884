//! Baseline channel-assignment algorithms.
//!
//! * [`ReservedCa`] — the paper's §4.6.1 pre-TurboCA production
//!   algorithm: iterate all APs in sequence; each picks the channel
//!   maximizing *its own isolated* performance (no ψ, no cooperation),
//!   at a **fixed channel width**, re-evaluated every 5 hours.
//! * [`random_plan`] — uniform random assignment (a sanity floor).
//! * [`least_congested`] — the classic "least congested channel scan"
//!   (§4.2 (ii), ref.\[7\]): each AP independently takes the channel with
//!   the lowest observed utilization, ignoring in-network coordination.

use crate::metrics::{node_p_ln, MetricParams};
use crate::model::{ApReport, NetworkView, Plan};
use crate::turboca::fallback_channels;
use phy80211::channels::{all_channels, channels, Band, Channel, Width};
use sim::{Rng, SimDuration};

/// The ReservedCA baseline.
#[derive(Debug, Clone)]
pub struct ReservedCa {
    pub params: MetricParams,
    /// The fixed width used for every AP (ReservedCA "only uses fixed
    /// channel widths").
    pub fixed_width: Width,
}

impl ReservedCa {
    pub fn new(fixed_width: Width) -> ReservedCa {
        ReservedCa {
            params: MetricParams::default(),
            fixed_width,
        }
    }

    /// Re-evaluation period (§4.6.1: every 5 hours).
    pub fn period() -> SimDuration {
        SimDuration::from_hours(5)
    }

    /// Compute a plan: sequential, per-AP greedy, isolated NodeP.
    pub fn run(&self, view: &NetworkView) -> Plan {
        let mut channels: Vec<Channel> = view.aps.iter().map(|a| a.current).collect();
        for v in 0..view.len() {
            let visible: Vec<Option<Channel>> = channels.iter().copied().map(Some).collect();
            let mut best: Option<(f64, Channel)> = None;
            for cand in self.candidates(view, v) {
                // Isolated: only this AP's NodeP, neighbours' fate ignored.
                let score = node_p_ln(&self.params, view, &visible, v, cand);
                match best {
                    Some((bs, _)) if bs >= score => {}
                    _ => best = Some((score, cand)),
                }
            }
            if let Some((_, c)) = best {
                channels[v] = c;
            }
        }
        let fallback = fallback_channels(view, &channels);
        Plan { channels, fallback }
    }

    fn candidates(&self, view: &NetworkView, v: usize) -> Vec<Channel> {
        let ap = &view.aps[v];
        let width = self.fixed_width.min(ap.max_width);
        let mut out: Vec<Channel> = all_channels(view.band, width)
            .into_iter()
            .filter(|c| {
                if !c.requires_dfs() {
                    return true;
                }
                ap.dfs_certified && (!ap.has_clients || c.overlaps(&ap.current))
            })
            .collect();
        if !out.contains(&ap.current) {
            out.push(ap.current);
        }
        out
    }
}

/// The channels of `width` `ap` may be put on without looking at anyone
/// else: every legal one, minus DFS channels for an uncertified AP.
/// Empty when the band has none that wide — 160 MHz without DFS,
/// anything above 20 MHz in 2.4 GHz.
fn usable_channels(band: Band, ap: &ApReport, width: Width) -> impl Iterator<Item = Channel> + '_ {
    channels(band, width).filter(|c| !c.requires_dfs() || ap.dfs_certified)
}

/// One uniform draw from [`usable_channels`]; an AP with none stays put
/// and consumes no draw.
fn random_channel(band: Band, ap: &ApReport, width: Width, rng: &mut Rng) -> Channel {
    let pool: Vec<Channel> = usable_channels(band, ap, width).collect();
    if pool.is_empty() {
        return ap.current;
    }
    pool[rng.below(pool.len() as u64) as usize]
}

/// Uniform random assignment at a fixed width. The width is taken as
/// given, not capped by `max_width` like the other baselines' — it is a
/// floor to compare against, and `abl_baselines`' `random` row is drawn
/// this way.
pub fn random_plan(view: &NetworkView, width: Width, rng: &mut Rng) -> Plan {
    let channels: Vec<Channel> = view
        .aps
        .iter()
        .map(|ap| random_channel(view.band, ap, width, rng))
        .collect();
    let fallback = fallback_channels(view, &channels);
    Plan { channels, fallback }
}

/// Channel-hopping baseline (§4.2 category (iii), cf. SSCH/IQ-Hopping):
/// every AP follows its own pseudo-random hopping sequence over the
/// non-DFS channels at a fixed width, re-rolling every epoch (the caller
/// keeps the clock: `abl_baselines` prices 12 epochs an hour). Hopping
/// harvests channel diversity without coordination — and pays for it in
/// constant channel switches, which is exactly the side effect the
/// paper's §4.2 holds against it.
#[derive(Debug, Clone)]
pub struct ChannelHopping {
    pub width: Width,
    rng: Rng,
}

impl ChannelHopping {
    pub fn new(width: Width, seed: u64) -> ChannelHopping {
        ChannelHopping {
            width,
            rng: Rng::new(seed),
        }
    }

    /// The plan for the next epoch: each AP hops to a fresh random
    /// channel from its usable set (independent sequences).
    pub fn next_epoch(&mut self, view: &NetworkView) -> Plan {
        let channels: Vec<Channel> = view
            .aps
            .iter()
            .map(|ap| random_channel(view.band, ap, self.width.min(ap.max_width), &mut self.rng))
            .collect();
        let fallback = fallback_channels(view, &channels);
        Plan { channels, fallback }
    }
}

/// Least-congested-channel scan: per AP, the candidate whose worst
/// sub-channel external utilization is lowest (in-network neighbours
/// ignored entirely — the classic decentralized failure mode).
pub fn least_congested(view: &NetworkView, width: Width) -> Plan {
    let channels: Vec<Channel> = view
        .aps
        .iter()
        .map(|ap| {
            let busy = |c: &Channel| {
                c.subchannels()
                    .expect("enumerated channels are legal")
                    .iter()
                    .map(|&s| ap.external_busy_on(s))
                    .fold(0.0f64, f64::max)
            };
            usable_channels(view.band, ap, width.min(ap.max_width))
                .min_by(|a, b| busy(a).total_cmp(&busy(b)))
                .unwrap_or(ap.current)
        })
        .collect();
    let fallback = fallback_channels(view, &channels);
    Plan { channels, fallback }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::net_p_ln;
    use crate::model::ApLoad;
    use crate::turboca::{ScheduleTier, TurboCa};

    fn loaded_ap(ch: Channel, neighbors: Vec<usize>) -> ApReport {
        let mut a = ApReport::idle_on(ch);
        a.neighbors = neighbors;
        a.has_clients = true;
        a.load = ApLoad {
            by_width: vec![(Width::W80, 1.0)],
        };
        a
    }

    fn clique(n: usize, ch: Channel) -> NetworkView {
        NetworkView {
            band: Band::Band5,
            aps: (0..n)
                .map(|i| loaded_ap(ch, (0..n).filter(|&j| j != i).collect()))
                .collect(),
        }
    }

    #[test]
    fn reserved_ca_spreads_a_clique_somewhat() {
        let view = clique(6, Channel::five(36));
        let plan = ReservedCa::new(Width::W40).run(&view);
        assert!(plan.channels.iter().all(|c| c.width <= Width::W40));
        let distinct: std::collections::BTreeSet<u16> =
            plan.channels.iter().map(|c| c.primary).collect();
        assert!(distinct.len() >= 3, "{distinct:?}");
    }

    /// `Channel`'s fields are public, so a view can carry a `current`
    /// that no band table lists. Such a channel overlaps nothing, so an
    /// AP with clients on it may take no DFS channel, and ReservedCA
    /// still returns a plan.
    #[test]
    fn reserved_ca_plans_from_an_off_table_channel() {
        let off = Channel {
            band: Band::Band5,
            primary: 38,
            width: Width::W20,
        };
        let mut view = clique(1, off);
        view.aps[0].dfs_certified = true;
        view.aps[0].has_clients = true;
        let plan = ReservedCa::new(Width::W40).run(&view);
        assert_eq!(plan.channels.len(), 1);
        assert!(!plan.channels[0].requires_dfs(), "{}", plan.channels[0]);
    }

    #[test]
    fn reserved_ca_period_is_five_hours() {
        assert_eq!(ReservedCa::period(), SimDuration::from_hours(5));
    }

    #[test]
    fn turboca_beats_reserved_ca_on_netp() {
        // A crowded clique with one heavily loaded AP: cooperative
        // assignment should win on the global metric.
        let mut view = clique(8, Channel::five(36));
        view.aps[0].load = ApLoad {
            by_width: vec![(Width::W80, 10.0)],
        };
        let params = MetricParams::default();
        let reserved = ReservedCa::new(Width::W20).run(&view);
        let turbo = TurboCa::new(3).run(&view, ScheduleTier::Slow).plan;
        let s_r = net_p_ln(&params, &view, &reserved);
        let s_t = net_p_ln(&params, &view, &turbo);
        assert!(s_t > s_r, "turbo={s_t} reserved={s_r}");
    }

    #[test]
    fn random_plan_is_legal() {
        let mut view = clique(10, Channel::five(36));
        view.aps[3].dfs_certified = false;
        let mut rng = Rng::new(9);
        let plan = random_plan(&view, Width::W40, &mut rng);
        assert_eq!(plan.channels.len(), 10);
        assert!(plan.channels.iter().all(|c| c.width == Width::W40));
        assert!(!plan.channels[3].requires_dfs());
    }

    /// No non-DFS 160 MHz channel exists, and 2.4 GHz has nothing above
    /// 20 MHz: an AP whose pool is empty stays where it is and draws
    /// nothing, so the APs after it see the stream they would have seen
    /// without it.
    #[test]
    fn random_plan_keeps_an_ap_with_no_usable_channel_in_place() {
        let mut view = clique(4, Channel::five(36));
        view.aps[1].dfs_certified = false;
        let plan = random_plan(&view, Width::W160, &mut Rng::new(9));
        assert_eq!(plan.channels[1], Channel::five(36));
        assert!(plan.channels[0].width == Width::W160 && plan.channels[2].width == Width::W160);
        let mut without = view.clone();
        without.aps.remove(1);
        let shorter = random_plan(&without, Width::W160, &mut Rng::new(9));
        assert_eq!(plan.channels[2..], shorter.channels[1..]);

        let mut two4 = clique(3, Channel::two4(6));
        two4.band = Band::Band2_4;
        let plan = random_plan(&two4, Width::W40, &mut Rng::new(9));
        assert_eq!(plan.channels, vec![Channel::two4(6); 3]);
    }

    #[test]
    fn hopping_keeps_an_ap_with_no_usable_channel_in_place() {
        let mut view = clique(3, Channel::five(36));
        for ap in &mut view.aps {
            ap.max_width = Width::W160;
            ap.dfs_certified = false;
        }
        let mut hop = ChannelHopping::new(Width::W160, 17);
        assert_eq!(hop.next_epoch(&view).channels, vec![Channel::five(36); 3]);
    }

    #[test]
    fn hopping_rotates_channels_every_epoch() {
        let view = clique(6, Channel::five(36));
        let mut hop = ChannelHopping::new(Width::W20, 17);
        let p1 = hop.next_epoch(&view);
        let p2 = hop.next_epoch(&view);
        assert_ne!(p1.channels, p2.channels, "independent epochs differ");
        let changed = p2
            .channels
            .iter()
            .zip(p1.channels.iter())
            .filter(|(a, b)| a != b)
            .count();
        assert!(changed >= 3, "most APs hop each epoch: {changed}");
    }

    #[test]
    fn hopping_mean_netp_trails_turboca() {
        // Averaged over epochs, oblivious hopping cannot beat a planned
        // assignment on the same network.
        let view = clique(8, Channel::five(36));
        let params = MetricParams::default();
        let turbo = TurboCa::new(5).run(&view, ScheduleTier::Slow).plan;
        let s_t = net_p_ln(&params, &view, &turbo);
        let mut hop = ChannelHopping::new(Width::W20, 23);
        let mut mean = 0.0;
        let epochs = 12;
        for _ in 0..epochs {
            mean += net_p_ln(&params, &view, &hop.next_epoch(&view)) / epochs as f64;
        }
        assert!(s_t > mean, "turbo {s_t} !> hopping mean {mean}");
    }

    #[test]
    fn least_congested_tracks_external_busy() {
        let mut view = clique(1, Channel::five(36));
        // Make everything busy except 149.
        for ch in phy80211::channels::US_5GHZ_20 {
            view.aps[0]
                .external_busy
                .insert(ch, if ch == 149 { 0.05 } else { 0.8 });
        }
        let plan = least_congested(&view, Width::W20);
        assert_eq!(plan.channels[0].primary, 149);
    }

    #[test]
    fn least_congested_ignores_neighbors_by_design() {
        // Two neighbouring APs with identical external views herd onto
        // the same channel — the failure TurboCA exists to avoid.
        let mut view = clique(2, Channel::five(36));
        for ap in view.aps.iter_mut() {
            for ch in phy80211::channels::US_5GHZ_20 {
                ap.external_busy
                    .insert(ch, if ch == 149 { 0.0 } else { 0.5 });
            }
        }
        let plan = least_congested(&view, Width::W20);
        assert_eq!(plan.channels[0], plan.channels[1], "herding");
        // TurboCA separates them.
        let turbo = TurboCa::new(11).run(&view, ScheduleTier::Medium).plan;
        assert!(!turbo.channels[0].overlaps(&turbo.channels[1]));
    }
}
