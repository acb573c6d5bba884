//! Client-side cost of channel switches (paper §4.3.1).
//!
//! A channel switch is not free: clients that support 802.11h Channel
//! Switch Announcements follow the AP after a few beacons; clients that
//! don't (or that miss the beacons) must notice the AP is gone, scan,
//! and re-associate — "usually around 5 seconds for laptops, and around
//! 8 seconds for mobile devices", which is why TurboCA trades optimality
//! for stability. This module turns a channel plan into client-seconds
//! of disruption, the quantity the switch penalty is protecting.

use chanassign::model::{NetworkView, Plan};
use sim::{Rng, SimDuration};

/// Client population assumptions for disruption accounting.
#[derive(Debug, Clone)]
pub struct DisruptionModel {
    /// Fraction of clients that honour CSA beacons.
    pub csa_support: f64,
    /// Fraction of clients that are mobile-class.
    pub mobile_share: f64,
}

/// Probability a CSA-capable client still misses the announcement.
const CSA_MISS: f64 = 0.1;
/// Off-air time when following a CSA (a few beacon intervals).
const CSA_FOLLOW: SimDuration = SimDuration::from_millis(310);
/// Re-association outage for a laptop-class client.
const LAPTOP_OUTAGE: SimDuration = SimDuration::from_secs(5);
/// Re-association outage for a mobile-class client.
const MOBILE_OUTAGE: SimDuration = SimDuration::from_secs(8);

impl Default for DisruptionModel {
    fn default() -> Self {
        DisruptionModel {
            csa_support: 0.7,
            mobile_share: 0.5,
        }
    }
}

/// Outcome of applying a plan to a live network.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DisruptionReport {
    /// APs that changed channel.
    pub switches: usize,
    /// Clients that followed a CSA (sub-second blip).
    pub csa_followers: usize,
    /// Clients that had to rescan and re-associate.
    pub rescans: usize,
    /// Total client-seconds of lost connectivity.
    pub client_seconds: f64,
}

/// Sampled per-client disruption of moving the network from its current
/// assignment to `plan`. `clients_per_ap[v]` is the live client count on
/// AP `v`.
pub fn assess(
    model: &DisruptionModel,
    view: &NetworkView,
    plan: &Plan,
    clients_per_ap: &[usize],
    rng: &mut Rng,
) -> DisruptionReport {
    assert_eq!(view.len(), plan.channels.len());
    assert_eq!(view.len(), clients_per_ap.len());
    let mut report = DisruptionReport::default();
    for (v, &clients) in clients_per_ap.iter().enumerate() {
        if plan.channels[v] == view.aps[v].current {
            continue;
        }
        report.switches += 1;
        for _ in 0..clients {
            let follows_csa = rng.chance(model.csa_support) && !rng.chance(CSA_MISS);
            if follows_csa {
                report.csa_followers += 1;
                report.client_seconds += CSA_FOLLOW.as_secs_f64();
            } else {
                report.rescans += 1;
                let outage = if rng.chance(model.mobile_share) {
                    MOBILE_OUTAGE
                } else {
                    LAPTOP_OUTAGE
                };
                report.client_seconds += outage.as_secs_f64();
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use chanassign::model::ApReport;
    use phy80211::channels::{Band, Channel};

    fn view_with_channels(chs: &[u16]) -> NetworkView {
        NetworkView {
            band: Band::Band5,
            aps: chs
                .iter()
                .map(|&c| ApReport::idle_on(Channel::five(c)))
                .collect(),
        }
    }

    #[test]
    fn no_switches_no_disruption() {
        let view = view_with_channels(&[36, 40]);
        let plan = Plan::current(&view);
        let r = assess(
            &DisruptionModel::default(),
            &view,
            &plan,
            &[10, 10],
            &mut Rng::new(1),
        );
        assert_eq!(r, DisruptionReport::default());
    }

    #[test]
    fn switching_a_loaded_ap_costs_client_seconds() {
        let view = view_with_channels(&[36, 40]);
        let mut plan = Plan::current(&view);
        plan.channels[0] = Channel::five(149);
        let r = assess(
            &DisruptionModel::default(),
            &view,
            &plan,
            &[20, 20],
            &mut Rng::new(2),
        );
        assert_eq!(r.switches, 1);
        assert_eq!(r.csa_followers + r.rescans, 20, "only AP 0's clients");
        assert!(r.client_seconds > 0.0);
    }

    #[test]
    fn csa_support_slashes_the_cost() {
        let view = view_with_channels(&[36]);
        let mut plan = Plan::current(&view);
        plan.channels[0] = Channel::five(149);
        let run = |support: f64, seed: u64| {
            let model = DisruptionModel {
                csa_support: support,
                ..DisruptionModel::default()
            };
            assess(&model, &view, &plan, &[200], &mut Rng::new(seed)).client_seconds
        };
        let none = run(0.0, 3);
        let full = run(1.0, 4);
        // With everyone CSA-capable (10% miss), cost is dominated by the
        // 310ms follow blips instead of 5-8s rescans.
        assert!(full < none / 5.0, "full={full} none={none}");
    }

    #[test]
    fn mobile_heavy_populations_suffer_more() {
        let view = view_with_channels(&[36]);
        let mut plan = Plan::current(&view);
        plan.channels[0] = Channel::five(149);
        let run = |mobile: f64, seed: u64| {
            let model = DisruptionModel {
                csa_support: 0.0,
                mobile_share: mobile,
            };
            assess(&model, &view, &plan, &[500], &mut Rng::new(seed)).client_seconds
        };
        let laptops = run(0.0, 5);
        let mobiles = run(1.0, 6);
        assert!((laptops - 2500.0).abs() < 1.0, "{laptops}"); // 500 × 5s
        assert!((mobiles - 4000.0).abs() < 1.0, "{mobiles}"); // 500 × 8s
    }
}
