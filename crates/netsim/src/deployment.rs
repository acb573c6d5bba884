//! Fleet- and network-scale deployment synthesis.
//!
//! Produces (a) fleet-wide channel-utilization samples matching the
//! paper's Fig. 2 regimes, (b) per-network planner views
//! ([`chanassign::NetworkView`]) built from a physical [`Topology`] plus
//! client load, and (c) the UNet / MNet deployment profiles used in the
//! §4.6 evaluation.

use crate::population::{sample_width_config, ClientCaps, PopulationProfile};
use crate::topology::{self, Topology};
use chanassign::model::{ApLoad, ApReport, NetworkView};
use phy80211::channels::{all_channels, Band, Channel, Width, US_2_4GHZ_NON_OVERLAPPING};
use sim::Rng;
use std::collections::BTreeMap;

/// A clipped-lognormal utilization distribution with a controlled median.
#[derive(Debug, Clone, Copy)]
pub struct UtilizationProfile {
    pub median: f64,
    /// Log-space sigma (spread).
    pub sigma: f64,
}

impl UtilizationProfile {
    /// Fleet 2.4 GHz (Fig. 2: median 20 %).
    pub const FLEET_2_4: UtilizationProfile = UtilizationProfile {
        median: 0.20,
        sigma: 0.8,
    };
    /// Fleet 5 GHz (median 3 %).
    pub const FLEET_5: UtilizationProfile = UtilizationProfile {
        median: 0.03,
        sigma: 1.0,
    };
    /// Meraki HQ office 2.4 GHz (median 82 %).
    pub const HQ_2_4: UtilizationProfile = UtilizationProfile {
        median: 0.82,
        sigma: 0.25,
    };
    /// Meraki HQ office 5 GHz (median 23 %).
    pub const HQ_5: UtilizationProfile = UtilizationProfile {
        median: 0.23,
        sigma: 0.6,
    };

    /// Draw one utilization sample in [0, 1].
    pub fn sample(&self, rng: &mut Rng) -> f64 {
        (self.median * (self.sigma * rng.standard_normal()).exp()).clamp(0.0, 1.0)
    }
}

/// Client-count distribution per AP, shaped to the paper's §3.2.3
/// density buckets (33 % ≤ 5, 22 % 6–10, 20 % 11–20, 25 % ≥ 21).
pub fn sample_client_count(rng: &mut Rng) -> usize {
    let x = rng.f64();
    if x < 0.33 {
        rng.range_inclusive(0, 5) as usize
    } else if x < 0.55 {
        rng.range_inclusive(6, 10) as usize
    } else if x < 0.75 {
        rng.range_inclusive(11, 20) as usize
    } else {
        // Heavy tail: 21 up to a few hundred (paper max: 338).
        let t = rng.f64();
        (21.0 + 320.0 * t * t * t) as usize
    }
}

/// The capability mix clients are drawn from.
const POPULATION: PopulationProfile = PopulationProfile::Y2017;
/// Fraction of 20 MHz channels carrying any external energy; where
/// there is some, its level is drawn from [`UtilizationProfile::FLEET_5`].
const EXTERNAL_PRESENCE: f64 = 0.35;

/// Options for building a planner view from a topology.
#[derive(Debug, Clone)]
pub struct ViewOptions {
    pub dfs_certified: bool,
    pub seed_channels: SeedChannels,
}

/// How the pre-plan ("current") channels are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedChannels {
    /// Everyone on one default channel (fresh out-of-box deployment).
    AllDefault,
    /// Uniformly random legal channels.
    Random,
}

impl Default for ViewOptions {
    fn default() -> Self {
        ViewOptions {
            dfs_certified: true,
            seed_channels: SeedChannels::Random,
        }
    }
}

/// Build a planner view from a physical topology: distributes clients,
/// draws external utilization per channel, seeds current assignments.
/// Also returns the per-AP client capability lists (used by the
/// bit-rate-efficiency evaluation).
pub fn to_view(
    topo: &Topology,
    opts: &ViewOptions,
    rng: &mut Rng,
) -> (NetworkView, Vec<Vec<ClientCaps>>) {
    let n = topo.len();
    let channel_pool: Vec<Channel> = match topo.band {
        Band::Band2_4 => US_2_4GHZ_NON_OVERLAPPING
            .iter()
            .map(|&c| Channel::two4(c))
            .collect(),
        Band::Band5 => all_channels(Band::Band5, Width::W20),
    };
    let default_channel = channel_pool[0];

    let mut aps = Vec::with_capacity(n);
    let mut caps_per_ap = Vec::with_capacity(n);
    for i in 0..n {
        let n_clients = sample_client_count(rng);
        let caps: Vec<ClientCaps> = (0..n_clients)
            .map(|_| POPULATION.sample(rng))
            .filter(|c| topo.band == Band::Band2_4 || c.five_ghz)
            .collect();
        // load(b): clients bucketed by max width, weighted by a usage
        // factor (heavier for wider-capable devices, matching the
        // observation that 11ac devices move more data).
        let mut by_width: BTreeMap<Width, f64> = BTreeMap::new();
        for c in &caps {
            let w = if topo.band == Band::Band2_4 {
                Width::W20
            } else {
                c.max_width
            };
            let usage = 0.5 + rng.exponential(0.8);
            *by_width.entry(w).or_insert(0.0) += usage;
        }
        let load = ApLoad {
            by_width: by_width.into_iter().collect(),
        };

        let mut external_busy = BTreeMap::new();
        let mut quality = BTreeMap::new();
        for ch in &channel_pool {
            if rng.chance(EXTERNAL_PRESENCE) {
                external_busy.insert(ch.primary, UtilizationProfile::FLEET_5.sample(rng));
            }
            if rng.chance(0.1) {
                // Occasional non-WiFi interference (microwaves, radar
                // remnants): degraded quality.
                quality.insert(ch.primary, rng.uniform(0.5, 0.95));
            }
        }

        let current = match opts.seed_channels {
            SeedChannels::AllDefault => default_channel,
            SeedChannels::Random => channel_pool[rng.below(channel_pool.len() as u64) as usize],
        };
        let max_width = if topo.band == Band::Band2_4 {
            Width::W20
        } else {
            sample_width_config(n, rng)
        };

        aps.push(ApReport {
            neighbors: topo.audible[i].clone(),
            external_busy,
            quality,
            load,
            max_width,
            dfs_certified: opts.dfs_certified,
            has_clients: !caps.is_empty(),
            current,
        });
        caps_per_ap.push(caps);
    }
    (
        NetworkView {
            band: topo.band,
            aps,
        },
        caps_per_ap,
    )
}

/// A named deployment profile from the paper's §4.6.1 evaluation.
#[derive(Debug, Clone)]
pub struct DeploymentProfile {
    pub name: &'static str,
    pub n_aps: usize,
    pub area_m: (f64, f64),
    /// Daily active users.
    pub daily_users: usize,
    /// Uplink capacity in Gbps (None = effectively unlimited). The paper:
    /// UNet's usage "is limited by the network uplink setting most of
    /// the time"; MNet's is not.
    pub uplink_gbps: Option<f64>,
}

impl DeploymentProfile {
    /// UNet: university campus, ≈600 APs, 40 000 daily users,
    /// uplink-limited.
    pub const UNET: DeploymentProfile = DeploymentProfile {
        name: "UNet",
        n_aps: 600,
        area_m: (800.0, 500.0),
        daily_users: 40_000,
        uplink_gbps: Some(1.0),
    };

    /// MNet: national museum, ≈300 APs, 10 000 daily users, not
    /// uplink-limited.
    pub const MNET: DeploymentProfile = DeploymentProfile {
        name: "MNet",
        n_aps: 300,
        area_m: (400.0, 300.0),
        daily_users: 10_000,
        uplink_gbps: None,
    };

    /// Build the physical topology for this profile.
    pub fn topology(&self, band: Band, rng: &mut Rng) -> Topology {
        topology::random_area(self.n_aps, self.area_m.0, self.area_m.1, band, rng)
    }
}

/// One synthetic fleet network's utilization samples for Fig. 2.
pub fn fleet_utilization_samples(
    n_networks: usize,
    profile_2_4: UtilizationProfile,
    profile_5: UtilizationProfile,
    rng: &mut Rng,
) -> (Vec<f64>, Vec<f64>) {
    let mut u24 = Vec::new();
    let mut u5 = Vec::new();
    for _ in 0..n_networks {
        // Networks with ≥ 10 APs, per the paper's filter.
        let n_aps = rng.range_inclusive(10, 80) as usize;
        for _ in 0..n_aps {
            u24.push(profile_2_4.sample(rng));
            u5.push(profile_5.sample(rng));
        }
    }
    (u24, u5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::stats::median;

    #[test]
    fn utilization_profiles_hit_medians() {
        let mut rng = Rng::new(1);
        for (p, want) in [
            (UtilizationProfile::FLEET_2_4, 0.20),
            (UtilizationProfile::FLEET_5, 0.03),
            (UtilizationProfile::HQ_2_4, 0.82),
            (UtilizationProfile::HQ_5, 0.23),
        ] {
            let xs: Vec<f64> = (0..20_000).map(|_| p.sample(&mut rng)).collect();
            let m = median(&xs).unwrap();
            assert!(
                (m - want).abs() < want * 0.1 + 0.01,
                "median {m} want {want}"
            );
            assert!(xs.iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    }

    #[test]
    fn client_density_buckets_match_paper() {
        let mut rng = Rng::new(2);
        let n = 50_000;
        let counts: Vec<usize> = (0..n).map(|_| sample_client_count(&mut rng)).collect();
        let frac = |lo: usize, hi: usize| {
            counts.iter().filter(|&&c| c >= lo && c <= hi).count() as f64 / n as f64
        };
        assert!((frac(0, 5) - 0.33).abs() < 0.02);
        assert!((frac(6, 10) - 0.22).abs() < 0.02);
        assert!((frac(11, 20) - 0.20).abs() < 0.02);
        assert!((frac(21, usize::MAX) - 0.25).abs() < 0.02);
        assert!(counts.iter().max().unwrap() > &200, "heavy tail exists");
    }

    #[test]
    fn view_builder_produces_consistent_view() {
        let mut rng = Rng::new(3);
        let topo = topology::grid(5, 4, 18.0, 2.0, Band::Band5, &mut rng);
        let (view, caps) = to_view(&topo, &ViewOptions::default(), &mut rng);
        assert_eq!(view.len(), 20);
        assert_eq!(caps.len(), 20);
        for (i, ap) in view.aps.iter().enumerate() {
            assert_eq!(ap.neighbors, topo.audible[i]);
            assert_eq!(ap.has_clients, !caps[i].is_empty());
            for (_, wt) in &ap.load.by_width {
                assert!(*wt > 0.0);
            }
            assert!(ap.external_busy.values().all(|v| (0.0..=1.0).contains(v)));
        }
    }

    #[test]
    fn two4_view_caps_width() {
        let mut rng = Rng::new(4);
        let topo = topology::grid(3, 3, 15.0, 1.0, Band::Band2_4, &mut rng);
        let (view, _) = to_view(&topo, &ViewOptions::default(), &mut rng);
        assert!(view.aps.iter().all(|a| a.max_width == Width::W20));
        assert!(view
            .aps
            .iter()
            .all(|a| US_2_4GHZ_NON_OVERLAPPING.contains(&a.current.primary)));
    }

    #[test]
    fn profiles_have_paper_scale() {
        assert_eq!(DeploymentProfile::UNET.n_aps, 600);
        assert_eq!(DeploymentProfile::MNET.n_aps, 300);
        assert!(DeploymentProfile::UNET.uplink_gbps.is_some());
        assert!(DeploymentProfile::MNET.uplink_gbps.is_none());
    }

    #[test]
    fn fleet_samples_scale_with_networks() {
        let mut rng = Rng::new(5);
        let (u24, u5) = fleet_utilization_samples(
            50,
            UtilizationProfile::FLEET_2_4,
            UtilizationProfile::FLEET_5,
            &mut rng,
        );
        assert_eq!(u24.len(), u5.len());
        assert!(u24.len() >= 500);
        let m24 = median(&u24).unwrap();
        let m5 = median(&u5).unwrap();
        assert!(m24 > m5, "2.4 GHz busier than 5 GHz");
    }
}
