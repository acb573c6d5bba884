//! Network-level evaluation of a channel plan — the model behind the
//! paper's §4.6 results (Table 2, Figs. 7–9).
//!
//! Simulating 600 APs packet-by-packet for two weeks is neither feasible
//! nor necessary: the §4.6 metrics are functions of *medium contention*,
//! which the planner's own airtime/capacity model captures. This module
//! turns (view, plan, client population) into the same observable
//! samples the paper collects:
//!
//! * **RSSI** per client — position-driven, plan-independent (which is
//!   exactly the paper's point in Fig. 7: RSSI does not reflect load);
//! * **TCP latency** per flow — medium-access delay scaled by the AP's
//!   airtime share, plus the plan-independent heavy tail (> 400 ms) the
//!   paper attributes to non-responsive clients;
//! * **bit-rate efficiency** per client — the SNR-driven ideal rate
//!   degraded by co-channel contention, normalized by the association's
//!   max rate (§4.6.2's metric);
//! * **deliverable goodput** per AP — capacity × airtime share, the
//!   integrand for Table 2's usage numbers.

use crate::population::ClientCaps;
use chanassign::metrics::{airtime, capacity};
use chanassign::model::{NetworkView, Plan};
use phy80211::channels::{Channel, Width};
use phy80211::propagation::{noise_floor_dbm, Propagation, Radio};
use phy80211::rate::{bitrate_efficiency, IdealSelector};
use sim::Rng;

/// Tunables for the evaluation model.
#[derive(Debug, Clone)]
pub struct EvalOptions {
    /// Base AP-to-client distance distribution (mean, spread) in meters.
    pub client_distance_mean_m: f64,
    pub client_distance_spread_m: f64,
    /// Base medium service latency with a perfectly clean channel, ms.
    pub base_latency_ms: f64,
    /// Probability of a plan-independent pathological latency sample
    /// (the paper's > 400 ms tail from stuck clients).
    pub heavy_tail_prob: f64,
    /// dB of effective-SNR degradation per overlapping in-network
    /// neighbor (collision/retry pressure on rate adaptation).
    pub neighbor_penalty_db: f64,
    /// dB of degradation per unit of external channel utilization.
    pub external_penalty_db: f64,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            client_distance_mean_m: 12.0,
            client_distance_spread_m: 6.0,
            base_latency_ms: 6.0,
            heavy_tail_prob: 0.04,
            neighbor_penalty_db: 3.0,
            external_penalty_db: 8.0,
        }
    }
}

/// Evaluation output: raw samples, ready for CDF/PDF plotting.
#[derive(Debug, Clone, Default)]
pub struct NetworkMetrics {
    /// Per-client RSSI, dBm (Fig. 7).
    pub rssi_dbm: Vec<f64>,
    /// Per-flow TCP latency, ms (Fig. 8).
    pub tcp_latency_ms: Vec<f64>,
    /// Per-client bit-rate efficiency 0..1 (Fig. 9).
    pub bitrate_efficiency: Vec<f64>,
    /// Per-AP deliverable goodput, Mbps (Table 2 integrand).
    pub ap_goodput_mbps: Vec<f64>,
    /// Channel switches this plan would cause.
    pub switches: usize,
}

/// Evaluate a plan over a network.
pub fn evaluate(
    view: &NetworkView,
    plan: &Plan,
    caps_per_ap: &[Vec<ClientCaps>],
    opts: &EvalOptions,
    rng: &mut Rng,
) -> NetworkMetrics {
    assert_eq!(view.len(), plan.channels.len());
    assert_eq!(view.len(), caps_per_ap.len());
    let channels: Vec<Option<Channel>> = plan.channels.iter().copied().map(Some).collect();
    let prop = Propagation::indoor(view.band);
    let mut out = NetworkMetrics {
        switches: plan.switches_from_current(view),
        ..NetworkMetrics::default()
    };

    for (v, ap_caps) in caps_per_ap.iter().enumerate() {
        let ch = plan.channels[v];
        // Airtime share and capacity from the planner's own model — the
        // plan quality propagates into every sample below.
        let share = airtime(view, &channels, v, ch).max(0.01);
        let cap_factor = capacity(view, v, ch);
        let overlap_neighbors = view.aps[v]
            .neighbors
            .iter()
            .filter(|&&n| plan.channels[n].overlaps(&ch))
            .count();
        let ext_busy: f64 = ch
            .subchannels()
            .map(|subs| {
                subs.iter()
                    .map(|&s| view.aps[v].external_busy_on(s))
                    .fold(0.0, f64::max)
            })
            .unwrap_or(0.0);

        // The AP's own max rate at the plan width.
        let ap_max_bps = IdealSelector::new(ch.width, 3).max_rate_bps();
        let mut ap_client_rates = Vec::new();

        for c in ap_caps.iter() {
            // RSSI from a drawn distance (plan-independent).
            let d = (opts.client_distance_mean_m
                + opts.client_distance_spread_m * rng.standard_normal())
            .clamp(1.0, 60.0);
            let pl = prop.path_loss_shadowed_db(d, rng);
            let rssi = Radio::AP_DEFAULT.rssi_dbm(pl);
            out.rssi_dbm.push(rssi);

            // Effective SNR after contention pressure.
            let width = effective_width(ch, c);
            let snr = rssi
                - noise_floor_dbm(width)
                - opts.neighbor_penalty_db * overlap_neighbors as f64
                - opts.external_penalty_db * ext_busy;
            let sel = IdealSelector::new(width, c.nss.min(3));
            let achieved = sel.select(snr);
            ap_client_rates.push(achieved.bps);
            let eff = bitrate_efficiency(achieved.bps, ap_max_bps, c.max_rate_bps());
            out.bitrate_efficiency.push(eff);

            // TCP latency: queueing + access delay inflates as the
            // airtime share shrinks; lognormal service noise on top.
            let lat = if rng.chance(opts.heavy_tail_prob) {
                rng.uniform(400.0, 3_000.0)
            } else {
                opts.base_latency_ms / share * (0.5 * rng.standard_normal()).exp()
            };
            out.tcp_latency_ms.push(lat);
        }

        // Deliverable goodput: share of airtime × mean client rate ×
        // a MAC-efficiency constant, floored by the capacity factor.
        let mean_rate = if ap_client_rates.is_empty() {
            0.0
        } else {
            ap_client_rates.iter().sum::<u64>() as f64 / ap_client_rates.len() as f64
        };
        let goodput = share * mean_rate * 0.65 / 1e6 * cap_factor.min(ch.width.mhz() as f64 / 20.0)
            / (ch.width.mhz() as f64 / 20.0);
        out.ap_goodput_mbps.push(goodput);
    }
    out
}

/// The width actually used by an association: min(plan width, client max).
fn effective_width(ch: Channel, c: &ClientCaps) -> Width {
    ch.width.min(c.max_width)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::{to_view, ViewOptions};
    use crate::topology;
    use chanassign::turboca::{ScheduleTier, TurboCa};
    use phy80211::channels::Band;
    use telemetry::stats::median;

    fn setup(seed: u64) -> (NetworkView, Vec<Vec<ClientCaps>>) {
        let mut rng = Rng::new(seed);
        let topo = topology::grid(5, 4, 14.0, 2.0, Band::Band5, &mut rng);
        to_view(&topo, &ViewOptions::default(), &mut rng)
    }

    #[test]
    fn evaluate_produces_samples_for_every_client() {
        let (view, caps) = setup(1);
        let n_clients: usize = caps.iter().map(|c| c.len()).sum();
        let plan = Plan::current(&view);
        let m = evaluate(
            &view,
            &plan,
            &caps,
            &EvalOptions::default(),
            &mut Rng::new(2),
        );
        assert_eq!(m.rssi_dbm.len(), n_clients);
        assert_eq!(m.tcp_latency_ms.len(), n_clients);
        assert_eq!(m.bitrate_efficiency.len(), n_clients);
        assert_eq!(m.ap_goodput_mbps.len(), view.len());
        assert!(m
            .bitrate_efficiency
            .iter()
            .all(|&e| (0.0..=1.0).contains(&e)));
        assert!(m.tcp_latency_ms.iter().all(|&l| l > 0.0));
    }

    #[test]
    fn better_plan_means_lower_latency_and_higher_efficiency() {
        let (view, caps) = setup(3);
        let current = Plan::current(&view);
        let turbo = TurboCa::new(7).run(&view, ScheduleTier::Slow).plan;
        let m0 = evaluate(
            &view,
            &current,
            &caps,
            &EvalOptions::default(),
            &mut Rng::new(5),
        );
        let m1 = evaluate(
            &view,
            &turbo,
            &caps,
            &EvalOptions::default(),
            &mut Rng::new(5),
        );
        let lat0 = median(&m0.tcp_latency_ms).unwrap();
        let lat1 = median(&m1.tcp_latency_ms).unwrap();
        assert!(lat1 < lat0, "median latency {lat1} !< {lat0}");
        let eff0 = median(&m0.bitrate_efficiency).unwrap();
        let eff1 = median(&m1.bitrate_efficiency).unwrap();
        assert!(eff1 >= eff0, "efficiency {eff1} !>= {eff0}");
    }

    #[test]
    fn rssi_is_plan_independent() {
        let (view, caps) = setup(4);
        let current = Plan::current(&view);
        let turbo = TurboCa::new(9).run(&view, ScheduleTier::Medium).plan;
        let m0 = evaluate(
            &view,
            &current,
            &caps,
            &EvalOptions::default(),
            &mut Rng::new(6),
        );
        let m1 = evaluate(
            &view,
            &turbo,
            &caps,
            &EvalOptions::default(),
            &mut Rng::new(6),
        );
        // Same seed -> identical RSSI draws regardless of plan.
        assert_eq!(m0.rssi_dbm, m1.rssi_dbm);
    }

    #[test]
    fn heavy_tail_present_and_plan_independent() {
        let (view, caps) = setup(5);
        let plan = Plan::current(&view);
        let m = evaluate(
            &view,
            &plan,
            &caps,
            &EvalOptions::default(),
            &mut Rng::new(7),
        );
        let tail = m.tcp_latency_ms.iter().filter(|&&l| l > 400.0).count() as f64
            / m.tcp_latency_ms.len() as f64;
        assert!((0.01..0.10).contains(&tail), "{tail}");
    }
}
