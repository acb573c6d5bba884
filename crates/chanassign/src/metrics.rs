//! NodeP and NetP — the paper's §4.4.1 performance metrics.
//!
//! ```text
//! NodeP(c, cw) = Π_{b=20MHz}^{cw} channel_metric(c, b)^{load(b)}
//! channel_metric(c, b) = airtime(c, b) × capacity(c, b) − penalty_c
//! NetP = Π_{v ∈ V} NodeP_v
//! ```
//!
//! We compute in the **log domain**: a 600-AP product of values < 1
//! underflows `f64`, and log-space addition preserves the paper's two
//! headline properties exactly — (i) a heavily-utilized or
//! neighbor-crowded channel drives `NodeP → 0` (here: `ln NodeP → −∞`),
//! sinking the whole plan; (ii) widths beyond what clients support add
//! zero weight and thus change nothing.
//!
//! The formula itself lives on [`crate::dense::ApRow`]; the functions
//! here are its one-shot form — build the row(s) a single question
//! needs, count contenders off one neighbour list, ask. The planner's
//! loops ask the same row the same question against maintained counts.

use crate::dense::{count, rows, ApRow, Partial};
use crate::model::{NetworkView, Plan};
use phy80211::channels::Channel;

/// Tunables for the metric. Defaults reflect the behaviours §4.5 calls
/// out (high 2.4 GHz switch penalties, extra penalty above 90 %
/// utilization).
#[derive(Debug, Clone)]
pub struct MetricParams {
    /// Penalty subtracted from `channel_metric` when the candidate
    /// channel differs from the AP's current channel and clients are
    /// connected (disassociation risk).
    pub switch_penalty_with_clients: f64,
    /// Same, when no clients are connected (cheap to move).
    pub switch_penalty_idle: f64,
    /// Extra switch penalty on 2.4 GHz (§4.5.1: many 2.4 GHz clients
    /// lack CSA support, so a switch means a 5–8 s outage).
    pub penalty_2_4ghz_extra: f64,
    /// Extra switch penalty when the candidate's utilization exceeds
    /// 90 % (§4.5.1: above 90 % utilization small variations halve
    /// NetP, so demand hysteresis).
    pub high_util_extra: f64,
}

impl Default for MetricParams {
    fn default() -> Self {
        MetricParams {
            switch_penalty_with_clients: 0.08,
            switch_penalty_idle: 0.005,
            penalty_2_4ghz_extra: 0.25,
            high_util_extra: 0.15,
        }
    }
}

/// Estimated share of airtime AP `v` would get on `bond`, given everyone
/// else's channels in `plan_channels` (entries for APs in the ignore-set
/// ψ are `None`; channels of the other band never contend).
///
/// Per 20 MHz sub-channel: `(1 − external_busy) / (1 + overlapping
/// in-network neighbors)`; the bond's airtime is the **minimum** across
/// its sub-channels, because interference on any one of them stalls the
/// whole bonded transmission (§4.1.1).
pub fn airtime(
    view: &NetworkView,
    plan_channels: &[Option<Channel>],
    v: usize,
    bond: Channel,
) -> f64 {
    let ap = &view.aps[v];
    let slots = bond.slots().expect("candidate channels are validated");
    let counts = count(view.band, &ap.neighbors, plan_channels, None);
    ApRow::new(view.band, ap).airtime(slots, |slot| counts[slot] as usize)
}

/// Estimated capacity factor of the bond: mean per-sub-channel quality
/// (non-WiFi interference) scaled by the width gain.
pub fn capacity(view: &NetworkView, v: usize, bond: Channel) -> f64 {
    ApRow::new(view.band, &view.aps[v]).capacity(bond)
}

/// The switch penalty for AP `v` moving to `cand` (0 when staying).
pub fn switch_penalty(params: &MetricParams, view: &NetworkView, v: usize, cand: Channel) -> f64 {
    let ap = &view.aps[v];
    ApRow::new(view.band, ap).switch_penalty(params, ap.current, cand)
}

/// `ln NodeP(v, cand)` under the partial assignment `plan_channels`.
/// Returns `f64::NEG_INFINITY` when any loaded width's channel_metric is
/// non-positive (the paper's NodeP → 0).
pub fn node_p_ln(
    params: &MetricParams,
    view: &NetworkView,
    plan_channels: &[Option<Channel>],
    v: usize,
    cand: Channel,
) -> f64 {
    let ap = &view.aps[v];
    let counts = count(view.band, &ap.neighbors, plan_channels, None);
    ApRow::new(view.band, ap).node_p_ln(params, ap.current, cand, |slot| counts[slot] as usize)
}

/// `ln NetP` of a complete plan.
pub fn net_p_ln(params: &MetricParams, view: &NetworkView, plan: &Plan) -> f64 {
    let rows = rows(view);
    let current: Vec<Channel> = view.aps.iter().map(|ap| ap.current).collect();
    Partial::over(view, &rows, &plan.channels).net_p_ln(params, &current)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ApLoad, ApReport};
    use phy80211::channels::{Band, Width};

    fn ap_on(ch: Channel) -> ApReport {
        let mut a = ApReport::idle_on(ch);
        a.load = ApLoad {
            by_width: vec![(Width::W80, 1.0)],
        };
        a.has_clients = true;
        a
    }

    fn two_ap_view(c0: Channel, c1: Channel) -> NetworkView {
        let mut a0 = ap_on(c0);
        let mut a1 = ap_on(c1);
        a0.neighbors = vec![1];
        a1.neighbors = vec![0];
        NetworkView {
            band: Band::Band5,
            aps: vec![a0, a1],
        }
    }

    #[test]
    fn airtime_halves_per_contending_neighbor() {
        let view = two_ap_view(Channel::five(36), Channel::five(36));
        let chans = vec![Some(Channel::five(36)), Some(Channel::five(36))];
        let a = airtime(&view, &chans, 0, Channel::five(36));
        assert!((a - 0.5).abs() < 1e-12);
        // Neighbor elsewhere: full share.
        let chans = vec![Some(Channel::five(36)), Some(Channel::five(149))];
        assert_eq!(airtime(&view, &chans, 0, Channel::five(36)), 1.0);
        // Neighbor in ψ (ignored): full share too.
        let chans = vec![Some(Channel::five(36)), None];
        assert_eq!(airtime(&view, &chans, 0, Channel::five(36)), 1.0);
    }

    #[test]
    fn airtime_of_bond_is_worst_subchannel() {
        let mut view = two_ap_view(
            Channel::new(Band::Band5, 36, Width::W80).unwrap(),
            Channel::five(48),
        );
        view.aps[0].external_busy.insert(44, 0.8);
        let chans: Vec<Option<Channel>> = view.aps.iter().map(|a| Some(a.current)).collect();
        let bond = Channel::new(Band::Band5, 36, Width::W80).unwrap();
        // Sub 44 is 80% busy (share 0.2); sub 48 has a contender (0.5).
        let a = airtime(&view, &chans, 0, bond);
        assert!((a - 0.2).abs() < 1e-12, "{a}");
    }

    #[test]
    fn capacity_scales_with_width_and_quality() {
        let mut view = two_ap_view(Channel::five(36), Channel::five(149));
        assert_eq!(capacity(&view, 0, Channel::five(36)), 1.0);
        let w80 = Channel::new(Band::Band5, 36, Width::W80).unwrap();
        assert_eq!(capacity(&view, 0, w80), 4.0);
        view.aps[0].quality.insert(36, 0.5);
        assert_eq!(capacity(&view, 0, Channel::five(36)), 0.5);
    }

    #[test]
    fn nodep_prefers_clean_channel() {
        let params = MetricParams::default();
        let mut view = two_ap_view(Channel::five(36), Channel::five(149));
        view.aps[0].external_busy.insert(36, 0.7);
        let chans: Vec<Option<Channel>> = view.aps.iter().map(|a| Some(a.current)).collect();
        let busy = node_p_ln(&params, &view, &chans, 0, Channel::five(36));
        let clean = node_p_ln(&params, &view, &chans, 0, Channel::five(44));
        assert!(clean > busy, "clean={clean} busy={busy}");
    }

    #[test]
    fn nodep_neg_infinity_on_saturated_channel() {
        let params = MetricParams::default();
        let mut view = two_ap_view(Channel::five(36), Channel::five(149));
        view.aps[0].external_busy.insert(36, 1.0);
        let chans: Vec<Option<Channel>> = view.aps.iter().map(|a| Some(a.current)).collect();
        assert_eq!(
            node_p_ln(&params, &view, &chans, 0, Channel::five(36)),
            f64::NEG_INFINITY
        );
    }

    #[test]
    fn nodep_wider_helps_only_with_capable_clients() {
        let params = MetricParams::default();
        let mut view = two_ap_view(Channel::five(36), Channel::five(149));
        // Case A: clients support 80 MHz — wider is better.
        let chans: Vec<Option<Channel>> = view.aps.iter().map(|a| Some(a.current)).collect();
        let w20 = node_p_ln(&params, &view, &chans, 0, Channel::five(36));
        let w80 = node_p_ln(
            &params,
            &view,
            &chans,
            0,
            Channel::new(Band::Band5, 36, Width::W80).unwrap(),
        );
        assert!(w80 > w20, "w80={w80} w20={w20}");
        // Case B: clients only support 20 MHz — width adds nothing
        // (property (ii)); the tiny idle-epsilon keeps values comparable.
        view.aps[0].load = ApLoad {
            by_width: vec![(Width::W20, 1.0)],
        };
        // current = 36@20, so candidates share the no-switch penalty.
        let w20b = node_p_ln(&params, &view, &chans, 0, Channel::five(36));
        let w80b = node_p_ln(
            &params,
            &view,
            &chans,
            0,
            Channel::new(Band::Band5, 36, Width::W80).unwrap(),
        );
        // w80 candidate is a *switch* (different channel object), so it
        // now carries a penalty and cannot beat staying.
        assert!(w80b <= w20b + 1e-9, "w80b={w80b} w20b={w20b}");
    }

    #[test]
    fn switch_penalty_shape() {
        let params = MetricParams::default();
        let mut view = two_ap_view(Channel::five(36), Channel::five(149));
        assert_eq!(switch_penalty(&params, &view, 0, Channel::five(36)), 0.0);
        let with_clients = switch_penalty(&params, &view, 0, Channel::five(44));
        view.aps[0].has_clients = false;
        let idle = switch_penalty(&params, &view, 0, Channel::five(44));
        assert!(with_clients > idle);
        // Near-saturated candidate costs extra.
        view.aps[0].has_clients = true;
        view.aps[0].external_busy.insert(44, 0.95);
        let hot = switch_penalty(&params, &view, 0, Channel::five(44));
        assert!(hot > with_clients);
    }

    #[test]
    fn two4_switch_penalty_is_much_higher() {
        let params = MetricParams::default();
        let mut a0 = ap_on(Channel::two4(1));
        a0.load = ApLoad {
            by_width: vec![(Width::W20, 1.0)],
        };
        let view = NetworkView {
            band: Band::Band2_4,
            aps: vec![a0],
        };
        let p = switch_penalty(&params, &view, 0, Channel::two4(6));
        assert!(p > 0.3, "{p}");
    }

    #[test]
    fn netp_sums_and_sinks() {
        let params = MetricParams::default();
        let view = two_ap_view(Channel::five(36), Channel::five(149));
        let plan = Plan::current(&view);
        let n = net_p_ln(&params, &view, &plan);
        assert!(n.is_finite());
        // Saturate one AP's channel: whole plan sinks.
        let mut bad = view.clone();
        bad.aps[1].external_busy.insert(149, 1.0);
        assert_eq!(
            net_p_ln(&params, &bad, &plan),
            f64::NEG_INFINITY,
            "single-node failure sinks NetP"
        );
    }

    #[test]
    fn cochannel_plan_scores_below_separated_plan() {
        let params = MetricParams::default();
        let view = two_ap_view(Channel::five(36), Channel::five(36));
        let same = Plan::current(&view);
        let mut separated = same.clone();
        separated.channels[1] = Channel::five(149);
        let s_same = net_p_ln(&params, &view, &same);
        let s_sep = net_p_ln(&params, &view, &separated);
        assert!(s_sep > s_same, "sep={s_sep} same={s_same}");
    }
}
