//! The ingest + aggregation layer: per-network reports are pooled per
//! metric (as the paper's backend pools AP counter polls, §2.2), and
//! fleet-wide distributions are computed from the pools — not from
//! private side-channels — so every number in a [`crate::FleetReport`]
//! is reproducible from the ingested reports alone.

use crate::report::NetworkReport;
use telemetry::stats::{jain_fairness, Cdf};

/// Pools network reports metric by metric and aggregates them.
///
/// Values sit in ingest order. The order-sensitive aggregates (the Jain
/// sums, the switch total) therefore follow the order reports arrive
/// in; [`crate::run_fleet`] ingests in network-id order.
#[derive(Debug, Default)]
pub struct FleetIngest {
    // The paper's backend stores per-AP counter polls; we pool every
    // poll of one radio (per-AP fan-out adds nothing to the fleet-level
    // questions the aggregates answer).
    util_2_4: Vec<f64>,
    util_5: Vec<f64>,
    // One value per ingested report.
    net_p_ln: Vec<f64>,
    switches: Vec<f64>,
    tcp_p50_ms: Vec<f64>,
    tcp_p90_ms: Vec<f64>,
    tcp_p99_ms: Vec<f64>,
    goodput_mbps: Vec<f64>,
}

/// Fleet-wide distributions over everything ingested.
#[derive(Debug, Clone)]
pub struct FleetAggregate {
    pub util_2_4: Cdf,
    pub util_5: Cdf,
    pub net_p_ln: Cdf,
    pub tcp_p50_ms: Cdf,
    pub tcp_p90_ms: Cdf,
    pub tcp_p99_ms: Cdf,
    /// Jain fairness of per-network mean goodput (how evenly the fleet's
    /// deliverable capacity is spread across customer networks).
    pub jain_goodput: Option<f64>,
    pub total_switches: f64,
}

impl FleetIngest {
    pub fn new() -> FleetIngest {
        FleetIngest::default()
    }

    /// Ingest one network's end-of-run report: every utilization poll
    /// (two APs polled in the same tick are two polls) and the summary
    /// scalars.
    pub fn ingest(&mut self, r: &NetworkReport) {
        self.util_2_4.extend(r.util_2_4.iter().map(|&(_, v)| v));
        self.util_5.extend(r.util_5.iter().map(|&(_, v)| v));
        self.net_p_ln.push(r.final_net_p_ln);
        self.switches.push(r.switches as f64);
        self.tcp_p50_ms.push(r.tcp_p50_ms);
        self.tcp_p90_ms.push(r.tcp_p90_ms);
        self.tcp_p99_ms.push(r.tcp_p99_ms);
        self.goodput_mbps.push(r.mean_goodput_mbps);
    }

    pub fn reports_ingested(&self) -> usize {
        self.net_p_ln.len()
    }

    /// Compute the fleet-wide distributions.
    pub fn aggregate(&self) -> FleetAggregate {
        FleetAggregate {
            util_2_4: Cdf::new(&self.util_2_4),
            util_5: Cdf::new(&self.util_5),
            net_p_ln: Cdf::new(&self.net_p_ln),
            tcp_p50_ms: Cdf::new(&self.tcp_p50_ms),
            tcp_p90_ms: Cdf::new(&self.tcp_p90_ms),
            tcp_p99_ms: Cdf::new(&self.tcp_p99_ms),
            jain_goodput: jain_fairness(&self.goodput_mbps),
            total_switches: self.switches.iter().sum(),
        }
    }
}

impl FleetAggregate {
    /// Median utilization per radio — the Fig. 2 headline pair.
    pub fn util_medians(&self) -> (f64, f64) {
        (
            self.util_2_4.quantile(0.5).unwrap_or(0.0),
            self.util_5.quantile(0.5).unwrap_or(0.0),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::SimTime;

    fn mk_report(id: u64, util5: f64) -> NetworkReport {
        NetworkReport {
            id,
            seed: id * 7,
            n_aps: 3,
            plans_run: 2,
            accepted: 1,
            switches: id as usize,
            final_net_p_ln: -(id as f64),
            channels: vec![36, 40, 44],
            tcp_p50_ms: 7.0 + id as f64,
            tcp_p90_ms: 30.0,
            tcp_p99_ms: 400.0,
            mean_goodput_mbps: 100.0,
            qoe_score: 90.0,
            util_2_4: vec![
                (SimTime::from_secs(0), 0.2),
                (SimTime::from_secs(900), 0.25),
            ],
            util_5: vec![(SimTime::from_secs(0), util5)],
            health: telemetry::HealthReport::default(),
        }
    }

    #[test]
    fn ingest_round_trips_through_the_pools() {
        let mut ing = FleetIngest::new();
        ing.ingest(&mk_report(1, 0.03));
        ing.ingest(&mk_report(2, 0.05));
        assert_eq!(ing.reports_ingested(), 2);
        let agg = ing.aggregate();
        assert_eq!(agg.util_2_4.len(), 4);
        assert_eq!(agg.util_2_4.quantile(0.0), Some(0.2));
        assert_eq!(agg.util_5.len(), 2);
        assert_eq!(agg.total_switches, 3.0);
        let (m24, _) = agg.util_medians();
        assert!((m24 - 0.225).abs() < 1e-12);
    }

    #[test]
    fn same_tick_samples_are_all_kept() {
        // Two polls with identical timestamps (two APs polled in the
        // same tick) must not overwrite each other.
        let mut r = mk_report(1, 0.03);
        r.util_5 = vec![(SimTime::from_secs(0), 0.1), (SimTime::from_secs(0), 0.9)];
        let mut ing = FleetIngest::new();
        ing.ingest(&r);
        let util_5 = ing.aggregate().util_5;
        assert_eq!(util_5.len(), 2);
        assert_eq!(util_5.quantile(1.0), Some(0.9));
    }

    #[test]
    fn jain_reflects_goodput_spread() {
        let mut ing = FleetIngest::new();
        let mut a = mk_report(1, 0.03);
        a.mean_goodput_mbps = 100.0;
        let mut b = mk_report(2, 0.03);
        b.mean_goodput_mbps = 100.0;
        ing.ingest(&a);
        ing.ingest(&b);
        let j = ing.aggregate().jain_goodput.unwrap();
        assert!((j - 1.0).abs() < 1e-12, "equal goodput -> perfect fairness");
    }
}
