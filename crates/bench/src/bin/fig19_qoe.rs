//! fig19_qoe — application-layer QoE under a mid-run interferer,
//! baseline vs FastACK (a companion experiment: the paper measures
//! radio- and transport-level symptoms of non-WiFi interference in
//! §3.2.4 and §5.6; this views the same fault through synthetic probe
//! flows the way a fleet operator's QoE monitoring would).
//!
//! Each client gets a 50 pps probe stream alongside its bulk TCP
//! download. The interferer switches on at t=2s; probe delay and loss
//! blow up, per-client QoE scores collapse, and the `qoe-degraded`
//! detector raises with a causal id that `wifictl health explain --trace`
//! resolves into the probe flow's own records.
//!
//! Artifacts: `--metrics`/`--trace`/`--health` dumps are deterministic;
//! scripts/ci.sh runs this binary twice and byte-compares them.

use bench::arms;
use bench::harness::{f, Experiment};
use wifi_core::netsim::testbed::InterfererFault;
use wifi_core::prelude::*;
use wifi_core::qoe;

fn worst_score(r: &TestbedReport) -> f64 {
    r.qoe
        .iter()
        .map(|c| c.score())
        .fold(f64::INFINITY, f64::min)
}

fn degraded_alert(r: &TestbedReport) -> Option<&wifi_core::telemetry::Alert> {
    r.health.alerts.iter().find(|a| a.rule == "qoe-degraded")
}

fn main() {
    let mut exp = Experiment::from_args(
        "fig19_qoe",
        "application-layer QoE under interference: baseline vs FastACK",
    );
    let [base, fast] = exp.run_arms(arms::fig19());

    for (label, r) in [("baseline", &base), ("fastack", &fast)] {
        let alert = degraded_alert(r);
        exp.compare(
            format!("{label}: qoe-degraded raised after interferer onset"),
            "raised at t >= 2s",
            alert.map_or("no alert".to_owned(), |a| {
                format!("raised at {} ms", a.raised_at.as_millis())
            }),
            alert.is_some_and(|a| a.raised_at >= InterfererFault::default().at),
        );
        exp.compare(
            format!("{label}: alert cause is a probe flow"),
            "flow >= 0x4000",
            alert
                .and_then(|a| a.cause_flow())
                .map_or("unresolved".to_owned(), |fl| format!("{fl:#x}")),
            alert
                .and_then(|a| a.cause_flow())
                .is_some_and(qoe::is_probe_flow),
        );
        exp.compare(
            format!("{label}: worst client score degraded"),
            "<= 60",
            f(worst_score(r)),
            worst_score(r) <= 60.0,
        );
    }
    let probes_sent: u64 = base.qoe.iter().map(|c| c.sent).sum();
    let probes_done: u64 = base.qoe.iter().map(|c| c.delivered + c.lost).sum();
    exp.compare(
        "probe accounting closes (baseline)",
        "delivered+lost+in-flight == sent",
        format!("{probes_done}+tail of {probes_sent}"),
        probes_done <= probes_sent && probes_sent > 0,
    );

    exp.series(
        "baseline-client-scores",
        base.qoe
            .iter()
            .map(|c| (c.client as f64, c.score()))
            .collect(),
    );
    exp.series(
        "fastack-client-scores",
        fast.qoe
            .iter()
            .map(|c| (c.client as f64, c.score()))
            .collect(),
    );
    exp.exit();
}
