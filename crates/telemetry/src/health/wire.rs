//! The alert stream's types and its canonical JSON — the only code that
//! knows the grammar `wifictl health` reads back.

use crate::flight::CauseId;
use crate::json::{self, f64_exact, write_str, Cursor};
use sim::SimTime;
use std::collections::BTreeMap;

/// Alert severity. `Critical` is raised when the detector level reaches
/// the rule's critical multiple of its raise threshold; an open alert
/// upgrades (never downgrades) while it stays raised.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Warning,
    Critical,
}

impl Severity {
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        }
    }

    fn from_str(s: &str) -> Result<Severity, String> {
        match s {
            "warning" => Ok(Severity::Warning),
            "critical" => Ok(Severity::Critical),
            other => Err(format!("unknown severity {other:?}")),
        }
    }

    /// Weight used for worst-N scoring in fleet rollups.
    pub fn weight(self) -> u64 {
        match self {
            Severity::Warning => 1,
            Severity::Critical => 3,
        }
    }
}

/// One raised (and possibly cleared) health alert.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// Scope the detector watched (`ap0`, `tcp`, `net42.sched`, …).
    pub component: String,
    /// Rule name (one of the `RULE_*` constants).
    pub rule: String,
    pub severity: Severity,
    pub raised_at: SimTime,
    /// `None` while the condition still held at the end of the run.
    pub cleared_at: Option<SimTime>,
    /// Causal link into the flight dump (`wifictl trace chain`), when the
    /// detector could resolve one.
    pub cause: Option<CauseId>,
    /// Detector level when raised (peak level while open).
    pub value: f64,
    /// The raise threshold the level crossed.
    pub threshold: f64,
}

impl Alert {
    /// The flow id packed into `cause`, if any — the argument for
    /// `wifictl trace chain <flow>`.
    pub fn cause_flow(&self) -> Option<u64> {
        let flow = self.cause?.flow_hint();
        (flow != 0).then_some(flow)
    }

    /// The alert object of the canonical grammar; `"cause"` is the raw
    /// [`CauseId`], resolved to a flow only when read back.
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"component\":");
        write_str(out, &self.component);
        out.push_str(",\"rule\":");
        write_str(out, &self.rule);
        out.push_str(",\"severity\":\"");
        out.push_str(self.severity.as_str());
        out.push_str("\",\"raised_at_ns\":");
        out.push_str(&self.raised_at.as_nanos().to_string());
        out.push_str(",\"cleared_at_ns\":");
        out.push_str(&json::opt_u64(self.cleared_at.map(SimTime::as_nanos)));
        out.push_str(",\"cause\":");
        out.push_str(&json::opt_u64(self.cause.map(|c| c.0)));
        out.push_str(",\"value\":");
        out.push_str(&f64_exact(self.value));
        out.push_str(",\"threshold\":");
        out.push_str(&f64_exact(self.threshold));
        out.push('}');
    }

    fn parse(cur: &mut Cursor<'_>) -> Result<Alert, String> {
        cur.lit("{\"component\":")?;
        let component = cur.string()?;
        cur.lit(",\"rule\":")?;
        let rule = cur.string()?;
        cur.lit(",\"severity\":")?;
        let severity = Severity::from_str(&cur.string()?)?;
        cur.lit(",\"raised_at_ns\":")?;
        let raised_at = SimTime::from_nanos(cur.u64()?);
        cur.lit(",\"cleared_at_ns\":")?;
        let cleared_at = cur.opt_u64()?.map(SimTime::from_nanos);
        cur.lit(",\"cause\":")?;
        let cause = cur.opt_u64()?.map(CauseId);
        cur.lit(",\"value\":")?;
        let value = cur.f64()?;
        cur.lit(",\"threshold\":")?;
        let threshold = cur.f64()?;
        cur.lit("}")?;
        Ok(Alert {
            component,
            rule,
            severity,
            raised_at,
            cleared_at,
            cause,
            value,
            threshold,
        })
    }
}

/// The alert stream of one run (or one network), in canonical order:
/// `(raised_at, component, rule)`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HealthReport {
    /// Detector evaluation steps taken (0 ⇒ health was disabled).
    pub steps: u64,
    pub alerts: Vec<Alert>,
}

impl HealthReport {
    /// Alerts never cleared by the end of the run.
    pub fn open(&self) -> impl Iterator<Item = &Alert> {
        self.alerts.iter().filter(|a| a.cleared_at.is_none())
    }

    fn counts<'a>(&'a self, key: impl Fn(&'a Alert) -> &'a str) -> BTreeMap<String, u64> {
        let mut m = BTreeMap::new();
        for a in &self.alerts {
            *m.entry(key(a).to_string()).or_insert(0) += 1;
        }
        m
    }

    /// Alert counts per rule name.
    pub fn counts_by_rule(&self) -> BTreeMap<String, u64> {
        self.counts(|a| &a.rule)
    }

    /// Alert counts per severity.
    pub fn counts_by_severity(&self) -> BTreeMap<String, u64> {
        self.counts(|a| a.severity.as_str())
    }

    /// Severity-weighted badness (3 per critical, 1 per warning).
    pub fn score(&self) -> u64 {
        self.alerts.iter().map(|a| a.severity.weight()).sum()
    }

    /// Fold another report in, prefixing its components with `label.`
    /// (empty label ⇒ verbatim). Steps sum; the alert list is re-sorted
    /// into canonical order, so absorbing in any order yields the same
    /// report.
    pub fn absorb(&mut self, label: &str, other: &HealthReport) {
        self.steps += other.steps;
        for a in &other.alerts {
            let mut a = a.clone();
            if !label.is_empty() {
                a.component = format!("{label}.{}", a.component);
            }
            self.alerts.push(a);
        }
        sort_alerts(&mut self.alerts);
    }

    /// Canonical byte-stable JSON (sorted alerts, fixed key order,
    /// `{:?}` float formatting — same conventions as the metrics
    /// registry snapshots).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"steps\":");
        out.push_str(&self.steps.to_string());
        out.push_str(",\"alerts\":[");
        for (i, a) in self.alerts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            a.write_json(&mut out);
        }
        out.push_str("]}");
        out
    }

    /// Strict parse of the canonical JSON produced by
    /// [`HealthReport::to_json`] (exact grammar; this is a determinism
    /// tool, not a general JSON reader).
    pub fn parse(text: &str) -> Result<HealthReport, String> {
        let mut cur = Cursor::new("health json", text);
        cur.lit("{\"steps\":")?;
        let steps = cur.u64()?;
        cur.lit(",\"alerts\":[")?;
        let mut alerts = Vec::new();
        cur.list("]", |cur| {
            alerts.push(Alert::parse(cur)?);
            Ok(())
        })?;
        cur.lit("}")?;
        cur.skip_ws();
        cur.end()?;
        Ok(HealthReport { steps, alerts })
    }
}

pub(super) fn sort_alerts(alerts: &mut [Alert]) {
    alerts.sort_by(|a, b| {
        (a.raised_at, &a.component, &a.rule, a.cleared_at).cmp(&(
            b.raised_at,
            &b.component,
            &b.rule,
            b.cleared_at,
        ))
    });
}

/// Fleet-wide health: every network's report merged (components
/// prefixed `net<id>.`) plus the summaries a fleet operator actually
/// reads. Built shard-by-shard but always *reduced* in network-id
/// order, so — like the metrics registry — the rollup JSON is
/// byte-identical across 1/2/8 worker threads.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HealthRollup {
    /// Alert counts by rule name, fleet-wide.
    pub by_rule: BTreeMap<String, u64>,
    /// Alert counts by severity, fleet-wide.
    pub by_severity: BTreeMap<String, u64>,
    /// Worst networks by severity-weighted score, descending (ties by
    /// label), truncated to the configured N. Quiet networks are
    /// omitted.
    pub worst: Vec<(String, u64)>,
    /// The merged per-network alert stream.
    pub report: HealthReport,
}

impl HealthRollup {
    /// Merge labelled reports (fold them **in id order** for the
    /// determinism guarantee), keeping the `n_worst` highest-scoring
    /// labels.
    pub fn rollup<'a, I>(reports: I, n_worst: usize) -> HealthRollup
    where
        I: IntoIterator<Item = (String, &'a HealthReport)>,
    {
        let mut out = HealthRollup::default();
        for (label, r) in reports {
            let score = r.score();
            if score > 0 {
                out.worst.push((label.clone(), score));
            }
            out.report.absorb(&label, r);
        }
        out.worst
            .sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out.worst.truncate(n_worst);
        out.by_rule = out.report.counts_by_rule();
        out.by_severity = out.report.counts_by_severity();
        out
    }

    /// Canonical byte-stable JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"by_rule\":");
        write_count_map(&mut out, &self.by_rule);
        out.push_str(",\"by_severity\":");
        write_count_map(&mut out, &self.by_severity);
        out.push_str(",\"worst\":");
        self.write_worst(&mut out);
        out.push_str(",\"report\":");
        out.push_str(&self.report.to_json());
        out.push('}');
        out
    }

    /// The `[["label",score],…]` worst-networks list.
    fn write_worst(&self, out: &mut String) {
        out.push('[');
        for (i, (label, score)) in self.worst.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            write_str(out, label);
            out.push_str(&format!(",{score}]"));
        }
        out.push(']');
    }
}

/// `{"name":count,…}` in key order.
fn write_count_map(out: &mut String, counts: &BTreeMap<String, u64>) {
    out.push('{');
    for (i, (k, v)) in counts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_str(out, k);
        out.push(':');
        out.push_str(&v.to_string());
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::cause_for;
    use crate::health::{tests::t, RULE_AMPDU_COLLAPSE, RULE_CHANNEL_FLAP, RULE_RTO_STORM};

    #[test]
    fn report_json_roundtrips_and_is_byte_stable() {
        let report = HealthReport {
            steps: 42,
            alerts: vec![
                Alert {
                    component: "ap0".into(),
                    rule: RULE_AMPDU_COLLAPSE.into(),
                    severity: Severity::Critical,
                    raised_at: t(10),
                    cleared_at: Some(t(20)),
                    cause: Some(cause_for(3, 1460)),
                    value: 3.25,
                    threshold: 1.8,
                },
                Alert {
                    component: "tcp".into(),
                    rule: RULE_RTO_STORM.into(),
                    severity: Severity::Warning,
                    raised_at: t(15),
                    cleared_at: None,
                    cause: None,
                    value: 7.0,
                    threshold: 6.0,
                },
            ],
        };
        let json = report.to_json();
        assert_eq!(json, report.to_json(), "byte-stable");
        let parsed = HealthReport::parse(&json).expect("strict parse");
        assert_eq!(parsed, report);
        assert_eq!(parsed.to_json(), json, "parse→emit is the identity");
        // Trailing newline (files) is tolerated; junk is not.
        assert!(HealthReport::parse(&format!("{json}\n")).is_ok());
        assert!(HealthReport::parse(&format!("{json}x")).is_err());
        assert!(HealthReport::parse("{\"steps\":oops").is_err());
    }

    #[test]
    fn absorb_is_order_independent_and_prefixes() {
        let mk = |component: &str, step: u64| HealthReport {
            steps: 10,
            alerts: vec![Alert {
                component: component.into(),
                rule: RULE_CHANNEL_FLAP.into(),
                severity: Severity::Warning,
                raised_at: t(step),
                cleared_at: None,
                cause: None,
                value: 4.0,
                threshold: 3.0,
            }],
        };
        let (a, b) = (mk("sched", 5), mk("sched", 2));
        let mut ab = HealthReport::default();
        ab.absorb("net0", &a);
        ab.absorb("net1", &b);
        let mut ba = HealthReport::default();
        ba.absorb("net1", &b);
        ba.absorb("net0", &a);
        assert_eq!(ab.to_json(), ba.to_json());
        assert_eq!(ab.steps, 20);
        assert_eq!(ab.alerts[0].component, "net1.sched", "sorted by raise time");
        assert_eq!(ab.alerts[1].component, "net0.sched");
    }

    #[test]
    fn rollup_counts_and_ranks_worst_networks() {
        let mk = |n_crit: usize, n_warn: usize| {
            let mut alerts = Vec::new();
            for i in 0..(n_crit + n_warn) {
                alerts.push(Alert {
                    component: "ap0".into(),
                    rule: RULE_AMPDU_COLLAPSE.into(),
                    severity: if i < n_crit {
                        Severity::Critical
                    } else {
                        Severity::Warning
                    },
                    raised_at: t(i as u64),
                    cleared_at: None,
                    cause: None,
                    value: 2.0,
                    threshold: 1.8,
                });
            }
            HealthReport { steps: 4, alerts }
        };
        let quiet = HealthReport {
            steps: 4,
            alerts: vec![],
        };
        let reports = [mk(0, 1), mk(2, 0), quiet.clone(), mk(0, 2)];
        let rollup = HealthRollup::rollup(
            reports
                .iter()
                .enumerate()
                .map(|(i, r)| (format!("net{i}"), r)),
            2,
        );
        assert_eq!(rollup.report.steps, 16);
        assert_eq!(rollup.by_rule.get(RULE_AMPDU_COLLAPSE), Some(&5));
        assert_eq!(rollup.by_severity.get("critical"), Some(&2));
        assert_eq!(rollup.by_severity.get("warning"), Some(&3));
        // net1 scores 6 (2 criticals), net3 scores 2, net0 scores 1,
        // net2 is quiet and omitted; top-2 kept.
        assert_eq!(
            rollup.worst,
            vec![("net1".to_string(), 6), ("net3".to_string(), 2)]
        );
        let json = rollup.to_json();
        assert!(json.starts_with("{\"by_rule\":{\"ampdu-collapse\":5},\"by_severity\":{\"critical\":2,\"warning\":3},\"worst\":[[\"net1\",6],[\"net3\",2]],\"report\":{\"steps\":16,"), "{json}");
    }
}
