//! `wifictl health` — triage health snapshots produced by
//! `telemetry::health`.
//!
//! The health engine serializes each run's alert stream to canonical
//! JSON, a [`HealthReport`] (`{"steps":…`). Every bench binary's
//! `--health` writes one; a fleet run's is every network's report merged
//! under `net<id>.` prefixes. This module is the reader side:
//!
//! * `wifictl health summary <health.json>` — steps, score, and alert
//!   counts by rule and severity;
//! * `wifictl health alerts <health.json> [--rule <r>] [--network <n>]
//!   [--severity <s>]` — filtered alert listing;
//! * `wifictl health explain <health.json> [<idx>] [--trace <dump.bin>]`
//!   — one alert in detail. With no index, picks the worst alert
//!   (highest severity, earliest raise). With `--trace`, resolves the
//!   alert's causal link through the flight dump and prints the full
//!   `wifictl trace chain` for its flow;
//! * `wifictl health diff <a> <b>` — determinism triage: exits 1 when
//!   the two snapshots diverge, pointing at the first difference.
//!
//! Every renderer returns a `String` so tests assert on output
//! verbatim; only `main` prints.

use crate::cli::{self, Args, Outcome};
use crate::trace;
use telemetry::flight::FlightDump;
use telemetry::{Alert, HealthReport};

fn alert_line(a: &Alert) -> String {
    let state = match a.cleared_at {
        Some(t) => format!("cleared {t}"),
        None => "open".to_owned(),
    };
    let cause = match a.cause_flow() {
        Some(f) => format!("  flow {f}"),
        None => String::new(),
    };
    format!(
        "{:>14}  {:<20} {:<16} {:<8} value={:.3} threshold={:.3}  {state}{cause}",
        a.raised_at.to_string(),
        a.component,
        a.rule,
        a.severity.as_str(),
        a.value,
        a.threshold,
    )
}

/// Overview: steps, score, counts by rule and severity.
pub fn summary(r: &HealthReport) -> String {
    let open = r.open().count();
    let mut out = format!(
        "report: {} detector steps, {} alerts ({} open), score {}\n",
        r.steps,
        r.alerts.len(),
        open,
        r.score(),
    );
    if r.alerts.is_empty() {
        out.push_str("no alerts\n");
        return out;
    }
    out.push_str("by rule:\n");
    for (rule, n) in r.counts_by_rule() {
        out.push_str(&format!("  {rule:<20} {n}\n"));
    }
    out.push_str("by severity:\n");
    for (sev, n) in r.counts_by_severity() {
        out.push_str(&format!("  {sev:<20} {n}\n"));
    }
    out
}

/// Filters for the `alerts` listing. `network` matches a component
/// exactly or as a dotted prefix (`net3` matches `net3.sched`).
#[derive(Debug, Clone, Default)]
pub struct AlertFilter {
    pub rule: Option<String>,
    pub network: Option<String>,
    pub severity: Option<String>,
}

impl AlertFilter {
    fn accepts(&self, a: &Alert) -> bool {
        if let Some(r) = &self.rule {
            if a.rule != *r {
                return false;
            }
        }
        if let Some(n) = &self.network {
            if a.component != *n && !a.component.starts_with(&format!("{n}.")) {
                return false;
            }
        }
        if let Some(s) = &self.severity {
            if a.severity.as_str() != s {
                return false;
            }
        }
        true
    }
}

/// Alert listing, one line per alert, in canonical report order.
pub fn alerts(r: &HealthReport, filter: &AlertFilter) -> String {
    let mut out = String::new();
    let mut n = 0;
    for a in &r.alerts {
        if filter.accepts(a) {
            out.push_str(&alert_line(a));
            out.push('\n');
            n += 1;
        }
    }
    out.push_str(&format!("{n} alerts matched\n"));
    out
}

/// The "worst" alert: highest severity first, then earliest raise.
/// Ties resolve to the lowest index, so the pick is deterministic.
pub fn worst_alert(r: &HealthReport) -> Option<usize> {
    r.alerts
        .iter()
        .enumerate()
        .min_by_key(|(_, a)| (std::cmp::Reverse(a.severity.weight()), a.raised_at))
        .map(|(i, _)| i)
}

/// One alert in detail. `idx` indexes the canonical alert order (as
/// printed by `alerts`); `None` picks the worst alert. When a flight
/// dump is supplied and the alert carries a causal link, the full
/// `wifictl trace chain` for its flow is appended — the complete story from
/// TCP segment to airtime for the transmission that tripped the rule.
pub fn explain(r: &HealthReport, idx: Option<usize>, dump: Option<&FlightDump>) -> String {
    let Some(idx) = idx.or_else(|| worst_alert(r)) else {
        return "no alerts\n".to_owned();
    };
    let Some(a) = r.alerts.get(idx) else {
        return format!("no alert #{idx} (report has {})\n", r.alerts.len());
    };
    let mut out = format!("alert #{idx}\n{}\n", alert_line(a));
    match (a.cause_flow(), dump) {
        (None, _) => out.push_str("no causal link recorded for this alert\n"),
        (Some(f), None) => out.push_str(&format!(
            "causal flow {f} — rerun with --trace <dump.bin> to resolve the chain\n"
        )),
        (Some(f), Some(d)) => {
            out.push_str(&format!("causal chain (wifictl trace chain {f}):\n"));
            out.push_str(&trace::chain(d, Some(f)));
        }
    }
    out
}

/// Determinism triage. Returns the rendered report and whether the two
/// snapshots are identical (the CLI exits non-zero when they are not).
pub fn diff(ra: &HealthReport, rb: &HealthReport) -> (String, bool) {
    if ra.to_json() == rb.to_json() {
        return ("snapshots are byte-identical\n".to_owned(), true);
    }
    let mut out = String::from("snapshots DIFFER\n");
    if ra.steps != rb.steps {
        out.push_str(&format!("steps: {} vs {}\n", ra.steps, rb.steps));
    }
    if ra.alerts.len() != rb.alerts.len() {
        out.push_str(&format!(
            "alerts: {} vs {}\n",
            ra.alerts.len(),
            rb.alerts.len()
        ));
    }
    let (ca, cb) = (ra.counts_by_rule(), rb.counts_by_rule());
    for rule in ca.keys().chain(cb.keys()) {
        let (na, nb) = (
            ca.get(rule).copied().unwrap_or(0),
            cb.get(rule).copied().unwrap_or(0),
        );
        if na != nb {
            out.push_str(&format!("rule {rule}: {na} vs {nb}\n"));
        }
    }
    if let Some(i) = ra
        .alerts
        .iter()
        .zip(rb.alerts.iter())
        .position(|(x, y)| x != y)
    {
        out.push_str(&format!(
            "first divergence at alert {i}\n  first:  {}\n  second: {}\n",
            alert_line(&ra.alerts[i]),
            alert_line(&rb.alerts[i]),
        ));
    }
    (out, false)
}

/// CLI usage text.
pub const USAGE: &str = "wifictl health — triage health snapshots

usage:
  wifictl health summary <health.json>
  wifictl health alerts <health.json> [--rule <r>] [--network <n>] [--severity <s>]
  wifictl health explain <health.json> [<idx>] [--trace <dump.bin>]
  wifictl health diff <a.json> <b.json>
";

fn load(path: &str) -> Result<HealthReport, String> {
    parse(path, &cli::read_bytes(path)?)
}

fn parse(path: &str, bytes: &[u8]) -> Result<HealthReport, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| e.to_string());
    text.and_then(HealthReport::parse)
        .map_err(|e| format!("cannot parse {path}: {e}"))
}

/// Dispatch `wifictl health <args>`.
pub fn run(args: &[String]) -> Outcome {
    let cmd = args.first().map(String::as_str);
    let rest = args.get(1..).unwrap_or_default();
    match cmd {
        Some("summary") => {
            let a = Args::parse(rest, &[], &[], USAGE)?;
            let [path] = a.positional.as_slice() else {
                return Err(USAGE.to_owned());
            };
            Ok((summary(&load(path)?), 0))
        }
        Some("alerts") => {
            let valued = ["--rule", "--network", "--severity"];
            let a = Args::parse(rest, &valued, &[], USAGE)?;
            let [path] = a.positional.as_slice() else {
                return Err(USAGE.to_owned());
            };
            let filter = AlertFilter {
                rule: a.value("--rule").map(str::to_owned),
                network: a.value("--network").map(str::to_owned),
                severity: a.value("--severity").map(str::to_owned),
            };
            Ok((alerts(&load(path)?, &filter), 0))
        }
        Some("explain") => {
            let a = Args::parse(rest, &["--trace"], &[], USAGE)?;
            let (path, idx) = match a.positional.as_slice() {
                [path] => (path, None),
                [path, idx] => {
                    let idx = idx
                        .parse()
                        .map_err(|e| format!("bad alert index {idx}: {e}"));
                    (path, Some(idx?))
                }
                _ => return Err(USAGE.to_owned()),
            };
            let dump = a.value("--trace").map(trace::load).transpose()?;
            Ok((explain(&load(path)?, idx, dump.as_ref()), 0))
        }
        Some("diff") => {
            let a = Args::parse(rest, &[], &[], USAGE)?;
            let [pa, pb] = a.positional.as_slice() else {
                return Err(USAGE.to_owned());
            };
            cli::diff_files(pa, pb, parse, diff)
        }
        _ => Err(USAGE.to_owned()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::tests::{argv, temp_file};
    use crate::trace::tests::sample as sample_dump;
    use sim::SimTime;
    use telemetry::flight::cause_for;
    use telemetry::health::RULE_AMPDU_COLLAPSE;
    use telemetry::{CauseId, HealthRollup, Severity};

    fn mk_alert(component: &str, rule: &str, sev: Severity, at_ms: u64) -> Alert {
        Alert {
            component: component.to_owned(),
            rule: rule.to_owned(),
            severity: sev,
            raised_at: SimTime::from_millis(at_ms),
            cleared_at: None,
            cause: None,
            value: 2.0,
            threshold: 1.8,
        }
    }

    fn mk_report() -> HealthReport {
        let mut r = HealthReport {
            steps: 12,
            alerts: Vec::new(),
        };
        let mut warn = mk_alert("ap0", RULE_AMPDU_COLLAPSE, Severity::Warning, 100);
        warn.cleared_at = Some(SimTime::from_millis(300));
        r.alerts.push(warn);
        let mut crit = mk_alert("ap1", "rto-storm", Severity::Critical, 200);
        crit.cause = Some(CauseId(cause_for(3, 1460).0));
        r.alerts.push(crit);
        r
    }

    /// Two networks merged the way `fleet_scale --health` writes them:
    /// net0 holds [`mk_report`]'s two alerts, net1 one open warning
    /// raised between them. Canonical order: net0.ap0, net1.ap0,
    /// net0.ap1.
    fn mk_fleet() -> HealthReport {
        let net1 = HealthReport {
            steps: 12,
            alerts: vec![mk_alert("ap0", RULE_AMPDU_COLLAPSE, Severity::Warning, 150)],
        };
        let mut r = HealthReport::default();
        r.absorb("net0", &mk_report());
        r.absorb("net1", &net1);
        r
    }

    #[test]
    fn summary_counts_rules_and_severities() {
        let s = summary(&mk_report());
        assert!(
            s.starts_with("report: 12 detector steps, 2 alerts (1 open), score 4"),
            "{s}"
        );
        assert!(s.contains("ampdu-collapse       1"), "{s}");
        assert!(s.contains("critical             1"), "{s}");

        let s = summary(&mk_fleet());
        assert!(
            s.starts_with("report: 24 detector steps, 3 alerts (2 open), score 5"),
            "{s}"
        );
        assert!(s.contains("ampdu-collapse       2"), "{s}");
        assert!(s.contains("warning              2"), "{s}");

        let quiet = summary(&HealthReport::default());
        assert!(quiet.contains("no alerts"), "{quiet}");
    }

    #[test]
    fn alerts_filters_compose() {
        let r = mk_fleet();
        let matched = |f: AlertFilter| alerts(&r, &f);
        let all = matched(AlertFilter::default());
        assert!(all.contains("3 alerts matched"), "{all}");
        let f = AlertFilter {
            rule: Some(RULE_AMPDU_COLLAPSE.to_owned()),
            ..AlertFilter::default()
        };
        assert!(matched(f).contains("2 alerts matched"));
        // `--network` is an exact name or a dotted prefix.
        for (network, n) in [("net0", 2), ("net1", 1), ("net", 0), ("net0.ap1", 1)] {
            let f = AlertFilter {
                network: Some(network.to_owned()),
                ..AlertFilter::default()
            };
            let out = matched(f);
            assert!(
                out.contains(&format!("{n} alerts matched")),
                "{network}: {out}"
            );
        }
        let f = AlertFilter {
            severity: Some("critical".to_owned()),
            ..AlertFilter::default()
        };
        assert!(matched(f).contains("1 alerts matched"));
        let empty = alerts(&HealthReport::default(), &AlertFilter::default());
        assert_eq!(empty, "0 alerts matched\n");
    }

    #[test]
    fn explain_picks_worst_and_resolves_chain() {
        let r = mk_fleet();
        // Worst = the critical alert (index 2 in canonical order).
        assert_eq!(worst_alert(&r), Some(2));
        let out = explain(&r, None, None);
        assert!(out.contains("alert #2"), "{out}");
        assert!(out.contains("net0.ap1"), "{out}");
        assert!(out.contains("rto-storm"), "{out}");
        assert!(out.contains("rerun with --trace"), "{out}");

        let dump = sample_dump();
        let out = explain(&r, None, Some(&dump));
        assert!(
            out.contains("causal chain (wifictl trace chain 3)"),
            "{out}"
        );
        assert!(out.contains("chain complete"), "{out}");

        // The warnings have no causal link.
        let out = explain(&r, Some(1), Some(&dump));
        assert!(out.contains("net1.ap0"), "{out}");
        assert!(out.contains("no causal link recorded"), "{out}");

        assert!(explain(&r, Some(9), None).contains("no alert #9 (report has 3)"));
        assert_eq!(explain(&HealthReport::default(), None, None), "no alerts\n");
    }

    #[test]
    fn diff_reports_identity_and_divergence() {
        let a = mk_report();
        let (out, same) = diff(&a, &a.clone());
        assert!(same, "{out}");

        let mut other = mk_report();
        other.alerts[1].severity = Severity::Warning;
        let (out, same) = diff(&a, &other);
        assert!(!same);
        assert!(out.contains("snapshots DIFFER"), "{out}");
        assert!(out.contains("first divergence at alert 1"), "{out}");

        let mut fewer = mk_report();
        fewer.alerts.pop();
        let (out, _) = diff(&a, &fewer);
        assert!(out.contains("alerts: 2 vs 1"), "{out}");
        assert!(out.contains("rule rto-storm: 1 vs 0"), "{out}");
    }

    #[test]
    fn run_dispatches_and_reports_usage() {
        assert!(run(&[]).is_err());
        assert!(run(&argv(&["nonsense"])).is_err());

        let path = temp_file("health-test", "health.json", mk_fleet().to_json());

        let (out, code) = run(&argv(&["summary", &path])).unwrap();
        assert_eq!(code, 0);
        assert!(out.starts_with("report:"), "{out}");

        let (out, code) = run(&argv(&[
            "alerts",
            &path,
            "--rule",
            RULE_AMPDU_COLLAPSE,
            "--network=net0",
        ]))
        .unwrap();
        assert_eq!(code, 0);
        assert!(out.contains("1 alerts matched"), "{out}");

        assert!(run(&argv(&["summary", &path, "--bogus"])).is_err());

        let dump = temp_file("health-test", "dump.bin", sample_dump().to_bytes());
        let (out, code) = run(&argv(&["explain", &path, "--trace", &dump])).unwrap();
        assert_eq!(code, 0);
        assert!(out.contains("chain complete"), "{out}");

        let (_, code) = run(&argv(&["diff", &path, &path])).unwrap();
        assert_eq!(code, 0);

        let p2 = temp_file("health-test", "other.json", mk_report().to_json());
        let (out, code) = run(&argv(&["diff", &path, &p2])).unwrap();
        assert_eq!(code, 1);
        assert!(out.contains("snapshots DIFFER"), "{out}");

        // A fleet rollup is not a `--health` file: nothing writes one.
        let rollup = HealthRollup::rollup([("net0".to_owned(), &mk_report())], 5);
        let p3 = temp_file("health-test", "rollup.json", rollup.to_json());
        let err = run(&argv(&["summary", &p3])).unwrap_err();
        assert!(err.starts_with("cannot parse "), "{err}");
        assert!(run(&argv(&["summary", "/nonexistent.json"])).is_err());
    }

    #[test]
    fn diff_never_calls_two_different_files_identical() {
        // `+012` parses as 12, but the writer spells it `12`.
        let json = mk_report().to_json();
        let padded = json.replacen("{\"steps\":12,", "{\"steps\":+012,", 1);
        assert_ne!(padded, json);
        let a = temp_file("health-padded", "a.json", json);
        let b = temp_file("health-padded", "b.json", padded);
        let (out, code) = run(&argv(&["diff", &a, &b])).unwrap();
        assert_eq!(code, 1);
        assert_eq!(
            out,
            "files DIFFER: they encode the same content differently\n"
        );
    }
}
