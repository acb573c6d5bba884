//! `wifictl trace` — inspect causal flight-recorder dumps.
//!
//! The flight recorder (`telemetry::flight`) serializes each run's
//! last-N typed trace records to a deterministic binary dump. This
//! module is the reader side, renderers over parsed [`FlightDump`]s:
//!
//! * `wifictl trace summary <dump>` — per-component record counts, drop
//!   accounting, time range, and the flows present;
//! * `wifictl trace grep <dump> [--component <prefix>] [--flow <id>]` —
//!   filtered record listing;
//! * `wifictl trace chain <dump> [<flow>]` — the full causal chain of
//!   one flow, time-ordered across every layer (TCP segment → A-MPDU →
//!   MAC tx → BlockAck → fast ACK → airtime). With no flow argument,
//!   picks the first flow with a complete chain;
//! * `wifictl trace diff <a> <b>` — determinism triage: byte-compares
//!   two dumps and, when they differ, locates the first diverging
//!   component and record.
//!
//! Every renderer returns a `String` so tests assert on output
//! verbatim; only `main` prints.

use crate::cli::{self, Args, Outcome};
use telemetry::flight::{FlightDump, FlightEvent};

/// Layers (in causal order) that make a chain "complete" for the
/// paper's TCP-over-802.11ac pipeline.
const CHAIN_LAYERS: [&str; 5] = [
    "tcp-seg",
    "ampdu-build",
    "mac-tx",
    "block-ack",
    "fastack-synth",
];

fn event_line(component: &str, ev: &FlightEvent) -> String {
    let cause = ev.cause;
    format!(
        "{:>14}  {:<18} {}  (cause {}:{})",
        ev.at.to_string(),
        component,
        ev.record(),
        cause.flow_hint(),
        cause.seq_hint(),
    )
}

/// Per-component overview: counts, capacity, wraparound drops, time
/// range, and which flows appear in the dump.
pub fn summary(dump: &FlightDump) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{} components, {} records, {} dropped (ring wraparound)\n",
        dump.components.len(),
        dump.total_records(),
        dump.total_dropped(),
    ));
    out.push_str(&format!(
        "{:<24} {:>8} {:>10} {:>9}  time range\n",
        "component", "records", "capacity", "dropped"
    ));
    for c in &dump.components {
        let range = match (c.records.first(), c.records.last()) {
            (Some(a), Some(b)) => format!("{} .. {}", a.at, b.at),
            _ => "-".to_owned(),
        };
        out.push_str(&format!(
            "{:<24} {:>8} {:>10} {:>9}  {range}\n",
            c.name,
            c.records.len(),
            c.capacity,
            c.dropped,
        ));
    }
    let flows: Vec<String> = dump.flows().iter().map(u64::to_string).collect();
    let flows = if flows.is_empty() {
        "(none)".to_owned()
    } else {
        flows.join(" ")
    };
    out.push_str(&format!("flows: {flows}\n"));
    out
}

/// Record listing filtered by component-name prefix and/or flow id.
pub fn grep(dump: &FlightDump, component: Option<&str>, flow: Option<u64>) -> String {
    let mut out = String::new();
    let lines = dump.events(component, flow);
    for (name, ev) in &lines {
        out.push_str(&event_line(name, ev));
        out.push('\n');
    }
    out.push_str(&format!("{} records matched\n", lines.len()));
    out
}

/// Which of the [`CHAIN_LAYERS`] a flow's chain covers.
fn layers_covered(chain: &[(&str, FlightEvent)]) -> Vec<&'static str> {
    CHAIN_LAYERS
        .iter()
        .copied()
        .filter(|l| chain.iter().any(|(_, ev)| ev.record().layer() == *l))
        .collect()
}

/// The full causal chain of one flow, time-ordered across every layer.
/// With `flow = None`, picks the lowest-numbered flow whose chain
/// covers every layer in [`CHAIN_LAYERS`] (falling back to the first
/// flow present at all).
pub fn chain(dump: &FlightDump, flow: Option<u64>) -> String {
    let flow = flow.or_else(|| {
        let flows = dump.flows();
        flows
            .iter()
            .copied()
            .find(|&f| layers_covered(&dump.chain(f)).len() == CHAIN_LAYERS.len())
            .or_else(|| flows.first().copied())
    });
    let Some(flow) = flow else {
        return "no flows in dump\n".to_owned();
    };
    let chain = dump.chain(flow);
    let mut out = String::new();
    out.push_str(&format!("flow {flow}: {} records\n", chain.len()));
    for (name, ev) in &chain {
        out.push_str(&event_line(name, ev));
        out.push('\n');
    }
    let covered = layers_covered(&chain);
    let complete = covered.len() == CHAIN_LAYERS.len();
    out.push_str(&format!(
        "chain {}: {}\n",
        if complete { "complete" } else { "partial" },
        covered.join(" -> "),
    ));
    out
}

/// Determinism triage. Returns the rendered report and whether the two
/// dumps are identical (the CLI exits non-zero when they are not).
pub fn diff(a: &FlightDump, b: &FlightDump) -> (String, bool) {
    if a.to_bytes() == b.to_bytes() {
        return ("dumps are byte-identical\n".to_owned(), true);
    }
    let mut out = String::from("dumps DIFFER\n");
    let names =
        |d: &FlightDump| -> Vec<String> { d.components.iter().map(|c| c.name.clone()).collect() };
    let (na, nb) = (names(a), names(b));
    for (mine, theirs, which) in [(&na, &nb, "first"), (&nb, &na, "second")] {
        for n in mine.iter().filter(|n| !theirs.contains(n)) {
            out.push_str(&format!("component {n}: only in {which} dump\n"));
        }
    }
    for ca in &a.components {
        let Some(cb) = b.components.iter().find(|c| c.name == ca.name) else {
            continue;
        };
        if ca.records.len() != cb.records.len() {
            out.push_str(&format!(
                "component {}: {} vs {} records\n",
                ca.name,
                ca.records.len(),
                cb.records.len()
            ));
        }
        if let Some(i) = ca
            .records
            .iter()
            .zip(cb.records.iter())
            .position(|(x, y)| x != y)
        {
            out.push_str(&format!(
                "component {}: first divergence at record {i}\n  first:  {}\n  second: {}\n",
                ca.name,
                event_line(&ca.name, &ca.records[i]),
                event_line(&ca.name, &cb.records[i]),
            ));
        }
        if ca.dropped != cb.dropped {
            out.push_str(&format!(
                "component {}: dropped {} vs {}\n",
                ca.name, ca.dropped, cb.dropped
            ));
        }
        if ca.capacity != cb.capacity {
            out.push_str(&format!(
                "component {}: capacity {} vs {}\n",
                ca.name, ca.capacity, cb.capacity
            ));
        }
    }
    (out, false)
}

/// CLI usage text.
pub const USAGE: &str = "wifictl trace — inspect flight-recorder dumps

usage:
  wifictl trace summary <dump.bin>
  wifictl trace grep <dump.bin> [--component <prefix>] [--flow <id>]
  wifictl trace chain <dump.bin> [<flow>]
  wifictl trace diff <a.bin> <b.bin>
";

pub fn load(path: &str) -> Result<FlightDump, String> {
    parse(path, &cli::read_bytes(path)?)
}

fn parse(path: &str, bytes: &[u8]) -> Result<FlightDump, String> {
    FlightDump::parse(bytes).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn parse_flow(v: &str) -> Result<u64, String> {
    v.parse().map_err(|e| format!("bad flow id {v}: {e}"))
}

/// Dispatch `wifictl trace <args>`.
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
        Some("grep") => {
            let a = Args::parse(rest, &["--component", "--flow"], &[], USAGE)?;
            let [path] = a.positional.as_slice() else {
                return Err(USAGE.to_owned());
            };
            let flow = a.value("--flow").map(parse_flow).transpose()?;
            Ok((grep(&load(path)?, a.value("--component"), flow), 0))
        }
        Some("chain") => {
            let a = Args::parse(rest, &[], &[], USAGE)?;
            let (path, flow) = match a.positional.as_slice() {
                [path] => (path, None),
                [path, flow] => (path, Some(parse_flow(flow)?)),
                _ => return Err(USAGE.to_owned()),
            };
            Ok((chain(&load(path)?, flow), 0))
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
pub(crate) mod tests {
    use super::*;
    use crate::cli::tests::{argv, temp_file};
    use sim::{SimDuration, SimTime};
    use telemetry::flight::{cause_for, AirKind, CauseId, FlightRecorder, TraceRecord};

    /// One flow's complete five-layer chain plus a beacon (also the
    /// `wifictl health explain --trace` fixture).
    pub(crate) fn sample() -> FlightDump {
        let rec = FlightRecorder::new(16);
        let t = SimTime::from_micros;
        let c = cause_for(3, 1460);
        rec.emit(
            "tcp.wire",
            t(1),
            c,
            TraceRecord::TcpSeg {
                flow: 3,
                seq: 1460,
                len: 1460,
                retransmit: false,
            },
        );
        rec.emit(
            "mac.ampdu",
            t(2),
            c,
            TraceRecord::AmpduBuild {
                flow: 3,
                frames: 8,
                bytes: 11_680,
            },
        );
        rec.emit(
            "mac.tx",
            t(3),
            c,
            TraceRecord::MacTx {
                flow: 3,
                seq: 1460,
                delivered: true,
            },
        );
        rec.emit(
            "mac.back",
            t(4),
            c,
            TraceRecord::BlockAck {
                flow: 3,
                acked: 8,
                lost: 0,
            },
        );
        rec.emit(
            "fastack.synth",
            t(5),
            c,
            TraceRecord::FastAckSynth {
                flow: 3,
                ack: 2920,
                synthetic: true,
            },
        );
        rec.emit(
            "air",
            t(5),
            CauseId::NONE,
            TraceRecord::AirtimeSpan {
                kind: AirKind::Beacon,
                dur: SimDuration::from_micros(120),
            },
        );
        rec.snapshot()
    }

    #[test]
    fn summary_counts_components_and_flows() {
        let s = summary(&sample());
        assert!(s.starts_with("6 components, 6 records, 0 dropped"), "{s}");
        assert!(s.contains("flows: 3"), "{s}");
        assert!(s.contains("mac.ampdu"), "{s}");
    }

    #[test]
    fn grep_filters_by_component_and_flow() {
        let d = sample();
        let all = grep(&d, None, None);
        assert!(all.contains("6 records matched"), "{all}");
        let mac = grep(&d, Some("mac."), None);
        assert!(mac.contains("3 records matched"), "{mac}");
        assert!(!mac.contains("tcp-seg"), "{mac}");
        let none = grep(&d, None, Some(99));
        assert!(none.contains("0 records matched"), "{none}");
    }

    #[test]
    fn chain_prints_the_complete_causal_path() {
        let d = sample();
        let out = chain(&d, Some(3));
        assert!(out.contains("flow 3: 5 records"), "{out}");
        assert!(
            out.contains(
                "chain complete: tcp-seg -> ampdu-build -> mac-tx -> block-ack -> fastack-synth"
            ),
            "{out}"
        );
        // Auto-pick finds the same flow.
        assert_eq!(chain(&d, None), out);
        // A missing flow yields a partial (empty) chain.
        let missing = chain(&d, Some(42));
        assert!(missing.contains("flow 42: 0 records"), "{missing}");
        assert!(missing.contains("chain partial"), "{missing}");
    }

    #[test]
    fn diff_reports_identity_and_divergence() {
        let d = sample();
        let (out, same) = diff(&d, &d.clone());
        assert!(same, "{out}");

        let mut other = d.clone();
        let ev = &mut other.components[4].records[0];
        if let TraceRecord::MacTx { flow, seq, .. } = ev.record() {
            let lost = TraceRecord::MacTx {
                flow,
                seq,
                delivered: false,
            };
            *ev = FlightEvent::new(ev.at, ev.cause, lost);
        } else {
            panic!("component order changed: {}", other.components[4].name);
        }
        let (out, same) = diff(&d, &other);
        assert!(!same);
        assert!(out.contains("dumps DIFFER"), "{out}");
        assert!(out.contains("first divergence at record 0"), "{out}");

        let mut extra = d.clone();
        extra.components.remove(0);
        let (out, _) = diff(&d, &extra);
        assert!(out.contains("only in first dump"), "{out}");
    }

    #[test]
    fn diff_names_a_capacity_only_divergence() {
        // Two runs that differ only in ring size and never wrap write the
        // same records; the dump header's capacity is the one difference.
        let d = sample();
        let mut bigger = d.clone();
        bigger.components[1].capacity = 32;
        let (out, same) = diff(&d, &bigger);
        assert!(!same);
        assert_eq!(
            out,
            "dumps DIFFER\ncomponent fastack.synth: capacity 16 vs 32\n"
        );
    }

    #[test]
    fn run_dispatches_and_reports_usage() {
        assert!(run(&[]).is_err());
        assert!(run(&argv(&["nonsense"])).is_err());

        let path = temp_file("trace-test", "dump.bin", sample().to_bytes());

        let (out, code) = run(&argv(&["summary", &path])).unwrap();
        assert_eq!(code, 0);
        assert!(out.contains("6 components"));

        let (out, code) = run(&argv(&["grep", &path, "--component", "mac.", "--flow=3"])).unwrap();
        assert_eq!(code, 0);
        assert!(out.contains("3 records matched"), "{out}");

        let (out, code) = run(&argv(&["chain", &path, "3"])).unwrap();
        assert_eq!(code, 0);
        assert!(out.contains("chain complete"), "{out}");

        assert!(run(&argv(&["chain", &path, "--bogus"])).is_err());

        let (_, code) = run(&argv(&["diff", &path, &path])).unwrap();
        assert_eq!(code, 0);

        let mut other = sample();
        other.components[0].records.pop();
        let p2 = temp_file("trace-test", "other.bin", other.to_bytes());
        let (out, code) = run(&argv(&["diff", &path, &p2])).unwrap();
        assert_eq!(code, 1);
        assert!(out.contains("dumps DIFFER"), "{out}");

        // Unreadable / unparsable files are errors, not panics.
        assert!(run(&argv(&["summary", "/nonexistent.bin"])).is_err());
    }

    #[test]
    fn diff_never_calls_two_different_files_identical() {
        // `tcp.wire` sorts last, so the file's final byte is its
        // record's `retransmit` bool; 2 is no spelling the writer makes.
        let mut odd = sample().to_bytes();
        let a = temp_file("trace-odd-bool", "a.bin", &odd);
        *odd.last_mut().unwrap() = 2;
        let b = temp_file("trace-odd-bool", "b.bin", &odd);
        let err = run(&argv(&["diff", &a, &b])).unwrap_err();
        assert!(err.contains("bool byte 2"), "{err}");
    }
}
