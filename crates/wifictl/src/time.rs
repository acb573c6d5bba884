//! `wifictl time` — inspect deterministic TSL1 timeline dumps.
//!
//! The timeline sampler (`telemetry::timeline`) serializes each run's
//! periodic counter/gauge/f64 snapshots to a delta-encoded binary dump.
//! This module is the reader side, renderers over parsed [`Timeline`]s:
//!
//! * `wifictl time summary <dump>` — cadence, tick retention/eviction,
//!   time range, per-series table, and the downsampled tiers;
//! * `wifictl time query <dump> <series> [--from <ms>] [--to <ms>]
//!   [--bucket <ms>] [--agg <mean|max|min|sum|count|last>]` — one
//!   `seconds value` line per sample (or per bucket with `--bucket`),
//!   printed with shortest-roundtrip floats so the fig14 cwnd curve
//!   comes back token-identical to what the bench harness dumped;
//! * `wifictl time plot <dump> <series> [--from/--to/--width]` — ASCII
//!   sparkline, deterministic for a given dump;
//! * `wifictl time export <dump> [--series <prefix>]` — CSV
//!   (`series,kind,t_ns,value`) of every series, sorted by name;
//! * `wifictl time diff <a> <b>` — determinism triage: byte-compares
//!   two dumps and, when they differ, names the first diverging series
//!   and timestamp (exit 1).
//!
//! Every renderer returns a `String` so tests assert on output
//! verbatim; only `main` prints.

use crate::cli::{self, Args, Outcome};
use sim::{SimDuration, SimTime};
use std::fmt::Write as _;
use telemetry::{Agg, SeriesKind, Timeline};

/// Half-open query window, defaulting to everything.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub from: SimTime,
    pub to: SimTime,
}

impl Default for Window {
    fn default() -> Self {
        Window {
            from: SimTime::ZERO,
            to: SimTime::MAX,
        }
    }
}

/// Seconds on the bench axis: the exact expression `fig14_cwnd` uses
/// for its cwnd curves, so query output tokens match the figure JSON.
fn secs(t: SimTime) -> f64 {
    t.as_nanos() as f64 / 1e9
}

/// Cadence, retention, time range, series table, tiers.
pub fn summary(tl: &Timeline) -> String {
    let mut out = String::new();
    if tl.is_empty() {
        out.push_str("empty timeline (no ticks, no series)\n");
        return out;
    }
    for t in tl.tables() {
        let (step, rows, evicted) = (t.bucket(), t.rows(), t.dropped_rows());
        let Some(agg) = t.agg() else {
            let _ = writeln!(
                out,
                "TSL1 timeline: every {step}, {rows} ticks retained, {evicted} evicted"
            );
            series_table(&mut out, tl);
            continue;
        };
        let agg = agg.label();
        let _ = writeln!(
            out,
            "tier bucket {step} {agg}: {rows} rows retained, {evicted} evicted"
        );
    }
    out
}

/// The raw ring's part of [`summary`]: time range, then one line per
/// series.
fn series_table(out: &mut String, tl: &Timeline) {
    let range = match (tl.first_stamp(), tl.last_stamp()) {
        (Some(a), Some(b)) => format!("{a} .. {b}"),
        _ => "-".to_owned(),
    };
    let _ = writeln!(out, "time range: {range}");
    let names: Vec<&str> = tl.series_names().collect();
    let _ = writeln!(out, "{} series:", names.len());
    let _ = writeln!(
        out,
        "  {:<44} {:>8} {:>8} {:>14}",
        "series", "kind", "samples", "last"
    );
    for name in names {
        let kind = tl.kind(name).expect("listed series").label();
        let last = tl.last(name).map_or("-".to_owned(), |v| format!("{v}"));
        let _ = writeln!(
            out,
            "  {:<44} {:>8} {:>8} {:>14}",
            name,
            kind,
            tl.series_len(name),
            last
        );
    }
}

/// One `seconds value` line per sample in the window; with `bucket`,
/// one line per non-empty bucket downsampled via `agg`
/// (`Timeline::downsample`). Unknown series is an error, not empty
/// output.
pub fn query(
    tl: &Timeline,
    series: &str,
    w: Window,
    bucket: Option<SimDuration>,
    agg: Agg,
) -> Result<String, String> {
    known(tl, series)?;
    let pts = match bucket {
        Some(b) => tl.downsample(series, w.from, w.to, b, agg),
        None => tl.range(series, w.from, w.to),
    };
    let mut out = String::new();
    for (t, v) in &pts {
        let _ = writeln!(out, "{} {v}", secs(*t));
    }
    Ok(out)
}

/// Unknown series is an error, not empty output.
fn known(tl: &Timeline, series: &str) -> Result<(), String> {
    let hint = || format!("no series {series} in dump (try `wifictl time summary`)");
    tl.kind(series).map(drop).ok_or_else(hint)
}

const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// ASCII sparkline of a series: samples chunked to at most `width`
/// columns (in-order mean per chunk), scaled between the window's min
/// and max. A flat series renders mid-scale.
pub fn plot(tl: &Timeline, series: &str, w: Window, width: usize) -> Result<String, String> {
    known(tl, series)?;
    let width = width.max(1);
    let pts = tl.range(series, w.from, w.to);
    let mut out = String::new();
    if pts.is_empty() {
        let _ = writeln!(out, "{series}: no samples in window");
        return Ok(out);
    }
    let chunk = pts.len().div_ceil(width);
    let cols: Vec<f64> = pts
        .chunks(chunk)
        .map(|c| c.iter().map(|&(_, v)| v).sum::<f64>() / c.len() as f64)
        .collect();
    let lo = cols.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = cols.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let _ = writeln!(
        out,
        "{series}: {} samples, {} .. {}, min {lo} max {hi}",
        pts.len(),
        pts[0].0,
        pts[pts.len() - 1].0
    );
    let span = hi - lo;
    for v in &cols {
        let idx = if span > 0.0 {
            // Scale into 0..=7; the top of the range maps to the full
            // block, everything else to its proportional eighth.
            (((v - lo) / span) * 7.0).round() as usize
        } else {
            3
        };
        out.push(BARS[idx.min(7)]);
    }
    out.push('\n');
    Ok(out)
}

/// CSV of every series (optionally name-prefix filtered), sorted by
/// name then time: `series,kind,t_ns,value`.
pub fn export_csv(tl: &Timeline, prefix: Option<&str>) -> String {
    let mut out = String::from("series,kind,t_ns,value\n");
    for name in tl.series_names() {
        if let Some(p) = prefix {
            if !name.starts_with(p) {
                continue;
            }
        }
        let kind = tl.kind(name).expect("listed series").label();
        for (t, v) in tl.range(name, SimTime::ZERO, SimTime::MAX) {
            let _ = writeln!(out, "{name},{kind},{},{v}", t.as_nanos());
        }
    }
    out
}

/// Determinism triage. Returns the rendered report and whether the two
/// dumps are byte-identical (the CLI exits 1 when they are not). On
/// divergence, names the first differing series and the timestamp of
/// its first differing sample — compared at the bit level so float
/// printing can never mask a divergence.
pub fn diff(a: &Timeline, b: &Timeline) -> (String, bool) {
    if a.to_bytes() == b.to_bytes() {
        return ("dumps are byte-identical\n".to_owned(), true);
    }
    let mut out = String::from("dumps DIFFER\n");
    if a.every() != b.every() {
        let _ = writeln!(out, "cadence: {} vs {}", a.every(), b.every());
    }
    if a.ticks() != b.ticks() || a.dropped() != b.dropped() {
        let _ = writeln!(
            out,
            "ticks: {} retained + {} evicted vs {} retained + {} evicted",
            a.ticks(),
            a.dropped(),
            b.ticks(),
            b.dropped()
        );
    }
    let na: Vec<&str> = a.series_names().collect();
    let nb: Vec<&str> = b.series_names().collect();
    for (mine, theirs, which) in [(&na, &nb, "first"), (&nb, &na, "second")] {
        for n in mine.iter().filter(|n| !theirs.contains(n)) {
            let _ = writeln!(out, "series {n}: only in {which} dump");
        }
    }
    // Table by table — the raw ring, then (same tick columns: the byte
    // difference must be in the tiers) each tier — the first series
    // whose rows differ.
    for (i, (ta, tb)) in a.tables().zip(b.tables()).enumerate() {
        let (what, unit) = match ta.agg() {
            None => (String::new(), "samples"),
            Some(_) => (format!("tier {} ", i - 1), "rows"),
        };
        for n in na.iter().filter(|n| nb.contains(n)) {
            let (ra, rb) = (ta.series_bits(n), tb.series_bits(n));
            if let Some((sa, sb)) = ra.iter().zip(rb.iter()).find(|(x, y)| x != y) {
                let _ = write!(out, "{what}series {n}: first divergence at {}", sa.0);
                let _ = match ta.agg() {
                    None => writeln!(out, "\n  first:  {}\n  second: {}", raw(sa), raw(sb)),
                    Some(_) => writeln!(out, ": {} vs {}", bucket(sa), bucket(sb)),
                };
                return (out, false);
            }
            if ra.len() != rb.len() {
                let (la, lb) = (ra.len(), rb.len());
                let _ = writeln!(out, "{what}series {n}: {la} vs {lb} {unit}");
                return (out, false);
            }
        }
    }
    (out, false)
}

/// A raw sample for the diff report: counters/gauges print exactly;
/// f64 prints the value plus its raw bits.
fn raw(&(_, kind, bits): &(SimTime, SeriesKind, u64)) -> String {
    match kind {
        SeriesKind::Counter => format!("counter {bits}"),
        SeriesKind::Gauge => format!("gauge {}", bits.cast_signed()),
        SeriesKind::F64 => format!("f64 {} (bits {bits:#018x})", f64::from_bits(bits)),
    }
}

/// A tier row for the diff report: the bucket's aggregate.
fn bucket(&(_, _, bits): &(SimTime, SeriesKind, u64)) -> f64 {
    f64::from_bits(bits)
}

/// CLI usage text.
pub const USAGE: &str = "wifictl time — inspect TSL1 timeline dumps

usage:
  wifictl time summary <dump.bin>
  wifictl time query <dump.bin> <series> [--from <ms>] [--to <ms>]
                     [--bucket <ms>] [--agg <mean|max|min|sum|count|last>]
  wifictl time plot <dump.bin> <series> [--from <ms>] [--to <ms>] [--width <cols>]
  wifictl time export <dump.bin> [--series <prefix>]
  wifictl time diff <a.bin> <b.bin>
";

fn load(path: &str) -> Result<Timeline, String> {
    parse(path, &cli::read_bytes(path)?)
}

fn parse(path: &str, bytes: &[u8]) -> Result<Timeline, String> {
    Timeline::parse(bytes).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn ms(a: &Args, flag: &str) -> Result<Option<SimDuration>, String> {
    a.value(flag)
        .map(|v| {
            let bad = |why: &dyn std::fmt::Display| {
                format!("bad {flag} value {v} (want milliseconds): {why}")
            };
            let ms: u64 = v.parse().map_err(|e| bad(&e))?;
            // The clock counts nanoseconds in a u64.
            let ns = ms
                .checked_mul(1_000_000)
                .ok_or_else(|| bad(&"more than the clock holds"))?;
            Ok(SimDuration::from_nanos(ns))
        })
        .transpose()
}

/// `--from`/`--to`, defaulting to everything.
fn window(a: &Args) -> Result<Window, String> {
    let mut w = Window::default();
    if let Some(d) = ms(a, "--from")? {
        w.from = SimTime::ZERO + d;
    }
    if let Some(d) = ms(a, "--to")? {
        w.to = SimTime::ZERO + d;
    }
    Ok(w)
}

/// Dispatch `wifictl time <args>`. The flag set is shared: a subcommand
/// tolerates (and ignores) the flags only another one reads.
pub fn run(args: &[String]) -> Outcome {
    let cmd = args.first().map(String::as_str);
    let valued = ["--from", "--to", "--bucket", "--agg", "--width", "--series"];
    let a = Args::parse(args.get(1..).unwrap_or_default(), &valued, &[], USAGE)?;
    match (cmd, a.positional.as_slice()) {
        (Some("summary"), [path]) => Ok((summary(&load(path)?), 0)),
        (Some("query"), [path, series]) => {
            let bucket = ms(&a, "--bucket")?;
            if bucket == Some(SimDuration::ZERO) {
                return Err("bad --bucket value 0 (want at least one millisecond)".to_owned());
            }
            let agg = a
                .value("--agg")
                .map(|v| Agg::from_name(v).ok_or_else(|| format!("unknown --agg {v}")))
                .transpose()?;
            if agg.is_some() && bucket.is_none() {
                return Err("--agg needs --bucket".to_owned());
            }
            let out = query(
                &load(path)?,
                series,
                window(&a)?,
                bucket,
                agg.unwrap_or(Agg::Mean),
            )?;
            Ok((out, 0))
        }
        (Some("plot"), [path, series]) => {
            let width = a
                .value("--width")
                .map(|v| v.parse().map_err(|e| format!("bad --width {v}: {e}")))
                .transpose()?;
            let out = plot(&load(path)?, series, window(&a)?, width.unwrap_or(72))?;
            Ok((out, 0))
        }
        (Some("export"), [path]) => Ok((export_csv(&load(path)?, a.value("--series")), 0)),
        (Some("diff"), [pa, pb]) => cli::diff_files(pa, pb, parse, diff),
        _ => Err(USAGE.to_owned()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::tests::{argv, temp_file};
    use telemetry::{Registry, TimelineConfig};

    /// 40 ticks at 100 ms: a counter ramp, a sawtooth gauge, and an f64
    /// cwnd-style signal.
    fn sample() -> Timeline {
        build(4096, None)
    }

    /// [`sample`] with a raw ring of `capacity` ticks and the gauge one
    /// higher at tick `bumped`.
    fn build(capacity: usize, bumped: Option<u64>) -> Timeline {
        let mut cfg = TimelineConfig::sampling(SimDuration::from_millis(100));
        cfg.capacity = capacity;
        let mut tl = Timeline::new(&cfg);
        let mut reg = Registry::new();
        let queue = reg.gauge("mac.queue_depth");
        for i in 0..40u64 {
            reg.count("tcp.segments", 3);
            let v = i64::from_le_bytes((i % 7).to_le_bytes()) - 3;
            reg.gauge_set(queue, v + i64::from(bumped == Some(i)));
            tl.set_f64("tcp.flow0.cwnd_segments", 10.0 + i as f64 * 2.5);
            tl.sample(SimTime::from_millis(i * 100), &reg);
        }
        tl.seal();
        tl
    }

    #[test]
    fn summary_lists_series_and_tiers() {
        let s = summary(&sample());
        assert!(s.contains("40 ticks retained, 0 evicted"), "{s}");
        assert!(s.contains("3 series:"), "{s}");
        assert!(s.contains("tcp.segments"), "{s}");
        assert!(s.contains("counter"), "{s}");
        assert!(s.contains("mac.queue_depth"), "{s}");
        assert!(s.contains("tcp.flow0.cwnd_segments"), "{s}");
        // TimelineConfig::sampling adds a 10x mean and a 100x max tier.
        assert!(s.contains("tier bucket 1.000s mean:"), "{s}");
        assert!(s.contains("tier bucket 10.000s max:"), "{s}");
        assert!(summary(&Timeline::default()).contains("empty timeline"));
    }

    #[test]
    fn query_prints_bench_axis_seconds() {
        let tl = sample();
        let out = query(
            &tl,
            "tcp.flow0.cwnd_segments",
            Window::default(),
            None,
            Agg::Mean,
        )
        .unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 40);
        assert_eq!(lines[0], "0 10");
        assert_eq!(lines[1], "0.1 12.5");
        // Windowing is half-open [from, to).
        let w = Window {
            from: SimTime::from_millis(100),
            to: SimTime::from_millis(300),
        };
        let out = query(&tl, "tcp.segments", w, None, Agg::Mean).unwrap();
        assert_eq!(out, "0.1 6\n0.2 9\n");
        // Bucketed downsampling, mean of 10 ticks.
        let out = query(
            &tl,
            "tcp.segments",
            Window::default(),
            Some(SimDuration::from_secs(1)),
            Agg::Max,
        )
        .unwrap();
        assert_eq!(out.lines().count(), 4);
        assert_eq!(out.lines().next().unwrap(), "0 30");
        // Unknown series is an error, not silence.
        assert!(query(&tl, "nope", Window::default(), None, Agg::Mean).is_err());
    }

    #[test]
    fn plot_renders_one_column_per_chunk() {
        let tl = sample();
        let out = plot(&tl, "tcp.flow0.cwnd_segments", Window::default(), 8).unwrap();
        let mut lines = out.lines();
        let head = lines.next().unwrap();
        assert!(head.contains("40 samples"), "{head}");
        assert!(head.contains("min "), "{head}");
        let bar = lines.next().unwrap();
        assert_eq!(bar.chars().count(), 8, "{bar}");
        // Monotone ramp: first column lowest, last column highest.
        assert_eq!(bar.chars().next().unwrap(), '▁');
        assert_eq!(bar.chars().last().unwrap(), '█');
        // Flat series renders mid-scale, not a panic on zero span.
        let w = Window {
            from: SimTime::ZERO,
            to: SimTime::from_millis(100),
        };
        let flat = plot(&tl, "tcp.segments", w, 8).unwrap();
        assert!(flat.lines().nth(1).unwrap().chars().all(|c| c == '▄'));
    }

    #[test]
    fn export_csv_is_sorted_and_filterable() {
        let tl = sample();
        let csv = export_csv(&tl, None);
        let mut lines = csv.lines();
        assert_eq!(lines.next().unwrap(), "series,kind,t_ns,value");
        // 3 series x 40 samples + header.
        assert_eq!(csv.lines().count(), 1 + 3 * 40);
        assert!(csv.contains("mac.queue_depth,gauge,0,-3"), "{csv}");
        assert!(csv.contains("tcp.segments,counter,100000000,6"), "{csv}");
        let only = export_csv(&tl, Some("tcp.flow0."));
        assert_eq!(only.lines().count(), 1 + 40);
        assert!(only.contains("tcp.flow0.cwnd_segments,f64,0,10"), "{only}");
    }

    #[test]
    fn diff_names_first_diverging_series_and_timestamp() {
        let a = sample();
        let (out, same) = diff(&a, &a.clone());
        assert!(same, "{out}");

        // Rebuild with one gauge sample perturbed at tick 25.
        let (out, same) = diff(&a, &build(4096, Some(25)));
        assert!(!same);
        assert!(out.contains("dumps DIFFER"), "{out}");
        assert!(
            out.contains("series mac.queue_depth: first divergence at 2.500000s"),
            "{out}"
        );
    }

    #[test]
    fn diff_falls_back_to_the_tiers_once_the_raw_ring_has_evicted() {
        // Eight retained ticks: the raw rings agree, tick 5 lives on
        // only in tier 0's first 1 s mean (-6 / 10 against -5 / 10).
        let (out, same) = diff(&build(8, None), &build(8, Some(5)));
        assert!(!same);
        assert_eq!(
            out,
            "dumps DIFFER\ntier 0 series mac.queue_depth: first divergence at 0.000000s: -0.6 vs -0.5\n"
        );
    }

    #[test]
    fn run_dispatches_and_reports_usage() {
        assert!(run(&[]).is_err());
        assert!(run(&argv(&["nonsense"])).is_err());

        let path = temp_file("time-test", "dump.bin", sample().to_bytes());

        let (out, code) = run(&argv(&["summary", &path])).unwrap();
        assert_eq!(code, 0);
        assert!(out.contains("40 ticks retained"), "{out}");

        let (out, code) = run(&argv(&[
            "query",
            &path,
            "tcp.segments",
            "--from=100",
            "--to",
            "300",
        ]))
        .unwrap();
        assert_eq!(code, 0);
        assert_eq!(out, "0.1 6\n0.2 9\n");
        assert!(run(&argv(&["query", &path, "nope"])).is_err());
        // --agg without --bucket is a usage error; so are a bucket of
        // no width and times the nanosecond clock cannot hold.
        for bad in [
            "--agg=max",
            "--bucket=0",
            "--from=99999999999999999",
            "--bucket=99999999999999999",
        ] {
            let err = run(&argv(&["query", &path, "tcp.segments", bad]));
            let msg = err.expect_err(bad);
            assert_eq!(msg.lines().count(), 1, "{msg}");
        }
        // The widest bucket the clock holds, off the origin: one bucket,
        // not an overflow past the end of time.
        let (out, code) = run(&argv(&[
            "query",
            &path,
            "tcp.segments",
            "--from=100",
            "--bucket=18446744073709",
            "--agg=count",
        ]))
        .unwrap();
        assert_eq!((out.as_str(), code), ("0.1 39\n", 0));

        let (out, code) = run(&argv(&[
            "plot",
            &path,
            "tcp.flow0.cwnd_segments",
            "--width=10",
        ]))
        .unwrap();
        assert_eq!(code, 0);
        assert!(out.contains("40 samples"), "{out}");

        let (out, code) = run(&argv(&["export", &path, "--series=tcp."])).unwrap();
        assert_eq!(code, 0);
        assert!(out.starts_with("series,kind,t_ns,value\n"), "{out}");
        assert!(!out.contains("mac."), "{out}");

        let (_, code) = run(&argv(&["diff", &path, &path])).unwrap();
        assert_eq!(code, 0);
        let p2 = temp_file("time-test", "other.bin", build(1, None).to_bytes());
        let (out, code) = run(&argv(&["diff", &path, &p2])).unwrap();
        assert_eq!(code, 1);
        assert!(out.contains("dumps DIFFER"), "{out}");

        // Unreadable / unparsable files are errors, not panics.
        assert!(run(&argv(&["summary", "/nonexistent.bin"])).is_err());
    }

    #[test]
    fn diff_never_calls_two_different_files_identical() {
        // The first tick delta (a varint from byte 32) spelled one byte
        // longer, with a final 0x00 after a continuation byte: the same
        // value, but no writer produces it.
        let bytes = sample().to_bytes();
        let end = 32 + bytes[32..].iter().position(|&b| b < 0x80).unwrap();
        let mut overlong = bytes[..end].to_vec();
        overlong.extend([bytes[end] | 0x80, 0]);
        overlong.extend(&bytes[end + 1..]);
        let a = temp_file("time-overlong", "a.bin", bytes);
        let b = temp_file("time-overlong", "b.bin", overlong);
        let err = run(&argv(&["diff", &a, &b])).unwrap_err();
        assert!(err.contains("non-minimal varint"), "{err}");
    }
}
