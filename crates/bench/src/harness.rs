//! Shared experiment plumbing: result recording, paper-vs-measured
//! comparison rows, and JSON series dumps.
//!
//! The JSON dump is hand-rolled (over `telemetry::json`'s writers) so the
//! harness has no registry dependencies and builds offline; the emitted shape
//! matches what `serde_json` produced for these types historically:
//! tuples as two-element arrays, structs as objects in field order.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use wifi_core::fleet::FleetRun;
use wifi_core::netsim::testbed::{Testbed, TestbedConfig, TestbedReport};
use wifi_core::sim::SimDuration;
use wifi_core::telemetry::json::{f64_display_or_null, opt_u64, write_str};
use wifi_core::telemetry::{runprof, FlightDump, HealthReport, Registry, Timeline, TimelineConfig};

/// `--flag <value>` options every bench binary accepts.
const PATH_FLAGS: [&str; 6] = [
    "--metrics",
    "--trace",
    "--health",
    "--timeline",
    "--perf",
    "--runprof",
];

/// The sampling cadence of the timeline `--timeline` asks a testbed
/// arm for.
const TIMELINE_EVERY: SimDuration = SimDuration::from_millis(100);

/// A recorded experiment: named scalar comparisons plus named series,
/// and the one way to run things (see DESIGN.md §6, "Harness: one arm
/// runner"): [`Experiment::run_arm`] / [`Experiment::timed`] run and
/// time the work, [`Experiment::absorb`] merges a run's sinks,
/// [`Experiment::artifacts`] serializes them and [`Experiment::exit`]
/// reports.
#[derive(Debug, Default)]
pub struct Experiment {
    pub id: String,
    pub title: String,
    pub comparisons: Vec<Comparison>,
    pub series: Vec<Series>,
    /// Merged metrics registries from every absorbed run. Dumped
    /// verbatim when the binary is invoked with `--metrics <path>`.
    pub metrics: Registry,
    /// Merged flight-recorder dumps from every absorbed run. Dumped in
    /// the deterministic binary format when the binary is invoked with
    /// `--trace <path>`; inspect with `wifictl trace`.
    pub flight: FlightDump,
    /// Merged health reports from every absorbed run. Dumped as
    /// canonical JSON when the binary is invoked with `--health
    /// <path>`; inspect with `wifictl health`.
    pub health: HealthReport,
    /// Merged timeline stores from every absorbed run. Dumped in the
    /// `TSL1` binary format when the binary is invoked with
    /// `--timeline <path>`; inspect with `wifictl time`.
    pub timeline: Timeline,
    /// Wall-clock throughput samples (see [`Experiment::timed`] and
    /// [`Experiment::exit`]). Written as `BENCH_simperf.json`-style
    /// JSON when the binary is invoked with `--perf <path>`. Unlike
    /// every other artifact this one is *not* deterministic — it
    /// records host wall-clock speed.
    perf_samples: Vec<SamplePoint>,
    /// File stem of `argv[0]`: the label of the arms' perf sample.
    bin: String,
    /// Accepted flag -> its value, first occurrence winning.
    flags: BTreeMap<String, String>,
    /// Labels already absorbed: a second run under the same label would
    /// interleave two simulations' records in one flight component.
    labels: BTreeSet<String>,
    /// Host seconds spent inside [`Experiment::run_arm`], all arms.
    arm_wall_s: f64,
}

/// One paper-vs-measured scalar.
#[derive(Debug)]
pub struct Comparison {
    pub metric: String,
    pub paper: String,
    pub measured: String,
    /// Does the measured value/shape agree with the paper's claim?
    pub ok: bool,
}

/// One `--perf` throughput sample: `events` workload units in `wall_s`
/// host seconds.
#[derive(Debug)]
struct SamplePoint {
    label: String,
    events: u64,
    wall_s: f64,
    /// Peak RSS when the sample was taken, if the host reports it.
    peak_rss_bytes: Option<u64>,
    /// Cores the host offered: a rate is only comparable to one taken
    /// with as many, and a thread sweep that reads flat may simply have
    /// had one.
    cores: usize,
}

/// A named (x, y) series for plotting.
#[derive(Debug)]
pub struct Series {
    pub name: String,
    pub points: Vec<(f64, f64)>,
}

/// The four sinks of one finished run, as [`Experiment::absorb`] takes
/// them. Built `From` a `&TestbedReport` or a `&FleetRun`.
pub struct Sinks<'a> {
    pub metrics: &'a Registry,
    pub flight: &'a FlightDump,
    pub health: &'a HealthReport,
    pub timeline: Option<&'a Timeline>,
}

impl<'a> From<&'a TestbedReport> for Sinks<'a> {
    fn from(r: &'a TestbedReport) -> Self {
        Sinks {
            metrics: &r.metrics,
            flight: &r.flight,
            health: &r.health,
            timeline: r.timeline.as_ref(),
        }
    }
}

impl<'a> From<&'a FleetRun> for Sinks<'a> {
    fn from(r: &'a FleetRun) -> Self {
        Sinks {
            metrics: &r.metrics,
            flight: &r.flight,
            health: &r.health.report,
            timeline: r.timeline.as_ref(),
        }
    }
}

impl Experiment {
    /// The experiment for this process: parses argv once (see
    /// [`Experiment::parse`]); on a bad command line prints the usage
    /// line to stderr and exits 2 before anything runs.
    pub fn from_args(id: &str, title: &str) -> Experiment {
        let argv: Vec<String> = std::env::args().collect();
        Experiment::parse(id, title, &argv).unwrap_or_else(|usage| {
            eprintln!("{usage}");
            std::process::exit(2)
        })
    }

    /// Parse `argv` (program name first) against the harness flags.
    /// `--flag v` and `--flag=v` are both accepted. An unknown argument
    /// or a flag without its value or given twice is an `Err` holding
    /// the one-line usage text, so nothing is run on a typo.
    pub fn parse(id: &str, title: &str, argv: &[String]) -> Result<Experiment, String> {
        let bin = argv.first().map_or("bench", |p| {
            let stem = Path::new(p).file_stem();
            stem.and_then(|s| s.to_str()).unwrap_or(p)
        });
        let usage = |problem: String| {
            let accepted = PATH_FLAGS.map(|f| format!("[{f} <value>]")).join(" ");
            format!("{bin}: {problem}; usage: {bin} {accepted}")
        };
        let mut flags = BTreeMap::new();
        let mut rest = argv.iter().skip(1);
        while let Some(arg) = rest.next() {
            let (flag, inline) = match arg.split_once('=') {
                Some((f, v)) => (f, Some(v.to_owned())),
                None => (arg.as_str(), None),
            };
            if !PATH_FLAGS.contains(&flag) {
                return Err(usage(format!("unknown argument {arg}")));
            }
            let Some(value) = inline.or_else(|| rest.next().cloned()) else {
                return Err(usage(format!("{flag} wants a value")));
            };
            if flags.insert(flag.to_owned(), value).is_some() {
                return Err(usage(format!("{flag} given twice")));
            }
        }
        // Arm the host-side run profiler as early as possible so setup
        // work lands in the profile too. `--runprof` is the only flag
        // that changes harness behavior before `finish` — and it only
        // turns on observation, never the trajectory (the golden
        // artifact tests run with it enabled to prove that).
        if flags.contains_key("--runprof") {
            runprof::set_enabled(true);
        }
        Ok(Experiment {
            id: id.to_owned(),
            title: title.to_owned(),
            bin: bin.to_owned(),
            flags,
            ..Experiment::default()
        })
    }

    /// The value given for `flag`, if it was on the command line.
    pub fn flag(&self, flag: &str) -> Option<&str> {
        self.flags.get(flag).map(String::as_str)
    }

    /// Run `f` inside the `<bench-id>.run` wall span (a no-op without
    /// `--runprof`) and hand back its value with the host seconds it
    /// took. The one audited wall-clock read of the bench crate:
    /// clippy.toml disallows `Instant::now` in sim code; the harness is
    /// host-side and the reading only ever reaches `--perf`/`--runprof`.
    fn wall<T>(&self, f: impl FnOnce() -> T) -> (T, f64) {
        let _span = runprof::span(&format!("{}.run", self.id));
        #[allow(clippy::disallowed_methods)]
        let start = std::time::Instant::now();
        let out = f();
        (out, start.elapsed().as_secs_f64())
    }

    /// Run one testbed arm: `--timeline` turns on a sampler every
    /// [`TIMELINE_EVERY`] unless the arm brings its own, so it is off —
    /// and the run provably byte-identical to an unsampled one —
    /// without the flag. Every sink of the finished
    /// run is absorbed under `label`. A `cfg` that does not
    /// [`validate`](TestbedConfig::validate) ends the process like a bad
    /// flag does: one line on stderr, exit 2.
    pub fn run_arm(
        &mut self,
        label: &str,
        mut cfg: TestbedConfig,
        duration: SimDuration,
    ) -> TestbedReport {
        if cfg.timeline.is_none() && self.flag("--timeline").is_some() {
            cfg.timeline = Some(TimelineConfig::sampling(TIMELINE_EVERY));
        }
        if let Err(e) = cfg.validate() {
            eprintln!("{}: arm {label:?}: invalid TestbedConfig: {e}", self.id);
            std::process::exit(2)
        }
        let (report, wall_s) = self.wall(|| Testbed::new(cfg).run(duration));
        self.arm_wall_s += wall_s;
        self.absorb(label, &report);
        report
    }

    /// [`Experiment::run_arm`] over an experiment's arm list (see
    /// [`crate::arms`]), reports in arm order.
    pub fn run_arms<const N: usize>(&mut self, arms: [crate::arms::Arm; N]) -> [TestbedReport; N] {
        arms.map(|a| self.run_arm(a.label, a.cfg, a.duration))
    }

    /// Run non-testbed work `f` (a planner sweep, an agent loop, a
    /// fleet) under the run span and record a `--perf` sample for it:
    /// `units(&result)` workload units in the measured wall time.
    /// Returns `f`'s value and that wall time.
    pub fn timed<T>(
        &mut self,
        label: impl Into<String>,
        f: impl FnOnce() -> T,
        units: impl FnOnce(&T) -> u64,
    ) -> (T, f64) {
        let (out, wall_s) = self.wall(f);
        self.perf(label, units(&out), wall_s);
        (out, wall_s)
    }

    /// [`Experiment::timed`] for seeded work too short to time in one go
    /// (a planner arm is a few milliseconds, which a 30 % gate cannot
    /// read): `f`, a pure function of the seeds it holds, runs again
    /// until 100 ms of it have been timed. The sample counts every
    /// run's units over the summed wall time; the value returned is the
    /// last run's, equal to every other.
    pub fn timed_repeating<T>(
        &mut self,
        label: impl Into<String>,
        mut f: impl FnMut() -> T,
        units: impl Fn(&T) -> u64,
    ) -> (T, f64) {
        let (mut total_units, mut total_wall_s) = (0, 0.0);
        loop {
            let (out, wall_s) = self.wall(&mut f);
            total_units += units(&out);
            total_wall_s += wall_s;
            if total_wall_s >= 0.1 {
                self.perf(label, total_units, total_wall_s);
                return (out, total_wall_s);
            }
        }
    }

    /// Record a paper-vs-measured row.
    pub fn compare(
        &mut self,
        metric: impl Into<String>,
        paper: impl Into<String>,
        measured: impl Into<String>,
        ok: bool,
    ) {
        self.comparisons.push(Comparison {
            metric: metric.into(),
            paper: paper.into(),
            measured: measured.into(),
            ok,
        });
    }

    /// Record a series.
    pub fn series(&mut self, name: impl Into<String>, points: Vec<(f64, f64)>) {
        self.series.push(Series {
            name: name.into(),
            points,
        });
    }

    /// Merge one finished run (a `&TestbedReport` or a `&FleetRun`)
    /// into the experiment under `label`: counters and histogram bins
    /// sum into the metrics snapshot; flight components, alert
    /// components and timeline series are prefixed `label.` so arms
    /// (`base.` vs `fast.`) stay distinguishable (an empty label merges
    /// verbatim). Every merged sink re-sorts at serialization, so absorb
    /// order does not change any artifact. A label can be used once:
    /// `CauseId`s (`flow << 48 | seq`) and series names collide across
    /// runs.
    pub fn absorb<'a>(&mut self, label: &str, run: impl Into<Sinks<'a>>) {
        assert!(
            self.labels.insert(label.to_owned()),
            "{}: label {label:?} absorbed twice",
            self.id
        );
        let run = run.into();
        self.metrics.merge_from(run.metrics);
        self.flight.absorb(label, run.flight);
        self.health.absorb(label, run.health);
        if let Some(tl) = run.timeline {
            self.timeline.absorb(label, tl);
        }
    }

    /// The deterministic artifacts by name — exactly the bytes `finish`
    /// writes for `--metrics` / `--trace` / `--health` / `--timeline`.
    /// Two invocations of the same binary must produce identical blobs;
    /// scripts/ci.sh and tests/golden_artifacts.rs enforce exactly that.
    pub fn artifacts(&self) -> Vec<(&'static str, Vec<u8>)> {
        vec![
            ("metrics", self.metrics.to_json().into_bytes()),
            ("trace", self.flight.to_bytes()),
            ("health", self.health.to_json().into_bytes()),
            ("timeline", self.timeline.to_bytes()),
        ]
    }

    /// Record a wall-clock throughput sample: `events` workload units
    /// completed in `wall_s` seconds of host time. Dumped via `--perf`.
    /// The process's peak RSS at sampling time rides along, so memory
    /// growth across a scaling sweep (`fleet_1000x1` → `fleet_5000x8`)
    /// is visible in the same artifact as the speed.
    fn perf(&mut self, label: impl Into<String>, events: u64, wall_s: f64) {
        self.perf_samples.push(SamplePoint {
            label: label.into(),
            events,
            wall_s,
            peak_rss_bytes: runprof::peak_rss_bytes(),
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        });
    }

    /// The `--perf` artifact: per-sample events, wall seconds, and the
    /// derived events/sec rate (0 for a zero wall time).
    fn perf_json(&self) -> String {
        let mut o = String::new();
        o.push_str("{\n");
        o.push_str("  \"bench\": ");
        write_str(&mut o, &self.id);
        o.push_str(",\n  \"samples\": [");
        for (i, s) in self.perf_samples.iter().enumerate() {
            o.push_str(if i == 0 { "\n    " } else { ",\n    " });
            let rate = if s.wall_s > 0.0 {
                s.events as f64 / s.wall_s
            } else {
                0.0
            };
            o.push_str("{ \"label\": ");
            write_str(&mut o, &s.label);
            let _ = write!(
                o,
                ", \"events\": {}, \"wall_s\": {}, \"events_per_s\": {}, \"peak_rss_bytes\": {}, \"cores\": {} }}",
                s.events,
                f64_display_or_null(s.wall_s),
                f64_display_or_null(rate),
                opt_u64(s.peak_rss_bytes),
                s.cores
            );
        }
        if !self.perf_samples.is_empty() {
            o.push_str("\n  ");
        }
        o.push_str("]\n}\n");
        o
    }

    /// Report and leave: record the testbed arms' perf sample — the
    /// merged `sim.queue.popped` events over the summed arm wall time,
    /// labelled with the binary's name as BENCH_simperf.json has it —
    /// then [`Experiment::finish`]; exit 0 iff every comparison agreed.
    pub fn exit(mut self) -> ! {
        if self.arm_wall_s > 0.0 {
            let events = self.metrics.counter_value("sim.queue.popped").unwrap_or(0);
            self.perf(self.bin.clone(), events, self.arm_wall_s);
        }
        std::process::exit(if self.finish() { 0 } else { 1 })
    }

    /// Print the report, write the JSON dump and every artifact a flag
    /// asked for. Returns `true` if every comparison agreed.
    fn finish(&self) -> bool {
        let report_prof = runprof::span(&format!("{}.report", self.id));
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {} ==", self.id, self.title);
        if !self.comparisons.is_empty() {
            let _ = writeln!(out, "{:<44} {:>22} {:>22}  ", "metric", "paper", "measured");
            for c in &self.comparisons {
                let _ = writeln!(
                    out,
                    "{:<44} {:>22} {:>22}  {}",
                    c.metric,
                    c.paper,
                    c.measured,
                    if c.ok { "ok" } else { "MISMATCH" }
                );
            }
        }
        for s in &self.series {
            let _ = writeln!(out, "series {} ({} points):", s.name, s.points.len());
            let step = (s.points.len() / 12).max(1);
            for (i, (x, y)) in s.points.iter().enumerate() {
                if i % step == 0 || i + 1 == s.points.len() {
                    let _ = writeln!(out, "  {x:>12.4}  {y:>12.4}");
                }
            }
        }
        println!("{out}");

        let dir = std::env::var("IMC_RESULTS_DIR").unwrap_or_else(|_| "results".to_owned());
        let path = PathBuf::from(dir).join(format!("{}.json", self.id));
        if let Some(parent) = path.parent() {
            let _ = fs::create_dir_all(parent);
        }
        write_or_warn(&path.to_string_lossy(), self.to_json());

        // The four deterministic artifacts, each under the flag bearing
        // its name. `--perf <path>` is the exception: it records
        // wall-clock events/sec and is never byte-compared.
        for (name, bytes) in self.artifacts() {
            if let Some(p) = self.flag(&format!("--{name}")) {
                write_or_warn(p, bytes);
            }
        }
        if let Some(p) = self.flag("--perf") {
            write_or_warn(p, self.perf_json());
        }

        // `--runprof <path>`: the host-side observability sidecar.
        // Closed out last so the report stage's own wall time makes it
        // into the profile; inspect with `wifictl perf summary`.
        drop(report_prof);
        if let Some(p) = self.flag("--runprof") {
            write_or_warn(p, runprof::snapshot().to_json(&self.id));
        }

        let all_ok = self.comparisons.iter().all(|c| c.ok);
        if !all_ok {
            println!("!! some comparisons did not match the paper");
        }
        all_ok
    }

    /// Pretty-printed JSON dump of the whole experiment.
    pub fn to_json(&self) -> String {
        let mut o = String::new();
        o.push_str("{\n");
        o.push_str("  \"id\": ");
        write_str(&mut o, &self.id);
        o.push_str(",\n  \"title\": ");
        write_str(&mut o, &self.title);
        o.push_str(",\n  \"comparisons\": [");
        for (i, c) in self.comparisons.iter().enumerate() {
            o.push_str(if i == 0 {
                "\n    { \"metric\": "
            } else {
                ",\n    { \"metric\": "
            });
            write_str(&mut o, &c.metric);
            o.push_str(", \"paper\": ");
            write_str(&mut o, &c.paper);
            o.push_str(", \"measured\": ");
            write_str(&mut o, &c.measured);
            let _ = write!(o, ", \"ok\": {} }}", c.ok);
        }
        if !self.comparisons.is_empty() {
            o.push_str("\n  ");
        }
        o.push_str("],\n  \"series\": [");
        for (i, s) in self.series.iter().enumerate() {
            o.push_str(if i == 0 {
                "\n    { \"name\": "
            } else {
                ",\n    { \"name\": "
            });
            write_str(&mut o, &s.name);
            o.push_str(", \"points\": [");
            for (j, (x, y)) in s.points.iter().enumerate() {
                let _ = write!(
                    o,
                    "{}[{}, {}]",
                    if j == 0 { "" } else { ", " },
                    f64_display_or_null(*x),
                    f64_display_or_null(*y)
                );
            }
            o.push_str("] }");
        }
        if !self.series.is_empty() {
            o.push_str("\n  ");
        }
        o.push_str("]\n}\n");
        o
    }
}

fn write_or_warn(path: &str, bytes: impl AsRef<[u8]>) {
    if let Err(e) = fs::write(path, bytes) {
        eprintln!("warning: could not write {path}: {e}");
    }
}

/// Relative agreement check: |measured − paper| ≤ tol·|paper|.
pub fn close(measured: f64, paper: f64, tol: f64) -> bool {
    (measured - paper).abs() <= tol * paper.abs().max(1e-12)
}

/// Format a float tersely.
pub fn f(v: f64) -> String {
    if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

/// Percentage string.
pub fn pct(v: f64) -> String {
    format!("{:.0}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Experiment, String> {
        let argv: Vec<String> = argv.iter().map(|a| (*a).to_owned()).collect();
        Experiment::parse("t", "test", &argv)
    }

    fn exp(argv: &[&str]) -> Experiment {
        parse(argv).unwrap()
    }

    /// A 4-client FastACK arm, half a simulated second.
    fn small_arm() -> (TestbedConfig, SimDuration) {
        let cfg = TestbedConfig {
            clients_per_ap: 4,
            fastack: vec![true],
            seed: 7,
            ..TestbedConfig::default()
        };
        (cfg, SimDuration::from_millis(500))
    }

    #[test]
    fn close_tolerance() {
        assert!(close(10.5, 10.0, 0.1));
        assert!(!close(12.0, 10.0, 0.1));
        assert!(close(0.0, 0.0, 0.1));
    }

    #[test]
    fn experiment_roundtrip() {
        let mut e = exp(&["t"]);
        e.compare("m", "1", "1.02", true);
        e.series("s", vec![(0.0, 0.0), (1.0, 1.0)]);
        std::env::set_var("IMC_RESULTS_DIR", std::env::temp_dir().join("imc-test"));
        assert!(e.finish());
        e.compare("bad", "1", "2", false);
        assert!(!e.finish());
    }

    #[test]
    fn args_accept_both_spellings() {
        let e = exp(&[
            "target/release/fig15_aggregation",
            "--metrics",
            "m.json",
            "--trace=t.bin",
            "--timeline=tl.bin",
        ]);
        assert_eq!(e.bin, "fig15_aggregation");
        assert_eq!(e.flag("--metrics"), Some("m.json"));
        assert_eq!(e.flag("--trace"), Some("t.bin"));
        assert_eq!(e.flag("--health"), None);
        assert_eq!(e.flag("--timeline"), Some("tl.bin"));
    }

    #[test]
    fn args_reject_typos_missing_values_and_bad_numbers() {
        const USAGE: &str = "[--metrics <value>] [--trace <value>] [--health <value>] \
            [--timeline <value>] [--perf <value>] [--runprof <value>]";
        for (bad, problem) in [
            (
                &["b", "--metric", "out.json"][..],
                "unknown argument --metric",
            ),
            (&["b", "out.json"], "unknown argument out.json"),
            (&["b", "--threads", "4"], "unknown argument --threads"),
            (
                &["b", "--timeline-every", "50"],
                "unknown argument --timeline-every",
            ),
            (&["b", "--networks", "12"], "unknown argument --networks"),
            (&["b", "--metrics"], "--metrics wants a value"),
            (
                &["b", "--metrics", "a.json", "--metrics=b.json"],
                "--metrics given twice",
            ),
        ] {
            let usage = parse(bad).expect_err(&format!("{bad:?} parsed"));
            assert!(!usage.contains('\n'), "usage is one line: {usage}");
            let (said, accepted) = usage.split_once("; usage: b ").unwrap();
            assert!(said.ends_with(problem), "{bad:?}: {said}");
            assert_eq!(accepted, USAGE, "usage lists the path flags only");
        }
    }

    #[test]
    fn run_arm_fills_every_sink() {
        let mut e = exp(&["fig00_demo", "--timeline", "unused.bin"]);
        let (cfg, duration) = small_arm();
        let report = e.run_arm("fast", cfg, duration);
        assert!(report.timeline.is_some(), "--timeline turns the sampler on");
        assert!(e.metrics.counter_value("sim.queue.popped") > Some(0));
        assert!(e.flight.total_records() > 0);
        assert!(e
            .flight
            .components
            .iter()
            .all(|c| c.name.starts_with("fast.")));
        assert!(e.health.steps > 0);
        assert!(e.timeline.ticks() > 0);
        assert!(e.timeline.series_names().all(|n| n.starts_with("fast.")));
        assert!(e.arm_wall_s > 0.0);
        for (name, bytes) in e.artifacts() {
            assert!(!bytes.is_empty(), "{name} artifact is empty");
        }

        // Without the flag the sampler stays off and the store empty.
        let mut e = exp(&["fig00_demo"]);
        let (cfg, duration) = small_arm();
        assert!(e.run_arm("fast", cfg, duration).timeline.is_none());
        assert!(e.timeline.is_empty());
    }

    #[test]
    #[should_panic(expected = "absorbed twice")]
    fn a_label_absorbs_once() {
        let mut e = exp(&["t"]);
        let (cfg, duration) = small_arm();
        let report = e.run_arm("fast", cfg, duration);
        e.absorb("fast", &report);
    }

    #[test]
    fn absorb_sums_counters_and_prefixes_alerts() {
        use wifi_core::sim::SimTime;
        use wifi_core::telemetry::health::{Alert, Severity, RULE_RTO_STORM};
        let mut metrics = Registry::new();
        metrics.count("sub.events", 2);
        let mut health = HealthReport {
            steps: 3,
            ..HealthReport::default()
        };
        health.alerts.push(Alert {
            component: "tcp".to_owned(),
            rule: RULE_RTO_STORM.to_owned(),
            severity: Severity::Warning,
            raised_at: SimTime::from_millis(10),
            cleared_at: None,
            cause: None,
            value: 7.0,
            threshold: 6.0,
        });
        let flight = FlightDump::default();
        let mut e = exp(&["t"]);
        for label in ["base", ""] {
            e.absorb(
                label,
                Sinks {
                    metrics: &metrics,
                    flight: &flight,
                    health: &health,
                    timeline: None,
                },
            );
        }
        // Snapshot order-independence: same JSON as a single 4-count.
        let mut want = Registry::new();
        want.count("sub.events", 4);
        assert_eq!(e.metrics.to_json(), want.to_json());
        assert_eq!(e.health.steps, 6);
        let comps: Vec<&str> = e
            .health
            .alerts
            .iter()
            .map(|a| a.component.as_str())
            .collect();
        assert_eq!(comps, ["base.tcp", "tcp"]);
        // Canonical JSON round-trips.
        let parsed = HealthReport::parse(&e.health.to_json()).unwrap();
        assert_eq!(parsed, e.health);
    }

    #[test]
    fn timed_samples_report_rate() {
        let mut e = exp(&["t"]);
        let (value, wall_s) = e.timed("arm-a", || 1_000_000, |v| *v);
        assert_eq!(value, 1_000_000);
        e.perf("rate", 1_000_000, 2.0);
        e.perf("degenerate", 5, 0.0);
        assert_eq!(e.perf_samples[0].events, 1_000_000);
        assert_eq!(e.perf_samples[0].wall_s.to_bits(), wall_s.to_bits());
        let j = e.perf_json();
        assert!(j.contains("\"bench\": \"t\""), "{j}");
        assert!(j.contains("\"label\": \"arm-a\""), "{j}");
        assert!(j.contains("\"events_per_s\": 500000"), "{j}");
        // Zero wall clock degrades to rate 0, not inf/NaN.
        assert!(j.contains("\"events_per_s\": 0"), "{j}");
        // Peak RSS rides along in every sample (numeric on Linux,
        // null where procfs is unavailable — never absent).
        assert_eq!(j.matches("\"peak_rss_bytes\":").count(), 3, "{j}");
    }

    #[test]
    fn formatting() {
        assert_eq!(f(123.4), "123");
        assert_eq!(f(12.34), "12.3");
        assert_eq!(f(0.1234), "0.123");
        assert_eq!(pct(0.27), "27%");
    }
}
