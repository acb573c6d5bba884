//! The repo benchmark. One process per workload:
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! prints every metric by name with its unit, runs the correctness
//! checks, writes `benchmark/out/<workload>.json` (and, traced,
//! `<workload>.trace.json`), and ends its standard output with one JSON
//! object: `correct`, `attempted`, `failed`, `metrics`. See README.md.

// The repo's clippy.toml bans `Instant::now` for simulation code; the
// benchmark is host-side, and reading the wall clock is its job.
#![allow(clippy::disallowed_methods)]

mod aa;
mod calibrate;
mod catalog;
mod digest;
mod kernels;
mod stats;
mod trace;
mod workloads;

use catalog::{DEFAULT_SEED, END_TO_END, PER_LAYER, RUN_SECONDS, SETUP_FLOOR_S};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;
use workloads::fleet::FleetEpoch;
use workloads::packet::{Kind, Packet};
use workloads::planner::PlannerCampus;
use workloads::{drive, Measured};

const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

pub struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    aa: bool,
    manifest: bool,
}

fn usage() -> String {
    let names: Vec<_> = catalog::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: imc17-benchmark --workload <{}> [--seed N] [--seconds N] [--trace 0|1]\n\
         \x20      imc17-benchmark --aa [--seed N] [--seconds N]   A/A check over every workload\n\
         \x20      imc17-benchmark --manifest                      print BENCHMARK.json",
        names.join("|")
    )
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: false,
        aa: false,
        manifest: false,
    };
    let mut argv = argv.peekable();
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| {
            argv.next()
                .ok_or_else(|| format!("{flag} wants {what}\n{}", usage()))
        };
        let number = |s: String| s.parse::<u64>().map_err(|e| format!("{flag} {s}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => args.seed = number(value("a number")?)?,
            "--seconds" => args.seconds = number(value("a number")?)?,
            "--trace" => args.trace = number(value("0 or 1")?)? != 0,
            "--aa" => args.aa = true,
            "--manifest" => args.manifest = true,
            _ => return Err(format!("unknown argument {flag}\n{}", usage())),
        }
    }
    Ok(args)
}

/// Where the numbers came from: machine shape, compiler, commit, seed.
struct Provenance {
    cores: usize,
    rustc: String,
    commit: String,
}

impl Provenance {
    fn collect() -> Provenance {
        let rustc = std::process::Command::new("rustc")
            .arg("-V")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        Provenance {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc,
            commit: git_head().unwrap_or_else(|| "unknown".into()),
        }
    }
}

/// The checked-out commit, read from `.git` beside the package without
/// running git (a benchmark checkout is usually not a repository).
fn git_head() -> Option<String> {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => Some(
            std::fs::read_to_string(git.join(r))
                .ok()?
                .trim()
                .to_string(),
        ),
        None => Some(head.to_string()),
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One reported metric: `None` = the layer does no work on this
/// workload (printed `n/a`, 0 in the result line).
type Reported = Vec<(&'static str, &'static str, Option<f64>)>;

fn metrics_json(metrics: &Reported) -> String {
    let members: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                v.unwrap_or(0.0)
            )
        })
        .collect();
    format!("{{{}}}", members.join(", "))
}

/// Keep glibc's mmap threshold where it starts. Left alone, glibc raises
/// it whenever a large block is freed, so from the second rep on a
/// rep's report vectors (tens of MB) are carved from the heap, copied at
/// every growth and never given back: `peak_rss_mb` then read 32-45 MB
/// on `dense_fastack` depending on the seed and on how many reps the run
/// fitted. With the threshold fixed, large blocks are mapped and
/// unmapped one by one, and peak RSS is the program's live footprint
/// (27.8-28.7 MB over the same seeds, whatever the run length).
#[cfg(target_env = "gnu")]
fn fix_mmap_threshold() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` sets a tunable of the C allocator and touches no
    // memory of ours; no other thread runs yet.
    let set = unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) };
    assert_eq!(set, 1, "mallopt(M_MMAP_THRESHOLD) refused");
}

#[cfg(not(target_env = "gnu"))]
fn fix_mmap_threshold() {}

fn run_workload(args: &Args, name: &str) -> Result<ExitCode, String> {
    let def = catalog::workload(name).ok_or_else(|| format!("no workload {name}\n{}", usage()))?;
    fix_mmap_threshold();
    // The program's own wall-clock profiler stays off in every timed run.
    wifi_core::telemetry::runprof::set_enabled(false);
    let prov = Provenance::collect();
    let budget = Duration::from_secs(args.seconds);
    let mut measured: Measured = match name {
        "dense_fastack" => drive(
            &Packet::new(Kind::DenseFastack, args.seed),
            budget,
            args.trace,
        ),
        "lossy_recovery" => drive(
            &Packet::new(Kind::LossyRecovery, args.seed),
            budget,
            args.trace,
        ),
        "obs_full" => drive(&Packet::new(Kind::ObsFull, args.seed), budget, args.trace),
        "planner_campus" => drive(&PlannerCampus::new(args.seed), budget, args.trace),
        "fleet_epoch" => drive(&FleetEpoch::new(args.seed), budget, args.trace),
        _ => unreachable!("every catalog workload is dispatched"),
    };
    // The pinned digest belongs to the default seed; on any other seed
    // rep-to-rep equality and the fidelity checks still ran.
    if args.seed == DEFAULT_SEED && measured.digest != def.pinned_digest {
        measured.ops.fail_all(&format!(
            "digest {:#018x} differs from the pinned {:#018x}",
            measured.digest, def.pinned_digest
        ));
    }

    // Calibrated seconds throughout (see calibrate.rs); set-ups are too
    // short to bracket one by one, so they share the run's median scale.
    let rep_wall_s = stats::median(&measured.wall_s);
    let run_scale = calibrate::nominal_s(measured.threads) / stats::median(&measured.calibration_s);
    let setup_measured_s = stats::median(&measured.setup_s) * run_scale;
    let metrics: Reported = match &mut measured.traced {
        None => {
            let peak_rss_mb = wifi_core::telemetry::runprof::peak_rss_bytes()
                .ok_or("no VmHWM in /proc/self/status: peak RSS is unmeasurable here")?
                as f64
                / (1024.0 * 1024.0);
            let value = |name: &str| match name {
                "setup_s" => SETUP_FLOOR_S + setup_measured_s,
                "work_per_s" => measured.work_per_rep as f64 / rep_wall_s,
                "peak_rss_mb" => peak_rss_mb,
                _ => unreachable!("every end-to-end metric has a value"),
            };
            END_TO_END
                .iter()
                .map(|m| (m.name, m.unit, Some(value(m.name))))
                .collect()
        }
        Some(traced) => {
            let l = &mut traced.layers;
            l.insert(
                "bench.trace_overhead_pct",
                (traced.rep_wall_s / rep_wall_s - 1.0) * 100.0,
            );
            l.insert("bench.reps", measured.wall_s.len() as f64);
            l.insert(
                "bench.rep_wall_iqr_pct",
                stats::iqr_share(&measured.wall_s) * 100.0,
            );
            l.insert("bench.cores", prov.cores as f64);
            if let Some(stray) = l.keys().find(|k| PER_LAYER.iter().all(|m| m.name != **k)) {
                return Err(format!("{stray} is not a per-layer metric of the catalog"));
            }
            PER_LAYER
                .iter()
                .map(|m| (m.name, m.unit, l.get(m.name).copied()))
                .collect()
        }
    };
    if let Some((name, _, _)) = metrics
        .iter()
        .find(|(_, _, v)| v.is_some_and(|v| !v.is_finite()))
    {
        return Err(format!("{name} is not a finite number"));
    }

    let kind = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    println!(
        "workload {name} seed {} seconds {} trace {} cores {} rustc {:?} commit {}",
        args.seed, args.seconds, args.trace as u8, prov.cores, prov.rustc, prov.commit
    );
    println!(
        "reps {} timed + 1 warm-up; rep wall median {:.6} s calibrated (IQR {:.2} %), {:.6} s raw \
         (IQR {:.2} %); warm-up {:.6} s raw; machine at {:.3} of nominal speed",
        measured.wall_s.len(),
        rep_wall_s,
        stats::iqr_share(&measured.wall_s) * 100.0,
        stats::median(&measured.raw_wall_s),
        stats::iqr_share(&measured.raw_wall_s) * 100.0,
        measured.warm_up_wall_s,
        run_scale,
    );
    println!(
        "set-up measured {setup_measured_s:.9} s calibrated, median of {}; setup_s adds the {SETUP_FLOOR_S} s floor",
        measured.setup_s.len()
    );
    println!("digest {:#018x}", measured.digest);
    for (name, unit, v) in &metrics {
        match v {
            Some(v) => println!("metric {kind} {name} {v} {unit}"),
            None => println!("metric {kind} {name} n/a {unit}"),
        }
    }
    println!(
        "ops attempted {} failed {} ops_failed_share {}",
        measured.ops.attempted,
        measured.ops.failed,
        measured.ops.failed_share()
    );

    let header = format!(
        "  \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"traced\": {}, \"cores\": {}, \
         \"rustc\": {}, \"commit\": {}",
        json_string(name),
        args.seed,
        args.seconds,
        args.trace,
        prov.cores,
        json_string(&prov.rustc),
        json_string(&prov.commit)
    );
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        measured.ops.failed == 0,
        measured.ops.attempted,
        measured.ops.failed,
        metrics_json(&metrics)
    );
    let samples = |xs: &[f64]| {
        let xs: Vec<String> = xs.iter().map(f64::to_string).collect();
        format!("[{}]", xs.join(", "))
    };
    let file = format!(
        "{{\n{header},\n  \"digest\": \"{:#018x}\",\n  \"rep_wall_calibrated_s\": {},\n  \
         \"rep_wall_raw_s\": {},\n  \"calibration_raw_s\": {},\n  \"setup_raw_s\": {},\n  \
         \"result\": {result}\n}}\n",
        measured.digest,
        samples(&measured.wall_s),
        samples(&measured.raw_wall_s),
        samples(&measured.calibration_s),
        samples(&measured.setup_s),
    );
    let write = |file_name: String, body: &str| {
        std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(format!("{OUT_DIR}/{file_name}"), body))
            .map_err(|e| format!("{OUT_DIR}/{file_name}: {e}"))
    };
    let suffix = if args.trace { ".traced" } else { "" };
    write(format!("{name}{suffix}.json"), &file)?;
    if let Some(traced) = &measured.traced {
        write(
            format!("{name}.trace.json"),
            &traced.tracer.to_json(&header),
        )?;
    }

    println!("{result}");
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let outcome = parse_args(std::env::args().skip(1)).and_then(|args| {
        if args.manifest {
            print!("{}", catalog::manifest());
            Ok(ExitCode::SUCCESS)
        } else if args.aa {
            aa::run(&args)
        } else {
            let name = args.workload.clone().ok_or_else(usage)?;
            run_workload(&args, &name)
        }
    });
    outcome.unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::from(2)
    })
}
