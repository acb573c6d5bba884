//! `--aa`: the A/A check. Runs every workload on [`AA_RUNS`] seeds,
//! twice over on the same build, one child process per run, so peak
//! RSS is per run. Both sets use the same seeds, so "B worse" is the
//! comparison a parent-versus-change run makes, and it is judged
//! against the metric's bound; a seed must also give the same digest in
//! both sets. "pair noise" (the median over seeds of |B - A| / A) is
//! the run-to-run noise on one seed, for information. "seed spread" is
//! the wider of the two sets' interquartile spreads over the seeds:
//! input variation, judged against the bound too (`setup_s` excepted)
//! only because the driver that accepts this benchmark judges it so.

use crate::catalog::{END_TO_END, WORKLOADS};
use crate::stats::{iqr_share, median};
use crate::Args;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

/// Seeds per set: what the accepting driver runs.
const AA_RUNS: u64 = 10;

/// One child run: its digest line and its end-to-end values by name.
struct Run {
    digest: String,
    values: BTreeMap<String, f64>,
}

fn child(workload: &str, seed: u64, seconds: u64) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() || !stdout.contains("\"correct\": true") {
        return Err(format!(
            "{workload} seed {seed} failed:\n{stdout}{}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let mut run = Run {
        digest: String::new(),
        values: BTreeMap::new(),
    };
    for line in stdout.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        match words[..] {
            ["digest", d] => run.digest = d.to_string(),
            ["metric", "end_to_end", name, value, _unit] => {
                let v = value.parse().map_err(|e| format!("{line}: {e}"))?;
                run.values.insert(name.to_string(), v);
            }
            _ => {}
        }
    }
    Ok(run)
}

/// By how much `b` is worse than `a`, as a share of `a`.
fn worsening(better: &str, a: f64, b: f64) -> f64 {
    match better {
        "lower" => (b - a) / a,
        _ => (a - b) / a,
    }
}

pub fn run(args: &Args) -> Result<ExitCode, String> {
    let mut all_ok = true;
    println!(
        "{:<15} {:<12} {:>14} {:>14} {:>8} {:>10} {:>11} {:>6}  verdict",
        "workload",
        "metric",
        "median A",
        "median B",
        "B worse",
        "pair noise",
        "seed spread",
        "bound"
    );
    for w in &WORKLOADS {
        let set = || -> Result<Vec<Run>, String> {
            (0..AA_RUNS)
                .map(|k| child(w.name, args.seed + k, args.seconds))
                .collect()
        };
        let (a, b) = (set()?, set()?);
        if a.iter().zip(&b).any(|(a, b)| a.digest != b.digest) {
            println!("{:<15} digests differ between the two sets  FAIL", w.name);
            all_ok = false;
        }
        for m in &END_TO_END {
            let column =
                |set: &[Run]| -> Vec<f64> { set.iter().map(|r| r.values[m.name]).collect() };
            let (va, vb) = (column(&a), column(&b));
            let worse = worsening(m.better, median(&va), median(&vb));
            let pairs: Vec<f64> = va.iter().zip(&vb).map(|(a, b)| (b - a).abs() / a).collect();
            let spread = iqr_share(&va).max(iqr_share(&vb));
            let ok = worse <= m.bound && (m.name == "setup_s" || spread <= m.bound);
            all_ok &= ok;
            println!(
                "{:<15} {:<12} {:>14.6} {:>14.6} {:>7.2}% {:>9.2}% {:>10.2}% {:>5.0}%  {}",
                w.name,
                m.name,
                median(&va),
                median(&vb),
                worse * 100.0,
                median(&pairs) * 100.0,
                spread * 100.0,
                m.bound * 100.0,
                if ok { "ok" } else { "FAIL" }
            );
        }
    }
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert_eq!(worsening("lower", 10.0, 11.0), 0.1);
        assert_eq!(worsening("lower", 10.0, 9.0), -0.1);
        assert_eq!(worsening("higher", 10.0, 9.0), 0.1);
        assert_eq!(worsening("higher", 10.0, 12.0), -0.2);
    }
}
