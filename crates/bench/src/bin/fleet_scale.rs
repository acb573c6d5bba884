//! fleet_scale — scaling sweep of the cloud controller: fleet size ×
//! thread count, printing networks-planned/sec and the determinism
//! checksum, plus the Fig. 2 fleet-wide utilization reproduction run
//! through the ingest/aggregation path as a single 1000-network fleet.
//!
//! Determinism contract under test: the checksum for a given (size,
//! seed) must be bit-identical for every thread count.

use bench::harness::{close, f, pct, Experiment};
use wifi_core::fleet::{run_fleet, FleetConfig, FleetRun};
use wifi_core::sim::SimDuration;

fn config(n_networks: usize, threads: usize, timeline: bool) -> FleetConfig {
    FleetConfig {
        n_networks,
        threads,
        // One hour (4 epochs) for the small sweeps; a single 15-min
        // epoch for the 1000-network sweep keeps the full grid fast.
        horizon: if n_networks >= 1000 {
            SimDuration::from_mins(15)
        } else {
            SimDuration::from_hours(1)
        },
        // Per-epoch controller timeline rides along when `--timeline`
        // asks for a dump (its cadence is the epoch itself).
        timeline,
        ..FleetConfig::default()
    }
}

/// One `run_fleet` under the harness clock: its wall time, and a
/// `fleet_<networks>x<threads>_plans` `--perf` sample of plans run. A
/// `cfg` that does not validate ends the process like a bad flag does:
/// one line on stderr, exit 2.
fn timed_fleet(exp: &mut Experiment, cfg: &FleetConfig) -> (FleetRun, f64) {
    if let Err(e) = cfg.validate() {
        eprintln!("{}: invalid FleetConfig: {e}", exp.id);
        std::process::exit(2)
    }
    exp.timed(
        format!("fleet_{}x{}_plans", cfg.n_networks, cfg.threads),
        || run_fleet(cfg),
        |run| run.report.plans_run as u64,
    )
}

fn main() {
    let mut exp = Experiment::from_args(
        "fleet_scale",
        "fleet controller scaling: size x threads, determinism + Fig. 2 ingest",
    );
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("host parallelism: {host_threads} hardware thread(s)\n");
    println!(
        "{:>9} {:>8} {:>10} {:>16} {:>18}",
        "networks", "threads", "wall s", "planned/s", "checksum"
    );

    let mut fig2_run: Option<FleetRun> = None;
    for &n in &[10usize, 100, 1000] {
        let mut checksums: Vec<u64> = Vec::new();
        let mut rates: Vec<f64> = Vec::new();
        for &t in &[1usize, 4, 8] {
            let cfg = config(n, t, exp.flag("--timeline").is_some());
            let (run, wall) = timed_fleet(&mut exp, &cfg);
            let rate = run.report.plans_run as f64 / wall;
            println!(
                "{:>9} {:>8} {:>10.2} {:>16.1} {:>18}",
                n,
                t,
                wall,
                rate,
                format!("{:016x}", run.report.checksum)
            );
            checksums.push(run.report.checksum);
            rates.push(rate);
            if n == 1000 && t == 8 {
                fig2_run = Some(run);
            }
        }
        let all_equal = checksums.iter().all(|&c| c == checksums[0]);
        exp.compare(
            format!("{n} networks: checksum equal for 1/4/8 threads"),
            "bit-identical",
            if all_equal {
                "bit-identical"
            } else {
                "DIVERGED"
            },
            all_equal,
        );
        let speedup4 = rates[1] / rates[0];
        exp.series(
            format!("{n}_networks_planned_per_sec"),
            vec![(1.0, rates[0]), (4.0, rates[1]), (8.0, rates[2])],
        );
        if host_threads >= 4 {
            exp.compare(
                format!("{n} networks: speedup at 4 threads"),
                "> 2x",
                format!("{speedup4:.2}x"),
                speedup4 > 2.0,
            );
        } else {
            println!(
                "  (4-thread speedup {speedup4:.2}x not asserted: host has {host_threads} hardware thread(s))"
            );
        }
    }

    // Fig. 2 through the fleet path: the 1000-network run's ingest
    // store must reproduce the paper's fleet-wide utilization medians.
    let run = fig2_run.expect("1000-network sweep ran");
    let (m24, m5) = run.aggregate.util_medians();
    exp.compare(
        "fleet median util 2.4GHz (ingest path)",
        pct(0.20),
        pct(m24),
        close(m24, 0.20, 0.15),
    );
    exp.compare(
        "fleet median util 5GHz (ingest path)",
        pct(0.03),
        pct(m5),
        close(m5, 0.03, 0.25),
    );
    exp.compare(
        "every network planned >= once",
        "1000",
        format!(
            "{}",
            run.per_network.iter().filter(|r| r.plans_run >= 1).count()
        ),
        run.per_network.iter().all(|r| r.plans_run >= 1),
    );
    exp.compare(
        "fleet Jain(goodput) in (0, 1]",
        "(0, 1]",
        f(run.report.jain_goodput),
        run.report.jain_goodput > 0.0 && run.report.jain_goodput <= 1.0 + 1e-9,
    );
    exp.series("fig2_util_2_4_cdf", run.aggregate.util_2_4.series(50));
    exp.series("fig2_util_5_cdf", run.aggregate.util_5.series(50));
    exp.absorb("", &run);
    println!("\n{}", run.report);

    exp.exit();
}
