//! Fig. 6 — a weekday snapshot of one office AP: associated clients move
//! gradually; data usage and channel utilization are bursty, with a
//! sudden ~30-minute surge around 2 pm.

use bench::harness::{f, Experiment};
use wifi_core::netsim::diurnal::OfficeDay;
use wifi_core::sim::Rng;

fn main() {
    let mut exp =
        Experiment::from_args("fig06", "day-long AP snapshot (clients/usage/utilization)");
    let day = OfficeDay.generate(&mut Rng::new(606));

    let window =
        |from_h: f64, to_h: f64, fsel: &dyn Fn(&wifi_core::netsim::diurnal::DaySample) -> f64| {
            let xs: Vec<f64> = day
                .iter()
                .filter(|s| {
                    let h = s.at.as_nanos() as f64 / 3.6e12;
                    h >= from_h && h < to_h
                })
                .map(fsel)
                .collect();
            xs.iter().sum::<f64>() / xs.len().max(1) as f64
        };

    let surge_usage = window(14.0, 14.5, &|s| s.usage_mbit);
    let before_usage = window(13.0, 14.0, &|s| s.usage_mbit);
    let surge_clients = window(14.0, 14.5, &|s| s.clients);
    let before_clients = window(13.0, 14.0, &|s| s.clients);
    let surge_util = window(14.0, 14.5, &|s| s.utilization);
    let before_util = window(13.0, 14.0, &|s| s.utilization);
    let night = window(2.0, 5.0, &|s| s.clients);

    exp.compare(
        "2pm usage surge",
        ">2x baseline for ~30min",
        format!("{}x", f(surge_usage / before_usage)),
        surge_usage > 2.0 * before_usage,
    );
    exp.compare(
        "utilization spikes with the surge",
        "tracks usage",
        format!("{} -> {}", f(before_util), f(surge_util)),
        surge_util > before_util * 1.3,
    );
    exp.compare(
        "clients change gradually through the surge",
        "no client spike",
        format!("{}x", f(surge_clients / before_clients)),
        (surge_clients / before_clients - 1.0).abs() < 0.3,
    );
    exp.compare(
        "network quiet overnight",
        "~0 clients",
        f(night),
        night < 1.0,
    );

    exp.series(
        "clients",
        day.iter()
            .map(|s| (s.at.as_secs_f64() / 3600.0, s.clients))
            .collect(),
    );
    exp.series(
        "usage-mbit",
        day.iter()
            .map(|s| (s.at.as_secs_f64() / 3600.0, s.usage_mbit))
            .collect(),
    );
    exp.series(
        "utilization",
        day.iter()
            .map(|s| (s.at.as_secs_f64() / 3600.0, s.utilization))
            .collect(),
    );
    exp.exit();
}
