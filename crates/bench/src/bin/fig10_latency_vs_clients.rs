//! Fig. 10 — mean 802.11 latency vs TCP latency as the client count
//! grows (baseline TCP). The paper: at 25 clients TCP ACKs take ~85 ms
//! to reach the sender while 802.11 latency stays far lower; the gap
//! grows with contention (TCP up to 75 % above 802.11 at 30 clients).

use bench::harness::{f, Experiment};
use wifi_core::prelude::*;

fn main() {
    let mut exp = Experiment::from_args("fig10", "802.11 latency vs TCP latency vs client count");
    let mut mac_series = Vec::new();
    let mut tcp_series = Vec::new();
    let mut ok_monotone = true;
    let mut prev_gap = 0.0;

    for &n in &[5usize, 10, 15, 20, 25, 30] {
        let cfg = TestbedConfig {
            clients_per_ap: n,
            fastack: vec![false],
            seed: 1010,
            ..TestbedConfig::default()
        };
        // Per-count label: one simulation per flight component.
        let r = exp.run_arm(&format!("c{n}"), cfg, SimDuration::from_secs(4));
        let mac = r.mac_latencies.mean_s() * 1e3;
        let tcp = r.tcp_latencies.mean_s() * 1e3;
        mac_series.push((n as f64, mac));
        tcp_series.push((n as f64, tcp));
        if n >= 15 && (tcp - mac) < prev_gap * 0.5 {
            ok_monotone = false;
        }
        prev_gap = tcp - mac;
    }
    // Exact key lookups against the literals used to build the series.
    let tcp25 = tcp_series.iter().find(|(n, _)| *n == 25.0).unwrap().1; // simcheck: allow(float-eq)
    let mac25 = mac_series.iter().find(|(n, _)| *n == 25.0).unwrap().1; // simcheck: allow(float-eq)
    let tcp30 = tcp_series.iter().find(|(n, _)| *n == 30.0).unwrap().1; // simcheck: allow(float-eq)
    let mac30 = mac_series.iter().find(|(n, _)| *n == 30.0).unwrap().1; // simcheck: allow(float-eq)

    exp.compare(
        "mean TCP latency at 25 clients",
        "~85 ms",
        format!("{} ms", f(tcp25)),
        (30.0..200.0).contains(&tcp25),
    );
    exp.compare(
        "TCP latency exceeds 802.11 latency",
        "always",
        format!("{} > {} ms at 25 clients", f(tcp25), f(mac25)),
        tcp_series
            .iter()
            .zip(mac_series.iter())
            .all(|((_, t), (_, m))| t > m),
    );
    exp.compare(
        "gap at 30 clients",
        "TCP up to 75% above 802.11",
        f((tcp30 / mac30 - 1.0) * 100.0).to_string(),
        tcp30 > mac30 * 1.2,
    );
    exp.compare(
        "gap grows with client count",
        "more contention, more ACK delay",
        format!(
            "gap(5)={} gap(30)={} ms",
            f(tcp_series[0].1 - mac_series[0].1),
            f(tcp30 - mac30)
        ),
        ok_monotone && (tcp30 - mac30) > (tcp_series[0].1 - mac_series[0].1),
    );
    exp.series("mac-latency-ms", mac_series);
    exp.series("tcp-latency-ms", tcp_series);
    exp.exit();
}
