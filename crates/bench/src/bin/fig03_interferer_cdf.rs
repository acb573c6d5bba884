//! Fig. 3 — CDF of interfering APs ("other APs within transmission range
//! on the same channel").
//!
//! Paper: 2.4 GHz median 7, p90 < 29; 5 GHz median 5, p90 < 14.
//!
//! The field measurement counts *every* audible co-channel AP, including
//! neighbouring organizations' networks on static channels — so the
//! channel model here is the fleet-wide mix, not a single planned
//! network: 2.4 GHz APs sit on 1/6/11 (with a few stragglers on
//! off-channels), 5 GHz APs use the Table-1 width mix with a strong
//! non-DFS bias, placed randomly. Audibility uses a −75 dBm
//! contention-relevant threshold (energy below that defers rarely).

use bench::harness::{close, f, Experiment};
use wifi_core::netsim::topology;
use wifi_core::phy::channels::{all_channels, non_dfs_channels, Channel, Width};
use wifi_core::prelude::*;
use wifi_core::telemetry::stats::Cdf;

/// Fleet-style channel draw for one AP.
fn fleet_channel(band: Band, rng: &mut Rng) -> Channel {
    match band {
        Band::Band2_4 => {
            // Mostly 1/6/11; ~7% misconfigured onto overlapping channels.
            if rng.chance(0.93) {
                let c = [1u16, 6, 11][rng.below(3) as usize];
                Channel::two4(c)
            } else {
                let pool = all_channels(Band::Band2_4, Width::W20);
                pool[rng.below(pool.len() as u64) as usize]
            }
        }
        Band::Band5 => {
            // Width per Table 1; ~75% of deployments avoid DFS.
            let x = rng.f64();
            let width = if x < 0.149 {
                Width::W20
            } else if x < 0.149 + 0.191 {
                Width::W40
            } else {
                Width::W80
            };
            let pool = if rng.chance(0.85) {
                non_dfs_channels(Band::Band5, width)
            } else {
                all_channels(Band::Band5, width)
            };
            pool[rng.below(pool.len() as u64) as usize]
        }
    }
}

fn interferer_samples(band: Band, seed: u64) -> Vec<f64> {
    let mut rng = Rng::new(seed);
    let mut all = Vec::new();
    // Mixed building densities: each "building" holds several
    // organizations' APs in one RF neighborhood; a dense tail of
    // high-rise/conference deployments fattens the upper percentiles.
    for k in 0..36 {
        let n = 14 + (k * 5) % 36;
        let density = if k % 6 == 5 {
            90.0 + 60.0 * rng.f64() // very dense building
        } else {
            260.0 + 220.0 * rng.f64()
        };
        let area = (n as f64 * density).sqrt();
        // Contention-relevant audibility: −75 dBm at 2.4 GHz; 5 GHz links
        // carry wider channels and higher EIRP, so energy further down
        // still defers (−80 dBm).
        let threshold = if band == Band::Band2_4 { -75.0 } else { -80.0 };
        let topo = topology::random_area_with_threshold(n, area, area, band, threshold, &mut rng);
        let channels: Vec<Channel> = (0..n).map(|_| fleet_channel(band, &mut rng)).collect();
        for c in topo.interferers(&channels) {
            all.push(c as f64);
        }
    }
    all
}

fn main() {
    let mut exp = Experiment::from_args("fig03", "CDF of interfering APs per band");
    let i24 = interferer_samples(Band::Band2_4, 303);
    let i5 = interferer_samples(Band::Band5, 304);
    let c24 = Cdf::new(&i24);
    let c5 = Cdf::new(&i5);

    let m24 = c24.quantile(0.5).unwrap();
    let m5 = c5.quantile(0.5).unwrap();
    let p90_24 = c24.quantile(0.9).unwrap();
    let p90_5 = c5.quantile(0.9).unwrap();

    exp.compare(
        "2.4GHz median interferers",
        "7",
        f(m24),
        close(m24, 7.0, 0.3),
    );
    exp.compare("5GHz median interferers", "5", f(m5), close(m5, 5.0, 0.4));
    exp.compare("2.4GHz p90 < 29", "<29", f(p90_24), p90_24 < 29.0);
    exp.compare("5GHz p90 < 14", "<14", f(p90_5), p90_5 < 14.0);
    exp.compare(
        "2.4GHz more crowded than 5GHz",
        "median 7 > 5",
        format!("{} > {}", f(m24), f(m5)),
        m24 > m5,
    );
    exp.series("cdf-2.4GHz", c24.series(40));
    exp.series("cdf-5GHz", c5.series(40));
    exp.exit();
}
