//! Fig. 5 — bit-rate distribution for 5 GHz clients over one day:
//! most transmissions land in the 256–512 Mbps bucket.

use bench::harness::{pct, Experiment};
use wifi_core::netsim::population::PopulationProfile;
use wifi_core::phy::propagation::{noise_floor_dbm, Propagation, Radio};
use wifi_core::phy::rate::IdealSelector;
use wifi_core::prelude::*;
use wifi_core::telemetry::stats::Histogram;

fn main() {
    let mut exp = Experiment::from_args("fig05", "bit-rate distribution, 5 GHz clients");
    let mut rng = Rng::new(505);
    let prop = Propagation::indoor(Band::Band5);
    let pop = PopulationProfile::Y2017.generate(40_000, &mut rng);
    let mut hist = Histogram::new(0.0, 1400.0, 28); // 50 Mbps bins
    let mut in_band = 0usize;
    let mut total = 0usize;
    for c in pop.iter().filter(|c| c.five_ghz) {
        // Office placement: most clients 4-25 m from their AP.
        let d = rng.uniform(2.0, 28.0);
        let pl = prop.path_loss_shadowed_db(d, &mut rng);
        let rssi = Radio::AP_DEFAULT.rssi_dbm(pl);
        let width = c.max_width;
        let snr = rssi - noise_floor_dbm(width);
        let sel = IdealSelector::new(width, c.nss.min(3));
        let mbps = sel.select(snr).bps as f64 / 1e6;
        hist.add(mbps);
        total += 1;
        if (256.0..=512.0).contains(&mbps) {
            in_band += 1;
        }
    }
    let frac = in_band as f64 / total as f64;
    exp.compare(
        "mode of distribution in 256-512 Mbps",
        "most rates",
        pct(frac),
        frac > 0.25,
    );
    // The 256-512 band should hold more mass than any equal-width
    // neighbour band.
    let mass = |lo: f64, hi: f64| {
        hist.pdf()
            .iter()
            .filter(|(x, _)| *x >= lo && *x < hi)
            .map(|(_, p)| p)
            .sum::<f64>()
    };
    let mid = mass(256.0, 512.0);
    let low = mass(0.0, 256.0);
    let high = mass(512.0, 768.0);
    exp.compare(
        "256-512 heavier than 512-768",
        "yes",
        format!("{:.2} vs {:.2}", mid, high),
        mid > high,
    );
    exp.compare(
        "peak region",
        "256-512 Mbps",
        format!("mid {:.2} low {:.2}", mid, low),
        mid > 0.2,
    );
    exp.series("pdf-mbps", hist.pdf());
    exp.exit();
}
