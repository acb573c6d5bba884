//! Fig. 1 — advertised client capabilities, 2015 vs 2017.
//!
//! Generates 2015- and 2017-profile populations (200k clients each) and
//! runs the measurement pipeline over them, verifying it recovers the
//! paper's marginals: 11ac 18→46 %, 2-stream 19→37 %, 2.4-GHz-only flat
//! at ≈40 %.

use bench::harness::{close, pct, Experiment};
use wifi_core::netsim::population::{measure, PopulationProfile};
use wifi_core::sim::Rng;

fn main() {
    let mut exp = Experiment::from_args("fig01", "advertised client capabilities 2015 vs 2017");
    let mut rng = Rng::new(101);
    let s15 = measure(&PopulationProfile::Y2015.generate(200_000, &mut rng));
    let s17 = measure(&PopulationProfile::Y2017.generate(200_000, &mut rng));

    let rows = [
        ("11ac share 2015", 0.18, s15.ac_share),
        ("11ac share 2017", 0.46, s17.ac_share),
        ("2-stream share 2015", 0.19, s15.two_stream_share),
        ("2-stream share 2017", 0.37, s17.two_stream_share),
        ("2.4GHz-only 2015", 0.40, s15.two4_only_share),
        ("2.4GHz-only 2017", 0.40, s17.two4_only_share),
        ("80MHz-capable 2017", 0.46, s17.w80_share),
        ("40MHz-capable 2017", 0.80, s17.w40_share),
    ];
    for (name, paper, measured) in rows {
        exp.compare(
            name,
            pct(paper),
            pct(measured),
            close(measured, paper, 0.08),
        );
    }
    exp.series(
        "shares-2017",
        vec![
            (1.0, s17.ac_share),
            (2.0, s17.two_stream_share),
            (3.0, s17.two4_only_share),
            (4.0, s17.w40_share),
            (5.0, s17.w80_share),
        ],
    );
    exp.exit();
}
