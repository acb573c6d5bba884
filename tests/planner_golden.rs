//! Bit-identity pins for the channel planner.
//!
//! Perf work on `chanassign` may change how a plan is computed, never
//! which plan comes out: every line here hashes planner *outputs* —
//! channels, fallbacks, `ln NetP` bit patterns, NBO run counts, fleet
//! checksums — on seeded views, and pins them in
//! `tests/golden/artifact_hashes.txt` beside the packet-level pins of
//! `golden_artifacts.rs`. The lines were generated on the planner as it
//! stood before the dense view index; a representation change that
//! reorders one f64 operation or one RNG draw fails here. So do the
//! tables under the planner and the evaluator (`phy.*`: channel
//! geometry, VHT rate sets) and every sample `neteval::evaluate` draws
//! (`neteval.*`), pinned before those became const data, and every rate
//! the evaluator's selector picks (`phy.rate.select`), pinned before it
//! stopped scoring every row.
//!
//! Refreshing after an *intentional* behaviour change:
//!
//! ```text
//! IMC_UPDATE_GOLDENS=1 cargo test --test planner_golden -- --test-threads=1
//! ```

mod common;

use common::check_goldens;
use wifi_core::chanassign::metrics::{net_p_ln, MetricParams};
use wifi_core::chanassign::model::{ApLoad, ApReport, NetworkView, Plan};
use wifi_core::chanassign::turboca::{acc, nbo, PlanResult, ScheduleTier, TurboCa};
use wifi_core::chanassign::{least_congested, ReservedCa};
use wifi_core::fleet::{run_fleet, FleetAggregate, FleetConfig};
use wifi_core::netsim::deployment::{to_view, SeedChannels, ViewOptions};
use wifi_core::netsim::neteval::{evaluate, EvalOptions};
use wifi_core::netsim::population::ClientCaps;
use wifi_core::netsim::topology;
use wifi_core::phy::channels::{channels, Band, Channel, Width, US_5GHZ_20};
use wifi_core::phy::mcs::{rate_table, snr_requirement_db, GuardInterval};
use wifi_core::phy::rate::IdealSelector;
use wifi_core::sim::{Rng, SimDuration};
use wifi_core::telemetry::codec::Fnv1a;

const TIERS: [(ScheduleTier, &str); 3] = [
    (ScheduleTier::Fast, "fast"),
    (ScheduleTier::Medium, "medium"),
    (ScheduleTier::Slow, "slow"),
];

/// A seeded `n`-AP random area at the fleet's 350 m² per AP, with the
/// clients `to_view` drew for it.
fn area(
    n: usize,
    band: Band,
    opts: &ViewOptions,
    seed: u64,
) -> (NetworkView, Vec<Vec<ClientCaps>>) {
    let mut rng = Rng::new(seed);
    let side = (n as f64 * 350.0).sqrt();
    let topo = topology::random_area(n, side, side, band, &mut rng);
    to_view(&topo, opts, &mut rng)
}

fn area_view(n: usize, band: Band, opts: &ViewOptions, seed: u64) -> NetworkView {
    area(n, band, opts, seed).0
}

/// `abl_nbo_hops`' crowded floor: a 6 × 5 grid, everyone on one channel.
fn all_default_grid() -> NetworkView {
    let mut rng = Rng::new(31);
    let topo = topology::grid(6, 5, 12.0, 2.0, Band::Band5, &mut rng);
    let opts = ViewOptions {
        seed_channels: SeedChannels::AllDefault,
        ..ViewOptions::default()
    };
    to_view(&topo, &opts, &mut rng).0
}

fn fold_plan(h: &mut Fnv1a, plan: &Plan) {
    for c in &plan.channels {
        h.write(&c.primary.to_le_bytes());
        h.write(&c.width.mhz().to_le_bytes());
    }
    for f in &plan.fallback {
        match f {
            Some(c) => {
                h.write(&c.primary.to_le_bytes());
                h.write(&c.width.mhz().to_le_bytes());
            }
            None => h.write(&[0]),
        }
    }
}

fn hash_plan(plan: &Plan) -> u64 {
    let mut h = Fnv1a::new();
    fold_plan(&mut h, plan);
    h.finish()
}

fn hash_result(r: &PlanResult) -> u64 {
    let mut h = Fnv1a::new();
    fold_plan(&mut h, &r.plan);
    h.write(&r.net_p_ln.to_bits().to_le_bytes());
    h.write(&r.incumbent_net_p_ln.to_bits().to_le_bytes());
    h.write(&(r.runs as u64).to_le_bytes());
    h.finish()
}

/// `TurboCa::run` at every tier on each of `views`.
fn turboca_entries(owner: &str, views: &[(&str, NetworkView)]) -> Vec<(String, u64)> {
    let mut entries = Vec::new();
    for (name, view) in views {
        for (tier, tier_name) in TIERS {
            let result = TurboCa::new(0x7ca + view.len() as u64).run(view, tier);
            entries.push((format!("{owner}.{name}.{tier_name}"), hash_result(&result)));
        }
    }
    entries
}

/// 5 GHz views from the degenerate (1, 2 APs) to fleet-sized.
#[test]
fn turboca_plans_on_5ghz_views_match_goldens() {
    let owner = "planner.turboca5";
    let opts = ViewOptions::default();
    let views: Vec<(&str, NetworkView)> = [("n1", 1), ("n2", 2), ("n16", 16), ("n40", 40)]
        .into_iter()
        .map(|(name, n)| (name, area_view(n, Band::Band5, &opts, 100 + n as u64)))
        .collect();
    check_goldens(owner, &turboca_entries(owner, &views));
}

/// The regimes the 5 GHz default never reaches: 2.4 GHz (overlap by
/// channel distance, one width), no DFS certification (15 candidates,
/// no fallbacks), and a fresh deployment with every AP on channel 36.
#[test]
fn turboca_plans_on_other_regimes_match_goldens() {
    let owner = "planner.turboca";
    let no_dfs = ViewOptions {
        dfs_certified: false,
        ..ViewOptions::default()
    };
    let views = [
        (
            "band24",
            area_view(16, Band::Band2_4, &ViewOptions::default(), 24),
        ),
        ("nodfs", area_view(16, Band::Band5, &no_dfs, 52)),
        ("alldefault", all_default_grid()),
    ];
    check_goldens(owner, &turboca_entries(owner, &views));
}

/// One campus-sized Fast plan, the shape `planner_campus` times.
#[test]
fn turboca_fast_plan_on_100_aps_matches_golden() {
    let view = area_view(100, Band::Band5, &ViewOptions::default(), 1000);
    let result = TurboCa::new(1000).run(&view, ScheduleTier::Fast);
    check_goldens(
        "planner.campus",
        &[("planner.campus.n100.fast".to_owned(), hash_result(&result))],
    );
}

/// Views whose repeated runs revisit the same stars: a 12-AP 5 GHz and a
/// 16-AP 2.4 GHz area with their neighbour lists scrambled (an entry
/// dropped from some, one repeated in others, some APs naming
/// themselves), a fresh 3-AP clique on one channel that its first pass
/// untangles for good, and a 40-AP area where 94 % of AP pairs are
/// within two hops, so an i = 2 group hides most of the view.
fn repeat_views() -> Vec<NetworkView> {
    let mut rng = Rng::new(0x5c4a);
    let mut scrambled = |mut view: NetworkView| {
        for (i, ap) in view.aps.iter_mut().enumerate() {
            let len = ap.neighbors.len() as u64;
            match rng.below(4) {
                0 if len > 0 => {
                    ap.neighbors.remove(rng.below(len) as usize);
                }
                1 if len > 0 => {
                    let n = ap.neighbors[rng.below(len) as usize];
                    ap.neighbors.push(n);
                }
                2 => ap.neighbors.insert(rng.below(len + 1) as usize, i),
                _ => {}
            }
        }
        view
    };
    let opts = ViewOptions::default();
    let band5 = scrambled(area_view(12, Band::Band5, &opts, 212));
    let band24 = scrambled(area_view(16, Band::Band2_4, &opts, 216));
    let mut fresh = ApReport::idle_on(Channel::five(36));
    fresh.has_clients = true;
    fresh.load = ApLoad {
        by_width: vec![(Width::W20, 1.0)],
    };
    vec![
        band5,
        band24,
        clique_of(Band::Band5, fresh, 3, 1),
        area_view(40, Band::Band5, &opts, 240),
    ]
}

/// One planner per view run Fast → Medium → Slow → Fast, its RNG the
/// only thing carried from run to run; within a run, every pass after
/// the first that adopts nothing repeats stars an earlier pass solved.
#[test]
fn repeated_runs_match_golden() {
    let mut h = Fnv1a::new();
    for view in repeat_views() {
        let mut planner = TurboCa::new(0x4e9 + view.len() as u64);
        for tier in [
            ScheduleTier::Fast,
            ScheduleTier::Medium,
            ScheduleTier::Slow,
            ScheduleTier::Fast,
        ] {
            h.write(&hash_result(&planner.run(&view, tier)).to_le_bytes());
        }
    }
    check_goldens(
        "planner.run",
        &[("planner.run.repeat".to_owned(), h.finish())],
    );
}

/// One NBO pass per hop limit, plus the two deterministic baselines.
#[test]
fn nbo_passes_and_baselines_match_goldens() {
    let owner = "planner.pass";
    let params = MetricParams::default();
    let views = [
        (
            "n40",
            area_view(40, Band::Band5, &ViewOptions::default(), 140),
        ),
        ("alldefault", all_default_grid()),
    ];
    let mut entries = Vec::new();
    for (name, view) in &views {
        for hop in 0..=2usize {
            let plan = nbo(&params, view, hop, &mut Rng::new(32 + hop as u64));
            let mut h = Fnv1a::new();
            fold_plan(&mut h, &plan);
            h.write(&net_p_ln(&params, view, &plan).to_bits().to_le_bytes());
            entries.push((format!("{owner}.{name}.nbo_hop{hop}"), h.finish()));
        }
        entries.push((
            format!("{owner}.{name}.reserved_w40"),
            hash_plan(&ReservedCa::new(Width::W40).run(view)),
        ));
        entries.push((
            format!("{owner}.{name}.least_congested_w80"),
            hash_plan(&least_congested(view, Width::W80)),
        ));
    }
    check_goldens(owner, &entries);
}

/// `n` copies of `ap`, each listing every other AP, the whole list
/// `reps` times over.
fn clique_of(band: Band, ap: ApReport, n: usize, reps: usize) -> NetworkView {
    let aps = (0..n)
        .map(|i| ApReport {
            neighbors: (0..reps)
                .flat_map(|_| (0..n).filter(move |&j| j != i))
                .collect(),
            ..ap.clone()
        })
        .collect();
    NetworkView { band, aps }
}

/// Views made to tie, each with the channels its assignments draw from:
/// identical idle APs on clean spectrum, identical loaded APs in a ring
/// listing each side twice and themselves once, and a floor saturated
/// (`external_busy` 1) everywhere but five channels at 0.85 — where a
/// penalized loaded AP survives alone but sinks (−∞) once an idle one
/// joins it, so an idle AP can see every candidate −∞, some of them only
/// through a neighbour.
fn tie_views() -> Vec<(&'static str, NetworkView, Vec<Channel>)> {
    let loaded = |current: Channel, width: Width| {
        let mut ap = ApReport::idle_on(current);
        ap.has_clients = true;
        ap.load = ApLoad {
            by_width: vec![(width, 1.0)],
        };
        ap
    };
    let w80 = |primary| Channel::new(Band::Band5, primary, Width::W80).unwrap();
    let mut ring = clique_of(Band::Band5, loaded(w80(36), Width::W80), 6, 1);
    for (i, ap) in ring.aps.iter_mut().enumerate() {
        let (next, prev) = ((i + 1) % 6, (i + 5) % 6);
        ap.neighbors = vec![next, prev, i, next, prev];
    }
    let starving = [149, 153, 157, 161, 165];
    let mut saturated = clique_of(Band::Band5, loaded(Channel::five(36), Width::W20), 7, 1);
    saturated.aps[0].has_clients = false;
    saturated.aps[0].load = ApLoad::default();
    for ap in &mut saturated.aps {
        for ch20 in US_5GHZ_20 {
            let busy = if starving.contains(&ch20) { 0.85 } else { 1.0 };
            ap.external_busy.insert(ch20, busy);
        }
    }
    vec![
        (
            "idle",
            clique_of(Band::Band5, ApReport::idle_on(Channel::five(36)), 8, 1),
            vec![Channel::five(36), Channel::five(40), Channel::five(149)],
        ),
        (
            "band24",
            clique_of(Band::Band2_4, ApReport::idle_on(Channel::two4(1)), 5, 2),
            vec![Channel::two4(1), Channel::two4(6), Channel::two4(11)],
        ),
        ("ring", ring, vec![w80(36), w80(149), Channel::five(36)]),
        (
            "saturated",
            saturated,
            starving.into_iter().map(Channel::five).collect(),
        ),
    ]
}

/// ACC's pick for every AP of every tie view, under every AP on its
/// current channel, under the palette dealt round-robin with every third
/// AP in ψ, under the palette dealt once to APs 1.. (on the saturated
/// floor, every candidate of AP 0 is −∞, most only through a
/// neighbour), and under eight seeded ψ-holed draws from the palette.
/// Ties must go to the first candidate in list order, and all-−∞ to the
/// first candidate.
#[test]
fn acc_ties_match_golden() {
    let params = MetricParams::default();
    let mut h = Fnv1a::new();
    for (name, view, palette) in tie_views() {
        let n = view.len();
        let mut assignments: Vec<Vec<Option<Channel>>> = vec![
            view.aps.iter().map(|ap| Some(ap.current)).collect(),
            (0..n)
                .map(|i| (i % 3 != 2).then(|| palette[i % palette.len()]))
                .collect(),
            (0..n)
                .map(|i| palette.get(i.wrapping_sub(1)).copied())
                .collect(),
        ];
        let mut rng = Rng::new(0x71e5);
        for _ in 0..8 {
            assignments.push(
                (0..n)
                    .map(|_| {
                        let k = rng.below(palette.len() as u64 + 1) as usize;
                        palette.get(k).copied()
                    })
                    .collect(),
            );
        }
        h.write(name.as_bytes());
        for assigned in &assignments {
            for v in 0..n {
                let pick = acc(&params, &view, assigned, v);
                h.write(&pick.primary.to_le_bytes());
                h.write(&pick.width.mhz().to_le_bytes());
            }
        }
    }
    check_goldens(
        "planner.acc",
        &[("planner.acc.ties".to_owned(), h.finish())],
    );
}

/// Every bit `FleetIngest::aggregate` hands out: each CDF's length and
/// 65 evenly spaced quantiles, the goodput fairness index and the
/// switch total (the last two are order-sensitive f64 sums).
fn hash_aggregate(agg: &FleetAggregate) -> u64 {
    let mut h = Fnv1a::new();
    for cdf in [
        &agg.util_2_4,
        &agg.util_5,
        &agg.net_p_ln,
        &agg.tcp_p50_ms,
        &agg.tcp_p90_ms,
        &agg.tcp_p99_ms,
    ] {
        h.write(&(cdf.len() as u64).to_le_bytes());
        for k in 0..=64 {
            let q = cdf.quantile(f64::from(k) / 64.0);
            h.write(&q.map_or(u64::MAX, f64::to_bits).to_le_bytes());
        }
    }
    h.write(
        &agg.jain_goodput
            .map_or(u64::MAX, f64::to_bits)
            .to_le_bytes(),
    );
    h.write(&agg.total_switches.to_bits().to_le_bytes());
    h.finish()
}

/// The fleet's determinism checksum — every network's plans, switches
/// and final `ln NetP` — sequential and sharded, and the distributions
/// the ingest path aggregates from the same reports.
#[test]
fn fleet_checksum_matches_golden_at_1_and_2_threads() {
    let owner = "planner.fleet";
    // (name, checksum, aggregate hash) per thread count.
    let runs: Vec<(String, u64, u64)> = [1usize, 2]
        .into_iter()
        .map(|threads| {
            let run = run_fleet(&FleetConfig {
                n_networks: 6,
                threads,
                aps_min: 16,
                aps_max: 16,
                horizon: SimDuration::from_hours(1),
                ..FleetConfig::default()
            });
            (
                format!("{owner}.6x16x1h.threads{threads}"),
                run.report.checksum,
                hash_aggregate(&run.aggregate),
            )
        })
        .collect();
    assert_eq!(runs[0].1, runs[1].1, "checksum depends on thread count");
    assert_eq!(runs[0].2, runs[1].2, "aggregate depends on thread count");
    let checksums: Vec<(String, u64)> = runs.iter().map(|r| (r.0.clone(), r.1)).collect();
    check_goldens(owner, &checksums);
    check_goldens(
        "fleet.aggregate",
        &[("fleet.aggregate.6x16x1h".to_owned(), runs[0].2)],
    );
}

/// What the standard fixes, as the planner and the evaluator read it:
/// channel geometry for every (band, primary 0..=200, width) — legal or
/// not — with the `channels(band, width)` listings in order, and every
/// VHT rate table in order.
#[test]
fn standard_tables_match_goldens() {
    let mut geometry = Fnv1a::new();
    for band in [Band::Band2_4, Band::Band5] {
        for primary in 0..=200u16 {
            for width in Width::ALL {
                let ch = Channel {
                    band,
                    primary,
                    width,
                };
                let (start, end) = ch.slots().map_or((u64::MAX, u64::MAX), |slots| {
                    (slots.start as u64, slots.end as u64)
                });
                geometry.write(&start.to_le_bytes());
                geometry.write(&end.to_le_bytes());
                geometry.write(&ch.footprint().to_le_bytes());
                geometry.write(&[
                    u8::from(ch.requires_dfs()),
                    u8::from(Channel::new(band, primary, width).is_ok()),
                ]);
            }
        }
        for width in Width::ALL {
            geometry.write(&[0xff]);
            for ch in channels(band, width) {
                geometry.write(&ch.primary.to_le_bytes());
                geometry.write(&ch.width.mhz().to_le_bytes());
            }
        }
    }
    let mut rates = Fnv1a::new();
    for nss in 1..=4u8 {
        for width in Width::ALL {
            for gi in [GuardInterval::Long, GuardInterval::Short] {
                rates.write(&[0xff]);
                for &(mcs, streams, bps) in rate_table(nss, width, gi).iter() {
                    rates.write(&[mcs.0, streams]);
                    rates.write(&bps.to_le_bytes());
                }
            }
        }
    }
    check_goldens(
        "phy",
        &[
            ("phy.channels.catalog".to_owned(), geometry.finish()),
            ("phy.rate_tables".to_owned(), rates.finish()),
        ],
    );
}

/// Every rate `IdealSelector::select` picks, for every width, stream cap
/// 1..=4 and guard interval: SNR −40..90 dB in 1/64 dB steps, one ULP
/// either side of each row's two saturation cutoffs (past which the
/// error model returns an exact 0 or 1 without `exp`), and NaN, ±∞, ±0
/// and the smallest normal.
#[test]
fn rate_selection_matches_golden() {
    // `error_model`'s SATURATION_ARG over its WATERFALL_SLOPE, in dB.
    const SATURATION_DB: f64 = 41.0 / 1.5;
    let mut h = Fnv1a::new();
    for max_nss in 1..=4u8 {
        for width in Width::ALL {
            for gi in [GuardInterval::Long, GuardInterval::Short] {
                let sel = IdealSelector {
                    gi,
                    ..IdealSelector::new(width, max_nss)
                };
                let mut snrs: Vec<f64> = (-40 * 64..=90 * 64).map(|i| i as f64 / 64.0).collect();
                for &(mcs, nss, _) in rate_table(max_nss, width, gi) {
                    // The SNR `select` turns into this row's threshold.
                    let at =
                        snr_requirement_db(mcs, width) + 3.0 * (nss as f64 - 1.0) + sel.margin_db;
                    for cut in [at - SATURATION_DB, at + SATURATION_DB] {
                        snrs.extend([cut.next_down(), cut, cut.next_up()]);
                    }
                }
                snrs.extend([
                    f64::NAN,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    0.0,
                    -0.0,
                    f64::MIN_POSITIVE,
                ]);
                h.write(&[0xff]);
                for snr in snrs {
                    let c = sel.select(snr);
                    h.write(&[c.mcs.0, c.nss]);
                    h.write(&c.bps.to_le_bytes());
                }
            }
        }
    }
    check_goldens("phy.rate", &[("phy.rate.select".to_owned(), h.finish())]);
}

/// Every bit `neteval::evaluate` hands out — the fleet checksum sees
/// only three latency quantiles and the mean goodput of it — for one
/// 20-AP view under the plan it is on and under a Slow-tier plan.
#[test]
fn evaluate_on_20_aps_matches_golden() {
    let (view, caps) = area(20, Band::Band5, &ViewOptions::default(), 120);
    let planned = TurboCa::new(20).run(&view, ScheduleTier::Slow).plan;
    assert!(
        planned.switches_from_current(&view) > 0,
        "two distinct plans"
    );
    let mut h = Fnv1a::new();
    for plan in [Plan::current(&view), planned] {
        let m = evaluate(
            &view,
            &plan,
            &caps,
            &EvalOptions::default(),
            &mut Rng::new(0xe7a1),
        );
        for samples in [
            &m.rssi_dbm,
            &m.tcp_latency_ms,
            &m.bitrate_efficiency,
            &m.ap_goodput_mbps,
        ] {
            h.write(&(samples.len() as u64).to_le_bytes());
            for x in samples {
                h.write(&x.to_bits().to_le_bytes());
            }
        }
        h.write(&(m.switches as u64).to_le_bytes());
    }
    check_goldens(
        "neteval",
        &[("neteval.evaluate.n20".to_owned(), h.finish())],
    );
}
