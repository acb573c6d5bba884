//! Fig. 4 — latency experienced by each Access Category, plus the per-AC
//! loss rates the paper reports (BK 5.0 %, BE 2.7 %, VI 0.2 %, VO 0.9 %,
//! overall 3.0 %).
//!
//! The EDCA simulation runs a contended medium with per-AC traffic whose
//! link-quality composition mirrors the field: background transfers ride
//! the worst links (distant idle devices), voice/video devices sit near
//! the AP but exhaust their shorter retry budgets faster — which is why
//! VO loses more than VI despite better queues (§3.2.4).

use bench::harness::{f, pct, Experiment};
use wifi_core::mac::ac::AccessCategory;
use wifi_core::mac::medium::{LinkParams, MediumSim};
use wifi_core::prelude::*;
use wifi_core::telemetry::stats::{median, quantile};

struct AcProfile {
    ac: AccessCategory,
    stations: usize,
    frames_per_station: usize,
    frame_bytes: usize,
    /// Fraction of stations with a badly obstructed link, and that
    /// link's per-MPDU error rate.
    bad_fraction: f64,
    bad_per: f64,
    paper_loss: f64,
}

fn main() {
    let mut exp = Experiment::from_args("fig04", "latency and loss by access category");
    let profiles = [
        AcProfile {
            ac: AccessCategory::Background,
            stations: 12,
            frames_per_station: 260,
            frame_bytes: 1460,
            bad_fraction: 0.15,
            bad_per: 0.85,
            paper_loss: 0.050,
        },
        AcProfile {
            ac: AccessCategory::BestEffort,
            stations: 24,
            frames_per_station: 260,
            frame_bytes: 1460,
            bad_fraction: 0.07,
            bad_per: 0.90,
            paper_loss: 0.027,
        },
        // VI/VO need no bad-link composition: their loss comes from
        // collisions — the small CWs that make them aggressive also make
        // them collide, and their shorter retry budgets (4 vs 7) convert
        // collisions into drops. VO's CW (3..7) is half of VI's (7..15),
        // which is why VO loses more than VI, exactly as the paper notes.
        AcProfile {
            ac: AccessCategory::Video,
            stations: 3,
            frames_per_station: 200,
            frame_bytes: 1000,
            bad_fraction: 0.0,
            bad_per: 0.0,
            paper_loss: 0.002,
        },
        AcProfile {
            ac: AccessCategory::Voice,
            stations: 4,
            frames_per_station: 200,
            frame_bytes: 240,
            bad_fraction: 0.0,
            bad_per: 0.0,
            paper_loss: 0.009,
        },
    ];

    let mut rng = Rng::new(404);
    let mut m = MediumSim::new(404);
    let mut queue_ac = Vec::new();
    let mut offered = std::collections::BTreeMap::new();
    // Voice/video stations send on a real-time cadence (a frame every
    // 20 ms, VoIP-style); bulk BE/BK queues are saturated up front.
    let mut periodic: Vec<(usize, usize, usize)> = Vec::new(); // (queue, bytes, remaining)
    for p in &profiles {
        for _ in 0..p.stations {
            let mut lp = LinkParams::clean(p.ac);
            lp.mpdu_error_rate = if rng.chance(p.bad_fraction) {
                p.bad_per
            } else {
                rng.uniform(0.0, 0.08)
            };
            let q = m.add_queue(lp);
            queue_ac.push((q, p.ac));
            let realtime = matches!(p.ac, AccessCategory::Voice | AccessCategory::Video);
            if realtime {
                periodic.push((q, p.frame_bytes, p.frames_per_station));
            } else {
                for i in 0..p.frames_per_station {
                    m.enqueue(q, (q * 100_000 + i) as u64, p.frame_bytes);
                }
            }
            *offered.entry(p.ac).or_insert(0usize) += p.frames_per_station;
        }
    }
    // Each real-time station releases one frame every 20 ms, with
    // per-station phase offsets (VoIP streams are not synchronized).
    let mut schedule: Vec<(SimTime, usize, usize, usize)> = Vec::new(); // (due, queue, bytes, idx)
    for (k, &(q, bytes, n)) in periodic.iter().enumerate() {
        let phase = (k as u64 * 20_000 / periodic.len().max(1) as u64) * 1_000; // ns
        for i in 0..n {
            let due = SimTime::from_nanos(phase + i as u64 * 20_000_000);
            schedule.push((due, q, bytes, i));
        }
    }
    schedule.sort_by_key(|&(due, _, _, _)| due);
    let mut next = 0usize;
    let mut reports = Vec::new();
    loop {
        while next < schedule.len() && m.now() >= schedule[next].0 {
            let (_, q, bytes, i) = schedule[next];
            m.enqueue(q, (q * 100_000 + i) as u64, bytes);
            next += 1;
        }
        match m.step() {
            Some(r) => reports.push(r),
            None => {
                if next >= schedule.len() {
                    break;
                }
                m.advance_to(schedule[next].0);
            }
        }
        if m.now() > SimTime::from_secs(600) {
            break;
        }
    }

    let mut lat: std::collections::BTreeMap<AccessCategory, Vec<f64>> = Default::default();
    let mut lost: std::collections::BTreeMap<AccessCategory, usize> = Default::default();
    for r in &reports {
        for d in &r.deliveries {
            lat.entry(queue_ac[d.queue].1)
                .or_default()
                .push(d.latency.as_secs_f64() * 1e3);
        }
        for dr in &r.drops {
            *lost.entry(queue_ac[dr.queue].1).or_insert(0) += 1;
        }
    }

    let mut med = std::collections::BTreeMap::new();
    let mut total_lost = 0usize;
    let mut total_offered = 0usize;
    for p in &profiles {
        let l = lat.get(&p.ac).cloned().unwrap_or_default();
        let lost_n = lost.get(&p.ac).copied().unwrap_or(0);
        let off = offered[&p.ac];
        total_lost += lost_n;
        total_offered += off;
        let loss = lost_n as f64 / off as f64;
        let m50 = median(&l).unwrap_or(0.0);
        med.insert(p.ac, m50);
        exp.compare(
            format!("{} loss rate", p.ac.abbrev()),
            pct(p.paper_loss),
            pct(loss),
            (loss - p.paper_loss).abs() < p.paper_loss * 0.8 + 0.004,
        );
        exp.series(
            format!("latency-ms-{}", p.ac.abbrev()),
            vec![
                (0.5, m50),
                (0.9, quantile(&l, 0.9).unwrap_or(0.0)),
                (0.99, quantile(&l, 0.99).unwrap_or(0.0)),
            ],
        );
    }
    let overall = total_lost as f64 / total_offered as f64;
    exp.compare(
        "overall loss",
        pct(0.030),
        pct(overall),
        (overall - 0.03).abs() < 0.02,
    );
    exp.compare(
        "median latency ordering VO < VI < BE < BK",
        "aggressive ACs are faster",
        format!(
            "VO {} < VI {} < BE {} < BK {}",
            f(med[&AccessCategory::Voice]),
            f(med[&AccessCategory::Video]),
            f(med[&AccessCategory::BestEffort]),
            f(med[&AccessCategory::Background])
        ),
        med[&AccessCategory::Voice] <= med[&AccessCategory::Video]
            && med[&AccessCategory::Video] <= med[&AccessCategory::BestEffort]
            && med[&AccessCategory::BestEffort] <= med[&AccessCategory::Background],
    );
    exp.exit();
}
