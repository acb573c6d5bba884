//! Fig. 18 — two co-channel APs, 10 clients each, three configurations:
//! (i) baseline+baseline ≈ 251 Mbps combined, (ii) baseline+FastACK
//! ≈ 325 (the FastACK AP jumps 132 → 240 while the baseline AP drops
//! 127 → 85), (iii) FastACK+FastACK ≈ 395 Mbps (+51 % over (i)).

use bench::arms;
use bench::harness::{f, pct, Experiment};

fn main() {
    let mut exp = Experiment::from_args("fig18", "two co-channel APs: baseline/FastACK matrix");
    let [bb, bf, ff] = exp.run_arms(arms::fig18());

    let gain_ff = ff.total_mbps() / bb.total_mbps() - 1.0;
    let gain_bf = bf.total_mbps() / bb.total_mbps() - 1.0;

    exp.compare(
        "combined ordering",
        "fast/fast > mixed > base/base",
        format!(
            "{} > {} > {}",
            f(ff.total_mbps()),
            f(bf.total_mbps()),
            f(bb.total_mbps())
        ),
        ff.total_mbps() > bf.total_mbps() && bf.total_mbps() > bb.total_mbps(),
    );
    exp.compare(
        "fast/fast gain over base/base",
        "+51%",
        pct(gain_ff),
        (0.15..=0.9).contains(&gain_ff),
    );
    exp.compare(
        "mixed deployment still a net win",
        "251 -> 325 Mbps",
        pct(gain_bf),
        gain_bf > 0.0,
    );
    exp.compare(
        "FastACK AP improves in mixed deployment",
        "132 -> 240 Mbps",
        format!("{} -> {} Mbps", f(bb.ap_mbps[1]), f(bf.ap_mbps[1])),
        bf.ap_mbps[1] > bb.ap_mbps[1],
    );
    exp.compare(
        "baseline AP cedes airtime in mixed deployment",
        "127 -> 85 Mbps",
        format!("{} -> {} Mbps", f(bb.ap_mbps[0]), f(bf.ap_mbps[0])),
        bf.ap_mbps[0] < bb.ap_mbps[0] * 1.1,
    );
    exp.series(
        "combined-mbps",
        vec![
            (0.0, bb.total_mbps()),
            (1.0, bf.total_mbps()),
            (2.0, ff.total_mbps()),
        ],
    );
    exp.exit();
}
