//! What a workload is, and the closed loop that drives one.
//!
//! Closed loop, one client: each rep starts when the previous one ends.
//! Every rep of a workload rebuilds the same seed-derived inputs
//! (timed as set-up) and runs them (the timed region), so work per rep
//! is identical and every rep must produce the same digest. The timed
//! region is clocked in calibrated seconds (see [`crate::trace`]).

pub mod fleet;
pub mod packet;
pub mod planner;

use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Extra untimed-work set-ups before the first rep, so `setup_s` is a
/// median over several samples even when a run fits only two reps.
const EXTRA_SETUPS: usize = 5;

/// What one rep reduces to once its outputs have been checked.
pub struct RepSummary {
    /// FNV-1a over the rep's deterministic outputs.
    pub digest: u64,
    /// Work units completed: simulator events, or plans.
    pub work: u64,
    /// Operations attempted: testbed arms, plans, or fleet runs.
    pub ops: u64,
    /// One line per failed check; any failure fails every op of the rep.
    pub failures: Vec<String>,
}

/// Per-layer values by catalog name; a missing name means the layer did
/// no work on this workload.
pub type LayerValues = BTreeMap<&'static str, f64>;

pub trait Workload {
    type Input;
    type Output;

    /// Build the rep's inputs from the seed. Timed as `setup_s`.
    fn setup(&self, t: &mut Tracer) -> Self::Input;

    /// The timed region: calls into the program under test only.
    fn run(&self, input: Self::Input, t: &mut Tracer) -> Self::Output;

    /// The untimed warm-up rep; same work as [`Workload::run`] unless a
    /// workload has a reason to vary how it is executed.
    fn warm_up(&self, input: Self::Input, t: &mut Tracer) -> Self::Output {
        self.run(input, t)
    }

    /// Check the rep's outputs and digest them (untimed).
    fn summarise(&self, out: &Self::Output) -> RepSummary;

    /// Traced run only: counts read from the traced rep's outputs, the
    /// layer kernels at the sizes that rep observed, and derived shares.
    /// Returns one line per check that failed on the way.
    fn layers(&self, out: &Self::Output, t: &mut Tracer, m: &mut LayerValues) -> Vec<String>;

    /// Threads the timed region keeps busy.
    fn threads(&self) -> usize {
        1
    }
}

/// Operations attempted and failed over a run.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    /// Book one rep: a rep with any failed check fails all its ops.
    pub fn book(&mut self, rep: &RepSummary, label: &str) {
        self.attempted += rep.ops;
        if !rep.failures.is_empty() {
            self.failed += rep.ops;
            for f in &rep.failures {
                eprintln!("CHECK FAILED [{label}]: {f}");
            }
        }
    }

    /// A run-level check (digest equality, pinned digest) that failed
    /// leaves no operation of the run trustworthy.
    pub fn fail_all(&mut self, why: &str) {
        eprintln!("CHECK FAILED [run]: {why}");
        self.failed = self.attempted;
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Everything the driver measured over one process.
pub struct Measured {
    /// Raw wall seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Timed-region wall per timed rep, raw and calibrated seconds.
    pub raw_wall_s: Vec<f64>,
    pub wall_s: Vec<f64>,
    /// Every calibration sample of the run, raw wall seconds, and the
    /// threads each ran on.
    pub calibration_s: Vec<f64>,
    pub threads: usize,
    pub warm_up_wall_s: f64,
    pub work_per_rep: u64,
    pub digest: u64,
    pub ops: Ops,
    /// Traced run only.
    pub traced: Option<Traced>,
}

pub struct Traced {
    pub tracer: Tracer,
    /// Calibrated seconds, like [`Measured::wall_s`].
    pub rep_wall_s: f64,
    pub layers: LayerValues,
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Drive `w`: extra set-ups, one warm-up rep, timed reps until
/// `budget` has elapsed, then (if `trace`) one traced rep and the
/// layer kernels.
pub fn drive<W: Workload>(w: &W, budget: Duration, trace: bool) -> Measured {
    let mut off = Tracer::off(w.threads());
    let mut setup_s = Vec::new();
    for _ in 0..EXTRA_SETUPS {
        let (input, s) = timed(|| w.setup(&mut off));
        drop(input);
        setup_s.push(s);
    }

    let mut ops = Ops::default();
    let (input, s) = timed(|| w.setup(&mut off));
    setup_s.push(s);
    off.start_timed();
    let out = w.warm_up(input, &mut off);
    let (warm_up_wall_s, _) = off.end_timed();
    let first = w.summarise(&out);
    drop(out);
    ops.book(&first, "warm-up");

    // A traced run spends half its budget on untraced reps, so that the
    // traced rep has a same-process baseline to price its overhead on.
    let budget = if trace { budget / 2 } else { budget };
    let mut raw_wall_s = Vec::new();
    let mut wall_s = Vec::new();
    let mut digests_agree = true;
    let loop_start = Instant::now();
    loop {
        let (input, s) = timed(|| w.setup(&mut off));
        setup_s.push(s);
        off.start_timed();
        let out = w.run(input, &mut off);
        let (raw, calibrated) = off.end_timed();
        raw_wall_s.push(raw);
        wall_s.push(calibrated);
        let rep = w.summarise(&out);
        drop(out);
        ops.book(&rep, "timed rep");
        digests_agree &= rep.digest == first.digest && rep.work == first.work;
        if loop_start.elapsed() >= budget {
            break;
        }
    }
    let mut calibration_s = off.calibration_s().to_vec();

    let traced = trace.then(|| {
        let mut tracer = Tracer::on(w.threads());
        tracer.next_rep();
        let input = w.setup(&mut tracer);
        tracer.start_timed();
        let out = w.run(input, &mut tracer);
        let (_, rep_wall_s) = tracer.end_timed();
        let rep = w.summarise(&out);
        ops.book(&rep, "traced rep");
        digests_agree &= rep.digest == first.digest && rep.work == first.work;
        tracer.next_rep();
        let mut layers = LayerValues::new();
        for failure in w.layers(&out, &mut tracer, &mut layers) {
            ops.fail_all(&failure);
        }
        calibration_s.extend_from_slice(tracer.calibration_s());
        Traced {
            tracer,
            rep_wall_s,
            layers,
        }
    });

    if !digests_agree {
        ops.fail_all("reps of one workload produced different digests");
    }
    Measured {
        setup_s,
        raw_wall_s,
        wall_s,
        calibration_s,
        threads: w.threads(),
        warm_up_wall_s,
        work_per_rep: first.work,
        digest: first.digest,
        ops,
        traced,
    }
}

/// Nanoseconds per operation of `f`, which performs `ops` operations
/// per call; best of `rounds` calls after one untimed call.
pub fn ns_per_op(ops: u64, rounds: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let ((), s) = timed(&mut f);
        best = best.min(s);
    }
    best * 1e9 / ops.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(ops: u64, failures: &[&str]) -> RepSummary {
        RepSummary {
            digest: 1,
            work: 1,
            ops,
            failures: failures.iter().map(|s| s.to_string()).collect(),
        }
    }

    #[test]
    fn a_failed_check_raises_the_failed_share() {
        let mut ops = Ops::default();
        ops.book(&rep(2, &[]), "t");
        assert_eq!(ops.failed_share(), 0.0);
        ops.book(&rep(2, &["FastACK arm slower than baseline"]), "t");
        assert_eq!((ops.attempted, ops.failed), (4, 2));
        assert_eq!(ops.failed_share(), 0.5);
        ops.fail_all("digest mismatch");
        assert_eq!(ops.failed_share(), 1.0);
    }

    /// A fake workload whose digest grows by `drift` from rep to rep,
    /// and whose traced checks fail if `layer_check_fails`.
    struct Fake {
        reps: std::cell::Cell<u64>,
        drift: u64,
        layer_check_fails: bool,
    }

    impl Workload for Fake {
        type Input = ();
        type Output = u64;
        fn setup(&self, _: &mut Tracer) {}
        fn run(&self, (): (), t: &mut Tracer) -> u64 {
            t.span("fake.run", |_| {
                self.reps.set(self.reps.get() + 1);
                self.reps.get() * self.drift
            })
        }
        fn summarise(&self, out: &u64) -> RepSummary {
            rep(1, &[]).with_digest(*out)
        }
        fn layers(&self, _: &u64, _: &mut Tracer, m: &mut LayerValues) -> Vec<String> {
            m.insert("fake.count", 1.0);
            if self.layer_check_fails {
                vec!["fake check".into()]
            } else {
                Vec::new()
            }
        }
    }

    impl RepSummary {
        fn with_digest(mut self, d: u64) -> RepSummary {
            self.digest = d;
            self
        }
    }

    #[test]
    fn reps_that_disagree_fail_the_whole_run() {
        let drifting = Fake {
            reps: Default::default(),
            drift: 1,
            layer_check_fails: false,
        };
        let m = drive(&drifting, Duration::ZERO, true);
        assert_eq!(m.wall_s.len(), 1, "zero budget still times one rep");
        assert_eq!(
            m.calibration_s.len(),
            5,
            "one before the warm-up, one after each rep"
        );
        assert_eq!(m.setup_s.len(), EXTRA_SETUPS + 2);
        assert_eq!(m.ops.attempted, 3, "warm-up + timed + traced");
        assert_eq!(m.ops.failed_share(), 1.0);
        let traced = m.traced.expect("traced run");
        assert_eq!(
            traced.tracer.calls("fake.run"),
            1,
            "only the traced rep records"
        );
        assert_eq!(traced.layers["fake.count"], 1.0);
    }

    #[test]
    fn a_check_that_fails_among_the_layers_fails_the_traced_run_only() {
        let steady = |trace: bool| {
            let fake = Fake {
                reps: Default::default(),
                drift: 0,
                layer_check_fails: true,
            };
            drive(&fake, Duration::ZERO, trace).ops
        };
        assert_eq!(steady(false).failed_share(), 0.0);
        assert_eq!(steady(true).failed_share(), 1.0);
    }

    #[test]
    fn ns_per_op_divides_by_the_operation_count() {
        let mut calls = 0;
        let ns = ns_per_op(1000, 3, || calls += 1);
        assert_eq!(calls, 4, "one untimed call, then the rounds");
        assert!((0.0..1e6).contains(&ns));
    }
}
