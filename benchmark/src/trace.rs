//! The benchmark's own span recorder, and the stopwatch of a rep's
//! timed region.
//!
//! Spans are recorded from outside the program, around the calls the
//! benchmark makes into each layer's public functions: name, start,
//! end, the span that caused it, and a rep id every span of one rep
//! shares. They are kept in a `Vec` and written out once, when the run
//! ends. A disabled tracer records nothing, so the end-to-end reps run
//! the same code path with only a branch per layer call added.
//!
//! The stopwatch works whether or not spans are recorded. A timed
//! region is a sequence of laps, each bracketed by two calibration
//! samples (see [`crate::calibrate`]); the region's calibrated seconds
//! are the sum of each lap's wall seconds scaled by its own bracket.
//! Calibration itself runs between laps, off the clock.

use crate::calibrate;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub rep: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    rep: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
    /// Threads a calibration sample runs on.
    threads: usize,
    /// Every calibration sample taken, raw wall seconds.
    calibration_s: Vec<f64>,
    lap_start: Instant,
    /// Raw and calibrated seconds of the laps closed since
    /// [`Tracer::start_timed`].
    region: (f64, f64),
}

impl Tracer {
    pub fn off(threads: usize) -> Tracer {
        Tracer::new(false, threads)
    }

    pub fn on(threads: usize) -> Tracer {
        Tracer::new(true, threads)
    }

    fn new(on: bool, threads: usize) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            rep: 0,
            spans: Vec::new(),
            open: Vec::new(),
            threads,
            calibration_s: Vec::new(),
            lap_start: Instant::now(),
            region: (0.0, 0.0),
        }
    }

    fn calibrate(&mut self) -> f64 {
        let threads = self.threads;
        let s = self.span("bench.calibrate", |_| calibrate::sample(threads));
        self.calibration_s.push(s);
        s
    }

    /// Start the clock of a timed region. The sample that closed the
    /// previous region (milliseconds ago) opens this one.
    pub fn start_timed(&mut self) {
        if self.calibration_s.is_empty() {
            self.calibrate();
        }
        self.region = (0.0, 0.0);
        self.lap_start = Instant::now();
    }

    /// Close the current lap and open the next. Workloads call this
    /// between the long calls of a timed region, so that a slow phase
    /// of the machine in the middle of a rep is still bracketed.
    pub fn lap(&mut self) {
        let wall = self.lap_start.elapsed().as_secs_f64();
        let before = *self.calibration_s.last().expect("start_timed sampled");
        let after = self.calibrate();
        self.region.0 += wall;
        self.region.1 += wall * calibrate::factor(before, after, self.threads);
        self.lap_start = Instant::now();
    }

    /// Close the last lap; returns the region's (raw, calibrated)
    /// seconds.
    pub fn end_timed(&mut self) -> (f64, f64) {
        self.lap();
        self.region
    }

    pub fn calibration_s(&self) -> &[f64] {
        &self.calibration_s
    }

    /// Spans recorded from here on share a fresh rep id.
    pub fn next_rep(&mut self) {
        self.rep += 1;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; spans opened by `f` become
    /// its children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_ns(name).iter().sum::<u64>() as f64 / 1e9
    }

    pub fn calls(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Self time per span: its duration minus the part of that interval
    /// its direct children cover (children of one parent never overlap
    /// here: the recorder is single-threaded).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                let p = p as usize;
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// The span file: one object per span plus the provenance header
    /// (already-rendered JSON members, without braces).
    pub fn to_json(&self, header: &str) -> String {
        let own = self.self_ns();
        let mut out = format!("{{\n{header},\n  \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "    {{\"id\": {i}, \"rep\": {}, \"parent\": {parent}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                s.rep, s.name, s.start_ns, s.end_ns, own[i]
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    #[cfg(test)]
    fn push_raw(&mut self, name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            rep: self.rep,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let mut t = Tracer::on(1);
        t.push_raw("root", 0, 100, None); // 0
        t.push_raw("a", 10, 40, Some(0)); // 1: sibling of b
        t.push_raw("a.inner", 15, 25, Some(1)); // 2: nested in a
        t.push_raw("b", 50, 90, Some(0)); // 3
        let own = t.self_ns();
        // Only direct children count against a parent: a.inner is
        // already inside a's 30 ns.
        assert_eq!(own, vec![100 - 30 - 40, 30 - 10, 10, 40]);
        // Self times partition the root interval.
        assert_eq!(own.iter().sum::<u64>(), 100);
    }

    #[test]
    fn recorded_spans_link_parent_and_share_the_rep_id() {
        let mut t = Tracer::on(1);
        t.next_rep();
        let got = t.span("outer", |t| {
            t.span("first", |_| ());
            t.span("second", |t| t.span("leaf", |_| 7))
        });
        assert_eq!(got, 7);
        let names: Vec<_> = t.spans().iter().map(|s| s.name).collect();
        assert_eq!(names, ["outer", "first", "second", "leaf"]);
        let parents: Vec<_> = t.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(0), Some(2)]);
        assert!(t.spans().iter().all(|s| s.rep == 1));
        for s in t.spans() {
            assert!(s.end_ns >= s.start_ns);
        }
        let outer = &t.spans()[0];
        for child in &t.spans()[1..] {
            assert!(child.start_ns >= outer.start_ns && child.end_ns <= outer.end_ns);
        }
        t.next_rep();
        t.span("later", |_| ());
        assert_eq!(t.spans()[4].rep, 2);
        assert_eq!(t.calls("first"), 1);
    }

    #[test]
    fn a_disabled_tracer_runs_the_closure_and_records_nothing() {
        let mut t = Tracer::off(1);
        assert_eq!(t.span("x", |t| t.span("y", |_| 3)), 3);
        assert!(t.spans().is_empty());
        assert_eq!(t.total_s("x"), 0.0);
    }

    #[test]
    fn a_timed_region_sums_its_laps_and_brackets_each_with_samples() {
        let mut t = Tracer::off(1);
        t.start_timed();
        t.lap();
        let (raw, calibrated) = t.end_timed();
        assert_eq!(
            t.calibration_s().len(),
            3,
            "one sample opens, one closes each lap"
        );
        assert!(raw > 0.0 && calibrated > 0.0);
        // The second region reuses the sample that closed the first.
        t.start_timed();
        let (raw2, _) = t.end_timed();
        assert_eq!(t.calibration_s().len(), 4);
        assert!(raw2 < raw + 1.0);
        assert!(
            t.spans().is_empty(),
            "calibration is a span only when tracing"
        );
    }

    #[test]
    fn span_file_is_well_formed() {
        let mut t = Tracer::on(1);
        t.push_raw("root", 0, 10, None);
        t.push_raw("kid", 2, 5, Some(0));
        let json = t.to_json("  \"workload\": \"w\"");
        assert!(json.starts_with("{\n  \"workload\": \"w\",\n  \"spans\": [\n"));
        assert!(json.contains("\"id\": 0, \"rep\": 0, \"parent\": null, \"name\": \"root\""));
        assert!(json.contains(
            "\"parent\": 0, \"name\": \"kid\", \"start_ns\": 2, \"end_ns\": 5, \"self_ns\": 3"
        ));
        assert!(json.contains("\"self_ns\": 7},\n"));
        assert!(json.ends_with("  ]\n}\n"));
    }
}
