//! Host-side run profiler: wall-clock stage timing, peak RSS, and
//! resource high-watermarks.
//!
//! Everything else in `telemetry` measures the *simulated world* — the
//! [`crate::metrics`] profiler attributes simulated microseconds, the
//! flight recorder captures simulated packet causality. This module
//! measures the *simulator as a program*: where the host's wall clock
//! goes (fleet epochs, the testbed event loop, bench setup/run/report
//! phases), how much memory the process peaked at, and how large the hot
//! structures grew. It is the instrument behind the ROADMAP's scale
//! claims ("1M networks in bounded RSS", "≥3× events/s"): a claim about
//! host resources needs a number with a trajectory, and ad-hoc
//! `Instant` timers scattered through bench binaries don't compose.
//!
//! ## The determinism exemption — read this before adding wall-clock
//!
//! This is the **single audited wall-clock module** in the otherwise
//! deterministic stack. Its one clock read carries the only
//! `#[allow(clippy::disallowed_methods)]` in `telemetry` (the
//! `wall-clock` rule, `clippy.toml`), not a crate-wide exemption, and
//! the audit that allow encodes is:
//!
//! 1. **Nothing flows back.** No simulation code ever *reads* a value
//!    produced here; the profiler is write-only from the simulator's
//!    point of view. Enabling it cannot change a trajectory — the
//!    golden-artifact tests pin fig15/fig18 artifact bytes with the
//!    profiler enabled to prove it stays that way.
//! 2. **Off means free.** All entry points early-return on a single
//!    relaxed atomic load when disabled (the default), so instrumented
//!    hot paths pay one predictable branch.
//! 3. **Non-determinism is labelled.** The sidecar JSON separates a
//!    `deterministic` section (structure watermarks, byte-compared by
//!    CI across double runs) from a `wall_clock` section (stage times
//!    and peak RSS — never byte-compared).
//!
//! ## The two pillars
//!
//! * **Stage spans** — [`span`] returns a [`WallSpan`] guard; dropping
//!   it attributes the elapsed host time to its stage name. Stages are
//!   flat labels (`fleet.shard.tick`, `testbed.run`, `fig18.run`) and
//!   guards from worker threads accumulate into the same stage
//!   concurrently.
//! * **Watermarks** — [`watermark`] max-folds named `u64` levels: event
//!   queue depths, flight-ring occupancy, fleet shard backlogs. These
//!   mirror deterministic simulator state, so they land in the
//!   sidecar's `deterministic` section.
//!
//! The profiler is process-global (fleet shards run on scoped worker
//! threads; threading a handle through every layer would make the
//! no-op case cost more than the measurement). [`snapshot`] renders the
//! state into a [`RunProfile`], adding the kernel's lifetime RSS
//! high-watermark ([`peak_rss_bytes`], `VmHWM` in `/proc/self/status`);
//! the bench harness writes it as the `--runprof out.json` sidecar,
//! inspected with `wifictl perf`. Throughput samples are not in it:
//! they are the `--perf` artifact.

use crate::json::{opt_u64, write_str};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn the profiler on or off. Off (the default) makes every probe a
/// single relaxed load; on makes spans read the monotonic clock and
/// take a short mutex on drop. The bench harness flips this when a
/// binary is invoked with `--runprof <path>`.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Is the profiler currently recording?
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

#[derive(Default)]
struct State {
    stages: BTreeMap<String, StageStat>,
    watermarks: BTreeMap<String, u64>,
}

fn state() -> &'static Mutex<State> {
    static STATE: OnceLock<Mutex<State>> = OnceLock::new();
    STATE.get_or_init(Mutex::default)
}

fn lock_state() -> std::sync::MutexGuard<'static, State> {
    // A panic while holding the lock (another thread's assert) must not
    // cascade into every span drop; the counters are plain integers, so
    // the poisoned state is still coherent.
    state().lock().unwrap_or_else(|p| p.into_inner())
}

/// Accumulated wall-clock profile for one stage label.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageStat {
    /// Completed span guards dropped against this stage.
    pub calls: u64,
    /// Total host nanoseconds across all calls.
    pub total_ns: u64,
    /// Shortest single call.
    pub min_ns: u64,
    /// Longest single call.
    pub max_ns: u64,
}

/// Guard returned by [`span`]; dropping it records the elapsed wall
/// time. Carries `None` when the profiler is disabled, so the guard is
/// free to create and free to drop.
#[must_use = "a WallSpan records its stage time when dropped"]
pub struct WallSpan {
    live: Option<(String, Instant)>,
}

impl WallSpan {
    /// A guard that records nothing (what [`span`] hands out while the
    /// profiler is disabled).
    pub fn disabled() -> WallSpan {
        WallSpan { live: None }
    }
}

impl Drop for WallSpan {
    fn drop(&mut self) {
        if let Some((stage, start)) = self.live.take() {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let mut st = lock_state();
            let s = st.stages.entry(stage).or_default();
            s.calls += 1;
            s.total_ns = s.total_ns.saturating_add(ns);
            s.max_ns = s.max_ns.max(ns);
            s.min_ns = if s.calls == 1 { ns } else { s.min_ns.min(ns) };
        }
    }
}

/// Open a wall-clock span against `stage`. Guards may overlap freely
/// across threads; each drop folds into the shared [`StageStat`].
pub fn span(stage: &str) -> WallSpan {
    if !enabled() {
        return WallSpan::disabled();
    }
    // The one wall-clock read in the stack: see the module audit notes.
    #[allow(clippy::disallowed_methods)]
    let start = Instant::now();
    WallSpan {
        live: Some((stage.to_owned(), start)),
    }
}

/// Max-fold a named high-watermark. Watermarks mirror deterministic
/// simulator state (queue depths, ring occupancy, shard backlogs), so
/// they serialize into the sidecar's `deterministic` section and CI
/// byte-compares them across double runs.
pub fn watermark(name: &str, value: u64) {
    if !enabled() {
        return;
    }
    let mut st = lock_state();
    let w = st.watermarks.entry(name.to_owned()).or_insert(0);
    *w = (*w).max(value);
}

/// Clear accumulated stages and watermarks. Tests use this between
/// measured regions; production binaries never need it.
pub fn reset() {
    let mut st = lock_state();
    st.stages.clear();
    st.watermarks.clear();
}

// ---- peak RSS -----------------------------------------------------

/// The process's lifetime peak resident set size in bytes, from the
/// kernel's `VmHWM` line in `/proc/self/status`. `None` off Linux or
/// if the field is missing — callers degrade to "no RSS recorded", the
/// artifact writes `null`.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm(&status)
}

/// Parse `VmHWM: <n> kB` out of a `/proc/self/status` body. Split out
/// so the parsing is testable without a live procfs.
pub fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

// ---- snapshot & sidecar JSON --------------------------------------

/// Everything the profiler knows, cloned out of the global state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunProfile {
    /// Deterministic structure high-watermarks (see [`watermark`]).
    pub watermarks: BTreeMap<String, u64>,
    /// Wall-clock stage profile (see [`span`]).
    pub stages: BTreeMap<String, StageStat>,
    /// Kernel RSS high-watermark at snapshot time.
    pub peak_rss_bytes: Option<u64>,
}

/// Snapshot the global profiler state.
pub fn snapshot() -> RunProfile {
    let st = lock_state();
    RunProfile {
        watermarks: st.watermarks.clone(),
        stages: st.stages.clone(),
        peak_rss_bytes: peak_rss_bytes(),
    }
}

impl RunProfile {
    /// The `--runprof` sidecar. Byte-stable layout: keys are sorted and
    /// field order is fixed, so identical profiler state serializes to
    /// identical bytes. The `deterministic` object must byte-match
    /// across double runs of the same binary (CI enforces it via
    /// `wifictl perf diff`); everything under `wall_clock` is host
    /// measurement and must never be byte-compared.
    pub fn to_json(&self, bench: &str) -> String {
        let mut o = String::with_capacity(1024);
        o.push_str("{\n  \"bench\": ");
        write_str(&mut o, bench);
        o.push_str(",\n  \"deterministic\": {\n    \"watermarks\": {");
        for (i, (name, v)) in self.watermarks.iter().enumerate() {
            o.push_str(if i == 0 { "\n      " } else { ",\n      " });
            write_str(&mut o, name);
            let _ = write!(o, ": {v}");
        }
        if !self.watermarks.is_empty() {
            o.push_str("\n    ");
        }
        o.push_str("}\n  },\n  \"wall_clock\": {\n");
        o.push_str("    \"note\": \"non-deterministic host measurements; never byte-compare\",\n");
        o.push_str("    \"stages\": [");
        for (i, (name, s)) in self.stages.iter().enumerate() {
            o.push_str(if i == 0 { "\n      " } else { ",\n      " });
            o.push_str("{ \"stage\": ");
            write_str(&mut o, name);
            let _ = write!(
                o,
                ", \"calls\": {}, \"total_ns\": {}, \"min_ns\": {}, \"max_ns\": {} }}",
                s.calls, s.total_ns, s.min_ns, s.max_ns
            );
        }
        if !self.stages.is_empty() {
            o.push_str("\n    ");
        }
        let _ = write!(
            o,
            "],\n    \"peak_rss_bytes\": {}\n  }}\n}}\n",
            opt_u64(self.peak_rss_bytes)
        );
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The profiler is process-global; tests that toggle `ENABLED` or
    /// read accumulated state serialize on this lock so `cargo test`'s
    /// thread pool cannot interleave them.
    fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn disabled_probes_record_nothing() {
        let _g = test_lock();
        set_enabled(false);
        reset();
        drop(span("ghost.stage"));
        watermark("ghost.mark", 99);
        let p = snapshot();
        assert!(p.stages.is_empty());
        assert!(p.watermarks.is_empty());
    }

    #[test]
    fn spans_accumulate_calls_and_bounds() {
        let _g = test_lock();
        set_enabled(true);
        reset();
        for _ in 0..3 {
            let s = span("t.stage");
            std::hint::black_box(0u64);
            drop(s);
        }
        set_enabled(false);
        let p = snapshot();
        let s = p.stages.get("t.stage").expect("stage recorded");
        assert_eq!(s.calls, 3);
        assert!(s.total_ns >= s.max_ns);
        assert!(s.max_ns >= s.min_ns);
    }

    #[test]
    fn watermarks_max_fold() {
        let _g = test_lock();
        set_enabled(true);
        reset();
        watermark("w.depth", 10);
        watermark("w.depth", 4);
        watermark("w.depth", 17);
        set_enabled(false);
        assert_eq!(snapshot().watermarks.get("w.depth"), Some(&17));
    }

    #[test]
    fn spans_from_worker_threads_share_a_stage() {
        let _g = test_lock();
        set_enabled(true);
        reset();
        std::thread::scope(|sc| {
            for _ in 0..4 {
                sc.spawn(|| drop(span("t.worker")));
            }
        });
        set_enabled(false);
        assert_eq!(snapshot().stages.get("t.worker").unwrap().calls, 4);
    }

    #[test]
    fn vm_hwm_parses_kernel_format() {
        let status = "Name:\tsim\nVmPeak:\t  100 kB\nVmHWM:\t   5544 kB\nThreads:\t1\n";
        assert_eq!(parse_vm_hwm(status), Some(5544 * 1024));
        assert_eq!(parse_vm_hwm("Name: x\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\tgarbage kB\n"), None);
    }

    #[test]
    fn sidecar_json_is_byte_stable_and_sectioned() {
        let _g = test_lock();
        let mut prof = RunProfile {
            peak_rss_bytes: Some(2048),
            ..RunProfile::default()
        };
        prof.watermarks.insert("sim.queue.depth_peak".into(), 7);
        prof.stages.insert(
            "fig.run".into(),
            StageStat {
                calls: 2,
                total_ns: 100,
                min_ns: 40,
                max_ns: 60,
            },
        );
        let a = prof.to_json("fig");
        let b = prof.to_json("fig");
        assert_eq!(a, b, "identical state must serialize identically");
        // Deterministic section precedes (and never contains) the
        // wall-clock fields.
        let det = a.find("\"deterministic\"").unwrap();
        let wall = a.find("\"wall_clock\"").unwrap();
        assert!(det < wall);
        assert!(a[det..wall].contains("sim.queue.depth_peak"));
        assert!(!a[det..wall].contains("total_ns"));
        assert!(a.contains("never byte-compare"));
        assert!(
            a.ends_with("    ],\n    \"peak_rss_bytes\": 2048\n  }\n}\n"),
            "{a}"
        );
    }

    #[test]
    fn empty_profile_serializes_cleanly() {
        let p = RunProfile::default();
        let j = p.to_json("empty");
        assert!(j.contains("\"watermarks\": {}"));
        assert!(j.contains("\"stages\": [],\n    \"peak_rss_bytes\": null\n"));
    }
}
