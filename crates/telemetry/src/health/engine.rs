//! The state machine every rule shares and the engine that steps the
//! detectors: raise / clear / critical with hysteresis ([`Trigger`]),
//! the registry readers detectors are built from, and [`HealthEngine`],
//! which turns transitions into the alert stream.

use super::settle::DumpIndex;
use super::wire::{sort_alerts, Alert, HealthReport, Severity};
use crate::flight::FlightDump;
use crate::metrics::Registry;
use sim::SimTime;

/// What a detector step tells the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Transition {
    /// Raise a new alert — or, if one is already open for this
    /// detector, upgrade its severity/peak level.
    Raise {
        level: f64,
        threshold: f64,
        severity: Severity,
    },
    /// Clear the open alert.
    Clear,
}

/// Raise / clear / critical over one level. An alert is raised on the
/// upward crossing of `raise_at` and cleared only once the level falls
/// back to `clear_at` — the gap is what keeps a level oscillating
/// around one threshold from flapping an alert. While it is open, a
/// level reaching `critical_at` upgrades it (never downgrades).
#[derive(Debug, Clone, Copy)]
pub(super) struct Trigger {
    raise_at: f64,
    clear_at: f64,
    critical_at: f64,
    /// Severity of the open alert.
    open: Option<Severity>,
}

impl Trigger {
    pub(super) fn new(raise_at: f64, clear_at: f64, critical_at: f64) -> Trigger {
        assert!(
            clear_at <= raise_at,
            "hysteresis clear level must not exceed the raise level"
        );
        Trigger {
            raise_at,
            clear_at,
            critical_at,
            open: None,
        }
    }

    pub(super) fn is_active(&self) -> bool {
        self.open.is_some()
    }

    /// Feed the current level; returns the transition it caused, if any.
    pub(super) fn eval(&mut self, level: f64) -> Option<Transition> {
        let severity = if level >= self.critical_at {
            Severity::Critical
        } else {
            Severity::Warning
        };
        let raise = match self.open {
            None => level >= self.raise_at,
            Some(_) if level <= self.clear_at => {
                self.open = None;
                return Some(Transition::Clear);
            }
            Some(raised) => severity > raised,
        };
        raise.then(|| {
            self.open = Some(severity);
            Transition::Raise {
                level,
                threshold: self.raise_at,
                severity,
            }
        })
    }
}

/// A cumulative counter or gauge's move since `prev`, the sample
/// before, which `current` replaces. The first observation yields 0
/// (no baseline yet).
pub(super) fn delta(prev: &mut Option<f64>, current: f64) -> f64 {
    prev.replace(current).map_or(0.0, |prev| current - prev)
}

/// Read a cumulative value by metric path: counter, else gauge, else a
/// profiler span's total sim time in ns. `None` until the host
/// registers the path — detectors stay silent rather than inventing
/// zeros for metrics that do not exist yet.
pub(super) fn probe(metrics: &Registry, path: &str) -> Option<f64> {
    let counter = metrics.counter_value(path).map(|v| v as f64);
    let gauge = || metrics.gauge_value(path).map(|v| v as f64);
    let span = || Some(metrics.span_value(path)?.time.as_nanos() as f64);
    counter.or_else(gauge).or_else(span)
}

/// One health rule evaluated over the metric stream. Implementations
/// must be deterministic functions of the step sequence. `Send` so an
/// engine can ride a managed network across shard workers.
pub trait Detector: Send {
    /// Rule name (one of the `RULE_*` constants).
    fn rule(&self) -> &'static str;
    /// The scope this instance watches (`ap0`, `tcp`, `sched`, …).
    fn component(&self) -> &str;
    /// Evaluate one collection epoch against the live registry.
    fn step(&mut self, now: SimTime, metrics: &Registry) -> Option<Transition>;
    /// Finish time, once the flight dump exists: attach the causal id
    /// to `alert` and cross-check it against the dump, read through its
    /// index; returning `false` refutes (drops) the alert.
    fn settle(&self, dump: &DumpIndex<'_>, alert: &mut Alert) -> bool;
}

/// The detector engine: steps every registered detector on the
/// collection cadence, tracks open alerts, and finalizes the report —
/// resolving causes and applying flight-record cross-checks — once the
/// run's flight dump exists.
#[derive(Default)]
pub struct HealthEngine {
    detectors: Vec<Box<dyn Detector>>,
    /// Per-detector index into `alerts` while an alert is open.
    open: Vec<Option<usize>>,
    /// `(detector index, alert)`, in raise order.
    alerts: Vec<(usize, Alert)>,
    steps: u64,
}

impl HealthEngine {
    pub fn new() -> HealthEngine {
        HealthEngine::default()
    }

    /// Register a detector. Hosts must add detectors in a
    /// deterministic order; it is part of the byte-stability contract.
    pub fn add(&mut self, detector: Box<dyn Detector>) {
        self.detectors.push(detector);
        self.open.push(None);
    }

    /// Alerts raised so far (open and cleared).
    pub fn alerts_so_far(&self) -> usize {
        self.alerts.len()
    }

    /// Evaluate every detector at simulated instant `now`.
    pub fn step(&mut self, now: SimTime, metrics: &Registry) {
        self.steps += 1;
        for (i, det) in self.detectors.iter_mut().enumerate() {
            match det.step(now, metrics) {
                Some(Transition::Raise {
                    level,
                    threshold,
                    severity,
                }) => match self.open[i] {
                    Some(k) => {
                        let a = &mut self.alerts[k].1;
                        a.severity = a.severity.max(severity);
                        a.value = a.value.max(level);
                    }
                    None => {
                        self.open[i] = Some(self.alerts.len());
                        self.alerts.push((
                            i,
                            Alert {
                                component: det.component().to_string(),
                                rule: det.rule().to_string(),
                                severity,
                                raised_at: now,
                                cleared_at: None,
                                cause: None,
                                value: level,
                                threshold,
                            },
                        ));
                    }
                },
                Some(Transition::Clear) => {
                    if let Some(k) = self.open[i].take() {
                        self.alerts[k].1.cleared_at = Some(now);
                    }
                }
                None => {}
            }
        }
    }

    /// Close out the run: index the flight dump once, resolve causes
    /// against it, drop alerts their detector refutes against it, and
    /// emit the report in canonical order.
    pub fn finish(self, dump: &FlightDump) -> HealthReport {
        let index = DumpIndex::new(dump);
        let mut alerts = Vec::new();
        for (i, mut a) in self.alerts {
            if self.detectors[i].settle(&index, &mut a) {
                alerts.push(a);
            }
        }
        sort_alerts(&mut alerts);
        HealthReport {
            steps: self.steps,
            alerts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hysteresis_needs_the_full_gap_to_clear() {
        let raise = |level| {
            Some(Transition::Raise {
                level,
                threshold: 3.0,
                severity: Severity::Warning,
            })
        };
        let mut h = Trigger::new(3.0, 1.0, f64::INFINITY);
        assert!(!h.is_active());
        assert_eq!(h.eval(2.9), None);
        assert_eq!(h.eval(3.0), raise(3.0));
        assert!(h.is_active());
        // Oscillation inside the gap must not flap.
        assert_eq!(h.eval(2.0), None);
        assert_eq!(h.eval(3.5), None);
        assert_eq!(h.eval(1.5), None);
        assert_eq!(h.eval(1.0), Some(Transition::Clear));
        assert!(!h.is_active());
        assert_eq!(h.eval(1.0), None);
    }

    #[test]
    fn probe_reads_counters_gauges_and_spans() {
        let mut m = Registry::new();
        let c = m.counter("c");
        m.add(c, 3);
        let g = m.gauge("g");
        m.gauge_set(g, -4);
        let sp = m.span("s");
        m.record(sp, sim::SimDuration::from_nanos(500));
        assert_eq!(probe(&m, "c"), Some(3.0));
        assert_eq!(probe(&m, "g"), Some(-4.0));
        assert_eq!(probe(&m, "s"), Some(500.0));
        assert_eq!(probe(&m, "missing"), None);
    }
}
