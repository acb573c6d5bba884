//! The rule catalog: one detector shell ([`Rule`]) over five ways of
//! reading a level off the registry (the `Signal` constructors), and
//! the seven rules as what their `new` says — a name, the thresholds,
//! a signal over the host's metric paths, the flight layers that
//! explain an alert, and for two of them a finish-time cross-check.

use super::engine::{delta, probe, Detector, Transition, Trigger};
use super::rules::*;
use super::settle::DumpIndex;
use super::wire::Alert;
use crate::metrics::Registry;
use crate::streaming::{Ewma, RollingWindow};
use sim::SimTime;
use std::marker::PhantomData;

/// One way of reading a level off the registry, called once per epoch
/// with the instant, the registry and whether the rule's alert is open.
/// Returns the level and, from a signal that singles one out, the flow
/// it is about; `None` while there is nothing to judge (a path the host
/// has not registered, warm-up, an idle epoch, a window still filling).
type Signal = Box<dyn FnMut(SimTime, &Registry, bool) -> Option<(f64, Option<u64>)> + Send>;

/// What the shell remembers of each alert it raised, for finish time.
struct Episode {
    raised_at: SimTime,
    /// Last epoch the alert was still open after.
    last_open: SimTime,
    /// The flow the signal singled out when the alert was raised.
    subject: Option<u64>,
}

/// The detector every rule is: a signal's level through the shared
/// [`Trigger`], under a rule name, scoped to a component and its flows.
/// `R` is the rule's config type and only tells the seven apart, so
/// that each has a `new` of its own.
pub struct Rule<R> {
    name: &'static str,
    component: String,
    flows: Vec<u64>,
    trig: Trigger,
    signal: Signal,
    /// Flight layers that explain an alert, most telling set first: the
    /// cause is the last record before the raise in the first set that
    /// has one for the alert's flows.
    causes: &'static [&'static [&'static str]],
    /// Finish-time cross-check of one alert against the flight dump;
    /// `false` refutes it.
    check: fn(&DumpIndex, &[u64], &Episode) -> bool,
    /// One per alert, in raise order; found again by `raised_at`.
    episodes: Vec<Episode>,
    config: PhantomData<R>,
}

impl<R> Rule<R> {
    fn over(
        name: &'static str,
        component: impl Into<String>,
        flows: Vec<u64>,
        (raise, clear, critical): (f64, f64, f64),
        signal: Signal,
    ) -> Rule<R> {
        Rule {
            name,
            component: component.into(),
            flows,
            trig: Trigger::new(raise, clear, critical),
            signal,
            causes: &[],
            check: |_, _, _| true,
            episodes: Vec::new(),
            config: PhantomData,
        }
    }

    fn explained_by(self, causes: &'static [&'static [&'static str]]) -> Rule<R> {
        Rule { causes, ..self }
    }

    fn checked_by(self, check: fn(&DumpIndex, &[u64], &Episode) -> bool) -> Rule<R> {
        Rule { check, ..self }
    }
}

impl<R: Send> Detector for Rule<R> {
    fn rule(&self) -> &'static str {
        self.name
    }

    fn component(&self) -> &str {
        &self.component
    }

    fn step(&mut self, now: SimTime, metrics: &Registry) -> Option<Transition> {
        let was_open = self.trig.is_active();
        let (level, subject) = (self.signal)(now, metrics, was_open)?;
        let transition = self.trig.eval(level);
        if self.trig.is_active() {
            match self.episodes.last_mut() {
                Some(episode) if was_open => episode.last_open = now,
                _ => self.episodes.push(Episode {
                    raised_at: now,
                    last_open: now,
                    subject,
                }),
            }
        }
        transition
    }

    fn settle(&self, dump: &DumpIndex, alert: &mut Alert) -> bool {
        let at = alert.raised_at;
        let Some(episode) = self.episodes.iter().find(|e| e.raised_at == at) else {
            return true;
        };
        let flows = match &episode.subject {
            Some(flow) => std::slice::from_ref(flow),
            None => &self.flows[..],
        };
        let mut causes = self.causes.iter();
        alert.cause = causes.find_map(|layers| dump.last_cause(layers, flows, at));
        (self.check)(dump, &self.flows, episode)
    }
}

// ---- the five signals ---------------------------------------------

/// Windowed sum of a cumulative metric's per-epoch delta, after
/// `warmup_left` epochs whose delta is read but not counted.
fn window_sum(path: String, window: usize, mut warmup_left: u32) -> Signal {
    let (mut prev, mut window) = (None, RollingWindow::new(window));
    Box::new(move |_, metrics, _| {
        let d = delta(&mut prev, probe(metrics, &path)?);
        if warmup_left > 0 {
            warmup_left -= 1;
            return None;
        }
        window.push(d);
        Some((window.sum(), None))
    })
}

/// Consecutive epochs in which the cumulative `progress` metric stood
/// still while `demand` was at least `min_demand`. Progress counts are
/// integral, so a delta `< 0.5` is "none".
fn streak(progress: String, demand: String, min_demand: f64) -> Signal {
    let (mut prev, mut streak) = (None, 0.0);
    Box::new(move |_, metrics, _| {
        let (progress, demand) = (probe(metrics, &progress)?, probe(metrics, &demand)?);
        if delta(&mut prev, progress) < 0.5 && demand >= min_demand {
            streak += 1.0;
        } else {
            streak = 0.0;
        }
        Some((streak, None))
    })
}

/// Windowed mean of a cumulative nanosecond metric's rate (Δns / Δt),
/// once the window is full.
fn mean_rate(path: String, window: usize) -> Signal {
    let (mut prev, mut window) = (None, RollingWindow::new(window));
    let mut prev_step: Option<SimTime> = None;
    Box::new(move |now, metrics, _| {
        let d = delta(&mut prev, probe(metrics, &path)?);
        let dt = now.saturating_since(prev_step.replace(now)?).as_nanos() as f64;
        if dt <= 0.0 {
            return None;
        }
        window.push(d / dt);
        let mean = window.mean().unwrap_or(0.0);
        window.is_full().then_some((mean, None))
    })
}

/// A slow EWMA baseline of the per-epoch mean `Δtotal / Δcount` over
/// that mean's windowed median: how far the recent past fell below the
/// healthy one. Epochs with fewer than [`AMPDU_MIN_AGGREGATES`] new
/// items are idle: no signal, not collapse.
fn baseline_ratio(count: String, total: String) -> Signal {
    let (mut prev_count, mut prev_total) = (None, None);
    // The one signal that reads a median.
    let mut window = RollingWindow::with_quantiles(AMPDU_WINDOW);
    let mut baseline = Ewma::new(AMPDU_BASELINE_ALPHA);
    Box::new(move |_, metrics, raised| {
        let (count, total) = (probe(metrics, &count)?, probe(metrics, &total)?);
        let (dc, dt) = (delta(&mut prev_count, count), delta(&mut prev_total, total));
        if dc < AMPDU_MIN_AGGREGATES {
            return None;
        }
        let mean = dt / dc;
        window.push(mean);
        // The baseline tracks slowly while healthy and freezes while
        // raised, so a long-lived collapse cannot become the new
        // normal and self-clear.
        if !(window.is_full() && raised) {
            baseline.observe(mean);
        }
        if !window.is_full() {
            return None;
        }
        let median = window.quantile(0.5).unwrap_or(mean);
        let base = baseline.value().unwrap_or(median);
        Some((base / median.max(1e-9), None))
    })
}

/// The worst of several 0–100 score gauges as a penalty (`100 −
/// score`), about that gauge's flow. `clients` pairs each gauge path
/// with its flow; gauges not registered are skipped, and with none
/// registered there is no level.
fn worst_gauge(clients: Vec<(String, u64)>) -> Signal {
    Box::new(move |_, metrics, _| {
        let mut worst: Option<(f64, u64)> = None;
        for (path, flow) in &clients {
            let Some(score) = probe(metrics, path) else {
                continue;
            };
            if worst.is_none_or(|(s, _)| score < s) {
                worst = Some((score, *flow));
            }
        }
        let (score, flow) = worst?;
        Some(((100.0 - score).max(0.0), Some(flow)))
    })
}

// ---- the seven rules ----------------------------------------------

/// TurboCA reassignment churn: windowed sum of per-step channel-switch
/// deltas. A healthy network converges and sits still (§4.4.4's
/// schedule is explicitly designed to bound switch churn); repeated
/// reassignment means the planner is chasing a moving RF environment
/// or oscillating between plans.
pub type ChannelFlap = Rule<ChannelFlapRule>;

impl ChannelFlap {
    pub fn new(
        component: impl Into<String>,
        switches_path: impl Into<String>,
        rule: ChannelFlapRule,
    ) -> ChannelFlap {
        let signal = window_sum(switches_path.into(), rule.window, rule.warmup_steps);
        let levels = (rule.raise, rule.clear, rule.critical);
        Rule::over(RULE_CHANNEL_FLAP, component, Vec::new(), levels, signal)
    }
}

/// Retransmission-timeout storm: windowed sum of per-step RTO firings.
/// SACK/fast-retransmit should absorb ordinary loss; RTOs en masse
/// mean the feedback loop itself has failed (§5.1's pathology).
pub type RtoStorm = Rule<RtoStormRule>;

impl RtoStorm {
    pub fn new(
        component: impl Into<String>,
        timeouts_path: impl Into<String>,
        flows: Vec<u64>,
        rule: RtoStormRule,
    ) -> RtoStorm {
        let signal = window_sum(timeouts_path.into(), rule.window, 0);
        let levels = (rule.raise, rule.clear, rule.critical);
        Rule::over(RULE_RTO_STORM, component, flows, levels, signal).explained_by(&[&["tcp-seg"]])
    }
}

/// Queue starvation: frames are backlogged but the scheduler built no
/// aggregates for multiple consecutive epochs — the MAC service
/// process has stopped while demand remains.
pub type QueueStarvation = Rule<QueueStarvationRule>;

impl QueueStarvation {
    pub fn new(
        component: impl Into<String>,
        backlog_path: impl Into<String>,
        served_path: impl Into<String>,
        flows: Vec<u64>,
        rule: QueueStarvationRule,
    ) -> QueueStarvation {
        let signal = streak(served_path.into(), backlog_path.into(), rule.min_backlog);
        let levels = (rule.stall_steps, STREAK_CLEAR, rule.critical_steps);
        Rule::over(RULE_QUEUE_STARVATION, component, flows, levels, signal)
            .explained_by(&[&["tcp-seg", "ampdu-build"]])
    }
}

/// FastACK emission gap: segments are in flight but the agent has not
/// synthesized an ACK for multiple consecutive epochs. Cross-checked
/// at finish time against the `fastack.*` flight ring — if synthetic
/// ACK records for these flows exist inside the claimed gap, the
/// metrics and the flight recorder disagree and the alert is refuted.
/// The cause is the last ACK the agent did emit, else the stuck segment.
pub type FastAckStall = Rule<FastAckStallRule>;

impl FastAckStall {
    pub fn new(
        component: impl Into<String>,
        synth_path: impl Into<String>,
        inflight_path: impl Into<String>,
        flows: Vec<u64>,
        rule: FastAckStallRule,
    ) -> FastAckStall {
        let signal = streak(synth_path.into(), inflight_path.into(), rule.min_inflight);
        let levels = (rule.gap_steps, STREAK_CLEAR, rule.critical_steps);
        Rule::over(RULE_FASTACK_STALL, component, flows, levels, signal)
            .explained_by(&[&["fastack-synth"], &["tcp-seg", "mac-tx"]])
            .checked_by(no_synthetic_ack_in_gap)
    }
}

/// A genuine stall has no synthetic emissions for `flows` inside the
/// claimed gap, which ends with the last stalled epoch — the last one
/// the alert was open after, since one epoch of progress clears it.
fn no_synthetic_ack_in_gap(dump: &DumpIndex, flows: &[u64], alert: &Episode) -> bool {
    !dump.synthetic_ack_in(flows, alert.raised_at, alert.last_open)
}

/// Airtime SLO: windowed mean utilization (Δbusy-ns / Δt) against a
/// budget. The per-AP `air.*` spans are the ground truth the §3
/// measurement study is built on; a network pinned above its budget
/// has no headroom for the planner to work with.
pub type AirtimeSlo = Rule<AirtimeSloRule>;

impl AirtimeSlo {
    pub fn new(
        component: impl Into<String>,
        busy_path: impl Into<String>,
        rule: AirtimeSloRule,
    ) -> AirtimeSlo {
        let signal = mean_rate(busy_path.into(), rule.window);
        let levels = (rule.raise_util, rule.clear_util, rule.critical_util);
        Rule::over(RULE_AIRTIME_SLO, component, Vec::new(), levels, signal)
            .explained_by(&[&["airtime-span"]])
    }
}

/// Aggregate-size collapse: the windowed median of per-step mean
/// A-MPDU size falls far below the long-run (EWMA) baseline. This is
/// the canonical MAC-layer symptom of interference/retry pressure —
/// §3.2.4 measures exactly this distribution, and shrinking aggregates
/// are how an 802.11ac link loses its throughput headroom.
pub type AmpduCollapse = Rule<AmpduCollapseRule>;

/// Epochs of per-epoch mean aggregate size the median is taken of.
const AMPDU_WINDOW: usize = 6;
/// EWMA smoothing of the baseline: slow enough that it is still "the
/// healthy past" while the 6-epoch median refills with collapsed
/// samples; a fast baseline would chase the collapse down and never see
/// the ratio cross.
const AMPDU_BASELINE_ALPHA: f64 = 0.02;
/// Baseline / windowed median at which to raise, clear and go critical.
const AMPDU_LEVELS: (f64, f64, f64) = (1.8, 1.4, 3.0);
/// Epochs with fewer new aggregates than this carry no signal.
const AMPDU_MIN_AGGREGATES: f64 = 4.0;

impl AmpduCollapse {
    pub fn new(
        component: impl Into<String>,
        aggregates_path: impl Into<String>,
        frames_path: impl Into<String>,
        flows: Vec<u64>,
    ) -> AmpduCollapse {
        let signal = baseline_ratio(aggregates_path.into(), frames_path.into());
        Rule::over(RULE_AMPDU_COLLAPSE, component, flows, AMPDU_LEVELS, signal)
            .explained_by(&[&["ampdu-build", "mac-tx"]])
    }
}

/// Application-layer QoE degradation: watches per-client QoE score
/// gauges (0–100, probe-flow derived) and raises when the *worst*
/// watched client's penalty (`100 − score`) crosses [`QOE_LEVELS`]'
/// raise threshold. The alert's cause is the last probe (or MAC tx)
/// record of the worst-affected client's probe flow, so `wifictl health
/// explain --trace` walks from the application-layer symptom down the
/// stack.
pub type QoeDegraded = Rule<QoeDegradedRule>;

/// Worst-client penalty (`100 − score`) at which to raise, clear and go
/// critical: raise when a score drops to 60 or below, critical at 45.
const QOE_LEVELS: (f64, f64, f64) = (40.0, 25.0, 55.0);

impl QoeDegraded {
    /// `clients`: `(score gauge path, probe flow id)` per watched client.
    pub fn new(component: impl Into<String>, clients: Vec<(String, u64)>) -> QoeDegraded {
        let signal = worst_gauge(clients);
        Rule::over(RULE_QOE_DEGRADED, component, Vec::new(), QOE_LEVELS, signal)
            .explained_by(&[&["qoe-probe", "mac-tx"]])
            .checked_by(probed_if_any_probe_is_on_record)
    }
}

/// A degraded-QoE alert implies probe traffic existed. If the flight
/// ring retained *any* probe records, one for the worst client's flow
/// must be among them; none at all (recording off or evicted) is
/// inconclusive and passes.
fn probed_if_any_probe_is_on_record(dump: &DumpIndex, _: &[u64], alert: &Episode) -> bool {
    dump.probed_if_any_probe(alert.subject)
}

/// Build the standard catalog for one AP scope. `flows` are the flow
/// ids terminating at this AP; paths follow the testbed's metric
/// naming. Hosts with different naming can construct detectors
/// directly.
pub fn standard_ap_detectors(
    ap: usize,
    flows: Vec<u64>,
    fastack: bool,
    rules: &HealthRules,
) -> Vec<Box<dyn Detector>> {
    let comp = format!("ap{ap}");
    let mut out: Vec<Box<dyn Detector>> = Vec::new();
    if rules.ampdu_collapse.is_some() {
        out.push(Box::new(AmpduCollapse::new(
            comp.clone(),
            format!("mac.ap{ap}.ampdu.aggregates"),
            format!("mac.ap{ap}.ampdu.frames"),
            flows.clone(),
        )));
    }
    if let Some(r) = rules.fastack_stall.filter(|_| fastack) {
        out.push(Box::new(FastAckStall::new(
            comp.clone(),
            format!("health.ap{ap}.fast_acks"),
            format!("health.ap{ap}.inflight"),
            flows.clone(),
            r,
        )));
    }
    if let Some(r) = rules.queue_starvation {
        out.push(Box::new(QueueStarvation::new(
            comp,
            format!("health.ap{ap}.backlog"),
            format!("mac.ap{ap}.ampdu.aggregates"),
            flows,
            r,
        )));
    }
    out
}
