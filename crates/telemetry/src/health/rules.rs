//! Thresholds: the five tunable `*Rule` configs and the two rules'
//! switches, [`HealthRules`], and the check that a catalog can be built
//! from them.

use sim::SimDuration;

/// Rule name of [`super::ChannelFlap`].
pub const RULE_CHANNEL_FLAP: &str = "channel-flap";
/// Rule name of [`super::AmpduCollapse`].
pub const RULE_AMPDU_COLLAPSE: &str = "ampdu-collapse";
/// Rule name of [`super::FastAckStall`].
pub const RULE_FASTACK_STALL: &str = "fastack-stall";
/// Rule name of [`super::RtoStorm`].
pub const RULE_RTO_STORM: &str = "rto-storm";
/// Rule name of [`super::AirtimeSlo`].
pub const RULE_AIRTIME_SLO: &str = "airtime-slo";
/// Rule name of [`super::QueueStarvation`].
pub const RULE_QUEUE_STARVATION: &str = "queue-starvation";
/// Rule name of [`super::QoeDegraded`].
pub const RULE_QOE_DEGRADED: &str = "qoe-degraded";

/// Where the two streak rules clear: streaks are whole epochs, so this
/// is "the streak is over".
pub(super) const STREAK_CLEAR: f64 = 0.5;

/// Per-rule tuning for [`super::ChannelFlap`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelFlapRule {
    /// Evaluation steps (collection epochs) per rolling window.
    pub window: usize,
    /// Raise when the windowed switch count reaches this level.
    pub raise: f64,
    /// Clear when it falls back to (or below) this level.
    pub clear: f64,
    /// Critical when the level reaches this.
    pub critical: f64,
    /// Initial steps to ignore: the first plan of a fresh network is
    /// *expected* to untangle the topology with a burst of switches.
    pub warmup_steps: u32,
}

impl Default for ChannelFlapRule {
    fn default() -> ChannelFlapRule {
        ChannelFlapRule {
            window: 4,
            raise: 3.0,
            clear: 0.0,
            critical: 6.0,
            warmup_steps: 1,
        }
    }
}

/// Switch for [`super::AmpduCollapse`]: `Some` in [`HealthRules`] runs
/// the rule, whose thresholds are constants beside the detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AmpduCollapseRule;

/// Per-rule tuning for [`super::FastAckStall`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FastAckStallRule {
    /// Raise after this many consecutive steps with zero synth-ACK
    /// emissions while segments are in flight.
    pub gap_steps: f64,
    /// Critical after this many.
    pub critical_steps: f64,
    /// In-flight segments required for silence to be suspicious.
    pub min_inflight: f64,
}

impl Default for FastAckStallRule {
    fn default() -> FastAckStallRule {
        FastAckStallRule {
            gap_steps: 8.0,
            critical_steps: 16.0,
            min_inflight: 4.0,
        }
    }
}

/// Per-rule tuning for [`super::RtoStorm`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RtoStormRule {
    pub window: usize,
    /// Raise when this many RTO firings land inside one window.
    pub raise: f64,
    pub clear: f64,
    pub critical: f64,
}

impl Default for RtoStormRule {
    fn default() -> RtoStormRule {
        RtoStormRule {
            window: 8,
            raise: 6.0,
            clear: 1.0,
            critical: 12.0,
        }
    }
}

/// Per-rule tuning for [`super::AirtimeSlo`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AirtimeSloRule {
    pub window: usize,
    /// Raise when windowed mean utilization exceeds this budget.
    pub raise_util: f64,
    pub clear_util: f64,
    pub critical_util: f64,
}

impl Default for AirtimeSloRule {
    fn default() -> AirtimeSloRule {
        AirtimeSloRule {
            window: 8,
            raise_util: 0.999,
            clear_util: 0.95,
            critical_util: 0.9999,
        }
    }
}

/// Per-rule tuning for [`super::QueueStarvation`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueStarvationRule {
    /// Raise after this many consecutive steps with backlog but zero
    /// service.
    pub stall_steps: f64,
    pub critical_steps: f64,
    /// Backlogged frames required for zero service to be suspicious.
    pub min_backlog: f64,
}

impl Default for QueueStarvationRule {
    fn default() -> QueueStarvationRule {
        QueueStarvationRule {
            stall_steps: 8.0,
            critical_steps: 16.0,
            min_backlog: 1.0,
        }
    }
}

/// Switch for [`super::QoeDegraded`]: `Some` in [`HealthRules`] runs the
/// rule, whose thresholds are constants beside the detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QoeDegradedRule;

/// The standard rule set, `None` per rule to disable it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthRules {
    /// Detector evaluation cadence (the testbed's collection epoch).
    pub sample_every: SimDuration,
    pub channel_flap: Option<ChannelFlapRule>,
    pub ampdu_collapse: Option<AmpduCollapseRule>,
    pub fastack_stall: Option<FastAckStallRule>,
    pub rto_storm: Option<RtoStormRule>,
    pub airtime_slo: Option<AirtimeSloRule>,
    pub queue_starvation: Option<QueueStarvationRule>,
    pub qoe_degraded: Option<QoeDegradedRule>,
}

impl Default for HealthRules {
    fn default() -> HealthRules {
        HealthRules {
            sample_every: SimDuration::from_millis(250),
            channel_flap: Some(ChannelFlapRule::default()),
            ampdu_collapse: Some(AmpduCollapseRule),
            fastack_stall: Some(FastAckStallRule::default()),
            rto_storm: Some(RtoStormRule::default()),
            airtime_slo: Some(AirtimeSloRule::default()),
            queue_starvation: Some(QueueStarvationRule::default()),
            qoe_degraded: Some(QoeDegradedRule),
        }
    }
}

impl HealthRules {
    /// Refuse what building the catalog would `assert!` on (an empty
    /// window, `clear > raise`) and what would build a rule that cannot work: a threshold that is
    /// not finite, `critical` below `raise`, no time between epochs.
    /// The error is the first `(field, value, min, max)` whose value is
    /// outside `[min, max]`, the field named from the host's config
    /// down (`health_rules.rto_storm.window`).
    pub fn validate(&self) -> Result<(), (&'static str, f64, f64, f64)> {
        const INF: f64 = f64::INFINITY;
        let every_ns = self.sample_every.as_nanos() as f64;
        let mut ranges = vec![("health_rules.sample_every", every_ns, 1.0, INF)];
        // The listed fields of `$rule`, if it is enabled, ascend from
        // `$min` and stay at or below `$max`.
        macro_rules! within {
            ($min:expr, $max:expr, $rule:ident: $($field:ident),+) => {
                if let Some(rule) = self.$rule {
                    let mut floor = $min;
                    for (field, value) in [$((
                        concat!("health_rules.", stringify!($rule), ".", stringify!($field)),
                        rule.$field as f64,
                    )),+] {
                        ranges.push((field, value, floor, $max));
                        floor = value;
                    }
                }
            };
        }
        within!(1.0, INF, channel_flap: window);
        within!(-INF, INF, channel_flap: clear, raise, critical);
        within!(STREAK_CLEAR, INF, fastack_stall: gap_steps, critical_steps);
        within!(-INF, INF, fastack_stall: min_inflight);
        within!(1.0, INF, rto_storm: window);
        within!(-INF, INF, rto_storm: clear, raise, critical);
        within!(1.0, INF, airtime_slo: window);
        within!(-INF, INF, airtime_slo: clear_util, raise_util, critical_util);
        within!(STREAK_CLEAR, INF, queue_starvation: stall_steps, critical_steps);
        within!(-INF, INF, queue_starvation: min_backlog);
        let bad = |&(_, v, min, max): &(_, f64, f64, f64)| !(v.is_finite() && min <= v && v <= max);
        match ranges.into_iter().find(bad) {
            // Not even finite: say so, whatever its range was.
            Some((field, v, ..)) if !v.is_finite() => Err((field, v, f64::MIN, f64::MAX)),
            Some(row) => Err(row),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_refuses_every_field_under_its_own_name() {
        assert_eq!(HealthRules::default().validate(), Ok(()));
        // An empty window, a threshold that is not a number, thresholds
        // out of `clear <= raise <= critical` order.
        macro_rules! refused {
            ($rule:ident: $($field:ident = $bad:expr),+) => {$({
                let mut rules = HealthRules::default();
                rules.$rule.as_mut().unwrap().$field = $bad;
                let field = concat!("health_rules.", stringify!($rule), ".", stringify!($field));
                assert_eq!(rules.validate().map_err(|row| row.0), Err(field));
            })+};
        }
        const NAN: f64 = f64::NAN;
        refused!(channel_flap: window = 0, clear = NAN, raise = -1.0, critical = 2.0);
        refused!(fastack_stall: gap_steps = 0.0, critical_steps = 4.0, min_inflight = NAN);
        refused!(rto_storm: window = 0, clear = NAN, raise = 0.5, critical = f64::INFINITY);
        refused!(airtime_slo: window = 0, clear_util = NAN, raise_util = 0.9, critical_util = 0.5);
        refused!(queue_starvation: stall_steps = NAN, critical_steps = 7.0, min_backlog = NAN);
    }
}
