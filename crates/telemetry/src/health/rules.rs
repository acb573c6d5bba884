//! Thresholds: the five tunable `*Rule` configs, the two untuned
//! rules' tags and [`HealthRules`], the standard catalog's thresholds.

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

/// Tag of [`super::AmpduCollapse`], whose thresholds are constants
/// beside the detector.
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

/// Tag of [`super::QoeDegraded`], whose thresholds are constants beside
/// the detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QoeDegradedRule;

/// The thresholds of the standard catalog. `rto_storm` and
/// `airtime_slo` are `None` to leave that shared rule out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthRules {
    pub fastack_stall: FastAckStallRule,
    pub rto_storm: Option<RtoStormRule>,
    pub airtime_slo: Option<AirtimeSloRule>,
    pub queue_starvation: QueueStarvationRule,
}

impl Default for HealthRules {
    fn default() -> HealthRules {
        HealthRules {
            fastack_stall: FastAckStallRule::default(),
            rto_storm: Some(RtoStormRule::default()),
            airtime_slo: Some(AirtimeSloRule::default()),
            queue_starvation: QueueStarvationRule::default(),
        }
    }
}
