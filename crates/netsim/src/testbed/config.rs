//! What a testbed run is given: [`TestbedConfig`] and its typed
//! up-front check, [`TestbedConfig::validate`].

use sim::{SimDuration, SimTime};
use telemetry::{HealthRules, TimelineConfig};

/// Transport driving the downlink flows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Traffic {
    /// Bulk TCP downloads (the paper's main workload).
    #[default]
    Tcp,
    /// Connectionless saturation: the sender keeps every client queue
    /// full with no ACK clock at all — the paper's UDP upper bound for
    /// aggregation (Fig. 15).
    UdpSaturate,
}

/// Fault injection: a non-WiFi interferer (microwave oven, analog
/// video sender — the §3.2.4 interference sources) that switches on
/// mid-run. While active it occupies 35 % of every 25 ms with energy
/// the MAC cannot decode, and degrades every station's effective SNR by
/// 20 dB — which drags rate selection and per-MPDU delivery down
/// exactly the way shrinking A-MPDU sizes show up in the paper's
/// aggregation CDFs.
#[derive(Debug, Clone, Copy)]
pub struct InterfererFault {
    /// When the interferer switches on.
    pub at: SimTime,
}

impl Default for InterfererFault {
    fn default() -> Self {
        InterfererFault {
            at: SimTime::from_millis(2_000),
        }
    }
}

/// Per-client wireless link quality.
#[derive(Debug, Clone, Copy)]
pub struct ClientLink {
    /// Downlink SNR at the client, dB.
    pub snr_db: f64,
    /// Max spatial streams the client supports.
    pub max_nss: u8,
}

/// Testbed configuration.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    /// Number of APs, all contending in one collision domain (1 for
    /// Fig. 16, 2 for Fig. 18). Any count runs: `validate` bounds only
    /// the flows, `n_aps * clients_per_ap`, below the probe-flow ids.
    pub n_aps: usize,
    /// Clients per AP.
    pub clients_per_ap: usize,
    /// FastACK enabled per AP.
    pub fastack: Vec<bool>,
    /// Probability an MPDU's 802.11 delivery report is a "bad hint"
    /// (MAC said delivered, transport never got it; paper footnote 15:
    /// ≈ 1.5 %). Only meaningful on FastACK-enabled APs: it models the
    /// hint channel FastACK consumes — the paper's *baseline* testbed
    /// shows no persistent transport loss (its flows reach the cwnd cap
    /// in Fig. 14), so on baseline APs MAC-acknowledged MPDUs always
    /// reach the transport.
    pub bad_hint_rate: f64,
    /// Probability a wired segment is dropped before the AP (upstream
    /// loss, exercises the §5.5.3 holes path).
    pub upstream_loss: f64,
    /// Base SNR for clients placed nearest the AP; each client's SNR is
    /// spread downward from this to model the Fig. 13 office layout.
    pub base_snr_db: f64,
    /// SNR spread between best- and worst-placed client, dB (>= 0).
    pub snr_spread_db: f64,
    /// Fraction of clients that are "laggy": they experience episodic
    /// uplink stalls (power save, background scans, driver hiccups) — the
    /// paper's arbitrarily slow clients behind the > 400 ms latency tail
    /// and behind Fig. 14's baseline flows that never open their cwnd.
    pub laggy_client_fraction: f64,
    /// Shared driver/firmware buffer pool on the baseline arm, frames.
    /// Per-station share = clamp(pool / clients, 24, pool); beyond it,
    /// tail drop. A shared pool is how real NICs behave and is why
    /// baseline aggregation shrinks as client count grows (the §5.6.3
    /// observation that FastACK's headroom grows with contention).
    pub ap_buffer_pool_frames: usize,
    /// Override the FastACK agent's retransmission-cache budget
    /// (None = agent default). Used by the cache ablation.
    pub agent_cache_bytes: Option<u64>,
    /// RNG seed.
    pub seed: u64,
    /// Time-series sampling (see [`telemetry::timeline`]): when set,
    /// a [`telemetry::Timeline`] ticks on the config's cadence,
    /// snapshotting every registry counter and gauge plus the
    /// per-flow cwnd f64 series (`tcp.flow{c}.cwnd_segments`, Fig. 14's
    /// curves). Sampling only reads — it schedules no
    /// events, draws no randomness, and writes no metric — so every
    /// other artifact stays byte-identical with it on or off. `None`
    /// (the default) samples nothing.
    pub timeline: Option<TimelineConfig>,
    /// Workload driving the flows.
    pub traffic: Traffic,
    /// Flight-recorder ring capacity per component (last-N window of
    /// typed trace records, see `telemetry::flight`). 0 disables
    /// recording entirely.
    pub flight_capacity: usize,
    /// When set, arm flight-recorder mode: any sim-sanitizer violation
    /// writes the recorder's last-N snapshot to this path before the
    /// panic unwinds.
    pub flight_dump_on_violation: Option<std::path::PathBuf>,
    /// Health-rule catalog evaluated over the run's own metrics on the
    /// rules' sampling cadence (see [`telemetry::health`]). Sampling
    /// draws no randomness and schedules no events, so enabling it
    /// cannot perturb the run's trajectory. `None` disables the engine.
    pub health_rules: Option<HealthRules>,
    /// Optional fault injection: a non-WiFi interferer that switches on
    /// mid-run (the health layer's acceptance scenario).
    pub interferer: Option<InterfererFault>,
    /// Application-layer QoE probing (see the `qoe` crate): when set,
    /// every client receives a fixed-rate stream of tiny timestamped
    /// probe MSDUs riding the normal downlink MAC path, and the run
    /// reports per-client delay/jitter/loss/reorder windows reduced to
    /// a 0–100 QoE score. `None` (the default) injects nothing and
    /// registers nothing — existing runs keep their exact trajectory.
    pub qoe: Option<qoe::ProbeConfig>,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        TestbedConfig {
            n_aps: 1,
            clients_per_ap: 10,
            fastack: vec![true],
            // Footnote 15 reports "bad hints occur ≈1.5%" without a
            // denominator. Applied iid per MPDU at 45-60-deep aggregates
            // that would put a transport hole in nearly every aggregate
            // and contradict the paper's own Fig. 15/16 results, so the
            // default models a lower effective rate; `abl_bad_hints`
            // sweeps 0-10% to map the sensitivity.
            bad_hint_rate: 0.002,
            upstream_loss: 0.0,
            base_snr_db: 38.0,
            snr_spread_db: 16.0,
            laggy_client_fraction: 0.25,
            ap_buffer_pool_frames: 1600,
            agent_cache_bytes: None,
            seed: 1,
            timeline: None,
            traffic: Traffic::Tcp,
            flight_capacity: 1024,
            flight_dump_on_violation: None,
            health_rules: Some(HealthRules::default()),
            interferer: None,
            qoe: None,
        }
    }
}

/// Floor of the per-station share of `ap_buffer_pool_frames`.
const MIN_STATION_SHARE: usize = 24;

/// Why [`TestbedConfig::validate`] (or the fleet's
/// `FleetConfig::validate`) refused a configuration. `Display` names
/// the field in one line, fit for a usage error.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A count the run divides or indexes by, or a period the run loop
    /// steps by, is not positive.
    NotPositive(&'static str),
    /// `fastack` does not carry one flag per AP.
    FastackLen { n_aps: usize, len: usize },
    /// `field = value` is outside `[min, max]` (as NaN always is).
    OutOfRange {
        field: &'static str,
        value: f64,
        min: f64,
        max: f64,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ConfigError::NotPositive(field) => write!(f, "{field} must be > 0"),
            ConfigError::FastackLen { n_aps, len } => {
                write!(f, "fastack has {len} flags for n_aps = {n_aps}")
            }
            ConfigError::OutOfRange {
                field,
                value,
                min,
                max,
            } => {
                let (value, min, max) = (num(value), num(min), num(max));
                write!(f, "{field} = {value} must be in [{min}, {max}]")
            }
        }
    }
}

/// `x` as `Display` writes it, but in exponent form from 1e16 on, where
/// `Display` writes every digit (309 of them for `f64::MAX`).
fn num(x: f64) -> String {
    if x.is_finite() && x.abs() >= 1e16 {
        format!("{x:e}")
    } else {
        x.to_string()
    }
}

impl std::error::Error for ConfigError {}

impl ConfigError {
    /// [`ConfigError::NotPositive`] for the first `(field, bad)` that is.
    pub fn not_positive(checks: &[(&'static str, bool)]) -> Result<(), ConfigError> {
        match checks.iter().find(|(_, bad)| *bad) {
            Some(&(field, _)) => Err(ConfigError::NotPositive(field)),
            None => Ok(()),
        }
    }

    /// [`ConfigError::OutOfRange`] for the first `(field, value, min,
    /// max)` whose value is outside `[min, max]`.
    pub fn in_ranges(checks: &[(&'static str, f64, f64, f64)]) -> Result<(), ConfigError> {
        let mut rows = checks.iter();
        let bad = rows.find(|(_, v, min, max)| !(min..=max).contains(&v));
        bad.map_or(Ok(()), |&row| Err(row.into()))
    }
}

/// A `(field, value, min, max)` row that its own check found out of
/// range (`HealthRules::validate`, `TimelineConfig::validate`).
impl From<(&'static str, f64, f64, f64)> for ConfigError {
    fn from((field, value, min, max): (&'static str, f64, f64, f64)) -> Self {
        ConfigError::OutOfRange {
            field,
            value,
            min,
            max,
        }
    }
}

impl TestbedConfig {
    /// The dense packet shape, the benchmark's `dense_fastack` workload
    /// (one arm per `fastack`): 2 APs × 20 clients, contention and
    /// aggregation at full depth. The observed shape (`obs_full`) is
    /// this plus sinks and an interferer whose start each user picks.
    pub fn dense(fastack: bool) -> TestbedConfig {
        TestbedConfig {
            n_aps: 2,
            clients_per_ap: 20,
            fastack: vec![fastack; 2],
            ..TestbedConfig::default()
        }
    }

    /// The lossy packet shape, the benchmark's `lossy_recovery`
    /// workload (one arm per `fastack`): 1 AP × 3 clients at 24 dB
    /// spread 10 dB, 1 % upstream loss and 5 % bad hints, so SACK / RTO
    /// recovery and the agent's holes carry the run.
    pub fn lossy(fastack: bool) -> TestbedConfig {
        TestbedConfig {
            n_aps: 1,
            clients_per_ap: 3,
            fastack: vec![fastack],
            upstream_loss: 0.01,
            bad_hint_rate: 0.05,
            base_snr_db: 24.0,
            snr_spread_db: 10.0,
            ..TestbedConfig::default()
        }
    }

    /// Check everything a run would otherwise trip over part-way: sizes
    /// it divides or indexes by, periods it catches up on by repeated
    /// addition (a zero step never gets past `now`), health rules no
    /// detector and a timeline no sampler can be built from.
    /// [`super::Testbed::new`] panics with the error's `Display`.
    pub fn validate(&self) -> Result<(), ConfigError> {
        const ZERO: Option<SimDuration> = Some(SimDuration::ZERO);
        ConfigError::not_positive(&[
            ("n_aps", self.n_aps == 0),
            ("clients_per_ap", self.clients_per_ap == 0),
            // A probe rate past one per nanosecond.
            ("qoe.pps' interval", self.qoe.map(|p| p.interval()) == ZERO),
        ])?;
        // Each names the row that is out of range.
        self.health_rules.map_or(Ok(()), |r| r.validate())?;
        self.timeline.as_ref().map_or(Ok(()), |t| t.validate())?;
        if self.fastack.len() != self.n_aps {
            return Err(ConfigError::FastackLen {
                n_aps: self.n_aps,
                len: self.fastack.len(),
            });
        }
        // Flow ids stay below the probe-flow range, because an MPDU id
        // says whether it is a probe; the pool holds at least one
        // station's floor share.
        let n_clients = self.n_aps.saturating_mul(self.clients_per_ap) as f64;
        let max_clients = (qoe::PROBE_FLOW_BASE - 1) as f64;
        let pool = self.ap_buffer_pool_frames as f64;
        let inf = f64::INFINITY;
        ConfigError::in_ranges(&[
            ("n_aps * clients_per_ap", n_clients, 1.0, max_clients),
            ("ap_buffer_pool_frames", pool, MIN_STATION_SHARE as f64, inf),
            // Finite: a NaN or infinite SNR runs, on rates no radio has.
            ("base_snr_db", self.base_snr_db, f64::MIN, f64::MAX),
            ("snr_spread_db", self.snr_spread_db, 0.0, f64::MAX),
            ("bad_hint_rate", self.bad_hint_rate, 0.0, 1.0),
            ("upstream_loss", self.upstream_loss, 0.0, 1.0),
            (
                "laggy_client_fraction",
                self.laggy_client_fraction,
                0.0,
                1.0,
            ),
        ])
    }

    /// Baseline-arm tail-drop depth per station: an even share of the
    /// pool, never under the floor (which `validate` keeps `<=` the pool).
    pub(super) fn station_share(&self) -> usize {
        (self.ap_buffer_pool_frames / self.clients_per_ap)
            .clamp(MIN_STATION_SHARE, self.ap_buffer_pool_frames)
    }
}

#[cfg(test)]
mod tests {
    use super::super::Testbed;
    use super::*;

    #[test]
    fn validate_names_every_config_a_run_cannot_survive() {
        use ConfigError::*;
        const ZERO: SimDuration = SimDuration::ZERO;
        let range = |field, value, min, max| OutOfRange {
            field,
            value,
            min,
            max,
        };
        let inf = f64::INFINITY;
        type Edit = fn(&mut TestbedConfig);
        let cases: Vec<(Edit, ConfigError)> = vec![
            (|c| (c.n_aps, c.fastack) = (0, vec![]), NotPositive("n_aps")),
            (|c| c.clients_per_ap = 0, NotPositive("clients_per_ap")),
            (|c| c.n_aps = 2, FastackLen { n_aps: 2, len: 1 }),
            (
                |c| c.health_rules.as_mut().unwrap().sample_every = ZERO,
                range("health_rules.sample_every", 0.0, 1.0, inf),
            ),
            (
                |c| c.timeline.as_mut().unwrap().every = ZERO,
                range("timeline.every", 0.0, 1.0, inf),
            ),
            // The `Timeline::new` assert this check replaces.
            (
                |c| c.timeline.as_mut().unwrap().tiers[1].bucket = SimDuration::from_millis(5),
                range("timeline.tiers[i].bucket", 5e6, 1e7, inf),
            ),
            (
                |c| c.qoe.as_mut().unwrap().pps = 2_000_000_000,
                NotPositive("qoe.pps' interval"),
            ),
            (
                |c| c.clients_per_ap = 0x4000,
                range("n_aps * clients_per_ap", 16384.0, 1.0, 16383.0),
            ),
            // The mid-run `clamp(24, 16)` panic this check replaces.
            (
                |c| c.ap_buffer_pool_frames = 16,
                range("ap_buffer_pool_frames", 16.0, 24.0, inf),
            ),
            (
                |c| c.base_snr_db = f64::INFINITY,
                range("base_snr_db", inf, f64::MIN, f64::MAX),
            ),
            // A negative spread puts clients above the base SNR.
            (
                |c| c.snr_spread_db = -20.0,
                range("snr_spread_db", -20.0, 0.0, f64::MAX),
            ),
            (
                |c| c.snr_spread_db = f64::INFINITY,
                range("snr_spread_db", inf, 0.0, f64::MAX),
            ),
            (
                |c| c.bad_hint_rate = 1.5,
                range("bad_hint_rate", 1.5, 0.0, 1.0),
            ),
            (
                |c| c.upstream_loss = -0.1,
                range("upstream_loss", -0.1, 0.0, 1.0),
            ),
        ];
        let all_on = TestbedConfig {
            interferer: Some(InterfererFault::default()),
            qoe: Some(qoe::ProbeConfig::default()),
            timeline: Some(TimelineConfig::sampling(SimDuration::from_millis(10))),
            ..TestbedConfig::default()
        };
        assert_eq!(all_on.validate(), Ok(()));
        for (edit, want) in cases {
            let mut cfg = all_on.clone();
            edit(&mut cfg);
            assert_eq!(cfg.validate(), Err(want.clone()), "{want}");
            assert!(!want.to_string().contains('\n'), "one line: {want}");
        }
        // Bounds past 1e16 print in exponent form, not in 309 digits.
        let big = range("base_snr_db", inf, f64::MIN, f64::MAX).to_string();
        assert!(big.ends_with("[-1.7976931348623157e308, 1.7976931348623157e308]"));
        // NaN is outside every range.
        for edit in [
            (|c| c.laggy_client_fraction = f64::NAN) as Edit,
            |c| c.base_snr_db = f64::NAN,
            |c| c.snr_spread_db = f64::NAN,
        ] {
            let mut cfg = all_on.clone();
            edit(&mut cfg);
            assert!(cfg.validate().is_err());
        }
        // Bounds are inclusive wherever a run is fine at the bound, and
        // an absent sink or fault has nothing to check.
        let edge = TestbedConfig {
            clients_per_ap: 0x3fff,
            ap_buffer_pool_frames: 24,
            bad_hint_rate: 1.0,
            upstream_loss: 0.0,
            health_rules: None,
            ..TestbedConfig::default()
        };
        assert_eq!(edge.validate(), Ok(()));
    }

    #[test]
    #[should_panic(
        expected = "invalid TestbedConfig: ap_buffer_pool_frames = 16 must be in [24, inf]"
    )]
    fn testbed_new_refuses_what_validate_refuses() {
        let _ = Testbed::new(TestbedConfig {
            ap_buffer_pool_frames: 16,
            ..TestbedConfig::default()
        });
    }
}
