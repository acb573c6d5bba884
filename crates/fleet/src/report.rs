//! Per-network and fleet-wide run summaries, plus the determinism
//! checksum that the scale benchmarks compare across thread counts.

use sim::{SimDuration, SimTime};
use std::fmt;
use telemetry::codec::Fnv1a;

/// What one managed network reports up to the fleet controller at the
/// end of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkReport {
    pub id: u64,
    pub seed: u64,
    pub n_aps: usize,
    /// Scheduler runs executed / accepted, and channel switches pushed.
    pub plans_run: usize,
    pub accepted: usize,
    pub switches: usize,
    pub final_net_p_ln: f64,
    /// Final primary-channel assignment, AP by AP.
    pub channels: Vec<u16>,
    /// TCP latency percentiles from the plan evaluation model (Fig. 8).
    pub tcp_p50_ms: f64,
    pub tcp_p90_ms: f64,
    pub tcp_p99_ms: f64,
    pub mean_goodput_mbps: f64,
    /// Application-layer QoE score (0–100) synthesized from the plan
    /// evaluation's latency distribution via the `qoe` penalty model
    /// (see `qoe::score`); feeds the fleet-wide QoE rollup.
    pub qoe_score: f64,
    /// Raw utilization polls `(when, value)` per radio, all APs pooled.
    pub util_2_4: Vec<(SimTime, f64)>,
    pub util_5: Vec<(SimTime, f64)>,
    /// This network's health verdict: the alert stream its channel-flap
    /// detector raised over the run.
    pub health: telemetry::HealthReport,
}

/// Fleet-wide summary of one run. Exported through `wifi_core`.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    pub n_networks: usize,
    /// Worker threads used (informational; never part of the checksum).
    pub threads: usize,
    pub horizon: SimDuration,
    pub total_aps: usize,
    pub plans_run: usize,
    pub accepted: usize,
    pub switches: usize,
    pub mean_net_p_ln: f64,
    /// Fleet-wide utilization medians (the Fig. 2 headline numbers:
    /// ~20 % on 2.4 GHz, ~3 % on 5 GHz).
    pub util_2_4_median: f64,
    pub util_5_median: f64,
    /// Medians across networks of the per-network latency percentiles.
    pub tcp_p50_ms: f64,
    pub tcp_p90_ms: f64,
    pub tcp_p99_ms: f64,
    /// Jain fairness of per-network mean goodput.
    pub jain_goodput: f64,
    /// Determinism checksum over every per-network result, in id order.
    /// Equal seeds must yield equal checksums for any thread count.
    pub checksum: u64,
}

impl fmt::Display for FleetReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fleet: {} networks / {} APs, horizon {:.1} h, {} thread(s)",
            self.n_networks,
            self.total_aps,
            self.horizon.as_secs_f64() / 3600.0,
            self.threads
        )?;
        writeln!(
            f,
            "  plans: {} run, {} accepted, {} switches, mean NetP-ln {:.3}",
            self.plans_run, self.accepted, self.switches, self.mean_net_p_ln
        )?;
        writeln!(
            f,
            "  util medians: {:.1}% (2.4 GHz) / {:.1}% (5 GHz)",
            self.util_2_4_median * 100.0,
            self.util_5_median * 100.0
        )?;
        writeln!(
            f,
            "  tcp latency: p50 {:.1} ms, p90 {:.1} ms, p99 {:.1} ms; Jain(goodput) {:.3}",
            self.tcp_p50_ms, self.tcp_p90_ms, self.tcp_p99_ms, self.jain_goodput
        )?;
        write!(f, "  checksum: {:016x}", self.checksum)
    }
}

/// Order-sensitive FNV-1a accumulator for the determinism checksum.
/// f64 values are folded by bit pattern, so "equal checksum" means
/// bit-identical results, not approximately-equal ones.
#[derive(Debug, Clone, Copy)]
pub struct Checksum(Fnv1a);

/// The multiplier this checksum has folded with since PR 1 (one digit
/// longer than [`Fnv1a::PRIME`]). Every committed fleet checksum and
/// the benchmark's pinned digests depend on it, so it is wire format.
const CHECKSUM_PRIME: u64 = 0x1000_0000_01b3;

impl Checksum {
    #[inline]
    pub fn new() -> Checksum {
        Checksum(Fnv1a::with_prime(CHECKSUM_PRIME))
    }

    #[inline]
    pub fn mix_u64(&mut self, v: u64) {
        self.0.write(&v.to_le_bytes());
    }

    #[inline]
    pub fn mix_f64(&mut self, v: f64) {
        self.mix_u64(v.to_bits());
    }

    #[inline]
    pub fn finish(self) -> u64 {
        self.0.finish()
    }
}

impl Default for Checksum {
    fn default() -> Self {
        Checksum::new()
    }
}

/// Fold one network's full result into the running checksum.
pub fn mix_network_report(c: &mut Checksum, r: &NetworkReport) {
    c.mix_u64(r.id);
    c.mix_u64(r.seed);
    c.mix_u64(r.n_aps as u64);
    c.mix_u64(r.plans_run as u64);
    c.mix_u64(r.accepted as u64);
    c.mix_u64(r.switches as u64);
    c.mix_f64(r.final_net_p_ln);
    for &ch in &r.channels {
        c.mix_u64(ch as u64);
    }
    c.mix_f64(r.tcp_p50_ms);
    c.mix_f64(r.tcp_p90_ms);
    c.mix_f64(r.tcp_p99_ms);
    c.mix_f64(r.mean_goodput_mbps);
    c.mix_f64(r.qoe_score);
    for &(t, v) in r.util_2_4.iter().chain(r.util_5.iter()) {
        c.mix_u64(t.as_nanos());
        c.mix_f64(v);
    }
    c.mix_u64(r.health.steps);
    c.mix_u64(r.health.alerts.len() as u64);
    for a in &r.health.alerts {
        c.mix_u64(a.raised_at.as_nanos());
        c.mix_u64(a.severity.weight());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> NetworkReport {
        NetworkReport {
            id: 3,
            seed: 99,
            n_aps: 2,
            plans_run: 4,
            accepted: 1,
            switches: 2,
            final_net_p_ln: -1.5,
            channels: vec![36, 149],
            tcp_p50_ms: 7.0,
            tcp_p90_ms: 30.0,
            tcp_p99_ms: 410.0,
            mean_goodput_mbps: 120.0,
            qoe_score: 92.5,
            util_2_4: vec![(SimTime::from_secs(0), 0.2)],
            util_5: vec![(SimTime::from_secs(0), 0.03)],
            health: telemetry::HealthReport::default(),
        }
    }

    #[test]
    fn checksum_is_stable_and_sensitive() {
        let r = report();
        let mut a = Checksum::new();
        mix_network_report(&mut a, &r);
        let mut b = Checksum::new();
        mix_network_report(&mut b, &r);
        assert_eq!(a.finish(), b.finish());

        let mut r2 = report();
        r2.channels[1] = 44;
        let mut c = Checksum::new();
        mix_network_report(&mut c, &r2);
        assert_ne!(a.finish(), c.finish());

        let mut r3 = report();
        r3.final_net_p_ln = -1.5000000001;
        let mut d = Checksum::new();
        mix_network_report(&mut d, &r3);
        assert_ne!(a.finish(), d.finish(), "bit-level sensitivity");
    }

    #[test]
    fn checksum_values_are_wire_format() {
        // Computed independently (FNV-1a fold, multiplier
        // 0x1000_0000_01b3): a changed value here breaks every committed
        // fleet checksum and the benchmark's pinned digests.
        let mut c = Checksum::new();
        for v in [1, 2, 3] {
            c.mix_u64(v);
        }
        c.mix_f64(-1.5);
        assert_eq!(c.finish(), 0x6618_ca41_1495_c4e0);
    }

    #[test]
    fn display_is_human_readable() {
        let rep = FleetReport {
            n_networks: 10,
            threads: 4,
            horizon: SimDuration::from_hours(1),
            total_aps: 200,
            plans_run: 40,
            accepted: 12,
            switches: 55,
            mean_net_p_ln: -2.0,
            util_2_4_median: 0.2,
            util_5_median: 0.03,
            tcp_p50_ms: 7.0,
            tcp_p90_ms: 30.0,
            tcp_p99_ms: 420.0,
            jain_goodput: 0.9,
            checksum: 0xdead_beef,
        };
        let s = rep.to_string();
        assert!(s.contains("10 networks"));
        assert!(s.contains("checksum: 00000000deadbeef"));
    }
}
