//! Diurnal office load model — the shape behind the paper's Fig. 6
//! snapshot: associated clients move gradually through the day while
//! data usage and channel utilization are bursty, including a sudden
//! ~30-minute surge (the paper's 2 pm example).

use sim::{Rng, SimDuration, SimTime};

/// One sampled point of the AP-day.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DaySample {
    pub at: SimTime,
    /// Associated clients passing traffic.
    pub clients: f64,
    /// Data usage over the sample interval, Mbit.
    pub usage_mbit: f64,
    /// Channel utilization 0..1.
    pub utilization: f64,
}

/// The office day: one AP's clients, usage and utilization from
/// midnight to midnight.
#[derive(Debug, Clone)]
pub struct OfficeDay;

/// Peak concurrent clients (mid-day plateau).
const PEAK_CLIENTS: f64 = 30.0;
/// Mean per-client offered load at the plateau, Mbit per 5 min.
const PER_CLIENT_MBIT: f64 = 60.0;
/// Scheduled surge start (the paper's 2 pm burst), hours from midnight,
/// its duration in minutes, and its multiplier on usage.
const SURGE_AT_H: f64 = 14.0;
const SURGE_MINUTES: f64 = 30.0;
const SURGE_FACTOR: f64 = 4.0;
/// Sampling interval.
const INTERVAL: SimDuration = SimDuration::from_mins(5);

/// Occupancy envelope: 0 overnight, ramp 7–10 am, plateau with a lunch
/// dip, ramp down 16–19.
fn occupancy(hour: f64) -> f64 {
    let ramp_up = ((hour - 7.0) / 3.0).clamp(0.0, 1.0);
    let ramp_down = 1.0 - ((hour - 16.0) / 3.0).clamp(0.0, 1.0);
    let lunch_dip = if (12.0..13.0).contains(&hour) {
        0.75
    } else {
        1.0
    };
    (ramp_up * ramp_down * lunch_dip).clamp(0.0, 1.0)
}

impl OfficeDay {
    /// Generate a full day of samples.
    pub fn generate(&self, rng: &mut Rng) -> Vec<DaySample> {
        let day = SimDuration::from_hours(24);
        let steps = day.as_nanos() / INTERVAL.as_nanos();
        let mut out = Vec::with_capacity(steps as usize);
        for k in 0..steps {
            let at = SimTime::ZERO + INTERVAL * k;
            let hour = at.as_nanos() as f64 / 3.6e12;
            let occ = occupancy(hour);
            // Clients move gradually: occupancy envelope + small noise.
            let clients = (PEAK_CLIENTS * occ * rng.uniform(0.9, 1.1)).max(0.0);
            // Usage is bursty: lognormal per-sample demand...
            let mut usage =
                clients * PER_CLIENT_MBIT * (0.9 * rng.standard_normal()).exp() * occ.max(0.05);
            // ...plus the scheduled surge.
            let in_surge = (SURGE_AT_H..SURGE_AT_H + SURGE_MINUTES / 60.0).contains(&hour);
            if in_surge {
                usage *= SURGE_FACTOR;
            }
            // Utilization tracks usage against a nominal channel capacity
            // (20 MHz reference ≈ 4.2 Gbit per 5 min of airtime at
            // ~140 Mbps effective), plus ambient neighbors.
            let capacity_mbit = 140.0 * INTERVAL.as_secs_f64() * 8.0 / 8.0;
            let util = (usage / capacity_mbit + rng.uniform(0.02, 0.08)).clamp(0.0, 1.0);
            out.push(DaySample {
                at,
                clients,
                usage_mbit: usage,
                utilization: util,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn day() -> Vec<DaySample> {
        OfficeDay.generate(&mut Rng::new(42))
    }

    #[test]
    fn one_day_of_5min_samples() {
        let d = day();
        assert_eq!(d.len(), 24 * 12);
        assert_eq!(d[0].at, SimTime::ZERO);
    }

    #[test]
    fn night_is_quiet_midday_is_busy() {
        let d = day();
        let at_hour = |h: usize| &d[h * 12];
        assert!(at_hour(3).clients < 1.0, "{:?}", at_hour(3));
        assert!(at_hour(11).clients > 20.0, "{:?}", at_hour(11));
        assert!(at_hour(22).clients < 1.0);
    }

    #[test]
    fn surge_shows_in_usage_and_utilization() {
        let d = day();
        let window_mean = |from_h: f64, to_h: f64, f: &dyn Fn(&DaySample) -> f64| {
            let xs: Vec<f64> = d
                .iter()
                .filter(|s| {
                    let h = s.at.as_nanos() as f64 / 3.6e12;
                    h >= from_h && h < to_h
                })
                .map(f)
                .collect();
            xs.iter().sum::<f64>() / xs.len() as f64
        };
        let surge_usage = window_mean(14.0, 14.5, &|s| s.usage_mbit);
        let before_usage = window_mean(13.0, 14.0, &|s| s.usage_mbit);
        assert!(
            surge_usage > 2.0 * before_usage,
            "{surge_usage} vs {before_usage}"
        );
        let surge_util = window_mean(14.0, 14.5, &|s| s.utilization);
        let before_util = window_mean(13.0, 14.0, &|s| s.utilization);
        assert!(surge_util > before_util);
        // Clients do NOT surge (the paper's point: usage moves faster
        // than association counts).
        let surge_clients = window_mean(14.0, 14.5, &|s| s.clients);
        let before_clients = window_mean(13.0, 14.0, &|s| s.clients);
        assert!((surge_clients / before_clients - 1.0).abs() < 0.25);
    }

    #[test]
    fn utilization_bounded() {
        for s in day() {
            assert!((0.0..=1.0).contains(&s.utilization));
            assert!(s.usage_mbit >= 0.0);
        }
    }

    #[test]
    fn lunch_dip_visible_in_clients() {
        let d = day();
        let mean_clients = |h: f64| {
            let xs: Vec<f64> = d
                .iter()
                .filter(|s| {
                    let hh = s.at.as_nanos() as f64 / 3.6e12;
                    hh >= h && hh < h + 1.0
                })
                .map(|s| s.clients)
                .collect();
            xs.iter().sum::<f64>() / xs.len() as f64
        };
        assert!(mean_clients(12.0) < mean_clients(11.0));
        assert!(mean_clients(12.0) < mean_clients(13.5));
    }
}
