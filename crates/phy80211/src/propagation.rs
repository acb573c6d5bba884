//! Indoor radio propagation: log-distance path loss with log-normal
//! shadowing, RSSI, noise floor and SNR.
//!
//! The paper's evaluation environments are indoor enterprise floors
//! (office, campus, museum). The ITU indoor / log-distance model with a
//! path-loss exponent of ~3.5 and σ = 4 dB shadowing is the standard
//! abstraction for those spaces and is what drives (a) which APs are
//! "interferers" of one another (Fig. 3), (b) the RSSI distributions of
//! Fig. 7, and (c) the SNR → bit-rate mapping behind Figs. 5/9.

use crate::channels::{Band, Width};
use sim::Rng;

/// Position in meters on a floor plan. A flat 2-D plan is sufficient:
/// all the paper's deployments are per-floor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    pub x: f64,
    pub y: f64,
}

impl Point {
    pub const fn new(x: f64, y: f64) -> Point {
        Point { x, y }
    }

    /// Euclidean distance in meters.
    pub fn distance(&self, other: &Point) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// Propagation model parameters.
#[derive(Debug, Clone)]
pub struct Propagation {
    /// Reference path loss at 1 m, dB. ~46.4 dB at 5 GHz, ~40 dB at 2.4 GHz
    /// (free-space at 1 m: 20·log10(4πd f/c)).
    pub pl0_db: f64,
    /// Path loss exponent; 3.5 is typical for obstructed indoor office.
    pub exponent: f64,
    /// Log-normal shadowing standard deviation, dB.
    pub shadowing_sigma_db: f64,
}

impl Propagation {
    /// Default indoor model for a band.
    pub fn indoor(band: Band) -> Propagation {
        match band {
            Band::Band2_4 => Propagation {
                pl0_db: 40.0,
                exponent: 3.3,
                shadowing_sigma_db: 4.0,
            },
            Band::Band5 => Propagation {
                pl0_db: 46.4,
                exponent: 3.5,
                shadowing_sigma_db: 4.0,
            },
        }
    }

    /// Mean path loss in dB over `dist_m` meters (no shadowing).
    pub fn path_loss_db(&self, dist_m: f64) -> f64 {
        let d = dist_m.max(0.5); // avoid log of tiny distances
        self.pl0_db + 10.0 * self.exponent * (d).log10()
    }

    /// Sampled path loss including a shadowing draw.
    pub fn path_loss_shadowed_db(&self, dist_m: f64, rng: &mut Rng) -> f64 {
        self.path_loss_db(dist_m) + rng.shadowing_db(self.shadowing_sigma_db)
    }
}

/// Thermal noise floor in dBm for a given channel width:
/// −174 dBm/Hz + 10·log10(BW) + NF (7 dB receiver noise figure).
pub fn noise_floor_dbm(width: Width) -> f64 {
    -174.0 + 10.0 * (width.mhz() as f64 * 1e6).log10() + 7.0
}

/// A transmitter's RF parameters.
#[derive(Debug, Clone, Copy)]
pub struct Radio {
    /// Transmit power in dBm (per chain aggregate). Enterprise APs
    /// typically run 17–23 dBm; clients 12–17 dBm.
    pub tx_power_dbm: f64,
    /// Combined antenna gains (tx + rx), dB.
    pub antenna_gain_db: f64,
}

impl Radio {
    pub const AP_DEFAULT: Radio = Radio {
        tx_power_dbm: 20.0,
        antenna_gain_db: 4.0,
    };

    /// Received signal strength (dBm) over a link with the given path loss.
    pub fn rssi_dbm(&self, path_loss_db: f64) -> f64 {
        self.tx_power_dbm + self.antenna_gain_db - path_loss_db
    }
}

/// SNR in dB of a received signal.
pub fn snr_db(rssi_dbm: f64, width: Width) -> f64 {
    rssi_dbm - noise_floor_dbm(width)
}

/// Carrier-sense threshold: energy above this is "medium busy" (dBm).
pub const CCA_THRESHOLD_DBM: f64 = -82.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_works() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn path_loss_monotone_in_distance() {
        let p = Propagation::indoor(Band::Band5);
        assert!(p.path_loss_db(10.0) > p.path_loss_db(5.0));
        assert!(p.path_loss_db(50.0) > p.path_loss_db(10.0));
    }

    #[test]
    fn path_loss_at_reference_distance() {
        let p = Propagation::indoor(Band::Band5);
        assert!((p.path_loss_db(1.0) - 46.4).abs() < 1e-9);
        // 10m: 46.4 + 35 = 81.4 dB
        assert!((p.path_loss_db(10.0) - 81.4).abs() < 1e-9);
    }

    #[test]
    fn five_ghz_attenuates_more_than_two4() {
        let p5 = Propagation::indoor(Band::Band5);
        let p24 = Propagation::indoor(Band::Band2_4);
        assert!(p5.path_loss_db(20.0) > p24.path_loss_db(20.0));
    }

    #[test]
    fn noise_floor_scales_with_width() {
        let n20 = noise_floor_dbm(Width::W20);
        let n80 = noise_floor_dbm(Width::W80);
        assert!((n20 - (-93.97)).abs() < 0.05, "{n20}");
        assert!((n80 - n20 - 6.02).abs() < 0.01);
    }

    #[test]
    fn typical_office_link_budget() {
        // AP at 20dBm+4dB over 15m indoor 5GHz: RSSI ≈ -63.6 dBm,
        // SNR ≈ 30 dB at 20MHz — comfortably MCS9 territory, matching
        // the paper's observation that most 5GHz rates are 256–512 Mbps.
        let p = Propagation::indoor(Band::Band5);
        let pl = p.path_loss_db(15.0);
        let rssi = Radio::AP_DEFAULT.rssi_dbm(pl);
        assert!((-70.0..=-55.0).contains(&rssi), "{rssi}");
        let snr = snr_db(rssi, Width::W20);
        assert!(snr > 25.0, "{snr}");
    }

    #[test]
    fn shadowing_has_zero_mean() {
        let p = Propagation::indoor(Band::Band5);
        let mut rng = Rng::new(1);
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|_| p.path_loss_shadowed_db(10.0, &mut rng) - p.path_loss_db(10.0))
            .sum::<f64>()
            / n as f64;
        assert!(mean.abs() < 0.1, "{mean}");
    }

    #[test]
    fn tiny_distances_are_clamped() {
        let p = Propagation::indoor(Band::Band5);
        assert!(p.path_loss_db(0.0).is_finite());
        assert_eq!(p.path_loss_db(0.0), p.path_loss_db(0.5));
    }
}
