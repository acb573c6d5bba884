//! # phy80211 — 802.11n/ac physical-layer model
//!
//! Everything below the MAC: US channelization and regulatory tables
//! ([`channels`]), HT/VHT MCS rate math ([`mcs`]), frame airtime
//! ([`airtime`]), indoor propagation / RSSI / SNR ([`propagation`]),
//! an SNR→PER waterfall ([`error_model`]) and bit-rate selection
//! ([`rate`]).
//!
//! This crate is pure math over the simulator's time types — it holds no
//! mutable world state, so the MAC and network layers can call it freely.
//!
//! ```
//! use phy80211::channels::{Band, Channel, Width};
//! use phy80211::mcs::{vht_rate_mbps, GuardInterval, Mcs};
//!
//! // The paper's "typical 802.11ac client": 2 streams, 80 MHz -> 867 Mbps.
//! let rate = vht_rate_mbps(Mcs(9), 2, Width::W80, GuardInterval::Short).unwrap();
//! assert!((rate - 866.7).abs() < 0.1);
//!
//! // An 80 MHz bond at channel 36 covers four 20 MHz sub-channels.
//! let ch = Channel::new(Band::Band5, 36, Width::W80).unwrap();
//! assert_eq!(ch.subchannels(), Some(&[36, 40, 44, 48][..]));
//! ```

pub mod airtime;
pub mod channels;
pub mod error_model;
pub mod mcs;
pub mod propagation;
pub mod rate;

pub use channels::{Band, Channel, ChannelError, Width};
pub use mcs::{GuardInterval, Mcs};
pub use propagation::{Point, Propagation, Radio};
pub use rate::{IdealSelector, RateChoice};
