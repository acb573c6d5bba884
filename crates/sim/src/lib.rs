//! # sim — deterministic discrete-event simulation kernel
//!
//! The foundation every other crate in this workspace builds on:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-nanosecond simulated time;
//! * [`EventQueue`] — a monotone, FIFO-stable-on-ties event queue, generic
//!   over the domain's event type: one run sorted by time, so a
//!   `now + constant` schedule appends in O(1) and an out-of-order one
//!   is an O(n) ordered insert;
//! * [`Deadlines`] / [`IndexSet`] — per-owner deadlines a polling loop
//!   keeps current, reporting the due owners in owner order;
//! * [`Rng`] — a self-contained xoshiro256\*\* generator with the
//!   distributions the workloads need (uniform, exponential, normal,
//!   Poisson, Zipf, weighted choice).
//!
//! Design rules (see DESIGN.md §4): no wall-clock access, no global
//! state, single-threaded, and one seed reproduces one run bit-for-bit.
//!
//! ```
//! use sim::{EventQueue, SimDuration, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping, Pong }
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::from_micros(10), Ev::Ping);
//! q.schedule(q.now() + SimDuration::from_micros(5), Ev::Pong);
//! assert_eq!(q.pop().unwrap().1, Ev::Pong); // 5us < 10us
//! assert_eq!(q.now(), SimTime::from_micros(5));
//! ```

// A panic mid-simulation loses the whole run: hot-path library code
// handles the case, or states its invariant at the site with
// `#[allow(clippy::expect_used)]`. Test code may panic (clippy.toml).
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod deadlines;
pub mod queue;
pub mod rng;
pub mod sanitize;
pub mod time;

pub use deadlines::{Deadlines, IndexSet};
pub use queue::{EventQueue, QueueStats};
pub use rng::{derive_stream_seed, Rng};
pub use time::{SimDuration, SimTime};
