//! A single-collision-domain EDCA simulator, one MPDU per TXOP.
//!
//! Couples [`Backoff`]/[`BatchResolver`] contention with a per-link
//! error probability: every queue sends the frame at its head, alone, at
//! one fixed rate (VHT MCS 8, 2 SS, 80 MHz, short GI). This is the model
//! behind the per-AC latency/loss figure (Fig. 4): the interval between
//! a frame entering the transmit queue and its link-layer
//! acknowledgment, including queuing, contention and retransmission —
//! exactly the paper's definition.

use crate::ac::{AccessCategory, EdcaParams};
use crate::backoff::Backoff;
use crate::contention::BatchResolver;
use phy80211::airtime::{block_ack_duration, AirtimeTable, SIFS};
use phy80211::channels::Width;
use phy80211::mcs::{GuardInterval, Mcs};
use sim::{Rng, SimDuration, SimTime};
use std::collections::VecDeque;

/// Identifies a transmit queue in the domain.
pub type QueueId = usize;

/// A frame waiting in a queue; the head one is the frame in the air.
#[derive(Debug, Clone, Copy)]
struct Pending {
    id: u64,
    bytes: usize,
    enqueued_at: SimTime,
}

/// Transmit parameters for one queue (one link).
#[derive(Debug, Clone, Copy)]
pub struct LinkParams {
    pub ac: AccessCategory,
    /// Probability that an individual MPDU is corrupted in flight.
    pub mpdu_error_rate: f64,
}

impl LinkParams {
    /// A link that corrupts nothing.
    pub fn clean(ac: AccessCategory) -> LinkParams {
        LinkParams {
            ac,
            mpdu_error_rate: 0.0,
        }
    }
}

/// A delivery report for one MPDU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Delivery {
    pub queue: QueueId,
    pub id: u64,
    /// Queue-entry → link-layer-ACK interval (the paper's 802.11 latency).
    pub latency: SimDuration,
    pub completed_at: SimTime,
}

/// A drop report (retry limit exhausted).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Drop {
    pub queue: QueueId,
    pub id: u64,
}

/// What happened during one step of the medium.
#[derive(Debug, Clone, Default)]
pub struct StepReport {
    pub deliveries: Vec<Delivery>,
    pub drops: Vec<Drop>,
}

struct Queue {
    error_rate: f64,
    backoff: Backoff,
    frames: VecDeque<Pending>,
}

/// The collision domain.
pub struct MediumSim {
    queues: Vec<Queue>,
    now: SimTime,
    rng: Rng,
    /// The one rate every queue sends at.
    airtime: AirtimeTable,
    /// Reused contention round state — no per-round allocation.
    round: BatchResolver,
}

impl MediumSim {
    pub fn new(seed: u64) -> MediumSim {
        // MCS 8 at 2 SS / 80 MHz is a VHT rate.
        #[allow(clippy::expect_used)]
        let airtime = AirtimeTable::new(Mcs(8), 2, Width::W80, GuardInterval::Short)
            .expect("MCS 8 at 2 SS / 80 MHz is a VHT rate");
        MediumSim {
            queues: Vec::new(),
            now: SimTime::ZERO,
            rng: Rng::new(seed),
            airtime,
            round: BatchResolver::new(),
        }
    }

    /// Register a queue (a station/AC pair). Returns its id.
    pub fn add_queue(&mut self, params: LinkParams) -> QueueId {
        self.queues.push(Queue {
            error_rate: params.mpdu_error_rate,
            backoff: Backoff::new(EdcaParams::for_ac(params.ac)),
            frames: VecDeque::new(),
        });
        self.queues.len() - 1
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advance the clock across an idle period (drivers with timed
    /// arrivals use this to jump to the next enqueue instant).
    pub fn advance_to(&mut self, to: SimTime) {
        debug_assert!(to >= self.now);
        self.now = self.now.max(to);
    }

    /// Enqueue a frame for transmission.
    pub fn enqueue(&mut self, queue: QueueId, id: u64, bytes: usize) {
        let enqueued_at = self.now;
        self.queues[queue].frames.push_back(Pending {
            id,
            bytes,
            enqueued_at,
        });
    }

    /// True when no queue has anything to send.
    pub fn idle(&self) -> bool {
        self.queues.iter().all(|q| q.frames.is_empty())
    }

    /// Run one contention round + transmission. Returns what happened,
    /// or `None` if the medium is idle.
    pub fn step(&mut self) -> Option<StepReport> {
        // Resolve contention among the backlogged queues in place, in
        // queue order: the batch engine draws and freezes through two
        // in-order passes, so no backoff state is cloned out.
        self.round.begin();
        for q in self.queues.iter_mut().filter(|q| !q.frames.is_empty()) {
            self.round.enter(&mut q.backoff, &mut self.rng);
        }
        if self.round.is_round_empty() {
            return None;
        }
        for (i, q) in self.queues.iter_mut().enumerate() {
            if !q.frames.is_empty() {
                self.round.settle(i, &mut q.backoff);
            }
        }
        self.now += self.round.idle_time();

        // Each winner sends its head frame. On collision every one fails;
        // either way the air is busy for the longest frame, then SIFS and
        // a compressed BlockAck.
        let winners = self.round.winners();
        let collision = winners.len() > 1;
        let ack = SIFS + block_ack_duration();
        let mut report = StepReport::default();
        let mut air = SimDuration::ZERO;
        for &w in winners {
            let q = &mut self.queues[w];
            let head = q.frames[0];
            let d = self
                .airtime
                .ppdu_duration(AirtimeTable::ampdu_mpdu_bytes(head.bytes));
            air = air.max(d);
            if !collision && !self.rng.chance(q.error_rate) {
                let completed_at = self.now + d + ack;
                report.deliveries.push(Delivery {
                    queue: w,
                    id: head.id,
                    latency: completed_at.saturating_since(head.enqueued_at),
                    completed_at,
                });
                q.frames.pop_front();
                q.backoff.on_success();
            } else if q.backoff.on_failure() {
                report.drops.push(Drop {
                    queue: w,
                    id: head.id,
                });
                q.frames.pop_front();
                q.backoff.on_drop();
            }
        }
        self.now += air + ack;
        Some(report)
    }

    /// Run until all queues drain or `deadline` passes.
    pub fn run_until_idle(&mut self, deadline: SimTime) -> Vec<StepReport> {
        let mut out = Vec::new();
        while self.now < deadline {
            match self.step() {
                Some(r) => out.push(r),
                None => break,
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_queue_delivers_everything() {
        let mut m = MediumSim::new(1);
        let q = m.add_queue(LinkParams::clean(AccessCategory::BestEffort));
        for i in 0..10 {
            m.enqueue(q, i, 1460);
        }
        let reports = m.run_until_idle(SimTime::from_secs(1));
        let delivered: usize = reports.iter().map(|r| r.deliveries.len()).sum();
        assert_eq!(delivered, 10);
        assert!(m.idle());
    }

    #[test]
    fn each_txop_sends_the_head_frame_alone() {
        let mut m = MediumSim::new(3);
        let q = m.add_queue(LinkParams::clean(AccessCategory::BestEffort));
        for i in 0..5 {
            m.enqueue(q, i, 1460);
        }
        for id in 0..5 {
            let r = m.step().unwrap();
            assert_eq!(r.deliveries.iter().map(|d| d.id).collect::<Vec<_>>(), [id]);
        }
        assert!(m.step().is_none());
    }

    #[test]
    fn lossy_link_retries_until_delivery() {
        let mut m = MediumSim::new(4);
        let mut p = LinkParams::clean(AccessCategory::BestEffort);
        p.mpdu_error_rate = 0.5;
        let q = m.add_queue(p);
        for i in 0..20 {
            m.enqueue(q, i, 1460);
        }
        let reports = m.run_until_idle(SimTime::from_secs(5));
        let delivered: usize = reports.iter().map(|r| r.deliveries.len()).sum();
        let dropped: usize = reports.iter().map(|r| r.drops.len()).sum();
        assert_eq!(delivered + dropped, 20);
        assert!(delivered >= 18, "50% PER with 7 retries rarely drops");
        // Retransmissions mean more steps than frames.
        assert!(reports.len() > 20);
    }

    #[test]
    fn hopeless_link_drops_by_retry_limit() {
        let mut m = MediumSim::new(5);
        let mut p = LinkParams::clean(AccessCategory::Voice);
        p.mpdu_error_rate = 1.0;
        let q = m.add_queue(p);
        m.enqueue(q, 0, 500);
        let reports = m.run_until_idle(SimTime::from_secs(5));
        let dropped: usize = reports.iter().map(|r| r.drops.len()).sum();
        assert_eq!(dropped, 1);
        assert!(m.idle());
    }

    #[test]
    fn contention_raises_latency() {
        let latency_with_n = |n: usize| {
            let mut m = MediumSim::new(42);
            let qs: Vec<QueueId> = (0..n)
                .map(|_| m.add_queue(LinkParams::clean(AccessCategory::BestEffort)))
                .collect();
            for (k, &q) in qs.iter().enumerate() {
                for i in 0..20 {
                    m.enqueue(q, (k * 100 + i) as u64, 1460);
                }
            }
            let reports = m.run_until_idle(SimTime::from_secs(10));
            let (sum, cnt) = reports
                .iter()
                .flat_map(|r| r.deliveries.iter())
                .fold((0.0, 0usize), |(s, c), d| {
                    (s + d.latency.as_secs_f64(), c + 1)
                });
            sum / cnt as f64
        };
        let l1 = latency_with_n(1);
        let l10 = latency_with_n(10);
        assert!(l10 > 3.0 * l1, "l1={l1} l10={l10}");
    }

    #[test]
    fn voice_latency_beats_background_under_load() {
        let mut m = MediumSim::new(7);
        let vo = m.add_queue(LinkParams::clean(AccessCategory::Voice));
        let bk = m.add_queue(LinkParams::clean(AccessCategory::Background));
        for i in 0..200 {
            m.enqueue(vo, i, 300);
            m.enqueue(bk, 1000 + i, 300);
        }
        let reports = m.run_until_idle(SimTime::from_secs(20));
        let mean = |qid: QueueId| {
            let (s, c) = reports
                .iter()
                .flat_map(|r| r.deliveries.iter())
                .filter(|d| d.queue == qid)
                .fold((0.0, 0usize), |(s, c), d| {
                    (s + d.latency.as_secs_f64(), c + 1)
                });
            s / c.max(1) as f64
        };
        assert!(mean(vo) < mean(bk), "vo={} bk={}", mean(vo), mean(bk));
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut m = MediumSim::new(99);
            let a = m.add_queue(LinkParams::clean(AccessCategory::BestEffort));
            let b = m.add_queue(LinkParams::clean(AccessCategory::Video));
            for i in 0..50 {
                m.enqueue(a, i, 1200);
                m.enqueue(b, 100 + i, 400);
            }
            let reports = m.run_until_idle(SimTime::from_secs(10));
            reports
                .iter()
                .flat_map(|r| r.deliveries.iter().map(|d| (d.queue, d.id, d.latency)))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
