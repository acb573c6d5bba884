//! Contention resolution across queues sharing one collision domain.
//!
//! `resolve` is a pure function over a set of [`Backoff`] states: given
//! every queue that wants the medium, it determines which queue(s) win
//! the next transmit opportunity and how long the medium stays idle
//! before they start. Two or more queues reaching zero on the same slot
//! collide — both transmit, both fail (this is how CSMA/CA collisions
//! arise and what RTS/CTS shortens).
//!
//! Keeping this a pure function (rather than burying it in an event loop)
//! lets the EDCA unit tests, the fairness property tests, and the full
//! network simulator all share one verified implementation.

use crate::backoff::Backoff;
use phy80211::airtime::{SIFS, SLOT};
use sim::{Rng, SimDuration};

/// Outcome of one contention round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContentionOutcome {
    /// Indices (into the input slice) of queues that begin transmitting.
    /// Length 1 = clean win; length > 1 = collision.
    pub winners: Vec<usize>,
    /// Idle time elapsed from the start of the round until transmission
    /// begins: SIFS + (winning slot count) × slot.
    pub idle_time: SimDuration,
    /// The number of idle slots observed (used to freeze losers).
    pub idle_slots: u32,
}

/// Allocation-free batch contention engine.
///
/// `resolve` allocates a fresh winners vector per round; a saturated
/// simulation runs hundreds of thousands of rounds, so the network
/// testbed drives this reusable engine instead. One round is:
///
/// 1. [`begin`](BatchResolver::begin) — reset the round state;
/// 2. [`enter`](BatchResolver::enter) once per contending queue, *in a
///    fixed deterministic order* (backoff draws consume RNG words in
///    enter order, so the order is part of the replay contract);
/// 3. [`settle`](BatchResolver::settle) once per queue in the same
///    order — marks winners and freezes losers in one pass, batching
///    the idle-slot jump: the medium advances straight to the winning
///    backoff expiry, never slot by slot;
/// 4. [`idle_time`](BatchResolver::idle_time) /
///    [`winners`](BatchResolver::winners) to read the outcome.
///
/// The winners buffer is reused across rounds — steady-state contention
/// allocates nothing. `resolve` is a thin wrapper over this engine, so
/// the EDCA unit tests and fairness property tests exercise the same
/// implementation the hot loop runs.
#[derive(Debug, Default)]
pub struct BatchResolver {
    winners: Vec<usize>,
    min_slots: u32,
    entered: usize,
}

impl BatchResolver {
    pub fn new() -> BatchResolver {
        BatchResolver {
            winners: Vec::new(),
            min_slots: u32::MAX,
            entered: 0,
        }
    }

    /// Start a new round, clearing (but not deallocating) prior state.
    pub fn begin(&mut self) {
        self.winners.clear();
        self.min_slots = u32::MAX;
        self.entered = 0;
    }

    /// Admit one contending queue: draw its backoff if needed and fold
    /// its expiry into the round minimum.
    //= spec: dot11ac:dcf:uniform-draw
    pub fn enter(&mut self, q: &mut Backoff, rng: &mut Rng) {
        q.ensure_drawn(rng);
        self.min_slots = self.min_slots.min(q.slots_to_tx());
        self.entered += 1;
    }

    /// Second pass, same order as `enter`: queues whose expiry equals
    /// the round minimum win (residual counter consumed); everyone else
    /// freezes having observed `min_slots` idle slots. `idx` is the
    /// caller's index for the queue, echoed back through [`winners`].
    //= spec: dot11ac:dcf:freeze-resume
    pub fn settle(&mut self, idx: usize, q: &mut Backoff) {
        if q.slots_to_tx() == self.min_slots {
            q.remaining_slots = Some(0);
            self.winners.push(idx);
        } else {
            q.freeze_after_loss(self.min_slots);
        }
    }

    /// True if no queue entered this round.
    pub fn is_round_empty(&self) -> bool {
        self.entered == 0
    }

    /// Indices (as passed to `settle`) of the winning queues. Length 1 =
    /// clean win; >1 = collision.
    pub fn winners(&self) -> &[usize] {
        &self.winners
    }

    /// Idle slots observed before transmission begins.
    pub fn idle_slots(&self) -> u32 {
        self.min_slots
    }

    /// Idle time elapsed before transmission begins: SIFS + the *whole*
    /// winning backoff span in one jump (no per-slot stepping).
    pub fn idle_time(&self) -> SimDuration {
        SIFS + SimDuration::from_nanos(SLOT.as_nanos() * self.min_slots as u64)
    }
}

/// Resolve one round of EDCA contention among `queues`. Every entry must
/// represent a queue with a frame ready to send. Draws backoff values as
/// needed. Losers are frozen (their residual counters decremented) so a
/// subsequent round resumes correctly.
///
/// Returns `None` when `queues` is empty.
pub fn resolve(queues: &mut [&mut Backoff], rng: &mut Rng) -> Option<ContentionOutcome> {
    if queues.is_empty() {
        return None;
    }
    let mut round = BatchResolver::new();
    for q in queues.iter_mut() {
        round.enter(q, rng);
    }
    for (i, q) in queues.iter_mut().enumerate() {
        round.settle(i, q);
    }
    Some(ContentionOutcome {
        winners: round.winners().to_vec(),
        idle_time: round.idle_time(),
        idle_slots: round.idle_slots(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ac::{AccessCategory, EdcaParams};

    fn mk(ac: AccessCategory) -> Backoff {
        Backoff::new(EdcaParams::for_ac(ac))
    }

    #[test]
    fn empty_input_is_none() {
        let mut rng = Rng::new(1);
        assert!(resolve(&mut [], &mut rng).is_none());
    }

    #[test]
    fn single_queue_always_wins() {
        let mut rng = Rng::new(2);
        let mut q = mk(AccessCategory::BestEffort);
        let out = resolve(&mut [&mut q], &mut rng).unwrap();
        assert_eq!(out.winners, vec![0]);
        // Idle time: SIFS + (AIFSN + drawn) slots.
        assert!(out.idle_slots >= 3 && out.idle_slots <= 3 + 15);
    }

    #[test]
    fn deterministic_tie_collides() {
        let mut rng = Rng::new(3);
        let mut a = mk(AccessCategory::BestEffort);
        let mut b = mk(AccessCategory::BestEffort);
        a.remaining_slots = Some(4);
        b.remaining_slots = Some(4);
        let out = resolve(&mut [&mut a, &mut b], &mut rng).unwrap();
        assert_eq!(out.winners, vec![0, 1], "equal slots collide");
    }

    #[test]
    fn lower_slots_win_and_losers_freeze() {
        let mut rng = Rng::new(4);
        let mut a = mk(AccessCategory::BestEffort); // aifsn 3
        let mut b = mk(AccessCategory::BestEffort);
        a.remaining_slots = Some(2); // txs at slot 5
        b.remaining_slots = Some(9); // would tx at slot 12
        let out = resolve(&mut [&mut a, &mut b], &mut rng).unwrap();
        assert_eq!(out.winners, vec![0]);
        assert_eq!(out.idle_slots, 5);
        // b counted down 5 - 3 = 2 of its 9 slots.
        assert_eq!(b.remaining_slots, Some(7));
    }

    #[test]
    fn voice_beats_background_usually() {
        let mut rng = Rng::new(5);
        let mut vo_wins = 0;
        for _ in 0..1000 {
            let mut vo = mk(AccessCategory::Voice); // aifsn 2, cw 3
            let mut bk = mk(AccessCategory::Background); // aifsn 7, cw 15
            let out = resolve(&mut [&mut vo, &mut bk], &mut rng).unwrap();
            if out.winners == vec![0] {
                vo_wins += 1;
            }
        }
        assert!(vo_wins > 900, "VO won only {vo_wins}/1000");
    }

    #[test]
    fn idle_time_is_sifs_plus_slots() {
        let mut rng = Rng::new(6);
        let mut q = mk(AccessCategory::Voice);
        q.remaining_slots = Some(1);
        let out = resolve(&mut [&mut q], &mut rng).unwrap();
        // SIFS(16us) + (2 aifsn + 1) * 9us = 43us
        assert_eq!(out.idle_time.as_micros(), 43);
    }

    #[test]
    fn long_run_fairness_between_equal_queues() {
        // Two saturated BE queues should split wins ~50/50 thanks to
        // freeze-resume semantics.
        let mut rng = Rng::new(7);
        let mut a = mk(AccessCategory::BestEffort);
        let mut b = mk(AccessCategory::BestEffort);
        let mut wins = [0u32; 2];
        for _ in 0..10_000 {
            let out = resolve(&mut [&mut a, &mut b], &mut rng).unwrap();
            if out.winners.len() == 1 {
                wins[out.winners[0]] += 1;
                if out.winners[0] == 0 {
                    a.on_success();
                } else {
                    b.on_success();
                }
            } else {
                // Collision: both retry.
                a.on_failure();
                b.on_failure();
            }
        }
        let ratio = wins[0] as f64 / (wins[0] + wins[1]) as f64;
        assert!((ratio - 0.5).abs() < 0.03, "ratio = {ratio}");
    }

    #[test]
    fn batch_resolver_matches_resolve_across_reused_rounds() {
        // Two RNGs seeded identically: one side runs the allocating
        // `resolve`, the other drives a single reused BatchResolver.
        // Winners, idle spans and every queue's post-round state must
        // agree round after round — including the draw order.
        let mut rng_a = Rng::new(77);
        let mut rng_b = Rng::new(77);
        let mut qa: Vec<Backoff> = (0..5).map(|_| mk(AccessCategory::BestEffort)).collect();
        let mut qb: Vec<Backoff> = (0..5).map(|_| mk(AccessCategory::BestEffort)).collect();
        let mut round = BatchResolver::new();
        for _ in 0..500 {
            let out = {
                let mut refs: Vec<&mut Backoff> = qa.iter_mut().collect();
                resolve(&mut refs, &mut rng_a).unwrap()
            };
            round.begin();
            for q in qb.iter_mut() {
                round.enter(q, &mut rng_b);
            }
            for (i, q) in qb.iter_mut().enumerate() {
                round.settle(i, q);
            }
            assert!(!round.is_round_empty());
            assert_eq!(round.winners(), &out.winners[..]);
            assert_eq!(round.idle_slots(), out.idle_slots);
            assert_eq!(round.idle_time(), out.idle_time);
            for (a, b) in qa.iter().zip(&qb) {
                assert_eq!(a.remaining_slots, b.remaining_slots);
                assert_eq!(a.retries, b.retries);
                assert_eq!(a.stats, b.stats);
            }
            // Advance both sides identically: winners succeed on clean
            // rounds, everyone retries on collisions.
            if out.winners.len() == 1 {
                qa[out.winners[0]].on_success();
                qb[out.winners[0]].on_success();
            } else {
                for &w in &out.winners {
                    let _ = qa[w].on_failure();
                    let _ = qb[w].on_failure();
                }
            }
        }
    }

    #[test]
    fn empty_batch_round_reports_empty() {
        let mut round = BatchResolver::new();
        round.begin();
        assert!(round.is_round_empty());
        assert!(round.winners().is_empty());
    }

    #[test]
    fn collision_rate_grows_with_contenders() {
        let mut rng = Rng::new(8);
        let rate_for = |n: usize, rng: &mut Rng| {
            let mut collisions = 0;
            let rounds = 3000;
            for _ in 0..rounds {
                let mut queues: Vec<Backoff> =
                    (0..n).map(|_| mk(AccessCategory::BestEffort)).collect();
                let mut refs: Vec<&mut Backoff> = queues.iter_mut().collect();
                let out = resolve(&mut refs, rng).unwrap();
                if out.winners.len() > 1 {
                    collisions += 1;
                }
            }
            collisions as f64 / rounds as f64
        };
        let c2 = rate_for(2, &mut rng);
        let c10 = rate_for(10, &mut rng);
        assert!(c10 > c2 * 2.0, "c2={c2} c10={c10}");
    }
}
