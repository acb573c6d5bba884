//! Per-queue CSMA/CA backoff state.
//!
//! A `Backoff` tracks one (station, access-category) transmit queue's
//! contention state: the current retry count, the contention window, and
//! the residual backoff slots. The countdown-freeze semantics of DCF are
//! preserved: slots only elapse while the medium is idle past the queue's
//! own AIFS, and a queue that loses contention resumes from where it
//! froze instead of redrawing — this is what gives CSMA/CA its
//! long-term fairness.

use crate::ac::EdcaParams;
use sim::Rng;

/// Lifetime contention counters for one queue — plain integers the
/// driver exports into a `telemetry::metrics` registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackoffStats {
    /// Fresh backoff values drawn.
    pub draws: u64,
    /// Countdown freezes after losing contention (backoff stalls).
    pub stalls: u64,
    /// Transmission failures (collision or channel error) — the MAC
    /// retry counter, summed over all head-of-line frames.
    pub failures: u64,
    /// Frames dropped after retry exhaustion.
    pub drops: u64,
    /// Successful transmissions.
    pub successes: u64,
}

impl BackoffStats {
    /// Export the counters into a metrics registry under `prefix`
    /// (e.g. `mac.ap1.backoff`).
    pub fn export_metrics(&self, m: &mut telemetry::Registry, prefix: &str) {
        m.count(&format!("{prefix}.draws"), self.draws);
        m.count(&format!("{prefix}.stalls"), self.stalls);
        m.count(&format!("{prefix}.failures"), self.failures);
        m.count(&format!("{prefix}.drops"), self.drops);
        m.count(&format!("{prefix}.successes"), self.successes);
    }
}

/// Contention state for one transmit queue.
#[derive(Debug, Clone)]
pub struct Backoff {
    pub params: EdcaParams,
    /// Retries consumed for the head-of-line frame.
    pub retries: u32,
    /// Residual backoff slots; `None` means no draw is pending
    /// (fresh frame, must draw before contending).
    pub remaining_slots: Option<u32>,
    /// Lifetime counters (see [`BackoffStats`]).
    pub stats: BackoffStats,
}

impl Backoff {
    pub fn new(params: EdcaParams) -> Backoff {
        Backoff {
            params,
            retries: 0,
            remaining_slots: None,
            stats: BackoffStats::default(),
        }
    }

    /// Ensure a backoff value is drawn for the head-of-line frame.
    //= spec: dot11ac:dcf:uniform-draw
    pub fn ensure_drawn(&mut self, rng: &mut Rng) -> u32 {
        match self.remaining_slots {
            Some(s) => s,
            None => {
                let cw = self.params.cw_for_retry(self.retries);
                let s = rng.below(cw as u64 + 1) as u32;
                self.remaining_slots = Some(s);
                self.stats.draws += 1;
                s
            }
        }
    }

    /// Total slots this queue must see idle before transmitting:
    /// AIFSN + residual backoff. Caller must have called `ensure_drawn`.
    // Documented contract: callers run ensure_drawn first.
    #[allow(clippy::expect_used)]
    //= spec: dot11ac:dcf:aifs-precedence
    pub fn slots_to_tx(&self) -> u32 {
        self.params.aifsn
            + self
                .remaining_slots
                .expect("slots_to_tx before ensure_drawn")
    }

    /// The queue lost contention: `observed_idle_slots` idle slots
    /// elapsed before someone else's transmission began. Decrement the
    /// residual counter by however many of those slots this queue was
    /// actually counting down (those past its own AIFS).
    //= spec: dot11ac:dcf:freeze-resume
    pub fn freeze_after_loss(&mut self, observed_idle_slots: u32) {
        if let Some(rem) = self.remaining_slots.as_mut() {
            let counted = observed_idle_slots.saturating_sub(self.params.aifsn);
            *rem = rem.saturating_sub(counted);
            self.stats.stalls += 1;
        }
    }

    /// The queue transmitted successfully: reset CW and clear the draw.
    //= spec: dot11ac:dcf:cw-doubling
    pub fn on_success(&mut self) {
        self.retries = 0;
        self.remaining_slots = None;
        self.stats.successes += 1;
    }

    /// The transmission failed (collision or channel error). Doubles the
    /// CW and redraws on next contention. Returns `true` if the retry
    /// limit is exhausted and the frame must be dropped.
    pub fn on_failure(&mut self) -> bool {
        self.retries += 1;
        self.remaining_slots = None;
        self.stats.failures += 1;
        //= spec: dot11ac:dcf:retry-drop
        self.retries > self.params.retry_limit
    }

    /// Drop the head-of-line frame state (after retry exhaustion).
    pub fn on_drop(&mut self) {
        self.retries = 0;
        self.remaining_slots = None;
        self.stats.drops += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ac::AccessCategory;

    fn be() -> Backoff {
        Backoff::new(EdcaParams::for_ac(AccessCategory::BestEffort))
    }

    #[test]
    fn draw_is_within_cw() {
        //= spec: dot11ac:dcf:uniform-draw
        let mut rng = Rng::new(1);
        for _ in 0..1000 {
            let mut b = be();
            let s = b.ensure_drawn(&mut rng);
            assert!(s <= 15);
        }
    }

    #[test]
    fn draw_is_sticky_until_reset() {
        //= spec: dot11ac:dcf:uniform-draw
        let mut rng = Rng::new(2);
        let mut b = be();
        let s1 = b.ensure_drawn(&mut rng);
        let s2 = b.ensure_drawn(&mut rng);
        assert_eq!(s1, s2);
    }

    #[test]
    fn slots_to_tx_includes_aifsn() {
        //= spec: dot11ac:dcf:aifs-precedence
        let mut rng = Rng::new(3);
        let mut b = be();
        let s = b.ensure_drawn(&mut rng);
        assert_eq!(b.slots_to_tx(), 3 + s);
    }

    #[test]
    fn freeze_decrements_only_past_own_aifs() {
        //= spec: dot11ac:dcf:freeze-resume
        let mut b = be(); // aifsn = 3
        b.remaining_slots = Some(10);
        b.freeze_after_loss(8); // 8 idle slots: 3 were AIFS, 5 counted
        assert_eq!(b.remaining_slots, Some(5));
        b.freeze_after_loss(2); // shorter than AIFS: nothing counted
        assert_eq!(b.remaining_slots, Some(5));
        b.freeze_after_loss(100); // saturates at zero
        assert_eq!(b.remaining_slots, Some(0));
    }

    #[test]
    fn failure_grows_cw_until_drop() {
        //= spec: dot11ac:dcf:retry-drop
        let mut rng = Rng::new(4);
        let mut b = Backoff::new(EdcaParams::for_ac(AccessCategory::Voice)); // limit 4
        let mut dropped = false;
        for i in 1..=5 {
            dropped = b.on_failure();
            assert_eq!(b.retries, i);
            if i <= 4 {
                assert!(!dropped);
            }
            b.ensure_drawn(&mut rng);
            b.remaining_slots = None;
        }
        assert!(dropped, "5th failure exceeds VO retry limit of 4");
        b.on_drop();
        assert_eq!(b.retries, 0);
    }

    #[test]
    fn success_resets_cw() {
        //= spec: dot11ac:dcf:cw-doubling
        let mut rng = Rng::new(5);
        let mut b = be();
        b.on_failure();
        b.on_failure();
        assert_eq!(b.retries, 2);
        b.on_success();
        assert_eq!(b.retries, 0);
        assert_eq!(b.remaining_slots, None);
        // Fresh draw is from CWmin again.
        let s = b.ensure_drawn(&mut rng);
        assert!(s <= 15);
    }

    #[test]
    fn stats_count_contention_lifecycle() {
        let mut rng = Rng::new(7);
        let mut b = be();
        b.ensure_drawn(&mut rng);
        b.ensure_drawn(&mut rng); // sticky: no second draw
        b.freeze_after_loss(8);
        b.on_failure();
        b.ensure_drawn(&mut rng);
        b.on_success();
        b.on_drop();
        assert_eq!(b.stats.draws, 2);
        assert_eq!(b.stats.stalls, 1);
        assert_eq!(b.stats.failures, 1);
        assert_eq!(b.stats.successes, 1);
        assert_eq!(b.stats.drops, 1);
    }

    #[test]
    fn stats_export_onto_registry() {
        let mut rng = Rng::new(8);
        let mut b = be();
        b.ensure_drawn(&mut rng);
        b.on_success();
        let mut m = telemetry::Registry::new();
        b.stats.export_metrics(&mut m, "mac.ap0.backoff");
        assert_eq!(m.counter_value("mac.ap0.backoff.draws"), Some(1));
        assert_eq!(m.counter_value("mac.ap0.backoff.successes"), Some(1));
        assert_eq!(m.counter_value("mac.ap0.backoff.stalls"), Some(0));
    }

    #[test]
    fn mean_backoff_grows_with_retries() {
        let mut rng = Rng::new(6);
        let mean_at = |retries: u32, rng: &mut Rng| {
            let mut total = 0u64;
            for _ in 0..2000 {
                let mut b = be();
                b.retries = retries;
                total += b.ensure_drawn(rng) as u64;
            }
            total as f64 / 2000.0
        };
        let m0 = mean_at(0, &mut rng);
        let m3 = mean_at(3, &mut rng);
        assert!((m0 - 7.5).abs() < 0.6, "{m0}");
        assert!((m3 - 63.5).abs() < 4.0, "{m3}");
    }
}
