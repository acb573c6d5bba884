//! The one fixed-step clock behind everything the run loop does on a
//! period: beacons, interferer bursts, probe injection, health and
//! timeline ticks.

use sim::{SimDuration, SimTime};

/// Fires at `next`, then every `every` after it — always on the nominal
/// grid, never re-anchored to when the loop got round to it. `every`
/// must be non-zero (`TestbedConfig::validate`).
#[derive(Debug, Clone, Copy)]
pub(super) struct Cadence {
    next: SimTime,
    every: SimDuration,
}

impl Cadence {
    pub(super) fn new(first: SimTime, every: SimDuration) -> Cadence {
        Cadence { next: first, every }
    }

    /// The oldest instant at or before `now` that has not fired yet.
    /// The caller picks the policy: `if let` fires at most once per
    /// round however late the loop is (beacons, interferer bursts — the
    /// backlog is served one round at a time), `while let` catches up on
    /// every instant missed (probes, health and timeline ticks).
    #[inline]
    pub(super) fn fire(&mut self, now: SimTime) -> Option<SimTime> {
        (now >= self.next).then(|| {
            let at = self.next;
            self.next += self.every;
            at
        })
    }

    /// The next instant to fire (what the idle-wake fold reads).
    pub(super) fn next(&self) -> SimTime {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_shot_serves_the_backlog_one_round_at_a_time_catch_up_serves_it_all() {
        let ms = SimTime::from_millis;
        let mut c = Cadence::new(ms(10), SimDuration::from_millis(10));
        assert_eq!(c.fire(ms(9)), None, "not due yet");
        assert_eq!(c.next(), ms(10));
        // 35 ms in, three instants are overdue. One-shot use takes the
        // oldest and leaves the rest for later rounds ...
        assert_eq!(c.fire(ms(35)), Some(ms(10)));
        assert_eq!(c.next(), ms(20));
        // ... catch-up use drains them, each at its nominal instant.
        let mut seen = Vec::new();
        while let Some(at) = c.fire(ms(35)) {
            seen.push(at);
        }
        assert_eq!(seen, [ms(20), ms(30)]);
        assert_eq!(c.next(), ms(40));
        assert_eq!(c.fire(ms(40)), Some(ms(40)), "boundary: next <= now");
    }
}
