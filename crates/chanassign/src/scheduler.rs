//! The TurboCA service loop (§4.4.4): run NBO tiers on their wall-clock
//! schedule — i=0 every 15 minutes, i=1→0 every 3 hours, i=2→1→0 daily —
//! applying a proposal only when it improves NetP, and tracking the
//! switch churn that the stability design is meant to contain.

use crate::metrics::net_p_ln;
use crate::model::{NetworkView, Plan};
use crate::turboca::{ScheduleTier, TurboCa};
use sim::{SimDuration, SimTime};

/// One scheduler decision.
#[derive(Debug, Clone)]
pub struct ScheduledRun {
    pub at: SimTime,
    pub tier: ScheduleTier,
    pub accepted: bool,
    pub switches: usize,
    pub net_p_ln: f64,
}

/// Drives [`TurboCa`] on the paper's cadence against a (possibly
/// changing) network view.
pub struct Scheduler {
    planner: TurboCa,
    next_fast: SimTime,
    next_medium: SimTime,
    next_slow: SimTime,
    /// Every accepted or rejected run, in order.
    pub history: Vec<ScheduledRun>,
    /// Switches over all of `history`, kept as [`Scheduler::tick`]
    /// appends: the fleet asks every epoch.
    switches: usize,
}

impl Scheduler {
    pub fn new(planner: TurboCa) -> Scheduler {
        Scheduler {
            planner,
            next_fast: SimTime::ZERO,
            next_medium: SimTime::ZERO,
            next_slow: SimTime::ZERO,
            history: Vec::new(),
            switches: 0,
        }
    }

    /// The next instant any tier is due.
    pub fn next_due(&self) -> SimTime {
        self.next_fast.min(self.next_medium).min(self.next_slow)
    }

    /// Which tier runs at `now`? The slowest due tier wins (its hop
    /// sequence subsumes the faster tiers' work).
    fn due_tier(&mut self, now: SimTime) -> Option<ScheduleTier> {
        if now >= self.next_slow {
            self.next_slow = now + ScheduleTier::Slow.period();
            self.next_medium = now + ScheduleTier::Medium.period();
            self.next_fast = now + ScheduleTier::Fast.period();
            Some(ScheduleTier::Slow)
        } else if now >= self.next_medium {
            self.next_medium = now + ScheduleTier::Medium.period();
            self.next_fast = now + ScheduleTier::Fast.period();
            Some(ScheduleTier::Medium)
        } else if now >= self.next_fast {
            self.next_fast = now + ScheduleTier::Fast.period();
            Some(ScheduleTier::Fast)
        } else {
            None
        }
    }

    /// Run whatever is due at `now` against `view`, mutating the view's
    /// current assignment when a proposal is accepted. Returns the run
    /// record, or `None` if nothing was due.
    pub fn tick(&mut self, now: SimTime, view: &mut NetworkView) -> Option<ScheduledRun> {
        let tier = self.due_tier(now)?;
        let result = self.planner.run(view, tier);
        let record = if result.improved {
            let switches = result.plan.switches_from_current(view);
            for (ap, ch) in view.aps.iter_mut().zip(result.plan.channels.iter()) {
                ap.current = *ch;
            }
            ScheduledRun {
                at: now,
                tier,
                accepted: true,
                switches,
                net_p_ln: result.net_p_ln,
            }
        } else {
            ScheduledRun {
                at: now,
                tier,
                accepted: false,
                switches: 0,
                net_p_ln: result.incumbent_net_p_ln,
            }
        };
        self.switches += record.switches;
        self.history.push(record.clone());
        Some(record)
    }

    /// Simulate `duration` of scheduler operation over a static view.
    pub fn run_for(&mut self, view: &mut NetworkView, duration: SimDuration) {
        let end = SimTime::ZERO + duration;
        loop {
            let due = self.next_due();
            if due >= end {
                break;
            }
            self.tick(due, view);
        }
    }

    /// Total channel switches applied so far.
    pub fn total_switches(&self) -> usize {
        self.switches
    }

    /// Current NetP of the view under management.
    pub fn current_net_p_ln(&self, view: &NetworkView) -> f64 {
        net_p_ln(&self.planner.params, view, &Plan::current(view))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ApLoad, ApReport};
    use phy80211::channels::{Band, Channel, Width};

    fn crowded(n: usize) -> NetworkView {
        NetworkView {
            band: Band::Band5,
            aps: (0..n)
                .map(|i| {
                    let mut a = ApReport::idle_on(Channel::five(36));
                    a.neighbors = (0..n).filter(|&j| j != i).collect();
                    a.has_clients = true;
                    a.load = ApLoad {
                        by_width: vec![(Width::W40, 1.0)],
                    };
                    a
                })
                .collect(),
        }
    }

    #[test]
    fn schedule_cadence_matches_paper() {
        let mut s = Scheduler::new(TurboCa::new(1));
        let mut view = crowded(4);
        s.run_for(&mut view, SimDuration::from_hours(24));
        // First instant runs the slow tier (everything due at t=0).
        assert_eq!(s.history[0].tier, ScheduleTier::Slow);
        // 15-minute cadence: ~4 runs/hour for a day, minus the tier
        // upgrades -> between 90 and 97 runs.
        assert!(
            (90..=97).contains(&s.history.len()),
            "{} runs",
            s.history.len()
        );
        let mediums = s
            .history
            .iter()
            .filter(|r| r.tier == ScheduleTier::Medium)
            .count();
        assert!((6..=8).contains(&mediums), "{mediums} medium-tier runs");
    }

    #[test]
    fn tiers_fire_at_exact_paper_cadence() {
        // i=0 every 15 min, i=1 every 3 h, i=2 daily — at exactly those
        // instants of SimTime, starting from the t=0 slow run.
        let mut s = Scheduler::new(TurboCa::new(7));
        let mut view = crowded(3);
        assert_eq!(s.next_due(), SimTime::ZERO);
        let first = s.tick(SimTime::ZERO, &mut view).expect("due at t=0");
        assert_eq!(first.tier, ScheduleTier::Slow);
        // Fast tier: due exactly 15 minutes later.
        let t15 = SimTime::ZERO + SimDuration::from_mins(15);
        assert_eq!(s.next_due(), t15);
        assert_eq!(s.tick(t15, &mut view).unwrap().tier, ScheduleTier::Fast);
        // Walk the fast ticks up to the 3-hour boundary: that tick is
        // the medium tier (i=1 then i=0), not another fast run.
        loop {
            let due = s.next_due();
            let rec = s.tick(due, &mut view).unwrap();
            if due == SimTime::ZERO + SimDuration::from_hours(3) {
                assert_eq!(rec.tier, ScheduleTier::Medium);
                break;
            }
            assert_eq!(rec.tier, ScheduleTier::Fast, "at {due:?}");
        }
        // And the 24-hour boundary runs the slow tier again.
        loop {
            let due = s.next_due();
            let rec = s.tick(due, &mut view).unwrap();
            if due == SimTime::ZERO + SimDuration::from_hours(24) {
                assert_eq!(rec.tier, ScheduleTier::Slow);
                break;
            }
            assert_ne!(rec.tier, ScheduleTier::Slow, "early slow run at {due:?}");
        }
    }

    #[test]
    fn missed_ticks_do_not_double_fire() {
        let mut s = Scheduler::new(TurboCa::new(8));
        let mut view = crowded(3);
        s.tick(SimTime::ZERO, &mut view).expect("slow run at t=0");
        // The controller goes quiet for 50 minutes (three fast periods
        // missed), then ticks once: exactly one fast run fires, and the
        // next due instant is 15 minutes after the *late* run, with no
        // backfill of the skipped 15/30/45-min slots.
        let late = SimTime::ZERO + SimDuration::from_mins(50);
        let rec = s.tick(late, &mut view).expect("one catch-up run");
        assert_eq!(rec.tier, ScheduleTier::Fast);
        assert_eq!(
            s.tick(late, &mut view).map(|r| r.tier),
            None,
            "no double fire"
        );
        assert_eq!(s.next_due(), late + SimDuration::from_mins(15));
        assert_eq!(s.history.len(), 2);
    }

    #[test]
    fn converges_then_stays_stable() {
        let mut s = Scheduler::new(TurboCa::new(2));
        let mut view = crowded(6);
        s.run_for(&mut view, SimDuration::from_hours(24));
        let applied: usize = s.history.iter().map(|r| r.switches).sum();
        assert_eq!(s.total_switches(), applied, "running total");
        // The first run untangles the co-channel mess...
        assert!(s.history[0].accepted);
        assert!(s.history[0].switches > 0);
        // ...and once settled, the stream of 15-minute runs stops
        // switching (stability: "avoid too many channel switches").
        let later: usize = s.history[8..].iter().map(|r| r.switches).sum();
        assert_eq!(later, 0, "steady state must not churn");
    }

    #[test]
    fn reacts_to_rf_changes_within_a_fast_tick() {
        let mut s = Scheduler::new(TurboCa::new(3));
        let mut view = crowded(4);
        s.run_for(&mut view, SimDuration::from_hours(2));
        let settled_netp = s.current_net_p_ln(&view);
        // A strong interferer appears on AP0's channel.
        let ch = view.aps[0].current.primary;
        for &sub in view.aps[0].current.subchannels().unwrap() {
            view.aps[0].external_busy.insert(sub, 0.9);
        }
        let degraded = s.current_net_p_ln(&view);
        assert!(degraded < settled_netp, "interferer hurts");
        // The next fast tick moves AP0 off the dirty channel.
        let before = view.aps[0].current;
        let due = s.next_due();
        let rec = s.tick(due, &mut view).expect("a run was due");
        assert!(rec.accepted, "plan must improve");
        assert_ne!(view.aps[0].current, before, "AP0 escaped {ch}");
        assert!(s.current_net_p_ln(&view) > degraded);
    }

    #[test]
    fn rejected_proposals_do_not_mutate_the_view() {
        let mut s = Scheduler::new(TurboCa::new(4));
        // Two isolated APs on clean disjoint channels: nothing to improve.
        let mut view = NetworkView {
            band: Band::Band5,
            aps: vec![
                ApReport::idle_on(Channel::five(36)),
                ApReport::idle_on(Channel::five(149)),
            ],
        };
        let before: Vec<_> = view.aps.iter().map(|a| a.current).collect();
        s.run_for(&mut view, SimDuration::from_hours(6));
        let after: Vec<_> = view.aps.iter().map(|a| a.current).collect();
        assert_eq!(before, after);
        assert!(s.history.len() > 20 && s.history.iter().all(|r| !r.accepted));
        assert_eq!(s.total_switches(), 0);
    }
}
