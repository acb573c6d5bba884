//! The shared collision domain: who contends this round, who wins, and
//! the one way airtime gets occupied.

use super::ap::ApDatapath;
use super::client::ClientStation;
use super::taps::{Seam, Taps};
use super::wired::Event;
use mac80211::backoff::Backoff;
use mac80211::contention::BatchResolver;
use sim::{EventQueue, IndexSet, Rng, SimDuration};
use telemetry::{AirKind, CauseId};

/// A station contending in one medium round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Who {
    Ap(usize),
    Client(usize),
}

/// How a contention round ended.
#[derive(Debug, PartialEq, Eq)]
pub(super) enum Contention {
    /// Nobody wanted the medium.
    Idle,
    /// Two or more backoffs expired together; every one of them has
    /// been charged a failure.
    Collision,
    /// A clean win.
    Won(Who),
}

#[derive(Default)]
pub(super) struct Medium {
    /// Contender scratch, reused round to round.
    who: Vec<Who>,
    /// In-place DCF round engine (no `Backoff` clone-out/put-back).
    resolver: BatchResolver,
    /// Total airtime held.
    pub(super) busy: SimDuration,
}

fn backoff_of<'a>(
    w: Who,
    aps: &'a mut [ApDatapath],
    clients: &'a mut [ClientStation],
) -> &'a mut Backoff {
    match w {
        Who::Ap(a) => &mut aps[a].backoff,
        Who::Client(c) => &mut clients[c].backoff,
    }
}

impl Medium {
    /// Occupy the air for `dur` from now — the only way it is done:
    /// stations defer (the clock jumps), utilization is charged, and the
    /// hold is put on the record as `kind`, joined to `cause`'s chain.
    #[inline]
    pub(super) fn hold(
        &mut self,
        kind: AirKind,
        dur: SimDuration,
        cause: CauseId,
        queue: &mut EventQueue<Event>,
        taps: &mut Taps,
    ) {
        self.busy += dur;
        queue.advance_to(queue.now() + dur);
        taps.on(queue.now(), Seam::Air { kind, dur, cause });
    }

    /// Run one EDCA contention round among the APs with any backlog and
    /// the `ready` clients (those with a released ACK, which the loop
    /// keeps — see `ClientTimers`), and jump the clock over the idle
    /// slots before the winning backoff expires.
    ///
    /// Contenders enter in `who` order — APs by index, then clients by
    /// index — and backoff draws consume RNG words in that order, so the
    /// order is part of the replay contract.
    pub(super) fn contend(
        &mut self,
        aps: &mut [ApDatapath],
        clients: &mut [ClientStation],
        ready: &IndexSet,
        rng: &mut Rng,
        queue: &mut EventQueue<Event>,
    ) -> Contention {
        let now = queue.now();
        self.who.clear();
        let aps_in = (0..aps.len()).filter(|&a| aps[a].queued() > 0);
        self.who.extend(aps_in.map(Who::Ap));
        self.who.extend(ready.iter().map(Who::Client));
        if self.who.is_empty() {
            return Contention::Idle;
        }
        self.resolver.begin();
        for &w in &self.who {
            self.resolver.enter(backoff_of(w, aps, clients), rng);
        }
        for (i, &w) in self.who.iter().enumerate() {
            self.resolver.settle(i, backoff_of(w, aps, clients));
        }
        queue.advance_to(now + self.resolver.idle_time());
        match *self.resolver.winners() {
            [only] => Contention::Won(self.who[only]),
            ref all => {
                // All colliding transmissions fail.
                for &i in all {
                    let _ = backoff_of(self.who[i], aps, clients).on_failure();
                }
                Contention::Collision
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{Testbed, TestbedConfig};
    use super::*;
    use mac80211::aggregation::QueuedMpdu;
    use sim::SimTime;

    /// Two APs; AP 1 backlogged; clients 0 and 2 with a released ACK,
    /// client 1 with one not yet released.
    fn scene() -> (Vec<ApDatapath>, Vec<ClientStation>) {
        let mut aps = Testbed::new(TestbedConfig {
            n_aps: 2,
            fastack: vec![true; 2],
            ..TestbedConfig::default()
        })
        .world
        .aps;
        aps[1].enqueue(0, false, QueuedMpdu { id: 1, bytes: 1500 }, SimTime::ZERO);
        let clients = [0, 50, 0].map(|rel| ClientStation::with_acks(&[rel]));
        (aps, clients.into())
    }

    /// The clients that want the air at `now`, as the loop keeps them.
    fn ready(clients: &[ClientStation], now: SimTime) -> IndexSet {
        let mut set = IndexSet::default();
        for c in (0..clients.len()).filter(|&c| clients[c].wants_air(now)) {
            set.insert(c);
        }
        set
    }

    fn failures(aps: &[ApDatapath], clients: &[ClientStation]) -> Vec<u64> {
        let aps = aps.iter().map(|a| a.backoff.stats.failures);
        aps.chain(clients.iter().map(|c| c.backoff.stats.failures))
            .collect()
    }

    #[test]
    fn contenders_enter_aps_first_then_clients_each_by_index() {
        let (mut aps, mut clients) = scene();
        let (mut medium, mut rng, mut queue) = (Medium::default(), Rng::new(7), EventQueue::new());
        queue.advance_to(SimTime::from_millis(1));
        let ready = ready(&clients, queue.now());
        let outcome = medium.contend(&mut aps, &mut clients, &ready, &mut rng, &mut queue);
        assert_eq!(medium.who, [Who::Ap(1), Who::Client(0), Who::Client(2)]);
        assert_ne!(outcome, Contention::Idle);
        assert!(queue.now() > SimTime::from_millis(1), "idle slots elapsed");
        // Exactly the contenders drew a backoff, nobody else.
        let draws = |b: &Backoff| b.stats.draws;
        assert_eq!(aps.iter().map(|a| draws(&a.backoff)).sum::<u64>(), 1);
        let drew: Vec<u64> = clients.iter().map(|c| draws(&c.backoff)).collect();
        assert_eq!(drew, [1, 0, 1]);
    }

    #[test]
    fn nobody_waiting_is_idle_and_leaves_clock_and_stations_alone() {
        let (mut aps, _) = scene();
        aps.truncate(1);
        let mut clients = vec![ClientStation::with_acks(&[50])];
        let (mut medium, mut rng, mut queue) = (Medium::default(), Rng::new(7), EventQueue::new());
        let ready = ready(&clients, queue.now());
        let outcome = medium.contend(&mut aps, &mut clients, &ready, &mut rng, &mut queue);
        assert_eq!(outcome, Contention::Idle);
        assert_eq!(queue.now(), SimTime::ZERO);
        assert_eq!(
            aps[0].backoff.stats.draws + clients[0].backoff.stats.draws,
            0
        );
    }

    #[test]
    fn a_collision_fails_every_winner_and_nobody_else() {
        let (mut aps, mut clients) = scene();
        // AP 1 and client 2 expire together; client 0 is still counting.
        aps[1].backoff.remaining_slots = Some(0);
        clients[2].backoff.remaining_slots = Some(0);
        clients[0].backoff.remaining_slots = Some(5);
        let (mut medium, mut rng, mut queue) = (Medium::default(), Rng::new(7), EventQueue::new());
        queue.advance_to(SimTime::from_millis(1));
        let ready = ready(&clients, queue.now());
        let outcome = medium.contend(&mut aps, &mut clients, &ready, &mut rng, &mut queue);
        assert_eq!(outcome, Contention::Collision);
        assert_eq!(failures(&aps, &clients), [0, 1, 0, 0, 1]);
        assert_eq!(
            clients[0].backoff.remaining_slots,
            Some(5),
            "frozen, not failed"
        );
        // With the AP alone at zero it is a clean win and nobody fails.
        aps[1].backoff.remaining_slots = Some(0);
        clients[2].backoff.remaining_slots = Some(3);
        let outcome = medium.contend(&mut aps, &mut clients, &ready, &mut rng, &mut queue);
        assert_eq!(outcome, Contention::Won(Who::Ap(1)));
        assert_eq!(failures(&aps, &clients), [0, 1, 0, 0, 1]);
    }
}
