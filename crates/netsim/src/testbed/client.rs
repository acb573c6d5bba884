//! One wireless client: the TCP receiver, the uplink queue its ACKs
//! wait in, and the client-side delays (processing, stall episodes)
//! that decide when the station contends — plus [`ClientTimers`], what
//! the run loop keeps about every client's deadlines instead of asking
//! each one every round.

use super::config::{ClientLink, TestbedConfig};
use mac80211::ac::{AccessCategory, EdcaParams};
use mac80211::backoff::Backoff;
use sim::{Deadlines, IndexSet, Rng, SimDuration, SimTime};
use std::collections::VecDeque;
use tcpsim::{AckSegment, DataSegment, FlowId, ReceiverConfig, TcpReceiver};
use telemetry::CauseId;

/// ACKs one uplink TXOP carries at most (they are tiny frames riding
/// one short A-MPDU).
const MAX_ACK_BURST: usize = 64;

/// Mean client-side delay before a generated TCP ACK is even eligible
/// for transmission ("many client devices take over 2 ms to even begin
/// transmitting TCP ACKs", §5.1), exponential.
const ACK_BASE_DELAY: SimDuration = SimDuration::from_millis(2);
/// Mean interval between stall episodes on a laggy client, seconds.
const STALL_INTERVAL_S: f64 = 1.5;
/// Stall episode duration range (uniform), ms.
const STALL_MS: (f64, f64) = (60.0, 280.0);

pub(super) struct ClientStation {
    pub(super) flow: FlowId,
    pub(super) link: ClientLink,
    recv: TcpReceiver,
    /// Pending ACK frames with their earliest-release times (client-side
    /// processing delay). FIFO, so a stalled or unreleased head holds
    /// everything behind it — exactly the head-of-line behaviour that
    /// trips the sender's RTO.
    acks: VecDeque<(SimTime, AckSegment)>,
    pub(super) backoff: Backoff,
    /// Bytes delivered to the client transport.
    pub(super) bytes: u64,
    /// Sum and count of the aggregate sizes this client was served.
    agg_frames: u64,
    agg_count: u64,
    /// Laggy-client stall state: uplink frozen until `stall_until`;
    /// next episode begins at `next_stall_at` (MAX = never, for normal
    /// clients).
    stall_until: SimTime,
    next_stall_at: SimTime,
}

impl ClientStation {
    /// Client `c` of the run, placed and (maybe) made laggy by `rng`:
    /// one normal draw, one chance, and for a laggy client one
    /// exponential, in that order.
    pub(super) fn new(cfg: &TestbedConfig, c: usize, rng: &mut Rng) -> ClientStation {
        // Spread client SNRs across the configured range; 3x3 MacBooks
        // per the paper, but NSS varies with position noise.
        let frac = if cfg.n_aps * cfg.clients_per_ap == 1 {
            0.0
        } else {
            (c % cfg.clients_per_ap) as f64 / (cfg.clients_per_ap - 1).max(1) as f64
        };
        let snr_db = cfg.base_snr_db - frac * cfg.snr_spread_db + rng.normal(0.0, 1.0);
        let next_stall_at = if rng.chance(cfg.laggy_client_fraction) {
            SimTime::ZERO + SimDuration::from_secs_f64(rng.exponential(STALL_INTERVAL_S))
        } else {
            SimTime::MAX
        };
        let flow = FlowId(c as u64 + 1);
        ClientStation {
            flow,
            link: ClientLink { snr_db, max_nss: 3 },
            recv: TcpReceiver::new(flow, ReceiverConfig::default()),
            acks: VecDeque::new(),
            backoff: Backoff::new(EdcaParams::for_ac(AccessCategory::BestEffort)),
            bytes: 0,
            agg_frames: 0,
            agg_count: 0,
            stall_until: SimTime::ZERO,
            next_stall_at,
        }
    }

    /// Begin a stall episode if one is due (laggy clients only).
    #[inline]
    pub(super) fn roll_stall(&mut self, now: SimTime, rng: &mut Rng) {
        if now >= self.next_stall_at {
            let (lo, hi) = STALL_MS;
            self.stall_until = now + SimDuration::from_secs_f64(rng.uniform(lo, hi) / 1e3);
            let gap = rng.exponential(STALL_INTERVAL_S).max(0.05);
            self.next_stall_at = self.stall_until + SimDuration::from_secs_f64(gap);
        }
    }

    /// Queue a generated ACK behind its client-side processing delay.
    #[inline]
    fn push_ack(&mut self, ack: AckSegment, now: SimTime, rng: &mut Rng) {
        let delay = rng.exponential(ACK_BASE_DELAY.as_secs_f64());
        self.acks
            .push_back((now + SimDuration::from_secs_f64(delay), ack));
    }

    /// A data segment reaches the transport. Returns the in-order bytes
    /// it released to the application.
    #[inline]
    pub(super) fn receive(&mut self, seg: &DataSegment, now: SimTime, rng: &mut Rng) -> u64 {
        let before = self.recv.delivered_bytes;
        if let Some(ack) = self.recv.on_data(seg, now) {
            self.push_ack(ack, now, rng);
        }
        let newly = self.recv.delivered_bytes - before;
        self.bytes += newly;
        newly
    }

    /// Fire the delayed-ACK timer if it is due.
    #[inline]
    pub(super) fn poll_delack(&mut self, now: SimTime, rng: &mut Rng) {
        if self.recv.delack_deadline().is_some_and(|dl| now >= dl) {
            if let Some(ack) = self.recv.on_delack_timeout(now) {
                self.push_ack(ack, now, rng);
            }
        }
    }

    /// The station contends only when its head-of-line ACK has cleared
    /// the processing delay and it is not inside a stall episode.
    #[inline]
    pub(super) fn wants_air(&self, now: SimTime) -> bool {
        self.stall_until <= now && self.acks.front().is_some_and(|(rel, _)| *rel <= now)
    }

    /// From when the station [wants the air](Self::wants_air), as things
    /// stand: its head ACK's release, or the end of the stall holding
    /// it. `None` with no ACK queued.
    #[inline]
    fn release(&self) -> Option<SimTime> {
        let head = self.acks.front();
        head.map(|(rel, _)| (*rel).max(self.stall_until))
    }

    /// When the next stall episode begins (`None`: never, not laggy).
    fn next_stall(&self) -> Option<SimTime> {
        (self.next_stall_at != SimTime::MAX).then_some(self.next_stall_at)
    }

    /// What one TXOP at `now` carries: how many queued ACKs (the released
    /// prefix of the queue, at most one burst) and the head ACK's causal
    /// id.
    pub(super) fn burst(&self, now: SimTime) -> (usize, CauseId) {
        let released = self.acks.iter().take_while(|(rel, _)| *rel <= now);
        let head = self.acks.front().map(|(_, ack)| ack.cause());
        (
            released.take(MAX_ACK_BURST).count(),
            head.unwrap_or(CauseId::NONE),
        )
    }

    pub(super) fn pop_ack(&mut self) -> Option<AckSegment> {
        self.acks.pop_front().map(|(_, ack)| ack)
    }

    pub(super) fn note_aggregate(&mut self, frames: usize) {
        self.agg_frames += frames as u64;
        self.agg_count += 1;
    }

    /// Mean achieved A-MPDU size (0 if never served).
    pub(super) fn mean_aggregate(&self) -> f64 {
        if self.agg_count == 0 {
            0.0
        } else {
            self.agg_frames as f64 / self.agg_count as f64
        }
    }
}

/// Every client's deadlines — its delayed-ACK timer, its next stall
/// episode and its release — kept as the stations change, so a round
/// visits only the clients that are due, in index order (their draws
/// follow one another), and the idle wake reads two minima.
pub(super) struct ClientTimers {
    delack: Deadlines,
    stall: Deadlines,
    release: Deadlines,
    /// Each client's release as last tracked: a change re-arms it.
    released_at: Vec<Option<SimTime>>,
    /// Clients past their release: this round's client contenders.
    pub(super) ready: IndexSet,
    due: IndexSet,
}

impl ClientTimers {
    pub(super) fn new(clients: &[ClientStation]) -> ClientTimers {
        let n = clients.len();
        let mut stall = Deadlines::new(n);
        for (c, st) in clients.iter().enumerate() {
            stall.set(c, st.next_stall());
        }
        ClientTimers {
            delack: Deadlines::new(n),
            stall,
            release: Deadlines::new(n),
            released_at: vec![None; n],
            ready: IndexSet::default(),
            due: IndexSet::default(),
        }
    }

    /// Client `c` took or sent an ACK: track its delayed-ACK timer and
    /// its release.
    #[inline]
    pub(super) fn update(&mut self, c: usize, st: &ClientStation) {
        self.delack.set(c, st.recv.delack_deadline());
        let release = st.release();
        if release != self.released_at[c] {
            self.released_at[c] = release;
            self.ready.remove(c);
            self.release.set(c, release);
        }
    }

    /// Fire every delayed-ACK timer that is due.
    pub(super) fn poll_delacks(
        &mut self,
        clients: &mut [ClientStation],
        now: SimTime,
        rng: &mut Rng,
    ) {
        self.delack.fire(now, &mut self.due);
        debug_assert!(
            clients
                .iter()
                .enumerate()
                .all(|(c, st)| self.due.contains(c)
                    == st.recv.delack_deadline().is_some_and(|dl| now >= dl)),
            "a delayed-ACK deadline moved without an update"
        );
        while let Some(c) = self.due.pop_first() {
            clients[c].poll_delack(now, rng);
            self.update(c, &clients[c]);
        }
    }

    /// Begin every stall episode that is due, then admit every client
    /// whose release has passed: `ready` is this round's contenders.
    pub(super) fn roll_stalls(
        &mut self,
        clients: &mut [ClientStation],
        now: SimTime,
        rng: &mut Rng,
    ) {
        self.stall.fire(now, &mut self.due);
        debug_assert!(
            clients
                .iter()
                .enumerate()
                .all(|(c, st)| self.due.contains(c) == st.next_stall().is_some_and(|at| now >= at)),
            "a stall episode moved without a re-set"
        );
        while let Some(c) = self.due.pop_first() {
            clients[c].roll_stall(now, rng);
            self.stall.set(c, clients[c].next_stall());
            self.update(c, &clients[c]);
        }
        self.release.fire(now, &mut self.ready);
        debug_assert!(
            clients
                .iter()
                .enumerate()
                .all(|(c, st)| self.ready.contains(c) == st.wants_air(now)),
            "a client's release moved without an update"
        );
    }

    /// The earliest instant a client needs the loop awake on its own
    /// account: a delayed-ACK timer, or a release. Read when no client
    /// is ready (an idle medium), so every release is still pending.
    pub(super) fn next_wake(&mut self) -> Option<SimTime> {
        match (self.delack.earliest(), self.release.earliest()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(t: u64) -> SimTime {
        SimTime::from_millis(t)
    }

    impl ClientStation {
        /// A never-laggy client with ACKs queued for release at `rels` (ms).
        pub(in crate::testbed) fn with_acks(rels: &[u64]) -> ClientStation {
            let cfg = TestbedConfig {
                laggy_client_fraction: 0.0,
                ..TestbedConfig::default()
            };
            let mut c = ClientStation::new(&cfg, 0, &mut Rng::new(1));
            for (i, &rel) in rels.iter().enumerate() {
                let ack = AckSegment::plain(c.flow, 1460 * (i as u64 + 1), 65_535);
                c.acks.push_back((ms(rel), ack));
            }
            c
        }
    }

    #[test]
    fn an_unreleased_or_stalled_head_holds_everything_behind_it() {
        // The second ACK was ready long ago; the head is not.
        let mut c = ClientStation::with_acks(&[10, 1]);
        assert!(!c.wants_air(ms(9)));
        assert_eq!(c.burst(ms(9)).0, 0);
        assert_eq!(c.release(), Some(ms(10)));
        // Boundary: released means `rel <= now`.
        assert!(c.wants_air(ms(10)));
        assert_eq!(c.burst(ms(10)), (2, c.acks[0].1.cause()));
        // A stall episode freezes the uplink though both are released,
        // and the station asks to be woken when it ends.
        c.stall_until = ms(30);
        assert!(!c.wants_air(ms(29)));
        assert_eq!(c.release(), Some(ms(30)));
        assert!(c.wants_air(ms(30)));
        // ACKs leave oldest first.
        assert_eq!(c.pop_ack().map(|a| a.ack), Some(1460));
        assert_eq!(c.burst(ms(30)).0, 1);
    }

    #[test]
    fn a_burst_carries_at_most_64_acks() {
        let c = ClientStation::with_acks(&[0; 100]);
        assert_eq!(c.burst(ms(1)).0, MAX_ACK_BURST);
        assert_eq!(
            ClientStation::with_acks(&[]).burst(ms(1)),
            (0, CauseId::NONE)
        );
    }
}
