//! One AP's datapath, the paper's Click chain (Figs. 11–12) in one
//! type: per-station bulk and head-of-line queues, the round-robin
//! scheduler, A-MPDU staging, the FastACK agent on the forwarding path,
//! and the one place its verdicts become enqueues and wire ACKs.

use super::config::TestbedConfig;
use super::taps::{Seam, Taps};
use super::wired::{Event, WIRED_LATENCY};
use super::world::WIDTH;
use fastack::{Action, Agent, AgentConfig};
use mac80211::ac::{AccessCategory, EdcaParams};
use mac80211::aggregation::{build_ampdu, AggLimits, Ampdu, QueuedMpdu};
use mac80211::backoff::Backoff;
use phy80211::mcs::GuardInterval;
use phy80211::rate::RateChoice;
use sim::{Deadlines, EventQueue, IndexSet, SimDuration, SimTime};
use std::collections::VecDeque;
use tcpsim::{DataSegment, FlowId};
use telemetry::CauseId;

/// IP + TCP (or UDP) header bytes riding on every MSDU.
pub(super) const HEADER_BYTES: usize = 40;

/// FastACK staging target per client, frames: the agent's queue-budget
/// backpressure keeps about this much buffered per client (the Click
/// pull stage refills the driver ring from here).
const AP_QUEUE_FRAMES: usize = 256;

/// A queued MSDU with its first-enqueue time (802.11-latency clock).
type Staged = (QueuedMpdu, SimTime);

/// How long a flow's client ACK point may trail its fast-ACK point
/// without moving before the poll re-serves the hole.
const REPAIR_AFTER: SimDuration = SimDuration::from_millis(8);

/// One station's bad-hint liveness watch, as of the poll that last
/// looked at its flow: the client ACK point, when it last moved (or a
/// repair was last forced), and whether it trailed the fast-ACK point.
#[derive(Clone, Copy, Default)]
struct Watch {
    tcp_pt: u64,
    at: SimTime,
    gap: bool,
}

/// The MSDU carrying `seg`. Its id is the segment's flight-recorder
/// cause — `flow << 48 | seq` — so an MPDU id *is* the [`CauseId`]
/// joining MAC delivery reports to their TCP segment, and the segment
/// length is recoverable from `bytes`.
fn data_mpdu(seg: &DataSegment) -> QueuedMpdu {
    QueuedMpdu {
        id: seg.cause().0,
        bytes: seg.len as usize + HEADER_BYTES,
    }
}

pub(super) struct ApDatapath {
    pub(super) agent: Agent,
    fastack: bool,
    /// Flow id of station slot 0 (slots are consecutive flows).
    first_flow: u64,
    /// Baseline-arm tail-drop depth per station.
    share: usize,
    /// Per-station downlink MSDU queues (front = oldest).
    bulk: Vec<VecDeque<Staged>>,
    /// Head-of-line stage per station: MAC retries, end-to-end and
    /// local retransmissions lead the next aggregate.
    hol: Vec<VecDeque<Staged>>,
    /// MPDUs held across `bulk` and `hol` — what the contender scan and
    /// the health sampler read (through `queued`) instead of walking
    /// every deque.
    backlog: usize,
    /// Round-robin pointer over stations.
    rr: usize,
    /// Per-station watch behind the bad-hint liveness repair
    /// (`Agent::force_repair`).
    repair_watch: Vec<Watch>,
    /// Stations whose flow's ACK points a hook may have moved since the
    /// last poll, and when each watch holding a gap has its repair due.
    touched: IndexSet,
    repairs: Deadlines,
    pub(super) backoff: Backoff,
    pub(super) bytes_delivered: u64,
    /// Reusable scratch: agent verdicts, the aggregate in the air (read
    /// by the TXOP body), and its `build_ampdu` input.
    acts: Vec<Action>,
    pub(super) staged: Vec<Staged>,
    raw: Vec<QueuedMpdu>,
}

impl ApDatapath {
    pub(super) fn new(cfg: &TestbedConfig, a: usize) -> ApDatapath {
        let nc = cfg.clients_per_ap;
        ApDatapath {
            agent: Agent::new(AgentConfig {
                enabled: cfg.fastack[a],
                queue_budget_bytes: Some(AP_QUEUE_FRAMES as u64 * 1460),
                cache_capacity_bytes: cfg
                    .agent_cache_bytes
                    .unwrap_or(AgentConfig::default().cache_capacity_bytes),
                ..AgentConfig::default()
            }),
            fastack: cfg.fastack[a],
            first_flow: (a * nc) as u64 + 1,
            share: cfg.station_share(),
            bulk: vec![VecDeque::new(); nc],
            hol: vec![VecDeque::new(); nc],
            backlog: 0,
            rr: 0,
            repair_watch: vec![Watch::default(); nc],
            touched: IndexSet::default(),
            repairs: Deadlines::new(nc),
            backoff: Backoff::new(EdcaParams::for_ac(AccessCategory::BestEffort)),
            bytes_delivered: 0,
            acts: Vec::new(),
            staged: Vec::new(),
            raw: Vec::new(),
        }
    }

    /// Queue an MSDU for station `slot`, behind the bulk traffic or in
    /// the head-of-line stage.
    #[inline]
    pub(super) fn enqueue(&mut self, slot: usize, priority: bool, mpdu: QueuedMpdu, at: SimTime) {
        let stage = if priority {
            &mut self.hol
        } else {
            &mut self.bulk
        };
        stage[slot].push_back((mpdu, at));
        self.backlog += 1;
    }

    /// MPDUs queued for any station.
    #[inline]
    pub(super) fn queued(&self) -> usize {
        debug_assert_eq!(
            self.backlog,
            self.bulk.iter().chain(&self.hol).map(VecDeque::len).sum(),
            "AP backlog count out of step with its queues"
        );
        self.backlog
    }

    // -- the FastACK hook ------------------------------------------------

    /// Run one agent hook for `flow` (`call` fills the verdict list) that
    /// may move the flow's ACK points — a MAC or client ACK — and apply
    /// its verdicts; the flow's watch is looked at next poll.
    pub(super) fn agent_hook(
        &mut self,
        flow: FlowId,
        now: SimTime,
        queue: &mut EventQueue<Event>,
        taps: &mut Taps,
        call: impl FnOnce(&mut Agent, &mut Vec<Action>),
    ) {
        let slot = (flow.0 - self.first_flow) as usize;
        self.touched.insert(slot);
        self.apply(slot, now, queue, taps, call);
    }

    /// A data segment reached the AP from the wire. Wire data moves a
    /// flow's queue and cache, never its ACK points, so the watch is
    /// looked at again only when the segment got the flow adopted.
    pub(super) fn on_wire_data(
        &mut self,
        seg: &DataSegment,
        now: SimTime,
        queue: &mut EventQueue<Event>,
        taps: &mut Taps,
    ) {
        let slot = (seg.flow.0 - self.first_flow) as usize;
        let flows = self.agent.flow_count();
        self.apply(slot, now, queue, taps, |agent, out| {
            agent.on_wire_data_into(seg, out)
        });
        if self.agent.flow_count() != flows {
            self.touched.insert(slot);
        }
    }

    /// Turn the verdicts `call` leaves for station `slot` into enqueues
    /// and ACKs on the wire — the only applier there is.
    fn apply(
        &mut self,
        slot: usize,
        now: SimTime,
        queue: &mut EventQueue<Event>,
        taps: &mut Taps,
        call: impl FnOnce(&mut Agent, &mut Vec<Action>),
    ) {
        let fastack = self.fastack;
        let mut acts = std::mem::take(&mut self.acts);
        acts.clear();
        call(&mut self.agent, &mut acts);
        // By reference: an `Action` is 88 bytes, and only its payload
        // moves on.
        for act in &acts {
            taps.on(now, Seam::Action { act, fastack });
            match *act {
                Action::Forward { seg, priority } => {
                    let depth = self.bulk[slot].len() + self.hol[slot].len();
                    if !fastack && !priority && !seg.retransmit && depth >= self.share {
                        // Baseline arm: hard tail drop at the driver
                        // queue; the endpoints recover end-to-end.
                        // Retransmissions bypass the cap (paced by loss
                        // recovery; dropping a repair would livelock).
                        continue;
                    }
                    let (flow, end) = (seg.flow, seg.end());
                    taps.on(now, Seam::Forwarded { flow, end });
                    self.enqueue(slot, priority, data_mpdu(&seg), now);
                }
                Action::LocalRetransmit(seg) => self.enqueue(slot, true, data_mpdu(&seg), now),
                Action::SendAckUpstream(ack) => {
                    queue.schedule(now + WIRED_LATENCY, Event::WireAck(ack));
                }
                Action::DropData(_) | Action::SuppressClientAck(_) => {}
            }
        }
        self.acts = acts;
    }

    /// Bad-hint liveness: a flow whose client ACK point trails the
    /// fast-ACK point and has not moved for a while needs its hole
    /// re-served from the cache (both the original and the local
    /// retransmission were lost between MAC and transport). The watch is
    /// stamped at the first poll after a change, so polling instants are
    /// part of the trajectory.
    ///
    /// A watch can go out of date only through a hook that marked its
    /// station `touched`, and a repair come due only at its deadline, so
    /// a poll looks at those stations alone, in index order; every other
    /// one would find its flow as it left it.
    pub(super) fn poll_repairs(
        &mut self,
        now: SimTime,
        queue: &mut EventQueue<Event>,
        taps: &mut Taps,
    ) {
        self.repairs.fire(now, &mut self.touched);
        while let Some(slot) = self.touched.pop_first() {
            self.watch(slot, now, queue, taps);
        }
        #[cfg(debug_assertions)]
        self.check_watches(now);
    }

    /// One station's poll: stamp a moved ACK point, or force a repair of
    /// a gap that has not moved for [`REPAIR_AFTER`]. A forced repair
    /// reads the flow's state and moves none of it.
    fn watch(&mut self, slot: usize, now: SimTime, queue: &mut EventQueue<Event>, taps: &mut Taps) {
        let flow = FlowId(self.first_flow + slot as u64);
        let Some(st) = self.agent.flow_state(flow) else {
            return;
        };
        let (gap, tcp_pt) = (st.seq_tcp < st.seq_fack, st.seq_tcp);
        let w = &mut self.repair_watch[slot];
        w.gap = gap;
        let repair = if tcp_pt != w.tcp_pt {
            (w.tcp_pt, w.at) = (tcp_pt, now);
            false
        } else if gap && now.saturating_since(w.at) > REPAIR_AFTER {
            w.at = now;
            true
        } else {
            false
        };
        // Due the first instant past `REPAIR_AFTER` since the stamp.
        let due = SimDuration::from_nanos(REPAIR_AFTER.as_nanos() + 1);
        self.repairs.set(slot, gap.then(|| w.at + due));
        if repair {
            self.apply(slot, now, queue, taps, |agent, out| {
                out.extend(agent.force_repair(flow))
            });
        }
    }

    /// What the poll did not look at would have found nothing to do:
    /// every watch matches its flow and no repair is left due.
    #[cfg(debug_assertions)]
    fn check_watches(&self, now: SimTime) {
        for (slot, w) in self.repair_watch.iter().enumerate() {
            let flow = FlowId(self.first_flow + slot as u64);
            if let Some(st) = self.agent.flow_state(flow) {
                let gap = st.seq_tcp < st.seq_fack;
                assert_eq!((st.seq_tcp, gap), (w.tcp_pt, w.gap), "stale watch");
                let due = gap && now.saturating_since(w.at) > REPAIR_AFTER;
                assert!(!due, "repair left due");
            }
        }
    }

    /// When a flow with a pending bad-hint gap should next be polled, for
    /// the idle wake (read right after a poll, so every watch is current).
    pub(super) fn repair_deadline(&self) -> Option<SimTime> {
        let gapped = self.repair_watch.iter().filter(|w| w.gap);
        gapped.map(|w| w.at + SimDuration::from_millis(31)).min()
    }

    // -- queues and aggregation -------------------------------------------

    /// Keep every station's bulk queue at [`AP_QUEUE_FRAMES`] datagrams
    /// (UDP mode).
    /// Datagram ids share the MPDU id space but are never reported to
    /// the agent (no TCP flow to accelerate).
    pub(super) fn top_up_udp(&mut self, now: SimTime, udp_seq: &mut u64) {
        for slot in 0..self.bulk.len() {
            while self.bulk[slot].len() < AP_QUEUE_FRAMES {
                let id = telemetry::cause_for(self.first_flow + slot as u64, *udp_seq * 1460).0;
                *udp_seq += 1;
                self.enqueue(slot, false, QueuedMpdu { id, bytes: 1500 }, now);
            }
        }
    }

    /// Pick the TXOP's destination: round-robin over stations with
    /// anything queued, resuming after the one served last.
    pub(super) fn next_slot(&mut self) -> Option<usize> {
        let nc = self.bulk.len();
        let slot = (0..nc)
            .map(|k| (self.rr + k) % nc)
            .find(|&s| !self.hol[s].is_empty() || !self.bulk[s].is_empty())?;
        self.rr = (slot + 1) % nc;
        Some(slot)
    }

    /// Assemble the largest legal aggregate for `slot` at `rate` on the
    /// radio's one `WIDTH`: head-of-line MPDUs first, then the bulk
    /// queue. The MPDUs that fly are left in `self.staged`; whatever did
    /// not fit goes back to the bulk queue's front in order, with its
    /// count, and the head-of-line stage is left empty. `None` (rate
    /// invalid — cannot happen with `IdealSelector`) restores everything
    /// that way.
    ///
    /// Only the first `max_frames` MPDUs can fly, so only they are
    /// staged: the rest of a deep queue is never copied out and back.
    pub(super) fn build(&mut self, slot: usize, rate: RateChoice) -> Option<Ampdu> {
        let limits = AggLimits::default();
        let (hol, bulk) = (&mut self.hol[slot], &mut self.bulk[slot]);
        self.staged.clear();
        self.staged
            .extend(hol.drain(..hol.len().min(limits.max_frames)));
        let room = limits.max_frames - self.staged.len();
        self.staged.extend(bulk.drain(..bulk.len().min(room)));
        // Head-of-line MPDUs past the window queue ahead of the bulk.
        while let Some(x) = hol.pop_back() {
            bulk.push_front(x);
        }
        self.raw.clear();
        self.raw.extend(self.staged.iter().map(|(m, _)| *m));
        let ampdu = build_ampdu(
            &mut self.raw,
            rate.mcs,
            rate.nss,
            WIDTH,
            GuardInterval::Short,
            limits,
        );
        let taken = ampdu.as_ref().map_or(0, Ampdu::size);
        self.backlog -= taken;
        for x in self.staged.drain(taken..).rev() {
            self.bulk[slot].push_front(x);
        }
        ampdu
    }

    /// Retry limit hit with the whole PPDU lost: drop `slot`'s pending
    /// retransmissions (rare at these SNRs; TCP recovers end-to-end).
    /// Dropped QoE probes are terminal, so each is reported lost.
    pub(super) fn drop_retries(&mut self, slot: usize, now: SimTime, taps: &mut Taps) {
        self.backlog -= self.hol[slot].len();
        for (m, _) in self.hol[slot].drain(..) {
            let cause = CauseId(m.id);
            if let Some(client) = qoe::probe_client(cause.flow_hint()) {
                let seq = cause.seq_hint();
                taps.on(now, Seam::ProbeLost { client, seq });
            }
        }
        self.backoff.on_drop();
    }
}

#[cfg(test)]
mod tests {
    use super::super::{Testbed, TestbedConfig};
    use super::*;
    use phy80211::rate::RateCache;

    /// One AP (its FastACK arm as given) with three stations, a 24-frame
    /// share each, probing on; the sinks and the wire that go with it.
    fn bed(fastack: bool) -> Testbed {
        Testbed::new(TestbedConfig {
            clients_per_ap: 3,
            fastack: vec![fastack],
            ap_buffer_pool_frames: 72,
            qoe: Some(qoe::ProbeConfig::default()),
            ..TestbedConfig::default()
        })
    }

    fn mpdu(id: u64) -> QueuedMpdu {
        QueuedMpdu { id, bytes: 1500 }
    }

    fn seg(seq: u64, retransmit: bool) -> DataSegment {
        let (flow, len) = (FlowId(1), 1460);
        DataSegment {
            flow,
            seq,
            len,
            retransmit,
        }
    }

    #[test]
    fn round_robin_resumes_after_the_served_slot() {
        let mut ap = bed(true).world.aps.remove(0);
        assert_eq!(ap.next_slot(), None, "nothing queued");
        for slot in [0, 0, 1, 2] {
            ap.enqueue(slot, false, mpdu(slot as u64), SimTime::ZERO);
        }
        // Slot 0 still has a frame after being served, yet 1 and 2 go
        // first; an empty slot is skipped, and the pointer wraps.
        assert_eq!(ap.next_slot(), Some(0));
        assert_eq!(ap.next_slot(), Some(1));
        ap.bulk[1].clear();
        ap.backlog -= 1;
        assert_eq!(ap.next_slot(), Some(2));
        assert_eq!(ap.next_slot(), Some(0));
        assert_eq!(ap.next_slot(), Some(2), "slot 1 is empty now");
    }

    #[test]
    fn head_of_line_flies_first_and_the_put_back_keeps_order_and_count() {
        let mut ap = bed(true).world.aps.remove(0);
        for id in 1..=100 {
            ap.enqueue(0, false, mpdu(id), SimTime::from_micros(id));
        }
        ap.enqueue(0, true, mpdu(201), SimTime::ZERO);
        ap.enqueue(0, true, mpdu(202), SimTime::ZERO);
        ap.enqueue(1, false, mpdu(300), SimTime::ZERO);
        let rate = RateCache::new(WIDTH).select(3, 38.0);
        let ampdu = ap.build(0, rate).expect("valid rate");
        let taken = ampdu.size();
        assert!((3..100).contains(&taken), "partial aggregate: {taken}");
        let flying: Vec<u64> = ap.staged.iter().map(|(m, _)| m.id).collect();
        let want: Vec<u64> = [201, 202].into_iter().chain(1..).take(taken).collect();
        assert_eq!(flying, want, "head-of-line stage first, then bulk in order");
        assert_eq!(ampdu.mpdus.len(), ap.staged.len());
        // The rest went back to the queue front, oldest first, with their
        // enqueue times; the count matches the queues (`queued` asserts).
        let left: Vec<u64> = ap.bulk[0].iter().map(|(m, _)| m.id).collect();
        assert_eq!(left, (taken as u64 - 1..=100).collect::<Vec<_>>());
        assert_eq!(ap.bulk[0][0].1, SimTime::from_micros(taken as u64 - 1));
        assert!(ap.hol[0].is_empty());
        assert_eq!(ap.queued(), 102 - taken + 1);
    }

    /// `build` as the spec states it: stage every queued MPDU, the
    /// head-of-line stage first, build, and put what did not fly back at
    /// the bulk queue's front.
    fn build_staging_everything(
        ap: &mut ApDatapath,
        slot: usize,
        rate: RateChoice,
    ) -> Option<Ampdu> {
        let hol = ap.hol[slot].drain(..);
        let mut staged: Vec<Staged> = hol.chain(ap.bulk[slot].drain(..)).collect();
        let mut raw: Vec<QueuedMpdu> = staged.iter().map(|(m, _)| *m).collect();
        let (gi, limits) = (GuardInterval::Short, AggLimits::default());
        let ampdu = build_ampdu(&mut raw, rate.mcs, rate.nss, WIDTH, gi, limits);
        let taken = ampdu.as_ref().map_or(0, Ampdu::size);
        ap.backlog -= taken;
        for x in staged.drain(taken..).rev() {
            ap.bulk[slot].push_front(x);
        }
        ap.staged = staged;
        ampdu
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Staging only the first window's worth of a queue flies the
        /// same aggregate and leaves every queue as staging all of it:
        /// queues shallower and deeper than the window, on either stage,
        /// MPDUs small enough for the frame cap and big enough for the
        /// duration cap to bind.
        #[test]
        fn staging_one_window_matches_staging_everything(
            hol in 0usize..150,
            bulk in 0usize..400,
            bytes in 60usize..8000,
            snr_db in 5.0f64..45.0,
            nss in 1u8..4,
        ) {
            let rate = RateCache::new(WIDTH).select(nss, snr_db);
            let [mut fast, mut naive] = [(), ()].map(|()| bed(true).world.aps.remove(0));
            for ap in [&mut fast, &mut naive] {
                for id in 0..(hol + bulk) as u64 {
                    let m = QueuedMpdu { id, bytes };
                    ap.enqueue(0, id < hol as u64, m, SimTime::from_micros(id));
                }
            }
            let got = fast.build(0, rate);
            proptest::prop_assert_eq!(got, build_staging_everything(&mut naive, 0, rate));
            proptest::prop_assert_eq!(&fast.staged, &naive.staged);
            proptest::prop_assert_eq!(&fast.hol[0], &naive.hol[0]);
            proptest::prop_assert_eq!(&fast.bulk[0], &naive.bulk[0]);
            proptest::prop_assert_eq!(fast.queued(), naive.queued());
        }
    }

    #[test]
    fn a_flow_adopted_mid_stream_is_watched_from_its_baseline() {
        // The flow's first segment was lost upstream: the agent adopts
        // it at the second, whose start becomes its ACK points.
        let Testbed {
            mut world,
            mut taps,
        } = bed(true);
        let (ap, queue) = (&mut world.aps[0], &mut world.queue);
        ap.on_wire_data(&seg(1460, false), SimTime::ZERO, queue, &mut taps);
        let now = SimTime::from_millis(1);
        ap.poll_repairs(now, queue, &mut taps);
        let w = ap.repair_watch[0];
        assert_eq!((w.tcp_pt, w.at, w.gap), (1460, now, false));
    }

    #[test]
    fn baseline_tail_drops_at_its_share_but_never_a_repair_and_fastack_never() {
        for (fastack, fits) in [(false, 24), (true, 30)] {
            let Testbed {
                mut world,
                mut taps,
            } = bed(fastack);
            let (ap, queue) = (&mut world.aps[0], &mut world.queue);
            let mut forward = |seg: DataSegment, priority: bool| {
                ap.agent_hook(seg.flow, SimTime::ZERO, queue, &mut taps, |_, out| {
                    out.push(Action::Forward { seg, priority })
                });
                ap.queued()
            };
            let queued = (0..30).map(|i| forward(seg(i * 1460, false), false));
            assert_eq!(queued.last(), Some(fits), "fastack arm: {fastack}");
            // An end-to-end retransmission and a priority forward both
            // bypass the cap on either arm.
            assert_eq!(forward(seg(0, true), false), fits + 1);
            assert_eq!(forward(seg(1460, false), true), fits + 2);
            assert_eq!(ap.hol[0].len(), 1, "priority takes the head-of-line stage");
        }
    }

    #[test]
    fn retry_limit_drop_empties_the_stage_and_reports_queued_probes_lost() {
        let Testbed {
            mut world,
            mut taps,
        } = bed(true);
        let ap = &mut world.aps[0];
        let now = SimTime::from_millis(5);
        for seq in 0..2 {
            taps.on(now, Seam::ProbeSent { client: 1, seq });
        }
        ap.enqueue(1, true, mpdu(seg(0, false).cause().0), now);
        ap.enqueue(
            1,
            true,
            mpdu(telemetry::cause_for(qoe::probe_flow(1), 1).0),
            now,
        );
        ap.enqueue(
            1,
            false,
            mpdu(telemetry::cause_for(qoe::probe_flow(1), 0).0),
            now,
        );
        ap.drop_retries(1, now, &mut taps);
        assert_eq!(
            (ap.hol[1].len(), ap.queued()),
            (0, 1),
            "bulk queue survives"
        );
        assert_eq!(ap.backoff.stats.drops, 1);
        let report = taps.finish(&world, now);
        let lost: Vec<u64> = report.qoe.iter().map(|c| c.lost).collect();
        assert_eq!(lost, [0, 1, 0], "only the dropped probe, only its client");
    }
}
