//! One AP's datapath, the paper's Click chain (Figs. 11–12) in one
//! type: per-station bulk and head-of-line queues, the round-robin
//! scheduler, A-MPDU staging, the FastACK agent on the forwarding path,
//! and the one place its verdicts become enqueues and wire ACKs.

use super::config::TestbedConfig;
use super::taps::{Seam, Taps};
use super::wired::{Event, WIRED_LATENCY};
use fastack::{Action, Agent, AgentConfig};
use mac80211::ac::{AccessCategory, EdcaParams};
use mac80211::aggregation::{build_ampdu, AggLimits, Ampdu, QueuedMpdu};
use mac80211::backoff::Backoff;
use phy80211::channels::Width;
use phy80211::mcs::GuardInterval;
use phy80211::rate::RateChoice;
use sim::{EventQueue, SimDuration, SimTime};
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
    /// Per-station (last client ACK point seen, when it last advanced):
    /// drives the bad-hint liveness repair (`Agent::force_repair`).
    repair_watch: Vec<(u64, SimTime)>,
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
            repair_watch: vec![(0, SimTime::ZERO); nc],
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

    /// Run one agent hook for `flow` (`call` fills the verdict list) and
    /// turn its verdicts into enqueues for the flow's station and ACKs
    /// on the wire — the only applier there is.
    pub(super) fn agent_hook(
        &mut self,
        flow: FlowId,
        now: SimTime,
        queue: &mut EventQueue<Event>,
        taps: &mut Taps,
        call: impl FnOnce(&mut Agent, &mut Vec<Action>),
    ) {
        let slot = (flow.0 - self.first_flow) as usize;
        let fastack = self.fastack;
        let mut acts = std::mem::take(&mut self.acts);
        acts.clear();
        call(&mut self.agent, &mut acts);
        for act in acts.drain(..) {
            taps.on(now, Seam::Action { act: &act, fastack });
            match act {
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
    pub(super) fn poll_repairs(
        &mut self,
        now: SimTime,
        queue: &mut EventQueue<Event>,
        taps: &mut Taps,
    ) {
        const REPAIR_AFTER: SimDuration = SimDuration::from_millis(8);
        for slot in 0..self.repair_watch.len() {
            let flow = FlowId(self.first_flow + slot as u64);
            let Some(st) = self.agent.flow_state(flow) else {
                continue;
            };
            let (gap, tcp_pt) = (st.seq_tcp < st.seq_fack, st.seq_tcp);
            let (last_pt, last_at) = self.repair_watch[slot];
            if tcp_pt != last_pt {
                self.repair_watch[slot] = (tcp_pt, now);
            } else if gap && now.saturating_since(last_at) > REPAIR_AFTER {
                self.repair_watch[slot].1 = now;
                self.agent_hook(flow, now, queue, taps, |agent, out| {
                    out.extend(agent.force_repair(flow))
                });
            }
        }
    }

    /// When a flow with a pending bad-hint gap should next be polled, for
    /// the idle wake.
    pub(super) fn repair_deadline(&self) -> Option<SimTime> {
        (0..self.repair_watch.len())
            .filter(|&slot| {
                self.agent
                    .flow_state(FlowId(self.first_flow + slot as u64))
                    .is_some_and(|st| st.seq_tcp < st.seq_fack)
            })
            .map(|slot| self.repair_watch[slot].1 + SimDuration::from_millis(31))
            .min()
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

    /// Assemble the largest legal aggregate for `slot` at `rate`:
    /// head-of-line MPDUs first, then the bulk queue. The MPDUs that fly
    /// are left in `self.staged`; whatever did not fit goes back to the
    /// queue front in order, with its count. `None` (rate invalid —
    /// cannot happen with `IdealSelector`) restores everything.
    pub(super) fn build(&mut self, slot: usize, rate: RateChoice, width: Width) -> Option<Ampdu> {
        self.staged.clear();
        self.staged.extend(self.hol[slot].drain(..));
        self.staged.extend(self.bulk[slot].drain(..));
        self.raw.clear();
        self.raw.extend(self.staged.iter().map(|(m, _)| *m));
        let ampdu = build_ampdu(
            &mut self.raw,
            rate.mcs,
            rate.nss,
            width,
            GuardInterval::Short,
            AggLimits::default(),
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
        let rate = RateCache::new(Width::W80).select(3, 38.0);
        let ampdu = ap.build(0, rate, Width::W80).expect("valid rate");
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
