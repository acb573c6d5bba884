//! The wired side: one bulk TCP sender per client behind the MGig
//! switch, the events that cross the wire, and the senders' RTO poll.

use super::config::TestbedConfig;
use sim::{Deadlines, EventQueue, IndexSet, Rng, SimDuration, SimTime};
use tcpsim::{AckSegment, DataSegment, FlowId, SenderConfig, TcpSender};

/// One-way latency sender ↔ AP across the switch, both directions.
pub(super) const WIRED_LATENCY: SimDuration = SimDuration::from_micros(200);

/// A whole-word tag, for the reason `fastack::Action` has one.
#[derive(Debug)]
#[repr(u64)]
pub(super) enum Event {
    /// Data segment reaches AP `.0` from the wired side.
    WireData(usize, DataSegment),
    /// ACK reaches the sender of its flow.
    WireAck(AckSegment),
}

pub(super) struct Wired {
    /// Sender `s` feeds client `s` (flow `s + 1`).
    pub(super) senders: Vec<TcpSender>,
    clients_per_ap: usize,
    /// Probability a segment is dropped at the switch.
    loss: f64,
    /// Reusable sender-output scratch for the ACK hot path.
    seg_buf: Vec<DataSegment>,
    /// Every sender's retransmission deadline, re-set after each call
    /// that can move it, and the senders whose deadline a poll found due.
    rto: Deadlines,
    due: IndexSet,
}

impl Wired {
    pub(super) fn new(cfg: &TestbedConfig) -> Wired {
        let sender_cfg = SenderConfig::default();
        let n = cfg.n_aps * cfg.clients_per_ap;
        Wired {
            senders: (1..=n as u64)
                .map(|flow| TcpSender::new(FlowId(flow), sender_cfg.clone()))
                .collect(),
            clients_per_ap: cfg.clients_per_ap,
            loss: cfg.upstream_loss,
            seg_buf: Vec::new(),
            rto: Deadlines::new(n),
            due: IndexSet::default(),
        }
    }

    /// Sender `s` was just called: track where its RTO deadline is now.
    #[inline]
    fn rearm(&mut self, s: usize) {
        self.rto.set(s, self.senders[s].rto_deadline());
    }

    /// Put sender `s`'s segments on the wire toward its client's AP: one
    /// loss draw each, survivors arrive a switch latency later.
    fn ship(
        &self,
        s: usize,
        segs: &[DataSegment],
        now: SimTime,
        rng: &mut Rng,
        queue: &mut EventQueue<Event>,
    ) {
        let ap = s / self.clients_per_ap;
        for &seg in segs {
            if !rng.chance(self.loss) {
                queue.schedule(now + WIRED_LATENCY, Event::WireData(ap, seg));
            }
        }
    }

    /// Start every flow.
    pub(super) fn kick(&mut self, rng: &mut Rng, queue: &mut EventQueue<Event>) {
        for s in 0..self.senders.len() {
            let segs = self.senders[s].poll(SimTime::ZERO);
            self.ship(s, &segs, SimTime::ZERO, rng, queue);
            self.rearm(s);
        }
    }

    /// An ACK reaches its sender; whatever the window now allows ships.
    pub(super) fn on_ack(
        &mut self,
        ack: &AckSegment,
        now: SimTime,
        rng: &mut Rng,
        queue: &mut EventQueue<Event>,
    ) {
        let s = (ack.flow.0 - 1) as usize;
        let mut more = std::mem::take(&mut self.seg_buf);
        more.clear();
        self.senders[s].on_ack_into(ack, now, &mut more);
        self.ship(s, &more, now, rng, queue);
        self.seg_buf = more;
        self.rearm(s);
    }

    /// Fire every retransmission timer that is due, senders in index
    /// order (each timeout's loss draws follow the one before).
    pub(super) fn poll_rto(&mut self, now: SimTime, rng: &mut Rng, queue: &mut EventQueue<Event>) {
        self.rto.fire(now, &mut self.due);
        debug_assert!(
            (0..self.senders.len()).all(|s| self.due.contains(s)
                == self.senders[s].rto_deadline().is_some_and(|dl| now >= dl)),
            "an RTO deadline moved without a rearm"
        );
        while let Some(s) = self.due.pop_first() {
            let segs = self.senders[s].on_timeout(now);
            self.ship(s, &segs, now, rng, queue);
            self.rearm(s);
        }
    }

    /// The earliest armed retransmission timer, for the idle wake.
    pub(super) fn next_rto(&mut self) -> Option<SimTime> {
        self.rto.earliest()
    }
}
