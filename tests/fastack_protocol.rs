//! Protocol-level integration: TcpSender ↔ FastACK agent ↔ TcpReceiver
//! driven directly (no radio), with adversarial loss injected at every
//! stage. The invariant under test is the strongest one a TCP middlebox
//! must preserve: the receiver's application sees exactly the sender's
//! byte stream, in order, exactly once — no matter which packets the
//! hint channel lied about or which queues dropped.

mod common;

use common::check_goldens;
use sim::{Rng, SimDuration, SimTime};
use wifi_core::fastack::{Action, Agent, AgentConfig};
use wifi_core::tcp::{
    AckSegment, DataSegment, FlowId, ReceiverConfig, SenderConfig, TcpReceiver, TcpSender,
};
use wifi_core::telemetry::codec::Fnv1a;

/// One configurable lossy world tying the three parties together.
struct World {
    sender: TcpSender,
    agent: Agent,
    receiver: TcpReceiver,
    rng: Rng,
    now: SimTime,
    /// Downlink wireless queue at the AP (post-agent).
    ap_queue: Vec<DataSegment>,
    upstream_loss: f64,
    mac_loss: f64,
    bad_hint: f64,
    /// Every ACK the receiver and the agent emitted, in order.
    acks: Fnv1a,
}

impl World {
    fn new(seed: u64, total: u64, upstream_loss: f64, mac_loss: f64, bad_hint: f64) -> World {
        World {
            sender: TcpSender::new(
                FlowId(1),
                SenderConfig {
                    total_bytes: Some(total),
                },
            ),
            agent: Agent::new(AgentConfig::default()),
            receiver: TcpReceiver::new(FlowId(1), ReceiverConfig::default()),
            rng: Rng::new(seed),
            now: SimTime::ZERO,
            ap_queue: Vec::new(),
            upstream_loss,
            mac_loss,
            bad_hint,
            acks: Fnv1a::new(),
        }
    }

    /// Fold `(flow, ack, rwnd, sack…)` of one emitted ACK into `acks`.
    fn log(&mut self, a: &AckSegment) {
        let blocks = a.sack.iter().flat_map(|&(s, e)| [s, e]);
        for v in [a.flow.0, a.ack, a.rwnd, a.sack.len() as u64]
            .into_iter()
            .chain(blocks)
        {
            self.acks.write(&v.to_le_bytes());
        }
    }

    fn tick(&mut self) {
        self.now += SimDuration::from_micros(500);
    }

    /// Move one batch through the world.
    fn step(&mut self) -> bool {
        self.tick();
        // 1. Sender releases.
        let segs = self.sender.poll(self.now);
        self.wire(segs);
        // 2. AP transmits its queue over the "radio".
        let batch: Vec<DataSegment> = self.ap_queue.drain(..).collect();
        let mut acks_to_send: Vec<AckSegment> = Vec::new();
        for seg in batch {
            if self.rng.chance(self.mac_loss) {
                // MAC gave up: no 802.11 ACK, sender will RTO.
                continue;
            }
            let acts = self.agent.on_mac_ack(seg.flow, seg.seq, seg.len);
            let bad = self.rng.chance(self.bad_hint);
            self.run_upstream(acts);
            if bad {
                continue; // transport never sees it
            }
            if let Some(ack) = self.receiver.on_data(&seg, self.now) {
                self.log(&ack);
                acks_to_send.push(ack);
            }
        }
        // 3. Delayed-ack timer.
        if let Some(dl) = self.receiver.delack_deadline() {
            if self.now >= dl {
                if let Some(a) = self.receiver.on_delack_timeout(self.now) {
                    self.log(&a);
                    acks_to_send.push(a);
                }
            }
        }
        // 4. Client ACKs go through the agent.
        for ack in acks_to_send {
            let acts = self.agent.on_client_ack(&ack);
            self.run_upstream(acts);
        }
        // 5. Sender RTO.
        if let Some(dl) = self.sender.rto_deadline() {
            if self.now >= dl {
                let segs = self.sender.on_timeout(self.now);
                self.wire(segs);
            }
        }
        // 6. Liveness repair (the forwarding-plane timer).
        if self.now.as_millis().is_multiple_of(20) {
            if let Some(Action::LocalRetransmit(seg)) = self.agent.force_repair(FlowId(1)) {
                self.ap_queue.push(seg);
            }
        }
        !self.sender.finished()
    }

    fn wire(&mut self, segs: Vec<DataSegment>) {
        for seg in segs {
            if !seg.retransmit && self.rng.chance(self.upstream_loss) {
                continue; // dropped at the switch
            }
            for act in self.agent.on_wire_data(&seg) {
                match act {
                    Action::Forward { seg, .. } => self.ap_queue.push(seg),
                    Action::SendAckUpstream(a) => {
                        self.log(&a);
                        let more = self.sender.on_ack(&a, self.now);
                        self.wire_no_recurse(more);
                    }
                    Action::LocalRetransmit(seg) => self.ap_queue.push(seg),
                    Action::DropData(_) | Action::SuppressClientAck(_) => {}
                }
            }
        }
    }

    /// Depth-1 variant to avoid unbounded recursion on ack-triggered sends.
    fn wire_no_recurse(&mut self, segs: Vec<DataSegment>) {
        for seg in segs {
            if !seg.retransmit && self.rng.chance(self.upstream_loss) {
                continue;
            }
            for act in self.agent.on_wire_data(&seg) {
                match act {
                    Action::Forward { seg, .. } | Action::LocalRetransmit(seg) => {
                        self.ap_queue.push(seg)
                    }
                    Action::SendAckUpstream(a) => self.log(&a), // rare; next tick handles
                    _ => {}
                }
            }
        }
    }

    fn run_upstream(&mut self, acts: Vec<Action>) {
        for act in acts {
            match act {
                Action::SendAckUpstream(a) => {
                    self.log(&a);
                    let more = self.sender.on_ack(&a, self.now);
                    self.wire_no_recurse(more);
                }
                Action::LocalRetransmit(seg) => self.ap_queue.push(seg),
                _ => {}
            }
        }
    }

    /// Run until the *receiver's transport* has the whole stream (the
    /// sender being fully fast-ACKed is not enough: bad-hint repairs can
    /// still be in flight).
    fn run_to_completion(&mut self, total: u64, max_steps: usize) -> bool {
        for _ in 0..max_steps {
            self.step();
            if self.receiver.delivered_bytes >= total {
                return true;
            }
        }
        false
    }
}

const TOTAL: u64 = 400 * 1460;

#[test]
fn clean_transfer_completes_in_order() {
    let mut w = World::new(1, TOTAL, 0.0, 0.0, 0.0);
    assert!(w.run_to_completion(TOTAL, 1_000_000), "did not finish");
    assert_eq!(w.receiver.delivered_bytes, TOTAL);
    assert_eq!(w.receiver.rcv_nxt(), TOTAL);
    assert!(w.agent.stats.fast_acks_sent > 0);
    assert_eq!(w.agent.stats.local_retransmits, 0);
}

#[test]
fn transfer_survives_upstream_loss() {
    let mut w = World::new(2, TOTAL, 0.03, 0.0, 0.0);
    assert!(w.run_to_completion(TOTAL, 2_000_000), "did not finish");
    assert_eq!(w.receiver.delivered_bytes, TOTAL, "every byte exactly once");
    assert!(w.agent.stats.holes_detected > 0, "holes were seen");
    assert!(
        w.agent.stats.priority_forwards > 0,
        "repairs were prioritized"
    );
}

#[test]
fn transfer_survives_bad_hints() {
    let mut w = World::new(3, TOTAL, 0.0, 0.0, 0.02);
    assert!(w.run_to_completion(TOTAL, 2_000_000), "did not finish");
    assert_eq!(w.receiver.delivered_bytes, TOTAL);
    assert!(w.agent.stats.local_retransmits > 0, "cache served repairs");
}

#[test]
fn transfer_survives_mac_loss() {
    // No 802.11 ACK at all: the sender's own RTO is the designed
    // recovery path (§5.5.1 "timeout-based retransmissions").
    let mut w = World::new(4, TOTAL, 0.0, 0.01, 0.0);
    assert!(w.run_to_completion(TOTAL, 4_000_000), "did not finish");
    assert_eq!(w.receiver.delivered_bytes, TOTAL);
}

#[test]
fn transfer_survives_everything_at_once() {
    for seed in [5u64, 6, 7] {
        let mut w = World::new(seed, TOTAL, 0.02, 0.005, 0.02);
        assert!(
            w.run_to_completion(TOTAL, 6_000_000),
            "seed {seed} did not finish"
        );
        assert_eq!(
            w.receiver.delivered_bytes, TOTAL,
            "seed {seed}: stream corrupted"
        );
    }
}

/// The ACK stream on `lossy_recovery`'s loss mix (1 % upstream loss,
/// 5 % bad hints) plus rare MAC give-ups, over three seeded transfers:
/// the receiver's SACK blocks, the agent's emulated dupACKs over its
/// holes, fast ACKs, window updates and forwarded client ACKs, every
/// field in emission order. A change to how an ACK holds its SACK
/// blocks must leave it alone.
#[test]
fn lossy_ack_stream_matches_golden() {
    let total = 2_000 * 1460;
    let mut h = Fnv1a::new();
    for seed in [11u64, 12, 13] {
        let mut w = World::new(seed, total, 0.01, 0.002, 0.05);
        assert!(w.run_to_completion(total, 4_000_000), "seed {seed}");
        assert!(w.agent.stats.holes_detected > 0 && w.agent.stats.local_retransmits > 0);
        h.write(&w.acks.finish().to_le_bytes());
    }
    check_goldens("tcp", &[("tcp.acks.lossy".to_owned(), h.finish())]);
}

#[test]
fn roaming_mid_transfer_preserves_the_stream() {
    // A longer transfer so the roam happens mid-flight.
    let total = 20_000 * 1460;
    let mut w = World::new(8, total, 0.0, 0.0, 0.01);
    for _ in 0..40 {
        w.step();
    }
    assert!(!w.sender.finished(), "should still be mid-flight");
    // Roam: export from the "old AP" agent, import into a fresh one.
    let (state, cache) = w.agent.export_flow(FlowId(1)).expect("flow live");
    let mut fresh = Agent::new(AgentConfig::default());
    fresh.import_flow(FlowId(1), state, cache);
    w.agent = fresh;
    assert!(
        w.run_to_completion(total, 4_000_000),
        "did not finish after roam"
    );
    assert_eq!(w.receiver.delivered_bytes, total);
}
