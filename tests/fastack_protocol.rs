//! Protocol-level integration: TcpSender ↔ FastACK agent ↔ TcpReceiver
//! driven directly (no radio), with adversarial loss injected at every
//! stage. The invariant under test is the strongest one a TCP middlebox
//! must preserve: each receiver's application sees exactly its sender's
//! byte stream, in order, exactly once — no matter which packets the
//! hint channel lied about or which queues dropped. The same harness
//! runs mixed workloads through an agent that accelerates elephants
//! only (§5.4 footnote 10): every class completes, and only the
//! elephants hold agent state.

mod common;

use common::check_goldens;
use sim::{Rng, SimDuration, SimTime};
use wifi_core::fastack::{Action, Agent, AgentConfig, FlowPolicy};
use wifi_core::tcp::{
    AckSegment, DataSegment, FlowId, ReceiverConfig, SenderConfig, TcpReceiver, TcpSender,
};
use wifi_core::telemetry::codec::Fnv1a;

/// One TCP transfer of `total` bytes.
struct Flow {
    sender: TcpSender,
    receiver: TcpReceiver,
    total: u64,
}

impl Flow {
    fn done(&self) -> bool {
        self.receiver.delivered_bytes >= self.total
    }
}

/// One configurable lossy world tying the parties together: N flows
/// through one agent, routed by flow id (flow `i + 1` is `flows[i]`).
struct World {
    flows: Vec<Flow>,
    agent: Agent,
    rng: Rng,
    now: SimTime,
    /// Downlink wireless queue at the AP (post-agent).
    ap_queue: Vec<DataSegment>,
    upstream_loss: f64,
    mac_loss: f64,
    bad_hint: f64,
    /// Every ACK the receivers and the agent emitted, in order.
    acks: Fnv1a,
}

impl World {
    /// One flow through an agent that adopts every flow.
    fn new(seed: u64, total: u64, upstream_loss: f64, mac_loss: f64, bad_hint: f64) -> World {
        let cfg = AgentConfig::default();
        World::with_flows(seed, cfg, &[total], upstream_loss, mac_loss, bad_hint)
    }

    /// Flows `1..=totals.len()`, of `totals[i]` bytes each, through one
    /// agent built from `cfg`.
    fn with_flows(
        seed: u64,
        cfg: AgentConfig,
        totals: &[u64],
        upstream_loss: f64,
        mac_loss: f64,
        bad_hint: f64,
    ) -> World {
        let flows = (1..)
            .zip(totals)
            .map(|(id, &total)| Flow {
                sender: TcpSender::new(
                    FlowId(id),
                    SenderConfig {
                        total_bytes: Some(total),
                    },
                ),
                receiver: TcpReceiver::new(FlowId(id), ReceiverConfig::default()),
                total,
            })
            .collect();
        World {
            flows,
            agent: Agent::new(cfg),
            rng: Rng::new(seed),
            now: SimTime::ZERO,
            ap_queue: Vec::new(),
            upstream_loss,
            mac_loss,
            bad_hint,
            acks: Fnv1a::new(),
        }
    }

    fn flow(&mut self, id: FlowId) -> &mut Flow {
        &mut self.flows[id.0 as usize - 1]
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

    /// Move one batch through the world. Each stage visits the flows in
    /// id order.
    fn step(&mut self) {
        self.tick();
        let (n, now) = (self.flows.len(), self.now);
        // 1. Senders release.
        for i in 0..n {
            let segs = self.flows[i].sender.poll(now);
            self.wire(segs, false);
        }
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
            if let Some(ack) = self.flow(seg.flow).receiver.on_data(&seg, now) {
                self.log(&ack);
                acks_to_send.push(ack);
            }
        }
        // 3. Delayed-ack timers.
        for i in 0..n {
            let r = &mut self.flows[i].receiver;
            if r.delack_deadline().is_some_and(|dl| now >= dl) {
                if let Some(a) = r.on_delack_timeout(now) {
                    self.log(&a);
                    acks_to_send.push(a);
                }
            }
        }
        // 4. Client ACKs go through the agent, after the whole batch.
        for ack in acks_to_send {
            let acts = self.agent.on_client_ack(&ack);
            self.run_upstream(acts);
        }
        // 5. Sender RTOs.
        for i in 0..n {
            let s = &mut self.flows[i].sender;
            if s.rto_deadline().is_some_and(|dl| now >= dl) {
                let segs = s.on_timeout(now);
                self.wire(segs, false);
            }
        }
        // 6. Liveness repair (the forwarding-plane timer).
        if now.as_millis().is_multiple_of(20) {
            for id in 1..=n as u64 {
                if let Some(Action::LocalRetransmit(seg)) = self.agent.force_repair(FlowId(id)) {
                    self.ap_queue.push(seg);
                }
            }
        }
    }

    /// Ship `segs` from the senders over the lossy upstream wire into
    /// the agent. An ACK the agent answers with goes to its sender,
    /// whose reply ships once more (`nested`); an ACK the agent sends
    /// while that reply ships is logged and dropped, as if lost
    /// upstream. That bounds the recursion.
    fn wire(&mut self, segs: Vec<DataSegment>, nested: bool) {
        for seg in segs {
            if !seg.retransmit && self.rng.chance(self.upstream_loss) {
                continue; // dropped at the switch
            }
            for act in self.agent.on_wire_data(&seg) {
                match act {
                    Action::Forward { seg, .. } | Action::LocalRetransmit(seg) => {
                        self.ap_queue.push(seg)
                    }
                    Action::SendAckUpstream(a) if nested => self.log(&a), // dropped
                    Action::SendAckUpstream(a) => self.ack_upstream(a),
                    Action::DropData(_) | Action::SuppressClientAck(_) => {}
                }
            }
        }
    }

    /// Hand one agent ACK to its flow's sender and ship what it releases.
    fn ack_upstream(&mut self, a: AckSegment) {
        self.log(&a);
        let now = self.now;
        let more = self.flow(a.flow).sender.on_ack(&a, now);
        self.wire(more, true);
    }

    fn run_upstream(&mut self, acts: Vec<Action>) {
        for act in acts {
            match act {
                Action::SendAckUpstream(a) => self.ack_upstream(a),
                Action::LocalRetransmit(seg) => self.ap_queue.push(seg),
                _ => {}
            }
        }
    }

    /// Run until every *receiver's transport* has its whole stream (a
    /// sender being fully fast-ACKed is not enough: bad-hint repairs
    /// can still be in flight).
    fn run_to_completion(&mut self, max_steps: usize) -> bool {
        for _ in 0..max_steps {
            self.step();
            if self.flows.iter().all(Flow::done) {
                return true;
            }
        }
        false
    }
}

const MSS: u64 = 1460;
const TOTAL: u64 = 400 * MSS;

#[test]
fn clean_transfer_completes_in_order() {
    let mut w = World::new(1, TOTAL, 0.0, 0.0, 0.0);
    assert!(w.run_to_completion(1_000_000), "did not finish");
    assert_eq!(w.flows[0].receiver.delivered_bytes, TOTAL);
    assert_eq!(w.flows[0].receiver.rcv_nxt(), TOTAL);
    assert!(w.agent.stats.fast_acks_sent > 0);
    assert_eq!(w.agent.stats.local_retransmits, 0);
}

#[test]
fn transfer_survives_upstream_loss() {
    let mut w = World::new(2, TOTAL, 0.03, 0.0, 0.0);
    assert!(w.run_to_completion(2_000_000), "did not finish");
    assert_eq!(
        w.flows[0].receiver.delivered_bytes, TOTAL,
        "every byte exactly once"
    );
    assert!(w.agent.stats.holes_detected > 0, "holes were seen");
    assert!(
        w.agent.stats.priority_forwards > 0,
        "repairs were prioritized"
    );
}

#[test]
fn transfer_survives_bad_hints() {
    let mut w = World::new(3, TOTAL, 0.0, 0.0, 0.02);
    assert!(w.run_to_completion(2_000_000), "did not finish");
    assert_eq!(w.flows[0].receiver.delivered_bytes, TOTAL);
    assert!(w.agent.stats.local_retransmits > 0, "cache served repairs");
}

#[test]
fn transfer_survives_mac_loss() {
    // No 802.11 ACK at all: the sender's own RTO is the designed
    // recovery path (§5.5.1 "timeout-based retransmissions").
    let mut w = World::new(4, TOTAL, 0.0, 0.01, 0.0);
    assert!(w.run_to_completion(4_000_000), "did not finish");
    assert_eq!(w.flows[0].receiver.delivered_bytes, TOTAL);
}

#[test]
fn transfer_survives_everything_at_once() {
    for seed in [5u64, 6, 7] {
        let mut w = World::new(seed, TOTAL, 0.02, 0.005, 0.02);
        assert!(w.run_to_completion(6_000_000), "seed {seed} did not finish");
        assert_eq!(
            w.flows[0].receiver.delivered_bytes, TOTAL,
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
    let total = 2_000 * MSS;
    let mut h = Fnv1a::new();
    for seed in [11u64, 12, 13] {
        let mut w = World::new(seed, total, 0.01, 0.002, 0.05);
        assert!(w.run_to_completion(4_000_000), "seed {seed}");
        assert!(w.agent.stats.holes_detected > 0 && w.agent.stats.local_retransmits > 0);
        h.write(&w.acks.finish().to_le_bytes());
    }
    check_goldens("tcp", &[("tcp.acks.lossy".to_owned(), h.finish())]);
}

#[test]
fn roaming_mid_transfer_preserves_the_stream() {
    // A longer transfer so the roam happens mid-flight.
    let total = 20_000 * MSS;
    let mut w = World::new(8, total, 0.0, 0.0, 0.01);
    for _ in 0..40 {
        w.step();
    }
    assert!(!w.flows[0].sender.finished(), "should still be mid-flight");
    // Roam: export from the "old AP" agent, import into a fresh one.
    let (state, cache) = w.agent.export_flow(FlowId(1)).expect("flow live");
    let mut fresh = Agent::new(AgentConfig::default());
    fresh.import_flow(FlowId(1), state, cache);
    w.agent = fresh;
    assert!(w.run_to_completion(4_000_000), "did not finish after roam");
    assert_eq!(w.flows[0].receiver.delivered_bytes, total);
}

/// An agent that accelerates only flows past 50 segments.
fn elephants_only() -> AgentConfig {
    AgentConfig {
        flow_policy: FlowPolicy::Elephants {
            threshold_bytes: 50 * MSS,
        },
        ..AgentConfig::default()
    }
}

/// Flow 1 an elephant of `elephant` bytes, flows `2..=mice + 1` mice of
/// `mouse` bytes each.
fn elephant_and_mice(elephant: u64, mice: usize, mouse: u64) -> Vec<u64> {
    std::iter::once(elephant)
        .chain(std::iter::repeat_n(mouse, mice))
        .collect()
}

/// Every flow got its whole stream, exactly once.
fn assert_delivered(w: &World) {
    for f in &w.flows {
        let id = f.sender.flow.0;
        assert_eq!(f.receiver.delivered_bytes, f.total, "flow {id} integrity");
    }
}

/// Only flow 1, the elephant, holds agent state.
fn assert_only_the_elephant_adopted(w: &World) {
    assert_eq!(w.agent.flow_count(), 1);
    assert!(w.agent.flow_state(FlowId(1)).is_some());
    for id in 2..=w.flows.len() as u64 {
        assert!(
            w.agent.flow_state(FlowId(id)).is_none(),
            "mouse {id} adopted"
        );
    }
}

#[test]
fn elephants_accelerate_mice_pass_through() {
    // Flow 1: elephant (1000 segments); flows 2..=9: mice (4 segments).
    let totals = elephant_and_mice(1000 * MSS, 8, 4 * MSS);
    let mut w = World::with_flows(1, elephants_only(), &totals, 0.0, 0.0, 0.0);
    assert!(w.run_to_completion(200_000), "did not finish");
    assert_delivered(&w);
    assert_only_the_elephant_adopted(&w);
    assert!(w.agent.stats.fast_acks_sent > 500, "{:?}", w.agent.stats);
}

#[test]
fn all_policy_adopts_everything() {
    let totals = [50 * MSS; 5];
    let mut w = World::with_flows(2, AgentConfig::default(), &totals, 0.0, 0.0, 0.0);
    assert!(w.run_to_completion(200_000), "did not finish");
    assert_eq!(w.agent.flow_count(), 5);
    assert_delivered(&w);
}

#[test]
fn mixed_workload_survives_bad_hints() {
    let totals = elephant_and_mice(600 * MSS, 4, 6 * MSS);
    let mut w = World::with_flows(3, elephants_only(), &totals, 0.0, 0.0, 0.01);
    assert!(w.run_to_completion(200_000), "did not finish");
    assert_delivered(&w);
    // Bad hints on the elephant were repaired locally; mice (pass-through)
    // recovered end-to-end via their own senders.
    assert!(w.agent.stats.local_retransmits > 0);
}

/// `lossy_recovery`'s loss mix (1 % upstream loss, 5 % bad hints) on a
/// mixed workload: the elephant's upstream holes are served by the
/// agent, the mice's by their own senders, and no mouse is adopted on
/// the way.
#[test]
fn mixed_workload_survives_the_lossy_mix() {
    let totals = elephant_and_mice(600 * MSS, 4, 6 * MSS);
    let mut w = World::with_flows(4, elephants_only(), &totals, 0.01, 0.0, 0.05);
    assert!(w.run_to_completion(200_000), "did not finish");
    assert_delivered(&w);
    assert_only_the_elephant_adopted(&w);
    let s = &w.agent.stats;
    assert!(s.holes_detected > 0 && s.local_retransmits > 0, "{s:?}");
}
