//! End-to-end flow classification (§5.4 footnote 10): a mixed workload
//! of one elephant (bulk download) and many mice (short transfers)
//! through one FastACK agent configured to accelerate elephants only.
//! Both classes must complete with exact stream integrity; only the
//! elephant may consume agent state or receive fast ACKs.

use sim::{Rng, SimDuration, SimTime};
use wifi_core::fastack::{Action, Agent, AgentConfig, FlowPolicy};
use wifi_core::tcp::{DataSegment, FlowId, ReceiverConfig, SenderConfig, TcpReceiver, TcpSender};

struct Flow {
    sender: TcpSender,
    receiver: TcpReceiver,
    total: u64,
}

impl Flow {
    fn new(id: u64, total: u64) -> Flow {
        Flow {
            sender: TcpSender::new(
                FlowId(id),
                SenderConfig {
                    total_bytes: Some(total),
                },
            ),
            receiver: TcpReceiver::new(FlowId(id), ReceiverConfig::default()),
            total,
        }
    }

    fn done(&self) -> bool {
        self.receiver.delivered_bytes >= self.total
    }
}

/// Drive all flows through one agent until everyone completes.
fn run(agent: &mut Agent, flows: &mut [Flow], bad_hint: f64, seed: u64) {
    let mut rng = Rng::new(seed);
    let mut now = SimTime::ZERO;
    let mut queue: Vec<DataSegment> = Vec::new();
    for _ in 0..200_000 {
        now += SimDuration::from_micros(400);
        // Senders release.
        for f in flows.iter_mut() {
            for seg in f.sender.poll(now) {
                for act in agent.on_wire_data(&seg) {
                    if let Action::Forward { seg, .. } = act {
                        queue.push(seg);
                    }
                }
            }
        }
        // Radio delivers the queue.
        for seg in std::mem::take(&mut queue) {
            let fid = seg.flow.0 as usize - 1;
            for act in agent.on_mac_ack(seg.flow, seg.seq, seg.len) {
                if let Action::SendAckUpstream(a) = act {
                    for more in flows[fid].sender.on_ack(&a, now) {
                        for act2 in agent.on_wire_data(&more) {
                            if let Action::Forward { seg, .. } = act2 {
                                queue.push(seg);
                            }
                        }
                    }
                }
            }
            if rng.chance(bad_hint) {
                continue;
            }
            let maybe_ack = flows[fid].receiver.on_data(&seg, now);
            if let Some(ack) = maybe_ack {
                for act in agent.on_client_ack(&ack) {
                    match act {
                        Action::SendAckUpstream(a) => {
                            for more in flows[fid].sender.on_ack(&a, now) {
                                for act2 in agent.on_wire_data(&more) {
                                    if let Action::Forward { seg, .. } = act2 {
                                        queue.push(seg);
                                    }
                                }
                            }
                        }
                        Action::LocalRetransmit(seg) => queue.push(seg),
                        _ => {}
                    }
                }
            }
        }
        // Delack + RTO + repair timers.
        for f in flows.iter_mut() {
            if let Some(dl) = f.receiver.delack_deadline() {
                if now >= dl {
                    if let Some(ack) = f.receiver.on_delack_timeout(now) {
                        for act in agent.on_client_ack(&ack) {
                            match act {
                                Action::SendAckUpstream(a) => {
                                    for more in f.sender.on_ack(&a, now) {
                                        for act2 in agent.on_wire_data(&more) {
                                            if let Action::Forward { seg, .. } = act2 {
                                                queue.push(seg);
                                            }
                                        }
                                    }
                                }
                                Action::LocalRetransmit(seg) => queue.push(seg),
                                _ => {}
                            }
                        }
                    }
                }
            }
            if let Some(dl) = f.sender.rto_deadline() {
                if now >= dl {
                    for seg in f.sender.on_timeout(now) {
                        for act in agent.on_wire_data(&seg) {
                            if let Action::Forward { seg, .. } = act {
                                queue.push(seg);
                            }
                        }
                    }
                }
            }
        }
        if now.as_millis().is_multiple_of(20) {
            for f in flows.iter() {
                if let Some(Action::LocalRetransmit(seg)) = agent.force_repair(f.sender.flow) {
                    queue.push(seg);
                }
            }
        }
        if flows.iter().all(|f| f.done()) {
            return;
        }
    }
    let stuck: Vec<String> = flows
        .iter()
        .filter(|f| !f.done())
        .map(|f| {
            format!(
                "flow {} delivered {}/{} (sender acked {}, to={})",
                f.sender.flow.0,
                f.receiver.delivered_bytes,
                f.total,
                f.sender.acked_bytes(),
                f.sender.timeout_count,
            )
        })
        .collect();
    panic!("flows did not complete: {stuck:?}");
}

const MSS: u64 = 1460;

#[test]
fn elephants_accelerate_mice_pass_through() {
    let mut agent = Agent::new(AgentConfig {
        flow_policy: FlowPolicy::Elephants {
            threshold_bytes: 50 * MSS,
        },
        ..AgentConfig::default()
    });
    // Flow 1: elephant (1000 segments); flows 2..=9: mice (4 segments).
    let mut flows = vec![Flow::new(1, 1000 * MSS)];
    for id in 2..=9u64 {
        flows.push(Flow::new(id, 4 * MSS));
    }
    run(&mut agent, &mut flows, 0.0, 1);

    for f in &flows {
        assert_eq!(f.receiver.delivered_bytes, f.total, "stream integrity");
    }
    // Only the elephant holds agent state.
    assert_eq!(agent.flow_count(), 1);
    assert!(agent.flow_state(FlowId(1)).is_some());
    for id in 2..=9u64 {
        assert!(agent.flow_state(FlowId(id)).is_none(), "mouse {id} adopted");
    }
    assert!(agent.stats.fast_acks_sent > 500, "{:?}", agent.stats);
}

#[test]
fn all_policy_adopts_everything() {
    let mut agent = Agent::new(AgentConfig::default());
    let mut flows: Vec<Flow> = (1..=5u64).map(|id| Flow::new(id, 50 * MSS)).collect();
    run(&mut agent, &mut flows, 0.0, 2);
    assert_eq!(agent.flow_count(), 5);
    for f in &flows {
        assert_eq!(f.receiver.delivered_bytes, f.total);
    }
}

#[test]
fn mixed_workload_survives_bad_hints() {
    let mut agent = Agent::new(AgentConfig {
        flow_policy: FlowPolicy::Elephants {
            threshold_bytes: 50 * MSS,
        },
        ..AgentConfig::default()
    });
    let mut flows = vec![Flow::new(1, 600 * MSS)];
    for id in 2..=5u64 {
        flows.push(Flow::new(id, 6 * MSS));
    }
    run(&mut agent, &mut flows, 0.01, 3);
    for f in &flows {
        assert_eq!(f.receiver.delivered_bytes, f.total);
    }
    // Bad hints on the elephant were repaired locally; mice (pass-through)
    // recovered end-to-end via their own senders.
    assert!(agent.stats.local_retransmits > 0);
}
