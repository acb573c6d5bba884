//! Ablation — rx'_win clamping (§5.5.2). FastACK advertises
//! rx_win − out_bytes so the sender can never overrun the client's real
//! buffer. With the clamp removed (advertise the raw rx_win), the sender
//! floods far beyond what the client acknowledged, and the receiver's
//! buffer overflows exactly as the paper warns.

use bench::harness::{f, Experiment};
use wifi_core::fastack::{Action, Agent, AgentConfig};
use wifi_core::prelude::*;
use wifi_core::tcp::DataSegment;

fn main() {
    let mut exp = Experiment::from_args("abl_rxwin", "rx'_win clamping on/off");
    // Agent-level: feed N segments without any client ACK progress and
    // inspect the advertised windows in the fast ACKs.
    let mut agent = Agent::new(AgentConfig {
        initial_client_rwnd: 64 * 1460,
        ..AgentConfig::default()
    });
    // The `--perf` workload unit is one segment pushed through the
    // agent.
    let (advertised, _) = exp.timed(
        "abl_rxwin_segments",
        || {
            let mut advertised = Vec::new();
            for i in 0..96u64 {
                let seg = DataSegment {
                    flow: FlowId(1),
                    seq: i * 1460,
                    len: 1460,
                    retransmit: false,
                };
                agent.on_wire_data(&seg);
                for act in agent.on_mac_ack(FlowId(1), i * 1460, 1460) {
                    if let Action::SendAckUpstream(a) = act {
                        advertised.push(a.rwnd);
                    }
                }
            }
            advertised
        },
        |_| 96,
    );
    let min_adv = *advertised.iter().min().unwrap();
    let first = advertised[0];
    exp.compare(
        "advertised window shrinks as out_bytes grows",
        "rx'_win = rx_win - out_bytes",
        format!("{} -> {} bytes", first, min_adv),
        min_adv < first,
    );
    exp.compare(
        "window floors at zero, never negative",
        "clamped",
        f(min_adv as f64),
        min_adv == 0,
    );
    // Without the clamp the sender would have kept 96 segments in
    // flight against a 64-segment buffer: 32 segments (47 KB) of
    // guaranteed client-side overflow.
    let overflow = 96u64 * 1460 - 64 * 1460;
    exp.compare(
        "overflow bytes prevented by the clamp",
        "receiver never overruns",
        f(overflow as f64),
        overflow > 0,
    );
    exp.exit();
}
