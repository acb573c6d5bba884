//! The FastACK agent: the packet-processing brain that runs on the AP.
//!
//! Implemented as a pure packet function — each entry point takes one
//! event (wire data arrived / 802.11 ACK observed / client TCP ACK
//! arrived) and returns the [`Action`]s the forwarding plane must carry
//! out. This mirrors the paper's Click-element structure (Figs. 11–12)
//! and keeps the agent unit-testable without any simulator.
//!
//! Paper § map:
//! * §5.4 "TCP Data Flow", cases (i)–(iv) → [`Agent::on_wire_data`]
//! * §5.4 "802.11 ACK Flow" (q_seq continuity) → [`Agent::on_mac_ack`]
//! * §5.4 "TCP ACK flow" (suppression) + §5.5.1 (local retransmission)
//!   → [`Agent::on_client_ack`]
//! * §5.5.2 rx'_win = rx_win − out_bytes → carried in every fast ACK
//! * §5.5.3 TCP holes → dupACK emulation with SACK towards the sender
//! * §5.5.4 roaming → [`Agent::export_flow`] / [`Agent::import_flow`]

use crate::cache::{CachedSegment, RetransmissionCache};
use crate::classifier::{Classifier, FlowPolicy};
use crate::state::FlowState;
use std::collections::btree_map::{BTreeMap, Entry};
use tcpsim::segment::{AckSegment, DataSegment, FlowId, SackBlocks};
use tcpsim::SeqWindow;

/// What the forwarding plane must do with a packet.
///
/// The tag is a whole word (`repr(u64)`): moving an 88-byte `Action`
/// then copies aligned words, not a tag byte and an unaligned tail,
/// which stalled store-to-load forwarding on every push.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(u64)]
pub enum Action {
    /// Queue the data segment for wireless transmission. `priority`
    /// elevates it ahead of the queue (case (ii): end-to-end
    /// retransmissions must not sit behind a full queue).
    Forward { seg: DataSegment, priority: bool },
    /// Discard the data segment (case (i): spurious retransmission).
    DropData(DataSegment),
    /// Transmit an ACK upstream to the TCP sender (fast ACKs, emulated
    /// hole dupACKs, and pass-through client ACKs).
    SendAckUpstream(AckSegment),
    /// Swallow the client's TCP ACK (already fast-ACKed).
    SuppressClientAck(AckSegment),
    /// Retransmit a cached segment over the wireless link, with priority.
    LocalRetransmit(DataSegment),
}

impl Action {
    /// Typed flight-recorder record for this action, with its causal id,
    /// or `None` for actions that leave no cross-layer trace (drops and
    /// suppressed client ACKs end a chain rather than extend it).
    /// `synthetic_acks` marks upstream ACKs as FastACK-fabricated (true
    /// when the agent is enabled) versus forwarded client ACKs.
    pub fn flight_record(
        &self,
        synthetic_acks: bool,
    ) -> Option<(telemetry::CauseId, telemetry::TraceRecord)> {
        match self {
            Action::Forward { seg, .. } => Some((seg.cause(), seg.flight_record())),
            Action::LocalRetransmit(seg) => {
                let mut rec = seg.flight_record();
                if let telemetry::TraceRecord::TcpSeg { retransmit, .. } = &mut rec {
                    *retransmit = true;
                }
                Some((seg.cause(), rec))
            }
            Action::SendAckUpstream(ack) => Some((ack.cause(), ack.flight_record(synthetic_acks))),
            Action::DropData(_) | Action::SuppressClientAck(_) => None,
        }
    }
}

/// Agent configuration.
#[derive(Debug, Clone)]
pub struct AgentConfig {
    /// The toggle — the paper notes FastACK "can be toggled at
    /// run-time" (§5.6.3); here each AP's agent is set on or off when
    /// the AP is built. Disabled = everything passes through.
    pub enabled: bool,
    /// Per-flow retransmission-cache budget. Must comfortably exceed the
    /// client receive window, since un-client-ACKed bytes ≤ rx_win.
    pub cache_capacity_bytes: u64,
    /// Client receive window assumed before the first client ACK is seen.
    pub initial_client_rwnd: u64,
    /// Which flows to accelerate (§5.4 footnote 10).
    pub flow_policy: FlowPolicy,
    /// Optional per-flow AP-queue budget in bytes. When set, advertised
    /// windows are additionally capped by the budget minus the bytes
    /// already sitting at the AP awaiting transmission
    /// (`seq_exp − seq_fack`), so the fast-ACK clock applies queue
    /// backpressure instead of overflowing a finite driver queue.
    pub queue_budget_bytes: Option<u64>,
}

/// Client dupACKs tolerated before a local retransmission fires.
const LOCAL_RETX_DUPACK_THRESHOLD: u32 = 2;

impl Default for AgentConfig {
    fn default() -> Self {
        AgentConfig {
            enabled: true,
            cache_capacity_bytes: 16 << 20,
            initial_client_rwnd: 4 << 20,
            flow_policy: FlowPolicy::All,
            queue_budget_bytes: None,
        }
    }
}

/// Counters for the evaluation harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AgentStats {
    pub fast_acks_sent: u64,
    pub client_acks_suppressed: u64,
    pub client_acks_forwarded: u64,
    pub local_retransmits: u64,
    pub spurious_drops: u64,
    pub priority_forwards: u64,
    pub holes_detected: u64,
    pub hole_dupacks_sent: u64,
    pub cache_bypasses: u64,
    pub queue_drops: u64,
}

impl AgentStats {
    /// Export every counter into a metrics registry under `prefix`
    /// (e.g. `fastack.ap1`) — the registry form of these stats, so
    /// fleet/bench snapshots carry them alongside every other
    /// subsystem's counters.
    pub fn export_metrics(&self, m: &mut telemetry::Registry, prefix: &str) {
        m.count(&format!("{prefix}.fast_acks_sent"), self.fast_acks_sent);
        m.count(
            &format!("{prefix}.client_acks_suppressed"),
            self.client_acks_suppressed,
        );
        m.count(
            &format!("{prefix}.client_acks_forwarded"),
            self.client_acks_forwarded,
        );
        m.count(
            &format!("{prefix}.local_retransmits"),
            self.local_retransmits,
        );
        m.count(&format!("{prefix}.spurious_drops"), self.spurious_drops);
        m.count(
            &format!("{prefix}.priority_forwards"),
            self.priority_forwards,
        );
        m.count(&format!("{prefix}.holes_detected"), self.holes_detected);
        m.count(
            &format!("{prefix}.hole_dupacks_sent"),
            self.hole_dupacks_sent,
        );
        m.count(&format!("{prefix}.cache_bypasses"), self.cache_bypasses);
        m.count(&format!("{prefix}.queue_drops"), self.queue_drops);
    }
}

#[derive(Clone)]
struct Flow {
    state: FlowState,
    cache: RetransmissionCache,
    /// Segment starts forwarded without caching (cache full): these must
    /// never be fast-ACKed, so continuity intentionally stalls on them
    /// and the flow degrades to ordinary end-to-end TCP.
    uncached: SeqWindow<()>,
}

/// The FastACK agent: one per AP, holding state for every accelerated
/// flow through it.
#[derive(Clone)]
pub struct Agent {
    cfg: AgentConfig,
    // Ordered map: any iteration over flows must happen in FlowId order
    // or replay determinism is lost (rule hash-collections).
    flows: BTreeMap<FlowId, Flow>,
    classifier: Classifier,
    pub stats: AgentStats,
    /// Scratch for the segments one dupACK firing re-serves, kept so the
    /// firing allocates nothing once it has grown.
    retx: Vec<CachedSegment>,
}

impl Agent {
    pub fn new(cfg: AgentConfig) -> Agent {
        Agent {
            classifier: Classifier::new(cfg.flow_policy),
            cfg,
            flows: BTreeMap::new(),
            stats: AgentStats::default(),
            retx: Vec::new(),
        }
    }

    /// Is the agent accelerating anything right now?
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Read-only view of a flow's Table-3 state (the forwarding plane's
    /// liveness watch, tests, debugging).
    pub fn flow_state(&self, flow: FlowId) -> Option<&FlowState> {
        self.flows.get(&flow).map(|f| &f.state)
    }

    /// State for a flow adopted at stream offset `baseline` (0 for a
    /// fresh flow, the current segment for a mid-stream adoption). Until
    /// the client proves it holds everything below the baseline, fast
    /// ACKs stay gated: a cumulative ACK at baseline+len would otherwise
    /// vouch for pre-baseline bytes the agent never saw (and could never
    /// repair — they are not in the cache).
    fn adopt(cfg: &AgentConfig, baseline: u64) -> Flow {
        let mut state = FlowState::new(cfg.initial_client_rwnd);
        state.seq_exp = baseline;
        state.seq_fack = baseline;
        state.seq_tcp = baseline;
        state.seq_high = baseline;
        if baseline > 0 {
            state.gate_until = Some(baseline);
        }
        Flow {
            state,
            cache: RetransmissionCache::new(cfg.cache_capacity_bytes),
            uncached: SeqWindow::new(),
        }
    }

    /// Window to advertise for a flow: the paper's rx'_win, additionally
    /// capped by the AP queue budget when configured.
    fn advertised_rwnd(cfg: &AgentConfig, state: &FlowState) -> u64 {
        let rx = state.fast_ack_rwnd();
        match cfg.queue_budget_bytes {
            Some(budget) => {
                // Bytes actually at the AP: received-and-unacked minus
                // known holes (dropped or lost before the queue).
                let queued = state
                    .seq_exp
                    .saturating_sub(state.seq_fack)
                    .saturating_sub(state.hole_bytes());
                rx.min(budget.saturating_sub(queued))
            }
            None => rx,
        }
    }

    /// §5.4 TCP data flow: a data segment arrived from the wired side.
    /// While the flow has an upstream hole, every segment arriving above
    /// it also yields one emulated client dupACK with SACK (§5.5.3).
    pub fn on_wire_data(&mut self, seg: &DataSegment) -> Vec<Action> {
        let mut out = Vec::new();
        self.on_wire_data_into(seg, &mut out);
        out
    }

    /// [`Agent::on_wire_data`] appending into a caller-owned buffer, so
    /// the per-segment hot path can reuse one allocation across calls.
    pub fn on_wire_data_into(&mut self, seg: &DataSegment, out: &mut Vec<Action>) {
        if !self.cfg.enabled {
            out.push(Action::Forward {
                seg: *seg,
                priority: false,
            });
            return;
        }
        // Flow classification (§5.4 footnote 10): unpromoted flows pass
        // through untouched; a flow crossing the elephant threshold is
        // adopted mid-stream, with the current segment as its baseline
        // (everything before it is treated as already TCP-acknowledged).
        // Field-disjoint borrow of `self.flows` (entry API inline so the
        // classifier and the stats counters stay writable).
        let flow = match self.flows.entry(seg.flow) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                if !self.classifier.observe(seg.flow, seg.len) {
                    out.push(Action::Forward {
                        seg: *seg,
                        priority: false,
                    });
                    return;
                }
                e.insert(Self::adopt(&self.cfg, seg.seq))
            }
        };
        let (start, end) = (seg.seq, seg.end());

        if let Some(gate) = flow.state.gate_until {
            if start < gate {
                // Pre-baseline traffic during mid-stream adoption: the
                // endpoints own it entirely (we never vouched for it and
                // cannot serve it from the cache). Pure pass-through,
                // with retransmissions keeping their priority.
                out.push(Action::Forward {
                    seg: *seg,
                    priority: seg.retransmit,
                });
                return;
            }
        }

        if end <= flow.state.seq_fack {
            // Case (i): entirely below the fast-ACK point — the sender
            // has already been told; this is a spurious retransmission.
            self.stats.spurious_drops += 1;
            out.push(Action::DropData(*seg));
            return;
        }

        if start < flow.state.seq_exp {
            // Case (ii): an end-to-end retransmission for data the AP has
            // (at least partly) seen or recorded as a hole. Refresh the
            // cache and forward ahead of the queue.
            flow.state.fill_hole(start, end);
            flow.cache.insert(start, seg.len);
            flow.state.seq_high = flow.state.seq_high.max(end);
            self.stats.priority_forwards += 1;
            out.push(Action::Forward {
                seg: *seg,
                priority: true,
            });
            return;
        }

        if start > flow.state.seq_exp {
            // Case (iv): a gap — something was dropped upstream of the
            // AP. Record the hole, then emulate the client's dupACKs so
            // the sender repairs it without waiting for the wireless
            // round trip (§5.5.3).
            flow.state.add_hole(flow.state.seq_exp, start);
            self.stats.holes_detected += 1;
        }

        // Case (iii) (and the tail of (iv)): in-sequence new data.
        let cached = flow.cache.insert(start, seg.len);
        if !cached {
            flow.uncached.insert(start, ());
            self.stats.cache_bypasses += 1;
        }
        flow.state.seq_exp = end;
        flow.state.seq_high = flow.state.seq_high.max(end);
        out.push(Action::Forward {
            seg: *seg,
            priority: false,
        });

        if !flow.state.holes.is_empty() {
            // One emulated dupACK per arriving segment above the hole —
            // the same cadence a real receiver would produce, so the
            // sender's fast-retransmit machinery engages normally.
            let ack = flow.state.seq_fack;
            let sack = sack_blocks(&flow.state);
            let rwnd = flow.state.fast_ack_rwnd();
            self.stats.hole_dupacks_sent += 1;
            out.push(Action::SendAckUpstream(AckSegment {
                flow: seg.flow,
                ack,
                rwnd,
                sack,
            }));
        }
    }

    /// §5.4 802.11 ACK flow: the MAC delivered (BlockAck'd) the data
    /// segment `[seq, seq+len)` to the client.
    pub fn on_mac_ack(&mut self, flow_id: FlowId, seq: u64, len: u32) -> Vec<Action> {
        let mut out = Vec::new();
        self.on_mac_ack_into(flow_id, seq, len, &mut out);
        out
    }

    /// [`Agent::on_mac_ack`] appending into a caller-owned buffer.
    pub fn on_mac_ack_into(&mut self, flow_id: FlowId, seq: u64, len: u32, out: &mut Vec<Action>) {
        if !self.cfg.enabled {
            return;
        }
        let Some(flow) = self.flows.get_mut(&flow_id) else {
            return;
        };
        if flow.uncached.get(seq).is_some() {
            // Forwarded without a cached copy: unsafe to fast-ACK
            // (a client dupACK could not be served locally).
            return;
        }
        flow.state.enqueue_acked(seq, seq + len as u64);
        if flow.state.gate_until.is_some() {
            // Adoption gate closed: accumulate continuity silently; the
            // backlog is released when the client ack opens the gate.
            let _ = flow.state.drain_contiguous();
            return;
        }
        if let Some(fack) = flow.state.drain_contiguous() {
            self.stats.fast_acks_sent += 1;
            let rwnd = Self::advertised_rwnd(&self.cfg, &flow.state);
            flow.state.last_advertised_rwnd = rwnd;
            out.push(Action::SendAckUpstream(AckSegment::plain(
                flow_id, fack, rwnd,
            )));
        }
    }

    /// §5.4 TCP ACK flow + §5.5.1 retransmission strategy: the client's
    /// own TCP ACK arrived over the wireless link. The second duplicate
    /// ACK is served from the local cache.
    pub fn on_client_ack(&mut self, ack: &AckSegment) -> Vec<Action> {
        let mut out = Vec::new();
        self.on_client_ack_into(ack, &mut out);
        out
    }

    /// [`Agent::on_client_ack`] appending into a caller-owned buffer.
    pub fn on_client_ack_into(&mut self, ack: &AckSegment, out: &mut Vec<Action>) {
        if !self.cfg.enabled {
            out.push(Action::SendAckUpstream(*ack));
            return;
        }
        let Some(flow) = self.flows.get_mut(&ack.flow) else {
            out.push(Action::SendAckUpstream(*ack));
            return;
        };
        flow.state.client_rwnd = ack.rwnd;

        if let Some(gate) = flow.state.gate_until {
            if ack.ack >= gate {
                // The client vouches for everything below the adoption
                // baseline: open the gate, resync, and forward this ack
                // (the sender has not heard anything from us yet).
                flow.state.gate_until = None;
                flow.state.seq_tcp = flow.state.seq_tcp.max(ack.ack);
                flow.state.seq_fack = flow.state.seq_fack.max(ack.ack);
                let _ = flow.state.drain_contiguous();
                flow.cache.release_below(ack.ack);
                self.stats.client_acks_forwarded += 1;
                out.push(Action::SendAckUpstream(*ack));
                if flow.state.seq_fack > ack.ack {
                    // Release the fast-ack backlog accumulated while gated.
                    self.stats.fast_acks_sent += 1;
                    let rwnd = Self::advertised_rwnd(&self.cfg, &flow.state);
                    flow.state.last_advertised_rwnd = rwnd;
                    let update = AckSegment::plain(ack.flow, flow.state.seq_fack, rwnd);
                    out.push(Action::SendAckUpstream(update));
                }
                return;
            }
            // Pre-baseline traffic: entirely the endpoints' business.
            self.stats.client_acks_forwarded += 1;
            out.push(Action::SendAckUpstream(*ack));
            return;
        }

        if ack.ack > flow.state.seq_tcp {
            // Progress at the client's transport layer: release the cache.
            flow.state.seq_tcp = ack.ack;
            flow.state.client_dup_acks = 0;
            flow.state.last_fire_dup = 0;
            flow.cache.release_below(ack.ack);
            flow.uncached.retain_below(ack.ack, |_, _| false);

            if ack.ack > flow.state.seq_fack {
                // The client is ahead of our fast-ACK point (bad hints or
                // cache-bypassed segments): the sender has NOT seen this
                // ACK yet — forward it and resync.
                flow.state.seq_fack = ack.ack;
                // Continuity may hold again past the resync point.
                let _ = flow.state.drain_contiguous();
                self.stats.client_acks_forwarded += 1;
                out.push(Action::SendAckUpstream(*ack));
                return;
            }
            // Normal case: the fast ACK already covered this. The data
            // acknowledgment is suppressed — but the client's progress
            // reopened rx'_win, and the sender (whose clock we now own)
            // must hear about it or a window-limited flow deadlocks.
            // Emit a pure window update when the window grew.
            self.stats.client_acks_suppressed += 1;
            out.push(Action::SuppressClientAck(*ack));
            let rwnd = Self::advertised_rwnd(&self.cfg, &flow.state);
            if rwnd > flow.state.last_advertised_rwnd {
                flow.state.last_advertised_rwnd = rwnd;
                let update = AckSegment::plain(ack.flow, flow.state.seq_fack, rwnd);
                out.push(Action::SendAckUpstream(update));
            }
            return;
        }

        if ack.ack < flow.state.seq_tcp {
            // Below the flow's TCP-acknowledged point: either a reordered
            // stale ACK or (after mid-stream adoption) an ACK for
            // pre-adoption data the sender is still waiting on. Forward.
            self.stats.client_acks_forwarded += 1;
            out.push(Action::SendAckUpstream(*ack));
            return;
        }

        // Duplicate ACK from the client: something fast-ACKed never
        // reached its transport layer (a "bad hint", footnote 15) or was
        // reordered. Serve it from the local cache (§5.5.1) rather than
        // letting it shrink the sender's cwnd. Each hole is served once
        // at the threshold; because dupACKs arrive at line rate while
        // the repair rides the ordinary wireless round trip, re-fires
        // back off exponentially (at 4× the previous firing count) —
        // re-firing per dupACK would storm duplicates at the client.
        flow.state.client_dup_acks += 1;
        let d = flow.state.client_dup_acks;
        let fire = d == LOCAL_RETX_DUPACK_THRESHOLD
            || (flow.state.last_fire_dup > 0 && d >= flow.state.last_fire_dup.saturating_mul(4));
        if fire {
            flow.state.last_fire_dup = d;
            let to_retx = &mut self.retx;
            to_retx.clear();
            to_retx.extend(flow.cache.lookup_containing(ack.ack));
            // SACK-based: fill every advertised gap from the cache.
            // RFC 2018 blocks arrive most-recently-received first, so
            // sort a local copy before the ascending gap walk.
            let mut sack = ack.sack;
            sack.sort_unstable();
            let mut cursor = ack.ack;
            for &(s, e) in sack.iter() {
                if s > cursor {
                    flow.cache.lookup_range(cursor, s, to_retx);
                }
                cursor = cursor.max(e);
            }
            to_retx.sort_by_key(|c| c.seq);
            to_retx.dedup();
            if to_retx.is_empty() {
                // Nothing cached to serve — let the sender handle it.
                self.stats.client_acks_forwarded += 1;
                out.push(Action::SendAckUpstream(*ack));
                return;
            }
            for &c in to_retx.iter() {
                self.stats.local_retransmits += 1;
                out.push(Action::LocalRetransmit(flow.cache.to_segment(ack.flow, c)));
            }
        }
        self.stats.client_acks_suppressed += 1;
        out.push(Action::SuppressClientAck(*ack));
    }

    /// The forwarding plane dropped a just-forwarded segment at the
    /// transmit queue (tail drop). In the Click pipeline the agent sits
    /// at that queue and observes the drop directly. The segment becomes
    /// a hole — the same machinery as an upstream drop (§5.5.3): the
    /// occupancy estimate excludes it and an emulated dupACK (with SACK)
    /// prompts the sender to retransmit it; the retransmission arrives as
    /// case (ii) with priority and bypasses the queue cap.
    pub fn on_queue_drop(&mut self, flow_id: FlowId, seq: u64, len: u32) -> Vec<Action> {
        if !self.cfg.enabled {
            return Vec::new();
        }
        let Some(flow) = self.flows.get_mut(&flow_id) else {
            return Vec::new();
        };
        flow.state.add_hole(seq, seq + len as u64);
        self.stats.queue_drops += 1;
        let sack = sack_blocks(&flow.state);
        let rwnd = Self::advertised_rwnd(&self.cfg, &flow.state);
        self.stats.hole_dupacks_sent += 1;
        vec![Action::SendAckUpstream(AckSegment {
            flow: flow_id,
            ack: flow.state.seq_fack,
            rwnd,
            sack,
        })]
    }

    /// Liveness backstop for bad hints (footnote 15): when the client's
    /// TCP ACK point (`seq_tcp`) sits below the fast-ACK point
    /// (`seq_fack`) the sender has discarded that data and only the AP
    /// can repair the flow — but if the client has nothing new arriving
    /// it will never emit another dupACK to trigger §5.5.1's local
    /// retransmission, and the flow deadlocks. The agent itself holds no
    /// timers (§5.5.1); the forwarding plane calls this when it observes
    /// a flow making no client-side progress, and the agent re-serves
    /// the segment at the client's ACK point from the cache.
    pub fn force_repair(&mut self, flow_id: FlowId) -> Option<Action> {
        if !self.cfg.enabled {
            return None;
        }
        let flow = self.flows.get_mut(&flow_id)?;
        if flow.state.seq_tcp >= flow.state.seq_fack {
            return None; // client is caught up; nothing to repair
        }
        let c = flow.cache.lookup_containing(flow.state.seq_tcp)?;
        self.stats.local_retransmits += 1;
        Some(Action::LocalRetransmit(flow.cache.to_segment(flow_id, c)))
    }

    /// §5.5.4 roaming: extract a flow's state for transfer to the
    /// roam-to AP. Removes the flow from this agent.
    pub fn export_flow(&mut self, flow: FlowId) -> Option<(FlowState, Vec<CachedSegment>)> {
        self.flows
            .remove(&flow)
            .map(|f| (f.state, f.cache.export()))
    }

    /// §5.5.4 roaming: adopt a flow exported by the roam-from AP.
    pub fn import_flow(&mut self, flow: FlowId, state: FlowState, cache: Vec<CachedSegment>) {
        let mut c = RetransmissionCache::new(self.cfg.cache_capacity_bytes);
        c.import(&cache);
        self.flows.insert(
            flow,
            Flow {
                state,
                cache: c,
                uncached: SeqWindow::new(),
            },
        );
    }
}

/// SACK blocks describing what the AP *has* seen above the holes:
/// the complement of `holes` within `[first_hole.start, seq_high)`,
/// capped at 3 blocks (TCP option-space limit).
///
/// RFC 2018 orders blocks most-recently-received first: the block
/// holding the newest data — the one ending at `seq_high`, which
/// contains the segment that triggered this emulated dupACK — comes
/// first, and the 3-block cap discards the *oldest* information.
///
/// `FlowState::add_hole` keeps `holes` sorted, so one forward walk
/// suffices, holding only the last 3 blocks it passed in a ring.
fn sack_blocks(state: &FlowState) -> SackBlocks {
    debug_assert!(
        state.holes.windows(2).all(|w| w[0].start <= w[1].start),
        "holes must be kept sorted by FlowState::add_hole"
    );
    let mut ring = [(0, 0); SackBlocks::CAP];
    let mut n = 0;
    let mut keep = |block| {
        ring[n % SackBlocks::CAP] = block;
        n += 1;
    };
    let mut cursor = None::<u64>;
    for h in &state.holes {
        if let Some(c) = cursor {
            if h.start > c {
                keep((c, h.start));
            }
        }
        // max() guards against overlapping holes: the cursor (end of
        // hole-covered space) must never move backwards.
        cursor = Some(cursor.map_or(h.end, |c| c.max(h.end)));
    }
    if let Some(c) = cursor {
        if state.seq_high > c {
            keep((c, state.seq_high));
        }
    }
    //= spec: rfc2018:4:first-block-newest
    //= spec: rfc2018:4:three-block-limit
    (1..=n.min(SackBlocks::CAP))
        .map(|back| ring[(n - back) % SackBlocks::CAP])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::Hole;
    use proptest::prelude::*;

    const MSS: u32 = 1460;

    fn seg(seq: u64, len: u32) -> DataSegment {
        DataSegment {
            flow: FlowId(1),
            seq,
            len,
            retransmit: false,
        }
    }

    fn client_ack(a: u64) -> AckSegment {
        AckSegment::plain(FlowId(1), a, 1 << 20)
    }

    fn mk() -> Agent {
        Agent::new(AgentConfig::default())
    }

    /// Drive n in-order segments through data + MAC-ACK paths.
    fn pump(agent: &mut Agent, n: u64) {
        for i in 0..n {
            agent.on_wire_data(&seg(i * MSS as u64, MSS));
            agent.on_mac_ack(FlowId(1), i * MSS as u64, MSS);
        }
    }

    #[test]
    fn in_order_data_forwards_and_fast_acks() {
        let mut a = mk();
        let acts = a.on_wire_data(&seg(0, MSS));
        assert_eq!(
            acts,
            vec![Action::Forward {
                seg: seg(0, MSS),
                priority: false
            }]
        );
        let acts = a.on_mac_ack(FlowId(1), 0, MSS);
        assert_eq!(acts.len(), 1);
        match &acts[0] {
            Action::SendAckUpstream(ack) => {
                assert_eq!(ack.ack, MSS as u64);
                assert!(ack.sack.is_empty());
            }
            other => panic!("expected fast ack, got {other:?}"),
        }
        assert_eq!(a.stats.fast_acks_sent, 1);
    }

    #[test]
    fn action_flight_records_map_each_variant() {
        use telemetry::TraceRecord;

        let fwd = Action::Forward {
            seg: seg(0, MSS),
            priority: false,
        };
        let (cause, rec) = fwd.flight_record(true).unwrap();
        assert_eq!(cause, telemetry::cause_for(1, 0));
        assert!(matches!(
            rec,
            TraceRecord::TcpSeg {
                retransmit: false,
                ..
            }
        ));

        // A local retransmission is a retransmit on the air even if the
        // cached segment was originally a first transmission.
        let (_, rec) = Action::LocalRetransmit(seg(0, MSS))
            .flight_record(true)
            .unwrap();
        assert!(matches!(
            rec,
            TraceRecord::TcpSeg {
                retransmit: true,
                ..
            }
        ));

        let (cause, rec) = Action::SendAckUpstream(client_ack(MSS as u64))
            .flight_record(true)
            .unwrap();
        assert_eq!(cause, telemetry::cause_for(1, MSS as u64));
        assert_eq!(
            rec,
            TraceRecord::FastAckSynth {
                flow: 1,
                ack: MSS as u64,
                synthetic: true,
            }
        );

        // Chain-ending actions leave no record.
        assert!(Action::DropData(seg(0, MSS)).flight_record(true).is_none());
        assert!(Action::SuppressClientAck(client_ack(0))
            .flight_record(true)
            .is_none());
    }

    #[test]
    fn case_i_spurious_retransmission_dropped() {
        let mut a = mk();
        pump(&mut a, 3);
        // Sender retransmits segment 0 even though it was fast-ACKed.
        let acts = a.on_wire_data(&seg(0, MSS));
        assert_eq!(acts, vec![Action::DropData(seg(0, MSS))]);
        assert_eq!(a.stats.spurious_drops, 1);
    }

    #[test]
    fn case_ii_end_to_end_retransmission_gets_priority() {
        let mut a = mk();
        // Data seen but NOT yet mac-acked (so not fast-acked): a
        // retransmission for it is case (ii).
        a.on_wire_data(&seg(0, MSS));
        a.on_wire_data(&seg(MSS as u64, MSS));
        let acts = a.on_wire_data(&seg(0, MSS));
        assert_eq!(
            acts,
            vec![Action::Forward {
                seg: seg(0, MSS),
                priority: true
            }]
        );
        assert_eq!(a.stats.priority_forwards, 1);
    }

    #[test]
    fn case_iv_hole_detected_and_dupacks_emulated() {
        let mut a = mk();
        a.on_wire_data(&seg(0, MSS));
        // Segment 1 lost upstream; segment 2 arrives.
        let acts = a.on_wire_data(&seg(2 * MSS as u64, MSS));
        assert_eq!(a.stats.holes_detected, 1);
        // Forward + emulated dupACK.
        assert_eq!(acts.len(), 2);
        match &acts[1] {
            Action::SendAckUpstream(ack) => {
                assert_eq!(ack.ack, 0, "dupack at the fast-ack point");
                assert_eq!(
                    ack.sack,
                    vec![(2 * MSS as u64, 3 * MSS as u64)],
                    "SACK names the received block above the hole"
                );
            }
            other => panic!("expected dupack, got {other:?}"),
        }
        let st = a.flow_state(FlowId(1)).unwrap();
        assert_eq!(st.holes.len(), 1);
        assert_eq!(st.holes[0].start, MSS as u64);
        assert_eq!(st.holes[0].end, 2 * MSS as u64);

        // The sender's retransmission repairs the hole (case ii).
        a.on_wire_data(&seg(MSS as u64, MSS));
        assert!(a.flow_state(FlowId(1)).unwrap().holes.is_empty());
    }

    #[test]
    fn sack_blocks_order_newest_first_past_three_holes() {
        // Four holes → four received blocks. RFC 2018: the block with
        // the most recently received data (ending at seq_high) comes
        // first, and the 3-block cap drops the *oldest* block. The
        // pre-fix code kept the lowest three in ascending order,
        // discarding exactly the newest loss information.
        //= spec: rfc2018:4:first-block-newest
        //= spec: rfc2018:4:three-block-limit
        let mut a = mk();
        let m = MSS as u64;
        // Receive even segments 0,2,4,6,8: holes at 1,3,5,7.
        for i in [0u64, 2, 4, 6, 8] {
            a.on_wire_data(&seg(i * m, MSS));
        }
        let st = a.flow_state(FlowId(1)).unwrap();
        assert_eq!(st.holes.len(), 4);
        let blocks = sack_blocks(st);
        assert_eq!(
            blocks,
            vec![(8 * m, 9 * m), (6 * m, 7 * m), (4 * m, 5 * m)],
            "newest three blocks, most-recent first; oldest (2m,3m) dropped"
        );
    }

    /// `sack_blocks` as the spec states it: every block the holes leave,
    /// newest first, then the first 3.
    fn sack_blocks_spec(state: &FlowState) -> Vec<(u64, u64)> {
        let mut blocks = Vec::new();
        let mut cursor = None::<u64>;
        for h in &state.holes {
            if let Some(c) = cursor {
                if h.start > c {
                    blocks.push((c, h.start));
                }
            }
            // max() guards against overlapping holes: the cursor (end of
            // hole-covered space) must never move backwards.
            cursor = Some(cursor.map_or(h.end, |c| c.max(h.end)));
        }
        if let Some(c) = cursor {
            if state.seq_high > c {
                blocks.push((c, state.seq_high));
            }
        }
        blocks.reverse();
        blocks.truncate(3);
        blocks
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Sorted hole sets with equal starts, overlapping, touching and
        /// nested holes, and `seq_high` from below the first hole to past
        /// the last.
        #[test]
        fn sack_blocks_match_the_spec(
            raw in proptest::collection::vec(any::<u64>(), 0..10),
            high in any::<u64>(),
        ) {
            let mut state = FlowState::default();
            let mut start = 0;
            for r in raw {
                start += r % 5;
                let end = start + 1 + (r >> 8) % 8;
                state.holes.push(Hole { start, end });
            }
            state.seq_high = high % (start + 12);
            prop_assert_eq!(sack_blocks(&state), sack_blocks_spec(&state));
        }
    }

    #[test]
    fn emulated_dupack_carries_newest_first_sack() {
        // End-to-end: with >3 holes the emitted dupACK's first SACK
        // block must name the segment that triggered it.
        //= spec: rfc2018:4:first-block-newest
        let mut a = mk();
        let m = MSS as u64;
        for i in [0u64, 2, 4, 6] {
            a.on_wire_data(&seg(i * m, MSS));
        }
        let acts = a.on_wire_data(&seg(8 * m, MSS));
        let ack = acts
            .iter()
            .find_map(|x| match x {
                Action::SendAckUpstream(ack) => Some(ack),
                _ => None,
            })
            .expect("emulated dupack");
        assert_eq!(ack.sack.len(), 3, "TCP option-space cap");
        assert_eq!(
            ack.sack[0],
            (8 * m, 9 * m),
            "first block holds the triggering segment"
        );
        assert!(
            ack.sack.windows(2).all(|w| w[0].0 > w[1].0),
            "remaining blocks in decreasing-recency order: {:?}",
            ack.sack
        );
    }

    #[test]
    fn queue_drop_of_low_retransmission_keeps_holes_sorted() {
        // A priority retransmission dropped at the queue adds a hole
        // *below* existing ones; add_hole must keep the list sorted so
        // sack_blocks' single forward walk stays correct.
        let mut a = mk();
        let m = MSS as u64;
        for i in [0u64, 1, 2, 4] {
            a.on_wire_data(&seg(i * m, MSS)); // hole at 3m..4m
        }
        a.on_queue_drop(FlowId(1), m, MSS); // drop below the hole
        let st = a.flow_state(FlowId(1)).unwrap();
        assert!(
            st.holes.windows(2).all(|w| w[0].start <= w[1].start),
            "holes sorted: {:?}",
            st.holes
        );
        let blocks = sack_blocks(st);
        assert_eq!(blocks, vec![(4 * m, 5 * m), (2 * m, 3 * m)]);
    }

    #[test]
    fn agent_stats_export_onto_registry() {
        let mut a = mk();
        pump(&mut a, 3);
        let mut m = telemetry::Registry::new();
        a.stats.export_metrics(&mut m, "fastack.ap0");
        assert_eq!(
            m.counter_value("fastack.ap0.fast_acks_sent"),
            Some(a.stats.fast_acks_sent)
        );
        assert_eq!(m.counter_value("fastack.ap0.queue_drops"), Some(0));
    }

    #[test]
    fn mac_acks_out_of_order_block_then_release_fast_acks() {
        // The paper's continuity requirement: TCP ACKs are cumulative so
        // a missing 802.11 ACK must gate all later fast ACKs.
        let mut a = mk();
        for i in 0..3u64 {
            a.on_wire_data(&seg(i * MSS as u64, MSS));
        }
        // MAC acks arrive for segments 0 and 2 only.
        let f1 = a.on_mac_ack(FlowId(1), 0, MSS);
        assert!(matches!(&f1[0], Action::SendAckUpstream(k) if k.ack == MSS as u64));
        let f2 = a.on_mac_ack(FlowId(1), 2 * MSS as u64, MSS);
        assert!(f2.is_empty(), "continuity broken at segment 1");
        // Straggler MAC ack for segment 1 releases both.
        let f3 = a.on_mac_ack(FlowId(1), MSS as u64, MSS);
        assert_eq!(f3.len(), 1);
        assert!(matches!(&f3[0], Action::SendAckUpstream(k) if k.ack == 3 * MSS as u64));
        assert_eq!(a.stats.fast_acks_sent, 2);
    }

    #[test]
    fn client_acks_below_fack_are_suppressed() {
        // Pin the assumed initial window to the test ACKs' 1 MB so the
        // window-update emission condition is deterministic here.
        let mut a = Agent::new(AgentConfig {
            initial_client_rwnd: 1 << 20,
            ..AgentConfig::default()
        });
        pump(&mut a, 4);
        let acts = a.on_client_ack(&client_ack(2 * MSS as u64));
        assert!(matches!(acts[0], Action::SuppressClientAck(_)));
        // The client's progress reopened rx'_win: a pure window update
        // (same ack point, larger window, no SACK) goes to the sender.
        assert_eq!(acts.len(), 2);
        match &acts[1] {
            Action::SendAckUpstream(w) => {
                assert_eq!(w.ack, 4 * MSS as u64, "at the fast-ack point");
                assert!(w.sack.is_empty());
            }
            other => panic!("expected window update, got {other:?}"),
        }
        assert_eq!(a.stats.client_acks_suppressed, 1);
        // Cache released below the client ack.
        let st = a.flow_state(FlowId(1)).unwrap();
        assert_eq!(st.seq_tcp, 2 * MSS as u64);
    }

    #[test]
    fn client_ack_ahead_of_fack_is_forwarded() {
        let mut a = mk();
        // Data forwarded but never MAC-acked (bad hint in the other
        // direction: MAC ack lost) — client acks anyway.
        a.on_wire_data(&seg(0, MSS));
        let acts = a.on_client_ack(&client_ack(MSS as u64));
        assert_eq!(acts.len(), 1);
        assert!(matches!(&acts[0], Action::SendAckUpstream(k) if k.ack == MSS as u64));
        let st = a.flow_state(FlowId(1)).unwrap();
        assert_eq!(st.seq_fack, MSS as u64, "fast-ack point resynced");
    }

    #[test]
    fn client_dupacks_trigger_local_retransmit_from_cache() {
        let mut a = mk();
        pump(&mut a, 4);
        a.on_client_ack(&client_ack(2 * MSS as u64));
        // Client dup-acks at 2*MSS: segment 2 was fast-ACKed (bad hint)
        // but never reached the client's transport.
        let first = a.on_client_ack(&client_ack(2 * MSS as u64));
        assert!(
            first
                .iter()
                .all(|x| matches!(x, Action::SuppressClientAck(_))),
            "below threshold: only suppression"
        );
        let second = a.on_client_ack(&client_ack(2 * MSS as u64));
        let retx: Vec<_> = second
            .iter()
            .filter_map(|x| match x {
                Action::LocalRetransmit(d) => Some(*d),
                _ => None,
            })
            .collect();
        assert_eq!(retx.len(), 1);
        assert_eq!(retx[0].seq, 2 * MSS as u64);
        assert!(retx[0].retransmit);
        assert_eq!(a.stats.local_retransmits, 1);
        // The dupACK itself never reaches the sender.
        assert!(second
            .iter()
            .any(|x| matches!(x, Action::SuppressClientAck(_))));
    }

    #[test]
    fn client_dupack_with_sack_fills_all_gaps() {
        let mut a = mk();
        pump(&mut a, 6);
        a.on_client_ack(&client_ack(MSS as u64));
        let mut dup = client_ack(MSS as u64);
        // Client holds [3,4) and [5,6) but is missing [1,3) and [4,5);
        // its blocks arrive newest first, as RFC 2018 orders them.
        dup.sack = [
            (5 * MSS as u64, 6 * MSS as u64),
            (3 * MSS as u64, 4 * MSS as u64),
        ]
        .into_iter()
        .collect();
        a.on_client_ack(&dup);
        let acts = a.on_client_ack(&dup);
        let retx: Vec<u64> = acts
            .iter()
            .filter_map(|x| match x {
                Action::LocalRetransmit(d) => Some(d.seq),
                _ => None,
            })
            .collect();
        assert_eq!(
            retx,
            vec![MSS as u64, 2 * MSS as u64, 4 * MSS as u64],
            "every hole served from cache"
        );
    }

    #[test]
    fn dupack_with_nothing_cached_is_forwarded() {
        let mut a = mk();
        pump(&mut a, 2);
        // Client acks everything; cache drains.
        a.on_client_ack(&client_ack(2 * MSS as u64));
        // Now it dup-acks twice at the same point with nothing cached
        // above: the agent must punt to the sender.
        a.on_client_ack(&client_ack(2 * MSS as u64));
        let acts = a.on_client_ack(&client_ack(2 * MSS as u64));
        assert!(acts.iter().any(|x| matches!(x, Action::SendAckUpstream(_))));
    }

    #[test]
    fn fast_ack_advertises_clamped_window() {
        let mut a = Agent::new(AgentConfig {
            initial_client_rwnd: 4 * MSS as u64,
            ..AgentConfig::default()
        });
        // 3 segments forwarded, none client-acked: out_bytes = 3 MSS.
        for i in 0..3u64 {
            a.on_wire_data(&seg(i * MSS as u64, MSS));
        }
        let acts = a.on_mac_ack(FlowId(1), 0, MSS);
        match &acts[0] {
            Action::SendAckUpstream(ack) => {
                assert_eq!(ack.rwnd, MSS as u64, "rx_win - out_bytes = 4-3 MSS");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn window_never_negative() {
        let mut a = Agent::new(AgentConfig {
            initial_client_rwnd: 2 * MSS as u64,
            ..AgentConfig::default()
        });
        for i in 0..5u64 {
            a.on_wire_data(&seg(i * MSS as u64, MSS));
        }
        let acts = a.on_mac_ack(FlowId(1), 0, MSS);
        match &acts[0] {
            Action::SendAckUpstream(ack) => assert_eq!(ack.rwnd, 0),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn disabled_agent_is_transparent() {
        let mut a = Agent::new(AgentConfig {
            enabled: false,
            ..AgentConfig::default()
        });
        let acts = a.on_wire_data(&seg(0, MSS));
        assert_eq!(
            acts,
            vec![Action::Forward {
                seg: seg(0, MSS),
                priority: false
            }]
        );
        assert!(a.on_mac_ack(FlowId(1), 0, MSS).is_empty());
        let acts = a.on_client_ack(&client_ack(MSS as u64));
        assert!(matches!(acts[0], Action::SendAckUpstream(_)));
        assert_eq!(a.stats, AgentStats::default());
    }

    #[test]
    fn unknown_flow_acks_pass_through() {
        let mut a = mk();
        let acts = a.on_client_ack(&client_ack(100));
        assert!(matches!(acts[0], Action::SendAckUpstream(_)));
        assert!(a.on_mac_ack(FlowId(77), 0, 100).is_empty());
    }

    #[test]
    fn cache_overflow_degrades_gracefully() {
        let mut a = Agent::new(AgentConfig {
            cache_capacity_bytes: 2 * MSS as u64,
            ..AgentConfig::default()
        });
        for i in 0..4u64 {
            a.on_wire_data(&seg(i * MSS as u64, MSS));
        }
        assert_eq!(a.stats.cache_bypasses, 2);
        // MAC acks for everything: fast acks stop at the uncached region.
        a.on_mac_ack(FlowId(1), 0, MSS);
        a.on_mac_ack(FlowId(1), MSS as u64, MSS);
        let stalled = a.on_mac_ack(FlowId(1), 2 * MSS as u64, MSS);
        assert!(stalled.is_empty(), "uncached segment is never fast-acked");
        assert_eq!(a.stats.fast_acks_sent, 2);
        // The client's own ACK covers it and resyncs the flow.
        let acts = a.on_client_ack(&client_ack(3 * MSS as u64));
        assert!(matches!(&acts[0], Action::SendAckUpstream(k) if k.ack == 3 * MSS as u64));
    }

    #[test]
    fn roaming_export_import_preserves_flow() {
        let mut a = mk();
        pump(&mut a, 3);
        a.on_client_ack(&client_ack(MSS as u64));
        let (state, cache) = a.export_flow(FlowId(1)).expect("flow exists");
        assert_eq!(a.flow_count(), 0);
        assert_eq!(state.seq_fack, 3 * MSS as u64);

        let mut b = mk();
        b.import_flow(FlowId(1), state, cache);
        // The roam-to AP can serve a local retransmission immediately.
        b.on_client_ack(&client_ack(MSS as u64)); // progress? no: equal seq_tcp
        let acts = b.on_client_ack(&client_ack(MSS as u64));
        assert!(acts
            .iter()
            .any(|x| matches!(x, Action::LocalRetransmit(d) if d.seq == MSS as u64)));
    }

    #[test]
    fn elephant_policy_adopts_midstream() {
        use crate::classifier::FlowPolicy;
        let mut a = Agent::new(AgentConfig {
            flow_policy: FlowPolicy::Elephants {
                threshold_bytes: 3 * MSS as u64,
            },
            ..AgentConfig::default()
        });
        // Segments 0 and 1: below threshold, pure pass-through.
        for i in 0..2u64 {
            let acts = a.on_wire_data(&seg(i * MSS as u64, MSS));
            assert_eq!(
                acts,
                vec![Action::Forward {
                    seg: seg(i * MSS as u64, MSS),
                    priority: false
                }]
            );
        }
        assert!(a.flow_state(FlowId(1)).is_none(), "not yet adopted");
        assert!(
            a.on_mac_ack(FlowId(1), 0, MSS).is_empty(),
            "no fast acks yet"
        );
        // Third segment crosses 3*MSS: adopted, baseline at its seq,
        // emission gated until the client vouches for the prefix.
        a.on_wire_data(&seg(2 * MSS as u64, MSS));
        let st = a.flow_state(FlowId(1)).expect("adopted");
        assert_eq!(st.seq_fack, 2 * MSS as u64);
        assert_eq!(st.seq_exp, 3 * MSS as u64);
        assert_eq!(st.gate_until, Some(2 * MSS as u64));
        // MAC acks accumulate silently while gated (no cumulative fast
        // ACK may vouch for pre-baseline bytes the agent never saw).
        let acts = a.on_mac_ack(FlowId(1), 2 * MSS as u64, MSS);
        assert!(acts.is_empty(), "{acts:?}");
        // A late client ACK for pre-adoption data is forwarded untouched.
        let acts = a.on_client_ack(&client_ack(MSS as u64));
        assert!(matches!(acts[0], Action::SendAckUpstream(_)));
        // The client reaching the baseline opens the gate: the original
        // ack is forwarded AND the gated fast-ack backlog is released.
        let acts = a.on_client_ack(&client_ack(2 * MSS as u64));
        assert_eq!(acts.len(), 2, "{acts:?}");
        assert!(matches!(&acts[0], Action::SendAckUpstream(k) if k.ack == 2 * MSS as u64));
        assert!(matches!(&acts[1], Action::SendAckUpstream(k) if k.ack == 3 * MSS as u64));
        assert!(a.flow_state(FlowId(1)).unwrap().gate_until.is_none());
        assert_eq!(a.stats.local_retransmits, 0);
    }

    #[test]
    fn stats_accumulate_consistently() {
        let mut a = mk();
        pump(&mut a, 10);
        for i in 1..=10u64 {
            a.on_client_ack(&client_ack(i * MSS as u64));
        }
        assert_eq!(a.stats.fast_acks_sent, 10);
        assert_eq!(a.stats.client_acks_suppressed, 10);
        assert_eq!(a.stats.client_acks_forwarded, 0);
        assert_eq!(a.stats.local_retransmits, 0);
    }
}
