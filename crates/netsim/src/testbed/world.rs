//! The protocol half of the testbed: everything that can steer a run.
//! `World` owns the configuration, the one random stream, the event
//! queue and the planes' pieces ([`Wired`], [`ApDatapath`],
//! [`ClientStation`], [`Medium`]); its methods are the run loop's steps
//! and the two TXOP bodies. What it does is reported through
//! `Taps::on`, which cannot answer back.
//!
//! RNG draw order is pinned: client placement in `new`; then per loop
//! pass wired loss (per shipped segment), ACK delay (per delayed-ACK
//! firing), stall episodes (clients by index), backoff (contenders in
//! `who` order), and per MPDU in the air delivery, bad hint, ACK delay.

use super::ap::{ApDatapath, HEADER_BYTES};
use super::cadence::Cadence;
use super::client::{ClientStation, ClientTimers};
use super::config::{TestbedConfig, Traffic};
use super::medium::{Contention, Medium, Who};
use super::report::{SenderStats, TestbedReport};
use super::taps::{Seam, Taps};
use super::wired::{Event, Wired};
use mac80211::aggregation::QueuedMpdu;
use mac80211::protection::{rts_collision_cost, rts_cts_overhead};
use phy80211::airtime::{
    ack_duration, block_ack_duration, control_frame_duration, AirtimeTable, DIFS, SIFS,
};
use phy80211::channels::Width;
use phy80211::error_model::PerCache;
use phy80211::mcs::GuardInterval;
use phy80211::rate::RateCache;
use sim::{EventQueue, Rng, SimDuration, SimTime};
use tcpsim::DataSegment;
use telemetry::{AirKind, CauseId};

/// The interferer's burst period, the share of it the interferer holds
/// the medium, and the effective-SNR degradation while it is on, dB.
const INTERFERER_PERIOD: SimDuration = SimDuration::from_millis(25);
const INTERFERER_DUTY: f64 = 0.35;
const INTERFERER_SNR_PENALTY_DB: f64 = 20.0;

/// Every AP's beacon interval (102.4 ms nominal); beacons ride the
/// legacy basic rate and take airtime whether or not anyone listens.
const BEACON_INTERVAL: SimDuration = SimDuration::from_micros(102_400);

/// Every AP radio's channel width.
pub(super) const WIDTH: Width = Width::W80;

pub(super) struct World {
    pub(super) cfg: TestbedConfig,
    rng: Rng,
    pub(super) queue: EventQueue<Event>,
    pub(super) wired: Wired,
    pub(super) aps: Vec<ApDatapath>,
    pub(super) clients: Vec<ClientStation>,
    client_timers: ClientTimers,
    pub(super) medium: Medium,
    /// Periodic medium holds with the airtime each takes: every AP's
    /// beacon (basic control rate, traffic or not) and the interferer's
    /// bursts once it has switched on.
    beacons: (Cadence, SimDuration),
    interferer: Option<(Cadence, SimDuration)>,
    /// Probe injection clock and probe MSDU size.
    probes: Option<(Cadence, usize)>,
    /// Probe ticks so far, which is the next probe's sequence number.
    probe_seq: u64,
    udp_seq: u64,
    /// Exact memoized rate selection and 1500-byte PER, keyed on SNR
    /// bits (see `RateCache`, `PerCache`).
    rate_cache: RateCache,
    per_cache: PerCache,
}

impl World {
    pub(super) fn new(cfg: TestbedConfig) -> World {
        let mut rng = Rng::new(cfg.seed);
        let clients: Vec<ClientStation> = (0..cfg.n_aps * cfg.clients_per_ap)
            .map(|c| ClientStation::new(&cfg, c, &mut rng))
            .collect();
        // ~120 us for a 300-byte frame + DIFS, per AP.
        let beacon = control_frame_duration(300) + DIFS;
        let beacons = (
            Cadence::new(SimTime::ZERO, BEACON_INTERVAL),
            SimDuration::from_nanos(beacon.as_nanos() * cfg.n_aps as u64),
        );
        let interferer = cfg.interferer.map(|i| {
            let burst =
                SimDuration::from_secs_f64(INTERFERER_PERIOD.as_secs_f64() * INTERFERER_DUTY);
            (Cadence::new(i.at, INTERFERER_PERIOD), burst)
        });
        let probes = cfg.qoe.map(|p| {
            let first = SimTime::ZERO + p.interval();
            let bytes = p.payload_bytes as usize + HEADER_BYTES;
            (Cadence::new(first, p.interval()), bytes)
        });
        World {
            rng,
            queue: EventQueue::new(),
            wired: Wired::new(&cfg),
            aps: (0..cfg.n_aps).map(|a| ApDatapath::new(&cfg, a)).collect(),
            client_timers: ClientTimers::new(&clients),
            clients,
            medium: Medium::default(),
            beacons,
            interferer,
            probes,
            probe_seq: 0,
            udp_seq: 0,
            rate_cache: RateCache::new(WIDTH),
            per_cache: PerCache::new(WIDTH, 1500),
            cfg,
        }
    }

    /// The event loop, up to simulated time `end`: the steps below, in
    /// the order they are written. The order is pinned behaviour — every
    /// step reads the clock the one before it left.
    pub(super) fn run_until(&mut self, end: SimTime, taps: &mut Taps) {
        self.start();
        while self.queue.now() < end {
            self.top_up_udp();
            // 1. Wire events due before the next medium round.
            self.drain_due(taps);
            // 2. Host-plane timers, then the periodic medium holds
            // (beacons, interferer bursts).
            self.poll_timers(taps);
            self.periodic_holds(taps);
            taps.on(self.queue.now(), Seam::BeforeRound(self));
            self.inject_probes(taps);
            // 3. One contention round on the medium, or — medium idle —
            // a jump to whatever fires next.
            if !self.medium_round(taps) && !self.idle_wake(end, taps) {
                break;
            }
            taps.on(self.queue.now(), Seam::AfterRound(self));
        }
    }

    /// Kick every sender (TCP mode).
    fn start(&mut self) {
        if self.cfg.traffic == Traffic::Tcp {
            self.wired.kick(&mut self.rng, &mut self.queue);
        }
    }

    /// UDP mode: connectionless saturation, no ACK clock at all.
    fn top_up_udp(&mut self) {
        if self.cfg.traffic == Traffic::UdpSaturate {
            for ap in &mut self.aps {
                ap.top_up_udp(self.queue.now(), &mut self.udp_seq);
            }
        }
    }

    /// Handle every wire event that is due — the only drain there is.
    fn drain_due(&mut self, taps: &mut Taps) {
        while let Some((at, ev)) = self.queue.pop_due() {
            match ev {
                Event::WireData(ap, seg) => {
                    self.aps[ap].on_wire_data(&seg, at, &mut self.queue, taps)
                }
                Event::WireAck(ack) => self.wired.on_ack(&ack, at, &mut self.rng, &mut self.queue),
            }
        }
    }

    /// Host-plane timers, polled per round: RTOs, bad-hint repairs,
    /// delayed ACKs. Each kind is kept as its owners change, so a poll
    /// visits only what is due (or, for repairs, was touched).
    fn poll_timers(&mut self, taps: &mut Taps) {
        if self.cfg.traffic == Traffic::UdpSaturate {
            return; // no TCP machinery to tick
        }
        let now = self.queue.now();
        self.wired.poll_rto(now, &mut self.rng, &mut self.queue);
        for ap in &mut self.aps {
            ap.poll_repairs(now, &mut self.queue, taps);
        }
        self.client_timers
            .poll_delacks(&mut self.clients, now, &mut self.rng);
    }

    /// Beacons, then interferer bursts: each holds the medium at most
    /// once per round, and stations defer to both alike.
    fn periodic_holds(&mut self, taps: &mut Taps) {
        let beacons = Some((AirKind::Beacon, &mut self.beacons));
        let interferer = self.interferer.as_mut().map(|h| (AirKind::Interferer, h));
        for (kind, (cadence, dur)) in beacons.into_iter().chain(interferer) {
            if cadence.fire(self.queue.now()).is_some() {
                self.medium
                    .hold(kind, *dur, CauseId::NONE, &mut self.queue, taps);
            }
        }
    }

    /// QoE probe injection: one tiny MSDU per client per tick, queued
    /// behind the bulk traffic. Probes ride the normal MAC path —
    /// contention, aggregation, retries — so their one-way delay measures
    /// what an application flow would experience. The MPDU id packs the
    /// probe flow and sequence: the cause joining the tx record to the
    /// MAC's delivery report. Draws no randomness.
    fn inject_probes(&mut self, taps: &mut Taps) {
        let Some((cadence, bytes)) = &mut self.probes else {
            return;
        };
        let nc = self.cfg.clients_per_ap;
        while let Some(at) = cadence.fire(self.queue.now()) {
            let seq = self.probe_seq;
            self.probe_seq += 1;
            for client in 0..self.clients.len() {
                taps.on(at, Seam::ProbeSent { client, seq });
                let id = telemetry::cause_for(qoe::probe_flow(client), seq).0;
                let mpdu = QueuedMpdu { id, bytes: *bytes };
                self.aps[client / nc].enqueue(client % nc, false, mpdu, at);
            }
        }
    }

    /// Run one EDCA contention round and the TXOP (or collision) it ends
    /// in. Returns false if nothing wanted the medium.
    fn medium_round(&mut self, taps: &mut Taps) -> bool {
        let now = self.queue.now();
        self.client_timers
            .roll_stalls(&mut self.clients, now, &mut self.rng);
        let (aps, clients, ready) = (&mut self.aps, &mut self.clients, &self.client_timers.ready);
        match self
            .medium
            .contend(aps, clients, ready, &mut self.rng, &mut self.queue)
        {
            Contention::Idle => return false,
            Contention::Collision => {
                self.medium.hold(
                    AirKind::Collision,
                    rts_collision_cost(),
                    CauseId::NONE,
                    &mut self.queue,
                    taps,
                );
            }
            Contention::Won(Who::Ap(a)) => self.ap_txop(a, taps),
            Contention::Won(Who::Client(c)) => self.client_txop(c, taps),
        }
        true
    }

    /// Medium idle: advance to whatever fires next — a wire event, an
    /// RTO, a delayed-ACK timer, a client-side ACK release, a bad-hint
    /// repair, an interferer burst or a probe tick — and drain what is
    /// due there. Returns false when nothing fires before `end`.
    fn idle_wake(&mut self, end: SimTime, taps: &mut Taps) -> bool {
        let wake = [
            self.queue.peek_time(),
            self.wired.next_rto(),
            self.interferer.as_ref().map(|(c, _)| c.next()),
            self.probes.as_ref().map(|(c, _)| c.next()),
            self.client_timers.next_wake(),
        ]
        .into_iter()
        .flatten()
        .chain(self.aps.iter().filter_map(ApDatapath::repair_deadline))
        .min();
        match wake {
            Some(t) if t < end => {
                self.queue.advance_to(t.max(self.queue.now()));
                self.drain_due(taps);
                true
            }
            _ => false,
        }
    }

    // -- wireless plane ----------------------------------------------------

    /// Effective-SNR degradation from the interferer, dB (0 before it
    /// switches on or when no fault is configured).
    fn snr_penalty(&self, now: SimTime) -> f64 {
        match self.cfg.interferer {
            Some(i) if now >= i.at => INTERFERER_SNR_PENALTY_DB,
            _ => 0.0,
        }
    }

    /// AP `a` won a TXOP: serve the next backlogged client with an
    /// A-MPDU.
    fn ap_txop(&mut self, a: usize, taps: &mut Taps) {
        let Some(slot) = self.aps[a].next_slot() else {
            self.aps[a].backoff.on_success();
            return;
        };
        let ci = a * self.cfg.clients_per_ap + slot;
        let (flow, link) = (self.clients[ci].flow, self.clients[ci].link);
        // Rate from the client's SNR (degraded while an interferer is
        // active — rate control reacts to the noise floor it measures).
        let snr_db = link.snr_db - self.snr_penalty(self.queue.now());
        let rate = self.rate_cache.select(link.max_nss, snr_db);
        let Some(ampdu) = self.aps[a].build(slot, rate) else {
            self.aps[a].backoff.on_success();
            return;
        };
        let ampdu = &ampdu;
        taps.on(self.queue.now(), Seam::Ampdu { ap: a, flow, ampdu });
        self.clients[ci].note_aggregate(ampdu.size());

        // Airtime: protection + data + SIFS + BlockAck.
        let air = rts_cts_overhead() + ampdu.duration + SIFS + block_ack_duration();
        self.medium
            .hold(AirKind::ApTxop, air, ampdu.cause(), &mut self.queue, taps);
        let now = self.queue.now();

        // Per-MPDU delivery draws. The cache returns the exact
        // `mpdu_success_rate` value, so `1.0 - …` is bitwise what the
        // uncached expression produced (NOT `per_cache.error_rate`,
        // which differs in the last ulp from `1 - (1 - per)`).
        let per = 1.0 - self.per_cache.success_rate(snr_db - 1.0, rate.mcs);
        let mut staged = std::mem::take(&mut self.aps[a].staged);
        let mut acked = 0;
        for (mpdu, enq) in staged.drain(..) {
            let delivered = !self.rng.chance(per);
            let id = mpdu.id;
            taps.on(now, Seam::Mpdu { id, enq, delivered });
            if delivered {
                acked += 1;
                self.deliver(a, ci, mpdu, now, taps);
            } else {
                // MAC retransmission: back to the head-of-line stage so
                // it leads the next TXOP for this client.
                self.aps[a].enqueue(slot, true, mpdu, enq);
            }
        }
        self.aps[a].staged = staged;
        taps.on(now, Seam::BlockAck { flow, ampdu, acked });

        if acked > 0 {
            self.aps[a].backoff.on_success();
        } else if self.aps[a].backoff.on_failure() {
            // Whole-PPDU loss: no BlockAck came back, a failed attempt
            // (CW doubles) — and this one hit the retry limit.
            self.aps[a].drop_retries(slot, now, taps);
        }
    }

    /// An MPDU the MAC delivered reaches client `ci`'s stack.
    fn deliver(&mut self, a: usize, ci: usize, mpdu: QueuedMpdu, now: SimTime, taps: &mut Taps) {
        let cause = CauseId(mpdu.id);
        // Probes carry no TCP payload: they bypass the transport and
        // throughput accounting.
        if qoe::probe_client(cause.flow_hint()).is_some() {
            return;
        }
        // Every data MPDU is built with `bytes = len + HEADER_BYTES`, so
        // the segment length is recovered from the MPDU itself.
        let len = (mpdu.bytes - HEADER_BYTES) as u32;
        if self.cfg.traffic == Traffic::UdpSaturate {
            self.clients[ci].bytes += len as u64;
            self.aps[a].bytes_delivered += len as u64;
            return;
        }
        let (flow, seq) = (self.clients[ci].flow, cause.seq_hint());
        // Bad hint: the MAC reports success but the transport never sees
        // the segment (FastACK-signal pathology; see the field's doc).
        let bad_hint = self.cfg.fastack[a] && self.rng.chance(self.cfg.bad_hint_rate);
        // FastACK observes the 802.11 ACK either way.
        self.aps[a].agent_hook(flow, now, &mut self.queue, taps, |agent, out| {
            agent.on_mac_ack_into(flow, seq, len, out)
        });
        if bad_hint {
            return;
        }
        let seg = DataSegment {
            flow,
            seq,
            len,
            retransmit: false,
        };
        let newly = self.clients[ci].receive(&seg, now, &mut self.rng);
        self.client_timers.update(ci, &self.clients[ci]);
        self.aps[a].bytes_delivered += newly;
    }

    /// Client `c` won a TXOP: every *released* pending TCP ACK rides one
    /// short uplink burst (they are tiny frames), modelled as one small
    /// A-MPDU at the client's uplink rate.
    fn client_txop(&mut self, c: usize, taps: &mut Taps) {
        let now = self.queue.now();
        // The uplink burst joins the chain of its head ACK.
        let (n, cause) = self.clients[c].burst(now);
        if n == 0 {
            self.clients[c].backoff.on_success();
            return;
        }
        let link = self.clients[c].link;
        // Uplink slightly worse; the interferer hits it too.
        let rate = self
            .rate_cache
            .select(link.max_nss, link.snr_db - 2.0 - self.snr_penalty(now));
        // Uniform 90-byte ACK MPDUs (TCP ACK + MAC overhead): the
        // airtime table computes the burst without building a sizes Vec.
        let dur = AirtimeTable::new(rate.mcs, rate.nss, WIDTH, GuardInterval::Short)
            .map(|t| t.ampdu_duration_uniform(n, 90))
            .unwrap_or(ack_duration());
        let air = dur + SIFS + block_ack_duration();
        self.medium
            .hold(AirKind::ClientTxop, air, cause, &mut self.queue, taps);
        let now = self.queue.now();
        let ap = c / self.cfg.clients_per_ap;
        for _ in 0..n {
            let ack = self.clients[c].pop_ack().expect("n bounded");
            taps.on(now, Seam::ClientAck(&ack));
            self.aps[ap].agent_hook(ack.flow, now, &mut self.queue, taps, |agent, out| {
                agent.on_client_ack_into(&ack, out)
            });
        }
        self.client_timers.update(c, &self.clients[c]);
        self.clients[c].backoff.on_success();
    }

    // -- results -------------------------------------------------------------

    /// The report fields that are the world's own state at `end`.
    pub(super) fn summarize(&self, end: SimTime) -> TestbedReport {
        let dur = end.as_secs_f64().max(1e-9);
        let mbps = |bytes: u64| bytes as f64 * 8.0 / dur / 1e6;
        let clients = self.clients.iter();
        let stats = |s: &tcpsim::TcpSender| SenderStats {
            acked_bytes: s.acked_bytes(),
            cwnd_segments: s.cwnd_segments(),
            retransmits: s.retransmit_count,
            fast_retransmits: s.fast_retransmit_count,
            timeouts: s.timeout_count,
            srtt_ms: s.srtt().map(|d| d.as_secs_f64() * 1e3).unwrap_or(0.0),
        };
        TestbedReport {
            duration_s: dur,
            client_bytes: clients.clone().map(|c| c.bytes).collect(),
            client_mbps: clients.clone().map(|c| mbps(c.bytes)).collect(),
            client_aggregation: clients.map(ClientStation::mean_aggregate).collect(),
            ap_mbps: self.aps.iter().map(|a| mbps(a.bytes_delivered)).collect(),
            agent_stats: self.aps.iter().map(|a| a.agent.stats).collect(),
            sender_stats: self.wired.senders.iter().map(stats).collect(),
            medium_utilization: self.medium.busy.as_secs_f64() / dur,
            ..TestbedReport::default()
        }
    }
}
