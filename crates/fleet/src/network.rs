//! One cloud-managed network: its planner view, its tiered scheduler,
//! its private RNG streams, and the telemetry it reports upward.

use crate::report::NetworkReport;
use crate::FleetConfig;
use chanassign::model::Plan;
use chanassign::{Scheduler, TurboCa};
use netsim::deployment::{to_view, UtilizationProfile, ViewOptions};
use netsim::neteval::{evaluate, EvalOptions};
use netsim::population::ClientCaps;
use netsim::topology;
use phy80211::channels::Band;
use sim::{derive_stream_seed, Rng, SimTime};
use telemetry::health::{ChannelFlap, ChannelFlapRule};
use telemetry::stats::Cdf;
use telemetry::{CounterId, FlightDump, HealthEngine, HistId, Registry};

/// A network under fleet management. Everything it does is driven by
/// RNG streams derived from `(master_seed, id)` alone, so its entire
/// trajectory is independent of which shard/thread hosts it.
pub struct ManagedNetwork {
    pub id: u64,
    pub seed: u64,
    pub view: chanassign::NetworkView,
    caps: Vec<Vec<ClientCaps>>,
    sched: Scheduler,
    /// Collection-noise stream (utilization polls, RF churn).
    rng: Rng,
    /// Per-tick utilization polls, both radios: `(when, value)`.
    pub util_2_4: Vec<(SimTime, f64)>,
    pub util_5: Vec<(SimTime, f64)>,
    /// Filled by [`ManagedNetwork::finalize`].
    pub report: Option<NetworkReport>,
    /// Per-network epoch-health registry. Every network registers the
    /// same paths, so the controller's id-order merge sums them into
    /// fleet totals — deterministically for any shard/thread count,
    /// because each registry is driven by this network's private RNG
    /// stream alone.
    pub metrics: Registry,
    c_ticks: CounterId,
    c_polls: CounterId,
    c_churn: CounterId,
    /// Live channel-switch counter (updated every epoch so the health
    /// engine sees the churn as it happens, not only at finalize).
    c_switches: CounterId,
    /// Switches already folded into `c_switches`.
    counted_switches: usize,
    /// Per-network health engine — channel-flap over the live switch
    /// counter, stepped once per epoch.
    health: HealthEngine,
    h_util_2_4: HistId,
    h_util_5: HistId,
}

impl ManagedNetwork {
    /// Deterministically synthesize network `id` of the fleet.
    pub fn generate(cfg: &FleetConfig, id: u64) -> ManagedNetwork {
        let seed = derive_stream_seed(cfg.master_seed, id);
        let mut rng = Rng::new(seed);
        let n_aps = rng.range_inclusive(cfg.aps_min, cfg.aps_max) as usize;
        // ~350 m^2 per AP, as in the planning benchmarks.
        let area = (n_aps as f64 * 350.0).sqrt();
        let topo = topology::random_area(n_aps, area, area, Band::Band5, &mut rng);
        let (view, caps) = to_view(&topo, &ViewOptions::default(), &mut rng);
        let mut planner = TurboCa::new(rng.next_u64());
        planner.runs_per_tier = cfg.nbo_runs;
        let mut metrics = Registry::new();
        let c_ticks = metrics.counter("fleet.net.epochs");
        let c_polls = metrics.counter("fleet.net.polls");
        let c_churn = metrics.counter("fleet.net.churn_events");
        let h_util_2_4 = metrics.histogram("fleet.net.util_2_4", 0.0, 1.0, 20);
        let h_util_5 = metrics.histogram("fleet.net.util_5", 0.0, 1.0, 20);
        let c_switches = metrics.counter("fleet.net.channel_switches");
        let mut health = HealthEngine::new();
        health.add(Box::new(ChannelFlap::new(
            "sched",
            "fleet.net.channel_switches",
            ChannelFlapRule::default(),
        )));
        ManagedNetwork {
            id,
            seed,
            view,
            caps,
            sched: Scheduler::new(planner),
            rng,
            util_2_4: Vec::new(),
            util_5: Vec::new(),
            report: None,
            metrics,
            c_ticks,
            c_polls,
            c_churn,
            c_switches,
            counted_switches: 0,
            health,
            h_util_2_4,
            h_util_5,
        }
    }

    /// Fold any new channel switches into the live counter.
    fn sync_switches(&mut self) {
        let total = self.sched.total_switches();
        self.metrics
            .add(self.c_switches, (total - self.counted_switches) as u64);
        self.counted_switches = total;
    }

    /// One fleet epoch for this network: **collect** (poll both radios'
    /// utilization, apply RF churn to the view), then **plan + push**
    /// (run the tiered scheduler if due; accepted plans mutate the view,
    /// which is the "push" back to the APs).
    pub fn on_tick(&mut self, now: SimTime, cfg: &FleetConfig) {
        self.metrics.inc(self.c_ticks);
        for ap in 0..self.view.len() {
            let u24 = UtilizationProfile::FLEET_2_4.sample(&mut self.rng);
            let u5 = cfg.profile_5.sample(&mut self.rng);
            self.metrics.add(self.c_polls, 2);
            self.metrics.observe(self.h_util_2_4, u24);
            self.metrics.observe(self.h_util_5, u5);
            self.util_2_4.push((now, u24));
            self.util_5.push((now, u5));
            // RF churn: occasionally an external interferer appears or
            // fades on one of the channels the AP is tracking, so fast
            // ticks keep finding real work after initial convergence.
            if self.rng.chance(cfg.rf_churn) {
                let tracked = &mut self.view.aps[ap].external_busy;
                if !tracked.is_empty() {
                    let pick = self.rng.below(tracked.len() as u64) as usize;
                    let level = tracked.values_mut().nth(pick).expect("pick < len");
                    *level = cfg.profile_5.sample(&mut self.rng);
                    self.metrics.inc(self.c_churn);
                }
            }
        }
        if self.sched.next_due() <= now {
            self.sched.tick(now, &mut self.view);
        }
        self.sync_switches();
        self.health.step(now, &self.metrics);
    }

    /// Evaluate the final plan and summarize this network's run.
    pub fn finalize(&mut self) {
        let mut eval_rng = self.rng.fork();
        let metrics = evaluate(
            &self.view,
            &Plan::current(&self.view),
            &self.caps,
            &EvalOptions::default(),
            &mut eval_rng,
        );
        let lat = Cdf::new(&metrics.tcp_latency_ms);
        let pq = |q: f64| lat.quantile(q).unwrap_or(0.0);
        let mean_goodput = if metrics.ap_goodput_mbps.is_empty() {
            0.0
        } else {
            metrics.ap_goodput_mbps.iter().sum::<f64>() / metrics.ap_goodput_mbps.len() as f64
        };
        let plans_run = self.sched.history.len();
        let accepted = self.sched.history.iter().filter(|r| r.accepted).count();
        let switches = self.sched.total_switches();
        self.metrics.count("fleet.net.aps", self.view.len() as u64);
        self.metrics.count("fleet.net.plans_run", plans_run as u64);
        self.metrics
            .count("fleet.net.plans_accepted", accepted as u64);
        // Switches are counted live in `on_tick`; catch any stragglers.
        self.sync_switches();
        let health =
            std::mem::replace(&mut self.health, HealthEngine::new()).finish(&FlightDump::default());
        self.report = Some(NetworkReport {
            id: self.id,
            seed: self.seed,
            n_aps: self.view.len(),
            plans_run,
            accepted,
            switches,
            final_net_p_ln: self.sched.current_net_p_ln(&self.view),
            channels: self.view.aps.iter().map(|a| a.current.primary).collect(),
            tcp_p50_ms: pq(0.50),
            tcp_p90_ms: pq(0.90),
            tcp_p99_ms: pq(0.99),
            mean_goodput_mbps: mean_goodput,
            // The fleet model has no per-packet probes; score the
            // network through the same penalty curve from its latency
            // distribution (p90−p50 spread standing in for jitter).
            qoe_score: qoe::score(&qoe::QoeDims {
                delay_p50_ms: pq(0.50),
                delay_p99_ms: pq(0.99),
                jitter_p50_ms: (pq(0.90) - pq(0.50)).max(0.0) * 0.5,
                loss: 0.0,
                reorder: 0.0,
            }),
            util_2_4: std::mem::take(&mut self.util_2_4),
            util_5: std::mem::take(&mut self.util_5),
            health,
        });
    }
}
