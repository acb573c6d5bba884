//! The planner's working representation: reports indexed by *slot*
//! (position in the band's 20 MHz table, `phy80211::channels::slot_of`)
//! instead of by channel-number map, and a maintained count of
//! contending neighbours per AP per slot.
//!
//! Three layers, each built from the `&NetworkView` a call is handed and
//! dropped when it returns — nothing outlives a call, because the fleet
//! rewrites `external_busy` between plans and a plan must be a function
//! of its view and seed alone:
//!
//! * [`ApRow`] — one AP's report as flat arrays, plus **the** NodeP
//!   formula. Everything that scores a channel, from the public
//!   one-shot [`crate::metrics::node_p_ln`] to ACC's inner loop, calls
//!   [`ApRow::node_p_ln`]; callers differ only in where the contender
//!   counts come from ([`count`] over one neighbour list, or the
//!   maintained matrix below).
//! * [`Partial`] — a partial plan (`None` = in ψ) over a set of rows and
//!   `contenders[v][slot]`: how many entries of `v`'s neighbour list
//!   sit on a channel whose spectrum covers `slot`. NBO keeps it current
//!   in O(listeners × width) as it hides a group and fixes each member
//!   ([`Partial::lift`] / [`Partial::place`]), so airtime is a minimum
//!   over at most eight slots and NetP is one sweep. [`Partial::acc`]
//!   scores every neighbour once with `v` silent and re-scores, per
//!   candidate, only those that hear `v` on a slot the candidate covers.
//! * [`ViewIndex`] — what no assignment changes: the rows, who hears
//!   whom (reverse adjacency, one entry per listing, since scanned
//!   neighbour lists may be asymmetric or repeat an AP) and NBO's load
//!   weights.
//!
//! **Bit identity.** Plans, fallbacks and `ln NetP` bit patterns are
//! pinned (`tests/planner_golden.rs`, the benchmark's digests), so every
//! f64 operation keeps the order and form it had when the formula read
//! maps: the share is a division by `1 + n`, the quality mean sums then
//! divides, NodeP terms add narrow → wide, ACC adds its own score then
//! the neighbours' in list order. `reference.rs` (test-only) keeps the
//! map-reading formula and a proptest compares the two bit for bit.

use crate::metrics::MetricParams;
use crate::model::{ApReport, NetworkView};
use phy80211::channels::{slot_mask, slot_of, Band, Channel, Width, US_5GHZ_20};
use std::ops::Range;

/// Slots in the larger band table; 2.4 GHz uses the first eleven.
const MAX_SLOTS: usize = US_5GHZ_20.len();

/// One AP's report by slot.
pub(crate) struct ApRow {
    band: Band,
    /// External utilization, 0 where none was reported.
    busy: [f64; MAX_SLOTS],
    /// Channel quality, 1 where none was reported.
    quality: [f64; MAX_SLOTS],
    /// `load.at_width(b)` for `b` in `Width::ALL`.
    load: [f64; 4],
    has_clients: bool,
}

impl ApRow {
    pub(crate) fn new(band: Band, ap: &ApReport) -> ApRow {
        let mut row = ApRow {
            band,
            busy: [0.0; MAX_SLOTS],
            quality: [1.0; MAX_SLOTS],
            load: Width::ALL.map(|b| ap.load.at_width(b)),
            has_clients: ap.has_clients,
        };
        // Numbers the band lacks can never be under a legal channel.
        for (&ch20, &busy) in &ap.external_busy {
            if let Some(slot) = slot_of(band, ch20) {
                row.busy[slot] = busy;
            }
        }
        for (&ch20, &quality) in &ap.quality {
            if let Some(slot) = slot_of(band, ch20) {
                row.quality[slot] = quality;
            }
        }
        row
    }

    /// Airtime share on the bond over `slots`: per slot, what external
    /// networks leave split evenly with the contenders; the bond gets
    /// its worst slot, because interference on any one stalls the whole
    /// transmission (§4.1.1).
    pub(crate) fn airtime(&self, slots: Range<usize>, contenders: impl Fn(usize) -> usize) -> f64 {
        let mut worst: f64 = 1.0;
        for slot in slots {
            let share = (1.0 - self.busy[slot]).max(0.0) / (1.0 + contenders(slot) as f64);
            worst = worst.min(share);
        }
        worst
    }

    /// Capacity factor of the `width`-wide bond over `slots`: mean
    /// quality scaled by the width gain.
    pub(crate) fn capacity(&self, slots: Range<usize>, width: Width) -> f64 {
        let n = slots.len();
        let q: f64 = self.quality[slots].iter().sum::<f64>() / n as f64;
        q * (width.mhz() as f64 / 20.0)
    }

    /// Penalty for moving from `current` to `cand` (0 when staying).
    pub(crate) fn switch_penalty(
        &self,
        params: &MetricParams,
        current: Channel,
        cand: Channel,
    ) -> f64 {
        if cand == current {
            return 0.0;
        }
        let mut p = if self.has_clients {
            params.switch_penalty_with_clients
        } else {
            params.switch_penalty_idle
        };
        if self.band == Band::Band2_4 && self.has_clients {
            p += params.penalty_2_4ghz_extra;
        }
        // §4.5.1: hysteresis under very high utilization — a near-saturated
        // *candidate* costs extra, because above ~90 % utilization small
        // variations halve NetP and would otherwise cause switch flapping.
        let cand_util = cand.slots().map_or(0.0, |slots| {
            self.busy[slots].iter().copied().fold(0.0, f64::max)
        });
        if cand_util > params.high_util_threshold {
            p += params.high_util_extra;
        }
        p
    }

    /// `ln NodeP` of this AP on `cand`, `contenders(slot)` of its
    /// neighbours sharing each slot. `f64::NEG_INFINITY` when any loaded
    /// width's channel_metric is non-positive (the paper's NodeP → 0).
    pub(crate) fn node_p_ln(
        &self,
        params: &MetricParams,
        current: Channel,
        cand: Channel,
        contenders: impl Fn(usize) -> usize,
    ) -> f64 {
        let penalty = self.switch_penalty(params, current, cand);
        let mut total = 0.0;
        for (&b, &load) in cand.width.up_to().iter().zip(&self.load) {
            let load = if b == Width::W20 {
                load.max(params.idle_epsilon_load)
            } else {
                load
            };
            if load <= 0.0 {
                continue; // property (ii): unreachable widths contribute nothing
            }
            let bond = Channel {
                band: cand.band,
                primary: cand.primary,
                width: b,
            };
            let Some(slots) = bond.slots() else {
                return f64::NEG_INFINITY; // not a legal channel
            };
            let metric =
                self.airtime(slots.clone(), &contenders) * self.capacity(slots, b) - penalty;
            if metric <= 0.0 {
                return f64::NEG_INFINITY;
            }
            total += load * metric.ln();
        }
        total
    }
}

/// Call `f` with every slot of `footprint`.
fn each_slot(mut footprint: u32, mut f: impl FnMut(usize)) {
    while footprint != 0 {
        f(footprint.trailing_zeros() as usize);
        footprint &= footprint - 1;
    }
}

/// Where `ch` contends in a view of `band`: its footprint, or nowhere
/// for a channel of the other band.
fn footprint_in(band: Band, ch: Channel) -> u32 {
    if ch.band == band {
        ch.footprint()
    } else {
        0
    }
}

/// Contenders per slot read off one neighbour list: how many entries of
/// `neighbors` sit, in `plan_channels`, on a channel covering each slot.
/// ψ holes, indices past the plan's end and the AP `silent` count for
/// nothing.
pub(crate) fn count(
    band: Band,
    neighbors: &[usize],
    plan_channels: &[Option<Channel>],
    silent: Option<usize>,
) -> [u32; MAX_SLOTS] {
    let mut counts = [0; MAX_SLOTS];
    for &n in neighbors {
        if let (false, Some(Some(nc))) = (Some(n) == silent, plan_channels.get(n)) {
            each_slot(footprint_in(band, *nc), |slot| counts[slot] += 1);
        }
    }
    counts
}

/// A partial plan over some rows, with the contender counts it implies.
pub(crate) struct Partial<'a> {
    band: Band,
    rows: &'a [ApRow],
    /// `None` = in ψ, or not placed yet.
    pub(crate) channels: Vec<Option<Channel>>,
    /// `contenders[v]`: [`count`] over `v`'s neighbour list.
    contenders: Vec<[u32; MAX_SLOTS]>,
    /// ACC's per-neighbour scratch, kept between calls.
    silent: Vec<(f64, u32)>,
}

impl<'a> Partial<'a> {
    /// `channels` over `rows`, `contenders[v]` being [`count`] over the
    /// neighbour list of `rows[v]`'s AP.
    pub(crate) fn new(
        band: Band,
        rows: &'a [ApRow],
        channels: Vec<Option<Channel>>,
        contenders: Vec<[u32; MAX_SLOTS]>,
    ) -> Partial<'a> {
        Partial {
            band,
            rows,
            channels,
            contenders,
            silent: Vec::new(),
        }
    }

    /// `channels` over the whole of `view`, whose rows are `rows`.
    pub(crate) fn over(
        view: &NetworkView,
        rows: &'a [ApRow],
        channels: Vec<Option<Channel>>,
    ) -> Partial<'a> {
        let contenders = view
            .aps
            .iter()
            .map(|ap| count(view.band, &ap.neighbors, &channels, None))
            .collect();
        Partial::new(view.band, rows, channels, contenders)
    }

    /// Put `m`, currently in ψ, on `ch`; `heard_by` lists who counts it.
    pub(crate) fn place(&mut self, m: usize, ch: Channel, heard_by: &[usize]) {
        debug_assert!(self.channels[m].is_none());
        self.channels[m] = Some(ch);
        for &u in heard_by {
            let counts = &mut self.contenders[u];
            each_slot(footprint_in(self.band, ch), |slot| counts[slot] += 1);
        }
    }

    /// Move `m` into ψ: its channel stops contending.
    pub(crate) fn lift(&mut self, m: usize, heard_by: &[usize]) {
        if let Some(ch) = self.channels[m].take() {
            for &u in heard_by {
                let counts = &mut self.contenders[u];
                each_slot(footprint_in(self.band, ch), |slot| counts[slot] -= 1);
            }
        }
    }

    /// `ln NodeP` of `v` on `cand`, with `extra` more contenders on every
    /// slot of `footprint` than the plan holds.
    fn node_p_ln(
        &self,
        params: &MetricParams,
        current: &[Channel],
        v: usize,
        cand: Channel,
        (footprint, extra): (u32, u32),
    ) -> f64 {
        let counts = &self.contenders[v];
        self.rows[v].node_p_ln(params, current[v], cand, |slot| {
            (counts[slot] + extra * (footprint >> slot & 1)) as usize
        })
    }

    /// `ln NetP` of the plan, which must be complete, for APs whose
    /// pre-plan channels are `current`.
    pub(crate) fn net_p_ln(&self, params: &MetricParams, current: &[Channel]) -> f64 {
        let mut total = 0.0;
        for v in 0..self.rows.len() {
            let ch = self.channels[v].expect("NetP is defined on complete plans");
            let np = self.node_p_ln(params, current, v, ch, (0, 0));
            if np == f64::NEG_INFINITY {
                return f64::NEG_INFINITY;
            }
            total += np;
        }
        total
    }

    /// ACC(v, ψ): the first of `cands` maximizing NodeP of `v` plus NodeP
    /// of each entry of `neighbors` (the APs `v` hears, in list order,
    /// repeats and `v` itself included) that has a channel. `v` must be
    /// in ψ; `hears_v[k]` says how many times `neighbors[k]` lists `v`,
    /// i.e. how many contenders `v`'s choice adds there.
    pub(crate) fn acc(
        &mut self,
        params: &MetricParams,
        current: &[Channel],
        v: usize,
        cands: &[Channel],
        neighbors: &[usize],
        hears_v: &[u32],
    ) -> Channel {
        debug_assert!(self.channels[v].is_none());
        let hears_self = neighbors
            .iter()
            .position(|&n| n == v)
            .map_or(0, |k| hears_v[k]);
        // Per neighbour: its NodeP with `v` silent, and the slots on which
        // `v` can change that — its own, if it hears `v` at all. Only a
        // candidate covering one of those is worth a second look.
        let mut silent = std::mem::take(&mut self.silent);
        silent.clear();
        silent.extend(
            neighbors
                .iter()
                .zip(hears_v)
                .map(|(&n, &hears)| match self.channels[n] {
                    Some(nc) => (
                        self.node_p_ln(params, current, n, nc, (0, 0)),
                        nc.slots().filter(|_| hears > 0).map_or(0, slot_mask),
                    ),
                    None => (0.0, 0),
                }),
        );
        let mut best: Option<(f64, Channel)> = None;
        for &cand in cands {
            let footprint = footprint_in(self.band, cand);
            let own = self.node_p_ln(params, current, v, cand, (footprint, hears_self));
            let mut score = own;
            if score > f64::NEG_INFINITY {
                for (k, &n) in neighbors.iter().enumerate() {
                    let np = if n == v {
                        own // v lists itself: on the candidate, scored again
                    } else if let Some(nc) = self.channels[n] {
                        let (unmoved, reach) = silent[k];
                        if reach & footprint == 0 {
                            unmoved
                        } else {
                            self.node_p_ln(params, current, n, nc, (footprint, hears_v[k]))
                        }
                    } else {
                        continue;
                    };
                    if np == f64::NEG_INFINITY {
                        score = f64::NEG_INFINITY;
                        break;
                    }
                    score += np;
                }
            }
            match best {
                Some((bs, _)) if bs >= score => {}
                _ => best = Some((score, cand)),
            }
        }
        self.silent = silent;
        best.map(|(_, c)| c).unwrap_or(current[v])
    }
}

/// What a view fixes for every plan made on it.
pub(crate) struct ViewIndex<'a> {
    pub(crate) view: &'a NetworkView,
    pub(crate) rows: Vec<ApRow>,
    /// `heard_by[m]`: every AP listing `m` as a neighbour, once per
    /// listing.
    pub(crate) heard_by: Vec<Vec<usize>>,
    /// [`hears_back`] of every AP.
    pub(crate) hears_back: Vec<Vec<u32>>,
    /// NBO's ordering weight: total load, floored so idle APs can be drawn.
    pub(crate) weight: Vec<f64>,
}

impl<'a> ViewIndex<'a> {
    pub(crate) fn new(view: &'a NetworkView) -> ViewIndex<'a> {
        let mut heard_by = vec![Vec::new(); view.len()];
        for (u, ap) in view.aps.iter().enumerate() {
            for &m in &ap.neighbors {
                heard_by[m].push(u);
            }
        }
        let hears_back = (0..view.len()).map(|m| hears_back(view, m)).collect();
        ViewIndex {
            view,
            rows: rows(view),
            heard_by,
            hears_back,
            weight: view
                .aps
                .iter()
                .map(|ap| ap.load.total().max(1e-3))
                .collect(),
        }
    }
}

/// For each AP `v` hears, in list order: how many times it lists `v` —
/// the contenders `v`'s channel puts on it.
pub(crate) fn hears_back(view: &NetworkView, v: usize) -> Vec<u32> {
    let listings = |n: usize| view.aps[n].neighbors.iter().filter(|&&x| x == v).count() as u32;
    view.aps[v].neighbors.iter().map(|&n| listings(n)).collect()
}

/// One row per AP of `view`.
pub(crate) fn rows(view: &NetworkView) -> Vec<ApRow> {
    view.aps
        .iter()
        .map(|ap| ApRow::new(view.band, ap))
        .collect()
}
