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
//!   formula. A report does not change while a view is planned on and
//!   the band's legal blocks never change (`phy80211::channels::blocks`),
//!   so the row holds every term of the formula no assignment moves:
//!   per slot what external networks leave free, per block the capacity
//!   factor and the peak external utilization. Scoring a channel is then
//!   a division per slot, a `min` and one `ln` per loaded width.
//!   Everything that scores a channel, from the public one-shot
//!   [`crate::metrics::node_p_ln`] to ACC's inner loop, calls
//!   [`ApRow::node_p_ln`]; callers differ only in where the contender
//!   counts come from ([`count`] over one neighbour list, or the
//!   maintained matrix below).
//! * [`Partial`] — a partial plan (`None` = in ψ) over a set of rows and
//!   `contenders[v][slot]`: how many entries of `v`'s neighbour list
//!   sit on a channel whose spectrum covers `slot`. NBO keeps it current
//!   in O(listeners × width) as it hides a group and fixes each member
//!   ([`Partial::lift`] / [`Partial::place`]), so airtime is a minimum
//!   over at most eight slots and NetP is one sweep. [`Partial::acc`]
//!   scores every neighbour once with `v` silent, keeping each loaded
//!   width's airtime and term, bounds every candidate from that, and
//!   scores in full only a candidate whose bound can still win —
//!   re-scoring only neighbours that hear `v` on a slot the candidate
//!   covers, and of those, taking a new `ln` only for a width whose
//!   airtime the candidate lowers. [`Partial::star`] writes out all ACC
//!   reads of the plan for one AP, so NBO can tell a call it has
//!   already solved from one it has not.
//! * [`ViewIndex`] — what no assignment changes: the rows, the
//!   neighbour lists without entries past the view's end, who hears
//!   whom (reverse adjacency, one entry per listing, since scanned
//!   neighbour lists may be asymmetric or repeat an AP) and NBO's load
//!   weights.
//!
//! **Bit identity.** Plans, fallbacks and `ln NetP` bit patterns are
//! pinned (`tests/planner_golden.rs`, the benchmark's digests), so every
//! f64 operation keeps the order and form it had when the formula read
//! maps: the share is a division by `1 + n`, the quality mean sums then
//! divides, NodeP terms add narrow → wide, ACC adds its own score then
//! the neighbours' in list order. Hoisting a term into the row computes
//! it once with the expression it always had; reusing a width's term is
//! safe because the term is a function of the row, the switch penalty,
//! the load and the airtime alone, so equal airtime bits give equal term
//! bits. ACC skips a candidate only when it provably cannot be picked:
//! `v` taking a channel only adds contenders, which can only lower a
//! neighbour's airtime (a division by a larger `1 + n`, a `min`, a
//! product and a difference are all monotone in IEEE arithmetic), so a
//! neighbour's score with `v` silent bounds its score under every
//! candidate; the relative margin of 1e-9 added to the bound covers the
//! rounding between its summation order and ACC's (≈ 1e-14 at a hundred
//! terms) and libm `ln`, which is not proven monotone. A candidate
//! scored in full takes the lead on a higher score, or on an equal one
//! from earlier in `cands` — the exhaustive loop's first-best rule, held
//! there by the `planner.acc.ties` pin and a tie-view proptest.
//! `reference.rs` (test-only) states the formula as printed, over the
//! channel-number maps, and proptests compare the two bit for bit.

use crate::metrics::MetricParams;
use crate::model::{ApReport, NetworkView};
use phy80211::channels::{
    blocks, slot_mask, slot_of, Band, Block, Channel, Width, MAX_BLOCKS, US_5GHZ_20,
};
use std::ops::Range;

/// Slots in the larger band table; 2.4 GHz uses the first eleven.
const MAX_SLOTS: usize = US_5GHZ_20.len();

/// Utilization above which a candidate costs
/// [`MetricParams::high_util_extra`] more to switch to.
pub(crate) const HIGH_UTIL_THRESHOLD: f64 = 0.9;
/// Load weight assumed for an AP with zero clients, so idle APs still
/// weakly prefer clean channels instead of being indifferent.
pub(crate) const IDLE_EPSILON_LOAD: f64 = 0.05;

/// One AP's report by slot and by block.
pub(crate) struct ApRow {
    band: Band,
    /// What external networks leave of each slot: `(1 − busy).max(0)`,
    /// all of it where no utilization was reported.
    free: [f64; MAX_SLOTS],
    /// By `Block::index`: mean quality over the block's slots (1 where
    /// none was reported) scaled by the width gain.
    capacity: [f64; MAX_BLOCKS],
    /// By `Block::index`: the highest external utilization under it.
    peak_busy: [f64; MAX_BLOCKS],
    /// `load.at_width(b)` for `b` in `Width::ALL`.
    load: [f64; 4],
    has_clients: bool,
}

/// One loaded width of a channel's NodeP product, as scored.
#[derive(Clone, Copy)]
pub(crate) struct Term {
    block: &'static Block,
    load: f64,
    /// Its airtime share.
    share: f64,
    /// `load · ln channel_metric`: what the width adds to `ln NodeP`.
    ln: f64,
}

impl ApRow {
    pub(crate) fn new(band: Band, ap: &ApReport) -> ApRow {
        // Numbers the band lacks can never be under a legal channel.
        let mut busy = [0.0; MAX_SLOTS];
        for (&ch20, &b) in &ap.external_busy {
            if let Some(slot) = slot_of(band, ch20) {
                busy[slot] = b;
            }
        }
        let mut quality = [1.0; MAX_SLOTS];
        for (&ch20, &q) in &ap.quality {
            if let Some(slot) = slot_of(band, ch20) {
                quality[slot] = q;
            }
        }
        let mut row = ApRow {
            band,
            free: busy.map(|b| (1.0 - b).max(0.0)),
            capacity: [0.0; MAX_BLOCKS],
            peak_busy: [0.0; MAX_BLOCKS],
            load: Width::ALL.map(|b| ap.load.at_width(b)),
            has_clients: ap.has_clients,
        };
        for block in blocks(band) {
            let slots = block.slots();
            let q: f64 = quality[slots.clone()].iter().sum::<f64>() / slots.len() as f64;
            row.capacity[block.index] = q * (block.channel.width.mhz() as f64 / 20.0);
            row.peak_busy[block.index] = busy[slots].iter().copied().fold(0.0, f64::max);
        }
        row
    }

    /// `ch`'s block, if it is a legal channel of this row's band.
    fn block(&self, ch: Channel) -> Option<&'static Block> {
        ch.block().filter(|_| ch.band == self.band)
    }

    /// Airtime share on the bond over `slots`: per slot, what external
    /// networks leave split evenly with the contenders; the bond gets
    /// its worst slot, because interference on any one stalls the whole
    /// transmission (§4.1.1).
    pub(crate) fn airtime(&self, slots: Range<usize>, contenders: impl Fn(usize) -> usize) -> f64 {
        let mut worst: f64 = 1.0;
        for slot in slots {
            let share = self.free[slot] / (1.0 + contenders(slot) as f64);
            worst = worst.min(share);
        }
        worst
    }

    /// Capacity factor of `bond`, which must be a legal channel of the
    /// row's band: mean quality scaled by the width gain.
    pub(crate) fn capacity(&self, bond: Channel) -> f64 {
        self.capacity[self.block(bond).expect("validated").index]
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
        let cand_util = self.block(cand).map_or(0.0, |b| self.peak_busy[b.index]);
        if cand_util > HIGH_UTIL_THRESHOLD {
            p += params.high_util_extra;
        }
        p
    }

    /// What one width adds to `ln NodeP` at airtime share `share`; −∞
    /// when its channel_metric is non-positive (the paper's NodeP → 0).
    fn term_ln(&self, block: &Block, load: f64, penalty: f64, share: f64) -> f64 {
        let metric = share * self.capacity[block.index] - penalty;
        if metric <= 0.0 {
            return f64::NEG_INFINITY;
        }
        load * metric.ln()
    }

    /// `ln NodeP` of this AP on `cand` for a switch penalty of `penalty`,
    /// `contenders(slot)` of its neighbours sharing each slot; every
    /// loaded width's term goes to `scored`, narrow → wide.
    /// `f64::NEG_INFINITY` as soon as a loaded width's term is.
    fn score(
        &self,
        penalty: f64,
        cand: Channel,
        contenders: impl Fn(usize) -> usize,
        mut scored: impl FnMut(Term),
    ) -> f64 {
        let mut total = 0.0;
        for (&b, &load) in cand.width.up_to().iter().zip(&self.load) {
            let load = if b == Width::W20 {
                load.max(IDLE_EPSILON_LOAD)
            } else {
                load
            };
            if load <= 0.0 {
                continue; // property (ii): unreachable widths contribute nothing
            }
            let Some(block) = self.block(Channel { width: b, ..cand }) else {
                return f64::NEG_INFINITY; // not a legal channel
            };
            let share = self.airtime(block.slots(), &contenders);
            let ln = self.term_ln(block, load, penalty, share);
            if ln == f64::NEG_INFINITY {
                return f64::NEG_INFINITY;
            }
            scored(Term {
                block,
                load,
                share,
                ln,
            });
            total += ln;
        }
        total
    }

    /// `ln NodeP` of this AP on `cand`, `contenders(slot)` of its
    /// neighbours sharing each slot. `f64::NEG_INFINITY` when any loaded
    /// width's channel_metric is non-positive.
    pub(crate) fn node_p_ln(
        &self,
        params: &MetricParams,
        current: Channel,
        cand: Channel,
        contenders: impl Fn(usize) -> usize,
    ) -> f64 {
        let penalty = self.switch_penalty(params, current, cand);
        self.score(penalty, cand, contenders, |_| ())
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
pub(crate) fn footprint_in(band: Band, ch: Channel) -> u32 {
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
#[derive(Clone)]
pub(crate) struct Partial<'a> {
    band: Band,
    rows: &'a [ApRow],
    /// `None` = in ψ, or not placed yet.
    pub(crate) channels: Vec<Option<Channel>>,
    /// `contenders[v]`: [`count`] over `v`'s neighbour list.
    contenders: Vec<[u32; MAX_SLOTS]>,
    /// ACC's scratch, kept between calls: per neighbour, `None` for one
    /// in ψ; every neighbour's terms; per candidate, `v`'s own score and
    /// the bound on the whole.
    silent: Vec<Option<Silent>>,
    terms: Vec<Term>,
    bounds: Vec<(f64, f64)>,
}

/// A neighbour of ACC's `v`, scored with `v` silent.
#[derive(Clone)]
struct Silent {
    /// Its `ln NodeP`.
    total: f64,
    /// The slots on which `v` can change that: its channel's, if it
    /// hears `v` at all.
    reach: u32,
    /// The switch penalty it pays where it sits.
    penalty: f64,
    /// Its loaded widths in ACC's `terms`, all of them when `total` is
    /// finite (scoring stops at the width that sinks it).
    terms: Range<usize>,
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
            terms: Vec::new(),
            bounds: Vec::new(),
        }
    }

    /// The complete plan `channels` over the whole of `view`, whose rows
    /// are `rows`.
    pub(crate) fn over(view: &NetworkView, rows: &'a [ApRow], channels: &[Channel]) -> Partial<'a> {
        let channels: Vec<Option<Channel>> = channels.iter().copied().map(Some).collect();
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

    /// Neighbour `n`, unless in ψ, with ACC's `v` silent; its terms go
    /// on the end of `terms`.
    fn silent(
        &self,
        params: &MetricParams,
        current: &[Channel],
        n: usize,
        hears_v: u32,
        terms: &mut Vec<Term>,
    ) -> Option<Silent> {
        let nc = self.channels[n]?;
        let (row, counts) = (&self.rows[n], &self.contenders[n]);
        let penalty = row.switch_penalty(params, current[n], nc);
        let first = terms.len();
        let total = row.score(
            penalty,
            nc,
            |slot| counts[slot] as usize,
            |term| terms.push(term),
        );
        Some(Silent {
            total,
            reach: nc.slots().filter(|_| hears_v > 0).map_or(0, slot_mask),
            penalty,
            terms: first..terms.len(),
        })
    }

    /// `ln NodeP` of neighbour `n`, finite with `v` silent as `silent`
    /// records, once `v` puts `extra` more contenders on every slot of
    /// `footprint`. Only a width the footprint reaches can have lost
    /// airtime, and only one that did needs its term taken again: the
    /// same airtime gives the same term.
    fn rescore(
        &self,
        n: usize,
        silent: &Silent,
        terms: &[Term],
        (footprint, extra): (u32, u32),
    ) -> f64 {
        let (row, counts) = (&self.rows[n], &self.contenders[n]);
        let mut total = 0.0;
        for term in &terms[silent.terms.clone()] {
            let mut ln = term.ln;
            if slot_mask(term.block.slots()) & footprint != 0 {
                let share = row.airtime(term.block.slots(), |slot| {
                    (counts[slot] + extra * (footprint >> slot & 1)) as usize
                });
                if share.to_bits() != term.share.to_bits() {
                    ln = row.term_ln(term.block, term.load, silent.penalty, share);
                    if ln == f64::NEG_INFINITY {
                        return f64::NEG_INFINITY;
                    }
                }
            }
            total += ln;
        }
        total
    }

    /// Into `key`, all that [`Partial::acc`] reads of the plan for `v`,
    /// whose list is `neighbors`: `v`'s contender counts, then per entry
    /// its channel's code, or 0 for one in ψ, and its counts on that
    /// channel's footprint. The rest ACC reads — rows, candidates,
    /// `current`, `hears_v`, params — is fixed while NBO's working
    /// assignment stands, and under it equal keys get equal picks.
    pub(crate) fn star(&self, v: usize, neighbors: &[usize], key: &mut Vec<u32>) {
        key.clear();
        key.extend_from_slice(&self.contenders[v]);
        for &n in neighbors {
            let Some(nc) = self.channels[n] else {
                key.push(0);
                continue;
            };
            key.push(
                1 << 24 | u32::from(nc.primary) << 8 | (nc.band as u32) << 4 | nc.width as u32,
            );
            let counts = &self.contenders[n];
            each_slot(footprint_in(self.band, nc), |slot| key.push(counts[slot]));
        }
    }

    /// ACC(v, ψ): the first of `cands` maximizing NodeP of `v` plus NodeP
    /// of each entry of `neighbors` (the APs `v` hears, in list order,
    /// repeats and `v` itself included) that has a channel. `v` must be
    /// in ψ and `cands` not empty; `hears_v[k]` says how many times
    /// `neighbors[k]` lists `v`, i.e. how many contenders `v`'s choice
    /// adds there.
    ///
    /// A branch and bound over `cands` that returns what scoring every
    /// one would. `v` taking a channel only adds contenders, and a
    /// neighbour can only lose airtime to them, so its score with `v`
    /// silent bounds its score under any candidate, and a candidate's
    /// objective stays under `own · (1 + self-listings) + Σ silent`, plus
    /// a margin of 1e-9 of the magnitudes summed: far above the rounding
    /// that tells two summation orders apart, and above any step the
    /// wrong way by libm `ln`, which is not proven monotone. The
    /// candidate of highest bound is scored in full first; the others,
    /// in list order, only when their bound reaches the best score so
    /// far (an equal bound only ahead of the best in the list), and an
    /// equal score takes the lead only from a later candidate. With a
    /// neighbour already at −∞ every candidate is, and the first wins.
    pub(crate) fn acc(
        &mut self,
        params: &MetricParams,
        current: &[Channel],
        v: usize,
        cands: &[Channel],
        neighbors: &[usize],
        hears_v: &[u32],
    ) -> Channel {
        debug_assert!(self.channels[v].is_none() && !cands.is_empty());
        let hears_self = neighbors
            .iter()
            .position(|&n| n == v)
            .map_or(0, |k| hears_v[k]);
        let (mut silent, mut terms, mut bounds) = (
            std::mem::take(&mut self.silent),
            std::mem::take(&mut self.terms),
            std::mem::take(&mut self.bounds),
        );
        silent.clear();
        terms.clear();
        bounds.clear();
        for (&n, &hears) in neighbors.iter().zip(hears_v) {
            silent.push(self.silent(params, current, n, hears, &mut terms));
        }
        let pick = if silent
            .iter()
            .flatten()
            .any(|s| s.total == f64::NEG_INFINITY)
        {
            0 // whatever v picks sinks that neighbour: all tie at −∞
        } else {
            let silent_sum: f64 = silent.iter().flatten().map(|s| s.total).sum();
            let magnitude: f64 = terms.iter().map(|t| t.ln.abs()).sum();
            let self_weight = f64::from(1 + hears_self);
            for &cand in cands {
                let footprint = footprint_in(self.band, cand);
                let own = self.node_p_ln(params, current, v, cand, (footprint, hears_self));
                let bound = if own == f64::NEG_INFINITY {
                    own
                } else {
                    let all_own = own * self_weight;
                    all_own + silent_sum + 1e-9 * (all_own.abs() + magnitude)
                };
                bounds.push((own, bound));
            }
            // Only a candidate covering a slot a neighbour is reached on
            // is worth a second look at that neighbour.
            let exact = |k: usize| {
                let (footprint, own) = (footprint_in(self.band, cands[k]), bounds[k].0);
                let mut score = own;
                if score > f64::NEG_INFINITY {
                    for (k, &n) in neighbors.iter().enumerate() {
                        let np = if n == v {
                            own // v lists itself: on the candidate, scored again
                        } else if let Some(unmoved) = &silent[k] {
                            if unmoved.reach & footprint == 0 {
                                unmoved.total
                            } else {
                                self.rescore(n, unmoved, &terms, (footprint, hears_v[k]))
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
                score
            };
            let first =
                (1..cands.len()).fold(0, |b, k| if bounds[k].1 > bounds[b].1 { k } else { b });
            let mut best = (exact(first), first);
            for (k, &(_, bound)) in bounds.iter().enumerate() {
                if k == first || bound < best.0 || (bound == best.0 && k > best.1) {
                    continue;
                }
                let s = exact(k);
                if s > best.0 || (s == best.0 && k < best.1) {
                    best = (s, k);
                }
            }
            best.1
        };
        (self.silent, self.terms, self.bounds) = (silent, terms, bounds);
        cands[pick]
    }
}

/// What a view fixes for every plan made on it.
pub(crate) struct ViewIndex<'a> {
    pub(crate) view: &'a NetworkView,
    pub(crate) rows: Vec<ApRow>,
    /// [`heard`] of every AP: the lists NBO and ACC read.
    pub(crate) neighbors: Vec<Vec<usize>>,
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
        let neighbors: Vec<Vec<usize>> = (0..view.len()).map(|v| heard(view, v)).collect();
        let mut heard_by = vec![Vec::new(); view.len()];
        for (u, list) in neighbors.iter().enumerate() {
            for &m in list {
                heard_by[m].push(u);
            }
        }
        let hears_back = (0..view.len())
            .map(|m| hears_back(view, m, &neighbors[m]))
            .collect();
        ViewIndex {
            view,
            rows: rows(view),
            neighbors,
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

/// `v`'s neighbour list without the entries past the view's end, which
/// no plan of the view has a channel for and so count for nothing.
pub(crate) fn heard(view: &NetworkView, v: usize) -> Vec<usize> {
    let len = view.len();
    view.aps[v]
        .neighbors
        .iter()
        .copied()
        .filter(|&n| n < len)
        .collect()
}

/// For each AP of `list`, `v`'s list as [`heard`] returns it: how many
/// times it lists `v` — the contenders `v`'s channel puts on it.
pub(crate) fn hears_back(view: &NetworkView, v: usize, list: &[usize]) -> Vec<u32> {
    let listings = |n: usize| view.aps[n].neighbors.iter().filter(|&&x| x == v).count() as u32;
    list.iter().map(|&n| listings(n)).collect()
}

/// One row per AP of `view`.
pub(crate) fn rows(view: &NetworkView) -> Vec<ApRow> {
    view.aps
        .iter()
        .map(|ap| ApRow::new(view.band, ap))
        .collect()
}
