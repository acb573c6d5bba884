//! Finish-time reads of the flight dump. [`DumpIndex`] is built once per
//! [`super::HealthEngine::finish`]: per component, whether its records'
//! instants never decrease and which record layers it holds. A query
//! skips every component without its layers; in a time-ordered one it
//! binary-searches the instant and walks back from there, and any other
//! it scans whole. A component keeps its records in emit order, which is
//! time order only where the emitter's clock was monotone, so the index
//! checks the order instead of assuming it.

use crate::flight::{CauseId, ComponentTrace, FlightDump, FlightEvent, TraceRecord, LAYERS};
use sim::SimTime;

/// The flight dump as detectors settle their alerts against it.
pub struct DumpIndex<'a> {
    /// Each component in dump order, whether its records are in time
    /// order, and the layers it holds (bit `i` is `LAYERS[i]`).
    components: Vec<(&'a ComponentTrace, bool, u16)>,
}

/// `layers` as a set of [`LAYERS`] bits; a name not in it adds none.
fn mask(layers: &[&str]) -> u16 {
    let bits = LAYERS
        .iter()
        .enumerate()
        .filter(|&(_, l)| layers.contains(l));
    bits.fold(0, |m, (i, _)| m | (1 << i))
}

fn bit(ev: &FlightEvent) -> u16 {
    1 << ev.record().layer_index()
}

impl<'a> DumpIndex<'a> {
    pub(super) fn new(dump: &'a FlightDump) -> DumpIndex<'a> {
        let components = dump.components.iter().map(|comp| {
            let ordered = comp.records.windows(2).all(|w| w[0].at <= w[1].at);
            let layers = comp.records.iter().fold(0, |m, ev| m | bit(ev));
            (comp, ordered, layers)
        });
        DumpIndex {
            components: components.collect(),
        }
    }

    /// The records of each component holding a layer of `layers`, in
    /// dump order, with whether they are in time order.
    fn holding(&self, layers: u16) -> impl Iterator<Item = (&'a [FlightEvent], bool)> + '_ {
        let holds = move |c: &&(&'a ComponentTrace, bool, u16)| c.2 & layers != 0;
        self.components
            .iter()
            .filter(holds)
            .map(|&(c, ordered, _)| (&c.records[..], ordered))
    }

    /// The records of `layers`' components in `(after, until]` (from the
    /// first when `after` is `None`), component by component.
    fn within(
        &self,
        layers: u16,
        after: Option<SimTime>,
        until: SimTime,
    ) -> impl Iterator<Item = &'a FlightEvent> + '_ {
        let inside = move |ev: &&FlightEvent| after.is_none_or(|a| ev.at > a) && ev.at <= until;
        self.holding(layers).flat_map(move |(records, ordered)| {
            let records = if ordered {
                let to = records.partition_point(|ev| ev.at <= until);
                let from = after.map_or(0, |a| records[..to].partition_point(|ev| ev.at <= a));
                &records[from..to]
            } else {
                records
            };
            records.iter().filter(inside)
        })
    }

    /// The cause of the latest record at or before `before` whose layer
    /// is in `layers` and whose flow is in `flows` (empty `flows`: any
    /// flow), `CauseId::NONE` records skipped. Ties keep the earliest
    /// record in dump order.
    pub(super) fn last_cause(
        &self,
        layers: &[&str],
        flows: &[u64],
        before: SimTime,
    ) -> Option<CauseId> {
        let layers = mask(layers);
        let explains = |ev: &FlightEvent| {
            ev.cause != CauseId::NONE
                && bit(ev) & layers != 0
                && (flows.is_empty() || ev.flow().is_some_and(|f| flows.contains(&f)))
        };
        // Only a strictly later record displaces one met earlier in dump
        // order: that is the tie rule.
        let later =
            |ev: &FlightEvent, than: Option<&FlightEvent>| than.is_none_or(|t| ev.at > t.at);
        let mut best: Option<&FlightEvent> = None;
        for (records, ordered) in self.holding(layers) {
            let mut found = None;
            if ordered {
                // Back from the instant, to the first record of the latest
                // match's instant, or to one that cannot beat `best`.
                let upto = records.partition_point(|ev| ev.at <= before);
                for ev in records[..upto].iter().rev() {
                    if found.map_or(!later(ev, best), |f: &FlightEvent| ev.at < f.at) {
                        break;
                    }
                    if explains(ev) {
                        found = Some(ev);
                    }
                }
            } else {
                for ev in records.iter().filter(|ev| ev.at <= before && explains(ev)) {
                    if later(ev, found) {
                        found = Some(ev);
                    }
                }
            }
            if let Some(f) = found.filter(|f| later(f, best)) {
                best = Some(f);
            }
        }
        best.map(|ev| ev.cause)
    }

    /// Whether a synthetic ACK of one of `flows` is on record in
    /// `(after, until]`.
    pub(super) fn synthetic_ack_in(&self, flows: &[u64], after: SimTime, until: SimTime) -> bool {
        let mut acks = self.within(mask(&["fastack-synth"]), Some(after), until);
        acks.any(|ev| {
            matches!(
                ev.record(),
                TraceRecord::FastAckSynth { flow, synthetic: true, .. } if flows.contains(&flow)
            )
        })
    }

    /// True when no probe at all is on record (recording off, or every
    /// probe evicted), else whether one of `subject`'s is.
    pub(super) fn probed_if_any_probe(&self, subject: Option<u64>) -> bool {
        let records = self.within(mask(&["qoe-probe"]), None, SimTime::MAX);
        let probes = records.filter_map(|ev| match ev.record() {
            TraceRecord::QoeProbe { flow, .. } => Some(flow),
            _ => None,
        });
        let mut probes = probes.peekable();
        probes.peek().is_none() || probes.any(|flow| Some(flow) == subject)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::cause_for;
    use crate::flight::tests::record_of;
    use proptest::collection::vec;
    use proptest::prelude::*;

    // The scans the index replaced, kept as the statement of what it
    // must answer: every record of the dump, in dump order.

    fn naive_last_cause(
        dump: &FlightDump,
        layers: &[&str],
        flows: &[u64],
        before: SimTime,
    ) -> Option<CauseId> {
        let records = dump.components.iter().flat_map(|comp| &comp.records);
        let explains = |ev: &&FlightEvent| {
            ev.at <= before
                && ev.cause != CauseId::NONE
                && layers.contains(&ev.record().layer())
                && (flows.is_empty() || ev.flow().is_some_and(|f| flows.contains(&f)))
        };
        // `max_by_key` keeps the last of equal maxima: walk the dump backwards.
        let last = records.rev().filter(explains).max_by_key(|ev| ev.at);
        last.map(|ev| ev.cause)
    }

    fn naive_synthetic_ack_in(
        dump: &FlightDump,
        flows: &[u64],
        after: SimTime,
        until: SimTime,
    ) -> bool {
        dump.components.iter().any(|comp| {
            comp.records.iter().any(|ev| {
                ev.at > after
                    && ev.at <= until
                    && matches!(
                        ev.record(),
                        TraceRecord::FastAckSynth { flow, synthetic: true, .. }
                            if flows.contains(&flow)
                    )
            })
        })
    }

    fn naive_probed_if_any_probe(dump: &FlightDump, subject: Option<u64>) -> bool {
        let records = dump.components.iter().flat_map(|comp| &comp.records);
        let probes = records.filter_map(|ev| match ev.record() {
            TraceRecord::QoeProbe { flow, .. } => Some(flow),
            _ => None,
        });
        let mut probes = probes.peekable();
        probes.peek().is_none() || probes.any(|flow| Some(flow) == subject)
    }

    /// One drawn word as `(component, record)`: any variant, flows 0..5
    /// (an airtime span's kind, an epoch's number), a synthetic bit
    /// (and a probe's delay), a cause of flow 0..4 or `NONE` (one in
    /// five), at an even instant of 24, so ties are common and odd
    /// instants fall between records.
    fn drawn(word: u64) -> (usize, FlightEvent) {
        let (flow, seq, synthetic) = ((word >> 8) % 5, word >> 40, (word >> 15) & 1);
        let record = record_of(((word >> 12) % 8) as u8, [flow, seq, synthetic, 0]);
        let cause = match (word >> 16) % 5 {
            0 => CauseId::NONE,
            _ => cause_for((word >> 19) % 4, seq),
        };
        let at = SimTime::from_nanos(2 * ((word >> 3) % 24));
        ((word % 5) as usize, FlightEvent::new(at, cause, record))
    }

    const LAYER_SETS: &[&[&str]] = &[
        &["tcp-seg"],
        &["tcp-seg", "ampdu-build"],
        &["fastack-synth"],
        &["tcp-seg", "mac-tx"],
        &["airtime-span"],
        &["qoe-probe", "mac-tx"],
        &["block-ack", "fleet-epoch"],
        &LAYERS,
        &["no-such-layer"],
    ];

    const FLOW_SETS: &[&[u64]] = &[&[], &[0], &[1], &[2, 3], &[4, 1, 0]];

    proptest! {
        /// The index answers every query bit for bit as the scans over
        /// the whole dump did: five components of drawn records, each
        /// left in draw order or sorted by instant as `sorted`'s bits
        /// say, queried at every instant on either side of every record.
        #[test]
        fn settling_matches_the_naive_scans(
            words in vec(any::<u64>(), 0..160),
            sorted in 0u8..32,
        ) {
            let mut components: Vec<ComponentTrace> = (0..5)
                .map(|i| ComponentTrace {
                    name: format!("c{i}"),
                    capacity: 64,
                    dropped: 0,
                    records: Vec::new(),
                })
                .collect();
            for &word in &words {
                let (c, ev) = drawn(word);
                components[c].records.push(ev);
            }
            for (i, comp) in components.iter_mut().enumerate() {
                if (sorted >> i) & 1 == 1 {
                    comp.records.sort_by_key(|ev| ev.at);
                }
            }
            let dump = FlightDump { components };
            let index = DumpIndex::new(&dump);
            for t in 0..50 {
                let before = SimTime::from_nanos(t);
                for layers in LAYER_SETS {
                    for flows in FLOW_SETS {
                        prop_assert_eq!(
                            index.last_cause(layers, flows, before),
                            naive_last_cause(&dump, layers, flows, before),
                            "layers {:?} flows {:?} before {}", layers, flows, t
                        );
                    }
                }
                for flows in FLOW_SETS {
                    for u in (t..50).step_by(3) {
                        let until = SimTime::from_nanos(u);
                        prop_assert_eq!(
                            index.synthetic_ack_in(flows, before, until),
                            naive_synthetic_ack_in(&dump, flows, before, until),
                            "flows {:?} in ({}, {}]", flows, t, u
                        );
                    }
                }
            }
            for subject in [None, Some(0), Some(1), Some(3), Some(4), Some(7)] {
                prop_assert_eq!(
                    index.probed_if_any_probe(subject),
                    naive_probed_if_any_probe(&dump, subject),
                    "subject {:?}", subject
                );
            }
        }
    }
}
