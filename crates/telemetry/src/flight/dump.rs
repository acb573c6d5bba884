//! The owned dump: every component's last-N window, and the queries
//! `wifictl trace` and the health engine ask of it.

use super::FlightEvent;

/// The last-N records of one component, in emit order: chronological
/// wherever the emitter's clock is monotone, as the testbed's and the
/// fleet's are. Nothing enforces that (a recorder takes any instant,
/// [`FlightDump::parse`] any order), so a reader that needs time order
/// checks for it, as the health engine's settle index does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentTrace {
    pub name: String,
    pub capacity: u64,
    pub dropped: u64,
    pub records: Vec<FlightEvent>,
}

/// A parsed (or snapshotted) flight dump: every component's last-N
/// window, components in strictly ascending name order (each name
/// once). The owned form both serializes ([`FlightDump::to_bytes`]) and
/// parses ([`FlightDump::parse`]); the two round-trip byte-identically.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlightDump {
    pub components: Vec<ComponentTrace>,
}

impl FlightDump {
    /// Merge `other` into this dump, prefixing its component names with
    /// `label.` (empty label = verbatim). Same-named components merge
    /// record lists time-ordered; the result stays sorted by name, so
    /// serialization remains deterministic regardless of absorb order.
    pub fn absorb(&mut self, label: &str, other: &FlightDump) {
        for comp in &other.components {
            let name = if label.is_empty() {
                comp.name.clone()
            } else {
                format!("{label}.{}", comp.name)
            };
            match self.components.binary_search_by(|c| c.name.cmp(&name)) {
                Ok(i) => {
                    let dst = &mut self.components[i];
                    dst.records.extend(comp.records.iter().copied());
                    dst.records.sort_by_key(|r| r.at);
                    dst.dropped += comp.dropped;
                    dst.capacity = dst.capacity.max(comp.capacity);
                }
                Err(i) => {
                    let mut comp = comp.clone();
                    comp.name = name;
                    self.components.insert(i, comp);
                }
            }
        }
    }

    /// Total records across all components.
    pub fn total_records(&self) -> usize {
        self.components.iter().map(|c| c.records.len()).sum()
    }

    /// Total wraparound drops across all components.
    pub fn total_dropped(&self) -> u64 {
        self.components.iter().map(|c| c.dropped).sum()
    }

    /// Every flow id appearing in the dump, ascending.
    pub fn flows(&self) -> Vec<u64> {
        let records = self.components.iter().flat_map(|c| &c.records);
        let mut flows: Vec<u64> = records.filter_map(FlightEvent::flow).collect();
        flows.sort_unstable();
        flows.dedup();
        flows
    }

    /// The records of every component whose name starts with `prefix`
    /// (`None`: all) that belong to `flow` (`None`: any), across
    /// components, time-ordered. Ties break by component name so the
    /// output is deterministic.
    pub fn events(&self, prefix: Option<&str>, flow: Option<u64>) -> Vec<(&str, FlightEvent)> {
        let mut out: Vec<(&str, FlightEvent)> = Vec::new();
        for comp in &self.components {
            if prefix.is_some_and(|p| !comp.name.starts_with(p)) {
                continue;
            }
            for ev in &comp.records {
                if flow.is_none() || ev.flow() == flow {
                    out.push((comp.name.as_str(), *ev));
                }
            }
        }
        out.sort_by(|a, b| a.1.at.cmp(&b.1.at).then_with(|| a.0.cmp(b.0)));
        out
    }

    /// The full causal chain for one flow: every record belonging to the
    /// flow (directly or via its cause's flow hint), in
    /// [`FlightDump::events`] order.
    pub fn chain(&self, flow: u64) -> Vec<(&str, FlightEvent)> {
        self.events(None, Some(flow))
    }
}
