//! Flow classification — which TCP flows should be fast-ACKed.
//!
//! Paper §5.4, footnote 10: "This decision can be made based on the
//! length of the flow or alternatively every flow can be marked as
//! fast-acked." Accelerating a 3-segment HTTP exchange buys nothing and
//! costs agent state; the win is on bulk ("elephant") flows that can
//! keep a deep AP queue. The classifier watches per-flow byte counts and
//! promotes a flow once it crosses a threshold; the agent then adopts it
//! mid-stream.

use std::collections::BTreeMap;
use tcpsim::segment::FlowId;

/// Which flows get fast-ACKed.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum FlowPolicy {
    /// Every flow, from its first segment (the paper's alternative).
    #[default]
    All,
    /// Only flows that have moved at least this many bytes; smaller
    /// flows pass through untouched.
    Elephants { threshold_bytes: u64 },
    /// Nothing is accelerated (equivalent to disabling the agent, but
    /// scoped per classifier).
    None,
}

/// Per-flow byte accounting + promotion decisions.
#[derive(Debug, Clone, Default)]
pub struct Classifier {
    policy: FlowPolicy,
    bytes: BTreeMap<FlowId, u64>,
}

impl Classifier {
    pub fn new(policy: FlowPolicy) -> Classifier {
        Classifier {
            policy,
            bytes: BTreeMap::new(),
        }
    }

    /// Account `len` bytes on `flow` and decide whether it should be
    /// (or already is) fast-ACKed.
    pub fn observe(&mut self, flow: FlowId, len: u32) -> bool {
        match self.policy {
            FlowPolicy::All => true,
            FlowPolicy::None => false,
            FlowPolicy::Elephants { threshold_bytes } => {
                let b = self.bytes.entry(flow).or_insert(0);
                *b += len as u64;
                *b >= threshold_bytes
            }
        }
    }

    /// Is this flow currently promoted (without accounting new bytes)?
    pub fn is_promoted(&self, flow: FlowId) -> bool {
        match self.policy {
            FlowPolicy::All => true,
            FlowPolicy::None => false,
            FlowPolicy::Elephants { threshold_bytes } => {
                self.bytes.get(&flow).copied().unwrap_or(0) >= threshold_bytes
            }
        }
    }

    /// Number of tracked (not necessarily promoted) flows.
    pub fn tracked(&self) -> usize {
        self.bytes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_policy_promotes_immediately() {
        let mut c = Classifier::new(FlowPolicy::All);
        assert!(c.observe(FlowId(1), 1));
        assert!(c.is_promoted(FlowId(99)));
        assert_eq!(c.tracked(), 0, "no accounting needed");
    }

    #[test]
    fn none_policy_never_promotes() {
        let mut c = Classifier::new(FlowPolicy::None);
        for _ in 0..100 {
            assert!(!c.observe(FlowId(1), 100_000));
        }
    }

    #[test]
    fn elephants_promote_at_threshold() {
        let mut c = Classifier::new(FlowPolicy::Elephants {
            threshold_bytes: 10_000,
        });
        assert!(!c.observe(FlowId(1), 5_000));
        assert!(!c.is_promoted(FlowId(1)));
        assert!(c.observe(FlowId(1), 5_000), "exactly at threshold");
        assert!(c.is_promoted(FlowId(1)));
        // Stays promoted.
        assert!(c.observe(FlowId(1), 1));
        // Other flows are independent.
        assert!(!c.is_promoted(FlowId(2)));
    }
}
