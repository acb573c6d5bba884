//! Fleet-level sim-sanitizer hooks.
//!
//! The crate's headline claim is that the shard executor is
//! transparent: N worker threads produce bit-identical results to a
//! sequential run. The static linter keeps nondeterministic *sources*
//! out of the code; this module re-checks the claim at runtime, once
//! per epoch, while the fleet is mid-flight:
//!
//! 1. **Slot stability** — `for_each_mut_sharded` mutates networks in
//!    place and must never migrate one between slots; `nets[i].id == i`
//!    after every barrier.
//! 2. **Digest stability** — [`epoch_checksum`] is a pure function of
//!    fleet state, so computing it twice back-to-back must give the
//!    same bits. Interior mutability or any order-sensitive iteration
//!    hiding in the digest path trips this immediately, long before
//!    the end-of-run checksum comparison in the proptests.
//!
//! All checks no-op unless the sim-sanitizer is active (debug builds)
//! — see [`sim::sanitize`].

use crate::network::ManagedNetwork;
use crate::report::Checksum;
use sim::SimTime;

/// Cheap digest of live fleet state, mixed in slot order.
///
/// Covers identity (id, seed), topology (AP count, current channel
/// assignment) and the newest utilization sample per radio — enough to
/// notice a shard swapping two networks or an epoch mutating state it
/// should not, while staying O(total APs) so the per-epoch cost is
/// negligible next to the tick itself.
pub fn epoch_checksum(nets: &[ManagedNetwork]) -> u64 {
    let mut c = Checksum::new();
    for n in nets {
        c.mix_u64(n.id);
        c.mix_u64(n.seed);
        c.mix_u64(n.view.aps.len() as u64);
        for ap in &n.view.aps {
            c.mix_u64(ap.current.primary as u64);
        }
        c.mix_u64(n.util_2_4.len() as u64);
        c.mix_u64(n.util_5.len() as u64);
        if let Some(&(t, u)) = n.util_2_4.last() {
            c.mix_u64(t.as_nanos());
            c.mix_f64(u);
        }
        if let Some(&(t, u)) = n.util_5.last() {
            c.mix_u64(t.as_nanos());
            c.mix_f64(u);
        }
    }
    c.finish()
}

/// Per-epoch invariants, called after every sharded barrier in
/// [`crate::run_fleet`].
#[track_caller]
pub fn check_epoch(nets: &[ManagedNetwork], epoch: SimTime) {
    if !sim::sanitize::enabled() {
        return;
    }
    for (slot, n) in nets.iter().enumerate() {
        if n.id != slot as u64 {
            sim::sanitize::violation(&format!(
                "epoch {epoch}: shard executor moved network {} into slot {slot}",
                n.id,
            ));
        }
    }
    let first = epoch_checksum(nets);
    let second = epoch_checksum(nets);
    if first != second {
        sim::sanitize::violation(&format!(
            "epoch {epoch}: fleet digest unstable ({first:#018x} != {second:#018x})",
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FleetConfig;
    use sim::SimDuration;

    fn tiny() -> Vec<ManagedNetwork> {
        let cfg = FleetConfig {
            n_networks: 3,
            aps_min: 10,
            aps_max: 11,
            horizon: SimDuration::from_mins(15),
            ..FleetConfig::default()
        };
        (0..3).map(|i| ManagedNetwork::generate(&cfg, i)).collect()
    }

    #[test]
    fn digest_is_a_pure_function_of_state() {
        let nets = tiny();
        assert_eq!(epoch_checksum(&nets), epoch_checksum(&nets));
    }

    #[test]
    fn digest_distinguishes_different_fleets() {
        let a = tiny();
        let mut b = tiny();
        b[1].util_2_4.push((SimTime::from_secs(900), 0.5));
        assert_ne!(epoch_checksum(&a), epoch_checksum(&b));
    }

    // Live whenever the sim-sanitizer is, i.e. in debug builds.
    #[cfg(debug_assertions)]
    mod sanitizer {
        use super::*;

        #[test]
        fn in_order_fleet_passes() {
            check_epoch(&tiny(), SimTime::ZERO);
        }

        #[test]
        #[should_panic(expected = "shard executor moved network")]
        fn swapped_slots_are_a_violation() {
            let mut nets = tiny();
            nets.swap(0, 2);
            check_epoch(&nets, SimTime::ZERO);
        }
    }
}
