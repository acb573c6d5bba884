//! Heap allocations per simulated event on the packet path.
//!
//! The run loop, the TCP endpoints and the FastACK agent reuse their
//! buffers, and an ACK holds its SACK blocks inline, so a steady-state
//! event allocates almost nothing: what is left is mostly the MPDU list
//! of each aggregate `build_ampdu` assembles. This file counts allocator
//! calls with its own global allocator and holds each benchmark shape to
//! a bound per `sim.queue.popped` event. Tier-1 runs it in debug;
//! `scripts/ci.sh` also runs it in release, the build users run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use wifi_core::netsim::testbed::{Testbed, TestbedConfig};
use wifi_core::sim::SimDuration;

thread_local! {
    /// Allocator calls made on this thread. Per thread, so tests running
    /// in parallel do not count each other's allocations.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

/// `System`, counting every allocation. `alloc_zeroed` and `realloc`
/// keep their default bodies, which call `alloc`, so each counts once.
struct Counting;

// SAFETY: both methods pass their arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: a thread being torn down may still allocate.
        let _ = CALLS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The benchmark's `lossy_recovery` shape (1 AP × 3 clients at low SNR,
/// 1 % upstream loss, 5 % bad hints) and `dense_fastack` shape (2 APs ×
/// 20 clients), each arm run for a few simulated seconds and held to
/// allocator calls per popped event in `Testbed::run` (set-up in
/// `Testbed::new` not counted).
#[test]
fn packet_shapes_allocate_under_budget() {
    let lossy = |fastack| TestbedConfig {
        n_aps: 1,
        clients_per_ap: 3,
        fastack: vec![fastack],
        upstream_loss: 0.01,
        bad_hint_rate: 0.05,
        base_snr_db: 24.0,
        snr_spread_db: 10.0,
        ..TestbedConfig::default()
    };
    let dense = |fastack| TestbedConfig {
        n_aps: 2,
        clients_per_ap: 20,
        fastack: vec![fastack; 2],
        ..TestbedConfig::default()
    };
    for (shape, cfg, secs, bound) in [
        ("lossy fastack", lossy(true), 20, 0.05),
        ("lossy baseline", lossy(false), 20, 0.15),
        ("dense fastack", dense(true), 2, 0.05),
        ("dense baseline", dense(false), 2, 0.05),
    ] {
        let tb = Testbed::new(cfg);
        let before = CALLS.with(Cell::get);
        let r = tb.run(SimDuration::from_secs(secs));
        let calls = CALLS.with(Cell::get) - before;
        let events = r.metrics.counter_value("sim.queue.popped").unwrap();
        let per_event = calls as f64 / events as f64;
        eprintln!("{shape}: {calls} allocations in {events} events = {per_event:.4}/event");
        assert!(per_event <= bound, "{shape}: {per_event:.4} > {bound}");
    }
}
