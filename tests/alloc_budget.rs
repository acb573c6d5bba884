//! Heap allocations and peak live heap per simulated event on the
//! packet path.
//!
//! The run loop, the TCP endpoints and the FastACK agent reuse their
//! buffers, and an ACK holds its SACK blocks inline, so a steady-state
//! event allocates almost nothing: what is left is mostly the MPDU list
//! of each aggregate `build_ampdu` assembles. What a run keeps grows
//! with its latency samples, stored as runs of equal values: under one
//! run per ten samples on the dense shape. This file counts allocator
//! calls and live bytes with its own global allocator and holds each
//! shape to a bound on both per `sim.queue.popped` event. Tier-1 runs
//! it in debug; `scripts/ci.sh` also in release, the build users run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use wifi_core::netsim::testbed::{Testbed, TestbedConfig};
use wifi_core::qoe::ProbeConfig;
use wifi_core::sim::SimDuration;
use wifi_core::telemetry::TimelineConfig;

thread_local! {
    /// Allocator calls made on this thread. Per thread, so tests running
    /// in parallel do not count each other's allocations.
    static CALLS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed on this thread (signed: it may
    /// free another's) and their high watermark, which a test resets.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// `System`, counting every allocation and the bytes it holds.
/// `alloc_zeroed` and `realloc` keep their default bodies, which call
/// `alloc` (and `dealloc`), so each counts once, and a moved block is
/// live twice during its copy.
struct Counting;

// SAFETY: both methods pass their arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only
// const-initialised thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: a thread being torn down may still allocate.
        let _ = CALLS.try_with(|c| c.set(c.get() + 1));
        let _ = LIVE.try_with(|l| {
            l.set(l.get() + layout.size() as i64);
            let _ = PEAK.try_with(|p| p.set(p.get().max(l.get())));
        });
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|l| l.set(l.get() - layout.size() as i64));
        // SAFETY: `ptr` came from `System` through `alloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// `obs_full`'s sinks on the dense FastACK shape: 64k flight rings, the
/// 10 ms timeline and QoE probes (its interferer left out).
fn obs() -> TestbedConfig {
    TestbedConfig {
        flight_capacity: 65_536,
        timeline: Some(TimelineConfig::sampling(SimDuration::from_millis(10))),
        qoe: Some(ProbeConfig::default()),
        ..TestbedConfig::dense(true)
    }
}

/// The benchmark's `lossy_recovery` shape (1 AP × 3 clients at low SNR,
/// 1 % upstream loss, 5 % bad hints), `dense_fastack` shape (2 APs ×
/// 20 clients) and [`obs`], each arm run for a few simulated seconds
/// and held to allocator calls and peak live bytes per popped event in
/// `Testbed::run` (set-up in `Testbed::new` not counted).

#[test]
fn packet_shapes_allocate_under_budget() {
    // Peak live bytes per event: 4.7 / 6.9 / 18.8 / 12.6 / 106.8 with
    // 32-byte flight events, 5.2 / 7.7 / 20.0 / 13.6 / 149.9 with 48-byte
    // ones. Before latency samples were stored as runs, the first four
    // read 12.2 / 12.1 / 25.0 / 19.6 with one 4-byte entry per sample,
    // 21.4 / 21.0 / 31.9 / 26.5 with 8-byte ones. Allocations per event
    // on obs: 0.094, 0.102 while QoE kept its pending probes in a map.
    for (shape, cfg, secs, bound, bytes_bound) in [
        ("lossy fastack", TestbedConfig::lossy(true), 20, 0.05, 6.0),
        ("lossy baseline", TestbedConfig::lossy(false), 20, 0.15, 9.0),
        ("dense fastack", TestbedConfig::dense(true), 2, 0.05, 21.0),
        ("dense baseline", TestbedConfig::dense(false), 2, 0.05, 15.0),
        ("obs", obs(), 2, 0.10, 112.0),
    ] {
        let tb = Testbed::new(cfg);
        let before = CALLS.with(Cell::get);
        let live = LIVE.with(Cell::get);
        PEAK.with(|p| p.set(live));
        let r = tb.run(SimDuration::from_secs(secs));
        let calls = CALLS.with(Cell::get) - before;
        let peak = PEAK.with(Cell::get) - live;
        let events = r.metrics.counter_value("sim.queue.popped").unwrap();
        let (per_event, bytes) = (calls as f64 / events as f64, peak as f64 / events as f64);
        eprintln!(
            "{shape}: {events} events, {per_event:.4} allocations and {bytes:.3} peak bytes each"
        );
        assert!(per_event <= bound, "{shape}: {per_event:.4} > {bound}");
        assert!(
            bytes <= bytes_bound,
            "{shape}: {bytes:.3} peak bytes > {bytes_bound}"
        );
    }
}
