//! # bench — experiment harness
//!
//! One binary per paper table/figure (see DESIGN.md §3 for the index)
//! plus ablation studies. Binaries print the same rows/series the paper
//! reports and optionally dump raw series as JSON under `results/`
//! (set `IMC_RESULTS_DIR` to override the directory).

pub mod arms;
pub mod harness;
pub mod turboca_eval;

/// With `--features alloc-count`, every bench binary routes heap
/// traffic through the counting allocator so `--runprof` sidecars
/// carry real alloc/free/peak-byte numbers. Off by default: three
/// relaxed atomic ops per allocation is cheap but not free, and the
/// perf baseline is measured without them.
#[cfg(feature = "alloc-count")]
#[global_allocator]
static COUNTING_ALLOC: wifi_core::telemetry::runprof::CountingAlloc =
    wifi_core::telemetry::runprof::CountingAlloc;
