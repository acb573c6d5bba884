//! # bench — experiment harness
//!
//! One binary per paper table/figure (see DESIGN.md §3 for the index)
//! plus ablation studies. Binaries print the same rows/series the paper
//! reports and optionally dump raw series as JSON under `results/`
//! (set `IMC_RESULTS_DIR` to override the directory).

pub mod arms;
pub mod harness;
pub mod turboca_eval;
