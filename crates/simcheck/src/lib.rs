//! # simcheck — the workspace source linter
//!
//! Two properties of this reproduction live in source text, and
//! simcheck turns both into one CI gate:
//!
//! * **Determinism.** The fleet controller's headline claim is
//!   bit-identical results for any thread count, and every figure
//!   reproduction depends on "one seed → one run". That guarantee is
//!   easy to break silently: one `as u32` truncates a nanosecond
//!   timestamp, one `== 0.5` turns on float rounding. simcheck owns the
//!   rules no clippy lint expresses; hash collections, the wall clock
//!   and hot-path unwraps are clippy's (`clippy.toml`).
//! * **Spec compliance.** Every MUST clause condensed from the RFCs and
//!   the IMC'17 paper (registry under `specs/`, see [`registry`]) must be
//!   tied to the code that implements it and the test that enforces it,
//!   via `//= spec: <clause-id>` source annotations (see
//!   [`annotations`] and [`coverage`]).
//!
//! The layers:
//!
//! * [`lexer`] — a dependency-free Rust token scanner (comments,
//!   strings, raw strings, lifetimes, float-vs-int literals) that also
//!   collects `// simcheck: allow(rule)` escape hatches and `//=`
//!   citation directives;
//! * [`context`] — `#[cfg(test)]` / `#[test]` region detection over the
//!   token stream, read by the impl-vs-test classification of citations;
//! * [`rules`] — the rule catalog (see its table) over the token stream,
//!   applied whole to every file, and the one finding type,
//!   [`Diagnostic`];
//! * [`annotations`] — the `//= spec:` citations of one lexed file;
//! * [`workspace`] — file walking and the one-pass scan;
//! * [`registry`] and [`coverage`] — the clause registry and its join
//!   with the citations into the [`Report`].
//!
//! The binary (`cargo run -p simcheck --release [-- --root <dir>]`)
//! prints the report and exits 0 when no diagnostic survives the
//! allowlists and every MUST clause is covered, 1 otherwise, and 2 on a
//! usage or IO error or a registry that fails to parse. That is how
//! `scripts/ci.sh` wires it into the tier-1 gate. The runtime complement
//! — invariants that need live values, not source text — is the
//! sim-sanitizer (`sim::sanitize`), on in every `debug_assertions`
//! build.

pub mod annotations;
pub mod context;
pub mod coverage;
pub mod lexer;
pub mod registry;
pub mod rules;
pub mod workspace;

pub use coverage::Report;
pub use rules::{Diagnostic, Rule};
pub use workspace::{scan_source, scan_workspace};

use std::path::Path;

/// Lint the workspace at `root`: load the registry, scan every source
/// file once, join the two. `Err` is an IO error or a registry that
/// fails to parse — never a report that reads "all covered".
pub fn lint(root: &Path) -> Result<Report, String> {
    let registry = registry::load(root)?;
    let scan =
        scan_workspace(root).map_err(|e| format!("scan failed under {}: {e}", root.display()))?;
    Ok(Report::build(&registry, scan))
}
