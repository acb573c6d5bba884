//! The simcheck CLI.
//!
//! ```text
//! simcheck [--root <dir>]
//! ```
//!
//! Lints every workspace `.rs` file against the determinism rules and
//! the `specs/` registry and prints the report. Exit status: 0 when
//! clean, 1 on any diagnostic or uncovered MUST clause, 2 on a usage or
//! IO error or a broken registry — so `set -euo pipefail` CI scripts
//! fail on either.

use std::path::{Path, PathBuf};

const USAGE: &str = "usage: simcheck [--root <dir>]";

fn main() {
    std::process::exit(run());
}

fn run() -> i32 {
    // Default root: the workspace containing this crate.
    let mut root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let dir = match arg.strip_prefix("--root=") {
            Some(dir) => Some(dir.to_string()),
            None if arg == "--root" => args.next(),
            None => None,
        };
        match dir {
            Some(dir) => root = PathBuf::from(dir),
            None => {
                eprintln!("simcheck: bad argument `{arg}`; {USAGE}");
                return 2;
            }
        }
    }
    match simcheck::lint(&root) {
        Ok(report) => {
            print!("{}", report.render());
            report.exit_code()
        }
        Err(e) => {
            eprintln!("simcheck: {e}");
            2
        }
    }
}
