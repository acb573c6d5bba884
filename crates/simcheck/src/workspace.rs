//! Workspace walking and the one-pass scan.
//!
//! simcheck is offline and dependency-free: it finds every `.rs` file
//! under the workspace's source roots with `std::fs` alone (no cargo
//! metadata, no registry) and applies the one rule catalog to each.
//! Each file is read and lexed once, and both the rules and the
//! `//= spec:` citation scan run over that one result. Files are
//! visited in sorted path order so diagnostics are themselves
//! deterministic.

use crate::annotations::{citations, Citation};
use crate::lexer::lex;
use crate::rules::{check, Diagnostic};
use std::path::{Path, PathBuf};

/// Collect every `.rs` file under the workspace source roots, sorted.
pub fn source_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for top in ["crates", "src", "tests", "examples", "benches"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn walk(dir: &Path, files: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            // Build outputs and fixture corpora are not workspace source.
            if name == "target" || name == "fixtures" {
                continue;
            }
            walk(&path, files)?;
        } else if name.ends_with(".rs") {
            files.push(path);
        }
    }
    Ok(())
}

/// What a scan collects: every diagnostic (determinism rules and
/// malformed or unanchored citations) and the `//= spec:` citations the
/// coverage report joins against the registry.
#[derive(Debug, Default)]
pub struct Scan {
    pub diagnostics: Vec<Diagnostic>,
    pub citations: Vec<Citation>,
}

impl Scan {
    /// Add one source string, scanned as if it were `rel_path` in the
    /// workspace: one lex, both halves of the lint.
    pub fn add_file(&mut self, rel_path: &str, src: &str) {
        let lexed = lex(src);
        self.diagnostics.extend(check(rel_path, &lexed));
        let (cites, problems) = citations(rel_path, src, &lexed);
        self.citations.extend(cites);
        self.diagnostics.extend(problems);
    }
}

/// The diagnostics of one source string scanned as `rel_path`. This is
/// the unit CI exercises: the binary is a loop over [`Scan::add_file`].
pub fn scan_source(rel_path: &str, src: &str) -> Vec<Diagnostic> {
    let mut scan = Scan::default();
    scan.add_file(rel_path, src);
    scan.diagnostics
}

/// Scan the whole workspace rooted at `root`.
pub fn scan_workspace(root: &Path) -> std::io::Result<Scan> {
    let mut scan = Scan::default();
    for file in source_files(root)? {
        let rel = file.strip_prefix(root).unwrap_or(&file);
        let src = std::fs::read_to_string(&file)?;
        scan.add_file(&rel.to_string_lossy(), &src);
    }
    Ok(scan)
}
