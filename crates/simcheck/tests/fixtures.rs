//! Fixture tests: one known-bad snippet per rule must produce its
//! diagnostic, the matching clean snippet must not, the allow hatch
//! must silence it; spec coverage statuses and every failure mode of
//! the binary keep their exit codes; and the committed workspace must
//! lint clean.
//!
//! The bad snippets and citations live inside string literals, so the
//! workspace-clean test below does not trip over this very file.

use simcheck::annotations::CiteKind;
use simcheck::coverage::Status;
use simcheck::registry::Level;
use simcheck::workspace::{scan_source, Scan};
use simcheck::Rule;
use std::path::{Path, PathBuf};

/// Scan a snippet as a library file (every file gets the one catalog).
fn scan(src: &str) -> Vec<simcheck::Diagnostic> {
    scan_source("crates/sim/src/fixture.rs", src)
}

fn rules_hit(src: &str) -> Vec<Rule> {
    scan(src).into_iter().map(|d| d.rule).collect()
}

#[test]
fn float_eq_bad_and_clean() {
    assert!(rules_hit("let same = x == 0.5;").contains(&Rule::FloatEq));
    assert!(rules_hit("let diff = 1.5 != y;").contains(&Rule::FloatEq));
    assert!(rules_hit("let close = (x - 0.5).abs() < 1e-9;").is_empty());
    assert!(rules_hit("let int_cmp = n == 5;").is_empty());
}

#[test]
fn narrowing_cast_bad_and_clean() {
    assert!(rules_hit("let w = airtime_us as u32;").contains(&Rule::NarrowingCast));
    assert!(rules_hit("let w = d.as_nanos() as u32;").contains(&Rule::NarrowingCast));
    assert!(rules_hit("let w = seq_no as u16;").contains(&Rule::NarrowingCast));
    assert!(
        rules_hit("let w = airtime_us as u64;").is_empty(),
        "widening is fine"
    );
    assert!(
        rules_hit("let w = count as u32;").is_empty(),
        "not time/seq-carrying"
    );
}

#[test]
fn time_unit_suffix_bad_and_clean() {
    assert!(rules_hit("fn wait(timeout: u64) {}").contains(&Rule::TimeUnitSuffix));
    assert!(rules_hit("struct S { rtt: f64 }").contains(&Rule::TimeUnitSuffix));
    assert!(rules_hit("fn wait(timeout_us: u64) {}").is_empty());
    assert!(rules_hit("struct S { rtt_ms: f64 }").is_empty());
    assert!(
        rules_hit("struct S { timeout_count: u64 }").is_empty(),
        "a count, not a time"
    );
}

#[test]
fn sorted_iteration_bad_and_clean() {
    let bad = "let mut v: Vec<u64> = m.keys().copied().collect();\nv.sort_unstable();";
    assert!(rules_hit(bad).contains(&Rule::SortedIteration));
    let clean = "let mut v: Vec<u64> = samples.iter().copied().collect();\nv.sort_unstable();";
    assert!(scan(clean).is_empty());
    let hatched =
        "let mut v: Vec<u64> = m.keys().copied().collect();\nv.sort_unstable(); // simcheck: allow(sorted-iteration)";
    assert!(scan(hatched).is_empty());
}

#[test]
fn doc_comment_mentions_do_not_suppress() {
    // A doc comment that quotes the allow syntax right above a real
    // violation must not suppress it (regression for the hardened
    // `parse_allow`).
    let src = "/// Use `// simcheck: allow(float-eq)` to opt out.\nlet same = x == 0.5;";
    assert_eq!(scan(src).len(), 1);
}

#[test]
fn lexer_edge_cases_do_not_false_positive() {
    // Raw strings with embedded quotes, byte/char literals containing
    // `"`, and nested block comments must all stay opaque to the rules.
    let raw = r##"let s = r#"x == 0.5 and "HashMap" too"#;"##;
    assert!(scan(raw).is_empty());
    let quote_chars = "let q = '\"'; let b = b'\"'; let ok = n == 5;";
    assert!(scan(quote_chars).is_empty());
    let nested = "/* x == 0.5 /* HashMap */ Instant */ let a = 1;";
    assert!(scan(nested).is_empty());
}

#[test]
fn allow_hatch_silences_same_line_and_line_above() {
    let inline = "let same = x == 0.5; // simcheck: allow(float-eq)";
    assert!(scan(inline).is_empty());
    let above = "// simcheck: allow(float-eq)\nlet same = x == 0.5;";
    assert!(scan(above).is_empty());
    let below = "let same = x == 0.5;\n// simcheck: allow(float-eq)";
    assert_eq!(scan(below).len(), 1, "allow below the line has no effect");
    let wrong_rule = "let same = x == 0.5; // simcheck: allow(narrowing-cast)";
    assert_eq!(scan(wrong_rule).len(), 1, "allow names a different rule");
}

#[test]
fn diagnostics_carry_file_line_and_rule() {
    let src = "let a = 1;\nlet same = x == 0.5;\n";
    let diags = scan(src);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].file, "crates/sim/src/fixture.rs");
    assert_eq!(diags[0].line, 2);
    assert_eq!(diags[0].rule, Rule::FloatEq);
    let rendered = diags[0].to_string();
    assert!(
        rendered.contains("crates/sim/src/fixture.rs:2"),
        "{rendered}"
    );
    assert!(rendered.contains("[float-eq]"), "{rendered}");
}

/// A `tests.rs` is the body of a `#[cfg(test)] mod tests;`: its
/// citations enforce rather than implement.
#[test]
fn tests_rs_module_files_are_test_code() {
    let src = "//= spec: toy:1:covered\nfn check() {}\n";
    let mut scan = Scan::default();
    scan.add_file("crates/tcp/src/x/tests.rs", src);
    assert_eq!(scan.diagnostics, vec![]);
    assert_eq!(scan.citations.len(), 1);
    assert_eq!(scan.citations[0].kind, CiteKind::Test);
    // The same text in a sibling module is library code.
    let mut scan = Scan::default();
    scan.add_file("crates/tcp/src/x/helpers.rs", src);
    assert_eq!(scan.diagnostics, vec![]);
    assert_eq!(scan.citations[0].kind, CiteKind::Impl);
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("simcheck lives at <ws>/crates/simcheck")
        .to_path_buf()
}

/// The acceptance gate: the committed tree must be clean, which is what
/// lets `scripts/ci.sh` treat any nonzero simcheck exit as a regression.
#[test]
fn committed_workspace_scans_clean() {
    let report = simcheck::lint(&workspace_root()).expect("workspace lint");
    assert!(
        report.diagnostics.is_empty(),
        "workspace has simcheck diagnostics:\n{}",
        report
            .diagnostics
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The committed tree itself must pass with full MUST coverage — this
/// is the regression test that keeps the seed corpus annotated.
#[test]
fn committed_workspace_has_full_must_coverage() {
    let report = simcheck::lint(&workspace_root()).expect("workspace lint");
    let uncovered: Vec<&str> = report
        .uncovered_must()
        .iter()
        .map(|c| c.id.as_str())
        .collect();
    assert_eq!(uncovered, Vec::<&str>::new(), "uncovered MUST clauses");
    assert!(
        report.count(Level::Must) >= 25,
        "expected ≥ 25 MUST clauses, have {}",
        report.count(Level::Must)
    );
    assert_eq!(report.exit_code(), 0);
}

/// Tier-1 runs no clippy, so this pins what makes clippy the enforcer
/// of `hash-collections`, `wall-clock` and `unwrap-in-lib`: every
/// `clippy.toml` entry and key, and the deny in each hot-path crate
/// root. Deleting one fails here, not only under `scripts/ci.sh`.
#[test]
fn clippy_config_enforces_the_rules_simcheck_leaves_to_it() {
    let root = workspace_root();
    let read = |rel: &str| std::fs::read_to_string(root.join(rel)).expect(rel);
    let (mut list, mut entries, mut keys) = (String::new(), Vec::new(), Vec::new());
    for line in read("clippy.toml").lines().map(|l| l.replace(' ', "")) {
        if line.starts_with('#') {
            continue;
        } else if let Some(name) = line.strip_suffix("=[") {
            list = name.to_string();
        } else if let Some(entry) = line.strip_prefix("{path=\"") {
            let path = entry.split('"').next().unwrap_or_default();
            entries.push(format!("{list} {path}"));
        } else if !line.is_empty() && line != "]" {
            keys.push(line);
        }
    }
    for want in [
        "disallowed-types std::collections::HashMap",
        "disallowed-types std::collections::HashSet",
        "disallowed-methods std::time::Instant::now",
        "disallowed-methods std::time::SystemTime::now",
        "disallowed-methods std::time::SystemTime::elapsed",
    ] {
        assert!(
            entries.iter().any(|e| e == want),
            "clippy.toml lost `{want}`"
        );
    }
    for want in ["allow-unwrap-in-tests=true", "allow-expect-in-tests=true"] {
        assert!(keys.iter().any(|k| k == want), "clippy.toml lost `{want}`");
    }
    for krate in ["sim", "mac80211", "tcp", "fastack"] {
        let lib = read(&format!("crates/{krate}/src/lib.rs"));
        assert!(
            lib.lines()
                .any(|l| l == "#![deny(clippy::unwrap_used, clippy::expect_used)]"),
            "crates/{krate}/src/lib.rs lost its unwrap/expect deny"
        );
    }
}

/// A registry + sources fixture written to a temp workspace; `tag`
/// keeps concurrent tests from sharing a directory.
fn temp_workspace(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("simcheck-fixture-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("specs")).expect("mkdir specs");
    std::fs::create_dir_all(dir.join("crates/tcp/src")).expect("mkdir src");
    dir
}

const TOY_SPEC: &str = "\
spec toy
title A toy protocol
url https://example.com/toy

clause toy:1:covered MUST
  Fully covered clause.
clause toy:2:impl-only MUST
  Clause with an implementation but no enforcing test.
clause toy:3:test-only SHOULD
  Clause with a test but no implementation citation.
clause toy:4:uncovered SHOULD
  Clause nobody cites.
";

/// Sources giving toy:1 full coverage, toy:2 impl-only, toy:3
/// test-only. A SHOULD gap must not fail; a MUST gap must.
const LIB_RS: &str = "\
//= spec: toy:1:covered
pub fn covered() {}

//= spec: toy:2:impl-only
pub fn impl_only() {}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        //= spec: toy:1:covered
        //= spec: toy:3:test-only
        super::covered();
    }
}
";

/// [`LIB_RS`] with toy:2's enforcing test added: every MUST covered.
fn full_lib() -> String {
    LIB_RS.replace(
        "        //= spec: toy:1:covered\n",
        "        //= spec: toy:1:covered\n        //= spec: toy:2:impl-only\n",
    )
}

fn write_fixture(dir: &Path, spec: &str, lib: &str) {
    std::fs::write(dir.join("specs/toy.spec"), spec).expect("write spec");
    std::fs::write(dir.join("crates/tcp/src/lib.rs"), lib).expect("write lib");
}

fn write_source(dir: &Path, rel: &str, src: &str) {
    let path = dir.join(rel);
    std::fs::create_dir_all(path.parent().expect("file has a parent")).expect("mkdir");
    std::fs::write(path, src).expect("write source");
}

/// Run the binary on `dir`: (stdout, stderr, exit code).
fn run(dir: &Path) -> (String, String, i32) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_simcheck"))
        .args(["--root", dir.to_str().unwrap()])
        .output()
        .expect("run simcheck");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().unwrap_or(-1),
    )
}

/// A determinism violation for the binary tests to inject.
const INJECTED: &str = "pub fn half(x: f64) -> bool { x == 0.5 }\n";

/// An injected violation must make the *binary* exit nonzero — this is
/// the exact failure mode CI relies on.
#[test]
fn binary_fails_on_injected_violation() {
    let dir = temp_workspace("injected");
    write_fixture(&dir, TOY_SPEC, &full_lib());
    write_source(&dir, "crates/sim/src/injected.rs", INJECTED);
    let (out, _, code) = run(&dir);
    assert_eq!(code, 1, "violation must exit 1:\n{out}");
    assert!(out.contains("float-eq"), "{out}");

    // And the same tree is accepted once the violation is annotated.
    write_source(
        &dir,
        "crates/sim/src/injected.rs",
        "pub fn half(x: f64) -> bool { x == 0.5 } // simcheck: allow(float-eq)\n",
    );
    let (out, _, code) = run(&dir);
    assert_eq!(code, 0, "allowed tree must exit 0:\n{out}");
    assert!(out.contains("PASS"), "{out}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn statuses_cover_the_four_quadrants() {
    let dir = temp_workspace("quadrants");
    write_fixture(&dir, TOY_SPEC, LIB_RS);
    let report = simcheck::lint(&dir).expect("report");
    let statuses: Vec<(String, Status)> = report
        .clauses()
        .map(|c| (c.id.clone(), c.status()))
        .collect();
    assert_eq!(
        statuses,
        vec![
            ("toy:1:covered".to_string(), Status::Covered),
            ("toy:2:impl-only".to_string(), Status::ImplOnly),
            ("toy:3:test-only".to_string(), Status::TestOnly),
            ("toy:4:uncovered".to_string(), Status::Uncovered),
        ]
    );
    // toy:2 is the only MUST gap.
    assert_eq!(report.uncovered_must().len(), 1);
    assert_eq!(report.exit_code(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn binary_fails_on_uncovered_must_and_passes_once_tested() {
    let dir = temp_workspace("must-gap");
    write_fixture(&dir, TOY_SPEC, LIB_RS);
    let (out, _, code) = run(&dir);
    assert_eq!(code, 1, "uncovered MUST must exit 1:\n{out}");
    assert!(out.contains("FAIL"), "{out}");
    assert!(out.contains("[FATAL] toy:2:impl-only"), "{out}");
    assert!(out.contains("[advisory] toy:4:uncovered"), "{out}");

    // Add the missing enforcing test: the MUST gap closes, and the
    // remaining SHOULD gaps are advisory — the tree passes.
    write_fixture(&dir, TOY_SPEC, &full_lib());
    let (out, _, code) = run(&dir);
    assert_eq!(code, 0, "SHOULD gaps are advisory:\n{out}");
    assert!(out.contains("PASS"), "{out}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn binary_fails_on_dangling_and_unanchored_citations() {
    // A citation of a clause that is not in the registry.
    let dir = temp_workspace("dangling");
    let full = full_lib();
    let dangling = format!("{full}\n//= spec: toy:9:ghost\npub fn ghost() {{}}\n");
    write_fixture(&dir, TOY_SPEC, &dangling);
    let (out, _, code) = run(&dir);
    assert_eq!(code, 1, "dangling citation must fail:\n{out}");
    assert!(out.contains("unknown-clause"), "{out}");
    assert!(out.contains("toy:9:ghost"), "{out}");

    // A citation hanging over a blank line (the cited code was
    // deleted): also fatal.
    let unanchored = format!("{full}\n//= spec: toy:1:covered\n\npub fn moved() {{}}\n");
    write_fixture(&dir, TOY_SPEC, &unanchored);
    let (out, _, code) = run(&dir);
    assert_eq!(code, 1, "unanchored citation must fail:\n{out}");
    assert!(out.contains("unanchored-citation"), "{out}");

    // A `//=` directive that is not `spec: <clause-id>`.
    let malformed = format!("{full}\n//= cite: toy:1:covered\npub fn odd() {{}}\n");
    write_fixture(&dir, TOY_SPEC, &malformed);
    let (out, _, code) = run(&dir);
    assert_eq!(code, 1, "malformed directive must fail:\n{out}");
    assert!(out.contains("malformed-directive"), "{out}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn broken_registry_is_exit_2_not_all_covered() {
    let dir = temp_workspace("bad-registry");
    write_fixture(&dir, "spec toy\nclause toy:1:x MUST\n  t\n", LIB_RS);
    let (out, err, code) = run(&dir);
    assert_eq!(code, 2, "registry parse error is a usage-class failure");
    assert!(err.contains("no title"), "{err}");
    assert!(out.is_empty(), "no report from a broken registry:\n{out}");
    // So is a missing specs/ directory.
    let empty = temp_workspace("no-specs");
    std::fs::remove_dir_all(empty.join("specs")).expect("rm specs");
    let (_, err, code) = run(&empty);
    assert_eq!(code, 2);
    assert!(err.contains("specs"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&empty);
}

/// One run, one report: a determinism violation and a MUST gap in the
/// same tree both show, and the run exits 1.
#[test]
fn one_run_reports_both_halves() {
    let dir = temp_workspace("both-halves");
    write_fixture(&dir, TOY_SPEC, LIB_RS);
    write_source(&dir, "crates/sim/src/injected.rs", INJECTED);
    let (out, _, code) = run(&dir);
    assert_eq!(code, 1, "{out}");
    assert!(
        out.contains("crates/sim/src/injected.rs:1: [float-eq]"),
        "{out}"
    );
    assert!(out.contains("[FATAL] toy:2:impl-only"), "{out}");
    // Diagnostics come first, then the coverage table.
    let diag = out.find("[float-eq]").expect("diagnostic");
    let table = out.find("MUST coverage").expect("table");
    assert!(diag < table, "{out}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// No allow, by id or `all`, turns a spec finding off.
#[test]
fn spec_findings_cannot_be_silenced() {
    let dir = temp_workspace("unsilenceable");
    write_fixture(&dir, TOY_SPEC, &full_lib());
    write_source(
        &dir,
        "crates/bench/src/x.rs",
        "// simcheck: allow(unanchored-citation)\n//= spec: toy:1:covered\n\npub fn moved() {}\n\
         // simcheck: allow(all)\n//= cite: toy:1:covered\npub fn odd() {}\n",
    );
    let (out, _, code) = run(&dir);
    assert_eq!(code, 1, "{out}");
    assert!(
        out.contains("crates/bench/src/x.rs:2: [unanchored-citation]"),
        "{out}"
    );
    assert!(
        out.contains("crates/bench/src/x.rs:6: [malformed-directive]"),
        "{out}"
    );
    assert!(out.contains("problems: 2"), "{out}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_takes_only_root() {
    let dir = temp_workspace("cli");
    write_fixture(&dir, TOY_SPEC, &full_lib());
    let status = |args: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_simcheck"))
            .args(args)
            .output()
            .expect("run simcheck");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stderr).lines().count(),
        )
    };
    let root = dir.to_str().unwrap();
    assert_eq!(status(&[&format!("--root={root}")]), (Some(0), 0));
    for bad in [
        &["--format=json"][..],
        &["summary"],
        &["--json"],
        &["--root"],
    ] {
        assert_eq!(status(bad), (Some(2), 1), "{bad:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
