//! Test-context detection over the token stream.
//!
//! The spec-citation scan needs to know whether a given line of a source
//! file is test code, to tell *implementation* citations from *test*
//! citations. It reads the ranges [`test_ranges`] computes once per
//! file. "Test code" means:
//!
//! - any item annotated `#[test]`;
//! - any item gated behind a `cfg` attribute that mentions `test`
//!   (`#[cfg(test)] mod tests`, `#[cfg(all(test, feature = "x"))]` …)
//!   — except `cfg(not(test))`, which marks the opposite;
//! - whole files under a `tests/` or `benches/` root;
//! - whole files named `tests.rs`, the body of a `#[cfg(test)] mod
//!   tests;` declared in the parent module.
//!
//! Detection is token-based, not parse-based: the attribute's bracket
//! group is matched, then the following item's brace-delimited body.
//! The ranges are a sound-enough over-approximation for a linter —
//! attributes whose `cfg` both negates and mentions `test`
//! (`cfg(any(not(feature = "x"), test))`) are skipped conservatively.

use crate::lexer::{Token, TokenKind};

/// The test-code line ranges of the file at `rel_path` whose tokens are
/// `toks`: the whole file when its path says so, else its test-gated
/// items.
pub fn test_ranges(rel_path: &str, toks: &[Token]) -> Vec<(u32, u32)> {
    if is_test_path(rel_path) {
        vec![(1, u32::MAX)]
    } else {
        test_line_ranges(toks)
    }
}

/// Inclusive 1-based line ranges covered by test-gated items in `toks`.
/// A range starts on the attribute's own line, so citations placed
/// between `#[test]` and the `fn` header still count as test context.
fn test_line_ranges(toks: &[Token]) -> Vec<(u32, u32)> {
    let mut ranges: Vec<(u32, u32)> = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        match test_attr_end(toks, i) {
            Some(end) => {
                if let Some(hi) = brace_region_end(toks, end) {
                    ranges.push((toks[i].line, hi));
                }
                i = end;
            }
            None => i += 1,
        }
    }
    ranges
}

/// True when the workspace-relative path is itself test/bench source
/// (integration tests and benches compile as their own test crates, and
/// a `tests.rs` is a `#[cfg(test)] mod tests;` body).
fn is_test_path(rel_path: &str) -> bool {
    let p = rel_path.replace('\\', "/");
    p.starts_with("tests/")
        || p.starts_with("benches/")
        || p.contains("/tests/")
        || p.contains("/benches/")
        || p == "tests.rs"
        || p.ends_with("/tests.rs")
}

/// True when `line` falls inside any of the `ranges`.
pub fn in_test_context(ranges: &[(u32, u32)], line: u32) -> bool {
    ranges.iter().any(|&(lo, hi)| lo <= line && line <= hi)
}

/// If `toks[i]` opens a test-marking attribute (`#[test]`,
/// `#[cfg(test)]`, `#[cfg(all(test, …))]` …), return the index just
/// past its closing `]`.
fn test_attr_end(toks: &[Token], i: usize) -> Option<usize> {
    if !toks[i].kind.is_punct('#') || !toks.get(i + 1)?.kind.is_punct('[') {
        return None;
    }
    let mut depth = 0usize;
    let mut j = i + 1;
    let mut idents: Vec<&str> = Vec::new();
    loop {
        let t = toks.get(j)?;
        match &t.kind {
            TokenKind::Punct('[') | TokenKind::Punct('(') => depth += 1,
            TokenKind::Punct(']') | TokenKind::Punct(')') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    break;
                }
            }
            TokenKind::Ident(s) => idents.push(s),
            _ => {}
        }
        j += 1;
    }
    let marked = match idents.first().copied() {
        Some("test") => idents.len() == 1,
        Some("cfg") => idents.contains(&"test") && !idents.contains(&"not"),
        _ => false,
    };
    if marked {
        Some(j + 1)
    } else {
        None
    }
}

/// Line of the `}` closing the brace-delimited body of the item that
/// starts at `toks[start]`, skipping further attributes and the item
/// header. Returns None for brace-less items (`#[cfg(test)] use …;`)
/// and for unbalanced input (the linter must never panic).
fn brace_region_end(toks: &[Token], start: usize) -> Option<u32> {
    let mut j = start;
    let mut depth = 0usize; // (…) / […] nesting in the item header
    let open = loop {
        let t = toks.get(j)?;
        match &t.kind {
            TokenKind::Punct('(') | TokenKind::Punct('[') => depth += 1,
            TokenKind::Punct(')') | TokenKind::Punct(']') => depth = depth.saturating_sub(1),
            TokenKind::Punct('{') if depth == 0 => break j,
            TokenKind::Punct(';') if depth == 0 => return None,
            _ => {}
        }
        j += 1;
    };
    let mut braces = 0usize;
    for t in &toks[open..] {
        match &t.kind {
            TokenKind::Punct('{') => braces += 1,
            TokenKind::Punct('}') => {
                braces -= 1;
                if braces == 0 {
                    return Some(t.line);
                }
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn ranges(src: &str) -> Vec<(u32, u32)> {
        test_line_ranges(&lex(src).tokens)
    }

    #[test]
    fn cfg_test_mod_spans_its_body() {
        let src = "fn lib() {}\n\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\nfn after() {}";
        assert_eq!(ranges(src), vec![(3, 6)]);
        let r = ranges(src);
        assert!(!in_test_context(&r, 1));
        assert!(in_test_context(&r, 5));
        assert!(!in_test_context(&r, 7));
    }

    #[test]
    fn test_attr_marks_single_fn() {
        let src = "#[test]\nfn one() {\n    body();\n}\nfn not_a_test() {}";
        assert_eq!(ranges(src), vec![(1, 4)]);
    }

    #[test]
    fn cfg_any_with_test_counts_but_not_counts_not() {
        assert_eq!(
            ranges("#[cfg(all(test, feature = \"x\"))]\nmod t {\n}\n"),
            vec![(1, 3)]
        );
        assert_eq!(ranges("#[cfg(not(test))]\nmod real {\n}\n"), vec![]);
        assert_eq!(ranges("#[cfg(feature = \"extra\")]\nmod s {\n}\n"), vec![]);
    }

    #[test]
    fn braceless_and_unbalanced_items_are_skipped() {
        assert_eq!(ranges("#[cfg(test)]\nuse std::fmt;\nfn f() {}"), vec![]);
        assert_eq!(ranges("#[cfg(test)]\nmod broken {\n    fn f() {"), vec![]);
    }

    #[test]
    fn attribute_stacking_reaches_the_body() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nmod tests {\n    fn f() {}\n}";
        assert_eq!(ranges(src), vec![(1, 5)]);
    }

    #[test]
    fn test_paths_are_recognized() {
        assert!(is_test_path("tests/end_to_end.rs"));
        assert!(is_test_path("crates/tcp/tests/integration.rs"));
        assert!(is_test_path("crates/bench/benches/queue.rs"));
        assert!(is_test_path("crates/netsim/src/testbed/tests.rs"));
        assert!(!is_test_path("crates/tcp/src/sender.rs"));
        assert!(!is_test_path("crates/tcp/src/contests.rs"));
    }
}
