//! Scanning `//= spec: <clause-id>` citations out of one lexed file.
//!
//! Citations ride the lexer's directives: they come from *comments
//! only*, so a clause id inside a string literal or doc comment can
//! never fabricate coverage. Each citation is classified as an
//! *implementation* citation or a *test* citation by the file's test
//! ranges ([`crate::context::test_ranges`]): citations inside
//! `#[cfg(test)]` / `#[test]` regions, in `tests/` / `benches/` files
//! or in a `tests.rs` enforce; everything else implements.
//!
//! A citation must stay *anchored*: the directive's own line holds code
//! (trailing-comment form), or the next line is non-blank (the cited
//! statement, another directive of the same block, or at minimum a
//! comment). When the code under a citation is deleted — leaving the
//! directive hanging over a blank line or EOF — the lint fails, which
//! is the "cited source line no longer exists" contract.

use crate::context::{in_test_context, test_ranges};
use crate::lexer::Lexed;
use crate::rules::{Diagnostic, Rule};
use std::collections::BTreeSet;

/// Whether a citation sits in implementation or test code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CiteKind {
    Impl,
    Test,
}

/// One `//= spec: <clause-id>` citation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Citation {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line of the directive comment.
    pub line: u32,
    pub clause: String,
    pub kind: CiteKind,
}

/// The citations in `src` (lexed as `lexed`), as if it were `rel_path`
/// in the workspace, and the malformed or unanchored directives among
/// them. Every such finding is fatal: exit 1.
pub fn citations(rel_path: &str, src: &str, lexed: &Lexed) -> (Vec<Citation>, Vec<Diagnostic>) {
    let ranges = test_ranges(rel_path, &lexed.tokens);
    let token_lines: BTreeSet<u32> = lexed.tokens.iter().map(|t| t.line).collect();
    let lines: Vec<&str> = src.lines().collect();
    let problem = |line: u32, rule: Rule, message: String| Diagnostic {
        file: rel_path.to_string(),
        line,
        rule,
        message,
    };

    let mut citations = Vec::new();
    let mut problems = Vec::new();
    for d in &lexed.directives {
        let clause = match d.text.strip_prefix("spec:") {
            Some(rest) => rest.trim(),
            None => {
                problems.push(problem(
                    d.line,
                    Rule::MalformedDirective,
                    format!(
                        "unrecognized directive `//= {}`; expected `//= spec: <clause-id>`",
                        d.text
                    ),
                ));
                continue;
            }
        };
        if clause.is_empty() || clause.contains(char::is_whitespace) {
            problems.push(problem(
                d.line,
                Rule::MalformedDirective,
                format!("`//= spec:` needs a single clause id, got `{clause}`"),
            ));
            continue;
        }
        // Anchor rule: code on the directive's own line (trailing
        // comment), or a non-blank next line.
        let next_nonblank = lines
            .get(d.line as usize) // 0-based index of the *next* line
            .is_some_and(|l| !l.trim().is_empty());
        if !token_lines.contains(&d.line) && !next_nonblank {
            problems.push(problem(
                d.line,
                Rule::UnanchoredCitation,
                format!(
                    "citation of `{clause}` hangs over a blank line or EOF; the cited code is gone"
                ),
            ));
            continue;
        }
        let kind = if in_test_context(&ranges, d.line) {
            CiteKind::Test
        } else {
            CiteKind::Impl
        };
        citations.push(Citation {
            file: rel_path.to_string(),
            line: d.line,
            clause: clause.to_string(),
            kind,
        });
    }
    (citations, problems)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn scan_file(rel_path: &str, src: &str) -> (Vec<Citation>, Vec<Diagnostic>) {
        citations(rel_path, src, &lex(src))
    }

    #[test]
    fn impl_and_test_citations_are_classified() {
        let src = "\
//= spec: rfc5681:3.2:dupack-threshold
fn fast_retransmit() {}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        //= spec: rfc5681:3.2:dupack-threshold
        assert!(true);
    }
}
";
        let (cites, probs) = scan_file("crates/tcp/src/sender.rs", src);
        assert_eq!(probs, vec![]);
        assert_eq!(cites.len(), 2);
        assert_eq!(cites[0].kind, CiteKind::Impl);
        assert_eq!(cites[0].line, 1);
        assert_eq!(cites[1].kind, CiteKind::Test);
        assert_eq!(cites[0].clause, "rfc5681:3.2:dupack-threshold");
    }

    #[test]
    fn tests_dir_files_are_test_citations() {
        let src = "//= spec: toy:1:x\nfn check() {}\n";
        let (cites, _) = scan_file("crates/tcp/tests/integration.rs", src);
        assert_eq!(cites[0].kind, CiteKind::Test);
        let (cites, _) = scan_file("tests/end_to_end.rs", src);
        assert_eq!(cites[0].kind, CiteKind::Test);
    }

    #[test]
    fn stacked_directives_anchor_through_each_other() {
        let src = "//= spec: toy:1:a\n//= spec: toy:1:b\nfn f() {}\n";
        let (cites, probs) = scan_file("crates/tcp/src/x.rs", src);
        assert_eq!(probs, vec![]);
        assert_eq!(cites.len(), 2);
    }

    #[test]
    fn unanchored_citations_are_problems() {
        // Blank line below.
        let (c, p) = scan_file("crates/tcp/src/x.rs", "//= spec: toy:1:a\n\nfn f() {}\n");
        assert_eq!(c, vec![]);
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].rule, Rule::UnanchoredCitation);
        // EOF below.
        let (c, p) = scan_file("crates/tcp/src/x.rs", "fn f() {}\n//= spec: toy:1:a\n");
        assert_eq!(c, vec![]);
        assert_eq!(p[0].rule, Rule::UnanchoredCitation);
        // Trailing-comment form anchors on its own line.
        let (c, p) = scan_file("crates/tcp/src/x.rs", "fn f() {} //= spec: toy:1:a\n");
        assert_eq!(p, vec![]);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn malformed_directives_are_problems() {
        let (c, p) = scan_file("crates/tcp/src/x.rs", "//= cite: toy:1:a\nfn f() {}\n");
        assert_eq!(c, vec![]);
        assert_eq!(p[0].rule, Rule::MalformedDirective);
        let (c, p) = scan_file("crates/tcp/src/x.rs", "//= spec: two ids\nfn f() {}\n");
        assert_eq!(c, vec![]);
        assert_eq!(p[0].rule, Rule::MalformedDirective);
    }

    #[test]
    fn strings_and_doc_comments_cannot_fabricate_citations() {
        let src = "let s = \"//= spec: toy:1:a\";\n/// //= spec: toy:1:b\nfn f() {}\n";
        let (c, p) = scan_file("crates/tcp/src/x.rs", src);
        assert_eq!(c, vec![]);
        assert_eq!(p, vec![]);
    }
}
