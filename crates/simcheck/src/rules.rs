//! The simcheck rule catalog.
//!
//! Every rule is a short pattern over the token stream from
//! [`crate::lexer`]. The catalog encodes the determinism and
//! unit-discipline contract of DESIGN.md §4 ("one seed → identical
//! run") as machine-checked rules rather than review lore. It holds
//! only the rules no clippy lint expresses; hash collections, the wall
//! clock and hot-path unwraps are clippy's (`clippy.toml`):
//!
//! | id                 | what it rejects |
//! |--------------------|-----------------|
//! | `float-eq`         | `==`/`!=` against a float literal (use an epsilon, an integer representation, or bit-pattern comparison) |
//! | `narrowing-cast`   | `as u32`-style narrowing of time- or sequence-suffixed values (silent truncation of ns timestamps / unwrapped 64-bit sequence offsets) |
//! | `time-unit-suffix` | declaring a bare-numeric field/binding whose name is a time word (`timeout`, `delay`, …) without a unit suffix (`_us`, `_ms`, `_s`, …) — use `SimTime`/`SimDuration` or name the unit |
//! | `sorted-iteration` | re-sorting a `Vec` freshly collected from an ordered BTree iteration (`.keys()`, `.values()`, `.range()` …) — the collection is already sorted; the `.sort()` is a redundant O(n log n) |
//!
//! Every file gets the whole catalog. Suppression: `// simcheck:
//! allow(rule-id)` on the offending line or the line directly above it.
//!
//! Three more ids name spec-citation findings (`malformed-directive`,
//! `unanchored-citation`, `unknown-clause`, see [`crate::annotations`]).
//! They are not in [`Rule::ALL`] and never pass through [`check`], so
//! no allow can switch one off.

use crate::lexer::{Lexed, Token, TokenKind};
use std::fmt;

/// Every finding id simcheck reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    FloatEq,
    NarrowingCast,
    TimeUnitSuffix,
    SortedIteration,
    /// `//=` directive that is not `spec: <clause-id>`.
    MalformedDirective,
    /// Citation whose next source line is blank or missing.
    UnanchoredCitation,
    /// Citation naming a clause id absent from the registry.
    UnknownClause,
}

impl Rule {
    /// The determinism catalog: the rules an allow can switch off.
    pub const ALL: [Rule; 4] = [
        Rule::FloatEq,
        Rule::NarrowingCast,
        Rule::TimeUnitSuffix,
        Rule::SortedIteration,
    ];

    pub fn id(self) -> &'static str {
        match self {
            Rule::FloatEq => "float-eq",
            Rule::NarrowingCast => "narrowing-cast",
            Rule::TimeUnitSuffix => "time-unit-suffix",
            Rule::SortedIteration => "sorted-iteration",
            Rule::MalformedDirective => "malformed-directive",
            Rule::UnanchoredCitation => "unanchored-citation",
            Rule::UnknownClause => "unknown-clause",
        }
    }

    /// True for the spec-citation findings, which nothing can silence.
    pub fn is_spec(self) -> bool {
        !Rule::ALL.contains(&self)
    }

    pub fn from_id(id: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.id() == id)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Path as given to the scanner (workspace-relative in CI output).
    pub file: String,
    pub line: u32,
    pub rule: Rule,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.rule.id(),
            self.message
        )
    }
}

const NARROW_INT_TYPES: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];
const NUMERIC_PRIMITIVES: [&str; 14] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64",
];
/// Words that mark an identifier as time-carrying when they are its
/// final snake_case segment.
const TIME_WORDS: [&str; 12] = [
    "time", "timeout", "deadline", "delay", "latency", "interval", "duration", "elapsed", "period",
    "airtime", "rtt", "rto",
];
/// Unit suffixes that satisfy the `time-unit-suffix` rule, and that mark
/// a value as time-carrying for `narrowing-cast`.
const UNIT_SUFFIXES: [&str; 9] = [
    "_us", "_ms", "_ns", "_s", "_secs", "_sec", "_millis", "_micros", "_nanos",
];
/// `SimDuration`/`SimTime` accessors whose u64 results must not be
/// narrowed.
const TIME_ACCESSORS: [&str; 5] = ["as_nanos", "as_micros", "as_millis", "as_secs", "as_mins"];

fn has_unit_suffix(name: &str) -> bool {
    UNIT_SUFFIXES.iter().any(|s| name.ends_with(s))
}

fn is_seq_name(name: &str) -> bool {
    name.split('_').any(|seg| seg == "seq")
}

fn final_segment(name: &str) -> &str {
    name.rsplit('_').next().unwrap_or(name)
}

/// Run the catalog over one lexed file, honoring its `allow`
/// annotations.
pub fn check(file: &str, lexed: &Lexed) -> Vec<Diagnostic> {
    let toks = &lexed.tokens;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        out.extend(float_eq_at(file, toks, i));
        out.extend(narrowing_cast_at(file, toks, i));
        out.extend(missing_unit_suffix_at(file, toks, i));
        out.extend(sorted_iteration_at(file, toks, i));
    }
    out.retain(|d| !is_allowed(lexed, d));
    out
}

/// `==` / `!=` at position `i` with a float literal on either side.
fn float_eq_at(file: &str, toks: &[Token], i: usize) -> Option<Diagnostic> {
    let op = match toks[i].kind {
        TokenKind::EqEq => "==",
        TokenKind::NotEq => "!=",
        _ => return None,
    };
    let float_beside = [i.checked_sub(1), Some(i + 1)]
        .into_iter()
        .flatten()
        .filter_map(|j| toks.get(j))
        .any(|t| t.kind == TokenKind::Float);
    float_beside.then(|| {
        diag(
            file,
            &toks[i],
            Rule::FloatEq,
            format!("float literal compared with `{op}`; compare with an epsilon or integers"),
        )
    })
}

/// `<time-or-seq value> as <narrow int>` at position `i` (the `as`).
fn narrowing_cast_at(file: &str, toks: &[Token], i: usize) -> Option<Diagnostic> {
    if toks[i].kind.ident() != Some("as") {
        return None;
    }
    let ty = toks.get(i + 1)?.kind.ident()?;
    if !NARROW_INT_TYPES.contains(&ty) {
        return None;
    }
    let prev = toks.get(i.checked_sub(1)?)?;
    let culprit = match &prev.kind {
        TokenKind::Ident(name) if has_unit_suffix(name) || is_seq_name(name) => name.clone(),
        // `x.as_nanos() as u32`: look back through the call parens for
        // the method name.
        TokenKind::Punct(')') => {
            let mut depth = 0usize;
            let mut j = i - 1;
            loop {
                match &toks[j].kind {
                    TokenKind::Punct(')') => depth += 1,
                    TokenKind::Punct('(') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j = j.checked_sub(1)?;
            }
            let method = toks.get(j.checked_sub(1)?)?.kind.ident()?;
            if TIME_ACCESSORS.contains(&method) || has_unit_suffix(method) {
                format!("{method}()")
            } else {
                return None;
            }
        }
        _ => return None,
    };
    Some(diag(
        file,
        &toks[i],
        Rule::NarrowingCast,
        format!("`{culprit} as {ty}` narrows a time/sequence value; keep 64 bits or justify with an allow"),
    ))
}

/// `name: u64`-style declaration where `name` is a bare time word.
fn missing_unit_suffix_at(file: &str, toks: &[Token], i: usize) -> Option<Diagnostic> {
    let name = toks[i].kind.ident()?;
    if !toks.get(i + 1)?.kind.is_punct(':') {
        return None;
    }
    // `a::b` paths lex as two ':' puncts; require exactly one.
    if toks.get(i + 2)?.kind.is_punct(':') {
        return None;
    }
    if i > 0 && toks[i - 1].kind.is_punct(':') {
        return None;
    }
    let ty = toks.get(i + 2)?.kind.ident()?;
    if !NUMERIC_PRIMITIVES.contains(&ty) {
        return None;
    }
    let last = final_segment(name);
    if !TIME_WORDS.contains(&last) {
        return None;
    }
    Some(diag(
        file,
        &toks[i],
        Rule::TimeUnitSuffix,
        format!(
            "`{name}: {ty}` carries time without a unit; suffix it (`{name}_us`, `{name}_ms`, …) or use SimTime/SimDuration"
        ),
    ))
}

/// Idents inside an initializer that mark it as iterating an ordered
/// BTree structure, whose collected `Vec` is therefore already sorted.
const ORDERED_SOURCE_HINTS: [&str; 7] = [
    "BTreeMap",
    "BTreeSet",
    "keys",
    "values",
    "range",
    "first_key_value",
    "last_key_value",
];

/// `let v = …BTree-iteration….collect(); … v.sort()` at position `i`
/// (the `let`). Collecting an ordered iteration and then re-sorting the
/// `Vec` is a redundant O(n log n); `sort_by*` is deliberately not
/// flagged — imposing a *different* order is legitimate.
fn sorted_iteration_at(file: &str, toks: &[Token], i: usize) -> Option<Diagnostic> {
    if toks[i].kind.ident() != Some("let") {
        return None;
    }
    let mut j = i + 1;
    if toks.get(j)?.kind.ident() == Some("mut") {
        j += 1;
    }
    let name = toks.get(j)?.kind.ident()?;
    // Scan the initializer up to its terminating `;`.
    let mut saw_collect = false;
    let mut saw_ordered_source = false;
    let mut depth = 0usize;
    loop {
        j += 1;
        let t = toks.get(j)?;
        match &t.kind {
            TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('{') => depth += 1,
            TokenKind::Punct(')') | TokenKind::Punct(']') | TokenKind::Punct('}') => {
                depth = depth.saturating_sub(1);
            }
            TokenKind::Punct(';') if depth == 0 => break,
            TokenKind::Ident(s) => match s.as_str() {
                "collect" => saw_collect = true,
                s if ORDERED_SOURCE_HINTS.contains(&s) => saw_ordered_source = true,
                // Ran into another statement: the `let` had no
                // initializer (`let x;`) or the file is unbalanced.
                "let" => return None,
                _ => {}
            },
            _ => {}
        }
    }
    if !(saw_collect && saw_ordered_source) {
        return None;
    }
    // A re-sort shortly after the binding: `name.sort()` /
    // `name.sort_unstable()` within the next few statements.
    for k in j..toks.len().min(j + 40) {
        if toks[k].kind.ident() == Some(name)
            && toks.get(k + 1).is_some_and(|t| t.kind.is_punct('.'))
        {
            if let Some(m) = toks.get(k + 2).and_then(|t| t.kind.ident()) {
                if (m == "sort" || m == "sort_unstable")
                    && toks.get(k + 3).is_some_and(|t| t.kind.is_punct('('))
                {
                    return Some(diag(
                        file,
                        &toks[k + 2],
                        Rule::SortedIteration,
                        format!("`{name}` was collected from an ordered BTree iteration and is already sorted; drop the redundant `.{m}()`"),
                    ));
                }
            }
        }
    }
    None
}

fn diag(file: &str, tok: &Token, rule: Rule, message: String) -> Diagnostic {
    Diagnostic {
        file: file.to_string(),
        line: tok.line,
        rule,
        message,
    }
}

fn is_allowed(lexed: &Lexed, d: &Diagnostic) -> bool {
    lexed.allows.iter().any(|a| {
        (a.line == d.line || a.line + 1 == d.line)
            && a.rules.iter().any(|r| r == d.rule.id() || r == "all")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(src: &str) -> Vec<Diagnostic> {
        check("t.rs", &lex(src))
    }

    #[test]
    fn clean_code_has_no_diagnostics() {
        let src = r#"
            use std::collections::BTreeMap;
            struct S { timeout_us: u64, rtt: SimDuration, n_times: usize }
            fn f(x: f64, y: f64) -> bool { (x - y).abs() < 1e-9 }
            fn g(seq: u64) -> u64 { seq as u64 }
        "#;
        assert_eq!(run(src), vec![]);
    }

    #[test]
    fn allow_suppresses_same_and_next_line() {
        let src = "// simcheck: allow(float-eq)\nlet a = x == 0.5;\nlet b = y != 1.5; // simcheck: allow(float-eq)";
        assert_eq!(run(src), vec![]);
        // …but only those lines.
        let src2 = "// simcheck: allow(float-eq)\nlet a = 1;\nlet b = x == 0.5;";
        assert_eq!(run(src2).len(), 1);
    }

    #[test]
    fn allow_is_rule_specific() {
        let src = "let a = x == 0.5; // simcheck: allow(narrowing-cast)";
        assert_eq!(run(src).len(), 1, "wrong rule id does not suppress");
    }

    #[test]
    fn sorted_iteration_flags_redundant_resort() {
        let bad = "let mut v: Vec<u64> = m.keys().copied().collect();\nv.sort_unstable();";
        let d = run(bad);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, Rule::SortedIteration);
        assert_eq!(d[0].line, 2);
        let bad2 = "fn f(m: &BTreeMap<u32, u32>) {\n    let xs: Vec<(u32, u32)> = m.range(..10).map(|(k, v)| (*k, *v)).collect();\n    xs.sort();\n}";
        assert_eq!(run(bad2).len(), 1);
        // Re-sorting by a *different* key is legitimate.
        let by_key = "let mut v: Vec<(u64, u64)> = m.keys().map(|k| (score(k), *k)).collect();\nv.sort_by_key(|p| p.0);";
        assert_eq!(run(by_key), vec![]);
        // Sorting a Vec collected from an unordered source is the
        // normal pattern, not a violation.
        let fine = "let mut v: Vec<u64> = samples.iter().copied().collect();\nv.sort_unstable();";
        assert_eq!(run(fine), vec![]);
        // And the hatch applies on the sort's line.
        let hatched = "let mut v: Vec<u64> = m.keys().copied().collect();\n// simcheck: allow(sorted-iteration)\nv.sort_unstable();";
        assert_eq!(run(hatched), vec![]);
    }

    #[test]
    fn rule_ids_roundtrip() {
        for r in Rule::ALL {
            assert_eq!(Rule::from_id(r.id()), Some(r));
        }
        assert_eq!(Rule::from_id("no-such-rule"), None);
    }
}
