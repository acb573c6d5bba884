//! A minimal, dependency-free Rust lexer — just enough structure for the
//! simcheck rule catalog.
//!
//! The scanner does not parse; it produces a flat token stream with line
//! numbers, which is all the rules need (they match short token patterns
//! like `HashMap`, `== <float>` or `ident : u64`). What it *must* get
//! right is what a regex cannot: comments, string/char literals (so a
//! `HashMap` inside a doc string is not a violation), raw strings,
//! lifetimes vs char literals, and int vs float literals (so `0..10` is
//! not mistaken for a float).
//!
//! Line comments are additionally scanned for the escape hatch
//! `// simcheck: allow(rule-a, rule-b)`, which suppresses those rules on
//! the comment's own line and the line below it (so the annotation can
//! sit above the offending statement or trail it), and for `//=`
//! citation directives (`//= spec: <clause-id>`), which tie code and
//! tests back to spec clauses (see [`crate::annotations`]). Both are recognized only
//! in plain `//` comments: doc comments (`///`, `//!`) merely *talk
//! about* the syntax, and a doc example must never suppress a real
//! diagnostic or fabricate a citation.

/// One lexical token with the 1-based line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub kind: TokenKind,
    pub line: u32,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`as`, `let`, `fn` … are not distinguished).
    Ident(String),
    /// Integer literal (any base, suffix stripped is not attempted).
    Int,
    /// Float literal: has a fractional part, an exponent, or an f32/f64
    /// suffix.
    Float,
    /// String / raw string / byte string literal.
    Str,
    /// Character or byte literal.
    Char,
    /// Lifetime (`'a`) or loop label.
    Lifetime,
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// Any other single punctuation character.
    Punct(char),
}

impl TokenKind {
    pub fn ident(&self) -> Option<&str> {
        match self {
            TokenKind::Ident(s) => Some(s.as_str()),
            _ => None,
        }
    }

    pub fn is_punct(&self, c: char) -> bool {
        matches!(self, TokenKind::Punct(p) if *p == c)
    }
}

/// A `// simcheck: allow(...)` annotation found while lexing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// Line the comment appears on (1-based).
    pub line: u32,
    /// Rule ids listed inside `allow(...)`.
    pub rules: Vec<String>,
}

/// A `//= …` citation directive found while lexing (the s2n-quic-style
/// spec-annotation syntax; see [`crate::annotations`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Directive {
    /// Line the comment appears on (1-based).
    pub line: u32,
    /// Text after the `//=` marker, trimmed.
    pub text: String,
}

/// The result of lexing one source file.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub allows: Vec<Allow>,
    pub directives: Vec<Directive>,
}

/// Lex `src` into tokens + escape-hatch annotations. Unterminated
/// constructs are tolerated (the remainder of the file is consumed as
/// the open literal/comment) — a linter must never panic on odd input.
pub fn lex(src: &str) -> Lexed {
    Lexer {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
        out: Lexed::default(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    out: Lexed,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied();
        if let Some(c) = c {
            self.pos += 1;
            if c == '\n' {
                self.line += 1;
            }
        }
        c
    }

    fn push(&mut self, kind: TokenKind, line: u32) {
        self.out.tokens.push(Token { kind, line });
    }

    fn run(mut self) -> Lexed {
        while let Some(c) = self.peek(0) {
            let line = self.line;
            match c {
                _ if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => self.string(),
                'r' | 'b' if self.raw_or_byte_literal() => {}
                '\'' => self.char_or_lifetime(),
                _ if c.is_ascii_digit() => self.number(),
                _ if c == '_' || c.is_alphanumeric() => self.ident(),
                '=' if self.peek(1) == Some('=') => {
                    self.bump();
                    self.bump();
                    self.push(TokenKind::EqEq, line);
                }
                '!' if self.peek(1) == Some('=') => {
                    self.bump();
                    self.bump();
                    self.push(TokenKind::NotEq, line);
                }
                _ => {
                    self.bump();
                    self.push(TokenKind::Punct(c), line);
                }
            }
        }
        self.out
    }

    fn line_comment(&mut self) {
        let line = self.line;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        if let Some(rules) = parse_allow(&text) {
            self.out.allows.push(Allow { line, rules });
        } else if let Some(directive) = parse_directive(&text) {
            self.out.directives.push(Directive {
                line,
                text: directive,
            });
        }
    }

    fn block_comment(&mut self) {
        // Consume `/*`, honoring Rust's nesting.
        self.bump();
        self.bump();
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    self.bump();
                    self.bump();
                    depth += 1;
                }
                (Some('*'), Some('/')) => {
                    self.bump();
                    self.bump();
                    depth -= 1;
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => break,
            }
        }
    }

    fn string(&mut self) {
        let line = self.line;
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump();
                }
                '"' => break,
                _ => {}
            }
        }
        self.push(TokenKind::Str, line);
    }

    /// Handle `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, `b'…'`. Returns false
    /// when the leading `r`/`b` is just the start of an identifier.
    fn raw_or_byte_literal(&mut self) -> bool {
        let line = self.line;
        if self.peek(0) == Some('b') && self.peek(1) == Some('\'') {
            // b'x' byte literal.
            self.bump(); // b
            self.bump(); // '
            while let Some(c) = self.bump() {
                match c {
                    '\\' => {
                        self.bump();
                    }
                    '\'' => break,
                    _ => {}
                }
            }
            self.push(TokenKind::Char, line);
            return true;
        }
        if self.peek(0) == Some('b') && self.peek(1) == Some('"') {
            self.bump(); // b; string() consumes the rest with escapes
            self.string();
            return true;
        }
        // Raw forms: r / br, then zero or more #, then ".
        let prefix = match (self.peek(0), self.peek(1)) {
            (Some('r'), _) => 1usize,
            (Some('b'), Some('r')) => 2,
            _ => return false,
        };
        let mut hashes = 0usize;
        while self.peek(prefix + hashes) == Some('#') {
            hashes += 1;
        }
        if self.peek(prefix + hashes) != Some('"') {
            return false; // `r#ident` raw identifier, or a plain ident
        }
        for _ in 0..prefix + hashes + 1 {
            self.bump();
        }
        // Scan until `"` followed by `hashes` `#`s.
        'outer: while let Some(c) = self.bump() {
            if c == '"' {
                for k in 0..hashes {
                    if self.peek(k) != Some('#') {
                        continue 'outer;
                    }
                }
                for _ in 0..hashes {
                    self.bump();
                }
                break;
            }
        }
        self.push(TokenKind::Str, line);
        true
    }

    fn char_or_lifetime(&mut self) {
        let line = self.line;
        self.bump(); // '
                     // Lifetime: 'ident not followed by a closing quote.
        if let Some(c) = self.peek(0) {
            if (c == '_' || c.is_alphabetic()) && self.peek(1) != Some('\'') {
                while let Some(c) = self.peek(0) {
                    if c == '_' || c.is_alphanumeric() {
                        self.bump();
                    } else {
                        break;
                    }
                }
                self.push(TokenKind::Lifetime, line);
                return;
            }
        }
        // Char literal.
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump();
                }
                '\'' => break,
                _ => {}
            }
        }
        self.push(TokenKind::Char, line);
    }

    fn number(&mut self) {
        let line = self.line;
        let mut is_float = false;
        // Base prefix: 0x/0o/0b are always integers.
        if self.peek(0) == Some('0') && matches!(self.peek(1), Some('x') | Some('o') | Some('b')) {
            self.bump();
            self.bump();
            while let Some(c) = self.peek(0) {
                if c.is_ascii_hexdigit() || c == '_' {
                    self.bump();
                } else {
                    break;
                }
            }
            self.push(TokenKind::Int, line);
            return;
        }
        while let Some(c) = self.peek(0) {
            if c.is_ascii_digit() || c == '_' {
                self.bump();
            } else {
                break;
            }
        }
        // Fractional part — but `1..10` is a range and `1.max(2)` a
        // method call, so `.` only makes a float when a digit follows
        // (or nothing ident-like, as in `1.`; we require a digit, which
        // matches this workspace's style and avoids `tuple.0` issues).
        if self.peek(0) == Some('.') && self.peek(1).map(|c| c.is_ascii_digit()) == Some(true) {
            is_float = true;
            self.bump();
            while let Some(c) = self.peek(0) {
                if c.is_ascii_digit() || c == '_' {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        // Exponent.
        if matches!(self.peek(0), Some('e') | Some('E')) {
            let mut k = 1usize;
            if matches!(self.peek(1), Some('+') | Some('-')) {
                k = 2;
            }
            if self.peek(k).map(|c| c.is_ascii_digit()) == Some(true) {
                is_float = true;
                for _ in 0..k {
                    self.bump();
                }
                while let Some(c) = self.peek(0) {
                    if c.is_ascii_digit() || c == '_' {
                        self.bump();
                    } else {
                        break;
                    }
                }
            }
        }
        // Type suffix (f32/f64 force float; u*/i* keep int).
        let mut suffix = String::new();
        while let Some(c) = self.peek(0) {
            if c == '_' || c.is_alphanumeric() {
                suffix.push(c);
                self.bump();
            } else {
                break;
            }
        }
        if suffix == "f32" || suffix == "f64" {
            is_float = true;
        }
        self.push(
            if is_float {
                TokenKind::Float
            } else {
                TokenKind::Int
            },
            line,
        );
    }

    fn ident(&mut self) {
        let line = self.line;
        let mut s = String::new();
        while let Some(c) = self.peek(0) {
            if c == '_' || c.is_alphanumeric() {
                s.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokenKind::Ident(s), line);
    }
}

/// Parse `// simcheck: allow(a, b)` out of a line comment's text, if
/// present. Only a plain `//` comment whose body *starts* with
/// `simcheck:` counts: matching the marker anywhere would let a doc
/// comment that documents the syntax (`//! … simcheck: allow(x) …`)
/// silently suppress a genuine diagnostic on the line below it.
fn parse_allow(comment: &str) -> Option<Vec<String>> {
    let body = comment.strip_prefix("//")?;
    if body.starts_with('/') || body.starts_with('!') {
        return None; // `///` / `//!` doc comment
    }
    let rest = body.trim_start().strip_prefix("simcheck:")?.trim_start();
    let rest = rest.strip_prefix("allow")?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let close = rest.find(')')?;
    let rules: Vec<String> = rest[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty() {
        None
    } else {
        Some(rules)
    }
}

/// Parse a `//= <text>` citation directive out of a line comment, if
/// present. `//==…` banner/separator comments are decoration, not
/// directives, and doc comments never match (their text starts `///` or
/// `//!`, not `//=`).
fn parse_directive(comment: &str) -> Option<String> {
    let body = comment.strip_prefix("//=")?;
    if body.starts_with('=') {
        return None; // `//====` banner
    }
    Some(body.trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter_map(|t| t.kind.ident().map(|s| s.to_string()))
            .collect()
    }

    #[test]
    fn comments_and_strings_hide_tokens() {
        let src = r##"
            // HashMap in a comment
            /* HashMap /* nested */ still comment */
            let s = "HashMap::new()";
            let r = r#"HashSet"#;
            let c = 'H';
        "##;
        assert!(!idents(src).iter().any(|i| i.contains("Hash")));
    }

    #[test]
    fn float_vs_int_vs_range() {
        let l = lex("let a = 1.5; let b = 0..10; let c = 2e3; let d = 7f64; let e = 1.max(2);");
        let floats = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Float)
            .count();
        let ints = l.tokens.iter().filter(|t| t.kind == TokenKind::Int).count();
        assert_eq!(floats, 3, "1.5, 2e3, 7f64");
        assert_eq!(ints, 4, "0, 10, 1, 2");
    }

    #[test]
    fn lifetimes_are_not_chars() {
        let l = lex("fn f<'a>(x: &'a str) -> char { 'x' }");
        assert_eq!(
            l.tokens
                .iter()
                .filter(|t| t.kind == TokenKind::Lifetime)
                .count(),
            2
        );
        assert_eq!(
            l.tokens
                .iter()
                .filter(|t| t.kind == TokenKind::Char)
                .count(),
            1
        );
    }

    #[test]
    fn eq_ops_are_tokenized() {
        let l = lex("a == b; c != d; e = f; g <= h;");
        assert_eq!(
            l.tokens
                .iter()
                .filter(|t| t.kind == TokenKind::EqEq)
                .count(),
            1
        );
        assert_eq!(
            l.tokens
                .iter()
                .filter(|t| t.kind == TokenKind::NotEq)
                .count(),
            1
        );
    }

    #[test]
    fn allow_annotations_are_collected() {
        let src = "let x = 1; // simcheck: allow(float-eq, wall-clock)\nlet y = 2;\n// simcheck: allow(hash-collections)\nlet z = 3;";
        let l = lex(src);
        assert_eq!(l.allows.len(), 2);
        assert_eq!(l.allows[0].line, 1);
        assert_eq!(l.allows[0].rules, vec!["float-eq", "wall-clock"]);
        assert_eq!(l.allows[1].line, 3);
        assert_eq!(l.allows[1].rules, vec!["hash-collections"]);
    }

    #[test]
    fn line_numbers_track_newlines() {
        let l = lex("a\nb\n\nc");
        let lines: Vec<u32> = l.tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn byte_and_raw_literals() {
        let l = lex(r##"let a = b"HashMap"; let b = br#"HashSet"# ; let c = b'q';"##);
        assert!(!l
            .tokens
            .iter()
            .any(|t| t.kind.ident().is_some_and(|i| i.contains("Hash"))));
    }

    #[test]
    fn doc_comments_do_not_register_allows() {
        // A doc comment that *documents* the escape-hatch syntax must
        // not act as one — it would silently suppress a genuine
        // diagnostic on the line below the docs.
        let src = "//! e.g. simcheck: allow(float-eq)\nlet a = 1;\n/// simcheck: allow(wall-clock)\nlet b = 2;";
        assert_eq!(lex(src).allows, vec![]);
        // …while a plain comment still does, including trailing ones.
        let src2 = "// simcheck: allow(float-eq)\nlet a = 1; // simcheck: allow(wall-clock)";
        assert_eq!(lex(src2).allows.len(), 2);
        // Prose mentioning the marker mid-comment is not an annotation.
        let src3 = "// see simcheck: allow(float-eq) in DESIGN.md\nlet a = 1;";
        assert_eq!(lex(src3).allows, vec![]);
    }

    #[test]
    fn directives_are_collected_from_plain_comments_only() {
        let src = concat!(
            "//= spec: rfc5681:3.2:dupack-threshold\n",
            "//= spec: rfc6675:6:once-per-episode\n",
            "let x = 1;\n",
            "//======= banner, not a directive\n",
            "/// //= spec: doc-example-not-collected\n",
            "let s = \"//= spec: string-not-collected\";\n",
            "let r = r#\"//= spec: raw-string-not-collected\"#;\n",
        );
        let l = lex(src);
        let texts: Vec<&str> = l.directives.iter().map(|d| d.text.as_str()).collect();
        assert_eq!(
            texts,
            vec![
                "spec: rfc5681:3.2:dupack-threshold",
                "spec: rfc6675:6:once-per-episode"
            ]
        );
        assert_eq!(l.directives[0].line, 1);
        assert_eq!(l.directives[1].line, 2);
    }

    #[test]
    fn raw_strings_with_embedded_quotes_do_not_derail_the_scan() {
        // If the raw-string scanner stopped at the inner `"`, the rest
        // of the file would lex as code and the trailing `HashMap`
        // comment would leak out as an identifier.
        let src = r##"let a = r#"quoted "inner" text"#; let b = 1; // HashMap"##;
        let l = lex(src);
        assert!(!l
            .tokens
            .iter()
            .any(|t| t.kind.ident().is_some_and(|i| i.contains("Hash"))));
        assert_eq!(
            l.tokens.iter().filter(|t| t.kind == TokenKind::Str).count(),
            1
        );
    }

    #[test]
    fn quote_char_literals_do_not_open_strings() {
        // `'"'` and `b'"'` contain a double quote; mistaking it for a
        // string opener would swallow the rest of the line.
        let l = lex("let q = '\"'; let b = b'\"'; let f = 1.0;");
        assert_eq!(
            l.tokens
                .iter()
                .filter(|t| t.kind == TokenKind::Char)
                .count(),
            2
        );
        assert_eq!(
            l.tokens.iter().filter(|t| t.kind == TokenKind::Str).count(),
            0
        );
        assert_eq!(
            l.tokens
                .iter()
                .filter(|t| t.kind == TokenKind::Float)
                .count(),
            1
        );
    }

    #[test]
    fn nested_block_comments_close_where_rustc_says() {
        // Rust block comments nest: `/* a /* b */ c */` is one comment.
        // Closing too early would expose `c */` as tokens; closing too
        // late would swallow the code after it.
        let l = lex("/* outer /* inner */ still comment */ let visible = 1;");
        let idents: Vec<&str> = l.tokens.iter().filter_map(|t| t.kind.ident()).collect();
        assert_eq!(idents, vec!["let", "visible"]);
        // Unterminated nesting consumes the rest of the file without
        // panicking (linter robustness contract).
        assert_eq!(lex("/* open /* never closed */ let x = 1;").tokens, vec![]);
    }
}
