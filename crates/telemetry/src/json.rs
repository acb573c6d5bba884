//! The one JSON reader and writer. Every JSON artifact in the workspace
//! (metrics, health, run profiles, perf fragments, bench dumps) and the
//! rollup digests are escaped by [`write_str`]; what is read back goes
//! through [`Cursor`]: directly by the strict canonical-grammar parser
//! of [`HealthReport`](crate::health::HealthReport), or via the generic
//! [`parse`] into a [`Value`] for the free-form perf files.

use std::collections::BTreeMap;
use std::fmt::Write as _;

// ---- writers -------------------------------------------------------

/// Append `s` as a JSON string literal. Quotes and backslashes are
/// backslash-escaped, every control character is `\u00XX`.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// An integer token, or `null` (the inverse of [`Cursor::opt_u64`]).
pub fn opt_u64(v: Option<u64>) -> String {
    v.map_or("null".to_owned(), |v| v.to_string())
}

/// Shortest-roundtrip float token (`{:?}`): exact and byte-stable, the
/// convention of every deterministic snapshot.
pub fn f64_exact(x: f64) -> String {
    format!("{x:?}")
}

/// Display float token for the host-measurement files, which must stay
/// valid JSON for foreign readers: non-finite values degrade to `null`.
pub fn f64_display_or_null(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_owned()
    }
}

// ---- reader --------------------------------------------------------

/// Nesting bound for [`parse`]: hostile input must not overflow the
/// stack.
const MAX_DEPTH: usize = 64;

/// Strict cursor over JSON text. The canonical writers are
/// deterministic, so their readers demand the exact emitted grammar
/// ([`Cursor::lit`]) and fail loudly on anything else.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    what: &'static str,
    b: &'a [u8],
    i: usize,
}

impl<'a> Cursor<'a> {
    /// `what` names the format in error messages (`"health json"`).
    pub fn new(what: &'static str, text: &'a str) -> Cursor<'a> {
        Cursor {
            what,
            b: text.as_bytes(),
            i: 0,
        }
    }

    fn err(&self, expected: &str) -> String {
        // Lossy on purpose: the 24-byte context window may start or end
        // inside a multi-byte character.
        let end = self.b.len().min(self.i + 24);
        format!(
            "{}: expected {expected} at byte {} (near {:?})",
            self.what,
            self.i,
            String::from_utf8_lossy(&self.b[self.i..end])
        )
    }

    #[inline]
    pub fn lit(&mut self, l: &str) -> Result<(), String> {
        if self.eat(l) {
            Ok(())
        } else {
            Err(self.err(&format!("{l:?}")))
        }
    }

    #[inline]
    pub fn eat(&mut self, l: &str) -> bool {
        let hit = self.b[self.i..].starts_with(l.as_bytes());
        if hit {
            self.i += l.len();
        }
        hit
    }

    fn num_token(&mut self) -> Result<&'a str, String> {
        let start = self.i;
        while matches!(
            self.b.get(self.i),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.i += 1;
        }
        if self.i == start {
            return Err(self.err("a number"));
        }
        Ok(std::str::from_utf8(&self.b[start..self.i]).expect("ASCII token"))
    }

    pub fn u64(&mut self) -> Result<u64, String> {
        let tok = self.num_token()?;
        tok.parse()
            .map_err(|e| format!("{}: bad u64 {tok:?}: {e}", self.what))
    }

    fn finite(&mut self) -> Result<f64, String> {
        let tok = self.num_token()?;
        tok.parse()
            .map_err(|e| format!("{}: bad f64 {tok:?}: {e}", self.what))
    }

    /// A float as [`f64_exact`] writes it, non-finite spellings included.
    pub fn f64(&mut self) -> Result<f64, String> {
        for (spelling, v) in [
            ("inf", f64::INFINITY),
            ("-inf", f64::NEG_INFINITY),
            ("NaN", f64::NAN),
        ] {
            if self.eat(spelling) {
                return Ok(v);
            }
        }
        self.finite()
    }

    pub fn opt_u64(&mut self) -> Result<Option<u64>, String> {
        if self.eat("null") {
            Ok(None)
        } else {
            Ok(Some(self.u64()?))
        }
    }

    /// A string literal. Accepts every escape a workspace writer has
    /// ever emitted: `\" \\ \/ \b \f \n \r \t \uXXXX`.
    pub fn string(&mut self) -> Result<String, String> {
        self.lit("\"")?;
        let mut bytes: Vec<u8> = Vec::new();
        loop {
            let Some(&c) = self.b.get(self.i) else {
                return Err(self.err("closing quote"));
            };
            self.i += 1;
            match c {
                b'"' => {
                    // Only split at ASCII bytes of a `&str`: still UTF-8.
                    return String::from_utf8(bytes).map_err(|e| format!("{}: {e}", self.what));
                }
                b'\\' => {
                    let Some(&e) = self.b.get(self.i) else {
                        return Err(self.err("an escape"));
                    };
                    self.i += 1;
                    match e {
                        b'"' | b'\\' | b'/' => bytes.push(e),
                        b'b' => bytes.push(0x08),
                        b'f' => bytes.push(0x0c),
                        b'n' => bytes.push(b'\n'),
                        b'r' => bytes.push(b'\r'),
                        b't' => bytes.push(b'\t'),
                        b'u' => {
                            let c = self
                                .b
                                .get(self.i..self.i + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.err("4 hex digits of a scalar value"))?;
                            self.i += 4;
                            bytes.extend_from_slice(c.encode_utf8(&mut [0u8; 4]).as_bytes());
                        }
                        _ => {
                            self.i -= 1;
                            return Err(self.err("a known escape"));
                        }
                    }
                }
                c => bytes.push(c),
            }
        }
    }

    /// The canonical list grammar, no whitespace: `close`, or
    /// `item (',' item)* close`.
    pub fn list(
        &mut self,
        close: &str,
        mut item: impl FnMut(&mut Cursor<'a>) -> Result<(), String>,
    ) -> Result<(), String> {
        if self.eat(close) {
            return Ok(());
        }
        loop {
            item(self)?;
            if self.eat(close) {
                return Ok(());
            }
            self.lit(",")?;
        }
    }

    /// Nothing may remain ([`Cursor::skip_ws`] first to allow a trailing
    /// newline).
    pub fn end(&self) -> Result<(), String> {
        if self.i == self.b.len() {
            Ok(())
        } else {
            Err(self.err("end of input"))
        }
    }

    pub fn skip_ws(&mut self) {
        while matches!(self.b.get(self.i), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.i += 1;
        }
    }

    // ---- generic values ----------------------------------------------

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err(self.err(&format!("at most {MAX_DEPTH} nesting levels")));
        }
        self.skip_ws();
        match self.b.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut map = BTreeMap::new();
                self.skip_ws();
                self.list("}", |cur| {
                    cur.skip_ws();
                    let key = cur.string()?;
                    cur.skip_ws();
                    cur.lit(":")?;
                    map.insert(key, cur.value(depth + 1)?);
                    cur.skip_ws();
                    Ok(())
                })?;
                Ok(Value::Obj(map))
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.skip_ws();
                self.list("]", |cur| {
                    items.push(cur.value(depth + 1)?);
                    cur.skip_ws();
                    Ok(())
                })?;
                Ok(Value::Arr(items))
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.lit("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.lit("false").map(|()| Value::Bool(false)),
            Some(b'n') => self.lit("null").map(|()| Value::Null),
            _ => self.finite().map(Value::Num),
        }
    }
}

/// Parsed JSON. Objects keep sorted key order (BTreeMap) — every JSON
/// writer in this workspace sorts keys anyway, and it makes structural
/// diffs deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(BTreeMap<String, Value>),
}

impl Value {
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Parse one JSON document (rejects trailing garbage).
pub fn parse(text: &str) -> Result<Value, String> {
    let mut cur = Cursor::new("json", text);
    let v = cur.value(0)?;
    cur.skip_ws();
    cur.end()?;
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_str_escapes_and_string_reads_back() {
        let raw = "a\"b\\c\n\t\u{1}é/";
        let mut out = String::new();
        write_str(&mut out, raw);
        assert_eq!(out, "\"a\\\"b\\\\c\\u000a\\u0009\\u0001é/\"");
        let mut cur = Cursor::new("test", &out);
        assert_eq!(cur.string().unwrap(), raw);
        cur.end().unwrap();
    }

    #[test]
    fn string_accepts_every_escape_spelling() {
        let mut cur = Cursor::new("test", r#""\"\\\/\b\f\n\r\t\u0041\u00e9""#);
        assert_eq!(cur.string().unwrap(), "\"\\/\u{8}\u{c}\n\r\tA\u{e9}");
        for bad in [
            r#""\x""#,
            r#""\u12"#,
            r#""\ud800""#,
            r#""\u00zz""#,
            r#""open"#,
            "\"\\",
        ] {
            assert!(Cursor::new("test", bad).string().is_err(), "{bad}");
        }
    }

    #[test]
    fn error_context_is_char_boundary_safe() {
        // Byte 24 of the context window falls inside the two-byte `é`.
        let text = format!("{}é", "x".repeat(23));
        let e = Cursor::new("test", &text).lit("{").unwrap_err();
        assert!(e.starts_with("test: expected \"{\" at byte 0"), "{e}");
        // A window that *starts* mid-character (cursor advanced by bytes
        // inside a string) must not panic either.
        let mut cur = Cursor::new("test", "\"é\\x\"");
        assert!(cur.string().is_err());
        let mut mid = Cursor::new("test", "é");
        mid.i = 1;
        assert!(mid.lit("x").is_err());
    }

    #[test]
    fn numbers_are_strict_and_floats_roundtrip() {
        assert_eq!(Cursor::new("t", "42,").u64(), Ok(42));
        assert!(Cursor::new("t", "-1").u64().is_err());
        assert!(Cursor::new("t", "x").u64().is_err());
        assert_eq!(Cursor::new("t", "null").opt_u64(), Ok(None));
        assert_eq!(Cursor::new("t", &opt_u64(Some(7))).opt_u64(), Ok(Some(7)));
        assert_eq!(opt_u64(None), "null");
        for v in [0.0, -1.5e3, 0.1 + 0.2, f64::MAX, f64::MIN_POSITIVE] {
            let tok = f64_exact(v);
            assert_eq!(Cursor::new("t", &tok).f64().unwrap().to_bits(), v.to_bits());
        }
        for v in [f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Cursor::new("t", &f64_exact(v)).f64(), Ok(v));
        }
        assert!(Cursor::new("t", &f64_exact(f64::NAN))
            .f64()
            .unwrap()
            .is_nan());
        assert_eq!(f64_display_or_null(2.0), "2");
        assert_eq!(f64_display_or_null(f64::NAN), "null");
    }

    #[test]
    fn parse_builds_values_and_rejects_garbage() {
        let v = parse(" {\"a\": [1, 2.5, {\"b\": null}], \"t\": true, \"f\": false}\n").unwrap();
        let a = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[2].get("b"), Some(&Value::Null));
        assert_eq!(v.get("t"), Some(&Value::Bool(true)));
        assert_eq!(parse("[]"), Ok(Value::Arr(vec![])));
        for bad in [
            "",
            "{",
            "{}extra",
            "{\"a\": nope}",
            "[1, 2,]",
            "{\"a\" 1}",
            "inf",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
        // Deep nesting is an error, not a stack overflow.
        assert!(parse(&"[".repeat(100_000)).is_err());
    }
}
