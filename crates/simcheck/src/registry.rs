//! The machine-readable spec registry under `specs/`.
//!
//! Each `specs/<spec-id>.spec` file declares one spec and its clauses
//! in a line-oriented, dependency-free format:
//!
//! ```text
//! # comment
//! spec rfc5681
//! title TCP Congestion Control
//! url https://www.rfc-editor.org/rfc/rfc5681
//!
//! clause rfc5681:3.2:dupack-threshold MUST
//!   The arrival of three duplicate ACKs is taken as an indication that
//!   a segment has been lost; the sender performs fast retransmit.
//! ```
//!
//! Rules enforced at parse time (violations are *registry* errors and
//! exit 2 — a broken registry must never read as "all covered"):
//!
//! - exactly one `spec` per file, with `title` and `url`;
//! - clause ids have the shape `<spec-id>:<section>:<slug>`, are
//!   prefixed by their own spec id, and are globally unique;
//! - the requirement level is `MUST`, `SHOULD` or `MAY`;
//! - every clause carries quoted/condensed requirement text (indented
//!   continuation lines, two or more spaces).

use std::fmt;
use std::path::Path;

/// RFC 2119 requirement level. Only MUST clauses gate CI; SHOULD/MAY
/// gaps are reported as advisory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    Must,
    Should,
    May,
}

impl Level {
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Must => "MUST",
            Level::Should => "SHOULD",
            Level::May => "MAY",
        }
    }

    pub fn parse(s: &str) -> Option<Level> {
        match s {
            "MUST" => Some(Level::Must),
            "SHOULD" => Some(Level::Should),
            "MAY" => Some(Level::May),
            _ => None,
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One registered requirement clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clause {
    /// Stable id: `<spec-id>:<section>:<slug>`.
    pub id: String,
    pub level: Level,
    /// Condensed requirement text (joined continuation lines).
    pub text: String,
}

/// One spec file: a document plus its clauses in declaration order
/// (which follows the document's own section order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spec {
    pub id: String,
    pub title: String,
    pub url: String,
    pub clauses: Vec<Clause>,
}

/// All specs, sorted by spec id (load order is file-name order, which
/// is already sorted, but sorting again keeps the invariant local).
#[derive(Debug, Clone, Default)]
pub struct Registry {
    pub specs: Vec<Spec>,
}

impl Registry {
    /// Look up a clause by id.
    pub fn clause(&self, id: &str) -> Option<(&Spec, &Clause)> {
        self.specs
            .iter()
            .find_map(|s| s.clauses.iter().find(|c| c.id == id).map(|c| (s, c)))
    }
}

/// Parse one `.spec` file. `name` is used in error messages only.
pub fn parse_spec_file(name: &str, text: &str) -> Result<Spec, String> {
    let err = |line: usize, msg: &str| format!("{name}:{}: {msg}", line + 1);
    let mut spec: Option<Spec> = None;
    let mut open_clause = false;
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim_end();
        if line.trim_start().starts_with('#') {
            continue;
        }
        if line.is_empty() {
            continue;
        }
        if line.starts_with("  ") {
            // Continuation of the current clause's quoted text.
            let spec = spec
                .as_mut()
                .ok_or_else(|| err(i, "indented text before any `spec` line"))?;
            if !open_clause {
                return Err(err(i, "indented text outside a `clause` block"));
            }
            let clause = spec.clauses.last_mut().expect("open_clause implies one");
            if !clause.text.is_empty() {
                clause.text.push(' ');
            }
            clause.text.push_str(line.trim());
            continue;
        }
        open_clause = false;
        let (keyword, rest) = match line.split_once(' ') {
            Some((k, r)) => (k, r.trim()),
            None => (line, ""),
        };
        match keyword {
            "spec" => {
                if spec.is_some() {
                    return Err(err(i, "more than one `spec` per file"));
                }
                if rest.is_empty() || rest.contains(char::is_whitespace) {
                    return Err(err(i, "`spec` takes a single id"));
                }
                spec = Some(Spec {
                    id: rest.to_string(),
                    title: String::new(),
                    url: String::new(),
                    clauses: Vec::new(),
                });
            }
            "title" | "url" => {
                let spec = spec
                    .as_mut()
                    .ok_or_else(|| err(i, "`title`/`url` before `spec`"))?;
                if rest.is_empty() {
                    return Err(err(i, "empty `title`/`url`"));
                }
                if keyword == "title" {
                    spec.title = rest.to_string();
                } else {
                    spec.url = rest.to_string();
                }
            }
            "clause" => {
                let spec = spec
                    .as_mut()
                    .ok_or_else(|| err(i, "`clause` before `spec`"))?;
                let (id, level) = rest
                    .split_once(' ')
                    .ok_or_else(|| err(i, "expected `clause <id> <MUST|SHOULD|MAY>`"))?;
                let level = Level::parse(level.trim())
                    .ok_or_else(|| err(i, "level must be MUST, SHOULD or MAY"))?;
                if !id.starts_with(&format!("{}:", spec.id)) {
                    return Err(err(i, "clause id must be prefixed by its spec id"));
                }
                let segments: Vec<&str> = id.split(':').collect();
                if segments.len() != 3 || segments.iter().any(|s| s.is_empty()) {
                    return Err(err(i, "clause id must be `<spec>:<section>:<slug>`"));
                }
                if spec.clauses.iter().any(|c| c.id == id) {
                    return Err(err(i, "duplicate clause id"));
                }
                spec.clauses.push(Clause {
                    id: id.to_string(),
                    level,
                    text: String::new(),
                });
                open_clause = true;
            }
            other => {
                return Err(err(i, &format!("unknown keyword `{other}`")));
            }
        }
    }
    let spec = spec.ok_or_else(|| format!("{name}: no `spec` line"))?;
    if spec.title.is_empty() {
        return Err(format!("{name}: spec `{}` has no title", spec.id));
    }
    if spec.clauses.is_empty() {
        return Err(format!("{name}: spec `{}` has no clauses", spec.id));
    }
    if let Some(c) = spec.clauses.iter().find(|c| c.text.is_empty()) {
        return Err(format!("{name}: clause `{}` has no quoted text", c.id));
    }
    Ok(spec)
}

/// Load every `specs/*.spec` under the workspace root. Duplicate clause
/// ids across files and duplicate spec ids are errors.
pub fn load(root: &Path) -> Result<Registry, String> {
    let dir = root.join("specs");
    let entries =
        std::fs::read_dir(&dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut paths: Vec<std::path::PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "spec"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no .spec files under {}", dir.display()));
    }
    let mut reg = Registry::default();
    for p in paths {
        let name = p
            .file_name()
            .map(|n| n.to_string_lossy().to_string())
            .unwrap_or_default();
        let text =
            std::fs::read_to_string(&p).map_err(|e| format!("cannot read {}: {e}", p.display()))?;
        let spec = parse_spec_file(&name, &text)?;
        if reg.specs.iter().any(|s| s.id == spec.id) {
            return Err(format!("{name}: duplicate spec id `{}`", spec.id));
        }
        for c in &spec.clauses {
            if reg.clause(&c.id).is_some() {
                return Err(format!("{name}: clause `{}` already registered", c.id));
            }
        }
        reg.specs.push(spec);
    }
    reg.specs.sort_by(|a, b| a.id.cmp(&b.id));
    Ok(reg)
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = "\
# condensed from the RFC
spec toy
title A toy spec
url https://example.com/toy

clause toy:1:first MUST
  The first requirement,
  continued on a second line.

clause toy:2:second SHOULD
  The second requirement.
";

    #[test]
    fn parses_a_well_formed_file() {
        let s = parse_spec_file("toy.spec", GOOD).expect("parse");
        assert_eq!(s.id, "toy");
        assert_eq!(s.title, "A toy spec");
        assert_eq!(s.clauses.len(), 2);
        assert_eq!(s.clauses[0].id, "toy:1:first");
        assert_eq!(s.clauses[0].level, Level::Must);
        assert_eq!(
            s.clauses[0].text,
            "The first requirement, continued on a second line."
        );
        assert_eq!(s.clauses[1].level, Level::Should);
    }

    #[test]
    fn rejects_malformed_files() {
        let cases: &[(&str, &str)] = &[
            ("clause toy:1:x MUST\n  t\n", "before `spec`"),
            (
                "spec toy\ntitle T\nclause other:1:x MUST\n  t\n",
                "prefixed",
            ),
            ("spec toy\ntitle T\nclause toy:1 MUST\n  t\n", "<slug>"),
            (
                "spec toy\ntitle T\nclause toy:1:x WILL\n  t\n",
                "MUST, SHOULD or MAY",
            ),
            (
                "spec toy\ntitle T\nclause toy:1:x MUST\n  t\nclause toy:1:x MUST\n  t\n",
                "duplicate clause id",
            ),
            ("spec toy\ntitle T\n  stray text\n", "outside a `clause`"),
            ("spec toy\ntitle T\nclause toy:1:x MUST\n", "no quoted text"),
            ("spec toy\ntitle T\nbogus keyword\n", "unknown keyword"),
            ("spec toy\nclause toy:1:x MUST\n  t\n", "no title"),
            ("title T\n", "before `spec`"),
        ];
        for (src, needle) in cases {
            let e = parse_spec_file("f.spec", src).expect_err(src);
            assert!(e.contains(needle), "error {e:?} should mention {needle:?}");
        }
    }

    /// Every committed `specs/*.spec`, cut at every byte offset and with
    /// one bit flipped at every third byte, reads as `Ok` or `Err`: a
    /// panic fails the test. A cut inside a character or a flipped high
    /// bit leaves invalid UTF-8, which the lossy decode turns into the
    /// replacement character the error paths must survive.
    #[test]
    fn committed_specs_survive_truncation_and_bit_flips() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let committed = load(&root).expect("the committed registry loads");
        for spec in &committed.specs {
            let name = format!("{}.spec", spec.id);
            let bytes = std::fs::read(root.join("specs").join(&name)).expect("read spec");
            let read = |b: &[u8]| parse_spec_file(&name, &String::from_utf8_lossy(b));
            assert_eq!(read(&bytes).as_ref(), Ok(spec));
            for cut in 0..bytes.len() {
                let _ = read(&bytes[..cut]);
            }
            for off in (0..bytes.len()).step_by(3) {
                let mut flipped = bytes.clone();
                flipped[off] ^= 1 << (off % 8);
                let _ = read(&flipped);
            }
        }
    }

    #[test]
    fn registry_lookup_and_counts() {
        let mut reg = Registry::default();
        reg.specs.push(parse_spec_file("toy.spec", GOOD).unwrap());
        assert!(reg.clause("toy:1:first").is_some());
        assert!(reg.clause("toy:9:nope").is_none());
        let levels: Vec<Level> = reg.specs[0].clauses.iter().map(|c| c.level).collect();
        assert_eq!(levels, vec![Level::Must, Level::Should]);
    }
}
