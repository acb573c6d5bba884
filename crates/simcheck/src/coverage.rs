//! Joining the registry with the scanned citations into the one lint
//! report, and its text renderer.
//!
//! The CI contract (mirrored in `scripts/ci.sh` and DESIGN.md §5):
//!
//! - exit 0 — no diagnostic survives, and every MUST clause has ≥ 1
//!   implementation citation AND ≥ 1 test citation;
//! - exit 1 — any diagnostic (a determinism rule, a citation of a
//!   nonexistent clause, an unanchored citation, a malformed directive)
//!   or an uncovered MUST clause;
//! - exit 2 (from the CLI layer) — usage, I/O or registry-parse errors.
//!
//! SHOULD/MAY gaps are reported as advisory but never fail the build.
//! All output is deterministic: diagnostics sort by (file, line), specs
//! by id, clauses keep registry declaration order (RFC section order).

use crate::annotations::CiteKind;
use crate::registry::{Level, Registry};
use crate::rules::{Diagnostic, Rule};
use crate::workspace::Scan;
use std::collections::BTreeMap;

/// Coverage status of one clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Covered,
    ImplOnly,
    TestOnly,
    Uncovered,
}

/// One clause joined with its citation counts.
#[derive(Debug, Clone)]
pub struct ClauseCoverage {
    pub id: String,
    pub level: Level,
    pub text: String,
    /// Implementation and test citations of this clause.
    pub cites: (usize, usize),
}

impl ClauseCoverage {
    pub fn status(&self) -> Status {
        match (self.cites.0 > 0, self.cites.1 > 0) {
            (true, true) => Status::Covered,
            (true, false) => Status::ImplOnly,
            (false, true) => Status::TestOnly,
            (false, false) => Status::Uncovered,
        }
    }
}

/// One spec's worth of clause coverage.
#[derive(Debug, Clone)]
pub struct SpecCoverage {
    pub id: String,
    pub clauses: Vec<ClauseCoverage>,
}

/// The full report of one lint run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every surviving diagnostic, determinism rules and spec problems
    /// alike (including unknown-clause citations), sorted by (file,
    /// line).
    pub diagnostics: Vec<Diagnostic>,
    pub specs: Vec<SpecCoverage>,
    /// Total citations of registered clauses (impl, test).
    pub cited: (usize, usize),
}

impl Report {
    /// Join `registry` and the scan's citations. Citations naming
    /// unregistered clauses become [`Rule::UnknownClause`] diagnostics.
    pub fn build(registry: &Registry, scan: Scan) -> Report {
        let mut counts: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
        let mut diagnostics = scan.diagnostics;
        let mut cited = (0usize, 0usize);
        for c in &scan.citations {
            if registry.clause(&c.clause).is_none() {
                diagnostics.push(Diagnostic {
                    file: c.file.clone(),
                    line: c.line,
                    rule: Rule::UnknownClause,
                    message: format!("citation of `{}`: no such clause in specs/", c.clause),
                });
                continue;
            }
            let entry = counts.entry(c.clause.as_str()).or_default();
            match c.kind {
                CiteKind::Impl => {
                    cited.0 += 1;
                    entry.0 += 1;
                }
                CiteKind::Test => {
                    cited.1 += 1;
                    entry.1 += 1;
                }
            }
        }
        diagnostics.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
        let specs = registry
            .specs
            .iter()
            .map(|s| SpecCoverage {
                id: s.id.clone(),
                clauses: s
                    .clauses
                    .iter()
                    .map(|c| ClauseCoverage {
                        id: c.id.clone(),
                        level: c.level,
                        text: c.text.clone(),
                        cites: counts.get(c.id.as_str()).copied().unwrap_or_default(),
                    })
                    .collect(),
            })
            .collect();
        Report {
            diagnostics,
            specs,
            cited,
        }
    }

    pub fn clauses(&self) -> impl Iterator<Item = &ClauseCoverage> {
        self.specs.iter().flat_map(|s| &s.clauses)
    }

    pub fn count(&self, level: Level) -> usize {
        self.clauses().filter(|c| c.level == level).count()
    }

    pub fn count_covered(&self, level: Level) -> usize {
        self.clauses()
            .filter(|c| c.level == level && c.status() == Status::Covered)
            .count()
    }

    /// Uncovered MUST clauses (the fatal kind of gap).
    pub fn uncovered_must(&self) -> Vec<&ClauseCoverage> {
        self.clauses()
            .filter(|c| c.level == Level::Must && c.status() != Status::Covered)
            .collect()
    }

    pub fn pass(&self) -> bool {
        self.diagnostics.is_empty() && self.uncovered_must().is_empty()
    }

    pub fn exit_code(&self) -> i32 {
        if self.pass() {
            0
        } else {
            1
        }
    }

    /// The report: surviving diagnostics, the per-spec coverage table
    /// and totals, then — on failure — every clause without full
    /// coverage (MUST gaps FATAL, SHOULD/MAY gaps advisory), and the
    /// verdict.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&format!("{d}\n"));
        }
        out.push_str("simcheck: determinism rules and spec-anchored compliance coverage\n\n");
        out.push_str("  spec      clauses  MUST  covered  impl-only  test-only  uncovered\n");
        let mut tot = [0usize; 6];
        for s in &self.specs {
            let counts = [
                s.clauses.len(),
                s.clauses.iter().filter(|c| c.level == Level::Must).count(),
                count_status(s, Status::Covered),
                count_status(s, Status::ImplOnly),
                count_status(s, Status::TestOnly),
                count_status(s, Status::Uncovered),
            ];
            for (t, c) in tot.iter_mut().zip(counts) {
                *t += c;
            }
            out.push_str(&format!(
                "  {:<10}{:>6}{:>6}{:>9}{:>11}{:>11}{:>11}\n",
                s.id, counts[0], counts[1], counts[2], counts[3], counts[4], counts[5]
            ));
        }
        out.push_str(&format!(
            "  {:<10}{:>6}{:>6}{:>9}{:>11}{:>11}{:>11}\n\n",
            "total", tot[0], tot[1], tot[2], tot[3], tot[4], tot[5]
        ));
        out.push_str(&format!(
            "  citations: {} impl + {} test\n",
            self.cited.0, self.cited.1
        ));
        out.push_str(&format!(
            "  MUST coverage: {}/{}\n",
            self.count_covered(Level::Must),
            self.count(Level::Must)
        ));
        let problems = self.diagnostics.iter().filter(|d| d.rule.is_spec()).count();
        out.push_str(&format!("  problems: {problems}\n"));
        if self.pass() {
            out.push_str(
                "simcheck: PASS — 0 diagnostics; every MUST clause has an implementation and an enforcing test\n",
            );
            return out;
        }
        for c in self.clauses().filter(|c| c.status() != Status::Covered) {
            let severity = if c.level == Level::Must {
                "FATAL"
            } else {
                "advisory"
            };
            let missing = match c.status() {
                Status::ImplOnly => "missing an enforcing test",
                Status::TestOnly => "missing an implementation citation",
                _ => "missing both implementation and test",
            };
            out.push_str(&format!(
                "  [{severity}] {} ({}) — {missing}\n    {}\n",
                c.id, c.level, c.text
            ));
        }
        out.push_str(&format!(
            "simcheck: FAIL — {} diagnostic(s) ({problems} spec problem(s)), {} uncovered MUST clause(s)\n",
            self.diagnostics.len(),
            self.uncovered_must().len()
        ));
        out
    }
}

fn count_status(s: &SpecCoverage, status: Status) -> usize {
    s.clauses.iter().filter(|c| c.status() == status).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotations::Citation;
    use crate::registry::parse_spec_file;

    fn registry() -> Registry {
        let mut reg = Registry::default();
        reg.specs.push(
            parse_spec_file(
                "toy.spec",
                "spec toy\ntitle Toy\nurl https://example.com\n\
                 clause toy:1:covered MUST\n  a\n\
                 clause toy:2:impl-only MUST\n  b\n\
                 clause toy:3:test-only MUST\n  c\n\
                 clause toy:4:uncovered MUST\n  d\n\
                 clause toy:5:advisory SHOULD\n  e\n",
            )
            .unwrap(),
        );
        reg
    }

    fn cite(clause: &str, kind: CiteKind, line: u32) -> Citation {
        Citation {
            file: "crates/tcp/src/x.rs".to_string(),
            line,
            clause: clause.to_string(),
            kind,
        }
    }

    fn build(reg: &Registry, citations: Vec<Citation>) -> Report {
        Report::build(
            reg,
            Scan {
                diagnostics: Vec::new(),
                citations,
            },
        )
    }

    #[test]
    fn statuses_and_exit_codes() {
        let reg = registry();
        let cites = vec![
            cite("toy:1:covered", CiteKind::Impl, 1),
            cite("toy:1:covered", CiteKind::Test, 2),
            cite("toy:2:impl-only", CiteKind::Impl, 3),
            cite("toy:3:test-only", CiteKind::Test, 4),
        ];
        let r = build(&reg, cites);
        let statuses: Vec<Status> = r.clauses().map(|c| c.status()).collect();
        assert_eq!(
            statuses,
            vec![
                Status::Covered,
                Status::ImplOnly,
                Status::TestOnly,
                Status::Uncovered,
                Status::Uncovered
            ]
        );
        // Three MUST gaps (the SHOULD gap is advisory) → exit 1.
        assert_eq!(r.uncovered_must().len(), 3);
        assert_eq!(r.exit_code(), 1);
        let text = r.render();
        assert!(text.contains("FAIL"), "{text}");
        assert!(text.contains("[advisory] toy:5:advisory"), "{text}");
        assert!(text.contains("[FATAL] toy:4:uncovered"), "{text}");
        assert!(!text.contains("toy:1:covered"), "{text}");
    }

    #[test]
    fn full_coverage_passes_even_with_should_gaps() {
        let reg = registry();
        let mut cites = Vec::new();
        for (i, id) in [
            "toy:1:covered",
            "toy:2:impl-only",
            "toy:3:test-only",
            "toy:4:uncovered",
        ]
        .iter()
        .enumerate()
        {
            cites.push(cite(id, CiteKind::Impl, 2 * i as u32 + 1));
            cites.push(cite(id, CiteKind::Test, 2 * i as u32 + 2));
        }
        let r = build(&reg, cites);
        assert_eq!(r.exit_code(), 0, "SHOULD gap must not fail the build");
        let text = r.render();
        assert!(text.contains("PASS"), "{text}");
        assert!(text.contains("MUST coverage: 4/4"), "{text}");
        // A passing run lists no clauses: the table carries the gap.
        assert!(!text.contains("[advisory]"), "{text}");
    }

    #[test]
    fn unknown_clause_citations_become_problems() {
        let reg = registry();
        let r = build(&reg, vec![cite("toy:9:ghost", CiteKind::Impl, 7)]);
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(r.diagnostics[0].rule, Rule::UnknownClause);
        assert_eq!(r.cited, (0, 0), "an unknown clause covers nothing");
        assert_eq!(r.exit_code(), 1);
        assert!(r.render().contains("problems: 1"));
    }
}
