//! `ANALYZE.allow` — the per-crate allowlist.
//!
//! Every exemption from a determinism lint, and every panic budget, lives in
//! a `crates/<name>/ANALYZE.allow` file next to the crate's `Cargo.toml`, so
//! exemptions are reviewed in the same diff as the code they justify. The
//! format is one entry per line:
//!
//! ```text
//! # comment
//! wall-clock src/query.rs -- latency histograms are observability-only
//! raw-thread-spawn src/checkpoint.rs -- sanctioned off-thread snapshot encoder
//! panic-budget src/codec.rs 12 -- decode invariants checked by the header
//! dead-pub src/curves.rs::inplace_freshness_at -- a caller is coming
//! ```
//!
//! Paths are crate-relative (`src/…`); a `dead-pub` entry names one item
//! after the path (`src/file.rs::item`), never a whole file. A
//! justification after ` -- ` is mandatory: an allowlist entry without a
//! reason is itself a finding.

use crate::report::{Finding, Lint, Severity};

/// One parsed allowlist entry.
#[derive(Clone, Debug, PartialEq)]
pub struct AllowEntry {
    /// Which lint is exempted.
    pub lint: Lint,
    /// Crate-relative path, e.g. `src/query.rs`.
    pub path: String,
    /// Panic budget (only for `panic-budget` entries).
    pub budget: Option<usize>,
    /// The mandatory justification.
    pub why: String,
    /// 1-based line in the `ANALYZE.allow` file.
    pub line: usize,
}

/// A crate's parsed allowlist, plus usage tracking so stale entries can be
/// reported: an exemption nothing relies on any more should be deleted, not
/// left to mask a future regression.
#[derive(Clone, Debug, Default)]
pub struct Allowlist {
    /// Parsed entries in file order.
    pub entries: Vec<AllowEntry>,
    used: Vec<bool>,
}

impl Allowlist {
    /// Parse the text of an `ANALYZE.allow` file. Malformed lines become
    /// `allowlist` findings (errors) rather than silent exemptions.
    pub fn parse(crate_name: &str, text: &str, findings: &mut Vec<Finding>) -> Allowlist {
        let file = format!("crates/{crate_name}/ANALYZE.allow");
        let mut entries = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (head, why) = match line.split_once(" -- ") {
                Some((h, w)) if !w.trim().is_empty() => (h.trim(), w.trim().to_string()),
                _ => {
                    findings.push(Finding::new(
                        Lint::Allowlist,
                        Severity::Error,
                        &file,
                        line_no,
                        "allowlist entry is missing its ` -- justification`",
                    ));
                    continue;
                }
            };
            let mut parts = head.split_whitespace();
            let lint = match parts.next().and_then(Lint::from_name) {
                Some(l) => l,
                None => {
                    findings.push(Finding::new(
                        Lint::Allowlist,
                        Severity::Error,
                        &file,
                        line_no,
                        format!("unknown lint name in allowlist entry: `{head}`"),
                    ));
                    continue;
                }
            };
            let Some(path) = parts.next() else {
                findings.push(Finding::new(
                    Lint::Allowlist,
                    Severity::Error,
                    &file,
                    line_no,
                    format!("allowlist entry for `{}` is missing a path", lint.name()),
                ));
                continue;
            };
            let budget = if lint == Lint::PanicBudget {
                match parts.next().and_then(|n| n.parse::<usize>().ok()) {
                    Some(n) => Some(n),
                    None => {
                        findings.push(Finding::new(
                            Lint::Allowlist,
                            Severity::Error,
                            &file,
                            line_no,
                            "panic-budget entry needs `panic-budget <path> <count>`",
                        ));
                        continue;
                    }
                }
            } else {
                None
            };
            if parts.next().is_some() {
                findings.push(Finding::new(
                    Lint::Allowlist,
                    Severity::Error,
                    &file,
                    line_no,
                    format!("trailing tokens in allowlist entry: `{head}`"),
                ));
                continue;
            }
            entries.push(AllowEntry {
                lint,
                path: path.to_string(),
                budget,
                why,
                line: line_no,
            });
        }
        let used = vec![false; entries.len()];
        Allowlist { entries, used }
    }

    /// True when `lint` is exempted for the crate-relative `path`; marks the
    /// entry used.
    pub fn permits(&mut self, lint: Lint, path: &str) -> bool {
        for (i, e) in self.entries.iter().enumerate() {
            if e.lint == lint && e.budget.is_none() && e.path == path {
                self.used[i] = true;
                return true;
            }
        }
        false
    }

    /// The panic budget for a crate-relative `path`, if one is declared;
    /// marks the entry used.
    pub fn panic_budget(&mut self, path: &str) -> Option<usize> {
        for (i, e) in self.entries.iter().enumerate() {
            if e.lint == Lint::PanicBudget && e.path == path {
                self.used[i] = true;
                return e.budget;
            }
        }
        None
    }

    /// The entries something consulted so far.
    pub fn used(&self) -> impl Iterator<Item = &AllowEntry> {
        self.entries.iter().zip(&self.used).filter(|(_, used)| **used).map(|(e, _)| e)
    }

    /// Report entries nothing consulted — stale exemptions that should be
    /// deleted so they can't mask a future regression.
    pub fn report_stale(&self, crate_name: &str, findings: &mut Vec<Finding>) {
        let file = format!("crates/{crate_name}/ANALYZE.allow");
        for (i, e) in self.entries.iter().enumerate() {
            if !self.used[i] {
                findings.push(Finding::new(
                    Lint::Allowlist,
                    Severity::Warning,
                    &file,
                    e.line,
                    format!(
                        "stale allowlist entry: `{} {}` matched nothing — delete it",
                        e.lint.name(),
                        e.path
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_entries_and_budgets() {
        let text = "\
# comment

wall-clock src/query.rs -- histograms only
panic-budget src/codec.rs 12 -- header-checked
";
        let mut findings = Vec::new();
        let mut a = Allowlist::parse("serve", text, &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(a.entries.len(), 2);
        assert!(a.permits(Lint::WallClock, "src/query.rs"));
        assert!(!a.permits(Lint::WallClock, "src/other.rs"));
        assert_eq!(a.panic_budget("src/codec.rs"), Some(12));
        assert_eq!(a.panic_budget("src/wal.rs"), None);
    }

    #[test]
    fn malformed_lines_become_findings() {
        let cases = [
            "wall-clock src/query.rs",                    // no justification
            "bogus-lint src/x.rs -- why",                 // unknown lint
            "wall-clock -- why",                          // no path
            "panic-budget src/x.rs -- why",               // no count
            "wall-clock src/x.rs extra -- why",           // trailing tokens
        ];
        for case in cases {
            let mut findings = Vec::new();
            let a = Allowlist::parse("core", case, &mut findings);
            assert!(a.entries.is_empty(), "{case}");
            assert_eq!(findings.len(), 1, "{case}: {findings:?}");
            assert_eq!(findings[0].severity, Severity::Error);
        }
    }

    #[test]
    fn unused_entries_are_stale() {
        let mut findings = Vec::new();
        let mut a = Allowlist::parse(
            "core",
            "wall-clock src/a.rs -- x\nwall-clock src/b.rs -- y\n",
            &mut findings,
        );
        assert!(a.permits(Lint::WallClock, "src/a.rs"));
        a.report_stale("core", &mut findings);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("src/b.rs"), "{findings:?}");
    }
}
