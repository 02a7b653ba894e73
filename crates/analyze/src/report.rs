//! Findings: what an analysis produced, and how it is rendered.

use std::fmt;

/// Which analysis produced a finding.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lint {
    /// `HashMap`/`HashSet` in a determinism-relevant crate.
    UnorderedMap,
    /// `SystemTime::now`/`Instant::now` outside the observability crates.
    WallClock,
    /// Raw `std::thread::spawn`/`thread::Builder` outside sanctioned modules.
    RawThreadSpawn,
    /// A crate missing `#![forbid(unsafe_code)]` in its `lib.rs`.
    MissingForbidUnsafe,
    /// `unwrap()`/`expect()` count above the budgeted allowlist.
    PanicBudget,
    /// Wire-format schema problems: drift vs `SCHEMA.lock`, a missing
    /// encode/decode counterpart in `binio.rs`, or a hand-written codec
    /// impl anywhere else.
    Schema,
    /// A malformed or stale `ANALYZE.allow` entry.
    Allowlist,
}

impl Lint {
    /// The lint's stable name, as used in `ANALYZE.allow` and reports.
    pub fn name(self) -> &'static str {
        match self {
            Lint::UnorderedMap => "unordered-map",
            Lint::WallClock => "wall-clock",
            Lint::RawThreadSpawn => "raw-thread-spawn",
            Lint::MissingForbidUnsafe => "missing-forbid-unsafe",
            Lint::PanicBudget => "panic-budget",
            Lint::Schema => "schema",
            Lint::Allowlist => "allowlist",
        }
    }

    /// Parse a lint name from an `ANALYZE.allow` entry.
    pub fn from_name(s: &str) -> Option<Lint> {
        Some(match s {
            "unordered-map" => Lint::UnorderedMap,
            "wall-clock" => Lint::WallClock,
            "raw-thread-spawn" => Lint::RawThreadSpawn,
            "missing-forbid-unsafe" => Lint::MissingForbidUnsafe,
            "panic-budget" => Lint::PanicBudget,
            "schema" => Lint::Schema,
            "allowlist" => Lint::Allowlist,
            _ => return None,
        })
    }
}

/// How severe a finding is.
///
/// * `Error` always fails `repro analyze`.
/// * `Warning` fails only under `--deny-warnings` (the CI mode).
/// * `Note` never fails; it is advice (e.g. "budget can be lowered").
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory only.
    Note,
    /// Fails under `--deny-warnings`.
    Warning,
    /// Always fails.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One finding: a lint, where it fired, and why.
#[derive(Clone, Debug)]
pub struct Finding {
    /// The analysis that produced this finding.
    pub lint: Lint,
    /// How severe it is.
    pub severity: Severity,
    /// Workspace-relative file path (empty for workspace-level findings).
    pub file: String,
    /// 1-based line, 0 when the finding is file- or workspace-level.
    pub line: usize,
    /// Human-readable description, including the fix.
    pub message: String,
}

impl Finding {
    /// Build a finding.
    pub fn new(
        lint: Lint,
        severity: Severity,
        file: impl Into<String>,
        line: usize,
        message: impl Into<String>,
    ) -> Finding {
        Finding { lint, severity, file: file.into(), line, message: message.into() }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.lint.name())?;
        if !self.file.is_empty() {
            write!(f, " {}", self.file)?;
            if self.line > 0 {
                write!(f, ":{}", self.line)?;
            }
        }
        write!(f, ": {}", self.message)
    }
}

/// Escape a string for inclusion in a JSON document.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render findings as a JSON report (the CI artifact).
pub fn render_json(findings: &[Finding]) -> String {
    let mut out = String::from("{\n  \"findings\": [\n");
    for (i, f) in findings.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"lint\": \"{}\", \"severity\": \"{}\", \"file\": \"{}\", \
             \"line\": {}, \"message\": \"{}\"}}{}\n",
            f.lint.name(),
            f.severity,
            json_escape(&f.file),
            f.line,
            json_escape(&f.message),
            if i + 1 < findings.len() { "," } else { "" },
        ));
    }
    let errors = findings.iter().filter(|f| f.severity == Severity::Error).count();
    let warnings = findings.iter().filter(|f| f.severity == Severity::Warning).count();
    let notes = findings.iter().filter(|f| f.severity == Severity::Note).count();
    out.push_str(&format!(
        "  ],\n  \"errors\": {errors},\n  \"warnings\": {warnings},\n  \"notes\": {notes}\n}}\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_names_roundtrip() {
        for lint in [
            Lint::UnorderedMap,
            Lint::WallClock,
            Lint::RawThreadSpawn,
            Lint::MissingForbidUnsafe,
            Lint::PanicBudget,
            Lint::Schema,
            Lint::Allowlist,
        ] {
            assert_eq!(Lint::from_name(lint.name()), Some(lint));
        }
        assert_eq!(Lint::from_name("nonsense"), None);
    }

    #[test]
    fn display_and_json_render() {
        let f = Finding::new(
            Lint::UnorderedMap,
            Severity::Warning,
            "crates/core/src/x.rs",
            7,
            "HashMap on a \"hot\" path",
        );
        let text = f.to_string();
        assert!(text.contains("warning[unordered-map] crates/core/src/x.rs:7"), "{text}");
        let json = render_json(&[f]);
        assert!(json.contains("\\\"hot\\\""), "{json}");
        assert!(json.contains("\"warnings\": 1"), "{json}");
    }
}
