//! Findings: what an analysis produced, and how it is rendered.

use std::fmt;

/// Which analysis produced a finding.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lint {
    /// A crate missing `#![forbid(unsafe_code)]` in its `lib.rs`.
    MissingForbidUnsafe,
    /// Wire-format schema problems: drift vs `SCHEMA.lock`, a missing
    /// encode/decode counterpart in `binio.rs`, or a hand-written codec
    /// impl anywhere else.
    Schema,
    /// A malformed or stale `ANALYZE.allow` entry.
    Allowlist,
    /// A `pub fn`/`const`/`static` that no other file names.
    DeadPub,
}

impl Lint {
    /// Every lint, in report order.
    pub const ALL: [Lint; 4] =
        [Lint::MissingForbidUnsafe, Lint::Schema, Lint::Allowlist, Lint::DeadPub];

    /// The lint's stable name, as used in `ANALYZE.allow` and reports.
    pub fn name(self) -> &'static str {
        match self {
            Lint::MissingForbidUnsafe => "missing-forbid-unsafe",
            Lint::Schema => "schema",
            Lint::Allowlist => "allowlist",
            Lint::DeadPub => "dead-pub",
        }
    }

    /// Parse a lint name from an `ANALYZE.allow` entry.
    pub fn from_name(s: &str) -> Option<Lint> {
        Lint::ALL.into_iter().find(|l| l.name() == s)
    }
}

/// How severe a finding is.
///
/// * `Error` always fails `repro analyze`.
/// * `Warning` fails only under `--deny-warnings` (the CI mode).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Fails under `--deny-warnings`.
    Warning,
    /// Always fails.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
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
fn json_escape(s: &str) -> String {
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
    out.push_str(&format!(
        "  ],\n  \"errors\": {errors},\n  \"warnings\": {warnings}\n}}\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_names_roundtrip() {
        for lint in Lint::ALL {
            assert_eq!(Lint::from_name(lint.name()), Some(lint));
        }
        assert_eq!(Lint::from_name("nonsense"), None);
        // Clippy checks maps, clocks, threads and panics now.
        assert_eq!(Lint::from_name("unordered-map"), None);
    }

    #[test]
    fn display_and_json_render() {
        let f = Finding::new(
            Lint::DeadPub,
            Severity::Warning,
            "crates/core/src/x.rs",
            7,
            "`pub fn f` is named in no \"other\" file",
        );
        let text = f.to_string();
        assert!(text.contains("warning[dead-pub] crates/core/src/x.rs:7"), "{text}");
        let json = render_json(&[f]);
        assert!(json.contains("\\\"other\\\""), "{json}");
        assert!(json.contains("\"warnings\": 1"), "{json}");
    }
}
