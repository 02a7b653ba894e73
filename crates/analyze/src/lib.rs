//! Static-analysis gate for the webevo workspace.
//!
//! The reproduction's headline guarantees — byte-identical snapshots,
//! WAL replay determinism, cross-engine comparability — are properties of
//! the *source*, not of any single test run. The determinism and panic
//! policy is clippy's: the root `clippy.toml` disallows `HashMap`/`HashSet`,
//! `Instant::now`/`SystemTime::now` and raw `thread::spawn`, the roots of
//! `core`, `store` and `graph` warn on `unwrap()`/`expect()`, and every
//! exemption is an `#[expect(lint, reason = "…")]` that fails CI's
//! `cargo clippy --workspace --all-targets -- -D warnings` once it goes
//! stale. This crate checks what clippy cannot, with four analyses over a
//! hand-rolled token scanner (no `syn`, no dependencies — the gate builds
//! offline):
//!
//! * **Unsafe code** ([`lints`]) — every crate root carries
//!   `#![forbid(unsafe_code)]`.
//! * **Wire-format schema** ([`schema`]) — every persisted type's one
//!   `wire_struct!`/`wire_enum!` field list (which generates both its
//!   `BinEncode` and its `BinDecode`) is pinned in `SCHEMA.lock` keyed to
//!   the snapshot/WAL/manifest container versions, so no layout change
//!   lands unreviewed; a hand-written codec impl outside
//!   `crates/types/src/binio.rs` is an error, because only a hand-written
//!   pair can read fields back in a different order than it wrote them.
//! * **Allowlists** ([`allow`]) — every entry of a per-crate
//!   `ANALYZE.allow` file needs a written justification, and an entry
//!   nothing relies on any more is itself a finding.
//! * **Dead public surface** ([`dead_pub`]) — every non-test `pub fn`,
//!   `pub const fn`, `pub const` and `pub static` must be named by some
//!   other file: crate sources, `crates/*/tests`, `tests/`, `examples/` or
//!   `benchmark/src` (a `pub use` re-export does not count). An item kept
//!   for a caller that is coming is exempted by name, with its reason:
//!   `dead-pub src/curves.rs::inplace_freshness_at -- …`.
//!
//! Run it as `repro analyze` (add `--deny-warnings` for the CI gate).
//!
//! # Example
//!
//! ```
//! use webevo_analyze::{analyze, Lint};
//! use webevo_analyze::scan::{CrateSources, SourceFile, Workspace};
//!
//! // A public function that no other file calls:
//! let file = SourceFile::new("crates/core/src/frontier.rs", "pub fn unused() {}\n");
//! let lib = SourceFile::new("crates/core/src/lib.rs", "#![forbid(unsafe_code)]\nmod frontier;\n");
//! let ws = Workspace::from_sources(vec![CrateSources::new("core", vec![file, lib])]);
//!
//! let findings = analyze(&ws, None).findings;
//! assert_eq!(findings.len(), 1);
//! assert_eq!(findings[0].lint, Lint::DeadPub);
//! assert!(findings[0].file.contains("frontier.rs"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allow;
pub mod dead_pub;
pub mod lints;
pub mod report;
pub mod scan;
pub mod schema;

pub use report::{render_json, Finding, Lint, Severity};
pub use scan::{scan_workspace, Workspace};

use std::collections::BTreeMap;

use allow::Allowlist;

/// What [`analyze`] found, and which exemptions it relied on.
#[derive(Clone, Debug)]
pub struct Analysis {
    /// Findings sorted by file, line, then lint.
    pub findings: Vec<Finding>,
    /// How many `ANALYZE.allow` entries each lint used.
    pub exempt: BTreeMap<Lint, usize>,
}

impl Analysis {
    /// Findings and used exemptions per lint, e.g. `… dead-pub 0 (6 exempt)`.
    pub fn per_lint(&self) -> String {
        let parts: Vec<String> = Lint::ALL
            .iter()
            .map(|lint| {
                let found = self.findings.iter().filter(|f| f.lint == *lint).count();
                match self.exempt.get(lint) {
                    Some(n) => format!("{} {found} ({n} exempt)", lint.name()),
                    None => format!("{} {found}", lint.name()),
                }
            })
            .collect();
        parts.join(", ")
    }
}

/// Run every analysis over a workspace. `schema_lock` is the contents of
/// `SCHEMA.lock` when the file exists; pass `None` for in-memory
/// workspaces without a lock (the schema gate then only fires if the
/// workspace defines wire impls).
pub fn analyze(ws: &Workspace, schema_lock: Option<&str>) -> Analysis {
    let mut findings = Vec::new();
    let mut exempt = BTreeMap::new();
    let callers = dead_pub::Callers::index(ws);
    for krate in &ws.crates {
        let mut allowlist = match &krate.allow {
            Some(text) => Allowlist::parse(&krate.name, text, &mut findings),
            None => Allowlist::default(),
        };
        lints::run(krate, &mut findings);
        dead_pub::run(&callers, krate, &mut allowlist, &mut findings);
        allowlist.report_stale(&krate.name, &mut findings);
        for entry in allowlist.used() {
            *exempt.entry(entry.lint).or_insert(0) += 1;
        }
    }
    schema::check(ws, schema_lock, &mut findings);
    findings.sort_by(|a, b| {
        a.file
            .cmp(&b.file)
            .then(a.line.cmp(&b.line))
            .then(a.lint.cmp(&b.lint))
    });
    Analysis { findings, exempt }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scan::{CrateSources, SourceFile, Workspace};

    #[test]
    fn clean_workspace_has_no_findings() {
        let lib = SourceFile::new("crates/core/src/lib.rs", "#![forbid(unsafe_code)]\npub fn f() {}\n");
        let user = SourceFile::new("crates/core/src/user.rs", "fn g() { crate::f(); }\n");
        let ws = Workspace::from_sources(vec![CrateSources::new("core", vec![lib, user])]);
        let findings = analyze(&ws, None).findings;
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn findings_are_sorted_by_location() {
        let a = SourceFile::new("crates/core/src/a.rs", "pub fn one() {}\npub fn two() {}\n");
        let lib = SourceFile::new("crates/core/src/lib.rs", "#![forbid(unsafe_code)]");
        let ws = Workspace::from_sources(vec![CrateSources::new("core", vec![a, lib])]);
        let findings = analyze(&ws, None).findings;
        assert_eq!(findings.len(), 2);
        assert!(findings[0].line < findings[1].line);
    }
}
