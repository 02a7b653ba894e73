//! Static-analysis gate for the webevo workspace.
//!
//! The reproduction's headline guarantees — byte-identical snapshots,
//! WAL replay determinism, cross-engine comparability — are properties of
//! the *source*, not of any single test run: one `HashMap` iteration on a
//! serialized path, one `Instant::now()` feeding engine state, or one
//! silent field reorder in a wire-format declaration breaks them in ways
//! tests only catch probabilistically. This crate makes those properties
//! checkable on every commit, with three analyses over a hand-rolled token
//! scanner (no `syn`, no dependencies — the gate builds offline):
//!
//! * **Determinism lints** ([`lints`]) — unordered maps in
//!   determinism-relevant crates, wall-clock reads outside observability
//!   code, raw `thread::spawn` outside sanctioned modules, and a missing
//!   `#![forbid(unsafe_code)]`. Exemptions live in per-crate
//!   `ANALYZE.allow` files ([`allow`]) and every exemption needs a written
//!   justification; stale exemptions are themselves findings.
//! * **Wire-format schema** ([`schema`]) — every persisted type's one
//!   `wire_struct!`/`wire_enum!` field list (which generates both its
//!   `BinEncode` and its `BinDecode`) is pinned in `SCHEMA.lock` keyed to
//!   the snapshot/WAL/manifest container versions, so no layout change
//!   lands unreviewed; a hand-written codec impl outside
//!   `crates/types/src/binio.rs` is an error, because only a hand-written
//!   pair can read fields back in a different order than it wrote them.
//! * **Panic-path audit** ([`panics`]) — `unwrap()`/`expect()` counts in
//!   the durability crates against budgets that can only ratchet down.
//!
//! Run it as `repro analyze` (add `--deny-warnings` for the CI gate).
//!
//! # Example
//!
//! ```
//! use webevo_analyze::{analyze, AnalyzeConfig, Lint};
//! use webevo_analyze::scan::{CrateSources, SourceFile, Workspace};
//!
//! // A determinism-relevant crate that snuck a HashMap in:
//! let file = SourceFile::new(
//!     "crates/core/src/frontier.rs",
//!     "use std::collections::HashMap;\nfn f() {}\n",
//! );
//! let lib = SourceFile::new("crates/core/src/lib.rs", "#![forbid(unsafe_code)]");
//! let ws = Workspace::from_sources(vec![CrateSources::new("core", vec![file, lib])]);
//!
//! let findings = analyze(&ws, &AnalyzeConfig::workspace_default(), None);
//! assert_eq!(findings.len(), 1);
//! assert_eq!(findings[0].lint, Lint::UnorderedMap);
//! assert!(findings[0].file.contains("frontier.rs"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allow;
pub mod lints;
pub mod panics;
pub mod report;
pub mod scan;
pub mod schema;

pub use report::{render_json, Finding, Lint, Severity};
pub use scan::{scan_workspace, Workspace};

use allow::Allowlist;

/// Which crates each analysis applies to. Crate names are the directory
/// names under `crates/`.
#[derive(Clone, Debug)]
pub struct AnalyzeConfig {
    /// Crates where `HashMap`/`HashSet` are flagged: everything whose state
    /// is serialized, replayed, or feeds deterministic outputs.
    pub map_strict_crates: Vec<String>,
    /// Crates allowed to read wall clocks (observability and benchmarks).
    pub clock_exempt_crates: Vec<String>,
    /// Crates whose `unwrap()`/`expect()` counts are budgeted.
    pub panic_budget_crates: Vec<String>,
}

impl AnalyzeConfig {
    /// The policy for this workspace.
    ///
    /// * Map-strict: `types`, `core`, `store`, `sim`, `estimate`, `graph` —
    ///   the crates whose data structures end up in snapshots, WAL replay,
    ///   or experiment tables.
    /// * Clock-exempt: `obs` (its whole job is wall-clock timing) and
    ///   `bench` (measures real elapsed time).
    /// * Panic-budgeted: `core` and `store`, the snapshot/WAL path, and
    ///   `graph`, whose PageRank kernel runs on the pool's ranking thread.
    pub fn workspace_default() -> AnalyzeConfig {
        let v = |names: &[&str]| names.iter().map(|s| s.to_string()).collect();
        AnalyzeConfig {
            map_strict_crates: v(&["types", "core", "store", "sim", "estimate", "graph"]),
            clock_exempt_crates: v(&["obs", "bench"]),
            panic_budget_crates: v(&["core", "store", "graph"]),
        }
    }
}

/// Run every analysis over a workspace. `schema_lock` is the contents of
/// `SCHEMA.lock` when the file exists; pass `None` for in-memory
/// workspaces without a lock (the schema gate then only fires if the
/// workspace defines wire impls).
///
/// Findings come back sorted by file, line, then lint.
pub fn analyze(ws: &Workspace, config: &AnalyzeConfig, schema_lock: Option<&str>) -> Vec<Finding> {
    let mut findings = Vec::new();
    for krate in &ws.crates {
        let mut allowlist = match &krate.allow {
            Some(text) => Allowlist::parse(&krate.name, text, &mut findings),
            None => Allowlist::default(),
        };
        lints::run(config, krate, &mut allowlist, &mut findings);
        panics::run(config, krate, &mut allowlist, &mut findings);
        allowlist.report_stale(&krate.name, &mut findings);
    }
    schema::check(ws, schema_lock, &mut findings);
    findings.sort_by(|a, b| {
        a.file
            .cmp(&b.file)
            .then(a.line.cmp(&b.line))
            .then(a.lint.cmp(&b.lint))
    });
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use scan::{CrateSources, SourceFile, Workspace};

    #[test]
    fn clean_workspace_has_no_findings() {
        let lib = SourceFile::new(
            "crates/core/src/lib.rs",
            "#![forbid(unsafe_code)]\nuse std::collections::BTreeMap;\nfn f() {}\n",
        );
        let ws = Workspace::from_sources(vec![CrateSources::new("core", vec![lib])]);
        let findings = analyze(&ws, &AnalyzeConfig::workspace_default(), None);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn findings_are_sorted_by_location() {
        let a = SourceFile::new(
            "crates/core/src/a.rs",
            "use std::collections::HashMap;\nuse std::collections::HashSet;\n",
        );
        let lib = SourceFile::new("crates/core/src/lib.rs", "#![forbid(unsafe_code)]");
        let ws = Workspace::from_sources(vec![CrateSources::new("core", vec![a, lib])]);
        let findings = analyze(&ws, &AnalyzeConfig::workspace_default(), None);
        assert_eq!(findings.len(), 2);
        assert!(findings[0].line < findings[1].line);
    }
}
