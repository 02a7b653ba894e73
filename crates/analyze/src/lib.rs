//! Static-analysis gate for the webevo workspace.
//!
//! The reproduction's headline guarantees — byte-identical snapshots,
//! WAL replay determinism, cross-engine comparability — are properties of
//! the *source*, not of any single test run: one `HashMap` iteration on a
//! serialized path, one `Instant::now()` feeding engine state, or one
//! silent field reorder in a wire-format declaration breaks them in ways
//! tests only catch probabilistically. This crate makes those properties
//! checkable on every commit, with four analyses over a hand-rolled token
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
//! let findings = analyze(&ws, &AnalyzeConfig::workspace_default(), None).findings;
//! assert_eq!(findings.len(), 1);
//! assert_eq!(findings[0].lint, Lint::UnorderedMap);
//! assert!(findings[0].file.contains("frontier.rs"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allow;
pub mod dead_pub;
pub mod lints;
pub mod panics;
pub mod report;
pub mod scan;
pub mod schema;

pub use report::{render_json, Finding, Lint, Severity};
pub use scan::{scan_workspace, Workspace};

use std::collections::BTreeMap;

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
    ///   `graph`, whose PageRank kernel runs in the pool's scoped ranking
    ///   solve, where a panic becomes a typed error.
    pub fn workspace_default() -> AnalyzeConfig {
        let v = |names: &[&str]| names.iter().map(|s| s.to_string()).collect();
        AnalyzeConfig {
            map_strict_crates: v(&["types", "core", "store", "sim", "estimate", "graph"]),
            clock_exempt_crates: v(&["obs", "bench"]),
            panic_budget_crates: v(&["core", "store", "graph"]),
        }
    }
}

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
pub fn analyze(ws: &Workspace, config: &AnalyzeConfig, schema_lock: Option<&str>) -> Analysis {
    let mut findings = Vec::new();
    let mut exempt = BTreeMap::new();
    let callers = dead_pub::Callers::index(ws);
    for krate in &ws.crates {
        let mut allowlist = match &krate.allow {
            Some(text) => Allowlist::parse(&krate.name, text, &mut findings),
            None => Allowlist::default(),
        };
        lints::run(config, krate, &mut allowlist, &mut findings);
        panics::run(config, krate, &mut allowlist, &mut findings);
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
        let lib = SourceFile::new(
            "crates/core/src/lib.rs",
            "#![forbid(unsafe_code)]\nuse std::collections::BTreeMap;\nfn f() {}\n",
        );
        let ws = Workspace::from_sources(vec![CrateSources::new("core", vec![lib])]);
        let findings = analyze(&ws, &AnalyzeConfig::workspace_default(), None).findings;
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
        let findings = analyze(&ws, &AnalyzeConfig::workspace_default(), None).findings;
        assert_eq!(findings.len(), 2);
        assert!(findings[0].line < findings[1].line);
    }
}
