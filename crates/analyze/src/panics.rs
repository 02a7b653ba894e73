//! Panic-path audit: `unwrap()`/`expect()` budgets for the durability core
//! and the ranking kernel.
//!
//! `core` and `store` sit on the snapshot/WAL path, where a panic means a
//! truncated checkpoint rather than a failed request; `graph`'s PageRank
//! kernel runs on the pool executor's ranking thread, where a panic takes
//! the crawl down with it. Existing panic sites are grandfathered through
//! per-file budgets in `ANALYZE.allow`; the audit makes the count a
//! ratchet — going over budget is an error, while a count below budget is
//! a note inviting the budget down. New files start at zero.

use crate::allow::Allowlist;
use crate::lints::crate_relative;
use crate::report::{Finding, Lint, Severity};
use crate::scan::CrateSources;
use crate::AnalyzeConfig;

/// Audit one crate's panic sites against its budgets.
pub fn run(
    config: &AnalyzeConfig,
    krate: &CrateSources,
    allow: &mut Allowlist,
    findings: &mut Vec<Finding>,
) {
    if !config.panic_budget_crates.iter().any(|c| c == &krate.name) {
        return;
    }
    for file in &krate.files {
        let count = count_panic_sites(file);
        let crate_rel = crate_relative(&file.rel_path, &krate.name);
        let budget = allow.panic_budget(&crate_rel).unwrap_or(0);
        if count > budget {
            findings.push(Finding::new(
                Lint::PanicBudget,
                Severity::Error,
                &file.rel_path,
                0,
                format!(
                    "{count} non-test `unwrap()`/`expect()` sites exceed the budget of \
                     {budget}. Convert the new sites to `Result`, or (for a justified \
                     invariant) raise the `panic-budget {crate_rel}` entry in \
                     ANALYZE.allow — budgets should only go down"
                ),
            ));
        } else if count < budget {
            findings.push(Finding::new(
                Lint::PanicBudget,
                Severity::Note,
                &file.rel_path,
                0,
                format!(
                    "only {count} panic sites against a budget of {budget} — lower the \
                     `panic-budget {crate_rel}` entry to ratchet the budget down"
                ),
            ));
        }
    }
}

/// Count `.unwrap()` / `.expect(` call sites outside `#[cfg(test)]` regions.
///
/// Matching the preceding `.` excludes definitions (`fn unwrap`) and
/// standalone idents; `unwrap_or`/`unwrap_or_default`/`expect_err` are
/// distinct identifiers, so they never match.
fn count_panic_sites(file: &crate::scan::SourceFile) -> usize {
    let tokens = file.tokens();
    let mut count = 0;
    for i in 1..tokens.len() {
        if tokens[i].in_test {
            continue;
        }
        if !(tokens[i].is_ident("unwrap") || tokens[i].is_ident("expect")) {
            continue;
        }
        if tokens[i - 1].is_punct('.') && tokens.get(i + 1).is_some_and(|t| t.is_punct('(')) {
            count += 1;
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::SourceFile;

    #[test]
    fn counts_call_sites_only() {
        let src = "
            fn f(x: Option<u32>) -> u32 {
                let a = x.unwrap();
                let b = x.expect(\"present\");
                let c = x.unwrap_or(0);
                let d = x.unwrap_or_default();
                a + b + c + d
            }
            #[cfg(test)]
            mod tests {
                fn t(x: Option<u32>) { x.unwrap(); }
            }
        ";
        let n = count_panic_sites(&SourceFile::new("crates/core/src/f.rs", src));
        assert_eq!(n, 2);
    }

    #[test]
    fn over_budget_errors_under_budget_notes() {
        let cfg = AnalyzeConfig::workspace_default();
        let file = SourceFile::new(
            "crates/core/src/f.rs",
            "fn f(x: Option<u32>) -> u32 { x.unwrap() }",
        );
        let krate = CrateSources::new("core", vec![file]);

        // No budget declared: one site over an implicit budget of zero.
        let mut findings = Vec::new();
        let mut allow = Allowlist::default();
        run(&cfg, &krate, &mut allow, &mut findings);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].severity, Severity::Error);

        // A generous budget: the note invites ratcheting down.
        let mut findings = Vec::new();
        let mut allow = Allowlist::parse(
            "core",
            "panic-budget src/f.rs 5 -- legacy\n",
            &mut findings,
        );
        run(&cfg, &krate, &mut allow, &mut findings);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].severity, Severity::Note);

        // An exact budget: silence.
        let mut findings = Vec::new();
        let mut allow = Allowlist::parse(
            "core",
            "panic-budget src/f.rs 1 -- legacy\n",
            &mut findings,
        );
        run(&cfg, &krate, &mut allow, &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
    }
}
