//! Determinism lints over the token stream.
//!
//! The engine's reproducibility story (byte-identical snapshots, replayable
//! WALs, deterministic experiment tables) rests on iteration order being a
//! function of the data, never of hasher seeds, wall clocks, or thread
//! interleavings. These lints catch the three ways that property usually
//! erodes: an unordered map sneaking onto a serialized or replayed path, a
//! wall-clock read feeding engine state, and an unsanctioned thread.

use crate::allow::Allowlist;
use crate::report::{Finding, Lint, Severity};
use crate::scan::{CrateSources, Token};
use crate::AnalyzeConfig;

/// Run every determinism lint over one crate.
pub fn run(
    config: &AnalyzeConfig,
    krate: &CrateSources,
    allow: &mut Allowlist,
    findings: &mut Vec<Finding>,
) {
    let map_strict = config.map_strict_crates.iter().any(|c| c == &krate.name);
    let clock_free = !config.clock_exempt_crates.iter().any(|c| c == &krate.name);
    for file in &krate.files {
        let crate_rel = crate_relative(&file.rel_path, &krate.name);
        let tokens = file.tokens();
        for (i, tok) in tokens.iter().enumerate() {
            if tok.in_test {
                continue; // test modules may hash and sleep freely
            }
            if map_strict {
                lint_unordered_map(&file.rel_path, &crate_rel, tok, allow, findings);
            }
            if clock_free {
                lint_wall_clock(&file.rel_path, &crate_rel, &tokens, i, allow, findings);
            }
            lint_thread_spawn(&file.rel_path, &crate_rel, &tokens, i, allow, findings);
        }
    }
    lint_forbid_unsafe(krate, findings);
}

/// `crates/<name>/src/foo.rs` → `src/foo.rs` (the form allowlists use).
pub(crate) fn crate_relative(rel_path: &str, crate_name: &str) -> String {
    let prefix = format!("crates/{crate_name}/");
    rel_path.strip_prefix(&prefix).unwrap_or(rel_path).to_string()
}

fn lint_unordered_map(
    file: &str,
    crate_rel: &str,
    tok: &Token,
    allow: &mut Allowlist,
    findings: &mut Vec<Finding>,
) {
    let Some(name) = tok.ident() else { return };
    if name != "HashMap" && name != "HashSet" {
        return;
    }
    if allow.permits(Lint::UnorderedMap, crate_rel) {
        return;
    }
    findings.push(Finding::new(
        Lint::UnorderedMap,
        Severity::Warning,
        file,
        tok.line,
        format!(
            "`{name}` in a determinism-relevant crate: iteration order depends on \
             the hasher seed. Use `DenseMap`/`DenseSet` for PageId-keyed data or \
             `BTreeMap`/`BTreeSet` otherwise, or add an `unordered-map` entry to \
             ANALYZE.allow with a justification"
        ),
    ));
}

fn lint_wall_clock(
    file: &str,
    crate_rel: &str,
    tokens: &[Token],
    i: usize,
    allow: &mut Allowlist,
    findings: &mut Vec<Finding>,
) {
    // `SystemTime :: now` / `Instant :: now`
    let Some(ty) = tokens[i].ident() else { return };
    if ty != "SystemTime" && ty != "Instant" {
        return;
    }
    let is_now_call = tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
        && tokens.get(i + 2).is_some_and(|t| t.is_punct(':'))
        && tokens.get(i + 3).is_some_and(|t| t.is_ident("now"));
    if !is_now_call {
        return;
    }
    if allow.permits(Lint::WallClock, crate_rel) {
        return;
    }
    let line = tokens[i].line;
    findings.push(Finding::new(
        Lint::WallClock,
        Severity::Warning,
        file,
        line,
        format!(
            "`{ty}::now()` outside the observability crates: wall-clock reads make \
             runs irreproducible. Thread the simulated clock through instead, or \
             add a `wall-clock` entry to ANALYZE.allow with a justification"
        ),
    ));
}

fn lint_thread_spawn(
    file: &str,
    crate_rel: &str,
    tokens: &[Token],
    i: usize,
    allow: &mut Allowlist,
    findings: &mut Vec<Finding>,
) {
    // `thread :: spawn` or `thread :: Builder` — `std::thread` or a bare
    // `use std::thread;` import, either way the path ends the same.
    if !tokens[i].is_ident("thread") {
        return;
    }
    let is_spawn = tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
        && tokens.get(i + 2).is_some_and(|t| t.is_punct(':'))
        && tokens
            .get(i + 3)
            .is_some_and(|t| t.is_ident("spawn") || t.is_ident("Builder"));
    if !is_spawn {
        return;
    }
    if allow.permits(Lint::RawThreadSpawn, crate_rel) {
        return;
    }
    findings.push(Finding::new(
        Lint::RawThreadSpawn,
        Severity::Warning,
        file,
        tokens[i].line,
        "raw `thread::spawn` outside a sanctioned module: unmanaged threads \
         introduce scheduling nondeterminism. Route work through the fleet \
         coordinator or checkpointer, or add a `raw-thread-spawn` entry to \
         ANALYZE.allow with a justification",
    ));
}

/// Every crate's `lib.rs` (or sole `main.rs`) must carry
/// `#![forbid(unsafe_code)]`.
fn lint_forbid_unsafe(krate: &CrateSources, findings: &mut Vec<Finding>) {
    let root = krate
        .files
        .iter()
        .find(|f| f.rel_path.ends_with("/src/lib.rs"))
        .or_else(|| krate.files.iter().find(|f| f.rel_path.ends_with("/src/main.rs")));
    let Some(root) = root else {
        return; // a crate with no root source contributes nothing
    };
    let tokens = root.tokens();
    // `# ! [ forbid ( unsafe_code ) ]`
    let has = tokens.windows(8).any(|w| {
        w[0].is_punct('#')
            && w[1].is_punct('!')
            && w[2].is_punct('[')
            && w[3].is_ident("forbid")
            && w[4].is_punct('(')
            && w[5].is_ident("unsafe_code")
            && w[6].is_punct(')')
            && w[7].is_punct(']')
    });
    if !has {
        findings.push(Finding::new(
            Lint::MissingForbidUnsafe,
            Severity::Error,
            &root.rel_path,
            1,
            "crate root is missing `#![forbid(unsafe_code)]` — the workspace is \
             unsafe-free by policy",
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::{SourceFile, Workspace};
    use crate::{analyze, AnalyzeConfig};

    fn one_crate(name: &str, body: &str, allow: Option<&str>) -> Workspace {
        let file = SourceFile::new(
            format!("crates/{name}/src/lib.rs"),
            format!("#![forbid(unsafe_code)]\n{body}"),
        );
        let mut c = CrateSources::new(name, vec![file]);
        if let Some(a) = allow {
            c = c.with_allow(a);
        }
        Workspace::from_sources(vec![c])
    }

    fn findings_for(ws: &Workspace) -> Vec<Finding> {
        analyze(ws, &AnalyzeConfig::workspace_default(), None).findings
    }

    #[test]
    fn hashmap_in_strict_crate_fires() {
        let ws = one_crate("core", "use std::collections::HashMap;", None);
        let f = findings_for(&ws);
        assert!(f.iter().any(|f| f.lint == Lint::UnorderedMap), "{f:?}");
    }

    #[test]
    fn hashmap_in_lax_crate_is_fine() {
        let ws = one_crate("obs", "use std::collections::HashMap;", None);
        let f = findings_for(&ws);
        assert!(!f.iter().any(|f| f.lint == Lint::UnorderedMap), "{f:?}");
    }

    #[test]
    fn hashmap_in_test_module_is_fine() {
        let ws = one_crate(
            "core",
            "#[cfg(test)]\nmod tests { use std::collections::HashMap; }",
            None,
        );
        let f = findings_for(&ws);
        assert!(!f.iter().any(|f| f.lint == Lint::UnorderedMap), "{f:?}");
    }

    #[test]
    fn allowlisted_hashmap_is_fine_and_not_stale() {
        let ws = one_crate(
            "core",
            "use std::collections::HashMap;",
            Some("unordered-map src/lib.rs -- interned, never iterated\n"),
        );
        let f = findings_for(&ws);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn wall_clock_fires_outside_obs() {
        let ws = one_crate("serve", "fn f() { let t = Instant::now(); }", None);
        let f = findings_for(&ws);
        assert!(f.iter().any(|f| f.lint == Lint::WallClock), "{f:?}");
        let ws = one_crate("obs", "fn f() { let t = Instant::now(); }", None);
        assert!(findings_for(&ws).is_empty());
    }

    #[test]
    fn thread_spawn_fires_everywhere_unless_allowed() {
        let body = "fn f() { std::thread::spawn(|| {}); }";
        let ws = one_crate("obs", body, None);
        let f = findings_for(&ws);
        assert!(f.iter().any(|f| f.lint == Lint::RawThreadSpawn), "{f:?}");
        let ws = one_crate("obs", body, Some("raw-thread-spawn src/lib.rs -- sanctioned\n"));
        assert!(findings_for(&ws).is_empty());
    }

    #[test]
    fn missing_forbid_unsafe_is_an_error() {
        let file = SourceFile::new("crates/x/src/lib.rs", "fn f() {}");
        let ws = Workspace::from_sources(vec![CrateSources::new("x", vec![file])]);
        let f = findings_for(&ws);
        assert!(
            f.iter()
                .any(|f| f.lint == Lint::MissingForbidUnsafe && f.severity == Severity::Error),
            "{f:?}"
        );
    }
}
