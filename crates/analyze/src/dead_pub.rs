//! Dead public surface: `pub` items that no other file names.
//!
//! A `pub fn`, `pub const fn`, `pub const` or `pub static` is exported so
//! that other code can call it. When no other file in the workspace — crate
//! sources, integration tests, examples, the benchmark harness — names it,
//! the export is dead weight: code to read, test and keep compiling that no
//! caller needs. The rule is lexical, so it errs towards silence:
//!
//! * Any identifier token in another file counts as a caller, test code
//!   included, except inside a `pub use` statement (a re-export is not a
//!   use). The defining file never counts, so neither do its own tests.
//! * Two files that declare the same name are each other's callers.
//! * `pub(crate)` items and trait items are out of scope: the compiler
//!   already reports the first unused, and the second are called through
//!   the trait.
//!
//! A finding is resolved by deleting the item, making it private, or
//! exempting it by name in `ANALYZE.allow` with the reason a caller is
//! coming: `dead-pub src/curves.rs::inplace_freshness_at -- …`.

use std::collections::{BTreeMap, BTreeSet};

use crate::allow::Allowlist;
use crate::report::{Finding, Lint, Severity};
use crate::scan::{CrateSources, Token, Workspace};

/// Which files name each identifier.
#[derive(Debug, Default)]
pub struct Callers {
    /// Identifier → the one file that names it, or `None` once a second
    /// file does.
    named: BTreeMap<String, Option<String>>,
}

impl Callers {
    /// Index every crate file and caller-only file of `ws`.
    pub fn index(ws: &Workspace) -> Callers {
        let mut callers = Callers::default();
        for file in ws.files().map(|(_, f)| f).chain(&ws.callers) {
            for name in caller_idents(&file.tokens()) {
                match callers.named.get_mut(name) {
                    Some(owner) => {
                        if owner.as_deref() != Some(file.rel_path.as_str()) {
                            *owner = None;
                        }
                    }
                    None => {
                        callers
                            .named
                            .insert(name.to_string(), Some(file.rel_path.clone()));
                    }
                }
            }
        }
        callers
    }

    /// True when a file other than `path` names `name`.
    fn named_outside(&self, name: &str, path: &str) -> bool {
        match self.named.get(name) {
            Some(Some(owner)) => owner != path,
            Some(None) => true,
            None => false,
        }
    }
}

/// The distinct identifiers of a file, minus those inside `pub use`.
fn caller_idents(tokens: &[Token]) -> BTreeSet<&str> {
    let mut names = BTreeSet::new();
    let mut in_pub_use = false;
    for (i, tok) in tokens.iter().enumerate() {
        if in_pub_use {
            in_pub_use = !tok.is_punct(';');
        } else if tok.is_ident("pub") && tokens.get(i + 1).is_some_and(|t| t.is_ident("use")) {
            in_pub_use = true;
        } else if let Some(name) = tok.ident() {
            names.insert(name);
        }
    }
    names
}

/// Flag every non-test public item of `krate` that no other file names.
pub fn run(
    callers: &Callers,
    krate: &CrateSources,
    allow: &mut Allowlist,
    findings: &mut Vec<Finding>,
) {
    let prefix = format!("crates/{}/", krate.name);
    for file in &krate.files {
        // The crate-relative path allowlist entries name: `src/foo.rs`.
        let path = file.rel_path.strip_prefix(&prefix).unwrap_or(&file.rel_path);
        let tokens = file.tokens();
        for i in 0..tokens.len() {
            if tokens[i].in_test || !tokens[i].is_ident("pub") {
                continue;
            }
            let Some((kind, name)) = declared(&tokens[i + 1..]) else {
                continue;
            };
            if callers.named_outside(name, &file.rel_path) {
                continue;
            }
            let entry = format!("{path}::{name}");
            if allow.permits(Lint::DeadPub, &entry) {
                continue;
            }
            findings.push(Finding::new(
                Lint::DeadPub,
                Severity::Warning,
                &file.rel_path,
                tokens[i].line,
                format!(
                    "`pub {kind} {name}` is named in no other file: delete it, make it \
                     private, or add `dead-pub {entry}` to ANALYZE.allow with the \
                     reason a caller is coming"
                ),
            ));
        }
    }
}

/// The item kind and name after a `pub` token: `fn x`, `const fn x`,
/// `const X` or `static X`.
fn declared(after_pub: &[Token]) -> Option<(&'static str, &str)> {
    let name_at = |j: usize| {
        after_pub
            .get(j)
            .and_then(Token::ident)
            .filter(|n| *n != "_")
    };
    let first = after_pub.first()?;
    if first.is_ident("fn") {
        Some(("fn", name_at(1)?))
    } else if first.is_ident("const") {
        match after_pub.get(1) {
            Some(t) if t.is_ident("fn") => Some(("const fn", name_at(2)?)),
            _ => Some(("const", name_at(1)?)),
        }
    } else if first.is_ident("static") {
        Some(("static", name_at(1)?))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::SourceFile;

    fn flagged(files: Vec<SourceFile>, callers: Vec<SourceFile>) -> Vec<String> {
        let ws = Workspace::from_sources(vec![CrateSources::new("x", files)]).with_callers(callers);
        let mut findings = Vec::new();
        run(
            &Callers::index(&ws),
            &ws.crates[0],
            &mut Allowlist::default(),
            &mut findings,
        );
        findings.into_iter().map(|f| f.message).collect()
    }

    #[test]
    fn every_declaration_form_is_checked() {
        let src = "pub fn a() {}\npub const fn b() {}\npub const C: u8 = 0;\n\
                   pub static D: u8 = 0;\nimpl T { pub fn e(&self) {} }\n\
                   pub struct S;\npub(crate) fn f() {}\npub const _: () = ();\n";
        let found = flagged(vec![SourceFile::new("crates/x/src/lib.rs", src)], vec![]);
        let names: Vec<&str> = found.iter().map(|m| m.split('`').nth(1).unwrap()).collect();
        assert_eq!(
            names,
            [
                "pub fn a",
                "pub const fn b",
                "pub const C",
                "pub static D",
                "pub fn e"
            ]
        );
    }

    #[test]
    fn a_name_in_another_file_is_a_caller_and_a_use_of_it_counts() {
        let lib = SourceFile::new("crates/x/src/lib.rs", "pub fn a() {}\npub fn b() {}\n");
        let user = SourceFile::new("crates/x/src/user.rs", "use crate::a;\nfn f() { a(); }\n");
        let found = flagged(vec![lib, user], vec![]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("`pub fn b`"));
    }

    #[test]
    fn same_named_declarations_call_each_other() {
        let a = SourceFile::new("crates/x/src/a.rs", "impl A { pub fn len(&self) {} }\n");
        let b = SourceFile::new("crates/x/src/b.rs", "impl B { pub fn len(&self) {} }\n");
        assert!(flagged(vec![a, b], vec![]).is_empty());
    }
}
