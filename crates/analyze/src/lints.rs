//! The unsafe-code lint: every crate root carries `#![forbid(unsafe_code)]`,
//! which no `Cargo.toml` edit can drop. Clippy has no counterpart.

use crate::report::{Finding, Lint, Severity};
use crate::scan::CrateSources;

/// Every crate's `lib.rs` (or sole `main.rs`) must carry
/// `#![forbid(unsafe_code)]`.
pub fn run(krate: &CrateSources, findings: &mut Vec<Finding>) {
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
    use crate::analyze;

    #[test]
    fn missing_forbid_unsafe_is_an_error() {
        let file = SourceFile::new("crates/x/src/lib.rs", "fn f() {}");
        let ws = Workspace::from_sources(vec![CrateSources::new("x", vec![file])]);
        let f = analyze(&ws, None).findings;
        assert!(
            f.iter()
                .any(|f| f.lint == Lint::MissingForbidUnsafe && f.severity == Severity::Error),
            "{f:?}"
        );
    }
}
