//! Wire-format schema extraction and the `SCHEMA.lock` drift gate.
//!
//! The format has no field tags, so the order fields are written *is* the
//! byte layout. Every persisted type states that order exactly once, in a
//! `wire_struct!`/`wire_enum!` declaration that generates both its
//! `BinEncode` and its `BinDecode`; this module reads those declarations.
//! Three checks follow:
//!
//! 1. **One field list per type** — a hand-written `impl BinEncode` or
//!    `impl BinDecode` outside `crates/types/src/binio.rs` is an error:
//!    declared types are symmetric by construction, a hand-written pair is
//!    not. `binio.rs` itself keeps the impls the wire conventions are
//!    defined by (primitives, generic containers); each must come as a
//!    pair.
//! 2. **Lock drift** — the canonical schema is rendered to `SCHEMA.lock`,
//!    keyed to the `SNAPSHOT_VERSION`/`WAL_HEADER`/`MANIFEST_VERSION`
//!    container versions. Any reorder, addition, or removal changes the
//!    rendering and fails the gate until the lock is regenerated (and, when
//!    the byte layout really changed, the container version bumped) — so
//!    no layout change can land unreviewed.
//! 3. The hand-written impls in `binio.rs` are recorded as opaque op
//!    sequences (`ops varint sub`), so the lock covers them too.

use crate::report::{Finding, Lint, Severity};
use crate::scan::{Token, TokenKind, Workspace};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The one file whose hand-written codec impls define the wire conventions.
const CONVENTIONS_FILE: &str = "crates/types/src/binio.rs";

/// One wire type: where its layout is stated, and the layout as the lock
/// renders it (`struct a b`, `enum A=0 B=1(1)`, `ops varint sub`).
#[derive(Clone, Debug)]
pub struct WireType {
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line of the declaration (or of the `impl` keyword).
    pub line: usize,
    /// The lock rendering of the layout.
    pub layout: String,
}

/// Every wire type in the workspace, keyed by `<crate>::<Type>`: the
/// `wire_struct!`/`wire_enum!` declarations plus the encode side of the
/// impls in `binio.rs`. Hand-written impls anywhere else, and half a pair
/// in `binio.rs`, are reported into `findings`.
fn extract(ws: &Workspace, findings: &mut Vec<Finding>) -> BTreeMap<String, WireType> {
    let mut types = BTreeMap::new();
    for (crate_name, file) in ws.files() {
        let tokens = file.tokens();
        // Type → (has encode, has decode, impl line), `binio.rs` only.
        let mut pairs: BTreeMap<String, (bool, bool, usize)> = BTreeMap::new();
        let mut i = 0;
        while i < tokens.len() {
            let line = tokens[i].line;
            let at = |layout| WireType { file: file.rel_path.clone(), line, layout };
            if tokens[i].in_test {
                i += 1;
            } else if let Some((name, layout, end)) = declaration(&tokens, i) {
                types.insert(format!("{crate_name}::{name}"), at(layout));
                i = end;
            } else if let Some(found) = codec_impl(&tokens, i) {
                let key = format!("{crate_name}::{}", found.type_name);
                if file.rel_path != CONVENTIONS_FILE {
                    let message = format!(
                        "`{key}` has a hand-written `impl {}` outside {CONVENTIONS_FILE} — \
                         declare its layout once with `wire_struct!`/`wire_enum!` so encode \
                         and decode cannot disagree",
                        if found.is_encode { "BinEncode" } else { "BinDecode" }
                    );
                    findings.push(error(&file.rel_path, line, message));
                } else {
                    let pair = pairs.entry(key.clone()).or_insert((false, false, line));
                    if found.is_encode {
                        pair.0 = true;
                        types.insert(key, at(ops_layout(&tokens[i..found.end])));
                    } else {
                        pair.1 = true;
                    }
                }
                i = found.end;
            } else {
                i += 1;
            }
        }
        for (key, (encode, decode, line)) in pairs {
            if encode != decode {
                let (has, lacks) =
                    if encode { ("BinEncode", "BinDecode") } else { ("BinDecode", "BinEncode") };
                let message = format!(
                    "`{key}` implements {has} but has no {lacks} — every wire type must round-trip"
                );
                findings.push(error(&file.rel_path, line, message));
            }
        }
    }
    types
}

/// Index of the delimiter closing the group opened at `open` (any of
/// `([{`), or the last token when unbalanced.
fn close_of(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        match t.kind {
            TokenKind::Punct('(' | '[' | '{') => depth += 1,
            TokenKind::Punct(')' | ']' | '}') => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
    }
    tokens.len().saturating_sub(1)
}

/// Parse `wire_struct!(Type { … } …)` / `wire_enum!(Type { … })` at `i`
/// into `(Type, layout, index past the invocation)`.
fn declaration(tokens: &[Token], i: usize) -> Option<(String, String, usize)> {
    let is_enum = tokens[i].is_ident("wire_enum");
    if !(is_enum || tokens[i].is_ident("wire_struct"))
        || !tokens.get(i + 1)?.is_punct('!')
        || !tokens.get(i + 2)?.is_punct('(')
        || !tokens.get(i + 4)?.is_punct('{')
    {
        return None;
    }
    let name = tokens[i + 3].ident()?.to_string();
    let body = &tokens[i + 5..close_of(tokens, i + 4)];
    let layout = if is_enum { enum_layout(body) } else { struct_layout(body) };
    Some((name, layout, close_of(tokens, i + 2) + 1))
}

/// `a, b, c` → `struct a b c`: the field names (or tuple indices) in
/// order.
fn struct_layout(body: &[Token]) -> String {
    let mut out = String::from("struct");
    for t in body {
        if let TokenKind::Ident(s) | TokenKind::Num(s) = &t.kind {
            let _ = write!(out, " {s}");
        }
    }
    out
}

/// `A = 0, B { x } = 1, C(y, z) = 2` → `enum A=0 B=1(1) C=2(2)`: each
/// variant's tag and, when it has any, its operand count.
fn enum_layout(body: &[Token]) -> String {
    let mut out = String::from("enum");
    let mut k = 0;
    while k < body.len() {
        let Some(name) = body[k].ident() else {
            k += 1;
            continue;
        };
        k += 1;
        let mut operands = 0;
        if body.get(k).is_some_and(|t| t.is_punct('{') || t.is_punct('(')) {
            let end = close_of(body, k);
            operands = body[k..end].iter().filter(|t| t.ident().is_some()).count();
            k = end + 1;
        }
        let tag = body.get(k + 1).and_then(Token::num).unwrap_or("?");
        k += 2;
        let _ = write!(out, " {name}={tag}");
        if operands > 0 {
            let _ = write!(out, "({operands})");
        }
    }
    out
}

struct CodecImpl {
    type_name: String,
    is_encode: bool,
    end: usize,
}

/// Try to parse an `impl … Bin{En,De}code for Type { … }` starting at `i`
/// (which must point at the `impl` keyword for a match).
fn codec_impl(tokens: &[Token], i: usize) -> Option<CodecImpl> {
    if !tokens[i].is_ident("impl") {
        return None;
    }
    let mut j = i + 1;
    // Skip `<…>` generic parameters (angle brackets only ever nest here).
    if tokens.get(j)?.is_punct('<') {
        let mut depth = 0;
        while j < tokens.len() {
            if tokens[j].is_punct('<') {
                depth += 1;
            } else if tokens[j].is_punct('>') {
                depth -= 1;
            }
            j += 1;
            if depth == 0 {
                break;
            }
        }
    }
    // Trait path: idents and `::` until the `for` keyword.
    let mut trait_last = "";
    while !tokens.get(j)?.is_ident("for") {
        match &tokens[j].kind {
            TokenKind::Ident(s) => trait_last = s,
            TokenKind::Punct(':') => {}
            _ => return None, // not a plain trait path — an inherent impl etc.
        }
        j += 1;
    }
    let is_encode = match trait_last {
        "BinEncode" => true,
        "BinDecode" => false,
        _ => return None,
    };
    j += 1; // past `for`
    let mut type_name = String::new();
    while !tokens.get(j)?.is_punct('{') {
        let _ = write!(type_name, "{}", tokens[j]);
        j += 1;
    }
    Some(CodecImpl { type_name, is_encode, end: close_of(tokens, j) + 1 })
}

/// The write operations of a `binio.rs` encode impl, in source order:
/// `tag` (`out.push`), `varint` (`put_var_u64`), `raw`
/// (`out.extend_from_slice`), `sub` (a nested `.bin_encode`).
fn ops_layout(body: &[Token]) -> String {
    let mut out = String::from("ops");
    for (i, t) in body.iter().enumerate() {
        let method = i >= 1 && body[i - 1].is_punct('.');
        let word = match t.ident() {
            Some("push") if method => "tag",
            Some("extend_from_slice") if method => "raw",
            Some("bin_encode") if method => "sub",
            Some("put_var_u64") => "varint",
            _ => continue,
        };
        let _ = write!(out, " {word}");
    }
    if out == "ops" {
        out.push_str(" -");
    }
    out
}

// --------------------------------------------------------------- the lock

/// Container versions parsed from the sources, as `(snapshot, wal,
/// manifest)`: the declarations `const SNAPSHOT_VERSION: u32 = N`,
/// `const WAL_HEADER: &str = "WEBEVO-WAL N"` and
/// `const MANIFEST_VERSION: u32 = N` (uses of the names, which may sit next
/// to unrelated literals, are not declarations).
pub fn wire_versions(ws: &Workspace) -> (u32, u32, u32) {
    let mut versions = (0, 0, 0);
    for (_, file) in ws.files() {
        let tokens = file.tokens();
        for i in 1..tokens.len() {
            if !tokens[i - 1].is_ident("const") {
                continue;
            }
            let slot = match tokens[i].ident() {
                Some("SNAPSHOT_VERSION") => &mut versions.0,
                Some("WAL_HEADER") => &mut versions.1,
                Some("MANIFEST_VERSION") => &mut versions.2,
                _ => continue,
            };
            // The initializer: the first literal after the name.
            let literal = tokens.iter().skip(i).take(8).find_map(|t| match &t.kind {
                TokenKind::Num(n) => n.parse().ok(),
                TokenKind::Str(s) => s.strip_prefix("WEBEVO-WAL ")?.trim().parse().ok(),
                _ => None,
            });
            if let Some(n) = literal {
                *slot = n;
            }
        }
    }
    versions
}

/// Render the canonical lock text for the workspace (header comment,
/// `format` line, then one line per wire type, key-sorted).
pub fn render_lock(ws: &Workspace) -> String {
    render(ws, &extract(ws, &mut Vec::new()))
}

fn render(ws: &Workspace, types: &BTreeMap<String, WireType>) -> String {
    let (snapshot, wal, manifest) = wire_versions(ws);
    let mut out = String::from(
        "# SCHEMA.lock — canonical wire-format schema, derived from the BinEncode\n\
         # impls by `repro analyze`. Regenerate with:\n\
         #   cargo run -p webevo-bench --bin repro -- analyze --update-schema\n\
         # Every line here is byte layout: a reorder, addition, or removal must\n\
         # ship with a SNAPSHOT_VERSION / WAL_HEADER bump in webevo-store.\n",
    );
    let _ = writeln!(out, "format snapshot={snapshot} wal={wal} manifest={manifest}");
    for (key, ty) in types {
        let _ = writeln!(out, "{key} {}", ty.layout);
    }
    out
}

/// The comparable lines of a lock text: comments and blanks stripped.
fn canonical_lines(text: &str) -> Vec<String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect()
}

/// Run the schema analysis: the hand-written-impl rule plus lock-drift
/// detection. `lock` is the current `SCHEMA.lock` contents, if the file
/// exists.
pub fn check(ws: &Workspace, lock: Option<&str>, findings: &mut Vec<Finding>) {
    let types = extract(ws, findings);
    if types.is_empty() {
        return;
    }
    let current = render(ws, &types);
    let Some(lock) = lock else {
        let message = "SCHEMA.lock is missing — generate it with `repro analyze --update-schema` \
                       and check it in";
        findings.push(error("SCHEMA.lock", 0, message.to_string()));
        return;
    };
    let cur_lines = canonical_lines(&current);
    let lock_lines = canonical_lines(lock);
    if cur_lines == lock_lines {
        return;
    }
    let versions_match = cur_lines.first() == lock_lines.first();
    let to_map = |lines: &[String]| -> BTreeMap<String, String> {
        lines
            .iter()
            .filter_map(|l| l.split_once(' ').map(|(k, v)| (k.to_string(), v.to_string())))
            .collect()
    };
    let cur_map = to_map(&cur_lines);
    let lock_map = to_map(&lock_lines);
    let hint = if versions_match {
        "the container version did not change — bump SNAPSHOT_VERSION, WAL_HEADER or \
         MANIFEST_VERSION in webevo-store (whichever container carries the type) if the byte \
         layout changed, then regenerate SCHEMA.lock with `repro analyze --update-schema`"
    } else {
        "the container version changed — regenerate SCHEMA.lock with \
         `repro analyze --update-schema` so the lock matches"
    };
    let mut keys: Vec<&String> = cur_map.keys().chain(lock_map.keys()).collect();
    keys.sort();
    keys.dedup();
    for key in keys {
        let message = match (lock_map.get(key), cur_map.get(key)) {
            (Some(old), Some(new)) if old != new => format!(
                "wire format of `{key}` drifted from SCHEMA.lock:\n  locked:  {old}\n  current: {new}\n{hint}"
            ),
            (None, Some(new)) if key != "format" => {
                format!("`{key}` is encoded but absent from SCHEMA.lock ({new}) — {hint}")
            }
            (Some(old), None) if key != "format" => {
                format!("`{key}` is in SCHEMA.lock ({old}) but no longer encoded — {hint}")
            }
            _ => continue,
        };
        let (file, line) =
            types.get(key).map_or(("SCHEMA.lock", 0), |t| (t.file.as_str(), t.line));
        findings.push(error(file, line, message));
    }
}

fn error(file: &str, line: usize, message: String) -> Finding {
    Finding::new(Lint::Schema, Severity::Error, file, line, message)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::{CrateSources, SourceFile, Workspace};

    fn ws_at(path: &str, src: &str) -> Workspace {
        Workspace::from_sources(vec![CrateSources::new("x", vec![SourceFile::new(path, src)])])
    }

    fn ws(src: &str) -> Workspace {
        ws_at("crates/x/src/lib.rs", src)
    }

    const STRUCT_DECL: &str = "
        pub struct Point { x: u64, y: u64 }
        wire_struct!(Point { x, y });
    ";

    #[test]
    fn struct_pair_extracts_and_matches() {
        let src = format!(
            "{STRUCT_DECL}
             wire_struct!(Id {{ 0 }});
             webevo_types::wire_struct!(Checked {{ a, b }}
                 reject |t| t.a > t.b => \"a above b\");
             #[cfg(test)] mod tests {{ wire_struct!(OnlyInTests {{ z }}); }}"
        );
        let mut findings = Vec::new();
        let types = extract(&ws(&src), &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
        let layouts: Vec<_> = types.iter().map(|(k, t)| format!("{k} {}", t.layout)).collect();
        // The post-decode check is not layout.
        assert_eq!(layouts, ["x::Checked struct a b", "x::Id struct 0", "x::Point struct x y"]);
        assert_eq!(types["x::Point"].line, 3);
    }

    #[test]
    fn enum_pair_tags_and_operands() {
        let src = "wire_enum!(E { A = 0, B { n } = 1, C(left, right) = 7 });";
        let types = extract(&ws(src), &mut Vec::new());
        assert_eq!(types["x::E"].layout, "enum A=0 B=1(1) C=7(2)");
    }

    const HAND_WRITTEN: &str = "
        impl<T: BinEncode> BinEncode for Wrapper<T> {
            fn bin_encode(&self, out: &mut Vec<u8>) {
                out.push(1);
                put_var_u64(out, self.len() as u64);
                out.extend_from_slice(self.raw());
                for item in self { item.bin_encode(out); }
            }
        }
    ";

    #[test]
    fn binio_impls_render_as_ops() {
        let types = extract(&ws_at(CONVENTIONS_FILE, HAND_WRITTEN), &mut Vec::new());
        assert_eq!(types["x::Wrapper<T>"].layout, "ops tag varint raw sub");
    }

    #[test]
    fn swapped_decode_order_is_an_error() {
        // Only a hand-written pair can read fields back in another order
        // than it wrote them, so outside `binio.rs` the pair is the error.
        let src = "
            impl BinEncode for Point {
                fn bin_encode(&self, out: &mut Vec<u8>) {
                    self.x.bin_encode(out);
                    self.y.bin_encode(out);
                }
            }
            impl BinDecode for Point {
                fn bin_decode(r: &mut BinReader<'_>) -> Result<Point, BinError> {
                    Ok(Point { y: u64::bin_decode(r)?, x: u64::bin_decode(r)? })
                }
            }
        ";
        let mut findings = Vec::new();
        let types = extract(&ws(src), &mut findings);
        assert!(types.is_empty(), "an undeclared type is not pinned: {types:?}");
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings[0].message.contains("hand-written `impl BinEncode`"), "{findings:?}");
        assert!(findings[1].message.contains("hand-written `impl BinDecode`"), "{findings:?}");
        assert_eq!((findings[0].line, findings[1].line), (2, 8));
    }

    #[test]
    fn missing_counterpart_is_an_error() {
        let mut findings = Vec::new();
        extract(&ws_at(CONVENTIONS_FILE, HAND_WRITTEN), &mut findings);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("no BinDecode"), "{findings:?}");

        let paired = format!(
            "{HAND_WRITTEN}
             impl<T: BinDecode> BinDecode for Wrapper<T> {{
                 fn bin_decode(r: &mut BinReader<'_>) -> Result<Wrapper<T>, BinError> {{ todo() }}
             }}"
        );
        let mut findings = Vec::new();
        extract(&ws_at(CONVENTIONS_FILE, &paired), &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn lock_drift_detected_and_versions_parsed() {
        let src = format!(
            "pub const SNAPSHOT_VERSION: u32 = 3;\n\
             pub const WAL_HEADER: &str = \"WEBEVO-WAL 2\";\n\
             pub const MANIFEST_VERSION: u32 = 5;\n\
             fn f() {{ g(SNAPSHOT_VERSION, 256 * 1024, WAL_HEADER, \"WEBEVO-WAL 7\"); }}\n\
             {STRUCT_DECL}"
        );
        let workspace = ws(&src);
        // Only the declarations count, not a use next to another literal.
        assert_eq!(wire_versions(&workspace), (3, 2, 5));
        let lock = render_lock(&workspace);
        assert!(lock.contains("format snapshot=3 wal=2 manifest=5"), "{lock}");
        assert!(lock.contains("x::Point struct x y"), "{lock}");

        // Unchanged lock: clean.
        let mut findings = Vec::new();
        check(&workspace, Some(&lock), &mut findings);
        assert!(findings.is_empty(), "{findings:?}");

        // Reorder the declared fields without a version bump: drift error.
        let drifted = src.replace("Point { x, y }", "Point { y, x }");
        let workspace2 = ws(&drifted);
        let mut findings = Vec::new();
        check(&workspace2, Some(&lock), &mut findings);
        let drift: Vec<_> = findings
            .iter()
            .filter(|f| f.message.contains("drifted from SCHEMA.lock"))
            .collect();
        assert_eq!(drift.len(), 1, "{findings:?}");
        assert!(drift[0].message.contains("version did not change"), "{findings:?}");
        assert!(drift[0].message.contains("MANIFEST_VERSION"), "{findings:?}");
    }

    #[test]
    fn missing_lock_is_an_error() {
        let mut findings = Vec::new();
        check(&ws(STRUCT_DECL), None, &mut findings);
        assert!(
            findings.iter().any(|f| f.message.contains("SCHEMA.lock is missing")),
            "{findings:?}"
        );
    }
}
