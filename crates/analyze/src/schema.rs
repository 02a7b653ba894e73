//! Wire-format schema extraction and the `SCHEMA.lock` drift gate.
//!
//! Every `impl BinEncode`/`impl BinDecode` block in the workspace is parsed
//! into an ordered sequence of wire operations — the order fields are
//! written is the byte layout, because the format has no field tags. Three
//! checks follow:
//!
//! 1. **Symmetry** — for struct-shaped pairs, the decode field order must
//!    equal the encode field order; for enum-shaped pairs, the tag sets and
//!    per-tag operand counts must agree. A type encoded but never decoded
//!    (or vice versa) is also an error.
//! 2. **Lock drift** — the canonical schema is rendered to `SCHEMA.lock`,
//!    keyed to the `SNAPSHOT_VERSION`/`WAL_HEADER` container versions. Any
//!    reorder, addition, or removal changes the rendering and fails the
//!    gate until the lock is regenerated (and, when the byte layout really
//!    changed, the container version bumped) — so no layout change can land
//!    unreviewed.
//! 3. Types whose impls don't follow the struct or enum idiom (primitives,
//!    generic containers) are recorded as opaque op sequences; the lock
//!    still covers them even though symmetry can't be judged by name.

use crate::report::{Finding, Lint, Severity};
use crate::scan::{Token, TokenKind, Workspace};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One wire operation on the encode side.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// A single tag/marker byte (`out.push(…)`).
    Tag,
    /// A LEB128 varint (`put_var_u64`).
    Varint,
    /// Raw bytes (`out.extend_from_slice`).
    Raw,
    /// A nested `bin_encode`/`bin_decode`.
    Sub,
    /// A local helper function that writes to `out` / reads from `r`.
    Helper,
}

impl OpKind {
    fn word(self) -> &'static str {
        match self {
            OpKind::Tag => "tag",
            OpKind::Varint => "varint",
            OpKind::Raw => "raw",
            OpKind::Sub => "sub",
            OpKind::Helper => "help",
        }
    }
}

/// One enum arm: variant name, tag literal, and operand count.
#[derive(Clone, Debug, PartialEq)]
pub struct Arm {
    /// Variant name (may be empty on the decode side).
    pub name: String,
    /// The tag byte literal, verbatim.
    pub tag: String,
    /// How many nested encode/decode calls follow the tag.
    pub subops: usize,
}

/// The extracted wire shape of one impl.
#[derive(Clone, Debug, PartialEq)]
pub enum Shape {
    /// Every operation maps to a named field, in declaration order.
    Struct(Vec<String>),
    /// Tag-dispatched enum arms.
    Enum(Vec<Arm>),
    /// Anything else: the raw op sequence (primitives, containers).
    Ops(Vec<OpKind>),
}

/// One `impl BinEncode`/`BinDecode` block, located and shaped.
#[derive(Clone, Debug)]
pub struct ImplInfo {
    /// `<crate>::<Type>`, the lock key.
    pub key: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line of the `impl` keyword.
    pub line: usize,
    /// The extracted shape.
    pub shape: Shape,
}

/// Both sides of a type's wire format.
#[derive(Clone, Debug, Default)]
pub struct TypeSchema {
    /// The `BinEncode` side, when present.
    pub encode: Option<ImplInfo>,
    /// The `BinDecode` side, when present.
    pub decode: Option<ImplInfo>,
}

/// Extract every `BinEncode`/`BinDecode` impl in the workspace, keyed by
/// `<crate>::<Type>`.
pub fn extract(ws: &Workspace) -> BTreeMap<String, TypeSchema> {
    let mut types: BTreeMap<String, TypeSchema> = BTreeMap::new();
    for (crate_name, file) in ws.files() {
        let tokens = file.tokens();
        let mut i = 0;
        while i < tokens.len() {
            match find_impl(&tokens, i) {
                Some(found) => {
                    let key = format!("{crate_name}::{}", found.type_name);
                    let info = ImplInfo {
                        key: key.clone(),
                        file: file.rel_path.clone(),
                        line: tokens[i].line,
                        shape: found.shape,
                    };
                    let entry = types.entry(key).or_default();
                    if found.is_encode {
                        entry.encode = Some(info);
                    } else {
                        entry.decode = Some(info);
                    }
                    i = found.end;
                }
                None => i += 1,
            }
        }
    }
    types
}

struct FoundImpl {
    type_name: String,
    is_encode: bool,
    shape: Shape,
    end: usize,
}

/// Try to parse an `impl … Bin{En,De}code for Type { … }` starting at `i`
/// (which must point at the `impl` keyword for a match).
fn find_impl(tokens: &[Token], i: usize) -> Option<FoundImpl> {
    if !tokens[i].is_ident("impl") || tokens[i].in_test {
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
                if depth == 0 {
                    j += 1;
                    break;
                }
            }
            j += 1;
        }
    }
    // Trait path: idents and `::` until the `for` keyword.
    let mut trait_last = String::new();
    while j < tokens.len() {
        if tokens[j].is_ident("for") {
            break;
        }
        match &tokens[j].kind {
            TokenKind::Ident(s) => trait_last = s.clone(),
            TokenKind::Punct(':') => {}
            _ => return None, // not a plain trait path — an inherent impl etc.
        }
        j += 1;
    }
    let is_encode = match trait_last.as_str() {
        "BinEncode" => true,
        "BinDecode" => false,
        _ => return None,
    };
    j += 1; // past `for`
    // Type tokens until the impl body brace.
    let mut type_name = String::new();
    while j < tokens.len() && !tokens[j].is_punct('{') {
        match &tokens[j].kind {
            TokenKind::Ident(s) | TokenKind::Num(s) => type_name.push_str(s),
            TokenKind::Punct(c) => type_name.push(*c),
            _ => {}
        }
        j += 1;
    }
    if j >= tokens.len() {
        return None;
    }
    // The impl body: `{ … }` balanced.
    let body_start = j;
    let mut depth = 0;
    while j < tokens.len() {
        if tokens[j].is_punct('{') {
            depth += 1;
        } else if tokens[j].is_punct('}') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
        j += 1;
    }
    let body = fn_body(&tokens[body_start..=j.min(tokens.len() - 1)]);
    let shape = if is_encode { encode_shape(body) } else { decode_shape(body) };
    Some(FoundImpl { type_name, is_encode, shape, end: j + 1 })
}

/// Skip the `fn name(args) -> Ret` header inside an impl body and return
/// the function's statement tokens.
fn fn_body(body: &[Token]) -> &[Token] {
    let mut i = 0;
    while i < body.len() && !body[i].is_ident("fn") {
        i += 1;
    }
    // Past the signature's parens…
    while i < body.len() && !body[i].is_punct('(') {
        i += 1;
    }
    let mut depth = 0;
    while i < body.len() {
        if body[i].is_punct('(') {
            depth += 1;
        } else if body[i].is_punct(')') {
            depth -= 1;
            if depth == 0 {
                i += 1;
                break;
            }
        }
        i += 1;
    }
    // …and anything up to the function's opening brace.
    while i < body.len() && !body[i].is_punct('{') {
        i += 1;
    }
    let start = (i + 1).min(body.len());
    let mut end = start;
    let mut depth = 1;
    let mut k = start;
    while k < body.len() {
        if body[k].is_punct('{') {
            depth += 1;
        } else if body[k].is_punct('}') {
            depth -= 1;
            if depth == 0 {
                end = k;
                break;
            }
        }
        k += 1;
    }
    &body[start..end]
}

/// Length of the balanced group starting at the opening delimiter `open`.
fn balanced(tokens: &[Token], start: usize, open: char, close: char) -> usize {
    let mut depth = 0;
    let mut i = start;
    while i < tokens.len() {
        if tokens[i].is_punct(open) {
            depth += 1;
        } else if tokens[i].is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return i + 1 - start;
            }
        }
        i += 1;
    }
    tokens.len() - start
}

/// First `self.FIELD` (where `FIELD` isn't itself a call) in `args`.
fn self_field(args: &[Token]) -> Option<String> {
    for i in 0..args.len() {
        if args[i].is_ident("self")
            && args.get(i + 1).is_some_and(|t| t.is_punct('.'))
            && !args.get(i + 3).is_some_and(|t| t.is_punct('('))
        {
            match args.get(i + 2).map(|t| &t.kind) {
                Some(TokenKind::Ident(s)) | Some(TokenKind::Num(s)) => return Some(s.clone()),
                _ => {}
            }
        }
    }
    None
}

const KEYWORDS: &[&str] =
    &["if", "for", "while", "loop", "match", "return", "let", "Some", "Ok", "Err"];

fn encode_shape(body: &[Token]) -> Shape {
    let mut ops: Vec<(OpKind, Option<String>)> = Vec::new();
    let mut i = 0;
    while i < body.len() {
        let t = &body[i];
        // `match self { … }` — the enum idiom.
        if t.is_ident("match") && body.get(i + 1).is_some_and(|t| t.is_ident("self")) {
            let mut k = i + 2;
            while k < body.len() && !body[k].is_punct('{') {
                k += 1;
            }
            let len = balanced(body, k, '{', '}');
            return Shape::Enum(encode_arms(&body[k + 1..(k + len).saturating_sub(1)]));
        }
        // `out.push(…)` — a tag byte, or the whole-enum `push(match self …)`.
        if t.is_ident("out")
            && body.get(i + 1).is_some_and(|t| t.is_punct('.'))
            && body.get(i + 2).is_some_and(|t| t.is_ident("push") || t.is_ident("extend_from_slice"))
            && body.get(i + 3).is_some_and(|t| t.is_punct('('))
        {
            let raw = body[i + 2].is_ident("extend_from_slice");
            let len = balanced(body, i + 3, '(', ')');
            let args = &body[i + 4..(i + 3 + len).saturating_sub(1)];
            if !raw && args.first().is_some_and(|t| t.is_ident("match")) {
                let mut k = 0;
                while k < args.len() && !args[k].is_punct('{') {
                    k += 1;
                }
                let alen = balanced(args, k, '{', '}');
                return Shape::Enum(encode_arms(&args[k + 1..(k + alen).saturating_sub(1)]));
            }
            let kind = if raw { OpKind::Raw } else { OpKind::Tag };
            ops.push((kind, self_field(args)));
            i += 3 + len;
            continue;
        }
        // `put_var_u64(out, …)` — a varint.
        if t.is_ident("put_var_u64") && body.get(i + 1).is_some_and(|t| t.is_punct('(')) {
            let len = balanced(body, i + 1, '(', ')');
            let args = &body[i + 2..(i + 1 + len).saturating_sub(1)];
            ops.push((OpKind::Varint, self_field(args)));
            i += 1 + len;
            continue;
        }
        // `RECEIVER.bin_encode(out)` — name the receiver when it's `self.X`.
        if t.is_ident("bin_encode")
            && i >= 1
            && body[i - 1].is_punct('.')
            && body.get(i + 1).is_some_and(|t| t.is_punct('('))
        {
            let name = if i >= 3
                && body[i - 2]
                    .ident()
                    .map(|_| true)
                    .unwrap_or(matches!(body[i - 2].kind, TokenKind::Num(_)))
                && body[i - 3].is_punct('.')
                && i >= 4
                && body[i - 4].is_ident("self")
            {
                match &body[i - 2].kind {
                    TokenKind::Ident(s) | TokenKind::Num(s) => Some(s.clone()),
                    _ => None,
                }
            } else {
                None
            };
            let len = balanced(body, i + 1, '(', ')');
            ops.push((OpKind::Sub, name));
            i += 1 + len;
            continue;
        }
        // `helper(&self.x, out)` — any other call that writes to `out`.
        if let TokenKind::Ident(name) = &t.kind {
            if body.get(i + 1).is_some_and(|t| t.is_punct('('))
                && !KEYWORDS.contains(&name.as_str())
                && !(i >= 1 && (body[i - 1].is_punct('.') || body[i - 1].is_punct(':')))
            {
                let len = balanced(body, i + 1, '(', ')');
                let args = &body[i + 2..(i + 1 + len).saturating_sub(1)];
                if args.iter().any(|t| t.is_ident("out")) {
                    ops.push((OpKind::Helper, self_field(args)));
                    i += 1 + len;
                    continue;
                }
                i += 1 + len;
                continue;
            }
        }
        i += 1;
    }
    if !ops.is_empty() && ops.iter().all(|(_, n)| n.is_some()) {
        Shape::Struct(ops.into_iter().map(|(_, n)| n.unwrap_or_default()).collect())
    } else {
        Shape::Ops(ops.into_iter().map(|(k, _)| k).collect())
    }
}

/// Parse the arms of an encode-side `match self` body.
fn encode_arms(body: &[Token]) -> Vec<Arm> {
    let mut arms = Vec::new();
    for (pattern, arm_body) in split_arms(body) {
        let name = pattern_name(pattern);
        // Tag: an `out.push(N)` in the body (idiom A), or the body being the
        // bare literal (idiom B: `out.push(match self { … => N })`).
        let tag = find_push_literal(arm_body)
            .or_else(|| match arm_body {
                [t] => t.num().map(str::to_string),
                _ => None,
            })
            .unwrap_or_else(|| "?".to_string());
        let subops = arm_body.iter().filter(|t| t.is_ident("bin_encode")).count();
        arms.push(Arm { name, tag, subops });
    }
    arms
}

/// Parse a decode-side impl body into its shape.
fn decode_shape(body: &[Token]) -> Shape {
    // `match r.byte()? { … }` — the enum idiom.
    for i in 0..body.len() {
        if body[i].is_ident("match")
            && body.get(i + 1).is_some_and(|t| t.is_ident("r"))
            && body.get(i + 2).is_some_and(|t| t.is_punct('.'))
            && body.get(i + 3).is_some_and(|t| t.is_ident("byte"))
        {
            let mut k = i + 4;
            while k < body.len() && !body[k].is_punct('{') {
                k += 1;
            }
            let len = balanced(body, k, '{', '}');
            let inner = &body[k + 1..(k + len).saturating_sub(1)];
            let mut arms = Vec::new();
            for (pattern, arm_body) in split_arms(inner) {
                // Only literal-tag arms participate; `other =>` is the
                // catchall error arm.
                let tag = match pattern {
                    [t] => match t.num() {
                        Some(n) => n.to_string(),
                        None => continue,
                    },
                    _ => continue,
                };
                let subops = arm_body.iter().filter(|t| t.is_ident("bin_decode")).count();
                arms.push(Arm { name: String::new(), tag, subops });
            }
            return Shape::Enum(arms);
        }
    }
    // Struct idiom: ordered reads from `let x = …r…;` statements and the
    // keys of the returned `Ok(Type { key: …r…, … })` literal.
    let mut reads: Vec<String> = Vec::new();
    let mut i = 0;
    while i < body.len() {
        if body[i].is_ident("let") {
            let mut k = i + 1;
            if body.get(k).is_some_and(|t| t.is_ident("mut")) {
                k += 1;
            }
            let Some(TokenKind::Ident(name)) = body.get(k).map(|t| &t.kind) else {
                i += 1;
                continue;
            };
            let name = name.clone();
            // RHS runs to the statement's `;` at delimiter depth 0.
            let mut depth = 0i32;
            let mut end = k;
            while end < body.len() {
                match &body[end].kind {
                    TokenKind::Punct('(' | '[' | '{') => depth += 1,
                    TokenKind::Punct(')' | ']' | '}') => depth -= 1,
                    TokenKind::Punct(';') if depth == 0 => break,
                    _ => {}
                }
                end += 1;
            }
            if body[k..end].iter().any(|t| t.is_ident("r")) {
                reads.push(name);
            }
            i = end + 1;
            continue;
        }
        // `Ok ( Path { key: value, … } )`
        if body[i].is_ident("Ok") && body.get(i + 1).is_some_and(|t| t.is_punct('(')) {
            let mut k = i + 2;
            // A path of idents/`::` must lead directly to `{` for this to be
            // a struct literal (and not `Ok(f64::from_bits(…))`).
            let mut is_literal = false;
            while k < body.len() {
                match &body[k].kind {
                    TokenKind::Ident(_) | TokenKind::Punct(':') => k += 1,
                    TokenKind::Punct('{') => {
                        is_literal = k > i + 2;
                        break;
                    }
                    _ => break,
                }
            }
            if is_literal {
                let len = balanced(body, k, '{', '}');
                let inner = &body[k + 1..(k + len).saturating_sub(1)];
                collect_literal_keys(inner, &mut reads);
                i = k + len;
                continue;
            }
        }
        i += 1;
    }
    if reads.is_empty() {
        Shape::Ops(Vec::new())
    } else {
        Shape::Struct(reads)
    }
}

/// Keys of a struct literal body whose value expression reads from `r`.
/// Shorthand keys (`{ times, values }`) refer to earlier `let` reads and
/// are skipped to avoid double counting.
fn collect_literal_keys(inner: &[Token], reads: &mut Vec<String>) {
    let mut i = 0;
    while i < inner.len() {
        let Some(TokenKind::Ident(key)) = inner.get(i).map(|t| &t.kind) else {
            i += 1;
            continue;
        };
        let is_keyed = inner.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && !inner.get(i + 2).is_some_and(|t| t.is_punct(':'));
        if !is_keyed {
            i += 1;
            continue;
        }
        let key = key.clone();
        // The value expression runs to the next `,` at delimiter depth 0.
        let mut depth = 0i32;
        let mut end = i + 2;
        while end < inner.len() {
            match &inner[end].kind {
                TokenKind::Punct('(' | '[' | '{') => depth += 1,
                TokenKind::Punct(')' | ']' | '}') => depth -= 1,
                TokenKind::Punct(',') if depth == 0 => break,
                _ => {}
            }
            end += 1;
        }
        if inner[i + 2..end].iter().any(|t| t.is_ident("r")) {
            reads.push(key);
        }
        i = end + 1;
    }
}

/// Split a match body into `(pattern, body)` arm slices at delimiter
/// depth 0, using the `=>` separators.
fn split_arms(body: &[Token]) -> Vec<(&[Token], &[Token])> {
    let mut arms = Vec::new();
    let mut i = 0;
    while i < body.len() {
        // Pattern: tokens up to `=>`.
        let pat_start = i;
        let mut depth = 0i32;
        while i < body.len() {
            match &body[i].kind {
                TokenKind::Punct('(' | '[' | '{') => depth += 1,
                TokenKind::Punct(')' | ']' | '}') => depth -= 1,
                TokenKind::Punct('=')
                    if depth == 0 && body.get(i + 1).is_some_and(|t| t.is_punct('>')) =>
                {
                    break;
                }
                _ => {}
            }
            i += 1;
        }
        if i >= body.len() {
            break;
        }
        let pattern = &body[pat_start..i];
        i += 2; // past `=>`
        // Body: to the `,` at depth 0 (or a balanced `{…}` block).
        let body_start = i;
        let mut depth = 0i32;
        while i < body.len() {
            match &body[i].kind {
                TokenKind::Punct('(' | '[' | '{') => depth += 1,
                TokenKind::Punct(')' | ']' | '}') => {
                    depth -= 1;
                    if depth == 0 && body[i].is_punct('}') && body[body_start].is_punct('{') {
                        i += 1;
                        break;
                    }
                }
                TokenKind::Punct(',') if depth == 0 => break,
                _ => {}
            }
            i += 1;
        }
        arms.push((pattern, &body[body_start..i]));
        if i < body.len() && body[i].is_punct(',') {
            i += 1;
        }
    }
    arms
}

/// Variant name of an arm pattern: the ident after the last `::`, or the
/// first ident for unqualified patterns (`None`, `Some(v)`).
fn pattern_name(pattern: &[Token]) -> String {
    let mut name = String::new();
    for i in 0..pattern.len() {
        if let TokenKind::Ident(s) = &pattern[i].kind {
            if name.is_empty() {
                name = s.clone();
            }
            if i >= 2 && pattern[i - 1].is_punct(':') && pattern[i - 2].is_punct(':') {
                name = s.clone();
            }
        }
    }
    name
}

/// The numeric literal of an `out.push(N)` inside an arm body.
fn find_push_literal(body: &[Token]) -> Option<String> {
    for i in 0..body.len() {
        if body[i].is_ident("push")
            && body.get(i + 1).is_some_and(|t| t.is_punct('('))
            && body.get(i + 3).is_some_and(|t| t.is_punct(')'))
        {
            if let Some(n) = body.get(i + 2).and_then(|t| t.num()) {
                return Some(n.to_string());
            }
        }
    }
    None
}

// --------------------------------------------------------------- the lock

/// Container versions parsed from the sources: the declarations
/// `const SNAPSHOT_VERSION: u32 = N` and
/// `const WAL_HEADER: &str = "WEBEVO-WAL N"` (uses of the names, which may
/// sit next to unrelated literals, are not declarations).
pub fn wire_versions(ws: &Workspace) -> (u32, u32) {
    let mut snapshot = 0;
    let mut wal = 0;
    for (_, file) in ws.files() {
        let tokens = file.tokens();
        for i in 1..tokens.len() {
            if !tokens[i - 1].is_ident("const") {
                continue;
            }
            if tokens[i].is_ident("SNAPSHOT_VERSION") {
                for t in tokens.iter().skip(i).take(8) {
                    if let Some(n) = t.num().and_then(|n| n.parse::<u32>().ok()) {
                        snapshot = n;
                        break;
                    }
                }
            }
            if tokens[i].is_ident("WAL_HEADER") {
                for t in tokens.iter().skip(i).take(8) {
                    if let TokenKind::Str(s) = &t.kind {
                        if let Some(n) = s.strip_prefix("WEBEVO-WAL ") {
                            if let Ok(n) = n.trim().parse::<u32>() {
                                wal = n;
                            }
                        }
                        break;
                    }
                }
            }
        }
    }
    (snapshot, wal)
}

fn render_shape(shape: &Shape) -> String {
    match shape {
        Shape::Struct(fields) => format!("struct {}", fields.join(" ")),
        Shape::Enum(arms) => {
            let rendered: Vec<String> = arms
                .iter()
                .map(|a| {
                    if a.subops > 0 {
                        format!("{}={}({})", a.name, a.tag, a.subops)
                    } else {
                        format!("{}={}", a.name, a.tag)
                    }
                })
                .collect();
            format!("enum {}", rendered.join(" "))
        }
        Shape::Ops(ops) => {
            if ops.is_empty() {
                "ops -".to_string()
            } else {
                format!("ops {}", ops.iter().map(|o| o.word()).collect::<Vec<_>>().join(" "))
            }
        }
    }
}

/// Render the canonical lock text for the workspace (header comment,
/// `format` line, then one line per encoded type, key-sorted).
pub fn render_lock(ws: &Workspace) -> String {
    let types = extract(ws);
    let (snapshot, wal) = wire_versions(ws);
    let mut out = String::from(
        "# SCHEMA.lock — canonical wire-format schema, derived from the BinEncode\n\
         # impls by `repro analyze`. Regenerate with:\n\
         #   cargo run -p webevo-bench --bin repro -- analyze --update-schema\n\
         # Every line here is byte layout: a reorder, addition, or removal must\n\
         # ship with a SNAPSHOT_VERSION / WAL_HEADER bump in webevo-store.\n",
    );
    let _ = writeln!(out, "format snapshot={snapshot} wal={wal}");
    for (key, schema) in &types {
        if let Some(enc) = &schema.encode {
            let _ = writeln!(out, "{key} {}", render_shape(&enc.shape));
        }
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

/// Run the schema analysis: symmetry checks plus lock-drift detection.
/// `lock` is the current `SCHEMA.lock` contents, if the file exists.
pub fn check(ws: &Workspace, lock: Option<&str>, findings: &mut Vec<Finding>) {
    let types = extract(ws);
    for (key, schema) in &types {
        check_symmetry(key, schema, findings);
    }
    if types.is_empty() {
        return;
    }
    let current = render_lock(ws);
    let Some(lock) = lock else {
        findings.push(Finding::new(
            Lint::Schema,
            Severity::Error,
            "SCHEMA.lock",
            0,
            "SCHEMA.lock is missing — generate it with `repro analyze --update-schema` \
             and check it in",
        ));
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
        "the container version did not change — bump SNAPSHOT_VERSION/WAL_HEADER in \
         webevo-store if the byte layout changed, then regenerate SCHEMA.lock with \
         `repro analyze --update-schema`"
    } else {
        "the container version changed — regenerate SCHEMA.lock with \
         `repro analyze --update-schema` so the lock matches"
    };
    let mut keys: Vec<&String> = cur_map.keys().chain(lock_map.keys()).collect();
    keys.sort();
    keys.dedup();
    for key in keys {
        let (file, line) = types
            .get(key)
            .and_then(|s| s.encode.as_ref())
            .map(|e| (e.file.clone(), e.line))
            .unwrap_or_else(|| ("SCHEMA.lock".to_string(), 0));
        match (lock_map.get(key), cur_map.get(key)) {
            (Some(old), Some(new)) if old != new => {
                findings.push(Finding::new(
                    Lint::Schema,
                    Severity::Error,
                    file,
                    line,
                    format!("wire format of `{key}` drifted from SCHEMA.lock:\n  locked:  {old}\n  current: {new}\n{hint}"),
                ));
            }
            (None, Some(new)) if key != "format" => {
                findings.push(Finding::new(
                    Lint::Schema,
                    Severity::Error,
                    file,
                    line,
                    format!("`{key}` is encoded but absent from SCHEMA.lock ({new}) — {hint}"),
                ));
            }
            (Some(old), None) if key != "format" => {
                findings.push(Finding::new(
                    Lint::Schema,
                    Severity::Error,
                    file,
                    line,
                    format!("`{key}` is in SCHEMA.lock ({old}) but no longer encoded — {hint}"),
                ));
            }
            _ => {}
        }
    }
}

fn check_symmetry(key: &str, schema: &TypeSchema, findings: &mut Vec<Finding>) {
    let (enc, dec) = match (&schema.encode, &schema.decode) {
        (Some(e), Some(d)) => (e, d),
        (Some(e), None) => {
            findings.push(Finding::new(
                Lint::Schema,
                Severity::Error,
                &e.file,
                e.line,
                format!("`{key}` implements BinEncode but has no BinDecode — every \
                         encoded type must round-trip"),
            ));
            return;
        }
        (None, Some(d)) => {
            findings.push(Finding::new(
                Lint::Schema,
                Severity::Error,
                &d.file,
                d.line,
                format!("`{key}` implements BinDecode but has no BinEncode — every \
                         decoded type must round-trip"),
            ));
            return;
        }
        (None, None) => return,
    };
    match (&enc.shape, &dec.shape) {
        (Shape::Struct(ef), Shape::Struct(df)) if ef != df => {
            findings.push(Finding::new(
                Lint::Schema,
                Severity::Error,
                &dec.file,
                dec.line,
                format!(
                    "`{key}` encode/decode field order mismatch:\n  encode: {}\n  decode: {}\n\
                     fields must be read back in exactly the order they are written",
                    ef.join(" "),
                    df.join(" ")
                ),
            ));
        }
        (Shape::Enum(ea), Shape::Enum(da)) => {
            let emap: BTreeMap<&str, usize> =
                ea.iter().map(|a| (a.tag.as_str(), a.subops)).collect();
            let dmap: BTreeMap<&str, usize> =
                da.iter().map(|a| (a.tag.as_str(), a.subops)).collect();
            for (tag, subs) in &emap {
                match dmap.get(tag) {
                    None => findings.push(Finding::new(
                        Lint::Schema,
                        Severity::Error,
                        &dec.file,
                        dec.line,
                        format!("`{key}` encodes tag {tag} but decode has no arm for it"),
                    )),
                    Some(d) if d != subs => findings.push(Finding::new(
                        Lint::Schema,
                        Severity::Error,
                        &dec.file,
                        dec.line,
                        format!(
                            "`{key}` tag {tag}: encode writes {subs} operand(s) but \
                             decode reads {d}"
                        ),
                    )),
                    _ => {}
                }
            }
            for tag in dmap.keys() {
                if !emap.contains_key(tag) {
                    findings.push(Finding::new(
                        Lint::Schema,
                        Severity::Error,
                        &enc.file,
                        enc.line,
                        format!("`{key}` decodes tag {tag} but encode never writes it"),
                    ));
                }
            }
        }
        // Mixed or opaque shapes: symmetry can't be judged by name; the
        // lock still pins the encode-side layout.
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::{CrateSources, SourceFile, Workspace};

    fn ws(src: &str) -> Workspace {
        Workspace::from_sources(vec![CrateSources::new(
            "x",
            vec![SourceFile::new("crates/x/src/lib.rs", src)],
        )])
    }

    const STRUCT_PAIR: &str = "
        impl BinEncode for Point {
            fn bin_encode(&self, out: &mut Vec<u8>) {
                self.x.bin_encode(out);
                self.y.bin_encode(out);
            }
        }
        impl BinDecode for Point {
            fn bin_decode(r: &mut BinReader<'_>) -> Result<Point, BinError> {
                Ok(Point { x: u64::bin_decode(r)?, y: u64::bin_decode(r)? })
            }
        }
    ";

    #[test]
    fn struct_pair_extracts_and_matches() {
        let types = extract(&ws(STRUCT_PAIR));
        let t = &types["x::Point"];
        assert_eq!(
            t.encode.as_ref().unwrap().shape,
            Shape::Struct(vec!["x".into(), "y".into()])
        );
        assert_eq!(
            t.decode.as_ref().unwrap().shape,
            Shape::Struct(vec!["x".into(), "y".into()])
        );
        let mut findings = Vec::new();
        for (k, s) in &types {
            check_symmetry(k, s, &mut findings);
        }
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn swapped_decode_order_is_an_error() {
        let src = STRUCT_PAIR.replace(
            "x: u64::bin_decode(r)?, y: u64::bin_decode(r)?",
            "y: u64::bin_decode(r)?, x: u64::bin_decode(r)?",
        );
        let types = extract(&ws(&src));
        let mut findings = Vec::new();
        for (k, s) in &types {
            check_symmetry(k, s, &mut findings);
        }
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("field order mismatch"));
    }

    #[test]
    fn enum_pair_tags_and_operands() {
        let src = "
            impl BinEncode for E {
                fn bin_encode(&self, out: &mut Vec<u8>) {
                    match self {
                        E::A => out.push(0),
                        E::B { n } => {
                            out.push(1);
                            n.bin_encode(out);
                        }
                    }
                }
            }
            impl BinDecode for E {
                fn bin_decode(r: &mut BinReader<'_>) -> Result<E, BinError> {
                    match r.byte()? {
                        0 => Ok(E::A),
                        1 => Ok(E::B { n: u64::bin_decode(r)? }),
                        other => Err(BinError::new(format!(\"bad tag {other}\"))),
                    }
                }
            }
        ";
        let types = extract(&ws(src));
        let t = &types["x::E"];
        match &t.encode.as_ref().unwrap().shape {
            Shape::Enum(arms) => {
                assert_eq!(arms.len(), 2);
                assert_eq!(arms[0], Arm { name: "A".into(), tag: "0".into(), subops: 0 });
                assert_eq!(arms[1], Arm { name: "B".into(), tag: "1".into(), subops: 1 });
            }
            other => panic!("{other:?}"),
        }
        let mut findings = Vec::new();
        for (k, s) in &types {
            check_symmetry(k, s, &mut findings);
        }
        assert!(findings.is_empty(), "{findings:?}");

        // Drop decode's arm 1 → asymmetry.
        let broken = src.replace("1 => Ok(E::B { n: u64::bin_decode(r)? }),", "");
        let types = extract(&ws(&broken));
        let mut findings = Vec::new();
        for (k, s) in &types {
            check_symmetry(k, s, &mut findings);
        }
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("no arm"), "{findings:?}");
    }

    #[test]
    fn push_match_idiom_parses() {
        let src = "
            impl BinEncode for K {
                fn bin_encode(&self, out: &mut Vec<u8>) {
                    out.push(match self {
                        K::P => 0,
                        K::Q => 1,
                    });
                }
            }
        ";
        let types = extract(&ws(src));
        match &types["x::K"].encode.as_ref().unwrap().shape {
            Shape::Enum(arms) => {
                assert_eq!(arms.iter().map(|a| a.tag.as_str()).collect::<Vec<_>>(), ["0", "1"]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn missing_counterpart_is_an_error() {
        let src = "
            impl BinEncode for Lonely {
                fn bin_encode(&self, out: &mut Vec<u8>) { self.a.bin_encode(out); }
            }
        ";
        let types = extract(&ws(src));
        let mut findings = Vec::new();
        for (k, s) in &types {
            check_symmetry(k, s, &mut findings);
        }
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("no BinDecode"), "{findings:?}");
    }

    #[test]
    fn lock_drift_detected_and_versions_parsed() {
        let src = format!(
            "pub const SNAPSHOT_VERSION: u32 = 3;\n\
             pub const WAL_HEADER: &str = \"WEBEVO-WAL 2\";\n\
             fn f() {{ g(SNAPSHOT_VERSION, 256 * 1024, WAL_HEADER, \"WEBEVO-WAL 7\"); }}\n\
             {STRUCT_PAIR}"
        );
        let workspace = ws(&src);
        // Only the declarations count, not a use next to another literal.
        assert_eq!(wire_versions(&workspace), (3, 2));
        let lock = render_lock(&workspace);
        assert!(lock.contains("format snapshot=3 wal=2"), "{lock}");
        assert!(lock.contains("x::Point struct x y"), "{lock}");

        // Unchanged lock: clean.
        let mut findings = Vec::new();
        check(&workspace, Some(&lock), &mut findings);
        assert!(findings.is_empty(), "{findings:?}");

        // Reorder the encode fields without a version bump: drift error.
        let drifted = src.replace(
            "self.x.bin_encode(out);\n                self.y.bin_encode(out);",
            "self.y.bin_encode(out);\n                self.x.bin_encode(out);",
        );
        let workspace2 = ws(&drifted);
        let mut findings = Vec::new();
        check(&workspace2, Some(&lock), &mut findings);
        let drift: Vec<_> = findings
            .iter()
            .filter(|f| f.message.contains("drifted from SCHEMA.lock"))
            .collect();
        assert_eq!(drift.len(), 1, "{findings:?}");
        assert!(drift[0].message.contains("version did not change"), "{findings:?}");
    }

    #[test]
    fn missing_lock_is_an_error() {
        let mut findings = Vec::new();
        check(&ws(STRUCT_PAIR), None, &mut findings);
        assert!(
            findings.iter().any(|f| f.message.contains("SCHEMA.lock is missing")),
            "{findings:?}"
        );
    }
}
