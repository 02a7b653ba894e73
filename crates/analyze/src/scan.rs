//! Source loading and the token scanner every analysis is built on.
//!
//! The scanner is deliberately not a Rust parser: it lexes a source file
//! into a flat token stream with comments stripped and string/char literals
//! collapsed into single tokens, which is exactly enough to pattern-match
//! the constructs the lints care about (`HashMap`, `Instant::now`,
//! `wire_struct!(Type { … })`) without ever matching text inside a comment or
//! a string literal — the failure mode that makes `grep`-based gates cry
//! wolf. Test modules (`#[cfg(test)] mod … { … }`) are marked so lints can
//! skip them: test code may use unordered maps and wall clocks freely.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One lexed token with its 1-based source line.
#[derive(Clone, Debug, PartialEq)]
pub struct Token {
    /// What kind of token this is (and its text where relevant).
    pub kind: TokenKind,
    /// 1-based line the token starts on.
    pub line: usize,
    /// True when the token sits inside a `#[cfg(test)]` module.
    pub in_test: bool,
}

/// Token classification. Only the distinctions the analyses need.
#[derive(Clone, Debug, PartialEq)]
pub enum TokenKind {
    /// Identifier or keyword.
    Ident(String),
    /// Numeric literal (integer or float), verbatim.
    Num(String),
    /// A single punctuation character.
    Punct(char),
    /// String literal (normal or raw), with its unquoted content.
    Str(String),
    /// Character literal (content dropped; never matched against).
    Char,
    /// Lifetime such as `'a`.
    Lifetime,
}

impl Token {
    /// The identifier text, if this is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokenKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// True if this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        matches!(&self.kind, TokenKind::Ident(i) if i == s)
    }

    /// True if this token is the punctuation `c`.
    pub fn is_punct(&self, c: char) -> bool {
        matches!(self.kind, TokenKind::Punct(p) if p == c)
    }

    /// The numeric literal text, if this is a number.
    pub fn num(&self) -> Option<&str> {
        match &self.kind {
            TokenKind::Num(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            TokenKind::Ident(s) | TokenKind::Num(s) => f.write_str(s),
            TokenKind::Punct(c) => write!(f, "{c}"),
            TokenKind::Str(_) => f.write_str("\"…\""),
            TokenKind::Char => f.write_str("'…'"),
            TokenKind::Lifetime => f.write_str("'_"),
        }
    }
}

/// A source file addressed relative to the workspace root.
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root, e.g. `crates/core/src/state.rs`.
    pub rel_path: String,
    /// The file's full text.
    pub text: String,
}

impl SourceFile {
    /// Build a source file from a path and its contents.
    pub fn new(rel_path: impl Into<String>, text: impl Into<String>) -> SourceFile {
        SourceFile { rel_path: rel_path.into(), text: text.into() }
    }

    /// Lex this file. Never fails: unterminated constructs consume to EOF.
    pub fn tokens(&self) -> Vec<Token> {
        let mut tokens = lex(&self.text);
        mark_test_regions(&mut tokens);
        tokens
    }
}

/// The sources of one crate plus its optional `ANALYZE.allow` text.
#[derive(Clone, Debug)]
pub struct CrateSources {
    /// The crate's directory name under `crates/`, e.g. `core`.
    pub name: String,
    /// All `.rs` files under the crate's `src/`.
    pub files: Vec<SourceFile>,
    /// Raw text of `crates/<name>/ANALYZE.allow`, when present.
    pub allow: Option<String>,
}

impl CrateSources {
    /// Build a crate's sources in memory (used by tests and doctests).
    pub fn new(name: impl Into<String>, files: Vec<SourceFile>) -> CrateSources {
        CrateSources { name: name.into(), files, allow: None }
    }

    /// Attach allowlist text (the contents of `ANALYZE.allow`).
    pub fn with_allow(mut self, allow: impl Into<String>) -> CrateSources {
        self.allow = Some(allow.into());
        self
    }
}

/// Every crate the analyzer will look at.
#[derive(Clone, Debug, Default)]
pub struct Workspace {
    /// Crates in ascending name order.
    pub crates: Vec<CrateSources>,
}

impl Workspace {
    /// Build a workspace from in-memory sources (tests, doctests).
    pub fn from_sources(mut crates: Vec<CrateSources>) -> Workspace {
        crates.sort_by(|a, b| a.name.cmp(&b.name));
        Workspace { crates }
    }

    /// All files across all crates, each with its owning crate name.
    pub fn files(&self) -> impl Iterator<Item = (&str, &SourceFile)> {
        self.crates
            .iter()
            .flat_map(|c| c.files.iter().map(move |f| (c.name.as_str(), f)))
    }
}

/// Load every crate under `<root>/crates/` — all `.rs` files beneath each
/// crate's `src/` (recursively, so `src/bin/` is included) plus its
/// `ANALYZE.allow` when present. Files are sorted by path so every run
/// sees the same order.
pub fn scan_workspace(root: &Path) -> io::Result<Workspace> {
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("{} has no crates/ directory — not a workspace root", root.display()),
        ));
    }
    let mut crates = Vec::new();
    let mut dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    for dir in dirs {
        let name = dir
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        let mut files = Vec::new();
        collect_rs_files(&dir.join("src"), root, &mut files)?;
        files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
        let allow = fs::read_to_string(dir.join("ANALYZE.allow")).ok();
        crates.push(CrateSources { name, files, allow });
    }
    Ok(Workspace { crates })
}

fn collect_rs_files(dir: &Path, root: &Path, out: &mut Vec<SourceFile>) -> io::Result<()> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Ok(()); // a crate without src/ contributes nothing
    };
    for entry in entries {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(SourceFile { rel_path: rel, text: fs::read_to_string(&path)? });
        }
    }
    Ok(())
}

// --------------------------------------------------------------- the lexer

fn lex(text: &str) -> Vec<Token> {
    let bytes = text.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    let mut line = 1;
    let push = |tokens: &mut Vec<Token>, kind: TokenKind, line: usize| {
        tokens.push(Token { kind, line, in_test: false });
    };
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b if b.is_ascii_whitespace() => i += 1,
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                // Block comments nest in Rust.
                let mut depth = 1;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            b'r' | b'b'
                if is_raw_string_start(bytes, i) =>
            {
                let (content, consumed, newlines) = lex_raw_string(bytes, i);
                push(&mut tokens, TokenKind::Str(content), line);
                line += newlines;
                i += consumed;
            }
            b'b' if bytes.get(i + 1) == Some(&b'"') => {
                let (content, consumed, newlines) = lex_string(bytes, i + 1);
                push(&mut tokens, TokenKind::Str(content), line);
                line += newlines;
                i += 1 + consumed;
            }
            b'"' => {
                let (content, consumed, newlines) = lex_string(bytes, i);
                push(&mut tokens, TokenKind::Str(content), line);
                line += newlines;
                i += consumed;
            }
            b'\'' => {
                // Lifetime (`'a`) vs char literal (`'a'`, `'\n'`).
                let mut j = i + 1;
                if bytes.get(j) == Some(&b'\\') {
                    // Definitely a char literal with an escape.
                    j += 2;
                    while j < bytes.len() && bytes[j] != b'\'' {
                        j += 1;
                    }
                    push(&mut tokens, TokenKind::Char, line);
                    i = j + 1;
                } else {
                    // Consume the identifier-ish run after the quote.
                    let start = j;
                    while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_')
                    {
                        j += 1;
                    }
                    if bytes.get(j) == Some(&b'\'') && j > start {
                        push(&mut tokens, TokenKind::Char, line);
                        i = j + 1;
                    } else if bytes.get(i + 1).is_some_and(|c| !c.is_ascii_alphanumeric() && *c != b'_') && bytes.get(i + 2) == Some(&b'\'') {
                        // 'x' where x is punctuation, e.g. '\''-free "','"
                        push(&mut tokens, TokenKind::Char, line);
                        i += 3;
                    } else {
                        push(&mut tokens, TokenKind::Lifetime, line);
                        i = j;
                    }
                }
            }
            b if b.is_ascii_alphabetic() || b == b'_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                let text = String::from_utf8_lossy(&bytes[start..i]).into_owned();
                push(&mut tokens, TokenKind::Ident(text), line);
            }
            b if b.is_ascii_digit() => {
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' || bytes[i] == b'.')
                {
                    // `0..n` range: stop before a second consecutive dot.
                    if bytes[i] == b'.' && bytes.get(i + 1) == Some(&b'.') {
                        break;
                    }
                    i += 1;
                }
                let text = String::from_utf8_lossy(&bytes[start..i]).into_owned();
                push(&mut tokens, TokenKind::Num(text), line);
            }
            _ => {
                // Multi-byte UTF-8 punctuation is irrelevant to every lint;
                // consume the full code point but record only ASCII.
                let ch = text[i..].chars().next().unwrap_or('\u{fffd}');
                push(&mut tokens, TokenKind::Punct(if ch.is_ascii() { ch } else { '\u{fffd}' }), line);
                i += ch.len_utf8();
            }
        }
    }
    tokens
}

fn is_raw_string_start(bytes: &[u8], i: usize) -> bool {
    // r"..."  r#"..."#  br"..."  br#"..."#
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
    }
    if bytes.get(j) != Some(&b'r') {
        return false;
    }
    j += 1;
    while bytes.get(j) == Some(&b'#') {
        j += 1;
    }
    bytes.get(j) == Some(&b'"')
}

fn lex_raw_string(bytes: &[u8], start: usize) -> (String, usize, usize) {
    let mut j = start;
    if bytes[j] == b'b' {
        j += 1;
    }
    j += 1; // 'r'
    let mut hashes = 0;
    while bytes.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    j += 1; // opening quote
    let content_start = j;
    let mut newlines = 0;
    while j < bytes.len() {
        if bytes[j] == b'\n' {
            newlines += 1;
        }
        if bytes[j] == b'"' {
            let mut k = j + 1;
            let mut seen = 0;
            while seen < hashes && bytes.get(k) == Some(&b'#') {
                seen += 1;
                k += 1;
            }
            if seen == hashes {
                let content =
                    String::from_utf8_lossy(&bytes[content_start..j]).into_owned();
                return (content, k - start, newlines);
            }
        }
        j += 1;
    }
    (String::from_utf8_lossy(&bytes[content_start..]).into_owned(), bytes.len() - start, newlines)
}

fn lex_string(bytes: &[u8], start: usize) -> (String, usize, usize) {
    // `start` points at the opening quote. Returns (content, consumed, newlines).
    let mut j = start + 1;
    let mut newlines = 0;
    let content_start = j;
    while j < bytes.len() {
        match bytes[j] {
            b'\\' => j += 2,
            b'\n' => {
                newlines += 1;
                j += 1;
            }
            b'"' => {
                let content =
                    String::from_utf8_lossy(&bytes[content_start..j]).into_owned();
                return (content, j + 1 - start, newlines);
            }
            _ => j += 1,
        }
    }
    (String::from_utf8_lossy(&bytes[content_start..]).into_owned(), bytes.len() - start, newlines)
}

/// Mark every token inside a `#[cfg(test)]`-gated item (normally the
/// `mod tests { … }` block) with `in_test = true`.
fn mark_test_regions(tokens: &mut [Token]) {
    let mut i = 0;
    while i < tokens.len() {
        if is_cfg_test_attr(tokens, i) {
            // Skip past the attribute's closing `]`, then mark the
            // following item's braced body.
            let mut j = i;
            while j < tokens.len() && !tokens[j].is_punct(']') {
                j += 1;
            }
            j += 1;
            // Find the item's opening brace (skipping e.g. `mod tests`,
            // `fn foo()` headers) at angle/paren depth 0.
            while j < tokens.len() && !tokens[j].is_punct('{') {
                if tokens[j].is_punct(';') {
                    // `#[cfg(test)] mod tests;` — body is another file,
                    // which lives under src/ and is scanned on its own.
                    break;
                }
                j += 1;
            }
            if j < tokens.len() && tokens[j].is_punct('{') {
                let mut depth = 0;
                while j < tokens.len() {
                    if tokens[j].is_punct('{') {
                        depth += 1;
                    } else if tokens[j].is_punct('}') {
                        depth -= 1;
                        if depth == 0 {
                            tokens[j].in_test = true;
                            break;
                        }
                    }
                    tokens[j].in_test = true;
                    j += 1;
                }
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
}

fn is_cfg_test_attr(tokens: &[Token], i: usize) -> bool {
    // `# [ cfg ( test ) ]` — exact sequence, any line.
    tokens.get(i).is_some_and(|t| t.is_punct('#'))
        && tokens.get(i + 1).is_some_and(|t| t.is_punct('['))
        && tokens.get(i + 2).is_some_and(|t| t.is_ident("cfg"))
        && tokens.get(i + 3).is_some_and(|t| t.is_punct('('))
        && tokens.get(i + 4).is_some_and(|t| t.is_ident("test"))
        && tokens.get(i + 5).is_some_and(|t| t.is_punct(')'))
        && tokens.get(i + 6).is_some_and(|t| t.is_punct(']'))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        SourceFile::new("t.rs", src)
            .tokens()
            .into_iter()
            .filter_map(|t| t.ident().map(str::to_string))
            .collect()
    }

    #[test]
    fn comments_and_strings_do_not_leak_idents() {
        let src = r##"
            // HashMap in a line comment
            /* HashMap in /* a nested */ block */
            let s = "HashMap in a string";
            let r = r#"HashMap raw"#;
            let c = 'H';
            fn real() { let m: BTreeMap<u32, u32> = BTreeMap::new(); }
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"HashMap".to_string()), "{ids:?}");
        assert!(ids.contains(&"BTreeMap".to_string()));
    }

    #[test]
    fn string_contents_are_retained_on_the_token() {
        let toks = SourceFile::new("t.rs", "let h = \"WEBEVO-WAL 2\";").tokens();
        assert!(toks
            .iter()
            .any(|t| matches!(&t.kind, TokenKind::Str(s) if s == "WEBEVO-WAL 2")));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = SourceFile::new("t.rs", "fn f<'a>(x: &'a str) -> &'a str { x }").tokens();
        let lifetimes = toks.iter().filter(|t| t.kind == TokenKind::Lifetime).count();
        assert_eq!(lifetimes, 3);
    }

    #[test]
    fn lines_are_tracked() {
        let toks = SourceFile::new("t.rs", "a\nb\n  c").tokens();
        let lines: Vec<usize> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 3]);
    }

    #[test]
    fn cfg_test_modules_are_marked() {
        let src = "
            fn live() { x.unwrap(); }
            #[cfg(test)]
            mod tests {
                fn t() { y.unwrap(); }
            }
            fn live2() {}
        ";
        let toks = SourceFile::new("t.rs", src).tokens();
        let unwraps: Vec<bool> = toks
            .iter()
            .filter(|t| t.is_ident("unwrap"))
            .map(|t| t.in_test)
            .collect();
        assert_eq!(unwraps, vec![false, true]);
        let live2 = toks.iter().find(|t| t.is_ident("live2")).unwrap();
        assert!(!live2.in_test, "tokens after the test module are live again");
    }
}
