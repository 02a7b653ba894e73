//! End-to-end tests for the static-analysis gate: seeded-violation
//! fixtures (each must fire its lint), the schema lock-drift contract,
//! and the real workspace (which must be clean against the checked-in
//! `SCHEMA.lock`).

use webevo_analyze::scan::{CrateSources, SourceFile, Workspace};
use webevo_analyze::{analyze, schema, AnalyzeConfig, Lint, Severity};

/// One fixture crate named `name`, with `#![forbid(unsafe_code)]` in its
/// root and `body` appended to `src/lib.rs`.
fn fixture(name: &str, body: &str) -> Workspace {
    fixture_with_allow(name, body, None)
}

fn fixture_with_allow(name: &str, body: &str, allow: Option<&str>) -> Workspace {
    let lib = SourceFile::new(
        format!("crates/{name}/src/lib.rs"),
        format!("#![forbid(unsafe_code)]\n{body}"),
    );
    let mut krate = CrateSources::new(name, vec![lib]);
    if let Some(a) = allow {
        krate = krate.with_allow(a);
    }
    Workspace::from_sources(vec![krate])
}

fn run(ws: &Workspace, lock: Option<&str>) -> Vec<webevo_analyze::Finding> {
    analyze(ws, &AnalyzeConfig::workspace_default(), lock)
}

fn fired(findings: &[webevo_analyze::Finding], lint: Lint) -> bool {
    findings.iter().any(|f| f.lint == lint)
}

// ------------------------------------------------ seeded determinism lints

#[test]
fn seeded_hashmap_on_serialized_path_fires() {
    let ws = fixture(
        "store",
        "use std::collections::HashMap;\n\
         pub struct Index { pages: HashMap<u64, u32> }\n",
    );
    let f = run(&ws, None);
    assert!(fired(&f, Lint::UnorderedMap), "{f:?}");
    assert!(f.iter().any(|f| f.severity >= Severity::Warning));
}

#[test]
fn seeded_wall_clock_in_engine_fires() {
    let ws = fixture(
        "core",
        "use std::time::Instant;\n\
         pub fn step() { let _t = Instant::now(); }\n",
    );
    let f = run(&ws, None);
    assert!(fired(&f, Lint::WallClock), "{f:?}");
}

#[test]
fn seeded_thread_spawn_fires() {
    let ws = fixture(
        "schedule",
        "pub fn go() { std::thread::spawn(|| {}); }\n",
    );
    let f = run(&ws, None);
    assert!(fired(&f, Lint::RawThreadSpawn), "{f:?}");
}

#[test]
fn seeded_missing_forbid_unsafe_fires_as_error() {
    let lib = SourceFile::new("crates/stats/src/lib.rs", "pub fn f() {}\n");
    let ws = Workspace::from_sources(vec![CrateSources::new("stats", vec![lib])]);
    let f = run(&ws, None);
    assert!(
        f.iter()
            .any(|f| f.lint == Lint::MissingForbidUnsafe && f.severity == Severity::Error),
        "{f:?}"
    );
}

#[test]
fn seeded_panic_budget_overrun_fires() {
    let body = "pub fn f(v: Vec<u32>) -> u32 { *v.first().unwrap() + *v.last().unwrap() }\n";
    let over = fixture_with_allow(
        "core",
        body,
        Some("panic-budget src/lib.rs 1 -- one guarded site\n"),
    );
    let f = run(&over, None);
    assert!(
        f.iter()
            .any(|f| f.lint == Lint::PanicBudget && f.severity == Severity::Error),
        "{f:?}"
    );

    // At-budget is silent; under-budget is a ratchet-down note, not a failure.
    let exact = fixture_with_allow(
        "core",
        body,
        Some("panic-budget src/lib.rs 2 -- two guarded sites\n"),
    );
    assert!(run(&exact, None).is_empty());
    let under = fixture_with_allow(
        "core",
        body,
        Some("panic-budget src/lib.rs 3 -- stale budget\n"),
    );
    let f = run(&under, None);
    assert!(
        f.iter()
            .all(|f| f.lint == Lint::PanicBudget && f.severity == Severity::Note),
        "{f:?}"
    );
    assert_eq!(f.len(), 1);
}

#[test]
fn seeded_exemption_without_justification_fires() {
    let ws = fixture_with_allow(
        "core",
        "use std::collections::HashMap;\n",
        Some("unordered-map src/lib.rs\n"),
    );
    let f = run(&ws, None);
    assert!(
        f.iter()
            .any(|f| f.lint == Lint::Allowlist && f.severity == Severity::Error),
        "{f:?}"
    );
}

// ------------------------------------------------------- schema contract

/// A fixture store crate declaring a two-field wire struct in `fields`
/// order, so tests can seed reorders; `snapshot` is the container version
/// constant.
fn wire_crate(fields: [&str; 2], snapshot: u32) -> Workspace {
    let lib = format!(
        "#![forbid(unsafe_code)]\n\
         pub const SNAPSHOT_VERSION: u32 = {snapshot};\n\
         pub const WAL_HEADER: &str = \"WEBEVO-WAL 2\";\n\
         pub const MANIFEST_VERSION: u32 = 2;\n\
         pub struct Page {{ pub url: u64, pub rank: u64 }}\n\
         wire_struct!(Page {{ {f0}, {f1} }});\n",
        f0 = fields[0],
        f1 = fields[1],
    );
    let lib = SourceFile::new("crates/store/src/lib.rs", lib);
    Workspace::from_sources(vec![CrateSources::new("store", vec![lib])])
}

#[test]
fn wire_fixture_round_trips_into_the_lock() {
    let ws = wire_crate(["url", "rank"], 3);
    let lock = schema::render_lock(&ws);
    assert!(lock.contains("format snapshot=3 wal=2 manifest=2"), "{lock}");
    assert!(lock.contains("store::Page struct url rank"), "{lock}");
    // A workspace checked against its own freshly rendered lock is clean.
    assert!(run(&ws, Some(&lock)).is_empty());
}

#[test]
fn seeded_field_reorder_without_version_bump_fails_against_lock() {
    let lock = schema::render_lock(&wire_crate(["url", "rank"], 3));
    // Someone swaps the two declared fields but leaves SNAPSHOT_VERSION
    // alone: the byte layout changed silently.
    let reordered = wire_crate(["rank", "url"], 3);
    let f = run(&reordered, Some(&lock));
    let drift: Vec<_> = f.iter().filter(|f| f.lint == Lint::Schema).collect();
    assert_eq!(drift.len(), 1, "{f:?}");
    assert_eq!(drift[0].severity, Severity::Error);
    assert!(drift[0].message.contains("drifted"), "{}", drift[0].message);
    assert!(
        drift[0].message.contains("bump SNAPSHOT_VERSION"),
        "no version-bump hint: {}",
        drift[0].message
    );
}

#[test]
fn seeded_field_reorder_with_version_bump_points_at_regeneration() {
    let lock = schema::render_lock(&wire_crate(["url", "rank"], 3));
    let bumped = wire_crate(["rank", "url"], 4);
    let f = run(&bumped, Some(&lock));
    let drift: Vec<_> = f.iter().filter(|f| f.lint == Lint::Schema).collect();
    assert!(!drift.is_empty(), "{f:?}");
    assert!(
        drift[0].message.contains("regenerate SCHEMA.lock"),
        "no regenerate hint: {}",
        drift[0].message
    );
    // And regenerating does resolve it.
    let fresh = schema::render_lock(&bumped);
    assert!(run(&bumped, Some(&fresh)).is_empty());
}

#[test]
fn seeded_encode_decode_asymmetry_fires() {
    // A hand-written pair: encode writes id then score, decode reads score
    // then id. The bytes round-trip into the wrong fields — which only a
    // hand-written pair can do, so the pair itself is the finding (one per
    // impl), and the type is not pinned as if it were declared.
    let ws = fixture(
        "store",
        "pub struct Hit { pub id: u64, pub score: u64 }\n\
         impl BinEncode for Hit {\n\
             fn bin_encode(&self, out: &mut Vec<u8>) {\n\
                 self.id.bin_encode(out);\n\
                 self.score.bin_encode(out);\n\
             }\n\
         }\n\
         impl BinDecode for Hit {\n\
             fn bin_decode(r: &mut BinReader<'_>) -> Result<Hit, BinError> {\n\
                 Ok(Hit { score: u64::bin_decode(r)?, id: u64::bin_decode(r)? })\n\
             }\n\
         }\n",
    );
    assert!(!schema::render_lock(&ws).contains("store::Hit"));
    let f = run(&ws, None);
    assert_eq!(f.len(), 2, "{f:?}");
    for (finding, side) in f.iter().zip(["BinEncode", "BinDecode"]) {
        assert_eq!((finding.lint, finding.severity), (Lint::Schema, Severity::Error));
        let expected = format!("`store::Hit` has a hand-written `impl {side}`");
        assert!(finding.message.contains(&expected), "{f:?}");
        assert!(finding.message.contains("wire_struct!"), "{f:?}");
    }
}

#[test]
fn seeded_missing_lock_is_an_error() {
    let ws = wire_crate(["url", "rank"], 3);
    let f = run(&ws, None);
    assert!(
        f.iter()
            .any(|f| f.lint == Lint::Schema && f.message.contains("SCHEMA.lock is missing")),
        "{f:?}"
    );
}

// --------------------------------------------------------- real workspace

fn repo_root() -> &'static str {
    concat!(env!("CARGO_MANIFEST_DIR"), "/../..")
}

#[test]
fn real_workspace_is_clean_under_deny_warnings() {
    let ws = webevo_analyze::scan_workspace(std::path::Path::new(repo_root())).expect("workspace sources readable");
    let lock = std::fs::read_to_string(format!("{}/SCHEMA.lock", repo_root()))
        .expect("SCHEMA.lock is checked in at the repo root");
    let findings = run(&ws, Some(&lock));
    assert!(
        findings.is_empty(),
        "the workspace must pass its own gate with zero findings:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn checked_in_lock_matches_regeneration() {
    let ws = webevo_analyze::scan_workspace(std::path::Path::new(repo_root())).expect("workspace sources readable");
    let lock = std::fs::read_to_string(format!("{}/SCHEMA.lock", repo_root()))
        .expect("SCHEMA.lock is checked in at the repo root");
    assert_eq!(
        schema::render_lock(&ws),
        lock,
        "SCHEMA.lock is stale — regenerate with `repro analyze --update-schema`"
    );
}

#[test]
fn real_workspace_wire_versions_match_the_lock_header() {
    let ws = webevo_analyze::scan_workspace(std::path::Path::new(repo_root())).expect("workspace sources readable");
    let (snapshot, wal, manifest) = schema::wire_versions(&ws);
    assert!(snapshot >= 3, "SNAPSHOT_VERSION went backwards: {snapshot}");
    assert!(wal >= 2, "WAL version went backwards: {wal}");
    assert!(manifest >= 2, "MANIFEST_VERSION went backwards: {manifest}");
    let lock = std::fs::read_to_string(format!("{}/SCHEMA.lock", repo_root()))
        .expect("SCHEMA.lock is checked in at the repo root");
    let header = format!("format snapshot={snapshot} wal={wal} manifest={manifest}");
    assert!(lock.lines().any(|l| l == header), "lock header is not `{header}`");
}
