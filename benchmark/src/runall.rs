//! `benchmark --seed N`: every workload, both modes, one table, one
//! result file.
//!
//! The runner re-executes itself once per workload and mode, so peak RSS,
//! fault counts and heap state never leak from one workload into the
//! next. Each child prints its own metric lines (passed through) and a
//! `detail:` line this parent collects into the result file that
//! `benchmark compare` reads.

use crate::harness;
use crate::json::Json;
use crate::procfs;
use crate::spec::{END_TO_END, WORKLOADS};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};

/// The build settings the numbers were taken under; `Cargo.toml` states
/// them (a unit test keeps this line honest).
const PROFILE: &str = "release: lto=thin, codegen-units=1";

/// The commit the checkout is at, read from `.git` beside the package
/// (no `git` process, no reads outside the checkout); `unknown` where the
/// checkout is not a repository.
fn git_rev(manifest_dir: &Path) -> String {
    let git = manifest_dir.join("../.git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_string();
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => read(&git.join(reference)).unwrap_or_else(|| "unknown".to_string()),
        None => head,
    }
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Run one workload in one mode in a child process; pass its output
/// through and return its `detail:` object and whether it exited 0.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> (Option<Json>, bool) {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let mut child = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stdout(Stdio::piped())
        .spawn()
        .expect("the benchmark can start itself");
    let mut detail = None;
    let stdout = child.stdout.take().expect("stdout is piped");
    for line in BufReader::new(stdout).lines().map_while(Result::ok) {
        if let Some(json) = line.strip_prefix("detail: ") {
            detail = Json::parse(json).ok();
        } else if !line.starts_with('{') {
            println!("{line}");
        }
    }
    let ok = child.wait().map(|status| status.success()).unwrap_or(false);
    (detail, ok)
}

/// One workload's end-to-end values as a row of the closing matrix.
fn matrix_cell(results: &Json, workload: &str, metric: &str) -> String {
    results
        .get(workload)
        .and_then(|w| w.get("end_to_end")?.get(metric)?.get("value")?.as_f64())
        .map_or_else(|| "-".to_string(), |v| format!("{v:.6}"))
}

pub fn run(seed: u64, seconds: f64) -> i32 {
    let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let out_dir = harness::out_dir();
    let env = Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        ("rustc", Json::str(rustc_version())),
        ("git_rev", Json::str(git_rev(manifest_dir))),
        ("profile", Json::str(PROFILE)),
        // fsync cost in the durable legs belongs to this filesystem — in a
        // sandbox, to the sandbox — not to a storage device.
        (
            "checkpoint_filesystem",
            Json::str(procfs::describe_filesystem(&out_dir)),
        ),
    ]);
    println!("env: {}", env.to_line());

    let mut all_ok = true;
    let mut results = Vec::new();
    for w in WORKLOADS {
        let mut entry = Vec::new();
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            println!();
            let (detail, ok) = child(w.name, seed, seconds, trace);
            all_ok &= ok;
            let Some(detail) = detail else {
                println!(
                    "{}: no result from the --trace {} run",
                    w.name,
                    u8::from(trace)
                );
                all_ok = false;
                continue;
            };
            if !trace {
                for field in ["trajectory_digest", "checks_attempted", "checks_failed"] {
                    if let Some(value) = detail.get(field) {
                        entry.push((field.to_string(), value.clone()));
                    }
                }
            }
            if let Some(metrics) = detail.get("metrics") {
                entry.push((key.to_string(), metrics.clone()));
            }
        }
        results.push((w.name.to_string(), Json::Obj(entry)));
    }
    let results = Json::Obj(results);

    println!("\nend-to-end metrics by workload");
    print!("{:<24} {:<9}", "metric", "unit");
    for w in WORKLOADS {
        print!(" {:>16}", w.name);
    }
    println!();
    for m in END_TO_END {
        print!("{:<24} {:<9}", m.name, m.unit);
        for w in WORKLOADS {
            print!(" {:>16}", matrix_cell(&results, w.name, m.name));
        }
        println!();
    }

    let file = Json::obj([
        ("schema", Json::str("webevo-benchmark/1")),
        ("env", env),
        ("workloads", results),
    ]);
    let path = out_dir.join(format!("results-seed{seed}-pid{}.json", std::process::id()));
    match std::fs::write(&path, file.to_line() + "\n") {
        Ok(()) => println!("\nresults written to {}", path.display()),
        Err(e) => {
            println!("\ncannot write {}: {e}", path.display());
            all_ok = false;
        }
    }
    println!(
        "{}",
        if all_ok {
            "all checks passed"
        } else {
            "SOME CHECKS FAILED"
        }
    );
    i32::from(!all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_recorded_profile_is_the_manifests() {
        let manifest =
            std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml"))
                .expect("the package has a manifest");
        let release = manifest
            .split("[profile.release]")
            .nth(1)
            .expect("a release profile");
        assert!(release.contains("lto = \"thin\""));
        assert!(release.contains("codegen-units = 1"));
        assert_eq!(PROFILE, "release: lto=thin, codegen-units=1");
    }

    #[test]
    fn git_rev_follows_a_symbolic_head_and_survives_no_repository() {
        let dir = harness::out_dir().join(format!("git-rev-test-{}", std::process::id()));
        let package = dir.join("benchmark");
        std::fs::create_dir_all(&package).expect("scratch space");
        assert_eq!(git_rev(&package), "unknown");
        std::fs::create_dir_all(dir.join(".git/refs/heads")).expect("scratch space");
        std::fs::write(dir.join(".git/HEAD"), "ref: refs/heads/main\n").expect("writable");
        assert_eq!(
            git_rev(&package),
            "unknown",
            "the branch file does not exist yet"
        );
        std::fs::write(dir.join(".git/refs/heads/main"), "4ddad50\n").expect("writable");
        assert_eq!(git_rev(&package), "4ddad50");
        std::fs::write(dir.join(".git/HEAD"), "0123abc\n").expect("writable");
        assert_eq!(
            git_rev(&package),
            "0123abc",
            "a detached HEAD names the commit itself"
        );
        std::fs::remove_dir_all(&dir).expect("scratch space is removable");
    }
}
