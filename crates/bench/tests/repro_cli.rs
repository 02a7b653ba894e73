//! The `repro` binary refuses a target it does not know before running
//! anything: a typo, or a script still calling a removed target, must not
//! exit 0.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("repro runs")
}

#[test]
fn unknown_target_fails_and_is_named() {
    let out = repro(&["nosuchtarget"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown target: nosuchtarget"), "{stderr}");
    assert!(stderr.contains("table2") && stderr.contains("fleet"), "lists the targets: {stderr}");
}

#[test]
fn removed_bench_targets_point_at_the_benchmark_package() {
    for target in ["bench", "e2e", "serve"] {
        let out = repro(&[target]);
        assert_eq!(out.status.code(), Some(2), "{target}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("benchmark/"), "{target}: {stderr}");
    }
}

#[test]
fn a_bad_target_stops_the_good_ones_before_it() {
    let good = repro(&["table2"]);
    assert!(good.status.success());
    assert!(String::from_utf8_lossy(&good.stdout).contains("Table 2"));

    let out = repro(&["table2", "nosuch"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no table: {}", String::from_utf8_lossy(&out.stdout));
}
