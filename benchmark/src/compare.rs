//! `benchmark compare A.json B.json`: two result files of the
//! all-workloads run, metric by metric, against the bounds.
//!
//! One row per workload and end-to-end metric. `A` is the parent, `B` the
//! change. A metric is
//!
//! * `outside` when B's value is worse than A's by more than the metric's
//!   bound and by more than either side's own spread;
//! * `unresolved` when either side's spread (distance between the
//!   quartiles of the samples its value was chosen from, as a share of the
//!   value) is wider than the bound, unless B's worse quartile is still
//!   better than A's better one;
//! * `within` otherwise.
//!
//! Simulated trajectories must not move at all: with equal seeds, a
//! differing `trajectory_digest` is reported as `differs` and fails the
//! comparison like an `outside` does.

use crate::json::Json;
use crate::spec::{Better, EndToEnd, END_TO_END, WORKLOADS};
use std::path::Path;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    Within,
    Outside,
    Unresolved,
    /// The metric (or its workload) is absent from one of the files.
    Missing,
}

impl Status {
    fn as_str(self) -> &'static str {
        match self {
            Status::Within => "within",
            Status::Outside => "outside",
            Status::Unresolved => "unresolved",
            Status::Missing => "missing",
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub workload: &'static str,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    /// Share of A's value by which B is worse (negative: B is better).
    pub worse_by: f64,
    /// The wider of the two sides' spreads.
    pub spread: f64,
    pub bound: f64,
    pub status: Status,
}

/// One side's value of a metric and the quartiles of its samples.
struct Side {
    value: f64,
    q1: f64,
    q3: f64,
}

fn side(file: &Json, workload: &str, metric: &str) -> Option<Side> {
    let m = file
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?;
    let value = m.get("value")?.as_f64()?;
    // A metric measured once per run has no quartiles: it is its own.
    let quartile = |key| m.get(key).and_then(Json::as_f64).unwrap_or(value);
    Some(Side {
        value,
        q1: quartile("q1"),
        q3: quartile("q3"),
    })
}

fn judge(spec: &EndToEnd, a: &Side, b: &Side) -> (f64, f64, Status) {
    let scale = |s: &Side| s.value.abs().max(f64::MIN_POSITIVE);
    let (worse_by, clearly_better) = match spec.better {
        Better::Lower => ((b.value - a.value) / scale(a), b.q3 < a.q1),
        Better::Higher => ((a.value - b.value) / scale(a), b.q1 > a.q3),
    };
    let spread_of = |s: &Side| (s.q3 - s.q1) / scale(s);
    let spread = spread_of(a).max(spread_of(b));
    let status = if worse_by > spec.bound && worse_by > spread {
        Status::Outside
    } else if spread > spec.bound && !clearly_better {
        Status::Unresolved
    } else {
        Status::Within
    };
    (worse_by, spread, status)
}

/// Every workload × end-to-end metric, in table order.
pub fn compare(a: &Json, b: &Json) -> Vec<Row> {
    let mut rows = Vec::new();
    for w in WORKLOADS {
        for spec in END_TO_END {
            let (sa, sb) = (side(a, w.name, spec.name), side(b, w.name, spec.name));
            let row = match (sa, sb) {
                (Some(sa), Some(sb)) => {
                    let (worse_by, spread, status) = judge(spec, &sa, &sb);
                    Row {
                        workload: w.name,
                        metric: spec.name,
                        a: sa.value,
                        b: sb.value,
                        worse_by,
                        spread,
                        bound: spec.bound,
                        status,
                    }
                }
                (sa, sb) => Row {
                    workload: w.name,
                    metric: spec.name,
                    a: sa.map_or(f64::NAN, |s| s.value),
                    b: sb.map_or(f64::NAN, |s| s.value),
                    worse_by: f64::NAN,
                    spread: f64::NAN,
                    bound: spec.bound,
                    status: Status::Missing,
                },
            };
            rows.push(row);
        }
    }
    rows
}

/// Workloads whose trajectory digests differ although both files were
/// taken with the same seed.
pub fn digest_mismatches(a: &Json, b: &Json) -> Vec<&'static str> {
    let seed = |file: &Json| {
        file.get("env")
            .and_then(|e| e.get("seed"))
            .and_then(Json::as_f64)
    };
    if seed(a).is_none() || seed(a) != seed(b) {
        return Vec::new();
    }
    let digest = |file: &Json, w: &str| {
        file.get("workloads")?
            .get(w)?
            .get("trajectory_digest")?
            .as_str()
            .map(str::to_string)
    };
    WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|w| matches!((digest(a, w), digest(b, w)), (Some(x), Some(y)) if x != y))
        .collect()
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Print the comparison; the exit code is 0 when nothing is `outside`,
/// `missing` or `differs`.
pub fn run(a_path: &Path, b_path: &Path) -> i32 {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                eprintln!("{e}");
            }
            return 2;
        }
    };
    println!(
        "{:<15} {:<24} {:>16} {:>16} {:>9} {:>8} {:>6}  status",
        "workload", "metric", "A", "B", "worse by", "spread", "bound"
    );
    let rows = compare(&a, &b);
    for r in &rows {
        println!(
            "{:<15} {:<24} {:>16.6} {:>16.6} {:>8.2}% {:>7.2}% {:>5.1}%  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by * 100.0,
            r.spread * 100.0,
            r.bound * 100.0,
            r.status.as_str()
        );
    }
    let mismatches = digest_mismatches(&a, &b);
    for w in &mismatches {
        println!("{w:<15} {:<24} differs", "trajectory_digest");
    }
    let count = |s: Status| rows.iter().filter(|r| r.status == s).count();
    println!(
        "{} within, {} outside, {} unresolved, {} missing, {} digests differ",
        count(Status::Within),
        count(Status::Outside),
        count(Status::Unresolved),
        count(Status::Missing),
        mismatches.len()
    );
    i32::from(count(Status::Outside) + count(Status::Missing) + mismatches.len() > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture(name: &str) -> Json {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("fixtures")
            .join(name);
        load(&path).expect("the fixture loads")
    }

    fn row<'r>(rows: &'r [Row], workload: &str, metric: &str) -> &'r Row {
        rows.iter()
            .find(|r| r.workload == workload && r.metric == metric)
            .expect("a row per pair")
    }

    #[test]
    fn one_row_per_workload_and_metric() {
        let rows = compare(&fixture("a.json"), &fixture("a.json"));
        assert_eq!(rows.len(), WORKLOADS.len() * END_TO_END.len());
        // A file against itself: nothing the fixture holds is worse.
        assert!(rows.iter().all(|r| r.status != Status::Outside));
        assert!(digest_mismatches(&fixture("a.json"), &fixture("a.json")).is_empty());
    }

    #[test]
    fn fixtures_cover_every_status() {
        let rows = compare(&fixture("a.json"), &fixture("b.json"));

        // 70000 -> 69000 fetches/s: 1.4% worse, bound 25%, tight spreads.
        let r = row(&rows, "steady-rank", "fetches_per_s");
        assert_eq!(r.status, Status::Within);
        assert!((r.worse_by - 1000.0 / 70000.0).abs() < 1e-12);

        // 2.0 -> 2.8 s of user CPU: 40% worse against a 25% bound.
        assert_eq!(
            row(&rows, "steady-rank", "user_cpu_s").status,
            Status::Outside
        );

        // Higher is better: freshness falling 0.50 -> 0.45 is 10% worse
        // against a 2% bound; rising would have been fine.
        assert_eq!(
            row(&rows, "steady-rank", "avg_freshness").status,
            Status::Outside
        );
        assert_eq!(
            row(&rows, "steady-fetch", "avg_freshness").status,
            Status::Within
        );

        // recover_s: values equal, but B's quartiles span 30% of it.
        let r = row(&rows, "steady-rank", "recover_s");
        assert_eq!(r.status, Status::Unresolved);
        assert!((r.spread - 0.3).abs() < 1e-12);

        // Wide spreads, yet every quartile of B beats every quartile of A.
        assert_eq!(
            row(&rows, "steady-fetch", "fetches_per_s").status,
            Status::Within
        );

        // Absent from B, and a workload absent from both.
        assert_eq!(
            row(&rows, "steady-rank", "disk_bytes_per_page").status,
            Status::Missing
        );
        assert_eq!(row(&rows, "serve-live", "setup_s").status, Status::Missing);

        // No quartiles: the value is its own spread of 0.
        let r = row(&rows, "steady-rank", "peak_rss_bytes_per_page");
        assert_eq!((r.spread, r.status), (0.0, Status::Within));
    }

    #[test]
    fn digests_are_compared_only_under_equal_seeds() {
        let (a, b) = (fixture("a.json"), fixture("b.json"));
        assert_eq!(digest_mismatches(&a, &b), vec!["steady-fetch"]);
        let Json::Obj(mut pairs) = b else {
            unreachable!()
        };
        for (key, value) in &mut pairs {
            if key == "env" {
                *value = Json::obj([("seed", Json::Num(7.0))]);
            }
        }
        assert!(digest_mismatches(&a, &Json::Obj(pairs)).is_empty());
    }
}
