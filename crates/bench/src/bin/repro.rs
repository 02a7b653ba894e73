//! Regenerate every table and figure of the paper from the simulator and
//! the analytic layer — and run durable, resumable crawls.
//!
//! ```sh
//! cargo run --release -p webevo-bench --bin repro -- all
//! cargo run --release -p webevo-bench --bin repro -- table2 fig9
//!
//! # A 75-day crawl checkpointed to disk, killed, and continued:
//! cargo run --release -p webevo-bench --bin repro -- crawl \
//!     --checkpoint-dir /tmp/webevo-crawl --checkpoint-every 5
//! cargo run --release -p webevo-bench --bin repro -- crawl \
//!     --checkpoint-dir /tmp/webevo-crawl --resume
//! ```
//!
//! Available targets: `table1 table2 sensitivity fig2 fig4 fig5 fig6 fig7
//! fig8 fig9 gain crawlers crawl fleet analyze all` (`all` is the twelve
//! paper targets; it excludes `crawl`, `fleet` and `analyze`). An unknown
//! target is refused before anything runs (exit status 2).
//!
//! Host-side performance — throughput, codec, WAL, observation and
//! serving cost — is measured by the standalone `benchmark/` package, not
//! here; see the README's "Performance" section.
//!
//! Flags (for the `analyze` target — the static-analysis gate):
//! * `--deny-warnings` — also fail on warnings (the CI mode).
//! * `--update-schema` — regenerate `SCHEMA.lock` from the sources.
//! * `--root DIR` — scan a different workspace root.
//! * `--out FILE` — also write the findings as JSON to `FILE`.
//!
//! Flags (for the `crawl` target):
//! * `--checkpoint-dir DIR` — persist snapshots + WAL under `DIR`.
//! * `--checkpoint-every DAYS` — full-snapshot cadence (default 5).
//! * `--resume` — recover from `--checkpoint-dir` and continue instead of
//!   starting fresh.
//! * `--days N` — crawl horizon in simulated days (default 75).
//! * `--sites N` / `--pages N` — swap the default medium-scale universe
//!   for a ratio-preserving scaled one with `N` sites / roughly `N` page
//!   slots, materialized to `--days` (for scale runs — `--sites 270
//!   --pages 1000000 --days 12` is the million-page crawl; not compatible
//!   with resuming to a later horizon).
//!
//! Observability flags (for the `crawl` and `fleet` targets; any of them
//! switches the run/an extra fleet run to a recording [`ObsSink`] and
//! prints the end-of-run stage-time report):
//! * `--trace FILE` — write the span trace as JSON lines.
//! * `--metrics-out FILE` — write the metrics registry in Prometheus text
//!   exposition format (per-shard series under a `shard` label).
//! * `--folded FILE` — write folded stacks (flamegraph input).
//!
//! Flags (for the `fleet` target):
//! * `--shards N` — shard count for the fleet leg (default 4).
//! * `--days N` — horizon for both legs (default 15).
//! * `--out FILE` — also write the JSON report to `FILE`.
//!
//! `fleet` runs the same crawl budget as one engine and as an N-shard
//! [`FleetSession`], emits one machine-readable JSON document (per-shard
//! and merged throughput, scaling efficiency — see `BENCH_fleet.json` at
//! the repo root for a checked-in run), and exits non-zero on its
//! regression marker. The throughput floor scales with the machine:
//! `max(0.75, min(shards, cores)/2)` — on a multi-core runner a 4-shard
//! fleet must beat the single engine ≥ 2×, while a single-core machine
//! only checks that sharding does not regress throughput.

use std::path::PathBuf;
use webevo::experiment::report;
use webevo::freshness::curves::policy_curves;
use webevo::prelude::*;
use webevo_bench::{
    median_secs, paper_rate_mixture, repro_experiment, repro_universe, TABLE2_LAMBDA,
};

/// Where the observability flags send their exports.
#[derive(Clone, Default)]
struct ObsOutputs {
    trace: Option<PathBuf>,
    metrics: Option<PathBuf>,
    folded: Option<PathBuf>,
}

impl ObsOutputs {
    fn any(&self) -> bool {
        self.trace.is_some() || self.metrics.is_some() || self.folded.is_some()
    }

    /// Dump whatever was requested from `obs`, plus the stage report to
    /// stdout. Exits nonzero on an unwritable path — the operator asked
    /// for the file, so silently losing it is not an option.
    fn dump(&self, obs: &ObsSink) {
        let write = |path: &PathBuf, what: &str, body: &dyn Fn(&mut Vec<u8>) -> std::io::Result<()>| {
            let mut buf = Vec::new();
            body(&mut buf).expect("in-memory export cannot fail");
            std::fs::write(path, &buf).unwrap_or_else(|e| {
                eprintln!("[repro] cannot write {what} to {path:?}: {e}");
                std::process::exit(1);
            });
            eprintln!("[repro] wrote {what} to {path:?}");
        };
        if let Some(path) = &self.trace {
            write(path, "span trace (JSON lines)", &|out| obs.write_trace_jsonl(out));
        }
        if let Some(path) = &self.metrics {
            write(path, "metrics (Prometheus text)", &|out| obs.write_prometheus(out));
        }
        if let Some(path) = &self.folded {
            write(path, "folded stacks", &|out| obs.write_folded(out));
        }
        // The stage report only means something when a recording sink
        // actually captured spans — a noop sink would print an empty
        // "no spans recorded" stub, so skip it.
        if obs.enabled() {
            println!("{}", obs.stage_report());
        }
    }
}

/// The paper's tables and figures, in the order `all` prints them.
const PAPER_TARGETS: [&str; 12] = [
    "table1", "fig2", "fig4", "fig5", "fig6", "fig7", "fig8", "table2", "sensitivity", "fig9",
    "gain", "crawlers",
];

/// The targets `all` leaves out: they crawl, time or scan rather than
/// regenerate a figure.
const OTHER_TARGETS: [&str; 3] = ["crawl", "fleet", "analyze"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut checkpoint_dir: Option<PathBuf> = None;
    let mut checkpoint_every = 5.0f64;
    let mut resume = false;
    let mut days: Option<f64> = None;
    let mut shards = 4u32;
    let mut sites: Option<usize> = None;
    let mut pages: Option<usize> = None;
    let mut bench_out: Option<PathBuf> = None;
    let mut obs_out = ObsOutputs::default();
    let mut deny_warnings = false;
    let mut update_schema = false;
    let mut analyze_root: Option<PathBuf> = None;
    let mut positional: Vec<String> = Vec::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--checkpoint-dir" => {
                let dir = iter.next().expect("--checkpoint-dir needs a path");
                checkpoint_dir = Some(PathBuf::from(dir));
            }
            "--checkpoint-every" => {
                checkpoint_every = iter
                    .next()
                    .expect("--checkpoint-every needs a day count")
                    .parse()
                    .ok()
                    .filter(|&v: &f64| v > 0.0)
                    .expect("--checkpoint-every must be a positive number");
            }
            "--resume" => resume = true,
            "--days" => {
                days = Some(
                    iter.next()
                        .expect("--days needs a day count")
                        .parse()
                        .ok()
                        .filter(|&v: &f64| v > 0.0)
                        .expect("--days must be a positive number"),
                );
            }
            "--shards" => {
                shards = iter
                    .next()
                    .expect("--shards needs a count")
                    .parse()
                    .ok()
                    .filter(|&v: &u32| v > 0)
                    .expect("--shards must be a positive integer");
            }
            "--sites" => {
                sites = Some(
                    iter.next()
                        .expect("--sites needs a count")
                        .parse()
                        .ok()
                        .filter(|&v: &usize| v > 0)
                        .expect("--sites must be a positive integer"),
                );
            }
            "--pages" => {
                pages = Some(
                    iter.next()
                        .expect("--pages needs a count")
                        .parse()
                        .ok()
                        .filter(|&v: &usize| v > 0)
                        .expect("--pages must be a positive integer"),
                );
            }
            "--out" => {
                bench_out = Some(PathBuf::from(iter.next().expect("--out needs a path")));
            }
            "--trace" => {
                obs_out.trace = Some(PathBuf::from(iter.next().expect("--trace needs a path")));
            }
            "--metrics-out" => {
                obs_out.metrics =
                    Some(PathBuf::from(iter.next().expect("--metrics-out needs a path")));
            }
            "--folded" => {
                obs_out.folded =
                    Some(PathBuf::from(iter.next().expect("--folded needs a path")));
            }
            "--deny-warnings" => deny_warnings = true,
            "--update-schema" => update_schema = true,
            "--root" => {
                analyze_root = Some(PathBuf::from(iter.next().expect("--root needs a path")));
            }
            other => positional.push(other.to_string()),
        }
    }
    // Every positional is checked before any target runs: a typo (or a
    // script still calling a removed target) must fail, not print the
    // other targets' tables and exit 0.
    for arg in &positional {
        let arg = arg.as_str();
        if arg == "all" || PAPER_TARGETS.contains(&arg) || OTHER_TARGETS.contains(&arg) {
            continue;
        }
        eprintln!("[repro] unknown target: {arg}");
        if matches!(arg, "bench" | "e2e" | "serve") {
            eprintln!(
                "[repro] `{arg}` was removed: the standalone benchmark/ package measures \
                 that leg now (cargo run --release --manifest-path benchmark/Cargo.toml)"
            );
        }
        eprintln!(
            "[repro] valid targets: {} {} all",
            PAPER_TARGETS.join(" "),
            OTHER_TARGETS.join(" ")
        );
        std::process::exit(2);
    }
    let targets: Vec<&str> = if positional.is_empty() || positional.iter().any(|a| a == "all") {
        PAPER_TARGETS.to_vec()
    } else {
        positional.iter().map(|s| s.as_str()).collect()
    };
    if (checkpoint_dir.is_some() || resume) && !targets.contains(&"crawl") {
        eprintln!(
            "[repro] warning: checkpoint/resume flags only apply to the `crawl` target, \
             which is not among the requested targets — they will be ignored"
        );
    }

    // The measurement-study targets share one monitored run.
    let needs_experiment = targets
        .iter()
        .any(|t| matches!(*t, "table1" | "fig2" | "fig4" | "fig5" | "fig6"));
    let experiment = needs_experiment.then(|| {
        eprintln!("[repro] running the 128-day monitoring experiment (medium scale)...");
        repro_experiment()
    });

    for target in targets {
        match target {
            "table1" => {
                let e = experiment.as_ref().expect("experiment ran");
                println!("{}", report::render_table1(&e.selection.domain_counts));
                println!(
                    "(paper: com 132, edu 78, netorg 30, gov 30 of 270 — scaled mix here)\n"
                );
            }
            "fig2" => {
                let e = experiment.as_ref().expect("experiment ran");
                println!("{}", report::render_fig2(&e.fig2_overall, &e.fig2_by_domain));
                println!(
                    "(paper: >20% of all pages and >40% of com changed every visit;\n\
                     >50% of edu/gov never changed in 4 months)\n"
                );
            }
            "fig4" => {
                let e = experiment.as_ref().expect("experiment ran");
                println!(
                    "{}",
                    report::render_fig4(&e.fig4_method1, &e.fig4_method2, &e.fig4_by_domain)
                );
                println!(
                    "(paper: >70% of pages live beyond a month; >50% of edu/gov beyond 4 months)\n"
                );
            }
            "fig5" => {
                let e = experiment.as_ref().expect("experiment ran");
                println!(
                    "{}",
                    report::render_fig5(&e.fig5_overall, &e.fig5_by_domain, 10)
                );
                println!(
                    "(paper: 50% of the web changed by ~day 50, com by ~day 11, gov ~4 months;\n\
                     see EXPERIMENTS.md on the Fig2/Fig5 internal tension)\n"
                );
            }
            "fig6" => {
                let e = experiment.as_ref().expect("experiment ran");
                for f in &e.fig6 {
                    println!("{}", report::render_fig6(f));
                }
                println!("(paper: a Poisson process predicts the observed data very well)\n");
            }
            "fig7" => {
                println!("Figure 7: freshness evolution, batch-mode vs steady (in-place)");
                let lambda = 0.2; // the paper uses a high rate to show the trends
                let batch = CrawlPolicy {
                    mode: CrawlMode::Batch { window_days: 7.0 },
                    update: UpdateMode::InPlace,
                    cycle_days: 30.0,
                };
                let steady = CrawlPolicy {
                    mode: CrawlMode::Steady,
                    update: UpdateMode::InPlace,
                    cycle_days: 30.0,
                };
                let bc = policy_curves(&batch, lambda, 2, 30);
                let sc = policy_curves(&steady, lambda, 2, 30);
                println!("{:<10}{:>14}{:>14}", "day", "batch", "steady");
                for ((t, fb), (_, fs)) in bc.current.rows().zip(sc.current.rows()).step_by(5) {
                    println!("{t:<10.1}{fb:>14.3}{fs:>14.3}");
                }
                println!(
                    "time averages: batch {:.3}, steady {:.3} (equal, as the paper proves)\n",
                    bc.current.time_average(),
                    sc.current.time_average()
                );
            }
            "fig8" => {
                println!("Figure 8: freshness with shadowing (crawler's vs current collection)");
                let lambda = 0.2;
                for (label, mode) in [
                    ("steady", CrawlMode::Steady),
                    ("batch(1wk)", CrawlMode::Batch { window_days: 7.0 }),
                ] {
                    let shadow = CrawlPolicy {
                        mode,
                        update: UpdateMode::Shadow,
                        cycle_days: 30.0,
                    };
                    let inplace = CrawlPolicy { update: UpdateMode::InPlace, ..shadow };
                    let sh = policy_curves(&shadow, lambda, 2, 30);
                    let ip = policy_curves(&inplace, lambda, 2, 30);
                    println!("--- {label} ---");
                    println!(
                        "{:<10}{:>14}{:>14}{:>16}",
                        "day", "crawler's", "current", "in-place (dash)"
                    );
                    for (((t, fc), (_, fcur)), (_, fip)) in sh
                        .crawlers
                        .rows()
                        .zip(sh.current.rows())
                        .zip(ip.current.rows())
                        .step_by(10)
                    {
                        println!("{t:<10.1}{fc:>14.3}{fcur:>14.3}{fip:>16.3}");
                    }
                    println!(
                        "time-averaged current: shadow {:.3} vs in-place {:.3}\n",
                        sh.current.time_average(),
                        ip.current.time_average()
                    );
                }
            }
            "table2" => {
                println!("Table 2: Freshness of the collection for various choices");
                println!("(all pages change every 4 months; 1-month cycle, 1-week batch window)\n");
                println!("{:<14}{:>10}{:>12}", "", "steady", "batch-mode");
                let s_ip = freshness_steady_inplace(TABLE2_LAMBDA, 30.0);
                let b_ip = freshness_batch_inplace(TABLE2_LAMBDA, 30.0, 7.0);
                let s_sh = freshness_steady_shadow(TABLE2_LAMBDA, 30.0);
                let b_sh = freshness_batch_shadow(TABLE2_LAMBDA, 30.0, 7.0);
                println!("{:<14}{s_ip:>10.2}{b_ip:>12.2}", "In-place");
                println!("{:<14}{s_sh:>10.2}{b_sh:>12.2}", "Shadowing");
                println!("\n(paper: 0.88 / 0.88 / 0.77 / 0.86)");
                // Monte Carlo cross-check.
                use webevo::freshness::montecarlo::simulate_policy;
                println!("\nMonte Carlo cross-check (400 pages, 4 cycles):");
                for policy in CrawlPolicy::table2_policies() {
                    let mc =
                        simulate_policy(&policy, TABLE2_LAMBDA, 400, 4, 60, 42).current_avg;
                    println!("  {:<18} {mc:.3}", policy.label());
                }
                println!();
            }
            "sensitivity" => {
                println!("§4 sensitivity: pages change monthly, batch window = 2 weeks");
                let lambda = 1.0 / 30.0;
                println!(
                    "  in-place:  {:.2}  (paper: 0.63)",
                    freshness_batch_inplace(lambda, 30.0, 15.0)
                );
                println!(
                    "  shadowing: {:.2}  (paper: 0.50)\n",
                    freshness_batch_shadow(lambda, 30.0, 15.0)
                );
            }
            "fig9" => {
                println!("Figure 9: change frequency vs optimal revisit frequency");
                let curve = optimal_frequency_curve(0.001, 10.0, 80, 25.0)
                    .expect("valid sweep");
                println!("{:<16}{:>16}", "lambda (1/day)", "f* (visits/day)");
                for (l, f) in curve.iter().step_by(4) {
                    let bar = "#".repeat((f * 50.0).round() as usize);
                    println!("{l:<16.4}{f:>16.4}  {bar}");
                }
                println!("(paper: rises below the threshold, falls above — shape matches)\n");
            }
            "gain" => {
                println!("§4.3: freshness gain from optimizing revisit frequencies");
                println!("(paper: 10%-23% over the naive policies)\n");
                let rates = paper_rate_mixture(2, 200);
                println!(
                    "{:<24}{:>10}{:>14}{:>10}{:>12}{:>12}",
                    "budget (cycle days)", "uniform", "proportional", "optimal", "vs uni", "vs prop"
                );
                for cycle in [5.0, 10.0, 30.0, 60.0] {
                    let budget = rates.len() as f64 / cycle;
                    let f_uni = evaluate_allocation(
                        &rates,
                        &uniform_allocation(&rates, budget).unwrap(),
                    );
                    let f_prop = evaluate_allocation(
                        &rates,
                        &proportional_allocation(&rates, budget).unwrap(),
                    );
                    let f_opt = evaluate_allocation(
                        &rates,
                        &optimal_allocation(&rates, budget).unwrap().allocation,
                    );
                    println!(
                        "{:<24}{:>10.3}{:>14.3}{:>10.3}{:>11.1}%{:>11.1}%",
                        format!("1/{cycle} days"),
                        f_uni,
                        f_prop,
                        f_opt,
                        (f_opt / f_uni - 1.0) * 100.0,
                        (f_opt / f_prop - 1.0) * 100.0
                    );
                }
                println!();
            }
            "crawlers" => {
                println!("Figure 10 face-off: incremental vs periodic crawler");
                println!(
                    "(coverage regime: capacity spans the reachable population, so the\n\
                     comparison isolates scheduling and swap mechanics, not page choice)\n"
                );
                let universe = repro_universe();
                // All slots can be alive: capacity covers them.
                let capacity = universe.site_count() * universe.config().pages_per_site;
                let cycle = 15.0;
                let horizon = 75.0;
                // One budget, two engines: the comparison the paper runs.
                let budget = CrawlBudget::paper_monthly(capacity)
                    .with_cycle_days(cycle)
                    .with_batch_window_days(cycle / 4.0);
                let face_off = |kind: EngineKind| {
                    eprintln!("[repro] running {} crawler ({horizon} days)...", kind.name());
                    let mut session = CrawlSession::builder()
                        .engine(kind)
                        .budget(budget)
                        .universe(&universe)
                        .build()
                        .expect("a valid session");
                    session.run(horizon).expect("the crawl runs");
                    session.metrics().clone()
                };
                let inc = face_off(EngineKind::Incremental);
                let per = face_off(EngineKind::Periodic);
                let warmup = 2.0 * cycle;
                println!(
                    "{}",
                    CrawlMetrics::comparison_table(
                        &[("incremental", &inc), ("periodic", &per)],
                        warmup
                    )
                );
            }
            "crawl" => {
                let days = days.unwrap_or(75.0);
                println!("Durable incremental crawl ({days} simulated days)");
                // `--sites` / `--pages` swap the default medium-scale
                // universe for a ratio-preserving scaled one, materialized
                // only as far as the run needs (schedules to `--days`).
                let universe = if sites.is_some() || pages.is_some() {
                    let n_sites = sites.unwrap_or(270);
                    let n_pages = pages.unwrap_or(n_sites * 120);
                    eprintln!(
                        "[repro] generating scaled universe: {n_sites} sites, \
                         ~{n_pages} pages..."
                    );
                    WebUniverse::generate(UniverseConfig::scaled(
                        1999, n_sites, n_pages, days + 1.0,
                    ))
                } else {
                    repro_universe()
                };
                let capacity = universe.site_count() * universe.config().pages_per_site;
                let budget = CrawlBudget::paper_monthly(capacity).with_cycle_days(15.0);
                let obs = if obs_out.any() { ObsSink::recording() } else { ObsSink::noop() };
                let mut builder = CrawlSession::builder()
                    .engine(EngineKind::Incremental)
                    .budget(budget)
                    .universe(&universe)
                    .obs(obs.clone());
                if let Some(dir) = checkpoint_dir.clone() {
                    builder = builder.checkpoint(dir, checkpoint_every);
                }
                let mut session = builder.build().unwrap_or_else(|e| {
                    eprintln!("[repro] invalid crawl session: {e}");
                    std::process::exit(1);
                });
                if resume {
                    let Some(dir) = checkpoint_dir.clone() else {
                        eprintln!("[repro] --resume requires --checkpoint-dir");
                        std::process::exit(1);
                    };
                    // A reporting-only peek at the snapshot before
                    // session.resume() recovers it for real: decoding
                    // twice costs ~a second at 100k pages, which a CLI
                    // accepts for an informative banner.
                    let on_disk = match recover(&dir) {
                        Ok(Some(recovered)) => recovered,
                        Ok(None) => {
                            eprintln!(
                                "[repro] no snapshot in {dir:?}: run without --resume first"
                            );
                            std::process::exit(1);
                        }
                        Err(e) => {
                            eprintln!("[repro] checkpoint directory does not decode: {e}");
                            std::process::exit(1);
                        }
                    };
                    eprintln!(
                        "[repro] recovered snapshot at day {:.2} (fetch #{}) + {} WAL records",
                        on_disk.state.clock.t,
                        on_disk.state.fetch_seq,
                        on_disk.wal.len()
                    );
                    if days <= on_disk.state.clock.t {
                        eprintln!(
                            "[repro] checkpoint already covers day {:.2} (requested --days \
                             {days}); reporting recovered state as-is",
                            on_disk.state.clock.t
                        );
                    } else {
                        eprintln!("[repro] resuming to day {days}");
                    }
                    drop(on_disk);
                    session.resume(days).unwrap_or_else(|e| {
                        eprintln!("[repro] resume failed: {e}");
                        std::process::exit(1);
                    });
                } else {
                    session.run(days).expect("the crawl runs");
                }
                println!(
                    "{:<34}{:>13}",
                    "pages in collection",
                    session.collection_len()
                );
                println!(
                    "{}",
                    CrawlMetrics::comparison_table(
                        &[("value", session.metrics())],
                        days / 2.0
                    )
                );
                if let Some(stats) = session.checkpoint_stats() {
                    println!(
                        "{:<34}{:>13}",
                        "snapshots written", stats.snapshots
                    );
                    println!(
                        "{:<34}{:>13}",
                        "WAL flushes (records)",
                        format!("{} ({})", stats.flushes, stats.records_logged)
                    );
                }
                println!();
                if obs_out.any() {
                    obs_out.dump(&obs);
                }
            }
            "fleet" => {
                let (report, regression) =
                    run_fleet_bench(days.unwrap_or(15.0), shards, &obs_out);
                println!("{report}");
                if let Some(path) = bench_out.clone() {
                    std::fs::write(&path, format!("{report}\n")).unwrap_or_else(|e| {
                        eprintln!("[repro] cannot write {path:?}: {e}");
                        std::process::exit(1);
                    });
                    eprintln!("[repro] wrote {path:?}");
                }
                if regression {
                    eprintln!(
                        "[repro] PERF REGRESSION: the sharded fleet fails its throughput \
                         floor against the single-engine run (see the report above)"
                    );
                    std::process::exit(1);
                }
            }
            "analyze" => {
                run_analyze(
                    analyze_root.clone(),
                    deny_warnings,
                    update_schema,
                    bench_out.clone(),
                );
            }
            other => unreachable!("targets are validated before the loop: {other}"),
        }
    }
}

/// The `analyze` target: the static-analysis gate. Scans the workspace
/// sources, checks `SCHEMA.lock`, prints findings, and exits non-zero on
/// errors (or on warnings too, under `--deny-warnings` — the CI mode).
/// `--update-schema` regenerates `SCHEMA.lock` instead of just checking it.
fn run_analyze(
    root: Option<PathBuf>,
    deny_warnings: bool,
    update_schema: bool,
    out: Option<PathBuf>,
) {
    use webevo::analyze::{analyze, render_json, schema, scan_workspace, AnalyzeConfig, Severity};

    // Default to the workspace this binary was built from; `--root`
    // overrides (used by the fixture tests and for scanning checkouts).
    let root = root
        .unwrap_or_else(|| PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")));
    let ws = scan_workspace(&root).unwrap_or_else(|e| {
        eprintln!("[repro] cannot scan {root:?}: {e}");
        std::process::exit(1);
    });
    let lock_path = root.join("SCHEMA.lock");
    if update_schema {
        let lock = schema::render_lock(&ws);
        std::fs::write(&lock_path, &lock).unwrap_or_else(|e| {
            eprintln!("[repro] cannot write {lock_path:?}: {e}");
            std::process::exit(1);
        });
        eprintln!("[repro] wrote {lock_path:?}");
    }
    let lock_text = std::fs::read_to_string(&lock_path).ok();
    let analysis = analyze(&ws, &AnalyzeConfig::workspace_default(), lock_text.as_deref());
    let findings = &analysis.findings;

    let file_count: usize = ws.crates.iter().map(|c| c.files.len()).sum();
    for f in findings {
        println!("{f}");
    }
    let errors = findings.iter().filter(|f| f.severity == Severity::Error).count();
    let warnings = findings.iter().filter(|f| f.severity == Severity::Warning).count();
    let notes = findings.len() - errors - warnings;
    println!(
        "[repro] analyze: {file_count} files in {} crates — {errors} error(s), \
         {warnings} warning(s), {notes} note(s); {}",
        ws.crates.len(),
        analysis.per_lint()
    );
    if let Some(path) = out {
        std::fs::write(&path, render_json(findings)).unwrap_or_else(|e| {
            eprintln!("[repro] cannot write {path:?}: {e}");
            std::process::exit(1);
        });
        eprintln!("[repro] wrote {path:?}");
    }
    if errors > 0 || (deny_warnings && warnings > 0) {
        eprintln!(
            "[repro] ANALYZE FAILED: fix the findings above, or add a justified \
             ANALYZE.allow entry / regenerate SCHEMA.lock where the report says so"
        );
        std::process::exit(1);
    }
}

/// The `fleet` target: end-to-end scale-out. Runs the same fleet-wide
/// budget as a 1-shard fleet (the single-engine baseline through the
/// identical code path) and as an N-shard fleet, and reports per-shard and
/// merged throughput, cross-shard link routing, ownership imbalance, and
/// scaling efficiency as one machine-readable JSON document. The
/// `regression` field (and returned flag) is the CI smoke marker, `true`
/// when either gate fails:
///
/// * throughput — the N-shard fleet falls below `max(0.75, min(shards,
///   cores)/2)` × the 1-shard run: on a multi-core runner that demands ≥
///   half-linear scaling (2× at 4 shards), while a single-core machine
///   only verifies that sharding itself does not cost more than 25%;
/// * collection — the fleet collects fewer than 99% of the single-node
///   run's pages. Before the link-exchange protocol, shards silently
///   dropped cross-boundary discoveries (~12% of the collection at 4
///   shards); this gate pins the fix.
fn run_fleet_bench(days: f64, shards: u32, obs_out: &ObsOutputs) -> (String, bool) {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let universe = repro_universe();
    let capacity = universe.site_count() * universe.config().pages_per_site;
    let budget = CrawlBudget::paper_monthly(capacity).with_cycle_days(15.0);

    // Three timed repetitions per leg, median wall time: fleet runs are
    // deterministic (identical results every repetition), so the median
    // only damps scheduler noise — one noisy-neighbor stall on a shared
    // CI runner must not trip the regression gate.
    let leg = |n: u32| {
        eprintln!("[repro] fleet: {n}-shard leg ({days} simulated days, median of 3)...");
        let mut results = None;
        let secs = median_secs(3, || {
            let mut fleet = FleetSession::builder()
                .shards(n)
                .budget(budget)
                .universe(&universe)
                .build()
                .unwrap_or_else(|e| {
                    eprintln!("[repro] invalid fleet: {e}");
                    std::process::exit(1);
                });
            fleet
                .run(days)
                .unwrap_or_else(|e| {
                    eprintln!("[repro] fleet run failed: {e}");
                    std::process::exit(1);
                });
            results = Some(fleet.results().expect("just ran").clone());
        });
        (results.expect("at least one repetition ran"), secs)
    };
    let (single, single_secs) = leg(1);
    let (fleet, fleet_secs) = leg(shards);

    // One extra *traced* fleet run when observability output was asked
    // for, outside the timed legs so tracing can never skew the speedup
    // the regression marker judges. Checkpointing into a scratch
    // directory lights up the WAL-flush and snapshot-encode stages that
    // a memory-only run never enters; determinism-under-observation is
    // pinned by tests/determinism.rs, not re-derived here.
    if obs_out.any() {
        eprintln!("[repro] fleet: traced {shards}-shard run for the observability dump...");
        let scratch = std::env::temp_dir()
            .join(format!("webevo-repro-fleet-obs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&scratch);
        let obs = ObsSink::recording();
        let mut fleet = FleetSession::builder()
            .shards(shards)
            .budget(budget)
            .universe(&universe)
            .checkpoint(&scratch, (days / 3.0).max(1.0))
            .obs(obs.clone())
            .build()
            .unwrap_or_else(|e| {
                eprintln!("[repro] invalid traced fleet: {e}");
                std::process::exit(1);
            });
        fleet.run(days).unwrap_or_else(|e| {
            eprintln!("[repro] traced fleet run failed: {e}");
            std::process::exit(1);
        });
        let _ = std::fs::remove_dir_all(&scratch);
        obs_out.dump(&obs);
    }

    // Throughput counts *owned* fetch attempts only: a shard's rejections
    // of foreign URLs (routing-boundary hits absent from the 1-shard
    // baseline) cost near nothing and must not inflate the speedup the
    // regression marker judges.
    let owned = |results: &webevo::prelude::FleetMetrics| {
        results.merged.fetches
            - results.shards.iter().map(|s| s.foreign_rejects).sum::<u64>()
    };
    let single_owned = owned(&single);
    let fleet_owned = owned(&fleet);
    let single_fps = single_owned as f64 / single_secs;
    let fleet_fps = fleet_owned as f64 / fleet_secs;
    let speedup = fleet_fps / single_fps;
    let speedup_floor = (0.75f64).max(shards.min(cores as u32) as f64 / 2.0);

    // The page-loss gate: cross-shard links must actually route, so the
    // fleet's collection stays within 1% of the single-node run's.
    let single_pages = single.collection_len();
    let fleet_pages = fleet.collection_len();
    let deficit = 1.0 - fleet_pages as f64 / single_pages.max(1) as f64;
    let routed_links = fleet.routed_links();
    let min_sites = fleet.shards.iter().map(|s| s.sites).min().unwrap_or(0);
    let max_sites = fleet.shards.iter().map(|s| s.sites).max().unwrap_or(0);
    let regression =
        !(fleet_owned > 0 && speedup >= speedup_floor && deficit <= 0.01);

    let mut out = String::from("{\n  \"schema\": \"webevo-repro-fleet/2\",\n");
    out.push_str(&format!(
        "  \"shards\": {shards}, \"sim_days\": {days}, \"cores\": {cores}, \
         \"sites\": {}, \"capacity\": {capacity},\n",
        universe.site_count()
    ));
    out.push_str(&format!(
        "  \"single\": {{\"fetches\": {}, \"owned_fetches\": {single_owned}, \
         \"collection\": {single_pages}, \"wall_seconds\": {single_secs:.3}, \
         \"owned_fetches_per_wall_second\": {single_fps:.1}}},\n",
        single.merged.fetches
    ));
    out.push_str(&format!(
        "  \"fleet\": {{\"fetches\": {}, \"owned_fetches\": {fleet_owned}, \
         \"wall_seconds\": {fleet_secs:.3}, \
         \"owned_fetches_per_wall_second\": {fleet_fps:.1}, \
         \"collection\": {fleet_pages}, \"routed_links\": {routed_links},\n",
        fleet.merged.fetches,
    ));
    out.push_str(&format!(
        "    \"ownership\": {{\"min_sites\": {min_sites}, \"max_sites\": {max_sites}, \
         \"imbalance_sites\": {}}},\n",
        max_sites - min_sites
    ));
    out.push_str("    \"per_shard\": [\n");
    for (i, report) in fleet.shards.iter().enumerate() {
        out.push_str(&format!(
            "      {{\"shard\": {}, \"sites\": {}, \"capacity\": {}, \"fetches\": {}, \
             \"collection\": {}, \"routed_links\": {}, \"foreign_rejects\": {}}}{}\n",
            report.shard.0,
            report.sites,
            report.capacity,
            report.metrics.fetches,
            report.collection_len,
            report.routed_links,
            report.foreign_rejects,
            if i + 1 == fleet.shards.len() { "" } else { "," },
        ));
    }
    out.push_str("    ]\n  },\n");
    out.push_str(&format!(
        "  \"speedup\": {speedup:.2}, \"scaling_efficiency\": {:.2},\n",
        speedup / shards as f64
    ));
    out.push_str(&format!(
        "  \"collection_deficit_vs_single\": {deficit:.4}, \
         \"collection_deficit_ceiling\": 0.01,\n"
    ));
    out.push_str(&format!(
        "  \"speedup_floor\": {speedup_floor:.2},\n  \"regression\": {regression}\n}}"
    ));
    (out, regression)
}
