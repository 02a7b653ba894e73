//! The webevo benchmark: six named workloads, ten end-to-end metrics and
//! a per-layer table. See `README.md` beside this package.
//!
//! ```text
//! benchmark --seed N                         every workload, both modes, one table
//! benchmark --workload W --seed N --seconds S --trace 0|1
//!                                            one workload, one mode (what the driver runs)
//! benchmark compare A.json B.json            two result files against the bounds
//! ```

mod compare;
mod endtoend;
mod harness;
mod json;
mod layers;
mod procfs;
mod runall;
mod spec;
mod stats;

use endtoend::Metric;
use harness::Checks;
use json::Json;

const USAGE: &str =
    "usage: benchmark [--seed N] [--workload NAME [--seconds S] [--trace 0|1]]\n       \
                     benchmark compare A.json B.json";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1999,
        seconds: spec::RUN_SECONDS,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => {
                parsed.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?;
            }
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 60.0) {
                    return Err("--seconds must lie in (0, 60]".to_string());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

/// Print what failed, then the result line with `correct: false`, and stop
/// with a non-zero code.
pub fn fail_and_exit(checks: &Checks) -> ! {
    for failure in &checks.failures {
        println!("check FAILED: {failure}");
    }
    println!("{}", result_line(checks, &[]).to_line());
    std::process::exit(1);
}

/// `{name: {value, unit}}` for every metric — with the quartiles and count
/// of its samples when `with_samples`.
fn metrics_json(metrics: &[Metric], with_samples: bool) -> Json {
    let one = |m: &Metric| {
        let mut fields = vec![("value", Json::Num(m.value)), ("unit", Json::str(m.unit))];
        if let Some(q) = m.samples.filter(|_| with_samples) {
            fields.extend([
                ("q1", Json::Num(q.q1)),
                ("q3", Json::Num(q.q3)),
                ("n", Json::Num(q.n as f64)),
            ]);
        }
        (m.name, Json::obj(fields))
    };
    Json::obj(metrics.iter().map(one))
}

/// The one JSON object the driver reads off the last line.
fn result_line(checks: &Checks, metrics: &[Metric]) -> Json {
    Json::obj([
        ("correct", Json::Bool(checks.failed() == 0)),
        ("attempted", Json::Num(checks.attempted.max(1) as f64)),
        ("failed", Json::Num(checks.failed() as f64)),
        ("metrics", metrics_json(metrics, false)),
    ])
}

/// Everything `compare` and the all-workloads table need about one run of
/// one workload in one mode, as one line (`detail: {...}`).
fn detail_line(
    w: &spec::Workload,
    args: &Args,
    digest: u64,
    checks: &Checks,
    metrics: &[Metric],
) -> Json {
    Json::obj([
        ("workload", Json::str(w.name)),
        ("seed", Json::Num(args.seed as f64)),
        ("trace", Json::Bool(args.trace)),
        ("trajectory_digest", Json::str(format!("{digest:016x}"))),
        ("checks_attempted", Json::Num(checks.attempted as f64)),
        ("checks_failed", Json::Num(checks.failed() as f64)),
        ("metrics", metrics_json(metrics, true)),
    ])
}

fn print_metric(m: &Metric) {
    let spread = match m.samples {
        Some(q) => {
            format!(
                "  [q1 {} .. q3 {}, n={}, spread {:.1}%]",
                q.q1,
                q.q3,
                q.n,
                q.spread() * 100.0
            )
        }
        None => String::new(),
    };
    let note = if m.note.is_empty() {
        String::new()
    } else {
        format!("  ({})", m.note)
    };
    println!("{:<34} {:>22} {:<9}{spread}{note}", m.name, m.value, m.unit);
}

fn run_workload(w: &'static spec::Workload, args: &Args) -> ! {
    let mut checks = Checks::default();
    println!(
        "workload {} seed {} seconds {} trace {}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("why: {}", w.why);
    println!(
        "checkpoint directories sit on: {} (fsync cost is this filesystem's)",
        procfs::describe_filesystem(&harness::out_dir())
    );
    let (metrics, digest) = if args.trace {
        layers::run(w, args.seed, args.seconds, &mut checks)
    } else {
        let run = endtoend::run(w, args.seed, args.seconds, &mut checks);
        println!(
            "{} fetches per rep, {} pages in the collection, {} rounds",
            run.fetches, run.collection_len, run.rounds
        );
        (run.metrics, run.digest)
    };
    for m in &metrics {
        print_metric(m);
    }
    println!("trajectory_digest {digest:016x}");
    println!(
        "checks_attempted {} checks_failed {}",
        checks.attempted,
        checks.failed()
    );
    println!(
        "detail: {}",
        detail_line(w, args, digest, &checks, &metrics).to_line()
    );
    if checks.failed() > 0 {
        fail_and_exit(&checks);
    }
    println!("{}", result_line(&checks, &metrics).to_line());
    std::process::exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args.as_slice() else {
            eprintln!("{USAGE}");
            std::process::exit(2);
        };
        std::process::exit(compare::run(a.as_ref(), b.as_ref()));
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match &args.workload {
        Some(name) => match spec::workload(name) {
            Some(w) => run_workload(w, &args),
            None => {
                let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
                eprintln!(
                    "unknown workload `{name}`; the workloads are: {}",
                    names.join(", ")
                );
                std::process::exit(2);
            }
        },
        None => std::process::exit(runall::run(args.seed, args.seconds)),
    }
}
