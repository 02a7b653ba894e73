//! `--trace 0`: the end-to-end metrics of one workload, measured with
//! observation off.
//!
//! One process, one workload, closed loop:
//!
//! 1. generate the universe and build a session (first set-up sample);
//! 2. the **cold rep** on the fresh heap. Read when its crawl ends, `VmHWM`
//!    gives `peak_rss_bytes_per_page`. Its wall time is not an end-to-end
//!    metric: it is mostly first-touch page faults, kernel time that
//!    follows the host's mood rather than the program;
//! 3. export the state the cold rep ended in — what the recovery leg of a
//!    workload without durability runs on — and, for the two workloads
//!    that checkpoint or serve, one plain reference run whose digest every
//!    rep must reproduce;
//! 4. **rounds** until `--seconds` are used up, never fewer than three.
//!    A round is one timed rep plus samples of everything else that is
//!    timed (a set-up, two recoveries), so every timing metric is sampled
//!    across the whole run rather than in one burst.
//!
//! Every timing metric reports the **best** of its samples. On a shared
//! 2-core box interference only ever adds time, in bursts of seconds: the
//! median of a pure CPU loop over 10 s windows wandered by 13% of itself
//! while its minimum stayed within 1.3% (README, "Why the best sample").
//! The quartiles of the samples are printed beside the value.

use crate::harness::{self, Checks, Rep};
use crate::spec::{self, Better, Workload};
use crate::stats::{self, Quartiles};
use std::time::Instant;

/// Set-up samples taken at most (one per round after the first).
const SETUP_REPS: usize = 5;
const MIN_ROUNDS: usize = 3;
/// Recoveries timed per round. They wait on fsync, the noisiest thing a
/// run does, so a round takes two.
const RECOVERIES_PER_ROUND: usize = 2;

/// One reported number. `samples` carries the quartiles of what the value
/// was chosen from.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: Option<Quartiles>,
    /// What a reader of the number should know (sample counts, tick size).
    pub note: String,
}

impl Metric {
    pub fn single(
        name: &'static str,
        unit: &'static str,
        value: f64,
        note: impl Into<String>,
    ) -> Metric {
        Metric {
            name,
            unit,
            value,
            samples: None,
            note: note.into(),
        }
    }
}

/// The end-to-end metric called `name`, measured once in the run.
fn once(name: &str, value: f64, note: impl Into<String>) -> Metric {
    let spec = spec::end_to_end(name);
    Metric::single(spec.name, spec.unit, value, note)
}

/// The end-to-end metric called `name` as the best of `samples`, in the
/// metric's own direction.
fn best_of(name: &str, samples: &[f64], note: impl Into<String>) -> Metric {
    let spec = spec::end_to_end(name);
    let pick = match spec.better {
        Better::Lower => f64::min,
        Better::Higher => f64::max,
    };
    let value = samples
        .iter()
        .copied()
        .reduce(pick)
        .expect("at least one sample");
    Metric {
        samples: Some(stats::quartiles(samples)),
        ..Metric::single(spec.name, spec.unit, value, note)
    }
}

fn print_rep(label: &str, rep: &Rep) {
    println!(
        "{label}: wall {:.3} s, user {:.2} s, sys {:.2} s, {} minor faults",
        rep.wall_s, rep.user_s, rep.sys_s, rep.minor_faults
    );
}

/// What a `--trace 0` run reports besides the metrics.
pub struct EndToEndRun {
    pub metrics: Vec<Metric>,
    pub digest: u64,
    pub rounds: usize,
    pub fetches: u64,
    pub collection_len: usize,
}

fn set_up(w: &Workload, seed: u64, checks: &mut Checks) -> (f64, webevo::prelude::WebUniverse) {
    let start = Instant::now();
    let universe = harness::generate(w, seed);
    drop(checks.require(harness::session(w, &universe, None), "session build"));
    (start.elapsed().as_secs_f64(), universe)
}

pub fn run(w: &Workload, seed: u64, seconds: f64, checks: &mut Checks) -> EndToEndRun {
    let (first_setup, universe) = set_up(w, seed, checks);
    let mut setup_s = vec![first_setup];

    let (cold, state) = harness::rep(w, &universe, checks, "cold", true);
    let state = state.expect("asked for");
    print_rep("cold rep", &cold);

    // The recovery leg: every workload reports `recover_s` and
    // `disk_bytes_per_page`. The workload that checkpoints on its own
    // measures them inside its reps instead.
    let recovery_leg = w
        .durable
        .is_none()
        .then(|| harness::RecoveryLeg::new(&state, checks));
    let leg_disk_bytes = recovery_leg.as_ref().map_or(0, |leg| leg.disk_bytes);
    drop(state);

    // What a kill-and-resume or a reader must not change: the trajectory
    // of an uninterrupted, unserved run of the same inputs.
    let reference = if w.durable.is_some() || w.serve_live {
        let (reference, _) = harness::plain_rep(w, &universe, checks, "reference", false);
        checks.check(cold.digest == reference.digest, || {
            format!(
                "cold rep digest {:016x} differs from the plain run's {:016x}",
                cold.digest, reference.digest
            )
        });
        reference.digest
    } else {
        cold.digest
    };

    let mut reps: Vec<Rep> = Vec::new();
    let mut recover_s: Vec<f64> = Vec::new();
    let started = Instant::now();
    loop {
        let round_start = Instant::now();
        let label = format!("rep{}", reps.len() + 1);
        let (mut rep, _) = harness::rep(w, &universe, checks, &label, false);
        checks.check(rep.digest == reference, || {
            format!(
                "{label} digest {:016x} differs from the reference {reference:016x}",
                rep.digest
            )
        });
        print_rep(&label, &rep);
        recover_s.append(&mut rep.recover_s);
        if let Some(leg) = &recovery_leg {
            for _ in 0..RECOVERIES_PER_ROUND {
                recover_s.push(leg.sample(w, &universe, checks));
            }
        }
        if setup_s.len() < SETUP_REPS {
            setup_s.push(set_up(w, seed, checks).0);
        }
        reps.push(rep);
        // Stop when the next round would not fit in what is left.
        let next_ends = started.elapsed().as_secs_f64() + round_start.elapsed().as_secs_f64();
        if reps.len() >= MIN_ROUNDS && next_ends > seconds {
            break;
        }
    }

    let n = reps.len();
    let rates: Vec<f64> = reps.iter().map(|r| r.fetches as f64 / r.wall_s).collect();
    let user: Vec<f64> = reps.iter().map(|r| r.user_s).collect();
    let last = reps.last().expect("at least three rounds ran");
    let disk_bytes = last.disk_bytes.unwrap_or(leg_disk_bytes);

    let metrics = vec![
        best_of("setup_s", &setup_s, "universe generation + session build"),
        best_of(
            "fetches_per_s",
            &rates,
            format!("{} fetches per rep, best of {n} timed reps", last.fetches),
        ),
        best_of(
            "user_cpu_s",
            &user,
            "whole process, per timed rep; 10 ms ticks",
        ),
        once(
            "peak_rss_bytes_per_page",
            cold.vm_hwm_bytes as f64 / cold.collection_len as f64,
            format!(
                "VmHWM {} B after the cold rep / {} pages",
                cold.vm_hwm_bytes, cold.collection_len
            ),
        ),
        once(
            "avg_freshness",
            last.avg_freshness,
            format!("simulated, from day {}", w.days / 2.0),
        ),
        best_of("recover_s", &recover_s, "session build + resume(0.0)"),
        once(
            "disk_bytes_per_page",
            disk_bytes as f64 / last.collection_len as f64,
            format!("{disk_bytes} B in the checkpoint directory at the kill"),
        ),
    ];
    EndToEndRun {
        metrics,
        digest: reference,
        rounds: n,
        fetches: last.fetches,
        collection_len: last.collection_len,
    }
}
