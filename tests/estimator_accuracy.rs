//! Estimator integration tests: EP/EB accuracy against simulator ground
//! truth across the paper's rate spectrum, and their behaviour inside the
//! crawler loop.

use webevo::prelude::*;

fn daily_history(lambda: f64, days: usize, seed: u64) -> ChangeHistory {
    let mut rng = SimRng::seed_from_u64(seed);
    let process = PoissonProcess::generate(&mut rng, lambda, days as f64 + 1.0);
    let mut h = ChangeHistory::new(days + 2);
    for day in 0..=days {
        let t = day as f64;
        h.record_visit(t, Checksum::of_version(seed, process.version_at(t)));
    }
    h
}

#[test]
fn ep_accuracy_across_rate_spectrum() {
    // Median relative error across seeds must be modest for estimable
    // rates (daily sampling estimates rates well below ~1/day).
    for &lambda in &[0.02, 0.1, 1.0 / 7.0, 0.3] {
        let mut errors: Vec<f64> = (0..20)
            .map(|seed| {
                let h = daily_history(lambda, 300, 1000 + seed);
                let est = estimate_ep(&h, 0.95).expect("history has data");
                (est.rate.per_day() - lambda).abs() / lambda
            })
            .collect();
        errors.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = errors[errors.len() / 2];
        assert!(median < 0.35, "λ={lambda}: median relative error {median}");
    }
}

#[test]
fn ep_ci_coverage_is_calibrated() {
    let lambda = 0.08;
    let trials = 100;
    let covered = (0..trials)
        .filter(|&seed| {
            let h = daily_history(lambda, 250, 2000 + seed);
            estimate_ep(&h, 0.95)
                .map(|e| e.ci.contains(lambda))
                .unwrap_or(false)
        })
        .count();
    let coverage = covered as f64 / trials as f64;
    assert!(coverage >= 0.88, "95% CI coverage {coverage}");
}

#[test]
fn eb_classifies_paper_classes() {
    // Pages generated exactly at the class rates should be classified
    // correctly after 4 months of daily observation.
    let cases = [
        (1.0, "daily"),
        (1.0 / 7.0, "weekly"),
        (1.0 / 30.0, "monthly"),
        (1.0 / 120.0, "quarterly+"),
    ];
    for (i, &(lambda, expected)) in cases.iter().enumerate() {
        let mut correct = 0;
        let trials = 10;
        for seed in 0..trials {
            let mut rng = SimRng::seed_from_u64(3000 + i as u64 * 100 + seed);
            let process = PoissonProcess::generate(&mut rng, lambda, 130.0);
            let mut bayes = BayesianEstimator::paper_prior();
            let mut prev = 0;
            for day in 1..=128 {
                let v = process.version_at(day as f64);
                bayes.observe(1.0, v != prev);
                prev = v;
            }
            if bayes.map_class().label == expected {
                correct += 1;
            }
        }
        assert!(
            correct >= 6,
            "class {expected} (λ={lambda}): only {correct}/{trials} correct"
        );
    }
}

#[test]
fn irregular_mle_handles_crawler_like_schedules() {
    // The incremental crawler visits pages at uneven intervals; the
    // irregular MLE must stay accurate there.
    let lambda = 0.12;
    let mut rng = SimRng::seed_from_u64(4000);
    let process = PoissonProcess::generate(&mut rng, lambda, 3000.0);
    let mut h = ChangeHistory::new(5000);
    let mut t = 0.0;
    while t < 2500.0 {
        h.record_visit(t, Checksum::of_version(1, process.version_at(t)));
        // Intervals drawn from a crawler-ish mixture: mostly 1-3 days,
        // occasional week-long gaps.
        t += match (t as u64) % 7 {
            0 => 7.0,
            1 | 2 => 1.0,
            3 | 4 => 2.0,
            _ => 3.0,
        };
    }
    let est = estimate_irregular_mle(&h).expect("has data");
    assert!(
        (est.per_day() - lambda).abs() < 0.03,
        "irregular MLE {} vs true {lambda}",
        est.per_day()
    );
}

#[test]
fn site_pooling_tightens_ci_on_homogeneous_sites() {
    let lambda = 0.06;
    let mut pool = SitePool::new();
    let mut single_width = f64::NAN;
    for seed in 0..25 {
        let h = daily_history(lambda, 90, 5000 + seed);
        if seed == 0 {
            single_width = estimate_ep(&h, 0.95).unwrap().ci.width();
        }
        pool.add_history(&h);
    }
    let pooled = pool.estimate(0.95).unwrap();
    assert!(pooled.ci.width() < single_width / 2.0);
    assert!(pooled.ci.contains(lambda));
}

#[test]
fn estimators_converge_inside_the_crawler() {
    // After a long run, the crawler's EP estimates for long-held pages
    // should correlate with ground truth: fast pages estimated faster
    // than slow pages on average.
    let u = WebUniverse::generate(UniverseConfig::test_scale(500));
    let capacity = 100;
    let mut session = CrawlSession::builder()
        .engine(EngineKind::Incremental)
        .incremental(IncrementalConfig {
            capacity,
            crawl_rate_per_day: capacity as f64 / 4.0, // frequent revisits
            ranking_interval_days: 2.0,
            revisit: RevisitStrategy::Uniform,
            estimator: EstimatorKind::Ep,
            history_window: 300,
            sample_interval_days: 1.0,
            ranking: RankingConfig::default(),
        })
        .universe(&u)
        .build()
        .expect("a valid session");
    session.run(100.0).expect("the crawl runs");

    let mut fast_true = Vec::new();
    let mut slow_true = Vec::new();
    for (p, stored) in session.collection().expect("incremental has one").iter() {
        if stored.history.comparisons() < 10 {
            continue;
        }
        let detected_rate = stored.history.detections() as f64
            / stored.history.monitored_days().max(1.0);
        let true_rate = u.page(p).rate.per_day();
        if true_rate > 0.5 {
            fast_true.push(detected_rate);
        } else if true_rate < 0.02 {
            slow_true.push(detected_rate);
        }
    }
    if !fast_true.is_empty() && !slow_true.is_empty() {
        let fast_mean: f64 = fast_true.iter().sum::<f64>() / fast_true.len() as f64;
        let slow_mean: f64 = slow_true.iter().sum::<f64>() / slow_true.len() as f64;
        assert!(
            fast_mean > slow_mean * 3.0,
            "detected rates must separate: fast {fast_mean} vs slow {slow_mean}"
        );
    }
}
