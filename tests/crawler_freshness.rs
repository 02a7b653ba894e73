//! Cross-crate integration: the crawler engines against the simulator,
//! checking the §4/§5 design claims end to end — all through the
//! `CrawlSession` driver API.

use webevo::prelude::*;

fn universe(seed: u64) -> WebUniverse {
    WebUniverse::generate(UniverseConfig::test_scale(seed))
}

fn incremental_config(capacity: usize, cycle: f64) -> IncrementalConfig {
    IncrementalConfig {
        capacity,
        crawl_rate_per_day: capacity as f64 / cycle,
        ranking_interval_days: 1.0,
        revisit: RevisitStrategy::Uniform,
        estimator: EstimatorKind::Ep,
        history_window: 150,
        sample_interval_days: 0.5,
        ranking: RankingConfig::default(),
    }
}

#[test]
fn incremental_beats_periodic_on_freshness_and_latency() {
    // Capacity covers the whole window population: both crawlers can hold
    // everything, so the comparison isolates *when* pages are refreshed
    // and when new pages become visible (the paper's §1 argument), not
    // which pages each happens to cover.
    let u = universe(400);
    let capacity = 320;
    let cycle = 12.0;
    let horizon = 72.0;

    let mut inc_session = CrawlSession::builder()
        .engine(EngineKind::Incremental)
        .incremental(IncrementalConfig {
            revisit: RevisitStrategy::Optimal,
            ..incremental_config(capacity, cycle)
        })
        .universe(&u)
        .build()
        .expect("a valid session");
    inc_session.run(horizon).expect("the crawl runs");
    let inc = inc_session.metrics();

    let mut per_session = CrawlSession::builder()
        .engine(EngineKind::Periodic)
        .periodic(PeriodicConfig {
            capacity,
            cycle_days: cycle,
            window_days: cycle / 4.0,
            sample_interval_days: 0.5,
        })
        .universe(&u)
        .build()
        .expect("a valid session");
    per_session.run(horizon).expect("the crawl runs");
    let per = per_session.metrics();

    let warmup = 2.0 * cycle;
    let f_inc = inc.average_freshness_from(warmup);
    let f_per = per.average_freshness_from(warmup);
    assert!(
        f_inc > f_per - 0.02,
        "incremental freshness {f_inc} should be at least the periodic {f_per}"
    );
    // Peak speed: the batch crawler's defining cost (§4).
    assert!(
        per.peak_speed > inc.peak_speed * 3.0,
        "periodic peak {} vs incremental {}",
        per.peak_speed,
        inc.peak_speed
    );
    // §1: "the incremental crawler may immediately index the new page,
    // right after it is found" — found→visible latency must be near zero
    // for the incremental crawler, while the periodic crawler sits on
    // found pages until the shadow swap.
    let d_inc = inc.discovery_latency.mean();
    let d_per = per.discovery_latency.mean();
    assert!(
        inc.discovery_latency.count() > 20,
        "need enough admissions to compare"
    );
    assert!(
        d_inc < d_per,
        "incremental found-to-visible {d_inc} should beat periodic {d_per}"
    );
    assert!(d_inc < 1.0, "incremental indexes found pages within a day: {d_inc}");
    // Birth→visible is dominated by discovery physics and roughly
    // comparable; neither should be wildly worse.
    let l_inc = inc.new_page_latency.mean();
    let l_per = per.new_page_latency.mean();
    assert!(l_inc < l_per * 2.5 + 1.0, "inc {l_inc} vs per {l_per}");
}

#[test]
fn variable_frequency_beats_fixed_under_tight_budget() {
    // §4.3: adjusting revisit frequency to change frequency raises
    // freshness — visible when the budget is scarce and rates are skewed.
    let u = universe(401);
    let capacity = 120;
    let cycle = 30.0; // tight: each page only ~once a month
    let horizon = 120.0;
    let run = |revisit: RevisitStrategy| {
        let mut session = CrawlSession::builder()
            .engine(EngineKind::Incremental)
            .incremental(IncrementalConfig {
                revisit,
                ..incremental_config(capacity, cycle)
            })
            .universe(&u)
            .build()
            .expect("a valid session");
        session.run(horizon).expect("the crawl runs");
        session.metrics().average_freshness_from(cycle * 2.0)
    };
    let uniform = run(RevisitStrategy::Uniform);
    let optimal = run(RevisitStrategy::Optimal);
    assert!(
        optimal > uniform - 0.03,
        "optimal {optimal} should not lose to uniform {uniform}"
    );
}

#[test]
fn threaded_engine_agrees_with_sequential() {
    // Fixed composition: no churn and full coverage, so the comparison
    // isolates scheduling (`threaded_matches_single_threaded_statistically`
    // in incremental.rs gives the rationale).
    let mut ucfg = UniverseConfig::test_scale(402);
    ucfg.churn = false;
    ucfg.pages_per_site = 18;
    ucfg.window_size = 18;
    let u = WebUniverse::generate(ucfg);
    let cfg = incremental_config(180, 8.0);
    let run = |kind: EngineKind| {
        let mut session = CrawlSession::builder()
            .engine(kind)
            .incremental(cfg.clone())
            .universe(&u)
            .build()
            .expect("a valid session");
        session.run(48.0).expect("the crawl runs");
        (
            session.metrics().average_freshness_from(24.0),
            session.collection_len(),
        )
    };
    let (f_single, n_single) = run(EngineKind::Incremental);
    let (f_threaded, n_threaded) = run(EngineKind::Threaded { workers: 4 });
    assert!(
        (f_single - f_threaded).abs() < 0.08,
        "sequential {f_single} vs threaded {f_threaded}"
    );
    assert!(n_threaded >= n_single * 9 / 10);
}

#[test]
fn threaded_engine_handles_churn() {
    // Under churn the page sets drift apart, but the threaded engine must
    // still fill its collection and stay reasonably fresh.
    let u = universe(402);
    let mut session = CrawlSession::builder()
        .engine(EngineKind::Threaded { workers: 4 })
        .incremental(incremental_config(80, 8.0))
        .universe(&u)
        .build()
        .expect("a valid session");
    session.run(48.0).expect("the crawl runs");
    assert!(session.collection_len() >= 70);
    assert!(session.metrics().average_freshness_from(24.0) > 0.3);
}

#[test]
fn crawler_tolerates_failures_and_churn() {
    let u = universe(403);
    let mut fetcher = SimFetcher::new(&u).with_failure_rate(0.25);
    let mut session = CrawlSession::builder()
        .engine(EngineKind::Incremental)
        .incremental(incremental_config(100, 10.0))
        .universe(&u)
        .fetcher(&mut fetcher)
        .build()
        .expect("a valid session");
    session.run(90.0).expect("the crawl runs");
    assert!(session.metrics().failed_fetches > 50);
    assert!(
        session.collection_len() >= 70,
        "collection holds up under 25% failures: {}",
        session.collection_len()
    );
    assert!(session.metrics().average_freshness_from(40.0) > 0.35);
}

#[test]
fn montecarlo_policies_match_analytic_table2() {
    // The §4 policy simulator (independent of the crawler engines) agrees
    // with the closed forms on the paper's parameters.
    use webevo::freshness::montecarlo::simulate_policy;
    let lambda = 1.0 / 120.0;
    for policy in CrawlPolicy::table2_policies() {
        let mc = simulate_policy(&policy, lambda, 300, 3, 40, 9).current_avg;
        let analytic = webevo::freshness::table2_entry(&policy, lambda);
        assert!(
            (mc - analytic).abs() < 0.03,
            "{}: mc {mc} vs analytic {analytic}",
            policy.label()
        );
    }
}
