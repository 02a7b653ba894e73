//! The full §2–3 pipeline under stress: failure injection, censoring
//! behaviour, report rendering, and internal consistency of the produced
//! figures.

use webevo::experiment::report;
use webevo::prelude::*;
use webevo::store::fnv64;

fn small_report(seed: u64, failure_rate: f64) -> ExperimentReport {
    let universe = WebUniverse::generate(UniverseConfig::test_scale(seed));
    run_full_experiment(
        &universe,
        &MonitorConfig { days: 100, failure_rate, time_of_day: 0.0 },
        universe.site_count(),
        universe.site_count().saturating_sub(2),
    )
}

#[test]
fn figures_are_internally_consistent() {
    let r = small_report(600, 0.0);
    // Fig 2 fractions are distributions.
    let sum: f64 = r.fig2_overall.fractions().iter().sum();
    assert!((sum - 1.0).abs() < 1e-9);
    // Fig 4 totals match across methods (same page population).
    assert_eq!(r.fig4_method1.total(), r.fig4_method2.total());
    // Method 2 never shortens lifespans: the >4months share can only grow.
    assert!(
        r.fig4_method2.fraction(LifespanBin::OverFourMonths)
            >= r.fig4_method1.fraction(LifespanBin::OverFourMonths) - 1e-12
    );
    // Fig 5 curves start at 1 and are monotone non-increasing.
    assert!((r.fig5_overall.at_day(0) - 1.0).abs() < 1e-9);
    let v = r.fig5_overall.values();
    assert!(v.windows(2).all(|w| w[1] <= w[0] + 1e-12));
    // Table 1 counts sum to the permitted count.
    let total: usize = Domain::ALL
        .iter()
        .map(|&d| *r.selection.domain_counts.get(d))
        .sum();
    assert_eq!(total, r.selection.total());
}

#[test]
fn pipeline_survives_fetch_failures() {
    let clean = small_report(601, 0.0);
    let noisy = small_report(601, 0.2);
    // The monitor still produces full figures under 20% failures, and the
    // qualitative ordering (com faster than gov) survives.
    assert!(noisy.data.page_count() > 0);
    let com = noisy.fig2_by_domain.get(Domain::Com).fraction(IntervalBin::UpToDay);
    let gov = noisy.fig2_by_domain.get(Domain::Gov).fraction(IntervalBin::UpToDay);
    assert!(com > gov, "noisy run: com {com} vs gov {gov}");
    // Noise should not create pages out of thin air.
    assert!(noisy.data.page_count() <= clean.data.page_count() + 5);
}

#[test]
fn report_renders_every_section() {
    let r = small_report(602, 0.0);
    let text = report::render_full(&r);
    for needle in [
        "Table 1",
        "Figure 2",
        "Figure 4",
        "Figure 5",
        "Figure 6",
        "method1",
        "poisson",
        "50%",
    ] {
        assert!(text.contains(needle), "rendered report missing {needle:?}");
    }
}

#[test]
fn monitor_day_zero_cohort_is_window_sized() {
    let universe = WebUniverse::generate(UniverseConfig::test_scale(603));
    let sites: Vec<SiteId> = universe.sites().iter().map(|s| s.id).collect();
    let monitor = DailyMonitor::new(MonitorConfig {
        days: 30,
        failure_rate: 0.0,
        time_of_day: 0.0,
    });
    let data = monitor.run(&universe, &sites);
    let day0: usize = data.records.iter().filter(|r| r.first_seen == 0).count();
    let expected: usize = sites
        .iter()
        .map(|&s| universe.window(s, 0.0).len())
        .sum();
    assert_eq!(day0, expected);
}

#[test]
fn selection_respects_candidate_ordering() {
    let universe = WebUniverse::generate(UniverseConfig::test_scale(604));
    let all = select_sites(&universe, 0.0, universe.site_count(), universe.site_count());
    let top3 = select_sites(&universe, 0.0, 3, 3);
    // The top-3 candidates must be the first three of the full ranking.
    assert_eq!(top3.selected[..], all.selected[..3]);
}

/// Everything computed from the ground-truth link graph, pinned as one
/// fnv64 digest per snapshot time: the graph's page and link counts,
/// PageRank's score bits and iteration count in both forms, every site's
/// selection rank and score bits, and a crawled collection's quality. The
/// last time falls after churn, so dead pages and reoccupied slots are in
/// the snapshot. The constants were printed by a build that held the links
/// in a mutable adjacency graph; the flat link structure reproduces them.
#[test]
fn link_graph_outputs_match_golden_digests() {
    let universe = WebUniverse::generate(UniverseConfig::test_scale(605));
    let mut session = CrawlSession::builder()
        .engine(EngineKind::Incremental)
        .budget(CrawlBudget::paper_monthly(50).with_cycle_days(5.0))
        .universe(&universe)
        .build()
        .expect("a valid session");
    session.run(20.0).expect("the crawl runs");
    let collection = session.collection().expect("incremental engines have a collection");
    assert!(!collection.is_empty());

    let late = 120.0;
    assert!(universe.pages().iter().any(|p| p.death <= late), "churn kills pages");
    assert!(
        universe.pages().iter().any(|p| p.birth > 0.0 && p.alive(late)),
        "churn reoccupies slots"
    );
    let sites = universe.site_count();
    let digests: Vec<u64> = [0.0, 45.0, late]
        .iter()
        .map(|&t| {
            let mut bytes: Vec<u8> = Vec::new();
            let mut put = |v: u64| bytes.extend_from_slice(&v.to_le_bytes());
            let graph = universe.snapshot_graph(t);
            put(graph.page_count() as u64);
            put(graph.link_count() as u64);
            for cfg in [PageRankConfig::paper_1999(), PageRankConfig::conventional()] {
                let scores = pagerank(&graph, &cfg).expect("pagerank converges");
                put(scores.iterations() as u64);
                for (page, score) in scores.iter() {
                    put(page.0);
                    put(score.to_bits());
                }
            }
            let selection = select_sites(&universe, t, sites, sites);
            for (site, score) in selection.selected.iter().zip(&selection.scores) {
                put(u64::from(site.0));
                put(score.to_bits());
            }
            put(collection_quality(collection, &universe, t).to_bits());
            fnv64(&bytes)
        })
        .collect();
    assert_eq!(
        digests,
        [0x70759eea3b259004, 0xd4d1e89b80e89a58, 0x8f19dc42324fca01],
        "{digests:#018x?}"
    );
}
