//! Property-based tests (proptest) over the workspace's core invariants.

use proptest::prelude::*;
use webevo::prelude::*;

proptest! {
    /// Freshness formulas always produce values in [0, 1], for every
    /// policy shape.
    #[test]
    fn freshness_formulas_bounded(
        lambda in 0.0f64..5.0,
        cycle in 0.5f64..200.0,
        window_frac in 0.01f64..1.0,
    ) {
        let window = cycle * window_frac;
        for f in [
            freshness_steady_inplace(lambda, cycle),
            freshness_batch_inplace(lambda, cycle, window),
            freshness_steady_shadow(lambda, cycle),
            freshness_batch_shadow(lambda, cycle, window),
        ] {
            prop_assert!((0.0..=1.0 + 1e-12).contains(&f), "f={f}");
        }
    }

    /// Shadowing never beats in-place on time-averaged freshness.
    #[test]
    fn shadow_never_beats_inplace(
        lambda in 1e-4f64..5.0,
        cycle in 0.5f64..200.0,
        window_frac in 0.01f64..1.0,
    ) {
        let window = cycle * window_frac;
        let inplace = freshness_batch_inplace(lambda, cycle, window);
        let shadow = freshness_batch_shadow(lambda, cycle, window);
        prop_assert!(shadow <= inplace + 1e-12);
    }

    /// Periodic freshness is monotone: faster revisits never hurt.
    #[test]
    fn freshness_monotone_in_interval(
        lambda in 1e-4f64..5.0,
        i1 in 0.1f64..100.0,
        scale in 1.01f64..10.0,
    ) {
        let i2 = i1 * scale;
        prop_assert!(
            freshness_periodic(lambda, i1) >= freshness_periodic(lambda, i2) - 1e-12
        );
    }

    /// The optimal allocation conserves budget and never loses to uniform
    /// or proportional.
    #[test]
    fn optimal_allocation_invariants(
        seed in 0u64..1000,
        n in 2usize..40,
        budget in 0.1f64..50.0,
    ) {
        let mut rng = SimRng::seed_from_u64(seed);
        let rates: Vec<ChangeRate> =
            (0..n).map(|_| ChangeRate(rng.uniform_range(0.0, 3.0))).collect();
        let opt = optimal_allocation(&rates, budget).unwrap();
        prop_assert!((opt.allocation.total_budget() - budget).abs() < 1e-6);
        prop_assert!(opt.allocation.frequencies.iter().all(|&f| f >= 0.0));
        let f_opt = evaluate_allocation(&rates, &opt.allocation);
        let f_uni = evaluate_allocation(&rates, &uniform_allocation(&rates, budget).unwrap());
        let f_prop =
            evaluate_allocation(&rates, &proportional_allocation(&rates, budget).unwrap());
        prop_assert!(f_opt >= f_uni - 1e-7, "opt {f_opt} vs uni {f_uni}");
        prop_assert!(f_opt >= f_prop - 1e-7, "opt {f_opt} vs prop {f_prop}");
    }

    /// Poisson processes: counting queries agree with the event list.
    #[test]
    fn poisson_counting_consistency(
        seed in 0u64..500,
        lambda in 0.0f64..3.0,
        horizon in 1.0f64..200.0,
        a_frac in 0.0f64..1.0,
        b_frac in 0.0f64..1.0,
    ) {
        let mut rng = SimRng::seed_from_u64(seed);
        let p = PoissonProcess::generate(&mut rng, lambda, horizon);
        let (a, b) = (horizon * a_frac.min(b_frac), horizon * a_frac.max(b_frac));
        let brute = p.events().iter().filter(|&&t| t >= a && t < b).count();
        prop_assert_eq!(p.count_in(a, b), brute);
        prop_assert_eq!(p.any_in(a, b), brute > 0);
        prop_assert_eq!(p.version_at(horizon) as usize, p.count());
    }

    /// Change-interval bins partition the positive axis: every value lands
    /// in exactly one bin, and the bins are ordered.
    #[test]
    fn interval_bins_partition(days in 0.001f64..10_000.0) {
        let bin = IntervalBin::classify(days);
        let idx = bin.index();
        prop_assert!(idx < 5);
        // Ordering: a longer interval never maps to an earlier bin.
        let later = IntervalBin::classify(days * 1.5);
        prop_assert!(later.index() >= idx);
    }

    /// Wilson CIs contain the point estimate and stay inside [0, 1].
    #[test]
    fn wilson_ci_sane(successes in 0u64..200, extra in 0u64..200) {
        let n = successes + extra;
        prop_assume!(n > 0);
        let ci = webevo::stats::binomial_wilson(successes, n, 0.95);
        let p_hat = successes as f64 / n as f64;
        prop_assert!(ci.lo >= 0.0 && ci.hi <= 1.0);
        prop_assert!(ci.lo <= p_hat + 1e-12 && p_hat <= ci.hi + 1e-12);
    }

    /// PageRank sums to the page count (mean 1) on arbitrary graphs.
    #[test]
    fn pagerank_mass_conserved(edges in proptest::collection::vec((0u64..15, 0u64..15), 0..80)) {
        let g = LinkCsr::from_out_links(|| {
            (0..15u64).map(|i| {
                let links = edges.iter().filter(move |&&(a, _)| a == i).map(|&(_, b)| PageId(b));
                (PageId(i), links)
            })
        });
        let scores = pagerank(&g, &PageRankConfig::conventional()).unwrap();
        let total: f64 = scores.iter().map(|(_, s)| s).sum();
        prop_assert!((total - 15.0).abs() < 1e-6, "total={total}");
    }

    /// The revisit queue is a faithful min-heap: drain order is sorted by
    /// due time.
    #[test]
    fn revisit_queue_orders(dues in proptest::collection::vec(0.0f64..100.0, 1..50)) {
        let mut q = webevo::schedule::RevisitQueue::new();
        for (i, &due) in dues.iter().enumerate() {
            q.push(Url::new(SiteId(0), PageId(i as u64)), due);
        }
        let drained = q.drain_sorted();
        prop_assert_eq!(drained.len(), dues.len());
        for w in drained.windows(2) {
            prop_assert!(w[0].due <= w[1].due);
        }
    }

    /// Summary::merge equals sequential accumulation.
    #[test]
    fn summary_merge_associative(xs in proptest::collection::vec(-1e4f64..1e4, 2..60), split in 1usize..58) {
        let split = split.min(xs.len() - 1);
        let mut left = Summary::of(xs[..split].iter().copied());
        let right = Summary::of(xs[split..].iter().copied());
        left.merge(&right);
        let whole = Summary::of(xs.iter().copied());
        prop_assert_eq!(left.count(), whole.count());
        prop_assert!((left.mean() - whole.mean()).abs() < 1e-7);
        prop_assert!((left.variance() - whole.variance()).abs() < 1e-5);
    }

    /// Age formulas: non-negative, zero for static pages, monotone in the
    /// revisit interval.
    #[test]
    fn age_invariants(lambda in 0.0f64..3.0, interval in 0.1f64..100.0, scale in 1.01f64..5.0) {
        use webevo::freshness::age_periodic;
        let a1 = age_periodic(lambda, interval);
        let a2 = age_periodic(lambda, interval * scale);
        prop_assert!(a1 >= 0.0);
        prop_assert!(a2 >= a1 - 1e-9, "slower revisits age more: {a1} vs {a2}");
        if lambda == 0.0 {
            prop_assert_eq!(a1, 0.0);
        }
    }
}
