//! Site selection (§2.2) — Table 1.
//!
//! The paper selected its 270 monitored sites by (1) ranking sites with a
//! modified PageRank over the site hypergraph of a 25M-page snapshot,
//! (2) taking the top 400 as candidates, and (3) keeping the 270 whose
//! webmasters granted permission. We reproduce all three steps: the
//! permission filter becomes a deterministic pseudo-random subsample
//! (permission grants were effectively exogenous to popularity).

use webevo_graph::pagerank::PageRankConfig;
use webevo_graph::sitegraph::{rank_sites, site_pagerank, SiteGraph};
use webevo_sim::WebUniverse;
use webevo_stats::SimRng;
use webevo_types::domain::PerDomain;
use webevo_types::SiteId;
#[cfg(test)]
use webevo_types::Domain;

/// The outcome of site selection.
#[derive(Clone, Debug)]
pub struct SiteSelection {
    /// The selected (monitored) sites, in rank order.
    pub selected: Vec<SiteId>,
    /// Table 1: how many selected sites fall in each domain class.
    pub domain_counts: PerDomain<usize>,
    /// Popularity scores of the selected sites (site-level PageRank).
    pub scores: Vec<f64>,
}

impl SiteSelection {
    /// Total selected sites.
    pub fn total(&self) -> usize {
        self.selected.len()
    }
}

/// Run §2.2's selection against a universe snapshot at time `t`: rank all
/// sites by site PageRank, take the top `candidates`, subsample
/// `permitted` of them ("webmaster permission"), and tabulate Table 1.
pub fn select_sites(
    universe: &WebUniverse,
    t: f64,
    candidates: usize,
    permitted: usize,
) -> SiteSelection {
    assert!(permitted <= candidates, "cannot permit more sites than candidates");
    let site_graph =
        SiteGraph::from_links(&universe.snapshot_graph(t), |p| universe.page(p).site);
    // The paper's own parameterization (d = 0.9 in its formula).
    let scores = site_pagerank(&site_graph, &PageRankConfig::paper_1999())
        .expect("site pagerank converges");
    let ranked = rank_sites(&scores);
    let candidate_pool: Vec<(SiteId, f64)> =
        ranked.into_iter().take(candidates).collect();
    // Permission filter: a deterministic subsample of the candidates.
    let mut rng = SimRng::seed_from_u64(universe.config().seed ^ 0x5e1ec7).fork(permitted as u64);
    let mut indices: Vec<usize> = (0..candidate_pool.len()).collect();
    rng.shuffle(&mut indices);
    let mut chosen: Vec<usize> = indices.into_iter().take(permitted).collect();
    chosen.sort_unstable(); // keep rank order among the permitted
    let selected: Vec<SiteId> = chosen.iter().map(|&i| candidate_pool[i].0).collect();
    let sel_scores: Vec<f64> = chosen.iter().map(|&i| candidate_pool[i].1).collect();
    let mut domain_counts: PerDomain<usize> = PerDomain::default();
    for &s in &selected {
        *domain_counts.get_mut(universe.site(s).domain) += 1;
    }
    SiteSelection { selected, domain_counts, scores: sel_scores }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webevo_sim::UniverseConfig;

    fn universe() -> WebUniverse {
        WebUniverse::generate(UniverseConfig::test_scale(8))
    }

    #[test]
    fn selection_is_deterministic() {
        let u = universe();
        let a = select_sites(&u, 0.0, 8, 6);
        let b = select_sites(&u, 0.0, 8, 6);
        assert_eq!(a.selected, b.selected);
    }

    #[test]
    fn counts_match_selection() {
        let u = universe();
        let sel = select_sites(&u, 0.0, 8, 6);
        assert_eq!(sel.total(), 6);
        let total: usize = Domain::ALL.iter().map(|&d| *sel.domain_counts.get(d)).sum();
        assert_eq!(total, 6);
        for &s in &sel.selected {
            assert!(s.index() < u.site_count());
        }
    }

    #[test]
    fn selecting_everything_keeps_everything() {
        let u = universe();
        let n = u.site_count();
        let sel = select_sites(&u, 0.0, n, n);
        assert_eq!(sel.total(), n);
        // With the test config's domain mix (5 com, 3 edu, 1 netorg, 1 gov).
        assert_eq!(*sel.domain_counts.get(Domain::Com), 5);
        assert_eq!(*sel.domain_counts.get(Domain::Edu), 3);
    }

    #[test]
    fn candidates_are_the_most_popular() {
        let u = universe();
        // Selecting all candidates with permission = candidates yields the
        // top-k by popularity; scores must be non-increasing.
        let sel = select_sites(&u, 0.0, 5, 5);
        for w in sel.scores.windows(2) {
            assert!(w[0] >= w[1] - 1e-12, "scores must be rank-ordered");
        }
    }

    #[test]
    #[should_panic(expected = "cannot permit")]
    fn rejects_inverted_counts() {
        let u = universe();
        let _ = select_sites(&u, 0.0, 3, 5);
    }
}
