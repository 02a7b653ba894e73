//! PageRank over a [`PageGraph`].
//!
//! The paper defines (§2.2):
//!
//! ```text
//! PR(P) = d + (1 − d)·[PR(P₁)/c₁ + … + PR(Pₙ)/cₙ]      (d = 0.9)
//! ```
//!
//! which normalizes so ranks average to 1 (the "start with all PR values
//! equal to 1, iterate" procedure). The more common formulation multiplies
//! the link term by the damping factor instead. Both are the same family up
//! to the substitution `d ↔ 1 − d` and a constant scale; we expose the
//! paper's exact form via [`PageRankConfig::paper_1999`] and the
//! conventional Brin–Page form via [`PageRankConfig::conventional`].
//!
//! Dangling pages (no out-links) redistribute their mass uniformly, the
//! standard fix, so total rank is conserved and the iteration converges on
//! every graph.

use crate::pagegraph::PageGraph;
use webevo_types::{DenseMap, Error, PageId, Result};

/// Parameters for the PageRank iteration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PageRankConfig {
    /// Probability of following a link (the conventional damping factor).
    /// The teleport probability is `1 − follow`.
    pub follow: f64,
    /// Convergence threshold on the L1 change between iterations,
    /// normalized per page.
    pub tolerance: f64,
    /// Iteration cap; exceeding it is reported as [`Error::NoConvergence`].
    pub max_iterations: usize,
}

impl PageRankConfig {
    /// The paper's setup (§2.2): `PR(P) = d + (1−d)·Σ…` with `d = 0.9`,
    /// i.e. links are followed with probability 0.1.
    pub fn paper_1999() -> PageRankConfig {
        PageRankConfig { follow: 0.1, tolerance: 1e-10, max_iterations: 200 }
    }

    /// The conventional Brin–Page setup: follow links with probability 0.85.
    pub fn conventional() -> PageRankConfig {
        PageRankConfig { follow: 0.85, tolerance: 1e-10, max_iterations: 200 }
    }
}

impl Default for PageRankConfig {
    fn default() -> Self {
        PageRankConfig::conventional()
    }
}

webevo_types::wire_struct!(PageRankConfig { follow, tolerance, max_iterations });

/// PageRank scores, normalized so they **average to 1** (the paper's
/// convention: iteration starts with all values 1 and the damping form
/// preserves the mean).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PageRankScores {
    scores: DenseMap<f64>,
    iterations: usize,
}

impl PageRankScores {
    /// Score of a page (0 for unknown pages).
    pub fn get(&self, p: PageId) -> f64 {
        self.scores.get(p).copied().unwrap_or(0.0)
    }

    /// Number of iterations the solve took.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// All `(page, score)` pairs in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (PageId, f64)> + '_ {
        self.scores.iter().map(|(p, &s)| (p, s))
    }

    /// Pages sorted by descending score (ties broken by id for
    /// determinism).
    pub fn ranked(&self) -> Vec<(PageId, f64)> {
        let mut v: Vec<_> = self.iter().collect();
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("no NaN").then(a.0.cmp(&b.0)));
        v
    }

    /// The `k` highest-scored pages in descending score order, ties broken
    /// by ascending `PageId`. The ordering is total and input-order
    /// independent, so serving layers built on it return byte-identical
    /// top-k lists across runs.
    pub fn top_k(&self, k: usize) -> Vec<(PageId, f64)> {
        let mut v = self.ranked();
        v.truncate(k);
        v
    }

    /// The lowest-scored page, if any — the RankingModule's discard
    /// candidate (§5.2: "the discarded page should have the lowest
    /// importance in the collection").
    pub fn lowest(&self) -> Option<(PageId, f64)> {
        self.iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN").then(a.0.cmp(&b.0)))
    }

    /// Number of scored pages.
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// True if no pages were scored.
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }
}

/// Compute PageRank over the graph's current state.
///
/// Returns scores averaging 1. An empty graph yields empty scores.
pub fn pagerank(graph: &PageGraph, config: &PageRankConfig) -> Result<PageRankScores> {
    if !(0.0..=1.0).contains(&config.follow) {
        return Err(Error::invalid(format!(
            "follow probability must be in [0,1], got {}",
            config.follow
        )));
    }
    let n = graph.page_count();
    if n == 0 {
        return Ok(PageRankScores::default());
    }

    // Stable page order for deterministic iteration.
    let mut pages: Vec<PageId> = graph.pages().collect();
    pages.sort_unstable();
    let index: DenseMap<u32> =
        pages.iter().enumerate().map(|(i, &p)| (p, i as u32)).collect();

    let out_degree: Vec<usize> = pages.iter().map(|&p| graph.out_degree(p)).collect();
    // Pre-resolve in-link indices per page, CSR-style: one flat edge
    // array plus per-page offsets. A `Vec<Vec<usize>>` here means one
    // heap allocation per page — at a million pages that is a million
    // allocations per ranking pass, and the allocator's munmap churn
    // shows up as system time dwarfing the arithmetic.
    let mut in_offsets: Vec<usize> = Vec::with_capacity(n + 1);
    in_offsets.push(0);
    let mut in_edges: Vec<u32> = Vec::with_capacity(graph.link_count());
    for &p in &pages {
        in_edges.extend(
            graph
                .in_links(p)
                .iter()
                .map(|&q| *index.get(q).expect("in-link source is in the graph")),
        );
        in_offsets.push(in_edges.len());
    }
    let dangling_pages: Vec<usize> =
        (0..n).filter(|&i| out_degree[i] == 0).collect();

    let n_f = n as f64;
    let mut rank = vec![1.0; n];
    let mut next = vec![0.0; n];
    // Each page's outgoing contribution `rank / out_degree`, computed
    // once per iteration instead of once per edge. The per-edge terms
    // stay the exact division the naive loop performed (never a
    // multiply-by-reciprocal, which can differ in the last ulp), and
    // dangling pages never occur as in-link sources, so the `.max(1)`
    // guard changes no reachable value: scores are bit-identical to the
    // per-edge formulation.
    let mut contrib = vec![0.0; n];
    let teleport = 1.0 - config.follow;

    for iteration in 1..=config.max_iterations {
        // Mass parked on dangling pages is spread uniformly.
        let dangling: f64 =
            dangling_pages.iter().map(|&i| rank[i]).sum::<f64>() / n_f;
        for i in 0..n {
            contrib[i] = rank[i] / out_degree[i].max(1) as f64;
        }
        for i in 0..n {
            let link_mass: f64 = in_edges[in_offsets[i]..in_offsets[i + 1]]
                .iter()
                .map(|&j| contrib[j as usize])
                .sum();
            next[i] = teleport + config.follow * (link_mass + dangling);
        }
        let delta: f64 = rank
            .iter()
            .zip(next.iter())
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            / n_f;
        std::mem::swap(&mut rank, &mut next);
        if delta < config.tolerance {
            let scores = pages
                .iter()
                .zip(rank.iter())
                .map(|(&p, &r)| (p, r))
                .collect();
            return Ok(PageRankScores { scores, iterations: iteration });
        }
    }
    Err(Error::NoConvergence { what: "pagerank", iterations: config.max_iterations })
}

/// Estimate the PageRank of a page that is **not** in the collection from
/// the in-links the collection has to it (paper footnote 2: *"even if a
/// page p does not exist in the Collection, the RankingModule can estimate
/// PageRank of p, based on how many pages in the Collection have a link to
/// p"*).
///
/// `in_link_sources` are collection pages known to link to the phantom
/// page. The estimate is one damping step of the PageRank equation using
/// the sources' current scores and out-degrees.
pub fn estimate_uncrawled(
    graph: &PageGraph,
    scores: &PageRankScores,
    in_link_sources: &[PageId],
    config: &PageRankConfig,
) -> f64 {
    let teleport = 1.0 - config.follow;
    let link_mass: f64 = in_link_sources
        .iter()
        .filter(|&&q| graph.contains(q))
        .map(|&q| {
            // The phantom page is one extra out-target of q.
            let d = graph.out_degree(q) + 1;
            scores.get(q) / d as f64
        })
        .sum();
    teleport + config.follow * link_mass
}

#[cfg(test)]
mod tests {
    use super::*;
    use webevo_types::SiteId;

    fn p(i: u64) -> PageId {
        PageId(i)
    }

    fn cycle(n: u64) -> PageGraph {
        let mut g = PageGraph::new();
        for i in 0..n {
            g.add_page(p(i), SiteId(0));
        }
        for i in 0..n {
            g.add_link(p(i), p((i + 1) % n));
        }
        g
    }

    #[test]
    fn empty_graph() {
        let g = PageGraph::new();
        let s = pagerank(&g, &PageRankConfig::conventional()).unwrap();
        assert!(s.is_empty());
    }

    #[test]
    fn cycle_is_uniform() {
        let g = cycle(5);
        let s = pagerank(&g, &PageRankConfig::conventional()).unwrap();
        for i in 0..5 {
            assert!((s.get(p(i)) - 1.0).abs() < 1e-8, "score={}", s.get(p(i)));
        }
    }

    #[test]
    fn scores_average_to_one() {
        let mut g = cycle(4);
        g.add_page(p(10), SiteId(1));
        g.add_link(p(0), p(10));
        g.add_link(p(10), p(2));
        let s = pagerank(&g, &PageRankConfig::conventional()).unwrap();
        let mean: f64 = s.iter().map(|(_, v)| v).sum::<f64>() / s.len() as f64;
        assert!((mean - 1.0).abs() < 1e-8, "mean={mean}");
    }

    #[test]
    fn hub_receives_more_rank() {
        // star: everyone links to page 0; page 0 links back to 1.
        let mut g = PageGraph::new();
        for i in 0..6 {
            g.add_page(p(i), SiteId(0));
        }
        for i in 1..6 {
            g.add_link(p(i), p(0));
        }
        g.add_link(p(0), p(1));
        let s = pagerank(&g, &PageRankConfig::conventional()).unwrap();
        let ranked = s.ranked();
        assert_eq!(ranked[0].0, p(0), "hub should rank first");
        assert!(s.get(p(0)) > s.get(p(2)) * 2.0);
        // Page 1 gets the hub's endorsement, beating 2..5.
        assert!(s.get(p(1)) > s.get(p(2)));
    }

    #[test]
    fn dangling_pages_converge() {
        let mut g = PageGraph::new();
        g.add_page(p(0), SiteId(0));
        g.add_page(p(1), SiteId(0));
        g.add_link(p(0), p(1)); // page 1 dangles
        let s = pagerank(&g, &PageRankConfig::conventional()).unwrap();
        assert!(s.get(p(1)) > s.get(p(0)));
        let mean: f64 = s.iter().map(|(_, v)| v).sum::<f64>() / 2.0;
        assert!((mean - 1.0).abs() < 1e-8);
    }

    #[test]
    fn paper_form_matches_fixed_point() {
        // For the paper's form PR = d + (1-d)*sum, verify the computed
        // scores satisfy the equation on a small asymmetric graph.
        let mut g = cycle(3);
        g.add_link(p(0), p(2));
        let cfg = PageRankConfig::paper_1999();
        let s = pagerank(&g, &cfg).unwrap();
        let d = 0.9; // paper damping; follow = 1 - d
        for i in 0..3u64 {
            let sum: f64 = g
                .in_links(p(i))
                .iter()
                .map(|&q| s.get(q) / g.out_degree(q) as f64)
                .sum();
            let rhs = d + (1.0 - d) * sum;
            assert!((s.get(p(i)) - rhs).abs() < 1e-6, "page {i}");
        }
    }

    #[test]
    fn invalid_follow_rejected() {
        let g = cycle(3);
        let cfg = PageRankConfig { follow: 1.5, ..PageRankConfig::conventional() };
        assert!(pagerank(&g, &cfg).is_err());
    }

    #[test]
    fn lowest_is_discard_candidate() {
        let mut g = PageGraph::new();
        for i in 0..4 {
            g.add_page(p(i), SiteId(0));
        }
        g.add_link(p(1), p(0));
        g.add_link(p(2), p(0));
        g.add_link(p(3), p(0));
        g.add_link(p(0), p(1));
        let s = pagerank(&g, &PageRankConfig::conventional()).unwrap();
        let (low, _) = s.lowest().unwrap();
        assert!(low == p(2) || low == p(3), "unlinked-to pages rank lowest, got {low}");
    }

    #[test]
    fn uncrawled_estimate_scales_with_inlinks() {
        let g = cycle(4);
        let cfg = PageRankConfig::conventional();
        let s = pagerank(&g, &cfg).unwrap();
        let none = estimate_uncrawled(&g, &s, &[], &cfg);
        let one = estimate_uncrawled(&g, &s, &[p(0)], &cfg);
        let two = estimate_uncrawled(&g, &s, &[p(0), p(1)], &cfg);
        assert!((none - 0.15).abs() < 1e-12); // teleport only
        assert!(one > none);
        assert!(two > one);
    }

    #[test]
    fn top_k_breaks_ties_by_ascending_page_id() {
        // A 6-cycle scores every page exactly 1.0: the ordering is decided
        // entirely by the tie-break, which must be ascending PageId no
        // matter how the backing map iterates.
        let g = cycle(6);
        let s = pagerank(&g, &PageRankConfig::conventional()).unwrap();
        let top = s.top_k(4);
        assert_eq!(
            top.iter().map(|&(p, _)| p).collect::<Vec<_>>(),
            [p(0), p(1), p(2), p(3)]
        );
        // k past the population clamps; k = 0 is empty.
        assert_eq!(s.top_k(100).len(), 6);
        assert!(s.top_k(0).is_empty());
        // And the full ranked order equals top_k(len) — one ordering, not two.
        assert_eq!(s.ranked(), s.top_k(s.len()));
    }

    #[test]
    fn deterministic_across_runs() {
        let g = cycle(7);
        let a = pagerank(&g, &PageRankConfig::conventional()).unwrap();
        let b = pagerank(&g, &PageRankConfig::conventional()).unwrap();
        for (p, v) in a.iter() {
            assert_eq!(v, b.get(p));
        }
    }
}
