//! Site-level popularity: the paper's modified PageRank for web sites.
//!
//! §2.2: *"we first construct a hypergraph, where the nodes correspond to
//! the web sites and the edges correspond to the links between the sites.
//! Then for this hypergraph, we can define PR value for each node (site)
//! using the same formula."* The site graph collapses every page-level link
//! `p → q` with `site(p) ≠ site(q)` into a site edge; multiple page links
//! between the same pair of sites collapse into one edge, mirroring how the
//! hypergraph abstracts away page multiplicity.

use crate::pagegraph::PageGraph;
use crate::pagerank::PageRankConfig;
use std::collections::{BTreeMap, BTreeSet};
use webevo_types::{Error, Result, SiteId};

/// A directed graph over sites, collapsed from a page graph. Adjacency is
/// kept in ordered maps so neighbor iteration is deterministic by
/// construction.
#[derive(Clone, Debug, Default)]
pub struct SiteGraph {
    out: BTreeMap<SiteId, BTreeSet<SiteId>>,
    inc: BTreeMap<SiteId, BTreeSet<SiteId>>,
    sites: Vec<SiteId>,
}

impl SiteGraph {
    /// Collapse a page graph into its site hypergraph. Intra-site links are
    /// dropped; inter-site page links become (de-duplicated) site edges.
    pub fn from_page_graph(graph: &PageGraph) -> SiteGraph {
        let mut sg = SiteGraph::default();
        let mut seen: BTreeSet<SiteId> = BTreeSet::new();
        for p in graph.pages() {
            let s = graph.site_of(p).expect("iterating existing pages");
            if seen.insert(s) {
                sg.sites.push(s);
            }
        }
        sg.sites.sort_unstable();
        for (from, to) in graph.links() {
            let sf = graph.site_of(from).expect("link source exists");
            let st = graph.site_of(to).expect("link target exists");
            if sf != st {
                sg.out.entry(sf).or_default().insert(st);
                sg.inc.entry(st).or_default().insert(sf);
            }
        }
        sg
    }

    /// Number of sites.
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// Number of inter-site edges.
    pub fn edge_count(&self) -> usize {
        self.out.values().map(|s| s.len()).sum()
    }

    /// Sites in ascending id order.
    pub fn sites(&self) -> &[SiteId] {
        &self.sites
    }

    /// Out-neighbors of a site.
    pub fn out_neighbors(&self, s: SiteId) -> impl Iterator<Item = SiteId> + '_ {
        self.out.get(&s).into_iter().flatten().copied()
    }

    /// In-neighbors of a site.
    pub fn in_neighbors(&self, s: SiteId) -> impl Iterator<Item = SiteId> + '_ {
        self.inc.get(&s).into_iter().flatten().copied()
    }

    /// Out-degree of a site.
    pub fn out_degree(&self, s: SiteId) -> usize {
        self.out.get(&s).map(|v| v.len()).unwrap_or(0)
    }
}

/// Site-level PageRank over the collapsed hypergraph — the popularity
/// measure the paper used to pick the 400 candidate sites.
///
/// Scores average to 1 across sites. Dangling sites redistribute uniformly.
pub fn site_pagerank(sg: &SiteGraph, config: &PageRankConfig) -> Result<BTreeMap<SiteId, f64>> {
    let n = sg.site_count();
    if n == 0 {
        return Ok(BTreeMap::new());
    }
    // `sites` is sorted, so a binary search replaces a site→slot map.
    let index = |q: SiteId| {
        sg.sites.binary_search(&q).expect("neighbor is a known site")
    };
    let out_degree: Vec<usize> = sg.sites.iter().map(|&s| sg.out_degree(s)).collect();
    let in_edges: Vec<Vec<usize>> = sg
        .sites
        .iter()
        .map(|&s| {
            let mut v: Vec<usize> = sg.in_neighbors(s).map(index).collect();
            v.sort_unstable();
            v
        })
        .collect();

    let n_f = n as f64;
    let teleport = 1.0 - config.follow;
    let mut rank = vec![1.0; n];
    let mut next = vec![0.0; n];
    for _iteration in 1..=config.max_iterations {
        let dangling: f64 = (0..n)
            .filter(|&i| out_degree[i] == 0)
            .map(|i| rank[i])
            .sum::<f64>()
            / n_f;
        for i in 0..n {
            let mass: f64 = in_edges[i]
                .iter()
                .map(|&j| rank[j] / out_degree[j] as f64)
                .sum();
            next[i] = teleport + config.follow * (mass + dangling);
        }
        let delta: f64 = rank
            .iter()
            .zip(next.iter())
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            / n_f;
        std::mem::swap(&mut rank, &mut next);
        if delta < config.tolerance {
            return Ok(sg
                .sites
                .iter()
                .zip(rank.iter())
                .map(|(&s, &r)| (s, r))
                .collect());
        }
    }
    Err(Error::NoConvergence { what: "site pagerank", iterations: config.max_iterations })
}

/// Rank sites by popularity, descending (ties by id). This is the ordering
/// from which the paper took its "top 400 candidate sites".
pub fn rank_sites(scores: &BTreeMap<SiteId, f64>) -> Vec<(SiteId, f64)> {
    let mut v: Vec<(SiteId, f64)> = scores.iter().map(|(&s, &r)| (s, r)).collect();
    v.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("no NaN").then(a.0.cmp(&b.0)));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use webevo_types::PageId;

    fn build_two_site_graph() -> PageGraph {
        // Site 0: pages 0,1.  Site 1: pages 10,11.
        // Inter-site: 0->10, 1->10 (collapse to one edge 0=>1), 10->0.
        let mut g = PageGraph::new();
        g.add_page(PageId(0), SiteId(0));
        g.add_page(PageId(1), SiteId(0));
        g.add_page(PageId(10), SiteId(1));
        g.add_page(PageId(11), SiteId(1));
        g.add_link(PageId(0), PageId(1)); // intra-site, dropped
        g.add_link(PageId(0), PageId(10));
        g.add_link(PageId(1), PageId(10));
        g.add_link(PageId(10), PageId(0));
        g
    }

    #[test]
    fn collapse_dedups_and_drops_intra_site() {
        let g = build_two_site_graph();
        let sg = SiteGraph::from_page_graph(&g);
        assert_eq!(sg.site_count(), 2);
        assert_eq!(sg.edge_count(), 2); // 0=>1 and 1=>0
        assert_eq!(sg.out_degree(SiteId(0)), 1);
        assert_eq!(sg.out_degree(SiteId(1)), 1);
    }

    #[test]
    fn site_rank_symmetric_cycle_is_uniform() {
        let g = build_two_site_graph();
        let sg = SiteGraph::from_page_graph(&g);
        let scores = site_pagerank(&sg, &PageRankConfig::conventional()).unwrap();
        assert!((scores[&SiteId(0)] - 1.0).abs() < 1e-8);
        assert!((scores[&SiteId(1)] - 1.0).abs() < 1e-8);
    }

    #[test]
    fn popular_site_ranks_first() {
        // Three sites; sites 1 and 2 both link to site 0, site 0 links to 1.
        let mut g = PageGraph::new();
        for (page, site) in [(0u64, 0u32), (1, 1), (2, 2)] {
            g.add_page(PageId(page), SiteId(site));
        }
        g.add_link(PageId(1), PageId(0));
        g.add_link(PageId(2), PageId(0));
        g.add_link(PageId(0), PageId(1));
        let sg = SiteGraph::from_page_graph(&g);
        let scores = site_pagerank(&sg, &PageRankConfig::conventional()).unwrap();
        let ranked = rank_sites(&scores);
        assert_eq!(ranked[0].0, SiteId(0));
    }

    #[test]
    fn empty_site_graph() {
        let sg = SiteGraph::from_page_graph(&PageGraph::new());
        assert_eq!(sg.site_count(), 0);
        assert!(site_pagerank(&sg, &PageRankConfig::conventional())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn scores_average_to_one() {
        let mut g = PageGraph::new();
        for (page, site) in [(0u64, 0u32), (1, 1), (2, 2), (3, 3)] {
            g.add_page(PageId(page), SiteId(site));
        }
        g.add_link(PageId(1), PageId(0));
        g.add_link(PageId(2), PageId(0));
        g.add_link(PageId(3), PageId(2));
        let sg = SiteGraph::from_page_graph(&g);
        let scores = site_pagerank(&sg, &PageRankConfig::paper_1999()).unwrap();
        let mean: f64 = scores.values().sum::<f64>() / scores.len() as f64;
        assert!((mean - 1.0).abs() < 1e-8, "mean={mean}");
    }
}
