//! Site-level popularity: the paper's modified PageRank for web sites.
//!
//! §2.2: *"we first construct a hypergraph, where the nodes correspond to
//! the web sites and the edges correspond to the links between the sites.
//! Then for this hypergraph, we can define PR value for each node (site)
//! using the same formula."* The site graph collapses every page-level link
//! `p → q` with `site(p) ≠ site(q)` into a site edge; multiple page links
//! between the same pair of sites collapse into one edge, mirroring how the
//! hypergraph abstracts away page multiplicity.

use crate::linkcsr::LinkCsr;
use crate::pagerank::PageRankConfig;
use std::collections::{BTreeMap, BTreeSet};
use webevo_types::{Error, PageId, Result, SiteId};

/// A directed graph over sites, collapsed from a page-level link
/// structure. Sites are held in ascending id order and every per-site
/// vector is indexed by a site's position in that order, so iteration is
/// deterministic by construction.
#[derive(Clone, Debug, Default)]
pub struct SiteGraph {
    /// Sites with at least one member page, ascending.
    sites: Vec<SiteId>,
    /// Number of distinct out-neighbors of each site.
    out_degree: Vec<usize>,
    /// In-neighbor positions of each site, ascending.
    inc: Vec<Vec<usize>>,
}

impl SiteGraph {
    /// Collapse a page-level link structure into its site hypergraph;
    /// `site_of` names each member page's site. Intra-site links are
    /// dropped; inter-site page links become (de-duplicated) site edges.
    pub fn from_links(links: &LinkCsr, site_of: impl Fn(PageId) -> SiteId) -> SiteGraph {
        let page_site: Vec<SiteId> = links.pages().iter().map(|&p| site_of(p)).collect();
        let mut sites = page_site.clone();
        sites.sort_unstable();
        sites.dedup();
        let slot: Vec<usize> =
            page_site.iter().map(|s| sites.partition_point(|x| x < s)).collect();
        let mut out = vec![BTreeSet::new(); sites.len()];
        let mut inc = vec![BTreeSet::new(); sites.len()];
        for (to_page, &to) in slot.iter().enumerate() {
            for &from_page in links.in_sources(to_page) {
                let from = slot[from_page as usize];
                if from != to {
                    out[from].insert(to);
                    inc[to].insert(from);
                }
            }
        }
        SiteGraph {
            sites,
            out_degree: out.iter().map(BTreeSet::len).collect(),
            inc: inc.into_iter().map(|s| s.into_iter().collect()).collect(),
        }
    }

    /// Number of sites.
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// Number of inter-site edges.
    pub fn edge_count(&self) -> usize {
        self.out_degree.iter().sum()
    }

    /// Sites in ascending id order.
    pub fn sites(&self) -> &[SiteId] {
        &self.sites
    }

    /// Out-degree of a site (0 for a site that is not in the graph).
    pub fn out_degree(&self, s: SiteId) -> usize {
        self.sites.binary_search(&s).map_or(0, |i| self.out_degree[i])
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
    let n_f = n as f64;
    let teleport = 1.0 - config.follow;
    let mut rank = vec![1.0; n];
    let mut next = vec![0.0; n];
    for _iteration in 1..=config.max_iterations {
        let dangling: f64 = (0..n)
            .filter(|&i| sg.out_degree[i] == 0)
            .map(|i| rank[i])
            .sum::<f64>()
            / n_f;
        for (score, inc) in next.iter_mut().zip(&sg.inc) {
            let mass: f64 = inc.iter().map(|&j| rank[j] / sg.out_degree[j] as f64).sum();
            *score = teleport + config.follow * (mass + dangling);
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
    v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::csr;

    /// Pages `10·k .. 10·k + 9` belong to site `k`.
    fn site_of(p: PageId) -> SiteId {
        SiteId((p.0 / 10) as u32)
    }

    fn site_graph(adjacency: &[(u64, Vec<u64>)]) -> SiteGraph {
        SiteGraph::from_links(&csr(adjacency), site_of)
    }

    fn two_site_graph() -> SiteGraph {
        // Site 0: pages 0,1.  Site 1: pages 10,11.
        // Inter-site: 0->10, 1->10 (collapse to one edge 0=>1), 10->0;
        // 0->1 is intra-site and dropped.
        site_graph(&[(0, vec![1, 10]), (1, vec![10]), (10, vec![0]), (11, vec![])])
    }

    #[test]
    fn collapse_dedups_and_drops_intra_site() {
        let sg = two_site_graph();
        assert_eq!(sg.site_count(), 2);
        assert_eq!(sg.edge_count(), 2); // 0=>1 and 1=>0
        assert_eq!(sg.out_degree(SiteId(0)), 1);
        assert_eq!(sg.out_degree(SiteId(1)), 1);
    }

    #[test]
    fn site_rank_symmetric_cycle_is_uniform() {
        let scores = site_pagerank(&two_site_graph(), &PageRankConfig::conventional()).unwrap();
        assert!((scores[&SiteId(0)] - 1.0).abs() < 1e-8);
        assert!((scores[&SiteId(1)] - 1.0).abs() < 1e-8);
    }

    #[test]
    fn popular_site_ranks_first() {
        // Three sites; sites 1 and 2 both link to site 0, site 0 links to 1.
        let sg = site_graph(&[(0, vec![10]), (10, vec![0]), (20, vec![0])]);
        let scores = site_pagerank(&sg, &PageRankConfig::conventional()).unwrap();
        let ranked = rank_sites(&scores);
        assert_eq!(ranked[0].0, SiteId(0));
    }

    #[test]
    fn empty_site_graph() {
        let sg = site_graph(&[]);
        assert_eq!(sg.site_count(), 0);
        assert!(site_pagerank(&sg, &PageRankConfig::conventional())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn scores_average_to_one() {
        let sg = site_graph(&[(0, vec![]), (10, vec![0]), (20, vec![0]), (30, vec![20])]);
        let scores = site_pagerank(&sg, &PageRankConfig::paper_1999()).unwrap();
        let mean: f64 = scores.values().sum::<f64>() / scores.len() as f64;
        assert!((mean - 1.0).abs() < 1e-8, "mean={mean}");
    }
}
