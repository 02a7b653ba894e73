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
use crate::pagerank::{PageRankConfig, PageRankKernel};
use std::collections::BTreeMap;
use webevo_types::{PageId, Result, SiteId};

/// A directed graph over sites, collapsed from a page-level link
/// structure. Sites are held in ascending id order, and the site edges are
/// a [`LinkCsr`] whose member `PageId(i)` is the site at position `i`, so
/// iteration is deterministic by construction.
#[derive(Clone, Debug, Default)]
pub struct SiteGraph {
    /// Sites with at least one member page, ascending.
    sites: Vec<SiteId>,
    /// The de-duplicated site edges, over site positions.
    links: LinkCsr,
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
        let slot: Vec<u32> =
            page_site.iter().map(|s| sites.partition_point(|x| x < s) as u32).collect();
        // Each site's inter-site targets, repeats included: the link
        // structure collapses parallel edges.
        let mut out = vec![Vec::new(); sites.len()];
        for (to_page, &to) in slot.iter().enumerate() {
            for &from_page in links.in_sources(to_page) {
                let from = slot[from_page as usize];
                if from != to {
                    out[from as usize].push(to);
                }
            }
        }
        let links = LinkCsr::from_out_links(|| {
            out.iter().enumerate().map(|(from, targets)| {
                (PageId(from as u64), targets.iter().map(|&to| PageId(u64::from(to))))
            })
        });
        SiteGraph { sites, links }
    }

    /// Number of sites.
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// Sites in ascending id order.
    pub fn sites(&self) -> &[SiteId] {
        &self.sites
    }

    /// Out-degree of a site (0 for a site that is not in the graph).
    pub fn out_degree(&self, s: SiteId) -> usize {
        self.sites.binary_search(&s).map_or(0, |i| self.links.out_degree(i))
    }
}

/// Site-level PageRank over the collapsed hypergraph — the popularity
/// measure the paper used to pick the 400 candidate sites. It is the
/// page-level [`PageRankKernel`] solved over the site edges: §2.2's "same
/// formula".
///
/// Scores average to 1 across sites. Dangling sites redistribute uniformly.
pub fn site_pagerank(sg: &SiteGraph, config: &PageRankConfig) -> Result<BTreeMap<SiteId, f64>> {
    let mut kernel = PageRankKernel::default();
    kernel.solve(&sg.links, config)?;
    Ok(sg.sites.iter().copied().zip(kernel.scores().iter().copied()).collect())
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
    use crate::reference::{self, csr};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

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
        assert_eq!(sg.out_degree(SiteId(0)), 1); // 0=>1
        assert_eq!(sg.out_degree(SiteId(1)), 1); // 1=>0
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

    /// The collapsed site adjacency of a page graph, built with std
    /// collections: the sites in ascending order, and each site position's
    /// distinct inter-site target positions. Links to non-members are
    /// dropped, as the page-level link structure drops them.
    fn collapsed(adjacency: &[(u64, Vec<u64>)]) -> (Vec<SiteId>, Vec<(u64, Vec<u64>)>) {
        let members: BTreeSet<u64> = adjacency.iter().map(|&(p, _)| p).collect();
        let sites: Vec<SiteId> = members
            .iter()
            .map(|&p| site_of(PageId(p)))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let position = |p: u64| sites.binary_search(&site_of(PageId(p))).unwrap() as u64;
        let mut out = vec![BTreeSet::new(); sites.len()];
        for (page, links) in adjacency {
            for &target in links.iter().filter(|t| members.contains(t)) {
                if position(*page) != position(target) {
                    out[position(*page) as usize].insert(position(target));
                }
            }
        }
        let lists = out.into_iter().enumerate().map(|(s, t)| (s as u64, t.into_iter().collect()));
        (sites, lists.collect())
    }

    proptest! {
        /// On random page graphs — intra-site, parallel, non-member and
        /// dangling links — the site scores equal the reference loop's on
        /// the collapsed site adjacency bit for bit, or both solves fail
        /// (a 2-iteration cap).
        #[test]
        fn site_rank_matches_reference_on_collapsed_adjacency(
            lists in prop::collection::vec(
                (0u64..60, prop::collection::vec(0u64..70, 0..8)),
                0..24,
            ),
            form in 0usize..3,
        ) {
            let mut adjacency = lists;
            adjacency.sort_by_key(|&(page, _)| page);
            adjacency.dedup_by_key(|(page, _)| *page);
            let cfg = match form {
                0 => PageRankConfig::conventional(),
                1 => PageRankConfig::paper_1999(),
                _ => PageRankConfig { max_iterations: 2, ..PageRankConfig::conventional() },
            };
            let (sites, site_adjacency) = collapsed(&adjacency);
            let new = site_pagerank(&site_graph(&adjacency), &cfg);
            match (new, reference::pagerank(&site_adjacency, &cfg)) {
                (Ok(new), Ok(old)) => {
                    prop_assert_eq!(new.keys().copied().collect::<Vec<_>>(), sites);
                    let new_bits: Vec<u64> = new.values().map(|v| v.to_bits()).collect();
                    let old_bits: Vec<u64> = old.iter().map(|(_, v)| v.to_bits()).collect();
                    prop_assert_eq!(new_bits, old_bits);
                }
                (Err(_), Err(_)) => {}
                (new, old) => panic!("site kernel {new:?} vs reference {old:?}"),
            }
        }
    }
}
