//! HITS (Hub & Authority) scores \[Kle98\].
//!
//! §5.2 lists "Hub and Authority" alongside PageRank as importance metrics
//! the RankingModule may use. Standard power iteration with L2
//! normalization per step; scores are reported L2-normalized.

use crate::pagegraph::PageGraph;
use webevo_types::{DenseMap, Error, PageId, Result};

/// Parameters for the HITS iteration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HitsConfig {
    /// Convergence threshold on the per-page L1 change of both vectors.
    pub tolerance: f64,
    /// Iteration cap.
    pub max_iterations: usize,
}

impl Default for HitsConfig {
    fn default() -> Self {
        HitsConfig { tolerance: 1e-10, max_iterations: 200 }
    }
}

/// Hub and authority scores per page, each vector L2-normalized.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HitsScores {
    hubs: DenseMap<f64>,
    authorities: DenseMap<f64>,
    iterations: usize,
}

impl HitsScores {
    /// Hub score of a page (0 for unknown).
    pub fn hub(&self, p: PageId) -> f64 {
        self.hubs.get(p).copied().unwrap_or(0.0)
    }

    /// Authority score of a page (0 for unknown).
    pub fn authority(&self, p: PageId) -> f64 {
        self.authorities.get(p).copied().unwrap_or(0.0)
    }

    /// Number of iterations the solve took.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Pages sorted by descending authority.
    pub fn ranked_authorities(&self) -> Vec<(PageId, f64)> {
        let mut v: Vec<_> = self.authorities.iter().map(|(p, &s)| (p, s)).collect();
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("no NaN").then(a.0.cmp(&b.0)));
        v
    }

    /// Pages sorted by descending hub score.
    pub fn ranked_hubs(&self) -> Vec<(PageId, f64)> {
        let mut v: Vec<_> = self.hubs.iter().map(|(p, &s)| (p, s)).collect();
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("no NaN").then(a.0.cmp(&b.0)));
        v
    }
}

/// Run HITS over the whole graph (the "root set" is the graph itself; the
/// crawler applies it to its Collection).
pub fn hits(graph: &PageGraph, config: &HitsConfig) -> Result<HitsScores> {
    let n = graph.page_count();
    if n == 0 {
        return Ok(HitsScores::default());
    }
    let mut pages: Vec<PageId> = graph.pages().collect();
    pages.sort_unstable();
    let index: DenseMap<usize> =
        pages.iter().enumerate().map(|(i, &p)| (p, i)).collect();
    let resolve =
        |q: PageId| *index.get(q).expect("link endpoint is in the graph");
    let out_edges: Vec<Vec<usize>> = pages
        .iter()
        .map(|&p| graph.out_links(p).iter().map(|&q| resolve(q)).collect())
        .collect();
    let in_edges: Vec<Vec<usize>> = pages
        .iter()
        .map(|&p| graph.in_links(p).iter().map(|&q| resolve(q)).collect())
        .collect();

    let norm = |v: &mut [f64]| {
        let s: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        if s > 0.0 {
            for x in v.iter_mut() {
                *x /= s;
            }
        }
    };

    let inv_sqrt_n = 1.0 / (n as f64).sqrt();
    let mut hub = vec![inv_sqrt_n; n];
    let mut auth = vec![inv_sqrt_n; n];
    for iteration in 1..=config.max_iterations {
        let mut new_auth = vec![0.0; n];
        for i in 0..n {
            new_auth[i] = in_edges[i].iter().map(|&j| hub[j]).sum();
        }
        norm(&mut new_auth);
        let mut new_hub = vec![0.0; n];
        for i in 0..n {
            new_hub[i] = out_edges[i].iter().map(|&j| new_auth[j]).sum();
        }
        norm(&mut new_hub);
        let delta: f64 = hub
            .iter()
            .zip(new_hub.iter())
            .chain(auth.iter().zip(new_auth.iter()))
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            / (2.0 * n as f64);
        hub = new_hub;
        auth = new_auth;
        if delta < config.tolerance {
            return Ok(HitsScores {
                hubs: pages.iter().zip(hub.iter()).map(|(&p, &s)| (p, s)).collect(),
                authorities: pages.iter().zip(auth.iter()).map(|(&p, &s)| (p, s)).collect(),
                iterations: iteration,
            });
        }
    }
    Err(Error::NoConvergence { what: "hits", iterations: config.max_iterations })
}

#[cfg(test)]
mod tests {
    use super::*;
    use webevo_types::SiteId;

    fn p(i: u64) -> PageId {
        PageId(i)
    }

    #[test]
    fn empty_graph() {
        let s = hits(&PageGraph::new(), &HitsConfig::default()).unwrap();
        assert_eq!(s.hub(p(0)), 0.0);
    }

    #[test]
    fn star_authority() {
        // Pages 1..5 all link to page 0: page 0 is the authority, 1..5 are
        // equal hubs.
        let mut g = PageGraph::new();
        for i in 0..6 {
            g.add_page(p(i), SiteId(0));
        }
        for i in 1..6 {
            g.add_link(p(i), p(0));
        }
        let s = hits(&g, &HitsConfig::default()).unwrap();
        assert_eq!(s.ranked_authorities()[0].0, p(0));
        assert!((s.authority(p(0)) - 1.0).abs() < 1e-8);
        for i in 1..6 {
            assert!(s.hub(p(i)) > 0.0);
            assert!((s.hub(p(i)) - s.hub(p(1))).abs() < 1e-8, "hubs equal");
        }
        assert!(s.hub(p(0)) < 1e-8);
    }

    #[test]
    fn vectors_are_l2_normalized() {
        let mut g = PageGraph::new();
        for i in 0..4 {
            g.add_page(p(i), SiteId(0));
        }
        g.add_link(p(0), p(1));
        g.add_link(p(1), p(2));
        g.add_link(p(2), p(3));
        g.add_link(p(3), p(0));
        let s = hits(&g, &HitsConfig::default()).unwrap();
        let hub_norm: f64 = (0..4).map(|i| s.hub(p(i)).powi(2)).sum::<f64>().sqrt();
        let auth_norm: f64 = (0..4).map(|i| s.authority(p(i)).powi(2)).sum::<f64>().sqrt();
        assert!((hub_norm - 1.0).abs() < 1e-8);
        assert!((auth_norm - 1.0).abs() < 1e-8);
    }

    #[test]
    fn bipartite_hubs_and_authorities_separate() {
        // Hubs 0,1 each link to authorities 10,11,12.
        let mut g = PageGraph::new();
        for i in [0u64, 1, 10, 11, 12] {
            g.add_page(p(i), SiteId(0));
        }
        for h in [0u64, 1] {
            for a in [10u64, 11, 12] {
                g.add_link(p(h), p(a));
            }
        }
        let s = hits(&g, &HitsConfig::default()).unwrap();
        for h in [0u64, 1] {
            assert!(s.hub(p(h)) > 0.5);
            assert!(s.authority(p(h)) < 1e-8);
        }
        for a in [10u64, 11, 12] {
            assert!(s.authority(p(a)) > 0.5);
            assert!(s.hub(p(a)) < 1e-8);
        }
    }
}
