//! The PageRank loop as it stood before [`LinkCsr`](crate::LinkCsr) and the
//! degree-bucketed kernel, kept verbatim as the oracle the differential
//! tests hold the kernel to: every score bit and the iteration count must
//! match.

use crate::pagegraph::PageGraph;
use crate::pagerank::{PageRankConfig, PageRankScores};
use webevo_types::{DenseMap, Error, PageId, Result};

/// The reference solve over a [`PageGraph`]: scores and iteration count.
pub(crate) fn pagerank(graph: &PageGraph, config: &PageRankConfig) -> Result<PageRankScores> {
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
            return Ok(PageRankScores::from_parts(scores, iteration));
        }
    }
    Err(Error::NoConvergence { what: "pagerank", iterations: config.max_iterations })
}
