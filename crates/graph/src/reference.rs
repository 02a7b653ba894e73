//! The PageRank loop as it stood before [`LinkCsr`](crate::LinkCsr) and
//! [`PageRankKernel`](crate::PageRankKernel) (targets grouped by in-degree
//! within blocks of positions, the outgoing terms written by the
//! convergence pass), kept verbatim as the oracle the differential tests
//! hold the kernel to, under the kernel's own block size and under block
//! sizes from one position up: every score bit and the iteration count
//! must match. It reads a plain adjacency list and lays out its own in-lists
//! with std collections, so it shares no code with the structure under
//! test.

use crate::linkcsr::LinkCsr;
use crate::pagerank::{PageRankConfig, PageRankScores};
use std::collections::{BTreeMap, BTreeSet};
use webevo_types::{Error, PageId, Result};

/// The structure under test, built from the `(page, out-links)` lists the
/// reference reads.
pub(crate) fn csr(adjacency: &[(u64, Vec<u64>)]) -> LinkCsr {
    LinkCsr::from_out_links(|| {
        adjacency
            .iter()
            .map(|(page, links)| (PageId(*page), links.iter().map(|&t| PageId(t))))
    })
}

/// The reference solve over `(page, out-links)` lists, pages strictly
/// ascending: scores and iteration count. Links to non-members are
/// dropped and parallel links collapse; a self-link counts once.
pub(crate) fn pagerank(
    adjacency: &[(u64, Vec<u64>)],
    config: &PageRankConfig,
) -> Result<PageRankScores> {
    if !(0.0..=1.0).contains(&config.follow) {
        return Err(Error::invalid(format!(
            "follow probability must be in [0,1], got {}",
            config.follow
        )));
    }
    let n = adjacency.len();
    if n == 0 {
        return Ok(PageRankScores::default());
    }

    let pages: Vec<PageId> = adjacency.iter().map(|&(p, _)| PageId(p)).collect();
    let index: BTreeMap<u64, usize> =
        adjacency.iter().enumerate().map(|(i, &(p, _))| (p, i)).collect();
    // Each source's distinct member targets; each target's sources,
    // ascending.
    let mut out_degree: Vec<usize> = vec![0; n];
    let mut in_lists: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); n];
    for (s, (_, links)) in adjacency.iter().enumerate() {
        let targets: BTreeSet<usize> = links.iter().filter_map(|t| index.get(t).copied()).collect();
        out_degree[s] = targets.len();
        for t in targets {
            in_lists[t].insert(s as u32);
        }
    }
    let mut in_offsets: Vec<usize> = Vec::with_capacity(n + 1);
    in_offsets.push(0);
    let mut in_edges: Vec<u32> = Vec::new();
    for sources in &in_lists {
        in_edges.extend(sources);
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
