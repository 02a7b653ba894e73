//! PageRank over a [`LinkCsr`].
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
//!
//! There is one kernel, [`PageRankKernel`]; [`pagerank`] and the crawler's
//! RankingModule both run it. Its layout is chosen for the cache (targets
//! grouped by in-degree within blocks of 4,096 positions, the outgoing
//! terms written by the convergence pass), its arithmetic is not: a page's
//! next score reads only its own in-link terms, in the link structure's
//! order, so blocks change which page is computed when, never what is
//! added to what, and the scores and iteration count equal the plain
//! loop's bit for bit at any block size.

use crate::linkcsr::LinkCsr;
use webevo_types::{DenseMap, Error, PageId, Result};

/// Positions per block of [`PageRankKernel`]'s in-degree grouping: one
/// block's `next` scores are a 32 KB slab, so a group's gather writes stay
/// in cache.
const BLOCK: usize = 4096;

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
    /// Scores from their parts.
    pub(crate) fn from_parts(scores: DenseMap<f64>, iterations: usize) -> PageRankScores {
        PageRankScores { scores, iterations }
    }

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
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
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

    /// Number of scored pages.
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// True if no pages were scored.
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }
}

/// Compute PageRank over a built link structure, keyed by page.
///
/// Returns scores averaging 1. An empty structure yields empty scores.
pub fn pagerank(links: &LinkCsr, config: &PageRankConfig) -> Result<PageRankScores> {
    let mut kernel = PageRankKernel::default();
    let iterations = kernel.solve(links, config)?;
    let scores = links.pages().iter().copied().zip(kernel.scores().iter().copied()).collect();
    Ok(PageRankScores::from_parts(scores, iterations))
}

/// The PageRank power iteration over a [`LinkCsr`], with its working
/// memory, so a caller that solves every pass reuses the buffers.
///
/// Once per solve the targets are grouped by in-degree within consecutive
/// blocks of 4,096 positions, each group's sources laid out
/// contiguously, so the in-link gather of one group runs a fixed trip
/// count (unrolled for in-degrees up to 8) instead of exiting a
/// data-dependent loop at every page, and writes `next` inside one
/// block's slab of it instead of sweeping the whole array once per
/// degree. After the gather, one ascending pass over the positions adds
/// each page's `|rank − next|` to the convergence sum and writes the next
/// iteration's outgoing terms from `next`; the first iteration's terms are
/// computed before the loop.
///
/// Nothing else about the arithmetic moves: each page's next score is
/// computed from its own in-link terms alone, added in the structure's
/// order, starting from zero, so neither the block a page falls in nor
/// the order in which groups are gathered can change it; each term is the
/// exact division `rank / out_degree` (the out-degree converted to `f64`
/// once per solve, never a multiply-by-reciprocal, which can differ in the
/// last ulp); and the dangling and convergence sums run in ascending
/// position order — so the scores and the iteration count are
/// bit-identical to the page-at-a-time loop this replaced.
#[derive(Clone, Debug, Default)]
pub struct PageRankKernel {
    rank: Vec<f64>,
    next: Vec<f64>,
    /// Each page's outgoing term `rank / out_degree` for the iteration
    /// about to run.
    contrib: Vec<f64>,
    /// `max(out_degree, 1)` as `f64`. Dangling pages never occur as in-link
    /// sources, so the guard changes no reachable term.
    divisor: Vec<f64>,
    /// Positions of the pages without out-links, ascending.
    dangling: Vec<u32>,
    /// Target positions grouped by in-degree within each block: blocks in
    /// position order, ascending degree within a block, ascending position
    /// within a group.
    targets: Vec<u32>,
    /// The grouped targets' in-link sources, `degree` per target, in
    /// `targets` order.
    sources: Vec<u32>,
    /// `(in-degree, number of targets)` per group, in `targets` order.
    groups: Vec<(usize, usize)>,
}

impl PageRankKernel {
    /// Solve `links` under `config`; returns the iteration count. The
    /// scores are then [`PageRankKernel::scores`].
    pub fn solve(&mut self, links: &LinkCsr, config: &PageRankConfig) -> Result<usize> {
        self.solve_in_blocks(links, config, BLOCK)
    }

    /// [`PageRankKernel::solve`] with the targets grouped within blocks of
    /// `block` positions.
    fn solve_in_blocks(
        &mut self,
        links: &LinkCsr,
        config: &PageRankConfig,
        block: usize,
    ) -> Result<usize> {
        if !(0.0..=1.0).contains(&config.follow) {
            return Err(Error::invalid(format!(
                "follow probability must be in [0,1], got {}",
                config.follow
            )));
        }
        let n = links.page_count();
        reset(&mut self.rank, n, 1.0);
        if n == 0 {
            return Ok(0);
        }
        self.group_by_in_degree(links, block);
        reset(&mut self.next, n, 0.0);
        self.contrib.clear();
        self.contrib.extend(self.rank.iter().zip(&self.divisor).map(|(&r, &d)| r / d));
        let n_f = n as f64;
        let teleport = 1.0 - config.follow;

        for iteration in 1..=config.max_iterations {
            // Mass parked on dangling pages is spread uniformly.
            let rank = &self.rank;
            let dangling: f64 =
                self.dangling.iter().map(|&i| rank[i as usize]).sum::<f64>() / n_f;
            let step = Step { contrib: &self.contrib, teleport, follow: config.follow, dangling };
            let (mut t, mut s) = (0, 0);
            for &(degree, count) in &self.groups {
                let targets = &self.targets[t..t + count];
                let sources = &self.sources[s..s + degree * count];
                let next = &mut self.next;
                match degree {
                    0 => targets.iter().for_each(|&i| next[i as usize] = step.page(&[])),
                    1 => step.gather::<1>(targets, sources, next),
                    2 => step.gather::<2>(targets, sources, next),
                    3 => step.gather::<3>(targets, sources, next),
                    4 => step.gather::<4>(targets, sources, next),
                    5 => step.gather::<5>(targets, sources, next),
                    6 => step.gather::<6>(targets, sources, next),
                    7 => step.gather::<7>(targets, sources, next),
                    8 => step.gather::<8>(targets, sources, next),
                    _ => {
                        for (&i, srcs) in targets.iter().zip(sources.chunks_exact(degree)) {
                            next[i as usize] = step.page(srcs);
                        }
                    }
                }
                t += count;
                s += degree * count;
            }
            // The convergence sum, and the next iteration's outgoing terms.
            let mut change = 0.0;
            for (((c, &r), &x), &d) in
                self.contrib.iter_mut().zip(&self.rank).zip(&self.next).zip(&self.divisor)
            {
                change += (r - x).abs();
                *c = x / d;
            }
            let delta = change / n_f;
            std::mem::swap(&mut self.rank, &mut self.next);
            if delta < config.tolerance {
                return Ok(iteration);
            }
        }
        Err(Error::NoConvergence { what: "pagerank", iterations: config.max_iterations })
    }

    /// The scores of the last successful solve, in `links.pages()` order.
    pub fn scores(&self) -> &[f64] {
        &self.rank
    }

    /// The per-solve layout: divisors, dangling pages, and the targets and
    /// their sources grouped by in-degree within each block of `block`
    /// positions (a counting sort on degree per block).
    fn group_by_in_degree(&mut self, links: &LinkCsr, block: usize) {
        let n = links.page_count();
        self.divisor.clear();
        self.divisor.extend((0..n).map(|i| links.out_degree(i).max(1) as f64));
        self.dangling.clear();
        self.dangling.extend((0..n as u32).filter(|&i| links.out_degree(i as usize) == 0));

        let degree = |i: usize| links.in_sources(i).len();
        // One counting buffer for every block, allocated before `targets`
        // grows. Allocated after it, the buffer moved the heap's layout
        // enough to raise `steady-rank`'s peak RSS by 3% on some seeds.
        let mut counts = vec![0usize; (0..n).map(degree).max().unwrap_or(0) + 1];
        self.groups.clear();
        reset(&mut self.targets, n, 0);
        for first in (0..n).step_by(block) {
            let positions = first..(first + block).min(n);
            let max_degree = positions.clone().map(degree).max().unwrap_or(0);
            let start = &mut counts[..=max_degree];
            start.fill(0);
            for i in positions.clone() {
                start[degree(i)] += 1;
            }
            self.groups
                .extend(start.iter().enumerate().filter(|&(_, &c)| c > 0).map(|(d, &c)| (d, c)));
            let mut slot = first;
            for entry in start.iter_mut() {
                let count = *entry;
                *entry = slot;
                slot += count;
            }
            for i in positions {
                let d = degree(i);
                self.targets[start[d]] = i as u32;
                start[d] += 1;
            }
        }
        self.sources.clear();
        for &t in &self.targets {
            self.sources.extend_from_slice(links.in_sources(t as usize));
        }
    }
}

/// Clear `v` and refill it with `n` copies of `value`, keeping its
/// allocation.
fn reset<T: Copy>(v: &mut Vec<T>, n: usize, value: T) {
    v.clear();
    v.resize(n, value);
}

/// What one iteration's gather reads.
struct Step<'a> {
    contrib: &'a [f64],
    teleport: f64,
    follow: f64,
    dangling: f64,
}

impl Step<'_> {
    /// The next score of a page with in-link sources `srcs`.
    #[inline(always)]
    fn page(&self, srcs: &[u32]) -> f64 {
        let link_mass: f64 = srcs.iter().map(|&j| self.contrib[j as usize]).sum();
        self.teleport + self.follow * (link_mass + self.dangling)
    }

    /// One group of targets with exactly `D` in-links each.
    #[inline(always)]
    fn gather<const D: usize>(&self, targets: &[u32], sources: &[u32], next: &mut [f64]) {
        for (&i, srcs) in targets.iter().zip(sources.chunks_exact(D)) {
            next[i as usize] = self.page(srcs);
        }
    }
}

/// Estimate the PageRank of a page that is **not** in the collection from
/// the in-links the collection has to it (paper footnote 2: *"even if a
/// page p does not exist in the Collection, the RankingModule can estimate
/// PageRank of p, based on how many pages in the Collection have a link to
/// p"*).
///
/// `in_link_sources` are pages known to link to the phantom page; those
/// that are not members of `links` are ignored. `scores` are the members'
/// current scores in `links.pages()` order. The estimate is one damping
/// step of the PageRank equation using the sources' scores and out-degrees.
pub fn estimate_uncrawled(
    links: &LinkCsr,
    scores: &[f64],
    in_link_sources: &[PageId],
    config: &PageRankConfig,
) -> f64 {
    let teleport = 1.0 - config.follow;
    let link_mass: f64 = in_link_sources
        .iter()
        .filter_map(|&q| links.position(q))
        .map(|i| {
            // The phantom page is one extra out-target of q.
            let d = links.out_degree(i) + 1;
            scores[i] / d as f64
        })
        .sum();
    teleport + config.follow * link_mass
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{self, csr};
    use proptest::prelude::*;

    fn p(i: u64) -> PageId {
        PageId(i)
    }

    fn cycle(n: u64) -> Vec<(u64, Vec<u64>)> {
        (0..n).map(|i| (i, vec![(i + 1) % n])).collect()
    }

    /// The block sizes every differential test solves under: the default,
    /// and sizes that leave partial blocks on the smallest graphs.
    const BLOCKS: [usize; 5] = [1, 2, 3, 5, BLOCK];

    /// Scores and iteration count of one `kernel` solve under `block`
    /// equal to the reference loop's, bit for bit (or both solves failing).
    fn assert_solve_matches(
        kernel: &mut PageRankKernel,
        adjacency: &[(u64, Vec<u64>)],
        cfg: &PageRankConfig,
        block: usize,
    ) {
        let links = csr(adjacency);
        match (kernel.solve_in_blocks(&links, cfg, block), reference::pagerank(adjacency, cfg)) {
            (Ok(iterations), Ok(old)) => {
                assert_eq!(iterations, old.iterations(), "block {block}");
                let new: Vec<(PageId, u64)> = links
                    .pages()
                    .iter()
                    .zip(kernel.scores())
                    .map(|(&p, v)| (p, v.to_bits()))
                    .collect();
                let old: Vec<(PageId, u64)> = old.iter().map(|(p, v)| (p, v.to_bits())).collect();
                assert_eq!(new, old, "block {block}");
            }
            (Err(_), Err(_)) => {}
            (new, old) => panic!("block {block}: kernel {new:?} vs reference {old:?}"),
        }
    }

    /// [`assert_solve_matches`] under every size in [`BLOCKS`], each on a
    /// fresh kernel.
    fn assert_matches_reference(adjacency: &[(u64, Vec<u64>)], cfg: &PageRankConfig) {
        for block in BLOCKS {
            assert_solve_matches(&mut PageRankKernel::default(), adjacency, cfg, block);
        }
    }

    /// `n` pages with ids `0, 3, 6, …`, each with a pseudo-random list of
    /// out-links (some to non-members), every tenth page dangling.
    fn scattered(n: u64, seed: u64) -> Vec<(u64, Vec<u64>)> {
        let mut state = seed;
        let mut draw = |bound: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        (0..n)
            .map(|i| {
                let out = if i % 10 == 9 { 0 } else { 1 + draw(6) };
                (3 * i, (0..out).map(|_| draw(3 * n + 4)).collect())
            })
            .collect()
    }

    #[test]
    fn empty_graph() {
        let s = pagerank(&csr(&[]), &PageRankConfig::conventional()).unwrap();
        assert!(s.is_empty());
    }

    #[test]
    fn cycle_is_uniform() {
        let s = pagerank(&csr(&cycle(5)), &PageRankConfig::conventional()).unwrap();
        for i in 0..5 {
            assert!((s.get(p(i)) - 1.0).abs() < 1e-8, "score={}", s.get(p(i)));
        }
    }

    #[test]
    fn scores_average_to_one() {
        let mut g = cycle(4);
        g[0].1.push(10);
        g.push((10, vec![2]));
        let s = pagerank(&csr(&g), &PageRankConfig::conventional()).unwrap();
        let mean: f64 = s.iter().map(|(_, v)| v).sum::<f64>() / s.len() as f64;
        assert!((mean - 1.0).abs() < 1e-8, "mean={mean}");
    }

    #[test]
    fn hub_receives_more_rank() {
        // star: everyone links to page 0; page 0 links back to 1.
        let g: Vec<_> = (0..6).map(|i| (i, vec![if i == 0 { 1 } else { 0 }])).collect();
        let s = pagerank(&csr(&g), &PageRankConfig::conventional()).unwrap();
        let ranked = s.ranked();
        assert_eq!(ranked[0].0, p(0), "hub should rank first");
        assert!(s.get(p(0)) > s.get(p(2)) * 2.0);
        // Page 1 gets the hub's endorsement, beating 2..5.
        assert!(s.get(p(1)) > s.get(p(2)));
    }

    #[test]
    fn dangling_pages_converge() {
        // Page 1 dangles.
        let s = pagerank(&csr(&[(0, vec![1]), (1, vec![])]), &PageRankConfig::conventional())
            .unwrap();
        assert!(s.get(p(1)) > s.get(p(0)));
        let mean: f64 = s.iter().map(|(_, v)| v).sum::<f64>() / 2.0;
        assert!((mean - 1.0).abs() < 1e-8);
    }

    #[test]
    fn paper_form_matches_fixed_point() {
        // For the paper's form PR = d + (1-d)*sum, verify the computed
        // scores satisfy the equation on a small asymmetric graph.
        let mut g = cycle(3);
        g[0].1.push(2);
        let links = csr(&g);
        let cfg = PageRankConfig::paper_1999();
        let s = pagerank(&links, &cfg).unwrap();
        let d = 0.9; // paper damping; follow = 1 - d
        for i in 0..3 {
            let sum: f64 = links
                .in_sources(i)
                .iter()
                .map(|&j| s.get(links.pages()[j as usize]) / links.out_degree(j as usize) as f64)
                .sum();
            let rhs = d + (1.0 - d) * sum;
            assert!((s.get(p(i as u64)) - rhs).abs() < 1e-6, "page {i}");
        }
    }

    #[test]
    fn invalid_follow_rejected() {
        let cfg = PageRankConfig { follow: 1.5, ..PageRankConfig::conventional() };
        assert!(pagerank(&csr(&cycle(3)), &cfg).is_err());
    }

    #[test]
    fn uncrawled_estimate_scales_with_inlinks() {
        let links = csr(&cycle(4));
        let cfg = PageRankConfig::conventional();
        let mut kernel = PageRankKernel::default();
        kernel.solve(&links, &cfg).unwrap();
        let s = kernel.scores();
        let none = estimate_uncrawled(&links, s, &[], &cfg);
        let one = estimate_uncrawled(&links, s, &[p(0)], &cfg);
        let two = estimate_uncrawled(&links, s, &[p(0), p(1)], &cfg);
        assert!((none - 0.15).abs() < 1e-12); // teleport only
        assert!(one > none);
        assert!(two > one);
        // A non-member source carries no evidence.
        assert_eq!(estimate_uncrawled(&links, s, &[p(0), p(9)], &cfg), one);
    }

    #[test]
    fn top_k_breaks_ties_by_ascending_page_id() {
        // A 6-cycle scores every page exactly 1.0: the ordering is decided
        // entirely by the tie-break, which must be ascending PageId no
        // matter how the backing map iterates.
        let s = pagerank(&csr(&cycle(6)), &PageRankConfig::conventional()).unwrap();
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
        let links = csr(&cycle(7));
        let a = pagerank(&links, &PageRankConfig::conventional()).unwrap();
        let b = pagerank(&links, &PageRankConfig::conventional()).unwrap();
        for (p, v) in a.iter() {
            assert_eq!(v, b.get(p));
        }
    }

    #[test]
    fn high_in_degree_groups_match_the_reference() {
        // In-degrees 0..=12 all occur: every unrolled group and the
        // general one run.
        let mut g: Vec<(u64, Vec<u64>)> = (0..14).map(|i| (i, vec![])).collect();
        for t in 0..13u64 {
            for s in 0..t {
                g[(13 - s) as usize].1.push(t);
            }
        }
        assert_matches_reference(&g, &PageRankConfig::conventional());
        assert_matches_reference(&g, &PageRankConfig::paper_1999());
    }

    #[test]
    fn one_kernel_reused_across_graph_sizes_matches_the_reference() {
        // The RankingModule keeps one kernel across passes over a growing
        // and shrinking collection: a solve must not read the layout of the
        // one before, whether it grew, shrank, or failed.
        let large = scattered(2 * BLOCK as u64 + 321, 7);
        let small = scattered(700, 8);
        let conventional = PageRankConfig::conventional();
        let capped = PageRankConfig { max_iterations: 2, ..conventional };
        assert!(reference::pagerank(&large, &conventional).is_ok());
        assert!(reference::pagerank(&large, &capped).is_err(), "the cap must stop both solves");
        for block in [3, BLOCK] {
            let mut kernel = PageRankKernel::default();
            for (graph, cfg) in [
                (&large, &conventional),
                (&small, &conventional),
                (&large, &capped),
                (&large, &conventional),
            ] {
                assert_solve_matches(&mut kernel, graph, cfg, block);
            }
        }
    }

    proptest! {
        /// On random adjacency — duplicate, self- and non-member links,
        /// dangling and unlinked pages — the kernel equals the reference
        /// loop bit for bit under block sizes from one page up, including
        /// when neither converges within a tiny cap.
        #[test]
        fn kernel_matches_reference_on_random_adjacency(
            lists in prop::collection::vec(
                (0u64..20, prop::collection::vec(0u64..24, 0..8)),
                0..16,
            ),
            config in (0usize..3, 1usize..4),
        ) {
            let mut adjacency = lists;
            adjacency.sort_by_key(|&(page, _)| page);
            adjacency.dedup_by_key(|(page, _)| *page);
            let (form, cap) = config;
            let cfg = match form {
                0 => PageRankConfig::conventional(),
                1 => PageRankConfig::paper_1999(),
                _ => PageRankConfig { max_iterations: cap, ..PageRankConfig::conventional() },
            };
            assert_matches_reference(&adjacency, &cfg);
        }
    }
}
