//! A mutable directed page graph with site attribution.
//!
//! Pages are added and removed as the simulated web evolves and as the
//! crawler's Collection gains and sheds pages; links change whenever a page
//! changes content. The representation is a forward adjacency list plus a
//! reverse adjacency list, both kept in sync, so any single page's
//! in-links and out-links are cheap to read and to change. That is a
//! mutation-friendly layout, not an iteration-friendly one: PageRank runs
//! on a flat copy ([`crate::LinkCsr::from_graph`]), and the crawler's
//! ranking pass never builds a `PageGraph` at all — it flattens its
//! collection straight into a [`crate::LinkCsr`].

use webevo_types::{DenseMap, PageId, SiteId};

/// A node's adjacency record.
#[derive(Clone, Debug, PartialEq)]
struct NodeLinks {
    out: Vec<PageId>,
    inc: Vec<PageId>,
    site: SiteId,
}

/// A mutable directed graph over pages, each attributed to a site.
///
/// Self-links are permitted (they occur on the real web); parallel edges are
/// collapsed (a second `add_link` with the same endpoints is a no-op), which
/// matches how link extraction de-duplicates URLs found in a page.
#[derive(Clone, Debug, Default)]
pub struct PageGraph {
    nodes: DenseMap<NodeLinks>,
    edge_count: usize,
}

impl PageGraph {
    /// An empty graph.
    pub fn new() -> PageGraph {
        PageGraph::default()
    }

    /// Number of pages.
    pub fn page_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of (directed, de-duplicated) links.
    pub fn link_count(&self) -> usize {
        self.edge_count
    }

    /// True if the page is present.
    pub fn contains(&self, p: PageId) -> bool {
        self.nodes.contains(p)
    }

    /// Add a page attributed to `site`. Re-adding an existing page is a
    /// no-op that keeps its links (the page's site may not change).
    pub fn add_page(&mut self, p: PageId, site: SiteId) {
        match self.nodes.get(p) {
            Some(existing) => {
                debug_assert_eq!(existing.site, site, "a page cannot move between sites");
            }
            None => {
                self.nodes.insert(p, NodeLinks { out: Vec::new(), inc: Vec::new(), site });
            }
        }
    }

    /// Remove a page and every link touching it. Returns true if present.
    pub fn remove_page(&mut self, p: PageId) -> bool {
        let Some(node) = self.nodes.remove(p) else {
            return false;
        };
        // Detach forward links from their targets' in-lists.
        for target in &node.out {
            if *target == p {
                continue; // self-link, already removed with the node
            }
            if let Some(t) = self.nodes.get_mut(*target) {
                if let Some(pos) = t.inc.iter().position(|&q| q == p) {
                    t.inc.swap_remove(pos);
                }
            }
        }
        // Detach incoming links from their sources' out-lists.
        for source in &node.inc {
            if *source == p {
                continue;
            }
            if let Some(s) = self.nodes.get_mut(*source) {
                if let Some(pos) = s.out.iter().position(|&q| q == p) {
                    s.out.swap_remove(pos);
                }
            }
        }
        // Count removed edges: out-degree + in-degree, but a self-link
        // appears in both lists and is a single edge.
        let self_links = node.out.iter().filter(|&&q| q == p).count();
        self.edge_count -= node.out.len() + node.inc.len() - self_links;
        true
    }

    /// Add a directed link `from → to`. Both endpoints must exist. Returns
    /// true if the link was new.
    pub fn add_link(&mut self, from: PageId, to: PageId) -> bool {
        assert!(self.nodes.contains(from), "link source {from} not in graph");
        assert!(self.nodes.contains(to), "link target {to} not in graph");
        {
            let src = self.nodes.get_mut(from).expect("checked above");
            if src.out.contains(&to) {
                return false;
            }
            src.out.push(to);
        }
        self.nodes.get_mut(to).expect("checked above").inc.push(from);
        self.edge_count += 1;
        true
    }

    /// Remove a directed link. Returns true if it existed.
    pub fn remove_link(&mut self, from: PageId, to: PageId) -> bool {
        let Some(src) = self.nodes.get_mut(from) else {
            return false;
        };
        let Some(pos) = src.out.iter().position(|&q| q == to) else {
            return false;
        };
        src.out.swap_remove(pos);
        let dst = self.nodes.get_mut(to).expect("link invariant: target exists");
        let pos = dst
            .inc
            .iter()
            .position(|&q| q == from)
            .expect("link invariant: reverse edge exists");
        dst.inc.swap_remove(pos);
        self.edge_count -= 1;
        true
    }

    /// Replace all outgoing links of `from` with `targets` (de-duplicated,
    /// unknown targets skipped). This is what happens when a changed page is
    /// re-crawled: its old link set is dropped and the new one installed.
    pub fn set_out_links(&mut self, from: PageId, targets: &[PageId]) {
        let old: Vec<PageId> = match self.nodes.get(from) {
            Some(n) => n.out.clone(),
            None => return,
        };
        for t in old {
            self.remove_link(from, t);
        }
        for &t in targets {
            if self.nodes.contains(t) {
                self.add_link(from, t);
            }
        }
    }

    /// Out-links of a page (empty if absent).
    pub fn out_links(&self, p: PageId) -> &[PageId] {
        self.nodes.get(p).map(|n| n.out.as_slice()).unwrap_or(&[])
    }

    /// In-links of a page (empty if absent).
    pub fn in_links(&self, p: PageId) -> &[PageId] {
        self.nodes.get(p).map(|n| n.inc.as_slice()).unwrap_or(&[])
    }

    /// Out-degree.
    pub fn out_degree(&self, p: PageId) -> usize {
        self.out_links(p).len()
    }

    /// In-degree.
    pub fn in_degree(&self, p: PageId) -> usize {
        self.in_links(p).len()
    }

    /// Owning site of a page.
    pub fn site_of(&self, p: PageId) -> Option<SiteId> {
        self.nodes.get(p).map(|n| n.site)
    }

    /// Iterate all pages in ascending id order.
    pub fn pages(&self) -> impl Iterator<Item = PageId> + '_ {
        self.nodes.keys()
    }

    /// Iterate all links as `(from, to)` pairs, ascending by source id.
    pub fn links(&self) -> impl Iterator<Item = (PageId, PageId)> + '_ {
        self.nodes
            .iter()
            .flat_map(|(p, n)| n.out.iter().map(move |&t| (p, t)))
    }

    /// Debug-check internal invariants (forward/reverse lists consistent,
    /// edge count correct). Used by property tests.
    pub fn check_invariants(&self) {
        let mut count = 0;
        for (p, n) in self.nodes.iter() {
            for &t in &n.out {
                count += 1;
                let target = self.nodes.get(t).expect("out-link target exists");
                assert!(
                    target.inc.contains(&p),
                    "missing reverse edge for {p}->{t}"
                );
            }
            for &s in &n.inc {
                let source = self.nodes.get(s).expect("in-link source exists");
                assert!(source.out.contains(&p), "missing forward edge for {s}->{p}");
            }
        }
        assert_eq!(count, self.edge_count, "edge count drifted");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u64) -> PageId {
        PageId(i)
    }
    fn s(i: u32) -> SiteId {
        SiteId(i)
    }

    fn triangle() -> PageGraph {
        let mut g = PageGraph::new();
        g.add_page(p(0), s(0));
        g.add_page(p(1), s(0));
        g.add_page(p(2), s(1));
        g.add_link(p(0), p(1));
        g.add_link(p(1), p(2));
        g.add_link(p(2), p(0));
        g
    }

    #[test]
    fn add_and_count() {
        let g = triangle();
        assert_eq!(g.page_count(), 3);
        assert_eq!(g.link_count(), 3);
        assert_eq!(g.out_degree(p(0)), 1);
        assert_eq!(g.in_degree(p(0)), 1);
        g.check_invariants();
    }

    #[test]
    fn duplicate_links_collapse() {
        let mut g = triangle();
        assert!(!g.add_link(p(0), p(1)));
        assert_eq!(g.link_count(), 3);
        g.check_invariants();
    }

    #[test]
    fn remove_link() {
        let mut g = triangle();
        assert!(g.remove_link(p(0), p(1)));
        assert!(!g.remove_link(p(0), p(1)));
        assert_eq!(g.link_count(), 2);
        assert_eq!(g.in_degree(p(1)), 0);
        g.check_invariants();
    }

    #[test]
    fn remove_page_detaches_all_edges() {
        let mut g = triangle();
        assert!(g.remove_page(p(1)));
        assert_eq!(g.page_count(), 2);
        assert_eq!(g.link_count(), 1); // only 2 -> 0 remains
        assert_eq!(g.out_degree(p(0)), 0);
        assert_eq!(g.in_degree(p(2)), 0);
        g.check_invariants();
        assert!(!g.remove_page(p(1)));
    }

    #[test]
    fn self_links_count_once() {
        let mut g = PageGraph::new();
        g.add_page(p(0), s(0));
        assert!(g.add_link(p(0), p(0)));
        assert_eq!(g.link_count(), 1);
        g.check_invariants();
        g.remove_page(p(0));
        assert_eq!(g.link_count(), 0);
        assert_eq!(g.page_count(), 0);
    }

    #[test]
    fn set_out_links_replaces() {
        let mut g = triangle();
        g.set_out_links(p(0), &[p(2), p(2), PageId(99)]); // dup + unknown
        assert_eq!(g.out_links(p(0)), &[p(2)]);
        assert_eq!(g.in_degree(p(1)), 0);
        assert_eq!(g.link_count(), 3); // 0->2, 1->2, 2->0
        g.check_invariants();
    }

    #[test]
    fn site_attribution() {
        let g = triangle();
        assert_eq!(g.site_of(p(0)), Some(s(0)));
        assert_eq!(g.site_of(p(2)), Some(s(1)));
        assert_eq!(g.site_of(PageId(7)), None);
    }

    #[test]
    fn links_iterator_enumerates_all() {
        let g = triangle();
        let mut edges: Vec<_> = g.links().collect();
        edges.sort();
        assert_eq!(edges, vec![(p(0), p(1)), (p(1), p(2)), (p(2), p(0))]);
    }
}
