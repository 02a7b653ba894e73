//! The workspace's one link type: a flat, read-only link structure.
//!
//! Every reader of links — a ranking pass, the serve view, ground-truth
//! importance and site selection — only reads, so the links are built once
//! per use from each page's out-links into a [`LinkCsr`]: the member pages
//! in ascending `PageId` order, each page's de-duplicated out-degree, and
//! each page's in-link sources in one flat array indexed by per-page
//! offsets (compressed sparse rows). Positions are `u32` indices into the
//! page order, so the PageRank kernel never touches a `PageId`.

use webevo_types::PageId;

/// The `position` entry of an id that is not a member.
const ABSENT: u32 = u32::MAX;

/// Member pages, out-degrees and in-link sources of a link graph, laid out
/// flat. See the module docs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LinkCsr {
    /// Member pages, strictly ascending.
    pages: Vec<PageId>,
    /// `PageId` index → position in `pages`; `ABSENT` for non-members.
    position: Vec<u32>,
    /// De-duplicated out-degree of each page (links to members only).
    out_degree: Vec<u32>,
    /// Page `i`'s in-link sources are `sources[in_start[i]..in_start[i + 1]]`.
    in_start: Vec<u32>,
    /// In-link source positions, grouped by target.
    sources: Vec<u32>,
}

impl LinkCsr {
    /// Build from each member page's out-links. `pages()` must yield the
    /// members in strictly ascending `PageId` order, the same sequence on
    /// every call; it is called three times (members, count, fill).
    ///
    /// A counting sort: one pass counts each target's in-degree, one pass
    /// fills the sources. A per-target stamp of the last source that linked
    /// it collapses parallel edges, and links to non-members are skipped.
    /// Sources are visited in ascending order, so each target's sources come
    /// out ascending. A self-link counts once, like any other link.
    pub fn from_out_links<I, L>(pages: impl Fn() -> I) -> LinkCsr
    where
        I: Iterator<Item = (PageId, L)>,
        L: IntoIterator<Item = PageId>,
    {
        let members: Vec<PageId> = pages().map(|(p, _)| p).collect();
        debug_assert!(
            members.windows(2).all(|w| w[0] < w[1]),
            "pages must be strictly ascending"
        );
        let mut csr = LinkCsr::with_members(members);
        let n = csr.pages.len();
        // `stamp[t]` is the last source that linked target `t` in this pass.
        let mut stamp = vec![ABSENT; n];
        let mut in_degree = vec![0u32; n];
        for (s, (_, links)) in pages().enumerate() {
            for t in links {
                if let Some(t) = csr.position(t) {
                    if stamp[t] != s as u32 {
                        stamp[t] = s as u32;
                        in_degree[t] += 1;
                        csr.out_degree[s] += 1;
                    }
                }
            }
        }
        let mut next = csr.set_in_starts(&in_degree);
        stamp.fill(ABSENT);
        for (s, (_, links)) in pages().enumerate() {
            for t in links {
                if let Some(t) = csr.position(t) {
                    if stamp[t] != s as u32 {
                        stamp[t] = s as u32;
                        csr.sources[next[t] as usize] = s as u32;
                        next[t] += 1;
                    }
                }
            }
        }
        csr
    }

    /// Members in place, position index built, no links yet.
    fn with_members(pages: Vec<PageId>) -> LinkCsr {
        let mut position = vec![ABSENT; pages.last().map_or(0, |p| p.index() + 1)];
        for (i, p) in pages.iter().enumerate() {
            position[p.index()] = i as u32;
        }
        let n = pages.len();
        LinkCsr {
            pages,
            position,
            out_degree: vec![0; n],
            in_start: Vec::new(),
            sources: Vec::new(),
        }
    }

    /// Lay out `in_start` for the given in-degrees and size `sources` to
    /// match; returns each target's first source slot.
    fn set_in_starts(&mut self, in_degree: &[u32]) -> Vec<u32> {
        self.in_start = Vec::with_capacity(in_degree.len() + 1);
        self.in_start.push(0);
        let mut total = 0u32;
        for &d in in_degree {
            total += d;
            self.in_start.push(total);
        }
        self.sources = vec![0; total as usize];
        self.in_start[..in_degree.len()].to_vec()
    }

    /// Number of member pages.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Number of (de-duplicated, member-to-member) links.
    pub fn link_count(&self) -> usize {
        self.sources.len()
    }

    /// Member pages in ascending id order; a page's position in this slice
    /// is its index everywhere else in the structure.
    pub fn pages(&self) -> &[PageId] {
        &self.pages
    }

    /// Position of `page`, if it is a member.
    pub fn position(&self, page: PageId) -> Option<usize> {
        match self.position.get(page.index()) {
            Some(&i) if i != ABSENT => Some(i as usize),
            _ => None,
        }
    }

    /// True if `page` is a member.
    pub fn contains(&self, page: PageId) -> bool {
        self.position(page).is_some()
    }

    /// Out-degree of the page at position `i`.
    pub fn out_degree(&self, i: usize) -> usize {
        self.out_degree[i] as usize
    }

    /// In-link source positions of the page at position `i`.
    pub fn in_sources(&self, i: usize) -> &[u32] {
        &self.sources[self.in_start[i] as usize..self.in_start[i + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::csr as build;

    fn p(i: u64) -> PageId {
        PageId(i)
    }

    #[test]
    fn counting_sort_dedups_skips_non_members_and_sorts_sources() {
        // 9 links 3 twice and itself; 2 links a non-member; 7 has no links.
        let csr = build(&[(2, vec![9, 40, 3]), (3, vec![2]), (7, vec![]), (9, vec![3, 9, 3, 2])]);
        assert_eq!(csr.pages(), &[p(2), p(3), p(7), p(9)]);
        assert_eq!(csr.link_count(), 6);
        assert_eq!(
            (0..4).map(|i| csr.out_degree(i)).collect::<Vec<_>>(),
            [2, 1, 0, 3]
        );
        // Targets' sources, as positions, ascending.
        assert_eq!(csr.in_sources(0), &[1, 3]); // 2 ← 3, 9
        assert_eq!(csr.in_sources(1), &[0, 3]); // 3 ← 2, 9
        assert!(csr.in_sources(2).is_empty());
        assert_eq!(csr.in_sources(3), &[0, 3]); // 9 ← 2, 9
        assert_eq!(csr.position(p(9)), Some(3));
        assert!(!csr.contains(p(40)) && !csr.contains(p(5)) && !csr.contains(p(1_000)));
    }

    #[test]
    fn empty_inputs_build_empty_structures() {
        let csr = build(&[]);
        assert_eq!((csr.page_count(), csr.link_count()), (0, 0));
        assert!(!csr.contains(p(0)));
    }
}
