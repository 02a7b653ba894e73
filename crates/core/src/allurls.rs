//! `AllUrls`: every URL the crawler has ever discovered (Figure 12).
//!
//! Besides membership, the structure keeps the evidence the RankingModule
//! needs for its refinement decision: which collection pages link to each
//! discovered URL (footnote 2: PageRank of an uncrawled page is estimated
//! "based on how many pages in the Collection have a link to p"), and
//! whether the URL has been observed dead.
//!
//! Storage is a [`DenseMap`] over the URL's [`PageId`] (page ids are
//! globally unique, so a page determines its URL; the owning site rides in
//! the slot). Candidate enumeration therefore ascends by page id — a
//! deterministic order, which is all the RankingModule needs: its
//! candidate ranking sorts by `(estimate, site, page)`, a total order, so
//! the enumeration order never leaks into replacement decisions.
//!
//! A URL's in-link evidence is a sorted `Vec` of at most `max_sources`
//! page ids: most URLs have a handful of in-links, and a sorted vector
//! holds them in a few dozen bytes where a B-tree spends a ~100-byte leaf.
//! It iterates and encodes exactly as the ordered set it replaced (count,
//! then ids ascending).

use webevo_types::{wire_struct, DenseMap, PageId, SiteId, Url};

/// Metadata for one discovered URL.
#[derive(Clone, Debug, Default)]
pub struct UrlInfo {
    /// Collection pages known to link here, strictly ascending (bounded;
    /// enough for importance estimation).
    pub in_link_sources: Vec<PageId>,
    /// Simulated day the URL was first discovered.
    pub discovered: f64,
    /// The URL returned NotFound at this time (dead pages are not
    /// candidates).
    pub dead_since: Option<f64>,
}

/// One dense slot: the URL's owning site plus its metadata (the page id is
/// the slot index).
#[derive(Clone, Debug)]
struct UrlSlot {
    site: SiteId,
    info: UrlInfo,
}

/// The set of all discovered URLs.
#[derive(Clone, Debug, Default)]
pub struct AllUrls {
    urls: DenseMap<UrlSlot>,
    /// Cap on tracked in-link sources per URL (evidence saturates quickly).
    max_sources: usize,
}

impl AllUrls {
    /// An empty set tracking up to 32 in-link sources per URL.
    pub fn new() -> AllUrls {
        AllUrls { urls: DenseMap::new(), max_sources: 32 }
    }

    /// Number of URLs discovered.
    pub fn len(&self) -> usize {
        self.urls.len()
    }

    /// True if nothing has been discovered yet.
    pub fn is_empty(&self) -> bool {
        self.urls.is_empty()
    }

    /// True if the URL is known.
    pub fn contains(&self, url: Url) -> bool {
        self.urls.contains(url.page)
    }

    /// Register a URL discovered at time `t` (idempotent).
    pub fn discover(&mut self, url: Url, t: f64) {
        self.urls.or_insert_with(url.page, || UrlSlot {
            site: url.site,
            info: UrlInfo { in_link_sources: Vec::new(), discovered: t, dead_since: None },
        });
    }

    /// Register that collection page `source` links to `url` (discovering
    /// the URL if needed).
    pub fn add_in_link(&mut self, url: Url, source: PageId, t: f64) {
        let max_sources = self.max_sources;
        let slot = self.urls.or_insert_with(url.page, || UrlSlot {
            site: url.site,
            info: UrlInfo { in_link_sources: Vec::new(), discovered: t, dead_since: None },
        });
        let sources = &mut slot.info.in_link_sources;
        if sources.len() < max_sources {
            if let Err(at) = sources.binary_search(&source) {
                sources.insert(at, source);
            }
        }
    }

    /// Mark a URL dead (fetch returned NotFound) at time `t`.
    pub fn mark_dead(&mut self, url: Url, t: f64) {
        if let Some(slot) = self.urls.get_mut(url.page) {
            slot.info.dead_since.get_or_insert(t);
        }
    }

    /// Metadata for a URL.
    pub fn info(&self, url: Url) -> Option<&UrlInfo> {
        self.urls.get(url.page).map(|slot| &slot.info)
    }

    /// The owning site of a known page.
    pub fn site_of(&self, page: PageId) -> Option<SiteId> {
        self.urls.get(page).map(|slot| slot.site)
    }

    /// Remove and return every URL whose site satisfies `departing`, in
    /// ascending page-id order — the donor side of a fleet rebalance.
    pub fn extract_urls(&mut self, departing: impl Fn(SiteId) -> bool) -> Vec<(Url, UrlInfo)> {
        let leaving: Vec<PageId> = self
            .urls
            .iter()
            .filter(|(_, slot)| departing(slot.site))
            .map(|(p, _)| p)
            .collect();
        leaving
            .into_iter()
            .filter_map(|p| {
                self.urls
                    .remove(p)
                    .map(|slot| (Url::new(slot.site, p), slot.info))
            })
            .collect()
    }

    /// Merge a URL record extracted from another shard. Both shards may
    /// know the same URL (each recorded its own sightings), so the merge
    /// is deterministic: in-link evidence unions (ascending, capped),
    /// discovery takes the earlier time, death the earlier observation.
    pub fn absorb(&mut self, url: Url, info: UrlInfo) {
        let max_sources = self.max_sources;
        match self.urls.get_mut(url.page) {
            Some(slot) => {
                let merged = &mut slot.info.in_link_sources;
                merged.extend_from_slice(&info.in_link_sources);
                merged.sort_unstable();
                merged.dedup();
                merged.truncate(max_sources);
                slot.info.discovered = slot.info.discovered.min(info.discovered);
                slot.info.dead_since = match (slot.info.dead_since, info.dead_since) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
            }
            None => {
                self.urls.insert(url.page, UrlSlot { site: url.site, info });
            }
        }
    }

    /// Candidate URLs for admission: known, not dead, not satisfying
    /// `exclude`, with at least one recorded in-link. Ascending page-id
    /// order.
    pub fn candidates<'a>(
        &'a self,
        exclude: &'a dyn Fn(Url) -> bool,
    ) -> impl Iterator<Item = (Url, &'a UrlInfo)> + 'a {
        self.urls.iter().filter_map(move |(page, slot)| {
            let url = Url::new(slot.site, page);
            if slot.info.dead_since.is_none()
                && !slot.info.in_link_sources.is_empty()
                && !exclude(url)
            {
                Some((url, &slot.info))
            } else {
                None
            }
        })
    }
}

// In-link sources decode checked, not trusted: `add_in_link` binary-searches
// them, so they must be strictly ascending, and no URL may hold more than
// the cap its set was built with.
wire_struct!(UrlInfo { in_link_sources, discovered, dead_since }
    reject |u| u.in_link_sources.windows(2).any(|w| w[0] >= w[1])
    => "in-link sources are not strictly ascending");
wire_struct!(UrlSlot { site, info });
wire_struct!(AllUrls { urls, max_sources }
    reject |a| a.urls.iter().any(|(_, slot)| slot.info.in_link_sources.len() > a.max_sources)
    => "a URL holds more in-link sources than the cap");

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};
    use webevo_types::{BinDecode, BinEncode, BinReader};

    fn url(i: u64) -> Url {
        Url::new(SiteId(0), PageId(i))
    }

    #[test]
    fn discover_is_idempotent() {
        let mut a = AllUrls::new();
        a.discover(url(1), 1.0);
        a.discover(url(1), 9.0);
        assert_eq!(a.len(), 1);
        assert_eq!(a.info(url(1)).unwrap().discovered, 1.0);
    }

    #[test]
    fn in_links_accumulate_and_dedup() {
        let mut a = AllUrls::new();
        a.add_in_link(url(1), PageId(10), 0.0);
        a.add_in_link(url(1), PageId(10), 1.0);
        a.add_in_link(url(1), PageId(11), 2.0);
        assert_eq!(a.info(url(1)).unwrap().in_link_sources.len(), 2);
    }

    #[test]
    fn dead_urls_are_not_candidates() {
        let mut a = AllUrls::new();
        a.add_in_link(url(1), PageId(10), 0.0);
        a.add_in_link(url(2), PageId(10), 0.0);
        a.mark_dead(url(1), 3.0);
        let never = |_| false;
        let cands: Vec<Url> = a.candidates(&never).map(|(u, _)| u).collect();
        assert_eq!(cands, vec![url(2)]);
    }

    #[test]
    fn candidates_require_inlinks_and_respect_exclusion() {
        let mut a = AllUrls::new();
        a.discover(url(1), 0.0); // no in-links: not a candidate
        a.add_in_link(url(2), PageId(10), 0.0);
        a.add_in_link(url(3), PageId(10), 0.0);
        let exclude = |u: Url| u == url(3);
        let cands: Vec<Url> = a.candidates(&exclude).map(|(u, _)| u).collect();
        assert_eq!(cands, vec![url(2)]);
    }

    #[test]
    fn source_cap_bounds_memory() {
        let mut a = AllUrls::new();
        for i in 0..100 {
            a.add_in_link(url(1), PageId(i), 0.0);
        }
        assert_eq!(a.info(url(1)).unwrap().in_link_sources.len(), 32);
    }

    #[test]
    fn candidates_remember_the_owning_site() {
        let mut a = AllUrls::new();
        a.add_in_link(Url::new(SiteId(4), PageId(9)), PageId(1), 0.0);
        let never = |_| false;
        let cands: Vec<Url> = a.candidates(&never).map(|(u, _)| u).collect();
        assert_eq!(cands, vec![Url::new(SiteId(4), PageId(9))]);
    }

    #[test]
    fn wire_roundtrip_preserves_sites_and_sources() {
        let mut a = AllUrls::new();
        a.add_in_link(Url::new(SiteId(3), PageId(7)), PageId(1), 2.0);
        a.add_in_link(Url::new(SiteId(1), PageId(2)), PageId(7), 1.0);
        a.mark_dead(Url::new(SiteId(1), PageId(2)), 5.0);
        let mut bytes = Vec::new();
        a.bin_encode(&mut bytes);
        let mut r = BinReader::new(&bytes);
        let back = AllUrls::bin_decode(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(back.len(), 2);
        assert_eq!(back.info(url(2)).unwrap().dead_since, Some(5.0));
        let never = |_| false;
        let cands: Vec<Url> = back.candidates(&never).map(|(u, _)| u).collect();
        assert_eq!(cands, vec![Url::new(SiteId(3), PageId(7))]);
        // Re-encoding is canonical.
        let mut again = Vec::new();
        back.bin_encode(&mut again);
        assert_eq!(again, bytes);
    }

    fn encode<T: BinEncode>(value: &T) -> Vec<u8> {
        let mut bytes = Vec::new();
        value.bin_encode(&mut bytes);
        bytes
    }

    #[test]
    fn decode_rejects_sources_that_do_not_strictly_ascend() {
        let info = |sources: &[u64]| UrlInfo {
            in_link_sources: sources.iter().map(|&p| PageId(p)).collect(),
            discovered: 1.0,
            dead_since: None,
        };
        let good = encode(&info(&[2, 5, 9]));
        assert!(UrlInfo::bin_decode(&mut BinReader::new(&good)).is_ok());
        for bad in [&[5, 2][..], &[2, 2], &[1, 9, 3]] {
            let bytes = encode(&info(bad));
            let err = UrlInfo::bin_decode(&mut BinReader::new(&bytes)).unwrap_err();
            assert_eq!(err.to_string(), "in-link sources are not strictly ascending", "{bad:?}");
        }
    }

    #[test]
    fn decode_rejects_a_url_over_the_source_cap() {
        let mut a = AllUrls::new();
        for i in 0..32 {
            a.add_in_link(url(1), PageId(i), 0.0);
        }
        assert!(AllUrls::bin_decode(&mut BinReader::new(&encode(&a))).is_ok());
        // A 33rd source can only come from hostile bytes.
        a.urls.get_mut(PageId(1)).unwrap().info.in_link_sources.push(PageId(99));
        let err = AllUrls::bin_decode(&mut BinReader::new(&encode(&a))).unwrap_err();
        assert_eq!(err.to_string(), "a URL holds more in-link sources than the cap");
    }

    /// The ordered-set model the sorted vectors replaced.
    #[derive(Default)]
    struct Model(BTreeMap<u64, BTreeSet<PageId>>);

    impl Model {
        fn add_in_link(&mut self, page: u64, source: PageId, cap: usize) {
            let sources = self.0.entry(page).or_default();
            if sources.len() < cap {
                sources.insert(source);
            }
        }

        fn absorb(&mut self, page: u64, other: &BTreeSet<PageId>, cap: usize) {
            let sources = self.0.entry(page).or_default();
            *sources = sources.union(other).copied().take(cap).collect();
        }

        /// The bytes of `page`'s model sources: the set's elements,
        /// ascending, as a sequence.
        fn bytes(&self, page: u64) -> Vec<u8> {
            let sources: Vec<PageId> =
                self.0.get(&page).map(|s| s.iter().copied().collect()).unwrap_or_default();
            encode(&sources)
        }
    }

    proptest! {
        /// `add_in_link` and `absorb` keep exactly the ordered set's
        /// contents, and encode to its bytes, cap included.
        #[test]
        fn sorted_sources_match_the_ordered_set_model(
            ops in prop::collection::vec((0u8..4, 0u64..4, 0u64..80), 1..160),
        ) {
            let (mut a, mut model) = (AllUrls::new(), Model::default());
            let cap = a.max_sources;
            for (kind, page, source) in ops {
                if kind < 3 {
                    a.add_in_link(url(page), PageId(source), 0.0);
                    model.add_in_link(page, PageId(source), cap);
                } else {
                    // Another shard's record of the same URL: a run of
                    // sources from `source` up.
                    let other: BTreeSet<PageId> =
                        (source..source + page * 9).step_by(3).map(PageId).collect();
                    let info = UrlInfo {
                        in_link_sources: other.iter().copied().collect(),
                        discovered: 0.0,
                        dead_since: None,
                    };
                    a.absorb(url(page), info);
                    model.absorb(page, &other, cap);
                }
                for page in 0..4 {
                    let got = a.info(url(page)).map(|i| i.in_link_sources.clone()).unwrap_or_default();
                    let want: Vec<PageId> =
                        model.0.get(&page).map(|s| s.iter().copied().collect()).unwrap_or_default();
                    prop_assert_eq!(&got, &want);
                    prop_assert_eq!(encode(&got), model.bytes(page));
                }
            }
            // The whole set round-trips through its own decoder.
            let bytes = encode(&a);
            let back = AllUrls::bin_decode(&mut BinReader::new(&bytes)).unwrap();
            prop_assert_eq!(encode(&back), bytes);
        }
    }
}
