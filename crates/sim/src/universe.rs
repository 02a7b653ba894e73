//! The generated web universe: all sites, all page incarnations, ground
//! truth queries, and link structure.
//!
//! Two things are computed rather than stored, because they are most of
//! what storing everything would cost:
//!
//! * A ticker's change schedule. Over a fifth of the pages change at every
//!   daily visit (Figure 1), and the simulator models them as changing
//!   every `TICKER_PERIOD_DAYS`; materialised, their ticks would be about
//!   four fifths of the event arena. A ticker stores only its tick count,
//!   and [`WebUniverse::events_of`] evaluates `birth + k·period` on demand.
//! * A slot's list of occupants. Page ids are handed out in site → slot →
//!   incarnation order, so the flat occupancy index's entry `k` is page
//!   `k`, and a slot's incarnations are one contiguous run of ids. There is
//!   no per-slot `Vec`.

use crate::config::UniverseConfig;
use crate::page::{EventRange, SimPage, SimSite};
use crate::profile::DomainProfile;
use webevo_graph::LinkCsr;
use webevo_stats::{event_slice, generate_poisson_into, EventSchedule, SimRng};
use webevo_types::{Checksum, Domain, PageId, PageVersion, SiteId, Url};

/// Flat occupancy index: for every `(site, slot)` pair, the birth/death
/// times of its successive incarnations, packed contiguously and
/// birth-ordered. Entry `k` is page `k`: generation hands out ids in
/// site → slot → incarnation order, and fills this index as it goes.
///
/// [`WebUniverse::occupant`] sits on the fetch hot path (one probe per BFS
/// child of every fetched page); resolving it against these parallel
/// arrays is a binary search that never touches the page table, instead of
/// chasing `PageId → SimPage` per probe.
#[derive(Clone, Debug, Default)]
struct SlotIndex {
    /// `starts[g]..starts[g+1]` is global slot `g`'s range in the arrays
    /// below (and of page ids), with `g = site.index() * pages_per_site +
    /// slot`.
    starts: Vec<usize>,
    /// Incarnation birth times, ascending within each slot's range.
    births: Vec<f64>,
    /// Matching death times.
    deaths: Vec<f64>,
}

/// The whole simulated web.
///
/// Generation is fully deterministic from `config.seed`; two universes with
/// equal configs are identical. Pages are stored in one table indexed by
/// `PageId`, sites in another indexed by `SiteId`. Stored change schedules
/// are packed into one shared event arena (each page holds a range into
/// it) and tickers' are computed, so ground-truth queries are binary
/// searches over contiguous memory or over a formula.
#[derive(Clone, Debug)]
pub struct WebUniverse {
    config: UniverseConfig,
    sites: Vec<SimSite>,
    pages: Vec<SimPage>,
    /// Every non-ticker page's change events, concatenated in page-id
    /// order.
    events: Vec<f64>,
    slot_index: SlotIndex,
}

impl WebUniverse {
    /// Generate a universe from a configuration.
    pub fn generate(config: UniverseConfig) -> WebUniverse {
        config.validate();
        let root = SimRng::seed_from_u64(config.seed);
        let mut pages: Vec<SimPage> = Vec::new();
        let mut events: Vec<f64> = Vec::new();
        let mut sites: Vec<SimSite> = Vec::with_capacity(config.total_sites());
        let mut slot_index = SlotIndex::default();
        slot_index.starts.reserve(config.total_sites() * config.pages_per_site + 1);
        slot_index.starts.push(0);

        let mut site_id = 0u32;
        for domain in Domain::ALL {
            let profile = DomainProfile::calibrated(domain);
            for _ in 0..*config.sites_per_domain.get(domain) {
                let site_rng = root.fork(0x5157_0000 + site_id as u64);
                Self::generate_site(
                    SiteId(site_id),
                    &profile,
                    &config,
                    &site_rng,
                    &mut pages,
                    &mut events,
                    &mut slot_index,
                );
                sites.push(SimSite { id: SiteId(site_id), domain });
                site_id += 1;
            }
        }
        events.shrink_to_fit();
        WebUniverse { config, sites, pages, events, slot_index }
    }

    /// Generate every incarnation of every slot of site `id`, appending
    /// the pages to `pages`, their stored events to `arena` and their
    /// occupancy to `index`.
    fn generate_site(
        id: SiteId,
        profile: &DomainProfile,
        config: &UniverseConfig,
        site_rng: &SimRng,
        pages: &mut Vec<SimPage>,
        arena: &mut Vec<f64>,
        index: &mut SlotIndex,
    ) {
        let horizon = config.horizon_days;
        for slot in 0..config.pages_per_site {
            let slot_rng = site_rng.fork(slot as u64);
            // Slot 0 (the site root) is immortal: §2.1 monitors "root pages
            // of the selected sites" throughout.
            let immortal = slot == 0 || !config.churn;
            let mut incarnation = 0u64;
            let mut birth = 0.0f64;
            loop {
                let mut page_rng = slot_rng.fork(incarnation);
                let death = if immortal {
                    f64::INFINITY
                } else {
                    let lifetime = profile.sample_lifetime(&mut page_rng);
                    // Stationarity: the slot's first occupant is already
                    // mid-life at t = 0 (the web existed before the
                    // experiment started), so only its residual remains.
                    if incarnation == 0 {
                        birth + lifetime * page_rng.uniform()
                    } else {
                        birth + lifetime
                    }
                };
                let behavior = profile.sample_behavior(&mut page_rng);
                let rate = behavior.rate;
                let end = death.min(horizon);
                let rel_span = (end - birth).max(0.0);
                let events = if behavior.ticker {
                    // Deterministic sub-daily changer (the paper's "changed
                    // whenever we visited" pages): its ticks are counted
                    // here and computed by `events_of`.
                    EventRange::ticks(birth, end)
                } else {
                    let start = arena.len();
                    generate_poisson_into(&mut page_rng, rate.per_day(), rel_span, birth, arena);
                    debug_assert!(arena[start..].windows(2).all(|w| w[0] <= w[1]));
                    EventRange::stored(start, arena.len() - start)
                };
                let pid = PageId(pages.len() as u64);
                pages.push(SimPage { id: pid, site: id, slot, birth, death, rate, events });
                index.births.push(birth);
                index.deaths.push(death);
                if immortal || death >= horizon {
                    break;
                }
                birth = death;
                incarnation += 1;
            }
            index.starts.push(pages.len());
        }
    }

    /// The generation configuration.
    pub fn config(&self) -> &UniverseConfig {
        &self.config
    }

    /// Number of sites.
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// Total page incarnations ever created.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// A site by id.
    pub fn site(&self, s: SiteId) -> &SimSite {
        &self.sites[s.index()]
    }

    /// All sites.
    pub fn sites(&self) -> &[SimSite] {
        &self.sites
    }

    /// A page by id.
    pub fn page(&self, p: PageId) -> &SimPage {
        &self.pages[p.index()]
    }

    /// All page incarnations.
    pub fn pages(&self) -> &[SimPage] {
        &self.pages
    }

    /// The URL of a page.
    pub fn url_of(&self, p: PageId) -> Url {
        Url::new(self.page(p).site, p)
    }

    /// A page's change schedule: its sorted absolute event times, a slice
    /// of the shared arena or, for a ticker, computed from its birth.
    #[inline]
    pub fn events_of(&self, p: PageId) -> EventSchedule<'_> {
        let page = &self.pages[p.index()];
        page.events.schedule(&self.events, page.birth)
    }

    /// Bytes held by the precomputed ground-truth structures (event arena
    /// plus occupancy index) — the memory-footprint proxy the scale bench
    /// reports.
    pub fn arena_bytes(&self) -> usize {
        let idx = &self.slot_index;
        self.events.len() * std::mem::size_of::<f64>()
            + idx.starts.len() * std::mem::size_of::<usize>()
            + idx.births.len() * std::mem::size_of::<f64>()
            + idx.deaths.len() * std::mem::size_of::<f64>()
    }

    /// The ids of `slot` of `site`'s successive occupants, as a range of
    /// page indices (each page's death is the next page's birth).
    fn incarnations(&self, site: SiteId, slot: usize) -> std::ops::Range<usize> {
        let g = site.index() * self.config.pages_per_site + slot;
        self.slot_index.starts[g]..self.slot_index.starts[g + 1]
    }

    /// The page currently occupying `slot` of `site` at time `t`, if any.
    ///
    /// `out_links_into` and `window` call this per BFS child on the fetch hot
    /// path, so it must not scan: a slot's incarnations are birth-ordered
    /// and contiguous (each birth equals the previous death, pinned by
    /// `slots_have_contiguous_occupancy`), so the only candidate is the
    /// last incarnation born at or before `t` — found by binary search
    /// over the flat `SlotIndex` (no page-table chasing) and checked for
    /// liveness (`t` past the final death, or before time zero, yields
    /// `None`).
    pub fn occupant(&self, site: SiteId, slot: usize, t: f64) -> Option<PageId> {
        let range = self.incarnations(site, slot);
        let off = self.slot_index.births[range.clone()].partition_point(|&b| b <= t);
        let k = range.start + off.checked_sub(1)?;
        (t < self.slot_index.deaths[k]).then_some(PageId(k as u64))
    }

    /// §2.1's page window at time `t`: the alive occupants of the leading
    /// `window_size` BFS slots. (Slots are BFS-ordered by construction, so
    /// this is the breadth-first window the monitor crawls daily.)
    pub fn window(&self, site: SiteId, t: f64) -> Vec<PageId> {
        let w = self.config.window_size.min(self.config.pages_per_site);
        (0..w).filter_map(|k| self.occupant(site, k, t)).collect()
    }

    /// Ground truth: is the page alive at `t`?
    pub fn alive(&self, p: PageId, t: f64) -> bool {
        self.page(p).alive(t)
    }

    /// Ground truth: content version at `t`.
    pub fn version_at(&self, p: PageId, t: f64) -> PageVersion {
        self.page(p).version_at(self.events_of(p), t)
    }

    /// Content checksum at `t` — also what [`crate::SimFetcher`] reports.
    pub fn checksum_at(&self, p: PageId, t: f64) -> Checksum {
        self.page(p).checksum_at(self.events_of(p), t)
    }

    /// Ground truth: did the page change in `[a, b)`?
    pub fn changed_between(&self, p: PageId, a: f64, b: f64) -> bool {
        event_slice::any_in(self.events_of(p), a, b)
    }

    /// Ground truth: the first change strictly after `t`, if any before
    /// the horizon.
    pub fn first_change_after(&self, p: PageId, t: f64) -> Option<f64> {
        event_slice::first_after(self.events_of(p), t)
    }

    /// The last-modified date a well-behaved server would report at `t`
    /// (birth time if the page has not changed yet).
    pub fn last_modified(&self, p: PageId, t: f64) -> f64 {
        self.page(p).last_modified(self.events_of(p), t)
    }

    /// Ground truth: a stored copy crawled at `crawl_time` is fresh at `t`
    /// iff the page is still alive and did not change in between.
    pub fn copy_is_fresh(&self, p: PageId, crawl_time: f64, t: f64) -> bool {
        let page = self.page(p);
        page.alive(t) && !event_slice::any_in(self.events_of(p), crawl_time, t)
    }

    /// Out-links of a page at time `t`, as URLs of currently alive targets.
    ///
    /// Structure: the BFS tree children of the page's slot, plus
    /// `extra_links_per_page` pseudo-random intra-site links that re-roll
    /// with each content version (changed pages change their links), plus
    /// an optional cross-site link to another site's root with popularity
    /// skew (low-numbered sites are linked more — giving site-level
    /// PageRank something to rank).
    ///
    /// The links are written into a caller-owned buffer (cleared first): the
    /// fetch hot path reuses one scratch vector instead of allocating per
    /// fetch.
    pub fn out_links_into(&self, p: PageId, t: f64, links: &mut Vec<Url>) {
        links.clear();
        let page = self.page(p);
        if !page.alive(t) {
            return;
        }
        let slots = self.config.pages_per_site;
        // BFS tree children.
        let b = self.config.branching;
        let first_child = page.slot * b + 1;
        for c in first_child..(first_child + b).min(slots) {
            if let Some(target) = self.occupant(page.site, c, t) {
                links.push(Url::new(page.site, target));
            }
        }
        // Version-dependent pseudo-random extras.
        let version = event_slice::version_at(self.events_of(p), t);
        let mut rng = SimRng::seed_from_u64(
            self.config
                .seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(p.0.wrapping_mul(0x94d0_49bb_1331_11eb))
                .wrapping_add(version),
        );
        for _ in 0..self.config.extra_links_per_page {
            let slot = rng.index(slots);
            if slot != page.slot {
                if let Some(target) = self.occupant(page.site, slot, t) {
                    let url = Url::new(page.site, target);
                    if !links.contains(&url) {
                        links.push(url);
                    }
                }
            }
        }
        // Cross-site link with popularity skew (quadratic toward site 0).
        if rng.bernoulli(self.config.cross_link_probability) {
            let u = rng.uniform();
            let target_site = ((u * u) * self.sites.len() as f64) as usize;
            let target_site = SiteId(target_site.min(self.sites.len() - 1) as u32);
            if target_site != page.site {
                if let Some(target) = self.occupant(target_site, 0, t) {
                    links.push(Url::new(target_site, target));
                }
            }
        }
    }

    /// The link structure of every page alive at `t` (all slots, not just
    /// the window) as a [`LinkCsr`] — the substrate for site selection and
    /// for ground-truth importance. Each alive page's out-links are
    /// generated once, into one flat buffer, and the structure is built
    /// from slices of it: pages ascending, links to pages dead at `t`
    /// dropped, parallel links collapsed and a self-link counted once.
    pub fn snapshot_graph(&self, t: f64) -> LinkCsr {
        let alive: Vec<PageId> =
            self.pages.iter().filter(|page| page.alive(t)).map(|page| page.id).collect();
        // Page `alive[i]` links to `targets[offsets[i]..offsets[i + 1]]`.
        let mut targets: Vec<PageId> = Vec::new();
        let mut offsets = vec![0];
        let mut links = Vec::new();
        for &p in &alive {
            self.out_links_into(p, t, &mut links);
            targets.extend(links.iter().map(|url| url.page));
            offsets.push(targets.len());
        }
        LinkCsr::from_out_links(|| {
            alive
                .iter()
                .zip(offsets.windows(2))
                .map(|(&p, w)| (p, targets[w[0]..w[1]].iter().copied()))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn out_links(u: &WebUniverse, p: PageId, t: f64) -> Vec<Url> {
        let mut links = Vec::new();
        u.out_links_into(p, t, &mut links);
        links
    }

    fn small() -> WebUniverse {
        WebUniverse::generate(UniverseConfig::test_scale(42))
    }

    /// A schedule's times as bit patterns, for exact comparison.
    fn bits(events: EventSchedule<'_>) -> Vec<u64> {
        (0..events.len()).map(|i| events.get(i).unwrap().to_bits()).collect()
    }

    /// The per-slot occupant lists generation used to keep
    /// (`lists[site][slot]`, time-ordered), rebuilt from the page table:
    /// each page went onto its slot's list as it was generated, in id
    /// order.
    fn per_slot_lists(u: &WebUniverse) -> Vec<Vec<Vec<PageId>>> {
        let mut lists = vec![vec![Vec::new(); u.config().pages_per_site]; u.site_count()];
        for page in u.pages() {
            lists[page.site.index()][page.slot].push(page.id);
        }
        lists
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small();
        let b = small();
        assert_eq!(a.page_count(), b.page_count());
        for (pa, pb) in a.pages().iter().zip(b.pages().iter()) {
            assert_eq!(pa.birth, pb.birth);
            assert_eq!(pa.death, pb.death);
            assert_eq!(pa.rate, pb.rate);
            assert_eq!(bits(a.events_of(pa.id)), bits(b.events_of(pb.id)));
        }
    }

    #[test]
    fn site_counts_match_config() {
        let u = small();
        assert_eq!(u.site_count(), 10);
        let com_sites = u.sites().iter().filter(|s| s.domain == Domain::Com).count();
        assert_eq!(com_sites, 5);
    }

    #[test]
    fn slots_have_contiguous_occupancy() {
        let u = small();
        let idx = &u.slot_index;
        assert_eq!(idx.starts.len(), u.site_count() * u.config().pages_per_site + 1);
        assert_eq!((idx.births.len(), idx.deaths.len()), (u.page_count(), u.page_count()));
        // Slot ranges tile the page ids in site → slot order.
        let mut next = 0;
        for site in u.sites() {
            for k in 0..u.config().pages_per_site {
                let slot = u.incarnations(site.id, k);
                assert_eq!(slot.start, next, "slot {k} of site {} starts where the last ended", site.id);
                assert!(!slot.is_empty());
                let mut prev_death = None;
                for i in slot.clone() {
                    let page = &u.pages()[i];
                    assert_eq!(page.id, PageId(i as u64), "index entry k is page k");
                    assert_eq!(page.slot, k);
                    assert_eq!(page.site, site.id);
                    assert_eq!((idx.births[i], idx.deaths[i]), (page.birth, page.death));
                    if let Some(d) = prev_death {
                        assert_eq!(page.birth, d, "next incarnation starts at death");
                    } else {
                        assert_eq!(page.birth, 0.0, "first occupant born at 0");
                    }
                    prev_death = Some(page.death);
                }
                // Coverage to the horizon.
                assert!(prev_death.unwrap() >= u.config().horizon_days);
                next = slot.end;
            }
        }
        assert_eq!(next, u.page_count());
    }

    #[test]
    fn occupant_returns_the_old_per_slot_lists_ids() {
        let u = small();
        for (site, slots) in u.sites().iter().zip(per_slot_lists(&u)) {
            for (k, list) in slots.iter().enumerate() {
                let ids: Vec<PageId> = u.incarnations(site.id, k).map(|i| PageId(i as u64)).collect();
                assert_eq!(&ids, list, "slot {k} of site {}", site.id);
                for &p in list {
                    let page = u.page(p);
                    assert_eq!(u.occupant(site.id, k, page.birth), Some(p));
                    let mid = page.birth + (page.death.min(200.0) - page.birth) / 2.0;
                    assert_eq!(u.occupant(site.id, k, mid), Some(p));
                }
            }
        }
    }

    /// The pre-optimization `occupant`: a linear scan of the slot's
    /// occupant list for the first alive incarnation. Kept as the
    /// reference the binary search must match.
    fn occupant_by_scan(u: &WebUniverse, list: &[PageId], t: f64) -> Option<PageId> {
        list.iter().copied().find(|&p| u.page(p).alive(t))
    }

    #[test]
    fn occupant_binary_search_matches_linear_scan_exhaustively() {
        let u = small();
        let horizon = u.config().horizon_days;
        for (site, slots) in u.sites().iter().zip(per_slot_lists(&u)) {
            for (slot, list) in slots.iter().enumerate() {
                // A dense grid across the horizon (and beyond it, and
                // before time zero)...
                let mut probes: Vec<f64> = (-4..=(horizon as i64 * 2 + 4))
                    .map(|k| k as f64 * 0.5)
                    .collect();
                // ...plus every incarnation boundary exactly, and the
                // floats immediately around it.
                for &p in list {
                    let page = u.page(p);
                    for edge in [page.birth, page.death] {
                        if edge.is_finite() {
                            probes.extend([
                                edge,
                                f64::from_bits(edge.to_bits().wrapping_sub(1)),
                                edge + f64::EPSILON.max(edge.abs() * f64::EPSILON),
                            ]);
                        }
                    }
                }
                probes.push(f64::NAN);
                for t in probes {
                    assert_eq!(
                        u.occupant(site.id, slot, t),
                        occupant_by_scan(&u, list, t),
                        "divergence at site {} slot {slot} t={t}",
                        site.id
                    );
                }
            }
        }
    }

    #[test]
    fn at_most_one_occupant_per_slot() {
        let u = small();
        let lists = per_slot_lists(&u);
        for t in [0.0, 30.5, 64.0, 100.0, 129.0] {
            for site in u.sites() {
                for (k, list) in lists[site.id.index()].iter().enumerate() {
                    let alive = list.iter().filter(|&&p| u.page(p).alive(t)).count();
                    assert!(alive <= 1, "slot {k} has {alive} occupants at {t}");
                }
            }
        }
    }

    #[test]
    fn roots_are_immortal() {
        let u = small();
        for site in u.sites() {
            let root = PageId(u.incarnations(site.id, 0).start as u64);
            assert_eq!(u.incarnations(site.id, 0).len(), 1, "one incarnation");
            assert!(u.page(root).death.is_infinite());
            assert!(u.alive(root, 0.0) && u.alive(root, 129.0));
        }
    }

    #[test]
    fn window_is_bounded_and_alive() {
        let u = small();
        for t in [0.0, 50.0, 120.0] {
            for site in u.sites() {
                let w = u.window(site.id, t);
                assert!(w.len() <= u.config().window_size);
                for p in w {
                    assert!(u.alive(p, t));
                }
            }
        }
    }

    #[test]
    fn window_changes_over_time_with_churn() {
        let u = small();
        let site = u.sites()[0].id;
        let w0: Vec<PageId> = u.window(site, 0.0);
        let w1: Vec<PageId> = u.window(site, 120.0);
        assert_ne!(w0, w1, "page churn should rotate window membership");
    }

    #[test]
    fn checksum_tracks_changes() {
        let u = small();
        // Find a page with at least one change while alive.
        let page = u
            .pages()
            .iter()
            .find(|p| !p.events.is_empty())
            .expect("some page changes");
        let e = u.events_of(page.id).get(0).unwrap();
        assert_ne!(
            u.checksum_at(page.id, e - 1e-9),
            u.checksum_at(page.id, e + 1e-9)
        );
        assert!(u.changed_between(page.id, e - 0.5, e + 0.5));
        assert!(!u.copy_is_fresh(page.id, e - 0.5, e + 0.5));
    }

    #[test]
    fn out_links_point_to_alive_pages() {
        let u = small();
        for t in [0.0, 60.0, 120.0] {
            for site in u.sites() {
                for p in u.window(site.id, t) {
                    for url in out_links(&u, p, t) {
                        assert!(u.alive(url.page, t), "link target must be alive");
                        assert_eq!(u.page(url.page).site, url.site);
                    }
                }
            }
        }
    }

    #[test]
    fn dead_pages_have_no_links() {
        let u = small();
        let dead = u
            .pages()
            .iter()
            .find(|p| p.death < 100.0)
            .expect("churn produces dead pages");
        assert!(out_links(&u, dead.id, dead.death + 1.0).is_empty());
    }

    #[test]
    fn snapshot_graph_is_consistent() {
        let u = small();
        let g = u.snapshot_graph(10.0);
        let alive_count = u.pages().iter().filter(|p| p.alive(10.0)).count();
        assert_eq!(g.page_count(), alive_count);
        assert!(g.pages().iter().all(|&p| u.alive(p, 10.0)));
        for (i, &target) in g.pages().iter().enumerate() {
            let sources = g.in_sources(i);
            assert!(sources.windows(2).all(|w| w[0] < w[1]), "ascending, no repeats");
            for &s in sources {
                // Indexing `pages` checks the source is a member.
                let links = out_links(&u, g.pages()[s as usize], 10.0);
                assert!(links.iter().any(|url| url.page == target), "a real link");
            }
        }
        assert!(g.link_count() > 0);
    }

    #[test]
    fn links_change_when_content_changes() {
        let u = small();
        // A page whose extras re-roll across a change event; tree links stay.
        let page = u
            .pages()
            .iter()
            .find(|p| !p.events.is_empty() && p.death.is_infinite() && p.slot < 3)
            .expect("a changing long-lived page near the root");
        let e = u.events_of(page.id).get(0).unwrap();
        let before = out_links(&u, page.id, e - 1e-9);
        let after = out_links(&u, page.id, e + 1e-9);
        // Not asserting inequality for every page (extras may collide), but
        // the link sets must both be valid and deterministic.
        assert_eq!(before, out_links(&u, page.id, e - 1e-9));
        assert_eq!(after, out_links(&u, page.id, e + 1e-9));
    }

    #[test]
    fn rates_follow_domain_profiles() {
        let u = WebUniverse::generate(UniverseConfig::medium_scale(7));
        // com windows should change much faster than gov windows on average.
        let mut com_rate = (0.0, 0usize);
        let mut gov_rate = (0.0, 0usize);
        for site in u.sites() {
            for p in u.window(site.id, 0.0) {
                let r = u.page(p).rate.per_day();
                match site.domain {
                    Domain::Com => {
                        com_rate.0 += r;
                        com_rate.1 += 1;
                    }
                    Domain::Gov => {
                        gov_rate.0 += r;
                        gov_rate.1 += 1;
                    }
                    _ => {}
                }
            }
        }
        let com = com_rate.0 / com_rate.1 as f64;
        let gov = gov_rate.0 / gov_rate.1 as f64;
        assert!(com > 4.0 * gov, "com mean rate {com} should dwarf gov {gov}");
    }
}
