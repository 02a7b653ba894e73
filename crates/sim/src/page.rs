//! Simulated pages and sites.
//!
//! A **site** is a fixed array of BFS-ordered *slots* (page locations). A
//! **page** is one incarnation living in a slot for its lifetime; when it
//! dies, a fresh page (new `PageId`, new URL) is born in the same slot —
//! "pages are constantly created and removed" (§5.1) while the site keeps
//! its shape. The crawl window is the leading `window_size` slots, so pages
//! enter the window at birth and leave at death, matching §2.1's window
//! semantics. Slot 0 is the site root and never dies.
//!
//! Change schedules are *not* stored per page: every page's sorted event
//! times live as one range of the universe-wide event arena (see
//! [`crate::WebUniverse::events_of`]), so a page carries only the
//! `[start, start+len)` window and every content query is a binary search
//! over a shared, cache-friendly buffer.

use webevo_stats::event_slice;
use webevo_types::{ChangeRate, Checksum, Domain, PageId, PageVersion, SiteId};

/// A page's slice of the universe-wide change-event arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EventRange {
    /// Offset of the first event in the arena.
    pub start: usize,
    /// Number of events.
    pub len: usize,
}

impl EventRange {
    /// The page's events within the shared arena.
    #[inline]
    pub fn slice<'a>(&self, arena: &'a [f64]) -> &'a [f64] {
        &arena[self.start..self.start + self.len]
    }
}

/// One page incarnation.
#[derive(Clone, Debug)]
pub struct SimPage {
    /// Globally unique id (index into the universe's page table).
    pub id: PageId,
    /// Owning site.
    pub site: SiteId,
    /// BFS slot within the site.
    pub slot: usize,
    /// Birth time (days). The initial occupant of a slot is born at 0.
    pub birth: f64,
    /// Death time (days); `f64::INFINITY` for immortal pages (roots and
    /// no-churn universes).
    pub death: f64,
    /// True Poisson change rate — ground truth, never shown to crawlers.
    pub rate: ChangeRate,
    /// The page's materialized change schedule (absolute times within
    /// `[birth, min(death, horizon))`), as a range of the universe's
    /// shared event arena.
    pub events: EventRange,
}

impl SimPage {
    /// Is the page alive (born, not yet deleted) at `t`?
    #[inline]
    pub fn alive(&self, t: f64) -> bool {
        t >= self.birth && t < self.death
    }

    /// Content version at `t` (0 at birth, +1 per change event). `events`
    /// is this page's schedule, `universe.events_of(self.id)`.
    pub fn version_at(&self, events: &[f64], t: f64) -> PageVersion {
        PageVersion(event_slice::version_at(events, t))
    }

    /// Content checksum at `t` — what a crawl observes.
    pub fn checksum_at(&self, events: &[f64], t: f64) -> Checksum {
        Checksum::of_version(self.id.0, event_slice::version_at(events, t))
    }

    /// Did the content change in `[a, b)`? Ground truth for evaluation.
    pub fn changed_between(&self, events: &[f64], a: f64, b: f64) -> bool {
        event_slice::any_in(events, a, b)
    }

    /// Time of the last change at or before `t` (birth time if none) —
    /// the "last-modified date" a well-behaved server would report.
    pub fn last_modified(&self, events: &[f64], t: f64) -> f64 {
        event_slice::last_at_or_before(events, t).unwrap_or(self.birth)
    }
}

/// One simulated site: a domain, and its slots' occupancy history.
#[derive(Clone, Debug)]
pub struct SimSite {
    /// Site identifier (index into the universe's site table).
    pub id: SiteId,
    /// Domain class (fixed at generation).
    pub domain: Domain,
    /// `slots[k]` lists the successive occupants of slot `k`,
    /// time-ordered: each page's death is the next page's birth.
    pub slots: Vec<Vec<PageId>>,
}

impl SimSite {
    /// Number of slots (the site's total page capacity).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webevo_stats::{PoissonProcess, SimRng};

    /// A page plus its private event arena (tests don't need sharing).
    fn page(birth: f64, death: f64, lambda: f64, seed: u64) -> (SimPage, Vec<f64>) {
        let mut rng = SimRng::seed_from_u64(seed);
        let horizon = death.min(200.0);
        // Generate events on [0, horizon-birth) then shift to absolute time.
        let rel = PoissonProcess::generate(&mut rng, lambda, (horizon - birth).max(0.0));
        let arena: Vec<f64> = rel.events().iter().map(|e| e + birth).collect();
        let page = SimPage {
            id: PageId(7),
            site: SiteId(0),
            slot: 3,
            birth,
            death,
            rate: ChangeRate(lambda),
            events: EventRange { start: 0, len: arena.len() },
        };
        (page, arena)
    }

    #[test]
    fn liveness_window() {
        let (p, _) = page(10.0, 50.0, 0.1, 1);
        assert!(!p.alive(9.99));
        assert!(p.alive(10.0));
        assert!(p.alive(49.99));
        assert!(!p.alive(50.0));
    }

    #[test]
    fn checksum_changes_exactly_with_version() {
        let (p, arena) = page(0.0, f64::INFINITY, 0.5, 2);
        let events = p.events.slice(&arena);
        assert!(!events.is_empty(), "want at least one change for the test");
        let e0 = events[0];
        let before = p.checksum_at(events, e0 - 1e-6);
        let after = p.checksum_at(events, e0 + 1e-6);
        assert_ne!(before, after, "checksum must change across a change event");
        assert_eq!(
            p.checksum_at(events, e0 + 1e-6),
            p.checksum_at(
                events,
                event_slice::first_after(events, e0).map(|t| t - 1e-6).unwrap_or(100.0)
            ),
            "checksum stable between events"
        );
    }

    #[test]
    fn last_modified_defaults_to_birth() {
        let (p, arena) = page(5.0, f64::INFINITY, 0.0, 4);
        assert_eq!(p.last_modified(p.events.slice(&arena), 100.0), 5.0);
    }

    #[test]
    fn site_page_enumeration() {
        let site = SimSite {
            id: SiteId(1),
            domain: Domain::Edu,
            slots: vec![vec![PageId(0)], vec![PageId(1), PageId(2)]],
        };
        assert_eq!(site.slot_count(), 2);
    }
}
