//! Simulated pages and sites.
//!
//! A **site** is a fixed array of `pages_per_site` BFS-ordered *slots*
//! (page locations). A **page** is one incarnation living in a slot for its
//! lifetime; when it dies, a fresh page (new `PageId`, new URL) is born in
//! the same slot — "pages are constantly created and removed" (§5.1) while
//! the site keeps its shape. The crawl window is the leading `window_size`
//! slots, so pages enter the window at birth and leave at death, matching
//! §2.1's window semantics. Slot 0 is the site root and never dies. No
//! per-slot lists are kept: page ids are handed out in site → slot →
//! incarnation order, so the universe's one flat occupancy index (see
//! [`crate::WebUniverse::occupant`]) answers every slot query.
//!
//! Change schedules are *not* stored per page. A Poisson page's sorted
//! event times live as one range of the universe-wide event arena, so it
//! carries only the `[start, start+len)` window. A ticker (a page that
//! changes every `TICKER_PERIOD_DAYS`) stores nothing but its event count:
//! its schedule is computed from its birth on demand (see
//! [`crate::WebUniverse::events_of`]). Either way every content query is a
//! binary search over an [`EventSchedule`].

use crate::profile::TICKER_PERIOD_DAYS;
use webevo_stats::{event_slice, EventSchedule};
use webevo_types::{ChangeRate, Checksum, Domain, PageId, PageVersion, SiteId};

/// Where a page's change events are: a slice of the universe-wide event
/// arena, or a ticker's computed schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EventRange {
    /// Offset of the first event in the arena, or [`Self::COMPUTED`] for a
    /// ticker, whose events are not stored.
    start: usize,
    /// Number of events.
    len: usize,
}

impl EventRange {
    /// The `start` of a ticker's range: no arena offset is ever this large.
    const COMPUTED: usize = usize::MAX;

    /// `len` events stored in the arena from offset `start`.
    pub fn stored(start: usize, len: usize) -> EventRange {
        debug_assert!(start != Self::COMPUTED, "arena offset out of range");
        EventRange { start, len }
    }

    /// A ticker born at `birth` whose schedule ends at `end` (its death or
    /// the horizon): the ticks `birth + k·TICKER_PERIOD_DAYS` for
    /// k = 1, 2, … that fall before `end`, counted, not stored.
    pub fn ticks(birth: f64, end: f64) -> EventRange {
        // The ticks ascend in k, so counting down from the last candidate
        // finds how many fall before `end`.
        let mut len = ((end - birth).max(0.0) / TICKER_PERIOD_DAYS).ceil() as usize;
        while len > 0 && birth + len as f64 * TICKER_PERIOD_DAYS >= end {
            len -= 1;
        }
        EventRange { start: Self::COMPUTED, len }
    }

    /// Number of events.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the page never changes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The page's schedule: its slice of the shared `arena`, or its ticks
    /// counted from `birth`.
    #[inline]
    pub fn schedule<'a>(&self, arena: &'a [f64], birth: f64) -> EventSchedule<'a> {
        if self.start == Self::COMPUTED {
            EventSchedule::Periodic { origin: birth, period: TICKER_PERIOD_DAYS, len: self.len }
        } else {
            EventSchedule::Stored(&arena[self.start..self.start + self.len])
        }
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
    /// Where the page's change schedule (absolute times within
    /// `[birth, min(death, horizon))`) is: a range of the universe's
    /// shared event arena, or a ticker's event count.
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
    pub fn version_at(&self, events: EventSchedule<'_>, t: f64) -> PageVersion {
        PageVersion(event_slice::version_at(events, t))
    }

    /// Content checksum at `t` — what a crawl observes.
    pub fn checksum_at(&self, events: EventSchedule<'_>, t: f64) -> Checksum {
        Checksum::of_version(self.id.0, event_slice::version_at(events, t))
    }

    /// Did the content change in `[a, b)`? Ground truth for evaluation.
    pub fn changed_between(&self, events: EventSchedule<'_>, a: f64, b: f64) -> bool {
        event_slice::any_in(events, a, b)
    }

    /// Time of the last change at or before `t` (birth time if none) —
    /// the "last-modified date" a well-behaved server would report.
    pub fn last_modified(&self, events: EventSchedule<'_>, t: f64) -> f64 {
        event_slice::last_at_or_before(events, t).unwrap_or(self.birth)
    }
}

/// One simulated site: an id and a domain. Its slots' occupants are found
/// through [`crate::WebUniverse::occupant`].
#[derive(Clone, Debug)]
pub struct SimSite {
    /// Site identifier (index into the universe's site table).
    pub id: SiteId,
    /// Domain class (fixed at generation).
    pub domain: Domain,
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
            events: EventRange::stored(0, arena.len()),
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
        let events = p.events.schedule(&arena, p.birth);
        assert!(!events.is_empty(), "want at least one change for the test");
        let e0 = arena[0];
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
        assert_eq!(p.last_modified(p.events.schedule(&arena, p.birth), 100.0), 5.0);
    }

    #[test]
    fn a_page_fits_one_cache_line() {
        assert!(std::mem::size_of::<SimPage>() <= 64);
    }

    #[test]
    fn a_ticker_range_computes_its_ticks_from_birth() {
        let birth = 3.7;
        let range = EventRange::ticks(birth, birth + 1.3);
        assert_eq!((range.len(), range.is_empty()), (5, false));
        let events = range.schedule(&[], birth);
        for k in 0..5 {
            let stored = birth + (k + 1) as f64 * TICKER_PERIOD_DAYS;
            assert_eq!(events.get(k).map(f64::to_bits), Some(stored.to_bits()));
        }
        assert_eq!(events.get(5), None);
        // A tick at `end` is not before it, and a page dead before its
        // first tick never changes.
        assert_eq!(EventRange::ticks(birth, birth + 1.25).len(), 4);
        assert!(EventRange::ticks(birth, birth + 0.1).is_empty());
    }
}
