//! The event-arena equivalence contract.
//!
//! PR 9 moved page change schedules out of per-page `PoissonProcess`
//! allocations into one universe-wide event arena: a page carries only an
//! `[start, start+len)` window and every content query is a binary search
//! over the shared buffer. The owned `PoissonProcess` path stays in
//! `webevo-stats` as the oracle, and these properties pin the two
//! implementations against each other — generation draw-for-draw, and
//! every query (`checksum_at`, `changed_between`, `alive`,
//! `last_modified`) on a dense time grid *and* at each event boundary
//! nudged by ±1 ulp, where half-open-interval and `<= t` tie-breaking
//! bugs would hide.
//!
//! Tickers (pages changing every `TICKER_PERIOD_DAYS`) store no events at
//! all: their schedule is computed on demand. The loop that used to
//! materialise their ticks into the arena is kept below as the oracle,
//! and every `event_slice` query — including the pair the freshness
//! mirror derives for a copy — must agree with it bit for bit.

use proptest::prelude::*;
use webevo_sim::page::EventRange;
use webevo_sim::profile::TICKER_PERIOD_DAYS;
use webevo_sim::{SimPage, UniverseConfig, WebUniverse};
use webevo_stats::{event_slice, generate_poisson_into, EventSchedule, PoissonProcess, SimRng};
use webevo_types::{ChangeRate, Checksum, PageId, SiteId};

/// Next representable `f64` above `x` (`f64::next_up` needs rustc 1.86;
/// the workspace MSRV is 1.75). Event times are positive and finite, so
/// the bit-increment form is exact.
fn ulp_up(x: f64) -> f64 {
    debug_assert!(x.is_finite() && x > 0.0);
    f64::from_bits(x.to_bits() + 1)
}

/// Next representable `f64` below `x` (see [`ulp_up`]).
fn ulp_down(x: f64) -> f64 {
    debug_assert!(x.is_finite() && x > 0.0);
    f64::from_bits(x.to_bits() - 1)
}

/// Bit patterns, for exact comparison.
fn bits(times: &[f64]) -> Vec<u64> {
    times.iter().map(|t| t.to_bits()).collect()
}

/// A schedule's times, in order.
fn times(events: EventSchedule<'_>) -> Vec<f64> {
    (0..events.len()).map(|i| events.get(i).expect("in range")).collect()
}

/// The generator's old ticker loop: every tick `birth + k·period` for
/// k = 1..=⌈span/period⌉ that falls before `end`, materialised.
fn materialised_ticks(birth: f64, end: f64) -> Vec<f64> {
    let period = TICKER_PERIOD_DAYS;
    let rel_span = (end - birth).max(0.0);
    let n = (rel_span / period).ceil() as usize;
    (1..=n).map(|k| birth + k as f64 * period).filter(|&t| t < end).collect()
}

/// The greatest `f64` below a death instant (`+∞` ↦ `f64::MAX`).
fn last_instant_before(x: f64) -> f64 {
    if x == f64::INFINITY {
        f64::MAX
    } else {
        ulp_down(x)
    }
}

/// The freshness mirror's `(through, staled_at)` pair for a copy crawled
/// at `crawled`, as it was computed over a stored slice: one binary
/// search, then a scan over the events equal to `crawled`.
fn derive_over_slice(events: &[f64], death: f64, crawled: f64) -> (f64, f64) {
    let at = events.partition_point(|&e| e < crawled);
    let after = at + events[at..].iter().take_while(|&&e| e <= crawled).count();
    let through = events.get(at).map_or(f64::INFINITY, |&e| e);
    let staled_at = events.get(after).map_or(death, |&e| e);
    (through.min(last_instant_before(death)), staled_at.min(death))
}

/// The same pair from `event_slice` queries, the way the mirror computes
/// it over any schedule.
fn derive_over_schedule(events: EventSchedule<'_>, death: f64, crawled: f64) -> (f64, f64) {
    let through = event_slice::first_at_or_after(events, crawled).unwrap_or(f64::INFINITY);
    let staled_at = event_slice::first_after(events, crawled).unwrap_or(death);
    (through.min(last_instant_before(death)), staled_at.min(death))
}

/// Query instants that stress the binary searches: a dense grid over
/// `[lo, hi]` plus each event time and its ±1 ulp neighbours.
fn probe_times(events: &[f64], lo: f64, hi: f64) -> Vec<f64> {
    let steps = 48;
    let mut ts: Vec<f64> =
        (0..=steps).map(|i| lo + (hi - lo) * i as f64 / steps as f64).collect();
    for &e in events {
        ts.push(ulp_down(e));
        ts.push(e);
        ts.push(ulp_up(e));
    }
    ts
}

proptest! {
    /// `generate_poisson_into` (the arena writer) is draw-for-draw and
    /// rounding-for-rounding identical to `PoissonProcess::generate`
    /// followed by an `e + birth` shift — same RNG state in, bitwise the
    /// same schedule out.
    #[test]
    fn arena_generation_matches_owned_process(
        seed in 0u64..u64::MAX,
        lambda in 0.0f64..4.0,
        birth in 0.0f64..60.0,
        span in 0.0f64..90.0,
    ) {
        let mut rng_owned = SimRng::seed_from_u64(seed);
        let mut rng_arena = SimRng::seed_from_u64(seed);
        let owned = PoissonProcess::generate(&mut rng_owned, lambda, span);
        let mut arena = Vec::new();
        generate_poisson_into(&mut rng_arena, lambda, span, birth, &mut arena);
        prop_assert_eq!(arena.len(), owned.count());
        for (a, &e) in arena.iter().zip(owned.events()) {
            prop_assert_eq!(a.to_bits(), (e + birth).to_bits());
        }
    }

    /// Every `SimPage` content query agrees with the owned-process oracle
    /// at every probe instant, boundaries ±1 ulp included.
    #[test]
    fn page_queries_match_owned_oracle(
        seed in 0u64..u64::MAX,
        lambda in 0.0f64..3.0,
        birth in 0.0f64..40.0,
        life in 1.0f64..80.0,
    ) {
        let horizon = 128.0;
        let death = birth + life;
        let span = (death.min(horizon) - birth).max(0.0);
        let mut rng = SimRng::seed_from_u64(seed);
        let mut arena = Vec::new();
        generate_poisson_into(&mut rng, lambda, span, birth, &mut arena);
        let page = SimPage {
            id: PageId(11),
            site: SiteId(2),
            slot: 1,
            birth,
            death,
            rate: ChangeRate(lambda),
            events: EventRange::stored(0, arena.len()),
        };
        // The oracle holds the same absolute event times as an owned
        // process, the way pages stored them before the arena.
        let oracle = PoissonProcess::from_sorted_events(arena.clone(), horizon);
        let events = page.events.schedule(&arena, birth);

        let ts = probe_times(&arena, birth - 1.0, horizon + 1.0);
        for &t in &ts {
            prop_assert_eq!(page.version_at(events, t).0, oracle.version_at(t));
            prop_assert_eq!(
                page.checksum_at(events, t),
                Checksum::of_version(page.id.0, oracle.version_at(t)),
                "checksum diverged at t={}", t
            );
            let lm = oracle.last_event_at_or_before(t).unwrap_or(birth);
            prop_assert_eq!(
                page.last_modified(events, t).to_bits(),
                lm.to_bits(),
                "last_modified diverged at t={}", t
            );
            prop_assert_eq!(page.alive(t), t >= birth && t < death);
        }

        // `changed_between` over ordered pairs: the grid against itself,
        // and the ±1 ulp brackets around each of the leading events
        // (where an off-by-one in the half-open interval would flip the
        // answer).
        let grid: Vec<f64> = ts.iter().copied().take(49).collect();
        for (i, &a) in grid.iter().enumerate() {
            for &b in &grid[i..] {
                prop_assert_eq!(
                    page.changed_between(events, a, b),
                    oracle.any_in(a, b),
                    "changed_between diverged on [{}, {})", a, b
                );
            }
        }
        for &e in arena.iter().take(8) {
            prop_assert!(page.changed_between(events, ulp_down(e), ulp_up(e)));
            prop_assert_eq!(
                page.changed_between(events, e, ulp_up(e)),
                oracle.any_in(e, ulp_up(e))
            );
            prop_assert_eq!(
                page.changed_between(events, ulp_up(e), ulp_up(e)),
                oracle.any_in(ulp_up(e), ulp_up(e))
            );
        }
    }

    /// The integration point: a generated universe's arena-backed queries
    /// match an oracle rebuilt from each page's arena slice, across every
    /// page and incarnation.
    #[test]
    fn universe_schedules_match_owned_oracle(seed in 0u64..1u64 << 32) {
        let universe = WebUniverse::generate(UniverseConfig::test_scale(seed));
        let horizon = universe.config().horizon_days;
        for page in universe.pages() {
            let events = times(universe.events_of(page.id));
            if let EventSchedule::Periodic { .. } = universe.events_of(page.id) {
                let end = page.death.min(horizon);
                let reference = materialised_ticks(page.birth, end);
                prop_assert_eq!(bits(&events), bits(&reference), "ticker {:?}", page.id);
            }
            let oracle = PoissonProcess::from_sorted_events(events.clone(), horizon);
            let ts = probe_times(&events, page.birth - 0.5, page.death.min(horizon) + 0.5);
            for &t in &ts {
                prop_assert_eq!(
                    universe.checksum_at(page.id, t),
                    Checksum::of_version(page.id.0, oracle.version_at(t))
                );
                prop_assert_eq!(
                    universe.last_modified(page.id, t).to_bits(),
                    oracle.last_event_at_or_before(t).unwrap_or(page.birth).to_bits()
                );
                prop_assert_eq!(universe.alive(page.id, t), t >= page.birth && t < page.death);
            }
            for w in ts.windows(2) {
                prop_assert_eq!(
                    universe.changed_between(page.id, w[0], w[1]),
                    oracle.any_in(w[0], w[1])
                );
            }
        }
    }

    /// A ticker's computed schedule holds exactly the times the old loop
    /// stored, and every query over it — each `event_slice` function and
    /// the mirror's `(through, staled_at)` — answers bit for bit what the
    /// same query over the stored ticks answers, at every tick, ±1 ulp
    /// around it, and on a grid. Deaths before the first tick and
    /// horizons exactly on a tick are drawn on purpose.
    #[test]
    fn ticker_schedules_match_the_materialising_loop(
        birth_kind in 0u8..3,
        birth_frac in 0.0f64..1.0,
        death_kind in 0u8..3,
        death_frac in 0.0f64..1.0,
        horizon_kind in 0u8..3,
        ticks in 0usize..480,
        horizon_frac in 0.0f64..1.0,
    ) {
        let period = TICKER_PERIOD_DAYS;
        let birth = match birth_kind {
            0 => 0.0,
            1 => birth_frac * 60.0,
            _ => (birth_frac * 240.0).floor() * period,
        };
        let death = match death_kind {
            // Dies before (or exactly at) its first tick.
            0 => birth + period * (1.0 - death_frac),
            1 => birth + 0.01 + death_frac * 90.0,
            _ => f64::INFINITY,
        };
        let horizon = match horizon_kind {
            // Exactly on a tick.
            0 => birth + ticks as f64 * period,
            1 => (birth + ticks as f64 * period).max(period) + horizon_frac * period,
            _ => 1.0 + horizon_frac * 130.0,
        };
        let end = death.min(horizon);
        let reference = materialised_ticks(birth, end);
        let range = EventRange::ticks(birth, end);
        let events = range.schedule(&[], birth);
        prop_assert_eq!(range.len(), reference.len());
        prop_assert_eq!(events.len(), reference.len());
        prop_assert_eq!(bits(&times(events)), bits(&reference));
        prop_assert_eq!(events.get(reference.len()), None);
        let stored = EventSchedule::Stored(&reference);

        let mut ts = probe_times(&reference, birth - 1.0, end.min(birth + 200.0) + 1.0);
        ts.extend([birth, end, f64::NAN]);
        if end > 0.0 && end.is_finite() {
            ts.extend([ulp_down(end), ulp_up(end)]);
        }
        for &t in &ts {
            prop_assert_eq!(event_slice::version_at(events, t), event_slice::version_at(stored, t));
            prop_assert_eq!(
                event_slice::last_at_or_before(events, t).map(f64::to_bits),
                event_slice::last_at_or_before(stored, t).map(f64::to_bits)
            );
            prop_assert_eq!(
                event_slice::first_after(events, t).map(f64::to_bits),
                event_slice::first_after(stored, t).map(f64::to_bits)
            );
            prop_assert_eq!(
                event_slice::first_at_or_after(events, t).map(f64::to_bits),
                event_slice::first_at_or_after(stored, t).map(f64::to_bits)
            );
            if t >= birth {
                let (through, staled_at) = derive_over_schedule(events, death, t);
                let (want_through, want_staled) = derive_over_slice(&reference, death, t);
                prop_assert_eq!(through.to_bits(), want_through.to_bits(), "through at {}", t);
                prop_assert_eq!(staled_at.to_bits(), want_staled.to_bits(), "staled_at at {}", t);
            }
        }
        let grid: Vec<f64> = ts.iter().copied().take(49).collect();
        for (i, &a) in grid.iter().enumerate() {
            for &b in &grid[i..] {
                prop_assert_eq!(
                    event_slice::count_in(events, a, b),
                    event_slice::count_in(stored, a, b)
                );
            }
        }
        for &e in &reference {
            for (a, b) in [(ulp_down(e), e), (e, ulp_up(e)), (ulp_down(e), ulp_up(e)), (birth, e)] {
                prop_assert_eq!(
                    event_slice::count_in(events, a, b),
                    event_slice::count_in(stored, a, b)
                );
                prop_assert_eq!(
                    event_slice::any_in(events, a, b),
                    event_slice::any_in(stored, a, b)
                );
            }
        }
    }
}
