//! Poisson-process event schedules.
//!
//! The simulator holds, for every page, the sorted list of change times
//! over the simulation horizon: materialized for Poisson pages, computed
//! on demand for fixed-period ones ([`EventSchedule`]). Either way the
//! ground truth is exactly queryable — "did this page change between my last
//! visit and now?" is a binary search — which is what the estimator- and
//! freshness-evaluation layers are judged against.

use crate::dist::sample_exponential;
use crate::rng::SimRng;

/// A realized Poisson process: sorted event times within `[0, horizon)`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PoissonProcess {
    events: Vec<f64>,
    horizon: f64,
}

impl PoissonProcess {
    /// Generate a realization with rate `lambda` (events/day) on
    /// `[0, horizon)` days. A rate of zero yields no events.
    pub fn generate(rng: &mut SimRng, lambda: f64, horizon: f64) -> PoissonProcess {
        assert!(lambda >= 0.0 && lambda.is_finite(), "rate must be finite and >= 0");
        assert!(horizon >= 0.0 && horizon.is_finite(), "horizon must be finite and >= 0");
        let mut events = Vec::new();
        if lambda > 0.0 {
            // Expected count is lambda * horizon; reserve with some headroom.
            events.reserve((lambda * horizon * 1.2) as usize + 4);
            let mut t = sample_exponential(rng, lambda);
            while t < horizon {
                events.push(t);
                t += sample_exponential(rng, lambda);
            }
        }
        PoissonProcess { events, horizon }
    }

    /// Build directly from pre-sorted event times (used in tests and by
    /// deterministic fixtures). Panics if the events are unsorted or outside
    /// `[0, horizon)`.
    pub fn from_sorted_events(events: Vec<f64>, horizon: f64) -> PoissonProcess {
        assert!(
            events.windows(2).all(|w| w[0] <= w[1]),
            "event times must be sorted"
        );
        if let (Some(&first), Some(&last)) = (events.first(), events.last()) {
            assert!(first >= 0.0 && last < horizon, "events must lie in [0, horizon)");
        }
        PoissonProcess { events, horizon }
    }

    /// The generation horizon in days.
    #[inline]
    pub fn horizon(&self) -> f64 {
        self.horizon
    }

    /// All event times, sorted ascending.
    #[inline]
    pub fn events(&self) -> &[f64] {
        &self.events
    }

    /// Total number of events.
    #[inline]
    pub fn count(&self) -> usize {
        self.events.len()
    }

    /// Number of events in `[a, b)`.
    pub fn count_in(&self, a: f64, b: f64) -> usize {
        if b <= a {
            return 0;
        }
        let lo = self.events.partition_point(|&t| t < a);
        let hi = self.events.partition_point(|&t| t < b);
        hi - lo
    }

    /// True if at least one event falls in `[a, b)`.
    #[inline]
    pub fn any_in(&self, a: f64, b: f64) -> bool {
        self.count_in(a, b) > 0
    }

    /// The time of the last event at or before `t`, if any.
    pub fn last_event_at_or_before(&self, t: f64) -> Option<f64> {
        let idx = self.events.partition_point(|&e| e <= t);
        if idx == 0 {
            None
        } else {
            Some(self.events[idx - 1])
        }
    }

    /// Number of events at or before `t` — i.e. the page's version at `t`
    /// (version 0 before the first change).
    pub fn version_at(&self, t: f64) -> u64 {
        self.events.partition_point(|&e| e <= t) as u64
    }

    /// Inter-event intervals (length `count() - 1` when `count() >= 2`).
    pub fn intervals(&self) -> Vec<f64> {
        self.events.windows(2).map(|w| w[1] - w[0]).collect()
    }
}

/// Append a realization with rate `lambda` (events/day) on `[0, horizon)`,
/// with each event shifted by `offset`, to `out`.
///
/// Draw-for-draw and rounding-for-rounding identical to
/// [`PoissonProcess::generate`] followed by an `e + offset` shift — the
/// building block for arena-based schedules that pack every page's events
/// into one shared buffer instead of a `Vec` per page.
pub fn generate_poisson_into(
    rng: &mut SimRng,
    lambda: f64,
    horizon: f64,
    offset: f64,
    out: &mut Vec<f64>,
) {
    assert!(lambda >= 0.0 && lambda.is_finite(), "rate must be finite and >= 0");
    assert!(horizon >= 0.0 && horizon.is_finite(), "horizon must be finite and >= 0");
    if lambda > 0.0 {
        out.reserve((lambda * horizon * 1.2) as usize + 4);
        let mut t = sample_exponential(rng, lambda);
        while t < horizon {
            out.push(t + offset);
            t += sample_exponential(rng, lambda);
        }
    }
}

/// A page's sorted change times, as the ground-truth queries read them:
/// either stored (a slice of a shared arena) or a fixed-period schedule
/// evaluated on demand.
///
/// A periodic schedule's `k`-th time (0-based) is
/// `origin + (k + 1) as f64 * period`, the very expression a loop
/// materialising the ticks would have stored, so every time it answers is
/// the stored time bit for bit and no query can tell the two apart. It
/// costs no memory per tick, which is what makes it worth having: a page
/// that changes four times a day for a year would store 1,460 floats.
#[derive(Clone, Copy, Debug)]
pub enum EventSchedule<'a> {
    /// Times held in memory, sorted ascending.
    Stored(&'a [f64]),
    /// `len` ticks at `origin + k as f64 * period` for `k = 1..=len`.
    Periodic {
        /// The instant the ticks count from (the first tick is one
        /// `period` after it).
        origin: f64,
        /// Days between ticks; positive and finite.
        period: f64,
        /// Number of ticks.
        len: usize,
    },
}

impl EventSchedule<'_> {
    /// Number of events.
    #[inline]
    pub fn len(&self) -> usize {
        match *self {
            EventSchedule::Stored(events) => events.len(),
            EventSchedule::Periodic { len, .. } => len,
        }
    }

    /// True when the schedule holds no event.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th event time (0-based), if there is one.
    #[inline]
    pub fn get(&self, i: usize) -> Option<f64> {
        match *self {
            EventSchedule::Stored(events) => events.get(i).copied(),
            EventSchedule::Periodic { origin, period, len } => {
                (i < len).then(|| origin + (i + 1) as f64 * period)
            }
        }
    }

    /// The index of the first event for which `pred` is false, given that
    /// `pred` holds on a prefix of the events and fails on the rest — the
    /// slice method of the same name, over either representation.
    #[inline]
    pub fn partition_point(&self, mut pred: impl FnMut(f64) -> bool) -> usize {
        match *self {
            EventSchedule::Stored(events) => events.partition_point(|&e| pred(e)),
            EventSchedule::Periodic { origin, period, len } => {
                // The slice method's search, over computed times.
                let (mut lo, mut hi) = (0, len);
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    if pred(origin + (mid + 1) as f64 * period) {
                        lo = mid + 1;
                    } else {
                        hi = mid;
                    }
                }
                lo
            }
        }
    }
}

/// Binary-search queries over a sorted event schedule — the arena-backed
/// equivalents of the [`PoissonProcess`] accessors, for callers that hold
/// event times as a range of a shared buffer (or as a computed periodic
/// schedule) rather than an owned process. Semantics (half-open
/// intervals, inclusive `<= t` version counting) are pinned against the
/// owned implementation by the equivalence tests in `webevo-sim`.
pub mod event_slice {
    use super::EventSchedule;

    /// Number of events in `[a, b)`.
    pub fn count_in(events: EventSchedule<'_>, a: f64, b: f64) -> usize {
        if b <= a {
            return 0;
        }
        let lo = events.partition_point(|t| t < a);
        let hi = events.partition_point(|t| t < b);
        hi - lo
    }

    /// True if at least one event falls in `[a, b)`.
    #[inline]
    pub fn any_in(events: EventSchedule<'_>, a: f64, b: f64) -> bool {
        count_in(events, a, b) > 0
    }

    /// The time of the last event at or before `t`, if any.
    pub fn last_at_or_before(events: EventSchedule<'_>, t: f64) -> Option<f64> {
        let idx = events.partition_point(|e| e <= t);
        idx.checked_sub(1).and_then(|i| events.get(i))
    }

    /// The time of the first event at or after `t`, if any.
    pub fn first_at_or_after(events: EventSchedule<'_>, t: f64) -> Option<f64> {
        events.get(events.partition_point(|e| e < t))
    }

    /// The time of the first event strictly after `t`, if any.
    pub fn first_after(events: EventSchedule<'_>, t: f64) -> Option<f64> {
        events.get(events.partition_point(|e| e <= t))
    }

    /// Number of events at or before `t` — the version at `t`.
    pub fn version_at(events: EventSchedule<'_>, t: f64) -> u64 {
        events.partition_point(|e| e <= t) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> PoissonProcess {
        PoissonProcess::from_sorted_events(vec![1.0, 2.5, 2.5, 7.0], 10.0)
    }

    #[test]
    fn count_in_half_open() {
        let p = fixture();
        assert_eq!(p.count_in(0.0, 1.0), 0);
        assert_eq!(p.count_in(0.0, 1.0001), 1);
        assert_eq!(p.count_in(1.0, 2.5), 1);
        assert_eq!(p.count_in(2.5, 2.6), 2);
        assert_eq!(p.count_in(0.0, 10.0), 4);
        assert_eq!(p.count_in(5.0, 5.0), 0);
        assert_eq!(p.count_in(9.0, 1.0), 0);
    }

    #[test]
    fn version_counts_events_inclusive() {
        let p = fixture();
        assert_eq!(p.version_at(0.0), 0);
        assert_eq!(p.version_at(1.0), 1);
        assert_eq!(p.version_at(2.5), 3);
        assert_eq!(p.version_at(100.0), 4);
    }

    #[test]
    fn neighbors() {
        let p = fixture();
        assert_eq!(p.last_event_at_or_before(0.5), None);
        assert_eq!(p.last_event_at_or_before(1.0), Some(1.0));
        assert_eq!(p.last_event_at_or_before(6.0), Some(2.5));
    }

    #[test]
    fn generated_count_matches_rate() {
        let mut rng = SimRng::seed_from_u64(8);
        let lambda = 0.5;
        let horizon = 200.0;
        let trials = 300;
        let mut total = 0usize;
        for _ in 0..trials {
            let p = PoissonProcess::generate(&mut rng, lambda, horizon);
            assert!(p.events().windows(2).all(|w| w[0] <= w[1]));
            assert!(p.events().iter().all(|&t| (0.0..horizon).contains(&t)));
            total += p.count();
        }
        let mean = total as f64 / trials as f64;
        let expect = lambda * horizon;
        assert!((mean - expect).abs() < 0.05 * expect, "mean={mean}, expect={expect}");
    }

    #[test]
    fn zero_rate_has_no_events() {
        let mut rng = SimRng::seed_from_u64(9);
        let p = PoissonProcess::generate(&mut rng, 0.0, 100.0);
        assert_eq!(p.count(), 0);
        assert!(!p.any_in(0.0, 100.0));
    }

    #[test]
    fn intervals_are_differences() {
        let p = fixture();
        assert_eq!(p.intervals(), vec![1.5, 0.0, 4.5]);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn rejects_unsorted_fixture() {
        let _ = PoissonProcess::from_sorted_events(vec![2.0, 1.0], 10.0);
    }

    #[test]
    fn intervals_look_exponential() {
        // Mean inter-arrival should be ~1/lambda.
        let mut rng = SimRng::seed_from_u64(10);
        let lambda = 2.0;
        let p = PoissonProcess::generate(&mut rng, lambda, 10_000.0);
        let intervals = p.intervals();
        let mean: f64 = intervals.iter().sum::<f64>() / intervals.len() as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean={mean}");
    }
}
