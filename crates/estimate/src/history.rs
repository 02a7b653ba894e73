//! The per-page change history the UpdateModule records.
//!
//! §5.3: *"To implement EP, the UpdateModule has to record how many times
//! the crawler detected changes to a page for, say, last 6 months."* A
//! [`ChangeHistory`] is that record: a bounded log of visits, each tagged
//! with whether the checksum differed from the previous visit, plus running
//! totals so estimators never need to replay the log.

use std::collections::VecDeque;
use webevo_types::{wire_struct, Checksum};

/// One crawl observation of a page.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Observation {
    /// When the page was visited (days).
    pub time: f64,
    /// Days since the previous visit (0 for the first visit).
    pub interval: f64,
    /// Whether the checksum differed from the previous visit. `false` on
    /// the first visit (there is nothing to compare against).
    pub changed: bool,
}

/// A bounded log of change observations for one page.
///
/// The window is bounded by observation count (a proxy for the paper's
/// "last 6 months"): old observations retire from the running totals as
/// they fall out, so long-lived pages adapt when their behaviour drifts.
#[derive(Clone, Debug)]
pub struct ChangeHistory {
    window: usize,
    observations: VecDeque<Observation>,
    last_checksum: Option<Checksum>,
    last_visit: Option<f64>,
    // Running totals over the retained window (excluding first-visit
    // observations, which carry no change information).
    comparisons: u64,
    detections: u64,
    monitored_days: f64,
}

impl ChangeHistory {
    /// Create with a retention window of `window` observations. A window of
    /// 200 daily visits ≈ the paper's 6 months. Nothing is reserved: the
    /// log grows with the page's visits, and most pages are visited far
    /// fewer times than the window holds.
    pub fn new(window: usize) -> ChangeHistory {
        assert!(window >= 2, "window must retain at least two observations");
        ChangeHistory {
            window,
            observations: VecDeque::new(),
            last_checksum: None,
            last_visit: None,
            comparisons: 0,
            detections: 0,
            monitored_days: 0.0,
        }
    }

    /// Record a visit at `time` that produced `checksum`. Returns the
    /// observation (with `changed` resolved against the previous visit).
    pub fn record_visit(&mut self, time: f64, checksum: Checksum) -> Observation {
        if let Some(last) = self.last_visit {
            assert!(time >= last, "visits must be time-ordered");
        }
        let (interval, changed) = match (self.last_visit, self.last_checksum) {
            (Some(last_t), Some(last_c)) => (time - last_t, checksum != last_c),
            _ => (0.0, false),
        };
        let obs = Observation { time, interval, changed };
        if self.last_visit.is_some() {
            self.comparisons += 1;
            self.monitored_days += interval;
            if changed {
                self.detections += 1;
            }
        }
        self.observations.push_back(obs);
        if self.observations.len() > self.window {
            // The first visit carries no comparison; it is retired
            // uncounted. (A same-instant unchanged revisit looks like it,
            // `interval == 0 && !changed`, but was counted.)
            let first_visit = self.retains_first_visit();
            let old = self.observations.pop_front().expect("non-empty");
            if !first_visit {
                self.comparisons -= 1;
                self.monitored_days -= old.interval;
                if old.changed {
                    self.detections -= 1;
                }
            }
        }
        self.last_checksum = Some(checksum);
        self.last_visit = Some(time);
        obs
    }

    /// Number of visit-pairs compared within the window.
    pub fn comparisons(&self) -> u64 {
        self.comparisons
    }

    /// Number of detected changes within the window.
    pub fn detections(&self) -> u64 {
        self.detections
    }

    /// Total days of monitoring covered by the retained comparisons.
    pub fn monitored_days(&self) -> f64 {
        self.monitored_days.max(0.0)
    }

    /// The most recent checksum.
    pub fn last_checksum(&self) -> Option<Checksum> {
        self.last_checksum
    }

    /// Retained observations, oldest first.
    pub fn observations(&self) -> impl Iterator<Item = &Observation> {
        self.observations.iter()
    }

    /// Comparison observations only (skipping the first visit), oldest
    /// first — the input shape the estimators consume.
    pub fn comparison_observations(&self) -> impl Iterator<Item = &Observation> {
        self.observations.iter().skip(usize::from(self.retains_first_visit()))
    }

    /// Whether the oldest retained observation is the first visit: every
    /// other retained observation is a counted comparison.
    fn retains_first_visit(&self) -> bool {
        self.observations.len() as u64 == self.comparisons + 1
    }

    /// True when the history has enough comparisons for estimation.
    pub fn has_data(&self) -> bool {
        self.comparisons > 0
    }

    /// Average access interval over the window (None without data).
    pub fn mean_access_interval(&self) -> Option<f64> {
        if self.comparisons == 0 {
            None
        } else {
            Some(self.monitored_days / self.comparisons as f64)
        }
    }
}

wire_struct!(Observation { time, interval, changed });
// A decoded history is checked, not trusted: `record_visit` retires
// observations against the window and the running totals, and would
// underflow `comparisons` or `detections` on a history outside these
// bounds. `detections` is exactly the retained changed observations:
// `record_visit` counts and retires the two in step. `monitored_days` is a
// sum of finite intervals, and a NaN or infinite total would poison EP's
// rate for every visit that follows.
wire_struct!(ChangeHistory {
    window, observations, last_checksum, last_visit, comparisons, detections, monitored_days
} reject |h| h.window < 2
    || h.observations.len() > h.window
    || h.comparisons > h.observations.len() as u64
    || h.detections != h.observations.iter().filter(|o| o.changed).count() as u64
    || !h.monitored_days.is_finite()
    => "change history outgrows its window, counts more comparisons than observations, \
        miscounts its detected changes, or monitored a non-finite span");

#[cfg(test)]
mod tests {
    use super::*;
    use webevo_types::{BinDecode, BinEncode, BinError, BinReader};

    fn ck(v: u64) -> Checksum {
        Checksum(v)
    }

    #[test]
    fn a_new_history_reserves_nothing() {
        let mut h = ChangeHistory::new(200);
        assert_eq!(h.observations.capacity(), 0, "the log grows with its visits");
        h.record_visit(0.0, ck(1));
        assert!(h.observations.capacity() < 200);
    }

    #[test]
    fn first_visit_is_not_a_comparison() {
        let mut h = ChangeHistory::new(10);
        let obs = h.record_visit(0.0, ck(1));
        assert!(!obs.changed);
        assert_eq!(h.comparisons(), 0);
        assert!(!h.has_data());
    }

    #[test]
    fn detects_changes_via_checksum() {
        let mut h = ChangeHistory::new(10);
        h.record_visit(0.0, ck(1));
        let same = h.record_visit(1.0, ck(1));
        assert!(!same.changed);
        let diff = h.record_visit(2.0, ck(2));
        assert!(diff.changed);
        assert_eq!(h.comparisons(), 2);
        assert_eq!(h.detections(), 1);
        assert!((h.monitored_days() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn window_retires_old_observations() {
        let mut h = ChangeHistory::new(3);
        h.record_visit(0.0, ck(0));
        h.record_visit(1.0, ck(1)); // change
        h.record_visit(2.0, ck(1)); // no change
        h.record_visit(3.0, ck(2)); // change; first visit falls out
        assert_eq!(h.observations().count(), 3);
        assert_eq!(h.comparisons(), 3);
        h.record_visit(4.0, ck(2)); // the change-at-1.0 falls out
        assert_eq!(h.comparisons(), 3);
        assert_eq!(h.detections(), 1);
        assert!((h.monitored_days() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn a_zero_interval_revisit_retires_as_a_comparison() {
        let mut h = ChangeHistory::new(3);
        h.record_visit(0.0, ck(0));
        h.record_visit(1.0, ck(1)); // change
        h.record_visit(1.0, ck(1)); // same instant, unchanged: a comparison
        assert_eq!(h.comparisons(), 2);
        h.record_visit(2.0, ck(1)); // the first visit falls out
        h.record_visit(3.0, ck(1)); // the change at 1.0 falls out
        assert_eq!(h.comparisons(), 3);
        assert_eq!(h.comparison_observations().count(), 3, "the zero-interval revisit counts");
        h.record_visit(4.0, ck(1)); // the zero-interval revisit falls out
        assert_eq!(h.observations().count(), 3);
        assert_eq!(h.comparisons(), 3);
        assert_eq!(h.detections(), 0);
        assert_eq!(h.comparison_observations().count(), 3);
        assert!((h.monitored_days() - 3.0).abs() < 1e-12);
        assert_eq!(h.mean_access_interval(), Some(1.0));
    }

    #[test]
    fn mean_access_interval() {
        let mut h = ChangeHistory::new(10);
        h.record_visit(0.0, ck(0));
        assert_eq!(h.mean_access_interval(), None);
        h.record_visit(2.0, ck(0));
        h.record_visit(6.0, ck(0));
        assert!((h.mean_access_interval().unwrap() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn comparison_observations_skip_first() {
        let mut h = ChangeHistory::new(10);
        h.record_visit(0.0, ck(0));
        h.record_visit(1.0, ck(1));
        h.record_visit(2.0, ck(1));
        assert_eq!(h.comparison_observations().count(), 2);
        assert_eq!(h.observations().count(), 3);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn rejects_unordered_visits() {
        let mut h = ChangeHistory::new(5);
        h.record_visit(5.0, ck(0));
        h.record_visit(4.0, ck(0));
    }

    #[test]
    fn irregular_intervals_tracked() {
        let mut h = ChangeHistory::new(10);
        h.record_visit(0.0, ck(0));
        h.record_visit(0.5, ck(1));
        h.record_visit(10.0, ck(2));
        let intervals: Vec<f64> =
            h.comparison_observations().map(|o| o.interval).collect();
        assert_eq!(intervals, vec![0.5, 9.5]);
    }

    fn roundtrip(h: &ChangeHistory) -> Result<ChangeHistory, BinError> {
        let mut bytes = Vec::new();
        h.bin_encode(&mut bytes);
        ChangeHistory::bin_decode(&mut BinReader::new(&bytes))
    }

    #[test]
    fn decode_rejects_a_window_under_two() {
        let mut h = ChangeHistory::new(2);
        assert!(roundtrip(&h).is_ok());
        h.window = 1;
        assert!(roundtrip(&h).is_err());
    }

    #[test]
    fn decode_rejects_more_observations_than_the_window() {
        let mut h = ChangeHistory::new(3);
        for day in 0..3u64 {
            h.record_visit(day as f64, ck(day));
        }
        assert!(roundtrip(&h).is_ok());
        h.window = 2;
        assert!(roundtrip(&h).is_err());
    }

    #[test]
    fn decode_rejects_more_comparisons_than_observations() {
        let mut h = ChangeHistory::new(3);
        h.record_visit(0.0, ck(0));
        h.record_visit(1.0, ck(1));
        assert!(roundtrip(&h).is_ok());
        h.comparisons = 3;
        assert!(roundtrip(&h).is_err());
    }

    #[test]
    fn decode_rejects_detections_that_miscount_the_changed_observations() {
        let mut h = ChangeHistory::new(3);
        for (day, c) in [(0.0, 0), (1.0, 1), (2.0, 2), (3.0, 2)] {
            h.record_visit(day, ck(c));
        }
        assert_eq!(h.detections(), 2);
        assert!(roundtrip(&h).is_ok());
        for detections in [0, 1, 3] {
            h.detections = detections;
            // Too few would underflow at the next retirement; too many
            // would inflate EP's rate.
            assert!(roundtrip(&h).is_err(), "detections = {detections}");
        }
    }

    #[test]
    fn decode_rejects_non_finite_monitored_days() {
        let mut h = ChangeHistory::new(3);
        h.record_visit(0.0, ck(0));
        h.record_visit(1.5, ck(1));
        assert!(roundtrip(&h).is_ok());
        for days in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            h.monitored_days = days;
            assert!(roundtrip(&h).is_err(), "monitored_days = {days}");
        }
    }
}
