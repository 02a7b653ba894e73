//! Histograms, including the paper's categorical interval bins.
//!
//! Figure 2 buckets average change intervals into `≤1day`, `1day–1week`,
//! `1week–1month`, `1month–4months`, `>4months`; Figure 4 buckets visible
//! lifespans into `≤1week`, `1week–1month`, `1month–4months`, `>4months`.
//! Those exact binnings are first-class types here so every consumer agrees
//! on the edges.

use crate::summary::Summary;
use std::fmt;

use webevo_types::time::{FOUR_MONTHS, MONTH, WEEK};

/// The five change-interval bins of Figure 2.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum IntervalBin {
    /// Average change interval of one day or less (the paper's "changed
    /// every time we visited" bucket — >20% of all pages, >40% of com).
    UpToDay,
    /// More than a day, up to a week.
    DayToWeek,
    /// More than a week, up to a month.
    WeekToMonth,
    /// More than a month, up to four months.
    MonthToFourMonths,
    /// Longer than four months (never observed to change during the
    /// experiment).
    OverFourMonths,
}

impl IntervalBin {
    /// All bins in Figure 2's left-to-right order.
    pub const ALL: [IntervalBin; 5] = [
        IntervalBin::UpToDay,
        IntervalBin::DayToWeek,
        IntervalBin::WeekToMonth,
        IntervalBin::MonthToFourMonths,
        IntervalBin::OverFourMonths,
    ];

    /// Classify an average change interval in days.
    pub fn classify(interval_days: f64) -> IntervalBin {
        if interval_days <= 1.0 {
            IntervalBin::UpToDay
        } else if interval_days <= WEEK {
            IntervalBin::DayToWeek
        } else if interval_days <= MONTH {
            IntervalBin::WeekToMonth
        } else if interval_days <= FOUR_MONTHS {
            IntervalBin::MonthToFourMonths
        } else {
            IntervalBin::OverFourMonths
        }
    }

    /// Figure 2's axis label for the bin.
    pub const fn label(self) -> &'static str {
        match self {
            IntervalBin::UpToDay => "<=1day",
            IntervalBin::DayToWeek => ">1day,<=1week",
            IntervalBin::WeekToMonth => ">1week,<=1month",
            IntervalBin::MonthToFourMonths => ">1month,<=4months",
            IntervalBin::OverFourMonths => ">4months",
        }
    }

    /// Stable index 0..5 in display order.
    pub const fn index(self) -> usize {
        match self {
            IntervalBin::UpToDay => 0,
            IntervalBin::DayToWeek => 1,
            IntervalBin::WeekToMonth => 2,
            IntervalBin::MonthToFourMonths => 3,
            IntervalBin::OverFourMonths => 4,
        }
    }
}

impl fmt::Display for IntervalBin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Counts per change-interval bin; renders Figure 2 rows.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct IntervalHistogram {
    counts: [u64; 5],
}

impl IntervalHistogram {
    /// Record one page's average change interval.
    pub fn record(&mut self, interval_days: f64) {
        self.counts[IntervalBin::classify(interval_days).index()] += 1;
    }

    /// Record a page directly into a bin (used when the interval is censored
    /// and only its bin is known, e.g. "never changed in 4 months").
    pub fn record_bin(&mut self, bin: IntervalBin) {
        self.counts[bin.index()] += 1;
    }

    /// Count in a bin.
    pub fn count(&self, bin: IntervalBin) -> u64 {
        self.counts[bin.index()]
    }

    /// Total pages recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fraction of pages in a bin (0 when empty).
    pub fn fraction(&self, bin: IntervalBin) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.count(bin) as f64 / total as f64
        }
    }

    /// All fractions in display order.
    pub fn fractions(&self) -> [f64; 5] {
        let mut out = [0.0; 5];
        for (i, b) in IntervalBin::ALL.iter().enumerate() {
            out[i] = self.fraction(*b);
        }
        out
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &IntervalHistogram) {
        for i in 0..5 {
            self.counts[i] += other.counts[i];
        }
    }
}

/// The four visible-lifespan bins of Figure 4.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LifespanBin {
    /// Visible lifespan of one week or less.
    UpToWeek,
    /// More than a week, up to a month.
    WeekToMonth,
    /// More than a month, up to four months.
    MonthToFourMonths,
    /// Longer than four months.
    OverFourMonths,
}

impl LifespanBin {
    /// All bins in Figure 4's left-to-right order.
    pub const ALL: [LifespanBin; 4] = [
        LifespanBin::UpToWeek,
        LifespanBin::WeekToMonth,
        LifespanBin::MonthToFourMonths,
        LifespanBin::OverFourMonths,
    ];

    /// Classify a lifespan in days.
    pub fn classify(lifespan_days: f64) -> LifespanBin {
        if lifespan_days <= WEEK {
            LifespanBin::UpToWeek
        } else if lifespan_days <= MONTH {
            LifespanBin::WeekToMonth
        } else if lifespan_days <= FOUR_MONTHS {
            LifespanBin::MonthToFourMonths
        } else {
            LifespanBin::OverFourMonths
        }
    }

    /// Figure 4's axis label.
    pub const fn label(self) -> &'static str {
        match self {
            LifespanBin::UpToWeek => "<=1week",
            LifespanBin::WeekToMonth => ">1week,<=1month",
            LifespanBin::MonthToFourMonths => ">1month,<=4months",
            LifespanBin::OverFourMonths => ">4months",
        }
    }

    /// Stable index 0..4 in display order.
    pub const fn index(self) -> usize {
        match self {
            LifespanBin::UpToWeek => 0,
            LifespanBin::WeekToMonth => 1,
            LifespanBin::MonthToFourMonths => 2,
            LifespanBin::OverFourMonths => 3,
        }
    }
}

impl fmt::Display for LifespanBin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Counts per lifespan bin; renders Figure 4 rows.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LifespanHistogram {
    counts: [u64; 4],
}

impl LifespanHistogram {
    /// Record one page's visible lifespan in days.
    pub fn record(&mut self, lifespan_days: f64) {
        self.counts[LifespanBin::classify(lifespan_days).index()] += 1;
    }

    /// Count in a bin.
    pub fn count(&self, bin: LifespanBin) -> u64 {
        self.counts[bin.index()]
    }

    /// Total pages recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fraction of pages in a bin (0 when empty).
    pub fn fraction(&self, bin: LifespanBin) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.count(bin) as f64 / total as f64
        }
    }

    /// All fractions in display order.
    pub fn fractions(&self) -> [f64; 4] {
        let mut out = [0.0; 4];
        for (i, b) in LifespanBin::ALL.iter().enumerate() {
            out[i] = self.fraction(*b);
        }
        out
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &LifespanHistogram) {
        for i in 0..4 {
            self.counts[i] += other.counts[i];
        }
    }
}

/// A general equal-width histogram over `[lo, hi)` with `n` bins, used for
/// Figure 6's change-interval distributions.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    /// Samples below `lo` / at-or-above `hi`.
    underflow: u64,
    overflow: u64,
    summary: Summary,
}

impl Histogram {
    /// Create with `bins` equal-width bins over `[lo, hi)`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Histogram {
        assert!(hi > lo, "histogram range must be non-empty");
        assert!(bins > 0, "histogram needs at least one bin");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
            summary: Summary::default(),
        }
    }

    /// Record a sample.
    pub fn record(&mut self, x: f64) {
        self.summary.record(x);
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let w = (self.hi - self.lo) / self.counts.len() as f64;
            let idx = ((x - self.lo) / w) as usize;
            let idx = idx.min(self.counts.len() - 1);
            self.counts[idx] += 1;
        }
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Raw per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Samples recorded, including under/overflow.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// Samples below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples at or above the range end.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Center of bin `i`.
    pub fn bin_center(&self, i: usize) -> f64 {
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        self.lo + (i as f64 + 0.5) * w
    }

    /// Width of each bin.
    pub fn bin_width(&self) -> f64 {
        (self.hi - self.lo) / self.counts.len() as f64
    }

    /// Fraction of in-range samples in bin `i` (Figure 6's vertical axis is
    /// "fraction of changes with that interval").
    pub fn fraction(&self, i: usize) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.counts[i] as f64 / total as f64
        }
    }

    /// Probability-density estimate in bin `i` (fraction / bin width).
    pub fn density(&self, i: usize) -> f64 {
        self.fraction(i) / self.bin_width()
    }

    /// Summary statistics of everything recorded.
    pub fn summary(&self) -> &Summary {
        &self.summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_bins_match_figure2_edges() {
        assert_eq!(IntervalBin::classify(0.5), IntervalBin::UpToDay);
        assert_eq!(IntervalBin::classify(1.0), IntervalBin::UpToDay);
        assert_eq!(IntervalBin::classify(1.01), IntervalBin::DayToWeek);
        assert_eq!(IntervalBin::classify(7.0), IntervalBin::DayToWeek);
        assert_eq!(IntervalBin::classify(7.5), IntervalBin::WeekToMonth);
        assert_eq!(IntervalBin::classify(30.0), IntervalBin::WeekToMonth);
        assert_eq!(IntervalBin::classify(30.5), IntervalBin::MonthToFourMonths);
        assert_eq!(IntervalBin::classify(120.0), IntervalBin::MonthToFourMonths);
        assert_eq!(IntervalBin::classify(121.0), IntervalBin::OverFourMonths);
        assert_eq!(IntervalBin::classify(f64::INFINITY), IntervalBin::OverFourMonths);
    }

    #[test]
    fn lifespan_bins_match_figure4_edges() {
        assert_eq!(LifespanBin::classify(3.0), LifespanBin::UpToWeek);
        assert_eq!(LifespanBin::classify(7.0), LifespanBin::UpToWeek);
        assert_eq!(LifespanBin::classify(10.0), LifespanBin::WeekToMonth);
        assert_eq!(LifespanBin::classify(30.0), LifespanBin::WeekToMonth);
        assert_eq!(LifespanBin::classify(100.0), LifespanBin::MonthToFourMonths);
        assert_eq!(LifespanBin::classify(121.0), LifespanBin::OverFourMonths);
    }

    #[test]
    fn interval_histogram_fractions_sum_to_one() {
        let mut h = IntervalHistogram::default();
        for &d in &[0.5, 2.0, 9.0, 45.0, 200.0, 200.0] {
            h.record(d);
        }
        assert_eq!(h.total(), 6);
        let sum: f64 = h.fractions().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert_eq!(h.count(IntervalBin::OverFourMonths), 2);
    }

    #[test]
    fn interval_histogram_merge() {
        let mut a = IntervalHistogram::default();
        a.record(0.5);
        let mut b = IntervalHistogram::default();
        b.record(0.7);
        b.record(50.0);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.count(IntervalBin::UpToDay), 2);
    }

    #[test]
    fn general_histogram_binning() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for x in [0.0, 0.5, 1.0, 9.99, -1.0, 10.0, 25.0] {
            h.record(x);
        }
        assert_eq!(h.total(), 7);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.counts()[0], 2); // 0.0, 0.5
        assert_eq!(h.counts()[1], 1); // 1.0
        assert_eq!(h.counts()[9], 1); // 9.99
        assert!((h.bin_center(0) - 0.5).abs() < 1e-12);
        assert!((h.bin_width() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_fraction_and_density() {
        let mut h = Histogram::new(0.0, 2.0, 2);
        h.record(0.5);
        h.record(1.5);
        h.record(1.6);
        assert!((h.fraction(0) - 1.0 / 3.0).abs() < 1e-12);
        assert!((h.density(1) - (2.0 / 3.0)).abs() < 1e-12);
    }

    #[test]
    fn labels_are_paper_axis_labels() {
        assert_eq!(IntervalBin::UpToDay.label(), "<=1day");
        assert_eq!(LifespanBin::OverFourMonths.label(), ">4months");
    }
}
