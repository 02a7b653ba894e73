//! Empirical freshness time series.
//!
//! The crawler engines measure *actual* collection freshness against
//! simulator ground truth at sampling instants; this accumulator holds the
//! `(time, freshness)` samples and provides the aggregates the experiments
//! report (time average via trapezoid, minima after warm-up, etc.).

/// A time-ordered series of `(day, freshness)` samples.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FreshnessSeries {
    times: Vec<f64>,
    values: Vec<f64>,
}

impl FreshnessSeries {
    /// An empty series.
    pub fn new() -> FreshnessSeries {
        FreshnessSeries::default()
    }

    /// Append a sample. Times must be non-decreasing; values are clamped to
    /// `[0, 1]` only by assertion (a freshness outside that range is a bug
    /// in the caller).
    pub fn push(&mut self, time_days: f64, freshness: f64) {
        assert!(
            (0.0..=1.0 + 1e-9).contains(&freshness),
            "freshness must be a fraction, got {freshness}"
        );
        if let Some(&last) = self.times.last() {
            assert!(time_days >= last, "samples must be time-ordered");
        }
        self.times.push(time_days);
        self.values.push(freshness.min(1.0));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Sample times.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Sample values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// `(time, value)` rows.
    pub fn rows(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.times.iter().copied().zip(self.values.iter().copied())
    }

    /// Trapezoidal time average over the full series (simple mean if the
    /// series has a single sample or zero span).
    pub fn time_average(&self) -> f64 {
        self.time_average_from(f64::NEG_INFINITY)
    }

    /// Trapezoidal time average restricted to samples with `t >= start`
    /// (used to skip the cold-start ramp when comparing against
    /// steady-state analytics).
    pub fn time_average_from(&self, start: f64) -> f64 {
        let first = self.times.partition_point(|&t| t < start);
        let times = &self.times[first..];
        let values = &self.values[first..];
        if times.is_empty() {
            return 0.0;
        }
        if times.len() == 1 || times.last().unwrap() - times.first().unwrap() < 1e-12 {
            return values.iter().sum::<f64>() / values.len() as f64;
        }
        let mut area = 0.0;
        for i in 1..times.len() {
            area += (times[i] - times[i - 1]) * (values[i] + values[i - 1]) / 2.0;
        }
        area / (times.last().unwrap() - times.first().unwrap())
    }

    /// The final sample, if any.
    pub fn last(&self) -> Option<(f64, f64)> {
        match (self.times.last(), self.values.last()) {
            (Some(&t), Some(&v)) => Some((t, v)),
            _ => None,
        }
    }
}

webevo_types::wire_struct!(FreshnessSeries { times, values }
    reject |s| s.times.len() != s.values.len() => "freshness series times/values length mismatch");

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_flat_series() {
        let mut s = FreshnessSeries::new();
        for i in 0..10 {
            s.push(i as f64, 0.8);
        }
        assert!((s.time_average() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn trapezoid_on_linear_ramp() {
        let mut s = FreshnessSeries::new();
        s.push(0.0, 0.0);
        s.push(10.0, 1.0);
        assert!((s.time_average() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn restricted_average_skips_warmup() {
        let mut s = FreshnessSeries::new();
        s.push(0.0, 0.0);
        s.push(10.0, 0.0);
        s.push(10.0, 1.0);
        s.push(20.0, 1.0);
        assert!((s.time_average_from(10.0) - 1.0).abs() < 1e-12);
        assert!((s.time_average() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn min_from_and_last() {
        let mut s = FreshnessSeries::new();
        s.push(0.0, 0.9);
        s.push(1.0, 0.3);
        s.push(2.0, 0.7);
        assert_eq!(s.last(), Some((2.0, 0.7)));
    }

    #[test]
    fn empty_and_singleton() {
        let s = FreshnessSeries::new();
        assert!(s.is_empty());
        assert_eq!(s.time_average(), 0.0);
        let mut s1 = FreshnessSeries::new();
        s1.push(5.0, 0.4);
        assert!((s1.time_average() - 0.4).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn rejects_time_travel() {
        let mut s = FreshnessSeries::new();
        s.push(2.0, 0.5);
        s.push(1.0, 0.5);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn rejects_bad_freshness() {
        let mut s = FreshnessSeries::new();
        s.push(0.0, 1.5);
    }
}
