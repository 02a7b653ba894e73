//! The metrics registry: named counters, gauges, and fixed-bucket
//! histograms, mergeable across shards.
//!
//! Everything here is deterministic given the recorded values: names are
//! kept in `BTreeMap`s (stable iteration order), and histograms use one
//! fixed set of bucket edges (powers of two, `1..=2^30`), so two shards'
//! histograms always merge bucket-for-bucket exactly like
//! `CrawlMetrics::merge_weighted` merges the crawl series. The only
//! way a merge can fail is combining registries built with different
//! custom edges — a typed [`ObsError::EdgeMismatch`], mirroring the
//! grid-mismatch error of the metrics merge.

use std::collections::BTreeMap;
use std::fmt;

/// A typed observability error.
#[derive(Clone, Debug, PartialEq)]
pub enum ObsError {
    /// Two histograms under the same name carry different bucket edges
    /// and cannot be merged.
    EdgeMismatch {
        /// The histogram's name.
        name: String,
    },
}

impl fmt::Display for ObsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObsError::EdgeMismatch { name } => write!(
                f,
                "histogram {name:?} was recorded with different bucket edges on \
                 different shards and cannot be merged"
            ),
        }
    }
}

impl std::error::Error for ObsError {}

/// A fixed-bucket histogram: `buckets[i]` counts values `<= edges[i]`,
/// with one overflow bucket at the end. Edges are set at first
/// observation and never change, so histograms recorded independently on
/// many shards merge by bucket-wise addition.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    edges: Vec<f64>,
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
}

impl Histogram {
    /// The default bucket edges: powers of two from 1 to 2³⁰. One fixed
    /// geometric ladder covers every unit this crate records — durations
    /// in microseconds, sizes in bytes, depths in items — at ~2× relative
    /// resolution, and fixing it globally is what makes every histogram
    /// mergeable with every peer shard's.
    const DEFAULT_EDGES: [f64; 31] = {
        let mut edges = [0.0; 31];
        let mut i = 0;
        while i < 31 {
            edges[i] = (1u64 << i) as f64;
            i += 1;
        }
        edges
    };

    /// An empty histogram over the default power-of-two edges.
    pub fn new() -> Histogram {
        Histogram::with_edges(Histogram::DEFAULT_EDGES.to_vec())
    }

    /// An empty histogram over custom ascending `edges`.
    fn with_edges(edges: Vec<f64>) -> Histogram {
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "histogram edges must be strictly ascending"
        );
        let buckets = vec![0; edges.len() + 1];
        Histogram { edges, buckets, count: 0, sum: 0.0 }
    }

    /// The bucket upper bounds.
    pub fn edges(&self) -> &[f64] {
        &self.edges
    }

    /// Cumulative-friendly raw bucket counts (`edges.len() + 1` long; the
    /// last is the overflow bucket).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Record one observation.
    pub fn observe(&mut self, value: f64) {
        let idx = self.edges.partition_point(|&edge| edge < value);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += value;
    }

    /// Add `other`'s observations into this histogram.
    fn merge_from(&mut self, other: &Histogram, name: &str) -> Result<(), ObsError> {
        if self.edges != other.edges {
            return Err(ObsError::EdgeMismatch { name: name.to_string() });
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        Ok(())
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

/// One shard context's named metrics. Obtained from
/// `ObsSink::registries`/`ObsSink::merged_registry`; instrumented code
/// records through the sink, never through this type directly.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// Add `delta` to the counter `name` (creating it at zero).
    pub fn add(&mut self, name: &str, delta: u64) {
        if let Some(counter) = self.counters.get_mut(name) {
            *counter += delta;
        } else {
            self.counters.insert(name.to_string(), delta);
        }
    }

    /// Set the gauge `name` to `value`.
    pub fn gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Record `value` into the histogram `name` (default edges).
    pub fn observe(&mut self, name: &str, value: f64) {
        if let Some(histogram) = self.histograms.get_mut(name) {
            histogram.observe(value);
        } else {
            let mut histogram = Histogram::new();
            histogram.observe(value);
            self.histograms.insert(name.to_string(), histogram);
        }
    }

    /// The counter's value (0 when never recorded).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The gauge's value, if ever set.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The named histogram, if any value was ever observed.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters, name-ascending.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(name, &value)| (name.as_str(), value))
    }

    /// All gauges, name-ascending.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(name, &value)| (name.as_str(), value))
    }

    /// All histograms, name-ascending.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(name, histogram)| (name.as_str(), histogram))
    }

    /// Whether nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Merge another registry into this one: counters sum, gauges keep
    /// the maximum (a fleet-level "worst shard" view — per-shard values
    /// stay available on the per-shard registries), histograms add
    /// bucket-wise. Fails only on a histogram edge mismatch.
    pub fn merge_from(&mut self, other: &MetricsRegistry) -> Result<(), ObsError> {
        for (name, &value) in &other.counters {
            self.add(name, value);
        }
        for (name, &value) in &other.gauges {
            let merged = match self.gauges.get(name) {
                Some(&mine) => mine.max(value),
                None => value,
            };
            self.gauges.insert(name.clone(), merged);
        }
        for (name, histogram) in &other.histograms {
            if let Some(mine) = self.histograms.get_mut(name) {
                mine.merge_from(histogram, name)?;
            } else {
                self.histograms.insert(name.clone(), histogram.clone());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_power_of_two() {
        let mut h = Histogram::new();
        h.observe(1.0); // <= 1 → bucket 0
        h.observe(3.0); // <= 4 → bucket 2
        h.observe(1024.0); // <= 1024 → bucket 10
        h.observe(3e9); // beyond 2^30 → overflow
        assert_eq!(h.count(), 4);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[2], 1);
        assert_eq!(h.buckets()[10], 1);
        assert_eq!(*h.buckets().last().unwrap(), 1);
        assert!((h.sum() - (1.0 + 3.0 + 1024.0 + 3e9)).abs() < 1e-6);
    }

    #[test]
    fn registries_merge_deterministically() {
        let mut a = MetricsRegistry::default();
        a.add("fetch_ok_total", 10);
        a.gauge("queue_depth", 40.0);
        a.observe("wal_flush_records", 100.0);
        let mut b = MetricsRegistry::default();
        b.add("fetch_ok_total", 5);
        b.add("fetch_transient_total", 2);
        b.gauge("queue_depth", 70.0);
        b.observe("wal_flush_records", 200.0);

        let mut ab = a.clone();
        ab.merge_from(&b).unwrap();
        let mut ba = b.clone();
        ba.merge_from(&a).unwrap();
        // Counters and histograms are commutative; the gauge keeps max.
        assert_eq!(ab, ba);
        assert_eq!(ab.counter("fetch_ok_total"), 15);
        assert_eq!(ab.counter("fetch_transient_total"), 2);
        assert_eq!(ab.gauge_value("queue_depth"), Some(70.0));
        let h = ab.histogram("wal_flush_records").unwrap();
        assert_eq!(h.count(), 2);
        assert!((h.sum() - 300.0).abs() < 1e-9);
    }

    #[test]
    fn edge_mismatch_is_typed() {
        let mut a = MetricsRegistry::default();
        a.observe("x", 1.0);
        let mut b = MetricsRegistry::default();
        b.histograms
            .insert("x".to_string(), Histogram::with_edges(vec![1.0, 10.0]));
        let err = a.merge_from(&b).unwrap_err();
        assert_eq!(err, ObsError::EdgeMismatch { name: "x".to_string() });
    }
}
