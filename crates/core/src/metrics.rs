//! Crawl-quality instrumentation against simulator ground truth.
//!
//! The evaluation layer — *not* part of the crawler (a real crawler cannot
//! measure its own freshness; §4 needs the Poisson model for exactly that
//! reason). The engines call [`CrawlMetrics::sample`] on a fixed cadence
//! and record admission events; the summaries feed Figure 10's comparison
//! and the crawler-architecture benches.
//!
//! # The freshness sampler
//!
//! Every engine samples through one `CopyTruth`, held by its shell; the
//! simulator's change schedules are read for evaluation only there.
//! A stored copy `(p, crawled)` sampled at `t ≥ crawled` is fresh exactly
//! when `t ≤ through`, where `through` is the earlier of the page's first
//! change event at or after `crawled` and the last instant before its
//! death. That is `WebUniverse::copy_is_fresh`'s "alive at `t` and no
//! event in `[crawled, t)`", given `crawled ≥ birth`, which any copy a
//! successful fetch made satisfies. A stale copy ages from
//! `staled_at = min(first event > crawled, death)`. Both instants depend
//! only on `(p, crawled)`, so they are derived when the copy is stored,
//! from one binary search of the page's events, while the fetch that
//! made the copy has them in cache.
//!
//! `CopyTruth` is a mirror of the engine's visible copy set: two
//! `PageId`-indexed columns, `through` and `staled_at` (NaN where no copy
//! is held), and a copy count. A sample is one pass over the columns in
//! ascending id, the order the engines' copy iterators walk, so every age
//! sum adds the same terms in the same order as the per-copy loop it
//! replaced.
//!
//! The contract this rests on:
//!
//! * the engine calls `store` wherever it stores or recrawls a copy,
//!   `remove` wherever it discards one, and `clear` before storing a
//!   whole new visible set;
//! * no sample precedes a held copy's crawl, and no copy is crawled
//!   before its page's birth; sample times never decrease.
//!
//! A new or restored engine's mirror is unbuilt: it ignores stores and
//! removes until its first sample rebuilds it from the engine's copies.
//! Debug builds assert the contract and check the mirror against the
//! engine's copies at every sample: the count, and each copy's re-derived
//! pair.
//!
//! The freshness test's `[crawled, t)` and the age term's strict
//! "first event after `crawled`" disagree on an event exactly at
//! `crawled`: such a copy is stale from the first later instant yet ages
//! from the next event (or death). That edge is preserved as it always
//! was; changing it would move every freshness and age bit.

use webevo_freshness::FreshnessSeries;
use webevo_sim::WebUniverse;
use webevo_stats::{event_slice, Summary};
use webevo_types::{wire_struct, PageId, WebEvoError};

/// Metrics collected over one crawler run.
#[derive(Clone, Debug, Default)]
pub struct CrawlMetrics {
    /// Freshness of the user-visible collection over time.
    pub freshness: FreshnessSeries,
    /// Mean age (days) of the user-visible collection over time.
    pub age: FreshnessSeries,
    /// Latency from page birth to first availability in the user-visible
    /// collection, per admitted page (dominated by discovery physics:
    /// how soon some crawled page links to the newcomer).
    pub new_page_latency: Summary,
    /// Latency from *discovery* (URL first seen by the crawler) to first
    /// availability — the paper's §1 claim is about exactly this: "the
    /// incremental crawler may immediately index the new page, right
    /// after it is found", while the periodic crawler sits on found pages
    /// until the swap.
    pub discovery_latency: Summary,
    /// Total fetches issued.
    pub fetches: u64,
    /// Fetches that failed (NotFound or Transient).
    pub failed_fetches: u64,
    /// Peak crawl speed observed (fetches/day, over the sampling interval).
    pub peak_speed: f64,
}

impl CrawlMetrics {
    /// Record one sampling instant: collection freshness and mean age.
    /// Freshness is a fraction (a value outside `[0, 1]` beyond rounding
    /// is a bug in the caller, and panics); it is clamped to 1. Ages are
    /// unbounded.
    ///
    /// Sampling the same instant twice collapses to one row. Both the
    /// per-day sampling grid and a drive call's closing sample can land on
    /// the same `t` — the engine is frozen in between, so the collection
    /// (and therefore the sampled values) cannot have changed — and a
    /// fleet resume may reconstruct only one of the two. Dedup keeps the
    /// series a pure function of `(state, t)`, bitwise identical across
    /// run/kill/resume paths.
    pub fn sample(&mut self, t: f64, freshness: f64, mean_age: f64) {
        if self.freshness.times().last().map(|last| last.to_bits()) == Some(t.to_bits()) {
            return;
        }
        assert!(
            (0.0..=1.0 + 1e-9).contains(&freshness),
            "freshness must be a fraction, got {freshness}"
        );
        self.freshness.push(t, freshness.min(1.0));
        self.age.push(t, mean_age);
    }

    /// Record a page becoming visible to users `latency` days after its
    /// birth.
    pub fn record_admission_latency(&mut self, latency: f64) {
        // Pages born before the run started would report negative latency;
        // clamp at zero (they were available "immediately" relative to
        // their discoverable life).
        self.new_page_latency.record(latency.max(0.0));
    }

    /// Record a page becoming visible `latency` days after the crawler
    /// first learned of its URL.
    pub fn record_discovery_latency(&mut self, latency: f64) {
        self.discovery_latency.record(latency.max(0.0));
    }

    /// Record fetch accounting.
    pub fn record_fetch(&mut self, ok: bool) {
        self.fetches += 1;
        if !ok {
            self.failed_fetches += 1;
        }
    }

    /// Update the observed peak speed.
    pub fn observe_speed(&mut self, fetches_per_day: f64) {
        if fetches_per_day > self.peak_speed {
            self.peak_speed = fetches_per_day;
        }
    }

    /// Time-averaged freshness after `start` (skip warm-up).
    pub fn average_freshness_from(&self, start: f64) -> f64 {
        self.freshness.time_average_from(start)
    }

    /// Merge shard-level metrics into one fleet-level view. `parts` pairs
    /// each shard's metrics with its weight (its collection capacity —
    /// the nominal share of the fleet's pages), **in ascending shard
    /// order**: the fold order is part of the determinism contract, so
    /// the merged floats are byte-identical no matter how the shards were
    /// scheduled onto worker threads.
    ///
    /// Semantics per channel:
    ///
    /// * `freshness` / `age`: the weighted mean at each sampling instant.
    ///   All parts must have sampled at *identical* times (shards in a
    ///   fleet share one sampling grid by construction); a mismatch is a
    ///   typed error, never a silent re-interpolation. With capacity
    ///   weights the pooled value is exact once every part's collection
    ///   is full (the steady state the paper evaluates); while a part is
    ///   still filling, its samples average over fewer pages than its
    ///   weight asserts, so the merged warm-up ramp is an approximation —
    ///   per-sample collection sizes are not part of the durable metrics
    ///   state, deliberately.
    /// * latency summaries: exact parallel Welford combination
    ///   ([`Summary::merge`]).
    /// * `fetches` / `failed_fetches`: sums.
    /// * `peak_speed`: the sum of per-shard peaks — the fleet's aggregate
    ///   crawl capability, since shards fetch concurrently.
    pub fn merge_weighted(parts: &[(f64, &CrawlMetrics)]) -> Result<CrawlMetrics, WebEvoError> {
        let mut merged = CrawlMetrics::default();
        let Some((_, first)) = parts.first() else {
            return Ok(merged);
        };
        let total_weight: f64 = parts.iter().map(|(w, _)| *w).sum();
        if total_weight.is_nan() || total_weight <= 0.0 {
            return Err(WebEvoError::invalid(format!(
                "metrics merge needs a positive total weight, got {total_weight}"
            )));
        }
        for (i, (_, part)) in parts.iter().enumerate() {
            if part.freshness.times() != first.freshness.times()
                || part.age.times() != first.age.times()
            {
                return Err(WebEvoError::InvalidState(format!(
                    "metrics merge: part {i} sampled on a different time grid than part 0 \
                     ({} vs {} freshness samples); fleet shards must share one sampling \
                     cadence and horizon",
                    part.freshness.len(),
                    first.freshness.len()
                )));
            }
        }
        for (row, &t) in first.freshness.times().iter().enumerate() {
            let mut fresh = 0.0;
            let mut age = 0.0;
            for (w, part) in parts {
                fresh += w * part.freshness.values()[row];
                age += w * part.age.values()[row];
            }
            merged.sample(t, fresh / total_weight, age / total_weight);
        }
        for (_, part) in parts {
            merged.new_page_latency.merge(&part.new_page_latency);
            merged.discovery_latency.merge(&part.discovery_latency);
            merged.fetches += part.fetches;
            merged.failed_fetches += part.failed_fetches;
            merged.peak_speed += part.peak_speed;
        }
        Ok(merged)
    }

    /// Render the standard crawl-quality report as a table: one labelled
    /// column per metric set, one row per summary channel (freshness
    /// averaged from `warmup_days` on, copy age, visibility latencies,
    /// peak speed, fetch totals). This is *the* freshness/age table — the
    /// `repro crawlers` target, the examples, and [`CrawlMetrics`]'s own
    /// [`std::fmt::Display`] all print through it, so the report stays
    /// consistent everywhere.
    pub fn comparison_table(columns: &[(&str, &CrawlMetrics)], warmup_days: f64) -> String {
        use std::fmt::Write as _;
        fn row(out: &mut String, name: &str, values: impl Iterator<Item = String>) {
            let _ = write!(out, "{name:<34}");
            for value in values {
                let _ = write!(out, "{value:>13}");
            }
            let _ = writeln!(out);
        }
        let mut out = String::new();
        row(&mut out, "metric", columns.iter().map(|(label, _)| label.to_string()));
        row(
            &mut out,
            "avg freshness (post-warmup)",
            columns
                .iter()
                .map(|(_, m)| format!("{:.3}", m.average_freshness_from(warmup_days))),
        );
        row(
            &mut out,
            "avg copy age (days)",
            columns.iter().map(|(_, m)| format!("{:.2}", m.age.time_average())),
        );
        row(
            &mut out,
            "found->visible latency (days)",
            columns.iter().map(|(_, m)| format!("{:.2}", m.discovery_latency.mean())),
        );
        row(
            &mut out,
            "birth->visible latency (days)",
            columns.iter().map(|(_, m)| format!("{:.2}", m.new_page_latency.mean())),
        );
        row(
            &mut out,
            "peak crawl speed (pages/day)",
            columns.iter().map(|(_, m)| format!("{:.1}", m.peak_speed)),
        );
        row(&mut out, "total fetches", columns.iter().map(|(_, m)| m.fetches.to_string()));
        out
    }
}

impl std::fmt::Display for CrawlMetrics {
    /// The single-column report table (no warm-up cut: freshness averages
    /// over the whole run).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&CrawlMetrics::comparison_table(&[("value", self)], 0.0))
    }
}

/// The freshness sampler: a mirror of the engine's visible copies, each
/// copy's ground truth derived when it is stored (see the module docs).
/// Evaluation state, not crawl state: like the shell's observers it is in
/// no checkpoint, so a restored, replayed or rebalanced engine starts
/// unbuilt and rebuilds at its first sample.
#[derive(Debug, Default)]
pub(crate) struct CopyTruth {
    /// Per page id, sized by the largest id stored: the last instant the
    /// held copy is fresh through, NaN where no copy is held.
    through: Vec<f64>,
    /// Per page id: the instant the held copy goes stale from, NaN where
    /// no copy is held.
    staled_at: Vec<f64>,
    /// Copies held.
    copies: usize,
    /// Whether the columns mirror the engine's copies: false until the
    /// first sample or [`CopyTruth::clear`].
    built: bool,
    /// The latest instant sampled.
    last_t: Option<f64>,
}

impl CopyTruth {
    /// The engine stored or recrawled the copy of `p` at `crawled`.
    pub(crate) fn store(&mut self, universe: &WebUniverse, p: PageId, crawled: f64) {
        if !self.built {
            return;
        }
        let i = p.index();
        if i >= self.through.len() {
            self.through.resize(i + 1, f64::NAN);
            self.staled_at.resize(i + 1, f64::NAN);
        }
        if self.through[i].is_nan() {
            self.copies += 1;
        }
        (self.through[i], self.staled_at[i]) = derive(universe, p, crawled);
    }

    /// The engine discarded the copy of `p`.
    pub(crate) fn remove(&mut self, p: PageId) {
        let i = p.index();
        if let Some(through) = self.through.get_mut(i) {
            if !through.is_nan() {
                *through = f64::NAN;
                self.staled_at[i] = f64::NAN;
                self.copies -= 1;
            }
        }
    }

    /// The engine's visible set is now empty: it is about to store a whole
    /// new one.
    pub(crate) fn clear(&mut self) {
        self.through.clear();
        self.staled_at.clear();
        self.copies = 0;
        self.built = true;
    }

    /// Freshness and mean age at `t` of the user-visible `copies`, each a
    /// `(page, day it was crawled)` pair in ascending page order. They are
    /// read only to build the mirror at the first sample, and in debug
    /// builds to check it. An empty collection samples as `(0, 0)`.
    pub(crate) fn sample(
        &mut self,
        universe: &WebUniverse,
        t: f64,
        copies: impl Iterator<Item = (PageId, f64)>,
    ) -> (f64, f64) {
        debug_assert!(
            self.last_t.map_or(true, |last| t >= last),
            "freshness sampled at {t} after {:?}",
            self.last_t
        );
        self.last_t = Some(t);
        let rebuild = !self.built;
        if rebuild {
            self.clear();
        }
        if rebuild || cfg!(debug_assertions) {
            let mut n = 0usize;
            for (p, crawled) in copies {
                n += 1;
                debug_assert!(t >= crawled, "sampled at {t}, before {p:?}'s crawl at {crawled}");
                if rebuild {
                    self.store(universe, p, crawled);
                } else {
                    self.check(universe, p, crawled);
                }
            }
            debug_assert_eq!(n, self.copies, "the freshness mirror's copy count drifted");
        }
        if self.copies == 0 {
            return (0.0, 0.0);
        }
        let (mut fresh, mut age_sum) = (0usize, 0.0);
        for (&through, &staled_at) in self.through.iter().zip(&self.staled_at) {
            fresh += usize::from(t <= through);
            // A fresh copy's `staled_at` is at or after `through`, so at
            // or after `t`, and an empty slot's is NaN, which `max` drops:
            // either term is a zero, and a zero leaves the sum (which
            // starts at +0.0, so is never -0.0) bit for bit as it was.
            age_sum += (t - staled_at).max(0.0);
        }
        let n = self.copies as f64;
        (fresh as f64 / n, age_sum / n)
    }

    /// Debug builds: the mirror holds the pair `derive` gives the copy of
    /// `p` crawled at `crawled`.
    fn check(&self, universe: &WebUniverse, p: PageId, crawled: f64) {
        let i = p.index();
        let held = (self.through.get(i).copied(), self.staled_at.get(i).copied());
        let (through, staled_at) = derive(universe, p, crawled);
        debug_assert!(
            held.0.map(f64::to_bits) == Some(through.to_bits())
                && held.1.map(f64::to_bits) == Some(staled_at.to_bits()),
            "the freshness mirror holds {held:?} for {p:?} crawled at {crawled}, \
             not ({through}, {staled_at}): a store or remove was missed"
        );
    }
}

/// The `(through, staled_at)` pair of the copy of `p` crawled at
/// `crawled`, from the page's events: the first event at or after
/// `crawled` capped at the last instant before death, and the first event
/// strictly after `crawled` capped at death.
fn derive(universe: &WebUniverse, p: PageId, crawled: f64) -> (f64, f64) {
    let page = universe.page(p);
    debug_assert!(crawled >= page.birth, "{p:?} crawled at {crawled}, before its birth");
    let events = universe.events_of(p);
    let through = event_slice::first_at_or_after(events, crawled).unwrap_or(f64::INFINITY);
    let staled_at = event_slice::first_after(events, crawled).unwrap_or(page.death);
    (through.min(last_instant_before(page.death)), staled_at.min(page.death))
}

/// The greatest `f64` below a death instant `x` (`+∞` ↦ `f64::MAX`), so
/// that `t < x` exactly when `t ≤ last_instant_before(x)`. Bit arithmetic,
/// because `f64::next_down` postdates the workspace's minimum Rust.
fn last_instant_before(x: f64) -> f64 {
    if x == f64::INFINITY {
        f64::MAX
    } else if x > 0.0 {
        f64::from_bits(x.to_bits() - 1)
    } else if x == 0.0 {
        -f64::from_bits(1)
    } else if x < 0.0 {
        f64::from_bits(x.to_bits() + 1)
    } else {
        x
    }
}

wire_struct!(CrawlMetrics {
    freshness, age, new_page_latency, discovery_latency, fetches, failed_fetches, peak_speed
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_accumulate() {
        let mut m = CrawlMetrics::default();
        m.sample(0.0, 0.5, 1.0);
        m.sample(10.0, 0.9, 0.5);
        m.record_fetch(true);
        m.record_fetch(false);
        m.record_admission_latency(3.0);
        m.record_admission_latency(-2.0);
        m.observe_speed(40.0);
        m.observe_speed(10.0);
        assert_eq!(m.fetches, 2);
        assert_eq!(m.failed_fetches, 1);
        assert_eq!(m.peak_speed, 40.0);
        assert!((m.freshness.time_average() - 0.7).abs() < 1e-12);
        assert!((m.age.time_average() - 0.75).abs() < 1e-12);
        assert_eq!(m.new_page_latency.count(), 2);
        assert_eq!(m.new_page_latency.min(), 0.0, "negative latency clamped");
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn sample_rejects_a_freshness_outside_the_unit_interval() {
        CrawlMetrics::default().sample(0.0, 1.5, 0.0);
    }

    #[test]
    fn merge_weighted_pools_channels() {
        let mut a = CrawlMetrics::default();
        a.sample(0.0, 1.0, 0.0);
        a.sample(5.0, 0.5, 2.0);
        a.record_fetch(true);
        a.record_admission_latency(4.0);
        a.observe_speed(10.0);
        let mut b = CrawlMetrics::default();
        b.sample(0.0, 0.0, 4.0);
        b.sample(5.0, 1.0, 0.0);
        b.record_fetch(false);
        b.record_fetch(true);
        b.record_admission_latency(8.0);
        b.observe_speed(30.0);
        // Weights 1:3 — the second part dominates the pooled series.
        let merged = CrawlMetrics::merge_weighted(&[(1.0, &a), (3.0, &b)]).expect("merges");
        let rows: Vec<(f64, f64)> = merged.freshness.rows().collect();
        assert_eq!(rows, vec![(0.0, 0.25), (5.0, 0.875)]);
        let ages: Vec<(f64, f64)> = merged.age.rows().collect();
        assert_eq!(ages, vec![(0.0, 3.0), (5.0, 0.5)]);
        assert_eq!(merged.fetches, 3);
        assert_eq!(merged.failed_fetches, 1);
        assert_eq!(merged.peak_speed, 40.0, "fleet peak is the concurrent sum");
        assert_eq!(merged.new_page_latency.count(), 2);
        assert!((merged.new_page_latency.mean() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn comparison_table_and_display_share_one_format() {
        let mut a = CrawlMetrics::default();
        a.sample(0.0, 1.0, 0.0);
        a.sample(10.0, 0.5, 2.0);
        a.record_fetch(true);
        a.observe_speed(25.0);
        let mut b = CrawlMetrics::default();
        b.sample(0.0, 0.2, 5.0);
        b.sample(10.0, 0.2, 5.0);
        let table = CrawlMetrics::comparison_table(&[("inc", &a), ("per", &b)], 0.0);
        let header = table.lines().next().unwrap();
        assert!(header.contains("inc") && header.contains("per"));
        assert!(table.contains("avg freshness (post-warmup)"));
        assert!(table.contains("peak crawl speed (pages/day)"));
        assert!(table.contains("total fetches"));
        assert_eq!(table.lines().count(), 7);
        // Display is the one-column variant of the same table.
        let shown = format!("{a}");
        assert!(shown.contains("value"));
        assert!(shown.contains("0.750"), "whole-run freshness average: {shown}");
    }

    #[test]
    fn last_instant_before_is_the_strict_bound_as_an_inclusive_one() {
        let tiny = f64::from_bits(1);
        let deaths = [f64::INFINITY, f64::MAX, 130.0, 2.5, 1.0, tiny, 0.0, -0.0, -tiny, -3.0];
        for x in deaths {
            let below = last_instant_before(x);
            assert!(below < x, "{below} must lie below {x}");
            let probes = [x, below, -below, 0.0, -0.0, tiny, -tiny, 1.0, 130.0, f64::MAX];
            for t in probes.into_iter().chain([f64::INFINITY, f64::NEG_INFINITY]) {
                assert_eq!(t < x, t <= below, "t = {t}, x = {x}");
            }
        }
        assert_eq!(last_instant_before(f64::INFINITY), f64::MAX);
        assert_eq!(last_instant_before(1.0), 1.0 - f64::EPSILON / 2.0);
    }

    #[test]
    fn merge_weighted_rejects_grid_mismatch_and_empty_weight() {
        let mut a = CrawlMetrics::default();
        a.sample(0.0, 0.5, 1.0);
        let mut b = CrawlMetrics::default();
        b.sample(1.0, 0.5, 1.0);
        assert!(CrawlMetrics::merge_weighted(&[(1.0, &a), (1.0, &b)]).is_err());
        assert!(CrawlMetrics::merge_weighted(&[(0.0, &a)]).is_err());
        let empty = CrawlMetrics::merge_weighted(&[]).expect("empty merge is empty metrics");
        assert_eq!(empty.fetches, 0);
    }
}
