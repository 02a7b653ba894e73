//! The time-ordered revisit queue behind `CollUrls`.
//!
//! §5.3: *"CollUrls is implemented as a priority-queue, where the URLs to
//! be crawled early are placed in the front … The position of the crawled
//! URL within CollUrls is determined by the page's estimated change
//! frequency."* This module provides that queue: a binary heap keyed by
//! next-visit time with deterministic tie-breaking on the URL, plus an
//! immediate-priority lane for the RankingModule's "crawl this new page
//! now" insertions.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use webevo_types::Url;

/// One scheduled visit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScheduledVisit {
    /// When the visit is due (days).
    pub due: f64,
    /// The page to visit.
    pub url: Url,
}

/// Internal heap entry; reversed ordering turns `BinaryHeap` (a max-heap)
/// into a min-heap on (due, url).
#[derive(Clone, Copy, Debug, PartialEq)]
struct Entry(ScheduledVisit);

impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // NaN due-times are rejected at insert, so partial_cmp is total.
        other
            .0
            .due
            .partial_cmp(&self.0.due)
            .expect("due times are never NaN")
            .then_with(|| {
                (other.0.url.site, other.0.url.page).cmp(&(self.0.url.site, self.0.url.page))
            })
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A min-heap of scheduled visits.
#[derive(Debug, Default)]
pub struct RevisitQueue {
    heap: BinaryHeap<Entry>,
}

impl RevisitQueue {
    /// An empty queue.
    pub fn new() -> RevisitQueue {
        RevisitQueue::default()
    }

    /// Number of queued visits.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule a visit. NaN due-times are rejected.
    pub fn push(&mut self, url: Url, due: f64) {
        assert!(!due.is_nan(), "due time must not be NaN");
        self.heap.push(Entry(ScheduledVisit { due, url }));
    }

    /// Schedule at the immediate front (§5.3: a newly admitted page "is
    /// placed on the top of CollUrls, so that the UpdateModule can crawl
    /// the page immediately"). Implemented as due-time −∞.
    pub fn push_front(&mut self, url: Url) {
        self.heap
            .push(Entry(ScheduledVisit { due: f64::NEG_INFINITY, url }));
    }

    /// Pop the earliest due visit.
    pub fn pop(&mut self) -> Option<ScheduledVisit> {
        self.heap.pop().map(|e| e.0)
    }

    /// Remove every entry for `url` (used when the RankingModule discards a
    /// page from the collection). O(n); discards are rare relative to
    /// pops, matching the paper's split of duties.
    pub fn remove(&mut self, url: Url) -> usize {
        let before = self.heap.len();
        let entries: Vec<Entry> = std::mem::take(&mut self.heap).into_vec();
        self.heap = entries.into_iter().filter(|e| e.0.url != url).collect();
        before - self.heap.len()
    }

    /// Drain everything, earliest first.
    pub fn drain_sorted(&mut self) -> Vec<ScheduledVisit> {
        let mut out = Vec::with_capacity(self.heap.len());
        while let Some(v) = self.pop() {
            out.push(v);
        }
        out
    }

    /// Every scheduled visit, earliest first, without disturbing the
    /// queue — the shape a checkpoint snapshot persists. O(n log n).
    pub fn snapshot_entries(&self) -> Vec<ScheduledVisit> {
        let mut entries: Vec<ScheduledVisit> = self.heap.iter().map(|e| e.0).collect();
        entries.sort_by(|a, b| {
            a.due
                .partial_cmp(&b.due)
                .expect("due times are never NaN")
                .then_with(|| (a.url.site, a.url.page).cmp(&(b.url.site, b.url.page)))
        });
        entries
    }

    /// Rebuild a queue from snapshot entries. Pop order depends only on
    /// the entry *set* (the ordering on `(due, url)` is total), so a queue
    /// restored from [`RevisitQueue::snapshot_entries`] replays the exact
    /// visit sequence of the original.
    pub fn from_entries(entries: Vec<ScheduledVisit>) -> RevisitQueue {
        RevisitQueue {
            heap: entries.into_iter().map(Entry).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webevo_types::{PageId, SiteId};

    fn url(i: u64) -> Url {
        Url::new(SiteId((i % 7) as u32), PageId(i))
    }

    #[test]
    fn pops_in_due_order() {
        let mut q = RevisitQueue::new();
        q.push(url(1), 5.0);
        q.push(url(2), 1.0);
        q.push(url(3), 3.0);
        let order: Vec<f64> = q.drain_sorted().iter().map(|v| v.due).collect();
        assert_eq!(order, vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn ties_break_deterministically() {
        let mut q = RevisitQueue::new();
        q.push(url(9), 1.0);
        q.push(url(2), 1.0);
        q.push(url(5), 1.0);
        let pages: Vec<u64> = q.drain_sorted().iter().map(|v| v.url.page.0).collect();
        let mut sorted = pages.clone();
        sorted.sort_unstable();
        // All same due; must come out in a deterministic (site,page) order.
        let mut q2 = RevisitQueue::new();
        q2.push(url(5), 1.0);
        q2.push(url(9), 1.0);
        q2.push(url(2), 1.0);
        let pages2: Vec<u64> = q2.drain_sorted().iter().map(|v| v.url.page.0).collect();
        assert_eq!(pages, pages2, "insertion order must not matter");
    }

    #[test]
    fn push_front_preempts() {
        let mut q = RevisitQueue::new();
        q.push(url(1), 0.0);
        q.push_front(url(2));
        assert_eq!(q.pop().unwrap().url, url(2));
    }

    #[test]
    fn remove_deletes_all_entries() {
        let mut q = RevisitQueue::new();
        q.push(url(1), 1.0);
        q.push(url(1), 2.0);
        q.push(url(2), 3.0);
        assert_eq!(q.remove(url(1)), 2);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().url, url(2));
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn rejects_nan_due() {
        let mut q = RevisitQueue::new();
        q.push(url(1), f64::NAN);
    }

    #[test]
    fn snapshot_roundtrip_preserves_pop_order() {
        let mut q = RevisitQueue::new();
        q.push(url(3), 5.0);
        q.push(url(1), 2.0);
        q.push_front(url(9)); // −∞ due must survive the round trip
        q.push(url(4), 2.0);
        let entries = q.snapshot_entries();
        assert_eq!(entries.len(), 4);
        assert_eq!(entries[0].due, f64::NEG_INFINITY);
        let mut restored = RevisitQueue::from_entries(entries);
        let original = q.drain_sorted();
        let replayed = restored.drain_sorted();
        assert_eq!(original, replayed, "restored queue must pop identically");
    }
}
