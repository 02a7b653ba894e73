//! Cross-shard link routing: the records and state behind the fleet's
//! deterministic link-exchange protocol.
//!
//! A sharded fleet partitions sites across shards with a [`ShardPlan`].
//! Crawling never stops at a shard boundary, though: pages link across
//! sites, so every shard keeps discovering URLs it does not own. The
//! pre-routing fleet burned a fetch slot on each such discovery (the
//! sharded fetcher resolved it to `NotFound`) and then dropped it — the
//! silent page loss this module exists to fix. Instead, a scoped engine
//! diverts each foreign discovery into its **outbox** as a
//! [`RoutedLink`]; at every fleet pass boundary the coordinator drains
//! all outboxes, merges them in `(ShardId, seq)` order — a total,
//! schedule-independent order, so the exchange is byte-identical no
//! matter how many worker threads drove the shards — and delivers each
//! link to the shard owning its site as a [`RoutedBatch`].
//!
//! Batches are durable: each one is appended to the receiving shard's
//! write-ahead log as its own record kind ([`WalEvent::Routed`]), so a
//! shard killed after an exchange replays the injection exactly where it
//! happened in the fetch sequence. [`RoutingState`] rides inside the
//! engine snapshot for the same reason — a recovered shard knows its
//! scope, its undelivered outbox, and how many exchanges it has absorbed.

use crate::allurls::UrlInfo;
use crate::collection::StoredPage;
use crate::hooks::FetchRecord;
use crate::state::{CrawlerState, EngineConfig, EngineKind, QueueEntry};
use webevo_types::{wire_struct, PageId, ShardId, ShardPlan, SiteId, Url, WebEvoError};

/// One foreign-URL discovery queued for delivery to its owning shard.
///
/// `seq` is the *source* shard's fetch sequence number at the moment of
/// discovery; together with the source [`ShardId`] it gives every routed
/// link a fleet-wide total order (see [`route_exchange`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RoutedLink {
    /// Source-shard fetch sequence at discovery time.
    pub seq: u64,
    /// The collection page whose fetch surfaced the link.
    pub from: PageId,
    /// The discovered URL (owned by some other shard).
    pub url: Url,
}

/// One delivery of routed links into a shard, as recorded in its WAL.
///
/// `seq` is a number consumed from the *receiving* shard's fetch-sequence
/// counter, and `t` its clock at injection time — together they pin the
/// batch to an exact position in the shard's deterministic schedule, so
/// replay re-applies it at the same point.
#[derive(Clone, Debug, PartialEq)]
pub struct RoutedBatch {
    /// Receiving-shard sequence number consumed by this injection.
    pub seq: u64,
    /// Receiving-shard clock (days) at injection.
    pub t: f64,
    /// The links delivered, already in `(ShardId, seq)` merge order.
    pub links: Vec<RoutedLink>,
}

/// One durable event in a shard's write-ahead log: either a fetch or a
/// routed-batch injection. Both kinds draw from the same per-shard
/// sequence counter, so the WAL is a single totally-ordered stream.
#[derive(Clone, Debug, PartialEq)]
pub enum WalEvent {
    /// A completed fetch.
    Fetch(FetchRecord),
    /// A routed-link delivery from the fleet exchange.
    Routed(RoutedBatch),
}

impl WalEvent {
    /// The event's sequence number in the shard's unified counter.
    pub fn seq(&self) -> u64 {
        match self {
            WalEvent::Fetch(record) => record.seq,
            WalEvent::Routed(batch) => batch.seq,
        }
    }

    /// The shard clock (days) when the event happened.
    pub fn t(&self) -> f64 {
        match self {
            WalEvent::Fetch(record) => record.t,
            WalEvent::Routed(batch) => batch.t,
        }
    }
}

/// A shard's view of the fleet partition: the plan plus its own id.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShardScope {
    /// The fleet-wide site partition.
    pub plan: ShardPlan,
    /// This shard's identity within the plan.
    pub shard: ShardId,
}

impl ShardScope {
    /// Whether this shard owns `site` under the plan.
    #[inline]
    pub fn owns(&self, site: SiteId) -> bool {
        self.plan.owns(self.shard, site)
    }
}

/// Per-engine routing state, persisted inside the crawl snapshot.
///
/// `scope == None` means the engine runs unsharded (single-node) and all
/// routing machinery is inert. The `exchanges` counter counts applied
/// [`RoutedBatch`]es — the fleet injects one per shard per pass boundary,
/// even when empty, so the counter doubles as "how many pass barriers has
/// this shard's durable state absorbed", which is what fleet recovery
/// compares to find the laggard after a mid-exchange kill.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RoutingState {
    /// The shard's partition view, if sharded.
    pub scope: Option<ShardScope>,
    /// Foreign discoveries awaiting the next exchange, in discovery order
    /// (ascending `seq`).
    pub outbox: Vec<RoutedLink>,
    /// Routed URLs awaiting frontier admission (periodic engine only —
    /// it can only seed new URLs at a crawl-window start).
    pub inbox: Vec<Url>,
    /// Routed batches applied so far.
    pub exchanges: u64,
}

impl RoutingState {
    /// Routing state for one shard of a plan.
    pub fn scoped(plan: ShardPlan, shard: ShardId) -> RoutingState {
        RoutingState {
            scope: Some(ShardScope { plan, shard }),
            ..RoutingState::default()
        }
    }

    /// Whether `site` is foreign (owned by another shard). Always false
    /// when unscoped.
    #[inline]
    pub fn is_foreign(&self, site: SiteId) -> bool {
        match &self.scope {
            Some(scope) => !scope.owns(site),
            None => false,
        }
    }
}

wire_struct!(RoutedLink { seq, from, url });
wire_struct!(RoutedBatch { seq, t, links });
wire_struct!(ShardScope { plan, shard });
wire_struct!(RoutingState { scope, outbox, inbox, exchanges });

/// Merge per-shard outboxes into the fleet-wide exchange order.
///
/// The order is `(source ShardId, seq)` ascending — a pure function of
/// the outbox *contents*, never of which worker thread drained which
/// shard first. That invariance is what keeps fleet runs byte-identical
/// across concurrency levels.
fn merge_outboxes(parts: &[(ShardId, Vec<RoutedLink>)]) -> Vec<RoutedLink> {
    let mut tagged: Vec<(ShardId, RoutedLink)> = parts
        .iter()
        .flat_map(|(shard, links)| links.iter().map(move |link| (*shard, *link)))
        .collect();
    tagged.sort_by_key(|(shard, link)| (*shard, link.seq));
    tagged.into_iter().map(|(_, link)| link).collect()
}

/// Partition one exchange's merged links by destination shard.
///
/// Index `k` of the result is the batch bound for shard `k` under
/// `plan`; each batch preserves the fleet-wide exchange order:
/// `(source ShardId, seq)` ascending.
pub fn route_exchange(
    plan: &ShardPlan,
    parts: &[(ShardId, Vec<RoutedLink>)],
) -> Vec<Vec<RoutedLink>> {
    let mut batches: Vec<Vec<RoutedLink>> = (0..plan.shards()).map(|_| Vec::new()).collect();
    for link in merge_outboxes(parts) {
        batches[plan.shard_of(link.url.site).index()].push(link);
    }
    batches
}

/// Rebalance a fleet's shard states onto a new partition plan.
///
/// Every site whose owner changes under `plan` takes its full crawl state
/// with it: the stored pages (history, estimators, importance carried
/// verbatim), the AllUrls evidence, the scheduled queue entries, and the
/// assigned revisit intervals. `capacities` re-apportions the per-shard
/// collection capacity; a destination that ends over capacity evicts its
/// least-important pages, exactly as a ranking pass would.
///
/// `states[i]` is shard `i` both before and after the call — rebalancing
/// moves *sites*, not shard identities. The states must come from
/// incremental engines with drained outboxes (the fleet runs a final
/// exchange first), so no in-flight link can be stranded by the move.
pub fn rebalance_states(
    states: &mut [CrawlerState],
    plan: &ShardPlan,
    capacities: &[usize],
) -> Result<(), WebEvoError> {
    if plan.shards() as usize != states.len() || capacities.len() != states.len() {
        return Err(WebEvoError::InvalidState(format!(
            "rebalance needs one state and capacity per shard: plan has {}, got {} states and {} capacities",
            plan.shards(),
            states.len(),
            capacities.len()
        )));
    }
    for (i, state) in states.iter().enumerate() {
        if state.engine != EngineKind::Incremental {
            return Err(WebEvoError::InvalidState(format!(
                "shard {i} was written by the {} engine; rebalancing supports incremental shards only",
                state.engine
            )));
        }
        if !state.routing.outbox.is_empty() || !state.routing.inbox.is_empty() {
            return Err(WebEvoError::InvalidState(format!(
                "shard {i} has undelivered routed links; run an exchange before rebalancing"
            )));
        }
    }

    // Phase 1: every shard gives up what it no longer owns. Sources are
    // visited in shard order and each extraction ascends by page id, so
    // the per-destination buckets carry a total `(source shard, page)`
    // order — nothing depends on iteration accidents.
    let shards = states.len();
    let mut moving_pages: Vec<Vec<StoredPage>> = vec![Vec::new(); shards];
    let mut moving_intervals: Vec<Vec<(PageId, f64)>> = vec![Vec::new(); shards];
    let mut moving_urls: Vec<Vec<(Url, UrlInfo)>> = vec![Vec::new(); shards];
    let mut moving_queue: Vec<Vec<QueueEntry>> = vec![Vec::new(); shards];
    let mut moving_admissions: Vec<Vec<PageId>> = vec![Vec::new(); shards];
    for (i, state) in states.iter_mut().enumerate() {
        let departing = |site: SiteId| plan.shard_of(site).index() != i;
        // Partition pending admissions by site before the AllUrls slots
        // (the site lookup) move out.
        let mut retained_admissions = Vec::new();
        for page in std::mem::take(&mut state.admissions) {
            match state.all_urls.site_of(page) {
                Some(site) if departing(site) => {
                    moving_admissions[plan.shard_of(site).index()].push(page);
                }
                _ => retained_admissions.push(page),
            }
        }
        state.admissions = retained_admissions;
        for page in state.collection.extract_pages(departing) {
            let dest = plan.shard_of(page.url.site).index();
            if let Some(interval) = state.update.interval(page.url.page) {
                state.update.forget(page.url.page);
                moving_intervals[dest].push((page.url.page, interval));
            }
            moving_pages[dest].push(page);
        }
        for (url, info) in state.all_urls.extract_urls(departing) {
            moving_urls[plan.shard_of(url.site).index()].push((url, info));
        }
        let mut retained_queue = Vec::new();
        for entry in std::mem::take(&mut state.queue) {
            if departing(entry.url.site) {
                moving_queue[plan.shard_of(entry.url.site).index()].push(entry);
            } else {
                retained_queue.push(entry);
            }
        }
        state.queue = retained_queue;
    }

    // Phase 2: every shard absorbs its inheritance and restores its
    // invariants under the new scope.
    for (i, state) in states.iter_mut().enumerate() {
        for page in moving_pages[i].drain(..) {
            state.collection.absorb(page);
        }
        for (page, interval) in moving_intervals[i].drain(..) {
            state.update.set_interval(page, interval);
        }
        for (url, info) in moving_urls[i].drain(..) {
            state.all_urls.absorb(url, info);
        }
        state.queue.append(&mut moving_queue[i]);
        state.admissions.append(&mut moving_admissions[i]);

        // Trim to the re-apportioned capacity the way a ranking pass
        // would: least-important pages go first, deterministic tie-break.
        state.collection.set_capacity(capacities[i]);
        while state.collection.len() > capacities[i] {
            #[expect(
                clippy::expect_used,
                reason = "the loop runs only while the collection is over capacity, so it is non-empty"
            )]
            let victim = state.collection.least_important().expect("over-capacity is non-empty");
            #[expect(clippy::expect_used, reason = "`least_important` names a stored page")]
            let url = state.collection.discard(victim).expect("victim is stored").url;
            state.update.forget(victim);
            state.queue.retain(|e| e.url != url);
        }

        // Canonical orders: the queue sorts by (due, site, page) — the
        // snapshot order, which is also the rebuilt heap's pop order —
        // and the admissions ascend.
        #[expect(clippy::expect_used, reason = "queued due times are finite, never NaN")]
        state.queue.sort_by(|a, b| {
            f64::from_bits(a.due_bits)
                .partial_cmp(&f64::from_bits(b.due_bits))
                .expect("due times are never NaN")
                .then((a.url.site, a.url.page).cmp(&(b.url.site, b.url.page)))
        });
        state.admissions.sort_unstable();
        match &mut state.config {
            EngineConfig::Incremental(config) => config.capacity = capacities[i],
            EngineConfig::Periodic(_) => unreachable!("engine kind checked above"),
        }
        state.routing.scope = Some(ShardScope { plan: *plan, shard: ShardId(i as u32) });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use webevo_types::{BinDecode, BinEncode, BinReader, ShardFn};

    fn link(seq: u64, site: u32, page: u64) -> RoutedLink {
        RoutedLink {
            seq,
            from: PageId(1000 + seq),
            url: Url::new(SiteId(site), PageId(page)),
        }
    }

    #[test]
    fn merge_is_shard_major_then_seq() {
        let parts = vec![
            (ShardId(2), vec![link(1, 0, 10), link(4, 1, 11)]),
            (ShardId(0), vec![link(7, 2, 12)]),
            (ShardId(1), vec![link(2, 3, 13), link(3, 0, 14)]),
        ];
        let merged = merge_outboxes(&parts);
        let order: Vec<(u64, u64)> = merged.iter().map(|l| (l.seq, l.url.page.0)).collect();
        assert_eq!(order, vec![(7, 12), (2, 13), (3, 14), (1, 10), (4, 11)]);
    }

    #[test]
    fn merge_is_independent_of_part_order() {
        let a = vec![
            (ShardId(0), vec![link(3, 5, 1)]),
            (ShardId(1), vec![link(1, 6, 2), link(2, 7, 3)]),
        ];
        let b: Vec<_> = a.iter().rev().cloned().collect();
        assert_eq!(merge_outboxes(&a), merge_outboxes(&b));
    }

    #[test]
    fn route_exchange_partitions_by_owner() {
        let plan = ShardPlan::new(ShardFn::Balanced, 2, 10);
        let parts = vec![
            (ShardId(0), vec![link(1, 1, 20), link(2, 2, 21)]),
            (ShardId(1), vec![link(1, 3, 22), link(5, 4, 23)]),
        ];
        let batches = route_exchange(&plan, &parts);
        assert_eq!(batches.len(), 2);
        // Balanced: even sites -> shard 0, odd -> shard 1.
        let to_0: Vec<u64> = batches[0].iter().map(|l| l.url.page.0).collect();
        let to_1: Vec<u64> = batches[1].iter().map(|l| l.url.page.0).collect();
        assert_eq!(to_0, vec![21, 23]);
        assert_eq!(to_1, vec![20, 22]);
    }

    #[test]
    fn route_exchange_yields_empty_batches_for_idle_shards() {
        let plan = ShardPlan::new(ShardFn::Balanced, 3, 9);
        let batches = route_exchange(&plan, &[(ShardId(0), vec![link(1, 1, 5)])]);
        assert_eq!(batches.len(), 3);
        assert!(batches[0].is_empty());
        assert_eq!(batches[1].len(), 1);
        assert!(batches[2].is_empty());
    }

    #[test]
    fn routing_state_roundtrips_binary() {
        let plan = ShardPlan::new(ShardFn::Hash, 4, 90);
        let state = RoutingState {
            scope: Some(ShardScope { plan, shard: ShardId(2) }),
            outbox: vec![link(9, 3, 30), link(11, 5, 31)],
            inbox: vec![Url::new(SiteId(8), PageId(40))],
            exchanges: 7,
        };
        let mut bytes = Vec::new();
        state.bin_encode(&mut bytes);
        let mut r = BinReader::new(&bytes);
        let back = RoutingState::bin_decode(&mut r).expect("decodes");
        assert!(r.is_exhausted());
        assert_eq!(state, back);
    }

    #[test]
    fn scope_decides_foreignness() {
        let plan = ShardPlan::new(ShardFn::Balanced, 2, 6);
        let state = RoutingState::scoped(plan, ShardId(0));
        assert!(!state.is_foreign(SiteId(2)));
        assert!(state.is_foreign(SiteId(3)));
        assert!(!RoutingState::default().is_foreign(SiteId(3)), "unscoped owns everything");
    }

    #[test]
    fn wal_event_accessors_cover_both_kinds() {
        let batch = RoutedBatch { seq: 12, t: 3.5, links: vec![] };
        assert_eq!(WalEvent::Routed(batch).seq(), 12);
        let record = FetchRecord {
            seq: 4,
            url: Url::new(SiteId(0), PageId(1)),
            t: 1.25,
            result: Err(webevo_sim::FetchError::NotFound),
        };
        assert_eq!(WalEvent::Fetch(record.clone()).seq(), 4);
        assert_eq!(WalEvent::Fetch(record).t().to_bits(), 1.25f64.to_bits());
    }
}
