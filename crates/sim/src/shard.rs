//! The site-filtered fetcher view a crawl-fleet shard fetches through.
//!
//! A sharded fleet routes every URL to the shard that owns its site (see
//! [`webevo_types::ShardPlan`]). A shard's crawl unit therefore must never
//! fetch a foreign site's pages — those URLs are *routed*: a scoped engine
//! diverts every foreign discovery into its routing outbox (delivered to
//! the owning shard at the fleet's next exchange barrier) and skips
//! foreign seeds and queue entries without ever scheduling a fetch, so no
//! capacity is spent on pages another shard owns.
//!
//! The [`ShardedFetcher`] is the residual backstop beneath that routing
//! layer: should a foreign URL reach the fetcher anyway, it resolves to
//! [`FetchError::NotFound`] without touching the inner fetcher, and
//! [`ShardedFetcher::foreign_rejects`] counts the hit. In a correctly
//! routed fleet the count stays zero — the fleet's per-shard reports
//! surface it precisely so a routing regression shows up as a nonzero
//! reject count instead of silently lost pages.
//!
//! The rejection is a pure function of `(plan, shard, url.site)`, so it
//! needs no replay state: [`Fetcher::export_state`],
//! [`Fetcher::restore_state`], and [`Fetcher::observe_replay`] delegate to
//! the wrapped [`SimFetcher`] for owned URLs and leave it untouched for
//! foreign ones — mirroring the live path, which keeps write-ahead-log
//! recovery bit-identical per shard.

use crate::fetch::{FetchError, FetchOutcome, Fetcher, FetcherState, SimFetcher};
use webevo_types::{ShardId, ShardPlan, Url};

/// A [`SimFetcher`] restricted to the sites one shard owns.
pub struct ShardedFetcher<'a> {
    inner: SimFetcher<'a>,
    plan: ShardPlan,
    shard: ShardId,
    foreign_rejects: u64,
}

impl<'a> ShardedFetcher<'a> {
    /// Restrict `inner` to the sites `plan` assigns to `shard`.
    pub fn new(inner: SimFetcher<'a>, plan: ShardPlan, shard: ShardId) -> ShardedFetcher<'a> {
        assert!(
            shard.0 < plan.shards(),
            "{shard} does not exist in a {}-shard plan",
            plan.shards()
        );
        ShardedFetcher { inner, plan, shard, foreign_rejects: 0 }
    }

    /// The shard this fetcher serves.
    pub fn shard(&self) -> ShardId {
        self.shard
    }

    /// The partition plan in force.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Fetch attempts rejected because the URL belongs to another shard
    /// (observability only; not part of the durable fetcher state, since
    /// the rejection is recomputed from the plan).
    pub fn foreign_rejects(&self) -> u64 {
        self.foreign_rejects
    }

    /// The wrapped fetcher.
    pub fn inner(&self) -> &SimFetcher<'a> {
        &self.inner
    }

    fn owned(&self, url: Url) -> bool {
        self.plan.owns(self.shard, url.site)
    }
}

impl Fetcher for ShardedFetcher<'_> {
    fn fetch(&mut self, url: Url, t: f64) -> Result<FetchOutcome, FetchError> {
        if !self.owned(url) {
            self.foreign_rejects += 1;
            return Err(FetchError::NotFound);
        }
        self.inner.fetch(url, t)
    }

    fn export_state(&self) -> Option<FetcherState> {
        Fetcher::export_state(&self.inner)
    }

    fn restore_state(&mut self, state: FetcherState) {
        self.inner.restore_state(state);
    }

    fn observe_replay(&mut self, url: Url, t: f64, result: &Result<FetchOutcome, FetchError>) {
        if !self.owned(url) {
            self.foreign_rejects += 1;
            return;
        }
        self.inner.observe_replay(url, t, result);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::UniverseConfig;
    use crate::universe::WebUniverse;
    use webevo_types::ShardFn;

    fn universe() -> WebUniverse {
        WebUniverse::generate(UniverseConfig::test_scale(9))
    }

    fn plan(u: &WebUniverse, shards: u32) -> ShardPlan {
        ShardPlan::new(ShardFn::Range, shards, u.site_count() as u32)
    }

    #[test]
    fn owned_sites_fetch_foreign_sites_do_not() {
        let u = universe();
        let plan = plan(&u, 2);
        let mut f = ShardedFetcher::new(SimFetcher::new(&u), plan, ShardId(0));
        let mut owned_ok = 0;
        let mut foreign = 0;
        for site in u.sites() {
            let root = u.url_of(site.slots[0][0]);
            match (plan.owns(ShardId(0), site.id), f.fetch(root, 1.0)) {
                (true, Ok(out)) => {
                    owned_ok += 1;
                    assert_eq!(out.checksum, u.checksum_at(root.page, 1.0));
                }
                (false, Err(FetchError::NotFound)) => foreign += 1,
                (owns, other) => panic!("site {} owns={owns}: {other:?}", site.id),
            }
        }
        assert!(owned_ok > 0 && foreign > 0, "both halves exercised");
        assert_eq!(f.foreign_rejects(), foreign);
        // The inner fetcher never saw the foreign attempts.
        let inner = Fetcher::export_state(f.inner()).expect("a sim fetcher has state");
        assert_eq!(inner.attempt_counter, owned_ok);
    }

    #[test]
    fn shards_cover_the_universe_disjointly() {
        let u = universe();
        let plan = plan(&u, 3);
        for site in u.sites() {
            let root = u.url_of(site.slots[0][0]);
            let successes = (0..3)
                .filter(|&k| {
                    let mut f = ShardedFetcher::new(SimFetcher::new(&u), plan, ShardId(k));
                    f.fetch(root, 0.5).is_ok()
                })
                .count();
            assert_eq!(successes, 1, "site {} fetched by {successes} shards", site.id);
        }
    }

    #[test]
    fn replay_observation_matches_live_fetching_across_the_boundary() {
        // The property shard-level WAL recovery leans on, including
        // foreign rejections interleaved with owned fetches.
        let u = universe();
        let plan = plan(&u, 2);
        let mut live = ShardedFetcher::new(
            SimFetcher::new(&u).with_failure_rate(0.25),
            plan,
            ShardId(1),
        );
        let mut log = Vec::new();
        for (i, site) in u.sites().iter().enumerate() {
            let url = u.url_of(site.slots[0][0]);
            let t = 1.0 + i as f64 * 0.01;
            log.push((url, t, live.fetch(url, t)));
        }
        let mut replayed = ShardedFetcher::new(
            SimFetcher::new(&u).with_failure_rate(0.25),
            plan,
            ShardId(1),
        );
        for (url, t, result) in &log {
            replayed.observe_replay(*url, *t, result);
        }
        assert_eq!(Fetcher::export_state(&live), Fetcher::export_state(&replayed));
        assert_eq!(live.foreign_rejects(), replayed.foreign_rejects());
    }

    #[test]
    fn state_roundtrips_through_the_trait() {
        let u = universe();
        let plan = plan(&u, 2);
        let mut f = ShardedFetcher::new(SimFetcher::new(&u), plan, ShardId(0));
        for site in u.sites() {
            let _ = f.fetch(u.url_of(site.slots[0][0]), 2.0);
        }
        let state = Fetcher::export_state(&f).expect("sim-backed fetcher is stateful");
        let mut restored = ShardedFetcher::new(SimFetcher::new(&u), plan, ShardId(0));
        Fetcher::restore_state(&mut restored, state);
        assert_eq!(Fetcher::export_state(&f), Fetcher::export_state(&restored));
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn out_of_range_shard_rejected() {
        let u = universe();
        let _ = ShardedFetcher::new(SimFetcher::new(&u), plan(&u, 2), ShardId(2));
    }
}
