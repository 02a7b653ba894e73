//! A sharded crawl fleet with per-shard durability and link routing.
//!
//! Partitions the universe's sites across four shards, runs each shard as
//! an independent checkpointed `CrawlSession` on its own thread — with
//! cross-shard link discoveries routed to their owning shards at exchange
//! barriers instead of being dropped — kills the whole fleet mid-run
//! (including tearing one shard's WAL mid-frame, as a crash during a
//! flush would), resumes it, and verifies the merged freshness trajectory
//! is byte-identical to a fleet that was never interrupted. Finally it
//! rebalances the fleet onto a skew-free partition and resumes under the
//! new plan.
//!
//! ```sh
//! cargo run --release --example fleet_crawl
//! ```

use webevo::prelude::*;

fn main() {
    let dir = std::env::temp_dir().join(format!("webevo-fleet-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let universe = WebUniverse::generate(UniverseConfig::test_scale(2024));
    let budget = CrawlBudget::paper_monthly(60).with_cycle_days(6.0);
    let shards = 4u32;
    let build = |checkpoint: bool| {
        let mut builder = FleetSession::builder()
            .shards(shards)
            .partition(ShardFn::Hash)
            .engine(EngineKind::Incremental)
            .budget(budget)
            .universe(&universe)
            .failure_rate(0.1);
        if checkpoint {
            builder = builder.checkpoint(&dir, 4.0);
        }
        builder.build().expect("a valid fleet")
    };

    // Phase 1: crawl to day 20 under checkpointing, then "crash".
    let mut fleet = build(true);
    println!(
        "running a {shards}-shard fleet over {} sites (plan: {}) to day 20...",
        universe.site_count(),
        fleet.plan().function(),
    );
    let first = fleet.run(20.0).expect("the fleet runs").clone();
    for report in &first.shards {
        println!(
            "  {}: {} sites, {} fetches, {} pages held, {} links routed in",
            report.shard,
            report.sites,
            report.metrics.fetches,
            report.collection_len,
            report.routed_links
        );
    }
    drop(fleet); // the crash: every in-memory structure is gone

    // Tear shard 2's WAL mid-frame — that shard also lost its last flush.
    let wal = dir.join("shard-2").join(webevo::store::WAL_FILE);
    let bytes = std::fs::read(&wal).expect("shard 2 has a WAL");
    std::fs::write(&wal, &bytes[..bytes.len().saturating_sub(17)]).expect("wal writable");
    println!("killed the fleet; tore shard-2's WAL mid-frame");

    // Phase 2: resume everything to day 35. Each shard recovers from its
    // own snapshot + WAL; shard 2 re-crawls its torn tail.
    let mut resumed = build(true);
    let recovered = resumed.resume(35.0).expect("the fleet recovers").clone();
    println!(
        "resumed to day 35: {} fetches, {} pages across the fleet",
        recovered.merged.fetches,
        recovered.collection_len()
    );

    // Reference: the same fleet, never interrupted.
    let mut reference = build(false);
    let uninterrupted = reference.run(35.0).expect("the fleet runs").clone();

    let a: Vec<(f64, f64)> = uninterrupted.merged.freshness.rows().collect();
    let b: Vec<(f64, f64)> = recovered.merged.freshness.rows().collect();
    assert_eq!(a, b, "merged freshness trajectory must survive the crash bitwise");
    assert_eq!(uninterrupted.merged.fetches, recovered.merged.fetches);
    println!(
        "crash+resume trajectory matches the uninterrupted fleet bitwise \
         ({} freshness samples, {} cross-shard links routed, avg {:.3})",
        a.len(),
        recovered.routed_links(),
        recovered.merged.average_freshness_from(12.0)
    );

    // Phase 3: migrate the fleet onto the skew-free balanced partition —
    // pages move between shard checkpoints, the manifest is rewritten
    // atomically — then keep crawling under the new plan.
    let new_plan = ShardPlan::new(ShardFn::Balanced, shards, universe.site_count() as u32);
    resumed.rebalance(new_plan).expect("the fleet rebalances");
    let rebalanced = resumed.resume(45.0).expect("resumes under the new plan").clone();
    let sites: Vec<usize> = rebalanced.shards.iter().map(|s| s.sites).collect();
    println!(
        "rebalanced onto {} and resumed to day 45: per-shard sites {:?}, {} pages",
        new_plan.function(),
        sites,
        rebalanced.collection_len()
    );
    assert!(sites.iter().max().unwrap() - sites.iter().min().unwrap() <= 1);

    let _ = std::fs::remove_dir_all(&dir);
}
