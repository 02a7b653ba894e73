//! Shard identifiers and the deterministic site partition for crawl
//! fleets.
//!
//! A fleet splits the universe's sites across `shards` independent crawl
//! units. The split must be a *pure function* of the site id and the plan
//! — never of runtime state — so that every fleet run (and every recovery
//! of one) routes each site to the same shard. [`ShardPlan`] carries that
//! function: the shard count, the total site count, and the partition
//! family ([`ShardFn::Hash`] scatters sites uniformly, [`ShardFn::Range`]
//! keeps contiguous id ranges together).

use crate::{wire_enum, wire_struct};
use std::fmt;

/// Identifier of one shard (crawl unit) within a fleet.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardId(pub u32);

impl ShardId {
    /// Returns the raw index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard#{}", self.0)
    }
}

impl fmt::Display for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard#{}", self.0)
    }
}

/// The partition-function family of a [`ShardPlan`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardFn {
    /// Scatter sites across shards by a fixed 64-bit mix of the site id:
    /// balanced in expectation, insensitive to the id numbering.
    Hash,
    /// Contiguous site-id ranges: shard `k` owns ids in
    /// `[k·S/N, (k+1)·S/N)` (up to rounding), preserving id locality.
    Range,
    /// Greedy least-loaded assignment over the site list in ascending id
    /// order: each site goes to the shard with the fewest sites so far
    /// (ties to the lower shard id). With unit site weights that greedy
    /// walk collapses to the closed form `site % shards`, so ownership
    /// counts differ by at most one — the skew-free alternative to
    /// [`ShardFn::Hash`].
    Balanced,
}

impl fmt::Display for ShardFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardFn::Hash => f.write_str("hash"),
            ShardFn::Range => f.write_str("range"),
            ShardFn::Balanced => f.write_str("balanced"),
        }
    }
}

/// A deterministic assignment of sites to shards. Two plans with equal
/// fields route every site identically — the property fleet recovery
/// checks before resuming against a manifest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    shards: u32,
    total_sites: u32,
    function: ShardFn,
}

impl ShardPlan {
    /// A plan partitioning `total_sites` sites across `shards` shards with
    /// the given function. `shards` must be positive.
    pub fn new(function: ShardFn, shards: u32, total_sites: u32) -> ShardPlan {
        assert!(shards > 0, "a fleet needs at least one shard");
        ShardPlan { shards, total_sites, function }
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// Total sites the plan was built for.
    pub fn total_sites(&self) -> u32 {
        self.total_sites
    }

    /// The partition-function family.
    pub fn function(&self) -> ShardFn {
        self.function
    }

    /// The shard that owns `site`. Total and deterministic: every site id
    /// maps to exactly one shard in `0..shards`.
    pub fn shard_of(&self, site: crate::SiteId) -> ShardId {
        match self.function {
            ShardFn::Hash => {
                // splitmix64-style finalizer: uniform, stable, cheap.
                let mut z = site.0 as u64;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^= z >> 31;
                ShardId((z % self.shards as u64) as u32)
            }
            ShardFn::Range => {
                if self.total_sites == 0 {
                    return ShardId(0);
                }
                let k = (site.0 as u64 * self.shards as u64) / self.total_sites as u64;
                ShardId(k.min(self.shards as u64 - 1) as u32)
            }
            ShardFn::Balanced => ShardId(site.0 % self.shards),
        }
    }

    /// Whether `shard` owns `site` under this plan.
    pub fn owns(&self, shard: ShardId, site: crate::SiteId) -> bool {
        self.shard_of(site) == shard
    }

    /// All shard ids of the plan, ascending.
    pub fn shard_ids(&self) -> impl Iterator<Item = ShardId> {
        (0..self.shards).map(ShardId)
    }
}

wire_struct!(ShardId { 0 });
wire_enum!(ShardFn { Hash = 0, Range = 1, Balanced = 2 });
wire_struct!(ShardPlan { shards, total_sites, function }
    reject |plan| plan.shards == 0 => "shard plan with zero shards");

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BinDecode, BinEncode, BinReader, SiteId};

    #[test]
    fn every_site_maps_to_exactly_one_shard() {
        for function in [ShardFn::Hash, ShardFn::Range, ShardFn::Balanced] {
            let plan = ShardPlan::new(function, 4, 90);
            for s in 0..90u32 {
                let shard = plan.shard_of(SiteId(s));
                assert!(shard.0 < 4, "{function}: {shard} out of range");
                let owners: Vec<ShardId> = plan
                    .shard_ids()
                    .filter(|&k| plan.owns(k, SiteId(s)))
                    .collect();
                assert_eq!(owners, vec![shard], "{function}: site {s} multi-owned");
            }
        }
    }

    #[test]
    fn range_partition_is_contiguous_and_covers() {
        let plan = ShardPlan::new(ShardFn::Range, 4, 10);
        let shards: Vec<u32> = (0..10).map(|s| plan.shard_of(SiteId(s)).0).collect();
        // Non-decreasing, starts at 0, ends at the last shard.
        assert!(shards.windows(2).all(|w| w[0] <= w[1]), "{shards:?}");
        assert_eq!(shards[0], 0);
        assert_eq!(*shards.last().unwrap(), 3);
        // Every shard gets at least one site when sites >= shards.
        for k in 0..4 {
            assert!(shards.contains(&k), "shard {k} empty: {shards:?}");
        }
    }

    #[test]
    fn hash_partition_is_roughly_balanced() {
        let plan = ShardPlan::new(ShardFn::Hash, 4, 1000);
        let mut counts = [0usize; 4];
        for s in 0..1000u32 {
            counts[plan.shard_of(SiteId(s)).index()] += 1;
        }
        for (k, &c) in counts.iter().enumerate() {
            assert!(
                (150..=350).contains(&c),
                "shard {k} holds {c} of 1000 sites: {counts:?}"
            );
        }
    }

    #[test]
    fn single_shard_owns_everything() {
        for function in [ShardFn::Hash, ShardFn::Range, ShardFn::Balanced] {
            let plan = ShardPlan::new(function, 1, 50);
            for s in 0..50u32 {
                assert_eq!(plan.shard_of(SiteId(s)), ShardId(0));
            }
        }
    }

    #[test]
    fn balanced_partition_is_within_one_site_of_even() {
        // Greedy equal-weight assignment must beat Hash's skew: ownership
        // counts differ by at most one, for any site count.
        for total in [7u32, 90, 1000] {
            let plan = ShardPlan::new(ShardFn::Balanced, 4, total);
            let mut counts = [0usize; 4];
            for s in 0..total {
                counts[plan.shard_of(SiteId(s)).index()] += 1;
            }
            let min = *counts.iter().min().unwrap();
            let max = *counts.iter().max().unwrap();
            assert!(max - min <= 1, "total={total}: {counts:?}");
        }
    }

    #[test]
    fn balanced_matches_the_greedy_walk() {
        // The closed form `site % shards` is exactly what greedy
        // least-loaded (ties to the lower shard id) produces over the
        // ascending site list with unit weights.
        let plan = ShardPlan::new(ShardFn::Balanced, 3, 20);
        let mut loads = [0usize; 3];
        for s in 0..20u32 {
            let greedy = (0..3usize).min_by_key(|&k| (loads[k], k)).unwrap();
            assert_eq!(plan.shard_of(SiteId(s)), ShardId(greedy as u32), "site {s}");
            loads[greedy] += 1;
        }
    }

    #[test]
    fn plan_roundtrips_through_the_wire_format() {
        for function in [ShardFn::Hash, ShardFn::Range, ShardFn::Balanced] {
            let plan = ShardPlan::new(function, 8, 270);
            let mut bytes = Vec::new();
            plan.bin_encode(&mut bytes);
            let mut r = BinReader::new(&bytes);
            assert_eq!(ShardPlan::bin_decode(&mut r).unwrap(), plan);
            assert!(r.is_exhausted());
        }
        // The constructor's invariant holds for decoded plans too.
        let mut zero = Vec::new();
        0u32.bin_encode(&mut zero);
        270u32.bin_encode(&mut zero);
        ShardFn::Hash.bin_encode(&mut zero);
        assert!(ShardPlan::bin_decode(&mut BinReader::new(&zero)).is_err());
    }

    #[test]
    fn display_formats() {
        assert_eq!(ShardId(3).to_string(), "shard#3");
        assert_eq!(ShardFn::Hash.to_string(), "hash");
        assert_eq!(ShardFn::Range.to_string(), "range");
        assert_eq!(ShardFn::Balanced.to_string(), "balanced");
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ShardPlan::new(ShardFn::Hash, 0, 10);
    }
}
