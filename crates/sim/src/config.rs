//! Universe generation parameters.

use webevo_types::domain::PerDomain;
use webevo_types::Domain;

/// Parameters for generating a [`crate::WebUniverse`].
#[derive(Clone, Debug, PartialEq)]
pub struct UniverseConfig {
    /// Number of sites per domain class. The paper's Table 1 mix is
    /// com:edu:netorg:gov = 132:78:30:30.
    pub sites_per_domain: PerDomain<usize>,
    /// BFS slots (page locations) per site. The paper's window is 3,000
    /// pages; smaller values keep tests fast while preserving structure.
    pub pages_per_site: usize,
    /// How many leading BFS slots are visible in the crawl window
    /// (§2.1's "page window"). Must be ≤ `pages_per_site`; slots beyond the
    /// window exist (pages can live "deeper in the site") but daily
    /// monitoring does not see them.
    pub window_size: usize,
    /// Simulation horizon in days. Change schedules and lifespans are
    /// materialized up to this time.
    pub horizon_days: f64,
    /// Master seed; everything derives deterministically from it.
    pub seed: u64,
    /// BFS tree branching factor (children per page).
    pub branching: usize,
    /// Extra random intra-site links per page (besides tree links).
    pub extra_links_per_page: usize,
    /// Probability that a page carries one cross-site link (to another
    /// site's root) — the glue that makes site-level PageRank meaningful.
    pub cross_link_probability: f64,
    /// Enable page birth/death. When false every page lives for the whole
    /// horizon (useful for isolating change-rate effects in tests).
    pub churn: bool,
}

impl UniverseConfig {
    /// The paper's experimental scale: 270 sites in the Table 1 mix, 3,000
    /// page window, 128-day horizon (1999-02-17 → 1999-06-24). Roughly
    /// 810k page slots — use for full-fidelity runs only.
    pub fn paper_scale(seed: u64) -> UniverseConfig {
        UniverseConfig {
            sites_per_domain: PerDomain::from_fn(|d| d.paper_site_count()),
            pages_per_site: 3_000,
            window_size: 3_000,
            horizon_days: 128.0,
            seed,
            branching: 8,
            extra_links_per_page: 2,
            cross_link_probability: 0.05,
            churn: true,
        }
    }

    /// A scaled-down universe preserving the Table 1 domain *ratio*
    /// (44:26:10:10) with `pages_per_site` slots: the default for examples
    /// and benchmarks.
    pub fn medium_scale(seed: u64) -> UniverseConfig {
        UniverseConfig {
            sites_per_domain: PerDomain::from_fn(|d| match d {
                Domain::Com => 44,
                Domain::Edu => 26,
                Domain::NetOrg => 10,
                Domain::Gov => 10,
            }),
            pages_per_site: 120,
            window_size: 100,
            horizon_days: 128.0,
            seed,
            branching: 6,
            extra_links_per_page: 2,
            cross_link_probability: 0.05,
            churn: true,
        }
    }

    /// A universe scaled to roughly `total_pages` page slots across
    /// `total_sites` sites, preserving the Table 1 domain ratio
    /// (132:78:30:30). The horizon is set to `horizon_days` so change
    /// schedules are materialized only as far as the run needs them —
    /// at millions of pages the event arena is the dominant allocation,
    /// and a 128-day horizon for a 12-day run would waste most of it.
    pub fn scaled(
        seed: u64,
        total_sites: usize,
        total_pages: usize,
        horizon_days: f64,
    ) -> UniverseConfig {
        assert!(total_sites > 0, "need at least one site");
        assert!(total_pages >= total_sites, "need at least one page per site");
        // Largest-remainder apportionment of the Table 1 mix; every
        // domain keeps at least one site once the count allows it.
        let weights = [
            (Domain::Com, 132usize),
            (Domain::Edu, 78),
            (Domain::NetOrg, 30),
            (Domain::Gov, 30),
        ];
        let mut counts = PerDomain::from_fn(|_| 0usize);
        let mut assigned = 0usize;
        for &(d, w) in &weights {
            let n = total_sites * w / 270;
            *counts.get_mut(d) = n;
            assigned += n;
        }
        // Distribute the rounding remainder in weight order.
        for &(d, _) in weights.iter().cycle().take(4 * 270) {
            if assigned == total_sites {
                break;
            }
            *counts.get_mut(d) += 1;
            assigned += 1;
        }
        let pages_per_site = total_pages.div_ceil(total_sites);
        UniverseConfig {
            sites_per_domain: counts,
            pages_per_site,
            window_size: pages_per_site,
            horizon_days,
            seed,
            branching: 8,
            extra_links_per_page: 2,
            cross_link_probability: 0.05,
            churn: true,
        }
    }

    /// A tiny universe for unit tests.
    pub fn test_scale(seed: u64) -> UniverseConfig {
        UniverseConfig {
            sites_per_domain: PerDomain::from_fn(|d| match d {
                Domain::Com => 5,
                Domain::Edu => 3,
                Domain::NetOrg => 1,
                Domain::Gov => 1,
            }),
            pages_per_site: 30,
            window_size: 25,
            horizon_days: 130.0,
            seed,
            branching: 4,
            extra_links_per_page: 1,
            cross_link_probability: 0.1,
            churn: true,
        }
    }

    /// Total number of sites.
    pub fn total_sites(&self) -> usize {
        Domain::ALL.iter().map(|&d| *self.sites_per_domain.get(d)).sum()
    }

    /// Validate internal consistency; panics with a descriptive message on
    /// misconfiguration (configs are developer-provided, not user input).
    pub fn validate(&self) {
        assert!(self.total_sites() > 0, "need at least one site");
        assert!(self.pages_per_site > 0, "need at least one page per site");
        assert!(
            self.window_size > 0 && self.window_size <= self.pages_per_site,
            "window must be within pages_per_site"
        );
        assert!(self.horizon_days > 0.0, "horizon must be positive");
        assert!(self.branching >= 1, "branching must be at least 1");
        assert!(
            (0.0..=1.0).contains(&self.cross_link_probability),
            "cross-link probability is a probability"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_matches_table1() {
        let c = UniverseConfig::paper_scale(1);
        assert_eq!(c.total_sites(), 270);
        assert_eq!(*c.sites_per_domain.get(Domain::Com), 132);
        assert_eq!(*c.sites_per_domain.get(Domain::Edu), 78);
        assert_eq!(*c.sites_per_domain.get(Domain::NetOrg), 30);
        assert_eq!(*c.sites_per_domain.get(Domain::Gov), 30);
        assert_eq!(c.pages_per_site, 3_000);
        c.validate();
    }

    #[test]
    fn scales_validate() {
        UniverseConfig::medium_scale(1).validate();
        UniverseConfig::test_scale(1).validate();
    }

    #[test]
    #[should_panic(expected = "window")]
    fn window_larger_than_site_rejected() {
        let mut c = UniverseConfig::test_scale(1);
        c.window_size = c.pages_per_site + 1;
        c.validate();
    }

    #[test]
    fn scaled_hits_requested_totals() {
        let c = UniverseConfig::scaled(7, 270, 1_000_000, 12.0);
        c.validate();
        assert_eq!(c.total_sites(), 270);
        assert!(c.total_sites() * c.pages_per_site >= 1_000_000);
        let com = *c.sites_per_domain.get(Domain::Com) as f64 / 270.0;
        assert!((com - 132.0 / 270.0).abs() < 0.01);
        // Tiny site counts still apportion every site somewhere.
        let tiny = UniverseConfig::scaled(7, 3, 90, 30.0);
        tiny.validate();
        assert_eq!(tiny.total_sites(), 3);
        assert_eq!(tiny.pages_per_site, 30);
    }

    #[test]
    fn medium_preserves_ratio_roughly() {
        let c = UniverseConfig::medium_scale(1);
        let com = *c.sites_per_domain.get(Domain::Com) as f64 / c.total_sites() as f64;
        assert!((com - 132.0 / 270.0).abs() < 0.01);
    }
}
