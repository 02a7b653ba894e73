//! Per-domain behaviour profiles, calibrated to §3's measurements.
//!
//! Each domain class gets a mixture over the paper's change-interval bins
//! (Figure 2(b)) and visible-lifespan bins (Figure 4(b)). Sampling a page
//! first draws its bin from the mixture, then draws the actual value
//! log-uniformly within the bin — change intervals and lifetimes plausibly
//! spread multiplicatively, and log-uniform keeps every decade of the bin
//! represented.

use webevo_stats::dist::sample_log_uniform;
use webevo_stats::SimRng;
use webevo_types::{ChangeRate, Domain};

/// Change-interval bin edges in days for the Poisson bins (2..5). The last
/// extends to four years (the paper crudely assumed one year for
/// never-changed pages).
const INTERVAL_EDGES: [(f64, f64); 5] = [
    (1.0 / 4.0, 1.0 / 4.0), // tickers: see [`TICKER_PERIOD_DAYS`]
    (1.0, 7.0),
    (7.0, 30.0),
    (30.0, 120.0),
    (120.0, 1460.0),
];

/// Pages in the paper's first bar "changed whenever we visited" (§3.1).
/// On the real web these are script-generated pages (timestamps, counters,
/// rotating headlines) that change *deterministically* many times a day —
/// a Poisson page with a finite rate would occasionally skip a day and
/// fall out of the bucket. The simulator models them as tickers changing
/// every `TICKER_PERIOD_DAYS`, which also matches the paper's reading of
/// Figure 1(b): for such pages the estimate is "the interval between the
/// batches of changes".
pub const TICKER_PERIOD_DAYS: f64 = 0.25;

/// How a sampled page changes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PageBehavior {
    /// Nominal change rate (events/day).
    pub rate: ChangeRate,
    /// Deterministic sub-daily changer (the paper's first bar) rather than
    /// a Poisson process.
    pub ticker: bool,
}

/// Lifespan bin edges in days (Figure 4's bins, the last extending to two
/// years).
const LIFESPAN_EDGES: [(f64, f64); 4] = [(1.0, 7.0), (7.0, 30.0), (30.0, 120.0), (120.0, 720.0)];

/// Behaviour profile of one domain class.
#[derive(Clone, Debug, PartialEq)]
pub struct DomainProfile {
    /// The domain this profile describes.
    pub domain: Domain,
    /// Mixture over the five change-interval bins of Figure 2
    /// (≤1d, 1d–1w, 1w–1m, 1m–4m, >4m). Sums to 1.
    pub interval_mix: [f64; 5],
    /// Mixture over the four lifespan bins of Figure 4
    /// (≤1w, 1w–1m, 1m–4m, >4m). Sums to 1.
    pub lifespan_mix: [f64; 4],
}

impl DomainProfile {
    /// The calibrated profile for a domain, following the fractions the
    /// paper reports or plots:
    ///
    /// * `com`: >40% change daily (§3.1), shortest-lived pages (§3.2);
    /// * `netorg`: second most dynamic (§3.3);
    /// * `edu`, `gov`: >50% unchanged over 4 months (§3.1), >50% of pages
    ///   live beyond 4 months (§3.2).
    pub fn calibrated(domain: Domain) -> DomainProfile {
        let (interval_mix, lifespan_mix) = match domain {
            Domain::Com => ([0.45, 0.16, 0.14, 0.13, 0.12], [0.15, 0.17, 0.28, 0.40]),
            Domain::Edu => ([0.08, 0.10, 0.12, 0.20, 0.50], [0.06, 0.09, 0.30, 0.55]),
            Domain::NetOrg => ([0.09, 0.18, 0.23, 0.28, 0.22], [0.09, 0.15, 0.31, 0.45]),
            Domain::Gov => ([0.05, 0.08, 0.12, 0.25, 0.50], [0.05, 0.10, 0.30, 0.55]),
        };
        DomainProfile { domain, interval_mix, lifespan_mix }
    }

    /// Sample a page's change behaviour: bin from the mixture; the first
    /// bin yields deterministic tickers, the others Poisson rates with the
    /// interval log-uniform within the bin.
    pub fn sample_behavior(&self, rng: &mut SimRng) -> PageBehavior {
        let bin = rng.weighted_index(&self.interval_mix);
        if bin == 0 {
            return PageBehavior {
                rate: ChangeRate::per_interval_days(TICKER_PERIOD_DAYS),
                ticker: true,
            };
        }
        let (lo, hi) = INTERVAL_EDGES[bin];
        let interval = sample_log_uniform(rng, lo, hi);
        PageBehavior { rate: ChangeRate::per_interval_days(interval), ticker: false }
    }

    /// Sample just a change rate (for scheduling workloads where only the
    /// rate mixture matters).
    pub fn sample_rate(&self, rng: &mut SimRng) -> ChangeRate {
        self.sample_behavior(rng).rate
    }

    /// Sample a page lifetime in days, for a *slot* (renewal chain).
    ///
    /// `lifespan_mix` is calibrated to Figure 4, which counts **observed
    /// pages**. A slot with short lifetimes cycles through many
    /// incarnations during the experiment, so observed pages are
    /// length-biased toward short lives: observing fraction `o_i` for a
    /// class requires the *slot* mixture `s_i ∝ o_i · E\[L_i\]` (incarnation
    /// count per slot ∝ 1/E\[L_i\]). The weights below apply that
    /// correction, so the monitor's per-page histogram reproduces the
    /// target mixture.
    pub fn sample_lifetime(&self, rng: &mut SimRng) -> f64 {
        let mut weights = [0.0f64; 4];
        for (i, w) in weights.iter_mut().enumerate() {
            let (lo, hi) = LIFESPAN_EDGES[i];
            // Mean of a log-uniform on [lo, hi].
            let mean = (hi - lo) / (hi / lo).ln();
            *w = self.lifespan_mix[i] * mean;
        }
        let bin = rng.weighted_index(&weights);
        let (lo, hi) = LIFESPAN_EDGES[bin];
        sample_log_uniform(rng, lo, hi)
    }

    /// Expected fraction of pages whose *true* mean change interval falls
    /// in each Figure 2 bin — what a long, perfectly sampled experiment
    /// would recover.
    pub fn expected_interval_fractions(&self) -> [f64; 5] {
        self.interval_mix
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixtures_are_distributions() {
        for d in Domain::ALL {
            let p = DomainProfile::calibrated(d);
            let si: f64 = p.interval_mix.iter().sum();
            let sl: f64 = p.lifespan_mix.iter().sum();
            assert!((si - 1.0).abs() < 1e-12, "{d}: interval mix sums to {si}");
            assert!((sl - 1.0).abs() < 1e-12, "{d}: lifespan mix sums to {sl}");
        }
    }

    #[test]
    fn com_is_most_dynamic() {
        // §3.1: more than 40% of com pages changed every day; fewer than
        // 10% in every other domain.
        assert!(DomainProfile::calibrated(Domain::Com).interval_mix[0] > 0.40);
        for d in [Domain::Edu, Domain::NetOrg, Domain::Gov] {
            assert!(DomainProfile::calibrated(d).interval_mix[0] < 0.10);
        }
    }

    #[test]
    fn edu_gov_are_static() {
        // §3.1: more than 50% of edu/gov pages did not change for 4 months.
        assert!(DomainProfile::calibrated(Domain::Edu).interval_mix[4] >= 0.50);
        assert!(DomainProfile::calibrated(Domain::Gov).interval_mix[4] >= 0.50);
    }

    #[test]
    fn overall_daily_fraction_exceeds_twenty_percent() {
        // §3.1: "More than 20% of pages had changed whenever we visited
        // them" — the site-count-weighted mixture must reproduce that.
        let overall: f64 = Domain::ALL
            .iter()
            .map(|&d| {
                DomainProfile::calibrated(d).interval_mix[0] * d.paper_site_fraction()
            })
            .sum();
        assert!(overall > 0.20, "overall daily fraction {overall}");
    }

    #[test]
    fn lifespans_mostly_exceed_a_month() {
        // §3.2: more than 70% of pages remained over a month.
        let overall: f64 = Domain::ALL
            .iter()
            .map(|&d| {
                let p = DomainProfile::calibrated(d);
                (p.lifespan_mix[2] + p.lifespan_mix[3]) * d.paper_site_fraction()
            })
            .sum();
        assert!(overall > 0.70, "overall >1month fraction {overall}");
        // and >50% of edu/gov pages stay beyond 4 months.
        assert!(DomainProfile::calibrated(Domain::Edu).lifespan_mix[3] >= 0.50);
        assert!(DomainProfile::calibrated(Domain::Gov).lifespan_mix[3] >= 0.50);
    }

    #[test]
    fn sampled_rates_land_in_their_bins() {
        let mut rng = SimRng::seed_from_u64(1);
        let p = DomainProfile::calibrated(Domain::Com);
        let mut daily = 0usize;
        let mut tickers = 0usize;
        let n = 20_000;
        for _ in 0..n {
            let b = p.sample_behavior(&mut rng);
            let interval = b.rate.mean_interval_days();
            assert!(
                (TICKER_PERIOD_DAYS..=1460.0).contains(&interval),
                "interval {interval} out of range"
            );
            if b.ticker {
                tickers += 1;
                assert_eq!(interval, TICKER_PERIOD_DAYS);
            }
            if interval <= 1.0 {
                daily += 1;
            }
        }
        let frac = daily as f64 / n as f64;
        assert!((frac - 0.45).abs() < 0.02, "daily fraction {frac}");
        assert_eq!(daily, tickers, "the first bin is exactly the tickers");
    }

    #[test]
    fn sampled_lifetimes_are_length_bias_corrected() {
        // Slot lifetimes oversample long classes so that *observed pages*
        // (incarnation count ∝ 1/lifetime) reproduce the Figure 4 mixture.
        let mut rng = SimRng::seed_from_u64(2);
        let p = DomainProfile::calibrated(Domain::Gov);
        let n = 20_000;
        let mut over_4m = 0usize;
        let mut weighted_over_4m = 0.0; // incarnation-weighted count
        let mut weighted_total = 0.0;
        for _ in 0..n {
            let l = p.sample_lifetime(&mut rng);
            assert!((1.0..=720.0).contains(&l));
            if l > 120.0 {
                over_4m += 1;
                weighted_over_4m += 1.0 / l;
            }
            weighted_total += 1.0 / l;
        }
        // Slot-level: long lives dominate after the correction.
        assert!(over_4m as f64 / n as f64 > 0.8);
        // Observed-page level (1/L weighting): back to the Fig 4 target.
        let observed = weighted_over_4m / weighted_total;
        assert!((observed - 0.55).abs() < 0.05, "observed >4m fraction {observed}");
    }
}
