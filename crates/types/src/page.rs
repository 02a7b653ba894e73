//! Page-level value types: checksums, versions, change rates.

use std::fmt;

/// A page content digest.
///
/// §5.3: *"the UpdateModule records the checksum of the page from the last
/// crawl and compares that checksum with the one from the current crawl"* —
/// change detection in the crawler is checksum equality, nothing more. The
/// simulator produces checksums deterministically from `(page, version)` so
/// two crawls of an unchanged page always collide, and changed content never
/// does (64-bit digest; collisions are negligible at our scales and the paper
/// makes the same implicit assumption).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Checksum(pub u64);

impl Checksum {
    /// FNV-1a digest of a byte string. Small, dependency-free, deterministic
    /// across runs — all we need from a page digest here.
    pub fn of_bytes(bytes: &[u8]) -> Checksum {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
        Checksum(h)
    }

    /// Digest of a `(page, version)` pair; used by the simulator to produce
    /// per-version checksums without materializing content.
    pub fn of_version(page: u64, version: u64) -> Checksum {
        // SplitMix64-style mix of the two words; avalanche is plenty for a
        // change-detection digest.
        let mut z = page
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(version.wrapping_mul(0xbf58_476d_1ce4_e5b9))
            .wrapping_add(0x94d0_49bb_1331_11eb);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Checksum(z ^ (z >> 31))
    }
}

impl fmt::Debug for Checksum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cksum:{:016x}", self.0)
    }
}

/// A monotonically increasing content version of a page.
///
/// Version 0 is the content at page birth; each Poisson change event bumps
/// the version by one. The simulator's ground truth; the crawler only ever
/// sees the derived [`Checksum`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PageVersion(pub u64);

impl PageVersion {
    /// The initial version at page birth.
    pub const INITIAL: PageVersion = PageVersion(0);

    /// The next version after a change event.
    #[inline]
    pub fn next(self) -> PageVersion {
        PageVersion(self.0 + 1)
    }
}

/// A Poisson change rate λ, in events per **day**.
///
/// §3.4 verifies that page changes follow a Poisson process with a
/// page-specific rate; this newtype keeps rates from being confused with
/// frequencies-per-month or intervals.
#[derive(Clone, Copy, PartialEq, PartialOrd, Debug)]
pub struct ChangeRate(pub f64);

impl ChangeRate {
    /// A page that never changes.
    pub const ZERO: ChangeRate = ChangeRate(0.0);

    /// Rate from a mean change interval in days (λ = 1 / interval).
    pub fn per_interval_days(days: f64) -> ChangeRate {
        assert!(days > 0.0, "mean change interval must be positive");
        ChangeRate(1.0 / days)
    }

    /// Events per day.
    #[inline]
    pub const fn per_day(self) -> f64 {
        self.0
    }

    /// Events per 30-day month.
    #[inline]
    pub fn per_month(self) -> f64 {
        self.0 * crate::time::MONTH
    }

    /// Mean interval between changes in days (∞ for rate 0).
    #[inline]
    pub fn mean_interval_days(self) -> f64 {
        if self.0 == 0.0 {
            f64::INFINITY
        } else {
            1.0 / self.0
        }
    }

    /// Probability that the page changes at least once within `dt` days:
    /// `1 − e^{−λ·dt}` (Theorem 1 of the paper).
    pub fn change_probability(self, dt: f64) -> f64 {
        debug_assert!(dt >= 0.0);
        -(-self.0 * dt).exp_m1()
    }

    /// True when the rate is finite and non-negative.
    pub fn is_valid(self) -> bool {
        self.0.is_finite() && self.0 >= 0.0
    }
}

impl fmt::Display for ChangeRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "λ={:.4}/day", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_deterministic_and_sensitive() {
        assert_eq!(Checksum::of_bytes(b"hello"), Checksum::of_bytes(b"hello"));
        assert_ne!(Checksum::of_bytes(b"hello"), Checksum::of_bytes(b"hellp"));
        assert_eq!(Checksum::of_version(3, 7), Checksum::of_version(3, 7));
        assert_ne!(Checksum::of_version(3, 7), Checksum::of_version(3, 8));
        assert_ne!(Checksum::of_version(3, 7), Checksum::of_version(4, 7));
    }

    #[test]
    fn version_advances() {
        let v = PageVersion::INITIAL;
        assert_eq!(v.next(), PageVersion(1));
        assert_eq!(v.next().next(), PageVersion(2));
    }

    #[test]
    fn rate_conversions() {
        let r = ChangeRate::per_interval_days(10.0);
        assert!((r.per_day() - 0.1).abs() < 1e-12);
        assert!((r.mean_interval_days() - 10.0).abs() < 1e-12);
        assert!((r.per_month() - 3.0).abs() < 1e-12);
        assert_eq!(ChangeRate::ZERO.mean_interval_days(), f64::INFINITY);
    }

    #[test]
    fn change_probability_matches_theorem1() {
        let r = ChangeRate(0.5);
        let p = r.change_probability(2.0);
        assert!((p - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
        assert_eq!(r.change_probability(0.0), 0.0);
        assert_eq!(ChangeRate::ZERO.change_probability(100.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_interval_rejected() {
        let _ = ChangeRate::per_interval_days(0.0);
    }

    #[test]
    fn validity() {
        assert!(ChangeRate(0.0).is_valid());
        assert!(ChangeRate(2.5).is_valid());
        assert!(!ChangeRate(-1.0).is_valid());
        assert!(!ChangeRate(f64::NAN).is_valid());
    }
}
