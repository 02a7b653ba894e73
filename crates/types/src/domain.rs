//! Top-level domain classes used throughout the paper.
//!
//! Table 1 groups the 270 monitored sites into four classes: `com`, `edu`,
//! `netorg` (".net" + ".org") and `gov` (".gov" + ".mil"). Every per-domain
//! figure in §3 (Figures 2b, 4b, 5b) is broken down over these classes.

use std::fmt;
use std::str::FromStr;

/// The four domain classes of Table 1.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Domain {
    /// Commercial sites (`.com`) — the most dynamic class in every §3 result.
    Com,
    /// Educational sites (`.edu`) — among the most static.
    Edu,
    /// `.net` and `.org` sites, grouped as in Table 1.
    NetOrg,
    /// `.gov` and `.mil` sites, grouped as in Table 1; the most static class.
    Gov,
}

impl Domain {
    /// All four domain classes, in Table 1 order.
    pub const ALL: [Domain; 4] = [Domain::Com, Domain::Edu, Domain::NetOrg, Domain::Gov];

    /// Number of monitored sites in this class in the paper's experiment
    /// (Table 1: com 132, edu 78, netorg 30, gov 30).
    pub const fn paper_site_count(self) -> usize {
        match self {
            Domain::Com => 132,
            Domain::Edu => 78,
            Domain::NetOrg => 30,
            Domain::Gov => 30,
        }
    }

    /// Total sites monitored in the paper (Table 1).
    const PAPER_TOTAL_SITES: usize = 270;

    /// Fraction of monitored sites in this class.
    pub fn paper_site_fraction(self) -> f64 {
        self.paper_site_count() as f64 / Self::PAPER_TOTAL_SITES as f64
    }

    /// Short lowercase label used in tables and figures.
    pub const fn label(self) -> &'static str {
        match self {
            Domain::Com => "com",
            Domain::Edu => "edu",
            Domain::NetOrg => "netorg",
            Domain::Gov => "gov",
        }
    }

    /// Stable small index (0..4) for array-indexed per-domain accumulators.
    pub const fn index(self) -> usize {
        match self {
            Domain::Com => 0,
            Domain::Edu => 1,
            Domain::NetOrg => 2,
            Domain::Gov => 3,
        }
    }
}

impl fmt::Display for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for Domain {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "com" => Ok(Domain::Com),
            "edu" => Ok(Domain::Edu),
            "netorg" | "net" | "org" => Ok(Domain::NetOrg),
            "gov" | "mil" => Ok(Domain::Gov),
            other => Err(format!("unknown domain class: {other}")),
        }
    }
}

/// A per-domain accumulator: one slot per Table 1 domain class.
///
/// This is the workhorse of every "(b) For each domain" figure.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PerDomain<T> {
    slots: [T; 4],
}

impl<T> PerDomain<T> {
    /// Build from a function of the domain.
    pub fn from_fn(mut f: impl FnMut(Domain) -> T) -> Self {
        PerDomain {
            slots: [
                f(Domain::Com),
                f(Domain::Edu),
                f(Domain::NetOrg),
                f(Domain::Gov),
            ],
        }
    }

    /// Shared access to one domain's slot.
    #[inline]
    pub fn get(&self, d: Domain) -> &T {
        &self.slots[d.index()]
    }

    /// Mutable access to one domain's slot.
    #[inline]
    pub fn get_mut(&mut self, d: Domain) -> &mut T {
        &mut self.slots[d.index()]
    }

    /// Iterate `(domain, value)` pairs in Table 1 order.
    pub fn iter(&self) -> impl Iterator<Item = (Domain, &T)> {
        Domain::ALL.iter().map(move |&d| (d, &self.slots[d.index()]))
    }

    /// Map every slot through `f`, keeping domain association.
    pub fn map<U>(&self, mut f: impl FnMut(Domain, &T) -> U) -> PerDomain<U> {
        PerDomain {
            slots: [
                f(Domain::Com, &self.slots[0]),
                f(Domain::Edu, &self.slots[1]),
                f(Domain::NetOrg, &self.slots[2]),
                f(Domain::Gov, &self.slots[3]),
            ],
        }
    }
}

impl<T> std::ops::Index<Domain> for PerDomain<T> {
    type Output = T;
    #[inline]
    fn index(&self, d: Domain) -> &T {
        self.get(d)
    }
}

impl<T> std::ops::IndexMut<Domain> for PerDomain<T> {
    #[inline]
    fn index_mut(&mut self, d: Domain) -> &mut T {
        self.get_mut(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_counts() {
        let total: usize = Domain::ALL.iter().map(|d| d.paper_site_count()).sum();
        assert_eq!(total, Domain::PAPER_TOTAL_SITES);
        assert_eq!(Domain::Com.paper_site_count(), 132);
        assert_eq!(Domain::Edu.paper_site_count(), 78);
        assert_eq!(Domain::NetOrg.paper_site_count(), 30);
        assert_eq!(Domain::Gov.paper_site_count(), 30);
    }

    #[test]
    fn fractions_sum_to_one() {
        let sum: f64 = Domain::ALL.iter().map(|d| d.paper_site_fraction()).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn parse_labels() {
        for d in Domain::ALL {
            assert_eq!(d.label().parse::<Domain>().unwrap(), d);
        }
        assert!("xyz".parse::<Domain>().is_err());
    }

    #[test]
    fn per_domain_accumulator() {
        let mut acc: PerDomain<u32> = PerDomain::default();
        acc[Domain::Com] += 2;
        acc[Domain::Gov] += 1;
        assert_eq!(acc[Domain::Com], 2);
        assert_eq!(acc[Domain::Edu], 0);
        let doubled = acc.map(|_, v| v * 2);
        assert_eq!(doubled[Domain::Com], 4);
        let pairs: Vec<_> = acc.iter().map(|(d, v)| (d.label(), *v)).collect();
        assert_eq!(pairs, vec![("com", 2), ("edu", 0), ("netorg", 0), ("gov", 1)]);
    }
}
