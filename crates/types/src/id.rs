//! Compact identifiers for pages and sites.

use std::fmt;

/// Identifier of a web site (a root URL and everything reachable under it).
///
/// The paper monitors 270 sites (Table 1); site identity is the unit of
/// domain classification, politeness limits, and site-level statistics
/// pooling (§5.3).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SiteId(pub u32);

/// Identifier of a single web page.
///
/// Pages are globally numbered across the whole simulated web; the owning
/// site is tracked separately so that `PageId` stays a bare `u64` in hot
/// maps and queues.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageId(pub u64);

impl SiteId {
    /// Returns the raw index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl PageId {
    /// Returns the raw index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "site#{}", self.0)
    }
}

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "site#{}", self.0)
    }
}

impl fmt::Debug for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "page#{}", self.0)
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "page#{}", self.0)
    }
}

impl From<u32> for SiteId {
    fn from(v: u32) -> Self {
        SiteId(v)
    }
}

impl From<u64> for PageId {
    fn from(v: u64) -> Self {
        PageId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_ordered_and_hashable() {
        let a = PageId(1);
        let b = PageId(2);
        assert!(a < b);
        #[expect(clippy::disallowed_types, reason = "this tests the `Hash` impl")]
        let mut set = std::collections::HashSet::new();
        set.insert(a);
        set.insert(b);
        set.insert(PageId(1));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SiteId(7).to_string(), "site#7");
        assert_eq!(PageId(42).to_string(), "page#42");
    }

    #[test]
    fn index_matches_raw() {
        assert_eq!(SiteId(5).index(), 5);
        assert_eq!(PageId(123).index(), 123);
    }
}
