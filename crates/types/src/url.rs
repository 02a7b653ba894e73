//! Lightweight URL representation for the simulated web.
//!
//! Real URL parsing is out of scope (the simulated web addresses pages by
//! id), but the crawler-facing API should still speak in URL-like values —
//! `AllUrls` and `CollUrls` in the paper are URL sets. A `Url` here is a
//! `(site, page)` pair, which is exactly the addressing the page-window
//! methodology needs (a page's BFS depth is site state, not part of its
//! address).

use crate::{PageId, SiteId};
use std::fmt;

/// A simulated URL: the page's site and its global page id.
///
/// Ordered by `(site, page)` so URL-keyed engine state can live in ordered
/// containers — iteration order (and therefore floating-point accumulation
/// order) must not depend on hash seeds, or crawls stop replaying.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Url {
    /// Owning site.
    pub site: SiteId,
    /// Global page identifier.
    pub page: PageId,
}

impl Url {
    /// Construct a URL from its parts.
    pub const fn new(site: SiteId, page: PageId) -> Url {
        Url { site, page }
    }
}

impl fmt::Display for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "http://site{}.sim/p{}", self.site.0, self.page.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn url_display_is_stable() {
        let u = Url::new(SiteId(3), PageId(17));
        assert_eq!(u.to_string(), "http://site3.sim/p17");
    }

    #[test]
    fn url_equality_is_structural() {
        let a = Url::new(SiteId(1), PageId(2));
        let b = Url::new(SiteId(1), PageId(2));
        assert_eq!(a, b);
        assert_ne!(a, Url::new(SiteId(1), PageId(3)));
    }
}
