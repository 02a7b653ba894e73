//! Dense, `PageId`-indexed engine substrates.
//!
//! The simulated universe hands out page ids densely (`PageId(0..n)` in
//! birth order), so the crawler's hot per-page state — the `Collection`,
//! `AllUrls`, revisit intervals, the periodic engine's shadow maps — can
//! live in flat `Vec`-backed slot maps instead of pointer-chasing ordered
//! trees. [`DenseMap`] and [`DenseSet`] are that substrate, shared by every
//! call site so the invariants are audited once:
//!
//! * **Iteration is in ascending `PageId` order.** This is the replay
//!   guarantee: float accumulations over these containers (metric
//!   sampling, ranking mass sums, reallocation sweeps) visit pages in the
//!   same order as the ordered maps they replace, so crawls continue to
//!   replay bit-identically for a fixed seed — without per-lookup tree
//!   descent.
//! * **Encoding is canonical.** On the wire ([`crate::binio`]) a
//!   `DenseMap<V>` is its `(id, value)` pairs in ascending id order and a
//!   `DenseSet` its sorted ids — a function of the contents, not of the
//!   insertion history — so two exports of the same state are
//!   byte-identical.
//!
//! Slots are `Option<V>`; lookups are a bounds check plus an index. Memory
//! is proportional to the largest id ever inserted, which the dense-id
//! universe keeps within a constant factor of the live population.

use crate::id::PageId;

/// A `Vec`-backed map from [`PageId`] to `V`. See the module docs for the
/// iteration-order and encoding contracts.
#[derive(Clone, Debug)]
pub struct DenseMap<V> {
    slots: Vec<Option<V>>,
    len: usize,
}

impl<V> Default for DenseMap<V> {
    fn default() -> DenseMap<V> {
        DenseMap::new()
    }
}

impl<V> DenseMap<V> {
    /// An empty map.
    pub fn new() -> DenseMap<V> {
        DenseMap { slots: Vec::new(), len: 0 }
    }

    /// An empty map with room for ids `0..capacity` before regrowing.
    pub fn with_capacity(capacity: usize) -> DenseMap<V> {
        DenseMap { slots: Vec::with_capacity(capacity), len: 0 }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entry is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True if `page` has an entry.
    pub fn contains(&self, page: PageId) -> bool {
        self.slots.get(page.index()).is_some_and(Option::is_some)
    }

    /// Shared access to the entry for `page`.
    pub fn get(&self, page: PageId) -> Option<&V> {
        self.slots.get(page.index()).and_then(Option::as_ref)
    }

    /// Mutable access to the entry for `page`.
    pub fn get_mut(&mut self, page: PageId) -> Option<&mut V> {
        self.slots.get_mut(page.index()).and_then(Option::as_mut)
    }

    /// Insert (or replace) the entry for `page`, returning the previous
    /// value if any.
    pub fn insert(&mut self, page: PageId, value: V) -> Option<V> {
        let i = page.index();
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        let old = self.slots[i].replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Remove the entry for `page`, returning it if present.
    pub fn remove(&mut self, page: PageId) -> Option<V> {
        let old = self.slots.get_mut(page.index()).and_then(Option::take);
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// The entry for `page`, inserting `default()` first when vacant.
    pub fn or_insert_with(&mut self, page: PageId, default: impl FnOnce() -> V) -> &mut V {
        let i = page.index();
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        let slot = &mut self.slots[i];
        if slot.is_none() {
            *slot = Some(default());
            self.len += 1;
        }
        slot.as_mut().expect("slot just filled")
    }

    /// Drop every entry (allocation retained).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.len = 0;
    }

    /// Iterate entries in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (PageId, &V)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|v| (PageId(i as u64), v)))
    }

    /// Iterate entries mutably in ascending id order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (PageId, &mut V)> {
        self.slots
            .iter_mut()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_mut().map(|v| (PageId(i as u64), v)))
    }

    /// Iterate stored ids in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = PageId> + '_ {
        self.iter().map(|(p, _)| p)
    }

    /// Iterate stored values in ascending id order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.slots.iter().filter_map(Option::as_ref)
    }
}

// Equality is over the stored entries, not the slot vector: two maps with
// the same entries compare equal even when one has grown further (trailing
// vacant slots are invisible).
impl<V: PartialEq> PartialEq for DenseMap<V> {
    fn eq(&self, other: &DenseMap<V>) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<V: Eq> Eq for DenseMap<V> {}

impl<V> FromIterator<(PageId, V)> for DenseMap<V> {
    fn from_iter<I: IntoIterator<Item = (PageId, V)>>(iter: I) -> DenseMap<V> {
        let mut map = DenseMap::new();
        for (p, v) in iter {
            map.insert(p, v);
        }
        map
    }
}

/// A `Vec<u64>` bitset over [`PageId`]s. Iteration ascends, and so does
/// the wire encoding (a sorted id sequence).
#[derive(Clone, Debug, Default)]
pub struct DenseSet {
    words: Vec<u64>,
    len: usize,
}

impl DenseSet {
    /// An empty set.
    pub fn new() -> DenseSet {
        DenseSet::default()
    }

    /// Number of ids stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True if `page` is in the set.
    pub fn contains(&self, page: PageId) -> bool {
        let i = page.index();
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1u64 << (i % 64)) != 0)
    }

    /// Insert `page`; returns whether it was newly added.
    pub fn insert(&mut self, page: PageId) -> bool {
        let i = page.index();
        let word = i / 64;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let bit = 1u64 << (i % 64);
        let fresh = self.words[word] & bit == 0;
        if fresh {
            self.words[word] |= bit;
            self.len += 1;
        }
        fresh
    }

    /// Remove `page`; returns whether it was present.
    pub fn remove(&mut self, page: PageId) -> bool {
        let i = page.index();
        let Some(word) = self.words.get_mut(i / 64) else {
            return false;
        };
        let bit = 1u64 << (i % 64);
        let present = *word & bit != 0;
        if present {
            *word &= !bit;
            self.len -= 1;
        }
        present
    }

    /// Drop every id.
    pub fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
    }

    /// Iterate stored ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = PageId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let tz = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(PageId((wi * 64 + tz) as u64))
            })
        })
    }

    /// The stored ids as an ascending vector.
    pub fn to_vec(&self) -> Vec<PageId> {
        self.iter().collect()
    }
}

impl FromIterator<PageId> for DenseSet {
    fn from_iter<I: IntoIterator<Item = PageId>>(iter: I) -> DenseSet {
        let mut set = DenseSet::new();
        for p in iter {
            set.insert(p);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binio::{BinDecode, BinEncode, BinReader};

    #[test]
    fn map_insert_get_remove() {
        let mut m = DenseMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(PageId(5), "a"), None);
        assert_eq!(m.insert(PageId(2), "b"), None);
        assert_eq!(m.insert(PageId(5), "c"), Some("a"));
        assert_eq!(m.len(), 2);
        assert!(m.contains(PageId(2)));
        assert!(!m.contains(PageId(3)));
        assert!(!m.contains(PageId(999)), "out of range is absent, not a panic");
        assert_eq!(m.get(PageId(5)), Some(&"c"));
        *m.get_mut(PageId(2)).unwrap() = "z";
        assert_eq!(m.remove(PageId(2)), Some("z"));
        assert_eq!(m.remove(PageId(2)), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn map_iterates_ascending() {
        let mut m = DenseMap::new();
        for i in [9u64, 1, 4, 7, 0] {
            m.insert(PageId(i), i * 10);
        }
        let ids: Vec<u64> = m.iter().map(|(p, _)| p.0).collect();
        assert_eq!(ids, vec![0, 1, 4, 7, 9]);
        let vals: Vec<u64> = m.values().copied().collect();
        assert_eq!(vals, vec![0, 10, 40, 70, 90]);
        for (_, v) in m.iter_mut() {
            *v += 1;
        }
        assert_eq!(m.get(PageId(4)), Some(&41));
    }

    #[test]
    fn map_or_insert_with() {
        let mut m: DenseMap<Vec<u32>> = DenseMap::new();
        m.or_insert_with(PageId(3), Vec::new).push(1);
        m.or_insert_with(PageId(3), || panic!("occupied")).push(2);
        assert_eq!(m.get(PageId(3)), Some(&vec![1, 2]));
        assert_eq!(m.len(), 1);
    }

    fn encoded<T: BinEncode>(value: &T) -> Vec<u8> {
        let mut out = Vec::new();
        value.bin_encode(&mut out);
        out
    }

    #[test]
    fn map_serializes_like_btreemap() {
        use std::collections::BTreeMap;
        let pairs = [(PageId(8), 3.5f64), (PageId(1), -1.0), (PageId(30), 0.25)];
        let dense: DenseMap<f64> = pairs.iter().copied().collect();
        let tree: BTreeMap<PageId, f64> = pairs.iter().copied().collect();
        let sorted: Vec<(PageId, f64)> = tree.into_iter().collect();
        let bytes = encoded(&dense);
        assert_eq!(bytes, encoded(&sorted), "the wire order is ascending id, not insertion");
        let back = DenseMap::<f64>::bin_decode(&mut BinReader::new(&bytes)).unwrap();
        assert_eq!(back, dense);
        assert_eq!(encoded(&back), bytes, "re-encoding is canonical");
    }

    #[test]
    fn set_insert_remove_iterate() {
        let mut s = DenseSet::new();
        assert!(s.insert(PageId(65)));
        assert!(s.insert(PageId(2)));
        assert!(!s.insert(PageId(65)), "duplicate insert reports false");
        assert!(s.contains(PageId(2)));
        assert!(!s.contains(PageId(64)));
        assert!(!s.contains(PageId(100_000)));
        assert_eq!(s.to_vec(), vec![PageId(2), PageId(65)]);
        assert!(s.remove(PageId(2)));
        assert!(!s.remove(PageId(2)));
        assert!(!s.remove(PageId(100_000)));
        assert_eq!(s.len(), 1);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn set_serializes_like_btreeset() {
        use std::collections::BTreeSet;
        let ids = [PageId(7), PageId(0), PageId(130)];
        let dense: DenseSet = ids.iter().copied().collect();
        let tree: BTreeSet<PageId> = ids.iter().copied().collect();
        let sorted: Vec<PageId> = tree.into_iter().collect();
        let bytes = encoded(&dense);
        assert_eq!(bytes, encoded(&sorted));
        let back = DenseSet::bin_decode(&mut BinReader::new(&bytes)).unwrap();
        assert_eq!(back.to_vec(), sorted);
        assert_eq!(encoded(&back), bytes, "re-encoding is canonical");
    }
}
