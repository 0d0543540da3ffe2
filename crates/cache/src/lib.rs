#![warn(missing_docs)]
//! # senn-cache
//!
//! Mobile-host NN result caches (Section 4.1).
//!
//! Each mobile host manages a local cache of nearest-neighbor query
//! results. The paper's policy:
//!
//! 1. "A MH only stores the query location (the coordinates where it
//!    launched the query) and all the certain nearest neighbors of the
//!    most recent query" — [`MostRecentCache`].
//! 2. "If a kNN query must be sent to the server, the MH will query for as
//!    many NN as its cache capacity allows" — the cache exposes its
//!    [`capacity`](QueryCache::capacity) so the query layer can over-fetch.
//!
//! [`LruCache`] is an extension (multiple past queries under a shared item
//! budget) used by the ablation benches.

use senn_geom::Point;

/// A cached nearest neighbor: POI identity plus its exact position.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CachedNn {
    /// Stable POI identifier (index into the server's POI table).
    pub poi_id: u64,
    /// POI position. The paper "uses the object identifier to represent
    /// its position coordinates"; we carry both explicitly.
    pub position: Point,
}

/// One cached query result: the location the query was launched from plus
/// its verified (certain) nearest neighbors in ascending distance order.
#[derive(Clone, Debug, PartialEq)]
pub struct CacheEntry {
    /// Where the owner launched the query.
    pub query_location: Point,
    /// Certain NNs sorted ascending by distance to `query_location`.
    pub neighbors: Vec<CachedNn>,
    /// Creation time in seconds (simulation clock); `0.0` when untracked.
    /// Lets consumers apply TTL invalidation against POI churn.
    pub timestamp: f64,
}

impl CacheEntry {
    /// Builds an entry, sorting the neighbors by distance to the query
    /// location (the invariant every consumer relies on). A neighbor with
    /// a NaN coordinate has a NaN distance and sorts last (`total_cmp`).
    pub fn new(query_location: Point, mut neighbors: Vec<CachedNn>) -> Self {
        neighbors.sort_by(|a, b| {
            query_location
                .dist_sq(a.position)
                .total_cmp(&query_location.dist_sq(b.position))
        });
        CacheEntry {
            query_location,
            neighbors,
            timestamp: 0.0,
        }
    }

    /// Builds an entry from `(poi_id, position)` pairs already sorted by
    /// ascending distance. Debug-asserts the ordering.
    pub fn from_sorted(query_location: Point, neighbors: Vec<(u64, Point)>) -> Self {
        let neighbors: Vec<CachedNn> = neighbors
            .into_iter()
            .map(|(poi_id, position)| CachedNn { poi_id, position })
            .collect();
        debug_assert!(neighbors.windows(2).all(|w| {
            query_location.dist_sq(w[0].position) <= query_location.dist_sq(w[1].position) + 1e-9
        }));
        CacheEntry {
            query_location,
            neighbors,
            timestamp: 0.0,
        }
    }

    /// Sets the creation timestamp (builder style).
    pub fn at_time(mut self, timestamp: f64) -> Self {
        self.timestamp = timestamp;
        self
    }

    /// True when the entry is older than `ttl_secs` at time `now`.
    pub fn is_expired(&self, now: f64, ttl_secs: f64) -> bool {
        now - self.timestamp > ttl_secs
    }

    /// Number of cached neighbors.
    pub fn len(&self) -> usize {
        self.neighbors.len()
    }

    /// True when no neighbors are cached.
    pub fn is_empty(&self) -> bool {
        self.neighbors.is_empty()
    }

    /// Distance from the query location to the farthest cached NN — the
    /// `Dist(P, n_k)` of Lemmas 3.1/3.2, i.e. the radius of this entry's
    /// *certain area*.
    pub fn farthest_distance(&self) -> f64 {
        self.neighbors
            .last()
            .map(|n| self.query_location.dist(n.position))
            .unwrap_or(0.0)
    }

    /// Truncates to at most `capacity` nearest entries.
    pub fn truncate(&mut self, capacity: usize) {
        self.neighbors.truncate(capacity);
    }
}

/// Common interface of the host-side caches.
pub trait QueryCache {
    /// Stores a fresh query result (evicting per the policy).
    fn store(&mut self, entry: CacheEntry);
    /// All live entries, most recent first.
    fn entries(&self) -> Vec<&CacheEntry>;
    /// The NN-object capacity (the paper's `C_size`); server queries fetch
    /// this many NNs.
    fn capacity(&self) -> usize;
    /// Drops everything.
    fn clear(&mut self);
}

/// The paper's policy: only the most recent query's certain NNs are kept,
/// truncated to the capacity.
///
/// ```
/// use senn_cache::{CacheEntry, CachedNn, MostRecentCache, QueryCache};
/// use senn_geom::Point;
///
/// let mut cache = MostRecentCache::new(10);
/// cache.store(CacheEntry::new(
///     Point::new(5.0, 5.0),
///     vec![CachedNn { poi_id: 3, position: Point::new(6.0, 5.0) }],
/// ));
/// assert_eq!(cache.entry().unwrap().farthest_distance(), 1.0);
/// ```
#[derive(Clone, Debug)]
pub struct MostRecentCache {
    capacity: usize,
    entry: Option<CacheEntry>,
}

impl MostRecentCache {
    /// Creates an empty cache with NN capacity `capacity` (`C_size`).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "cache capacity must be at least 1");
        MostRecentCache {
            capacity,
            entry: None,
        }
    }

    /// The single stored entry, if any.
    pub fn entry(&self) -> Option<&CacheEntry> {
        self.entry.as_ref()
    }
}

impl QueryCache for MostRecentCache {
    fn store(&mut self, mut entry: CacheEntry) {
        entry.truncate(self.capacity);
        if entry.is_empty() {
            return; // nothing certain to share; keep the previous result
        }
        self.entry = Some(entry);
    }

    fn entries(&self) -> Vec<&CacheEntry> {
        self.entry.iter().collect()
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn clear(&mut self) {
        self.entry = None;
    }
}

/// Extension: keeps several past query results under a shared NN-object
/// budget, evicting the least recently stored.
#[derive(Clone, Debug)]
pub struct LruCache {
    capacity: usize,
    entries: std::collections::VecDeque<CacheEntry>,
}

impl LruCache {
    /// Creates an empty cache with a total NN-object budget of `capacity`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "cache capacity must be at least 1");
        LruCache {
            capacity,
            entries: std::collections::VecDeque::new(),
        }
    }

    fn total_items(&self) -> usize {
        self.entries.iter().map(|e| e.len()).sum()
    }

    /// Iterates the live entries most recent first — the same order
    /// [`QueryCache::entries`] returns, without allocating the `Vec`.
    pub fn iter(&self) -> LruIter<'_> {
        LruIter(self.entries.iter())
    }
}

/// Non-allocating iterator over an [`LruCache`]'s entries, most recent
/// first (see [`LruCache::iter`]).
pub struct LruIter<'a>(std::collections::vec_deque::Iter<'a, CacheEntry>);

impl<'a> Iterator for LruIter<'a> {
    type Item = &'a CacheEntry;

    fn next(&mut self) -> Option<&'a CacheEntry> {
        self.0.next()
    }
}

impl QueryCache for LruCache {
    fn store(&mut self, mut entry: CacheEntry) {
        entry.truncate(self.capacity);
        if entry.is_empty() {
            return;
        }
        self.entries.push_front(entry);
        while self.total_items() > self.capacity {
            // Evict oldest entries until within budget; if the newest entry
            // alone exceeds the budget it was truncated above.
            if self.entries.len() == 1 {
                break;
            }
            self.entries.pop_back();
        }
    }

    fn entries(&self) -> Vec<&CacheEntry> {
        self.entries.iter().collect()
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamps_and_expiry() {
        let e = CacheEntry::new(Point::ORIGIN, vec![]).at_time(100.0);
        assert_eq!(e.timestamp, 100.0);
        assert!(!e.is_expired(150.0, 60.0));
        assert!(e.is_expired(200.0, 60.0));
        // Default entries carry timestamp 0 and expire per the same rule.
        let d = CacheEntry::new(Point::ORIGIN, vec![]);
        assert!(d.is_expired(100.0, 50.0));
    }

    fn nn(id: u64, x: f64, y: f64) -> CachedNn {
        CachedNn {
            poi_id: id,
            position: Point::new(x, y),
        }
    }

    #[test]
    fn entry_with_a_nan_coordinate_sorts_it_last() {
        // One NaN coordinate in a peer's cache used to abort the run at
        // cache-store time (`partial_cmp(..).unwrap()`).
        let e = CacheEntry::new(
            Point::ORIGIN,
            vec![nn(1, f64::NAN, 0.0), nn(2, 3.0, 0.0), nn(3, 1.0, 0.0)],
        );
        let ids: Vec<u64> = e.neighbors.iter().map(|n| n.poi_id).collect();
        assert_eq!(ids, vec![3, 2, 1]);
    }

    #[test]
    fn entry_sorts_neighbors() {
        let e = CacheEntry::new(
            Point::ORIGIN,
            vec![nn(1, 5.0, 0.0), nn(2, 1.0, 0.0), nn(3, 3.0, 0.0)],
        );
        let ids: Vec<u64> = e.neighbors.iter().map(|n| n.poi_id).collect();
        assert_eq!(ids, vec![2, 3, 1]);
        assert_eq!(e.farthest_distance(), 5.0);
        assert_eq!(e.len(), 3);
    }

    #[test]
    fn empty_entry_farthest_is_zero() {
        let e = CacheEntry::new(Point::ORIGIN, vec![]);
        assert!(e.is_empty());
        assert_eq!(e.farthest_distance(), 0.0);
    }

    #[test]
    fn most_recent_replaces_and_truncates() {
        let mut c = MostRecentCache::new(2);
        assert_eq!(c.capacity(), 2);
        c.store(CacheEntry::new(Point::ORIGIN, vec![nn(1, 1.0, 0.0)]));
        c.store(CacheEntry::new(
            Point::new(10.0, 0.0),
            vec![nn(2, 11.0, 0.0), nn(3, 12.0, 0.0), nn(4, 13.0, 0.0)],
        ));
        let e = c.entry().unwrap();
        assert_eq!(e.query_location, Point::new(10.0, 0.0));
        assert_eq!(e.len(), 2, "truncated to capacity");
        assert_eq!(e.neighbors[0].poi_id, 2);
    }

    #[test]
    fn most_recent_keeps_old_on_empty_store() {
        let mut c = MostRecentCache::new(3);
        c.store(CacheEntry::new(Point::ORIGIN, vec![nn(1, 1.0, 0.0)]));
        c.store(CacheEntry::new(Point::new(5.0, 5.0), vec![]));
        assert_eq!(c.entry().unwrap().neighbors[0].poi_id, 1);
        c.clear();
        assert!(c.entry().is_none());
        assert!(c.entries().is_empty());
    }

    #[test]
    fn lru_evicts_oldest_under_budget() {
        let mut c = LruCache::new(4);
        c.store(CacheEntry::new(
            Point::ORIGIN,
            vec![nn(1, 1.0, 0.0), nn(2, 2.0, 0.0)],
        ));
        c.store(CacheEntry::new(
            Point::new(9.0, 0.0),
            vec![nn(3, 8.0, 0.0), nn(4, 7.0, 0.0)],
        ));
        assert_eq!(c.entries().len(), 2);
        // Third entry of 2 pushes total to 6 > 4: the oldest goes.
        c.store(CacheEntry::new(
            Point::new(20.0, 0.0),
            vec![nn(5, 21.0, 0.0), nn(6, 22.0, 0.0)],
        ));
        let entries = c.entries();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].neighbors[0].poi_id, 5, "most recent first");
        assert_eq!(entries[1].neighbors[0].poi_id, 3);
    }

    #[test]
    fn lru_single_giant_entry_is_truncated_not_dropped() {
        let mut c = LruCache::new(2);
        c.store(CacheEntry::new(
            Point::ORIGIN,
            vec![nn(1, 1.0, 0.0), nn(2, 2.0, 0.0), nn(3, 3.0, 0.0)],
        ));
        assert_eq!(c.entries().len(), 1);
        assert_eq!(c.entries()[0].len(), 2);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = MostRecentCache::new(0);
    }

    #[test]
    fn lru_iter_matches_entries_order() {
        let mut c = LruCache::new(6);
        for i in 0..3u64 {
            c.store(CacheEntry::new(
                Point::new(i as f64, 0.0),
                vec![nn(i, i as f64 + 1.0, 0.0)],
            ));
        }
        let via_iter: Vec<&CacheEntry> = c.iter().collect();
        assert_eq!(via_iter, c.entries(), "iter() mirrors entries()");
        assert_eq!(via_iter[0].neighbors[0].poi_id, 2, "most recent first");
    }
}
