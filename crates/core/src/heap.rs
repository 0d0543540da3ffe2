//! The result heap `H` (Table 1 and Section 3.3).
//!
//! `H` holds up to `k` entries, each a POI with its distance to the querier
//! and a certainty flag. Certain entries precede uncertain ones; both
//! groups are kept in ascending distance order. "If there exist uncertain
//! nearest neighbor objects in `H`, a newly discovered certain NN object
//! will replace an uncertain object."
//!
//! After verification the heap is in one of six states (§3.3) which
//! determine the pruning bounds forwarded to the server.

use senn_cache::CachedNn;

/// One entry of the result heap.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HeapEntry {
    /// The POI (identity + position).
    pub poi: CachedNn,
    /// Euclidean distance from the query location.
    pub dist: f64,
    /// True when verified as a guaranteed top-k NN.
    pub certain: bool,
}

/// The six states of `H` after verification (Section 3.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HeapState {
    /// State 1: full, certain and uncertain entries.
    FullMixed,
    /// State 2: full, only uncertain entries.
    FullUncertain,
    /// State 3: not full, certain and uncertain entries.
    PartialMixed,
    /// State 4: not full, only certain entries.
    PartialCertain,
    /// State 5: not full, only uncertain entries.
    PartialUncertain,
    /// State 6: empty.
    Empty,
}

/// The result heap `H` with capacity `k` (the paper's `Q_k`).
#[derive(Clone, Debug)]
pub struct ResultHeap {
    k: usize,
    /// Invariant: certain entries first (ascending distance), then
    /// uncertain entries (ascending distance); at most one entry per POI
    /// id; `entries.len() <= k`.
    entries: Vec<HeapEntry>,
}

impl ResultHeap {
    /// Creates an empty heap for a kNN query with the given `k`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "k must be at least 1");
        ResultHeap {
            k,
            entries: Vec::with_capacity(k),
        }
    }

    /// Clears the heap and re-arms it for a new query with the given `k`,
    /// keeping the entry allocation — the reuse hook behind
    /// [`crate::pipeline::QueryContext`].
    pub fn reset(&mut self, k: usize) {
        assert!(k >= 1, "k must be at least 1");
        self.k = k;
        self.entries.clear();
        self.entries.reserve(k);
    }

    /// The query's `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// All entries: certains first, then uncertains, each group ascending.
    pub fn entries(&self) -> &[HeapEntry] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are present.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when `k` entries are present.
    pub fn is_full(&self) -> bool {
        self.entries.len() == self.k
    }

    /// Number of certain entries.
    pub fn certain_count(&self) -> usize {
        self.entries.iter().take_while(|e| e.certain).count()
    }

    /// True when the query is answered: `k` certain entries.
    pub fn is_certain_complete(&self) -> bool {
        self.is_full() && self.certain_count() == self.k
    }

    /// The certain entries, ascending by distance.
    pub fn certain(&self) -> &[HeapEntry] {
        &self.entries[..self.certain_count()]
    }

    /// The uncertain entries, ascending by distance.
    pub fn uncertain(&self) -> &[HeapEntry] {
        &self.entries[self.certain_count()..]
    }

    /// True when the POI id is already present (certain or uncertain).
    pub fn contains(&self, poi_id: u64) -> bool {
        self.entries.iter().any(|e| e.poi.poi_id == poi_id)
    }

    /// The current state per Section 3.3.
    pub fn state(&self) -> HeapState {
        let certains = self.certain_count();
        let uncertains = self.len() - certains;
        match (self.is_full(), certains > 0, uncertains > 0) {
            (_, false, false) => HeapState::Empty,
            (true, true, true) => HeapState::FullMixed,
            (true, false, true) => HeapState::FullUncertain,
            (true, true, false) => HeapState::FullMixed, // fully certain: query answered
            (false, true, true) => HeapState::PartialMixed,
            (false, true, false) => HeapState::PartialCertain,
            (false, false, true) => HeapState::PartialUncertain,
        }
    }

    /// Appends an entry that sorts last: the verification walk reads its
    /// candidate table certains first, each group ascending by distance and
    /// one row per POI, so its view of `H` needs no search.
    pub(crate) fn push(&mut self, poi: CachedNn, dist: f64, certain: bool) {
        debug_assert!(self.entries.len() < self.k, "push past k");
        debug_assert!(
            self.entries.last().is_none_or(|l| {
                l.certain >= certain && (l.certain != certain || l.dist.total_cmp(&dist).is_le())
            }),
            "push out of order"
        );
        self.entries.push(HeapEntry { poi, dist, certain });
    }

    /// Inserts a certain NN. Duplicates upgrade an existing uncertain entry
    /// in place; when full, the worst uncertain entry is evicted first and
    /// only then (heap fully certain) the farthest certain entry.
    pub fn insert_certain(&mut self, poi: CachedNn, dist: f64) {
        if let Some(pos) = self.entries.iter().position(|e| e.poi.poi_id == poi.poi_id) {
            if self.entries[pos].certain {
                return; // already certain
            }
            self.entries.remove(pos); // upgrade: reinsert as certain below
        }
        let entry = HeapEntry {
            poi,
            dist,
            certain: true,
        };
        let certains = self.certain_count();
        let at = self.entries[..certains].partition_point(|e| e.dist <= dist);
        self.entries.insert(at, entry);
        if self.entries.len() > self.k {
            // Evict: last uncertain if any, else the farthest certain.
            self.entries.pop();
        }
    }

    /// Inserts an uncertain candidate. Ignored when the POI is already
    /// present or when the heap is full and the candidate is no better
    /// than the current worst uncertain entry; certain entries are never
    /// displaced by uncertain ones.
    pub fn insert_uncertain(&mut self, poi: CachedNn, dist: f64) {
        if self.contains(poi.poi_id) {
            return;
        }
        let certains = self.certain_count();
        if self.is_full() {
            if certains == self.k {
                return; // fully certain: uncertain candidates are useless
            }
            // A full heap holds k ≥ 1 entries, so it has a last one.
            let Some(worst) = self.entries.last() else {
                return;
            };
            if dist >= worst.dist {
                return;
            }
            self.entries.pop();
        }
        let at = certains + self.entries[certains..].partition_point(|e| e.dist <= dist);
        self.entries.insert(
            at,
            HeapEntry {
                poi,
                dist,
                certain: false,
            },
        );
    }

    /// The distance of the last (worst) entry, if any — the branch
    /// expanding *upper bound* when the heap is full.
    pub fn worst_distance(&self) -> Option<f64> {
        // Certains are a verified prefix of the true NN ranking, so the
        // maximum lives in the last entry of either group.
        self.entries
            .iter()
            .map(|e| e.dist)
            .max_by(|a, b| a.total_cmp(b))
    }

    /// The distance `D_ct` of the last certain entry, if any — the branch
    /// expanding *lower bound*.
    pub fn last_certain_distance(&self) -> Option<f64> {
        let c = self.certain_count();
        (c > 0).then(|| self.entries[c - 1].dist)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use senn_geom::Point;

    fn nn(id: u64) -> CachedNn {
        CachedNn {
            poi_id: id,
            position: Point::new(id as f64, 0.0),
        }
    }

    #[test]
    fn empty_heap_state_six() {
        let h = ResultHeap::new(3);
        assert_eq!(h.state(), HeapState::Empty);
        assert!(h.is_empty());
        assert!(!h.is_full());
        assert_eq!(h.worst_distance(), None);
        assert_eq!(h.last_certain_distance(), None);
    }

    #[test]
    fn table_1_layout() {
        // Reproduce Table 1: two certains then two uncertains, ascending
        // within each group.
        let mut h = ResultHeap::new(4);
        h.insert_uncertain(nn(31), 5f64.sqrt());
        h.insert_uncertain(nn(32), 8f64.sqrt());
        h.insert_certain(nn(21), 2f64.sqrt());
        h.insert_certain(nn(11), 3f64.sqrt());
        let e = h.entries();
        assert_eq!(e.len(), 4);
        assert!(e[0].certain && e[1].certain && !e[2].certain && !e[3].certain);
        assert!((e[0].dist - 2f64.sqrt()).abs() < 1e-12);
        assert!((e[3].dist - 8f64.sqrt()).abs() < 1e-12);
        assert_eq!(h.state(), HeapState::FullMixed);
    }

    #[test]
    fn certain_replaces_uncertain_when_full() {
        let mut h = ResultHeap::new(2);
        h.insert_uncertain(nn(1), 1.0);
        h.insert_uncertain(nn(2), 2.0);
        assert_eq!(h.state(), HeapState::FullUncertain);
        h.insert_certain(nn(3), 5.0); // farther, but certain: evicts nn(2)
        assert_eq!(h.certain_count(), 1);
        assert_eq!(h.len(), 2);
        assert!(h.contains(3));
        assert!(h.contains(1));
        assert!(!h.contains(2));
    }

    #[test]
    fn uncertain_never_displaces_certain() {
        let mut h = ResultHeap::new(2);
        h.insert_certain(nn(1), 3.0);
        h.insert_certain(nn(2), 4.0);
        h.insert_uncertain(nn(3), 0.5);
        assert_eq!(h.len(), 2);
        assert!(!h.contains(3));
        assert!(h.is_certain_complete());
    }

    #[test]
    fn uncertain_improves_worst_uncertain() {
        let mut h = ResultHeap::new(2);
        h.insert_uncertain(nn(1), 5.0);
        h.insert_uncertain(nn(2), 9.0);
        h.insert_uncertain(nn(3), 7.0); // evicts nn(2)
        assert!(h.contains(3) && !h.contains(2));
        h.insert_uncertain(nn(4), 8.0); // worse than both: ignored
        assert!(!h.contains(4));
    }

    #[test]
    fn duplicate_upgrade() {
        let mut h = ResultHeap::new(3);
        h.insert_uncertain(nn(7), 2.0);
        assert_eq!(h.certain_count(), 0);
        h.insert_certain(nn(7), 2.0);
        assert_eq!(h.certain_count(), 1);
        assert_eq!(h.len(), 1);
        // Re-inserting as certain again is a no-op.
        h.insert_certain(nn(7), 2.0);
        assert_eq!(h.len(), 1);
        // Re-inserting as uncertain after upgrade is ignored.
        h.insert_uncertain(nn(7), 2.0);
        assert_eq!(h.certain_count(), 1);
    }

    #[test]
    fn all_six_states_reachable() {
        let mut h = ResultHeap::new(2);
        assert_eq!(h.state(), HeapState::Empty); // 6
        h.insert_uncertain(nn(1), 1.0);
        assert_eq!(h.state(), HeapState::PartialUncertain); // 5
        h.insert_certain(nn(2), 0.5);
        assert_eq!(h.state(), HeapState::FullMixed); // k=2 full, mixed → 1
        let mut h = ResultHeap::new(3);
        h.insert_certain(nn(1), 1.0);
        assert_eq!(h.state(), HeapState::PartialCertain); // 4
        h.insert_uncertain(nn(2), 2.0);
        assert_eq!(h.state(), HeapState::PartialMixed); // 3
        let mut h = ResultHeap::new(1);
        h.insert_uncertain(nn(5), 4.0);
        assert_eq!(h.state(), HeapState::FullUncertain); // 2
    }

    #[test]
    fn bounds_from_heap() {
        let mut h = ResultHeap::new(3);
        h.insert_certain(nn(1), 1.0);
        h.insert_certain(nn(2), 2.0);
        h.insert_uncertain(nn(3), 4.0);
        assert_eq!(h.worst_distance(), Some(4.0));
        assert_eq!(h.last_certain_distance(), Some(2.0));
    }

    #[test]
    fn worst_distance_survives_a_nan_entry() {
        // A NaN distance (a peer cache with a NaN POI coordinate) used to
        // panic the `partial_cmp(..).unwrap()` pick; `total_cmp` ranks it
        // above every finite distance instead.
        let mut h = ResultHeap::new(3);
        h.insert_uncertain(nn(1), 1.0);
        h.insert_uncertain(nn(2), f64::NAN);
        h.insert_certain(nn(3), 0.5);
        assert!(h.worst_distance().is_some_and(f64::is_nan));
        assert_eq!(h.last_certain_distance(), Some(0.5));
    }

    #[test]
    fn eviction_order_prefers_uncertain() {
        let mut h = ResultHeap::new(3);
        h.insert_certain(nn(1), 1.0);
        h.insert_uncertain(nn(2), 10.0);
        h.insert_certain(nn(3), 5.0);
        h.insert_certain(nn(4), 3.0); // full of certains now; nn(2) evicted
        assert_eq!(h.certain_count(), 3);
        assert!(!h.contains(2));
        // Another certain beyond all: evicts the farthest certain (5.0).
        h.insert_certain(nn(5), 2.0);
        assert!(h.contains(5) && !h.contains(3));
        assert!(h.is_certain_complete());
    }

    #[test]
    #[should_panic(expected = "k must be")]
    fn zero_k_rejected() {
        let _ = ResultHeap::new(0);
    }
}
