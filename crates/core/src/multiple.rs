//! `kNN_multiple`: multi-peer NN verification (Section 3.2.2, Lemma 3.8).
//!
//! When no single peer can verify a candidate, the certain areas of *all*
//! peers are merged into the certain region `R_c`; a candidate `n_i` is
//! certain iff the circle around the querier through `n_i` is fully
//! covered by `R_c`.
//!
//! The region can be represented two ways (see `senn-geom`): the exact
//! disk-union arrangement — the circles the lemma is stated on, and the
//! default — or the paper's polygonization (inscribed polygons, a
//! conservative subset, kept as the paper-fidelity arm of the ablation).
//! Every candidate circle is centred on the querier, so one number,
//! [`CertainRegion::covered_radius`], certifies all candidates up to it;
//! [`knn_multiple`] is the textbook form, one coverage test per candidate.

use std::borrow::Borrow;

use senn_cache::{CacheEntry, CachedNn};
use senn_geom::{Circle, DiskRegion, Point, PolygonRegion};

use crate::heap::ResultHeap;
use crate::verify::{classify_entry, Certainty};

/// How the certain region `R_c` is represented.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RegionMethod {
    /// Inscribed-polygon approximation with the given vertex count — the
    /// paper's polygonization + MapOverlay approach. It certifies a subset
    /// of what [`RegionMethod::Exact`] does, at three times the cost.
    Polygonized {
        /// Vertex count of each inscribed polygon (the paper's arm uses
        /// [`senn_geom::polygon::DEFAULT_POLYGONIZATION_VERTICES`]).
        vertices: usize,
    },
    /// Exact circle-arc arrangement: Lemma 3.8 on the peers' circles
    /// themselves. The default.
    #[default]
    Exact,
}

/// The merged certain region of a set of peers.
#[derive(Debug)]
pub enum CertainRegion {
    /// The paper's polygonized representation.
    Polygonized(PolygonRegion),
    /// The exact disk-union representation.
    Exact(DiskRegion),
}

impl CertainRegion {
    /// Builds `R_c` from every peer's certain-area disk (center: cached
    /// query location, radius: distance to the farthest cached NN).
    pub fn build<B: Borrow<CacheEntry>>(peers: &[B], method: RegionMethod) -> Self {
        let mut circles = Vec::new();
        collect_circles(peers.iter().map(|p| p.borrow()), &mut circles);
        CertainRegion::from_circles(&circles, method)
    }

    /// Builds `R_c` from pre-collected certain-area circles (the buffered
    /// entry point used by [`crate::pipeline::QueryContext`]).
    pub fn from_circles(circles: &[Circle], method: RegionMethod) -> Self {
        match method {
            RegionMethod::Polygonized { vertices } => {
                CertainRegion::Polygonized(PolygonRegion::from_circles(circles, vertices))
            }
            RegionMethod::Exact => CertainRegion::Exact(DiskRegion::from_circles(circles)),
        }
    }

    /// Lemma 3.8's test: is the circle centered at the query through the
    /// candidate fully covered by the region?
    pub fn covers_candidate(&mut self, query: Point, dist: f64) -> bool {
        let c = Circle::new(query, dist);
        match self {
            CertainRegion::Polygonized(r) => r.covers_circle(&c),
            CertainRegion::Exact(r) => r.covers_circle(&c),
        }
    }

    /// Lemma 3.8 for every candidate of `query` at once: `min(R, cap)` for
    /// `R` the distance from `query` to the region's exposed boundary
    /// (`-∞` when `query` is outside the region). A candidate at distance
    /// `d <= cap` is certain iff `d` is at most the result.
    pub fn covered_radius(&mut self, query: Point, cap: f64) -> f64 {
        match self {
            CertainRegion::Polygonized(r) => r.covered_radius(query, cap),
            CertainRegion::Exact(r) => r.covered_radius(query, cap),
        }
    }

    /// Number of disks/polygons in the region.
    pub fn len(&self) -> usize {
        match self {
            CertainRegion::Polygonized(r) => r.len(),
            CertainRegion::Exact(r) => r.len(),
        }
    }

    /// True when the region is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Collects every non-empty peer's certain-area circle (center: cached
/// query location, radius: distance to the farthest cached NN) into a
/// reusable buffer, preserving peer order.
pub fn collect_circles<'a>(peers: impl Iterator<Item = &'a CacheEntry>, circles: &mut Vec<Circle>) {
    circles.clear();
    circles.extend(
        peers
            .filter(|p| !p.is_empty())
            .map(|p| Circle::new(p.query_location, p.farthest_distance())),
    );
}

/// One row of the candidate table: a cached POI some peer reported, with
/// everything about it that does not depend on the query's `k`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Candidate {
    /// Euclidean distance from the query point.
    pub(crate) dist: f64,
    /// The POI (first occurrence — positions of the same POI agree across
    /// honest caches).
    pub(crate) poi: CachedNn,
    /// Position, in the order the peers were given, of the first peer
    /// whose own cache certifies the POI (Lemma 3.2);
    /// [`Candidate::UNCERTIFIED`] when none does.
    pub(crate) certified_by: u32,
}

impl Candidate {
    /// `certified_by` of a candidate no single peer certifies.
    pub(crate) const UNCERTIFIED: u32 = u32::MAX;
}

/// The scratch index of [`collect_candidates`], POI id → table row: an
/// open-addressing table (linear probing from a Fibonacci hash of the id)
/// whose slots count only when stamped with the current walk's
/// generation, so starting a walk is one increment, not a clear. Any
/// `u64` id works; the table holds at least twice the entries of the
/// largest walk so far and never shrinks.
#[derive(Debug, Default)]
pub(crate) struct PoiIndex {
    /// A power-of-two number of slots (none before the first insert).
    slots: Vec<PoiSlot>,
    /// The walk in progress; a slot stamped otherwise is empty.
    generation: u32,
    /// Ids entered under `generation`.
    len: usize,
}

/// One slot of [`PoiIndex`].
#[derive(Clone, Copy, Debug, Default)]
struct PoiSlot {
    id: u64,
    row: u32,
    generation: u32,
}

impl PoiIndex {
    /// The table's smallest size.
    const MIN_SLOTS: usize = 16;

    /// Empties the index for a new walk.
    fn start(&mut self) {
        self.len = 0;
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.slots.fill(PoiSlot::default());
            self.generation = 1;
        }
    }

    /// The slot `id` probes first: the top bits of its Fibonacci hash.
    fn home(&self, id: u64) -> usize {
        let bits = self.slots.len().trailing_zeros();
        (id.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - bits)) as usize
    }

    /// The row of `id` in the walk in progress, entering it as `next`
    /// when it is new.
    fn row_or_insert(&mut self, id: u64, next: u32) -> u32 {
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(id);
        loop {
            let slot = &mut self.slots[i];
            if slot.generation != self.generation {
                *slot = PoiSlot {
                    id,
                    row: next,
                    generation: self.generation,
                };
                self.len += 1;
                return next;
            }
            if slot.id == id {
                return slot.row;
            }
            i = (i + 1) & mask;
        }
    }

    /// Doubles the table, re-entering the walk's ids.
    fn grow(&mut self) {
        let size = (2 * self.slots.len()).max(Self::MIN_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![PoiSlot::default(); size]);
        let mask = size - 1;
        for slot in old.into_iter().filter(|s| s.generation == self.generation) {
            let mut i = self.home(slot.id);
            while self.slots[i].generation == self.generation {
                i = (i + 1) & mask;
            }
            self.slots[i] = slot;
        }
    }
}

/// Collects every cached POI of every peer into the reusable candidate
/// table, one row per POI id, classified against each peer that reports
/// it (Lemma 3.2), then sorts ascending by distance to the querier (ties
/// keep first-seen order; NaN distances sort last). `index` is scratch.
pub(crate) fn collect_candidates<'a>(
    query: Point,
    peers: impl Iterator<Item = &'a CacheEntry>,
    candidates: &mut Vec<Candidate>,
    index: &mut PoiIndex,
) {
    candidates.clear();
    index.start();
    for (pos, peer) in peers.enumerate() {
        for (i, dist, certainty) in classify_entry(query, peer) {
            let poi = peer.neighbors[i];
            let next = candidates.len() as u32;
            let row = index.row_or_insert(poi.poi_id, next);
            if row == next {
                candidates.push(Candidate {
                    dist,
                    poi,
                    certified_by: Candidate::UNCERTIFIED,
                });
            }
            if certainty == Certainty::Certain {
                let by = &mut candidates[row as usize].certified_by;
                *by = (*by).min(pos as u32);
            }
        }
    }
    candidates.sort_by(|a, b| a.dist.total_cmp(&b.dist));
}

/// The Lemma 3.8 verification walk: candidates (pre-sorted ascending by
/// distance) are certified against `R_c` until the first failure —
/// coverage is monotone in the radius, so once one candidate fails, all
/// farther candidates fail too. Returns the number of new certain entries.
fn verify_candidates(
    query: Point,
    region: &mut CertainRegion,
    candidates: &[Candidate],
    heap: &mut ResultHeap,
) -> usize {
    let mut new_certain = 0;
    let mut verifying = true;
    for &Candidate { dist, poi, .. } in candidates {
        if verifying && region.covers_candidate(query, dist) {
            let before = heap.certain_count();
            heap.insert_certain(poi, dist);
            if heap.certain_count() > before {
                new_certain += 1;
            }
            if heap.is_certain_complete() {
                break;
            }
        } else {
            verifying = false;
            heap.insert_uncertain(poi, dist);
        }
    }
    new_certain
}

/// Runs the multi-peer verification: collects every cached POI of every
/// peer as a candidate, sorts ascending by distance to the querier, and
/// verifies each against `R_c` until the first failure (coverage is
/// monotone in the radius). Returns the number of new certain entries.
///
/// The textbook procedure, with fresh buffers, that the verification walk
/// (`crate::pipeline`) is tested against.
pub fn knn_multiple<B: Borrow<CacheEntry>>(
    query: Point,
    peers: &[B],
    method: RegionMethod,
    heap: &mut ResultHeap,
) -> usize {
    if peers.is_empty() {
        return 0;
    }
    let mut region = CertainRegion::build(peers, method);
    if region.is_empty() {
        return 0;
    }
    let mut candidates = Vec::new();
    collect_candidates(
        query,
        peers.iter().map(|p| p.borrow()),
        &mut candidates,
        &mut PoiIndex::default(),
    );
    verify_candidates(query, &mut region, &candidates, heap)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(loc: Point, pois: &[(u64, f64, f64)]) -> CacheEntry {
        CacheEntry::new(
            loc,
            pois.iter()
                .map(|&(id, x, y)| CachedNn {
                    poi_id: id,
                    position: Point::new(x, y),
                })
                .collect(),
        )
    }

    /// The Figure 7 scenario: a candidate verifiable only by merging the
    /// certain areas of two peers.
    fn figure_7_world() -> (Point, Vec<CacheEntry>, u64) {
        let q = Point::new(0.0, 0.0);
        // Peer P3 to the left, P4 to the right; the candidate n sits above
        // the querier where the two disks overlap.
        let candidate = (100u64, 0.0, 0.8);
        let p3 = entry(
            Point::new(-0.7, 0.0),
            &[candidate, (101, -1.0, -0.9), (102, -2.05, 0.0)], // radius ≈ 1.35
        );
        let p4 = entry(
            Point::new(0.7, 0.0),
            &[candidate, (103, 1.0, -0.9), (104, 2.05, 0.0)], // radius ≈ 1.35
        );
        (q, vec![p3, p4], candidate.0)
    }

    #[test]
    fn single_peer_cannot_verify_figure_7() {
        let (q, peers, cand) = figure_7_world();
        for peer in &peers {
            let mut heap = ResultHeap::new(1);
            crate::single::knn_single(q, peer, &mut heap);
            assert!(
                heap.certain().iter().all(|e| e.poi.poi_id != cand),
                "single-peer verification should fail for the Fig. 7 candidate"
            );
        }
    }

    #[test]
    fn merged_region_verifies_figure_7() {
        let (q, peers, cand) = figure_7_world();
        for method in [
            RegionMethod::Exact,
            RegionMethod::Polygonized { vertices: 48 },
        ] {
            let mut heap = ResultHeap::new(1);
            let added = knn_multiple(q, &peers, method, &mut heap);
            assert!(added >= 1, "{method:?} failed to verify");
            assert_eq!(heap.certain()[0].poi.poi_id, cand);
        }
    }

    #[test]
    fn polygonized_is_no_more_permissive_than_exact() {
        // On a randomized family of worlds, whatever the polygonized region
        // certifies, the exact region certifies too.
        let mut s = 0x5eedu64 | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..40 {
            let q = Point::new(next() * 10.0, next() * 10.0);
            let peers: Vec<CacheEntry> = (0..3)
                .map(|pi| {
                    let loc = Point::new(next() * 10.0, next() * 10.0);
                    let pois: Vec<(u64, f64, f64)> = (0..3)
                        .map(|j| {
                            (
                                (pi * 10 + j) as u64,
                                loc.x + next() * 6.0 - 3.0,
                                loc.y + next() * 6.0 - 3.0,
                            )
                        })
                        .collect();
                    entry(loc, &pois)
                })
                .collect();
            let mut heap_poly = ResultHeap::new(5);
            let mut heap_exact = ResultHeap::new(5);
            knn_multiple(
                q,
                &peers,
                RegionMethod::Polygonized { vertices: 24 },
                &mut heap_poly,
            );
            knn_multiple(q, &peers, RegionMethod::Exact, &mut heap_exact);
            for e in heap_poly.certain() {
                assert!(
                    heap_exact
                        .certain()
                        .iter()
                        .any(|x| x.poi.poi_id == e.poi.poi_id),
                    "polygonized certified {} which exact did not",
                    e.poi.poi_id
                );
            }
        }
    }

    #[test]
    fn candidates_with_a_nan_coordinate_sort_last() {
        // A cached POI with a NaN coordinate has a NaN distance; the sort
        // used to abort on it (`partial_cmp(..).unwrap()`).
        let peer = entry(
            Point::ORIGIN,
            &[(1, f64::NAN, 0.0), (2, 3.0, 0.0), (3, 1.0, 0.0)],
        );
        let mut candidates = Vec::new();
        collect_candidates(
            Point::ORIGIN,
            std::iter::once(&peer),
            &mut candidates,
            &mut PoiIndex::default(),
        );
        let ids: Vec<u64> = candidates.iter().map(|c| c.poi.poi_id).collect();
        assert_eq!(ids, vec![3, 2, 1]);
    }

    /// The candidate table as [`collect_candidates`] built it over a
    /// `HashMap` index: rows in first-seen order, certified by the first
    /// certifying peer, stably sorted by distance.
    fn reference_candidates(query: Point, peers: &[CacheEntry]) -> Vec<Candidate> {
        let mut rows = std::collections::HashMap::new();
        let mut candidates: Vec<Candidate> = Vec::new();
        for (pos, peer) in peers.iter().enumerate() {
            for (i, dist, certainty) in classify_entry(query, peer) {
                let poi = peer.neighbors[i];
                let row = *rows.entry(poi.poi_id).or_insert_with(|| {
                    candidates.push(Candidate {
                        dist,
                        poi,
                        certified_by: Candidate::UNCERTIFIED,
                    });
                    candidates.len() - 1
                });
                if certainty == Certainty::Certain {
                    let by = &mut candidates[row].certified_by;
                    *by = (*by).min(pos as u32);
                }
            }
        }
        candidates.sort_by(|a, b| a.dist.total_cmp(&b.dist));
        candidates
    }

    /// A candidate table as comparable bits (NaN distances included).
    fn table_bits(candidates: &[Candidate]) -> Vec<(u64, u64, u64, u64, u32)> {
        candidates
            .iter()
            .map(|c| {
                let p = c.poi.position;
                (
                    c.dist.to_bits(),
                    c.poi.poi_id,
                    p.x.to_bits(),
                    p.y.to_bits(),
                    c.certified_by,
                )
            })
            .collect()
    }

    /// The stamped index builds the table a `HashMap` does, walk after
    /// walk on one index: churned caches repeat ids at other positions
    /// (the first occurrence's position wins), ids sit near `u64::MAX`
    /// and collide in their home slots, NaN distances sort last, walks
    /// grow and shrink, and the generation wraps around.
    #[test]
    fn stamped_index_builds_the_hashmap_table() {
        let mut s = 0x9e37u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut index = PoiIndex {
            generation: u32::MAX - 3,
            ..PoiIndex::default()
        };
        let mut candidates = Vec::new();
        for walk in 0..40 {
            let q = Point::new((next() % 100) as f64, (next() % 100) as f64);
            let peer_count = 1 + next() as usize % if walk % 7 == 3 { 40 } else { 5 };
            let peers: Vec<CacheEntry> = (0..peer_count)
                .map(|_| {
                    let loc = Point::new((next() % 100) as f64, (next() % 100) as f64);
                    let pois: Vec<(u64, f64, f64)> = (0..1 + next() % 6)
                        .map(|j| {
                            let id = match next() % 4 {
                                0 => u64::MAX - next() % 8,
                                1 => (next() % 16) << 60,
                                _ => next() % 24,
                            };
                            let x = if j == 5 {
                                f64::NAN
                            } else {
                                (next() % 100) as f64
                            };
                            (id, x, (next() % 100) as f64)
                        })
                        .collect();
                    entry(loc, &pois)
                })
                .collect();
            collect_candidates(q, peers.iter(), &mut candidates, &mut index);
            assert_eq!(
                table_bits(&candidates),
                table_bits(&reference_candidates(q, &peers)),
                "walk {walk}"
            );
            assert!(2 * index.len <= index.slots.len(), "walk {walk}");
        }
        assert!(index.generation < 40, "the generation wrapped");
    }

    #[test]
    fn empty_inputs() {
        for method in [
            RegionMethod::Exact,
            RegionMethod::Polygonized { vertices: 24 },
        ] {
            let mut heap = ResultHeap::new(2);
            assert_eq!(
                knn_multiple::<CacheEntry>(Point::ORIGIN, &[], method, &mut heap),
                0
            );
            let empty_peer = entry(Point::ORIGIN, &[]);
            assert_eq!(
                knn_multiple(Point::ORIGIN, &[empty_peer], method, &mut heap),
                0
            );
            assert!(heap.is_empty());
        }
    }

    #[test]
    fn subsumes_single_peer_verification() {
        // With one peer, multi-peer verification must verify exactly what
        // Lemma 3.2 verifies (the region is that peer's single disk).
        let q = Point::new(0.5, 0.0);
        let peer = entry(
            Point::ORIGIN,
            &[(1, 0.6, 0.0), (2, 0.0, 1.5), (3, 2.0, 0.0)],
        );
        let mut heap_single = ResultHeap::new(3);
        crate::single::knn_single(q, &peer, &mut heap_single);
        let mut heap_multi = ResultHeap::new(3);
        knn_multiple(
            q,
            std::slice::from_ref(&peer),
            RegionMethod::Exact,
            &mut heap_multi,
        );
        let ids =
            |h: &ResultHeap| -> Vec<u64> { h.certain().iter().map(|e| e.poi.poi_id).collect() };
        assert_eq!(ids(&heap_single), ids(&heap_multi));
    }
}
