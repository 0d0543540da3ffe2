//! The sharded backend: the POI set strip-partitioned across N
//! [`RStarTree`] shards, every request answered by its home strip first
//! and by the other strips under **global bound tightening**.
//!
//! ## Partitioning
//!
//! POIs are sorted by `(x, id)` and split into N contiguous, equal-count
//! strips. The strip boundaries are fixed at build time; relocations route
//! the POI to the strip that owns its new x — so the shards always
//! partition the POI set (disjoint, complete), which is what makes the
//! merge a plain sort with no deduplication.
//!
//! ## Request-major search with bound tightening
//!
//! For each request the **home shard** (the strip owning the query's x)
//! answers first under the request's own bounds. Its k-th candidate
//! distance is a valid *global* upper bound: the home candidates are a
//! subset of the global POI set, so the true global k-th admitted distance
//! can only be smaller. Every **foreign shard** then searches under
//! `upper = min(request upper, home k-th)` — and is skipped outright when
//! its MBR lies entirely beyond that bound. Because the upper bound is
//! inclusive up to `EPS` (`dist <= ub + EPS`, matching the tree's
//! branch-expanding semantics), tightening never excludes a POI that the
//! single-tree search would have returned; the merged, distance-sorted,
//! truncated candidate list is therefore identical to the single-tree
//! answer (golden-tested against [`senn_core::RTreeServer`]).
//!
//! A request's searches run one after another on the caller's thread.
//!
//! ## Observability
//!
//! Every shard keeps atomic counters (requests searched, node accesses,
//! MBR-skips), which [`ShardedService::metrics`] snapshots without any
//! lock on the hot path.

use std::sync::atomic::{AtomicU64, Ordering};

use senn_cache::CachedNn;
use senn_core::service::{ServerReply, ServerRequest, SpatialService};
use senn_core::ServerResponse;
use senn_geom::{Point, EPS};
use senn_rtree::{RStarTree, SearchBounds};

/// Atomic per-shard counters.
#[derive(Debug, Default)]
struct ShardCounters {
    /// Requests the shard actually searched (home + non-skipped foreign).
    requests: AtomicU64,
    /// R\*-tree node accesses across all searches.
    node_accesses: AtomicU64,
    /// Foreign-pass requests skipped by the MBR bound check.
    skipped: AtomicU64,
}

/// Point-in-time metrics of one shard (see [`ShardedService::metrics`]).
#[derive(Clone, Debug, PartialEq)]
pub struct ShardMetrics {
    /// Shard index (strip order, ascending x).
    pub shard: usize,
    /// POIs currently indexed by the shard.
    pub pois: usize,
    /// Requests the shard searched (home + non-skipped foreign passes).
    pub requests: u64,
    /// R\*-tree node accesses across those searches.
    pub node_accesses: u64,
    /// Foreign-pass requests the MBR bound check skipped.
    pub skipped: u64,
}

/// Point-in-time metrics of the whole service.
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceMetrics {
    /// Requests served.
    pub requests: u64,
    /// Per-shard breakdown, in strip order.
    pub shards: Vec<ShardMetrics>,
}

impl ServiceMetrics {
    /// Total node accesses across every shard.
    pub fn node_accesses(&self) -> u64 {
        self.shards.iter().map(|s| s.node_accesses).sum()
    }
}

struct Shard {
    tree: RStarTree<u64>,
    counters: ShardCounters,
}

/// The sharded [`SpatialService`] backend.
pub struct ShardedService {
    shards: Vec<Shard>,
    /// `boundaries[i]` is the smallest x owned by strip `i + 1`.
    boundaries: Vec<f64>,
    /// POI id → shard currently holding it (relocation routing).
    homes: std::collections::HashMap<u64, usize>,
    requests: AtomicU64,
}

impl ShardedService {
    /// Builds the service from `(id, position)` POIs, strip-partitioned
    /// into `shard_count` shards (clamped to at least 1; shards may end up
    /// empty when there are fewer POIs than shards).
    pub fn new(pois: impl IntoIterator<Item = (u64, Point)>, shard_count: usize) -> Self {
        let mut items: Vec<(u64, Point)> = pois.into_iter().collect();
        items.sort_by(|a, b| a.1.x.total_cmp(&b.1.x).then_with(|| a.0.cmp(&b.0)));
        let n = shard_count.max(1);
        let per = items.len().div_ceil(n).max(1);
        let mut homes = std::collections::HashMap::with_capacity(items.len());
        let mut boundaries = Vec::with_capacity(n.saturating_sub(1));
        let mut shards = Vec::with_capacity(n);
        for (s, chunk) in items.chunks(per).enumerate() {
            if s > 0 {
                boundaries.push(chunk[0].1.x);
            }
            homes.extend(chunk.iter().map(|&(id, _)| (id, shards.len())));
            shards.push(Shard {
                tree: RStarTree::bulk_load(chunk.iter().map(|&(id, p)| (p, id)).collect()),
                counters: ShardCounters::default(),
            });
        }
        while shards.len() < n {
            shards.push(Shard {
                tree: RStarTree::bulk_load(Vec::new()),
                counters: ShardCounters::default(),
            });
        }
        ShardedService {
            shards,
            boundaries,
            homes,
            requests: AtomicU64::new(0),
        }
    }

    /// The strip owning coordinate `x`.
    fn strip_for(&self, x: f64) -> usize {
        self.boundaries.partition_point(|&b| b <= x)
    }

    /// Moves POI `id` from `old_pos` to `new_pos`, re-routing it to the
    /// strip owning the new x. Returns false — with every shard untouched —
    /// when the POI is not indexed at `old_pos`.
    pub fn relocate(&mut self, id: u64, old_pos: Point, new_pos: Point) -> bool {
        let Some(&current) = self.homes.get(&id) else {
            return false;
        };
        if self.shards[current]
            .tree
            .remove(old_pos, |v| *v == id)
            .is_none()
        {
            return false;
        }
        let target = self.strip_for(new_pos.x);
        self.shards[target].tree.insert(new_pos, id);
        self.homes.insert(id, target);
        true
    }

    /// Snapshot of the per-shard and service-level counters.
    pub fn metrics(&self) -> ServiceMetrics {
        ServiceMetrics {
            requests: self.requests.load(Ordering::Relaxed),
            shards: self
                .shards
                .iter()
                .enumerate()
                .map(|(i, s)| ShardMetrics {
                    shard: i,
                    pois: s.tree.len(),
                    requests: s.counters.requests.load(Ordering::Relaxed),
                    node_accesses: s.counters.node_accesses.load(Ordering::Relaxed),
                    skipped: s.counters.skipped.load(Ordering::Relaxed),
                })
                .collect(),
        }
    }

    /// One bounded search of shard `s` for `r`: appends the hits to `pois`
    /// and returns the node accesses.
    fn search(
        &self,
        s: usize,
        r: &ServerRequest,
        bounds: SearchBounds,
        pois: &mut Vec<(CachedNn, f64)>,
    ) -> u64 {
        let shard = &self.shards[s];
        let mut it = shard.tree.nn_iter_bounded(r.query, bounds);
        pois.extend(it.by_ref().take(r.count).map(|n| {
            (
                CachedNn {
                    poi_id: *n.value,
                    position: n.point,
                },
                n.dist,
            )
        }));
        let accesses = it.page_accesses();
        shard.counters.requests.fetch_add(1, Ordering::Relaxed);
        shard
            .counters
            .node_accesses
            .fetch_add(accesses, Ordering::Relaxed);
        accesses
    }
}

impl SpatialService for ShardedService {
    /// Answers one request: home strip, tightened bound, foreign strips,
    /// merge.
    fn serve(&self, r: &ServerRequest) -> Option<ServerReply> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let home = self.strip_for(r.query.x);
        let mut pois = Vec::new();
        let mut accesses = self.search(home, r, r.bounds, &mut pois);

        // Global bound tightening: the home k-th distance caps the search
        // of every foreign shard.
        let mut bounds = r.bounds;
        if let Some(&(_, kth)) = pois.last().filter(|_| pois.len() == r.count) {
            bounds.upper = Some(bounds.upper.map_or(kth, |u| u.min(kth)));
        }
        for (s, shard) in self.shards.iter().enumerate() {
            if s == home || shard.tree.is_empty() {
                continue;
            }
            // MBR-skipped when provably out of range.
            let prunable = bounds
                .upper
                .is_some_and(|ub| shard.tree.bounding_rect().min_dist(r.query) > ub + EPS);
            if prunable {
                shard.counters.skipped.fetch_add(1, Ordering::Relaxed);
            } else {
                accesses += self.search(s, r, bounds, &mut pois);
            }
        }

        // Merge: shards are disjoint, so a sort + truncate suffices. Ties
        // break by POI id to stay deterministic across shard counts.
        pois.sort_by(|a, b| {
            a.1.total_cmp(&b.1)
                .then_with(|| a.0.poi_id.cmp(&b.0.poi_id))
        });
        pois.truncate(r.count);
        Some(ServerReply::ok(
            r.id,
            ServerResponse {
                pois,
                node_accesses: accesses,
            },
        ))
    }

    fn poi_count(&self) -> usize {
        self.shards.iter().map(|s| s.tree.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A single query through the service seam.
    fn knn_one(
        svc: &ShardedService,
        query: Point,
        count: usize,
        bounds: SearchBounds,
    ) -> ServerResponse {
        let req = ServerRequest {
            id: 0u64.into(),
            query,
            count,
            bounds,
            full_count: count,
        };
        svc.serve(&req)
            .expect("an in-process backend always replies")
            .response
    }

    fn pois(n: usize, seed: u64) -> Vec<(u64, Point)> {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|i| (i as u64, Point::new(next() * 1000.0, next() * 1000.0)))
            .collect()
    }

    #[test]
    fn strips_partition_the_poi_set() {
        let world = pois(500, 0xabc);
        let svc = ShardedService::new(world.clone(), 4);
        assert_eq!(svc.metrics().shards.len(), 4);
        assert_eq!(svc.poi_count(), 500);
        let m = svc.metrics();
        assert_eq!(m.shards.iter().map(|s| s.pois).sum::<usize>(), 500);
        for s in &m.shards {
            assert!(s.pois >= 100, "strips are near-equal count: {:?}", s);
        }
    }

    #[test]
    fn single_shard_degenerates_gracefully() {
        let world = pois(100, 0x77);
        let svc = ShardedService::new(world, 1);
        let resp = knn_one(&svc, Point::new(500.0, 500.0), 5, SearchBounds::NONE);
        assert_eq!(resp.pois.len(), 5);
        for w in resp.pois.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn more_shards_than_pois() {
        let svc = ShardedService::new(vec![(0, Point::new(1.0, 1.0))], 8);
        assert_eq!(svc.metrics().shards.len(), 8);
        let resp = knn_one(&svc, Point::ORIGIN, 3, SearchBounds::NONE);
        assert_eq!(resp.pois.len(), 1);
        assert_eq!(resp.pois[0].0.poi_id, 0);
    }

    #[test]
    fn relocate_routes_across_strips() {
        let world: Vec<(u64, Point)> = (0..100)
            .map(|i| (i as u64, Point::new(i as f64 * 10.0, 50.0)))
            .collect();
        let mut svc = ShardedService::new(world, 4);
        // Move POI 0 from the leftmost strip to the far right.
        assert!(svc.relocate(0, Point::new(0.0, 50.0), Point::new(995.0, 50.0)));
        assert_eq!(svc.poi_count(), 100);
        let resp = knn_one(&svc, Point::new(996.0, 50.0), 2, SearchBounds::NONE);
        assert_eq!(resp.pois[0].0.poi_id, 0, "relocated POI now nearest");
        assert_eq!(resp.pois[1].0.poi_id, 99);
        // Stale old position: nothing moves.
        assert!(!svc.relocate(0, Point::new(0.0, 50.0), Point::new(1.0, 1.0)));
        assert!(!svc.relocate(777, Point::new(10.0, 50.0), Point::new(1.0, 1.0)));
        assert_eq!(svc.poi_count(), 100);
    }

    #[test]
    fn per_shard_metrics_accumulate() {
        let world = pois(400, 0x5e5e);
        let svc = ShardedService::new(world, 4);
        let batch: Vec<ServerRequest> = (0..16)
            .map(|i| ServerRequest::plain(i, Point::new(i as f64 * 61.0, 500.0), 3))
            .collect();
        let replies = svc.submit(&batch);
        assert_eq!(replies.len(), 16);
        let m = svc.metrics();
        assert_eq!(m.requests, 16);
        assert!(m.node_accesses() > 0);
        assert_eq!(
            m.node_accesses(),
            replies
                .iter()
                .map(|r| r.response.node_accesses)
                .sum::<u64>(),
            "per-shard accesses reconcile with per-reply accesses"
        );
        let touched: u64 = m.shards.iter().map(|s| s.requests).sum();
        assert!(
            touched >= 16,
            "every request touched at least its home shard"
        );
    }

    #[test]
    fn mbr_skip_fires_for_clustered_queries() {
        // All queries sit in the leftmost strip with a tight k; far strips
        // must be skipped by the tightened bound.
        let world: Vec<(u64, Point)> = (0..400)
            .map(|i| (i as u64, Point::new((i as f64) * 2.5, (i % 17) as f64)))
            .collect();
        let svc = ShardedService::new(world, 4);
        let batch: Vec<ServerRequest> = (0..20)
            .map(|i| ServerRequest::plain(i, Point::new(5.0 + i as f64, 8.0), 2))
            .collect();
        svc.submit(&batch);
        let m = svc.metrics();
        let skipped: u64 = m.shards.iter().map(|s| s.skipped).sum();
        assert!(skipped > 0, "distant shards should be MBR-skipped: {m:?}");
    }
}
