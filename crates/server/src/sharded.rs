//! The sharded backend: the POI set strip-partitioned across N
//! [`RStarTree`] shards, every request answered by its home strip first
//! and by the other strips under **global bound tightening**, batches
//! fanned out over *requests* with the `senn-par` scoped-thread engine.
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
//! A request's searches depend on no other request, so a batch is one
//! fan-out over its requests — and only when it is big enough to repay a
//! thread spawn (`FANOUT_GRAIN`); the transport's one-request dispatches
//! run on the caller.
//!
//! ## Observability
//!
//! Every shard keeps atomic counters (requests routed, node accesses,
//! MBR-skips, peak queue depth) and a log2-bucket histogram of its
//! per-batch busy time, from which [`ShardedService::metrics`] derives
//! p50/p99 batch latencies without any lock on the hot path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use senn_cache::CachedNn;
use senn_core::service::{ServerReply, ServerRequest, SpatialService};
use senn_core::ServerResponse;
use senn_geom::{Point, EPS};
use senn_rtree::{RStarTree, SearchBounds};

/// Number of log2 latency buckets (covers 1 ns .. ~584 years).
const HIST_BUCKETS: usize = 64;

/// Lock-free log2-bucket latency histogram.
#[derive(Debug)]
struct LatencyHist {
    buckets: Vec<AtomicU64>,
}

impl LatencyHist {
    fn new() -> Self {
        LatencyHist {
            buckets: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn bucket_of(nanos: u64) -> usize {
        (64 - nanos.leading_zeros() as usize).min(HIST_BUCKETS - 1)
    }

    fn record(&self, nanos: u64) {
        self.buckets[Self::bucket_of(nanos)].fetch_add(1, Ordering::Relaxed);
    }

    /// The `q`-quantile in milliseconds (bucket-midpoint estimate; `0`
    /// when nothing was recorded).
    fn quantile_ms(&self, q: f64) -> f64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (b, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Midpoint of [2^(b-1), 2^b) nanoseconds.
                let rep = if b == 0 {
                    0.5
                } else {
                    1.5 * (1u64 << (b - 1)) as f64
                };
                return rep / 1.0e6;
            }
        }
        unreachable!("rank <= total")
    }
}

/// Atomic per-shard counters.
#[derive(Debug)]
struct ShardCounters {
    /// Requests the shard actually searched (home + non-skipped foreign).
    requests: AtomicU64,
    /// R\*-tree node accesses across all searches.
    node_accesses: AtomicU64,
    /// Foreign-pass requests skipped by the MBR bound check.
    skipped: AtomicU64,
    /// Largest number of requests queued on this shard in one batch.
    max_queue_depth: AtomicU64,
    /// Per-batch busy time of this shard.
    batch_latency: LatencyHist,
}

impl ShardCounters {
    fn new() -> Self {
        ShardCounters {
            requests: AtomicU64::new(0),
            node_accesses: AtomicU64::new(0),
            skipped: AtomicU64::new(0),
            max_queue_depth: AtomicU64::new(0),
            batch_latency: LatencyHist::new(),
        }
    }
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
    /// Largest per-batch queue depth observed.
    pub max_queue_depth: u64,
    /// Median per-batch busy time, milliseconds.
    pub p50_batch_ms: f64,
    /// 99th-percentile per-batch busy time, milliseconds.
    pub p99_batch_ms: f64,
}

/// Point-in-time metrics of the whole service.
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceMetrics {
    /// Batches served.
    pub batches: u64,
    /// Requests served (across all batches).
    pub requests: u64,
    /// Median end-to-end batch latency, milliseconds.
    pub p50_batch_ms: f64,
    /// 99th-percentile end-to-end batch latency, milliseconds.
    pub p99_batch_ms: f64,
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

/// Requests that repay one more worker thread. A scoped spawn measures
/// 40–80 µs on the benchmark box (`par.fanout_t2_ns`) and one bounded shard
/// search 1.4 µs (`rtree.einn_ns`), a request being one to `shards` of
/// them: 64 requests are 90–360 µs of search, the first point at which a
/// second worker cannot lose.
const FANOUT_GRAIN: usize = 64;

/// What one batch routed to one shard: searches, and nanoseconds in them.
#[derive(Default)]
struct BatchLoad {
    searches: AtomicU64,
    nanos: AtomicU64,
}

/// The sharded [`SpatialService`] backend.
pub struct ShardedService {
    shards: Vec<Shard>,
    /// `boundaries[i]` is the smallest x owned by strip `i + 1`.
    boundaries: Vec<f64>,
    /// POI id → shard currently holding it (relocation routing).
    homes: std::collections::HashMap<u64, usize>,
    /// Most worker threads one batch may occupy.
    threads: usize,
    batches: AtomicU64,
    requests: AtomicU64,
    batch_latency: LatencyHist,
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
                counters: ShardCounters::new(),
            });
        }
        while shards.len() < n {
            shards.push(Shard {
                tree: RStarTree::bulk_load(Vec::new()),
                counters: ShardCounters::new(),
            });
        }
        ShardedService {
            shards,
            boundaries,
            homes,
            threads: senn_par::worker_count(),
            batches: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            batch_latency: LatencyHist::new(),
        }
    }

    /// Caps the worker threads one batch may occupy (clamped to at least
    /// 1; the default is [`senn_par::worker_count`]). Replies and counters
    /// do not depend on it.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
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
            batches: self.batches.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            p50_batch_ms: self.batch_latency.quantile_ms(0.50),
            p99_batch_ms: self.batch_latency.quantile_ms(0.99),
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
                    max_queue_depth: s.counters.max_queue_depth.load(Ordering::Relaxed),
                    p50_batch_ms: s.counters.batch_latency.quantile_ms(0.50),
                    p99_batch_ms: s.counters.batch_latency.quantile_ms(0.99),
                })
                .collect(),
        }
    }

    /// One bounded search of shard `s` for `r`: appends the hits to `pois`,
    /// returns the node accesses, and books the time since `clock` to the
    /// shard.
    fn search(
        &self,
        s: usize,
        r: &ServerRequest,
        bounds: SearchBounds,
        pois: &mut Vec<(CachedNn, f64)>,
        clock: &mut Instant,
        load: &[BatchLoad],
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
        let now = Instant::now();
        load[s].searches.fetch_add(1, Ordering::Relaxed);
        load[s]
            .nanos
            .fetch_add((now - *clock).as_nanos() as u64, Ordering::Relaxed);
        *clock = now;
        accesses
    }

    /// Answers one request: home strip, tightened bound, foreign strips,
    /// merge.
    fn serve(&self, r: &ServerRequest, load: &[BatchLoad]) -> ServerReply {
        let home = self.strip_for(r.query.x);
        let mut pois = Vec::new();
        let mut clock = Instant::now();
        let mut accesses = self.search(home, r, r.bounds, &mut pois, &mut clock, load);

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
                accesses += self.search(s, r, bounds, &mut pois, &mut clock, load);
            }
        }

        // Merge: shards are disjoint, so a sort + truncate suffices. Ties
        // break by POI id to stay deterministic across shard counts.
        pois.sort_by(|a, b| {
            a.1.total_cmp(&b.1)
                .then_with(|| a.0.poi_id.cmp(&b.0.poi_id))
        });
        pois.truncate(r.count);
        ServerReply::ok(
            r.id,
            ServerResponse {
                pois,
                node_accesses: accesses,
            },
        )
    }
}

impl SpatialService for ShardedService {
    fn submit(&self, batch: &[ServerRequest]) -> Vec<ServerReply> {
        let batch_started = Instant::now();
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.requests
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        let load: Vec<BatchLoad> = self.shards.iter().map(|_| BatchLoad::default()).collect();
        let replies = senn_par::par_map_grained(
            batch,
            self.threads,
            FANOUT_GRAIN,
            || (),
            |(), _, r| self.serve(r, &load),
        );
        for (shard, load) in self.shards.iter().zip(&load) {
            let searches = load.searches.load(Ordering::Relaxed);
            if searches > 0 {
                shard
                    .counters
                    .max_queue_depth
                    .fetch_max(searches, Ordering::Relaxed);
                shard
                    .counters
                    .batch_latency
                    .record(load.nanos.load(Ordering::Relaxed));
            }
        }
        self.batch_latency
            .record(batch_started.elapsed().as_nanos() as u64);
        replies
    }

    fn poi_count(&self) -> usize {
        self.shards.iter().map(|s| s.tree.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A single query as a batch of one through the service seam (the
    /// trait has no single-query convenience).
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
        svc.submit(std::slice::from_ref(&req))
            .pop()
            .expect("one reply per request")
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
        assert_eq!(svc.shard_count(), 4);
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
        assert_eq!(svc.shard_count(), 8);
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
        assert_eq!(m.batches, 1);
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
        assert!(m.shards.iter().any(|s| s.max_queue_depth > 0));
        assert!(m.p99_batch_ms >= m.p50_batch_ms);
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

    #[test]
    fn latency_histogram_quantiles() {
        let h = LatencyHist::new();
        assert_eq!(h.quantile_ms(0.5), 0.0);
        for _ in 0..99 {
            h.record(1_000_000); // ~1 ms
        }
        h.record(1_000_000_000); // one ~1 s outlier
        let p50 = h.quantile_ms(0.50);
        let p99 = h.quantile_ms(0.99);
        assert!(p50 > 0.4 && p50 < 2.0, "p50 ~1 ms, got {p50}");
        assert!(p99 < 2.0, "p99 still in the 1 ms bucket, got {p99}");
        assert!(h.quantile_ms(1.0) > 500.0, "max hits the outlier bucket");
    }
}
