//! The R\*-tree-backed reference implementation of the
//! [`SpatialService`] seam.
//!
//! When peer verification cannot complete a query, the mobile host
//! forwards it (with any pruning bounds) over the point-to-point channel.
//! The server runs EINN — the incremental best-first search extended with
//! the bounds (Section 3.3) — and reports its node accesses so the
//! simulator can compute the page access rate (PAR).
//!
//! [`RTreeServer`] is the trivial single-shard backend: one tree, each
//! request served on the calling thread. The sharded backend lives in the
//! `senn-server` crate behind the same trait.

use senn_cache::CachedNn;
use senn_geom::Point;
use senn_rtree::RStarTree;

use crate::service::{ServerReply, ServerRequest, SpatialService};

/// Result of one server-side kNN search.
#[derive(Clone, Debug, Default)]
pub struct ServerResponse {
    /// POIs in ascending distance. Under a lower bound, POIs strictly
    /// inside the verified circle are omitted (the client already holds
    /// them); the boundary POI itself is re-reported and deduplicated by
    /// the client.
    pub pois: Vec<(CachedNn, f64)>,
    /// R\*-tree node accesses the search performed.
    pub node_accesses: u64,
}

/// A [`SpatialService`] backed by a single [`RStarTree`] whose payloads
/// are POI identifiers — the trivial 1-shard implementation.
#[derive(Clone)]
pub struct RTreeServer {
    tree: RStarTree<u64>,
}

impl RTreeServer {
    /// Builds the server from `(id, position)` POIs via STR bulk loading.
    pub fn new(pois: impl IntoIterator<Item = (u64, Point)>) -> Self {
        let items: Vec<(Point, u64)> = pois.into_iter().map(|(id, p)| (p, id)).collect();
        RTreeServer {
            tree: RStarTree::bulk_load(items),
        }
    }

    /// Access to the underlying tree (e.g. for integrity checks).
    pub fn tree(&self) -> &RStarTree<u64> {
        &self.tree
    }

    /// Runs the bounded search one request asks for.
    fn search(&self, request: &ServerRequest) -> ServerResponse {
        let mut it = self.tree.nn_iter_bounded(request.query, request.bounds);
        let pois: Vec<(CachedNn, f64)> = it
            .by_ref()
            .take(request.count)
            .map(|n| {
                (
                    CachedNn {
                        poi_id: *n.value,
                        position: n.point,
                    },
                    n.dist,
                )
            })
            .collect();
        ServerResponse {
            pois,
            node_accesses: it.page_accesses(),
        }
    }

    /// Answers one query directly against the truth index — a
    /// measurement probe (ground-truth grading, expansion baselines), not
    /// service traffic. Residual queries go through
    /// [`SpatialService::serve`] (possibly behind retry/transport
    /// layers); this inherent method deliberately bypasses them.
    pub fn knn_one(
        &self,
        query: Point,
        count: usize,
        bounds: senn_rtree::SearchBounds,
    ) -> ServerResponse {
        self.search(&ServerRequest {
            id: crate::transport::RequestId::new(0),
            query,
            count,
            bounds,
            full_count: count,
        })
    }

    /// Moves POI `id` from `old_pos` to `new_pos` (e.g. a gas station
    /// closing here and opening there). Returns false — and leaves the
    /// tree untouched — when no such POI was indexed at `old_pos`.
    pub fn relocate(&mut self, id: u64, old_pos: Point, new_pos: Point) -> bool {
        if self.tree.remove(old_pos, |v| *v == id).is_none() {
            return false;
        }
        self.tree.insert(new_pos, id);
        true
    }
}

impl SpatialService for RTreeServer {
    fn serve(&self, request: &ServerRequest) -> Option<ServerReply> {
        Some(ServerReply::ok(request.id, self.search(request)))
    }

    fn poi_count(&self) -> usize {
        self.tree.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use senn_rtree::SearchBounds;

    fn server(n: usize) -> (RTreeServer, Vec<Point>) {
        let mut s = 0xfeedu64 | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let pts: Vec<Point> = (0..n)
            .map(|_| Point::new(next() * 100.0, next() * 100.0))
            .collect();
        (
            RTreeServer::new(pts.iter().enumerate().map(|(i, p)| (i as u64, *p))),
            pts,
        )
    }

    #[test]
    fn knn_one_returns_sorted_results() {
        let (srv, pts) = server(200);
        let q = Point::new(50.0, 50.0);
        let resp = srv.knn_one(q, 5, SearchBounds::NONE);
        assert_eq!(resp.pois.len(), 5);
        assert!(resp.node_accesses > 0);
        for w in resp.pois.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        // First result is the true NN.
        let best = pts.iter().map(|p| q.dist(*p)).fold(f64::INFINITY, f64::min);
        assert!((resp.pois[0].1 - best).abs() < 1e-9);
        assert_eq!(srv.poi_count(), 200);
    }

    #[test]
    fn batch_replies_in_request_order_with_ids() {
        let (srv, _) = server(100);
        let batch: Vec<ServerRequest> = (0..8)
            .map(|i| {
                ServerRequest::plain(
                    100 + i,
                    Point::new(i as f64 * 11.0, 50.0),
                    1 + i as usize % 3,
                )
            })
            .collect();
        let replies = srv.submit(&batch);
        assert_eq!(replies.len(), batch.len());
        for (req, reply) in batch.iter().zip(&replies) {
            assert_eq!(reply.id, req.id);
            assert_eq!(reply.response.pois.len(), req.count);
            // Each reply equals the one-shot answer for its request.
            let solo = srv.knn_one(req.query, req.count, req.bounds);
            assert_eq!(reply.response.pois, solo.pois);
        }
    }

    /// A clone of a bulk-loaded server is indistinguishable from a fresh
    /// build of the same POIs: the same ids, distance bits and node
    /// accesses on every query, before and after both replay the same
    /// relocations.
    #[test]
    fn clone_answers_like_a_fresh_build() {
        let (built, pts) = server(400);
        let mut fresh = RTreeServer::new(pts.iter().enumerate().map(|(i, p)| (i as u64, *p)));
        let mut clone = built.clone();
        let answers = |srv: &RTreeServer| {
            (0..60)
                .map(|i| {
                    let q = Point::new((i * 37 % 100) as f64 + 0.5, (i * 61 % 100) as f64);
                    let r = srv.knn_one(q, 1 + i % 7, SearchBounds::NONE);
                    let pois: Vec<(u64, u64)> = r
                        .pois
                        .iter()
                        .map(|(c, d)| (c.poi_id, d.to_bits()))
                        .collect();
                    (pois, r.node_accesses)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(answers(&clone), answers(&fresh));
        for (i, p) in pts.iter().enumerate().step_by(3) {
            let to = Point::new(100.0 - p.y, p.x);
            assert!(fresh.relocate(i as u64, *p, to));
            assert!(clone.relocate(i as u64, *p, to));
        }
        assert_eq!(answers(&clone), answers(&fresh));
        // The original is untouched by its clone's relocations.
        assert_eq!(
            answers(&built),
            answers(&RTreeServer::new(
                pts.iter().enumerate().map(|(i, p)| (i as u64, *p))
            ))
        );
    }

    #[test]
    fn empty_server() {
        let srv = RTreeServer::new(vec![]);
        let resp = srv.knn_one(Point::ORIGIN, 3, SearchBounds::NONE);
        assert!(resp.pois.is_empty());
        assert_eq!(srv.poi_count(), 0);
    }

    #[test]
    fn relocate_moves_poi_and_truth_follows() {
        let mut srv = RTreeServer::new(vec![
            (0, Point::new(10.0, 10.0)),
            (1, Point::new(90.0, 90.0)),
        ]);
        assert!(srv.relocate(0, Point::new(10.0, 10.0), Point::new(80.0, 80.0)));
        let resp = srv.knn_one(Point::new(85.0, 85.0), 2, SearchBounds::NONE);
        assert_eq!(resp.pois[0].0.poi_id, 1);
        assert_eq!(resp.pois[1].0.poi_id, 0);
        assert_eq!(resp.pois[1].0.position, Point::new(80.0, 80.0));
        assert_eq!(srv.poi_count(), 2);
    }

    /// Regression (satellite): a stale `old_pos` must fail the relocate
    /// *and* leave the tree untouched — no phantom remove, no insert.
    #[test]
    fn relocate_with_stale_old_pos_is_a_noop() {
        let pois = vec![(0u64, Point::new(10.0, 10.0)), (1, Point::new(20.0, 20.0))];
        let mut srv = RTreeServer::new(pois.clone());
        // Wrong position for id 0 (e.g. a second relocation raced ahead).
        assert!(!srv.relocate(0, Point::new(11.0, 10.0), Point::new(50.0, 50.0)));
        // Wrong id at a real position.
        assert!(!srv.relocate(7, Point::new(10.0, 10.0), Point::new(50.0, 50.0)));
        assert_eq!(srv.poi_count(), 2);
        let resp = srv.knn_one(Point::ORIGIN, 2, SearchBounds::NONE);
        let mut got: Vec<(u64, Point)> = resp
            .pois
            .iter()
            .map(|(c, _)| (c.poi_id, c.position))
            .collect();
        got.sort_by_key(|(id, _)| *id);
        assert_eq!(got, pois, "tree contents changed on a failed relocate");
    }

    /// Regression (satellite): under a lower bound the boundary POI is
    /// re-reported (it defines the verified circle), POIs strictly inside
    /// are omitted, and the client-side merge dedupes the re-report.
    #[test]
    fn lower_bound_rereports_boundary_and_omits_interior() {
        let srv = RTreeServer::new(vec![
            (0, Point::new(1.0, 0.0)), // strictly inside the circle
            (1, Point::new(3.0, 0.0)), // the boundary POI (defines lb)
            (2, Point::new(5.0, 0.0)),
            (3, Point::new(9.0, 0.0)),
        ]);
        let bounds = SearchBounds {
            upper: None,
            lower: Some(3.0),
        };
        let resp = srv.knn_one(Point::ORIGIN, 3, bounds);
        let ids: Vec<u64> = resp.pois.iter().map(|(c, _)| c.poi_id).collect();
        assert_eq!(
            ids,
            vec![1, 2, 3],
            "boundary POI re-reported, interior POI omitted"
        );
    }
}
