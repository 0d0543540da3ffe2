//! Adversarial / failure-injection tests: what happens when the paper's
//! honest-cache assumption breaks, and that the machinery degrades in the
//! documented way rather than arbitrarily.
//!
//! SENN's soundness (certified answers are true answers) rests on every
//! peer cache being an exact prefix of the true NN ranking at its cached
//! query location. These tests pin down the trust boundary:
//!
//! * corrupted caches CAN produce wrong certified answers (there is no
//!   cryptographic defense — same as the paper);
//! * but every failure mode is *detectable* by a server cross-check, and
//! * malformed inputs (unsorted, duplicated, empty) never panic or hang.

use mobishare_senn::core::CachedNn;
use mobishare_senn::core::{PeerCacheEntry, QueryContext, RTreeServer, Resolution, SennEngine};
use mobishare_senn::geom::Point;

fn world() -> (Vec<Point>, RTreeServer) {
    let pois = vec![
        Point::new(10.0, 0.0),
        Point::new(30.0, 0.0),
        Point::new(60.0, 0.0),
        Point::new(100.0, 0.0),
    ];
    let server = RTreeServer::new(pois.iter().enumerate().map(|(i, p)| (i as u64, *p)));
    (pois, server)
}

#[test]
fn lying_peer_produces_detectably_wrong_certains() {
    let (_, server) = world();
    // The peer claims a cache from (0,0) whose farthest NN is at distance
    // 100 — implying it knows every POI within 100 m — but it omits the
    // POI at (10, 0). Lemma 3.2 will wrongly certify (30, 0) as the 1NN.
    let liar = PeerCacheEntry::from_sorted(
        Point::ORIGIN,
        vec![(1, Point::new(30.0, 0.0)), (3, Point::new(100.0, 0.0))],
    );
    let engine = SennEngine::default();
    let q = Point::new(5.0, 0.0);
    let out =
        engine.query_peers_only_with(q, 1, std::slice::from_ref(&liar), &mut QueryContext::new());
    assert_eq!(
        out.resolution(),
        Resolution::SinglePeer,
        "the lie goes through"
    );
    assert_eq!(out.certain()[0].poi.poi_id, 1, "wrong POI certified");
    // ... and the server cross-check exposes it.
    let truth = engine.query_with::<PeerCacheEntry>(q, 1, &[], &server, &mut QueryContext::new());
    assert_ne!(truth.results[0].poi.poi_id, out.certain()[0].poi.poi_id);
}

#[test]
fn understated_radius_is_harmless() {
    // A peer that under-reports its certain area (drops its farthest NNs)
    // can only make verification fail more often — never certify wrongly.
    let (pois, server) = world();
    let honest_prefix = PeerCacheEntry::from_sorted(
        Point::ORIGIN,
        vec![(0, Point::new(10.0, 0.0)), (1, Point::new(30.0, 0.0))],
    );
    let engine = SennEngine::default();
    for k in 1..=3usize {
        let out = engine.query_with(
            Point::new(2.0, 0.0),
            k,
            std::slice::from_ref(&honest_prefix),
            &server,
            &mut QueryContext::new(),
        );
        // Whatever gets certified matches ground truth.
        let mut d: Vec<(f64, usize)> = pois
            .iter()
            .enumerate()
            .map(|(i, p)| (Point::new(2.0, 0.0).dist(*p), i))
            .collect();
        d.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (rank, e) in out.results.iter().enumerate() {
            assert_eq!(e.poi.poi_id, d[rank].1 as u64, "k={k} rank {rank}");
        }
    }
}

#[test]
fn malformed_caches_never_panic() {
    let (_, server) = world();
    let engine = SennEngine::default();
    let q = Point::new(50.0, 50.0);

    // Unsorted input: CacheEntry::new sorts it.
    let unsorted = PeerCacheEntry::new(
        Point::ORIGIN,
        vec![
            CachedNn {
                poi_id: 3,
                position: Point::new(100.0, 0.0),
            },
            CachedNn {
                poi_id: 0,
                position: Point::new(10.0, 0.0),
            },
        ],
    );
    assert!(unsorted.neighbors[0].poi_id == 0, "auto-sorted");

    // Duplicated POI ids across peers, empty caches, zero-radius caches,
    // self-referential positions: the query must complete and be correct.
    let dup_a = PeerCacheEntry::new(
        Point::new(49.0, 50.0),
        vec![CachedNn {
            poi_id: 1,
            position: Point::new(30.0, 0.0),
        }],
    );
    let dup_b = PeerCacheEntry::new(
        Point::new(51.0, 50.0),
        vec![CachedNn {
            poi_id: 1,
            position: Point::new(30.0, 0.0),
        }],
    );
    let empty = PeerCacheEntry::new(Point::new(50.0, 50.0), vec![]);
    let zero = PeerCacheEntry::new(
        q,
        vec![CachedNn {
            poi_id: 2,
            position: q,
        }], // POI exactly at the query point?!
    );
    let out = engine.query_with(
        q,
        2,
        &[dup_a, dup_b, empty, zero],
        &server,
        &mut QueryContext::new(),
    );
    assert_eq!(out.results.len(), 2);
    let mut ids: Vec<u64> = out.results.iter().map(|e| e.poi.poi_id).collect();
    ids.dedup();
    assert_eq!(ids.len(), 2, "no duplicate POIs in the answer");
}

#[test]
fn nan_positions_are_rejected_at_the_boundary() {
    // The tree refuses non-finite points, so a poisoned position cannot
    // enter the server index.
    let result = std::panic::catch_unwind(|| {
        let mut tree = mobishare_senn::rtree::RStarTree::new();
        tree.insert(Point::new(f64::NAN, 1.0), 0u32);
    });
    assert!(result.is_err());
}

#[test]
fn extreme_coordinates_stay_finite() {
    // Huge-but-finite coordinates flow through verification without
    // producing NaNs or panics.
    let far = 1e12;
    let server = RTreeServer::new(vec![(0, Point::new(far, far))]);
    let peer =
        PeerCacheEntry::from_sorted(Point::new(far - 10.0, far), vec![(0, Point::new(far, far))]);
    let engine = SennEngine::default();
    let out = engine.query_with(
        Point::new(far - 5.0, far),
        1,
        std::slice::from_ref(&peer),
        &server,
        &mut QueryContext::new(),
    );
    assert_eq!(out.results.len(), 1);
    assert!(out.results[0].dist.is_finite());
}
