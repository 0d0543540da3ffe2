//! End-to-end SENN correctness on randomized worlds, spanning
//! `senn-geom`, `senn-rtree`, `senn-cache` and `senn-core`.

use mobishare_senn::core::multiple::RegionMethod;
use mobishare_senn::core::{
    PeerCacheEntry, QueryContext, RTreeServer, Resolution, SennConfig, SennEngine,
};
use mobishare_senn::geom::Point;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn random_pois(rng: &mut SmallRng, n: usize, side: f64) -> Vec<Point> {
    (0..n)
        .map(|_| Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
        .collect()
}

/// Honest peer cache: the true `cache_k`-NN prefix at `loc`.
fn honest_peer(loc: Point, pois: &[Point], cache_k: usize) -> PeerCacheEntry {
    let mut by_d: Vec<(f64, usize)> = pois
        .iter()
        .enumerate()
        .map(|(i, p)| (loc.dist(*p), i))
        .collect();
    by_d.sort_by(|a, b| a.partial_cmp(b).unwrap());
    PeerCacheEntry::from_sorted(
        loc,
        by_d.iter()
            .take(cache_k)
            .map(|&(_, i)| (i as u64, pois[i]))
            .collect(),
    )
}

fn true_knn(pois: &[Point], q: Point, k: usize) -> Vec<(f64, usize)> {
    let mut by_d: Vec<(f64, usize)> = pois
        .iter()
        .enumerate()
        .map(|(i, p)| (q.dist(*p), i))
        .collect();
    by_d.sort_by(|a, b| a.partial_cmp(b).unwrap());
    by_d.truncate(k);
    by_d
}

#[test]
fn senn_always_returns_true_knn() {
    let mut rng = SmallRng::seed_from_u64(0xE2E);
    for trial in 0..120 {
        let side = 1000.0;
        let n = rng.gen_range(10..200);
        let pois = random_pois(&mut rng, n, side);
        let server = RTreeServer::new(pois.iter().enumerate().map(|(i, p)| (i as u64, *p)));
        let q = Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side));
        let k = rng.gen_range(1..=10usize);
        let peer_count = rng.gen_range(0..6);
        let peers: Vec<PeerCacheEntry> = (0..peer_count)
            .map(|_| {
                let loc = Point::new(
                    (q.x + rng.gen_range(-200.0..200.0)).clamp(0.0, side),
                    (q.y + rng.gen_range(-200.0..200.0)).clamp(0.0, side),
                );
                honest_peer(loc, &pois, rng.gen_range(1..=12))
            })
            .collect();
        let engine = SennEngine::default();
        let out = engine.query_with(q, k, &peers, &server, &mut QueryContext::new());
        let want = true_knn(&pois, q, k);
        assert_eq!(out.results.len(), k.min(n), "trial {trial}");
        for (i, (r, (wd, _))) in out.results.iter().zip(&want).enumerate() {
            assert!(
                (r.dist - wd).abs() < 1e-9,
                "trial {trial} rank {i}: dist {} vs true {} ({:?})",
                r.dist,
                wd,
                out.resolution()
            );
        }
    }
}

#[test]
fn no_false_certains_even_with_stale_peer_positions() {
    // Peers have moved since caching (their *current* position is
    // irrelevant — only the cached query location matters). Verification
    // must stay sound regardless.
    let mut rng = SmallRng::seed_from_u64(77);
    for _ in 0..60 {
        let side = 500.0;
        let n = rng.gen_range(5..50);
        let pois = random_pois(&mut rng, n, side);
        let q = Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side));
        let k = rng.gen_range(1..=6usize);
        let peer_count = rng.gen_range(1..5);
        let peers: Vec<PeerCacheEntry> = (0..peer_count)
            .map(|_| {
                let loc = Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side));
                let cache_k = rng.gen_range(1..=8);
                honest_peer(loc, &pois, cache_k)
            })
            .collect();
        let engine = SennEngine::default();
        let out = engine.query_peers_only_with(q, k, &peers, &mut QueryContext::new());
        let want = true_knn(&pois, q, k);
        for (rank, e) in out.certain().iter().enumerate() {
            assert!(
                (e.dist - want[rank].0).abs() < 1e-9,
                "claimed-certain rank {rank} is not the true NN"
            );
        }
    }
}

#[test]
fn region_methods_agree_on_resolution_soundness() {
    // The exact region resolves at least as many queries as the
    // polygonized one, and both only report true answers.
    let mut rng = SmallRng::seed_from_u64(0x9e3779);
    let mut poly_resolved = 0u32;
    let mut exact_resolved = 0u32;
    for _ in 0..80 {
        let side = 400.0;
        let pois = random_pois(&mut rng, 40, side);
        let q = Point::new(rng.gen_range(100.0..300.0), rng.gen_range(100.0..300.0));
        let k = rng.gen_range(1..=4usize);
        let peers: Vec<PeerCacheEntry> = (0..4)
            .map(|_| {
                let loc = Point::new(
                    q.x + rng.gen_range(-60.0..60.0),
                    q.y + rng.gen_range(-60.0..60.0),
                );
                honest_peer(loc, &pois, 6)
            })
            .collect();
        for (method, counter) in [
            (
                RegionMethod::Polygonized { vertices: 24 },
                &mut poly_resolved,
            ),
            (RegionMethod::Exact, &mut exact_resolved),
        ] {
            let engine = SennEngine::new(SennConfig {
                region_method: method,
                ..Default::default()
            });
            let out = engine.query_peers_only_with(q, k, &peers, &mut QueryContext::new());
            if out.resolution() != Resolution::Unresolved {
                *counter += 1;
                let want = true_knn(&pois, q, k);
                for (rank, e) in out.certain().iter().enumerate() {
                    assert!((e.dist - want[rank].0).abs() < 1e-9);
                }
            }
        }
    }
    assert!(
        exact_resolved >= poly_resolved,
        "exact {exact_resolved} vs poly {poly_resolved}"
    );
    assert!(
        exact_resolved > 0,
        "scenario too hard: nothing resolved peer-side"
    );
}

#[test]
fn bounds_forwarded_to_server_do_not_change_answers() {
    // With and without peer-derived pruning bounds, the final result set
    // must be identical — bounds only save pages.
    let mut rng = SmallRng::seed_from_u64(31337);
    for _ in 0..40 {
        let side = 800.0;
        let pois = random_pois(&mut rng, 150, side);
        let server = RTreeServer::new(pois.iter().enumerate().map(|(i, p)| (i as u64, *p)));
        let q = Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side));
        let k = rng.gen_range(2..=8usize);
        let peer = honest_peer(
            Point::new(
                q.x + rng.gen_range(-30.0..30.0),
                q.y + rng.gen_range(-30.0..30.0),
            ),
            &pois,
            3,
        );
        let engine = SennEngine::default();
        let with_peer = engine.query_with(
            q,
            k,
            std::slice::from_ref(&peer),
            &server,
            &mut QueryContext::new(),
        );
        let without =
            engine.query_with::<PeerCacheEntry>(q, k, &[], &server, &mut QueryContext::new());
        assert_eq!(with_peer.results.len(), without.results.len());
        for (a, b) in with_peer.results.iter().zip(&without.results) {
            assert!((a.dist - b.dist).abs() < 1e-9);
        }
    }
}
