//! SNNN (Algorithm 2) on real generated road networks, checked against a
//! brute-force network kNN oracle. Spans `senn-network`, `senn-rtree` and
//! `senn-core`.

use mobishare_senn::core::{
    snnn_query_pruned_with, NeverPrune, PeerCacheEntry, QueryContext, RTreeServer, SennEngine,
    SnnnConfig,
};
use mobishare_senn::geom::Point;
use mobishare_senn::network::{
    dijkstra_map, generate_network, ier_knn, ine_knn, GeneratorConfig, NetworkDistance,
    NetworkPois, NodeLocator,
};
use mobishare_senn::rtree::RStarTree;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

struct World {
    net: mobishare_senn::network::RoadNetwork,
    pois: NetworkPois,
    positions: Vec<Point>,
    tree: RStarTree<u32>,
    locator: NodeLocator,
    server: RTreeServer,
}

fn world(seed: u64, poi_count: usize, side: f64) -> World {
    let net = generate_network(&GeneratorConfig::city(side, seed));
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xDADA);
    let positions: Vec<Point> = (0..poi_count)
        .map(|_| Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
        .collect();
    let pois = NetworkPois::snap(&net, positions.clone());
    let tree = RStarTree::bulk_load(
        positions
            .iter()
            .enumerate()
            .map(|(i, p)| (*p, i as u32))
            .collect(),
    );
    let locator = NodeLocator::new(&net);
    let server = RTreeServer::new(positions.iter().enumerate().map(|(i, p)| (i as u64, *p)));
    World {
        net,
        pois,
        positions,
        tree,
        locator,
        server,
    }
}

/// Brute-force network kNN with the same point-to-poi distance convention
/// the library uses (legs to/from snap nodes included).
fn brute(w: &World, q: Point, k: usize) -> Vec<f64> {
    let qn = w.locator.nearest(q).unwrap();
    let map = dijkstra_map(&w.net, qn);
    let leg = q.dist(w.net.position(qn));
    let mut d: Vec<f64> = (0..w.pois.len() as u32)
        .filter_map(|i| {
            let core = map[w.pois.snap_node(i) as usize];
            core.is_finite().then(|| leg + core + w.pois.snap_leg(i))
        })
        .collect();
    d.sort_by(|a, b| a.partial_cmp(b).unwrap());
    d.truncate(k);
    d
}

#[test]
fn snnn_agrees_with_ier_ine_and_brute_force() {
    let w = world(11, 40, 3000.0);
    let mut rng = SmallRng::seed_from_u64(0xABC);
    let engine = SennEngine::default();
    for _ in 0..15 {
        let q = Point::new(rng.gen_range(0.0..3000.0), rng.gen_range(0.0..3000.0));
        let qn = w.locator.nearest(q).unwrap();
        let k = rng.gen_range(1..=5usize);

        let want = brute(&w, q, k);
        let ier = ier_knn(&w.net, &w.pois, &w.tree, q, qn, k);
        let ine = ine_knn(&w.net, &w.pois, q, qn, k);
        let mut model = NetworkDistance::new(&w.net, &w.locator, q).unwrap();
        let snnn = snnn_query_pruned_with::<mobishare_senn::core::PeerCacheEntry, _, _>(
            &engine,
            q,
            k,
            &[],
            &w.server,
            &mut model,
            &mut NeverPrune,
            SnnnConfig::default(),
            &mut QueryContext::new(),
        );
        assert_eq!(ier.len(), k);
        assert_eq!(ine.len(), k);
        assert_eq!(snnn.results.len(), k);
        for i in 0..k {
            assert!((ier[i].network_dist - want[i]).abs() < 1e-6, "IER rank {i}");
            assert!((ine[i].network_dist - want[i]).abs() < 1e-6, "INE rank {i}");
            assert!(
                (snnn.results[i].network_dist - want[i]).abs() <= 1e-9,
                "SNNN rank {i}: {} vs {}",
                snnn.results[i].network_dist,
                want[i]
            );
        }
    }
}

#[test]
fn snnn_with_warm_peer_avoids_server_for_euclidean_phase() {
    let w = world(5, 60, 2500.0);
    let engine = SennEngine::default();
    let q = Point::new(1250.0, 1250.0);
    // A collocated peer cached every POI's Euclidean ranking (idealized).
    let mut by_d: Vec<(f64, usize)> = w
        .positions
        .iter()
        .enumerate()
        .map(|(i, p)| (q.dist(*p), i))
        .collect();
    by_d.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let peer = PeerCacheEntry::from_sorted(
        q,
        by_d.iter()
            .take(30)
            .map(|&(_, i)| (i as u64, w.positions[i]))
            .collect(),
    );
    let mut model = NetworkDistance::new(&w.net, &w.locator, q).unwrap();
    let out = snnn_query_pruned_with(
        &engine,
        q,
        3,
        std::slice::from_ref(&peer),
        &w.server,
        &mut model,
        &mut NeverPrune,
        SnnnConfig::default(),
        &mut QueryContext::new(),
    );
    assert_eq!(
        out.trace.server_accesses, 0,
        "warm peer should spare the server entirely"
    );
    assert_eq!(out.results.len(), 3);
    // Network distances dominate Euclidean ones.
    for r in &out.results {
        assert!(r.network_dist >= r.euclid_dist - 1e-9);
    }
}

#[test]
fn network_distance_dominates_euclidean_on_generated_networks() {
    for seed in [1u64, 7, 23] {
        let w = world(seed, 25, 2000.0);
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..20 {
            let a = Point::new(rng.gen_range(0.0..2000.0), rng.gen_range(0.0..2000.0));
            let b = Point::new(rng.gen_range(0.0..2000.0), rng.gen_range(0.0..2000.0));
            if let Some(nd) = w.net.network_distance_points(a, b) {
                assert!(nd >= a.dist(b) - 1e-9, "ED lower-bound property violated");
            }
        }
    }
}
