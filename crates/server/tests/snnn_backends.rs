//! SNNN (Algorithm 2) over the service seam: the library driver with a
//! road-network distance model must return bit-identical result sets
//! whether the Euclidean rounds are served by the single-tree
//! `RTreeServer` or by a strip-partitioned `ShardedService` — the
//! network-mode counterpart of the golden sharded-equivalence suite.

use senn_core::service::SpatialService;
use senn_core::{snnn_query, PeerCacheEntry, RTreeServer, SennEngine, SnnnConfig, SnnnNeighbor};
use senn_geom::Point;
use senn_network::{
    generate_network, ChDistance, ChIndex, GeneratorConfig, NetworkDistance, NodeLocator,
};
use senn_server::ShardedService;

struct Rng(u64);
impl Rng {
    fn next(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn snnn_over(
    server: &dyn SpatialService,
    net: &senn_network::RoadNetwork,
    locator: &NodeLocator,
    queries: &[(Point, usize)],
) -> Vec<Vec<SnnnNeighbor>> {
    let engine = SennEngine::default();
    queries
        .iter()
        .map(|&(q, k)| {
            let mut model = NetworkDistance::new(net, locator, q).unwrap();
            snnn_query::<PeerCacheEntry, _>(
                &engine,
                q,
                k,
                &[],
                server,
                &mut model,
                SnnnConfig::default(),
            )
            .results
        })
        .collect()
}

#[test]
fn snnn_result_sets_are_backend_invariant() {
    let side = 2500.0;
    let net = generate_network(&GeneratorConfig::city(side, 0x0420));
    let locator = NodeLocator::new(&net);
    let mut rng = Rng(0x5eed | 1);
    // POIs jittered off network nodes (like the simulator places them).
    let pois: Vec<(u64, Point)> = (0..120)
        .map(|i| {
            let node = (rng.next() * net.node_count() as f64) as u32;
            let pos = net.position(node);
            (
                i as u64,
                Point::new(
                    (pos.x + rng.next() * 60.0 - 30.0).clamp(0.0, side),
                    (pos.y + rng.next() * 60.0 - 30.0).clamp(0.0, side),
                ),
            )
        })
        .collect();
    let queries: Vec<(Point, usize)> = (0..24)
        .map(|_| {
            (
                Point::new(rng.next() * side, rng.next() * side),
                1 + (rng.next() * 6.0) as usize,
            )
        })
        .collect();

    let golden_server = RTreeServer::new(pois.clone());
    let golden = snnn_over(&golden_server, &net, &locator, &queries);
    for shards in [1, 2, 3] {
        let svc = ShardedService::new(pois.clone(), shards);
        let got = snnn_over(&svc, &net, &locator, &queries);
        assert_eq!(golden.len(), got.len());
        for (qi, (want, have)) in golden.iter().zip(&got).enumerate() {
            assert_eq!(want.len(), have.len(), "query {qi} at {shards} shards");
            for (w, h) in want.iter().zip(have) {
                assert_eq!(w.poi.poi_id, h.poi.poi_id, "query {qi} at {shards} shards");
                assert_eq!(
                    w.network_dist.to_bits(),
                    h.network_dist.to_bits(),
                    "query {qi} at {shards} shards: network distance"
                );
            }
        }
    }

    // The CH model agrees with the A* model over the sharded backend too.
    let index = ChIndex::build_seeded(&net, 42);
    let svc = ShardedService::new(pois, 3);
    let engine = SennEngine::default();
    for (qi, &(q, k)) in queries.iter().enumerate() {
        let mut ch = ChDistance::new(&net, &locator, &index, q).unwrap();
        let out = snnn_query::<PeerCacheEntry, _>(
            &engine,
            q,
            k,
            &[],
            &svc,
            &mut ch,
            SnnnConfig::default(),
        );
        for (w, h) in golden[qi].iter().zip(&out.results) {
            assert_eq!(w.poi.poi_id, h.poi.poi_id, "query {qi}: CH diverged");
            assert!((w.network_dist - h.network_dist).abs() < 1e-9);
        }
    }
}
