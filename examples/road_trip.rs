//! Road trip: network-distance nearest neighbors along a drive (SNNN).
//!
//! A car drives across a synthetic city road network and periodically asks
//! for its 3 network-nearest gas stations (Algorithm 2). Between stops the
//! car's own cache — refreshed at each stop — acts as a "peer" for the
//! next query, exactly like the paper's moving-query scenario, and the
//! example reports how many queries never touched the server.
//!
//! ```text
//! cargo run --release --example road_trip
//! ```

use mobishare_senn::core::prelude::*;
use mobishare_senn::geom::Point;
use mobishare_senn::mobility::{RoadMover, RoadMoverConfig};
use mobishare_senn::network::{generate_network, GeneratorConfig, NetworkDistance, NodeLocator};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let side = 4000.0;
    let net = generate_network(&GeneratorConfig::city(side, 99));
    let locator = NodeLocator::new(&net);
    println!(
        "road network: {} nodes, {} edges ({}x{} m)",
        net.node_count(),
        net.edge_count(),
        side as u64,
        side as u64
    );

    // 60 gas stations near the roads.
    let mut rng = SmallRng::seed_from_u64(5);
    let stations: Vec<Point> = (0..60)
        .map(|i| {
            use rand::Rng;
            let raw = Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side));
            let node = locator.nearest(raw).unwrap();
            let _ = i;
            net.position(node)
        })
        .collect();
    let server = RTreeServer::new(stations.iter().enumerate().map(|(i, p)| (i as u64, *p)));

    // Drive for ~3 simulated minutes, querying every 20 seconds so the
    // rolling cache still covers the next stop.
    let start = locator.nearest(Point::new(side / 2.0, side / 2.0)).unwrap();
    let mut car = RoadMover::new(&net, start, RoadMoverConfig::new(15.0));
    let engine = SennEngine::default();
    let mut ctx = QueryContext::new();
    let mut cache: Option<PeerCacheEntry> = None;
    let mut peer_answered = 0usize;
    let k = 3usize;

    for stop in 0..10 {
        for _ in 0..20 {
            car.step(&net, 1.0, &mut rng);
        }
        let q = car.position();
        let peers: Vec<PeerCacheEntry> = cache.iter().cloned().collect();
        let mut model = NetworkDistance::new(&net, &locator, q).unwrap();
        let out = snnn_query_pruned_with(
            &engine,
            q,
            k,
            &peers,
            &server,
            &mut model,
            &mut NeverPrune,
            SnnnConfig::default(),
            &mut ctx,
        );
        // Count how much of the SNNN work the rolling cache absorbed: the
        // range round after the k-NN round may still need the server, but
        // the initial k-NN round is what the paper attributes.
        let first_peer = out
            .trace
            .resolutions
            .first()
            .is_some_and(|r| *r != Resolution::Server);
        if first_peer {
            peer_answered += 1;
        }
        let range = match out.trace.resolutions.get(1) {
            None => "no range round",
            Some(Resolution::Server) => "range from the server",
            Some(_) => "range from the peers",
        };
        println!(
            "stop {:>2} @ ({:>6.0},{:>6.0}): {} rounds ({range}), {}",
            stop,
            q.x,
            q.y,
            out.senn_calls(),
            if first_peer {
                "kNN round peer-answered"
            } else {
                "needed the server"
            }
        );
        for (i, r) in out.results.iter().enumerate() {
            println!(
                "    #{} station {:<2} network {:>6.0} m (euclid {:>6.0} m)",
                i + 1,
                r.poi.poi_id,
                r.network_dist,
                r.euclid_dist
            );
        }
        // Refresh the cache with the Euclidean-certain POIs for next time.
        let euclid = engine.query_with(q, k + 7, &peers, &server, &mut ctx);
        cache = Some(PeerCacheEntry::new(
            q,
            euclid.cacheable().iter().map(|e| e.poi).collect(),
        ));
    }
    println!(
        "\n{peer_answered}/10 stops had their initial kNN round answered from the rolling cache."
    );
}
