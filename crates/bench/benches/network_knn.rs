//! Network kNN: IER vs INE vs SNNN (warm peer caches), plus the Dijkstra
//! vs A\* distance-kernel ablation, the contraction-hierarchy build and
//! its queries (point to point, and one anchor to many targets),
//! road-trip planning under Euclidean A\* and ALT, and the grid snap of a
//! point to its nearest node.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use senn_bench::{honest_peer, network_world, BenchRng};
use senn_core::{
    snnn_query_pruned_with, NeverPrune, QueryContext, RTreeServer, SennEngine, SnnnConfig,
};
use senn_network::{
    alt_path_into, astar_distance, astar_path, dijkstra_distance, generate_network, ier_knn,
    ine_knn, ChIndex, ChScratch, GeneratorConfig, NetworkDistance, NodeId,
};

fn network_knn(c: &mut Criterion) {
    let side = 5_000.0;
    let w = network_world(side, 120, 17);
    let mut rng = BenchRng::new(23);
    let queries: Vec<_> = (0..32)
        .map(|_| {
            let q = rng.point(side);
            (q, w.locator.nearest(q).unwrap())
        })
        .collect();
    let k = 5usize;
    // Points to snap: SNNN anchors every query and candidate this way.
    let snaps: Vec<_> = (0..256).map(|_| rng.point(side)).collect();

    let mut group = c.benchmark_group("network_knn");
    group.bench_function("locator_nearest", |b| {
        let mut i = 0;
        b.iter(|| {
            let p = snaps[i % snaps.len()];
            i += 1;
            black_box(w.locator.nearest(p))
        })
    });
    group.bench_function("ier", |b| {
        let mut i = 0;
        b.iter(|| {
            let (q, qn) = queries[i % queries.len()];
            i += 1;
            black_box(ier_knn(&w.net, &w.pois, &w.tree, q, qn, k))
        })
    });
    group.bench_function("ine", |b| {
        let mut i = 0;
        b.iter(|| {
            let (q, qn) = queries[i % queries.len()];
            i += 1;
            black_box(ine_knn(&w.net, &w.pois, q, qn, k))
        })
    });

    // SNNN with a warm collocated peer cache: the Euclidean phases resolve
    // peer-side and only network distances are computed locally.
    let poi_positions: Vec<_> = w.pois.positions().to_vec();
    let server = RTreeServer::new(
        poi_positions
            .iter()
            .enumerate()
            .map(|(i, p)| (i as u64, *p)),
    );
    group.bench_function("snnn_warm_peer", |b| {
        let engine = SennEngine::default();
        let mut i = 0;
        b.iter(|| {
            let (q, _) = queries[i % queries.len()];
            i += 1;
            let peer = honest_peer(q, &poi_positions, 20);
            let mut model = NetworkDistance::new(&w.net, &w.locator, q).expect("non-empty network");
            let out = snnn_query_pruned_with(
                &engine,
                q,
                k,
                std::slice::from_ref(&peer),
                &server,
                &mut model,
                &mut NeverPrune,
                SnnnConfig::default(),
                &mut QueryContext::new(),
            );
            black_box(out.results.len())
        })
    });

    // Distance-kernel ablation.
    group.bench_function("dijkstra_point_to_point", |b| {
        let mut i = 0;
        b.iter(|| {
            let (_, a) = queries[i % queries.len()];
            let (_, z) = queries[(i + 7) % queries.len()];
            i += 1;
            black_box(dijkstra_distance(&w.net, a, z))
        })
    });
    group.bench_function("astar_point_to_point", |b| {
        let mut i = 0;
        b.iter(|| {
            let (_, a) = queries[i % queries.len()];
            let (_, z) = queries[(i + 7) % queries.len()];
            i += 1;
            black_box(astar_distance(&w.net, a, z))
        })
    });
    group.finish();
}

/// One contraction-hierarchy build (contraction plus hub labels) of a
/// downtown-sized city: the 6.8 km side of LA scaled down 50× (≈2 000
/// junctions), the set-up a CH-metric simulation pays once.
fn ch_build(c: &mut Criterion) {
    let net = generate_network(&GeneratorConfig::city(6_828.0, 0x9e37));
    let mut group = c.benchmark_group("network_knn");
    group.bench_function("ch_build", |b| {
        b.iter(|| black_box(ChIndex::build_seeded(&net, 1).label_entries()))
    });
    group.finish();
}

/// Hub-label queries on the same downtown-sized city over one kept
/// [`ChScratch`]: point to point (every query from a new source, so each
/// scatters its source label), and one anchor to 16 targets (the anchor's
/// label scattered once, then 16 target scans), the shape of the queries
/// an SNNN model issues from one query point. The seeded pairs (2^16 of
/// each) cycle far beyond the 2^14 answers a scratch keeps, so queries
/// run the scan rather than a kept answer.
fn ch_query(c: &mut Criterion) {
    let net = generate_network(&GeneratorConfig::city(6_828.0, 0x9e37));
    let index = ChIndex::build_seeded(&net, 1);
    let n = net.node_count() as f64;
    let mut rng = BenchRng::new(31);
    let nodes: Vec<NodeId> = (0..1 << 16)
        .map(|_| (rng.next_f64() * n) as NodeId)
        .collect();
    let mut group = c.benchmark_group("network_knn");
    group.bench_function("ch_point_to_point", |b| {
        let mut scratch = ChScratch::new();
        let mut i = 0;
        b.iter(|| {
            let (from, to) = (nodes[i % nodes.len()], nodes[(i + 1) % nodes.len()]);
            i += 2;
            black_box(index.distance_with(from, to, &mut scratch))
        })
    });
    group.bench_function("ch_one_to_many", |b| {
        let mut scratch = ChScratch::new();
        let mut i = 0;
        b.iter(|| {
            let from = nodes[i % nodes.len()];
            let mut sum = 0.0;
            for t in 1..=16 {
                let to = nodes[(i + t) % nodes.len()];
                sum += index.distance_with(from, to, &mut scratch).unwrap_or(0.0);
            }
            i += 17;
            black_box(sum)
        })
    });
    group.finish();
}

/// One road trip as a mover plans it, on a county-size network (the
/// 24 140 m side of the `county_road` workload) over a seeded list of 512
/// trips whose ends lie within 3 km, the movers' trip radius: Euclidean
/// A\* (`astar_path`, the reference) against ALT over the network's route
/// index (`alt_path_into`, what movers run). The index is built before
/// timing.
fn route_plan(c: &mut Criterion) {
    let side = 24_140.0;
    let net = generate_network(&GeneratorConfig::city(side, 0x9e37));
    let n = net.node_count() as f64;
    let mut rng = BenchRng::new(29);
    let mut trips: Vec<(NodeId, NodeId)> = Vec::with_capacity(512);
    while trips.len() < 512 {
        let from = (rng.next_f64() * n) as NodeId;
        let to = (rng.next_f64() * n) as NodeId;
        if from != to && net.position(from).dist(net.position(to)) <= 3_000.0 {
            trips.push((from, to));
        }
    }
    let index = net.route_index();
    let mut group = c.benchmark_group("network_knn");
    group.bench_function("route_plan_astar", |b| {
        let mut i = 0;
        b.iter(|| {
            let (from, to) = trips[i % trips.len()];
            i += 1;
            black_box(astar_path(&net, from, to))
        })
    });
    group.bench_function("route_plan_alt", |b| {
        let mut route = Vec::new();
        let mut i = 0;
        b.iter(|| {
            let (from, to) = trips[i % trips.len()];
            i += 1;
            black_box(alt_path_into(&net, index, from, to, &mut route))
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = network_knn, ch_build, ch_query, route_plan
}
criterion_main!(benches);
