//! Network kNN: IER vs INE vs SNNN (warm peer caches), plus the Dijkstra
//! vs A\* distance-kernel ablation and the contraction-hierarchy build.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use senn_bench::{honest_peer, network_world, BenchRng};
use senn_core::{snnn_query, RTreeServer, SennEngine, SnnnConfig};
use senn_network::{
    astar_distance, counting_alt, dijkstra_distance, generate_network, ier_knn, ine_knn, AltIndex,
    ChIndex, GeneratorConfig, NetworkDistance,
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

    let mut group = c.benchmark_group("network_knn");
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
            let out = snnn_query(
                &engine,
                q,
                k,
                std::slice::from_ref(&peer),
                &server,
                &mut model,
                SnnnConfig::default(),
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
    let alt = AltIndex::build(&w.net, 8);
    group.bench_function("alt_point_to_point", |b| {
        let mut i = 0;
        b.iter(|| {
            let (_, a) = queries[i % queries.len()];
            let (_, z) = queries[(i + 7) % queries.len()];
            i += 1;
            black_box(counting_alt(&w.net, &alt, a, z))
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

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = network_knn, ch_build
}
criterion_main!(benches);
