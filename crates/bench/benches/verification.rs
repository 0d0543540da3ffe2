//! Client-side verification cost: kNN_single vs kNN_multiple vs a brute
//! force scan, plus the Heuristic 3.3 (peer ordering) ablation.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use senn_bench::{honest_peer, random_points, BenchRng};
use senn_cache::CacheEntry;
use senn_core::multiple::{knn_multiple, RegionMethod};
use senn_core::single::{knn_single_all, sort_peers_by_query_location};
use senn_core::ResultHeap;
use senn_geom::Point;

fn make_world(
    peer_count: usize,
    cache_k: usize,
    seed: u64,
) -> (Point, Vec<Point>, Vec<CacheEntry>) {
    let side = 2_000.0;
    let pois = random_points(200, side, seed);
    let q = Point::new(side / 2.0, side / 2.0);
    let mut rng = BenchRng::new(seed ^ 0x5555);
    let peers: Vec<CacheEntry> = (0..peer_count)
        .map(|_| {
            let loc = Point::new(
                q.x + (rng.next_f64() - 0.5) * 400.0,
                q.y + (rng.next_f64() - 0.5) * 400.0,
            );
            honest_peer(loc, &pois, cache_k)
        })
        .collect();
    (q, pois, peers)
}

fn verification(c: &mut Criterion) {
    let k = 5usize;
    let mut group = c.benchmark_group("verification");
    for peer_count in [2usize, 8, 32] {
        let (q, pois, peers) = make_world(peer_count, 10, peer_count as u64);

        group.bench_with_input(BenchmarkId::new("knn_single", peer_count), &(), |b, _| {
            b.iter(|| {
                let mut sorted = peers.clone();
                sort_peers_by_query_location(q, &mut sorted);
                let mut heap = ResultHeap::new(k);
                knn_single_all(q, &sorted, &mut heap);
                black_box(heap.certain_count())
            })
        });

        group.bench_with_input(
            BenchmarkId::new("knn_single_unsorted", peer_count),
            &(),
            |b, _| {
                // Ablation: skip Heuristic 3.3 — peers processed in arrival
                // order, usually filling the heap later.
                b.iter(|| {
                    let mut heap = ResultHeap::new(k);
                    knn_single_all(q, &peers, &mut heap);
                    black_box(heap.certain_count())
                })
            },
        );

        group.bench_with_input(
            BenchmarkId::new("knn_multiple_polygon", peer_count),
            &(),
            |b, _| {
                b.iter(|| {
                    let mut heap = ResultHeap::new(k);
                    knn_multiple(
                        q,
                        &peers,
                        RegionMethod::Polygonized { vertices: 24 },
                        &mut heap,
                    );
                    black_box(heap.certain_count())
                })
            },
        );

        group.bench_with_input(
            BenchmarkId::new("knn_multiple_exact", peer_count),
            &(),
            |b, _| {
                b.iter(|| {
                    let mut heap = ResultHeap::new(k);
                    knn_multiple(q, &peers, RegionMethod::Exact, &mut heap);
                    black_box(heap.certain_count())
                })
            },
        );

        group.bench_with_input(
            BenchmarkId::new("brute_force_scan", peer_count),
            &(),
            |b, _| {
                // Upper baseline: what the client would pay to scan all POIs
                // (which it cannot actually do — it does not have them).
                b.iter(|| {
                    let mut d: Vec<f64> = pois.iter().map(|p| q.dist(*p)).collect();
                    d.sort_by(|a, b| a.partial_cmp(b).unwrap());
                    black_box(d[k - 1])
                })
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = verification
}
criterion_main!(benches);
