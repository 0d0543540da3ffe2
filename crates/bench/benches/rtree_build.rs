//! R\*-tree construction: one-by-one R\* inserts vs STR bulk loading, and
//! the forced-reinsert ablation (reinsert count 1 ≈ off vs the R\*
//! recommended 30 %).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use senn_bench::random_points;
use senn_rtree::{RStarTree, TreeConfig};

fn build(c: &mut Criterion) {
    let mut group = c.benchmark_group("rtree_build");
    for n in [1_000usize, 10_000] {
        let pts = random_points(n, 10_000.0, 11);
        group.bench_with_input(BenchmarkId::new("insert_rstar", n), &n, |b, _| {
            b.iter(|| {
                let mut tree = RStarTree::new();
                for (i, p) in pts.iter().enumerate() {
                    tree.insert(*p, i as u32);
                }
                black_box(tree.len())
            })
        });
        group.bench_with_input(BenchmarkId::new("bulk_str", n), &n, |b, _| {
            b.iter(|| {
                let items: Vec<_> = pts
                    .iter()
                    .enumerate()
                    .map(|(i, p)| (*p, i as u32))
                    .collect();
                black_box(RStarTree::bulk_load(items).len())
            })
        });
        group.bench_with_input(
            BenchmarkId::new("insert_minimal_reinsert", n),
            &n,
            |b, _| {
                // Ablation: reinsert_count = 1 nearly disables forced reinsert.
                let cfg = TreeConfig {
                    reinsert_count: 1,
                    ..TreeConfig::default()
                };
                b.iter(|| {
                    let mut tree = RStarTree::with_config(cfg);
                    for (i, p) in pts.iter().enumerate() {
                        tree.insert(*p, i as u32);
                    }
                    black_box(tree.len())
                })
            },
        );
    }
    group.finish();

    // Query quality of the resulting trees (accesses per 10-NN query).
    let pts = random_points(10_000, 10_000.0, 11);
    let mut incr = RStarTree::new();
    for (i, p) in pts.iter().enumerate() {
        incr.insert(*p, i as u32);
    }
    let bulk = RStarTree::bulk_load(
        pts.iter()
            .enumerate()
            .map(|(i, p)| (*p, i as u32))
            .collect(),
    );
    let mut acc_incr = 0u64;
    let mut acc_bulk = 0u64;
    let mut rng = senn_bench::BenchRng::new(3);
    for _ in 0..100 {
        let q = rng.point(10_000.0);
        acc_incr += incr.knn(q, 10).1;
        acc_bulk += bulk.knn(q, 10).1;
    }
    println!(
        "[rtree_build] mean 10-NN accesses: incremental {:.1}, STR {:.1}",
        acc_incr as f64 / 100.0,
        acc_bulk as f64 / 100.0
    );
    println!(
        "[rtree_build] stats: incremental {:?}\n                 STR {:?}",
        incr.stats(),
        bulk.stats()
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = build
}
criterion_main!(benches);
