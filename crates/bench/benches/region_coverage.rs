//! Certain-region coverage test: the exact disk-union arrangement queries
//! run on vs the paper's polygonization (for vertex counts 8–32, the
//! ablation DESIGN.md calls out) vs the single-disk fast path — on 64 unrelated candidates
//! per region (`region_coverage`) and on what one verification walk asks
//! of its region, its covered radius (`walk`).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use senn_bench::BenchRng;
use senn_geom::{Circle, DiskRegion, Point, PolygonRegion};

fn scenario(disks: usize, seed: u64) -> (Vec<Circle>, Vec<Circle>) {
    let mut rng = BenchRng::new(seed);
    let sources: Vec<Circle> = (0..disks)
        .map(|_| {
            Circle::new(
                Point::new(rng.next_f64() * 10.0, rng.next_f64() * 10.0),
                1.0 + rng.next_f64() * 2.0,
            )
        })
        .collect();
    let candidates: Vec<Circle> = (0..64)
        .map(|_| {
            Circle::new(
                Point::new(rng.next_f64() * 10.0, rng.next_f64() * 10.0),
                0.3 + rng.next_f64() * 1.5,
            )
        })
        .collect();
    (sources, candidates)
}

fn coverage(c: &mut Criterion) {
    let mut group = c.benchmark_group("region_coverage");
    for disks in [2usize, 4, 8, 16] {
        let (sources, candidates) = scenario(disks, disks as u64 * 31);
        for vertices in [8usize, 16, 24, 32] {
            group.bench_with_input(
                BenchmarkId::new(format!("polygon_{vertices}v"), disks),
                &(),
                |b, _| {
                    b.iter(|| {
                        let mut region = PolygonRegion::from_circles(&sources, vertices);
                        let mut covered = 0;
                        for cand in &candidates {
                            if region.covers_circle(cand) {
                                covered += 1;
                            }
                        }
                        black_box(covered)
                    })
                },
            );
        }
        group.bench_with_input(BenchmarkId::new("exact_arcs", disks), &(), |b, _| {
            b.iter(|| {
                let mut region = DiskRegion::from_circles(&sources);
                let mut covered = 0;
                for cand in &candidates {
                    if region.covers_circle(cand) {
                        covered += 1;
                    }
                }
                black_box(covered)
            })
        });
        group.bench_with_input(BenchmarkId::new("single_disk_lemma", disks), &(), |b, _| {
            // Lemma 3.2 fast path: test each candidate against each disk
            // alone (no union) — cheap but verifies fewer candidates.
            b.iter(|| {
                let mut covered = 0;
                for cand in &candidates {
                    if sources.iter().any(|s| s.contains_circle(cand)) {
                        covered += 1;
                    }
                }
                black_box(covered)
            })
        });
    }
    group.finish();

    // Report the acceptance-rate side of the ablation: how many candidates
    // each representation certifies (quality, not speed).
    let (sources, candidates) = scenario(8, 99);
    let mut exact = DiskRegion::from_circles(&sources);
    let exact_n = candidates.iter().filter(|c| exact.covers_circle(c)).count();
    for vertices in [8usize, 16, 24, 32] {
        let mut poly = PolygonRegion::from_circles(&sources, vertices);
        let n = candidates.iter().filter(|c| poly.covers_circle(c)).count();
        println!("[region_coverage] {vertices}-gon certifies {n}/{exact_n} of what exact does");
    }
    let single = candidates
        .iter()
        .filter(|c| sources.iter().any(|s| s.contains_circle(c)))
        .count();
    println!("[region_coverage] single-disk test certifies {single}/{exact_n}");
}

/// What the simulator runs: one region of six overlapping peer disks,
/// built once per walk, then one covered radius around one centre near
/// the disks' centres, capped at the farthest of three candidates (1.2,
/// 1.7 and 2.4 away; the last one pokes out), which certifies all three
/// rows at once.
fn walk(c: &mut Criterion) {
    let mut rng = BenchRng::new(0x3a11);
    let sources: Vec<Circle> = (0..6)
        .map(|_| {
            Circle::new(
                Point::new(4.0 + rng.next_f64() * 2.0, 4.0 + rng.next_f64() * 2.0),
                2.0 + rng.next_f64(),
            )
        })
        .collect();
    let query = Point::new(5.0, 5.0);
    let rows = [1.2, 1.7, 2.4];
    let cap = rows[rows.len() - 1];
    let mut group = c.benchmark_group("walk");
    group.bench_function("exact_6_disks_3_rows", |b| {
        b.iter(|| {
            let mut region = DiskRegion::from_circles(&sources);
            let radius = region.covered_radius(query, cap);
            black_box(rows.iter().filter(|&&d| d <= radius).count())
        })
    });
    group.bench_function("polygon_24v_6_disks_3_rows", |b| {
        b.iter(|| {
            let mut region = PolygonRegion::from_circles(&sources, 24);
            let radius = region.covered_radius(query, cap);
            black_box(rows.iter().filter(|&&d| d <= radius).count())
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = coverage, walk
}
criterion_main!(benches);
