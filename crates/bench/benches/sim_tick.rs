//! End-to-end simulator throughput on the scaled Los Angeles world, under
//! road and (`_free_`) free movement, plus the peer-discovery ablation:
//! incrementally maintained grid (what the simulator runs) vs a fresh build per interval vs naive linear scan,
//! and grid upkeep at a million hosts: per-host `apply_move` vs
//! stage-then-commit (what the movement pass runs). The maintained and
//! staged variants also run with storage cells five times the 200 m
//! range (`_storage_5r`), the layout free-movement worlds use.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use senn_bench::random_points;
use senn_geom::{Point, Rect};
use senn_sim::{HostGrid, MovementMode, ParamSet, SimConfig, SimParams, Simulator};

fn sim_tick(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_tick");
    group.bench_function("la_2x2_one_minute", |b| {
        b.iter(|| {
            let mut params = SimParams::two_by_two(ParamSet::LosAngeles);
            params.t_execution_hours = 1.0 / 60.0;
            let mut cfg = SimConfig::new(params, 7);
            cfg.warmup_frac = 0.0;
            let mut sim = Simulator::new(cfg);
            black_box(sim.run().queries)
        })
    });
    group.bench_function("la_30x30_scaled400_one_minute", |b| {
        b.iter(|| {
            let mut params = SimParams::thirty_by_thirty(ParamSet::LosAngeles).scaled_down(400.0);
            params.t_execution_hours = 1.0 / 60.0;
            let mut cfg = SimConfig::new(params, 7);
            cfg.warmup_frac = 0.0;
            let mut sim = Simulator::new(cfg);
            black_box(sim.run().queries)
        })
    });
    group.bench_function("la_30x30_scaled400_free_one_minute", |b| {
        b.iter(|| {
            let mut params = SimParams::thirty_by_thirty(ParamSet::LosAngeles).scaled_down(400.0);
            params.t_execution_hours = 1.0 / 60.0;
            let mut cfg = SimConfig::new(params, 7);
            cfg.mode = MovementMode::FreeMovement;
            cfg.warmup_frac = 0.0;
            let mut sim = Simulator::new(cfg);
            black_box(sim.run().queries)
        })
    });

    // Peer-discovery ablation at LA density. The maintained variant is
    // the production path: one long-lived grid absorbing per-interval
    // drift through `apply_move`, queried in place. The rebuild variant
    // reconstructs the index from scratch each interval; naive scans all
    // pairs.
    let side = 3218.7;
    let bounds = Rect::new(Point::ORIGIN, Point::new(side, side));
    let positions = random_points(463, side, 13);
    let sides = [("", 200.0), ("_storage_5r", 1000.0)];
    for (suffix, storage) in sides {
        group.bench_function(format!("peer_discovery_maintained{suffix}"), |b| {
            // Deterministic per-iteration drift (~27 m, a 2 s interval at
            // 30 mph) — most moves stay inside their storage cell, exactly
            // the regime incremental maintenance exploits. Host and tick
            // are mixed (the splitmix64 finalizer), so both axes take a
            // fresh step every iteration and the hosts diffuse rather than
            // pile onto the clamped edges.
            let mut moved = positions.clone();
            let mut grid =
                HostGrid::build_with_storage(bounds, 200.0, storage, moved.iter().copied());
            let mut tick = 0u64;
            b.iter(|| {
                tick += 1;
                for (i, p) in moved.iter_mut().enumerate() {
                    let mut phase = (i as u64) << 32 ^ tick;
                    phase = (phase ^ phase >> 30).wrapping_mul(0xbf58476d1ce4e5b9);
                    phase = (phase ^ phase >> 27).wrapping_mul(0x94d049bb133111eb);
                    phase ^= phase >> 31;
                    let dx = ((phase & 0xff) as f64 / 255.0 - 0.5) * 54.0;
                    let dy = (((phase >> 8) & 0xff) as f64 / 255.0 - 0.5) * 54.0;
                    p.x = (p.x + dx).clamp(0.0, side);
                    p.y = (p.y + dy).clamp(0.0, side);
                    grid.apply_move(i as u32, *p);
                }
                let mut total = 0usize;
                for (i, p) in moved.iter().enumerate().take(64) {
                    total += grid.within(&moved, *p, 200.0, i as u32).len();
                }
                black_box(total)
            })
        });
    }
    group.bench_function("peer_discovery_rebuild", |b| {
        b.iter(|| {
            let grid = HostGrid::build(bounds, 200.0, &positions);
            let mut total = 0usize;
            for (i, p) in positions.iter().enumerate().take(64) {
                total += grid.within(&positions, *p, 200.0, i as u32).len();
            }
            black_box(total)
        })
    });
    group.bench_function("peer_discovery_naive", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for (i, p) in positions.iter().enumerate().take(64) {
                total += positions
                    .iter()
                    .enumerate()
                    .filter(|&(j, o)| j != i && p.dist(*o) <= 200.0)
                    .count();
            }
            black_box(total)
        })
    });

    // Grid upkeep at `million_free`'s geometry: 1 M hosts on 200 m cells
    // over a 138.5 km side (693² cells). Every host in every 20th slot
    // sits one cell east in the second position set; each iteration
    // sweeps all hosts to the other set, so ≈5 % of them cross a
    // boundary per iteration, in either direction.
    let side = 138_500.0;
    let bounds = Rect::new(Point::ORIGIN, Point::new(side, side));
    let sets = || {
        let home = random_points(1_000_000, side, 17);
        let east = home
            .iter()
            .enumerate()
            .map(|(i, p)| match i % 20 {
                0 => Point::new((p.x + 200.0).min(side), p.y),
                _ => *p,
            })
            .collect::<Vec<_>>();
        (home, east)
    };
    group.bench_function("grid_commit_apply_move", |b| {
        let (home, east) = sets();
        let mut grid = HostGrid::build(bounds, 200.0, &home);
        let mut tick = 0usize;
        b.iter(|| {
            tick += 1;
            let target = if tick % 2 == 1 { &east } else { &home };
            let mut crossed = 0usize;
            for (i, p) in target.iter().enumerate() {
                crossed += usize::from(grid.apply_move(i as u32, *p));
            }
            black_box(crossed)
        })
    });
    for (suffix, storage) in sides {
        // With 1 000 m storage cells a fifth of the shifted hosts cross.
        group.bench_function(format!("grid_commit_staged{suffix}"), |b| {
            let (home, east) = sets();
            let mut grid =
                HostGrid::build_with_storage(bounds, 200.0, storage, home.iter().copied());
            let mut staged = Vec::new();
            let mut tick = 0usize;
            b.iter(|| {
                tick += 1;
                let target = if tick % 2 == 1 { &east } else { &home };
                staged.clear();
                for (i, p) in target.iter().enumerate() {
                    if let Some(crossed) = grid.crossing(i as u32, *p) {
                        staged.push(crossed);
                    }
                }
                grid.commit(&staged);
                black_box(staged.len())
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = sim_tick
}
criterion_main!(benches);
