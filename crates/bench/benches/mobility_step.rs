//! Per-step cost of the two mobility models: per object (`mobility_step`,
//! a `Vec<HostMobility>`) and over the simulator's dense columns
//! (`column_sweep`: a mover column beside a position column and a per-host
//! RNG column, half the population paused for the whole measurement). A
//! road mover steps; a free mover's closed-form leg is carried to the
//! sweep's time and evaluated there, which is what the simulator does for
//! each free mover its calendar brings due (without the grid).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use senn_geom::{Point, Rect};
use senn_mobility::{
    HostMobility, RandomWaypoint, RoadMover, RoadMoverConfig, WaypointConfig, WaypointLeg,
};
use senn_network::{generate_network, GeneratorConfig, NodeLocator};

fn start(i: usize) -> Point {
    Point::new((i % 50) as f64 * 60.0, (i / 50 % 50) as f64 * 60.0)
}

fn mobility(c: &mut Criterion) {
    let side = 3_200.0;
    let area = Rect::new(Point::ORIGIN, Point::new(side, side));
    let net = generate_network(&GeneratorConfig::city(side, 5));
    let locator = NodeLocator::new(&net);

    let mut group = c.benchmark_group("mobility_step");
    for hosts in [100usize, 1000] {
        group.bench_with_input(BenchmarkId::new("free", hosts), &hosts, |b, &hosts| {
            let mut rng = SmallRng::seed_from_u64(1);
            let mut movers: Vec<HostMobility> = (0..hosts)
                .map(|i| {
                    HostMobility::Free(RandomWaypoint::new(
                        start(i),
                        WaypointConfig::new(area, 13.4),
                        &mut rng,
                    ))
                })
                .collect();
            b.iter(|| {
                for m in &mut movers {
                    m.step(None, 1.0, &mut rng);
                }
                black_box(movers[0].position())
            })
        });
        group.bench_with_input(BenchmarkId::new("road", hosts), &hosts, |b, &hosts| {
            let mut rng = SmallRng::seed_from_u64(2);
            let mut movers: Vec<HostMobility> = (0..hosts)
                .map(|i| {
                    let node = locator.nearest(start(i)).unwrap();
                    HostMobility::Road(RoadMover::new(&net, node, RoadMoverConfig::new(13.4)))
                })
                .collect();
            b.iter(|| {
                for m in &mut movers {
                    m.step(Some(&net), 1.0, &mut rng);
                }
                black_box(movers[0].position())
            })
        });
    }
    group.finish();

    // The movers of `Simulator::advance_movement`, minus the grid and the
    // calendar. Odd movers sit out a pause no measurement outlasts; even
    // ones never pause.
    const LONG_PAUSE_SECS: f64 = 1e12;
    let mut group = c.benchmark_group("column_sweep");
    for hosts in [1000usize, 100_000] {
        let rngs = || -> Vec<SmallRng> {
            (0..hosts)
                .map(|i| SmallRng::seed_from_u64(i as u64))
                .collect()
        };
        group.bench_with_input(BenchmarkId::new("free", hosts), &hosts, |b, &hosts| {
            let mut config = WaypointConfig::new(area, 13.4);
            config.max_pause_secs = 0.0;
            let mut rngs = rngs();
            let mut anchors: Vec<Point> = (0..hosts).map(start).collect();
            let mut legs: Vec<WaypointLeg> = (0..hosts)
                .map(|i| {
                    let mut leg = WaypointLeg::new(&config, anchors[i], &mut rngs[i]);
                    leg.depart = (i % 2) as f64 * LONG_PAUSE_SECS;
                    leg
                })
                .collect();
            let mut clock = 0.0;
            b.iter(|| {
                clock += 1.0;
                let mut last = Point::ORIGIN;
                for (i, leg) in legs.iter_mut().enumerate() {
                    last = leg
                        .advance(&mut anchors[i], &config, clock, &mut rngs[i])
                        .at(clock);
                }
                black_box(last)
            })
        });
        group.bench_with_input(BenchmarkId::new("road", hosts), &hosts, |b, &hosts| {
            let mut rngs = rngs();
            let mut positions: Vec<Point> = (0..hosts).map(start).collect();
            let mut movers: Vec<RoadMover> = (0..hosts)
                .map(|i| {
                    let mut config = RoadMoverConfig::new(13.4);
                    config.max_pause_secs = (i % 2) as f64 * LONG_PAUSE_SECS;
                    let node = locator.nearest(positions[i]).unwrap();
                    RoadMover::new(&net, node, config)
                })
                .collect();
            // Odd movers draw their long pause at the end of a first trip;
            // an hour is longer than any trip on this network.
            for (i, mover) in movers.iter_mut().enumerate().skip(1).step_by(2) {
                mover.step(&net, 3600.0, &mut rngs[i]);
                positions[i] = mover.position();
            }
            b.iter(|| {
                for (i, mover) in movers.iter_mut().enumerate() {
                    mover.step(&net, 1.0, &mut rngs[i]);
                    positions[i] = mover.position();
                }
                black_box(positions[0])
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = mobility
}
criterion_main!(benches);
