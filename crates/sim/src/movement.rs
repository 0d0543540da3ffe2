//! Host movement (the mobile-host module's mobility half, Section 4.1):
//! the world's movement mode, per-host mobility construction, and the
//! per-interval advance step that carries every host forward in simulated
//! time. The Poisson draw shared by batch sizing and POI churn lives here
//! too, since both model event arrivals over the same intervals.

use rand::rngs::SmallRng;
use rand::Rng;

use senn_geom::Point;
use senn_mobility::{HostMobility, RandomWaypoint, RoadMover, RoadMoverConfig, WaypointConfig};
use senn_network::{NodeLocator, RoadNetwork};

use crate::simulator::Simulator;

/// Movement mode of the mobile hosts (Section 4.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MovementMode {
    /// Hosts follow the road network at per-segment speed limits.
    RoadNetwork,
    /// Hosts move freely (random waypoint) at a fixed velocity.
    FreeMovement,
}

/// Builds one host's mobility state: parked hosts stay at their start
/// position; movers follow the configured mode.
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_mobility(
    mode: MovementMode,
    start: Point,
    moves: bool,
    network: &RoadNetwork,
    locator: &NodeLocator,
    mover_cfg: RoadMoverConfig,
    waypoint_cfg: WaypointConfig,
    rng: &mut SmallRng,
) -> HostMobility {
    if !moves {
        return HostMobility::Parked(start);
    }
    match mode {
        MovementMode::FreeMovement => {
            HostMobility::Free(RandomWaypoint::new(start, waypoint_cfg, rng))
        }
        MovementMode::RoadNetwork => {
            let node = locator.nearest(start).expect("network non-empty");
            HostMobility::Road(RoadMover::new(network, node, mover_cfg))
        }
    }
}

impl Simulator {
    /// Moves every mobile host forward by `dt` seconds, streaming over the
    /// store's columns and keeping the peer-discovery grid current as a
    /// side effect: each host that crossed a cell boundary costs two
    /// sorted cell-list edits, everything else costs nothing. Parked hosts
    /// are skipped entirely — their `step` is a no-op that draws no RNG,
    /// so the trajectory of every mover is bit-identical to the
    /// visit-everyone loop.
    pub(crate) fn advance_movement(&mut self, dt: f64) {
        let started = std::time::Instant::now();
        let Simulator {
            store,
            grid,
            network,
            batch_stats,
            ..
        } = self;
        let net = network.as_ref();
        let (positions, mobility, rngs, movers) = store.movement_columns();
        let mut cell_moves = 0u64;
        for &i in movers {
            let i = i as usize;
            mobility[i].step(net, dt, &mut rngs[i]);
            let p = mobility[i].position();
            positions[i] = p;
            if grid.apply_move(i as u32, p) {
                cell_moves += 1;
            }
        }
        batch_stats.grid_cell_moves += cell_moves;
        batch_stats.move_secs += started.elapsed().as_secs_f64();
    }
}

/// Draws a Poisson-distributed count (Knuth's method; λ stays small here
/// because it is per-interval).
pub(crate) fn poisson(lambda: f64, rng: &mut SmallRng) -> u64 {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda > 700.0 {
        // Normal approximation for very large λ (full-size Table 4 runs).
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
        let z = (-2.0 * u1.ln()).sqrt() * u2.cos();
        return (lambda + z * lambda.sqrt()).round().max(0.0) as u64;
    }
    let l = (-lambda).exp();
    let mut k = 0u64;
    let mut p = 1.0;
    loop {
        p *= rng.gen_range(0.0..1.0);
        if p <= l {
            return k;
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::HostGrid;
    use crate::params::{ParamSet, SimParams};
    use crate::simulator::SimConfig;
    use rand::SeedableRng;
    use senn_geom::Rect;

    /// After a whole run the grid the movement pass maintained answers
    /// every peer lookup exactly — ids and order — like a fresh build
    /// over the final position column.
    #[test]
    fn maintained_grid_equals_fresh_build_after_a_run() {
        let mut params = SimParams::two_by_two(ParamSet::LosAngeles);
        params.t_execution_hours = 0.05;
        let road = SimConfig::new(params, 7);
        let mut free = SimConfig::new(params, 42);
        free.mode = MovementMode::FreeMovement;
        free.poi_churn_per_hour = 16.0;
        free.cache_ttl_secs = Some(60.0);
        for cfg in [road, free] {
            let mut sim = Simulator::new(cfg);
            sim.run();
            assert!(sim.batch_stats.grid_cell_moves > 0, "{:?}", cfg.mode);
            let positions = sim.store.positions();
            let range = cfg.params.tx_range_m;
            let side = cfg.params.area_side_m();
            let area = Rect::new(Point::ORIGIN, Point::new(side, side));
            let fresh = HostGrid::build(area, range.max(1.0), positions);
            let (mut kept, mut built) = (Vec::new(), Vec::new());
            for (h, &p) in positions.iter().enumerate() {
                sim.grid
                    .within_into(positions, p, range, h as u32, &mut kept);
                fresh.within_into(positions, p, range, h as u32, &mut built);
                assert_eq!(kept, built, "{:?} host {h}", cfg.mode);
            }
        }
    }

    #[test]
    fn poisson_sanity() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut total = 0u64;
        for _ in 0..2000 {
            total += poisson(3.0, &mut rng);
        }
        let mean = total as f64 / 2000.0;
        assert!((mean - 3.0).abs() < 0.2, "poisson mean {mean}");
        assert_eq!(poisson(0.0, &mut rng), 0);
        // Large-λ path.
        let big = poisson(10_000.0, &mut rng);
        assert!((big as f64 - 10_000.0).abs() < 500.0);
    }
}
