//! Host movement (the mobile-host module's mobility half, Section 4.1):
//! the world's movement mode, and the per-interval sweep that carries
//! every mover forward in simulated time. The Poisson draw shared by batch
//! sizing and POI churn lives here too, since both model event arrivals
//! over the same intervals.
//!
//! The pass has two phases, so that the grid edits leave the sweep:
//!
//! * **step** — walk the store's mover column (`store.rs`) in mover
//!   order, one loop per movement mode picked once per sweep: the model's
//!   one step kernel, then the read-only crossing check (the grid's
//!   constants copied out once per sweep, as
//!   [`HostGrid::crossing`](crate::grid::HostGrid::crossing) computes
//!   it), which stages the host's new cell if it left its recorded one;
//! * **commit** — apply the interval's staged crossings in one
//!   [`HostGrid::commit`](crate::grid::HostGrid::commit).
//!
//! A step reads only its mover's state, the road network and its host's
//! stream, never the grid, and staging order is ascending host id, the
//! order the sweep visits hosts in. So the commit makes the edits
//! per-host `apply_move` calls inside the sweep would make, in the same
//! order, and the grid after every interval is the same either way.
//!
//! A step costs what it changes. A free mover first tries
//! [`glide`](senn_mobility::glide), the kernel's common case (not
//! paused, and short of its waypoint: it moves and draws nothing); only
//! when that refuses is the host's stream handle built and
//! [`step_leg`](senn_mobility::step_leg) run, which tries the same case
//! first, so the step is the one kernel either way. A road mover keeps
//! its current segment resident (`senn_mobility::road`), so a step along
//! it reads neither the route nor the network.
//! Paused movers take the same path as moving ones: a pause is one of
//! the cases `glide` refuses, and skipping paused movers outright
//! measured nothing (EXPERIMENTS.md, "dense mover columns, inline grid
//! cells").
//!
//! A road mover that finishes a trip plans the next with ALT over the
//! network's route index (`RoadNetwork::route_index`). The first road
//! sweep builds that index, so its cost lands in the run, not in
//! `Simulator::new`, and a free-movement world never pays it; the sweep
//! times the build (`BatchStats::route_index_secs`, part of `move_secs`)
//! and counts the plans and their settled nodes (`route_plans`,
//! `route_settles`), not timing plans one by one.

use std::time::Instant;

use rand::rngs::SmallRng;
use rand::Rng;

use senn_mobility::{glide, step_leg};

use crate::simulator::Simulator;
use crate::store::MoverColumn;

/// Movement mode of the mobile hosts (Section 4.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MovementMode {
    /// Hosts follow the road network at per-segment speed limits.
    RoadNetwork,
    /// Hosts move freely (random waypoint) at a fixed velocity.
    FreeMovement,
}

impl Simulator {
    /// Moves every mobile host forward by `dt` seconds (see module docs),
    /// keeping the peer-discovery grid current as a side effect: each host
    /// that crossed a cell boundary costs two sorted cell-list edits,
    /// everything else costs nothing. Parked hosts are not visited: they
    /// have no mobility state and would draw no RNG.
    pub(crate) fn advance_movement(&mut self, dt: f64) {
        let started = Instant::now();
        let Simulator {
            store,
            grid,
            network,
            batch_stats,
            crossings,
            ..
        } = self;
        let (positions, mobility, streams, movers) = store.movement_columns();
        crossings.clear();
        match mobility {
            MoverColumn::Free { config, legs } => {
                let probe = grid.probe();
                for (leg, &host) in legs.iter_mut().zip(movers) {
                    let position = &mut positions[host as usize];
                    if !glide(config, position, leg, dt) {
                        step_leg(config, position, leg, dt, &mut streams.host(host));
                    }
                    crossings.extend(probe.crossing(host, *position));
                }
            }
            MoverColumn::Road(road) if !road.is_empty() => {
                // Build the movers' route index here, on its own clock.
                if !network.has_route_index() {
                    let began = Instant::now();
                    network.route_index();
                    batch_stats.route_index_secs += began.elapsed().as_secs_f64();
                }
                let probe = grid.probe();
                for (mover, &host) in road.iter_mut().zip(movers) {
                    let planned = mover.step(network, dt, &mut streams.host(host));
                    batch_stats.route_plans += planned.plans;
                    batch_stats.route_settles += planned.settled;
                    positions[host as usize] = mover.position();
                    crossings.extend(probe.crossing(host, mover.position()));
                }
            }
            MoverColumn::Road(_) => {}
        }
        let stepped = Instant::now();
        grid.commit(crossings);
        let done = Instant::now();
        batch_stats.grid_cell_moves += crossings.len() as u64;
        batch_stats.grid_secs += (done - stepped).as_secs_f64();
        batch_stats.move_secs += (done - started).as_secs_f64();
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
    use senn_geom::{Point, Rect};

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

    /// Trajectories are pinned, not inferred: an order-sensitive FNV-1a of
    /// the final position column's bits, and the crossing count, for the
    /// two runs of the test above — computed at the commit *before* the
    /// dense mover columns and the inline grid cells.
    /// Any change to movement that is not bit-identical moves these.
    #[test]
    fn trajectory_fingerprints_are_pinned() {
        let mut params = SimParams::two_by_two(ParamSet::LosAngeles);
        params.t_execution_hours = 0.05;
        let road = SimConfig::new(params, 7);
        let mut free = SimConfig::new(params, 42);
        free.mode = MovementMode::FreeMovement;
        free.poi_churn_per_hour = 16.0;
        free.cache_ttl_secs = Some(60.0);
        let pinned = [
            (road, 0x6611_270d_78ec_521e_u64, 2245),
            (free, 0x426a_0c0c_e55e_f1d1_u64, 1484),
        ];
        for (cfg, fingerprint, cell_moves) in pinned {
            let mut sim = Simulator::new(cfg);
            sim.run();
            let hash = sim
                .store
                .positions()
                .iter()
                .flat_map(|p| [p.x.to_bits(), p.y.to_bits()])
                .fold(0xcbf2_9ce4_8422_2325_u64, |h, bits| {
                    (h ^ bits).wrapping_mul(0x0000_0100_0000_01b3)
                });
            assert_eq!(hash, fingerprint, "{:?} positions", cfg.mode);
            assert_eq!(
                sim.batch_stats.grid_cell_moves, cell_moves,
                "{:?}",
                cfg.mode
            );
        }
    }

    /// The commit phase is timed inside the movement pass: on a run with
    /// crossings its total is positive and never more than the pass's.
    #[test]
    fn grid_secs_is_part_of_move_secs() {
        let mut params = SimParams::two_by_two(ParamSet::LosAngeles);
        params.t_execution_hours = 0.01;
        let mut cfg = SimConfig::new(params, 42);
        cfg.mode = MovementMode::FreeMovement;
        let mut sim = Simulator::new(cfg);
        sim.run();
        let stats = sim.batch_stats;
        assert!(stats.grid_cell_moves > 0);
        assert!(
            0.0 < stats.grid_secs && stats.grid_secs <= stats.move_secs,
            "grid {} move {}",
            stats.grid_secs,
            stats.move_secs
        );
    }

    /// Route planning has its ledger line: a road run builds the route
    /// index once, in its first movement pass (not in `Simulator::new`),
    /// and counts every plan and settle; a free-movement run plans
    /// nothing and builds nothing.
    #[test]
    fn only_road_runs_build_the_route_index_and_only_once() {
        let mut params = SimParams::two_by_two(ParamSet::LosAngeles);
        params.t_execution_hours = 0.01;
        let mut free_cfg = SimConfig::new(params, 42);
        free_cfg.mode = MovementMode::FreeMovement;
        let mut free = Simulator::new(free_cfg);
        free.run();
        let stats = free.batch_stats;
        assert_eq!(stats.route_plans, 0);
        assert_eq!(stats.route_settles, 0);
        assert_eq!(stats.route_index_secs, 0.0);
        assert!(!free.network.has_route_index());

        let mut road = Simulator::new(SimConfig::new(params, 7));
        assert!(!road.network.has_route_index());
        assert!(road.step());
        let built = road.batch_stats.route_index_secs;
        assert!(built > 0.0 && road.network.has_route_index());
        let index: *const senn_network::AltIndex = road.network.route_index();
        road.run();
        let stats = road.batch_stats;
        assert_eq!(stats.route_index_secs, built, "built once");
        assert!(std::ptr::eq(index, road.network.route_index()));
        assert!(stats.route_plans > 0, "{stats:?}");
        assert!(stats.route_settles >= 2 * stats.route_plans, "{stats:?}");
        assert!(stats.route_index_secs <= stats.move_secs);
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
