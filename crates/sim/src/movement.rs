//! Host movement (the mobile-host module's mobility half, Section 4.1):
//! the world's movement mode, and the per-interval pass that carries
//! every mover forward in simulated time. The Poisson draw shared by batch
//! sizing and POI churn lives here too, since both model event arrivals
//! over the same intervals.
//!
//! The pass has two phases, so that the grid edits leave the visits:
//!
//! * **visit** — one loop per movement mode, picked once per pass: bring
//!   each mover that may have changed to the interval's end, then the
//!   read-only crossing check (the grid's constants copied out once per
//!   pass, as [`HostGrid::crossing`](crate::grid::HostGrid::crossing)
//!   computes it), which stages the host's new cell if it left its
//!   recorded one;
//! * **commit** — apply the interval's staged crossings in one
//!   [`HostGrid::commit`](crate::grid::HostGrid::commit).
//!
//! A visit reads only its mover's state, the road network and its host's
//! stream, never the grid, and staging order is ascending host id. So the
//! commit makes the edits per-host `apply_move` calls inside the loop
//! would make, in the same order, and the grid after every interval is
//! the same either way.
//!
//! **Free movers move in closed form.** A random-waypoint mover's position
//! is a function of time ([`WaypointLeg`](senn_mobility::WaypointLeg)):
//! the store keeps each host's anchor and leg in one record by host id,
//! and readers evaluate it on demand
//! ([`HostStore::position`](crate::store::HostStore::position)). The pass
//! visits a free mover only when the [`Calendar`](crate::calendar) says
//! it may have left its storage cell (`grid` module docs) or reached its
//! waypoint: it then carries the leg to the interval's end (drawing the
//! pause and the next destination on each arrival, from the host's own
//! stream, in the order the incremental step drew them), checks the cell
//! and files the mover under its next event. Visits go in host order. A
//! pass therefore costs the movers that crossed or arrived, not every
//! mover; parked hosts are never filed, so never visited.
//!
//! **Road movers sweep.** Every road mover steps every interval; it keeps
//! its current segment resident (`senn_mobility::road`), so a step along
//! it reads neither the route nor the network. A road mover that finishes
//! a trip plans the next with ALT over the network's route index
//! (`RoadNetwork::route_index`). The first road pass builds that index,
//! so its cost lands in the run, not in `Simulator::new`, and a
//! free-movement world never pays it; the pass times the build
//! (`BatchStats::route_index_secs`, part of `move_secs`) and counts the
//! plans and their settled nodes (`route_plans`, `route_settles`), not
//! timing plans one by one.

use std::time::Instant;

use rand::rngs::SmallRng;
use rand::Rng;

use crate::simulator::Simulator;
use crate::store::{FreeHost, HostColumn};

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
    /// that crossed a storage-cell boundary costs two cell-list edits,
    /// everything else costs nothing. Parked hosts are not visited: they
    /// never move and would draw no RNG.
    pub(crate) fn advance_movement(&mut self, dt: f64) {
        let started = Instant::now();
        // The time the simulator's own clock reaches at this interval's
        // end: the same sum, so the same bits.
        let end = self.time + dt;
        let Simulator {
            store,
            grid,
            network,
            batch_stats,
            crossings,
            ..
        } = self;
        let (mobility, streams) = store.movement_columns();
        crossings.clear();
        match mobility {
            HostColumn::Free {
                config,
                hosts,
                calendar,
                now,
            } => {
                *now = end;
                let probe = grid.probe();
                batch_stats.mover_visits += calendar.visit_due(end, |chunk, times| {
                    // Read every line the chunk's visits will read before
                    // any visit: the loads are independent of each other,
                    // so their cache misses overlap.
                    let mut touched = 0;
                    for &host in chunk {
                        let FreeHost { anchor, leg } = &hosts[host as usize];
                        touched ^= leg.depart.to_bits()
                            ^ anchor.x.to_bits()
                            ^ u64::from(probe.recorded_cell(host));
                    }
                    std::hint::black_box(touched);
                    for (&host, next) in chunk.iter().zip(times) {
                        let FreeHost { anchor, leg } = &mut hosts[host as usize];
                        let travel = leg.advance(anchor, config, end, &mut streams.host(host));
                        let (crossed, exit) = probe.leg_crossing(host, travel.at(end), &travel);
                        crossings.extend(crossed);
                        *next = exit.min(travel.arrival());
                    }
                }) as u64;
            }
            HostColumn::Road(positions, movers, hosts) if !movers.is_empty() => {
                // Build the movers' route index here, on its own clock.
                if !network.has_route_index() {
                    let began = Instant::now();
                    network.route_index();
                    batch_stats.route_index_secs += began.elapsed().as_secs_f64();
                }
                batch_stats.mover_visits += movers.len() as u64;
                let probe = grid.probe();
                for (mover, &host) in movers.iter_mut().zip(hosts.iter()) {
                    let planned = mover.step(network, dt, &mut streams.host(host));
                    batch_stats.route_plans += planned.plans;
                    batch_stats.route_settles += planned.settled;
                    positions[host as usize] = mover.position();
                    crossings.extend(probe.crossing(host, mover.position()));
                }
            }
            HostColumn::Road(..) => {}
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

    /// The maintained grid records every host in the storage cell of its
    /// position and answers every peer lookup exactly — ids and order —
    /// like a fresh `Tx_Range` build over the hosts' positions: after every
    /// interval of a free world with churn and TTL, whose storage cells are
    /// coarser than the range (so no crossing the calendar defers is ever
    /// missed, and the calendar files every mover exactly once), and after
    /// a whole road run.
    #[test]
    fn maintained_grid_equals_fresh_build_after_a_run() {
        let mut params = SimParams::two_by_two(ParamSet::LosAngeles);
        params.t_execution_hours = 0.05;
        let road = SimConfig::new(params, 7);
        let mut free = SimConfig::new(params, 42);
        free.mode = MovementMode::FreeMovement;
        free.poi_churn_per_hour = 16.0;
        free.cache_ttl_secs = Some(60.0);
        let range = params.tx_range_m;
        let side = params.area_side_m();
        let area = Rect::new(Point::ORIGIN, Point::new(side, side));
        let same_lookups = |sim: &Simulator, what: &str| {
            let positions = sim.store.positions_now();
            let fresh = HostGrid::build(area, range.max(1.0), &positions);
            let (mut kept, mut built) = (Vec::new(), Vec::new());
            for (h, &p) in positions.iter().enumerate() {
                assert_eq!(sim.grid.crossing(h as u32, p), None, "{what} host {h}");
                sim.grid
                    .within_by(|id| sim.store.position(id), p, range, h as u32, &mut kept);
                fresh.within_into(&positions, p, range, h as u32, &mut built);
                assert_eq!(kept, built, "{what} host {h}");
            }
        };
        let mut sim = Simulator::new(free);
        assert!(sim.grid.storage_cell() > 2.0 * range);
        let mut intervals = 0;
        while sim.step() {
            intervals += 1;
            same_lookups(&sim, &format!("free interval {intervals}"));
            let (
                HostColumn::Free {
                    hosts, calendar, ..
                },
                _,
            ) = sim.store.movement_columns()
            else {
                panic!("a free world has a free host column");
            };
            let movers: Vec<u32> = (0..)
                .zip(hosts.iter())
                .filter(|(_, record)| record.leg.depart.is_finite())
                .map(|(host, _)| host)
                .collect();
            let mut filed: Vec<u32> = calendar.filed().iter().map(|&(h, _)| h).collect();
            filed.sort_unstable();
            assert_eq!(filed, movers, "interval {intervals}");
        }
        assert!(intervals > 10 && sim.batch_stats.grid_cell_moves > 0);

        let mut sim = Simulator::new(road);
        assert_eq!(sim.grid.storage_cell(), range);
        sim.run();
        assert!(sim.batch_stats.grid_cell_moves > 0);
        same_lookups(&sim, "road");
    }

    /// A free world with no movers: every host is parked, so the calendar
    /// files none, no pass visits one and every host ends where it
    /// spawned.
    #[test]
    fn a_free_world_without_movers_visits_no_host() {
        let mut params = SimParams::two_by_two(ParamSet::LosAngeles);
        params.t_execution_hours = 0.01;
        params.m_percentage = 0.0;
        let mut cfg = SimConfig::new(params, 42);
        cfg.mode = MovementMode::FreeMovement;
        let mut sim = Simulator::new(cfg);
        let spawned = sim.store.positions_now();
        let metrics = sim.run();
        assert!(metrics.queries > 0);
        assert_eq!(sim.batch_stats.mover_visits, 0);
        assert_eq!(sim.batch_stats.grid_cell_moves, 0);
        assert_eq!(sim.store.positions_now(), spawned);
    }

    /// Trajectories are pinned, not inferred: an order-sensitive FNV-1a of
    /// the bits of every host's final position, and the crossing count,
    /// for the two runs of the test above. The road pin was computed
    /// before the dense mover columns and the inline grid cells; the free
    /// pin when free movers moved to closed-form legs, which changed only
    /// the rounding of their positions. The free crossing count is of
    /// storage cells, 529.5 m wide in this world (`grid::storage_side`;
    /// 1 484 crossings of 200 m cells before). Any change to movement that
    /// is not bit-identical moves these.
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
            (free, 0x2643_0c11_3141_4565_u64, 767),
        ];
        for (cfg, fingerprint, cell_moves) in pinned {
            let mut sim = Simulator::new(cfg);
            sim.run();
            let hash = sim
                .store
                .positions_now()
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
