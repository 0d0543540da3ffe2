#![warn(missing_docs)]
//! # senn-mobility
//!
//! Mobility models for the mobile hosts of the simulation (Section 4.1).
//!
//! The paper's movement generator has two modes:
//!
//! * **Free movement** — the random waypoint model (Broch et al., MobiCom
//!   1998): pick a uniform destination inside the area, travel straight at
//!   a fixed velocity, pause a random interval, repeat.
//! * **Road network** — the same waypoint logic constrained to the
//!   modeling graph: pick a destination junction, follow the shortest
//!   path, travel each segment at `min(host velocity, segment speed
//!   limit)` ("each mobile host monitors the speed limit on the road it
//!   is currently traveling on and adjusts its velocity accordingly").
//!
//! A configurable percentage of hosts (`M_percentage`) moves at all; the
//! rest are parked. All trajectories are deterministic in the per-host RNG.

pub mod road;
pub mod waypoint;

use rand::rngs::SmallRng;
use senn_geom::Point;
use senn_network::RoadNetwork;

pub use road::{RoadMover, RoadMoverConfig, RoutePlans};
pub use waypoint::{RandomWaypoint, Travel, WaypointConfig, WaypointLeg};

/// The movement state of one mobile host.
#[derive(Clone, Debug)]
pub enum HostMobility {
    /// A host that never moves (the `1 - M_percentage` fraction).
    Parked(Point),
    /// Free-movement random waypoint.
    Free(RandomWaypoint),
    /// Road-network-constrained movement.
    Road(RoadMover),
}

impl HostMobility {
    /// Current position of the host.
    pub fn position(&self) -> Point {
        match self {
            HostMobility::Parked(p) => *p,
            HostMobility::Free(m) => m.position(),
            HostMobility::Road(m) => m.position(),
        }
    }

    /// Advances the host by `dt_secs` of simulated time. Road movers need
    /// the network they travel on, and plan over its
    /// [`RoadNetwork::route_index`]; the other variants ignore it.
    pub fn step(&mut self, net: Option<&RoadNetwork>, dt_secs: f64, rng: &mut SmallRng) {
        match self {
            HostMobility::Parked(_) => {}
            HostMobility::Free(m) => m.step(dt_secs, rng),
            HostMobility::Road(m) => {
                m.step(
                    net.expect("road movers need the road network"),
                    dt_secs,
                    rng,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use senn_geom::Rect;

    #[test]
    fn parked_host_never_moves() {
        let mut host = HostMobility::Parked(Point::new(3.0, 4.0));
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..100 {
            host.step(None, 1.0, &mut rng);
        }
        assert_eq!(host.position(), Point::new(3.0, 4.0));
    }

    #[test]
    fn free_host_dispatches() {
        let area = Rect::new(Point::ORIGIN, Point::new(100.0, 100.0));
        let cfg = WaypointConfig {
            area,
            speed_mps: 10.0,
            ..WaypointConfig::new(area, 10.0)
        };
        let mut rng = SmallRng::seed_from_u64(2);
        let mut host =
            HostMobility::Free(RandomWaypoint::new(Point::new(50.0, 50.0), cfg, &mut rng));
        let before = host.position();
        for _ in 0..200 {
            host.step(None, 1.0, &mut rng);
        }
        assert_ne!(host.position(), before);
    }
}
