//! Road-network-constrained movement (the paper's road network mode).

use rand::Rng;
use senn_geom::Point;
use senn_network::{astar_path_into, NodeId, RoadNetwork};

/// Parameters of the road mover.
#[derive(Clone, Copy, Debug)]
pub struct RoadMoverConfig {
    /// Host's own cruising velocity in meters per second (the paper's
    /// `M_velocity`). On each segment the host travels at
    /// `min(velocity, segment speed limit)`.
    pub velocity_mps: f64,
    /// Pause at each destination is uniform in `[0, max_pause_secs]`.
    pub max_pause_secs: f64,
    /// Destinations are picked among junctions within this straight-line
    /// radius (meters) of the current position — cars make local trips,
    /// and bounding the radius keeps route computation cheap on
    /// county-scale networks. `f64::INFINITY` disables the bound.
    pub trip_radius: f64,
}

impl RoadMoverConfig {
    /// Defaults: 60 s max pause, 3 km trips.
    pub fn new(velocity_mps: f64) -> Self {
        assert!(velocity_mps > 0.0, "velocity must be positive");
        RoadMoverConfig {
            velocity_mps,
            max_pause_secs: 60.0,
            trip_radius: 3000.0,
        }
    }
}

/// A host moving along the road network between random junctions.
#[derive(Clone, Debug)]
pub struct RoadMover {
    config: RoadMoverConfig,
    /// Remaining route: `route[leg]` is the node being approached;
    /// the mover stands on the segment `route[leg - 1] -> route[leg]`.
    route: Vec<NodeId>,
    leg: usize,
    /// Distance already covered on the current segment.
    leg_progress: f64,
    position: Point,
    pause_left: f64,
    /// Node the mover last departed from (route anchor).
    at_node: NodeId,
}

impl RoadMover {
    /// Creates a mover parked at `start_node`.
    pub fn new(net: &RoadNetwork, start_node: NodeId, config: RoadMoverConfig) -> Self {
        RoadMover {
            config,
            route: Vec::new(),
            leg: 0,
            leg_progress: 0.0,
            position: net.position(start_node),
            pause_left: 0.0,
            at_node: start_node,
        }
    }

    /// Current position (interpolated along the current segment).
    pub fn position(&self) -> Point {
        self.position
    }

    /// Node the mover last departed from or is resting at.
    pub fn anchor_node(&self) -> NodeId {
        self.at_node
    }

    /// Speed on the current segment: host velocity capped by the segment's
    /// speed limit; the host velocity when idle.
    pub fn current_speed(&self, net: &RoadNetwork) -> f64 {
        if self.leg == 0 || self.leg >= self.route.len() {
            return self.config.velocity_mps;
        }
        let from = self.route[self.leg - 1];
        let to = self.route[self.leg];
        let limit = net
            .neighbors(from)
            .iter()
            .find(|e| e.to == to)
            .map(|e| e.class.speed_limit_mps())
            .unwrap_or(f64::INFINITY);
        self.config.velocity_mps.min(limit)
    }

    /// Advances the mover by `dt_secs`.
    pub fn step<R: Rng>(&mut self, net: &RoadNetwork, dt_secs: f64, rng: &mut R) {
        let mut budget = dt_secs;
        let mut replans = 0;
        while budget > 1e-12 {
            if self.pause_left > 0.0 {
                let used = self.pause_left.min(budget);
                self.pause_left -= used;
                budget -= used;
                continue;
            }
            if self.leg >= self.route.len() {
                // Need a new trip.
                if replans >= 4 {
                    // Could not find a reachable destination this tick
                    // (e.g. isolated node): stay put.
                    return;
                }
                replans += 1;
                if !self.plan_trip(net, rng) {
                    continue;
                }
            }
            // Advance along the current segment.
            let from = self.route[self.leg - 1];
            let to = self.route[self.leg];
            let seg_len = net.position(from).dist(net.position(to));
            let speed = self.current_speed(net);
            let remaining = seg_len - self.leg_progress;
            let reach = speed * budget;
            if reach >= remaining {
                // Cross into the next segment.
                budget -= if speed > 0.0 {
                    remaining / speed
                } else {
                    budget
                };
                self.leg += 1;
                self.leg_progress = 0.0;
                self.at_node = to;
                self.position = net.position(to);
                if self.leg >= self.route.len() {
                    // Trip complete: pause here.
                    self.route.clear();
                    self.leg = 0;
                    self.pause_left = rng.gen_range(0.0..=self.config.max_pause_secs.max(0.0));
                }
            } else {
                self.leg_progress += reach;
                let t = if seg_len > 0.0 {
                    self.leg_progress / seg_len
                } else {
                    1.0
                };
                self.position = net.position(from).lerp(net.position(to), t);
                budget = 0.0;
            }
        }
    }

    /// Picks a random reachable destination junction and computes the
    /// route into the mover's own `route` buffer. Returns false when no
    /// usable trip was found.
    fn plan_trip<R: Rng>(&mut self, net: &RoadNetwork, rng: &mut R) -> bool {
        let n = net.node_count();
        if n < 2 {
            self.pause_left = 1.0;
            return false;
        }
        // Rejection-sample a destination within the trip radius.
        let here = net.position(self.at_node);
        let mut dest = None;
        for _ in 0..16 {
            let cand = rng.gen_range(0..n) as NodeId;
            if cand == self.at_node {
                continue;
            }
            if net.position(cand).dist(here) <= self.config.trip_radius {
                dest = Some(cand);
                break;
            }
        }
        let Some(dest) = dest else {
            self.pause_left = 1.0;
            return false;
        };
        let found = astar_path_into(net, self.at_node, dest, &mut self.route);
        if found.is_some() && self.route.len() >= 2 {
            self.leg = 1;
            self.leg_progress = 0.0;
            true
        } else {
            self.route.clear();
            self.pause_left = 1.0;
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use senn_network::{generate_network, GeneratorConfig};

    fn net() -> RoadNetwork {
        generate_network(&GeneratorConfig::city(2000.0, 77))
    }

    #[test]
    fn moves_along_network() {
        let net = net();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut cfg = RoadMoverConfig::new(15.0);
        cfg.max_pause_secs = 0.0;
        let mut m = RoadMover::new(&net, 0, cfg);
        let start = m.position();
        for _ in 0..120 {
            m.step(&net, 1.0, &mut rng);
        }
        assert_ne!(m.position(), start, "mover should have departed");
    }

    #[test]
    fn position_is_always_on_some_segment() {
        let net = net();
        let mut rng = SmallRng::seed_from_u64(9);
        let mut m = RoadMover::new(&net, 5, RoadMoverConfig::new(20.0));
        for _ in 0..600 {
            m.step(&net, 1.0, &mut rng);
            let p = m.position();
            // The position must be within epsilon of the straight segment
            // between two adjacent nodes somewhere in the network. Check
            // against the anchor's incident segments (cheap sufficient
            // condition: distance to nearest node bounded by longest
            // incident edge).
            let anchor = m.anchor_node();
            let max_incident = net
                .neighbors(anchor)
                .iter()
                .map(|e| e.length)
                .fold(0.0f64, f64::max);
            assert!(
                p.dist(net.position(anchor)) <= max_incident + 1e-6,
                "position drifted off the anchor's neighborhood"
            );
        }
    }

    #[test]
    fn respects_speed_cap() {
        let net = net();
        let mut rng = SmallRng::seed_from_u64(21);
        let mut cfg = RoadMoverConfig::new(100.0); // faster than any limit
        cfg.max_pause_secs = 0.0;
        let mut m = RoadMover::new(&net, 0, cfg);
        let mut prev = m.position();
        let max_limit = senn_network::RoadClass::Primary.speed_limit_mps();
        for _ in 0..300 {
            m.step(&net, 1.0, &mut rng);
            // Straight-line displacement per second can never exceed the
            // fastest speed limit (paths only make it shorter).
            assert!(prev.dist(m.position()) <= max_limit + 1e-6);
            prev = m.position();
        }
    }

    #[test]
    fn deterministic_under_same_seed() {
        let net = net();
        let run = |seed: u64| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut m = RoadMover::new(&net, 3, RoadMoverConfig::new(13.0));
            for _ in 0..200 {
                m.step(&net, 1.0, &mut rng);
            }
            m.position()
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn single_node_network_stays_put() {
        let mut lonely = RoadNetwork::new();
        let n0 = lonely.add_node(Point::new(1.0, 1.0));
        let mut rng = SmallRng::seed_from_u64(2);
        let mut m = RoadMover::new(&lonely, n0, RoadMoverConfig::new(10.0));
        for _ in 0..10 {
            m.step(&lonely, 1.0, &mut rng);
        }
        assert_eq!(m.position(), Point::new(1.0, 1.0));
    }
}
