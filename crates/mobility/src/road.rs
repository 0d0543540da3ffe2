//! Road-network-constrained movement (the paper's road network mode).
//!
//! A mover keeps the segment it stands on resident: its end points, its
//! length and the speed it travels it at, computed once on entering the
//! segment (a new trip or a crossing). A step that ends on the same
//! segment then takes no square root, scans no neighbour list for the
//! speed limit and reads neither the route nor the network. A test pins
//! the trajectories bit for bit against a step that recomputes all of it
//! on every call.
//!
//! A trip is planned with the ALT heuristic over the network's landmark
//! index ([`RoadNetwork::route_index`], built on first use), the
//! crate-wide label-setting kernel of `senn-network`. Where the shortest
//! route is unique that is the route Euclidean A\* finds, with about half
//! the settled nodes.

use rand::Rng;
use senn_geom::Point;
use senn_network::{alt_path_into, NodeId, RoadNetwork};

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
    /// radius (meters) of the current position — cars make local trips.
    /// The radius also bounds a plan's cost: a search settles roughly the
    /// nodes of an ellipse around the route, so a county-scale network
    /// plans a 3 km trip as cheaply as a city does. `f64::INFINITY`
    /// disables the bound.
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

/// The route planning one [`RoadMover::step`] did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoutePlans {
    /// Route searches run.
    pub plans: u64,
    /// Nodes those searches settled.
    pub settled: u64,
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
    /// The segment the mover stands on; stale while the mover is idle.
    segment: Segment,
}

/// The resident segment (module docs), 48 bytes.
#[derive(Clone, Copy, Debug, Default)]
struct Segment {
    from: Point,
    to: Point,
    len: f64,
    speed: f64,
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
            segment: Segment::default(),
        }
    }

    /// Current position (interpolated along the current segment).
    pub fn position(&self) -> Point {
        self.position
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

    /// Advances the mover by `dt_secs`, planning any trip it starts over
    /// `net`'s [`RoadNetwork::route_index`]. Returns what planning cost.
    pub fn step<R: Rng>(&mut self, net: &RoadNetwork, dt_secs: f64, rng: &mut R) -> RoutePlans {
        let mut planned = RoutePlans::default();
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
                    return planned;
                }
                replans += 1;
                if !self.plan_trip(net, rng, &mut planned) {
                    continue;
                }
            }
            // Advance along the current segment.
            let Segment {
                from,
                to,
                len: seg_len,
                speed,
            } = self.segment;
            let remaining = seg_len - self.leg_progress;
            let reach = speed * budget;
            if reach >= remaining {
                // Cross into the next segment.
                budget -= if speed > 0.0 {
                    remaining / speed
                } else {
                    budget
                };
                self.at_node = self.route[self.leg];
                self.leg += 1;
                self.leg_progress = 0.0;
                self.position = to;
                if self.leg >= self.route.len() {
                    // Trip complete: pause here.
                    self.route.clear();
                    self.leg = 0;
                    self.pause_left = rng.gen_range(0.0..=self.config.max_pause_secs.max(0.0));
                } else {
                    self.enter_segment(net);
                }
            } else {
                self.leg_progress += reach;
                let t = if seg_len > 0.0 {
                    self.leg_progress / seg_len
                } else {
                    1.0
                };
                self.position = from.lerp(to, t);
                budget = 0.0;
            }
        }
        planned
    }

    /// Makes `route[leg - 1] -> route[leg]` the resident segment.
    fn enter_segment(&mut self, net: &RoadNetwork) {
        let from = net.position(self.route[self.leg - 1]);
        let to = net.position(self.route[self.leg]);
        self.segment = Segment {
            from,
            to,
            len: from.dist(to),
            speed: self.current_speed(net),
        };
    }

    /// Picks a random reachable destination junction and computes the
    /// route into the mover's own `route` buffer, counting the search in
    /// `planned`. Returns false when no usable trip was found.
    fn plan_trip<R: Rng>(
        &mut self,
        net: &RoadNetwork,
        rng: &mut R,
        planned: &mut RoutePlans,
    ) -> bool {
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
        let index = net.route_index();
        let (found, effort) = alt_path_into(net, index, self.at_node, dest, &mut self.route);
        planned.plans += 1;
        planned.settled += effort.settled;
        if found.is_some() && self.route.len() >= 2 {
            self.leg = 1;
            self.leg_progress = 0.0;
            self.enter_segment(net);
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
            let anchor = m.at_node;
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

    /// The step as it was before the segment became resident: it reads
    /// the route, the network and the speed limit on every call. Kept as
    /// the reference the mover must match bit for bit.
    fn reference_step(m: &mut RoadMover, net: &RoadNetwork, dt_secs: f64, rng: &mut SmallRng) {
        let mut budget = dt_secs;
        let mut replans = 0;
        while budget > 1e-12 {
            if m.pause_left > 0.0 {
                let used = m.pause_left.min(budget);
                m.pause_left -= used;
                budget -= used;
                continue;
            }
            if m.leg >= m.route.len() {
                if replans >= 4 {
                    return;
                }
                replans += 1;
                if !m.plan_trip(net, rng, &mut RoutePlans::default()) {
                    continue;
                }
            }
            let from = m.route[m.leg - 1];
            let to = m.route[m.leg];
            let seg_len = net.position(from).dist(net.position(to));
            let limit = net
                .neighbors(from)
                .iter()
                .find(|e| e.to == to)
                .map(|e| e.class.speed_limit_mps())
                .unwrap_or(f64::INFINITY);
            let speed = m.config.velocity_mps.min(limit);
            let remaining = seg_len - m.leg_progress;
            let reach = speed * budget;
            if reach >= remaining {
                budget -= if speed > 0.0 {
                    remaining / speed
                } else {
                    budget
                };
                m.leg += 1;
                m.leg_progress = 0.0;
                m.at_node = to;
                m.position = net.position(to);
                if m.leg >= m.route.len() {
                    m.route.clear();
                    m.leg = 0;
                    m.pause_left = rng.gen_range(0.0..=m.config.max_pause_secs.max(0.0));
                }
            } else {
                m.leg_progress += reach;
                let t = if seg_len > 0.0 {
                    m.leg_progress / seg_len
                } else {
                    1.0
                };
                m.position = net.position(from).lerp(net.position(to), t);
                budget = 0.0;
            }
        }
    }

    /// The resident segment never drifts from what the network says: one
    /// mover and a reference twin step side by side on a jittered city,
    /// over dts that cross segments, stop short, pause and fall below the
    /// step threshold, and agree bit for bit after every step on position,
    /// anchor, route, progress, pause and stream.
    #[test]
    fn resident_segment_walks_the_reference_path() {
        let net = net();
        let mut cfg = RoadMoverConfig::new(20.0);
        cfg.max_pause_secs = 5.0;
        cfg.trip_radius = 400.0;
        let mut rng = SmallRng::seed_from_u64(31);
        let mut ref_rng = rng.clone();
        let mut mover = RoadMover::new(&net, 12, cfg);
        let mut twin = mover.clone();
        let dts = [1.0, 0.0, 0.25, 1e-13, 7.5, 0.001];
        let mut trips = 0;
        for i in 0..6000 {
            let dt = dts[i % dts.len()];
            let travelling = !mover.route.is_empty();
            mover.step(&net, dt, &mut rng);
            reference_step(&mut twin, &net, dt, &mut ref_rng);
            let bits = |p: Point| (p.x.to_bits(), p.y.to_bits());
            assert_eq!(bits(mover.position), bits(twin.position), "step {i}");
            assert_eq!(mover.at_node, twin.at_node, "step {i}");
            assert_eq!((&mover.route, mover.leg), (&twin.route, twin.leg));
            assert_eq!(mover.leg_progress.to_bits(), twin.leg_progress.to_bits());
            assert_eq!(mover.pause_left.to_bits(), twin.pause_left.to_bits());
            assert_eq!(format!("{rng:?}"), format!("{ref_rng:?}"), "step {i}");
            trips += usize::from(travelling && mover.route.is_empty());
        }
        assert!(trips >= 100, "{trips} trips");
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
