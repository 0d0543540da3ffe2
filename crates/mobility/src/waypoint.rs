//! The random waypoint model (free movement mode).

use rand::rngs::SmallRng;
use rand::Rng;
use senn_geom::{Point, Rect};

/// Parameters of the random waypoint model.
#[derive(Clone, Copy, Debug)]
pub struct WaypointConfig {
    /// The area hosts roam in.
    pub area: Rect,
    /// Travel speed in meters per second ("the movement velocity is
    /// fixed" in free movement mode).
    pub speed_mps: f64,
    /// Pause at each waypoint is uniform in `[0, max_pause_secs]`.
    pub max_pause_secs: f64,
    /// When set, destinations are drawn within this straight-line radius
    /// of the current position (clamped to the area) — local trips, like
    /// the road mover's `trip_radius`. `None` draws uniformly in the area.
    pub trip_radius: Option<f64>,
}

impl WaypointConfig {
    /// Config with the paper-style defaults (pause up to 60 s).
    pub fn new(area: Rect, speed_mps: f64) -> Self {
        assert!(!area.is_empty(), "waypoint area must be non-empty");
        assert!(speed_mps > 0.0, "speed must be positive");
        WaypointConfig {
            area,
            speed_mps,
            max_pause_secs: 60.0,
            trip_radius: None,
        }
    }
}

/// A host moving under the random waypoint model: a [`WaypointLeg`] from
/// its anchor, the time it has been carried to, and the leg's [`Travel`]
/// as of that time, so reading the position evaluates no square root.
///
/// ```
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
/// use senn_geom::{Point, Rect};
/// use senn_mobility::{RandomWaypoint, WaypointConfig};
///
/// let area = Rect::new(Point::ORIGIN, Point::new(1000.0, 1000.0));
/// let mut rng = SmallRng::seed_from_u64(1);
/// let mut host = RandomWaypoint::new(
///     Point::new(500.0, 500.0),
///     WaypointConfig::new(area, 13.4),
///     &mut rng,
/// );
/// for _ in 0..60 {
///     host.step(1.0, &mut rng);
///     assert!(area.contains_point(host.position()));
/// }
/// ```
#[derive(Clone, Debug)]
pub struct RandomWaypoint {
    config: WaypointConfig,
    anchor: Point,
    leg: WaypointLeg,
    clock: f64,
    /// `leg.travel(anchor, &config)`, kept from the last step.
    travel: Travel,
}

impl RandomWaypoint {
    /// Creates a mover at `start` with a random first destination.
    pub fn new(start: Point, config: WaypointConfig, rng: &mut SmallRng) -> Self {
        let leg = WaypointLeg::new(&config, start, rng);
        RandomWaypoint {
            config,
            anchor: start,
            leg,
            clock: 0.0,
            travel: leg.travel(start, &config),
        }
    }

    /// Current position.
    pub fn position(&self) -> Point {
        self.travel.at(self.clock)
    }

    /// Current destination waypoint.
    pub fn destination(&self) -> Point {
        self.leg.destination
    }

    /// Advances the mover by `dt_secs` (a step that is not positive does
    /// nothing).
    pub fn step(&mut self, dt_secs: f64, rng: &mut SmallRng) {
        if dt_secs > 0.0 {
            self.clock += dt_secs;
        }
        self.travel = self
            .leg
            .advance(&mut self.anchor, &self.config, self.clock, rng);
    }
}

/// One leg of a random-waypoint mover, in closed form (24 bytes): the mover
/// leaves its *anchor* (the waypoint it last reached, or its start) at
/// `depart` and travels straight to `destination` at the configured speed,
/// so its position is a function of time. The anchor is kept beside the
/// leg: a column of anchors, a column of these and one shared
/// [`WaypointConfig`] is the dense layout; [`RandomWaypoint`] bundles the
/// same per object.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WaypointLeg {
    /// The waypoint being approached.
    pub destination: Point,
    /// When the mover leaves its anchor: the end of the pause it drew on
    /// arriving there.
    pub depart: f64,
}

impl WaypointLeg {
    /// The first leg of a mover at `start`: a random destination, leaving
    /// at time 0.
    pub fn new<R: Rng>(config: &WaypointConfig, start: Point, rng: &mut R) -> Self {
        WaypointLeg {
            destination: pick_destination(config, start, rng),
            depart: 0.0,
        }
    }

    /// The leg's travel from `anchor`.
    #[inline]
    pub fn travel(&self, anchor: Point, config: &WaypointConfig) -> Travel {
        Travel {
            from: anchor,
            to: self.destination,
            depart: self.depart,
            secs: (self.destination - anchor).norm() / config.speed_mps,
        }
    }

    /// Position at time `t` ([`Travel::at`]).
    #[inline]
    pub fn position(&self, anchor: Point, config: &WaypointConfig, t: f64) -> Point {
        self.travel(anchor, config).at(t)
    }

    /// Carries the leg to time `t`: every arrival at or before `t` moves
    /// the anchor to the waypoint, then draws the pause and the next
    /// destination from `rng`, in that order. Returns the travel under way
    /// (or paused for) at `t`; a leg still under way at `t` draws nothing.
    #[inline]
    pub fn advance<R: Rng>(
        &mut self,
        anchor: &mut Point,
        config: &WaypointConfig,
        t: f64,
        rng: &mut R,
    ) -> Travel {
        let mut travel = self.travel(*anchor, config);
        while t >= travel.arrival() {
            *anchor = self.destination;
            let pause = rng.gen_range(0.0..=config.max_pause_secs.max(0.0));
            self.destination = pick_destination(config, *anchor, rng);
            self.depart = travel.arrival() + pause;
            travel = self.travel(*anchor, config);
        }
        travel
    }
}

/// A leg's straight travel: from `from` to `to`, leaving at `depart`,
/// taking `secs` seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Travel {
    /// The anchor the leg starts from.
    pub from: Point,
    /// The destination.
    pub to: Point,
    /// When the mover leaves the anchor.
    pub depart: f64,
    /// Seconds of travel at the configured speed.
    pub secs: f64,
}

impl Travel {
    /// When the mover reaches the destination.
    #[inline]
    pub fn arrival(&self) -> f64 {
        self.depart + self.secs
    }

    /// Position at time `t`: the anchor until `depart`, the destination
    /// from the arrival on, and `from + (to - from) · (t - depart) / secs`
    /// in between.
    #[inline]
    pub fn at(&self, t: f64) -> Point {
        if t >= self.arrival() {
            return self.to;
        }
        let elapsed = t - self.depart;
        if elapsed > 0.0 {
            self.from + (self.to - self.from) * (elapsed / self.secs)
        } else {
            self.from
        }
    }
}

fn random_point<R: Rng>(area: Rect, rng: &mut R) -> Point {
    Point::new(
        rng.gen_range(area.min.x..=area.max.x),
        rng.gen_range(area.min.y..=area.max.y),
    )
}

/// Next waypoint: uniform in the area, or (with a trip radius) uniform in
/// the disk around the current position, clamped into the area — clamping
/// each coordinate only shrinks the displacement, so the radius bound
/// always holds.
fn pick_destination<R: Rng>(config: &WaypointConfig, from: Point, rng: &mut R) -> Point {
    match config.trip_radius {
        None => random_point(config.area, rng),
        Some(radius) => {
            let theta = rng.gen_range(0.0..std::f64::consts::TAU);
            let r = radius * rng.gen_range(0.0..1.0f64).sqrt();
            let area = config.area;
            Point::new(
                (from.x + r * theta.cos()).clamp(area.min.x, area.max.x),
                (from.y + r * theta.sin()).clamp(area.min.y, area.max.y),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn area() -> Rect {
        Rect::new(Point::ORIGIN, Point::new(1000.0, 1000.0))
    }

    #[test]
    fn stays_in_area() {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut m = RandomWaypoint::new(
            Point::new(500.0, 500.0),
            WaypointConfig::new(area(), 15.0),
            &mut rng,
        );
        for _ in 0..5000 {
            m.step(1.0, &mut rng);
            let p = m.position();
            assert!(area().contains_point(p), "escaped to {p:?}");
        }
    }

    #[test]
    fn moves_at_configured_speed() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut cfg = WaypointConfig::new(area(), 20.0);
        cfg.max_pause_secs = 0.0;
        let mut m = RandomWaypoint::new(Point::new(0.0, 0.0), cfg, &mut rng);
        let before = m.position();
        m.step(1.0, &mut rng);
        let moved = before.dist(m.position());
        // One second at 20 m/s moves exactly 20 m unless a waypoint was hit
        // (then the direction changes but the total path length is 20 m).
        assert!(moved <= 20.0 + 1e-9);
        assert!(moved > 0.0);
    }

    #[test]
    fn pauses_at_waypoints() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut cfg = WaypointConfig::new(area(), 1000.0); // fast: reaches quickly
        cfg.max_pause_secs = 30.0;
        let mut m = RandomWaypoint::new(Point::new(500.0, 500.0), cfg, &mut rng);
        // Step in small increments and record any interval with no motion.
        let mut paused_once = false;
        let mut last = m.position();
        for _ in 0..500 {
            m.step(0.1, &mut rng);
            if m.position() == last {
                paused_once = true;
            }
            last = m.position();
        }
        assert!(paused_once, "a fast mover must hit waypoints and pause");
    }

    #[test]
    fn deterministic_under_same_seed() {
        let run = |seed: u64| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut m = RandomWaypoint::new(
                Point::new(10.0, 10.0),
                WaypointConfig::new(area(), 12.0),
                &mut rng,
            );
            for _ in 0..100 {
                m.step(1.0, &mut rng);
            }
            m.position()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn trip_radius_bounds_leg_lengths() {
        let mut rng = SmallRng::seed_from_u64(17);
        let mut cfg = WaypointConfig::new(area(), 50.0);
        cfg.max_pause_secs = 0.0;
        cfg.trip_radius = Some(150.0);
        let mut m = RandomWaypoint::new(Point::new(500.0, 500.0), cfg, &mut rng);
        for _ in 0..2000 {
            m.step(1.0, &mut rng);
            // The mover is always somewhere on the current leg, whose
            // length is bounded by the trip radius — so the remaining
            // distance to the destination is too.
            assert!(
                m.position().dist(m.destination()) <= 150.0 + 1e-9,
                "drifted beyond the trip radius"
            );
        }
    }

    /// One kernel, two layouts: a `RandomWaypoint` and a bare anchor, leg
    /// and clock agree bit for bit on everything a step can change.
    #[test]
    fn wrapper_and_kernel_walk_the_same_path() {
        let mut cfg = WaypointConfig::new(area(), 40.0);
        cfg.max_pause_secs = 5.0;
        cfg.trip_radius = Some(200.0);
        let start = Point::new(500.0, 500.0);
        let mut rng_a = SmallRng::seed_from_u64(23);
        let mut rng_b = rng_a.clone();
        let mut wrapped = RandomWaypoint::new(start, cfg, &mut rng_a);
        let (mut anchor, mut clock) = (start, 0.0);
        let mut leg = WaypointLeg::new(&cfg, start, &mut rng_b);
        let dts = [1.0, 0.0, 0.25, 1e-13, 7.5, 0.001, 2.0];
        let mut arrivals = 0;
        for i in 0..5000 {
            let dt = dts[i % dts.len()];
            wrapped.step(dt, &mut rng_a);
            clock += dt;
            let before = leg.destination;
            leg.advance(&mut anchor, &cfg, clock, &mut rng_b);
            arrivals += usize::from(leg.destination != before);
            let bits = |p: Point| (p.x.to_bits(), p.y.to_bits());
            let position = leg.position(anchor, &cfg, clock);
            assert_eq!(bits(wrapped.position()), bits(position), "step {i}");
            assert_eq!(wrapped.leg, leg, "step {i}");
            assert_eq!(format!("{rng_a:?}"), format!("{rng_b:?}"), "step {i}");
        }
        assert!(arrivals > 100, "{arrivals}");
    }

    /// A wrapper at `here` on `leg` at time 0.
    fn mid_leg(config: WaypointConfig, here: Point, leg: WaypointLeg) -> RandomWaypoint {
        RandomWaypoint {
            config,
            anchor: here,
            leg,
            clock: 0.0,
            travel: leg.travel(here, &config),
        }
    }

    /// The incremental leg the closed form replaced: the waypoint being
    /// approached and the pause left before travel resumes.
    #[derive(Clone, Copy, Debug)]
    struct GlideLeg {
        destination: Point,
        pause_left: f64,
    }

    /// The incremental step the closed form replaced, kept as its
    /// reference: glide `speed · dt` toward the waypoint, and on arrival
    /// draw the pause, then the next destination.
    fn step_leg(
        config: &WaypointConfig,
        position: &mut Point,
        leg: &mut GlideLeg,
        dt_secs: f64,
        rng: &mut SmallRng,
    ) {
        let mut budget = dt_secs;
        while budget > 1e-12 {
            if leg.pause_left > 0.0 {
                let used = leg.pause_left.min(budget);
                leg.pause_left -= used;
                budget -= used;
                continue;
            }
            let to_dest = leg.destination - *position;
            let dist = to_dest.norm();
            let reach = config.speed_mps * budget;
            if reach >= dist {
                *position = leg.destination;
                budget -= if config.speed_mps > 0.0 {
                    dist / config.speed_mps
                } else {
                    budget
                };
                leg.pause_left = rng.gen_range(0.0..=config.max_pause_secs.max(0.0));
                leg.destination = pick_destination(config, *position, rng);
            } else {
                *position = *position + to_dest * (reach / dist);
                budget = 0.0;
            }
        }
    }

    /// The closed-form leg tracks the incremental reference over 12 000
    /// steps of every size the simulator and its callers use — none, below
    /// the reference's 1e-12 s threshold, and spans that cross pauses and
    /// arrivals: within 1e-6 m at every step, drawing the same stream (the
    /// same destinations and pauses, in the same order, at the same step).
    #[test]
    fn step_leg_walks_the_reference_path() {
        for (seed, trip_radius, max_pause) in [(29, Some(200.0), 5.0), (31, None, 0.0)] {
            let mut cfg = WaypointConfig::new(area(), 40.0);
            cfg.max_pause_secs = max_pause;
            cfg.trip_radius = trip_radius;
            let start = Point::new(500.0, 500.0);
            let mut rng_ref = SmallRng::seed_from_u64(seed);
            let mut rng = rng_ref.clone();
            let mut position = start;
            let first = WaypointLeg::new(&cfg, start, &mut rng_ref);
            let mut old = GlideLeg {
                destination: first.destination,
                pause_left: 0.0,
            };
            let mut moving = RandomWaypoint::new(start, cfg, &mut rng);
            let dts = [0.0, 1e-13, 0.25, 1.0, 7.5];
            let (mut arrivals, mut paused) = (0, 0);
            for i in 0..12_000 {
                let dt = dts[(i * 7 + i / 5) % dts.len()];
                let before = old.destination;
                step_leg(&cfg, &mut position, &mut old, dt, &mut rng_ref);
                moving.step(dt, &mut rng);
                arrivals += usize::from(old.destination != before);
                paused += usize::from(old.pause_left > 0.0);
                let drift = position.dist(moving.position());
                assert!(drift <= 1e-6, "seed {seed} step {i}: {drift} m apart");
                let bits = |p: Point| (p.x.to_bits(), p.y.to_bits());
                assert_eq!(
                    bits(old.destination),
                    bits(moving.destination()),
                    "step {i}"
                );
                let pause_left = (moving.leg.depart - moving.clock).max(0.0);
                assert!((old.pause_left - pause_left).abs() <= 1e-9, "step {i}");
                assert_eq!(format!("{rng_ref:?}"), format!("{rng:?}"), "step {i}");
            }
            assert!(arrivals > 500, "seed {seed}: {arrivals} arrivals");
            assert!(max_pause == 0.0 || paused > 500, "seed {seed}: {paused}");
        }
    }

    /// The edge cases the incremental glide was held to, now on the closed
    /// form: exact reach, sub-threshold, zero, negative and NaN steps, a
    /// pause that ends mid-step and one that does not, and a zero-length
    /// leg. From the same state, one wrapper step lands within 1e-6 m of
    /// one reference step and draws the same stream; the one difference
    /// is a zero-length leg under a sub-threshold step, which the closed
    /// form arrives at (and draws for) at once while the reference waits
    /// for more than 1e-12 s. A NaN pause has no closed-form counterpart:
    /// `depart` is a drawn time, never NaN.
    #[test]
    fn glide_edges_match_the_reference_loop() {
        let mut cfg = WaypointConfig::new(area(), 5.0);
        cfg.max_pause_secs = 10.0;
        let here = Point::new(100.0, 100.0);
        // A 3-4-5 leg: 5 m, exactly, from `here`.
        let there = Point::new(103.0, 104.0);
        let cases = [
            // reach == dist exactly: the arrival path, which draws.
            (there, 0.0, 1.0),
            (there, 0.0, 0.5),
            (there, 0.0, 0.999_999),
            // No time to spend: a no-op.
            (there, 0.0, 1e-12),
            (there, 0.0, 0.0),
            (there, 0.0, -1.0),
            (there, 0.0, f64::NAN),
            // A pause that ends mid-step, then travel; a pause that does not.
            (there, 0.4, 1.0),
            (there, 0.4, 0.1),
            (there, 3.0, 1.0),
            // A zero-length leg arrives at once.
            (here, 0.0, 1.0),
        ];
        let bits = |p: Point| (p.x.to_bits(), p.y.to_bits());
        for (i, (destination, pause_left, dt)) in cases.into_iter().enumerate() {
            let (mut position, mut old) = (
                here,
                GlideLeg {
                    destination,
                    pause_left,
                },
            );
            let mut rng_ref = SmallRng::seed_from_u64(i as u64);
            let mut rng = rng_ref.clone();
            let mut moving = mid_leg(
                cfg,
                here,
                WaypointLeg {
                    destination,
                    depart: pause_left,
                },
            );
            step_leg(&cfg, &mut position, &mut old, dt, &mut rng_ref);
            moving.step(dt, &mut rng);
            let drift = position.dist(moving.position());
            assert!(drift <= 1e-6, "case {i}: {drift} m apart");
            assert_eq!(
                bits(old.destination),
                bits(moving.destination()),
                "case {i}"
            );
            let pause_left = (moving.leg.depart - moving.clock).max(0.0);
            assert!((old.pause_left - pause_left).abs() <= 1e-9, "case {i}");
            assert_eq!(format!("{rng_ref:?}"), format!("{rng:?}"), "case {i}");
        }
        // The exact-reach case landed on the waypoint and drew a new one.
        let mut rng = SmallRng::seed_from_u64(0);
        let mut exact = mid_leg(
            cfg,
            here,
            WaypointLeg {
                destination: there,
                depart: 0.0,
            },
        );
        exact.step(1.0, &mut rng);
        assert_eq!(exact.position(), there);
        assert_ne!(exact.destination(), there);
        // A zero-length leg under a sub-threshold step: the reference stays
        // put without drawing, the closed form stays put and has drawn.
        let (mut position, mut old) = (
            here,
            GlideLeg {
                destination: here,
                pause_left: 0.0,
            },
        );
        let mut rng_ref = SmallRng::seed_from_u64(1);
        let mut rng = rng_ref.clone();
        let mut still = mid_leg(
            cfg,
            here,
            WaypointLeg {
                destination: here,
                depart: 0.0,
            },
        );
        step_leg(&cfg, &mut position, &mut old, 1e-13, &mut rng_ref);
        still.step(1e-13, &mut rng);
        assert_eq!((position, old.destination), (here, here));
        assert_eq!(still.position(), here);
        assert_ne!(still.destination(), here);
        assert_ne!(format!("{rng_ref:?}"), format!("{rng:?}"));
    }

    /// The closed form at its edges: paused until `depart`, exactly the
    /// waypoint from the arrival on, and a zero-length leg arrives at once.
    #[test]
    fn closed_form_edges() {
        let cfg = WaypointConfig::new(area(), 5.0);
        let here = Point::new(100.0, 100.0);
        // A 3-4-5 leg: 5 m, one second, leaving at t = 2.
        let leg = WaypointLeg {
            destination: Point::new(103.0, 104.0),
            depart: 2.0,
        };
        assert_eq!(leg.travel(here, &cfg).arrival(), 3.0);
        for t in [f64::NEG_INFINITY, 0.0, 1.999, 2.0, f64::NAN] {
            assert_eq!(leg.position(here, &cfg, t), here, "t {t}");
        }
        assert_eq!(leg.position(here, &cfg, 2.5), Point::new(101.5, 102.0));
        for t in [3.0, 3.5, f64::INFINITY] {
            assert_eq!(leg.position(here, &cfg, t), leg.destination, "t {t}");
        }
        let (mut anchor, mut moved) = (here, leg);
        let mut rng = SmallRng::seed_from_u64(0);
        let travel = moved.advance(&mut anchor, &cfg, 2.999, &mut rng);
        assert_eq!((anchor, moved), (here, leg), "no arrival, no draw");
        assert_eq!(travel, leg.travel(here, &cfg));
        let travel = moved.advance(&mut anchor, &cfg, 3.0, &mut rng);
        assert_eq!(anchor, Point::new(103.0, 104.0));
        assert_eq!(travel, moved.travel(anchor, &cfg));
        assert!(moved.depart >= 3.0);
        let still = WaypointLeg {
            destination: here,
            depart: 1.0,
        };
        assert_eq!(still.travel(here, &cfg).arrival(), 1.0);
        assert_eq!(still.position(here, &cfg, 1.0), here);
    }

    #[test]
    fn zero_dt_is_noop() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut m = RandomWaypoint::new(
            Point::new(1.0, 2.0),
            WaypointConfig::new(area(), 5.0),
            &mut rng,
        );
        let before = m.position();
        m.step(0.0, &mut rng);
        assert_eq!(m.position(), before);
    }
}
