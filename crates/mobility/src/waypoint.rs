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

/// A host moving under the random waypoint model.
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
    position: Point,
    leg: WaypointLeg,
}

impl RandomWaypoint {
    /// Creates a mover at `start` with a random first destination.
    pub fn new(start: Point, config: WaypointConfig, rng: &mut SmallRng) -> Self {
        RandomWaypoint {
            config,
            position: start,
            leg: WaypointLeg::new(&config, start, rng),
        }
    }

    /// Current position.
    pub fn position(&self) -> Point {
        self.position
    }

    /// Current destination waypoint.
    pub fn destination(&self) -> Point {
        self.leg.destination
    }

    /// Advances the mover by `dt_secs`.
    pub fn step(&mut self, dt_secs: f64, rng: &mut SmallRng) {
        let (config, leg) = (&self.config, &mut self.leg);
        step_leg(config, &mut self.position, leg, dt_secs, rng);
    }
}

/// What a random-waypoint mover carries besides its position (24 bytes):
/// a column of these, a position column and one shared [`WaypointConfig`]
/// is the dense layout; [`RandomWaypoint`] bundles the same per object.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WaypointLeg {
    /// The waypoint being approached.
    pub destination: Point,
    /// Seconds of pause left before travel resumes.
    pub pause_left: f64,
}

impl WaypointLeg {
    /// The first leg of a mover at `start`: a random destination, no pause.
    pub fn new<R: Rng>(config: &WaypointConfig, start: Point, rng: &mut R) -> Self {
        WaypointLeg {
            destination: pick_destination(config, start, rng),
            pause_left: 0.0,
        }
    }
}

/// The random waypoint step over borrowed state: advances `position` along
/// `leg` by `dt_secs`, pausing and drawing the next destination on arrival.
/// It tries [`glide`] first.
pub fn step_leg<R: Rng>(
    config: &WaypointConfig,
    position: &mut Point,
    leg: &mut WaypointLeg,
    dt_secs: f64,
    rng: &mut R,
) {
    if glide(config, position, leg, dt_secs) {
        return;
    }
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
            // Arrive, then pause and pick the next destination.
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

/// The common case of [`step_leg`], which it tries first: a mover that is
/// not paused and stays short of its destination glides `speed · dt` toward
/// it — the loop's own expression — and draws nothing. Returns `false`,
/// having changed nothing, when the step may pause, arrive or draw; only
/// then does a caller need the stream [`step_leg`] takes.
#[inline]
pub fn glide(
    config: &WaypointConfig,
    position: &mut Point,
    leg: &WaypointLeg,
    dt_secs: f64,
) -> bool {
    // The loop's own tests, in its own form, so that every input — NaN
    // included — takes the branch the loop's first pass would.
    if dt_secs.is_nan() || dt_secs <= 1e-12 || leg.pause_left > 0.0 {
        return false;
    }
    let to_dest = leg.destination - *position;
    let dist = to_dest.norm();
    let reach = config.speed_mps * dt_secs;
    if reach >= dist {
        return false;
    }
    *position = *position + to_dest * (reach / dist);
    true
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

    /// One kernel, two layouts: a `RandomWaypoint` and a bare
    /// `(Point, WaypointLeg)` agree bit for bit on everything a step can
    /// change.
    #[test]
    fn wrapper_and_kernel_walk_the_same_path() {
        let mut cfg = WaypointConfig::new(area(), 40.0);
        cfg.max_pause_secs = 5.0;
        cfg.trip_radius = Some(200.0);
        let start = Point::new(500.0, 500.0);
        let mut rng_a = SmallRng::seed_from_u64(23);
        let mut rng_b = rng_a.clone();
        let mut wrapped = RandomWaypoint::new(start, cfg, &mut rng_a);
        let mut position = start;
        let mut leg = WaypointLeg::new(&cfg, start, &mut rng_b);
        let dts = [1.0, 0.0, 0.25, 1e-13, 7.5, 0.001, 2.0];
        let mut arrivals = 0;
        for i in 0..5000 {
            let dt = dts[i % dts.len()];
            let before = leg.destination;
            wrapped.step(dt, &mut rng_a);
            step_leg(&cfg, &mut position, &mut leg, dt, &mut rng_b);
            arrivals += usize::from(leg.destination != before);
            let bits = |p: Point| (p.x.to_bits(), p.y.to_bits());
            assert_eq!(bits(wrapped.position()), bits(position), "step {i}");
            assert_eq!(bits(wrapped.destination()), bits(leg.destination));
            assert_eq!(wrapped.leg.pause_left.to_bits(), leg.pause_left.to_bits());
            assert_eq!(format!("{rng_a:?}"), format!("{rng_b:?}"), "step {i}");
        }
        assert!(arrivals > 100, "{arrivals}");
    }

    /// The step loop as it was before [`glide`] was split out of it, kept
    /// as the reference the kernel must match bit for bit.
    fn reference_step(
        config: &WaypointConfig,
        position: &mut Point,
        leg: &mut WaypointLeg,
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

    /// Position, leg and stream bits after one `step_leg` and one
    /// reference step from the same state, which must be equal.
    fn step_both(
        cfg: &WaypointConfig,
        position: &mut Point,
        leg: &mut WaypointLeg,
        dt: f64,
        rng: &mut SmallRng,
    ) {
        let (mut ref_position, mut ref_leg, mut ref_rng) = (*position, *leg, rng.clone());
        step_leg(cfg, position, leg, dt, rng);
        reference_step(cfg, &mut ref_position, &mut ref_leg, dt, &mut ref_rng);
        let bits = |p: Point| (p.x.to_bits(), p.y.to_bits());
        assert_eq!(bits(*position), bits(ref_position), "dt {dt}");
        assert_eq!(bits(leg.destination), bits(ref_leg.destination), "dt {dt}");
        assert_eq!(leg.pause_left.to_bits(), ref_leg.pause_left.to_bits());
        assert_eq!(format!("{rng:?}"), format!("{ref_rng:?}"), "dt {dt}");
    }

    /// The glide case at its edges: it takes exactly the steps the loop
    /// would finish in one glide, leaves everything else untouched, and
    /// `step_leg` matches the reference loop either way.
    #[test]
    fn glide_edges_match_the_reference_loop() {
        let mut cfg = WaypointConfig::new(area(), 5.0);
        cfg.max_pause_secs = 10.0;
        let here = Point::new(100.0, 100.0);
        // A 3-4-5 leg: 5 m, exactly, from `here`.
        let there = Point::new(103.0, 104.0);
        let leg = |destination: Point, pause_left: f64| WaypointLeg {
            destination,
            pause_left,
        };
        let cases = [
            // reach == dist exactly: the arrival path, which draws.
            (leg(there, 0.0), 1.0, false),
            (leg(there, 0.0), 0.5, true),
            (leg(there, 0.0), 0.999_999, true),
            // No time to spend: a no-op.
            (leg(there, 0.0), 1e-12, false),
            (leg(there, 0.0), 0.0, false),
            (leg(there, 0.0), -1.0, false),
            (leg(there, 0.0), f64::NAN, false),
            // A pause that ends mid-step, then travel; a pause that does not.
            (leg(there, 0.4), 1.0, false),
            (leg(there, 0.4), 0.1, false),
            (leg(there, 3.0), 1.0, false),
            // A NaN pause is not a pause, to the loop or to the glide.
            (leg(there, f64::NAN), 0.5, true),
            // A zero-length leg arrives at once.
            (leg(here, 0.0), 1.0, false),
            (leg(here, 0.0), 1e-13, false),
        ];
        for (i, (start, dt, glides)) in cases.into_iter().enumerate() {
            let mut probe = here;
            assert_eq!(glide(&cfg, &mut probe, &start, dt), glides, "case {i}");
            if !glides {
                assert_eq!(probe, here, "case {i}: a refused glide moved");
            }
            let (mut position, mut leg) = (here, start);
            let mut rng = SmallRng::seed_from_u64(i as u64);
            step_both(&cfg, &mut position, &mut leg, dt, &mut rng);
            if glides {
                assert_eq!(position, probe, "case {i}");
            }
        }
        // The exact-reach case landed on the waypoint and drew a new one.
        let (mut position, mut exact) = (here, leg(there, 0.0));
        let mut rng = SmallRng::seed_from_u64(0);
        step_leg(&cfg, &mut position, &mut exact, 1.0, &mut rng);
        assert_eq!(position, there);
        assert_ne!(exact.destination, there);
    }

    /// A long walk through every kind of step, with arrivals, pauses and
    /// sub-threshold dts, matches the reference loop bit for bit.
    #[test]
    fn step_leg_walks_the_reference_path() {
        let mut cfg = WaypointConfig::new(area(), 40.0);
        cfg.max_pause_secs = 5.0;
        cfg.trip_radius = Some(200.0);
        let mut rng = SmallRng::seed_from_u64(29);
        let mut position = Point::new(500.0, 500.0);
        let mut leg = WaypointLeg::new(&cfg, position, &mut rng);
        let dts = [1.0, 0.0, 0.25, 1e-13, 7.5, 0.001, 2.0];
        let (mut arrivals, mut glides) = (0, 0);
        for i in 0..5000 {
            let dt = dts[i % dts.len()];
            let before = leg.destination;
            let mut probe = position;
            glides += usize::from(glide(&cfg, &mut probe, &leg, dt));
            step_both(&cfg, &mut position, &mut leg, dt, &mut rng);
            arrivals += usize::from(leg.destination != before);
        }
        assert!(arrivals > 100 && glides > 1000, "{arrivals} {glides}");
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
