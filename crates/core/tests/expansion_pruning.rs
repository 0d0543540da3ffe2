//! Pruning conformance suite: bound-driven SNNN expansion is
//! observationally identical to the unpruned expansion.
//!
//! The skip rule in [`SnnnExpansion::offer_pruned`] drops an exact model
//! evaluation whenever the candidate's lower bound already reaches the
//! current k-th network distance. This suite proves, over generated
//! jittered-grid road networks and both exact road models (A\* and the
//! contraction hierarchy), that the rule is *only* an optimization:
//!
//! * the pruned driver returns the same `(network_dist, poi_id)`-sorted
//!   top-k as the unpruned driver — distances bit-identical, ids in the
//!   same order — with the same cap-hit verdict, under both the
//!   free-flow Euclidean oracle and the road oracle (the exact CH bound,
//!   beside either model: `dijkstra_ch_agree` in senn-network pins A\* ≡
//!   CH bit for bit on these grids);
//! * `lb_evals` is oracle-invariant (the candidate stream the oracle
//!   sees never depends on which oracle answers), while the tighter
//!   road oracle saves at least as many evaluations;
//! * every *skipped* candidate's recorded lower bound genuinely exceeds
//!   the final k-th network distance — no skip could have changed the
//!   answer — and no skipped POI appears in the final result set.

use proptest::prelude::*;
use senn_core::distance::{DistanceModel, EuclideanBound, LowerBoundOracle};
use senn_core::{
    snnn_query, snnn_query_pruned_with, PeerCacheEntry, QueryContext, RTreeServer, SennEngine,
    SnnnConfig, SnnnExpansion, SnnnOutcome,
};
use senn_geom::Point;
use senn_network::{
    ChBound, ChDistance, ChIndex, NetworkDistance, NodeLocator, RoadClass, RoadNetwork,
};

/// Deterministic generator state for grid jitter (proptest drives the
/// seed; the construction itself must be reproducible from it).
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A connected W×H grid road network with jittered node positions and
/// mixed road classes (same idiom as senn-network's equivalence suite).
fn grid_network(w: usize, h: usize, seed: u64) -> RoadNetwork {
    let mut net = RoadNetwork::new();
    let mut rng = Mix(seed | 1);
    let spacing = 250.0;
    for y in 0..h {
        for x in 0..w {
            let jx = (rng.unit() - 0.5) * 80.0;
            let jy = (rng.unit() - 0.5) * 80.0;
            net.add_node(Point::new(x as f64 * spacing + jx, y as f64 * spacing + jy));
        }
    }
    let classes = [RoadClass::Primary, RoadClass::Secondary, RoadClass::Local];
    let id = |x: usize, y: usize| (y * w + x) as u32;
    for y in 0..h {
        for x in 0..w {
            let class = classes[(rng.next() % 3) as usize];
            if x + 1 < w {
                net.add_edge(id(x, y), id(x + 1, y), class);
            }
            if y + 1 < h {
                net.add_edge(id(x, y), id(x, y + 1), class);
            }
        }
    }
    net
}

/// POIs jittered off every second grid node.
fn poi_field(net: &RoadNetwork, seed: u64) -> Vec<(u64, Point)> {
    let mut rng = Mix(seed ^ 0xbeef);
    (0..net.node_count())
        .step_by(2)
        .enumerate()
        .map(|(i, n)| {
            let pos = net.position(n as u32);
            (
                i as u64,
                Point::new(pos.x + rng.unit() * 40.0, pos.y + rng.unit() * 40.0),
            )
        })
        .collect()
}

/// Which exact road model a case runs under (chosen by `prop_oneof!`).
#[derive(Clone, Copy, Debug, PartialEq)]
enum ModelSel {
    AStar,
    Ch,
}

fn model_strategy() -> impl Strategy<Value = ModelSel> {
    prop_oneof![Just(ModelSel::AStar), Just(ModelSel::Ch)]
}

/// One concrete model instance (fresh scratch per run — the simulator
/// does the same; distances are pure per `(query, poi)` pair).
enum Model<'a> {
    AStar(NetworkDistance<'a>),
    Ch(ChDistance<'a>),
}

impl DistanceModel for Model<'_> {
    fn distance(&mut self, q: Point, p: Point) -> Option<f64> {
        match self {
            Model::AStar(m) => m.distance(q, p),
            Model::Ch(m) => m.distance(q, p),
        }
    }
}

/// Either lower-bound oracle under one dispatchable type.
enum Oracle<'a> {
    Euclid(EuclideanBound),
    Ch(ChBound<'a>),
}

impl LowerBoundOracle for Oracle<'_> {
    fn lower_bound(&mut self, query: Point, p: Point) -> f64 {
        match self {
            Oracle::Euclid(o) => o.lower_bound(query, p),
            Oracle::Ch(o) => o.lower_bound(query, p),
        }
    }
}

/// What a case's model and oracles read: the snap locator and the
/// contraction hierarchy (the road oracle's, and the CH model's).
struct Indexes {
    locator: NodeLocator,
    ch: ChIndex,
}

impl Indexes {
    fn of(case: &Case) -> Self {
        Indexes {
            locator: NodeLocator::new(&case.net),
            ch: ChIndex::build_seeded(&case.net, case.seed),
        }
    }

    /// The case's exact model, anchored at its query point.
    fn model<'a>(&'a self, case: &'a Case) -> Model<'a> {
        let (net, locator, q) = (&case.net, &self.locator, case.q);
        match case.sel {
            ModelSel::Ch => Model::Ch(ChDistance::new(net, locator, &self.ch, q).unwrap()),
            ModelSel::AStar => Model::AStar(NetworkDistance::new(net, locator, q).unwrap()),
        }
    }

    /// The road oracle paired with either model: the exact CH bound.
    fn road_oracle<'a>(&'a self, case: &'a Case) -> Oracle<'a> {
        Oracle::Ch(ChBound::new(&case.net, &self.locator, &self.ch, case.q).unwrap())
    }
}

struct Case {
    net: RoadNetwork,
    pois: Vec<(u64, Point)>,
    q: Point,
    k: usize,
    sel: ModelSel,
    seed: u64,
}

fn run_pruned(case: &Case, use_road_oracle: bool) -> SnnnOutcome {
    let indexes = Indexes::of(case);
    let server = RTreeServer::new(case.pois.clone());
    let engine = SennEngine::default();
    let mut model = indexes.model(case);
    let mut oracle = if use_road_oracle {
        indexes.road_oracle(case)
    } else {
        Oracle::Euclid(EuclideanBound)
    };
    snnn_query_pruned_with::<PeerCacheEntry, _, _>(
        &engine,
        case.q,
        case.k,
        &[],
        &server,
        &mut model,
        &mut oracle,
        SnnnConfig::default(),
        &mut QueryContext::new(),
    )
}

fn run_unpruned(case: &Case) -> SnnnOutcome {
    let indexes = Indexes::of(case);
    let server = RTreeServer::new(case.pois.clone());
    let engine = SennEngine::default();
    let mut model = indexes.model(case);
    snnn_query::<PeerCacheEntry, _>(
        &engine,
        case.q,
        case.k,
        &[],
        &server,
        &mut model,
        SnnnConfig::default(),
    )
}

fn make_case(w: usize, h: usize, seed: u64, k: usize, sel: ModelSel) -> Case {
    let net = grid_network(w, h, seed);
    let pois = poi_field(&net, seed);
    let mut rng = Mix(seed ^ 0x9a9a);
    let q = Point::new(
        rng.unit() * (w as f64) * 250.0,
        rng.unit() * (h as f64) * 250.0,
    );
    Case {
        net,
        pois,
        q,
        k,
        sel,
        seed,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The pruned driver is a drop-in for the unpruned driver: same
    /// result set (ids in order, distances bit-identical), same cap-hit
    /// verdict — under either oracle. `lb_evals` never depends on the
    /// oracle; `model_evals_saved` is zero without pruning and at least
    /// as large under the road oracle as under the free-flow one.
    #[test]
    fn pruned_expansion_matches_unpruned(
        w in 3usize..7,
        h in 3usize..7,
        seed in any::<u64>(),
        k in 1usize..5,
        sel in model_strategy(),
    ) {
        let case = make_case(w, h, seed, k, sel);
        prop_assume!(case.pois.len() > k);
        let plain = run_unpruned(&case);
        let euclid = run_pruned(&case, false);
        let road = run_pruned(&case, true);
        for pruned in [&euclid, &road] {
            prop_assert_eq!(plain.results.len(), pruned.results.len());
            for (a, b) in plain.results.iter().zip(&pruned.results) {
                prop_assert_eq!(a.poi.poi_id, b.poi.poi_id);
                prop_assert!(
                    a.network_dist == b.network_dist,
                    "distance drifted: {} vs {}", a.network_dist, b.network_dist
                );
            }
            prop_assert_eq!(plain.trace.cap_hit, pruned.trace.cap_hit);
            // The candidate stream is oracle-invariant, so every run
            // consults its oracle the same number of times.
            prop_assert_eq!(plain.trace.lb_evals, pruned.trace.lb_evals);
        }
        // The unpruned driver runs the vacuous NeverPrune oracle.
        prop_assert_eq!(plain.trace.model_evals_saved, 0);
        prop_assert!(
            road.trace.model_evals_saved >= euclid.trace.model_evals_saved,
            "road bounds ({}) pruned less than free-flow bounds ({})",
            road.trace.model_evals_saved,
            euclid.trace.model_evals_saved
        );
    }

    /// Skip audit: drive the expansion state machine directly with the
    /// skip log enabled, and check every skipped candidate's recorded
    /// lower bound exceeds the *final* k-th network distance (the k-th
    /// distance only shrinks across rounds, so beating the bound at skip
    /// time implies beating it at the end) — and that no skipped POI
    /// made the final result set.
    #[test]
    fn every_skip_is_justified_by_the_final_bound(
        w in 3usize..7,
        h in 3usize..7,
        seed in any::<u64>(),
        k in 1usize..5,
        sel in model_strategy(),
    ) {
        let case = make_case(w, h, seed, k, sel);
        prop_assume!(case.pois.len() > k);
        let indexes = Indexes::of(&case);
        let server = RTreeServer::new(case.pois.clone());
        let engine = SennEngine::default();
        let mut model = indexes.model(&case);
        let mut oracle = indexes.road_oracle(&case);

        let initial = engine.query::<PeerCacheEntry>(case.q, case.k, &[], &server);
        let mut exp = SnnnExpansion::begin(case.q, case.k, &initial.results, &mut model);
        exp.record_skips();
        let config = SnnnConfig::default();
        while exp.needs_round() && exp.rounds() < config.max_expansion {
            let round = engine.query::<PeerCacheEntry>(case.q, exp.next_k(), &[], &server);
            exp.offer_pruned(&round.results, &mut model, &mut oracle);
        }
        prop_assert_eq!(exp.skipped().len() as u64, exp.model_evals_saved());
        let final_kth = exp.results()[case.k - 1].network_dist;
        for &(poi_id, lb) in exp.skipped() {
            prop_assert!(
                lb >= final_kth,
                "skip of poi {poi_id} unjustified: bound {lb} < final k-th {final_kth}"
            );
            prop_assert!(
                exp.results().iter().all(|r| r.poi.poi_id != poi_id),
                "skipped poi {poi_id} still surfaced in the result set"
            );
        }
    }
}

/// On a sizable grid the road oracle must actually fire: a fixed seed
/// where pruning under the CH bound saves at least 30 % of the exact
/// evaluations while the result set stays identical.
#[test]
fn pruning_saves_evaluations_on_a_large_grid() {
    let case = make_case(14, 14, 0x5eed, 3, ModelSel::Ch);
    let plain = run_unpruned(&case);
    let pruned = run_pruned(&case, true);
    assert!(
        pruned.trace.model_evals_saved * 10 >= pruned.trace.lb_evals * 3,
        "CH-bound pruning saved {} of {} exact evaluations on a 14x14 grid",
        pruned.trace.model_evals_saved,
        pruned.trace.lb_evals
    );
    assert_eq!(plain.trace.lb_evals, pruned.trace.lb_evals);
    assert_eq!(plain.results.len(), pruned.results.len());
    for (a, b) in plain.results.iter().zip(&pruned.results) {
        assert_eq!(a.poi.poi_id, b.poi.poi_id);
        assert_eq!(a.network_dist.to_bits(), b.network_dist.to_bits());
    }
}
