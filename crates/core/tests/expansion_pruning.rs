//! Pruning conformance suite: bound-driven SNNN expansion is
//! observationally identical to the unpruned expansion.
//!
//! The skip rule in [`SnnnExpansion::offer_pruned`] drops an exact model
//! evaluation whenever the candidate's lower bound already reaches the
//! current k-th network distance. This suite proves, over generated
//! jittered-grid road networks and all three exact road metrics (A\*,
//! ALT, time-dependent), that the rule is *only* an optimization:
//!
//! * the pruned driver returns the same `(network_dist, poi_id)`-sorted
//!   top-k as the unpruned driver — distances bit-identical, ids in the
//!   same order — with the same cap-hit verdict, under both the
//!   free-flow Euclidean oracle and the ALT landmark oracle;
//! * `lb_evals` is oracle-invariant (the candidate stream the oracle
//!   sees never depends on which oracle answers), while the tighter
//!   landmark oracle saves at least as many evaluations;
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
    AltBound, AltDistance, AltIndex, NetworkDistance, NodeLocator, RoadClass, RoadNetwork,
    TimeDependentCost,
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

/// Which exact road metric a case runs under (chosen by `prop_oneof!`).
#[derive(Clone, Copy, Debug)]
enum ModelSel {
    AStar,
    Alt,
    TimeDependent(f64),
}

fn model_strategy() -> impl Strategy<Value = ModelSel> {
    prop_oneof![
        Just(ModelSel::AStar),
        Just(ModelSel::Alt),
        (0.0..24.0f64).prop_map(ModelSel::TimeDependent),
    ]
}

/// One concrete model instance (fresh scratch per run — the simulator
/// does the same; distances are pure per `(query, poi)` pair).
enum Model<'a> {
    AStar(NetworkDistance<'a>),
    Alt(AltDistance<'a>),
    Td(TimeDependentCost<'a>),
}

impl Model<'_> {
    fn build<'a>(
        sel: ModelSel,
        net: &'a RoadNetwork,
        locator: &'a NodeLocator,
        index: &'a AltIndex,
        q: Point,
    ) -> Model<'a> {
        match sel {
            ModelSel::AStar => Model::AStar(NetworkDistance::new(net, locator, q).unwrap()),
            ModelSel::Alt => Model::Alt(AltDistance::new(net, locator, index, q).unwrap()),
            ModelSel::TimeDependent(hour) => {
                Model::Td(TimeDependentCost::new(net, locator, q, hour).unwrap())
            }
        }
    }
}

impl DistanceModel for Model<'_> {
    fn distance(&mut self, q: Point, p: Point) -> Option<f64> {
        match self {
            Model::AStar(m) => m.distance(q, p),
            Model::Alt(m) => m.distance(q, p),
            Model::Td(m) => m.distance(q, p),
        }
    }
}

/// Either lower-bound oracle under one dispatchable type.
enum Oracle<'a> {
    Euclid(EuclideanBound),
    Alt(AltBound<'a>),
}

impl LowerBoundOracle for Oracle<'_> {
    fn lower_bound(&mut self, query: Point, p: Point) -> f64 {
        match self {
            Oracle::Euclid(o) => o.lower_bound(query, p),
            Oracle::Alt(o) => o.lower_bound(query, p),
        }
    }
}

struct Case {
    net: RoadNetwork,
    pois: Vec<(u64, Point)>,
    q: Point,
    k: usize,
    sel: ModelSel,
    landmarks: usize,
    seed: u64,
}

fn run_pruned(case: &Case, use_alt_oracle: bool) -> SnnnOutcome {
    let locator = NodeLocator::new(&case.net);
    let index = AltIndex::build_seeded(&case.net, case.landmarks, case.seed);
    let server = RTreeServer::new(case.pois.clone());
    let engine = SennEngine::default();
    let mut model = Model::build(case.sel, &case.net, &locator, &index, case.q);
    let mut oracle = if use_alt_oracle {
        Oracle::Alt(AltBound::new(&case.net, &locator, &index, case.q).unwrap())
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
    let locator = NodeLocator::new(&case.net);
    let index = AltIndex::build_seeded(&case.net, case.landmarks, case.seed);
    let server = RTreeServer::new(case.pois.clone());
    let engine = SennEngine::default();
    let mut model = Model::build(case.sel, &case.net, &locator, &index, case.q);
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

fn make_case(w: usize, h: usize, seed: u64, k: usize, sel: ModelSel, landmarks: usize) -> Case {
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
        landmarks,
        seed,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The pruned driver is a drop-in for the unpruned driver: same
    /// result set (ids in order, distances bit-identical), same cap-hit
    /// verdict — under either oracle. `lb_evals` never depends on the
    /// oracle; `model_evals_saved` is zero without pruning and at least
    /// as large under the landmark oracle as under the free-flow one.
    #[test]
    fn pruned_expansion_matches_unpruned(
        w in 3usize..7,
        h in 3usize..7,
        seed in any::<u64>(),
        k in 1usize..5,
        landmarks in 1usize..5,
        sel in model_strategy(),
    ) {
        let case = make_case(w, h, seed, k, sel, landmarks);
        prop_assume!(case.pois.len() > k);
        let plain = run_unpruned(&case);
        let euclid = run_pruned(&case, false);
        let landmark = run_pruned(&case, true);
        for pruned in [&euclid, &landmark] {
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
            landmark.trace.model_evals_saved >= euclid.trace.model_evals_saved,
            "landmark bounds ({}) pruned less than free-flow bounds ({})",
            landmark.trace.model_evals_saved,
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
        landmarks in 1usize..5,
        sel in model_strategy(),
    ) {
        let case = make_case(w, h, seed, k, sel, landmarks);
        prop_assume!(case.pois.len() > k);
        let locator = NodeLocator::new(&case.net);
        let index = AltIndex::build_seeded(&case.net, case.landmarks, case.seed);
        let server = RTreeServer::new(case.pois.clone());
        let engine = SennEngine::default();
        let mut model = Model::build(case.sel, &case.net, &locator, &index, case.q);
        let mut oracle = Oracle::Alt(AltBound::new(&case.net, &locator, &index, case.q).unwrap());

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

/// On a sizable grid the landmark oracle must actually fire: a fixed
/// seed where pruning saves at least 30 % of the exact evaluations
/// while the result set stays identical.
#[test]
fn pruning_saves_evaluations_on_a_large_grid() {
    let case = make_case(14, 14, 0x5eed, 3, ModelSel::Alt, 6);
    let plain = run_unpruned(&case);
    let pruned = run_pruned(&case, true);
    assert!(
        pruned.trace.model_evals_saved * 10 >= pruned.trace.lb_evals * 3,
        "landmark pruning saved {} of {} exact evaluations on a 14x14 grid",
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
