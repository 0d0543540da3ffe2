//! Metric-equivalence property suite: the proof obligations behind the
//! simulator's pluggable distance models.
//!
//! The SNNN expansion (Algorithm 2) is sound iff the [`DistanceModel`]
//! respects the Euclidean lower bound, and the simulator's cross-model
//! metrics-equality tests lean on the two exact road metrics (A\* and
//! CH) agreeing on every distance; movers plan routes with ALT. This suite checks both families of claims on
//! generated jittered-grid networks:
//!
//! * Dijkstra ≡ A\* ≡ ALT to 1e-9 (A\* vs ALT bit-identical — they sum
//!   the same shortest path left-to-right);
//! * Dijkstra ≡ CH to 1e-9, with the hub-label query bit-identical to
//!   A\* (the CH oracle unpacks and folds the same unique shortest
//!   path);
//! * the [`ChBound`] oracle is admissible for all exact models and
//!   bounds the zero self-distance by exactly 0 on its own snap node;
//! * every model alias answers the same bits after `rebase(q)`
//!   as a fresh `new(.., q)` (re-anchoring is shared code in `Anchored`);
//! * CH preprocessing is deterministic per seed: identical contraction
//!   orders, shortcut sets, signatures and query traces;
//! * ALT landmark lower bounds are admissible and never negative;
//! * the network metric obeys the triangle inequality and dominates the
//!   straight-line distance;
//! * the library SNNN driver returns the same result set under the A\*
//!   and CH models;
//! * landmark selection is deterministic per seed;
//! * the searches' exact effort and answer bits on a generated city are
//!   pinned, and an out-of-range node is an absent endpoint, not a panic.

use proptest::prelude::*;
use senn_core::distance::{DistanceModel, LowerBoundOracle};
use senn_core::{
    snnn_query_pruned_with, NeverPrune, QueryContext, RTreeServer, SennEngine, SnnnConfig,
};
use senn_geom::Point;
use senn_network::{
    astar_distance, astar_path, counting_alt, counting_astar, counting_ch, counting_dijkstra,
    dijkstra_distance, generate_network, ine_knn, AltIndex, ChBound, ChDistance, ChIndex,
    GeneratorConfig, NetworkDistance, NetworkPois, NodeId, NodeLocator, RoadClass, RoadNetwork,
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
/// mixed road classes. Jitter keeps shortest paths unique (no exact
/// ties), which is what lets the equivalence assertions be exact.
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

/// A handful of well-spread node pairs of a network, seeded.
fn node_pairs(net: &RoadNetwork, seed: u64, count: usize) -> Vec<(u32, u32)> {
    let n = net.node_count() as u64;
    let mut rng = Mix(seed ^ 0xabcd);
    (0..count)
        .map(|_| ((rng.next() % n) as u32, (rng.next() % n) as u32))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The three search engines compute the same distance on every sampled
    /// pair: Dijkstra within 1e-9 of A*, and A* vs ALT **bit-identical**
    /// (the agreement the simulator's whole-Metrics equality rides on).
    #[test]
    fn dijkstra_astar_alt_agree(
        w in 2usize..7,
        h in 2usize..7,
        seed in any::<u64>(),
        landmarks in 1usize..6,
    ) {
        let net = grid_network(w, h, seed);
        let index = AltIndex::build_seeded(&net, landmarks, seed);
        for (a, b) in node_pairs(&net, seed, 12) {
            let (dij, _) = counting_dijkstra(&net, a, b);
            let (ast, _) = counting_astar(&net, a, b);
            let (alt, _) = counting_alt(&net, &index, a, b);
            prop_assert_eq!(dij.is_some(), ast.is_some());
            prop_assert_eq!(ast.is_some(), alt.is_some());
            if let (Some(d), Some(s), Some(l)) = (dij, ast, alt) {
                prop_assert!((d - s).abs() < 1e-9, "dijkstra {d} vs astar {s}");
                prop_assert!(s == l, "astar {s} vs alt {l} not bit-identical");
            }
        }
    }

    /// Every landmark lower bound is admissible (≤ the true distance) and
    /// non-negative — the ALT heuristic's correctness condition.
    #[test]
    fn alt_lower_bounds_admissible(
        w in 2usize..7,
        h in 2usize..7,
        seed in any::<u64>(),
        landmarks in 1usize..8,
    ) {
        let net = grid_network(w, h, seed);
        let index = AltIndex::build_seeded(&net, landmarks, seed ^ 1);
        for (a, b) in node_pairs(&net, seed, 16) {
            let lb = index.lower_bound(a, b);
            prop_assert!(lb >= 0.0);
            if let (Some(d), _) = counting_dijkstra(&net, a, b) {
                prop_assert!(lb <= d + 1e-9, "lower bound {lb} exceeds distance {d}");
            }
        }
    }

    /// The network metric is a metric: triangle inequality over sampled
    /// triples, and symmetric (the graph is undirected).
    #[test]
    fn network_distance_is_a_metric(
        w in 2usize..6,
        h in 2usize..6,
        seed in any::<u64>(),
    ) {
        let net = grid_network(w, h, seed);
        let mut rng = Mix(seed ^ 0x7777);
        let n = net.node_count() as u64;
        for _ in 0..8 {
            let (a, b, c) = (
                (rng.next() % n) as u32,
                (rng.next() % n) as u32,
                (rng.next() % n) as u32,
            );
            let d = |x, y| counting_dijkstra(&net, x, y).0.unwrap();
            prop_assert!((d(a, b) - d(b, a)).abs() < 1e-9, "asymmetric distance");
            prop_assert!(
                d(a, c) <= d(a, b) + d(b, c) + 1e-9,
                "triangle inequality violated"
            );
            // The graph embeds its geometry: network distance dominates
            // the straight line (every edge is at least its chord).
            prop_assert!(d(a, b) + 1e-9 >= net.position(a).dist(net.position(b)));
        }
    }

    /// The library SNNN driver returns the same result set — same POI ids
    /// in the same order, distances within 1e-9 — under the A* model and
    /// the CH model.
    #[test]
    fn snnn_result_sets_agree_across_exact_models(
        w in 3usize..7,
        h in 3usize..7,
        seed in any::<u64>(),
        k in 1usize..5,
    ) {
        let net = grid_network(w, h, seed);
        let locator = NodeLocator::new(&net);
        let index = ChIndex::build_seeded(&net, seed);
        // POIs jittered off grid nodes; the query sits mid-area.
        let mut rng = Mix(seed ^ 0xbeef);
        let pois: Vec<(u64, Point)> = (0..net.node_count())
            .step_by(2)
            .enumerate()
            .map(|(i, n)| {
                let pos = net.position(n as u32);
                (
                    i as u64,
                    Point::new(pos.x + rng.unit() * 40.0, pos.y + rng.unit() * 40.0),
                )
            })
            .collect();
        prop_assume!(pois.len() > k);
        let server = RTreeServer::new(pois);
        let q = Point::new(
            rng.unit() * (w as f64) * 250.0,
            rng.unit() * (h as f64) * 250.0,
        );
        let engine = SennEngine::default();
        let mut astar = NetworkDistance::new(&net, &locator, q).unwrap();
        let mut ch = ChDistance::new(&net, &locator, &index, q).unwrap();
        let a = snnn_query_pruned_with::<senn_core::PeerCacheEntry, _, _>(&engine, q, k, &[], &server, &mut astar, &mut NeverPrune, SnnnConfig::default(), &mut QueryContext::new());
        let b = snnn_query_pruned_with::<senn_core::PeerCacheEntry, _, _>(&engine, q, k, &[], &server, &mut ch, &mut NeverPrune, SnnnConfig::default(), &mut QueryContext::new());
        prop_assert_eq!(a.results.len(), b.results.len());
        for (x, y) in a.results.iter().zip(&b.results) {
            prop_assert_eq!(x.poi.poi_id, y.poi.poi_id);
            prop_assert!((x.network_dist - y.network_dist).abs() < 1e-9);
        }
        prop_assert_eq!(a.trace.cap_hit, b.trace.cap_hit);
    }

    /// Dijkstra ≡ CH on every sampled pair: within 1e-9 of Dijkstra, and
    /// **bit-identical** to A\* — the jittered grid keeps shortest paths
    /// unique, so both fold the same edge sequence.
    #[test]
    fn dijkstra_ch_agree(
        w in 2usize..7,
        h in 2usize..7,
        seed in any::<u64>(),
    ) {
        let net = grid_network(w, h, seed);
        let index = ChIndex::build_seeded(&net, seed);
        for (a, b) in node_pairs(&net, seed, 12) {
            let (dij, _) = counting_dijkstra(&net, a, b);
            let (ast, _) = counting_astar(&net, a, b);
            let (ch, _) = counting_ch(&index, a, b);
            prop_assert_eq!(dij.is_some(), ch.is_some());
            if let (Some(d), Some(s), Some(c)) = (dij, ast, ch) {
                prop_assert!((d - c).abs() < 1e-9, "dijkstra {d} vs ch {c}");
                prop_assert!(s == c, "astar {s} vs ch {c} not bit-identical");
            }
        }
    }

    /// Admissibility of the [`ChBound`] oracle: never negative, never
    /// looser than Euclidean, never above any exact model's distance, and
    /// the degenerate self-placement (query exactly on its own snap node)
    /// bounds the zero distance by exactly 0. Because the CH oracle is
    /// exact for the length metric, the bound must also equal the
    /// [`ChDistance`] model's value bit-for-bit.
    #[test]
    fn ch_bound_admissible(
        w in 2usize..6,
        h in 2usize..6,
        seed in any::<u64>(),
    ) {
        let net = grid_network(w, h, seed);
        let locator = NodeLocator::new(&net);
        let index = ChIndex::build_seeded(&net, seed);
        for (a, b) in node_pairs(&net, seed, 8) {
            let q = net.position(a);
            let mut bound = ChBound::new(&net, &locator, &index, q).unwrap();
            let mut astar = NetworkDistance::new(&net, &locator, q).unwrap();
            let mut ch = ChDistance::new(&net, &locator, &index, q).unwrap();
            let mid = Point::new(
                (q.x + net.position(b).x) / 2.0,
                (q.y + net.position(b).y) / 2.0,
            );
            for p in [q, net.position(b), mid] {
                let lb = bound.lower_bound(q, p);
                prop_assert!(lb >= 0.0, "negative bound {lb}");
                prop_assert!(lb >= q.dist(p) - 1e-9, "looser than Euclidean");
                for exact in [astar.distance(q, p), ch.distance(q, p)]
                    .into_iter()
                    .flatten()
                {
                    prop_assert!(lb <= exact + 1e-9, "bound {lb} overshot exact {exact}");
                }
                if let Some(exact) = ch.distance(q, p) {
                    prop_assert_eq!(lb.to_bits(), exact.to_bits(),
                        "the CH bound must equal the CH model bit-for-bit");
                }
            }
            // The self-placement: distance 0, bound exactly 0.
            prop_assert_eq!(bound.lower_bound(q, q), 0.0);
            prop_assert_eq!(ch.distance(q, q), Some(0.0));
        }
    }

    /// Re-anchoring is one shared function for every alias: a model or
    /// bound built somewhere else and `rebase`d to `q` must answer
    /// bit-for-bit what a fresh `new(.., q)` answers (the reused search
    /// scratch leaks nothing across anchors).
    #[test]
    fn rebase_equals_fresh_anchor_for_every_alias(
        w in 2usize..6,
        h in 2usize..6,
        seed in any::<u64>(),
        coords in prop::collection::vec(0.0..1200.0f64, 6),
    ) {
        let net = grid_network(w, h, seed);
        let locator = NodeLocator::new(&net);
        let ch = ChIndex::build_seeded(&net, seed);
        let (far, q, p) = (
            Point::new(coords[0], coords[1]),
            Point::new(coords[2], coords[3]),
            Point::new(coords[4], coords[5]),
        );
        // Each pair: one instance anchored at `far`, warmed by a search,
        // then rebased to `q`; one anchored at `q` from the start.
        macro_rules! check_model {
            ($new:expr) => {{
                let (mut moved, mut fresh) = ($new(far).unwrap(), $new(q).unwrap());
                moved.distance(far, p);
                prop_assert!(moved.rebase(q));
                prop_assert_eq!(moved.query_node(), fresh.query_node());
                prop_assert_eq!(
                    moved.distance(q, p).map(f64::to_bits),
                    fresh.distance(q, p).map(f64::to_bits)
                );
            }};
        }
        macro_rules! check_bound {
            ($new:expr) => {{
                let (mut moved, mut fresh) = ($new(far).unwrap(), $new(q).unwrap());
                moved.lower_bound(far, p);
                prop_assert!(moved.rebase(q));
                prop_assert_eq!(moved.query_node(), fresh.query_node());
                prop_assert_eq!(
                    moved.lower_bound(q, p).to_bits(),
                    fresh.lower_bound(q, p).to_bits()
                );
            }};
        }
        check_model!(|at| NetworkDistance::new(&net, &locator, at));
        check_model!(|at| ChDistance::new(&net, &locator, &ch, at));
        check_bound!(|at| ChBound::new(&net, &locator, &ch, at));
    }

    /// CH preprocessing is a pure function of (network, seed): identical
    /// contraction orders, shortcut sets, hub labels (via the signature)
    /// and per-query effort traces across repeated builds.
    #[test]
    fn ch_build_deterministic_per_seed(
        w in 2usize..7,
        h in 2usize..7,
        seed in any::<u64>(),
    ) {
        let net = grid_network(w, h, seed);
        let x = ChIndex::build_seeded(&net, seed);
        let y = ChIndex::build_seeded(&net, seed);
        prop_assert_eq!(x.order(), y.order());
        prop_assert_eq!(x.shortcut_count(), y.shortcut_count());
        prop_assert_eq!(x.label_entries(), y.label_entries());
        prop_assert_eq!(x.signature(), y.signature());
        for (a, b) in node_pairs(&net, seed ^ 3, 6) {
            let (dx, sx) = counting_ch(&x, a, b);
            let (dy, sy) = counting_ch(&y, a, b);
            prop_assert_eq!(dx.map(f64::to_bits), dy.map(f64::to_bits));
            prop_assert_eq!((sx.settled, sx.relaxed), (sy.settled, sy.relaxed),
                "query traces diverged between equal-seed builds");
        }
    }

    /// Landmark selection is a pure function of (network, count, seed).
    #[test]
    fn landmark_selection_deterministic_per_seed(
        w in 2usize..7,
        h in 2usize..7,
        seed in any::<u64>(),
        landmarks in 1usize..9,
    ) {
        let net = grid_network(w, h, seed);
        let a = AltIndex::build_seeded(&net, landmarks, seed);
        let b = AltIndex::build_seeded(&net, landmarks, seed);
        prop_assert_eq!(a.landmarks(), b.landmarks());
        prop_assert_eq!(
            a.landmarks()[0] as u64,
            seed % net.node_count() as u64,
            "first landmark is pinned by the seed"
        );
    }
}

/// ALT's stronger heuristic never relaxes more edges than plain Dijkstra
/// on a sizable grid, and typically strictly fewer.
#[test]
fn alt_prunes_against_dijkstra_on_large_grid() {
    let net = grid_network(18, 18, 0x5eed);
    let index = AltIndex::build_seeded(&net, 6, 42);
    let mut total_dij = 0u64;
    let mut total_alt = 0u64;
    for (a, b) in node_pairs(&net, 9, 24) {
        let (d, sd) = counting_dijkstra(&net, a, b);
        let (l, sl) = counting_alt(&net, &index, a, b);
        assert_eq!(d.is_some(), l.is_some());
        if let (Some(d), Some(l)) = (d, l) {
            assert!((d - l).abs() < 1e-9);
        }
        assert!(sl.settled <= sd.settled, "ALT settled more than Dijkstra");
        total_dij += sd.relaxed;
        total_alt += sl.relaxed;
    }
    assert!(
        total_alt < total_dij,
        "ALT relaxed {total_alt} vs Dijkstra {total_dij}"
    );
}

/// The hub-label oracle's per-query work (label entries scanned) is a
/// small fraction of A*'s edge relaxations on a sizable grid (the >= 10x
/// floor on an 8 km city is asserted by
/// `ch::tests::ch_relaxes_far_fewer_edges_than_astar`).
#[test]
fn ch_oracle_beats_astar_on_large_grid() {
    let net = grid_network(18, 18, 0x5eed);
    let index = ChIndex::build_seeded(&net, 42);
    let mut total_ast = 0u64;
    let mut total_ch = 0u64;
    for (a, b) in node_pairs(&net, 9, 24) {
        let (s, ss) = counting_astar(&net, a, b);
        let (c, sc) = counting_ch(&index, a, b);
        assert_eq!(s.is_some(), c.is_some());
        if let (Some(s), Some(c)) = (s, c) {
            assert!((s - c).abs() < 1e-9);
        }
        total_ast += ss.relaxed;
        total_ch += sc.relaxed;
    }
    assert!(
        total_ch * 3 < total_ast,
        "CH scanned {total_ch} label entries vs A* {total_ast} relaxations"
    );
}

/// One FNV-1a step over a 64-bit word.
fn fnv(hash: &mut u64, word: u64) {
    *hash = (*hash ^ word).wrapping_mul(0x0100_0000_01b3);
}

/// Pins the exact work and answer bits of the label-setting searches on a
/// generated city:
/// - the summed `(settled, relaxed)` of Dijkstra, A\* and ALT over 64
///   fixed pairs;
/// - an FNV fold of those distances and of the A\* routes;
/// - the bits of `ine_knn` at two queries.
///
/// Any change to the queue's pop order, the relaxation arithmetic or a
/// heuristic moves these numbers. The ratio floors above would not notice.
/// The expected values were computed by compiling this test into the tree
/// from before the searches shared one kernel, when each search still ran
/// its own loop. The ALT effort was re-pinned once, when the landmark
/// table became `f32` rows less a two-ulp slack: nodes whose `f64` bound
/// tied the target's priority now sit a millimetre below it and settle
/// first (1 655 → 1 674 settles); every answer bit stayed.
#[test]
fn search_effort_and_answer_bits_are_pinned() {
    let net = generate_network(&GeneratorConfig::city(3000.0, 7));
    let locator = NodeLocator::new(&net);
    let index = AltIndex::build_seeded(&net, 6, 11);
    let mut effort = [(0u64, 0u64); 3];
    let mut fold = 0xcbf2_9ce4_8422_2325u64;
    for (a, b) in node_pairs(&net, 0x31, 64) {
        let runs = [
            counting_dijkstra(&net, a, b),
            counting_astar(&net, a, b),
            counting_alt(&net, &index, a, b),
        ];
        for (sum, (d, stats)) in effort.iter_mut().zip(runs) {
            sum.0 += stats.settled;
            sum.1 += stats.relaxed;
            fnv(&mut fold, d.map_or(u64::MAX, f64::to_bits));
        }
        for node in astar_path(&net, a, b).map_or(vec![], |(route, _)| route) {
            fnv(&mut fold, node.into());
        }
    }
    let pois = NetworkPois::snap(
        &net,
        (0..40u32)
            .map(|i| Point::new(f64::from(i * 613 % 3000), f64::from(i * 1709 % 3000)))
            .collect(),
    );
    let ine: Vec<(u32, u64)> = [Point::new(1400.0, 1600.0), Point::new(250.0, 2800.0)]
        .into_iter()
        .flat_map(|q| ine_knn(&net, &pois, q, locator.nearest(q).unwrap(), 4))
        .map(|n| (n.poi, n.network_dist.to_bits()))
        .collect();
    assert_eq!(effort, [(15356, 55445), (3658, 13602), (1674, 6128)]);
    assert_eq!(fold, 11891478617877047852);
    assert_eq!(
        ine,
        [
            (22, 4643856334874944324),
            (36, 4644931748959993339),
            (17, 4647932647882818014),
            (27, 4649323282277378519),
            (35, 4644071552696603275),
            (21, 4650099329086531396),
            (5, 4650240655972539734),
            (10, 4652310368856228701)
        ]
    );
}

/// A node id one past the end of the network is an absent endpoint: every
/// search answers `None` (or no neighbours) instead of indexing out of
/// bounds.
#[test]
fn out_of_range_endpoints_are_none() {
    let net = generate_network(&GeneratorConfig::city(1500.0, 3));
    let n = net.node_count() as NodeId;
    let index = AltIndex::build(&net, 2);
    let pois = NetworkPois::snap(&net, vec![Point::new(100.0, 100.0)]);
    for (a, b) in [(0, n), (n, 0), (n, n)] {
        assert_eq!(dijkstra_distance(&net, a, b), None);
        assert_eq!(astar_distance(&net, a, b), None);
        assert!(astar_path(&net, a, b).is_none());
        assert_eq!(counting_alt(&net, &index, a, b).0, None);
    }
    assert!(ine_knn(&net, &pois, Point::new(0.0, 0.0), n, 1).is_empty());
}
