//! The correctness oracle: every answer the peers or the server give is the
//! true kNN.
//!
//! Lemmas 3.2 and 3.8 promise that a peer-resolved answer (`SinglePeer`,
//! `MultiPeer`) equals what the server would have said, and a `Server`
//! answer — a degraded unpruned one included — is exact by construction.
//! This steps short simulations interval by interval and grades each such
//! answer against a linear scan over `poi_positions()` — no R\*-tree, no
//! cache, no code shared with the pipeline. It is the gate for changes that
//! are *not* bit-identical (another certain region, another cache
//! extension, another route to the server): those may certify more, never
//! something wrong. A wrong certification anywhere surfaces here, also when
//! it first only lands in a cache: the cached entry then certifies a wrong
//! answer for a later querier. An answer is graded at the point it was
//! issued from, so a reply that lands intervals later under an overlapped
//! transport is held to the place it was computed for.
//!
//! On a run with a road metric, Algorithm 2's ranking of every expanded
//! answer is graded the same way: against a Dijkstra map from the query's
//! snap node, summed in the one snap convention (query leg, core distance,
//! POI leg) over every POI.
//!
//! Every run also balances its books: the answers handed out by the steps
//! and by the final drain are exactly the queries issued.

use senn_core::multiple::RegionMethod;
use senn_core::Resolution;
use senn_geom::Point;
use senn_network::{dijkstra_map, NetworkPois, NodeLocator, RoadNetwork};
use senn_sim::{
    Answer, KChoice, MovementMode, NetworkModelKind, ParamSet, SimConfig, SimParams, Simulator,
    TransportPolicy,
};

/// Distances from `query` to its `k` nearest POIs, ascending.
fn linear_scan_knn(pois: &[Point], query: Point, k: usize) -> Vec<f64> {
    let mut dists: Vec<f64> = pois.iter().map(|p| query.dist(*p)).collect();
    dists.sort_by(f64::total_cmp);
    dists.truncate(k);
    dists
}

/// True when `answer` names real POIs at their real distances and those
/// are the `k` smallest there are.
fn is_true_knn(pois: &[Point], answer: &Answer) -> bool {
    let truth = linear_scan_knn(pois, answer.query, answer.k);
    answer.results.len() == truth.len()
        && answer.results.iter().zip(&truth).all(|(got, want)| {
            pois.get(got.poi.poi_id as usize) == Some(&got.poi.position)
                && got.certain
                && (got.dist - want).abs() <= 1e-9
        })
}

/// The road-network brute force of one world: its network, every POI
/// snapped to its nearest node once (POIs never move in these worlds), and
/// a Dijkstra map from each POI's snap node — on the undirected network,
/// the core distance from every query node.
struct RoadTruth {
    net: RoadNetwork,
    locator: NodeLocator,
    pois: NetworkPois,
    maps: Vec<Vec<f64>>,
}

impl RoadTruth {
    fn of(sim: &Simulator) -> Self {
        let net = sim
            .network()
            .expect("every world has a road network")
            .clone();
        let pois = NetworkPois::snap(&net, sim.poi_positions().to_vec());
        let snaps = (0..pois.len() as u32).map(|i| pois.snap_node(i));
        RoadTruth {
            maps: snaps.map(|n| dijkstra_map(&net, n)).collect(),
            locator: NodeLocator::new(&net),
            pois,
            net,
        }
    }

    /// The network distance from `q` to every POI, indexed by POI id:
    /// query leg + core distance + POI leg (infinite when unreachable).
    fn distances(&self, q: Point) -> Vec<f64> {
        let qn = self.locator.nearest(q).expect("a non-empty network");
        let leg = q.dist(self.net.position(qn));
        let legs = (0..self.pois.len() as u32).map(|i| self.pois.snap_leg(i));
        let maps = self.maps.iter().zip(legs);
        maps.map(|(map, poi_leg)| leg + map[qn as usize] + poi_leg)
            .collect()
    }

    /// True when `answer`'s road ranking is confirmed and names real POIs
    /// at their true network distances, the `k` smallest there are:
    /// distances agree within 1e-9 m, so ids may differ only within a tie.
    fn is_true_ranking(&self, pois: &[Point], answer: &Answer) -> bool {
        let Some(ranking) = &answer.ranking else {
            return true;
        };
        let near = |a: f64, b: f64| a == b || (a - b).abs() <= 1e-9;
        let dists = self.distances(answer.query);
        let mut truth = dists.clone();
        truth.sort_by(f64::total_cmp);
        truth.truncate(answer.k);
        ranking.confirmed
            && ranking.results.len() == truth.len()
            && ranking.results.iter().zip(&truth).all(|(got, &want)| {
                let id = got.poi.poi_id as usize;
                pois.get(id) == Some(&got.poi.position)
                    && near(got.network_dist, dists[id])
                    && near(got.network_dist, want)
            })
    }
}

/// What a set of runs graded.
#[derive(Default)]
struct Tally {
    configs: u64,
    graded: u64,
    multi: u64,
    server: u64,
    ranked: u64,
    /// Rankings of answers the peers certified through `R_c`.
    ranked_multi: u64,
    wrong: Vec<String>,
}

impl Tally {
    fn grade(&mut self, sim: &Simulator, road: Option<&RoadTruth>, label: &str) {
        for answer in sim.last_answers() {
            if let (Some(road), Some(_)) = (road, &answer.ranking) {
                self.ranked += 1;
                self.ranked_multi += (answer.resolution == Resolution::MultiPeer) as u64;
                if !road.is_true_ranking(sim.poi_positions(), answer) {
                    let t = sim.time();
                    self.wrong
                        .push(format!("{label} t={t:.1}s, road ranking: {answer:?}"));
                }
            }
            match answer.resolution {
                Resolution::SinglePeer => {}
                Resolution::MultiPeer => self.multi += 1,
                Resolution::Server => self.server += 1,
                _ => continue,
            }
            self.graded += 1;
            if !is_true_knn(sim.poi_positions(), answer) {
                let t = sim.time();
                self.wrong.push(format!("{label} t={t:.1}s: {answer:?}"));
            }
        }
    }

    /// Steps `cfg` to its horizon, grading every answer the steps and the
    /// final drain hand out.
    fn run(&mut self, cfg: SimConfig, label: &str) {
        let mut sim = Simulator::new(cfg);
        let road = cfg.distance_model.map(|_| RoadTruth::of(&sim));
        let mut answered = 0;
        while sim.step() {
            answered += sim.last_answers().len() as u64;
            self.grade(&sim, road.as_ref(), label);
        }
        let m = sim.run();
        answered += sim.last_answers().len() as u64;
        self.grade(&sim, road.as_ref(), label);
        self.configs += 1;
        assert!(m.queries > 0, "{label}: empty run proves nothing");
        assert_eq!(
            m.queries,
            m.single_peer + m.multi_peer + m.server + m.accepted_uncertain,
            "{label}: every query is attributed exactly once"
        );
        assert_eq!(
            answered,
            sim.batch_stats().queries,
            "{label}: every issued query is answered exactly once"
        );
    }

    fn assert_all_true(&self) {
        println!(
            "graded {} answers ({} multi-peer, {} server) and {} road rankings ({} multi-peer) \
             over {} configs",
            self.graded, self.multi, self.server, self.ranked, self.ranked_multi, self.configs
        );
        assert!(
            self.wrong.is_empty(),
            "{} of {} answers are not the true kNN:\n{}",
            self.wrong.len(),
            self.graded,
            self.wrong.join("\n")
        );
    }
}

/// A 1/50-scale county world, a quarter of an hour long, graded on
/// exact answers only.
fn world(set: ParamSet, seed: u64) -> SimConfig {
    let mut params = SimParams::thirty_by_thirty(set).scaled_down(50.0);
    params.t_execution_hours = 0.25;
    let mut cfg = SimConfig::new(params, seed);
    cfg.accept_uncertain = false;
    cfg.compare_inn = false;
    cfg
}

/// A world whose caches hold exactly `k` POIs: a peer's cache then
/// certifies a whole answer only from close by, so far more queries
/// resolve through the merged region `R_c` (Lemma 3.8) than at the
/// defaults.
fn warm_world(seed: u64) -> SimConfig {
    let mut cfg = world(ParamSet::LosAngeles, seed);
    cfg.params.c_size = 4;
    cfg.params.t_execution_hours = 0.5;
    cfg.k_choice = KChoice::Fixed(4);
    cfg
}

#[test]
fn multi_peer_answers_equal_the_linear_scan_knn() {
    for (method, floor) in [
        (RegionMethod::Exact, 1000),
        (RegionMethod::Polygonized { vertices: 24 }, 300),
    ] {
        let mut tally = Tally::default();
        for mode in [MovementMode::RoadNetwork, MovementMode::FreeMovement] {
            let configs = tally.configs;
            let mut cfg = warm_world(0x3a1_7100 + configs);
            cfg.mode = mode;
            cfg.region_method = method;
            tally.run(
                cfg,
                &format!("warm config {configs} ({mode:?}, {method:?})"),
            );
        }
        tally.assert_all_true();
        assert!(tally.multi >= floor, "{method:?}: multi {}", tally.multi);
    }
}

#[test]
fn peer_resolved_answers_equal_the_linear_scan_knn() {
    let methods = [
        RegionMethod::Exact,
        RegionMethod::Polygonized { vertices: 24 },
    ];
    let k_choices = [
        KChoice::Fixed(1),
        KChoice::MeanLambda,
        KChoice::Uniform(3, 9),
    ];
    let mut tally = Tally::default();
    for mode in [MovementMode::RoadNetwork, MovementMode::FreeMovement] {
        for method in methods {
            for k_choice in k_choices {
                for threads in [1, 2] {
                    // Dense peers, so most answers come from them and the
                    // multi-peer stage and the cache extension both run.
                    let configs = tally.configs;
                    let mut cfg = world(ParamSet::LosAngeles, 0x0eac1e + configs);
                    cfg.mode = mode;
                    cfg.region_method = method;
                    cfg.k_choice = k_choice;
                    cfg.threads = Some(threads);
                    let label = format!(
                        "config {configs} ({mode:?}, {method:?}, {k_choice:?}, threads {threads})"
                    );
                    tally.run(cfg, &label);
                }
            }
        }
    }
    assert!(tally.configs >= 24);
    // The worlds reach what they are meant to grade.
    assert!(
        tally.graded > 1000 && tally.multi > 10 && tally.server > 100,
        "graded {}, multi {}, server {}",
        tally.graded,
        tally.multi,
        tally.server
    );
    tally.assert_all_true();
}

#[test]
fn overlapped_transport_answers_equal_the_linear_scan_knn() {
    // The uplink workload's policy: replies land one interval or more
    // after their query, while the querier moves on. Under a road metric
    // the SNNN expansion rides the same transport; the graded answer is
    // its Euclidean round.
    let transport = TransportPolicy {
        queue_cap: 1 << 20,
        shed: false,
        ..TransportPolicy::default()
    };
    let mut tally = Tally::default();
    for set in [ParamSet::LosAngeles, ParamSet::Riverside] {
        for model in [None, Some(NetworkModelKind::AStar)] {
            let configs = tally.configs;
            let mut cfg = world(set, 0x7a5e + configs);
            cfg.transport = Some(transport);
            cfg.distance_model = model;
            tally.run(cfg, &format!("config {configs} ({set:?}, {model:?})"));
        }
    }
    assert!(
        tally.graded > 500 && tally.server > 100,
        "graded {}, server {}",
        tally.graded,
        tally.server
    );
    tally.assert_all_true();
}

#[test]
fn snnn_rankings_equal_the_road_brute_force() {
    // Algorithm 2 under both road metrics, with its server trips settled
    // in the interval or overlapping later ones, on one worker thread or
    // two: every ranking it hands out is the road kNN.
    let transport = TransportPolicy {
        queue_cap: 1 << 20,
        shed: false,
        ..TransportPolicy::default()
    };
    let mut tally = Tally::default();
    for model in [NetworkModelKind::AStar, NetworkModelKind::Ch] {
        for overlapped in [None, Some(transport)] {
            for threads in [1, 2] {
                let configs = tally.configs;
                let mut cfg = world(ParamSet::LosAngeles, 0x5_0a0 + configs);
                // Two simulated minutes: ≈ 300 rankings a run.
                cfg.params.t_execution_hours = 0.035;
                cfg.distance_model = Some(model);
                cfg.transport = overlapped;
                cfg.threads = Some(threads);
                let label = format!(
                    "config {configs} ({model:?}, overlapped {}, threads {threads})",
                    overlapped.is_some()
                );
                tally.run(cfg, &label);
            }
        }
    }
    // A warm world, where the range rounds settle on `R_c`.
    let mut cfg = warm_world(0x5_0a0 + tally.configs);
    cfg.distance_model = Some(NetworkModelKind::AStar);
    tally.run(cfg, "warm config (AStar)");
    tally.assert_all_true();
    assert!(tally.ranked >= 2000, "ranked {}", tally.ranked);
    assert!(
        tally.ranked_multi >= 100,
        "multi-peer rankings {}",
        tally.ranked_multi
    );
}
