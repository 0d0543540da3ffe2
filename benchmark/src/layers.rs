//! The layer drive: after one traced `Simulator::run`, the world is read
//! back through the simulator's public accessors, each layer's public
//! object is rebuilt, and a fixed sample of the workload's operations is
//! replayed against it inside batch spans. Nothing here reaches into a
//! crate: a layer is timed by calling its public functions.
//!
//! The sample is a pure function of the workload's configuration and seed,
//! so every count this file reports repeats exactly from run to run.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use senn_cache::{CacheEntry, MostRecentCache, QueryCache};
use senn_core::multiple::collect_circles;
use senn_core::pipeline::{multi_verify, peer_probe, single_verify};
use senn_core::service::{RequestOutcome, ServerRequest};
use senn_core::transport::{submit_with_retry, AsyncClient};
use senn_core::{
    snnn_query_pruned_with, QueryContext, RTreeServer, Resolution, SearchBounds, SennConfig,
    SennEngine, SnnnConfig, SpatialService,
};
use senn_geom::polygon::DEFAULT_POLYGONIZATION_VERTICES;
use senn_geom::{Circle, Point, PolygonRegion, Rect};
use senn_mobility::{HostMobility, RandomWaypoint, RoadMover, RoadMoverConfig, WaypointConfig};
use senn_network::{
    astar_path, counting_astar, generate_network, ChBound, ChDistance, ChIndex, ChScratch,
    GeneratorConfig, NodeId, NodeLocator, RoadNetwork,
};
use senn_rtree::RStarTree;
use senn_server::{FaultConfig, FaultyService, ShardedService};
use senn_sim::{BatchStats, HostGrid, Metrics, MovementMode, SimConfig, Simulator};

use crate::metrics::{per_layer, On};
use crate::oracle;
use crate::spans::{Timing, Tracer};

/// Salt separating the drive's sampling stream from every consumer of the
/// seed inside the program.
const DRIVE_SALT: u64 = 0xbe7c_4d21_9a35_06ef;

/// Uplink lanes of the simulator's transport (`senn_sim` fixes it at 4 and
/// does not export it).
const TRANSPORT_LANES: usize = 4;

/// Answers checked against the brute-force oracles per kind.
const ORACLE_SAMPLE: usize = 128;

/// The per-layer values of one traced run, by metric name.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            per_layer(name).is_some(),
            "{name} is not in the metric table"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().map(|(k, v)| (*k, *v))
    }
}

/// Oracle checks made and failed.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// One sampled query: a host asking for its `k` nearest POIs from where it
/// stands at the end of the run.
struct Query {
    host: u32,
    at: Point,
    k: usize,
}

/// What a server-bound sampled query still needs, as the truth server's
/// EINN shadow is asked for it.
struct Residual {
    at: Point,
    need: usize,
    bounds: SearchBounds,
    request: ServerRequest,
}

/// Nanoseconds per operation of each layer, kept for the ledger.
#[derive(Default)]
struct Costs {
    step_ns: f64,
    apply_move_ns: f64,
    within_ns: f64,
    peers_only_ns: f64,
    inn_ns: f64,
    einn_ns: f64,
    server_request_ns: f64,
    model_eval_ns: f64,
}

pub struct Drive<'a> {
    sim: &'a Simulator,
    cfg: SimConfig,
    net: &'a RoadNetwork,
    area: Rect,
    positions: Vec<Point>,
    /// Per host, the distances from where it stands to the distinct POIs
    /// its cache holds at the end of the run, ascending.
    cached_dists: Vec<Vec<f64>>,
    pois: Vec<(u64, Point)>,
    rng: SmallRng,
    /// Scale of every sample: 1 for numbers, smaller under `--quick`.
    shrink: usize,
    costs: Costs,
    pub values: Values,
    pub checks: Checks,
}

impl<'a> Drive<'a> {
    /// Snapshots the world of a finished run.
    pub fn new(sim: &'a Simulator, quick: bool) -> Self {
        let cfg = *sim.config();
        let side = cfg.params.area_side_m();
        let hosts = sim.rknn_hosts();
        let positions = hosts.iter().map(|h| h.position).collect();
        Drive {
            sim,
            cfg,
            net: sim.network().expect("the simulator keeps its road network"),
            area: Rect::new(Point::ORIGIN, Point::new(side, side)),
            positions,
            cached_dists: hosts.into_iter().map(|h| h.cached_dists).collect(),
            pois: sim
                .poi_positions()
                .iter()
                .enumerate()
                .map(|(i, p)| (i as u64, *p))
                .collect(),
            rng: SmallRng::seed_from_u64(cfg.seed ^ DRIVE_SALT),
            shrink: if quick { 8 } else { 1 },
            costs: Costs::default(),
            values: Values::default(),
            checks: Checks::default(),
        }
    }

    fn on(&self, on: On) -> bool {
        on.applies(&self.cfg)
    }

    fn sized(&self, n: usize) -> usize {
        (n / self.shrink).max(16)
    }

    /// Drives every layer the workload exercises, each under its own span.
    pub fn run(&mut self, tr: &mut Tracer, metrics: &Metrics, stats: &BatchStats, run_wall_s: f64) {
        let queries = self.sample_queries();
        let grid = tr.scope("grid", |tr| self.grid(tr, &queries));
        tr.scope("mobility", |tr| self.mobility(tr, grid.0, stats));
        let caches = tr.scope("cache", |tr| self.cache(tr, &queries, &grid.1));
        let peers = gather_peers(&queries, &grid.1, &caches);
        let residuals = tr.scope("core", |tr| self.core(tr, &queries, &peers));
        if self.on(On::Road) {
            tr.scope("geom", |tr| self.geom(tr, &queries, &peers));
        }
        tr.scope("rtree", |tr| self.rtree(tr, &queries, &residuals));
        let requests = self.requests(&queries, &residuals);
        tr.scope("server", |tr| self.server(tr, &requests));
        if self.on(On::Uplink) {
            tr.scope("transport", |tr| self.transport(tr, &requests));
        }
        let index = tr.scope("network", |tr| self.network(tr));
        if let Some(index) = &index {
            tr.scope("snnn", |tr| self.snnn(tr, &queries, &peers, index));
        }
        tr.scope("par", |tr| self.par(tr));
        self.ledger(metrics, stats, run_wall_s);
    }

    /// Queriers drawn uniformly from the hosts, `k` uniform in
    /// `1..=2*lambda_knn-1`: the distribution the simulator plans with.
    fn sample_queries(&mut self) -> Vec<Query> {
        let max_k = (2 * self.cfg.params.lambda_knn).saturating_sub(1).max(1);
        (0..self.sized(8192))
            .map(|_| {
                let host = self.rng.gen_range(0..self.positions.len()) as u32;
                Query {
                    host,
                    at: self.positions[host as usize],
                    k: self.rng.gen_range(1..=max_k),
                }
            })
            .collect()
    }

    /// `sim::grid`: build, radio-range reads. Returns the grid (for the
    /// write replay) and each sampled query's neighbours.
    fn grid(&mut self, tr: &mut Tracer, queries: &[Query]) -> (HostGrid, Vec<Vec<u32>>) {
        let cell = self.cfg.params.tx_range_m.max(1.0);
        let mut built = None;
        let build = tr.batches("grid.build", &[(); 3], |()| {
            built = Some(HostGrid::build(self.area, cell, &self.positions));
        });
        self.values.set("grid.build_ms", build.ns_per_call() / 1e6);
        let grid = built.expect("built three times");

        let range = self.cfg.params.tx_range_m;
        let mut neighbours: Vec<Vec<u32>> = Vec::with_capacity(queries.len());
        let mut hits = Vec::new();
        let mut within = Timing::default();
        for pass in 0..4 {
            within.add(tr.batches("grid.within", queries, |q| {
                grid.within_into(&self.positions, q.at, range, q.host, &mut hits);
                if pass == 0 {
                    neighbours.push(hits.clone());
                }
            }));
        }
        let found: usize = neighbours.iter().map(Vec::len).sum();
        self.costs.within_ns = within.ns_per_call();
        self.values.set("grid.within_ns", within.ns_per_call());
        self.values
            .set("grid.peers_per_probe", found as f64 / queries.len() as f64);
        (grid, neighbours)
    }

    /// `mobility` and the grid's write use. Fresh movers start where a
    /// strided sample of the hosts stands and advance over exponential
    /// intervals, as the simulator's own movers do from time zero; every
    /// position they produce is then replayed into the grid as a move.
    /// The first interval, in which every mover plans its first trip at
    /// once, is stepped but not counted: the program pays it once in a
    /// run of hundreds of intervals, the drive would pay it once in a few.
    fn mobility(&mut self, tr: &mut Tracer, mut grid: HostGrid, stats: &BatchStats) {
        let p = &self.cfg.params;
        let movers = ((p.mh_number as f64 * p.m_percentage).round() as usize).max(1);
        let sample = movers.min(self.sized(1 << 18));
        let rounds =
            ((self.sized(1 << 20) / sample).clamp(4, 256)).min(stats.batches.max(4) as usize);
        let stride = (self.positions.len() / sample).max(1);
        let hosts: Vec<u32> = (0..sample).map(|i| (i * stride) as u32).collect();
        let intervals: Vec<f64> = (0..rounds)
            .map(|_| {
                let u: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
                -u.ln() * self.cfg.mean_interval_secs
            })
            .collect();
        let mut rngs: Vec<SmallRng> = hosts
            .iter()
            .map(|&h| SmallRng::seed_from_u64(self.cfg.seed ^ DRIVE_SALT ^ u64::from(h)))
            .collect();
        let side = p.area_side_m();
        let trip_radius = (side * 0.5).min(3000.0);
        let slots: Vec<usize> = (0..sample).collect();
        // trail[round][slot]: where each mover stands after each round.
        let mut trail: Vec<Vec<Point>> = Vec::with_capacity(rounds);

        // The simulator's own mover type, built the way `Simulator::new`
        // builds it, so that the step goes through the same dispatch.
        let free = self.cfg.mode == MovementMode::FreeMovement;
        let mut movers: Vec<HostMobility> = if free {
            let mut wp = WaypointConfig::new(self.area, p.velocity_mps());
            wp.max_pause_secs = 600.0;
            wp.trip_radius = Some(trip_radius);
            hosts
                .iter()
                .zip(rngs.iter_mut())
                .map(|(&h, rng)| {
                    HostMobility::Free(RandomWaypoint::new(self.positions[h as usize], wp, rng))
                })
                .collect()
        } else {
            let locator = NodeLocator::new(self.net);
            let mover_cfg = RoadMoverConfig {
                velocity_mps: p.velocity_mps(),
                max_pause_secs: 600.0,
                trip_radius,
            };
            hosts
                .iter()
                .map(|&h| {
                    let node = locator
                        .nearest(self.positions[h as usize])
                        .expect("the road network has nodes");
                    HostMobility::Road(RoadMover::new(self.net, node, mover_cfg))
                })
                .collect()
        };
        let (span, metric) = if free {
            ("mobility.waypoint_step", "mobility.waypoint_step_ns")
        } else {
            ("mobility.road_step", "mobility.road_step_ns")
        };
        let mut steps = Timing::default();
        for (round, dt) in intervals.iter().enumerate() {
            let spent = tr.batches(span, &slots, |&i| {
                movers[i].step(Some(self.net), *dt, &mut rngs[i]);
            });
            if round > 0 {
                steps.add(spent);
            }
            trail.push(movers.iter().map(HostMobility::position).collect());
        }
        self.values.set(metric, steps.ns_per_call());
        self.costs.step_ns = steps.ns_per_call();

        // Road movers start on their nearest node, not on the host's exact
        // position: place the sampled hosts there first, untimed, so that
        // the timed moves are one interval's displacement each.
        let mut crossed = 0u64;
        let mut writes = Timing::default();
        for (round, places) in trail.iter().enumerate() {
            if round == 0 {
                for (&h, &at) in hosts.iter().zip(places) {
                    grid.apply_move(h, at);
                }
                continue;
            }
            writes.add(tr.batches("grid.apply_move", &slots, |&i| {
                if grid.apply_move(hosts[i], places[i]) {
                    crossed += 1;
                }
            }));
        }
        self.costs.apply_move_ns = writes.ns_per_call();
        self.values.set("grid.apply_move_ns", writes.ns_per_call());
        self.values.set(
            "grid.cell_cross_ratio",
            crossed as f64 / writes.calls as f64,
        );
    }

    /// `cache`: the peers' side table as the simulator keeps it — a sparse
    /// map from host to its most-recent-query cache. Which POIs a host
    /// holds is recovered from the finished run ([`Drive::cached_pois`]);
    /// where it asked for them is not visible from outside, so the entry
    /// is re-taken at their centroid: the `n` nearest POIs of a point that
    /// lies where `n` POIs the host really holds are the nearest ones.
    fn cache(
        &mut self,
        tr: &mut Tracer,
        queries: &[Query],
        neighbours: &[Vec<u32>],
    ) -> HashMap<u32, MostRecentCache> {
        let mut holders: Vec<u32> = queries
            .iter()
            .map(|q| q.host)
            .chain(neighbours.iter().flatten().copied())
            .filter(|&h| !self.cached_dists[h as usize].is_empty())
            .collect();
        holders.sort_unstable();
        holders.dedup();
        let server = self.sim.server();
        let capacity = self.cfg.params.c_size;
        let entries: Vec<CacheEntry> = holders
            .iter()
            .map(|&h| {
                let held = self.cached_pois(h);
                let n = held.len().max(1) as f64;
                let at = Point::new(
                    held.iter().map(|p| p.x).sum::<f64>() / n,
                    held.iter().map(|p| p.y).sum::<f64>() / n,
                );
                let found = server.knn_one(at, held.len(), SearchBounds::NONE);
                CacheEntry::new(at, found.pois.into_iter().map(|(poi, _)| poi).collect())
            })
            .collect();
        let mut caches: Vec<MostRecentCache> = holders
            .iter()
            .map(|_| MostRecentCache::new(capacity))
            .collect();
        let slots: Vec<usize> = (0..holders.len()).collect();
        // Twice: the first store fills an empty cache, the second replaces
        // an entry, which is what a host's later queries do.
        let mut stores = Timing::default();
        for _ in 0..2 {
            let mut fresh: Vec<Option<CacheEntry>> = entries.iter().cloned().map(Some).collect();
            stores.add(tr.batches("cache.store", &slots, |&i| {
                caches[i].store(fresh[i].take().expect("stored once per pass"));
            }));
        }
        self.values.set("cache.store_ns", stores.ns_per_call());
        let table: HashMap<u32, MostRecentCache> = holders.into_iter().zip(caches).collect();

        let mut visited = 0u64;
        let mut reads = Timing::default();
        for _ in 0..4 {
            reads.add(tr.batches("cache.iter", neighbours, |ids| {
                for id in ids {
                    visited += 1;
                    black_box(table.get(id).and_then(MostRecentCache::entry));
                }
            }));
        }
        self.values
            .set("cache.iter_ns", reads.nanos as f64 / visited.max(1) as f64);
        table
    }

    /// The POIs host `h` holds in its cache. The simulator exposes, per
    /// host, the distance from where it stands to each cached POI; the
    /// POIs at exactly those distances are the cached ones.
    fn cached_pois(&self, h: u32) -> Vec<Point> {
        let here = self.positions[h as usize];
        let dists = &self.cached_dists[h as usize];
        let reach = dists.last().copied().unwrap_or(0.0);
        let (near, _) = self
            .sim
            .server()
            .tree()
            .within_radius(here, reach * (1.0 + 1e-9) + 1e-9);
        near.into_iter()
            .map(|(p, _)| p)
            .filter(|p| {
                let d = here.dist(*p);
                let at = dists.partition_point(|&c| c < d - 1e-9);
                dists.get(at).is_some_and(|&c| (c - d).abs() <= 1e-9)
            })
            .collect()
    }

    /// `core`: the staged kernel over each query's gathered peers. Probe
    /// and single-peer verification are timed cumulatively (probe; probe +
    /// single) on one reused context, as the simulator runs them, and the
    /// stage's cost is the difference. Returns what the unresolved queries
    /// still need from the server.
    fn core(
        &mut self,
        tr: &mut Tracer,
        queries: &[Query],
        peers: &[Vec<&CacheEntry>],
    ) -> Vec<Residual> {
        let engine = self.engine();
        let method = self.cfg.region_method;
        let mut ctx = QueryContext::new();
        let slots: Vec<usize> = (0..queries.len()).collect();
        const PASSES: u64 = 3;

        let (mut probe, mut single) = (Timing::default(), Timing::default());
        for _ in 0..PASSES {
            probe.add(tr.batches("core.probe", &slots, |&i| {
                ctx.begin(queries[i].k);
                peer_probe(&mut ctx, queries[i].at, &peers[i]);
            }));
            single.add(tr.batches("core.probe+single", &slots, |&i| {
                ctx.begin(queries[i].k);
                peer_probe(&mut ctx, queries[i].at, &peers[i]);
                black_box(single_verify(&mut ctx, queries[i].at, &peers[i]));
            }));
        }
        self.values.set(
            "core.single_verify_ns",
            (single.nanos as f64 - probe.nanos as f64) / single.calls as f64,
        );
        if self.on(On::Road) {
            // Multi-peer verification runs only where single-peer
            // verification fell short, too seldom for a difference of two
            // sums: each such query gets a context of its own, brought to
            // the state the stage starts from, and the stage alone is timed.
            let open: Vec<usize> = slots
                .iter()
                .copied()
                .filter(|&i| {
                    ctx.begin(queries[i].k);
                    peer_probe(&mut ctx, queries[i].at, &peers[i]);
                    !single_verify(&mut ctx, queries[i].at, &peers[i])
                })
                .collect();
            let mut staged: Vec<QueryContext> = open.iter().map(|_| QueryContext::new()).collect();
            let mut multi = Timing::default();
            // The first pass only grows each context's scratch buffers.
            for pass in 0..=PASSES {
                for (ctx, &i) in staged.iter_mut().zip(&open) {
                    ctx.begin(queries[i].k);
                    peer_probe(ctx, queries[i].at, &peers[i]);
                    single_verify(ctx, queries[i].at, &peers[i]);
                }
                let order: Vec<usize> = (0..open.len()).collect();
                let spent = tr.batches("core.multi_verify", &order, |&n| {
                    let i = open[n];
                    black_box(multi_verify(
                        &mut staged[n],
                        queries[i].at,
                        &peers[i],
                        method,
                    ));
                });
                if pass > 0 {
                    multi.add(spent);
                }
            }
            self.values.set("core.multi_verify_ns", multi.ns_per_call());
        }

        let mut residuals = Vec::new();
        let mut resolved = 0u64;
        let mut peers_only = Timing::default();
        for pass in 0..PASSES {
            peers_only.add(tr.batches("core.peers_only", &slots, |&i| {
                let q = &queries[i];
                let out = engine.query_peers_only_with(q.at, q.k, &peers[i], &mut ctx);
                if pass > 0 {
                    black_box(&out);
                } else if out.resolution() == Resolution::Unresolved {
                    // As the simulator's PAR shadow asks: only what the
                    // verified prefix does not already cover.
                    let below = out.bounds.lower.map_or(0, |lb| {
                        out.results
                            .iter()
                            .filter(|e| e.certain && e.dist < lb - senn_geom::EPS)
                            .count()
                    });
                    residuals.push(Residual {
                        at: q.at,
                        need: q.k.saturating_sub(below).max(1),
                        bounds: out.bounds,
                        request: engine.residual_request(i as u64, q.at, q.k, &out),
                    });
                } else {
                    resolved += 1;
                }
            }));
        }
        self.costs.peers_only_ns = peers_only.ns_per_call();
        self.values
            .set("core.peers_only_ns", peers_only.ns_per_call());
        self.values.set(
            "core.peer_resolved_ratio",
            resolved as f64 / queries.len() as f64,
        );

        let server = self.sim.server();
        let pois: Vec<Point> = self.pois.iter().map(|(_, p)| *p).collect();
        let mut answers: Vec<(bool, Vec<f64>)> = Vec::new();
        let mut full = Timing::default();
        for pass in 0..PASSES {
            full.add(tr.batches("core.full_query", &slots, |&i| {
                let q = &queries[i];
                let out = engine.query_with(q.at, q.k, &peers[i], server, &mut ctx);
                if pass == 0 && i < ORACLE_SAMPLE {
                    answers.push((
                        out.results.iter().all(|e| e.certain),
                        out.results.iter().map(|e| e.dist).collect(),
                    ));
                }
                black_box(&out);
            }));
        }
        for (q, (certain, got)) in queries.iter().zip(&answers) {
            let ok = *certain && oracle::knn_matches(&pois, q.at, q.k, got);
            self.checks.expect(ok, || {
                format!("SennEngine answer at {:?} is not the true {}NN", q.at, q.k)
            });
        }
        self.values.set("core.full_query_ns", full.ns_per_call());
        residuals
    }

    /// `geom`: the certain region multi-peer verification builds from the
    /// peers' verified circles, and the coverage test it asks of it.
    fn geom(&mut self, tr: &mut Tracer, queries: &[Query], peers: &[Vec<&CacheEntry>]) {
        let mut circle_sets: Vec<(Point, Vec<Circle>, Vec<f64>)> = Vec::new();
        for (q, entries) in queries.iter().zip(peers) {
            let mut circles = Vec::new();
            collect_circles(entries.iter().copied(), &mut circles);
            if circles.is_empty() {
                continue;
            }
            // Candidates: the peers' cached POIs by their distance from
            // the query, a few per query.
            let dists: Vec<f64> = entries
                .iter()
                .flat_map(|e| e.neighbors.iter().map(|n| q.at.dist(n.position)))
                .take(8)
                .collect();
            circle_sets.push((q.at, circles, dists));
        }
        let mut regions: Vec<PolygonRegion> = Vec::with_capacity(circle_sets.len());
        let mut build = Timing::default();
        for pass in 0..3 {
            build.add(
                tr.batches("geom.region_build", &circle_sets, |(_, circles, _)| {
                    let region =
                        PolygonRegion::from_circles(circles, DEFAULT_POLYGONIZATION_VERTICES);
                    if pass == 0 {
                        regions.push(region);
                    } else {
                        black_box(region);
                    }
                }),
            );
        }
        self.values.set("geom.region_build_ns", build.ns_per_call());

        let slots: Vec<usize> = (0..regions.len()).collect();
        let mut tests = 0u64;
        let covers = tr.batches("geom.covers", &slots, |&i| {
            let (at, _, dists) = &circle_sets[i];
            for &d in dists {
                tests += 1;
                black_box(regions[i].covers_circle(&Circle::new(*at, d)));
            }
        });
        self.values
            .set("geom.covers_ns", covers.nanos as f64 / tests.max(1) as f64);
    }

    /// `rtree`: bulk load (the set-up use), INN and EINN searches (the
    /// read use, with the page counts the paper reports) and relocation by
    /// delete + insert (the write use).
    fn rtree(&mut self, tr: &mut Tracer, queries: &[Query], residuals: &[Residual]) {
        let items: Vec<(Point, u64)> = self.pois.iter().map(|&(id, p)| (p, id)).collect();
        let mut copies: Vec<Option<Vec<(Point, u64)>>> =
            (0..3).map(|_| Some(items.clone())).collect();
        let mut tree = None;
        let load = tr.batches("rtree.bulk_load", &[0usize, 1, 2], |&i| {
            tree = Some(RStarTree::bulk_load(copies[i].take().expect("loaded once")));
        });
        self.values
            .set("rtree.bulk_load_ms", load.ns_per_call() / 1e6);
        let mut tree: RStarTree<u64> = tree.expect("loaded three times");

        let pois: Vec<Point> = self.pois.iter().map(|(_, p)| *p).collect();
        let slots: Vec<usize> = (0..queries.len()).collect();
        let mut pages = 0u64;
        let mut answers: Vec<Vec<f64>> = Vec::new();
        let mut inn = Timing::default();
        for pass in 0..3 {
            inn.add(tr.batches("rtree.inn", &slots, |&i| {
                let q = &queries[i];
                let (found, accesses) = tree.knn(q.at, q.k);
                if pass == 0 {
                    pages += accesses;
                    if i < ORACLE_SAMPLE {
                        answers.push(found.iter().map(|n| n.dist).collect());
                    }
                }
                black_box(found.len());
            }));
        }
        for (q, got) in queries.iter().zip(&answers) {
            self.checks
                .expect(oracle::knn_matches(&pois, q.at, q.k, got), || {
                    format!("rtree kNN at {:?} is not the true {}NN", q.at, q.k)
                });
        }
        self.costs.inn_ns = inn.ns_per_call();
        self.values.set("rtree.inn_ns", inn.ns_per_call());
        self.values
            .set("rtree.pages_per_inn", pages as f64 / queries.len() as f64);

        // EINN over the sampled queries the peers left unresolved, under
        // the bounds the peers did verify. A sample in which the peers
        // resolved everything falls back to unbounded searches.
        let unbounded: Vec<Residual>;
        let residuals = if residuals.is_empty() {
            unbounded = queries
                .iter()
                .map(|q| Residual {
                    at: q.at,
                    need: q.k,
                    bounds: SearchBounds::NONE,
                    request: ServerRequest::plain(0u64, q.at, q.k),
                })
                .collect();
            &unbounded
        } else {
            residuals
        };
        let mut pages = 0u64;
        let mut einn = Timing::default();
        for pass in 0..3 {
            einn.add(tr.batches("rtree.einn", residuals, |r| {
                let (found, accesses) = tree.knn_bounded(r.at, r.need, r.bounds);
                if pass == 0 {
                    pages += accesses;
                }
                black_box(found.len());
            }));
        }
        self.costs.einn_ns = einn.ns_per_call();
        self.values.set("rtree.einn_ns", einn.ns_per_call());
        self.values.set(
            "rtree.pages_per_einn",
            pages as f64 / residuals.len() as f64,
        );

        let side = self.cfg.params.area_side_m();
        // Away and back in reverse order, so that a POI drawn twice is
        // always found where the next move expects it.
        let mut stands: Vec<Point> = pois.clone();
        let moves: Vec<(u64, Point, Point)> = (0..self.sized(2048))
            .map(|_| {
                let id = self.rng.gen_range(0..stands.len());
                let to = Point::new(self.rng.gen_range(0.0..side), self.rng.gen_range(0.0..side));
                let from = std::mem::replace(&mut stands[id], to);
                (id as u64, from, to)
            })
            .collect();
        let mut lost = 0u64;
        let mut relocate = Timing::default();
        for back in [false, true] {
            let order: Vec<(u64, Point, Point)> = if back {
                moves
                    .iter()
                    .rev()
                    .map(|&(id, from, to)| (id, to, from))
                    .collect()
            } else {
                moves.clone()
            };
            relocate.add(tr.batches("rtree.relocate", &order, |&(id, from, to)| {
                if tree.remove(from, |v| *v == id).is_some() {
                    tree.insert(to, id);
                } else {
                    lost += 1;
                }
            }));
        }
        tree.check_invariants();
        self.checks
            .expect(lost == 0 && tree.len() == self.pois.len(), || {
                format!("rtree relocation lost {lost} POIs")
            });
        self.values.set("rtree.relocate_ns", relocate.ns_per_call());
    }

    /// The residual requests the server path is driven with: the sampled
    /// queries the peers left unresolved, topped up with plain kNN
    /// requests where the peers resolved nearly everything.
    fn requests(&self, queries: &[Query], residuals: &[Residual]) -> Vec<ServerRequest> {
        let wanted = self.sized(4096);
        let mut requests: Vec<ServerRequest> = residuals.iter().map(|r| r.request).collect();
        requests.truncate(wanted);
        let mut fill = queries.iter().cycle();
        while requests.len() < wanted {
            let q = fill.next().expect("the query sample is never empty");
            requests.push(ServerRequest::plain(requests.len() as u64, q.at, q.k));
        }
        for (i, r) in requests.iter_mut().enumerate() {
            r.id = (i as u64).into();
        }
        requests
    }

    /// `server`: host time per residual request through the backend the
    /// workload configures, and the sharded service's own accounting.
    fn server(&mut self, tr: &mut Tracer, requests: &[ServerRequest]) {
        if self.on(On::Plain) {
            let service = FaultyService::new(
                RTreeServer::new(self.pois.iter().copied()),
                FaultConfig::disabled(),
            );
            let batches: Vec<&[ServerRequest]> = requests.chunks(32).collect();
            let mut failed = 0usize;
            let mut submit = Timing::default();
            for _ in 0..3 {
                submit.add(tr.batches("server.rtree_submit", &batches, |batch| {
                    let out = submit_with_retry(&service, batch, &self.cfg.retry);
                    failed += out.iter().filter(|o| o.failed || o.degraded).count();
                }));
            }
            self.checks.expect(failed == 0, || {
                format!("{failed} requests failed on a fault-free single-tree service")
            });
            let per_request = submit.nanos as f64 / (3 * requests.len()) as f64;
            self.costs.server_request_ns = per_request;
            self.values.set("server.rtree_submit_ns", per_request);
        }
        if self.on(On::Uplink) {
            let service = ShardedService::new(self.pois.iter().copied(), self.cfg.server_shards);
            // One at a time is how the overlapped transport dispatches;
            // each submit fans out across the shards, so the sample is
            // small.
            let singles = &requests[..self.sized(1024).min(requests.len())];
            let one = tr.batches("server.sharded_submit_b1", singles, |r| {
                black_box(service.submit(std::slice::from_ref(r)));
            });
            self.values
                .set("server.sharded_submit_b1_ns", one.ns_per_call());
            let batches: Vec<&[ServerRequest]> = requests.chunks(256).collect();
            let many = tr.batches("server.sharded_submit_b256", &batches, |batch| {
                black_box(service.submit(batch));
            });
            self.values.set(
                "server.sharded_submit_b256_ns",
                many.nanos as f64 / requests.len() as f64,
            );
            // The accounting is the program's own, from its traced run.
            let m = self
                .sim
                .service_metrics()
                .expect("a sharded backend reports its metrics");
            let shards = m.shards.len() as f64;
            let skipped: u64 = m.shards.iter().map(|s| s.skipped).sum();
            let most = m.shards.iter().map(|s| s.requests).max().unwrap_or(0) as f64;
            let mean = m.shards.iter().map(|s| s.requests).sum::<u64>() as f64 / shards;
            self.values
                .set("server.node_accesses", m.node_accesses() as f64);
            self.values.set(
                "server.shard_skipped_ratio",
                skipped as f64 / (m.requests as f64 * (shards - 1.0)).max(1.0),
            );
            self.values
                .set("server.shard_imbalance", most / mean.max(1.0));
        }
    }

    /// `core::transport`: host time per request through `AsyncClient`,
    /// fed the way the simulator feeds it (poll, enqueue an interval's
    /// residuals, poll again; drain at the end), over one shard and over
    /// the configured shards. The simulated figures are the program's own.
    fn transport(&mut self, tr: &mut Tracer, requests: &[ServerRequest]) {
        let plain = RTreeServer::new(self.pois.iter().copied());
        let one = self.roundtrip(tr, "transport.roundtrip", &plain, requests);
        let sharded = ShardedService::new(self.pois.iter().copied(), self.cfg.server_shards);
        let sample = &requests[..self.sized(1024).min(requests.len())];
        let many = self.roundtrip(tr, "transport.roundtrip_sharded", &sharded, sample);
        self.values.set("transport.roundtrip_ns", one);
        self.values.set("transport.roundtrip_sharded_ns", many);
        self.costs.server_request_ns = many;

        let stats = self
            .sim
            .transport_stats()
            .expect("uplink workloads run the overlapped transport");
        self.values
            .set("transport.virt_latency_p50_ms", stats.p50_latency_ms());
        self.values
            .set("transport.virt_latency_p99_ms", stats.p99_latency_ms());
        self.values
            .set("transport.queue_depth_peak", stats.queue_depth_peak as f64);
        self.values
            .set("transport.in_flight_peak", stats.in_flight_peak as f64);
        self.values.set(
            "transport.retries",
            self.sim.metrics().server_retries as f64,
        );
    }

    /// Host nanoseconds per request for `sample` through an `AsyncClient`
    /// over `service`.
    fn roundtrip(
        &mut self,
        tr: &mut Tracer,
        name: &str,
        service: &dyn SpatialService,
        sample: &[ServerRequest],
    ) -> f64 {
        let policy = self
            .cfg
            .transport
            .expect("uplink workloads configure a transport");
        let interval_ms = self.cfg.mean_interval_secs * 1000.0;
        let wrapped = FaultyService::new(service, FaultConfig::disabled());
        let mut client =
            AsyncClient::new(wrapped, TRANSPORT_LANES, self.cfg.seed ^ DRIVE_SALT, policy);
        let intervals: Vec<&[ServerRequest]> = sample.chunks(32).collect();
        let mut now_ms = 0.0;
        let (mut done, mut bad) = (0usize, 0usize);
        let mut settle = |out: Vec<(_, RequestOutcome)>| {
            done += out.len();
            bad += out.iter().filter(|(_, o)| o.failed || o.degraded).count();
        };
        let mut spent = tr.batches(name, &intervals, |batch| {
            now_ms += interval_ms;
            settle(client.poll(now_ms));
            for r in *batch {
                client.submit(*r);
            }
            settle(client.poll(now_ms));
        });
        spent.add(tr.batches(name, &[()], |_| settle(client.drain())));
        self.checks.expect(done == sample.len() && bad == 0, || {
            format!(
                "{name}: {done} of {} requests completed, {bad} badly",
                sample.len()
            )
        });
        spent.nanos as f64 / sample.len() as f64
    }

    /// `network`: generation (every world generates its road network, free
    /// movement included), the A* trip planning of the road movers, and
    /// the contraction hierarchy where it is the configured metric.
    fn network(&mut self, tr: &mut Tracer) -> Option<ChIndex> {
        let side = self.cfg.params.area_side_m();
        let generator = GeneratorConfig::city(side, self.cfg.seed ^ 0x9e37);
        let generate = tr.batches("network.generate", &[(); 2], |()| {
            black_box(generate_network(&generator));
        });
        self.values
            .set("network.generate_ms", generate.ns_per_call() / 1e6);
        if !self.on(On::Road) {
            return None;
        }

        // Trips as the road mover plans them: from a host's nearest node
        // to a uniformly drawn node within the trip radius.
        let locator = NodeLocator::new(self.net);
        let trip_radius = (side * 0.5).min(3000.0);
        let nodes = self.net.node_count();
        let mut trips: Vec<(NodeId, NodeId)> = Vec::new();
        while trips.len() < self.sized(2048) {
            let host = self.rng.gen_range(0..self.positions.len());
            let from = locator
                .nearest(self.positions[host])
                .expect("the road network has nodes");
            let to = self.rng.gen_range(0..nodes) as NodeId;
            let apart = self.net.position(from).dist(self.net.position(to));
            if to != from && apart <= trip_radius {
                trips.push((from, to));
            }
        }
        let mut settles = 0u64;
        for (i, &(from, to)) in trips.iter().enumerate() {
            let (dist, stats) = counting_astar(self.net, from, to);
            settles += stats.settled;
            if i < ORACLE_SAMPLE {
                let want = oracle::dijkstra(self.net, from, to);
                self.checks.expect(oracle::distances_agree(dist, want), || {
                    format!("A* {from}->{to} gave {dist:?}, Dijkstra {want:?}")
                });
            }
        }
        let astar = tr.batches("network.astar", &trips, |&(from, to)| {
            black_box(astar_path(self.net, from, to));
        });
        self.values.set("network.astar_ns", astar.ns_per_call());
        self.values.set(
            "network.astar_settles_per_call",
            settles as f64 / trips.len() as f64,
        );
        if !self.on(On::Snnn) {
            return None;
        }

        let mut index = None;
        let build = tr.batches("network.ch_build", &[()], |()| {
            index = Some(ChIndex::build_seeded(self.net, self.cfg.seed));
        });
        self.values
            .set("network.ch_build_ms", build.ns_per_call() / 1e6);
        let index = index.expect("built once");
        let mut scratch = ChScratch::new();
        for &(from, to) in trips.iter().take(ORACLE_SAMPLE) {
            let got = index.distance_with(from, to, &mut scratch);
            let want = oracle::dijkstra(self.net, from, to);
            self.checks.expect(oracle::distances_agree(got, want), || {
                format!("CH {from}->{to} gave {got:?}, Dijkstra {want:?}")
            });
        }
        let mut ch = Timing::default();
        for _ in 0..8 {
            ch.add(tr.batches("network.ch", &trips, |&(from, to)| {
                black_box(index.distance_with(from, to, &mut scratch));
            }));
        }
        self.costs.model_eval_ns = ch.ns_per_call();
        self.values.set("network.ch_ns", ch.ns_per_call());
        Some(index)
    }

    /// `core::snnn`: whole Algorithm-2 queries under the CH metric with
    /// the exact CH lower bound, as the simulator pairs them.
    fn snnn(
        &mut self,
        tr: &mut Tracer,
        queries: &[Query],
        peers: &[Vec<&CacheEntry>],
        index: &ChIndex,
    ) {
        let engine = self.engine();
        let locator = NodeLocator::new(self.net);
        let server = self.sim.server();
        let config = SnnnConfig {
            max_expansion: self.cfg.snnn_max_expansion,
        };
        let (Some(mut model), Some(mut bound)) = (
            ChDistance::new(self.net, &locator, index, Point::ORIGIN),
            ChBound::new(self.net, &locator, index, Point::ORIGIN),
        ) else {
            return;
        };
        let mut ctx = QueryContext::new();
        let slots: Vec<usize> = (0..self.sized(1024).min(queries.len())).collect();
        let (mut rounds, mut bounds_asked, mut evals_saved) = (0u64, 0u64, 0u64);
        let spent = tr.batches("snnn.query", &slots, |&i| {
            let q = &queries[i];
            if !model.rebase(q.at) || !bound.rebase(q.at) {
                return;
            }
            let out = snnn_query_pruned_with(
                &engine, q.at, q.k, &peers[i], server, &mut model, &mut bound, config, &mut ctx,
            );
            rounds += out.senn_calls().saturating_sub(1) as u64;
            bounds_asked += out.trace.lb_evals;
            evals_saved += out.trace.model_evals_saved;
            black_box(out.results.len());
        });
        self.values.set("snnn.query_ns", spent.ns_per_call());
        self.values
            .set("snnn.rounds_per_query", rounds as f64 / slots.len() as f64);
        self.values.set(
            "snnn.evals_saved_ratio",
            evals_saved as f64 / bounds_asked.max(1) as f64,
        );
    }

    /// `par`: what one fan-out costs before it does any work — an empty
    /// closure over 256 items, inline at one thread, two scoped threads
    /// at two.
    fn par(&mut self, tr: &mut Tracer) {
        let items = [0u8; 256];
        for (name, metric, threads, calls) in [
            ("par.fanout_t1", "par.fanout_t1_ns", 1, self.sized(8192)),
            ("par.fanout_t2", "par.fanout_t2_ns", 2, self.sized(1024)),
        ] {
            let spent = tr.batches(name, &vec![(); calls], |()| {
                black_box(senn_par::par_map_with_threads(
                    &items,
                    threads,
                    || (),
                    |(), _, _| (),
                ));
            });
            self.values.set(metric, spent.ns_per_call());
        }
    }

    fn engine(&self) -> SennEngine {
        SennEngine::new(SennConfig {
            region_method: self.cfg.region_method,
            accept_uncertain: self.cfg.accept_uncertain,
            server_fetch: self.cfg.params.c_size,
        })
    }

    /// The ledger: each layer's cost per operation, measured above, times
    /// the number of such operations the program's own counters report for
    /// the traced run. Operation counts the counters do not expose are
    /// stated in the README; what the sum leaves of `run_wall_s` is the
    /// unattributed fraction.
    fn ledger(&mut self, m: &Metrics, s: &BatchStats, run_wall_s: f64) {
        let p = &self.cfg.params;
        // `Metrics` cover the run after warm-up, `BatchStats` all of it.
        let whole_run = s.queries as f64 / m.queries.max(1) as f64;
        let host_steps = (p.mh_number as f64 * p.m_percentage).round() * s.batches as f64;
        let probes = (s.queries + s.snnn_rounds) as f64;
        let server_bound = m.server as f64 * whole_run;
        // Per SNNN query: k exact evaluations to rank the first round, then
        // one bound per candidate and one exact evaluation per candidate
        // the bound did not rule out. The CH bound is itself a CH query.
        let model_evals = if self.on(On::Snnn) {
            p.lambda_knn as f64 * s.queries as f64
                + (2 * m.lb_evals - m.model_evals_saved) as f64 * whole_run
        } else {
            0.0
        };
        let shadow_ns = self.costs.einn_ns
            + if self.cfg.compare_inn {
                self.costs.inn_ns
            } else {
                0.0
            };
        let c = &self.costs;
        let parts = [
            ("ledger.mobility_s", c.step_ns * host_steps),
            ("ledger.grid_write_s", c.apply_move_ns * host_steps),
            ("ledger.grid_read_s", c.within_ns * probes),
            ("ledger.core_s", c.peers_only_ns * probes),
            ("ledger.rtree_s", shadow_ns * server_bound),
            ("ledger.server_path_s", c.server_request_ns * server_bound),
            ("ledger.network_s", c.model_eval_ns * model_evals),
        ];
        let mut attributed = 0.0;
        for (name, nanos) in parts {
            attributed += nanos / 1e9;
            self.values.set(name, nanos / 1e9);
        }
        self.values
            .set("ledger.unattributed_frac", 1.0 - attributed / run_wall_s);
    }
}

/// Each sampled query's peer entries as the simulator gathers them: the
/// querier's own cache first, then those of the hosts in radio range.
fn gather_peers<'c>(
    queries: &[Query],
    neighbours: &[Vec<u32>],
    caches: &'c HashMap<u32, MostRecentCache>,
) -> Vec<Vec<&'c CacheEntry>> {
    queries
        .iter()
        .zip(neighbours)
        .map(|(q, ids)| {
            std::iter::once(&q.host)
                .chain(ids)
                .filter_map(|id| caches.get(id).and_then(MostRecentCache::entry))
                .collect()
        })
        .collect()
}
