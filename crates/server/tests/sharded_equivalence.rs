//! Equivalence of the request-major `ShardedService::serve` with the
//! single-tree `RTreeServer` and with the shard-major two-pass algorithm it
//! replaced, which lives on here as an oracle: replies id-for-id and
//! `node_accesses`-equal, per-shard `requests` / `node_accesses` /
//! `skipped` equal — for every shard count, one request at a time.

use senn_core::service::{ServerRequest, SpatialService};
use senn_core::RTreeServer;
use senn_geom::{Point, EPS};
use senn_rtree::{RStarTree, SearchBounds};
use senn_server::ShardedService;

const SIDE: f64 = 2000.0;

struct Rng(u64);
impl Rng {
    fn next(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn uniform(n: usize, seed: u64) -> Vec<(u64, Point)> {
    let mut rng = Rng(seed | 1);
    (0..n)
        .map(|i| (i as u64, Point::new(rng.next() * SIDE, rng.next() * SIDE)))
        .collect()
}

/// Three tight clusters and a thin uniform background: strips of very
/// different extent, so the MBR skip fires on most foreign shards.
fn clustered(n: usize, seed: u64) -> Vec<(u64, Point)> {
    let mut rng = Rng(seed | 1);
    let centres = [(300.0, 400.0), (1000.0, 1600.0), (1700.0, 500.0)];
    (0..n)
        .map(|i| {
            let p = if i % 10 == 0 {
                Point::new(rng.next() * SIDE, rng.next() * SIDE)
            } else {
                let (cx, cy) = centres[i % 3];
                Point::new(cx + rng.next() * 60.0, cy + rng.next() * 60.0)
            };
            (i as u64, p)
        })
        .collect()
}

/// The wire vocabulary: no bounds, upper, lower, both, an upper bound too
/// tight to admit anything, `count = 0` and `count` beyond the POI set.
fn workload(n: usize, pois: usize, seed: u64) -> Vec<ServerRequest> {
    let mut rng = Rng(seed | 1);
    (0..n)
        .map(|i| {
            let query = Point::new(rng.next() * SIDE, rng.next() * SIDE);
            let mut count = 1 + (rng.next() * 9.0) as usize;
            let lower = rng.next() * 60.0;
            let bounds = match i % 7 {
                0 => SearchBounds::NONE,
                1 => SearchBounds {
                    upper: Some(50.0 + rng.next() * 300.0),
                    lower: None,
                },
                2 => SearchBounds {
                    upper: None,
                    lower: Some(lower),
                },
                3 => SearchBounds {
                    upper: Some(lower + 40.0 + rng.next() * 250.0),
                    lower: Some(lower),
                },
                4 => SearchBounds {
                    upper: Some(rng.next() * 3.0),
                    lower: None,
                },
                5 => {
                    count = 0;
                    SearchBounds::NONE
                }
                _ => {
                    count = pois + 3;
                    SearchBounds {
                        upper: None,
                        lower: Some(lower),
                    }
                }
            };
            ServerRequest {
                id: (i as u64).into(),
                query,
                count,
                bounds,
                full_count: count + 2,
            }
        })
        .collect()
}

/// `(poi id, distance bits)` per hit, plus the node accesses, of a reply.
type Answer = (Vec<(u64, u64)>, u64);

fn answer(svc: &ShardedService, req: &ServerRequest) -> Answer {
    let reply = svc
        .serve(req)
        .expect("an in-process backend always replies");
    assert_eq!(reply.id, req.id);
    let hits = reply.response.pois.iter();
    (
        hits.map(|(p, d)| (p.poi_id, d.to_bits())).collect(),
        reply.response.node_accesses,
    )
}

#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct ShardTally {
    requests: u64,
    node_accesses: u64,
    skipped: u64,
}

fn tallies(svc: &ShardedService) -> Vec<ShardTally> {
    let shards = svc.metrics().shards;
    shards
        .iter()
        .map(|s| ShardTally {
            requests: s.requests,
            node_accesses: s.node_accesses,
            skipped: s.skipped,
        })
        .collect()
}

/// The algorithm the sharded service ran until it went request-major:
/// every shard answers the requests it is home to, the home k-th distances
/// tighten the bounds, then every shard answers the foreign requests its
/// MBR cannot rule out. Sequential, and guarded against `count = 0`, which
/// the original indexed out of bounds on.
struct TwoPassOracle {
    trees: Vec<RStarTree<u64>>,
    boundaries: Vec<f64>,
    homes: std::collections::HashMap<u64, usize>,
    tally: Vec<ShardTally>,
}

impl TwoPassOracle {
    fn new(pois: &[(u64, Point)], shard_count: usize) -> Self {
        let mut items = pois.to_vec();
        items.sort_by(|a, b| a.1.x.total_cmp(&b.1.x).then_with(|| a.0.cmp(&b.0)));
        let per = items.len().div_ceil(shard_count).max(1);
        let mut oracle = TwoPassOracle {
            trees: Vec::new(),
            boundaries: Vec::new(),
            homes: std::collections::HashMap::new(),
            tally: vec![ShardTally::default(); shard_count],
        };
        for (s, chunk) in items.chunks(per).enumerate() {
            if s > 0 {
                oracle.boundaries.push(chunk[0].1.x);
            }
            oracle.homes.extend(chunk.iter().map(|&(id, _)| (id, s)));
            let strip = chunk.iter().map(|&(id, p)| (p, id)).collect();
            oracle.trees.push(RStarTree::bulk_load(strip));
        }
        oracle
            .trees
            .resize_with(shard_count, || RStarTree::bulk_load(Vec::new()));
        oracle
    }

    fn strip_for(&self, x: f64) -> usize {
        self.boundaries.partition_point(|&b| b <= x)
    }

    fn relocate(&mut self, id: u64, old_pos: Point, new_pos: Point) -> bool {
        let current = self.homes[&id];
        if self.trees[current].remove(old_pos, |v| *v == id).is_none() {
            return false;
        }
        let target = self.strip_for(new_pos.x);
        self.trees[target].insert(new_pos, id);
        self.homes.insert(id, target);
        true
    }

    fn search(&mut self, s: usize, r: &ServerRequest, bounds: SearchBounds) -> Answer {
        let mut it = self.trees[s].nn_iter_bounded(r.query, bounds);
        let hits = it.by_ref().take(r.count);
        let hits = hits.map(|n| (*n.value, n.dist.to_bits())).collect();
        let accesses = it.page_accesses();
        self.tally[s].requests += 1;
        self.tally[s].node_accesses += accesses;
        (hits, accesses)
    }

    fn submit(&mut self, batch: &[ServerRequest]) -> Vec<Answer> {
        let n = self.trees.len();
        let home_of: Vec<usize> = batch.iter().map(|r| self.strip_for(r.query.x)).collect();
        let mut home_work: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, &h) in home_of.iter().enumerate() {
            home_work[h].push(i);
        }

        // Pass 1 — home shards answer under the request's own bounds.
        let mut merged: Vec<Answer> = vec![(Vec::new(), 0); batch.len()];
        let mut tight_upper: Vec<Option<f64>> = vec![None; batch.len()];
        for (s, work) in home_work.iter().enumerate() {
            for &i in work {
                let r = &batch[i];
                let (hits, accesses) = self.search(s, r, r.bounds);
                let mut upper = r.bounds.upper;
                if r.count > 0 && hits.len() == r.count {
                    let kth = f64::from_bits(hits[hits.len() - 1].1);
                    upper = Some(upper.map_or(kth, |u| u.min(kth)));
                }
                tight_upper[i] = upper;
                merged[i] = (hits, accesses);
            }
        }

        // Pass 2 — foreign shards, MBR-skipped when provably out of range.
        let mut foreign_work: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, r) in batch.iter().enumerate() {
            for (s, tree) in self.trees.iter().enumerate() {
                if s == home_of[i] || tree.is_empty() {
                    continue;
                }
                let prunable = tight_upper[i]
                    .is_some_and(|ub| tree.bounding_rect().min_dist(r.query) > ub + EPS);
                if prunable {
                    self.tally[s].skipped += 1;
                } else {
                    foreign_work[s].push(i);
                }
            }
        }
        for (s, foreign) in foreign_work.iter().enumerate() {
            for &i in foreign {
                let r = &batch[i];
                let bounds = SearchBounds {
                    upper: tight_upper[i],
                    lower: r.bounds.lower,
                };
                let (hits, accesses) = self.search(s, r, bounds);
                merged[i].0.extend(hits);
                merged[i].1 += accesses;
            }
        }

        // Merge: a stable sort by (distance, id), then truncate.
        for (r, (hits, _)) in batch.iter().zip(&mut merged) {
            hits.sort_by(|a, b| {
                f64::from_bits(a.1)
                    .partial_cmp(&f64::from_bits(b.1))
                    .unwrap()
                    .then_with(|| a.0.cmp(&b.0))
            });
            hits.truncate(r.count);
        }
        merged
    }
}

/// Serves `reqs` one at a time on a fresh service, and checks the answers
/// against the single tree and the answers and per-shard tallies against
/// the oracle, which takes them as one batch.
fn check(
    pois: &[(u64, Point)],
    relocations: &[(u64, Point, Point)],
    reqs: &[ServerRequest],
    shards: usize,
) {
    let label = format!("shards {shards}");
    let mut golden = RTreeServer::new(pois.iter().copied());
    let mut oracle = TwoPassOracle::new(pois, shards);
    let mut svc = ShardedService::new(pois.iter().copied(), shards);
    for &(id, old, new) in relocations {
        assert!(golden.relocate(id, old, new));
        assert!(oracle.relocate(id, old, new));
        assert!(svc.relocate(id, old, new));
    }

    let got: Vec<Answer> = reqs.iter().map(|r| answer(&svc, r)).collect();
    let want = oracle.submit(reqs);
    for ((req, got), want) in reqs.iter().zip(&got).zip(&want) {
        assert_eq!(got, want, "{label}: request {} vs the oracle", req.id);
        let single = golden.knn_one(req.query, req.count, req.bounds);
        let single_hits: Vec<(u64, u64)> = single
            .pois
            .iter()
            .map(|(p, d)| (p.poi_id, d.to_bits()))
            .collect();
        assert_eq!(
            got.0, single_hits,
            "{label}: request {} vs the single tree",
            req.id
        );
        if shards == 1 {
            assert_eq!(got.1, single.node_accesses, "{label}: request {}", req.id);
        }
    }

    assert_eq!(tallies(&svc), oracle.tally, "{label}: per-shard tallies");
    let m = svc.metrics();
    assert_eq!(m.requests, reqs.len() as u64);
    assert_eq!(m.node_accesses(), got.iter().map(|a| a.1).sum::<u64>());
}

/// Every shard count over `pois`.
fn check_matrix(pois: &[(u64, Point)], relocations: &[(u64, Point, Point)], seed: u64) {
    let reqs = workload(256, pois.len(), seed);
    for shards in [1, 3, 4, 8] {
        check(pois, relocations, &reqs, shards);
    }
}

#[test]
fn uniform_world() {
    check_matrix(&uniform(1500, 0x5eed), &[], 0xfeed);
}

#[test]
fn clustered_world_skips_most_foreign_shards() {
    let pois = clustered(900, 0xc1);
    check_matrix(&pois, &[], 0xc2);
    let svc = ShardedService::new(pois.iter().copied(), 4);
    svc.submit(&workload(256, pois.len(), 0xc2));
    let skipped: u64 = svc.metrics().shards.iter().map(|s| s.skipped).sum();
    assert!(skipped > 200, "the MBR skip is exercised: {skipped}");
}

/// Five POIs over eight shards: three shards are empty, some of them home
/// to a query.
#[test]
fn more_shards_than_pois() {
    let pois = uniform(5, 0x77);
    check_matrix(&pois, &[], 0x78);
    let empty = ShardedService::new(pois.iter().copied(), 8)
        .metrics()
        .shards
        .iter()
        .filter(|s| s.pois == 0)
        .count();
    assert_eq!(empty, 3);
}

#[test]
fn after_relocating_across_strips() {
    let pois = uniform(600, 0x1111);
    let mut rng = Rng(0x2222 | 1);
    // The first sixty POIs jump to the mirror image of their x, which
    // lands most of them in another strip.
    let relocations: Vec<(u64, Point, Point)> = pois[..60]
        .iter()
        .map(|&(id, old)| (id, old, Point::new(SIDE - old.x, rng.next() * SIDE)))
        .collect();
    let before = ShardedService::new(pois.iter().copied(), 4);
    let mut after = ShardedService::new(pois.iter().copied(), 4);
    for &(id, old, new) in &relocations {
        assert!(after.relocate(id, old, new));
    }
    let count = |svc: &ShardedService| -> Vec<usize> {
        svc.metrics().shards.iter().map(|s| s.pois).collect()
    };
    assert_ne!(count(&before), count(&after), "POIs changed strips");
    check_matrix(&pois, &relocations, 0x3333);
}
