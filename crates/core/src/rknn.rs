//! Reverse-kNN over the batched service seam: *which hosts have me in
//! their top-k POIs?* — the push-notification workload of the ROADMAP's
//! batch-sharing item.
//!
//! A reverse-kNN query is **bichromatic**: the querier is a POI (think a
//! venue pushing an offer), the answer set is every mobile host whose
//! own k-nearest-POI list contains that POI. Host `h` is a member of
//! `RkNN(q)` iff `q.poi_id` appears among the first `q.k` POIs of the
//! server's kNN answer at `h`'s position — so the whole batch reduces to
//! at most one ordinary [`ServerRequest`] per host (with `k` = the
//! largest `k` any query needs at that host, since a kNN answer's first
//! `k'` entries *are* the `k'`-NN answer), driven through the same
//! [`SpatialService`]/transport seam as every other query.
//!
//! Before paying a verification request, each (query, host) pair is
//! tested against the host's **cached-kNN radius**: if the host's cache
//! proves `k` POIs within distance `r` of its current position and the
//! querying POI is farther than `r`, the POI cannot be in the host's
//! top-k and the pair is pruned — soundly, because the cached POIs are
//! real POIs and the comparison is strict (ties still verify). The
//! pruning decision is a pure function of the inputs, so results are
//! invariant to thread and shard layout like every other query type.

use crate::service::{ServerRequest, SpatialService};
use crate::trace::QueryTrace;
use crate::transport::{submit_with_retry, RetryPolicy};
use senn_geom::Point;

/// One reverse-kNN query: a POI asking which hosts rank it top-k.
#[derive(Clone, Debug, PartialEq)]
pub struct RknnQuery {
    /// Caller-chosen query id, echoed in the outcome.
    pub id: u64,
    /// The POI whose reverse neighbors are wanted.
    pub poi_id: u64,
    /// That POI's position (used only for the cache-radius prune; the
    /// membership test itself matches on `poi_id`).
    pub position: Point,
    /// Membership rank: the host must hold the POI in its top `k`.
    pub k: usize,
}

/// One candidate host of a reverse-kNN batch.
#[derive(Clone, Debug, PartialEq)]
pub struct RknnHost {
    /// Caller-chosen host id, reported in member lists.
    pub host_id: u64,
    /// The host's current position.
    pub position: Point,
    /// Distances from `position` to *distinct* POIs the host's cache
    /// proves exist, sorted ascending. `cached_dists[k-1]` is then a
    /// sound upper bound on the host's true k-th-NN distance: at least
    /// `k` real POIs lie within it. Empty when the host has no usable
    /// cache — every pair then verifies.
    pub cached_dists: Vec<f64>,
}

/// The answer to one [`RknnQuery`].
#[derive(Clone, Debug, PartialEq)]
pub struct RknnOutcome {
    /// The query's id.
    pub id: u64,
    /// The query's POI.
    pub poi_id: u64,
    /// Hosts that rank the POI in their top-k, in input host order.
    pub members: Vec<u64>,
}

/// Work accounting of one reverse-kNN batch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RknnStats {
    /// Queries in the batch.
    pub queries: u64,
    /// (query, host) candidate pairs examined.
    pub pairs: u64,
    /// Pairs the cached-kNN radius pruned without a server request.
    pub cache_pruned: u64,
    /// Hosts verified through the service (at most one request each).
    pub verified_hosts: u64,
    /// Hosts whose verification request exhausted every attempt — their
    /// memberships are unknown and reported as non-members.
    pub failed_hosts: u64,
    /// Memberships found across all queries.
    pub members: u64,
}

/// One reverse-kNN batch: the outcomes, the accounting, and the service
/// disposition trace (retries/timeouts/drops/shed) of the verification
/// requests.
#[derive(Clone, Debug, Default)]
pub struct RknnBatch {
    /// Per-query answers, in input query order.
    pub outcomes: Vec<RknnOutcome>,
    /// Work accounting.
    pub stats: RknnStats,
    /// Service dispositions of the verification requests, folded like a
    /// residual round's.
    pub trace: QueryTrace,
}

/// Whether the cached-kNN radius proves `host` cannot rank a POI at
/// distance `d` in its top `k`. Strict comparison: a tie still verifies.
fn cache_prunes(host: &RknnHost, d: f64, k: usize) -> bool {
    k >= 1 && host.cached_dists.len() >= k && d > host.cached_dists[k - 1]
}

/// Answers a batch of reverse-kNN queries against `service`, spending at
/// most one kNN verification request per host through
/// [`submit_with_retry`].
pub fn rknn_batch(
    service: &dyn SpatialService,
    policy: &RetryPolicy,
    queries: &[RknnQuery],
    hosts: &[RknnHost],
) -> RknnBatch {
    let mut batch = RknnBatch {
        outcomes: queries
            .iter()
            .map(|q| RknnOutcome {
                id: q.id,
                poi_id: q.poi_id,
                members: Vec::new(),
            })
            .collect(),
        ..RknnBatch::default()
    };
    batch.stats.queries = queries.len() as u64;

    // One pass to size the per-host request: the largest k any unpruned
    // query needs. A kNN answer's first k' entries are the k'-NN answer,
    // so one request serves every query at that host.
    let mut needed_k: Vec<usize> = vec![0; hosts.len()];
    for q in queries {
        if q.k == 0 {
            continue;
        }
        for (h, host) in hosts.iter().enumerate() {
            batch.stats.pairs += 1;
            let d = host.position.dist(q.position);
            if cache_prunes(host, d, q.k) {
                batch.stats.cache_pruned += 1;
            } else {
                needed_k[h] = needed_k[h].max(q.k);
            }
        }
    }

    let requests: Vec<ServerRequest> = needed_k
        .iter()
        .enumerate()
        .filter(|&(_, &k)| k > 0)
        .map(|(h, &k)| ServerRequest::plain(h as u64, hosts[h].position, k))
        .collect();
    batch.stats.verified_hosts = requests.len() as u64;

    // The host's kNN poi-id list, in ascending distance order — `None`
    // for hosts that were never verified or whose request failed.
    let mut replies: Vec<Option<Vec<u64>>> = vec![None; hosts.len()];
    for (req, out) in requests
        .iter()
        .zip(submit_with_retry(service, &requests, policy))
    {
        batch.trace.record_service_outcome(&out);
        let h = req.id.raw() as usize;
        if out.failed {
            batch.stats.failed_hosts += 1;
        } else {
            replies[h] = Some(out.response.pois.iter().map(|(p, _)| p.poi_id).collect());
        }
    }

    for (q, outcome) in queries.iter().zip(&mut batch.outcomes) {
        if q.k == 0 {
            continue;
        }
        for (h, host) in hosts.iter().enumerate() {
            let d = host.position.dist(q.position);
            if cache_prunes(host, d, q.k) {
                continue;
            }
            if let Some(ids) = &replies[h] {
                if ids.iter().take(q.k).any(|&pid| pid == q.poi_id) {
                    outcome.members.push(host.host_id);
                    batch.stats.members += 1;
                }
            }
        }
    }
    batch
}

/// Brute-force reverse-kNN oracle for the equivalence suites: a linear
/// scan over the whole POI set per host, ties broken by POI id like the
/// tests' jittered worlds (which have none w.p. 1).
pub fn rknn_bruteforce(
    queries: &[RknnQuery],
    hosts: &[RknnHost],
    pois: &[(u64, Point)],
) -> Vec<RknnOutcome> {
    queries
        .iter()
        .map(|q| {
            let mut members = Vec::new();
            for host in hosts {
                let mut ranked: Vec<(f64, u64)> = pois
                    .iter()
                    .map(|&(id, p)| (host.position.dist(p), id))
                    .collect();
                ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                if ranked.iter().take(q.k).any(|&(_, id)| id == q.poi_id) {
                    members.push(host.host_id);
                }
            }
            RknnOutcome {
                id: q.id,
                poi_id: q.poi_id,
                members,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::RTreeServer;
    use crate::transport::RetryPolicy;

    fn world() -> Vec<(u64, Point)> {
        // A 3×3 jittered grid of POIs, ids 0..9.
        let mut pois = Vec::new();
        for i in 0..3 {
            for j in 0..3 {
                let id = (i * 3 + j) as u64;
                pois.push((
                    id,
                    Point::new(
                        i as f64 * 100.0 + id as f64 * 0.13,
                        j as f64 * 100.0 + id as f64 * 0.07,
                    ),
                ));
            }
        }
        pois
    }

    fn host(id: u64, x: f64, y: f64) -> RknnHost {
        RknnHost {
            host_id: id,
            position: Point::new(x, y),
            cached_dists: Vec::new(),
        }
    }

    #[test]
    fn matches_bruteforce_without_caches() {
        let pois = world();
        let server = RTreeServer::new(pois.clone());
        let hosts = vec![
            host(10, 5.0, 5.0),
            host(11, 150.0, 150.0),
            host(12, 210.0, 10.0),
            host(13, 95.0, 205.0),
        ];
        let queries: Vec<RknnQuery> = pois
            .iter()
            .map(|&(id, p)| RknnQuery {
                id,
                poi_id: id,
                position: p,
                k: 2,
            })
            .collect();
        let batch = rknn_batch(&server, &RetryPolicy::default(), &queries, &hosts);
        let oracle = rknn_bruteforce(&queries, &hosts, &pois);
        assert_eq!(batch.outcomes, oracle);
        // Every host appears in exactly k=2 member lists in total.
        assert_eq!(batch.stats.members, 2 * hosts.len() as u64);
        assert_eq!(batch.stats.verified_hosts, hosts.len() as u64);
        assert_eq!(batch.stats.cache_pruned, 0);
        assert_eq!(batch.stats.failed_hosts, 0);
    }

    #[test]
    fn cache_radius_prunes_soundly() {
        let pois = world();
        let server = RTreeServer::new(pois.clone());
        // Host at the origin corner with a cache proving two POIs nearby.
        let mut h = host(42, 1.0, 1.0);
        let mut dists: Vec<f64> = pois.iter().map(|&(_, p)| h.position.dist(p)).collect();
        dists.sort_by(f64::total_cmp);
        h.cached_dists = dists[..2].to_vec();
        let hosts = vec![h];
        let queries: Vec<RknnQuery> = pois
            .iter()
            .map(|&(id, p)| RknnQuery {
                id,
                poi_id: id,
                position: p,
                k: 2,
            })
            .collect();
        let batch = rknn_batch(&server, &RetryPolicy::default(), &queries, &hosts);
        let oracle = rknn_bruteforce(&queries, &hosts, &pois);
        assert_eq!(batch.outcomes, oracle, "pruning must stay invisible");
        // 9 pairs, and the radius kills every POI beyond the 2nd NN.
        assert_eq!(batch.stats.pairs, 9);
        assert_eq!(batch.stats.cache_pruned, 7);
        assert_eq!(batch.stats.verified_hosts, 1);
    }

    #[test]
    fn one_request_serves_mixed_k() {
        let pois = world();
        let server = RTreeServer::new(pois.clone());
        let hosts = vec![host(7, 5.0, 5.0)];
        // k=1 and k=3 queries at the same host: one k=3 request answers
        // both, and the k=1 query only reads the first entry.
        let queries = vec![
            RknnQuery {
                id: 0,
                poi_id: 0,
                position: pois[0].1,
                k: 1,
            },
            RknnQuery {
                id: 1,
                poi_id: 4,
                position: pois[4].1,
                k: 3,
            },
        ];
        let batch = rknn_batch(&server, &RetryPolicy::default(), &queries, &hosts);
        assert_eq!(batch.stats.verified_hosts, 1);
        assert_eq!(batch.outcomes, rknn_bruteforce(&queries, &hosts, &pois));
    }

    #[test]
    fn k_zero_is_empty_and_free() {
        let pois = world();
        let server = RTreeServer::new(pois.clone());
        let hosts = vec![host(7, 5.0, 5.0)];
        let queries = vec![RknnQuery {
            id: 0,
            poi_id: 0,
            position: pois[0].1,
            k: 0,
        }];
        let batch = rknn_batch(&server, &RetryPolicy::default(), &queries, &hosts);
        assert!(batch.outcomes[0].members.is_empty());
        assert_eq!(batch.stats.pairs, 0);
        assert_eq!(batch.stats.verified_hosts, 0);
    }

    #[test]
    fn bruteforce_survives_a_host_at_a_nan_position() {
        // Every distance from such a host is NaN; the oracle's sort used
        // to abort on it (`partial_cmp(..).expect("finite distances")`).
        // NaNs tie under `total_cmp`, so that host ranks by POI id; the
        // finite host beside it is graded as ever.
        let pois = world();
        let hosts = vec![host(1, f64::NAN, 0.0), host(2, 1.0, 1.0)];
        let queries = vec![RknnQuery {
            id: 0,
            poi_id: 0,
            position: pois[0].1,
            k: 1,
        }];
        let truth = rknn_bruteforce(&queries, &hosts, &pois);
        assert_eq!(truth[0].members, vec![1, 2]);
    }
}
