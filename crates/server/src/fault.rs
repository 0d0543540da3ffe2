//! Seeded fault injection for any [`SpatialService`]: per-request latency,
//! timeout and drop schedules, deterministic under a fixed seed.
//!
//! Each request's fate is a pure function of `(seed, request id, per-id
//! attempt ordinal)`: the wrapper counts how many times it has seen each
//! request id and mixes `(seed, id, ordinal)` through a SplitMix64
//! finalizer to seed the two draws (drop, latency) for that attempt. The
//! schedule is therefore **keyed, not positional** — re-ordering or
//! interleaving unrelated requests leaves every individual request's
//! fault sequence untouched. A fixed seed and a fixed per-id submission
//! history reproduce the exact same faults, retry counts and latencies,
//! no matter how many shards the wrapped backend has.
//! A [`FaultConfig::disabled`] wrapper is a pure passthrough: it performs
//! no draws at all, which keeps metrics bit-identical to running the inner
//! service bare (regression-tested in `senn-sim`).
//!
//! Latencies are *virtual*: they are reported on the reply (and folded
//! into retry accounting by `senn_core::transport::AsyncClient`), never
//! slept. Timed-out requests still execute on the inner service — the
//! server did the work, the client just stopped waiting — so per-shard
//! counters keep ticking, while dropped requests never reach it. A reply
//! the inner service loses is a drop too, after the planned latency.

use std::collections::HashMap;
use std::sync::{Mutex, PoisonError};

use senn_core::service::{ReplyStatus, ServerReply, ServerRequest, SpatialService};
use senn_core::splitmix::SplitMix64;
use senn_core::transport::RequestId;

/// Configuration of the fault-injecting wrapper.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultConfig {
    /// Seed of the fault schedule.
    pub seed: u64,
    /// Probability that a request is dropped before reaching the backend.
    pub drop_prob: f64,
    /// Mean of the exponential service-latency distribution, milliseconds
    /// (`0` = no added latency).
    pub mean_latency_ms: f64,
    /// Client patience: a drawn latency above this turns the reply into
    /// [`ReplyStatus::TimedOut`]. Use [`f64::INFINITY`] for no timeout.
    pub timeout_ms: f64,
}

impl FaultConfig {
    /// A wrapper that injects nothing — serve is a pure passthrough and
    /// the RNG is never advanced.
    pub fn disabled() -> Self {
        FaultConfig {
            seed: 0,
            drop_prob: 0.0,
            mean_latency_ms: 0.0,
            timeout_ms: f64::INFINITY,
        }
    }

    /// A moderately hostile network: 5% drops, 20 ms mean latency, 100 ms
    /// client patience.
    pub fn lossy(seed: u64) -> Self {
        FaultConfig {
            seed,
            drop_prob: 0.05,
            mean_latency_ms: 20.0,
            timeout_ms: 100.0,
        }
    }

    /// True when the wrapper cannot alter any reply.
    pub fn is_disabled(&self) -> bool {
        self.drop_prob <= 0.0 && self.mean_latency_ms <= 0.0
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::disabled()
    }
}

/// A [`SpatialService`] decorator injecting seeded faults (see the module
/// docs for the exact schedule semantics).
pub struct FaultyService<S> {
    inner: S,
    config: FaultConfig,
    /// Per-request-id attempt counters: how many times each id has been
    /// submitted so far. Keys the per-attempt fault draws.
    attempts: Mutex<HashMap<RequestId, u64>>,
}

impl<S> FaultyService<S> {
    /// Wraps `inner` with the given fault schedule.
    pub fn new(inner: S, config: FaultConfig) -> Self {
        FaultyService {
            inner,
            config,
            attempts: Mutex::new(HashMap::new()),
        }
    }

    /// The wrapped service.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Mutable access to the wrapped service (e.g. to relocate POIs on a
    /// mutable backend; the fault schedule is unaffected).
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }
}

impl<S: SpatialService> SpatialService for FaultyService<S> {
    fn serve(&self, request: &ServerRequest) -> Option<ServerReply> {
        if self.config.is_disabled() {
            return self.inner.serve(request);
        }
        // The draws are keyed by (seed, id, per-id attempt ordinal), so
        // neither the order of requests nor their grouping moves a fate —
        // only how often each id has been submitted does.
        let mut rng = {
            // Each counter update is one increment, so a poisoned lock
            // holds no torn state: recover the guard instead of panicking.
            let mut attempts = self.attempts.lock().unwrap_or_else(PoisonError::into_inner);
            let ordinal = attempts.entry(request.id).or_insert(0);
            let rng = SplitMix64::keyed(self.config.seed, request.id.raw(), *ordinal);
            *ordinal += 1;
            rng
        };
        let dropped = rng.next_f64() < self.config.drop_prob;
        let latency = if self.config.mean_latency_ms > 0.0 {
            // Exponential via inverse CDF; 1 - u avoids ln(0).
            -self.config.mean_latency_ms * (1.0 - rng.next_f64()).ln()
        } else {
            0.0
        };
        let (status, latency_ms) = if dropped {
            // The client hears nothing and gives up at its patience limit
            // (or immediately without one).
            let waited = if self.config.timeout_ms.is_finite() {
                self.config.timeout_ms
            } else {
                latency
            };
            (ReplyStatus::Dropped, waited)
        } else if latency > self.config.timeout_ms {
            (ReplyStatus::TimedOut, self.config.timeout_ms)
        } else {
            (ReplyStatus::Ok, latency)
        };
        // Everything that wasn't dropped reaches the backend — including
        // timed-out requests, whose answers the client discards. A request
        // dropped here, or one whose reply the backend lost, is a drop
        // after the planned latency.
        let reply = match status {
            ReplyStatus::Dropped => None,
            _ => self.inner.serve(request),
        };
        let Some(reply) = reply else {
            return Some(ServerReply {
                id: request.id,
                status: ReplyStatus::Dropped,
                response: Default::default(),
                latency_ms,
            });
        };
        Some(ServerReply {
            id: request.id,
            status: if reply.status == ReplyStatus::Ok {
                status
            } else {
                reply.status
            },
            response: if status == ReplyStatus::Ok {
                reply.response
            } else {
                Default::default()
            },
            latency_ms: latency_ms + reply.latency_ms,
        })
    }

    fn poi_count(&self) -> usize {
        self.inner.poi_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use senn_core::transport::submit_with_retry;
    use senn_core::{RTreeServer, RetryPolicy};
    use senn_geom::Point;
    use senn_rtree::SearchBounds;

    fn server() -> RTreeServer {
        RTreeServer::new((0..50).map(|i| (i as u64, Point::new(i as f64, 0.0))))
    }

    fn batch(n: u64) -> Vec<ServerRequest> {
        (0..n)
            .map(|i| ServerRequest::plain(i, Point::new(i as f64 * 0.9, 0.3), 3))
            .collect()
    }

    #[test]
    fn disabled_wrapper_is_pure_passthrough() {
        let plain = server();
        let wrapped = FaultyService::new(server(), FaultConfig::disabled());
        let reqs = batch(12);
        let a = plain.submit(&reqs);
        let b = wrapped.submit(&reqs);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.status, y.status);
            assert_eq!(x.latency_ms, y.latency_ms);
            assert_eq!(x.response.pois, y.response.pois);
            assert_eq!(x.response.node_accesses, y.response.node_accesses);
        }
    }

    #[test]
    fn fixed_seed_reproduces_the_exact_schedule() {
        let mk = || {
            FaultyService::new(
                server(),
                FaultConfig {
                    seed: 0xDEAD,
                    drop_prob: 0.3,
                    mean_latency_ms: 30.0,
                    timeout_ms: 60.0,
                },
            )
        };
        let reqs = batch(64);
        let a: Vec<_> = mk()
            .submit(&reqs)
            .iter()
            .map(|r| (r.status, r.latency_ms.to_bits()))
            .collect();
        let b: Vec<_> = mk()
            .submit(&reqs)
            .iter()
            .map(|r| (r.status, r.latency_ms.to_bits()))
            .collect();
        assert_eq!(a, b, "same seed, same requests ⇒ same faults, bit for bit");
        assert!(
            a.iter().any(|(s, _)| *s != ReplyStatus::Ok),
            "schedule should actually inject faults"
        );
        assert!(a.iter().any(|(s, _)| *s == ReplyStatus::Ok));
    }

    #[test]
    fn retry_layer_recovers_from_faults_without_panics() {
        let svc = FaultyService::new(server(), FaultConfig::lossy(42));
        let reqs = batch(100);
        let outcomes = submit_with_retry(&svc, &reqs, &RetryPolicy::default());
        assert_eq!(outcomes.len(), 100);
        let truth = server();
        let mut recovered = 0;
        for (req, out) in reqs.iter().zip(&outcomes) {
            if out.failed {
                assert!(out.response.pois.is_empty());
                continue;
            }
            recovered += 1;
            let want = truth.knn_one(req.query, req.count, SearchBounds::NONE);
            assert_eq!(out.response.pois, want.pois, "request {}", req.id);
        }
        assert!(recovered >= 95, "retries should recover nearly everything");
        let total_retries: u32 = outcomes.iter().map(|o| o.retries).sum();
        assert!(total_retries > 0, "a 5% drop rate over 100 queries retries");
    }

    #[test]
    fn deterministic_retry_counts_under_fixed_seed() {
        let run = || {
            let svc = FaultyService::new(server(), FaultConfig::lossy(7));
            let outcomes = submit_with_retry(&svc, &batch(80), &RetryPolicy::default());
            outcomes
                .iter()
                .map(|o| (o.retries, o.timeouts, o.drops, o.degraded, o.failed))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run(), "fixed seed ⇒ identical retry accounting");
    }

    #[test]
    fn fault_schedule_is_invariant_to_batch_splitting() {
        // The same per-id submission history must yield bit-identical
        // fates whether the requests arrive as one batch, as singles, or
        // interleaved with other ids — the keyed draws depend only on
        // (seed, id, attempt ordinal).
        let cfg = FaultConfig {
            seed: 0xFEED,
            drop_prob: 0.35,
            mean_latency_ms: 25.0,
            timeout_ms: 40.0,
        };
        let reqs = batch(40);
        let whole: Vec<_> = FaultyService::new(server(), cfg)
            .submit(&reqs)
            .iter()
            .map(|r| (r.id, r.status, r.latency_ms.to_bits()))
            .collect();
        // Singles, served one by one.
        let svc = FaultyService::new(server(), cfg);
        let singles: Vec<_> = reqs
            .iter()
            .flat_map(|r| svc.serve(r))
            .map(|r| (r.id, r.status, r.latency_ms.to_bits()))
            .collect();
        assert_eq!(whole, singles, "splitting a batch must not move faults");
        // Reverse submission order: each id's fate is still its own.
        let svc = FaultyService::new(server(), cfg);
        let mut reversed: Vec<_> = reqs
            .iter()
            .rev()
            .flat_map(|r| svc.serve(r))
            .map(|r| (r.id, r.status, r.latency_ms.to_bits()))
            .collect();
        reversed.reverse();
        assert_eq!(whole, reversed, "reordering ids must not move faults");
        assert!(
            whole.iter().any(|(_, s, _)| *s != ReplyStatus::Ok),
            "schedule should actually inject faults"
        );
    }

    #[test]
    fn resubmitting_an_id_advances_its_own_fault_stream_only() {
        let cfg = FaultConfig {
            seed: 9,
            drop_prob: 0.5,
            mean_latency_ms: 10.0,
            timeout_ms: 50.0,
        };
        // Submit id 0 three times on one service: the three fates follow
        // the id's private ordinal stream.
        let svc = FaultyService::new(server(), cfg);
        let req = batch(1)[0];
        let fates: Vec<_> = (0..3)
            .map(|_| {
                let r = svc.serve(&req).expect("the wrapper always replies");
                (r.status, r.latency_ms.to_bits())
            })
            .collect();
        // Interleaving a different id between the attempts changes nothing.
        let svc = FaultyService::new(server(), cfg);
        let other = ServerRequest::plain(77, Point::new(5.0, 5.0), 3);
        let mut interleaved = Vec::new();
        for _ in 0..3 {
            let r = svc.serve(&req).expect("the wrapper always replies");
            interleaved.push((r.status, r.latency_ms.to_bits()));
            svc.serve(&other);
        }
        assert_eq!(fates, interleaved, "foreign ids must not perturb a stream");
        // The per-attempt fates are not all identical for this seed — the
        // ordinal genuinely keys the draw.
        assert!(
            fates.windows(2).any(|w| w[0] != w[1]),
            "attempt ordinal must vary the fate (seed chosen to show it)"
        );
    }

    /// A backend that loses its reply to one request id.
    struct LosesReplyTo(RTreeServer, RequestId);

    impl SpatialService for LosesReplyTo {
        fn serve(&self, request: &ServerRequest) -> Option<ServerReply> {
            self.0.serve(request).filter(|_| request.id != self.1)
        }

        fn poi_count(&self) -> usize {
            self.0.poi_count()
        }
    }

    #[test]
    fn an_omitted_inner_reply_is_a_drop_at_the_planned_latency() {
        let cfg = FaultConfig {
            seed: 5,
            drop_prob: 0.0,
            mean_latency_ms: 10.0,
            timeout_ms: f64::INFINITY,
        };
        let fate = |r: &ServerReply| {
            (
                r.id,
                r.status,
                r.latency_ms.to_bits(),
                r.response.pois.clone(),
            )
        };
        // The last reply of eight, then the middle one of three: the lost
        // request comes back dropped, every other one with its own answer.
        for (n, lost) in [(8, 7), (3, 1)] {
            let reqs = batch(n);
            let whole = FaultyService::new(server(), cfg).submit(&reqs);
            let backend = LosesReplyTo(server(), RequestId::new(lost));
            let short = FaultyService::new(backend, cfg).submit(&reqs);
            assert_eq!(short.len(), reqs.len());
            for ((req, got), want) in reqs.iter().zip(&short).zip(&whole) {
                assert_eq!((want.id, want.status), (req.id, ReplyStatus::Ok));
                let expected = if req.id.raw() == lost {
                    let latency = want.latency_ms.to_bits();
                    (req.id, ReplyStatus::Dropped, latency, vec![])
                } else {
                    fate(want)
                };
                assert_eq!(fate(got), expected, "request {} of {n}", req.id);
            }
        }
    }

    #[test]
    fn timeouts_attributed_when_latency_exceeds_patience() {
        // Mean latency far above the patience: almost everything times out.
        let svc = FaultyService::new(
            server(),
            FaultConfig {
                seed: 3,
                drop_prob: 0.0,
                mean_latency_ms: 500.0,
                timeout_ms: 1.0,
            },
        );
        let replies = svc.submit(&batch(32));
        let timeouts = replies
            .iter()
            .filter(|r| r.status == ReplyStatus::TimedOut)
            .count();
        assert!(timeouts >= 30, "expected near-universal timeouts");
        for r in &replies {
            if r.status == ReplyStatus::TimedOut {
                assert!(r.response.pois.is_empty(), "late answers are discarded");
                assert!(
                    (r.latency_ms - 1.0).abs() < 1e-9,
                    "client waits its patience"
                );
            }
        }
    }
}
