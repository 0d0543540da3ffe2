//! Transport conformance: the executable spec of [`Transport`] and the
//! retry client's conservation law.
//!
//! [`check_transport_contract`] is a reusable harness: given a factory
//! for a fresh transport, a request stream and a poll schedule, it
//! asserts the contract every policy — any window and queue shape, over a
//! healthy or a fault-wrapped backend — must keep:
//!
//! 1. **Tickets are 1:1.** Every enqueue's ticket resolves exactly once,
//!    and each reply echoes its request's id.
//! 2. **No reply before its virtual ready time.** For every cut `t` in
//!    the schedule, the tickets delivered by polls at or before `t` are
//!    exactly those a fresh instance delivers from a single `poll(t)` —
//!    availability is a pure threshold in virtual time, so no slicing
//!    can surface a reply early (or lose one).
//! 3. **Dispositions are invariant to poll granularity.** The per-ticket
//!    reply bits (status, latency, answer ids) from the sliced run match
//!    the one-big-drain reference bit for bit.
//!
//! On top of the contract, proptests check that dispositions and the
//! transport's counters are bit-identical across backend shard layouts,
//! that every submission resolves exactly once into exactly one terminal
//! class (conservation), and that `submit_with_retry` reproduces the
//! blocking ladder it replaced bit for bit.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Mutex;

use proptest::prelude::*;
use senn_core::service::{ReplyStatus, RequestOutcome, ServerReply, ServerRequest, SpatialService};
use senn_core::transport::{
    submit_with_retry, AsyncClient, RequestId, RetryPolicy, Ticket, Transport, TransportPolicy,
};
use senn_core::{QueryTrace, RTreeServer, SearchBounds};
use senn_geom::Point;

/// SplitMix64 finalizer — the keyed-draw discipline shared by the fault
/// and transport layers.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

fn server() -> RTreeServer {
    RTreeServer::new((0..32).map(|i| (i as u64, Point::new(i as f64, 0.0))))
}

fn requests(n: usize) -> Vec<ServerRequest> {
    (0..n)
        .map(|i| ServerRequest {
            id: (i as u64).into(),
            query: Point::new(i as f64 * 0.9 + 0.01, 0.3),
            count: 2,
            bounds: SearchBounds::NONE,
            full_count: 2,
        })
        .collect()
}

/// A backend sharded into `shards` identical replicas, routed by hashed
/// request id, with **one shared** keyed-flaky attempt schedule: request
/// `id` fails its first `mix64(seed ^ id) % 3` attempts (alternating
/// timeout/drop) no matter which replica serves it. Fates key on
/// `(seed, id, attempt ordinal)` — never the layout — so every shard
/// count must produce bit-identical dispositions.
struct ShardedFlaky {
    replicas: Vec<RTreeServer>,
    seed: u64,
    flaky: bool,
    attempts: Mutex<HashMap<RequestId, u64>>,
}

impl ShardedFlaky {
    fn new(shards: usize, seed: u64, flaky: bool) -> Self {
        ShardedFlaky {
            replicas: (0..shards).map(|_| server()).collect(),
            seed,
            flaky,
            attempts: Mutex::new(HashMap::new()),
        }
    }
}

impl SpatialService for ShardedFlaky {
    fn serve(&self, req: &ServerRequest) -> Option<ServerReply> {
        let ordinal = {
            let mut attempts = self.attempts.lock().unwrap();
            let e = attempts.entry(req.id).or_insert(0);
            let o = *e;
            *e += 1;
            o
        };
        let failures = if self.flaky {
            mix64(self.seed ^ req.id.raw()) % 3
        } else {
            0
        };
        if ordinal < failures {
            let status = if (ordinal + req.id.raw()).is_multiple_of(2) {
                ReplyStatus::TimedOut
            } else {
                ReplyStatus::Dropped
            };
            return Some(ServerReply {
                id: req.id,
                status,
                response: Default::default(),
                latency_ms: 15.0,
            });
        }
        let shard = (mix64(req.id.raw()) % self.replicas.len() as u64) as usize;
        let mut reply = self.replicas[shard].serve(req)?;
        reply.latency_ms = 5.0;
        Some(reply)
    }

    fn poi_count(&self) -> usize {
        self.replicas[0].poi_count()
    }
}

/// Everything observable about one delivered reply, captured bit-exactly.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct ReplyBits {
    id: u64,
    /// `ReplyStatus` as its debug name (the enum derives no ordering).
    status: &'static str,
    latency_bits: u64,
    poi_ids: Vec<u64>,
    dist_bits: Vec<u64>,
}

impl ReplyBits {
    fn of(reply: &ServerReply) -> Self {
        ReplyBits {
            id: reply.id.raw(),
            status: match reply.status {
                ReplyStatus::Ok => "ok",
                ReplyStatus::Dropped => "dropped",
                ReplyStatus::TimedOut => "timed_out",
                ReplyStatus::Shed => "shed",
            },
            latency_bits: reply.latency_ms.to_bits(),
            poi_ids: reply.response.pois.iter().map(|(p, _)| p.poi_id).collect(),
            dist_bits: reply
                .response
                .pois
                .iter()
                .map(|(_, d)| d.to_bits())
                .collect(),
        }
    }
}

/// The reusable conformance harness (see the module docs for the three
/// clauses). `make` must build a *fresh, identically seeded* service each
/// call; returns the reference per-ticket dispositions for cross-
/// implementation comparisons.
fn check_transport_contract<S: SpatialService>(
    mut make: impl FnMut() -> Transport<S>,
    requests: &[ServerRequest],
    cuts: &[f64],
) -> BTreeMap<Ticket, ReplyBits> {
    // Clause 1 on the reference run: enqueue everything, one big drain.
    let mut reference = make();
    let tickets: Vec<Ticket> = requests.iter().map(|r| reference.enqueue(*r)).collect();
    let distinct: BTreeSet<Ticket> = tickets.iter().copied().collect();
    assert_eq!(distinct.len(), tickets.len(), "tickets must be unique");
    let drained = reference.poll(f64::INFINITY);
    assert_eq!(drained.len(), requests.len(), "every ticket resolves");
    let mut expect: BTreeMap<Ticket, ReplyBits> = BTreeMap::new();
    for (ticket, reply) in &drained {
        let idx = tickets
            .iter()
            .position(|t| t == ticket)
            .expect("reply tickets come from enqueues");
        assert_eq!(reply.id, requests[idx].id, "a reply echoes its request id");
        assert!(expect.insert(*ticket, ReplyBits::of(reply)).is_none());
    }

    // Sliced run over the poll schedule.
    let mut cuts: Vec<f64> = cuts.to_vec();
    cuts.sort_by(f64::total_cmp);
    let mut sliced = make();
    for r in requests {
        sliced.enqueue(*r);
    }
    let mut seen_by_cut: Vec<(f64, BTreeSet<Ticket>)> = Vec::new();
    let mut got: BTreeMap<Ticket, ReplyBits> = BTreeMap::new();
    let mut seen: BTreeSet<Ticket> = BTreeSet::new();
    for &t in &cuts {
        for (ticket, reply) in sliced.poll(t) {
            assert!(seen.insert(ticket), "a ticket resolves at most once");
            got.insert(ticket, ReplyBits::of(&reply));
        }
        seen_by_cut.push((t, seen.clone()));
    }
    for (ticket, reply) in sliced.poll(f64::INFINITY) {
        assert!(seen.insert(ticket), "a ticket resolves at most once");
        got.insert(ticket, ReplyBits::of(&reply));
    }

    // Clause 3: sliced dispositions match the reference bit for bit.
    assert_eq!(got, expect, "dispositions are invariant to poll slicing");

    // Clause 2: availability is a pure threshold in virtual time — a
    // fresh instance polled once at cut `t` delivers exactly the tickets
    // the sliced run accumulated by `t`. (⊇ means nothing arrived late;
    // ⊆ means slicing never surfaced a reply before its ready time.)
    for (t, by_then) in &seen_by_cut {
        let mut fresh = make();
        for r in requests {
            fresh.enqueue(*r);
        }
        let at_once: BTreeSet<Ticket> = fresh.poll(*t).into_iter().map(|(tk, _)| tk).collect();
        assert_eq!(
            &at_once, by_then,
            "replies ready by t={t} must be exactly those delivered by t"
        );
    }
    expect
}

fn static_policy(window: usize, queue_cap: usize) -> TransportPolicy {
    TransportPolicy {
        retry: RetryPolicy::NONE,
        queue_cap,
        shed: true,
        window,
    }
}

/// The blocking retry ladder `submit_with_retry` used to run, kept as
/// the reference it must reproduce: every open request goes out in
/// rounds — all first attempts as one batch, then each retry round after
/// its virtual backoff, then one degraded unpruned round — until it is
/// answered, shed, or out of rounds.
fn blocking_ladder(
    service: &dyn SpatialService,
    requests: &[ServerRequest],
    policy: &RetryPolicy,
) -> Vec<RequestOutcome> {
    let mut outcomes: Vec<RequestOutcome> =
        requests.iter().map(|_| RequestOutcome::default()).collect();
    let mut open: Vec<usize> = (0..requests.len()).collect();
    let mut backoff = policy.backoff_base_ms;
    let pruned = policy.max_attempts.max(1);
    for round in 0..pruned + u32::from(policy.degrade_unpruned) {
        if open.is_empty() {
            break;
        }
        let degraded = round == pruned;
        if round > 0 {
            for &i in &open {
                outcomes[i].retries += 1;
                outcomes[i].waited_ms += backoff;
            }
            if !degraded {
                backoff *= policy.backoff_factor;
            }
        }
        let batch: Vec<ServerRequest> = open
            .iter()
            .map(|&i| {
                if degraded {
                    requests[i].unpruned()
                } else {
                    requests[i]
                }
            })
            .collect();
        let replies = service.submit(&batch);
        let mut still_open = Vec::new();
        for (&i, reply) in open.iter().zip(&replies) {
            let out = &mut outcomes[i];
            out.waited_ms += reply.latency_ms;
            match reply.status {
                ReplyStatus::Ok => {
                    out.response = reply.response.clone();
                    out.degraded = degraded;
                }
                ReplyStatus::TimedOut => {
                    out.timeouts += 1;
                    still_open.push(i);
                }
                ReplyStatus::Dropped => {
                    out.drops += 1;
                    still_open.push(i);
                }
                ReplyStatus::Shed => {
                    out.shed += 1;
                    out.failed = true;
                }
            }
        }
        open = still_open;
    }
    for i in open {
        outcomes[i].failed = true;
    }
    outcomes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The static transport honors the contract for any shape and any
    /// poll schedule, fault-free and flaky alike.
    #[test]
    fn static_transport_honors_the_contract(
        seed in any::<u64>(),
        n in 1usize..24,
        window in 1usize..5,
        queue_cap in 1usize..8,
        cuts in prop::collection::vec(0.0f64..300.0, 0..4),
        flaky in any::<bool>(),
    ) {
        check_transport_contract(
            || Transport::new(ShardedFlaky::new(1, seed, flaky), 3, seed, static_policy(window, queue_cap)),
            &requests(n),
            &cuts,
        );
    }

    /// Dispositions *and* every transport counter are bit-identical
    /// across 1/2/3 backend shards: lane assignment hashes the request id
    /// and fate draws key on `(seed, id, attempt)`, so the backend's
    /// layout cannot move a single event.
    #[test]
    fn dispositions_are_invariant_to_backend_shards(
        seed in any::<u64>(),
        n in 1usize..24,
        window in 1usize..5,
        cuts in prop::collection::vec(0.0f64..300.0, 0..4),
        flaky in any::<bool>(),
    ) {
        let policy = static_policy(window, 6);
        let mut reference: Option<_> = None;
        for shards in [1usize, 2, 3] {
            let dispositions = check_transport_contract(
                || Transport::new(ShardedFlaky::new(shards, seed, flaky), 3, seed, policy),
                &requests(n),
                &cuts,
            );
            // Re-run once more to capture the counters.
            let mut t = Transport::new(ShardedFlaky::new(shards, seed, flaky), 3, seed, policy);
            for r in &requests(n) {
                t.enqueue(*r);
            }
            t.drain();
            let snapshot = (dispositions, t.stats().clone());
            match &reference {
                None => reference = Some(snapshot),
                Some(r) => prop_assert_eq!(&snapshot, r, "shards={}", shards),
            }
        }
    }

    /// Every submission resolves exactly once, into exactly one terminal
    /// class — answered, answered degraded, shed, or out of attempts —
    /// whatever the backend's weather, the window, the queue depth and
    /// the poll schedule. The classes sum to the submissions.
    #[test]
    fn every_submission_resolves_once_into_one_class(
        seed in any::<u64>(),
        n in 1usize..32,
        flaky in any::<bool>(),
        window in 1usize..5,
        queue_cap in 1usize..5,
        max_attempts in 1u32..4,
        degrade_unpruned in any::<bool>(),
        cuts in prop::collection::vec(0.0f64..300.0, 0..5),
    ) {
        let policy = TransportPolicy {
            retry: RetryPolicy {
                max_attempts,
                degrade_unpruned,
                ..RetryPolicy::default()
            },
            queue_cap,
            shed: true,
            window,
        };
        let mut client = AsyncClient::new(ShardedFlaky::new(1, seed, flaky), 2, seed, policy);
        let submitted: BTreeSet<Ticket> = requests(n).into_iter().map(|r| client.submit(r)).collect();
        let mut cuts = cuts;
        cuts.sort_by(f64::total_cmp);
        let mut resolved = Vec::new();
        for t in cuts {
            resolved.extend(client.poll(t));
        }
        resolved.extend(client.drain());

        let mut seen = BTreeSet::new();
        // ok, degraded, shed, exhausted
        let mut classes = [0u64; 4];
        for (ticket, o) in &resolved {
            prop_assert!(seen.insert(*ticket), "a submission resolves at most once");
            let class = match (o.failed, o.degraded, o.shed) {
                (false, false, 0) => 0,
                (false, true, 0) => 1,
                (true, false, 1) => 2,
                (true, false, 0) => 3,
                other => panic!("outcome in no single class: {other:?}"),
            };
            prop_assert_eq!(o.failed, o.response.pois.is_empty());
            classes[class] += 1;
        }
        prop_assert_eq!(&seen, &submitted, "every submission resolves");
        prop_assert_eq!(classes.iter().sum::<u64>(), n as u64);
    }

    /// `submit_with_retry` — the settled client, drained — reproduces the
    /// blocking ladder it replaced: bit-identical outcomes and traces,
    /// virtual waits included.
    #[test]
    fn settled_client_equals_the_blocking_ladder(
        seed in any::<u64>(),
        n in 1usize..24,
        flaky in any::<bool>(),
    ) {
        let reqs = requests(n);
        let policy = RetryPolicy::default();
        let settled = submit_with_retry(&ShardedFlaky::new(1, seed, flaky), &reqs, &policy);
        let blocking = blocking_ladder(&ShardedFlaky::new(1, seed, flaky), &reqs, &policy);
        prop_assert_eq!(settled.len(), blocking.len());
        let mut trace_a = QueryTrace::new();
        let mut trace_b = QueryTrace::new();
        for (a, b) in settled.iter().zip(&blocking) {
            prop_assert_eq!(a.retries, b.retries);
            prop_assert_eq!(a.timeouts, b.timeouts);
            prop_assert_eq!(a.drops, b.drops);
            prop_assert_eq!(a.shed, b.shed);
            prop_assert_eq!(a.degraded, b.degraded);
            prop_assert_eq!(a.failed, b.failed);
            prop_assert_eq!(a.waited_ms.to_bits(), b.waited_ms.to_bits());
            let a_pois: Vec<(u64, u64)> = a
                .response
                .pois
                .iter()
                .map(|(p, d)| (p.poi_id, d.to_bits()))
                .collect();
            let b_pois: Vec<(u64, u64)> = b
                .response
                .pois
                .iter()
                .map(|(p, d)| (p.poi_id, d.to_bits()))
                .collect();
            prop_assert_eq!(a_pois, b_pois);
            trace_a.record_service_outcome(a);
            trace_b.record_service_outcome(b);
        }
        prop_assert_eq!(&trace_a, &trace_b, "bit-identical trace metrics");
    }
}
