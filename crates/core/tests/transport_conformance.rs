//! Transport conformance: the executable spec of [`Transport`], the
//! controller's liveness and budget laws, and the retry client's
//! conservation law.
//!
//! [`check_transport_contract`] is a reusable harness: given a factory
//! for a fresh transport, a request stream and a poll schedule, it
//! asserts the contract every policy — a fixed window, an AIMD band, a
//! fault-wrapped backend — must keep:
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
//! On top of the contract, proptests pin the controller's laws: AIMD
//! windows never leave `[window_min, window_max]` and converge to
//! `window_max` on a shed-free run (liveness); the token-bucket retry
//! budget never goes negative and every denial is counted exactly once
//! on its outcome (and therefore in the downstream metrics); window
//! trajectories are bit-identical across backend shard layouts. Every
//! submission resolves exactly once into exactly one terminal class
//! (conservation), and `submit_with_retry` reproduces the blocking
//! ladder it replaced bit for bit.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Mutex;

use proptest::prelude::*;
use senn_core::service::{ReplyStatus, RequestOutcome, ServerReply, ServerRequest, SpatialService};
use senn_core::transport::{
    submit_with_retry, AdaptivePolicy, AsyncClient, RequestId, RetryBudget, RetryPolicy, Ticket,
    Transport, TransportPolicy,
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
    fn submit(&self, batch: &[ServerRequest]) -> Vec<ServerReply> {
        batch
            .iter()
            .map(|req| {
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
                    let status = if (ordinal + req.id.raw()) % 2 == 0 {
                        ReplyStatus::TimedOut
                    } else {
                        ReplyStatus::Dropped
                    };
                    ServerReply {
                        id: req.id,
                        status,
                        response: Default::default(),
                        latency_ms: 15.0,
                    }
                } else {
                    let shard = (mix64(req.id.raw()) % self.replicas.len() as u64) as usize;
                    let mut reply = self.replicas[shard]
                        .submit(std::slice::from_ref(req))
                        .pop()
                        .expect("one reply per request");
                    reply.latency_ms = 5.0;
                    reply
                }
            })
            .collect()
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
        control: AdaptivePolicy::clamped(window),
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

fn adaptive_band(start: usize, max: usize) -> AdaptivePolicy {
    AdaptivePolicy {
        window_min: 1,
        window_start: start,
        window_max: max,
        ..AdaptivePolicy::default()
    }
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

    /// The adaptive transport honors the same contract: AIMD windows and
    /// the two-class scheduler change *scheduling*, never the reply/
    /// ticket discipline or its granularity invariance.
    #[test]
    fn adaptive_transport_honors_the_contract(
        seed in any::<u64>(),
        n in 1usize..24,
        start in 1usize..4,
        max in 4usize..9,
        queue_cap in 1usize..8,
        cuts in prop::collection::vec(0.0f64..300.0, 0..4),
        flaky in any::<bool>(),
    ) {
        let policy = TransportPolicy {
            control: adaptive_band(start, max),
            ..static_policy(start, queue_cap)
        };
        check_transport_contract(
            || Transport::new(ShardedFlaky::new(1, seed, flaky), 3, seed, policy),
            &requests(n),
            &cuts,
        );
    }

    /// Dispositions *and* the whole AIMD window trajectory are
    /// bit-identical across 1/2/3 backend shards: lane assignment hashes
    /// the request id and fate draws key on `(seed, id, attempt)`, so the
    /// backend's layout cannot move a single controller step.
    #[test]
    fn aimd_trajectory_is_invariant_to_backend_shards(
        seed in any::<u64>(),
        n in 1usize..24,
        start in 1usize..4,
        max in 4usize..9,
        cuts in prop::collection::vec(0.0f64..300.0, 0..4),
        flaky in any::<bool>(),
    ) {
        let policy = TransportPolicy {
            control: adaptive_band(start, max),
            ..static_policy(start, 6)
        };
        let mut reference: Option<_> = None;
        for shards in [1usize, 2, 3] {
            let dispositions = check_transport_contract(
                || Transport::new(ShardedFlaky::new(shards, seed, flaky), 3, seed, policy),
                &requests(n),
                &cuts,
            );
            // Re-run once more to capture the controller trajectory.
            let mut t = Transport::new(ShardedFlaky::new(shards, seed, flaky), 3, seed, policy);
            for r in &requests(n) {
                t.enqueue(*r);
            }
            t.drain();
            let s = t.stats();
            let snapshot = (
                dispositions,
                t.lane_windows(),
                s.window_min,
                s.window_max,
                s.window_final,
                s.window_grows,
                s.window_shrinks,
            );
            match &reference {
                None => reference = Some(snapshot),
                Some(r) => prop_assert_eq!(&snapshot, r, "shards={}", shards),
            }
        }
    }

    /// Liveness and safety of AIMD: the window never leaves
    /// `[window_min, window_max]`, and a shed-free healthy run converges
    /// every lane to `window_max`.
    #[test]
    fn aimd_window_stays_in_band_and_converges_when_healthy(
        seed in any::<u64>(),
        window_min in 1usize..3,
        start in 1usize..6,
        max in 6usize..10,
        flaky in any::<bool>(),
        queue_cap in 1usize..6,
    ) {
        let adaptive = AdaptivePolicy {
            window_min,
            window_start: start,
            window_max: max,
            ..AdaptivePolicy::default()
        };
        // Safety under arbitrary weather (sheds, timeouts, drops).
        let policy = TransportPolicy {
            control: adaptive,
            ..static_policy(1, queue_cap)
        };
        let mut t = Transport::new(ShardedFlaky::new(1, seed, flaky), 2, seed, policy);
        for r in &requests(48) {
            t.enqueue(*r);
        }
        t.drain();
        prop_assert!(t.stats().window_min >= window_min as u64);
        prop_assert!(t.stats().window_max <= max as u64);
        for w in t.lane_windows() {
            prop_assert!((window_min..=max).contains(&w));
        }

        // Liveness: no faults, no admission pressure, an infinite
        // latency target ⇒ every completion grows, converging to max.
        let healthy = TransportPolicy {
            control: AdaptivePolicy {
                latency_target_ms: f64::INFINITY,
                ..adaptive
            },
            ..static_policy(1, 4096)
        };
        let mut t = Transport::new(ShardedFlaky::new(1, seed, false), 2, seed, healthy);
        for r in &requests(64) {
            t.enqueue(*r);
        }
        t.drain();
        prop_assert_eq!(t.lane_windows(), vec![max, max]);
        prop_assert_eq!(t.stats().window_shrinks, 0);
    }

    /// The token bucket never goes negative (tokens are unsigned and
    /// capped) and `denied` increments exactly on empty-bucket debits.
    #[test]
    fn retry_budget_never_goes_negative(
        tokens in 0u64..8,
        cap in 1u64..16,
        refill in 0u64..6,
        ops in prop::collection::vec((0u8..3, 1u32..500), 1..64),
    ) {
        let mut b = RetryBudget::from_policy(&AdaptivePolicy {
            retry_tokens: tokens,
            retry_cap: cap,
            retry_refill: refill,
            retry_interval_ms: 100.0,
            ..AdaptivePolicy::default()
        });
        let mut clock = 0.0f64;
        let mut denied = 0u64;
        for (op, arg) in ops {
            match op {
                0 => {
                    let before = b.tokens();
                    let granted = b.try_debit();
                    if granted {
                        prop_assert!(before > 0);
                        prop_assert_eq!(b.tokens(), before - 1);
                    } else {
                        prop_assert_eq!(before, 0);
                        denied += 1;
                    }
                }
                1 => b.note_shed(),
                _ => {
                    clock += arg as f64;
                    b.advance_to(clock);
                }
            }
            prop_assert!(b.tokens() <= cap, "the bucket never exceeds its cap");
            prop_assert_eq!(b.denied(), denied, "denials counted exactly once");
        }
    }

    /// Every denied retry is counted exactly once on its outcome and
    /// flows into the trace layer exactly once — never double-counted,
    /// never lost.
    #[test]
    fn denied_retries_are_counted_exactly_once_in_the_trace(
        seed in any::<u64>(),
        n in 1usize..16,
        tokens in 0u64..6,
    ) {
        struct AlwaysTimesOut;
        impl SpatialService for AlwaysTimesOut {
            fn submit(&self, batch: &[ServerRequest]) -> Vec<ServerReply> {
                batch
                    .iter()
                    .map(|r| ServerReply {
                        id: r.id,
                        status: ReplyStatus::TimedOut,
                        response: Default::default(),
                        latency_ms: 2.0,
                    })
                    .collect()
            }
            fn poi_count(&self) -> usize {
                0
            }
        }
        let policy = TransportPolicy {
            retry: RetryPolicy::default(),
            queue_cap: 4096,
            shed: true,
            control: AdaptivePolicy {
                retry_tokens: tokens,
                retry_cap: tokens.max(1),
                retry_refill: 0,
                ..AdaptivePolicy::default()
            },
        };
        let mut client = AsyncClient::new(AlwaysTimesOut, 2, seed, policy);
        for r in &requests(n) {
            client.submit(*r);
        }
        let resolved = client.drain();
        prop_assert_eq!(resolved.len(), n);
        let mut trace = QueryTrace::new();
        for (_, outcome) in &resolved {
            prop_assert!(outcome.retries_denied <= 1, "a denial is terminal");
            prop_assert!(outcome.retries_denied == 0 || outcome.failed);
            trace.record_service_outcome(outcome);
        }
        prop_assert_eq!(
            trace.server_retries_denied as u64,
            client.retries_denied(),
            "the trace sees every denial exactly once"
        );
        prop_assert!(
            trace.server_retries as u64 <= tokens,
            "with no refill, granted retries never exceed the initial tokens"
        );
    }

    /// Every submission resolves exactly once, into exactly one terminal
    /// class — answered, answered degraded, shed, denied by the budget,
    /// or out of attempts — whatever the backend's weather, the queue
    /// depth, the budget and the poll schedule. The classes sum to the
    /// submissions, and the denials to the client's own count.
    #[test]
    fn every_submission_resolves_once_into_one_class(
        seed in any::<u64>(),
        n in 1usize..32,
        flaky in any::<bool>(),
        queue_cap in 1usize..5,
        tokens in 0u64..7,
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
            control: AdaptivePolicy {
                retry_tokens: tokens,
                retry_cap: tokens.max(1),
                ..adaptive_band(1, 4)
            },
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
        // ok, degraded, shed, denied, exhausted
        let mut classes = [0u64; 5];
        for (ticket, o) in &resolved {
            prop_assert!(seen.insert(*ticket), "a submission resolves at most once");
            let class = match (o.failed, o.degraded, o.shed, o.retries_denied) {
                (false, false, 0, 0) => 0,
                (false, true, 0, 0) => 1,
                (true, false, 1, 0) => 2,
                (true, false, 0, 1) => 3,
                (true, false, 0, 0) => 4,
                other => panic!("outcome in no single class: {other:?}"),
            };
            prop_assert_eq!(o.failed, o.response.pois.is_empty());
            classes[class] += 1;
        }
        prop_assert_eq!(&seen, &submitted, "every submission resolves");
        prop_assert_eq!(classes.iter().sum::<u64>(), n as u64);
        prop_assert_eq!(classes[3], client.retries_denied());
    }

    /// `submit_with_retry` — the settled client, drained — reproduces the
    /// blocking ladder it replaced: bit-identical outcomes and traces,
    /// virtual waits included.
    #[test]
    fn unconditional_ladder_equals_budgeted_with_unlimited_bucket(
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
            prop_assert_eq!(a.retries_denied, 0u32);
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
