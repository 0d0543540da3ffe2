//! Transport determinism suite: the event-driven service transport's
//! observable outcomes are a pure function of `(seed, request ids)` —
//! never of how the caller slices time into polls.
//!
//! Two properties, proptest-driven over request counts, window/queue
//! shapes, seeds, fault patterns and arbitrary poll schedules:
//!
//! * **Poll granularity is immaterial.** Polling at any increasing
//!   sequence of virtual times and then draining yields exactly the same
//!   per-ticket dispositions — retry counts, shed/degraded/failed flags,
//!   bit-identical answer distances — as one big drain. Folding the
//!   outcomes in ticket order therefore produces bit-identical aggregate
//!   metrics regardless of completion-delivery order.
//! * **Replay is exact.** Re-running the same seed and request stream
//!   reproduces the same delivery sequence event for event (order
//!   included, not just the multiset).

use std::collections::BTreeMap;
use std::sync::Mutex;

use proptest::prelude::*;
use senn_core::service::{ReplyStatus, RequestOutcome, ServerReply, ServerRequest, SpatialService};
use senn_core::transport::{AsyncClient, RequestId, RetryPolicy, Ticket, TransportPolicy};
use senn_core::{RTreeServer, SearchBounds};
use senn_geom::Point;

/// SplitMix64 — the same keyed-draw discipline the fault/transport layers
/// use, so fates depend only on the request id.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// A keyed flaky backend: request `id` fails its first
/// `mix64(seed ^ id) % 3` attempts (alternating timeout/drop), then
/// answers from the real tree. Fates are a pure function of
/// `(seed, id, attempt ordinal)` — the same contract `FaultyService`
/// keeps — so any submission schedule sees the same per-id stream.
struct KeyedFlaky {
    inner: RTreeServer,
    seed: u64,
    attempts: Mutex<BTreeMap<RequestId, u64>>,
}

impl KeyedFlaky {
    fn new(seed: u64) -> Self {
        KeyedFlaky {
            inner: RTreeServer::new((0..32).map(|i| (i as u64, Point::new(i as f64, 0.0)))),
            seed,
            attempts: Mutex::new(BTreeMap::new()),
        }
    }
}

impl SpatialService for KeyedFlaky {
    fn serve(&self, req: &ServerRequest) -> Option<ServerReply> {
        let ordinal = {
            let mut attempts = self.attempts.lock().unwrap();
            let e = attempts.entry(req.id).or_insert(0);
            let o = *e;
            *e += 1;
            o
        };
        let failures = mix64(self.seed ^ req.id.raw()) % 3;
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
        let mut reply = self.inner.serve(req)?;
        reply.latency_ms = 5.0;
        Some(reply)
    }

    fn poi_count(&self) -> usize {
        self.inner.poi_count()
    }
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

fn client(seed: u64, window: usize, queue_cap: usize, flaky: bool) -> AsyncClient<KeyedFlaky> {
    let mut service = KeyedFlaky::new(seed);
    if !flaky {
        // Fault-free variant: pre-charge every id's attempt counter past
        // the maximum failure budget (< 3), so the first real attempt
        // already lands in the always-succeed regime.
        service.attempts = Mutex::new((0..1024u64).map(|i| (RequestId::new(i), 3)).collect());
    }
    AsyncClient::new(
        service,
        3,
        seed,
        TransportPolicy {
            retry: RetryPolicy::default(),
            queue_cap,
            shed: true,
            window,
        },
    )
}

/// Everything observable about one resolved request, with answer
/// distances captured bit-exactly.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Disposition {
    retries: u32,
    timeouts: u32,
    drops: u32,
    shed: u32,
    degraded: bool,
    failed: bool,
    poi_ids: Vec<u64>,
    dist_bits: Vec<u64>,
}

impl Disposition {
    fn of(out: &RequestOutcome) -> Self {
        Disposition {
            retries: out.retries,
            timeouts: out.timeouts,
            drops: out.drops,
            shed: out.shed,
            degraded: out.degraded,
            failed: out.failed,
            poi_ids: out.response.pois.iter().map(|(p, _)| p.poi_id).collect(),
            dist_bits: out.response.pois.iter().map(|(_, d)| d.to_bits()).collect(),
        }
    }
}

fn by_ticket(outs: Vec<(Ticket, RequestOutcome)>) -> BTreeMap<Ticket, Disposition> {
    outs.into_iter()
        .map(|(t, o)| (t, Disposition::of(&o)))
        .collect()
}

/// A flash crowd — 40 intervals of 100 virtual ms, 16 arrivals each, plus
/// a 400-request spike in interval 4 — over the keyed flaky service, in
/// two submission layouts: *blocking* drains each interval's batch,
/// retries included, before admitting the next; *overlapped* enqueues at
/// arrival, polls at interval boundaries and drains once at the end. The
/// interval is shorter than a retry ladder, so blocking idles the uplink
/// at every batch tail. Every request id must meet the same fate in both,
/// and overlapping must finish the schedule at least 1.5× sooner on the
/// virtual clock.
#[test]
fn overlapped_flash_crowd_keeps_blocking_fates_and_finishes_sooner() {
    const INTERVALS: usize = 40;
    const INTERVAL_MS: f64 = 100.0;
    const BASE: usize = 16;
    const SPIKE_AT: usize = 4;
    const SPIKE: usize = 400;
    let reqs = requests(INTERVALS * BASE + SPIKE);
    let mut rest = &reqs[..];
    let schedule: Vec<&[ServerRequest]> = (0..INTERVALS)
        .map(|i| {
            let n = BASE + if i == SPIKE_AT { SPIKE } else { 0 };
            let (batch, tail) = rest.split_at(n);
            rest = tail;
            batch
        })
        .collect();

    // Retries take tickets too, so first-attempt tickets differ between
    // the layouts: key fates by request id.
    let run = |blocking: bool| {
        let mut c = client(20_060_402, 4, usize::MAX, true).with_mean_service_ms(40.0);
        let mut ids: BTreeMap<Ticket, RequestId> = BTreeMap::new();
        let mut done = Vec::new();
        for (i, batch) in schedule.iter().enumerate() {
            done.extend(c.poll(i as f64 * INTERVAL_MS));
            for r in *batch {
                ids.insert(c.submit(*r), r.id);
            }
            if blocking {
                done.extend(c.drain());
            }
        }
        done.extend(c.drain());
        assert_eq!(c.stats().shed, 0, "unbounded queues must not shed");
        let fates: BTreeMap<RequestId, Disposition> = done
            .iter()
            .map(|(t, o)| (ids[t], Disposition::of(o)))
            .collect();
        (c.clock_ms(), fates)
    };
    let (blocking_ms, blocking_fates) = run(true);
    let (overlapped_ms, overlapped_fates) = run(false);
    assert_eq!(blocking_fates.len(), reqs.len());
    assert_eq!(
        blocking_fates, overlapped_fates,
        "submission layout changed a keyed fate"
    );
    assert!(
        blocking_ms >= 1.5 * overlapped_ms,
        "overlap must finish >= 1.5x sooner: {blocking_ms:.0} ms blocking vs {overlapped_ms:.0} ms"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any increasing poll schedule, then a drain, resolves exactly the
    /// same tickets to exactly the same dispositions as one big drain —
    /// fault-free and under keyed flaky service alike.
    #[test]
    fn poll_granularity_never_changes_outcomes(
        seed in any::<u64>(),
        n in 1usize..32,
        window in 1usize..5,
        queue_cap in 1usize..8,
        cuts in prop::collection::vec(0.0f64..400.0, 0..7),
        flaky in any::<bool>(),
    ) {
        let reqs = requests(n);

        let mut reference = client(seed, window, queue_cap, flaky);
        for r in &reqs {
            reference.submit(*r);
        }
        let expect = by_ticket(reference.drain());

        let mut sliced = client(seed, window, queue_cap, flaky);
        for r in &reqs {
            sliced.submit(*r);
        }
        let mut cuts = cuts;
        cuts.sort_by(f64::total_cmp);
        let mut got = Vec::new();
        for t in cuts {
            got.extend(sliced.poll(t));
        }
        got.extend(sliced.drain());
        prop_assert_eq!(by_ticket(got), expect);
    }

    /// Same seed, same ids ⇒ the same delivery sequence, event for event
    /// (order included). The schedule is a pure function of the inputs.
    #[test]
    fn replay_reproduces_the_exact_delivery_order(
        seed in any::<u64>(),
        n in 1usize..32,
        window in 1usize..5,
        flaky in any::<bool>(),
    ) {
        let run = || {
            let mut c = client(seed, window, 6, flaky);
            for r in &requests(n) {
                c.submit(*r);
            }
            c.drain()
                .into_iter()
                .map(|(t, o)| (t, Disposition::of(&o)))
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(run(), run());
    }
}
