//! The service transport: the one client between a query's residual
//! request and the server module, on a seeded virtual clock over which
//! requests are *enqueued* and replies *complete* out of order, matched
//! by ticket.
//!
//! The synchronous [`SpatialService::submit`] seam models latency as a
//! number on the reply. That cannot express a flash crowd, where the
//! interesting degradation is *queueing* — requests waiting behind each
//! other, in-flight windows saturating, and admission control shedding
//! load. [`Transport`] adds that layer in front of any backend:
//!
//! ```text
//! client                    transport (virtual clock)            service
//!   │ enqueue(req) ─► Ticket   [lane queues │ in-flight windows]
//!   │                          dispatch ──────────────────────►  submit
//!   │ poll(now) ◄─ completions (time-ordered, out of id order)
//! ```
//!
//! * [`Transport::enqueue`] admits a request to a **lane** (an uplink
//!   channel, chosen by hashing the request id): if the lane's in-flight
//!   window has room the request dispatches immediately, otherwise it
//!   queues. A full queue **sheds** the request — the reply completes
//!   instantly with [`ReplyStatus::Shed`] and the backend never sees it.
//! * Dispatch calls the wrapped [`SpatialService`] (any backend: the
//!   single tree, the sharded fan-out, the keyed fault wrapper) and draws
//!   a seeded service time; the completion event fires at
//!   `dispatch + service_time + reply latency` on the virtual clock. A
//!   backend that returns no reply counts as [`ReplyStatus::Dropped`].
//! * [`Transport::poll`] advances the clock to `now`, running every
//!   completion event in `(time, ticket)` order; each completion frees a
//!   window slot and dispatches the next queued request *at that event's
//!   time* — a textbook discrete-event loop, never a thread.
//! * Each lane's window is one fixed number, [`TransportPolicy::window`].
//!
//! ## Determinism contract
//!
//! Event order is a pure function of `(seed, request ids, enqueue
//! order)` — never of wall clock or thread interleaving. Service times
//! are keyed like `FaultyService`'s fault draws: `(seed, request id,
//! per-id attempt ordinal)` through a SplitMix64 finalizer, so a request
//! keeps its exact schedule no matter how submissions are coalesced,
//! how many worker threads planned them, or how many shards the backend
//! fans out to. Completions are delivered sorted by `(completion time,
//! ticket)`, and [`AsyncClient::poll`] re-sorts its resolved outcomes by
//! ticket, so folding results in ticket order is invariant to any
//! permutation of completion order (property-tested in
//! `tests/transport_order.rs`).
//!
//! ## The retry ladder
//!
//! [`AsyncClient`] runs the client-side ladder of a [`RetryPolicy`] over
//! the event loop: re-submission with exponential virtual backoff, then
//! one degraded unpruned attempt. A [`ReplyStatus::Shed`] reply is
//! terminal: the system refused the work, and retrying immediately would
//! spin the overload loop tighter. [`AsyncClient::settled`] is the ladder
//! with nothing in its way — one lane, a window no batch fills, no
//! shedding and zero service time — and [`submit_with_retry`] is that
//! client drained over one batch.

use std::collections::{HashMap, VecDeque};

use crate::service::{ReplyStatus, RequestOutcome, ServerReply, ServerRequest, SpatialService};

/// The shared request-correlation id: chosen by the client, echoed by
/// every reply, and the key of every *keyed* schedule in the system (the
/// fault wrapper's fate draws, the transport's service-time draws).
/// A newtype instead of a raw `u64` so indices, tickets and ids cannot be
/// confused at call sites.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(u64);

impl RequestId {
    /// Wraps a raw id.
    pub const fn new(raw: u64) -> Self {
        RequestId(raw)
    }

    /// A request id from a batch/plan index.
    pub const fn from_index(index: usize) -> Self {
        RequestId(index as u64)
    }

    /// The raw id — the word every keyed schedule mixes.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl From<u64> for RequestId {
    fn from(raw: u64) -> Self {
        RequestId(raw)
    }
}

impl From<RequestId> for u64 {
    fn from(id: RequestId) -> Self {
        id.0
    }
}

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Handle of one enqueued request: a dense per-transport sequence number.
/// Request *ids* may legitimately repeat (retries re-enqueue the same id);
/// tickets never do, so completions are matched on tickets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ticket(u64);

impl Ticket {
    /// The enqueue sequence number.
    pub const fn seq(self) -> u64 {
        self.0
    }
}

/// Client-side retry/backoff policy (the ladder [`AsyncClient`] runs).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts with the pruned request, including the first (≥ 1).
    pub max_attempts: u32,
    /// Virtual backoff before the first retry, milliseconds.
    pub backoff_base_ms: f64,
    /// Multiplier applied to the backoff after every retry round.
    pub backoff_factor: f64,
    /// After `max_attempts` pruned failures, degrade to the unpruned
    /// query ([`ServerRequest::unpruned`]) as a final attempt.
    pub degrade_unpruned: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff_base_ms: 50.0,
            backoff_factor: 2.0,
            degrade_unpruned: true,
        }
    }
}

impl RetryPolicy {
    /// No retries, no degradation: one attempt, take it or leave it.
    pub const NONE: RetryPolicy = RetryPolicy {
        max_attempts: 1,
        backoff_base_ms: 0.0,
        backoff_factor: 1.0,
        degrade_unpruned: false,
    };
}

/// The settled policy's window and queue bound, more than any batch
/// issues.
const SETTLED_WINDOW: usize = u32::MAX as usize;

/// The policy object of the async client: the retry ladder, the
/// admission queue and the in-flight window.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TransportPolicy {
    /// Retry/backoff/degradation ladder for failed attempts.
    pub retry: RetryPolicy,
    /// Admission-queue capacity per lane: requests waiting for a window
    /// slot beyond this are shed (when `shed`) — bounded queues are what
    /// keep an overload from growing latency without limit (≥ 1).
    pub queue_cap: usize,
    /// Load-shedding under overload: `true` refuses work at the admission
    /// edge with [`ReplyStatus::Shed`]; `false` treats `queue_cap` as
    /// advisory and queues without bound.
    pub shed: bool,
    /// Per-lane in-flight window: requests dispatched to the service and
    /// not yet completed (≥ 1).
    pub window: usize,
}

impl Default for TransportPolicy {
    /// A window of 32 per lane, 256 queued, shedding on and the default
    /// ladder.
    fn default() -> Self {
        TransportPolicy {
            retry: RetryPolicy::default(),
            queue_cap: 256,
            shed: true,
            window: 32,
        }
    }
}

impl TransportPolicy {
    /// The settled policy: `retry` with a window and queue no batch
    /// fills and no shedding — the ladder and nothing else.
    pub fn settled(retry: RetryPolicy) -> Self {
        TransportPolicy {
            retry,
            queue_cap: SETTLED_WINDOW,
            shed: false,
            window: SETTLED_WINDOW,
        }
    }
}

/// Deterministic SplitMix64 stream (no external RNG dependency).
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// SplitMix64 finalizer: a bijective avalanche mix of one word — the same
/// mix `FaultyService` keys its fate draws with.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Number of log2 latency buckets (covers 1 ms .. ~2^63 ms).
const LATENCY_BUCKETS: usize = 64;

/// Observability counters of one [`Transport`], accumulated over its
/// lifetime. All quantities are *virtual* (event-loop state and clock
/// deltas), so they are as deterministic as the event order itself.
#[derive(Clone, Debug, PartialEq)]
pub struct TransportStats {
    /// Requests admitted (dispatched or queued).
    pub enqueued: u64,
    /// Requests handed to the wrapped service.
    pub dispatched: u64,
    /// Completion events delivered (shed replies excluded).
    pub completed: u64,
    /// Requests refused at the admission edge ([`ReplyStatus::Shed`]).
    pub shed: u64,
    /// Peak total queued requests (across lanes) observed at any event.
    pub queue_depth_peak: u64,
    /// Peak total in-flight requests (across lanes) observed at any event.
    pub in_flight_peak: u64,
    /// Sum of end-to-end virtual latencies (enqueue → completion), ms.
    pub latency_sum_ms: f64,
    /// Log2 buckets of end-to-end virtual latency: bucket `i` counts
    /// completions with latency in `[2^i, 2^(i+1))` ms (bucket 0 also
    /// holds everything below 1 ms).
    hist: [u64; LATENCY_BUCKETS],
}

impl Default for TransportStats {
    fn default() -> Self {
        TransportStats {
            enqueued: 0,
            dispatched: 0,
            completed: 0,
            shed: 0,
            queue_depth_peak: 0,
            in_flight_peak: 0,
            latency_sum_ms: 0.0,
            hist: [0; LATENCY_BUCKETS],
        }
    }
}

impl TransportStats {
    fn record_latency(&mut self, ms: f64) {
        self.latency_sum_ms += ms;
        let bucket = if ms < 1.0 {
            0
        } else {
            (63 - (ms as u64).leading_zeros() as usize).min(LATENCY_BUCKETS - 1)
        };
        self.hist[bucket] += 1;
    }

    /// The fraction of admitted requests that were shed.
    pub fn shed_fraction(&self) -> f64 {
        let offered = self.enqueued + self.shed;
        if offered == 0 {
            0.0
        } else {
            self.shed as f64 / offered as f64
        }
    }

    /// Mean end-to-end virtual latency, milliseconds.
    pub fn mean_latency_ms(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.latency_sum_ms / self.completed as f64
        }
    }

    /// Approximate latency quantile from the log2 histogram: the upper
    /// edge of the bucket containing quantile `q` (e.g. `0.5`, `0.99`).
    pub fn latency_quantile_ms(&self, q: f64) -> f64 {
        let total: u64 = self.hist.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &count) in self.hist.iter().enumerate() {
            seen += count;
            if seen >= target.max(1) {
                return (1u64 << (i + 1).min(63)) as f64;
            }
        }
        f64::INFINITY
    }

    /// Median end-to-end virtual latency, milliseconds (bucket edge).
    pub fn p50_latency_ms(&self) -> f64 {
        self.latency_quantile_ms(0.50)
    }

    /// 99th-percentile end-to-end virtual latency, milliseconds.
    pub fn p99_latency_ms(&self) -> f64 {
        self.latency_quantile_ms(0.99)
    }
}

/// One admitted-but-undispatched request.
struct Queued {
    ticket: Ticket,
    request: ServerRequest,
    enqueued_ms: f64,
}

/// One dispatched request awaiting its completion event.
struct InFlight {
    completion_ms: f64,
    ticket: Ticket,
    reply: ServerReply,
    enqueued_ms: f64,
}

/// One uplink lane: a bounded admission queue feeding the in-flight
/// window. Lanes model independent channels (not backend shards — the
/// lane count is deliberately decoupled from `server_shards` so recorded
/// metrics stay invariant to the backend's layout).
struct Lane {
    /// Admission queue, dispatched first in, first out.
    queue: VecDeque<Queued>,
    /// Kept sorted ascending by `(completion_ms, ticket)`; the head is
    /// the lane's next event. Windows are small (tens), so ordered
    /// insertion beats a heap's constant factor and keeps iteration
    /// order obvious.
    in_flight: Vec<InFlight>,
}

/// The event loop: wraps **any** [`SpatialService`] (the single tree,
/// `ShardedService`, `FaultyService` — whose keyed fate draws stay
/// invariant to completion order) behind lanes driven by a seeded virtual
/// clock. See the module docs for the event-loop and determinism
/// semantics.
pub struct Transport<S> {
    inner: S,
    policy: TransportPolicy,
    seed: u64,
    mean_service_ms: f64,
    clock_ms: f64,
    next_ticket: u64,
    /// Per-request-id dispatch ordinals keying the service-time draws.
    attempts: HashMap<RequestId, u64>,
    lanes: Vec<Lane>,
    /// Shed replies staged for the next poll, stamped with their
    /// admission time.
    ready: Vec<(f64, Ticket, ServerReply)>,
    stats: TransportStats,
}

impl<S: SpatialService> Transport<S> {
    /// Default seeded mean of the exponential service-time distribution,
    /// milliseconds — the per-dispatch cost the virtual clock charges on
    /// top of whatever latency the wrapped service reports.
    pub const DEFAULT_MEAN_SERVICE_MS: f64 = 4.0;

    /// Wraps `inner` behind `lanes` uplink lanes under `policy`, with
    /// service times seeded by `seed`.
    pub fn new(inner: S, lanes: usize, seed: u64, policy: TransportPolicy) -> Self {
        assert!(lanes >= 1, "the transport needs at least one lane");
        assert!(policy.queue_cap >= 1, "queue capacity must be at least 1");
        assert!(policy.window >= 1, "the window must be at least 1");
        Transport {
            inner,
            policy,
            seed,
            mean_service_ms: Self::DEFAULT_MEAN_SERVICE_MS,
            clock_ms: 0.0,
            next_ticket: 0,
            attempts: HashMap::new(),
            lanes: (0..lanes)
                .map(|_| Lane {
                    queue: VecDeque::new(),
                    in_flight: Vec::new(),
                })
                .collect(),
            ready: Vec::new(),
            stats: TransportStats::default(),
        }
    }

    /// Overrides the mean seeded service time (milliseconds; `0` charges
    /// only the wrapped service's reported latency).
    pub fn with_mean_service_ms(mut self, ms: f64) -> Self {
        assert!(ms >= 0.0, "mean service time cannot be negative");
        self.mean_service_ms = ms;
        self
    }

    /// The wrapped service.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Mutable access to the wrapped service (e.g. POI relocation on a
    /// mutable backend; the event state is unaffected).
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// Lifetime observability counters.
    pub fn stats(&self) -> &TransportStats {
        &self.stats
    }

    /// The current virtual time, milliseconds.
    pub fn clock_ms(&self) -> f64 {
        self.clock_ms
    }

    /// Runs the clock past every outstanding event and returns the
    /// remaining completions.
    pub fn drain(&mut self) -> Vec<(Ticket, ServerReply)> {
        self.poll(f64::INFINITY)
    }

    fn lane_of(&self, id: RequestId) -> usize {
        (mix64(id.raw()) % self.lanes.len() as u64) as usize
    }

    fn note_depths(&mut self) {
        let queued: usize = self.lanes.iter().map(|l| l.queue.len()).sum();
        let in_flight: usize = self.lanes.iter().map(|l| l.in_flight.len()).sum();
        self.stats.queue_depth_peak = self.stats.queue_depth_peak.max(queued as u64);
        self.stats.in_flight_peak = self.stats.in_flight_peak.max(in_flight as u64);
    }

    /// Dispatches from `lane`'s queue into its window at virtual time
    /// `at_ms` — on admission, or at the completion event that freed a
    /// slot.
    fn pump_lane(&mut self, lane: usize, at_ms: f64) {
        while self.lanes[lane].in_flight.len() < self.policy.window {
            let Some(next) = self.lanes[lane].queue.pop_front() else {
                break;
            };
            // Seeded service time, keyed by (seed, id, per-id dispatch
            // ordinal) — the same discipline as FaultyService's fate
            // draws, so the schedule is invariant to batch layout.
            let ordinal = self.attempts.entry(next.request.id).or_insert(0);
            let key = mix64(
                self.seed
                    .wrapping_add(mix64(next.request.id.raw()).wrapping_add(mix64(*ordinal))),
            );
            *ordinal += 1;
            let service_ms = if self.mean_service_ms > 0.0 {
                -self.mean_service_ms * (1.0 - SplitMix64(key).next_f64()).ln()
            } else {
                0.0
            };
            // The wrapped service runs at dispatch: its reply (and any
            // injected fault latency) is known now; only the *delivery*
            // waits for the completion event. A backend that omits the
            // reply lost the request: a drop, which the ladder retries.
            let reply = self
                .inner
                .submit(std::slice::from_ref(&next.request))
                .pop()
                .unwrap_or_else(|| failed_reply(next.request.id, ReplyStatus::Dropped));
            debug_assert_eq!(reply.id, next.request.id);
            self.stats.dispatched += 1;
            let completion_ms = at_ms + service_ms + reply.latency_ms;
            let entry = InFlight {
                completion_ms,
                ticket: next.ticket,
                reply,
                enqueued_ms: next.enqueued_ms,
            };
            // Tickets are unique, so the search never finds an equal key.
            let flight = &mut self.lanes[lane].in_flight;
            let (Ok(pos) | Err(pos)) = flight.binary_search_by(|f| {
                f.completion_ms
                    .total_cmp(&entry.completion_ms)
                    .then(f.ticket.cmp(&entry.ticket))
            });
            flight.insert(pos, entry);
        }
        self.note_depths();
    }

    /// The lane holding the globally earliest completion event, if any.
    fn next_event(&self) -> Option<(usize, f64, Ticket)> {
        self.lanes
            .iter()
            .enumerate()
            .filter_map(|(i, l)| l.in_flight.first().map(|f| (i, f.completion_ms, f.ticket)))
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.2.cmp(&b.2)))
    }

    /// Admits one request at the current virtual time. The reply arrives
    /// from a later [`Self::poll`]; a shed request's reply (status
    /// [`ReplyStatus::Shed`]) arrives from the *next* poll.
    pub fn enqueue(&mut self, request: ServerRequest) -> Ticket {
        let ticket = Ticket(self.next_ticket);
        self.next_ticket += 1;
        let lane = self.lane_of(request.id);
        if self.policy.shed && self.lanes[lane].queue.len() >= self.policy.queue_cap {
            // Admission control: refuse at the edge instead of letting
            // the queue (and everyone's latency) grow without bound.
            self.stats.shed += 1;
            let reply = failed_reply(request.id, ReplyStatus::Shed);
            self.ready.push((self.clock_ms, ticket, reply));
            return ticket;
        }
        self.stats.enqueued += 1;
        self.lanes[lane].queue.push_back(Queued {
            ticket,
            request,
            enqueued_ms: self.clock_ms,
        });
        self.note_depths();
        self.pump_lane(lane, self.clock_ms);
        ticket
    }

    /// Advances the virtual clock to `now_ms` and returns every reply
    /// whose completion event fired at or before it, in
    /// `(completion time, ticket)` order.
    pub fn poll(&mut self, now_ms: f64) -> Vec<(Ticket, ServerReply)> {
        let mut due: Vec<(f64, Ticket, ServerReply)> = Vec::new();
        // Staged shed replies whose admission time has passed.
        let mut i = 0;
        while i < self.ready.len() {
            if self.ready[i].0 <= now_ms {
                due.push(self.ready.swap_remove(i));
            } else {
                i += 1;
            }
        }
        // The discrete-event loop: run completions in (time, ticket)
        // order up to `now_ms`; each completion frees a window slot and
        // pumps its lane at the event's own time.
        while let Some((lane, at, _)) = self.next_event() {
            if at > now_ms {
                break;
            }
            let done = self.lanes[lane].in_flight.remove(0);
            self.stats.completed += 1;
            self.stats
                .record_latency(done.completion_ms - done.enqueued_ms);
            due.push((done.completion_ms, done.ticket, done.reply));
            self.pump_lane(lane, at);
        }
        if now_ms.is_finite() {
            self.clock_ms = self.clock_ms.max(now_ms);
        } else if let Some((t, _, _)) = due.last() {
            self.clock_ms = self.clock_ms.max(*t);
        }
        due.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        due.into_iter().map(|(_, t, r)| (t, r)).collect()
    }
}

/// The reply of a request that produced no answer: refused at the
/// admission edge, or omitted by the backend.
fn failed_reply(id: RequestId, status: ReplyStatus) -> ServerReply {
    ServerReply {
        id,
        status,
        response: Default::default(),
        latency_ms: 0.0,
    }
}

/// One request mid-ladder inside the [`AsyncClient`].
struct PendingRequest {
    client_ticket: Ticket,
    request: ServerRequest,
    outcome: RequestOutcome,
    /// Pruned attempts completed so far.
    attempt: u32,
    /// True once the degraded (unpruned) attempt is in flight.
    degraded: bool,
    backoff_ms: f64,
}

/// The asynchronous client: an event-driven [`Transport`] plus the retry
/// ladder, delivering one final [`RequestOutcome`] per submission.
pub struct AsyncClient<S> {
    transport: Transport<S>,
    retry: RetryPolicy,
    /// Keyed by the *latest attempt's* transport ticket.
    pending: HashMap<Ticket, PendingRequest>,
}

impl<S: SpatialService> AsyncClient<S> {
    /// Wraps `service` behind `lanes` transport lanes under `policy`.
    pub fn new(service: S, lanes: usize, seed: u64, policy: TransportPolicy) -> Self {
        AsyncClient {
            transport: Transport::new(service, lanes, seed, policy),
            retry: policy.retry,
            pending: HashMap::new(),
        }
    }

    /// The settled client: [`TransportPolicy::settled`] on one lane with
    /// zero service time. A request completes at its submission time
    /// plus the latencies the backend reports, so neither the lane count
    /// nor the seed can move a completion.
    pub fn settled(service: S, retry: RetryPolicy) -> Self {
        AsyncClient::new(service, 1, 0, TransportPolicy::settled(retry)).with_mean_service_ms(0.0)
    }

    /// Overrides the transport's mean seeded service time (milliseconds).
    pub fn with_mean_service_ms(mut self, ms: f64) -> Self {
        self.transport = self.transport.with_mean_service_ms(ms);
        self
    }

    /// The wrapped service.
    pub fn service(&self) -> &S {
        self.transport.inner()
    }

    /// Mutable access to the wrapped service.
    pub fn service_mut(&mut self) -> &mut S {
        self.transport.inner_mut()
    }

    /// The transport's lifetime observability counters.
    pub fn stats(&self) -> &TransportStats {
        self.transport.stats()
    }

    /// The current virtual time, milliseconds.
    pub fn clock_ms(&self) -> f64 {
        self.transport.clock_ms()
    }

    /// Submits one request; its final [`RequestOutcome`] arrives from a
    /// later [`Self::poll`] (or [`Self::drain`]), matched by the returned
    /// ticket.
    pub fn submit(&mut self, request: ServerRequest) -> Ticket {
        let ticket = self.transport.enqueue(request);
        self.pending.insert(
            ticket,
            PendingRequest {
                client_ticket: ticket,
                request,
                outcome: RequestOutcome::default(),
                attempt: 0,
                degraded: false,
                backoff_ms: self.retry.backoff_base_ms,
            },
        );
        ticket
    }

    /// Advances the virtual clock to `now_ms` and returns every
    /// submission whose ladder *resolved* by then, sorted by submission
    /// ticket — so folding the results in returned order is deterministic
    /// and invariant to completion-order permutations. Failed attempts
    /// re-enqueue their retries (with virtual backoff accounted in
    /// [`RequestOutcome::waited_ms`]) and stay pending.
    pub fn poll(&mut self, now_ms: f64) -> Vec<(Ticket, RequestOutcome)> {
        let mut resolved: Vec<(Ticket, RequestOutcome)> = Vec::new();
        for (ticket, reply) in self.transport.poll(now_ms) {
            // `submit` and the ladder register every ticket right after
            // its enqueue, so a completion always finds its ladder.
            let Some(mut p) = self.pending.remove(&ticket) else {
                debug_assert!(false, "completion {ticket:?} matches no pending ladder");
                continue;
            };
            p.outcome.waited_ms += reply.latency_ms;
            match reply.status {
                ReplyStatus::Ok => {
                    p.outcome.response = reply.response;
                    p.outcome.degraded = p.degraded;
                    resolved.push((p.client_ticket, p.outcome));
                }
                ReplyStatus::Shed => {
                    // Terminal: the admission edge refused the work.
                    p.outcome.shed += 1;
                    p.outcome.failed = true;
                    resolved.push((p.client_ticket, p.outcome));
                }
                ReplyStatus::TimedOut => {
                    p.outcome.timeouts += 1;
                    self.retry_or_fail(p, &mut resolved);
                }
                ReplyStatus::Dropped => {
                    p.outcome.drops += 1;
                    self.retry_or_fail(p, &mut resolved);
                }
            }
        }
        resolved.sort_by_key(|(t, _)| *t);
        resolved
    }

    /// Runs the clock past every outstanding event (retries included)
    /// and returns the remaining resolutions, sorted by ticket.
    pub fn drain(&mut self) -> Vec<(Ticket, RequestOutcome)> {
        let mut resolved = Vec::new();
        while !self.pending.is_empty() {
            // A step that resolves no ladder can still make progress: an
            // attempt that failed re-enqueues its retry, so measure
            // progress in transport deliveries, not resolutions.
            let delivered = self.transport.stats().completed;
            let step = self.poll(f64::INFINITY);
            debug_assert!(
                !step.is_empty() || self.transport.stats().completed > delivered,
                "a drain step must make progress"
            );
            resolved.extend(step);
        }
        resolved.sort_by_key(|(t, _)| *t);
        resolved
    }

    /// One failed attempt: climb the ladder (retry → degrade → fail).
    fn retry_or_fail(
        &mut self,
        mut p: PendingRequest,
        resolved: &mut Vec<(Ticket, RequestOutcome)>,
    ) {
        p.attempt += 1;
        let wants_retry = !p.degraded && p.attempt < self.retry.max_attempts.max(1);
        let wants_degrade = !p.degraded && self.retry.degrade_unpruned;
        if wants_retry {
            p.outcome.retries += 1;
            p.outcome.waited_ms += p.backoff_ms;
            p.backoff_ms *= self.retry.backoff_factor;
            let ticket = self.transport.enqueue(p.request);
            self.pending.insert(ticket, p);
        } else if wants_degrade {
            p.degraded = true;
            p.outcome.retries += 1;
            p.outcome.waited_ms += p.backoff_ms;
            let ticket = self.transport.enqueue(p.request.unpruned());
            self.pending.insert(ticket, p);
        } else {
            p.outcome.failed = true;
            resolved.push((p.client_ticket, p.outcome));
        }
    }
}

/// Submits `requests` through `service` and waits for every ladder to
/// resolve: the [`AsyncClient::settled`] client, drained. Returns one
/// outcome per request, in request order; all waiting is virtual
/// (accounted in [`RequestOutcome::waited_ms`], never slept).
pub fn submit_with_retry(
    service: &dyn SpatialService,
    requests: &[ServerRequest],
    policy: &RetryPolicy,
) -> Vec<RequestOutcome> {
    let mut client = AsyncClient::settled(service, *policy);
    for request in requests {
        client.submit(*request);
    }
    client
        .drain()
        .into_iter()
        .map(|(_, outcome)| outcome)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::RTreeServer;
    use senn_geom::Point;

    fn server() -> RTreeServer {
        RTreeServer::new((0..64).map(|i| (i as u64, Point::new(i as f64, 0.0))))
    }

    fn requests(n: u64) -> Vec<ServerRequest> {
        (0..n)
            .map(|i| ServerRequest::plain(i, Point::new(i as f64 * 0.7 + 0.01, 0.4), 3))
            .collect()
    }

    fn policy(window: usize, queue_cap: usize) -> TransportPolicy {
        TransportPolicy {
            retry: RetryPolicy::NONE,
            queue_cap,
            shed: true,
            window,
        }
    }

    #[test]
    fn completions_match_tickets_and_answers_are_correct() {
        let mut t = Transport::new(server(), 2, 7, policy(4, 64));
        let reqs = requests(10);
        let tickets: Vec<Ticket> = reqs.iter().map(|r| t.enqueue(*r)).collect();
        let done = t.drain();
        assert_eq!(done.len(), 10);
        // Every ticket resolves exactly once, and each reply echoes its
        // request's id with the right answer.
        let mut seen: Vec<Ticket> = done.iter().map(|(t, _)| *t).collect();
        seen.sort();
        let mut want = tickets.clone();
        want.sort();
        assert_eq!(seen, want);
        for (ticket, reply) in &done {
            let idx = tickets.iter().position(|t| t == ticket).unwrap();
            assert_eq!(reply.id, reqs[idx].id);
            assert_eq!(reply.status, ReplyStatus::Ok);
            assert_eq!(
                reply.response.pois[0].0.poi_id,
                reqs[idx].query.x.round() as u64
            );
        }
        assert_eq!(t.stats().completed, 10);
        assert_eq!(t.stats().shed, 0);
    }

    #[test]
    fn completion_order_is_by_virtual_time_not_enqueue_order() {
        // With seeded exponential service times, 24 requests on one lane
        // with a window of 8 complete out of enqueue order.
        let mut t = Transport::new(server(), 1, 3, policy(8, 64));
        for r in requests(24) {
            t.enqueue(r);
        }
        let done = t.drain();
        let order: Vec<u64> = done.iter().map(|(t, _)| t.seq()).collect();
        let mut sorted = order.clone();
        sorted.sort();
        assert_ne!(
            order, sorted,
            "seeded service times must reorder completions"
        );
        assert_eq!(sorted, (0..24).collect::<Vec<_>>());
    }

    #[test]
    fn event_schedule_is_a_pure_function_of_seed_and_ids() {
        let run = |seed: u64| {
            let mut t = Transport::new(server(), 2, seed, policy(4, 64));
            for r in requests(20) {
                t.enqueue(r);
            }
            t.drain()
                .iter()
                .map(|(ticket, r)| (ticket.seq(), r.id.raw(), r.latency_ms.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(11), run(11), "same seed ⇒ bit-identical schedule");
        assert_ne!(run(11), run(12), "the seed genuinely drives the schedule");
    }

    #[test]
    fn window_bounds_in_flight_and_queue_bounds_admission() {
        let mut t = Transport::new(server(), 1, 5, policy(2, 3));
        for r in requests(12) {
            t.enqueue(r);
        }
        // 2 dispatched immediately, 3 queued, 7 shed.
        assert_eq!(t.stats().in_flight_peak, 2);
        assert_eq!(t.stats().queue_depth_peak, 3);
        assert_eq!(t.stats().shed, 7);
        let done = t.drain();
        assert_eq!(done.len(), 12, "shed replies still resolve their tickets");
        let shed = done
            .iter()
            .filter(|(_, r)| r.status == ReplyStatus::Shed)
            .count();
        assert_eq!(shed, 7);
        assert!((t.stats().shed_fraction() - 7.0 / 12.0).abs() < 1e-12);
        // In-flight never exceeded the window while draining.
        assert_eq!(t.stats().in_flight_peak, 2);
    }

    #[test]
    fn unbounded_mode_never_sheds() {
        let mut t = Transport::new(
            server(),
            1,
            5,
            TransportPolicy {
                shed: false,
                ..policy(1, 1)
            },
        );
        for r in requests(50) {
            t.enqueue(r);
        }
        assert_eq!(t.stats().shed, 0);
        assert_eq!(t.drain().len(), 50);
    }

    #[test]
    fn poll_respects_the_clock() {
        let mut t = Transport::new(server(), 1, 9, policy(4, 64)).with_mean_service_ms(10.0);
        for r in requests(8) {
            t.enqueue(r);
        }
        let early = t.poll(0.001);
        let late = t.drain();
        assert!(early.len() < 8, "nothing meaningful completes in 1 µs");
        assert_eq!(early.len() + late.len(), 8);
        assert!(t.clock_ms() > 0.0);
    }

    #[test]
    fn client_ladder_matches_blocking_dispositions_under_keyed_faults() {
        let fixture = |seed| {
            // A deterministic flaky wrapper with keyed fates, mirroring
            // senn-server's FaultyService keying (which lives downstream
            // of this crate): fail each id's first `id % 3` attempts.
            struct Keyed {
                inner: RTreeServer,
                attempts: std::cell::RefCell<HashMap<RequestId, u64>>,
            }
            impl SpatialService for Keyed {
                fn submit(&self, batch: &[ServerRequest]) -> Vec<ServerReply> {
                    batch
                        .iter()
                        .map(|r| {
                            let mut map = self.attempts.borrow_mut();
                            let ordinal = map.entry(r.id).or_insert(0);
                            *ordinal += 1;
                            if *ordinal <= r.id.raw() % 3 {
                                ServerReply {
                                    id: r.id,
                                    status: if r.id.raw() % 2 == 0 {
                                        ReplyStatus::Dropped
                                    } else {
                                        ReplyStatus::TimedOut
                                    },
                                    response: Default::default(),
                                    latency_ms: 5.0,
                                }
                            } else {
                                let mut reply =
                                    self.inner.submit(std::slice::from_ref(r)).pop().unwrap();
                                reply.latency_ms = 1.0;
                                reply
                            }
                        })
                        .collect()
                }
                fn poi_count(&self) -> usize {
                    self.inner.poi_count()
                }
            }
            let _ = seed;
            Keyed {
                inner: server(),
                attempts: std::cell::RefCell::new(HashMap::new()),
            }
        };
        let reqs = requests(30);
        let blocking = submit_with_retry(&fixture(0), &reqs, &RetryPolicy::default());
        let mut client = AsyncClient::new(
            fixture(0),
            3,
            42,
            TransportPolicy {
                retry: RetryPolicy::default(),
                queue_cap: 1024,
                shed: true,
                window: 4,
            },
        );
        let tickets: Vec<Ticket> = reqs.iter().map(|r| client.submit(*r)).collect();
        let resolved = client.drain();
        assert_eq!(resolved.len(), reqs.len());
        for ((ticket, got), want) in resolved.iter().zip(&blocking) {
            let idx = tickets.iter().position(|t| t == ticket).unwrap();
            assert_eq!(got.retries, blocking[idx].retries, "request {idx}");
            assert_eq!(got.timeouts, blocking[idx].timeouts);
            assert_eq!(got.drops, blocking[idx].drops);
            assert_eq!(got.degraded, blocking[idx].degraded);
            assert_eq!(got.failed, blocking[idx].failed);
            let got_ids: Vec<u64> = got.response.pois.iter().map(|(p, _)| p.poi_id).collect();
            let want_ids: Vec<u64> = blocking[idx]
                .response
                .pois
                .iter()
                .map(|(p, _)| p.poi_id)
                .collect();
            assert_eq!(got_ids, want_ids, "request {idx}");
            let _ = want;
        }
    }

    #[test]
    fn shed_is_terminal_for_the_ladder() {
        // Window 1, queue 1: a burst of 6 sheds most of itself, and shed
        // submissions resolve failed without retries.
        let mut client = AsyncClient::new(
            server(),
            1,
            3,
            TransportPolicy {
                retry: RetryPolicy::default(),
                queue_cap: 1,
                shed: true,
                window: 1,
            },
        );
        for r in requests(6) {
            client.submit(r);
        }
        let resolved = client.drain();
        assert_eq!(resolved.len(), 6);
        let shed: Vec<_> = resolved.iter().filter(|(_, o)| o.shed > 0).collect();
        assert_eq!(shed.len(), 4, "2 admitted (1 in flight + 1 queued), 4 shed");
        for (_, o) in &shed {
            assert!(o.failed);
            assert_eq!(o.retries, 0, "shed is terminal, not retried");
            assert!(o.response.pois.is_empty());
        }
        assert_eq!(client.stats().shed, 4);
    }

    #[test]
    fn latency_stats_accumulate() {
        let mut t = Transport::new(server(), 1, 5, policy(1, 64)).with_mean_service_ms(10.0);
        for r in requests(16) {
            t.enqueue(r);
        }
        t.drain();
        let s = t.stats();
        assert_eq!(s.completed, 16);
        assert!(s.latency_sum_ms > 0.0);
        assert!(s.mean_latency_ms() > 0.0);
        // Window 1 serializes the lane: later requests queue, so the p99
        // (bucket edge) dominates the p50.
        assert!(s.p99_latency_ms() >= s.p50_latency_ms());
        assert!(s.p50_latency_ms() > 0.0);
    }

    #[test]
    fn request_id_newtype_round_trips() {
        let id = RequestId::from_index(7);
        assert_eq!(id.raw(), 7);
        assert_eq!(u64::from(id), 7);
        assert_eq!(RequestId::from(7u64), id);
        assert_eq!(id.to_string(), "7");
    }

    /// A backend that never replies: every batch comes back empty.
    struct Mute;

    impl SpatialService for Mute {
        fn submit(&self, _batch: &[ServerRequest]) -> Vec<ServerReply> {
            Vec::new()
        }

        fn poi_count(&self) -> usize {
            0
        }
    }

    #[test]
    fn a_backend_that_omits_a_reply_is_a_counted_drop() {
        // Every attempt is lost, so every ladder climbs to the end: the
        // pruned attempts, the degraded one, then failure.
        let retry = RetryPolicy::default();
        let mut client = AsyncClient::new(Mute, 2, 5, TransportPolicy::default());
        for r in requests(3) {
            client.submit(r);
        }
        let via_client: Vec<RequestOutcome> = client.drain().into_iter().map(|(_, o)| o).collect();
        let via_wrapper = submit_with_retry(&Mute, &requests(3), &retry);
        for out in via_client.iter().chain(&via_wrapper) {
            assert!(out.failed);
            assert!(!out.degraded);
            assert!(out.response.pois.is_empty());
            assert_eq!(out.drops, retry.max_attempts + 1);
            assert_eq!(out.retries, retry.max_attempts);
        }
        assert_eq!(via_client.len() + via_wrapper.len(), 6);
    }

    /// A fixed window of 3 on 2 lanes, queues of 4, 40 requests at once:
    /// the whole trajectory and every counter, at the values they have
    /// had since the window was first a fixed number. The first 26
    /// deliveries are the sheds of time 0, in ticket order; the 14
    /// admitted requests complete by their seeded service times.
    #[test]
    fn clamped_window_trajectory_is_pinned() {
        let mut t = Transport::new(server(), 2, 17, policy(3, 4));
        for r in requests(40) {
            t.enqueue(r);
        }
        let done: Vec<(u64, u64, u64)> = t
            .drain()
            .iter()
            .map(|(ticket, r)| (ticket.seq(), r.id.raw(), r.latency_ms.to_bits()))
            .collect();
        let order = [8, 12]
            .into_iter()
            .chain(16..40)
            .chain([9, 3, 0, 1, 10, 4, 13, 5, 7, 2, 14, 11, 6, 15]);
        // The backend reports no latency of its own: every reply's is 0.
        let want: Vec<(u64, u64, u64)> = order.map(|seq| (seq, seq, 0)).collect();
        assert_eq!(done, want);
        let mut hist = [0; LATENCY_BUCKETS];
        hist[..4].copy_from_slice(&[5, 1, 6, 2]);
        let want = TransportStats {
            enqueued: 14,
            dispatched: 14,
            completed: 14,
            shed: 26,
            queue_depth_peak: 8,
            in_flight_peak: 6,
            latency_sum_ms: f64::from_bits(0x404e_1670_b0b7_97d6),
            hist,
        };
        assert_eq!(t.stats(), &want);
    }
}
