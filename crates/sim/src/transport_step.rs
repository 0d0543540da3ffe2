//! The overlapped-transport step of the interval loop: residual requests
//! are *enqueued* into the event-driven `senn_core::transport` layer at
//! the interval that issued them, and their completions are *polled* (out
//! of order, matched by ticket) at later interval boundaries — so the
//! service round-trip overlaps subsequent intervals instead of blocking
//! the batch the way `submit_budgeted` does.
//!
//! Determinism contract: request ids are a global sequence assigned in
//! plan order (unique across the whole run), the transport's lane count is
//! a fixed constant (never the shard count), and every stochastic draw on
//! the path — the keyed `FaultyService` fates and the transport's
//! service-time draws — is a pure function of `(seed, request id, attempt
//! ordinal)`. The completion cohort of an interval is re-sorted by that
//! sequence before the merge fold. Recorded
//! [`Metrics`](crate::metrics::Metrics) are therefore bit-identical
//! across worker-thread counts and shard layouts (proven in
//! `tests/transport_mode.rs`).
//!
//! Deferred-completion semantics: a residual answered in a later interval
//! is measured *at that interval* — its cache entry carries the
//! completion-time stamp and churn grading runs against the then-current
//! ground truth (the answer arrives when it arrives). Queries still in
//! flight at the simulation horizon are force-drained by
//! [`Simulator::drain_transport`] so every issued query is attributed
//! exactly once.

use std::collections::HashMap;

use senn_core::service::RequestOutcome;
use senn_core::transport::{AsyncClient, Ticket, TransportPolicy};
use senn_core::SennEngine;
use senn_server::FaultyService;

use crate::query_step::{settle_residual, PendingQuery, QueryPlan};
use crate::simulator::{ServiceBackend, ServiceHandle, Simulator};

/// Uplink lanes of the sim's transport. A fixed constant, deliberately
/// decoupled from `server_shards`: lane assignment hashes the request id,
/// so changing the shard layout must not re-shuffle the event schedule.
const TRANSPORT_LANES: usize = 4;

/// Salt separating the transport's service-time stream from every other
/// consumer of the master seed.
const TRANSPORT_SEED_SALT: u64 = 0x5ea1_edca_b1e5_70ff;

/// One residual query awaiting its transport completion: the issuing
/// plan, the peers-only pending state, and its global sequence number
/// (also its request id) that fixes the merge-fold position.
pub(crate) struct DeferredQuery {
    seq: u64,
    plan: QueryPlan,
    pending: PendingQuery,
}

/// The overlapped-mode state behind [`ServiceHandle::Overlapped`]: the
/// async client wrapping the fault-wrapped backend, the in-flight ledger,
/// and the global request-id sequence.
pub(crate) struct OverlapState {
    /// Retry-ladder client over the virtual-clock transport.
    pub(crate) client: AsyncClient<FaultyService<ServiceBackend>>,
    /// Residuals awaiting completion, keyed by their first-attempt ticket
    /// (the ticket [`AsyncClient::poll`] resolves them under). Only ever
    /// accessed by ticket lookup — iteration order never matters.
    deferred: HashMap<Ticket, DeferredQuery>,
    /// Next global residual sequence number / request id.
    next_seq: u64,
}

impl OverlapState {
    pub(crate) fn new(
        service: FaultyService<ServiceBackend>,
        seed: u64,
        policy: TransportPolicy,
    ) -> Self {
        OverlapState {
            client: AsyncClient::new(service, TRANSPORT_LANES, seed ^ TRANSPORT_SEED_SALT, policy),
            deferred: HashMap::new(),
            next_seq: 0,
        }
    }

    /// Settles a poll's completions against their deferred queries
    /// ([`settle_residual`], exactly as on the blocking path) and appends
    /// them to the interval's cohort.
    fn harvest(
        &mut self,
        engine: &SennEngine,
        completions: Vec<(Ticket, RequestOutcome)>,
        cohort: &mut Vec<(u64, QueryPlan, PendingQuery)>,
    ) {
        for (ticket, outcome) in completions {
            let mut d = self
                .deferred
                .remove(&ticket)
                .expect("every completion matches a deferred query");
            d.pending.outcome = settle_residual(engine, d.plan.k, d.pending.outcome, outcome);
            cohort.push((d.seq, d.plan, d.pending));
        }
    }
}

impl Simulator {
    /// The overlapped counterpart of `run_query_batch`: plan and execute
    /// the interval's arrivals exactly like the blocking path, but enqueue
    /// the unresolved residuals (request id = global sequence) instead of
    /// awaiting them, and fold in whatever completions the elapsed
    /// interval matured. Runs even for `n == 0` — time passing is what
    /// matures completions.
    pub(crate) fn run_query_batch_overlapped(&mut self, n: usize) {
        let now_ms = self.time * 1000.0;
        let plans = self.plan_batch(n);
        let started = std::time::Instant::now();
        let pendings = if n == 0 {
            Vec::new()
        } else {
            self.execute_batch(&plans)
        };

        let ServiceHandle::Overlapped(state) = &mut self.service else {
            unreachable!("overlapped batch runs only with a transport configured");
        };
        // Harvest completions that matured during the elapsed interval
        // (this advances the transport's virtual clock to `now_ms`), then
        // enqueue this interval's residuals at the new clock.
        let mut cohort: Vec<(u64, QueryPlan, PendingQuery)> = Vec::new();
        let matured = state.client.poll(now_ms);
        state.harvest(&self.engine, matured, &mut cohort);
        for (plan, pending) in plans.iter().zip(pendings) {
            let seq = state.next_seq;
            state.next_seq += 1;
            if pending.needs_server() {
                let q = self.store.position(plan.querier);
                let request = self
                    .engine
                    .residual_request(seq, q, plan.k, &pending.outcome);
                let ticket = state.client.submit(request);
                state.deferred.insert(
                    ticket,
                    DeferredQuery {
                        seq,
                        plan: *plan,
                        pending,
                    },
                );
            } else {
                cohort.push((seq, *plan, pending));
            }
        }
        // A second poll at the same instant delivers the admission-edge
        // shed replies of the requests just enqueued: shedding is
        // immediate, so a shed ladder's outcome belongs to the interval
        // that issued the query.
        let shed = state.client.poll(now_ms);
        state.harvest(&self.engine, shed, &mut cohort);
        self.finish_overlapped_cohort(cohort, started, n as u64);
    }

    /// Force-completes every residual still in flight (end of run): the
    /// transport's event loop runs to exhaustion and the late cohort is
    /// measured and folded like any other. No-op in blocking mode.
    pub(crate) fn drain_transport(&mut self) {
        let ServiceHandle::Overlapped(state) = &mut self.service else {
            return;
        };
        let mut cohort: Vec<(u64, QueryPlan, PendingQuery)> = Vec::new();
        let late = state.client.drain();
        state.harvest(&self.engine, late, &mut cohort);
        debug_assert!(
            state.deferred.is_empty(),
            "drained transport left deferred queries behind"
        );
        let started = std::time::Instant::now();
        self.finish_overlapped_cohort(cohort, started, 0);
    }

    /// Hands one interval's completion cohort — current locally-resolved
    /// queries plus matured residuals — to [`Simulator::measure_and_fold`]
    /// in global sequence order, which is plan order across the whole run;
    /// the fold is therefore a pure function of the plan, never of
    /// completion timing granularity.
    fn finish_overlapped_cohort(
        &mut self,
        mut cohort: Vec<(u64, QueryPlan, PendingQuery)>,
        started: std::time::Instant,
        planned: u64,
    ) {
        cohort.sort_by_key(|&(seq, _, _)| seq);
        let plans: Vec<QueryPlan> = cohort.iter().map(|&(_, plan, _)| plan).collect();
        let pendings: Vec<PendingQuery> = cohort.into_iter().map(|(_, _, p)| p).collect();
        self.measure_and_fold(&plans, pendings, started, planned);
    }

    /// Snapshots the transport's cumulative observability counters into
    /// [`BatchStats`](crate::simulator::BatchStats) (peaks and totals, so
    /// overwriting with the latest snapshot is exact). No-op in blocking
    /// mode.
    pub(crate) fn absorb_transport_stats(&mut self) {
        let ServiceHandle::Overlapped(state) = &self.service else {
            return;
        };
        let stats = state.client.stats();
        self.batch_stats.queue_depth_peak = stats.queue_depth_peak;
        self.batch_stats.in_flight_peak = stats.in_flight_peak;
        self.batch_stats.shed_count = stats.shed;
        self.batch_stats.latency_p50_ms = stats.p50_latency_ms();
        self.batch_stats.latency_p99_ms = stats.p99_latency_ms();
        self.batch_stats.window_min = stats.window_min;
        self.batch_stats.window_max = stats.window_max;
        self.batch_stats.window_final = stats.window_final;
        self.batch_stats.retries_denied = state.client.retries_denied();
    }
}
