//! The service step of the interval loop — the simulator's one route to
//! the server module. Every residual, a query's own and an SNNN
//! expansion's range request alike, is *submitted* to one
//! `senn_core::transport::AsyncClient` under its query's run-wide sequence
//! number, and its completion is *harvested* by ticket. The client runs
//! under one of two policies:
//!
//! * **settled** ([`SimConfig::transport`] is `None`):
//!   `AsyncClient::settled` around [`SimConfig::retry`] — a window no
//!   interval can fill, no shedding and zero service time. The interval
//!   drains the client before it folds, so every query is answered in the
//!   interval that issued it.
//! * **overlapped** (`Some(policy)`): the interval polls the client at its
//!   own virtual time, so round-trips overlap later intervals instead of
//!   blocking the batch.
//!
//! A harvested range request completes its expansion at the query's issue
//! point, and the query is folded: an expansion parks at most once. An
//! expansion reads the certificate of its query's Euclidean round,
//! however late that round matures: a peer-resolved round's certificate
//! holds what the peers the query exchanged with at issue time (and
//! `remote_entries` / `remote_records` counted) proved, and a
//! server-resolved round's holds the reply's answer.
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
//! is measured *at that interval* but *for the point it was issued from*
//! — its cache entry stores that query location (the paper's cache
//! policy) with the completion-time stamp, and churn grading runs against
//! the then-current ground truth (the answer arrives when it arrives,
//! wherever the querier has moved since). Queries still in
//! flight at the simulation horizon are force-drained by
//! [`Simulator::drain_transport`] so every issued query is attributed
//! exactly once.
//!
//! [`SimConfig::transport`]: crate::simulator::SimConfig::transport
//! [`SimConfig::retry`]: crate::simulator::SimConfig::retry

use std::collections::HashMap;
use std::time::Instant;

use senn_core::service::RequestOutcome;
use senn_core::transport::{AsyncClient, RetryPolicy, Ticket, TransportPolicy};
use senn_core::{Resolution, SennEngine};
use senn_server::FaultyService;

use crate::movement::poisson;
use crate::query_step::QueryTask;
use crate::simulator::{Answer, ServiceBackend, Simulator};

/// Uplink lanes of the sim's transport. A fixed constant, deliberately
/// decoupled from `server_shards`: lane assignment hashes the request id,
/// so changing the shard layout must not re-shuffle the event schedule.
const TRANSPORT_LANES: usize = 4;

/// Salt separating the transport's service-time stream from every other
/// consumer of the master seed.
const TRANSPORT_SEED_SALT: u64 = 0x5ea1_edca_b1e5_70ff;

/// The client in front of the fault-wrapped backend, the tasks awaiting
/// its completions, and the run-wide request-id sequence.
pub(crate) struct Uplink {
    /// Retry-ladder client over the virtual-clock transport.
    pub(crate) client: AsyncClient<FaultyService<ServiceBackend>>,
    /// Tasks awaiting a completion, keyed by the ticket
    /// [`AsyncClient::poll`] resolves them under. Only ever accessed by
    /// ticket lookup — iteration order never matters.
    in_flight: HashMap<Ticket, QueryTask>,
    /// Next global sequence number / request id.
    next_seq: u64,
}

impl Uplink {
    /// The client under `transport`, or the settled client around
    /// `retry` when there is none.
    pub(crate) fn new(
        service: FaultyService<ServiceBackend>,
        seed: u64,
        transport: Option<TransportPolicy>,
        retry: RetryPolicy,
    ) -> Self {
        let client = match transport {
            Some(policy) => {
                AsyncClient::new(service, TRANSPORT_LANES, seed ^ TRANSPORT_SEED_SALT, policy)
            }
            None => AsyncClient::settled(service, retry),
        };
        Uplink {
            client,
            in_flight: HashMap::new(),
            next_seq: 0,
        }
    }

    fn submit(&mut self, engine: &SennEngine, task: QueryTask) {
        let ticket = self.client.submit(task.request(engine));
        self.in_flight.insert(ticket, task);
    }

    /// Settles a poll's completions into their tasks and appends them to
    /// `ready`.
    fn harvest(
        &mut self,
        engine: &SennEngine,
        completions: Vec<(Ticket, RequestOutcome)>,
        ready: &mut Vec<QueryTask>,
    ) {
        for (ticket, outcome) in completions {
            let task = self
                .in_flight
                .remove(&ticket)
                .expect("every completion matches a task in flight");
            ready.push(task.settle(engine, outcome));
        }
    }
}

impl Simulator {
    /// Launches the Poisson-sized query batch for an elapsed interval.
    ///
    /// Plan → execute → exchange → merge (see the module docs): all
    /// randomness is drawn up front in batch order, execution reads a
    /// frozen snapshot (fanned out across `SimConfig::threads` workers),
    /// residuals go through the client, and the outcomes are folded into
    /// metrics and caches in plan order — so every thread count produces
    /// identical metrics. Runs even for `n == 0`: under an overlapped
    /// transport, time passing is what matures completions.
    pub(crate) fn run_query_batch(&mut self, interval_secs: f64) {
        let lambda = self.config.params.lambda_query_per_min * interval_secs / 60.0;
        let n = poisson(lambda, &mut self.rng).min(self.store.len() as u64) as usize;
        let now_ms = self.time * 1000.0;
        let plans = self.plan_batch(n);
        let started = Instant::now();
        let pendings = if n == 0 {
            Vec::new()
        } else {
            self.execute_batch(&plans)
        };

        // Harvest completions that matured during the elapsed interval
        // (this advances the transport's virtual clock to `now_ms`), then
        // submit this interval's residuals at the new clock.
        let matured = self.uplink.client.poll(now_ms);
        let mut ready = Vec::with_capacity(n + matured.len());
        self.uplink.harvest(&self.engine, matured, &mut ready);
        for (plan, pending) in plans.into_iter().zip(pendings) {
            let seq = self.uplink.next_seq;
            self.uplink.next_seq += 1;
            let task = QueryTask {
                seq,
                plan,
                pending,
                parked: None,
            };
            // The peers left the query for the server.
            if task.pending.outcome.resolution() == Resolution::Unresolved {
                self.uplink.submit(&self.engine, task);
            } else {
                ready.push(task);
            }
        }
        let mut cohort = Vec::new();
        if self.config.transport.is_some() {
            // A second poll at the same instant delivers the admission-edge
            // shed replies of the requests just enqueued: shedding is
            // immediate, so a shed ladder's outcome belongs to the interval
            // that issued the query.
            let shed = self.uplink.client.poll(now_ms);
            self.uplink.harvest(&self.engine, shed, &mut ready);
            self.advance(ready, &mut cohort);
        } else {
            self.drain_client(ready, &mut cohort);
        }
        self.fold(cohort, started, n as u64);
    }

    /// Force-completes everything still in flight (end of run) and folds
    /// the late cohort like any other — empty under the settled policy,
    /// which leaves nothing in flight.
    pub(crate) fn drain_transport(&mut self) {
        let started = Instant::now();
        let mut cohort = Vec::new();
        self.drain_client(Vec::new(), &mut cohort);
        debug_assert!(self.uplink.in_flight.is_empty());
        self.fold(cohort, started, 0);
    }

    /// Advances `ready`, then drains the client until nothing is in
    /// flight — range requests parked by the advance are drained in turn.
    fn drain_client(&mut self, mut ready: Vec<QueryTask>, cohort: &mut Vec<QueryTask>) {
        loop {
            self.advance(ready, cohort);
            if self.uplink.in_flight.is_empty() {
                return;
            }
            ready = Vec::new();
            let done = self.uplink.client.drain();
            self.uplink.harvest(&self.engine, done, &mut ready);
        }
    }

    /// Runs the expand pass over `ready`, submits the range requests of
    /// the expansions that park, and moves every finished task into
    /// `cohort`.
    fn advance(&mut self, mut ready: Vec<QueryTask>, cohort: &mut Vec<QueryTask>) {
        let mut ch = std::mem::take(&mut self.expand_ch);
        self.batch_stats.snnn_rounds += self.expand_network_batch(&mut ready, &mut ch);
        self.expand_ch = ch;
        let unparked = ready.len();
        for task in ready.extract_if(.., |task| task.parked.is_some()) {
            self.uplink.submit(&self.engine, task);
        }
        self.batch_stats.snnn_submissions += (ready.len() < unparked) as u64;
        // Hand the buffer over whole when it comes first: a long interval
        // issues thousands of tasks, and a copy would double the peak.
        if cohort.is_empty() {
            *cohort = ready;
        } else {
            cohort.append(&mut ready);
        }
    }

    /// The tail every batch ends in: the parallel measurement pass over
    /// the finished tasks, the batch's wall time booked against the
    /// `planned` queries it issued (none for the horizon's late cohort),
    /// then the merge (crate::cache_step) in global sequence order, which
    /// is plan order across the whole run — exactly the fold a sequential
    /// left-to-right execution would perform, never a function of
    /// completion timing.
    fn fold(&mut self, mut cohort: Vec<QueryTask>, started: Instant, planned: u64) {
        cohort.sort_by_key(|task| task.seq);
        let measures = self.measure_batch(&cohort);
        if planned > 0 {
            self.batch_stats
                .record(started.elapsed().as_secs_f64(), planned);
        }
        self.absorb_transport_stats();
        self.answers.clear();
        for (task, measured) in cohort.into_iter().zip(measures) {
            let QueryTask {
                plan, mut pending, ..
            } = task;
            let answer = Answer {
                query: pending.at,
                k: plan.k,
                resolution: pending.outcome.resolution(),
                results: std::mem::take(&mut pending.outcome.results),
                ranking: pending.ranking.take(),
            };
            answer.digest_into(&mut self.answer_digest);
            self.answers.push(answer);
            self.apply_outcome(&plan, &pending, measured);
        }
    }

    /// Snapshots the transport's cumulative observability counters into
    /// [`BatchStats`](crate::simulator::BatchStats) (peaks and totals, so
    /// overwriting with the latest snapshot is exact). Only with
    /// `SimConfig::transport` set; the settled policy reports nothing.
    fn absorb_transport_stats(&mut self) {
        if self.config.transport.is_none() {
            return;
        }
        let (stats, b) = (self.uplink.client.stats(), &mut self.batch_stats);
        b.queue_depth_peak = stats.queue_depth_peak;
        b.in_flight_peak = stats.in_flight_peak;
        b.shed_count = stats.shed;
        b.latency_p50_ms = stats.p50_latency_ms();
        b.latency_p99_ms = stats.p99_latency_ms();
    }
}
