//! The query step of the batch engine: planning (every random draw, in
//! batch order), executing each plan as a pure function of the frozen
//! world snapshot via the staged SENN kernel, the SNNN expand pass, and
//! the measurement-only server calls (grading, EINN/INN shadow) that ride
//! along. The server round-trips in between belong to
//! [`crate::transport_step`].
//!
//! One issued query is a [`QueryTask`] and meets three passes:
//!
//! 1. **execute** (parallel, `&self` only) — peer gathering plus the peer
//!    stages of the SENN kernel; queries the peers cannot finish come back
//!    [`Resolution::Unresolved`] and wait for their residual's reply.
//! 2. **expand** (main thread, network mode only) — once its Euclidean
//!    round is final, a task begins its SNNN expansion and runs its one
//!    range round: a read of what its Euclidean round proved — the
//!    certificate a peer-resolved query's execute pass took from its walk
//!    (the query's peers are gathered and walked once), or a
//!    server-resolved query's answer. A range the certificate cannot
//!    settle parks the task until the server's reply comes back; the pass
//!    then completes it.
//! 3. **measure** (parallel, `&self` only) — grading against ground truth
//!    and the PAR shadow searches, always against the concrete truth
//!    [`RTreeServer`](senn_core::RTreeServer) so metrics are invariant to
//!    the configured backend (shard count, fault wrapper).
//!
//! Anything mutable is returned in the [`PendingQuery`] and its
//! [`Measured`] observations and folded in by the merge phase
//! ([`crate::cache_step`]) in plan order, which is what lets the batch fan
//! out across threads while producing bit-identical
//! [`Metrics`](crate::metrics::Metrics).

use senn_cache::{CacheEntry, CachedNn};
use senn_core::service::{RequestOutcome, ServerRequest};
use senn_core::{
    Certificate, EuclideanBound, Resolution, SearchBounds, SennEngine, SennOutcome, SnnnExpansion,
};
use senn_geom::Point;
use senn_network::distance::RoadCore;
use senn_network::{Anchored, ChDistance, ChScratch, NetworkDistance};

use crate::comms::WorkerScratch;
use crate::simulator::{KChoice, RoadMetric, RoadRanking, Simulator};

/// Queries of one interval that repay one more worker thread: a query
/// costs 5–40 µs in either parallel pass and a scoped spawn 40–80 µs.
const BATCH_GRAIN: usize = 16;

/// One planned query of a batch. Every random draw happens up front in
/// batch order, so executing a plan is a pure function of the frozen world
/// snapshot and can run on any thread.
#[derive(Clone, Copy, Debug)]
pub(crate) struct QueryPlan {
    pub(crate) querier: u32,
    pub(crate) k: usize,
}

/// One query mid-batch: the kernel outcome so far (peers-only after the
/// execute pass; final once its residual's reply is settled) plus the P2P
/// overhead counts that were measured while the peer snapshot was still
/// borrowed.
pub(crate) struct PendingQuery {
    /// Where the querier stood when it issued the query — the point its
    /// answer is computed, graded and cached for, however late it lands.
    pub(crate) at: Point,
    pub(crate) outcome: SennOutcome,
    pub(crate) remote_entries: u64,
    pub(crate) remote_records: u64,
    /// On a run with a road metric, what a peer-resolved query's peers
    /// proved, taken from its walk for the expand pass to read (boxed, so
    /// a task that carries none stays small as the fold sorts and moves
    /// it).
    pub(crate) cert: Option<Box<Certificate>>,
    /// The road ranking its SNNN expansion finished with.
    pub(crate) ranking: Option<RoadRanking>,
}

/// One issued query on its way to the fold: its run-wide sequence number
/// (its request id and its fold position), its plan, the outcome so far,
/// and — while its SNNN expansion's range round waits for the server —
/// that expansion. Boxed: few tasks ever park.
pub(crate) struct QueryTask {
    pub(crate) seq: u64,
    pub(crate) plan: QueryPlan,
    pub(crate) pending: PendingQuery,
    pub(crate) parked: Option<Box<ActiveExpansion>>,
}

impl QueryTask {
    /// The request this task waits on: its own residual, or its
    /// expansion's range request.
    pub(crate) fn request(&self, engine: &SennEngine) -> ServerRequest {
        let (seq, pending) = (self.seq, &self.pending);
        match &self.parked {
            None => engine.residual_request(seq, pending.at, self.plan.k, &pending.outcome),
            Some(a) => a.exp.range_request(seq, &a.cert),
        }
    }

    /// Settles the reply this task waited on, its retry disposition into
    /// the query's trace. A range request's reply waits in its expansion
    /// for the expand pass. The query's own residual is merged via
    /// `SennEngine::complete_residual` when any attempt was answered
    /// (degraded unpruned answers included); after a failed one it stays
    /// [`Resolution::Unresolved`]: the host keeps what the peers verified.
    pub(crate) fn settle(mut self, engine: &SennEngine, result: RequestOutcome) -> Self {
        self.pending.outcome.trace.record_service_outcome(&result);
        match &mut self.parked {
            Some(a) => a.reply = Some(result),
            None => {
                if !result.failed {
                    let k = self.plan.k;
                    self.pending.outcome =
                        engine.complete_residual(k, self.pending.outcome, result.response);
                }
            }
        }
        self
    }
}

/// The measurement-only observations of one finished query — everything
/// that needs world ground truth (grading, the EINN/INN shadow) or the
/// frozen snapshot time (the cache entry). The merge fold reads it beside
/// the query's [`PendingQuery`], whose kernel `QueryTrace` travels whole:
/// attribution, heap state, server accounting (retry and degradation
/// dispositions included), the expansion-cap flag and the per-stage
/// timings all come from it.
pub(crate) struct Measured {
    pub(crate) graded: bool,
    pub(crate) wrong: bool,
    pub(crate) uncertain_exact: bool,
    pub(crate) uncertain_inflation: f64,
    pub(crate) einn_accesses: u64,
    pub(crate) inn_accesses: Option<u64>,
    pub(crate) cache_entry: Option<CacheEntry>,
}

/// One query's expansion parked at its range request: its state machine,
/// the certificate of its Euclidean round (at the query's issue point),
/// and, once it is back, the server's reply.
pub(crate) struct ActiveExpansion {
    exp: SnnnExpansion,
    cert: Box<Certificate>,
    reply: Option<RequestOutcome>,
}

impl Simulator {
    /// Phase 1 — plan: the only place the batch touches RNG streams.
    /// Draw order matches the sequential engine: querier from the
    /// simulator stream, then that host's own stream for `k`.
    pub(crate) fn plan_batch(&mut self, n: usize) -> Vec<QueryPlan> {
        use rand::Rng;
        let mut plans = Vec::with_capacity(n);
        for _ in 0..n {
            let querier = self.rng.gen_range(0..self.store.len());
            let k = match self.config.k_choice {
                KChoice::Fixed(k) => k,
                KChoice::Uniform(lo, hi) => {
                    self.store.rng(querier as u32).gen_range(lo..=hi.max(lo))
                }
                KChoice::MeanLambda => {
                    let max_k = (2 * self.config.params.lambda_knn).saturating_sub(1).max(1);
                    self.store.rng(querier as u32).gen_range(1..=max_k)
                }
            };
            plans.push(QueryPlan {
                querier: querier as u32,
                k,
            });
        }
        plans
    }

    /// The batch engine's thread budget (`Some(1)` is the sequential
    /// mode: one worker is a plain loop on the caller).
    fn threads(&self) -> usize {
        self.config.threads.unwrap_or_else(senn_par::worker_count)
    }

    /// Executes the peer stages of every planned query against the frozen
    /// snapshot, fanning out across worker threads. Each worker owns one
    /// [`WorkerScratch`] — and therefore one reused `QueryContext` — for
    /// its whole share of the batch.
    pub(crate) fn execute_batch(&self, plans: &[QueryPlan]) -> Vec<PendingQuery> {
        senn_par::par_map_grained(
            plans,
            self.threads(),
            BATCH_GRAIN,
            WorkerScratch::new,
            |scratch, _, plan| self.execute_query(plan, scratch),
        )
    }

    /// Executes one planned SENN query up to the server seam: peer
    /// gathering ([`Simulator::gather_peers`]) and the peer stages of the
    /// staged kernel (`SennEngine::query_peers_only_with` over the
    /// worker's reused context). On a run with a road metric, a
    /// peer-resolved query that will expand takes the certificate out of
    /// the worker's context (`QueryContext::take_certificate`); the
    /// reader's buffers stay with the worker.
    fn execute_query<'a>(
        &'a self,
        plan: &QueryPlan,
        scratch: &mut WorkerScratch<'a>,
    ) -> PendingQuery {
        let q = self.store.position(plan.querier);
        let own_count = self.gather_peers(plan, &mut scratch.comms);
        let peers = &scratch.comms.peers;

        let outcome = self
            .engine
            .query_peers_only_with(q, plan.k, peers, &mut scratch.ctx);

        // P2P communication overhead: every non-empty peer entry crosses
        // the ad-hoc channel once ("it may increase the communication
        // overheads among mobile hosts" — quantified here). The querier's
        // own cache entry is local and free.
        let remote_entries = (peers.len() - own_count) as u64;
        let remote_records = peers[own_count..]
            .iter()
            .map(|e| e.len() as u64)
            .sum::<u64>();

        // An unresolved query expands over its server answer.
        let expands = self.road_metric.is_some() && Self::expansion_eligible(&outcome);
        let cert = expands.then(|| Box::new(scratch.ctx.take_certificate()));
        PendingQuery {
            at: q,
            outcome,
            remote_entries,
            remote_records,
            cert,
            ranking: None,
        }
    }

    /// Phase 2 — expand (network mode only): advances every task whose
    /// Euclidean round is final through the SNNN expansion (Algorithm 2)
    /// under the configured [`crate::NetworkModelKind`], on the main
    /// thread in task order. A task without a parked expansion begins one
    /// and runs its range round on its certificate; a range the
    /// certificate cannot settle parks (left in [`QueryTask::parked`])
    /// until its one server request comes back, and the pass then
    /// completes it. Returns the range rounds read.
    ///
    /// Candidate verification is bound-driven: the free-flow
    /// [`EuclideanBound`] (admissible for every model by the `ED <= ND`
    /// contract) is consulted before every exact model evaluation, and
    /// evaluations the bound already rules out are skipped — counted by
    /// `QueryTrace::lb_evals` / `QueryTrace::model_evals_saved`. The
    /// CH model is paired with it too: an exact CH bound would be one CH
    /// query per candidate, the same query the model runs for a candidate
    /// the free-flow bound lets through.
    ///
    /// Expansion refines *which* POIs the host would rank first under the
    /// road metric; it never rewrites the initial round's `results`,
    /// `bounds` or `heap_state` (the paper's accounting unit — grading,
    /// the EINN/INN shadow and the cache store all read the initial
    /// Euclidean round). What it adds: the road ranking, and to the trace
    /// the range round's resolution and stage timings, its service
    /// disposition, the pruning counters, and the `QueryTrace::cap_hit`
    /// flag when the cap (or a failed range request) ended the expansion
    /// unconfirmed.
    pub(crate) fn expand_network_batch(&self, tasks: &mut [QueryTask], ch: &mut ChScratch) -> u64 {
        let Some(metric) = &self.road_metric else {
            return 0;
        };
        let net = &self.network;
        let (locator, origin) = (&self.locator, Point::ORIGIN);
        // Every model constructor returns `None` only on an empty graph,
        // where there is nothing to rank with.
        match metric {
            RoadMetric::AStar => {
                let mut model = NetworkDistance::new(net, locator, origin);
                self.expand_with(tasks, model.as_mut())
            }
            RoadMetric::Ch(index) => {
                let scratch = std::mem::take(ch);
                let mut model = ChDistance::with_scratch(net, locator, index, origin, scratch);
                let reads = self.expand_with(tasks, model.as_mut());
                if let Some(model) = model {
                    *ch = model.into_scratch();
                }
                reads
            }
        }
    }

    /// True when the query's resolved Euclidean round qualifies for SNNN
    /// expansion: an attributed resolution with an all-certain result set.
    fn expansion_eligible(outcome: &SennOutcome) -> bool {
        matches!(
            outcome.resolution(),
            Resolution::SinglePeer | Resolution::MultiPeer | Resolution::Server
        ) && outcome.results.iter().all(|e| e.certain)
    }

    /// Finalizes one finished expansion into its query's trace and ranking.
    fn finish_expansion(pending: &mut PendingQuery, exp: SnnnExpansion) {
        pending.outcome.trace.cap_hit = exp.cap_hit();
        pending.outcome.trace.lb_evals = exp.lb_evals();
        pending.outcome.trace.model_evals_saved = exp.model_evals_saved();
        pending.ranking = Some(RoadRanking {
            confirmed: !exp.cap_hit(),
            results: exp.into_results(),
        });
    }

    /// The expand pass of [`Simulator::expand_network_batch`]. Generic
    /// over the model's core — one model serves the whole pass (it owns
    /// its search scratch), re-anchored per task.
    ///
    /// An expansion reads the certificate of its query's Euclidean round:
    /// for a peer-resolved round, the one the execute pass took from the
    /// query's walk — between an interval's execute and expand passes no
    /// host moves, no cache is stored and the clock stands still, so it is
    /// what a second peer exchange would prove, with the table, `R_c` and
    /// radii the first read and the cache extension computed; for a
    /// server-resolved round, its answer ([`Certificate::from_answer`]),
    /// whose walk certified fewer than `k` rows and so could settle no
    /// range. Under an overlapped transport a Euclidean round that matures
    /// in a later interval still expands at its issue point. An
    /// expansion's outcome depends on nothing but its own query's
    /// certificate and reply, so the order in which tasks advance, and how
    /// their requests share submissions, never reaches an answer.
    fn expand_with<C: RoadCore>(
        &self,
        tasks: &mut [QueryTask],
        model: Option<&mut Anchored<'_, C>>,
    ) -> u64 {
        let mut reads = 0;
        let Some(model) = model else {
            return reads;
        };
        let oracle = &mut EuclideanBound;
        for task in tasks.iter_mut() {
            let pending = &mut task.pending;
            let q = pending.at;
            let exp = match task.parked.take() {
                // The range request came back: complete the round at the
                // issue point (anchors moved while other tasks ran). A
                // failed request leaves the ranking unconfirmed.
                Some(parked) => {
                    let ActiveExpansion {
                        mut exp,
                        cert,
                        reply,
                    } = *parked;
                    model.rebase(q);
                    match reply.filter(|reply| !reply.failed) {
                        Some(reply) => {
                            let trace = &mut pending.outcome.trace;
                            exp.complete_range(&cert, trace, reply.response, model, oracle)
                        }
                        None => exp.abort(),
                    }
                    exp
                }
                // The Euclidean round is final: begin, and read the range
                // on the certificate unless begin already settled the
                // expansion (the world holds fewer than `k` POIs, or a
                // zero cap).
                None => {
                    if !Self::expansion_eligible(&pending.outcome) || !model.rebase(q) {
                        continue;
                    }
                    let results = &pending.outcome.results;
                    let cap = self.config.snnn_max_expansion;
                    let mut exp = SnnnExpansion::begin(q, task.plan.k, results, cap, model);
                    if exp.needs_round() {
                        reads += 1;
                        let mut cert = pending
                            .cert
                            .take()
                            .unwrap_or_else(|| Box::new(Certificate::from_answer(q, results)));
                        let trace = &mut pending.outcome.trace;
                        if !exp.read_range(&mut cert, trace, model, oracle) {
                            let reply = None;
                            task.parked = Some(Box::new(ActiveExpansion { exp, cert, reply }));
                            continue;
                        }
                    }
                    exp
                }
            };
            Self::finish_expansion(pending, exp);
        }
        reads
    }

    /// Phase 3 — measure: grading and PAR shadow searches for every
    /// finished task, fanned out across worker threads (the shadow
    /// R\*-tree searches dominate this pass). Pure reads of `&self`.
    pub(crate) fn measure_batch(&self, tasks: &[QueryTask]) -> Vec<Measured> {
        senn_par::par_map_grained(
            tasks,
            self.threads(),
            BATCH_GRAIN,
            || (),
            |(), _, task| self.measure_query(&task.plan, &task.pending),
        )
    }

    /// The measurement-only observations of one finished query. Every
    /// server call here runs against the concrete truth
    /// [`RTreeServer`](senn_core::RTreeServer) (never the configured
    /// service), so the recorded metrics are invariant to shard count and
    /// fault injection.
    fn measure_query(&self, plan: &QueryPlan, pending: &PendingQuery) -> Measured {
        let (k, q) = (plan.k, pending.at);
        let outcome = &pending.outcome;

        let matches_truth = |truth: &senn_core::ServerResponse| {
            truth.pois.len() == outcome.results.len()
                && truth
                    .pois
                    .iter()
                    .zip(&outcome.results)
                    .all(|((t, _), r)| t.poi_id == r.poi.poi_id)
        };
        let mut graded = false;
        let mut wrong = false;
        if self.config.poi_churn_per_hour > 0.0
            && matches!(
                outcome.resolution(),
                Resolution::SinglePeer | Resolution::MultiPeer
            )
        {
            // Under churn, stale caches can certify objects that are no
            // longer the true NNs. Grade against current ground truth.
            let truth = self.server.knn_one(q, k, SearchBounds::NONE);
            graded = true;
            wrong = !matches_truth(&truth);
        }

        let mut uncertain_exact = false;
        let mut uncertain_inflation = 0.0;
        let mut einn_accesses = 0;
        let mut inn_accesses = None;
        match outcome.resolution() {
            Resolution::SinglePeer | Resolution::MultiPeer => {}
            Resolution::AcceptedUncertain => {
                // Grade the accepted answer against ground truth (a
                // measurement-only server call, not counted in PAR).
                let truth = self.server.knn_one(q, k, SearchBounds::NONE);
                uncertain_exact = matches_truth(&truth);
                let true_sum: f64 = truth.pois.iter().map(|(_, d)| d).sum();
                let got_sum: f64 = outcome.results.iter().map(|r| r.dist).sum();
                if true_sum > 0.0 {
                    uncertain_inflation = (got_sum / true_sum - 1.0).max(0.0);
                }
            }
            Resolution::Server | Resolution::Unresolved => {
                // PAR measurement (Section 4.4): "the server module executes
                // both the original INN algorithm and our extended INN
                // algorithm (EINN) to compare the performance". Both run on
                // the pure k-query; the client's C_Size over-fetch (cache
                // refill) is protocol, not part of the comparison.
                let strictly_below = match outcome.bounds.lower {
                    Some(lb) => outcome
                        .results
                        .iter()
                        .filter(|e| e.certain && e.dist < lb - senn_geom::EPS)
                        .count(),
                    None => 0,
                };
                let need = k.saturating_sub(strictly_below).max(1);
                einn_accesses = self.server.knn_one(q, need, outcome.bounds).node_accesses;
                if self.config.compare_inn {
                    inn_accesses =
                        Some(self.server.knn_one(q, k, SearchBounds::NONE).node_accesses);
                }
            }
        }

        // Cache policy 1: store the certain NNs of the most recent query.
        let cacheable: Vec<CachedNn> = outcome.cacheable().iter().map(|e| e.poi).collect();
        let cache_entry =
            (!cacheable.is_empty()).then(|| CacheEntry::new(q, cacheable).at_time(self.time));

        Measured {
            graded,
            wrong,
            uncertain_exact,
            uncertain_inflation,
            einn_accesses,
            inn_accesses,
            cache_entry,
        }
    }
}
