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
//!    round is final, a task begins its SNNN expansion: one verification
//!    walk (peers gathered once), each round a read of that walk at a
//!    larger `k`. A round the peers cannot answer parks the task until
//!    the reply comes back; the pass then resumes it.
//! 3. **measure** (parallel, `&self` only) — grading against ground truth
//!    and the PAR shadow searches, always against the concrete truth
//!    [`RTreeServer`](senn_core::RTreeServer) so metrics are invariant to
//!    the configured backend (shard count, fault wrapper).
//!
//! Anything mutable is returned in the [`QueryOutcome`] and folded in by
//! the merge phase ([`crate::cache_step`]) in plan order, which is what
//! lets the batch fan out across threads while producing bit-identical
//! [`Metrics`](crate::metrics::Metrics).

use senn_cache::{CacheEntry, CachedNn};
use senn_core::service::{RequestOutcome, ServerRequest};
use senn_core::{
    EuclideanBound, QueryContext, QueryTrace, Resolution, SearchBounds, SennEngine, SennOutcome,
    SnnnExpansion,
};
use senn_geom::Point;
use senn_network::distance::RoadCore;
use senn_network::{Anchored, ChDistance, ChScratch, NetworkDistance};

use crate::comms::{QueryScratch, WorkerScratch};
use crate::simulator::{KChoice, RoadMetric, Simulator};

/// Queries of one interval that repay one more worker thread: a query
/// costs 5–40 µs in either parallel pass and a scoped spawn 40–80 µs.
const BATCH_GRAIN: usize = 16;

/// Retired walks the expand pass keeps for reuse. A running expansion
/// needs one and each parked one holds its own, so a cold-cache interval
/// can have dozens live at once; keeping them all would pin that burst for
/// the rest of the run.
const WALK_POOL: usize = 8;

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
}

impl PendingQuery {
    /// True when the peers left the query for the server.
    pub(crate) fn needs_server(&self) -> bool {
        self.outcome.resolution() == Resolution::Unresolved
    }
}

/// One issued query on its way to the fold: its run-wide sequence number
/// (its request id and its fold position), its plan, the outcome so far,
/// and — while its SNNN expansion waits for the server — that expansion
/// with the round it parked at.
pub(crate) struct QueryTask {
    pub(crate) seq: u64,
    pub(crate) plan: QueryPlan,
    pub(crate) pending: PendingQuery,
    pub(crate) round: Option<Parked>,
}

/// An expansion waiting for the server and the peers-only round it parked
/// at. Boxed: a walk is several times the size of the rest of a task, and
/// few tasks ever park.
pub(crate) type Parked = Box<(ActiveExpansion, SennOutcome)>;

impl QueryTask {
    /// The request this task waits on: its own residual, or the round its
    /// expansion parked at.
    pub(crate) fn request(&self, engine: &SennEngine) -> ServerRequest {
        let (seq, pending) = (self.seq, &self.pending);
        match &self.round {
            None => engine.residual_request(seq, pending.at, self.plan.k, &pending.outcome),
            Some(parked) => {
                let (a, round) = &**parked;
                engine.residual_request(seq, a.walk.query(), a.exp.next_k(), round)
            }
        }
    }

    /// Settles the reply this task waited on: into its own outcome, or
    /// into the parked round, whose trace also joins the query's.
    pub(crate) fn settle(mut self, engine: &SennEngine, result: RequestOutcome) -> Self {
        match self.round.take().map(|parked| *parked) {
            None => {
                let k = self.plan.k;
                self.pending.outcome = settle_residual(engine, k, self.pending.outcome, result);
            }
            Some((a, round)) => {
                let served = settle_residual(engine, a.exp.next_k(), round, result);
                self.pending.outcome.trace.absorb(&served.trace);
                self.round = Some(Box::new((a, served)));
            }
        }
        self
    }
}

/// The measurement-only observations of one finished query — everything
/// that needs world ground truth (grading, heap states, the EINN/INN
/// shadow) or the frozen snapshot time (the cache entry).
pub(crate) struct Measured {
    pub(crate) graded: bool,
    pub(crate) wrong: bool,
    pub(crate) uncertain_exact: bool,
    pub(crate) uncertain_inflation: f64,
    pub(crate) heap_state_idx: Option<usize>,
    pub(crate) einn_accesses: u64,
    pub(crate) inn_accesses: Option<u64>,
    pub(crate) cache_entry: Option<CacheEntry>,
}

/// The flat, thread-crossing result of one planned query — everything the
/// merge phase needs to update metrics and caches. The kernel's
/// [`QueryTrace`] travels whole: attribution, server accounting (retry and
/// degradation dispositions included), the expansion-cap flag and the
/// per-stage timings all come from it.
pub(crate) struct QueryOutcome {
    pub(crate) trace: QueryTrace,
    pub(crate) remote_entries: u64,
    pub(crate) remote_records: u64,
    pub(crate) graded: bool,
    pub(crate) wrong: bool,
    pub(crate) uncertain_exact: bool,
    pub(crate) uncertain_inflation: f64,
    pub(crate) heap_state_idx: Option<usize>,
    pub(crate) einn_accesses: u64,
    pub(crate) inn_accesses: Option<u64>,
    pub(crate) cache_entry: Option<CacheEntry>,
}

impl QueryOutcome {
    /// Joins the pipeline halves for the merge fold.
    pub(crate) fn assemble(pending: PendingQuery, measured: Measured) -> Self {
        QueryOutcome {
            trace: pending.outcome.trace,
            remote_entries: pending.remote_entries,
            remote_records: pending.remote_records,
            graded: measured.graded,
            wrong: measured.wrong,
            uncertain_exact: measured.uncertain_exact,
            uncertain_inflation: measured.uncertain_inflation,
            heap_state_idx: measured.heap_state_idx,
            einn_accesses: measured.einn_accesses,
            inn_accesses: measured.inn_accesses,
            cache_entry: measured.cache_entry,
        }
    }
}

/// One query's expansion: its state machine and the verification walk
/// every one of its rounds reads (begun once, at the query's issue point).
pub(crate) struct ActiveExpansion {
    exp: SnnnExpansion,
    walk: QueryContext,
}

/// What the expand pass reuses from query to query and from interval to
/// interval, so that its steady state allocates only what a server-bound
/// round carries away.
#[derive(Default)]
pub(crate) struct ExpandScratch {
    peer_ids: Vec<u32>,
    /// Walks of retired expansions, buffers kept for the next one. Only
    /// an expansion waiting for the server holds a walk while another
    /// runs, so the pool stays a handful deep however many queries an
    /// interval expands.
    walks: Vec<QueryContext>,
    /// The CH model's query scratch (its scattered anchor label, kept
    /// answers and unpacking buffers), handed from pass to pass, so later
    /// intervals' queries find the answers earlier ones kept.
    ch: ChScratch,
}

/// The one completion of a residual round-trip, for a query's own
/// residual and an SNNN round alike: attributes the retry layer's
/// disposition to the trace and, when any attempt was answered, merges the
/// response via `SennEngine::complete_residual` (degraded unpruned answers
/// included — the certain prefix is deduplicated by POI id). A residual
/// whose every attempt failed stays [`Resolution::Unresolved`] with
/// `trace.server_failed` set: the host keeps whatever the peers verified.
fn settle_residual(
    engine: &SennEngine,
    k: usize,
    mut peers_only: SennOutcome,
    result: RequestOutcome,
) -> SennOutcome {
    peers_only.trace.record_service_outcome(&result);
    if result.failed {
        peers_only
    } else {
        engine.complete_residual(k, peers_only, result.response)
    }
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
    /// worker's reused context).
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

        PendingQuery {
            at: q,
            outcome,
            remote_entries,
            remote_records,
        }
    }

    /// Phase 2 — expand (network mode only): advances every task whose
    /// Euclidean round is final through the SNNN incremental Euclidean
    /// expansion (Algorithm 2) under the configured
    /// [`crate::NetworkModelKind`],
    /// on the main thread in task order. A task without a parked round
    /// begins its expansion; a task whose parked round came back resumes
    /// it. Either way it runs until it finishes or parks at the next round
    /// that needs the server (left in [`QueryTask::round`]). Returns the
    /// expansion rounds run.
    ///
    /// Candidate verification is bound-driven: the free-flow
    /// [`EuclideanBound`] (admissible for every model by the `ED <= ND`
    /// contract) is consulted before every exact model evaluation, and
    /// evaluations the bound already rules out are skipped — counted by
    /// [`QueryTrace::lb_evals`] / [`QueryTrace::model_evals_saved`]. The
    /// CH model is paired with it too: an exact CH bound would be one CH
    /// query per candidate, the same query the model runs for a candidate
    /// the free-flow bound lets through.
    ///
    /// Expansion refines *which* POIs the host would rank first under the
    /// road metric; it never rewrites the initial round's `results`,
    /// `bounds` or `heap_state` (the paper's accounting unit — grading,
    /// the EINN/INN shadow and the cache store all read the initial
    /// Euclidean round). What it adds to the trace: the expansion rounds'
    /// resolutions/stage timings, their service dispositions, the pruning
    /// counters, and the [`QueryTrace::cap_hit`] flag when the round
    /// budget (or a failed round residual) ended the expansion
    /// unconfirmed.
    pub(crate) fn expand_network_batch(
        &self,
        tasks: &mut [QueryTask],
        scratch: &mut ExpandScratch,
    ) -> u64 {
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
                self.expand_with(tasks, scratch, model.as_mut())
            }
            RoadMetric::Ch(index) => {
                let ch = std::mem::take(&mut scratch.ch);
                let mut model = ChDistance::with_scratch(net, locator, index, origin, ch);
                let rounds = self.expand_with(tasks, scratch, model.as_mut());
                if let Some(model) = model {
                    scratch.ch = model.into_scratch();
                }
                rounds
            }
        }
    }

    /// True when the query's resolved Euclidean round qualifies for SNNN
    /// expansion: an attributed resolution with an all-certain result set.
    fn expansion_eligible(pending: &PendingQuery) -> bool {
        matches!(
            pending.outcome.resolution(),
            Resolution::SinglePeer | Resolution::MultiPeer | Resolution::Server
        ) && pending.outcome.results.iter().all(|e| e.certain)
    }

    /// Finalizes one finished expansion into its query's trace.
    fn finish_expansion(pending: &mut PendingQuery, exp: &SnnnExpansion) {
        pending.outcome.trace.cap_hit = exp.cap_hit();
        pending.outcome.trace.lb_evals = exp.lb_evals();
        pending.outcome.trace.model_evals_saved = exp.model_evals_saved();
    }

    /// The expand pass of [`Simulator::expand_network_batch`]. Generic
    /// over the model's core — one model serves the whole pass (it owns
    /// its search scratch), re-anchored per task.
    ///
    /// Each expanding query gathers its peers and begins its verification
    /// walk **once**; a round is a read of that walk at the next `k`
    /// (`SennEngine::read_walk`), so no round re-probes, re-classifies or
    /// re-tests what an earlier round verified. A round's outcome depends
    /// on nothing but its own query's walk and replies, so the order in
    /// which tasks advance, and how their rounds share submissions, never
    /// reaches an answer.
    fn expand_with<C: RoadCore>(
        &self,
        tasks: &mut [QueryTask],
        scratch: &mut ExpandScratch,
        model: Option<&mut Anchored<'_, C>>,
    ) -> u64 {
        let mut rounds = 0;
        let Some(model) = model else {
            return rounds;
        };
        let mut comms = QueryScratch {
            peer_ids: std::mem::take(&mut scratch.peer_ids),
            peers: Vec::new(),
        };
        for task in tasks.iter_mut() {
            let active = match task.round.take().map(|parked| *parked) {
                // A round came back: resume at the issue point the walk
                // keeps (anchors moved while other tasks ran).
                Some((mut a, served)) => {
                    model.rebase(a.walk.query());
                    let failed = served.trace.server_failed;
                    Self::offer_round(&mut a.exp, &served.results, failed, model);
                    a
                }
                // The Euclidean round is final: begin. An expansion already
                // settled at begin time — the world holds fewer than `k`
                // POIs, or a zero round budget — finalizes at once.
                None => {
                    let (q, pending) = (task.pending.at, &mut task.pending);
                    if !Self::expansion_eligible(pending) || !model.rebase(q) {
                        continue;
                    }
                    let exp = SnnnExpansion::begin(q, task.plan.k, &pending.outcome.results, model);
                    if !exp.needs_round() || self.config.snnn_max_expansion == 0 {
                        Self::finish_expansion(pending, &exp);
                        continue;
                    }
                    // The peers in range now, verified for the issue point.
                    self.gather_peers(&task.plan, &mut comms);
                    let mut walk = scratch.walks.pop().unwrap_or_default();
                    self.engine.begin_walk(q, &comms.peers, &mut walk);
                    ActiveExpansion { exp, walk }
                }
            };
            task.round = self.read_rounds(
                active,
                &mut task.pending,
                model,
                &mut rounds,
                &mut scratch.walks,
            );
        }
        scratch.peer_ids = comms.peer_ids;
        rounds
    }

    /// Offers one finished round to its expansion. A round that could not
    /// be served (or came back uncertain) ends it: the best ranking seen
    /// stays, unconfirmed.
    fn offer_round<C: RoadCore>(
        exp: &mut SnnnExpansion,
        results: &[senn_core::HeapEntry],
        failed: bool,
        model: &mut Anchored<'_, C>,
    ) {
        if failed || results.iter().any(|e| !e.certain) {
            exp.abort();
        } else {
            exp.offer_pruned(results, model, &mut EuclideanBound);
        }
    }

    /// Runs `active`'s rounds (the model anchored at its query) for
    /// as long as its walk resolves them: a peer-resolved round is folded
    /// into the query's trace and offered from the walk in place. Returns
    /// the expansion parked at the first round that needs the server;
    /// otherwise finalizes it and returns its walk to the pool.
    fn read_rounds<C: RoadCore>(
        &self,
        mut active: ActiveExpansion,
        pending: &mut PendingQuery,
        model: &mut Anchored<'_, C>,
        rounds: &mut u64,
        walks: &mut Vec<QueryContext>,
    ) -> Option<Parked> {
        while active.exp.needs_round() && active.exp.rounds() < self.config.snnn_max_expansion {
            *rounds += 1;
            let kk = active.exp.next_k();
            if self.engine.read_walk(kk, &mut active.walk) == Resolution::Unresolved {
                let round = self.engine.take_outcome(&mut active.walk);
                return Some(Box::new((active, round)));
            }
            pending.outcome.trace.absorb(&active.walk.trace);
            active.walk.trace.reset();
            let results = active.walk.heap.entries();
            Self::offer_round(&mut active.exp, results, false, model);
        }
        Self::finish_expansion(pending, &active.exp);
        if walks.len() < WALK_POOL {
            walks.push(active.walk);
        }
        None
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
        let mut heap_state_idx = None;
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
                heap_state_idx = outcome.heap_state.map(|state| {
                    use senn_core::HeapState;
                    match state {
                        HeapState::FullMixed => 0,
                        HeapState::FullUncertain => 1,
                        HeapState::PartialMixed => 2,
                        HeapState::PartialCertain => 3,
                        HeapState::PartialUncertain => 4,
                        HeapState::Empty => 5,
                    }
                });
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
            heap_state_idx,
            einn_accesses,
            inn_accesses,
            cache_entry,
        }
    }
}
