//! The simulator: mobile-host module + server module (Section 4.1).
//!
//! * Every mobile host is an independent object with its own mobility
//!   state, NN result cache and RNG stream.
//! * The simulation advances in Poisson-distributed intervals; at the end
//!   of each interval a random subset of hosts (sized by `λ_Query`)
//!   launches kNN queries.
//! * Each query runs Algorithm 1 (SENN) against the peers currently in
//!   radio range; queries the peers cannot complete go to the server
//!   module, which executes both EINN (with the forwarded bounds) and the
//!   original INN on its R\*-tree and records node accesses for the PAR
//!   comparison (Section 4.4).
//! * Results are recorded only after a warm-up period ("all simulation
//!   results were recorded after the system reached steady state").
//!
//! ## Batch engine
//!
//! Each interval's query batch runs in four phases: **plan** (every
//! random draw, in batch order, against the live RNG streams), **execute**
//! (each planned query reads a frozen snapshot of host positions, caches
//! and the server — a pure function, fanned out across
//! [`SimConfig::threads`] workers), **exchange** (residuals and SNNN
//! expansion rounds travel through the one service client, with
//! retry/degradation, request id = run-wide plan sequence), and **merge**
//! (outcomes are folded into the metrics and host caches in plan order).
//! Because the fold order and every keyed draw are fixed by the plan, the
//! parallel engine produces bit-identical [`Metrics`] to the sequential
//! path, seeded fault injection included. All queries of a batch see the
//! cache state from the start of the batch; stores land at merge time.
//!
//! The steps live in sibling modules, each owning one concern of the
//! loop: `movement` (host mobility + the Poisson draw), `comms` (peer
//! discovery and the per-worker scratch), `query_step` (plan, execute
//! and SNNN expansion via the staged SENN kernel), `transport_step` (the
//! service client and the interval's exchange) and `cache_step` (cache
//! policies + the deterministic merge fold). This file keeps the world
//! construction and the interval loop.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use senn_core::multiple::RegionMethod;
use senn_core::service::{ServerReply, ServerRequest, SpatialService};
use senn_core::transport::{RetryPolicy, TransportPolicy};
use senn_core::{HeapEntry, RTreeServer, Resolution, SennConfig, SennEngine, STAGE_COUNT};
use senn_geom::{Point, Rect};
use senn_mobility::{RoadMover, RoadMoverConfig, WaypointConfig};
use senn_network::{generate_network, GeneratorConfig, NodeLocator, RoadNetwork};
use senn_server::{FaultConfig, FaultyService, ServiceMetrics, ShardedService};

pub use crate::cache_step::CachePolicy;
pub use crate::movement::MovementMode;

use crate::grid::{CellMove, HostGrid};
use crate::metrics::Metrics;
use crate::movement::poisson;
use crate::params::{ParamSet, SimParams};
use crate::query_step::ExpandScratch;
use crate::store::{HostStore, Spawn};
use crate::transport_step::Uplink;

/// The road model of network-mode (SNNN) queries — which
/// `DistanceModel` implementation ranks candidates during the incremental
/// Euclidean expansion (Algorithm 2). Both compute the exact
/// shortest-path length, which respects the Euclidean lower bound, so the
/// expansion stays sound; they differ only in how the shortest-path
/// evaluation is driven. A\* is the reference; CH is the metric the
/// `downtown_snnn` benchmark workload runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum NetworkModelKind {
    /// Euclidean-heuristic A\* over edge lengths
    /// (`senn_network::NetworkDistance`).
    AStar,
    /// Contraction-hierarchy distance oracle over the same edge lengths:
    /// distances are identical to [`NetworkModelKind::AStar`], but every
    /// exact evaluation is a hub-label merge instead of a graph search
    /// (`senn_network::ChDistance`), paired with the free-flow bound as
    /// A\* is, so a candidate costs at most one CH query. The hierarchy
    /// is preprocessed once per world, seeded by the master seed.
    Ch,
}

/// A [`SimConfig`] that cannot run: the combination of knobs is rejected
/// at build time ([`SimConfigBuilder::try_build`] /
/// [`SimConfig::validate`]) instead of panicking mid-simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimConfigError {
    /// A network distance model was requested together with
    /// [`MovementMode::FreeMovement`]. Free movement drops the road
    /// network from the world model, so there is no graph to run the
    /// metric on.
    NetworkModelWithoutRoadNetwork,
    /// A network distance model was requested together with
    /// `accept_uncertain`. Uncertain answers have no grading against the
    /// Euclidean ground truth, so expanding them under a network metric
    /// would rank unverified candidates — the combination is unsound.
    NetworkModelWithUncertainAnswers,
    /// An overlapped transport was configured with a zero-capacity queue —
    /// every request past the in-flight window would be shed on arrival.
    ZeroQueueCapacity,
    /// An overlapped transport was configured with a window of zero —
    /// the uplink could never dispatch.
    InvalidWindow,
}

impl std::fmt::Display for SimConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimConfigError::NetworkModelWithoutRoadNetwork => write!(
                f,
                "a network distance model requires MovementMode::RoadNetwork \
                 (free movement has no road graph to run the metric on)"
            ),
            SimConfigError::NetworkModelWithUncertainAnswers => write!(
                f,
                "a network distance model cannot rank uncertain answers; \
                 disable accept_uncertain"
            ),
            SimConfigError::ZeroQueueCapacity => write!(
                f,
                "the overlapped transport needs a queue capacity of at \
                 least one request (TransportPolicy::queue_cap)"
            ),
            SimConfigError::InvalidWindow => write!(
                f,
                "the overlapped transport needs a window of at least one \
                 request (TransportPolicy::window)"
            ),
        }
    }
}

impl std::error::Error for SimConfigError {}

/// How the number of requested neighbors `k` is chosen per query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KChoice {
    /// Every query uses the same `k`.
    Fixed(usize),
    /// `k` is uniform in `[lo, hi]` — the paper "chose k randomly for each
    /// host and each query in the range from 1 to 9 and 3 to 15".
    Uniform(usize, usize),
    /// Uniform in `1..=2·λ_kNN − 1`, i.e. mean `λ_kNN` (the default).
    MeanLambda,
}

/// Full configuration of a simulation run.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Table 3/4 parameters.
    pub params: SimParams,
    /// Road-network or free movement.
    pub mode: MovementMode,
    /// Master seed; every stochastic component derives from it.
    pub seed: u64,
    /// Fraction of `T_execution` discarded as warm-up.
    pub warmup_frac: f64,
    /// Mean spacing of query batches, seconds (interval lengths are
    /// exponential, i.e. batch arrivals form a Poisson process).
    pub mean_interval_secs: f64,
    /// Certain-region representation used by `kNN_multiple`.
    pub region_method: RegionMethod,
    /// How each query's `k` is drawn.
    pub k_choice: KChoice,
    /// Also run the baseline INN for every server-bound query (PAR
    /// comparison; small extra cost).
    pub compare_inn: bool,
    /// Host-side cache policy (the paper uses [`CachePolicy::MostRecent`]).
    pub cache_policy: CachePolicy,
    /// Accept a full heap of uncertain answers instead of contacting the
    /// server (Algorithm 1, line 15). Off by default; when on, the
    /// simulator grades every accepted answer against the ground truth
    /// (see [`Metrics::uncertain_exact`]).
    pub accept_uncertain: bool,
    /// Expected POI relocations per simulated hour (gas stations closing
    /// and opening elsewhere). `0.0` (the paper's setting) keeps POIs
    /// static. With churn, peer-resolved answers are graded against the
    /// current ground truth.
    pub poi_churn_per_hour: f64,
    /// Time-to-live for cached entries: peers ignore (and hosts purge)
    /// entries older than this. `None` disables TTL invalidation.
    pub cache_ttl_secs: Option<f64>,
    /// Worker threads for the batch engine's execute and measure passes,
    /// and for a sharded service backend: `None` uses every available core
    /// (`SENN_THREADS` still overrides), `Some(1)` keeps the whole run on
    /// the calling thread. Metrics are identical either way; only wall
    /// time changes.
    pub threads: Option<usize>,
    /// Shard count of the residual-query service backend: `1` serves from
    /// the single-tree [`RTreeServer`] reference backend, `> 1`
    /// strip-partitions the POI set across that many R\*-tree shards
    /// (`senn_server::ShardedService`). Query results — and therefore
    /// every recorded metric — are identical either way; only server-side
    /// fan-out and per-shard accounting change.
    pub server_shards: usize,
    /// Seeded fault injection on the service seam (`None` = no faults; a
    /// disabled config is a pure passthrough and leaves [`Metrics`]
    /// bit-identical). Each request's fate is keyed by
    /// `(seed, request id, attempt ordinal)`, so a fixed seed reproduces
    /// the exact same retry counts regardless of worker-thread count,
    /// shard count, or how submissions are coalesced into batches.
    pub fault: Option<FaultConfig>,
    /// Retry ladder of the settled client (inert when the service never
    /// fails). With [`SimConfig::transport`] set, the ladder embedded in
    /// the [`TransportPolicy`] governs instead.
    pub retry: RetryPolicy,
    /// How the one service client (`senn_core::transport::AsyncClient`)
    /// treats residuals — a query's own and its SNNN expansion rounds.
    /// `None` (the default) is the settled client
    /// (`AsyncClient::settled` around [`SimConfig::retry`]): a window no
    /// interval fills, no shedding and zero service time, drained before
    /// the interval folds, so every query is answered in the interval
    /// that issued it. `Some(policy)` overlaps: requests are
    /// *enqueued* at the interval that issued them and their completions
    /// *polled* at later interval boundaries, so round-trips overlap
    /// subsequent intervals instead of blocking, and an SNNN expansion
    /// advances one server round per matured reply.
    /// Request ids are the run-wide plan sequence in either case — so the
    /// keyed fault schedule and the transport's own service-time draws are
    /// a pure function of plan order, and recorded [`Metrics`] stay
    /// bit-identical across worker-thread counts and shard layouts.
    pub transport: Option<TransportPolicy>,
    /// Target metric for network-mode queries: `None` (the default) runs
    /// plain Euclidean SENN; `Some(kind)` runs every query as SNNN
    /// (Algorithm 2) under that road metric — peer probe, verification
    /// and a server residual per expansion round the peers cannot answer.
    /// Requires [`MovementMode::RoadNetwork`] (validated at build time).
    pub distance_model: Option<NetworkModelKind>,
    /// Safety cap on Euclidean expansion rounds per SNNN query; truncated
    /// expansions are counted in [`Metrics::expansion_cap_hits`].
    pub snnn_max_expansion: usize,
}

impl SimConfig {
    /// Defaults for a parameter set: road-network mode, 20 % warm-up, 10 s
    /// mean batch interval, exact disk-union regions, random `k`, INN shadow
    /// on, single-shard fault-free service.
    pub fn new(params: SimParams, seed: u64) -> Self {
        SimConfig {
            params,
            mode: MovementMode::RoadNetwork,
            seed,
            warmup_frac: 0.2,
            mean_interval_secs: 10.0,
            region_method: RegionMethod::default(),
            k_choice: KChoice::MeanLambda,
            compare_inn: true,
            cache_policy: CachePolicy::MostRecent,
            accept_uncertain: false,
            poi_churn_per_hour: 0.0,
            cache_ttl_secs: None,
            threads: None,
            server_shards: 1,
            fault: None,
            retry: RetryPolicy::default(),
            transport: None,
            distance_model: None,
            snnn_max_expansion: 256,
        }
    }

    /// Checks cross-field invariants — the combinations
    /// [`SimConfigBuilder::try_build`] rejects. [`Simulator::new`] calls
    /// this, so an invalid hand-assembled config fails fast with the same
    /// typed reason.
    pub fn validate(&self) -> Result<(), SimConfigError> {
        if self.distance_model.is_some() {
            if self.mode != MovementMode::RoadNetwork {
                return Err(SimConfigError::NetworkModelWithoutRoadNetwork);
            }
            if self.accept_uncertain {
                return Err(SimConfigError::NetworkModelWithUncertainAnswers);
            }
        }
        if let Some(policy) = self.transport {
            if policy.window == 0 {
                return Err(SimConfigError::InvalidWindow);
            }
            if policy.queue_cap == 0 {
                return Err(SimConfigError::ZeroQueueCapacity);
            }
        }
        Ok(())
    }

    /// Starts a fluent builder from [`SimConfig::default`].
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder {
            config: SimConfig::default(),
        }
    }

    /// Turns this configuration back into a builder for further tweaks.
    pub fn to_builder(self) -> SimConfigBuilder {
        SimConfigBuilder { config: self }
    }
}

impl Default for SimConfig {
    /// The paper's dense-urban baseline: Los Angeles 2×2 miles, seed 0.
    fn default() -> Self {
        SimConfig::new(SimParams::two_by_two(ParamSet::LosAngeles), 0)
    }
}

/// Fluent construction of a [`SimConfig`] — new knobs (like the service
/// backend and retry policy) get a builder method instead of breaking
/// every struct-literal call site. Every method overrides one field;
/// everything not set keeps the [`SimConfig::default`] value.
///
/// ```
/// use senn_sim::SimConfig;
///
/// let cfg = SimConfig::builder()
///     .seed(7)
///     .threads(2)
///     .server_shards(4)
///     .build();
/// assert_eq!(cfg.server_shards, 4);
/// assert_eq!(cfg.threads, Some(2));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct SimConfigBuilder {
    config: SimConfig,
}

impl SimConfigBuilder {
    /// Table 3/4 parameter set.
    pub fn params(mut self, params: SimParams) -> Self {
        self.config.params = params;
        self
    }

    /// Master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Road-network or free movement.
    pub fn mode(mut self, mode: MovementMode) -> Self {
        self.config.mode = mode;
        self
    }

    /// Fraction of `T_execution` discarded as warm-up.
    pub fn warmup_frac(mut self, frac: f64) -> Self {
        self.config.warmup_frac = frac;
        self
    }

    /// Mean spacing of query batches, seconds.
    pub fn mean_interval_secs(mut self, secs: f64) -> Self {
        self.config.mean_interval_secs = secs;
        self
    }

    /// Certain-region representation used by `kNN_multiple`.
    pub fn region_method(mut self, method: RegionMethod) -> Self {
        self.config.region_method = method;
        self
    }

    /// How each query's `k` is drawn.
    pub fn k_choice(mut self, choice: KChoice) -> Self {
        self.config.k_choice = choice;
        self
    }

    /// Whether to run the baseline INN shadow for the PAR comparison.
    pub fn compare_inn(mut self, on: bool) -> Self {
        self.config.compare_inn = on;
        self
    }

    /// Host-side cache policy.
    pub fn cache_policy(mut self, policy: CachePolicy) -> Self {
        self.config.cache_policy = policy;
        self
    }

    /// Accept a full heap of uncertain answers instead of the server.
    pub fn accept_uncertain(mut self, on: bool) -> Self {
        self.config.accept_uncertain = on;
        self
    }

    /// Expected POI relocations per simulated hour.
    pub fn poi_churn_per_hour(mut self, per_hour: f64) -> Self {
        self.config.poi_churn_per_hour = per_hour;
        self
    }

    /// Time-to-live for cached entries (`None` disables invalidation).
    pub fn cache_ttl_secs(mut self, ttl: Option<f64>) -> Self {
        self.config.cache_ttl_secs = ttl;
        self
    }

    /// Worker threads for the batch engine.
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = Some(threads);
        self
    }

    /// Shard count of the residual-query service backend (≥ 1).
    pub fn server_shards(mut self, shards: usize) -> Self {
        assert!(shards >= 1, "the service needs at least one shard");
        self.config.server_shards = shards;
        self
    }

    /// Seeded fault injection on the service seam.
    pub fn fault(mut self, fault: FaultConfig) -> Self {
        self.config.fault = Some(fault);
        self
    }

    /// Client-side retry/backoff/degradation policy.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.config.retry = retry;
        self
    }

    /// Overlapped service transport: residuals are enqueued through the
    /// event-driven `senn_core::transport` layer and their completions
    /// polled at later interval boundaries (see [`SimConfig::transport`]).
    pub fn transport(mut self, policy: TransportPolicy) -> Self {
        self.config.transport = Some(policy);
        self
    }

    /// Target metric for network-mode (SNNN) queries.
    pub fn distance_model(mut self, kind: NetworkModelKind) -> Self {
        self.config.distance_model = Some(kind);
        self
    }

    /// Safety cap on Euclidean expansion rounds per SNNN query.
    pub fn snnn_max_expansion(mut self, rounds: usize) -> Self {
        self.config.snnn_max_expansion = rounds;
        self
    }

    /// Finishes the build, rejecting invalid knob combinations (e.g. a
    /// network distance model without a road network) with a typed error
    /// instead of a runtime panic.
    pub fn try_build(self) -> Result<SimConfig, SimConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }

    /// Finishes the build.
    ///
    /// # Panics
    ///
    /// On an invalid knob combination — use
    /// [`SimConfigBuilder::try_build`] to handle the error.
    pub fn build(self) -> SimConfig {
        self.try_build().expect("invalid SimConfig")
    }
}

/// The configurable backend behind the sim's residual-query service seam.
/// `RTreeServer` stays the trivial 1-shard implementation of the batched
/// trait; higher shard counts use the strip-partitioned service. Both
/// return identical answers (golden-tested in `senn-server`), so the
/// choice never leaks into [`Metrics`].
pub(crate) enum ServiceBackend {
    Plain(RTreeServer),
    Sharded(ShardedService),
}

impl ServiceBackend {
    /// Mirrors a POI relocation into the backend's index. Returns `false`
    /// when `old` is stale (the index stays untouched), exactly like
    /// [`RTreeServer::relocate`].
    fn relocate(&mut self, id: u64, old: Point, new: Point) -> bool {
        match self {
            ServiceBackend::Plain(s) => s.relocate(id, old, new),
            ServiceBackend::Sharded(s) => s.relocate(id, old, new),
        }
    }
}

impl SpatialService for ServiceBackend {
    fn submit(&self, batch: &[ServerRequest]) -> Vec<ServerReply> {
        match self {
            ServiceBackend::Plain(s) => s.submit(batch),
            ServiceBackend::Sharded(s) => s.submit(batch),
        }
    }

    fn poi_count(&self) -> usize {
        match self {
            ServiceBackend::Plain(s) => s.poi_count(),
            ServiceBackend::Sharded(s) => s.poi_count(),
        }
    }
}

/// The simulator state.
pub struct Simulator {
    pub(crate) config: SimConfig,
    /// The world's road network: always built, because POIs snap to it
    /// in either movement mode.
    pub(crate) network: RoadNetwork,
    /// Point-to-node snapper over `network` (SNNN models anchor queries
    /// and POIs through it).
    pub(crate) locator: NodeLocator,
    /// The configured road-network metric with its index; `None` on a
    /// Euclidean-only run.
    pub(crate) road_metric: Option<RoadMetric>,
    /// Current POI positions, indexed by POI id (ground truth mirror).
    pub(crate) poi_positions: Vec<Point>,
    /// The truth server: measurement-only calls (grading, the EINN/INN
    /// shadow) always run here so metrics are invariant to the backend.
    pub(crate) server: RTreeServer,
    /// The one route to the service: the configured backend behind the
    /// (possibly disabled) fault wrapper, behind the client every residual
    /// and SNNN round goes through.
    pub(crate) uplink: Uplink,
    pub(crate) engine: SennEngine,
    /// Struct-of-arrays host substrate: position/mobility/stream columns, the
    /// movers visit list, and the sparse cache side table.
    pub(crate) store: HostStore,
    pub(crate) rng: SmallRng,
    pub(crate) metrics: Metrics,
    pub(crate) time: f64,
    pub(crate) warmed_up: bool,
    /// Peer-discovery grid over the store's position column — maintained
    /// incrementally during the movement pass; read-only while a batch
    /// executes.
    pub(crate) grid: HostGrid,
    /// The movement pass's staged cell crossings, committed to `grid` at
    /// the end of each pass; kept so its capacity is reused.
    pub(crate) crossings: Vec<CellMove>,
    pub(crate) batch_stats: BatchStats,
    /// The queries the last fold finished ([`Simulator::last_answers`]).
    pub(crate) answers: Vec<Answer>,
    /// The SNNN expand pass's pooled walks and round buffers (one set per
    /// simulator, sized by an interval's expanding queries).
    pub(crate) expand_scratch: ExpandScratch,
}

/// One finished query, as [`Simulator::last_answers`] hands it out: what
/// was asked, how it was resolved and what the querier was told.
#[derive(Clone, Debug, PartialEq)]
pub struct Answer {
    /// Where the querier stood.
    pub query: Point,
    /// How many nearest POIs it asked for.
    pub k: usize,
    /// Who answered.
    pub resolution: Resolution,
    /// The answer, ascending by distance.
    pub results: Vec<HeapEntry>,
}

/// One host of the end-of-run snapshot [`Simulator::rknn_hosts`] hands
/// out; its index in that list is its host id.
#[derive(Clone, Debug, PartialEq)]
pub struct RknnHost {
    /// Where the host stands.
    pub position: Point,
    /// Distances from `position` to the distinct POIs the host's cache
    /// holds, ascending; empty without a cache or under POI churn.
    pub cached_dists: Vec<f64>,
}

/// A [`NetworkModelKind`] with the index it runs on. The contraction
/// hierarchy is part of the world: built once, seeded by the master seed
/// so runs are reproducible, and shared by every batch of the run.
pub(crate) enum RoadMetric {
    AStar,
    Ch(senn_network::ChIndex),
}

impl RoadMetric {
    fn build(kind: NetworkModelKind, network: &RoadNetwork, seed: u64) -> Self {
        match kind {
            NetworkModelKind::AStar => RoadMetric::AStar,
            NetworkModelKind::Ch => {
                RoadMetric::Ch(senn_network::ChIndex::build_seeded(network, seed))
            }
        }
    }
}

/// Wall-clock statistics of the batch-execution phase, accumulated over a
/// whole run (warm-up included). Timing is observation only — it never
/// feeds back into the simulation, so instrumentation cannot perturb
/// determinism.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BatchStats {
    /// Executed batches (only batches that had at least one query).
    pub batches: u64,
    /// Queries executed across all batches.
    pub queries: u64,
    /// Total wall time spent in the execute phase, seconds.
    pub exec_secs: f64,
    /// Wall time of the slowest single batch, seconds.
    pub peak_batch_secs: f64,
    /// Query count of that slowest batch.
    pub peak_batch_queries: u64,
    /// Wall nanoseconds per pipeline stage, summed over every executed
    /// query (indexed by [`senn_core::Stage`]; see
    /// [`senn_core::STAGE_NAMES`]).
    pub stage_nanos: [u64; STAGE_COUNT],
    /// Times each pipeline stage ran, summed over every executed query.
    pub stage_calls: [u64; STAGE_COUNT],
    /// SNNN expansion rounds executed across all batches (0 unless a
    /// [`NetworkModelKind`] is configured).
    pub snnn_rounds: u64,
    /// Expand passes whose parked SNNN rounds went to the service client:
    /// one per pass in which at least one expansion needed the server (an
    /// interval without [`SimConfig::transport`] runs a pass per drain,
    /// and one drain can carry rounds of different depths).
    pub snnn_submissions: u64,
    /// Wall time of the movement pass (host stepping + incremental grid
    /// maintenance) across the whole run, seconds.
    pub move_secs: f64,
    /// The part of `move_secs` spent committing the staged cell crossings
    /// to the grid (grid upkeep), across the whole run, seconds. Timed
    /// once per interval, so `grid_secs <= move_secs` always.
    pub grid_secs: f64,
    /// Grid cell-boundary crossings the movement pass applied — the
    /// per-interval grid work actually paid.
    pub grid_cell_moves: u64,
    /// Route searches road movers ran (0 in free movement).
    pub route_plans: u64,
    /// Nodes those searches settled, from the kernel's `SearchStats`.
    pub route_settles: u64,
    /// Wall time of building the road network's route index
    /// (`RoadNetwork::route_index`), paid inside the first movement pass
    /// that has road movers and counted in `move_secs`; 0 when no trip is
    /// ever planned. Plans themselves are not timed one by one.
    pub route_index_secs: f64,
    /// Peak queued residuals across uplink lanes observed at any transport
    /// event. Like every field below, reported only with
    /// [`SimConfig::transport`] set (0 under the settled policy).
    pub queue_depth_peak: u64,
    /// Peak in-flight residuals across uplink lanes.
    pub in_flight_peak: u64,
    /// Residual requests refused by transport admission control
    /// (`ReplyStatus::Shed`).
    pub shed_count: u64,
    /// Median end-to-end *virtual* latency (ms, enqueue → completion) of
    /// completed residuals, from the transport's log2 histogram.
    pub latency_p50_ms: f64,
    /// p99 end-to-end virtual latency, ms.
    pub latency_p99_ms: f64,
}

impl BatchStats {
    pub(crate) fn record(&mut self, secs: f64, queries: u64) {
        self.batches += 1;
        self.queries += queries;
        self.exec_secs += secs;
        if secs > self.peak_batch_secs {
            self.peak_batch_secs = secs;
            self.peak_batch_queries = queries;
        }
    }
}

impl Simulator {
    /// Builds the world: road network (when needed), POIs, hosts.
    pub fn new(config: SimConfig) -> Self {
        config
            .validate()
            .expect("invalid SimConfig (use SimConfigBuilder::try_build to handle the error)");
        let params = &config.params;
        assert!(params.mh_number >= 1, "need at least one host");
        assert!(
            (0.0..1.0).contains(&config.warmup_frac),
            "warm-up must be in [0,1)"
        );
        let side = params.area_side_m();
        let area = Rect::new(Point::ORIGIN, Point::new(side, side));
        let mut rng = SmallRng::seed_from_u64(config.seed);

        // Road network (also generated in free-movement mode so POI
        // placement matches across mode comparisons — POIs sit near roads).
        let network = generate_network(&GeneratorConfig::city(side, config.seed ^ 0x9e37));
        let locator = NodeLocator::new(&network);

        // POIs: uniform positions snapped near the network (gas stations
        // sit on streets).
        let mut pois = Vec::with_capacity(params.poi_number);
        for i in 0..params.poi_number {
            let raw = Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side));
            let snapped = locator
                .nearest(raw)
                .map(|n| network.position(n))
                .unwrap_or(raw);
            // Offset slightly off the junction so distances are generic.
            let jitterx = rng.gen_range(-20.0..20.0);
            let jittery = rng.gen_range(-20.0..20.0);
            let p = Point::new(
                (snapped.x + jitterx).clamp(0.0, side),
                (snapped.y + jittery).clamp(0.0, side),
            );
            pois.push((i as u64, p));
        }
        let poi_positions: Vec<Point> = pois.iter().map(|(_, p)| *p).collect();
        assert!(
            config.server_shards >= 1,
            "the service needs at least one shard"
        );
        let server = RTreeServer::new(pois.iter().copied());
        let backend = if config.server_shards > 1 {
            let sharded = ShardedService::new(pois, config.server_shards);
            // `None` leaves the service its default, every available core.
            ServiceBackend::Sharded(match config.threads {
                Some(threads) => sharded.with_threads(threads),
                None => sharded,
            })
        } else {
            // A bulk load is a pure function of the POIs, so the backend
            // starts as a copy of the truth server's tree.
            ServiceBackend::Plain(server.clone())
        };
        let service = FaultyService::new(backend, config.fault.unwrap_or_default());
        let uplink = Uplink::new(service, config.seed, config.transport, config.retry);

        // Hosts: random start positions; `M_Percentage` of them move.
        // Urban trips are local: a couple of kilometers between stops keeps
        // the displacement from a host's cached query location diffusive
        // rather than ballistic, which is what makes sharing effective.
        let mover_cfg = RoadMoverConfig {
            velocity_mps: params.velocity_mps(),
            max_pause_secs: 600.0,
            trip_radius: (side * 0.5).min(3000.0),
        };
        let mut waypoint_cfg = WaypointConfig::new(area, params.velocity_mps());
        waypoint_cfg.max_pause_secs = mover_cfg.max_pause_secs;
        waypoint_cfg.trip_radius = Some(mover_cfg.trip_radius);
        let free = config.mode == MovementMode::FreeMovement;
        let mut store = HostStore::new(
            config.cache_policy,
            params.c_size,
            params.mh_number,
            free.then_some(waypoint_cfg),
            config.seed,
        );
        for _ in 0..params.mh_number {
            store.push_host(|host_rng| {
                let start =
                    Point::new(host_rng.gen_range(0.0..side), host_rng.gen_range(0.0..side));
                if !host_rng.gen_bool(params.m_percentage) {
                    Spawn::Parked(start)
                } else if free {
                    Spawn::Free(start)
                } else {
                    let node = locator.nearest(start).expect("network non-empty");
                    Spawn::Road(RoadMover::new(&network, node, mover_cfg))
                }
            });
        }

        let engine = SennEngine::new(SennConfig {
            region_method: config.region_method,
            accept_uncertain: config.accept_uncertain,
            server_fetch: params.c_size,
        });

        // The grid indexes the store's position column from the start, so
        // incremental maintenance has a valid baseline before any batch.
        let grid = HostGrid::build(area, config.params.tx_range_m.max(1.0), store.positions());
        let road_metric = config
            .distance_model
            .map(|kind| RoadMetric::build(kind, &network, config.seed));
        Simulator {
            config,
            network,
            locator,
            road_metric,
            poi_positions,
            server,
            uplink,
            engine,
            store,
            rng,
            metrics: Metrics::new(),
            time: 0.0,
            warmed_up: false,
            grid,
            crossings: Vec::new(),
            batch_stats: BatchStats::default(),
            answers: Vec::new(),
            expand_scratch: ExpandScratch::default(),
        }
    }

    /// The configuration of this run.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The road network of the world. Every world has one (POIs snap to
    /// it in either movement mode), so this is always `Some`; the
    /// `Option` is kept for existing callers.
    pub fn network(&self) -> Option<&RoadNetwork> {
        Some(&self.network)
    }

    /// The server module (the ground-truth single-tree backend).
    pub fn server(&self) -> &RTreeServer {
        &self.server
    }

    /// Per-shard observability counters of the residual-query service —
    /// `Some` when the sharded backend is configured (`server_shards > 1`).
    pub fn service_metrics(&self) -> Option<ServiceMetrics> {
        match self.uplink.client.service().inner() {
            ServiceBackend::Sharded(s) => Some(s.metrics()),
            ServiceBackend::Plain(_) => None,
        }
    }

    /// Observability counters of the overlapped transport — `Some` when
    /// [`SimConfig::transport`] is configured. Queue-depth and in-flight
    /// peaks, shed count and the end-to-end virtual latency histogram;
    /// every quantity is virtual, so the snapshot is as deterministic as
    /// the metrics themselves.
    pub fn transport_stats(&self) -> Option<&senn_core::transport::TransportStats> {
        self.config.transport.map(|_| self.uplink.client.stats())
    }

    /// Collected metrics (post warm-up).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Current simulated time in seconds.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Wall-clock statistics of the batch execute phase (for benchmarks;
    /// unrelated to simulated time).
    pub fn batch_stats(&self) -> &BatchStats {
        &self.batch_stats
    }

    /// Runs the configured `T_execution` (including warm-up) and returns
    /// the steady-state metrics.
    pub fn run(&mut self) -> Metrics {
        while self.step() {}
        // Residuals still in flight at the horizon (only an overlapped
        // transport leaves any) are drained — their completions measured
        // and folded — so every issued query is attributed exactly once.
        self.drain_transport();
        self.metrics.clone()
    }

    /// Advances the simulation by one query interval: movement, POI churn,
    /// then the interval's query batch, whose answers
    /// [`Simulator::last_answers`] holds until the next one. Returns false,
    /// having done nothing, once `T_execution` is reached;
    /// [`Simulator::run`] is this in a loop (and ends by draining the
    /// overlapped transport, which stepping alone does not).
    pub fn step(&mut self) -> bool {
        let total = self.config.params.duration_secs();
        if self.time >= total {
            return false;
        }
        // Next query batch after an exponential interval.
        let u: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        let interval = -u.ln() * self.config.mean_interval_secs;
        let interval = interval.min(total - self.time).max(1e-6);
        self.advance_movement(interval);
        self.apply_poi_churn(interval);
        self.time += interval;
        if !self.warmed_up && self.time >= total * self.config.warmup_frac {
            self.metrics.reset();
            self.warmed_up = true;
        }
        self.run_query_batch(interval);
        true
    }

    /// The queries the last fold finished, in fold order: those the last
    /// interval issued (under an overlapped transport: the ones resolved
    /// locally plus the residuals that matured), or after
    /// [`Simulator::run`] those its final drain completed. Empty when
    /// there were none.
    pub fn last_answers(&self) -> &[Answer] {
        &self.answers
    }

    /// Current POI positions, indexed by POI id: with
    /// [`Simulator::rknn_hosts`], the end-of-run snapshot of the world.
    pub fn poi_positions(&self) -> &[Point] {
        &self.poi_positions
    }

    /// One [`RknnHost`] per host, indexed by host id: where it stands and
    /// the distances from there to the distinct POIs its NN cache holds,
    /// sorted ascending. With [`Simulator::poi_positions`], the
    /// end-of-run snapshot of the world. Cached positions go stale once a
    /// POI relocates, so under POI churn every distance list is empty.
    pub fn rknn_hosts(&self) -> Vec<RknnHost> {
        let use_caches = self.config.poi_churn_per_hour <= 0.0;
        (0..self.store.len() as u32)
            .map(|h| {
                let position = self.store.position(h);
                let mut seen: Vec<u64> = Vec::new();
                let mut cached_dists: Vec<f64> = Vec::new();
                if use_caches {
                    if let Some(cache) = self.store.cache(h) {
                        for entry in cache.iter() {
                            for nn in &entry.neighbors {
                                if !seen.contains(&nn.poi_id) {
                                    seen.push(nn.poi_id);
                                    cached_dists.push(position.dist(nn.position));
                                }
                            }
                        }
                    }
                }
                cached_dists.sort_by(f64::total_cmp);
                RknnHost {
                    position,
                    cached_dists,
                }
            })
            .collect()
    }

    /// Relocates a Poisson-distributed number of POIs for the elapsed
    /// interval (uniform new positions near the road network).
    fn apply_poi_churn(&mut self, interval_secs: f64) {
        if self.config.poi_churn_per_hour <= 0.0 || self.poi_positions.is_empty() {
            return;
        }
        let lambda = self.config.poi_churn_per_hour * interval_secs / 3600.0;
        let moves = poisson(lambda, &mut self.rng);
        let side = self.config.params.area_side_m();
        for _ in 0..moves {
            let id = self.rng.gen_range(0..self.poi_positions.len());
            let new_pos = Point::new(self.rng.gen_range(0.0..side), self.rng.gen_range(0.0..side));
            let old = self.poi_positions[id];
            if self.server.relocate(id as u64, old, new_pos) {
                // The service backend mirrors the truth server's index.
                let mirrored = self
                    .uplink
                    .client
                    .service_mut()
                    .inner_mut()
                    .relocate(id as u64, old, new_pos);
                debug_assert!(mirrored, "service backend diverged from truth server");
                self.poi_positions[id] = new_pos;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{ParamSet, SimParams};

    fn tiny_config(seed: u64) -> SimConfig {
        let mut params = SimParams::two_by_two(ParamSet::LosAngeles);
        params.t_execution_hours = 0.05; // 3 simulated minutes
        SimConfig::new(params, seed)
    }

    #[test]
    fn simulation_runs_and_issues_queries() {
        let mut sim = Simulator::new(tiny_config(1));
        let m = sim.run();
        assert!(m.queries > 0, "no queries issued");
        assert_eq!(
            m.queries,
            m.single_peer + m.multi_peer + m.server + m.accepted_uncertain,
            "every query is attributed exactly once"
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed| {
            let mut sim = Simulator::new(tiny_config(seed));
            let m = sim.run();
            (
                m.queries,
                m.server,
                m.single_peer,
                m.multi_peer,
                m.einn_accesses,
            )
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn free_movement_mode_runs() {
        let mut cfg = tiny_config(3);
        cfg.mode = MovementMode::FreeMovement;
        let mut sim = Simulator::new(cfg);
        let m = sim.run();
        assert!(m.queries > 0);
    }

    #[test]
    fn sharing_reduces_server_load_in_dense_world() {
        // Dense hosts + long horizon: a large share of queries must be
        // peer-answered once caches are warm.
        let mut params = SimParams::two_by_two(ParamSet::LosAngeles);
        params.t_execution_hours = 0.2;
        let mut cfg = SimConfig::new(params, 7);
        cfg.compare_inn = false;
        let mut sim = Simulator::new(cfg);
        let m = sim.run();
        assert!(m.queries > 100);
        assert!(
            m.sqrr() < 0.9,
            "dense scenario should offload some queries to peers (sqrr={})",
            m.sqrr()
        );
        assert!(m.single_peer + m.multi_peer > 0);
    }

    #[test]
    fn einn_never_reads_more_pages_than_inn() {
        let mut sim = Simulator::new(tiny_config(11));
        let m = sim.run();
        if m.server > 0 {
            assert!(
                m.einn_accesses <= m.inn_accesses,
                "EINN {} vs INN {}",
                m.einn_accesses,
                m.inn_accesses
            );
        }
    }

    #[test]
    fn fixed_k_is_respected() {
        let mut cfg = tiny_config(13);
        cfg.k_choice = KChoice::Fixed(4);
        let mut sim = Simulator::new(cfg);
        let m = sim.run();
        assert!(m.per_k.keys().all(|&k| k == 4));
    }

    #[test]
    fn heap_states_recorded_for_server_queries() {
        let mut sim = Simulator::new(tiny_config(99));
        let m = sim.run();
        let total: u64 = m.heap_states.iter().sum();
        assert_eq!(total, m.server, "one state per server-bound query");
    }

    #[test]
    fn stage_timings_accumulate_in_batch_stats() {
        let mut sim = Simulator::new(tiny_config(5));
        let m = sim.run();
        let stats = sim.batch_stats();
        // Every query runs PeerProbe exactly once (stage 0), even over an
        // empty peer set; pure-Euclidean runs never hit the expansion cap.
        assert!(stats.stage_calls[0] >= m.queries);
        assert_eq!(m.expansion_cap_hits, 0);
        // Server-resolved queries each ran the residual stage.
        assert!(stats.stage_calls[3] >= m.server);
    }

    #[test]
    fn network_model_without_road_network_is_rejected_at_build_time() {
        let err = SimConfig::builder()
            .mode(MovementMode::FreeMovement)
            .distance_model(NetworkModelKind::AStar)
            .try_build()
            .unwrap_err();
        assert_eq!(err, SimConfigError::NetworkModelWithoutRoadNetwork);
        // The message names the fix, not just the failure.
        assert!(err.to_string().contains("RoadNetwork"));
    }

    #[test]
    fn network_model_with_uncertain_answers_is_rejected() {
        let err = SimConfig::builder()
            .accept_uncertain(true)
            .distance_model(NetworkModelKind::Ch)
            .try_build()
            .unwrap_err();
        assert_eq!(err, SimConfigError::NetworkModelWithUncertainAnswers);
    }

    #[test]
    fn zero_transport_queue_capacity_is_rejected() {
        let err = SimConfig::builder()
            .transport(TransportPolicy {
                queue_cap: 0,
                ..TransportPolicy::default()
            })
            .try_build()
            .unwrap_err();
        assert_eq!(err, SimConfigError::ZeroQueueCapacity);
        assert!(err.to_string().contains("queue"));
    }

    #[test]
    fn zero_transport_window_is_rejected() {
        let err = SimConfig::builder()
            .transport(TransportPolicy {
                window: 0,
                ..TransportPolicy::default()
            })
            .try_build()
            .unwrap_err();
        assert_eq!(err, SimConfigError::InvalidWindow);
        // The message names the knob to fix.
        assert!(err.to_string().contains("window"));
    }

    #[test]
    fn snnn_rides_the_overlapped_transport() {
        // Expansion rounds are residuals like any other: under the
        // overlapped transport and a lossy service they advance one round
        // per matured reply, and the run stays a pure function of the plan.
        for model in [NetworkModelKind::AStar, NetworkModelKind::Ch] {
            let mut reference = None;
            for (threads, shards) in [(1, 1), (1, 3), (2, 1), (2, 3)] {
                let cfg = tiny_config(23)
                    .to_builder()
                    .distance_model(model)
                    .transport(TransportPolicy::default())
                    .fault(FaultConfig::lossy(5))
                    .threads(threads)
                    .server_shards(shards)
                    .build();
                let mut sim = Simulator::new(cfg);
                let m = sim.run();
                assert_eq!(
                    m.queries,
                    m.single_peer + m.multi_peer + m.server + m.accepted_uncertain,
                    "{model:?}: every query is attributed exactly once"
                );
                assert!(m.server_retries > 0, "a lossy service must force retries");
                let rounds = sim.batch_stats().snnn_rounds;
                assert!(rounds > 0, "{model:?}: no expansion rounds ran");
                let stats = sim.transport_stats().expect("overlapped mode").clone();
                let run = (m, rounds, stats);
                match &reference {
                    None => reference = Some(run),
                    Some(r) => assert!(
                        &run == r,
                        "{model:?} diverged at threads={threads} shards={shards}"
                    ),
                }
            }
        }
    }

    #[test]
    fn overlapped_transport_attributes_every_query() {
        // Residuals complete in later intervals (or in the final drain),
        // yet every issued query must still be attributed exactly once
        // and travel through the transport's counters.
        let cfg = tiny_config(17)
            .to_builder()
            .transport(TransportPolicy::default())
            .build();
        let mut sim = Simulator::new(cfg);
        let m = sim.run();
        assert!(m.queries > 0, "no queries issued");
        assert_eq!(
            m.queries,
            m.single_peer + m.multi_peer + m.server + m.accepted_uncertain,
            "every query is attributed exactly once"
        );
        let stats = sim.transport_stats().expect("overlapped mode");
        assert!(stats.enqueued > 0, "residuals must ride the transport");
        // After the final drain nothing is left in flight.
        assert_eq!(stats.completed, stats.enqueued);
        assert!(sim.batch_stats().in_flight_peak > 0);
        // Transport counters span the whole run; `Metrics` reset at
        // warm-up — the snapshot can only be larger.
        assert!(sim.batch_stats().shed_count >= m.server_shed);
    }

    #[test]
    #[should_panic(expected = "invalid SimConfig")]
    fn build_panics_on_invalid_combination() {
        let _ = SimConfig::builder()
            .mode(MovementMode::FreeMovement)
            .distance_model(NetworkModelKind::Ch)
            .build();
    }

    #[test]
    fn churn_and_ttl_behave() {
        // Without churn nothing is graded; with churn some peer answers
        // are graded and a TTL reduces the stale rate.
        let mut base = tiny_config(31);
        base.params.t_execution_hours = 0.3;
        base.compare_inn = false;

        let mut no_churn = Simulator::new(base);
        let m0 = no_churn.run();
        assert_eq!(m0.peer_answers_graded, 0);
        assert_eq!(m0.stale_answer_rate(), 0.0);

        let mut churned_cfg = base;
        churned_cfg.poi_churn_per_hour = 16.0;
        let mut churned = Simulator::new(churned_cfg);
        let mc = churned.run();
        assert!(
            mc.peer_answers_graded > 0,
            "churn runs must grade peer answers"
        );
        assert!(
            mc.peer_answers_wrong > 0,
            "heavy churn must produce stale answers"
        );

        let mut ttl_cfg = churned_cfg;
        ttl_cfg.cache_ttl_secs = Some(240.0);
        let mut with_ttl = Simulator::new(ttl_cfg);
        let mt = with_ttl.run();
        assert!(
            mt.stale_answer_rate() < mc.stale_answer_rate(),
            "TTL must reduce staleness ({:.2} vs {:.2})",
            mt.stale_answer_rate(),
            mc.stale_answer_rate()
        );
        // The ground truth mirror stays consistent with the server.
        let (hits, _) = with_ttl
            .server()
            .tree()
            .range_query(senn_geom::Rect::new(Point::ORIGIN, Point::new(1e9, 1e9)));
        assert_eq!(hits.len(), with_ttl.poi_positions.len());
        for (p, id) in hits {
            assert_eq!(with_ttl.poi_positions[*id as usize], p);
        }
    }

    #[test]
    fn rknn_hosts_snapshots_every_host_and_its_cache() {
        let mut sim = Simulator::new(tiny_config(3));
        sim.run();
        let hosts = sim.rknn_hosts();
        assert_eq!(hosts.len(), sim.store.len());
        let mut cached = 0;
        for (h, host) in hosts.iter().enumerate() {
            let h = h as u32;
            assert_eq!(host.position, sim.store.position(h), "host {h}");
            assert!(
                host.cached_dists.windows(2).all(|w| w[0] <= w[1]),
                "host {h}: distances not ascending"
            );
            let mut ids: Vec<u64> = sim
                .store
                .cache(h)
                .into_iter()
                .flat_map(|c| c.iter())
                .flat_map(|e| e.neighbors.iter().map(|nn| nn.poi_id))
                .collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(host.cached_dists.len(), ids.len(), "host {h}");
            cached += ids.len();
        }
        assert!(cached > 0, "a warmed run leaves POIs in the caches");

        // Under POI churn the cached positions may be stale: every list
        // is empty even though the caches are not.
        let mut churned = tiny_config(3);
        churned.poi_churn_per_hour = 16.0;
        let mut sim = Simulator::new(churned);
        sim.run();
        assert!((0..sim.store.len() as u32).any(|h| sim.store.cache(h).is_some()));
        let hosts = sim.rknn_hosts();
        assert_eq!(hosts.len(), sim.store.len());
        assert!(hosts.iter().all(|h| h.cached_dists.is_empty()));
    }
}
