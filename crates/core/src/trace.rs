//! The unified query trace: attribution, server accounting and per-stage
//! timing shared by SENN and SNNN outcomes.
//!
//! Every query — one SENN round, or an SNNN query's SENN round and range
//! round — produces a single [`QueryTrace`] that records how each round was
//! resolved, how many server node accesses it cost, whether the SNNN
//! expansion cap truncated the search, and how much wall time each of the
//! four pipeline stages consumed. `senn-sim` folds traces directly into
//! its metrics; benchmarks read the stage timings.

/// How a SENN round was resolved — the attribution behind the paper's
/// "queries solved by single-peer / multi-peer / server" percentages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Resolution {
    /// All `k` NNs verified by sequential single-peer verification.
    SinglePeer,
    /// Completed only by the merged multi-peer certain region.
    MultiPeer,
    /// `H` was full and the host accepted the uncertain answer set.
    AcceptedUncertain,
    /// The residual query went to the spatial database server.
    Server,
    /// Peer phases ran but did not complete, and no server was consulted
    /// (only produced by peers-only queries).
    Unresolved,
}

/// The four stages of the query pipeline, in execution order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Stage 0: gather, filter and sort the peer caches (Heuristic 3.3).
    PeerProbe,
    /// Stage 1: `kNN_single` — per-peer verification (§3.2.1).
    SingleVerify,
    /// Stage 2: `kNN_multiple` — merged certain region `R_c` (§3.2.2).
    MultiVerify,
    /// Stage 3: residual server query with EINN bounds (§3.3).
    ServerResidual,
}

/// Number of pipeline stages.
pub const STAGE_COUNT: usize = 4;

/// Stage names, indexed like [`QueryTrace::stage_nanos`] — stable
/// identifiers for benchmark output.
pub const STAGE_NAMES: [&str; STAGE_COUNT] = [
    "peer_probe",
    "single_verify",
    "multi_verify",
    "server_residual",
];

impl Stage {
    /// Index of the stage into [`QueryTrace::stage_nanos`].
    pub fn index(self) -> usize {
        match self {
            Stage::PeerProbe => 0,
            Stage::SingleVerify => 1,
            Stage::MultiVerify => 2,
            Stage::ServerResidual => 3,
        }
    }

    /// Stable display name of the stage.
    pub fn name(self) -> &'static str {
        STAGE_NAMES[self.index()]
    }
}

/// Unified outcome trace of a query (SENN: one round; SNNN: the initial
/// round plus the range round, when the expansion ran one).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QueryTrace {
    /// Resolution of each SENN round, in order. A plain SENN query has
    /// exactly one entry.
    pub resolutions: Vec<Resolution>,
    /// Total server node accesses across all rounds (`0` when the server
    /// was never contacted).
    pub server_accesses: u64,
    /// True when the server answered at least one round.
    pub server_contacted: bool,
    /// True when SNNN's `max_expansion` cap (or a failed range request)
    /// ended the expansion before the network-distance bound confirmed
    /// the answer — the results may be inexact (see
    /// `SnnnConfig::max_expansion`).
    pub cap_hit: bool,
    /// Re-submissions the retry layer performed for this query's residual
    /// requests (degraded attempts included; `0` when every attempt
    /// succeeded first time or the server was never needed).
    pub server_retries: u32,
    /// Residual-request attempts that ended in a timeout.
    pub server_timeouts: u32,
    /// Residual-request attempts the service (or network) dropped.
    pub server_drops: u32,
    /// Residual requests the transport's admission control refused
    /// (`ReplyStatus::Shed`) — terminal refusals under overload, `0`
    /// under the settled policy or an uncongested transport.
    pub server_shed: u32,
    /// True when at least one residual answer came from the degraded
    /// (unpruned) last rung of the retry ladder.
    pub server_degraded: bool,
    /// True when a residual request exhausted every attempt and the query
    /// fell back to whatever the peers verified locally.
    pub server_failed: bool,
    /// Lower-bound oracle consultations the SNNN expansion performed
    /// (`0` for plain SENN and for expansions that never reached the
    /// candidate stage).
    pub lb_evals: u64,
    /// Exact model distance evaluations the expansion skipped because an
    /// admissible lower bound already exceeded the k-th network distance.
    pub model_evals_saved: u64,
    /// Wall-clock nanoseconds spent per stage (observation only; never
    /// fed back into any algorithmic decision).
    pub stage_nanos: [u64; STAGE_COUNT],
    /// Number of times each stage ran.
    pub stage_calls: [u64; STAGE_COUNT],
}

impl QueryTrace {
    /// An empty trace.
    pub fn new() -> Self {
        QueryTrace::default()
    }

    /// Clears the trace for reuse, keeping the `resolutions` allocation.
    pub fn reset(&mut self) {
        self.resolutions.clear();
        self.server_accesses = 0;
        self.server_contacted = false;
        self.cap_hit = false;
        self.server_retries = 0;
        self.server_timeouts = 0;
        self.server_drops = 0;
        self.server_shed = 0;
        self.server_degraded = false;
        self.server_failed = false;
        self.lb_evals = 0;
        self.model_evals_saved = 0;
        self.stage_nanos = [0; STAGE_COUNT];
        self.stage_calls = [0; STAGE_COUNT];
    }

    /// Number of SENN rounds folded into this trace.
    pub fn senn_rounds(&self) -> usize {
        self.resolutions.len()
    }

    /// The resolution of the *first* round — what the paper attributes
    /// (SNNN's range round only refines the ranking; the initial kNN round
    /// is the query). [`Resolution::Unresolved`] for an empty trace.
    pub fn resolution(&self) -> Resolution {
        self.resolutions
            .first()
            .copied()
            .unwrap_or(Resolution::Unresolved)
    }

    /// Records a finished stage invocation.
    pub fn record_stage(&mut self, stage: Stage, nanos: u64) {
        let i = stage.index();
        self.stage_nanos[i] += nanos;
        self.stage_calls[i] += 1;
    }

    /// Records the server's completion of the round in flight: its
    /// [`Resolution::Unresolved`] becomes [`Resolution::Server`], with the
    /// search's node accesses and a [`Stage::ServerResidual`] record.
    pub(crate) fn record_server(&mut self, node_accesses: u64, nanos: u64) {
        if self.resolutions.last() == Some(&Resolution::Unresolved) {
            self.resolutions.pop();
        }
        self.resolutions.push(Resolution::Server);
        self.server_accesses += node_accesses;
        self.server_contacted = true;
        self.record_stage(Stage::ServerResidual, nanos);
    }

    /// Attributes the retry layer's disposition of one residual request
    /// (a `senn_core::service::RequestOutcome`) to this query.
    pub fn record_service_outcome(&mut self, outcome: &crate::service::RequestOutcome) {
        self.server_retries += outcome.retries;
        self.server_timeouts += outcome.timeouts;
        self.server_drops += outcome.drops;
        self.server_shed += outcome.shed;
        self.server_degraded |= outcome.degraded;
        self.server_failed |= outcome.failed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_trace_is_unresolved() {
        let t = QueryTrace::new();
        assert_eq!(t.resolution(), Resolution::Unresolved);
        assert_eq!(t.senn_rounds(), 0);
        assert!(!t.server_contacted);
        assert!(!t.cap_hit);
    }

    #[test]
    fn stage_names_line_up() {
        for (i, stage) in [
            Stage::PeerProbe,
            Stage::SingleVerify,
            Stage::MultiVerify,
            Stage::ServerResidual,
        ]
        .into_iter()
        .enumerate()
        {
            assert_eq!(stage.index(), i);
            assert_eq!(stage.name(), STAGE_NAMES[i]);
        }
    }

    #[test]
    fn reset_keeps_nothing() {
        let mut t = QueryTrace::new();
        t.resolutions.push(Resolution::Server);
        t.server_accesses = 3;
        t.server_contacted = true;
        t.cap_hit = true;
        t.server_retries = 2;
        t.server_timeouts = 1;
        t.server_drops = 1;
        t.server_shed = 1;
        t.server_degraded = true;
        t.server_failed = true;
        t.lb_evals = 4;
        t.model_evals_saved = 2;
        t.record_stage(Stage::MultiVerify, 5);
        t.reset();
        assert_eq!(t, QueryTrace::new());
    }

    #[test]
    fn service_outcome_attribution_accumulates() {
        use crate::service::RequestOutcome;
        let mut t = QueryTrace::new();
        t.record_service_outcome(&RequestOutcome {
            retries: 2,
            timeouts: 1,
            drops: 1,
            degraded: true,
            ..Default::default()
        });
        t.record_service_outcome(&RequestOutcome {
            retries: 1,
            timeouts: 1,
            failed: true,
            ..Default::default()
        });
        t.record_service_outcome(&RequestOutcome {
            shed: 1,
            failed: true,
            ..Default::default()
        });
        assert_eq!(t.server_retries, 3);
        assert_eq!(t.server_timeouts, 2);
        assert_eq!(t.server_drops, 1);
        assert_eq!(t.server_shed, 1);
        assert!(t.server_degraded && t.server_failed);
    }
}
