//! Simulation metrics: SQRR (spatial query request rate) and PAR (page
//! access rate).
//!
//! * **SQRR** — "how many percent of the total client spatial queries are
//!   required to be processed by the spatial database server".
//! * **PAR** — "server side memory (primary and secondary) access rate for
//!   a sequence of spatial queries", measured as R\*-tree node accesses.
//!   For every server-bound query the simulator runs both the original INN
//!   algorithm and the bounds-extended EINN (exactly like the paper's
//!   server module) and records both counts.

use std::collections::BTreeMap;

use senn_core::{QueryTrace, Resolution};

/// Latency cost model for the paper's "improving access latency" claim.
///
/// Per query: one ad-hoc round-trip per peer cache entry received (peer
/// messages overlap poorly on a shared channel, so they are summed), plus
/// — for server-bound queries — a cellular round-trip and a per-page
/// service cost.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencyModel {
    /// Ad-hoc (802.11) round-trip per peer cache entry, ms.
    pub peer_rtt_ms: f64,
    /// Cellular round-trip to the database server, ms.
    pub server_rtt_ms: f64,
    /// Server-side cost per R*-tree page access, ms.
    pub per_page_ms: f64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        // 2005-era numbers: ~5 ms 802.11 exchange, ~250 ms cellular RTT
        // (GPRS/1xRTT class), ~8 ms per page (disk-bound server).
        LatencyModel {
            peer_rtt_ms: 5.0,
            server_rtt_ms: 250.0,
            per_page_ms: 8.0,
        }
    }
}

/// Per-`k` page-access statistics (Figure 17).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KStats {
    /// Server-bound queries with this `k`.
    pub queries: u64,
    /// Node accesses of the extended search (EINN).
    pub einn_accesses: u64,
    /// Node accesses of the baseline search (INN).
    pub inn_accesses: u64,
}

/// Aggregated metrics of one simulation run (collected after warm-up).
///
/// `PartialEq` compares every counter including the `f64` sums exactly —
/// the parallel batch engine is required to reproduce the sequential
/// metrics bit-for-bit, and the determinism tests lean on this.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics {
    /// Total spatial queries issued.
    pub queries: u64,
    /// Queries fully answered by single-peer verification.
    pub single_peer: u64,
    /// Queries answered only via the multi-peer certain region.
    pub multi_peer: u64,
    /// Queries accepted with uncertain answers (when enabled).
    pub accepted_uncertain: u64,
    /// Queries forwarded to the server.
    pub server: u64,
    /// Node accesses of all EINN server searches.
    pub einn_accesses: u64,
    /// Node accesses of the shadow INN searches (same queries, no bounds).
    pub inn_accesses: u64,
    /// Per-k breakdown of the two access counts.
    pub per_k: BTreeMap<usize, KStats>,
    /// Peer cache entries received over the ad-hoc channel (one response
    /// message per entry).
    pub peer_entries_received: u64,
    /// Cached NN records carried by those entries (payload volume proxy).
    pub peer_records_received: u64,
    /// Frequency of the six heap states (Section 3.3) among server-bound
    /// queries, indexed 0..=5 for States 1..=6.
    pub heap_states: [u64; 6],
    /// Peer-resolved answers graded against ground truth (POI-churn runs).
    pub peer_answers_graded: u64,
    /// Graded peer-resolved answers that did not match the true kNN set
    /// (stale caches certified outdated objects).
    pub peer_answers_wrong: u64,
    /// Accepted-uncertain answers that exactly matched the true kNN set.
    pub uncertain_exact: u64,
    /// Sum over accepted-uncertain answers of the relative distance
    /// inflation `(sum of returned distances / sum of true distances) - 1`.
    pub uncertain_inflation_sum: f64,
    /// Queries whose SNNN expansion hit `max_expansion` before the network
    /// bound was confirmed (always 0 for pure-Euclidean runs; the flag
    /// rides in on [`QueryTrace::cap_hit`]).
    pub expansion_cap_hits: u64,
    /// Residual-request re-submissions performed by the service retry
    /// layer, degraded attempts included (always 0 for a fault-free
    /// service).
    pub server_retries: u64,
    /// Residual-request attempts that ended in a service timeout.
    pub server_timeouts: u64,
    /// Residual-request attempts the service (or network) dropped.
    pub server_drops: u64,
    /// Residual requests refused by transport admission control
    /// (`ReplyStatus::Shed`) — terminal for the retry ladder, so at most
    /// one per query. Always 0 without an overlapped transport.
    pub server_shed: u64,
    /// Always 0: the transport no longer has a retry budget to refuse a
    /// retry. Kept only because the repository benchmark's failed-request
    /// count reads it; it goes with that count's next revision.
    pub server_retries_denied: u64,
    /// Queries whose residual answer came from the degraded (unpruned)
    /// fallback after every pruned attempt failed.
    pub server_degraded: u64,
    /// Queries whose residual request exhausted every attempt — the host
    /// kept whatever the peers verified locally.
    pub server_failed: u64,
    /// Lower-bound oracle consultations performed by SNNN's pruned
    /// expansion (0 for Euclidean runs, which never expand). Identical
    /// across oracles: the candidate stream never depends on the bound.
    pub lb_evals: u64,
    /// Exact model distance evaluations the oracle's bounds skipped —
    /// the pruning payoff (0 under the vacuous `NeverPrune` oracle).
    pub model_evals_saved: u64,
}

impl Metrics {
    /// Starts from zero.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Resets every counter (used at the end of warm-up).
    pub fn reset(&mut self) {
        *self = Metrics::default();
    }

    /// Folds one query's [`QueryTrace`] into the counters: attribution of
    /// the initial kNN round (the paper's accounting unit), plus the
    /// expansion-cap flag. Sim-side measurements that need world state
    /// (grading, heap states, EINN/INN accesses) are added by the caller.
    pub fn record_trace(&mut self, trace: &QueryTrace) {
        self.queries += 1;
        match trace.resolution() {
            Resolution::SinglePeer => self.single_peer += 1,
            Resolution::MultiPeer => self.multi_peer += 1,
            Resolution::AcceptedUncertain => self.accepted_uncertain += 1,
            Resolution::Server | Resolution::Unresolved => self.server += 1,
        }
        if trace.cap_hit {
            self.expansion_cap_hits += 1;
        }
        self.server_retries += trace.server_retries as u64;
        self.server_timeouts += trace.server_timeouts as u64;
        self.server_drops += trace.server_drops as u64;
        self.server_shed += trace.server_shed as u64;
        if trace.server_degraded {
            self.server_degraded += 1;
        }
        if trace.server_failed {
            self.server_failed += 1;
        }
        self.lb_evals += trace.lb_evals;
        self.model_evals_saved += trace.model_evals_saved;
    }

    /// SQRR: fraction of queries hitting the server, in `[0, 1]`.
    pub fn sqrr(&self) -> f64 {
        ratio(self.server, self.queries)
    }

    /// Fraction answered by single-peer verification.
    pub fn single_peer_rate(&self) -> f64 {
        ratio(self.single_peer, self.queries)
    }

    /// Fraction answered by multi-peer verification.
    pub fn multi_peer_rate(&self) -> f64 {
        ratio(self.multi_peer, self.queries)
    }

    /// Mean EINN node accesses per server-bound query.
    pub fn einn_pages_per_query(&self) -> f64 {
        ratio_f(self.einn_accesses, self.server)
    }

    /// Mean INN node accesses per server-bound query.
    pub fn inn_pages_per_query(&self) -> f64 {
        ratio_f(self.inn_accesses, self.server)
    }

    /// Mean peer cache entries received per query (P2P message overhead).
    pub fn peer_entries_per_query(&self) -> f64 {
        ratio_f(self.peer_entries_received, self.queries)
    }

    /// Mean cached NN records received per query (P2P payload overhead).
    pub fn peer_records_per_query(&self) -> f64 {
        ratio_f(self.peer_records_received, self.queries)
    }

    /// Mean query latency (ms) under a cost model: every query pays the
    /// P2P exchanges; server-bound queries add the cellular RTT plus the
    /// EINN page costs.
    pub fn mean_latency_ms(&self, model: &LatencyModel) -> f64 {
        if self.queries == 0 {
            return 0.0;
        }
        let p2p = self.peer_entries_received as f64 * model.peer_rtt_ms;
        let server = self.server as f64 * model.server_rtt_ms
            + self.einn_accesses as f64 * model.per_page_ms;
        (p2p + server) / self.queries as f64
    }

    /// Fraction of graded peer answers that were wrong (staleness rate).
    pub fn stale_answer_rate(&self) -> f64 {
        ratio(self.peer_answers_wrong, self.peer_answers_graded)
    }

    /// Fraction of server-bound queries whose residual answer came from
    /// the degraded (unpruned) fallback.
    pub fn degraded_rate(&self) -> f64 {
        ratio(self.server_degraded, self.server)
    }

    /// Fraction of server-bound queries whose residual request failed
    /// outright (every attempt exhausted).
    pub fn failed_request_rate(&self) -> f64 {
        ratio(self.server_failed, self.server)
    }

    /// Fraction of accepted-uncertain answers that were exactly right.
    pub fn uncertain_exact_rate(&self) -> f64 {
        ratio(self.uncertain_exact, self.accepted_uncertain)
    }

    /// Mean relative distance inflation of accepted-uncertain answers.
    pub fn uncertain_mean_inflation(&self) -> f64 {
        if self.accepted_uncertain == 0 {
            0.0
        } else {
            self.uncertain_inflation_sum / self.accepted_uncertain as f64
        }
    }

    /// Merges another metrics block into this one.
    pub fn merge(&mut self, other: &Metrics) {
        self.queries += other.queries;
        self.single_peer += other.single_peer;
        self.multi_peer += other.multi_peer;
        self.accepted_uncertain += other.accepted_uncertain;
        self.server += other.server;
        self.einn_accesses += other.einn_accesses;
        self.inn_accesses += other.inn_accesses;
        for i in 0..6 {
            self.heap_states[i] += other.heap_states[i];
        }
        self.peer_answers_graded += other.peer_answers_graded;
        self.peer_answers_wrong += other.peer_answers_wrong;
        self.peer_entries_received += other.peer_entries_received;
        self.peer_records_received += other.peer_records_received;
        self.uncertain_exact += other.uncertain_exact;
        self.uncertain_inflation_sum += other.uncertain_inflation_sum;
        self.expansion_cap_hits += other.expansion_cap_hits;
        self.server_retries += other.server_retries;
        self.server_timeouts += other.server_timeouts;
        self.server_drops += other.server_drops;
        self.server_shed += other.server_shed;
        self.server_retries_denied += other.server_retries_denied;
        self.server_degraded += other.server_degraded;
        self.server_failed += other.server_failed;
        self.lb_evals += other.lb_evals;
        self.model_evals_saved += other.model_evals_saved;
        for (k, s) in &other.per_k {
            let e = self.per_k.entry(*k).or_default();
            e.queries += s.queries;
            e.einn_accesses += s.einn_accesses;
            e.inn_accesses += s.inn_accesses;
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn ratio_f(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_metrics_are_zero() {
        let m = Metrics::new();
        assert_eq!(m.sqrr(), 0.0);
        assert_eq!(m.single_peer_rate(), 0.0);
        assert_eq!(m.einn_pages_per_query(), 0.0);
    }

    #[test]
    fn rates_sum_to_one() {
        let m = Metrics {
            queries: 10,
            single_peer: 5,
            multi_peer: 2,
            server: 3,
            ..Metrics::default()
        };
        assert!((m.sqrr() - 0.3).abs() < 1e-12);
        assert!((m.single_peer_rate() + m.multi_peer_rate() + m.sqrr() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn latency_model() {
        let m = Metrics {
            queries: 10,
            server: 2,
            peer_entries_received: 30,
            einn_accesses: 20,
            ..Metrics::default()
        };
        let model = LatencyModel {
            peer_rtt_ms: 5.0,
            server_rtt_ms: 250.0,
            per_page_ms: 8.0,
        };
        // (30*5 + 2*250 + 20*8) / 10 = (150 + 500 + 160) / 10 = 81.
        assert!((m.mean_latency_ms(&model) - 81.0).abs() < 1e-9);
        assert_eq!(Metrics::default().mean_latency_ms(&model), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Metrics {
            queries: 3,
            server: 1,
            einn_accesses: 10,
            ..Metrics::default()
        };
        a.per_k.insert(
            3,
            KStats {
                queries: 1,
                einn_accesses: 10,
                inn_accesses: 12,
            },
        );
        let mut b = Metrics {
            queries: 7,
            server: 2,
            einn_accesses: 30,
            ..Metrics::default()
        };
        b.per_k.insert(
            3,
            KStats {
                queries: 2,
                einn_accesses: 30,
                inn_accesses: 40,
            },
        );
        b.per_k.insert(
            5,
            KStats {
                queries: 1,
                einn_accesses: 9,
                inn_accesses: 9,
            },
        );
        a.merge(&b);
        assert_eq!(a.queries, 10);
        assert_eq!(a.per_k[&3].inn_accesses, 52);
        assert_eq!(a.per_k[&5].queries, 1);
        a.reset();
        assert_eq!(a.queries, 0);
        assert!(a.per_k.is_empty());
    }

    /// A metrics block with every counter distinct and nonzero, so a
    /// merge that drops or crosses any field changes the result.
    fn dense(off: u64) -> Metrics {
        let mut m = Metrics {
            queries: 100 + off,
            single_peer: 1 + off,
            multi_peer: 2 + off,
            accepted_uncertain: 3 + off,
            server: 4 + off,
            einn_accesses: 5 + off,
            inn_accesses: 6 + off,
            peer_entries_received: 7 + off,
            peer_records_received: 8 + off,
            heap_states: [9 + off, 10 + off, 11 + off, 12 + off, 13 + off, 14 + off],
            peer_answers_graded: 15 + off,
            peer_answers_wrong: 16 + off,
            uncertain_exact: 17 + off,
            uncertain_inflation_sum: 0.25 * (off + 1) as f64,
            expansion_cap_hits: 18 + off,
            server_retries: 19 + off,
            server_timeouts: 20 + off,
            server_drops: 21 + off,
            server_shed: 26 + off,
            server_retries_denied: 27 + off,
            server_degraded: 22 + off,
            server_failed: 23 + off,
            lb_evals: 24 + off,
            model_evals_saved: 25 + off,
            ..Metrics::default()
        };
        m.per_k.insert(
            1 + off as usize,
            KStats {
                queries: 30 + off,
                einn_accesses: 31 + off,
                inn_accesses: 32 + off,
            },
        );
        m.per_k.insert(
            50,
            KStats {
                queries: 33 + off,
                einn_accesses: 34 + off,
                inn_accesses: 35 + off,
            },
        );
        m
    }

    #[test]
    fn merge_covers_fault_counters_and_cap_hits() {
        // The PR-3 fault counters and the SNNN cap counter must all
        // survive a merge — a regression here silently under-reports
        // degraded service periods.
        let mut a = dense(0);
        let b = dense(1000);
        a.merge(&b);
        assert_eq!(a.expansion_cap_hits, 18 + 1018);
        assert_eq!(a.server_retries, 19 + 1019);
        assert_eq!(a.server_timeouts, 20 + 1020);
        assert_eq!(a.server_drops, 21 + 1021);
        assert_eq!(a.server_shed, 26 + 1026);
        assert_eq!(a.server_retries_denied, 27 + 1027);
        assert_eq!(a.server_degraded, 22 + 1022);
        assert_eq!(a.server_failed, 23 + 1023);
        assert_eq!(a.lb_evals, 24 + 1024);
        assert_eq!(a.model_evals_saved, 25 + 1025);
        assert_eq!(a.peer_answers_graded, 15 + 1015);
        assert_eq!(a.peer_answers_wrong, 16 + 1016);
        assert_eq!(a.uncertain_exact, 17 + 1017);
        assert!((a.uncertain_inflation_sum - (0.25 + 0.25 * 1001.0)).abs() < 1e-12);
        for (i, s) in a.heap_states.iter().enumerate() {
            assert_eq!(*s, (9 + i as u64) + (1009 + i as u64));
        }
        // Disjoint per_k keys are kept, shared keys summed.
        assert_eq!(a.per_k[&1].queries, 30);
        assert_eq!(a.per_k[&1001].queries, 1030);
        assert_eq!(a.per_k[&50].einn_accesses, 34 + 1034);
    }

    #[test]
    fn merge_is_associative_and_has_identity() {
        let (x, y, z) = (dense(0), dense(7), dense(400));
        let mut left = x.clone();
        left.merge(&y);
        left.merge(&z);
        let mut yz = y.clone();
        yz.merge(&z);
        let mut right = x.clone();
        right.merge(&yz);
        assert_eq!(left, right, "merge must be associative");

        let mut with_id = x.clone();
        with_id.merge(&Metrics::default());
        assert_eq!(with_id, x, "the empty block is a right identity");
        let mut id_with = Metrics::default();
        id_with.merge(&x);
        assert_eq!(id_with, x, "the empty block is a left identity");
    }

    #[test]
    fn merge_of_record_trace_halves_matches_recording_in_one_block() {
        // Splitting a trace stream across two blocks and merging must
        // equal recording everything into one block — the property the
        // parallel fold relies on.
        use senn_core::QueryTrace;
        let mut traces = Vec::new();
        for i in 0..12u32 {
            let mut t = QueryTrace::new();
            t.resolutions.push(match i % 4 {
                0 => Resolution::SinglePeer,
                1 => Resolution::MultiPeer,
                2 => Resolution::Server,
                _ => Resolution::Unresolved,
            });
            t.cap_hit = i % 3 == 0;
            t.server_retries = i;
            t.server_timeouts = i / 2;
            t.server_drops = i / 3;
            t.server_shed = i % 2;
            t.server_degraded = i % 5 == 0;
            t.server_failed = i % 7 == 0;
            t.lb_evals = (2 * i) as u64;
            t.model_evals_saved = (i / 2) as u64;
            traces.push(t);
        }
        let mut whole = Metrics::new();
        for t in &traces {
            whole.record_trace(t);
        }
        let mut first = Metrics::new();
        let mut second = Metrics::new();
        for (i, t) in traces.iter().enumerate() {
            if i < 5 {
                first.record_trace(t);
            } else {
                second.record_trace(t);
            }
        }
        first.merge(&second);
        assert_eq!(first, whole);
        assert!(whole.expansion_cap_hits > 0);
        assert!(whole.server_retries > 0);
        assert!(whole.lb_evals > 0 && whole.model_evals_saved > 0);
    }
}
