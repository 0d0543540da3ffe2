//! The cache/merge step of the batch engine: host-side cache policies and
//! the query-order fold of executed outcomes into [`Metrics`] and the
//! querier's cache. Because the fold order is fixed by the plan, this step
//! is what makes the parallel engine's metrics bit-identical to the
//! sequential path's.
//!
//! [`Metrics`]: crate::metrics::Metrics

use senn_cache::{CacheEntry, LruCache, MostRecentCache, QueryCache};
use senn_core::{Resolution, STAGE_COUNT};

use crate::query_step::{Measured, PendingQuery, QueryPlan};
use crate::simulator::Simulator;

/// Which host-side cache policy the simulation uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CachePolicy {
    /// The paper's policy: only the most recent query's certain NNs.
    MostRecent,
    /// Extension/ablation: several past results under a shared NN budget.
    Lru,
}

/// Either cache implementation, dispatched statically per run.
pub(crate) enum HostCache {
    MostRecent(MostRecentCache),
    Lru(LruCache),
}

impl HostCache {
    pub(crate) fn store(&mut self, entry: CacheEntry) {
        match self {
            HostCache::MostRecent(c) => c.store(entry),
            HostCache::Lru(c) => c.store(entry),
        }
    }

    /// Live entries, most recent first — the same order
    /// [`QueryCache::entries`] returns, without materializing a `Vec` per
    /// peer probe (the per-interval allocation budget excludes O(peers)
    /// churn).
    pub(crate) fn iter(&self) -> CacheIter<'_> {
        match self {
            HostCache::MostRecent(c) => CacheIter::One(c.entry().into_iter()),
            HostCache::Lru(c) => CacheIter::Many(c.iter()),
        }
    }
}

/// Non-allocating iterator over a [`HostCache`]'s live entries.
pub(crate) enum CacheIter<'a> {
    One(std::option::IntoIter<&'a CacheEntry>),
    Many(senn_cache::LruIter<'a>),
}

impl<'a> Iterator for CacheIter<'a> {
    type Item = &'a CacheEntry;

    fn next(&mut self) -> Option<&'a CacheEntry> {
        match self {
            CacheIter::One(it) => it.next(),
            CacheIter::Many(it) => it.next(),
        }
    }
}

impl Simulator {
    /// Folds one executed query's outcome into metrics and the querier's
    /// cache. Called in query-index order, so the accumulation (including
    /// the `f64` inflation sum) matches a sequential run bit-for-bit.
    /// Stage wall times from the trace land in the observation-only
    /// [`BatchStats`](crate::simulator::BatchStats), never in `Metrics`.
    pub(crate) fn apply_outcome(
        &mut self,
        plan: &QueryPlan,
        pending: &PendingQuery,
        outcome: Measured,
    ) {
        let trace = &pending.outcome.trace;
        self.metrics.record_trace(trace);
        for i in 0..STAGE_COUNT {
            self.batch_stats.stage_nanos[i] += trace.stage_nanos[i];
            self.batch_stats.stage_calls[i] += trace.stage_calls[i];
        }
        self.metrics.peer_entries_received += pending.remote_entries;
        self.metrics.peer_records_received += pending.remote_records;
        if outcome.graded {
            self.metrics.peer_answers_graded += 1;
            if outcome.wrong {
                self.metrics.peer_answers_wrong += 1;
            }
        }
        match trace.resolution() {
            Resolution::SinglePeer | Resolution::MultiPeer => {}
            Resolution::AcceptedUncertain => {
                if outcome.uncertain_exact {
                    self.metrics.uncertain_exact += 1;
                }
                self.metrics.uncertain_inflation_sum += outcome.uncertain_inflation;
            }
            Resolution::Server | Resolution::Unresolved => {
                if let Some(state) = pending.outcome.heap_state {
                    self.metrics.record_heap_state(state);
                }
                self.metrics.einn_accesses += outcome.einn_accesses;
                if let Some(inn) = outcome.inn_accesses {
                    self.metrics.inn_accesses += inn;
                }
                let entry = self.metrics.per_k.entry(plan.k).or_default();
                entry.queries += 1;
                entry.einn_accesses += outcome.einn_accesses;
                entry.inn_accesses += outcome.inn_accesses.unwrap_or(0);
            }
        }
        if let Some(entry) = outcome.cache_entry {
            self.store.cache_store(plan.querier, entry);
        }
    }
}
