//! The ad-hoc communication step: which peer cache entries reach the
//! querier over the radio channel (and what each exchange costs).
//!
//! "A mobile host will first attempt to answer each spatial query from its
//! local cache and via the SENN algorithm": the querier's own cached
//! result participates exactly like a peer's, followed by the caches of
//! hosts in radio range, with expired entries filtered on both sides when
//! a TTL is configured. [`WorkerScratch`] bundles the per-worker buffers —
//! peer ids, borrowed entries, and the staged kernel's
//! [`QueryContext`](senn_core::QueryContext) — so the steady-state query
//! path stays allocation-free and each worker thread reuses one context
//! across every query it executes. A peer-resolved query whose SNNN
//! expansion will read what its peers proved takes the context's
//! certificate; the context's next walk grows a new one.

use senn_cache::CacheEntry;
use senn_core::QueryContext;

use crate::query_step::QueryPlan;
use crate::simulator::Simulator;

/// Reusable per-worker buffers for peer discovery: peer ids from the grid
/// and borrowed peer cache entries.
pub(crate) struct QueryScratch<'a> {
    pub(crate) peer_ids: Vec<u32>,
    pub(crate) peers: Vec<&'a CacheEntry>,
}

/// Everything one batch worker reuses across the queries it executes:
/// the comms buffers plus the staged kernel's query context.
pub(crate) struct WorkerScratch<'a> {
    pub(crate) comms: QueryScratch<'a>,
    pub(crate) ctx: QueryContext,
}

impl WorkerScratch<'_> {
    pub(crate) fn new() -> Self {
        WorkerScratch {
            comms: QueryScratch {
                peer_ids: Vec::new(),
                peers: Vec::new(),
            },
            ctx: QueryContext::new(),
        }
    }
}

impl Simulator {
    /// Collects the fresh cache entries visible to a planned query — the
    /// querier's own first, then every peer's within radio range — into
    /// `scratch.peers`. Returns the count of own entries; everything after
    /// that index crossed the ad-hoc channel (the P2P overhead the merge
    /// phase accounts).
    pub(crate) fn gather_peers<'a>(
        &'a self,
        plan: &QueryPlan,
        scratch: &mut QueryScratch<'a>,
    ) -> usize {
        let q = self.store.position(plan.querier);
        self.grid.within_by(
            |id| self.store.position(id),
            q,
            self.config.params.tx_range_m,
            plan.querier,
            &mut scratch.peer_ids,
        );
        let now = self.time;
        let ttl = self.config.cache_ttl_secs;
        let fresh = move |e: &&CacheEntry| ttl.is_none_or(|t| !e.is_expired(now, t));
        scratch.peers.clear();
        // Hosts without a side-table entry have (exactly) an empty cache;
        // iteration borrows entries in place, so the probe allocates
        // nothing per peer.
        if let Some(cache) = self.store.cache(plan.querier) {
            scratch.peers.extend(cache.iter().filter(fresh));
        }
        let own_count = scratch.peers.len();
        for &id in &scratch.peer_ids {
            if let Some(cache) = self.store.cache(id) {
                scratch.peers.extend(cache.iter().filter(fresh));
            }
        }
        own_count
    }
}
