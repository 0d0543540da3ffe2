//! Contraction hierarchies: a precomputed exact distance oracle
//! (Geisberger et al., WEA 2008) with hub labels on top
//! (Abraham et al., SEA 2011).
//!
//! PR 5's landmark pruning cut how *often* SNNN pays for an exact
//! network-distance evaluation; every surviving evaluation still ran a
//! full A\*/ALT label-setting search. A contraction hierarchy moves that
//! cost to preprocessing: nodes are contracted one by one in an
//! importance order, inserting *shortcut* edges that preserve all
//! shortest-path distances among the remaining nodes, so every shortest
//! path climbs the order and then descends it. On top of the finished
//! hierarchy a **hub label** is tabulated per node — its pruned upward
//! search space as a rank-sorted `(hub, distance, first edge)` list — so
//! a query is not a graph search at all: it finds the cheapest hub the
//! two labels share (the canonical hub-labeling query, the fastest known
//! exact road-network oracle and the decisive ingredient of fast
//! road-network kNN per Abeywickrama et al., PVLDB 2016).
//!
//! ## One-to-many queries
//!
//! Every query ([`ChIndex::distance_with`], [`counting_ch`]) is a
//! *scatter-and-scan*: the source label is scattered once into a
//! rank-indexed, generation-stamped table in the [`ChScratch`], and the
//! target label is scanned against it, from its top hub down to the
//! source's own rank (the scattered label has no hub below it). The
//! scratch keeps the scattered label until it is asked about another
//! source (or another index), so the many queries an SNNN model issues
//! from one anchor read only their targets' labels. The scan computes the
//! same sum `source dist + target dist` per common hub as a two-pointer
//! merge of the two labels (the test builds' oracle) and picks the hub
//! the merge picks (the first strict minimum in ascending hub order), so
//! the two return the same bits. The scratch also keeps its last answers,
//! direct-mapped by `(from, to)`: a pair asked again is answered without
//! reading a label (hosts query again from the node they queried from,
//! about candidates that are the same POIs). Effort counters:
//! [`SearchStats::relaxed`] counts label entries read (the source label
//! once per scatter, the target label's entries down to the cut once per
//! query, nothing for a kept answer) and [`SearchStats::settled`] counts
//! common hubs evaluated.
//!
//! ## Determinism contract
//!
//! Preprocessing is a pure function of `(network, seed)`:
//!
//! * the contraction order is driven by the classic
//!   `2 × edge_difference + deleted_neighbors` priority with lazy
//!   updates, and every tie is broken by a seeded `splitmix64` key and
//!   then the node id — a total order with no floats and no hash-map
//!   iteration anywhere;
//! * witness searches are plain Dijkstra over the remaining graph with a
//!   deterministic `(distance, node)` heap order and a fixed settle
//!   limit (truncated witnesses conservatively *add* the shortcut, which
//!   can only grow the index, never break correctness). The search from
//!   neighbour `nb[i]` decides only the pairs `(i, j > i)`: it is capped
//!   at `w(nb[i]) + max_{j>i} w(nb[j])` and returns as soon as every
//!   target `nb[j], j > i` has settled. Neither rule changes a decision,
//!   because the settle order is a prefix of the wider search's: a
//!   settled label is final, and when the tighter cap stops the search
//!   an unsettled target's label is at least the popped distance, which
//!   exceeds the cap and so the candidate shortcut's length;
//! * hub labels are derived from the finished hierarchy by a fixed-order
//!   dynamic program over the weight-sorted upward lists — no further
//!   randomness; the pruning test ("some kept hub reaches this one at
//!   least as cheaply") is an existential over the kept hubs, so testing
//!   it against a stamped table of them decides exactly what a sorted
//!   merge of the two (the test builds' oracle) decides.
//!
//! Repeated builds from the same seed produce identical shortcut sets,
//! orders, labels and query traces — pinned by [`ChIndex::signature`]
//! and the determinism tests here and in `tests/metric_equivalence.rs`;
//! `senn-sim`'s `tests/network_mode.rs` pins the signatures of three
//! networks to fixed values.
//!
//! ## Bit-identity contract
//!
//! A query does not return the accumulated label distance (whose
//! floating-point rounding depends on how shortcuts happen to nest). It
//! unpacks the winning hub path back into the original edge
//! sequence and folds the edge lengths left-to-right in path order — the
//! exact computation Dijkstra's relaxation performs. Whenever the
//! shortest path is unique (always, up to measure-zero ties, on the
//! jittered networks used throughout this repo), the result is therefore
//! **bit-identical** to [`crate::shortest_path::dijkstra_distance`].

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

use crate::graph::{NodeId, RoadNetwork};
use crate::shortest_path::SearchStats;

/// Source of [`ChIndex::id`]: every build takes the next value.
static NEXT_INDEX_ID: AtomicU64 = AtomicU64::new(0);

/// Answers a [`ChScratch`] keeps (16 B each). On `downtown_snnn` about
/// half of the queries repeat one of the last 2^14 distinct pairs: hosts
/// query again from the node they queried from before, and candidates are
/// the same POIs.
const ANSWER_SLOTS: usize = 1 << 14;

/// The slot of [`ChScratch::answers`] that `key` maps to: the top bits
/// of its Fibonacci hash.
fn answer_slot(key: u64) -> usize {
    (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - ANSWER_SLOTS.trailing_zeros())) as usize
}

/// Witness searches stop after settling this many nodes; truncation adds
/// a (possibly unnecessary) shortcut, which is always sound.
const WITNESS_SETTLE_LIMIT: usize = 256;

/// Sentinel for "no node" in parent/mid fields.
const NONE: NodeId = NodeId::MAX;

/// One edge of the hierarchy arena. Original graph edges have
/// `mid == NONE`; shortcuts remember the node they bypass plus the two
/// child edges they concatenate (`child_a` connects `a` and `mid`,
/// `child_b` connects `mid` and `b`), so queries can unpack any edge back
/// to the original segment sequence.
#[derive(Clone, Copy, Debug)]
struct ChEdge {
    a: NodeId,
    b: NodeId,
    weight: f64,
    mid: NodeId,
    child_a: u32,
    child_b: u32,
}

/// An upward half-edge: recorded at contraction time, it always leads to
/// a node contracted later (= ranked higher).
#[derive(Clone, Copy, Debug)]
struct UpEdge {
    to: NodeId,
    weight: f64,
    edge: u32,
}

/// One hub-label entry: a hub in this node's pruned upward search space,
/// identified by its contraction rank, with the exact distance to it and
/// the first arena edge of the monotone upward path towards it
/// (`u32::MAX` on the node's own self-entry). Labels are sorted by hub
/// rank so queries scan them in hub order and path walks are binary
/// searches.
#[derive(Clone, Copy, Debug)]
struct LabelEntry {
    hub: u32,
    dist: f64,
    edge: u32,
}

/// A preprocessed contraction hierarchy (plus hub labels) over a
/// [`RoadNetwork`].
///
/// Build once with [`ChIndex::build_seeded`], then answer exact network
/// distances with [`ChIndex::distance_with`] (hub-label scatter-and-scan,
/// allocation-free against a caller-managed [`ChScratch`]) or the
/// counting probe [`counting_ch`].
#[derive(Clone, Debug)]
pub struct ChIndex {
    /// Distinct per build (a clone shares it, and every table with it), so
    /// a [`ChScratch`] can tell whose label it holds scattered.
    id: u64,
    /// `rank[v]` = position of `v` in the contraction order.
    rank: Vec<u32>,
    /// Nodes in contraction order (least important first).
    order: Vec<NodeId>,
    /// Edge arena: original edges first, shortcuts appended.
    edges: Vec<ChEdge>,
    /// `up[v]` = half-edges from `v` to higher-ranked nodes.
    up: Vec<Vec<UpEdge>>,
    /// Number of shortcut edges inserted.
    shortcuts: usize,
    /// `labels[v]` = rank-sorted hub label of `v`.
    labels: Vec<Vec<LabelEntry>>,
}

/// Min-heap key for the lazy contraction-order queue: integer priority,
/// then the seeded tie-break, then the node id — a total order.
#[derive(PartialEq, Eq)]
struct OrderItem {
    prio: i64,
    tie: u64,
    node: NodeId,
}
impl PartialOrd for OrderItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrderItem {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.prio, other.tie, other.node).cmp(&(self.prio, self.tie, self.node))
    }
}

/// Min-heap item for witness and query Dijkstras: ordered by distance,
/// ties broken by node id so pop order never depends on insertion luck.
#[derive(PartialEq)]
struct QItem {
    dist: f64,
    node: NodeId,
}
impl Eq for QItem {}
impl PartialOrd for QItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QItem {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Mutable preprocessing state; dropped once the hierarchy is built.
struct Builder {
    edges: Vec<ChEdge>,
    /// Remaining-graph adjacency: `(neighbor, arena edge index, edge
    /// weight)` per node, the weight always equal to the arena edge's;
    /// entries to contracted nodes are removed as contraction proceeds.
    adj: Vec<Vec<(NodeId, u32, f64)>>,
    contracted: Vec<bool>,
    /// Contracted-neighbor counters (the "deleted neighbors" prio term).
    deleted: Vec<u32>,
    /// Hierarchy depth: 1 + the highest level among contracted
    /// neighbors. Penalizing depth spreads contraction spatially (a
    /// nested-dissection-like effect), which keeps upward search cones
    /// small on grid networks.
    level: Vec<u32>,
    // Witness-search scratch (generation-stamped, reused per contraction).
    wdist: Vec<f64>,
    wstamp: Vec<u32>,
    /// `wtarget[v] == wgen` marks `v` as a target of the current search.
    wtarget: Vec<u32>,
    wgen: u32,
    wheap: BinaryHeap<QItem>,
}

impl Builder {
    fn new(net: &RoadNetwork) -> Self {
        let n = net.node_count();
        let mut edges: Vec<ChEdge> = Vec::with_capacity(net.edge_count());
        let mut adj: Vec<Vec<(NodeId, u32, f64)>> = vec![Vec::new(); n];
        // Seed the arena with the original edges, collapsing parallel
        // edges to their minimum length (Dijkstra's relaxation keeps the
        // minimum too, so distances are unchanged).
        for u in 0..n as NodeId {
            for e in net.neighbors(u) {
                if u >= e.to {
                    continue;
                }
                if let Some(&(_, ei, _)) = adj[u as usize].iter().find(|&&(t, _, _)| t == e.to) {
                    if e.length < edges[ei as usize].weight {
                        edges[ei as usize].weight = e.length;
                    }
                } else {
                    let ei = edges.len() as u32;
                    edges.push(ChEdge {
                        a: u,
                        b: e.to,
                        weight: e.length,
                        mid: NONE,
                        child_a: u32::MAX,
                        child_b: u32::MAX,
                    });
                    adj[u as usize].push((e.to, ei, e.length));
                    adj[e.to as usize].push((u, ei, e.length));
                }
            }
        }
        // Parallel edges may have lowered an arena weight after its
        // adjacency entries were written.
        for entry in adj.iter_mut().flatten() {
            entry.2 = edges[entry.1 as usize].weight;
        }
        Builder {
            edges,
            adj,
            contracted: vec![false; n],
            deleted: vec![0; n],
            level: vec![0; n],
            wdist: vec![f64::INFINITY; n],
            wstamp: vec![0; n],
            wtarget: vec![0; n],
            wgen: 0,
            wheap: BinaryHeap::new(),
        }
    }

    #[inline]
    fn wdist(&self, node: NodeId) -> f64 {
        let i = node as usize;
        if self.wstamp[i] == self.wgen {
            self.wdist[i]
        } else {
            f64::INFINITY
        }
    }

    /// Capped, settle-limited Dijkstra from `source` over the remaining
    /// graph, never entering `avoid`, that returns once every node of
    /// `targets` has settled. Distances land in the witness scratch for
    /// [`Builder::wdist`] reads.
    fn witness_from(
        &mut self,
        source: NodeId,
        avoid: NodeId,
        cap: f64,
        targets: &[(NodeId, u32, f64)],
    ) {
        self.wgen = self.wgen.wrapping_add(1);
        if self.wgen == 0 {
            self.wstamp.fill(0);
            self.wtarget.fill(0);
            self.wgen = 1;
        }
        let gen = self.wgen;
        for &(t, _, _) in targets {
            self.wtarget[t as usize] = gen;
        }
        let mut unsettled = targets.len();
        let adj = &self.adj;
        let (wdist, wstamp, heap) = (&mut self.wdist, &mut self.wstamp, &mut self.wheap);
        heap.clear();
        wdist[source as usize] = 0.0;
        wstamp[source as usize] = gen;
        heap.push(QItem {
            dist: 0.0,
            node: source,
        });
        let mut settled = 0usize;
        while let Some(QItem { dist: d, node }) = heap.pop() {
            let i = node as usize;
            if d > wdist[i] {
                continue;
            }
            settled += 1;
            if settled > WITNESS_SETTLE_LIMIT || d > cap {
                return;
            }
            if self.wtarget[i] == gen {
                unsettled -= 1;
                if unsettled == 0 {
                    return;
                }
            }
            for &(to, _, w) in &adj[i] {
                if to == avoid {
                    continue;
                }
                let nd = d + w;
                let j = to as usize;
                let known = if wstamp[j] == gen {
                    wdist[j]
                } else {
                    f64::INFINITY
                };
                if nd < known {
                    wdist[j] = nd;
                    wstamp[j] = gen;
                    heap.push(QItem { dist: nd, node: to });
                }
            }
        }
    }

    /// The shortcuts contracting `v` would need: for every pair of live
    /// neighbors `(u, w)` whose best remaining path detours longer than
    /// `d(u, v) + d(v, w)`, a `(neighbor index, neighbor index, weight)`
    /// triple. Pure with respect to the graph — used for both the
    /// priority term and the actual contraction.
    fn shortcut_pairs(&mut self, v: NodeId, pairs: &mut Vec<(u32, u32, f64)>) {
        pairs.clear();
        let nb = std::mem::take(&mut self.adj[v as usize]);
        for (i, &(u, _, wu)) in nb.iter().enumerate() {
            let targets = &nb[i + 1..];
            if targets.is_empty() {
                break;
            }
            let worst = targets.iter().fold(0.0f64, |m, &(_, _, w)| m.max(w));
            self.witness_from(u, v, wu + worst, targets);
            for (j, &(w, _, ww)) in targets.iter().enumerate() {
                let sc = wu + ww;
                if self.wdist(w) > sc {
                    pairs.push((i as u32, (i + 1 + j) as u32, sc));
                }
            }
        }
        self.adj[v as usize] = nb;
    }

    /// `2 × edge_difference + deleted_neighbors + hierarchy_depth` for
    /// the lazy-update queue.
    fn priority_of(&mut self, v: NodeId, pairs: &mut Vec<(u32, u32, f64)>) -> i64 {
        self.shortcut_pairs(v, pairs);
        #[cfg(test)]
        assert_eq!(
            *pairs,
            tests::reference_shortcut_pairs(self, v),
            "witness rule diverged at node {v}"
        );
        let degree = self.adj[v as usize].len() as i64;
        2 * (pairs.len() as i64 - degree)
            + self.deleted[v as usize] as i64
            + self.level[v as usize] as i64
    }
}

impl ChIndex {
    /// Builds the hierarchy with the default seed (see
    /// [`ChIndex::build_seeded`]).
    pub fn build(net: &RoadNetwork) -> Self {
        Self::build_seeded(net, 0)
    }

    /// Builds the hierarchy: contracts every node in lazy
    /// edge-difference order (ties broken by a `splitmix64` key of
    /// `(seed, node)`), inserting witness-checked shortcuts and recording
    /// each node's upward edges at the moment it is contracted, then
    /// tabulates the hub labels. The result is a pure function of
    /// `(net, seed)` — see the module-level determinism contract.
    pub fn build_seeded(net: &RoadNetwork, seed: u64) -> Self {
        let n = net.node_count();
        let mut b = Builder::new(net);
        let tie = |v: NodeId| splitmix64(seed ^ (v as u64).wrapping_mul(0x9e3779b97f4a7c15));
        let mut heap: BinaryHeap<OrderItem> = BinaryHeap::with_capacity(n);
        let mut pairs: Vec<(u32, u32, f64)> = Vec::new();
        for v in 0..n as NodeId {
            let prio = b.priority_of(v, &mut pairs);
            heap.push(OrderItem {
                prio,
                tie: tie(v),
                node: v,
            });
        }
        let mut index = ChIndex {
            id: NEXT_INDEX_ID.fetch_add(1, AtomicOrdering::Relaxed),
            rank: vec![0; n],
            order: Vec::with_capacity(n),
            edges: Vec::new(),
            up: vec![Vec::new(); n],
            shortcuts: 0,
            labels: Vec::new(),
        };
        while let Some(item) = heap.pop() {
            let v = item.node;
            if b.contracted[v as usize] {
                continue;
            }
            // Lazy update: the graph shrank since this entry was pushed,
            // so recompute; contract only while still no worse than the
            // queue's next candidate.
            let prio = b.priority_of(v, &mut pairs);
            if let Some(top) = heap.peek() {
                if (prio, item.tie, v) > (top.prio, top.tie, top.node) {
                    heap.push(OrderItem {
                        prio,
                        tie: item.tie,
                        node: v,
                    });
                    continue;
                }
            }
            // Record v's upward star before the graph loses it.
            index.up[v as usize] = b.adj[v as usize]
                .iter()
                .map(|&(to, edge, weight)| UpEdge { to, weight, edge })
                .collect();
            // Insert the witness-checked shortcuts.
            for &(i, j, sc) in &pairs {
                let (u, eu, _) = b.adj[v as usize][i as usize];
                let (w, ew, _) = b.adj[v as usize][j as usize];
                let existing = b.adj[u as usize].iter().position(|&(t, _, _)| t == w);
                if let Some(pos) = existing {
                    if b.adj[u as usize][pos].2 <= sc {
                        continue;
                    }
                    let ne = b.edges.len() as u32;
                    b.edges.push(ChEdge {
                        a: u,
                        b: w,
                        weight: sc,
                        mid: v,
                        child_a: eu,
                        child_b: ew,
                    });
                    b.adj[u as usize][pos] = (w, ne, sc);
                    let back = b.adj[w as usize]
                        .iter()
                        .position(|&(t, _, _)| t == u)
                        .expect("undirected adjacency out of sync");
                    b.adj[w as usize][back] = (u, ne, sc);
                    index.shortcuts += 1;
                } else {
                    let ne = b.edges.len() as u32;
                    b.edges.push(ChEdge {
                        a: u,
                        b: w,
                        weight: sc,
                        mid: v,
                        child_a: eu,
                        child_b: ew,
                    });
                    b.adj[u as usize].push((w, ne, sc));
                    b.adj[w as usize].push((u, ne, sc));
                    index.shortcuts += 1;
                }
            }
            // Remove v from the remaining graph.
            for k in 0..b.adj[v as usize].len() {
                let (u, _, _) = b.adj[v as usize][k];
                b.deleted[u as usize] += 1;
                b.level[u as usize] = b.level[u as usize].max(b.level[v as usize] + 1);
                b.adj[u as usize].retain(|&(t, _, _)| t != v);
            }
            b.adj[v as usize].clear();
            b.contracted[v as usize] = true;
            index.rank[v as usize] = index.order.len() as u32;
            index.order.push(v);
        }
        // Sort each upward list by weight (ties by target id — fully
        // deterministic) so queries can stop scanning a settled node's
        // list at the first edge that already reaches the best known
        // meet: every later edge is at least as long and provably
        // useless.
        for list in &mut index.up {
            list.sort_by(|x, y| {
                x.weight
                    .partial_cmp(&y.weight)
                    .unwrap_or(Ordering::Equal)
                    .then_with(|| x.to.cmp(&y.to))
            });
        }
        index.edges = b.edges;
        index.build_labels(n);
        index
    }

    /// Tabulates a pruned hub label per node, walking the contraction
    /// order from most- to least-important so every upward neighbor's
    /// label exists before it is consumed.
    ///
    /// `label(v)` = the self-entry plus, for every upward edge
    /// `v → u`, every entry of `label(u)` shifted by the edge weight,
    /// deduplicated per hub by strictly-smaller distance. A candidate
    /// `(h, d)` is then pruned when some already-kept higher hub `h2`
    /// certifies an equal-or-shorter path `v → h2 → h` through the
    /// neighbor labels — the standard hub-label pruning, which keeps
    /// query minima exact while shrinking labels to the nodes that
    /// actually dominate some shortest path. Every surviving entry's
    /// first-edge pointer leads to a neighbor whose own label still
    /// contains the hub (pruning happened strictly before consumption),
    /// so paths can always be walked hub-ward for exact unpacking.
    ///
    /// The kept hubs' distances live in a rank-indexed table stamped with
    /// `v`'s turn, so each candidate is tested by one scan of its hub's
    /// label.
    fn build_labels(&mut self, n: usize) {
        self.labels = vec![Vec::new(); n];
        // Candidate buffer: (hub rank, dist, first arena edge).
        let mut cand: Vec<LabelEntry> = Vec::new();
        // `kept_dist[r]` is the kept distance to the hub of rank `r` where
        // `kept_turn[r]` is the current turn (turns start at 1).
        let mut kept_dist = vec![0.0f64; n];
        let mut kept_turn = vec![0u32; n];
        for (turn, &v) in (1u32..).zip(self.order.iter().rev()) {
            cand.clear();
            cand.push(LabelEntry {
                hub: self.rank[v as usize],
                dist: 0.0,
                edge: u32::MAX,
            });
            for ue in &self.up[v as usize] {
                for le in &self.labels[ue.to as usize] {
                    cand.push(LabelEntry {
                        hub: le.hub,
                        dist: ue.weight + le.dist,
                        edge: ue.edge,
                    });
                }
            }
            // Highest hub first; per hub, smallest distance first with a
            // deterministic edge tie-break.
            cand.sort_by(|x, y| {
                y.hub
                    .cmp(&x.hub)
                    .then_with(|| x.dist.partial_cmp(&y.dist).unwrap_or(Ordering::Equal))
                    .then_with(|| x.edge.cmp(&y.edge))
            });
            let mut kept: Vec<LabelEntry> = Vec::new();
            let mut last_hub = u32::MAX;
            'cands: for &c in &cand {
                if c.hub == last_hub {
                    continue; // a longer path to an already-decided hub
                }
                last_hub = c.hub;
                // Prune if some kept (strictly higher) hub already
                // reaches this one at least as cheaply: every hub the
                // two share is in the hub's label.
                for h in &self.labels[self.order[c.hub as usize] as usize] {
                    let r = h.hub as usize;
                    if kept_turn[r] == turn && kept_dist[r] + h.dist <= c.dist {
                        continue 'cands;
                    }
                }
                kept_turn[c.hub as usize] = turn;
                kept_dist[c.hub as usize] = c.dist;
                kept.push(c);
            }
            #[cfg(test)]
            assert_eq!(
                tests::entry_bits(&kept),
                tests::entry_bits(&tests::merge_prune(&self.labels, &self.order, &cand)),
                "scatter prune diverged from the merge prune at node {v}"
            );
            // Rank-ascending for hub-order scans and binary-search walks.
            kept.reverse();
            kept.shrink_to_fit();
            self.labels[v as usize] = kept;
        }
    }

    /// Number of nodes the hierarchy covers.
    pub fn node_count(&self) -> usize {
        self.up.len()
    }

    /// Number of shortcut edges the preprocessing inserted.
    pub fn shortcut_count(&self) -> usize {
        self.shortcuts
    }

    /// Total hub-label entries across all nodes (the oracle's table
    /// size; divide by [`ChIndex::node_count`] for the mean label
    /// length, which bounds the per-query scan work).
    pub fn label_entries(&self) -> usize {
        self.labels.iter().map(Vec::len).sum()
    }

    /// The contraction order (least important node first).
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// A determinism probe: an FNV-1a fold over the contraction order,
    /// the full edge arena (endpoints, weight bits, bypassed node) and
    /// the hub labels. Two builds agree on the signature iff they
    /// produced the same oracle, so equal-seed builds can be compared in
    /// one `u64`.
    pub fn signature(&self) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        let mut mix = |x: u64| {
            h ^= x;
            h = h.wrapping_mul(0x100000001b3);
        };
        for &v in &self.order {
            mix(v as u64);
        }
        for e in &self.edges {
            mix(e.a as u64);
            mix(e.b as u64);
            mix(e.weight.to_bits());
            mix(e.mid as u64);
        }
        for label in &self.labels {
            mix(label.len() as u64);
            for le in label {
                mix(le.hub as u64);
                mix(le.dist.to_bits());
            }
        }
        h
    }

    /// Exact network distance via the hub labels; `None` when
    /// unreachable. Uses a fresh [`ChScratch`] (which does no per-node
    /// work) — use [`ChIndex::distance_with`] on hot paths.
    pub fn distance(&self, from: NodeId, to: NodeId) -> Option<f64> {
        self.distance_with(from, to, &mut ChScratch::new())
    }

    /// [`ChIndex::distance`] against a caller-managed [`ChScratch`]; a
    /// run of queries from one `from` scatters its label once.
    pub fn distance_with(&self, from: NodeId, to: NodeId, scratch: &mut ChScratch) -> Option<f64> {
        let mut stats = SearchStats::default();
        self.label_query(from, to, scratch, &mut stats)
    }

    /// The hub-label query: scatters `from`'s label into the scratch (see
    /// the module docs), scans `to`'s label for the cheapest common hub,
    /// then walks its two monotone paths edge-by-edge through the
    /// neighbor labels, unpacked and folded left-to-right (the
    /// bit-identity contract). `stats.relaxed` counts label entries read
    /// — each a compare-and-add, strictly cheaper than a graph edge
    /// relaxation, so the comparison against A\*/ALT relaxation counts is
    /// conservative. `stats.settled` counts common hubs evaluated.
    fn label_query(
        &self,
        from: NodeId,
        to: NodeId,
        scratch: &mut ChScratch,
        stats: &mut SearchStats,
    ) -> Option<f64> {
        #[cfg(test)]
        {
            scratch.queries += 1;
        }
        let n = self.up.len();
        if from as usize >= n || to as usize >= n {
            return None;
        }
        if from == to {
            return Some(0.0);
        }
        let key = u64::from(from) << 32 | u64::from(to);
        if let Some(answer) = scratch.recall(self.id, key) {
            return answer;
        }
        scratch.scatter(self, from, stats);
        let target = &self.labels[to as usize];
        let best = scratch.best_hub(target, stats);
        #[cfg(test)]
        assert_eq!(
            best.map(|e| e.hub),
            tests::merge_best_hub(&self.labels[from as usize], target).0,
            "scan diverged from the merge on {from}->{to}"
        );
        let answer = best.map(|best| self.unpack(from, to, best, scratch));
        scratch.remember(key, answer);
        answer
    }

    /// The length of the shortest `from → to` path through `best.hub`
    /// (`best` being `to`'s label entry for it, which holds the first edge
    /// of `to`'s side): both monotone paths walked into the chain buffer,
    /// `from → hub` in path order, then `to → hub` reversed into
    /// `hub → to` order, and folded.
    fn unpack(&self, from: NodeId, to: NodeId, best: LabelEntry, scratch: &mut ChScratch) -> f64 {
        let hub = best.hub;
        scratch.chain.clear();
        let mut cur = from;
        while self.rank[cur as usize] != hub {
            let e = self.label_edge(cur, hub);
            scratch.chain.push((e, cur));
            cur = self.other_end(e, cur);
        }
        let start = scratch.chain.len();
        let mut cur = to;
        while self.rank[cur as usize] != hub {
            let e = if cur == to {
                best.edge
            } else {
                self.label_edge(cur, hub)
            };
            let next = self.other_end(e, cur);
            scratch.chain.push((e, next));
            cur = next;
        }
        scratch.chain[start..].reverse();
        self.fold_chain(scratch)
    }

    /// The first arena edge of `node`'s monotone path to `hub` (which
    /// must be present in its label — guaranteed for a hub common to two
    /// labels, see [`ChIndex::build_labels`]).
    #[inline]
    fn label_edge(&self, node: NodeId, hub: u32) -> u32 {
        let label = &self.labels[node as usize];
        let pos = label
            .binary_search_by(|e| e.hub.cmp(&hub))
            .expect("hub chain broken: pruned entry consumed");
        label[pos].edge
    }

    #[inline]
    fn other_end(&self, edge: u32, from: NodeId) -> NodeId {
        let e = self.edges[edge as usize];
        if e.a == from {
            e.b
        } else {
            e.a
        }
    }

    /// Expands the chain buffer's shortcuts with an explicit stack and
    /// folds the original edge lengths strictly left-to-right — the same
    /// fold Dijkstra's relaxation performs along the path.
    fn fold_chain(&self, s: &mut ChScratch) -> f64 {
        let mut acc = 0.0f64;
        s.work.clear();
        for k in 0..s.chain.len() {
            s.work.push(s.chain[k]);
            while let Some((ei, entered)) = s.work.pop() {
                let e = self.edges[ei as usize];
                if e.mid == NONE {
                    acc += e.weight;
                } else if entered == e.a {
                    s.work.push((e.child_b, e.mid));
                    s.work.push((e.child_a, entered));
                } else {
                    s.work.push((e.child_a, e.mid));
                    s.work.push((e.child_b, entered));
                }
            }
        }
        acc
    }
}

/// Reusable query state for [`ChIndex`] queries: the scattered label of
/// the last source asked about, the last answers, and the buffers that
/// expand a hub path back into original edges. One scratch serves any
/// number of consecutive queries, against any number of indexes.
#[derive(Default)]
pub struct ChScratch {
    /// `hub_dist[r]` is the source label's distance to the hub of rank
    /// `r` where `hub_stamp[r] == stamp`. Both are allocated zeroed, and
    /// stamp 0 is never current, so no entry is written before it is used.
    hub_dist: Vec<f64>,
    hub_stamp: Vec<u32>,
    stamp: u32,
    /// The lowest hub of the scattered label: the source's own rank.
    base: u32,
    /// `(index id, node)` whose label the table holds.
    source: Option<(u64, NodeId)>,
    /// Recent answers, direct-mapped by a hash of their key
    /// `from << 32 | to` (never 0: a query from a node to itself is not
    /// kept): `[key, answer bits]`, `u64::MAX` standing for no path. They
    /// belong to the index whose id is `answers_of`.
    answers: Vec<[u64; 2]>,
    answers_of: u64,
    /// The hub path being unpacked: `(arena edge, node it is entered at)`,
    /// and the stack that expands its shortcuts.
    chain: Vec<(u32, NodeId)>,
    work: Vec<(u32, NodeId)>,
    /// Queries answered over this scratch.
    #[cfg(test)]
    pub(crate) queries: u64,
}

impl ChScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The kept answer for `key` over the index `index`, if any. The
    /// first call, and the first call about another index, sets up an
    /// empty table (allocated zeroed: no slot is written before use).
    fn recall(&mut self, index: u64, key: u64) -> Option<Option<f64>> {
        if self.answers.is_empty() || self.answers_of != index {
            if self.answers.is_empty() {
                self.answers = vec![[0; 2]; ANSWER_SLOTS];
            } else {
                self.answers.fill([0; 2]);
            }
            self.answers_of = index;
            return None;
        }
        let [kept, bits] = self.answers[answer_slot(key)];
        (kept == key).then(|| (bits != u64::MAX).then(|| f64::from_bits(bits)))
    }

    /// Keeps `answer` for `key`, over whatever its slot held.
    fn remember(&mut self, key: u64, answer: Option<f64>) {
        self.answers[answer_slot(key)] = [key, answer.map_or(u64::MAX, f64::to_bits)];
    }

    /// Scatters `from`'s label into the hub table, unless the table holds
    /// it already.
    fn scatter(&mut self, index: &ChIndex, from: NodeId, stats: &mut SearchStats) {
        if self.source == Some((index.id, from)) {
            return;
        }
        let n = index.node_count();
        if self.hub_stamp.len() < n {
            self.hub_dist = vec![0.0; n];
            self.hub_stamp = vec![0; n];
            self.stamp = 0;
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.hub_stamp.fill(0);
            self.stamp = 1;
        }
        let label = &index.labels[from as usize];
        stats.relaxed += label.len() as u64;
        for e in label {
            self.hub_dist[e.hub as usize] = e.dist;
            self.hub_stamp[e.hub as usize] = self.stamp;
        }
        self.base = label.first().map_or(0, |e| e.hub);
        self.source = Some((index.id, from));
    }

    /// `label`'s entry for the cheapest hub it shares with the scattered
    /// label: the first strict minimum of `source dist + target dist` in
    /// ascending hub order, or `None` when the two share no hub. The scan
    /// runs down from the top and stops below the source's own rank,
    /// under which the scattered label has no hub; keeping the last of
    /// equal minima (`<=`) going down keeps the first going up.
    fn best_hub(&self, label: &[LabelEntry], stats: &mut SearchStats) -> Option<LabelEntry> {
        let mut best = f64::INFINITY;
        let mut best_entry = None;
        for e in label.iter().rev() {
            stats.relaxed += 1;
            if e.hub < self.base {
                break;
            }
            let r = e.hub as usize;
            if self.hub_stamp[r] == self.stamp {
                stats.settled += 1;
                let d = self.hub_dist[r] + e.dist;
                if d <= best {
                    best = d;
                    best_entry = Some(*e);
                }
            }
        }
        best_entry
    }
}

/// Hub-label CH query with effort counters — the oracle-side analogue of
/// [`crate::counting_dijkstra`] / [`crate::counting_astar`] /
/// [`crate::counting_alt`], so per-query work is directly
/// comparable across the four strategies. `relaxed` counts label entries
/// read — both labels, since the scratch is fresh (each entry strictly
/// cheaper than one graph edge relaxation); `settled` counts common hubs
/// evaluated.
pub fn counting_ch(index: &ChIndex, from: NodeId, to: NodeId) -> (Option<f64>, SearchStats) {
    let mut stats = SearchStats::default();
    let d = index.label_query(from, to, &mut ChScratch::new(), &mut stats);
    (d, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate_network, GeneratorConfig};
    use crate::graph::RoadClass;
    use crate::shortest_path::{counting_astar, dijkstra_distance};
    use senn_geom::Point;

    fn net() -> RoadNetwork {
        generate_network(&GeneratorConfig::city(2500.0, 42))
    }

    /// The reference witness rule, the wide one: every search from
    /// `nb[i]` is capped by the longest edge to any other neighbour, runs
    /// until the cap or the settle limit, and reads weights from the
    /// arena. [`Builder::priority_of`] asserts, on every
    /// call in a test build, that the production rule yields these pairs;
    /// this also checks that `v`'s adjacency weights match the arena.
    pub(super) fn reference_shortcut_pairs(b: &mut Builder, v: NodeId) -> Vec<(u32, u32, f64)> {
        let mut pairs = Vec::new();
        let nb = b.adj[v as usize].clone();
        for &(to, ei, w) in &nb {
            assert_eq!(
                w.to_bits(),
                b.edges[ei as usize].weight.to_bits(),
                "adjacency weight of {v}–{to} out of sync with the arena"
            );
        }
        for (i, &(u, eu, _)) in nb.iter().enumerate() {
            let wu = b.edges[eu as usize].weight;
            let mut worst = 0.0f64;
            for (j, &(_, ew, _)) in nb.iter().enumerate() {
                if j != i {
                    worst = worst.max(b.edges[ew as usize].weight);
                }
            }
            if i + 1 < nb.len() {
                reference_witness(b, u, v, wu + worst);
                for (j, &(w, ew, _)) in nb.iter().enumerate().skip(i + 1) {
                    let sc = wu + b.edges[ew as usize].weight;
                    if b.wdist(w) > sc {
                        pairs.push((i as u32, j as u32, sc));
                    }
                }
            }
        }
        pairs
    }

    /// The capped, settle-limited Dijkstra of the reference rule, with no
    /// target stop; it shares the builder's witness scratch.
    fn reference_witness(b: &mut Builder, source: NodeId, avoid: NodeId, cap: f64) {
        b.wgen = b.wgen.wrapping_add(1);
        if b.wgen == 0 {
            b.wstamp.fill(0);
            b.wtarget.fill(0);
            b.wgen = 1;
        }
        b.wheap.clear();
        b.wdist[source as usize] = 0.0;
        b.wstamp[source as usize] = b.wgen;
        b.wheap.push(QItem {
            dist: 0.0,
            node: source,
        });
        let mut settled = 0usize;
        while let Some(QItem { dist: d, node }) = b.wheap.pop() {
            if d > b.wdist(node) {
                continue;
            }
            settled += 1;
            if settled > WITNESS_SETTLE_LIMIT || d > cap {
                return;
            }
            for k in 0..b.adj[node as usize].len() {
                let (to, ei, _) = b.adj[node as usize][k];
                if to == avoid {
                    continue;
                }
                let nd = d + b.edges[ei as usize].weight;
                if nd < b.wdist(to) {
                    b.wdist[to as usize] = nd;
                    b.wstamp[to as usize] = b.wgen;
                    b.wheap.push(QItem { dist: nd, node: to });
                }
            }
        }
    }

    /// The two-pointer merge of two labels: over the common hubs in
    /// ascending order, the first strict minimum of
    /// `la.dist + lb.dist`, with the number of common hubs.
    /// [`ChIndex::label_query`] asserts, on every query in a test build,
    /// that the scan picks this hub.
    pub(super) fn merge_best_hub(la: &[LabelEntry], lb: &[LabelEntry]) -> (Option<u32>, u64) {
        let (mut i, mut j) = (0usize, 0usize);
        let mut best = f64::INFINITY;
        let mut best_hub = None;
        let mut common = 0;
        while i < la.len() && j < lb.len() {
            match la[i].hub.cmp(&lb[j].hub) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => {
                    common += 1;
                    let d = la[i].dist + lb[j].dist;
                    if d < best {
                        best = d;
                        best_hub = Some(la[i].hub);
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        (best_hub, common)
    }

    /// The label pruning as one merge per candidate: the kept entries, hub
    /// descending, of one node's sorted candidates. `kept` runs hub
    /// descending and each hub's label hub ascending, so one merge from
    /// the label's top finds every shared hub. [`ChIndex::build_labels`]
    /// asserts, for every node in a test build, that it keeps these.
    pub(super) fn merge_prune(
        labels: &[Vec<LabelEntry>],
        order: &[NodeId],
        cand: &[LabelEntry],
    ) -> Vec<LabelEntry> {
        let mut kept: Vec<LabelEntry> = Vec::new();
        let mut last_hub = u32::MAX;
        'cands: for &c in cand {
            if c.hub == last_hub {
                continue;
            }
            last_hub = c.hub;
            let hub_label = &labels[order[c.hub as usize] as usize];
            let mut top = hub_label.len();
            for k in &kept {
                while top > 0 && hub_label[top - 1].hub > k.hub {
                    top -= 1;
                }
                if top == 0 {
                    break;
                }
                let h = &hub_label[top - 1];
                if h.hub == k.hub && k.dist + h.dist <= c.dist {
                    continue 'cands;
                }
            }
            kept.push(c);
        }
        kept
    }

    /// Label entries as comparable bits.
    pub(super) fn entry_bits(entries: &[LabelEntry]) -> Vec<(u32, u64, u32)> {
        entries
            .iter()
            .map(|e| (e.hub, e.dist.to_bits(), e.edge))
            .collect()
    }

    /// A `w × h` grid whose nodes are jittered by a xorshift stream from
    /// a nonzero `seed`: measure-zero shortest-path ties. A `detour`
    /// above 1 first joins nodes 0 and 1 by an edge that many times their
    /// distance, which the grid's own edge then undercuts.
    fn jittered_grid(w: usize, h: usize, seed: u64, detour: f64) -> RoadNetwork {
        let mut net = RoadNetwork::new();
        let mut state = seed;
        let mut unit = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut ids = Vec::new();
        for y in 0..h {
            for x in 0..w {
                let px = x as f64 * 200.0 + (unit() - 0.5) * 70.0;
                let py = y as f64 * 200.0 + (unit() - 0.5) * 70.0;
                ids.push(net.add_node(Point::new(px, py)));
            }
        }
        if detour > 1.0 {
            let long = net.position(ids[0]).dist(net.position(ids[1])) * detour;
            net.add_edge_with_length(ids[0], ids[1], RoadClass::Local, long);
        }
        for y in 0..h {
            for x in 0..w {
                if x + 1 < w {
                    net.add_edge(ids[y * w + x], ids[y * w + x + 1], RoadClass::Local);
                }
                if y + 1 < h {
                    net.add_edge(ids[y * w + x], ids[(y + 1) * w + x], RoadClass::Secondary);
                }
            }
        }
        net
    }

    #[test]
    fn ch_matches_dijkstra() {
        let net = net();
        let idx = ChIndex::build(&net);
        let n = net.node_count() as u32;
        let mut scratch = ChScratch::new();
        for i in 0..40u32 {
            let from = (i * 37) % n;
            let to = (i * 101 + 13) % n;
            let want = dijkstra_distance(&net, from, to);
            let got = idx.distance_with(from, to, &mut scratch);
            match (got, want) {
                (Some(g), Some(w)) => {
                    assert!(
                        (g - w).abs() <= 1e-9 * w.max(1.0),
                        "{from}->{to}: {g} vs {w}"
                    )
                }
                (a, b) => assert_eq!(a.is_some(), b.is_some(), "{from}->{to}"),
            }
        }
    }

    #[test]
    fn unpacked_distances_are_bit_identical_on_jittered_grids() {
        // A fully jittered grid has measure-zero shortest-path ties, so
        // CH must pick Dijkstra's path and fold the identical edge
        // sequence — equality down to the last bit, not a tolerance.
        let net = jittered_grid(14, 11, 0x1234_5678, 0.0);
        let idx = ChIndex::build_seeded(&net, 9);
        let n = net.node_count() as u32;
        let mut scratch = ChScratch::new();
        for i in 0..120u32 {
            let from = (i * 53) % n;
            let to = (i * 131 + 7) % n;
            let want = dijkstra_distance(&net, from, to);
            let got = idx.distance_with(from, to, &mut scratch);
            assert_eq!(
                got.map(f64::to_bits),
                want.map(f64::to_bits),
                "{from}->{to}: {got:?} vs {want:?}"
            );
        }
    }

    #[test]
    fn build_is_deterministic_per_seed() {
        let net = net();
        let a = ChIndex::build_seeded(&net, 7);
        let b = ChIndex::build_seeded(&net, 7);
        assert_eq!(a.order(), b.order());
        assert_eq!(a.shortcut_count(), b.shortcut_count());
        assert_eq!(a.label_entries(), b.label_entries());
        assert_eq!(a.signature(), b.signature());
        // A different seed permutes the tie-breaks; distances must not
        // care.
        let c = ChIndex::build_seeded(&net, 8);
        let n = net.node_count() as u32;
        for i in 0..15u32 {
            let from = (i * 41) % n;
            let to = (i * 89 + 5) % n;
            assert_eq!(
                a.distance(from, to).map(|d| (d * 1e6).round()),
                c.distance(from, to).map(|d| (d * 1e6).round()),
                "{from}->{to}"
            );
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_scratch() {
        let net = net();
        let idx = ChIndex::build(&net);
        let n = net.node_count() as u32;
        let mut scratch = ChScratch::new();
        for i in 0..30u32 {
            let from = (i * 41) % n;
            let to = (i * 89 + 5) % n;
            let fresh = idx.distance(from, to);
            assert_eq!(
                idx.distance_with(from, to, &mut scratch),
                fresh,
                "{from}->{to}"
            );
        }
    }

    /// A scratch answers a repeated pair from its kept answers, and those
    /// equal a fresh scratch's bit for bit, unreachable pairs included; a
    /// query against another index in between sets the kept answers aside.
    #[test]
    fn remembered_answers_equal_fresh_answers() {
        let mut net = net();
        let island = net.add_node(Point::new(9e5, 9e5));
        let idx = ChIndex::build_seeded(&net, 3);
        let other = ChIndex::build_seeded(&net, 4);
        let n = net.node_count() as u32;
        let pairs: Vec<(NodeId, NodeId)> = (0..40u32)
            .map(|i| ((i * 41) % n, (i * 89 + 5) % n))
            .chain([(0, island), (island, 7)])
            .collect();
        let mut scratch = ChScratch::new();
        for round in 0..3 {
            for &(from, to) in &pairs {
                let mut stats = SearchStats::default();
                let got = idx.label_query(from, to, &mut scratch, &mut stats);
                assert_eq!(
                    got.map(f64::to_bits),
                    idx.distance(from, to).map(f64::to_bits),
                    "round {round}: {from}->{to}"
                );
                if round == 1 && from != to {
                    assert_eq!(stats.relaxed, 0, "a kept answer reads no label");
                }
            }
            // Between the second and third rounds, a query against
            // another index.
            if round == 1 {
                assert_eq!(
                    other.distance_with(1, 2, &mut scratch),
                    other.distance(1, 2)
                );
            }
        }
    }

    #[test]
    fn ch_relaxes_far_fewer_edges_than_astar() {
        let net = generate_network(&GeneratorConfig::city(8000.0, 42));
        let idx = ChIndex::build(&net);
        let n = net.node_count() as u32;
        let mut ch_total = SearchStats::default();
        let mut astar_total = SearchStats::default();
        for i in 0..20u32 {
            let from = (i * 53) % n;
            let to = (i * 197 + 7) % n;
            let (d, ch_stats) = counting_ch(&idx, from, to);
            if d.is_some() {
                let (_, astar_stats) = counting_astar(&net, from, to);
                ch_total.add(ch_stats);
                astar_total.add(astar_stats);
            }
        }
        // The ratio grows with network size (labels are near-constant,
        // A* is not): x16 on this 8 km city, x4 at 3 km.
        assert!(
            ch_total.relaxed * 10 < astar_total.relaxed,
            "hub labels should scan far fewer entries than A* relaxes edges ({} vs {})",
            ch_total.relaxed,
            astar_total.relaxed
        );
        assert!(ch_total.settled < astar_total.settled);
    }

    #[test]
    fn empty_single_node_and_unreachable() {
        let empty = RoadNetwork::new();
        let idx = ChIndex::build(&empty);
        assert_eq!(idx.node_count(), 0);
        assert_eq!(idx.distance(0, 0), None);

        let mut one = RoadNetwork::new();
        let a = one.add_node(Point::new(1.0, 1.0));
        let idx = ChIndex::build(&one);
        assert_eq!(idx.distance(a, a), Some(0.0));
        assert_eq!(idx.shortcut_count(), 0);

        let mut net = net();
        let island = net.add_node(Point::new(9e5, 9e5));
        let idx = ChIndex::build(&net);
        assert_eq!(idx.distance(0, island), None);
        assert_eq!(idx.distance(island, 0), None);
        assert_eq!(idx.distance(island, island), Some(0.0));
        // Out-of-range ids are rejected, not a panic.
        let n = net.node_count() as u32;
        assert_eq!(idx.distance(0, n), None);
        assert_eq!(idx.distance(n, 0), None);
    }

    #[test]
    fn parallel_edges_collapse_to_the_shortest() {
        let mut net = RoadNetwork::new();
        let a = net.add_node(Point::new(0.0, 0.0));
        let b = net.add_node(Point::new(10.0, 0.0));
        net.add_edge_with_length(a, b, RoadClass::Local, 25.0);
        net.add_edge_with_length(a, b, RoadClass::Local, 12.0);
        net.add_edge_with_length(a, b, RoadClass::Local, 19.0);
        let idx = ChIndex::build(&net);
        assert_eq!(idx.distance(a, b), Some(12.0));
        assert_eq!(idx.distance(a, b), dijkstra_distance(&net, a, b));
    }

    #[test]
    fn a_shortcut_replaces_a_longer_existing_edge() {
        // A triangle a–v–b whose direct a–b road is three times the walk
        // through v. Leaves keep a and b important, so v goes first and
        // its shortcut must take over the a–b entry on both sides.
        let mut net = RoadNetwork::new();
        let a = net.add_node(Point::new(0.0, 0.0));
        let b = net.add_node(Point::new(100.0, 0.0));
        let v = net.add_node(Point::new(50.0, 10.0));
        net.add_edge(a, v, RoadClass::Local);
        net.add_edge(v, b, RoadClass::Local);
        net.add_edge_with_length(a, b, RoadClass::Local, 300.0);
        for k in 0..3 {
            for (hub, x) in [(a, 0.0), (b, 100.0)] {
                let leaf = net.add_node(Point::new(x, -30.0 - 20.0 * k as f64));
                net.add_edge(hub, leaf, RoadClass::Local);
            }
        }
        let n = net.node_count() as u32;
        for seed in 0..8 {
            let idx = ChIndex::build_seeded(&net, seed);
            assert!(
                idx.edges
                    .iter()
                    .any(|e| e.mid == v && (e.a.min(e.b), e.a.max(e.b)) == (a, b)),
                "seed {seed}: no a–b shortcut through v"
            );
            for from in 0..n {
                for to in 0..n {
                    assert_eq!(
                        idx.distance(from, to).map(f64::to_bits),
                        dijkstra_distance(&net, from, to).map(f64::to_bits),
                        "seed {seed}: {from}->{to}"
                    );
                }
            }
        }
    }

    #[test]
    fn order_is_a_permutation_and_up_edges_point_upward() {
        let net = net();
        let idx = ChIndex::build(&net);
        let n = net.node_count();
        assert_eq!(idx.order().len(), n);
        let mut seen = vec![false; n];
        for &v in idx.order() {
            assert!(!seen[v as usize], "node {v} contracted twice");
            seen[v as usize] = true;
        }
        for v in 0..n {
            for ue in &idx.up[v] {
                assert!(
                    idx.rank[ue.to as usize] > idx.rank[v],
                    "up-edge {v}->{} goes downward",
                    ue.to
                );
            }
        }
    }

    #[test]
    fn label_and_search_queries_agree_everywhere() {
        // The hub-label query against a Dijkstra search over a lattice
        // of endpoint pairs.
        let net = net();
        let idx = ChIndex::build(&net);
        let n = net.node_count() as u32;
        let mut scratch = ChScratch::new();
        for from in (0..n).step_by(17) {
            for to in (0..n).step_by(23) {
                let lab = idx.distance_with(from, to, &mut scratch);
                let sea = dijkstra_distance(&net, from, to);
                match (lab, sea) {
                    (Some(a), Some(b)) => {
                        assert!(
                            (a - b).abs() <= 1e-9 * a.max(1.0),
                            "{from}->{to}: {a} vs {b}"
                        )
                    }
                    (a, b) => assert_eq!(a.is_some(), b.is_some(), "{from}->{to}"),
                }
            }
        }
    }

    /// On an unjittered lattice with 200 m blocks every sum is an exact
    /// integer, so many hubs tie for the minimum and many kept hubs tie a
    /// candidate's distance. The build checks every node's prune against
    /// the merge prune, and every query here checks its hub against the
    /// merge's (the asserts in `build_labels` and `label_query`); the
    /// lengths equal Dijkstra's, as every fold of these paths is exact.
    #[test]
    fn scan_and_prune_keep_the_merges_choice_on_ties() {
        let (w, h) = (9usize, 7usize);
        let mut net = RoadNetwork::new();
        let ids: Vec<NodeId> = (0..w * h)
            .map(|i| net.add_node(Point::new(200.0 * (i % w) as f64, 200.0 * (i / w) as f64)))
            .collect();
        for y in 0..h {
            for x in 0..w {
                if x + 1 < w {
                    net.add_edge(ids[y * w + x], ids[y * w + x + 1], RoadClass::Local);
                }
                if y + 1 < h {
                    net.add_edge(ids[y * w + x], ids[(y + 1) * w + x], RoadClass::Local);
                }
            }
        }
        for seed in 0..4 {
            let idx = ChIndex::build_seeded(&net, seed);
            let mut scratch = ChScratch::new();
            for &from in &ids {
                for &to in &ids {
                    assert_eq!(
                        idx.distance_with(from, to, &mut scratch),
                        dijkstra_distance(&net, from, to),
                        "seed {seed}: {from}->{to}"
                    );
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Every contraction step of a build over a jittered grid checks
        /// the narrowed witness rule against the reference (the assert in
        /// `priority_of`), with a parallel edge whose collapse lowers an
        /// arena weight; the finished index answers bit-identically to
        /// Dijkstra.
        #[test]
        fn witness_rule_matches_reference_on_jittered_grids(
            w in 2usize..8,
            h in 2usize..8,
            seed in 1u64..u64::MAX,
            build_seed in proptest::prelude::any::<u64>(),
            detour in 1.01..1.5f64,
        ) {
            let net = jittered_grid(w, h, seed, detour);
            let idx = ChIndex::build_seeded(&net, build_seed);
            let n = net.node_count() as u32;
            let mut scratch = ChScratch::new();
            for from in 0..n {
                for to in (from % 3..n).step_by(3) {
                    let want = dijkstra_distance(&net, from, to);
                    let got = idx.distance_with(from, to, &mut scratch);
                    proptest::prop_assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits));
                }
            }
        }

        /// The one-to-many scan against the merge on a jittered grid with
        /// a second, unreachable component (and an isolated node): one
        /// scratch answers every target from one anchor, then re-anchors,
        /// returns to earlier anchors (kept answers) and asks a second
        /// index over the same network in between. Every answer picks the
        /// merge's hub (the assert in `label_query`) with its common-hub
        /// count, and its bits equal a fresh scratch's and Dijkstra's.
        /// Every build here also runs the scatter prune against the merge
        /// prune (the assert in `build_labels`).
        #[test]
        fn scan_matches_the_merge_one_to_many(
            w in 2usize..7,
            h in 2usize..7,
            seed in 1u64..u64::MAX,
            build_seed in proptest::prelude::any::<u64>(),
            anchors in proptest::prop::collection::vec(0usize..1000, 1..6),
        ) {
            let mut net = jittered_grid(w, h, seed, 0.0);
            let base = net.node_count() as NodeId;
            for k in 0..3 {
                net.add_node(Point::new(9e5 + 150.0 * f64::from(k), 9e5));
            }
            net.add_edge(base, base + 1, RoadClass::Local);
            net.add_edge(base + 1, base + 2, RoadClass::Local);
            net.add_node(Point::new(-9e5, 9e5));
            let idx = ChIndex::build_seeded(&net, build_seed);
            let other = ChIndex::build_seeded(&net, build_seed ^ 0x5a5a);
            let n = net.node_count() as NodeId;
            let mut scratch = ChScratch::new();
            for (turn, &a) in anchors.iter().enumerate() {
                let from = a as NodeId % n;
                for to in 0..n {
                    let index = if (to as usize + turn).is_multiple_of(5) { &other } else { &idx };
                    let mut stats = SearchStats::default();
                    let got = index.label_query(from, to, &mut scratch, &mut stats);
                    let (hub, common) = merge_best_hub(
                        &index.labels[from as usize],
                        &index.labels[to as usize],
                    );
                    let want = index.distance(from, to);
                    proptest::prop_assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits));
                    proptest::prop_assert_eq!(got.is_some(), hub.is_some() || from == to);
                    proptest::prop_assert_eq!(
                        got.map(f64::to_bits),
                        dijkstra_distance(&net, from, to).map(f64::to_bits)
                    );
                    if from != to {
                        proptest::prop_assert_eq!(stats.settled, common);
                    }
                }
            }
        }
    }
}
