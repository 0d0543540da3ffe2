//! The R\*-tree proper: insertion with forced reinsert, R\* node splitting,
//! deletion with tree condensation, and range search.
//!
//! **Insertion computes only what can change a decision.** ChooseSubtree
//! at the leaf-parent level computes the O(M) overlap key only for
//! children whose O(1) lower bound can still win; an insert grows each
//! ancestor's rectangle by the new entry and stops at the first one that
//! did not change; a split folds prefix and suffix rectangles once per
//! sorting instead of twice per distribution. The decisions are those of
//! the textbook O(M²) kernels, kept as test oracles, and the tree is
//! theirs bit for bit (signatures pinned in the tests). Min and max are
//! exact, so a grown or prefix/suffix rectangle is the one a fold from
//! scratch gives; the one freedom left is the sign of a zero where
//! `-0.0` and `+0.0` tie, which `f64::min` and `f64::max` leave open in
//! the old fold as in the new.

use senn_geom::{Point, Rect};

/// Sentinel parent id for the root node.
const NO_PARENT: usize = usize::MAX;

/// Structural parameters of the tree.
#[derive(Clone, Copy, Debug)]
pub struct TreeConfig {
    /// Maximum entries per node (branching factor). The paper sets 30 for
    /// both index and leaf nodes.
    pub max_entries: usize,
    /// Minimum entries per non-root node. The R\*-tree paper recommends
    /// 40 % of the maximum.
    pub min_entries: usize,
    /// Number of entries removed by a forced reinsert (R\*: 30 % of max).
    pub reinsert_count: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig::with_branching(30)
    }
}

impl TreeConfig {
    /// Derives the R\*-tree recommended `min` (40 %) and reinsert count
    /// (30 %) from a branching factor.
    pub fn with_branching(max_entries: usize) -> Self {
        assert!(max_entries >= 4, "branching factor must be at least 4");
        let min_entries = (max_entries * 2 / 5).max(2);
        let reinsert_count = (max_entries * 3 / 10).max(1);
        TreeConfig {
            max_entries,
            min_entries,
            reinsert_count,
        }
    }
}

/// An entry of a node: the bounding rectangle plus either a child node id
/// (internal nodes) or an item id (leaf nodes).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Entry {
    pub mbr: Rect,
    pub id: usize,
}

#[derive(Clone, Debug)]
pub(crate) struct Node {
    /// 0 for leaves, increasing toward the root.
    pub level: usize,
    pub parent: usize,
    pub entries: Vec<Entry>,
}

impl Node {
    fn mbr(&self) -> Rect {
        self.entries.iter().fold(Rect::EMPTY, |r, e| r.union(e.mbr))
    }
}

/// An R\*-tree over points with payloads of type `T`.
///
/// ```
/// use senn_geom::Point;
/// use senn_rtree::RStarTree;
///
/// let mut tree = RStarTree::new();
/// for i in 0..100 {
///     tree.insert(Point::new(i as f64, (i * 7 % 13) as f64), i);
/// }
/// let (nn, accesses) = tree.knn(Point::new(3.2, 5.1), 2);
/// assert_eq!(nn.len(), 2);
/// assert!(accesses > 0);
/// ```
#[derive(Clone, Debug)]
pub struct RStarTree<T> {
    pub(crate) nodes: Vec<Node>,
    free_nodes: Vec<usize>,
    pub(crate) items: Vec<Option<(Point, T)>>,
    free_items: Vec<usize>,
    pub(crate) root: usize,
    len: usize,
    config: TreeConfig,
}

impl<T> Default for RStarTree<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> RStarTree<T> {
    /// Creates an empty tree with the paper's default branching factor (30).
    pub fn new() -> Self {
        Self::with_config(TreeConfig::default())
    }

    /// Creates an empty tree with explicit structural parameters.
    pub fn with_config(config: TreeConfig) -> Self {
        assert!(config.min_entries >= 2);
        assert!(config.min_entries * 2 <= config.max_entries + 1);
        assert!(config.reinsert_count >= 1);
        assert!(config.reinsert_count <= config.max_entries - config.min_entries + 1);
        let root = Node {
            level: 0,
            parent: NO_PARENT,
            entries: Vec::new(),
        };
        RStarTree {
            nodes: vec![root],
            free_nodes: Vec::new(),
            items: Vec::new(),
            free_items: Vec::new(),
            root: 0,
            len: 0,
            config,
        }
    }

    /// Number of indexed items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the tree holds no items.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The structural parameters in use.
    pub fn config(&self) -> &TreeConfig {
        &self.config
    }

    /// Height of the tree: 0 for a leaf-only root.
    pub fn height(&self) -> usize {
        self.nodes[self.root].level
    }

    /// Bounding rectangle of all indexed points ([`Rect::EMPTY`] when
    /// empty).
    pub fn bounding_rect(&self) -> Rect {
        self.nodes[self.root].mbr()
    }

    pub(crate) fn item(&self, id: usize) -> &(Point, T) {
        self.items[id].as_ref().expect("live item")
    }

    // ------------------------------------------------------------------
    // Insertion
    // ------------------------------------------------------------------

    /// Inserts `value` at `point`.
    pub fn insert(&mut self, point: Point, value: T) {
        assert!(point.is_finite(), "cannot index a non-finite point");
        let item_id = self.alloc_item(point, value);
        let entry = Entry {
            mbr: Rect::from_point(point),
            id: item_id,
        };
        // R*: forced reinsert fires at most once per level per data insert;
        // bit `level` of the mask records that it has (a height stays
        // below 64: every non-root node holds at least two entries).
        self.insert_entry(entry, 0, &mut 0);
        self.len += 1;
    }

    fn alloc_item(&mut self, point: Point, value: T) -> usize {
        if let Some(id) = self.free_items.pop() {
            self.items[id] = Some((point, value));
            id
        } else {
            self.items.push(Some((point, value)));
            self.items.len() - 1
        }
    }

    fn alloc_node(&mut self, node: Node) -> usize {
        if let Some(id) = self.free_nodes.pop() {
            self.nodes[id] = node;
            id
        } else {
            self.nodes.push(node);
            self.nodes.len() - 1
        }
    }

    /// Inserts an entry at the given tree level (0 = leaf). Used both for
    /// data inserts and for reinserting orphaned subtrees.
    fn insert_entry(&mut self, entry: Entry, level: usize, reinserted: &mut u64) {
        let target = self.choose_subtree(entry.mbr, level);
        if level > 0 {
            // The entry references a child node: re-parent it.
            self.nodes[entry.id].parent = target;
        }
        self.nodes[target].entries.push(entry);
        self.grow_mbrs_upward(target, entry.mbr);
        self.handle_overflow(target, reinserted);
    }

    /// R\* ChooseSubtree: descend to the node at `level` whose enlargement
    /// cost is minimal.
    fn choose_subtree(&self, mbr: Rect, level: usize) -> usize {
        let mut nid = self.root;
        while self.nodes[nid].level > level {
            let node = &self.nodes[nid];
            let best = if node.level == 1 {
                least_overlap_enlargement(&node.entries, mbr)
            } else {
                // Upper levels: least area enlargement, then least area.
                let mut best = 0usize;
                let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
                for (i, e) in node.entries.iter().enumerate() {
                    let area = e.mbr.area();
                    let key = (e.mbr.union(mbr).area() - area, area, 0.0);
                    if key < best_key {
                        best_key = key;
                        best = i;
                    }
                }
                best
            };
            nid = node.entries[best].id;
        }
        nid
    }

    /// The slot of `nid`'s entry in its parent `parent`.
    fn slot_in(&self, parent: usize, nid: usize) -> usize {
        self.nodes[parent]
            .entries
            .iter()
            .position(|e| e.id == nid)
            .expect("child entry present in parent")
    }

    /// Insert-only MBR upkeep after `added` was pushed onto `nid`: each
    /// ancestor's entry becomes `stored ∪ added`, and the walk stops at
    /// the first one whose bits did not change. Min and max are exact, so
    /// this is the rectangle [`Self::update_mbrs_upward`]'s fold would
    /// compute (module docs).
    fn grow_mbrs_upward(&mut self, mut nid: usize, added: Rect) {
        loop {
            let parent = self.nodes[nid].parent;
            if parent == NO_PARENT {
                return;
            }
            let slot = self.slot_in(parent, nid);
            let stored = &mut self.nodes[parent].entries[slot].mbr;
            let grown = stored.union(added);
            if same_bits(*stored, grown) {
                return;
            }
            *stored = grown;
            nid = parent;
        }
    }

    /// Recomputes MBRs from `nid` up to the root, each by a fold over its
    /// node's entries (the shrinking edits: reinsert, split, condense).
    fn update_mbrs_upward(&mut self, mut nid: usize) {
        loop {
            let parent = self.nodes[nid].parent;
            if parent == NO_PARENT {
                return;
            }
            let mbr = self.nodes[nid].mbr();
            let slot = self.slot_in(parent, nid);
            self.nodes[parent].entries[slot].mbr = mbr;
            nid = parent;
        }
    }

    fn handle_overflow(&mut self, mut nid: usize, reinserted: &mut u64) {
        while self.nodes[nid].entries.len() > self.config.max_entries {
            let level_bit = 1u64 << self.nodes[nid].level;
            let is_root = nid == self.root;
            if !is_root && *reinserted & level_bit == 0 {
                *reinserted |= level_bit;
                self.forced_reinsert(nid, reinserted);
                return; // reinsertion handled any knock-on overflows
            }
            nid = self.split(nid);
            if nid == NO_PARENT {
                return; // split created a new root; done
            }
        }
    }

    /// R\* forced reinsert: remove the `reinsert_count` entries whose
    /// centers are farthest from the node's MBR center and insert them
    /// again from the top ("close reinsert": nearest first).
    fn forced_reinsert(&mut self, nid: usize, reinserted: &mut u64) {
        let center = self.nodes[nid].mbr().center();
        let node = &mut self.nodes[nid];
        node.entries.sort_by(|a, b| {
            let da = a.mbr.center().dist_sq(center);
            let db = b.mbr.center().dist_sq(center);
            db.total_cmp(&da) // farthest first
        });
        let removed: Vec<Entry> = node.entries.drain(..self.config.reinsert_count).collect();
        let level = node.level;
        self.update_mbrs_upward(nid);
        // Reinsert nearest-first (the tail of the removed list).
        for entry in removed.into_iter().rev() {
            self.insert_entry(entry, level, reinserted);
        }
    }

    /// Splits an overflowing node; returns the parent id (for overflow
    /// propagation) or [`NO_PARENT`] when a new root was created.
    fn split(&mut self, nid: usize) -> usize {
        let (group_a, group_b) = {
            let node = &mut self.nodes[nid];
            let entries = std::mem::take(&mut node.entries);
            split_entries(entries, self.config.min_entries)
        };
        let level = self.nodes[nid].level;
        let parent = self.nodes[nid].parent;
        self.nodes[nid].entries = group_a;

        let sibling = self.alloc_node(Node {
            level,
            parent: NO_PARENT,
            entries: group_b,
        });
        if level > 0 {
            for i in 0..self.nodes[sibling].entries.len() {
                let child = self.nodes[sibling].entries[i].id;
                self.nodes[child].parent = sibling;
            }
        }

        let mbr_a = self.nodes[nid].mbr();
        let mbr_b = self.nodes[sibling].mbr();

        if parent == NO_PARENT {
            // Root split: grow the tree by one level.
            let new_root = self.alloc_node(Node {
                level: level + 1,
                parent: NO_PARENT,
                entries: vec![
                    Entry {
                        mbr: mbr_a,
                        id: nid,
                    },
                    Entry {
                        mbr: mbr_b,
                        id: sibling,
                    },
                ],
            });
            self.nodes[nid].parent = new_root;
            self.nodes[sibling].parent = new_root;
            self.root = new_root;
            return NO_PARENT;
        }

        self.nodes[sibling].parent = parent;
        let slot = self.slot_in(parent, nid);
        self.nodes[parent].entries[slot].mbr = mbr_a;
        self.nodes[parent].entries.push(Entry {
            mbr: mbr_b,
            id: sibling,
        });
        self.update_mbrs_upward(parent);
        parent
    }

    // ------------------------------------------------------------------
    // Deletion
    // ------------------------------------------------------------------

    /// Removes one item at `point` for which `pred` returns true. Returns
    /// the removed payload, or `None` when no such item exists.
    pub fn remove<F: FnMut(&T) -> bool>(&mut self, point: Point, mut pred: F) -> Option<T> {
        let (leaf, slot) = self.find_leaf(self.root, point, &mut pred)?;
        let entry = self.nodes[leaf].entries.swap_remove(slot);
        let (_, value) = self.items[entry.id].take().expect("live item");
        self.free_items.push(entry.id);
        self.len -= 1;
        self.condense(leaf);
        Some(value)
    }

    fn find_leaf<F: FnMut(&T) -> bool>(
        &mut self,
        nid: usize,
        point: Point,
        pred: &mut F,
    ) -> Option<(usize, usize)> {
        if self.nodes[nid].level == 0 {
            for (i, e) in self.nodes[nid].entries.iter().enumerate() {
                let (p, v) = self.items[e.id].as_ref().expect("live item");
                if *p == point && pred(v) {
                    return Some((nid, i));
                }
            }
            return None;
        }
        let children: Vec<usize> = self.nodes[nid]
            .entries
            .iter()
            .filter(|e| e.mbr.contains_point(point))
            .map(|e| e.id)
            .collect();
        for child in children {
            if let Some(found) = self.find_leaf(child, point, pred) {
                return Some(found);
            }
        }
        None
    }

    /// CondenseTree: dissolve underflowing nodes bottom-up and reinsert
    /// their orphaned entries at the appropriate level.
    fn condense(&mut self, mut nid: usize) {
        let mut orphans: Vec<(Entry, usize)> = Vec::new();
        while nid != self.root {
            let parent = self.nodes[nid].parent;
            if self.nodes[nid].entries.len() < self.config.min_entries {
                let slot = self.slot_in(parent, nid);
                self.nodes[parent].entries.swap_remove(slot);
                let level = self.nodes[nid].level;
                let entries = std::mem::take(&mut self.nodes[nid].entries);
                orphans.extend(entries.into_iter().map(|e| (e, level)));
                self.free_nodes.push(nid);
            } else {
                self.update_mbrs_upward(nid);
            }
            nid = parent;
        }
        // Reinsert orphans, deepest level last so paths exist. Subtree
        // orphans keep their height; data orphans go back to the leaves.
        orphans.sort_by_key(|&(_, level)| level);
        for (entry, level) in orphans {
            self.insert_entry(entry, level, &mut 0);
        }
        // Shrink the root while it is an internal node with one child.
        while self.nodes[self.root].level > 0 && self.nodes[self.root].entries.len() == 1 {
            let child = self.nodes[self.root].entries[0].id;
            self.free_nodes.push(self.root);
            self.root = child;
            self.nodes[child].parent = NO_PARENT;
        }
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// All items whose point lies inside `rect`, together with the number
    /// of node accesses the search performed.
    pub fn range_query(&self, rect: Rect) -> (Vec<(Point, &T)>, u64) {
        let mut out = Vec::new();
        let mut accesses = 0u64;
        let mut stack = vec![self.root];
        while let Some(nid) = stack.pop() {
            accesses += 1;
            let node = &self.nodes[nid];
            if node.level == 0 {
                for e in &node.entries {
                    let (p, v) = self.item(e.id);
                    if rect.contains_point(*p) {
                        out.push((*p, v));
                    }
                }
            } else {
                for e in &node.entries {
                    if e.mbr.intersects(rect) {
                        stack.push(e.id);
                    }
                }
            }
        }
        (out, accesses)
    }

    /// All items within Euclidean `radius` of `center` (a circular range
    /// query), with page accesses (nodes read + matching objects).
    ///
    /// MBR pruning uses `MINDIST`; a node whose `MAXDIST` is within the
    /// radius is fully covered and reported without per-point distance
    /// checks.
    pub fn within_radius(&self, center: Point, radius: f64) -> (Vec<(Point, &T)>, u64) {
        let mut out = Vec::new();
        let mut accesses = 0u64;
        if radius < 0.0 {
            return (out, accesses);
        }
        let r_sq = radius * radius;
        let mut stack = vec![self.root];
        while let Some(nid) = stack.pop() {
            accesses += 1;
            let node = &self.nodes[nid];
            if node.level == 0 {
                for e in &node.entries {
                    let (p, v) = self.item(e.id);
                    if center.dist_sq(*p) <= r_sq {
                        out.push((*p, v));
                        accesses += 1; // data-node touch
                    }
                }
            } else {
                for e in &node.entries {
                    if e.mbr.min_dist_sq(center) <= r_sq {
                        stack.push(e.id);
                    }
                }
            }
        }
        (out, accesses)
    }

    /// Iterates over every indexed `(point, payload)` pair.
    pub fn iter(&self) -> impl Iterator<Item = (Point, &T)> + '_ {
        self.items
            .iter()
            .filter_map(|slot| slot.as_ref().map(|(p, v)| (*p, v)))
    }

    // ------------------------------------------------------------------
    // Integrity checking (test support)
    // ------------------------------------------------------------------

    /// Verifies the structural invariants of the tree, panicking with a
    /// description on the first violation. Used by tests; `O(n)`.
    pub fn check_invariants(&self) {
        let mut live_items = 0usize;
        self.check_node(self.root, None);
        for slot in &self.items {
            if slot.is_some() {
                live_items += 1;
            }
        }
        assert_eq!(live_items, self.len, "len() matches live item slots");
        assert_eq!(
            self.nodes[self.root].parent, NO_PARENT,
            "root has no parent"
        );
        // Every live item is reachable exactly once.
        let mut seen = vec![false; self.items.len()];
        self.collect_items(self.root, &mut seen);
        for (i, slot) in self.items.iter().enumerate() {
            assert_eq!(
                slot.is_some(),
                seen[i],
                "item {i} reachability matches liveness"
            );
        }
    }

    /// A determinism probe: an FNV-1a fold over the root id and every
    /// arena node (level, parent, entry count, each entry's id and MBR
    /// bits), then the free-node list. Two trees agree on it iff every
    /// insert, split and reinsert made the same decision.
    #[cfg(test)]
    pub(crate) fn signature(&self) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        let mut mix = |x: u64| {
            h ^= x;
            h = h.wrapping_mul(0x100000001b3);
        };
        mix(self.root as u64);
        for node in &self.nodes {
            mix(node.level as u64);
            mix(node.parent as u64);
            mix(node.entries.len() as u64);
            for e in &node.entries {
                mix(e.id as u64);
                for v in [e.mbr.min.x, e.mbr.min.y, e.mbr.max.x, e.mbr.max.y] {
                    mix(v.to_bits());
                }
            }
        }
        for &nid in &self.free_nodes {
            mix(nid as u64);
        }
        h
    }

    fn collect_items(&self, nid: usize, seen: &mut [bool]) {
        let node = &self.nodes[nid];
        if node.level == 0 {
            for e in &node.entries {
                assert!(!seen[e.id], "item {} indexed twice", e.id);
                seen[e.id] = true;
            }
        } else {
            for e in &node.entries {
                self.collect_items(e.id, seen);
            }
        }
    }

    fn check_node(&self, nid: usize, expected_parent: Option<usize>) {
        let node = &self.nodes[nid];
        if let Some(p) = expected_parent {
            assert_eq!(node.parent, p, "node {nid} has the right parent");
            assert!(
                node.entries.len() >= self.config.min_entries,
                "non-root node {nid} is at least {} full (has {})",
                self.config.min_entries,
                node.entries.len()
            );
        }
        assert!(
            node.entries.len() <= self.config.max_entries,
            "node {nid} within branching factor"
        );
        if node.level > 0 {
            for e in &node.entries {
                let child = &self.nodes[e.id];
                assert_eq!(child.level + 1, node.level, "levels are consistent");
                assert!(
                    e.mbr.contains_rect(child.mbr()),
                    "parent entry MBR covers child node {}",
                    e.id
                );
                assert_eq!(e.mbr, child.mbr(), "entry MBR is tight for child {}", e.id);
                self.check_node(e.id, Some(nid));
            }
        } else {
            for e in &node.entries {
                let (p, _) = self.item(e.id);
                assert!(e.mbr.contains_point(*p), "leaf entry MBR covers its point");
            }
        }
    }
}

/// True when the two rectangles have the same four coordinate bit
/// patterns.
fn same_bits(a: Rect, b: Rect) -> bool {
    [a.min.x, a.min.y, a.max.x, a.max.y]
        .iter()
        .zip([b.min.x, b.min.y, b.max.x, b.max.y])
        .all(|(u, v)| u.to_bits() == v.to_bits())
}

/// R\* ChooseSubtree at the leaf-parent level: the entry with the least
/// `(Δoverlap, Δarea, area)` for absorbing `mbr`, the first index winning
/// a tie — the choice of the full O(M²) scan, with exact keys computed
/// only for entries that can still win.
///
/// `(0, Δarea, area)` bounds an entry's key from below: every
/// `enlarged ∩ o` term is at least its `e ∩ o` term and a float sum is
/// monotone in its terms, so `Δoverlap ≥ 0` holds exactly. A first pass
/// takes the least bound and that entry's exact key; the second computes
/// the key only where the bound still beats `(best_key, best_index)`.
/// When the node's extent has a finite area (times `2n`), every key is
/// finite and keys are totally ordered, so this is the scan's answer.
/// Otherwise a key may be NaN and the scan's answer depends on its order:
/// then the second pass starts from the scan's own `(∞, ∞, ∞)` at index 0
/// and runs in index order, where the bound still prunes exactly (a key
/// that beats the running best has a bound that does).
fn least_overlap_enlargement(entries: &[Entry], mbr: Rect) -> usize {
    let n = entries.len();
    let extent = entries.iter().fold(mbr, |r, e| r.union(e.mbr));
    let finite = (extent.area() * (2 * n) as f64).is_finite();
    let bound = |i: usize| {
        let e = entries[i].mbr;
        let area = e.area();
        (0.0, e.union(mbr).area() - area, area)
    };
    let key = |i: usize| {
        let (_, area_enl, area) = bound(i);
        (overlap_enlargement(entries, i, mbr, finite), area_enl, area)
    };
    let (seed, mut best, mut best_key) = if finite {
        let mut seed = 0;
        let mut seed_bound = bound(0);
        for i in 1..n {
            let b = bound(i);
            if b < seed_bound {
                seed = i;
                seed_bound = b;
            }
        }
        (Some(seed), seed, key(seed))
    } else {
        (None, 0, (f64::INFINITY, f64::INFINITY, f64::INFINITY))
    };
    for i in (0..n).filter(|&i| Some(i) != seed) {
        let beats = |k: (f64, f64, f64)| k < best_key || (k == best_key && i < best);
        if !beats(bound(i)) {
            continue;
        }
        let k = key(i);
        if beats(k) {
            best = i;
            best_key = k;
        }
    }
    best
}

/// Σⱼ |enlarged ∩ oⱼ| − Σⱼ |e ∩ oⱼ| over `j ≠ i`, both sums in index
/// order, where `e` is entry `i` and `enlarged` is `e ∪ mbr`. With
/// `skip_disjoint`, a `j` whose rectangle misses `enlarged` is skipped:
/// both its terms are zero (finite areas: no `0 × ∞`), and adding a zero
/// leaves a non-negative sum's bits as they are.
fn overlap_enlargement(entries: &[Entry], i: usize, mbr: Rect, skip_disjoint: bool) -> f64 {
    let e = entries[i].mbr;
    let enlarged = e.union(mbr);
    let mut before = 0.0;
    let mut after = 0.0;
    for (j, o) in entries.iter().enumerate() {
        if j == i || (skip_disjoint && !enlarged.intersects(o.mbr)) {
            continue;
        }
        before += e.overlap_area(o.mbr);
        after += enlarged.overlap_area(o.mbr);
    }
    after - before
}

/// R\* split: choose the split axis by minimum margin sum, then the
/// distribution with minimum overlap (ties: minimum total area).
///
/// Each sorting's MBRs come from a prefix and a suffix fold, O(M) for all
/// distributions together: `prefix[k]` is the left fold of `[..k]`,
/// `suffix[k]` is `entries[k] ∪ suffix[k + 1]` — the same rectangles the
/// per-distribution folds give, min and max being exact.
fn split_entries(mut entries: Vec<Entry>, min: usize) -> (Vec<Entry>, Vec<Entry>) {
    let total = entries.len();
    debug_assert!(total >= 2 * min);

    // For each axis, evaluate both sortings (by lower and by upper value).
    // The R* paper picks the split axis by minimum margin sum, then the
    // distribution by minimum overlap (ties: minimum total area); we keep
    // the (axis, sorting, index) triple whose (margin sum, overlap, area)
    // key is smallest, which realizes the same preference order. Each
    // sort is stable and starts from the previous one's order.
    struct Best {
        key: (f64, f64, f64), // (margin_sum, overlap, area)
        split_at: usize,
        axis: u8,
        by_upper: bool,
    }
    let mut best: Option<Best> = None;
    let mut prefix = vec![Rect::EMPTY; total + 1];
    let mut suffix = vec![Rect::EMPTY; total + 1];
    for axis in 0..2u8 {
        for by_upper in [false, true] {
            sort_entries(&mut entries, axis, by_upper);
            for k in 0..total {
                prefix[k + 1] = prefix[k].union(entries[k].mbr);
            }
            for k in (0..total).rev() {
                suffix[k] = entries[k].mbr.union(suffix[k + 1]);
            }
            let mut margin_sum = 0.0;
            let mut axis_best: Option<(f64, f64, usize)> = None;
            for k in min..=(total - min) {
                let (left, right) = (prefix[k], suffix[k]);
                margin_sum += left.margin() + right.margin();
                let overlap = left.overlap_area(right);
                let area = left.area() + right.area();
                if axis_best.is_none_or(|(o, a, _)| (overlap, area) < (o, a)) {
                    axis_best = Some((overlap, area, k));
                }
            }
            let (overlap, area, k) = axis_best.expect("at least one distribution");
            let key = (margin_sum, overlap, area);
            if best.as_ref().is_none_or(|b| key < b.key) {
                best = Some(Best {
                    key,
                    split_at: k,
                    axis,
                    by_upper,
                });
            }
        }
    }
    let Best {
        split_at: k,
        axis,
        by_upper,
        ..
    } = best.expect("split candidates exist");
    sort_entries(&mut entries, axis, by_upper);
    let right = entries.split_off(k);
    (entries, right)
}

fn sort_entries(entries: &mut [Entry], axis: u8, by_upper: bool) {
    entries.sort_by(|a, b| {
        let (ka, kb) = match (axis, by_upper) {
            (0, false) => (a.mbr.min.x, b.mbr.min.x),
            (0, true) => (a.mbr.max.x, b.mbr.max.x),
            (1, false) => (a.mbr.min.y, b.mbr.min.y),
            _ => (a.mbr.max.y, b.mbr.max.y),
        };
        ka.total_cmp(&kb)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pseudo_points(n: usize, seed: u64) -> Vec<Point> {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| Point::new(next() * 1000.0, next() * 1000.0))
            .collect()
    }

    #[test]
    fn empty_tree() {
        let tree: RStarTree<u32> = RStarTree::new();
        assert!(tree.is_empty());
        assert_eq!(tree.height(), 0);
        let (hits, accesses) = tree.range_query(Rect::new(Point::ORIGIN, Point::new(1.0, 1.0)));
        assert!(hits.is_empty());
        assert_eq!(accesses, 1); // the root itself is read
        tree.check_invariants();
    }

    #[test]
    fn insert_and_range_query_small() {
        let mut tree = RStarTree::new();
        for (i, p) in pseudo_points(200, 42).into_iter().enumerate() {
            tree.insert(p, i);
        }
        tree.check_invariants();
        assert_eq!(tree.len(), 200);
        assert!(tree.height() >= 1);

        let window = Rect::new(Point::new(100.0, 100.0), Point::new(500.0, 600.0));
        let (hits, _) = tree.range_query(window);
        let expected: Vec<usize> = tree
            .iter()
            .filter(|(p, _)| window.contains_point(*p))
            .map(|(_, v)| *v)
            .collect();
        assert_eq!(hits.len(), expected.len());
        let mut got: Vec<usize> = hits.iter().map(|(_, v)| **v).collect();
        let mut want = expected;
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn duplicate_points_are_kept() {
        let mut tree = RStarTree::new();
        let p = Point::new(5.0, 5.0);
        for i in 0..50 {
            tree.insert(p, i);
        }
        tree.check_invariants();
        let (hits, _) = tree.range_query(Rect::from_point(p));
        assert_eq!(hits.len(), 50);
    }

    #[test]
    fn small_branching_factor_forces_deep_tree() {
        let mut tree = RStarTree::with_config(TreeConfig::with_branching(4));
        for (i, p) in pseudo_points(300, 7).into_iter().enumerate() {
            tree.insert(p, i);
        }
        tree.check_invariants();
        assert!(tree.height() >= 3, "height {} too small", tree.height());
    }

    #[test]
    fn remove_existing_and_missing() {
        let mut tree = RStarTree::new();
        let pts = pseudo_points(120, 99);
        for (i, p) in pts.iter().enumerate() {
            tree.insert(*p, i);
        }
        // Remove half, checking invariants as we go.
        for (i, p) in pts.iter().enumerate().take(60) {
            let removed = tree.remove(*p, |v| *v == i);
            assert_eq!(removed, Some(i));
            tree.check_invariants();
        }
        assert_eq!(tree.len(), 60);
        // Removing again fails.
        assert_eq!(tree.remove(pts[0], |v| *v == 0), None);
        // The rest are still findable.
        for (i, p) in pts.iter().enumerate().skip(60) {
            let (hits, _) = tree.range_query(Rect::from_point(*p));
            assert!(hits.iter().any(|(_, v)| **v == i));
        }
    }

    #[test]
    fn remove_everything_leaves_empty_tree() {
        let mut tree = RStarTree::with_config(TreeConfig::with_branching(4));
        let pts = pseudo_points(80, 3);
        for (i, p) in pts.iter().enumerate() {
            tree.insert(*p, i);
        }
        for (i, p) in pts.iter().enumerate() {
            assert_eq!(tree.remove(*p, |v| *v == i), Some(i));
        }
        assert!(tree.is_empty());
        assert_eq!(tree.height(), 0);
        tree.check_invariants();
        // The tree remains usable.
        tree.insert(Point::new(1.0, 2.0), 1234);
        let (hits, _) = tree.range_query(Rect::from_point(Point::new(1.0, 2.0)));
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn config_validation() {
        let cfg = TreeConfig::with_branching(30);
        assert_eq!(cfg.max_entries, 30);
        assert_eq!(cfg.min_entries, 12);
        assert_eq!(cfg.reinsert_count, 9);
    }

    #[test]
    #[should_panic(expected = "branching factor")]
    fn too_small_branching_rejected() {
        let _ = TreeConfig::with_branching(3);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_point_rejected() {
        let mut tree = RStarTree::new();
        tree.insert(Point::new(f64::NAN, 0.0), 0);
    }

    #[test]
    fn forced_reinsert_survives_overflowing_centers() {
        // Finite points past f64::MAX / 2: every MBR center overflows to
        // infinity, so the reinsert distances are ∞ − ∞ = NaN.
        let mut tree = RStarTree::with_config(TreeConfig::with_branching(4));
        for i in 0..64u32 {
            let x = f64::MAX * (0.6 + 0.005 * i as f64);
            tree.insert(Point::new(x, x), i);
        }
        assert_eq!(tree.len(), 64);
    }

    #[test]
    fn split_sort_survives_a_nan_key() {
        let point = |x: f64, id| Entry {
            mbr: Rect::from_point(Point::new(x, 0.0)),
            id,
        };
        let mut entries = vec![point(2.0, 0), point(f64::NAN, 1), point(1.0, 2)];
        sort_entries(&mut entries, 0, false);
        let ids: Vec<usize> = entries.iter().map(|e| e.id).collect();
        assert_eq!(ids, [2, 0, 1], "a NaN key sorts last");
    }

    /// One-by-one inserts in random order with every third step removing
    /// an earlier item (forced reinserts at every level, splits, condense
    /// and orphan reinsertion), pinned like `bulk_load_signatures_are_pinned`
    /// and computed, like those, before the bounded kernels replaced the
    /// O(M²) ones.
    #[test]
    fn insert_remove_signatures_are_pinned() {
        let pts = pseudo_points(6_000, 77);
        for (branching, want) in [
            (30, (0x552736916eeb0c27u64, 202, 4000)),
            (8, (0x241b791bd7b6bf8e, 872, 4000)),
        ] {
            let mut tree = RStarTree::with_config(TreeConfig::with_branching(branching));
            for (i, p) in pts.iter().enumerate() {
                tree.insert(*p, i);
                if i % 3 == 2 {
                    let j = i / 2;
                    tree.remove(pts[j], |v| *v == j);
                }
            }
            tree.check_invariants();
            let got = (tree.signature(), tree.nodes.len(), tree.len());
            assert_eq!(got, want, "the branching-{branching} tree moved");
        }
    }

    /// The O(M²) leaf-parent ChooseSubtree the bounded search replaced,
    /// kept as its oracle.
    fn full_scan_choice(entries: &[Entry], mbr: Rect) -> usize {
        let mut best = 0usize;
        let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        for (i, e) in entries.iter().enumerate() {
            let enlarged = e.mbr.union(mbr);
            let area_enl = enlarged.area() - e.mbr.area();
            let mut overlap_before = 0.0;
            let mut overlap_after = 0.0;
            for (j, o) in entries.iter().enumerate() {
                if i == j {
                    continue;
                }
                overlap_before += e.mbr.overlap_area(o.mbr);
                overlap_after += enlarged.overlap_area(o.mbr);
            }
            let key = (overlap_after - overlap_before, area_enl, e.mbr.area());
            if key < best_key {
                best_key = key;
                best = i;
            }
        }
        best
    }

    /// The R\* split the prefix/suffix folds replaced: two folds per
    /// distribution, kept as its oracle.
    fn fold_per_distribution_split(
        mut entries: Vec<Entry>,
        min: usize,
    ) -> (Vec<Entry>, Vec<Entry>) {
        let mbr_of = |es: &[Entry]| es.iter().fold(Rect::EMPTY, |r, e| r.union(e.mbr));
        let total = entries.len();
        let mut best_key: Option<(f64, f64, f64)> = None;
        let mut best = (0, 0, false);
        for axis in 0..2u8 {
            for by_upper in [false, true] {
                sort_entries(&mut entries, axis, by_upper);
                let mut margin_sum = 0.0;
                let mut axis_best: Option<(f64, f64, usize)> = None;
                for k in min..=(total - min) {
                    let left = mbr_of(&entries[..k]);
                    let right = mbr_of(&entries[k..]);
                    margin_sum += left.margin() + right.margin();
                    let overlap = left.overlap_area(right);
                    let area = left.area() + right.area();
                    if axis_best.is_none_or(|(o, a, _)| (overlap, area) < (o, a)) {
                        axis_best = Some((overlap, area, k));
                    }
                }
                let (overlap, area, k) = axis_best.unwrap();
                let key = (margin_sum, overlap, area);
                if best_key.is_none_or(|b| key < b) {
                    best_key = Some(key);
                    best = (k, axis, by_upper);
                }
            }
        }
        let (k, axis, by_upper) = best;
        sort_entries(&mut entries, axis, by_upper);
        let right = entries.split_off(k);
        (entries, right)
    }

    /// A coordinate on a half-unit lattice (exact ties, duplicates, shared
    /// edges) or anywhere in `[0, 4)`.
    fn coord() -> impl Strategy<Value = f64> {
        prop_oneof![(0..8u8).prop_map(|v| f64::from(v) * 0.5), 0.0..4.0f64]
    }

    /// A rectangle that is often a point or a zero-width or zero-height
    /// segment.
    fn rect() -> impl Strategy<Value = Rect> {
        let side = || prop_oneof![Just(0.0), coord()];
        (coord(), coord(), side(), side())
            .prop_map(|(x, y, w, h)| Rect::new(Point::new(x, y), Point::new(x + w, y + h)))
    }

    /// The entries of a random node with `len` entries (2–31 in use):
    /// general rectangles, lattice points (many duplicates), or collinear
    /// points.
    fn layout(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Rect>> {
        let lattice = (0..6u8, 0..6u8)
            .prop_map(|(x, y)| Rect::from_point(Point::new(f64::from(x), f64::from(y))));
        let line = (0..12u8).prop_map(|t| {
            let t = f64::from(t) * 0.75;
            Rect::from_point(Point::new(t, 0.5 * t + 1.0))
        });
        prop_oneof![
            prop::collection::vec(rect(), len.clone()),
            prop::collection::vec(lattice, len.clone()),
            prop::collection::vec(line, len),
        ]
    }

    /// `rects` as entries with ids in order, scaled: by 1, or far past
    /// `f64::MAX.sqrt()`, where areas overflow and keys go ∞ − ∞ = NaN.
    fn scaled(rects: &[Rect], scale: f64) -> Vec<Entry> {
        let at = |p: Point| Point::new(p.x * scale, p.y * scale);
        rects
            .iter()
            .enumerate()
            .map(|(id, r)| Entry {
                mbr: Rect::new(at(r.min), at(r.max)),
                id,
            })
            .collect()
    }

    fn scale() -> impl Strategy<Value = f64> {
        prop_oneof![Just(1.0), Just(1.0), Just(1.0), Just(1e300)]
    }

    /// Wider than `f64::MAX`, a rectangle's overlap with one it misses is
    /// `0 · ∞ = NaN`, so its key is NaN and the scan never picks it: the
    /// bounded search must add that term, not skip it as a zero.
    #[test]
    fn bounded_choose_subtree_keeps_the_scans_nan_terms() {
        let band = |y: f64| Rect::new(Point::new(-1e308, y), Point::new(1e308, y + 1.0));
        let far = Rect::from_point(Point::new(0.0, 50.0));
        let entries = scaled(&[band(0.0), band(5.0), far], 1.0);
        let inside = Rect::from_point(Point::new(0.0, 0.5));
        assert_eq!(full_scan_choice(&entries, inside), 2);
        assert_eq!(least_overlap_enlargement(&entries, inside), 2);
    }

    fn same_entries(a: &[Entry], b: &[Entry]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| x.id == y.id && same_bits(x.mbr, y.mbr))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The bounded leaf-parent ChooseSubtree picks the full scan's
        /// child, ties and NaN keys included.
        #[test]
        fn bounded_choose_subtree_equals_the_full_scan(
            rects in layout(2..32),
            added in prop_oneof![rect(), coord().prop_map(|v| Rect::from_point(Point::new(v, 2.0 - v / 2.0)))],
            scale in scale(),
        ) {
            let entries = scaled(&rects, scale);
            let added = scaled(&[added], scale)[0].mbr;
            prop_assert_eq!(
                least_overlap_enlargement(&entries, added),
                full_scan_choice(&entries, added)
            );
        }

        /// The prefix/suffix split returns the two groups of the
        /// per-distribution folds: same entries, same order, same bits.
        #[test]
        fn prefix_suffix_split_equals_the_per_distribution_folds(
            rects in layout(4..32),
            min_frac in 0.0..1.0f64,
            scale in scale(),
        ) {
            let entries = scaled(&rects, scale);
            let min = 2 + (min_frac * (entries.len() / 2 - 1) as f64) as usize;
            let (a, b) = split_entries(entries.clone(), min);
            let (want_a, want_b) = fold_per_distribution_split(entries, min);
            prop_assert!(same_entries(&a, &want_a) && same_entries(&b, &want_b));
        }
    }

    /// Twelve thousand random inserts and removes on lattice-snapped
    /// points (duplicates, shared coordinates) keep every invariant.
    #[test]
    fn mixed_insert_remove_steps_keep_invariants() {
        for branching in [6, 30] {
            let mut tree = RStarTree::with_config(TreeConfig::with_branching(branching));
            let draws = pseudo_points(12_000, 4_041);
            let mut live: Vec<(Point, usize)> = Vec::new();
            for (step, d) in draws.iter().enumerate() {
                if live.is_empty() || d.x < 600.0 {
                    let p = Point::new((d.y / 10.0).floor() * 2.5, (d.x % 37.0).floor());
                    tree.insert(p, step);
                    live.push((p, step));
                } else {
                    let (p, id) = live.swap_remove((d.y as usize * 7919) % live.len());
                    assert_eq!(tree.remove(p, |v| *v == id), Some(id));
                }
                if step % 1_000 == 999 {
                    tree.check_invariants();
                }
            }
            tree.check_invariants();
            assert_eq!(tree.len(), live.len());
        }
    }

    #[test]
    fn interleaved_inserts_and_removes_keep_invariants() {
        let mut tree = RStarTree::with_config(TreeConfig::with_branching(8));
        let pts = pseudo_points(400, 12345);
        for (i, p) in pts.iter().enumerate() {
            tree.insert(*p, i);
            if i % 3 == 2 {
                // Remove an earlier element.
                let j = i / 2;
                tree.remove(pts[j], |v| *v == j);
            }
            if i % 37 == 0 {
                tree.check_invariants();
            }
        }
        tree.check_invariants();
    }
}
