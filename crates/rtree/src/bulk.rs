//! Bulk loading: R\* insertion in Sort-Tile-Recursive order.
//!
//! The simulator indexes thousands of POIs before any query runs.
//! `bulk_load` sorts them into STR order (Leutenegger et al., ICDE 1997:
//! by x, cut into ⌈√(n / fill)⌉ vertical slabs, each slab by y) and then
//! runs one ordinary R\* insert per item in that order. It is not STR
//! *packing*: no node is linked directly, so the result is exactly the
//! tree those inserts build, and later inserts and removals meet an
//! ordinary R\*-tree. Measured on a 2-CPU container,
//! release build: 1 000 uniform points in ≈2 ms, 10 000 in ≈20 ms,
//! 33 333 (the `million_free` benchmark's POI count) in ≈0.08 s, about
//! 2.3 µs a point; the unbounded O(M²) ChooseSubtree made that 0.27 s.
//! The `rtree_build` bench compares it with inserts in arrival order.

use senn_geom::Point;

use crate::tree::{RStarTree, TreeConfig};

impl<T> RStarTree<T> {
    /// Builds a tree from `(point, payload)` pairs by R\* insertion in STR
    /// order, with the default configuration.
    pub fn bulk_load(items: Vec<(Point, T)>) -> Self {
        Self::bulk_load_with_config(items, TreeConfig::default())
    }

    /// Builds a tree from `(point, payload)` pairs by R\* insertion in STR
    /// order (module docs); up to a leaf's target fill, in the given order.
    /// The tree is the one those inserts build, so it satisfies every
    /// R\*-tree invariant and supports later inserts and removals.
    pub fn bulk_load_with_config(items: Vec<(Point, T)>, config: TreeConfig) -> Self {
        let mut tree = Self::with_config(config);
        if items.is_empty() {
            return tree;
        }
        for (p, _) in &items {
            assert!(p.is_finite(), "cannot index a non-finite point");
        }
        // The STR tiling targets leaves ~70 % full (never below
        // min_entries): sort by x, cut into ceil(sqrt(n / fill)) vertical
        // slabs, sort each slab by y.
        let max = config.max_entries;
        let fill = (max * 7).div_ceil(10).max(config.min_entries);
        let pairs = items;
        let n = pairs.len();
        if n <= fill {
            for (p, v) in pairs {
                tree.insert(p, v);
            }
            return tree;
        }
        let leaf_count = n.div_ceil(fill);
        let slab_count = (leaf_count as f64).sqrt().ceil() as usize;

        // One R* insert per item in that order: the one insert path, so
        // the tree stays correct under later updates.
        for (p, v) in str_order(pairs, n.div_ceil(slab_count)) {
            tree.insert(p, v);
        }
        tree
    }
}

/// The STR insertion order: by x, then cut into slabs of `slab_size` and
/// each slab by y. Total orders, so no coordinate can make it panic.
fn str_order<T>(mut pairs: Vec<(Point, T)>, slab_size: usize) -> Vec<(Point, T)> {
    pairs.sort_by(|a, b| a.0.x.total_cmp(&b.0.x));
    let mut ordered: Vec<(Point, T)> = Vec::with_capacity(pairs.len());
    let mut rest = pairs;
    while !rest.is_empty() {
        let take = slab_size.min(rest.len());
        let mut slab: Vec<(Point, T)> = rest.drain(..take).collect();
        slab.sort_by(|a, b| a.0.y.total_cmp(&b.0.y));
        ordered.append(&mut slab);
    }
    ordered
}

#[cfg(test)]
mod tests {
    use super::*;
    use senn_geom::Rect;

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
    fn bulk_load_empty_and_tiny() {
        let tree: RStarTree<u8> = RStarTree::bulk_load(vec![]);
        assert!(tree.is_empty());
        let tree = RStarTree::bulk_load(vec![(Point::new(1.0, 1.0), 7u8)]);
        assert_eq!(tree.len(), 1);
        tree.check_invariants();
    }

    #[test]
    fn bulk_load_matches_incremental_queries() {
        let pts = pseudo_points(1500, 2024);
        let bulk = RStarTree::bulk_load(pts.iter().enumerate().map(|(i, p)| (*p, i)).collect());
        bulk.check_invariants();
        assert_eq!(bulk.len(), pts.len());

        let mut incr = RStarTree::new();
        for (i, p) in pts.iter().enumerate() {
            incr.insert(*p, i);
        }
        let window = Rect::new(Point::new(200.0, 200.0), Point::new(700.0, 650.0));
        let (mut a, _) = bulk.range_query(window);
        let (mut b, _) = incr.range_query(window);
        let key = |x: &(Point, &usize)| (*x.1, x.0.x.to_bits(), x.0.y.to_bits());
        a.sort_by_key(key);
        b.sort_by_key(key);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.1, y.1);
        }
    }

    #[test]
    fn str_order_survives_a_nan_x() {
        let pairs = vec![
            (Point::new(2.0, 0.0), 0),
            (Point::new(f64::NAN, 1.0), 1),
            (Point::new(1.0, 2.0), 2),
        ];
        let order: Vec<i32> = str_order(pairs, 1).into_iter().map(|(_, v)| v).collect();
        assert_eq!(order, [2, 0, 1], "a NaN x sorts last");
    }

    #[test]
    fn str_order_survives_a_nan_y() {
        let pairs = vec![
            (Point::new(0.0, f64::NAN), 0),
            (Point::new(1.0, 5.0), 1),
            (Point::new(2.0, 4.0), 2),
            (Point::new(3.0, 0.0), 3),
        ];
        let order: Vec<i32> = str_order(pairs, 2).into_iter().map(|(_, v)| v).collect();
        assert_eq!(order, [1, 0, 3, 2], "a NaN y sorts last in its slab");
    }

    /// Junction-snapped points: a 250 m lattice of junctions over 10 km,
    /// each point within ±20 m of one, every fifth a duplicate of the one
    /// before.
    fn snapped_points(n: usize, seed: u64) -> Vec<Point> {
        let raw = pseudo_points(3 * n, seed);
        let mut out: Vec<Point> = Vec::with_capacity(n);
        for i in 0..n {
            let (a, b, c) = (raw[3 * i], raw[3 * i + 1], raw[3 * i + 2]);
            if i % 5 == 4 {
                out.push(out[i - 1]);
                continue;
            }
            let junction = |v: f64| (v / 250.0).floor() * 250.0;
            let jitter = |v: f64| (v / 1000.0 - 0.5) * 40.0;
            out.push(Point::new(
                junction(10.0 * a.x) + jitter(b.x),
                junction(10.0 * a.y) + jitter(c.y),
            ));
        }
        out
    }

    /// `bulk_load` over three fixed point sets is pinned to its structure:
    /// `signature()` folds every node's level, parent, entry ids and MBR
    /// bits, so a build that makes any other ChooseSubtree, split or
    /// reinsert decision moves it. The values were computed with the
    /// unbounded O(M²) ChooseSubtree, the fold-from-scratch MBR upkeep
    /// and the O(M²) split, before those kernels were replaced.
    #[test]
    fn bulk_load_signatures_are_pinned() {
        let collinear: Vec<Point> = (0..5_000)
            .map(|i| Point::new(1.5 * (i % 2_500) as f64, 10.0 + 1.125 * (i % 2_500) as f64))
            .collect();
        let cases = [
            (
                "random",
                pseudo_points(40_000, 2006),
                (0x9383122d91097718u64, 2409, 3),
            ),
            (
                "snapped",
                snapped_points(20_000, 402),
                (0x5dcfd0d7e8a55020, 1067, 3),
            ),
            ("collinear", collinear, (0x12b0cf754afa28f0, 262, 2)),
        ];
        for (name, pts, want) in cases {
            let tree = RStarTree::bulk_load(pts.iter().enumerate().map(|(i, p)| (*p, i)).collect());
            tree.check_invariants();
            let got = (tree.signature(), tree.nodes.len(), tree.height());
            assert_eq!(got, want, "the {name} tree moved");
        }
    }

    #[test]
    fn bulk_loaded_tree_supports_updates() {
        let pts = pseudo_points(400, 55);
        let mut tree = RStarTree::bulk_load(pts.iter().enumerate().map(|(i, p)| (*p, i)).collect());
        tree.insert(Point::new(-5.0, -5.0), 9999);
        assert_eq!(tree.remove(pts[3], |v| *v == 3), Some(3));
        tree.check_invariants();
        let (nn, _) = tree.knn(Point::new(-5.0, -5.0), 1);
        assert_eq!(*nn[0].value, 9999);
    }
}
