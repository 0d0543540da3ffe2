//! Property tests of the R\*-tree's query surface against naive models.

use proptest::prelude::*;
use senn_geom::Point;
use senn_rtree::{RStarTree, SearchBounds, TreeConfig};

fn pt() -> impl Strategy<Value = Point> {
    (0.0..500.0f64, 0.0..500.0f64).prop_map(|(x, y)| Point::new(x, y))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Circular range query equals a linear scan.
    #[test]
    fn within_radius_equals_scan(
        world in prop::collection::vec(pt(), 1..150),
        q in pt(),
        r in 0.0..300.0f64,
    ) {
        let tree = RStarTree::bulk_load(
            world.iter().enumerate().map(|(i, p)| (*p, i)).collect(),
        );
        let (hits, accesses) = tree.within_radius(q, r);
        let want = world.iter().filter(|p| q.dist(**p) <= r).count();
        prop_assert_eq!(hits.len(), want);
        prop_assert!(accesses >= 1);
        for (p, _) in &hits {
            prop_assert!(q.dist(*p) <= r + 1e-9);
        }
    }

    /// EINN with arbitrary (valid) bounds returns exactly the POIs in the
    /// annulus `[lower, upper]`, ascending, never more pages than INN.
    #[test]
    fn einn_annulus_semantics(
        world in prop::collection::vec(pt(), 5..200),
        q in pt(),
        b0 in 0.0..250.0f64,
        b1 in 0.0..250.0f64,
    ) {
        let (lower, upper) = if b0 <= b1 { (b0, b1) } else { (b1, b0) };
        let tree = RStarTree::bulk_load(
            world.iter().enumerate().map(|(i, p)| (*p, i)).collect(),
        );
        let bounds = SearchBounds { lower: Some(lower), upper: Some(upper) };
        let (got, acc_einn) = tree.knn_bounded(q, world.len() + 1, bounds);
        // Model: POIs with lower - eps <= dist <= upper + eps... the
        // implementation skips dist < lower - EPS and cuts dist > upper +
        // EPS, so compare against the open annulus with a fp margin.
        let want: Vec<f64> = {
            let mut v: Vec<f64> = world
                .iter()
                .map(|p| q.dist(*p))
                .filter(|d| *d >= lower - 1e-9 && *d <= upper + 1e-9)
                .collect();
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v
        };
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert!((g.dist - w).abs() < 1e-9);
        }
        let (_, acc_inn) = tree.knn(q, world.len());
        prop_assert!(acc_einn <= acc_inn);
    }

    /// Small branching factors preserve every invariant under mixed
    /// insert/remove workloads.
    #[test]
    fn small_nodes_survive_churn(
        world in prop::collection::vec(pt(), 1..120),
        removals in prop::collection::vec(0usize..120, 0..60),
    ) {
        let mut tree = RStarTree::with_config(TreeConfig::with_branching(4));
        for (i, p) in world.iter().enumerate() {
            tree.insert(*p, i);
        }
        let mut live = vec![true; world.len()];
        for r in removals {
            let idx = r % world.len();
            let removed = tree.remove(world[idx], |v| *v == idx);
            prop_assert_eq!(removed.is_some(), live[idx]);
            live[idx] = false;
        }
        tree.check_invariants();
        prop_assert_eq!(tree.len(), live.iter().filter(|x| **x).count());
    }
}
