//! Grid-based nearest-node lookup.
//!
//! Mobility and SNNN snap arbitrary positions to the nearest graph node
//! constantly; a uniform grid turns the linear scan into an expanding-ring
//! search over a handful of cells.

use senn_geom::{Point, Rect};

use crate::graph::{NodeId, RoadNetwork};

/// A uniform-grid index over the nodes of a [`RoadNetwork`].
#[derive(Clone, Debug)]
pub struct NodeLocator {
    bounds: Rect,
    cell: f64,
    cols: usize,
    rows: usize,
    cells: Vec<Vec<NodeId>>,
    positions: Vec<Point>,
}

impl NodeLocator {
    /// Builds a locator with roughly `nodes / 4` cells (at least 1).
    pub fn new(net: &RoadNetwork) -> Self {
        let bounds = net.bounding_rect();
        let n = net.node_count().max(1);
        let span = bounds.width().max(bounds.height()).max(1e-9);
        // Aim for ~4 nodes per cell.
        let cells_per_side = ((n as f64 / 4.0).sqrt().ceil() as usize).max(1);
        let cell = span / cells_per_side as f64;
        Self::with_cell_size(net, cell)
    }

    /// Builds a locator with an explicit cell size.
    pub fn with_cell_size(net: &RoadNetwork, cell: f64) -> Self {
        assert!(cell > 0.0, "cell size must be positive");
        let bounds = net.bounding_rect();
        let (cols, rows) = if bounds.is_empty() {
            (1, 1)
        } else {
            (
                (bounds.width() / cell).floor() as usize + 1,
                (bounds.height() / cell).floor() as usize + 1,
            )
        };
        let mut cells = vec![Vec::new(); cols * rows];
        let positions = net.positions().to_vec();
        for (i, p) in positions.iter().enumerate() {
            let (cx, cy) = clamp_cell(bounds, cell, cols, rows, *p);
            cells[cy * cols + cx].push(i as NodeId);
        }
        NodeLocator {
            bounds,
            cell,
            cols,
            rows,
            cells,
            positions,
        }
    }

    /// Nearest node to `p`, or `None` for an empty network.
    pub fn nearest(&self, p: Point) -> Option<NodeId> {
        if self.positions.is_empty() {
            return None;
        }
        let (cx, cy) = clamp_cell(self.bounds, self.cell, self.cols, self.rows, p);
        // How far `p` lies inside its own cell (0 outside the grid), less
        // a slack far above rounding: a node of ring `r >= 1` is at least
        // `(r - 1) * cell + margin` away.
        let fx = p.x - self.bounds.min.x - cx as f64 * self.cell;
        let fy = p.y - self.bounds.min.y - cy as f64 * self.cell;
        let margin =
            (fx.min(self.cell - fx).min(fy).min(self.cell - fy) - 1e-9 * self.cell).max(0.0);
        let mut best: Option<(f64, NodeId)> = None;
        let max_ring = self.cols.max(self.rows);
        for ring in 0..=max_ring {
            // Once a candidate is found, a ring that cannot hold a nearer
            // node ends the search.
            if let Some((bd, _)) = best {
                if ring > 0 && (ring as f64 - 1.0) * self.cell + margin > bd.sqrt() {
                    break;
                }
            }
            for (x, y) in ring_cells(cx, cy, ring, self.cols, self.rows) {
                for &id in &self.cells[y * self.cols + x] {
                    let d = p.dist_sq(self.positions[id as usize]);
                    if best.is_none_or(|(bd, _)| d < bd) {
                        best = Some((d, id));
                    }
                }
            }
        }
        best.map(|(_, id)| id)
    }

    /// All nodes within `radius` of `p`.
    pub fn within(&self, p: Point, radius: f64) -> Vec<NodeId> {
        let mut out = Vec::new();
        if self.positions.is_empty() {
            return out;
        }
        let r2 = radius * radius;
        let lo = clamp_cell(
            self.bounds,
            self.cell,
            self.cols,
            self.rows,
            Point::new(p.x - radius, p.y - radius),
        );
        let hi = clamp_cell(
            self.bounds,
            self.cell,
            self.cols,
            self.rows,
            Point::new(p.x + radius, p.y + radius),
        );
        for y in lo.1..=hi.1 {
            for x in lo.0..=hi.0 {
                for &id in &self.cells[y * self.cols + x] {
                    if p.dist_sq(self.positions[id as usize]) <= r2 {
                        out.push(id);
                    }
                }
            }
        }
        out
    }
}

fn clamp_cell(bounds: Rect, cell: f64, cols: usize, rows: usize, p: Point) -> (usize, usize) {
    if bounds.is_empty() {
        return (0, 0);
    }
    let cx = (((p.x - bounds.min.x) / cell).floor() as isize).clamp(0, cols as isize - 1) as usize;
    let cy = (((p.y - bounds.min.y) / cell).floor() as isize).clamp(0, rows as isize - 1) as usize;
    (cx, cy)
}

/// The cells at Chebyshev distance exactly `ring` from `(cx, cy)`, clipped
/// to the grid, walked in place: the top and bottom rows column by column
/// (top cell first), then the left and right sides row by row (left cell
/// first), corners in the rows. [`NodeLocator::nearest`] keeps the first
/// of equally near nodes, so this order is part of its answer.
fn ring_cells(
    cx: usize,
    cy: usize,
    ring: usize,
    cols: usize,
    rows: usize,
) -> impl Iterator<Item = (usize, usize)> {
    let r = ring as isize;
    let (cx, cy) = (cx as isize, cy as isize);
    // Ring 0 is its centre alone: no rows, and the sides' range is empty.
    let centre = (ring == 0).then_some((cx, cy));
    let across = (ring > 0).then_some(-r..=r).into_iter().flatten();
    let top_bottom = across.flat_map(move |dx| [(cx + dx, cy - r), (cx + dx, cy + r)]);
    let sides = ((-r + 1)..r).flat_map(move |dy| [(cx - r, cy + dy), (cx + r, cy + dy)]);
    centre
        .into_iter()
        .chain(top_bottom)
        .chain(sides)
        .filter_map(move |(x, y)| {
            (x >= 0 && y >= 0 && (x as usize) < cols && (y as usize) < rows)
                .then_some((x as usize, y as usize))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::RoadClass;

    fn net_with(points: &[(f64, f64)]) -> RoadNetwork {
        let mut net = RoadNetwork::new();
        let ids: Vec<_> = points
            .iter()
            .map(|&(x, y)| net.add_node(Point::new(x, y)))
            .collect();
        for w in ids.windows(2) {
            net.add_edge(w[0], w[1], RoadClass::Local);
        }
        net
    }

    #[test]
    fn nearest_matches_linear_scan() {
        let mut pts = Vec::new();
        let mut s = 99u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..300 {
            pts.push((next() * 100.0, next() * 100.0));
        }
        let net = net_with(&pts);
        let loc = NodeLocator::new(&net);
        for _ in 0..100 {
            let q = Point::new(next() * 120.0 - 10.0, next() * 120.0 - 10.0);
            let fast = loc.nearest(q).unwrap();
            let slow = net.nearest_node_linear(q).unwrap();
            assert!(
                (q.dist(net.position(fast)) - q.dist(net.position(slow))).abs() < 1e-9,
                "locator returned a farther node"
            );
        }
    }

    /// The ring search with the plain stopping rule (a ring `r` is at
    /// least `(r - 1) * cell` away), every ring scanned in full.
    fn reference_nearest(loc: &NodeLocator, p: Point) -> Option<NodeId> {
        let (cx, cy) = clamp_cell(loc.bounds, loc.cell, loc.cols, loc.rows, p);
        let mut best: Option<(f64, NodeId)> = None;
        for ring in 0..=loc.cols.max(loc.rows) {
            if let Some((bd, _)) = best {
                if (ring as f64 - 1.0) * loc.cell > bd.sqrt() {
                    break;
                }
            }
            for (x, y) in ring_cells(cx, cy, ring, loc.cols, loc.rows) {
                for &id in &loc.cells[y * loc.cols + x] {
                    let d = p.dist_sq(loc.positions[id as usize]);
                    if best.is_none_or(|(bd, _)| d < bd) {
                        best = Some((d, id));
                    }
                }
            }
        }
        best.map(|(_, id)| id)
    }

    /// The margin that skips the next ring picks the node the plain rule
    /// picks, ties included: on a unit lattice (where many queries sit
    /// at equal distances from several nodes, and on cell edges) and on
    /// scattered nodes, from inside and outside the grid.
    #[test]
    fn nearest_matches_the_plain_ring_rule() {
        let lattice: Vec<(f64, f64)> = (0..144)
            .map(|i| ((i % 12) as f64, (i / 12) as f64))
            .collect();
        let mut s = 7u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let scattered: Vec<(f64, f64)> =
            (0..400).map(|_| (next() * 100.0, next() * 60.0)).collect();
        for (pts, side) in [(lattice, 12.0), (scattered, 100.0)] {
            let net = net_with(&pts);
            for loc in [
                NodeLocator::new(&net),
                NodeLocator::with_cell_size(&net, side / 7.0),
            ] {
                let step = side / 48.0;
                for i in -6..54 {
                    for j in -6..54 {
                        let q = Point::new(f64::from(i) * step, f64::from(j) * step);
                        assert_eq!(loc.nearest(q), reference_nearest(&loc, q), "{q:?}");
                    }
                }
                for _ in 0..2000 {
                    let q = Point::new(
                        next() * side * 1.2 - side * 0.1,
                        next() * side * 1.2 - side * 0.1,
                    );
                    assert_eq!(loc.nearest(q), reference_nearest(&loc, q), "{q:?}");
                }
            }
        }
    }

    /// The ring as a list, built and then clipped: the form the in-place
    /// walk replaced, kept as its reference.
    fn listed_ring_cells(
        cx: usize,
        cy: usize,
        ring: usize,
        cols: usize,
        rows: usize,
    ) -> Vec<(usize, usize)> {
        let r = ring as isize;
        let (cx, cy) = (cx as isize, cy as isize);
        let mut out = Vec::new();
        if ring == 0 {
            out.push((cx, cy));
        } else {
            for dx in -r..=r {
                out.push((cx + dx, cy - r));
                out.push((cx + dx, cy + r));
            }
            for dy in (-r + 1)..r {
                out.push((cx - r, cy + dy));
                out.push((cx + r, cy + dy));
            }
        }
        out.into_iter()
            .filter(|&(x, y)| x >= 0 && y >= 0 && (x as usize) < cols && (y as usize) < rows)
            .map(|(x, y)| (x as usize, y as usize))
            .collect()
    }

    /// Cell for cell, in order, on rings 0..=8 around every cell of grids
    /// from 1x1 to 9x7, so rings are clipped at each edge and corner (and
    /// vanish wholly outside small grids).
    #[test]
    fn ring_walk_equals_the_listed_ring() {
        let mut clipped = 0;
        for (cols, rows) in [(1, 1), (1, 4), (2, 2), (3, 5), (6, 1), (9, 7)] {
            for cx in 0..cols {
                for cy in 0..rows {
                    for ring in 0..=8 {
                        let walked: Vec<_> = ring_cells(cx, cy, ring, cols, rows).collect();
                        let listed = listed_ring_cells(cx, cy, ring, cols, rows);
                        assert_eq!(walked, listed, "{cols}x{rows} at ({cx}, {cy}) ring {ring}");
                        clipped += (ring > 0 && listed.len() < 8 * ring) as usize;
                    }
                }
            }
        }
        assert_eq!(
            clipped, 688,
            "rings 1..=8 of these grids that an edge clips"
        );
    }

    #[test]
    fn empty_network() {
        let net = RoadNetwork::new();
        let loc = NodeLocator::new(&net);
        assert_eq!(loc.nearest(Point::ORIGIN), None);
        assert!(loc.within(Point::ORIGIN, 10.0).is_empty());
    }

    #[test]
    fn single_node() {
        let net = net_with(&[(5.0, 5.0), (6.0, 6.0)]);
        let loc = NodeLocator::new(&net);
        assert_eq!(loc.nearest(Point::new(-100.0, -100.0)), Some(0));
    }

    #[test]
    fn within_radius() {
        let net = net_with(&[(0.0, 0.0), (1.0, 0.0), (5.0, 0.0), (0.0, 2.0)]);
        let loc = NodeLocator::new(&net);
        let mut hits = loc.within(Point::ORIGIN, 2.2);
        hits.sort_unstable();
        assert_eq!(hits, vec![0, 1, 3]);
        assert!(loc.within(Point::new(100.0, 100.0), 1.0).is_empty());
    }
}
