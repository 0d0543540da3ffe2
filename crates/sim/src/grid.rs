//! Uniform-grid peer discovery with incremental maintenance.
//!
//! "Query moving object peers within the communication range" (Algorithm
//! 1, line 2): for every query we need the hosts within `Tx_Range` of the
//! querier. A uniform grid with cell size equal to the transmission range
//! reduces that to a 3×3 cell scan.
//!
//! The grid is an *index only*: it stores which hosts sit in which cell,
//! while positions live in the simulator's host store and are passed to
//! every lookup. That split is what makes move-only maintenance cheap —
//! [`HostGrid::apply_move`] edits at most two cell lists when a host
//! crosses a cell boundary and touches nothing at all otherwise, so a
//! movement pass costs O(boundary crossings), not O(hosts). A maintained
//! grid is element-for-element identical to a fresh [`HostGrid::build`]
//! over the same positions (property-tested below), because every cell
//! list is kept sorted ascending by host id — exactly the order a fresh
//! index-order insertion produces.
//!
//! The grid is read-only while a query batch executes, which is what lets
//! the simulator fan queries out across threads. [`HostGrid::within_into`]
//! writes hits into a caller-owned vector, so steady-state peer discovery
//! performs no allocation at all.

use senn_geom::{Point, Rect};

/// An incrementally maintained uniform grid over host indices.
#[derive(Clone, Debug)]
pub struct HostGrid {
    bounds: Rect,
    cell: f64,
    /// `1.0 / cell`, precomputed: cell assignment multiplies instead of
    /// dividing, and every path (build, `apply_move`, lookups) uses the
    /// same [`HostGrid::cell_of`], so assignments stay mutually
    /// consistent.
    inv_cell: f64,
    cols: usize,
    rows: usize,
    /// Host ids per cell, each list sorted ascending — the invariant that
    /// makes incremental maintenance bit-identical to a fresh build.
    cells: Vec<Vec<u32>>,
    /// Current flat cell index of every tracked host.
    host_cells: Vec<u32>,
}

impl HostGrid {
    /// Builds the grid for the given host positions. `cell` should be the
    /// transmission range.
    pub fn build(bounds: Rect, cell: f64, positions: &[Point]) -> Self {
        assert!(cell > 0.0, "cell size must be positive");
        assert!(!bounds.is_empty(), "area must be non-empty");
        let cols = (bounds.width() / cell).floor() as usize + 1;
        let rows = (bounds.height() / cell).floor() as usize + 1;
        let inv_cell = 1.0 / cell;
        let mut cells = vec![Vec::new(); cols * rows];
        let mut host_cells = Vec::with_capacity(positions.len());
        for (i, p) in positions.iter().enumerate() {
            let (cx, cy) = Self::cell_of(bounds, inv_cell, cols, rows, *p);
            let idx = cy * cols + cx;
            cells[idx].push(i as u32);
            host_cells.push(idx as u32);
        }
        HostGrid {
            bounds,
            cell,
            inv_cell,
            cols,
            rows,
            cells,
            host_cells,
        }
    }

    /// Number of hosts the grid currently tracks.
    pub fn len(&self) -> usize {
        self.host_cells.len()
    }

    /// True when no hosts are tracked.
    pub fn is_empty(&self) -> bool {
        self.host_cells.is_empty()
    }

    fn cell_of(bounds: Rect, inv_cell: f64, cols: usize, rows: usize, p: Point) -> (usize, usize) {
        let cx = (((p.x - bounds.min.x) * inv_cell).floor() as isize).clamp(0, cols as isize - 1)
            as usize;
        let cy = (((p.y - bounds.min.y) * inv_cell).floor() as isize).clamp(0, rows as isize - 1)
            as usize;
        (cx, cy)
    }

    fn flat_cell(&self, p: Point) -> u32 {
        let (cx, cy) = Self::cell_of(self.bounds, self.inv_cell, self.cols, self.rows, p);
        (cy * self.cols + cx) as u32
    }

    /// Removes `host` from cell list `idx` (it must be there).
    fn remove_from_cell(&mut self, host: u32, idx: u32) {
        let list = &mut self.cells[idx as usize];
        let at = list
            .binary_search(&host)
            .expect("grid invariant: host listed in its recorded cell");
        list.remove(at);
    }

    /// Inserts `host` into cell list `idx`, keeping the list ascending.
    fn insert_into_cell(&mut self, host: u32, idx: u32) {
        let list = &mut self.cells[idx as usize];
        let at = list
            .binary_search(&host)
            .expect_err("grid invariant: host tracked at most once");
        list.insert(at, host);
    }

    /// Incremental maintenance: records that `host` now sits at `new_pos`.
    /// Returns `true` when the host crossed a cell boundary (two sorted
    /// cell-list edits), `false` when it stayed in its cell (no work).
    ///
    /// After any sequence of `apply_move` calls the grid is
    /// element-for-element identical to a fresh [`HostGrid::build`] over
    /// the current positions (property-tested below), so `within_into`
    /// returns hits in exactly the same order either way.
    pub fn apply_move(&mut self, host: u32, new_pos: Point) -> bool {
        let old = self.host_cells[host as usize];
        let new = self.flat_cell(new_pos);
        if old == new {
            return false;
        }
        self.remove_from_cell(host, old);
        self.insert_into_cell(host, new);
        self.host_cells[host as usize] = new;
        true
    }

    /// Hosts (by index) within `radius` of `p`, excluding `exclude`.
    /// `positions` is the position column the grid is maintained against.
    pub fn within(&self, positions: &[Point], p: Point, radius: f64, exclude: u32) -> Vec<u32> {
        let mut out = Vec::new();
        self.within_into(positions, p, radius, exclude, &mut out);
        out
    }

    /// [`HostGrid::within`] writing hits into `out` (cleared first), so a
    /// per-worker buffer absorbs the allocation across queries.
    ///
    /// Hits are pushed in ascending cell order then ascending host id
    /// within a cell, which is a pure function of the inputs — parallel
    /// callers see the same peer ordering the sequential path sees.
    pub fn within_into(
        &self,
        positions: &[Point],
        p: Point,
        radius: f64,
        exclude: u32,
        out: &mut Vec<u32>,
    ) {
        out.clear();
        let r2 = radius * radius;
        // Hosts clamped into edge cells sit arbitrarily far outside the
        // bounds, but clamping only ever moves a cell index *toward* the
        // query's clamped index, so a ring in clamped coordinates still
        // covers every candidate within `radius`.
        let reach = (radius / self.cell).ceil() as isize;
        let (cx, cy) = Self::cell_of(self.bounds, self.inv_cell, self.cols, self.rows, p);
        for dy in -reach..=reach {
            let y = cy as isize + dy;
            if y < 0 || y >= self.rows as isize {
                continue;
            }
            for dx in -reach..=reach {
                let x = cx as isize + dx;
                if x < 0 || x >= self.cols as isize {
                    continue;
                }
                for &id in &self.cells[y as usize * self.cols + x as usize] {
                    if id != exclude && p.dist_sq(positions[id as usize]) <= r2 {
                        out.push(id);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn grid_matches_linear_scan() {
        let bounds = Rect::new(Point::ORIGIN, Point::new(1000.0, 1000.0));
        let mut s = 5u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let positions: Vec<Point> = (0..500)
            .map(|_| Point::new(next() * 1000.0, next() * 1000.0))
            .collect();
        let grid = HostGrid::build(bounds, 200.0, &positions);
        for probe in 0..50 {
            let q = positions[probe * 7 % positions.len()];
            let mut fast = grid.within(&positions, q, 200.0, probe as u32);
            let mut slow: Vec<u32> = positions
                .iter()
                .enumerate()
                .filter(|&(i, p)| i as u32 != probe as u32 && q.dist(*p) <= 200.0)
                .map(|(i, _)| i as u32)
                .collect();
            fast.sort_unstable();
            slow.sort_unstable();
            assert_eq!(fast, slow);
        }
    }

    #[test]
    fn radius_larger_than_cell() {
        let bounds = Rect::new(Point::ORIGIN, Point::new(100.0, 100.0));
        let positions = vec![Point::new(10.0, 10.0), Point::new(90.0, 90.0)];
        let grid = HostGrid::build(bounds, 10.0, &positions);
        let hits = grid.within(&positions, Point::new(50.0, 50.0), 80.0, u32::MAX);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn excludes_querier_and_out_of_range() {
        let bounds = Rect::new(Point::ORIGIN, Point::new(100.0, 100.0));
        let positions = vec![
            Point::new(10.0, 10.0),
            Point::new(12.0, 10.0),
            Point::new(99.0, 99.0),
        ];
        let grid = HostGrid::build(bounds, 20.0, &positions);
        let hits = grid.within(&positions, positions[0], 5.0, 0);
        assert_eq!(hits, vec![1]);
    }

    #[test]
    fn positions_outside_bounds_are_clamped_not_lost() {
        let bounds = Rect::new(Point::ORIGIN, Point::new(100.0, 100.0));
        let positions = vec![Point::new(-5.0, 50.0)];
        let grid = HostGrid::build(bounds, 25.0, &positions);
        let hits = grid.within(&positions, Point::new(0.0, 50.0), 10.0, u32::MAX);
        assert_eq!(hits, vec![0]);
    }

    /// Hosts exactly on a cell boundary and exactly at distance `radius`
    /// must be found (the `<= r²` comparison and the ring reach both sit
    /// on the boundary here).
    #[test]
    fn boundary_hosts_at_exact_radius_are_found() {
        let bounds = Rect::new(Point::ORIGIN, Point::new(100.0, 100.0));
        let cell = 10.0;
        // Querier at a cell corner; peers exactly `radius` away along the
        // axes and diagonals, each landing exactly on a cell boundary.
        let q = Point::new(50.0, 50.0);
        let radius = 20.0;
        let positions = vec![
            q,
            Point::new(50.0 + radius, 50.0),
            Point::new(50.0 - radius, 50.0),
            Point::new(50.0, 50.0 + radius),
            Point::new(50.0, 50.0 - radius),
            // Exactly on the circle via a 3-4-5 triangle (12² + 16² = 20²,
            // all exactly representable).
            Point::new(50.0 + 12.0, 50.0 + 16.0),
            Point::new(50.0 - 16.0, 50.0 - 12.0),
            // Just beyond the radius: must be excluded.
            Point::new(50.0 + radius + 1e-9, 50.0),
        ];
        let grid = HostGrid::build(bounds, cell, &positions);
        let mut hits = grid.within(&positions, q, radius, 0);
        hits.sort_unstable();
        assert_eq!(hits, vec![1, 2, 3, 4, 5, 6]);
    }

    /// Multi-ring scan: radius an exact multiple of the cell size, with
    /// the querier on the far edge of its cell — the worst case for an
    /// off-by-one in the `reach` ring.
    #[test]
    fn multi_ring_reach_covers_exact_multiples() {
        let bounds = Rect::new(Point::ORIGIN, Point::new(200.0, 200.0));
        let cell = 10.0;
        for qx in [100.0, 109.0, 109.999999, 110.0] {
            let q = Point::new(qx, 100.0);
            for radius in [10.0, 30.0, 50.0] {
                // A peer exactly `radius` to the left/right of the query.
                let positions = vec![
                    q,
                    Point::new(qx - radius, 100.0),
                    Point::new(qx + radius, 100.0),
                ];
                let grid = HostGrid::build(bounds, cell, &positions);
                let mut hits = grid.within(&positions, q, radius, 0);
                hits.sort_unstable();
                assert_eq!(hits, vec![1, 2], "qx={qx} radius={radius}");
            }
        }
    }

    /// A randomized sweep of radius/cell ratios (including radius far
    /// larger than a cell) against the linear scan.
    #[test]
    fn multi_ring_matches_linear_scan() {
        let bounds = Rect::new(Point::ORIGIN, Point::new(300.0, 300.0));
        let mut s = 99u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let positions: Vec<Point> = (0..300)
            .map(|_| Point::new(next() * 300.0, next() * 300.0))
            .collect();
        for cell in [7.0, 20.0, 150.0] {
            let grid = HostGrid::build(bounds, cell, &positions);
            for (i, radius) in [3.0, 25.0, 90.0, 299.0].into_iter().enumerate() {
                let q = positions[i * 13];
                let mut fast = grid.within(&positions, q, radius, u32::MAX);
                let mut slow: Vec<u32> = positions
                    .iter()
                    .enumerate()
                    .filter(|&(_, p)| q.dist(*p) <= radius)
                    .map(|(j, _)| j as u32)
                    .collect();
                fast.sort_unstable();
                slow.sort_unstable();
                assert_eq!(fast, slow, "cell={cell} radius={radius}");
            }
        }
    }

    /// `within_into` reuses the buffer and clears stale contents.
    #[test]
    fn within_into_reuses_buffer() {
        let bounds = Rect::new(Point::ORIGIN, Point::new(100.0, 100.0));
        let positions = vec![Point::new(10.0, 10.0), Point::new(15.0, 10.0)];
        let grid = HostGrid::build(bounds, 20.0, &positions);
        let mut buf = vec![42u32; 8];
        grid.within_into(&positions, positions[0], 10.0, 0, &mut buf);
        assert_eq!(buf, vec![1]);
        grid.within_into(&positions, Point::new(90.0, 90.0), 5.0, u32::MAX, &mut buf);
        assert!(buf.is_empty());
    }

    /// Moves that stay inside a cell touch nothing; boundary crossings
    /// edit exactly the two affected cell lists.
    #[test]
    fn apply_move_reports_boundary_crossings() {
        let bounds = Rect::new(Point::ORIGIN, Point::new(100.0, 100.0));
        let mut positions = vec![Point::new(5.0, 5.0), Point::new(55.0, 55.0)];
        let mut grid = HostGrid::build(bounds, 10.0, &positions);
        // In-cell jitter: no boundary crossing.
        positions[0] = Point::new(9.0, 9.0);
        assert!(!grid.apply_move(0, positions[0]));
        // Crossing into the next cell over.
        positions[0] = Point::new(11.0, 9.0);
        assert!(grid.apply_move(0, positions[0]));
        let hits = grid.within(&positions, Point::new(11.0, 9.0), 1.0, u32::MAX);
        assert_eq!(hits, vec![0]);
        // The old cell no longer reports the host.
        assert!(grid
            .within(&positions, Point::new(5.0, 5.0), 3.0, u32::MAX)
            .is_empty());
    }

    /// Exact equality of the full query surface between an incrementally
    /// maintained grid and a fresh build: same hits in the same order.
    fn assert_equivalent(maintained: &HostGrid, positions: &[Point], bounds: Rect, cell: f64) {
        let fresh = HostGrid::build(bounds, cell, positions);
        assert_eq!(maintained.len(), positions.len());
        let mut a = Vec::new();
        let mut b = Vec::new();
        // Probe from every host plus a few fixed off-host points, at radii
        // below, at, and above the cell size (unsorted: order must match).
        let mut probes: Vec<Point> = positions.to_vec();
        probes.push(Point::new(0.0, 0.0));
        probes.push(Point::new(bounds.max.x / 2.0, bounds.max.y / 2.0));
        for (i, q) in probes.iter().enumerate() {
            for radius in [cell * 0.4, cell, cell * 2.5] {
                let exclude = if i < positions.len() {
                    i as u32
                } else {
                    u32::MAX
                };
                maintained.within_into(positions, *q, radius, exclude, &mut a);
                fresh.within_into(positions, *q, radius, exclude, &mut b);
                assert_eq!(a, b, "probe {i} radius {radius}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Any sequence of moves leaves the maintained grid's
        /// `within_into` results identical — hits *and* order — to a fresh
        /// `HostGrid::build` over the same positions.
        /// Generated positions cluster near cell boundaries (multiples of
        /// the cell size ± small jitter) so boundary crossings dominate.
        #[test]
        fn incremental_maintenance_equals_fresh_build(
            moves in prop::collection::vec((0.0..1.0f64, 0.0..1.0f64), 1..60),
            start in prop::collection::vec((0.0..100.0f64, 0.0..100.0f64), 1..20),
        ) {
            let bounds = Rect::new(Point::ORIGIN, Point::new(100.0, 100.0));
            let cell = 10.0;
            // Snap a coordinate toward the nearest cell boundary half the
            // time, so moves routinely land exactly on / just across one.
            let snap = |v: f64| {
                let b = (v / cell).round() * cell;
                if (v - b).abs() < 2.5 { b + (v - b) * 0.1 } else { v }
            };
            let mut positions: Vec<Point> =
                start.iter().map(|&(x, y)| Point::new(snap(x), snap(y))).collect();
            let mut grid = HostGrid::build(bounds, cell, &positions);
            for (u, v) in moves {
                // Boundary-biased target.
                let i = (u * positions.len() as f64) as usize % positions.len();
                let new = Point::new(snap(v * 100.0), snap(u * 100.0));
                positions[i] = new;
                grid.apply_move(i as u32, new);
                assert_equivalent(&grid, &positions, bounds, cell);
            }
        }
    }
}
