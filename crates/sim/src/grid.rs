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
//! movement pass costs O(boundary crossings), not O(hosts). The movement
//! pass splits it in two: the read-only [`HostGrid::crossing`] during the
//! sweep, then one [`HostGrid::commit`] of the staged crossings, in the
//! same order and with the same edits. A maintained
//! grid is element-for-element identical to a fresh [`HostGrid::build`]
//! over the same positions (property-tested below), because every cell
//! list is kept sorted ascending by host id — exactly the order a fresh
//! index-order insertion produces.
//!
//! **Cells are stored inline**: 32 bytes in the cell array, a count and
//! up to `INLINE_IDS` ids. A crossing touches the two cells and nothing
//! else, and a 3×3 scan reads three contiguous runs of cells. *Spill
//! rule:* a longer list (under 1.2 % of occupied cells on every benchmark
//! workload) lives whole in a side table keyed by cell index and returns
//! inline the moment it fits again, so where a list lives depends on its
//! length alone; the table is never iterated, so its order cannot reach a
//! result.
//!
//! **Inline edits move no memory in bulk.** An insert into an inline list
//! is one insertion-sort step, a remove a scan then a fixed-length shift
//! loop: a few compares and stores inside the 28-byte array, with no
//! `binary_search` and no `memmove`. Both keep their release-build
//! invariant checks (a removed host must be listed, an inserted one must
//! not be). `build` does not go through them: one counting pass places
//! each cell's ids ascending, inline or spilled by the list's final
//! length — the index the kernel's inserts in id order would leave
//! (tested below).
//!
//! **Cell assignment truncates**: `(x * inv_cell) as isize`, then a clamp
//! to `[0, cols - 1]`. `as` rounds toward zero, saturates and maps NaN to
//! 0; it differs from `floor` only on negative non-integers, where both
//! results are ≤ 0 and clamp to 0. So this *is* floor-then-clamp for every
//! input, minus two libm `floor` calls per moving host per interval.
//!
//! The grid is read-only while a query batch executes, which is what lets
//! the simulator fan queries out across threads. [`HostGrid::within_into`]
//! writes hits into a caller-owned vector, so steady-state peer discovery
//! performs no allocation at all.

use std::collections::HashMap;

use senn_geom::{Point, Rect};
use senn_mobility::Travel;

/// Ids a cell holds inline: with the count, 32 bytes, two to a cache line.
const INLINE_IDS: usize = 7;

/// One cell: `len` ids, ascending, in `ids[..len]` or else in the spill.
#[derive(Clone, Copy, Debug, Default)]
struct Cell {
    len: u32,
    ids: [u32; INLINE_IDS],
}

/// A host's crossing into another cell, staged by [`HostGrid::crossing`]
/// and applied by [`HostGrid::commit`]: 8 bytes, the host and its new cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CellMove {
    host: u32,
    cell: u32,
}

/// An incrementally maintained uniform grid over host indices.
#[derive(Clone, Debug)]
pub struct HostGrid {
    bounds: Rect,
    cell: f64,
    /// `1.0 / cell`, precomputed: cell assignment multiplies instead of
    /// dividing, and every path (build, `apply_move`, lookups) uses the
    /// same `CrossingProbe::cell_of`, so assignments stay mutually
    /// consistent.
    inv_cell: f64,
    cols: usize,
    rows: usize,
    /// Host ids per cell, each list sorted ascending — the invariant that
    /// makes incremental maintenance bit-identical to a fresh build.
    cells: Vec<Cell>,
    /// The whole list of every cell longer than `INLINE_IDS`, by cell index.
    spill: HashMap<u32, Vec<u32>>,
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
        let mut grid = HostGrid {
            bounds,
            cell,
            inv_cell: 1.0 / cell,
            cols,
            rows,
            cells: vec![Cell::default(); cols * rows],
            spill: HashMap::new(),
            host_cells: Vec::new(),
        };
        // One counting pass: every host's cell, the per-cell counts (a
        // byte each, saturating: only "fits inline or not" is read), then
        // the ids in ascending order, each list inline or in the spill by
        // its final length — the lists the cell-edit kernel would build.
        let probe = grid.probe();
        let host_cells: Vec<u32> = positions.iter().map(|&p| probe.flat_cell(p)).collect();
        let mut counts = vec![0u8; grid.cells.len()];
        for &idx in &host_cells {
            counts[idx as usize] = counts[idx as usize].saturating_add(1);
        }
        let HostGrid { cells, spill, .. } = &mut grid;
        for (host, &idx) in host_cells.iter().enumerate() {
            let cell = &mut cells[idx as usize];
            if usize::from(counts[idx as usize]) <= INLINE_IDS {
                cell.ids[cell.len as usize] = host as u32;
            } else {
                spill.entry(idx).or_default().push(host as u32);
            }
            cell.len += 1;
        }
        grid.host_cells = host_cells;
        grid
    }

    /// Number of hosts the grid currently tracks.
    pub fn len(&self) -> usize {
        self.host_cells.len()
    }

    /// True when no hosts are tracked.
    pub fn is_empty(&self) -> bool {
        self.host_cells.is_empty()
    }

    /// Cell assignment and the crossing check, with the grid's constants
    /// copied out once: a sweep takes one for all its movers.
    pub(crate) fn probe(&self) -> CrossingProbe<'_> {
        let b = self.bounds;
        let reach = [b.min.x, b.min.y, b.max.x, b.max.y]
            .into_iter()
            .fold(self.cell, |m, v| m.max(v.abs()));
        CrossingProbe {
            min: b.min,
            cell: self.cell,
            margin: WALL_MARGIN * reach,
            inv_cell: self.inv_cell,
            last_col: self.cols as isize - 1,
            last_row: self.rows as isize - 1,
            cols: self.cols,
            host_cells: &self.host_cells,
        }
    }

    /// The ascending id list of cell `idx`.
    fn ids(&self, idx: usize) -> &[u32] {
        let cell = &self.cells[idx];
        match cell.ids.get(..cell.len as usize) {
            Some(inline) => inline,
            None => &self.spill[&(idx as u32)],
        }
    }

    /// Removes `host` from cell list `idx` (it must be there).
    fn remove_from_cell(&mut self, host: u32, idx: u32) {
        const LISTED: &str = "grid invariant: host listed in its recorded cell";
        let cell = &mut self.cells[idx as usize];
        let len = cell.len as usize;
        cell.len -= 1;
        if len <= INLINE_IDS {
            let ids = &mut cell.ids;
            let mut at = 0;
            while at < len && ids[at] < host {
                at += 1;
            }
            assert!(at < len && ids[at] == host, "{LISTED}");
            // Every slot from `at` takes its successor's id: a fixed-length
            // loop, so no `memmove`. The last slot keeps a stale id that
            // `len` hides.
            for k in 0..INLINE_IDS - 1 {
                if k >= at {
                    ids[k] = ids[k + 1];
                }
            }
            return;
        }
        let list = self
            .spill
            .get_mut(&idx)
            .expect("grid invariant: a long list is spilled");
        let at = list.binary_search(&host).expect(LISTED);
        list.remove(at);
        if list.len() == INLINE_IDS {
            cell.ids.copy_from_slice(list);
            self.spill.remove(&idx);
        }
    }

    /// Inserts `host` into cell list `idx`, keeping the list ascending.
    fn insert_into_cell(&mut self, host: u32, idx: u32) {
        const ONCE: &str = "grid invariant: host tracked at most once";
        let cell = &mut self.cells[idx as usize];
        let len = cell.len as usize;
        cell.len += 1;
        if len < INLINE_IDS {
            // One insertion-sort step: larger ids move up a slot until
            // `host`'s place is free.
            let ids = &mut cell.ids;
            let mut at = len;
            while at > 0 && ids[at - 1] > host {
                ids[at] = ids[at - 1];
                at -= 1;
            }
            assert!(at == 0 || ids[at - 1] != host, "{ONCE}");
            ids[at] = host;
            return;
        }
        // A full inline list moves out whole on its first spill.
        let list = self.spill.entry(idx).or_insert_with(|| cell.ids.to_vec());
        let at = list.binary_search(&host).expect_err(ONCE);
        list.insert(at, host);
    }

    /// Incremental maintenance: records that `host` now sits at `new_pos`.
    /// Returns `true` when the host crossed a cell boundary (two sorted
    /// cell-list edits), `false` when it stayed in its cell (no work).
    /// It is [`HostGrid::crossing`] followed by a one-move
    /// [`HostGrid::commit`].
    ///
    /// After any sequence of `apply_move` calls the grid is
    /// element-for-element identical to a fresh [`HostGrid::build`] over
    /// the current positions (property-tested below), so `within_into`
    /// returns hits in exactly the same order either way.
    pub fn apply_move(&mut self, host: u32, new_pos: Point) -> bool {
        match self.crossing(host, new_pos) {
            Some(crossed) => {
                self.move_host(crossed);
                true
            }
            None => false,
        }
    }

    /// The read-only half of [`HostGrid::apply_move`]: the cell edit that
    /// would record `host` at `new_pos`, or `None` when it is still in its
    /// recorded cell. Nothing changes until the move is committed.
    pub fn crossing(&self, host: u32, new_pos: Point) -> Option<CellMove> {
        self.probe().crossing(host, new_pos)
    }

    /// Applies staged crossings in order, each exactly as
    /// [`HostGrid::apply_move`] would. Staged for one pass over hosts
    /// ascending by id, as the movement sweep stages them (each host at
    /// most once, debug-asserted), the batch leaves the grid identical to
    /// per-host `apply_move` calls made in the same order.
    pub fn commit(&mut self, staged: &[CellMove]) {
        debug_assert!(
            staged.windows(2).all(|w| w[0].host < w[1].host),
            "staged crossings must be strictly ascending by host"
        );
        for &crossed in staged {
            self.move_host(crossed);
        }
    }

    /// One committed crossing: two sorted cell-list edits and the host's
    /// recorded cell.
    fn move_host(&mut self, CellMove { host, cell }: CellMove) {
        let old = self.host_cells[host as usize];
        self.remove_from_cell(host, old);
        self.insert_into_cell(host, cell);
        self.host_cells[host as usize] = cell;
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
        self.within_by(|id| positions[id as usize], p, radius, exclude, out);
    }

    /// [`HostGrid::within_into`] reading each candidate's position through
    /// `position`, for a store whose positions are evaluated on demand.
    pub(crate) fn within_by(
        &self,
        position: impl Fn(u32) -> Point,
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
        let (cx, cy) = self.probe().cell_of(p);
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
                for &id in self.ids(y as usize * self.cols + x as usize) {
                    if id != exclude && p.dist_sq(position(id)) <= r2 {
                        out.push(id);
                    }
                }
            }
        }
    }
}

/// A read-only view of the grid's cell assignment and recorded cells, its
/// constants held by value: the one place a position becomes a cell.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CrossingProbe<'a> {
    min: Point,
    cell: f64,
    /// How far inside a cell wall [`CrossingProbe::exit_time`] stops.
    margin: f64,
    inv_cell: f64,
    last_col: isize,
    last_row: isize,
    cols: usize,
    host_cells: &'a [u32],
}

impl CrossingProbe<'_> {
    /// Cell coordinates of `p`, clamped (module docs: truncation is floor).
    #[inline]
    fn cell_of(&self, p: Point) -> (usize, usize) {
        let axis = |d: f64, last: isize| ((d * self.inv_cell) as isize).clamp(0, last);
        let cx = axis(p.x - self.min.x, self.last_col);
        let cy = axis(p.y - self.min.y, self.last_row);
        (cx as usize, cy as usize)
    }

    #[inline]
    fn flat_cell(&self, p: Point) -> u32 {
        let (cx, cy) = self.cell_of(p);
        self.flat((cx, cy))
    }

    #[inline]
    fn flat(&self, (cx, cy): (usize, usize)) -> u32 {
        (cy * self.cols + cx) as u32
    }

    /// The move of `host` into `cell`, unless it is recorded there.
    #[inline]
    fn staged(&self, host: u32, cell: u32) -> Option<CellMove> {
        (self.host_cells[host as usize] != cell).then_some(CellMove { host, cell })
    }

    /// The cell `host` is recorded in.
    #[inline]
    pub(crate) fn recorded_cell(&self, host: u32) -> u32 {
        self.host_cells[host as usize]
    }

    /// [`HostGrid::crossing`].
    #[inline]
    pub(crate) fn crossing(&self, host: u32, new_pos: Point) -> Option<CellMove> {
        self.staged(host, self.flat_cell(new_pos))
    }

    /// [`CrossingProbe::crossing`] for a host on a straight leg, with the
    /// earliest time it can leave the cell `at` lies in (the leg's
    /// position at time `t` is [`Travel::at`]). Each axis's wall ahead is
    /// pulled `margin` (a billionth of the grid's largest coordinate) back
    /// inside the cell, far more than the rounding of a position or of the
    /// truncation in [`CrossingProbe::cell_of`], so the host cannot change
    /// cells before the time returned. An edge cell has no wall on its
    /// outer side (the clamp extends it), and an axis with no travel has
    /// none either: with neither wall, the time is infinite. It may lie in
    /// the past when `at` is within the margin of a wall.
    #[inline]
    pub(crate) fn leg_crossing(
        &self,
        host: u32,
        at: Point,
        travel: &Travel,
    ) -> (Option<CellMove>, f64) {
        let (cx, cy) = self.cell_of(at);
        let crossed = self.staged(host, self.flat((cx, cy)));
        let Travel {
            from,
            to,
            depart,
            secs,
        } = *travel;
        let axis = |c: usize, last: isize, origin: f64, from: f64, to: f64| {
            let wall = if to > from && (c as isize) < last {
                origin + (c + 1) as f64 * self.cell - self.margin
            } else if to < from && c > 0 {
                origin + c as f64 * self.cell + self.margin
            } else {
                return f64::INFINITY;
            };
            depart + (wall - from) / (to - from) * secs
        };
        let tx = axis(cx, self.last_col, self.min.x, from.x, to.x);
        (
            crossed,
            tx.min(axis(cy, self.last_row, self.min.y, from.y, to.y)),
        )
    }
}

/// [`CrossingProbe::leg_crossing`]'s margin, relative to the grid's largest
/// coordinate.
const WALL_MARGIN: f64 = 1e-9;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeSet, HashSet};

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

    /// Pulls a coordinate within 2.5 of a cell boundary to within 0.25 of
    /// it, so moves routinely land exactly on or just across one.
    fn snap(v: f64, cell: f64) -> f64 {
        let b = (v / cell).round() * cell;
        if (v - b).abs() < 2.5 {
            b + (v - b) * 0.1
        } else {
            v
        }
    }

    /// Drives one boundary-biased move sequence, checking the maintained
    /// grid against a fresh build after every move, and returns how many
    /// moves carried a list into or out of the spill table. `place` maps a
    /// unit draw to a coordinate; coordinates are then snapped toward cell
    /// boundaries (multiples of the cell size ± small jitter) so moves
    /// routinely land exactly on or just across one.
    fn check_moves(
        start: &[(f64, f64)],
        moves: &[(f64, f64)],
        side: f64,
        place: impl Fn(f64) -> f64,
    ) -> usize {
        let bounds = Rect::new(Point::ORIGIN, Point::new(side, side));
        let cell = 10.0;
        let at = |x: f64, y: f64| Point::new(snap(place(x), cell), snap(place(y), cell));
        let mut positions: Vec<Point> = start.iter().map(|&(x, y)| at(x, y)).collect();
        let mut grid = HostGrid::build(bounds, cell, &positions);
        let mut spill_changes = 0;
        for &(u, v) in moves {
            let i = (u * positions.len() as f64) as usize % positions.len();
            let spilled: HashSet<u32> = grid.spill.keys().copied().collect();
            // The host index takes `u`'s leading digits, the target its
            // trailing ones, so which host moves says nothing of where to.
            positions[i] = at(v, (u * 4096.0).fract());
            grid.apply_move(i as u32, positions[i]);
            spill_changes += usize::from(spilled != grid.spill.keys().copied().collect());
            assert_equivalent(&grid, &positions, bounds, cell);
        }
        spill_changes
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Any sequence of moves leaves the maintained grid's
        /// `within_into` results identical — hits *and* order — to a fresh
        /// `HostGrid::build` over the same positions. Sparse: up to 19
        /// hosts on 11×11 cells, so lists stay inline.
        #[test]
        fn incremental_maintenance_equals_fresh_build(
            moves in prop::collection::vec((0.0..1.0f64, 0.0..1.0f64), 1..60),
            start in prop::collection::vec((0.0..1.0f64, 0.0..1.0f64), 1..20),
        ) {
            check_moves(&start, &moves, 100.0, |v| v * 100.0);
        }

        /// Dense: 40–44 hosts on a 2×2-cell grid, placed with a skew that
        /// keeps about a sixth of them in each off-diagonal cell — lists
        /// that hover at the inline capacity, so moves carry cells across
        /// it, in both directions, about ten times in the median case
        /// (the stream is deterministic; never fewer than once).
        /// Coordinates snapped up toward 20 lie outside the bounds and
        /// exercise the clamp as well.
        #[test]
        fn incremental_maintenance_equals_fresh_build_across_the_spill(
            moves in prop::collection::vec((0.0..1.0f64, 0.0..1.0f64), 100..140),
            start in prop::collection::vec((0.0..1.0f64, 0.0..1.0f64), 40..45),
        ) {
            let spill_changes = check_moves(&start, &moves, 19.0, |v| v.powf(2.6) * 19.0);
            prop_assert!(spill_changes >= 1, "no list crossed the inline capacity");
        }
    }

    /// The grid's whole index — every cell list (ids and order), every
    /// host's recorded cell, and which cells are spilled — is equal.
    fn assert_same_index(a: &HostGrid, b: &HostGrid) {
        assert_eq!(a.cells.len(), b.cells.len());
        for idx in 0..a.cells.len() {
            assert_eq!(a.ids(idx), b.ids(idx), "cell {idx}");
        }
        assert_eq!(a.host_cells, b.host_cells);
        let keys = |g: &HostGrid| g.spill.keys().copied().collect::<HashSet<u32>>();
        assert_eq!(keys(a), keys(b));
    }

    /// The index `build` made before its counting pass: every host through
    /// the cell-edit kernel, in id order.
    fn kernel_built(bounds: Rect, cell: f64, positions: &[Point]) -> HostGrid {
        let mut grid = HostGrid::build(bounds, cell, &[]);
        for (i, p) in positions.iter().enumerate() {
            let idx = grid.probe().flat_cell(*p);
            grid.insert_into_cell(i as u32, idx);
            grid.host_cells.push(idx);
        }
        grid
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The counting-pass build equals the kernel-built index: every
        /// list, every recorded cell, the same spilled cells. 0–79 hosts
        /// on a 2×2-cell grid, skewed toward one corner and partly outside
        /// the bounds, so lists run from empty to far past `INLINE_IDS`.
        #[test]
        fn counting_build_equals_kernel_inserts(
            points in prop::collection::vec((0.0..1.0f64, 0.0..1.0f64), 0..80),
        ) {
            let bounds = Rect::new(Point::ORIGIN, Point::new(19.0, 19.0));
            let positions: Vec<Point> = points
                .iter()
                .map(|&(u, v)| Point::new(u.powf(1.7) * 24.0 - 2.0, v * 21.0 - 1.0))
                .collect();
            let built = HostGrid::build(bounds, 10.0, &positions);
            assert_same_index(&built, &kernel_built(bounds, 10.0, &positions));
        }
    }

    /// One interval three ways: crossings staged over the whole pass then
    /// committed as one batch, per-host `apply_move` in the same ascending
    /// order, and a fresh build over the final positions. `steps` holds a
    /// draw per host: whether it moves, then where to — a short hop from
    /// where it is or a jump to `jump(i, u, v)`; every coordinate is
    /// [`snap`]ped toward cell boundaries. Returns how many
    /// single edits inside the batch moved a list into and out of the
    /// spill.
    fn check_batch(
        side: f64,
        start: impl Fn(usize) -> Point,
        steps: &[(f64, f64, f64)],
        jump: impl Fn(usize, f64, f64) -> Point,
    ) -> (usize, usize) {
        let bounds = Rect::new(Point::ORIGIN, Point::new(side, side));
        let cell = 10.0;
        let snapped = |p: Point| Point::new(snap(p.x, cell), snap(p.y, cell));
        let mut positions: Vec<Point> = (0..steps.len()).map(|i| snapped(start(i))).collect();
        let mut staged_grid = HostGrid::build(bounds, cell, &positions);
        let mut sequential = staged_grid.clone();
        // The step phase: every position moves before the grid is touched.
        let mut staged = Vec::new();
        for (i, &(moves, u, v)) in steps.iter().enumerate() {
            let p = positions[i];
            positions[i] = snapped(match moves {
                m if m < 0.3 => continue,
                // A hop of up to ±6 m per axis: stays, crosses one
                // boundary, or leaves the bounds on either side.
                m if m < 0.75 => Point::new(p.x + (u - 0.5) * 12.0, p.y + (v - 0.5) * 12.0),
                _ => jump(i, u, v),
            });
            staged.extend(staged_grid.crossing(i as u32, positions[i]));
        }
        staged_grid.commit(&staged);
        // The twin: one `apply_move` per host, counting spill transitions.
        let keys = |g: &HostGrid| g.spill.keys().copied().collect::<HashSet<u32>>();
        let (mut spill_ins, mut spill_outs) = (0, 0);
        for (i, &p) in positions.iter().enumerate() {
            let before = keys(&sequential);
            sequential.apply_move(i as u32, p);
            let after = keys(&sequential);
            spill_ins += after.difference(&before).count();
            spill_outs += before.difference(&after).count();
        }
        assert_same_index(&staged_grid, &sequential);
        let fresh = HostGrid::build(bounds, cell, &positions);
        assert_same_index(&staged_grid, &fresh);
        assert_equivalent(&staged_grid, &positions, bounds, cell);
        (spill_ins, spill_outs)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Staged commit ≡ sequential `apply_move` ≡ fresh build, dense:
        /// 30 or 31 hosts on 2×2 cells, host `i` starting at a random spot
        /// in cell `i % 4`, so cell 0 starts spilled at 8 ids and cell 3
        /// inline at 7. Host 0 always jumps into cell 3, and that one edit
        /// takes cell 0 out of the spill and cell 3 into it; the other
        /// moves of the batch keep the counts hovering at the inline
        /// capacity. Hops past 0 or 19 m exercise the clamp on both sides.
        #[test]
        fn staged_commit_equals_sequential_moves_and_fresh_build(
            corners in prop::collection::vec((0.0..1.0f64, 0.0..1.0f64), 31),
            steps in prop::collection::vec((0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64), 30..32),
        ) {
            let mut steps = steps;
            steps[0].0 = 1.0;
            let in_cell = |c: usize, (u, v): (f64, f64)| {
                Point::new(10.0 * (c % 2) as f64 + u * 9.0, 10.0 * (c / 2) as f64 + v * 9.0)
            };
            let (ins, outs) = check_batch(
                19.0,
                |i| in_cell(i % 4, corners[i]),
                &steps,
                |i, u, v| match i {
                    0 => in_cell(3, (u, v)),
                    _ => Point::new(u * 19.0, v * 19.0),
                },
            );
            prop_assert!(ins >= 1 && outs >= 1, "spill in {ins}, out {outs}");
        }

        /// The same on 11×11 cells with up to 19 hosts, where every list
        /// stays inline.
        #[test]
        fn staged_commit_equals_sequential_moves_sparse(
            start in prop::collection::vec((0.0..1.0f64, 0.0..1.0f64), 19),
            steps in prop::collection::vec((0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64), 1..20),
        ) {
            let anywhere = |u: f64, v: f64| Point::new(u * 100.0, v * 100.0);
            check_batch(
                100.0,
                |i| anywhere(start[i].0, start[i].1),
                &steps,
                |_, u, v| anywhere(u, v),
            );
        }
    }

    /// Staging a host twice, or out of id order, is a caller bug the
    /// commit refuses in debug builds.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "strictly ascending")]
    fn commit_refuses_unordered_batches() {
        let bounds = Rect::new(Point::ORIGIN, Point::new(100.0, 100.0));
        let mut grid = HostGrid::build(bounds, 10.0, &[Point::new(5.0, 5.0); 2]);
        let far = Point::new(55.0, 55.0);
        let staged: Vec<CellMove> = [1, 0]
            .into_iter()
            .filter_map(|h| grid.crossing(h, far))
            .collect();
        grid.commit(&staged);
    }

    /// Where a list lives is a function of its length alone: it spills at
    /// `INLINE_IDS + 1`, comes back inline at `INLINE_IDS`, and the side
    /// table is empty again once every cell fits.
    #[test]
    fn lists_spill_and_return_by_length_alone() {
        let bounds = Rect::new(Point::ORIGIN, Point::new(100.0, 100.0));
        let n = INLINE_IDS as u32 + 3;
        let home = Point::new(5.0, 5.0);
        let away = Point::new(55.0, 55.0);
        let mut positions = vec![home; n as usize];
        let mut grid = HostGrid::build(bounds, 10.0, &positions);
        assert_eq!(grid.spill.len(), 1, "one long list");
        assert_eq!(grid.ids(0), (0..n).collect::<Vec<_>>());
        // Leave from the middle, one by one, then come back in reverse.
        for (gone, host) in (2..n).enumerate() {
            positions[host as usize] = away;
            assert!(grid.apply_move(host, away));
            let left = n as usize - gone - 1;
            assert_eq!(
                grid.spill.contains_key(&0),
                left > INLINE_IDS,
                "{left} left"
            );
            assert_eq!(grid.ids(0).len(), left);
        }
        assert_eq!(grid.ids(0), [0, 1]);
        assert_eq!(grid.spill.len(), 1, "the far cell now holds the long list");
        for host in (2..n).rev() {
            positions[host as usize] = home;
            assert!(grid.apply_move(host, home));
        }
        assert_eq!(grid.ids(0), (0..n).collect::<Vec<_>>());
        assert_eq!(grid.spill.len(), 1);
        assert_equivalent(&grid, &positions, bounds, 10.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The cell-edit kernel against a model set: random inserts and
        /// removes of hosts 0..20 on one cell, in four phases of 40 edits
        /// that lean to inserting, removing, inserting, removing — so the
        /// list grows past `INLINE_IDS` and shrinks back, twice. After every
        /// edit the list is the model's ids ascending, its length is the
        /// model's, and it is spilled exactly when it is longer than
        /// `INLINE_IDS`.
        #[test]
        fn cell_edits_match_a_set_model(
            draws in prop::collection::vec((0.0..1.0f64, 0.0..1.0f64), 160),
        ) {
            let bounds = Rect::new(Point::ORIGIN, Point::new(10.0, 10.0));
            let mut grid = HostGrid::build(bounds, 100.0, &[]);
            let mut model = BTreeSet::new();
            let (mut ups, mut downs) = (0, 0);
            for (i, &(op, pick)) in draws.iter().enumerate() {
                let grow = if (i / 40) % 2 == 0 { 0.8 } else { 0.2 };
                let absent: Vec<u32> = (0..20).filter(|h| !model.contains(h)).collect();
                let before = model.len();
                if model.is_empty() || (op < grow && !absent.is_empty()) {
                    let host = absent[(pick * absent.len() as f64) as usize];
                    grid.insert_into_cell(host, 0);
                    model.insert(host);
                } else {
                    let host = *model.iter().nth((pick * before as f64) as usize).unwrap();
                    grid.remove_from_cell(host, 0);
                    model.remove(&host);
                }
                let listed: Vec<u32> = model.iter().copied().collect();
                prop_assert_eq!(grid.ids(0), &listed[..]);
                prop_assert_eq!(grid.cells[0].len as usize, model.len());
                prop_assert_eq!(grid.spill.contains_key(&0), model.len() > INLINE_IDS);
                ups += usize::from(before == INLINE_IDS && model.len() > INLINE_IDS);
                downs += usize::from(before > INLINE_IDS && model.len() == INLINE_IDS);
            }
            prop_assert!(ups >= 1 && downs >= 1, "up {ups}, down {downs}");
        }
    }

    /// A cell listing hosts 2, 4 and 6, inline.
    fn three_listed() -> HostGrid {
        let bounds = Rect::new(Point::ORIGIN, Point::new(10.0, 10.0));
        let mut grid = HostGrid::build(bounds, 100.0, &[]);
        for host in [4, 2, 6] {
            grid.insert_into_cell(host, 0);
        }
        assert_eq!(grid.ids(0), [2, 4, 6]);
        grid
    }

    /// The inline kernel keeps the release-build check: removing a host
    /// its cell does not list panics.
    #[test]
    #[should_panic(expected = "grid invariant: host listed in its recorded cell")]
    fn removing_an_unlisted_host_panics() {
        three_listed().remove_from_cell(5, 0);
    }

    /// The inline kernel keeps the release-build check: inserting a host
    /// its cell already lists panics.
    #[test]
    #[should_panic(expected = "grid invariant: host tracked at most once")]
    fn inserting_a_listed_host_panics() {
        three_listed().insert_into_cell(4, 0);
    }

    /// Truncation then clamp is floor then clamp, for every input the
    /// clamp's floor of 0 can meet: the old expression is kept here.
    #[test]
    fn cell_of_truncation_equals_floor_then_clamp() {
        let floor_then_clamp = |g: &HostGrid, p: Point| {
            let cx = ((p.x - g.bounds.min.x) * g.inv_cell).floor() as isize;
            let cy = ((p.y - g.bounds.min.y) * g.inv_cell).floor() as isize;
            let (cols, rows) = (g.cols as isize, g.rows as isize);
            (
                cx.clamp(0, cols - 1) as usize,
                cy.clamp(0, rows - 1) as usize,
            )
        };
        let mut coords = vec![
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            isize::MAX as f64,
            isize::MAX as f64 * 4.0,
            isize::MIN as f64 * 4.0,
            -0.5,
            -1.0,
            -1.5,
            -1e-300,
            1e300,
        ];
        // Both sides of every cell boundary of both grids below, to the ulp.
        for k in -3..=12 {
            for boundary in [f64::from(k) * 10.0, f64::from(k) * 0.3 - 7.0] {
                let ulp = boundary.abs().max(1.0) * f64::EPSILON;
                coords.extend([boundary - ulp, boundary, boundary + ulp, boundary + 4.9]);
            }
        }
        for (origin, side, cell) in [(0.0, 100.0, 10.0), (-7.0, 3.0, 0.3)] {
            let min = Point::new(origin, origin);
            let bounds = Rect::new(min, Point::new(origin + side, origin + side));
            let grid = HostGrid::build(bounds, cell, &[]);
            for &x in &coords {
                for &y in &coords {
                    let p = Point::new(x, y);
                    assert_eq!(
                        grid.probe().cell_of(p),
                        floor_then_clamp(&grid, p),
                        "{p:?} {cell}"
                    );
                }
            }
        }
    }
}
