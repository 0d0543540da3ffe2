//! Uniform-grid peer discovery with incremental maintenance.
//!
//! "Query moving object peers within the communication range" (Algorithm
//! 1, line 2): for every query we need the hosts within `Tx_Range` of the
//! querier.
//!
//! The grid is an *index only*: it stores which hosts sit in which cell,
//! while positions live in the simulator's host store and are passed to
//! every lookup. That split is what makes move-only maintenance cheap —
//! [`HostGrid::apply_move`] edits at most two cell lists when a host
//! crosses a cell boundary and touches nothing at all otherwise, so a
//! movement pass costs O(boundary crossings), not O(hosts). The movement
//! pass splits it in two: the read-only [`HostGrid::crossing`] during the
//! visits, then one [`HostGrid::commit`] of the staged crossings, in the
//! same order and with the same edits.
//!
//! **Two cell sides.** The *lookup cell* is the transmission range `r`; the
//! *storage cell* (side `s ≥ r`) is what lists are kept under and what a
//! movement pass tracks, so a host costs the pass something only when it
//! crosses a storage wall. A lookup scans the storage cells that meet the
//! box `[p − r, p + r]`, widened by a billionth of its scale (far more
//! than the rounding of the distance test it must not undercut), keeps
//! the candidates within `r`, and sorts its few hits by (lookup cell,
//! host id). That is the *lookup-order rule*: the order a 3×3 ring of
//! `Tx_Range` cells with id-sorted lists yields, and a function of the
//! positions alone — whatever the storage side and whatever order the
//! lists are in. So a maintained grid answers every lookup, hits and
//! order, exactly like a fresh `Tx_Range` [`HostGrid::build`] and like a
//! linear scan sorted the same way (tested below for `s/r` from 1 to 8).
//!
//! **The side rule** (`storage_side`) is applied once, from the
//! scenario. Road worlds keep `s = r`: their movement pass steps every
//! road mover each interval anyway, so a crossing costs only its commit.
//! Free worlds take `s = max(r, κ·∛Q)` with `Q = M_Percentage · v · A /
//! λ_Query` in m³ (`λ_Query` per second; `SimParams::scaled_down` leaves it
//! unchanged). A moving host crosses storage walls about `4v/(πs)` times a
//! second and a lookup reads about `(s + 2r)²·N/A` candidates, so the
//! cost `c_x · M·N·4v/(πs) + c_c · λ·N·(s + 2r)²/A` is least near `s³ =
//! (2c_x/(π c_c)) · Q`: `κ = ∛(2c_x/(π c_c))`. Two sweeps of the storage
//! side from 5r to 40r on `million_free` (seed 20060402, three runs a
//! side, one core of a shared two-core x86-64 box) read a crossing — its
//! calendar visit plus its commit — at `c_x` ≈ 230 and 370 ns, and a
//! candidate — its closed-form position plus the distance test — at
//! `c_c` ≈ 270 and 240 ns: κ ≈ 0.82 and 1.0. κ = 0.8 puts `million_free`
//! under 2 192 m cells (≈ 11r, `r` = 200 m); movement plus execution
//! there was within 12 % of its least from 8r to 12r in both sweeps.
//!
//! **Cells are stored inline and lists are unordered**: 32 bytes in the
//! cell array, a count and up to `INLINE_IDS` ids. A longer list spills
//! whole into a pool of vectors and the cell keeps its pool index; it
//! returns inline the moment it fits again, leaving its emptied vector
//! for the next spill, so where a list lives depends on its length alone.
//! Every edit is O(1) apart from scanning at most `INLINE_IDS` inline ids:
//! a remove moves the list's last id into the gap, an insert appends, and
//! a host in a spilled list has its index there recorded (its *place*), so
//! a spilled edit reads the place instead of scanning — no hashing and no
//! `memmove`. Both edits keep their release-build invariant checks (a
//! removed host must be listed, an inserted one must not be); in a
//! spilled list each is one read, exact because a listed host's place
//! always holds it. `build` does not go through them: one counting pass
//! places each cell's ids, inline or spilled by the list's final length —
//! the index the kernel's inserts in id order would leave (tested below).
//!
//! **Cell assignment truncates**: `(x * inv_cell) as isize`, then a clamp
//! to `[0, cols - 1]`. `as` rounds toward zero, saturates and maps NaN to
//! 0; it differs from `floor` only on negative non-integers, where both
//! results are ≤ 0 and clamp to 0. So this *is* floor-then-clamp for every
//! input, minus two libm `floor` calls per moving host per interval. It is
//! monotone in each coordinate, which is what lets a lookup's box of
//! storage cells cover every host within range, clamped ones included.
//!
//! The grid is read-only while a query batch executes, which is what lets
//! the simulator fan queries out across threads. [`HostGrid::within_into`]
//! writes hits into a caller-owned vector, so steady-state peer discovery
//! performs no allocation at all.

use senn_geom::{Point, Rect};
use senn_mobility::Travel;

use crate::movement::MovementMode;
use crate::params::SimParams;

/// Ids a cell holds inline: with the count, 32 bytes, two to a cache line.
const INLINE_IDS: usize = 7;

/// Hits a lookup keys on the stack; more go to the heap.
const STACK_HITS: usize = 64;

/// One cell: `len` ids, in no particular order, in `ids[..len]` while they
/// fit; a longer list lives in the grid's pool, and `ids[0]` is its index.
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

/// A uniform lattice of square cells over the grid's bounds: the one place
/// a position becomes a cell (module docs: truncation is floor).
#[derive(Clone, Copy, Debug)]
struct Lattice {
    min: Point,
    cell: f64,
    /// `1.0 / cell`, precomputed: cell assignment multiplies instead of
    /// dividing, and every path (build, moves, lookups) uses the same
    /// `cell_of`, so assignments stay mutually consistent.
    inv_cell: f64,
    cols: usize,
    rows: usize,
}

impl Lattice {
    fn new(bounds: Rect, cell: f64) -> Self {
        assert!(cell > 0.0, "cell size must be positive");
        Lattice {
            min: bounds.min,
            cell,
            inv_cell: 1.0 / cell,
            cols: (bounds.width() / cell).floor() as usize + 1,
            rows: (bounds.height() / cell).floor() as usize + 1,
        }
    }

    /// Cell coordinates of `p`, clamped.
    #[inline]
    fn cell_of(&self, p: Point) -> (usize, usize) {
        let axis =
            |d: f64, cells: usize| ((d * self.inv_cell) as isize).clamp(0, cells as isize - 1);
        let cx = axis(p.x - self.min.x, self.cols);
        let cy = axis(p.y - self.min.y, self.rows);
        (cx as usize, cy as usize)
    }

    #[inline]
    fn flat(&self, (cx, cy): (usize, usize)) -> u32 {
        (cy * self.cols + cx) as u32
    }

    #[inline]
    fn flat_cell(&self, p: Point) -> u32 {
        self.flat(self.cell_of(p))
    }
}

/// An incrementally maintained uniform grid over host indices.
#[derive(Clone, Debug)]
pub struct HostGrid {
    bounds: Rect,
    /// Cells of the transmission range: lookups order hits by these.
    lookup: Lattice,
    /// The cells lists are kept under (module docs).
    storage: Lattice,
    /// Host ids per storage cell, in no particular order.
    cells: Vec<Cell>,
    /// The whole list of every cell longer than `INLINE_IDS`, at the
    /// index the cell holds in `ids[0]`.
    pool: Vec<Vec<u32>>,
    /// Indices of `pool` no cell uses; each of those vectors is empty.
    free: Vec<u32>,
    /// Current flat storage-cell index of every tracked host.
    host_cells: Vec<u32>,
    /// Every host's index in its cell's list while that list is spilled
    /// (stale while it is inline): a spilled edit reads it instead of
    /// scanning the list.
    places: Vec<u32>,
}

impl HostGrid {
    /// Builds the grid for the given host positions with both cell sides
    /// equal to `cell`, which should be the transmission range.
    pub fn build(bounds: Rect, cell: f64, positions: &[Point]) -> Self {
        HostGrid::build_with_storage(bounds, cell, cell, positions.iter().copied())
    }

    /// Builds the grid with lookup cells of side `cell` (the transmission
    /// range) and lists kept under cells of side `storage` (module docs),
    /// host `h` at the `h`-th of `positions`. Lookups return the same hits
    /// in the same order whatever `storage`.
    pub fn build_with_storage(
        bounds: Rect,
        cell: f64,
        storage: f64,
        positions: impl ExactSizeIterator<Item = Point>,
    ) -> Self {
        assert!(!bounds.is_empty(), "area must be non-empty");
        let lattice = Lattice::new(bounds, storage);
        let mut grid = HostGrid {
            bounds,
            lookup: Lattice::new(bounds, cell),
            storage: lattice,
            cells: vec![Cell::default(); lattice.cols * lattice.rows],
            pool: Vec::new(),
            free: Vec::new(),
            host_cells: Vec::new(),
            places: vec![0; positions.len()],
        };
        // One counting pass: every host's cell, the per-cell counts (a
        // byte each, saturating: only "fits inline or not" is read), then
        // the ids in ascending order, each list inline or spilled by its
        // final length — the lists the cell-edit kernel would build.
        let host_cells: Vec<u32> = positions.map(|p| lattice.flat_cell(p)).collect();
        let mut counts = vec![0u8; grid.cells.len()];
        for &idx in &host_cells {
            counts[idx as usize] = counts[idx as usize].saturating_add(1);
        }
        let HostGrid {
            cells,
            pool,
            places,
            ..
        } = &mut grid;
        for (host, &idx) in host_cells.iter().enumerate() {
            let cell = &mut cells[idx as usize];
            if usize::from(counts[idx as usize]) <= INLINE_IDS {
                cell.ids[cell.len as usize] = host as u32;
            } else {
                if cell.len == 0 {
                    cell.ids[0] = pool.len() as u32;
                    pool.push(Vec::new());
                }
                let list = &mut pool[cell.ids[0] as usize];
                places[host] = list.len() as u32;
                list.push(host as u32);
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

    /// The side of the cells lists are kept under.
    #[cfg(test)]
    pub(crate) fn storage_cell(&self) -> f64 {
        self.storage.cell
    }

    /// Storage-cell assignment and the crossing check, with the grid's
    /// constants copied out once: a movement pass takes one for all its
    /// movers.
    pub(crate) fn probe(&self) -> CrossingProbe<'_> {
        let b = self.bounds;
        let reach = [b.min.x, b.min.y, b.max.x, b.max.y]
            .into_iter()
            .fold(self.storage.cell, |m, v| m.max(v.abs()));
        CrossingProbe {
            lattice: self.storage,
            margin: WALL_MARGIN * reach,
            host_cells: &self.host_cells,
        }
    }

    /// The id list of storage cell `idx`, in no particular order.
    fn ids(&self, idx: usize) -> &[u32] {
        let cell = &self.cells[idx];
        match cell.ids.get(..cell.len as usize) {
            Some(inline) => inline,
            None => &self.pool[cell.ids[0] as usize],
        }
    }

    /// Removes `host` from cell list `idx` (it must be there): the list's
    /// last id takes its place.
    fn remove_from_cell(&mut self, host: u32, idx: u32) {
        const LISTED: &str = "grid invariant: host listed in its recorded cell";
        let cell = &mut self.cells[idx as usize];
        let len = cell.len as usize;
        cell.len -= 1;
        if len <= INLINE_IDS {
            let ids = &mut cell.ids;
            let at = ids[..len].iter().position(|&id| id == host).expect(LISTED);
            ids[at] = ids[len - 1];
            return;
        }
        let pooled = cell.ids[0];
        let list = &mut self.pool[pooled as usize];
        let at = self.places[host as usize] as usize;
        assert!(list.get(at) == Some(&host), "{LISTED}");
        list.swap_remove(at);
        if let Some(&moved) = list.get(at) {
            self.places[moved as usize] = at as u32;
        }
        if list.len() == INLINE_IDS {
            // Back inline; the emptied vector waits for the next spill.
            cell.ids.copy_from_slice(list);
            list.clear();
            self.free.push(pooled);
        }
    }

    /// Appends `host` to cell list `idx` (it must not be there yet).
    fn insert_into_cell(&mut self, host: u32, idx: u32) {
        const ONCE: &str = "grid invariant: host tracked at most once";
        let cell = &mut self.cells[idx as usize];
        let len = cell.len as usize;
        cell.len += 1;
        if len < INLINE_IDS {
            assert!(!cell.ids[..len].contains(&host), "{ONCE}");
            cell.ids[len] = host;
            return;
        }
        let list = if len == INLINE_IDS {
            // A full inline list moves out whole on its first spill.
            assert!(!cell.ids.contains(&host), "{ONCE}");
            let pooled = self.free.pop().unwrap_or_else(|| {
                self.pool.push(Vec::new());
                (self.pool.len() - 1) as u32
            });
            let list = &mut self.pool[pooled as usize];
            list.extend_from_slice(&cell.ids);
            for (at, &id) in cell.ids.iter().enumerate() {
                self.places[id as usize] = at as u32;
            }
            cell.ids[0] = pooled;
            list
        } else {
            // A listed host's place holds it (the `places` invariant), so
            // one read decides.
            let list = &mut self.pool[cell.ids[0] as usize];
            let place = self.places[host as usize] as usize;
            assert!(list.get(place) != Some(&host), "{ONCE}");
            list
        };
        self.places[host as usize] = list.len() as u32;
        list.push(host);
    }

    /// Incremental maintenance: records that `host` now sits at `new_pos`.
    /// Returns `true` when the host crossed a storage-cell boundary (two
    /// cell-list edits), `false` when it stayed in its cell (no work).
    /// It is [`HostGrid::crossing`] followed by a one-move
    /// [`HostGrid::commit`].
    ///
    /// After any sequence of `apply_move` calls the grid answers every
    /// lookup — hits and order — like a fresh [`HostGrid::build`] over the
    /// current positions (property-tested below).
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
    /// recorded storage cell. Nothing changes until the move is committed.
    pub fn crossing(&self, host: u32, new_pos: Point) -> Option<CellMove> {
        self.probe().crossing(host, new_pos)
    }

    /// Applies staged crossings in order, each exactly as
    /// [`HostGrid::apply_move`] would. Staged for one pass over hosts
    /// ascending by id, as the movement pass stages them (each host at
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

    /// One committed crossing: two cell-list edits and the host's recorded
    /// cell.
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
    /// Hits are ordered by lookup cell, then host id (module docs), which
    /// is a pure function of the inputs — parallel callers see the same
    /// peer ordering the sequential path sees.
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
        // Cell assignment is monotone in each coordinate, so every host
        // within `radius` — clamped edge hosts included — lies in the box's
        // cells, once the box is wide enough that no host the rounded
        // distance test admits lies outside it.
        let reach = radius + WALL_MARGIN * (radius + p.x.abs().max(p.y.abs()));
        let lattice = &self.storage;
        let (x0, y0) = lattice.cell_of(Point::new(p.x - reach, p.y - reach));
        let (x1, y1) = lattice.cell_of(Point::new(p.x + reach, p.y + reach));
        // Each hit as one word, its lookup cell above its id, so sorting
        // the words applies the lookup-order rule; on the stack unless
        // there are more than `STACK_HITS`.
        let mut stack = [0u64; STACK_HITS];
        let mut overflow = Vec::new();
        let mut hits = 0;
        for row in (y0..=y1).map(|y| y * lattice.cols) {
            for idx in row + x0..=row + x1 {
                for &id in self.ids(idx) {
                    let at = position(id);
                    if id != exclude && p.dist_sq(at) <= r2 {
                        let key = u64::from(self.lookup.flat_cell(at)) << 32 | u64::from(id);
                        match stack.get_mut(hits) {
                            Some(word) => *word = key,
                            None if overflow.is_empty() => {
                                overflow.extend_from_slice(&stack);
                                overflow.push(key);
                            }
                            None => overflow.push(key),
                        }
                        hits += 1;
                    }
                }
            }
        }
        let keys = match stack.get_mut(..hits) {
            Some(keys) => keys,
            None => &mut overflow[..],
        };
        keys.sort_unstable();
        out.extend(keys.iter().map(|&key| key as u32));
    }
}

/// The grid's storage side for a scenario (module docs): `r` on a road
/// world; on a free world `max(r, κ·∛Q)`, `Q = M_Percentage · v · A /
/// λ_Query`, and never wider than the area.
pub(crate) fn storage_side(params: &SimParams, mode: MovementMode) -> f64 {
    let r = params.tx_range_m.max(1.0);
    match mode {
        MovementMode::RoadNetwork => r,
        MovementMode::FreeMovement => {
            let side = params.area_side_m();
            let per_sec = params.lambda_query_per_min / 60.0;
            let q = params.m_percentage * params.velocity_mps() * side * side / per_sec;
            r.max(STORAGE_KAPPA * q.cbrt()).min(side.max(r))
        }
    }
}

/// κ of the free-world side rule (module docs).
const STORAGE_KAPPA: f64 = 0.8;

/// A read-only view of the storage lattice and the recorded cells, held by
/// value: what the movement pass needs for its crossing checks.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CrossingProbe<'a> {
    lattice: Lattice,
    /// How far inside a cell wall [`CrossingProbe::leg_crossing`] stops.
    margin: f64,
    host_cells: &'a [u32],
}

impl CrossingProbe<'_> {
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
        self.staged(host, self.lattice.flat_cell(new_pos))
    }

    /// [`CrossingProbe::crossing`] for a host on a straight leg, with the
    /// earliest time it can leave the storage cell `at` lies in (the leg's
    /// position at time `t` is [`Travel::at`]). Each axis's wall ahead is
    /// pulled `margin` (a billionth of the grid's largest coordinate) back
    /// inside the cell, far more than the rounding of a position or of the
    /// truncation in `cell_of`, so the host cannot change cells before
    /// the time returned. An edge cell has no wall on its outer side (the
    /// clamp extends it), and an axis with no travel has none either: with
    /// neither wall, the time is infinite. It may lie in the past when `at`
    /// is within the margin of a wall.
    #[inline]
    pub(crate) fn leg_crossing(
        &self,
        host: u32,
        at: Point,
        travel: &Travel,
    ) -> (Option<CellMove>, f64) {
        let lattice = &self.lattice;
        let (cx, cy) = lattice.cell_of(at);
        let crossed = self.staged(host, lattice.flat((cx, cy)));
        let Travel {
            from,
            to,
            depart,
            secs,
        } = *travel;
        let axis = |c: usize, cells: usize, origin: f64, from: f64, to: f64| {
            let wall = if to > from && c + 1 < cells {
                origin + (c + 1) as f64 * lattice.cell - self.margin
            } else if to < from && c > 0 {
                origin + c as f64 * lattice.cell + self.margin
            } else {
                return f64::INFINITY;
            };
            depart + (wall - from) / (to - from) * secs
        };
        let tx = axis(cx, lattice.cols, lattice.min.x, from.x, to.x);
        (
            crossed,
            tx.min(axis(cy, lattice.rows, lattice.min.y, from.y, to.y)),
        )
    }
}

/// How far inside a wall [`CrossingProbe::leg_crossing`] stops, and how far
/// past `radius` a lookup's box reaches, relative to the largest coordinate
/// in play.
const WALL_MARGIN: f64 = 1e-9;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamSet;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// The storage sides the tests run, as multiples of the lookup cell.
    const SIDES: [f64; 4] = [1.0, 2.5, 5.0, 8.0];

    /// The lookup cell of `p` by floor then clamp, written out apart from
    /// the grid's own `cell_of`.
    fn floor_cell(bounds: Rect, cell: f64, p: Point) -> (usize, usize) {
        let axis = |d: f64, extent: f64| {
            let last = (extent / cell).floor();
            (d * (1.0 / cell)).floor().clamp(0.0, last) as usize
        };
        (
            axis(p.x - bounds.min.x, bounds.width()),
            axis(p.y - bounds.min.y, bounds.height()),
        )
    }

    /// The lookup-order rule by brute force: every host within `radius`
    /// but `exclude`, ordered by (lookup-cell row, column, host id).
    fn linear_scan(
        (bounds, cell): (Rect, f64),
        positions: &[Point],
        (q, radius, exclude): (Point, f64, u32),
    ) -> Vec<u32> {
        let mut hits: Vec<u32> = (0..positions.len() as u32)
            .filter(|&i| i != exclude && q.dist_sq(positions[i as usize]) <= radius * radius)
            .collect();
        hits.sort_by_key(|&i| {
            let (cx, cy) = floor_cell(bounds, cell, positions[i as usize]);
            (cy, cx, i)
        });
        hits
    }

    /// `grid` (lookup cell `cell`) answers every `(point, radius,
    /// exclude)` probe — hits and order — like a fresh `Tx_Range` build
    /// and, when `scan` is set, like the linear scan.
    fn assert_lookups(
        grid: &HostGrid,
        (bounds, cell): (Rect, f64),
        positions: &[Point],
        probes: impl IntoIterator<Item = (Point, f64, u32)>,
        scan: bool,
    ) {
        let fresh = HostGrid::build(bounds, cell, positions);
        for probe in probes {
            let (q, radius, exclude) = probe;
            let hits = grid.within(positions, q, radius, exclude);
            let side = grid.storage_cell();
            let built = fresh.within(positions, q, radius, exclude);
            assert_eq!(hits, built, "{probe:?} storage {side}");
            if scan {
                let scanned = linear_scan((bounds, cell), positions, probe);
                assert_eq!(hits, scanned, "{probe:?} storage {side}");
            }
        }
    }

    /// Every host is listed exactly once, in the storage cell it is
    /// recorded in, which is the cell of its position; a host in a spilled
    /// list has its index there as its place; and every pool vector is
    /// either one spilled cell's or free and empty.
    fn assert_listing(grid: &HostGrid, positions: &[Point]) {
        let mut seen = vec![0u32; positions.len()];
        let mut used = BTreeSet::new();
        for idx in 0..grid.cells.len() {
            let cell = grid.cells[idx];
            if cell.len as usize > INLINE_IDS {
                assert!(
                    used.insert(cell.ids[0]),
                    "pool vector {} shared",
                    cell.ids[0]
                );
            }
            assert_eq!(grid.ids(idx).len(), cell.len as usize);
            for (at, &id) in grid.ids(idx).iter().enumerate() {
                seen[id as usize] += 1;
                assert_eq!(grid.host_cells[id as usize] as usize, idx, "host {id}");
                if cell.len as usize > INLINE_IDS {
                    assert_eq!(grid.places[id as usize] as usize, at, "host {id}");
                }
            }
        }
        assert!(seen.iter().all(|&n| n == 1), "{seen:?}");
        for (host, &p) in positions.iter().enumerate() {
            assert_eq!(
                grid.host_cells[host],
                grid.storage.flat_cell(p),
                "host {host}"
            );
        }
        for &pooled in &grid.free {
            assert!(!used.contains(&pooled) && grid.pool[pooled as usize].is_empty());
        }
        assert_eq!(used.len() + grid.free.len(), grid.pool.len());
    }

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
        for side in SIDES {
            let grid = HostGrid::build_with_storage(
                bounds,
                200.0,
                200.0 * side,
                positions.iter().copied(),
            );
            let probes = (0..50).map(|i| (positions[i * 7 % positions.len()], 200.0, i as u32));
            assert_lookups(&grid, (bounds, 200.0), &positions, probes, true);
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

    /// Hosts outside the bounds are clamped into edge cells, lookup and
    /// storage alike, and found from inside and from outside the bounds.
    #[test]
    fn positions_outside_bounds_are_clamped_not_lost() {
        let bounds = Rect::new(Point::ORIGIN, Point::new(100.0, 100.0));
        let positions = vec![
            Point::new(-5.0, 50.0),
            Point::new(104.0, 103.0),
            Point::new(-3.0, -2.0),
            Point::new(96.0, 101.0),
        ];
        for side in SIDES {
            let grid =
                HostGrid::build_with_storage(bounds, 25.0, 25.0 * side, positions.iter().copied());
            let hits = grid.within(&positions, Point::new(0.0, 50.0), 10.0, u32::MAX);
            assert_eq!(hits, vec![0], "storage {side}");
            let corners = [(0.0, 50.0), (100.0, 100.0), (-1.0, 0.0)].map(|(x, y)| Point::new(x, y));
            let probes = corners
                .into_iter()
                .flat_map(|q| [10.0, 25.0, 60.0].map(|radius| (q, radius, u32::MAX)));
            assert_lookups(&grid, (bounds, 25.0), &positions, probes, true);
            assert_listing(&grid, &positions);
        }
    }

    /// Hosts exactly on a cell boundary and exactly at distance `radius`
    /// must be found (the `<= r²` comparison and the box's reach both sit
    /// on the boundary here), at every storage side.
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
        for side in SIDES {
            let grid =
                HostGrid::build_with_storage(bounds, cell, cell * side, positions.iter().copied());
            let mut hits = grid.within(&positions, q, radius, 0);
            assert_lookups(&grid, (bounds, cell), &positions, [(q, radius, 0)], true);
            hits.sort_unstable();
            assert_eq!(hits, vec![1, 2, 3, 4, 5, 6], "storage {side}");
        }
    }

    /// Radius an exact multiple of the cell size, with the querier on the
    /// far edge of its cell — the worst case for an off-by-one in the
    /// box's reach — at every storage side.
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
                for side in SIDES {
                    let grid = HostGrid::build_with_storage(
                        bounds,
                        cell,
                        cell * side,
                        positions.iter().copied(),
                    );
                    let mut hits = grid.within(&positions, q, radius, 0);
                    hits.sort_unstable();
                    assert_eq!(hits, vec![1, 2], "qx={qx} radius={radius} side {side}");
                    assert_lookups(&grid, (bounds, cell), &positions, [(q, radius, 0)], true);
                }
            }
        }
    }

    /// A randomized sweep of radius/cell ratios (including radius far
    /// larger than a cell, with more hits than a lookup keys on the stack)
    /// against the linear scan, hits and order.
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
            for side in SIDES {
                let grid = HostGrid::build_with_storage(
                    bounds,
                    cell,
                    cell * side,
                    positions.iter().copied(),
                );
                let wide = grid.within(&positions, positions[39], 299.0, u32::MAX);
                assert!(wide.len() > STACK_HITS);
                let radii = [3.0, 25.0, 90.0, 299.0].into_iter().enumerate();
                let probes = radii.map(|(i, radius)| (positions[i * 13], radius, u32::MAX));
                assert_lookups(&grid, (bounds, cell), &positions, probes, true);
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
        // Storage cells twice as wide: the same move is no crossing.
        let mut coarse =
            HostGrid::build_with_storage(bounds, 10.0, 20.0, positions.iter().copied());
        assert!(!coarse.apply_move(0, Point::new(19.0, 9.0)));
        assert!(coarse.apply_move(0, Point::new(21.0, 9.0)));
    }

    /// The full query surface of a maintained grid (lookup cell `cell`)
    /// against a fresh `Tx_Range` build and, with `scan`, the linear scan —
    /// same hits in the same order — plus its listing.
    fn assert_equivalent(
        maintained: &HostGrid,
        positions: &[Point],
        bounds: Rect,
        cell: f64,
        scan: bool,
    ) {
        assert_eq!(maintained.len(), positions.len());
        assert_listing(maintained, positions);
        // Probe from every host plus a few fixed off-host points, at radii
        // below, at, and above the cell size (unsorted: order must match).
        let mut points: Vec<Point> = positions.to_vec();
        points.push(Point::new(0.0, 0.0));
        points.push(Point::new(bounds.max.x / 2.0, bounds.max.y / 2.0));
        let probes = points.into_iter().enumerate().flat_map(|(i, q)| {
            let exclude = if i < positions.len() {
                i as u32
            } else {
                u32::MAX
            };
            [cell * 0.4, cell, cell * 2.5].map(|radius| (q, radius, exclude))
        });
        assert_lookups(maintained, (bounds, cell), positions, probes, scan);
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

    /// The cells whose lists are spilled.
    fn spilled(grid: &HostGrid) -> BTreeSet<usize> {
        (0..grid.cells.len())
            .filter(|&idx| grid.cells[idx].len as usize > INLINE_IDS)
            .collect()
    }

    /// Drives one boundary-biased move sequence on a grid with lookup cell
    /// 10 and storage cell `10 · side`, checking it against a fresh build
    /// after every move (and against the linear scan after the last), and
    /// returns how many moves carried a list into or out of the pool.
    /// `place` maps a unit draw to a coordinate; coordinates are then
    /// snapped toward lookup-cell boundaries (storage walls among them when
    /// `side` is whole) so moves routinely land exactly on or just across
    /// one.
    fn check_moves(
        start: &[(f64, f64)],
        moves: &[(f64, f64)],
        extent: f64,
        side: f64,
        place: impl Fn(f64) -> f64,
    ) -> usize {
        let bounds = Rect::new(Point::ORIGIN, Point::new(extent, extent));
        let cell = 10.0;
        let at = |x: f64, y: f64| Point::new(snap(place(x), cell), snap(place(y), cell));
        let mut positions: Vec<Point> = start.iter().map(|&(x, y)| at(x, y)).collect();
        let mut grid =
            HostGrid::build_with_storage(bounds, cell, cell * side, positions.iter().copied());
        let mut spill_changes = 0;
        for (k, &(u, v)) in moves.iter().enumerate() {
            let i = (u * positions.len() as f64) as usize % positions.len();
            let before = spilled(&grid);
            // The host index takes `u`'s leading digits, the target its
            // trailing ones, so which host moves says nothing of where to.
            positions[i] = at(v, (u * 4096.0).fract());
            grid.apply_move(i as u32, positions[i]);
            spill_changes += usize::from(before != spilled(&grid));
            assert_equivalent(&grid, &positions, bounds, cell, k + 1 == moves.len());
        }
        spill_changes
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Any sequence of moves leaves the maintained grid's lookups
        /// identical — hits *and* order — to a fresh `Tx_Range` build and
        /// the linear scan, at every storage side. Sparse: up to 19 hosts
        /// on 11×11 lookup cells, so lists stay mostly inline.
        #[test]
        fn incremental_maintenance_equals_fresh_build(
            moves in prop::collection::vec((0.0..1.0f64, 0.0..1.0f64), 1..60),
            start in prop::collection::vec((0.0..1.0f64, 0.0..1.0f64), 1..20),
            side in 0..SIDES.len(),
        ) {
            check_moves(&start, &moves, 100.0, SIDES[side], |v| v * 100.0);
        }

        /// Dense: 40–44 hosts on 2×2 storage cells, placed with a skew
        /// that keeps about a sixth of them in each off-diagonal cell —
        /// lists that hover at the inline capacity, so moves carry cells
        /// across it, in both directions, about ten times in the median
        /// case (the stream is deterministic; never fewer than once).
        /// Coordinates snapped up past the bounds exercise the clamp as
        /// well.
        #[test]
        fn incremental_maintenance_equals_fresh_build_across_the_spill(
            moves in prop::collection::vec((0.0..1.0f64, 0.0..1.0f64), 100..140),
            start in prop::collection::vec((0.0..1.0f64, 0.0..1.0f64), 40..45),
            side in 0..SIDES.len(),
        ) {
            let extent = 19.0 * SIDES[side];
            let place = |v: f64| v.powf(2.6) * extent;
            let spill_changes = check_moves(&start, &moves, extent, SIDES[side], place);
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
        assert_eq!(spilled(a), spilled(b));
    }

    /// The same, with each list compared as a set: what a maintained grid
    /// and a fresh build over the same positions share.
    fn assert_same_sets(a: &HostGrid, b: &HostGrid) {
        assert_eq!(a.cells.len(), b.cells.len());
        let set = |g: &HostGrid, idx| g.ids(idx).iter().copied().collect::<BTreeSet<u32>>();
        for idx in 0..a.cells.len() {
            assert_eq!(set(a, idx), set(b, idx), "cell {idx}");
        }
        assert_eq!(a.host_cells, b.host_cells);
        assert_eq!(spilled(a), spilled(b));
    }

    /// The index `build` made before its counting pass: every host through
    /// the cell-edit kernel, in id order.
    fn kernel_built(bounds: Rect, cell: f64, storage: f64, positions: &[Point]) -> HostGrid {
        let mut grid = HostGrid::build_with_storage(bounds, cell, storage, std::iter::empty());
        grid.places = vec![0; positions.len()];
        for (i, p) in positions.iter().enumerate() {
            let idx = grid.storage.flat_cell(*p);
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
            side in 0..SIDES.len(),
        ) {
            let bounds = Rect::new(Point::ORIGIN, Point::new(19.0, 19.0));
            let positions: Vec<Point> = points
                .iter()
                .map(|&(u, v)| Point::new(u.powf(1.7) * 24.0 - 2.0, v * 21.0 - 1.0))
                .collect();
            let storage = 10.0 * SIDES[side];
            let built = HostGrid::build_with_storage(bounds, 10.0, storage, positions.iter().copied());
            assert_same_index(&built, &kernel_built(bounds, 10.0, storage, &positions));
            assert_listing(&built, &positions);
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
        extent: f64,
        side: f64,
        start: impl Fn(usize) -> Point,
        steps: &[(f64, f64, f64)],
        jump: impl Fn(usize, f64, f64) -> Point,
    ) -> (usize, usize) {
        let bounds = Rect::new(Point::ORIGIN, Point::new(extent, extent));
        let cell = 10.0;
        let snapped = |p: Point| Point::new(snap(p.x, cell), snap(p.y, cell));
        let mut positions: Vec<Point> = (0..steps.len()).map(|i| snapped(start(i))).collect();
        let mut staged_grid =
            HostGrid::build_with_storage(bounds, cell, cell * side, positions.iter().copied());
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
        let (mut spill_ins, mut spill_outs) = (0, 0);
        for (i, &p) in positions.iter().enumerate() {
            let before = spilled(&sequential);
            sequential.apply_move(i as u32, p);
            let after = spilled(&sequential);
            spill_ins += after.difference(&before).count();
            spill_outs += before.difference(&after).count();
        }
        assert_same_index(&staged_grid, &sequential);
        let fresh =
            HostGrid::build_with_storage(bounds, cell, cell * side, positions.iter().copied());
        assert_same_sets(&staged_grid, &fresh);
        assert_equivalent(&staged_grid, &positions, bounds, cell, true);
        (spill_ins, spill_outs)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Staged commit ≡ sequential `apply_move` ≡ fresh build, dense:
        /// 30 or 31 hosts on 2×2 storage cells, host `i` starting at a
        /// random spot in cell `i % 4`, so cell 0 starts spilled at 8 ids
        /// and cell 3 inline at 7. Host 0 always jumps into cell 3, and
        /// that one edit takes cell 0 out of the spill and cell 3 into it;
        /// the other moves of the batch keep the counts hovering at the
        /// inline capacity. Hops past either edge exercise the clamp.
        #[test]
        fn staged_commit_equals_sequential_moves_and_fresh_build(
            corners in prop::collection::vec((0.0..1.0f64, 0.0..1.0f64), 31),
            steps in prop::collection::vec((0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64), 30..32),
            side in 0..SIDES.len(),
        ) {
            let mut steps = steps;
            steps[0].0 = 1.0;
            let wide = 10.0 * SIDES[side];
            let in_cell = |c: usize, (u, v): (f64, f64)| {
                let at = |k: usize, t: f64| wide * k as f64 + t * (wide - 1.0);
                Point::new(at(c % 2, u), at(c / 2, v))
            };
            let extent = 2.0 * wide - 1.0;
            let (ins, outs) = check_batch(
                extent,
                SIDES[side],
                |i| in_cell(i % 4, corners[i]),
                &steps,
                |i, u, v| match i {
                    0 => in_cell(3, (u, v)),
                    _ => Point::new(u * extent, v * extent),
                },
            );
            prop_assert!(ins >= 1 && outs >= 1, "spill in {ins}, out {outs}");
        }

        /// The same on 11×11 lookup cells with up to 19 hosts, at every
        /// storage side.
        #[test]
        fn staged_commit_equals_sequential_moves_sparse(
            start in prop::collection::vec((0.0..1.0f64, 0.0..1.0f64), 19),
            steps in prop::collection::vec((0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64), 1..20),
            side in 0..SIDES.len(),
        ) {
            let anywhere = |u: f64, v: f64| Point::new(u * 100.0, v * 100.0);
            check_batch(
                100.0,
                SIDES[side],
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
    /// `INLINE_IDS + 1` and comes back inline at `INLINE_IDS`; the pool
    /// reuses an emptied vector rather than growing.
    #[test]
    fn lists_spill_and_return_by_length_alone() {
        let bounds = Rect::new(Point::ORIGIN, Point::new(100.0, 100.0));
        let n = INLINE_IDS as u32 + 3;
        let home = Point::new(5.0, 5.0);
        let away = Point::new(55.0, 55.0);
        let mut positions = vec![home; n as usize];
        let mut grid = HostGrid::build(bounds, 10.0, &positions);
        assert_eq!(spilled(&grid), BTreeSet::from([0]), "one long list");
        assert_eq!(grid.ids(0), (0..n).collect::<Vec<_>>());
        // Leave from the middle, one by one, then come back in reverse.
        for (gone, host) in (2..n).enumerate() {
            positions[host as usize] = away;
            assert!(grid.apply_move(host, away));
            let left = n as usize - gone - 1;
            assert_eq!(
                spilled(&grid).contains(&0),
                left > INLINE_IDS,
                "{left} left"
            );
            assert_eq!(grid.ids(0).len(), left);
            assert_listing(&grid, &positions);
        }
        let set = |g: &HostGrid, idx| g.ids(idx).iter().copied().collect::<BTreeSet<u32>>();
        assert_eq!(set(&grid, 0), BTreeSet::from([0, 1]));
        let far = grid.storage.flat_cell(away) as usize;
        assert_eq!(
            spilled(&grid),
            BTreeSet::from([far]),
            "the far cell now holds the long list"
        );
        assert_eq!(
            grid.pool.len(),
            1,
            "the far cell took the vector cell 0 left"
        );
        for host in (2..n).rev() {
            positions[host as usize] = home;
            assert!(grid.apply_move(host, home));
        }
        assert_eq!(set(&grid, 0), (0..n).collect());
        assert_eq!(spilled(&grid), BTreeSet::from([0]));
        assert_eq!(grid.pool.len(), 1);
        assert_equivalent(&grid, &positions, bounds, 10.0, true);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The cell-edit kernel against a model set: random inserts and
        /// removes of hosts 0..20 on one cell, in four phases of 40 edits
        /// that lean to inserting, removing, inserting, removing — so the
        /// list grows past `INLINE_IDS` and shrinks back, twice. After every
        /// edit the list holds the model's ids, its length is the model's,
        /// and it is spilled exactly when it is longer than `INLINE_IDS`.
        #[test]
        fn cell_edits_match_a_set_model(
            draws in prop::collection::vec((0.0..1.0f64, 0.0..1.0f64), 160),
        ) {
            let bounds = Rect::new(Point::ORIGIN, Point::new(10.0, 10.0));
            let mut grid = HostGrid::build(bounds, 100.0, &[]);
            grid.places = vec![0; 20];
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
                let mut listed = grid.ids(0).to_vec();
                listed.sort_unstable();
                prop_assert_eq!(listed, model.iter().copied().collect::<Vec<u32>>());
                prop_assert_eq!(grid.cells[0].len as usize, model.len());
                prop_assert_eq!(spilled(&grid).contains(&0), model.len() > INLINE_IDS);
                prop_assert!(grid.pool.len() <= 1, "the pool reuses its one vector");
                ups += usize::from(before == INLINE_IDS && model.len() > INLINE_IDS);
                downs += usize::from(before > INLINE_IDS && model.len() == INLINE_IDS);
            }
            prop_assert!(ups >= 1 && downs >= 1, "up {ups}, down {downs}");
        }
    }

    /// A cell listing hosts 2, 4 and 6 — inline, or with `extra` more
    /// hosts from 10 on, spilled.
    fn listed(extra: u32) -> HostGrid {
        let bounds = Rect::new(Point::ORIGIN, Point::new(10.0, 10.0));
        let mut grid = HostGrid::build(bounds, 100.0, &[]);
        grid.places = vec![0; 10 + extra as usize];
        for host in [4, 2, 6].into_iter().chain(10..10 + extra) {
            grid.insert_into_cell(host, 0);
        }
        assert_eq!(spilled(&grid).contains(&0), 3 + extra as usize > INLINE_IDS);
        grid
    }

    /// The inline kernel keeps the release-build check: removing a host
    /// its cell does not list panics.
    #[test]
    #[should_panic(expected = "grid invariant: host listed in its recorded cell")]
    fn removing_an_unlisted_host_panics() {
        listed(0).remove_from_cell(5, 0);
    }

    /// The inline kernel keeps the release-build check: inserting a host
    /// its cell already lists panics.
    #[test]
    #[should_panic(expected = "grid invariant: host tracked at most once")]
    fn inserting_a_listed_host_panics() {
        listed(0).insert_into_cell(4, 0);
    }

    /// The spilled kernel keeps the release-build check on removal.
    #[test]
    #[should_panic(expected = "grid invariant: host listed in its recorded cell")]
    fn removing_an_unlisted_host_from_a_spilled_list_panics() {
        listed(6).remove_from_cell(5, 0);
    }

    /// The kernel checks a full inline list as it spills, and a spilled
    /// list, on insertion.
    #[test]
    fn inserting_a_listed_host_into_a_long_list_panics() {
        for extra in [4, 6] {
            let mut grid = listed(extra);
            let caught = std::panic::catch_unwind(move || grid.insert_into_cell(2, 0));
            let message = caught.expect_err("inserted twice");
            let text = message.downcast_ref::<String>().map(String::as_str);
            assert_eq!(
                text,
                Some("grid invariant: host tracked at most once"),
                "{extra}"
            );
        }
    }

    /// Truncation then clamp is floor then clamp, for every input the
    /// clamp's floor of 0 can meet: the old expression is kept here.
    #[test]
    fn cell_of_truncation_equals_floor_then_clamp() {
        let floor_then_clamp = |g: &Lattice, p: Point| {
            let cx = ((p.x - g.min.x) * g.inv_cell).floor() as isize;
            let cy = ((p.y - g.min.y) * g.inv_cell).floor() as isize;
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
            let grid = HostGrid::build_with_storage(bounds, cell, cell * 2.5, std::iter::empty());
            for lattice in [&grid.lookup, &grid.storage] {
                for &x in &coords {
                    for &y in &coords {
                        let p = Point::new(x, y);
                        assert_eq!(
                            lattice.cell_of(p),
                            floor_then_clamp(lattice, p),
                            "{p:?} {cell}"
                        );
                    }
                }
            }
        }
    }

    /// The side rule: `r` on road worlds whatever the traffic; on free
    /// worlds κ·∛Q, the same for a scenario and its scaled-down copies,
    /// never below `r` and never wider than the area.
    #[test]
    fn storage_side_follows_the_scenario() {
        let la = SimParams::thirty_by_thirty(ParamSet::LosAngeles);
        let (road, free) = (MovementMode::RoadNetwork, MovementMode::FreeMovement);
        assert_eq!(storage_side(&la, road), la.tx_range_m);
        let side = storage_side(&la, free);
        let q = la.m_percentage * la.velocity_mps() * la.area_side_m().powi(2)
            / (la.lambda_query_per_min / 60.0);
        assert!(
            (side - STORAGE_KAPPA * q.cbrt()).abs() < 1e-9 * side,
            "{side}"
        );
        let small = la.scaled_down(100.0);
        assert!((storage_side(&small, free) - side).abs() < 1e-6 * side);
        assert_eq!(storage_side(&small, road), la.tx_range_m);
        // Busy traffic: no finer than the range. No traffic: the area.
        let mut busy = la;
        busy.lambda_query_per_min = 1e12;
        assert_eq!(storage_side(&busy, free), busy.tx_range_m);
        let mut idle = small;
        idle.lambda_query_per_min = 0.0;
        assert_eq!(storage_side(&idle, free), idle.area_side_m());
    }
}
