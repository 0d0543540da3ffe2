//! Synthetic TIGER/LINE-style road-network generation.
//!
//! The paper builds its road networks from TIGER/LINE street vectors
//! (Section 4.1.2); the census data is not redistributable here, so this
//! module generates networks with the same structural features the paper
//! extracts from it:
//!
//! * road segments in three classes (primary highway / secondary / local)
//!   with per-class speed limits;
//! * a dense local street grid with arterials every few blocks and
//!   highways every few arterials;
//! * **over-pass semantics**: where a highway crosses a surface street
//!   without a ramp, the two roads do *not* intersect — the generator
//!   splits the junction into two co-located nodes, one per road, exactly
//!   like the paper's over-pass detection keeps freeway crossings out of
//!   the intersection set.
//!
//! Generation is fully deterministic in the seed.

use senn_geom::Point;

use crate::graph::{NodeId, RoadClass, RoadNetwork};

/// Parameters of the synthetic network.
#[derive(Clone, Copy, Debug)]
pub struct GeneratorConfig {
    /// Extent of the area in working units (meters), x direction.
    pub width: f64,
    /// Extent of the area in working units (meters), y direction.
    pub height: f64,
    /// Number of vertical grid lines (junction columns). Must be >= 2.
    pub cols: usize,
    /// Number of horizontal grid lines (junction rows). Must be >= 2.
    pub rows: usize,
    /// Junction position jitter as a fraction of the grid spacing, in
    /// `[0, 0.45]`. Jitter makes block lengths (and hence travel times)
    /// irregular like real street grids.
    pub jitter: f64,
    /// Every `secondary_every`-th grid line is a secondary road.
    pub secondary_every: usize,
    /// Every `primary_every`-th grid line is a primary highway (takes
    /// precedence over secondary).
    pub primary_every: usize,
    /// A highway connects to crossing surface streets only at every
    /// `ramp_every`-th junction (plus the border junctions).
    pub ramp_every: usize,
    /// RNG seed.
    pub seed: u64,
}

impl GeneratorConfig {
    /// A city-like preset for a square area of `side` meters: ~160 m
    /// blocks, arterials every 4 blocks, a highway every 16, ramps every 4.
    pub fn city(side: f64, seed: u64) -> Self {
        let cells = ((side / 160.0).round() as usize).clamp(2, 400);
        GeneratorConfig {
            width: side,
            height: side,
            cols: cells + 1,
            rows: cells + 1,
            jitter: 0.25,
            secondary_every: 4,
            primary_every: 16,
            ramp_every: 4,
            seed,
        }
    }
}

/// Deterministic xorshift64* generator — the generator must not depend on
/// external RNG crates so that networks are reproducible byte-for-byte.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed.wrapping_mul(0x9e3779b97f4a7c15) | 1)
    }
    fn next_f64(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0.wrapping_mul(0x2545f4914f6cdd1d) >> 11) as f64 / (1u64 << 53) as f64
    }
    /// Uniform in [-1, 1].
    fn next_signed(&mut self) -> f64 {
        self.next_f64() * 2.0 - 1.0
    }
}

/// Generates a road network from the configuration.
///
/// ```
/// use senn_network::{generate_network, GeneratorConfig};
///
/// let net = generate_network(&GeneratorConfig::city(2000.0, 7));
/// assert!(net.is_connected());
/// assert!(net.node_count() > 100);
/// ```
pub fn generate_network(config: &GeneratorConfig) -> RoadNetwork {
    let (nodes, edges) = layout(config);
    RoadNetwork::from_edges(nodes, &edges)
}

/// The generated network as node positions and an edge list, in the
/// order [`generate_network`] adds them.
fn layout(config: &GeneratorConfig) -> (Vec<Point>, Vec<(NodeId, NodeId, RoadClass)>) {
    assert!(
        config.cols >= 2 && config.rows >= 2,
        "need at least a 2x2 grid"
    );
    assert!(
        (0.0..=0.45).contains(&config.jitter),
        "jitter must be in [0, 0.45]"
    );
    assert!(config.secondary_every >= 1 && config.primary_every >= 1 && config.ramp_every >= 1);

    let mut rng = XorShift::new(config.seed);
    let (cols, rows) = (config.cols, config.rows);
    let dx = config.width / (cols - 1) as f64;
    let dy = config.height / (rows - 1) as f64;

    // Classify grid lines. Line 0 and the last line stay local so the
    // border is always a surface street (keeps the border connected).
    let class_of_line = |idx: usize, count: usize| -> RoadClass {
        if idx == 0 || idx == count - 1 {
            RoadClass::Local
        } else if idx.is_multiple_of(config.primary_every) {
            RoadClass::Primary
        } else if idx.is_multiple_of(config.secondary_every) {
            RoadClass::Secondary
        } else {
            RoadClass::Local
        }
    };
    let col_class: Vec<RoadClass> = (0..cols).map(|i| class_of_line(i, cols)).collect();
    let row_class: Vec<RoadClass> = (0..rows).map(|j| class_of_line(j, rows)).collect();

    // Junction positions (jittered, identical for both nodes of an
    // over-pass pair). Junctions on primary lines are not jittered along
    // the highway's perpendicular axis — freeways are straight.
    let mut pos = vec![Point::ORIGIN; cols * rows];
    for j in 0..rows {
        for i in 0..cols {
            let jx = if row_class[j] == RoadClass::Primary || col_class[i] == RoadClass::Primary {
                0.0
            } else {
                rng.next_signed() * config.jitter
            };
            let jy = if row_class[j] == RoadClass::Primary || col_class[i] == RoadClass::Primary {
                0.0
            } else {
                rng.next_signed() * config.jitter
            };
            pos[j * cols + i] = Point::new(
                (i as f64 + jx * 0.999).clamp(0.0, (cols - 1) as f64) * dx,
                (j as f64 + jy * 0.999).clamp(0.0, (rows - 1) as f64) * dy,
            );
        }
    }

    // Decide, per junction, whether the horizontal and vertical chains
    // share a node. They are split (an over-pass) when exactly one of the
    // two crossing lines is a primary highway and the junction is not a
    // ramp. Two crossing highways form an interchange (shared).
    let is_ramp = |i: usize, j: usize| -> bool {
        let along_i = i.is_multiple_of(config.ramp_every) || i == cols - 1;
        let along_j = j.is_multiple_of(config.ramp_every) || j == rows - 1;
        along_i && along_j
    };
    let mut h_node = vec![NodeId::MAX; cols * rows]; // node used by the horizontal chain
    let mut v_node = vec![NodeId::MAX; cols * rows]; // node used by the vertical chain
    let mut nodes = Vec::with_capacity(cols * rows);
    let mut add_node = |p: Point| {
        nodes.push(p);
        (nodes.len() - 1) as NodeId
    };
    #[allow(clippy::needless_range_loop)] // i/j index four arrays in lockstep
    for j in 0..rows {
        for i in 0..cols {
            let idx = j * cols + i;
            let h_primary = row_class[j] == RoadClass::Primary;
            let v_primary = col_class[i] == RoadClass::Primary;
            let split = (h_primary ^ v_primary) && !is_ramp(i, j);
            let shared = add_node(pos[idx]);
            h_node[idx] = shared;
            v_node[idx] = if split { add_node(pos[idx]) } else { shared };
        }
    }

    // Horizontal edges along each row, vertical edges along each column.
    let mut edges = Vec::with_capacity(2 * cols * rows);
    for j in 0..rows {
        for i in 0..cols.saturating_sub(1) {
            let a = h_node[j * cols + i];
            let b = h_node[j * cols + i + 1];
            edges.push((a, b, row_class[j]));
        }
    }
    for i in 0..cols {
        for j in 0..rows.saturating_sub(1) {
            let a = v_node[j * cols + i];
            let b = v_node[(j + 1) * cols + i];
            edges.push((a, b, col_class[i]));
        }
    }
    (nodes, edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An order-sensitive FNV-1a over everything a search can see: the
    /// node count, every position's bits, and every neighbour list in
    /// order (target, length bits, class).
    fn structure_hash(net: &RoadNetwork) -> u64 {
        let mut words = vec![net.node_count() as u64];
        for n in 0..net.node_count() as NodeId {
            let p = net.position(n);
            words.extend([p.x.to_bits(), p.y.to_bits()]);
            words.push(net.neighbors(n).len() as u64);
            for e in net.neighbors(n) {
                words.extend([u64::from(e.to), e.length.to_bits(), e.class as u64]);
            }
        }
        words.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &w| {
            (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// `county_road`'s network (15 mi side, seed 20060402), pinned because
    /// every route and trajectory depends on it: any change to node
    /// numbering, positions or per-node edge order moves this.
    #[test]
    fn generated_structure_is_pinned() {
        let net = generate_network(&GeneratorConfig::city(24_140.0, 20060402 ^ 0x9e37));
        assert_eq!((net.node_count(), net.edge_count()), (25_138, 45_904));
        assert_eq!(structure_hash(&net), 0x5010_0fa6_3908_2895);
    }

    /// A bulk build and an `add_edge`-by-`add_edge` build of the same
    /// layout agree half-edge for half-edge.
    #[test]
    fn bulk_build_equals_incremental_build() {
        let (nodes, edges) = layout(&GeneratorConfig::city(2000.0, 77));
        let bulk = RoadNetwork::from_edges(nodes.clone(), &edges);
        let mut one_by_one = RoadNetwork::new();
        for &p in &nodes {
            one_by_one.add_node(p);
        }
        for &(a, b, class) in &edges {
            one_by_one.add_edge(a, b, class);
        }
        assert_eq!(bulk.edge_count(), one_by_one.edge_count());
        for n in 0..nodes.len() as NodeId {
            assert_eq!(bulk.neighbors(n), one_by_one.neighbors(n), "node {n}");
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let cfg = GeneratorConfig::city(3000.0, 7);
        let a = generate_network(&cfg);
        let b = generate_network(&cfg);
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.edge_count(), b.edge_count());
        for i in 0..a.node_count() {
            assert_eq!(a.position(i as NodeId), b.position(i as NodeId));
        }
        let c = generate_network(&GeneratorConfig { seed: 8, ..cfg });
        // A different seed moves at least some jittered junction.
        let moved = (0..a.node_count()).any(|i| a.position(i as NodeId) != c.position(i as NodeId));
        assert!(moved);
    }

    #[test]
    fn generated_network_is_connected() {
        for seed in [1u64, 42, 1000] {
            let net = generate_network(&GeneratorConfig::city(3200.0, seed));
            assert!(
                net.is_connected(),
                "seed {seed} produced a disconnected network"
            );
        }
    }

    #[test]
    fn contains_all_three_road_classes() {
        let net = generate_network(&GeneratorConfig::city(3200.0, 3));
        let mut seen = std::collections::HashSet::new();
        for n in 0..net.node_count() {
            for e in net.neighbors(n as NodeId) {
                seen.insert(e.class);
            }
        }
        assert!(seen.contains(&RoadClass::Primary));
        assert!(seen.contains(&RoadClass::Secondary));
        assert!(seen.contains(&RoadClass::Local));
    }

    #[test]
    fn overpasses_split_nodes() {
        // With highways present, some junctions must be split: node count
        // exceeds the plain grid size.
        let cfg = GeneratorConfig::city(3200.0, 11);
        let net = generate_network(&cfg);
        assert!(
            net.node_count() > cfg.cols * cfg.rows,
            "no over-pass nodes were created"
        );
    }

    #[test]
    fn nodes_stay_in_area() {
        let cfg = GeneratorConfig::city(2000.0, 21);
        let net = generate_network(&cfg);
        let bb = net.bounding_rect();
        assert!(bb.min.x >= -1e-9 && bb.min.y >= -1e-9);
        assert!(bb.max.x <= cfg.width + 1e-9 && bb.max.y <= cfg.height + 1e-9);
    }

    #[test]
    fn small_grid_edge_cases() {
        let cfg = GeneratorConfig {
            width: 100.0,
            height: 100.0,
            cols: 2,
            rows: 2,
            jitter: 0.0,
            secondary_every: 1,
            primary_every: 1,
            ramp_every: 1,
            seed: 0,
        };
        let net = generate_network(&cfg);
        assert_eq!(net.node_count(), 4);
        assert_eq!(net.edge_count(), 4);
        assert!(net.is_connected());
    }
}
