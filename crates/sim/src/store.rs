//! Struct-of-arrays host substrate.
//!
//! At the million-host scale the per-host `struct { mobility, cache, rng }`
//! layout is what caps throughput: the movement pass and grid maintenance
//! touch every mover every interval, and a `Vec<Host>` drags the cold
//! state of every parked host through the data cache along the way.
//! [`HostStore`] keeps dense columns plus a *sparse side table* of NN
//! caches keyed by host id:
//!
//! * the **position column** (by host id) is the single authoritative
//!   snapshot the peer-discovery grid indexes and every query reads — and
//!   it *is* a free mover's position: the step kernel advances it in
//!   place, nothing is copied back;
//! * the **RNG column** (by host id): each host's deterministic stream;
//! * the **movers list** fixes the hosts that can move at world-build
//!   time, ascending by id, making the movement pass O(movers);
//! * the **mover column** ([`MoverColumn`]) is dense by *mover ordinal*:
//!   entry `j` belongs to host `movers[j]`. Free movement keeps one
//!   [`WaypointConfig`] per world and a 24-byte [`WaypointLeg`] per mover;
//!   road movement a `RoadMover` per mover. Parked hosts carry none;
//! * the **cache side table** holds an entry only for hosts that have
//!   completed a query — a missing entry is exactly an empty cache, so a
//!   99%-idle million-host world allocates nothing for the idle majority.
//!
//! Column order is host-id order everywhere, and the side table is only
//! ever accessed by key (never iterated), so the layout cannot perturb any
//! deterministic ordering the batch engine relies on.

use std::collections::HashMap;

use rand::rngs::SmallRng;

use senn_cache::{CacheEntry, LruCache, MostRecentCache};
use senn_geom::Point;
use senn_mobility::{RoadMover, WaypointConfig, WaypointLeg};

use crate::cache_step::{CachePolicy, HostCache};

/// Mobility state of the movers, in `movers` order; a world has one
/// movement mode, so one kind of column.
pub(crate) enum MoverColumn {
    /// Random waypoint: the shared config, and each mover's leg.
    Free {
        config: WaypointConfig,
        legs: Vec<WaypointLeg>,
    },
    /// Road-network movers (each owns its route and position).
    Road(Vec<RoadMover>),
}

/// Struct-of-arrays storage for the host population (see module docs).
pub(crate) struct HostStore {
    /// Current position of every host (authoritative; the grid indexes
    /// into this column).
    positions: Vec<Point>,
    /// Per-host deterministic RNG stream.
    rngs: Vec<SmallRng>,
    /// Ids of the hosts that move, ascending — the only hosts the movement
    /// pass visits.
    movers: Vec<u32>,
    /// Mobility state of `movers[j]` at index `j`.
    mobility: MoverColumn,
    /// Sparse NN-cache side table: present only for hosts that stored a
    /// query result. Keyed access only — never iterated — so map order
    /// can't leak into the simulation.
    caches: HashMap<u32, HostCache>,
    policy: CachePolicy,
    cache_capacity: usize,
}

impl HostStore {
    /// An empty store that will build host caches with the given policy
    /// and per-host NN capacity (`C_Size`). `waypoint` is the world's
    /// free-movement config; `None` makes a road-movement store. Every
    /// column is reserved for `host_hint` entries (DESIGN §5h).
    pub(crate) fn new(
        policy: CachePolicy,
        cache_capacity: usize,
        host_hint: usize,
        waypoint: Option<WaypointConfig>,
    ) -> Self {
        HostStore {
            positions: Vec::with_capacity(host_hint),
            rngs: Vec::with_capacity(host_hint),
            movers: Vec::with_capacity(host_hint),
            mobility: match waypoint {
                Some(config) => MoverColumn::Free {
                    config,
                    legs: Vec::with_capacity(host_hint),
                },
                None => MoverColumn::Road(Vec::with_capacity(host_hint)),
            },
            caches: HashMap::new(),
            policy,
            cache_capacity,
        }
    }

    /// Appends one parked host (id = current `len`) and returns its id.
    pub(crate) fn push_parked(&mut self, position: Point, rng: SmallRng) -> u32 {
        let id = self.positions.len() as u32;
        self.positions.push(position);
        self.rngs.push(rng);
        id
    }

    /// Appends one free mover at `start`, its first destination drawn
    /// from `rng`.
    pub(crate) fn push_free_mover(&mut self, start: Point, mut rng: SmallRng) {
        let MoverColumn::Free { config, legs } = &mut self.mobility else {
            panic!("free mover pushed into a road-movement store");
        };
        legs.push(WaypointLeg::new(config, start, &mut rng));
        let id = self.push_parked(start, rng);
        self.movers.push(id);
    }

    /// Appends one road mover, at the mover's own position.
    pub(crate) fn push_road_mover(&mut self, mover: RoadMover, rng: SmallRng) {
        let MoverColumn::Road(road) = &mut self.mobility else {
            panic!("road mover pushed into a free-movement store");
        };
        let position = mover.position();
        road.push(mover);
        let id = self.push_parked(position, rng);
        self.movers.push(id);
    }

    /// Number of hosts.
    pub(crate) fn len(&self) -> usize {
        self.positions.len()
    }

    /// The dense position column (indexed by host id).
    pub(crate) fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// One host's current position.
    pub(crate) fn position(&self, host: u32) -> Point {
        self.positions[host as usize]
    }

    /// One host's RNG stream.
    pub(crate) fn rng_mut(&mut self, host: u32) -> &mut SmallRng {
        &mut self.rngs[host as usize]
    }

    /// The columns the movement pass streams over: positions (written),
    /// mobility + rngs (stepped), movers (the visit list). Split borrows
    /// so the caller can hold all four at once.
    pub(crate) fn movement_columns(
        &mut self,
    ) -> (&mut [Point], &mut MoverColumn, &mut [SmallRng], &[u32]) {
        (
            &mut self.positions,
            &mut self.mobility,
            &mut self.rngs,
            &self.movers,
        )
    }

    /// One host's NN cache, if it ever stored anything (`None` is exactly
    /// an empty cache).
    pub(crate) fn cache(&self, host: u32) -> Option<&HostCache> {
        self.caches.get(&host)
    }

    /// Stores a query result into one host's cache, creating the cache
    /// per the configured policy on first store.
    pub(crate) fn cache_store(&mut self, host: u32, entry: CacheEntry) {
        let (policy, capacity) = (self.policy, self.cache_capacity);
        self.caches
            .entry(host)
            .or_insert_with(|| match policy {
                CachePolicy::MostRecent => HostCache::MostRecent(MostRecentCache::new(capacity)),
                CachePolicy::Lru => HostCache::Lru(LruCache::new(capacity)),
            })
            .store(entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use senn_cache::CachedNn;
    use senn_geom::Rect;

    #[test]
    fn columns_stay_parallel_and_movers_are_sparse() {
        let mut store = HostStore::new(CachePolicy::MostRecent, 4, 3, None);
        let rng = SmallRng::seed_from_u64(1);
        store.push_parked(Point::new(1.0, 2.0), rng.clone());
        store.push_parked(Point::new(3.0, 4.0), rng);
        assert_eq!(store.len(), 2);
        assert_eq!(store.position(1), Point::new(3.0, 4.0));
        assert_eq!(store.positions().len(), 2);
        let (_, mobility, _, movers) = store.movement_columns();
        assert!(movers.is_empty(), "parked hosts never enter the visit list");
        assert!(matches!(mobility, MoverColumn::Road(road) if road.is_empty()));
    }

    /// Leg `j` belongs to host `movers[j]`, whatever parked hosts sit in
    /// between, and parked hosts add nothing to the mover column.
    #[test]
    fn mover_column_is_dense_by_mover_ordinal() {
        let area = Rect::new(Point::ORIGIN, Point::new(100.0, 100.0));
        let config = WaypointConfig::new(area, 5.0);
        let mut store = HostStore::new(CachePolicy::MostRecent, 4, 0, Some(config));
        let mut expected = Vec::new();
        for id in 0..40u32 {
            let rng = SmallRng::seed_from_u64(u64::from(id));
            let start = Point::new(f64::from(id), 1.0);
            if id % 3 == 1 {
                let leg = WaypointLeg::new(&config, start, &mut rng.clone());
                expected.push((id, leg));
                store.push_free_mover(start, rng);
            } else {
                store.push_parked(start, rng);
            }
        }
        assert_eq!(store.len(), 40);
        let (positions, mobility, rngs, movers) = store.movement_columns();
        let MoverColumn::Free { legs, .. } = mobility else {
            panic!("a waypoint config makes a free-movement store");
        };
        assert_eq!((positions.len(), rngs.len()), (40, 40));
        assert_eq!(
            legs.len(),
            expected.len(),
            "one leg per mover, none per parked host"
        );
        for (j, (id, leg)) in expected.iter().enumerate() {
            assert_eq!(movers[j], *id);
            assert_eq!(legs[j], *leg, "leg {j} is host {id}'s");
            assert_eq!(positions[*id as usize], Point::new(f64::from(*id), 1.0));
        }
    }

    #[test]
    fn cache_side_table_is_lazy_and_behaves_like_an_empty_cache() {
        let mut store = HostStore::new(CachePolicy::MostRecent, 2, 1, None);
        store.push_parked(Point::ORIGIN, SmallRng::seed_from_u64(2));
        assert!(store.cache(0).is_none(), "no store yet: no cache entry");
        let entry = CacheEntry::new(
            Point::ORIGIN,
            vec![CachedNn {
                poi_id: 7,
                position: Point::new(1.0, 0.0),
            }],
        );
        store.cache_store(0, entry);
        let cached = store.cache(0).expect("created on first store");
        assert_eq!(cached.iter().count(), 1);
    }
}
