//! Struct-of-arrays host substrate.
//!
//! At the million-host scale the per-host `struct { mobility, cache, rng }`
//! layout is what caps throughput: the movement pass and grid maintenance
//! touch every mover every interval, and a `Vec<Host>` drags the cold
//! state of every parked host through the data cache along the way.
//! [`HostStore`] keeps dense columns plus a *sparse side table* of NN
//! caches keyed by host id:
//!
//! * the **host column** ([`HostColumn`], by host id; a world has one
//!   movement mode, so one kind): in a free world one 40-byte [`FreeHost`]
//!   per host — the anchor its [`WaypointLeg`] starts from and the leg,
//!   whose position at any time is closed-form — plus one
//!   [`WaypointConfig`] and the [`Calendar`] of the movers' next events (a
//!   4-byte link per host). A parked host's leg never departs, so it stays
//!   at its spawn point, draws nothing and is never filed. In a road world
//!   every host's position as of the last pass, plus a `RoadMover` per
//!   mover beside its host id, a list only the sweep reads.
//!   [`HostStore::position`] is one read of this column;
//! * the **stream column** (by host id): one `u32` word per host standing
//!   for its deterministic RNG stream (see below);
//! * the **cache side table** holds an entry only for hosts that have
//!   completed a query — a missing entry is exactly an empty cache, so a
//!   99%-idle million-host world allocates nothing for the idle majority.
//!
//! Column order is host-id order everywhere, and the side table is only
//! ever accessed by key (never iterated), so the layout cannot perturb any
//! deterministic ordering the batch engine relies on.
//!
//! ## Streams
//!
//! Host `i` draws from `SmallRng::seed_from_u64(host_key(seed, i))`. In
//! the vendored `rand` every draw — `next_u32`, `next_u64`, `gen_range`
//! on floats and integers (rejection-free), `gen_bool` — takes exactly one
//! xoshiro step, so a stream is fully determined by its key and the number
//! of draws it has made. The stream word exploits that:
//!
//! * below [`SPILL_AT`] it *is* that draw count. A [`HostRng`] handle
//!   rebuilds the generator on its first draw (the cold `replay`: seed,
//!   then fast-forward), serves the rest of the call from it, and counts;
//! * at or past it the word is `SPILLED | slot`, and the generator lives
//!   in slot `slot` of a slab, where it is read in place. A handle whose
//!   stream crossed `SPILL_AT` moves its generator there on drop.
//!
//! Where a stream lives thus depends only on its draw count, like the
//! grid's inline/spill rule, and every draw is bit-identical to a plain
//! per-host `SmallRng`. Replay is bounded: a stream is replayed only while
//! counted, so it costs fewer than `SPILL_AT` steps per call and nothing
//! after it spills. A parked host draws only while the world is built, so
//! its stream stays one word.

use std::collections::HashMap;

use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

use senn_cache::{CacheEntry, LruCache, MostRecentCache};
use senn_geom::Point;
use senn_mobility::{RoadMover, WaypointConfig, WaypointLeg};

use crate::cache_step::{CachePolicy, HostCache};
use crate::calendar::Calendar;

/// One free-world host (40 bytes): the anchor its leg starts from and the
/// leg. A parked host's leg leaves for its own anchor at +∞ (module docs).
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct FreeHost {
    pub(crate) anchor: Point,
    pub(crate) leg: WaypointLeg,
}

/// Every host's mobility state; a world has one movement mode, so one
/// kind of column (module docs).
pub(crate) enum HostColumn {
    /// Random waypoint: the shared config, each host's record by host id,
    /// when each mover next needs the movement pass, and the time of the
    /// last pass (what [`HostStore::position`] evaluates legs at).
    Free {
        config: WaypointConfig,
        hosts: Vec<FreeHost>,
        calendar: Calendar,
        now: f64,
    },
    /// Road network: every host's position by host id, then each road
    /// mover (which owns its route and position) and, at the same index,
    /// its host id, ascending.
    Road(Vec<Point>, Vec<RoadMover>, Vec<u32>),
}

/// Draw count at which a stream moves from its word into the slab.
pub(crate) const SPILL_AT: u32 = 32;

/// Tag bit of a stream word that indexes the slab.
const SPILLED: u32 = 1 << 31;

/// The key of host `id`'s stream under the master seed.
pub(crate) fn host_key(seed: u64, id: u32) -> u64 {
    seed ^ (0xc0ffee + u64::from(id) * 7919)
}

/// Every host's RNG stream: one word per host, plus the slab of streams
/// that spilled (see module docs).
pub(crate) struct Streams {
    seed: u64,
    words: Vec<u32>,
    live: Vec<SmallRng>,
}

impl Streams {
    /// Host `host`'s stream, for one call's worth of draws.
    pub(crate) fn host(&mut self, host: u32) -> HostRng<'_> {
        HostRng {
            key: host_key(self.seed, host),
            word: &mut self.words[host as usize],
            live: &mut self.live,
            replayed: None,
        }
    }
}

/// A handle on one host's stream; draws exactly what a `SmallRng` seeded
/// with the host's key would, in order, across any sequence of handles.
pub(crate) struct HostRng<'a> {
    key: u64,
    word: &'a mut u32,
    live: &'a mut Vec<SmallRng>,
    /// A counted stream's generator, rebuilt on this handle's first draw.
    replayed: Option<SmallRng>,
}

impl HostRng<'_> {
    #[inline]
    fn generator(&mut self) -> &mut SmallRng {
        let word = *self.word;
        if word & SPILLED != 0 {
            return &mut self.live[(word & !SPILLED) as usize];
        }
        *self.word = word + 1;
        let key = self.key;
        self.replayed.get_or_insert_with(|| replay(key, word))
    }
}

impl RngCore for HostRng<'_> {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        self.generator().next_u32()
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.generator().next_u64()
    }
}

impl Drop for HostRng<'_> {
    fn drop(&mut self) {
        if let Some(rng) = self.replayed.take() {
            if *self.word >= SPILL_AT {
                *self.word = SPILLED | self.live.len() as u32;
                self.live.push(rng);
            }
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Steps `replay` has fast-forwarded on this thread.
    static REPLAYED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The generator of stream `key` after `steps` draws.
#[cold]
#[inline(never)]
fn replay(key: u64, steps: u32) -> SmallRng {
    let mut rng = SmallRng::seed_from_u64(key);
    for _ in 0..steps {
        rng.next_u64();
    }
    #[cfg(test)]
    REPLAYED.with(|n| n.set(n.get() + u64::from(steps)));
    rng
}

/// What a new host is, as [`HostStore::push_host`]'s caller decides it
/// from the host's first draws.
pub(crate) enum Spawn {
    /// Never moves.
    Parked(Point),
    /// A random-waypoint mover starting here.
    Free(Point),
    /// A road mover, at its own position.
    Road(RoadMover),
}

/// Struct-of-arrays storage for the host population (see module docs).
pub(crate) struct HostStore {
    /// Every host's mobility state (module docs).
    mobility: HostColumn,
    /// Per-host deterministic RNG streams.
    streams: Streams,
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
    /// free-movement config and the width of its calendar's slots in
    /// seconds; `None` makes a road-movement store. Host
    /// streams are keyed by `seed` ([`host_key`]). Every column is reserved
    /// for `host_hint` entries (DESIGN §5h).
    pub(crate) fn new(
        policy: CachePolicy,
        cache_capacity: usize,
        host_hint: usize,
        waypoint: Option<(WaypointConfig, f64)>,
        seed: u64,
    ) -> Self {
        HostStore {
            mobility: match waypoint {
                Some((config, slot_secs)) => HostColumn::Free {
                    config,
                    hosts: Vec::with_capacity(host_hint),
                    calendar: Calendar::new(slot_secs, host_hint),
                    now: 0.0,
                },
                None => HostColumn::Road(
                    Vec::with_capacity(host_hint),
                    Vec::with_capacity(host_hint),
                    Vec::with_capacity(host_hint),
                ),
            },
            streams: Streams {
                seed,
                words: Vec::with_capacity(host_hint),
                live: Vec::new(),
            },
            caches: HashMap::new(),
            policy,
            cache_capacity,
        }
    }

    /// Appends one host (id = current `len`) and returns its id: `spawn`
    /// draws what it needs from the new host's stream and says what the
    /// host is. A free mover then draws its first destination from the
    /// same stream, and is due at the next movement pass.
    pub(crate) fn push_host(&mut self, spawn: impl FnOnce(&mut HostRng<'_>) -> Spawn) -> u32 {
        let id = self.len() as u32;
        self.streams.words.push(0);
        let mut rng = self.streams.host(id);
        match (spawn(&mut rng), &mut self.mobility) {
            (
                spawn,
                HostColumn::Free {
                    config,
                    hosts,
                    calendar,
                    ..
                },
            ) => {
                let (anchor, leg) = match spawn {
                    Spawn::Free(start) => (start, WaypointLeg::new(config, start, &mut rng)),
                    Spawn::Parked(at) => (
                        at,
                        WaypointLeg {
                            destination: at,
                            depart: f64::INFINITY,
                        },
                    ),
                    Spawn::Road(_) => panic!("a road mover pushed into a free-movement store"),
                };
                calendar.push(leg.depart.is_finite());
                hosts.push(FreeHost { anchor, leg });
            }
            (Spawn::Parked(at), HostColumn::Road(positions, ..)) => positions.push(at),
            (Spawn::Road(mover), HostColumn::Road(positions, movers, hosts)) => {
                positions.push(mover.position());
                movers.push(mover);
                hosts.push(id);
            }
            (_, HostColumn::Road(..)) => panic!("a free mover pushed into a road store"),
        }
        id
    }

    /// Number of hosts.
    pub(crate) fn len(&self) -> usize {
        self.streams.words.len()
    }

    /// One host's position at the time of the last movement pass.
    pub(crate) fn position(&self, host: u32) -> Point {
        match &self.mobility {
            HostColumn::Free {
                config, hosts, now, ..
            } => {
                let FreeHost { anchor, leg } = hosts[host as usize];
                leg.position(anchor, config, *now)
            }
            HostColumn::Road(positions, ..) => positions[host as usize],
        }
    }

    /// Every host's position at the time of the last movement pass, by
    /// host id.
    pub(crate) fn positions_now(&self) -> Vec<Point> {
        (0..self.len() as u32).map(|h| self.position(h)).collect()
    }

    /// One host's RNG stream.
    pub(crate) fn rng(&mut self, host: u32) -> HostRng<'_> {
        self.streams.host(host)
    }

    /// The columns the movement pass works on: mobility (stepped and
    /// written) and streams (drawn). Split borrows so the caller can hold
    /// both at once.
    pub(crate) fn movement_columns(&mut self) -> (&mut HostColumn, &mut Streams) {
        (&mut self.mobility, &mut self.streams)
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
impl HostStore {
    /// Bytes of the per-host columns (those indexed by host id).
    fn per_host_column_bytes(&self) -> usize {
        let words = std::mem::size_of_val(&self.streams.words[..]);
        words
            + match &self.mobility {
                HostColumn::Free {
                    hosts, calendar, ..
                } => std::mem::size_of_val(&hosts[..]) + calendar.link_bytes(),
                HostColumn::Road(positions, ..) => std::mem::size_of_val(&positions[..]),
            }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::Rng;
    use senn_cache::CachedNn;
    use senn_geom::Rect;
    use senn_mobility::RandomWaypoint;

    const SEED: u64 = 20060402;

    #[test]
    fn columns_stay_parallel_and_movers_are_sparse() {
        let mut store = HostStore::new(CachePolicy::MostRecent, 4, 3, None, SEED);
        store.push_host(|_| Spawn::Parked(Point::new(1.0, 2.0)));
        store.push_host(|_| Spawn::Parked(Point::new(3.0, 4.0)));
        assert_eq!(store.len(), 2);
        assert_eq!(store.position(1), Point::new(3.0, 4.0));
        let (mobility, streams) = store.movement_columns();
        assert_eq!(
            streams.words,
            [0, 0],
            "one stream word per host, none drawn"
        );
        assert!(streams.live.is_empty());
        let HostColumn::Road(positions, movers, hosts) = mobility else {
            panic!("no waypoint config makes a road-movement store");
        };
        assert_eq!(positions.len(), 2);
        assert!(
            movers.is_empty() && hosts.is_empty(),
            "parked hosts never enter the sweep"
        );
    }

    /// One free-world pass at `now` with no grid: every due mover carried
    /// to `now` and refiled under its arrival.
    fn pass(store: &mut HostStore, now: f64) -> usize {
        let (
            HostColumn::Free {
                config,
                hosts,
                calendar,
                now: last,
            },
            streams,
        ) = store.movement_columns()
        else {
            panic!("a waypoint config makes a free-movement store");
        };
        *last = now;
        calendar.visit_due(now, |chunk, times| {
            for (&host, next) in chunk.iter().zip(times) {
                let FreeHost { anchor, leg } = &mut hosts[host as usize];
                *next = leg
                    .advance(anchor, config, now, &mut streams.host(host))
                    .arrival();
            }
        })
    }

    #[test]
    fn cache_side_table_is_lazy_and_behaves_like_an_empty_cache() {
        let mut store = HostStore::new(CachePolicy::MostRecent, 2, 1, None, 2);
        store.push_host(|_| Spawn::Parked(Point::ORIGIN));
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

    /// The per-host columns cost, whatever draws a spawn made (fewer than
    /// `SPILL_AT`): in a road world a point and a word per host, parked
    /// or not; in a free world a record, a word and a calendar link.
    #[test]
    fn per_host_bytes_follow_the_movement_mode() {
        let area = Rect::new(Point::ORIGIN, Point::new(100.0, 100.0));
        let free = Some((WaypointConfig::new(area, 5.0), 1.0));
        let word = std::mem::size_of::<u32>();
        let costs = [
            (None, std::mem::size_of::<Point>() + word),
            (free, std::mem::size_of::<FreeHost>() + 2 * word),
        ];
        assert_eq!(costs.map(|(_, bytes)| bytes), [20, 48]);
        for (waypoint, per_host) in costs {
            let mut store = HostStore::new(CachePolicy::MostRecent, 4, 100, waypoint, SEED);
            for id in 0..100u32 {
                store.push_host(|rng| {
                    for _ in 0..id % (SPILL_AT - 8) {
                        rng.next_u64();
                    }
                    match waypoint {
                        Some(_) if id % 2 == 1 => Spawn::Free(Point::ORIGIN),
                        _ => Spawn::Parked(Point::ORIGIN),
                    }
                });
            }
            assert_eq!(store.per_host_column_bytes(), 100 * per_host);
            assert!(store.streams.live.is_empty(), "nothing spilled");
        }
    }

    /// However a host's draws are split into calls, replay fast-forwards
    /// fewer than `SPILL_AT` steps per call and none once the stream has
    /// spilled: one draw per call replays 0 + 1 + … + (SPILL_AT - 1) steps
    /// in total, whether the host draws a hundred times or ten thousand.
    #[test]
    fn replay_is_bounded_by_the_spill() {
        let mut streams = Streams {
            seed: SEED,
            words: vec![0],
            live: Vec::new(),
        };
        let mut plain = SmallRng::seed_from_u64(host_key(SEED, 0));
        let before = REPLAYED.with(|n| n.get());
        for draw in 0..10_000u32 {
            let replayed = REPLAYED.with(|n| n.get());
            assert_eq!(streams.host(0).next_u64(), plain.next_u64(), "draw {draw}");
            let step = REPLAYED.with(|n| n.get()) - replayed;
            assert!(step < u64::from(SPILL_AT), "draw {draw} replayed {step}");
        }
        let total = REPLAYED.with(|n| n.get()) - before;
        let bound = u64::from(SPILL_AT) * u64::from(SPILL_AT - 1) / 2;
        assert_eq!(total, bound);
        assert_eq!(streams.words[0], SPILLED, "spilled into slot 0");
        assert_eq!(streams.live.len(), 1);

        // Ten thousand draws in one call replay nothing: the stream is
        // rebuilt from its key at count 0 and spills when the call ends.
        streams.words.push(0);
        let mut plain = SmallRng::seed_from_u64(host_key(SEED, 1));
        let before = REPLAYED.with(|n| n.get());
        let mut rng = streams.host(1);
        for draw in 0..10_000u32 {
            assert_eq!(rng.next_u64(), plain.next_u64(), "draw {draw}");
        }
        drop(rng);
        assert_eq!(REPLAYED.with(|n| n.get()) - before, 0);
        assert_eq!(streams.words[1], SPILLED | 1, "spilled into slot 1");
    }

    /// One draw of kind `kind % 5`, as bits.
    fn draw(rng: &mut impl Rng, kind: usize) -> u64 {
        match kind % 5 {
            0 => rng.next_u64(),
            1 => u64::from(rng.next_u32()),
            2 => rng.gen_range(-3.5..1e6f64).to_bits(),
            3 => rng.gen_range(0..1_000_003usize) as u64,
            _ => u64::from(rng.gen_bool(0.3)),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random call schedules over three hosts — each call 0–40 draws of
        /// mixed kinds, 0–300 draws in all, across the spill boundary —
        /// draw exactly the plain per-host `SmallRng` streams, and each
        /// stream lives where its draw count says.
        #[test]
        fn streams_equal_plain_generators_across_the_spill(
            calls in prop::collection::vec(
                (0..3u32, prop::collection::vec(0..5usize, 0..41)),
                0..16,
            ),
        ) {
            let mut streams = Streams {
                seed: SEED,
                words: vec![0; 3],
                live: Vec::new(),
            };
            let mut plain: [SmallRng; 3] =
                std::array::from_fn(|h| SmallRng::seed_from_u64(host_key(SEED, h as u32)));
            let mut counts = [0u32; 3];
            let mut budget = 300usize;
            for (host, kinds) in &calls {
                let kinds = &kinds[..kinds.len().min(budget)];
                budget -= kinds.len();
                let mut rng = streams.host(*host);
                for &kind in kinds {
                    let got = draw(&mut rng, kind);
                    prop_assert_eq!(got, draw(&mut plain[*host as usize], kind));
                }
                drop(rng);
                counts[*host as usize] += kinds.len() as u32;
            }
            for (host, &count) in counts.iter().enumerate() {
                let word = streams.words[host];
                prop_assert_eq!(word & SPILLED != 0, count >= SPILL_AT, "host {}", host);
                if count < SPILL_AT {
                    prop_assert_eq!(word, count);
                }
            }
        }

        /// In a free world of random parked and moving hosts, passes at
        /// random times keep each host's record its own: `position` is
        /// `positions_now`, a mover stands where a `RandomWaypoint` fed the
        /// same stream stands and has drawn as often, and a parked host
        /// stays at its spawn point and never draws past its spawn.
        #[test]
        fn free_hosts_are_one_record_by_host_id(
            moving in prop::collection::vec(any::<bool>(), 1..48),
            dts in prop::collection::vec(0.5..600.0f64, 1..12),
        ) {
            let area = Rect::new(Point::ORIGIN, Point::new(500.0, 500.0));
            let mut config = WaypointConfig::new(area, 5.0);
            config.max_pause_secs = 90.0;
            let mut store =
                HostStore::new(CachePolicy::MostRecent, 4, 0, Some((config, 7.0)), SEED);
            let mut spawns = Vec::new();
            let mut reference = Vec::new();
            for (id, &moves) in (0..).zip(&moving) {
                let mut plain = SmallRng::seed_from_u64(host_key(SEED, id));
                let spawn = Point::new(plain.gen_range(0.0..500.0), plain.gen_range(0.0..500.0));
                store.push_host(|rng| {
                    let start = Point::new(rng.gen_range(0.0..500.0), rng.gen_range(0.0..500.0));
                    if moves {
                        Spawn::Free(start)
                    } else {
                        Spawn::Parked(start)
                    }
                });
                let mover = moves.then(|| RandomWaypoint::new(spawn, config, &mut plain));
                spawns.push(spawn);
                reference.push((mover, plain));
            }
            let movers = moving.iter().filter(|&&moves| moves).count();
            let mut now = 0.0;
            for (i, &dt) in dts.iter().enumerate() {
                now += dt;
                let visits = pass(&mut store, now);
                prop_assert!(i > 0 || visits == movers, "first pass visits every mover");
                let positions = store.positions_now();
                for (h, (mover, plain)) in reference.iter_mut().enumerate() {
                    let at = store.position(h as u32);
                    prop_assert_eq!(at, positions[h], "host {}", h);
                    match mover {
                        Some(mover) => {
                            mover.step(dt, plain);
                            prop_assert_eq!(at, mover.position(), "mover {} at {}", h, now);
                        }
                        None => prop_assert_eq!(at, spawns[h], "parked {} at {}", h, now),
                    }
                }
            }
            for (h, (mover, plain)) in reference.iter_mut().enumerate() {
                if mover.is_none() {
                    prop_assert_eq!(store.streams.words[h], 2, "parked {} drew", h);
                }
                prop_assert_eq!(store.rng(h as u32).next_u64(), plain.next_u64(), "host {}", h);
            }
        }
    }
}
