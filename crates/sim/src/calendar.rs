//! The free movers' event calendar: when each mover next needs the
//! movement pass.
//!
//! A free mover's position is a closed-form function of time
//! ([`WaypointLeg::position`](senn_mobility::WaypointLeg::position)), so
//! the pass need not visit it until it can next change the grid or draw:
//! the earlier of its next storage-cell wall crossing (scheduled a margin
//! early, [`CrossingProbe::leg_crossing`](crate::grid::CrossingProbe::leg_crossing))
//! and its arrival at the waypoint. The calendar files every mover under
//! the slot of that time; slots are `width` seconds wide and sit on a ring
//! of [`RING`] slots, and a time further ahead than the ring reaches is
//! filed under its farthest slot, so that mover is only visited early.
//!
//! Each slot is [`WAYS`] singly linked lists threaded through one `u32`
//! per host (`next`), indexed by host id like the store's records, so the
//! calendar holds every mover exactly once, in 4 bytes, whatever the
//! spread of event times; a parked host has its link but is never filed.
//! [`Calendar::visit_due`] unlinks every slot up to the current time into
//! a bitmap over host ids and visits them in ascending order — the order
//! the grid commit takes its crossings in — filing each under the time
//! its visit returns.
//!
//! A slot holds times up to its end, and the slot of the current time is
//! taken whole, so a pass visits some movers before their time; that is
//! safe (a visit re-evaluates and refiles the mover) and costs one visit.

/// Slots on the ring.
const RING: usize = 1024;

/// Lists per slot: a mover's list is its host id modulo this, and a pass
/// walks a slot's lists in lockstep, so that many loads of `next` are in
/// flight at once instead of one.
const WAYS: usize = 8;

/// Movers per visit call.
pub(crate) const CHUNK: usize = 64;

/// The end of a list.
const NONE: u32 = u32::MAX;

/// Every free mover, filed under the slot of its next event (module docs).
pub(crate) struct Calendar {
    /// Slots per second. A time's slot is its product with this, floored:
    /// monotone in the time, so a time is never filed after the slot of
    /// a later time.
    per_sec: f64,
    /// The slot of the last pass's time: no mover is filed earlier.
    cursor: u64,
    /// The first mover of each slot's [`WAYS`] lists, by slot index
    /// modulo [`RING`].
    heads: Box<[[u32; WAYS]]>,
    /// The mover after each mover in its slot's list, by host id.
    next: Vec<u32>,
    /// The movers a pass visits, one bit per host.
    due: Vec<u64>,
}

impl Calendar {
    /// An empty calendar with `width`-second slots and room for `hosts`
    /// hosts.
    pub(crate) fn new(width: f64, hosts: usize) -> Self {
        Calendar {
            per_sec: 1.0 / width,
            cursor: 0,
            heads: vec![[NONE; WAYS]; RING].into_boxed_slice(),
            next: Vec::with_capacity(hosts),
            due: Vec::new(),
        }
    }

    /// Adds the next host: a mover is due at the next pass, a parked host
    /// is never filed.
    pub(crate) fn push(&mut self, moves: bool) {
        let host = self.next.len() as u32;
        self.next.push(NONE);
        self.due.resize(self.next.len().div_ceil(64), 0);
        if moves {
            self.file(host, self.cursor);
        }
    }

    /// Files `mover` under the slot of time `at`, clamped into the ring
    /// (a NaN time files it under the current slot).
    #[inline]
    fn schedule(&mut self, mover: u32, at: f64) {
        let slot = ((at * self.per_sec) as u64).clamp(self.cursor, self.cursor + RING as u64 - 1);
        self.file(mover, slot);
    }

    #[inline]
    fn file(&mut self, mover: u32, slot: u64) {
        let head = &mut self.heads[(slot % RING as u64) as usize][mover as usize % WAYS];
        self.next[mover as usize] = *head;
        *head = mover;
    }

    /// The pass at time `now`: every mover filed up to the slot of `now`
    /// is visited once, in ascending order and in chunks of at most
    /// [`CHUNK`], and filed under the time its visit writes beside it.
    /// Returns how many were visited.
    pub(crate) fn visit_due(
        &mut self,
        now: f64,
        mut visit: impl FnMut(&[u32], &mut [f64]),
    ) -> usize {
        let taken = self.take_due(now);
        let mut chunk = [0u32; CHUNK];
        let mut filled = 0;
        for word in 0..self.due.len() {
            let mut left = std::mem::take(&mut self.due[word]);
            while left != 0 {
                chunk[filled] = (word * 64) as u32 + left.trailing_zeros();
                left &= left - 1;
                filled += 1;
                if filled == CHUNK {
                    self.visit_chunk(&chunk, &mut visit);
                    filled = 0;
                }
            }
        }
        self.visit_chunk(&chunk[..filled], &mut visit);
        taken
    }

    /// Visits `chunk` and files each of its movers under its time.
    fn visit_chunk(&mut self, chunk: &[u32], visit: &mut impl FnMut(&[u32], &mut [f64])) {
        let mut times = [0.0f64; CHUNK];
        let times = &mut times[..chunk.len()];
        visit(chunk, times);
        for (&mover, &at) in chunk.iter().zip(times.iter()) {
            self.schedule(mover, at);
        }
    }

    /// Unlinks every slot up to and including the slot of `now` into the
    /// due bitmap; the slot of `now` becomes the current one. Returns how
    /// many movers came due.
    fn take_due(&mut self, now: f64) -> usize {
        let slot = ((now * self.per_sec) as u64).max(self.cursor);
        let span = (slot - self.cursor + 1).min(RING as u64);
        let mut taken = 0;
        for s in self.cursor..self.cursor + span {
            let heads = &mut self.heads[(s % RING as u64) as usize];
            let mut movers = std::mem::replace(heads, [NONE; WAYS]);
            let mut live = WAYS;
            while live > 0 {
                live = 0;
                for mover in &mut movers {
                    if *mover != NONE {
                        self.due[*mover as usize / 64] |= 1 << (*mover % 64);
                        *mover = self.next[*mover as usize];
                        live += 1;
                    }
                }
                taken += live;
            }
        }
        self.cursor = slot;
        taken
    }
}

#[cfg(test)]
impl Calendar {
    /// Every filed mover with its slot, slot lists in ring order from the
    /// current slot.
    pub(crate) fn filed(&self) -> Vec<(u32, u64)> {
        let mut filed = Vec::new();
        for s in self.cursor..self.cursor + RING as u64 {
            for &head in &self.heads[(s % RING as u64) as usize] {
                let mut mover = head;
                while mover != NONE {
                    filed.push((mover, s));
                    mover = self.next[mover as usize];
                }
            }
        }
        filed
    }

    /// Bytes of the per-host links.
    pub(crate) fn link_bytes(&self) -> usize {
        std::mem::size_of_val(&self.next[..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One pass at `now` that files each visited mover under `refile`'s
    /// time for it; returns the visited movers in visiting order.
    fn pass(cal: &mut Calendar, now: f64, refile: impl Fn(u32) -> f64) -> Vec<u32> {
        let mut seen = Vec::new();
        let count = cal.visit_due(now, |movers, times| {
            assert!(movers.len() <= CHUNK);
            for (&j, at) in movers.iter().zip(times) {
                seen.push(j);
                *at = refile(j);
            }
        });
        assert_eq!(count, seen.len());
        seen
    }

    /// New movers are due at the first pass; refiled ones come due in the
    /// pass whose time reaches their slot, each exactly once, and the
    /// slot of the current time is taken whole.
    #[test]
    fn movers_come_due_by_slot_and_once() {
        let mut cal = Calendar::new(1.0, 70);
        for _ in 0..70 {
            cal.push(true);
        }
        // Times 0.7 and 0.9 are in the current slot, 1.5 in the next,
        // 2000 beyond the ring, NaN nowhere; the rest go far ahead.
        let first = [0.7, 0.9, 1.5, 2000.0, f64::NAN];
        let visited = pass(&mut cal, 0.5, |j| *first.get(j as usize).unwrap_or(&500.0));
        assert_eq!(visited, (0..70).collect::<Vec<_>>(), "ascending, each once");
        let mut slots: Vec<(u32, u64)> = cal.filed();
        slots.sort_unstable();
        assert_eq!(slots.len(), 70);
        let near = [
            (0, 0),
            (1, 0),
            (2, 1),
            (3, RING as u64 - 1),
            (4, 0),
            (5, 500),
        ];
        assert_eq!(slots[..6], near);
        let later = |_| 5.0;
        assert_eq!(
            pass(&mut cal, 0.8, later),
            [0, 1, 4],
            "slot 0 is taken whole"
        );
        assert!(
            pass(&mut cal, 0.95, later).is_empty(),
            "nothing refiled yet"
        );
        assert_eq!(pass(&mut cal, 3.2, |_| 4.0), [2], "slots 0 to 3 taken");
        assert_eq!(pass(&mut cal, 4.5, later), [2]);
        // A jump past the whole ring takes every slot once.
        assert_eq!(pass(&mut cal, 1e9, |_| f64::INFINITY).len(), 70);
        assert_eq!(cal.filed().len(), 70, "refiled, at the ring's far end");
    }
}
