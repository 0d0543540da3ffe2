//! Deterministic scoped-thread fan-out for read-only batches.
//!
//! The build environment cannot fetch `rayon`, so this crate provides the
//! one primitive the simulator's parallel query-batch engine needs: map a
//! slice through a pure-ish function on every available core and return
//! the results **in input order**, so downstream reductions are
//! bit-identical to a sequential left fold no matter how the OS schedules
//! the workers. How many workers a batch gets is proportional to the work
//! it brings ([`par_map_grained`]): a spawn costs tens of microseconds, so
//! a batch too small to repay one runs as a plain loop on the caller.
//!
//! Work distribution is dynamic (an atomic cursor hands out fixed-size
//! chunks), which keeps cores busy under skewed per-item cost — but the
//! *output* is keyed by item index, so scheduling never leaks into
//! results. Each worker owns a scratch value created by `init`, giving
//! callers a place to keep reusable buffers (allocation-free hot paths)
//! without `thread_local!` gymnastics.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Number of items a worker claims per cursor fetch. Small enough to
/// balance skewed batches, big enough to amortize the atomic.
const CHUNK: usize = 8;

/// Returns the number of worker threads fan-outs will use: the smaller of
/// `available_parallelism` and the explicit `SENN_THREADS` override. The
/// environment is read once per process.
pub fn worker_count() -> usize {
    static COUNT: OnceLock<usize> = OnceLock::new();
    *COUNT.get_or_init(|| {
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        match std::env::var("SENN_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
        {
            Some(n) if n >= 1 => n.min(64),
            _ => hw,
        }
    })
}

/// Maps `items` through `f` on exactly `threads.min(items.len())` workers
/// (a grain of one item), giving every worker a scratch value from
/// `init`, and returns the results in input order. Callers that must
/// compare parallel and sequential executions in one process
/// (determinism tests, benchmarks) pass the count directly rather than
/// racing on an environment variable.
///
/// ```
/// let squares = senn_par::par_map_with_threads(&[1, 2, 3, 4], 2, || (), |(), i, x| (i, x * x));
/// assert_eq!(squares, vec![(0, 1), (1, 4), (2, 9), (3, 16)]);
/// ```
pub fn par_map_with_threads<T, R, S, I, F>(items: &[T], threads: usize, init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    par_map_grained(items, threads, 1, init, f)
}

/// The fan-out [`par_map_with_threads`] goes through: `threads` is the
/// caller's budget, `grain` the number of items that repay one more
/// worker, and `min(threads, ceil(items / grain))` workers run. The
/// calling thread is worker 0, so `n` workers cost `n - 1` spawns, and a
/// single worker is a plain loop on the caller — no scope, no spawn.
///
/// A spawn costs tens of microseconds; pick `grain` so that `grain` calls
/// of `f` cost at least that much.
///
/// ```
/// // Ten items at a grain of 64 never leave the calling thread.
/// let me = std::thread::current().id();
/// let ids = senn_par::par_map_grained(&[0u8; 10], 8, 64, || (), |(), _, _| {
///     std::thread::current().id()
/// });
/// assert!(ids.iter().all(|&id| id == me));
/// ```
pub fn par_map_grained<T, R, S, I, F>(
    items: &[T],
    threads: usize,
    grain: usize,
    init: I,
    f: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    let workers = threads.min(items.len().div_ceil(grain.max(1))).max(1);
    if workers == 1 {
        let mut scratch = init();
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| f(&mut scratch, i, item))
            .collect();
    }

    let cursor = AtomicUsize::new(0);
    // Every worker claims chunks off the shared cursor and keeps its
    // `(index, result)` pairs to itself; they are placed by index once
    // all workers are done, so scheduling never reaches the output.
    let work = || {
        let mut scratch = init();
        let mut local: Vec<(usize, R)> = Vec::new();
        loop {
            let start = cursor.fetch_add(CHUNK, Ordering::Relaxed);
            if start >= items.len() {
                break local;
            }
            let end = (start + CHUNK).min(items.len());
            for (i, item) in items[start..end].iter().enumerate() {
                local.push((start + i, f(&mut scratch, start + i, item)));
            }
        }
    };
    let locals: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let mut locals = vec![work()];
        for handle in spawned {
            match handle.join() {
                Ok(local) => locals.push(local),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        locals
    });

    let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
    for (i, r) in locals.into_iter().flatten() {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|r| r.expect("the cursor hands out every index exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;
    use std::thread::ThreadId;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = par_map_with_threads(
            &items,
            4,
            || (),
            |(), i, &x| {
                // Skew the per-item cost to exercise dynamic scheduling.
                if i % 97 == 0 {
                    std::thread::yield_now();
                }
                x * 2
            },
        );
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn matches_sequential_fold_exactly() {
        let items: Vec<f64> = (0..512).map(|i| (i as f64).sin()).collect();
        let seq: f64 = items.iter().map(|x| x * 1.000001).sum();
        let par: f64 = par_map_with_threads(&items, 4, || (), |(), _, x| x * 1.000001)
            .iter()
            .sum();
        // Bit-identical, not approximately equal: ordering is preserved.
        assert_eq!(seq.to_bits(), par.to_bits());
    }

    #[test]
    fn scratch_is_per_worker() {
        let items: Vec<usize> = (0..300).collect();
        let out = par_map_with_threads(
            &items,
            4,
            || Vec::<usize>::with_capacity(8),
            |scratch, i, &x| {
                scratch.clear();
                scratch.extend([x, x + 1]);
                scratch.iter().sum::<usize>() + i - i
            },
        );
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, 2 * i + 1);
        }
    }

    #[test]
    fn empty_and_single() {
        assert!(par_map_with_threads::<u8, u8, _, _, _>(&[], 4, || (), |(), _, &x| x).is_empty());
        assert_eq!(
            par_map_with_threads(&[9u8], 4, || (), |(), _, &x| x + 1),
            vec![10]
        );
    }

    /// The order and fold tests above, over every grain and length.
    #[test]
    fn grained_is_ordered_and_bit_identical_to_a_left_fold() {
        for grain in [1, 8, 64] {
            for len in [0, 1, 7, 8, 9, 1000] {
                let items: Vec<f64> = (0..len).map(|i| (i as f64).sin()).collect();
                let out = par_map_grained(&items, 4, grain, || (), |(), i, x| (i, x * 1.000001));
                assert!(out.iter().enumerate().all(|(i, &(j, _))| i == j));
                let seq: f64 = items.iter().map(|x| x * 1.000001).sum();
                let par: f64 = out.iter().map(|&(_, y)| y).sum();
                assert_eq!(seq.to_bits(), par.to_bits(), "grain {grain} len {len}");
            }
        }
    }

    /// Thread ids seen by `init` and by `f` over one fan-out.
    fn observe(len: usize, threads: usize, grain: usize) -> (Vec<ThreadId>, Vec<ThreadId>) {
        let inits = Mutex::new(Vec::new());
        let items = vec![0u8; len];
        let ran = par_map_grained(
            &items,
            threads,
            grain,
            || inits.lock().unwrap().push(std::thread::current().id()),
            |(), _, _| std::thread::current().id(),
        );
        (inits.into_inner().unwrap(), ran)
    }

    #[test]
    fn below_the_grain_or_at_one_thread_everything_runs_on_the_caller() {
        let me = std::thread::current().id();
        for (len, threads, grain) in [(63, 8, 64), (64, 8, 64), (1, 8, 1), (1000, 1, 1)] {
            let (inits, ran) = observe(len, threads, grain);
            assert_eq!(inits, vec![me], "one init, on the caller");
            assert!(ran.iter().all(|&id| id == me), "len {len} grain {grain}");
        }
    }

    #[test]
    fn n_workers_are_the_caller_plus_n_minus_one_threads() {
        let me = std::thread::current().id();
        for (len, threads, grain, workers) in [
            (65, 8, 64, 2),
            (1000, 3, 1, 3),
            (2, 8, 1, 2),
            (1000, 8, 200, 5),
        ] {
            let (inits, ran) = observe(len, threads, grain);
            let distinct: HashSet<ThreadId> = inits.iter().copied().collect();
            assert_eq!(inits.len(), workers, "one init per worker");
            assert_eq!(distinct.len(), workers, "every worker its own thread");
            assert!(distinct.contains(&me), "the caller is one of them");
            assert!(ran.iter().all(|id| distinct.contains(id)));
        }
    }

    #[test]
    fn a_panicking_closure_propagates() {
        let items: Vec<usize> = (0..256).collect();
        for threads in [1, 4] {
            let caught = std::panic::catch_unwind(|| {
                par_map_with_threads(
                    &items,
                    threads,
                    || (),
                    |(), i, _| assert!(i != 200, "boom at 200"),
                )
            });
            assert!(caught.is_err(), "threads {threads}");
        }
    }
}
