//! The sharded engine's epoch fan-out: run every shard forward on its own
//! scoped thread and collect the results in shard order.
//!
//! This is the one parallel path in the workspace that beats serial on a
//! 2-core host (DESIGN.md §7). Built on [`std::thread::scope`], so shards
//! borrow the epoch context without `'static` bounds and a worker panic
//! propagates to the caller. No pool outlives a call; at one spawn per
//! thread per sim-minute epoch, spawn cost is noise.

use std::num::NonZeroUsize;
use std::ops::Range;

/// Number of worker threads to use: the machine's available parallelism,
/// floored at 1 (if the OS won't say, fall back to serial).
pub(crate) fn max_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Splits `len` work items into at most `threads` contiguous chunk ranges
/// covering `0..len` in order. The first `len % threads` chunks get one
/// extra item, so sizes differ by at most one.
fn chunk_ranges(len: usize, threads: usize) -> Vec<Range<usize>> {
    let threads = threads.max(1).min(len.max(1));
    let base = len / threads;
    let extra = len % threads;
    let mut out = Vec::with_capacity(threads);
    let mut start = 0;
    for i in 0..threads {
        let size = base + usize::from(i < extra);
        out.push(start..start + size);
        start += size;
    }
    debug_assert_eq!(start, len);
    out
}

/// Runs `f` over every element of `items` **by mutable reference** on up
/// to `threads` scoped threads, returning per-element results in input
/// order. Each shard owns disjoint mutable state (its event queue, its
/// agents, its outboxes), so the elements advance independently, and the
/// in-order results keep the barrier merge deterministic.
///
/// `threads <= 1` (or a single-item input) runs inline on the caller's
/// thread with no spawning at all — a 1-shard run is exactly a serial run.
pub(crate) fn par_map_mut_threads<T, R, F>(threads: usize, items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(&mut T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.iter_mut().map(f).collect();
    }
    let ranges = chunk_ranges(items.len(), threads);
    let f = &f;
    // Split the slice into disjoint mutable chunks matching `ranges` and
    // spawn one worker per chunk. Disjointness is what makes the mutable
    // fan-out safe; joining in spawn order keeps results in input order.
    let chunk_results: Vec<Vec<R>> = std::thread::scope(|scope| {
        let mut rest = items;
        let mut handles = Vec::with_capacity(ranges.len());
        for r in &ranges {
            let (chunk, tail) = rest.split_at_mut(r.len());
            rest = tail;
            handles.push(scope.spawn(move || chunk.iter_mut().map(f).collect::<Vec<R>>()));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("par_map_mut worker panicked"))
            .collect()
    });
    chunk_results.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_tile_the_input() {
        for len in [0usize, 1, 2, 7, 16, 100, 101] {
            for threads in [1usize, 2, 3, 8, 200] {
                let ranges = chunk_ranges(len, threads);
                assert!(ranges.len() <= threads.max(1));
                let mut next = 0;
                let (mut min, mut max) = (usize::MAX, 0);
                for r in &ranges {
                    assert_eq!(r.start, next, "len={len} threads={threads}");
                    next = r.end;
                    min = min.min(r.len());
                    max = max.max(r.len());
                }
                assert_eq!(next, len);
                if len >= threads {
                    assert!(max - min <= 1, "unbalanced: len={len} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn par_map_mut_mutates_in_place_and_orders_results() {
        let expect_state: Vec<u64> = (0..100u64).map(|x| x + 1).collect();
        let expect_out: Vec<u64> = (0..100u64).map(|x| x * 2).collect();
        for threads in [1, 2, 3, 8, 64] {
            let mut items: Vec<u64> = (0..100).collect();
            let out = par_map_mut_threads(threads, &mut items, |x| {
                let r = *x * 2;
                *x += 1;
                r
            });
            assert_eq!(items, expect_state, "threads={threads}");
            assert_eq!(out, expect_out, "threads={threads}");
        }
    }

    #[test]
    fn par_map_mut_degenerate_inputs() {
        let mut empty: Vec<u32> = vec![];
        assert!(par_map_mut_threads(8, &mut empty, |x| *x).is_empty());
        let mut one = [7u32];
        assert_eq!(par_map_mut_threads(8, &mut one, |x| *x + 1), vec![8]);
    }

    #[test]
    #[should_panic(expected = "par_map_mut worker panicked")]
    fn worker_panics_propagate() {
        let mut items: Vec<u32> = (0..8).collect();
        let _ = par_map_mut_threads(4, &mut items, |x| {
            assert!(*x != 5, "boom");
            *x
        });
    }

    #[test]
    fn max_threads_is_positive() {
        assert!(max_threads() >= 1);
    }
}
