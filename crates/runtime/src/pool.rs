//! Intra-worker evaluation pool: scoped threads over independent
//! switches, with deterministic result order.
//!
//! S2's fix-point rounds evaluate each switch independently within a
//! round (§4: Jacobi-style two-phase rounds), so a worker that owns many
//! switches can fan their evaluation out across threads. Determinism is
//! preserved by construction: each thread takes a contiguous chunk of the
//! worker's node-id-ordered items, and results are concatenated in chunk
//! order before anything touches a RIB, a wire frame, or a BDD — the
//! parallel path is byte-identical to the sequential one.
//!
//! The pool lives in `runtime` (not the pure crates) because spawning
//! threads is a runtime-layer concern; the closures it runs are pure.
//! Threads are scoped (`std::thread::scope`) so borrows of the worker's
//! state can cross into them without `'static` gymnastics, and nothing
//! outlives a single evaluation call — there is no queue, no channel,
//! and no wall-clock anywhere in this module.

use s2_obs::{Counter, Registry};
use s2_routing::SwitchMap;
use std::sync::{Arc, OnceLock};

/// Registry counter for items the parallel path evaluated. Cached so the
/// hot path pays one `OnceLock` load, not a registry lookup.
fn tasks_claimed() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| Registry::global().counter("pool.tasks_claimed"))
}

/// Registry counter for calls that actually fanned out across threads.
fn parallel_calls() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| Registry::global().counter("pool.parallel_calls"))
}

/// A fixed-width evaluation pool. `threads == 1` is the strictly
/// sequential path with zero thread overhead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalPool {
    threads: usize,
}

impl EvalPool {
    /// Creates a pool that evaluates with `threads` worker threads
    /// (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        EvalPool {
            threads: threads.max(1),
        }
    }

    /// Configured width of the pool.
    pub fn threads(&self) -> usize {
        self.threads
    }

}

/// The pool is the per-switch map of the BGP round engine and of the
/// worker's OSPF phases.
impl SwitchMap for EvalPool {
    /// Runs `f` over every item, mutating in place, and returns the
    /// per-item results in item order.
    ///
    /// The slice is split into contiguous chunks (one per thread), so
    /// each item is touched by exactly one thread and no locking is
    /// needed; chunk results are concatenated in chunk order, which *is*
    /// item order. If a closure panics, the panic is resumed on the
    /// caller thread after the scope unwinds, matching the sequential
    /// path's behavior.
    // r1: peer bytes reach this function (DESIGN.md § "Static analysis").
    #[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]
    #[deny(clippy::todo, clippy::unimplemented, clippy::indexing_slicing)]
    fn map<T: Send, R: Send>(&self, items: &mut [T], f: impl Fn(&mut T) -> R + Sync) -> Vec<R> {
        let len = items.len();
        if self.threads == 1 || len <= 1 {
            return items.iter_mut().map(f).collect();
        }
        parallel_calls().inc();
        tasks_claimed().add(len as u64);
        let chunk_len = len.div_ceil(self.threads);
        std::thread::scope(|scope| {
            let handles: Vec<_> = items
                .chunks_mut(chunk_len)
                .map(|chunk| {
                    let f = &f;
                    scope.spawn(move || chunk.iter_mut().map(f).collect::<Vec<R>>())
                })
                .collect();
            let mut out = Vec::with_capacity(len);
            for handle in handles {
                match handle.join() {
                    Ok(part) => out.extend(part),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            out
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// `f(0..len)` on `pool`, in index order.
    fn map_range<R: Send>(pool: EvalPool, len: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
        pool.map(&mut (0..len).collect::<Vec<_>>(), |i| f(*i))
    }

    #[test]
    fn sequential_pool_maps_in_order() {
        let pool = EvalPool::new(1);
        assert_eq!(map_range(pool, 4, |i| i * 10), vec![0, 10, 20, 30]);
        assert_eq!(pool.threads(), 1);
    }

    #[test]
    fn zero_width_clamps_to_one() {
        let pool = EvalPool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(map_range(pool, 3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn parallel_map_matches_sequential_order() {
        let seq = EvalPool::new(1);
        let par = EvalPool::new(4);
        for len in [0usize, 1, 2, 3, 7, 64, 257] {
            let expect = map_range(seq, len, |i| i * 3 + 1);
            let got = map_range(par, len, |i| i * 3 + 1);
            assert_eq!(got, expect, "len {len}");
        }
    }

    #[test]
    fn parallel_map_uses_multiple_claims() {
        // Every item is evaluated exactly once across the threads.
        let par = EvalPool::new(4);
        let hits = AtomicU64::new(0);
        let out = map_range(par, 100, |i| {
            hits.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out, (0..100).collect::<Vec<_>>());
        assert_eq!(hits.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn map_mut_mutates_every_item_once() {
        for threads in [1usize, 2, 4, 9] {
            let pool = EvalPool::new(threads);
            let mut items: Vec<u64> = (0..37).collect();
            let results = pool.map(&mut items, |item| {
                *item += 1;
                (*item - 1) * 2
            });
            assert_eq!(items, (1..38).collect::<Vec<u64>>(), "threads {threads}");
            assert_eq!(
                results,
                (0..37).map(|i| i * 2).collect::<Vec<u64>>(),
                "threads {threads}"
            );
        }
    }

    #[test]
    fn map_mut_handles_empty_and_tiny_slices() {
        let pool = EvalPool::new(8);
        let mut empty: Vec<u32> = Vec::new();
        assert!(pool.map(&mut empty, |_| 0u32).is_empty());
        let mut one = vec![5u32];
        assert_eq!(pool.map(&mut one, |v| *v), vec![5]);
    }

    #[test]
    fn uneven_work_still_merges_in_index_order() {
        // Vary per-item cost so threads finish out of order.
        let pool = EvalPool::new(3);
        let out = map_range(pool, 50, |i| {
            let spin = if i % 7 == 0 { 10_000 } else { 10 };
            let mut acc = i as u64;
            for k in 0..spin {
                acc = acc.wrapping_mul(31).wrapping_add(k);
            }
            (i, acc)
        });
        let expect: Vec<(usize, u64)> = (0..50)
            .map(|i| {
                let spin = if i % 7 == 0 { 10_000 } else { 10 };
                let mut acc = i as u64;
                for k in 0..spin {
                    acc = acc.wrapping_mul(31).wrapping_add(k);
                }
                (i, acc)
            })
            .collect();
        assert_eq!(out, expect);
    }
}
