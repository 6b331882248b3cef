//! Deterministic scoped-thread parallelism.
//!
//! It lives in the lowest crate that every parallel stage depends on, so
//! the model crate (pool training, batch scoring) and the clustering
//! crate (k estimation) share it; `falcc_models` re-exports it.
//!
//! Every parallel site in the workspace funnels through this module, and
//! all of it obeys one rule: **the result is a pure function of the input
//! and the master seed, never of the thread count**. Two ingredients make
//! that hold:
//!
//! * work items are mapped by *index* with [`parallel_map`] /
//!   [`parallel_map_range`], and the per-item closure receives only the
//!   item's index and data — nothing thread-local. Workers claim blocks
//!   of consecutive indices from a shared counter until none are left,
//!   so a worker that drew a costly item does not hold up the rest; each
//!   block's results are merged back in order of block start, so the
//!   output `Vec` is identical whether the map ran on 1 thread or 16;
//! * work items that need randomness derive their seed from the master
//!   seed and their own index via [`derive_seed`] — never from a shared
//!   RNG that threads would race on, and never from a thread id.
//!
//! The implementation uses `std::thread::scope` so borrowed inputs can be
//! shared without `Arc` plumbing and without any dependency on an external
//! thread-pool crate.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Resolves a requested thread count: `0` means "use the machine's
/// available parallelism", anything else is taken literally.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        requested
    }
}

/// Maps `f` over `0..n` on up to `threads` scoped threads (0 = auto),
/// returning results in index order.
///
/// `f(i)` must depend only on `i` and captured shared state — under that
/// contract the output is bit-identical for every thread count.
pub fn parallel_map_range<R, F>(n: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = resolve_threads(threads).min(n.max(1));
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    // Workers claim blocks of ceil(n / (4 * threads)) consecutive indices
    // until the counter passes n: about four blocks per worker balance
    // uneven item costs without contending on the counter. Which worker
    // ran a block is irrelevant to the result: blocks merge by start.
    let block = n.div_ceil(4 * threads);
    let next = AtomicUsize::new(0);
    let mut blocks: Vec<(usize, Vec<R>)> = Vec::with_capacity(n.div_ceil(block));
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut claimed = Vec::new();
                    loop {
                        // Relaxed: the counter only hands out disjoint
                        // ranges; results travel back through `join`.
                        let start = next.fetch_add(block, Ordering::Relaxed);
                        if start >= n {
                            return claimed;
                        }
                        let end = (start + block).min(n);
                        claimed.push((start, (start..end).map(&f).collect::<Vec<R>>()));
                    }
                })
            })
            .collect();
        for handle in handles {
            // Re-raise a worker's panic with its own payload, so a caller
            // that catches it sees the original message.
            match handle.join() {
                Ok(claimed) => blocks.extend(claimed),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    blocks.sort_unstable_by_key(|&(start, _)| start);
    let mut out = Vec::with_capacity(n);
    for (_, results) in blocks {
        out.extend(results);
    }
    out
}

/// Maps `f` over a slice on up to `threads` scoped threads (0 = auto),
/// returning results in input order. See [`parallel_map_range`] for the
/// determinism contract; `f` receives each item's index alongside it.
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    parallel_map_range(items.len(), threads, |i| f(i, &items[i]))
}

/// Derives a per-item RNG seed from a master seed and the item's index.
///
/// A SplitMix64-style finalizer decorrelates the streams: neighbouring
/// indices produce unrelated seeds, unlike `seed + index`, where two
/// items' xoshiro states would start one counter step apart.
pub fn derive_seed(master: u64, index: u64) -> u64 {
    let mut z = master ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<u64> = (0..103).collect();
        let out = parallel_map(&items, 4, |i, &x| (i as u64, x * 2));
        assert_eq!(out.len(), items.len());
        for (i, &(idx, doubled)) in out.iter().enumerate() {
            assert_eq!(idx, i as u64);
            assert_eq!(doubled, items[i] * 2);
        }
    }

    #[test]
    fn result_is_identical_for_every_thread_count() {
        let compute = |threads: usize| {
            parallel_map_range(257, threads, |i| {
                // A seed-dependent value, as the real call sites produce.
                derive_seed(42, i as u64)
            })
        };
        let one = compute(1);
        for threads in [2, 3, 4, 8, 16] {
            assert_eq!(compute(threads), one, "threads = {threads}");
        }
    }

    #[test]
    fn empty_and_tiny_inputs_work() {
        let empty: Vec<u8> = vec![];
        assert!(parallel_map(&empty, 8, |_, &x| x).is_empty());
        assert_eq!(parallel_map(&[7u8], 8, |_, &x| x + 1), vec![8]);
        assert_eq!(parallel_map_range(0, 0, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let items = [1u32, 2, 3];
        assert_eq!(parallel_map(&items, 64, |_, &x| x), vec![1, 2, 3]);
    }

    #[test]
    fn resolve_zero_means_available_parallelism() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn derived_seeds_are_decorrelated() {
        // Distinct indices must give distinct seeds, and neighbouring
        // indices must not produce near-identical bit patterns.
        let seeds: Vec<u64> = (0..1000).map(|i| derive_seed(7, i)).collect();
        let unique: std::collections::HashSet<&u64> = seeds.iter().collect();
        assert_eq!(unique.len(), seeds.len());
        for pair in seeds.windows(2) {
            let differing_bits = (pair[0] ^ pair[1]).count_ones();
            assert!(differing_bits >= 8, "suspiciously close: {pair:?}");
        }
    }

    #[test]
    fn skewed_item_costs_evaluate_each_index_once_in_order() {
        // One item far costlier than the rest, at the front, middle or
        // end: the other workers claim the remaining blocks meanwhile, and
        // the merge must still put every result at its own index.
        for threads in [1, 2, 3, 8] {
            for n in [0usize, 1, 7, 8, 9, 1000] {
                for costly in [0, n / 2, n.saturating_sub(1)] {
                    let calls: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                    let out = parallel_map_range(n, threads, |i| {
                        if i == costly {
                            std::thread::sleep(std::time::Duration::from_millis(5));
                        }
                        calls[i].fetch_add(1, Ordering::Relaxed);
                        derive_seed(3, i as u64)
                    });
                    let expected: Vec<u64> = (0..n as u64).map(|i| derive_seed(3, i)).collect();
                    assert_eq!(out, expected, "threads {threads}, n {n}, costly {costly}");
                    for (i, c) in calls.iter().enumerate() {
                        let calls = c.load(Ordering::Relaxed);
                        assert_eq!(calls, 1, "index {i} of {n}, threads {threads}");
                    }
                }
            }
        }
    }

    #[test]
    fn panics_in_workers_propagate() {
        let payload = std::panic::catch_unwind(|| {
            parallel_map_range(8, 4, |i| {
                assert!(i != 5, "boom");
                i
            })
        })
        .expect_err("a worker panic must reach the caller");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or_default();
        assert!(message.contains("boom"), "worker payload lost: {message:?}");
    }
}
