//! Deterministic scoped-thread fan-out.
//!
//! The parallel M-Optimizer evaluates independent candidate transforms
//! concurrently and merges the results back in a fixed order. The
//! primitive here is intentionally simpler than a work-stealing pool
//! (rayon is unavailable offline): a shared atomic cursor hands out
//! item indices, each worker returns `(index, result)` pairs, and the
//! join reassembles results in input order — so the *output* is
//! independent of scheduling, interleaving, and thread count.

use std::sync::atomic::{AtomicUsize, Ordering};

/// The machine's available parallelism (1 when unknown).
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Applies `f` to a prefix of `items`, fanning out over up to `threads`
/// scoped threads, and returns the results **in input order**
/// regardless of which worker computed them. `threads <= 1` runs inline
/// with no thread overhead (and therefore identical observable
/// behavior).
///
/// `claim` is the claim gate: a worker calls it before taking each next
/// index and stops once it returns `false`. Indices are handed out in
/// increasing order, so the claimed items form a prefix — all of
/// `items` while the gate stays open. A gate that closes on something
/// `f` produced lets at most `threads − 1` items, already claimed by
/// other workers, run after it closes.
///
/// # Panics
///
/// A panic in any worker is propagated to the caller at the join.
pub fn par_map<T, R, G, F>(threads: usize, items: &[T], claim: G, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    G: Fn() -> bool + Sync,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = threads.min(items.len());
    if workers <= 1 {
        return items.iter().enumerate().map_while(|(i, t)| claim().then(|| f(i, t))).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut produced = Vec::new();
                    while claim() {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        produced.push((i, f(i, &items[i])));
                    }
                    produced
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(produced) => {
                    for (i, r) in produced {
                        slots[i] = Some(r);
                    }
                }
                // Re-raise the worker's own panic payload.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    // Every claimed index was produced, and the claimed indices are a
    // prefix: the first empty slot ends it.
    slots.into_iter().map_while(|r| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..257).collect();
        for threads in [1, 2, 4, 8] {
            let out = par_map(threads, &items, || true, |i, &x| {
                assert_eq!(i as u64, x);
                x * 3
            });
            assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let none: Vec<u32> = vec![];
        assert!(par_map(4, &none, || true, |_, &x| x).is_empty());
        assert_eq!(par_map(4, &[7u32], || true, |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let items: Vec<u64> = (0..100).collect();
        let serial = par_map(1, &items, || true, |i, &x| x.wrapping_mul(i as u64 + 1));
        let parallel = par_map(4, &items, || true, |i, &x| x.wrapping_mul(i as u64 + 1));
        assert_eq!(serial, parallel);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        let items: Vec<u32> = (0..64).collect();
        let _ = par_map(4, &items, || true, |_, &x| {
            if x == 63 {
                panic!("boom");
            }
            x
        });
    }

    /// The gate closes once `limit` items have finished: the claimed
    /// prefix extends the serial run's, and only items other workers
    /// had already claimed — at most `threads − 1` — finish after it.
    /// A barrier holds each worker's first item until every worker has
    /// claimed one, which forces that worst case when `limit` is 1.
    #[test]
    fn claim_gate_stops_at_a_prefix() {
        use std::sync::Barrier;
        let items: Vec<u64> = (0..200).collect();
        for limit in [0, 1, 7, 50] {
            for threads in [1, 2, 4] {
                let done = AtomicUsize::new(0);
                let first_round = Barrier::new(threads);
                let out = par_map(threads, &items, || done.load(Ordering::SeqCst) < limit, |i, &x| {
                    if i < threads {
                        first_round.wait();
                    }
                    done.fetch_add(1, Ordering::SeqCst);
                    x * 2
                });
                assert_eq!(out, (0..out.len() as u64).map(|x| x * 2).collect::<Vec<_>>());
                let past = out.len() - limit;
                assert!(past < threads, "threads {threads}: {past} items ran past the gate");
                if limit == 1 {
                    assert_eq!(past, threads - 1, "threads {threads}: every worker was in flight");
                }
            }
        }
    }
}
