//! The deterministic scoped worker pool behind the parallel pipeline.
//!
//! Both halves of the ASE pipeline are embarrassingly parallel: app
//! extraction is independent per package, and each vulnerability
//! signature solves its own relational problem against the shared bundle.
//! [`Executor::ordered_map`] fans such work out over the calling thread
//! plus scoped OS threads
//! (work is claimed by atomic index, so long items don't stall the queue)
//! and merges results back **in input order**, which keeps every
//! [`crate::Report`] byte-identical regardless of thread count — the
//! determinism the regression suite pins down.
//!
//! The executor is shared by [`crate::Separ`], [`crate::IncrementalSession`],
//! the `separ` CLI (`--threads`), and the bench crate's bundle fan-outs,
//! replacing the hand-rolled thread-scope scaffolding those used to carry.

use std::sync::atomic::{AtomicUsize, Ordering};

/// A scoped worker pool with deterministic, input-ordered results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    threads: usize,
}

impl Default for Executor {
    /// One worker per available hardware thread.
    fn default() -> Executor {
        Executor::new(0)
    }
}

impl Executor {
    /// An executor with `threads` workers; `0` means one worker per
    /// available hardware thread.
    pub fn new(threads: usize) -> Executor {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            threads
        };
        Executor { threads }
    }

    /// The resolved worker count (never zero).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every item, in parallel, returning the results in
    /// input order. With one worker (or one item) it runs inline on the
    /// calling thread — no spawn overhead for the serial configuration.
    pub fn ordered_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        match self.try_ordered_map(items, |item| Ok::<R, Unreachable>(f(item))) {
            Ok(results) => results,
            Err(unreachable) => match unreachable {},
        }
    }

    /// Fallible [`Executor::ordered_map`]: on failure, returns the error
    /// of the **lowest-indexed** failing item, so the reported error is
    /// also independent of thread count. (The serial path short-circuits
    /// there; parallel workers finish their queue — signatures fail only
    /// on implementation bugs, so the error path is not worth
    /// short-circuiting at the cost of a nondeterministic report.)
    pub fn try_ordered_map<T, R, E, F>(&self, items: &[T], f: F) -> Result<Vec<R>, E>
    where
        T: Sync,
        R: Send,
        E: Send,
        F: Fn(&T) -> Result<R, E> + Sync,
    {
        let workers = self.threads.min(items.len());
        if workers <= 1 {
            return items.iter().map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let work = || {
            let mut out: Vec<(usize, Result<R, E>)> = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else {
                    return out;
                };
                out.push((i, f(item)));
            }
        };
        // Worker-side spans must parent under whatever span is open on
        // the spawning thread, so capture it here and adopt it in each
        // spawned worker (span context is otherwise thread-local).
        let parent_span = separ_obs::current_span();
        let spawned = || {
            let _ctx = separ_obs::adopt_span(parent_span);
            work()
        };
        let mut slots: Vec<Option<Result<R, E>>> = Vec::new();
        slots.resize_with(items.len(), || None);
        std::thread::scope(|scope| {
            // The calling thread is one of the workers. It usually claims
            // the first item, so what that item allocates stays in the
            // caller's malloc arena rather than a short-lived thread's.
            let handles: Vec<_> = (1..workers).map(|_| scope.spawn(spawned)).collect();
            let inline = work();
            for handle in handles {
                for (i, result) in handle.join().expect("executor worker panicked") {
                    slots[i] = Some(result);
                }
            }
            for (i, result) in inline {
                slots[i] = Some(result);
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("every index was claimed by exactly one worker"))
            .collect()
    }

    /// [`Executor::ordered_map`] that starts the costliest items first.
    pub fn ordered_map_by_cost<T, R, K, F>(
        &self,
        items: &[T],
        cost: impl Fn(&T) -> K,
        f: F,
    ) -> Vec<R>
    where
        T: Sync,
        R: Send,
        K: Ord,
        F: Fn(&T) -> R + Sync,
    {
        match self.try_ordered_map_by_cost(items, cost, |item| Ok::<R, Unreachable>(f(item))) {
            Ok(results) => results,
            Err(unreachable) => match unreachable {},
        }
    }

    /// [`Executor::try_ordered_map`] that claims items in descending
    /// `cost` order (ties in input order) and still returns results in
    /// input order. When one item dominates, starting it first keeps the
    /// others from delaying it. On failure, returns the error of the
    /// first failing item in claim order — again independent of thread
    /// count.
    pub fn try_ordered_map_by_cost<T, R, E, K, F>(
        &self,
        items: &[T],
        cost: impl Fn(&T) -> K,
        f: F,
    ) -> Result<Vec<R>, E>
    where
        T: Sync,
        R: Send,
        E: Send,
        K: Ord,
        F: Fn(&T) -> Result<R, E> + Sync,
    {
        let mut order: Vec<usize> = (0..items.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(cost(&items[i])));
        let results = self.try_ordered_map(&order, |&i| f(&items[i]))?;
        let mut slots: Vec<Option<R>> = Vec::new();
        slots.resize_with(items.len(), || None);
        for (i, result) in order.into_iter().zip(results) {
            slots[i] = Some(result);
        }
        Ok(slots
            .into_iter()
            .map(|slot| slot.expect("every item ran exactly once"))
            .collect())
    }
}

/// An error type with no values, for the infallible wrapper.
enum Unreachable {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolves_zero_to_hardware_threads() {
        assert!(Executor::new(0).threads() >= 1);
        assert_eq!(Executor::new(3).threads(), 3);
    }

    #[test]
    fn results_arrive_in_input_order() {
        let items: Vec<usize> = (0..257).collect();
        for threads in [1, 2, 8, 64] {
            let exec = Executor::new(threads);
            let out = exec.ordered_map(&items, |&i| i * i);
            assert_eq!(out, items.iter().map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn uneven_workloads_stay_ordered() {
        // Early items are the slowest: a naive chunk-per-thread split
        // would finish out of order; the merge must still be by index.
        let items: Vec<u64> = (0..48).rev().collect();
        let out = Executor::new(8).ordered_map(&items, |&n| {
            std::thread::sleep(std::time::Duration::from_micros(n * 50));
            n
        });
        assert_eq!(out, items);
    }

    #[test]
    fn error_reported_is_the_lowest_indexed_one() {
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 4, 16] {
            let err = Executor::new(threads)
                .try_ordered_map(&items, |&i| if i % 7 == 3 { Err(i) } else { Ok(i) })
                .expect_err("items 3, 10, ... fail");
            assert_eq!(err, 3, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs_run_inline() {
        let exec = Executor::new(8);
        assert_eq!(exec.ordered_map(&[] as &[u8], |&b| b), Vec::<u8>::new());
        assert_eq!(exec.ordered_map(&[5u8], |&b| b + 1), vec![6]);
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        let out = Executor::new(64).ordered_map(&[1, 2, 3], |&n| n * 10);
        assert_eq!(out, vec![10, 20, 30]);
    }

    #[test]
    fn worker_spans_parent_under_the_spawning_span() {
        // The worker closure records through the process-global
        // collector, so scope every assertion to this test's own root
        // span — other tests in this binary may be tracing concurrently.
        let c = separ_obs::global();
        c.enable();
        let root = c.span("exec.test_root");
        let root_id = root.id();
        let items: Vec<usize> = (0..16).collect();
        Executor::new(4).ordered_map(&items, |&i| {
            let mut s = c.span("exec.test_child");
            s.set_arg("i", i.to_string());
        });
        drop(root);
        let trace = c.snapshot_subtree(root_id);
        assert_eq!(trace.count_named("exec.test_child"), 16);
        let root_span = &trace.spans()[0];
        assert_eq!(root_span.name, "exec.test_root");
        for s in trace.spans().iter().skip(1) {
            assert_eq!(
                s.parent, root_span.id,
                "child {} parents under root",
                s.name
            );
        }
    }

    #[test]
    fn costliest_items_start_first_and_results_stay_in_input_order() {
        let items: Vec<usize> = vec![3, 9, 1, 9, 4];
        for threads in [1, 2, 8] {
            let claimed = std::sync::Mutex::new(Vec::new());
            let out = Executor::new(threads).ordered_map_by_cost(
                &items,
                |&n| n,
                |&n| {
                    claimed.lock().unwrap().push(n);
                    n * 10
                },
            );
            assert_eq!(out, vec![30, 90, 10, 90, 40]);
            if threads == 1 {
                assert_eq!(*claimed.lock().unwrap(), vec![9, 9, 4, 3, 1]);
            }
            let err = Executor::new(threads)
                .try_ordered_map_by_cost(&items, |&n| n, |&n| if n < 5 { Err(n) } else { Ok(n) })
                .expect_err("3, 1 and 4 fail");
            assert_eq!(err, 4, "first failure in claim order, threads={threads}");
        }
    }
}
