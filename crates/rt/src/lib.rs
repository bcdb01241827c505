//! Client-side parallel I/O runtime.
//!
//! BlobSeer clients store and fetch pages "in parallel" and write all
//! metadata tree nodes "in parallel" (paper Algorithms 1, 2 and 4). The
//! paper's prototype does this with asynchronous RPC; within this
//! in-process reproduction the equivalent is a small fork-join thread
//! pool. Each client (or engine) owns a [`ThreadPool`]; operations
//! submit batches of independent jobs and wait for all of them.
//!
//! The pool is deliberately minimal: FIFO dispatch over a crossbeam
//! channel, no work stealing, no nesting (a job must not submit-and-wait
//! on the same pool — BlobSeer's fan-outs are one level deep, so this
//! restriction is free).
//!
//! ## Chunked dispatch
//!
//! Fan-outs are dispatched as **index ranges**, not individual items:
//! [`parallel_map`] and [`try_parallel`] split `0..n` into at most one
//! contiguous chunk per worker thread, and each chunk is one boxed job
//! that runs its items sequentially. A 1 GiB append with 64 KiB pages
//! therefore submits one job per worker (~8 boxed closures) instead of
//! ~16k, eliminating per-item heap allocation, channel traffic and
//! queue contention.

mod pool;
mod wait;

pub use pool::ThreadPool;
pub use wait::WaitGroup;

use std::sync::Arc;

/// Run `f(i)` for every `i in 0..n` on the pool, returning the results
/// in index order. `0..n` is split into `min(n, pool.threads())`
/// contiguous ranges, one boxed job each; panics in jobs are propagated
/// to the caller.
pub fn parallel_map<T, F>(pool: &ThreadPool, n: usize, f: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(usize) -> T + Send + Sync + 'static,
{
    if n == 0 {
        return Vec::new();
    }
    if n == 1 {
        // Fast path: no dispatch overhead for single-page operations.
        return vec![f(0)];
    }
    let jobs = pool.threads().min(n);
    let f = Arc::new(f);
    let (tx, rx) = crossbeam::channel::bounded(jobs);
    let (base, rem) = (n / jobs, n % jobs);
    let mut start = 0;
    for j in 0..jobs {
        let len = base + usize::from(j < rem);
        let range = start..start + len;
        start += len;
        let f = Arc::clone(&f);
        let tx = tx.clone();
        pool.execute(move || {
            let first = range.start;
            let out: Vec<T> = range.map(|i| f(i)).collect();
            // Receiver is alive until all results are collected; a send
            // error can only mean the caller panicked and went away.
            let _ = tx.send((first, out));
        });
    }
    drop(tx);
    let mut parts: Vec<(usize, Vec<T>)> = Vec::with_capacity(jobs);
    for _ in 0..jobs {
        match rx.recv() {
            Ok(part) => parts.push(part),
            Err(_) => panic!("worker panicked during parallel_map"),
        }
    }
    parts.sort_unstable_by_key(|(first, _)| *first);
    parts.into_iter().flat_map(|(_, chunk)| chunk).collect()
}

/// Run `f(i)` for every `i in 0..n`, collecting results or the first
/// error. All items run to completion even when one fails (pages
/// already sent to providers are not cancelled in the paper's protocol
/// either). Dispatches one chunk per worker thread.
pub fn try_parallel<T, E, F>(pool: &ThreadPool, n: usize, f: F) -> Result<Vec<T>, E>
where
    T: Send + 'static,
    E: Send + 'static,
    F: Fn(usize) -> Result<T, E> + Send + Sync + 'static,
{
    parallel_map(pool, n, f).into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn parallel_map_returns_in_order() {
        let pool = ThreadPool::new(4, "test");
        let out = parallel_map(&pool, 100, |i| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_empty_and_single() {
        let pool = ThreadPool::new(2, "test");
        assert!(parallel_map(&pool, 0, |i| i).is_empty());
        assert_eq!(parallel_map(&pool, 1, |i| i + 41), vec![41]);
    }

    #[test]
    fn parallel_map_actually_parallel() {
        // With 4 workers and 4 jobs that rendezvous on a barrier, the
        // batch only completes if the jobs overlap in time.
        let pool = ThreadPool::new(4, "test");
        let barrier = Arc::new(std::sync::Barrier::new(4));
        let b = Arc::clone(&barrier);
        let out = parallel_map(&pool, 4, move |i| {
            b.wait();
            i
        });
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn parallel_map_more_jobs_than_workers() {
        let pool = ThreadPool::new(2, "test");
        let out = parallel_map(&pool, 1000, |i| i);
        assert_eq!(out.len(), 1000);
        assert_eq!(out[999], 999);
    }

    #[test]
    fn try_parallel_reports_error() {
        let pool = ThreadPool::new(4, "test");
        let ran = Arc::new(AtomicUsize::new(0));
        let ran2 = Arc::clone(&ran);
        let res: Result<Vec<usize>, String> = try_parallel(&pool, 50, move |i| {
            ran2.fetch_add(1, Ordering::SeqCst);
            if i == 13 {
                Err("boom".to_string())
            } else {
                Ok(i)
            }
        });
        assert!(res.is_err());
        // Every job still ran (no cancellation semantics).
        assert_eq!(ran.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn try_parallel_ok_path() {
        let pool = ThreadPool::new(4, "test");
        let res: Result<Vec<usize>, String> = try_parallel(&pool, 10, Ok);
        assert_eq!(res.unwrap(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn chunked_dispatch_preserves_order_for_all_pool_sizes() {
        for threads in [1, 2, 3, 7] {
            let pool = ThreadPool::new(threads, "test");
            let out = parallel_map(&pool, 100, |i| i * 3);
            assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn chunked_dispatch_boxes_one_job_per_worker() {
        let pool = ThreadPool::new(2, "test");
        let out = parallel_map(&pool, 16_384, |i| i);
        assert_eq!(out.len(), 16_384);
        assert_eq!(pool.jobs_dispatched(), 2, "a 16k-item batch must box 2 jobs, not 16k");

        // Fewer items than workers: one job per item.
        let pool = ThreadPool::new(4, "test");
        let _ = parallel_map(&pool, 3, |i| i);
        assert_eq!(pool.jobs_dispatched(), 3);
    }
}
