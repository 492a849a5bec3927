//! Reusable scoped worker pool and the parallel-for-blocks primitive.
//!
//! The engine's map and reduce phases both follow the same shape: spawn
//! a fixed number of scoped workers, let each pull work-item indices off
//! a [`kernel::WorkQueue`](crate::kernel::WorkQueue), and combine the
//! per-item results in a **fixed item order** so the job output never
//! depends on scheduling. This module extracts that machinery so the
//! serial-path kernels (`em_fit`'s E-step blocks, the columnar binning
//! scan) can run on the same pool with the same determinism guarantee
//! (DESIGN.md §11).
//!
//! Determinism contract of [`parallel_for_blocks`]: the worker closure
//! must be a pure function of the block index (per-worker scratch state
//! may be reused across blocks but must not carry semantic state), and
//! the caller merges the returned partials in block-index order. Under
//! that contract the result is **bit-identical for every thread count**,
//! including the inline `threads <= 1` path — the serial path is the
//! parallel path with one worker, not a different algorithm.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::sync::Mutex;

use crate::kernel::{BlockPartials, WorkQueue};

/// A worker panicked inside [`run_workers`]; the payload was discarded,
/// so callers map this to their own error type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic;

/// Resolves a configured thread count: `0` means "all available cores"
/// (the `MrConfig::threads` convention), anything else is taken
/// literally.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    } else {
        threads
    }
}

/// Runs `workers` copies of `worker` on scoped threads (each receives
/// its worker index) and joins them all. A panicking worker does not
/// tear down the process; it surfaces as `Err(WorkerPanic)` after every
/// other worker finished — the engine maps this to `MrError::Panicked`.
///
/// Workers are always spawned, even for `workers == 1`, so the panic
/// containment is uniform; use [`parallel_for_blocks`] when an inline
/// serial fast path is wanted instead.
pub fn run_workers<F>(workers: usize, worker: F) -> Result<(), WorkerPanic>
where
    F: Fn(usize) + Sync,
{
    run_workers_capturing(workers, worker).map_or(Ok(()), |_| Err(WorkerPanic))
}

/// [`run_workers`] returning the first panic payload, so callers can
/// either map it to an error ([`run_workers`]) or re-raise it on the
/// calling thread ([`parallel_for_blocks_with`]). Panics are caught
/// *inside* each worker — containment does not rely on the scope's
/// join behaviour — and the non-panicking workers always run to
/// completion.
fn run_workers_capturing<F>(workers: usize, worker: F) -> Option<Box<dyn std::any::Any + Send>>
where
    F: Fn(usize) + Sync,
{
    let payload: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    // Every panic is caught inside the worker, so the scope — which
    // would re-raise one into the caller on exit — never observes any.
    std::thread::scope(|s| {
        for w in 0..workers.max(1) {
            let (worker, payload) = (&worker, &payload);
            s.spawn(move || {
                if let Err(p) = catch_unwind(AssertUnwindSafe(|| worker(w))) {
                    payload.lock().get_or_insert(p);
                }
            });
        }
    });
    payload.into_inner()
}

/// Runs `work` once per block index in `0..num_blocks` and returns the
/// results in block-index order; see the module docs for the
/// determinism contract. `make_state` builds one private scratch state
/// per worker (Cholesky/softmax buffers, projection scratch, …), handed
/// mutably to every block that worker claims.
///
/// The effective worker count is
/// `min(threads, num_blocks, available cores)` — requesting more
/// workers than the host has cores would only add scheduling overhead,
/// and under the determinism contract the output cannot depend on the
/// worker count, so the cap is unobservable in results. With one
/// effective worker (or fewer than two blocks) everything runs inline
/// on the caller's thread with a single state and no spawn; otherwise
/// scoped workers claim blocks off a [`WorkQueue`] and commit partials
/// into a [`BlockPartials`] board. Worker panics are re-raised on the
/// caller's thread, matching the inline path's behavior.
pub fn parallel_for_blocks_with<S, T, FS, FW>(
    threads: usize,
    num_blocks: usize,
    make_state: FS,
    work: FW,
) -> Vec<T>
where
    T: Send,
    FS: Fn() -> S + Sync,
    FW: Fn(&mut S, usize) -> T + Sync,
{
    let workers = threads.min(num_blocks).min(resolve_threads(0));
    if workers <= 1 || num_blocks <= 1 {
        let mut state = make_state();
        return (0..num_blocks).map(|b| work(&mut state, b)).collect();
    }
    parallel_for_blocks_pooled(workers, num_blocks, make_state, work)
}

/// The multi-worker path of [`parallel_for_blocks_with`], taking the
/// final worker count directly (tests call this to exercise the
/// claim/commit machinery even on single-core hosts, where the public
/// entry point would collapse to the inline path).
fn parallel_for_blocks_pooled<S, T, FS, FW>(
    workers: usize,
    num_blocks: usize,
    make_state: FS,
    work: FW,
) -> Vec<T>
where
    T: Send,
    FS: Fn() -> S + Sync,
    FW: Fn(&mut S, usize) -> T + Sync,
{
    let queue = WorkQueue::new(num_blocks);
    let partials = BlockPartials::new(num_blocks);
    let payload = run_workers_capturing(workers, |_| {
        let mut state = make_state();
        while let Some(block) = queue.claim() {
            partials.commit(block, work(&mut state, block));
        }
    });
    if let Some(payload) = payload {
        std::panic::resume_unwind(payload);
    }
    partials.into_ordered()
}

/// [`parallel_for_blocks_with`] without per-worker scratch state.
pub fn parallel_for_blocks<T, F>(threads: usize, num_blocks: usize, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    parallel_for_blocks_with(threads, num_blocks, || (), |(), b| work(b))
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_block_order_for_any_thread_count() {
        for threads in [1, 2, 8] {
            let out = parallel_for_blocks(threads, 37, |b| b * b);
            assert_eq!(out, (0..37).map(|b| b * b).collect::<Vec<_>>(), "{threads}");
        }
    }

    #[test]
    fn zero_blocks_yield_empty_result() {
        assert_eq!(parallel_for_blocks(4, 0, |b| b), Vec::<usize>::new());
    }

    #[test]
    fn each_worker_gets_private_state() {
        // Every worker counts the blocks it processed in its own state;
        // the per-block results must still cover each block exactly once.
        let out = parallel_for_blocks_with(
            4,
            100,
            || 0usize,
            |seen, b| {
                *seen += 1;
                (b, *seen)
            },
        );
        assert_eq!(out.len(), 100);
        for (i, (b, seen)) in out.iter().enumerate() {
            assert_eq!(*b, i);
            assert!(*seen >= 1);
        }
    }

    #[test]
    fn run_workers_joins_all() {
        let hits = AtomicUsize::new(0);
        run_workers(5, |_| {
            hits.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
        assert_eq!(hits.into_inner(), 5);
    }

    #[test]
    fn run_workers_surfaces_panics_as_error() {
        let finished = AtomicUsize::new(0);
        let result = run_workers(3, |w| {
            if w == 1 {
                panic!("boom");
            }
            finished.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(result, Err(WorkerPanic));
        assert_eq!(finished.into_inner(), 2, "the other workers ran on");
    }

    #[test]
    fn parallel_path_propagates_panics_like_serial() {
        // Drive the pooled path directly: the public entry point may
        // collapse to the inline path on single-core hosts.
        let caught = std::panic::catch_unwind(|| {
            parallel_for_blocks_pooled(
                4,
                16,
                || (),
                |(), b| {
                    if b == 7 {
                        panic!("block exploded");
                    }
                    b
                },
            )
        });
        assert!(caught.is_err());
        let caught = std::panic::catch_unwind(|| {
            parallel_for_blocks(4, 16, |b| {
                if b == 7 {
                    panic!("block exploded");
                }
                b
            })
        });
        assert!(caught.is_err());
    }

    #[test]
    fn pooled_path_returns_block_order_with_private_state() {
        let out = parallel_for_blocks_pooled(
            4,
            100,
            || 0usize,
            |seen, b| {
                *seen += 1;
                (b, *seen)
            },
        );
        assert_eq!(out.len(), 100);
        for (i, (b, seen)) in out.iter().enumerate() {
            assert_eq!(*b, i);
            assert!(*seen >= 1);
        }
    }

    #[test]
    fn resolve_threads_zero_means_all_cores() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }
}
