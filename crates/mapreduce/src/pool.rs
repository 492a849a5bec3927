//! Reusable scoped worker pool and the parallel-for-blocks primitive.
//!
//! Every parallel loop in the workspace has the same shape: a fixed
//! number of scoped workers pull work-item indices off a
//! [`kernel::WorkQueue`](crate::kernel::WorkQueue), and the per-item
//! results are combined in a **fixed item order** so the output never
//! depends on scheduling. [`parallel_for_blocks`] is that shape. The
//! engine's map phase (one block per input split) and reduce phase (one
//! block per partition) run on it, and so do the serial-path kernels
//! (`em_fit`'s E-step blocks, the columnar binning scan), all with the
//! same determinism guarantee (DESIGN.md §11).
//!
//! Determinism contract of [`parallel_for_blocks`]: the worker closure
//! must be a pure function of the block index (per-worker scratch state
//! may be reused across blocks but must not carry semantic state), and
//! the caller merges the returned partials in block-index order. Under
//! that contract the result is **bit-identical for every thread count**,
//! including the inline `threads <= 1` path — the serial path is the
//! parallel path with one worker, not a different algorithm.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use crate::sync::Mutex;

use crate::kernel::{BlockPartials, WorkQueue};

/// The payload of a panic caught inside a block's work.
pub(crate) type PanicPayload = Box<dyn Any + Send>;

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
/// effective worker (or fewer than two blocks) the claim loop runs on
/// the caller's thread with a single state and no spawn; otherwise
/// scoped workers run it. Either way blocks are claimed off a
/// [`WorkQueue`] and partials committed into a [`BlockPartials`] board,
/// and a panic in `work` is re-raised on the caller's thread.
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
    try_parallel_for_blocks_with(threads, num_blocks, make_state, work)
        .unwrap_or_else(|payload| resume_unwind(payload))
}

/// [`parallel_for_blocks_with`] returning a panic's payload instead of
/// re-raising it, so the engine can fail the job rather than its
/// caller. A panicking block does not stop the other workers: they
/// finish every block they claim before the payload comes back.
pub(crate) fn try_parallel_for_blocks_with<S, T, FS, FW>(
    threads: usize,
    num_blocks: usize,
    make_state: FS,
    work: FW,
) -> Result<Vec<T>, PanicPayload>
where
    T: Send,
    FS: Fn() -> S + Sync,
    FW: Fn(&mut S, usize) -> T + Sync,
{
    let workers = threads.min(num_blocks).min(resolve_threads(0));
    run_blocks(workers, num_blocks, make_state, work)
}

/// The body of [`try_parallel_for_blocks_with`], taking the final worker
/// count directly (tests call this to exercise the claim/commit
/// machinery even on single-core hosts, where the public entry point
/// would collapse to one worker). One worker runs the claim loop on
/// the caller's thread; more run it on scoped threads. Panics are
/// caught *inside* the loop, so the scope — which would re-raise one
/// into the caller on exit — never observes any.
fn run_blocks<S, T, FS, FW>(
    workers: usize,
    num_blocks: usize,
    make_state: FS,
    work: FW,
) -> Result<Vec<T>, PanicPayload>
where
    T: Send,
    FS: Fn() -> S + Sync,
    FW: Fn(&mut S, usize) -> T + Sync,
{
    let queue = WorkQueue::new(num_blocks);
    let partials = BlockPartials::new(num_blocks);
    let payload: Mutex<Option<PanicPayload>> = Mutex::new(None);
    let worker = || {
        let run = catch_unwind(AssertUnwindSafe(|| {
            let mut state = make_state();
            while let Some(block) = queue.claim() {
                partials.commit(block, work(&mut state, block));
            }
        }));
        if let Err(p) = run {
            payload.lock().get_or_insert(p);
        }
    };
    if workers <= 1 {
        worker();
    } else {
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(worker);
            }
        });
    }
    match payload.into_inner() {
        Some(p) => Err(p),
        None => Ok(partials.into_ordered()),
    }
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
    fn parallel_path_propagates_panics_like_serial() {
        // Drive four workers directly: the public entry point may
        // collapse to one on single-core hosts. The panic comes back as
        // a payload after the other workers ran on.
        let finished = AtomicUsize::new(0);
        let caught = run_blocks(
            4,
            16,
            || (),
            |(), b| {
                if b == 7 {
                    panic!("block exploded");
                }
                finished.fetch_add(1, Ordering::SeqCst);
                b
            },
        );
        assert!(caught.is_err());
        assert_eq!(finished.into_inner(), 15, "every other block ran");
        for threads in [1, 4] {
            let caught = std::panic::catch_unwind(|| {
                parallel_for_blocks(threads, 16, |b| {
                    if b == 7 {
                        panic!("block exploded");
                    }
                    b
                })
            });
            assert!(caught.is_err(), "threads={threads}");
        }
    }

    #[test]
    fn pooled_path_returns_block_order_with_private_state() {
        let out = run_blocks(
            4,
            100,
            || 0usize,
            |seen, b| {
                *seen += 1;
                (b, *seen)
            },
        )
        .unwrap();
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
