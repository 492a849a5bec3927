//! The engine's concurrency kernels, extracted behind small testable
//! abstractions.
//!
//! Everything the worker pool does concurrently — and with it the
//! engine's map and reduce phases, which run on the pool — funnels
//! through the two types in this module: ticket-based work claiming
//! ([`WorkQueue`]) and block-ordered partial merging
//! ([`BlockPartials`]). A claimed block runs once and commits once, so
//! claim uniqueness is also commit uniqueness. Keeping them here serves
//! two purposes:
//!
//! * The **order-determinism argument** of the engine (DESIGN.md §5)
//!   reduces to properties of these types — claims are unique, and
//!   partials merge in block order regardless of commit order — instead
//!   of properties of the whole engine.
//! * Each property is **model-checked**: under `--cfg loom` the module
//!   swaps its primitives for the `p3c-loom` shim and the
//!   `loom_models` integration test explores every interleaving of the
//!   operations (`RUSTFLAGS="--cfg loom" cargo test -p p3c-mapreduce
//!   --test loom_models`).

#[cfg(not(loom))]
use crate::sync::Mutex;
#[cfg(loom)]
use p3c_loom::sync::{
    atomic::{AtomicUsize, Ordering},
    Mutex,
};
#[cfg(not(loom))]
use std::sync::atomic::{AtomicUsize, Ordering};

/// Ticket-dispensing work queue: `claim` hands out `0..limit` with each
/// index claimed by exactly one caller.
#[derive(Debug)]
pub struct WorkQueue {
    next: AtomicUsize,
    limit: usize,
}

impl WorkQueue {
    /// A queue over work items `0..limit`.
    pub fn new(limit: usize) -> Self {
        Self {
            next: AtomicUsize::new(0),
            limit,
        }
    }

    /// Claims the next unclaimed item, or `None` once all are taken.
    ///
    /// Exactly-once hand-out needs only the atomicity of the
    /// read-modify-write — two claimants can never see the same ticket —
    /// so no ordering stronger than `Relaxed` is required: the claimed
    /// index is data the caller already owns, and the *results* of the
    /// work are handed off through [`BlockPartials`]' mutex, which
    /// provides the synchronization.
    pub fn claim(&self) -> Option<usize> {
        // audit: relaxed-ok — ticket counter; uniqueness needs only RMW
        // atomicity, and result hand-off synchronizes via BlockPartials.
        let ticket = self.next.fetch_add(1, Ordering::Relaxed);
        (ticket < self.limit).then_some(ticket)
    }

    /// Number of work items this queue dispenses.
    pub fn limit(&self) -> usize {
        self.limit
    }
}

/// Per-block partial-result board for the worker pool: one slot per
/// block, committed in any order by whichever worker claimed the block,
/// merged by the caller in **fixed block-index order**.
///
/// This is the kernel behind [`crate::pool::parallel_for_blocks`] and so
/// behind the engine's map and reduce phases: combined with
/// [`WorkQueue`]'s unique claims it guarantees that every block's
/// partial is produced exactly once and that the merge order — the
/// order a reducer sees map output in, and any f64 reduction over the
/// partials — is independent of scheduling (DESIGN.md §5, §11).
#[derive(Debug)]
pub struct BlockPartials<T> {
    slots: Mutex<Vec<Option<T>>>,
}

impl<T> BlockPartials<T> {
    /// A board with `num_blocks` empty slots.
    pub fn new(num_blocks: usize) -> Self {
        let mut slots = Vec::new();
        slots.resize_with(num_blocks, || None);
        Self {
            slots: Mutex::new(slots),
        }
    }

    /// Commits the partial of `block`. Each block must be committed at
    /// most once ([`WorkQueue`] hands every index to exactly one
    /// worker); a double commit panics.
    pub fn commit(&self, block: usize, value: T) {
        let mut slots = self.slots.lock();
        assert!(
            slots[block].is_none(),
            "block {block} committed twice — claims must be unique"
        );
        slots[block] = Some(value);
    }

    /// Consumes the board, returning the partials in block-index order.
    /// Panics if any block never committed.
    pub fn into_ordered(self) -> Vec<T> {
        let slots = self.slots.into_inner();
        slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| slot.unwrap_or_else(|| panic!("block {i} never committed")))
            .collect()
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn work_queue_dispenses_each_index_once() {
        let q = WorkQueue::new(3);
        assert_eq!(q.claim(), Some(0));
        assert_eq!(q.claim(), Some(1));
        assert_eq!(q.claim(), Some(2));
        assert_eq!(q.claim(), None);
        assert_eq!(q.claim(), None);
        assert_eq!(q.limit(), 3);
    }

    #[test]
    fn block_partials_merge_in_block_order() {
        let partials = BlockPartials::new(3);
        partials.commit(2, "c");
        partials.commit(0, "a");
        partials.commit(1, "b");
        assert_eq!(partials.into_ordered(), vec!["a", "b", "c"]);
    }

    #[test]
    #[should_panic(expected = "committed twice")]
    fn block_partials_reject_double_commit() {
        let partials = BlockPartials::new(2);
        partials.commit(0, 1);
        partials.commit(0, 2);
    }

    #[test]
    #[should_panic(expected = "never committed")]
    fn block_partials_require_every_block() {
        let partials = BlockPartials::new(2);
        partials.commit(0, 1);
        let _ = partials.into_ordered();
    }
}
