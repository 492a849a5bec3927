//! Exhaustive interleaving models for the engine's concurrency kernels.
//!
//! Compiled and run only under the model-checking configuration:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p p3c-mapreduce --test loom_models
//! ```
//!
//! In that configuration `p3c_mapreduce::kernel` swaps its primitives
//! for the `p3c-loom` shims, and each `model(..)` call below explores
//! *every* schedule of the closure's threads (sequentially consistent
//! interleavings; see the p3c-loom crate docs for scope). These are the
//! kernel properties the engine's determinism argument (DESIGN.md §5,
//! §10) rests on:
//!
//! * [`WorkQueue`] hands each ticket to exactly one claimant.
//! * [`ShuffleBuckets`] drains in split order no matter which producer
//!   commits first — the order-determinism keystone.
//! * [`WorkQueue`] + [`ShuffleBuckets`] — the map phase's protocol: each
//!   split is claimed once, mapped once and committed once — yield the
//!   serial output in every schedule.
//! * [`BlockPartials`] + [`WorkQueue`] — the worker-pool kernel behind
//!   `parallel_for_blocks` (DESIGN.md §11) — merges per-block partials
//!   in block order regardless of which worker claims which block.
//! * [`MapOutputTracker`] — the distributed data plane's location
//!   registry (DESIGN.md §12) — stays consistent when re-registrations
//!   and lookups race worker deaths.
//! * [`Admission`] — the service's Mutex+Condvar job gate (DESIGN.md
//!   §14) — never over-admits under a budget, always admits an
//!   oversized job when idle, and its notify-on-release protocol never
//!   loses a wakeup.
#![cfg(loom)]

use p3c_loom::{model, thread};
use p3c_mapreduce::distrib::{BlockLocation, MapOutputTracker};
use p3c_mapreduce::kernel::{BlockPartials, ShuffleBuckets, WorkQueue};
use p3c_mapreduce::service::Admission;
use std::sync::Arc;

/// Two workers race to drain a three-item queue: across every schedule,
/// each index is claimed exactly once and nothing is claimed after the
/// queue reports empty.
#[test]
fn work_queue_claims_are_exactly_once() {
    let executions = model(|| {
        let queue = Arc::new(WorkQueue::new(3));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let queue = Arc::clone(&queue);
                thread::spawn(move || {
                    let mut mine = Vec::new();
                    while let Some(idx) = queue.claim() {
                        mine.push(idx);
                    }
                    mine
                })
            })
            .collect();
        let mut all: Vec<usize> = workers.into_iter().flat_map(|w| w.join_unwrap()).collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2], "each ticket claimed exactly once");
        assert_eq!(queue.claim(), None, "drained queue stays drained");
    });
    assert!(executions > 1, "model explored more than one schedule");
}

/// Two map tasks commit their shuffle output concurrently; whichever
/// finishes first, the drained sequence is always split order. This is
/// the invariant that makes reducer input — and therefore final output —
/// independent of scheduling.
#[test]
fn shuffle_buckets_drain_order_is_schedule_independent() {
    model(|| {
        let buckets = Arc::new(ShuffleBuckets::new(2));
        let producers: Vec<_> = [(0usize, vec![10, 11]), (1usize, vec![20])]
            .into_iter()
            .map(|(slot, items)| {
                let buckets = Arc::clone(&buckets);
                thread::spawn(move || buckets.commit(slot, items))
            })
            .collect();
        for p in producers {
            p.join_unwrap();
        }
        assert_eq!(
            buckets.take_ordered(),
            vec![10, 11, 20],
            "drain order is slot order in every schedule"
        );
    });
}

/// The worker-pool block kernel in miniature — the claim/commit/merge
/// discipline of `parallel_for_blocks` (DESIGN.md §11): two workers
/// drain a three-block queue, each committing a per-block partial
/// (here `block * 10`, standing in for a per-block f64 reduction). In
/// every schedule each block is claimed and committed exactly once,
/// and the merged sequence comes back in block-index order — so the
/// caller's fold over the partials cannot depend on scheduling.
#[test]
fn block_partials_merge_order_is_schedule_independent() {
    let executions = model(|| {
        let queue = Arc::new(WorkQueue::new(3));
        let partials = Arc::new(BlockPartials::new(3));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let queue = Arc::clone(&queue);
                let partials = Arc::clone(&partials);
                thread::spawn(move || {
                    while let Some(block) = queue.claim() {
                        partials.commit(block, block * 10);
                    }
                })
            })
            .collect();
        for w in workers {
            w.join_unwrap();
        }
        let partials = Arc::into_inner(partials).expect("all workers joined");
        assert_eq!(
            partials.into_ordered(),
            vec![0, 10, 20],
            "partials merge in block order in every schedule"
        );
    });
    assert!(executions > 1, "model explored more than one schedule");
}

/// The map phase's claim/commit protocol in miniature: workers claim
/// splits from the queue, map each claimed split once and commit it into
/// its shuffle slot. Output must equal the serial result in every
/// schedule.
#[test]
fn claim_commit_shuffle_composition_is_deterministic() {
    model(|| {
        let queue = Arc::new(WorkQueue::new(2));
        let buckets = Arc::new(ShuffleBuckets::new(2));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let queue = Arc::clone(&queue);
                let buckets = Arc::clone(&buckets);
                thread::spawn(move || {
                    while let Some(split) = queue.claim() {
                        buckets.commit(split, vec![split * 10, split * 10 + 1]);
                    }
                })
            })
            .collect();
        for w in workers {
            w.join_unwrap();
        }
        assert_eq!(queue.claim(), None);
        assert_eq!(buckets.take_ordered(), vec![0, 1, 10, 11]);
    });
}

/// The distributed data plane's location registry (DESIGN.md §12): a
/// re-executed map registering its fresh copy on worker 1 races the
/// death of worker 0 that held the stale copy. In both orders the entry
/// must end up pointing at worker 1 — register-then-invalidate removes
/// nothing (the entry already moved off worker 0), invalidate-then-
/// register re-adds it — and the invalidation epoch advances exactly
/// once.
#[test]
fn tracker_reregistration_races_worker_death_consistently() {
    let executions = model(|| {
        let tracker = Arc::new(MapOutputTracker::new());
        let stale = BlockLocation {
            worker: 0,
            len: 4,
            checksum: 0xaa,
        };
        let fresh = BlockLocation {
            worker: 1,
            len: 4,
            checksum: 0xbb,
        };
        tracker.register(1, 0, 0, stale);
        let rereg = {
            let tracker = Arc::clone(&tracker);
            thread::spawn(move || tracker.register(1, 0, 0, fresh))
        };
        let death = {
            let tracker = Arc::clone(&tracker);
            thread::spawn(move || tracker.invalidate_worker(0))
        };
        rereg.join_unwrap();
        death.join_unwrap();
        assert_eq!(
            tracker.lookup(1, 0, 0),
            Some(fresh),
            "entry points at the re-registered copy in every schedule"
        );
        assert_eq!(tracker.epoch(), 1, "one death, one epoch bump");
    });
    assert!(executions > 1, "model explored more than one schedule");
}

/// The service admission gate under contention (DESIGN.md §14): two
/// 80-byte re-cluster jobs compete for a 100-byte budget. In every
/// schedule at most one is in flight at a time, both eventually
/// complete (the release's `notify_all` cannot be lost — `wait`
/// releases the state lock and parks atomically), and the gate is idle
/// again after both release.
#[test]
fn admission_budget_gates_concurrent_jobs() {
    use p3c_loom::sync::atomic::{AtomicUsize, Ordering};
    let executions = model(|| {
        let adm = Arc::new(Admission::new(Some(100)));
        let running = Arc::new(AtomicUsize::new(0));
        let jobs: Vec<_> = (0..2)
            .map(|_| {
                let adm = Arc::clone(&adm);
                let running = Arc::clone(&running);
                thread::spawn(move || {
                    adm.admit(80);
                    let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                    assert!(
                        now <= 1,
                        "two 80-byte jobs in flight under a 100-byte budget"
                    );
                    running.fetch_sub(1, Ordering::SeqCst);
                    adm.release(80);
                })
            })
            .collect();
        for j in jobs {
            j.join_unwrap();
        }
        assert!(!adm.would_wait(80), "gate is idle after both releases");
    });
    assert!(executions > 1, "model explored more than one schedule");
}

/// The oversized-job protocol: an idle service admits a job bigger than
/// the whole budget without waiting (degrade, don't deadlock), a second
/// oversized job parks until the first's release, and the
/// drop-the-guard-then-notify release ordering wakes it in every
/// schedule.
#[test]
fn oversized_admission_waits_for_idle_and_wakes_on_release() {
    use p3c_loom::sync::atomic::{AtomicBool, Ordering};
    model(|| {
        let adm = Arc::new(Admission::new(Some(100)));
        let first_released = Arc::new(AtomicBool::new(false));
        assert!(
            !adm.admit(250),
            "idle service admits an oversized job without waiting"
        );
        let second = {
            let adm = Arc::clone(&adm);
            let flag = Arc::clone(&first_released);
            thread::spawn(move || {
                adm.admit(250);
                assert!(
                    flag.load(Ordering::SeqCst),
                    "second oversized job admitted before the first released"
                );
                adm.release(250);
            })
        };
        first_released.store(true, Ordering::SeqCst);
        adm.release(250);
        second.join_unwrap();
    });
}

/// A reducer's lookup racing a worker death never observes torn state:
/// it sees the intact pre-death location or `None`, nothing else — and
/// after the death the entry is gone for every later reader.
#[test]
fn tracker_lookup_during_worker_death_sees_all_or_nothing() {
    model(|| {
        let tracker = Arc::new(MapOutputTracker::new());
        let loc = BlockLocation {
            worker: 0,
            len: 8,
            checksum: 0xcc,
        };
        tracker.register(1, 0, 0, loc);
        let reader = {
            let tracker = Arc::clone(&tracker);
            thread::spawn(move || tracker.lookup(1, 0, 0))
        };
        let death = {
            let tracker = Arc::clone(&tracker);
            thread::spawn(move || tracker.invalidate_worker(0))
        };
        let seen = reader.join_unwrap();
        let lost = death.join_unwrap();
        assert!(
            seen == Some(loc) || seen.is_none(),
            "lookup saw a torn location: {seen:?}"
        );
        assert_eq!(lost, 1, "the death dropped exactly the one entry");
        assert_eq!(tracker.lookup(1, 0, 0), None);
        assert_eq!(tracker.epoch(), 1);
    });
}
