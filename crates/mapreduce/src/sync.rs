//! Rank-checked lock wrappers enforcing the DESIGN.md §15 lock
//! hierarchy at runtime.
//!
//! Every named lock in the workspace has a rank (see [`rank`]); a thread
//! may only acquire locks in **strictly ascending rank order**. Under the
//! `lockcheck` feature each acquisition asserts the new rank is greater
//! than every rank the thread already holds — a violation panics with
//! both lock names, turning any hierarchy bug into a deterministic test
//! failure instead of a rare deadlock. Without the feature the wrappers
//! are thin newtypes over this module's [`Mutex`] and [`Condvar`]: the
//! `std::sync` primitives with poisoning swallowed, so `lock()` hands
//! back a guard, not a `Result`. A panic under a lock is reported once,
//! by whoever joins the thread (the worker pool), not again by every
//! later acquisition.
//!
//! Under `--cfg loom` the ranked mutex and condvar delegate to the
//! [`p3c_loom`] model-checked shims instead, so structures built on
//! these wrappers (the service admission gate, the shuffle tracker) can
//! be model-checked without code changes. The rank assertions stay on in
//! loom builds only when `lockcheck` is also enabled.

#[cfg(not(loom))]
use self::{Condvar as RawCondvar, Mutex as RawMutex, MutexGuard as RawMutexGuard};
#[cfg(loom)]
use p3c_loom::sync::{Condvar as RawCondvar, Mutex as RawMutex, MutexGuard as RawMutexGuard};
use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;

/// A non-poisoning mutex over [`std::sync::Mutex`].
#[derive(Debug, Default)]
pub struct Mutex<T> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// A new mutex guarding `value`.
    pub const fn new(value: T) -> Self {
        Self {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Acquires the lock, blocking until it is free.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)),
        }
    }

    /// Consumes the mutex, returning the guarded value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// RAII guard of a [`Mutex`]. The std guard sits in an `Option` so
/// [`Condvar::wait`] can hand it to the std condvar and take it back;
/// it is `Some` whenever the guard is reachable.
pub struct MutexGuard<'a, T> {
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present outside wait")
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present outside wait")
    }
}

/// A condition variable paired with a [`Mutex`].
#[derive(Debug, Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// A new condvar.
    pub const fn new() -> Self {
        Self {
            inner: std::sync::Condvar::new(),
        }
    }

    /// Atomically releases the guard's mutex and waits for a notify; the
    /// mutex is reacquired before this returns.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let held = guard.inner.take().expect("guard present outside wait");
        guard.inner = Some(
            self.inner
                .wait(held)
                .unwrap_or_else(PoisonError::into_inner),
        );
    }

    /// Wakes every thread waiting on this condvar.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }

    /// Wakes one thread waiting on this condvar.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }
}

pub mod rank {
    //! The workspace lock hierarchy — one rank per named lock, mirrored
    //! in the DESIGN.md §15 table. Acquisition must be strictly
    //! ascending; gaps leave room for future locks.

    /// `ClusterService.tenants` — the tenant registry map.
    pub const SERVICE_TENANTS: u16 = 10;
    /// `Admission.state` — the admission byte/job ledger.
    pub const SERVICE_ADMISSION: u16 = 20;
    /// Per-tenant `Mutex<T>` serializing one tenant's operations.
    pub const SERVICE_TENANT: u16 = 30;
    /// `ClusterService.published` — last published model per tenant.
    /// Above the tenant lock: a finished re-cluster publishes its model
    /// while still holding the tenant it computed it under.
    pub const SERVICE_PUBLISHED: u16 = 35;
    /// Engine metrics ledger (`engine.rs`).
    pub const ENGINE_LEDGER: u16 = 55;
    /// Engine lost-map recovery serialization (`engine.rs`).
    pub const ENGINE_RECOVERY: u16 = 60;
    /// Engine first-error capture slots (`engine.rs`).
    pub const ENGINE_ERROR: u16 = 65;
    /// `ProcessBackend.state` / cluster connection table (`distrib`).
    pub const BACKEND_STATE: u16 = 70;
    /// `LocalBackend` injected-loss set (`distrib/backend.rs`).
    pub const BACKEND_LOST: u16 = 72;
    /// Backend per-shuffle statistics maps (`distrib`).
    pub const BACKEND_STATS: u16 = 75;
    /// `MapOutputTracker.entries` (`distrib/tracker.rs`).
    pub const TRACKER_ENTRIES: u16 = 78;
    /// `DatasetStore.inner` — the dataset cache (`dataset.rs`).
    pub const DATASET_STORE: u16 = 80;
    /// Worker panic-payload slot (`pool.rs`).
    pub const POOL_PAYLOAD: u16 = 100;
    /// Shuffle bucket slots (`kernel.rs`).
    pub const KERNEL_BUCKETS: u16 = 110;
    /// Block-partial slots (`kernel.rs`).
    pub const KERNEL_PARTIALS: u16 = 112;
}

#[cfg(feature = "lockcheck")]
mod held {
    //! Thread-local stack of held ranks, consulted on every acquisition.

    use std::cell::RefCell;

    thread_local! {
        static HELD: RefCell<Vec<(u16, &'static str)>> = const { RefCell::new(Vec::new()) };
    }

    pub fn acquired(rank: u16, name: &'static str) {
        HELD.with(|h| {
            let mut h = h.borrow_mut();
            if let Some(&(top, top_name)) = h.iter().max_by_key(|&&(r, _)| r) {
                assert!(
                    rank > top,
                    "lock-rank violation: acquiring '{name}' (rank {rank}) while \
                     holding '{top_name}' (rank {top}); acquisition must be strictly \
                     ascending — see DESIGN.md §15"
                );
            }
            h.push((rank, name));
        });
    }

    pub fn released(rank: u16) {
        HELD.with(|h| {
            let mut h = h.borrow_mut();
            if let Some(pos) = h.iter().rposition(|&(r, _)| r == rank) {
                h.remove(pos);
            }
        });
    }
}

#[cfg(not(feature = "lockcheck"))]
mod held {
    #[inline(always)]
    pub fn acquired(_rank: u16, _name: &'static str) {}
    #[inline(always)]
    pub fn released(_rank: u16) {}
}

/// A mutex with a declared rank in the workspace lock hierarchy.
#[derive(Debug)]
pub struct RankedMutex<T> {
    rank: u16,
    name: &'static str,
    inner: RawMutex<T>,
}

impl<T> RankedMutex<T> {
    /// A new mutex at `rank` (one of the [`rank`] constants) named as in
    /// the DESIGN.md §15 table.
    pub fn new(rank: u16, name: &'static str, value: T) -> Self {
        Self {
            rank,
            name,
            inner: RawMutex::new(value),
        }
    }

    /// Acquires the lock, asserting (under `lockcheck`) that `rank` is
    /// strictly above every rank this thread already holds.
    pub fn lock(&self) -> RankedMutexGuard<'_, T> {
        held::acquired(self.rank, self.name);
        RankedMutexGuard {
            raw: self.inner.lock(),
            rank: self.rank,
        }
    }
}

/// RAII guard of a [`RankedMutex`]; pops the rank and releases on drop.
pub struct RankedMutexGuard<'a, T> {
    raw: RawMutexGuard<'a, T>,
    rank: u16,
}

impl<T> Deref for RankedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.raw
    }
}

impl<T> DerefMut for RankedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.raw
    }
}

impl<T> Drop for RankedMutexGuard<'_, T> {
    fn drop(&mut self) {
        held::released(self.rank);
    }
}

/// A condition variable paired with a [`RankedMutex`].
///
/// The held rank stays on the thread's stack across `wait` — the mutex
/// is reacquired before `wait` returns, so to other acquisitions by this
/// thread the lock was never given up.
#[derive(Debug, Default)]
pub struct RankedCondvar {
    inner: RawCondvar,
}

impl RankedCondvar {
    /// A new condvar.
    pub fn new() -> Self {
        Self {
            inner: RawCondvar::new(),
        }
    }

    /// Atomically releases the guard's mutex and waits for a notify; the
    /// mutex is reacquired before this returns.
    pub fn wait<T>(&self, guard: &mut RankedMutexGuard<'_, T>) {
        self.inner.wait(&mut guard.raw);
    }

    /// Wakes every thread waiting on this condvar.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }

    /// Wakes one thread waiting on this condvar.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn ascending_acquisition_is_allowed() {
        let a = RankedMutex::new(rank::SERVICE_TENANTS, "service.tenants", 1);
        let b = RankedMutex::new(rank::DATASET_STORE, "dataset.inner", 2);
        let ga = a.lock();
        let gb = b.lock();
        assert_eq!(*ga + *gb, 3);
    }

    #[test]
    fn out_of_order_release_keeps_stack_consistent() {
        let a = RankedMutex::new(rank::SERVICE_TENANTS, "service.tenants", ());
        let b = RankedMutex::new(rank::DATASET_STORE, "dataset.inner", ());
        let c = RankedMutex::new(rank::POOL_PAYLOAD, "pool.payload", ());
        let ga = a.lock();
        let gb = b.lock();
        drop(ga); // release the lower rank first
        let gc = c.lock(); // still ascending relative to what's held
        drop(gb);
        drop(gc);
        let _ga = a.lock(); // stack must be empty again
    }

    #[cfg(feature = "lockcheck")]
    #[test]
    fn descending_acquisition_panics() {
        let result = std::thread::spawn(|| {
            let hi = RankedMutex::new(rank::POOL_PAYLOAD, "pool.payload", ());
            let lo = RankedMutex::new(rank::SERVICE_TENANTS, "service.tenants", ());
            let _ghi = hi.lock();
            let _glo = lo.lock();
        })
        .join();
        let err = result.expect_err("descending acquisition must panic");
        let msg = err
            .downcast_ref::<String>()
            .expect("panic payload is a String");
        assert!(msg.contains("lock-rank violation"), "got: {msg}");
    }
}
