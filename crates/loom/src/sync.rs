//! Model-checked stand-ins for the `std::sync` primitives.
//!
//! API mirrors what the engine kernels use: `Mutex::lock` returns the
//! guard directly (no poison result, like `p3c_mapreduce::sync`), atomics expose
//! the usual `load`/`store`/RMW surface. Every operation passes through a
//! scheduler decision point, so [`crate::model`] explores all
//! interleavings of these operations.
//!
//! The exploration is *sequentially consistent*: `Ordering` arguments are
//! accepted for source compatibility but all accesses are executed
//! SeqCst. Properties proven here are interleaving properties (atomicity
//! of read-modify-writes, mutual exclusion, ordering of lock hand-offs) —
//! not weak-memory reordering properties.

use crate::sched::with_context;
use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};

pub mod atomic {
    //! Model-checked atomic integers and booleans.

    pub use std::sync::atomic::Ordering;

    use super::switch_point;
    use std::sync::atomic::Ordering as O;

    macro_rules! shim_atomic {
        ($(#[$doc:meta])* $name:ident, $std:ty, $prim:ty) => {
            $(#[$doc])*
            #[derive(Debug, Default)]
            pub struct $name {
                inner: $std,
            }

            impl $name {
                /// A new atomic with the given initial value.
                pub const fn new(v: $prim) -> Self {
                    Self { inner: <$std>::new(v) }
                }

                /// Model-checked load (explored as SeqCst).
                pub fn load(&self, _order: O) -> $prim {
                    switch_point();
                    self.inner.load(O::SeqCst)
                }

                /// Model-checked store (explored as SeqCst).
                pub fn store(&self, v: $prim, _order: O) {
                    switch_point();
                    self.inner.store(v, O::SeqCst)
                }

                /// Model-checked swap (explored as SeqCst).
                pub fn swap(&self, v: $prim, _order: O) -> $prim {
                    switch_point();
                    self.inner.swap(v, O::SeqCst)
                }

                /// Model-checked compare-exchange (explored as SeqCst).
                pub fn compare_exchange(
                    &self,
                    current: $prim,
                    new: $prim,
                    _success: O,
                    _failure: O,
                ) -> Result<$prim, $prim> {
                    switch_point();
                    self.inner.compare_exchange(current, new, O::SeqCst, O::SeqCst)
                }

                /// Consumes the atomic, returning the value (no decision
                /// point: requires exclusive ownership).
                pub fn into_inner(self) -> $prim {
                    self.inner.into_inner()
                }
            }
        };
    }

    shim_atomic!(
        /// Model-checked `AtomicUsize`.
        AtomicUsize,
        std::sync::atomic::AtomicUsize,
        usize
    );
    shim_atomic!(
        /// Model-checked `AtomicU64`.
        AtomicU64,
        std::sync::atomic::AtomicU64,
        u64
    );
    shim_atomic!(
        /// Model-checked `AtomicBool`.
        AtomicBool,
        std::sync::atomic::AtomicBool,
        bool
    );

    macro_rules! shim_fetch_arith {
        ($name:ident, $prim:ty) => {
            impl $name {
                /// Model-checked fetch-add (explored as SeqCst).
                pub fn fetch_add(&self, v: $prim, _order: O) -> $prim {
                    switch_point();
                    self.inner.fetch_add(v, O::SeqCst)
                }

                /// Model-checked fetch-sub (explored as SeqCst).
                pub fn fetch_sub(&self, v: $prim, _order: O) -> $prim {
                    switch_point();
                    self.inner.fetch_sub(v, O::SeqCst)
                }
            }
        };
    }

    shim_fetch_arith!(AtomicUsize, usize);
    shim_fetch_arith!(AtomicU64, u64);
}

/// Decision point before a visible operation of the current thread.
fn switch_point() {
    with_context(|reg, me| reg.switch(me));
}

/// A model-checked mutex whose `lock()` returns the guard directly.
///
/// Must be created inside [`crate::model`]: construction registers the
/// lock with the current execution's scheduler.
#[derive(Debug)]
pub struct Mutex<T> {
    id: usize,
    cell: UnsafeCell<T>,
}

// Safety: the scheduler runs exactly one model thread at a time and the
// ownership table gates access to the cell, so aliased mutable access
// cannot occur.
unsafe impl<T: Send> Send for Mutex<T> {}
unsafe impl<T: Send> Sync for Mutex<T> {}

impl<T> Mutex<T> {
    /// A new model-checked mutex guarding `value`.
    pub fn new(value: T) -> Self {
        let id = with_context(|reg, _| reg.register_mutex());
        Self {
            id,
            cell: UnsafeCell::new(value),
        }
    }

    /// Acquires the lock, parking this thread while it is contended.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        with_context(|reg, me| reg.mutex_lock(me, self.id));
        MutexGuard { mutex: self }
    }

    /// Consumes the mutex, returning the guarded value.
    pub fn into_inner(self) -> T {
        self.cell.into_inner()
    }
}

/// RAII guard of a [`Mutex`]; releases on drop.
pub struct MutexGuard<'a, T> {
    mutex: &'a Mutex<T>,
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // Safety: guard existence implies ownership in the scheduler's
        // mutex table; only one guard per mutex can exist at a time.
        unsafe { &*self.mutex.cell.get() }
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // Safety: as in `Deref`.
        unsafe { &mut *self.mutex.cell.get() }
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        with_context(|reg, me| reg.mutex_unlock(me, self.mutex.id));
    }
}

/// A model-checked condition variable; `wait` takes the guard by reference.
///
/// `wait` atomically releases the guard's mutex and parks until a notify,
/// then reacquires the mutex before returning — the guard stays valid
/// across the call. As with real condvars a notify issued while no thread
/// is parked is lost, so callers must loop on a predicate.
#[derive(Debug)]
pub struct Condvar {
    id: usize,
}

impl Condvar {
    /// A new model-checked condvar, registered with the current
    /// execution's scheduler.
    pub fn new() -> Self {
        let id = with_context(|reg, _| reg.register_condvar());
        Self { id }
    }

    /// Releases the guard's mutex and parks until notified; the mutex is
    /// reacquired (contending if necessary) before this returns.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let mutex_id = guard.mutex.id;
        with_context(|reg, me| reg.condvar_wait(me, self.id, mutex_id));
    }

    /// Wakes every parked waiter.
    pub fn notify_all(&self) {
        with_context(|reg, _| reg.condvar_notify_all(self.id));
    }

    /// Wakes one parked waiter (the lowest-numbered, deterministically).
    pub fn notify_one(&self) {
        with_context(|reg, _| reg.condvar_notify_one(self.id));
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Self::new()
    }
}

// Re-exported so shimmed code can keep `Ordering` imports stable.
pub use std::sync::atomic::Ordering;
