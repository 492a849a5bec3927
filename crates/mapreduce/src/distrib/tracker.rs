//! Master-side registry of shuffle partition locations.
//!
//! Every map task that finishes registers, per reducer, where its
//! partition bytes live — which worker holds them, how long they are,
//! and their [`wordsum64`] (the byte layer's checksum, here summing
//! bytes in flight), computed by the producer before the bytes leave
//! it. That record is what a fetched partition is verified against
//! ([`BlockLocation::verifies`]). Reducers consult the tracker before
//! each fetch; when a worker dies, [`MapOutputTracker::invalidate_worker`]
//! removes every entry it held, so the next lookup reports the map
//! output as lost and the engine re-executes that map task (Hadoop's
//! "map output lost, re-running map" path; DESIGN.md §12).
//!
//! Like the kernels in [`crate::kernel`], the tracker swaps its
//! primitives for the `p3c-loom` shims under `--cfg loom`; the
//! `loom_models` integration test explores register/lookup/invalidate
//! interleavings exhaustively.

#[cfg(loom)]
use p3c_loom::sync::atomic::{AtomicUsize, Ordering};
#[cfg(not(loom))]
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::sync::{rank, RankedMutex};
use p3c_dataset::bytes::wordsum64;
use std::collections::BTreeMap;

/// Where one `(shuffle_id, map_id, reduce_id)` partition lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockLocation {
    /// Index of the worker holding the bytes.
    pub worker: usize,
    /// Size of the partition in bytes.
    pub len: u64,
    /// [`wordsum64`] of the partition bytes, as the producer hashed them.
    pub checksum: u64,
}

impl BlockLocation {
    /// The consumer's end of the integrity chain: `data` is what a fetch
    /// returned and `claimed` the checksum the storage node verified when
    /// it took the partition in. Both must agree with the producer's
    /// record — the bytes by length and by a fresh hash, so corruption in
    /// storage or on the way back cannot hide behind an honest `claimed`.
    pub fn verifies(&self, claimed: u64, data: &[u8]) -> bool {
        claimed == self.checksum
            && data.len() as u64 == self.len
            && wordsum64(data) == self.checksum
    }
}

/// Registry mapping `(shuffle_id, map_id, reduce_id)` to a
/// [`BlockLocation`]. Keyed by a `BTreeMap` so diagnostic listings are
/// deterministically ordered.
#[derive(Debug)]
pub struct MapOutputTracker {
    entries: RankedMutex<BTreeMap<(u64, usize, usize), BlockLocation>>,
    /// Bumped on every invalidation; a fetch that spans a worker death
    /// can compare epochs to learn that its lookup is stale.
    epoch: AtomicUsize,
}

impl Default for MapOutputTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl MapOutputTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        Self {
            entries: RankedMutex::new(rank::TRACKER_ENTRIES, "tracker.entries", BTreeMap::new()),
            epoch: AtomicUsize::new(0),
        }
    }

    /// Records where a partition lives, replacing any previous entry
    /// (re-executed map tasks overwrite their lost registrations).
    pub fn register(&self, shuffle_id: u64, map_id: usize, reduce_id: usize, loc: BlockLocation) {
        self.entries
            .lock()
            .insert((shuffle_id, map_id, reduce_id), loc);
    }

    /// Looks up a partition's location; `None` means the map output is
    /// lost (never registered, or invalidated by a worker death).
    pub fn lookup(
        &self,
        shuffle_id: u64,
        map_id: usize,
        reduce_id: usize,
    ) -> Option<BlockLocation> {
        self.entries
            .lock()
            .get(&(shuffle_id, map_id, reduce_id))
            .copied()
    }

    /// Removes every entry held by `worker` (it died) and bumps the
    /// epoch; returns how many partitions were lost.
    pub fn invalidate_worker(&self, worker: usize) -> usize {
        let mut entries = self.entries.lock();
        let before = entries.len();
        entries.retain(|_, loc| loc.worker != worker);
        let lost = before - entries.len();
        self.epoch.fetch_add(1, Ordering::AcqRel);
        lost
    }

    /// Drops every entry of one shuffle id (stage cleanup); returns how
    /// many were removed.
    pub fn unregister_shuffle(&self, shuffle_id: u64) -> usize {
        let mut entries = self.entries.lock();
        let before = entries.len();
        entries.retain(|&(sid, _, _), _| sid != shuffle_id);
        before - entries.len()
    }

    /// Current invalidation epoch.
    pub fn epoch(&self) -> usize {
        self.epoch.load(Ordering::Acquire)
    }

    /// Number of registered partitions.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// Whether the tracker holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    fn loc(worker: usize) -> BlockLocation {
        BlockLocation {
            worker,
            len: 10,
            checksum: 0xabc,
        }
    }

    #[test]
    fn a_fetch_verifies_only_against_the_producers_whole_record() {
        let data = b"partition bytes";
        let loc = BlockLocation {
            worker: 0,
            len: data.len() as u64,
            checksum: wordsum64(data),
        };
        assert!(loc.verifies(loc.checksum, data));
        // A storage node vouching for something else, rotted bytes behind
        // an honest claim, and a short read are all mismatches.
        assert!(!loc.verifies(loc.checksum ^ 1, data));
        assert!(!loc.verifies(loc.checksum, b"partition bytez"));
        assert!(!loc.verifies(loc.checksum, &data[..14]));
    }

    #[test]
    fn register_lookup_roundtrip() {
        let t = MapOutputTracker::new();
        assert!(t.is_empty());
        assert_eq!(t.lookup(1, 0, 0), None);
        t.register(1, 0, 0, loc(2));
        assert_eq!(t.lookup(1, 0, 0), Some(loc(2)));
        assert_eq!(t.len(), 1);
        // Re-registration replaces.
        t.register(1, 0, 0, loc(3));
        assert_eq!(t.lookup(1, 0, 0), Some(loc(3)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn invalidate_worker_drops_only_its_entries() {
        let t = MapOutputTracker::new();
        t.register(1, 0, 0, loc(0));
        t.register(1, 1, 0, loc(1));
        t.register(2, 0, 0, loc(0));
        let e0 = t.epoch();
        assert_eq!(t.invalidate_worker(0), 2);
        assert_eq!(t.epoch(), e0 + 1);
        assert_eq!(t.lookup(1, 0, 0), None);
        assert_eq!(t.lookup(2, 0, 0), None);
        assert_eq!(t.lookup(1, 1, 0), Some(loc(1)));
    }

    #[test]
    fn unregister_shuffle_scopes_to_sid() {
        let t = MapOutputTracker::new();
        t.register(7, 0, 0, loc(0));
        t.register(7, 0, 1, loc(1));
        t.register(8, 0, 0, loc(0));
        assert_eq!(t.unregister_shuffle(7), 2);
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(8, 0, 0), Some(loc(0)));
        assert_eq!(t.unregister_shuffle(7), 0);
    }
}
