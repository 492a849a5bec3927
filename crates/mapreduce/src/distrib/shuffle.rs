//! Checksummed shuffle-partition storage over a [`BlockStore`].
//!
//! One [`ShuffleManager`] fronts one store — the worker process wraps
//! its local store in one, and the in-process shuffle service of
//! [`crate::distrib::LocalBackend`] does the same on the master. Every
//! partition is written under `shuffle/{sid}/{map}/{reduce}` together
//! with its FNV-1a checksum, and every read re-verifies the checksum,
//! so corruption surfaces as a retryable error instead of silently
//! wrong reducer input.

use crate::blockstore::BlockStore;
use p3c_dataset::bytes::fnv1a64;

/// Storage-side shuffle failures, reported over the wire as `OP_ERR`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShuffleError {
    /// The partition was never stored here, or was deleted.
    Missing {
        /// The missing partition's block name.
        key: String,
    },
    /// The stored bytes no longer match the checksum recorded at store
    /// time.
    Corrupt {
        /// The corrupt partition's block name.
        key: String,
    },
}

impl std::fmt::Display for ShuffleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShuffleError::Missing { key } => write!(f, "shuffle partition '{key}' missing"),
            ShuffleError::Corrupt { key } => write!(f, "shuffle partition '{key}' corrupt"),
        }
    }
}

impl std::error::Error for ShuffleError {}

/// Block-store name of one shuffle partition.
pub fn shuffle_key(shuffle_id: u64, map_id: usize, reduce_id: usize) -> String {
    format!("shuffle/{shuffle_id}/{map_id}/{reduce_id}")
}

/// Writes and reads checksummed shuffle partitions on one block store.
#[derive(Debug, Default)]
pub struct ShuffleManager {
    store: BlockStore,
}

impl ShuffleManager {
    /// A manager over a fresh store with the given block size.
    /// Replication is 1: shuffle output is transient and re-creatable
    /// from lineage, exactly like Hadoop's un-replicated map output.
    pub fn new(block_size: usize) -> Self {
        Self {
            store: BlockStore::new(block_size, 1),
        }
    }

    /// The underlying store (for byte accounting).
    pub fn store(&self) -> &BlockStore {
        &self.store
    }

    /// Stores one partition and returns its checksum.
    pub fn store_partition(
        &self,
        shuffle_id: u64,
        map_id: usize,
        reduce_id: usize,
        data: &[u8],
    ) -> u64 {
        let checksum = fnv1a64(data);
        self.store
            .write(&shuffle_key(shuffle_id, map_id, reduce_id), data);
        checksum
    }

    /// Fetches one partition, verifying it against `expected_checksum`.
    pub fn fetch_partition(
        &self,
        shuffle_id: u64,
        map_id: usize,
        reduce_id: usize,
        expected_checksum: u64,
    ) -> Result<Vec<u8>, ShuffleError> {
        let key = shuffle_key(shuffle_id, map_id, reduce_id);
        let data = self
            .store
            .read(&key)
            .ok_or_else(|| ShuffleError::Missing { key: key.clone() })?;
        if fnv1a64(&data) != expected_checksum {
            return Err(ShuffleError::Corrupt { key });
        }
        Ok(data)
    }

    /// Deletes every partition of one shuffle id; returns how many
    /// block-store files were removed.
    pub fn delete_shuffle(&self, shuffle_id: u64) -> usize {
        self.store.delete_prefix(&format!("shuffle/{shuffle_id}/"))
    }

    /// Deletes everything (worker shutdown / injected crash).
    pub fn clear(&self) -> usize {
        self.store.delete_prefix("shuffle/")
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn store_fetch_roundtrip_with_checksum() {
        let m = ShuffleManager::new(64);
        let sum = m.store_partition(3, 1, 2, b"partition bytes");
        assert_eq!(sum, fnv1a64(b"partition bytes"));
        assert_eq!(m.fetch_partition(3, 1, 2, sum).unwrap(), b"partition bytes");
    }

    #[test]
    fn missing_and_corrupt_are_distinct_errors() {
        let m = ShuffleManager::new(64);
        assert!(matches!(
            m.fetch_partition(1, 0, 0, 0),
            Err(ShuffleError::Missing { .. })
        ));
        let sum = m.store_partition(1, 0, 0, b"data");
        assert!(matches!(
            m.fetch_partition(1, 0, 0, sum ^ 1),
            Err(ShuffleError::Corrupt { .. })
        ));
    }

    #[test]
    fn delete_shuffle_scopes_to_sid() {
        let m = ShuffleManager::new(64);
        m.store_partition(1, 0, 0, b"a");
        m.store_partition(1, 0, 1, b"b");
        m.store_partition(10, 0, 0, b"c");
        // Prefix "shuffle/1/" must not sweep sid 10.
        assert_eq!(m.delete_shuffle(1), 2);
        let sum = fnv1a64(b"c");
        assert!(m.fetch_partition(10, 0, 0, sum).is_ok());
        assert_eq!(m.clear(), 1);
    }

    #[test]
    fn empty_partition_roundtrips() {
        let m = ShuffleManager::new(64);
        let sum = m.store_partition(2, 0, 0, b"");
        assert_eq!(m.fetch_partition(2, 0, 0, sum).unwrap(), Vec::<u8>::new());
    }
}
