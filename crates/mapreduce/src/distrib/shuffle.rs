//! Verified shuffle-partition storage of one node.
//!
//! One [`ShuffleManager`] is the storage hop of the data plane — a
//! worker process owns one, and the in-process shuffle service of
//! [`crate::distrib::LocalBackend`] keeps one on the master. Integrity is
//! checked where a partition changes hands, once per hop (DESIGN.md
//! §12): the producer records the partition's [`wordsum64`] — the
//! in-flight checksum; FNV-1a is for persisted formats only — before
//! the bytes leave; the
//! manager re-hashes every partition **at the door** and refuses one
//! that does not match; from then on the *verified* sum stays with the
//! bytes and is handed back on every read instead of being recomputed,
//! because the consumer re-hashes what it receives against the
//! producer's record anyway. The manager keeps the buffer a partition
//! arrived in, so storing and serving copy nothing.

use p3c_dataset::bytes::wordsum64;
use std::collections::BTreeMap;

/// Storage-side shuffle failures, reported over the wire as `OP_ERR`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShuffleError {
    /// The partition was never stored here, or was deleted.
    Missing {
        /// The missing partition's name.
        key: String,
    },
    /// The bytes offered for storing do not match the checksum their
    /// producer claims for them.
    Corrupt {
        /// The corrupt partition's name.
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

/// Display name of one shuffle partition.
pub fn shuffle_key(shuffle_id: u64, map_id: usize, reduce_id: usize) -> String {
    format!("shuffle/{shuffle_id}/{map_id}/{reduce_id}")
}

/// One stored partition: `buf[data_at..]`, in the buffer it arrived in.
#[derive(Debug)]
struct Stored {
    checksum: u64,
    buf: Vec<u8>,
    data_at: usize,
}

/// Verified partitions of one storage node, keyed by
/// `(shuffle_id, map_id, reduce_id)`. Unreplicated: shuffle output is
/// transient and re-creatable from lineage, exactly like Hadoop's map
/// output.
#[derive(Debug, Default)]
pub struct ShuffleManager {
    partitions: BTreeMap<(u64, usize, usize), Stored>,
}

impl ShuffleManager {
    /// An empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Verifies `buf[data_at..]` against the producer's `claimed`
    /// checksum and, if it matches, keeps the buffer (whatever framing
    /// precedes `data_at` rides along, so nothing is copied) together
    /// with the now-verified sum. A re-executed map task's partition
    /// replaces the lost original.
    ///
    /// # Errors
    /// [`ShuffleError::Corrupt`] if the bytes do not hash to `claimed`
    /// (or `data_at` lies past the buffer); nothing is stored.
    pub fn store_partition(
        &mut self,
        shuffle_id: u64,
        map_id: usize,
        reduce_id: usize,
        claimed: u64,
        buf: Vec<u8>,
        data_at: usize,
    ) -> Result<(), ShuffleError> {
        if buf.get(data_at..).map(wordsum64) != Some(claimed) {
            return Err(ShuffleError::Corrupt {
                key: shuffle_key(shuffle_id, map_id, reduce_id),
            });
        }
        let stored = Stored {
            checksum: claimed,
            buf,
            data_at,
        };
        self.partitions
            .insert((shuffle_id, map_id, reduce_id), stored);
        Ok(())
    }

    /// One stored partition with the checksum verified when it came in.
    ///
    /// # Errors
    /// [`ShuffleError::Missing`] if it is not (or no longer) here.
    pub fn partition(
        &self,
        shuffle_id: u64,
        map_id: usize,
        reduce_id: usize,
    ) -> Result<(u64, &[u8]), ShuffleError> {
        match self.partitions.get(&(shuffle_id, map_id, reduce_id)) {
            Some(stored) => Ok((stored.checksum, &stored.buf[stored.data_at..])),
            None => Err(ShuffleError::Missing {
                key: shuffle_key(shuffle_id, map_id, reduce_id),
            }),
        }
    }

    /// Deletes every partition of one shuffle id; returns how many were
    /// removed.
    pub fn delete_shuffle(&mut self, shuffle_id: u64) -> usize {
        let before = self.partitions.len();
        self.partitions.retain(|&(sid, _, _), _| sid != shuffle_id);
        before - self.partitions.len()
    }

    /// Deletes everything (shutdown); returns how many were removed.
    pub fn clear(&mut self) -> usize {
        std::mem::take(&mut self.partitions).len()
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    fn store(m: &mut ShuffleManager, sid: u64, map: usize, reduce: usize, data: &[u8]) {
        m.store_partition(sid, map, reduce, wordsum64(data), data.to_vec(), 0)
            .unwrap();
    }

    #[test]
    fn store_fetch_roundtrip_with_checksum() {
        let mut m = ShuffleManager::new();
        // The partition may sit behind framing in the buffer it came in.
        let mut framed = b"header".to_vec();
        framed.extend_from_slice(b"partition bytes");
        let sum = wordsum64(b"partition bytes");
        m.store_partition(3, 1, 2, sum, framed, 6).unwrap();
        assert_eq!(m.partition(3, 1, 2), Ok((sum, &b"partition bytes"[..])));
    }

    #[test]
    fn missing_and_corrupt_are_distinct_errors() {
        let mut m = ShuffleManager::new();
        assert!(matches!(
            m.partition(1, 0, 0),
            Err(ShuffleError::Missing { .. })
        ));
        let sum = wordsum64(b"data");
        for (claimed, data_at) in [(sum ^ 1, 0), (sum, 1), (sum, 5)] {
            assert!(matches!(
                m.store_partition(1, 0, 0, claimed, b"data".to_vec(), data_at),
                Err(ShuffleError::Corrupt { .. })
            ));
        }
        // Nothing refused was kept.
        assert!(m.partition(1, 0, 0).is_err());
    }

    #[test]
    fn delete_shuffle_scopes_to_sid() {
        let mut m = ShuffleManager::new();
        store(&mut m, 1, 0, 0, b"a");
        store(&mut m, 1, 0, 1, b"b");
        store(&mut m, 10, 0, 0, b"c");
        assert_eq!(m.delete_shuffle(1), 2);
        assert!(m.partition(10, 0, 0).is_ok());
        assert_eq!(m.clear(), 1);
    }

    #[test]
    fn empty_partition_roundtrips() {
        let mut m = ShuffleManager::new();
        store(&mut m, 2, 0, 0, b"");
        assert_eq!(m.partition(2, 0, 0), Ok((wordsum64(b""), &b""[..])));
        store(&mut m, 2, 0, 0, b"again");
        assert_eq!(m.partition(2, 0, 0).unwrap().1, b"again");
    }
}
