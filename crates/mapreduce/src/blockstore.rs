//! "HDFS-lite": a tiny in-memory replicated block store.
//!
//! The paper stages its datasets on HDFS; mappers read their split from the
//! block containing it. This module models just enough of that behaviour
//! for the examples and I/O accounting: named files are stored as
//! fixed-size blocks, each block carries a replication factor, and the
//! store meters bytes read and written.

use crate::sync::{rank, RankedRwLock};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default block size (small on purpose — test datasets are small too).
pub const DEFAULT_BLOCK_SIZE: usize = 64 * 1024;

/// A replicated, block-structured in-memory file store.
#[derive(Debug)]
pub struct BlockStore {
    block_size: usize,
    replication: usize,
    files: RankedRwLock<BTreeMap<String, Vec<Arc<[u8]>>>>,
    bytes_written: AtomicU64,
    bytes_read: AtomicU64,
}

impl Default for BlockStore {
    fn default() -> Self {
        Self::new(DEFAULT_BLOCK_SIZE, 3)
    }
}

impl BlockStore {
    /// Creates a store with the given block size and replication factor.
    /// Zero values are clamped to 1 (a zero block size cannot chunk, and
    /// replication below 1 would drop data in a real DFS).
    pub fn new(block_size: usize, replication: usize) -> Self {
        Self {
            block_size: block_size.max(1),
            replication: replication.max(1),
            files: RankedRwLock::new(rank::BLOCKSTORE_FILES, "blockstore.files", BTreeMap::new()),
            bytes_written: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
        }
    }

    /// Block size files are chunked into.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Replication factor charged on writes.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Writes (or overwrites) a file, splitting it into blocks. Charged
    /// write bytes include replication, like a real HDFS pipeline.
    pub fn write(&self, name: &str, data: &[u8]) {
        self.insert([(name, data)]);
    }

    /// Writes several files under a single lock acquisition, so a
    /// multi-file artifact (e.g. a segmented dataset spill: one header
    /// plus one file per column) appears atomically — readers see either
    /// none or all of the files. Write bytes are charged with
    /// replication, exactly as per-file [`BlockStore::write`] would.
    pub fn write_many(&self, entries: &[(String, Vec<u8>)]) {
        self.insert(
            entries
                .iter()
                .map(|(name, data)| (name.as_str(), &data[..])),
        );
    }

    /// The one write path: chunks each file into blocks and charges its
    /// replicated bytes, all under one acquisition of the file map.
    fn insert<'d>(&self, entries: impl IntoIterator<Item = (&'d str, &'d [u8])>) {
        let mut files = self.files.write();
        for (name, data) in entries {
            let charged = (data.len() * self.replication) as u64;
            // audit: relaxed-ok — monotonic byte counter; read via
            // bytes_written() after jobs join.
            self.bytes_written.fetch_add(charged, Ordering::Relaxed);
            let blocks = data.chunks(self.block_size).map(Arc::from).collect();
            files.insert(name.to_string(), blocks);
        }
    }

    /// Reads a whole file back; `None` if absent.
    pub fn read(&self, name: &str) -> Option<Vec<u8>> {
        let files = self.files.read();
        let blocks = files.get(name)?;
        let mut out = Vec::with_capacity(blocks.iter().map(|b| b.len()).sum());
        for b in blocks {
            out.extend_from_slice(b);
        }
        // audit: relaxed-ok — monotonic byte counter.
        self.bytes_read
            .fetch_add(out.len() as u64, Ordering::Relaxed);
        Some(out)
    }

    /// Reads one block of a file; `None` if the file or block is absent.
    pub fn read_block(&self, name: &str, index: usize) -> Option<Arc<[u8]>> {
        let files = self.files.read();
        let block = files.get(name)?.get(index)?.clone();
        // audit: relaxed-ok — monotonic byte counter.
        self.bytes_read
            .fetch_add(block.len() as u64, Ordering::Relaxed);
        Some(block)
    }

    /// Number of blocks of a file; `None` if absent.
    pub fn num_blocks(&self, name: &str) -> Option<usize> {
        self.files.read().get(name).map(|b| b.len())
    }

    /// File size in bytes; `None` if absent.
    pub fn file_size(&self, name: &str) -> Option<usize> {
        self.files
            .read()
            .get(name)
            .map(|b| b.iter().map(|x| x.len()).sum())
    }

    /// Deletes a file; returns whether it existed.
    pub fn delete(&self, name: &str) -> bool {
        self.files.write().remove(name).is_some()
    }

    /// Deletes every file whose name starts with `prefix` under a single
    /// lock acquisition (the teardown counterpart of
    /// [`BlockStore::write_many`]); returns how many were removed.
    pub fn delete_prefix(&self, prefix: &str) -> usize {
        let mut files = self.files.write();
        let doomed: Vec<String> = files
            .range(prefix.to_string()..)
            .take_while(|(name, _)| name.starts_with(prefix))
            .map(|(name, _)| name.clone())
            .collect();
        for name in &doomed {
            files.remove(name);
        }
        doomed.len()
    }

    /// Lists file names.
    pub fn list(&self) -> Vec<String> {
        self.files.read().keys().cloned().collect()
    }

    /// Total bytes written (replication included).
    pub fn bytes_written(&self) -> u64 {
        // audit: relaxed-ok — metric read; callers sample after joins.
        self.bytes_written.load(Ordering::Relaxed)
    }

    /// Total bytes read.
    pub fn bytes_read(&self) -> u64 {
        // audit: relaxed-ok — metric read; callers sample after joins.
        self.bytes_read.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let store = BlockStore::new(4, 1);
        let data = b"hello block store".to_vec();
        store.write("f", &data);
        assert_eq!(store.read("f").unwrap(), data);
        assert_eq!(store.num_blocks("f"), Some(5)); // 17 bytes / 4 per block
        assert_eq!(store.file_size("f"), Some(17));
    }

    #[test]
    fn replication_charged_on_write() {
        let store = BlockStore::new(1024, 3);
        store.write("f", &[0u8; 100]);
        assert_eq!(store.bytes_written(), 300);
    }

    #[test]
    fn block_reads() {
        let store = BlockStore::new(2, 1);
        store.write("f", b"abcdef");
        assert_eq!(store.read_block("f", 0).unwrap().as_ref(), b"ab");
        assert_eq!(store.read_block("f", 2).unwrap().as_ref(), b"ef");
        assert!(store.read_block("f", 3).is_none());
        assert!(store.read_block("g", 0).is_none());
        assert_eq!(store.bytes_read(), 4);
    }

    #[test]
    fn missing_and_delete() {
        let store = BlockStore::default();
        assert!(store.read("nope").is_none());
        store.write("x", b"1");
        assert!(store.delete("x"));
        assert!(!store.delete("x"));
        assert!(store.list().is_empty());
    }

    #[test]
    fn overwrite_replaces_content() {
        let store = BlockStore::new(8, 1);
        store.write("f", b"first");
        store.write("f", b"second!");
        assert_eq!(store.read("f").unwrap(), b"second!".to_vec());
    }

    #[test]
    fn write_many_and_delete_prefix() {
        let store = BlockStore::new(8, 2);
        store.write_many(&[
            ("ds/a/header".to_string(), vec![1u8; 4]),
            ("ds/a/seg-0".to_string(), vec![2u8; 10]),
            ("ds/a/seg-1".to_string(), vec![3u8; 10]),
        ]);
        store.write("ds/ab", b"sibling");
        assert_eq!(store.bytes_written(), (4 + 10 + 10 + 7) * 2);
        assert_eq!(store.read("ds/a/seg-1").unwrap(), vec![3u8; 10]);
        // The trailing-slash prefix removes only the directory's files.
        assert_eq!(store.delete_prefix("ds/a/"), 3);
        assert!(store.read("ds/a/header").is_none());
        assert_eq!(store.read("ds/ab").unwrap(), b"sibling".to_vec());
        assert_eq!(store.delete_prefix("ds/a/"), 0);
    }

    #[test]
    fn empty_file() {
        let store = BlockStore::default();
        store.write("empty", b"");
        assert_eq!(store.read("empty").unwrap(), Vec::<u8>::new());
        assert_eq!(store.num_blocks("empty"), Some(0));
    }
}
