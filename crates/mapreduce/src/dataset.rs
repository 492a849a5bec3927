//! Named, materialized datasets: the clustering service's block cache.
//!
//! A [`DatasetStore`] is where the service ([`crate::service`]) keeps
//! its tenants' row blocks and models. The store is in-memory first;
//! under a byte budget it evicts least-recently-used entries, *spilling*
//! those that carry a codec to the [`crate::BlockStore`] "HDFS-lite" and
//! loading them back on the next read. An entry without a codec is never
//! evicted: the budget is overshot rather than losing data.
//!
//! The spill format is *segmented* ([`SegmentedCodec`],
//! [`DatasetStore::put_segmented`]): a small header plus one
//! independently-encoded file per segment (for a row block: per
//! attribute column), so each column compresses on its own; a
//! [`DatasetStore::get`] reloads and reassembles all of them.
//! Per-segment traffic is metered (`segment_reads`,
//! `segment_bytes_read` in [`DatasetStoreStats`]).

use crate::blockstore::BlockStore;
use crate::sync::{rank, RankedMutex};
use std::any::Any;
use std::collections::BTreeMap;
use std::fmt;
use std::marker::PhantomData;
use std::sync::Arc;

/// A typed, named reference to a dataset in a [`DatasetStore`].
///
/// Handles are cheap to clone and carry the element type as a phantom,
/// so reads stay type-checked while the store itself is type-erased.
pub struct DatasetHandle<T> {
    name: Arc<str>,
    _marker: PhantomData<fn() -> T>,
}

impl<T> DatasetHandle<T> {
    /// Creates a handle for the dataset of the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: Arc::from(name.into()),
            _marker: PhantomData,
        }
    }

    /// The dataset name — the store's key and the spill file stem.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl<T> Clone for DatasetHandle<T> {
    fn clone(&self) -> Self {
        Self {
            name: Arc::clone(&self.name),
            _marker: PhantomData,
        }
    }
}

impl<T> fmt::Debug for DatasetHandle<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DatasetHandle({})", self.name)
    }
}

/// Serialization functions for the *segmented* spill format: the value
/// splits into a small header plus independently-encoded segments (for
/// a row block: one per attribute column).
///
/// Type parameters: `T` is the stored value, `C` one decoded segment
/// (e.g. a column `Vec<f64>`). All functions are plain function
/// pointers: codecs must not capture state, which keeps spilled bytes
/// self-describing.
pub struct SegmentedCodec<T, C> {
    /// Number of independently-encoded segments of a value.
    pub num_segments: fn(&T) -> usize,
    /// Encodes the small shape header written alongside the segments.
    pub encode_header: fn(&T) -> Vec<u8>,
    /// Encodes segment `j` as a standalone buffer.
    pub encode_segment: fn(&T, usize) -> Vec<u8>,
    /// Decodes segment `j` (`(segment bytes, j, header bytes)`) back
    /// into a column.
    pub decode_segment: fn(&[u8], usize, &[u8]) -> C,
    /// Reassembles the full value from the header and *all* segments in
    /// index order — the spill-reload path. Must reproduce the encoded
    /// value exactly (a reload never changes a result).
    pub assemble_full: fn(&[u8], Vec<Arc<C>>) -> T,
}

/// Store access errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatasetError {
    /// No dataset of this name is materialized (in memory or spilled).
    Missing {
        /// The dataset name that was requested.
        name: String,
    },
    /// The dataset exists but was requested with the wrong element type.
    WrongType {
        /// The dataset name that was requested.
        name: String,
    },
    /// Store bookkeeping for this entry is inconsistent (e.g. a spilled
    /// entry with no codec or no cached header). Indicates a store bug,
    /// reported as an error instead of a worker panic.
    Corrupt {
        /// The dataset whose entry is inconsistent.
        name: String,
        /// What was expected and missing.
        detail: &'static str,
    },
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetError::Missing { name } => write!(f, "dataset '{name}' is not materialized"),
            DatasetError::WrongType { name } => {
                write!(f, "dataset '{name}' requested with the wrong type")
            }
            DatasetError::Corrupt { name, detail } => {
                write!(f, "dataset '{name}': inconsistent store entry — {detail}")
            }
        }
    }
}

impl std::error::Error for DatasetError {}

/// Counters describing cache behaviour since the store was created.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DatasetStoreStats {
    /// `get` calls served from memory.
    pub hits: u64,
    /// `get` calls that had to touch the block store or found nothing
    /// (missing or spilled).
    pub misses: u64,
    /// Datasets written to the block store by eviction.
    pub spills: u64,
    /// Encoded bytes written by spills (cumulative — never decremented).
    pub spill_bytes: u64,
    /// Encoded bytes of spill files currently live in the block store:
    /// incremented at spill time, decremented when a spilled entry is
    /// overwritten, removed or dropped.
    pub live_spill_bytes: u64,
    /// In-memory (pre-encoding) bytes of the datasets spilled so far —
    /// `spill_bytes / spill_raw_bytes` is the aggregate compression
    /// ratio of the spill codecs.
    pub spill_raw_bytes: u64,
    /// Spilled datasets decoded back into memory on demand.
    pub spill_loads: u64,
    /// Column segments read from the block store by segmented reloads.
    pub segment_reads: u64,
    /// Encoded bytes of those segment reads.
    pub segment_bytes_read: u64,
    /// Datasets removed from memory by the budget (spilled or dropped).
    pub evictions: u64,
}

type AnyArc = Arc<dyn Any + Send + Sync>;
type EncodeFn = Box<dyn Fn(&AnyArc) -> Vec<u8> + Send + Sync>;
type SegCountFn = Box<dyn Fn(&AnyArc) -> usize + Send + Sync>;
type SegEncodeFn = Box<dyn Fn(&AnyArc, usize) -> Vec<u8> + Send + Sync>;
type SegDecodeFn = Box<dyn Fn(&[u8], usize, &[u8]) -> AnyArc + Send + Sync>;
type AssembleFullFn = Box<dyn Fn(&[u8], Vec<AnyArc>) -> AnyArc + Send + Sync>;

struct ErasedSegCodec {
    num_segments: SegCountFn,
    encode_header: EncodeFn,
    encode_segment: SegEncodeFn,
    decode_segment: SegDecodeFn,
    assemble_full: AssembleFullFn,
}

struct Entry {
    /// In-memory value; `None` when evicted (spilled or dropped).
    value: Option<AnyArc>,
    /// Caller-declared size estimate, used by the budget.
    bytes: usize,
    /// LRU clock value of the last touch.
    seq: u64,
    codec: Option<ErasedSegCodec>,
    /// The block store holds an up-to-date encoded copy.
    spilled: bool,
    /// Total encoded bytes of the live spill (header + segments); 0
    /// when not spilled.
    spilled_total: usize,
    /// Encoded size of each segment, recorded at spill time.
    seg_sizes: Vec<usize>,
    /// Header bytes, cached at spill time so reloads don't re-fetch
    /// the (tiny) header file.
    header: Option<Vec<u8>>,
}

struct Inner {
    entries: BTreeMap<String, Entry>,
    mem_bytes: usize,
    clock: u64,
    stats: DatasetStoreStats,
}

/// The materialized-dataset store: typed handles over type-erased
/// entries, with LRU spilling under an optional byte budget.
pub struct DatasetStore {
    blockstore: Arc<BlockStore>,
    budget: Option<usize>,
    inner: RankedMutex<Inner>,
}

impl Default for DatasetStore {
    fn default() -> Self {
        Self::new()
    }
}

impl DatasetStore {
    /// Unbounded in-memory store with a private spill block store.
    pub fn new() -> Self {
        Self::with_blockstore(Arc::new(BlockStore::new(1 << 20, 1)), None)
    }

    /// Store that evicts down to `budget` bytes of in-memory datasets.
    pub fn with_budget(budget: usize) -> Self {
        Self::with_blockstore(Arc::new(BlockStore::new(1 << 20, 1)), Some(budget))
    }

    /// Store spilling to an existing block store, optionally budgeted.
    pub fn with_blockstore(blockstore: Arc<BlockStore>, budget: Option<usize>) -> Self {
        Self {
            blockstore,
            budget,
            inner: RankedMutex::new(
                rank::DATASET_STORE,
                "dataset.inner",
                Inner {
                    entries: BTreeMap::new(),
                    mem_bytes: 0,
                    clock: 0,
                    stats: DatasetStoreStats::default(),
                },
            ),
        }
    }

    /// The block store spills land in.
    pub fn blockstore(&self) -> &Arc<BlockStore> {
        &self.blockstore
    }

    /// Materializes a dataset the budget never evicts. Overwrites any
    /// previous version.
    pub fn put<T: Send + Sync + 'static>(&self, handle: &DatasetHandle<T>, value: T, bytes: usize) {
        self.insert(handle.name(), Arc::new(value), bytes, None);
    }

    /// Materializes a dataset the budget may *spill* to the block store,
    /// in segmented columnar form.
    pub fn put_segmented<T, C>(
        &self,
        handle: &DatasetHandle<T>,
        value: T,
        bytes: usize,
        codec: SegmentedCodec<T, C>,
    ) where
        T: Send + Sync + 'static,
        C: Send + Sync + 'static,
    {
        fn typed<T: Send + Sync + 'static>(any: &AnyArc) -> Arc<T> {
            // audit: panic-ok — value and codec are installed together
            // by put_segmented, so the downcast cannot fail; the erased
            // codec signatures have no Result.
            any.clone()
                .downcast::<T>()
                .expect("codec type matches entry")
        }
        let SegmentedCodec {
            num_segments,
            encode_header,
            encode_segment,
            decode_segment,
            assemble_full,
        } = codec;
        let erased = ErasedSegCodec {
            num_segments: Box::new(move |any| num_segments(&typed::<T>(any))),
            encode_header: Box::new(move |any| encode_header(&typed::<T>(any))),
            encode_segment: Box::new(move |any, j| encode_segment(&typed::<T>(any), j)),
            decode_segment: Box::new(move |bytes, j, header| {
                Arc::new(decode_segment(bytes, j, header)) as AnyArc
            }),
            assemble_full: Box::new(move |header, cols| {
                let cols = cols
                    .into_iter()
                    // audit: panic-ok — segments were decoded by this
                    // same codec's decode_segment, so C always matches.
                    .map(|c| c.downcast::<C>().expect("segment type matches codec"))
                    .collect();
                Arc::new(assemble_full(header, cols)) as AnyArc
            }),
        };
        self.insert(handle.name(), Arc::new(value), bytes, Some(erased));
    }

    fn insert(&self, name: &str, value: AnyArc, bytes: usize, codec: Option<ErasedSegCodec>) {
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let seq = inner.clock;
        if let Some(old) = inner.entries.remove(name) {
            if old.value.is_some() {
                inner.mem_bytes -= old.bytes;
            }
            if old.spilled {
                self.delete_spill(name);
                inner.stats.live_spill_bytes = inner
                    .stats
                    .live_spill_bytes
                    .saturating_sub(old.spilled_total as u64);
            }
        }
        inner.entries.insert(
            name.to_string(),
            Entry {
                value: Some(value),
                bytes,
                seq,
                codec,
                spilled: false,
                spilled_total: 0,
                seg_sizes: Vec::new(),
                header: None,
            },
        );
        inner.mem_bytes += bytes;
        self.enforce_budget(&mut inner, name);
    }

    /// Fetches a dataset, loading it back from spill if necessary.
    pub fn get<T: Send + Sync + 'static>(
        &self,
        handle: &DatasetHandle<T>,
    ) -> Result<Arc<T>, DatasetError> {
        let any = self.get_any(handle.name())?;
        any.downcast::<T>().map_err(|_| DatasetError::WrongType {
            name: handle.name().to_string(),
        })
    }

    fn get_any(&self, name: &str) -> Result<AnyArc, DatasetError> {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        inner.clock += 1;
        let seq = inner.clock;
        let missing = || DatasetError::Missing {
            name: name.to_string(),
        };
        let Some(entry) = inner.entries.get_mut(name) else {
            inner.stats.misses += 1;
            return Err(missing());
        };
        entry.seq = seq;
        if let Some(value) = &entry.value {
            let value = Arc::clone(value);
            inner.stats.hits += 1;
            return Ok(value);
        }
        inner.stats.misses += 1;
        if !entry.spilled {
            return Err(missing());
        }
        // Reload the spilled copy. The decode borrows the codec (a field
        // of the entry, itself borrowed from `inner.entries`), so all
        // shared-state bookkeeping is deferred until the borrow ends.
        let mut seg_reads = 0u64;
        let mut seg_bytes = 0u64;
        let decoded = {
            let Some(codec) = entry.codec.as_ref() else {
                return Err(DatasetError::Corrupt {
                    name: name.to_string(),
                    detail: "spilled entry has no codec to decode with",
                });
            };
            let Some(header) = entry.header.as_ref() else {
                return Err(DatasetError::Corrupt {
                    name: name.to_string(),
                    detail: "spilled entry is missing its cached header",
                });
            };
            let d = entry.seg_sizes.len();
            let mut cols = Vec::with_capacity(d);
            for j in 0..d {
                let bytes = self
                    .blockstore
                    .read(&seg_file(name, j))
                    .ok_or_else(missing)?;
                seg_reads += 1;
                seg_bytes += bytes.len() as u64;
                cols.push((codec.decode_segment)(&bytes, j, header));
            }
            (codec.assemble_full)(header, cols)
        };
        entry.value = Some(Arc::clone(&decoded));
        inner.mem_bytes += entry.bytes;
        inner.stats.spill_loads += 1;
        inner.stats.segment_reads += seg_reads;
        inner.stats.segment_bytes_read += seg_bytes;
        self.enforce_budget(inner, name);
        Ok(decoded)
    }

    /// Whether the dataset is materialized (in memory or spilled).
    pub fn has(&self, name: &str) -> bool {
        let inner = self.inner.lock();
        inner
            .entries
            .get(name)
            .is_some_and(|e| e.value.is_some() || e.spilled)
    }

    /// Removes a dataset everywhere (memory and spill).
    pub fn remove(&self, name: &str) -> bool {
        let mut inner = self.inner.lock();
        match inner.entries.remove(name) {
            Some(e) => {
                if e.value.is_some() {
                    inner.mem_bytes -= e.bytes;
                }
                if e.spilled {
                    self.delete_spill(name);
                    inner.stats.live_spill_bytes = inner
                        .stats
                        .live_spill_bytes
                        .saturating_sub(e.spilled_total as u64);
                }
                true
            }
            None => false,
        }
    }

    /// Bytes of datasets currently held in memory.
    pub fn mem_bytes(&self) -> usize {
        self.inner.lock().mem_bytes
    }

    /// Names of all registered datasets.
    pub fn names(&self) -> Vec<String> {
        self.inner.lock().entries.keys().cloned().collect()
    }

    /// A snapshot of the cache/spill counters.
    pub fn stats(&self) -> DatasetStoreStats {
        self.inner.lock().stats
    }

    /// Deletes a dataset's spill artifacts (its `<name>/` directory).
    fn delete_spill(&self, name: &str) {
        self.blockstore.delete_prefix(&spill_dir(name));
    }

    /// Evicts LRU entries until the budget holds. `exempt` (the entry
    /// just inserted or reloaded) is never evicted, so a single oversized
    /// dataset still materializes. Victims are in-memory entries with a
    /// codec.
    fn enforce_budget(&self, inner: &mut Inner, exempt: &str) {
        let Some(budget) = self.budget else { return };
        while inner.mem_bytes > budget {
            let victim = inner
                .entries
                .iter()
                .filter(|(name, e)| {
                    name.as_str() != exempt && e.value.is_some() && e.codec.is_some()
                })
                .min_by_key(|(_, e)| e.seq)
                .map(|(name, _)| name.clone());
            let Some(name) = victim else { break };
            // Split the Inner borrow so the victim entry can stay
            // borrowed across stats/accounting updates — one lookup for
            // the whole eviction instead of expect()-laden re-lookups.
            let Inner {
                entries,
                mem_bytes,
                stats,
                ..
            } = &mut *inner;
            let Some(entry) = entries.get_mut(&name) else {
                // The victim name was selected from this same map under
                // the same lock, so this cannot happen; stop evicting
                // rather than panic a worker if it ever does.
                break;
            };
            // An unspilled value is written out; one with an up-to-date
            // spilled copy just drops its in-memory value.
            let to_spill = if entry.spilled { &None } else { &entry.value };
            if let (Some(value), Some(codec)) = (to_spill, &entry.codec) {
                let header = (codec.encode_header)(value);
                let d = (codec.num_segments)(value);
                let mut files = Vec::with_capacity(d + 1);
                files.push((header_file(&name), header.clone()));
                files
                    .extend((0..d).map(|j| (seg_file(&name, j), (codec.encode_segment)(value, j))));
                let seg_sizes: Vec<usize> = files[1..].iter().map(|(_, seg)| seg.len()).collect();
                let total = header.len() + seg_sizes.iter().sum::<usize>();
                self.blockstore.write_many(&files);
                entry.spilled = true;
                entry.spilled_total = total;
                entry.seg_sizes = seg_sizes;
                entry.header = Some(header);
                stats.spills += 1;
                stats.spill_bytes += total as u64;
                stats.live_spill_bytes += total as u64;
                stats.spill_raw_bytes += entry.bytes as u64;
            }
            entry.value = None;
            *mem_bytes -= entry.bytes;
            stats.evictions += 1;
        }
    }
}

/// Directory prefix of a segmented spill. The trailing slash keeps
/// `delete_prefix` from clipping sibling datasets whose names share a
/// prefix (`rows` vs `rows2`).
fn spill_dir(name: &str) -> String {
    format!("dataset/{name}/")
}

fn header_file(name: &str) -> String {
    format!("dataset/{name}/header")
}

fn seg_file(name: &str, j: usize) -> String {
    format!("dataset/{name}/seg-{j}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(name: &str) -> DatasetHandle<Vec<Vec<f64>>> {
        DatasetHandle::new(name)
    }

    fn rows(k: usize) -> Vec<Vec<f64>> {
        (0..4).map(|i| vec![i as f64 + k as f64, 0.5]).collect()
    }

    /// A toy segmented codec over row vectors: one raw-LE segment per
    /// column, an `(n, d)` header.
    fn seg_codec() -> SegmentedCodec<Vec<Vec<f64>>, Vec<f64>> {
        use p3c_dataset::bytes::{self, Reader};
        #[allow(clippy::ptr_arg)]
        fn header(rows: &Vec<Vec<f64>>) -> Vec<u8> {
            let mut out = Vec::new();
            bytes::put_usize(&mut out, rows.len());
            bytes::put_usize(&mut out, rows.first().map_or(0, Vec::len));
            out
        }
        #[allow(clippy::ptr_arg)]
        fn segment(rows: &Vec<Vec<f64>>, j: usize) -> Vec<u8> {
            let column: Vec<f64> = rows.iter().map(|r| r[j]).collect();
            let mut out = Vec::new();
            bytes::put_f64_run(&mut out, &column);
            out
        }
        SegmentedCodec {
            num_segments: |rows| rows.first().map_or(0, Vec::len),
            encode_header: header,
            encode_segment: segment,
            decode_segment: |bytes, _j, _header| {
                Reader::new(bytes).f64_run(bytes.len() / 8).unwrap()
            },
            assemble_full: |h, cols| {
                let n = Reader::new(h).usize().unwrap();
                (0..n)
                    .map(|i| cols.iter().map(|c| c[i]).collect())
                    .collect()
            },
        }
    }

    #[test]
    fn put_get_roundtrip_and_hits() {
        let store = DatasetStore::new();
        store.put(&h("a"), rows(0), 64);
        let got = store.get(&h("a")).unwrap();
        assert_eq!(*got, rows(0));
        assert!(store.has("a"));
        assert!(!store.has("b"));
        let stats = store.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 0);
    }

    #[test]
    fn missing_and_wrong_type_error() {
        let store = DatasetStore::new();
        assert_eq!(
            store.get(&h("nope")).unwrap_err(),
            DatasetError::Missing {
                name: "nope".into()
            }
        );
        store.put(&h("a"), rows(0), 64);
        let wrong: DatasetHandle<Vec<u64>> = DatasetHandle::new("a");
        assert_eq!(
            store.get(&wrong).unwrap_err(),
            DatasetError::WrongType { name: "a".into() }
        );
        assert_eq!(store.stats().misses, 1);
    }

    #[test]
    fn budget_spills_lru_and_reloads() {
        let store = DatasetStore::with_budget(100);
        store.put_segmented(&h("old"), rows(1), 64, seg_codec());
        store.put_segmented(&h("new"), rows(2), 64, seg_codec());
        // 128 > 100: the LRU entry ("old") spills to the block store,
        // as a header plus one segment per column.
        let stats = store.stats();
        assert_eq!(stats.spills, 1);
        assert_eq!(stats.evictions, 1);
        assert!(stats.spill_bytes > 0);
        assert_eq!(stats.live_spill_bytes, stats.spill_bytes);
        assert_eq!(stats.spill_raw_bytes, 64);
        assert!(store.mem_bytes() <= 100);
        assert!(store.has("old"), "spilled datasets stay materialized");
        for file in ["header", "seg-0", "seg-1"] {
            let path = format!("dataset/old/{file}");
            assert!(store.blockstore().read(&path).is_some(), "{path}");
        }
        // Reading it back reassembles the exact value from all of its
        // segments (a miss + a load)...
        assert_eq!(*store.get(&h("old")).unwrap(), rows(1));
        let stats = store.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.spill_loads, 1);
        assert_eq!(stats.segment_reads, 2);
        assert_eq!(stats.segment_bytes_read, 2 * 4 * 8);
        // ...and pushes "new" out in turn (already-spilled page-out is
        // counted as an eviction, not a second spill of "old").
        assert!(store.mem_bytes() <= 100);
        assert_eq!(*store.get(&h("new")).unwrap(), rows(2));
    }

    #[test]
    fn entries_without_a_codec_survive_budget() {
        let store = DatasetStore::with_budget(50);
        store.put(&h("a"), rows(1), 64);
        store.put(&h("b"), rows(2), 64);
        // Neither entry can be spilled: the budget is overshot rather
        // than losing data.
        assert!(store.has("a") && store.has("b"));
        assert_eq!(store.stats().evictions, 0);
    }

    #[test]
    fn overwrite_replaces_value_and_spill() {
        let store = DatasetStore::new();
        store.put(&h("a"), rows(1), 64);
        store.put(&h("a"), rows(9), 32);
        assert_eq!(*store.get(&h("a")).unwrap(), rows(9));
        assert_eq!(store.mem_bytes(), 32);
    }

    #[test]
    fn overwriting_a_spilled_entry_frees_its_live_spill_bytes() {
        // The regression this pins down: replacing an already-spilled
        // entry deletes the spill file but used to keep counting its
        // bytes as live.
        let store = DatasetStore::with_budget(100);
        store.put_segmented(&h("a"), rows(1), 64, seg_codec());
        store.put_segmented(&h("b"), rows(2), 64, seg_codec());
        let spilled = store.stats();
        assert!(spilled.live_spill_bytes > 0);
        // Overwrite the spilled "a" with a small in-memory version.
        store.put(&h("a"), rows(3), 8);
        let stats = store.stats();
        assert_eq!(stats.live_spill_bytes, 0, "dead spill bytes not freed");
        assert_eq!(
            stats.spill_bytes, spilled.spill_bytes,
            "cumulative spill volume must not decrease"
        );
        for file in ["header", "seg-0", "seg-1"] {
            let path = format!("dataset/a/{file}");
            assert!(store.blockstore().read(&path).is_none(), "{path}");
        }
        // remove() frees live bytes the same way.
        let store = DatasetStore::with_budget(100);
        store.put_segmented(&h("a"), rows(1), 64, seg_codec());
        store.put_segmented(&h("b"), rows(2), 64, seg_codec());
        assert!(store.stats().live_spill_bytes > 0);
        store.remove("a");
        assert_eq!(store.stats().live_spill_bytes, 0);
    }

    #[test]
    fn remove_deletes_everything() {
        let store = DatasetStore::with_budget(60);
        store.put_segmented(&h("a"), rows(1), 64, seg_codec());
        store.put_segmented(&h("b"), rows(2), 64, seg_codec());
        assert!(store.remove("a"));
        assert!(!store.has("a"));
        assert!(!store.remove("a"));
    }
}
