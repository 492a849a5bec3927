//! Named row blocks: the clustering service's block cache.
//!
//! A [`DatasetStore`] is where the service ([`crate::service`]) keeps
//! its tenants' row blocks. The store is in-memory first; under a byte
//! budget it evicts least-recently-used blocks by *spilling* them: the
//! entry trades its [`RowBlock`] for the block's segmented columnar
//! encoding (`p3c_dataset::colseg`, DESIGN.md §9) — a small header plus
//! one independently-encoded segment per attribute column — and
//! decodes it back on the next [`DatasetStore::get`]. A reload is cached
//! only if it fits or displaces blocks idle longer than it, so a scan
//! over more blocks than the budget holds cannot flush the cache. The
//! encoded bytes stay in the entry until it is overwritten or removed,
//! so a reloaded block that is evicted again just drops its decoded
//! copy. Per-segment traffic is metered (`segment_reads`,
//! `segment_bytes_read` in [`DatasetStoreStats`]).

use crate::sync::{rank, RankedMutex};
use p3c_dataset::{colseg, RowBlock};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Store access errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatasetError {
    /// No dataset of this name is materialized (in memory or spilled).
    Missing {
        /// The dataset name that was requested.
        name: String,
    },
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetError::Missing { name } => write!(f, "dataset '{name}' is not materialized"),
        }
    }
}

impl std::error::Error for DatasetError {}

/// Counters describing cache behaviour since the store was created.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DatasetStoreStats {
    /// `get` calls served from memory.
    pub hits: u64,
    /// `get` calls that had to decode a spilled block or found nothing.
    pub misses: u64,
    /// Blocks encoded by eviction.
    pub spills: u64,
    /// Encoded bytes written by spills (cumulative — never decremented).
    pub spill_bytes: u64,
    /// Encoded bytes of spills currently held by the store: incremented
    /// at spill time, decremented when a spilled entry is overwritten or
    /// removed.
    pub live_spill_bytes: u64,
    /// In-memory (pre-encoding) bytes of the blocks spilled so far —
    /// `spill_bytes / spill_raw_bytes` is the aggregate compression
    /// ratio of the spill codec.
    pub spill_raw_bytes: u64,
    /// Spilled blocks decoded back into memory on demand.
    pub spill_loads: u64,
    /// Column segments decoded by those reloads.
    pub segment_reads: u64,
    /// Encoded bytes of those segment reads.
    pub segment_bytes_read: u64,
    /// Blocks removed from memory by the budget.
    pub evictions: u64,
}

/// A block's segmented columnar encoding, made at its first eviction.
struct Spill {
    header: Vec<u8>,
    segments: Vec<Vec<u8>>,
}

impl Spill {
    fn encode(block: &RowBlock) -> Self {
        Self {
            header: colseg::block_header(block),
            segments: (0..block.dim())
                .map(|j| colseg::encode_block_column(block, j))
                .collect(),
        }
    }

    /// Encoded bytes: the header plus every segment.
    fn total(&self) -> usize {
        self.header.len() + self.segments.iter().map(Vec::len).sum::<usize>()
    }
}

struct Entry {
    /// The decoded block; `None` while evicted (then `spill` is set).
    block: Option<Arc<RowBlock>>,
    /// Size estimate used by the budget: `16 + 8·n·d`.
    bytes: usize,
    /// LRU clock value of the last touch.
    seq: u64,
    spill: Option<Spill>,
}

struct Inner {
    entries: BTreeMap<String, Entry>,
    mem_bytes: usize,
    clock: u64,
    stats: DatasetStoreStats,
}

impl Inner {
    /// Takes `name` out of the map and its bytes out of the accounting.
    fn take(&mut self, name: &str) -> bool {
        let Some(old) = self.entries.remove(name) else {
            return false;
        };
        if old.block.is_some() {
            self.mem_bytes -= old.bytes;
        }
        if let Some(spill) = &old.spill {
            self.stats.live_spill_bytes -= spill.total() as u64;
        }
        true
    }
}

/// The row-block cache: a map of named blocks that spills to encoded
/// column segments under an optional byte budget. `put` evicts by LRU;
/// a reload from a spill is admitted by recency ([`DatasetStore::get`]).
pub struct DatasetStore {
    budget: Option<usize>,
    inner: RankedMutex<Inner>,
}

impl Default for DatasetStore {
    fn default() -> Self {
        Self::new()
    }
}

impl DatasetStore {
    /// Unbounded in-memory store.
    pub fn new() -> Self {
        Self::build(None)
    }

    /// Store that evicts down to `budget` bytes of in-memory blocks.
    pub fn with_budget(budget: usize) -> Self {
        Self::build(Some(budget))
    }

    fn build(budget: Option<usize>) -> Self {
        Self {
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

    /// Stores `block` under `name`, replacing any previous version.
    pub fn put(&self, name: &str, block: RowBlock) {
        let bytes = 16 + 8 * block.as_slice().len();
        let mut inner = self.inner.lock();
        inner.take(name);
        inner.clock += 1;
        let seq = inner.clock;
        inner.entries.insert(
            name.to_string(),
            Entry {
                block: Some(Arc::new(block)),
                bytes,
                seq,
                spill: None,
            },
        );
        inner.mem_bytes += bytes;
        self.enforce_budget(&mut inner, name);
    }

    /// Fetches a block, decoding it from its spill if necessary.
    ///
    /// Every call counts as a touch of the block. A decoded block is
    /// cached only if it fits, or if evicting resident blocks that have
    /// been idle longer than it had been frees enough room; otherwise it
    /// goes to the caller uncached and the resident blocks stay. Under
    /// plain LRU an oldest-first scan over more blocks than the budget
    /// holds would evict, at every reload, the block it needs next.
    pub fn get(&self, name: &str) -> Result<Arc<RowBlock>, DatasetError> {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        inner.clock += 1;
        let missing = || DatasetError::Missing {
            name: name.to_string(),
        };
        let Some(entry) = inner.entries.get_mut(name) else {
            inner.stats.misses += 1;
            return Err(missing());
        };
        let idle_since = std::mem::replace(&mut entry.seq, inner.clock);
        if let Some(block) = &entry.block {
            inner.stats.hits += 1;
            return Ok(Arc::clone(block));
        }
        inner.stats.misses += 1;
        let Some(spill) = &entry.spill else {
            return Err(missing());
        };
        let cols = spill
            .segments
            .iter()
            .map(|s| colseg::decode_column(s))
            .collect();
        let block = Arc::new(colseg::assemble_block(&spill.header, cols));
        inner.stats.spill_loads += 1;
        inner.stats.segment_reads += spill.segments.len() as u64;
        inner.stats.segment_bytes_read += spill.segments.iter().map(Vec::len).sum::<usize>() as u64;
        let bytes = entry.bytes;
        if self.admits(inner, bytes, idle_since) {
            if let Some(entry) = inner.entries.get_mut(name) {
                entry.block = Some(Arc::clone(&block));
            }
            inner.mem_bytes += bytes;
            self.enforce_budget(inner, name);
        }
        Ok(block)
    }

    /// Removes a block everywhere (memory and spill).
    pub fn remove(&self, name: &str) -> bool {
        self.inner.lock().take(name)
    }

    /// Bytes of blocks currently held decoded in memory.
    pub fn mem_bytes(&self) -> usize {
        self.inner.lock().mem_bytes
    }

    /// A snapshot of the cache/spill counters.
    pub fn stats(&self) -> DatasetStoreStats {
        self.inner.lock().stats
    }

    /// Whether a reloaded block of `bytes`, last touched at
    /// `idle_since`, may be cached: it fits, or the resident blocks
    /// touched before `idle_since` hold at least the missing room. Those
    /// are the least recently used, so [`Self::enforce_budget`] then
    /// evicts only them.
    fn admits(&self, inner: &Inner, bytes: usize, idle_since: u64) -> bool {
        let Some(budget) = self.budget else {
            return true;
        };
        let need = (inner.mem_bytes + bytes).saturating_sub(budget);
        let mut colder = 0;
        for e in inner.entries.values() {
            if colder >= need {
                break;
            }
            if e.block.is_some() && e.seq < idle_since {
                colder += e.bytes;
            }
        }
        colder >= need
    }

    /// Evicts LRU blocks until the budget holds. `exempt` (the entry just
    /// inserted or admitted) is never evicted, so a single oversized
    /// `put` still materializes. A block is encoded at its first
    /// eviction only; later evictions just drop the decoded copy.
    fn enforce_budget(&self, inner: &mut Inner, exempt: &str) {
        let Some(budget) = self.budget else { return };
        while inner.mem_bytes > budget {
            let Inner {
                entries,
                mem_bytes,
                stats,
                ..
            } = &mut *inner;
            let victim = entries
                .iter_mut()
                .filter(|(name, e)| name.as_str() != exempt && e.block.is_some())
                .min_by_key(|(_, e)| e.seq)
                .map(|(_, e)| e);
            let Some(entry) = victim else { break };
            if let (None, Some(block)) = (&entry.spill, &entry.block) {
                let spill = Spill::encode(block);
                let total = spill.total() as u64;
                stats.spills += 1;
                stats.spill_bytes += total;
                stats.live_spill_bytes += total;
                stats.spill_raw_bytes += entry.bytes as u64;
                entry.spill = Some(spill);
            }
            entry.block = None;
            *mem_bytes -= entry.bytes;
            stats.evictions += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(k: usize) -> RowBlock {
        RowBlock::new(4, 2, (0..4).flat_map(|i| [(i + k) as f64, 0.5]).collect())
    }

    /// Encoded size of a block's spill: header plus column segments.
    fn spill_size(block: &RowBlock) -> u64 {
        Spill::encode(block).total() as u64
    }

    /// Encoded bytes of a block's column segments alone.
    fn segment_size(block: &RowBlock) -> u64 {
        spill_size(block) - colseg::block_header(block).len() as u64
    }

    #[test]
    fn put_get_roundtrip_and_hits() {
        let store = DatasetStore::new();
        store.put("a", rows(0));
        assert_eq!(*store.get("a").unwrap(), rows(0));
        assert_eq!(store.mem_bytes(), 16 + 8 * 8);
        let stats = store.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 0);
    }

    #[test]
    fn missing_name_errors() {
        let store = DatasetStore::new();
        assert_eq!(
            store.get("nope").unwrap_err(),
            DatasetError::Missing {
                name: "nope".into()
            }
        );
        store.put("a", rows(0));
        assert!(store.get("b").is_err());
        assert_eq!(store.stats().misses, 2);
        assert_eq!(store.stats().hits, 0);
    }

    #[test]
    fn budget_spills_lru_and_reloads() {
        // Each 4x2 block sizes as 16 + 8·8 = 80 bytes.
        let store = DatasetStore::with_budget(100);
        store.put("old", rows(1));
        store.put("new", rows(2));
        // 160 > 100: the LRU entry ("old") spills, as a header plus one
        // segment per column.
        let stats = store.stats();
        assert_eq!(stats.spills, 1);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.spill_bytes, spill_size(&rows(1)));
        assert_eq!(stats.live_spill_bytes, stats.spill_bytes);
        assert_eq!(stats.spill_raw_bytes, 80);
        assert!(store.mem_bytes() <= 100);
        // Reading it back reassembles the exact value from all of its
        // segments (a miss + a load)...
        assert_eq!(*store.get("old").unwrap(), rows(1));
        let stats = store.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.spill_loads, 1);
        assert_eq!(stats.segment_reads, 2);
        assert_eq!(stats.segment_bytes_read, segment_size(&rows(1)));
        // ...but "new" was touched after "old" was, so the reload goes to
        // the caller uncached and "new" stays.
        assert_eq!((stats.spills, stats.evictions), (1, 1));
        assert_eq!(store.mem_bytes(), 80);
        // The read stamped "old"'s touch: now "new" has idled longer, so
        // a second reload is admitted and pushes "new" out.
        assert_eq!(*store.get("old").unwrap(), rows(1));
        let stats = store.stats();
        assert_eq!(stats.spill_loads, 2);
        assert_eq!((stats.spills, stats.evictions), (2, 2));
        assert!(store.mem_bytes() <= 100);
        // Reloading "new" is uncached in turn: "old" is the fresher.
        assert_eq!(*store.get("new").unwrap(), rows(2));
        let stats = store.stats();
        assert_eq!((stats.spills, stats.evictions), (2, 2));
        assert_eq!(stats.spill_loads, 3);
        assert_eq!(*store.get("old").unwrap(), rows(1));
        assert_eq!(store.stats().hits, 1);
    }

    #[test]
    fn a_scan_larger_than_the_budget_keeps_its_resident_blocks() {
        // Twelve 80-byte blocks over a budget of four: the puts leave
        // b8..b11 resident.
        let store = DatasetStore::with_budget(4 * 80);
        let names: Vec<String> = (0..12).map(|i| format!("b{i}")).collect();
        for (i, name) in names.iter().enumerate() {
            store.put(name, rows(i));
        }
        let scan = || {
            for (i, name) in names.iter().enumerate() {
                assert_eq!(*store.get(name).unwrap(), rows(i));
            }
        };
        // Oldest-first, twice. Under plain LRU every reload evicts the
        // block the scan needs next, so both scans load all twelve.
        scan();
        let first = store.stats();
        scan();
        let second = store.stats();
        assert_eq!(second.spill_loads - first.spill_loads, 12 - 4);
        assert_eq!(second.hits - first.hits, 4);
        assert_eq!(second.evictions, 8, "only the puts evict");
        assert_eq!(store.mem_bytes(), 4 * 80);
    }

    #[test]
    fn a_reload_displaces_blocks_idle_longer_than_it() {
        // Set B is put first, then set A pushes it out.
        let store = DatasetStore::with_budget(4 * 80);
        let set = |tag: &str| (0..4).map(|i| format!("{tag}{i}")).collect::<Vec<_>>();
        let (a, b) = (set("a"), set("b"));
        for (i, name) in b.iter().chain(&a).enumerate() {
            store.put(name, rows(i));
        }
        let scan = |names: &[String]| {
            for name in names {
                store.get(name).unwrap();
            }
        };
        // A goes untouched while B is scanned: the first scan finds B
        // idle since before A's puts, the second finds A idle longer.
        scan(&b);
        scan(&b);
        let before = store.stats();
        scan(&b);
        let after = store.stats();
        assert_eq!(after.hits - before.hits, 4, "B is resident");
        scan(&a);
        assert_eq!(store.stats().spill_loads - after.spill_loads, 4, "A is not");
    }

    #[test]
    fn an_oversized_entry_still_materializes() {
        let store = DatasetStore::with_budget(50);
        store.put("a", rows(1));
        // 80 > 50, but the entry just put is never its own victim.
        assert_eq!(store.mem_bytes(), 80);
        assert_eq!(store.stats().evictions, 0);
        store.put("b", rows(2));
        // "a" makes room for "b", which alone still overshoots.
        assert_eq!(store.mem_bytes(), 80);
        assert_eq!(store.stats().evictions, 1);
        assert_eq!(*store.get("b").unwrap(), rows(2));
        assert_eq!(*store.get("a").unwrap(), rows(1));
    }

    #[test]
    fn overwrite_replaces_value_and_spill() {
        let store = DatasetStore::new();
        store.put("a", rows(1));
        store.put("a", RowBlock::new(2, 1, vec![9.0, 9.5]));
        assert_eq!(
            *store.get("a").unwrap(),
            RowBlock::new(2, 1, vec![9.0, 9.5])
        );
        assert_eq!(store.mem_bytes(), 32);
    }

    #[test]
    fn overwriting_a_spilled_entry_frees_its_live_spill_bytes() {
        // The regression this pins down: replacing an already-spilled
        // entry drops its spill but used to keep counting its bytes as
        // live.
        let store = DatasetStore::with_budget(100);
        store.put("a", rows(1));
        store.put("b", rows(2));
        let spilled = store.stats();
        assert!(spilled.live_spill_bytes > 0);
        // Overwrite the spilled "a" with a small in-memory version.
        store.put("a", RowBlock::new(1, 0, vec![]));
        let stats = store.stats();
        assert_eq!(stats.live_spill_bytes, 0, "dead spill bytes not freed");
        assert_eq!(
            stats.spill_bytes, spilled.spill_bytes,
            "cumulative spill volume must not decrease"
        );
        // remove() frees live bytes the same way.
        let store = DatasetStore::with_budget(100);
        store.put("a", rows(1));
        store.put("b", rows(2));
        assert!(store.stats().live_spill_bytes > 0);
        store.remove("a");
        assert_eq!(store.stats().live_spill_bytes, 0);
    }

    #[test]
    fn remove_deletes_everything() {
        let store = DatasetStore::with_budget(60);
        store.put("a", rows(1));
        store.put("b", rows(2));
        assert!(store.remove("a"));
        assert!(store.get("a").is_err());
        assert!(!store.remove("a"));
    }

    #[test]
    fn special_floats_spill_and_reload_bit_for_bit() {
        let specials = [
            f64::from_bits(0x7ff8_0000_0000_0001), // quiet NaN, payload 1
            f64::from_bits(0xfff4_0000_dead_beef), // negative signalling NaN
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(1),                      // smallest subnormal
            -f64::from_bits(0x000f_ffff_ffff_ffff), // largest subnormal, negated
        ];
        let d = 3;
        let data: Vec<f64> = (0..specials.len() * d)
            .map(|i| specials[(i * 5 + i / d) % specials.len()])
            .collect();
        let block = RowBlock::new(specials.len(), d, data);
        let store = DatasetStore::with_budget(0);
        store.put("x", block.clone());
        store.put("y", rows(0));
        assert_eq!(store.stats().spills, 1);
        let back = store.get("x").unwrap();
        let bits = |b: &RowBlock| b.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&block));
        assert_eq!((back.len(), back.dim()), (block.len(), block.dim()));
        let stats = store.stats();
        assert_eq!(stats.spill_loads, 1);
        assert_eq!(stats.segment_reads, d as u64);
        assert_eq!(stats.segment_bytes_read, segment_size(&block));
    }
}
