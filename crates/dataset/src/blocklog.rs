//! Append/retract metadata log for incrementally maintained datasets.
//!
//! The incremental clustering service stores a dataset not as one
//! mutable buffer but as an ordered log of immutable row blocks: an
//! `append` adds a block at the end, a `retract` removes a block by id.
//! The cumulative dataset at any instant is the concatenation of the
//! live blocks in log order — the exact dataset a from-scratch batch
//! run would see, which is what the service's byte-identity contract is
//! stated against. [`BlockLog`] tracks only metadata (ids, row counts,
//! dimensionality); the row payloads live in a `DatasetStore` so a
//! memory-budgeted cache can spill them independently.

/// One live block of the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockEntry {
    /// The block's id, assigned at append time and never reused.
    pub id: u64,
    /// Rows in the block.
    pub rows: usize,
}

/// Ordered metadata log of the live blocks of one dataset.
#[derive(Debug, Clone, Default)]
pub struct BlockLog {
    entries: Vec<BlockEntry>,
    next_id: u64,
    dim: Option<usize>,
}

impl BlockLog {
    /// Empty log; the dimensionality is fixed by the first non-empty
    /// append.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds a log from persisted parts (snapshot restore).
    ///
    /// # Errors
    /// Rejects parts that could not have come from a real log: ids not
    /// strictly increasing, ids at or beyond `next_id`, or a missing
    /// width while non-empty blocks are live.
    pub fn from_parts(
        entries: Vec<BlockEntry>,
        next_id: u64,
        dim: Option<usize>,
    ) -> Result<Self, String> {
        for pair in entries.windows(2) {
            if pair[0].id >= pair[1].id {
                return Err(format!(
                    "block ids not strictly increasing: {} then {}",
                    pair[0].id, pair[1].id
                ));
            }
        }
        if let Some(last) = entries.last() {
            if last.id >= next_id {
                return Err(format!(
                    "block id {} is at or beyond next_id {next_id}",
                    last.id
                ));
            }
        }
        if dim.is_none() && entries.iter().any(|e| e.rows > 0) {
            return Err("log has non-empty blocks but no width".to_string());
        }
        Ok(Self {
            entries,
            next_id,
            dim,
        })
    }

    /// The id the next appended block would receive.
    pub fn next_id(&self) -> u64 {
        self.next_id
    }

    /// Records an appended block of `rows × dim` and returns its id.
    ///
    /// # Errors
    /// Rejects a block whose width disagrees with the log's established
    /// dimensionality. Zero-row blocks are only width-neutral when they
    /// carry no width at all (`dim == 0`); a zero-row block with a
    /// concrete mismatched width is rejected like any other, so a bad
    /// producer can't smuggle a wrong-width entry into the log.
    pub fn append(&mut self, rows: usize, dim: usize) -> Result<u64, String> {
        match self.dim {
            Some(d) if d != dim && (rows > 0 || dim != 0) => {
                return Err(format!(
                    "block width {dim} does not match dataset width {d}"
                ));
            }
            None if rows > 0 => self.dim = Some(dim),
            _ => {}
        }
        let id = self.next_id;
        self.next_id += 1;
        self.entries.push(BlockEntry { id, rows });
        Ok(id)
    }

    /// Removes block `id` from the log, returning its row count;
    /// `None` if no live block has that id.
    pub fn retract(&mut self, id: u64) -> Option<usize> {
        let pos = self.entries.iter().position(|e| e.id == id)?;
        Some(self.entries.remove(pos).rows)
    }

    /// Total rows across live blocks — the cumulative `n`.
    pub fn total_rows(&self) -> usize {
        self.entries.iter().map(|e| e.rows).sum()
    }

    /// The dataset's dimensionality, once established.
    pub fn dim(&self) -> Option<usize> {
        self.dim
    }

    /// Number of live blocks.
    pub fn num_blocks(&self) -> usize {
        self.entries.len()
    }

    /// The live blocks in log (row-id) order.
    pub fn entries(&self) -> &[BlockEntry] {
        &self.entries
    }

    /// Whether block `id` is live.
    pub fn contains(&self, id: u64) -> bool {
        self.entries.iter().any(|e| e.id == id)
    }

    /// Global row offset of block `id` in the cumulative dataset —
    /// the sum of the row counts of the blocks before it in log order.
    pub fn offset_of(&self, id: u64) -> Option<usize> {
        let mut offset = 0;
        for e in &self.entries {
            if e.id == id {
                return Some(offset);
            }
            offset += e.rows;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_assigns_monotonic_ids_and_tracks_rows() {
        let mut log = BlockLog::new();
        let a = log.append(10, 3).unwrap();
        let b = log.append(5, 3).unwrap();
        assert_eq!((a, b), (0, 1));
        assert_eq!(log.total_rows(), 15);
        assert_eq!(log.dim(), Some(3));
        assert_eq!(log.num_blocks(), 2);
        assert_eq!(log.offset_of(b), Some(10));
    }

    #[test]
    fn width_mismatch_rejected() {
        let mut log = BlockLog::new();
        log.append(10, 3).unwrap();
        assert!(log.append(4, 2).is_err());
        // Empty blocks are width-neutral.
        assert!(log.append(0, 0).is_ok());
    }

    #[test]
    fn zero_row_block_with_wrong_width_rejected() {
        // Regression: the width check used to be skipped whenever
        // `rows == 0`, silently logging a mismatched-width entry.
        let mut log = BlockLog::new();
        log.append(10, 3).unwrap();
        assert!(log.append(0, 2).is_err());
        assert!(log.append(0, 3).is_ok(), "matching width still fine");
        assert_eq!(log.num_blocks(), 2);
    }

    #[test]
    fn from_parts_validates_and_roundtrips() {
        let mut log = BlockLog::new();
        log.append(10, 3).unwrap();
        let b = log.append(5, 3).unwrap();
        log.retract(b);
        log.append(2, 3).unwrap();
        let rebuilt =
            BlockLog::from_parts(log.entries().to_vec(), log.next_id(), log.dim()).unwrap();
        assert_eq!(rebuilt.entries(), log.entries());
        assert_eq!(rebuilt.next_id(), log.next_id());
        assert_eq!(rebuilt.dim(), log.dim());
        assert_eq!(
            rebuilt.clone().append(1, 3).unwrap(),
            3,
            "id numbering continues after restore"
        );

        let e = |id, rows| BlockEntry { id, rows };
        assert!(BlockLog::from_parts(vec![e(1, 2), e(1, 2)], 5, Some(3)).is_err());
        assert!(BlockLog::from_parts(vec![e(2, 2), e(1, 2)], 5, Some(3)).is_err());
        assert!(BlockLog::from_parts(vec![e(4, 2)], 4, Some(3)).is_err());
        assert!(BlockLog::from_parts(vec![e(0, 2)], 1, None).is_err());
    }

    #[test]
    fn retract_removes_but_never_reuses_ids() {
        let mut log = BlockLog::new();
        let a = log.append(10, 2).unwrap();
        let b = log.append(6, 2).unwrap();
        assert_eq!(log.retract(a), Some(10));
        assert_eq!(log.retract(a), None);
        assert!(log.contains(b));
        assert_eq!(log.total_rows(), 6);
        assert_eq!(log.offset_of(b), Some(0));
        let c = log.append(1, 2).unwrap();
        assert_eq!(c, 2, "retracted ids are not recycled");
    }

    #[test]
    fn empty_log() {
        let log = BlockLog::new();
        assert_eq!(log.total_rows(), 0);
        assert_eq!(log.dim(), None);
        assert!(!log.contains(0));
        assert_eq!(log.offset_of(0), None);
    }
}
