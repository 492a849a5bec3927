//! Dataset abstraction and the shared projected-clustering data model.
//!
//! * [`Dataset`] — a row-major `n × d` matrix of `f64` attributes,
//!   normalized to `[0,1]` as the paper assumes (Section 3.1), with
//!   row-slice access suited to the MapReduce engine's split inputs,
//!   materializable contiguous [`Columns`], and the one raw block
//!   encoding ([`Dataset::to_bytes`]). [`RowBlock`] is the same type
//!   under the name the service and store layers use for one appended
//!   block.
//! * [`bytes`] — the byte layer under every binary format: `put_*`
//!   appenders, the bounds-checked [`bytes::Reader`] with its one
//!   [`bytes::DecodeError`], the two checksums (`wordsum64` for the v2
//!   persisted formats and shuffle partitions in flight, FNV-1a for the
//!   v1 readers and model fingerprints), the payload
//!   cap and the `[u32 len][u8 op]` frame head (DESIGN.md "Byte
//!   formats").
//! * [`colseg`] — the segmented columnar spill codec (per-attribute
//!   column segments, XOR-delta + byte-shuffle + zero-RLE).
//! * [`AttrInterval`], [`ProjectedCluster`], [`Clustering`] — the result
//!   model shared by the algorithms (`p3c-core`), the baseline
//!   (`p3c-bow`), the generator's ground truth (`p3c-datagen`) and the
//!   quality measures (`p3c-eval`).
//! * [`json`] — the one JSON writer (`-o json`, `--metrics-json`, the
//!   bench reports); there is no reader.
//! * [`persist`] — the plain-text dataset format of the CLI.
//! * [`blocklog`] — the append/retract metadata log the incremental
//!   service keeps per dataset (block ids, row counts, log order).
//! * [`journal`] — the write-ahead journal and snapshot files backing
//!   durable tenants (checksummed records, atomic snapshot replace,
//!   torn-tail-tolerant recovery reads), encoded with [`bytes`].
#![warn(missing_docs)]

pub mod blocklog;
pub mod bytes;
pub mod colseg;
pub mod data;
pub mod journal;
pub mod json;
pub mod model;
pub mod persist;

pub use blocklog::{BlockEntry, BlockLog};
pub use data::{Columns, Dataset, NormalizationMap};
pub use model::{split_assignment, AttrInterval, Clustering, ProjectedCluster};

/// One appended block of rows — the name the service, store and spill
/// layers use for a [`Dataset`].
pub type RowBlock = Dataset;
