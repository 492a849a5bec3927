//! Dataset abstraction and the shared projected-clustering data model.
//!
//! * [`Dataset`] — a row-major `n × d` matrix of `f64` attributes,
//!   normalized to `[0,1]` as the paper assumes (Section 3.1), with
//!   row-slice access suited to the MapReduce engine's split inputs.
//! * [`RowBlock`] / [`Columns`] — the columnar data plane's carrier: the
//!   same flat buffer with free row views and materializable contiguous
//!   columns, seeded once per pipeline into the MapReduce `DatasetStore`.
//! * [`colseg`] — the segmented columnar spill codec (per-attribute
//!   column segments, XOR-delta + byte-shuffle + zero-RLE).
//! * [`AttrInterval`], [`ProjectedCluster`], [`Clustering`] — the result
//!   model shared by the algorithms (`p3c-core`), the baseline
//!   (`p3c-bow`), the generator's ground truth (`p3c-datagen`) and the
//!   quality measures (`p3c-eval`).
//! * [`persist`] — plain-text and binary round-tripping for staging data
//!   into the block store and onto disk.
//! * [`blocklog`] — the append/retract metadata log the incremental
//!   service keeps per dataset (block ids, row counts, log order).
//! * [`journal`] — the write-ahead journal and snapshot files backing
//!   durable tenants (checksummed records, atomic snapshot replace,
//!   torn-tail-tolerant recovery reads).
#![warn(missing_docs)]

pub mod blocklog;
pub mod colseg;
pub mod data;
pub mod journal;
pub mod model;
pub mod persist;
pub mod rowblock;

pub use blocklog::{BlockEntry, BlockLog};
pub use data::{Dataset, NormalizationMap};
pub use model::{split_assignment, AttrInterval, Clustering, ProjectedCluster};
pub use rowblock::{Columns, RowBlock};
