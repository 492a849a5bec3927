//! Distributed execution backends: shared-nothing shuffle under the
//! same `Job`/DAG API.
//!
//! The paper runs P3C+ on a real Hadoop cluster; this subsystem gives
//! the engine the corresponding execution substrate (DESIGN.md §12):
//!
//! * [`Backend`] — the seam between task execution and the shuffle
//!   data plane. The engine encodes each map task's partitions with the
//!   exact-round-trip [`Wire`] codec, submits them, and fetches them
//!   back per reducer in deterministic map order.
//! * [`LocalBackend`] — the threaded in-process engine. Passthrough by
//!   default (zero-copy shuffle, `is_distributed() == false`); its
//!   *shuffle-service* mode runs the full distributed byte path in one
//!   process, with optional deterministic loss injection.
//! * [`ProcessBackend`] — spawns `p3c worker --connect …` subprocesses
//!   of the same binary; shuffle partitions live in the workers and
//!   move over a length-prefixed TCP frame protocol with checksums,
//!   timeouts, retry/backoff, and worker respawn.
//! * [`MapOutputTracker`] — the master's registry of
//!   `(shuffle_id, map_id, reduce_id) → location + checksum`; worker
//!   death invalidates entries so fetches report the map output lost
//!   and the engine re-executes the map task (lineage recovery at the
//!   task level).
//! * [`ShuffleManager`] — one node's verified partition storage, used
//!   by worker processes and the in-process shuffle service alike. Each
//!   partition is checksummed once per hop — by its producer, at the
//!   storage node's door, by its consumer — with the byte layer's
//!   checksum (`wordsum64`, which also sums the v2 persisted formats).
//!
//! Because the partitioner is seeded, the merge is order-deterministic,
//! and the codec round-trips floats bit-exactly, all three pipelines
//! produce byte-identical output on every backend at every worker
//! count — the property the `distributed_backend` integration tests
//! pin.

pub mod backend;
pub mod loss;
pub mod process;
pub mod shuffle;
pub mod tracker;
pub mod wire;
pub mod worker;

pub use backend::{
    Backend, BackendChoice, BackendError, LocalBackend, MapOutput, ShuffleStats, StageSpec,
};
pub use loss::LossSelector;
pub use process::ProcessBackend;
pub use shuffle::{shuffle_key, ShuffleError, ShuffleManager};
pub use tracker::{BlockLocation, MapOutputTracker};
pub use wire::{decode_from_slice, encode_to_vec, Wire};
pub use worker::{run_worker, run_worker_tapped, TransitTap};
