//! An in-process MapReduce execution engine — the Hadoop stand-in for the
//! P3C+-MR reproduction.
//!
//! The paper implements P3C+ as a sequence of Hadoop jobs. This crate
//! recreates the programming model and the observable behaviour of such a
//! cluster inside one process:
//!
//! * **Programming model** — [`Mapper`] and [`Reducer`] traits with an
//!   [`Emitter`] context ([`api`]); a map task is
//!   [`Mapper::map_split`] over a whole input split, as in Hadoop (the
//!   paper's MVB mapper uses its split in the cleanup phase).
//! * **Execution** — [`Engine`] chunks input into splits, runs map tasks on
//!   the worker pool ([`pool`]), hash-partitions and sort-merges the
//!   intermediate pairs into `num_reducers` groups and runs the reduce
//!   tasks on the same pool ([`engine`]). Each map task runs once: it is a deterministic
//!   function of its split, and a panic in user code fails the job as
//!   [`MrError::Panicked`].
//! * **Metrics** — per-job record/byte counters, broadcast bytes charged
//!   per map task for side data a job ships to every mapper
//!   ([`Engine::run_with_cache`]), and wall-clock phases ([`metrics`]);
//!   these drive the runtime/I/O figures of the evaluation.
//! * **Job chains** — a pipeline is a named chain of steps run by
//!   [`run_chain`] ([`dag`]); each [`Chain::step`] hands its value back
//!   to the caller. Under [`SchedulerChoice::Dag`] a failed step runs
//!   once more and each chain records [`DagMetrics`].
//! * **Dataset store** — the service's cache of named row blocks,
//!   spilled in memory as encoded column segments under a byte budget,
//!   with reloads admitted by recency so a scan cannot flush it
//!   ([`dataset`]).
//! * **Distributed backends** — a [`Backend`] seam over the shuffle data
//!   plane ([`distrib`]): the in-process engine, an in-process shuffle
//!   service, and a multi-process backend whose spawned workers serve
//!   partitions over a checksummed TCP frame protocol with worker
//!   respawn and map re-execution on loss.
//!
//! # Example
//!
//! A two-step chain: a map-reduce job counts word lengths, and a driver
//! step derives the most common length from its output. Each step's
//! value is a local of the caller; under `Dag` the chain's steps are
//! recorded in the engine's ledger.
//!
//! ```
//! use p3c_mapreduce::{run_chain, Emitter, Engine, Mapper, MrConfig, Reducer, SchedulerChoice};
//!
//! /// Classic word-length count: length -> how many words.
//! struct LenMapper;
//! impl Mapper<String, usize, u64> for LenMapper {
//!     fn map_split(&self, words: &[String], out: &mut Emitter<usize, u64>) {
//!         for word in words {
//!             out.emit(word.len(), 1);
//!         }
//!     }
//! }
//! struct SumReducer;
//! impl Reducer<usize, u64, (usize, u64)> for SumReducer {
//!     fn reduce(&self, key: &usize, values: Vec<u64>, out: &mut Vec<(usize, u64)>) {
//!         out.push((*key, values.into_iter().sum()));
//!     }
//! }
//!
//! let engine = Engine::new(MrConfig::default());
//! let words: Vec<String> =
//!     ["map", "reduce", "shuffle", "ox", "fox"].iter().map(|s| s.to_string()).collect();
//!
//! let top = run_chain(&engine, "wordlen-pipeline", SchedulerChoice::Dag, |chain| {
//!     let counts = chain.step("count", |engine| {
//!         Ok(engine.run("wordlen", &words, &LenMapper, &SumReducer)?.output)
//!     })?;
//!     chain.step("report", |_| {
//!         let best = counts.iter().max_by_key(|&&(len, n)| (n, len));
//!         Ok(best.map_or(0, |p| p.0))
//!     })
//! })
//! .unwrap();
//! assert_eq!(top, 3); // two words of length 3
//! let ledger = engine.cluster_metrics();
//! assert_eq!(ledger.dag_runs()[0].nodes.len(), 2);
//! assert_eq!(ledger.jobs()[0].job_name, "wordlen");
//! ```
#![warn(missing_docs)]

pub mod api;
pub mod dag;
pub mod dataset;
pub mod distrib;
pub mod engine;
pub mod kernel;
pub mod metrics;
pub mod pool;
pub mod service;
pub mod sync;
pub mod weight;

pub use api::{Emitter, Mapper, Reducer};
pub use dag::{run_chain, Chain, SchedulerChoice};
pub use dataset::{DatasetError, DatasetStore, DatasetStoreStats};
pub use distrib::{
    Backend, BackendChoice, BackendError, LocalBackend, MapOutputTracker, ProcessBackend,
    ShuffleManager, Wire,
};
pub use engine::{Engine, JobOutput, MrConfig, MrError};
pub use metrics::{ClusterMetrics, DagMetrics, DagNodeMetrics, JobMetrics};
pub use pool::{parallel_for_blocks, parallel_for_blocks_with, resolve_threads};
pub use service::{ClusterService, ServiceError, ServiceMetrics, Tenant};
pub use weight::Weighable;
