//! An in-process MapReduce execution engine — the Hadoop stand-in for the
//! P3C+-MR reproduction.
//!
//! The paper implements P3C+ as a sequence of Hadoop jobs. This crate
//! recreates the programming model and the observable behaviour of such a
//! cluster inside one process:
//!
//! * **Programming model** — [`Mapper`], [`Reducer`] and [`Combiner`]
//!   traits with an [`Emitter`] context ([`api`]); mappers may override
//!   [`Mapper::map_split`] to use the whole input split (the paper's MVB
//!   mapper does exactly that in its cleanup phase).
//! * **Execution** — [`Engine`] chunks input into splits, runs map tasks on
//!   a thread pool, hash-partitions and sort-merges the intermediate pairs
//!   into `num_reducers` groups and runs the reduce tasks in parallel
//!   ([`engine`]).
//! * **Fault tolerance** — deterministic, seedable fault injection with
//!   task re-execution ([`fault`]), mirroring Hadoop's retry semantics.
//! * **Distributed cache** — a broadcast-cost-accounted side channel for
//!   shipping candidate sets and RSSC bitmaps to every mapper ([`cache`]).
//! * **Metrics** — per-job record/byte counters and wall-clock phases
//!   ([`metrics`]); these drive the runtime/I/O figures of the evaluation.
//! * **Block storage** — a tiny "HDFS-lite" ([`blockstore`]) used by the
//!   examples to stage datasets as replicated blocks.
//! * **Job graphs** — a pipeline is one [`JobGraph`] of MR jobs passing
//!   named intermediate datasets ([`dag`], [`dataset`]), walked in
//!   topological order by [`JobGraph::run`]. Under
//!   [`SchedulerChoice::Dag`] the walk also retries failed nodes,
//!   re-executes only lost ancestors through lineage, and records
//!   [`DagMetrics`].
//! * **Distributed backends** — a [`Backend`] seam over the shuffle data
//!   plane ([`distrib`]): the in-process engine, an in-process shuffle
//!   service, and a multi-process backend whose spawned workers serve
//!   partitions over a checksummed TCP frame protocol with worker
//!   respawn and map re-execution on loss.
//!
//! # Example
//!
//! A two-node job graph: a map-reduce job counts word lengths into a
//! `counts` dataset, and a downstream map-only job derives the most
//! common length from it. The walk runs `count` first — `report`
//! declares `counts` as an input — and materializes both datasets in the
//! [`DatasetStore`].
//!
//! ```
//! use p3c_mapreduce::{
//!     DatasetHandle, DatasetStore, Emitter, Engine, JobGraph, JobKind, JobNode, Mapper, MrConfig,
//!     NodeCtx, Reducer, SchedulerChoice,
//! };
//!
//! /// Classic word-length count: length -> how many words.
//! struct LenMapper;
//! impl Mapper<String, usize, u64> for LenMapper {
//!     fn map(&self, word: &String, out: &mut Emitter<usize, u64>) {
//!         out.emit(word.len(), 1);
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
//! let store = DatasetStore::new();
//!
//! // Input dataset, loaded into the store once for the whole pipeline.
//! let words: DatasetHandle<Vec<String>> = DatasetHandle::new("words");
//! let counts: DatasetHandle<Vec<(usize, u64)>> = DatasetHandle::new("counts");
//! let top: DatasetHandle<usize> = DatasetHandle::new("top-length");
//! let data: Vec<String> =
//!     ["map", "reduce", "shuffle", "ox", "fox"].iter().map(|s| s.to_string()).collect();
//! store.put(&words, data, 64);
//!
//! let mut graph = JobGraph::new("wordlen-pipeline");
//! graph.add(
//!     JobNode::new("count", JobKind::MapReduce, {
//!         let (words, counts) = (words.clone(), counts.clone());
//!         move |ctx: &NodeCtx| {
//!             let input = ctx.fetch(&words)?;
//!             let res = ctx.engine.run("wordlen", &input, &LenMapper, &SumReducer)?;
//!             ctx.put(&counts, res.output, 16);
//!             Ok(())
//!         }
//!     })
//!     .input(&words)
//!     .output(&counts),
//! );
//! graph.add(
//!     JobNode::new("report", JobKind::MapOnly, {
//!         let (counts, top) = (counts.clone(), top.clone());
//!         move |ctx: &NodeCtx| {
//!             let pairs = ctx.fetch(&counts)?;
//!             let best = pairs.iter().max_by_key(|&&(len, n)| (n, len)).map(|p| p.0);
//!             ctx.put(&top, best.unwrap_or(0), 8);
//!             Ok(())
//!         }
//!     })
//!     .input(&counts)
//!     .output(&top),
//! );
//!
//! graph.run(&engine, &store, SchedulerChoice::Dag).unwrap();
//! assert_eq!(*store.get(&top).unwrap(), 3); // two words of length 3
//! assert_eq!(engine.cluster_metrics().dag_runs()[0].total_executions, 2);
//! ```
#![warn(missing_docs)]

pub mod api;
pub mod blockstore;
pub mod cache;
pub mod dag;
pub mod dataset;
pub mod distrib;
pub mod engine;
pub mod fault;
pub mod kernel;
pub mod metrics;
pub mod pool;
pub mod service;
pub mod sync;
pub mod weight;

pub use api::{Combiner, Emitter, Mapper, Reducer};
pub use blockstore::BlockStore;
pub use cache::DistributedCache;
pub use dag::{DagError, JobGraph, JobKind, JobNode, NodeCtx, SchedulerChoice};
pub use dataset::{DatasetError, DatasetHandle, DatasetStore, DatasetStoreStats, SegmentedCodec};
pub use distrib::{
    Backend, BackendChoice, BackendError, LocalBackend, MapOutputTracker, ProcessBackend,
    ShuffleManager, Wire,
};
pub use engine::{stable_partition, Engine, JobOutput, MrConfig, MrError};
pub use fault::FaultPlan;
pub use metrics::{ClusterMetrics, DagMetrics, DagNodeMetrics, JobMetrics};
pub use pool::{parallel_for_blocks, parallel_for_blocks_with, resolve_threads, run_workers};
pub use service::{ClusterService, ServiceError, ServiceMetrics, Tenant};
pub use weight::Weighable;
