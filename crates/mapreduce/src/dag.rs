//! Job graphs of MapReduce jobs over materialized datasets, and the one
//! loop that executes them.
//!
//! The paper decomposes P3C+ into a chain of MR jobs. A pipeline states
//! its jobs as a dependency graph, Spark-style:
//!
//! * [`JobGraph`] — named nodes ([`JobNode`]), each an MR job (map-only,
//!   map-reduce, or with-combiner) declaring the datasets it reads and
//!   writes by [`DatasetHandle`].
//! * [`JobGraph::run`] — validates the graph, then runs its nodes one
//!   after another on the calling thread, in topological order, and
//!   materializes their outputs in a [`DatasetStore`]. The
//!   [`SchedulerChoice`] decides what each node gets: one attempt
//!   (`Serial`), or retries, lineage recovery and metrics (`Dag`).
//! * **Lineage** (`Dag`) — when a node finds an input evicted or lost,
//!   the walk re-executes only the producing ancestors of that dataset
//!   (never the whole run) before retrying the node.
//! * **Metrics** (`Dag`) — per-node attempts and timings and the store's
//!   cache/spill counters are recorded as a [`DagMetrics`] entry in the
//!   engine's [`crate::ClusterMetrics`].
//!
//! Nodes never overlap: each node's job already runs on all of the
//! engine's threads. Node bodies may borrow from the caller's stack, so
//! the bulk row set is borrowed by the nodes and only the small
//! intermediates travel through the store. A node body that panics
//! unwinds out of [`JobGraph::run`] to its caller.

use crate::dataset::{DatasetError, DatasetHandle, DatasetStore, DatasetStoreStats};
use crate::engine::{Engine, MrError};
use crate::metrics::{DagMetrics, DagNodeMetrics};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Attempts per node under [`SchedulerChoice::Dag`] (node-level retry, on
/// top of the engine's per-task retries).
const MAX_NODE_ATTEMPTS: u64 = 2;

/// How [`JobGraph::run`] executes each node of a pipeline's graphs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerChoice {
    /// Run each node once, in topological order (the paper's literal job
    /// chain). Records no [`DagMetrics`].
    #[default]
    Serial,
    /// The same walk, plus node retries, lineage recovery of lost
    /// datasets, and one [`DagMetrics`] entry per run.
    Dag,
}

impl SchedulerChoice {
    /// Parses a CLI-style scheduler name (`"serial"` / `"dag"`).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "serial" => Some(Self::Serial),
            "dag" => Some(Self::Dag),
            _ => None,
        }
    }

    /// The canonical name, the inverse of [`SchedulerChoice::parse`].
    pub fn name(self) -> &'static str {
        match self {
            Self::Serial => "serial",
            Self::Dag => "dag",
        }
    }
}

/// What shape of MR job a node runs (metadata for metrics/reporting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// Map tasks only; output comes straight from the mappers.
    MapOnly,
    /// Map, shuffle, reduce.
    MapReduce,
    /// Map, map-side combine, shuffle, reduce.
    MapCombineReduce,
}

impl JobKind {
    /// Human-readable kind label used in metrics and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            JobKind::MapOnly => "map-only",
            JobKind::MapReduce => "map-reduce",
            JobKind::MapCombineReduce => "map-combine-reduce",
        }
    }
}

/// Errors of graph construction, scheduling and node execution.
#[derive(Debug)]
pub enum DagError {
    /// An underlying MapReduce job failed.
    Mr(MrError),
    /// A dataset-store access failed.
    Dataset(DatasetError),
    /// A node exhausted its attempts; `source` is the last failure.
    NodeFailed {
        /// The failing node.
        node: String,
        /// How many attempts were made.
        attempts: u64,
        /// The last attempt's error.
        source: Box<DagError>,
    },
    /// A node input has no producer and is not pre-seeded in the store.
    MissingInput {
        /// The node declaring the input.
        node: String,
        /// The dataset nobody produces.
        dataset: String,
    },
    /// Two nodes declare the same output dataset.
    DuplicateProducer {
        /// The doubly-produced dataset.
        dataset: String,
    },
    /// Two nodes share a name.
    DuplicateNode {
        /// The duplicated node name.
        name: String,
    },
    /// The graph is not acyclic; `nodes` are the unschedulable ones.
    Cycle {
        /// Nodes left unschedulable by the cycle.
        nodes: Vec<String>,
    },
    /// A node reported success without materializing a declared output.
    OutputNotMaterialized {
        /// The node that under-delivered.
        node: String,
        /// The missing dataset.
        dataset: String,
    },
}

impl DagError {
    /// Walks `NodeFailed` wrappers down to an engine error, if any.
    pub fn root_mr(&self) -> Option<&MrError> {
        match self {
            DagError::Mr(e) => Some(e),
            DagError::NodeFailed { source, .. } => source.root_mr(),
            _ => None,
        }
    }

    /// The failing node's name, when the error identifies one.
    pub fn node_name(&self) -> Option<&str> {
        match self {
            DagError::NodeFailed { node, .. }
            | DagError::MissingInput { node, .. }
            | DagError::OutputNotMaterialized { node, .. } => Some(node),
            _ => None,
        }
    }
}

/// Collapses the error onto [`MrError`] for drivers whose public result
/// type predates the job graphs: engine failures pass through untouched,
/// executor-level failures keep the failing node's name in
/// [`MrError::Dag`].
impl From<DagError> for MrError {
    fn from(e: DagError) -> Self {
        match e.root_mr() {
            Some(mr) => mr.clone(),
            None => MrError::Dag {
                node: e.node_name().unwrap_or("<graph>").to_string(),
                message: e.to_string(),
            },
        }
    }
}

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagError::Mr(e) => write!(f, "{e}"),
            DagError::Dataset(e) => write!(f, "{e}"),
            DagError::NodeFailed {
                node,
                attempts,
                source,
            } => {
                write!(
                    f,
                    "DAG node '{node}' failed after {attempts} attempts: {source}"
                )
            }
            DagError::MissingInput { node, dataset } => {
                write!(f, "DAG node '{node}': input dataset '{dataset}' has no producer and is not materialized")
            }
            DagError::DuplicateProducer { dataset } => {
                write!(f, "dataset '{dataset}' is produced by more than one node")
            }
            DagError::DuplicateNode { name } => {
                write!(f, "duplicate node name '{name}'")
            }
            DagError::Cycle { nodes } => {
                write!(f, "job graph has a cycle through: {}", nodes.join(", "))
            }
            DagError::OutputNotMaterialized { node, dataset } => {
                write!(
                    f,
                    "DAG node '{node}' finished without materializing output '{dataset}'"
                )
            }
        }
    }
}

impl std::error::Error for DagError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DagError::Mr(e) => Some(e),
            DagError::Dataset(e) => Some(e),
            DagError::NodeFailed { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

impl From<MrError> for DagError {
    fn from(e: MrError) -> Self {
        DagError::Mr(e)
    }
}

impl From<DatasetError> for DagError {
    fn from(e: DatasetError) -> Self {
        DagError::Dataset(e)
    }
}

/// Execution context handed to a node's body.
pub struct NodeCtx<'a> {
    /// The engine every MR job of this DAG runs on.
    pub engine: &'a Engine,
    store: &'a DatasetStore,
    node_name: &'a str,
}

impl NodeCtx<'_> {
    /// Reads an input dataset from the store.
    pub fn fetch<T: Send + Sync + 'static>(
        &self,
        handle: &DatasetHandle<T>,
    ) -> Result<Arc<T>, DagError> {
        self.store.get(handle).map_err(DagError::from)
    }

    /// Materializes an output dataset. Node outputs are registered as
    /// *recomputable*: under memory pressure the store may drop them,
    /// and lineage re-executes this node to rebuild them.
    pub fn put<T: Send + Sync + 'static>(&self, handle: &DatasetHandle<T>, value: T, bytes: usize) {
        self.store.put_recomputable(handle, value, bytes);
    }

    /// Direct access to the dataset store (pinning, spillable puts).
    pub fn store(&self) -> &DatasetStore {
        self.store
    }

    /// The executing node's name.
    pub fn node_name(&self) -> &str {
        self.node_name
    }
}

type NodeBody<'a> = Box<dyn Fn(&NodeCtx) -> Result<(), DagError> + 'a>;

/// One node of a [`JobGraph`]: an MR job with declared dataset I/O. The
/// body may borrow for `'a` — the caller's rows, parameters and handles.
pub struct JobNode<'a> {
    name: String,
    kind: JobKind,
    inputs: Vec<String>,
    outputs: Vec<String>,
    run: NodeBody<'a>,
}

impl<'a> JobNode<'a> {
    /// Creates a node from its name, kind and body. Dataset I/O is
    /// declared afterwards with [`JobNode::input`] / [`JobNode::output`].
    pub fn new(
        name: impl Into<String>,
        kind: JobKind,
        run: impl Fn(&NodeCtx) -> Result<(), DagError> + 'a,
    ) -> Self {
        Self {
            name: name.into(),
            kind,
            inputs: Vec::new(),
            outputs: Vec::new(),
            run: Box::new(run),
        }
    }

    /// Declares a dataset this node reads (builder style).
    pub fn input<T>(mut self, handle: &DatasetHandle<T>) -> Self {
        self.inputs.push(handle.name().to_string());
        self
    }

    /// Declares a dataset this node writes (builder style).
    pub fn output<T>(mut self, handle: &DatasetHandle<T>) -> Self {
        self.outputs.push(handle.name().to_string());
        self
    }

    /// The node's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The node's job kind.
    pub fn kind(&self) -> JobKind {
        self.kind
    }

    /// Runs the body once.
    fn run_body(&self, engine: &Engine, store: &DatasetStore) -> Result<(), DagError> {
        (self.run)(&NodeCtx {
            engine,
            store,
            node_name: &self.name,
        })
    }

    /// Checks that every declared output is materialized — what both
    /// executors demand of a body that returned `Ok`.
    fn check_outputs(&self, store: &DatasetStore) -> Result<(), DagError> {
        match self.outputs.iter().find(|out| !store.has(out)) {
            Some(out) => Err(DagError::OutputNotMaterialized {
                node: self.name.clone(),
                dataset: out.clone(),
            }),
            None => Ok(()),
        }
    }
}

impl fmt::Debug for JobNode<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobNode")
            .field("name", &self.name)
            .field("kind", &self.kind)
            .field("inputs", &self.inputs)
            .field("outputs", &self.outputs)
            .finish()
    }
}

/// A named set of [`JobNode`]s; edges are implied by matching dataset
/// declarations (a node consuming `x` depends on the node producing `x`).
#[derive(Debug, Default)]
pub struct JobGraph<'a> {
    name: String,
    nodes: Vec<JobNode<'a>>,
}

impl<'a> JobGraph<'a> {
    /// Creates an empty graph with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            nodes: Vec::new(),
        }
    }

    /// Adds a node; declaration order breaks scheduling ties.
    pub fn add(&mut self, node: JobNode<'a>) -> &mut Self {
        self.nodes.push(node);
        self
    }

    /// The graph's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Node names in declaration order.
    pub fn node_names(&self) -> Vec<&str> {
        self.nodes.iter().map(|n| n.name.as_str()).collect()
    }

    /// Runs the graph to completion on the calling thread — the one place
    /// a [`SchedulerChoice`] is acted on. On success every declared output
    /// is materialized in `store`.
    ///
    /// Both choices validate the graph once, then walk the same
    /// topological order, one node at a time. [`SchedulerChoice::Serial`]
    /// runs each node once: no node retries or lineage recovery (the
    /// engine still retries tasks) and no [`DagMetrics`] in the ledger.
    /// [`SchedulerChoice::Dag`] gives each node two attempts, rebuilds
    /// lost inputs through lineage, and records one [`DagMetrics`] entry,
    /// for a failed run too.
    pub fn run(
        &self,
        engine: &Engine,
        store: &DatasetStore,
        scheduler: SchedulerChoice,
    ) -> Result<(), DagError> {
        let Plan { producer, order } = self.plan(store)?;
        let mut dag = (scheduler == SchedulerChoice::Dag)
            .then(|| DagRun::start(self, engine, store, producer));
        let result = order.into_iter().try_for_each(|idx| match dag.as_mut() {
            Some(dag) => dag.execute_node(idx),
            None => {
                let node = &self.nodes[idx];
                node.run_body(engine, store)?;
                node.check_outputs(store)
            }
        });
        if let Some(dag) = dag {
            engine.record_dag(dag.finish());
        }
        result
    }

    /// Validates the graph — unique node names, one producer per
    /// dataset, every sourceless input pre-seeded in `store`, no cycle —
    /// and derives its topological order.
    fn plan(&self, store: &DatasetStore) -> Result<Plan<'_>, DagError> {
        let n = self.nodes.len();
        let mut producer: BTreeMap<&str, usize> = BTreeMap::new();
        let mut names: BTreeSet<&str> = BTreeSet::new();
        for (i, node) in self.nodes.iter().enumerate() {
            if !names.insert(node.name.as_str()) {
                return Err(DagError::DuplicateNode {
                    name: node.name.clone(),
                });
            }
            for out in &node.outputs {
                if producer.insert(out.as_str(), i).is_some() {
                    return Err(DagError::DuplicateProducer {
                        dataset: out.clone(),
                    });
                }
            }
        }

        // Edges: producer → consumer.
        let mut dependents: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
        let mut indeg = vec![0usize; n];
        for (i, node) in self.nodes.iter().enumerate() {
            for input in &node.inputs {
                match producer.get(input.as_str()) {
                    Some(&p) => {
                        if dependents[p].insert(i) {
                            indeg[i] += 1;
                        }
                    }
                    None => {
                        if !store.has(input) {
                            return Err(DagError::MissingInput {
                                node: node.name.clone(),
                                dataset: input.clone(),
                            });
                        }
                    }
                }
            }
        }

        // Kahn pass over a FIFO queue: rejects cycles before anything
        // runs, and yields the order the walk follows, declaration order
        // breaking ties.
        let mut queue: VecDeque<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = queue.pop_front() {
            order.push(i);
            for &d in &dependents[i] {
                indeg[d] -= 1;
                if indeg[d] == 0 {
                    queue.push_back(d);
                }
            }
        }
        if order.len() < n {
            let stuck = (0..n)
                .filter(|&i| indeg[i] > 0)
                .map(|i| self.nodes[i].name.clone())
                .collect();
            return Err(DagError::Cycle { nodes: stuck });
        }
        Ok(Plan { producer, order })
    }
}

/// A validated [`JobGraph`]: its lineage and one topological order.
struct Plan<'g> {
    /// Dataset name → producing node index.
    producer: BTreeMap<&'g str, usize>,
    /// All node indices, producers first; declaration order breaks ties.
    order: Vec<usize>,
}

/// One [`SchedulerChoice::Dag`] walk in progress: the graph's lineage and
/// the [`DagMetrics`] entry it fills in.
struct DagRun<'r> {
    graph: &'r JobGraph<'r>,
    engine: &'r Engine,
    store: &'r DatasetStore,
    /// Dataset name → producing node index.
    producer: BTreeMap<&'r str, usize>,
    metrics: DagMetrics,
    store_before: DatasetStoreStats,
    jobs_before: usize,
    started: Instant,
}

impl<'r> DagRun<'r> {
    fn start(
        graph: &'r JobGraph<'r>,
        engine: &'r Engine,
        store: &'r DatasetStore,
        producer: BTreeMap<&'r str, usize>,
    ) -> Self {
        let nodes = graph
            .nodes
            .iter()
            .map(|node| DagNodeMetrics {
                node: node.name.clone(),
                kind: node.kind.as_str().to_string(),
                ..DagNodeMetrics::default()
            })
            .collect();
        Self {
            graph,
            engine,
            store,
            producer,
            metrics: DagMetrics {
                dag_name: graph.name.clone(),
                nodes,
                // One node runs at a time.
                concurrency_high_water: u64::from(!graph.is_empty()),
                ..DagMetrics::default()
            },
            store_before: store.stats(),
            jobs_before: engine.cluster_metrics().num_jobs(),
            // audit: time-ok — wall time feeds DagMetrics only, never results.
            started: Instant::now(),
        }
    }

    /// Runs one node with retries; inputs are recovered through lineage
    /// when missing and pinned for the duration of each attempt.
    fn execute_node(&mut self, idx: usize) -> Result<(), DagError> {
        let graph = self.graph;
        let node = &graph.nodes[idx];
        let mut attempts = 0;
        loop {
            for input in &node.inputs {
                self.recover_dataset(&node.name, input)?;
            }
            for input in &node.inputs {
                self.store.pin(input);
            }
            // audit: time-ok — per-node wall time feeds metrics only.
            let t0 = Instant::now();
            let result = node.run_body(self.engine, self.store);
            for input in &node.inputs {
                self.store.unpin(input);
            }
            attempts += 1;
            let run = &mut self.metrics.nodes[idx];
            run.attempts += 1;
            run.executions += 1;
            run.wall += t0.elapsed();
            self.metrics.total_executions += 1;
            match result {
                Ok(()) => return node.check_outputs(self.store),
                Err(e) => {
                    self.metrics.failed_node_attempts += 1;
                    if attempts == MAX_NODE_ATTEMPTS {
                        return Err(DagError::NodeFailed {
                            node: node.name.clone(),
                            attempts,
                            source: Box::new(e),
                        });
                    }
                }
            }
        }
    }

    /// Makes sure `dataset` is materialized, re-executing its lost
    /// producer (and transitively *that* node's lost inputs) — lineage
    /// recovery à la RDDs.
    fn recover_dataset(&mut self, consumer: &str, dataset: &str) -> Result<(), DagError> {
        if self.store.has(dataset) {
            return Ok(());
        }
        let Some(&p) = self.producer.get(dataset) else {
            return Err(DagError::MissingInput {
                node: consumer.to_string(),
                dataset: dataset.to_string(),
            });
        };
        let graph = self.graph;
        let pnode = &graph.nodes[p];
        for input in &pnode.inputs {
            self.recover_dataset(&pnode.name, input)?;
        }
        // audit: time-ok — recovery wall time feeds metrics only.
        let t0 = Instant::now();
        let result = pnode.run_body(self.engine, self.store);
        let run = &mut self.metrics.nodes[p];
        run.executions += 1;
        run.recoveries += 1;
        run.wall += t0.elapsed();
        self.metrics.total_executions += 1;
        self.metrics.recovered_executions += 1;
        result.map_err(|e| DagError::NodeFailed {
            node: pnode.name.clone(),
            attempts: 1,
            source: Box::new(e),
        })?;
        pnode.check_outputs(self.store)
    }

    /// The finished entry: the node counters plus what the store and the
    /// shuffle backend counted during the run.
    fn finish(self) -> DagMetrics {
        let mut m = self.metrics;
        m.wall = self.started.elapsed();
        let (before, after) = (self.store_before, self.store.stats());
        m.cache_hits = after.hits - before.hits;
        m.cache_misses = after.misses - before.misses;
        m.spills = after.spills - before.spills;
        m.spill_bytes = after.spill_bytes - before.spill_bytes;
        m.spill_raw_bytes = after.spill_raw_bytes - before.spill_raw_bytes;
        m.spill_loads = after.spill_loads - before.spill_loads;
        m.segment_reads = after.segment_reads - before.segment_reads;
        m.segment_bytes_read = after.segment_bytes_read - before.segment_bytes_read;
        m.evictions = after.evictions - before.evictions;
        // The ledger grows append-only, so every job past the pre-run
        // count ran in this walk.
        for job in &self.engine.cluster_metrics().jobs()[self.jobs_before..] {
            m.shuffle_fetches += job.shuffle_fetches;
            m.fetch_retries += job.fetch_retries;
            m.worker_restarts += job.worker_restarts;
            m.shuffle_bytes_moved += job.shuffle_bytes_moved;
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Emitter;
    use crate::engine::MrConfig;
    use crate::fault::FaultPlan;
    use crate::sync::Mutex;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn engine() -> Engine {
        Engine::new(MrConfig {
            split_size: 4,
            ..MrConfig::default()
        })
    }

    fn nums() -> DatasetHandle<Vec<u64>> {
        DatasetHandle::new("nums")
    }

    fn seed_nums(store: &DatasetStore, upto: u64) {
        store.put(&nums(), (0..upto).collect::<Vec<u64>>(), 8 * upto as usize);
    }

    /// The entry the last `Dag` run recorded in the engine ledger.
    fn last_dag_run(eng: &Engine) -> DagMetrics {
        eng.cluster_metrics()
            .dag_runs()
            .last()
            .cloned()
            .expect("a Dag run records its metrics")
    }

    /// A node body: sums `nums` with an MR job into `out`.
    fn sum_node(out: DatasetHandle<u64>) -> impl Fn(&NodeCtx) -> Result<(), DagError> {
        move |ctx: &NodeCtx| {
            let input = ctx.fetch(&nums())?;
            let mapper = |r: &u64, em: &mut Emitter<(), u64>| em.emit((), *r);
            let reducer = |_k: &(), vs: Vec<u64>, o: &mut Vec<u64>| {
                o.push(vs.into_iter().sum());
            };
            let res = ctx.engine.run(ctx.node_name(), &input, &mapper, &reducer)?;
            ctx.put(&out, res.output.into_iter().sum::<u64>(), 8);
            Ok(())
        }
    }

    #[test]
    fn two_node_chain_runs_in_order() {
        let eng = engine();
        let store = DatasetStore::new();
        seed_nums(&store, 10);
        let total: DatasetHandle<u64> = DatasetHandle::new("total");
        let doubled: DatasetHandle<u64> = DatasetHandle::new("doubled");
        let mut graph = JobGraph::new("chain");
        graph.add(
            JobNode::new("sum", JobKind::MapReduce, sum_node(total.clone()))
                .input(&nums())
                .output(&total),
        );
        graph.add(
            JobNode::new("double", JobKind::MapOnly, {
                let total = total.clone();
                let doubled = doubled.clone();
                move |ctx: &NodeCtx| {
                    let t = ctx.fetch(&total)?;
                    ctx.put(&doubled, *t * 2, 8);
                    Ok(())
                }
            })
            .input(&total)
            .output(&doubled),
        );
        graph.run(&eng, &store, SchedulerChoice::Dag).unwrap();
        assert_eq!(*store.get(&doubled).unwrap(), 90);
        let m = last_dag_run(&eng);
        assert_eq!(m.total_executions, 2);
        assert_eq!(m.recovered_executions, 0);
        assert_eq!(m.nodes.len(), 2);
        assert_eq!(m.node("sum").unwrap().kind, "map-reduce");
        // The run is recorded in the engine ledger next to its jobs.
        let ledger = eng.cluster_metrics();
        assert_eq!(ledger.dag_runs().len(), 1);
        assert_eq!(ledger.dag_runs()[0].dag_name, "chain");
        assert_eq!(ledger.jobs()[0].job_name, "sum");
    }

    #[test]
    fn panicking_node_body_fails_the_run_and_spares_the_engine() {
        for scheduler in [SchedulerChoice::Serial, SchedulerChoice::Dag] {
            let eng = engine();
            let store = DatasetStore::new();
            seed_nums(&store, 10);
            let never: DatasetHandle<u64> = DatasetHandle::new("never");
            let total: DatasetHandle<u64> = DatasetHandle::new("total");
            let mut graph = JobGraph::new("explodes");
            graph.add(
                JobNode::new(
                    "boom",
                    JobKind::MapOnly,
                    |_: &NodeCtx| -> Result<(), DagError> { panic!("node body exploded") },
                )
                .output(&never),
            );
            // Declared after `boom`, so the walk never reaches it.
            graph.add(
                JobNode::new("sum", JobKind::MapReduce, sum_node(total.clone()))
                    .input(&nums())
                    .output(&total),
            );
            let unwound = catch_unwind(AssertUnwindSafe(|| graph.run(&eng, &store, scheduler)));
            assert!(
                unwound.is_err(),
                "{scheduler:?}: the panic reaches the caller"
            );
            assert!(!store.has(never.name()), "{scheduler:?}");
            assert!(!store.has(total.name()), "{scheduler:?}");

            // The same engine and store run the next graph.
            let again: DatasetHandle<u64> = DatasetHandle::new("again");
            let mut graph = JobGraph::new("after");
            graph.add(
                JobNode::new("sum", JobKind::MapReduce, sum_node(again.clone()))
                    .input(&nums())
                    .output(&again),
            );
            graph.run(&eng, &store, scheduler).unwrap();
            assert_eq!(*store.get(&again).unwrap(), 45, "{scheduler:?}");
        }
    }

    #[test]
    fn node_retries_count_exactly_one_node_at_a_time() {
        // 24 independent nodes; every third fails its first attempt. The
        // walk retries each flaky node once and runs nothing alongside
        // it, so every counter of the entry is exact.
        const NODES: u64 = 24;
        const FLAKY_EVERY: u64 = 3; // node 0, 3, 6, ... fail once
        let eng = engine();
        let store = DatasetStore::new();
        seed_nums(&store, 16);
        let mut graph = JobGraph::new("flaky");
        for i in 0..NODES {
            let out: DatasetHandle<u64> = DatasetHandle::new(format!("out-{i}"));
            let tries = AtomicUsize::new(0);
            graph.add(
                JobNode::new(format!("n{i}"), JobKind::MapOnly, {
                    let out = out.clone();
                    move |ctx: &NodeCtx| {
                        if i % FLAKY_EVERY == 0 && tries.fetch_add(1, Ordering::SeqCst) == 0 {
                            return Err(DagError::Mr(MrError::TaskFailed {
                                job: ctx.node_name().to_string(),
                                task: 0,
                                attempts: 1,
                            }));
                        }
                        let input = ctx.fetch(&nums())?;
                        let mapper = |r: &u64, em: &mut Emitter<(), u64>| em.emit((), r * 3);
                        let res = ctx.engine.run_map_only(ctx.node_name(), &input, &mapper)?;
                        ctx.put(&out, res.output.iter().sum(), 8);
                        Ok(())
                    }
                })
                .input(&nums())
                .output(&out),
            );
        }
        graph.run(&eng, &store, SchedulerChoice::Dag).unwrap();
        let m = last_dag_run(&eng);
        let flaky = NODES.div_ceil(FLAKY_EVERY);
        assert_eq!(m.failed_node_attempts, flaky);
        assert_eq!(m.total_executions, NODES + flaky);
        assert_eq!(m.recovered_executions, 0);
        assert_eq!(m.concurrency_high_water, 1);
        // Only the successful attempts fetch the shared input.
        assert_eq!(m.cache_hits, NODES);
        assert_eq!(m.nodes.len(), NODES as usize);
        for i in 0..NODES {
            let node = m.node(&format!("n{i}")).unwrap();
            let want = if i % FLAKY_EVERY == 0 { 2 } else { 1 };
            assert_eq!(node.attempts, want, "node {i}");
            assert_eq!(node.executions, want, "node {i}");
            let out: DatasetHandle<u64> = DatasetHandle::new(format!("out-{i}"));
            assert_eq!(*store.get(&out).unwrap(), (0..16).map(|x| x * 3).sum());
        }
    }

    #[test]
    fn diamond_respects_dependencies() {
        let eng = engine();
        let store = DatasetStore::new();
        seed_nums(&store, 6);
        let order: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
        let a: DatasetHandle<u64> = DatasetHandle::new("a");
        let b: DatasetHandle<u64> = DatasetHandle::new("b");
        let c: DatasetHandle<u64> = DatasetHandle::new("c");
        let d: DatasetHandle<u64> = DatasetHandle::new("d");
        let mk = |name: &'static str,
                  input: DatasetHandle<u64>,
                  output: DatasetHandle<u64>,
                  order: Arc<Mutex<Vec<&'static str>>>| {
            let body = {
                let (input, output) = (input.clone(), output.clone());
                move |ctx: &NodeCtx| {
                    order.lock().push(name);
                    let v = ctx.fetch(&input)?;
                    ctx.put(&output, *v + 1, 8);
                    Ok(())
                }
            };
            JobNode::new(name, JobKind::MapOnly, body)
                .input(&input)
                .output(&output)
        };
        let mut graph = JobGraph::new("diamond");
        graph.add(
            JobNode::new("root", JobKind::MapOnly, {
                let a = a.clone();
                let order = Arc::clone(&order);
                move |ctx: &NodeCtx| {
                    order.lock().push("root");
                    ctx.put(&a, 1, 8);
                    Ok(())
                }
            })
            .output(&a),
        );
        graph.add(mk("left", a.clone(), b.clone(), Arc::clone(&order)));
        graph.add(mk("right", a.clone(), c.clone(), Arc::clone(&order)));
        graph.add(
            JobNode::new("join", JobKind::MapOnly, {
                let b = b.clone();
                let c = c.clone();
                let d = d.clone();
                let order = Arc::clone(&order);
                move |ctx: &NodeCtx| {
                    order.lock().push("join");
                    let vb = ctx.fetch(&b)?;
                    let vc = ctx.fetch(&c)?;
                    ctx.put(&d, *vb + *vc, 8);
                    Ok(())
                }
            })
            .input(&b)
            .input(&c)
            .output(&d),
        );
        graph.run(&eng, &store, SchedulerChoice::Dag).unwrap();
        assert_eq!(*store.get(&d).unwrap(), 4);
        let order = order.lock();
        assert_eq!(order.first(), Some(&"root"));
        assert_eq!(order.last(), Some(&"join"));
        assert_eq!(order.len(), 4);
    }

    #[test]
    fn serial_executor_walks_topological_order_and_records_no_dag_metrics() {
        // Node bodies borrow these locals: nothing here is `'static`.
        let order: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
        let a: DatasetHandle<u64> = DatasetHandle::new("a");
        let b: DatasetHandle<u64> = DatasetHandle::new("b");
        let c: DatasetHandle<u64> = DatasetHandle::new("c");
        let sum: DatasetHandle<u64> = DatasetHandle::new("sum");
        fn step<'a>(
            name: &'static str,
            from: &'a DatasetHandle<u64>,
            to: &'a DatasetHandle<u64>,
            order: &'a Mutex<Vec<&'static str>>,
        ) -> JobNode<'a> {
            JobNode::new(name, JobKind::MapOnly, move |ctx: &NodeCtx| {
                order.lock().push(name);
                let v = *ctx.fetch(from)?;
                ctx.put(to, v + 1, 8);
                Ok(())
            })
            .input(from)
            .output(to)
        }
        // Declared out of dependency order on purpose.
        let mut graph = JobGraph::new("inline");
        graph.add(
            JobNode::new("join", JobKind::MapOnly, |ctx: &NodeCtx| {
                order.lock().push("join");
                let total = *ctx.fetch(&b)? + *ctx.fetch(&c)?;
                ctx.put(&sum, total, 8);
                Ok(())
            })
            .input(&b)
            .input(&c)
            .output(&sum),
        );
        graph.add(step("left", &a, &b, &order));
        graph.add(step("right", &a, &c, &order));
        for scheduler in [SchedulerChoice::Serial, SchedulerChoice::Dag] {
            let eng = engine();
            let store = DatasetStore::new();
            store.put(&a, 1u64, 8);
            order.lock().clear();
            graph.run(&eng, &store, scheduler).unwrap();
            assert_eq!(*store.get(&sum).unwrap(), 4, "{scheduler:?}");
            assert_eq!(*order.lock(), ["left", "right", "join"], "{scheduler:?}");
            let dag_runs = eng.cluster_metrics().dag_runs().len();
            match scheduler {
                SchedulerChoice::Serial => assert_eq!(dag_runs, 0),
                SchedulerChoice::Dag => assert_eq!(dag_runs, 1),
            }
        }
    }

    #[test]
    fn serial_executor_validates_and_stops_at_the_first_failure() {
        let eng = engine();
        let store = DatasetStore::new();
        let x: DatasetHandle<u64> = DatasetHandle::new("x");
        let y: DatasetHandle<u64> = DatasetHandle::new("y");
        let ran_second = AtomicUsize::new(0);
        let mut graph = JobGraph::new("liar-then-reader");
        graph.add(JobNode::new("liar", JobKind::MapOnly, |_: &NodeCtx| Ok(())).output(&x));
        graph.add(
            JobNode::new("reader", JobKind::MapOnly, |_: &NodeCtx| {
                ran_second.fetch_add(1, Ordering::SeqCst);
                Ok(())
            })
            .input(&x)
            .output(&y),
        );
        let err = graph
            .run(&eng, &store, SchedulerChoice::Serial)
            .unwrap_err();
        assert!(matches!(err, DagError::OutputNotMaterialized { ref node, .. } if node == "liar"));
        assert_eq!(ran_second.load(Ordering::SeqCst), 0);

        let mut cyclic = JobGraph::new("cyclic");
        cyclic.add(
            JobNode::new("n1", JobKind::MapOnly, |_: &NodeCtx| Ok(()))
                .input(&y)
                .output(&x),
        );
        cyclic.add(
            JobNode::new("n2", JobKind::MapOnly, |_: &NodeCtx| Ok(()))
                .input(&x)
                .output(&y),
        );
        let err = cyclic
            .run(&eng, &store, SchedulerChoice::Serial)
            .unwrap_err();
        assert!(matches!(err, DagError::Cycle { .. }));
    }

    #[test]
    fn cycle_is_rejected() {
        let eng = engine();
        let store = DatasetStore::new();
        let x: DatasetHandle<u64> = DatasetHandle::new("x");
        let y: DatasetHandle<u64> = DatasetHandle::new("y");
        let mut graph = JobGraph::new("cyclic");
        graph.add(
            JobNode::new("n1", JobKind::MapOnly, |_: &NodeCtx| Ok(()))
                .input(&y)
                .output(&x),
        );
        graph.add(
            JobNode::new("n2", JobKind::MapOnly, |_: &NodeCtx| Ok(()))
                .input(&x)
                .output(&y),
        );
        let err = graph.run(&eng, &store, SchedulerChoice::Dag).unwrap_err();
        match err {
            DagError::Cycle { nodes } => {
                assert_eq!(nodes, vec!["n1".to_string(), "n2".to_string()])
            }
            other => panic!("expected cycle, got {other:?}"),
        }
    }

    #[test]
    fn missing_input_and_duplicates_are_rejected() {
        let eng = engine();
        let store = DatasetStore::new();
        let x: DatasetHandle<u64> = DatasetHandle::new("x");
        let mut graph = JobGraph::new("bad-input");
        graph.add(JobNode::new("n", JobKind::MapOnly, |_: &NodeCtx| Ok(())).input(&x));
        let err = graph.run(&eng, &store, SchedulerChoice::Dag).unwrap_err();
        assert!(matches!(err, DagError::MissingInput { ref dataset, .. } if dataset == "x"));

        let mut graph = JobGraph::new("dup-producer");
        graph.add(JobNode::new("n1", JobKind::MapOnly, |_: &NodeCtx| Ok(())).output(&x));
        graph.add(JobNode::new("n2", JobKind::MapOnly, |_: &NodeCtx| Ok(())).output(&x));
        let err = graph.run(&eng, &store, SchedulerChoice::Dag).unwrap_err();
        assert!(matches!(err, DagError::DuplicateProducer { ref dataset } if dataset == "x"));

        let mut graph = JobGraph::new("dup-node");
        graph.add(JobNode::new("n", JobKind::MapOnly, |_: &NodeCtx| Ok(())));
        graph.add(JobNode::new("n", JobKind::MapOnly, |_: &NodeCtx| Ok(())));
        let err = graph.run(&eng, &store, SchedulerChoice::Dag).unwrap_err();
        assert!(matches!(err, DagError::DuplicateNode { ref name } if name == "n"));
    }

    #[test]
    fn exhausted_node_surfaces_its_name_and_mr_error() {
        // The node's engine job is doomed: certain fault, so every node
        // attempt ends in MrError::TaskFailed. The walk must give up
        // after the node's two attempts and name the failing node.
        let eng = Engine::new(MrConfig {
            split_size: 4,
            fault: Some(FaultPlan::new(1.0, 7)),
            max_attempts: 3,
            ..MrConfig::default()
        });
        let store = DatasetStore::new();
        seed_nums(&store, 10);
        let out: DatasetHandle<u64> = DatasetHandle::new("out");
        let mut graph = JobGraph::new("doomed");
        graph.add(
            JobNode::new("doomed-node", JobKind::MapReduce, sum_node(out.clone()))
                .input(&nums())
                .output(&out),
        );
        let err = graph.run(&eng, &store, SchedulerChoice::Dag).unwrap_err();
        assert_eq!(err.node_name(), Some("doomed-node"));
        match &err {
            DagError::NodeFailed { node, attempts, .. } => {
                assert_eq!(node, "doomed-node");
                assert_eq!(*attempts, 2);
            }
            other => panic!("expected NodeFailed, got {other:?}"),
        }
        assert!(
            matches!(err.root_mr(), Some(MrError::TaskFailed { attempts: 3, .. })),
            "root: {:?}",
            err.root_mr()
        );
        // The failed run is still recorded, with its failure counters.
        let dag_runs = eng.cluster_metrics();
        assert_eq!(dag_runs.dag_runs().len(), 1);
        assert_eq!(dag_runs.dag_runs()[0].failed_node_attempts, 2);
    }

    #[test]
    fn lineage_recovers_only_lost_ancestors() {
        // Chain: produce "a" → derive "b" → consume in "c". The first
        // attempt of "c" simulates losing "b" (evicted cache) and fails;
        // recovery must re-execute *only* the producer of "b" — not the
        // root — before the retry succeeds.
        let eng = engine();
        let store = DatasetStore::new();
        let a: DatasetHandle<u64> = DatasetHandle::new("a");
        let b: DatasetHandle<u64> = DatasetHandle::new("b");
        let c: DatasetHandle<u64> = DatasetHandle::new("c");
        let mut graph = JobGraph::new("lineage");
        graph.add(
            JobNode::new("make-a", JobKind::MapOnly, {
                let a = a.clone();
                move |ctx: &NodeCtx| {
                    ctx.put(&a, 5, 8);
                    Ok(())
                }
            })
            .output(&a),
        );
        graph.add(
            JobNode::new("make-b", JobKind::MapOnly, {
                let a = a.clone();
                let b = b.clone();
                move |ctx: &NodeCtx| {
                    let va = ctx.fetch(&a)?;
                    ctx.put(&b, *va * 10, 8);
                    Ok(())
                }
            })
            .input(&a)
            .output(&b),
        );
        let attempts = AtomicUsize::new(0);
        graph.add(
            JobNode::new("make-c", JobKind::MapOnly, {
                let b = b.clone();
                let c = c.clone();
                move |ctx: &NodeCtx| {
                    if attempts.fetch_add(1, Ordering::SeqCst) == 0 {
                        // Simulate a lost cached dataset: the fetch fails.
                        ctx.store().drop_cached(b.name());
                    }
                    let vb = ctx.fetch(&b)?;
                    ctx.put(&c, *vb + 1, 8);
                    Ok(())
                }
            })
            .input(&b)
            .output(&c),
        );
        graph.run(&eng, &store, SchedulerChoice::Dag).unwrap();
        assert_eq!(*store.get(&c).unwrap(), 51);
        let m = &last_dag_run(&eng);
        // Only the lost ancestor re-executed: the re-execution counter
        // stays below the total node count.
        assert_eq!(m.recovered_executions, 1);
        assert!(m.recovered_executions < graph.len() as u64);
        assert_eq!(
            m.node("make-a").unwrap().executions,
            1,
            "root must not re-run"
        );
        assert_eq!(m.node("make-b").unwrap().recoveries, 1);
        assert_eq!(m.node("make-b").unwrap().executions, 2);
        assert_eq!(m.node("make-c").unwrap().attempts, 2);
        // 3 scheduled + 1 failed attempt + 1 recovery.
        assert_eq!(m.total_executions, 5);
    }

    #[test]
    fn empty_graph_is_a_noop() {
        let eng = engine();
        let store = DatasetStore::new();
        let graph = JobGraph::new("empty");
        graph.run(&eng, &store, SchedulerChoice::Dag).unwrap();
        let m = last_dag_run(&eng);
        assert_eq!(m.total_executions, 0);
        assert_eq!(m.concurrency_high_water, 0);
    }

    #[test]
    fn output_must_be_materialized() {
        let eng = engine();
        let store = DatasetStore::new();
        let x: DatasetHandle<u64> = DatasetHandle::new("x");
        let mut graph = JobGraph::new("liar");
        graph.add(JobNode::new("liar", JobKind::MapOnly, |_: &NodeCtx| Ok(())).output(&x));
        let err = graph.run(&eng, &store, SchedulerChoice::Dag).unwrap_err();
        assert!(
            matches!(err, DagError::OutputNotMaterialized { ref dataset, .. } if dataset == "x")
        );
    }
}
