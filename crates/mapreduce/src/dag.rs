//! Job graphs of MapReduce jobs over materialized datasets, and their
//! two executors.
//!
//! The paper decomposes P3C+ into a *sequence* of MR jobs, but some of
//! those jobs are independent (MR-Light's attribute inspection and core
//! tightening). This module lets a pipeline state its jobs as a
//! dependency graph instead, Spark-style:
//!
//! * [`JobGraph`] — named nodes ([`JobNode`]), each an MR job (map-only,
//!   map-reduce, or with-combiner) declaring the datasets it reads and
//!   writes by [`DatasetHandle`].
//! * [`DagScheduler`] — topologically sorts the graph, runs every ready
//!   node concurrently (bounded by [`DagConfig::max_concurrent_jobs`]),
//!   materializes outputs in a [`DatasetStore`], and retries failed
//!   nodes up to [`DagConfig::max_node_attempts`].
//! * **Lineage** — when a node finds an input evicted or lost, the
//!   scheduler re-executes only the producing ancestors of that dataset
//!   (never the whole run) before retrying the node.
//! * **Metrics** — per-node timings, the concurrency high-water mark and
//!   the store's cache/spill counters are recorded as a
//!   [`DagMetrics`] entry in the engine's [`crate::ClusterMetrics`].
//!
//! A pipeline defines its job graph once; [`JobGraph::run`] hands it to
//! the executor a [`SchedulerChoice`] names — the [`DagScheduler`], or an
//! inline walk of the same topological order on the calling thread.
//! Node bodies may borrow from the caller's stack (both executors finish
//! every node before returning), so the bulk row set is borrowed by the
//! nodes and only the small intermediates travel through the store.

use crate::dataset::{DatasetError, DatasetHandle, DatasetStore};
use crate::engine::{Engine, MrError};
use crate::fault::FaultPlan;
use crate::metrics::{DagMetrics, DagNodeMetrics};
use crate::sync::{Condvar, Mutex};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which executor runs a pipeline's [`JobGraph`]s (see [`JobGraph::run`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerChoice {
    /// Run the nodes one after another on the calling thread, in
    /// topological order (the paper's literal job chain). Records no
    /// [`DagMetrics`].
    #[default]
    Serial,
    /// Run the graph on the [`DagScheduler`]: ready nodes overlap, failed
    /// nodes retry, lost datasets are rebuilt through lineage.
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
    /// The DAG-level fault plan struck this node attempt.
    Injected {
        /// The node whose attempt was killed.
        node: String,
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
    /// A scheduler worker thread panicked in node user code.
    WorkerPanicked {
        /// The DAG whose run was torn down.
        dag: String,
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
            | DagError::Injected { node }
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
            DagError::Injected { node } => {
                write!(f, "DAG node '{node}': injected fault")
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
            DagError::WorkerPanicked { dag } => {
                write!(f, "DAG '{dag}': a worker thread panicked in node code")
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

type NodeBody<'a> = Box<dyn Fn(&NodeCtx) -> Result<(), DagError> + Send + Sync + 'a>;

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
        run: impl Fn(&NodeCtx) -> Result<(), DagError> + Send + Sync + 'a,
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

    /// Runs the graph to completion on the executor `scheduler` names —
    /// the one place a [`SchedulerChoice`] is acted on. On success every
    /// declared output is materialized in `store`.
    ///
    /// [`SchedulerChoice::Dag`] is [`DagScheduler::run`] with the default
    /// [`DagConfig`]. [`SchedulerChoice::Serial`] validates the graph the
    /// same way, then runs each node once, in topological order, on the
    /// calling thread: no node retries or lineage recovery (the engine
    /// still retries tasks) and no [`DagMetrics`] in the ledger.
    pub fn run(
        &self,
        engine: &Engine,
        store: &DatasetStore,
        scheduler: SchedulerChoice,
    ) -> Result<(), DagError> {
        match scheduler {
            SchedulerChoice::Dag => DagScheduler::new(engine).run(self, store).map(|_| ()),
            SchedulerChoice::Serial => {
                for idx in self.plan(store)?.order {
                    let node = &self.nodes[idx];
                    node.run_body(engine, store)?;
                    node.check_outputs(store)?;
                }
                Ok(())
            }
        }
    }

    /// Validates the graph — unique node names, one producer per
    /// dataset, every sourceless input pre-seeded in `store`, no cycle —
    /// and derives its edges and a topological order.
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
        // runs, and yields the order the scheduler's ready queue would
        // produce with a single job slot.
        let mut deg = indeg.clone();
        let mut queue: VecDeque<usize> = (0..n).filter(|&i| deg[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = queue.pop_front() {
            order.push(i);
            for &d in &dependents[i] {
                deg[d] -= 1;
                if deg[d] == 0 {
                    queue.push_back(d);
                }
            }
        }
        if order.len() < n {
            let stuck = (0..n)
                .filter(|&i| deg[i] > 0)
                .map(|i| self.nodes[i].name.clone())
                .collect();
            return Err(DagError::Cycle { nodes: stuck });
        }
        Ok(Plan {
            producer,
            dependents,
            indeg,
            order,
        })
    }
}

/// A validated [`JobGraph`]: its edges and one topological order.
struct Plan<'g> {
    /// Dataset name → producing node index.
    producer: BTreeMap<&'g str, usize>,
    /// Node index → the nodes consuming one of its outputs.
    dependents: Vec<BTreeSet<usize>>,
    /// Node index → number of producers it waits on.
    indeg: Vec<usize>,
    /// All node indices, producers first; declaration order breaks ties.
    order: Vec<usize>,
}

/// Scheduler configuration.
#[derive(Debug, Clone)]
pub struct DagConfig {
    /// Upper bound on nodes executing at the same time. Each node still
    /// runs its MR job on the engine's full thread pool, so a small
    /// number (Hadoop-style "job slots") avoids oversubscription.
    pub max_concurrent_jobs: usize,
    /// Attempts per node before the run fails (node-level retry, on top
    /// of the engine's per-task retries).
    pub max_node_attempts: usize,
    /// DAG-level fault injection: strikes whole node attempts, keyed by
    /// node name / node index / attempt like the engine's plan.
    pub fault: Option<FaultPlan>,
}

impl Default for DagConfig {
    fn default() -> Self {
        Self {
            max_concurrent_jobs: 4,
            max_node_attempts: 2,
            fault: None,
        }
    }
}

/// Result of a successful DAG run.
#[derive(Debug, Clone)]
pub struct DagReport {
    /// The run's execution counters (also recorded in the engine ledger).
    pub metrics: DagMetrics,
}

/// Executes a [`JobGraph`] on an [`Engine`] over a [`DatasetStore`].
pub struct DagScheduler<'e> {
    engine: &'e Engine,
    config: DagConfig,
}

/// Per-node mutable counters during a run.
#[derive(Default)]
struct NodeRun {
    attempts: u64,
    executions: u64,
    recoveries: u64,
    wall: Duration,
}

/// Shared, read-mostly context of one `run` invocation.
struct RunShared<'g> {
    graph: &'g JobGraph<'g>,
    store: &'g DatasetStore,
    /// dataset name → producing node index.
    producer: BTreeMap<&'g str, usize>,
    node_runs: Vec<Mutex<NodeRun>>,
    executions: AtomicU64,
    recovered: AtomicU64,
    failed_attempts: AtomicU64,
    /// Serializes lineage recovery so concurrent consumers of a lost
    /// dataset rebuild it once, not racing re-executions.
    recovery: Mutex<()>,
}

/// Scheduler queue state, guarded by one mutex + condvar.
struct QueueState {
    ready: VecDeque<usize>,
    indeg: Vec<usize>,
    remaining: usize,
    running: usize,
    high_water: usize,
    error: Option<DagError>,
}

impl<'e> DagScheduler<'e> {
    /// Scheduler with the default [`DagConfig`].
    pub fn new(engine: &'e Engine) -> Self {
        Self::with_config(engine, DagConfig::default())
    }

    /// Scheduler with an explicit configuration.
    pub fn with_config(engine: &'e Engine, config: DagConfig) -> Self {
        Self { engine, config }
    }

    /// The scheduler's configuration.
    pub fn config(&self) -> &DagConfig {
        &self.config
    }

    /// Runs the graph to completion; on success every declared output is
    /// materialized in `store`.
    pub fn run(&self, graph: &JobGraph<'_>, store: &DatasetStore) -> Result<DagReport, DagError> {
        // audit: time-ok — wall time feeds DagMetrics only, never results.
        let started = Instant::now();
        let n = graph.nodes.len();
        let store_before = store.stats();
        let jobs_before = self.engine.cluster_metrics().num_jobs();

        let Plan {
            producer,
            dependents,
            indeg,
            ..
        } = graph.plan(store)?;

        let shared = RunShared {
            graph,
            store,
            producer,
            node_runs: (0..n).map(|_| Mutex::new(NodeRun::default())).collect(),
            executions: AtomicU64::new(0),
            recovered: AtomicU64::new(0),
            failed_attempts: AtomicU64::new(0),
            recovery: Mutex::new(()),
        };
        let state = Mutex::new(QueueState {
            ready: (0..n).filter(|&i| indeg[i] == 0).collect(),
            indeg,
            remaining: n,
            running: 0,
            high_water: 0,
            error: None,
        });
        let cv = Condvar::new();

        if n > 0 {
            let workers = self.config.max_concurrent_jobs.max(1).min(n);
            std::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(|| loop {
                        // Claim a ready node (or quit). The high-water
                        // mark is taken at claim time, under the lock.
                        let idx = {
                            let mut st = state.lock();
                            loop {
                                if st.error.is_some() || st.remaining == 0 {
                                    return;
                                }
                                if let Some(i) = st.ready.pop_front() {
                                    st.running += 1;
                                    st.high_water = st.high_water.max(st.running);
                                    break i;
                                }
                                if st.running == 0 {
                                    // Unreachable after the Kahn pass;
                                    // guard against hangs regardless.
                                    st.error = Some(DagError::Cycle {
                                        nodes: vec!["<stalled>".to_string()],
                                    });
                                    cv.notify_all();
                                    return;
                                }
                                cv.wait(&mut st);
                            }
                        };
                        // A node body that panics (outside the engine's
                        // own catch) is caught here, on the worker: the
                        // scope would re-raise it into the caller, and
                        // the other workers would wait on `running`
                        // forever. It fails the run like any node error.
                        let result =
                            catch_unwind(AssertUnwindSafe(|| self.execute_node(&shared, idx)))
                                .unwrap_or_else(|_| {
                                    Err(DagError::WorkerPanicked {
                                        dag: graph.name.clone(),
                                    })
                                });
                        let mut st = state.lock();
                        st.running -= 1;
                        match result {
                            Ok(()) => {
                                st.remaining -= 1;
                                for &d in &dependents[idx] {
                                    st.indeg[d] -= 1;
                                    if st.indeg[d] == 0 {
                                        st.ready.push_back(d);
                                    }
                                }
                            }
                            Err(e) => {
                                if st.error.is_none() {
                                    st.error = Some(e);
                                }
                            }
                        }
                        drop(st);
                        cv.notify_all();
                    });
                }
            });
        }

        let final_state = state.into_inner();
        let store_after = store.stats();
        let nodes = graph
            .nodes
            .iter()
            .zip(&shared.node_runs)
            .map(|(node, run)| {
                let run = run.lock();
                DagNodeMetrics {
                    node: node.name.clone(),
                    kind: node.kind.as_str().to_string(),
                    attempts: run.attempts,
                    executions: run.executions,
                    recoveries: run.recoveries,
                    wall: run.wall,
                }
            })
            .collect();
        let metrics = DagMetrics {
            dag_name: graph.name.clone(),
            nodes,
            concurrency_high_water: final_state.high_water as u64,
            // audit: relaxed-ok — metric reads after every worker joined
            // (scope exit is the synchronization point).
            total_executions: shared.executions.load(Ordering::Relaxed),
            // audit: relaxed-ok — as above.
            recovered_executions: shared.recovered.load(Ordering::Relaxed),
            // audit: relaxed-ok — as above.
            failed_node_attempts: shared.failed_attempts.load(Ordering::Relaxed),
            cache_hits: store_after.hits - store_before.hits,
            cache_misses: store_after.misses - store_before.misses,
            spills: store_after.spills - store_before.spills,
            spill_bytes: store_after.spill_bytes - store_before.spill_bytes,
            spill_raw_bytes: store_after.spill_raw_bytes - store_before.spill_raw_bytes,
            spill_loads: store_after.spill_loads - store_before.spill_loads,
            segment_reads: store_after.segment_reads - store_before.segment_reads,
            segment_bytes_read: store_after.segment_bytes_read - store_before.segment_bytes_read,
            evictions: store_after.evictions - store_before.evictions,
            shuffle_fetches: 0,
            fetch_retries: 0,
            worker_restarts: 0,
            shuffle_bytes_moved: 0,
            wall: started.elapsed(),
        };
        // Shuffle-backend data-plane totals: sum the per-job counters of
        // exactly the jobs this run executed (the ledger grows append-only,
        // so everything past the pre-run snapshot belongs to this run).
        let mut metrics = metrics;
        for job in &self.engine.cluster_metrics().jobs()[jobs_before..] {
            metrics.shuffle_fetches += job.shuffle_fetches;
            metrics.fetch_retries += job.fetch_retries;
            metrics.worker_restarts += job.worker_restarts;
            metrics.shuffle_bytes_moved += job.shuffle_bytes_moved;
        }
        let metrics = metrics;
        self.engine.record_dag(metrics.clone());
        match final_state.error {
            Some(e) => Err(e),
            None => Ok(DagReport { metrics }),
        }
    }

    /// Runs one node with retries; inputs are pinned for the duration of
    /// each attempt and recovered through lineage when missing.
    fn execute_node(&self, shared: &RunShared<'_>, idx: usize) -> Result<(), DagError> {
        let node = &shared.graph.nodes[idx];
        let max_attempts = self.config.max_node_attempts.max(1);
        let mut attempt = 0;
        loop {
            self.ensure_inputs(shared, idx)?;
            for input in &node.inputs {
                shared.store.pin(input);
            }
            // audit: time-ok — per-node wall time feeds metrics only.
            let t0 = Instant::now();
            // audit: relaxed-ok — monotonic metric counter.
            shared.executions.fetch_add(1, Ordering::Relaxed);
            let injected = self
                .config
                .fault
                .as_ref()
                .is_some_and(|plan| plan.should_fail(&node.name, idx, attempt));
            let result = if injected {
                Err(DagError::Injected {
                    node: node.name.clone(),
                })
            } else {
                node.run_body(self.engine, shared.store)
            };
            for input in &node.inputs {
                shared.store.unpin(input);
            }
            {
                let mut run = shared.node_runs[idx].lock();
                run.attempts += 1;
                run.executions += 1;
                run.wall += t0.elapsed();
            }
            match result {
                Ok(()) => return node.check_outputs(shared.store),
                Err(e) => {
                    // audit: relaxed-ok — monotonic metric counter.
                    shared.failed_attempts.fetch_add(1, Ordering::Relaxed);
                    attempt += 1;
                    if attempt >= max_attempts {
                        return Err(DagError::NodeFailed {
                            node: node.name.clone(),
                            attempts: attempt as u64,
                            source: Box::new(e),
                        });
                    }
                }
            }
        }
    }

    /// Makes sure every input of `idx` is materialized, re-executing
    /// lost producers (and transitively *their* lost inputs) — lineage
    /// recovery à la RDDs.
    fn ensure_inputs(&self, shared: &RunShared<'_>, idx: usize) -> Result<(), DagError> {
        let node = &shared.graph.nodes[idx];
        if node.inputs.iter().all(|i| shared.store.has(i)) {
            return Ok(());
        }
        let _serialize_recovery = shared.recovery.lock();
        for input in &node.inputs {
            self.recover_dataset(shared, &node.name, input)?;
        }
        Ok(())
    }

    fn recover_dataset(
        &self,
        shared: &RunShared<'_>,
        consumer: &str,
        dataset: &str,
    ) -> Result<(), DagError> {
        if shared.store.has(dataset) {
            return Ok(());
        }
        let Some(&p) = shared.producer.get(dataset) else {
            return Err(DagError::MissingInput {
                node: consumer.to_string(),
                dataset: dataset.to_string(),
            });
        };
        let pnode = &shared.graph.nodes[p];
        for input in &pnode.inputs {
            self.recover_dataset(shared, &pnode.name, input)?;
        }
        // audit: relaxed-ok — monotonic metric counters.
        shared.executions.fetch_add(1, Ordering::Relaxed);
        // audit: relaxed-ok — monotonic metric counter.
        shared.recovered.fetch_add(1, Ordering::Relaxed);
        // audit: time-ok — recovery wall time feeds metrics only.
        let t0 = Instant::now();
        let result = pnode.run_body(self.engine, shared.store);
        {
            let mut run = shared.node_runs[p].lock();
            run.executions += 1;
            run.recoveries += 1;
            run.wall += t0.elapsed();
        }
        result.map_err(|e| DagError::NodeFailed {
            node: pnode.name.clone(),
            attempts: 1,
            source: Box::new(e),
        })?;
        pnode.check_outputs(shared.store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Emitter;
    use crate::engine::MrConfig;
    use std::sync::atomic::AtomicUsize;

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
        let report = DagScheduler::new(&eng).run(&graph, &store).unwrap();
        assert_eq!(*store.get(&doubled).unwrap(), 90);
        assert_eq!(report.metrics.total_executions, 2);
        assert_eq!(report.metrics.recovered_executions, 0);
        assert_eq!(report.metrics.nodes.len(), 2);
        assert_eq!(report.metrics.node("sum").unwrap().kind, "map-reduce");
        // The run is recorded in the engine ledger next to its jobs.
        let ledger = eng.cluster_metrics();
        assert_eq!(ledger.dag_runs().len(), 1);
        assert_eq!(ledger.dag_runs()[0].dag_name, "chain");
        assert_eq!(ledger.jobs()[0].job_name, "sum");
    }

    #[test]
    fn panicking_node_body_fails_the_run_and_spares_the_engine() {
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
        // Independent of `boom`, so a second worker is inside the run
        // when the first one dies and must not be left waiting for it.
        graph.add(
            JobNode::new("sum", JobKind::MapReduce, sum_node(total.clone()))
                .input(&nums())
                .output(&total),
        );
        let err = graph
            .run(&eng, &store, SchedulerChoice::Dag)
            .expect_err("a panicking node fails the run");
        assert!(
            matches!(&err, DagError::WorkerPanicked { dag } if dag == "explodes"),
            "{err}"
        );
        assert!(!store.has(never.name()));

        let again: DatasetHandle<u64> = DatasetHandle::new("again");
        let mut graph = JobGraph::new("after");
        graph.add(
            JobNode::new("sum", JobKind::MapReduce, sum_node(again.clone()))
                .input(&nums())
                .output(&again),
        );
        graph.run(&eng, &store, SchedulerChoice::Dag).unwrap();
        assert_eq!(*store.get(&again).unwrap(), 45);
    }

    #[test]
    fn independent_nodes_run_concurrently() {
        let eng = engine();
        let store = DatasetStore::new();
        seed_nums(&store, 8);
        let mut graph = JobGraph::new("parallel");
        let started = Arc::new(AtomicUsize::new(0));
        for name in ["left", "right"] {
            let out: DatasetHandle<u64> = DatasetHandle::new(format!("{name}-out"));
            let started = Arc::clone(&started);
            graph.add(
                JobNode::new(name, JobKind::MapOnly, {
                    let out = out.clone();
                    move |ctx: &NodeCtx| {
                        started.fetch_add(1, Ordering::SeqCst);
                        // Rendezvous: wait (bounded) until both node
                        // bodies have started, proving true overlap.
                        let deadline = Instant::now() + Duration::from_secs(5);
                        while started.load(Ordering::SeqCst) < 2 && Instant::now() < deadline {
                            std::thread::yield_now();
                        }
                        let input = ctx.fetch(&nums())?;
                        ctx.put(&out, input.iter().sum(), 8);
                        Ok(())
                    }
                })
                .input(&nums())
                .output(&out),
            );
        }
        let report = DagScheduler::new(&eng).run(&graph, &store).unwrap();
        assert_eq!(started.load(Ordering::SeqCst), 2);
        assert!(
            report.metrics.concurrency_high_water >= 2,
            "high water {}",
            report.metrics.concurrency_high_water
        );
        // Both nodes read the shared input from cache: ≥ 2 hits.
        assert!(
            report.metrics.cache_hits >= 2,
            "hits {}",
            report.metrics.cache_hits
        );
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
        DagScheduler::new(&eng).run(&graph, &store).unwrap();
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
            assert_eq!(order.lock().last(), Some(&"join"), "{scheduler:?}");
            let dag_runs = eng.cluster_metrics().dag_runs().len();
            match scheduler {
                SchedulerChoice::Serial => {
                    assert_eq!(*order.lock(), ["left", "right", "join"]);
                    assert_eq!(dag_runs, 0);
                }
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
        let err = DagScheduler::new(&eng).run(&graph, &store).unwrap_err();
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
        let err = DagScheduler::new(&eng).run(&graph, &store).unwrap_err();
        assert!(matches!(err, DagError::MissingInput { ref dataset, .. } if dataset == "x"));

        let mut graph = JobGraph::new("dup-producer");
        graph.add(JobNode::new("n1", JobKind::MapOnly, |_: &NodeCtx| Ok(())).output(&x));
        graph.add(JobNode::new("n2", JobKind::MapOnly, |_: &NodeCtx| Ok(())).output(&x));
        let err = DagScheduler::new(&eng).run(&graph, &store).unwrap_err();
        assert!(matches!(err, DagError::DuplicateProducer { ref dataset } if dataset == "x"));

        let mut graph = JobGraph::new("dup-node");
        graph.add(JobNode::new("n", JobKind::MapOnly, |_: &NodeCtx| Ok(())));
        graph.add(JobNode::new("n", JobKind::MapOnly, |_: &NodeCtx| Ok(())));
        let err = DagScheduler::new(&eng).run(&graph, &store).unwrap_err();
        assert!(matches!(err, DagError::DuplicateNode { ref name } if name == "n"));
    }

    #[test]
    fn exhausted_node_surfaces_its_name_and_mr_error() {
        // The node's engine job is doomed: certain fault, so every node
        // attempt ends in MrError::TaskFailed. The scheduler must give
        // up after max_node_attempts and name the failing node.
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
        let err = DagScheduler::new(&eng).run(&graph, &store).unwrap_err();
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
    fn dag_level_fault_injection_retries_and_recovers() {
        let eng = engine();
        let store = DatasetStore::new();
        seed_nums(&store, 10);
        let out: DatasetHandle<u64> = DatasetHandle::new("out");
        let mut graph = JobGraph::new("flaky");
        graph.add(
            JobNode::new("sum", JobKind::MapReduce, sum_node(out.clone()))
                .input(&nums())
                .output(&out),
        );
        // Fault probability 0.5: with 20 attempts allowed, success is
        // certain for the deterministic splitmix sequence in practice.
        let config = DagConfig {
            max_node_attempts: 20,
            fault: Some(FaultPlan::new(0.5, 21)),
            ..DagConfig::default()
        };
        let report = DagScheduler::with_config(&eng, config)
            .run(&graph, &store)
            .unwrap();
        assert_eq!(*store.get(&out).unwrap(), 45);
        let run = report.metrics.node("sum").unwrap();
        assert_eq!(run.attempts, report.metrics.failed_node_attempts + 1);
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
        let attempts = Arc::new(AtomicUsize::new(0));
        graph.add(
            JobNode::new("make-c", JobKind::MapOnly, {
                let b = b.clone();
                let c = c.clone();
                let attempts = Arc::clone(&attempts);
                move |ctx: &NodeCtx| {
                    if attempts.fetch_add(1, Ordering::SeqCst) == 0 {
                        // Simulate a lost cached dataset, then fail.
                        ctx.store().drop_cached(b.name());
                        return Err(DagError::Injected {
                            node: "make-c".into(),
                        });
                    }
                    let vb = ctx.fetch(&b)?;
                    ctx.put(&c, *vb + 1, 8);
                    Ok(())
                }
            })
            .input(&b)
            .output(&c),
        );
        let report = DagScheduler::new(&eng).run(&graph, &store).unwrap();
        assert_eq!(*store.get(&c).unwrap(), 51);
        let m = &report.metrics;
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
    fn dag_metrics_totals_exact_under_max_contention() {
        // Counter-ledger stress: 24 independent nodes, a third of which
        // fail their first attempt, all racing with every job slot open.
        // Whatever interleaving the scheduler picks, the merged
        // DagMetrics totals must come out exact — lost updates in the
        // metric merge would show up as off-by-N here.
        const NODES: u64 = 24;
        const FLAKY_EVERY: u64 = 3; // node 0, 3, 6, ... fail once
        for round in 0..3u64 {
            let eng = engine();
            let store = DatasetStore::new();
            seed_nums(&store, 16);
            let mut graph = JobGraph::new(format!("contended-{round}"));
            for i in 0..NODES {
                let out: DatasetHandle<u64> = DatasetHandle::new(format!("out-{i}"));
                let tries = Arc::new(AtomicUsize::new(0));
                graph.add(
                    JobNode::new(format!("n{i}"), JobKind::MapOnly, {
                        let out = out.clone();
                        move |ctx: &NodeCtx| {
                            if i % FLAKY_EVERY == 0 && tries.fetch_add(1, Ordering::SeqCst) == 0 {
                                return Err(DagError::Injected {
                                    node: ctx.node_name().to_string(),
                                });
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
            let cfg = DagConfig {
                max_concurrent_jobs: NODES as usize,
                max_node_attempts: 2,
                ..DagConfig::default()
            };
            let report = DagScheduler::with_config(&eng, cfg)
                .run(&graph, &store)
                .unwrap();
            let m = &report.metrics;
            let flaky = NODES.div_ceil(FLAKY_EVERY);
            assert_eq!(m.failed_node_attempts, flaky, "round {round}");
            assert_eq!(m.total_executions, NODES + flaky, "round {round}");
            assert_eq!(m.recovered_executions, 0, "round {round}");
            assert_eq!(m.nodes.len(), NODES as usize, "round {round}");
            let attempt_sum: u64 = m.nodes.iter().map(|n| n.attempts).sum();
            assert_eq!(attempt_sum, NODES + flaky, "round {round}");
            for i in 0..NODES {
                let node = m.node(&format!("n{i}")).unwrap();
                let want = if i % FLAKY_EVERY == 0 { 2 } else { 1 };
                assert_eq!(node.attempts, want, "round {round} node {i}");
                assert_eq!(node.executions, want, "round {round} node {i}");
                // Every node's output survived the stampede.
                let out: DatasetHandle<u64> = DatasetHandle::new(format!("out-{i}"));
                assert_eq!(*store.get(&out).unwrap(), (0..16).map(|x| x * 3).sum());
            }
            assert!(
                m.concurrency_high_water >= 1 && m.concurrency_high_water <= NODES,
                "round {round}: high water {}",
                m.concurrency_high_water
            );
        }
    }

    #[test]
    fn empty_graph_is_a_noop() {
        let eng = engine();
        let store = DatasetStore::new();
        let graph = JobGraph::new("empty");
        let report = DagScheduler::new(&eng).run(&graph, &store).unwrap();
        assert_eq!(report.metrics.total_executions, 0);
        assert_eq!(report.metrics.concurrency_high_water, 0);
    }

    #[test]
    fn output_must_be_materialized() {
        let eng = engine();
        let store = DatasetStore::new();
        let x: DatasetHandle<u64> = DatasetHandle::new("x");
        let mut graph = JobGraph::new("liar");
        graph.add(JobNode::new("liar", JobKind::MapOnly, |_: &NodeCtx| Ok(())).output(&x));
        let err = DagScheduler::new(&eng).run(&graph, &store).unwrap_err();
        assert!(
            matches!(err, DagError::OutputNotMaterialized { ref dataset, .. } if dataset == "x")
        );
    }
}
