//! Per-job and per-pipeline execution metrics.
//!
//! The evaluation figures of the paper (runtime and I/O, Figure 7) depend
//! on *how much work and data movement* each algorithm causes: number of
//! MR jobs, records mapped, bytes shuffled, bytes broadcast through the
//! distributed cache. The engine meters all of these.

use p3c_dataset::json::{ToJson, Writer};
use std::time::Duration;

/// Counters for a single MapReduce job.
#[derive(Debug, Clone, Default)]
pub struct JobMetrics {
    /// Job name as submitted.
    pub job_name: String,
    /// Number of map tasks (input splits).
    pub map_tasks: u64,
    /// Number of reduce tasks that received data.
    pub reduce_tasks: u64,
    /// Records read by all map tasks.
    pub map_input_records: u64,
    /// Records emitted by all map tasks.
    pub map_output_records: u64,
    /// Bytes emitted by all map tasks.
    pub map_output_bytes: u64,
    /// Records shuffled to reducers.
    pub shuffle_records: u64,
    /// Bytes shuffled to reducers.
    pub shuffle_bytes: u64,
    /// Distinct keys seen by reducers.
    pub reduce_input_groups: u64,
    /// Records produced by reducers (or by map-only output).
    pub output_records: u64,
    /// Bytes broadcast to every map task via the distributed cache.
    pub broadcast_bytes: u64,
    /// Map attempts that were failed and retried by fault injection.
    pub failed_attempts: u64,
    /// Speculative backup attempts launched.
    pub speculative_attempts: u64,
    /// Tasks whose committing attempt was a speculative backup.
    pub speculative_wins: u64,
    /// Wall-clock time of the map phase.
    pub map_wall: Duration,
    /// Wall-clock time of the shuffle+reduce phase.
    pub reduce_wall: Duration,
    /// Partition fetches reducers issued against the shuffle backend
    /// (0 on the passthrough in-memory path).
    pub shuffle_fetches: u64,
    /// Fetch attempts retried after timeouts, dead workers, or
    /// checksum failures.
    pub fetch_retries: u64,
    /// Worker processes (re)started while this job ran.
    pub worker_restarts: u64,
    /// Bytes that physically moved through the shuffle backend
    /// (stored by maps + fetched by reducers).
    pub shuffle_bytes_moved: u64,
}

impl ToJson for JobMetrics {
    fn write_json(&self, w: &mut Writer) {
        w.object(&[
            ("job_name", &self.job_name),
            ("map_tasks", &self.map_tasks),
            ("reduce_tasks", &self.reduce_tasks),
            ("map_input_records", &self.map_input_records),
            ("map_output_records", &self.map_output_records),
            ("map_output_bytes", &self.map_output_bytes),
            ("shuffle_records", &self.shuffle_records),
            ("shuffle_bytes", &self.shuffle_bytes),
            ("reduce_input_groups", &self.reduce_input_groups),
            ("output_records", &self.output_records),
            ("broadcast_bytes", &self.broadcast_bytes),
            ("failed_attempts", &self.failed_attempts),
            ("speculative_attempts", &self.speculative_attempts),
            ("speculative_wins", &self.speculative_wins),
            ("map_wall", &self.map_wall),
            ("reduce_wall", &self.reduce_wall),
            ("shuffle_fetches", &self.shuffle_fetches),
            ("fetch_retries", &self.fetch_retries),
            ("worker_restarts", &self.worker_restarts),
            ("shuffle_bytes_moved", &self.shuffle_bytes_moved),
        ]);
    }
}

impl JobMetrics {
    /// Zeroed counters for a job of the given name.
    pub fn new(name: &str) -> Self {
        Self {
            job_name: name.to_string(),
            ..Self::default()
        }
    }

    /// Total wall-clock of the job.
    pub fn total_wall(&self) -> Duration {
        self.map_wall + self.reduce_wall
    }
}

/// Counters of one step of a chain run under
/// [`crate::SchedulerChoice::Dag`] (see [`crate::dag`]).
#[derive(Debug, Clone, Default)]
pub struct DagNodeMetrics {
    /// The step's name.
    pub node: String,
    /// Attempts made, including a retried failure.
    pub attempts: u64,
    /// Wall-clock spent in this step (all attempts).
    pub wall: Duration,
}

impl ToJson for DagNodeMetrics {
    fn write_json(&self, w: &mut Writer) {
        w.object(&[
            ("node", &self.node),
            ("attempts", &self.attempts),
            ("wall", &self.wall),
        ]);
    }
}

/// Metrics of one [`crate::run_chain`] under
/// [`crate::SchedulerChoice::Dag`], recorded into the engine ledger next
/// to the per-job [`JobMetrics`].
#[derive(Debug, Clone, Default)]
pub struct DagMetrics {
    /// The chain's name.
    pub dag_name: String,
    /// Per-step counters of the steps that ran, in chain order.
    pub nodes: Vec<DagNodeMetrics>,
    /// Most steps executing at the same time: 1 for a chain that ran a
    /// step, since steps run one at a time (0 for an empty chain).
    pub concurrency_high_water: u64,
    /// Step attempts, failed ones included.
    pub total_executions: u64,
    /// Step attempts that failed.
    pub failed_node_attempts: u64,
    /// Wall-clock of the whole chain.
    pub wall: Duration,
}

impl ToJson for DagMetrics {
    fn write_json(&self, w: &mut Writer) {
        w.object(&[
            ("dag_name", &self.dag_name),
            ("nodes", &self.nodes),
            ("concurrency_high_water", &self.concurrency_high_water),
            ("total_executions", &self.total_executions),
            ("failed_node_attempts", &self.failed_node_attempts),
            ("wall", &self.wall),
        ]);
    }
}

impl DagMetrics {
    /// Looks up one step's counters by name.
    pub fn node(&self, name: &str) -> Option<&DagNodeMetrics> {
        self.nodes.iter().find(|n| n.node == name)
    }
}

/// Accumulated metrics of every job an [`crate::Engine`] has executed —
/// the paper's "number of MapReduce jobs needed for clustering
/// determination" is `jobs().len()` on this ledger.
#[derive(Debug, Clone, Default)]
pub struct ClusterMetrics {
    jobs: Vec<JobMetrics>,
    dag_runs: Vec<DagMetrics>,
}

impl ToJson for ClusterMetrics {
    fn write_json(&self, w: &mut Writer) {
        w.object(&[("jobs", &self.jobs), ("dag_runs", &self.dag_runs)]);
    }
}

impl ClusterMetrics {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record(&mut self, job: JobMetrics) {
        self.jobs.push(job);
    }

    pub(crate) fn record_dag(&mut self, dag: DagMetrics) {
        self.dag_runs.push(dag);
    }

    /// All executed jobs, in submission order.
    pub fn jobs(&self) -> &[JobMetrics] {
        &self.jobs
    }

    /// All chains recorded under [`crate::SchedulerChoice::Dag`], in run
    /// order.
    pub fn dag_runs(&self) -> &[DagMetrics] {
        &self.dag_runs
    }

    /// Number of executed jobs.
    pub fn num_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Total records read by map phases across all jobs.
    pub fn total_map_input_records(&self) -> u64 {
        self.jobs.iter().map(|j| j.map_input_records).sum()
    }

    /// Total bytes shuffled across all jobs.
    pub fn total_shuffle_bytes(&self) -> u64 {
        self.jobs.iter().map(|j| j.shuffle_bytes).sum()
    }

    /// Total bytes broadcast through the distributed cache.
    pub fn total_broadcast_bytes(&self) -> u64 {
        self.jobs.iter().map(|j| j.broadcast_bytes).sum()
    }

    /// Total wall-clock across all jobs.
    pub fn total_wall(&self) -> Duration {
        self.jobs.iter().map(|j| j.total_wall()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_accumulates_jobs() {
        let mut c = ClusterMetrics::new();
        assert_eq!(c.num_jobs(), 0);
        let mut j1 = JobMetrics::new("a");
        j1.map_input_records = 10;
        j1.shuffle_bytes = 100;
        let mut j2 = JobMetrics::new("b");
        j2.map_input_records = 5;
        j2.shuffle_bytes = 7;
        j2.broadcast_bytes = 50;
        c.record(j1);
        c.record(j2);
        assert_eq!(c.num_jobs(), 2);
        assert_eq!(c.total_map_input_records(), 15);
        assert_eq!(c.total_shuffle_bytes(), 107);
        assert_eq!(c.total_broadcast_bytes(), 50);
        assert_eq!(c.jobs()[0].job_name, "a");
    }

    #[test]
    fn total_wall_sums_phases() {
        let mut j = JobMetrics::new("t");
        j.map_wall = Duration::from_millis(30);
        j.reduce_wall = Duration::from_millis(12);
        assert_eq!(j.total_wall(), Duration::from_millis(42));
    }

    /// What `--metrics-json` holds for the ledger of
    /// `dag_metrics_node_lookup_and_json`.
    const EXPECTED_LEDGER: &str = r#"{
  "jobs": [
    {
      "job_name": "j \"1\"",
      "map_tasks": 4,
      "reduce_tasks": 0,
      "map_input_records": 0,
      "map_output_records": 0,
      "map_output_bytes": 0,
      "shuffle_records": 0,
      "shuffle_bytes": 18446744073709551615,
      "reduce_input_groups": 0,
      "output_records": 0,
      "broadcast_bytes": 0,
      "failed_attempts": 0,
      "speculative_attempts": 0,
      "speculative_wins": 0,
      "map_wall": 0.25,
      "reduce_wall": 0.0,
      "shuffle_fetches": 0,
      "fetch_retries": 0,
      "worker_restarts": 0,
      "shuffle_bytes_moved": 0
    }
  ],
  "dag_runs": [
    {
      "dag_name": "pipeline",
      "nodes": [
        {
          "node": "histogram",
          "attempts": 1,
          "wall": 0.005
        }
      ],
      "concurrency_high_water": 2,
      "total_executions": 1,
      "failed_node_attempts": 0,
      "wall": 0.0
    }
  ]
}"#;

    #[test]
    fn dag_metrics_node_lookup_and_json() {
        let dag = DagMetrics {
            dag_name: "pipeline".into(),
            nodes: vec![DagNodeMetrics {
                node: "histogram".into(),
                attempts: 1,
                wall: Duration::from_millis(5),
            }],
            concurrency_high_water: 2,
            total_executions: 1,
            ..DagMetrics::default()
        };
        assert_eq!(dag.node("histogram").unwrap().attempts, 1);
        assert!(dag.node("missing").is_none());
        // The whole ledger (jobs + DAG runs) is what the CLI's
        // --metrics-json writes: counters as integers, durations as
        // seconds.
        let mut job = JobMetrics::new("j \"1\"");
        job.map_tasks = 4;
        job.shuffle_bytes = u64::MAX;
        job.map_wall = Duration::from_millis(250);
        let mut c = ClusterMetrics::new();
        c.record(job);
        c.record_dag(dag);
        assert_eq!(p3c_dataset::json::render(&c), EXPECTED_LEDGER);
        assert_eq!(
            p3c_dataset::json::render(&ClusterMetrics::new()),
            "{\n  \"jobs\": [],\n  \"dag_runs\": []\n}"
        );
    }
}
