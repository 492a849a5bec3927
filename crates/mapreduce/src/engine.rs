//! The job runner: split → map → shuffle → reduce.
//!
//! Both phases run on the worker pool
//! ([`crate::pool::parallel_for_blocks`]): the map phase has one block
//! per input split, the reduce phase one block per partition. The pool
//! hands results back in block order, so a reducer sees its values in
//! split order and the job output concatenates in partition order,
//! whatever the thread count (DESIGN.md §5).

use crate::api::{Emitter, Mapper, Reducer};
use crate::distrib::backend::{Backend, BackendChoice, BackendError, MapOutput, StageSpec};
use crate::distrib::wire::{decode_from_slice, encode_to_vec, Wire};
use crate::metrics::{ClusterMetrics, DagMetrics, JobMetrics};
use crate::pool::try_parallel_for_blocks_with;
use crate::sync::Mutex;
use crate::weight::Weighable;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Engine configuration — the "cluster shape".
#[derive(Debug, Clone)]
pub struct MrConfig {
    /// Number of reduce partitions (the paper uses 112 on its cluster).
    pub num_reducers: usize,
    /// Records per input split (Hadoop: one split ≈ one HDFS block).
    /// P3C+-MR's EM jobs fold 512-row blocks: a multiple of 512 (the
    /// default is one), or a single split, keeps its EM model bit for
    /// bit that of serial P3C+.
    pub split_size: usize,
    /// Worker threads executing tasks; `0` means all available cores.
    /// Workers are capped at the number of available cores (and at the
    /// number of tasks in a phase); a phase with one task or one worker
    /// runs on the calling thread.
    pub threads: usize,
    /// Where shuffle bytes live between map and reduce (see
    /// [`crate::distrib`]). The default honours the `P3C_BACKEND`
    /// environment variable and falls back to the in-process engine.
    pub backend: BackendChoice,
}

impl Default for MrConfig {
    fn default() -> Self {
        Self {
            num_reducers: 4,
            split_size: 8192,
            threads: 0,
            backend: BackendChoice::default(),
        }
    }
}

impl MrConfig {
    fn effective_threads(&self) -> usize {
        crate::pool::resolve_threads(self.threads)
    }
}

/// Result of one job: the reducer (or map-only) output plus metrics.
#[derive(Debug)]
pub struct JobOutput<O> {
    /// Output records, in reducer key order (or map emission order).
    pub output: Vec<O>,
    /// The job's execution counters.
    pub metrics: JobMetrics,
}

/// Job execution errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MrError {
    /// A worker thread panicked inside user map or reduce code; the job
    /// is aborted rather than crashing the whole process.
    Panicked {
        /// The job being executed.
        job: String,
        /// The phase whose user code panicked (`"map"` or `"reduce"`).
        phase: String,
    },
    /// The shuffle backend failed in a way recovery could not fix
    /// (spawn failure, protocol break, or exhausted re-executions).
    Backend {
        /// The job being executed.
        job: String,
        /// The rendered backend error.
        message: String,
    },
}

impl fmt::Display for MrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MrError::Panicked { job, phase } => {
                write!(f, "job '{job}': {phase} phase panicked in user code")
            }
            MrError::Backend { job, message } => {
                write!(f, "job '{job}': shuffle backend failed: {message}")
            }
        }
    }
}

impl std::error::Error for MrError {}

/// The in-process MapReduce engine.
///
/// One engine models one cluster: it holds the configuration and a ledger
/// of metrics for every job it has run (see [`ClusterMetrics`]).
pub struct Engine {
    config: MrConfig,
    ledger: Mutex<ClusterMetrics>,
    backend: Arc<dyn Backend>,
    /// Engine-unique shuffle-stage ids for the distributed data plane.
    next_shuffle: AtomicU64,
}

impl Engine {
    /// Engine with an explicit configuration.
    pub fn new(config: MrConfig) -> Self {
        let backend = config.backend.build();
        Self {
            config,
            ledger: Mutex::new(ClusterMetrics::new()),
            backend,
            next_shuffle: AtomicU64::new(0),
        }
    }

    /// Engine over an explicit backend instance, bypassing
    /// [`MrConfig::backend`] — for tests and embedders that construct
    /// backends directly (e.g. a shuffle service with an injected loss
    /// plan).
    pub fn with_backend(config: MrConfig, backend: Arc<dyn Backend>) -> Self {
        Self {
            config,
            ledger: Mutex::new(ClusterMetrics::new()),
            backend,
            next_shuffle: AtomicU64::new(0),
        }
    }

    /// Engine with default configuration.
    pub fn with_defaults() -> Self {
        Self::new(MrConfig::default())
    }

    /// The engine's configuration.
    pub fn config(&self) -> &MrConfig {
        &self.config
    }

    /// Snapshot of all job metrics recorded so far.
    pub fn cluster_metrics(&self) -> ClusterMetrics {
        self.ledger.lock().clone()
    }

    /// Records a chain's metrics in the ledger (called by
    /// [`crate::run_chain`] under [`crate::SchedulerChoice::Dag`]).
    pub(crate) fn record_dag(&self, metrics: DagMetrics) {
        self.ledger.lock().record_dag(metrics);
    }

    /// Broadcast bytes of `cache_bytes` of side data shipped once to
    /// each of `num_splits` map tasks.
    fn broadcast_cost(&self, cache_bytes: usize, num_splits: usize) -> u64 {
        (cache_bytes * num_splits) as u64
    }

    /// Runs a full map–shuffle–reduce job.
    pub fn run<I, K, V, O, M, R>(
        &self,
        name: &str,
        input: &[I],
        mapper: &M,
        reducer: &R,
    ) -> Result<JobOutput<O>, MrError>
    where
        I: Sync,
        K: Ord + Hash + Clone + Send + Weighable + Wire,
        V: Send + Weighable + Wire,
        O: Send,
        M: Mapper<I, K, V>,
        R: Reducer<K, V, O>,
    {
        self.run_inner(name, input, mapper, reducer, 0)
    }

    /// Runs a job whose mapper reads broadcast side data of the given byte
    /// size (charged as `bytes × map_tasks` to the job's broadcast cost).
    pub fn run_with_cache<I, K, V, O, M, R>(
        &self,
        name: &str,
        input: &[I],
        cache_bytes: usize,
        mapper: &M,
        reducer: &R,
    ) -> Result<JobOutput<O>, MrError>
    where
        I: Sync,
        K: Ord + Hash + Clone + Send + Weighable + Wire,
        V: Send + Weighable + Wire,
        O: Send,
        M: Mapper<I, K, V>,
        R: Reducer<K, V, O>,
    {
        self.run_inner(name, input, mapper, reducer, cache_bytes)
    }

    /// Runs a map-only job (Hadoop: zero reducers). The mapper's emitted
    /// *values* are the job output, concatenated in split order; keys are
    /// ignored (use `()`).
    pub fn run_map_only<I, O, M>(
        &self,
        name: &str,
        input: &[I],
        mapper: &M,
    ) -> Result<JobOutput<O>, MrError>
    where
        I: Sync,
        O: Send + Weighable,
        M: Mapper<I, (), O>,
    {
        self.run_map_only_with_cache(name, input, 0, mapper)
    }

    /// Map-only job with broadcast side data accounting.
    pub fn run_map_only_with_cache<I, O, M>(
        &self,
        name: &str,
        input: &[I],
        cache_bytes: usize,
        mapper: &M,
    ) -> Result<JobOutput<O>, MrError>
    where
        I: Sync,
        O: Send + Weighable,
        M: Mapper<I, (), O>,
    {
        // audit: time-ok — wall-clock feeds the map_wall metric only.
        let start = Instant::now();
        let mut metrics = JobMetrics::new(name);
        let splits: Vec<&[I]> = split_input(input, self.config.split_size);
        metrics.map_tasks = splits.len() as u64;
        metrics.map_input_records = input.len() as u64;
        metrics.broadcast_bytes = self.broadcast_cost(cache_bytes, splits.len());

        let outputs = self.run_map_phase(name, &splits, mapper, &mut metrics, |pairs| {
            pairs.into_iter().map(|((), v)| v).collect::<Vec<O>>()
        })?;
        let output: Vec<O> = outputs.into_iter().flatten().collect();
        metrics.output_records = output.len() as u64;
        metrics.map_wall = start.elapsed();
        self.ledger.lock().record(metrics.clone());
        Ok(JobOutput { output, metrics })
    }

    fn run_inner<I, K, V, O, M, R>(
        &self,
        name: &str,
        input: &[I],
        mapper: &M,
        reducer: &R,
        cache_bytes: usize,
    ) -> Result<JobOutput<O>, MrError>
    where
        I: Sync,
        K: Ord + Hash + Clone + Send + Weighable + Wire,
        V: Send + Weighable + Wire,
        O: Send,
        M: Mapper<I, K, V>,
        R: Reducer<K, V, O>,
    {
        // audit: time-ok — wall-clock feeds the map_wall and reduce_wall metrics only.
        let start = Instant::now();
        let mut metrics = JobMetrics::new(name);
        let num_reducers = self.config.num_reducers.max(1);
        let splits: Vec<&[I]> = split_input(input, self.config.split_size);
        metrics.map_tasks = splits.len() as u64;
        metrics.map_input_records = input.len() as u64;
        metrics.broadcast_bytes = self.broadcast_cost(cache_bytes, splits.len());

        // A map task partitions its output by key hash (shared with
        // lost-output recovery on the distributed path, which must
        // rebuild identical partitions). The pool returns the tasks'
        // partitions in split order, so the pairs a reducer gathers are
        // in split order whichever task finished first — jobs with
        // order-sensitive float accumulation stay byte-deterministic.
        let output = if self.backend.is_distributed() {
            // A map task's output leaves the engine as bytes, so the task
            // encodes its own partitions — on the pool, while the pairs
            // are still warm. Every partition travels, the empty ones
            // too: the same bytes lost-output recovery rebuilds.
            let encoded = self.run_map_phase(name, &splits, mapper, &mut metrics, |pairs| {
                partition(pairs, num_reducers)
                    .iter()
                    .map(encode_to_vec)
                    .collect::<Vec<_>>()
            })?;
            metrics.map_wall = start.elapsed();
            self.reduce_fetched(name, &splits, mapper, reducer, encoded, &mut metrics)?
        } else {
            let parts = self.run_map_phase(name, &splits, mapper, &mut metrics, |pairs| {
                partition(pairs, num_reducers)
            })?;
            metrics.map_wall = start.elapsed();
            // One inbox per partition holding every task's part for it,
            // in split order; the partition's reduce task takes it whole.
            let mut by_partition: Vec<Vec<Vec<(K, V)>>> = (0..num_reducers)
                .map(|_| Vec::with_capacity(parts.len()))
                .collect();
            for task in parts {
                for (p, part) in task.into_iter().enumerate() {
                    by_partition[p].push(part);
                }
            }
            let inboxes: Vec<_> = by_partition.into_iter().map(Mutex::new).collect();
            self.reduce_partitions(name, num_reducers, reducer, &mut metrics, |p| {
                let parts = std::mem::take(&mut *inboxes[p].lock());
                let mut pairs = Vec::with_capacity(parts.iter().map(Vec::len).sum());
                for part in parts {
                    pairs.extend(part);
                }
                Ok(pairs)
            })?
        };
        // Every emitted pair is shuffled: there is no combiner.
        metrics.shuffle_records = metrics.map_output_records;
        metrics.shuffle_bytes = metrics.map_output_bytes;
        metrics.output_records = output.len() as u64;
        metrics.reduce_wall = start.elapsed().saturating_sub(metrics.map_wall);
        self.ledger.lock().record(metrics.clone());
        Ok(JobOutput { output, metrics })
    }

    /// Runs the map phase on the worker pool, one block per split: the
    /// split's task maps it once and hands its pairs to `finish`, whose
    /// results come back in split order. Fills the job's map-output
    /// counters; a mapper panic fails the job as [`MrError::Panicked`].
    fn run_map_phase<I, K, V, M, T, F>(
        &self,
        name: &str,
        splits: &[&[I]],
        mapper: &M,
        metrics: &mut JobMetrics,
        finish: F,
    ) -> Result<Vec<T>, MrError>
    where
        I: Sync,
        K: Weighable,
        V: Weighable,
        M: Mapper<I, K, V>,
        T: Send,
        F: Fn(Vec<(K, V)>) -> T + Sync,
    {
        let tasks = try_parallel_for_blocks_with(
            self.config.effective_threads(),
            splits.len(),
            || (),
            |(), idx| {
                let mut emitter = Emitter::new();
                mapper.map_split(splits[idx], &mut emitter);
                let (records, bytes) = (emitter.records(), emitter.bytes());
                (records, bytes, finish(emitter.into_parts()))
            },
        )
        .map_err(|_| MrError::Panicked {
            job: name.to_string(),
            phase: "map".to_string(),
        })?;
        let mut outputs = Vec::with_capacity(tasks.len());
        for (records, bytes, output) in tasks {
            metrics.map_output_records += records;
            metrics.map_output_bytes += bytes;
            outputs.push(output);
        }
        Ok(outputs)
    }

    /// The reduce phase on a distributed backend: submits each map
    /// task's encoded partitions to the backend, then gathers each
    /// reducer's input by fetching the blobs back in map order — the
    /// split order of the in-memory path, so the pairs a reducer sees
    /// are identical to it. A lost map output is rebuilt by re-executing
    /// its map task. Fills the job's data-plane counters.
    fn reduce_fetched<I, K, V, O, M, R>(
        &self,
        name: &str,
        splits: &[&[I]],
        mapper: &M,
        reducer: &R,
        encoded: Vec<Vec<Vec<u8>>>,
        metrics: &mut JobMetrics,
    ) -> Result<Vec<O>, MrError>
    where
        I: Sync,
        K: Ord + Hash + Send + Weighable + Wire,
        V: Send + Weighable + Wire,
        O: Send,
        M: Mapper<I, K, V>,
        R: Reducer<K, V, O>,
    {
        let num_reducers = self.config.num_reducers.max(1);
        // audit: relaxed-ok — monotonic id counter; uniqueness only.
        let shuffle_id = self.next_shuffle.fetch_add(1, Ordering::Relaxed);
        let spec = StageSpec {
            shuffle_id,
            job: name.to_string(),
            num_maps: splits.len(),
            num_reducers,
        };
        let map_outputs: Vec<MapOutput> = encoded
            .into_iter()
            .enumerate()
            .map(|(map_id, partitions)| MapOutput { map_id, partitions })
            .collect();
        let backend_err = |e: &BackendError| MrError::Backend {
            job: name.to_string(),
            message: e.to_string(),
        };
        if let Err(e) = self.backend.submit_stage(&spec, map_outputs) {
            return Err(backend_err(&e));
        }
        // Serializes lost-map re-executions. Mappers and the
        // partitioner are deterministic, so a duplicate recovery of
        // the same map would rebuild identical bytes; one at a time
        // is still cheaper and keeps retry accounting readable.
        let recovery = Mutex::new(());
        let result = self.reduce_partitions(name, num_reducers, reducer, metrics, |p| {
            let mut pairs: Vec<(K, V)> = Vec::new();
            for m in 0..spec.num_maps {
                let mut recoveries = 0usize;
                let bytes = loop {
                    match self.backend.fetch_shuffle(&spec, m, p) {
                        Ok(bytes) => break bytes,
                        Err(BackendError::Lost { map_id }) => {
                            recoveries += 1;
                            if recoveries > MAX_MAP_REEXECUTIONS {
                                return Err(MrError::Backend {
                                    job: name.to_string(),
                                    message: format!(
                                        "map {map_id} output lost and re-execution \
                                     exhausted {MAX_MAP_REEXECUTIONS} attempts"
                                    ),
                                });
                            }
                            let _one_at_a_time = recovery.lock();
                            // Re-execute the lost map task; the
                            // deterministic pipeline rebuilds the
                            // exact partitions the worker lost.
                            let mut emitter = Emitter::new();
                            mapper.map_split(splits[map_id], &mut emitter);
                            let parts = partition(emitter.into_parts(), num_reducers);
                            let rebuilt = MapOutput {
                                map_id,
                                partitions: parts.iter().map(encode_to_vec).collect(),
                            };
                            self.backend
                                .restore_map(&spec, rebuilt)
                                .map_err(|e| backend_err(&e))?;
                        }
                        Err(e) => return Err(backend_err(&e)),
                    }
                };
                let part: Vec<(K, V)> =
                    decode_from_slice(&bytes).map_err(|e| MrError::Backend {
                        job: name.to_string(),
                        message: format!(
                            "shuffle partition (map {m}, reduce {p}) undecodable: {e}"
                        ),
                    })?;
                pairs.extend(part);
            }
            Ok(pairs)
        });
        // Stage cleanup runs on success *and* failure; its stats
        // feed the job's data-plane metrics.
        let stats = self.backend.finish_stage(&spec);
        metrics.shuffle_fetches = stats.fetches;
        metrics.fetch_retries = stats.retries;
        metrics.worker_restarts = stats.worker_restarts;
        metrics.shuffle_bytes_moved = stats.bytes_stored + stats.bytes_fetched;
        result
    }

    /// Runs the reduce phase on the worker pool, one block per
    /// partition. `gather` produces partition `p`'s pairs in split
    /// order — from the in-memory shuffle or from backend fetches — and
    /// the sort-merge grouping plus the user reducer run identically
    /// either way, which is what keeps the backends byte-identical.
    /// Returns the output in partition order, or the first error in
    /// partition order; fills the job's reduce counters.
    fn reduce_partitions<K, V, O, R, G>(
        &self,
        name: &str,
        num_reducers: usize,
        reducer: &R,
        metrics: &mut JobMetrics,
        gather: G,
    ) -> Result<Vec<O>, MrError>
    where
        K: Ord + Send,
        V: Send,
        O: Send,
        R: Reducer<K, V, O>,
        G: Fn(usize) -> Result<Vec<(K, V)>, MrError> + Sync,
    {
        let parts = try_parallel_for_blocks_with(
            self.config.effective_threads(),
            num_reducers,
            || (),
            |(), p| {
                let mut pairs = gather(p)?;
                // Sort-merge grouping, as Hadoop's shuffle does. The
                // stable sort keeps same-key values in split order.
                pairs.sort_by(|a, b| a.0.cmp(&b.0));
                // Run-length grouping: measure each key's run on the
                // sorted slice, then hand the reducer exactly-sized
                // value buffers instead of growing one per group.
                let mut runs: Vec<usize> = Vec::new();
                let mut start = 0;
                for i in 1..pairs.len() {
                    if pairs[i].0 != pairs[start].0 {
                        runs.push(i - start);
                        start = i;
                    }
                }
                if !pairs.is_empty() {
                    runs.push(pairs.len() - start);
                }
                let mut out = Vec::new();
                let mut iter = pairs.into_iter();
                for &run in &runs {
                    let mut vs = Vec::with_capacity(run);
                    let mut key: Option<K> = None;
                    for (k, v) in iter.by_ref().take(run) {
                        key.get_or_insert(k);
                        vs.push(v);
                    }
                    // Runs have length >= 1 by construction, so the
                    // key is always present; an (impossible) empty
                    // run simply has nothing to reduce.
                    if let Some(key) = key {
                        reducer.reduce(&key, vs, &mut out);
                    }
                }
                Ok((out, runs.len() as u64))
            },
        )
        .map_err(|_| MrError::Panicked {
            job: name.to_string(),
            phase: "reduce".to_string(),
        })?;

        let mut output = Vec::new();
        for part in parts {
            let (mut part_out, groups) = part?;
            if groups > 0 {
                metrics.reduce_tasks += 1;
            }
            metrics.reduce_input_groups += groups;
            output.append(&mut part_out);
        }
        Ok(output)
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        // Tears down spawned worker processes (no-op on local backends).
        self.backend.shutdown();
    }
}

/// Hash-partitions `pairs` into `num_reducers` exactly-sized buckets.
/// Shared by the map-task commit path and the distributed backend's
/// lost-output recovery, which must rebuild partitions byte-identical to
/// the originals.
fn partition<K: Hash, V>(pairs: Vec<(K, V)>, num_reducers: usize) -> Vec<Vec<(K, V)>> {
    // Two passes: hash every key once and count, then move pairs into
    // exactly-sized buckets (no per-push growth).
    let assigned: Vec<u32> = pairs
        .iter()
        .map(|(k, _)| stable_partition(k, num_reducers) as u32)
        .collect();
    let mut counts = vec![0usize; num_reducers];
    for &p in &assigned {
        counts[p as usize] += 1;
    }
    let mut parts: Vec<Vec<(K, V)>> = counts.iter().map(|&c| Vec::with_capacity(c)).collect();
    for ((k, v), &p) in pairs.into_iter().zip(&assigned) {
        parts[p as usize].push((k, v));
    }
    parts
}

/// Chunks input into splits of at most `split_size` records.
fn split_input<I>(input: &[I], split_size: usize) -> Vec<&[I]> {
    if input.is_empty() {
        return Vec::new();
    }
    input.chunks(split_size.max(1)).collect()
}

/// How many times one map task's lost shuffle output is re-executed
/// before the job fails with [`MrError::Backend`].
const MAX_MAP_REEXECUTIONS: usize = 4;

/// Seed of the shuffle partitioner's hash. A fixed constant (rather than
/// per-process randomness) keeps key → partition layouts stable across
/// runs and builds, which reproducible metrics and the order-determinism
/// guarantee rely on.
const SHUFFLE_HASH_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// Hash-partitions a key into `[0, parts)` with a build-stable
/// word-at-a-time multiply-rotate hasher (std's `DefaultHasher` has
/// unspecified stability across processes). Processing 8 bytes per round
/// beats byte-at-a-time FNV on the wide keys the pipelines shuffle.
pub fn stable_partition<K: Hash>(key: &K, parts: usize) -> usize {
    let mut h = FxStyleHasher::default();
    key.hash(&mut h);
    (h.finish() % parts as u64) as usize
}

/// FxHash-style mix: `state = (state.rotl(5) ^ word) * M` per 8-byte
/// word, seeded by [`SHUFFLE_HASH_SEED`]. Trailing bytes fold in as one
/// zero-padded word tagged with their length (the count occupies the
/// top byte, which at most 7 trailing bytes can never reach).
struct FxStyleHasher(u64);

impl Default for FxStyleHasher {
    fn default() -> Self {
        Self(SHUFFLE_HASH_SEED)
    }
}

impl FxStyleHasher {
    const M: u64 = 0x517c_c1b7_2722_0a95;

    #[inline]
    fn add_word(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::M);
    }
}

impl Hasher for FxStyleHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in chunks.by_ref() {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            // audit: bytes-ok — in-memory hash mixing of a key's bytes; nothing here is a stored or transmitted format.
            self.add_word(u64::from_le_bytes(word));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            // audit: bytes-ok — as above.
            self.add_word(u64::from_le_bytes(word) | ((tail.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_word(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_word(n as u64);
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_word(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_word(n as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    struct TokenMapper;
    impl Mapper<String, String, u64> for TokenMapper {
        fn map_split(&self, lines: &[String], out: &mut Emitter<String, u64>) {
            for tok in lines.iter().flat_map(|line| line.split_whitespace()) {
                out.emit(tok.to_string(), 1);
            }
        }
    }

    struct SumReducer;
    impl Reducer<String, u64, (String, u64)> for SumReducer {
        fn reduce(&self, key: &String, values: Vec<u64>, out: &mut Vec<(String, u64)>) {
            out.push((key.clone(), values.into_iter().sum()));
        }
    }

    fn lines() -> Vec<String> {
        vec![
            "the quick brown fox".to_string(),
            "the lazy dog".to_string(),
            "the quick dog".to_string(),
        ]
    }

    fn counts(out: Vec<(String, u64)>) -> BTreeMap<String, u64> {
        out.into_iter().collect()
    }

    /// Every counter of a job's metrics except the wall-clock ones.
    fn job_counters(m: &JobMetrics) -> (&str, [u64; 10]) {
        let counters = [
            m.map_tasks,
            m.reduce_tasks,
            m.map_input_records,
            m.map_output_records,
            m.map_output_bytes,
            m.shuffle_records,
            m.shuffle_bytes,
            m.reduce_input_groups,
            m.output_records,
            m.broadcast_bytes,
        ];
        (&m.job_name, counters)
    }

    /// Map-only mapper doubling each record.
    fn double(rs: &[u64], out: &mut Emitter<(), u64>) {
        for r in rs {
            out.emit((), r * 2);
        }
    }

    /// Mapper keying each record by its residue mod `m`.
    fn residues(m: u64) -> impl Fn(&[u64], &mut Emitter<u64, u64>) + Sync {
        move |rs, out| {
            for r in rs {
                out.emit(r % m, *r);
            }
        }
    }

    #[test]
    fn word_count_end_to_end() {
        let engine = Engine::new(MrConfig {
            split_size: 1,
            ..MrConfig::default()
        });
        let res = engine
            .run("wc", &lines(), &TokenMapper, &SumReducer)
            .unwrap();
        let c = counts(res.output);
        assert_eq!(c["the"], 3);
        assert_eq!(c["quick"], 2);
        assert_eq!(c["dog"], 2);
        assert_eq!(c["fox"], 1);
        assert_eq!(res.metrics.map_tasks, 3);
        assert_eq!(res.metrics.map_input_records, 3);
        assert_eq!(res.metrics.map_output_records, 10);
        assert_eq!(res.metrics.reduce_input_groups, 6);
    }

    #[test]
    fn map_only_preserves_split_order() {
        let engine = Engine::new(MrConfig {
            split_size: 2,
            ..MrConfig::default()
        });
        let input: Vec<u64> = (0..10).collect();
        let res = engine.run_map_only("double", &input, &double).unwrap();
        assert_eq!(res.output, (0..10).map(|x| x * 2).collect::<Vec<_>>());
        assert_eq!(res.metrics.map_tasks, 5);
        assert_eq!(res.metrics.output_records, 10);
    }

    #[test]
    fn grouped_key_emission_order_is_pinned() {
        // The determinism contract: reduce output lists grouped keys in
        // partition-slot order, key-sorted within each partition — never
        // in mapper emission order, and never varying with the worker
        // count. With one reducer that collapses to "globally
        // key-sorted", which this test pins exactly.
        let scrambled = vec![
            "zeta alpha".to_string(),
            "mu zeta omega".to_string(),
            "alpha mu beta".to_string(),
        ];
        let expected: Vec<(String, u64)> = vec![
            ("alpha".to_string(), 2),
            ("beta".to_string(), 1),
            ("mu".to_string(), 2),
            ("omega".to_string(), 1),
            ("zeta".to_string(), 2),
        ];
        for threads in [1, 2, 8] {
            let engine = Engine::new(MrConfig {
                num_reducers: 1,
                split_size: 1,
                threads,
                ..MrConfig::default()
            });
            let res = engine
                .run("order-pin", &scrambled, &TokenMapper, &SumReducer)
                .unwrap();
            assert_eq!(res.output, expected, "threads={threads}");
        }
        // Multi-partition runs must agree with each other byte-for-byte
        // regardless of scheduling (key→partition assignment is a pure
        // function of the key).
        let reference = Engine::new(MrConfig {
            num_reducers: 4,
            split_size: 1,
            threads: 1,
            ..MrConfig::default()
        })
        .run("order-pin-4", &scrambled, &TokenMapper, &SumReducer)
        .unwrap()
        .output;
        for threads in [2, 8] {
            let res = Engine::new(MrConfig {
                num_reducers: 4,
                split_size: 1,
                threads,
                ..MrConfig::default()
            })
            .run("order-pin-4", &scrambled, &TokenMapper, &SumReducer)
            .unwrap();
            assert_eq!(res.output, reference, "threads={threads}");
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let engine = Engine::with_defaults();
        let input: Vec<String> = vec![];
        let res = engine
            .run("empty", &input, &TokenMapper, &SumReducer)
            .unwrap();
        assert!(res.output.is_empty());
        assert_eq!(res.metrics.map_tasks, 0);
    }

    #[test]
    fn a_panic_in_user_code_fails_the_job_and_spares_the_engine() {
        let input: Vec<u64> = (0..10).collect();
        let panicked = |job: &str, phase: &str| MrError::Panicked {
            job: job.to_string(),
            phase: phase.to_string(),
        };
        let bad_mapper = |rs: &[u64], out: &mut Emitter<u64, u64>| {
            for r in rs {
                assert!(*r != 7, "mapper exploded");
                out.emit(r % 3, *r);
            }
        };
        let bad_reducer = |_k: &u64, _vs: Vec<u64>, _out: &mut Vec<u64>| {
            panic!("reducer exploded");
        };
        let sum_reducer =
            |_k: &u64, vs: Vec<u64>, out: &mut Vec<u64>| out.push(vs.into_iter().sum());
        let bad_map_only = |rs: &[u64], out: &mut Emitter<(), u64>| {
            for r in rs {
                assert!(*r != 3, "map-only mapper exploded");
                out.emit((), *r);
            }
        };

        // One thread runs every task on the caller's thread; four run
        // them on pool workers. A panic fails the job either way.
        for threads in [1, 4] {
            let engine = Engine::new(MrConfig {
                split_size: 1,
                threads,
                ..MrConfig::default()
            });
            let err = engine
                .run("bad-map", &input, &bad_mapper, &sum_reducer)
                .unwrap_err();
            assert_eq!(err, panicked("bad-map", "map"), "threads={threads}");
            let err = engine
                .run("bad-reduce", &input, &residues(3), &bad_reducer)
                .unwrap_err();
            assert_eq!(err, panicked("bad-reduce", "reduce"), "threads={threads}");
            let err = engine
                .run_map_only("bad-map-only", &input, &bad_map_only)
                .unwrap_err();
            assert_eq!(err, panicked("bad-map-only", "map"), "threads={threads}");

            // The engine survives all three and runs the next jobs in full.
            let mut sums = engine
                .run("after", &input, &residues(3), &sum_reducer)
                .unwrap()
                .output;
            sums.sort_unstable();
            assert_eq!(sums, vec![12, 15, 18], "threads={threads}");
            let doubled = engine
                .run_map_only("after-map-only", &input, &double)
                .unwrap()
                .output;
            assert_eq!(doubled, (0..10).map(|x| x * 2).collect::<Vec<_>>());
            // Failed jobs record nothing; the two good ones are the ledger.
            let names: Vec<String> = engine
                .cluster_metrics()
                .jobs()
                .iter()
                .map(|j| j.job_name.clone())
                .collect();
            assert_eq!(names, ["after", "after-map-only"], "threads={threads}");
        }
    }

    #[test]
    fn deterministic_output_across_runs() {
        let run = |threads: usize| {
            let engine = Engine::new(MrConfig {
                split_size: 3,
                threads,
                ..MrConfig::default()
            });
            let input: Vec<u64> = (0..100).collect();
            let reducer = |k: &u64, vs: Vec<u64>, out: &mut Vec<(u64, u64)>| {
                out.push((*k, vs.into_iter().sum()));
            };
            let output = engine
                .run("det", &input, &residues(10), &reducer)
                .unwrap()
                .output;
            let doubled = engine
                .run_map_only("det-map-only", &input, &double)
                .unwrap();
            (output, doubled.output, engine.cluster_metrics())
        };
        // The inline path (one thread) and the pooled path (four) give
        // the same outputs, in the same order, and the same ledger.
        let (serial, serial_doubled, serial_ledger) = run(1);
        for threads in [1, 4] {
            let (output, doubled, ledger) = run(threads);
            assert_eq!(output, serial, "threads={threads}");
            assert_eq!(doubled, serial_doubled, "threads={threads}");
            assert_eq!(ledger.jobs().len(), 2);
            for (a, b) in ledger.jobs().iter().zip(serial_ledger.jobs()) {
                assert_eq!(job_counters(a), job_counters(b), "threads={threads}");
            }
        }
    }

    #[test]
    fn metrics_ledger_accumulates() {
        let engine = Engine::with_defaults();
        let input: Vec<u64> = (0..10).collect();
        let mapper = |rs: &[u64], out: &mut Emitter<(), u64>| {
            for r in rs {
                out.emit((), *r);
            }
        };
        engine.run_map_only("j1", &input, &mapper).unwrap();
        engine.run_map_only("j2", &input, &mapper).unwrap();
        let ledger = engine.cluster_metrics();
        assert_eq!(ledger.num_jobs(), 2);
        assert_eq!(ledger.total_map_input_records(), 20);
    }

    #[test]
    fn cache_bytes_charged_per_map_task() {
        let engine = Engine::new(MrConfig {
            split_size: 5,
            ..MrConfig::default()
        });
        let input: Vec<u64> = (0..20).collect(); // 4 splits
        let mapper = |rs: &[u64], out: &mut Emitter<u64, u64>| {
            for r in rs {
                out.emit(*r, 1);
            }
        };
        let reducer = |k: &u64, _v: Vec<u64>, out: &mut Vec<u64>| out.push(*k);
        let res = engine
            .run_with_cache("cached", &input, 1000, &mapper, &reducer)
            .unwrap();
        assert_eq!(res.metrics.broadcast_bytes, 4000);
    }

    #[test]
    fn partitioning_is_stable_across_runs() {
        // Two independent hash passes over the same keys must agree —
        // run-to-run metric reproducibility and the order-determinism
        // guarantee both assume a fixed key → partition layout.
        let keys: Vec<String> = (0..64).map(|i| format!("key-{i}")).collect();
        let first: Vec<usize> = keys.iter().map(|k| stable_partition(k, 4)).collect();
        let second: Vec<usize> = keys.iter().map(|k| stable_partition(k, 4)).collect();
        assert_eq!(first, second);
        assert!(first.iter().all(|&p| p < 4));
        // All four partitions get work from 64 distinct keys.
        for p in 0..4 {
            assert!(first.contains(&p), "partition {p} never hit");
        }
        // Pinned snapshot: a hasher or seed change silently re-sharding
        // keys (invalidating archived per-partition metrics) fails here.
        let snapshot: Vec<usize> = (0..8usize).map(|i| stable_partition(&i, 4)).collect();
        assert_eq!(snapshot, vec![3, 2, 1, 0, 3, 2, 1, 0]);
    }

    #[test]
    fn single_reducer_configuration() {
        let engine = Engine::new(MrConfig {
            num_reducers: 1,
            ..MrConfig::default()
        });
        let input: Vec<u64> = (0..50).collect();
        let reducer = |k: &u64, vs: Vec<u64>, out: &mut Vec<(u64, usize)>| {
            out.push((*k, vs.len()));
        };
        let res = engine
            .run("one-red", &input, &residues(5), &reducer)
            .unwrap();
        assert_eq!(res.metrics.reduce_tasks, 1);
        assert_eq!(res.output.len(), 5);
        // Single reducer sees keys in sorted order.
        let keys: Vec<u64> = res.output.iter().map(|p| p.0).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn shuffle_service_backend_is_byte_identical_and_metered() {
        use crate::distrib::LocalBackend;
        let config = MrConfig {
            split_size: 1,
            ..MrConfig::default()
        };
        let local = Engine::new(config.clone());
        let shuffled = Engine::with_backend(config, Arc::new(LocalBackend::shuffle_service()));
        let a = local
            .run("wc", &lines(), &TokenMapper, &SumReducer)
            .unwrap();
        let b = shuffled
            .run("wc", &lines(), &TokenMapper, &SumReducer)
            .unwrap();
        // Not just the same multiset: the exact same output order.
        assert_eq!(a.output, b.output);
        // The distributed plane was used and metered; the passthrough
        // path records no fetches.
        assert_eq!(a.metrics.shuffle_fetches, 0);
        assert!(b.metrics.shuffle_fetches > 0);
        assert!(b.metrics.shuffle_bytes_moved > 0);
    }

    #[test]
    fn lost_map_outputs_are_reexecuted_transparently() {
        use crate::distrib::{LocalBackend, LossSelector};
        let baseline = Engine::new(MrConfig {
            split_size: 1,
            ..MrConfig::default()
        })
        .run("wc", &lines(), &TokenMapper, &SumReducer)
        .unwrap();
        // Probability 1 ⇒ every map output is dropped at store time;
        // every first fetch reports it lost and the engine re-executes
        // the map task through `restore_map`.
        let lossy = Engine::with_backend(
            MrConfig {
                split_size: 1,
                ..MrConfig::default()
            },
            Arc::new(LocalBackend::shuffle_service_with_loss(LossSelector::new(
                1.0, 9,
            ))),
        );
        let res = lossy
            .run("wc", &lines(), &TokenMapper, &SumReducer)
            .unwrap();
        assert_eq!(res.output, baseline.output, "loss recovery changed output");
        assert!(
            res.metrics.fetch_retries >= 3,
            "all three map outputs were lost once: {}",
            res.metrics.fetch_retries
        );
    }
}
