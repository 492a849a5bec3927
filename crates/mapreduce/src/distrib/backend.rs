//! The [`Backend`] trait: where shuffle bytes live between map and
//! reduce.
//!
//! The engine's task *logic* (mappers and reducers) is made of
//! Rust closures and trait objects, which cannot cross a process
//! boundary; what genuinely moves between machines in a shared-nothing
//! MapReduce is the **shuffle data plane** — the encoded partition
//! bytes. The backend abstraction cuts exactly there, in the spirit of
//! Spark's shuffle service: the engine partitions, encodes
//! ([`crate::distrib::Wire`]) and *submits* each map task's output, and
//! reducers *fetch* their partitions back, in map order, before the
//! sort-merge. Where those bytes sit in between — process memory, an
//! in-process shuffle service, or worker subprocesses reached over TCP —
//! is the backend's business (DESIGN.md §12).
//!
//! Because the engine encodes once and fetches in deterministic map
//! order, and the codec round-trips exactly, the reduce input — and
//! therefore the final output — is byte-identical across backends and
//! worker counts.

use super::loss::LossSelector;
use super::shuffle::ShuffleManager;
use super::tracker::{BlockLocation, MapOutputTracker};
use crate::sync::Mutex;
use p3c_dataset::bytes::wordsum64;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// Identity and shape of one shuffle stage (one map-reduce job).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSpec {
    /// Engine-unique shuffle id.
    pub shuffle_id: u64,
    /// The job name, for diagnostics and loss selection.
    pub job: String,
    /// Number of map tasks feeding the shuffle.
    pub num_maps: usize,
    /// Number of reduce partitions.
    pub num_reducers: usize,
}

/// One map task's encoded shuffle output: one byte blob per reducer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapOutput {
    /// The producing map task (split index).
    pub map_id: usize,
    /// `partitions[r]` is the encoded partition destined for reducer `r`.
    pub partitions: Vec<Vec<u8>>,
}

/// Backend failures. `Lost` is the retryable one: the engine answers it
/// by re-executing the map task and restoring its output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendError {
    /// A map task's output is gone (worker death); re-execute the map.
    Lost {
        /// The map task whose output was lost.
        map_id: usize,
    },
    /// A partition failed checksum verification even after a retry: as
    /// fetched (against the tracker's record), or as stored (refused at
    /// the storage node's door).
    Corrupt {
        /// The producing map task.
        map_id: usize,
        /// The requesting reducer.
        reduce_id: usize,
    },
    /// A worker could not be spawned or connected.
    Spawn(String),
    /// The wire conversation broke in a non-retryable way.
    Protocol(String),
    /// The backend is shut down or otherwise unable to serve.
    Unavailable(String),
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::Lost { map_id } => write!(f, "map {map_id} shuffle output lost"),
            BackendError::Corrupt { map_id, reduce_id } => {
                write!(f, "partition (map {map_id}, reduce {reduce_id}) corrupt")
            }
            BackendError::Spawn(msg) => write!(f, "worker spawn failed: {msg}"),
            BackendError::Protocol(msg) => write!(f, "wire protocol error: {msg}"),
            BackendError::Unavailable(msg) => write!(f, "backend unavailable: {msg}"),
        }
    }
}

impl std::error::Error for BackendError {}

/// Per-stage data-plane counters, drained into
/// [`crate::metrics::JobMetrics`] when the stage finishes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShuffleStats {
    /// Partition fetches served to reducers.
    pub fetches: u64,
    /// Transfers that had to be retried (timeouts, dead workers,
    /// checksum failures on a fetch or at a worker's door).
    pub retries: u64,
    /// Worker processes (re)started while the stage ran.
    pub worker_restarts: u64,
    /// Bytes stored into the backend by map tasks.
    pub bytes_stored: u64,
    /// Bytes fetched out of the backend by reducers.
    pub bytes_fetched: u64,
}

/// Where shuffle bytes live between the map and reduce phases.
///
/// Object-safe and byte-oriented on purpose: the engine knows the
/// concrete key/value types and does the [`crate::distrib::Wire`]
/// encoding; the backend moves opaque blobs.
pub trait Backend: Send + Sync {
    /// Human-readable backend name (surfaces in metrics and benches).
    fn name(&self) -> &str;

    /// Whether the shuffle data plane leaves the engine's memory. The
    /// engine keeps its zero-copy in-memory path when this is `false`.
    fn is_distributed(&self) -> bool;

    /// Stores every map task's encoded output for the stage.
    fn submit_stage(&self, spec: &StageSpec, outputs: Vec<MapOutput>) -> Result<(), BackendError>;

    /// Re-stores one re-executed map task's output after its original
    /// was lost.
    fn restore_map(&self, spec: &StageSpec, output: MapOutput) -> Result<(), BackendError>;

    /// Fetches the encoded partition `(map_id → reduce_id)`, verifying
    /// integrity. [`BackendError::Lost`] asks the engine to re-execute
    /// the map task and [`Backend::restore_map`] its output.
    fn fetch_shuffle(
        &self,
        spec: &StageSpec,
        map_id: usize,
        reduce_id: usize,
    ) -> Result<Vec<u8>, BackendError>;

    /// Tears down the stage's shuffle state and returns its data-plane
    /// counters.
    fn finish_stage(&self, spec: &StageSpec) -> ShuffleStats;

    /// Releases all backend resources (terminates workers).
    fn shutdown(&self);
}

// ----------------------------------------------------------- local ---

/// Single-process backend.
///
/// In its default *passthrough* mode it reports
/// [`Backend::is_distributed`]` == false` and the engine never routes
/// bytes through it — the existing zero-copy threaded path is the
/// "LocalBackend" execution. In *shuffle-service* mode it exercises the
/// full distributed data plane (encode → store → track → fetch →
/// verify → decode) inside one process, optionally with deterministic
/// loss injection — the test vehicle for the engine's lost-output
/// recovery protocol.
pub struct LocalBackend {
    service: Option<ServiceState>,
}

struct ServiceState {
    manager: Mutex<ShuffleManager>,
    tracker: MapOutputTracker,
    /// Maps whose stored output has been "lost" by injection; fetches
    /// return [`BackendError::Lost`] until the map is restored.
    lost: Mutex<BTreeSet<(u64, usize)>>,
    loss: Option<LossSelector>,
    stats: Mutex<BTreeMap<u64, ShuffleStats>>,
}

impl LocalBackend {
    /// Passthrough backend: the engine's in-memory shuffle, untouched.
    pub fn new() -> Self {
        Self { service: None }
    }

    /// In-process shuffle service: bytes take the full distributed path
    /// through a [`ShuffleManager`] and [`MapOutputTracker`].
    pub fn shuffle_service() -> Self {
        Self::shuffle_service_inner(None)
    }

    /// Shuffle service with deterministic loss injection: map outputs
    /// for which `loss.hits(job, map_id)` holds are dropped at store
    /// time, so the first fetch reports them lost and the engine must
    /// recover via re-execution.
    pub fn shuffle_service_with_loss(loss: LossSelector) -> Self {
        Self::shuffle_service_inner(Some(loss))
    }

    fn shuffle_service_inner(loss: Option<LossSelector>) -> Self {
        Self {
            service: Some(ServiceState {
                manager: Mutex::new(ShuffleManager::new()),
                tracker: MapOutputTracker::new(),
                lost: Mutex::new(BTreeSet::new()),
                loss,
                stats: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    fn service(&self) -> &ServiceState {
        self.service
            .as_ref()
            // audit: panic-ok — statically impossible: every constructor that routes bytes installs the service state.
            .expect("passthrough LocalBackend never routes bytes")
    }

    /// The same three hops as the process backend, in one address space:
    /// hashed by the producer, verified at the manager's door, and
    /// re-verified against the tracker by the consumer in `fetch_shuffle`.
    fn store_output(
        &self,
        spec: &StageSpec,
        output: MapOutput,
        count_bytes: bool,
    ) -> Result<(), BackendError> {
        let svc = self.service();
        let map_id = output.map_id;
        for (reduce_id, data) in output.partitions.into_iter().enumerate() {
            let loc = BlockLocation {
                worker: 0,
                len: data.len() as u64,
                checksum: wordsum64(&data),
            };
            svc.tracker
                .register(spec.shuffle_id, map_id, reduce_id, loc);
            svc.manager
                .lock()
                .store_partition(spec.shuffle_id, map_id, reduce_id, loc.checksum, data, 0)
                .map_err(|_| BackendError::Corrupt { map_id, reduce_id })?;
            if count_bytes {
                let mut stats = svc.stats.lock();
                stats.entry(spec.shuffle_id).or_default().bytes_stored += loc.len;
            }
        }
        Ok(())
    }
}

impl Default for LocalBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl Backend for LocalBackend {
    fn name(&self) -> &str {
        match self.service {
            None => "local",
            Some(_) => "shuffle-service",
        }
    }

    fn is_distributed(&self) -> bool {
        self.service.is_some()
    }

    fn submit_stage(&self, spec: &StageSpec, outputs: Vec<MapOutput>) -> Result<(), BackendError> {
        let svc = self.service();
        for output in outputs {
            let injected_loss = svc
                .loss
                .as_ref()
                .is_some_and(|loss| loss.hits(&spec.job, output.map_id));
            if injected_loss {
                // Simulated node death after map completion: the bytes
                // never make it to stable shuffle storage.
                svc.lost.lock().insert((spec.shuffle_id, output.map_id));
                continue;
            }
            self.store_output(spec, output, true)?;
        }
        Ok(())
    }

    fn restore_map(&self, spec: &StageSpec, output: MapOutput) -> Result<(), BackendError> {
        let svc = self.service();
        svc.lost.lock().remove(&(spec.shuffle_id, output.map_id));
        self.store_output(spec, output, false)
    }

    fn fetch_shuffle(
        &self,
        spec: &StageSpec,
        map_id: usize,
        reduce_id: usize,
    ) -> Result<Vec<u8>, BackendError> {
        let svc = self.service();
        if svc.lost.lock().contains(&(spec.shuffle_id, map_id)) {
            let mut stats = svc.stats.lock();
            stats.entry(spec.shuffle_id).or_default().retries += 1;
            return Err(BackendError::Lost { map_id });
        }
        let loc = svc
            .tracker
            .lookup(spec.shuffle_id, map_id, reduce_id)
            .ok_or(BackendError::Lost { map_id })?;
        let (claimed, data) = {
            let manager = svc.manager.lock();
            let (claimed, data) = manager
                .partition(spec.shuffle_id, map_id, reduce_id)
                .map_err(|_missing| BackendError::Lost { map_id })?;
            (claimed, data.to_vec())
        };
        if !loc.verifies(claimed, &data) {
            return Err(BackendError::Corrupt { map_id, reduce_id });
        }
        let mut stats = svc.stats.lock();
        let entry = stats.entry(spec.shuffle_id).or_default();
        entry.fetches += 1;
        entry.bytes_fetched += data.len() as u64;
        Ok(data)
    }

    fn finish_stage(&self, spec: &StageSpec) -> ShuffleStats {
        let svc = self.service();
        svc.manager.lock().delete_shuffle(spec.shuffle_id);
        svc.tracker.unregister_shuffle(spec.shuffle_id);
        svc.lost.lock().retain(|&(sid, _)| sid != spec.shuffle_id);
        svc.stats
            .lock()
            .remove(&spec.shuffle_id)
            .unwrap_or_default()
    }

    fn shutdown(&self) {
        if let Some(svc) = &self.service {
            svc.manager.lock().clear();
        }
    }
}

// ----------------------------------------------------------- choice ---

/// Which backend an engine should execute on. Parsed from
/// [`MrConfig`](crate::MrConfig)'s `backend` field or the
/// `P3C_BACKEND` environment variable (`local`, `process[:N]`). The
/// in-process shuffle service ([`LocalBackend::shuffle_service`]) is a
/// test double, reached through
/// [`Engine::with_backend`](crate::Engine::with_backend) only.
#[derive(Debug, Clone, PartialEq)]
pub enum BackendChoice {
    /// In-process threaded engine, zero-copy shuffle (the default).
    Local,
    /// Spawned worker subprocesses holding the shuffle, reached over
    /// the length-prefixed TCP protocol.
    Process {
        /// Number of worker subprocesses.
        workers: usize,
        /// Optional seeded worker-kill selector (tests): when
        /// `hits(job, map_id)` first holds during a stage, the worker
        /// owning that map's output is killed mid-stage.
        kill: Option<LossSelector>,
    },
}

impl BackendChoice {
    /// Parses `local`, `process` or `process:N`.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "local" => Ok(BackendChoice::Local),
            other => {
                if let Some(n) = other.strip_prefix("process:") {
                    let workers: usize = n
                        .parse()
                        .map_err(|_| format!("bad worker count in backend '{other}'"))?;
                    if workers == 0 {
                        return Err("process backend needs at least one worker".to_string());
                    }
                    Ok(BackendChoice::Process {
                        workers,
                        kill: None,
                    })
                } else if other == "process" {
                    Ok(BackendChoice::Process {
                        workers: 2,
                        kill: None,
                    })
                } else {
                    Err(format!(
                        "unknown backend '{other}' (expected local, process[:N])"
                    ))
                }
            }
        }
    }

    /// The default choice, honouring `P3C_BACKEND` when set (this is
    /// how `ci.sh` reruns the whole tier-1 suite under the process
    /// backend without touching any test).
    pub fn from_env() -> Self {
        match std::env::var("P3C_BACKEND") {
            Ok(v) if !v.is_empty() => Self::parse(&v).unwrap_or(BackendChoice::Local),
            _ => BackendChoice::Local,
        }
    }

    /// Builds the chosen backend.
    pub fn build(&self) -> Arc<dyn Backend> {
        match self {
            BackendChoice::Local => Arc::new(LocalBackend::new()),
            BackendChoice::Process { workers, kill } => {
                Arc::new(super::process::ProcessBackend::new(*workers, *kill))
            }
        }
    }
}

impl Default for BackendChoice {
    fn default() -> Self {
        Self::from_env()
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    fn spec() -> StageSpec {
        StageSpec {
            shuffle_id: 1,
            job: "t".to_string(),
            num_maps: 2,
            num_reducers: 2,
        }
    }

    fn outputs() -> Vec<MapOutput> {
        vec![
            MapOutput {
                map_id: 0,
                partitions: vec![b"m0r0".to_vec(), b"m0r1".to_vec()],
            },
            MapOutput {
                map_id: 1,
                partitions: vec![b"m1r0".to_vec(), Vec::new()],
            },
        ]
    }

    #[test]
    fn passthrough_is_not_distributed() {
        let b = LocalBackend::new();
        assert!(!b.is_distributed());
        assert_eq!(b.name(), "local");
    }

    #[test]
    fn shuffle_service_roundtrips_and_counts() {
        let b = LocalBackend::shuffle_service();
        assert!(b.is_distributed());
        let spec = spec();
        b.submit_stage(&spec, outputs()).unwrap();
        assert_eq!(b.fetch_shuffle(&spec, 0, 1).unwrap(), b"m0r1");
        assert_eq!(b.fetch_shuffle(&spec, 1, 1).unwrap(), Vec::<u8>::new());
        let stats = b.finish_stage(&spec);
        assert_eq!(stats.fetches, 2);
        assert_eq!(stats.bytes_stored, 4 + 4 + 4);
        assert_eq!(stats.bytes_fetched, 4);
        // Stage is gone after finish.
        assert!(matches!(
            b.fetch_shuffle(&spec, 0, 0),
            Err(BackendError::Lost { map_id: 0 })
        ));
    }

    #[test]
    fn injected_loss_reports_lost_until_restored() {
        // Probability 1 ⇒ every map's output is dropped at store time.
        let b = LocalBackend::shuffle_service_with_loss(LossSelector::new(1.0, 7));
        let spec = spec();
        b.submit_stage(&spec, outputs()).unwrap();
        assert_eq!(
            b.fetch_shuffle(&spec, 0, 0),
            Err(BackendError::Lost { map_id: 0 })
        );
        b.restore_map(
            &spec,
            MapOutput {
                map_id: 0,
                partitions: vec![b"m0r0".to_vec(), b"m0r1".to_vec()],
            },
        )
        .unwrap();
        assert_eq!(b.fetch_shuffle(&spec, 0, 0).unwrap(), b"m0r0");
        let stats = b.finish_stage(&spec);
        assert!(stats.retries >= 1, "injected loss counts as a retry");
    }

    #[test]
    fn choice_parsing() {
        assert_eq!(BackendChoice::parse("local"), Ok(BackendChoice::Local));
        assert_eq!(
            BackendChoice::parse("process:4"),
            Ok(BackendChoice::Process {
                workers: 4,
                kill: None
            })
        );
        assert_eq!(
            BackendChoice::parse("process"),
            Ok(BackendChoice::Process {
                workers: 2,
                kill: None
            })
        );
        assert!(BackendChoice::parse("process:0").is_err());
        assert!(BackendChoice::parse("process:x").is_err());
        let unknown = BackendChoice::parse("threads").unwrap_err();
        assert!(
            unknown.ends_with("(expected local, process[:N])"),
            "{unknown}"
        );
    }
}
