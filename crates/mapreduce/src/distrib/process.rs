//! Multi-process backend: worker subprocesses hold the shuffle.
//!
//! The master binds a loopback `TcpListener` and lazily spawns `N`
//! worker subprocesses of the same binary (`p3c worker --connect <addr>
//! --id <i>`). Each worker dials back, sends `HELLO`, and then serves
//! the length-prefixed frame protocol of [`crate::distrib::wire`] over
//! that single duplex connection: the master pushes `STORE` frames as
//! map tasks finish (map `m`'s output lives on worker `m % N`) and
//! reducers pull `FETCH` frames back, each verified against the
//! checksum the [`MapOutputTracker`] recorded at store time.
//!
//! Failure handling mirrors Hadoop's tasktracker loss: an I/O error or
//! timeout on a worker's socket marks it dead — the master kills and
//! respawns the subprocess, invalidates every tracker entry it held,
//! and reports the affected map outputs as [`BackendError::Lost`] so
//! the engine re-executes those map tasks. A deterministic
//! [`FaultPlan`] can inject exactly that mid-stage (the `KILL` frame
//! makes the worker drop its partitions and exit), which is how the
//! worker-crash recovery tests drive the full protocol.

use super::backend::{Backend, BackendError, MapOutput, ShuffleStats, StageSpec};
use super::tracker::{BlockLocation, MapOutputTracker};
use super::wire::{
    read_frame, write_frame, ERR_NOT_FOUND, OP_DELETE_SID, OP_ERR, OP_FETCH, OP_FETCH_OK, OP_HELLO,
    OP_KILL, OP_SHUTDOWN, OP_STORE, OP_STORE_OK,
};
use crate::fault::FaultPlan;
use p3c_dataset::bytes::{self, fnv1a64, Reader};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a worker gets to dial back after being spawned.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);
/// Per-frame read timeout on worker sockets; a stuck worker is treated
/// as dead rather than wedging the stage.
const READ_TIMEOUT: Duration = Duration::from_secs(10);
/// Fetch attempts per partition before escalating the error.
const FETCH_ATTEMPTS: usize = 3;

/// Spawned-subprocess backend; see the module docs.
pub struct ProcessBackend {
    num_workers: usize,
    kill_plan: Option<FaultPlan>,
    tracker: MapOutputTracker,
    state: Mutex<ClusterState>,
    stats: Mutex<BTreeMap<u64, ShuffleStats>>,
    /// Stages that already consumed their injected kill (one per stage).
    kills_fired: Mutex<BTreeSet<u64>>,
}

enum ClusterState {
    /// Workers spawn on first use, so engines that never run a
    /// distributed stage cost nothing.
    Idle,
    Up(Cluster),
    Down,
}

struct Cluster {
    listener: TcpListener,
    workers: Vec<WorkerConn>,
}

struct WorkerConn {
    child: Child,
    stream: TcpStream,
}

impl ProcessBackend {
    /// Backend over `num_workers` subprocesses, with an optional
    /// deterministic worker-kill plan (see [`BackendChoice`]).
    ///
    /// [`BackendChoice`]: super::backend::BackendChoice
    pub fn new(num_workers: usize, kill_plan: Option<FaultPlan>) -> Self {
        Self {
            num_workers: num_workers.max(1),
            kill_plan,
            tracker: MapOutputTracker::new(),
            state: Mutex::new(ClusterState::Idle),
            stats: Mutex::new(BTreeMap::new()),
            kills_fired: Mutex::new(BTreeSet::new()),
        }
    }

    /// Number of worker subprocesses this backend runs.
    pub fn num_workers(&self) -> usize {
        self.num_workers
    }

    fn worker_for(&self, map_id: usize) -> usize {
        map_id % self.num_workers
    }

    fn stat<R>(&self, shuffle_id: u64, f: impl FnOnce(&mut ShuffleStats) -> R) -> R {
        f(self.stats.lock().entry(shuffle_id).or_default())
    }

    /// Boots the cluster if it is not up yet.
    fn ensure_up<'a>(&self, state: &'a mut ClusterState) -> Result<&'a mut Cluster, BackendError> {
        if let ClusterState::Idle = state {
            let listener = TcpListener::bind("127.0.0.1:0")
                .map_err(|e| BackendError::Spawn(format!("bind listener: {e}")))?;
            let addr = listener
                .local_addr()
                .map_err(|e| BackendError::Spawn(format!("listener addr: {e}")))?
                .to_string();
            let binary = worker_binary()?;
            let mut workers = Vec::with_capacity(self.num_workers);
            for id in 0..self.num_workers {
                workers.push(spawn_worker(&listener, &binary, &addr, id)?);
            }
            *state = ClusterState::Up(Cluster { listener, workers });
        }
        match state {
            ClusterState::Up(cluster) => Ok(cluster),
            ClusterState::Down => Err(BackendError::Unavailable("backend shut down".to_string())),
            // audit: panic-ok — statically impossible: the Idle arm above just replaced the state with Up.
            ClusterState::Idle => unreachable!("cluster booted above"),
        }
    }

    /// Declares worker `w` dead: kill the subprocess, spawn a fresh one,
    /// and drop every tracker entry that pointed at it. Entries lost
    /// here surface as [`BackendError::Lost`] on the next fetch.
    fn restart_worker(
        &self,
        cluster: &mut Cluster,
        w: usize,
        shuffle_id: u64,
    ) -> Result<(), BackendError> {
        let addr = cluster
            .listener
            .local_addr()
            .map_err(|e| BackendError::Spawn(format!("listener addr: {e}")))?
            .to_string();
        let old = &mut cluster.workers[w];
        let _ = old.child.kill();
        let _ = old.child.wait();
        let binary = worker_binary()?;
        cluster.workers[w] = spawn_worker(&cluster.listener, &binary, &addr, w)?;
        self.tracker.invalidate_worker(w);
        self.stat(shuffle_id, |s| s.worker_restarts += 1);
        Ok(())
    }

    /// One request/response exchange with worker `w`.
    fn call(
        cluster: &mut Cluster,
        w: usize,
        opcode: u8,
        payload: &[u8],
    ) -> io::Result<(u8, Vec<u8>)> {
        let stream = &mut cluster.workers[w].stream;
        write_frame(stream, opcode, payload)?;
        read_frame(stream)
    }

    /// Stores one map task's partitions on its worker, retrying across
    /// one worker restart. Registers every partition with the tracker.
    fn store_map(
        &self,
        cluster: &mut Cluster,
        spec: &StageSpec,
        output: &MapOutput,
        meter_bytes: bool,
    ) -> Result<(), BackendError> {
        let w = self.worker_for(output.map_id);
        for (reduce_id, data) in output.partitions.iter().enumerate() {
            let checksum = fnv1a64(data);
            let mut payload = Vec::with_capacity(32 + data.len());
            bytes::put_u64(&mut payload, spec.shuffle_id);
            bytes::put_usize(&mut payload, output.map_id);
            bytes::put_usize(&mut payload, reduce_id);
            bytes::put_u64(&mut payload, checksum);
            payload.extend_from_slice(data);

            let mut stored = false;
            for attempt in 0..2 {
                match Self::call(cluster, w, OP_STORE, &payload) {
                    Ok((OP_STORE_OK, _)) => {
                        stored = true;
                        break;
                    }
                    Ok((op, body)) => {
                        return Err(BackendError::Protocol(format!(
                            "unexpected reply {op} to STORE: {}",
                            decode_err(&body)
                        )));
                    }
                    Err(e) => {
                        // Worker socket broke mid-store: restart it and
                        // try once more on the fresh process.
                        self.stat(spec.shuffle_id, |s| s.retries += 1);
                        self.restart_worker(cluster, w, spec.shuffle_id)?;
                        if attempt == 1 {
                            return Err(BackendError::Unavailable(format!(
                                "store to worker {w} failed twice: {e}"
                            )));
                        }
                    }
                }
            }
            debug_assert!(stored);
            self.tracker.register(
                spec.shuffle_id,
                output.map_id,
                reduce_id,
                BlockLocation {
                    worker: w,
                    len: data.len() as u64,
                    checksum,
                },
            );
            if meter_bytes {
                self.stat(spec.shuffle_id, |s| s.bytes_stored += data.len() as u64);
            }
        }
        Ok(())
    }

    /// Fires the stage's injected worker kill if the plan calls for it
    /// on this map id (at most one kill per stage).
    fn maybe_inject_kill(
        &self,
        cluster: &mut Cluster,
        spec: &StageSpec,
        map_id: usize,
    ) -> Result<(), BackendError> {
        let Some(plan) = &self.kill_plan else {
            return Ok(());
        };
        if !plan.should_fail(&spec.job, map_id, 0) {
            return Ok(());
        }
        if !self.kills_fired.lock().insert(spec.shuffle_id) {
            return Ok(());
        }
        let w = self.worker_for(map_id);
        // The KILL frame makes the worker drop its partitions and exit
        // without replying — a node crash with everything it held.
        let _ = write_frame(&mut cluster.workers[w].stream, OP_KILL, &[]);
        let _ = cluster.workers[w].child.wait();
        self.restart_worker(cluster, w, spec.shuffle_id)
    }
}

impl Backend for ProcessBackend {
    fn name(&self) -> &str {
        "process"
    }

    fn is_distributed(&self) -> bool {
        true
    }

    fn submit_stage(&self, spec: &StageSpec, outputs: Vec<MapOutput>) -> Result<(), BackendError> {
        let mut state = self.state.lock();
        // audit: lock-blocking-ok — lazy cluster boot is serialized under `backend.state` by design (§15).
        let cluster = self.ensure_up(&mut state)?;
        for output in &outputs {
            // Kill *before* storing this map's partitions: earlier maps
            // on the same worker are lost (and recovered at fetch
            // time); this map stores cleanly on the fresh process.
            // audit: lock-blocking-ok — fault-injection kill RPC on the serialized control plane (§15).
            self.maybe_inject_kill(cluster, spec, output.map_id)?;
            // audit: lock-blocking-ok — map-output store RPC on the serialized control plane (§15).
            self.store_map(cluster, spec, output, true)?;
        }
        Ok(())
    }

    fn restore_map(&self, spec: &StageSpec, output: MapOutput) -> Result<(), BackendError> {
        let mut state = self.state.lock();
        // audit: lock-blocking-ok — lazy cluster boot is serialized under `backend.state` by design (§15).
        let cluster = self.ensure_up(&mut state)?;
        // audit: lock-blocking-ok — map-output store RPC on the serialized control plane (§15).
        self.store_map(cluster, spec, &output, false)
    }

    fn fetch_shuffle(
        &self,
        spec: &StageSpec,
        map_id: usize,
        reduce_id: usize,
    ) -> Result<Vec<u8>, BackendError> {
        let mut state = self.state.lock();
        // audit: lock-blocking-ok — lazy cluster boot (spawn/accept/handshake) is serialized under `backend.state` by design (§15).
        let cluster = self.ensure_up(&mut state)?;
        let Some(loc) = self.tracker.lookup(spec.shuffle_id, map_id, reduce_id) else {
            // Never registered, or invalidated by a worker death.
            return Err(BackendError::Lost { map_id });
        };
        let mut payload = Vec::with_capacity(24);
        bytes::put_u64(&mut payload, spec.shuffle_id);
        bytes::put_usize(&mut payload, map_id);
        bytes::put_usize(&mut payload, reduce_id);

        for attempt in 0..FETCH_ATTEMPTS {
            if attempt > 0 {
                self.stat(spec.shuffle_id, |s| s.retries += 1);
                // Exponential backoff between attempts against a live
                // worker (corruption or transient short reads).
                // audit: lock-blocking-ok — bounded backoff (at most 40ms) between fetch retries on the serialized control plane.
                std::thread::sleep(Duration::from_millis(5 << attempt));
            }
            // audit: lock-blocking-ok — fetch RPC under `backend.state`: the control plane is intentionally serialized (§15).
            match Self::call(cluster, loc.worker, OP_FETCH, &payload) {
                Ok((OP_FETCH_OK, body)) => {
                    let mut r = Reader::new(&body);
                    let Ok(checksum) = r.u64() else {
                        return Err(BackendError::Protocol("short FETCH_OK frame".to_string()));
                    };
                    let data = r.rest().to_vec();
                    if checksum != loc.checksum || fnv1a64(&data) != checksum {
                        // Bytes mutated in storage or transit; retry,
                        // then report corruption.
                        if attempt + 1 == FETCH_ATTEMPTS {
                            return Err(BackendError::Corrupt { map_id, reduce_id });
                        }
                        continue;
                    }
                    self.stat(spec.shuffle_id, |s| {
                        s.fetches += 1;
                        s.bytes_fetched += data.len() as u64;
                    });
                    return Ok(data);
                }
                Ok((OP_ERR, body)) => {
                    let (code, msg) = decode_err_parts(&body);
                    if code == ERR_NOT_FOUND {
                        // The worker restarted since registration; its
                        // copy is gone for good.
                        self.tracker.invalidate_worker(loc.worker);
                        self.stat(spec.shuffle_id, |s| s.retries += 1);
                        return Err(BackendError::Lost { map_id });
                    }
                    if attempt + 1 == FETCH_ATTEMPTS {
                        return Err(BackendError::Protocol(format!(
                            "FETCH failed with code {code}: {msg}"
                        )));
                    }
                }
                Ok((op, _)) => {
                    return Err(BackendError::Protocol(format!(
                        "unexpected reply {op} to FETCH"
                    )));
                }
                Err(_) => {
                    // Dead worker: everything it held is lost; restart
                    // it and let the engine re-execute.
                    self.stat(spec.shuffle_id, |s| s.retries += 1);
                    // audit: lock-blocking-ok — dead-worker restart is part of the serialized control plane (§15).
                    self.restart_worker(cluster, loc.worker, spec.shuffle_id)?;
                    return Err(BackendError::Lost { map_id });
                }
            }
        }
        Err(BackendError::Unavailable(format!(
            "fetch (map {map_id}, reduce {reduce_id}) exhausted retries"
        )))
    }

    fn finish_stage(&self, spec: &StageSpec) -> ShuffleStats {
        let mut state = self.state.lock();
        if let ClusterState::Up(cluster) = &mut *state {
            let mut payload = Vec::with_capacity(8);
            bytes::put_u64(&mut payload, spec.shuffle_id);
            for w in 0..cluster.workers.len() {
                // Best-effort cleanup; a dead worker has nothing to
                // delete anyway.
                // audit: lock-blocking-ok — best-effort stage-cleanup RPC; the control plane is serialized under `backend.state` by design (§15).
                let _ = Self::call(cluster, w, OP_DELETE_SID, &payload);
            }
        }
        self.tracker.unregister_shuffle(spec.shuffle_id);
        self.kills_fired.lock().remove(&spec.shuffle_id);
        self.stats
            .lock()
            .remove(&spec.shuffle_id)
            .unwrap_or_default()
    }

    fn shutdown(&self) {
        let mut state = self.state.lock();
        if let ClusterState::Up(cluster) = &mut *state {
            for conn in &mut cluster.workers {
                // audit: lock-blocking-ok — shutdown broadcast over the serialized control plane (§15).
                let _ = write_frame(&mut conn.stream, OP_SHUTDOWN, &[]);
            }
            for conn in &mut cluster.workers {
                // audit: lock-blocking-ok — shutdown joins worker children under the serialized control plane; no lock ranks below `backend.state` here.
                wait_or_kill(&mut conn.child);
            }
        }
        *state = ClusterState::Down;
    }
}

impl Drop for ProcessBackend {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Decodes an `OP_ERR` payload for diagnostics.
fn decode_err_parts(body: &[u8]) -> (u64, String) {
    let mut r = Reader::new(body);
    let code = r.u64().unwrap_or(0);
    let msg = r.str32().unwrap_or_default();
    (code, msg)
}

fn decode_err(body: &[u8]) -> String {
    let (code, msg) = decode_err_parts(body);
    format!("code {code}: {msg}")
}

/// Locates the `p3c` binary that hosts the worker subcommand.
///
/// `P3C_WORKER_BIN` overrides; otherwise the sibling of the current
/// executable (test binaries live one directory down, in `deps/`, so
/// that component is popped).
fn worker_binary() -> Result<PathBuf, BackendError> {
    if let Ok(path) = std::env::var("P3C_WORKER_BIN") {
        if !path.is_empty() {
            return Ok(PathBuf::from(path));
        }
    }
    let exe =
        std::env::current_exe().map_err(|e| BackendError::Spawn(format!("current_exe: {e}")))?;
    let mut dir = exe
        .parent()
        .map(PathBuf::from)
        .ok_or_else(|| BackendError::Spawn("executable has no parent dir".to_string()))?;
    if dir.file_name().is_some_and(|n| n == "deps") {
        dir.pop();
    }
    let candidate = dir.join(format!("p3c{}", std::env::consts::EXE_SUFFIX));
    if candidate.exists() {
        Ok(candidate)
    } else {
        Err(BackendError::Spawn(format!(
            "worker binary not found at {} (build the p3c-cli crate or set P3C_WORKER_BIN)",
            candidate.display()
        )))
    }
}

/// Spawns one worker subprocess and completes its `HELLO` handshake.
fn spawn_worker(
    listener: &TcpListener,
    binary: &PathBuf,
    addr: &str,
    id: usize,
) -> Result<WorkerConn, BackendError> {
    let mut child = Command::new(binary)
        .args(["worker", "--connect", addr, "--id", &id.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| BackendError::Spawn(format!("spawn {}: {e}", binary.display())))?;

    // Poll-accept so a worker that dies before dialing back fails the
    // spawn instead of wedging the master.
    listener
        .set_nonblocking(true)
        .map_err(|e| BackendError::Spawn(format!("listener nonblocking: {e}")))?;
    // audit: time-ok — connection deadline; bounds a handshake, never data.
    let deadline = Instant::now() + CONNECT_TIMEOUT;
    let stream = loop {
        match listener.accept() {
            Ok((stream, _)) => break stream,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if let Ok(Some(status)) = child.try_wait() {
                    return Err(BackendError::Spawn(format!(
                        "worker {id} exited before connecting ({status})"
                    )));
                }
                // audit: time-ok — as above.
                if Instant::now() >= deadline {
                    let _ = child.kill();
                    return Err(BackendError::Spawn(format!(
                        "worker {id} did not connect within {CONNECT_TIMEOUT:?}"
                    )));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => {
                let _ = child.kill();
                return Err(BackendError::Spawn(format!("accept: {e}")));
            }
        }
    };
    let _ = listener.set_nonblocking(false);
    stream
        .set_nonblocking(false)
        .and_then(|_| stream.set_read_timeout(Some(READ_TIMEOUT)))
        .and_then(|_| stream.set_nodelay(true))
        .map_err(|e| BackendError::Spawn(format!("configure worker socket: {e}")))?;

    let mut stream = stream;
    match read_frame(&mut stream) {
        Ok((OP_HELLO, body)) => match Reader::new(&body).u64() {
            Ok(hello_id) if hello_id == id as u64 => Ok(WorkerConn { child, stream }),
            Ok(hello_id) => Err(BackendError::Protocol(format!(
                "worker handshake id mismatch: expected {id}, got {hello_id}"
            ))),
            Err(e) => Err(BackendError::Protocol(format!("short HELLO: {e}"))),
        },
        Ok((op, _)) => Err(BackendError::Protocol(format!(
            "expected HELLO, got opcode {op}"
        ))),
        Err(e) => {
            let _ = child.kill();
            Err(BackendError::Spawn(format!("worker {id} handshake: {e}")))
        }
    }
}

/// Reaps a child, escalating to SIGKILL if it lingers.
fn wait_or_kill(child: &mut Child) {
    // audit: time-ok — shutdown grace period; bounds teardown only.
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        match child.try_wait() {
            Ok(Some(_)) => return,
            // audit: time-ok — as above.
            Ok(None) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(5));
            }
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return;
            }
        }
    }
}
