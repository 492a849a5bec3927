//! Multi-process backend: worker subprocesses hold the shuffle.
//!
//! The master binds a loopback `TcpListener` and lazily spawns `N`
//! worker subprocesses of the same binary (`p3c worker --connect <addr>
//! --id <i>`). Each worker dials back, sends `HELLO`, and then serves
//! the length-prefixed frame protocol of [`crate::distrib::wire`] over
//! that single duplex connection: the master pushes `STORE` frames as
//! map tasks finish (map `m`'s output lives on worker `m % N`) and
//! reducers pull `FETCH` frames back.
//!
//! The master is both ends of the integrity chain (DESIGN.md §12). As
//! producer it hashes each partition once, before the bytes leave, and
//! records that sum in the [`MapOutputTracker`]; the worker checks every
//! `STORE` against it at the door; as consumer the master re-hashes what
//! a `FETCH` returned and compares it with its own record
//! ([`BlockLocation::verifies`]) — a mismatch is retried with backoff and
//! then escalates to [`BackendError::Corrupt`]. One hash per hop, all of
//! them [`wordsum64`]; none of the arithmetic lives here.
//!
//! `backend.state` serialises the socket conversations only: a fetch
//! holds it for one request/response and releases it before verifying,
//! copying or backing off.
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
    read_frame, write_frame, write_frame_parts, ERR_CORRUPT, ERR_NOT_FOUND, OP_DELETE_SID, OP_ERR,
    OP_FETCH, OP_FETCH_OK, OP_HELLO, OP_KILL, OP_SHUTDOWN, OP_STORE, OP_STORE_OK,
};
use crate::fault::FaultPlan;
use crate::sync::Mutex;
use p3c_dataset::bytes::{self, wordsum64, Reader};
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
/// `STORE` frames written ahead of their acknowledgements. The worker
/// answers each with a few bytes while the master is still writing, so
/// the window bounds what can pile up unread in the reply direction to
/// far below any socket buffer — pipelining cannot deadlock at any
/// reducer count.
const STORE_WINDOW: usize = 64;

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

/// Why one pass over a map output's `STORE`s stopped.
enum StoreFailure {
    /// The worker's socket broke: restart it and send the map again.
    Socket(io::Error),
    /// Nothing a resend to a fresh worker would fix.
    Fatal(BackendError),
}

impl From<io::Error> for StoreFailure {
    fn from(e: io::Error) -> Self {
        StoreFailure::Socket(e)
    }
}

impl From<BackendError> for StoreFailure {
    fn from(e: BackendError) -> Self {
        StoreFailure::Fatal(e)
    }
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

    /// Stores one map task's partitions on its worker, retrying the whole
    /// map once across a worker restart. `sums` are the producer's
    /// [`checksums`] of the partitions; the tracker gets that record.
    fn store_map(
        &self,
        cluster: &mut Cluster,
        spec: &StageSpec,
        output: &MapOutput,
        sums: &[u64],
        meter_bytes: bool,
    ) -> Result<(), BackendError> {
        let w = self.worker_for(output.map_id);
        let mut resent = false;
        loop {
            // Registered before the bytes leave (a restart below wipes
            // the worker's entries, so every attempt registers afresh).
            for (reduce_id, (data, &checksum)) in output.partitions.iter().zip(sums).enumerate() {
                let loc = BlockLocation {
                    worker: w,
                    len: data.len() as u64,
                    checksum,
                };
                self.tracker
                    .register(spec.shuffle_id, output.map_id, reduce_id, loc);
            }
            match self.send_map(&mut cluster.workers[w].stream, spec, output, sums) {
                Ok(()) => {
                    if meter_bytes {
                        let bytes: usize = output.partitions.iter().map(Vec::len).sum();
                        self.stat(spec.shuffle_id, |s| s.bytes_stored += bytes as u64);
                    }
                    return Ok(());
                }
                Err(StoreFailure::Fatal(e)) => return Err(e),
                Err(StoreFailure::Socket(e)) => {
                    // Worker socket broke mid-store: restart it and send
                    // the map once more to the fresh process.
                    self.stat(spec.shuffle_id, |s| s.retries += 1);
                    self.restart_worker(cluster, w, spec.shuffle_id)?;
                    if resent {
                        return Err(BackendError::Unavailable(format!(
                            "store to worker {w} failed twice: {e}"
                        )));
                    }
                    resent = true;
                }
            }
        }
    }

    /// One pass over a map output's `STORE`s, pipelined: a window of
    /// frames is written back to back, then its acknowledgements are
    /// collected in order. A partition the worker rejected at the door
    /// (`ERR_CORRUPT` — mangled in transit; the bytes are still here) is
    /// sent once more, counted as a retry, before it escalates to
    /// [`BackendError::Corrupt`].
    fn send_map(
        &self,
        stream: &mut TcpStream,
        spec: &StageSpec,
        output: &MapOutput,
        sums: &[u64],
    ) -> Result<(), StoreFailure> {
        let send = |stream: &mut TcpStream, reduce_id: usize| {
            let mut header = Vec::with_capacity(32);
            bytes::put_u64(&mut header, spec.shuffle_id);
            bytes::put_usize(&mut header, output.map_id);
            bytes::put_usize(&mut header, reduce_id);
            bytes::put_u64(&mut header, sums[reduce_id]);
            write_frame_parts(stream, OP_STORE, &[&header, &output.partitions[reduce_id]])
        };
        for start in (0..output.partitions.len()).step_by(STORE_WINDOW) {
            let window = start..(start + STORE_WINDOW).min(output.partitions.len());
            for reduce_id in window.clone() {
                send(stream, reduce_id)?;
            }
            let mut rejected = Vec::new();
            for reduce_id in window.clone() {
                if !store_acknowledged(read_frame(stream)?)? {
                    rejected.push(reduce_id);
                }
            }
            for reduce_id in rejected {
                self.stat(spec.shuffle_id, |s| s.retries += 1);
                send(stream, reduce_id)?;
                if !store_acknowledged(read_frame(stream)?)? {
                    return Err(StoreFailure::Fatal(BackendError::Corrupt {
                        map_id: output.map_id,
                        reduce_id,
                    }));
                }
            }
        }
        Ok(())
    }

    /// One `FETCH` round trip. `backend.state` is held for exactly this
    /// conversation — the tracker lookup rides inside it, so the location
    /// cannot go stale across a concurrent worker restart — and is
    /// released before the caller verifies or copies a byte.
    fn fetch_once(
        &self,
        spec: &StageSpec,
        map_id: usize,
        reduce_id: usize,
        request: &[u8],
    ) -> Result<(BlockLocation, (u8, Vec<u8>)), BackendError> {
        let mut state = self.state.lock();
        // audit: lock-blocking-ok — lazy cluster boot (spawn/accept/handshake) is serialized under `backend.state` by design (§15).
        let cluster = self.ensure_up(&mut state)?;
        let Some(loc) = self.tracker.lookup(spec.shuffle_id, map_id, reduce_id) else {
            // Never registered, or invalidated by a worker death.
            return Err(BackendError::Lost { map_id });
        };
        // audit: lock-blocking-ok — one fetch RPC under `backend.state`: worker sockets are shared, so their conversations are serialized (§15).
        match Self::call(cluster, loc.worker, OP_FETCH, request) {
            Ok(reply) => Ok((loc, reply)),
            Err(_) => {
                // Dead worker: everything it held is lost; restart it
                // and let the engine re-execute.
                self.stat(spec.shuffle_id, |s| s.retries += 1);
                // audit: lock-blocking-ok — dead-worker restart is part of the serialized control plane (§15).
                self.restart_worker(cluster, loc.worker, spec.shuffle_id)?;
                Err(BackendError::Lost { map_id })
            }
        }
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
        let sums: Vec<Vec<u64>> = outputs.iter().map(checksums).collect();
        let mut state = self.state.lock();
        // audit: lock-blocking-ok — lazy cluster boot is serialized under `backend.state` by design (§15).
        let cluster = self.ensure_up(&mut state)?;
        for (output, sums) in outputs.iter().zip(&sums) {
            // Kill *before* storing this map's partitions: earlier maps
            // on the same worker are lost (and recovered at fetch
            // time); this map stores cleanly on the fresh process.
            // audit: lock-blocking-ok — fault-injection kill RPC on the serialized control plane (§15).
            self.maybe_inject_kill(cluster, spec, output.map_id)?;
            // audit: lock-blocking-ok — map-output store RPC on the serialized control plane (§15).
            self.store_map(cluster, spec, output, sums, true)?;
        }
        Ok(())
    }

    fn restore_map(&self, spec: &StageSpec, output: MapOutput) -> Result<(), BackendError> {
        let sums = checksums(&output);
        let mut state = self.state.lock();
        // audit: lock-blocking-ok — lazy cluster boot is serialized under `backend.state` by design (§15).
        let cluster = self.ensure_up(&mut state)?;
        // audit: lock-blocking-ok — map-output store RPC on the serialized control plane (§15).
        self.store_map(cluster, spec, &output, &sums, false)
    }

    fn fetch_shuffle(
        &self,
        spec: &StageSpec,
        map_id: usize,
        reduce_id: usize,
    ) -> Result<Vec<u8>, BackendError> {
        let mut request = Vec::with_capacity(24);
        bytes::put_u64(&mut request, spec.shuffle_id);
        bytes::put_usize(&mut request, map_id);
        bytes::put_usize(&mut request, reduce_id);

        let mut failure = BackendError::Unavailable(format!(
            "fetch (map {map_id}, reduce {reduce_id}) exhausted retries"
        ));
        for attempt in 0..FETCH_ATTEMPTS {
            if attempt > 0 {
                self.stat(spec.shuffle_id, |s| s.retries += 1);
                // Exponential backoff between attempts against a live
                // worker (corruption or transient short reads); no lock
                // is held, so other reducers keep fetching meanwhile.
                std::thread::sleep(Duration::from_millis(5 << attempt));
            }
            match self.fetch_once(spec, map_id, reduce_id, &request)? {
                (loc, (OP_FETCH_OK, mut body)) => {
                    let Ok(claimed) = Reader::new(&body).u64() else {
                        return Err(BackendError::Protocol("short FETCH_OK frame".to_string()));
                    };
                    body.drain(..8);
                    // The consumer hop: what arrived, re-hashed, against
                    // the producer's record.
                    if loc.verifies(claimed, &body) {
                        self.stat(spec.shuffle_id, |s| {
                            s.fetches += 1;
                            s.bytes_fetched += body.len() as u64;
                        });
                        return Ok(body);
                    }
                    // Bytes mutated in storage or transit; retry, then
                    // report corruption.
                    failure = BackendError::Corrupt { map_id, reduce_id };
                }
                (loc, (OP_ERR, body)) => {
                    let (code, msg) = decode_err_parts(&body);
                    if code == ERR_NOT_FOUND {
                        // The worker restarted since registration; its
                        // copy is gone for good.
                        self.tracker.invalidate_worker(loc.worker);
                        self.stat(spec.shuffle_id, |s| s.retries += 1);
                        return Err(BackendError::Lost { map_id });
                    }
                    failure =
                        BackendError::Protocol(format!("FETCH failed with code {code}: {msg}"));
                }
                (_, (op, _)) => {
                    return Err(BackendError::Protocol(format!(
                        "unexpected reply {op} to FETCH"
                    )));
                }
            }
        }
        Err(failure)
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

/// The producer hop: each partition of a map output hashed once, before
/// any of its bytes leave and before `backend.state` is taken.
fn checksums(output: &MapOutput) -> Vec<u64> {
    output.partitions.iter().map(|p| wordsum64(p)).collect()
}

/// Reads a reply to `STORE`: stored, or rejected at the door as
/// corrupt (`false` — worth one resend). Anything else breaks the
/// protocol.
fn store_acknowledged((op, body): (u8, Vec<u8>)) -> Result<bool, BackendError> {
    match op {
        OP_STORE_OK => Ok(true),
        OP_ERR if decode_err_parts(&body).0 == ERR_CORRUPT => Ok(false),
        _ => Err(BackendError::Protocol(format!(
            "unexpected reply {op} to STORE: {}",
            decode_err(&body)
        ))),
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
