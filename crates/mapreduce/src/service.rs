//! Long-running multi-tenant clustering service (DESIGN.md §14).
//!
//! [`ClusterService`] hosts many named datasets (*tenants*) over one
//! shared, memory-budgeted [`DatasetStore`]: every tenant's row blocks
//! compete for the same cache budget, so cold datasets spill through
//! the segmented codec and hot ones stay resident. The service itself
//! is engine-agnostic — a tenant is anything implementing [`Tenant`]
//! (the P3C+ incremental Light engine lives in `p3c-core`, which
//! depends on this crate, not the other way round).
//!
//! Three concerns live here:
//!
//! * **Routing** — name → tenant, with per-tenant locking so appends to
//!   different datasets proceed concurrently while operations on one
//!   dataset serialize.
//! * **Admission** — re-cluster jobs declare a working-set estimate and
//!   are admitted against a configurable byte budget: a job waits until
//!   the in-flight total leaves room, except that an idle service
//!   always admits one job (an oversized dataset degrades to serial
//!   execution instead of deadlocking).
//! * **Metrics** — monotonic operation counters, exposed together with
//!   the store's cache counters as the service's operations surface.
//! * **Durability** (opt-in, DESIGN.md §16) — a per-tenant write-ahead
//!   journal of numbered segments plus periodic snapshots under a data
//!   directory. Every mutation is journaled *before* it is applied; a
//!   snapshot holds the maintained state and, for each live block, the
//!   journal record holding its payload, and bounds the replay tail;
//!   [`ClusterService::recover`] rehydrates every tenant on restart to a
//!   byte-identical state.

use crate::dataset::DatasetStore;
use crate::sync::{rank, RankedCondvar, RankedMutex};
use p3c_dataset::bytes::{self, DecodeError, Reader};
use p3c_dataset::journal::{self, BlockRef, JournalWriter, SegmentRecord};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One incrementally maintained dataset hosted by a [`ClusterService`].
///
/// All row payloads live in the shared [`DatasetStore`] passed to every
/// method — the tenant's own state should hold only maintained
/// statistics and metadata, so the store's budget governs the service's
/// row-data footprint.
pub trait Tenant: Send + 'static {
    /// An appended/retracted unit of rows.
    type Block: Send;
    /// The model a re-cluster produces. `Sync` because the service
    /// publishes the last model behind an `Arc` for concurrent readers.
    type Model: Send + Sync;

    /// Folds a block into the maintained state; returns its id.
    fn append(&mut self, store: &DatasetStore, block: Self::Block) -> Result<u64, String>;

    /// Removes a previously appended block by id; `Ok(false)` if no
    /// live block has that id.
    fn retract(&mut self, store: &DatasetStore, id: u64) -> Result<bool, String>;

    /// Recomputes the model over the cumulative data.
    fn recluster(&mut self, store: &DatasetStore) -> Result<Self::Model, String>;

    /// Resident bytes of the maintained state (reporting).
    fn mem_bytes(&self) -> usize;

    /// Working-set estimate of one re-cluster job (admission).
    fn recluster_estimate(&self) -> usize;

    /// Releases everything the tenant stored; called on drop/shutdown.
    fn drop_data(&mut self, store: &DatasetStore);
}

/// A [`Tenant`] that can be persisted: exact codecs for its creation
/// parameters, its blocks, and its full maintained state, plus a stamp
/// that changes whenever its discretization (bin rule output) does.
///
/// Block payloads are persisted once, in the journal record that
/// appends them (or re-journals them, when a snapshot compacts a
/// segment); the state a snapshot holds names the live blocks but need
/// not carry their rows, which recovery hands back block by block
/// through [`restore_block`](DurableTenant::restore_block).
///
/// All codecs must round-trip **bit-exactly** — recovery's contract is
/// that a replayed tenant re-clusters to the same fingerprint as a
/// from-scratch batch fit, and any f64 drift in a histogram or support
/// count breaks that.
pub trait DurableTenant: Tenant + Sized {
    /// Encodes the parameters needed to re-create this tenant empty.
    fn encode_create(&self) -> Vec<u8>;
    /// Re-creates an empty tenant from [`encode_create`] bytes.
    ///
    /// [`encode_create`]: DurableTenant::encode_create
    fn decode_create(name: &str, bytes: &[u8]) -> Result<Self, String>;
    /// Encodes one block for the journal.
    fn encode_block(block: &Self::Block) -> Vec<u8>;
    /// Decodes a journaled block.
    fn decode_block(bytes: &[u8]) -> Result<Self::Block, String>;
    /// Appends the full maintained state to `out` — the buffer the
    /// snapshot file is written from, so the state is encoded once and
    /// never copied. The live blocks' payloads need not be in it.
    fn snapshot_state(&self, store: &DatasetStore, out: &mut Vec<u8>) -> Result<(), String>;
    /// Rebuilds a tenant from [`snapshot_state`] bytes. Payloads the
    /// bytes carry (a state written before snapshots referenced the
    /// journal) are re-seeded into `store`; the others follow through
    /// [`restore_block`](DurableTenant::restore_block).
    ///
    /// [`snapshot_state`]: DurableTenant::snapshot_state
    fn restore_state(name: &str, bytes: &[u8], store: &DatasetStore) -> Result<Self, String>;
    /// The ids of the live blocks, ascending.
    fn live_blocks(&self) -> Vec<u64>;
    /// Encodes live block `id` as [`encode_block`] would, reading its
    /// payload from `store` — for re-journaling it.
    ///
    /// [`encode_block`]: DurableTenant::encode_block
    fn encode_live_block(&self, store: &DatasetStore, id: u64) -> Result<Vec<u8>, String>;
    /// Re-seeds the payload of live block `id`, read back from its
    /// journal record, into a tenant rebuilt by
    /// [`restore_state`](DurableTenant::restore_state); an error if no
    /// live block has that id and shape.
    fn restore_block(
        &mut self,
        store: &DatasetStore,
        id: u64,
        block: Self::Block,
    ) -> Result<(), String>;
    /// An exact stamp of the current discretization (e.g. the bin
    /// count); a change after an apply is journaled as a bin-rule step
    /// and re-verified on replay.
    fn discretization_stamp(&self) -> u64;
}

/// Service-level failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// No tenant with that name.
    UnknownDataset(String),
    /// `create` on a name that is already hosted.
    DatasetExists(String),
    /// The tenant's engine reported an error.
    Tenant(String),
    /// The journal/snapshot layer failed (I/O, corrupt state).
    Durability(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UnknownDataset(name) => write!(f, "unknown dataset `{name}`"),
            ServiceError::DatasetExists(name) => write!(f, "dataset `{name}` already exists"),
            ServiceError::Tenant(msg) => write!(f, "tenant error: {msg}"),
            ServiceError::Durability(msg) => write!(f, "durability error: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Snapshot of the service's monotonic operation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceMetrics {
    /// Blocks appended across all tenants.
    pub appends: u64,
    /// Blocks retracted across all tenants.
    pub retracts: u64,
    /// Re-cluster jobs completed.
    pub reclusters: u64,
    /// Re-cluster jobs that had to wait for budget headroom.
    pub admission_waits: u64,
}

#[derive(Default)]
struct MetricCells {
    appends: AtomicU64,
    retracts: AtomicU64,
    reclusters: AtomicU64,
    admission_waits: AtomicU64,
}

impl MetricCells {
    fn bump(cell: &AtomicU64) {
        // audit: relaxed-ok — monotonic metric counter.
        cell.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> ServiceMetrics {
        // Monotonic metric counters; a snapshot need not be
        // cross-counter consistent.
        // audit: relaxed-ok — monotonic metric counter read.
        let appends = self.appends.load(Ordering::Relaxed);
        // audit: relaxed-ok — as above.
        let retracts = self.retracts.load(Ordering::Relaxed);
        // audit: relaxed-ok — as above.
        let reclusters = self.reclusters.load(Ordering::Relaxed);
        // audit: relaxed-ok — as above.
        let admission_waits = self.admission_waits.load(Ordering::Relaxed);
        ServiceMetrics {
            appends,
            retracts,
            reclusters,
            admission_waits,
        }
    }
}

#[derive(Default)]
struct AdmissionState {
    in_flight_bytes: usize,
    in_flight_jobs: usize,
}

/// Byte-budgeted admission for re-cluster jobs: a job is admitted when
/// its estimate fits under the budget alongside the jobs already in
/// flight, or when nothing is in flight (one oversized job is always
/// allowed through rather than deadlocking).
///
/// Public so the admission Condvar protocol can be model-checked from
/// the loom integration tests; [`ClusterService`] is the intended user.
pub struct Admission {
    budget: Option<usize>,
    state: RankedMutex<AdmissionState>,
    cv: RankedCondvar,
}

impl Admission {
    /// Admission against `budget` summed working-set bytes
    /// (`None` = unbounded, never waits).
    pub fn new(budget: Option<usize>) -> Self {
        Self {
            budget,
            state: RankedMutex::new(
                rank::SERVICE_ADMISSION,
                "service.admission",
                AdmissionState::default(),
            ),
            cv: RankedCondvar::new(),
        }
    }

    /// Blocks until admitted; returns whether the job had to wait.
    pub fn admit(&self, bytes: usize) -> bool {
        let mut state = self.state.lock();
        let mut waited = false;
        while let Some(budget) = self.budget {
            let fits = state.in_flight_bytes.saturating_add(bytes) <= budget;
            if fits || state.in_flight_jobs == 0 {
                break;
            }
            waited = true;
            self.cv.wait(&mut state);
        }
        state.in_flight_jobs += 1;
        state.in_flight_bytes = state.in_flight_bytes.saturating_add(bytes);
        waited
    }

    /// Returns a finished job's bytes to the budget and wakes waiters.
    pub fn release(&self, bytes: usize) {
        let mut state = self.state.lock();
        state.in_flight_jobs -= 1;
        state.in_flight_bytes = state.in_flight_bytes.saturating_sub(bytes);
        drop(state);
        self.cv.notify_all();
    }

    /// Whether a job of `bytes` would have to wait right now (tests and
    /// loom models).
    pub fn would_wait(&self, bytes: usize) -> bool {
        let state = self.state.lock();
        match self.budget {
            Some(budget) => {
                state.in_flight_jobs > 0 && state.in_flight_bytes.saturating_add(bytes) > budget
            }
            None => false,
        }
    }
}

/// Releases admission on drop, so a panicking re-cluster job cannot
/// leak its budget share.
struct AdmissionGuard<'a> {
    admission: &'a Admission,
    bytes: usize,
}

impl Drop for AdmissionGuard<'_> {
    fn drop(&mut self) {
        self.admission.release(self.bytes);
    }
}

// --------------------------------------------------------- durability ---

/// Journal record op: tenant created (payload: name, create bytes).
const OP_CREATE: u8 = 1;
/// Journal record op: block appended (payload: encoded block).
const OP_APPEND: u8 = 2;
/// Journal record op: block retracted (payload: block id).
const OP_RETRACT: u8 = 3;
/// Journal record op: discretization changed after an apply (payload:
/// the new stamp) — verified, not applied, on replay.
const OP_BINSTEP: u8 = 4;
/// Journal record op: a live block's payload re-journaled by a snapshot
/// roll (payload: block id, encoded block) — a snapshot may reference
/// it; replay skips it.
const OP_RELOCATE: u8 = 5;

/// Erased [`DurableTenant`] entry points, stored as plain fn pointers
/// so the hot-path operations (`append`/`retract`), which are generic
/// over any [`Tenant`], can journal without the `DurableTenant` bound.
struct WalHooks<T: Tenant> {
    encode_create: fn(&T) -> Vec<u8>,
    encode_block: fn(&T::Block) -> Vec<u8>,
    snapshot_state: fn(&T, &DatasetStore, &mut Vec<u8>) -> Result<(), String>,
    discretization_stamp: fn(&T) -> u64,
    live_blocks: fn(&T) -> Vec<u64>,
    encode_live_block: fn(&T, &DatasetStore, u64) -> Result<Vec<u8>, String>,
}

/// Service-wide durability configuration (present iff built with
/// [`ClusterService::with_durability`]).
struct Durability<T: Tenant> {
    dir: PathBuf,
    /// Roll a snapshot after this many journal records per tenant;
    /// 0 = never snapshot.
    snapshot_every: u64,
    hooks: WalHooks<T>,
}

/// The journaling side-state of one durable tenant. Lives inside the
/// tenant's slot, so journal writes happen under the tenant lock and
/// the on-disk record order is exactly the apply order. The file I/O
/// under that lock is intentional — the write-ahead property requires
/// the record to be on disk before the mutation applies, and only this
/// tenant's operations are serialized behind it (DESIGN.md §16).
struct TenantWal {
    /// Appends to the open segment, the highest-numbered one.
    writer: JournalWriter,
    /// The open segment's number.
    segment: u64,
    /// Every other segment on disk: number → file bytes.
    sealed: BTreeMap<u64, u64>,
    /// Where each live block's payload is journaled.
    blocks: BTreeMap<u64, BlockLoc>,
    name: String,
    dir: PathBuf,
    /// Journal records written since the last snapshot (replay cost).
    since_snapshot: u64,
    /// Last journaled discretization stamp.
    stamp: u64,
}

/// The journal record holding a live block's payload.
#[derive(Debug, Clone, Copy)]
struct BlockLoc {
    seq: u64,
    segment: u64,
    /// Bytes of the record's payload: what the block keeps live in its
    /// segment.
    bytes: u64,
}

/// One hosted tenant plus its optional journaling state.
struct Slot<T: Tenant> {
    tenant: T,
    wal: Option<TenantWal>,
}

/// A durability error naming what failed and for which tenant.
fn wal_error(what: &str, name: &str, e: impl std::fmt::Display) -> ServiceError {
    ServiceError::Durability(format!("{what} for `{name}`: {e}"))
}

/// Writes one journal record, counting it toward the snapshot cadence;
/// returns its sequence number.
fn wal_log(wal: &mut TenantWal, op: u8, payload: &[u8]) -> Result<u64, ServiceError> {
    let seq = wal
        .writer
        .record(op, payload)
        .map_err(|e| wal_error("journal write", &wal.name, e))?;
    wal.since_snapshot += 1;
    Ok(seq)
}

/// Rolls a snapshot, each step durable before the next (DESIGN.md §16):
///
/// 1. **Rotation** — a new segment opens; the old one is sealed.
/// 2. **Compaction** — the live payloads of every sealed segment that
///    is less than half live, and of live blocks no record holds (they
///    came inline in a pre-v3 snapshot), are re-journaled into the new
///    segment as relocation records, in one synced write.
/// 3. **Snapshot** — the state and every live block's record, covering
///    all records written so far.
/// 4. **GC** — every sealed segment that holds no live block is
///    deleted; the snapshot covers all of their records.
///
/// A crash after any step recovers from the previous snapshot, whose
/// records step 4 has not deleted yet, or from the new one.
fn roll_snapshot<T: Tenant>(
    wal: &mut TenantWal,
    tenant: &T,
    store: &DatasetStore,
    hooks: &WalHooks<T>,
) -> Result<(), ServiceError> {
    let next = wal.segment + 1;
    let next_path = wal.dir.join(journal::segment_file(next));
    let writer = JournalWriter::open_end(&next_path, 0, wal.writer.next_seq())
        .map_err(|e| wal_error("segment rotation", &wal.name, e))?;
    let sealed = std::mem::replace(&mut wal.writer, writer);
    wal.sealed.insert(wal.segment, sealed.file_len());
    wal.segment = next;

    let live = (hooks.live_blocks)(tenant);
    wal.blocks.retain(|id, _| live.binary_search(id).is_ok());
    let mut live_bytes: BTreeMap<u64, u64> = BTreeMap::new();
    for loc in wal.blocks.values() {
        *live_bytes.entry(loc.segment).or_default() += loc.bytes;
    }
    let sparse = |segment: u64| {
        wal.sealed.get(&segment).is_some_and(|&len| {
            live_bytes
                .get(&segment)
                .copied()
                .unwrap_or(0)
                .saturating_mul(2)
                < len
        })
    };
    let moving: Vec<u64> = live
        .iter()
        .copied()
        .filter(|id| wal.blocks.get(id).is_none_or(|loc| sparse(loc.segment)))
        .collect();
    if !moving.is_empty() {
        let mut payloads = Vec::with_capacity(moving.len());
        for &id in &moving {
            let block =
                (hooks.encode_live_block)(tenant, store, id).map_err(ServiceError::Tenant)?;
            let mut payload = Vec::with_capacity(16 + block.len());
            bytes::put_u64(&mut payload, id);
            bytes::put_bytes(&mut payload, &block);
            payloads.push(payload);
        }
        let first = wal
            .writer
            .record_all(OP_RELOCATE, payloads.iter().map(Vec::as_slice))
            .map_err(|e| wal_error("journal write", &wal.name, e))?;
        for ((id, payload), seq) in moving.into_iter().zip(&payloads).zip(first..) {
            let loc = BlockLoc {
                seq,
                segment: wal.segment,
                bytes: payload.len() as u64,
            };
            wal.blocks.insert(id, loc);
        }
    }

    let refs: Vec<BlockRef> = wal
        .blocks
        .iter()
        .map(|(&id, loc)| BlockRef { id, seq: loc.seq })
        .collect();
    let mut body = Vec::new();
    journal::put_snapshot_body(
        &mut body,
        &wal.name,
        |out| (hooks.snapshot_state)(tenant, store, out),
        &refs,
    )
    .map_err(ServiceError::Durability)?;
    let covered = wal.writer.next_seq().saturating_sub(1);
    journal::write_snapshot(&wal.dir.join(journal::SNAPSHOT_FILE), covered, &body)
        .map_err(|e| wal_error("snapshot write", &wal.name, e))?;

    let holding: BTreeSet<u64> = wal.blocks.values().map(|loc| loc.segment).collect();
    let dead: Vec<u64> = wal
        .sealed
        .keys()
        .copied()
        .filter(|n| !holding.contains(n))
        .collect();
    for n in dead {
        journal::delete_file(&wal.dir.join(journal::segment_file(n)))
            .map_err(|e| wal_error("segment delete", &wal.name, e))?;
        wal.sealed.remove(&n);
    }
    wal.since_snapshot = 0;
    Ok(())
}

/// What a [`ClusterService::recover`] pass found and replayed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Tenants rehydrated and re-registered.
    pub tenants: usize,
    /// Tenants whose state came from a snapshot (vs. journal-only).
    pub snapshots_loaded: usize,
    /// Journal records replayed across all tenants — bounded by the
    /// records written since each tenant's last snapshot.
    pub records_replayed: u64,
}

/// Multi-tenant clustering service over one shared budgeted store.
pub struct ClusterService<T: Tenant> {
    store: Arc<DatasetStore>,
    tenants: RankedMutex<BTreeMap<String, Arc<RankedMutex<Slot<T>>>>>,
    /// Last model each tenant published, pinned behind an `Arc` so
    /// readers keep a coherent clustering while appends continue.
    published: RankedMutex<BTreeMap<String, Arc<T::Model>>>,
    admission: Admission,
    metrics: MetricCells,
    durability: Option<Durability<T>>,
}

impl<T: Tenant> ClusterService<T> {
    /// New service over `store`; `job_budget` bounds the summed
    /// working-set estimates of concurrently running re-cluster jobs
    /// (`None` = unbounded).
    pub fn new(store: Arc<DatasetStore>, job_budget: Option<usize>) -> Self {
        Self {
            store,
            tenants: RankedMutex::new(rank::SERVICE_TENANTS, "service.tenants", BTreeMap::new()),
            published: RankedMutex::new(
                rank::SERVICE_PUBLISHED,
                "service.published",
                BTreeMap::new(),
            ),
            admission: Admission::new(job_budget),
            metrics: MetricCells::default(),
            durability: None,
        }
    }

    /// The shared dataset store (cache metrics, direct inspection).
    pub fn store(&self) -> &Arc<DatasetStore> {
        &self.store
    }

    /// Hosted dataset names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.tenants.lock().keys().cloned().collect()
    }

    /// Operation counters.
    pub fn metrics(&self) -> ServiceMetrics {
        self.metrics.snapshot()
    }

    fn tenant(&self, name: &str) -> Result<Arc<RankedMutex<Slot<T>>>, ServiceError> {
        self.tenants
            .lock()
            .get(name)
            .cloned()
            .ok_or_else(|| ServiceError::UnknownDataset(name.to_string()))
    }

    /// Hosts a new tenant under `name`. On a durable service this also
    /// opens the tenant's journal and logs the create record before the
    /// tenant is registered — the registry lock is held across that
    /// file I/O so two racing creates cannot share a journal file.
    pub fn create(&self, name: &str, tenant: T) -> Result<(), ServiceError> {
        let mut tenants = self.tenants.lock();
        if tenants.contains_key(name) {
            return Err(ServiceError::DatasetExists(name.to_string()));
        }
        let wal = match self.durability.as_ref() {
            None => None,
            Some(d) => {
                let dir = journal::tenant_dir(&d.dir, name);
                std::fs::create_dir_all(&dir)
                    .and_then(|()| journal::sync_parent(&dir))
                    .map_err(|e| wal_error("create tenant dir", name, e))?;
                let writer = JournalWriter::create(&dir.join(journal::segment_file(0)), 0)
                    .map_err(|e| wal_error("open journal", name, e))?;
                let mut payload = Vec::new();
                bytes::put_str(&mut payload, name);
                bytes::put_bytes(&mut payload, &(d.hooks.encode_create)(&tenant));
                let mut wal = TenantWal {
                    writer,
                    segment: 0,
                    sealed: BTreeMap::new(),
                    blocks: BTreeMap::new(),
                    name: name.to_string(),
                    dir,
                    since_snapshot: 0,
                    stamp: (d.hooks.discretization_stamp)(&tenant),
                };
                wal_log(&mut wal, OP_CREATE, &payload)?;
                Some(wal)
            }
        };
        tenants.insert(
            name.to_string(),
            Arc::new(RankedMutex::new(
                rank::SERVICE_TENANT,
                "service.tenant",
                Slot { tenant, wal },
            )),
        );
        Ok(())
    }

    /// Removes the named tenant, releases its stored data, and (on a
    /// durable service) deletes its journal segments and snapshot so a
    /// restart does not resurrect it.
    pub fn drop_dataset(&self, name: &str) -> Result<(), ServiceError> {
        let tenant = self
            .tenants
            .lock()
            .remove(name)
            .ok_or_else(|| ServiceError::UnknownDataset(name.to_string()))?;
        self.published.lock().remove(name);
        tenant.lock().tenant.drop_data(&self.store);
        if let Some(d) = self.durability.as_ref() {
            let dir = journal::tenant_dir(&d.dir, name);
            let _ = std::fs::remove_dir_all(&dir);
        }
        Ok(())
    }

    /// Appends a block to the named dataset; returns the block id. On a
    /// durable service the block is journaled before it is applied.
    pub fn append(&self, name: &str, block: T::Block) -> Result<u64, ServiceError> {
        let tenant = self.tenant(name)?;
        let mut slot = tenant.lock();
        let mut journaled = None;
        if let (Some(d), Some(wal)) = (self.durability.as_ref(), slot.wal.as_mut()) {
            let encoded = (d.hooks.encode_block)(&block);
            let mut payload = Vec::with_capacity(8 + encoded.len());
            bytes::put_bytes(&mut payload, &encoded);
            let seq = wal_log(wal, OP_APPEND, &payload)?;
            journaled = Some(BlockLoc {
                seq,
                segment: wal.segment,
                bytes: payload.len() as u64,
            });
        }
        let id = slot
            .tenant
            .append(&self.store, block)
            .map_err(ServiceError::Tenant)?;
        if let (Some(wal), Some(loc)) = (slot.wal.as_mut(), journaled) {
            wal.blocks.insert(id, loc);
        }
        self.roll_wal(&mut slot)?;
        drop(slot);
        MetricCells::bump(&self.metrics.appends);
        Ok(id)
    }

    /// Retracts block `id` from the named dataset; `Ok(false)` if the
    /// id is not live. Journaled before it is applied on a durable
    /// service (a miss replays as the same no-op).
    pub fn retract(&self, name: &str, id: u64) -> Result<bool, ServiceError> {
        let tenant = self.tenant(name)?;
        let mut slot = tenant.lock();
        if let Some(wal) = slot.wal.as_mut() {
            let mut payload = Vec::new();
            bytes::put_u64(&mut payload, id);
            wal_log(wal, OP_RETRACT, &payload)?;
        }
        let hit = slot
            .tenant
            .retract(&self.store, id)
            .map_err(ServiceError::Tenant)?;
        if let (true, Some(wal)) = (hit, slot.wal.as_mut()) {
            wal.blocks.remove(&id);
        }
        self.roll_wal(&mut slot)?;
        drop(slot);
        if hit {
            MetricCells::bump(&self.metrics.retracts);
        }
        Ok(hit)
    }

    /// After an applied mutation: journals a discretization change and
    /// rolls a snapshot when the cadence says so. Called under the
    /// tenant lock.
    fn roll_wal(&self, slot: &mut Slot<T>) -> Result<(), ServiceError> {
        let Some(d) = self.durability.as_ref() else {
            return Ok(());
        };
        let Slot { tenant, wal } = slot;
        let Some(wal) = wal.as_mut() else {
            return Ok(());
        };
        let stamp = (d.hooks.discretization_stamp)(tenant);
        if stamp != wal.stamp {
            let mut payload = Vec::new();
            bytes::put_u64(&mut payload, stamp);
            wal_log(wal, OP_BINSTEP, &payload)?;
            wal.stamp = stamp;
        }
        if d.snapshot_every > 0 && wal.since_snapshot >= d.snapshot_every {
            roll_snapshot(wal, tenant, &self.store, &d.hooks)?;
        }
        Ok(())
    }

    /// Re-clusters the named dataset under admission control, publishes
    /// the model, and returns it pinned behind an `Arc`.
    ///
    /// The admitted byte count must cover what the job actually uses,
    /// so the estimate is re-read under the tenant lock after admission
    /// and the job re-admits at the larger figure if a concurrent
    /// append grew the working set while it waited.
    pub fn recluster(&self, name: &str) -> Result<Arc<T::Model>, ServiceError> {
        let tenant = self.tenant(name)?;
        let mut estimate = tenant.lock().tenant.recluster_estimate();
        loop {
            if self.admission.admit(estimate) {
                MetricCells::bump(&self.metrics.admission_waits);
            }
            let admission_guard = AdmissionGuard {
                admission: &self.admission,
                bytes: estimate,
            };
            let mut slot = tenant.lock();
            let now = slot.tenant.recluster_estimate();
            if now > estimate {
                drop(slot);
                drop(admission_guard);
                estimate = now;
                continue;
            }
            let model = slot
                .tenant
                .recluster(&self.store)
                .map_err(ServiceError::Tenant)?;
            let model = Arc::new(model);
            // Publish while still holding the tenant lock so the
            // "last published model" order matches the tenant's own
            // recluster serialization.
            self.published
                .lock()
                .insert(name.to_string(), Arc::clone(&model));
            drop(slot);
            drop(admission_guard);
            MetricCells::bump(&self.metrics.reclusters);
            return Ok(model);
        }
    }

    /// The last model the named tenant published, if any — readers hold
    /// the `Arc` while appends and re-clusters continue.
    pub fn last_model(&self, name: &str) -> Option<Arc<T::Model>> {
        self.published.lock().get(name).cloned()
    }

    /// Runs `f` with shared access to the named tenant (reporting:
    /// per-dataset stats without going through an operation).
    pub fn with_tenant<R>(
        &self,
        name: &str,
        f: impl FnOnce(&mut T) -> R,
    ) -> Result<R, ServiceError> {
        let tenant = self.tenant(name)?;
        let mut guard = tenant.lock();
        Ok(f(&mut guard.tenant))
    }
}

impl<T: DurableTenant> ClusterService<T> {
    /// New durable service: every tenant journals its mutations under
    /// `data_dir` and rolls a snapshot after `snapshot_every` journal
    /// records (0 = journal only, never snapshot). Call
    /// [`recover`](ClusterService::recover) before serving to rehydrate
    /// tenants persisted by an earlier process.
    pub fn with_durability(
        store: Arc<DatasetStore>,
        job_budget: Option<usize>,
        data_dir: &Path,
        snapshot_every: u64,
    ) -> std::io::Result<Self> {
        std::fs::create_dir_all(data_dir)?;
        let mut svc = Self::new(store, job_budget);
        svc.durability = Some(Durability {
            dir: data_dir.to_path_buf(),
            snapshot_every,
            hooks: WalHooks {
                encode_create: T::encode_create,
                encode_block: T::encode_block,
                snapshot_state: T::snapshot_state,
                discretization_stamp: T::discretization_stamp,
                live_blocks: T::live_blocks,
                encode_live_block: T::encode_live_block,
            },
        });
        Ok(svc)
    }

    /// Rehydrates every tenant found under the data directory from its
    /// snapshot, the journal records its live blocks reference, and the
    /// journal tail, and registers it with the service.
    ///
    /// Replay applies each journaled mutation exactly as the original
    /// operation did; a record whose apply failed originally fails
    /// identically on replay (the tenant is deterministic), so the
    /// recovered state is byte-identical to the pre-crash state as of
    /// the last intact journal record.
    pub fn recover(&self) -> Result<RecoveryReport, ServiceError> {
        let Some(d) = self.durability.as_ref() else {
            return Ok(RecoveryReport::default());
        };
        let mut report = RecoveryReport::default();
        let mut dirs: Vec<PathBuf> = Vec::new();
        let iter = std::fs::read_dir(&d.dir).map_err(|e| {
            ServiceError::Durability(format!("read data dir {}: {e}", d.dir.display()))
        })?;
        for entry in iter {
            let entry =
                entry.map_err(|e| ServiceError::Durability(format!("read data dir: {e}")))?;
            if entry.path().is_dir() {
                dirs.push(entry.path());
            }
        }
        dirs.sort();
        let mut recovered = Vec::new();
        for tdir in &dirs {
            if let Some(pair) = recover_tenant::<T>(&self.store, tdir, &mut report)? {
                recovered.push(pair);
            }
        }
        let mut tenants = self.tenants.lock();
        for (name, slot) in recovered {
            if tenants.contains_key(&name) {
                return Err(ServiceError::Durability(format!(
                    "tenant `{name}` recovered twice (colliding tenant directories)"
                )));
            }
            report.tenants += 1;
            tenants.insert(
                name,
                Arc::new(RankedMutex::new(
                    rank::SERVICE_TENANT,
                    "service.tenant",
                    slot,
                )),
            );
        }
        Ok(report)
    }
}

/// Decodes `name ‖ blob` — the layout of a create record's payload
/// (written with `put_str` + `put_bytes`).
fn named_blob(bytes: &[u8]) -> Result<(String, &[u8]), DecodeError> {
    let mut r = Reader::new(bytes);
    let name = r.str()?;
    let blob = r.bytes()?;
    r.finish()?;
    Ok((name, blob))
}

/// Decodes a payload that is exactly one `u64` (a retracted block id, a
/// discretization stamp).
fn single_u64(payload: &[u8]) -> Result<u64, DecodeError> {
    let mut r = Reader::new(payload);
    let v = r.u64()?;
    r.finish()?;
    Ok(v)
}

/// An encoded block a journal record holds, with the block id the
/// record names (a relocation record does; an append record does not).
type BlockPayload<'a> = (Option<u64>, &'a [u8]);

/// The encoded block a record holds; `None` for a record that holds no
/// block.
fn block_payload<'a>(record: &SegmentRecord<'a>) -> Result<Option<BlockPayload<'a>>, DecodeError> {
    let mut r = Reader::new(record.payload);
    let id = match record.op {
        OP_APPEND => None,
        OP_RELOCATE => Some(r.u64()?),
        _ => return Ok(None),
    };
    let block = r.bytes()?;
    r.finish()?;
    Ok(Some((id, block)))
}

/// Re-seeds block `id` into `r` from `record`, the record the snapshot
/// references for it.
fn restore_referenced<T: DurableTenant>(
    r: &mut Rebuilt<T>,
    store: &DatasetStore,
    record: &SegmentRecord<'_>,
    segment: u64,
    id: u64,
) -> Result<(), String> {
    let (named, encoded) = block_payload(record)?.ok_or_else(|| {
        format!(
            "record {} referenced for block {id} holds no block (op {})",
            record.seq, record.op
        )
    })?;
    if let Some(named) = named.filter(|&named| named != id) {
        return Err(format!(
            "record {} relocates block {named}, not block {id}",
            record.seq
        ));
    }
    let block = T::decode_block(encoded)?;
    r.tenant.restore_block(store, id, block)?;
    let loc = BlockLoc {
        seq: record.seq,
        segment,
        bytes: record.payload.len() as u64,
    };
    r.blocks.insert(id, loc);
    Ok(())
}

/// A tenant rebuilt from disk, with what its journal writer needs.
struct Rebuilt<T> {
    name: String,
    tenant: T,
    blocks: BTreeMap<u64, BlockLoc>,
    /// The sequence number the next record takes.
    next_seq: u64,
    /// Records replayed past the snapshot.
    replayed: u64,
}

/// Applies one replayed tail record to `tenant`, keeping `blocks`
/// current. A failed apply failed identically when the record was
/// journaled (the tenant is deterministic), so replay moves on.
fn replay_record<T: DurableTenant>(
    tenant: &mut T,
    store: &DatasetStore,
    record: &SegmentRecord<'_>,
    segment: u64,
    blocks: &mut BTreeMap<u64, BlockLoc>,
) -> Result<(), String> {
    match record.op {
        OP_APPEND => {
            let (_, encoded) = block_payload(record)?.ok_or("an append record without a block")?;
            let block = T::decode_block(encoded)?;
            if let Ok(id) = tenant.append(store, block) {
                let loc = BlockLoc {
                    seq: record.seq,
                    segment,
                    bytes: record.payload.len() as u64,
                };
                blocks.insert(id, loc);
            }
        }
        OP_RETRACT => {
            let id = single_u64(record.payload)?;
            if tenant.retract(store, id) == Ok(true) {
                blocks.remove(&id);
            }
        }
        OP_BINSTEP => {
            let stamp = single_u64(record.payload)?;
            let replayed = T::discretization_stamp(tenant);
            if replayed != stamp {
                return Err(format!(
                    "replayed discretization stamp {replayed} does not match \
                     journaled stamp {stamp}"
                ));
            }
        }
        // A roll that did not land: the records its blocks were read
        // from still stand.
        OP_RELOCATE => {}
        OP_CREATE => return Err("unexpected create record mid-journal".to_string()),
        other => return Err(format!("unknown journal op {other}")),
    }
    Ok(())
}

/// Rehydrates one tenant directory: the snapshot (if any), each live
/// block from the record the snapshot references, then the records past
/// the snapshot, in sequence order, for as long as they run unbroken.
/// Returns `None` for a directory with nothing durable in it (e.g. a
/// crash before the create record hit the disk).
///
/// What the history no longer reaches is removed before the writer
/// reopens the last segment: every byte past the last record kept once
/// the tail breaks (records lost to corruption leave a gap in the
/// sequence), sealed segments the snapshot covers that hold no live
/// block (a crash mid-GC), and temporary files. A second recovery of
/// the same directory rewrites nothing.
fn recover_tenant<T: DurableTenant>(
    store: &DatasetStore,
    dir: &Path,
    report: &mut RecoveryReport,
) -> Result<Option<(String, Slot<T>)>, ServiceError> {
    let ctx = |e: String| ServiceError::Durability(format!("{}: {e}", dir.display()));
    let io = |e: std::io::Error| ctx(e.to_string());
    let segment_path = |n: u64| dir.join(journal::segment_file(n));

    // Blocks the snapshot references: record seq → block id.
    let mut wanted: BTreeMap<u64, u64> = BTreeMap::new();
    let mut covered = None;
    let mut rebuilt: Option<Rebuilt<T>> = None;
    if let Some(snapshot) = journal::load_snapshot(&dir.join(journal::SNAPSHOT_FILE)).map_err(io)? {
        let parts = snapshot.parts().map_err(|e| ctx(e.into()))?;
        let tenant = T::restore_state(&parts.name, parts.state, store).map_err(ctx)?;
        if let Some(refs) = parts.blocks {
            let ids: Vec<u64> = refs.iter().map(|r| r.id).collect();
            if ids != T::live_blocks(&tenant) {
                return Err(ctx(
                    "snapshot block references disagree with its live blocks".to_string(),
                ));
            }
            for r in refs {
                if wanted.insert(r.seq, r.id).is_some() {
                    return Err(ctx(format!("two blocks reference record {}", r.seq)));
                }
            }
        }
        covered = Some(snapshot.covered_seq);
        report.snapshots_loaded += 1;
        rebuilt = Some(Rebuilt {
            name: parts.name,
            tenant,
            blocks: BTreeMap::new(),
            next_seq: snapshot.covered_seq + 1,
            replayed: 0,
        });
    }

    let segments = journal::list_segments(dir).map_err(io)?;
    // Per segment: file bytes, valid bytes and the highest seq read.
    let mut read: Vec<(u64, u64, Option<u64>)> = Vec::with_capacity(segments.len());
    // Just past the last record the history keeps, and where the
    // history is cut once the tail breaks: segment index, byte offset.
    let mut kept_end: Option<(usize, u64)> = None;
    let mut cut: Option<(usize, u64)> = None;
    let mut last_seq = None;
    // Segments holding a record the snapshot references: kept while the
    // snapshot stands, even if the tail retracts the block.
    let mut referenced = BTreeSet::new();
    for (i, &n) in segments.iter().enumerate() {
        let segment = journal::read_segment(&segment_path(n)).map_err(io)?;
        let mut max_seq = None;
        for record in segment.records() {
            if last_seq.is_some_and(|last| record.seq <= last) {
                return Err(ctx(format!(
                    "record {} of segment {n} is out of sequence order",
                    record.seq
                )));
            }
            last_seq = Some(record.seq);
            max_seq = Some(record.seq);
            if let (Some(c), Some(r)) = (covered, rebuilt.as_mut()) {
                if record.seq <= c {
                    if let Some(id) = wanted.remove(&record.seq) {
                        restore_referenced(r, store, &record, n, id).map_err(ctx)?;
                        referenced.insert(n);
                    }
                    kept_end = Some((i, record.end()));
                    continue;
                }
            }
            if cut.is_some() {
                continue;
            }
            match rebuilt.as_mut() {
                Some(r) if record.seq != r.next_seq => {
                    cut = Some(kept_end.unwrap_or((i, record.offset)));
                    continue;
                }
                Some(r) => {
                    replay_record(&mut r.tenant, store, &record, n, &mut r.blocks).map_err(ctx)?;
                    r.next_seq = record.seq + 1;
                    r.replayed += 1;
                }
                None => {
                    if record.op != OP_CREATE {
                        return Err(ctx(format!(
                            "journal does not start with a create record (op {})",
                            record.op
                        )));
                    }
                    let (name, create) = named_blob(record.payload).map_err(|e| ctx(e.into()))?;
                    let tenant = T::decode_create(&name, create).map_err(ctx)?;
                    rebuilt = Some(Rebuilt {
                        name,
                        tenant,
                        blocks: BTreeMap::new(),
                        next_seq: record.seq + 1,
                        replayed: 1,
                    });
                }
            }
            kept_end = Some((i, record.end()));
        }
        read.push((segment.file_len(), segment.valid_len(), max_seq));
    }
    let Some(Rebuilt {
        name,
        tenant,
        blocks,
        next_seq,
        replayed,
    }) = rebuilt
    else {
        return Ok(None);
    };
    if let Some((&seq, &id)) = wanted.iter().next() {
        return Err(ctx(format!(
            "the snapshot references record {seq} for block {id}, \
             which no journal segment holds intact"
        )));
    }
    report.records_replayed += replayed;

    // The open segment: the one the history is cut in, or the last one.
    // Every byte past the cut belongs to records the history lost.
    let (open, valid_len) = match cut {
        Some((i, offset)) => (i, offset),
        None => {
            let last = segments.len().saturating_sub(1);
            (last, read.get(last).map_or(0, |&(_, valid, _)| valid))
        }
    };
    let mut holding = referenced;
    holding.extend(blocks.values().map(|loc| loc.segment));
    let mut sealed = BTreeMap::new();
    for (i, &n) in segments.iter().enumerate() {
        let (len, _, max_seq) = read[i];
        let lost = i > open;
        let spent = i < open
            && !holding.contains(&n)
            && max_seq.is_none_or(|m| covered.is_some_and(|c| m <= c));
        if lost || spent {
            journal::delete_file(&segment_path(n)).map_err(io)?;
        } else if i < open {
            sealed.insert(n, len);
        }
    }
    for file in [journal::SNAPSHOT_FILE, journal::JOURNAL_FILE] {
        journal::delete_file(&dir.join(file).with_extension("tmp")).map_err(io)?;
    }
    let segment = segments.get(open).copied().unwrap_or(0);
    let writer =
        JournalWriter::open_end(&segment_path(segment), valid_len, next_seq).map_err(io)?;
    let wal = TenantWal {
        writer,
        segment,
        sealed,
        blocks,
        name: name.clone(),
        dir: dir.to_path_buf(),
        since_snapshot: replayed,
        stamp: T::discretization_stamp(&tenant),
    };
    Ok(Some((
        name,
        Slot {
            tenant,
            wal: Some(wal),
        },
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::Mutex;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;
    use std::time::Duration;

    /// Handshake a gated tenant's recluster blocks on: it signals
    /// `entered` and then parks until the test sends on `release`.
    struct Gate {
        entered: mpsc::Sender<()>,
        release: Mutex<mpsc::Receiver<()>>,
    }

    /// Tenant stub: blocks are row counts, the model is the running
    /// total at recluster time. `estimates` is consumed one entry per
    /// `recluster_estimate` call (the last entry repeats), so tests can
    /// model a working set that grows between reads.
    struct FakeTenant {
        blocks: BTreeMap<u64, usize>,
        next_id: u64,
        estimates: Vec<usize>,
        estimate_calls: AtomicUsize,
        estimate_probe: Option<mpsc::Sender<()>>,
        gate: Option<Gate>,
    }

    impl FakeTenant {
        fn new(estimate: usize) -> Self {
            Self {
                blocks: BTreeMap::new(),
                next_id: 0,
                estimates: vec![estimate],
                estimate_calls: AtomicUsize::new(0),
                estimate_probe: None,
                gate: None,
            }
        }
    }

    impl Tenant for FakeTenant {
        type Block = usize;
        type Model = usize;

        fn append(&mut self, _store: &DatasetStore, block: usize) -> Result<u64, String> {
            let id = self.next_id;
            self.next_id += 1;
            self.blocks.insert(id, block);
            Ok(id)
        }

        fn retract(&mut self, _store: &DatasetStore, id: u64) -> Result<bool, String> {
            Ok(self.blocks.remove(&id).is_some())
        }

        fn recluster(&mut self, _store: &DatasetStore) -> Result<usize, String> {
            if let Some(gate) = &self.gate {
                gate.entered.send(()).ok();
                gate.release.lock().recv().ok();
            }
            Ok(self.blocks.values().sum())
        }

        fn mem_bytes(&self) -> usize {
            self.blocks.len() * 16
        }

        fn recluster_estimate(&self) -> usize {
            if let Some(probe) = &self.estimate_probe {
                probe.send(()).ok();
            }
            let call = self.estimate_calls.fetch_add(1, Ordering::SeqCst);
            self.estimates[call.min(self.estimates.len() - 1)]
        }

        fn drop_data(&mut self, _store: &DatasetStore) {
            self.blocks.clear();
        }
    }

    impl DurableTenant for FakeTenant {
        fn encode_create(&self) -> Vec<u8> {
            let mut buf = Vec::new();
            bytes::put_u64(&mut buf, self.estimates[0] as u64);
            buf
        }

        fn decode_create(_name: &str, bytes: &[u8]) -> Result<Self, String> {
            let mut r = Reader::new(bytes);
            let estimate = r.u64()? as usize;
            r.finish()?;
            Ok(FakeTenant::new(estimate))
        }

        fn encode_block(block: &usize) -> Vec<u8> {
            let mut buf = Vec::new();
            bytes::put_usize(&mut buf, *block);
            buf
        }

        fn decode_block(bytes: &[u8]) -> Result<usize, String> {
            let mut r = Reader::new(bytes);
            let block = r.usize()?;
            r.finish()?;
            Ok(block)
        }

        fn snapshot_state(&self, _store: &DatasetStore, buf: &mut Vec<u8>) -> Result<(), String> {
            bytes::put_u64(buf, self.estimates[0] as u64);
            bytes::put_u64(buf, self.next_id);
            bytes::put_usize(buf, self.blocks.len());
            for (id, rows) in &self.blocks {
                bytes::put_u64(buf, *id);
                bytes::put_usize(buf, *rows);
            }
            Ok(())
        }

        fn restore_state(_name: &str, bytes: &[u8], _store: &DatasetStore) -> Result<Self, String> {
            let mut r = Reader::new(bytes);
            let estimate = r.u64()? as usize;
            let next_id = r.u64()?;
            let n = r.usize()?;
            let mut blocks = BTreeMap::new();
            for _ in 0..n {
                let id = r.u64()?;
                let rows = r.usize()?;
                blocks.insert(id, rows);
            }
            r.finish()?;
            let mut tenant = FakeTenant::new(estimate);
            tenant.blocks = blocks;
            tenant.next_id = next_id;
            Ok(tenant)
        }

        fn discretization_stamp(&self) -> u64 {
            // Changes on every append, so the BINSTEP record path and
            // its replay verification get exercised by ordinary use.
            self.next_id
        }

        fn live_blocks(&self) -> Vec<u64> {
            self.blocks.keys().copied().collect()
        }

        fn encode_live_block(&self, _store: &DatasetStore, id: u64) -> Result<Vec<u8>, String> {
            let rows = self.blocks.get(&id).ok_or("no such block")?;
            Ok(Self::encode_block(rows))
        }

        fn restore_block(
            &mut self,
            _store: &DatasetStore,
            id: u64,
            block: usize,
        ) -> Result<(), String> {
            match self.blocks.get(&id) {
                Some(&rows) if rows == block => Ok(()),
                _ => Err(format!("block {id} is not live with {block} rows")),
            }
        }
    }

    fn service(budget: Option<usize>) -> ClusterService<FakeTenant> {
        ClusterService::new(Arc::new(DatasetStore::new()), budget)
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("p3c-service-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn durable_service(dir: &Path, snapshot_every: u64) -> ClusterService<FakeTenant> {
        ClusterService::with_durability(Arc::new(DatasetStore::new()), None, dir, snapshot_every)
            .unwrap()
    }

    #[test]
    fn routes_operations_to_named_tenants() {
        let svc = service(None);
        svc.create("a", FakeTenant::new(10)).unwrap();
        svc.create("b", FakeTenant::new(10)).unwrap();
        assert_eq!(
            svc.create("a", FakeTenant::new(10)),
            Err(ServiceError::DatasetExists("a".into()))
        );
        let id = svc.append("a", 100).unwrap();
        svc.append("b", 7).unwrap();
        assert_eq!(*svc.recluster("a").unwrap(), 100);
        assert_eq!(*svc.recluster("b").unwrap(), 7);
        assert!(svc.retract("a", id).unwrap());
        assert!(!svc.retract("a", id).unwrap());
        assert_eq!(*svc.recluster("a").unwrap(), 0);
        assert_eq!(
            svc.append("c", 1),
            Err(ServiceError::UnknownDataset("c".into()))
        );
        let m = svc.metrics();
        assert_eq!((m.appends, m.retracts, m.reclusters), (2, 1, 3));
        assert_eq!(svc.names(), vec!["a".to_string(), "b".to_string()]);
        svc.drop_dataset("a").unwrap();
        assert_eq!(svc.names(), vec!["b".to_string()]);
    }

    #[test]
    fn last_model_pins_the_published_clustering() {
        let svc = service(None);
        svc.create("a", FakeTenant::new(10)).unwrap();
        assert_eq!(svc.last_model("a"), None, "nothing published yet");
        svc.append("a", 5).unwrap();
        let first = svc.recluster("a").unwrap();
        assert_eq!(svc.last_model("a"), Some(Arc::clone(&first)));
        // The pinned Arc survives later appends and re-clusters.
        svc.append("a", 7).unwrap();
        let pinned = svc.last_model("a").unwrap();
        let second = svc.recluster("a").unwrap();
        assert_eq!((*pinned, *second), (5, 12));
        assert_eq!(svc.last_model("a"), Some(second));
        svc.drop_dataset("a").unwrap();
        assert_eq!(svc.last_model("a"), None, "dropped tenants unpublish");
    }

    #[test]
    fn admission_fits_jobs_under_budget() {
        let adm = Admission::new(Some(100));
        adm.admit(60);
        assert!(!adm.would_wait(40), "fits exactly");
        assert!(adm.would_wait(41), "over budget must wait");
        adm.release(60);
        assert!(!adm.would_wait(41), "idle service admits anything");
    }

    #[test]
    fn oversized_job_admitted_when_idle() {
        let adm = Admission::new(Some(100));
        assert!(!adm.admit(1000), "idle: no wait even over budget");
        adm.release(1000);
    }

    #[test]
    fn blocked_job_admitted_only_after_release() {
        let adm = Arc::new(Admission::new(Some(100)));
        let order = Arc::new(Mutex::new(Vec::new()));
        adm.admit(80);
        order.lock().push("admit-1");
        let t = {
            let adm = Arc::clone(&adm);
            let order = Arc::clone(&order);
            std::thread::spawn(move || {
                let waited = adm.admit(80);
                order.lock().push("admit-2");
                adm.release(80);
                waited
            })
        };
        order.lock().push("release-1");
        adm.release(80);
        let waited = t.join().unwrap();
        let order = order.lock();
        let pos = |tag| order.iter().position(|&t| t == tag).unwrap();
        assert!(pos("release-1") < pos("admit-2"), "{:?}", *order);
        // The second job may or may not have observed the wait (it can
        // race ahead of `admit-1`'s release), but if it waited, the
        // ordering above proves the budget gated it.
        let _ = waited;
    }

    #[test]
    fn recluster_waits_are_counted_when_budget_contended() {
        // Genuine contention: the budget is pre-occupied by 80 bytes, so
        // the 80-byte recluster (budget 100) must block until release.
        let svc = Arc::new(service(Some(100)));
        let (probe_tx, probe_rx) = mpsc::channel();
        let mut tenant = FakeTenant::new(80);
        tenant.estimate_probe = Some(probe_tx);
        svc.create("big", tenant).unwrap();
        svc.append("big", 1).unwrap();
        svc.admission.admit(80);
        let t = {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || *svc.recluster("big").unwrap())
        };
        // The worker has read its estimate and is now inside admit();
        // give it time to reach the wait before freeing the budget.
        probe_rx.recv().unwrap();
        std::thread::sleep(Duration::from_millis(100));
        svc.admission.release(80);
        assert_eq!(t.join().unwrap(), 1);
        assert!(
            svc.metrics().admission_waits >= 1,
            "blocked recluster must count its wait"
        );
        let state = svc.admission.state.lock();
        assert_eq!(
            (state.in_flight_bytes, state.in_flight_jobs),
            (0, 0),
            "admission fully released after the job"
        );
    }

    #[test]
    fn recluster_readmits_when_estimate_grows_after_admission() {
        // Regression for the admit-then-re-lock TOCTOU: the estimate is
        // 30 when first read, but by the time the tenant lock is
        // re-acquired the working set has grown to 80. The service must
        // re-admit at 80, not run an 80-byte job on a 30-byte ticket.
        let svc = Arc::new(service(Some(1000)));
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        let mut tenant = FakeTenant::new(30);
        tenant.estimates = vec![30, 80];
        tenant.gate = Some(Gate {
            entered: entered_tx,
            release: Mutex::new(release_rx),
        });
        svc.create("grow", tenant).unwrap();
        svc.append("grow", 1).unwrap();
        let t = {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || *svc.recluster("grow").unwrap())
        };
        // The job is now running inside recluster(), holding its
        // admission ticket; it must reflect the re-read 80, not the
        // stale 30.
        entered_rx.recv().unwrap();
        assert_eq!(svc.admission.state.lock().in_flight_bytes, 80);
        release_tx.send(()).unwrap();
        assert_eq!(t.join().unwrap(), 1);
        assert_eq!(svc.admission.state.lock().in_flight_bytes, 0);
    }

    #[test]
    fn durable_service_recovers_from_journal_alone() {
        let dir = tmpdir("journal-only");
        let expected = {
            let svc = durable_service(&dir, 0);
            svc.create("t", FakeTenant::new(10)).unwrap();
            svc.append("t", 5).unwrap();
            let id = svc.append("t", 7).unwrap();
            svc.append("t", 9).unwrap();
            svc.retract("t", id).unwrap();
            *svc.recluster("t").unwrap()
        };
        let svc = durable_service(&dir, 0);
        let report = svc.recover().unwrap();
        assert_eq!(report.tenants, 1);
        assert_eq!(report.snapshots_loaded, 0);
        // 1 create + 3 appends + 3 binsteps + 1 retract.
        assert_eq!(report.records_replayed, 8);
        assert_eq!(*svc.recluster("t").unwrap(), expected);
        // Ids keep counting where the pre-crash service left off.
        assert_eq!(svc.append("t", 1).unwrap(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_bounds_replay_and_preserves_state() {
        let dir = tmpdir("snapshot");
        let expected = {
            let svc = durable_service(&dir, 3);
            svc.create("t", FakeTenant::new(10)).unwrap();
            for rows in 1..=10 {
                svc.append("t", rows).unwrap();
            }
            *svc.recluster("t").unwrap()
        };
        let svc = durable_service(&dir, 3);
        let report = svc.recover().unwrap();
        assert_eq!((report.tenants, report.snapshots_loaded), (1, 1));
        assert!(
            report.records_replayed <= 3,
            "replay must be bounded by the snapshot interval, got {}",
            report.records_replayed
        );
        assert_eq!(*svc.recluster("t").unwrap(), expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drop_dataset_erases_durable_state() {
        let dir = tmpdir("drop");
        {
            let svc = durable_service(&dir, 0);
            svc.create("gone", FakeTenant::new(10)).unwrap();
            svc.append("gone", 5).unwrap();
            svc.create("kept", FakeTenant::new(10)).unwrap();
            svc.append("kept", 3).unwrap();
            svc.drop_dataset("gone").unwrap();
        }
        let svc = durable_service(&dir, 0);
        let report = svc.recover().unwrap();
        assert_eq!(report.tenants, 1);
        assert_eq!(svc.names(), vec!["kept".to_string()]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
