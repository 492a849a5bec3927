//! The two service workloads: one closed-loop client (each call waits
//! for its reply) drives appends, retracts and reclusters against one
//! tenant of a `ClusterService<IncrementalLight>`.

use crate::inputs::{Input, Shape};
use crate::measure::{median, percentile, Report, Span, Tracer};
use crate::{micro, sys, RunArgs};
use p3c_core::config::{BinRuleChoice, P3cParams};
use p3c_core::incremental::{IncrementalLight, ReclusterPath};
use p3c_core::p3cplus::P3cPlusLight;
use p3c_dataset::journal::{self, JournalWriter};
use p3c_dataset::{Clustering, Dataset, RowBlock};
use p3c_eval::e4sc;
use p3c_mapreduce::service::DurableTenant;
use p3c_mapreduce::{ClusterService, DatasetStore, DatasetStoreStats};
use std::collections::VecDeque;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Which service workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `serve-durable`: journal + snapshots, unbounded dataset cache.
    Durable,
    /// `serve-spill`: no data dir, dataset cache a third of the stream.
    Spill,
}

/// Rows of the initial load.
const INITIAL_ROWS: usize = 20_000;
/// Rows per appended block.
const APPEND_ROWS: usize = 256;
/// Appends per pass.
const APPENDS: usize = 400;
/// A recluster follows every this-many appends.
const RECLUSTER_EVERY: usize = 20;
/// The oldest live block is retracted after every this-many appends.
const RETRACT_EVERY: usize = 100;
/// Journal records between snapshots (`p3c serve`'s default).
const SNAPSHOT_EVERY: u64 = 64;
/// `serve-spill`'s dataset-cache budget: about a third of the ~16 MB
/// the stream holds live, so full reclusters and retracts reload
/// blocks through the spill codec.
const SPILL_BUDGET: usize = 5 << 20;
/// The tenant's name.
const TENANT: &str = "bench";

/// 16 dims, 3 clusters of at most 6 dims, 5% noise: capped dims and
/// low noise keep the core set stable along the stream, so reclusters
/// between bin-rule steps and retracts take the fast path.
const STREAM: Shape = Shape {
    n: INITIAL_ROWS + APPENDS * APPEND_ROWS,
    d: 16,
    clusters: 3,
    max_cluster_dims: 6,
    noise: 0.05,
    seed_offset: 0,
};

/// Sturges bins hold the bin count constant between powers of two of
/// `n`, so most appends are pure delta maintenance; kernel threads 1.
fn params() -> P3cParams {
    P3cParams {
        bin_rule: BinRuleChoice::Sturges,
        threads: 1,
        ..P3cParams::default()
    }
}

/// The stream's sizes at this scale: (initial rows, rows per append,
/// cache budget). `--smoke` divides rows and budget by 20.
fn scale(smoke: bool) -> (usize, usize, usize) {
    let div = if smoke { 20 } else { 1 };
    (INITIAL_ROWS / div, APPEND_ROWS / div, SPILL_BUDGET / div)
}

/// The generated stream: the input plus its `[lo, hi)` block ranges,
/// initial load first. The seed permutes rows inside each block only,
/// so maintained histograms — and with them bin-rule steps and path
/// decisions — evolve identically under every seed.
struct Stream {
    input: Input,
    ranges: Vec<(usize, usize)>,
}

impl Stream {
    fn generate(args: &RunArgs) -> Self {
        let (initial, step, _) = scale(args.smoke);
        let mut ranges = vec![(0, initial)];
        ranges.extend((0..APPENDS).map(|i| (initial + i * step, initial + (i + 1) * step)));
        let mut spec = STREAM.spec(args.structure_seed, false);
        spec.n = initial + APPENDS * step;
        Self {
            input: Input::generate(spec, args.seed, &ranges),
            ranges,
        }
    }

    /// The initial block and the blocks to append, as owned copies
    /// (the client's side of each call).
    fn blocks(&self) -> (RowBlock, Vec<RowBlock>) {
        let mut blocks = self.ranges.iter().map(|&(lo, hi)| self.input.block(lo, hi));
        let initial = blocks.next().expect("the stream starts with a block");
        (initial, blocks.collect())
    }
}

/// What the stream is driven against: the service, or the bare
/// incremental engine in the traced replay.
trait Target {
    fn append(&mut self, block: RowBlock) -> Result<u64, String>;
    fn retract(&mut self, id: u64) -> Result<bool, String>;
    fn recluster(&mut self) -> Result<(Clustering, ReclusterPath), String>;
}

struct ServiceTarget<'a>(&'a ClusterService<IncrementalLight>);

impl Target for ServiceTarget<'_> {
    fn append(&mut self, block: RowBlock) -> Result<u64, String> {
        self.0.append(TENANT, block).map_err(|e| e.to_string())
    }
    fn retract(&mut self, id: u64) -> Result<bool, String> {
        self.0.retract(TENANT, id).map_err(|e| e.to_string())
    }
    fn recluster(&mut self) -> Result<(Clustering, ReclusterPath), String> {
        self.0
            .recluster(TENANT)
            .map(|m| (m.result.clustering.clone(), m.path))
            .map_err(|e| e.to_string())
    }
}

struct BareTarget<'a> {
    engine: IncrementalLight,
    store: &'a DatasetStore,
}

impl Target for BareTarget<'_> {
    fn append(&mut self, block: RowBlock) -> Result<u64, String> {
        self.engine.append(self.store, block)
    }
    fn retract(&mut self, id: u64) -> Result<bool, String> {
        self.engine.retract(self.store, id)
    }
    fn recluster(&mut self) -> Result<(Clustering, ReclusterPath), String> {
        self.engine
            .recluster(self.store)
            .map(|o| (o.result.clustering, o.path))
    }
}

/// Latencies (ms) and outcome of one drive of the stream.
#[derive(Default)]
struct Drive {
    append_ms: Vec<f64>,
    retract_ms: Vec<f64>,
    fast_ms: Vec<f64>,
    full_ms: Vec<f64>,
    loop_s: f64,
    /// The model of the last recluster.
    model: Option<Clustering>,
    /// Block indices (into the stream's ranges) still live, in log order.
    live: Vec<usize>,
}

/// Runs `f`, as a span under the traced root if there is one, and
/// returns its milliseconds.
fn timed<T>(
    trace: &mut Option<(&mut Tracer, usize)>,
    name: &str,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    match trace {
        Some((tracer, root)) => {
            let (out, s) = tracer.span_timed(name, *root, f);
            (out, s * 1e3)
        }
        None => {
            let start = Instant::now();
            let out = f();
            (out, start.elapsed().as_secs_f64() * 1e3)
        }
    }
}

/// Appends every block of `appends`; after every
/// `RETRACT_EVERY`-th the oldest live block is retracted, after every
/// `RECLUSTER_EVERY`-th the tenant reclusters (so a retract is always
/// followed by a recluster, and the stream ends on one). With a tracer
/// each call is a span under its root.
fn drive(
    target: &mut dyn Target,
    initial_id: u64,
    appends: Vec<RowBlock>,
    report: &mut Report,
    mut trace: Option<(&mut Tracer, usize)>,
) -> Drive {
    let mut out = Drive::default();
    let mut live: VecDeque<(u64, usize)> = VecDeque::from([(initial_id, 0)]);
    let start = Instant::now();
    // Block `i` of the stream's ranges; 0 is the initial load.
    for (i, block) in (1..).zip(appends) {
        let (id, ms) = timed(&mut trace, "core.incremental.append", || {
            target.append(block)
        });
        out.append_ms.push(ms);
        if let Some(id) = report.attempt("append", id) {
            live.push_back((id, i));
        }
        if i % RETRACT_EVERY == 0 {
            if let Some((oldest, _)) = live.pop_front() {
                let (hit, ms) = timed(&mut trace, "core.incremental.retract", || {
                    target.retract(oldest)
                });
                out.retract_ms.push(ms);
                let hit = report.attempt("retract", hit);
                report.check(hit != Some(false), || {
                    format!("retract of live block {oldest} missed")
                });
            }
        }
        if i % RECLUSTER_EVERY == 0 {
            let (model, ms) = timed(&mut trace, "core.incremental.recluster", || {
                target.recluster()
            });
            if let Some((clustering, path)) = report.attempt("recluster", model) {
                match path {
                    ReclusterPath::Fast => out.fast_ms.push(ms),
                    _ => out.full_ms.push(ms),
                }
                out.model = Some(clustering);
            }
        }
    }
    out.loop_s = start.elapsed().as_secs_f64();
    out.live = live.into_iter().map(|(_, i)| i).collect();
    out
}

/// One pass against the service: set-up, the stream and — durable —
/// crash, recovery and the first recluster after it.
struct Pass {
    setup_s: f64,
    wall_s: f64,
    cpu_s: f64,
    drive: Drive,
    recover_s: f64,
    stored_bytes: u64,
    records_replayed: u64,
    snapshots_loaded: usize,
    admission_waits: u64,
    store: DatasetStoreStats,
}

fn new_store(kind: Kind, smoke: bool) -> Arc<DatasetStore> {
    Arc::new(match kind {
        Kind::Durable => DatasetStore::new(),
        Kind::Spill => DatasetStore::with_budget(scale(smoke).2),
    })
}

fn new_service(
    kind: Kind,
    smoke: bool,
    dir: &Path,
) -> Result<ClusterService<IncrementalLight>, String> {
    let store = new_store(kind, smoke);
    match kind {
        Kind::Durable => ClusterService::with_durability(store, None, dir, SNAPSHOT_EVERY)
            .map_err(|e| format!("data dir {}: {e}", dir.display())),
        Kind::Spill => Ok(ClusterService::new(store, None)),
    }
}

fn service_pass(
    kind: Kind,
    args: &RunArgs,
    dir: &Path,
    report: &mut Report,
) -> Result<(Pass, Stream), String> {
    // Set-up: generate the stream, create the service and its tenant,
    // load the initial block.
    let setup = Instant::now();
    let stream = Stream::generate(args);
    let (initial, appends) = stream.blocks();
    let svc = new_service(kind, args.smoke, dir)?;
    svc.create(TENANT, IncrementalLight::new(TENANT, params()))
        .map_err(|e| e.to_string())?;
    let initial_id = svc.append(TENANT, initial).map_err(|e| e.to_string())?;
    let setup_s = setup.elapsed().as_secs_f64();

    let cpu0 = sys::cpu_seconds();
    let start = Instant::now();
    let drive = drive(&mut ServiceTarget(&svc), initial_id, appends, report, None);
    let mut pass = Pass {
        setup_s,
        wall_s: 0.0,
        cpu_s: 0.0,
        drive,
        recover_s: 0.0,
        stored_bytes: 0,
        records_replayed: 0,
        snapshots_loaded: 0,
        admission_waits: svc.metrics().admission_waits,
        store: svc.store().stats(),
    };
    if kind == Kind::Durable {
        pass.stored_bytes = sys::dir_bytes(dir);
        // The crash: a plain drop, no shutdown hook runs.
        drop(svc);
        let svc = new_service(kind, args.smoke, dir)?;
        let recover = Instant::now();
        let recovered = report.attempt("recover", svc.recover());
        pass.recover_s = recover.elapsed().as_secs_f64();
        if let Some(r) = recovered {
            report.check(r.tenants == 1, || {
                format!("{} tenants recovered, expected 1", r.tenants)
            });
            pass.records_replayed = r.records_replayed;
            pass.snapshots_loaded = r.snapshots_loaded;
        }
        let after = report.attempt("recluster after recovery", svc.recluster(TENANT));
        report.check(
            after.map(|m| m.result.clustering.clone()) == pass.drive.model,
            || "recovered model differs from the pre-crash model".to_string(),
        );
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    pass.cpu_s = sys::cpu_seconds() - cpu0;
    Ok((pass, stream))
}

/// Runs one service workload.
pub fn run(kind: Kind, args: &RunArgs, tmp: &Path) -> Report {
    let mut report = Report::default();
    let mut passes: Vec<Pass> = Vec::new();
    let mut last_stream = None;
    // Peak memory after the first pass: one service lifetime. Later
    // passes add only what the allocator happens to retain.
    let mut peak_rss_mb = 0.0;
    let measure = Instant::now();
    while args.keep_measuring(passes.len(), measure) {
        let dir = tmp.join(format!("pass-{}", passes.len()));
        let outcome = service_pass(kind, args, &dir, &mut report);
        let _ = std::fs::remove_dir_all(&dir);
        let Some((pass, stream)) = report.attempt("service pass", outcome) else {
            break;
        };
        if let Some(first) = passes.first() {
            report.check(pass.drive.model == first.drive.model, || {
                format!("pass {} ended on a different model", passes.len() + 1)
            });
        }
        if passes.is_empty() {
            peak_rss_mb = sys::peak_rss_mb();
        }
        passes.push(pass);
        last_stream = Some(stream);
    }
    let (Some(first), Some(stream)) = (passes.first(), last_stream) else {
        return report;
    };
    let Some(model) = first.drive.model.clone() else {
        report.check(false, || "the stream never reclustered".to_string());
        return report;
    };

    // The final model must be what a from-scratch P3C+-Light run finds
    // on the rows still live, in log order.
    let live_rows = || {
        first
            .drive
            .live
            .iter()
            .flat_map(|&b| stream.ranges[b].0..stream.ranges[b].1)
    };
    let d = stream.input.dataset.dim();
    let mut rows = Vec::new();
    for r in live_rows() {
        rows.extend_from_slice(stream.input.dataset.row(r));
    }
    let batch = P3cPlusLight::new(params()).cluster(&Dataset::new(rows.len() / d, d, rows));
    report.check(batch.clustering == model, || {
        "final service model differs from P3cPlusLight on the live rows".to_string()
    });
    let e4sc_start = Instant::now();
    let quality = e4sc(&model, &stream.input.truth(live_rows()));
    let e4sc_s = e4sc_start.elapsed().as_secs_f64();
    report.check(quality > 0.0, || "E4SC vs ground truth is 0".to_string());

    let per_pass = |f: &dyn Fn(&Pass) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
    let pooled = |f: &dyn Fn(&Drive) -> &Vec<f64>| -> Vec<f64> {
        passes
            .iter()
            .flat_map(|p| f(&p.drive).iter().copied())
            .collect()
    };
    let wall_s = median(&per_pass(&|p| p.wall_s));
    report.end_to_end.insert("wall_s", wall_s);
    report.end_to_end.insert(
        "cpu_s",
        per_pass(&|p| p.cpu_s).iter().sum::<f64>() / passes.len() as f64,
    );
    report.end_to_end.insert("e4sc", quality);
    report
        .end_to_end
        .insert("setup_s", median(&per_pass(&|p| p.setup_s)));

    if args.trace {
        let appends = pooled(&|d| &d.append_ms);
        let append_p50 = median(&appends);
        report.layer("datagen.generate_s", stream.input.generate_s);
        report.layer("eval.e4sc_s", e4sc_s);
        report.layer("harness.passes", passes.len() as f64);
        report.layer("harness.latency_samples", appends.len() as f64);
        report.layer("mapreduce.service.append_ms_p50", append_p50);
        report.layer(
            "mapreduce.service.append_ms_p99",
            percentile(&appends, 0.99),
        );
        report.layer(
            "mapreduce.service.appends_per_s",
            median(&per_pass(&|p| APPENDS as f64 / p.drive.loop_s)),
        );
        report.layer(
            "mapreduce.service.recluster_fast_ms_p50",
            median(&pooled(&|d| &d.fast_ms)),
        );
        report.layer(
            "mapreduce.service.recluster_full_ms_p50",
            median(&pooled(&|d| &d.full_ms)),
        );
        report.layer(
            "mapreduce.service.retract_ms_p50",
            median(&pooled(&|d| &d.retract_ms)),
        );
        report.layer(
            "mapreduce.service.admission_waits",
            first.admission_waits as f64,
        );
        store_layers(&mut report, &first.store);
        if kind == Kind::Durable {
            report.layer(
                "mapreduce.service.recover_s",
                median(&per_pass(&|p| p.recover_s)),
            );
            report.layer(
                "mapreduce.service.stored_bytes_per_user_byte",
                first.stored_bytes as f64 / (live_rows().count() * d * 8) as f64,
            );
            report.layer(
                "mapreduce.service.records_replayed",
                first.records_replayed as f64,
            );
            report.layer(
                "mapreduce.service.snapshots_loaded",
                first.snapshots_loaded as f64,
            );
        }
        if let Some(replay) = replay(kind, args, &stream, &model, tmp, &mut report) {
            let loop_s = median(&per_pass(&|p| p.drive.loop_s));
            report.layer("trace.overhead_ratio", replay.loop_s / loop_s - 1.0);
            report.layer(
                "mapreduce.service.append_overhead_ms",
                append_p50 - replay.append_ms_p50 - replay.record_ms_p50,
            );
            report.spans = replay.spans;
        }
    }
    report.end_to_end.insert("peak_rss_mb", peak_rss_mb);
    report
}

fn store_layers(report: &mut Report, s: &DatasetStoreStats) {
    report.layer("mapreduce.store.spills", s.spills as f64);
    report.layer("mapreduce.store.spill_loads", s.spill_loads as f64);
    report.layer(
        "mapreduce.store.segment_bytes_read",
        s.segment_bytes_read as f64,
    );
    report.layer(
        "mapreduce.store.hit_ratio",
        s.hits as f64 / (s.hits + s.misses).max(1) as f64,
    );
    report.layer("mapreduce.store.evictions", s.evictions as f64);
}

/// The traced pass: the identical stream through the bare
/// `IncrementalLight` over a `DatasetStore` of the same budget — the
/// service's cost minus the service — then the durability primitives
/// timed on the payloads the stream produced.
fn replay(
    kind: Kind,
    args: &RunArgs,
    stream: &Stream,
    expected: &Clustering,
    tmp: &Path,
    report: &mut Report,
) -> Option<Replay> {
    let store = new_store(kind, args.smoke);
    let (initial, appends) = stream.blocks();
    let journal_payloads: Vec<Vec<u8>> = appends
        .iter()
        .take(200)
        .map(|b| {
            // The service's append record: the encoded block, length-prefixed.
            let mut payload = Vec::new();
            journal::put_bytes(&mut payload, &IncrementalLight::encode_block(b));
            payload
        })
        .collect();
    let column: Vec<f64> = initial.column(0).collect();
    let mut bare = BareTarget {
        engine: IncrementalLight::new(TENANT, params()),
        store: &store,
    };
    let initial_id = report.attempt("replay initial load", bare.append(initial))?;
    let mut tracer = Tracer::new();
    let root = tracer.open("replay", None, 0);
    let drive = drive(
        &mut bare,
        initial_id,
        appends,
        report,
        Some((&mut tracer, root)),
    );
    tracer.close(root);
    report.check(drive.model.as_ref() == Some(expected), || {
        "bare IncrementalLight replay ended on a different model than the service".to_string()
    });

    let append_p50 = median(&drive.append_ms);
    report.layer("core.incremental.append_ms_p50", append_p50);
    report.layer("core.incremental.retract_ms_p50", median(&drive.retract_ms));
    report.layer(
        "core.incremental.recluster_fast_ms_p50",
        median(&drive.fast_ms),
    );
    report.layer(
        "core.incremental.recluster_full_ms_p50",
        median(&drive.full_ms),
    );
    let stats = bare.engine.stats();
    report.layer(
        "core.incremental.fast_path_ratio",
        stats.fast_reclusters as f64 / stats.reclusters.max(1) as f64,
    );
    report.layer("core.incremental.hist_rebuilds", stats.hist_rebuilds as f64);
    report.layer("core.incremental.support_scans", stats.support_scans as f64);
    report.layer("core.incremental.cached_levels", stats.cached_levels as f64);
    report.layer(
        "trace.coverage",
        tracer.children_seconds(root) / drive.loop_s,
    );

    let mut record_p50 = 0.0;
    match kind {
        Kind::Spill => micro::colseg(report, &column),
        Kind::Durable => {
            let root = tracer.open("durability-primitives", None, 0);
            let timings = durability_primitives(&bare, &journal_payloads, tmp, &mut tracer, root);
            tracer.close(root);
            if let Some(p) = report.attempt("durability primitives", timings) {
                record_p50 = p.record_ms_p50;
                report.layer("dataset.journal.record_ms_p50", p.record_ms_p50);
                report.layer("dataset.journal.record_bytes", p.record_bytes);
                report.layer("dataset.journal.read_ms", p.read_journal_ms);
                report.layer("dataset.journal.snapshot_write_ms", p.snapshot_write_ms);
                report.layer("dataset.journal.snapshot_read_ms", p.snapshot_read_ms);
                report.layer("core.incremental.snapshot_encode_ms", p.snapshot_encode_ms);
                report.layer("core.incremental.snapshot_bytes", p.snapshot_bytes);
                report.layer("core.incremental.snapshot_decode_ms", p.snapshot_decode_ms);
            }
        }
    }
    Some(Replay {
        loop_s: drive.loop_s,
        append_ms_p50: append_p50,
        record_ms_p50: record_p50,
        spans: tracer.spans,
    })
}

/// What the traced pass hands back for the metrics that set it
/// against the service's own numbers.
struct Replay {
    loop_s: f64,
    append_ms_p50: f64,
    record_ms_p50: f64,
    spans: Vec<Span>,
}

/// Medians of the durability primitives, in ms unless named otherwise.
struct Primitives {
    record_ms_p50: f64,
    record_bytes: f64,
    read_journal_ms: f64,
    snapshot_encode_ms: f64,
    snapshot_bytes: f64,
    snapshot_write_ms: f64,
    snapshot_read_ms: f64,
    snapshot_decode_ms: f64,
}

/// Times `JournalWriter::record` (with its `sync_data`) on the
/// stream's append payloads, `read_journal` on the file that leaves,
/// and snapshot encode / write / read / decode on the replay engine's
/// end state; every call is a span under `root`.
fn durability_primitives(
    bare: &BareTarget<'_>,
    payloads: &[Vec<u8>],
    tmp: &Path,
    tracer: &mut Tracer,
    root: usize,
) -> Result<Primitives, String> {
    /// The service's append opcode; the journal treats it as opaque.
    const OP_APPEND: u8 = 2;
    const REPS: usize = 5;
    let dir = tmp.join("primitives");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let io = |e: std::io::Error| e.to_string();

    let journal_path = dir.join(journal::JOURNAL_FILE);
    let mut writer = JournalWriter::create(&journal_path, 0).map_err(io)?;
    let mut record_ms = Vec::with_capacity(payloads.len());
    for payload in payloads {
        let (seq, s) = tracer.span_timed("dataset.journal.record", root, || {
            writer.record(OP_APPEND, payload)
        });
        seq.map_err(io)?;
        record_ms.push(s * 1e3);
    }
    drop(writer);

    let snapshot_path = dir.join(journal::SNAPSHOT_FILE);
    let (mut read_journal, mut encode, mut write, mut read, mut decode) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut snapshot_bytes = 0;
    for _ in 0..REPS {
        let (records, s) = tracer.span_timed("dataset.journal.read_journal", root, || {
            journal::read_journal(&journal_path)
        });
        read_journal.push(s * 1e3);
        let (records, _) = records.map_err(io)?;
        if records.len() != payloads.len() {
            return Err(format!(
                "read_journal returned {} of {} records",
                records.len(),
                payloads.len()
            ));
        }
        let (state, s) = tracer.span_timed("core.incremental.snapshot_bytes", root, || {
            bare.engine.snapshot_bytes(bare.store)
        });
        encode.push(s * 1e3);
        let state = state?;
        snapshot_bytes = state.len();
        let (written, s) = tracer.span_timed("dataset.journal.write_snapshot", root, || {
            journal::write_snapshot(&snapshot_path, 1, &state)
        });
        write.push(s * 1e3);
        written.map_err(io)?;
        let (body, s) = tracer.span_timed("dataset.journal.read_snapshot", root, || {
            journal::read_snapshot(&snapshot_path)
        });
        read.push(s * 1e3);
        let Some((_, body)) = body.map_err(io)? else {
            return Err("snapshot just written is missing".to_string());
        };
        let scratch = DatasetStore::new();
        let (restored, s) = tracer.span_timed("core.incremental.from_snapshot_bytes", root, || {
            IncrementalLight::from_snapshot_bytes(TENANT, &body, &scratch)
        });
        decode.push(s * 1e3);
        if restored?.total_rows() != bare.engine.total_rows() {
            return Err("snapshot round trip lost rows".to_string());
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(Primitives {
        record_ms_p50: median(&record_ms),
        // [u32 len][u8 op][u64 seq][payload][u64 checksum]
        record_bytes: payloads.first().map_or(0, |p| p.len() + 21) as f64,
        read_journal_ms: median(&read_journal),
        snapshot_encode_ms: median(&encode),
        snapshot_bytes: snapshot_bytes as f64,
        snapshot_write_ms: median(&write),
        snapshot_read_ms: median(&read),
        snapshot_decode_ms: median(&decode),
    })
}
