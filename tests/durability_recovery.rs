//! Crash recovery for the durable clustering service (DESIGN.md §16).
//!
//! * **Byte-identity after recovery** — a service restarted from its
//!   data directory re-clusters to exactly the model the pre-crash
//!   service produced, which is itself byte-identical to a from-scratch
//!   batch fit on the cumulative data.
//! * **Bounded replay** — recovery replays at most the journal records
//!   written since the last snapshot, not the tenant's whole history.
//! * **Torn tails** — a journal cut at an arbitrary byte (the on-disk
//!   state a mid-write crash leaves behind) recovers the longest valid
//!   record prefix, and the recovered tenant is byte-identical to batch
//!   over exactly the blocks whose records survived.
//! * **Crash states** — the directory as it stands after every file
//!   operation of appends and snapshot rolls (rotation, relocation,
//!   snapshot write, segment deletion) recovers to the last acknowledged
//!   model or the one in flight, and a second recovery rewrites nothing.
//! * **The disk bound** — after each roll the sealed segments hold at
//!   most twice the live blocks' payloads, and none is left holding no
//!   live block.
//!
//! No graceful shutdown path exists — every "restart" here drops the
//! first service without any handshake, exactly like a SIGKILL.

use p3c_check::Gen;
use p3c_suite::core::config::P3cParams;
use p3c_suite::core::incremental::IncrementalLight;
use p3c_suite::core::p3cplus::{P3cPlusLight, P3cResult};
use p3c_suite::datagen::{generate, SyntheticSpec};
use p3c_suite::dataset::journal;
use p3c_suite::dataset::RowBlock;
use p3c_suite::mapreduce::service::ServiceError;
use p3c_suite::mapreduce::{ClusterService, DatasetStore};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn spec(n: usize, d: usize, seed: u64) -> SyntheticSpec {
    SyntheticSpec {
        n,
        d,
        num_clusters: 3,
        noise_fraction: 0.1,
        max_cluster_dims: 4.min(d),
        seed,
        ..SyntheticSpec::default()
    }
}

fn chunk(block: &RowBlock, start: usize, len: usize) -> RowBlock {
    block.subset(&(start..start + len).collect::<Vec<_>>())
}

fn batch(cumulative: RowBlock, params: &P3cParams) -> P3cResult {
    P3cPlusLight::new(params.clone()).cluster(&cumulative)
}

fn assert_identical(tag: &str, inc: &P3cResult, bat: &P3cResult) {
    assert_eq!(inc.clustering, bat.clustering, "{tag}: clustering differs");
    assert_eq!(inc.cores, bat.cores, "{tag}: cores differ");
    assert_eq!(inc.stats.bins, bat.stats.bins, "{tag}");
    assert_eq!(inc.stats.outliers, bat.stats.outliers, "{tag}");
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("p3c-durability-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn durable(dir: &Path, snapshot_every: u64) -> ClusterService<IncrementalLight> {
    ClusterService::with_durability(Arc::new(DatasetStore::new()), None, dir, snapshot_every)
        .unwrap()
}

#[test]
fn recovered_service_reclusters_byte_identically() {
    let dir = tmpdir("identity");
    let params = P3cParams::default();
    let data = generate(&spec(3000, 8, 11));
    let all = data.dataset;

    // Pre-crash: appends, a retract, and a recluster, with snapshots
    // rolling every 2 records.
    let pre_crash = {
        let svc = durable(&dir, 2);
        svc.create("t", IncrementalLight::new("t", params.clone()))
            .unwrap();
        svc.append("t", chunk(&all, 0, 1000)).unwrap();
        let b = svc.append("t", chunk(&all, 1000, 1000)).unwrap();
        svc.append("t", chunk(&all, 2000, 1000)).unwrap();
        assert!(svc.retract("t", b).unwrap());
        svc.recluster("t").unwrap()
        // Dropped without any shutdown handshake — a SIGKILL.
    };

    let svc = durable(&dir, 2);
    let report = svc.recover().unwrap();
    assert_eq!(report.tenants, 1);
    assert!(report.snapshots_loaded >= 1, "{report:?}");
    let recovered = svc.recluster("t").unwrap();

    // The cumulative stream is blocks 0 and 2 (block 1 retracted).
    let blocks = [chunk(&all, 0, 1000), chunk(&all, 2000, 1000)];
    let refs: Vec<&RowBlock> = blocks.iter().collect();
    let expected = batch(RowBlock::concat(&refs), &params);
    assert_identical("recovered vs batch", &recovered.result, &expected);
    assert_identical(
        "recovered vs pre-crash",
        &recovered.result,
        &pre_crash.result,
    );

    // The recovered tenant keeps journaling: another append-and-crash
    // cycle recovers again, on top of the recovered state.
    svc.append("t", chunk(&all, 1000, 500)).unwrap();
    drop(svc);
    let svc = durable(&dir, 2);
    svc.recover().unwrap();
    let blocks = [
        chunk(&all, 0, 1000),
        chunk(&all, 2000, 1000),
        chunk(&all, 1000, 500),
    ];
    let refs: Vec<&RowBlock> = blocks.iter().collect();
    let expected = batch(RowBlock::concat(&refs), &params);
    assert_identical(
        "second recovery",
        &svc.recluster("t").unwrap().result,
        &expected,
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replay_is_bounded_by_the_snapshot_interval() {
    let dir = tmpdir("bounded");
    let params = P3cParams::default();
    let data = generate(&spec(4000, 6, 23));
    let all = data.dataset;
    let every = 4u64;
    {
        let svc = durable(&dir, every);
        svc.create("t", IncrementalLight::new("t", params.clone()))
            .unwrap();
        let mut fed = 0;
        for _ in 0..20 {
            svc.append("t", chunk(&all, fed, 200)).unwrap();
            fed += 200;
        }
    }
    let svc = durable(&dir, every);
    let report = svc.recover().unwrap();
    assert_eq!((report.tenants, report.snapshots_loaded), (1, 1));
    // 21 mutations happened (create + 20 appends, plus bin-rule-step
    // records), but replay is bounded by the records accumulated since
    // the last snapshot — at most the interval plus the one mutation
    // that can land after the roll check.
    assert!(
        report.records_replayed <= every + 1,
        "replay not bounded by snapshot: {report:?}"
    );
    let expected = batch(chunk(&all, 0, 4000), &params);
    assert_identical(
        "bounded replay",
        &svc.recluster("t").unwrap().result,
        &expected,
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_journal_tail_recovers_the_valid_prefix() {
    let base = tmpdir("torn");
    let params = P3cParams::default();
    let data = generate(&spec(1800, 6, 31));
    let all = data.dataset;
    let blocks = 6usize;
    let rows_per = 300usize;

    // Journal-only mode: every append is one APPEND record (plus
    // bin-rule-step records), so cutting the file exercises every
    // torn-tail case.
    let master = base.join("master");
    {
        let svc = durable(&master, 0);
        svc.create("t", IncrementalLight::new("t", params.clone()))
            .unwrap();
        for b in 0..blocks {
            svc.append("t", chunk(&all, b * rows_per, rows_per))
                .unwrap();
        }
    }
    let tenant_dir = std::fs::read_dir(&master)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.is_dir())
        .expect("tenant directory");
    let journal_bytes = std::fs::read(tenant_dir.join(journal::JOURNAL_FILE)).unwrap();
    assert!(journal_bytes.len() > 64, "journal suspiciously small");

    let mut rng = Gen::new(0x7061_7065_7221);
    let mut shorter_than_full = 0;
    for case in 0..=10u64 {
        // Cut anywhere in the file — record boundaries and mid-record
        // alike; a mid-record cut is exactly a torn write. The last case
        // keeps the whole journal: a journal-only replay of every block.
        let cut = if case < 10 {
            1 + rng.below(journal_bytes.len() - 1)
        } else {
            journal_bytes.len()
        };
        let dir = base.join(format!("cut-{case}"));
        let tdir = dir.join(tenant_dir.file_name().unwrap());
        std::fs::create_dir_all(&tdir).unwrap();
        std::fs::write(tdir.join(journal::JOURNAL_FILE), &journal_bytes[..cut]).unwrap();

        let svc = durable(&dir, 0);
        let report = svc.recover().unwrap();
        if report.tenants == 0 {
            // The cut beheaded the create record: nothing durable.
            continue;
        }
        // The recovered block set must be a prefix of the appended ones.
        let ids = svc.with_tenant("t", |t| t.block_ids()).unwrap();
        let m = ids.len();
        assert!(m <= blocks, "recovered more blocks than written");
        assert_eq!(
            ids,
            (0..m as u64).collect::<Vec<_>>(),
            "recovered blocks are not the journal prefix"
        );
        if m < blocks {
            shorter_than_full += 1;
        }
        if cut == journal_bytes.len() {
            assert_eq!(m, blocks, "the whole journal lost blocks");
        }
        let live: Vec<RowBlock> = (0..m)
            .map(|b| chunk(&all, b * rows_per, rows_per))
            .collect();
        let refs: Vec<&RowBlock> = live.iter().collect();
        let expected = batch(RowBlock::concat(&refs), &params);
        assert_identical(
            &format!("cut {cut} of {}", journal_bytes.len()),
            &svc.recluster("t").unwrap().result,
            &expected,
        );
    }
    assert!(
        shorter_than_full > 0,
        "every random cut recovered the full history — the test never tore a record"
    );
    let _ = std::fs::remove_dir_all(&base);
}

// ------------------------------------------------- segments and crashes ---

/// The model a recluster publishes and the live block ids behind it.
type Fingerprint = (
    p3c_suite::dataset::Clustering,
    Vec<p3c_suite::core::cores::ClusterCore>,
    Vec<u64>,
);

fn fingerprint(svc: &ClusterService<IncrementalLight>) -> Fingerprint {
    let model = svc.recluster("t").unwrap();
    let ids = svc.with_tenant("t", |t| t.block_ids()).unwrap();
    (
        model.result.clustering.clone(),
        model.result.cores.clone(),
        ids,
    )
}

/// Every file of `from`, copied flat into `to`.
fn copy_files(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, to.join(path.file_name().unwrap())).unwrap();
    }
}

/// Names and bytes of every file of `dir`, sorted.
fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let path = e.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).unwrap())
        })
        .collect();
    out.sort();
    out
}

/// One mutation of the crash script.
enum Step {
    Append(RowBlock),
    Retract(u64),
}

/// The script: a large first block whose retract leaves segment 0
/// sparse, so the next roll compacts it and deletes it, and smaller
/// blocks around it; `snapshot_every` 2 rolls after every second
/// record.
fn crash_script() -> Vec<Step> {
    let all = generate(&spec(1000, 4, 41)).dataset;
    vec![
        Step::Append(chunk(&all, 0, 400)),
        Step::Append(chunk(&all, 400, 100)),
        Step::Append(chunk(&all, 500, 100)),
        Step::Retract(0),
        Step::Append(chunk(&all, 600, 100)),
        Step::Retract(2),
        Step::Append(chunk(&all, 700, 150)),
        Step::Append(chunk(&all, 850, 150)),
    ]
}

/// Runs the crash script against a durable service in `data`, calling
/// `after_op(mutation, op)` after every file operation, where mutation
/// 0 is the create and `i` the script's `i`-th step; returns the
/// fingerprint after each mutation.
fn run_crash_script(data: &Path, after_op: impl FnMut(usize, &str) + 'static) -> Vec<Fingerprint> {
    let in_flight = std::rc::Rc::new(std::cell::Cell::new(0));
    let seen = std::rc::Rc::clone(&in_flight);
    let mut after_op = after_op;
    journal::with_op_probe(
        move |op, _| after_op(seen.get(), op),
        || {
            let svc = durable(data, 2);
            svc.create("t", IncrementalLight::new("t", P3cParams::default()))
                .unwrap();
            let mut after = vec![fingerprint(&svc)];
            for (i, step) in crash_script().into_iter().enumerate() {
                in_flight.set(i + 1);
                match step {
                    Step::Append(block) => drop(svc.append("t", block).unwrap()),
                    Step::Retract(id) => assert!(svc.retract("t", id).unwrap()),
                }
                after.push(fingerprint(&svc));
            }
            after
        },
    )
}

#[test]
fn every_stop_in_the_durable_path_recovers_an_acknowledged_model() {
    // The directory is copied after every file operation of the script:
    // journal appends, and each snapshot roll's segment rotation,
    // relocation records, snapshot write and rename, and segment
    // deletions. Each copy is what a process stopped right there leaves
    // on disk, since every operation is synced before the next begins.
    let base = tmpdir("stops");
    let data = base.join("live");
    let states = base.join("states");
    let tenant = journal::tenant_dir(&data, "t");
    let taken = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
    let log = std::rc::Rc::clone(&taken);
    let (to, from) = (states.clone(), tenant.clone());
    let after = run_crash_script(&data, move |mutation, op| {
        let mut log = log.borrow_mut();
        copy_files(&from, &to.join(log.len().to_string()));
        log.push((mutation, op.to_string()));
    });
    let taken = taken.borrow();
    let ops: BTreeSet<&str> = taken.iter().map(|(_, op)| op.as_str()).collect();
    for op in ["open segment", "record", "write tmp", "rename", "delete"] {
        assert!(ops.contains(op), "the script never stopped after a {op}");
    }
    let relocated = journal::list_segments(&tenant).unwrap().iter().any(|&n| {
        let segment = journal::read_segment(&tenant.join(journal::segment_file(n))).unwrap();
        let relocation = segment.records().any(|r| r.op == 5);
        relocation
    });
    assert!(relocated, "no roll compacted a segment");
    eprintln!("{} stop states", taken.len());

    for (k, (mutation, op)) in taken.iter().enumerate() {
        let what = format!("stop {k} ({op} during mutation {mutation})");
        let dir = base.join(format!("recover-{k}"));
        copy_files(&states.join(k.to_string()), &journal::tenant_dir(&dir, "t"));
        let svc = durable(&dir, 2);
        let report = svc.recover().unwrap_or_else(|e| panic!("{what}: {e}"));
        if report.tenants == 0 {
            assert_eq!(*mutation, 0, "{what}: the tenant is gone");
            continue;
        }
        let got = fingerprint(&svc);
        let acknowledged = mutation.checked_sub(1).map(|m| &after[m]);
        assert!(
            got == after[*mutation] || Some(&got) == acknowledged,
            "{what}: recovered blocks {:?}, neither acknowledged nor in flight",
            got.2
        );
        drop(svc);
        // A second recovery finds nothing left to repair.
        let first = files(&journal::tenant_dir(&dir, "t"));
        let svc = durable(&dir, 2);
        svc.recover().unwrap();
        assert!(
            files(&journal::tenant_dir(&dir, "t")) == first,
            "{what}: the second recovery rewrote the directory"
        );
        assert!(fingerprint(&svc) == got, "{what}: second recovery differs");
        drop(svc);
        std::fs::remove_dir_all(&dir).unwrap();
    }
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn a_torn_last_segment_recovers_a_prefix_of_the_history() {
    let base = tmpdir("torn-segment");
    let data = base.join("live");
    let after = run_crash_script(&data, |_, _| {});
    let tenant = journal::tenant_dir(&data, "t");
    // One more append lands in the open segment behind the last roll
    // (a service that never rolls).
    let svc = durable(&data, 0);
    svc.recover().unwrap();
    let extra = chunk(&generate(&spec(300, 4, 43)).dataset, 0, 300);
    svc.append("t", extra).unwrap();
    let last_model = fingerprint(&svc);
    drop(svc);
    let last = *journal::list_segments(&tenant).unwrap().last().unwrap();
    let last_name = journal::segment_file(last);
    let bytes = std::fs::read(tenant.join(&last_name)).unwrap();
    assert!(bytes.len() > 64, "the open segment holds a record");
    let mut g = Gen::new(0x5e9_7041);
    let mut cuts: Vec<usize> = (0..12).map(|_| g.below(bytes.len())).collect();
    cuts.push(bytes.len());
    let mut shorter = 0;
    for cut in cuts {
        let dir = base.join(format!("cut-{cut}"));
        let tdir = journal::tenant_dir(&dir, "t");
        copy_files(&tenant, &tdir);
        std::fs::write(tdir.join(&last_name), &bytes[..cut]).unwrap();
        let svc = durable(&dir, 2);
        assert_eq!(svc.recover().unwrap().tenants, 1, "cut {cut}");
        let got = fingerprint(&svc);
        if cut == bytes.len() {
            assert!(got == last_model, "the whole segment lost a mutation");
        } else {
            assert!(
                after.contains(&got) || got == last_model,
                "cut {cut}: recovered blocks {:?} are no prefix of the history",
                got.2
            );
            shorter += usize::from(got != last_model);
        }
        drop(svc);
        std::fs::remove_dir_all(&dir).unwrap();
    }
    assert!(shorter > 0, "no cut tore a record");
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn a_corrupt_record_the_snapshot_references_is_an_error_naming_the_tenant() {
    let base = tmpdir("corrupt-ref");
    let data = base.join("live");
    run_crash_script(&data, |_, _| {});
    let tenant = journal::tenant_dir(&data, "t");
    let snapshot = journal::load_snapshot(&tenant.join(journal::SNAPSHOT_FILE))
        .unwrap()
        .unwrap();
    let refs: BTreeSet<u64> = snapshot
        .parts()
        .unwrap()
        .blocks
        .unwrap()
        .iter()
        .map(|r| r.seq)
        .collect();
    // Every referenced record: its frame's first byte, a payload byte and
    // its checksum's last byte.
    let mut targets = Vec::new();
    for n in journal::list_segments(&tenant).unwrap() {
        let name = journal::segment_file(n);
        let segment = journal::read_segment(&tenant.join(&name)).unwrap();
        for r in segment.records().filter(|r| refs.contains(&r.seq)) {
            let start = r.offset as usize;
            let end = start + 4 + 1 + 8 + r.payload.len() + 8;
            targets.extend([start, start + 20, end - 1].map(|at| (name.clone(), at)));
        }
    }
    assert!(
        targets.len() >= 3 * refs.len(),
        "every reference is on disk"
    );
    for (k, (name, at)) in targets.into_iter().enumerate() {
        let dir = base.join(format!("flip-{k}"));
        let tdir = journal::tenant_dir(&dir, "t");
        copy_files(&tenant, &tdir);
        let mut bytes = std::fs::read(tdir.join(&name)).unwrap();
        bytes[at] ^= 0x10;
        std::fs::write(tdir.join(&name), &bytes).unwrap();
        match durable(&dir, 2).recover() {
            Err(ServiceError::Durability(message)) => assert!(
                message.contains(&tdir.display().to_string()),
                "{name}@{at}: the error does not name the tenant: {message}"
            ),
            other => panic!("{name}@{at}: recovered to {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn snapshots_keep_the_directory_within_twice_the_live_bytes() {
    // Appends, and retracts of every other block a few appends later,
    // rolling a snapshot every four records. After each roll: the sealed
    // segments hold at most twice the live blocks' record payloads, no
    // sealed segment is left that holds no live block, and no temporary
    // file is left behind.
    let dir = tmpdir("disk-bound");
    let all = generate(&spec(6000, 6, 47)).dataset;
    let svc = durable(&dir, 4);
    svc.create("t", IncrementalLight::new("t", P3cParams::default()))
        .unwrap();
    let tenant = journal::tenant_dir(&dir, "t");
    let mut ids = Vec::new();
    let mut covered = None;
    let (mut rolls, mut deleted) = (0, 0);
    let mut seen_segments = BTreeSet::new();
    let mut fed = 0;
    for i in 0..48usize {
        let rows = 40 + 37 * (i % 5);
        ids.push(svc.append("t", chunk(&all, fed, rows)).unwrap());
        fed += rows;
        if i >= 4 && (i - 4) % 2 == 0 {
            assert!(svc.retract("t", ids[i - 4]).unwrap());
        }
        let segments = journal::list_segments(&tenant).unwrap();
        seen_segments.extend(segments.iter().copied());
        let Some(snapshot) = journal::load_snapshot(&tenant.join(journal::SNAPSHOT_FILE)).unwrap()
        else {
            continue;
        };
        if covered == Some(snapshot.covered_seq) {
            continue;
        }
        covered = Some(snapshot.covered_seq);
        rolls += 1;
        let refs: BTreeSet<u64> = snapshot
            .parts()
            .unwrap()
            .blocks
            .unwrap()
            .iter()
            .map(|r| r.seq)
            .collect();
        let (open, sealed) = segments.split_last().unwrap();
        let mut live = 0;
        for &n in sealed {
            let segment = journal::read_segment(&tenant.join(journal::segment_file(n))).unwrap();
            let mut holds = false;
            for r in segment.records() {
                assert!(
                    r.seq <= snapshot.covered_seq,
                    "a sealed record past the snapshot"
                );
                if refs.contains(&r.seq) {
                    live += r.payload.len() as u64;
                    holds = true;
                }
            }
            assert!(holds, "after roll {rolls}: segment {n} holds no live block");
        }
        let open = journal::read_segment(&tenant.join(journal::segment_file(*open))).unwrap();
        live += open
            .records()
            .filter(|r| refs.contains(&r.seq))
            .map(|r| r.payload.len() as u64)
            .sum::<u64>();
        let on_disk = files(&tenant);
        assert!(
            on_disk.iter().all(|(name, _)| !name.ends_with(".tmp")),
            "after roll {rolls}: a temporary file is left"
        );
        let total: u64 = on_disk.iter().map(|(_, b)| b.len() as u64).sum();
        let snapshot_len = std::fs::metadata(tenant.join(journal::SNAPSHOT_FILE))
            .unwrap()
            .len();
        assert!(
            total <= 2 * live + snapshot_len + open.file_len(),
            "after roll {rolls}: {total} bytes on disk, {live} live, snapshot \
             {snapshot_len}, open segment {}",
            open.file_len()
        );
        deleted = seen_segments.len() - segments.len();
    }
    assert!(rolls >= 8, "{rolls} rolls");
    assert!(deleted >= 2, "{deleted} segments deleted");
    // And the directory still recovers to the live model.
    let expected = fingerprint(&svc);
    drop(svc);
    let svc = durable(&dir, 4);
    svc.recover().unwrap();
    assert!(fingerprint(&svc) == expected);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_break_in_the_tail_cuts_the_history_there() {
    // Stopped right after a roll's rotation, the sealed segment still
    // holds the records past the last snapshot; a restart appends to the
    // new segment, so the tail spans two segments. A corrupt record in
    // the first cuts the history there: the rest of that segment and the
    // whole later segment are lost, and recovery removes them.
    let base = tmpdir("tail-break");
    let data = base.join("live");
    let states = base.join("states");
    let tenant = journal::tenant_dir(&data, "t");
    let taken = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
    let log = std::rc::Rc::clone(&taken);
    let (to, from) = (states.clone(), tenant.clone());
    let after = run_crash_script(&data, move |mutation, op| {
        let mut log = log.borrow_mut();
        if mutation > 1 && op == "open segment" && log.is_empty() {
            copy_files(&from, &to);
            log.push(mutation);
        }
    });
    assert_eq!(taken.borrow().len(), 1, "no roll rotated");
    let dir = base.join("restarted");
    let tdir = journal::tenant_dir(&dir, "t");
    copy_files(&states, &tdir);
    let mut segments = journal::list_segments(&tdir).unwrap();
    let open = segments.pop().unwrap();
    let sealed = *segments.last().unwrap();
    let svc = durable(&dir, 0);
    svc.recover().unwrap();
    let extra = chunk(&generate(&spec(200, 4, 45)).dataset, 0, 200);
    svc.append("t", extra).unwrap();
    drop(svc);
    let covered = journal::load_snapshot(&tdir.join(journal::SNAPSHOT_FILE))
        .unwrap()
        .unwrap()
        .covered_seq;
    let sealed_path = tdir.join(journal::segment_file(sealed));
    let segment = journal::read_segment(&sealed_path).unwrap();
    let victim = segment
        .records()
        .filter(|r| r.seq > covered && r.op == 2)
        .last()
        .expect("an append past the snapshot in the sealed segment");
    let mut bytes = std::fs::read(&sealed_path).unwrap();
    bytes[victim.offset as usize + 30] ^= 0x04;
    std::fs::write(&sealed_path, &bytes).unwrap();

    let svc = durable(&dir, 0);
    svc.recover().unwrap();
    let got = fingerprint(&svc);
    assert!(after.contains(&got), "recovered blocks {:?}", got.2);
    drop(svc);
    assert_eq!(
        std::fs::metadata(&sealed_path).unwrap().len(),
        victim.offset,
        "the sealed segment is cut at the corrupt record"
    );
    assert!(
        !tdir.join(journal::segment_file(open)).exists(),
        "the segment past the break is deleted"
    );
    let first = files(&tdir);
    let svc = durable(&dir, 0);
    svc.recover().unwrap();
    assert!(fingerprint(&svc) == got);
    assert!(
        files(&tdir) == first,
        "the second recovery rewrote the directory"
    );
    let _ = std::fs::remove_dir_all(&base);
}
