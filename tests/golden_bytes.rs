//! Golden bytes for every on-disk and on-wire format (DESIGN.md "Byte
//! formats"): the files under `tests/golden/` were written once and
//! every later tree must reproduce them byte for byte — and must still
//! recover a data directory holding them.
//!
//! The journal, snapshot and engine-state formats are kept by
//! generation: `tests/golden/v1/` holds what the v1 writers wrote
//! (FNV-1a sums), `tests/golden/v2/` what the v2 writers wrote
//! (`wordsum64` sums, one journal truncated at each snapshot, snapshots
//! carrying every live block inline), and `tests/golden/v3/` what this
//! tree writes (journal segments, snapshots referencing the records
//! that hold the blocks). This tree must still decode and recover the
//! older generations. The formats that never changed version sit at the
//! top.
//!
//! `cargo test --test golden_bytes -- --ignored bless` rewrites the
//! files this tree writes — never `v1/` or `v2/`; doing so is a format
//! change and needs a version bump.

use p3c_check::Gen;
use p3c_suite::core::config::P3cParams;
use p3c_suite::core::incremental::IncrementalLight;
use p3c_suite::core::p3cplus::P3cPlusLight;
use p3c_suite::dataset::journal::{self, JournalWriter};
use p3c_suite::dataset::{Dataset, RowBlock};
use p3c_suite::mapreduce::distrib::encode_to_vec;
use p3c_suite::mapreduce::distrib::wire::{write_frame, OP_STORE};
use p3c_suite::mapreduce::service::DurableTenant;
use p3c_suite::mapreduce::{ClusterService, DatasetStore};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const TENANT: &str = "golden tenant/1";
const D: usize = 4;

/// `n` rows: two projected clusters (attributes {0,1} and {2,3}) and
/// one uniform row in ten, from a fixed stream.
fn block(rng: &mut Gen, n: usize) -> RowBlock {
    let mut data = Vec::with_capacity(n * D);
    for i in 0..n {
        let mut row = [rng.unit(), rng.unit(), rng.unit(), rng.unit()];
        match i % 10 {
            0 => {}
            k if k % 2 == 1 => {
                row[0] = 0.20 + 0.06 * rng.unit();
                row[1] = 0.30 + 0.06 * rng.unit();
            }
            _ => {
                row[2] = 0.70 + 0.06 * rng.unit();
                row[3] = 0.80 + 0.06 * rng.unit();
            }
        }
        data.extend_from_slice(&row);
    }
    RowBlock::new(n, D, data)
}

fn params() -> P3cParams {
    P3cParams {
        threads: 1,
        ..P3cParams::default()
    }
}

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("p3c-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The two golden data directories: the script's whole history in the
/// journal (`snapshot_every` 0 — create, append, retract and bin-step
/// records), and a snapshot with a journal tail behind it (from v3, the
/// segments holding the live blocks too).
const DATA_DIRS: [(&str, u64); 2] = [("tenant_wal", 0), ("tenant", 3)];

fn durable(dir: &Path, snapshot_every: u64) -> ClusterService<IncrementalLight> {
    ClusterService::with_durability(Arc::new(DatasetStore::new()), None, dir, snapshot_every)
        .unwrap()
}

/// The fixed service script; returns the cumulative rows it leaves.
fn run_service_script(dir: &Path, snapshot_every: u64) -> Vec<f64> {
    let mut rng = Gen::new(0x0060_1de2);
    let blocks: Vec<RowBlock> = [160, 120, 90].iter().map(|&n| block(&mut rng, n)).collect();
    let svc = durable(dir, snapshot_every);
    svc.create(TENANT, IncrementalLight::new(TENANT, params()))
        .unwrap();
    svc.append(TENANT, blocks[0].clone()).unwrap();
    let retracted = svc.append(TENANT, blocks[1].clone()).unwrap();
    svc.recluster(TENANT).unwrap();
    svc.append(TENANT, blocks[2].clone()).unwrap();
    assert!(svc.retract(TENANT, retracted).unwrap());
    [&blocks[0], &blocks[2]]
        .iter()
        .flat_map(|b| b.as_slice().iter().copied())
        .collect()
}

/// The bare engine after a fixed script: a published model, a retracted
/// block and a dirty tail — every branch of the state blob.
fn engine_state_blob() -> Vec<u8> {
    let mut rng = Gen::new(0xb10b);
    let store = DatasetStore::new();
    let mut engine = IncrementalLight::new(TENANT, params());
    engine.append(&store, block(&mut rng, 150)).unwrap();
    let gone = engine.append(&store, block(&mut rng, 60)).unwrap();
    engine
        .append(&store, RowBlock::new(0, D, Vec::new()))
        .unwrap();
    let outcome = engine.recluster(&store).unwrap();
    assert!(
        outcome.result.clustering.num_clusters() >= 1,
        "the golden blob must carry a model with cores"
    );
    assert!(engine.retract(&store, gone).unwrap());
    engine.append(&store, block(&mut rng, 40)).unwrap();
    engine.snapshot_bytes(&store).unwrap()
}

/// Two journal records written through the public writer.
fn journal_file_bytes() -> Vec<u8> {
    let dir = tmpdir("journal");
    let path = dir.join(journal::JOURNAL_FILE);
    let mut w = JournalWriter::create(&path, 5).unwrap();
    w.record(2, b"golden payload").unwrap();
    w.record(3, b"").unwrap();
    drop(w);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    bytes
}

fn snapshot_file_bytes() -> Vec<u8> {
    let dir = tmpdir("snapshot");
    let path = dir.join(journal::SNAPSHOT_FILE);
    journal::write_snapshot(&path, 41, b"golden state").unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    bytes
}

fn small_block() -> RowBlock {
    RowBlock::new(
        2,
        3,
        vec![
            0.25,
            -0.0,
            1.0,
            f64::from_bits(0x7ff8_dead_beef_0001),
            1e-300,
            0.75,
        ],
    )
}

fn wire_frame_bytes() -> Vec<u8> {
    let mut frame = Vec::new();
    write_frame(&mut frame, OP_STORE, b"golden frame").unwrap();
    frame
}

fn shuffle_pairs_bytes() -> Vec<u8> {
    let pairs: Vec<(usize, Vec<f64>)> =
        vec![(3, vec![1.0, -2.5]), (usize::MAX, vec![]), (0, vec![0.125])];
    encode_to_vec(&pairs)
}

/// The journal and snapshot envelope generations under `tests/golden/`;
/// this tree writes the last.
const GENERATIONS: [&str; 3] = ["v1", "v2", "v3"];
const WRITTEN: &str = "v3";

/// Every file of a directory, sorted by name.
fn dir_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let path = e.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).unwrap())
        })
        .collect();
    files.sort();
    files
}

/// Every golden artifact this tree writes: file name under
/// `tests/golden/` and the bytes this tree produces for it.
fn artifacts() -> Vec<(String, Vec<u8>)> {
    let mut out = vec![
        (
            format!("{WRITTEN}/journal_records.bin"),
            journal_file_bytes(),
        ),
        (
            format!("{WRITTEN}/snapshot_file.bin"),
            snapshot_file_bytes(),
        ),
        (format!("{WRITTEN}/state_blob.bin"), engine_state_blob()),
        (
            "create_record.bin".to_string(),
            IncrementalLight::new(TENANT, params()).encode_create(),
        ),
        (
            "block_record.bin".to_string(),
            IncrementalLight::encode_block(&small_block()),
        ),
        ("wire_frame.bin".to_string(), wire_frame_bytes()),
        ("shuffle_pairs.bin".to_string(), shuffle_pairs_bytes()),
    ];
    for (name, snapshot_every) in DATA_DIRS {
        let dir = tmpdir(name);
        run_service_script(&dir, snapshot_every);
        for (file, bytes) in dir_files(&journal::tenant_dir(&dir, TENANT)) {
            out.push((format!("{WRITTEN}/{name}/{file}"), bytes));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
    out
}

#[test]
fn every_format_reproduces_its_golden_bytes() {
    for (name, bytes) in artifacts() {
        let golden = std::fs::read(golden_dir().join(&name))
            .unwrap_or_else(|e| panic!("golden file {name}: {e}"));
        assert!(
            bytes == golden,
            "{name}: {} bytes produced, {} golden; first difference at byte {:?}",
            bytes.len(),
            golden.len(),
            bytes.iter().zip(&golden).position(|(a, b)| a != b)
        );
    }
}

/// `wordsum64` sums every v2 journal record and snapshot file, and master
/// and worker compute it for a shuffle partition in separate processes,
/// so its definition is pinned like a format: at the empty input, one
/// byte, both sides of the 32-byte lane block, and a partition-sized
/// input.
#[test]
fn the_in_flight_checksum_reproduces_its_golden_values() {
    use p3c_suite::dataset::bytes::wordsum64;
    let pattern = |len: usize| -> Vec<u8> { (0..len).map(|i| (i * 131 + 7) as u8).collect() };
    for (len, sum) in [
        (0usize, 0x0601_f8d5_ba64_0cfeu64),
        (1, 0x7c06_d23c_9d25_cdf4),
        (31, 0x5919_f410_c82a_d221),
        (32, 0xa11d_a961_73e7_891d),
        (33, 0xbca8_0720_c502_4019),
        (1500, 0xc901_5d10_69f2_f308),
    ] {
        assert_eq!(wordsum64(&pattern(len)), sum, "len {len}");
    }
    // What a STORE of the golden shuffle payload carries as its checksum.
    assert_eq!(wordsum64(&shuffle_pairs_bytes()), 0x9ef6_7349_947c_51f8);
}

#[test]
fn golden_files_decode_to_what_was_written() {
    let read = |name: &str| std::fs::read(golden_dir().join(name)).unwrap();

    let dir = tmpdir("decode");
    for generation in GENERATIONS {
        let journal_file = format!("{generation}/journal_records.bin");
        let path = dir.join(journal::JOURNAL_FILE);
        std::fs::write(&path, read(&journal_file)).unwrap();
        let (records, valid) = journal::read_journal(&path).unwrap();
        assert_eq!(valid as usize, read(&journal_file).len(), "{generation}");
        let got: Vec<(u64, u8, &[u8])> = records
            .iter()
            .map(|r| (r.seq, r.op, r.payload.as_slice()))
            .collect();
        assert_eq!(
            got,
            vec![(5, 2, b"golden payload".as_slice()), (6, 3, b"".as_slice())],
            "{generation}"
        );

        let path = dir.join(journal::SNAPSHOT_FILE);
        std::fs::write(&path, read(&format!("{generation}/snapshot_file.bin"))).unwrap();
        assert_eq!(
            journal::read_snapshot(&path).unwrap(),
            Some((41, b"golden state".to_vec())),
            "{generation}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();

    let block = IncrementalLight::decode_block(&read("block_record.bin")).unwrap();
    let bits = |b: &RowBlock| b.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!((block.len(), block.dim()), (2, 3));
    assert_eq!(bits(&block), bits(&small_block()));

    let created = IncrementalLight::decode_create(TENANT, &read("create_record.bin")).unwrap();
    assert_eq!(created.encode_create(), read("create_record.bin"));
    assert_eq!(created.params().alpha_poisson, params().alpha_poisson);

    // The state blob restores to an engine that re-encodes to the same
    // bytes. The v2 generation's blob (state version 1) carried the
    // block payloads: it restores them into the store, and re-encodes to
    // the v3 blob, which names the blocks and leaves the rows to the
    // journal.
    let blob = read("v3/state_blob.bin");
    for generation in ["v2", "v3"] {
        let store = DatasetStore::new();
        let old = read(&format!("{generation}/state_blob.bin"));
        let engine = IncrementalLight::from_snapshot_bytes(TENANT, &old, &store).unwrap();
        assert_eq!(engine.snapshot_bytes(&store).unwrap(), blob, "{generation}");
        let resident = engine.materialize(&store).map(|rows| rows.len());
        match generation {
            "v2" => assert_eq!(resident, Ok(190), "the v1 state's payloads"),
            _ => assert!(resident.is_err(), "a v2 state carries no payload"),
        }
    }
}

/// The model a from-scratch fit over the service script's cumulative
/// rows gives.
fn batch_model() -> p3c_suite::core::p3cplus::P3cResult {
    let live_dir = tmpdir("live");
    let rows = run_service_script(&live_dir, 0);
    std::fs::remove_dir_all(&live_dir).unwrap();
    let batch = P3cPlusLight::new(params()).cluster(&Dataset::new(rows.len() / D, D, rows));
    assert!(batch.clustering.num_clusters() >= 1);
    batch
}

/// A fresh data directory holding a copy of golden data dir
/// `generation/name`; returns the data dir and the tenant's directory.
fn golden_data_dir(generation: &str, name: &str) -> (PathBuf, PathBuf) {
    let dir = tmpdir(&format!("recover-{generation}-{name}"));
    let tdir = journal::tenant_dir(&dir, TENANT);
    std::fs::create_dir_all(&tdir).unwrap();
    for (file, bytes) in dir_files(&golden_dir().join(generation).join(name)) {
        std::fs::write(tdir.join(file), bytes).unwrap();
    }
    (dir, tdir)
}

#[test]
fn golden_data_dirs_recover_to_the_batch_model() {
    // Data directories written by this binary and by the v1 writers.
    // Recovery must replay each to the model a from-scratch fit over the
    // script's cumulative rows gives.
    let batch = batch_model();
    for generation in GENERATIONS {
        for (name, snapshot_every) in DATA_DIRS {
            let what = format!("{generation}/{name}");
            let (dir, _) = golden_data_dir(generation, name);
            let svc = durable(&dir, snapshot_every);
            let report = svc.recover().unwrap();
            assert_eq!(report.tenants, 1, "{what}");
            assert_eq!(
                report.snapshots_loaded,
                snapshot_every.min(1) as usize,
                "{what}"
            );
            assert!(report.records_replayed >= 2, "{what}: {report:?}");
            let recovered = svc.recluster(TENANT).unwrap();
            assert_eq!(recovered.result.clustering, batch.clustering, "{what}");
            assert_eq!(recovered.result.cores, batch.cores, "{what}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

#[test]
fn older_data_dirs_upgrade_to_v3_snapshots_without_losing_a_block() {
    // The v1 and v2 snapshots carry every live block inline, so those
    // blocks have no journal record: the first v3 snapshot re-journals
    // them under the relocation op, and a second recovery — from the v3
    // snapshot and the segments alone — must find every block.
    let mut rng = Gen::new(0x0b5e_0003);
    let extra: Vec<RowBlock> = [70, 50].iter().map(|&n| block(&mut rng, n)).collect();
    let script = {
        let live_dir = tmpdir("upgrade-live");
        let rows = run_service_script(&live_dir, 0);
        std::fs::remove_dir_all(&live_dir).unwrap();
        rows
    };
    // The script leaves blocks 0 (160 rows) and 2; block 0 goes below.
    let mut rows = script[160 * D..].to_vec();
    for b in &extra {
        rows.extend_from_slice(b.as_slice());
    }
    let batch = P3cPlusLight::new(params()).cluster(&Dataset::new(rows.len() / D, D, rows));
    for generation in ["v1", "v2"] {
        let (dir, tdir) = golden_data_dir(generation, "tenant");
        let svc = durable(&dir, 3);
        assert_eq!(svc.recover().unwrap().tenants, 1, "{generation}");
        svc.append(TENANT, extra[0].clone()).unwrap();
        assert!(svc.retract(TENANT, 0).unwrap());
        svc.append(TENANT, extra[1].clone()).unwrap();
        drop(svc);
        let snapshot = journal::load_snapshot(&tdir.join(journal::SNAPSHOT_FILE))
            .unwrap()
            .unwrap();
        assert_eq!(
            snapshot.version, 3,
            "{generation}: no v3 snapshot was taken"
        );
        let refs = snapshot.parts().unwrap().blocks.unwrap();
        assert_eq!(
            refs.iter().map(|r| r.id).collect::<Vec<_>>(),
            [2, 3, 4],
            "{generation}"
        );

        let svc = durable(&dir, 3);
        let report = svc.recover().unwrap();
        assert_eq!((report.tenants, report.snapshots_loaded), (1, 1));
        let ids = svc.with_tenant(TENANT, |t| t.block_ids()).unwrap();
        assert_eq!(ids, [2, 3, 4], "{generation}: blocks lost");
        let recovered = svc.recluster(TENANT).unwrap();
        assert_eq!(
            recovered.result.clustering, batch.clustering,
            "{generation}"
        );
        assert_eq!(recovered.result.cores, batch.cores, "{generation}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn recovery_rewrites_a_v1_journal_as_v2() {
    // The v1 journal-only dir: recovery rewrites its journal as the very
    // journal this tree writes for the same script, and a second
    // recovery, now from the v2 file, reaches the same model.
    let batch = batch_model();
    let (dir, tdir) = golden_data_dir("v1", "tenant_wal");
    let journal_path = tdir.join(journal::JOURNAL_FILE);
    let first = durable(&dir, 0);
    first.recover().unwrap();
    let migrated = std::fs::read(&journal_path).unwrap();
    assert!(migrated.starts_with(&journal::JOURNAL_MAGIC));
    assert!(
        migrated == std::fs::read(golden_dir().join("v2/tenant_wal/journal.bin")).unwrap(),
        "the rewritten journal differs from the v2 golden journal"
    );
    assert!(!tdir.join("journal.tmp").exists());
    let first_model = first.recluster(TENANT).unwrap();
    drop(first);

    let second = durable(&dir, 0);
    let report = second.recover().unwrap();
    assert_eq!((report.tenants, report.snapshots_loaded), (1, 0));
    let second_model = second.recluster(TENANT).unwrap();
    assert_eq!(
        second_model.result.clustering,
        first_model.result.clustering
    );
    assert_eq!(second_model.result.cores, first_model.result.cores);
    assert_eq!(second_model.result.clustering, batch.clustering);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
#[ignore = "rewrites tests/golden (never v1/ or v2/) — a format change"]
fn bless() {
    for (name, bytes) in artifacts() {
        let path = golden_dir().join(name);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, bytes).unwrap();
    }
}
