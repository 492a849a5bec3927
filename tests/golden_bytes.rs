//! Golden bytes for every on-disk and on-wire format (DESIGN.md "Byte
//! formats"): the files under `tests/golden/` were written once and
//! every later tree must reproduce them byte for byte — and must still
//! recover a data directory holding them.
//!
//! `cargo test --test golden_bytes -- --ignored bless` rewrites the
//! files; doing so is a format change and needs a version bump.

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
/// records), and a snapshot with a journal tail behind it.
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

/// Every golden artifact: file name under `tests/golden/` and the bytes
/// this tree produces for it.
fn artifacts() -> Vec<(String, Vec<u8>)> {
    let mut out = vec![
        ("journal_records.bin".to_string(), journal_file_bytes()),
        ("snapshot_file.bin".to_string(), snapshot_file_bytes()),
        ("state_blob.bin".to_string(), engine_state_blob()),
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
        let tdir = journal::tenant_dir(&dir, TENANT);
        for file in [journal::JOURNAL_FILE, journal::SNAPSHOT_FILE] {
            if let Ok(bytes) = std::fs::read(tdir.join(file)) {
                out.push((format!("{name}/{file}"), bytes));
            }
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

/// The in-flight checksum is in no file — a partition's sum lives in the
/// tracker and two frames for the length of one stage — but master and
/// worker compute it in separate processes, so its definition is pinned
/// like a format: at the empty input, one byte, both sides of the
/// 32-byte lane block, and a partition-sized input.
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
    let path = dir.join(journal::JOURNAL_FILE);
    std::fs::write(&path, read("journal_records.bin")).unwrap();
    let (records, valid) = journal::read_journal(&path).unwrap();
    assert_eq!(valid as usize, read("journal_records.bin").len());
    let got: Vec<(u64, u8, &[u8])> = records
        .iter()
        .map(|r| (r.seq, r.op, r.payload.as_slice()))
        .collect();
    assert_eq!(
        got,
        vec![(5, 2, b"golden payload".as_slice()), (6, 3, b"".as_slice())]
    );

    let path = dir.join(journal::SNAPSHOT_FILE);
    std::fs::write(&path, read("snapshot_file.bin")).unwrap();
    assert_eq!(
        journal::read_snapshot(&path).unwrap(),
        Some((41, b"golden state".to_vec()))
    );
    std::fs::remove_dir_all(&dir).unwrap();

    let block = IncrementalLight::decode_block(&read("block_record.bin")).unwrap();
    let bits = |b: &RowBlock| b.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!((block.len(), block.dim()), (2, 3));
    assert_eq!(bits(&block), bits(&small_block()));

    let created = IncrementalLight::decode_create(TENANT, &read("create_record.bin")).unwrap();
    assert_eq!(created.encode_create(), read("create_record.bin"));
    assert_eq!(created.params().alpha_poisson, params().alpha_poisson);

    // The state blob restores to an engine that re-encodes to the same
    // bytes and carries on identically.
    let store = DatasetStore::new();
    let blob = read("state_blob.bin");
    let engine = IncrementalLight::from_snapshot_bytes(TENANT, &blob, &store).unwrap();
    assert_eq!(engine.snapshot_bytes(&store).unwrap(), blob);
}

#[test]
fn golden_data_dirs_recover_to_the_batch_model() {
    // Data directories written by an earlier binary. Recovery must
    // replay each to the model a from-scratch fit over the script's
    // cumulative rows gives.
    let live_dir = tmpdir("live");
    let rows = run_service_script(&live_dir, 0);
    std::fs::remove_dir_all(&live_dir).unwrap();
    let batch = P3cPlusLight::new(params()).cluster(&Dataset::new(rows.len() / D, D, rows));
    assert!(batch.clustering.num_clusters() >= 1);

    for (name, snapshot_every) in DATA_DIRS {
        let dir = tmpdir("recover");
        let tdir = journal::tenant_dir(&dir, TENANT);
        std::fs::create_dir_all(&tdir).unwrap();
        for file in [journal::JOURNAL_FILE, journal::SNAPSHOT_FILE] {
            let golden = golden_dir().join(name).join(file);
            if golden.exists() {
                std::fs::copy(golden, tdir.join(file)).unwrap();
            }
        }
        let svc = durable(&dir, snapshot_every);
        let report = svc.recover().unwrap();
        assert_eq!(report.tenants, 1, "{name}");
        assert_eq!(
            report.snapshots_loaded,
            snapshot_every.min(1) as usize,
            "{name}"
        );
        assert!(report.records_replayed >= 2, "{name}: {report:?}");
        let recovered = svc.recluster(TENANT).unwrap();
        assert_eq!(recovered.result.clustering, batch.clustering, "{name}");
        assert_eq!(recovered.result.cores, batch.cores, "{name}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
#[ignore = "rewrites tests/golden — a format change"]
fn bless() {
    for (name, bytes) in artifacts() {
        let path = golden_dir().join(name);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, bytes).unwrap();
    }
}
