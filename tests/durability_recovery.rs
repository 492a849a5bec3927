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
use p3c_suite::mapreduce::{ClusterService, DatasetStore};
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
