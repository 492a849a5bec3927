//! End-to-end byte-identity of the multi-process distributed backend.
//!
//! DESIGN.md §12: the engine's determinism contract must survive the
//! real data plane — worker subprocesses holding the shuffle, reached
//! over the length-prefixed TCP protocol. These tests run all three MR
//! pipelines (P3C+-MR, MR-Light, BoW) under the in-process shuffle
//! service and under `ProcessBackend` with 1, 2, and 4 workers and
//! require results identical to the in-process `Local` backend (which `tests/end_to_end.rs` in turn anchors against
//! the serial implementations), including under an injected worker
//! kill mid-pipeline. The last three tests reach what only damaged bytes
//! reach: the worker's door check and the master's fetch-side re-hash,
//! with the harness worker flipping one byte of a marked partition as it
//! crosses the real socket.
//!
//! The worker subprocesses run the `p3c_worker_harness` binary of this
//! package — Cargo builds it before integration tests and exposes its
//! path as `CARGO_BIN_EXE_p3c_worker_harness`, so the suite needs no
//! separately built CLI.

use p3c_suite::bow::{Bow, BowConfig};
use p3c_suite::core::config::P3cParams;
use p3c_suite::core::mr::{P3cPlusMr, P3cPlusMrLight};
use p3c_suite::datagen::{generate, SyntheticSpec};
use p3c_suite::dataset::Clustering;
use p3c_suite::mapreduce::distrib::{
    Backend, BackendChoice, BackendError, LocalBackend, MapOutput, ProcessBackend, StageSpec,
};
use p3c_suite::mapreduce::{Engine, FaultPlan, MrConfig};
use std::sync::{Arc, Once};

/// Points every `ProcessBackend` in this test binary at the harness
/// worker (idempotent; `Once` keeps the env write single-threaded).
fn use_harness_worker() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        std::env::set_var("P3C_WORKER_BIN", env!("CARGO_BIN_EXE_p3c_worker_harness"));
    });
}

fn spec(n: usize, k: usize, noise: f64, seed: u64) -> SyntheticSpec {
    SyntheticSpec {
        n,
        d: 16,
        num_clusters: k,
        noise_fraction: noise,
        max_cluster_dims: 6,
        seed,
        ..SyntheticSpec::default()
    }
}

fn config(backend: BackendChoice) -> MrConfig {
    MrConfig {
        num_reducers: 4,
        split_size: 512,
        backend,
        ..MrConfig::default()
    }
}

fn engine_with(backend: BackendChoice) -> Engine {
    Engine::new(config(backend))
}

fn process(workers: usize) -> BackendChoice {
    BackendChoice::Process {
        workers,
        kill: None,
    }
}

/// Total of one per-job counter over every job the engine ran.
fn job_total(eng: &Engine, f: impl Fn(&p3c_suite::mapreduce::JobMetrics) -> u64) -> u64 {
    eng.cluster_metrics().jobs().iter().map(f).sum()
}

/// Runs `cluster` under the local backend, the in-process shuffle
/// service, and the process backend with 1, 2, and 4 workers; asserts
/// every other clustering equals the local one and that the shuffle
/// data plane was actually exercised.
fn assert_identical_across_worker_counts(pipeline: &str, cluster: impl Fn(&Engine) -> Clustering) {
    use_harness_worker();
    let baseline = cluster(&engine_with(BackendChoice::Local));
    let service = Engine::with_backend(
        config(BackendChoice::Local),
        Arc::new(LocalBackend::shuffle_service()),
    );
    let processes = [1usize, 2, 4].into_iter().map(|workers| {
        (
            format!("process backend with {workers} workers"),
            engine_with(process(workers)),
        )
    });
    for (backend, eng) in std::iter::once(("shuffle service".to_string(), service)).chain(processes)
    {
        let got = cluster(&eng);
        assert_eq!(got, baseline, "{pipeline}: {backend} diverged from local");
        assert!(
            job_total(&eng, |j| j.shuffle_fetches) > 0,
            "{pipeline}: no shuffle fetches — the distributed plane was bypassed"
        );
        assert!(
            job_total(&eng, |j| j.shuffle_bytes_moved) > 0,
            "{pipeline}: no bytes moved through the data plane"
        );
    }
}

#[test]
fn p3cplus_mr_is_byte_identical_across_process_worker_counts() {
    let data = generate(&spec(2000, 3, 0.05, 11));
    assert_identical_across_worker_counts("p3c+-mr", |eng| {
        P3cPlusMr::new(eng, P3cParams::default())
            .cluster(&data.dataset)
            .expect("pipeline runs")
            .clustering
    });
}

#[test]
fn mr_light_is_byte_identical_across_process_worker_counts() {
    let data = generate(&spec(2000, 3, 0.05, 11));
    assert_identical_across_worker_counts("mr-light", |eng| {
        P3cPlusMrLight::new(eng, P3cParams::default())
            .cluster(&data.dataset)
            .expect("pipeline runs")
            .clustering
    });
}

#[test]
fn bow_is_byte_identical_across_process_worker_counts() {
    let data = generate(&spec(2000, 3, 0.05, 11));
    let config = BowConfig {
        num_partitions: 4,
        seed: 3,
        ..BowConfig::default()
    };
    assert_identical_across_worker_counts("bow", |eng| {
        Bow::new(eng, config.clone())
            .cluster(&data.dataset)
            .expect("pipeline runs")
            .clustering
    });
}

/// A worker killed mid-stage (the `KILL` frame drops its partitions and
/// exits) must be restarted and its lost map outputs re-executed, with
/// the final clustering unchanged — the paper's fault-tolerance claim on
/// the real protocol.
#[test]
fn worker_kill_mid_pipeline_recovers_byte_identically() {
    use_harness_worker();
    let data = generate(&spec(2000, 3, 0.05, 12));
    let params = P3cParams::default();
    let baseline = P3cPlusMrLight::new(&engine_with(BackendChoice::Local), params.clone())
        .cluster(&data.dataset)
        .expect("baseline runs")
        .clustering;
    // Probability 1 ⇒ one injected kill per shuffle stage.
    let eng = engine_with(BackendChoice::Process {
        workers: 2,
        kill: Some(FaultPlan::new(1.0, 5)),
    });
    let got = P3cPlusMrLight::new(&eng, params)
        .cluster(&data.dataset)
        .expect("pipeline survives worker kills")
        .clustering;
    assert_eq!(got, baseline, "worker kills changed the clustering");
    assert!(
        job_total(&eng, |j| j.worker_restarts) >= 1,
        "kill plan fired on no stage"
    );
}

/// Deterministic loss scenario on the raw backend API: with two workers,
/// a kill injected while storing map 2 takes down worker 0 (= 2 % 2)
/// *after* map 0 stored there — map 0's partitions are gone, map 1's
/// (worker 1) survive, and re-executing map 0 restores service.
#[test]
fn killed_worker_loses_partitions_and_reexecution_restores_them() {
    use_harness_worker();
    let job = "kill-stage";
    // FaultPlan is a pure function of (seed, job, task, attempt); pick
    // the first seed whose first firing task in this job is map 2.
    let seed = (0u64..10_000)
        .find(|&s| {
            let p = FaultPlan::new(0.5, s);
            !p.should_fail(job, 0, 0) && !p.should_fail(job, 1, 0) && p.should_fail(job, 2, 0)
        })
        .expect("some seed fires first on map 2");
    let backend = ProcessBackend::new(2, Some(FaultPlan::new(0.5, seed)));
    let spec = StageSpec {
        shuffle_id: 9,
        job: job.to_string(),
        num_maps: 3,
        num_reducers: 1,
    };
    let outputs: Vec<MapOutput> = (0..3)
        .map(|m| MapOutput {
            map_id: m,
            partitions: vec![format!("map-{m}-bytes").into_bytes()],
        })
        .collect();
    backend
        .submit_stage(&spec, outputs.clone())
        .expect("stage submits across the injected kill");

    // Map 0 lived on the killed worker 0: lost. Map 1 (worker 1) and
    // map 2 (stored on the restarted worker 0) survive.
    assert!(
        matches!(
            backend.fetch_shuffle(&spec, 0, 0),
            Err(BackendError::Lost { map_id: 0 })
        ),
        "map 0 should be reported lost after its worker died"
    );
    assert_eq!(backend.fetch_shuffle(&spec, 1, 0).unwrap(), b"map-1-bytes");
    assert_eq!(backend.fetch_shuffle(&spec, 2, 0).unwrap(), b"map-2-bytes");

    // The engine's recovery path: re-execute the lost map, restore it.
    backend
        .restore_map(&spec, outputs[0].clone())
        .expect("restore succeeds");
    assert_eq!(backend.fetch_shuffle(&spec, 0, 0).unwrap(), b"map-0-bytes");

    let stats = backend.finish_stage(&spec);
    assert_eq!(stats.worker_restarts, 1, "exactly one injected restart");
    backend.shutdown();
}

/// One map's output on a one-worker backend whose second partition
/// starts with `marker` — the harness worker's cue to flip a byte of it
/// in transit (see `TAMPER_RULES` in `src/bin/p3c_worker_harness.rs`).
fn tamper_stage(marker: &str) -> (ProcessBackend, StageSpec, MapOutput) {
    use_harness_worker();
    let spec = StageSpec {
        shuffle_id: 4,
        job: "tamper-stage".to_string(),
        num_maps: 1,
        num_reducers: 2,
    };
    let output = MapOutput {
        map_id: 0,
        partitions: vec![
            b"an honest partition".to_vec(),
            format!("{marker} and then the partition's bytes").into_bytes(),
        ],
    };
    (ProcessBackend::new(1, None), spec, output)
}

/// The master's fetch-side integrity path on a real socket: the worker
/// sends its honest, door-verified checksum in front of bytes that no
/// longer match it, once. The master's own re-hash catches it, the retry
/// gets the stored partition intact, and the caller never sees the
/// difference except in the retry counter.
#[test]
fn a_partition_mangled_once_on_the_way_back_is_refetched_intact() {
    let (backend, spec, output) = tamper_stage("tamper:fetch-once");
    backend.submit_stage(&spec, vec![output.clone()]).unwrap();
    assert_eq!(
        backend.fetch_shuffle(&spec, 0, 1).unwrap(),
        output.partitions[1]
    );
    assert_eq!(
        backend.fetch_shuffle(&spec, 0, 0).unwrap(),
        output.partitions[0]
    );
    let stats = backend.finish_stage(&spec);
    assert_eq!(stats.retries, 1, "one mismatch, one backoff retry");
    assert_eq!(stats.fetches, 2);
    assert_eq!(stats.worker_restarts, 0, "corruption is not a dead worker");
    backend.shutdown();
}

/// ...and when every attempt comes back mangled, the retries run out and
/// the error names the partition instead of handing over wrong bytes.
#[test]
fn a_partition_that_never_verifies_escalates_to_corrupt() {
    let (backend, spec, output) = tamper_stage("tamper:fetch-always");
    backend.submit_stage(&spec, vec![output.clone()]).unwrap();
    assert_eq!(
        backend.fetch_shuffle(&spec, 0, 1),
        Err(BackendError::Corrupt {
            map_id: 0,
            reduce_id: 1
        })
    );
    // The neighbour on the same worker is untouched.
    assert_eq!(
        backend.fetch_shuffle(&spec, 0, 0).unwrap(),
        output.partitions[0]
    );
    let stats = backend.finish_stage(&spec);
    assert_eq!(stats.retries, 2, "three attempts, two of them retries");
    assert_eq!(stats.fetches, 1);
    backend.shutdown();
}

/// The door check: a STORE whose bytes were mangled on the way in is
/// refused by the worker while the master still holds the partition, so
/// the master sends it once more — a retry, not a protocol failure — and
/// only a second refusal is corruption.
#[test]
fn a_store_mangled_in_transit_is_resent_once_then_escalates() {
    let (backend, spec, output) = tamper_stage("tamper:store-once");
    backend.submit_stage(&spec, vec![output.clone()]).unwrap();
    for (reduce_id, partition) in output.partitions.iter().enumerate() {
        assert_eq!(
            &backend.fetch_shuffle(&spec, 0, reduce_id).unwrap(),
            partition
        );
    }
    let stats = backend.finish_stage(&spec);
    assert_eq!(stats.retries, 1, "the rejected STORE was resent once");
    assert_eq!(stats.worker_restarts, 0);
    backend.shutdown();

    let (backend, spec, output) = tamper_stage("tamper:store-always");
    assert_eq!(
        backend.submit_stage(&spec, vec![output]),
        Err(BackendError::Corrupt {
            map_id: 0,
            reduce_id: 1
        })
    );
    assert_eq!(backend.finish_stage(&spec).retries, 1);
    backend.shutdown();
}
