//! Integration tests of the MapReduce substrate under realistic use:
//! metrics plausibility and the one-definition / two-executors ledger
//! contract.

use p3c_suite::bow::{Bow, BowConfig};
use p3c_suite::core::config::P3cParams;
use p3c_suite::core::mr::{P3cPlusMr, P3cPlusMrLight};
use p3c_suite::datagen::{generate, SyntheticSpec};
use p3c_suite::dataset::{Clustering, Dataset};
use p3c_suite::mapreduce::{Engine, MrConfig, SchedulerChoice};

fn data() -> p3c_suite::datagen::GeneratedData {
    generate(&SyntheticSpec {
        n: 2500,
        d: 12,
        num_clusters: 3,
        noise_fraction: 0.1,
        max_cluster_dims: 5,
        seed: 11,
        ..SyntheticSpec::default()
    })
}

#[test]
fn job_ledger_reflects_pipeline_structure() {
    let d = data();
    let engine = Engine::new(MrConfig {
        num_reducers: 4,
        split_size: 512,
        ..MrConfig::default()
    });
    P3cPlusMr::new(&engine, P3cParams::default())
        .cluster(&d.dataset)
        .unwrap();
    let metrics = engine.cluster_metrics();
    let names: Vec<&str> = metrics.jobs().iter().map(|j| j.job_name.as_str()).collect();
    // Structural expectations from the paper's Section 5.
    assert_eq!(names[0], "p3c-histogram");
    assert!(names.iter().any(|n| n.starts_with("p3c-prove-candidates")));
    assert!(names.iter().any(|n| n.starts_with("p3c-em-init")));
    assert!(names.iter().any(|n| n.starts_with("p3c-em-step")));
    assert!(names
        .iter()
        .any(|n| n.starts_with("p3c-mvb") || n.starts_with("p3c-od")));
    assert_one_inspection_pass(&metrics, d.dataset.len());
    // Every job consumed data or was an explicit bookkeeping marker.
    for job in metrics.jobs() {
        assert!(
            job.map_input_records > 0
                || job.job_name.contains("covariances")
                || job.job_name.contains("candidate-generation"),
            "job {} read nothing",
            job.job_name
        );
    }
    // Data-proportional jobs read the whole dataset.
    let hist = &metrics.jobs()[0];
    assert_eq!(hist.map_input_records, 2500);

    let light_engine = Engine::new(MrConfig {
        num_reducers: 4,
        split_size: 512,
        ..MrConfig::default()
    });
    P3cPlusMrLight::new(&light_engine, P3cParams::default())
        .cluster(&d.dataset)
        .unwrap();
    assert_one_inspection_pass(&light_engine.cluster_metrics(), d.dataset.len());
}

/// Sections 5.6 and 5.7 in one pass: a single attribute-inspection job
/// reads every row, and no tightening job runs after it.
fn assert_one_inspection_pass(metrics: &p3c_suite::mapreduce::ClusterMetrics, n: usize) {
    let inspection: Vec<u64> = metrics
        .jobs()
        .iter()
        .filter(|j| j.job_name == "p3c-attribute-inspection")
        .map(|j| j.map_input_records)
        .collect();
    assert_eq!(inspection, [n as u64], "one inspection job over every row");
    let tightening: Vec<&str> = metrics
        .jobs()
        .iter()
        .map(|j| j.job_name.as_str())
        .filter(|name| name.contains("tighten"))
        .collect();
    assert!(tightening.is_empty(), "tightening jobs ran: {tightening:?}");
}

#[test]
fn light_pipeline_moves_less_data_than_full() {
    let d = data();
    let eng_full = Engine::new(MrConfig {
        split_size: 512,
        ..MrConfig::default()
    });
    let eng_light = Engine::new(MrConfig {
        split_size: 512,
        ..MrConfig::default()
    });
    P3cPlusMr::new(&eng_full, P3cParams::default())
        .cluster(&d.dataset)
        .unwrap();
    P3cPlusMrLight::new(&eng_light, P3cParams::default())
        .cluster(&d.dataset)
        .unwrap();
    let full = eng_full.cluster_metrics();
    let light = eng_light.cluster_metrics();
    assert!(light.num_jobs() < full.num_jobs());
    assert!(
        light.total_map_input_records() < full.total_map_input_records(),
        "light should scan the data fewer times ({} vs {})",
        light.total_map_input_records(),
        full.total_map_input_records()
    );
}

/// "One definition": a pipeline is one chain of steps, so both
/// scheduler choices must run the same jobs over the same inputs and
/// return the same clustering. `Serial` leaves no DAG rows in the
/// ledger, `Dag` records its chains, and both run the same order: the
/// two ledgers hold the same sequence of (job name, records read).
fn assert_one_definition(
    pipeline: &str,
    cluster: impl Fn(&Engine, &Dataset, SchedulerChoice) -> Clustering,
) {
    let d = data();
    let run = |scheduler| {
        let engine = Engine::new(MrConfig {
            num_reducers: 4,
            split_size: 512,
            ..MrConfig::default()
        });
        let clustering = cluster(&engine, &d.dataset, scheduler);
        (clustering, engine.cluster_metrics())
    };
    let (serial, serial_ledger) = run(SchedulerChoice::Serial);
    let (dag, dag_ledger) = run(SchedulerChoice::Dag);
    assert_eq!(serial, dag, "{pipeline}: executors disagree");
    assert!(
        serial_ledger.dag_runs().is_empty(),
        "{pipeline}: a Serial run recorded DAG metrics"
    );
    assert!(
        !dag_ledger.dag_runs().is_empty(),
        "{pipeline}: a Dag run recorded no DAG metrics"
    );
    let jobs = |ledger: &p3c_suite::mapreduce::ClusterMetrics| -> Vec<(String, u64)> {
        ledger
            .jobs()
            .iter()
            .map(|j| (j.job_name.clone(), j.map_input_records))
            .collect()
    };
    assert!(!serial_ledger.jobs().is_empty(), "{pipeline}: no jobs ran");
    assert_eq!(
        jobs(&serial_ledger),
        jobs(&dag_ledger),
        "{pipeline}: the executors ran different jobs"
    );
}

#[test]
fn p3cplus_mr_is_one_definition_under_both_executors() {
    assert_one_definition("P3C+-MR", |engine, data, scheduler| {
        P3cPlusMr::new(engine, P3cParams::default())
            .cluster_with(data, scheduler)
            .unwrap()
            .clustering
    });
}

#[test]
fn mr_light_is_one_definition_under_both_executors() {
    assert_one_definition("P3C+-MR-Light", |engine, data, scheduler| {
        P3cPlusMrLight::new(engine, P3cParams::default())
            .cluster_with(data, scheduler)
            .unwrap()
            .clustering
    });
}

#[test]
fn bow_is_one_definition_under_both_executors() {
    assert_one_definition("BoW", |engine, data, scheduler| {
        let config = BowConfig {
            sample_size: 1000,
            ..BowConfig::default()
        };
        Bow::new(engine, config)
            .cluster_with(data, scheduler)
            .unwrap()
            .clustering
    });
}
