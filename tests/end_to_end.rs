//! Cross-crate integration tests: the full algorithm stack from data
//! generation through clustering to quality measurement.

use p3c_suite::core::config::{BinRuleChoice, OutlierMethod, P3cParams};
use p3c_suite::core::em::{em_phase, EmFit, PoolRunner};
use p3c_suite::core::incremental::{IncrementalLight, ReclusterPath};
use p3c_suite::core::mr::em::JobRunner;
use p3c_suite::core::mr::{P3cPlusMr, P3cPlusMrLight};
use p3c_suite::core::p3c::P3c;
use p3c_suite::core::p3cplus::{P3cPlus, P3cPlusLight};
use p3c_suite::datagen::{generate, SyntheticSpec};
use p3c_suite::eval::{ce, e4sc, f1_object, rnia};
use p3c_suite::mapreduce::{DatasetStore, Engine, MrConfig};

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

fn engine() -> Engine {
    Engine::new(MrConfig {
        num_reducers: 4,
        split_size: 1024,
        ..MrConfig::default()
    })
}

#[test]
fn all_variants_find_easy_clusters_with_good_quality() {
    let data = generate(&spec(4000, 3, 0.05, 1));
    let params = P3cParams::default();

    let serial_full = P3cPlus::new(params.clone()).cluster(&data.dataset);
    let serial_light = P3cPlusLight::new(params.clone()).cluster(&data.dataset);
    let eng = engine();
    let mr_full = P3cPlusMr::new(&eng, params.clone())
        .cluster(&data.dataset)
        .unwrap();
    let mr_light = P3cPlusMrLight::new(&eng, params)
        .cluster(&data.dataset)
        .unwrap();

    for (name, result) in [
        ("serial full", &serial_full),
        ("serial light", &serial_light),
        ("mr full", &mr_full),
        ("mr light", &mr_light),
    ] {
        let q = e4sc(&result.clustering, &data.ground_truth);
        assert!(q > 0.6, "{name}: E4SC = {q}");
        assert_eq!(result.clustering.num_clusters(), 3, "{name}");
    }
}

/// The data `p3c cluster --synthetic` and the fig6/fig7 experiments
/// draw: 50 dimensions, clusters of up to 10.
fn paper_spec(n: usize, k: usize, noise: f64, seed: u64) -> SyntheticSpec {
    SyntheticSpec {
        d: 50,
        max_cluster_dims: 10,
        ..spec(n, k, noise, seed)
    }
}

/// P3C+-MR-Light must be P3C+-Light computed differently: same cores,
/// same proven signatures per level, nothing truncated, same clusters.
fn assert_mr_light_equals_serial_light(spec: &SyntheticSpec) {
    let what = format!(
        "n = {}, d = {}, k = {}, noise = {}, seed = {}",
        spec.n, spec.d, spec.num_clusters, spec.noise_fraction, spec.seed
    );
    let data = generate(spec);
    let params = P3cParams::default();
    let serial = P3cPlusLight::new(params.clone()).cluster(&data.dataset);
    let eng = engine();
    let mr = P3cPlusMrLight::new(&eng, params)
        .cluster(&data.dataset)
        .unwrap();
    assert_eq!(mr.cores, serial.cores, "{what}");
    // The MR path may count levels past the last one with a proven
    // signature; the serial path never generates them.
    let proven_per_level = |result: &p3c_suite::core::p3cplus::P3cResult| {
        let mut proven = result.stats.core_gen.proven_per_level.clone();
        while proven.last() == Some(&0) {
            proven.pop();
        }
        proven
    };
    assert_eq!(proven_per_level(&mr), proven_per_level(&serial), "{what}");
    assert_eq!(mr.stats.core_gen.truncated_levels, 0, "{what}");
    assert_eq!(serial.stats.core_gen.truncated_levels, 0, "{what}");
    assert_eq!(mr.clustering, serial.clustering, "{what}");
}

#[test]
fn mr_and_serial_produce_identical_cluster_cores() {
    assert_mr_light_equals_serial_light(&spec(3000, 3, 0.1, 2));
    // A reduced Figure 6 grid (its first draw per cell, smallest size).
    for k in [3usize, 5, 7] {
        for noise in [0.0, 0.1, 0.2] {
            assert_mr_light_equals_serial_light(&paper_spec(10_000, k, noise, 107 + k as u64));
        }
    }
}

#[test]
fn mr_light_equals_serial_light_where_collection_used_to_truncate() {
    // The Figure 7 shape (50 dimensions, 5 clusters, 10% noise) at a
    // tenth of its size. Collecting levels unproven enumerated C(30, p)
    // here: level 5 passed the cap of 100 000, was cut, and MR-Light
    // returned 10 clusters for serial Light's 5.
    assert_mr_light_equals_serial_light(&paper_spec(20_000, 5, 0.1, 7));
}

/// The reduced Figure 6 grid above, then the three sets on which the MR
/// model used to follow `split_size`: 20 000×50 k 5 seed 7, 20 000×50
/// k 3 noise 0.2 seed 1, 40 000×30 k 5 seed 3.
fn full_pipeline_sets() -> Vec<SyntheticSpec> {
    let mut sets = Vec::new();
    for k in [3usize, 5, 7] {
        for noise in [0.0, 0.1, 0.2] {
            sets.push(paper_spec(10_000, k, noise, 107 + k as u64));
        }
    }
    sets.push(paper_spec(20_000, 5, 0.1, 7));
    sets.push(paper_spec(20_000, 3, 0.2, 1));
    sets.push(SyntheticSpec {
        d: 30,
        ..paper_spec(40_000, 5, 0.1, 3)
    });
    sets
}

/// Iterations, log-likelihood history and every component's weight,
/// mean and covariance, as bit patterns.
fn fit_bits(fit: &EmFit) -> (usize, Vec<u64>, Vec<Vec<u64>>) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    let components = fit
        .model
        .components
        .iter()
        .map(|c| {
            let d = c.mean.len();
            let mut all = vec![c.weight.to_bits()];
            all.extend(bits(&c.mean));
            all.extend((0..d * d).map(|e| c.cov[(e / d, e % d)].to_bits()));
            all
        })
        .collect();
    (fit.iterations, bits(&fit.loglik_history), components)
}

#[test]
fn mr_em_model_equals_serial_at_block_aligned_split_sizes() {
    let naive = P3cParams {
        outlier: OutlierMethod::Naive,
        ..P3cParams::default()
    };
    // MVB's split centers and radii and the exact-IQR job's split
    // quartiles are medians of per-split estimates (the paper's MR
    // design), so these two follow `split_size` whatever the EM tree:
    // they equal serial at one split.
    let split_median_params = [
        P3cParams::default(),
        P3cParams {
            bin_rule: BinRuleChoice::FreedmanDiaconisIqr,
            ..naive.clone()
        },
    ];
    // MR MCD is another estimator even at one split: two concentration
    // steps whose threshold is the median distance, against serial's
    // four FastMCD C-steps keeping the ⌈n/2⌉ nearest points. Its cores
    // and EM agree; its outliers need not.
    let mcd = P3cParams {
        outlier: OutlierMethod::Mcd,
        ..P3cParams::default()
    };
    for spec in full_pipeline_sets() {
        let what = format!(
            "n = {}, d = {}, k = {}, noise = {}, seed = {}",
            spec.n, spec.d, spec.num_clusters, spec.noise_fraction, spec.seed
        );
        let data = generate(&spec);
        let rows = data.dataset.row_refs();
        let serial = P3cPlus::new(naive.clone()).cluster(&data.dataset);
        let Ok(serial_fit) = em_phase(&mut PoolRunner::new(&rows, 1), &serial.cores, &naive);
        // Splits of whole 512-row EM blocks, the default among them, and
        // one split.
        for split_size in [512, 4096, 8192, spec.n] {
            let engine = Engine::new(MrConfig {
                split_size,
                ..MrConfig::default()
            });
            let mr = P3cPlusMr::new(&engine, naive.clone())
                .cluster(&data.dataset)
                .unwrap();
            assert_eq!(mr.cores, serial.cores, "{what}, split {split_size}");
            assert_eq!(
                mr.clustering, serial.clustering,
                "{what}, split {split_size}"
            );
            // The EM phase both pipelines ran on these cores.
            let mr_fit = em_phase(&mut JobRunner::new(&engine, &rows), &mr.cores, &naive).unwrap();
            assert_eq!(
                fit_bits(&mr_fit),
                fit_bits(&serial_fit),
                "{what}, split {split_size}"
            );
        }
        let one_split = |params: &P3cParams| {
            let engine = Engine::new(MrConfig {
                split_size: spec.n,
                ..MrConfig::default()
            });
            let mr = P3cPlusMr::new(&engine, params.clone())
                .cluster(&data.dataset)
                .unwrap();
            (P3cPlus::new(params.clone()).cluster(&data.dataset), mr)
        };
        for params in &split_median_params {
            let (serial, mr) = one_split(params);
            assert_eq!(mr.cores, serial.cores, "{what}, {params:?}");
            assert_eq!(mr.clustering, serial.clustering, "{what}, {params:?}");
        }
        let (serial, mr) = one_split(&mcd);
        assert_eq!(mr.cores, serial.cores, "{what}, MCD");
        assert_eq!(
            mr.stats.em_iterations, serial.stats.em_iterations,
            "{what}, MCD"
        );
    }
}

#[test]
fn light_pipelines_agree_where_inspection_adds_attributes() {
    // On this draw attribute inspection gives several Light clusters an
    // attribute outside their core's signature, so the output reads the
    // unique members' bounds, not only the support sets'.
    let data = generate(&SyntheticSpec {
        n: 2500,
        d: 16,
        num_clusters: 6,
        seed: 20,
        ..SyntheticSpec::default()
    });
    let params = P3cParams::default();
    let serial = P3cPlusLight::new(params.clone()).cluster(&data.dataset);
    let widened = serial
        .clustering
        .clusters
        .iter()
        .zip(&serial.cores)
        .filter(|(cluster, core)| cluster.attributes != core.signature.attributes())
        .count();
    assert!(widened > 0, "no cluster gained an attribute by inspection");

    let mr = P3cPlusMrLight::new(&engine(), params.clone())
        .cluster(&data.dataset)
        .unwrap();
    assert_eq!(mr.clustering, serial.clustering, "MR-Light");

    // The service, once through the full path over every row, and once
    // through the fast path: 2200 rows, then the last 300, both inside
    // the default rule's 14-bin plateau (2198..=2744 rows).
    let store = DatasetStore::new();
    let rows = |range: std::ops::Range<usize>| data.dataset.subset(&range.collect::<Vec<_>>());
    let mut whole = IncrementalLight::new("whole", params.clone());
    whole.append(&store, rows(0..2500)).unwrap();
    let full = whole.recluster(&store).unwrap();
    assert_eq!(full.path, ReclusterPath::Full);
    assert_eq!(full.result.clustering, serial.clustering, "full recluster");
    let mut stream = IncrementalLight::new("stream", params);
    stream.append(&store, rows(0..2200)).unwrap();
    stream.recluster(&store).unwrap();
    stream.append(&store, rows(2200..2500)).unwrap();
    let fast = stream.recluster(&store).unwrap();
    assert_eq!(fast.path, ReclusterPath::Fast);
    assert_eq!(fast.result.clustering, serial.clustering, "fast recluster");
}

#[test]
fn quality_measures_agree_on_orderings() {
    // A good clustering must dominate a bad one under every measure.
    let data = generate(&spec(3000, 3, 0.1, 3));
    let good = P3cPlusLight::new(P3cParams::default())
        .cluster(&data.dataset)
        .clustering;
    // "Bad": original P3C with a loose threshold and no filtering.
    let bad = P3c::new(0.05).cluster(&data.dataset).clustering;
    type Measure = fn(&p3c_suite::dataset::Clustering, &p3c_suite::dataset::Clustering) -> f64;
    let measures: [(&str, Measure); 3] = [("e4sc", e4sc), ("rnia", rnia), ("ce", ce)];
    for (name, m) in measures {
        let q_good = m(&good, &data.ground_truth);
        let q_bad = m(&bad, &data.ground_truth);
        assert!(
            q_good >= q_bad - 0.05,
            "{name}: good {q_good} vs bad {q_bad}"
        );
    }
    let _ = f1_object(&good, &data.ground_truth);
}

#[test]
fn p3cplus_beats_original_p3c_on_noisy_overlapping_data() {
    let data = generate(&spec(6000, 5, 0.2, 4));
    let plus = P3cPlusLight::new(P3cParams::default()).cluster(&data.dataset);
    let original = P3c::new(1e-4).cluster(&data.dataset);
    let q_plus = e4sc(&plus.clustering, &data.ground_truth);
    let q_orig = e4sc(&original.clustering, &data.ground_truth);
    assert!(
        q_plus > q_orig,
        "P3C+ {q_plus} should beat P3C {q_orig} (cores: {} vs {})",
        plus.stats.cores,
        original.stats.cores
    );
}

#[test]
fn mcd_extension_runs_end_to_end_serial_and_mr() {
    let data = generate(&spec(2500, 3, 0.1, 8));
    let params = P3cParams {
        outlier: OutlierMethod::Mcd,
        ..P3cParams::default()
    };
    let serial = P3cPlus::new(params.clone()).cluster(&data.dataset);
    assert_eq!(serial.clustering.num_clusters(), 3);
    assert!(e4sc(&serial.clustering, &data.ground_truth) > 0.6);
    let eng = engine();
    let mr = P3cPlusMr::new(&eng, params).cluster(&data.dataset).unwrap();
    assert_eq!(mr.clustering.num_clusters(), 3);
    // MCD charges its concentration jobs to the ledger.
    let mcd_jobs = eng
        .cluster_metrics()
        .jobs()
        .iter()
        .filter(|j| j.job_name.starts_with("p3c-mcd") || j.job_name == "p3c-od-mcd")
        .count();
    assert_eq!(mcd_jobs, 5, "2 steps × 2 jobs + OD job");
}

#[test]
fn outlier_points_do_not_appear_in_clusters() {
    let data = generate(&spec(3000, 3, 0.1, 5));
    let result = P3cPlus::new(P3cParams {
        outlier: OutlierMethod::Mvb,
        ..P3cParams::default()
    })
    .cluster(&data.dataset);
    let outliers: std::collections::BTreeSet<usize> =
        result.clustering.outliers.iter().copied().collect();
    for cluster in &result.clustering.clusters {
        for &p in &cluster.points {
            assert!(!outliers.contains(&p), "point {p} both member and outlier");
        }
    }
}

#[test]
fn results_are_deterministic_across_runs_and_thread_counts() {
    let data = generate(&spec(2500, 3, 0.1, 6));
    let run = |threads: usize| {
        let eng = Engine::new(MrConfig {
            num_reducers: 4,
            split_size: 512,
            threads,
            ..MrConfig::default()
        });
        P3cPlusMrLight::new(&eng, P3cParams::default())
            .cluster(&data.dataset)
            .unwrap()
            .clustering
    };
    let a = run(1);
    let b = run(8);
    assert_eq!(a, b, "thread count changed the clustering");
}

#[test]
fn normalization_roundtrip_preserves_clustering() {
    // Cluster normalized data, then map interval bounds back to original
    // coordinates through the NormalizationMap.
    let data = generate(&spec(2000, 2, 0.05, 7));
    // Scale the dataset away from [0,1].
    let scaled_rows: Vec<Vec<f64>> = data
        .dataset
        .rows()
        .map(|r| r.iter().map(|&v| v * 250.0 - 100.0).collect())
        .collect();
    let scaled = p3c_suite::dataset::Dataset::from_rows(scaled_rows);
    assert!(!scaled.is_normalized());
    let (normalized, map) = scaled.normalize();
    assert!(normalized.is_normalized());
    let result = P3cPlusLight::new(P3cParams::default()).cluster(&normalized);
    assert!(!result.clustering.clusters.is_empty());
    for cluster in &result.clustering.clusters {
        for iv in &cluster.intervals {
            let lo = map.denormalize(iv.attr, iv.lo);
            let hi = map.denormalize(iv.attr, iv.hi);
            assert!(lo <= hi);
            assert!(
                (-100.0..=150.0).contains(&lo),
                "lo {lo} out of original range"
            );
        }
    }
}
