//! The operational side of the reproduction: the same clustering pipeline
//! on a healthy cluster, a cluster with failing tasks, and a cluster with
//! stragglers rescued by speculative execution — identical results every
//! time, with the engine's retry/backup bookkeeping printed.
//!
//! ```text
//! cargo run --release --example fault_tolerance
//! ```

use p3c_core::config::P3cParams;
use p3c_core::mr::P3cPlusMrLight;
use p3c_datagen::{generate, SyntheticSpec};
use p3c_mapreduce::fault::StragglerPlan;
use p3c_mapreduce::{Engine, FaultPlan, MrConfig};
use std::time::Instant;

fn main() {
    let dataset = generate(&SyntheticSpec {
        n: 20_000,
        d: 20,
        num_clusters: 3,
        noise_fraction: 0.1,
        max_cluster_dims: 6,
        seed: 11,
        ..SyntheticSpec::default()
    })
    .dataset;

    // Model an 8-worker cluster explicitly: straggler mitigation needs
    // idle workers to launch backups (with `threads: 0` the engine sizes
    // the pool to the local cores, which may be a single one).
    let configs: [(&str, MrConfig); 3] = [
        (
            "healthy cluster",
            MrConfig {
                split_size: 1024,
                threads: 8,
                ..MrConfig::default()
            },
        ),
        (
            "15% task failure rate (retries)",
            MrConfig {
                split_size: 1024,
                threads: 8,
                fault: Some(FaultPlan::new(0.15, 7)),
                max_attempts: 20,
                ..MrConfig::default()
            },
        ),
        (
            "20% stragglers + speculative backups",
            MrConfig {
                split_size: 1024,
                threads: 8,
                straggler: Some(StragglerPlan::new(0.2, 800, 3)),
                speculative: true,
                ..MrConfig::default()
            },
        ),
    ];

    let mut reference = None;
    for (label, config) in configs {
        let engine = Engine::new(config);
        let start = Instant::now();
        let result = P3cPlusMrLight::new(&engine, P3cParams::default())
            .cluster(&dataset)
            .expect("pipeline run");
        let elapsed = start.elapsed();
        let metrics = engine.cluster_metrics();
        let failed: u64 = metrics.jobs().iter().map(|j| j.failed_attempts).sum();
        let spec_attempts: u64 = metrics.jobs().iter().map(|j| j.speculative_attempts).sum();
        let spec_wins: u64 = metrics.jobs().iter().map(|j| j.speculative_wins).sum();
        println!(
            "\n{label}:\n  {} clusters in {:.2}s over {} jobs \
             ({} failed attempts retried, {} backups launched, {} backups won)",
            result.clustering.num_clusters(),
            elapsed.as_secs_f64(),
            metrics.num_jobs(),
            failed,
            spec_attempts,
            spec_wins,
        );
        match &reference {
            None => reference = Some(result.clustering),
            Some(expected) => {
                assert_eq!(
                    &result.clustering, expected,
                    "fault handling must be invisible in the results"
                );
                println!("  results identical to the healthy run ✓");
            }
        }
    }
}
