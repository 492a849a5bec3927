//! Quickstart: generate a small projected-cluster dataset, run P3C+, and
//! inspect the result.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use p3c_core::config::P3cParams;
use p3c_core::p3cplus::P3cPlus;
use p3c_datagen::{generate, SyntheticSpec};
use p3c_eval::e4sc;

fn main() {
    // 5,000 points in 20 dimensions, three hidden projected clusters,
    // 10% uniform noise. Everything is seeded — rerunning reproduces
    // the same data and the same clustering.
    let spec = SyntheticSpec {
        n: 5_000,
        d: 20,
        num_clusters: 3,
        noise_fraction: 0.10,
        max_cluster_dims: 6,
        seed: 2,
        ..SyntheticSpec::default()
    };
    let data = generate(&spec);
    println!(
        "generated {} points × {} dims, {} hidden clusters, {} noise points",
        data.dataset.len(),
        data.dataset.dim(),
        data.ground_truth.num_clusters(),
        data.ground_truth.outliers.len()
    );

    // P3C+ with the paper's improved model: Freedman–Diaconis bins,
    // Poisson + effect-size support test, redundancy filter, MVB outlier
    // detection, AI proving.
    let result = P3cPlus::new(P3cParams::default()).cluster(&data.dataset);

    println!(
        "\nfound {} projected clusters:",
        result.clustering.num_clusters()
    );
    for (i, cluster) in result.clustering.clusters.iter().enumerate() {
        let attrs: Vec<String> = cluster.attributes.iter().map(|a| format!("a{a}")).collect();
        println!(
            "  cluster {i}: {} points, subspace {{{}}}",
            cluster.size(),
            attrs.join(", ")
        );
        for iv in &cluster.intervals {
            println!("    a{} ∈ [{:.3}, {:.3}]", iv.attr, iv.lo, iv.hi);
        }
    }
    println!("outliers: {}", result.clustering.outliers.len());

    let quality = e4sc(&result.clustering, &data.ground_truth);
    println!("\nE4SC against ground truth: {quality:.3}");
    println!(
        "pipeline stats: {} bins, {} relevant intervals, {} cores, {} EM iterations",
        result.stats.bins,
        result.stats.relevant_intervals,
        result.stats.cores,
        result.stats.em_iterations
    );
}
