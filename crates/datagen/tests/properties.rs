//! Property tests for the synthetic workload generator.

use p3c_check::{cases, Gen};
use p3c_datagen::{generate, SyntheticSpec};

fn arb_spec(g: &mut Gen) -> SyntheticSpec {
    let k = g.range(1usize..5);
    let n = g.range(200usize..800);
    let noise = g.range(0.0..0.3);
    let d = g.range(4usize..12);
    let seed = g.range(0u64..1000);
    SyntheticSpec {
        n,
        d,
        num_clusters: k,
        noise_fraction: noise,
        min_cluster_dims: 1.min(d),
        max_cluster_dims: 4.min(d),
        seed,
        ..SyntheticSpec::default()
    }
}

#[test]
fn generated_data_is_consistent() {
    cases(32, |g| {
        let spec = arb_spec(g);
        let g = generate(&spec);
        // Shape.
        assert_eq!(g.dataset.len(), spec.n);
        assert_eq!(g.dataset.dim(), spec.d);
        assert_eq!(g.labels.len(), spec.n);
        assert_eq!(g.ground_truth.num_clusters(), spec.num_clusters);
        // All values normalized.
        assert!(g.dataset.is_normalized());
        // Labels partition the points consistently with the ground truth.
        let mut seen = vec![false; spec.n];
        for (ci, cluster) in g.ground_truth.clusters.iter().enumerate() {
            for &p in &cluster.points {
                assert_eq!(g.labels[p], ci as i64);
                assert!(!seen[p]);
                seen[p] = true;
            }
        }
        for &o in &g.ground_truth.outliers {
            assert_eq!(g.labels[o], -1);
            assert!(!seen[o]);
            seen[o] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // Noise count matches the fraction.
        let expected_noise = (spec.n as f64 * spec.noise_fraction).round() as usize;
        assert_eq!(g.ground_truth.outliers.len(), expected_noise);
    });
}

#[test]
fn members_lie_in_true_signatures() {
    cases(32, |g| {
        let spec = arb_spec(g);
        let g = generate(&spec);
        for cluster in &g.ground_truth.clusters {
            assert!(cluster.attributes.len() <= spec.max_cluster_dims);
            for &p in &cluster.points {
                assert!(cluster.covers(g.dataset.row(p)));
            }
            for iv in &cluster.intervals {
                assert!(iv.width() <= spec.max_width + 1e-9);
            }
        }
    });
}

#[test]
fn generation_is_deterministic() {
    cases(32, |g| {
        let spec = arb_spec(g);
        let a = generate(&spec);
        let b = generate(&spec);
        assert_eq!(a.dataset, b.dataset);
        assert_eq!(a.labels, b.labels);
    });
}
