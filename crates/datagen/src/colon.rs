//! A colon-cancer-like high-dimensional, tiny-sample dataset.
//!
//! The paper's only real-world experiment (Section 7.6) runs P3C and P3C+
//! on the UCI 'colon cancer' microarray set: 62 samples × 2000 genes, with
//! a tumor/normal annotation, and compares clustering *accuracy* against
//! the labels (67% for P3C vs 71% for P3C+). The original data is a
//! licensed download, so this module synthesizes a matrix with the same
//! shape and the same statistical character: a small block of
//! discriminative genes whose expression separates the two classes, buried
//! in a large number of non-informative noise genes.

use crate::rng::Rng;
use p3c_dataset::Dataset;

/// Specification for the colon-like generator.
#[derive(Debug, Clone)]
pub struct ColonSpec {
    /// Samples in class 0 ("tumor"; real set: 40).
    pub class0: usize,
    /// Samples in class 1 ("normal"; real set: 22).
    pub class1: usize,
    /// Total genes/attributes (real set: 2000).
    pub genes: usize,
    /// Number of genes that actually separate the classes.
    pub discriminative: usize,
    /// Class separation in normalized expression units.
    pub separation: f64,
    /// Within-class standard deviation on discriminative genes.
    pub sigma: f64,
    pub seed: u64,
}

impl Default for ColonSpec {
    fn default() -> Self {
        Self {
            class0: 40,
            class1: 22,
            genes: 2000,
            // Few enough markers that the 2^markers signature lattice a
            // perfectly correlated gene block induces stays tractable for
            // the Apriori search (the real microarray data is far less
            // correlated than a synthetic block).
            discriminative: 12,
            separation: 0.4,
            sigma: 0.06,
            seed: 0,
        }
    }
}

/// A dataset with per-point class labels.
#[derive(Debug, Clone)]
pub struct LabeledData {
    pub dataset: Dataset,
    /// Class of each point (0 or 1).
    pub labels: Vec<usize>,
    /// The genes that actually discriminate (ground truth for inspection).
    pub discriminative_genes: Vec<usize>,
}

/// Generates the colon-like dataset.
pub fn colon_like(spec: &ColonSpec) -> LabeledData {
    assert!(spec.class0 + spec.class1 >= 2, "need at least two samples");
    assert!(spec.discriminative <= spec.genes, "more markers than genes");
    assert!(spec.separation > 0.0 && spec.sigma > 0.0);
    let mut rng = Rng::seed_from_u64(spec.seed);
    let n = spec.class0 + spec.class1;

    // Choose which genes discriminate.
    let mut all: Vec<usize> = (0..spec.genes).collect();
    rng.shuffle(&mut all);
    let mut markers: Vec<usize> = all.into_iter().take(spec.discriminative).collect();
    markers.sort_unstable();

    // Class centers on marker genes, symmetric around 0.5.
    let c0 = 0.5 - spec.separation / 2.0;
    let c1 = 0.5 + spec.separation / 2.0;

    // Draw straight into one flat row-major buffer and shuffle a
    // (class, source-row) permutation instead of owned row vectors; the
    // RNG consumption is unchanged, so seeded output stays stable.
    let d = spec.genes;
    let mut drawn: Vec<f64> = Vec::with_capacity(n * d);
    let mut order: Vec<(usize, usize)> = Vec::with_capacity(n);
    for class in [0usize, 1] {
        let count = if class == 0 { spec.class0 } else { spec.class1 };
        let center = if class == 0 { c0 } else { c1 };
        for _ in 0..count {
            let start = drawn.len();
            order.push((class, order.len()));
            drawn.extend((0..d).map(|_| rng.f64()));
            let row = &mut drawn[start..];
            for &g in &markers {
                row[g] = rng.normal(center, spec.sigma).clamp(0.0, 1.0);
            }
        }
    }
    rng.shuffle(&mut order);
    let labels: Vec<usize> = order.iter().map(|(c, _)| *c).collect();
    let mut data = Vec::with_capacity(n * d);
    for &(_, src) in &order {
        data.extend_from_slice(&drawn[src * d..(src + 1) * d]);
    }
    let dataset = Dataset::new(n, d, data);
    LabeledData {
        dataset,
        labels,
        discriminative_genes: markers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_real_colon() {
        let g = colon_like(&ColonSpec::default());
        assert_eq!(g.dataset.len(), 62);
        assert_eq!(g.dataset.dim(), 2000);
        assert_eq!(g.labels.iter().filter(|&&c| c == 0).count(), 40);
        assert_eq!(g.labels.iter().filter(|&&c| c == 1).count(), 22);
        assert!(g.dataset.is_normalized());
    }

    #[test]
    fn marker_genes_separate_classes() {
        let g = colon_like(&ColonSpec::default());
        // On every marker gene the class means differ by roughly the
        // configured separation.
        for &gene in &g.discriminative_genes {
            let (mut s0, mut n0, mut s1, mut n1) = (0.0, 0, 0.0, 0);
            for (i, &c) in g.labels.iter().enumerate() {
                let v = g.dataset.get(i, gene);
                if c == 0 {
                    s0 += v;
                    n0 += 1;
                } else {
                    s1 += v;
                    n1 += 1;
                }
            }
            let diff = s1 / n1 as f64 - s0 / n0 as f64;
            assert!(diff > 0.25, "gene {gene} separation {diff}");
        }
    }

    #[test]
    fn non_marker_genes_do_not_separate() {
        let g = colon_like(&ColonSpec::default());
        let markers: std::collections::BTreeSet<usize> =
            g.discriminative_genes.iter().copied().collect();
        let mut max_diff: f64 = 0.0;
        for gene in (0..2000).filter(|g| !markers.contains(g)).take(100) {
            let (mut s0, mut n0, mut s1, mut n1) = (0.0, 0, 0.0, 0);
            for (i, &c) in g.labels.iter().enumerate() {
                let v = g.dataset.get(i, gene);
                if c == 0 {
                    s0 += v;
                    n0 += 1;
                } else {
                    s1 += v;
                    n1 += 1;
                }
            }
            max_diff = max_diff.max((s1 / n1 as f64 - s0 / n0 as f64).abs());
        }
        // Random-noise genes: class-mean gaps stay well below the marker
        // separation (sampling noise at n=62 is ~0.1).
        assert!(max_diff < 0.3, "noise gene separation {max_diff}");
    }

    #[test]
    fn deterministic() {
        let a = colon_like(&ColonSpec::default());
        let b = colon_like(&ColonSpec::default());
        assert_eq!(a.dataset, b.dataset);
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn custom_spec() {
        let spec = ColonSpec {
            class0: 5,
            class1: 5,
            genes: 50,
            discriminative: 10,
            ..ColonSpec::default()
        };
        let g = colon_like(&spec);
        assert_eq!(g.dataset.len(), 10);
        assert_eq!(g.dataset.dim(), 50);
        assert_eq!(g.discriminative_genes.len(), 10);
    }
}
