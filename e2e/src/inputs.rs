//! Input generation: planted datasets from `p3c-datagen`, re-ordered
//! by the run's seed.
//!
//! The planted *structure* (which attributes each cluster lives in, how
//! wide its intervals are, how clusters overlap) decides how much work
//! every stage does — candidate counts, `|A_rel|`, EM iterations — so
//! two independently drawn structures cost up to 40% apart. It is
//! therefore drawn from a fixed `--structure-seed`, and the run's
//! `--seed` only permutes the rows: the program sees different bytes,
//! point ids and split contents under every seed while the work stays
//! comparable, which is what lets the regression bounds resolve. The CLI child
//! (`cli.*` metrics) gets the structure seed and so clusters the same
//! rows in generator order.

use p3c_datagen::{generate, SyntheticSpec};
use p3c_dataset::{Clustering, Dataset, ProjectedCluster, RowBlock};
use std::time::Instant;

/// splitmix64: the benchmark's own seeded stream (the program's RNG
/// stub is not part of the measurement contract).
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`); the modulo bias is below
    /// 2^-40 for every bound used here.
    fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// Fisher–Yates shuffle of `items[lo..hi]`.
    fn shuffle<T>(&mut self, items: &mut [T], lo: usize, hi: usize) {
        for i in (lo + 1..hi).rev() {
            let j = lo + self.below(i - lo + 1);
            items.swap(i, j);
        }
    }
}

/// Shape of one planted dataset.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Rows at full scale.
    pub n: usize,
    /// Attributes.
    pub d: usize,
    /// Hidden clusters.
    pub clusters: usize,
    /// Largest cluster dimensionality (the smallest is the generator's 2).
    pub max_cluster_dims: usize,
    /// Share of uniform noise rows.
    pub noise: f64,
    /// Added to the structure seed, so shapes do not share a stream.
    pub seed_offset: u64,
}

impl Shape {
    /// The generator spec at this shape; `smoke` divides `n` by 20.
    pub fn spec(&self, structure_seed: u64, smoke: bool) -> SyntheticSpec {
        SyntheticSpec {
            n: if smoke { self.n / 20 } else { self.n },
            d: self.d,
            num_clusters: self.clusters,
            noise_fraction: self.noise,
            max_cluster_dims: self.max_cluster_dims,
            seed: structure_seed + self.seed_offset,
            ..SyntheticSpec::default()
        }
    }
}

/// A generated input: rows in seed order plus, per row, the planted
/// label it carries.
pub struct Input {
    /// The spec the rows were generated from.
    pub spec: SyntheticSpec,
    /// The rows, permuted by the seed.
    pub dataset: Dataset,
    /// Planted label per (permuted) row: cluster index, or -1 for noise.
    pub labels: Vec<i64>,
    /// The planted clusters in generator row ids (attributes and
    /// intervals are what [`Input::truth`] takes from it).
    planted: Clustering,
    /// Seconds `p3c_datagen::generate` took.
    pub generate_s: f64,
}

impl Input {
    /// Generates `spec` and permutes the rows inside each of `ranges`
    /// (`[lo, hi)` pairs) with the stream of `seed`. One range covering
    /// everything is a full shuffle; block ranges keep every block's
    /// row *set* fixed, so maintained statistics evolve identically
    /// under every seed.
    pub fn generate(spec: SyntheticSpec, seed: u64, ranges: &[(usize, usize)]) -> Self {
        let start = Instant::now();
        let data = generate(&spec);
        let generate_s = start.elapsed().as_secs_f64();

        let n = data.dataset.len();
        let d = data.dataset.dim();
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = SplitMix64(seed);
        for &(lo, hi) in ranges {
            rng.shuffle(&mut order, lo, hi.min(n));
        }
        let src = data.dataset.as_slice();
        let mut rows = Vec::with_capacity(n * d);
        let mut labels = Vec::with_capacity(n);
        for &old in &order {
            rows.extend_from_slice(&src[old * d..(old + 1) * d]);
            labels.push(data.labels[old]);
        }
        Self {
            spec,
            dataset: Dataset::new(n, d, rows),
            labels,
            planted: data.ground_truth,
            generate_s,
        }
    }

    /// The ground truth over the rows `live` (indices into this input,
    /// in the order the program holds them): point ids are positions in
    /// `live`.
    pub fn truth(&self, live: impl Iterator<Item = usize>) -> Clustering {
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); self.planted.clusters.len()];
        let mut outliers = Vec::new();
        for (pos, row) in live.enumerate() {
            match self.labels[row] {
                l if l < 0 => outliers.push(pos),
                l => members[l as usize].push(pos),
            }
        }
        let clusters = self
            .planted
            .clusters
            .iter()
            .zip(members)
            .map(|(c, points)| {
                ProjectedCluster::new(points, c.attributes.clone(), c.intervals.clone())
            })
            .collect();
        Clustering::new(clusters, outliers)
    }

    /// Rows `[lo, hi)` as an owned block.
    pub fn block(&self, lo: usize, hi: usize) -> RowBlock {
        let d = self.dataset.dim();
        RowBlock::new(hi - lo, d, self.dataset.as_slice()[lo * d..hi * d].to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SyntheticSpec {
        Shape {
            n: 600,
            d: 8,
            clusters: 2,
            max_cluster_dims: 4,
            noise: 0.1,
            seed_offset: 0,
        }
        .spec(7, false)
    }

    #[test]
    fn same_seed_same_rows_other_seed_other_order() {
        let a = Input::generate(small(), 1, &[(0, 600)]);
        let b = Input::generate(small(), 1, &[(0, 600)]);
        let c = Input::generate(small(), 2, &[(0, 600)]);
        assert_eq!(a.dataset, b.dataset);
        assert_ne!(a.dataset, c.dataset);
        // Same multiset of rows: column sums agree up to summation order.
        let sum = |i: &Input| i.dataset.as_slice().iter().sum::<f64>();
        assert!((sum(&a) - sum(&c)).abs() < 1e-6);
    }

    #[test]
    fn block_ranges_keep_each_blocks_row_set() {
        let a = Input::generate(small(), 1, &[(0, 200), (200, 600)]);
        let b = Input::generate(small(), 9, &[(0, 200), (200, 600)]);
        let key = |i: &Input, lo: usize, hi: usize| {
            let mut rows: Vec<Vec<u64>> = (lo..hi)
                .map(|r| i.dataset.row(r).iter().map(|v| v.to_bits()).collect())
                .collect();
            rows.sort();
            rows
        };
        assert_eq!(key(&a, 0, 200), key(&b, 0, 200));
        assert_eq!(key(&a, 200, 600), key(&b, 200, 600));
        assert_ne!(a.dataset, b.dataset);
    }

    #[test]
    fn truth_follows_the_permutation() {
        let input = Input::generate(small(), 3, &[(0, 600)]);
        let truth = input.truth(0..600);
        assert_eq!(truth.outliers.len(), 60);
        for c in &truth.clusters {
            for &p in &c.points {
                assert!(
                    c.covers(input.dataset.row(p)),
                    "row {p} outside its signature"
                );
            }
        }
    }
}
