//! The seeded random stream every generated dataset is a pure function
//! of: xoshiro256++ seeded through SplitMix64.
//!
//! The stream is part of this reproduction's contract, not a
//! replaceable detail — the committed `e4sc` constants, the golden
//! tenant files and every dataset fingerprint were produced by exactly
//! these draws (`tests/rng_pin.rs` holds the literals). There is no
//! entropy source: a generator only ever comes from an explicit seed.

/// 2⁻⁵³: scales the top 53 bits of a word to a double in `[0, 1)`.
const UNIT: f64 = 1.0 / 9_007_199_254_740_992.0;

/// A seeded xoshiro256++ generator.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// The generator for `seed`: the four state words are the next four
    /// SplitMix64 outputs after `seed` (never all zero).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut state = seed;
        Self {
            s: std::array::from_fn(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            }),
        }
    }

    /// The next 64 bits of the stream.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`, from the top 53 bits of one word.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * UNIT
    }

    /// Uniform in `lo..=hi` (one word, reduced modulo the span).
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo <= hi, "cannot sample from an empty range");
        let span = (hi - lo) as u128 + 1;
        lo + (u128::from(self.next_u64()) % span) as usize
    }

    /// Uniform in `[lo, hi)` from one word (`lo` itself when `lo == hi`).
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "cannot sample from an empty range");
        lo + (hi - lo) * self.f64()
    }

    /// Fisher–Yates shuffle, from the top index down.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.usize_in(0, i));
        }
    }

    /// One draw from `N(mean, std_dev²)` by the Box–Muller transform.
    /// Only the cosine branch is used, so a sample is a pure function of
    /// the stream (two words, more only if the first uniform is zero).
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        let u1 = loop {
            let u = self.f64();
            if u > 0.0 {
                break u;
            }
        };
        let u2 = self.f64();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        mean + std_dev * z
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_respect_their_bounds() {
        let mut rng = Rng::seed_from_u64(7);
        for _ in 0..1000 {
            assert!((3..=17).contains(&rng.usize_in(3, 17)));
            assert!((0.25..0.75).contains(&rng.f64_in(0.25, 0.75)));
            assert!((0.0..1.0).contains(&rng.f64()));
        }
        assert_eq!(rng.usize_in(5, 5), 5);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::seed_from_u64(9);
        let mut v: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut v);
        assert_ne!(v, (0..50).collect::<Vec<_>>(), "50 elements should move");
        v.sort_unstable();
        assert_eq!(v, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = Rng::seed_from_u64(1);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "sd {}", var.sqrt());
    }
}
