//! The workspace's seeded property runner.
//!
//! Two things, both for tests only:
//!
//! * [`Gen`] — a splitmix64 case generator: [`Gen::next_u64`],
//!   [`Gen::below`], [`Gen::unit`], [`Gen::bytes`], plus half-open range
//!   draws ([`Gen::range`]) and vectors ([`Gen::vec`]). Its streams are
//!   part of what some tests pin (the golden byte files are built from
//!   them), so the arithmetic of the four primitives never changes.
//! * [`cases`] — runs a property over a fixed number of cases. Case `i`
//!   always gets the same seed, so a failure reproduces by re-running
//!   the test; on a panic the runner names the case and its seed
//!   (`Gen::new(seed)` replays it in a plain `#[test]`) and lets the
//!   panic continue.
//!
//! There is no shrinking and no environment knob: every run, local or
//! CI, draws the same cases.
//!
//! ```
//! p3c_check::cases(64, |g| {
//!     let xs = g.vec(0..20, |g| g.range(-1.0..1.0));
//!     let sum: f64 = xs.iter().map(|x| x.abs()).sum();
//!     assert!(sum <= xs.len() as f64);
//! });
//! ```

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Deterministic case generator (splitmix64): reproducible across runs
/// and platforms.
#[derive(Debug, Clone)]
pub struct Gen(u64);

impl Gen {
    /// A generator whose stream is fixed by `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 bits of the stream.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` by modulo (`0` when `n` is 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// A value in `[0, 1)` from the top 53 bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `len` bytes, the low byte of one draw each.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next_u64() as u8).collect()
    }

    /// A value in the half-open `range` (its start when it is empty).
    pub fn range<T: Uniform>(&mut self, range: Range<T>) -> T {
        T::draw(self, range)
    }

    /// A vector whose length is drawn from `len`, each element from
    /// `element`.
    pub fn vec<T>(&mut self, len: Range<usize>, mut element: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let n = self.range(len);
        (0..n).map(|_| element(self)).collect()
    }
}

/// A type [`Gen::range`] can draw.
pub trait Uniform: Sized {
    /// A value in `range`, or `range.start` when it is empty.
    fn draw(g: &mut Gen, range: Range<Self>) -> Self;
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl Uniform for $t {
            fn draw(g: &mut Gen, range: Range<Self>) -> Self {
                let span = range.end.saturating_sub(range.start) as u64;
                range.start + (g.next_u64() % span.max(1)) as $t
            }
        }
    )*};
}

uniform_int!(u32, u64, usize);

impl Uniform for f64 {
    fn draw(g: &mut Gen, range: Range<Self>) -> Self {
        let x = range.start + (range.end - range.start) * g.unit();
        // Rounding can land on the excluded end.
        if x < range.end {
            x
        } else {
            range.start
        }
    }
}

/// The seed of case `case`: fixed, and spread over the seed space.
fn case_seed(case: u32) -> u64 {
    Gen::new(u64::from(case)).next_u64()
}

/// Runs `property` on cases `0..n`, case `i` with a generator whose seed
/// depends on `i` alone. A panicking case is reported with its index and
/// seed on stderr, then the panic continues, failing the test.
pub fn cases(n: u32, mut property: impl FnMut(&mut Gen)) {
    for case in 0..n {
        let seed = case_seed(case);
        let mut g = Gen::new(seed);
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| property(&mut g))) {
            eprintln!("property failed at case {case} of {n}: Gen::new({seed:#018x}) replays it");
            resume_unwind(panic);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_pinned() {
        // splitmix64 from seed 0; these words are what the golden byte
        // files were generated from, so they must never move.
        let mut g = Gen::new(0);
        assert_eq!(g.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(g.next_u64(), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(g.next_u64(), 0x06c4_5d18_8009_454f);
    }

    #[test]
    fn draws_stay_in_range() {
        cases(256, |g| {
            let lo = g.range(0usize..50);
            let hi = lo + g.range(0usize..50);
            let x = g.range(lo..hi);
            assert!(x == lo || (lo..hi).contains(&x));
            assert!(g.below(7) < 7);
            assert!((0.0..1.0).contains(&g.unit()));
            let f = g.range(-2.5..1e-3);
            assert!((-2.5..1e-3).contains(&f));
            assert_eq!(g.range(3u32..3), 3);
            let v = g.vec(2..5, |g| g.range(10u64..20));
            assert!((2..5).contains(&v.len()));
            assert!(v.iter().all(|x| (10..20).contains(x)));
        });
    }

    #[test]
    fn every_case_runs_with_its_own_seed() {
        let mut seen = Vec::new();
        cases(8, |g| seen.push(g.next_u64()));
        let expected: Vec<u64> = (0..8).map(|i| Gen::new(case_seed(i)).next_u64()).collect();
        assert_eq!(seen, expected);
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 8);
    }

    #[test]
    #[should_panic(expected = "case body failed")]
    fn a_failing_case_fails_the_test() {
        cases(10, |g| assert!(g.below(4) != 3, "case body failed"));
    }
}
