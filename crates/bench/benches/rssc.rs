//! Section 5.3 ablation: the production support counter (RSSC in
//! vertical orientation, `p3c_core::support`) vs the naive per-candidate
//! containment scan, across candidate-set sizes.
//!
//! `cargo bench -p p3c-bench --bench rssc` prints a best-of-five wall
//! time per case: the EXPERIMENTS.md §5.3 table.

use p3c_core::support::{count_supports, count_supports_naive};
use p3c_core::types::{Interval, Signature};
use p3c_datagen::rng::Rng;
use std::hint::black_box;
use std::time::Instant;

const BINS: usize = 20;
const DIMS: usize = 20;

fn make_candidates(count: usize, rng: &mut Rng) -> Vec<Signature> {
    let mut candidates: Vec<Signature> = (0..count)
        .map(|_| {
            let p = rng.usize_in(1, 3);
            let mut attrs: Vec<usize> = (0..DIMS).collect();
            // Partial shuffle for attribute selection.
            for i in 0..p {
                let j = rng.usize_in(i, DIMS - 1);
                attrs.swap(i, j);
            }
            let intervals = (0..p)
                .map(|i| {
                    let lo = rng.usize_in(0, BINS - 2);
                    let hi = rng.usize_in(lo, BINS.min(lo + 4) - 1);
                    Interval::new(attrs[i], lo, hi, BINS)
                })
                .collect();
            Signature::new(intervals)
        })
        .collect();
    // Apriori levels reach the counter lexicographically sorted.
    candidates.sort();
    candidates
}

fn best_of_five_ms(mut f: impl FnMut() -> Vec<u64>) -> f64 {
    (0..5)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    let mut rng = Rng::seed_from_u64(42);
    let data: Vec<Vec<f64>> = (0..20_000)
        .map(|_| (0..DIMS).map(|_| rng.f64()).collect())
        .collect();
    let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();

    println!("| candidates | naive scan (ms) | production counter (ms) |");
    println!("|---|---|---|");
    for &count in &[64usize, 512, 4_096, 32_768] {
        let candidates = make_candidates(count, &mut rng);
        // The naive oracle becomes unbearable past ~1k candidates; bench
        // it only where it finishes quickly, which is exactly the point.
        let naive = (count <= 512).then(|| {
            best_of_five_ms(|| count_supports_naive(black_box(&candidates), black_box(&rows)))
        });
        let production =
            best_of_five_ms(|| count_supports(black_box(&candidates), black_box(&rows)));
        println!(
            "| {count} | {} | {production:.2} |",
            naive.map_or("(not run)".to_string(), |ms| format!("{ms:.1}"))
        );
    }
}
