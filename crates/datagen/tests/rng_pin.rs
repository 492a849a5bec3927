//! Pins the seeded random stream every dataset in this reproduction is
//! drawn from. The literals were captured from the generator the
//! committed `e4sc` constants, `tests/golden/tenant*` and the dataset
//! fingerprints were produced with; a change to the stream, to a range
//! draw, to the shuffle or to the normal sampler moves all of them, so
//! it must fail here first.

use p3c_datagen::rng::Rng;
use p3c_datagen::{colon_like, generate, ColonSpec, SyntheticSpec};
use p3c_dataset::bytes::Fnv1a;

#[test]
fn first_words_of_seed_42() {
    let mut rng = Rng::seed_from_u64(42);
    let words: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
    assert_eq!(
        words,
        [
            15021278609987233951,
            5881210131331364753,
            18149643915985481100,
            12933668939759105464,
            14637574242682825331,
            10848501901068131965,
            2312344417745909078,
            11162538943635311430,
        ]
    );
}

#[test]
fn range_draws_shuffle_and_normals_of_seed_7() {
    let mut rng = Rng::seed_from_u64(7);
    assert_eq!(rng.usize_in(3, 17), 14);
    assert_eq!(rng.f64_in(0.25, 0.75).to_bits(), 0x3fd581f91bbf49d3);
    assert_eq!(rng.f64().to_bits(), 0x3fe6f66236761a8b);
    let mut order: Vec<usize> = (0..16).collect();
    rng.shuffle(&mut order);
    assert_eq!(
        order,
        [13, 2, 8, 4, 3, 10, 5, 6, 15, 9, 1, 0, 11, 14, 7, 12]
    );
    let samples: Vec<u64> = (0..3).map(|_| rng.normal(10.0, 2.0).to_bits()).collect();
    assert_eq!(
        samples,
        [0x4026164ed00cb7f6, 0x4020eeb49c2e0559, 0x402152d3420fe99c]
    );
}

/// FNV-1a over the values as little-endian words.
fn fnv(words: impl Iterator<Item = u64>) -> u64 {
    let mut h = Fnv1a::new();
    words.for_each(|w| h.write_u64(w));
    h.finish()
}

#[test]
fn default_synthetic_dataset() {
    let g = generate(&SyntheticSpec::default());
    let rows = fnv(g.dataset.as_slice().iter().map(|v| v.to_bits()));
    let labels = fnv(g.labels.iter().map(|&l| l as u64));
    assert_eq!((rows, labels), (172097453843216355, 11327941816137000005));
}

#[test]
fn default_colon_like_dataset() {
    let g = colon_like(&ColonSpec::default());
    let rows = fnv(g.dataset.as_slice().iter().map(|v| v.to_bits()));
    let labels = fnv(g.labels.iter().map(|&l| l as u64));
    assert_eq!((rows, labels), (3366049855699352460, 17681837791620770597));
    assert_eq!(
        g.discriminative_genes,
        [15, 68, 305, 312, 573, 852, 1085, 1369, 1430, 1454, 1704, 1899]
    );
}
