//! Differential tests of the production support counter against the
//! naive per-candidate scan, through every caller that counts supports:
//! [`count_supports`], the MR proving job, the batch [`ScanCounter`] and
//! the incremental [`SupportCache`].
//!
//! The cases come from the seeded splitmix64 generator `p3c_check::Gen`:
//! fixed seeds, so every run checks the same candidates and rows.

use p3c_check::Gen;
use p3c_core::cores::{LevelCounter, ScanCounter};
use p3c_core::mr::coregen::proving_job;
use p3c_core::support::{count_supports, count_supports_naive, SupportCache, BLOCK_ROWS};
use p3c_core::types::{Interval, Signature};
use p3c_mapreduce::{Engine, MrConfig};

/// A value in `[0, 1]`, landing exactly on 0, 1 or a bin edge every
/// few draws (where `bin_index` rounds).
fn value(g: &mut Gen) -> f64 {
    match g.below(8) {
        0 => g.below(21) as f64 / 20.0,
        _ => g.unit(),
    }
}

/// Bin counts per attribute: mixed, as exact-IQR binning produces.
const BINS: [usize; 6] = [4, 10, 16, 7, 10, 3];

fn random_rows(g: &mut Gen, n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|_| BINS.iter().map(|_| value(g)).collect())
        .collect()
}

fn refs(data: &[Vec<f64>]) -> Vec<&[f64]> {
    data.iter().map(|r| r.as_slice()).collect()
}

fn random_interval(g: &mut Gen, attr: usize) -> Interval {
    let bins = BINS[attr];
    let lo = g.below(bins);
    let hi = lo + g.below(bins - lo);
    Interval::new(attr, lo, hi, bins)
}

/// A signature on `p` distinct random attributes.
fn random_signature(g: &mut Gen, p: usize) -> Signature {
    let mut attrs: Vec<usize> = (0..BINS.len()).collect();
    for i in 0..p {
        let j = i + g.below(attrs.len() - i);
        attrs.swap(i, j);
    }
    Signature::new(attrs[..p].iter().map(|&a| random_interval(g, a)).collect())
}

/// A candidate list built to stress the prefix stack: runs of
/// extensions of one prefix, prefix resets to shorter and unrelated
/// signatures, the empty signature, and verbatim duplicates — sorted in
/// half of the cases (the production shape), left unsorted otherwise.
fn random_candidates(g: &mut Gen, count: usize) -> Vec<Signature> {
    let mut out: Vec<Signature> = Vec::with_capacity(count);
    while out.len() < count {
        match g.below(6) {
            // Extend the previous candidate by one interval (shared prefix).
            0 | 1 if out.last().is_some_and(|s| s.len() < BINS.len()) => {
                let prev = out.last().expect("checked non-empty").clone();
                let free: Vec<usize> = (0..BINS.len())
                    .filter(|a| !prev.attributes().contains(a))
                    .collect();
                let attr = free[g.below(free.len())];
                out.push(prev.extended(random_interval(g, attr)).expect("fresh attr"));
            }
            // Duplicate an earlier candidate.
            2 if !out.is_empty() => {
                let i = g.below(out.len());
                out.push(out[i].clone());
            }
            // Drop back to a prefix of the previous candidate.
            3 if out.last().is_some_and(|s| s.len() > 1) => {
                let prev = out.last().expect("checked non-empty");
                let keep = 1 + g.below(prev.len() - 1);
                out.push(Signature::new(prev.intervals()[..keep].to_vec()));
            }
            _ => {
                let p = g.below(5);
                out.push(random_signature(g, p));
            }
        }
    }
    if g.below(2) == 0 {
        out.sort();
    }
    out
}

/// Row counts on every side of the 64-bit word and the block boundary.
const ROW_COUNTS: [usize; 8] = [0, 1, 63, 64, 65, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1];

#[test]
fn block_counter_matches_naive_on_random_candidate_sets() {
    let mut g = Gen::new(0x5eed_0001);
    for &n in &ROW_COUNTS {
        let data = random_rows(&mut g, n);
        let rows = refs(&data);
        for case in 0..6 {
            let count = 1 + g.below(90);
            let candidates = random_candidates(&mut g, count);
            assert_eq!(
                count_supports(&candidates, &rows),
                count_supports_naive(&candidates, &rows),
                "n = {n}, case {case}"
            );
        }
    }
}

#[test]
fn block_counter_handles_many_small_row_counts() {
    // Every row count up to three words, against one candidate list.
    let mut g = Gen::new(0x5eed_0002);
    let data = random_rows(&mut g, 192);
    let candidates = random_candidates(&mut g, 60);
    for n in 0..=data.len() {
        let rows = refs(&data[..n]);
        assert_eq!(
            count_supports(&candidates, &rows),
            count_supports_naive(&candidates, &rows),
            "n = {n}"
        );
    }
}

#[test]
fn proving_job_matches_naive_under_every_split_size() {
    let mut g = Gen::new(0x5eed_0003);
    let data = random_rows(&mut g, 300);
    let rows = refs(&data);
    let candidates = random_candidates(&mut g, 120);
    let expected = count_supports_naive(&candidates, &rows);
    for split_size in [1, 37, 64, 8192] {
        let engine = Engine::new(MrConfig {
            split_size,
            ..MrConfig::default()
        });
        assert_eq!(
            proving_job(&engine, &candidates, &rows).unwrap(),
            expected,
            "split_size = {split_size}"
        );
        let metrics = engine.cluster_metrics();
        let job = &metrics.jobs()[0];
        assert_eq!(job.map_tasks, 300usize.div_ceil(split_size) as u64);
        assert!(job.broadcast_bytes > 0);
    }
}

#[test]
fn scan_counter_reuse_equals_fresh_count_at_every_level() {
    let mut g = Gen::new(0x5eed_0004);
    let data = random_rows(&mut g, BLOCK_ROWS + 700);
    let rows = refs(&data);
    // An Apriori-shaped lattice: level 1 holds every interval, level p
    // combines level-1 intervals on p distinct attributes.
    let singles: Vec<Interval> = (0..BINS.len())
        .flat_map(|a| [(0, 1), (1, 2)].map(|(lo, hi)| Interval::new(a, lo, hi, BINS[a])))
        .collect();
    let mut levels: Vec<Vec<Signature>> =
        vec![singles.iter().map(|&iv| Signature::singleton(iv)).collect()];
    for p in 2..=4 {
        let mut level: Vec<Signature> = (0..40)
            .map(|_| {
                let mut attrs: Vec<usize> = (0..BINS.len()).collect();
                for i in 0..p {
                    let j = i + g.below(attrs.len() - i);
                    attrs.swap(i, j);
                }
                Signature::new(
                    attrs[..p]
                        .iter()
                        .map(|&a| singles[2 * a + g.below(2)])
                        .collect(),
                )
            })
            .collect();
        level.sort();
        level.dedup();
        levels.push(level);
    }
    // A level that brings an interval level 1 never showed: the counter
    // must notice and still be exact.
    levels.push(vec![
        Signature::singleton(Interval::new(0, 3, 3, BINS[0])),
        Signature::new(vec![Interval::new(0, 3, 3, BINS[0]), singles[2]]),
    ]);
    levels.push(levels[2].clone());

    let mut reused = ScanCounter::new(&rows);
    for (l, level) in levels.iter().enumerate() {
        let expected = count_supports_naive(level, &rows);
        assert_eq!(reused.count_level(level).unwrap(), expected, "level {l}");
        assert_eq!(
            ScanCounter::new(&rows).count_level(level).unwrap(),
            expected,
            "fresh counter, level {l}"
        );
    }
}

#[test]
fn support_cache_append_then_retract_round_trips() {
    let mut g = Gen::new(0x5eed_0005);
    let base = random_rows(&mut g, 500);
    let sigs: Vec<Signature> = {
        let mut s = random_candidates(&mut g, 80);
        s.sort();
        s.dedup();
        s
    };
    let original = count_supports_naive(&sigs, &refs(&base));
    let mut cache = SupportCache::new();
    for (sig, &c) in sigs.iter().zip(&original) {
        cache.insert(sig.clone(), c);
    }
    for delta_len in [0, 1, 63, 64, 65, 300] {
        let delta = random_rows(&mut g, delta_len);
        cache.apply_delta(&refs(&delta), false);
        let mut cumulative = base.clone();
        cumulative.extend(delta.iter().cloned());
        let appended = count_supports_naive(&sigs, &refs(&cumulative));
        for (sig, &c) in sigs.iter().zip(&appended) {
            assert_eq!(cache.get(sig), Some(c), "append of {delta_len}");
        }
        cache.apply_delta(&refs(&delta), true);
        for (sig, &c) in sigs.iter().zip(&original) {
            assert_eq!(cache.get(sig), Some(c), "retract of {delta_len}");
        }
    }
}
