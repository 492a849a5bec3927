//! MapReduce cluster-core generation (paper Section 5.3).
//!
//! Three pieces:
//!
//! 1. **Parallel candidate generation** — with `k` p-signatures there are
//!    `c = k(k−1)/2` join pairs; above `T_gen` pairs the join runs as a
//!    map-only job over pair-index ranges, with the signature list shipped
//!    through the distributed cache (below `T_gen` it runs serially, since
//!    "each MR job adds some overhead").
//! 2. **Multi-level candidate collection** — candidates are not proven at
//!    every level; levels accumulate until the paper's stop heuristic
//!    `|Cand_j| = 0 ∨ (c_sum > T_c ∧ |Cand_j| > |Cand_{j−1}|)` fires, then
//!    one proving job validates the whole batch.
//! 3. **RSSC candidate proving** — the candidate batch ships through the
//!    distributed cache as an interval table plus front-coded interval-id
//!    lists; each mapper turns its split into per-interval point bitmaps
//!    and walks the candidates with prefix-shared AND/popcount (the
//!    vertical counter of [`crate::support`]), emitting per-split support
//!    counts; reducers sum them.

use crate::config::P3cParams;
use crate::cores::{filter_maximal, ClusterCore, CoreGenStats, SupportTester};
use crate::mr::SigMsg;
use crate::support::{SupportPlan, SupportTable};
use crate::types::{Interval, Signature};
use p3c_mapreduce::{Emitter, Engine, Mapper, MrError, Reducer};
// audit: unordered-ok — HashSet here backs membership probes only
// (Apriori prune checks); every iterated/emitted collection below is a
// BTreeSet or explicitly sorted Vec.
use std::collections::{BTreeSet, HashSet};

// ------------------------------------------------------------- proving --

/// Mapper for the proving job: per-split support counting.
struct ProveMapper<'p> {
    plan: &'p SupportPlan,
}

impl<'a> Mapper<&'a [f64], usize, u64> for ProveMapper<'_> {
    fn map(&self, row: &&'a [f64], out: &mut Emitter<usize, u64>) {
        self.map_split(std::slice::from_ref(row), out);
    }

    fn map_split(&self, split: &[&'a [f64]], out: &mut Emitter<usize, u64>) {
        let mut counts = vec![0u64; self.plan.num_candidates()];
        self.plan.count_rows(split, &mut counts);
        for (idx, c) in counts.into_iter().enumerate() {
            if c > 0 {
                out.emit(idx, c);
            }
        }
    }
}

struct SumReducer;
impl Reducer<usize, u64, (usize, u64)> for SumReducer {
    fn reduce(&self, key: &usize, values: Vec<u64>, out: &mut Vec<(usize, u64)>) {
        out.push((*key, values.into_iter().sum()));
    }
}

/// Counts the supports of a candidate batch with one MR job.
pub fn proving_job(
    engine: &Engine,
    candidates: &[Signature],
    rows: &[&[f64]],
) -> Result<Vec<u64>, MrError> {
    run_proving_job(engine, &SupportPlan::build(candidates), rows)
}

fn run_proving_job(
    engine: &Engine,
    plan: &SupportPlan,
    rows: &[&[f64]],
) -> Result<Vec<u64>, MrError> {
    let mut counts = vec![0u64; plan.num_candidates()];
    if counts.is_empty() {
        return Ok(counts);
    }
    let result = engine.run_with_cache(
        "p3c-prove-candidates",
        rows,
        plan.byte_size(),
        &ProveMapper { plan },
        &SumReducer,
    )?;
    for (idx, c) in result.output {
        counts[idx] = c;
    }
    Ok(counts)
}

// -------------------------------------------------- candidate generation --

/// Mapper for parallel candidate generation: each record is a range of
/// prefix buckets (index ranges into the sorted signature list) to join.
///
/// The paper partitions the raw `k(k−1)/2` pair-index space across
/// mappers; since only pairs sharing a (p−1)-prefix can produce surviving
/// candidates, we ship the same distributed-cache payload but let each
/// mapper enumerate pairs *within its buckets* — identical output, far
/// fewer wasted join attempts (see DESIGN.md §1).
struct CandGenMapper<'s> {
    /// Sorted signature list.
    level: &'s [&'s Signature],
    // audit: unordered-ok — membership probes only, never iterated.
    prune: &'s HashSet<&'s Signature>,
}

impl Mapper<(usize, usize), (), SigMsg> for CandGenMapper<'_> {
    /// A record `(i, end)` joins `sorted[i]` with every `sorted[j]`,
    /// `i < j < end` — one record per bucket row, so every in-bucket pair
    /// is enumerated exactly once and large buckets spread across tasks.
    fn map(&self, &(i, end): &(usize, usize), out: &mut Emitter<(), SigMsg>) {
        for j in (i + 1)..end {
            if let Some(cand) =
                crate::cores::join_in_bucket(self.level[i], self.level[j], self.prune)
            {
                out.emit((), SigMsg(cand));
            }
        }
    }
}

/// Candidate generation: serial below `t_gen` within-bucket join pairs, a
/// map-only MR job above (paper Section 5.3). Duplicate candidates from
/// different pair joins are removed, and the all-subsets Apriori prune is
/// applied. Produces exactly [`crate::cores::generate_candidates`]'s
/// output either way.
pub fn generate_candidates_mr(
    engine: &Engine,
    level: &[Signature],
    // audit: unordered-ok — membership probes only, never iterated.
    prune_against: &HashSet<&Signature>,
    t_gen: usize,
) -> Result<Vec<Signature>, MrError> {
    // Sort and bucket by (p−1)-prefix.
    let mut sorted: Vec<&Signature> = level.iter().collect();
    sorted.sort();
    sorted.dedup();
    let mut buckets = crate::cores::prefix_buckets(&sorted);
    let join_pairs: usize = buckets
        .iter()
        .map(|(s, e)| (e - s) * (e - s).saturating_sub(1) / 2)
        .sum();
    if join_pairs <= t_gen {
        return Ok(crate::cores::generate_candidates(level, prune_against));
    }
    // One record per bucket row: (i, end) means "join sorted[i] with
    // sorted[i+1..end]" — exact pair coverage with balanced tasks.
    buckets = buckets
        .into_iter()
        .flat_map(|(s, e)| (s..e).map(move |i| (i, e)))
        .collect();
    let cache_bytes: usize = level.iter().map(|s| 4 + s.len() * 32).sum();
    let result = engine.run_map_only_with_cache(
        "p3c-candidate-generation",
        &buckets,
        cache_bytes,
        &CandGenMapper {
            level: &sorted,
            prune: prune_against,
        },
    )?;
    // BTreeSet: dedup and the output's sorted order in one structure —
    // this collection IS the emitted result, so its order must be fixed.
    let mut set: BTreeSet<Signature> = BTreeSet::new();
    for SigMsg(sig) in result.output {
        set.insert(sig);
    }
    Ok(set.into_iter().collect())
}

// ------------------------------------------- multi-level orchestration --

/// Result of the MapReduce core-generation phase.
#[derive(Debug, Clone)]
pub struct MrCoreGenResult {
    /// The maximal proven cores.
    pub cores: Vec<ClusterCore>,
    /// All proven signatures with their supports (pre-maximality).
    pub proven: Vec<(Signature, f64)>,
    /// Support table over all counted signatures.
    pub table: SupportTable,
    /// Per-level generation statistics.
    pub stats: CoreGenStats,
    /// Proving jobs actually executed (multi-level collection batches).
    pub proving_jobs: usize,
}

/// Runs cluster-core generation with multi-level candidate collection
/// (paper Section 5.3). Produces exactly the same proven set as the
/// serial [`crate::cores::generate_cluster_cores`] — the collection
/// heuristic only changes *when* supports are counted.
pub fn generate_cluster_cores_mr(
    engine: &Engine,
    intervals: &[Interval],
    rows: &[&[f64]],
    params: &P3cParams,
) -> Result<MrCoreGenResult, MrError> {
    let n = rows.len();
    let tester = SupportTester::from_params(params);
    let mut table = SupportTable::new();
    let mut stats = CoreGenStats::default();
    let mut all_proven: Vec<(Signature, f64)> = Vec::new();
    // Every signature proven so far, across batches. Threading this set
    // through proving keeps the downward-closure check exact: re-deriving
    // provenness from the support table is wrong, because Equation 1
    // alone is not recursive — a signature can pass it while one of its
    // own subsignatures failed validation.
    // audit: unordered-ok — membership probes only, never iterated.
    let mut proven_set: HashSet<Signature> = HashSet::new();
    let mut proving_jobs = 0usize;

    // Level-1 candidates.
    let mut level1: Vec<Signature> = intervals
        .iter()
        .map(|&iv| Signature::singleton(iv))
        .collect();
    level1.sort();
    level1.dedup();

    // The levels collected since the last proving job — the one owned
    // copy of every candidate until `prove_batch` moves it into the
    // support table.
    let mut batch: Vec<Vec<Signature>> = Vec::new();
    let mut csum = 0usize;
    let mut current = level1;
    let mut level = 1usize;

    loop {
        if current.is_empty() || level > params.max_levels {
            // Close any open batch.
            if !batch.is_empty() {
                all_proven.extend(prove_batch(
                    engine,
                    std::mem::take(&mut batch),
                    rows,
                    &tester,
                    &mut table,
                    &mut proven_set,
                    &mut stats,
                )?);
                proving_jobs += 1;
            }
            break;
        }
        crate::cores::truncate_level(&mut current, params, &mut stats);
        stats.candidates_per_level.push(current.len());
        csum += current.len();

        // Stop-collection heuristic (Section 5.3): always prove when the
        // candidate set grew past the budget; otherwise keep collecting
        // while the set shrinks.
        let grew = batch.last().is_some_and(|prev| current.len() > prev.len());
        batch.push(current);
        let close_batch = csum > params.t_c && (grew || batch.len() == 1);

        let proven_top: Vec<Signature>;
        let generation_basis: &[Signature] = if close_batch {
            let proven_now = prove_batch(
                engine,
                std::mem::take(&mut batch),
                rows,
                &tester,
                &mut table,
                &mut proven_set,
                &mut stats,
            )?;
            proving_jobs += 1;
            csum = 0;
            // Next generation chains off the just-proven top level.
            proven_top = proven_now
                .iter()
                .filter(|(s, _)| s.len() == level)
                .map(|(s, _)| s.clone())
                .collect();
            all_proven.extend(proven_now);
            &proven_top
        } else {
            // Keep collecting: generate from the *candidates*.
            batch.last().expect("level just pushed")
        };

        // audit: unordered-ok — membership probes only, never iterated.
        let prune: HashSet<&Signature> = generation_basis.iter().collect();
        current = generate_candidates_mr(engine, generation_basis, &prune, params.t_gen)?;
        level += 1;
    }

    stats.total_proven = all_proven.len();
    let mut cores = filter_maximal(&all_proven);
    crate::cores::attach_expected_supports(&mut cores, n);
    stats.maximal = cores.len();
    Ok(MrCoreGenResult {
        cores,
        proven: all_proven,
        table,
        stats,
        proving_jobs,
    })
}

/// Proves a batch of levels with one MR support-counting job, evaluating
/// Equation 1 level by level (a candidate needs all its subsignatures
/// proven, so validation ascends). Consumes the batch: each level's
/// signatures move into `table` once the level is validated.
fn prove_batch(
    engine: &Engine,
    batch: Vec<Vec<Signature>>,
    rows: &[&[f64]],
    tester: &SupportTester,
    table: &mut SupportTable,
    // audit: unordered-ok — membership probes only, never iterated.
    proven_set: &mut HashSet<Signature>,
    stats: &mut CoreGenStats,
) -> Result<Vec<(Signature, f64)>, MrError> {
    let n = rows.len();
    let plan = SupportPlan::build(batch.iter().flatten());
    let mut counts = run_proving_job(engine, &plan, rows)?.into_iter();
    // Validate ascending by level; a signature is proven iff Equation 1
    // holds AND all its subsignatures are proven (matching the serial
    // per-level semantics). Equation 1 reads only the supports of
    // (p−1)-subsignatures, which an earlier level of this batch or an
    // earlier batch put into `table`. `proven_set` persists across
    // batches, so the downward-closure check is exact for subsignatures
    // proved in earlier batches too. It must NOT be re-derived from the
    // support table: Equation 1 in isolation can accept a signature
    // whose validation failed the closure check one level down.
    let mut proven: Vec<(Signature, f64)> = Vec::new();
    for level_sigs in batch {
        let supports: Vec<f64> = counts
            .by_ref()
            .take(level_sigs.len())
            .map(|c| c as f64)
            .collect();
        let proven_before = proven.len();
        for (sig, &support) in level_sigs.iter().zip(&supports) {
            let subs_ok =
                sig.len() == 1 || sig.subsignatures().all(|sub| proven_set.contains(&sub));
            if subs_ok && tester.passes_equation1(sig, support, n, table) {
                proven_set.insert(sig.clone());
                proven.push((sig.clone(), support));
            }
        }
        stats.proven_per_level.push(proven.len() - proven_before);
        for (sig, support) in level_sigs.into_iter().zip(supports) {
            table.insert(sig, support);
        }
    }
    Ok(proven)
}

#[cfg(test)]
mod tests {
    use super::*;
    use p3c_mapreduce::MrConfig;

    fn iv(attr: usize, lo: usize, hi: usize) -> Interval {
        Interval::new(attr, lo, hi, 10)
    }

    #[test]
    fn parallel_candgen_matches_serial() {
        // 40 singletons on 8 attributes → 780 pairs; force the MR path
        // with t_gen = 0.
        let level: Vec<Signature> = (0..40)
            .map(|i| Signature::singleton(Interval::new(i % 8, i / 8, i / 8, 10)))
            .collect();
        let prune: HashSet<&Signature> = level.iter().collect();
        let serial = crate::cores::generate_candidates(&level, &prune);
        let engine = Engine::new(MrConfig::default());
        let parallel = generate_candidates_mr(&engine, &level, &prune, 0).unwrap();
        assert_eq!(serial, parallel);
        assert!(engine.cluster_metrics().num_jobs() >= 1);
    }

    #[test]
    fn proving_job_matches_serial_counts() {
        let candidates = vec![
            Signature::new(vec![iv(0, 0, 2)]),
            Signature::new(vec![iv(0, 0, 2), iv(1, 5, 9)]),
        ];
        let data: Vec<Vec<f64>> = (0..300)
            .map(|i| {
                let t = (i as f64 + 0.5) / 300.0;
                vec![t, 1.0 - t]
            })
            .collect();
        let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        let engine = Engine::new(MrConfig {
            split_size: 37,
            ..MrConfig::default()
        });
        let mr = proving_job(&engine, &candidates, &rows).unwrap();
        let serial = crate::support::count_supports_naive(&candidates, &rows);
        assert_eq!(mr, serial);
        // Charged: what is shipped (interval table + candidate id
        // lists), once per map task.
        let metrics = engine.cluster_metrics();
        let job = &metrics.jobs()[0];
        let shipped = SupportPlan::build(&candidates).byte_size() as u64;
        assert_eq!(job.broadcast_bytes, shipped * job.map_tasks);
    }

    #[test]
    fn per_record_map_is_the_one_row_split() {
        let candidates = vec![
            Signature::new(vec![iv(0, 0, 2)]),
            Signature::new(vec![iv(0, 0, 2), iv(1, 5, 9)]),
            Signature::new(vec![iv(1, 0, 4)]),
        ];
        let plan = SupportPlan::build(&candidates);
        let mapper = ProveMapper { plan: &plan };
        for row in [[0.15, 0.75], [0.15, 0.25], [0.95, 0.95]] {
            let row: &[f64] = &row;
            let (mut by_record, mut by_split) = (Emitter::new(), Emitter::new());
            mapper.map(&row, &mut by_record);
            mapper.map_split(&[row], &mut by_split);
            let expected: Vec<(usize, u64)> = candidates
                .iter()
                .enumerate()
                .filter(|(_, c)| c.contains(row))
                .map(|(i, _)| (i, 1))
                .collect();
            assert_eq!(by_record.into_parts().0, expected);
            assert_eq!(by_split.into_parts().0, expected);
        }
    }

    #[test]
    fn mr_coregen_equals_serial_coregen() {
        // Planted 2D cluster; MR and serial generation must agree on the
        // proven set and cores.
        let mut data = Vec::new();
        for i in 0..300 {
            let t = (i as f64 + 0.5) / 300.0;
            data.push(vec![0.11 + 0.08 * t, 0.56 + 0.08 * t, t]);
        }
        for i in 0..300 {
            let t = (i as f64 + 0.5) / 300.0;
            data.push(vec![t, (t * 7.0).fract(), (t * 13.0).fract()]);
        }
        let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        let intervals = vec![iv(0, 1, 2), iv(1, 5, 6), iv(2, 0, 9)];
        let params = P3cParams {
            alpha_poisson: 1e-6,
            ..P3cParams::default()
        };
        let engine = Engine::new(MrConfig {
            split_size: 100,
            ..MrConfig::default()
        });
        let mr = generate_cluster_cores_mr(&engine, &intervals, &rows, &params).unwrap();
        let serial = crate::cores::generate_cluster_cores(&intervals, &rows, &params);
        let mut mr_proven = mr.proven.clone();
        let mut serial_proven = serial.proven.clone();
        mr_proven.sort_by(|a, b| a.0.cmp(&b.0));
        serial_proven.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(mr_proven, serial_proven);
        let mr_sigs: Vec<&Signature> = mr.cores.iter().map(|c| &c.signature).collect();
        let serial_sigs: Vec<&Signature> = serial.cores.iter().map(|c| &c.signature).collect();
        assert_eq!(mr_sigs, serial_sigs);
        assert!(mr.proving_jobs >= 1);
    }

    #[test]
    fn multi_level_collection_with_tiny_tc() {
        // t_c = 0 forces a proving job per level — the degenerate but
        // valid corner of the heuristic.
        let mut data = Vec::new();
        for i in 0..200 {
            let t = (i as f64 + 0.5) / 200.0;
            data.push(vec![0.15 + 0.05 * t, 0.35 + 0.05 * t]);
        }
        for i in 0..200 {
            let t = (i as f64 + 0.5) / 200.0;
            data.push(vec![t, (t * 3.0).fract()]);
        }
        let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        let intervals = vec![iv(0, 1, 1), iv(1, 3, 4)];
        let params = P3cParams {
            t_c: 0,
            alpha_poisson: 1e-6,
            ..P3cParams::default()
        };
        let engine = Engine::with_defaults();
        let result = generate_cluster_cores_mr(&engine, &intervals, &rows, &params).unwrap();
        let serial = crate::cores::generate_cluster_cores(&intervals, &rows, &params);
        assert_eq!(result.proven.len(), serial.proven.len());
    }

    #[test]
    fn empty_intervals() {
        let rows: Vec<&[f64]> = vec![];
        let engine = Engine::with_defaults();
        let result = generate_cluster_cores_mr(&engine, &[], &rows, &P3cParams::default()).unwrap();
        assert!(result.cores.is_empty());
        assert_eq!(result.proving_jobs, 0);
    }
}
