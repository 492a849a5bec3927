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
//!    every level; levels accumulate in a batch that one proving job
//!    validates. The paper stops collecting on
//!    `|Cand_j| = 0 ∨ (c_sum > T_c ∧ |Cand_j| > |Cand_{j−1}|)` with
//!    `T_c = 3·10⁴`, sized for a Hadoop job. But a level generated from
//!    unproven candidates is the complete `C(k, p)` lattice over their
//!    intervals, so here (DESIGN.md §4) the test runs *before* the level
//!    is generated, on the join-pair count that bounds its size: when
//!    batch plus bound would pass `min(t_c, 64·|A_rel|)` — what a proving
//!    job costs up front in this engine — the batch is proved and the
//!    level generated from the proven top instead, so an exploded level
//!    is never materialised, counted or truncated.
//! 3. **RSSC candidate proving** — the candidate batch ships through the
//!    distributed cache as an interval table plus front-coded interval-id
//!    lists; each mapper turns its split into per-interval point bitmaps
//!    and walks the candidates with prefix-shared AND/popcount (the
//!    vertical counter of [`crate::support`]), emitting per-split support
//!    counts; reducers sum them.

use crate::config::P3cParams;
use crate::cores::{
    filter_maximal, join_pairs, prefix_buckets, ClusterCore, CoreGenStats, SupportTester,
};
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
    fn map_split(&self, split: &[(usize, usize)], out: &mut Emitter<(), SigMsg>) {
        for &(i, end) in split {
            for j in (i + 1)..end {
                if let Some(cand) =
                    crate::cores::join_in_bucket(self.level[i], self.level[j], self.prune)
                {
                    out.emit((), SigMsg(cand));
                }
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
    let mut buckets = prefix_buckets(&sorted);
    if join_pairs(&buckets) <= t_gen {
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

/// What one collected batch may hold, in candidates: a proving job's
/// up-front cost in this engine ([`SupportPlan::fill_cost_in_candidates`]
/// of the level-1 plan — level 1 names every relevant attribute, so it
/// prices the fill of every later job), capped by `params.t_c`. Counting
/// a batch's unproven levels then never costs more than the job that
/// proving first would have added.
fn collection_budget(level1: &[Signature], params: &P3cParams) -> usize {
    params
        .t_c
        .min(SupportPlan::build(level1).fill_cost_in_candidates())
}

/// Runs cluster-core generation with multi-level candidate collection
/// (paper Section 5.3). Produces exactly the same proven set as the
/// serial [`crate::cores::generate_cluster_cores`] — the collection
/// heuristic only changes *when* supports are counted.
///
/// A batch opens with a level generated from proven signatures (level 1:
/// from none) — the serial path's level exactly — and grows by levels
/// generated from its own unproven top while batch plus the join-pair
/// bound on the next level stays within `min(t_c, 64·|A_rel|)` (module
/// docs); otherwise the batch is proved and the level generated from the
/// proven top. `t_c = 0` therefore proves every level. A bound past
/// `max_candidates_per_level` closes the batch the same way, so the valve
/// only ever cuts a batch's opening level, which the serial path cuts
/// identically.
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

    let budget = collection_budget(&level1, params);
    let cap = params.max_candidates_per_level;

    // The levels collected since the last proving job — the one owned
    // copy of every candidate until `prove_batch` moves it into the
    // support table.
    let mut batch: Vec<Vec<Signature>> = Vec::new();
    let mut csum = 0usize;
    let mut current = level1;
    let mut level = 1usize;

    while !current.is_empty() && level <= params.max_levels {
        // Only a batch's opening level can exceed the cap (a level
        // joining an open batch is bounded below it, see `close_batch`):
        // the serial path's level, cut as the serial path cuts it.
        crate::cores::truncate_level(&mut current, params, &mut stats);
        stats.candidates_per_level.push(current.len());
        csum += current.len();
        batch.push(current);
        let top = batch.last().expect("level just pushed");

        // Levels are sorted, so the buckets are exact.
        let next_bound = join_pairs(&prefix_buckets(top));
        let close_batch = csum + next_bound > budget || (cap > 0 && next_bound > cap);

        let proven_top: Vec<Signature>;
        let basis: &[Signature] = if close_batch {
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
            proven_top = proven_now
                .iter()
                .filter(|(s, _)| s.len() == level)
                .map(|(s, _)| s.clone())
                .collect();
            all_proven.extend(proven_now);
            &proven_top
        } else {
            top
        };
        // audit: unordered-ok — membership probes only, never iterated.
        let prune: HashSet<&Signature> = basis.iter().collect();
        current = generate_candidates_mr(engine, basis, &prune, params.t_gen)?;
        level += 1;
    }
    if !batch.is_empty() {
        all_proven.extend(prove_batch(
            engine,
            batch,
            rows,
            &tester,
            &mut table,
            &mut proven_set,
            &mut stats,
        )?);
        proving_jobs += 1;
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
    use crate::cores::{generate_cluster_cores, CoreGenResult};
    use p3c_mapreduce::MrConfig;
    use std::ops::Range;

    fn iv(attr: usize, lo: usize, hi: usize) -> Interval {
        Interval::new(attr, lo, hi, 10)
    }

    /// Everything the MR and the serial path must agree on: the proven
    /// list (by level, sorted within), the cores, proven counts per level
    /// and truncations. The MR path may count levels the serial path
    /// never generates; nothing in them is proven, so trailing zeros are
    /// dropped.
    fn assert_equals_serial(mr: &MrCoreGenResult, serial: &CoreGenResult, what: &str) {
        assert_eq!(mr.proven, serial.proven, "{what}: proven");
        let cores = |cores: &[ClusterCore]| -> Vec<(Signature, f64)> {
            cores
                .iter()
                .map(|c| (c.signature.clone(), c.support))
                .collect()
        };
        assert_eq!(cores(&mr.cores), cores(&serial.cores), "{what}: cores");
        let per_level = |stats: &CoreGenStats| {
            let mut proven = stats.proven_per_level.clone();
            while proven.last() == Some(&0) {
                proven.pop();
            }
            proven
        };
        assert_eq!(
            per_level(&mr.stats),
            per_level(&serial.stats),
            "{what}: proven per level"
        );
        assert_eq!(
            mr.stats.truncated_levels, serial.stats.truncated_levels,
            "{what}: truncated levels"
        );
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
        let serial = generate_cluster_cores(&intervals, &rows, &params);
        assert_equals_serial(&mr, &serial, "planted 2d");
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
        let serial = generate_cluster_cores(&intervals, &rows, &params);
        assert_equals_serial(&result, &serial, "t_c = 0");
        assert_eq!(
            result.stats.candidates_per_level,
            serial.stats.candidates_per_level
        );
        assert_eq!(result.proving_jobs, serial.stats.candidates_per_level.len());
    }

    /// `n` rows over `d` attributes: uniform noise (splitmix64), except
    /// that each `(attributes, rows)` group plants its rows at 0.25 —
    /// bin 2 of 10 — on all its attributes.
    fn planted(d: usize, n: usize, groups: &[(Range<usize>, usize)]) -> Vec<Vec<f64>> {
        let mut state = 7u64;
        let mut uniform = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut data: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..d).map(|_| uniform()).collect())
            .collect();
        let mut first = 0;
        for (attrs, count) in groups {
            for row in &mut data[first..first + count] {
                row[attrs.clone()].fill(0.25);
            }
            first += count;
        }
        data
    }

    /// Bin 2 of every attribute as the relevant intervals.
    fn bin2(d: usize) -> Vec<Interval> {
        (0..d).map(|a| iv(a, 2, 2)).collect()
    }

    /// A 5-dim cluster on the last of 12 attributes; the other 7
    /// intervals are each dense on their own rows. Level 1 is proven
    /// whole, so the unproven lattice is all of C(12, p) while only the
    /// cluster's C(5, p) — sorted last in every level — is ever proven.
    fn growing() -> Vec<Vec<f64>> {
        let mut groups: Vec<_> = (0..7).map(|a| (a..a + 1, 200)).collect();
        groups.push((7..12, 300));
        planted(12, 3000, &groups)
    }

    #[test]
    fn stop_rule_equals_serial_for_every_tc_and_lattice_shape() {
        /// A lattice: its rows, the levels the serial path counts, and
        /// the levels and jobs of the MR path at the derived budget.
        struct Shape {
            name: &'static str,
            data: Vec<Vec<f64>>,
            serial_levels: &'static [usize],
            derived_levels: &'static [usize],
            derived_jobs: usize,
        }
        let shapes = [
            // Every subset of a 6-dim cluster is proven: unproven and
            // proven generation coincide, the whole lattice is one batch.
            Shape {
                name: "complete 2^6",
                data: planted(6, 1000, &[(0..6, 400)]),
                serial_levels: &[6, 15, 20, 15, 6, 1],
                derived_levels: &[6, 15, 20, 15, 6, 1],
                derived_jobs: 1,
            },
            // C(12, 4) = 495 would pass the budget of 64 · 12: the batch
            // closes on C(12, 3) and level 4 comes from the proven top.
            Shape {
                name: "growing",
                data: growing(),
                serial_levels: &[12, 66, 10, 5, 1],
                derived_levels: &[12, 66, 220, 5, 1],
                derived_jobs: 2,
            },
            // A 3-dim cluster among 12 intervals: the serial levels
            // shrink from the start, the unproven ones do not.
            Shape {
                name: "shrinking",
                data: planted(12, 2000, &[(0..3, 400)]),
                serial_levels: &[12, 3, 1],
                derived_levels: &[12, 66, 220],
                derived_jobs: 1,
            },
        ];
        let engine = Engine::with_defaults();
        for shape in shapes {
            let Shape {
                name,
                data,
                serial_levels,
                derived_levels,
                derived_jobs,
            } = shape;
            let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
            let intervals = bin2(data[0].len());
            let singletons: Vec<Signature> =
                intervals.iter().map(|&i| Signature::singleton(i)).collect();
            let derived = collection_budget(&singletons, &P3cParams::default());
            assert_eq!(derived, 64 * intervals.len(), "{name}");

            let mut jobs = Vec::new();
            for t_c in [0, 1, derived, usize::MAX] {
                let what = format!("{name}, t_c = {t_c}");
                let params = P3cParams {
                    t_c,
                    ..P3cParams::default()
                };
                let mr = generate_cluster_cores_mr(&engine, &intervals, &rows, &params).unwrap();
                let serial = generate_cluster_cores(&intervals, &rows, &params);
                assert_eq!(serial.stats.candidates_per_level, serial_levels, "{what}");
                assert_equals_serial(&mr, &serial, &what);
                assert_eq!(mr.stats.truncated_levels, 0, "{what}");

                // A counted level is the serial path's level or fits the
                // budget — never the exploded lattice.
                let levels = &mr.stats.candidates_per_level;
                for (p, &counted) in levels.iter().enumerate() {
                    let serial_level = serial_levels.get(p).copied().unwrap_or(0);
                    assert!(
                        counted <= serial_level.max(t_c.min(derived)),
                        "{what}: level {} counts {counted}",
                        p + 1
                    );
                }
                if t_c <= 1 {
                    // No level fits beside another: one job per level,
                    // each generated from the proven level below.
                    assert_eq!(levels, serial_levels, "{what}");
                    assert_eq!(mr.proving_jobs, serial_levels.len(), "{what}");
                } else {
                    // `t_c` is only an upper bound on the derived budget.
                    assert_eq!(levels, derived_levels, "{what}");
                    assert_eq!(mr.proving_jobs, derived_jobs, "{what}");
                }
                jobs.push(mr.proving_jobs);
            }
            assert!(jobs.windows(2).all(|w| w[0] >= w[1]), "{name}: {jobs:?}");
        }
    }

    #[test]
    fn the_cap_cuts_only_levels_the_serial_path_cuts() {
        let data = growing();
        let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        let intervals = bin2(12);
        let engine = Engine::with_defaults();
        let run = |cap: usize| {
            let params = P3cParams {
                max_candidates_per_level: cap,
                ..P3cParams::default()
            };
            let mr = generate_cluster_cores_mr(&engine, &intervals, &rows, &params).unwrap();
            let serial = generate_cluster_cores(&intervals, &rows, &params);
            assert_equals_serial(&mr, &serial, &format!("cap {cap}"));
            (mr, serial)
        };

        // C(12, 3) = 220 from the unproven level 2 would pass a cap of
        // 100; the level is generated from the 10 proven pairs instead
        // and nothing is cut.
        let (mr, serial) = run(100);
        assert_eq!(mr.stats.truncated_levels, 0);
        assert_eq!(mr.stats.candidates_per_level, [12, 66, 10, 5, 1]);
        assert_eq!(
            mr.stats.candidates_per_level,
            serial.stats.candidates_per_level
        );

        // Level 2 has 66 candidates from the proven level 1 as well: both
        // paths keep the same first 50 — which cuts the cluster's pairs —
        // and prove the same 12 singletons, no more.
        let (mr, serial) = run(50);
        assert_eq!(mr.stats.truncated_levels, 1);
        assert_eq!(serial.stats.candidates_per_level, [12, 50]);
        assert_eq!(mr.stats.candidates_per_level[..2], [12, 50]);
        assert_eq!(mr.proven.len(), 12);
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
