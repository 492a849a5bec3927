//! MapReduce cluster-core generation (paper Section 5.3): the two jobs,
//! and the [`JobCounter`] through which
//! [`crate::cores::generate_cluster_cores_with`] — the one level loop,
//! multi-level candidate collection included — runs them.
//!
//! 1. **RSSC candidate proving** — one `p3c-prove-candidates` job per
//!    count. The candidate batch ships through the distributed cache as
//!    an interval table plus front-coded interval-id lists; each mapper
//!    turns its split into per-interval point bitmaps and walks the
//!    candidates with prefix-shared AND/popcount (the vertical counter of
//!    [`crate::support`]), emitting per-split support counts; reducers
//!    sum them.
//! 2. **Parallel candidate generation** — the paper splits the
//!    `k(k−1)/2` join pairs of `k` p-signatures across mappers. Only a
//!    pair sharing its (p−1)-prefix can survive the prune, so here the
//!    join enumerates the pairs within prefix buckets: serially while
//!    their count stays within `T_gen` ("each MR job adds some
//!    overhead"), above it as a map-only `p3c-candidate-generation` job
//!    over bucket rows, with the signature list shipped through the
//!    distributed cache.
//! 3. **The collection budget** — the paper collects unproven levels
//!    into one proving job until `c_sum > T_c ∧ |Cand_j| > |Cand_{j−1}|`
//!    with `T_c = 3·10⁴`, sized for a Hadoop job. Here a proving job
//!    costs up front what counting `64·|A_rel|` candidates costs
//!    (`SupportPlan::fill_cost_in_candidates`), so the counter's budget
//!    is `min(t_c, 64·|A_rel|)` (DESIGN.md §4).

use crate::config::P3cParams;
use crate::cores::{join_pairs, prefix_buckets, LevelCounter};
use crate::mr::SigMsg;
use crate::support::SupportPlan;
use crate::types::Signature;
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
    let mut counts = vec![0u64; candidates.len()];
    if counts.is_empty() {
        return Ok(counts);
    }
    let plan = SupportPlan::build(candidates);
    let result = engine.run_with_cache(
        "p3c-prove-candidates",
        rows,
        plan.byte_size(),
        &ProveMapper { plan: &plan },
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

// ------------------------------------------------------------ counter --

/// The MR [`LevelCounter`]: each count is one proving job over the rows,
/// each join goes through [`generate_candidates_mr`], and the budget is
/// what a proving job costs before its first candidate, capped by `t_c`.
pub struct JobCounter<'a> {
    engine: &'a Engine,
    rows: &'a [&'a [f64]],
    t_c: usize,
    t_gen: usize,
}

impl<'a> JobCounter<'a> {
    /// Counter running its jobs on `engine` over `rows`, with the `t_c`
    /// and `t_gen` of `params`.
    pub fn new(engine: &'a Engine, rows: &'a [&'a [f64]], params: &P3cParams) -> Self {
        Self {
            engine,
            rows,
            t_c: params.t_c,
            t_gen: params.t_gen,
        }
    }
}

impl LevelCounter for JobCounter<'_> {
    type Error = MrError;

    fn count_level(&mut self, candidates: &[Signature]) -> Result<Vec<u64>, MrError> {
        proving_job(self.engine, candidates, self.rows)
    }

    /// Level 1 names every relevant attribute, so its plan prices the
    /// fill of every later job.
    fn budget(&self, level1: &[Signature]) -> usize {
        self.t_c
            .min(SupportPlan::build(level1).fill_cost_in_candidates())
    }

    fn join(
        &mut self,
        basis: &[Signature],
        // audit: unordered-ok — membership probes only, never iterated.
        prune: &HashSet<&Signature>,
    ) -> Result<Vec<Signature>, MrError> {
        generate_candidates_mr(self.engine, basis, prune, self.t_gen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::P3cParams;
    use crate::cores::{
        generate_cluster_cores, generate_cluster_cores_with, ClusterCore, CoreGenResult,
        CoreGenStats,
    };
    use crate::oracle::{bin2, growing, planted};
    use crate::types::Interval;
    use p3c_mapreduce::MrConfig;

    fn iv(attr: usize, lo: usize, hi: usize) -> Interval {
        Interval::new(attr, lo, hi, 10)
    }

    /// Core generation through a [`JobCounter`] on a fresh engine with
    /// `split_size`: the result, and the proving jobs in the ledger.
    fn mr_run(
        intervals: &[Interval],
        rows: &[&[f64]],
        params: &P3cParams,
        split_size: usize,
    ) -> (CoreGenResult, usize) {
        let engine = Engine::new(MrConfig {
            split_size,
            ..MrConfig::default()
        });
        let mut counter = JobCounter::new(&engine, rows, params);
        let result =
            generate_cluster_cores_with(intervals, rows.len(), params, &mut counter).unwrap();
        let jobs = engine
            .cluster_metrics()
            .jobs()
            .iter()
            .filter(|j| j.job_name == "p3c-prove-candidates")
            .count();
        (result, jobs)
    }

    /// Everything the job counter's and the scan counter's runs must
    /// agree on: the proven list (by level, sorted within), the cores,
    /// proven counts per level and truncations. The job counter may
    /// count levels the scan counter never generates; nothing in them is
    /// proven, so trailing zeros are dropped.
    fn assert_equals_serial(mr: &CoreGenResult, serial: &CoreGenResult, what: &str) {
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
        // Planted 2D cluster; the job and the scan counter must agree on
        // the proven set and cores.
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
        let (mr, jobs) = mr_run(&intervals, &rows, &params, 100);
        let serial = generate_cluster_cores(&intervals, &rows, &params);
        assert_equals_serial(&mr, &serial, "planted 2d");
        assert!(jobs >= 1);
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
        let (result, jobs) = mr_run(&intervals, &rows, &params, 8192);
        let serial = generate_cluster_cores(&intervals, &rows, &params);
        assert_equals_serial(&result, &serial, "t_c = 0");
        assert_eq!(
            result.stats.candidates_per_level,
            serial.stats.candidates_per_level
        );
        assert_eq!(jobs, serial.stats.candidates_per_level.len());
    }

    #[test]
    fn stop_rule_equals_serial_for_every_tc_and_lattice_shape() {
        /// A lattice: its rows, the levels the scan counter counts, and
        /// the levels and jobs of the job counter at the derived budget.
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
            let unbounded = P3cParams {
                t_c: usize::MAX,
                ..P3cParams::default()
            };
            let derived = JobCounter::new(&engine, &rows, &unbounded).budget(&singletons);
            assert_eq!(derived, 64 * intervals.len(), "{name}");

            let mut all_jobs = Vec::new();
            for t_c in [0, 1, derived, usize::MAX] {
                let what = format!("{name}, t_c = {t_c}");
                let params = P3cParams {
                    t_c,
                    ..P3cParams::default()
                };
                let (mr, jobs) = mr_run(&intervals, &rows, &params, 8192);
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
                    assert_eq!(jobs, serial_levels.len(), "{what}");
                } else {
                    // `t_c` is only an upper bound on the derived budget.
                    assert_eq!(levels, derived_levels, "{what}");
                    assert_eq!(jobs, derived_jobs, "{what}");
                }
                all_jobs.push(jobs);
            }
            assert!(
                all_jobs.windows(2).all(|w| w[0] >= w[1]),
                "{name}: {all_jobs:?}"
            );
        }
    }

    #[test]
    fn the_cap_cuts_only_levels_the_serial_path_cuts() {
        let data = growing();
        let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        let intervals = bin2(12);
        let run = |cap: usize| {
            let params = P3cParams {
                max_candidates_per_level: cap,
                ..P3cParams::default()
            };
            let (mr, _) = mr_run(&intervals, &rows, &params, 8192);
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
        // counters keep the same first 50 — which cuts the cluster's
        // pairs — and prove the same 12 singletons, no more.
        let (mr, serial) = run(50);
        assert_eq!(mr.stats.truncated_levels, 1);
        assert_eq!(serial.stats.candidates_per_level, [12, 50]);
        assert_eq!(mr.stats.candidates_per_level[..2], [12, 50]);
        assert_eq!(mr.proven.len(), 12);
    }

    #[test]
    fn empty_intervals() {
        let rows: Vec<&[f64]> = vec![];
        let (result, jobs) = mr_run(&[], &rows, &P3cParams::default(), 8192);
        assert!(result.cores.is_empty());
        assert_eq!(jobs, 0);
    }
}
