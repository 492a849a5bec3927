//! Incremental P3C+-Light over an append/retract block log — the
//! engine behind the multi-tenant clustering service (DESIGN.md §14).
//!
//! Every statistic the paper decomposes into MapReduce jobs is in
//! summation form, which makes histogram bin supports and signature
//! supports *mergeable deltas*: the statistic over the cumulative
//! dataset is the exact sum of per-block contributions. The engine
//! exploits this to keep re-cluster latency sublinear in the total
//! `n` for steady append streams, while staying **byte-identical** to a
//! from-scratch [`P3cPlusLight`](crate::p3cplus::P3cPlusLight) run on
//! the cumulative data:
//!
//! * **Maintained histograms** — an appended block's values are folded
//!   into the per-attribute histograms with exact `+1.0` increments; a
//!   retract subtracts the block's partial histogram. Counts are
//!   integer-valued f64s far below 2⁵³, so the maintained counts equal
//!   a from-scratch scan bit-for-bit. When the bin rule steps (bin
//!   count is a function of `n`), the histograms are rebuilt from the
//!   cumulative data at the next recluster — an amortized-rare O(n)
//!   event.
//! * **Maintained signature supports** — a [`SupportCache`] holds every
//!   signature support ever counted at the current discretization and
//!   folds each delta block in with one RSSC pass over the *delta*
//!   (exact `u64` adds/subtracts). At recluster, the level loop every
//!   pipeline runs ([`crate::cores::generate_cluster_cores_with`]) counts
//!   through a cached [`LevelCounter`], one level per count: levels whose
//!   candidates are all cached touch no data at all; only never-seen
//!   candidates trigger a scan.
//! * **Maintained memberships** — appends only add rows at the end, so
//!   while the core set is unchanged the Light membership mapping grows
//!   monotonically in id order. The engine classifies each appended row
//!   against the current cores and adds it to that core's
//!   [`ClusterSummary`] — the same summary batch Light folds — from
//!   which the finalization (attribute inspection + interval
//!   tightening) is recomputed without reading any old row.
//!
//! Re-execution is **lineage-dirty**: each recluster re-runs only the
//! pipeline stages whose maintained inputs were invalidated. The cheap
//! guards are checked from maintained state — bin-rule step dirties the
//! histogram stage, a cache miss dirties one support-count level, a
//! retract or a changed core set dirties the finalization stage — and
//! any stage that is *not* dirty is answered from summation-form state.
//! When everything is dirty the engine degrades to exactly the batch
//! pipeline over the cumulative rows (trivially byte-identical); when
//! nothing is, a recluster costs `O(result)` instead of `O(n · d)`.
//!
//! The full-EM pipeline is deliberately *not* maintained here: an EM
//! parameter trajectory depends on every point in every iteration, so
//! an exact incremental variant is Ω(n) by the byte-identity contract.
//! The Light pipeline (no EM, Section 6) is the service path.

use crate::config::{BinRuleChoice, P3cParams};
use crate::cores::{ClusterCore, LevelCounter, MAX_LEVELS};
use crate::histogram::{
    build_histograms_blocks_threads, build_histograms_columnar_threads, AttributeHistograms,
};
use crate::inspect::{inspection_bins, Bounds, ClusterSummary};
use crate::p3cplus::{
    core_phase_from_histograms, empty_result, light_classify, light_clustering,
    light_membership_from_index, light_summaries, LightMembership, P3cResult,
};
use crate::support::{SupportCache, SupportIndex};
use crate::types::{Interval, Signature};
use p3c_dataset::bytes::{self, DecodeError, Reader};
use p3c_dataset::{BlockEntry, BlockLog, RowBlock};
use p3c_mapreduce::DatasetStore;
use p3c_stats::{bin_rows, Histogram};
use std::cell::OnceCell;
use std::sync::Arc;

/// Which lineage path a recluster took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReclusterPath {
    /// No live rows: the empty clustering, no stage executed.
    Empty,
    /// Append-only since the last recluster and the core set came out
    /// unchanged: the finalization was answered entirely from
    /// maintained per-core state — no old row was read.
    Fast,
    /// Some stage's lineage was dirty (first run, retract, bin-rule
    /// step, or a changed core set): membership and finalization were
    /// re-executed over the cumulative rows.
    Full,
}

impl ReclusterPath {
    /// Stable lowercase label (CLI/bench output).
    pub fn label(self) -> &'static str {
        match self {
            ReclusterPath::Empty => "empty",
            ReclusterPath::Fast => "fast",
            ReclusterPath::Full => "full",
        }
    }
}

/// A recluster's result plus the lineage path that produced it.
#[derive(Debug, Clone)]
pub struct ReclusterOutcome {
    /// The clustering — byte-identical to a from-scratch
    /// `P3cPlusLight` run on the cumulative dataset.
    pub result: P3cResult,
    /// Which path produced it.
    pub path: ReclusterPath,
}

/// Lifetime counters of one incremental engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct IncrementalStats {
    /// Blocks appended.
    pub appends: u64,
    /// Blocks retracted.
    pub retracts: u64,
    /// Rows folded into maintained statistics via delta passes.
    pub delta_rows: u64,
    /// Reclusters served.
    pub reclusters: u64,
    /// Reclusters that finalized from maintained state only.
    pub fast_reclusters: u64,
    /// Reclusters that re-executed membership over the cumulative rows.
    pub full_reclusters: u64,
    /// Histogram rebuilds forced by bin-rule steps.
    pub hist_rebuilds: u64,
    /// Core-generation levels that missed the support cache and were
    /// counted over the cumulative rows. However many levels miss, a
    /// recluster bins the rows at most once.
    pub support_scans: u64,
    /// Core-generation levels answered from the support cache alone.
    pub cached_levels: u64,
}

/// The maintained model: the cores of the last recluster, the Light
/// membership mapping kept current under appends, and the per-core
/// finalization summaries.
#[derive(Debug, Clone)]
struct ModelState {
    cores: Vec<ClusterCore>,
    membership: LightMembership,
    summaries: Vec<ClusterSummary>,
    /// Per core: set when `rule(|unique|)` stepped past the summary's
    /// bin count. Its histograms stay as they were, and the summary is
    /// refolded from the rows at the next recluster.
    stale: Vec<bool>,
}

/// Incremental P3C+-Light over one named dataset's block log.
///
/// Row payloads live in a [`DatasetStore`] (one entry per appended
/// block, named `incr/<name>/block-<id>`), so a budgeted store can
/// spill cold blocks through the columnar codec and the
/// engine's resident state stays `O(maintained statistics + model)`.
/// Every method that touches rows takes the store explicitly — the
/// service owns one shared budgeted store across tenants.
#[derive(Debug)]
pub struct IncrementalLight {
    name: String,
    params: P3cParams,
    log: BlockLog,
    /// Maintained per-attribute histograms at the current uniform
    /// discretization; meaningless while `hists_valid` is false.
    hists: AttributeHistograms,
    hists_valid: bool,
    /// The current uniform bin count `rule(n)` the maintained
    /// histograms and support cache are stated at.
    bins: usize,
    supports: SupportCache,
    model: Option<ModelState>,
    /// Set by retracts: maintained memberships are id-shifted and the
    /// next recluster must re-execute the membership stage.
    dirty_full: bool,
    stats: IncrementalStats,
}

impl IncrementalLight {
    /// New engine for the named dataset.
    ///
    /// # Panics
    /// Panics on invalid params or on the exact-IQR bin rule: per-
    /// attribute data-dependent bin counts change with every block, so
    /// there is no stable discretization to maintain deltas against —
    /// the service restricts itself to the uniform rules.
    pub fn new(name: impl Into<String>, params: P3cParams) -> Self {
        params.validate();
        assert!(
            params.bin_rule != BinRuleChoice::FreedmanDiaconisIqr,
            "incremental maintenance requires a uniform bin rule"
        );
        Self {
            name: name.into(),
            params,
            log: BlockLog::new(),
            hists: AttributeHistograms {
                histograms: Vec::new(),
                bins: 0,
            },
            hists_valid: false,
            bins: 0,
            supports: SupportCache::new(),
            model: None,
            dirty_full: false,
            stats: IncrementalStats::default(),
        }
    }

    /// The engine's parameters.
    pub fn params(&self) -> &P3cParams {
        &self.params
    }

    /// The dataset name this engine maintains.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Cumulative live rows.
    pub fn total_rows(&self) -> usize {
        self.log.total_rows()
    }

    /// Live block ids in log order.
    pub fn block_ids(&self) -> Vec<u64> {
        self.log.entries().iter().map(|e| e.id).collect()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> IncrementalStats {
        self.stats
    }

    fn rule_bins(&self, n: usize) -> usize {
        self.params.bin_rule.to_rule().num_bins(n).max(1)
    }

    /// Drops maintained histogram/support state (bin-rule step); the
    /// next recluster rebuilds both from the cumulative rows.
    fn invalidate_stats(&mut self, new_bins: usize) {
        self.hists_valid = false;
        self.supports.clear();
        self.bins = new_bins;
    }

    /// Appends a block of rows and folds it into every maintained
    /// statistic; returns the block's id. Cost is `O(|block| · (d +
    /// cached signatures + cores))` — independent of the cumulative
    /// dataset size.
    pub fn append(&mut self, store: &DatasetStore, block: RowBlock) -> Result<u64, String> {
        let old_n = self.log.total_rows();
        let id = self.log.append(block.len(), block.dim())?;
        self.stats.appends += 1;
        if block.is_empty() {
            return Ok(id);
        }
        let d = block.dim();
        let new_bins = self.rule_bins(old_n + block.len());

        // Maintained histograms + signature supports (summation form).
        if self.hists.histograms.is_empty() && !self.hists_valid && self.bins == 0 {
            // First rows ever: start maintaining from scratch at the
            // fresh discretization instead of forcing a rebuild.
            self.bins = new_bins;
            self.hists = AttributeHistograms {
                histograms: vec![Histogram::new(new_bins); d],
                bins: new_bins,
            };
            self.hists_valid = true;
        }
        if new_bins != self.bins {
            self.invalidate_stats(new_bins);
        } else if self.hists_valid {
            bin_rows(&mut self.hists.histograms, block.rows());
            self.supports.apply_delta(&block.row_refs(), false);
            self.stats.delta_rows += block.len() as u64;
        }

        // Maintained memberships: classify each appended row against
        // the current cores. Valid only while no retract intervened;
        // whether the cores themselves survived is checked at
        // recluster.
        if !self.dirty_full {
            if let Some(model) = &mut self.model {
                for (l, row) in block.rows().enumerate() {
                    let id = old_n + l;
                    let hits = light_classify(row, id, &model.cores, &mut model.membership);
                    if hits == 0 {
                        continue;
                    }
                    let inspected = hits == 1;
                    for (c, members) in model.membership.members.iter().enumerate() {
                        if members.last() != Some(&id) {
                            continue;
                        }
                        let summary = &mut model.summaries[c];
                        if inspected && !model.stale[c] {
                            // Stale once the bin rule steps (or on the
                            // first inspected row of an empty set).
                            let bins = inspection_bins(summary.inspected.rows + 1, &self.params);
                            model.stale[c] =
                                summary.hists.first().map(Histogram::num_bins) != Some(bins);
                        }
                        if model.stale[c] {
                            summary.add_bounds(row, inspected);
                        } else {
                            summary.add([row], inspected);
                        }
                    }
                }
            }
        }

        store.put(&block_name(&self.name, id), block);
        Ok(id)
    }

    /// Retracts block `id`, subtracting it from the maintained
    /// histograms and signature supports (exact — integer-valued f64
    /// and u64 arithmetic). Returns `false` if no live block has that
    /// id. Retraction shifts the ids of every later row, so the next
    /// recluster re-executes the membership stage.
    pub fn retract(&mut self, store: &DatasetStore, id: u64) -> Result<bool, String> {
        if !self.log.contains(id) {
            return Ok(false);
        }
        let name = block_name(&self.name, id);
        let entry_rows = self
            .log
            .entries()
            .iter()
            .find(|e| e.id == id)
            .map(|e| e.rows);
        let block = match entry_rows {
            Some(0) => None,
            _ => Some(store.get(&name).map_err(|e| e.to_string())?),
        };
        self.log.retract(id);
        self.stats.retracts += 1;
        if let Some(block) = block {
            let d = block.dim();
            let new_bins = self.rule_bins(self.log.total_rows());
            if new_bins != self.bins {
                self.invalidate_stats(new_bins);
            } else if self.hists_valid {
                let mut delta = vec![Histogram::new(self.bins); d];
                bin_rows(&mut delta, block.rows());
                for (h, dh) in self.hists.histograms.iter_mut().zip(&delta) {
                    h.subtract(dh);
                }
                self.supports.apply_delta(&block.row_refs(), true);
                self.stats.delta_rows += block.len() as u64;
            }
            store.remove(&name);
        }
        self.dirty_full = true;
        Ok(true)
    }

    /// Materializes the cumulative dataset (live blocks in log order) —
    /// the exact row sequence a from-scratch batch run would see.
    pub fn materialize(&self, store: &DatasetStore) -> Result<RowBlock, String> {
        let pinned = pin_live_blocks(&self.name, &self.log, store)?;
        let refs: Vec<&RowBlock> = pinned.iter().map(|(_, b)| b.as_ref()).collect();
        Ok(RowBlock::concat(&refs))
    }

    /// Removes every stored block of this dataset from the store.
    pub fn drop_data(&mut self, store: &DatasetStore) {
        for e in self.log.entries() {
            store.remove(&block_name(&self.name, e.id));
        }
        self.log = BlockLog::new();
        self.invalidate_stats(0);
        self.hists.histograms.clear();
        self.hists.bins = 0;
        self.model = None;
        self.dirty_full = false;
    }

    /// Estimated resident bytes of the maintained state (admission
    /// accounting; block payloads are accounted by the store itself).
    pub fn mem_bytes(&self) -> usize {
        let hist_bytes = self.hists.histograms.len() * self.bins * 8;
        let model_bytes = self.model.as_ref().map_or(0, |m| {
            let ids: usize = m
                .membership
                .members
                .iter()
                .chain(m.membership.unique_members.iter())
                .map(Vec::len)
                .sum::<usize>()
                + m.membership.outliers.len();
            let summaries: usize = m
                .summaries
                .iter()
                .map(|s| {
                    (s.others.min.len() * 4
                        + s.hists.iter().map(Histogram::num_bins).sum::<usize>())
                        * 8
                })
                .sum();
            ids * 8 + summaries
        });
        hist_bytes + self.supports.mem_bytes() + model_bytes
    }

    /// Rough working-set bytes of a recluster job (admission
    /// accounting): the live blocks a full recluster pins decoded and
    /// reads in place — no second, concatenated copy — plus the
    /// resident state.
    pub fn recluster_estimate(&self) -> usize {
        self.log.total_rows() * self.log.dim().unwrap_or(0) * 8 + self.mem_bytes()
    }

    /// Re-clusters the cumulative dataset, re-executing only the
    /// lineage-dirty stages. The returned model is byte-identical to
    /// `P3cPlusLight::new(params).cluster(&cumulative)`.
    pub fn recluster(&mut self, store: &DatasetStore) -> Result<ReclusterOutcome, String> {
        self.stats.reclusters += 1;
        let n = self.log.total_rows();
        let threads = self.params.threads;
        if n == 0 {
            // A 0-row dataset has dimension 0; run the same (empty)
            // pure functions batch would.
            let hists = build_histograms_columnar_threads(0, 0, &[], &[], threads);
            let mut counter = NoRowsCounter;
            let (cores, stats) = core_phase_from_histograms(&hists, 0, &self.params, &mut counter)?;
            debug_assert!(cores.is_empty());
            self.model = Some(ModelState {
                cores: Vec::new(),
                membership: LightMembership::default(),
                summaries: Vec::new(),
                stale: Vec::new(),
            });
            self.dirty_full = false;
            return Ok(ReclusterOutcome {
                result: empty_result(0, stats),
                path: ReclusterPath::Empty,
            });
        }
        let d = self.log.dim().expect("n > 0 implies known dimension");

        let pinned = OnceCell::new();
        let cum = CumulativeRows {
            tenant: &self.name,
            log: &self.log,
            store,
            pinned: &pinned,
            rows: OnceCell::new(),
        };

        // Stage 1: histograms — from maintained counts, or rebuilt by
        // binning each pinned block if the bin rule stepped.
        if !self.hists_valid {
            let buffers: Vec<&[f64]> = cum.blocks()?.iter().map(|(_, b)| b.as_slice()).collect();
            let bins_per_attr = vec![self.bins; d];
            self.hists = build_histograms_blocks_threads(d, &buffers, &bins_per_attr, threads);
            self.hists_valid = true;
            self.stats.hist_rebuilds += 1;
        }

        // Stages 2–4: relevant intervals, core generation (cached
        // supports), redundancy filter. Pure functions of the
        // histograms and the support counts.
        let mut counter = CachedCounter {
            cache: &mut self.supports,
            cum: &cum,
            index: SupportIndex::default(),
            scans: 0,
            cached_levels: 0,
        };
        let (cores, mut stats) =
            core_phase_from_histograms(&self.hists, n, &self.params, &mut counter)?;
        let CachedCounter {
            index,
            scans,
            cached_levels,
            ..
        } = counter;
        self.stats.support_scans += scans;
        self.stats.cached_levels += cached_levels;

        // Stage 5: membership + finalization — from maintained state
        // when its lineage is clean (append-only and the core set came
        // out unchanged), else re-executed over the cumulative rows.
        // Supports (and expected supports) legitimately grow with every
        // append; membership and finalization depend only on the core
        // *signatures*, so the guard compares those — in order, since
        // maintained per-core state is indexed by core position.
        let fast = !self.dirty_full
            && self.model.as_ref().is_some_and(|m| {
                m.cores.len() == cores.len()
                    && m.cores
                        .iter()
                        .zip(&cores)
                        .all(|(a, b)| a.signature == b.signature)
            });
        let outcome = if cores.is_empty() {
            // Batch's empty path: every point an outlier, stats.outliers
            // left untouched. Maintain the (trivial) model so future
            // appends keep classifying rows.
            self.model = Some(ModelState {
                cores: Vec::new(),
                membership: LightMembership {
                    members: Vec::new(),
                    unique_members: Vec::new(),
                    outliers: (0..n).collect(),
                },
                summaries: Vec::new(),
                stale: Vec::new(),
            });
            ReclusterOutcome {
                result: empty_result(n, stats),
                path: if fast {
                    ReclusterPath::Fast
                } else {
                    ReclusterPath::Full
                },
            }
        } else if fast {
            self.stats.fast_reclusters += 1;
            let model = self.model.as_mut().expect("fast implies model");
            // Same signatures, fresher supports: keep the stored cores
            // current so the next guard compares against this run.
            model.cores = cores.clone();
            refresh_stale_summaries(model, &cum, &self.params)?;
            stats.outliers = model.membership.outliers.len();
            let clustering =
                light_clustering(&cores, &model.membership, &model.summaries, &self.params);
            ReclusterOutcome {
                result: P3cResult {
                    clustering,
                    cores,
                    stats,
                },
                path: ReclusterPath::Fast,
            }
        } else {
            self.stats.full_reclusters += 1;
            let rows = cum.rows()?;
            // The bitmaps a support miss filled cover every core
            // interval; without a miss, bin only the cores' attributes.
            let mut index = if index.is_filled() {
                index
            } else {
                SupportIndex::default()
            };
            let membership = light_membership_from_index(&mut index, rows, &cores);
            drop(index);
            stats.outliers = membership.outliers.len();
            let summaries = light_summaries(rows, &membership, &self.params);
            let clustering = light_clustering(&cores, &membership, &summaries, &self.params);
            self.model = Some(ModelState {
                cores: cores.clone(),
                membership,
                stale: vec![false; summaries.len()],
                summaries,
            });
            ReclusterOutcome {
                result: P3cResult {
                    clustering,
                    cores,
                    stats,
                },
                path: ReclusterPath::Full,
            }
        };
        self.dirty_full = false;
        Ok(outcome)
    }
}

/// [`IncrementalLight`] is the P3C+ tenant of the generic clustering
/// service: blocks are [`RowBlock`]s and a re-cluster yields the
/// [`ReclusterOutcome`] (model + lineage path).
impl p3c_mapreduce::service::Tenant for IncrementalLight {
    type Block = RowBlock;
    type Model = ReclusterOutcome;

    fn append(&mut self, store: &DatasetStore, block: RowBlock) -> Result<u64, String> {
        IncrementalLight::append(self, store, block)
    }

    fn retract(&mut self, store: &DatasetStore, id: u64) -> Result<bool, String> {
        IncrementalLight::retract(self, store, id)
    }

    fn recluster(&mut self, store: &DatasetStore) -> Result<ReclusterOutcome, String> {
        IncrementalLight::recluster(self, store)
    }

    fn mem_bytes(&self) -> usize {
        IncrementalLight::mem_bytes(self)
    }

    fn recluster_estimate(&self) -> usize {
        IncrementalLight::recluster_estimate(self)
    }

    fn drop_data(&mut self, store: &DatasetStore) {
        IncrementalLight::drop_data(self, store)
    }
}

// ---- Durable snapshot codec (service crash recovery, DESIGN.md §16) ----
//
// Little-endian encoding over the `p3c_dataset::bytes` primitives. The
// snapshot captures everything a restarted process needs to continue
// byte-identically — params, block log, maintained histograms, support
// cache, model state, stats — except the live block payloads: the
// service journals each block once, and recovery hands it back from
// that record (`restore_block`). A version-1 state also carried the
// payloads; it is still read.

/// Snapshot state version; bump on any layout change.
const STATE_VERSION: u32 = 2;

/// Create record version; its layout has not changed since 1.
const CREATE_VERSION: u32 = 1;

fn put_params(buf: &mut Vec<u8>, p: &P3cParams) {
    bytes::put_f64(buf, p.alpha_chi2);
    bytes::put_f64(buf, p.alpha_poisson);
    bytes::put_f64(buf, p.theta_cc);
    bytes::put_bool(buf, p.use_effect_size);
    bytes::put_bool(buf, p.use_redundancy_filter);
    bytes::put_bool(buf, p.use_ai_proving);
    buf.push(match p.bin_rule {
        BinRuleChoice::Sturges => 0,
        BinRuleChoice::FreedmanDiaconis => 1,
        BinRuleChoice::FreedmanDiaconisIqr => 2,
    });
    buf.push(match p.outlier {
        crate::config::OutlierMethod::Naive => 0,
        crate::config::OutlierMethod::Mvb => 1,
        crate::config::OutlierMethod::Mcd => 2,
    });
    bytes::put_f64(buf, p.alpha_outlier);
    bytes::put_usize(buf, p.em_max_iters);
    bytes::put_f64(buf, p.em_tol);
    bytes::put_usize(buf, p.t_gen);
    bytes::put_usize(buf, p.t_c);
    // The level bound is a constant; its slot keeps encoded params
    // byte-identical to those written while it was a field.
    bytes::put_usize(buf, MAX_LEVELS);
    bytes::put_usize(buf, p.max_candidates_per_level);
    bytes::put_usize(buf, p.threads);
}

/// Decodes params written by [`put_params`], rejecting any the engine's
/// constructor would (an out-of-range level, the exact-IQR bin rule) and
/// a level bound other than [`MAX_LEVELS`].
fn read_params(r: &mut Reader<'_>) -> Result<P3cParams, DecodeError> {
    let alpha_chi2 = r.f64()?;
    let alpha_poisson = r.f64()?;
    let theta_cc = r.f64()?;
    let use_effect_size = r.bool()?;
    let use_redundancy_filter = r.bool()?;
    let use_ai_proving = r.bool()?;
    let bin_rule = match r.u8()? {
        0 => BinRuleChoice::Sturges,
        1 => BinRuleChoice::FreedmanDiaconis,
        _ => return Err(DecodeError::Malformed("bin rule tag")),
    };
    let outlier = match r.u8()? {
        0 => crate::config::OutlierMethod::Naive,
        1 => crate::config::OutlierMethod::Mvb,
        2 => crate::config::OutlierMethod::Mcd,
        _ => return Err(DecodeError::Malformed("outlier method tag")),
    };
    let params = P3cParams {
        alpha_chi2,
        alpha_poisson,
        theta_cc,
        use_effect_size,
        use_redundancy_filter,
        use_ai_proving,
        bin_rule,
        outlier,
        alpha_outlier: r.f64()?,
        em_max_iters: r.usize()?,
        em_tol: r.f64()?,
        t_gen: r.usize()?,
        t_c: r.usize()?,
        max_candidates_per_level: {
            if r.usize()? != MAX_LEVELS {
                return Err(DecodeError::Malformed("max_levels"));
            }
            r.usize()?
        },
        threads: r.usize()?,
    };
    params.check().map_err(DecodeError::Malformed)?;
    Ok(params)
}

fn put_signature(buf: &mut Vec<u8>, sig: &Signature) {
    bytes::put_usize(buf, sig.intervals().len());
    for iv in sig.intervals() {
        iv.encode_into(buf);
    }
}

fn read_signature(r: &mut Reader<'_>) -> Result<Signature, DecodeError> {
    Signature::from_decoded(r.seq(Interval::ENCODED_BYTES, Interval::decode)?)
}

fn put_histogram(buf: &mut Vec<u8>, h: &Histogram) {
    bytes::put_f64s(buf, h.counts());
}

fn read_histogram(r: &mut Reader<'_>) -> Result<Histogram, DecodeError> {
    let counts = r.f64s()?;
    if counts.is_empty() {
        return Err(DecodeError::Malformed("histogram with zero bins"));
    }
    Ok(Histogram::from_counts(counts))
}

fn put_id_lists(buf: &mut Vec<u8>, lists: &[Vec<usize>]) {
    bytes::put_usize(buf, lists.len());
    for ids in lists {
        bytes::put_usizes(buf, ids);
    }
}

impl IncrementalLight {
    /// Serializes the engine state — maintained statistics, model, and
    /// the block log naming every live block — for the service's durable
    /// snapshot. The live blocks' rows are not in it: the service keeps
    /// each one in the journal record that appended it, so the store is
    /// not read.
    pub fn snapshot_bytes(&self, _store: &DatasetStore) -> Result<Vec<u8>, String> {
        let mut buf = Vec::new();
        self.snapshot_into(&mut buf);
        Ok(buf)
    }

    /// Appends [`IncrementalLight::snapshot_bytes`]'s encoding to `buf`.
    fn snapshot_into(&self, buf: &mut Vec<u8>) {
        bytes::put_u32(buf, STATE_VERSION);
        put_params(buf, &self.params);

        bytes::put_usize(buf, self.log.entries().len());
        for e in self.log.entries() {
            bytes::put_u64(buf, e.id);
            bytes::put_usize(buf, e.rows);
        }
        bytes::put_u64(buf, self.log.next_id());
        bytes::put_bool(buf, self.log.dim().is_some());
        bytes::put_usize(buf, self.log.dim().unwrap_or(0));

        bytes::put_usize(buf, self.hists.histograms.len());
        for h in &self.hists.histograms {
            put_histogram(buf, h);
        }
        bytes::put_usize(buf, self.hists.bins);
        bytes::put_bool(buf, self.hists_valid);
        bytes::put_usize(buf, self.bins);

        bytes::put_usize(buf, self.supports.len());
        for (sig, count) in self.supports.iter() {
            put_signature(buf, sig);
            bytes::put_u64(buf, count);
        }

        bytes::put_bool(buf, self.model.is_some());
        if let Some(m) = &self.model {
            bytes::put_usize(buf, m.cores.len());
            for core in &m.cores {
                put_signature(buf, &core.signature);
                bytes::put_f64(buf, core.support);
                bytes::put_f64(buf, core.expected);
            }
            put_id_lists(buf, &m.membership.members);
            put_id_lists(buf, &m.membership.unique_members);
            bytes::put_usizes(buf, &m.membership.outliers);
            bytes::put_usize(buf, m.summaries.len());
            for (s, &stale) in m.summaries.iter().zip(&m.stale) {
                let members = s.members();
                bytes::put_f64s(buf, &members.min);
                bytes::put_f64s(buf, &members.max);
                bytes::put_f64s(buf, &s.inspected.min);
                bytes::put_f64s(buf, &s.inspected.max);
                bytes::put_usize(buf, s.hists.len());
                for h in &s.hists {
                    put_histogram(buf, h);
                }
                bytes::put_bool(buf, stale);
            }
        }

        bytes::put_bool(buf, self.dirty_full);
        let s = &self.stats;
        for v in [
            s.appends,
            s.retracts,
            s.delta_rows,
            s.reclusters,
            s.fast_reclusters,
            s.full_reclusters,
            s.hist_rebuilds,
            s.support_scans,
            s.cached_levels,
        ] {
            bytes::put_u64(buf, v);
        }
    }

    /// Rehydrates an engine from [`IncrementalLight::snapshot_bytes`]
    /// output. The live blocks' rows follow through
    /// [`restore_block`](p3c_mapreduce::service::DurableTenant::restore_block);
    /// a version-1 state carries them, and they go into `store` here.
    /// Once every block is back, the engine continues byte-identically
    /// to the one that was snapshotted.
    pub fn from_snapshot_bytes(
        name: &str,
        bytes: &[u8],
        store: &DatasetStore,
    ) -> Result<Self, String> {
        let mut r = Reader::new(bytes);
        let version = r.u32()?;
        if !(1..=STATE_VERSION).contains(&version) {
            return Err(format!("unsupported engine snapshot version {version}"));
        }
        let params = read_params(&mut r)?;

        let entries = r.seq(16, |r| -> Result<_, DecodeError> {
            Ok(BlockEntry {
                id: r.u64()?,
                rows: r.usize()?,
            })
        })?;
        let next_id = r.u64()?;
        let has_dim = r.bool()?;
        let dim_val = r.usize()?;
        let log = BlockLog::from_parts(entries, next_id, has_dim.then_some(dim_val))?;

        let histograms = r.seq(8, read_histogram)?;
        let hist_bins = r.usize()?;
        let hists_valid = r.bool()?;
        let bins = r.usize()?;

        let num_supports = r.seq_len(16)?;
        let mut supports = SupportCache::new();
        for _ in 0..num_supports {
            let sig = read_signature(&mut r)?;
            let count = r.u64()?;
            supports.insert(sig, count);
        }

        let model = if r.bool()? {
            let cores = r.seq(24, |r| -> Result<_, DecodeError> {
                Ok(ClusterCore {
                    signature: read_signature(r)?,
                    support: r.f64()?,
                    expected: r.f64()?,
                })
            })?;
            let members = r.seq(8, Reader::usizes)?;
            let unique_members = r.seq(8, Reader::usizes)?;
            let outliers = r.usizes()?;
            let per_core = r.seq(41, |r| -> Result<_, DecodeError> {
                // The snapshot keeps every member's bounds; they stand in
                // for the other members' — merged with the inspected
                // bounds, both give the same member bounds.
                let bounds = |min, max| Bounds { rows: 0, min, max };
                let summary = ClusterSummary {
                    others: bounds(r.f64s()?, r.f64s()?),
                    inspected: bounds(r.f64s()?, r.f64s()?),
                    hists: r.seq(8, read_histogram)?,
                };
                Ok((summary, r.bool()?))
            })?;
            let (mut summaries, stale): (Vec<_>, Vec<_>) = per_core.into_iter().unzip();
            if members.len() != cores.len()
                || unique_members.len() != cores.len()
                || summaries.len() != cores.len()
            {
                return Err("model state arrays disagree on core count".to_string());
            }
            for ((s, m), u) in summaries.iter_mut().zip(&members).zip(&unique_members) {
                s.others.rows = m.len() - u.len();
                s.inspected.rows = u.len();
            }
            Some(ModelState {
                cores,
                membership: LightMembership {
                    members,
                    unique_members,
                    outliers,
                },
                summaries,
                stale,
            })
        } else {
            None
        };

        let dirty_full = r.bool()?;
        let mut counters = [0u64; 9];
        for c in &mut counters {
            *c = r.u64()?;
        }
        let stats = IncrementalStats {
            appends: counters[0],
            retracts: counters[1],
            delta_rows: counters[2],
            reclusters: counters[3],
            fast_reclusters: counters[4],
            full_reclusters: counters[5],
            hist_rebuilds: counters[6],
            support_scans: counters[7],
            cached_levels: counters[8],
        };

        let mut engine = IncrementalLight::new(name, params);
        engine.log = log;
        engine.hists = AttributeHistograms {
            histograms,
            bins: hist_bins,
        };
        engine.hists_valid = hists_valid;
        engine.bins = bins;
        engine.supports = supports;
        engine.model = model;
        engine.dirty_full = dirty_full;
        engine.stats = stats;

        if version == 1 {
            // Live block payloads, log order; zero-row blocks have none.
            // Each is its id, then the raw row block: shape and rows.
            let num_blocks = r.seq_len(24)?;
            for _ in 0..num_blocks {
                let id = r.u64()?;
                engine.restore_block(store, id, RowBlock::decode(&mut r)?)?;
            }
        }
        r.finish()?;
        Ok(engine)
    }

    /// Puts live block `id`'s rows into `store` after a restore, once
    /// they match the block's shape in the log.
    fn restore_block(&self, store: &DatasetStore, id: u64, block: RowBlock) -> Result<(), String> {
        let rows = self
            .log
            .entries()
            .iter()
            .find(|e| e.id == id)
            .map(|e| e.rows)
            .ok_or_else(|| format!("payload for block {id} not in the log"))?;
        if block.len() != rows || (rows > 0 && self.log.dim() != Some(block.dim())) {
            return Err(format!(
                "payload for block {id} is {}x{}, the log holds {rows} rows of dim {:?}",
                block.len(),
                block.dim(),
                self.log.dim()
            ));
        }
        if rows > 0 {
            store.put(&block_name(&self.name, id), block);
        }
        Ok(())
    }
}

/// [`IncrementalLight`] is also the *durable* tenant: the service
/// journals each block before applying it and snapshots the engine
/// state, giving `p3c serve` crash recovery with bounded replay
/// (DESIGN.md §16).
impl p3c_mapreduce::service::DurableTenant for IncrementalLight {
    fn encode_create(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        bytes::put_u32(&mut buf, CREATE_VERSION);
        put_params(&mut buf, &self.params);
        buf
    }

    fn decode_create(name: &str, bytes: &[u8]) -> Result<Self, String> {
        let mut r = Reader::new(bytes);
        let version = r.u32()?;
        if version != CREATE_VERSION {
            return Err(format!("unsupported create record version {version}"));
        }
        let params = read_params(&mut r)?;
        r.finish()?;
        Ok(IncrementalLight::new(name, params))
    }

    fn encode_block_into(block: &RowBlock, out: &mut Vec<u8>) {
        block.encode_into(out);
    }

    fn decode_block(bytes: &[u8]) -> Result<RowBlock, String> {
        Ok(RowBlock::from_bytes(bytes)?)
    }

    fn snapshot_state(&self, _store: &DatasetStore, out: &mut Vec<u8>) -> Result<(), String> {
        self.snapshot_into(out);
        Ok(())
    }

    fn restore_state(name: &str, bytes: &[u8], store: &DatasetStore) -> Result<Self, String> {
        IncrementalLight::from_snapshot_bytes(name, bytes, store)
    }

    fn live_blocks(&self) -> Vec<u64> {
        self.block_ids()
    }

    fn encode_live_block_into(
        &self,
        store: &DatasetStore,
        id: u64,
        out: &mut Vec<u8>,
    ) -> Result<(), String> {
        let entry = self
            .log
            .entries()
            .iter()
            .find(|e| e.id == id)
            .ok_or_else(|| format!("block {id} is not live"))?;
        if entry.rows == 0 {
            let dim = self.log.dim().unwrap_or(0);
            RowBlock::new(0, dim, Vec::new()).encode_into(out);
            return Ok(());
        }
        let block = store
            .get(&block_name(&self.name, id))
            .map_err(|e| e.to_string())?;
        block.encode_into(out);
        Ok(())
    }

    fn restore_block(
        &mut self,
        store: &DatasetStore,
        id: u64,
        block: RowBlock,
    ) -> Result<(), String> {
        IncrementalLight::restore_block(self, store, id, block)
    }

    fn discretization_stamp(&self) -> u64 {
        self.bins as u64
    }
}

/// The store name of a tenant's block.
fn block_name(tenant: &str, id: u64) -> String {
    format!("incr/{tenant}/block-{id}")
}

/// Pins a tenant's live blocks, in log order, each with its id.
/// Zero-row blocks hold no payload and are skipped. Full reclusters and
/// [`IncrementalLight::materialize`] read rows through this list.
fn pin_live_blocks(
    tenant: &str,
    log: &BlockLog,
    store: &DatasetStore,
) -> Result<Vec<(u64, Arc<RowBlock>)>, String> {
    log.entries()
        .iter()
        .filter(|e| e.rows > 0)
        .map(|e| {
            let block = store
                .get(&block_name(tenant, e.id))
                .map_err(|e| e.to_string())?;
            Ok((e.id, block))
        })
        .collect()
}

/// The cumulative rows of one recluster: the live blocks, pinned at
/// most once and only if a stage falls back to raw rows, and read in
/// place by every such stage through one list of row views, also built
/// at most once.
struct CumulativeRows<'a> {
    tenant: &'a str,
    log: &'a BlockLog,
    store: &'a DatasetStore,
    pinned: &'a OnceCell<Vec<(u64, Arc<RowBlock>)>>,
    rows: OnceCell<Vec<&'a [f64]>>,
}

impl<'a> CumulativeRows<'a> {
    fn blocks(&self) -> Result<&'a [(u64, Arc<RowBlock>)], String> {
        if let Some(pinned) = self.pinned.get() {
            return Ok(pinned);
        }
        let pinned = pin_live_blocks(self.tenant, self.log, self.store)?;
        Ok(self.pinned.get_or_init(|| pinned))
    }

    /// Views of every cumulative row, in id order, across the pinned
    /// blocks.
    fn rows(&self) -> Result<&[&'a [f64]], String> {
        if let Some(rows) = self.rows.get() {
            return Ok(rows);
        }
        let mut rows = Vec::with_capacity(self.log.total_rows());
        for (_, block) in self.blocks()? {
            rows.extend(block.rows());
        }
        Ok(self.rows.get_or_init(|| rows))
    }
}

/// [`LevelCounter`] answering from the maintained [`SupportCache`].
/// Every level's intervals are interned into one [`SupportIndex`]
/// without a scan; the first level with candidates the cache has never
/// seen pins the cumulative rows and fills the bitmaps, and later
/// misses count from them.
struct CachedCounter<'a, 'b> {
    cache: &'a mut SupportCache,
    cum: &'a CumulativeRows<'b>,
    index: SupportIndex,
    scans: u64,
    cached_levels: u64,
}

impl LevelCounter for CachedCounter<'_, '_> {
    type Error = String;

    fn count_level(&mut self, candidates: &[Signature]) -> Result<Vec<u64>, String> {
        self.index.plan(candidates);
        let mut counts = vec![0u64; candidates.len()];
        let mut missing: Vec<usize> = Vec::new();
        for (i, sig) in candidates.iter().enumerate() {
            match self.cache.get(sig) {
                Some(c) => counts[i] = c,
                None => missing.push(i),
            }
        }
        if missing.is_empty() {
            if !candidates.is_empty() {
                self.cached_levels += 1;
            }
            return Ok(counts);
        }
        let rows = self.cum.rows()?;
        let fresh = self
            .index
            .count(rows, missing.iter().map(|&i| &candidates[i]));
        for (&i, c) in missing.iter().zip(fresh) {
            counts[i] = c;
            self.cache.insert(candidates[i].clone(), c);
        }
        self.scans += 1;
        Ok(counts)
    }
}

/// Counter for the 0-row path: there are no relevant intervals, so no
/// level is ever counted.
struct NoRowsCounter;

impl LevelCounter for NoRowsCounter {
    type Error = String;

    fn count_level(&mut self, candidates: &[Signature]) -> Result<Vec<u64>, String> {
        Ok(vec![0; candidates.len()])
    }
}

/// Refolds every summary whose histograms are stale (or missing) from
/// its core's member rows, with the fold batch Light uses.
fn refresh_stale_summaries(
    model: &mut ModelState,
    cum: &CumulativeRows<'_>,
    params: &P3cParams,
) -> Result<(), String> {
    let refold: Vec<usize> = (0..model.summaries.len())
        .filter(|&c| {
            let summary = &model.summaries[c];
            summary.inspected.rows > 0 && (model.stale[c] || summary.hists.is_empty())
        })
        .collect();
    if refold.is_empty() {
        return Ok(());
    }
    let rows = cum.rows()?;
    let m = &model.membership;
    for c in refold {
        model.summaries[c] =
            ClusterSummary::fold(rows, &m.members[c], &m.unique_members[c], params);
        model.stale[c] = false;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use p3c_datagen::{generate, SyntheticSpec};

    fn spec(n: usize, seed: u64) -> SyntheticSpec {
        SyntheticSpec {
            n,
            d: 8,
            num_clusters: 3,
            noise_fraction: 0.1,
            max_cluster_dims: 4,
            seed,
            ..SyntheticSpec::default()
        }
    }

    fn chunk(block: &RowBlock, start: usize, len: usize) -> RowBlock {
        block.subset(&(start..start + len).collect::<Vec<_>>())
    }

    fn batch(cumulative: &RowBlock, params: &P3cParams) -> P3cResult {
        crate::p3cplus::P3cPlusLight::new(params.clone()).cluster(cumulative)
    }

    fn assert_identical(inc: &P3cResult, bat: &P3cResult) {
        assert_eq!(inc.clustering, bat.clustering);
        assert_eq!(inc.cores, bat.cores);
        assert_eq!(inc.stats.bins, bat.stats.bins);
        assert_eq!(inc.stats.relevant_intervals, bat.stats.relevant_intervals);
        assert_eq!(inc.stats.cores, bat.stats.cores);
        assert_eq!(inc.stats.outliers, bat.stats.outliers);
        assert_eq!(
            inc.stats.core_gen.candidates_per_level,
            bat.stats.core_gen.candidates_per_level
        );
        assert_eq!(
            inc.stats.core_gen.proven_per_level,
            bat.stats.core_gen.proven_per_level
        );
    }

    #[test]
    fn append_stream_matches_batch_and_goes_fast() {
        let data = generate(&spec(4000, 7));
        let all = data.dataset.clone();
        let store = DatasetStore::new();
        let params = P3cParams::default();
        let mut eng = IncrementalLight::new("t", params.clone());
        let mut fed = 0usize;
        let mut saw_fast = false;
        for step in [1000usize, 1000, 500, 500, 500, 500] {
            eng.append(&store, chunk(&all, fed, step)).unwrap();
            fed += step;
            let outcome = eng.recluster(&store).unwrap();
            let cumulative = chunk(&all, 0, fed);
            assert_identical(&outcome.result, &batch(&cumulative, &params));
            saw_fast |= outcome.path == ReclusterPath::Fast;
        }
        assert!(saw_fast, "append-only stream never took the fast path");
        assert!(eng.stats().cached_levels > 0, "{:?}", eng.stats());
    }

    #[test]
    fn fast_path_refolds_summaries_whose_bin_rule_stepped() {
        // 2200 → 2500 rows stays inside the default rule's 14-bin
        // plateau, so the core set survives and the recluster goes fast,
        // while three cores' unique counts cross a cube: their summaries
        // go stale at append and must come out equal to batch's fold.
        let data = generate(&spec(2500, 1));
        let all = data.dataset.clone();
        let store = DatasetStore::new();
        let params = P3cParams::default();
        let mut eng = IncrementalLight::new("t", params.clone());
        eng.append(&store, chunk(&all, 0, 2200)).unwrap();
        eng.recluster(&store).unwrap();
        eng.append(&store, chunk(&all, 2200, 300)).unwrap();
        let stale = eng.model.as_ref().unwrap().stale.clone();
        assert_eq!(stale.iter().filter(|&&s| s).count(), 3, "{stale:?}");
        let outcome = eng.recluster(&store).unwrap();
        assert_eq!(outcome.path, ReclusterPath::Fast);
        assert_identical(&outcome.result, &batch(&all, &params));
        let model = eng.model.as_ref().unwrap();
        let rows = all.row_refs();
        assert_eq!(
            model.summaries,
            light_summaries(&rows, &model.membership, &params)
        );
        assert!(model.stale.iter().all(|&s| !s));
    }

    #[test]
    fn retract_falls_back_but_stays_identical() {
        let data = generate(&spec(3000, 13));
        let all = data.dataset.clone();
        let store = DatasetStore::new();
        let params = P3cParams::default();
        let mut eng = IncrementalLight::new("t", params.clone());
        let a = eng.append(&store, chunk(&all, 0, 1000)).unwrap();
        let _b = eng.append(&store, chunk(&all, 1000, 1000)).unwrap();
        let c = eng.append(&store, chunk(&all, 2000, 1000)).unwrap();
        eng.recluster(&store).unwrap();
        assert!(eng.retract(&store, a).unwrap());
        assert!(!eng.retract(&store, a).unwrap(), "double retract");
        let outcome = eng.recluster(&store).unwrap();
        assert_eq!(outcome.path, ReclusterPath::Full);
        // Cumulative is now blocks b then c.
        assert_identical(&outcome.result, &batch(&chunk(&all, 1000, 2000), &params));
        // Retract down to one block, then to nothing.
        assert!(eng.retract(&store, c).unwrap());
        let outcome = eng.recluster(&store).unwrap();
        assert_identical(&outcome.result, &batch(&chunk(&all, 1000, 1000), &params));
    }

    #[test]
    fn empty_and_trivial_cases() {
        let store = DatasetStore::new();
        let mut eng = IncrementalLight::new("t", P3cParams::default());
        let outcome = eng.recluster(&store).unwrap();
        assert_eq!(outcome.path, ReclusterPath::Empty);
        assert_eq!(outcome.result.clustering.num_clusters(), 0);
        // Append everything, retract everything: back to empty.
        let block = RowBlock::from_rows(vec![vec![0.5, 0.5], vec![0.2, 0.8]]);
        let id = eng.append(&store, block).unwrap();
        assert!(eng.retract(&store, id).unwrap());
        let outcome = eng.recluster(&store).unwrap();
        assert_eq!(outcome.path, ReclusterPath::Empty);
        assert!(eng.materialize(&store).unwrap().is_empty());
    }

    #[test]
    fn width_mismatch_is_an_error() {
        let store = DatasetStore::new();
        let mut eng = IncrementalLight::new("t", P3cParams::default());
        eng.append(&store, RowBlock::from_rows(vec![vec![0.1, 0.2]]))
            .unwrap();
        assert!(eng
            .append(&store, RowBlock::from_rows(vec![vec![0.1, 0.2, 0.3]]))
            .is_err());
    }

    #[test]
    fn snapshot_roundtrip_continues_byte_identically() {
        use p3c_mapreduce::service::DurableTenant;
        let data = generate(&spec(2500, 21));
        let all = data.dataset.clone();
        let params = P3cParams::default();
        let store = DatasetStore::new();
        let mut eng = IncrementalLight::new("t", params.clone());
        eng.append(&store, chunk(&all, 0, 1000)).unwrap();
        eng.recluster(&store).unwrap();
        eng.append(&store, chunk(&all, 1000, 1000)).unwrap();
        // Snapshot mid-stream: model, support cache, and maintained
        // memberships are all live.
        // The service hands over a buffer that already holds its own
        // prefix; the state is appended after it.
        let mut buf = b"prefix".to_vec();
        eng.snapshot_state(&store, &mut buf).unwrap();
        let state = eng.snapshot_bytes(&store).unwrap();
        assert_eq!(buf, [&b"prefix"[..], &state].concat());
        let store2 = DatasetStore::new();
        let mut back = IncrementalLight::from_snapshot_bytes("t", &state, &store2).unwrap();
        assert_eq!(back.stats().appends, eng.stats().appends);
        assert_eq!(back.total_rows(), eng.total_rows());
        assert_eq!(back.block_ids(), eng.block_ids());
        // The rows come back block by block, as the service reads them
        // from the journal records that hold them.
        assert!(back.materialize(&store2).is_err(), "no rows in the state");
        for id in eng.live_blocks() {
            let mut encoded = Vec::new();
            eng.encode_live_block_into(&store, id, &mut encoded)
                .unwrap();
            let block = IncrementalLight::decode_block(&encoded).unwrap();
            assert!(
                DurableTenant::restore_block(&mut back, &store2, id + 7, block.clone()).is_err(),
                "an id the log does not hold"
            );
            let short = block.subset(&[0]);
            assert!(DurableTenant::restore_block(&mut back, &store2, id, short).is_err());
            DurableTenant::restore_block(&mut back, &store2, id, block).unwrap();
        }
        // Both engines continue on the same stream and must stay
        // byte-identical to each other and to batch.
        eng.append(&store, chunk(&all, 2000, 500)).unwrap();
        back.append(&store2, chunk(&all, 2000, 500)).unwrap();
        let a = eng.recluster(&store).unwrap();
        let b = back.recluster(&store2).unwrap();
        assert_eq!(a.path, b.path);
        assert_identical(&a.result, &b.result);
        assert_identical(&b.result, &batch(&chunk(&all, 0, 2500), &params));
        // Retract through the restored engine too.
        let first = back.block_ids()[0];
        assert!(back.retract(&store2, first).unwrap());
        let outcome = back.recluster(&store2).unwrap();
        assert_identical(&outcome.result, &batch(&chunk(&all, 1000, 1500), &params));
    }

    #[test]
    fn block_codec_roundtrips_and_rejects_garbage() {
        use p3c_mapreduce::service::DurableTenant;
        let block = RowBlock::from_rows(vec![vec![0.25, 0.5], vec![0.75, 1.0]]);
        let bytes = IncrementalLight::encode_block(&block);
        let back = IncrementalLight::decode_block(&bytes).unwrap();
        assert_eq!(back.as_slice(), block.as_slice());
        assert_eq!((back.len(), back.dim()), (2, 2));
        assert!(IncrementalLight::decode_block(&bytes[..bytes.len() - 1]).is_err());
        assert!(IncrementalLight::decode_block(&[]).is_err());
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(IncrementalLight::decode_block(&extra).is_err());
    }

    #[test]
    fn create_codec_roundtrips_params() {
        use p3c_mapreduce::service::DurableTenant;
        let params = P3cParams {
            alpha_poisson: 1e-20,
            bin_rule: BinRuleChoice::Sturges,
            t_c: 123,
            ..P3cParams::default()
        };
        let eng = IncrementalLight::new("t", params.clone());
        let bytes = eng.encode_create();
        let back = IncrementalLight::decode_create("t", &bytes).unwrap();
        assert_eq!(back.name(), "t");
        assert_eq!(back.params().alpha_poisson, params.alpha_poisson);
        assert_eq!(back.params().bin_rule, params.bin_rule);
        assert_eq!(back.params().t_c, params.t_c);
        assert!(IncrementalLight::decode_create("t", &bytes[..4]).is_err());
        // The level bound's slot, third of the trailing `usize`s, holds
        // the constant; any other value is refused.
        let slot = bytes.len() - 24;
        assert_eq!(bytes[slot..slot + 8], (MAX_LEVELS as u64).to_le_bytes());
        for other in [0u64, 13] {
            let mut bad = bytes.clone();
            bad[slot..slot + 8].copy_from_slice(&other.to_le_bytes());
            let err = IncrementalLight::decode_create("t", &bad).err().unwrap();
            assert!(err.contains("max_levels"), "{err}");
        }
    }

    #[test]
    #[should_panic(expected = "uniform bin rule")]
    fn exact_iqr_rule_rejected() {
        IncrementalLight::new(
            "t",
            P3cParams {
                bin_rule: BinRuleChoice::FreedmanDiaconisIqr,
                ..P3cParams::default()
            },
        );
    }
}
