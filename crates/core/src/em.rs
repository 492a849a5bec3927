//! Gaussian-mixture EM refinement of cluster cores (paper Sections 3.2.2
//! and 5.4).
//!
//! EM runs in the *relevant subspace* `A_rel` (Equation 3) — the union of
//! all attributes relevant to at least one cluster core. Initialization
//! follows the paper's two rounds: first means/covariances from the core
//! support sets only, then the remaining points are attached to their
//! Mahalanobis-nearest core and the statistics recomputed.
//!
//! Every data pass — both initialization rounds and each E-step — is one
//! function over a block of [`EM_BLOCK_POINTS`] rows (`EmPass::block`)
//! whose partials fold in ascending block order from empty
//! (`EmPass::fold`). One driver ([`em_phase`], [`initialize_with`],
//! [`em_fit_with`]) runs the passes through an [`EmRunner`]: the worker
//! pool for the serial pipelines, MR jobs for P3C+-MR. Both sum in the
//! same tree, so the two models are equal bit for bit whenever the MR
//! splits are whole blocks (DESIGN.md §13).

use crate::config::P3cParams;
use crate::cores::ClusterCore;
use p3c_linalg::cholesky::transpose_lane_group;
use p3c_linalg::{isa, Cholesky, CovarianceAccumulator, LaneScratch, Matrix, LANES};
use std::collections::BTreeSet;

/// Per-worker scratch for the density kernels: the lane transpose /
/// forward-substitution buffers, the k×[`LANES`] point-major density
/// tile of one lane group, and the block's density / responsibility
/// buffer.
#[derive(Debug, Default)]
pub struct EstepScratch {
    lanes: LaneScratch,
    tile: Vec<f64>,
    dens: Vec<f64>,
    /// Gathered significant points / weights for one component's
    /// [`CovarianceAccumulator::push_block`] call.
    xs: Vec<f64>,
    ws: Vec<f64>,
}

impl EstepScratch {
    /// An empty scratch; buffers grow on first use and are reused.
    pub fn new() -> Self {
        Self::default()
    }
}

/// One Gaussian component in `A_rel` coordinates.
#[derive(Debug, Clone)]
pub struct Component {
    /// Mean in `A_rel` coordinates.
    pub mean: Vec<f64>,
    /// Covariance in `A_rel` coordinates.
    pub cov: Matrix,
    /// Mixture weight π_k (sums to 1 across components).
    pub weight: f64,
}

/// A fitted Gaussian mixture over the relevant subspace.
#[derive(Debug, Clone)]
pub struct MixtureModel {
    /// The relevant attributes, in ascending order; component coordinates
    /// index into this list.
    pub arel: Vec<usize>,
    /// The mixture's components.
    pub components: Vec<Component>,
}

/// Precomputed per-component state for fast density evaluation.
pub struct DensityEvaluator {
    comps: Vec<(Vec<f64>, Cholesky, f64 /* log(π) − ½log|2πΣ| */)>,
    arel: Vec<usize>,
}

impl MixtureModel {
    /// Builds the evaluator (factorizes every covariance once).
    ///
    /// # Panics
    /// Panics on a mixture without components or with an empty `arel` —
    /// the block kernels lay points out `arel.len()` values apiece.
    pub fn evaluator(&self) -> DensityEvaluator {
        assert!(
            !self.arel.is_empty() && !self.components.is_empty(),
            "a mixture needs a component and a relevant attribute"
        );
        let d = self.arel.len() as f64;
        let comps = self
            .components
            .iter()
            .map(|c| {
                let chol = Cholesky::new_regularized(&c.cov).expect("covariance not regularizable");
                let log_norm = c.weight.max(1e-300).ln()
                    - 0.5 * (d * (2.0 * std::f64::consts::PI).ln() + chol.log_det());
                (c.mean.clone(), chol, log_norm)
            })
            .collect();
        DensityEvaluator {
            comps,
            arel: self.arel.clone(),
        }
    }
}

impl DensityEvaluator {
    /// Number of mixture components.
    pub fn num_components(&self) -> usize {
        self.comps.len()
    }

    /// Number of relevant attributes (the projected dimensionality).
    pub fn arel_len(&self) -> usize {
        self.arel.len()
    }

    /// Projects a full-dimensional row into `A_rel` coordinates.
    pub fn project(&self, row: &[f64]) -> Vec<f64> {
        self.arel.iter().map(|&a| row[a]).collect()
    }

    /// Projects into a caller-owned buffer (the allocation-free form of
    /// [`DensityEvaluator::project`]).
    pub fn project_into(&self, row: &[f64], x_sub: &mut Vec<f64>) {
        x_sub.clear();
        x_sub.extend(self.arel.iter().map(|&a| row[a]));
    }

    /// Appends the row's `A_rel` attributes to `buf` without clearing —
    /// the block-gather form of [`DensityEvaluator::project_into`].
    pub fn project_append(&self, row: &[f64], buf: &mut Vec<f64>) {
        buf.extend(self.arel.iter().map(|&a| row[a]));
    }

    /// Projects a split of rows into one contiguous row-major block of
    /// `A_rel` coordinates — the input form of the block kernels.
    pub fn project_block(&self, rows: &[&[f64]]) -> Vec<f64> {
        let mut block = Vec::with_capacity(rows.len() * self.arel.len());
        for row in rows {
            self.project_append(row, &mut block);
        }
        block
    }

    /// Log of `π_k · N(x | μ_k, Σ_k)` for the projected point; the
    /// offset and forward substitution are fused over the caller-owned
    /// scratch buffer `y`.
    pub fn log_weighted_density_scratch(&self, k: usize, x_sub: &[f64], y: &mut Vec<f64>) -> f64 {
        let (mean, chol, log_norm) = &self.comps[k];
        log_norm - 0.5 * chol.mahalanobis_sq_scratch(x_sub, mean, y)
    }

    /// Squared Mahalanobis distance of the projected point to component
    /// `k`; `y` is the forward-substitution scratch.
    pub fn mahalanobis_sq_scratch(&self, k: usize, x_sub: &[f64], y: &mut Vec<f64>) -> f64 {
        let (mean, chol, _) = &self.comps[k];
        chol.mahalanobis_sq_scratch(x_sub, mean, y)
    }

    /// Component `k`'s Mahalanobis geometry: its mean and the Cholesky
    /// factor of its covariance, in `A_rel` coordinates.
    pub(crate) fn geometry(&self, k: usize) -> (&[f64], &Cholesky) {
        let (mean, chol, _) = &self.comps[k];
        (mean, chol)
    }

    /// Responsibilities γ_k(x) (softmax over components) of one
    /// projected point and the point's log-likelihood contribution —
    /// the 1-point case of
    /// [`DensityEvaluator::responsibilities_block_lanes`]. `y` is the
    /// forward-substitution scratch, reused across calls.
    pub fn responsibilities_scratch(
        &self,
        x_sub: &[f64],
        out: &mut Vec<f64>,
        y: &mut Vec<f64>,
    ) -> f64 {
        // One disjoint scratch region per component: the k forward
        // substitutions are independent, and separate regions let the
        // CPU overlap their latency chains instead of serializing on a
        // shared buffer. Per-component operation order is unchanged, so
        // densities are bit-identical to the shared-scratch path.
        let d = x_sub.len().max(1);
        y.clear();
        y.resize(self.comps.len() * d, 0.0);
        out.clear();
        out.extend(self.comps.iter().zip(y.chunks_exact_mut(d)).map(
            |((mean, chol, log_norm), ybuf)| {
                log_norm - 0.5 * chol.mahalanobis_sq_slice(x_sub, mean, &mut ybuf[..x_sub.len()])
            },
        ));
        softmax_in_place(out)
    }

    /// Log weighted densities for a contiguous block of projected
    /// points (`arel.len()` values per point, row-major):
    /// `out[p * k + c] = log(π_c N(x_p | μ_c, Σ_c))`, computed 8 points
    /// per triangular-solve step with the per-point kernel
    /// ([`Cholesky::mahalanobis_sq_slice`]) on the ragged tail — each
    /// value is bit-identical to
    /// [`DensityEvaluator::log_weighted_density_scratch`] (DESIGN.md §13).
    #[inline(always)]
    pub fn log_densities_block_lanes(
        &self,
        block: &[f64],
        out: &mut Vec<f64>,
        scratch: &mut EstepScratch,
    ) {
        let d = self.arel.len();
        let k = self.comps.len();
        let npts = block.len() / d;
        assert_eq!(
            block.len(),
            npts * d,
            "block is not a whole number of points"
        );
        out.clear();
        out.resize(npts * k, 0.0);
        let (xt, y) = scratch.lanes.for_order(d);
        let full = npts / LANES * LANES;
        for (g, group) in block[..full * d].chunks_exact(d * LANES).enumerate() {
            transpose_lane_group(group, d, xt);
            let base = g * LANES;
            for (c, (mean, chol, log_norm)) in self.comps.iter().enumerate() {
                let dists = chol.mahalanobis_sq_lanes(xt, mean, y);
                for (lane, &dist) in dists.iter().enumerate() {
                    out[(base + lane) * k + c] = log_norm - 0.5 * dist;
                }
            }
        }
        for (t, x) in block[full * d..].chunks_exact(d).enumerate() {
            let p = full + t;
            for (c, (mean, chol, log_norm)) in self.comps.iter().enumerate() {
                out[p * k + c] = log_norm - 0.5 * chol.mahalanobis_sq_slice(x, mean, &mut y[..d]);
            }
        }
    }

    /// Hard assignment of a contiguous block of projected points:
    /// densities through
    /// [`DensityEvaluator::log_densities_block_lanes`], then per point
    /// the same `total_cmp`-based keep-last argmax over ascending
    /// components as [`DensityEvaluator::assign_scratch`] — so the
    /// assignments equal the per-point path's. Runs the AVX2 tier when
    /// the CPU has it ([`isa`]).
    pub fn assign_block_lanes(
        &self,
        block: &[f64],
        scratch: &mut EstepScratch,
        out: &mut Vec<usize>,
    ) {
        if isa::avx2() {
            // SAFETY: the guard checked that this CPU has AVX2.
            unsafe { self.assign_block_lanes_avx2(block, scratch, out) }
        } else {
            self.assign_block_lanes_impl(block, scratch, out)
        }
    }

    /// [`DensityEvaluator::assign_block_lanes`] compiled for AVX2.
    ///
    /// # Safety
    /// The CPU must support AVX2 (`isa::avx2()`).
    #[cfg_attr(target_arch = "x86_64", target_feature(enable = "avx2"))]
    unsafe fn assign_block_lanes_avx2(
        &self,
        block: &[f64],
        scratch: &mut EstepScratch,
        out: &mut Vec<usize>,
    ) {
        self.assign_block_lanes_impl(block, scratch, out)
    }

    #[inline(always)]
    fn assign_block_lanes_impl(
        &self,
        block: &[f64],
        scratch: &mut EstepScratch,
        out: &mut Vec<usize>,
    ) {
        let k = self.comps.len();
        let mut dens = std::mem::take(&mut scratch.dens);
        self.log_densities_block_lanes(block, &mut dens, scratch);
        out.clear();
        for row in dens.chunks_exact(k.max(1)) {
            let mut best = 0;
            let mut best_density = f64::NEG_INFINITY;
            for (c, v) in row.iter().enumerate() {
                // `>=` keeps the last maximum, matching `assign_scratch`.
                if v.total_cmp(&best_density).is_ge() {
                    best = c;
                    best_density = *v;
                }
            }
            out.push(best);
        }
        scratch.dens = dens;
    }

    /// The fused density kernel of the E-step: responsibilities and the
    /// block's log-likelihood for a contiguous block of projected
    /// points, 8 points per step (DESIGN.md §13).
    ///
    /// Full lane groups are transposed point-major once per group
    /// (shared by every component's solve), each component's
    /// triangular solve runs [`LANES`] independent points per
    /// recurrence step, and the softmax reduces lane-parallel over the
    /// group's k×[`LANES`] density tile. Ragged tails (`npts` not a
    /// multiple of [`LANES`]) run the per-point kernels. Every
    /// per-point float operation sequence — offset, ascending-k
    /// subtraction, reciprocal multiply, ascending-i squared-sum,
    /// ascending-c max/exp-sum/divide, point-ascending log-likelihood
    /// addition — is that of
    /// [`DensityEvaluator::responsibilities_scratch`], so `out` and the
    /// returned log-likelihood are bit-identical to a per-point loop
    /// over it.
    #[inline(always)]
    pub fn responsibilities_block_lanes(
        &self,
        block: &[f64],
        out: &mut Vec<f64>,
        scratch: &mut EstepScratch,
    ) -> f64 {
        let d = self.arel.len();
        let k = self.comps.len();
        let npts = block.len() / d;
        assert_eq!(
            block.len(),
            npts * d,
            "block is not a whole number of points"
        );
        out.clear();
        out.resize(npts * k, 0.0);
        let mut loglik = 0.0;
        let (xt, y) = scratch.lanes.for_order(d);
        scratch.tile.clear();
        scratch.tile.resize(k * LANES, 0.0);
        let tile = &mut scratch.tile[..];
        let full = npts / LANES * LANES;
        for (g, group) in block[..full * d].chunks_exact(d * LANES).enumerate() {
            transpose_lane_group(group, d, xt);
            for (c, (mean, chol, log_norm)) in self.comps.iter().enumerate() {
                let dists = chol.mahalanobis_sq_lanes(xt, mean, y);
                for (lane, &dist) in dists.iter().enumerate() {
                    tile[c * LANES + lane] = log_norm - 0.5 * dist;
                }
            }
            // Fused softmax over the tile: per lane, the component loop
            // runs in ascending-c order — the same reduction order as
            // [`softmax_in_place`] on that point's density row.
            let mut maxv = [f64::NEG_INFINITY; LANES];
            for c in 0..k {
                let row = &tile[c * LANES..(c + 1) * LANES];
                for lane in 0..LANES {
                    maxv[lane] = maxv[lane].max(row[lane]);
                }
            }
            let mut sum = [0.0f64; LANES];
            for c in 0..k {
                let row = &mut tile[c * LANES..(c + 1) * LANES];
                for lane in 0..LANES {
                    let e = (row[lane] - maxv[lane]).exp();
                    row[lane] = e;
                    sum[lane] += e;
                }
            }
            let base = g * LANES;
            for c in 0..k {
                let row = &tile[c * LANES..(c + 1) * LANES];
                for lane in 0..LANES {
                    out[(base + lane) * k + c] = row[lane] / sum[lane];
                }
            }
            // Lane order within the group is point order, so this adds
            // the group's log-likelihoods point-ascending.
            for lane in 0..LANES {
                loglik += maxv[lane] + sum[lane].ln();
            }
        }
        for (t, x) in block[full * d..].chunks_exact(d).enumerate() {
            let p = full + t;
            let resp = &mut out[p * k..(p + 1) * k];
            for (c, (mean, chol, log_norm)) in self.comps.iter().enumerate() {
                resp[c] = log_norm - 0.5 * chol.mahalanobis_sq_slice(x, mean, &mut y[..d]);
            }
            loglik += softmax_in_place(resp);
        }
        loglik
    }

    /// The E-step over one contiguous block of projected points — one
    /// [`EM_BLOCK_POINTS`] block of the input ([`EmPass::Estep`]):
    /// responsibility-weighted moment accumulators per component and the
    /// block's log-likelihood.
    ///
    /// Accumulation is component-outer: each accumulator receives its
    /// significant points (γ > 1e-12) in block point order — the same
    /// per-entry add sequence as a point-outer loop of
    /// [`CovarianceAccumulator::push`] (bit-identical) — folded in with
    /// one [`CovarianceAccumulator::push_block`] per component, whose
    /// row-outer scatter update keeps each triangular row's partial
    /// sums in registers across the block. Runs the AVX2 tier when the
    /// CPU has it ([`isa`]).
    pub(crate) fn estep_block(&self, block: &[f64], scratch: &mut EstepScratch) -> EmPartial {
        if isa::avx2() {
            // SAFETY: the guard checked that this CPU has AVX2.
            unsafe { self.estep_block_avx2(block, scratch) }
        } else {
            self.estep_block_impl(block, scratch)
        }
    }

    /// [`DensityEvaluator::estep_block`] compiled for AVX2.
    ///
    /// # Safety
    /// The CPU must support AVX2 (`isa::avx2()`).
    #[cfg_attr(target_arch = "x86_64", target_feature(enable = "avx2"))]
    unsafe fn estep_block_avx2(&self, block: &[f64], scratch: &mut EstepScratch) -> EmPartial {
        self.estep_block_impl(block, scratch)
    }

    #[inline(always)]
    fn estep_block_impl(&self, block: &[f64], scratch: &mut EstepScratch) -> EmPartial {
        let d = self.arel.len();
        let k = self.comps.len();
        let mut resp = std::mem::take(&mut scratch.dens);
        let loglik = self.responsibilities_block_lanes(block, &mut resp, scratch);
        let mut accs: Vec<CovarianceAccumulator> =
            (0..k).map(|_| CovarianceAccumulator::new(d)).collect();
        let npts = block.len() / d;
        for (c, acc) in accs.iter_mut().enumerate() {
            scratch.ws.clear();
            scratch
                .ws
                .extend(resp.chunks_exact(k).map(|r| r[c]).filter(|&r| r > 1e-12));
            if scratch.ws.len() == npts {
                // Every point significant (the common case): fold the
                // block in directly, no gather copy.
                acc.push_block(block, &scratch.ws);
            } else {
                scratch.xs.clear();
                for (x, r) in block.chunks_exact(d).zip(resp.chunks_exact(k)) {
                    if r[c] > 1e-12 {
                        scratch.xs.extend_from_slice(x);
                    }
                }
                acc.push_block(&scratch.xs, &scratch.ws);
            }
        }
        scratch.dens = resp;
        EmPartial { accs, loglik }
    }

    /// Round 2 of the EM initialization over one contiguous block of
    /// projected points (the uncovered rows of one [`EM_BLOCK_POINTS`]
    /// block, [`EmPass::Attach`]): every point is pushed, with
    /// unit weight and in block order, onto the accumulator of its
    /// Mahalanobis-nearest component. The nearest-component scan scores
    /// the block against each component through
    /// [`Cholesky::mahalanobis_sq_block`] and keeps the first minimum
    /// over ascending components (strict `<` under `total_cmp`, like
    /// `Iterator::min_by`) — the choice a per-point loop over
    /// [`DensityEvaluator::mahalanobis_sq_scratch`] makes. Runs the AVX2
    /// tier when the CPU has it ([`isa`]).
    pub(crate) fn attach_block(
        &self,
        block: &[f64],
        scratch: &mut EstepScratch,
        accs: &mut [CovarianceAccumulator],
    ) {
        if isa::avx2() {
            // SAFETY: the guard checked that this CPU has AVX2.
            unsafe { self.attach_block_avx2(block, scratch, accs) }
        } else {
            self.attach_block_impl(block, scratch, accs)
        }
    }

    /// [`DensityEvaluator::attach_block`] compiled for AVX2.
    ///
    /// # Safety
    /// The CPU must support AVX2 (`isa::avx2()`).
    #[cfg_attr(target_arch = "x86_64", target_feature(enable = "avx2"))]
    unsafe fn attach_block_avx2(
        &self,
        block: &[f64],
        scratch: &mut EstepScratch,
        accs: &mut [CovarianceAccumulator],
    ) {
        self.attach_block_impl(block, scratch, accs)
    }

    #[inline(always)]
    fn attach_block_impl(
        &self,
        block: &[f64],
        scratch: &mut EstepScratch,
        accs: &mut [CovarianceAccumulator],
    ) {
        let d = self.arel.len();
        let mut nearest = vec![(f64::INFINITY, 0usize); block.len() / d];
        for (c, (mean, chol, _)) in self.comps.iter().enumerate() {
            chol.mahalanobis_sq_block(block, mean, &mut scratch.lanes, &mut scratch.dens);
            for (best, &dist) in nearest.iter_mut().zip(&scratch.dens) {
                if dist.total_cmp(&best.0).is_lt() {
                    *best = (dist, c);
                }
            }
        }
        for (x, &(_, c)) in block.chunks_exact(d).zip(&nearest) {
            accs[c].push(x, 1.0);
        }
    }

    /// Hard assignment of one full-dimensional row — the 1-point case
    /// of [`DensityEvaluator::assign_block_lanes`]: `x` receives the
    /// projected point, `y` is the forward-substitution scratch.
    pub fn assign_scratch(&self, row: &[f64], x: &mut Vec<f64>, y: &mut Vec<f64>) -> usize {
        self.project_into(row, x);
        let mut best = 0;
        let mut best_density = f64::NEG_INFINITY;
        for k in 0..self.comps.len() {
            let v = self.log_weighted_density_scratch(k, x, y);
            // `>=` keeps the last maximum, matching `Iterator::max_by`.
            if v.total_cmp(&best_density).is_ge() {
                best = k;
                best_density = v;
            }
        }
        best
    }
}

/// Converts one point's `k` log weighted densities into
/// responsibilities in place, returning the point's log-likelihood
/// contribution.
pub fn softmax_in_place(logs: &mut [f64]) -> f64 {
    // audit: order-exact — f64::max is associative and commutative
    // (no NaNs on this path), so fold order cannot change the result.
    let max = logs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut sum = 0.0;
    for v in logs.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    for v in logs.iter_mut() {
        *v /= sum;
    }
    max + sum.ln()
}

/// Rows per EM block: the unit every EM data pass is computed and
/// merged in. Global blocks — rows `512·b .. 512·(b+1)` of the input —
/// are folded in ascending block order on every runner, the pool and
/// the MR jobs alike, so the model is one function of the data. Big
/// enough to amortize dispatch, the per-block accumulator allocations
/// and the row-outer [`CovarianceAccumulator::push_block`] setup, small
/// enough that the block's density/solve scratch stays cache-resident.
pub const EM_BLOCK_POINTS: usize = 512;

/// What one EM block contributes to a data pass: per component the
/// moments of the block's points, and for the E-step the block's
/// log-likelihood (0 in the initialization rounds).
#[derive(Debug)]
pub struct EmPartial {
    /// One accumulator per component (per core in the initialization).
    pub accs: Vec<CovarianceAccumulator>,
    /// The block's log-likelihood, point-ascending.
    pub loglik: f64,
}

impl EmPartial {
    /// Folds the next block's partial in — the one merge rule of every
    /// runner: an accumulator that holds no point is skipped, every
    /// other one merged; the log-likelihoods add.
    pub(crate) fn merge(&mut self, next: &EmPartial) {
        for (total, part) in self.accs.iter_mut().zip(&next.accs) {
            if part.count() > 0 {
                total.merge(part);
            }
        }
        self.loglik += next.loglik;
    }
}

/// One data pass of EM (paper Sections 3.2.2 and 5.4), computed per
/// [`EM_BLOCK_POINTS`]-row block by `EmPass::block` and folded by
/// `EmPass::fold`.
#[derive(Clone, Copy)]
pub enum EmPass<'a> {
    /// Initialization round 1: each core's support set, unit weights.
    Support {
        /// The cluster cores, one component each.
        cores: &'a [ClusterCore],
        /// The relevant attributes the moments are taken in.
        arel: &'a [usize],
    },
    /// Initialization round 2: every row in no core's support set,
    /// attached with unit weight to its Mahalanobis-nearest round-1
    /// component.
    Attach {
        /// The cluster cores whose support sets cover rows.
        cores: &'a [ClusterCore],
        /// The round-1 model.
        eval: &'a DensityEvaluator,
    },
    /// One E-step under the model: responsibility-weighted moments and
    /// the log-likelihood.
    Estep(&'a DensityEvaluator),
}

impl EmPass<'_> {
    /// The relevant attributes the pass reads.
    pub(crate) fn arel(&self) -> &[usize] {
        match self {
            EmPass::Support { arel, .. } => arel,
            EmPass::Attach { eval, .. } | EmPass::Estep(eval) => &eval.arel,
        }
    }

    /// The pass over one block: `rows` are the block's rows and `proj`
    /// the same rows projected onto [`EmPass::arel`], row-major.
    pub(crate) fn block(
        &self,
        rows: &[&[f64]],
        proj: &[f64],
        scratch: &mut EstepScratch,
    ) -> EmPartial {
        let d = self.arel().len();
        match *self {
            EmPass::Support { cores, .. } => {
                let mut accs = fresh_accs(cores.len(), d);
                for (row, x) in rows.iter().zip(proj.chunks_exact(d)) {
                    for (acc, core) in accs.iter_mut().zip(cores) {
                        if core.signature.contains(row) {
                            acc.push(x, 1.0);
                        }
                    }
                }
                EmPartial { accs, loglik: 0.0 }
            }
            EmPass::Attach { cores, eval } => {
                let mut uncovered = std::mem::take(&mut scratch.xs);
                uncovered.clear();
                for (row, x) in rows.iter().zip(proj.chunks_exact(d)) {
                    if !cores.iter().any(|core| core.signature.contains(row)) {
                        uncovered.extend_from_slice(x);
                    }
                }
                let mut accs = fresh_accs(eval.num_components(), d);
                eval.attach_block(&uncovered, scratch, &mut accs);
                scratch.xs = uncovered;
                EmPartial { accs, loglik: 0.0 }
            }
            EmPass::Estep(eval) => eval.estep_block(proj, scratch),
        }
    }

    /// Folds block partials, given in ascending block order, from the
    /// empty partial by [`EmPartial::merge`].
    pub(crate) fn fold(&self, parts: &[EmPartial]) -> EmPartial {
        let k = match self {
            EmPass::Support { cores, .. } => cores.len(),
            EmPass::Attach { eval, .. } | EmPass::Estep(eval) => eval.num_components(),
        };
        let mut total = EmPartial {
            accs: fresh_accs(k, self.arel().len()),
            loglik: 0.0,
        };
        for part in parts {
            total.merge(part);
        }
        total
    }
}

fn fresh_accs(k: usize, d: usize) -> Vec<CovarianceAccumulator> {
    (0..k).map(|_| CovarianceAccumulator::new(d)).collect()
}

/// Runs EM's data passes over the input rows: the seam between the EM
/// driver and *where* the blocks are computed. [`PoolRunner`] folds the
/// blocks on the worker pool (the serial pipelines);
/// [`crate::mr::em::JobRunner`] maps them in MR jobs (P3C+-MR). Either
/// way a pass is `EmPass::block` over every global [`EM_BLOCK_POINTS`]
/// block, folded in ascending block order by `EmPass::fold`: the
/// summation form of Chu et al. with the block as its unit.
pub trait EmRunner {
    /// What a failed pass reports.
    type Error;

    /// The pass folded over every block of the input.
    fn run_pass(&mut self, pass: &EmPass<'_>) -> Result<EmPartial, Self::Error>;
}

/// The in-process [`EmRunner`]: the blocks run on the engine worker
/// pool ([`p3c_mapreduce::parallel_for_blocks_with`]), each worker with
/// private scratch, and the partials come back in block order — the
/// same blocks and the same fold for every `threads` value, so the
/// result is bit-identical across thread counts (DESIGN.md §11). The
/// rows are projected onto `A_rel` once and reused by every pass.
pub struct PoolRunner<'a> {
    rows: &'a [&'a [f64]],
    threads: usize,
    arel: Vec<usize>,
    proj: Vec<f64>,
}

impl<'a> PoolRunner<'a> {
    /// Runner over `rows` on `threads` workers.
    pub fn new(rows: &'a [&'a [f64]], threads: usize) -> Self {
        Self {
            rows,
            threads,
            arel: Vec::new(),
            proj: Vec::new(),
        }
    }
}

impl EmRunner for PoolRunner<'_> {
    type Error = std::convert::Infallible;

    fn run_pass(&mut self, pass: &EmPass<'_>) -> Result<EmPartial, Self::Error> {
        if self.arel != pass.arel() {
            self.arel = pass.arel().to_vec();
            self.proj = project_rows_blocked(self.rows, &self.arel, self.threads);
        }
        let (rows, proj, d) = (self.rows, &self.proj, self.arel.len());
        let partials = p3c_mapreduce::parallel_for_blocks_with(
            self.threads,
            rows.len().div_ceil(EM_BLOCK_POINTS),
            EstepScratch::new,
            |scratch, block| {
                let start = block * EM_BLOCK_POINTS;
                let end = (start + EM_BLOCK_POINTS).min(rows.len());
                pass.block(&rows[start..end], &proj[start * d..end * d], scratch)
            },
        );
        Ok(pass.fold(&partials))
    }
}

/// The EM phase of P3C+: `A_rel` (Equation 3: the attributes of every
/// core's signature, ascending), the two-round initialization, then EM
/// to convergence or `params.em_max_iters`. The serial and the MR
/// pipelines both run it; only their runner differs.
pub fn em_phase<R: EmRunner>(
    runner: &mut R,
    cores: &[ClusterCore],
    params: &P3cParams,
) -> Result<EmFit, R::Error> {
    let arel: Vec<usize> = cores
        .iter()
        .flat_map(|c| c.signature.attributes())
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let init = initialize_with(runner, cores, &arel)?;
    em_fit_with(runner, init, params.em_max_iters, params.em_tol)
}

/// Builds the initial mixture from cluster cores on the calling thread:
/// [`initialize_with`] over a one-worker [`PoolRunner`].
pub fn initialize_from_cores(
    cores: &[ClusterCore],
    rows: &[&[f64]],
    arel: &[usize],
) -> MixtureModel {
    let Ok(model) = initialize_with(&mut PoolRunner::new(rows, 1), cores, arel);
    model
}

/// The paper's two-round initialization through `runner`: the moments
/// of every core's support set (round 1) give the round-1 model; the
/// fold of the rows no core covers, attached to their nearest round-1
/// component (round 2), is merged into those moments.
pub fn initialize_with<R: EmRunner>(
    runner: &mut R,
    cores: &[ClusterCore],
    arel: &[usize],
) -> Result<MixtureModel, R::Error> {
    assert!(
        !cores.is_empty(),
        "EM initialization needs at least one core"
    );
    let mut moments = runner.run_pass(&EmPass::Support { cores, arel })?;
    let round1 = MixtureModel {
        arel: arel.to_vec(),
        components: finish_components(&moments.accs),
    };
    let eval = round1.evaluator();
    moments.merge(&runner.run_pass(&EmPass::Attach { cores, eval: &eval })?);
    Ok(MixtureModel {
        arel: round1.arel,
        components: finish_components(&moments.accs),
    })
}

/// Converts accumulators into components with safe fallbacks for
/// degenerate (empty / single-point) cores.
pub fn finish_components(accs: &[CovarianceAccumulator]) -> Vec<Component> {
    let d = accs.first().map_or(0, |a| a.dim());
    // audit: order-exact — ascending component index over the merged
    // accumulators, the same order on every path.
    let total: f64 = accs.iter().map(|a| a.total_weight()).sum::<f64>().max(1.0);
    accs.iter()
        .map(|acc| {
            let mean = acc.mean().unwrap_or_else(|| vec![0.5; d]);
            let mut cov = acc.covariance_ml().unwrap_or_else(|| Matrix::identity(d));
            cov.add_ridge(1e-9);
            let weight = (acc.total_weight() / total).max(1e-12);
            Component { mean, cov, weight }
        })
        .collect()
}

/// Result of an EM fit.
#[derive(Debug, Clone)]
pub struct EmFit {
    /// The fitted mixture.
    pub model: MixtureModel,
    /// Log-likelihood after each iteration.
    pub loglik_history: Vec<f64>,
    /// Iterations run before convergence or the cap.
    pub iterations: usize,
}

/// Rows per projection-scan block: pure data movement, so blocks are
/// large to amortize pool dispatch against memory bandwidth.
const PROJECT_BLOCK_ROWS: usize = 1024;

/// Gathers every row's `arel` attributes into one contiguous row-major
/// sub-matrix, blocked at `PROJECT_BLOCK_ROWS` granularity on the
/// engine worker pool. Each block produces its slice of the sub-matrix
/// and the slices concatenate in block-index order — pure copying, so
/// the output is byte-identical for every `threads` value.
pub fn project_rows_blocked(rows: &[&[f64]], arel: &[usize], threads: usize) -> Vec<f64> {
    let d = arel.len();
    let num_blocks = rows.len().div_ceil(PROJECT_BLOCK_ROWS);
    let blocks = p3c_mapreduce::parallel_for_blocks(threads, num_blocks, |b| {
        let start = b * PROJECT_BLOCK_ROWS;
        let end = (start + PROJECT_BLOCK_ROWS).min(rows.len());
        let mut chunk = Vec::with_capacity((end - start) * d);
        for row in &rows[start..end] {
            chunk.extend(arel.iter().map(|&a| row[a]));
        }
        chunk
    });
    let mut proj = Vec::with_capacity(rows.len() * d);
    for chunk in blocks {
        proj.extend(chunk);
    }
    proj
}

/// Runs EM to convergence (or `max_iters`) on the calling thread:
/// [`em_fit_threads`] with one worker, bit-identical to every thread
/// count.
pub fn em_fit(init: MixtureModel, rows: &[&[f64]], max_iters: usize, tol: f64) -> EmFit {
    em_fit_threads(init, rows, max_iters, tol, 1)
}

/// Runs EM to convergence (or `max_iters`) with each pass's blocks on
/// `threads` pool workers ([`PoolRunner`]).
pub fn em_fit_threads(
    init: MixtureModel,
    rows: &[&[f64]],
    max_iters: usize,
    tol: f64,
    threads: usize,
) -> EmFit {
    let Ok(fit) = em_fit_with(&mut PoolRunner::new(rows, threads), init, max_iters, tol);
    fit
}

/// The EM iterations through `runner`.
///
/// Iteration semantics: each iteration evaluates the current model's
/// log-likelihood (E-step), records it in `loglik_history`, and — only
/// if not converged — applies the M-step. On convergence the loop stops
/// *before* the redundant M-step, so the returned model is exactly the
/// one whose log-likelihood is `loglik_history.last()`. `iterations`
/// equals `loglik_history.len()`; on budget exhaustion the model has
/// had `max_iters` M-steps and the history records the likelihood
/// before each of them.
pub fn em_fit_with<R: EmRunner>(
    runner: &mut R,
    init: MixtureModel,
    max_iters: usize,
    tol: f64,
) -> Result<EmFit, R::Error> {
    let mut model = init;
    let mut history: Vec<f64> = Vec::new();
    let mut iterations = 0;
    for _ in 0..max_iters {
        iterations += 1;
        let step = runner.run_pass(&EmPass::Estep(&model.evaluator()))?;
        let converged = history
            .last()
            .map(|&prev| (step.loglik - prev).abs() <= tol * prev.abs().max(1.0))
            .unwrap_or(false);
        history.push(step.loglik);
        if converged {
            break;
        }
        model = MixtureModel {
            arel: model.arel,
            components: finish_components(&step.accs),
        };
    }
    Ok(EmFit {
        model,
        loglik_history: history,
        iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Interval, Signature};

    fn two_blob_rows() -> Vec<Vec<f64>> {
        // Blob A around (0.2, 0.2), blob B around (0.8, 0.8), in 2D.
        let mut rows = Vec::new();
        for i in 0..100 {
            let t = (i as f64) / 100.0 * 0.08;
            rows.push(vec![0.16 + t, 0.24 - t]);
            rows.push(vec![0.76 + t, 0.84 - t]);
        }
        rows
    }

    fn cores_for_blobs() -> Vec<ClusterCore> {
        let a = Signature::new(vec![Interval::new(0, 1, 2, 10), Interval::new(1, 1, 2, 10)]);
        let b = Signature::new(vec![Interval::new(0, 7, 8, 10), Interval::new(1, 7, 8, 10)]);
        vec![
            ClusterCore {
                signature: a,
                support: 100.0,
                expected: 1.0,
            },
            ClusterCore {
                signature: b,
                support: 100.0,
                expected: 1.0,
            },
        ]
    }

    #[test]
    fn initialization_centers_on_blobs() {
        let data = two_blob_rows();
        let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        let model = initialize_from_cores(&cores_for_blobs(), &rows, &[0, 1]);
        assert_eq!(model.components.len(), 2);
        let m0 = &model.components[0].mean;
        let m1 = &model.components[1].mean;
        assert!((m0[0] - 0.2).abs() < 0.05, "mean0 {m0:?}");
        assert!((m1[0] - 0.8).abs() < 0.05, "mean1 {m1:?}");
        let wsum: f64 = model.components.iter().map(|c| c.weight).sum();
        assert!((wsum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn em_improves_loglik_monotonically() {
        let data = two_blob_rows();
        let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        let init = initialize_from_cores(&cores_for_blobs(), &rows, &[0, 1]);
        let fit = em_fit(init, &rows, 8, 0.0);
        for w in fit.loglik_history.windows(2) {
            assert!(
                w[1] >= w[0] - 1e-6,
                "loglik decreased: {:?}",
                fit.loglik_history
            );
        }
    }

    #[test]
    fn converged_model_loglik_matches_history_tail() {
        let data = two_blob_rows();
        let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        let init = initialize_from_cores(&cores_for_blobs(), &rows, &[0, 1]);
        let fit = em_fit(init, &rows, 50, 1e-6);
        assert!(fit.iterations < 50, "should converge before the budget");
        assert_eq!(fit.iterations, fit.loglik_history.len());
        // On convergence the loop stops before the redundant M-step, so
        // the returned model is exactly the one whose log-likelihood was
        // recorded last; re-evaluating it reproduces the tail bit-for-bit.
        let eval = fit.model.evaluator();
        let Ok(step) = PoolRunner::new(&rows, 1).run_pass(&EmPass::Estep(&eval));
        assert_eq!(
            step.loglik.to_bits(),
            fit.loglik_history.last().unwrap().to_bits()
        );
    }

    #[test]
    fn hard_assignment_separates_blobs() {
        let data = two_blob_rows();
        let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        let init = initialize_from_cores(&cores_for_blobs(), &rows, &[0, 1]);
        let fit = em_fit(init, &rows, 10, 1e-6);
        let eval = fit.model.evaluator();
        let (mut x, mut y) = (Vec::new(), Vec::new());
        let a = eval.assign_scratch(&[0.2, 0.2], &mut x, &mut y);
        let b = eval.assign_scratch(&[0.8, 0.8], &mut x, &mut y);
        assert_ne!(a, b);
        // Every even row (blob A) goes with `a`, odd with `b`.
        for (i, row) in rows.iter().enumerate() {
            let got = eval.assign_scratch(row, &mut x, &mut y);
            assert_eq!(got, if i % 2 == 0 { a } else { b }, "row {i}");
        }
    }

    #[test]
    fn responsibilities_sum_to_one() {
        let data = two_blob_rows();
        let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        let model = initialize_from_cores(&cores_for_blobs(), &rows, &[0, 1]);
        let eval = model.evaluator();
        let (mut resp, mut y) = (Vec::new(), Vec::new());
        for row in rows.iter().take(10) {
            let x = eval.project(row);
            eval.responsibilities_scratch(&x, &mut resp, &mut y);
            let s: f64 = resp.iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
            assert!(resp.iter().all(|&r| (0.0..=1.0).contains(&r)));
        }
    }

    #[test]
    fn projection_uses_arel_only() {
        let model = MixtureModel {
            arel: vec![1, 3],
            components: vec![Component {
                mean: vec![0.5, 0.5],
                cov: Matrix::identity(2),
                weight: 1.0,
            }],
        };
        let eval = model.evaluator();
        assert_eq!(eval.project(&[9.0, 0.1, 9.0, 0.7]), vec![0.1, 0.7]);
    }

    #[test]
    fn block_kernels_match_the_per_point_functions() {
        // The full oracle matrix (threads, every `npts mod 8` residue,
        // the 512-point block boundaries, the MR jobs) lives in
        // `tests/lane_kernels.rs`; this pins the two block bodies at
        // sub-group, exact-group and ragged-group sizes.
        let data = two_blob_rows();
        let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        let model = initialize_from_cores(&cores_for_blobs(), &rows, &[0, 1]);
        let eval = model.evaluator();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        for npts in [1usize, 3, 5, 8, 9, 11, 24, 40, 200] {
            let proj: Vec<f64> = rows[..npts]
                .iter()
                .flat_map(|r| r.iter().copied())
                .collect();
            let mut scratch = EstepScratch::new();
            let EmPartial { accs, loglik } = eval.estep_block(&proj, &mut scratch);
            let mut want: Vec<CovarianceAccumulator> =
                (0..2).map(|_| CovarianceAccumulator::new(2)).collect();
            let mut want_ll = 0.0;
            let (mut resp, mut y) = (Vec::new(), Vec::new());
            for x in proj.chunks_exact(2) {
                want_ll += eval.responsibilities_scratch(x, &mut resp, &mut y);
                for (acc, &r) in want.iter_mut().zip(&resp) {
                    if r > 1e-12 {
                        acc.push(x, r);
                    }
                }
            }
            assert_eq!(loglik.to_bits(), want_ll.to_bits(), "loglik at npts={npts}");
            for (a, b) in accs.iter().zip(&want) {
                let (_, la, sa, wa, wsa, ca) = a.to_parts();
                let (_, lb, sb, wb, wsb, cb) = b.to_parts();
                assert_eq!(
                    (wa.to_bits(), wsa.to_bits(), ca),
                    (wb.to_bits(), wsb.to_bits(), cb)
                );
                assert_eq!(bits(la), bits(lb), "linear sums at npts={npts}");
                assert_eq!(bits(sa), bits(sb), "scatter at npts={npts}");
            }
        }
    }

    #[test]
    fn degenerate_single_point_core_survives() {
        let data = [vec![0.5, 0.5], vec![0.9, 0.9]];
        let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        let core = ClusterCore {
            signature: Signature::new(vec![Interval::new(0, 4, 4, 10)]),
            support: 1.0,
            expected: 0.1,
        };
        let model = initialize_from_cores(&[core], &rows, &[0, 1]);
        // Should not panic, and covariance must be factorizable.
        let eval = model.evaluator();
        assert_eq!(eval.num_components(), 1);
        let _ = eval.assign_scratch(&[0.5, 0.5], &mut Vec::new(), &mut Vec::new());
    }
}
