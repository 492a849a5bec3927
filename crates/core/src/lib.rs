//! P3C, P3C+, P3C+-MR and P3C+-MR-Light — projected clustering for huge
//! data sets, reproduced from Fries, Wels & Seidl (EDBT 2014).
//!
//! # The algorithms
//!
//! * [`p3c::P3c`] — the original P3C of Moise, Sander & Ester (ICDM 2006)
//!   as the paper describes it: Sturges-binned histograms, χ² relevance,
//!   Poisson-tested Apriori cluster-core generation, EM refinement, naive
//!   multivariate outlier detection, attribute inspection and interval
//!   tightening. Implemented as the baseline.
//! * [`p3cplus::P3cPlus`] — the paper's improved model (Section 4):
//!   Freedman–Diaconis binning, Poisson **plus Cohen's d effect-size**
//!   support test, **cluster-core redundancy filtering**, **MVB**
//!   (minimum-volume-ball) outlier detection, and **AI proving**.
//! * [`mr::P3cPlusMr`] — P3C+ decomposed into MapReduce jobs on the
//!   [`p3c_mapreduce::Engine`] (Section 5): histogram job, core
//!   generation as [`cores`]' one level loop counting through
//!   RSSC-accelerated candidate-proving jobs (several levels per job by
//!   multi-level collection) and joining through the parallel
//!   candidate-generation job, EM init/iteration jobs, OD/MVB jobs, and
//!   one attribute-inspection job that also carries interval tightening.
//! * [`mr::P3cPlusMrLight`] — the Light variant (Section 6): skips EM and
//!   outlier detection entirely and reads clusters straight off the
//!   cluster cores, using unique-support-set membership for attribute
//!   inspection. Fastest, and on large data the most accurate.
//!
//! # Quick start
//!
//! ```
//! use p3c_core::p3cplus::P3cPlus;
//! use p3c_core::config::P3cParams;
//! use p3c_datagen::{generate, SyntheticSpec};
//!
//! let data = generate(&SyntheticSpec { n: 2000, d: 10, num_clusters: 2,
//!     noise_fraction: 0.05, max_cluster_dims: 4, seed: 3,
//!     ..SyntheticSpec::default() });
//! let result = P3cPlus::new(P3cParams::default()).cluster(&data.dataset);
//! assert!(!result.clustering.clusters.is_empty());
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod cores;
pub mod em;
pub mod histogram;
pub mod incremental;
pub mod inspect;
pub mod mr;
#[cfg(test)]
mod oracle;
pub mod outlier;
pub mod p3c;
pub mod p3cplus;
pub mod redundancy;
pub mod relevance;
pub mod support;
pub mod types;

pub use config::{BinRuleChoice, OutlierMethod, P3cParams};
pub use types::{Interval, Signature};
