//! Synthetic workload generators matching the paper's evaluation data.
//!
//! * [`synthetic`] — the Section 7.1 generator: hyperrectangular projected
//!   clusters of 2–10 relevant dimensions with interval widths 0.1–0.3,
//!   Gaussian within relevant intervals, uniform on irrelevant attributes,
//!   configurable noise percentage, guaranteed cluster overlap, and full
//!   ground-truth bookkeeping.
//! * [`colon`] — a stand-in for the UCI 'colon cancer' set (62 points ×
//!   2000 attributes, two classes); the real set is a licensed download,
//!   so we synthesize a matrix with the same shape and the same
//!   discriminative structure (a small block of class-separating genes in
//!   a sea of noise). See DESIGN.md §1 for the substitution rationale.
//! * [`rng`] — the seeded stream both are a pure function of.

pub mod colon;
pub mod rng;
pub mod synthetic;

pub use colon::{colon_like, ColonSpec, LabeledData};
pub use synthetic::{generate, GeneratedData, SyntheticSpec};
