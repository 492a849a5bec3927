//! The run-time instruction-set tier of the block kernels (DESIGN.md §13).
//!
//! The workspace builds for baseline x86-64 (SSE2, no POPCNT). Five
//! block-level kernel entry points each carry an AVX2 twin: the same
//! `#[inline(always)]` body compiled a second time under
//! `#[target_feature(enable = "avx2")]` (plus `popcnt` for support
//! counting), called only when [`avx2`] says the running CPU has those
//! features. Neither twin enables `fma`, so both compile every
//! `a * b + c` to a rounded multiply and a rounded add, in the same
//! per-lane order: the tiers are bit-identical, and only the register
//! width differs.

/// Whether the running CPU has the AVX2 tier: AVX2 and POPCNT. Always
/// `false` off `x86_64`. The detection runs once per process; `std`
/// caches its result, so later calls are one atomic load.
#[inline]
pub fn avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("popcnt")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The tier's name as recorded next to measured numbers: `"avx2"` or
/// `"baseline"`.
pub fn name() -> &'static str {
    if avx2() {
        "avx2"
    } else {
        "baseline"
    }
}
