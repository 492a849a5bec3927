//! Seeded choice of which map outputs a test loses.
//!
//! The shuffle service's loss injection
//! ([`LocalBackend::shuffle_service_with_loss`](super::LocalBackend::shuffle_service_with_loss))
//! and the process backend's worker kills
//! ([`ProcessBackend::new`](super::ProcessBackend::new)) both need a
//! reproducible answer to "is this map's output hit?". A
//! [`LossSelector`] gives it as a pure function of its seed, the job
//! name and the map index, so a test can assert that recovery happened
//! and that the output did not change.

/// Selects map outputs at a fixed rate, deterministically from a seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossSelector {
    probability: f64,
    seed: u64,
}

impl LossSelector {
    /// Selector hitting each map output with `probability`, derived
    /// from `seed`.
    pub fn new(probability: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&probability),
            "loss probability must be in [0,1]"
        );
        Self { probability, seed }
    }

    /// Whether map `map_id`'s output in job `job` is hit. A pure
    /// function of `(seed, job, map_id)`.
    pub fn hits(&self, job: &str, map_id: usize) -> bool {
        if self.probability <= 0.0 {
            return false;
        }
        if self.probability >= 1.0 {
            return true;
        }
        let mut x = self.seed ^ 0x9e37_79b9_7f4a_7c15;
        for &b in job.as_bytes() {
            x = mix(x ^ b as u64);
        }
        x = mix(x ^ map_id as u64);
        // The top 53 bits as a uniform draw in [0,1).
        let u = (x >> 11) as f64 / (1u64 << 53) as f64;
        u < self.probability
    }
}

/// SplitMix64's finaliser.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_choice_is_a_pure_function_at_the_asked_rate() {
        let s = LossSelector::new(0.3, 7);
        for map_id in 0..20 {
            assert_eq!(s.hits("job", map_id), s.hits("job", map_id));
        }
        let hit = (0..10_000).filter(|&m| s.hits("rate", m)).count();
        let rate = hit as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.02, "observed {rate}");
        let a: Vec<bool> = (0..64).map(|m| s.hits("job-a", m)).collect();
        let b: Vec<bool> = (0..64).map(|m| s.hits("job-b", m)).collect();
        assert_ne!(a, b, "jobs are selected independently");
        assert!(!LossSelector::new(0.0, 1).hits("j", 0));
        assert!(LossSelector::new(1.0, 1).hits("j", 0));
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn an_out_of_range_probability_is_rejected() {
        let _ = LossSelector::new(1.5, 0);
    }
}
