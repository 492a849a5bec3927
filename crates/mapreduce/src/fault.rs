//! Deterministic fault injection for map tasks.
//!
//! MapReduce's defining operational property is tolerance to task failure:
//! a failed task is simply re-executed. The engine reproduces this with a
//! seedable, *deterministic* failure oracle so tests can assert both that
//! failures happened and that results are unaffected.

/// A plan describing which task attempts fail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Probability in `[0,1]` that any given task *attempt* fails.
    pub failure_probability: f64,
    /// Seed making the oracle deterministic.
    pub seed: u64,
}

impl FaultPlan {
    /// Plan failing each attempt with `failure_probability`,
    /// deterministically derived from `seed`.
    pub fn new(failure_probability: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&failure_probability),
            "failure probability must be in [0,1]"
        );
        Self {
            failure_probability,
            seed,
        }
    }

    /// Whether the given attempt of the given task in the given job fails.
    ///
    /// Pure function of `(seed, job, task, attempt)` — re-running the same
    /// pipeline yields the identical failure pattern.
    pub fn should_fail(&self, job_name: &str, task: usize, attempt: usize) -> bool {
        if self.failure_probability <= 0.0 {
            return false;
        }
        if self.failure_probability >= 1.0 {
            return true;
        }
        let h = splitmix_hash(self.seed, job_name, task, attempt);
        // Map the hash to [0,1) and compare.
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        u < self.failure_probability
    }
}

/// A plan describing which map tasks run on "slow nodes".
///
/// Companion to [`FaultPlan`]: instead of failing, a straggling task's
/// *primary* attempt is delayed by `delay_ms` (in small cancellable
/// increments, so a speculative backup committing the task releases the
/// straggler immediately — Hadoop kills the slower attempt the same way).
#[derive(Debug, Clone, Copy)]
pub struct StragglerPlan {
    /// Probability in `[0,1]` that a task's primary attempt straggles.
    pub probability: f64,
    /// Added latency of a straggling attempt, in milliseconds.
    pub delay_ms: u64,
    /// Seed making the oracle deterministic.
    pub seed: u64,
}

impl StragglerPlan {
    /// Plan delaying each task by `delay_ms` with `probability`,
    /// deterministically derived from `seed`.
    pub fn new(probability: f64, delay_ms: u64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&probability),
            "straggle probability must be in [0,1]"
        );
        Self {
            probability,
            delay_ms,
            seed,
        }
    }

    /// Whether the primary attempt of the given task straggles.
    pub fn should_straggle(&self, job_name: &str, task: usize) -> bool {
        if self.probability <= 0.0 {
            return false;
        }
        if self.probability >= 1.0 {
            return true;
        }
        let h = splitmix_hash(self.seed ^ 0x5747_ca61, job_name, task, 0);
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        u < self.probability
    }
}

/// SplitMix64-style avalanche over the task coordinates.
fn splitmix_hash(seed: u64, job_name: &str, task: usize, attempt: usize) -> u64 {
    let mut x = seed ^ 0x9e37_79b9_7f4a_7c15;
    for &b in job_name.as_bytes() {
        x = mix(x ^ b as u64);
    }
    x = mix(x ^ task as u64);
    x = mix(x ^ (attempt as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9));
    x
}

#[inline]
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
    fn deterministic() {
        let p = FaultPlan::new(0.5, 42);
        for task in 0..20 {
            for attempt in 0..3 {
                assert_eq!(
                    p.should_fail("job", task, attempt),
                    p.should_fail("job", task, attempt)
                );
            }
        }
    }

    #[test]
    fn zero_and_one_probability() {
        let never = FaultPlan::new(0.0, 1);
        let always = FaultPlan::new(1.0, 1);
        for t in 0..10 {
            assert!(!never.should_fail("j", t, 0));
            assert!(always.should_fail("j", t, 0));
        }
    }

    #[test]
    fn rate_is_close_to_probability() {
        let p = FaultPlan::new(0.3, 7);
        let fails = (0..10_000).filter(|&t| p.should_fail("rate", t, 0)).count();
        let rate = fails as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.02, "observed {rate}");
    }

    #[test]
    fn attempts_fail_independently() {
        // With p = 0.5 a task should not fail on *every* attempt forever;
        // verify that some task failing at attempt 0 succeeds by attempt 5.
        let p = FaultPlan::new(0.5, 99);
        let mut saw_recovery = false;
        for t in 0..100 {
            if p.should_fail("j", t, 0) && (1..6).any(|a| !p.should_fail("j", t, a)) {
                saw_recovery = true;
                break;
            }
        }
        assert!(saw_recovery);
    }

    #[test]
    fn different_jobs_have_different_patterns() {
        let p = FaultPlan::new(0.5, 3);
        let a: Vec<bool> = (0..64).map(|t| p.should_fail("job-a", t, 0)).collect();
        let b: Vec<bool> = (0..64).map(|t| p.should_fail("job-b", t, 0)).collect();
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "failure probability")]
    fn invalid_probability_rejected() {
        let _ = FaultPlan::new(1.5, 0);
    }

    #[test]
    fn straggler_plan_deterministic_and_rate_bound() {
        let p = StragglerPlan::new(0.25, 100, 5);
        for t in 0..20 {
            assert_eq!(p.should_straggle("j", t), p.should_straggle("j", t));
        }
        let rate = (0..10_000)
            .filter(|&t| p.should_straggle("rate", t))
            .count() as f64
            / 10_000.0;
        assert!((rate - 0.25).abs() < 0.02, "observed {rate}");
        assert!(!StragglerPlan::new(0.0, 100, 1).should_straggle("j", 0));
        assert!(StragglerPlan::new(1.0, 100, 1).should_straggle("j", 0));
    }
}
