//! The one loop every MapReduce pipeline runs in: a named chain of steps.
//!
//! The paper defines P3C+-MR, P3C+-MR-Light and BoW as fixed chains of
//! MR jobs (Sections 5.1–5.7 and 6). A pipeline opens a chain with
//! [`run_chain`], naming it and picking a [`SchedulerChoice`], and runs
//! each stage as a [`Chain::step`]. A step hands its value straight back
//! to the caller, so a pipeline's intermediates are plain locals that the
//! compiler checks.
//!
//! * `Serial` runs each step once and records nothing.
//! * `Dag` gives each step two attempts and records one [`DagMetrics`]
//!   entry per chain in the engine's [`crate::ClusterMetrics`], for a
//!   failed chain too.
//!
//! Steps never overlap: each step's jobs already run on all of the
//! engine's threads. A step that panics unwinds out of [`run_chain`] to
//! its caller, and the chain records nothing.

use crate::engine::{Engine, MrError};
use crate::metrics::{DagMetrics, DagNodeMetrics};
use std::time::Instant;

/// Attempts per step under [`SchedulerChoice::Dag`]. Map tasks are not
/// retried: each runs once.
const MAX_STEP_ATTEMPTS: u64 = 2;

/// What [`Chain::step`] gives each step of a pipeline's chains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerChoice {
    /// Run each step once (the paper's literal job chain). Records no
    /// [`DagMetrics`].
    #[default]
    Serial,
    /// The same chain, plus a second attempt for a failed step and one
    /// [`DagMetrics`] entry per chain.
    Dag,
}

impl SchedulerChoice {
    /// Parses a CLI-style scheduler name (`"serial"` / `"dag"`).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "serial" => Some(Self::Serial),
            "dag" => Some(Self::Dag),
            _ => None,
        }
    }

    /// The canonical name, the inverse of [`SchedulerChoice::parse`].
    pub fn name(self) -> &'static str {
        match self {
            Self::Serial => "serial",
            Self::Dag => "dag",
        }
    }
}

/// A chain in progress: the engine its steps run on and, under
/// [`SchedulerChoice::Dag`], the entry it fills in and its start time.
pub struct Chain<'e> {
    engine: &'e Engine,
    dag: Option<(DagMetrics, Instant)>,
}

/// Runs `body` as the chain `name` on `engine` and returns what it
/// returns. Under [`SchedulerChoice::Dag`] the chain's [`DagMetrics`]
/// entry is recorded when `body` returns, `Ok` or `Err`.
pub fn run_chain<T>(
    engine: &Engine,
    name: &str,
    scheduler: SchedulerChoice,
    body: impl FnOnce(&mut Chain<'_>) -> Result<T, MrError>,
) -> Result<T, MrError> {
    let dag = (scheduler == SchedulerChoice::Dag).then(|| {
        let metrics = DagMetrics {
            dag_name: name.to_string(),
            ..DagMetrics::default()
        };
        // audit: time-ok — wall time feeds DagMetrics only, never results.
        (metrics, Instant::now())
    });
    let mut chain = Chain { engine, dag };
    let result = body(&mut chain);
    if let Some((mut metrics, started)) = chain.dag {
        metrics.wall = started.elapsed();
        engine.record_dag(metrics);
    }
    result
}

impl Chain<'_> {
    /// Runs the step `name` and hands back its value. Under
    /// [`SchedulerChoice::Dag`] a failed step runs once more, and the
    /// second failure is returned.
    pub fn step<T>(
        &mut self,
        name: &str,
        mut body: impl FnMut(&Engine) -> Result<T, MrError>,
    ) -> Result<T, MrError> {
        let Some((metrics, _)) = self.dag.as_mut() else {
            return body(self.engine);
        };
        // One step runs at a time.
        metrics.concurrency_high_water = 1;
        let mut step = DagNodeMetrics {
            node: name.to_string(),
            ..DagNodeMetrics::default()
        };
        let result = loop {
            // audit: time-ok — per-step wall time feeds metrics only.
            let t0 = Instant::now();
            let result = body(self.engine);
            step.attempts += 1;
            step.wall += t0.elapsed();
            metrics.total_executions += 1;
            if result.is_err() {
                metrics.failed_node_attempts += 1;
            }
            if result.is_ok() || step.attempts == MAX_STEP_ATTEMPTS {
                break result;
            }
        };
        metrics.nodes.push(step);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Emitter;
    use crate::engine::MrConfig;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    const SCHEDULERS: [SchedulerChoice; 2] = [SchedulerChoice::Serial, SchedulerChoice::Dag];

    fn engine() -> Engine {
        Engine::new(MrConfig {
            split_size: 4,
            ..MrConfig::default()
        })
    }

    /// A step body: sums `nums` with an MR job named after the step.
    fn sum(engine: &Engine, job: &str, nums: &[u64]) -> Result<u64, MrError> {
        let mapper = |rs: &[u64], em: &mut Emitter<(), u64>| {
            for r in rs {
                em.emit((), *r);
            }
        };
        let reducer = |_k: &(), vs: Vec<u64>, o: &mut Vec<u64>| o.push(vs.into_iter().sum());
        Ok(engine
            .run(job, nums, &mapper, &reducer)?
            .output
            .into_iter()
            .sum())
    }

    fn backend_failed(job: &str) -> MrError {
        MrError::Backend {
            job: job.to_string(),
            message: "shuffle partition lost".to_string(),
        }
    }

    #[test]
    fn steps_run_in_order_and_only_dag_records_each_chain() {
        let nums: Vec<u64> = (0..10).collect();
        for scheduler in SCHEDULERS {
            let eng = engine();
            let mut order = Vec::new();
            let doubled = run_chain(&eng, "chain", scheduler, |chain| {
                let total = chain.step("sum", |eng| {
                    order.push("sum");
                    sum(eng, "sum", &nums)
                })?;
                chain.step("double", |_| {
                    order.push("double");
                    Ok(total * 2)
                })
            })
            .unwrap();
            run_chain(&eng, "again", scheduler, |chain| {
                chain.step("sum", |eng| sum(eng, "sum-again", &nums))
            })
            .unwrap();
            assert_eq!(doubled, 90, "{scheduler:?}");
            assert_eq!(order, ["sum", "double"], "{scheduler:?}");
            let ledger = eng.cluster_metrics();
            assert_eq!(ledger.jobs()[0].job_name, "sum", "{scheduler:?}");
            let runs = ledger.dag_runs();
            if scheduler == SchedulerChoice::Serial {
                assert!(runs.is_empty());
                continue;
            }
            let names: Vec<&str> = runs.iter().map(|r| r.dag_name.as_str()).collect();
            assert_eq!(names, ["chain", "again"]);
            let steps: Vec<&str> = runs[0].nodes.iter().map(|n| n.node.as_str()).collect();
            assert_eq!(steps, ["sum", "double"]);
            assert_eq!(runs[0].total_executions, 2);
            assert_eq!(runs[0].concurrency_high_water, 1);
            assert_eq!(runs[0].node("double").unwrap().attempts, 1);
        }
    }

    #[test]
    fn a_step_failing_once_runs_twice_under_dag_only() {
        for scheduler in SCHEDULERS {
            let eng = engine();
            let mut tries = 0;
            let result = run_chain(&eng, "flaky", scheduler, |chain| {
                chain.step("flaky-step", |_| {
                    tries += 1;
                    if tries == 1 {
                        Err(backend_failed("flaky-job"))
                    } else {
                        Ok(tries)
                    }
                })
            });
            match scheduler {
                SchedulerChoice::Serial => {
                    assert_eq!(result, Err(backend_failed("flaky-job")));
                    assert!(eng.cluster_metrics().dag_runs().is_empty());
                }
                SchedulerChoice::Dag => {
                    assert_eq!(result, Ok(2));
                    let ledger = eng.cluster_metrics();
                    let run = &ledger.dag_runs()[0];
                    assert_eq!(run.failed_node_attempts, 1);
                    assert_eq!(run.total_executions, 2);
                    assert_eq!(run.node("flaky-step").unwrap().attempts, 2);
                }
            }
        }
    }

    #[test]
    fn an_exhausted_step_surfaces_its_panic_and_is_recorded() {
        // The step's mapper panics on every run, so the job fails with
        // MrError::Panicked on both step attempts.
        let eng = engine();
        let nums: Vec<u64> = (0..10).collect();
        let mut after = 0;
        let err = run_chain(&eng, "doomed", SchedulerChoice::Dag, |chain| {
            chain.step("doomed-step", |eng| {
                let mapper = |rs: &[u64], em: &mut Emitter<(), u64>| {
                    for r in rs {
                        assert!(*r != 5, "mapper exploded");
                        em.emit((), *r);
                    }
                };
                let reducer = |_k: &(), vs: Vec<u64>, o: &mut Vec<u64>| o.push(vs.len() as u64);
                eng.run("doomed-job", &nums, &mapper, &reducer)
            })?;
            chain.step("never", |_| {
                after += 1;
                Ok(())
            })
        })
        .unwrap_err();
        assert_eq!(
            err,
            MrError::Panicked {
                job: "doomed-job".to_string(),
                phase: "map".to_string(),
            }
        );
        assert_eq!(after, 0);
        let ledger = eng.cluster_metrics();
        let [run] = ledger.dag_runs() else {
            panic!("a failed chain records one entry");
        };
        assert_eq!(run.dag_name, "doomed");
        assert_eq!(run.failed_node_attempts, 2);
        let steps: Vec<(&str, u64)> = run
            .nodes
            .iter()
            .map(|n| (n.node.as_str(), n.attempts))
            .collect();
        assert_eq!(steps, [("doomed-step", 2)]);
    }

    #[test]
    fn a_panicking_step_unwinds_and_spares_the_engine() {
        let nums: Vec<u64> = (0..10).collect();
        for scheduler in SCHEDULERS {
            let eng = engine();
            let unwound = catch_unwind(AssertUnwindSafe(|| {
                run_chain(&eng, "explodes", scheduler, |chain| {
                    chain.step("boom", |_| -> Result<(), MrError> {
                        panic!("step exploded")
                    })
                })
            }));
            assert!(
                unwound.is_err(),
                "{scheduler:?}: the panic reaches the caller"
            );
            assert!(eng.cluster_metrics().dag_runs().is_empty(), "{scheduler:?}");

            let total = run_chain(&eng, "after", scheduler, |chain| {
                chain.step("sum", |eng| sum(eng, "sum", &nums))
            })
            .unwrap();
            assert_eq!(total, 45, "{scheduler:?}");
        }
    }

    #[test]
    fn an_empty_chain_records_high_water_zero() {
        let eng = engine();
        run_chain(&eng, "empty", SchedulerChoice::Dag, |_| Ok(())).unwrap();
        let ledger = eng.cluster_metrics();
        let run = &ledger.dag_runs()[0];
        assert_eq!(run.dag_name, "empty");
        assert_eq!(run.total_executions, 0);
        assert_eq!(run.concurrency_high_water, 0);
    }
}
