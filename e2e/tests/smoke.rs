//! `e2e run --smoke` end to end: all seven workloads at 1/20 scale,
//! every run a child process of the real binary (the process backend's
//! workers are that binary too, so nothing else has to be built).

use p3c_e2e::json::{self, Value};
use p3c_e2e::spec;
use std::path::PathBuf;
use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_e2e");

/// Per workload: metrics that must be non-zero (the workload exercises
/// the layer) and metrics that must be zero (it bypasses the layer).
const EXPECT: [(&str, &[&str], &[&str]); 7] = [
    (
        "mr-light-wide",
        &[
            "core.coregen_s",
            "core.coregen.candidates",
            "core.coregen.proving_jobs",
            "core.finalize_s",
            "mapreduce.engine.jobs",
            "mapreduce.engine.broadcast_bytes",
            "mapreduce.driver_s",
            "cli.cluster_wall_s",
            "trace.coverage",
        ],
        &[
            "core.em_fit_s",
            "core.em.iterations",
            "core.outlier_s",
            "bow.assign_s",
            "mapreduce.dag.wall_s",
            "mapreduce.distrib.bytes_moved",
            "mapreduce.service.append_ms_p50",
        ],
    ),
    (
        "bow-light-wide",
        &[
            "bow.sample_cluster_map_s",
            "bow.sample_cluster_reduce_s",
            "bow.assign_s",
            "mapreduce.engine.replication_rate",
        ],
        &[
            "core.coregen_s",
            "core.em_fit_s",
            "mapreduce.distrib.bytes_moved",
            "mapreduce.distrib.shuffle_fetches",
            "cli.cluster_wall_s",
        ],
    ),
    (
        "bow-light-process",
        &[
            "bow.sample_cluster_reduce_s",
            "mapreduce.distrib.bytes_moved",
            "mapreduce.distrib.shuffle_fetches",
            "mapreduce.distrib.mb_moved_per_s",
            "mapreduce.distrib.frame_write_mb_s",
            "mapreduce.distrib.frame_read_mb_s",
            "mapreduce.distrib.encode_mb_s",
        ],
        &["core.coregen_s", "core.em_fit_s", "mapreduce.dag.wall_s"],
    ),
    (
        "mr-full-narrow",
        &[
            "core.histogram_s",
            "core.em_init_s",
            "core.em_fit_s",
            "core.em.iterations",
            "core.outlier_s",
            "core.finalize_s",
            "mapreduce.engine.empty_jobs",
            "mapreduce.dag.wall_s",
            "mapreduce.dag.outside_s",
            "mapreduce.dag.concurrency_high_water",
        ],
        &[
            "bow.assign_s",
            "mapreduce.distrib.bytes_moved",
            "core.coregen.truncated_levels",
            "cli.cluster_wall_s",
        ],
    ),
    (
        "serial-full-fig7",
        &[
            "core.histogram_s",
            "core.relevance_s",
            "core.coregen_s",
            "core.redundancy_s",
            "core.em_init_s",
            "core.em_fit_s",
            "core.assign_s",
            "core.outlier_s",
            "core.finalize_s",
            "cli.cluster_wall_s",
            "trace.overhead_ratio",
        ],
        &[
            "mapreduce.engine.jobs",
            "mapreduce.driver_s",
            "core.coregen.proving_jobs",
        ],
    ),
    (
        "serve-durable",
        &[
            "mapreduce.service.append_ms_p50",
            "mapreduce.service.append_ms_p99",
            "mapreduce.service.recluster_fast_ms_p50",
            "mapreduce.service.recluster_full_ms_p50",
            "mapreduce.service.retract_ms_p50",
            "mapreduce.service.recover_s",
            "mapreduce.service.stored_bytes_per_user_byte",
            "core.incremental.append_ms_p50",
            "core.incremental.snapshot_bytes",
            "core.incremental.snapshot_decode_ms",
            "dataset.journal.record_ms_p50",
            "dataset.journal.read_ms",
            "dataset.journal.snapshot_write_ms",
        ],
        &[
            "mapreduce.store.spills",
            "mapreduce.store.spill_loads",
            "mapreduce.store.evictions",
            "dataset.colseg.encode_mb_s",
            "mapreduce.engine.jobs",
        ],
    ),
    (
        "serve-spill",
        &[
            "mapreduce.service.append_ms_p50",
            "mapreduce.service.recluster_full_ms_p50",
            "core.incremental.fast_path_ratio",
            "mapreduce.store.spills",
            "mapreduce.store.spill_loads",
            "mapreduce.store.segment_bytes_read",
            "mapreduce.store.evictions",
            "dataset.colseg.encode_mb_s",
            "dataset.colseg.decode_mb_s",
        ],
        &[
            "mapreduce.service.recover_s",
            "mapreduce.service.stored_bytes_per_user_byte",
            "mapreduce.service.records_replayed",
            "dataset.journal.record_ms_p50",
            "core.incremental.snapshot_bytes",
        ],
    ),
];

/// A directory of this test's own, beside the test executable.
fn out_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(EXE)
        .parent()
        .expect("executable has a directory")
        .join(format!("e2e-smoke-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn member<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.get(key).unwrap_or_else(|| panic!("missing `{key}`"))
}

#[test]
fn smoke_suite_emits_every_metric_and_exercises_the_named_layers() {
    let dir = out_dir("suite");
    let run = Command::new(EXE)
        .args(["run", "--smoke", "--seed", "7", "--out"])
        .arg(&dir)
        .output()
        .expect("spawn e2e run");
    assert!(
        run.status.success(),
        "e2e run --smoke failed:\n{}\n{}",
        String::from_utf8_lossy(&run.stdout),
        String::from_utf8_lossy(&run.stderr)
    );

    let text = std::fs::read_to_string(dir.join("e2e.json")).expect("e2e.json written");
    assert_ne!(
        text.trim(),
        "{}",
        "the hand-rolled writer wrote an empty object"
    );
    let file = json::parse(&text).expect("e2e.json parses with the in-crate reader");
    assert_eq!(member(&file, "seed").as_f64(), Some(7.0));
    assert!(member(&file, "nproc").as_f64().is_some_and(|n| n >= 1.0));
    assert!(member(&file, "git_head").as_str().is_some());
    let workloads = member(&file, "workloads").as_arr().expect("an array");
    assert_eq!(workloads.len(), spec::WORKLOADS.len());

    for (w, (name, nonzero, zero)) in workloads.iter().zip(EXPECT) {
        assert_eq!(member(w, "name").as_str(), Some(name));
        assert_eq!(
            member(w, "failed").as_f64(),
            Some(0.0),
            "{name}: operations failed"
        );
        assert!(member(w, "attempted").as_f64().is_some_and(|a| a >= 1.0));

        // Exactly the declared end-to-end metrics, none of them 0.
        let e2e = member(w, "end_to_end").as_obj().expect("an object");
        let names: Vec<&str> = e2e.iter().map(|(k, _)| k.as_str()).collect();
        let declared: Vec<&str> = spec::END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, declared, "{name}");
        for (metric, stat) in e2e {
            let v = member(stat, "median").as_f64().expect("a number");
            assert!(v > 0.0, "{name}: {metric} is {v}");
        }

        // Exactly the declared per-layer metrics.
        let layers = member(w, "per_layer").as_obj().expect("an object");
        let names: Vec<&str> = layers.iter().map(|(k, _)| k.as_str()).collect();
        let declared: Vec<&str> = spec::PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, declared, "{name}");
        let layer = |metric: &str| {
            member(member(w, "per_layer"), metric)
                .get("value")
                .and_then(Value::as_f64)
                .expect("a number")
        };
        for metric in nonzero {
            assert!(
                layer(metric) != 0.0,
                "{name}: {metric} is 0, the layer was not exercised"
            );
        }
        for metric in zero {
            assert!(
                layer(metric) == 0.0,
                "{name}: {metric} is {}, expected 0",
                layer(metric)
            );
        }
        assert!(layer("harness.passes") >= 1.0, "{name}");

        // Span records of the traced run.
        let trace = std::fs::read_to_string(dir.join(format!("trace-{name}.json")))
            .expect("trace file written");
        let spans = json::parse(&trace).expect("trace parses");
        let spans = spans.as_arr().expect("an array");
        assert!(!spans.is_empty(), "{name}: no spans");
        for s in spans {
            for key in ["name", "start_ns", "end_ns", "parent", "pass"] {
                member(s, key);
            }
        }
    }

    // serial-full-fig7's staged replay covers its root.
    let fig7 = &workloads[4];
    let coverage = member(member(member(fig7, "per_layer"), "trace.coverage"), "value").as_f64();
    assert!(coverage.is_some_and(|c| c >= 0.95), "coverage {coverage:?}");

    // A file compares clean against itself.
    let same = Command::new(EXE)
        .arg("compare")
        .arg(dir.join("e2e.json"))
        .arg(dir.join("e2e.json"))
        .output()
        .expect("spawn e2e compare");
    assert!(
        same.status.success(),
        "{}",
        String::from_utf8_lossy(&same.stdout)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checks_hold_on_another_planted_structure() {
    // No constant in the harness depends on the structure that seed 7 plants.
    let dir = out_dir("structure");
    let run = Command::new(EXE)
        .args([
            "run",
            "--smoke",
            "--seed",
            "8",
            "--structure-seed",
            "8",
            "--out",
        ])
        .arg(&dir)
        .output()
        .expect("spawn e2e run");
    assert!(
        run.status.success(),
        "{}\n{}",
        String::from_utf8_lossy(&run.stdout),
        String::from_utf8_lossy(&run.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn refuses_ambient_knobs_and_bad_arguments() {
    for knob in ["P3C_THREADS", "P3C_BACKEND", "P3C_LANES"] {
        let out = Command::new(EXE)
            .args(["--workload", "serve-spill", "--smoke", "--trace", "0"])
            .env(knob, "1")
            .output()
            .expect("spawn e2e");
        assert!(!out.status.success(), "{knob} was accepted");
        assert!(String::from_utf8_lossy(&out.stderr).contains(knob));
        assert!(out.stdout.is_empty(), "a result was printed under {knob}");
    }
    // A test build has debug_assertions: it measures nothing without --smoke.
    let out = Command::new(EXE)
        .args([
            "--workload",
            "serve-spill",
            "--trace",
            "0",
            "--seconds",
            "0",
        ])
        .output()
        .expect("spawn e2e");
    assert_eq!(out.status.success(), !cfg!(debug_assertions));
    let out = Command::new(EXE)
        .args(["--workload", "no-such-workload"])
        .output()
        .expect("spawn e2e");
    assert!(!out.status.success());
}
