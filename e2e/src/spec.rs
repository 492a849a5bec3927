//! The benchmark's tables — workloads, end-to-end metrics, per-layer
//! metrics — and the `BENCHMARK.json` text generated from them.
//!
//! These tables are the single source: `BENCHMARK.json` at the repo
//! root is `e2e manifest` output (a unit test pins the two equal), the
//! driver-mode result prints exactly the names below, and `e2e compare`
//! reads bounds and directions from here.

use crate::json::escape;

/// How long one run measures, in seconds (`run_seconds` of the manifest
/// and the default of `--seconds`).
pub const RUN_SECONDS: u64 = 10;

/// The directory that holds the benchmark and nothing else.
pub const BENCH_DIR: &str = "e2e";

/// The command the driver runs (it appends `--workload … --trace …`).
pub const COMMAND: [&str; 9] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "e2e/Cargo.toml",
    "--bin",
    "e2e",
    "--",
];

/// One workload: its name and the one-line reason it exists.
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why the workload was chosen: what it exercises and what it bypasses.
    pub why: &'static str,
}

/// The seven workloads.
pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "mr-light-wide",
        why: "P3C+-MR-Light, 100 dims: multi-level candidate collection and RSSC proving (core.mr.coregen, engine map phase, broadcast) dominate; no EM",
    },
    Workload {
        name: "bow-light-wide",
        why: "BoW-Light on the same data, the paper's head-to-head partner: replication rate ~1, reduce-heavy; bypasses MR core generation and EM",
    },
    Workload {
        name: "bow-light-process",
        why: "bow-light-wide over 2 worker processes: same algorithm and bytes, so the difference is the distrib layer alone (frames, TCP, checksummed fetches)",
    },
    Workload {
        name: "mr-full-narrow",
        why: "P3C+-MR on the DAG scheduler, 20 dims: EM job chain, MVB and inspection jobs; 25 short jobs expose per-job and scheduler overhead; no candidate explosion",
    },
    Workload {
        name: "serial-full-fig7",
        why: "single-threaded P3C+ at the Fig. 7 shape, no engine: kernels only (RSSC core generation, EM, MVB); a kernel win shows here, an engine win must not",
    },
    Workload {
        name: "serve-durable",
        why: "durable service, 1 closed-loop client: appends, retracts, fast and full reclusters, journal fsync per mutation, snapshot stalls, crash and recovery; data fits the cache",
    },
    Workload {
        name: "serve-spill",
        why: "same stream, no journal, dataset cache a third of the working set: reclusters and retracts reload blocks through the colseg spill codec; bypasses durability",
    },
];

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The manifest spelling.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric, emitted on every workload with `--trace 0`.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The end-to-end metrics. Every one applies to every workload (the
/// driver requires it), so the latencies only the two serve workloads
/// have are per-layer metrics under `mapreduce.service.*`.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "e4sc",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.005,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// One per-layer metric, emitted on every workload with `--trace 1`
/// (0 where the workload bypasses the layer).
pub struct PerLayer {
    /// Metric name, prefixed by the crate/module it measures.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The per-layer metrics, grouped by layer.
pub const PER_LAYER: &[PerLayer] = &[
    lower("datagen.generate_s", "s"),
    // p3c-core batch stages: ledger rows of the timed passes on the MR
    // workloads, replay spans on serial-full-fig7.
    lower("core.histogram_s", "s"),
    lower("core.relevance_s", "s"),
    lower("core.coregen_s", "s"),
    lower("core.coregen.candidates", "count"),
    lower("core.coregen.proven", "count"),
    higher("core.coregen.proven_per_candidate", "ratio"),
    lower("core.coregen.levels", "count"),
    lower("core.coregen.proving_jobs", "count"),
    lower("core.coregen.truncated_levels", "count"),
    lower("core.redundancy_s", "s"),
    lower("core.cores", "count"),
    lower("core.em_init_s", "s"),
    lower("core.em_fit_s", "s"),
    lower("core.em.iterations", "count"),
    lower("core.em.s_per_iter", "s"),
    lower("core.assign_s", "s"),
    lower("core.outlier_s", "s"),
    lower("core.finalize_s", "s"),
    // p3c-mapreduce engine ledger.
    lower("mapreduce.engine.jobs", "count"),
    lower("mapreduce.engine.empty_jobs", "count"),
    lower("mapreduce.engine.map_wall_s", "s"),
    lower("mapreduce.engine.reduce_wall_s", "s"),
    lower("mapreduce.engine.map_output_bytes", "B"),
    lower("mapreduce.engine.shuffle_bytes", "B"),
    lower("mapreduce.engine.broadcast_bytes", "B"),
    lower("mapreduce.engine.replication_rate", "ratio"),
    lower("mapreduce.engine.failed_attempts", "count"),
    lower("mapreduce.driver_s", "s"),
    lower("mapreduce.dag.wall_s", "s"),
    lower("mapreduce.dag.node_wall_s", "s"),
    lower("mapreduce.dag.outside_s", "s"),
    higher("mapreduce.dag.concurrency_high_water", "count"),
    // p3c-mapreduce distrib (process backend).
    lower("mapreduce.distrib.shuffle_fetches", "count"),
    lower("mapreduce.distrib.fetch_retries", "count"),
    lower("mapreduce.distrib.worker_restarts", "count"),
    lower("mapreduce.distrib.bytes_moved", "B"),
    higher("mapreduce.distrib.mb_moved_per_s", "MB/s"),
    higher("mapreduce.distrib.frame_write_mb_s", "MB/s"),
    higher("mapreduce.distrib.frame_read_mb_s", "MB/s"),
    higher("mapreduce.distrib.encode_mb_s", "MB/s"),
    // p3c-bow (its driver-side merge phase is `mapreduce.driver_s`).
    lower("bow.sample_cluster_map_s", "s"),
    lower("bow.sample_cluster_reduce_s", "s"),
    lower("bow.assign_s", "s"),
    // p3c-mapreduce service: what the serve client sees.
    lower("mapreduce.service.append_ms_p50", "ms"),
    lower("mapreduce.service.append_ms_p99", "ms"),
    higher("mapreduce.service.appends_per_s", "1/s"),
    lower("mapreduce.service.recluster_fast_ms_p50", "ms"),
    lower("mapreduce.service.recluster_full_ms_p50", "ms"),
    lower("mapreduce.service.retract_ms_p50", "ms"),
    lower("mapreduce.service.recover_s", "s"),
    lower("mapreduce.service.stored_bytes_per_user_byte", "ratio"),
    lower("mapreduce.service.append_overhead_ms", "ms"),
    lower("mapreduce.service.admission_waits", "count"),
    lower("mapreduce.service.records_replayed", "count"),
    lower("mapreduce.service.snapshots_loaded", "count"),
    // p3c-core incremental engine, bare (no service around it).
    lower("core.incremental.append_ms_p50", "ms"),
    lower("core.incremental.retract_ms_p50", "ms"),
    lower("core.incremental.recluster_fast_ms_p50", "ms"),
    lower("core.incremental.recluster_full_ms_p50", "ms"),
    higher("core.incremental.fast_path_ratio", "ratio"),
    lower("core.incremental.hist_rebuilds", "count"),
    lower("core.incremental.support_scans", "count"),
    higher("core.incremental.cached_levels", "count"),
    lower("core.incremental.snapshot_encode_ms", "ms"),
    lower("core.incremental.snapshot_bytes", "B"),
    lower("core.incremental.snapshot_decode_ms", "ms"),
    // p3c-dataset journal and snapshot files.
    lower("dataset.journal.record_ms_p50", "ms"),
    lower("dataset.journal.record_bytes", "B"),
    lower("dataset.journal.read_ms", "ms"),
    lower("dataset.journal.snapshot_write_ms", "ms"),
    lower("dataset.journal.snapshot_read_ms", "ms"),
    // p3c-mapreduce dataset store and the p3c-dataset spill codec.
    lower("mapreduce.store.spills", "count"),
    lower("mapreduce.store.spill_loads", "count"),
    lower("mapreduce.store.segment_bytes_read", "B"),
    higher("mapreduce.store.hit_ratio", "ratio"),
    lower("mapreduce.store.evictions", "count"),
    higher("dataset.colseg.encode_mb_s", "MB/s"),
    higher("dataset.colseg.decode_mb_s", "MB/s"),
    lower("dataset.colseg.bytes_per_raw_byte", "ratio"),
    // p3c-cli: one `p3c cluster --synthetic …` child with the same spec.
    lower("cli.cluster_wall_s", "s"),
    lower("cli.overhead_s", "s"),
    // Harness health.
    lower("eval.e4sc_s", "s"),
    higher("trace.coverage", "ratio"),
    lower("trace.overhead_ratio", "ratio"),
    higher("harness.passes", "count"),
    higher("harness.latency_samples", "count"),
];

/// The regression bound of an end-to-end metric, if `name` is one.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The `BENCHMARK.json` text: exactly the keys the driver's contract
/// names, generated from the tables above.
pub fn manifest_json() -> String {
    let mut out = String::from("{\n");
    let command: Vec<String> = COMMAND.iter().map(|c| escape(c)).collect();
    out.push_str(&format!("  \"command\": [{}],\n", command.join(", ")));
    out.push_str(&format!("  \"paths\": [{}],\n", escape(BENCH_DIR)));
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                escape(w.name),
                escape(w.why)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                escape(m.name),
                escape(m.unit),
                escape(m.better.label()),
                m.bound
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                escape(m.name),
                escape(m.unit),
                escape(m.better.label())
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        (1..=16).contains(&unit.len())
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_stay_within_the_drivers_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut names = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(names.insert(w.name), "{} used twice", w.name);
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(names.insert(m.name), "{} used twice", m.name);
        }
        for m in PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(names.insert(m.name), "{} used twice", m.name);
        }
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(COMMAND.len() <= 32 && COMMAND.iter().all(|c| c.len() <= 200));
    }

    #[test]
    fn benchmark_json_is_the_generated_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            manifest_json(),
            "regenerate with `e2e manifest > BENCHMARK.json`"
        );
        assert!(on_disk.len() <= 64 * 1024);
        let parsed = crate::json::parse(&on_disk).expect("manifest parses");
        let keys: Vec<&str> = parsed
            .as_obj()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }
}
