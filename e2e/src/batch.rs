//! The five batch workloads: one thread calls a whole pipeline on a
//! generated dataset, pass after pass, for the run's seconds.

use crate::inputs::{Input, Shape};
use crate::measure::{median, Report, Tracer};
use crate::{micro, sys, RunArgs};
use p3c_bow::{Bow, BowConfig, BowStrategy, BowVariant};
use p3c_core::config::P3cParams;
use p3c_core::cores::{attach_expected_supports, generate_cluster_cores, ClusterCore};
use p3c_core::em::{em_fit_threads, initialize_from_cores};
use p3c_core::histogram::build_histograms_columnar_threads;
use p3c_core::inspect::{inspect_attributes, tighten_intervals};
use p3c_core::mr::{P3cPlusMr, P3cPlusMrLight};
use p3c_core::outlier::{assign_clusters, detect_outliers_mvb};
use p3c_core::p3cplus::{bins_per_attribute_columnar, P3cPlus, PipelineStats};
use p3c_core::redundancy::filter_redundant_proven;
use p3c_core::relevance::relevant_intervals;
use p3c_dataset::{Clustering, ProjectedCluster};
use p3c_eval::e4sc;
use p3c_mapreduce::{BackendChoice, ClusterMetrics, Engine, MrConfig, SchedulerChoice};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Which batch workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `mr-light-wide`.
    MrLightWide,
    /// `bow-light-wide`.
    BowLightWide,
    /// `bow-light-process`.
    BowLightProcess,
    /// `mr-full-narrow`.
    MrFullNarrow,
    /// `serial-full-fig7`.
    SerialFullFig7,
}

/// Paper §7.5.2 "huge" shape (100 dims, 5 clusters of at most 10 dims,
/// 5% noise), rows scaled to what the driver's run budget allows.
const WIDE: Shape = Shape {
    n: 100_000,
    d: 100,
    clusters: 5,
    max_cluster_dims: 10,
    noise: 0.05,
    seed_offset: 999,
};

/// Narrow lattice: few, low-dimensional clusters over many rows.
const NARROW: Shape = Shape {
    n: 400_000,
    d: 20,
    clusters: 3,
    max_cluster_dims: 4,
    noise: 0.10,
    seed_offset: 0,
};

/// The Fig. 7 shape: 50 dims, 5 clusters of at most 10 dims, 10% noise.
const FIG7: Shape = Shape {
    n: 200_000,
    d: 50,
    clusters: 5,
    max_cluster_dims: 10,
    noise: 0.10,
    seed_offset: 0,
};

/// Set-up is repeated this often; `setup_s` is the median.
const SETUPS: usize = 5;

impl Kind {
    fn shape(self) -> Shape {
        match self {
            Kind::MrLightWide | Kind::BowLightWide | Kind::BowLightProcess => WIDE,
            Kind::MrFullNarrow => NARROW,
            Kind::SerialFullFig7 => FIG7,
        }
    }

    /// Kernel threads: the serial baseline is single-threaded by
    /// definition, everything else gets `T`.
    fn threads(self) -> usize {
        match self {
            Kind::SerialFullFig7 => 1,
            _ => sys::batch_threads(),
        }
    }

    fn uses_engine(self) -> bool {
        self != Kind::SerialFullFig7
    }

    /// `-a …` of the equivalent `p3c cluster` call, for the workloads
    /// that report `cli.*`.
    fn cli_algorithm(self) -> Option<&'static str> {
        match self {
            Kind::MrLightWide => Some("mr-light"),
            Kind::SerialFullFig7 => Some("p3c+"),
            _ => None,
        }
    }
}

/// One timed call of the workload's pipeline.
struct Pass {
    wall_s: f64,
    cpu_s: f64,
    clustering: Clustering,
    stats: Option<PipelineStats>,
    ledger: ClusterMetrics,
}

/// Every knob set explicitly: nothing is left to `P3C_THREADS` or
/// `P3C_BACKEND`.
fn params(kind: Kind) -> P3cParams {
    P3cParams {
        threads: kind.threads(),
        ..P3cParams::default()
    }
}

fn engine(kind: Kind) -> Engine {
    Engine::new(MrConfig {
        num_reducers: 8,
        split_size: 8192,
        threads: kind.threads(),
        backend: match kind {
            Kind::BowLightProcess => BackendChoice::Process {
                workers: 2,
                kill: None,
            },
            _ => BackendChoice::Local,
        },
        ..MrConfig::default()
    })
}

/// Calls the pipeline once. The engine is created and dropped inside
/// the timed interval: a batch user pays for both on every run, and
/// dropping it reaps the process backend's workers, whose CPU time
/// then counts.
fn timed_pass(kind: Kind, input: &Input) -> Result<Pass, String> {
    let cpu0 = sys::cpu_seconds();
    let start = Instant::now();
    let engine = engine(kind);
    let (clustering, stats) = match kind {
        Kind::MrLightWide => P3cPlusMrLight::new(&engine, params(kind))
            .cluster_with(&input.dataset, SchedulerChoice::Serial)
            .map(|r| (r.clustering, Some(r.stats))),
        Kind::MrFullNarrow => P3cPlusMr::new(&engine, params(kind))
            .cluster_with(&input.dataset, SchedulerChoice::Dag)
            .map(|r| (r.clustering, Some(r.stats))),
        Kind::BowLightWide | Kind::BowLightProcess => Bow::new(
            &engine,
            BowConfig {
                num_partitions: 8,
                sample_size: 100_000,
                variant: BowVariant::Light,
                strategy: BowStrategy::CostBased,
                params: params(kind),
                ..BowConfig::default()
            },
        )
        .cluster_with(&input.dataset, SchedulerChoice::Serial)
        .map(|r| (r.clustering, None)),
        Kind::SerialFullFig7 => {
            let r = P3cPlus::new(params(kind)).cluster(&input.dataset);
            Ok((r.clustering, Some(r.stats)))
        }
    }
    .map_err(|e| e.to_string())?;
    let ledger = engine.cluster_metrics();
    drop(engine);
    Ok(Pass {
        wall_s: start.elapsed().as_secs_f64(),
        cpu_s: sys::cpu_seconds() - cpu0,
        clustering,
        stats,
        ledger,
    })
}

/// Runs one batch workload.
pub fn run(kind: Kind, args: &RunArgs) -> Report {
    let mut report = Report::default();
    let shape = kind.shape();

    // Set-up: generate and permute the dataset, several times over.
    let mut setup_s = Vec::new();
    let mut input = None;
    for _ in 0..if args.smoke { 1 } else { SETUPS } {
        drop(input.take());
        let start = Instant::now();
        let spec = shape.spec(args.structure_seed, args.smoke);
        let n = spec.n;
        input = Some(Input::generate(spec, args.seed, &[(0, n)]));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let input = input.expect("at least one set-up ran");
    let truth = input.truth(0..input.dataset.len());

    // The timed passes; with tracing on, each is the root of its
    // ledger rows.
    let mut tracer = args.trace.then(Tracer::new);
    let mut passes: Vec<Pass> = Vec::new();
    // Peak memory is read after the first pass: what one `cluster` call
    // on a fresh process needs. Later passes only add what the
    // allocator's thread arenas happen to retain, which varies by 20%.
    let mut peak_rss_mb = 0.0;
    let measure = Instant::now();
    while args.keep_measuring(passes.len(), measure) {
        let root = tracer
            .as_mut()
            .map(|t| t.open("cluster", None, passes.len() as u32 + 1));
        let pass = report.attempt("cluster", timed_pass(kind, &input));
        if let (Some(t), Some(root)) = (tracer.as_mut(), root) {
            t.close(root);
            if let Some(pass) = &pass {
                let mut at = t.spans[root].start_ns;
                for job in pass.ledger.jobs() {
                    at = t.record(&job.job_name, root, at, job.total_wall().as_secs_f64());
                }
            }
        }
        let Some(pass) = pass else { break };
        if let Some(first) = passes.first() {
            report.check(pass.clustering == first.clustering, || {
                format!("pass {} returned a different clustering", passes.len() + 1)
            });
        }
        if passes.is_empty() {
            peak_rss_mb = sys::peak_rss_mb();
        }
        passes.push(pass);
    }
    let Some(first) = passes.first() else {
        return report;
    };

    let e4sc_start = Instant::now();
    let quality = e4sc(&first.clustering, &truth);
    let e4sc_s = e4sc_start.elapsed().as_secs_f64();
    report.check(quality > 0.0, || "E4SC vs ground truth is 0".to_string());

    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let wall_s = median(&walls);
    report.end_to_end.insert("wall_s", wall_s);
    // CPU time ticks in 10 ms steps, so it is summed over the passes.
    report.end_to_end.insert(
        "cpu_s",
        passes.iter().map(|p| p.cpu_s).sum::<f64>() / passes.len() as f64,
    );
    report.end_to_end.insert("e4sc", quality);
    report.end_to_end.insert("setup_s", median(&setup_s));

    if let Some(tracer) = tracer.as_mut() {
        report.layer("datagen.generate_s", input.generate_s);
        report.layer("eval.e4sc_s", e4sc_s);
        report.layer("harness.passes", passes.len() as f64);
        let raw_bytes = (input.dataset.len() * input.dataset.dim() * 8) as f64;
        if kind.uses_engine() {
            ledger_layers(&mut report, &passes, raw_bytes);
            // The ledger rows are the spans: what they leave uncovered
            // is the driver's self time.
            let driver: f64 = passes.iter().map(driver_s).sum();
            report.layer("trace.coverage", 1.0 - driver / walls.iter().sum::<f64>());
        }
        if let Some(stats) = &first.stats {
            stats_layers(&mut report, stats);
        }
        if !kind.uses_engine() {
            replay_serial(&mut report, tracer, &input, &first.clustering, wall_s);
        }
        if kind == Kind::BowLightProcess {
            micro::distrib(&mut report);
        }
        if let Some(algorithm) = kind.cli_algorithm() {
            cli_child(&mut report, kind, &input, algorithm, wall_s);
        }
    }
    report.end_to_end.insert("peak_rss_mb", peak_rss_mb);
    report.spans = tracer.map(|t| t.spans).unwrap_or_default();
    report
}

/// Driver self time of a pass: its wall minus the walls of its jobs.
fn driver_s(pass: &Pass) -> f64 {
    pass.wall_s - pass.ledger.total_wall().as_secs_f64()
}

/// Which `core.*_s` stage a job's wall belongs to, by name prefix.
fn stage_of(job: &str) -> Option<&'static str> {
    const STAGES: [(&str, &str); 12] = [
        ("p3c-histogram", "core.histogram_s"),
        ("hist-shard", "core.histogram_s"),
        ("p3c-iqr", "core.histogram_s"),
        ("p3c-candidate-generation", "core.coregen_s"),
        ("p3c-prove-candidates", "core.coregen_s"),
        ("p3c-em-init", "core.em_init_s"),
        ("p3c-em-step", "core.em_fit_s"),
        ("p3c-mvb", "core.outlier_s"),
        ("p3c-od", "core.outlier_s"),
        ("p3c-attribute-inspection", "core.finalize_s"),
        ("p3c-interval-tightening", "core.finalize_s"),
        ("p3c-light-", "core.finalize_s"),
    ];
    STAGES
        .iter()
        .find(|(prefix, _)| job.starts_with(prefix))
        .map(|&(_, stage)| stage)
}

/// Per-layer metrics read from the engine ledgers of the timed passes:
/// each is computed per pass and reported as the median over passes
/// (counts repeat exactly, so their median is their value).
fn ledger_layers(report: &mut Report, passes: &[Pass], raw_bytes: f64) {
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut add = |name: &'static str, v: f64| samples.entry(name).or_default().push(v);
    for pass in passes {
        let jobs = pass.ledger.jobs();
        let mut stages: BTreeMap<&'static str, f64> = BTreeMap::new();
        for job in jobs {
            if let Some(stage) = stage_of(&job.job_name) {
                *stages.entry(stage).or_default() += job.total_wall().as_secs_f64();
            }
        }
        for (stage, s) in stages {
            add(stage, s);
        }
        let sum = |f: &dyn Fn(&p3c_mapreduce::JobMetrics) -> f64| jobs.iter().map(f).sum::<f64>();
        add("mapreduce.engine.jobs", jobs.len() as f64);
        add(
            "mapreduce.engine.empty_jobs",
            jobs.iter().filter(|j| j.map_input_records == 0).count() as f64,
        );
        add(
            "mapreduce.engine.map_wall_s",
            sum(&|j| j.map_wall.as_secs_f64()),
        );
        add(
            "mapreduce.engine.reduce_wall_s",
            sum(&|j| j.reduce_wall.as_secs_f64()),
        );
        add(
            "mapreduce.engine.map_output_bytes",
            sum(&|j| j.map_output_bytes as f64),
        );
        let shuffle_bytes = sum(&|j| j.shuffle_bytes as f64);
        add("mapreduce.engine.shuffle_bytes", shuffle_bytes);
        add(
            "mapreduce.engine.broadcast_bytes",
            sum(&|j| j.broadcast_bytes as f64),
        );
        // Afrati et al.: bytes sent to reducers per byte of input.
        add(
            "mapreduce.engine.replication_rate",
            shuffle_bytes / raw_bytes,
        );
        add(
            "mapreduce.engine.failed_attempts",
            sum(&|j| j.failed_attempts as f64),
        );
        add("mapreduce.driver_s", driver_s(pass));
        add(
            "core.coregen.proving_jobs",
            jobs.iter()
                .filter(|j| j.job_name == "p3c-prove-candidates")
                .count() as f64,
        );

        let dags = pass.ledger.dag_runs();
        if !dags.is_empty() {
            let dag_wall: f64 = dags.iter().map(|d| d.wall.as_secs_f64()).sum();
            add("mapreduce.dag.wall_s", dag_wall);
            add(
                "mapreduce.dag.node_wall_s",
                dags.iter()
                    .flat_map(|d| &d.nodes)
                    .map(|n| n.wall.as_secs_f64())
                    .sum(),
            );
            add("mapreduce.dag.outside_s", pass.wall_s - dag_wall);
            add(
                "mapreduce.dag.concurrency_high_water",
                dags.iter()
                    .map(|d| d.concurrency_high_water)
                    .max()
                    .unwrap_or(0) as f64,
            );
        }

        let moved = sum(&|j| j.shuffle_bytes_moved as f64);
        add(
            "mapreduce.distrib.shuffle_fetches",
            sum(&|j| j.shuffle_fetches as f64),
        );
        add(
            "mapreduce.distrib.fetch_retries",
            sum(&|j| j.fetch_retries as f64),
        );
        add(
            "mapreduce.distrib.worker_restarts",
            sum(&|j| j.worker_restarts as f64),
        );
        add("mapreduce.distrib.bytes_moved", moved);
        let moving_wall = sum(&|j| {
            if j.shuffle_bytes_moved > 0 {
                j.total_wall().as_secs_f64()
            } else {
                0.0
            }
        });
        if moving_wall > 0.0 {
            add(
                "mapreduce.distrib.mb_moved_per_s",
                moved / 1e6 / moving_wall,
            );
        }

        for job in jobs {
            match job.job_name.as_str() {
                "bow-sample-and-cluster" => {
                    add("bow.sample_cluster_map_s", job.map_wall.as_secs_f64());
                    add("bow.sample_cluster_reduce_s", job.reduce_wall.as_secs_f64());
                }
                "bow-assign" => add("bow.assign_s", job.total_wall().as_secs_f64()),
                _ => {}
            }
        }
    }
    for (name, values) in samples {
        report.layer(name, median(&values));
    }
}

/// Counters the pipeline itself reports.
fn stats_layers(report: &mut Report, stats: &PipelineStats) {
    let gen = &stats.core_gen;
    let candidates: usize = gen.candidates_per_level.iter().sum();
    report.layer("core.coregen.candidates", candidates as f64);
    report.layer("core.coregen.proven", gen.total_proven as f64);
    report.layer(
        "core.coregen.proven_per_candidate",
        gen.total_proven as f64 / candidates.max(1) as f64,
    );
    report.layer("core.coregen.levels", gen.candidates_per_level.len() as f64);
    report.layer("core.coregen.truncated_levels", gen.truncated_levels as f64);
    report.layer("core.cores", stats.cores as f64);
    let iterations = stats.em_iterations as f64;
    report.layer("core.em.iterations", iterations);
    if iterations > 0.0 {
        let fit = report
            .per_layer
            .get("core.em_fit_s")
            .copied()
            .unwrap_or(0.0);
        report.layer("core.em.s_per_iter", fit / iterations);
    }
}

/// The traced pass of `serial-full-fig7`: `P3cPlus::cluster` replayed
/// stage by stage through the public functions it is made of, one span
/// each. The replay must return the untraced clustering, and the spans
/// must cover the root.
fn replay_serial(
    report: &mut Report,
    tracer: &mut Tracer,
    input: &Input,
    expected: &Clustering,
    untraced_wall_s: f64,
) {
    let params = params(Kind::SerialFullFig7);
    let data = &input.dataset;
    let n = data.len();
    let root = tracer.open("replay", None, 0);

    let rows = tracer.span("core.row_refs", root, || data.row_refs());
    let hists = tracer.span("core.histogram", root, || {
        let bins = bins_per_attribute_columnar(data, &params);
        build_histograms_columnar_threads(n, data.dim(), data.as_slice(), &bins, params.threads)
    });
    let intervals = tracer.span("core.relevance", root, || {
        relevant_intervals(&hists.histograms, params.alpha_chi2)
    });
    let gen = tracer.span("core.coregen", root, || {
        generate_cluster_cores(&intervals, &rows, &params)
    });
    let cores: Vec<ClusterCore> = tracer.span("core.redundancy", root, || {
        let mut cores = filter_redundant_proven(&gen.proven, &gen.table, n);
        attach_expected_supports(&mut cores, n);
        cores
    });
    let clustering = if cores.is_empty() {
        Clustering::new(Vec::new(), (0..n).collect())
    } else {
        let arel: Vec<usize> = cores
            .iter()
            .flat_map(|c| c.signature.attributes())
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let init = tracer.span("core.em_init", root, || {
            initialize_from_cores(&cores, &rows, &arel)
        });
        let fit = tracer.span("core.em_fit", root, || {
            em_fit_threads(
                init,
                &rows,
                params.em_max_iters,
                params.em_tol,
                params.threads,
            )
        });
        let eval = fit.model.evaluator();
        let hard = tracer.span("core.assign", root, || assign_clusters(&eval, &rows));
        let assignment = tracer.span("core.outlier", root, || {
            detect_outliers_mvb(&eval, &rows, &hard, params.alpha_outlier, arel.len())
        });
        tracer.span("core.finalize", root, || {
            let mut members: Vec<Vec<usize>> = vec![Vec::new(); cores.len()];
            let mut outliers = Vec::new();
            for (i, &a) in assignment.iter().enumerate() {
                match usize::try_from(a) {
                    Ok(c) => members[c].push(i),
                    Err(_) => outliers.push(i),
                }
            }
            let clusters = cores
                .iter()
                .zip(members)
                .map(|(core, points)| {
                    let member_rows: Vec<&[f64]> = points.iter().map(|&i| rows[i]).collect();
                    let mut attrs = core.signature.attributes();
                    let extra = inspect_attributes(&member_rows, &attrs, &params);
                    attrs.extend(extra.iter().map(|iv| iv.attr));
                    let intervals = tighten_intervals(&member_rows, &attrs);
                    ProjectedCluster::new(points, attrs, intervals)
                })
                .collect();
            Clustering::new(clusters, outliers)
        })
    };
    let replay_s = tracer.close(root);

    report.check(&clustering == expected, || {
        "staged replay returned a different clustering than P3cPlus::cluster".to_string()
    });
    let coverage = tracer.children_seconds(root) / replay_s;
    report.check(coverage >= 0.95, || {
        format!("replay spans cover {coverage:.3} of the root, below 0.95")
    });
    for (span, metric) in [
        ("core.histogram", "core.histogram_s"),
        ("core.relevance", "core.relevance_s"),
        ("core.coregen", "core.coregen_s"),
        ("core.redundancy", "core.redundancy_s"),
        ("core.em_init", "core.em_init_s"),
        ("core.em_fit", "core.em_fit_s"),
        ("core.assign", "core.assign_s"),
        ("core.outlier", "core.outlier_s"),
        ("core.finalize", "core.finalize_s"),
    ] {
        report.layer(metric, tracer.named_seconds(span));
    }
    let iterations = report
        .per_layer
        .get("core.em.iterations")
        .copied()
        .unwrap_or(0.0);
    if iterations > 0.0 {
        report.layer(
            "core.em.s_per_iter",
            tracer.named_seconds("core.em_fit") / iterations,
        );
    }
    report.layer("trace.coverage", coverage);
    report.layer("trace.overhead_ratio", replay_s / untraced_wall_s - 1.0);
}

/// One `p3c cluster --synthetic …` child with the workload's spec —
/// what the CLI user waits for. The child is this executable's `p3c`
/// subcommand, which is `p3c_cli`'s parser and runner, so no second
/// binary has to be built. It clusters the rows in generator order.
fn cli_child(report: &mut Report, kind: Kind, input: &Input, algorithm: &str, wall_s: f64) {
    let spec = &input.spec;
    let threads = kind.threads().to_string();
    let mut cmd = match std::env::current_exe() {
        Ok(exe) => std::process::Command::new(exe),
        Err(e) => return report.check(false, || format!("current_exe: {e}")),
    };
    cmd.args(["p3c", "cluster", "--synthetic"])
        .arg(format!("{}x{}", spec.n, spec.d))
        .args(["--clusters", &spec.num_clusters.to_string()])
        .args(["--noise", &spec.noise_fraction.to_string()])
        .args(["--seed", &spec.seed.to_string()])
        .args(["--algorithm", algorithm])
        .args(["--threads", &threads])
        .args(["--scheduler", "serial", "--backend", "local"])
        .stdout(std::process::Stdio::null());
    let start = Instant::now();
    let status = cmd.status();
    let cli_wall_s = start.elapsed().as_secs_f64();
    report.check(status.as_ref().is_ok_and(|s| s.success()), || {
        format!("p3c cluster child: {status:?}")
    });
    report.layer("cli.cluster_wall_s", cli_wall_s);
    report.layer("cli.overhead_s", cli_wall_s - input.generate_s - wall_s);
}
