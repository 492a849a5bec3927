//! Command execution for the `p3c` binary.

use crate::args::{Algorithm, Command, OutputFormat, ParsedArgs};
use p3c_bow::{Bow, BowConfig, BowVariant};
use p3c_core::config::P3cParams;
use p3c_core::mr::{P3cPlusMr, P3cPlusMrLight};
use p3c_core::p3c::P3c;
use p3c_core::p3cplus::{P3cPlus, P3cPlusLight};
use p3c_datagen::generate;
use p3c_dataset::json::{self, ToJson, Writer};
use p3c_dataset::{persist, Clustering, Dataset};
use p3c_eval::e4sc;
use p3c_linalg::isa;
use p3c_mapreduce::{BackendChoice, ClusterMetrics, Engine, MrConfig, SchedulerChoice};
use std::fmt;

/// Execution errors (I/O, decoding, clustering failures).
#[derive(Debug)]
pub enum ExecError {
    Io(std::io::Error),
    Decode(String),
    Mr(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Io(e) => write!(f, "I/O error: {e}"),
            ExecError::Decode(e) => write!(f, "could not decode input: {e}"),
            ExecError::Mr(e) => write!(f, "MapReduce failure: {e}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<std::io::Error> for ExecError {
    fn from(e: std::io::Error) -> Self {
        ExecError::Io(e)
    }
}

/// Executes a parsed command, returning the text to print.
pub fn execute(parsed: &ParsedArgs) -> Result<String, ExecError> {
    match &parsed.command {
        Command::Help => Ok(crate::args::USAGE.to_string()),
        Command::Worker { connect, id } => {
            p3c_mapreduce::distrib::run_worker(connect, *id)?;
            Ok(String::new())
        }
        Command::Serve {
            listen,
            cache_budget,
            job_budget,
            threads,
            data_dir,
            snapshot_every,
        } => {
            let opts = crate::serve::ServeOptions {
                listen: listen.clone(),
                cache_budget: *cache_budget,
                job_budget: *job_budget,
                threads: *threads,
                read_timeout: None,
                data_dir: data_dir.clone(),
                snapshot_every: *snapshot_every,
            };
            match listen {
                Some(addr) => crate::serve::serve_tcp(&opts, addr)?,
                None => crate::serve::serve_stdin(&opts)?,
            }
            Ok(String::new())
        }
        Command::Ctl { connect, words } => Ok(crate::serve::ctl_send(connect, words)?),
        Command::Generate {
            synthetic,
            seed,
            out,
        } => {
            let spec = synthetic.spec(*seed).expect("validated at parse time");
            let data = generate(&spec);
            std::fs::write(out, persist::to_text(&data.dataset))?;
            Ok(format!(
                "wrote {} points × {} dims ({} clusters, {:.0}% noise) to {}",
                spec.n,
                spec.d,
                spec.num_clusters,
                spec.noise_fraction * 100.0,
                out
            ))
        }
        Command::Cluster {
            input,
            synthetic,
            algorithm,
            seed,
            alpha,
            output,
            evaluate,
            scheduler,
            metrics_json,
            threads,
            backend,
        } => {
            let (dataset, truth) = match (input, synthetic.spec(*seed)) {
                (Some(path), None) => {
                    let text = std::fs::read_to_string(path)?;
                    let ds =
                        persist::from_text(&text).map_err(|e| ExecError::Decode(e.to_string()))?;
                    let ds = if ds.is_normalized() {
                        ds
                    } else {
                        ds.normalize().0
                    };
                    (ds, None)
                }
                (None, Some(spec)) => {
                    let data = generate(&spec);
                    (data.dataset, Some(data.ground_truth))
                }
                _ => unreachable!("validated at parse time"),
            };
            let mut params = P3cParams {
                alpha_poisson: *alpha,
                ..P3cParams::default()
            };
            if let Some(t) = threads {
                params.threads = *t;
            }
            let (clustering, truncated_levels, metrics) = run_algorithm(
                *algorithm,
                &params,
                &dataset,
                *scheduler,
                *threads,
                backend.clone(),
            )?;
            if let Some(warning) = truncation_warning(truncated_levels, &params) {
                eprintln!("{warning}");
            }
            let mut text = render(&clustering, *output, *algorithm);
            // Under `-o json` stdout is exactly one document, so the
            // lines about the run go to stderr instead of after it.
            let mut note = |line: String| match output {
                OutputFormat::Json => eprintln!("{line}"),
                OutputFormat::Text => text.push_str(&format!("\n{line}\n")),
            };
            if *evaluate {
                if let Some(truth) = &truth {
                    note(format!(
                        "E4SC vs ground truth: {:.3}",
                        e4sc(&clustering, truth)
                    ));
                }
            }
            if let Some(path) = metrics_json {
                std::fs::write(path, json::render(&MetricsDoc(&metrics)) + "\n")?;
                note(format!(
                    "wrote metrics for {} job(s), {} DAG run(s) to {}",
                    metrics.num_jobs(),
                    metrics.dag_runs().len(),
                    path
                ));
            }
            Ok(text)
        }
    }
}

/// The `--metrics-json` document: the kernel tier the run's numbers
/// came from ([`isa::name`]), then the engine's job and DAG ledger.
struct MetricsDoc<'m>(&'m ClusterMetrics);

impl ToJson for MetricsDoc<'_> {
    fn write_json(&self, w: &mut Writer) {
        w.object(&[
            ("kernel_isa", &isa::name()),
            ("jobs", &self.0.jobs()),
            ("dag_runs", &self.0.dag_runs()),
        ]);
    }
}

/// The stderr line for a run whose core generation hit the
/// `max_candidates_per_level` safety valve: the model was built from a
/// cut-off candidate lattice and may differ from the untruncated one.
/// The valve only cuts levels generated from proven signatures, so the
/// serial and MapReduce algorithms warn on the same inputs.
fn truncation_warning(truncated_levels: usize, params: &P3cParams) -> Option<String> {
    (truncated_levels > 0).then(|| {
        format!(
            "warning: core generation truncated {truncated_levels} candidate level(s) to \
             max_candidates_per_level = {}; the clustering may differ from the untruncated result",
            params.max_candidates_per_level
        )
    })
}

/// Runs `algorithm`, returning the clustering, the number of candidate
/// levels core generation truncated (0 for BoW, whose partition runs
/// keep no statistics), and the engine's job ledger.
fn run_algorithm(
    algorithm: Algorithm,
    params: &P3cParams,
    dataset: &Dataset,
    scheduler: SchedulerChoice,
    threads: Option<usize>,
    backend: Option<BackendChoice>,
) -> Result<(Clustering, usize, p3c_mapreduce::ClusterMetrics), ExecError> {
    let mr_err = |e: p3c_mapreduce::MrError| ExecError::Mr(e.to_string());
    // The serial algorithms run no jobs; their metrics ledger stays empty.
    let engine = Engine::new(MrConfig {
        threads: threads.unwrap_or(0),
        backend: backend.unwrap_or_default(),
        ..MrConfig::default()
    });
    let result = match algorithm {
        Algorithm::P3c => P3c::new(params.alpha_poisson).cluster(dataset),
        Algorithm::P3cPlus => P3cPlus::new(params.clone()).cluster(dataset),
        Algorithm::Light => P3cPlusLight::new(params.clone()).cluster(dataset),
        Algorithm::Mr => P3cPlusMr::new(&engine, params.clone())
            .cluster_with(dataset, scheduler)
            .map_err(mr_err)?,
        Algorithm::MrLight => P3cPlusMrLight::new(&engine, params.clone())
            .cluster_with(dataset, scheduler)
            .map_err(mr_err)?,
        Algorithm::Bow => {
            let config = BowConfig {
                variant: BowVariant::Light,
                params: params.clone(),
                ..BowConfig::default()
            };
            let clustering = Bow::new(&engine, config)
                .cluster_with(dataset, scheduler)
                .map_err(mr_err)?
                .clustering;
            return Ok((clustering, 0, engine.cluster_metrics()));
        }
    };
    Ok((
        result.clustering,
        result.stats.core_gen.truncated_levels,
        engine.cluster_metrics(),
    ))
}

fn render(clustering: &Clustering, format: OutputFormat, algorithm: Algorithm) -> String {
    match format {
        OutputFormat::Json => json::render(clustering) + "\n",
        OutputFormat::Text => {
            let mut out = format!(
                "{}: {} clusters, {} outliers\n",
                algorithm.name(),
                clustering.num_clusters(),
                clustering.outliers.len()
            );
            for (i, c) in clustering.clusters.iter().enumerate() {
                let attrs: Vec<String> = c.attributes.iter().map(|a| format!("a{a}")).collect();
                out.push_str(&format!(
                    "  cluster {i}: {} points, subspace {{{}}}\n",
                    c.size(),
                    attrs.join(", ")
                ));
                for iv in &c.intervals {
                    out.push_str(&format!(
                        "    a{} ∈ [{:.3}, {:.3}]\n",
                        iv.attr, iv.lo, iv.hi
                    ));
                }
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn run(cmdline: &str) -> Result<String, ExecError> {
        let args: Vec<String> = cmdline.split_whitespace().map(|s| s.to_string()).collect();
        execute(&parse(&args).unwrap())
    }

    #[test]
    fn help_prints_usage() {
        let out = run("help").unwrap();
        assert!(out.contains("USAGE"));
        assert!(out.contains("mr-light"));
    }

    #[test]
    fn truncation_warning_names_the_count_and_the_cap() {
        let params = P3cParams {
            max_candidates_per_level: 50,
            ..P3cParams::default()
        };
        assert_eq!(truncation_warning(0, &params), None);
        let warning = truncation_warning(2, &params).expect("two levels were cut");
        assert!(warning.starts_with("warning: core generation truncated 2 candidate level(s)"));
        assert!(warning.contains("max_candidates_per_level = 50"));
        assert_eq!(warning.lines().count(), 1);
    }

    #[test]
    fn synthetic_cluster_text_output() {
        let out = run("cluster --synthetic 2000x10 -k 2 --seed 3 -e").unwrap();
        assert!(out.contains("p3c+:"), "{out}");
        assert!(out.contains("cluster 0:"));
        assert!(out.contains("E4SC vs ground truth"));
        // Quality on this easy instance must be reported high.
        let e4sc_line = out.lines().find(|l| l.contains("E4SC")).unwrap();
        let score: f64 = e4sc_line.rsplit(' ').next().unwrap().parse().unwrap();
        assert!(score > 0.5, "{e4sc_line}");
    }

    #[test]
    fn json_output_is_one_document() {
        let clustering = Clustering::new(
            vec![p3c_dataset::ProjectedCluster::new(
                vec![4, 1],
                [2, 0].into(),
                vec![
                    p3c_dataset::AttrInterval::new(2, 0.5, 1.0),
                    p3c_dataset::AttrInterval::new(0, 0.125, 0.3),
                ],
            )],
            Vec::new(),
        );
        assert_eq!(
            render(&clustering, OutputFormat::Json, Algorithm::P3cPlus),
            r#"{
  "clusters": [
    {
      "points": [
        1,
        4
      ],
      "attributes": [
        0,
        2
      ],
      "intervals": [
        {
          "attr": 0,
          "lo": 0.125,
          "hi": 0.3
        },
        {
          "attr": 2,
          "lo": 0.5,
          "hi": 1.0
        }
      ]
    }
  ],
  "outliers": []
}
"#
        );
        // A whole run prints that document and nothing else: the lines
        // `-e` and `--metrics-json` add go to stderr.
        let path = std::env::temp_dir().join("p3c-cli-test-json-stdout.json");
        let plain = run("cluster --synthetic 1500x8 -k 2 --seed 5 -o json").unwrap();
        let noted = run(&format!(
            "cluster --synthetic 1500x8 -k 2 --seed 5 -o json -e --metrics-json {}",
            path.display()
        ))
        .unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(plain.starts_with("{\n  \"clusters\": [\n    {\n      \"points\": [\n"));
        assert!(plain.ends_with("]\n}\n"), "{plain}");
        assert_eq!(plain, noted);
    }

    #[test]
    fn all_algorithms_execute() {
        for algo in ["p3c", "p3c+", "light", "mr", "mr-light", "bow"] {
            let out = run(&format!(
                "cluster --synthetic 1500x8 -k 2 --seed 3 -a {algo}"
            ))
            .unwrap();
            assert!(out.contains("clusters"), "{algo}: {out}");
        }
    }

    #[test]
    fn dag_scheduler_matches_serial_output() {
        for algo in ["mr", "mr-light", "bow"] {
            let serial = run(&format!(
                "cluster --synthetic 1500x8 -k 2 --seed 3 -a {algo} --scheduler serial"
            ))
            .unwrap();
            let dag = run(&format!(
                "cluster --synthetic 1500x8 -k 2 --seed 3 -a {algo} --scheduler dag"
            ))
            .unwrap();
            assert_eq!(serial, dag, "{algo}");
        }
    }

    #[test]
    fn metrics_json_dump_records_dag_runs() {
        let dir = std::env::temp_dir().join("p3c-cli-test-metrics");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("metrics.json");
        let path_s = path.to_str().unwrap();
        let out = run(&format!(
            "cluster --synthetic 1500x8 -k 2 --seed 3 -a mr-light --scheduler dag \
             --metrics-json {path_s}"
        ))
        .unwrap();
        assert!(out.contains("wrote metrics for"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.starts_with("{\n  \"kernel_isa\": \""), "{json}");
        assert!(
            json.contains("\n  \"jobs\": [\n    {\n      \"job_name\": \""),
            "{json}"
        );
        assert!(
            json.contains("\n  \"dag_runs\": [\n    {\n      \"dag_name\": \""),
            "{json}"
        );
        assert!(json.contains("\n          \"attempts\": 1,\n"));
        assert!(!json.contains("\"concurrency_high_water\": 0,"));
        assert!(json.ends_with("\n  ]\n}\n"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The `dag_runs` document of a `Dag` run of P3C+-MR: the paper's two
    /// chains in order, each step run once, one step at a time.
    #[test]
    fn dag_runs_document_pins_the_mr_chains() {
        let dir = std::env::temp_dir().join("p3c-cli-test-metrics-chains");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("metrics.json");
        run(&format!(
            "cluster --synthetic 1500x8 -k 2 --seed 5 -a mr --scheduler dag --metrics-json {}",
            path.display()
        ))
        .unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let dag_runs = &json[json.find("\n  \"dag_runs\": [").expect("a dag_runs array")..];
        let kept = [
            "dag_name",
            "node",
            "attempts",
            "concurrency_high_water",
            "failed_node_attempts",
        ];
        let seen: Vec<String> = dag_runs
            .lines()
            .filter_map(|line| {
                let (key, value) = line.trim().split_once(": ")?;
                let key = key.trim_matches('"');
                kept.contains(&key).then(|| {
                    let value = value.trim_end_matches(',').trim_matches('"');
                    format!("{key}={value}")
                })
            })
            .collect();
        let chain = |name: &str, steps: &[&str]| {
            let mut lines = vec![format!("dag_name={name}")];
            for step in steps {
                lines.push(format!("node={step}"));
                lines.push("attempts=1".to_string());
            }
            lines.push("concurrency_high_water=1".to_string());
            lines.push("failed_node_attempts=0".to_string());
            lines
        };
        let mut want = chain("p3c-core", &["p3c-histogram", "coregen"]);
        want.extend(chain(
            "p3c-model",
            &["em", "outlier-detection", "attribute-inspection"],
        ));
        assert_eq!(seen, want, "{json}");
    }

    #[test]
    fn metrics_json_for_serial_algorithm_is_empty() {
        let dir = std::env::temp_dir().join("p3c-cli-test-metrics-serial");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("metrics.json");
        let path_s = path.to_str().unwrap();
        run(&format!(
            "cluster --synthetic 1500x8 -k 2 --seed 3 -a light --metrics-json {path_s}"
        ))
        .unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        let want = format!(
            "{{\n  \"kernel_isa\": \"{}\",\n  \"jobs\": [],\n  \"dag_runs\": []\n}}\n",
            isa::name()
        );
        assert_eq!(json, want);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_json_names_the_kernel_tier() {
        let dir = std::env::temp_dir().join("p3c-cli-test-metrics-isa");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("metrics.json");
        let path_s = path.to_str().unwrap();
        run(&format!(
            "cluster --synthetic 1500x8 -k 2 --seed 3 -a mr --metrics-json {path_s}"
        ))
        .unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let tier = ["avx2", "baseline"]
            .into_iter()
            .find(|t| json.contains(&format!("\n  \"kernel_isa\": \"{t}\",\n")));
        assert_eq!(tier, Some(isa::name()), "{json}");
    }

    #[test]
    fn generate_then_cluster_file_roundtrip() {
        let dir = std::env::temp_dir().join("p3c-cli-test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("data.txt");
        let path_s = path.to_str().unwrap();
        let gen_out = run(&format!(
            "generate --synthetic 1500x8 -k 2 --seed 3 --out {path_s}"
        ))
        .unwrap();
        assert!(gen_out.contains("wrote 1500 points"));
        let out = run(&format!("cluster --input {path_s} -a light")).unwrap();
        assert!(out.contains("light:"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = run("cluster --input /nonexistent/nope.txt").unwrap_err();
        assert!(matches!(err, ExecError::Io(_)));
    }

    #[test]
    fn malformed_file_is_decode_error() {
        let dir = std::env::temp_dir().join("p3c-cli-test-bad");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("bad.txt");
        std::fs::write(&path, "this is not a dataset\n").unwrap();
        let err = run(&format!("cluster --input {}", path.to_str().unwrap())).unwrap_err();
        assert!(matches!(err, ExecError::Decode(_)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unnormalized_input_is_normalized() {
        // Values outside [0,1] must be min-max normalized, not rejected.
        let dir = std::env::temp_dir().join("p3c-cli-test-norm");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("wide.txt");
        let ds = Dataset::from_rows(
            (0..200)
                .map(|i| vec![i as f64, 1000.0 - i as f64, (i % 7) as f64 * 100.0])
                .collect(),
        );
        std::fs::write(&path, persist::to_text(&ds)).unwrap();
        let out = run(&format!(
            "cluster --input {} -a light",
            path.to_str().unwrap()
        ));
        assert!(out.is_ok(), "{out:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
