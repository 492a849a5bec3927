//! `p3c-e2e`: the repo benchmark.
//!
//! Seven workloads run whole pipelines of the P3C+ suite — the batch
//! algorithms through `cluster`/`cluster_with`, the service through
//! `ClusterService` — from outside, on generated inputs, and report
//! end-to-end metrics (`--trace 0`) or a per-layer attribution
//! (`--trace 1`). Nothing in the program is touched: layers are timed
//! around calls into their public functions and read from the ledgers
//! the program already keeps. See `README.md` beside `Cargo.toml`.

#![warn(missing_docs)]

pub mod batch;
pub mod inputs;
pub mod json;
pub mod measure;
pub mod micro;
pub mod serve;
pub mod spec;
pub mod suite;
pub mod sys;

use measure::Report;
use std::path::PathBuf;
use std::str::FromStr;
use std::time::Instant;

/// A run measures at least this many passes, however long they take.
const MIN_PASSES: usize = 3;

/// Splits a command line into `(flag, value)` pairs; the flags named
/// in `switches` take no value.
pub(crate) fn flag_pairs<'a>(
    args: &'a [String],
    switches: &[&str],
) -> Result<Vec<(&'a str, &'a str)>, String> {
    let mut pairs = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = if switches.contains(&flag.as_str()) {
            ""
        } else {
            it.next().ok_or_else(|| format!("{flag} needs a value"))?
        };
        pairs.push((flag.as_str(), value));
    }
    Ok(pairs)
}

/// Parses the value of `flag`.
pub(crate) fn flag_value<T: FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: `{value}` is not valid"))
}

/// Arguments of one run of one workload (the driver's contract plus
/// this benchmark's own switches).
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// `--workload`: one of [`spec::WORKLOADS`].
    pub workload: String,
    /// `--seed`: orders the rows of the generated input.
    pub seed: u64,
    /// `--seconds`: how long to measure.
    pub seconds: f64,
    /// `--trace 1`: per-layer metrics and spans instead of end-to-end.
    pub trace: bool,
    /// `--structure-seed`: which planted structure is generated
    /// (default 7). Every check must hold for any value.
    pub structure_seed: u64,
    /// `--smoke`: a functional check, not a measurement — rows divided
    /// by 20, one pass.
    pub smoke: bool,
    /// `--spans FILE`: where a traced run writes its span records.
    pub spans: Option<PathBuf>,
}

impl RunArgs {
    /// Whether a run that started measuring at `started` and has made
    /// `passes` passes makes another: until the seconds are up, and at
    /// least [`MIN_PASSES`] — or exactly one under `--smoke`.
    pub fn keep_measuring(&self, passes: usize, started: Instant) -> bool {
        if self.smoke {
            return passes < 1;
        }
        passes < MIN_PASSES || started.elapsed().as_secs_f64() < self.seconds
    }

    /// Parses `--workload W --seed N --seconds S --trace 0|1
    /// [--structure-seed K] [--smoke] [--spans FILE]`.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut out = RunArgs {
            workload: String::new(),
            seed: 7,
            seconds: spec::RUN_SECONDS as f64,
            trace: false,
            structure_seed: 7,
            smoke: false,
            spans: None,
        };
        for (flag, value) in flag_pairs(args, &["--smoke"])? {
            match flag {
                "--workload" => out.workload = value.to_string(),
                "--seed" => out.seed = flag_value(flag, value)?,
                "--structure-seed" => out.structure_seed = flag_value(flag, value)?,
                "--seconds" => {
                    out.seconds = flag_value(flag, value)?;
                    if !(out.seconds.is_finite() && out.seconds >= 0.0) {
                        return Err(format!("--seconds: `{value}` is not a duration"));
                    }
                }
                "--trace" => {
                    out.trace = match value {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                    }
                }
                "--smoke" => out.smoke = true,
                "--spans" => out.spans = Some(PathBuf::from(value)),
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        if !spec::WORKLOADS.iter().any(|w| w.name == out.workload) {
            let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "--workload must be one of {}; got `{}`",
                names.join(", "),
                out.workload
            ));
        }
        Ok(out)
    }
}

/// The program reads these as defaults; a measurement sets threads,
/// backend and kernel family explicitly and refuses to run under them.
const AMBIENT_KNOBS: [&str; 3] = ["P3C_THREADS", "P3C_BACKEND", "P3C_LANES"];

/// Refuses to measure under ambient configuration or in a build with
/// `debug_assertions`. `--smoke` is not a measurement, so it only
/// checks the environment.
pub fn ambient_guard(smoke: bool) -> Result<(), String> {
    if let Some(knob) = AMBIENT_KNOBS.iter().find(|k| std::env::var_os(k).is_some()) {
        return Err(format!(
            "{knob} is set: the benchmark sets threads, backend and lanes itself; unset it"
        ));
    }
    if cfg!(debug_assertions) && !smoke {
        return Err(
            "built with debug_assertions: measure a --release build (or pass --smoke)".to_string(),
        );
    }
    Ok(())
}

/// Runs one workload and returns what it measured.
pub fn run_workload(args: &RunArgs) -> Result<Report, String> {
    ambient_guard(args.smoke)?;
    // The process backend's workers are this executable's `worker`
    // subcommand (`p3c_cli`'s worker host), so the benchmark is one
    // binary. Set before any thread exists.
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    std::env::set_var("P3C_WORKER_BIN", exe);
    let tmp = sys::TmpDir::create().map_err(|e| format!("scratch dir: {e}"))?;
    let report = match args.workload.as_str() {
        "mr-light-wide" => batch::run(batch::Kind::MrLightWide, args),
        "bow-light-wide" => batch::run(batch::Kind::BowLightWide, args),
        "bow-light-process" => batch::run(batch::Kind::BowLightProcess, args),
        "mr-full-narrow" => batch::run(batch::Kind::MrFullNarrow, args),
        "serial-full-fig7" => batch::run(batch::Kind::SerialFullFig7, args),
        "serve-durable" => serve::run(serve::Kind::Durable, args, tmp.path()),
        "serve-spill" => serve::run(serve::Kind::Spill, args, tmp.path()),
        other => return Err(format!("unknown workload `{other}`")),
    };
    if let Some(path) = &args.spans {
        std::fs::write(path, measure::spans_json(&report.spans))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(report)
}
