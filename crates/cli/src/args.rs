//! Argument parsing for the `p3c` binary (hand-rolled: the workspace's
//! dependency budget has no CLI framework, and the grammar is small).

use p3c_core::config::P3cParams;
use p3c_datagen::SyntheticSpec;
use p3c_mapreduce::{BackendChoice, SchedulerChoice};
use std::fmt;

/// Which algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Original P3C (serial).
    P3c,
    /// P3C+ full pipeline (serial).
    P3cPlus,
    /// P3C+-Light (serial).
    Light,
    /// P3C+-MR full pipeline.
    Mr,
    /// P3C+-MR-Light.
    MrLight,
    /// BoW with per-partition P3C+-Light.
    Bow,
}

impl Algorithm {
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "p3c" => Some(Self::P3c),
            "p3c+" | "p3cplus" => Some(Self::P3cPlus),
            "light" | "p3c+light" => Some(Self::Light),
            "mr" | "p3c+mr" => Some(Self::Mr),
            "mr-light" | "mrlight" => Some(Self::MrLight),
            "bow" => Some(Self::Bow),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::P3c => "p3c",
            Self::P3cPlus => "p3c+",
            Self::Light => "light",
            Self::Mr => "mr",
            Self::MrLight => "mr-light",
            Self::Bow => "bow",
        }
    }
}

/// Output format of the `cluster` command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputFormat {
    /// Human-readable summary.
    Text,
    /// Full clustering as JSON.
    Json,
}

/// A parsed synthetic-workload shape `NxD`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    pub n: usize,
    pub d: usize,
}

fn parse_shape(s: &str) -> Option<Shape> {
    let (n, d) = s.split_once(['x', 'X'])?;
    Some(Shape {
        n: n.parse().ok()?,
        d: d.parse().ok()?,
    })
}

/// The synthetic-workload flags `cluster`, `generate` and the service's
/// `append` share: `--synthetic NxD`, `-k/--clusters K` and `--noise F`.
/// Values the generator cannot honour are refused while parsing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticArgs {
    /// Workload shape; `None` until `--synthetic` is given.
    pub shape: Option<Shape>,
    /// Hidden clusters.
    pub clusters: usize,
    /// Noise fraction in `[0, 1]`.
    pub noise: f64,
}

impl Default for SyntheticArgs {
    fn default() -> Self {
        Self {
            shape: None,
            clusters: 3,
            noise: 0.1,
        }
    }
}

impl SyntheticArgs {
    /// Consumes `flag` and its value from `it` if `flag` is one of the
    /// three; `Ok(false)` leaves both to the caller.
    pub fn parse_flag<'a>(
        &mut self,
        flag: &str,
        it: &mut impl Iterator<Item = &'a str>,
    ) -> Result<bool, ParseError> {
        match flag {
            "--synthetic" => {
                let v = next_value(it, flag)?;
                // A cluster spans at least two attributes.
                let shape = parse_shape(v)
                    .filter(|s| s.d >= 2)
                    .ok_or_else(|| ParseError(format!("bad shape '{v}' (want NxD with D >= 2)")))?;
                self.shape = Some(shape);
            }
            "--clusters" | "-k" => {
                let v = next_value(it, flag)?;
                self.clusters = v.parse().ok().filter(|&k| k >= 1).ok_or_else(|| {
                    ParseError(format!("bad --clusters value '{v}' (want K >= 1)"))
                })?;
            }
            "--noise" => {
                let v = next_value(it, flag)?;
                self.noise = v
                    .parse()
                    .ok()
                    .filter(|f| (0.0..=1.0).contains(f))
                    .ok_or_else(|| ParseError(format!("bad --noise value '{v}' (want 0..=1)")))?;
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The generator spec for this workload, `None` without a shape.
    pub fn spec(&self, seed: u64) -> Option<SyntheticSpec> {
        let shape = self.shape?;
        Some(SyntheticSpec {
            n: shape.n,
            d: shape.d,
            num_clusters: self.clusters,
            noise_fraction: self.noise,
            max_cluster_dims: 10.min(shape.d),
            seed,
            ..SyntheticSpec::default()
        })
    }
}

/// Parses a Poisson significance level the pipelines accept
/// ([`P3cParams::check`]).
pub fn parse_alpha(v: &str) -> Result<f64, ParseError> {
    let alpha = v
        .parse()
        .map_err(|_| ParseError(format!("bad --alpha value '{v}'")))?;
    P3cParams {
        alpha_poisson: alpha,
        ..P3cParams::default()
    }
    .check()
    .map_err(|what| ParseError(format!("bad --alpha value '{v}': {what}")))?;
    Ok(alpha)
}

/// The `p3c` subcommands.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Cluster a dataset.
    Cluster {
        /// Text-format input file (see `p3c_dataset::persist`); mutually
        /// exclusive with `synthetic.shape`.
        input: Option<String>,
        /// Synthetic workload.
        synthetic: SyntheticArgs,
        algorithm: Algorithm,
        seed: u64,
        /// Poisson significance level.
        alpha: f64,
        output: OutputFormat,
        /// Report E4SC against the synthetic ground truth.
        evaluate: bool,
        /// What each step of the MR algorithms' job chains gets: serial
        /// runs it once; dag adds a second attempt for a failed step and
        /// records each chain's steps. Both run the same jobs in order.
        scheduler: SchedulerChoice,
        /// Dump the kernel tier (`kernel_isa`) and the engine's
        /// `ClusterMetrics` (jobs + recorded chains) as JSON to this
        /// path after clustering.
        metrics_json: Option<String>,
        /// Worker threads for the engine and the serial-path kernels
        /// (0 = all cores). `None` keeps the defaults (`P3C_THREADS`
        /// env or 1 for kernels; all cores for the engine). Results
        /// are bit-identical for every value.
        threads: Option<usize>,
        /// Execution backend for the MR algorithms (`local`,
        /// `process[:N]`). `None` keeps the default
        /// (`P3C_BACKEND` env or the in-process engine). Results are
        /// byte-identical across backends and worker counts.
        backend: Option<BackendChoice>,
    },
    /// Generate a synthetic dataset to a file.
    Generate {
        /// The workload; its shape is always set.
        synthetic: SyntheticArgs,
        seed: u64,
        out: String,
    },
    /// Run the incremental multi-tenant clustering service (stdin
    /// protocol by default, TCP with `--listen`).
    Serve {
        /// TCP address to listen on; `None` = stdin mode.
        listen: Option<String>,
        /// Byte budget of the shared dataset cache (LRU spill).
        cache_budget: Option<usize>,
        /// Byte budget for concurrently admitted re-cluster jobs.
        job_budget: Option<usize>,
        /// Worker threads for the clustering kernels.
        threads: Option<usize>,
        /// Durability directory: journal every mutation and recover
        /// tenants on startup. `None` = volatile service.
        data_dir: Option<String>,
        /// Snapshot a tenant after this many journal records
        /// (`None` = the serve default; `Some(0)` = journal only).
        snapshot_every: Option<u64>,
    },
    /// Send one command to a running `serve --listen` instance.
    Ctl {
        /// Server address (`host:port`).
        connect: String,
        /// The protocol command words to send.
        words: Vec<String>,
    },
    /// Run as a shuffle worker subprocess (spawned by the process
    /// backend, not invoked by hand).
    Worker {
        /// Master address to dial back (`host:port`).
        connect: String,
        /// Worker id assigned by the master.
        id: u64,
    },
    /// Print usage.
    Help,
}

/// Parse result plus any warnings.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedArgs {
    pub command: Command,
}

/// Parse errors with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// Parses the argument list (without the program name).
pub fn parse(args: &[String]) -> Result<ParsedArgs, ParseError> {
    let mut it = args.iter().map(String::as_str);
    let command = match it.next() {
        None | Some("help") | Some("--help") | Some("-h") => {
            return Ok(ParsedArgs {
                command: Command::Help,
            })
        }
        Some("cluster") => parse_cluster(&mut it)?,
        Some("generate") => parse_generate(&mut it)?,
        Some("serve") => parse_serve(&mut it)?,
        Some("ctl") => parse_ctl(&mut it)?,
        Some("worker") => parse_worker(&mut it)?,
        Some(other) => {
            return Err(ParseError(format!(
            "unknown command '{other}' (expected cluster | generate | serve | ctl | worker | help)"
        )))
        }
    };
    Ok(ParsedArgs { command })
}

fn next_value<'a>(
    it: &mut impl Iterator<Item = &'a str>,
    flag: &str,
) -> Result<&'a str, ParseError> {
    it.next()
        .ok_or_else(|| ParseError(format!("{flag} needs a value")))
}

fn parse_cluster<'a>(it: &mut impl Iterator<Item = &'a str>) -> Result<Command, ParseError> {
    let mut input = None;
    let mut synthetic = SyntheticArgs::default();
    let mut algorithm = Algorithm::P3cPlus;
    let mut seed = 0;
    let mut alpha = 1e-10;
    let mut output = OutputFormat::Text;
    let mut evaluate = false;
    let mut scheduler = SchedulerChoice::Serial;
    let mut metrics_json = None;
    let mut threads = None;
    let mut backend = None;
    while let Some(arg) = it.next() {
        if synthetic.parse_flag(arg, it)? {
            continue;
        }
        match arg {
            "--input" | "-i" => input = Some(next_value(it, arg)?.to_string()),
            "--algorithm" | "-a" => {
                let v = next_value(it, arg)?;
                algorithm = Algorithm::parse(v)
                    .ok_or_else(|| ParseError(format!("unknown algorithm '{v}'")))?;
            }
            "--seed" => {
                seed = next_value(it, arg)?
                    .parse()
                    .map_err(|_| ParseError("bad --seed value".into()))?;
            }
            "--alpha" => alpha = parse_alpha(next_value(it, arg)?)?,
            "--output" | "-o" => {
                output = match next_value(it, arg)? {
                    "text" => OutputFormat::Text,
                    "json" => OutputFormat::Json,
                    other => return Err(ParseError(format!("unknown output '{other}'"))),
                };
            }
            "--evaluate" | "-e" => evaluate = true,
            "--scheduler" => {
                let v = next_value(it, arg)?;
                scheduler = SchedulerChoice::parse(v).ok_or_else(|| {
                    ParseError(format!("unknown scheduler '{v}' (expected serial | dag)"))
                })?;
            }
            "--metrics-json" => metrics_json = Some(next_value(it, arg)?.to_string()),
            "--threads" | "-t" => {
                threads = Some(
                    next_value(it, arg)?
                        .parse()
                        .map_err(|_| ParseError("bad --threads value".into()))?,
                );
            }
            "--backend" => {
                backend = Some(BackendChoice::parse(next_value(it, arg)?).map_err(ParseError)?);
            }
            other => return Err(ParseError(format!("unknown flag '{other}'"))),
        }
    }
    match (&input, &synthetic.shape) {
        (None, None) => {
            return Err(ParseError(
                "cluster needs --input FILE or --synthetic NxD".into(),
            ))
        }
        (Some(_), Some(_)) => {
            return Err(ParseError(
                "--input and --synthetic are mutually exclusive".into(),
            ))
        }
        _ => {}
    }
    if evaluate && synthetic.shape.is_none() {
        return Err(ParseError(
            "--evaluate requires --synthetic (needs ground truth)".into(),
        ));
    }
    Ok(Command::Cluster {
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
    })
}

/// Parses a byte count with an optional `k`/`m`/`g` suffix (powers of
/// 1024), e.g. `4m` = 4 MiB.
fn parse_bytes(s: &str) -> Option<usize> {
    let (digits, factor) = match s.to_ascii_lowercase().strip_suffix(['k', 'm', 'g']) {
        Some(head) => {
            let factor = match s.as_bytes()[s.len() - 1].to_ascii_lowercase() {
                b'k' => 1usize << 10,
                b'm' => 1 << 20,
                _ => 1 << 30,
            };
            (head.to_string(), factor)
        }
        None => (s.to_string(), 1),
    };
    digits.parse::<usize>().ok()?.checked_mul(factor)
}

fn parse_serve<'a>(it: &mut impl Iterator<Item = &'a str>) -> Result<Command, ParseError> {
    let mut listen = None;
    let mut cache_budget = None;
    let mut job_budget = None;
    let mut threads = None;
    let mut data_dir = None;
    let mut snapshot_every = None;
    while let Some(arg) = it.next() {
        match arg {
            "--listen" => listen = Some(next_value(it, arg)?.to_string()),
            "--data-dir" => data_dir = Some(next_value(it, arg)?.to_string()),
            "--snapshot-every" => {
                snapshot_every = Some(
                    next_value(it, arg)?
                        .parse()
                        .map_err(|_| ParseError("bad --snapshot-every value".into()))?,
                );
            }
            "--cache-budget" => {
                let v = next_value(it, arg)?;
                cache_budget = Some(parse_bytes(v).ok_or_else(|| {
                    ParseError(format!("bad --cache-budget '{v}' (want BYTES[k|m|g])"))
                })?);
            }
            "--job-budget" => {
                let v = next_value(it, arg)?;
                job_budget = Some(parse_bytes(v).ok_or_else(|| {
                    ParseError(format!("bad --job-budget '{v}' (want BYTES[k|m|g])"))
                })?);
            }
            "--threads" | "-t" => {
                threads = Some(
                    next_value(it, arg)?
                        .parse()
                        .map_err(|_| ParseError("bad --threads value".into()))?,
                );
            }
            other => return Err(ParseError(format!("unknown flag '{other}'"))),
        }
    }
    Ok(Command::Serve {
        listen,
        cache_budget,
        job_budget,
        threads,
        data_dir,
        snapshot_every,
    })
}

fn parse_ctl<'a>(it: &mut impl Iterator<Item = &'a str>) -> Result<Command, ParseError> {
    let mut connect = None;
    let mut words = Vec::new();
    while let Some(arg) = it.next() {
        match arg {
            "--connect" => connect = Some(next_value(it, arg)?.to_string()),
            "--" => {
                words.extend(it.by_ref().map(String::from));
            }
            other if words.is_empty() && other.starts_with('-') => {
                return Err(ParseError(format!("unknown flag '{other}'")))
            }
            other => words.push(other.to_string()),
        }
    }
    let connect = connect.ok_or_else(|| ParseError("ctl needs --connect HOST:PORT".into()))?;
    if words.is_empty() {
        return Err(ParseError(
            "ctl needs a command to send (try `help`)".into(),
        ));
    }
    Ok(Command::Ctl { connect, words })
}

fn parse_worker<'a>(it: &mut impl Iterator<Item = &'a str>) -> Result<Command, ParseError> {
    let mut connect = None;
    let mut id = None;
    while let Some(arg) = it.next() {
        match arg {
            "--connect" => connect = Some(next_value(it, arg)?.to_string()),
            "--id" => {
                id = Some(
                    next_value(it, arg)?
                        .parse()
                        .map_err(|_| ParseError("bad --id value".into()))?,
                );
            }
            other => return Err(ParseError(format!("unknown flag '{other}'"))),
        }
    }
    let connect = connect.ok_or_else(|| ParseError("worker needs --connect HOST:PORT".into()))?;
    Ok(Command::Worker {
        connect,
        id: id.unwrap_or(0),
    })
}

fn parse_generate<'a>(it: &mut impl Iterator<Item = &'a str>) -> Result<Command, ParseError> {
    let mut synthetic = SyntheticArgs::default();
    let mut seed = 0;
    let mut out = None;
    while let Some(arg) = it.next() {
        if synthetic.parse_flag(arg, it)? {
            continue;
        }
        match arg {
            "--seed" => {
                seed = next_value(it, arg)?
                    .parse()
                    .map_err(|_| ParseError("bad --seed value".into()))?;
            }
            "--out" => out = Some(next_value(it, arg)?.to_string()),
            other => return Err(ParseError(format!("unknown flag '{other}'"))),
        }
    }
    if synthetic.shape.is_none() {
        return Err(ParseError("generate needs --synthetic NxD".into()));
    }
    let out = out.ok_or_else(|| ParseError("generate needs --out FILE".into()))?;
    Ok(Command::Generate {
        synthetic,
        seed,
        out,
    })
}

/// The usage text printed by `p3c help`.
pub const USAGE: &str = "\
p3c — projected clustering (P3C / P3C+ / P3C+-MR / BoW)

USAGE:
  p3c cluster (--input FILE | --synthetic NxD) [OPTIONS]
  p3c generate --synthetic NxD --out FILE [OPTIONS]
  p3c serve [--listen ADDR] [--cache-budget B] [--job-budget B] [-t N]
            [--data-dir DIR] [--snapshot-every N]
  p3c ctl --connect ADDR -- COMMAND...
  p3c worker --connect HOST:PORT [--id N]
  p3c help

CLUSTER OPTIONS:
  -a, --algorithm ALGO   p3c | p3c+ | light | mr | mr-light | bow  [p3c+]
  -k, --clusters K       hidden clusters for --synthetic            [3]
      --noise FRAC       noise fraction for --synthetic             [0.1]
      --seed SEED        generator seed                             [0]
      --alpha A          Poisson significance level                 [1e-10]
  -o, --output FMT       text | json                                [text]
  -e, --evaluate         report E4SC against the synthetic truth
      --scheduler S      serial | dag (mr / mr-light / bow only)    [serial]
                         (same job order; dag adds a second attempt
                         per failed step and per-chain step metrics)
      --metrics-json F   dump kernel tier + job + DAG metrics as JSON to F
  -t, --threads N        worker threads for the engine and kernels
                         (0 = all cores; results are bit-identical)
      --backend B        local | process[:N] — MR execution
                         backend (byte-identical results;
                         default honours P3C_BACKEND)

GENERATE OPTIONS:
  -k, --clusters K / --noise FRAC / --seed SEED as above
      --out FILE         destination (text format)

SERVE OPTIONS (incremental multi-tenant clustering service):
      --listen ADDR      TCP mode; default reads commands from stdin
      --cache-budget B   dataset-cache byte budget, LRU spill below it
                         (suffixes k/m/g; default unbounded)
      --job-budget B     byte budget for concurrent re-cluster jobs
  -t, --threads N        worker threads for the clustering kernels
      --data-dir DIR     durable mode: journal every mutation under DIR
                         and recover hosted tenants on startup
      --snapshot-every N snapshot a tenant after N journal records,
                         starting a new journal segment (0 = journal only) [64]
  protocol: create | append | retract | recluster | verify | stats |
            fingerprint | drop | quit | shutdown  (send `help`)

CTL OPTIONS (one-shot client for serve --listen):
      --connect ADDR     server address; words after -- are sent verbatim

WORKER OPTIONS (spawned by the process backend, not run by hand):
      --connect ADDR     master address to dial back
      --id N             worker id assigned by the master         [0]
";

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(|t| t.to_string()).collect()
    }

    #[test]
    fn help_paths() {
        for a in ["", "help", "--help", "-h"] {
            let parsed = parse(&args(a)).unwrap();
            assert_eq!(parsed.command, Command::Help);
        }
    }

    #[test]
    fn cluster_defaults() {
        let parsed = parse(&args("cluster --synthetic 1000x10")).unwrap();
        match parsed.command {
            Command::Cluster {
                synthetic,
                algorithm,
                output,
                evaluate,
                ..
            } => {
                assert_eq!(synthetic.shape, Some(Shape { n: 1000, d: 10 }));
                assert_eq!(algorithm, Algorithm::P3cPlus);
                assert_eq!(synthetic.clusters, 3);
                assert_eq!(output, OutputFormat::Text);
                assert!(!evaluate);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn cluster_full_flags() {
        let parsed = parse(&args(
            "cluster --synthetic 500x8 -a mr-light -k 5 --noise 0.2 --seed 7 --alpha 1e-4 -o json -e",
        ))
        .unwrap();
        match parsed.command {
            Command::Cluster {
                synthetic,
                algorithm,
                seed,
                alpha,
                output,
                evaluate,
                ..
            } => {
                assert_eq!(algorithm, Algorithm::MrLight);
                assert_eq!(synthetic.clusters, 5);
                assert!((synthetic.noise - 0.2).abs() < 1e-12);
                assert_eq!(seed, 7);
                assert!((alpha - 1e-4).abs() < 1e-16);
                assert_eq!(output, OutputFormat::Json);
                assert!(evaluate);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn all_algorithms_parse() {
        for (s, a) in [
            ("p3c", Algorithm::P3c),
            ("p3c+", Algorithm::P3cPlus),
            ("P3CPLUS", Algorithm::P3cPlus),
            ("light", Algorithm::Light),
            ("mr", Algorithm::Mr),
            ("mr-light", Algorithm::MrLight),
            ("bow", Algorithm::Bow),
        ] {
            assert_eq!(Algorithm::parse(s), Some(a), "{s}");
        }
        assert_eq!(Algorithm::parse("kmeans"), None);
    }

    #[test]
    fn scheduler_and_metrics_flags() {
        let parsed = parse(&args(
            "cluster --synthetic 1000x10 -a mr --scheduler dag --metrics-json /tmp/m.json",
        ))
        .unwrap();
        match parsed.command {
            Command::Cluster {
                scheduler,
                metrics_json,
                ..
            } => {
                assert_eq!(scheduler, SchedulerChoice::Dag);
                assert_eq!(metrics_json.as_deref(), Some("/tmp/m.json"));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Defaults: serial scheduler, no metrics dump.
        let parsed = parse(&args("cluster --synthetic 1000x10")).unwrap();
        match parsed.command {
            Command::Cluster {
                scheduler,
                metrics_json,
                ..
            } => {
                assert_eq!(scheduler, SchedulerChoice::Serial);
                assert_eq!(metrics_json, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        let err = parse(&args("cluster --synthetic 1000x10 --scheduler turbo")).unwrap_err();
        assert!(err.0.contains("unknown scheduler"));
    }

    #[test]
    fn backend_flag() {
        let parsed = parse(&args(
            "cluster --synthetic 1000x10 -a mr --backend process:3",
        ))
        .unwrap();
        match parsed.command {
            Command::Cluster { backend, .. } => {
                assert_eq!(
                    backend,
                    Some(BackendChoice::Process {
                        workers: 3,
                        kill: None
                    })
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        let parsed = parse(&args("cluster --synthetic 1000x10")).unwrap();
        match parsed.command {
            Command::Cluster { backend, .. } => assert_eq!(backend, None),
            other => panic!("unexpected {other:?}"),
        }
        let err = parse(&args("cluster --synthetic 1000x10 --backend warp")).unwrap_err();
        assert!(err.0.contains("unknown backend"));
    }

    #[test]
    fn worker_command() {
        let parsed = parse(&args("worker --connect 127.0.0.1:9999 --id 3")).unwrap();
        assert_eq!(
            parsed.command,
            Command::Worker {
                connect: "127.0.0.1:9999".to_string(),
                id: 3
            }
        );
        // id defaults to 0; --connect is mandatory.
        let parsed = parse(&args("worker --connect h:1")).unwrap();
        assert_eq!(
            parsed.command,
            Command::Worker {
                connect: "h:1".to_string(),
                id: 0
            }
        );
        let err = parse(&args("worker --id 1")).unwrap_err();
        assert!(err.0.contains("--connect"));
    }

    #[test]
    fn threads_flag() {
        let parsed = parse(&args("cluster --synthetic 1000x10 --threads 8")).unwrap();
        match parsed.command {
            Command::Cluster { threads, .. } => assert_eq!(threads, Some(8)),
            other => panic!("unexpected {other:?}"),
        }
        // Default: unset, so pipeline/engine defaults apply.
        let parsed = parse(&args("cluster --synthetic 1000x10")).unwrap();
        match parsed.command {
            Command::Cluster { threads, .. } => assert_eq!(threads, None),
            other => panic!("unexpected {other:?}"),
        }
        let err = parse(&args("cluster --synthetic 1000x10 -t nope")).unwrap_err();
        assert!(err.0.contains("bad --threads"));
    }

    #[test]
    fn cluster_input_and_synthetic_exclusive() {
        let err = parse(&args("cluster --input f.txt --synthetic 10x2")).unwrap_err();
        assert!(err.0.contains("mutually exclusive"));
        let err = parse(&args("cluster")).unwrap_err();
        assert!(err.0.contains("needs"));
    }

    #[test]
    fn evaluate_requires_synthetic() {
        let err = parse(&args("cluster --input f.txt -e")).unwrap_err();
        assert!(err.0.contains("--evaluate requires"));
    }

    #[test]
    fn generate_roundtrip() {
        let parsed = parse(&args("generate --synthetic 200x5 --out /tmp/x.txt -k 2")).unwrap();
        assert_eq!(
            parsed.command,
            Command::Generate {
                synthetic: SyntheticArgs {
                    shape: Some(Shape { n: 200, d: 5 }),
                    clusters: 2,
                    noise: 0.1,
                },
                seed: 0,
                out: "/tmp/x.txt".into()
            }
        );
    }

    #[test]
    fn bad_inputs_error() {
        assert!(parse(&args("frobnicate")).is_err());
        assert!(parse(&args("cluster --synthetic banana")).is_err());
        assert!(parse(&args("cluster --synthetic 10x2 --algorithm nope")).is_err());
        assert!(parse(&args("cluster --synthetic 10x2 --output xml")).is_err());
        assert!(parse(&args("generate --synthetic 10x2")).is_err());
        // Workloads the generator and alphas the pipelines would refuse
        // are usage errors, not panics after parsing.
        for line in [
            "cluster --synthetic 10x0",
            "cluster --synthetic 10x1",
            "cluster --synthetic 100x4 -k 0",
            "cluster --synthetic 100x4 --noise 1.5",
            "cluster --synthetic 100x4 --noise -0.1",
            "cluster --synthetic 100x4 --noise nan",
            "cluster --synthetic 100x4 --alpha 0",
            "cluster --synthetic 100x4 --alpha 1",
            "cluster --synthetic 100x4 --alpha nan",
            "generate --synthetic 100x0 --out f.txt",
            "generate --synthetic 100x4 --clusters 0 --out f.txt",
            "generate --synthetic 100x4 --noise 7 --out f.txt",
        ] {
            let err = parse(&args(line)).unwrap_err();
            assert!(err.0.starts_with("bad "), "{line}: {err}");
        }
        let err = parse(&args("cluster --synthetic 100x4 --alpha 0")).unwrap_err();
        assert!(err.0.contains("alpha_poisson out of range"), "{err}");
        for line in [
            "cluster --synthetic 100x2 -k 1 --noise 0",
            "cluster --synthetic 0x4 --noise 1 --alpha 0.5",
        ] {
            assert!(parse(&args(line)).is_ok(), "{line}");
        }
    }

    #[test]
    fn serve_command() {
        let parsed = parse(&args("serve")).unwrap();
        assert_eq!(
            parsed.command,
            Command::Serve {
                listen: None,
                cache_budget: None,
                job_budget: None,
                threads: None,
                data_dir: None,
                snapshot_every: None
            }
        );
        let parsed = parse(&args(
            "serve --listen 127.0.0.1:7070 --cache-budget 4m --job-budget 512k -t 2 \
             --data-dir /tmp/p3c-data --snapshot-every 16",
        ))
        .unwrap();
        assert_eq!(
            parsed.command,
            Command::Serve {
                listen: Some("127.0.0.1:7070".into()),
                cache_budget: Some(4 << 20),
                job_budget: Some(512 << 10),
                threads: Some(2),
                data_dir: Some("/tmp/p3c-data".into()),
                snapshot_every: Some(16)
            }
        );
        let err = parse(&args("serve --cache-budget huge")).unwrap_err();
        assert!(err.0.contains("bad --cache-budget"));
        let err = parse(&args("serve --snapshot-every soon")).unwrap_err();
        assert!(err.0.contains("bad --snapshot-every"));
    }

    #[test]
    fn ctl_command() {
        let parsed = parse(&args("ctl --connect h:1 -- append t --synthetic 10x2")).unwrap();
        assert_eq!(
            parsed.command,
            Command::Ctl {
                connect: "h:1".into(),
                words: args("append t --synthetic 10x2"),
            }
        );
        // Bare words also work without the -- separator.
        let parsed = parse(&args("ctl --connect h:1 stats")).unwrap();
        assert_eq!(
            parsed.command,
            Command::Ctl {
                connect: "h:1".into(),
                words: vec!["stats".to_string()],
            }
        );
        assert!(parse(&args("ctl stats")).is_err(), "missing --connect");
        assert!(parse(&args("ctl --connect h:1")).is_err(), "no command");
    }

    #[test]
    fn byte_suffixes() {
        assert_eq!(parse_bytes("1024"), Some(1024));
        assert_eq!(parse_bytes("2k"), Some(2048));
        assert_eq!(parse_bytes("3M"), Some(3 << 20));
        assert_eq!(parse_bytes("1g"), Some(1 << 30));
        assert_eq!(parse_bytes("x"), None);
        assert_eq!(parse_bytes("m"), None);
    }

    #[test]
    fn shape_parser() {
        assert_eq!(parse_shape("100x5"), Some(Shape { n: 100, d: 5 }));
        assert_eq!(parse_shape("100X5"), Some(Shape { n: 100, d: 5 }));
        assert_eq!(parse_shape("100"), None);
        assert_eq!(parse_shape("ax5"), None);
    }
}
