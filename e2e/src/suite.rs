//! `e2e run` — every workload, each run a fresh child process, results
//! in `e2e.json` — and `e2e compare`, which sets two such files side by
//! side under the bounds of the end-to-end table.

use crate::json::{self, escape, number, Value};
use crate::measure::{median, quartiles};
use crate::spec::{self, Better};
use crate::{flag_value, sys};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Arguments of `e2e run`.
#[derive(Debug, Clone)]
pub struct SuiteArgs {
    /// First run's `--seed`; run `r` uses `seed + r`.
    pub seed: u64,
    /// `--structure-seed` handed to every run.
    pub structure_seed: u64,
    /// End-to-end runs per workload (one more, traced, gives the layers).
    pub runs: u64,
    /// `--seconds` handed to every run.
    pub seconds: f64,
    /// Where `e2e.json` and `trace-<workload>.json` go.
    pub out: Option<PathBuf>,
    /// `--smoke` handed to every run.
    pub smoke: bool,
}

impl SuiteArgs {
    /// Parses `[--seed S] [--structure-seed K] [--runs R] [--seconds S]
    /// [--out DIR] [--smoke]`.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut out = SuiteArgs {
            seed: 7,
            structure_seed: 7,
            runs: 1,
            seconds: spec::RUN_SECONDS as f64,
            out: None,
            smoke: false,
        };
        for (flag, value) in crate::flag_pairs(args, &["--smoke"])? {
            match flag {
                "--seed" => out.seed = flag_value(flag, value)?,
                "--structure-seed" => out.structure_seed = flag_value(flag, value)?,
                "--runs" => {
                    out.runs = flag_value(flag, value)?;
                    if out.runs == 0 {
                        return Err("--runs must be at least 1".to_string());
                    }
                }
                "--seconds" => out.seconds = flag_value(flag, value)?,
                "--out" => out.out = Some(PathBuf::from(value)),
                "--smoke" => out.smoke = true,
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(out)
    }
}

/// The parsed result line of one child run.
struct ChildResult {
    attempted: f64,
    failed: f64,
    /// (name, value, unit) in the order printed.
    metrics: Vec<(String, f64, String)>,
}

/// Runs this executable on one workload and parses the last line of
/// its standard output.
fn child_run(
    args: &SuiteArgs,
    workload: &str,
    seed: u64,
    spans: Option<&Path>,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--structure-seed", &args.structure_seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if spans.is_some() { "1" } else { "0" }]);
    if let Some(path) = spans {
        cmd.arg("--spans").arg(path);
    }
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or("");
    let parsed = json::parse(line).map_err(|e| {
        format!(
            "{workload}: exit {:?}, no result line ({e}); stderr: {}",
            output.status.code(),
            String::from_utf8_lossy(&output.stderr).trim()
        )
    })?;
    let field = |k: &str| parsed.get(k).and_then(Value::as_f64);
    let metrics = parsed
        .get("metrics")
        .and_then(Value::as_obj)
        .ok_or("result line has no metrics")?
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Value::as_f64).unwrap_or(0.0);
            let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
            (name.clone(), value, unit.to_string())
        })
        .collect();
    // A failed run still reports; its failures are on stderr.
    if !output.status.success() || field("failed") != Some(0.0) {
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
    }
    Ok(ChildResult {
        attempted: field("attempted").unwrap_or(0.0),
        failed: field("failed").unwrap_or(0.0),
        metrics,
    })
}

/// `e2e run`: returns whether every operation of every run succeeded.
pub fn run(args: &SuiteArgs) -> Result<bool, String> {
    crate::ambient_guard(args.smoke)?;
    let out_dir = match &args.out {
        Some(dir) => dir.clone(),
        None => sys::target_dir()
            .map_err(|e| format!("target dir: {e}"))?
            .join("e2e-out"),
    };
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;

    let mut rows = Vec::new();
    let mut all_ok = true;
    for w in &spec::WORKLOADS {
        let mut attempted = 0.0;
        let mut failed = 0.0;
        let mut samples: Vec<(String, String, Vec<f64>)> = Vec::new();
        for r in 0..args.runs {
            let result = child_run(args, w.name, args.seed + r, None)?;
            attempted += result.attempted;
            failed += result.failed;
            for (i, (name, value, unit)) in result.metrics.into_iter().enumerate() {
                if r == 0 {
                    samples.push((name, unit, vec![value]));
                } else {
                    samples[i].2.push(value);
                }
            }
        }
        let spans = out_dir.join(format!("trace-{}.json", w.name));
        let traced = child_run(args, w.name, args.seed, Some(&spans))?;
        attempted += traced.attempted;
        failed += traced.failed;
        all_ok &= failed == 0.0;

        println!("{} — {attempted} operations, {failed} failed", w.name);
        let mut e2e = Vec::new();
        for (name, unit, values) in &samples {
            let (q1, q3) = quartiles(values);
            println!(
                "  {name:<44} {:>14.6} {unit:<6} q1 {q1:.6} q3 {q3:.6} n {}",
                median(values),
                values.len()
            );
            let list: Vec<String> = values.iter().map(|v| number(*v)).collect();
            e2e.push(format!(
                "        {}: {{\"unit\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"values\": [{}]}}",
                escape(name),
                escape(unit),
                number(median(values)),
                number(q1),
                number(q3),
                list.join(", ")
            ));
        }
        let mut layers = Vec::new();
        for (name, value, unit) in &traced.metrics {
            println!("  {name:<44} {value:>14.6} {unit}");
            layers.push(format!(
                "        {}: {{\"unit\": {}, \"value\": {}}}",
                escape(name),
                escape(unit),
                number(*value)
            ));
        }
        rows.push(format!(
            "    {{\n      \"name\": {},\n      \"attempted\": {},\n      \"failed\": {},\n      \"end_to_end\": {{\n{}\n      }},\n      \"per_layer\": {{\n{}\n      }}\n    }}",
            escape(w.name),
            number(attempted),
            number(failed),
            e2e.join(",\n"),
            layers.join(",\n")
        ));
    }

    let text = format!(
        "{{\n  \"benchmark\": \"p3c-e2e\",\n  \"git_head\": {},\n  \"nproc\": {},\n  \"threads\": {},\n  \"seed\": {},\n  \"structure_seed\": {},\n  \"runs\": {},\n  \"seconds\": {},\n  \"smoke\": {},\n  \"workloads\": [\n{}\n  ]\n}}\n",
        escape(&sys::git_head()),
        sys::nproc(),
        sys::batch_threads(),
        args.seed,
        args.structure_seed,
        args.runs,
        number(args.seconds),
        args.smoke,
        rows.join(",\n")
    );
    let path = out_dir.join("e2e.json");
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(all_ok)
}

/// One end-to-end metric of one workload, as `e2e.json` holds it.
struct Stat {
    median: f64,
    q1: f64,
    q3: f64,
    n: usize,
}

fn stat_of(file: &Value, workload: &str, metric: &str) -> Option<Stat> {
    let m = file
        .get("workloads")?
        .as_arr()?
        .iter()
        .find(|w| w.get("name").and_then(Value::as_str) == Some(workload))?
        .get("end_to_end")?
        .get(metric)?;
    Some(Stat {
        median: m.get("median")?.as_f64()?,
        q1: m.get("q1")?.as_f64()?,
        q3: m.get("q3")?.as_f64()?,
        n: m.get("values")?.as_arr()?.len(),
    })
}

/// `e2e compare A.json B.json`: per workload and end-to-end metric,
/// both medians with their quartiles and how much worse B is than A as
/// a share of A's median. A metric is *unresolved* when either side's
/// own quartile spread exceeds its bound. Returns whether every metric
/// is resolved and within its bound.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let load = |p: &Path| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut ok = true;
    println!(
        "{:<18} {:<12} {:>12} {:>22} {:>12} {:>22} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "worse", "bound"
    );
    for w in &spec::WORKLOADS {
        for m in &spec::END_TO_END {
            let (Some(sa), Some(sb)) = (stat_of(&a, w.name, m.name), stat_of(&b, w.name, m.name))
            else {
                println!("{:<18} {:<12} missing from one file", w.name, m.name);
                ok = false;
                continue;
            };
            let worse = match m.better {
                Better::Lower => (sb.median - sa.median) / sa.median,
                Better::Higher => (sa.median - sb.median) / sa.median,
            };
            let spread = |s: &Stat| {
                if s.n < 2 {
                    0.0
                } else {
                    (s.q3 - s.q1) / s.median
                }
            };
            let verdict = if spread(&sa) > m.bound || spread(&sb) > m.bound {
                ok = false;
                "unresolved"
            } else if worse > m.bound {
                ok = false;
                "WORSE"
            } else if worse < -m.bound {
                "better"
            } else {
                "same"
            };
            println!(
                "{:<18} {:<12} {:>12.5} {:>22} {:>12.5} {:>22} {:>+7.1}% {:>5.1}%  {verdict}",
                w.name,
                m.name,
                sa.median,
                format!("{:.5}..{:.5}", sa.q1, sa.q3),
                sb.median,
                format!("{:.5}..{:.5}", sb.q1, sb.q3),
                worse * 100.0,
                m.bound * 100.0
            );
        }
    }
    Ok(ok)
}
