//! The `e2e` binary: the driver's one-workload contract, `run`,
//! `compare`, `manifest`, and the two child roles (`worker`, `p3c`)
//! that let the benchmark be a single executable.

use p3c_e2e::{measure, run_workload, spec, suite, RunArgs};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "\
e2e --workload NAME --seed N --seconds S --trace 0|1 [--structure-seed K] [--smoke] [--spans FILE]
        one run of one workload; the last line of stdout is the result object
e2e run [--seed S] [--runs R] [--seconds S] [--structure-seed K] [--out DIR] [--smoke]
        every workload, R end-to-end runs (seeds S..S+R) and one traced run each,
        every run a fresh process; writes DIR/e2e.json and DIR/trace-<workload>.json
e2e compare A.json B.json
        per workload and end-to-end metric: medians, quartiles, how much worse B is;
        exits 1 on a regression beyond a bound or an unresolved metric
e2e manifest
        prints BENCHMARK.json as generated from the tables in src/spec.rs";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        // Child roles: `p3c_cli`'s own parser and runner. `worker …`
        // is the argv the process backend spawns its workers with;
        // `p3c …` is the whole CLI, for the `cli.*` metrics.
        Some("worker") => cli(&args),
        Some("p3c") => cli(&args[1..]),
        Some("run") => suite::SuiteArgs::parse(&args[1..]).and_then(|a| suite::run(&a)),
        Some("compare") => match &args[1..] {
            [a, b] => suite::compare(Path::new(a), Path::new(b)),
            _ => Err("compare takes two e2e.json files".to_string()),
        },
        Some("manifest") => {
            print!("{}", spec::manifest_json());
            Ok(true)
        }
        Some("--help" | "-h" | "help") | None => {
            println!("{USAGE}");
            Ok(true)
        }
        Some(_) => RunArgs::parse(&args).and_then(|a| {
            let report = run_workload(&a)?;
            for failure in &report.failures {
                eprintln!("failed: {failure}");
            }
            println!("{}", measure::result_line(&report, a.trace));
            Ok(true)
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Runs `args` as a `p3c` command line.
fn cli(args: &[String]) -> Result<bool, String> {
    let parsed = p3c_cli::args::parse(args).map_err(|e| e.to_string())?;
    let text = p3c_cli::execute(&parsed).map_err(|e| e.to_string())?;
    print!("{text}");
    Ok(true)
}
