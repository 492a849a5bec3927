//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! experiments [--scale F] [--dims D] [--seed S] [--smoke] [--out DIR]
//!             [EXPERIMENT...]
//!
//! EXPERIMENT ∈ {fig1, fig4, fig5, fig6, fig7, huge, colon, bins, measures,
//!               stragglers, all}
//! ```
//!
//! Results are printed and written to `<out>/<id>.{json,md}`
//! (default `results/`).

use p3c_bench::{experiments, report::Report, Scale};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut scale = Scale::default();
    let mut out = PathBuf::from("results");
    let mut selected: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => scale.factor = parse_or_die(args.next(), "--scale"),
            "--dims" => scale.dims = parse_or_die(args.next(), "--dims"),
            "--seed" => scale.seed = parse_or_die(args.next(), "--seed"),
            "--smoke" => scale = Scale::smoke(),
            "--out" => {
                out = PathBuf::from(args.next().unwrap_or_else(|| die("--out needs a value")))
            }
            "--help" | "-h" => {
                print_help();
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => die(&format!("unknown flag {other}")),
            name => selected.push(name.to_string()),
        }
    }
    if selected.is_empty() || selected.iter().any(|s| s == "all") {
        selected = [
            "fig1",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "huge",
            "colon",
            "bins",
            "measures",
            "stragglers",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }

    eprintln!(
        "# P3C+-MR experiment suite — scale {:.2}, {} dims, seed {}",
        scale.factor, scale.dims, scale.seed
    );
    for name in &selected {
        let start = std::time::Instant::now();
        eprintln!("## running {name} …");
        let report: Report = match name.as_str() {
            "fig1" => experiments::fig1(&scale),
            "fig4" => experiments::fig4(&scale),
            "fig5" => experiments::fig5(&scale),
            "fig6" => experiments::fig6(&scale),
            "fig7" => experiments::fig7(&scale),
            "huge" => experiments::huge(&scale),
            "colon" => experiments::colon(&scale),
            "bins" => experiments::bins(&scale),
            "measures" => experiments::measures(&scale),
            "stragglers" => experiments::stragglers(&scale),
            other => die(&format!("unknown experiment {other}")),
        };
        println!("{}", report.to_markdown());
        if let Err(e) = report.write_to(&out) {
            eprintln!("warning: could not write report files: {e}");
        }
        eprintln!("## {name} done in {:.1}s", start.elapsed().as_secs_f64());
    }
    ExitCode::SUCCESS
}

fn parse_or_die<T: std::str::FromStr>(v: Option<String>, flag: &str) -> T {
    v.and_then(|s| s.parse().ok())
        .unwrap_or_else(|| die(&format!("{flag} needs a value")))
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!();
    print_help();
    std::process::exit(2);
}

fn print_help() {
    eprintln!(
        "usage: experiments [--scale F] [--dims D] [--seed S] [--smoke] [--out DIR] [EXPERIMENT...]\n\
         experiments: fig1 fig4 fig5 fig6 fig7 huge colon bins measures stragglers all (default: all)"
    );
}
