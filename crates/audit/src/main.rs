//! Workspace determinism auditor.
//!
//! Walks the workspace sources and enforces the invariant catalog of
//! DESIGN.md §10: no hash-ordered iteration on emitted paths, no
//! panics in error-propagating engine code, no wall-clock or entropy
//! dependence in result-affecting code, disciplined atomic orderings,
//! order-exact float reductions, `unsafe` only where the kernels call
//! their AVX2 twins, and a dependency graph made of path crates only
//! ([`manifests`]). Violations can be waived inline
//! with `// audit: <key> — <reason>`; stale or unjustified waivers are
//! violations themselves.
//!
//! Run with `cargo run -p p3c-audit`. Exits 1 if any violation stands,
//! so CI can gate on it (see ci.sh tier 2).

mod lexer;
mod locks;
mod manifests;
mod rules;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Directories under the repo root that contain audited sources.
const ROOTS: &[&str] = &["crates", "src"];

fn main() -> ExitCode {
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("audit crate lives two levels under the repo root");

    let mut files = Vec::new();
    for root in ROOTS {
        collect_rs_files(&repo_root.join(root), &mut files);
    }
    files.sort();

    // Lex everything first: the lock-discipline pass is whole-workspace
    // (function summaries cross files), so per-file rule checks run only
    // after its findings are known.
    let mut scans = Vec::new();
    for path in &files {
        let source = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("p3c-audit: cannot read {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        let rel = path
            .strip_prefix(&repo_root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        scans.push((rel, lexer::scan(&source)));
    }

    let (defs, table_problems) = match locks::load_hierarchy(&repo_root.join("DESIGN.md")) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("p3c-audit: {e}");
            return ExitCode::FAILURE;
        }
    };
    let scan_refs: Vec<(String, &lexer::FileScan)> =
        scans.iter().map(|(rel, s)| (rel.clone(), s)).collect();
    let mut lock_findings = locks::analyze(&defs, &table_problems, &scan_refs);
    // Findings attributed to DESIGN.md itself (table inconsistencies,
    // acquisition-graph cycles) have no source line to waive on — they
    // surface directly.
    let mut violations: Vec<rules::Violation> = lock_findings
        .remove("DESIGN.md")
        .unwrap_or_default()
        .into_iter()
        .map(|f| rules::Violation {
            file: "DESIGN.md".to_string(),
            line: f.line,
            rule: f.rule,
            message: f.message,
        })
        .collect();

    let mut waivers_in_force = 0usize;
    for (rel, scan) in &scans {
        waivers_in_force += scan.waivers.len();
        let extra = lock_findings.get(rel).map(Vec::as_slice).unwrap_or(&[]);
        violations.extend(rules::check_file(rel, scan, extra));
    }

    violations.extend(manifest_violations(&repo_root));

    for v in &violations {
        println!("{}:{}: [{}] {}", v.file, v.line, v.rule, v.message);
    }
    println!(
        "p3c-audit: {} file(s) scanned, {} waiver(s), {} violation(s)",
        files.len(),
        waivers_in_force,
        violations.len()
    );
    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs the owned-dependency-graph rule over the root manifest, every
/// member's, and the benchmark package's. A directory under `crates/`
/// without a readable manifest checks as an empty one.
fn manifest_violations(repo_root: &Path) -> Vec<rules::Violation> {
    let read = |rel: &str| std::fs::read_to_string(repo_root.join(rel)).unwrap_or_default();
    let mut manifests = vec!["Cargo.toml".to_string(), "e2e/Cargo.toml".to_string()];
    for entry in std::fs::read_dir(repo_root.join("crates"))
        .into_iter()
        .flatten()
        .flatten()
    {
        manifests.push(format!(
            "crates/{}/Cargo.toml",
            entry.file_name().to_string_lossy()
        ));
    }
    manifests.sort();
    let workspace_paths = manifests::workspace_path_deps(&read("Cargo.toml"));
    manifests
        .iter()
        .flat_map(|rel| manifests::check_manifest(rel, &read(rel), &workspace_paths))
        .collect()
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('.') || name == "target" {
            continue;
        }
        if path.is_dir() {
            collect_rs_files(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}
