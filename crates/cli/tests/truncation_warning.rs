//! `p3c cluster` must say so on stderr when core generation hit the
//! `max_candidates_per_level` safety valve — the model is then built
//! from a cut-off lattice — and must keep stdout free of the warning.

use std::process::Command;

fn cluster(algorithm: &str) -> (String, String) {
    // At this shape multi-level candidate collection grows level 5 past
    // the default cap of 100 000; the serial path proves level by level
    // and stays far below it.
    let out = Command::new(env!("CARGO_BIN_EXE_p3c"))
        .args(["cluster", "--synthetic", "5000x50", "-k", "5"])
        .args(["--noise", "0.1", "--seed", "7", "-e", "-a", algorithm])
        .env_remove("P3C_THREADS")
        .env_remove("P3C_BACKEND")
        .output()
        .expect("p3c binary runs");
    assert!(out.status.success(), "p3c failed: {out:?}");
    (
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        String::from_utf8(out.stderr).expect("utf-8 stderr"),
    )
}

#[test]
fn truncated_run_warns_on_stderr_only() {
    let (stdout, stderr) = cluster("mr-light");
    assert_eq!(
        stderr.lines().count(),
        1,
        "expected a one-line warning, got {stderr:?}"
    );
    assert!(stderr.starts_with("warning: core generation truncated 1 candidate level(s)"));
    assert!(stderr.contains("max_candidates_per_level = 100000"));
    assert!(!stdout.contains("warning"));
    assert!(stdout.contains("E4SC vs ground truth"));
}

#[test]
fn untruncated_run_is_silent() {
    let (stdout, stderr) = cluster("light");
    assert_eq!(stderr, "");
    assert!(stdout.contains("E4SC vs ground truth"));
}
