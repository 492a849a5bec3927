//! `p3c cluster` says so on stderr when core generation hit the
//! `max_candidates_per_level` safety valve (unit-tested beside
//! `truncation_warning` in `run.rs`). Multi-level candidate collection
//! must never be the reason: at this shape it used to grow an unproven
//! level 5 past the default cap of 100 000 and return a different model
//! than the serial path, behind the warning.

use std::process::Command;

fn cluster(algorithm: &str) -> (String, String) {
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
fn mr_light_is_silent_and_prints_what_light_prints() {
    let (mr, mr_stderr) = cluster("mr-light");
    let (serial, serial_stderr) = cluster("light");
    assert_eq!(mr_stderr, "");
    assert_eq!(serial_stderr, "");
    assert!(serial.contains("E4SC vs ground truth"));
    // Same clusters, same E4SC: only the leading algorithm name differs.
    assert_eq!(
        mr.strip_prefix("mr-light:").expect("algorithm name first"),
        serial.strip_prefix("light:").expect("algorithm name first")
    );
}
