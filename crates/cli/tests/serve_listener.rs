//! `serve_listener` under connection churn: a session that has ended is
//! joined at the next accept, so its thread stack does not stay mapped
//! until shutdown.
//!
//! This is its own test binary because the check reads `VmSize` from
//! `/proc/self/status`, a per-process figure that tests running side by
//! side in one process would move.
//!
//! `VmSize` also counts glibc malloc arenas: each one reserves 64 MiB of
//! address space, and a session thread that starts while another is
//! still running may get a new one. So the test re-runs itself as a
//! child process with `MALLOC_ARENA_MAX=1`, set in the child's
//! environment only, where every thread shares one arena and what the
//! figure can still grow by is the thread stacks that were never joined
//! (2 MiB each).

#![cfg(target_os = "linux")]

use p3c_cli::serve::{ctl_send, serve_listener, ServeOptions};
use std::io::Read;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::process::Command;

/// The process's virtual memory size, in KiB.
fn vm_size_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status
        .lines()
        .find(|l| l.starts_with("VmSize:"))
        .expect("VmSize in /proc/self/status");
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

/// Opens a session and ends it: the client half-closes, the session
/// reads EOF and returns, and the server's close reaches the client as
/// EOF, so the session has ended before this returns.
fn connect_and_close(addr: &str) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "{rest:?}");
}

const TEST_NAME: &str = "a_thousand_finished_sessions_leave_the_address_space_flat";

#[test]
fn a_thousand_finished_sessions_leave_the_address_space_flat() {
    if std::env::var("MALLOC_ARENA_MAX").as_deref() != Ok("1") {
        let child = Command::new(std::env::current_exe().unwrap())
            .args([TEST_NAME, "--exact", "--nocapture", "--test-threads=1"])
            .env("MALLOC_ARENA_MAX", "1")
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&child.stdout);
        assert!(
            child.status.success(),
            "child run failed:\n{stdout}{}",
            String::from_utf8_lossy(&child.stderr)
        );
        assert!(stdout.contains("1 passed"), "child ran no test:\n{stdout}");
        return;
    }
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = std::thread::spawn(move || serve_listener(&ServeOptions::default(), listener));

    // Let the thread-stack cache settle first.
    for _ in 0..16 {
        connect_and_close(&addr);
    }
    let before = vm_size_kib();
    for _ in 0..1000 {
        connect_and_close(&addr);
    }
    let grown = vm_size_kib().saturating_sub(before);

    // The server still answers.
    let out = ctl_send(&addr, &["create".to_string(), "a".to_string()]).unwrap();
    assert_eq!(out, "created a\n");
    assert!(
        grown < 64 * 1024,
        "VmSize grew by {grown} KiB over 1000 finished sessions"
    );
    let out = ctl_send(&addr, &["shutdown".to_string()]).unwrap();
    assert!(out.contains("shutting down"), "{out}");
    server.join().unwrap().unwrap();
}
