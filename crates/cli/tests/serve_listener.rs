//! `serve_listener` under connection churn: a session that has ended is
//! joined at the next accept, so its thread stack does not stay mapped
//! until shutdown.
//!
//! This is its own test binary because the check reads `VmSize` from
//! `/proc/self/status`, a per-process figure that tests running side by
//! side in one process would move.

#![cfg(target_os = "linux")]

use p3c_cli::serve::{ctl_send, serve_listener, ServeOptions};
use std::io::Read;
use std::net::{Shutdown, TcpListener, TcpStream};

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

#[test]
fn a_thousand_finished_sessions_leave_the_address_space_flat() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = std::thread::spawn(move || serve_listener(&ServeOptions::default(), listener));

    // Let the allocator's arenas and the thread-stack cache settle first.
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
