//! Worker host for the integration tests.
//!
//! Speaks the same argv contract as `p3c worker` (`worker --connect
//! HOST:PORT --id N`) but lives in the umbrella package, so `cargo test`
//! builds it automatically and the `tests/distributed_backend.rs` suite
//! can point `P3C_WORKER_BIN` at `CARGO_BIN_EXE_p3c_worker_harness`
//! without requiring a separately built CLI.
//!
//! Unlike `p3c worker`, this host can corrupt a partition on its way
//! through the real socket, which is how the suite reaches the master's
//! integrity paths. The trigger is the partition itself, so it needs no
//! flag or environment variable and concurrent tests cannot interfere: a
//! partition whose bytes start with one of the [`TAMPER_RULES`] markers
//! gets its last byte flipped in transit ([`TransitTap`]) — never in
//! what the worker stores.

use p3c_suite::mapreduce::distrib::wire::{OP_FETCH, OP_STORE};
use p3c_suite::mapreduce::distrib::{run_worker_tapped, TransitTap};
use std::process::exit;

/// `(marker, opcode, every time)`: which frames of a marked partition are
/// mangled — the `STORE` coming in or the `FETCH_OK` going out — and
/// whether only the first such frame this process sees, or all of them.
const TAMPER_RULES: [(&[u8], u8, bool); 4] = [
    (b"tamper:store-once", OP_STORE, false),
    (b"tamper:store-always", OP_STORE, true),
    (b"tamper:fetch-once", OP_FETCH, false),
    (b"tamper:fetch-always", OP_FETCH, true),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    if it.next().map(String::as_str) != Some("worker") {
        eprintln!("usage: p3c_worker_harness worker --connect HOST:PORT [--id N]");
        exit(2);
    }
    let mut connect: Option<String> = None;
    let mut id = 0u64;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--connect" => connect = it.next().cloned(),
            "--id" => {
                id = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--id needs an integer"))
            }
            other => die(&format!("unknown argument {other}")),
        }
    }
    let Some(addr) = connect else {
        die("worker needs --connect HOST:PORT");
    };
    let mut mangled = 0usize;
    let tap: &mut TransitTap<'_> = &mut |opcode, data| {
        let (_, _, always) = TAMPER_RULES
            .iter()
            .find(|(marker, on, _)| *on == opcode && data.starts_with(marker))?;
        mangled += 1;
        if mangled > 1 && !always {
            return None;
        }
        let mut bad = data.to_vec();
        *bad.last_mut()? ^= 0x01;
        Some(bad)
    };
    if let Err(e) = run_worker_tapped(&addr, id, tap) {
        eprintln!("worker {id}: {e}");
        exit(1);
    }
}

fn die(msg: &str) -> ! {
    eprintln!("p3c_worker_harness: {msg}");
    exit(2)
}
