//! `p3c serve` — the incremental clustering service behind a line
//! protocol, plus `p3c ctl`, its one-shot TCP client.
//!
//! The server hosts a [`ClusterService`] of [`IncrementalLight`]
//! tenants over one shared, optionally budgeted [`DatasetStore`]. Two
//! transports speak the same protocol:
//!
//! * **stdin mode** (default): one command per line on stdin, one
//!   response block on stdout — scriptable with a heredoc, which is how
//!   the CI smoke leg drives it.
//! * **TCP mode** (`--listen ADDR`): each connection sends command
//!   lines and reads response blocks terminated by a lone `.` line;
//!   `p3c ctl --connect ADDR -- <command…>` wraps one round trip.
//!
//! Commands: `create`, `append`, `retract`, `recluster`, `verify`,
//! `stats`, `drop`, `quit`, `shutdown` — see [`PROTOCOL_HELP`].

use crate::args::{parse_alpha, SyntheticArgs};
use p3c_core::config::P3cParams;
use p3c_core::incremental::IncrementalLight;
use p3c_core::p3cplus::P3cPlusLight;
use p3c_datagen::generate;
use p3c_dataset::bytes::Fnv1a;
use p3c_dataset::{persist, Clustering};
use p3c_mapreduce::{ClusterService, DatasetStore};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Options of the `serve` subcommand.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServeOptions {
    /// TCP address to listen on; `None` = stdin mode.
    pub listen: Option<String>,
    /// Byte budget of the shared dataset store (LRU spill below it).
    pub cache_budget: Option<usize>,
    /// Byte budget admission imposes on concurrent re-cluster jobs.
    pub job_budget: Option<usize>,
    /// Worker threads for the clustering kernels.
    pub threads: Option<usize>,
    /// Per-connection TCP read timeout; `None` uses
    /// [`DEFAULT_READ_TIMEOUT`]. A client that stays silent longer is
    /// disconnected so an abandoned socket cannot pin its thread (and
    /// the tenant locks its commands would take) forever.
    pub read_timeout: Option<std::time::Duration>,
    /// Durability directory: every mutation is journaled under it and
    /// hosted tenants are recovered on startup. `None` = volatile.
    pub data_dir: Option<String>,
    /// Snapshot a tenant after this many journal records, truncating
    /// its journal. `None` uses [`DEFAULT_SNAPSHOT_EVERY`];
    /// `Some(0)` journals without ever snapshotting.
    pub snapshot_every: Option<u64>,
}

/// Read timeout applied to TCP sessions unless overridden.
pub const DEFAULT_READ_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(300);

/// Journal records between snapshots in durable mode unless overridden
/// — also the bound on how many records a restart replays per tenant.
pub const DEFAULT_SNAPSHOT_EVERY: u64 = 64;

/// Longest accepted command line on a TCP session. The protocol is
/// line-oriented with short commands; without a bound, one client
/// sending an endless unterminated line would grow the server's buffer
/// without limit.
pub const MAX_LINE_LEN: usize = 64 * 1024;

/// Protocol summary printed by the `help` command.
pub const PROTOCOL_HELP: &str = "\
commands:
  create NAME [--alpha A]        host a new dataset
  append NAME --synthetic NxD [--clusters K] [--noise F] [--seed S]
  append NAME --file PATH        append a normalized text dataset
  retract NAME ID                retract an appended block by id
  recluster NAME                 re-cluster incrementally
  verify NAME                    recluster + from-scratch batch, compare
  stats [NAME]                   service/store or per-dataset counters
  fingerprint NAME               fingerprint of the last published model
  drop NAME                      remove a dataset and its blocks
  quit                           end this session
  shutdown                       stop the server (TCP mode)";

/// What the session loop should do after one command.
enum Reply {
    /// Print/send this response and continue.
    Text(String),
    /// End this session (stdin: stop reading; TCP: close connection).
    Quit,
    /// Stop the whole server.
    Shutdown,
}

/// The service with the base parameters tenants are created from.
struct ServerState {
    service: ClusterService<IncrementalLight>,
    base_params: P3cParams,
}

impl ServerState {
    /// Builds the service; in durable mode (`--data-dir`) this also
    /// recovers every persisted tenant from its snapshot + journal tail
    /// and reports the recovery on stderr before any command is served.
    fn new(opts: &ServeOptions) -> std::io::Result<Self> {
        let store = Arc::new(match opts.cache_budget {
            Some(budget) => DatasetStore::with_budget(budget),
            None => DatasetStore::new(),
        });
        let mut base_params = P3cParams::default();
        if let Some(t) = opts.threads {
            base_params.threads = t;
        }
        let service = match &opts.data_dir {
            None => ClusterService::new(store, opts.job_budget),
            Some(dir) => {
                let every = opts.snapshot_every.unwrap_or(DEFAULT_SNAPSHOT_EVERY);
                let service = ClusterService::with_durability(
                    store,
                    opts.job_budget,
                    std::path::Path::new(dir),
                    every,
                )?;
                let report = service.recover().map_err(|e| {
                    std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
                })?;
                eprintln!(
                    "p3c serve: recovered {} tenant(s) from {dir} \
                     ({} snapshot(s) loaded, {} journal record(s) replayed)",
                    report.tenants, report.snapshots_loaded, report.records_replayed
                );
                service
            }
        };
        Ok(Self {
            service,
            base_params,
        })
    }
}

/// Block ids are `u64` end to end; parsing through `usize` would
/// truncate ids above 2³²−1 on 32-bit targets.
fn parse_u64(v: &str, what: &str) -> Result<u64, String> {
    v.parse().map_err(|_| format!("bad {what} '{v}'"))
}

fn next_val<'a>(it: &mut impl Iterator<Item = &'a str>, flag: &str) -> Result<&'a str, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

/// FNV-1a over a canonical byte rendering of a clustering — a compact
/// fingerprint two shells can compare for the byte-identity contract.
fn fingerprint(clustering: &Clustering) -> u64 {
    let mut hash = Fnv1a::new();
    for cluster in &clustering.clusters {
        for &p in &cluster.points {
            hash.write_u64(p as u64);
        }
        for &a in &cluster.attributes {
            hash.write_u64(a as u64);
        }
        for iv in &cluster.intervals {
            hash.write_u64(iv.attr as u64);
            hash.write_u64(iv.lo.to_bits());
            hash.write_u64(iv.hi.to_bits());
        }
        hash.write(b"|");
    }
    for &o in &clustering.outliers {
        hash.write_u64(o as u64);
    }
    hash.finish()
}

fn cmd_create(state: &ServerState, name: &str, rest: &[&str]) -> Result<String, String> {
    let mut params = state.base_params.clone();
    let mut it = rest.iter().copied();
    while let Some(flag) = it.next() {
        match flag {
            "--alpha" => {
                params.alpha_poisson = parse_alpha(next_val(&mut it, flag)?).map_err(|e| e.0)?;
            }
            other => return Err(format!("unknown create flag '{other}'")),
        }
    }
    state
        .service
        .create(name, IncrementalLight::new(name, params))
        .map_err(|e| e.to_string())?;
    Ok(format!("created {name}"))
}

fn cmd_append(state: &ServerState, name: &str, rest: &[&str]) -> Result<String, String> {
    let mut synthetic = SyntheticArgs::default();
    let mut file = None;
    let mut seed = 0u64;
    let mut it = rest.iter().copied();
    while let Some(flag) = it.next() {
        if synthetic.parse_flag(flag, &mut it).map_err(|e| e.0)? {
            continue;
        }
        match flag {
            "--file" => file = Some(next_val(&mut it, flag)?.to_string()),
            "--seed" => {
                let v = next_val(&mut it, flag)?;
                seed = v.parse().map_err(|_| format!("bad --seed '{v}'"))?;
            }
            other => return Err(format!("unknown append flag '{other}'")),
        }
    }
    let block = match (synthetic.spec(seed), file) {
        (Some(spec), None) => generate(&spec).dataset,
        (None, Some(path)) => {
            let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
            let ds = persist::from_text(&text).map_err(|e| e.to_string())?;
            if !ds.is_normalized() {
                return Err(format!(
                    "{path}: values outside [0,1] — appends must share one \
                     normalization, so pre-normalize the whole stream"
                ));
            }
            ds
        }
        _ => return Err("append needs exactly one of --synthetic NxD or --file PATH".into()),
    };
    let rows = block.len();
    let id = state
        .service
        .append(name, block)
        .map_err(|e| e.to_string())?;
    Ok(format!("appended block {id} ({rows} rows) to {name}"))
}

fn cmd_recluster(state: &ServerState, name: &str) -> Result<String, String> {
    let outcome = state.service.recluster(name).map_err(|e| e.to_string())?;
    let n = state
        .service
        .with_tenant(name, |t| t.total_rows())
        .map_err(|e| e.to_string())?;
    let clustering = &outcome.result.clustering;
    Ok(format!(
        "{name}: {} clusters, {} outliers, n={n} path={} fingerprint={:016x}",
        clustering.num_clusters(),
        clustering.outliers.len(),
        outcome.path.label(),
        fingerprint(clustering)
    ))
}

fn cmd_verify(state: &ServerState, name: &str) -> Result<String, String> {
    let outcome = state.service.recluster(name).map_err(|e| e.to_string())?;
    let (params, cumulative) = state
        .service
        .with_tenant(name, |t| {
            (t.params().clone(), t.materialize(state.service.store()))
        })
        .map_err(|e| e.to_string())?;
    let cumulative = cumulative?;
    let batch = P3cPlusLight::new(params).cluster(&cumulative);
    let identical =
        outcome.result.clustering == batch.clustering && outcome.result.cores == batch.cores;
    if identical {
        Ok(format!(
            "{name}: incremental and batch models identical (fingerprint {:016x}, path={})",
            fingerprint(&batch.clustering),
            outcome.path.label()
        ))
    } else {
        Err(format!(
            "{name}: MISMATCH — incremental {:016x} vs batch {:016x}",
            fingerprint(&outcome.result.clustering),
            fingerprint(&batch.clustering)
        ))
    }
}

fn cmd_stats(state: &ServerState, name: Option<&str>) -> Result<String, String> {
    match name {
        Some(name) => state
            .service
            .with_tenant(name, |t| {
                let s = t.stats();
                format!(
                    "{name}: n={} blocks={} state_bytes={} appends={} retracts={} \
                     reclusters={} fast={} full={} hist_rebuilds={} \
                     support_scans={} cached_levels={}",
                    t.total_rows(),
                    t.block_ids().len(),
                    t.mem_bytes(),
                    s.appends,
                    s.retracts,
                    s.reclusters,
                    s.fast_reclusters,
                    s.full_reclusters,
                    s.hist_rebuilds,
                    s.support_scans,
                    s.cached_levels
                )
            })
            .map_err(|e| e.to_string()),
        None => {
            let m = state.service.metrics();
            let s = state.service.store().stats();
            Ok(format!(
                "service: datasets={} appends={} retracts={} reclusters={} admission_waits={}\n\
                 store: mem_bytes={} hits={} misses={} spills={} spill_loads={} evictions={}",
                state.service.names().len(),
                m.appends,
                m.retracts,
                m.reclusters,
                m.admission_waits,
                state.service.store().mem_bytes(),
                s.hits,
                s.misses,
                s.spills,
                s.spill_loads,
                s.evictions
            ))
        }
    }
}

/// Executes one protocol line against the service.
fn handle_line(state: &ServerState, line: &str) -> Reply {
    let words: Vec<&str> = line.split_whitespace().collect();
    let result = match words.as_slice() {
        [] | ["#", ..] => return Reply::Text(String::new()),
        ["quit"] | ["exit"] => return Reply::Quit,
        ["shutdown"] => return Reply::Shutdown,
        ["help"] => Ok(PROTOCOL_HELP.to_string()),
        ["create", name, rest @ ..] => cmd_create(state, name, rest),
        ["append", name, rest @ ..] => cmd_append(state, name, rest),
        ["retract", name, id] => {
            parse_u64(id, "block id").and_then(|id| match state.service.retract(name, id) {
                Ok(true) => Ok(format!("retracted block {id} from {name}")),
                Ok(false) => Err(format!("no live block {id} in {name}")),
                Err(e) => Err(e.to_string()),
            })
        }
        ["recluster", name] => cmd_recluster(state, name),
        ["verify", name] => cmd_verify(state, name),
        ["stats"] => cmd_stats(state, None),
        ["stats", name] => cmd_stats(state, Some(name)),
        ["fingerprint", name] => match state.service.last_model(name) {
            Some(model) => Ok(format!(
                "{name}: fingerprint={:016x} path={}",
                fingerprint(&model.result.clustering),
                model.path.label()
            )),
            None => Err(format!("no published model for {name} (run recluster)")),
        },
        ["drop", name] => state
            .service
            .drop_dataset(name)
            .map(|()| format!("dropped {name}"))
            .map_err(|e| e.to_string()),
        [cmd, ..] => Err(format!("unknown command '{cmd}' (try `help`)")),
    };
    match result {
        Ok(text) => Reply::Text(text),
        Err(msg) => Reply::Text(format!("error: {msg}")),
    }
}

/// Runs the service in stdin mode until EOF or `quit`; responses go
/// straight to stdout so heredoc scripting sees them in order.
pub fn serve_stdin(opts: &ServeOptions) -> std::io::Result<()> {
    let state = ServerState::new(opts)?;
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    for line in stdin.lock().lines() {
        let line = line?;
        // audit: lock-blocking-ok — single-threaded REPL: the stdin lock *is* the serve loop, and command I/O under it is its job (§15).
        match handle_line(&state, &line) {
            Reply::Text(text) if text.is_empty() => {}
            Reply::Text(text) => {
                let mut out = stdout.lock();
                writeln!(out, "{text}")?;
                // audit: lock-blocking-ok — flushing the REPL's own output stream; nothing is ever locked under `cli.stdout`.
                out.flush()?;
            }
            Reply::Quit | Reply::Shutdown => break,
        }
    }
    Ok(())
}

/// First pause after a failed `accept`; each further failure in a row
/// doubles it, up to [`ACCEPT_BACKOFF_MAX`].
const ACCEPT_BACKOFF_MIN: std::time::Duration = std::time::Duration::from_millis(1);

/// Longest pause between `accept` retries.
const ACCEPT_BACKOFF_MAX: std::time::Duration = std::time::Duration::from_millis(100);

/// Runs the service on an already-bound listener until a `shutdown`
/// command arrives. Each response block is terminated by a lone `.`.
///
/// Each accept joins the sessions that have ended, so a finished
/// session's thread stack is released then, not at shutdown. A failed
/// accept (`EMFILE`, say) is logged to stderr and retried after a pause
/// that starts at 1 ms, doubles per failure in a row up to 100 ms, and
/// resets on the next success; it never ends the server.
pub fn serve_listener(opts: &ServeOptions, listener: TcpListener) -> std::io::Result<()> {
    let state = Arc::new(ServerState::new(opts)?);
    let stop = Arc::new(AtomicBool::new(false));
    let addr = listener.local_addr()?;
    let mut sessions: Vec<JoinHandle<()>> = Vec::new();
    let mut backoff = ACCEPT_BACKOFF_MIN;
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let (finished, live): (Vec<_>, Vec<_>) =
            sessions.into_iter().partition(JoinHandle::is_finished);
        sessions = live;
        for session in finished {
            let _ = session.join();
        }
        let stream = match stream {
            Ok(stream) => {
                backoff = ACCEPT_BACKOFF_MIN;
                stream
            }
            Err(e) => {
                eprintln!(
                    "p3c serve: accept failed: {e}; retrying in {} ms",
                    backoff.as_millis()
                );
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(ACCEPT_BACKOFF_MAX);
                continue;
            }
        };
        let session_state = Arc::clone(&state);
        let session_stop = Arc::clone(&stop);
        let timeout = opts.read_timeout.unwrap_or(DEFAULT_READ_TIMEOUT);
        sessions.push(std::thread::spawn(move || {
            let _ = serve_connection(&session_state, &session_stop, stream, addr, timeout);
        }));
        if stop.load(Ordering::SeqCst) {
            break;
        }
    }
    for session in sessions {
        let _ = session.join();
    }
    Ok(())
}

/// Reads one `\n`-terminated line of at most `max` bytes. `Ok(None)`
/// is EOF; a line that hits the bound without a terminator is an
/// `InvalidData` error (the caller disconnects rather than buffer an
/// unbounded line).
fn read_bounded_line<R: BufRead>(reader: &mut R, max: usize) -> std::io::Result<Option<String>> {
    let mut buf = Vec::new();
    // Re-borrow so `take` consumes `&mut R` (itself a Read impl), not R.
    let mut limited = <&mut R as std::io::Read>::take(&mut *reader, max as u64 + 1);
    let n = limited.read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(None);
    }
    if buf.last() != Some(&b'\n') && n > max {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("command line exceeds {max} bytes"),
        ));
    }
    while buf.last().is_some_and(|&b| b == b'\n' || b == b'\r') {
        buf.pop();
    }
    String::from_utf8(buf).map(Some).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "command line is not UTF-8")
    })
}

fn serve_connection(
    state: &ServerState,
    stop: &AtomicBool,
    stream: TcpStream,
    addr: std::net::SocketAddr,
    timeout: std::time::Duration,
) -> std::io::Result<()> {
    // A silent peer trips the timeout, errors the next read, and the
    // session thread exits instead of parking forever.
    stream.set_read_timeout(Some(timeout))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    loop {
        let line = match read_bounded_line(&mut reader, MAX_LINE_LEN) {
            Ok(Some(line)) => line,
            Ok(None) => break,
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                // Tell the client why before hanging up.
                let _ = writeln!(writer, "error: {e}\n.");
                let _ = writer.flush();
                return Err(e);
            }
            Err(e) => return Err(e),
        };
        match handle_line(state, &line) {
            Reply::Text(text) => {
                if text.is_empty() {
                    writeln!(writer, ".")?;
                } else {
                    writeln!(writer, "{text}\n.")?;
                }
                writer.flush()?;
            }
            Reply::Quit => break,
            Reply::Shutdown => {
                writeln!(writer, "shutting down\n.")?;
                writer.flush()?;
                stop.store(true, Ordering::SeqCst);
                // Unblock the accept loop.
                let _ = TcpStream::connect(addr);
                break;
            }
        }
    }
    Ok(())
}

/// Binds `addr` and serves until shutdown (the `serve --listen` path).
pub fn serve_tcp(opts: &ServeOptions, addr: &str) -> std::io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    eprintln!("p3c serve: listening on {}", listener.local_addr()?);
    serve_listener(opts, listener)
}

/// One `ctl` round trip: sends `words` as a single command line and
/// returns the response block (without the `.` terminator).
pub fn ctl_send(connect: &str, words: &[String]) -> std::io::Result<String> {
    let stream = TcpStream::connect(connect)?;
    let mut writer = stream.try_clone()?;
    writeln!(writer, "{}", words.join(" "))?;
    writer.flush()?;
    let reader = BufReader::new(stream);
    let mut response = String::new();
    for line in reader.lines() {
        let line = line?;
        if line == "." {
            break;
        }
        response.push_str(&line);
        response.push('\n');
    }
    Ok(response)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> ServerState {
        ServerState::new(&ServeOptions::default()).unwrap()
    }

    fn text(state: &ServerState, line: &str) -> String {
        match handle_line(state, line) {
            Reply::Text(t) => t,
            _ => panic!("expected text reply for {line:?}"),
        }
    }

    #[test]
    fn create_append_recluster_verify_roundtrip() {
        let state = state();
        assert_eq!(text(&state, "create t"), "created t");
        assert!(text(&state, "create t").contains("already exists"));
        let out = text(&state, "append t --synthetic 1200x8 --seed 3 --clusters 2");
        assert!(out.contains("appended block 0 (1200 rows) to t"), "{out}");
        let out = text(&state, "recluster t");
        assert!(out.contains("clusters") && out.contains("n=1200"), "{out}");
        assert!(out.contains("path=full"), "{out}");
        let out = text(&state, "append t --synthetic 600x8 --seed 4 --clusters 2");
        assert!(out.contains("appended block 1"), "{out}");
        let out = text(&state, "verify t");
        assert!(out.contains("identical"), "{out}");
        let out = text(&state, "retract t 0");
        assert!(out.contains("retracted block 0"), "{out}");
        let out = text(&state, "verify t");
        assert!(out.contains("identical"), "{out}");
        let out = text(&state, "stats t");
        assert!(out.contains("n=600") && out.contains("retracts=1"), "{out}");
        let out = text(&state, "stats");
        assert!(out.contains("service: datasets=1"), "{out}");
        assert_eq!(text(&state, "drop t"), "dropped t");
        assert!(text(&state, "recluster t").contains("unknown dataset"));
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let state = state();
        assert!(text(&state, "recluster nope").starts_with("error:"));
        assert!(text(&state, "append nope --synthetic 10x2").starts_with("error:"));
        assert!(text(&state, "frobnicate").contains("unknown command"));
        assert!(text(&state, "create t --alpha banana").starts_with("error:"));
        // Values the generator or the pipeline would refuse answer an
        // error and keep the session.
        for line in [
            "create t --alpha 0",
            "create t --alpha 1.5",
            "create t --alpha nan",
        ] {
            assert!(
                text(&state, line).starts_with("error: bad --alpha"),
                "{line}"
            );
        }
        text(&state, "create t");
        assert!(text(&state, "retract t 7").contains("no live block"));
        assert!(text(&state, "append t --synthetic 10x2 --file x").starts_with("error:"));
        for line in [
            "append t --synthetic 100x0",
            "append t --synthetic 100x1",
            "append t --synthetic 100x4 --clusters 0",
            "append t --synthetic 100x4 -k 0",
            "append t --synthetic 100x4 --noise 7",
            "append t --synthetic 100x4 --noise nan",
        ] {
            assert!(text(&state, line).starts_with("error: bad "), "{line}");
        }
        let out = text(&state, "append t --synthetic 600x4 --clusters 1 --noise 1");
        assert!(out.contains("appended block 0 (600 rows)"), "{out}");
    }

    #[test]
    fn quit_and_shutdown_replies() {
        let state = state();
        assert!(matches!(handle_line(&state, "quit"), Reply::Quit));
        assert!(matches!(handle_line(&state, "exit"), Reply::Quit));
        assert!(matches!(handle_line(&state, "shutdown"), Reply::Shutdown));
        assert!(matches!(handle_line(&state, ""), Reply::Text(t) if t.is_empty()));
        assert!(matches!(handle_line(&state, "# comment"), Reply::Text(t) if t.is_empty()));
    }

    #[test]
    fn bounded_line_reader_accepts_short_and_rejects_long() {
        use std::io::Cursor;
        let mut r = Cursor::new(b"hello\nworld\r\n".to_vec());
        assert_eq!(read_bounded_line(&mut r, 16).unwrap().unwrap(), "hello");
        assert_eq!(read_bounded_line(&mut r, 16).unwrap().unwrap(), "world");
        assert!(read_bounded_line(&mut r, 16).unwrap().is_none());

        // A line exactly at the bound still parses; one past it errors.
        let mut r = Cursor::new([vec![b'a'; 16], b"\n".to_vec()].concat());
        assert_eq!(
            read_bounded_line(&mut r, 16).unwrap().unwrap(),
            "a".repeat(16)
        );
        let mut r = Cursor::new(vec![b'a'; 17]); // unterminated and too long
        let err = read_bounded_line(&mut r, 16).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn tcp_session_disconnects_on_oversized_line() {
        use std::io::Read;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let opts = ServeOptions::default();
        let server = std::thread::spawn(move || serve_listener(&opts, listener));

        let stream = TcpStream::connect(&addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        // An unterminated line one past the bound: the server must send
        // an error block and hang up rather than buffer forever.
        writer.write_all(&vec![b'x'; MAX_LINE_LEN + 1]).unwrap();
        writer.flush().unwrap();
        let mut response = String::new();
        let mut reader = BufReader::new(stream);
        reader.read_to_string(&mut response).unwrap(); // returns only on EOF
        assert!(
            response.contains("error: command line exceeds"),
            "{response}"
        );

        // The listener is still healthy for well-behaved clients.
        let out = ctl_send(&addr, &["create".to_string(), "a".to_string()]).unwrap();
        assert_eq!(out, "created a\n");
        let out = ctl_send(&addr, &["shutdown".to_string()]).unwrap();
        assert!(out.contains("shutting down"), "{out}");
        server.join().unwrap().unwrap();
    }

    #[test]
    fn tcp_session_disconnects_an_idle_client() {
        use std::io::Read;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let opts = ServeOptions {
            read_timeout: Some(std::time::Duration::from_millis(50)),
            ..ServeOptions::default()
        };
        let server = std::thread::spawn(move || serve_listener(&opts, listener));

        // Connect and go silent: the read timeout must end the session
        // (observed as EOF on our side) instead of pinning it forever.
        let stream = TcpStream::connect(&addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut response = String::new();
        reader.read_to_string(&mut response).unwrap();
        assert!(response.is_empty(), "{response}");

        let out = ctl_send(&addr, &["shutdown".to_string()]).unwrap();
        assert!(out.contains("shutting down"), "{out}");
        server.join().unwrap().unwrap();
    }

    #[test]
    fn fingerprint_distinguishes_clusterings() {
        let a = Clustering::new(Vec::new(), vec![0, 1, 2]);
        let b = Clustering::new(Vec::new(), vec![0, 1, 3]);
        assert_ne!(fingerprint(&a), fingerprint(&b));
        assert_eq!(fingerprint(&a), fingerprint(&a.clone()));
    }

    #[test]
    fn fingerprint_command_reads_published_model_without_reclustering() {
        let state = state();
        text(&state, "create t");
        text(&state, "append t --synthetic 800x6 --seed 5");
        let out = text(&state, "fingerprint t");
        assert!(out.starts_with("error: no published model"), "{out}");
        let reclustered = text(&state, "recluster t");
        let out = text(&state, "fingerprint t");
        let fp = |s: &str| {
            let at = s.find("fingerprint=").expect(s) + "fingerprint=".len();
            s[at..at + 16].to_string()
        };
        assert_eq!(fp(&out), fp(&reclustered), "{out} vs {reclustered}");
        let reclusters_before = state.service.metrics().reclusters;
        text(&state, "fingerprint t");
        assert_eq!(
            state.service.metrics().reclusters,
            reclusters_before,
            "fingerprint must read the pinned model, not re-cluster"
        );
    }

    #[test]
    fn huge_block_ids_parse_as_u64() {
        let state = state();
        text(&state, "create t");
        // Regression: ids used to round-trip through usize; an id above
        // 2^32-1 must parse (and report "no live block", not a parse
        // error) on every target.
        let out = text(&state, "retract t 18446744073709551615");
        assert!(out.contains("no live block 18446744073709551615"), "{out}");
        assert!(text(&state, "retract t -3").starts_with("error: bad block id"));
    }

    #[test]
    fn durable_server_recovers_tenants_across_restarts() {
        let dir = std::env::temp_dir().join(format!("p3c-serve-recovery-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = ServeOptions {
            data_dir: Some(dir.to_string_lossy().into_owned()),
            snapshot_every: Some(2),
            ..ServeOptions::default()
        };
        let pre_kill = {
            let state = ServerState::new(&opts).unwrap();
            text(&state, "create t");
            text(&state, "append t --synthetic 500x6 --seed 1");
            text(&state, "append t --synthetic 300x6 --seed 2");
            text(&state, "append t --synthetic 200x6 --seed 3");
            text(&state, "recluster t")
            // The state is dropped without any shutdown handshake —
            // exactly what a SIGKILL leaves behind.
        };
        let state = ServerState::new(&opts).unwrap();
        assert_eq!(state.service.names(), vec!["t".to_string()]);
        let post = text(&state, "recluster t");
        let fp = |s: &str| {
            let at = s.find("fingerprint=").expect(s) + "fingerprint=".len();
            s[at..at + 16].to_string()
        };
        assert_eq!(fp(&post), fp(&pre_kill), "{post} vs {pre_kill}");
        let out = text(&state, "verify t");
        assert!(out.contains("identical"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tcp_server_round_trips_and_shuts_down() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let opts = ServeOptions {
            cache_budget: Some(200_000),
            ..ServeOptions::default()
        };
        let server = std::thread::spawn(move || serve_listener(&opts, listener));
        let send = |words: &[&str]| {
            let words: Vec<String> = words.iter().map(|s| s.to_string()).collect();
            ctl_send(&addr, &words).unwrap()
        };
        assert_eq!(send(&["create", "a"]), "created a\n");
        assert_eq!(send(&["create", "b"]), "created b\n");
        let out = send(&["append", "a", "--synthetic", "900x6", "--seed", "1"]);
        assert!(out.contains("appended block 0"), "{out}");
        let out = send(&["append", "b", "--synthetic", "900x6", "--seed", "2"]);
        assert!(out.contains("appended block 0"), "{out}");
        let out = send(&["verify", "a"]);
        assert!(out.contains("identical"), "{out}");
        let out = send(&["stats"]);
        assert!(out.contains("datasets=2"), "{out}");
        let out = send(&["shutdown"]);
        assert!(out.contains("shutting down"), "{out}");
        server.join().unwrap().unwrap();
    }
}
