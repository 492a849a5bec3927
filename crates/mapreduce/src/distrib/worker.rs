//! The worker subprocess: a shuffle node serving the frame protocol.
//!
//! `p3c worker --connect <addr> --id <n>` lands here. The worker dials
//! the master, introduces itself with `HELLO`, and then serves frames
//! off its single duplex connection until `SHUTDOWN`, EOF, or an
//! injected `KILL`. All state is one [`ShuffleManager`] — shared nothing
//! with the master or its sibling workers; every byte that reaches a
//! reducer travelled through the socket.
//!
//! The worker is the storage hop of the integrity chain (DESIGN.md
//! §12): a `STORE` is hashed once, at the door, before it is
//! acknowledged, and the buffer the frame arrived in is kept as is; a
//! `FETCH` writes that buffer back out behind the checksum verified at
//! the door, without hashing or copying it again — the master re-hashes
//! what it receives.

use super::shuffle::{ShuffleError, ShuffleManager};
use super::wire::{
    read_frame, write_frame, write_frame_parts, ERR_CORRUPT, ERR_MALFORMED, ERR_NOT_FOUND,
    OP_DELETE_SID, OP_ERR, OP_FETCH, OP_FETCH_OK, OP_HELLO, OP_KILL, OP_PING, OP_PONG, OP_SHUTDOWN,
    OP_STORE, OP_STORE_OK,
};
use p3c_dataset::bytes::{self, DecodeError, Reader};
use std::io::{self, Write};
use std::net::TcpStream;

/// Exit code of a worker felled by an injected `KILL` frame.
pub const KILLED_EXIT_CODE: i32 = 17;

/// Bytes of `{sid, map, reduce, checksum}` in front of a `STORE`'s data.
const STORE_HEADER_LEN: usize = 32;

/// Test seam of [`run_worker_tapped`]: called with the opcode
/// (`OP_STORE` / `OP_FETCH`) and the partition bytes about to cross the
/// worker's socket — a `STORE`'s as received, before the door check; a
/// `FETCH_OK`'s as stored, before they are written. Returning `Some`
/// substitutes those bytes *in transit only*; what the worker stores is
/// never touched. This is how the integration tests mangle a partition
/// on a real socket; `p3c worker` runs [`run_worker`], which has no tap.
pub type TransitTap<'a> = dyn FnMut(u8, &[u8]) -> Option<Vec<u8>> + 'a;

/// Runs the worker loop: connect, `HELLO`, serve until told to stop.
///
/// Returns when the master sends `SHUTDOWN` or closes the connection;
/// propagates genuine socket errors. An injected `KILL` frame exits the
/// process immediately with [`KILLED_EXIT_CODE`] — the simulated node
/// crash takes all stored partitions with it.
pub fn run_worker(connect: &str, id: u64) -> io::Result<()> {
    run_worker_tapped(connect, id, &mut |_, _| None)
}

/// [`run_worker`] with a [`TransitTap`] on every partition that crosses
/// the socket.
pub fn run_worker_tapped(connect: &str, id: u64, tap: &mut TransitTap<'_>) -> io::Result<()> {
    let mut stream = TcpStream::connect(connect)?;
    stream.set_nodelay(true)?;
    let mut hello = Vec::with_capacity(8);
    bytes::put_u64(&mut hello, id);
    write_frame(&mut stream, OP_HELLO, &hello)?;

    let mut manager = ShuffleManager::new();
    loop {
        let (opcode, payload) = match read_frame(&mut stream) {
            Ok(frame) => frame,
            // Master went away: a worker without a master has no
            // purpose; exit cleanly.
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(()),
            Err(e) => return Err(e),
        };
        match opcode {
            OP_STORE => handle_store(&mut manager, payload, tap, &mut stream)?,
            OP_FETCH => handle_fetch(&manager, &payload, tap, &mut stream)?,
            OP_DELETE_SID => {
                if let Ok(sid) = Reader::new(&payload).u64() {
                    manager.delete_shuffle(sid);
                }
                write_frame(&mut stream, OP_PONG, &[])?;
            }
            OP_PING => write_frame(&mut stream, OP_PONG, &[])?,
            OP_SHUTDOWN => return Ok(()),
            OP_KILL => {
                // Injected crash: drop everything and die without a
                // goodbye, like a powered-off node.
                drop(manager);
                let _ = io::stdout().flush();
                std::process::exit(KILLED_EXIT_CODE);
            }
            other => send_err(
                &mut stream,
                ERR_MALFORMED,
                &format!("unknown opcode {other}"),
            )?,
        }
    }
}

fn send_err(w: &mut impl Write, code: u64, msg: &str) -> io::Result<()> {
    let mut payload = Vec::with_capacity(12 + msg.len());
    bytes::put_u64(&mut payload, code);
    bytes::put_str32(&mut payload, msg);
    write_frame(w, OP_ERR, &payload)
}

/// Reports a storage failure in its wire form.
fn send_shuffle_err(w: &mut impl Write, e: &ShuffleError) -> io::Result<()> {
    let code = match e {
        ShuffleError::Missing { .. } => ERR_NOT_FOUND,
        ShuffleError::Corrupt { .. } => ERR_CORRUPT,
    };
    send_err(w, code, &e.to_string())
}

/// `STORE {sid, map, reduce, checksum, data…}` → `STORE_OK` | `ERR`.
/// The data is hashed against the checksum *before* it is stored or
/// acknowledged, so a partition mangled in transit is rejected at the
/// door while its sender still holds it; the frame's own buffer is what
/// gets stored.
fn handle_store(
    manager: &mut ShuffleManager,
    mut payload: Vec<u8>,
    tap: &mut TransitTap<'_>,
    reply: &mut impl Write,
) -> io::Result<()> {
    let mut r = Reader::new(&payload);
    let header = (|| -> Result<(u64, usize, usize, u64), DecodeError> {
        Ok((r.u64()?, r.usize()?, r.usize()?, r.u64()?))
    })();
    let Ok((sid, map_id, reduce_id, checksum)) = header else {
        return send_err(reply, ERR_MALFORMED, "short STORE header");
    };
    if let Some(mangled) = tap(OP_STORE, &payload[STORE_HEADER_LEN..]) {
        payload.truncate(STORE_HEADER_LEN);
        payload.extend_from_slice(&mangled);
    }
    match manager.store_partition(sid, map_id, reduce_id, checksum, payload, STORE_HEADER_LEN) {
        Ok(()) => write_frame(reply, OP_STORE_OK, &[]),
        Err(e) => send_shuffle_err(reply, &e),
    }
}

/// `FETCH {sid, map, reduce}` → `FETCH_OK {checksum, data…}` | `ERR`.
/// The checksum is the one verified when the partition was stored, not
/// a fresh hash: the master hashes what arrives and compares it with
/// its own record, which catches rot in this store and damage on the
/// way back alike.
fn handle_fetch(
    manager: &ShuffleManager,
    payload: &[u8],
    tap: &mut TransitTap<'_>,
    reply: &mut impl Write,
) -> io::Result<()> {
    let mut r = Reader::new(payload);
    let header = (|| -> Result<(u64, usize, usize), DecodeError> {
        Ok((r.u64()?, r.usize()?, r.usize()?))
    })();
    let Ok((sid, map_id, reduce_id)) = header else {
        return send_err(reply, ERR_MALFORMED, "short FETCH header");
    };
    let (checksum, data) = match manager.partition(sid, map_id, reduce_id) {
        Ok(found) => found,
        Err(e) => return send_shuffle_err(reply, &e),
    };
    let mangled = tap(OP_FETCH, data);
    let mut head = Vec::with_capacity(8);
    bytes::put_u64(&mut head, checksum);
    write_frame_parts(
        reply,
        OP_FETCH_OK,
        &[&head, mangled.as_deref().unwrap_or(data)],
    )
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use p3c_dataset::bytes::wordsum64;

    fn store_request(header: [u64; 4], data: &[u8]) -> Vec<u8> {
        let mut payload = Vec::new();
        for v in header {
            bytes::put_u64(&mut payload, v);
        }
        payload.extend_from_slice(data);
        payload
    }

    fn fetch_request(key: [u64; 3]) -> Vec<u8> {
        let mut payload = Vec::new();
        for v in key {
            bytes::put_u64(&mut payload, v);
        }
        payload
    }

    /// The one frame a handler wrote, as `(opcode, body)`; an `ERR`
    /// body is cut down to its code.
    fn reply(frame: &[u8]) -> (u8, Vec<u8>) {
        let mut rest = frame;
        let (op, body) = read_frame(&mut rest).unwrap();
        assert!(rest.is_empty(), "exactly one reply frame");
        if op == OP_ERR {
            return (op, body[..8].to_vec());
        }
        (op, body)
    }

    fn err(code: u64) -> (u8, Vec<u8>) {
        let mut body = Vec::new();
        bytes::put_u64(&mut body, code);
        (OP_ERR, body)
    }

    fn store(m: &mut ShuffleManager, payload: Vec<u8>, tap: &mut TransitTap<'_>) -> (u8, Vec<u8>) {
        let mut out = Vec::new();
        handle_store(m, payload, tap, &mut out).unwrap();
        reply(&out)
    }

    fn fetch(m: &ShuffleManager, payload: &[u8], tap: &mut TransitTap<'_>) -> (u8, Vec<u8>) {
        let mut out = Vec::new();
        handle_fetch(m, payload, tap, &mut out).unwrap();
        reply(&out)
    }

    #[test]
    fn store_then_fetch_roundtrip() {
        let mut manager = ShuffleManager::new();
        let data = b"the partition";
        let request = store_request([3, 1, 2, wordsum64(data)], data);
        assert_eq!(
            store(&mut manager, request, &mut |_, _| None),
            (OP_STORE_OK, Vec::new())
        );
        // FETCH_OK repeats the checksum verified at the door.
        let (op, body) = fetch(&manager, &fetch_request([3, 1, 2]), &mut |_, _| None);
        assert_eq!(op, OP_FETCH_OK);
        let mut r = Reader::new(&body);
        assert_eq!(r.u64().unwrap(), wordsum64(data));
        assert_eq!(r.rest(), data);
    }

    #[test]
    fn corrupt_store_rejected_at_the_door() {
        let mut manager = ShuffleManager::new();
        let request = store_request([1, 0, 0, 0xdead_beef], b"data");
        assert_eq!(
            store(&mut manager, request, &mut |_, _| None),
            err(ERR_CORRUPT)
        );
        assert_eq!(
            fetch(&manager, &fetch_request([1, 0, 0]), &mut |_, _| None),
            err(ERR_NOT_FOUND)
        );
    }

    #[test]
    fn a_tap_mangles_bytes_in_transit_never_in_the_store() {
        let mut manager = ShuffleManager::new();
        let data = b"the partition";
        let request = store_request([3, 1, 2, wordsum64(data)], data);
        // Inbound: what the door check sees is the mangled copy.
        let mut flip_store = |op: u8, bytes: &[u8]| {
            assert_eq!((op, bytes), (OP_STORE, &data[..]));
            Some(b"the partitiom".to_vec())
        };
        assert_eq!(
            store(&mut manager, request.clone(), &mut flip_store),
            err(ERR_CORRUPT)
        );
        assert_eq!(
            store(&mut manager, request, &mut |_, _| None).0,
            OP_STORE_OK
        );
        // Outbound: the honest checksum in front of mangled bytes...
        let mut flip_fetch = |op: u8, _: &[u8]| (op == OP_FETCH).then(|| b"rot".to_vec());
        let (_, body) = fetch(&manager, &fetch_request([3, 1, 2]), &mut flip_fetch);
        assert_eq!(&body[8..], b"rot");
        // ...while the stored partition is served intact next time.
        let (_, body) = fetch(&manager, &fetch_request([3, 1, 2]), &mut |_, _| None);
        assert_eq!(&body[8..], data);
    }

    #[test]
    fn missing_fetch_and_short_headers_are_errors() {
        let mut manager = ShuffleManager::new();
        assert_eq!(
            fetch(&manager, &fetch_request([9, 0, 0]), &mut |_, _| None),
            err(ERR_NOT_FOUND)
        );
        assert_eq!(
            store(&mut manager, vec![1, 2, 3], &mut |_, _| None),
            err(ERR_MALFORMED)
        );
        assert_eq!(fetch(&manager, &[], &mut |_, _| None), err(ERR_MALFORMED));
    }
}
