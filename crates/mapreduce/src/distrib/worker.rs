//! The worker subprocess: a shuffle node serving the frame protocol.
//!
//! `p3c worker --connect <addr> --id <n>` lands here. The worker dials
//! the master, introduces itself with `HELLO`, and then serves frames
//! off its single duplex connection until `SHUTDOWN`, EOF, or an
//! injected `KILL`. All state is one [`ShuffleManager`] over a private
//! in-memory [`BlockStore`](crate::blockstore::BlockStore) — shared
//! nothing with the master or its sibling workers; every byte that
//! reaches a reducer travelled through the socket.

use super::shuffle::ShuffleManager;
use super::wire::{
    read_frame, write_frame, ERR_CORRUPT, ERR_MALFORMED, ERR_NOT_FOUND, OP_DELETE_SID, OP_ERR,
    OP_FETCH, OP_FETCH_OK, OP_HELLO, OP_KILL, OP_PING, OP_PONG, OP_SHUTDOWN, OP_STORE, OP_STORE_OK,
};
use p3c_dataset::bytes::{self, fnv1a64, DecodeError, Reader};
use std::io::{self, Write as _};
use std::net::TcpStream;

/// Exit code of a worker felled by an injected `KILL` frame.
pub const KILLED_EXIT_CODE: i32 = 17;

/// Runs the worker loop: connect, `HELLO`, serve until told to stop.
///
/// Returns when the master sends `SHUTDOWN` or closes the connection;
/// propagates genuine socket errors. An injected `KILL` frame exits the
/// process immediately with [`KILLED_EXIT_CODE`] — the simulated node
/// crash takes all stored partitions with it.
pub fn run_worker(connect: &str, id: u64) -> io::Result<()> {
    let mut stream = TcpStream::connect(connect)?;
    stream.set_nodelay(true)?;
    let mut hello = Vec::with_capacity(8);
    bytes::put_u64(&mut hello, id);
    write_frame(&mut stream, OP_HELLO, &hello)?;

    let manager = ShuffleManager::new(crate::blockstore::DEFAULT_BLOCK_SIZE);
    loop {
        let (opcode, payload) = match read_frame(&mut stream) {
            Ok(frame) => frame,
            // Master went away: a worker without a master has no
            // purpose; exit cleanly.
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(()),
            Err(e) => return Err(e),
        };
        match opcode {
            OP_STORE => {
                let reply = handle_store(&manager, &payload);
                send_reply(&mut stream, reply)?;
            }
            OP_FETCH => {
                let reply = handle_fetch(&manager, &payload);
                send_reply(&mut stream, reply)?;
            }
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
            other => {
                send_reply(
                    &mut stream,
                    Reply::Err(ERR_MALFORMED, format!("unknown opcode {other}")),
                )?;
            }
        }
    }
}

enum Reply {
    Ok(u8, Vec<u8>),
    Err(u64, String),
}

fn send_reply(stream: &mut TcpStream, reply: Reply) -> io::Result<()> {
    match reply {
        Reply::Ok(opcode, payload) => write_frame(stream, opcode, &payload),
        Reply::Err(code, msg) => {
            let mut payload = Vec::with_capacity(12 + msg.len());
            bytes::put_u64(&mut payload, code);
            bytes::put_str32(&mut payload, &msg);
            write_frame(stream, OP_ERR, &payload)
        }
    }
}

/// `STORE {sid, map, reduce, checksum, data…}` → `STORE_OK` | `ERR`.
/// The checksum is verified *before* storing, so a partition mangled in
/// transit is rejected at the door.
fn handle_store(manager: &ShuffleManager, payload: &[u8]) -> Reply {
    let mut r = Reader::new(payload);
    let header = (|| -> Result<(u64, u64, u64, u64), DecodeError> {
        Ok((r.u64()?, r.u64()?, r.u64()?, r.u64()?))
    })();
    let Ok((sid, map_id, reduce_id, checksum)) = header else {
        return Reply::Err(ERR_MALFORMED, "short STORE header".to_string());
    };
    let data = r.rest();
    if fnv1a64(data) != checksum {
        return Reply::Err(
            ERR_CORRUPT,
            format!("partition ({sid},{map_id},{reduce_id}) checksum mismatch on store"),
        );
    }
    manager.store_partition(sid, map_id as usize, reduce_id as usize, data);
    Reply::Ok(OP_STORE_OK, Vec::new())
}

/// `FETCH {sid, map, reduce}` → `FETCH_OK {checksum, data…}` | `ERR`.
fn handle_fetch(manager: &ShuffleManager, payload: &[u8]) -> Reply {
    let mut r = Reader::new(payload);
    let header =
        (|| -> Result<(u64, u64, u64), DecodeError> { Ok((r.u64()?, r.u64()?, r.u64()?)) })();
    let Ok((sid, map_id, reduce_id)) = header else {
        return Reply::Err(ERR_MALFORMED, "short FETCH header".to_string());
    };
    // The reply carries the data's checksum, recomputed from what is
    // actually stored; the master compares it against its tracker
    // record, so rot in the worker's store surfaces as corruption.
    let key = super::shuffle::shuffle_key(sid, map_id as usize, reduce_id as usize);
    let data = match manager.store().read(&key) {
        Some(data) => data,
        None => return Reply::Err(ERR_NOT_FOUND, format!("no partition '{key}'")),
    };
    let mut body = Vec::with_capacity(8 + data.len());
    bytes::put_u64(&mut body, fnv1a64(&data));
    body.extend_from_slice(&data);
    Reply::Ok(OP_FETCH_OK, body)
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn store_then_fetch_roundtrip() {
        let manager = ShuffleManager::new(64);
        let data = b"the partition";
        let mut payload = Vec::new();
        for v in [3u64, 1, 2, fnv1a64(data)] {
            bytes::put_u64(&mut payload, v);
        }
        payload.extend_from_slice(data);
        assert!(matches!(
            handle_store(&manager, &payload),
            Reply::Ok(op, _) if op == OP_STORE_OK
        ));

        let mut fetch = Vec::new();
        for v in [3u64, 1, 2] {
            bytes::put_u64(&mut fetch, v);
        }
        match handle_fetch(&manager, &fetch) {
            Reply::Ok(op, body) => {
                assert_eq!(op, OP_FETCH_OK);
                let mut r = Reader::new(&body);
                assert_eq!(r.u64().unwrap(), fnv1a64(data));
                assert_eq!(r.rest(), data);
            }
            Reply::Err(code, msg) => panic!("fetch failed: {code} {msg}"),
        }
    }

    #[test]
    fn corrupt_store_rejected_at_the_door() {
        let manager = ShuffleManager::new(64);
        let mut payload = Vec::new();
        for v in [1u64, 0, 0, 0xdead_beef] {
            bytes::put_u64(&mut payload, v);
        }
        payload.extend_from_slice(b"data");
        assert!(matches!(
            handle_store(&manager, &payload),
            Reply::Err(code, _) if code == ERR_CORRUPT
        ));
    }

    #[test]
    fn missing_fetch_and_short_headers_are_errors() {
        let manager = ShuffleManager::new(64);
        let mut fetch = Vec::new();
        for v in [9u64, 0, 0] {
            bytes::put_u64(&mut fetch, v);
        }
        assert!(matches!(
            handle_fetch(&manager, &fetch),
            Reply::Err(code, _) if code == ERR_NOT_FOUND
        ));
        assert!(matches!(
            handle_store(&manager, &[1, 2, 3]),
            Reply::Err(code, _) if code == ERR_MALFORMED
        ));
        assert!(matches!(
            handle_fetch(&manager, &[]),
            Reply::Err(code, _) if code == ERR_MALFORMED
        ));
    }
}
