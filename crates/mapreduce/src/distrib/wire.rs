//! Binary codec and frame protocol for the distributed backend.
//!
//! Shuffle payloads cross a process boundary, so keys and values need a
//! real serialized form (the in-process engine only ever *estimates*
//! bytes via [`crate::weight::Weighable`]). [`Wire`] is that form: a
//! tiny little-endian binary codec over the shared byte layer
//! ([`p3c_dataset::bytes`]) with one non-negotiable property — **exact
//! round-trips**. Floats travel as raw IEEE-754 bits, never through
//! text, so a value decoded on the reducer side is bit-identical to
//! what the mapper emitted. That is what lets the distributed path keep
//! the engine's byte-determinism contract (DESIGN.md §5, §12).
//!
//! The module also defines the framing used on the master↔worker socket:
//! `[u32 length][u8 opcode][payload]` (the byte layer's frame head, the
//! same one that opens a journal record). Frames carry no checksum of
//! their own; every shuffle partition travels with its
//! [`wordsum64`](bytes::wordsum64) in the `STORE` / `FETCH_OK` payload.

use p3c_dataset::bytes::{self, DecodeError, Reader};
use std::io::{self, Read, Write};

// ------------------------------------------------------------ opcodes ---

/// Worker → master greeting carrying the worker id.
pub const OP_HELLO: u8 = 1;
/// Master → worker: store one shuffle partition.
pub const OP_STORE: u8 = 2;
/// Worker → master: partition stored and checksum verified.
pub const OP_STORE_OK: u8 = 3;
/// Master → worker: fetch one shuffle partition.
pub const OP_FETCH: u8 = 4;
/// Worker → master: the checksum the worker verified at `STORE`, then
/// the partition bytes.
pub const OP_FETCH_OK: u8 = 5;
/// Either direction: request failed; payload is `(code, message)`.
pub const OP_ERR: u8 = 6;
/// Master → worker: liveness probe.
pub const OP_PING: u8 = 7;
/// Worker → master: liveness reply.
pub const OP_PONG: u8 = 8;
/// Master → worker: delete every partition of one shuffle id.
pub const OP_DELETE_SID: u8 = 9;
/// Master → worker: exit cleanly.
pub const OP_SHUTDOWN: u8 = 10;
/// Master → worker (tests only): drop all stored partitions and die
/// without replying — the injected "node crash".
pub const OP_KILL: u8 = 11;

/// `OP_ERR` code: the requested partition is not on this worker.
pub const ERR_NOT_FOUND: u64 = 1;
/// `OP_ERR` code: the bytes of a `STORE` do not match the checksum sent
/// with them — mangled in transit; the sender still holds them.
pub const ERR_CORRUPT: u64 = 2;
/// `OP_ERR` code: the request frame itself could not be decoded.
pub const ERR_MALFORMED: u64 = 3;

// -------------------------------------------------------------- codec ---

/// Exact binary serialization for values that cross the wire.
///
/// Mirrors the [`crate::weight::Weighable`] family: every key/value type
/// a job shuffles implements it, compositionally. The contract is exact
/// round-tripping — `decode(encode(x)) == x` bit-for-bit, floats
/// included.
pub trait Wire: Sized {
    /// Appends the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);
    /// Decodes one value from the reader.
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError>;
}

/// Encodes a value into a fresh buffer.
pub fn encode_to_vec<T: Wire>(value: &T) -> Vec<u8> {
    let mut buf = Vec::new();
    value.encode(&mut buf);
    buf
}

/// Decodes exactly one value from `buf`; trailing bytes are an error.
pub fn decode_from_slice<T: Wire>(buf: &[u8]) -> Result<T, DecodeError> {
    let mut r = Reader::new(buf);
    let value = T::decode(&mut r)?;
    r.finish()?;
    Ok(value)
}

macro_rules! int_wire {
    ($($t:ty => $u:ty, $put:ident, $get:ident);* $(;)?) => {
        $(impl Wire for $t {
            #[inline]
            fn encode(&self, buf: &mut Vec<u8>) {
                bytes::$put(buf, *self as $u);
            }
            #[inline]
            fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                Ok(r.$get()? as $t)
            }
        })*
    };
}

int_wire!(
    u8 => u8, put_u8, u8; i8 => u8, put_u8, u8;
    u16 => u16, put_u16, u16; i16 => u16, put_u16, u16;
    u32 => u32, put_u32, u32; i32 => u32, put_u32, u32;
    u64 => u64, put_u64, u64; i64 => u64, put_u64, u64;
    // usize travels as 8 bytes so layouts agree across platforms.
    usize => u64, put_u64, u64; isize => u64, put_u64, u64;
);

impl Wire for f64 {
    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        bytes::put_f64(buf, *self);
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.f64()
    }
}

impl Wire for f32 {
    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        bytes::put_u32(buf, self.to_bits());
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(f32::from_bits(r.u32()?))
    }
}

impl Wire for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        bytes::put_bool(buf, *self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.bool()
    }
}

impl Wire for () {
    fn encode(&self, _buf: &mut Vec<u8>) {}
    fn decode(_r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(())
    }
}

impl Wire for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        bytes::put_str32(buf, self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.str32()
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        bytes::put_len32(buf, self.len());
        for item in self {
            item.encode(buf);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        // Every element but a zero-sized one encodes to at least one
        // byte; a count the remaining payload cannot hold is rejected
        // before anything is reserved.
        r.seq32(std::mem::size_of::<T>().min(1), T::decode)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            _ => Err(DecodeError::Malformed("option tag")),
        }
    }
}

impl<T: Wire> Wire for Box<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (**self).encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Box::new(T::decode(r)?))
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
        self.2.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

impl<A: Wire, B: Wire, C: Wire, D: Wire> Wire for (A, B, C, D) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
        self.2.encode(buf);
        self.3.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?, D::decode(r)?))
    }
}

// ------------------------------------------------------------- frames ---

/// What [`read_frame`] reserves before any payload byte has arrived; a
/// longer payload grows the buffer only as its bytes actually come in,
/// so five hostile header bytes cannot size an allocation.
const FRAME_READ_CHUNK: usize = 64 << 10;

/// Writes one `[u32 len][u8 opcode][payload]` frame.
///
/// # Errors
/// `InvalidInput` for a payload past [`bytes::MAX_PAYLOAD_LEN`] — every
/// reader would reject the frame.
pub fn write_frame(w: &mut impl Write, opcode: u8, payload: &[u8]) -> io::Result<()> {
    write_frame_parts(w, opcode, &[payload])
}

/// [`write_frame`] for a payload that is the concatenation of `parts`,
/// so a sender can put a few header bytes in front of a partition
/// without first copying the partition behind them.
pub fn write_frame_parts(w: &mut impl Write, opcode: u8, parts: &[&[u8]]) -> io::Result<()> {
    let len = parts.iter().map(|part| part.len()).sum();
    w.write_all(&bytes::frame_head(len, opcode)?)?;
    for part in parts {
        w.write_all(part)?;
    }
    w.flush()
}

/// Reads one frame; errors on EOF, short reads, or oversized lengths.
pub fn read_frame(r: &mut impl Read) -> io::Result<(u8, Vec<u8>)> {
    let mut head = [0u8; bytes::FRAME_HEAD_LEN];
    r.read_exact(&mut head)?;
    let (len, opcode) = bytes::parse_frame_head(head)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let mut payload = Vec::with_capacity(len.min(FRAME_READ_CHUNK));
    r.take(len as u64).read_to_end(&mut payload)?;
    if payload.len() != len {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    Ok((opcode, payload))
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let buf = encode_to_vec(&v);
        assert_eq!(decode_from_slice::<T>(&buf).unwrap(), v);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(-5i8);
        roundtrip(u16::MAX);
        roundtrip(-12345i16);
        roundtrip(u32::MAX);
        roundtrip(i32::MIN);
        roundtrip(u64::MAX);
        roundtrip(i64::MIN);
        roundtrip(usize::MAX);
        roundtrip(-1isize);
        roundtrip(true);
        roundtrip(false);
        roundtrip(());
    }

    #[test]
    fn floats_roundtrip_bit_exact() {
        for v in [
            0.0f64,
            -0.0,
            1.5,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.0 / 3.0,
            f64::EPSILON,
        ] {
            let buf = encode_to_vec(&v);
            let back = decode_from_slice::<f64>(&buf).unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
        // NaN payload bits survive too.
        let nan = f64::from_bits(0x7ff8_dead_beef_0001);
        let back = decode_from_slice::<f64>(&encode_to_vec(&nan)).unwrap();
        assert_eq!(back.to_bits(), nan.to_bits());
        let f = 1.0f32 / 3.0;
        assert_eq!(
            decode_from_slice::<f32>(&encode_to_vec(&f))
                .unwrap()
                .to_bits(),
            f.to_bits()
        );
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(String::from("héllo wörld"));
        roundtrip(String::new());
        roundtrip(vec![1.5f64, -2.5, 3.25]);
        roundtrip(Vec::<u64>::new());
        roundtrip(vec![vec![1u32, 2], vec![], vec![3]]);
        roundtrip(Some(7u64));
        roundtrip(None::<String>);
        roundtrip(Box::new(42i64));
        roundtrip((1usize, 2.5f64));
        roundtrip((1u8, String::from("k"), vec![0.5f64]));
        roundtrip((1u8, 2u16, 3u32, 4u64));
    }

    #[test]
    fn shuffle_shaped_payloads_roundtrip() {
        // The shapes the pipelines actually shuffle.
        roundtrip(vec![(3usize, vec![1.0f64, 2.0]), (9, vec![])]);
        roundtrip(vec![((1usize, 2usize), (0.25f64, 0.75f64))]);
        roundtrip(vec![(0usize, (vec![1.0f64], 2.0f64))]);
    }

    #[test]
    fn malformed_payloads_are_errors_not_panics() {
        assert_eq!(
            decode_from_slice::<u64>(&[1, 2, 3]),
            Err(DecodeError::Truncated)
        );
        assert!(matches!(
            decode_from_slice::<bool>(&[9]),
            Err(DecodeError::Malformed(_))
        ));
        // Truncated string body.
        let mut buf = encode_to_vec(&10u32);
        buf.extend_from_slice(b"ab");
        assert!(decode_from_slice::<String>(&buf).is_err());
        // Hostile vec length prefix must not allocate or panic.
        let buf = encode_to_vec(&u32::MAX);
        assert!(decode_from_slice::<Vec<u64>>(&buf).is_err());
        // Trailing garbage rejected.
        let mut buf = encode_to_vec(&1u64);
        buf.push(0);
        assert!(matches!(
            decode_from_slice::<u64>(&buf),
            Err(DecodeError::Malformed(_))
        ));
    }

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, OP_STORE, b"payload").unwrap();
        write_frame(&mut buf, OP_PING, b"").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        let (op, payload) = read_frame(&mut cursor).unwrap();
        assert_eq!((op, payload.as_slice()), (OP_STORE, b"payload".as_slice()));
        let (op, payload) = read_frame(&mut cursor).unwrap();
        assert_eq!((op, payload.as_slice()), (OP_PING, b"".as_slice()));
        assert!(read_frame(&mut cursor).is_err(), "EOF is an error");
    }

    #[test]
    fn a_frame_written_in_parts_is_the_same_frame() {
        let (mut whole, mut parts) = (Vec::new(), Vec::new());
        write_frame(&mut whole, OP_FETCH_OK, b"checksumpartition").unwrap();
        write_frame_parts(&mut parts, OP_FETCH_OK, &[b"checksum", b"", b"partition"]).unwrap();
        assert_eq!(parts, whole);
        // The cap applies to the sum of the parts.
        let half = vec![0u8; bytes::MAX_PAYLOAD_LEN / 2 + 1];
        let err = write_frame_parts(&mut io::sink(), OP_STORE, &[&half, &half]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut buf = encode_to_vec(&u32::MAX);
        buf.push(OP_STORE);
        let mut cursor = std::io::Cursor::new(buf);
        let err = read_frame(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // ...and a writer refuses to produce what no reader accepts.
        let too_long = vec![0u8; bytes::MAX_PAYLOAD_LEN + 1];
        let err = write_frame(&mut io::sink(), OP_STORE, &too_long).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn a_frame_longer_than_the_first_reservation_reads_whole() {
        let payload: Vec<u8> = (0..3 * FRAME_READ_CHUNK + 17).map(|i| i as u8).collect();
        let mut buf = Vec::new();
        write_frame(&mut buf, OP_STORE, &payload).unwrap();
        let (op, body) = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(op, OP_STORE);
        assert_eq!(body, payload);
        // Cut short anywhere, it is an EOF — never a partial frame.
        let err = read_frame(&mut &buf[..buf.len() - 1]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
