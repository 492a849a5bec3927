//! The byte layer every binary format in the workspace is built from.
//!
//! Shuffle payloads, wire frames, journal records, snapshot files, the
//! `IncrementalLight` state blob and the raw row-block layout all keep
//! one promise — exact round-trips, `f64` as raw IEEE-754 bits — and all
//! spell it with the primitives of this module (the formats themselves
//! are tabulated in DESIGN.md, "Byte formats"):
//!
//! * `put_*` appenders: little-endian integers, `usize` as 8 bytes so
//!   layouts agree across platforms, length prefixes in both widths in
//!   use (`u64` for the durable formats, `u32` for the wire codec);
//! * [`Reader`], the one bounds-checked cursor, with the one
//!   [`DecodeError`]; every count it reads is checked against the bytes
//!   actually remaining **before** anything is allocated for it;
//! * the two checksums and which bytes get which: [`wordsum64`] /
//!   [`WordSum`] for the **v2 persisted** formats (a journal record's
//!   `op ‖ seq ‖ payload`, a snapshot file's every byte before its sum)
//!   and for shuffle partitions **in flight**, at memory speed;
//!   [`fnv1a64`] / [`Fnv1a`], one byte per multiply, only where a sum
//!   was stored before v2 — the v1 journal and snapshot readers — and
//!   in `serve`'s model fingerprint. A persisted sum never changes
//!   within a format version, so both are pinned by tests;
//! * [`MAX_PAYLOAD_LEN`] and the `[u32 len][u8 op]` frame head shared by
//!   the wire protocol and the journal.

use std::fmt;
use std::io;

/// Upper bound on one framed payload — a wire frame or a journal record
/// (256 MiB). A longer length prefix is corruption, not an allocation
/// request.
pub const MAX_PAYLOAD_LEN: usize = 1 << 28;

/// Bytes of a `[u32 len][u8 op]` frame head.
pub const FRAME_HEAD_LEN: usize = 5;

// ------------------------------------------------------------- errors ---

/// Why a binary payload failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the value was complete.
    Truncated,
    /// The bytes decoded to an invalid value (bad tag, a count the
    /// payload cannot hold, trailing garbage, …).
    Malformed(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "payload truncated"),
            DecodeError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Lets `Result<_, String>` decoders (tenant hooks, recovery) use `?`.
impl From<DecodeError> for String {
    fn from(e: DecodeError) -> Self {
        e.to_string()
    }
}

// ---------------------------------------------------------- appenders ---

/// Appends one byte.
#[inline]
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Appends a `u16`, little-endian.
#[inline]
pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u32`, little-endian.
#[inline]
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64`, little-endian.
#[inline]
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `usize` as 8 bytes so layouts agree across platforms.
#[inline]
pub fn put_usize(buf: &mut Vec<u8>, v: usize) {
    put_u64(buf, v as u64);
}

/// Appends an `f64` as its raw IEEE-754 bits — exact round-trip.
#[inline]
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// Appends a `bool` as one byte.
#[inline]
pub fn put_bool(buf: &mut Vec<u8>, v: bool) {
    buf.push(v as u8);
}

/// Appends a sequence length as a `u32` — the wire codec's prefix width.
#[inline]
pub fn put_len32(buf: &mut Vec<u8>, len: usize) {
    put_u32(buf, len as u32);
}

/// Appends a `u64`-length-prefixed byte string.
pub fn put_bytes(buf: &mut Vec<u8>, v: &[u8]) {
    put_usize(buf, v.len());
    buf.extend_from_slice(v);
}

/// Appends a `u64`-length-prefixed byte string that `fill` appends
/// straight to `buf`: the bytes [`put_bytes`] would write for them,
/// without building them in a buffer of their own first. On an error
/// `buf` holds a partial value and is the caller's to discard.
pub fn put_bytes_with<E>(
    buf: &mut Vec<u8>,
    fill: impl FnOnce(&mut Vec<u8>) -> Result<(), E>,
) -> Result<(), E> {
    let at = buf.len();
    put_usize(buf, 0);
    fill(buf)?;
    let len = (buf.len() - at - 8) as u64;
    buf[at..at + 8].copy_from_slice(&len.to_le_bytes());
    Ok(())
}

/// Appends a `u64`-length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, v: &str) {
    put_bytes(buf, v.as_bytes());
}

/// Appends a `u32`-length-prefixed UTF-8 string (see [`Reader::str32`]).
pub fn put_str32(buf: &mut Vec<u8>, v: &str) {
    put_len32(buf, v.len());
    buf.extend_from_slice(v.as_bytes());
}

/// Appends `f64`s back to back, no prefix (see [`Reader::f64_run`]).
pub fn put_f64_run(buf: &mut Vec<u8>, values: &[f64]) {
    buf.reserve(values.len() * 8);
    for &v in values {
        put_f64(buf, v);
    }
}

/// Appends a `u64`-counted `f64` sequence (see [`Reader::f64s`]).
pub fn put_f64s(buf: &mut Vec<u8>, values: &[f64]) {
    put_usize(buf, values.len());
    put_f64_run(buf, values);
}

/// Appends a `u64`-counted `usize` sequence (see [`Reader::usizes`]).
pub fn put_usizes(buf: &mut Vec<u8>, values: &[usize]) {
    put_usize(buf, values.len());
    for &v in values {
        put_usize(buf, v);
    }
}

// ------------------------------------------------------------- reader ---

/// Bounds-checked cursor over an encoded payload.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader over the whole buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Takes the next `n` bytes, or errors if the buffer is short.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.buf.len() < n {
            return Err(DecodeError::Truncated);
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// Takes everything that is left.
    pub fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.buf)
    }

    /// Takes the next `N` bytes as an array.
    #[inline]
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    /// Reads one `u8`.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.array::<1>()?[0])
    }

    /// Reads one little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// Reads one little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads one little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads a `usize` that traveled as 8 bytes.
    #[inline]
    pub fn usize(&mut self) -> Result<usize, DecodeError> {
        usize::try_from(self.u64()?).map_err(|_| DecodeError::Malformed("value overflows usize"))
    }

    /// Reads an `f64` from raw bits.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `bool`, rejecting tags other than 0/1.
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError::Malformed("bool tag")),
        }
    }

    fn check_count(&self, n: usize, elem_bytes: usize) -> Result<usize, DecodeError> {
        match n.checked_mul(elem_bytes) {
            Some(need) if need <= self.remaining() => Ok(n),
            _ => Err(DecodeError::Malformed("count exceeds remaining payload")),
        }
    }

    /// Reads a `u64` element count and rejects it unless `count`
    /// elements of at least `elem_bytes` encoded bytes each still fit in
    /// the remaining payload — so a hostile prefix can never size an
    /// allocation.
    pub fn seq_len(&mut self, elem_bytes: usize) -> Result<usize, DecodeError> {
        let n = self.usize()?;
        self.check_count(n, elem_bytes)
    }

    /// [`Reader::seq_len`] for the wire codec's `u32` count prefix.
    pub fn seq_len32(&mut self, elem_bytes: usize) -> Result<usize, DecodeError> {
        let n = self.u32()? as usize;
        self.check_count(n, elem_bytes)
    }

    fn collect<T, E>(
        &mut self,
        n: usize,
        mut item: impl FnMut(&mut Self) -> Result<T, E>,
    ) -> Result<Vec<T>, E> {
        // The count was checked against *encoded* bytes; an element may
        // be wider in memory, so the reservation is checked again.
        let fits = self.remaining() / std::mem::size_of::<T>().max(1);
        let mut out = Vec::with_capacity(n.min(fits));
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// Decodes a `u64`-counted sequence whose elements take at least
    /// `elem_bytes` encoded bytes each.
    pub fn seq<T, E: From<DecodeError>>(
        &mut self,
        elem_bytes: usize,
        item: impl FnMut(&mut Self) -> Result<T, E>,
    ) -> Result<Vec<T>, E> {
        let n = self.seq_len(elem_bytes)?;
        self.collect(n, item)
    }

    /// [`Reader::seq`] for the wire codec's `u32` count prefix.
    pub fn seq32<T, E: From<DecodeError>>(
        &mut self,
        elem_bytes: usize,
        item: impl FnMut(&mut Self) -> Result<T, E>,
    ) -> Result<Vec<T>, E> {
        let n = self.seq_len32(elem_bytes)?;
        self.collect(n, item)
    }

    /// Reads `n` back-to-back `f64`s (written by [`put_f64_run`]).
    pub fn f64_run(&mut self, n: usize) -> Result<Vec<f64>, DecodeError> {
        let bytes = self.take(self.check_count(n, 8)? * 8)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| {
                let mut word = [0u8; 8];
                word.copy_from_slice(c);
                f64::from_bits(u64::from_le_bytes(word))
            })
            .collect())
    }

    /// Reads a `u64`-counted `f64` sequence.
    pub fn f64s(&mut self) -> Result<Vec<f64>, DecodeError> {
        let n = self.seq_len(8)?;
        self.f64_run(n)
    }

    /// Reads a `u64`-counted `usize` sequence.
    pub fn usizes(&mut self) -> Result<Vec<usize>, DecodeError> {
        self.seq(8, Self::usize)
    }

    /// Reads a `u64`-length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let n = self.seq_len(1)?;
        self.take(n)
    }

    /// Reads a `u64`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, DecodeError> {
        utf8(self.bytes()?)
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    pub fn str32(&mut self) -> Result<String, DecodeError> {
        let n = self.seq_len32(1)?;
        utf8(self.take(n)?)
    }

    /// Errors unless the buffer is fully consumed.
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(DecodeError::Malformed("trailing bytes after value"))
        }
    }
}

fn utf8(bytes: &[u8]) -> Result<String, DecodeError> {
    std::str::from_utf8(bytes)
        .map(str::to_owned)
        .map_err(|_| DecodeError::Malformed("utf-8 string"))
}

// ---------------------------------------------------------- checksums ---

/// Streaming FNV-1a (64-bit), the checksum of the v1 journal and
/// snapshot files and of `serve`'s model fingerprint: feeding a message
/// in pieces hashes the same as feeding it whole, so a checksum over
/// `a ‖ b` needs no scratch copy. Pinned by tests — v1 files on disk
/// carry its sums.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The hasher over the empty message.
    pub const fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds more bytes.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        self.0 = h;
    }

    /// Feeds a `u64` as its 8 little-endian bytes.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The hash of everything fed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// FNV-1a over one byte slice. One byte per multiply (≈0.7 GB/s),
/// which is why the v2 persisted formats and in-flight shuffle
/// partitions use [`wordsum64`] instead.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// Initial lane states of [`wordsum64`]: four distinct odd constants, so
/// equal words in different lanes never hash alike.
const WORDSUM_LANES: [u64; 4] = [
    0x9e37_79b1_85eb_ca87,
    0xc2b2_ae3d_27d4_eb4f,
    0x1656_67b1_9e37_79f9,
    0x85eb_ca77_c2b2_ae63,
];

/// Odd, so multiplying by it permutes the `u64`s.
const WORDSUM_MUL: u64 = 0x27d4_eb2f_1656_67c5;

/// One absorption step of [`wordsum64`]. For a fixed `state` it is a
/// bijection of `word`, and for a fixed `word` a bijection of `state`
/// (xor, odd multiply and rotate each are), so two inputs that differ in
/// exactly one step can never meet again.
#[inline(always)]
fn wordsum_absorb(state: u64, word: u64) -> u64 {
    (state ^ word).wrapping_mul(WORDSUM_MUL).rotate_left(29)
}

/// Up to 8 message bytes as one little-endian word, zero-padded.
#[inline(always)]
fn le_word(bytes: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    w[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(w)
}

/// Absorbs every whole 32-byte block of `bytes` into the four lanes of
/// [`wordsum64`] — word `i` of a block into lane `i` — and returns the
/// bytes left over.
#[inline(always)]
fn wordsum_blocks<'a>(lanes: &mut [u64; 4], bytes: &'a [u8]) -> &'a [u8] {
    let mut blocks = bytes.chunks_exact(32);
    for block in blocks.by_ref() {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = wordsum_absorb(*lane, le_word(word));
        }
    }
    blocks.remainder()
}

/// Folds the lanes and the tail of fewer than 32 bytes into the sum of
/// a `len`-byte message.
fn wordsum_finish(mut lanes: [u64; 4], tail: &[u8], len: u64) -> u64 {
    for (lane, word) in lanes.iter_mut().zip(tail.chunks(8)) {
        *lane = wordsum_absorb(*lane, le_word(word));
    }
    let mut h = len;
    for lane in lanes {
        h = wordsum_absorb(h, lane);
    }
    h ^= h >> 32;
    h = h.wrapping_mul(WORDSUM_MUL);
    h ^ (h >> 29)
}

/// Word-wise 64-bit checksum: of every persisted v2 format (journal
/// records, snapshot files) and of shuffle partitions in flight.
///
/// The message is cut into little-endian `u64` words (the last one
/// zero-padded); word `i` is absorbed into lane `i % 4`, so four
/// independent multiply chains run side by side and the sum moves at
/// memory speed instead of one byte per multiply. The lanes are then
/// folded, in order, into the message length and the result is
/// avalanched. Guarantees (`tests/decoder_gauntlet.rs` tries each at
/// every offset of every length up to 100):
///
/// * changing any single byte always changes the sum — the byte lands in
///   exactly one word of exactly one lane, and every later step
///   (absorption, fold, avalanche) is a bijection of that lane's state;
/// * the length is part of the sum, so appending or cutting zero bytes
///   changes it even where the zero-padded words stay equal;
/// * lanes start from different constants and are folded in order, so
///   moving a word to another lane is not invisible the way it is to a
///   plain sum or xor of lanes.
pub fn wordsum64(bytes: &[u8]) -> u64 {
    let mut lanes = WORDSUM_LANES;
    let tail = wordsum_blocks(&mut lanes, bytes);
    wordsum_finish(lanes, tail, bytes.len() as u64)
}

/// Streaming [`wordsum64`]: feeding a message in pieces sums the same as
/// feeding it whole, so a file written as a header and a body is summed
/// without joining the two. Pieces that do not end on a 32-byte block
/// boundary are carried in a block-sized buffer until the next one
/// completes it.
#[derive(Debug, Clone)]
pub struct WordSum {
    lanes: [u64; 4],
    /// The first `pending` bytes of a block not yet absorbed.
    block: [u8; 32],
    pending: usize,
    len: u64,
}

impl WordSum {
    /// The sum over the empty message.
    pub const fn new() -> Self {
        Self {
            lanes: WORDSUM_LANES,
            block: [0; 32],
            pending: 0,
            len: 0,
        }
    }

    /// Feeds more bytes.
    pub fn write(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.pending > 0 {
            let take = bytes.len().min(32 - self.pending);
            self.block[self.pending..self.pending + take].copy_from_slice(&bytes[..take]);
            self.pending += take;
            bytes = &bytes[take..];
            if self.pending < 32 {
                return;
            }
            let block = self.block;
            wordsum_blocks(&mut self.lanes, &block);
            self.pending = 0;
        }
        let tail = wordsum_blocks(&mut self.lanes, bytes);
        self.block[..tail.len()].copy_from_slice(tail);
        self.pending = tail.len();
    }

    /// Feeds a `u64` as its 8 little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The sum of everything fed so far.
    pub fn finish(&self) -> u64 {
        wordsum_finish(self.lanes, &self.block[..self.pending], self.len)
    }
}

impl Default for WordSum {
    fn default() -> Self {
        Self::new()
    }
}

// -------------------------------------------------------------- frame ---

/// The `[u32 len][u8 op]` head that opens a wire frame and a journal
/// record.
///
/// # Errors
/// `InvalidInput` if `len` is past [`MAX_PAYLOAD_LEN`]: a reader would
/// reject the frame, so a writer must not produce it.
pub fn frame_head(len: usize, op: u8) -> io::Result<[u8; FRAME_HEAD_LEN]> {
    if len > MAX_PAYLOAD_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("framed payload of {len} bytes exceeds the {MAX_PAYLOAD_LEN}-byte cap"),
        ));
    }
    let l = (len as u32).to_le_bytes();
    Ok([l[0], l[1], l[2], l[3], op])
}

/// Parses a frame head into `(payload length, op)`, rejecting a length
/// past [`MAX_PAYLOAD_LEN`] before anyone allocates for it.
pub fn parse_frame_head(head: [u8; FRAME_HEAD_LEN]) -> Result<(usize, u8), DecodeError> {
    let len = u32::from_le_bytes([head[0], head[1], head[2], head[3]]) as usize;
    if len > MAX_PAYLOAD_LEN {
        return Err(DecodeError::Malformed("frame length exceeds cap"));
    }
    Ok((len, head[4]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn appenders_and_reader_roundtrip_exactly() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 9);
        put_u16(&mut buf, 0xbeef);
        put_u32(&mut buf, 7);
        put_u64(&mut buf, u64::MAX);
        put_usize(&mut buf, 42);
        put_f64(&mut buf, -0.0);
        put_f64(&mut buf, f64::from_bits(0x7ff8_dead_beef_0001));
        put_bool(&mut buf, true);
        put_str(&mut buf, "héllo");
        put_bytes(&mut buf, b"");
        put_str32(&mut buf, "ab");
        put_f64s(&mut buf, &[1.5, f64::INFINITY]);
        put_usizes(&mut buf, &[3, usize::MAX]);
        buf.extend_from_slice(b"tail");
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 9);
        assert_eq!(r.u16().unwrap(), 0xbeef);
        assert_eq!(r.u32().unwrap(), 7);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.usize().unwrap(), 42);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.f64().unwrap().to_bits(), 0x7ff8_dead_beef_0001);
        assert!(r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.bytes().unwrap(), b"");
        assert_eq!(r.str32().unwrap(), "ab");
        assert_eq!(r.f64s().unwrap(), vec![1.5, f64::INFINITY]);
        assert_eq!(r.usizes().unwrap(), vec![3, usize::MAX]);
        assert_eq!(
            r.finish(),
            Err(DecodeError::Malformed("trailing bytes after value"))
        );
        assert_eq!(r.rest(), b"tail");
        r.finish().unwrap();
    }

    #[test]
    fn layout_is_little_endian_with_both_prefix_widths() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 0x0102_0304);
        put_str(&mut buf, "a");
        put_len32(&mut buf, 1);
        assert_eq!(buf, [4, 3, 2, 1, 1, 0, 0, 0, 0, 0, 0, 0, b'a', 1, 0, 0, 0]);
    }

    #[test]
    fn truncation_and_bad_tags_are_errors() {
        assert_eq!(Reader::new(&[1, 2, 3]).u64(), Err(DecodeError::Truncated));
        assert!(matches!(
            Reader::new(&[9]).bool(),
            Err(DecodeError::Malformed(_))
        ));
        let mut buf = Vec::new();
        put_usize(&mut buf, 2);
        buf.extend_from_slice(&[0xff, 0xfe]);
        assert!(matches!(
            Reader::new(&buf).str(),
            Err(DecodeError::Malformed(_))
        ));
        let e: String = DecodeError::Truncated.into();
        assert_eq!(e, "payload truncated");
    }

    #[test]
    fn counts_are_checked_against_the_remaining_bytes_before_allocating() {
        // A count the payload cannot hold — and one whose byte size
        // overflows — is rejected by every counted reader.
        for hostile in [3u64, 1 << 61, u64::MAX] {
            let mut buf = Vec::new();
            put_u64(&mut buf, hostile);
            buf.extend_from_slice(&[0u8; 16]);
            assert!(Reader::new(&buf).seq_len(8).is_err(), "{hostile}");
            assert!(Reader::new(&buf).f64s().is_err(), "{hostile}");
            assert!(Reader::new(&buf).usizes().is_err(), "{hostile}");
            assert!(Reader::new(&buf[8..]).f64_run(hostile as usize).is_err());
        }
        let mut buf = Vec::new();
        put_u64(&mut buf, 17);
        buf.extend_from_slice(&[0u8; 16]);
        assert!(Reader::new(&buf).bytes().is_err());
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX);
        assert!(Reader::new(&buf).str32().is_err());
        assert!(Reader::new(&buf).seq_len32(1).is_err());
        // Zero-width elements are never "too many".
        assert_eq!(Reader::new(&buf).seq_len32(0), Ok(u32::MAX as usize));
        // An element wider in memory than on the wire caps the
        // reservation, not the result.
        let mut buf = Vec::new();
        put_u64(&mut buf, 4);
        buf.extend_from_slice(&[7, 8, 9, 10]);
        let wide: Result<Vec<[u64; 8]>, DecodeError> =
            Reader::new(&buf).seq(1, |r| Ok([u64::from(r.u8()?); 8]));
        assert_eq!(wide.unwrap().len(), 4);
    }

    #[test]
    fn fnv_is_pinned_and_streaming_equals_one_shot() {
        // Pinned values: trackers, journals and snapshots persist them.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a64(b"ab"), fnv1a64(b"ba"));
        let mut whole = Vec::new();
        put_u64(&mut whole, 0x0102_0304_0506_0708);
        whole.extend_from_slice(b"payload");
        let mut h = Fnv1a::new();
        h.write_u64(0x0102_0304_0506_0708);
        h.write(b"pay");
        h.write(b"load");
        assert_eq!(h.finish(), fnv1a64(&whole));
    }

    /// `len` bytes of a fixed, position-dependent pattern.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 131 + 7) as u8).collect()
    }

    #[test]
    fn wordsum_is_pinned_at_the_lane_and_tail_boundaries() {
        // v2 journals and snapshots store these sums, and master and
        // worker may be separate builds: the definition must not drift.
        // (`tests/golden_bytes.rs` pins the same values.)
        for (len, sum) in [
            (0usize, 0x0601_f8d5_ba64_0cfeu64),
            (1, 0x7c06_d23c_9d25_cdf4),
            (31, 0x5919_f410_c82a_d221),
            (32, 0xa11d_a961_73e7_891d),
            (33, 0xbca8_0720_c502_4019),
            (1500, 0xc901_5d10_69f2_f308),
        ] {
            assert_eq!(wordsum64(&pattern(len)), sum, "len {len}");
        }
        assert_eq!(wordsum64(b"a"), 0x7174_e239_f580_d7ad);
    }

    #[test]
    fn put_bytes_with_writes_what_put_bytes_writes() {
        let mut direct = vec![7];
        put_bytes(&mut direct, b"nested value");
        let mut in_place = vec![7];
        put_bytes_with(&mut in_place, |buf| -> Result<(), ()> {
            buf.extend_from_slice(b"nested ");
            buf.extend_from_slice(b"value");
            Ok(())
        })
        .unwrap();
        assert_eq!(in_place, direct);
        assert_eq!(put_bytes_with(&mut in_place, |_| Err("no")), Err("no"));
    }

    #[test]
    fn frame_head_roundtrips_and_enforces_the_cap() {
        let head = frame_head(0x0001_0203, 7).unwrap();
        assert_eq!(head, [3, 2, 1, 0, 7]);
        assert_eq!(parse_frame_head(head), Ok((0x0001_0203, 7)));
        assert!(frame_head(MAX_PAYLOAD_LEN, 0).is_ok());
        let err = frame_head(MAX_PAYLOAD_LEN + 1, 0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(parse_frame_head([0xff, 0xff, 0xff, 0xff, 1]).is_err());
        let over = ((MAX_PAYLOAD_LEN + 1) as u32).to_le_bytes();
        assert!(parse_frame_head([over[0], over[1], over[2], over[3], 1]).is_err());
    }
}
