//! Segmented columnar spill codec: per-attribute column segments with
//! XOR-delta + byte-shuffle + zero-RLE encoding.
//!
//! This is the form the MapReduce `DatasetStore` keeps a [`RowBlock`] in
//! once it spills it: a tiny *header* (`n`, `d`) plus `d` independent
//! *column segments* — values of one attribute are neighbours in the
//! encoder's input, which is what the delta coding below compresses
//! (DESIGN.md §9).
//!
//! The encoding is deliberately dependency-free and **bit-exact**: every
//! `f64` is treated as its IEEE-754 bit pattern, so NaN payloads and
//! signed infinities round-trip unchanged and a full reload reassembles
//! the original buffer byte-for-byte — the invariant the service's
//! byte-identity tests rest on.
//!
//! Per column, the encoder
//! 1. XOR-deltas consecutive bit patterns (similar neighbours → deltas
//!    with many zero bytes; constant columns become all-zero deltas),
//! 2. byte-shuffles the deltas into 8 little-endian byte planes (zeros
//!    cluster per plane: sign/exponent planes of `[0,1]`-normalized data
//!    are almost entirely zero),
//! 3. run-length-encodes the zeros of each plane, leaving other bytes as
//!    literal runs.
//!
//! The format is pinned by a byte-snapshot test so it stays build-stable.

use crate::RowBlock;

/// Current version byte of the segment format. Bumped on any change to
/// the encoding; [`decode_header`] rejects other versions.
pub const SEGMENT_FORMAT_VERSION: u8 = 1;

/// Magic prefix of a segment header file.
const MAGIC: &[u8; 4] = b"P3CS";

/// Zero runs shorter than this are cheaper inside a literal run than as
/// a separate `(token, varint)` pair.
const MIN_ZERO_RUN: usize = 3;

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

fn read_varint(bytes: &[u8], at: &mut usize) -> u64 {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = bytes[*at];
        *at += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            break;
        }
        shift += 7;
        assert!(shift < 64, "corrupt segment: varint overflow");
    }
    v
}

/// Encodes the header of a segmented spill: magic, format version, and
/// the `n × d` shape the column segments reassemble into.
pub fn encode_header(n: usize, d: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    out.extend_from_slice(MAGIC);
    out.push(SEGMENT_FORMAT_VERSION);
    push_varint(&mut out, n as u64);
    push_varint(&mut out, d as u64);
    out
}

/// Decodes a header written by [`encode_header`], returning `(n, d)`.
///
/// # Panics
/// Panics on a bad magic prefix or an unsupported format version —
/// spilled bytes are process-internal, so corruption is a logic error.
pub fn decode_header(bytes: &[u8]) -> (usize, usize) {
    assert!(
        bytes.len() >= 5 && &bytes[..4] == MAGIC,
        "corrupt segment header: bad magic"
    );
    assert_eq!(
        bytes[4], SEGMENT_FORMAT_VERSION,
        "unsupported segment format version"
    );
    let mut at = 5;
    let n = read_varint(bytes, &mut at) as usize;
    let d = read_varint(bytes, &mut at) as usize;
    (n, d)
}

fn encode_plane(plane: &[u8], out: &mut Vec<u8>) {
    let mut i = 0;
    while i < plane.len() {
        if plane[i] == 0 {
            let mut j = i;
            while j < plane.len() && plane[j] == 0 {
                j += 1;
            }
            if j - i >= MIN_ZERO_RUN || j == plane.len() {
                out.push(0x00);
                push_varint(out, (j - i) as u64);
                i = j;
                continue;
            }
        }
        // Literal run: everything up to the next zero run worth a token.
        let start = i;
        while i < plane.len() {
            if plane[i] == 0 {
                let mut j = i;
                while j < plane.len() && plane[j] == 0 {
                    j += 1;
                }
                if j - i >= MIN_ZERO_RUN || j == plane.len() {
                    break;
                }
                i = j; // short zero run: absorb into the literal
            } else {
                i += 1;
            }
        }
        out.push(0x01);
        push_varint(out, (i - start) as u64);
        out.extend_from_slice(&plane[start..i]);
    }
}

fn decode_plane(bytes: &[u8], at: &mut usize, n: usize, out: &mut Vec<u8>) {
    let start = out.len();
    while out.len() - start < n {
        let token = bytes[*at];
        *at += 1;
        let len = read_varint(bytes, at) as usize;
        match token {
            0x00 => out.resize(out.len() + len, 0),
            0x01 => {
                out.extend_from_slice(&bytes[*at..*at + len]);
                *at += len;
            }
            t => panic!("corrupt column segment: unknown token {t:#x}"),
        }
    }
    assert_eq!(
        out.len() - start,
        n,
        "corrupt column segment: run overshoots the column length"
    );
}

/// Encodes one attribute column as a standalone segment.
///
/// Layout: `varint(n)`, then 8 zero-RLE'd byte planes of the XOR-delta'd
/// IEEE-754 bit patterns (least-significant byte plane first). The
/// segment carries its own length, so it decodes without the header.
pub fn encode_column(values: &[f64]) -> Vec<u8> {
    let n = values.len();
    let mut deltas = Vec::with_capacity(n);
    let mut prev = 0u64;
    for &v in values {
        let bits = v.to_bits();
        deltas.push(bits ^ prev);
        prev = bits;
    }
    let mut out = Vec::with_capacity(16 + n);
    push_varint(&mut out, n as u64);
    let mut plane = Vec::with_capacity(n);
    for p in 0..8 {
        plane.clear();
        plane.extend(deltas.iter().map(|&delta| (delta >> (8 * p)) as u8));
        encode_plane(&plane, &mut out);
    }
    out
}

/// Decodes a segment written by [`encode_column`], reproducing the
/// original values bit-exactly (including NaN payloads and infinities).
///
/// # Panics
/// Panics on corrupt input (see [`decode_header`] for the rationale).
pub fn decode_column(bytes: &[u8]) -> Vec<f64> {
    let mut at = 0;
    let n = read_varint(bytes, &mut at) as usize;
    let mut planes = Vec::with_capacity(8 * n);
    for _ in 0..8 {
        decode_plane(bytes, &mut at, n, &mut planes);
    }
    let mut values = Vec::with_capacity(n);
    let mut prev = 0u64;
    for i in 0..n {
        let mut delta = 0u64;
        for (p, chunk) in planes.chunks_exact(n).enumerate() {
            delta |= u64::from(chunk[i]) << (8 * p);
        }
        prev ^= delta;
        values.push(f64::from_bits(prev));
    }
    values
}

/// [`encode_header`] for a block — the shape half of the segmented form.
pub fn block_header(block: &RowBlock) -> Vec<u8> {
    encode_header(block.len(), block.dim())
}

/// Encodes attribute `j` of a block as a standalone column segment.
pub fn encode_block_column(block: &RowBlock, j: usize) -> Vec<u8> {
    encode_column(&block.column(j).collect::<Vec<f64>>())
}

/// Reassembles a full [`RowBlock`] from its header and *all* `d` decoded
/// columns (in attribute order) — the spill-reload path. The result is
/// byte-identical to the block that was encoded.
///
/// # Panics
/// Panics if the column count or any column length disagrees with the
/// header.
pub fn assemble_block(header: &[u8], cols: Vec<Vec<f64>>) -> RowBlock {
    let (n, d) = decode_header(header);
    assert_eq!(cols.len(), d, "segment count disagrees with header");
    let mut data = vec![0.0; n * d];
    for (j, col) in cols.iter().enumerate() {
        assert_eq!(col.len(), n, "segment {j} has wrong length");
        for (i, &v) in col.iter().enumerate() {
            data[i * d + j] = v;
        }
    }
    RowBlock::new(n, d, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use p3c_check::cases;

    fn roundtrip(values: &[f64]) {
        let encoded = encode_column(values);
        let decoded = decode_column(&encoded);
        assert_eq!(decoded.len(), values.len());
        for (a, b) in values.iter().zip(&decoded) {
            assert_eq!(a.to_bits(), b.to_bits(), "bit-exact roundtrip");
        }
    }

    #[test]
    fn empty_and_singleton_columns() {
        roundtrip(&[]);
        roundtrip(&[0.0]);
        roundtrip(&[-0.0]);
        roundtrip(&[42.125]);
    }

    #[test]
    fn constant_column_compresses_to_near_nothing() {
        let values = vec![0.623_f64; 10_000];
        let encoded = encode_column(&values);
        roundtrip(&values);
        // One raw bit pattern + zero runs: far below 8 bytes/value.
        assert!(
            encoded.len() < 64,
            "constant column encoded to {} bytes",
            encoded.len()
        );
    }

    #[test]
    fn special_values_roundtrip_exactly() {
        roundtrip(&[
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff8_0000_dead_beef), // NaN payload
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::MAX,
            5e-324, // subnormal
            0.0,
            -0.0,
        ]);
    }

    #[test]
    fn header_roundtrip() {
        for (n, d) in [(0, 0), (1, 1), (1_000_000, 200), (usize::MAX >> 8, 7)] {
            let h = encode_header(n, d);
            assert_eq!(decode_header(&h), (n, d));
        }
    }

    #[test]
    #[should_panic(expected = "bad magic")]
    fn bad_magic_rejected() {
        decode_header(b"NOPE\x01\x00\x00");
    }

    #[test]
    #[should_panic(expected = "unsupported segment format version")]
    fn wrong_version_rejected() {
        decode_header(b"P3CS\x63\x00\x00");
    }

    #[test]
    fn full_assembly_is_byte_identical() {
        let data: Vec<f64> = (0..40).map(|i| (i as f64).sin()).collect();
        let block = RowBlock::new(8, 5, data);
        let header = block_header(&block);
        let cols: Vec<Vec<f64>> = (0..5)
            .map(|j| decode_column(&encode_block_column(&block, j)))
            .collect();
        let back = assemble_block(&header, cols);
        assert_eq!(back.as_slice(), block.as_slice());
        assert_eq!(back.len(), block.len());
        assert_eq!(back.dim(), block.dim());
    }

    #[test]
    fn degenerate_shapes() {
        // n = 0: header-only reassembly.
        let empty = RowBlock::new(0, 3, vec![]);
        let cols: Vec<Vec<f64>> = (0..3)
            .map(|j| decode_column(&encode_block_column(&empty, j)))
            .collect();
        assert_eq!(assemble_block(&block_header(&empty), cols), empty);
        // d = 1: a single segment carries the whole block.
        let thin = RowBlock::new(5, 1, vec![0.1, 0.2, 0.3, 0.4, 0.5]);
        let back = assemble_block(
            &block_header(&thin),
            vec![decode_column(&encode_block_column(&thin, 0))],
        );
        assert_eq!(back.as_slice(), thin.as_slice());
        // d = 0: no segments at all.
        let flat = RowBlock::new(4, 0, vec![]);
        assert_eq!(assemble_block(&block_header(&flat), vec![]), flat);
    }

    #[test]
    fn segment_bytes_are_pinned() {
        // Build-stability snapshot: if this test breaks, the on-disk
        // format changed — bump SEGMENT_FORMAT_VERSION.
        let encoded = encode_column(&[0.5, 0.5, 0.75, 0.0]);
        let expected: Vec<u8> = vec![
            0x04, // n = 4
            0x00, 0x04, // plane 0 (LSB): four zero bytes
            0x00, 0x04, // plane 1
            0x00, 0x04, // plane 2
            0x00, 0x04, // plane 3
            0x00, 0x04, // plane 4
            0x00, 0x04, // plane 5
            0x01, 0x04, 0xe0, 0x00, 0x08, 0xe8, // plane 6: one literal run
            0x01, 0x04, 0x3f, 0x00, 0x00, 0x3f, // plane 7 (MSB): short zero run absorbed
        ];
        assert_eq!(encoded, expected, "on-disk segment format drifted");
    }

    #[test]
    fn prop_any_bit_patterns_roundtrip() {
        cases(256, |g| {
            let bits = g.vec(0..200, |g| g.next_u64());
            let values: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
            let decoded = decode_column(&encode_column(&values));
            let back: Vec<u64> = decoded.iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, back);
        });
    }
}
