//! The decoder gauntlet: every decoder that sits on the shared byte
//! layer (`p3c_dataset::bytes`, DESIGN.md "Byte formats") is driven
//! through truncation at every offset, a single-bit flip at every byte,
//! hostile length and count prefixes sprayed over every offset, and a
//! bumped version field. Whatever the bytes, a decoder returns an error
//! (the journal: a shorter valid prefix) — it never panics, and it never
//! asks the allocator for more than the input's length plus a fixed
//! slack on the say-so of a prefix.
//!
//! The cases come from the seeded splitmix64 generator `p3c_check::Gen`:
//! fixed seeds, so every run checks the same bytes.
//!
//! `colseg` is out of scope: its store is in-memory and its panicking
//! decoders are documented as such.

use p3c_check::Gen;
use p3c_suite::core::incremental::IncrementalLight;
use p3c_suite::core::inspect::ClusterSummary;
use p3c_suite::core::mr::{AccMsg, SigMsg};
use p3c_suite::dataset::bytes::{fnv1a64, wordsum64, WordSum, MAX_PAYLOAD_LEN};
use p3c_suite::dataset::journal::{self, JournalWriter};
use p3c_suite::dataset::Dataset;
use p3c_suite::mapreduce::distrib::wire::{read_frame, write_frame};
use p3c_suite::mapreduce::distrib::{decode_from_slice, encode_to_vec, Wire};
use p3c_suite::mapreduce::service::{DurableTenant, ServiceError};
use p3c_suite::mapreduce::{ClusterService, DatasetStore};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Cursor;
use std::path::{Path, PathBuf};
use std::sync::Arc;

// ---------------------------------------------------- allocation gauge ---

thread_local! {
    /// Largest single allocation request of the current thread since the
    /// last reset. Tests run on threads of their own, and every decoder
    /// here runs on its caller's thread.
    static LARGEST_REQUEST: Cell<usize> = const { Cell::new(0) };
}

struct Gauge;

fn note(size: usize) {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = LARGEST_REQUEST.try_with(|m| m.set(m.get().max(size)));
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// the gauge only reads the requested size.
unsafe impl GlobalAlloc for Gauge {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract is passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GAUGE: Gauge = Gauge;

/// What a decoder may request beyond its input's length: `read_frame`'s
/// first reservation, and far more than any other decoder's bookkeeping.
const SLACK: usize = 64 << 10;

/// Runs one decode and asserts its largest allocation request stayed
/// within `input_len + SLACK`.
fn bounded<R>(what: &str, input_len: usize, decode: impl FnOnce() -> R) -> R {
    LARGEST_REQUEST.with(|m| m.set(0));
    let out = decode();
    let largest = LARGEST_REQUEST.with(Cell::get);
    assert!(
        largest <= input_len + SLACK,
        "{what}: a {largest}-byte allocation request for {input_len} input bytes"
    );
    out
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("p3c-gauntlet-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

// ----------------------------------------------------------- the driver ---

/// One decoder under test.
struct Subject<'a> {
    name: &'a str,
    /// A small valid encoding.
    good: Vec<u8>,
    /// `Ok` iff the bytes decode completely.
    decode: &'a dyn Fn(&[u8]) -> Result<(), String>,
    /// The format carries a checksum over everything a flip can touch,
    /// so a flipped bit must be *detected*, not merely survived.
    checksummed: bool,
    /// Offset of a little-endian `u32` version field, if the format has
    /// one.
    version_at: Option<usize>,
}

fn run_gauntlet(s: &Subject<'_>, seed: u64) {
    let mut g = Gen::new(seed);
    let probe = |what: &str, bytes: &[u8]| {
        let what = format!("{}: {what}", s.name);
        bounded(&what, bytes.len(), || (s.decode)(bytes))
    };
    assert_eq!(probe("valid encoding", &s.good), Ok(()));

    for cut in 0..s.good.len() {
        assert!(
            probe("truncation", &s.good[..cut]).is_err(),
            "{}: decoded after truncation to {cut} of {} bytes",
            s.name,
            s.good.len()
        );
    }

    for at in 0..s.good.len() {
        let mut bytes = s.good.clone();
        bytes[at] ^= 1 << g.below(8);
        let outcome = probe("bit flip", &bytes);
        assert!(
            outcome.is_err() || !s.checksummed,
            "{}: a flipped bit in byte {at} went undetected",
            s.name
        );
    }

    // Hostile prefixes: wherever a count or length sits, one of these
    // lands on it — past the cap, past the remaining bytes, or sized to
    // overflow a multiplication by the element width.
    let wide = [u64::MAX, 1 << 61, 1 << 32, MAX_PAYLOAD_LEN as u64 + 1];
    let narrow = [u32::MAX, MAX_PAYLOAD_LEN as u32 + 1, 1 << 27];
    for at in 0..s.good.len() {
        let rest = s.good.len() - at;
        for v in wide.into_iter().chain([rest as u64 + 1]) {
            if rest >= 8 {
                let mut bytes = s.good.clone();
                bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
                let _ = probe("hostile u64 prefix", &bytes);
            }
        }
        for v in narrow.into_iter().chain([rest as u32 + 1]) {
            if rest >= 4 {
                let mut bytes = s.good.clone();
                bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
                let _ = probe("hostile u32 prefix", &bytes);
            }
        }
    }

    if let Some(at) = s.version_at {
        let mut bytes = s.good.clone();
        let mut version = [0u8; 4];
        version.copy_from_slice(&bytes[at..at + 4]);
        bytes[at..at + 4].copy_from_slice(&(u32::from_le_bytes(version) + 1).to_le_bytes());
        assert!(
            probe("bumped version", &bytes).is_err(),
            "{}: accepted a version it does not know",
            s.name
        );
    }
}

fn wire_subject<T: Wire>(name: &str, value: &T, seed: u64) {
    run_gauntlet(
        &Subject {
            name,
            good: encode_to_vec(value),
            decode: &|bytes| {
                decode_from_slice::<T>(bytes)
                    .map(drop)
                    .map_err(|e| e.to_string())
            },
            checksummed: false,
            version_at: None,
        },
        seed,
    );
}

// ------------------------------------------------------------- subjects ---

/// A block with two projected clusters, so a recluster publishes cores.
fn clustered_block(g: &mut Gen, n: usize) -> Dataset {
    let mut data = Vec::with_capacity(n * 3);
    for i in 0..n {
        let mut row = [g.unit(), g.unit(), g.unit()];
        if i % 2 == 0 {
            row[0] = 0.2 + 0.05 * g.unit();
            row[1] = 0.3 + 0.05 * g.unit();
        } else {
            row[1] = 0.8 + 0.05 * g.unit();
            row[2] = 0.7 + 0.05 * g.unit();
        }
        data.extend_from_slice(&row);
    }
    Dataset::new(n, 3, data)
}

fn light_params() -> p3c_suite::core::config::P3cParams {
    p3c_suite::core::config::P3cParams {
        threads: 1,
        ..Default::default()
    }
}

#[test]
fn raw_block_and_tenant_records() {
    let block = Dataset::new(2, 3, vec![0.25, -0.0, 1.0, f64::NAN, 1e-300, 0.75]);
    run_gauntlet(
        &Subject {
            name: "Dataset::from_bytes",
            good: block.to_bytes(),
            decode: &|b| Dataset::from_bytes(b).map(drop).map_err(|e| e.to_string()),
            checksummed: false,
            version_at: None,
        },
        0x6a01,
    );
    run_gauntlet(
        &Subject {
            name: "IncrementalLight::decode_block",
            good: IncrementalLight::encode_block(&block),
            decode: &|b| IncrementalLight::decode_block(b).map(drop),
            checksummed: false,
            version_at: None,
        },
        0x6a02,
    );
    run_gauntlet(
        &Subject {
            name: "IncrementalLight::decode_create",
            good: IncrementalLight::new("t", light_params()).encode_create(),
            decode: &|b| IncrementalLight::decode_create("t", b).map(drop),
            checksummed: false,
            version_at: Some(0),
        },
        0x6a03,
    );
}

#[test]
fn engine_state_blob() {
    // A published model with cores, a retracted block, a zero-row block
    // and a dirty tail: every branch of the blob.
    let mut g = Gen::new(0x6a04);
    let store = DatasetStore::new();
    let mut engine = IncrementalLight::new("t", light_params());
    engine.append(&store, clustered_block(&mut g, 120)).unwrap();
    let gone = engine.append(&store, clustered_block(&mut g, 30)).unwrap();
    engine.append(&store, Dataset::new(0, 3, vec![])).unwrap();
    let outcome = engine.recluster(&store).unwrap();
    assert!(outcome.result.clustering.num_clusters() >= 1);
    assert!(engine.retract(&store, gone).unwrap());
    engine.append(&store, clustered_block(&mut g, 10)).unwrap();
    let scratch = DatasetStore::new();
    run_gauntlet(
        &Subject {
            name: "IncrementalLight::from_snapshot_bytes",
            good: engine.snapshot_bytes(&store).unwrap(),
            decode: &|b| IncrementalLight::from_snapshot_bytes("t", b, &scratch).map(drop),
            checksummed: false,
            version_at: Some(0),
        },
        0x6a05,
    );
}

#[test]
fn shuffle_shapes() {
    use p3c_suite::core::types::{Interval, Signature};
    use p3c_suite::linalg::CovarianceAccumulator;
    let sig = Signature::new(vec![Interval::new(0, 0, 1, 10), Interval::new(3, 2, 7, 12)]);
    wire_subject("SigMsg", &SigMsg(sig), 0x6a06);
    let mut acc = CovarianceAccumulator::new(2);
    acc.push(&[1.5, -2.25], 0.3);
    acc.push(&[0.1, 4.0], 1.7);
    wire_subject("AccMsg", &AccMsg(acc), 0x6a07);
    wire_subject(
        "Vec<(usize, Vec<f64>)>",
        &vec![(3usize, vec![1.0f64, 2.0]), (9, vec![])],
        0x6a08,
    );
    wire_subject(
        "Vec<((usize, usize), (f64, f64))>",
        &vec![((1usize, 2usize), (0.25f64, 0.75f64))],
        0x6a09,
    );
    wire_subject(
        "(u8, String, Option<Vec<u32>>)",
        &(7u8, String::from("héllo"), Some(vec![1u32, 2, 3])),
        0x6a0a,
    );
    let mut summary = ClusterSummary::new(2, 3);
    summary.add([&[0.25, 0.5][..]], true);
    summary.add([&[0.75, 0.125][..]], false);
    wire_subject("ClusterSummary", &summary, 0x6a0b);
}

fn golden(name: &str) -> Vec<u8> {
    std::fs::read(
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(name),
    )
    .unwrap()
}

/// Runs the gauntlet over a journal file holding `records` (seq, op,
/// payload), whose first frame starts at byte `start`.
fn journal_gauntlet(
    name: &str,
    good: Vec<u8>,
    start: usize,
    records: &[(u64, u8, &[u8])],
    seed: u64,
) {
    let mut ends = Vec::new();
    let mut end = start;
    for (_, _, payload) in records {
        end += 4 + 1 + 8 + payload.len() + 8;
        ends.push(end);
    }
    assert_eq!(end, good.len(), "{name}: the frames fill the file");
    let dir = tmpdir(&format!("journal-{seed:x}"));
    let probe_path = dir.join("probe.bin");
    // A journal never errors on corruption: it yields the records wholly
    // before the damage — wherever it is cut or flipped, a valid prefix.
    // "Decoded completely" is all of them.
    let decode = |bytes: &[u8]| -> Result<(), String> {
        std::fs::write(&probe_path, bytes).unwrap();
        let (got, valid) = journal::read_journal(&probe_path).map_err(|e| e.to_string())?;
        let intact = ends.iter().filter(|&&end| end <= valid as usize).count();
        assert_eq!(got.len(), intact, "valid prefix ends between records");
        assert!(valid as usize <= bytes.len());
        for (rec, &(seq, op, payload)) in got.iter().zip(records) {
            assert_eq!((rec.seq, rec.op), (seq, op));
            assert_eq!(rec.payload, payload, "a surviving record changed");
        }
        if got.len() == records.len() {
            Ok(())
        } else {
            Err(format!("prefix of {} records", got.len()))
        }
    };
    run_gauntlet(
        &Subject {
            name,
            good,
            decode: &decode,
            checksummed: true,
            version_at: None,
        },
        seed,
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn journal_file() {
    let dir = tmpdir("journal");
    let path = dir.join(journal::JOURNAL_FILE);
    let mut w = JournalWriter::create(&path, 3).unwrap();
    let payloads: [&[u8]; 3] = [b"first record", b"", b"third"];
    for (i, payload) in payloads.iter().enumerate() {
        w.record(i as u8 + 1, payload).unwrap();
    }
    drop(w);
    let records: Vec<(u64, u8, &[u8])> = (0..3)
        .map(|i| (3 + i as u64, i + 1, payloads[i as usize]))
        .collect();
    journal_gauntlet(
        "read_journal (v2)",
        std::fs::read(&path).unwrap(),
        journal::JOURNAL_MAGIC.len(),
        &records,
        0x6a0b,
    );
    std::fs::remove_dir_all(&dir).unwrap();
    // The v1 reader, on the file the v1 writer left.
    journal_gauntlet(
        "read_journal (v1)",
        golden("v1/journal_records.bin"),
        0,
        &[(5, 2, b"golden payload"), (6, 3, b"")],
        0x6a11,
    );
}

/// Runs the gauntlet over a snapshot file stamped `covered` over `state`.
fn snapshot_gauntlet(name: &str, good: Vec<u8>, covered: u64, state: &[u8], seed: u64) {
    let dir = tmpdir(&format!("snapshot-{seed:x}"));
    let path = dir.join(journal::SNAPSHOT_FILE);
    let decode = |bytes: &[u8]| -> Result<(), String> {
        std::fs::write(&path, bytes).unwrap();
        match journal::read_snapshot(&path) {
            Ok(Some((c, s))) if c == covered && s == state => Ok(()),
            Ok(other) => panic!("corruption decoded to {other:?}"),
            Err(e) => {
                assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
                let message = e.to_string();
                assert!(
                    message.contains(&path.display().to_string()),
                    "error does not name the file: {message}"
                );
                Err(message)
            }
        }
    };
    run_gauntlet(
        &Subject {
            name,
            good,
            decode: &decode,
            checksummed: true,
            // [8-byte magic][u32 version]…
            version_at: Some(8),
        },
        seed,
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn snapshot_file() {
    let dir = tmpdir("snapshot");
    let path = dir.join(journal::SNAPSHOT_FILE);
    journal::write_snapshot(&path, 41, b"the tenant state").unwrap();
    let good = std::fs::read(&path).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    snapshot_gauntlet("read_snapshot (v2)", good, 41, b"the tenant state", 0x6a0c);
    snapshot_gauntlet(
        "read_snapshot (v1)",
        golden("v1/snapshot_file.bin"),
        41,
        b"golden state",
        0x6a12,
    );
}

#[test]
fn streaming_wordsum_equals_the_one_shot_sum() {
    // The snapshot writer and reader sum a head and a body as two
    // pieces; every split of every pinned length must sum alike.
    for len in [0usize, 1, 31, 32, 33, 1500] {
        let message: Vec<u8> = (0..len).map(|i| (i * 131 + 7) as u8).collect();
        let whole = wordsum64(&message);
        for split in 0..=len {
            let mut sum = WordSum::new();
            sum.write(&message[..split]);
            sum.write(&message[split..]);
            assert_eq!(sum.finish(), whole, "len {len}, split at {split}");
        }
        let mut bytewise = WordSum::new();
        for b in &message {
            bytewise.write(std::slice::from_ref(b));
        }
        assert_eq!(bytewise.finish(), whole, "len {len}, byte by byte");
    }
}

#[test]
fn recovery_names_the_tenant_directory_of_a_corrupt_snapshot() {
    let dir = tmpdir("recover");
    let durable = |dir: &Path| -> ClusterService<IncrementalLight> {
        ClusterService::with_durability(Arc::new(DatasetStore::new()), None, dir, 2).unwrap()
    };
    let mut g = Gen::new(0x6a0d);
    {
        let svc = durable(&dir);
        svc.create("victim", IncrementalLight::new("victim", light_params()))
            .unwrap();
        svc.append("victim", clustered_block(&mut g, 40)).unwrap();
        svc.append("victim", clustered_block(&mut g, 40)).unwrap();
    }
    let tdir = journal::tenant_dir(&dir, "victim");
    let snapshot = tdir.join(journal::SNAPSHOT_FILE);
    let good = std::fs::read(&snapshot).expect("two records roll a snapshot");
    for _ in 0..32 {
        let mut bytes = good.clone();
        let at = g.below(bytes.len());
        bytes[at] ^= 1 << g.below(8);
        std::fs::write(&snapshot, &bytes).unwrap();
        let svc = durable(&dir);
        match bounded("recover", bytes.len(), || svc.recover()) {
            Err(ServiceError::Durability(message)) => assert!(
                message.contains(&tdir.display().to_string()),
                "error does not name {}: {message}",
                tdir.display()
            ),
            other => panic!("flip at byte {at}: recovered to {other:?}"),
        }
    }
    // The operator path: restoring the file restores the tenant.
    std::fs::write(&snapshot, &good).unwrap();
    assert_eq!(durable(&dir).recover().unwrap().tenants, 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

// --------------------------------------------------------- wire frames ---

fn frame_bytes(opcode: u8, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::new();
    write_frame(&mut buf, opcode, payload).unwrap();
    buf
}

#[test]
fn frame_parser() {
    let good = frame_bytes(7, b"a small frame payload");
    // Cut short, the parser reports EOF; a flipped bit may grow the
    // declared length (EOF), blow the cap (rejected), shrink it or touch
    // the body (parses — frames carry no checksum of their own; see
    // `payload_corruption_is_caught_by_the_checksum`).
    let decode = |bytes: &[u8]| -> Result<(), String> {
        match read_frame(&mut Cursor::new(bytes)) {
            Ok((op, body)) if op == 7 && body == b"a small frame payload" => Ok(()),
            Ok(_) => Err("a different frame".to_string()),
            Err(e) => {
                let kind = e.kind();
                assert!(
                    kind == std::io::ErrorKind::UnexpectedEof
                        || kind == std::io::ErrorKind::InvalidData,
                    "unexpected error kind {kind:?}"
                );
                Err(e.to_string())
            }
        }
    };
    run_gauntlet(
        &Subject {
            name: "read_frame",
            good,
            decode: &decode,
            // Every flip changes the frame that comes out (or errors).
            checksummed: true,
            version_at: None,
        },
        0x6a0e,
    );

    // A header claiming a payload just under the cap, with no payload
    // behind it, must not reserve what it claims.
    let mut head = (MAX_PAYLOAD_LEN as u32).to_le_bytes().to_vec();
    head.push(7);
    let err = bounded("capped claim", head.len(), || {
        read_frame(&mut Cursor::new(&head))
    })
    .unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    // One past the cap — and u32::MAX — is refused outright.
    for claim in [MAX_PAYLOAD_LEN as u32 + 1, u32::MAX] {
        let mut head = claim.to_le_bytes().to_vec();
        head.push(7);
        let err = read_frame(&mut Cursor::new(head)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }
}

#[test]
fn frames_roundtrip_back_to_back() {
    let mut g = Gen::new(0x6a0f);
    for _ in 0..100 {
        let frames: Vec<(u8, Vec<u8>)> = (0..1 + g.below(7))
            .map(|_| {
                let op = g.next_u64() as u8;
                let len = g.below(2048);
                (op, g.bytes(len))
            })
            .collect();
        let mut buf = Vec::new();
        for (op, payload) in &frames {
            write_frame(&mut buf, *op, payload).unwrap();
        }
        let mut cursor = Cursor::new(buf);
        for (op, payload) in &frames {
            let (got_op, got_body) = read_frame(&mut cursor).unwrap();
            assert_eq!(got_op, *op);
            assert_eq!(&got_body, payload);
        }
        let err = read_frame(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }
}

#[test]
fn payload_corruption_is_caught_by_the_checksum() {
    // Frames carry no checksum of their own; the transfer protocol pairs
    // every partition with its `wordsum64` (tracker entry + STORE /
    // FETCH_OK frames), and the persisted formats pair every record with
    // its `wordsum64` (FNV-1a in v1 files). Either way this is the
    // end-to-end property that turns silent corruption into a retry or a
    // rejected record.
    let mut g = Gen::new(0x6a10);
    for _ in 0..300 {
        let len = 1 + g.below(512);
        let payload = g.bytes(len);
        let mut corrupted = payload.clone();
        let at = g.below(corrupted.len());
        corrupted[at] ^= (g.next_u64() as u8) | 1;
        assert_ne!(fnv1a64(&payload), fnv1a64(&corrupted));
        assert_ne!(wordsum64(&payload), wordsum64(&corrupted));
    }

    // The word-wise sum absorbs four lanes of eight bytes side by side
    // and pads its tail, so its blind spots — if it had any — would sit
    // at particular offsets: every single-byte change at every offset of
    // every length up to three lane blocks is tried, not sampled.
    for len in 0..=100usize {
        let payload = g.bytes(len);
        let sum = wordsum64(&payload);
        for at in 0..len {
            for flip in [0x01u8, 0x80, 0xff, (g.next_u64() as u8) | 1] {
                let mut corrupted = payload.clone();
                corrupted[at] ^= flip;
                assert_ne!(
                    wordsum64(&corrupted),
                    sum,
                    "len {len}, byte {at} ^ {flip:#x}"
                );
            }
        }
        // Zero bytes appended or cut leave the padded words alone; only
        // the folded-in length tells such messages apart.
        let mut zeros = payload.clone();
        zeros.resize(len + 40, 0);
        for longer in len + 1..=zeros.len() {
            assert_ne!(wordsum64(&zeros[..longer]), sum, "len {len} + zeros");
        }
        let all_zero = vec![0u8; len];
        if len > 0 {
            assert_ne!(wordsum64(&all_zero[..len - 1]), wordsum64(&all_zero));
        }
        // Two aligned words in different lanes trade places: a sum or an
        // xor of lanes would not notice.
        for (a, b) in [(0usize, 1usize), (1, 6), (3, 4), (2, 11)] {
            if (b + 1) * 8 > len || payload[a * 8..a * 8 + 8] == payload[b * 8..b * 8 + 8] {
                continue;
            }
            let mut swapped = payload.clone();
            swapped[a * 8..a * 8 + 8].copy_from_slice(&payload[b * 8..b * 8 + 8]);
            swapped[b * 8..b * 8 + 8].copy_from_slice(&payload[a * 8..a * 8 + 8]);
            assert_ne!(wordsum64(&swapped), sum, "len {len}, words {a} <-> {b}");
        }
    }
}
