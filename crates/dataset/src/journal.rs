//! Write-ahead journal and snapshot files for the incremental service.
//!
//! A durable tenant is persisted as one directory holding two files:
//!
//! * `journal.bin` — an append-only log of checksummed, length-prefixed
//!   records, one per mutation (`create`/`append`/`retract`/bin-rule
//!   step), written **before** the mutation is applied in memory. The
//!   frame format mirrors the distributed backend's wire protocol:
//!   `[u32 payload_len][u8 op][u64 seq][payload][u64 fnv1a]`, all
//!   little-endian, with the checksum taken over `op ‖ seq ‖ payload`.
//! * `snapshot.bin` — an atomically-replaced (`tmp` + `rename` + fsync)
//!   dump of the tenant's maintained statistics, stamped with the
//!   sequence number of the last journal record it covers. After a
//!   snapshot lands, the journal is truncated, so replay cost is
//!   bounded by the mutations since the last snapshot.
//!
//! Recovery reads the snapshot (if any), then replays the journal tail.
//! A torn final record — the expected artifact of a crash mid-`write` —
//! is detected by the length prefix or checksum and silently dropped,
//! along with everything after it; any *earlier* corruption is also cut
//! at that point, because a prefix of the journal is still a valid
//! history (the tenant merely loses its most recent mutations, exactly
//! as if the crash had happened a moment sooner). A corrupt *snapshot*
//! is a hard error: the journal records it covered were truncated, so
//! there is nothing left to replay from.
//!
//! Every byte here is written and read through [`crate::bytes`] — the
//! same appenders, cursor, checksum, payload cap and frame head as the
//! wire protocol (DESIGN.md "Byte formats").

use crate::bytes::{self, DecodeError, Fnv1a, Reader};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Appends a `u64`-length-prefixed byte string — how the service nests
/// a tenant-encoded blob inside a record payload.
pub use crate::bytes::put_bytes;

/// Magic bytes opening a snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"P3CSNAP1";

/// File name of the journal within a tenant directory.
pub const JOURNAL_FILE: &str = "journal.bin";
/// File name of the snapshot within a tenant directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";

// ------------------------------------------------------------ journal ---

/// One decoded journal record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRecord {
    /// Monotonic per-tenant sequence number; survives truncation, so a
    /// snapshot's `covered_seq` totally orders snapshot vs. tail.
    pub seq: u64,
    /// Operation tag — opaque to this module, owned by the service.
    pub op: u8,
    /// Operation payload, encoded with [`crate::bytes`].
    pub payload: Vec<u8>,
}

/// Bytes of a record around its payload: the frame head, the sequence
/// number and the trailing checksum.
const RECORD_OVERHEAD: usize = bytes::FRAME_HEAD_LEN + 8 + 8;

/// The record checksum: FNV-1a over `op ‖ seq ‖ payload`.
fn record_checksum(op: u8, seq: u64, payload: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(&[op]);
    h.write_u64(seq);
    h.write(payload);
    h.finish()
}

fn encode_record(op: u8, seq: u64, payload: &[u8]) -> io::Result<Vec<u8>> {
    let head = bytes::frame_head(payload.len(), op)?;
    let mut frame = Vec::with_capacity(RECORD_OVERHEAD + payload.len());
    frame.extend_from_slice(&head);
    bytes::put_u64(&mut frame, seq);
    frame.extend_from_slice(payload);
    bytes::put_u64(&mut frame, record_checksum(op, seq, payload));
    Ok(frame)
}

/// Decodes the record at the reader's position, or says why the bytes
/// there are not one (torn, oversized, or failing their checksum).
fn decode_record(r: &mut Reader<'_>) -> Result<JournalRecord, DecodeError> {
    let (len, op) = bytes::parse_frame_head(r.array()?)?;
    let seq = r.u64()?;
    let payload = r.take(len)?;
    if r.u64()? != record_checksum(op, seq, payload) {
        return Err(DecodeError::Malformed("record checksum mismatch"));
    }
    Ok(JournalRecord {
        seq,
        op,
        payload: payload.to_vec(),
    })
}

/// Reads every intact record of a journal file.
///
/// Returns the records plus the byte length of the valid prefix; a torn
/// or corrupt tail (the expected artifact of a crash mid-append) is cut
/// at the first bad frame. A missing file is an empty journal.
///
/// # Errors
/// Only genuine I/O failures (permissions, hardware) error; corruption
/// never does — a valid prefix is still a valid history.
pub fn read_journal(path: &Path) -> io::Result<(Vec<JournalRecord>, u64)> {
    let buf = match fs::read(path) {
        Ok(buf) => buf,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((Vec::new(), 0)),
        Err(e) => return Err(e),
    };
    let mut records = Vec::new();
    let mut r = Reader::new(&buf);
    let mut valid = 0;
    while let Ok(record) = decode_record(&mut r) {
        records.push(record);
        valid = buf.len() - r.remaining();
    }
    Ok((records, valid as u64))
}

/// Appending side of a tenant's journal.
///
/// Every [`record`](JournalWriter::record) writes one framed record and
/// flushes it to the OS **and** the device (`sync_data`) before
/// returning — the write-ahead property the recovery contract rests on.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
    next_seq: u64,
}

impl JournalWriter {
    /// Opens (creating if absent) the journal at `path` for appending,
    /// with sequence numbering starting at `next_seq`.
    pub fn create(path: &Path, next_seq: u64) -> io::Result<Self> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Self { file, next_seq })
    }

    /// Reopens an existing journal after recovery: truncates the file
    /// to its `valid_len` intact prefix (chopping any torn tail) and
    /// resumes appending with sequence numbering from `next_seq`.
    pub fn open_end(path: &Path, valid_len: u64, next_seq: u64) -> io::Result<Self> {
        let file = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            // Truncation to the validated prefix is explicit, below.
            .truncate(false)
            .open(path)?;
        file.set_len(valid_len)?;
        let mut file = file;
        file.seek(SeekFrom::End(0))?;
        file.sync_data()?;
        Ok(Self { file, next_seq })
    }

    /// The sequence number the next record will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Appends one record and syncs it to the device; returns the
    /// sequence number it was stamped with.
    pub fn record(&mut self, op: u8, payload: &[u8]) -> io::Result<u64> {
        let seq = self.next_seq;
        let frame = encode_record(op, seq, payload)?;
        self.file.write_all(&frame)?;
        self.file.sync_data()?;
        self.next_seq += 1;
        Ok(seq)
    }

    /// Empties the journal after a successful snapshot. Sequence
    /// numbering continues monotonically — it never restarts — so the
    /// snapshot's `covered_seq` stays comparable with later records.
    pub fn reset(&mut self) -> io::Result<()> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.file.sync_data()
    }
}

// ----------------------------------------------------------- snapshot ---

const SNAPSHOT_VERSION: u32 = 1;

/// The snapshot checksum: FNV-1a over `covered_seq ‖ state`.
fn snapshot_checksum(covered_seq: u64, state: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(covered_seq);
    h.write(state);
    h.finish()
}

/// Atomically replaces the snapshot at `path` with `state`, stamped as
/// covering every journal record with `seq <= covered_seq`.
///
/// The bytes go to a sibling `*.tmp` file first, are synced, and only
/// then renamed over the target — a crash at any point leaves either
/// the old snapshot or the new one, never a torn hybrid.
pub fn write_snapshot(path: &Path, covered_seq: u64, state: &[u8]) -> io::Result<()> {
    let mut body = Vec::with_capacity(8 + 4 + 8 + 8 + state.len() + 8);
    body.extend_from_slice(&SNAPSHOT_MAGIC);
    bytes::put_u32(&mut body, SNAPSHOT_VERSION);
    bytes::put_u64(&mut body, covered_seq);
    put_bytes(&mut body, state);
    bytes::put_u64(&mut body, snapshot_checksum(covered_seq, state));

    let tmp = path.with_extension("tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(&body)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        // Persist the rename itself; ignore platforms/filesystems that
        // refuse to open a directory for syncing.
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Reads the snapshot at `path`; `None` if no snapshot was ever taken.
///
/// # Errors
/// A snapshot that exists but fails its magic, version, or checksum is
/// an `InvalidData` error — unlike a torn journal tail there is no
/// valid fallback, because the records it covered are gone.
pub fn read_snapshot(path: &Path) -> io::Result<Option<(u64, Vec<u8>)>> {
    let buf = match fs::read(path) {
        Ok(buf) => buf,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let mut r = Reader::new(&buf);
    let parse = (|| -> Result<(u64, Vec<u8>), DecodeError> {
        if r.array::<8>()? != SNAPSHOT_MAGIC {
            return Err(DecodeError::Malformed("bad magic"));
        }
        if r.u32()? != SNAPSHOT_VERSION {
            return Err(DecodeError::Malformed("unsupported version"));
        }
        let covered_seq = r.u64()?;
        let state = r.bytes()?;
        let stored = r.u64()?;
        r.finish()?;
        if stored != snapshot_checksum(covered_seq, state) {
            return Err(DecodeError::Malformed("checksum mismatch"));
        }
        Ok((covered_seq, state.to_vec()))
    })();
    parse.map(Some).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("corrupt snapshot {}: {e}", path.display()),
        )
    })
}

// ---------------------------------------------------------- dir names ---

/// Escapes a tenant name into a filesystem-safe directory component.
///
/// ASCII alphanumerics, `_`, `-`, and non-leading `.` pass through;
/// every other byte (including `%` itself, so the map is injective)
/// becomes `%XX` uppercase hex. The empty name maps to `"%-"`, which no
/// non-empty name can produce (`-` is not a hex digit).
pub fn sanitize_component(name: &str) -> String {
    if name.is_empty() {
        return "%-".to_string();
    }
    let mut out = String::with_capacity(name.len());
    for (i, b) in name.bytes().enumerate() {
        let plain = b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || (b == b'.' && i > 0);
        if plain {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}

/// The directory holding one tenant's journal and snapshot.
pub fn tenant_dir(data_dir: &Path, name: &str) -> PathBuf {
    data_dir.join(sanitize_component(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    struct SplitMix64(u64);
    impl SplitMix64 {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("p3c-journal-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn journal_roundtrip_and_seq_numbering() {
        let dir = tmpdir("roundtrip");
        let path = dir.join(JOURNAL_FILE);
        let mut w = JournalWriter::create(&path, 5).unwrap();
        assert_eq!(w.record(1, b"alpha").unwrap(), 5);
        assert_eq!(w.record(2, b"").unwrap(), 6);
        assert_eq!(w.record(3, &[0u8; 100]).unwrap(), 7);
        assert_eq!(w.next_seq(), 8);
        drop(w);
        let (records, valid) = read_journal(&path).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].seq, 5);
        assert_eq!(records[0].op, 1);
        assert_eq!(records[0].payload, b"alpha");
        assert_eq!(records[2].payload, vec![0u8; 100]);
        assert_eq!(valid, fs::metadata(&path).unwrap().len());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_journal_is_empty() {
        let dir = tmpdir("missing");
        let (records, valid) = read_journal(&dir.join("nope.bin")).unwrap();
        assert!(records.is_empty());
        assert_eq!(valid, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_cut_at_every_possible_boundary() {
        // Chop the file at randomized byte offsets: every truncation
        // must recover exactly the records whose frames fit whole.
        let dir = tmpdir("torn");
        let path = dir.join(JOURNAL_FILE);
        let mut w = JournalWriter::create(&path, 0).unwrap();
        let mut frame_ends = Vec::new();
        let mut total = 0u64;
        for i in 0..6u8 {
            let payload = vec![i; (i as usize) * 7 + 1];
            w.record(10 + i, &payload).unwrap();
            total += (4 + 1 + 8 + payload.len() + 8) as u64;
            frame_ends.push(total);
        }
        drop(w);
        let full = fs::read(&path).unwrap();
        assert_eq!(full.len() as u64, total);
        let mut rng = SplitMix64(0xfeed_beef);
        for _ in 0..40 {
            let cut = rng.next() % (total + 1);
            let chopped = dir.join("chopped.bin");
            fs::write(&chopped, &full[..cut as usize]).unwrap();
            let (records, valid) = read_journal(&chopped).unwrap();
            let expect = frame_ends.iter().filter(|&&e| e <= cut).count();
            assert_eq!(records.len(), expect, "cut at {cut}");
            assert_eq!(
                valid,
                frame_ends.get(expect.wrapping_sub(1)).copied().unwrap_or(0)
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_record_stops_replay_at_last_good_frame() {
        let dir = tmpdir("corrupt");
        let path = dir.join(JOURNAL_FILE);
        let mut w = JournalWriter::create(&path, 0).unwrap();
        w.record(1, b"good").unwrap();
        w.record(2, b"flipped").unwrap();
        drop(w);
        let mut bytes = fs::read(&path).unwrap();
        let first = 4 + 1 + 8 + 4 + 8;
        bytes[first + 14] ^= 0x40; // flip one payload bit of record 2
        fs::write(&path, &bytes).unwrap();
        let (records, valid) = read_journal(&path).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].payload, b"good");
        assert_eq!(valid, first as u64);
        // open_end chops the corrupt tail; the next append lands clean.
        let mut w = JournalWriter::open_end(&path, valid, 2).unwrap();
        w.record(3, b"after").unwrap();
        drop(w);
        let (records, _) = read_journal(&path).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].seq, 2);
        assert_eq!(records[1].payload, b"after");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oversized_length_prefix_is_corruption_not_allocation() {
        let dir = tmpdir("oversized");
        let path = dir.join(JOURNAL_FILE);
        let mut bytes = Vec::new();
        bytes::put_u32(&mut bytes, (bytes::MAX_PAYLOAD_LEN + 1) as u32);
        bytes.extend_from_slice(&[0u8; 64]);
        fs::write(&path, &bytes).unwrap();
        let (records, valid) = read_journal(&path).unwrap();
        assert!(records.is_empty());
        assert_eq!(valid, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reset_empties_but_keeps_seq_monotonic() {
        let dir = tmpdir("reset");
        let path = dir.join(JOURNAL_FILE);
        let mut w = JournalWriter::create(&path, 0).unwrap();
        w.record(1, b"a").unwrap();
        w.record(1, b"b").unwrap();
        w.reset().unwrap();
        assert_eq!(w.record(1, b"c").unwrap(), 2, "seq survives reset");
        drop(w);
        let (records, _) = read_journal(&path).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].seq, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_roundtrip_and_atomic_replace() {
        let dir = tmpdir("snap");
        let path = dir.join(SNAPSHOT_FILE);
        assert_eq!(read_snapshot(&path).unwrap(), None);
        write_snapshot(&path, 41, b"state-v1").unwrap();
        write_snapshot(&path, 97, b"state-v2").unwrap();
        let (covered, state) = read_snapshot(&path).unwrap().unwrap();
        assert_eq!(covered, 97);
        assert_eq!(state, b"state-v2");
        assert!(!path.with_extension("tmp").exists(), "tmp renamed away");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_snapshot_is_a_hard_error() {
        let dir = tmpdir("snapbad");
        let path = dir.join(SNAPSHOT_FILE);
        write_snapshot(&path, 7, b"precious").unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 12] ^= 1; // inside the state/checksum region
        fs::write(&path, &bytes).unwrap();
        let err = read_snapshot(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Truncation is equally fatal.
        let good = {
            write_snapshot(&path, 7, b"precious").unwrap();
            fs::read(&path).unwrap()
        };
        fs::write(&path, &good[..good.len() - 3]).unwrap();
        assert!(read_snapshot(&path).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sanitize_is_injective_on_tricky_names() {
        assert_eq!(sanitize_component("plain-name_1.v2"), "plain-name_1.v2");
        assert_eq!(sanitize_component("a/b"), "a%2Fb");
        assert_eq!(sanitize_component("a%2Fb"), "a%252Fb");
        assert_eq!(sanitize_component(".."), "%2E.");
        assert_eq!(sanitize_component("."), "%2E");
        assert_eq!(sanitize_component(""), "%-");
        let names = ["a/b", "a%2Fb", "..", ".", "", "a b", "a\nb", "ü"];
        let mut seen = std::collections::BTreeSet::new();
        for n in names {
            assert!(seen.insert(sanitize_component(n)), "collision on {n:?}");
        }
    }
}
