//! Write-ahead journal and snapshot files for the incremental service.
//!
//! A durable tenant is persisted as one directory holding:
//!
//! * **Journal segments** — `journal.bin` (segment 0), `journal.1.bin`,
//!   `journal.2.bin`, … ([`segment_file`]). Each is the 8-byte
//!   [`JOURNAL_MAGIC`], then an append-only log of checksummed,
//!   length-prefixed records, one per mutation, written **before** the
//!   mutation is applied in memory. The frame format mirrors the
//!   distributed backend's wire protocol:
//!   `[u32 payload_len][u8 op][u64 seq][payload][u64 wordsum64]`, all
//!   little-endian, with the checksum taken over `op ‖ seq ‖ payload` —
//!   the bytes between the length and the sum. Sequence numbers rise
//!   across segments; only the highest-numbered segment is appended to.
//! * `snapshot.bin` — an atomically-replaced (`tmp` + `rename` + fsync)
//!   dump of the tenant's maintained state, stamped with the sequence
//!   number of the last record it covers:
//!   `magic ‖ u32 version ‖ u64 covered_seq ‖ u64 len ‖ body ‖ u64
//!   wordsum64`, the sum taken over every byte before it. A version-3
//!   body ([`SnapshotBody`]) is the tenant's name, its state *without*
//!   row payloads, and for each live block the sequence number of the
//!   journal record that holds its payload ([`BlockRef`]). A block is
//!   written and synced once, by the append that journals it; a
//!   snapshot costs the state, not the dataset.
//!
//! The service rolls a snapshot in four steps, each durable before the
//! next: it starts a new segment; it re-journals into it the live
//! payloads of every sealed segment that is less than half live
//! (compaction — replay skips these relocation records); it writes the
//! snapshot; and it deletes every sealed segment that holds no live
//! block (all of them are covered). The directory stays within about
//! twice the live payload bytes, plus the snapshot and the open
//! segment.
//!
//! Older generations are still read; nothing writes them. Version 1
//! summed with FNV-1a: a journal without the magic whose records end in
//! FNV-1a over `op ‖ seq ‖ payload`, and a snapshot summed over
//! `covered_seq ‖ state`. Versions 1 and 2 kept one journal,
//! `journal.bin`, cut back to empty at each snapshot, and snapshots
//! whose state carried every live block inline; such a directory is a
//! segmented one with segment 0 only. Recovery rewrites a v1 journal as
//! v2 before its writer opens it ([`JournalWriter::open_end`]), so no
//! v2 record is ever appended to a v1 file.
//!
//! Recovery reads the snapshot (if any), takes each live block from the
//! record it references, then replays the records past `covered_seq`.
//! A torn final record — the expected artifact of a crash mid-`write` —
//! is detected by the length prefix or checksum and silently dropped,
//! along with everything after it; any *earlier* corruption is also cut
//! at that point, because a prefix of the journal is still a valid
//! history (the tenant merely loses its most recent mutations, exactly
//! as if the crash had happened a moment sooner). A corrupt *snapshot*,
//! or a referenced record that no segment holds intact, is a hard
//! error: there is nothing left to rebuild that state from.
//!
//! Every byte here is written and read through [`crate::bytes`] — the
//! same appenders, cursor, checksums, payload cap and frame head as the
//! wire protocol (DESIGN.md "Byte formats").

use crate::bytes::{self, DecodeError, Fnv1a, Reader, WordSum};
use std::cell::RefCell;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Appends a `u64`-length-prefixed byte string — how the service nests
/// a tenant-encoded blob inside a record payload.
pub use crate::bytes::put_bytes;

/// Magic bytes opening a snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"P3CSNAP1";

/// Magic bytes opening a v2 journal file. Read as the head of a v1
/// record, its first four bytes are a payload length past
/// [`bytes::MAX_PAYLOAD_LEN`], so no v1 journal can start with them.
pub const JOURNAL_MAGIC: [u8; 8] = *b"P3CJRNL2";

/// File name of journal segment 0 within a tenant directory — the one
/// journal of a directory written before segments.
pub const JOURNAL_FILE: &str = "journal.bin";
/// File name of the snapshot within a tenant directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";

/// The generation of a journal file: which checksum its records end
/// in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Version {
    /// FNV-1a; a journal without a magic.
    V1,
    /// `wordsum64`; a journal opening with [`JOURNAL_MAGIC`].
    V2,
}

// ------------------------------------------------------------ op probe ---

/// Called after each file operation of this module on the thread that
/// armed it, with the operation's name and the file it touched.
type Probe = Box<dyn FnMut(&str, &Path)>;

thread_local! {
    static PROBE: RefCell<Option<Probe>> = const { RefCell::new(None) };
}

/// Runs `body` with `probe` called after every file operation this
/// module makes on the current thread — a record written and synced, a
/// segment created or truncated, a snapshot's temporary file written and
/// synced, a rename, a deletion — with the operation's name and the
/// file's path.
///
/// Every operation is synced before the next begins, so the directory
/// as the probe sees it is what a process stopped right after that
/// operation leaves on disk: the crash-state tests copy it there.
pub fn with_op_probe<R>(probe: impl FnMut(&str, &Path) + 'static, body: impl FnOnce() -> R) -> R {
    let previous = PROBE.with(|p| p.borrow_mut().replace(Box::new(probe)));
    let out = body();
    PROBE.with(|p| *p.borrow_mut() = previous);
    out
}

/// Reports one finished file operation to the armed probe, if any.
fn probe(op: &str, path: &Path) {
    PROBE.with(|p| {
        // Taken out while it runs, so a probe that calls back into this
        // module does not re-enter itself.
        let armed = p.borrow_mut().take();
        if let Some(mut f) = armed {
            f(op, path);
            *p.borrow_mut() = Some(f);
        }
    });
}

// ---------------------------------------------------------- file steps ---

/// Makes a rename, creation or deletion inside `path`'s directory
/// durable. A directory that cannot be opened, or a filesystem that
/// cannot sync one (`EINVAL`, `Unsupported`), is skipped; any other
/// error is returned, because the caller is about to act on the change
/// having landed.
pub fn sync_parent(path: &Path) -> io::Result<()> {
    let Some(Ok(dir)) = path.parent().map(File::open) else {
        return Ok(());
    };
    match dir.sync_all() {
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::InvalidInput | io::ErrorKind::Unsupported
            ) =>
        {
            Ok(())
        }
        other => other,
    }
}

/// Writes `parts` back to back to a fresh `path.tmp`, syncs it, renames
/// it over `path` and syncs the directory — a crash at any point leaves
/// either the old file or the new one, never a torn hybrid.
fn replace_file(path: &Path, parts: &[&[u8]]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = File::create(&tmp)?;
        for part in parts {
            f.write_all(part)?;
        }
        f.sync_all()?;
    }
    probe("write tmp", &tmp);
    fs::rename(&tmp, path)?;
    probe("rename", path);
    sync_parent(path)
}

/// Deletes the file at `path`; a file already gone is no error. The
/// directory is not synced: every caller deletes only files that
/// nothing references any more, so one that reappears after a crash is
/// deleted again by the next recovery.
pub fn delete_file(path: &Path) -> io::Result<()> {
    match fs::remove_file(path) {
        Ok(()) => {
            probe("delete", path);
            Ok(())
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e),
    }
}

// ----------------------------------------------------------- segments ---

/// File name of journal segment `n`: [`JOURNAL_FILE`] for 0, so a
/// directory written before segments is a segmented one, and
/// `journal.<n>.bin` (plain decimal) after it.
pub fn segment_file(n: u64) -> String {
    if n == 0 {
        JOURNAL_FILE.to_string()
    } else {
        format!("journal.{n}.bin")
    }
}

/// The segment number a file name stands for, if it is one
/// [`segment_file`] produces (so no two names map to one number).
fn segment_number(name: &str) -> Option<u64> {
    if name == JOURNAL_FILE {
        return Some(0);
    }
    let digits = name.strip_prefix("journal.")?.strip_suffix(".bin")?;
    let n: u64 = digits.parse().ok()?;
    (n > 0 && digits == n.to_string()).then_some(n)
}

/// The numbers of the journal segments in tenant directory `dir`,
/// ascending; none if the directory does not exist.
pub fn list_segments(dir: &Path) -> io::Result<Vec<u64>> {
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut numbers = Vec::new();
    for entry in entries {
        if let Some(n) = entry?.file_name().to_str().and_then(segment_number) {
            numbers.push(n);
        }
    }
    numbers.sort_unstable();
    Ok(numbers)
}

// ------------------------------------------------------------ journal ---

/// One decoded journal record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRecord {
    /// Monotonic per-tenant sequence number; rises across segments, so
    /// a snapshot's `covered_seq` totally orders snapshot vs. tail.
    pub seq: u64,
    /// Operation tag — opaque to this module, owned by the service.
    pub op: u8,
    /// Operation payload, encoded with [`crate::bytes`].
    pub payload: Vec<u8>,
}

/// Bytes of a record around its payload: the frame head, the sequence
/// number and the trailing checksum.
const RECORD_OVERHEAD: usize = bytes::FRAME_HEAD_LEN + 8 + 8;

/// Length of an empty v2 journal: its magic.
const MAGIC_LEN: u64 = JOURNAL_MAGIC.len() as u64;

/// The record checksum over `op ‖ seq ‖ payload`.
fn record_checksum(version: Version, op: u8, seq: u64, payload: &[u8]) -> u64 {
    match version {
        Version::V1 => {
            let mut h = Fnv1a::new();
            h.write(&[op]);
            h.write_u64(seq);
            h.write(payload);
            h.finish()
        }
        Version::V2 => {
            let mut h = WordSum::new();
            h.write(&[op]);
            h.write_u64(seq);
            h.write(payload);
            h.finish()
        }
    }
}

/// Appends one v2 record frame to `buf`.
fn put_record(buf: &mut Vec<u8>, op: u8, seq: u64, payload: &[u8]) -> io::Result<()> {
    buf.extend_from_slice(&bytes::frame_head(payload.len(), op)?);
    bytes::put_u64(buf, seq);
    buf.extend_from_slice(payload);
    bytes::put_u64(buf, record_checksum(Version::V2, op, seq, payload));
    Ok(())
}

/// One intact record of a parsed journal buffer: where its frame starts
/// and its payload's byte range.
#[derive(Debug, Clone, Copy)]
struct Span {
    seq: u64,
    op: u8,
    start: usize,
    payload: (usize, usize),
}

/// Decodes the record at the reader's position into `(seq, op,
/// payload)`, or says why the bytes there are not one (torn, oversized,
/// or failing their checksum).
fn decode_record<'a>(
    r: &mut Reader<'a>,
    version: Version,
) -> Result<(u64, u8, &'a [u8]), DecodeError> {
    let (len, op) = bytes::parse_frame_head(r.array()?)?;
    let seq = r.u64()?;
    let payload = r.take(len)?;
    if r.u64()? != record_checksum(version, op, seq, payload) {
        return Err(DecodeError::Malformed("record checksum mismatch"));
    }
    Ok((seq, op, payload))
}

/// Parses a journal of either version: its intact records and the byte
/// length of the valid prefix (a v2 journal's magic included).
fn parse_journal(buf: &[u8]) -> (Vec<Span>, usize) {
    let (version, start) = if buf.starts_with(&JOURNAL_MAGIC) {
        (Version::V2, JOURNAL_MAGIC.len())
    } else {
        (Version::V1, 0)
    };
    let mut spans = Vec::new();
    let mut r = Reader::new(&buf[start..]);
    let mut valid = start;
    while let Ok((seq, op, payload)) = decode_record(&mut r, version) {
        let end = buf.len() - r.remaining();
        let payload_end = end - 8;
        spans.push(Span {
            seq,
            op,
            start: valid,
            payload: (payload_end - payload.len(), payload_end),
        });
        valid = end;
    }
    (spans, valid)
}

/// One journal segment read whole: the intact records of its valid
/// prefix, borrowed from one buffer, and where that prefix ends.
#[derive(Debug, Default)]
pub struct Segment {
    buf: Vec<u8>,
    spans: Vec<Span>,
    valid_len: usize,
}

/// A record of a [`Segment`], borrowed from the segment's buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentRecord<'a> {
    /// The record's sequence number.
    pub seq: u64,
    /// Its operation tag.
    pub op: u8,
    /// Byte offset of its frame in the segment file.
    pub offset: u64,
    /// Its payload.
    pub payload: &'a [u8],
}

impl SegmentRecord<'_> {
    /// Byte offset just past the record's frame.
    pub fn end(&self) -> u64 {
        self.offset + (RECORD_OVERHEAD + self.payload.len()) as u64
    }
}

impl Segment {
    /// The intact records, in file order.
    pub fn records(&self) -> impl Iterator<Item = SegmentRecord<'_>> {
        self.spans.iter().map(|s| SegmentRecord {
            seq: s.seq,
            op: s.op,
            offset: s.start as u64,
            payload: &self.buf[s.payload.0..s.payload.1],
        })
    }

    /// Bytes of the valid prefix: the magic (v2) and the intact records.
    pub fn valid_len(&self) -> u64 {
        self.valid_len as u64
    }

    /// Bytes of the file as read, a torn or corrupt tail included.
    pub fn file_len(&self) -> u64 {
        self.buf.len() as u64
    }
}

/// Reads a journal segment of either version. A torn or corrupt tail is
/// cut at the first bad frame; a missing file is an empty segment.
///
/// # Errors
/// Only genuine I/O failures (permissions, hardware) error; corruption
/// never does — a valid prefix is still a valid history.
pub fn read_segment(path: &Path) -> io::Result<Segment> {
    let buf = match fs::read(path) {
        Ok(buf) => buf,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Segment::default()),
        Err(e) => return Err(e),
    };
    let (spans, valid_len) = parse_journal(&buf);
    Ok(Segment {
        buf,
        spans,
        valid_len,
    })
}

/// Reads every intact record of a journal file, v1 or v2.
///
/// Returns the records plus the byte length of the valid prefix; a torn
/// or corrupt tail (the expected artifact of a crash mid-append) is cut
/// at the first bad frame. A missing file is an empty journal.
///
/// # Errors
/// As [`read_segment`].
pub fn read_journal(path: &Path) -> io::Result<(Vec<JournalRecord>, u64)> {
    let segment = read_segment(path)?;
    let records = segment
        .records()
        .map(|r| JournalRecord {
            seq: r.seq,
            op: r.op,
            payload: r.payload.to_vec(),
        })
        .collect();
    Ok((records, segment.valid_len()))
}

/// If the journal at `path` is v1, rewrites the records of its first
/// `valid_len` bytes as a v2 journal through `journal.tmp` (synced, then
/// renamed over `path`) and returns the new valid length; a v2 journal
/// keeps `valid_len`.
fn upgrade_v1(path: &Path, valid_len: u64) -> io::Result<u64> {
    if valid_len == 0 {
        return Ok(0);
    }
    let mut head = [0u8; JOURNAL_MAGIC.len()];
    File::open(path)?.read_exact(&mut head)?;
    if head == JOURNAL_MAGIC {
        return Ok(valid_len);
    }
    let buf = fs::read(path)?;
    let valid = buf
        .len()
        .min(usize::try_from(valid_len).unwrap_or(usize::MAX));
    let (spans, _) = parse_journal(&buf[..valid]);
    let mut v2 = JOURNAL_MAGIC.to_vec();
    for s in &spans {
        put_record(&mut v2, s.op, s.seq, &buf[s.payload.0..s.payload.1])?;
    }
    replace_file(path, &[&v2])?;
    Ok(v2.len() as u64)
}

/// Appending side of one journal segment.
///
/// Every [`record`](JournalWriter::record) writes one framed record and
/// flushes it to the OS **and** the device (`sync_data`) before
/// returning — the write-ahead property the recovery contract rests on.
///
/// A write, truncation or sync that fails leaves the writer *failed*:
/// it cuts the file back to the end of the last record that landed
/// whole, then refuses every later record until recovery reopens the
/// journal. Appending after a torn frame would acknowledge records that
/// a reader, stopping at the tear, never sees.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
    path: PathBuf,
    next_seq: u64,
    /// File length at the end of the last record that fully landed.
    good_len: u64,
    /// A write failed; nothing more is appended.
    failed: bool,
}

impl JournalWriter {
    /// Opens (creating if absent) the journal at `path` for appending,
    /// with sequence numbering starting at `next_seq`: a new journal is
    /// its magic, an existing one is cut to its valid prefix
    /// (rewritten as v2 first if it is v1).
    pub fn create(path: &Path, next_seq: u64) -> io::Result<Self> {
        let (_, valid_len) = read_journal(path)?;
        Self::open_end(path, valid_len, next_seq)
    }

    /// Reopens an existing journal after recovery: rewrites a v1 journal
    /// as v2, truncates the file to its `valid_len` intact prefix
    /// (chopping any torn tail; a journal with nothing valid starts over
    /// from the magic) and resumes appending with sequence numbering
    /// from `next_seq`. A file this creates is made durable in its
    /// directory before the writer is returned.
    pub fn open_end(path: &Path, valid_len: u64, next_seq: u64) -> io::Result<Self> {
        let valid_len = upgrade_v1(path, valid_len)?;
        let created = !path.exists();
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            // Truncation to the validated prefix is explicit, below.
            .truncate(false)
            .open(path)?;
        let good_len = if valid_len < MAGIC_LEN {
            file.set_len(0)?;
            file.write_all(&JOURNAL_MAGIC)?;
            MAGIC_LEN
        } else {
            file.set_len(valid_len)?;
            valid_len
        };
        file.seek(SeekFrom::End(0))?;
        file.sync_data()?;
        probe("open segment", path);
        if created {
            sync_parent(path)?;
        }
        Ok(Self {
            file,
            path: path.to_path_buf(),
            next_seq,
            good_len,
            failed: false,
        })
    }

    /// The sequence number the next record will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Bytes of the journal file: its magic and every record that
    /// landed.
    pub fn file_len(&self) -> u64 {
        self.good_len
    }

    /// Runs `write` on the file unless the writer has failed. On an
    /// error the writer fails, and the file is cut back to the end of
    /// the last good record — best effort: the error sticks either way,
    /// and recovery cuts a torn tail too.
    fn guarded(&mut self, write: impl FnOnce(&mut File) -> io::Result<()>) -> io::Result<()> {
        if self.failed {
            return Err(io::Error::other(
                "journal refused: an earlier write failed; recovery reopens it",
            ));
        }
        let outcome = write(&mut self.file);
        if outcome.is_err() {
            self.failed = true;
            let _ = self.file.set_len(self.good_len);
        }
        outcome
    }

    /// Appends one record and syncs it to the device; returns the
    /// sequence number it was stamped with. A payload past the frame
    /// cap is refused before any byte is written and leaves the writer
    /// usable.
    pub fn record(&mut self, op: u8, payload: &[u8]) -> io::Result<u64> {
        self.record_all(op, [payload])
    }

    /// Appends one record per payload, all with operation `op` and
    /// consecutive sequence numbers, in one write synced to the device
    /// once, after the last; returns the first sequence number. A crash
    /// may keep any prefix of the records. Refused as a whole, before
    /// any byte is written, if a payload is past the frame cap.
    pub fn record_all<'p>(
        &mut self,
        op: u8,
        payloads: impl IntoIterator<Item = &'p [u8]>,
    ) -> io::Result<u64> {
        let first = self.next_seq;
        let mut seq = first;
        let mut frames = Vec::new();
        for payload in payloads {
            frames.reserve(RECORD_OVERHEAD + payload.len());
            put_record(&mut frames, op, seq, payload)?;
            seq += 1;
        }
        self.guarded(|file| {
            file.write_all(&frames)?;
            file.sync_data()
        })?;
        probe("record", &self.path);
        self.good_len += frames.len() as u64;
        self.next_seq = seq;
        Ok(first)
    }
}

// ----------------------------------------------------------- snapshot ---

/// The version [`write_snapshot`] writes; [`load_snapshot`] also reads
/// 1 and 2. The envelope of 2 and 3 is the same; 3 says the body is a
/// [`SnapshotBody`] with block references.
const SNAPSHOT_VERSION: u32 = 3;

/// Bytes of a snapshot before its body: magic, version, covered
/// sequence number, body length.
const SNAPSHOT_HEAD_LEN: usize = 8 + 4 + 8 + 8;

/// Atomically replaces the snapshot at `path` with `body`, stamped as
/// covering every journal record with `seq <= covered_seq`.
///
/// The head, `body` and the sum are written straight to a sibling
/// `*.tmp` file — `body` is never copied — which is synced and only
/// then renamed over the target, and the directory is synced, so a
/// crash at any point leaves either the old snapshot or the new one,
/// never a torn hybrid.
///
/// # Errors
/// Any failure to write, sync or rename, and a failed directory sync
/// (except where the filesystem cannot sync a directory at all): the
/// caller deletes the segments the snapshot covers next, which is only
/// safe once the rename is durable.
pub fn write_snapshot(path: &Path, covered_seq: u64, body: &[u8]) -> io::Result<()> {
    let mut head = Vec::with_capacity(SNAPSHOT_HEAD_LEN);
    head.extend_from_slice(&SNAPSHOT_MAGIC);
    bytes::put_u32(&mut head, SNAPSHOT_VERSION);
    bytes::put_u64(&mut head, covered_seq);
    bytes::put_usize(&mut head, body.len());
    let mut sum = WordSum::new();
    sum.write(&head);
    sum.write(body);
    let mut tail = Vec::with_capacity(8);
    bytes::put_u64(&mut tail, sum.finish());
    replace_file(path, &[&head, body, &tail])
}

/// Parses a snapshot head into `(version, covered_seq, body length)`,
/// checking that the body and its sum fill the rest of a `file_len`
/// file exactly — before a byte of the body is allocated.
fn parse_snapshot_head(
    head: &[u8; SNAPSHOT_HEAD_LEN],
    file_len: u64,
) -> Result<(u32, u64, usize), DecodeError> {
    let mut r = Reader::new(head);
    if r.array::<8>()? != SNAPSHOT_MAGIC {
        return Err(DecodeError::Malformed("bad magic"));
    }
    let version = r.u32()?;
    if !(1..=SNAPSHOT_VERSION).contains(&version) {
        return Err(DecodeError::Malformed("unsupported version"));
    }
    let covered_seq = r.u64()?;
    let body_len = r.u64()?;
    let room = file_len - (SNAPSHOT_HEAD_LEN + 8) as u64;
    match room.cmp(&body_len) {
        std::cmp::Ordering::Less => Err(DecodeError::Truncated),
        std::cmp::Ordering::Greater => Err(DecodeError::Malformed("trailing bytes after value")),
        std::cmp::Ordering::Equal => {
            let body_len = usize::try_from(body_len)
                .map_err(|_| DecodeError::Malformed("value overflows usize"))?;
            Ok((version, covered_seq, body_len))
        }
    }
}

/// A snapshot file read and checksum-verified.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// The file's format version: 1, 2 or 3.
    pub version: u32,
    /// The last journal record the snapshot covers.
    pub covered_seq: u64,
    /// The body, opaque to the envelope; [`Snapshot::parts`] reads the
    /// service's layout of it.
    pub body: Vec<u8>,
}

impl Snapshot {
    /// The body as the service lays it out for this version.
    pub fn parts(&self) -> Result<SnapshotBody<'_>, DecodeError> {
        SnapshotBody::parse(self.version, &self.body)
    }
}

/// Reads the snapshot at `path`, any version; `None` if no snapshot was
/// ever taken. The body is read straight into the buffer returned.
///
/// # Errors
/// A snapshot that exists but fails its magic, version, length or
/// checksum is an `InvalidData` error naming the file — unlike a torn
/// journal tail there is no valid fallback, because the records it
/// covered are gone.
pub fn load_snapshot(path: &Path) -> io::Result<Option<Snapshot>> {
    let mut file = match File::open(path) {
        Ok(file) => file,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let corrupt = |e: DecodeError| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("corrupt snapshot {}: {e}", path.display()),
        )
    };
    let file_len = file.metadata()?.len();
    if file_len < (SNAPSHOT_HEAD_LEN + 8) as u64 {
        return Err(corrupt(DecodeError::Truncated));
    }
    let mut head = [0u8; SNAPSHOT_HEAD_LEN];
    file.read_exact(&mut head)?;
    let (version, covered_seq, body_len) = parse_snapshot_head(&head, file_len).map_err(corrupt)?;
    let mut body = vec![0u8; body_len];
    file.read_exact(&mut body)?;
    let mut tail = [0u8; 8];
    file.read_exact(&mut tail)?;
    let stored = Reader::new(&tail).u64().map_err(corrupt)?;
    let sum = if version == 1 {
        let mut h = Fnv1a::new();
        h.write_u64(covered_seq);
        h.write(&body);
        h.finish()
    } else {
        let mut h = WordSum::new();
        h.write(&head);
        h.write(&body);
        h.finish()
    };
    if stored != sum {
        return Err(corrupt(DecodeError::Malformed("checksum mismatch")));
    }
    Ok(Some(Snapshot {
        version,
        covered_seq,
        body,
    }))
}

/// [`load_snapshot`] as `(covered_seq, body)`.
///
/// # Errors
/// As [`load_snapshot`].
pub fn read_snapshot(path: &Path) -> io::Result<Option<(u64, Vec<u8>)>> {
    Ok(load_snapshot(path)?.map(|s| (s.covered_seq, s.body)))
}

/// Where a live block's payload is journaled: the block's id and the
/// sequence number of the record that holds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockRef {
    /// The tenant's block id.
    pub id: u64,
    /// The record holding the block's payload.
    pub seq: u64,
}

/// A snapshot body as the service lays it out: `str name ‖ bytes
/// state`, and from version 3 the block references, `u64 count ‖ (u64
/// id ‖ u64 seq)*` in ascending id order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotBody<'a> {
    /// The tenant's name.
    pub name: String,
    /// The tenant's encoded state.
    pub state: &'a [u8],
    /// Where each live block's payload is journaled; `None` before
    /// version 3, whose states carry the payloads inline.
    pub blocks: Option<Vec<BlockRef>>,
}

impl<'a> SnapshotBody<'a> {
    /// Decodes the body of a version-`version` snapshot.
    pub fn parse(version: u32, body: &'a [u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(body);
        let name = r.str()?;
        let state = r.bytes()?;
        let blocks = match version {
            1 | 2 => None,
            3 => {
                let refs = r.seq(16, |r| -> Result<_, DecodeError> {
                    Ok(BlockRef {
                        id: r.u64()?,
                        seq: r.u64()?,
                    })
                })?;
                if refs.windows(2).any(|w| w[0].id >= w[1].id) {
                    return Err(DecodeError::Malformed("block references out of id order"));
                }
                Some(refs)
            }
            _ => return Err(DecodeError::Malformed("unsupported version")),
        };
        r.finish()?;
        Ok(Self {
            name,
            state,
            blocks,
        })
    }
}

/// Appends a version-3 snapshot body to `buf`: `name`, the state that
/// `state` appends (written in place, never copied), and `blocks`,
/// which must be in ascending id order.
pub fn put_snapshot_body<E>(
    buf: &mut Vec<u8>,
    name: &str,
    state: impl FnOnce(&mut Vec<u8>) -> Result<(), E>,
    blocks: &[BlockRef],
) -> Result<(), E> {
    bytes::put_str(buf, name);
    bytes::put_bytes_with(buf, state)?;
    bytes::put_usize(buf, blocks.len());
    for b in blocks {
        bytes::put_u64(buf, b.id);
        bytes::put_u64(buf, b.seq);
    }
    Ok(())
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

/// The directory holding one tenant's journal segments and snapshot.
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

    /// A v1 record frame: FNV-1a instead of `wordsum64`, as files
    /// written before v2 hold them.
    fn v1_record(op: u8, seq: u64, payload: &[u8]) -> Vec<u8> {
        let mut frame = bytes::frame_head(payload.len(), op).unwrap().to_vec();
        bytes::put_u64(&mut frame, seq);
        frame.extend_from_slice(payload);
        bytes::put_u64(&mut frame, record_checksum(Version::V1, op, seq, payload));
        frame
    }

    #[test]
    fn journal_roundtrip_and_seq_numbering() {
        let dir = tmpdir("roundtrip");
        let path = dir.join(JOURNAL_FILE);
        let mut w = JournalWriter::create(&path, 5).unwrap();
        assert_eq!(
            fs::read(&path).unwrap(),
            JOURNAL_MAGIC,
            "a new journal is its magic"
        );
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
        // The sum covers the bytes between the length and the sum.
        let bytes = fs::read(&path).unwrap();
        let first = &bytes[8..8 + RECORD_OVERHEAD + 5];
        let mut r = Reader::new(&first[first.len() - 8..]);
        assert_eq!(
            r.u64().unwrap(),
            bytes::wordsum64(&first[4..first.len() - 8])
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_batch_of_records_lands_in_one_write_with_consecutive_seqs() {
        let dir = tmpdir("batch");
        let path = dir.join(JOURNAL_FILE);
        let mut w = JournalWriter::create(&path, 3).unwrap();
        assert_eq!(w.record(1, b"one").unwrap(), 3);
        let batch: [&[u8]; 3] = [b"two", b"", b"four"];
        assert_eq!(w.record_all(5, batch).unwrap(), 4);
        assert_eq!(w.next_seq(), 7);
        // One payload past the cap refuses the whole batch.
        let huge = vec![0u8; bytes::MAX_PAYLOAD_LEN + 1];
        let refused: [&[u8]; 2] = [b"fits", &huge];
        assert!(w.record_all(5, refused).is_err());
        assert_eq!(w.record(1, b"after").unwrap(), 7);
        drop(w);
        let (records, _) = read_journal(&path).unwrap();
        let got: Vec<(u64, u8, &[u8])> = records
            .iter()
            .map(|r| (r.seq, r.op, r.payload.as_slice()))
            .collect();
        assert_eq!(
            got,
            [
                (3, 1, &b"one"[..]),
                (4, 5, b"two"),
                (5, 5, b""),
                (6, 5, b"four"),
                (7, 1, b"after")
            ]
        );
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
    fn no_v1_journal_can_start_with_the_magic() {
        let mut head = [0u8; bytes::FRAME_HEAD_LEN];
        head.copy_from_slice(&JOURNAL_MAGIC[..bytes::FRAME_HEAD_LEN]);
        assert!(bytes::parse_frame_head(head).is_err());
    }

    #[test]
    fn torn_tail_is_cut_at_every_possible_boundary() {
        // Chop the file at randomized byte offsets: every truncation
        // must recover exactly the records whose frames fit whole.
        let dir = tmpdir("torn");
        let path = dir.join(JOURNAL_FILE);
        let mut w = JournalWriter::create(&path, 0).unwrap();
        let mut frame_ends = Vec::new();
        let mut total = MAGIC_LEN;
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
            let magic = if cut >= MAGIC_LEN { MAGIC_LEN } else { 0 };
            assert_eq!(
                valid,
                frame_ends
                    .get(expect.wrapping_sub(1))
                    .copied()
                    .unwrap_or(magic)
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
        let first = 8 + 4 + 1 + 8 + 4 + 8;
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
        for magic in [&[][..], &JOURNAL_MAGIC[..]] {
            let mut bytes = magic.to_vec();
            bytes::put_u32(&mut bytes, (bytes::MAX_PAYLOAD_LEN + 1) as u32);
            bytes.extend_from_slice(&[0u8; 64]);
            fs::write(&path, &bytes).unwrap();
            let (records, valid) = read_journal(&path).unwrap();
            assert!(records.is_empty());
            assert_eq!(valid, magic.len() as u64);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_write_sticks_until_the_journal_is_reopened() {
        let dir = tmpdir("failed");
        let path = dir.join(JOURNAL_FILE);
        let mut w = JournalWriter::create(&path, 0).unwrap();
        w.record(1, b"kept").unwrap();
        let len = fs::metadata(&path).unwrap().len();
        // The same writer over a read-only handle: its write fails.
        w.file = File::open(&path).unwrap();
        assert!(w.record(2, b"lost").is_err());
        // A writable handle again: the failure still sticks — the next
        // record errors, writes nothing and takes no sequence number.
        w.file = OpenOptions::new().append(true).open(&path).unwrap();
        assert!(w.record(3, b"refused").is_err());
        assert_eq!(w.next_seq(), 1);
        assert_eq!(fs::metadata(&path).unwrap().len(), len);
        drop(w);
        // Recovery reopens the journal, and appends land again.
        let (records, valid) = read_journal(&path).unwrap();
        assert_eq!(records.len(), 1);
        let mut w = JournalWriter::open_end(&path, valid, 1).unwrap();
        assert_eq!(w.record(4, b"after").unwrap(), 1);
        drop(w);
        let (records, _) = read_journal(&path).unwrap();
        let payloads: Vec<&[u8]> = records.iter().map(|r| r.payload.as_slice()).collect();
        assert_eq!(payloads, [&b"kept"[..], b"after"]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_torn_write_is_cut_back_before_the_error_returns() {
        let dir = tmpdir("torn-write");
        let path = dir.join(JOURNAL_FILE);
        let mut w = JournalWriter::create(&path, 0).unwrap();
        w.record(1, b"kept").unwrap();
        let len = fs::metadata(&path).unwrap().len();
        // A write that lands part of a frame, then fails.
        let torn = w.guarded(|file| {
            file.write_all(b"half a fra")?;
            Err(io::Error::other("device gone"))
        });
        assert!(torn.is_err());
        assert_eq!(fs::metadata(&path).unwrap().len(), len, "torn bytes cut");
        assert!(w.record(2, b"refused").is_err());
        assert_eq!(fs::metadata(&path).unwrap().len(), len);
        // An oversized payload is refused before any byte is written and
        // does not fail a healthy writer.
        let mut w = JournalWriter::create(&path, 1).unwrap();
        let huge = vec![0u8; bytes::MAX_PAYLOAD_LEN + 1];
        assert_eq!(
            w.record(2, &huge).unwrap_err().kind(),
            io::ErrorKind::InvalidInput
        );
        assert_eq!(w.record(2, b"fits").unwrap(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_v1_journal_is_read_and_rewritten_as_v2_before_appending() {
        let dir = tmpdir("v1");
        let path = dir.join(JOURNAL_FILE);
        let mut v1 = v1_record(1, 4, b"create");
        v1.extend(v1_record(2, 5, b"append"));
        let torn = v1_record(2, 6, b"torn");
        v1.extend_from_slice(&torn[..torn.len() - 3]);
        fs::write(&path, &v1).unwrap();
        let (records, valid) = read_journal(&path).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].payload, b"append");
        let mut w = JournalWriter::open_end(&path, valid, 6).unwrap();
        assert!(!path.with_extension("tmp").exists(), "tmp renamed away");
        let bytes = fs::read(&path).unwrap();
        assert!(bytes.starts_with(&JOURNAL_MAGIC));
        let (again, _) = read_journal(&path).unwrap();
        assert_eq!(again, records, "the v2 rewrite keeps every valid record");
        w.record(3, b"v2 record").unwrap();
        drop(w);
        let (records, _) = read_journal(&path).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!((records[2].seq, records[2].op), (6, 3));
        // `create` on a v1 file upgrades it the same way.
        fs::write(&path, &v1).unwrap();
        drop(JournalWriter::create(&path, 6).unwrap());
        assert_eq!(read_journal(&path).unwrap().0, again);
        assert!(fs::read(&path).unwrap().starts_with(&JOURNAL_MAGIC));
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
        // The sum covers every byte before it.
        let bytes = fs::read(&path).unwrap();
        let (body, sum) = bytes.split_at(bytes.len() - 8);
        assert_eq!(Reader::new(sum).u64().unwrap(), bytes::wordsum64(body));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_v1_snapshot_still_reads() {
        let dir = tmpdir("snap-v1");
        let path = dir.join(SNAPSHOT_FILE);
        let mut v1 = SNAPSHOT_MAGIC.to_vec();
        bytes::put_u32(&mut v1, 1);
        bytes::put_u64(&mut v1, 41);
        put_bytes(&mut v1, b"old state");
        let mut h = Fnv1a::new();
        h.write_u64(41);
        h.write(b"old state");
        bytes::put_u64(&mut v1, h.finish());
        fs::write(&path, &v1).unwrap();
        assert_eq!(
            read_snapshot(&path).unwrap(),
            Some((41, b"old state".to_vec()))
        );
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
    fn a_v2_snapshot_still_reads() {
        let dir = tmpdir("snap-v2");
        let path = dir.join(SNAPSHOT_FILE);
        let mut v2 = SNAPSHOT_MAGIC.to_vec();
        bytes::put_u32(&mut v2, 2);
        bytes::put_u64(&mut v2, 41);
        put_bytes(&mut v2, b"old state");
        let sum = bytes::wordsum64(&v2);
        bytes::put_u64(&mut v2, sum);
        fs::write(&path, &v2).unwrap();
        let snapshot = load_snapshot(&path).unwrap().unwrap();
        assert_eq!(
            (
                snapshot.version,
                snapshot.covered_seq,
                snapshot.body.as_slice()
            ),
            (2, 41, &b"old state"[..])
        );
        write_snapshot(&path, 42, b"new state").unwrap();
        assert_eq!(load_snapshot(&path).unwrap().unwrap().version, 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_bodies_carry_block_references_from_v3() {
        let refs = [BlockRef { id: 2, seq: 9 }, BlockRef { id: 5, seq: 4 }];
        let mut body = Vec::new();
        put_snapshot_body(
            &mut body,
            "t",
            |out| -> Result<(), ()> {
                out.extend_from_slice(b"state");
                Ok(())
            },
            &refs,
        )
        .unwrap();
        let parts = SnapshotBody::parse(3, &body).unwrap();
        assert_eq!(
            (parts.name.as_str(), parts.state, parts.blocks.as_deref()),
            ("t", &b"state"[..], Some(&refs[..]))
        );
        // A v1/v2 body is the name and the state alone.
        let legacy = &body[..body.len() - 8 - 2 * 16];
        let parts = SnapshotBody::parse(2, legacy).unwrap();
        assert_eq!((parts.state, parts.blocks), (&b"state"[..], None));
        assert!(SnapshotBody::parse(3, legacy).is_err());
        assert!(SnapshotBody::parse(4, &body).is_err());
        // References must come in ascending id order.
        let mut swapped = Vec::new();
        put_snapshot_body(&mut swapped, "t", |_| Ok::<(), ()>(()), &[refs[1], refs[0]]).unwrap();
        assert!(SnapshotBody::parse(3, &swapped).is_err());
    }

    #[test]
    fn segment_names_round_trip_and_list_in_order() {
        for n in [0u64, 1, 9, 10, 123_456] {
            assert_eq!(segment_number(&segment_file(n)), Some(n));
        }
        assert_eq!(segment_file(0), JOURNAL_FILE);
        for name in [
            "journal.0.bin",
            "journal.01.bin",
            "journal.x.bin",
            "journal.tmp",
        ] {
            assert_eq!(segment_number(name), None, "{name}");
        }
        let dir = tmpdir("segments");
        for name in [
            "journal.10.bin",
            JOURNAL_FILE,
            "journal.2.bin",
            SNAPSHOT_FILE,
            "journal.01.bin",
        ] {
            fs::write(dir.join(name), b"").unwrap();
        }
        assert_eq!(list_segments(&dir).unwrap(), [0, 2, 10]);
        assert!(list_segments(&dir.join("absent")).unwrap().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_segment_reads_its_records_in_place_with_their_offsets() {
        let dir = tmpdir("segment-read");
        let path = dir.join(segment_file(3));
        let mut w = JournalWriter::create(&path, 7).unwrap();
        w.record(2, b"first").unwrap();
        w.record(5, b"second payload").unwrap();
        assert_eq!(w.file_len(), fs::metadata(&path).unwrap().len());
        drop(w);
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(b"torn");
        fs::write(&path, &bytes).unwrap();
        let segment = read_segment(&path).unwrap();
        let got: Vec<(u64, u8, u64, &[u8])> = segment
            .records()
            .map(|r| (r.seq, r.op, r.offset, r.payload))
            .collect();
        let second = MAGIC_LEN + (RECORD_OVERHEAD + 5) as u64;
        assert_eq!(segment.records().next().unwrap().end(), second);
        assert_eq!(
            got,
            [
                (7, 2, MAGIC_LEN, &b"first"[..]),
                (8, 5, second, &b"second payload"[..])
            ]
        );
        assert_eq!(segment.valid_len() + 4, segment.file_len());
        assert_eq!(read_segment(&dir.join("absent")).unwrap().file_len(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn the_probe_sees_every_file_operation_in_order() {
        let dir = tmpdir("probe");
        let seen = std::rc::Rc::new(RefCell::new(Vec::new()));
        let log = std::rc::Rc::clone(&seen);
        with_op_probe(
            move |op, path| {
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                log.borrow_mut().push(format!("{op} {name}"));
            },
            || {
                let mut w = JournalWriter::create(&dir.join(segment_file(1)), 0).unwrap();
                w.record(1, b"a").unwrap();
                write_snapshot(&dir.join(SNAPSHOT_FILE), 0, b"s").unwrap();
                delete_file(&dir.join(segment_file(1))).unwrap();
                delete_file(&dir.join(segment_file(1))).unwrap();
            },
        );
        assert_eq!(
            *seen.borrow(),
            [
                "open segment journal.1.bin",
                "record journal.1.bin",
                "write tmp snapshot.tmp",
                "rename snapshot.bin",
                "delete journal.1.bin",
            ]
        );
        // Disarmed once the body returns.
        write_snapshot(&dir.join(SNAPSHOT_FILE), 1, b"t").unwrap();
        assert_eq!(seen.borrow().len(), 5);
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
