//! Per-session write-ahead journal for `cad serve`.
//!
//! Every detection session appends one record per lifecycle step —
//! create (the session spec), push (the edge delta vs the previous
//! instance, in the `.cadpack` delta codec), delete — to CRC-framed
//! segment files under `<journal-dir>/<session-id>/`. On boot the serve
//! layer replays each journal to rebuild the session *bit-identically*:
//! the stream state is a pure function of the spec plus the pushed
//! graphs, so replaying the deltas through the same code path
//! reproduces every subsequent result exactly.
//!
//! This crate owns the *mechanics* — framing, segments, fsync policy,
//! torn-tail recovery, checkpoint compaction — and treats payloads as
//! opaque bytes. What goes *in* the payloads (spec JSON, edge deltas,
//! checkpoint state) is the serve layer's business.
//!
//! # On-disk format
//!
//! A segment file is a 32-byte header followed by frames:
//!
//! ```text
//! header:  magic "CADJRNL\0" · version u32 LE · session id u64 LE ·
//!          segment seq u32 LE · prev segment length u64 LE
//! frame:   kind u8 · payload len u32 LE · payload · crc32(kind‖len‖payload) u32 LE
//! ```
//!
//! `prev segment length` is the sealed byte length of the preceding
//! segment (0 for a journal's first segment and for checkpoint
//! segments, which start a new chain). Recovery checks the link, so a
//! *sealed* segment that lost bytes — even a loss that happens to end
//! exactly on a frame boundary — is detected as corruption rather than
//! read as a silently shorter stream.
//!
//! Appends go to the highest-numbered segment; once it exceeds
//! [`JournalConfig::max_segment_bytes`] the writer fsyncs it (sealing
//! it) and rotates to a fresh segment. Compaction writes a new segment
//! containing a single [`RecordKind::Checkpoint`] frame via
//! write-then-rename, then drops the older segments; recovery starts at
//! the newest segment whose first frame is a checkpoint, so a crash at
//! any point between the rename and the deletions only leaves stale
//! segments behind (cleaned up on the next recovery).
//!
//! # Torn-tail rule
//!
//! A crash can truncate the final frame of the *last* segment
//! mid-write. Recovery drops that incomplete frame (the record was
//! never acknowledged) and succeeds with the clean prefix, counting
//! `journal.torn_tails`. Anything else — a bad CRC on a complete frame,
//! a truncated *interior* segment, a header byte flip — is corruption,
//! and recovery fails hard with the file and byte offset.

#![warn(missing_docs)]

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use cad_obs::{Counter, Hist};
use cad_store::crc::crc32;

/// First eight bytes of every segment file.
pub const MAGIC: &[u8; 8] = b"CADJRNL\0";
/// Current on-disk format version.
pub const FORMAT_VERSION: u32 = 1;
/// Segment header length: magic + version + session id + segment seq +
/// previous segment length.
pub const HEADER_LEN: usize = 8 + 4 + 8 + 4 + 8;
/// Frame overhead around the payload: kind + length + CRC.
pub const FRAME_OVERHEAD: usize = 1 + 4 + 4;

/// What a journal record describes. Stored as the frame's `kind` byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// Session creation; payload is the resolved session spec.
    Create = 1,
    /// One pushed instance; payload is the `.cadpack` edge delta from
    /// the previous instance (or from the empty graph for the first).
    Delta = 2,
    /// Session deletion; empty payload. Terminal.
    Delete = 3,
    /// Full-state checkpoint written by compaction; replay resumes here
    /// instead of from the original create.
    Checkpoint = 4,
}

impl RecordKind {
    /// Stable lowercase name (inspect output).
    pub fn name(self) -> &'static str {
        match self {
            RecordKind::Create => "create",
            RecordKind::Delta => "delta",
            RecordKind::Delete => "delete",
            RecordKind::Checkpoint => "checkpoint",
        }
    }

    fn from_u8(b: u8) -> Option<RecordKind> {
        match b {
            1 => Some(RecordKind::Create),
            2 => Some(RecordKind::Delta),
            3 => Some(RecordKind::Delete),
            4 => Some(RecordKind::Checkpoint),
            _ => None,
        }
    }
}

/// One recovered record: kind plus owned payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// What the record describes.
    pub kind: RecordKind,
    /// Opaque payload (interpreted by the serve layer).
    pub payload: Vec<u8>,
}

/// When the writer issues `fsync` after an append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// After every record — an acknowledged record survives power loss.
    Always,
    /// After every `n`-th record: bounded loss window, amortized cost.
    EveryN(u32),
    /// Never (the OS flushes when it pleases). Rotation and compaction
    /// still sync, so sealed segments are durable under every policy.
    Never,
}

impl FsyncPolicy {
    /// Stable name: `always`, `never`, or `every-N`.
    pub fn name(self) -> String {
        match self {
            FsyncPolicy::Always => "always".into(),
            FsyncPolicy::Never => "never".into(),
            FsyncPolicy::EveryN(n) => format!("every-{n}"),
        }
    }

    /// Parse a [`FsyncPolicy::name`] back (CLI `--journal-fsync`).
    pub fn from_name(s: &str) -> Option<FsyncPolicy> {
        match s {
            "always" => Some(FsyncPolicy::Always),
            "never" => Some(FsyncPolicy::Never),
            _ => {
                let n: u32 = s.strip_prefix("every-")?.parse().ok()?;
                if n == 0 {
                    None
                } else {
                    Some(FsyncPolicy::EveryN(n))
                }
            }
        }
    }
}

/// Writer tuning: durability policy, rotation and compaction triggers.
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// When appends reach the platter (default [`FsyncPolicy::Always`]).
    pub fsync: FsyncPolicy,
    /// Rotate to a new segment once the current one exceeds this
    /// (default 64 KiB).
    pub max_segment_bytes: u64,
    /// Compaction trigger: more than this many segments (default 4).
    pub compact_segments: usize,
    /// Compaction trigger: more than this many total bytes (default
    /// 8 MiB).
    pub compact_bytes: u64,
}

impl Default for JournalConfig {
    fn default() -> Self {
        JournalConfig {
            fsync: FsyncPolicy::Always,
            max_segment_bytes: 64 * 1024,
            compact_segments: 4,
            compact_bytes: 8 * 1024 * 1024,
        }
    }
}

/// Why a journal could not be read back.
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem failure (open/read/rename/remove).
    Io(io::Error),
    /// The bytes are there but wrong: bad magic, bad CRC, truncated
    /// interior segment, impossible record kind. `offset` is where in
    /// `path` the damage starts.
    Corrupt {
        /// Segment file containing the damage.
        path: PathBuf,
        /// Byte offset of the rejected header/frame within that file.
        offset: u64,
        /// Human-readable diagnosis.
        what: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal io error: {e}"),
            JournalError::Corrupt { path, offset, what } => {
                write!(
                    f,
                    "corrupt journal segment {} at byte {offset}: {what}",
                    path.display()
                )
            }
        }
    }
}

impl std::error::Error for JournalError {}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io(e)
    }
}

fn corrupt(path: &Path, offset: u64, what: impl Into<String>) -> JournalError {
    JournalError::Corrupt {
        path: path.to_path_buf(),
        offset,
        what: what.into(),
    }
}

fn segment_file_name(seq: u32) -> String {
    format!("seg-{seq:08}.cadj")
}

fn segment_header(session_id: u64, seq: u32, prev_len: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&session_id.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&prev_len.to_le_bytes());
    out
}

/// Frame a record: `kind · len u32 LE · payload · crc32(kind‖len‖payload)`.
fn encode_frame(kind: RecordKind, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_OVERHEAD + payload.len());
    out.push(kind as u8);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Best-effort directory fsync so renames/creates/unlinks are durable.
fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Append-side handle to one session's journal directory.
///
/// All methods take `&mut self`; `cad-serve` keeps the handle inside
/// the session mutex, so appends are serialized with the pushes they
/// describe.
#[derive(Debug)]
pub struct SessionJournal {
    dir: PathBuf,
    session_id: u64,
    file: File,
    seg_seq: u32,
    seg_bytes: u64,
    n_segments: usize,
    total_bytes: u64,
    unsynced: u32,
    cfg: JournalConfig,
}

impl SessionJournal {
    /// Start a brand-new journal for `session_id` under `root`.
    ///
    /// Fails if the session directory already contains a first segment
    /// (ids are never reused; an existing journal means a caller bug).
    pub fn create(root: &Path, session_id: u64, cfg: JournalConfig) -> io::Result<SessionJournal> {
        let dir = root.join(session_id.to_string());
        fs::create_dir_all(&dir)?;
        let path = dir.join(segment_file_name(1));
        let mut file = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)?;
        let header = segment_header(session_id, 1, 0);
        file.write_all(&header)?;
        file.sync_all()?;
        sync_dir(&dir)?;
        cad_obs::count(Counter::JournalBytesWritten, header.len() as u64);
        Ok(SessionJournal {
            dir,
            session_id,
            file,
            seg_seq: 1,
            seg_bytes: HEADER_LEN as u64,
            n_segments: 1,
            total_bytes: HEADER_LEN as u64,
            unsynced: 0,
            cfg,
        })
    }

    /// Reopen a recovered journal for appending. Truncates the torn
    /// tail (if any) off the last segment so new frames start at the
    /// clean prefix.
    pub fn open(
        root: &Path,
        cfg: JournalConfig,
        rec: &RecoveredJournal,
    ) -> io::Result<SessionJournal> {
        let dir = root.join(rec.session_id.to_string());
        let path = dir.join(segment_file_name(rec.last_seg_seq));
        let file = OpenOptions::new().append(true).open(&path)?;
        if file.metadata()?.len() != rec.last_seg_clean_len {
            file.set_len(rec.last_seg_clean_len)?;
            file.sync_all()?;
        }
        Ok(SessionJournal {
            dir,
            session_id: rec.session_id,
            file,
            seg_seq: rec.last_seg_seq,
            seg_bytes: rec.last_seg_clean_len,
            n_segments: rec.n_segments,
            total_bytes: rec.total_bytes,
            unsynced: 0,
            cfg,
        })
    }

    /// The session this journal belongs to.
    pub fn session_id(&self) -> u64 {
        self.session_id
    }

    /// Segments currently on disk.
    pub fn n_segments(&self) -> usize {
        self.n_segments
    }

    /// Total bytes across all segments.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Append one record, honouring the fsync policy, rotating the
    /// segment when it outgrows [`JournalConfig::max_segment_bytes`].
    ///
    /// A failed append is cut back off the segment (best effort: the
    /// truncation can fail too), so a record reported as not written is
    /// not replayed either.
    pub fn append(&mut self, kind: RecordKind, payload: &[u8]) -> io::Result<()> {
        let (seg_bytes, total_bytes) = (self.seg_bytes, self.total_bytes);
        let written = self.write_record(kind, payload);
        if written.is_err() {
            self.seg_bytes = seg_bytes;
            self.total_bytes = total_bytes;
            let _ = self
                .file
                .set_len(seg_bytes)
                .and_then(|()| self.file.sync_all())
                .and_then(|()| self.file.seek(SeekFrom::Start(seg_bytes)));
        }
        written
    }

    fn write_record(&mut self, kind: RecordKind, payload: &[u8]) -> io::Result<()> {
        let frame = encode_frame(kind, payload);
        let t0 = Instant::now();
        self.file.write_all(&frame)?;
        cad_obs::observe(Hist::JournalAppendSecs, t0.elapsed().as_secs_f64());
        cad_obs::count(Counter::JournalAppends, 1);
        cad_obs::count(Counter::JournalBytesWritten, frame.len() as u64);
        self.seg_bytes += frame.len() as u64;
        self.total_bytes += frame.len() as u64;
        match self.cfg.fsync {
            FsyncPolicy::Always => self.sync()?,
            FsyncPolicy::EveryN(n) => {
                self.unsynced += 1;
                if self.unsynced >= n {
                    self.sync()?;
                }
            }
            FsyncPolicy::Never => {}
        }
        if self.seg_bytes >= self.cfg.max_segment_bytes {
            self.rotate()?;
        }
        Ok(())
    }

    /// Force the current segment to disk regardless of policy.
    pub fn sync(&mut self) -> io::Result<()> {
        let t0 = Instant::now();
        self.file.sync_all()?;
        cad_obs::observe(Hist::JournalFsyncSecs, t0.elapsed().as_secs_f64());
        self.unsynced = 0;
        Ok(())
    }

    /// Seal the current segment (fsync — sealed segments are durable
    /// under every policy, keeping the torn-tail rule confined to the
    /// last segment) and start the next one.
    fn rotate(&mut self) -> io::Result<()> {
        self.sync()?;
        let seq = self.seg_seq + 1;
        let path = self.dir.join(segment_file_name(seq));
        let mut file = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)?;
        let header = segment_header(self.session_id, seq, self.seg_bytes);
        if let Err(e) = file.write_all(&header).and_then(|()| sync_dir(&self.dir)) {
            // `append` cuts the record back off the sealed segment, so
            // this successor's back-link would be wrong: take it away.
            let _ = fs::remove_file(&path);
            return Err(e);
        }
        cad_obs::count(Counter::JournalBytesWritten, header.len() as u64);
        self.file = file;
        self.seg_seq = seq;
        self.seg_bytes = HEADER_LEN as u64;
        self.total_bytes += HEADER_LEN as u64;
        self.n_segments += 1;
        Ok(())
    }

    /// True once the segment-count or byte threshold is crossed.
    pub fn needs_compaction(&self) -> bool {
        self.n_segments > self.cfg.compact_segments || self.total_bytes > self.cfg.compact_bytes
    }

    /// Replace the whole journal with a single checkpoint record.
    ///
    /// The checkpoint segment is written complete to a `.tmp` file,
    /// fsynced, then renamed into place — only after that are the old
    /// segments unlinked. Recovery starts at the newest
    /// checkpoint-first segment, so a crash anywhere in this sequence
    /// leaves a readable journal (at worst with stale segments pending
    /// cleanup).
    pub fn compact(&mut self, checkpoint: &[u8]) -> io::Result<()> {
        let t0 = Instant::now();
        let old_first = self.seg_seq + 1 - self.n_segments as u32;
        let seq = self.seg_seq + 1;
        // Make everything the checkpoint supersedes durable first, so a
        // lagging fsync policy cannot lose acknowledged records that
        // the deletions below would otherwise take with them.
        self.sync()?;
        let final_path = self.dir.join(segment_file_name(seq));
        let tmp_path = final_path.with_extension("cadj.tmp");
        // A checkpoint segment starts a fresh chain: its predecessors
        // are about to be unlinked, so the back-link is zero.
        let mut bytes = segment_header(self.session_id, seq, 0);
        bytes.extend_from_slice(&encode_frame(RecordKind::Checkpoint, checkpoint));
        let mut tmp = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp_path)?;
        tmp.write_all(&bytes)?;
        tmp.sync_all()?;
        fs::rename(&tmp_path, &final_path)?;
        sync_dir(&self.dir)?;
        for old in old_first..=self.seg_seq {
            fs::remove_file(self.dir.join(segment_file_name(old)))?;
        }
        sync_dir(&self.dir)?;
        cad_obs::count(Counter::JournalBytesWritten, bytes.len() as u64);
        cad_obs::count(Counter::JournalCompactions, 1);
        cad_obs::events::record(
            cad_obs::EventKind::Compaction,
            "compaction",
            t0.elapsed().as_secs_f64(),
            self.session_id,
        );
        self.file = OpenOptions::new().append(true).open(&final_path)?;
        self.seg_seq = seq;
        self.seg_bytes = bytes.len() as u64;
        self.total_bytes = bytes.len() as u64;
        self.n_segments = 1;
        self.unsynced = 0;
        Ok(())
    }

    /// Tear the journal down after a session delete: rename the
    /// directory to `<id>.deleted` (atomic tombstone — recovery removes
    /// and ignores it), then remove it.
    pub fn destroy(self) -> io::Result<()> {
        let dir = self.dir.clone();
        drop(self);
        let tomb = dir.with_extension("deleted");
        fs::rename(&dir, &tomb)?;
        if let Some(parent) = tomb.parent() {
            let _ = sync_dir(parent);
        }
        fs::remove_dir_all(&tomb)
    }
}

/// Everything recovery learned about one session's journal.
#[derive(Debug, Clone)]
pub struct RecoveredJournal {
    /// Session the journal belongs to (directory name, verified against
    /// every segment header).
    pub session_id: u64,
    /// The logical record stream, starting at the newest checkpoint
    /// (or the original create when never compacted).
    pub records: Vec<Record>,
    /// A truncated final frame (or segment header) was dropped.
    pub torn_tail: bool,
    /// Sequence number of the last live segment (the append target).
    pub last_seg_seq: u32,
    /// Length of the valid prefix of that segment; reopening for append
    /// truncates the file to this.
    pub last_seg_clean_len: u64,
    /// Live segments on disk.
    pub n_segments: usize,
    /// Valid bytes across live segments.
    pub total_bytes: u64,
}

struct ParsedSegment {
    records: Vec<Record>,
    clean_len: u64,
    torn: bool,
    /// Header itself was truncated — the file holds no usable bytes.
    dropped: bool,
    /// The header's back-link: sealed byte length of the predecessor.
    prev_len: u64,
}

fn parse_segment(
    path: &Path,
    bytes: &[u8],
    session_id: u64,
    seq: u32,
    is_last: bool,
) -> Result<ParsedSegment, JournalError> {
    if bytes.len() < HEADER_LEN {
        if is_last {
            return Ok(ParsedSegment {
                records: Vec::new(),
                clean_len: 0,
                torn: true,
                dropped: true,
                prev_len: 0,
            });
        }
        return Err(corrupt(path, 0, "truncated header in interior segment"));
    }
    if &bytes[..8] != MAGIC {
        return Err(corrupt(path, 0, "bad magic"));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(corrupt(path, 8, format!("unsupported version {version}")));
    }
    let sid = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    if sid != session_id {
        return Err(corrupt(
            path,
            12,
            format!("session id {sid} != {session_id}"),
        ));
    }
    let hseq = u32::from_le_bytes(bytes[20..24].try_into().expect("4 bytes"));
    if hseq != seq {
        return Err(corrupt(path, 20, format!("segment seq {hseq} != {seq}")));
    }
    let prev_len = u64::from_le_bytes(bytes[24..32].try_into().expect("8 bytes"));

    let mut records = Vec::new();
    let mut offset = HEADER_LEN;
    loop {
        let remaining = bytes.len() - offset;
        if remaining == 0 {
            return Ok(ParsedSegment {
                records,
                clean_len: offset as u64,
                torn: false,
                dropped: false,
                prev_len,
            });
        }
        let complete = remaining >= 5 && {
            let len = u32::from_le_bytes(bytes[offset + 1..offset + 5].try_into().expect("4"));
            remaining >= FRAME_OVERHEAD + len as usize
        };
        if !complete {
            // The bytes stop mid-frame. Tolerated at the tail of the
            // last segment only: the record was never acknowledged.
            if is_last {
                return Ok(ParsedSegment {
                    records,
                    clean_len: offset as u64,
                    torn: true,
                    dropped: false,
                    prev_len,
                });
            }
            return Err(corrupt(
                path,
                offset as u64,
                "truncated frame in interior segment",
            ));
        }
        let len = u32::from_le_bytes(bytes[offset + 1..offset + 5].try_into().expect("4")) as usize;
        let body = &bytes[offset..offset + 5 + len];
        let stored = u32::from_le_bytes(
            bytes[offset + 5 + len..offset + FRAME_OVERHEAD + len]
                .try_into()
                .expect("4"),
        );
        let computed = crc32(body);
        if stored != computed {
            return Err(corrupt(
                path,
                offset as u64,
                format!("frame crc mismatch ({stored:08x} != {computed:08x})"),
            ));
        }
        let kind = RecordKind::from_u8(bytes[offset]).ok_or_else(|| {
            corrupt(
                path,
                offset as u64,
                format!("unknown record kind {}", bytes[offset]),
            )
        })?;
        records.push(Record {
            kind,
            payload: body[5..].to_vec(),
        });
        offset += FRAME_OVERHEAD + len;
    }
}

/// `(seq, path)` for every `seg-*.cadj` in `dir`, ascending; removes
/// leftover `*.tmp` files from an interrupted compaction.
fn list_segments(dir: &Path) -> Result<Vec<(u32, PathBuf)>, JournalError> {
    let mut segs = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy().into_owned();
        if name.ends_with(".tmp") {
            fs::remove_file(entry.path())?;
            continue;
        }
        let seq = name
            .strip_prefix("seg-")
            .and_then(|s| s.strip_suffix(".cadj"))
            .and_then(|s| s.parse::<u32>().ok());
        match seq {
            Some(seq) => segs.push((seq, entry.path())),
            None => {
                return Err(corrupt(
                    &entry.path(),
                    0,
                    "unexpected file in journal directory",
                ))
            }
        }
    }
    segs.sort_unstable_by_key(|&(seq, _)| seq);
    Ok(segs)
}

fn peek_is_checkpoint(path: &Path) -> bool {
    let mut buf = [0u8; HEADER_LEN + 1];
    match File::open(path).and_then(|mut f| f.read_exact(&mut buf)) {
        Ok(()) => &buf[..8] == MAGIC && buf[HEADER_LEN] == RecordKind::Checkpoint as u8,
        Err(_) => false,
    }
}

/// Read one session's journal back, tolerating a torn tail and cleaning
/// up compaction leftovers (stale pre-checkpoint segments, `.tmp`
/// files, a fully-torn trailing segment file).
///
/// Hard-errors with file + offset on any damage that is not a
/// truncated tail of the last segment.
pub fn recover_session(dir: &Path) -> Result<RecoveredJournal, JournalError> {
    let session_id: u64 = dir
        .file_name()
        .and_then(|n| n.to_str())
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| corrupt(dir, 0, "journal directory name is not a session id"))?;
    let mut segs = list_segments(dir)?;
    if segs.is_empty() {
        return Err(corrupt(dir, 0, "journal directory has no segments"));
    }
    // Compaction may have crashed between renaming the checkpoint
    // segment and unlinking its predecessors: resume from the newest
    // checkpoint-first segment and drop everything older.
    let start = segs
        .iter()
        .rposition(|(_, path)| peek_is_checkpoint(path))
        .unwrap_or(0);
    for (_, path) in segs.drain(..start) {
        fs::remove_file(path)?;
    }
    for (expect, (seq, path)) in segs.iter().enumerate() {
        let want = segs[0].0 + expect as u32;
        if *seq != want {
            return Err(corrupt(path, 0, format!("missing segment {want}")));
        }
    }

    let mut records = Vec::new();
    let mut torn_tail = false;
    let mut total_bytes = 0u64;
    let mut live: Vec<(u32, u64)> = Vec::new(); // (seq, clean_len)
    let last = segs.len() - 1;
    for (i, (seq, path)) in segs.iter().enumerate() {
        let bytes = fs::read(path)?;
        let parsed = parse_segment(path, &bytes, session_id, *seq, i == last)?;
        if parsed.torn {
            torn_tail = true;
            cad_obs::count(Counter::JournalTornTails, 1);
            cad_obs::events::record(cad_obs::EventKind::Recovery, "torn_tail", 0.0, session_id);
        }
        if parsed.dropped {
            // Not even a full header made it out: the file carries
            // nothing. Remove it and append to its predecessor.
            fs::remove_file(path)?;
            continue;
        }
        // The back-link makes sealed-segment truncation detectable even
        // when the loss ends exactly on a frame boundary.
        let expect_prev = live.last().map_or(0, |&(_, len)| len);
        if parsed.prev_len != expect_prev {
            return Err(corrupt(
                path,
                24,
                format!(
                    "previous segment length {expect_prev} does not match back-link {}",
                    parsed.prev_len
                ),
            ));
        }
        records.extend(parsed.records);
        total_bytes += parsed.clean_len;
        live.push((*seq, parsed.clean_len));
    }
    let (last_seg_seq, last_seg_clean_len) = match live.last() {
        Some(&(seq, len)) => (seq, len),
        None => {
            // The only segment was dropped; nothing usable remains.
            return Err(corrupt(dir, 0, "journal directory has no segments"));
        }
    };
    if let Some(first) = records.first() {
        if first.kind != RecordKind::Create && first.kind != RecordKind::Checkpoint {
            return Err(corrupt(
                &dir.join(segment_file_name(live[0].0)),
                HEADER_LEN as u64,
                format!("journal starts with {} record", first.kind.name()),
            ));
        }
    }
    Ok(RecoveredJournal {
        session_id,
        records,
        torn_tail,
        last_seg_seq,
        last_seg_clean_len,
        n_segments: live.len(),
        total_bytes,
    })
}

/// Recover every session journal under `root`, ascending by session id.
///
/// Housekeeping on the way: `*.deleted` tombstones and empty or
/// record-less session directories (a create that crashed before its
/// first record was acknowledged) are removed and not reported.
/// Journals whose stream ends in a [`RecordKind::Delete`] are likewise
/// removed — the deletion was acknowledged, so recovery honours it.
pub fn recover_root(root: &Path) -> Result<Vec<RecoveredJournal>, JournalError> {
    let mut out = Vec::new();
    for entry in fs::read_dir(root)? {
        let entry = entry?;
        if !entry.file_type()?.is_dir() {
            continue;
        }
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.ends_with(".deleted") {
            fs::remove_dir_all(entry.path())?;
            continue;
        }
        if name.parse::<u64>().is_err() {
            continue;
        }
        let dir = entry.path();
        if list_segments(&dir)?.is_empty() {
            fs::remove_dir_all(&dir)?;
            continue;
        }
        let rec = recover_session(&dir)?;
        if rec.records.is_empty() || rec.records.iter().any(|r| r.kind == RecordKind::Delete) {
            fs::remove_dir_all(&dir)?;
            continue;
        }
        out.push(rec);
    }
    out.sort_unstable_by_key(|r| r.session_id);
    Ok(out)
}

/// Read-only summary of one session's journal (for `cad journal
/// inspect`). Unlike [`recover_session`] this deletes nothing and
/// counts nothing.
#[derive(Debug, Clone)]
pub struct JournalInfo {
    /// Session the journal belongs to.
    pub session_id: u64,
    /// Live `(segment seq, bytes on disk)` pairs, ascending.
    pub segments: Vec<(u32, u64)>,
    /// Record counts: `[create, delta, delete, checkpoint]`.
    pub counts: [usize; 4],
    /// The last segment ends in a truncated frame.
    pub torn_tail: bool,
    /// Pre-checkpoint segments awaiting cleanup.
    pub stale_segments: usize,
}

/// Summarize every journal under `root` without modifying anything.
pub fn inspect_root(root: &Path) -> Result<Vec<JournalInfo>, JournalError> {
    let mut out = Vec::new();
    for entry in fs::read_dir(root)? {
        let entry = entry?;
        if !entry.file_type()?.is_dir() {
            continue;
        }
        let Some(session_id) = entry.file_name().to_string_lossy().parse::<u64>().ok() else {
            continue;
        };
        let dir = entry.path();
        let mut segs = Vec::new();
        for e in fs::read_dir(&dir)? {
            let e = e?;
            let name = e.file_name();
            let name = name.to_string_lossy().into_owned();
            if let Some(seq) = name
                .strip_prefix("seg-")
                .and_then(|s| s.strip_suffix(".cadj"))
                .and_then(|s| s.parse::<u32>().ok())
            {
                segs.push((seq, e.path()));
            }
        }
        segs.sort_unstable_by_key(|&(seq, _)| seq);
        let start = segs
            .iter()
            .rposition(|(_, path)| peek_is_checkpoint(path))
            .unwrap_or(0);
        let mut info = JournalInfo {
            session_id,
            segments: Vec::new(),
            counts: [0; 4],
            torn_tail: false,
            stale_segments: start,
        };
        let last = segs.len().saturating_sub(1);
        for (i, (seq, path)) in segs.iter().enumerate().skip(start) {
            let bytes = fs::read(path)?;
            let parsed = parse_segment(path, &bytes, session_id, *seq, i == last)?;
            info.torn_tail |= parsed.torn;
            if parsed.dropped {
                continue;
            }
            for r in &parsed.records {
                info.counts[match r.kind {
                    RecordKind::Create => 0,
                    RecordKind::Delta => 1,
                    RecordKind::Delete => 2,
                    RecordKind::Checkpoint => 3,
                }] += 1;
            }
            info.segments.push((*seq, bytes.len() as u64));
        }
        out.push(info);
    }
    out.sort_unstable_by_key(|i| i.session_id);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp() -> PathBuf {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let id = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("cad-journal-test-{}-{id}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn fast_cfg() -> JournalConfig {
        JournalConfig {
            fsync: FsyncPolicy::Never,
            ..JournalConfig::default()
        }
    }

    fn record(kind: RecordKind, payload: &[u8]) -> Record {
        Record {
            kind,
            payload: payload.to_vec(),
        }
    }

    #[test]
    fn fsync_policy_names_round_trip() {
        for p in [
            FsyncPolicy::Always,
            FsyncPolicy::Never,
            FsyncPolicy::EveryN(8),
        ] {
            assert_eq!(FsyncPolicy::from_name(&p.name()), Some(p));
        }
        assert_eq!(FsyncPolicy::from_name("every-0"), None);
        assert_eq!(FsyncPolicy::from_name("sometimes"), None);
    }

    #[test]
    fn append_recover_round_trips() {
        let root = tmp();
        let mut j = SessionJournal::create(&root, 7, fast_cfg()).unwrap();
        j.append(RecordKind::Create, b"spec").unwrap();
        j.append(RecordKind::Delta, b"d1").unwrap();
        j.append(RecordKind::Delta, b"").unwrap();
        j.sync().unwrap();

        let rec = recover_session(&root.join("7")).unwrap();
        assert_eq!(rec.session_id, 7);
        assert!(!rec.torn_tail);
        assert_eq!(
            rec.records,
            vec![
                record(RecordKind::Create, b"spec"),
                record(RecordKind::Delta, b"d1"),
                record(RecordKind::Delta, b""),
            ]
        );

        // Reopen and keep appending; the tail picks up where it left off.
        let mut j = SessionJournal::open(&root, fast_cfg(), &rec).unwrap();
        j.append(RecordKind::Delta, b"d3").unwrap();
        j.sync().unwrap();
        let rec = recover_session(&root.join("7")).unwrap();
        assert_eq!(rec.records.len(), 4);
        assert_eq!(rec.records[3], record(RecordKind::Delta, b"d3"));
    }

    #[test]
    fn rotation_spreads_records_across_segments() {
        let root = tmp();
        let cfg = JournalConfig {
            max_segment_bytes: 64,
            ..fast_cfg()
        };
        let mut j = SessionJournal::create(&root, 3, cfg).unwrap();
        j.append(RecordKind::Create, &[b'x'; 40]).unwrap();
        for i in 0..5 {
            j.append(RecordKind::Delta, &[i; 40]).unwrap();
        }
        assert!(j.n_segments() > 1);
        let rec = recover_session(&root.join("3")).unwrap();
        assert_eq!(rec.records.len(), 6);
        assert_eq!(rec.n_segments, j.n_segments());
        assert!(j.needs_compaction());
    }

    #[test]
    fn failed_append_is_cut_back_off_and_not_recovered() {
        let root = tmp();
        let cfg = JournalConfig {
            max_segment_bytes: 1,
            ..fast_cfg()
        };
        // Every append rotates: the create and one delta leave segment 3
        // holding only its header.
        let mut j = SessionJournal::create(&root, 4, cfg).unwrap();
        j.append(RecordKind::Create, b"spec").unwrap();
        j.append(RecordKind::Delta, b"d1").unwrap();
        assert_eq!(j.n_segments(), 3);
        // A file already holding segment 4's name fails the rotation
        // after the frame reached segment 3.
        let blocker = root.join("4").join(segment_file_name(4));
        File::create(&blocker).unwrap();
        assert!(j.append(RecordKind::Delta, b"d2").is_err());
        assert_eq!(
            fs::metadata(&blocker).unwrap().len(),
            0,
            "not ours to touch"
        );
        let seg3 = root.join("4").join(segment_file_name(3));
        assert_eq!(fs::metadata(seg3).unwrap().len(), HEADER_LEN as u64);

        // Recovery drops the empty blocker and replays what was appended.
        let rec = recover_session(&root.join("4")).unwrap();
        assert_eq!(
            rec.records,
            vec![
                record(RecordKind::Create, b"spec"),
                record(RecordKind::Delta, b"d1"),
            ]
        );
    }

    #[test]
    fn compaction_replaces_history_with_checkpoint() {
        let root = tmp();
        let mut j = SessionJournal::create(&root, 9, fast_cfg()).unwrap();
        j.append(RecordKind::Create, b"spec").unwrap();
        j.append(RecordKind::Delta, b"d1").unwrap();
        j.compact(b"state-after-d1").unwrap();
        j.append(RecordKind::Delta, b"d2").unwrap();
        j.sync().unwrap();

        let rec = recover_session(&root.join("9")).unwrap();
        assert_eq!(
            rec.records,
            vec![
                record(RecordKind::Checkpoint, b"state-after-d1"),
                record(RecordKind::Delta, b"d2"),
            ]
        );
        assert_eq!(rec.n_segments, 1);

        // A stale pre-checkpoint segment left by a crashed compaction is
        // dropped on recovery.
        let stale = root.join("9").join(segment_file_name(1));
        let mut f = File::create(&stale).unwrap();
        f.write_all(&segment_header(9, 1, 0)).unwrap();
        f.write_all(&encode_frame(RecordKind::Create, b"old"))
            .unwrap();
        drop(f);
        let rec = recover_session(&root.join("9")).unwrap();
        assert_eq!(rec.records.len(), 2);
        assert!(!stale.exists(), "stale segment cleaned up");
    }

    #[test]
    fn destroy_leaves_no_trace_and_delete_record_is_honoured() {
        let root = tmp();
        let mut j = SessionJournal::create(&root, 5, fast_cfg()).unwrap();
        j.append(RecordKind::Create, b"spec").unwrap();
        j.append(RecordKind::Delete, b"").unwrap();
        j.destroy().unwrap();
        assert!(!root.join("5").exists());

        // A journal whose stream ends in Delete (destroy crashed) is
        // removed by recover_root rather than resurrected.
        let mut j = SessionJournal::create(&root, 6, fast_cfg()).unwrap();
        j.append(RecordKind::Create, b"spec").unwrap();
        j.append(RecordKind::Delete, b"").unwrap();
        j.sync().unwrap();
        drop(j);
        let recovered = recover_root(&root).unwrap();
        assert!(recovered.is_empty());
        assert!(!root.join("6").exists());
    }

    #[test]
    fn recover_root_skips_and_removes_crashed_creates() {
        let root = tmp();
        // Directory with no segments: a create that crashed after mkdir.
        fs::create_dir_all(root.join("11")).unwrap();
        // Directory whose only record stream is empty (header only).
        fs::create_dir_all(root.join("12")).unwrap();
        let mut f = File::create(root.join("12").join(segment_file_name(1))).unwrap();
        f.write_all(&segment_header(12, 1, 0)).unwrap();
        drop(f);
        // A healthy journal.
        let mut j = SessionJournal::create(&root, 13, fast_cfg()).unwrap();
        j.append(RecordKind::Create, b"spec").unwrap();
        j.sync().unwrap();
        drop(j);
        // A deletion tombstone.
        fs::create_dir_all(root.join("14.deleted")).unwrap();

        let recovered = recover_root(&root).unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].session_id, 13);
        assert!(!root.join("11").exists());
        assert!(!root.join("12").exists());
        assert!(!root.join("14.deleted").exists());
    }

    /// Build a two-segment journal and return (dir, all segment paths).
    fn corruption_fixture(root: &Path) -> (PathBuf, Vec<PathBuf>) {
        let cfg = JournalConfig {
            max_segment_bytes: 96,
            ..fast_cfg()
        };
        let mut j = SessionJournal::create(root, 21, cfg).unwrap();
        j.append(RecordKind::Create, b"the-session-spec").unwrap();
        j.append(RecordKind::Delta, &[1u8; 48]).unwrap();
        j.append(RecordKind::Delta, &[2u8; 48]).unwrap();
        j.append(RecordKind::Delta, b"tail-delta").unwrap();
        j.sync().unwrap();
        let dir = root.join("21");
        let segs: Vec<PathBuf> = list_segments(&dir)
            .unwrap()
            .into_iter()
            .map(|(_, p)| p)
            .collect();
        assert!(segs.len() >= 2, "fixture must span segments");
        (dir, segs)
    }

    #[test]
    fn every_single_byte_flip_is_rejected_or_cleanly_torn() {
        let root = tmp();
        let (dir, segs) = corruption_fixture(&root);
        let clean = recover_session(&dir).unwrap();
        let originals: Vec<Vec<u8>> = segs.iter().map(|p| fs::read(p).unwrap()).collect();
        let last = segs.len() - 1;

        for (si, path) in segs.iter().enumerate() {
            for pos in 0..originals[si].len() {
                for flip in [0x01u8, 0x80] {
                    let mut bytes = originals[si].clone();
                    bytes[pos] ^= flip;
                    fs::write(path, &bytes).unwrap();
                    match recover_session(&dir) {
                        Err(JournalError::Corrupt {
                            offset, path: p, ..
                        }) => {
                            assert_eq!(&p, path, "seg {si} byte {pos}");
                            assert!(
                                offset <= pos as u64,
                                "seg {si} byte {pos}: offset {offset} past the flip"
                            );
                        }
                        Ok(rec) => {
                            // The only acceptable acceptance: a flip in
                            // the final frame's length field that makes
                            // the last segment look truncated — the
                            // recovered stream must then be a strict
                            // clean prefix, never altered data.
                            assert_eq!(si, last, "interior flip at byte {pos} accepted");
                            assert!(
                                rec.torn_tail,
                                "flip at byte {pos} accepted without torn tail"
                            );
                            assert!(rec.records.len() < clean.records.len());
                            assert_eq!(
                                rec.records[..],
                                clean.records[..rec.records.len()],
                                "byte {pos}: surviving records altered"
                            );
                        }
                        Err(e) => panic!("seg {si} byte {pos}: unexpected error {e}"),
                    }
                }
            }
            fs::write(path, &originals[si]).unwrap();
        }
    }

    #[test]
    fn truncation_at_every_length_recovers_tail_or_rejects_interior() {
        let root = tmp();
        let (dir, segs) = corruption_fixture(&root);
        let clean = recover_session(&dir).unwrap();
        let originals: Vec<Vec<u8>> = segs.iter().map(|p| fs::read(p).unwrap()).collect();
        let last = segs.len() - 1;

        // Frame boundaries of the clean last segment. A cut exactly at
        // one is indistinguishable from the suffix never having been
        // written (a clean shorter journal); a cut anywhere else must
        // raise the torn-tail flag.
        let mut boundaries = vec![HEADER_LEN];
        {
            let b = &originals[last];
            let mut off = HEADER_LEN;
            while off < b.len() {
                let len = u32::from_le_bytes(b[off + 1..off + 5].try_into().unwrap()) as usize;
                off += FRAME_OVERHEAD + len;
                boundaries.push(off);
            }
        }

        // Truncating the LAST segment anywhere is tolerated: recovery
        // must succeed with a clean prefix of the record stream.
        for cut in 0..originals[last].len() {
            fs::write(&segs[last], &originals[last][..cut]).unwrap();
            let rec = recover_session(&dir)
                .unwrap_or_else(|e| panic!("tail truncation at {cut} must recover, got {e}"));
            assert!(rec.records.len() <= clean.records.len());
            assert_eq!(rec.records[..], clean.records[..rec.records.len()]);
            if boundaries.contains(&cut) {
                assert!(!rec.torn_tail, "cut {cut} at a boundary flagged torn");
            } else {
                assert!(rec.torn_tail, "cut {cut} lost bytes without the torn flag");
            }
            // recover_session deletes a header-torn file; restore it.
            fs::write(&segs[last], &originals[last]).unwrap();
        }

        // Truncating an INTERIOR segment is a hard error with an
        // offset — attributed to the truncated file itself, or (when
        // the cut lands exactly on a frame boundary) to the successor
        // whose header back-link exposes the missing bytes.
        for cut in 0..originals[0].len() {
            fs::write(&segs[0], &originals[0][..cut]).unwrap();
            match recover_session(&dir) {
                Err(JournalError::Corrupt { path, .. }) => {
                    assert!(path == segs[0] || path == segs[1], "cut {cut}: {path:?}")
                }
                other => panic!("interior truncation at {cut}: {other:?}"),
            }
        }
        fs::write(&segs[0], &originals[0]).unwrap();
        assert_eq!(recover_session(&dir).unwrap().records, clean.records);
    }

    #[test]
    fn inspect_reports_without_mutating() {
        let root = tmp();
        let mut j = SessionJournal::create(&root, 30, fast_cfg()).unwrap();
        j.append(RecordKind::Create, b"spec").unwrap();
        j.append(RecordKind::Delta, b"d1").unwrap();
        j.compact(b"ckpt").unwrap();
        j.append(RecordKind::Delta, b"d2").unwrap();
        j.sync().unwrap();
        // Leave a stale pre-checkpoint segment behind.
        let stale = root.join("30").join(segment_file_name(1));
        let mut f = File::create(&stale).unwrap();
        f.write_all(&segment_header(30, 1, 0)).unwrap();
        drop(f);

        let infos = inspect_root(&root).unwrap();
        assert_eq!(infos.len(), 1);
        let info = &infos[0];
        assert_eq!(info.session_id, 30);
        assert_eq!(info.counts, [0, 1, 0, 1]); // [create, delta, delete, checkpoint]
        assert_eq!(info.stale_segments, 1);
        assert!(!info.torn_tail);
        assert!(stale.exists(), "inspect must not clean up");
    }
}
