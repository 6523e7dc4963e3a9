//! Crash-safe checkpointing: a write-ahead journal plus BDD snapshots.
//!
//! A checkpoint directory holds three kinds of files:
//!
//! * `journal.bin` — an append-only **write-ahead journal**. After a fixed
//!   header (`b"STSYNJNL"` + version), every record is framed as
//!   `len:u32 | crc32(payload):u32 | payload` and written with one
//!   `write_all` before the run goes past it, so the journal always ends
//!   in a (possibly empty) valid prefix followed by at most one torn
//!   record. Readers stop at the first invalid frame and report the
//!   salvaged prefix with a warning — a torn or corrupted tail is
//!   *recovered from*, never panicked on.
//! * `rank-NNNNN.bdd` — one BDD snapshot per committed rank layer, in the
//!   [`stsyn_bdd`] dump format (versioned, checksummed). Snapshots are
//!   written to a temp file and atomically renamed into place.
//! * `lock` — holds the PID of the synthesizer owning the directory.
//!   A live PID refuses the takeover ([`CheckpointError::Locked`]); a
//!   stale one (crashed run) is detected and replaced with a warning.
//!
//! ## Durability
//!
//! The journal is a group commit with a two-level contract:
//!
//! * **Process death** (SIGKILL, panic, exit) loses no record: every
//!   record and snapshot is in the page cache before the run goes past it.
//! * **An OS crash** loses at most the records since the last sync, never
//!   a `Cut`. Syncs happen only at durability points — every `Cut`, and
//!   the first append a second or more after the last sync — and
//!   each one syncs the snapshots written since the last sync, then the
//!   directory, then the journal. What survives is a valid prefix, so a
//!   resume from it is byte-identical; a snapshot lost with it is
//!   recomputed.
//!
//! ## What gets journaled
//!
//! The heuristic's durable decision points are exactly the two kinds of
//! committed work named by the determinism argument in DESIGN.md:
//!
//! * each completed **rank layer** (`RankLayer` + snapshot file, then a
//!   final `RanksDone`), and
//! * each **accepted recovery group** (`Group` with the pass / rank /
//!   schedule-step coordinate and the full group descriptor), with a
//!   `StepDone` fence after every completed schedule step.
//!
//! On resume the journal is replayed against a freshly-rebuilt
//! [`SymbolicContext`]: completed rank layers are loaded from their
//! snapshots instead of recomputed, and every schedule step takes one
//! path — it re-applies the groups the journal holds for it (possibly
//! none), then, unless a `StepDone` fence marks it complete, runs live.
//! A completed step thus skips the scan/SCC work entirely, an interrupted
//! one continues where the crash cut it, and a step the journal never
//! reached runs as in an unchecked run. Because every journaled decision
//! is replayed in journal order and all symbolic state is canonical under
//! the recorded variable order, a resumed run produces a protocol
//! **bit-identical** to an uninterrupted one.

use crate::problem::Phase;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use stsyn_bdd::{crc32, Bdd, Manager};
use stsyn_protocol::group::GroupDesc;
use stsyn_protocol::ProcIdx;
use stsyn_symbolic::SymbolicContext;

/// Journal file name inside a checkpoint directory.
pub const JOURNAL_FILE: &str = "journal.bin";
/// Lock file name inside a checkpoint directory.
pub const LOCK_FILE: &str = "lock";
/// Journal header magic.
pub const JOURNAL_MAGIC: &[u8; 8] = b"STSYNJNL";
/// Journal format version.
pub const JOURNAL_VERSION: u32 = 1;
/// The longest a journaled record waits for a sync: an append this long
/// after the last sync is a durability point, which bounds what an OS
/// crash can cost a long run.
const SYNC_INTERVAL: Duration = Duration::from_secs(1);

/// Why a checkpoint operation failed. Journal/snapshot *corruption* is not
/// an error (it degrades to the last valid prefix, with a warning); these
/// are the conditions that genuinely prevent checkpointed synthesis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Reading or writing a checkpoint file failed.
    Io {
        /// The file or directory involved.
        path: String,
        /// The underlying I/O error, stringified.
        message: String,
    },
    /// Another live synthesizer process owns the checkpoint directory.
    Locked {
        /// PID recorded in the lock file.
        pid: u32,
    },
    /// The journal belongs to a different problem/options/schedule than
    /// this run (fingerprint mismatch) — resuming it would be unsound.
    Mismatch,
    /// A fresh (non-resume) run was pointed at a directory that already
    /// holds a journal; pass `--resume` or use an empty directory.
    Exists,
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, message } => {
                write!(f, "checkpoint I/O error on {path}: {message}")
            }
            CheckpointError::Locked { pid } => {
                write!(f, "checkpoint directory is locked by live process {pid}")
            }
            CheckpointError::Mismatch => write!(
                f,
                "checkpoint journal was written by a different problem, options or schedule"
            ),
            CheckpointError::Exists => write!(
                f,
                "checkpoint directory already contains a journal (resume it or use an empty \
                 directory)"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

fn io_err(path: &Path, e: std::io::Error) -> CheckpointError {
    CheckpointError::Io { path: path.display().to_string(), message: e.to_string() }
}

/// One write-ahead journal record. `Group` and `StepDone` are keyed by the
/// heuristic's deterministic step coordinate `(pass, rank, step)` where
/// `step` is the position in the recovery schedule (`rank` is 0 in pass 3,
/// which runs once over all remaining deadlocks).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// Run identity: must match before any replay is attempted.
    Start {
        /// Hash of the protocol, invariant, schedule and decision-relevant
        /// options (the budget is deliberately excluded).
        fingerprint: u64,
    },
    /// Rank layer `index` was committed; its predicate is in `file`.
    RankLayer {
        /// 1-based layer index (`Rank[0] = I` is never snapshotted).
        index: u32,
        /// Snapshot file name, relative to the checkpoint directory.
        file: String,
    },
    /// `ComputeRanks` finished with highest finite rank `max_rank`.
    RanksDone {
        /// The highest finite rank `M`.
        max_rank: u32,
    },
    /// A recovery group passed `Identify_Resolve_Cycles` and was added.
    Group {
        /// Pass (1–3).
        pass: u8,
        /// Rank being targeted (0 in pass 3).
        rank: u32,
        /// Position in the recovery schedule.
        step: u32,
        /// The accepted group.
        desc: GroupDesc,
    },
    /// The schedule step at this coordinate completed (its scan, SCC
    /// check and every group commit are all in the journal).
    StepDone {
        /// Pass (1–3).
        pass: u8,
        /// Rank being targeted (0 in pass 3).
        rank: u32,
        /// Position in the recovery schedule.
        step: u32,
    },
    /// Cumulative BDD-manager counters at the moment of the append.
    /// Replayed on resume (via [`stsyn_bdd::Manager::adopt_counters`]) so
    /// gc-run and cache-probe statistics continue across a crash instead
    /// of silently resetting with the rebuilt manager — resumed-run
    /// metrics stay comparable to uninterrupted runs. Last record wins.
    Counters {
        /// Garbage collections performed so far.
        gc_runs: u64,
        /// Operation-cache probes so far.
        cache_lookups: u64,
        /// Operation-cache probes that hit.
        cache_hits: u64,
        /// Peak live node count observed so far.
        peak_live: u64,
    },
    /// The run was cut short by resource exhaustion during `phase`; the
    /// journal up to here is the final checkpoint.
    Cut {
        /// Display form of the interrupted [`Phase`].
        phase: String,
    },
    /// Synthesis completed successfully.
    Done,
}

// --- Record encoding -----------------------------------------------------

fn push_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn push_slice_u32(buf: &mut Vec<u8>, vals: &[u32]) {
    push_u32(buf, vals.len() as u32);
    for &v in vals {
        push_u32(buf, v);
    }
}

fn push_str(buf: &mut Vec<u8>, s: &str) {
    push_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn encode(rec: &Record) -> Vec<u8> {
    let mut buf = Vec::new();
    match rec {
        Record::Start { fingerprint } => {
            buf.push(1);
            buf.extend_from_slice(&fingerprint.to_le_bytes());
        }
        Record::RankLayer { index, file } => {
            buf.push(2);
            push_u32(&mut buf, *index);
            push_str(&mut buf, file);
        }
        Record::RanksDone { max_rank } => {
            buf.push(3);
            push_u32(&mut buf, *max_rank);
        }
        Record::Group { pass, rank, step, desc } => {
            buf.push(4);
            buf.push(*pass);
            push_u32(&mut buf, *rank);
            push_u32(&mut buf, *step);
            push_u32(&mut buf, desc.process.0 as u32);
            push_slice_u32(&mut buf, &desc.pre);
            push_slice_u32(&mut buf, &desc.post);
        }
        Record::StepDone { pass, rank, step } => {
            buf.push(5);
            buf.push(*pass);
            push_u32(&mut buf, *rank);
            push_u32(&mut buf, *step);
        }
        Record::Counters { gc_runs, cache_lookups, cache_hits, peak_live } => {
            buf.push(8);
            for v in [gc_runs, cache_lookups, cache_hits, peak_live] {
                buf.extend_from_slice(&v.to_le_bytes());
            }
        }
        Record::Cut { phase } => {
            buf.push(6);
            push_str(&mut buf, phase);
        }
        Record::Done => buf.push(7),
    }
    buf
}

struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    fn u8(&mut self) -> Option<u8> {
        let b = *self.buf.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    fn u32(&mut self) -> Option<u32> {
        let bytes = self.buf.get(self.pos..self.pos + 4)?;
        self.pos += 4;
        Some(u32::from_le_bytes(bytes.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        let bytes = self.buf.get(self.pos..self.pos + 8)?;
        self.pos += 8;
        Some(u64::from_le_bytes(bytes.try_into().ok()?))
    }

    fn vec_u32(&mut self) -> Option<Vec<u32>> {
        let n = self.u32()? as usize;
        if n > self.buf.len().saturating_sub(self.pos) / 4 {
            return None;
        }
        (0..n).map(|_| self.u32()).collect()
    }

    fn string(&mut self) -> Option<String> {
        let n = self.u32()? as usize;
        let bytes = self.buf.get(self.pos..self.pos.checked_add(n)?)?;
        self.pos += n;
        String::from_utf8(bytes.to_vec()).ok()
    }

    fn finished(&self) -> bool {
        self.pos == self.buf.len()
    }
}

fn decode(payload: &[u8]) -> Option<Record> {
    let mut d = Decoder { buf: payload, pos: 0 };
    let rec = match d.u8()? {
        1 => Record::Start { fingerprint: d.u64()? },
        2 => Record::RankLayer { index: d.u32()?, file: d.string()? },
        3 => Record::RanksDone { max_rank: d.u32()? },
        4 => Record::Group {
            pass: d.u8()?,
            rank: d.u32()?,
            step: d.u32()?,
            desc: GroupDesc {
                process: ProcIdx(d.u32()? as usize),
                pre: d.vec_u32()?,
                post: d.vec_u32()?,
            },
        },
        5 => Record::StepDone { pass: d.u8()?, rank: d.u32()?, step: d.u32()? },
        6 => Record::Cut { phase: d.string()? },
        7 => Record::Done,
        8 => Record::Counters {
            gc_runs: d.u64()?,
            cache_lookups: d.u64()?,
            cache_hits: d.u64()?,
            peak_live: d.u64()?,
        },
        _ => return None,
    };
    d.finished().then_some(rec)
}

// --- Journal reading/writing ---------------------------------------------

/// The salvageable contents of a journal file: every record up to the
/// first invalid frame, the byte length of that valid prefix, and a
/// warning describing any dropped tail.
pub struct JournalContents {
    /// Records of the valid prefix, in append order.
    pub records: Vec<Record>,
    /// Byte offset of the end of the valid prefix (header included).
    pub valid_len: u64,
    /// Present iff a corrupt or torn tail was dropped.
    pub warning: Option<String>,
}

/// Read a journal, salvaging the longest valid prefix. A missing file
/// yields zero records; corruption anywhere (header included) is reported
/// through `warning`, never an error or a panic — the only hard failure
/// is the I/O to read the file at all.
#[must_use = "an unreadable journal is reported through the Result"]
pub fn read_journal(path: &Path) -> Result<JournalContents, CheckpointError> {
    let buf = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(JournalContents { records: Vec::new(), valid_len: 0, warning: None })
        }
        Err(e) => return Err(io_err(path, e)),
    };
    let header_len = JOURNAL_MAGIC.len() + 4;
    if buf.len() < header_len
        || &buf[..JOURNAL_MAGIC.len()] != JOURNAL_MAGIC
        || u32::from_le_bytes(buf[JOURNAL_MAGIC.len()..header_len].try_into().expect("4 bytes"))
            != JOURNAL_VERSION
    {
        return Ok(JournalContents {
            records: Vec::new(),
            valid_len: 0,
            warning: Some("journal header is corrupt; discarding the journal".to_string()),
        });
    }
    let mut records = Vec::new();
    let mut pos = header_len;
    let mut warning = None;
    while pos < buf.len() {
        let frame = (|| {
            let len = u32::from_le_bytes(buf.get(pos..pos + 4)?.try_into().ok()?) as usize;
            let stored_crc = u32::from_le_bytes(buf.get(pos + 4..pos + 8)?.try_into().ok()?);
            let payload = buf.get(pos + 8..(pos + 8).checked_add(len)?)?;
            if crc32(payload) != stored_crc {
                return None;
            }
            decode(payload).map(|rec| (rec, 8 + len))
        })();
        match frame {
            Some((rec, advance)) => {
                records.push(rec);
                pos += advance;
            }
            None => {
                warning = Some(format!(
                    "journal has a corrupt or torn tail at byte {pos}; resuming from the \
                     {} valid record(s) before it",
                    records.len()
                ));
                break;
            }
        }
    }
    Ok(JournalContents { records, valid_len: pos as u64, warning })
}

#[derive(Debug)]
struct JournalWriter {
    file: File,
    path: PathBuf,
    /// The checkpoint directory holding the journal and its snapshots.
    dir: PathBuf,
    /// Rank snapshots renamed into place since the last sync.
    pending: Vec<PathBuf>,
    last_sync: Instant,
    /// Durability points reached so far.
    pub(crate) syncs: u64,
}

impl JournalWriter {
    fn new(file: File, dir: &Path) -> Self {
        JournalWriter {
            file,
            path: dir.join(JOURNAL_FILE),
            dir: dir.to_path_buf(),
            pending: Vec::new(),
            last_sync: Instant::now(),
            syncs: 0,
        }
    }

    /// Create (or truncate) the journal in `dir` and write the header.
    fn create(dir: &Path) -> Result<Self, CheckpointError> {
        let path = dir.join(JOURNAL_FILE);
        let mut file = File::create(&path).map_err(|e| io_err(&path, e))?;
        let mut header = Vec::with_capacity(12);
        header.extend_from_slice(JOURNAL_MAGIC);
        header.extend_from_slice(&JOURNAL_VERSION.to_le_bytes());
        file.write_all(&header).map_err(|e| io_err(&path, e))?;
        Ok(JournalWriter::new(file, dir))
    }

    /// Open the journal in `dir` for appending, truncating any invalid
    /// tail at `valid_len` first.
    fn open_at(dir: &Path, valid_len: u64) -> Result<Self, CheckpointError> {
        let path = dir.join(JOURNAL_FILE);
        let mut file = OpenOptions::new().write(true).open(&path).map_err(|e| io_err(&path, e))?;
        file.set_len(valid_len).map_err(|e| io_err(&path, e))?;
        file.seek(SeekFrom::End(0)).map_err(|e| io_err(&path, e))?;
        Ok(JournalWriter::new(file, dir))
    }

    /// Append one framed record with a single `write_all`, so process
    /// death cannot lose it, and sync if this is a durability point: a
    /// `Cut`, or any record but `Done` that comes [`SYNC_INTERVAL`] or
    /// more after the last sync. (After `Done` only the artifact store
    /// reads the journal, and it syncs its own copy.)
    fn append(&mut self, rec: &Record) -> Result<(), CheckpointError> {
        let payload = encode(rec);
        let mut frame = Vec::with_capacity(payload.len() + 8);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        self.file.write_all(&frame).map_err(|e| io_err(&self.path, e))?;
        let durability_point = match rec {
            Record::Cut { .. } => true,
            Record::Done => false,
            _ => self.last_sync.elapsed() >= SYNC_INTERVAL,
        };
        if durability_point {
            self.sync()?;
        }
        Ok(())
    }

    /// Write the rank snapshot `name` atomically under process death:
    /// temp file, then rename. Its data reaches the disk at the next
    /// sync, ahead of the journal record naming it.
    fn write_snapshot(&mut self, name: &str, bytes: &[u8]) -> Result<(), CheckpointError> {
        let tmp = self.dir.join(format!("{name}.tmp"));
        let dst = self.dir.join(name);
        fs::write(&tmp, bytes).map_err(|e| io_err(&tmp, e))?;
        fs::rename(&tmp, &dst).map_err(|e| io_err(&dst, e))?;
        self.pending.push(dst);
        Ok(())
    }

    /// Make everything written so far survive an OS crash: the pending
    /// snapshots, then the directory (their renames and the journal's
    /// creation), then the journal.
    fn sync(&mut self) -> Result<(), CheckpointError> {
        for path in std::mem::take(&mut self.pending) {
            File::open(&path).and_then(|f| f.sync_data()).map_err(|e| io_err(&path, e))?;
        }
        // Best effort, like the store's directory sync: a failure narrows
        // the crash window rather than breaking it.
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        self.file.sync_data().map_err(|e| io_err(&self.path, e))?;
        self.last_sync = Instant::now();
        self.syncs += 1;
        Ok(())
    }
}

// --- Lock file -----------------------------------------------------------

#[derive(Debug)]
struct LockGuard {
    path: PathBuf,
}

impl Drop for LockGuard {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

fn pid_alive(pid: u32) -> bool {
    // Linux: a live process has a /proc entry. On platforms without
    // /proc every lock is treated as stale (crash recovery wins).
    Path::new("/proc").join(pid.to_string()).exists()
}

fn acquire_lock(dir: &Path) -> Result<(LockGuard, Option<String>), CheckpointError> {
    let path = dir.join(LOCK_FILE);
    let mut warning = None;
    loop {
        match OpenOptions::new().write(true).create_new(true).open(&path) {
            Ok(mut f) => {
                let me = std::process::id();
                // Not synced: the lock only excludes live processes, and
                // after an OS crash every recorded PID is dead anyway.
                f.write_all(me.to_string().as_bytes()).map_err(|e| io_err(&path, e))?;
                return Ok((LockGuard { path }, warning));
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                let holder =
                    fs::read_to_string(&path).ok().and_then(|s| s.trim().parse::<u32>().ok());
                match holder {
                    Some(pid) if pid != std::process::id() && pid_alive(pid) => {
                        return Err(CheckpointError::Locked { pid });
                    }
                    _ => {
                        // Stale (dead PID or unparseable): take it over.
                        warning = Some(format!(
                            "removed stale checkpoint lock {} (previous owner is gone)",
                            path.display()
                        ));
                        fs::remove_file(&path).map_err(|e| io_err(&path, e))?;
                    }
                }
            }
            Err(e) => return Err(io_err(&path, e)),
        }
    }
}

// --- Replay state --------------------------------------------------------

#[derive(Default, Debug)]
struct Replay {
    /// 1-based layer index → snapshot file (last record wins).
    rank_layers: HashMap<u32, String>,
    ranks_done: Option<u32>,
    groups: HashMap<(u8, u32, u32), Vec<GroupDesc>>,
    done_steps: HashSet<(u8, u32, u32)>,
    /// Last journaled manager counters (gc runs, cache lookups/hits,
    /// peak live nodes).
    counters: Option<(u64, u64, u64, u64)>,
}

impl Replay {
    fn build(records: &[Record]) -> Replay {
        let mut r = Replay::default();
        for rec in records {
            match rec {
                Record::Start { .. } | Record::Cut { .. } | Record::Done => {}
                Record::RankLayer { index, file } => {
                    r.rank_layers.insert(*index, file.clone());
                }
                Record::RanksDone { max_rank } => r.ranks_done = Some(*max_rank),
                Record::Group { pass, rank, step, desc } => {
                    r.groups.entry((*pass, *rank, *step)).or_default().push(desc.clone());
                }
                Record::StepDone { pass, rank, step } => {
                    r.done_steps.insert((*pass, *rank, *step));
                }
                Record::Counters { gc_runs, cache_lookups, cache_hits, peak_live } => {
                    r.counters = Some((*gc_runs, *cache_lookups, *cache_hits, *peak_live));
                }
            }
        }
        r
    }
}

// --- The session ---------------------------------------------------------

/// A live checkpointed synthesis run: owns the directory lock, the journal
/// writer and the replay state parsed from any previous run's journal.
#[derive(Debug)]
pub struct CheckpointSession {
    journal: JournalWriter,
    _lock: LockGuard,
    replay: Replay,
    warnings: Vec<String>,
    /// First failure raised inside an infallible observer; surfaced by
    /// [`CheckpointSession::take_error`] at the next fallible boundary.
    poisoned: Option<CheckpointError>,
}

impl CheckpointSession {
    /// Start a **fresh** checkpointed run in `dir` (created if missing).
    /// Refuses a directory that already holds a journal with records —
    /// resume it or point the run somewhere empty.
    #[must_use = "failing to open the checkpoint directory is reported through the Result"]
    pub fn create(dir: &Path, fingerprint: u64) -> Result<Self, CheckpointError> {
        fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
        let (lock, lock_warning) = acquire_lock(dir)?;
        let existing = read_journal(&dir.join(JOURNAL_FILE))?;
        if !existing.records.is_empty() {
            return Err(CheckpointError::Exists);
        }
        let mut journal = JournalWriter::create(dir)?;
        journal.append(&Record::Start { fingerprint })?;
        Ok(CheckpointSession {
            journal,
            _lock: lock,
            replay: Replay::default(),
            warnings: lock_warning.into_iter().collect(),
            poisoned: None,
        })
    }

    /// **Resume** from `dir`: salvage the longest valid journal prefix
    /// (warning on a torn/corrupt tail), verify the run fingerprint, and
    /// prepare the replay state. An empty or headerless journal degrades
    /// to a fresh run with a warning.
    #[must_use = "an incompatible or locked checkpoint is reported through the Result"]
    pub fn resume(dir: &Path, fingerprint: u64) -> Result<Self, CheckpointError> {
        fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
        let (lock, lock_warning) = acquire_lock(dir)?;
        let contents = read_journal(&dir.join(JOURNAL_FILE))?;
        let mut warnings: Vec<String> = lock_warning.into_iter().collect();
        warnings.extend(contents.warning.clone());
        match contents.records.first() {
            Some(Record::Start { fingerprint: fp }) if *fp == fingerprint => {
                let journal = JournalWriter::open_at(dir, contents.valid_len)?;
                Ok(CheckpointSession {
                    journal,
                    _lock: lock,
                    replay: Replay::build(&contents.records),
                    warnings,
                    poisoned: None,
                })
            }
            Some(Record::Start { .. }) => Err(CheckpointError::Mismatch),
            // A valid prefix can only start with Start (it is the first
            // record ever appended); anything else means the journal was
            // unusable — start fresh.
            _ => {
                if contents.valid_len > 0 || contents.warning.is_some() {
                    warnings.push(
                        "journal has no usable records; starting synthesis from scratch"
                            .to_string(),
                    );
                }
                let mut journal = JournalWriter::create(dir)?;
                journal.append(&Record::Start { fingerprint })?;
                Ok(CheckpointSession {
                    journal,
                    _lock: lock,
                    replay: Replay::default(),
                    warnings,
                    poisoned: None,
                })
            }
        }
    }

    /// Warnings accumulated while opening/recovering the checkpoint
    /// (stale lock takeover, dropped journal tail, unloadable snapshots).
    pub fn warnings(&self) -> &[String] {
        &self.warnings
    }

    fn rank_file_name(index: usize) -> String {
        format!("rank-{index:05}.bdd")
    }

    /// Load the journaled rank layers into `ctx`'s manager, in order,
    /// stopping (with a warning) at the first missing or corrupt snapshot.
    /// Returns the contiguous prefix of layers `1..` and whether ranking
    /// had fully completed (so the caller can skip `ComputeRanks`).
    pub(crate) fn load_rank_prefix(&mut self, ctx: &mut SymbolicContext) -> (Vec<Bdd>, bool) {
        let mut layers = Vec::new();
        let mut index = 1u32;
        while let Some(file) = self.replay.rank_layers.get(&index).cloned() {
            let path = self.journal.dir.join(&file);
            let loaded = File::open(&path)
                .map_err(|e| e.to_string())
                .and_then(|mut f| ctx.mgr().load_bdds_into(&mut f).map_err(|e| e.to_string()));
            match loaded {
                Ok(roots) if roots.len() == 1 => layers.push(roots[0]),
                Ok(_) => {
                    self.warnings.push(format!(
                        "rank snapshot {} has the wrong arity; recomputing from layer {index}",
                        path.display()
                    ));
                    break;
                }
                Err(e) => {
                    self.warnings.push(format!(
                        "rank snapshot {} is unreadable ({e}); recomputing from layer {index}",
                        path.display()
                    ));
                    break;
                }
            }
            index += 1;
        }
        let complete = match self.replay.ranks_done {
            Some(max_rank) => layers.len() as u32 >= max_rank,
            None => false,
        };
        (layers, complete)
    }

    /// Journal one freshly-committed rank layer: snapshot the predicate
    /// atomically, then append the `RankLayer` record. Infallible by
    /// signature (it is called from inside `ComputeRanks`); a failure
    /// poisons the session and surfaces at [`CheckpointSession::take_error`].
    pub(crate) fn observe_rank_layer(&mut self, mgr: &Manager, index: usize, layer: Bdd) {
        if self.poisoned.is_some() {
            return;
        }
        let file = Self::rank_file_name(index);
        let bytes = mgr.dump_bdds_to_vec(&[layer]);
        let result = self
            .journal
            .write_snapshot(&file, &bytes)
            .and_then(|()| self.journal.append(&Record::RankLayer { index: index as u32, file }))
            .and_then(|()| self.journal.append(&counters_record(mgr)));
        if let Err(e) = result {
            self.poisoned = Some(e);
        }
    }

    /// Take the first error raised inside an infallible observer, if any.
    pub(crate) fn take_error(&mut self) -> Option<CheckpointError> {
        self.poisoned.take()
    }

    /// Journal the completion of ranking (idempotent across resumes).
    pub(crate) fn record_ranks_done(&mut self, max_rank: usize) -> Result<(), CheckpointError> {
        if self.replay.ranks_done.is_some() {
            return Ok(());
        }
        self.journal.append(&Record::RanksDone { max_rank: max_rank as u32 })
    }

    /// The groups the journal holds for the schedule step at this
    /// coordinate, in commit order (possibly none), and whether a
    /// `StepDone` fence marks the step complete.
    pub(crate) fn journaled(&self, pass: u8, rank: u32, step: u32) -> (&[GroupDesc], bool) {
        let key = (pass, rank, step);
        let groups = self.replay.groups.get(&key).map_or(&[][..], Vec::as_slice);
        (groups, self.replay.done_steps.contains(&key))
    }

    /// Journal one accepted recovery group (write-ahead: on disk by the
    /// next durability point, safe from process death at once).
    pub(crate) fn record_group(
        &mut self,
        pass: u8,
        rank: u32,
        step: u32,
        desc: &GroupDesc,
    ) -> Result<(), CheckpointError> {
        self.journal.append(&Record::Group { pass, rank, step, desc: desc.clone() })
    }

    /// Journal the completion of a schedule step, plus the manager's
    /// cumulative counters as of that fence (so a resume after the next
    /// crash continues the metric series from here).
    pub(crate) fn record_step_done(
        &mut self,
        pass: u8,
        rank: u32,
        step: u32,
        mgr: &Manager,
    ) -> Result<(), CheckpointError> {
        self.journal.append(&Record::StepDone { pass, rank, step })?;
        self.journal.append(&counters_record(mgr))
    }

    /// The counters journaled by the previous run, as a [`ManagerStats`]
    /// carrier suitable for [`Manager::adopt_counters`] (only the
    /// cumulative fields are meaningful).
    pub(crate) fn prior_counters(&self) -> Option<stsyn_bdd::ManagerStats> {
        self.replay.counters.map(|(gc_runs, cache_lookups, cache_hits, peak_live)| {
            stsyn_bdd::ManagerStats {
                gc_runs: gc_runs as usize,
                cache_lookups,
                cache_hits,
                peak_live_nodes: peak_live as usize,
                ..Default::default()
            }
        })
    }

    /// Final checkpoint on resource exhaustion: appends the `Cut` marker
    /// so a resumed run knows the tail is intentional, not torn. A `Cut` is
    /// a durability point: it syncs every snapshot and record before it,
    /// so the promised resume survives an OS crash.
    pub(crate) fn record_cut(&mut self, phase: &Phase) -> Result<(), CheckpointError> {
        self.journal.append(&Record::Cut { phase: phase.to_string() })
    }

    /// Journal successful completion.
    pub(crate) fn record_done(&mut self) -> Result<(), CheckpointError> {
        self.journal.append(&Record::Done)
    }
}

/// A `Counters` record snapshotting `mgr`'s cumulative statistics.
fn counters_record(mgr: &Manager) -> Record {
    let s = mgr.stats();
    Record::Counters {
        gc_runs: s.gc_runs as u64,
        cache_lookups: s.cache_lookups,
        cache_hits: s.cache_hits,
        peak_live: s.peak_live_nodes as u64,
    }
}

/// Run identity for a journal: hashes the protocol, invariant, schedule
/// and every decision-relevant option. The budget is deliberately
/// excluded — a resumed run typically carries a different (or no) budget.
pub fn fingerprint(
    protocol: &stsyn_protocol::Protocol,
    invariant: &stsyn_protocol::expr::Expr,
    opts: &crate::problem::Options,
    schedule: &crate::schedule::Schedule,
) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    format!("{protocol:?}").hash(&mut h);
    format!("{invariant:?}").hash(&mut h);
    // The SCC algorithm was once an option; its one remaining value stays
    // in the hash so existing journals still resume.
    "Skeleton".hash(&mut h);
    opts.symmetry.is_some().hash(&mut h);
    schedule.order().hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use stsyn_bdd::Budget;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "stsyn-ckpt-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id(),
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_records() -> Vec<Record> {
        vec![
            Record::Start { fingerprint: 0xDEAD_BEEF_CAFE_F00D },
            Record::RankLayer { index: 1, file: "rank-00001.bdd".into() },
            Record::RanksDone { max_rank: 1 },
            Record::Group {
                pass: 1,
                rank: 1,
                step: 0,
                desc: GroupDesc { process: ProcIdx(2), pre: vec![0, 1], post: vec![3] },
            },
            Record::StepDone { pass: 1, rank: 1, step: 0 },
            Record::Counters { gc_runs: 3, cache_lookups: 1000, cache_hits: 800, peak_live: 4096 },
            Record::Cut { phase: "recovery pass 1".into() },
            Record::Done,
        ]
    }

    #[test]
    fn records_round_trip_through_the_codec() {
        for rec in sample_records() {
            let bytes = encode(&rec);
            assert_eq!(decode(&bytes).as_ref(), Some(&rec), "{rec:?}");
        }
    }

    #[test]
    fn journal_round_trips_and_salvages_torn_tail() {
        let dir = temp_dir("journal");
        let path = dir.join(JOURNAL_FILE);
        let records = sample_records();
        let mut w = JournalWriter::create(&dir).unwrap();
        for rec in &records {
            w.append(rec).unwrap();
        }
        drop(w);
        let full = read_journal(&path).unwrap();
        assert_eq!(full.records, records);
        assert!(full.warning.is_none());
        assert_eq!(full.valid_len, fs::metadata(&path).unwrap().len());

        // Truncate at every byte: the salvaged prefix is always a prefix
        // of the record list, never an error or a panic.
        let bytes = fs::read(&path).unwrap();
        for len in 0..bytes.len() {
            fs::write(&path, &bytes[..len]).unwrap();
            let c = read_journal(&path).unwrap();
            assert!(c.records.len() <= records.len());
            assert!(records.starts_with(&c.records), "truncation at {len}");
            // A cut *inside* a frame is detected and warned about; a cut
            // exactly at a frame boundary is indistinguishable from a
            // journal that simply ends there.
            if c.valid_len < len as u64 {
                assert!(c.warning.is_some(), "truncation at {len}");
            }
        }

        // Flip every byte: same guarantee.
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x80;
            fs::write(&path, &corrupt).unwrap();
            let c = read_journal(&path).unwrap();
            assert!(records.starts_with(&c.records), "flip at {i}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn session_create_then_resume_replays() {
        let dir = temp_dir("session");
        let fp = 42u64;
        {
            let mut s = CheckpointSession::create(&dir, fp).unwrap();
            s.record_group(
                1,
                1,
                0,
                &GroupDesc { process: ProcIdx(0), pre: vec![1], post: vec![0] },
            )
            .unwrap();
            s.record_step_done(1, 1, 0, &Manager::new()).unwrap();
        }
        // A second fresh run must refuse the populated directory.
        assert_eq!(CheckpointSession::create(&dir, fp).unwrap_err(), CheckpointError::Exists);
        // A different fingerprint must refuse to resume.
        assert_eq!(CheckpointSession::resume(&dir, fp + 1).unwrap_err(), CheckpointError::Mismatch);
        let s = CheckpointSession::resume(&dir, fp).unwrap();
        // A completed step: its groups, and done.
        let (groups, done) = s.journaled(1, 1, 0);
        assert_eq!((groups.len(), done), (1, true));
        // A step the journal never reached: no groups, not done.
        assert_eq!(s.journaled(1, 1, 1), (&[][..], false));
        drop(s);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn counters_round_trip_and_last_record_wins() {
        let dir = temp_dir("counters");
        let fp = 9u64;
        {
            let mut s = CheckpointSession::create(&dir, fp).unwrap();
            // Two fences: the second must win on resume.
            let mut mgr = Manager::new();
            mgr.adopt_counters(&stsyn_bdd::ManagerStats {
                gc_runs: 1,
                cache_lookups: 10,
                cache_hits: 5,
                peak_live_nodes: 100,
                ..Default::default()
            });
            s.record_step_done(1, 1, 0, &mgr).unwrap();
            mgr.adopt_counters(&stsyn_bdd::ManagerStats {
                gc_runs: 2,
                cache_lookups: 90,
                cache_hits: 45,
                peak_live_nodes: 900,
                ..Default::default()
            });
            s.record_step_done(1, 1, 1, &mgr).unwrap();
        }
        let s = CheckpointSession::resume(&dir, fp).unwrap();
        let prior = s.prior_counters().expect("no counters journaled");
        assert_eq!(prior.gc_runs, 3);
        assert_eq!(prior.cache_lookups, 100);
        assert_eq!(prior.cache_hits, 50);
        assert_eq!(prior.peak_live_nodes, 900);
        // Adopting continues the series on a fresh manager.
        let mut fresh = Manager::new();
        fresh.adopt_counters(&prior);
        let stats = fresh.stats();
        assert_eq!(stats.cache_lookups, 100);
        assert_eq!(stats.cache_hits, 50);
        assert_eq!(stats.gc_runs, 3);
        assert_eq!(stats.peak_live_nodes, 900);
        drop(s);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn partial_step_is_detected() {
        let dir = temp_dir("partial");
        let fp = 7u64;
        {
            let mut s = CheckpointSession::create(&dir, fp).unwrap();
            s.record_group(
                2,
                3,
                1,
                &GroupDesc { process: ProcIdx(1), pre: vec![2], post: vec![1] },
            )
            .unwrap();
            // No StepDone: the run died mid-step.
        }
        let s = CheckpointSession::resume(&dir, fp).unwrap();
        // An interrupted step: its committed groups, not done.
        let (groups, done) = s.journaled(2, 3, 1);
        assert_eq!((groups.len(), done), (1, false));
        drop(s);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_lock_is_taken_over_and_live_lock_refused() {
        let dir = temp_dir("lock");
        // Stale lock: PID that cannot be alive (PID max is < 2^22 by
        // default on Linux; u32::MAX is far beyond any real PID).
        fs::write(dir.join(LOCK_FILE), format!("{}", u32::MAX - 1)).unwrap();
        let s = CheckpointSession::create(&dir, 1).unwrap();
        assert!(s.warnings().iter().any(|w| w.contains("stale")));
        drop(s);

        // Live lock: our own PID in the file but from "another" session —
        // simulate with PID 1 (init: always alive).
        fs::write(dir.join(LOCK_FILE), "1").unwrap();
        match CheckpointSession::resume(&dir, 1) {
            Err(CheckpointError::Locked { pid: 1 }) => {}
            other => panic!("expected Locked, got {:?}", other.err()),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// matching(5) with its default schedule, and that schedule's
    /// fingerprint under default options.
    fn matching5() -> (crate::AddConvergence, crate::schedule::Schedule, u64) {
        let (p, i) = stsyn_cases::matching::matching(5);
        let problem = crate::AddConvergence::new(p.clone(), i.clone()).unwrap();
        let schedule = problem.default_schedule();
        let fp = fingerprint(&p, &i, &crate::Options::default(), &schedule);
        (problem, schedule, fp)
    }

    fn printed(problem: &crate::AddConvergence, outcome: &crate::Outcome) -> String {
        stsyn_protocol::printer::to_dsl("out", &outcome.extract_protocol(), problem.invariant())
    }

    /// Hold off the interval's durability point for the rest of the test,
    /// so that only the kinds of records appended decide the syncs.
    fn hold_interval(s: &mut CheckpointSession) {
        s.journal.last_sync = Instant::now() + Duration::from_secs(3600);
    }

    fn run(
        problem: &crate::AddConvergence,
        opts: &crate::Options,
        schedule: &crate::schedule::Schedule,
        session: &mut CheckpointSession,
    ) -> Result<crate::Outcome, crate::SynthesisError> {
        crate::heuristic::synthesize_checkpointed(
            problem.protocol(),
            problem.invariant(),
            opts,
            schedule.clone(),
            Some(session),
        )
    }

    #[test]
    fn completed_run_never_syncs_and_resumes_byte_identical() {
        let (problem, schedule, fp) = matching5();
        let dir = temp_dir("nosync");
        let mut s = CheckpointSession::create(&dir, fp).unwrap();
        hold_interval(&mut s);
        let fresh = run(&problem, &crate::Options::default(), &schedule, &mut s).unwrap();
        s.record_done().unwrap();
        assert_eq!(s.journal.syncs, 0);
        drop(s);
        let resumed = problem.synthesize_resumable(&crate::Options::default(), &dir).unwrap();
        assert_eq!(printed(&problem, &fresh), printed(&problem, &resumed));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cut_run_syncs_once_at_the_cut() {
        let (problem, schedule, fp) = matching5();
        let reference = problem.synthesize(&crate::Options::default()).unwrap();
        let dir = temp_dir("cut");
        let mut s = CheckpointSession::create(&dir, fp).unwrap();
        hold_interval(&mut s);
        let opts = crate::Options {
            budget: Some(Budget::unlimited().with_fail_at_tick(reference.stats.bdd_ticks / 2)),
            ..crate::Options::default()
        };
        let phase = match run(&problem, &opts, &schedule, &mut s) {
            Err(crate::SynthesisError::ResourceExhausted { phase, .. }) => phase,
            other => panic!("expected a cut, got {:?}", other.map(|_| ())),
        };
        assert_eq!(s.journal.syncs, 0);
        assert!(!s.journal.pending.is_empty(), "no rank snapshot was written before the cut");
        s.record_cut(&phase).unwrap();
        assert_eq!(s.journal.syncs, 1);
        let records = read_journal(&dir.join(JOURNAL_FILE)).unwrap().records;
        let snapshots: Vec<PathBuf> = records
            .iter()
            .filter_map(|r| match r {
                Record::RankLayer { file, .. } => Some(dir.join(file)),
                _ => None,
            })
            .collect();
        assert!(!snapshots.is_empty());
        assert!(snapshots.iter().all(|f| !s.journal.pending.contains(f)));
        assert!(matches!(records.last(), Some(Record::Cut { .. })));
        drop(s);
        let resumed = problem.synthesize_resumable(&crate::Options::default(), &dir).unwrap();
        assert_eq!(printed(&problem, &reference), printed(&problem, &resumed));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_append_syncs_once_the_interval_has_passed() {
        let dir = temp_dir("interval");
        let mut w = JournalWriter::create(&dir).unwrap();
        let step = Record::StepDone { pass: 1, rank: 1, step: 0 };
        w.append(&step).unwrap();
        assert_eq!(w.syncs, 0);
        w.last_sync = Instant::now().checked_sub(SYNC_INTERVAL * 2).unwrap();
        // `Done` is never a durability point, however late it comes.
        w.append(&Record::Done).unwrap();
        assert_eq!(w.syncs, 0);
        w.append(&step).unwrap();
        assert_eq!(w.syncs, 1);
        // The sync restarted the interval.
        w.append(&step).unwrap();
        assert_eq!(w.syncs, 1);
        // A `Cut` syncs at once.
        w.append(&Record::Cut { phase: "ranking".into() }).unwrap();
        assert_eq!(w.syncs, 2);
        drop(w);
        assert_eq!(read_journal(&dir.join(JOURNAL_FILE)).unwrap().records.len(), 5);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_on_empty_dir_starts_fresh() {
        let dir = temp_dir("fresh");
        let s = CheckpointSession::resume(&dir, 9).unwrap();
        assert_eq!(s.journaled(1, 1, 0), (&[][..], false));
        assert!(s.warnings().is_empty());
        drop(s);
        // The Start record outlives the session: a second resume
        // validates it.
        assert!(CheckpointSession::resume(&dir, 9).is_ok());
        assert_eq!(CheckpointSession::resume(&dir, 8).unwrap_err(), CheckpointError::Mismatch);
        fs::remove_dir_all(&dir).unwrap();
    }
}
