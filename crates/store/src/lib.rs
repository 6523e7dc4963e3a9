//! # stsyn-store — a content-addressed, crash-safe artifact store
//!
//! Synthesis in this workspace is deterministic: the same submission
//! content always produces byte-identical rank layers, recovery groups
//! and results (the property the crash/chaos sweeps prove). That makes
//! finished work cacheable. This crate stores two kinds of artifacts
//! under one content key:
//!
//! * **published results** — the terminal `result.json` payload of a
//!   completed job, keyed by the submission's exact content fingerprint
//!   (workload *and* knobs, budget included). An exact-key hit can
//!   answer a resubmission without running anything.
//! * **checkpoint prefixes** — the write-ahead journal plus the
//!   `rank-*.bdd` snapshots a strong job committed, keyed *additionally*
//!   by a budget-independent "warm" fingerprint. A warm-key hit seeds a
//!   new job's checkpoint directory so `synthesize_resumable` replays
//!   the prior run's committed work instead of recomputing it — the
//!   same machinery that makes crash-resume byte-identical makes
//!   warm-start byte-identical.
//!
//! ## On-disk layout
//!
//! ```text
//! <root>/
//!   index.bin             fsync'd append-only index (framed, CRC'd)
//!   tmp/                  staging for in-flight publishes (wiped at open)
//!   objects/<key:016x>/   one entry:
//!     manifest.txt        per-file CRC/length manifest
//!     result.json         terminal result payload   (optional)
//!     ckpt/journal.bin    checkpoint journal        (optional)
//!     ckpt/rank-*.bdd     committed rank snapshots  (optional)
//! ```
//!
//! ## Crash safety
//!
//! A publish stages the whole entry under `tmp/`, fsyncs every file,
//! renames the staging directory into `objects/` (atomic on POSIX),
//! fsyncs `objects/`, and only then appends the entry's index record —
//! write-ahead, fsync'd, CRC-framed like the checkpoint journal. Every
//! crash window degrades to a clean state at the next [`Store::open`]:
//! a torn index tail is salvaged, leftover staging is wiped, an object
//! directory without an index record (crash between rename and append)
//! is removed, and an index record without its directory (crash between
//! a `Del` append and the directory removal it logs) is dropped.
//!
//! ## Read safety
//!
//! Every read re-verifies CRCs: the index frame guards the record, the
//! index record guards the manifest bytes, and the manifest guards each
//! artifact file. A mismatch anywhere surfaces as the **typed**
//! [`StoreError::Corrupt`] and evicts the entry — a corrupt artifact
//! degrades to a cache miss, never a wrong result and never a panic.
//!
//! ## Eviction
//!
//! The store is size-capped (`cap_bytes`, 0 = unbounded) with LRU
//! eviction: lookups and warm-start seeds touch their entry; publishes
//! that push the total over the cap evict least-recently-used entries
//! (durably: `Del` record first, then the directory) until back under.

#![warn(missing_docs)]

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Index file name under the store root.
pub const INDEX_FILE: &str = "index.bin";
/// Index header magic.
pub const INDEX_MAGIC: &[u8; 8] = b"STSYNSTO";
/// Index format version.
pub const INDEX_VERSION: u32 = 1;
/// Per-entry manifest file name.
pub const MANIFEST_FILE: &str = "manifest.txt";
/// Result payload file name inside an entry.
pub const RESULT_FILE: &str = "result.json";
/// Checkpoint subdirectory inside an entry.
pub const CKPT_DIR: &str = "ckpt";
/// Checkpoint journal file name (mirrors `stsyn_core::checkpoint`).
pub const JOURNAL_FILE: &str = "journal.bin";

const OBJECTS_DIR: &str = "objects";
const TMP_DIR: &str = "tmp";

// ------------------------------------------------------------------ errors

/// Why a store operation failed. Corruption is *typed* and already
/// handled (the offending entry is evicted) by the time the caller sees
/// it — treating it as a cache miss is always sound.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem trouble talking to the store.
    Io {
        /// What the store was doing.
        context: String,
        /// The underlying I/O error.
        source: io::Error,
    },
    /// An artifact failed CRC or structural verification; the entry has
    /// been dropped from the store.
    Corrupt {
        /// The entry's exact content key.
        key: u64,
        /// What failed verification.
        detail: String,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { context, source } => {
                write!(f, "store I/O error ({context}): {source}")
            }
            StoreError::Corrupt { key, detail } => {
                write!(f, "store entry {key:016x} is corrupt ({detail}); entry dropped")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            StoreError::Corrupt { .. } => None,
        }
    }
}

fn io_err(context: impl Into<String>, source: io::Error) -> StoreError {
    StoreError::Io { context: context.into(), source }
}

// ------------------------------------------------------------------- crc32

/// CRC-32 (IEEE 802.3), the same polynomial the BDD serialization and
/// checkpoint journal use, so every artifact layer shares one checksum
/// discipline.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

// ----------------------------------------------------------- index records

const FLAG_RESULT: u8 = 1 << 0;
const FLAG_CKPT: u8 = 1 << 1;

#[derive(Debug, Clone, PartialEq, Eq)]
enum IndexRecord {
    /// An entry became live: rename into `objects/` already durable.
    /// `flags` carries [`FLAG_RESULT`] / [`FLAG_CKPT`].
    Put { key: u64, warm: u64, bytes: u64, ranks: u32, flags: u8, manifest_crc: u32 },
    /// LRU touch (lookup or warm-start seed).
    Touch { key: u64 },
    /// The entry is logically gone; its directory removal may still be
    /// pending (open() finishes the job).
    Del { key: u64 },
}

fn encode_record(rec: &IndexRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    match rec {
        IndexRecord::Put { key, warm, bytes, ranks, flags, manifest_crc } => {
            out.push(1u8);
            out.extend_from_slice(&key.to_le_bytes());
            out.extend_from_slice(&warm.to_le_bytes());
            out.extend_from_slice(&bytes.to_le_bytes());
            out.extend_from_slice(&ranks.to_le_bytes());
            out.push(*flags);
            out.extend_from_slice(&manifest_crc.to_le_bytes());
        }
        IndexRecord::Touch { key } => {
            out.push(2u8);
            out.extend_from_slice(&key.to_le_bytes());
        }
        IndexRecord::Del { key } => {
            out.push(3u8);
            out.extend_from_slice(&key.to_le_bytes());
        }
    }
    out
}

fn decode_record(payload: &[u8]) -> Option<IndexRecord> {
    let (&tag, rest) = payload.split_first()?;
    let u64_at =
        |b: &[u8], at: usize| Some(u64::from_le_bytes(b.get(at..at + 8)?.try_into().ok()?));
    let u32_at =
        |b: &[u8], at: usize| Some(u32::from_le_bytes(b.get(at..at + 4)?.try_into().ok()?));
    match tag {
        1 if rest.len() == 33 => Some(IndexRecord::Put {
            key: u64_at(rest, 0)?,
            warm: u64_at(rest, 8)?,
            bytes: u64_at(rest, 16)?,
            ranks: u32_at(rest, 24)?,
            flags: *rest.get(28)?,
            manifest_crc: u32_at(rest, 29)?,
        }),
        2 if rest.len() == 8 => Some(IndexRecord::Touch { key: u64_at(rest, 0)? }),
        3 if rest.len() == 8 => Some(IndexRecord::Del { key: u64_at(rest, 0)? }),
        _ => None,
    }
}

/// Read an index file, salvaging the longest valid prefix — the same
/// torn-tail discipline as the checkpoint journal. A missing file is an
/// empty index; a corrupt header discards the whole file (open() rewrites
/// it from the surviving object directories — which, for an index that
/// never made it to disk intact, is none).
fn read_index(path: &Path) -> Result<Vec<IndexRecord>, StoreError> {
    let buf = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(io_err(format!("reading {}", path.display()), e)),
    };
    let header_len = INDEX_MAGIC.len() + 4;
    if buf.len() < header_len
        || &buf[..INDEX_MAGIC.len()] != INDEX_MAGIC
        || u32::from_le_bytes(buf[INDEX_MAGIC.len()..header_len].try_into().expect("4 bytes"))
            != INDEX_VERSION
    {
        return Ok(Vec::new());
    }
    let mut records = Vec::new();
    let mut pos = header_len;
    while pos < buf.len() {
        let frame = (|| {
            let len = u32::from_le_bytes(buf.get(pos..pos + 4)?.try_into().ok()?) as usize;
            let stored = u32::from_le_bytes(buf.get(pos + 4..pos + 8)?.try_into().ok()?);
            let payload = buf.get(pos + 8..(pos + 8).checked_add(len)?)?;
            if crc32(payload) != stored {
                return None;
            }
            decode_record(payload).map(|r| (r, 8 + len))
        })();
        match frame {
            Some((rec, advance)) => {
                records.push(rec);
                pos += advance;
            }
            None => break, // torn or corrupt tail: salvage the prefix
        }
    }
    Ok(records)
}

// ---------------------------------------------------------------- manifest

/// One artifact file inside an entry, as recorded by its manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ManifestFile {
    /// Entry-relative path (`result.json`, `ckpt/journal.bin`, ...).
    name: String,
    crc: u32,
    len: u64,
}

fn render_manifest(key: u64, warm: u64, files: &[ManifestFile]) -> String {
    let mut out = format!("stsyn-store-manifest v1\nkey {key:016x}\nwarm {warm:016x}\n");
    for f in files {
        out.push_str(&format!("file {:08x} {} {}\n", f.crc, f.len, f.name));
    }
    out
}

fn parse_manifest(text: &str) -> Option<(u64, u64, Vec<ManifestFile>)> {
    let mut lines = text.lines();
    if lines.next()? != "stsyn-store-manifest v1" {
        return None;
    }
    let key = u64::from_str_radix(lines.next()?.strip_prefix("key ")?, 16).ok()?;
    let warm = u64::from_str_radix(lines.next()?.strip_prefix("warm ")?, 16).ok()?;
    let mut files = Vec::new();
    for line in lines {
        let rest = line.strip_prefix("file ")?;
        let mut parts = rest.splitn(3, ' ');
        let crc = u32::from_str_radix(parts.next()?, 16).ok()?;
        let len = parts.next()?.parse::<u64>().ok()?;
        let name = parts.next()?.to_string();
        if name.is_empty() || name.starts_with('/') || name.contains("..") {
            return None;
        }
        files.push(ManifestFile { name, crc, len });
    }
    Some((key, warm, files))
}

// ----------------------------------------------------------------- reports

/// What a publish did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PublishReport {
    /// A new or upgraded entry became live (false: an equal-or-better
    /// entry already existed and the publish was skipped).
    pub published: bool,
    /// Entries evicted to get back under the byte cap.
    pub evicted: u64,
    /// Bytes those evictions freed.
    pub freed_bytes: u64,
}

/// What a warm-start seed found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedReport {
    /// The exact content key of the entry the checkpoint came from.
    pub source_key: u64,
    /// Committed rank-layer snapshots the seed carries.
    pub ranks: u32,
}

/// What a GC pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Entries evicted.
    pub evicted: u64,
    /// Bytes freed.
    pub freed_bytes: u64,
    /// Entries remaining.
    pub entries: u64,
    /// Bytes remaining.
    pub bytes: u64,
}

/// What a verification pass found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Entries whose every artifact passed CRC verification.
    pub verified: u64,
    /// Entries that failed verification and were dropped.
    pub corrupt_dropped: u64,
}

/// A point-in-time snapshot of the store's counters and footprint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Live entries.
    pub entries: u64,
    /// Bytes across live entries.
    pub bytes: u64,
    /// Configured byte cap (0 = unbounded).
    pub cap_bytes: u64,
    /// Exact-key result lookups that returned a verified payload.
    pub hits: u64,
    /// Warm-key checkpoint seeds that materialized a prefix.
    pub partial_hits: u64,
    /// Exact-key lookups that found nothing usable.
    pub misses: u64,
    /// Entries evicted (LRU cap pressure or explicit GC).
    pub evictions: u64,
    /// Entries dropped because an artifact failed verification.
    pub corrupt_dropped: u64,
    /// Entries published (new or upgraded) since open.
    pub publishes: u64,
}

// ------------------------------------------------------------------- store

#[derive(Debug, Clone)]
struct Entry {
    warm: u64,
    bytes: u64,
    ranks: u32,
    flags: u8,
    manifest_crc: u32,
    /// LRU clock value at last use; larger = more recent.
    used: u64,
}

impl Entry {
    fn has_result(&self) -> bool {
        self.flags & FLAG_RESULT != 0
    }

    fn has_ckpt(&self) -> bool {
        self.flags & FLAG_CKPT != 0
    }
}

struct Inner {
    entries: HashMap<u64, Entry>,
    total_bytes: u64,
    clock: u64,
    index: File,
}

/// The artifact store. All operations are safe under concurrent use from
/// many threads; one instance must own its root directory (the daemon
/// opens exactly one per state directory).
pub struct Store {
    root: PathBuf,
    cap_bytes: u64,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    partial_hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    corrupt_dropped: AtomicU64,
    publishes: AtomicU64,
}

impl Store {
    /// Open (or create) a store rooted at `root` with the given byte cap
    /// (0 = unbounded). Recovery runs here: the index's longest valid
    /// prefix is loaded, staging leftovers and orphan object directories
    /// are removed, entries whose directory or manifest is gone are
    /// dropped, and the index is rewritten compact and fsync'd.
    pub fn open(root: impl Into<PathBuf>, cap_bytes: u64) -> Result<Store, StoreError> {
        let root = root.into();
        let objects = root.join(OBJECTS_DIR);
        let tmp = root.join(TMP_DIR);
        fs::create_dir_all(&objects)
            .map_err(|e| io_err(format!("creating {}", objects.display()), e))?;
        let _ = fs::remove_dir_all(&tmp);
        fs::create_dir_all(&tmp).map_err(|e| io_err(format!("creating {}", tmp.display()), e))?;

        // Replay the index into the live map (last record wins).
        let mut entries: HashMap<u64, Entry> = HashMap::new();
        let mut clock = 0u64;
        for rec in read_index(&root.join(INDEX_FILE))? {
            clock += 1;
            match rec {
                IndexRecord::Put { key, warm, bytes, ranks, flags, manifest_crc } => {
                    entries.insert(
                        key,
                        Entry { warm, bytes, ranks, flags, manifest_crc, used: clock },
                    );
                }
                IndexRecord::Touch { key } => {
                    if let Some(e) = entries.get_mut(&key) {
                        e.used = clock;
                    }
                }
                IndexRecord::Del { key } => {
                    entries.remove(&key);
                }
            }
        }

        // Drop entries whose on-disk half is missing or whose manifest no
        // longer matches the record (crash or tampering between then and
        // now); finish pending removals by deleting orphan directories.
        entries.retain(|key, e| {
            let manifest = objects.join(format!("{key:016x}")).join(MANIFEST_FILE);
            matches!(fs::read(&manifest), Ok(bytes) if crc32(&bytes) == e.manifest_crc)
        });
        if let Ok(dir) = fs::read_dir(&objects) {
            for d in dir.flatten() {
                let name = d.file_name();
                let live = name
                    .to_str()
                    .and_then(|s| u64::from_str_radix(s, 16).ok())
                    .is_some_and(|k| entries.contains_key(&k));
                if !live {
                    let _ = fs::remove_dir_all(d.path());
                }
            }
        }

        let total_bytes = entries.values().map(|e| e.bytes).sum();
        let index = rewrite_index(&root, &entries)?;
        let store = Store {
            root,
            cap_bytes,
            inner: Mutex::new(Inner { entries, total_bytes, clock, index }),
            hits: AtomicU64::new(0),
            partial_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            corrupt_dropped: AtomicU64::new(0),
            publishes: AtomicU64::new(0),
        };
        // Enforce the cap at open too: a restart with a smaller cap (or a
        // crash mid-eviction) must not leave the store oversized.
        if cap_bytes > 0 {
            store.gc(None)?;
        }
        Ok(store)
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn object_dir(&self, key: u64) -> PathBuf {
        self.root.join(OBJECTS_DIR).join(format!("{key:016x}"))
    }

    /// Publish an entry: a terminal result payload, a checkpoint
    /// directory (its `journal.bin` + `rank-*.bdd` files), or both.
    /// Idempotent: republishing a key whose stored entry is at least as
    /// good (has a result when ours does; has at least as many rank
    /// layers) is skipped; a strictly better entry replaces the old one.
    pub fn publish(
        &self,
        key: u64,
        warm: u64,
        result_json: Option<&str>,
        ckpt_dir: Option<&Path>,
    ) -> Result<PublishReport, StoreError> {
        // Gather checkpoint artifacts (names only, contents copied below).
        let mut ckpt_files: Vec<PathBuf> = Vec::new();
        if let Some(dir) = ckpt_dir {
            let journal = dir.join(JOURNAL_FILE);
            if journal.is_file() {
                ckpt_files.push(journal);
                let mut ranks: Vec<PathBuf> = Vec::new();
                if let Ok(rd) = fs::read_dir(dir) {
                    for d in rd.flatten() {
                        let name = d.file_name();
                        let Some(name) = name.to_str() else { continue };
                        if name.starts_with("rank-") && name.ends_with(".bdd") {
                            ranks.push(d.path());
                        }
                    }
                }
                ranks.sort();
                ckpt_files.extend(ranks);
            }
        }
        let ranks = ckpt_files.iter().filter(|p| is_rank_file(p)).count() as u32;
        let has_result = result_json.is_some();
        if !has_result && ckpt_files.is_empty() {
            return Ok(PublishReport::default());
        }

        let has_ckpt = !ckpt_files.is_empty();
        let flags = (u8::from(has_result) * FLAG_RESULT) | (u8::from(has_ckpt) * FLAG_CKPT);

        let mut inner = self.lock();
        if let Some(existing) = inner.entries.get(&key) {
            let better = (has_result && !existing.has_result()) || ranks > existing.ranks;
            if !better {
                return Ok(PublishReport::default());
            }
        }

        // Stage the whole entry, fsync'd, then rename it live.
        let staging = self.root.join(TMP_DIR).join(format!("{key:016x}-{}", inner.clock));
        fs::create_dir_all(staging.join(CKPT_DIR))
            .map_err(|e| io_err(format!("staging {}", staging.display()), e))?;
        let mut files: Vec<ManifestFile> = Vec::new();
        let mut total = 0u64;
        if let Some(text) = result_json {
            let bytes = text.as_bytes();
            write_file_synced(&staging.join(RESULT_FILE), bytes)?;
            files.push(ManifestFile {
                name: RESULT_FILE.to_string(),
                crc: crc32(bytes),
                len: bytes.len() as u64,
            });
            total += bytes.len() as u64;
        }
        for src in &ckpt_files {
            let name = src.file_name().and_then(|n| n.to_str()).unwrap_or_default().to_string();
            let bytes =
                fs::read(src).map_err(|e| io_err(format!("reading {}", src.display()), e))?;
            write_file_synced(&staging.join(CKPT_DIR).join(&name), &bytes)?;
            files.push(ManifestFile {
                name: format!("{CKPT_DIR}/{name}"),
                crc: crc32(&bytes),
                len: bytes.len() as u64,
            });
            total += bytes.len() as u64;
        }
        let manifest = render_manifest(key, warm, &files);
        write_file_synced(&staging.join(MANIFEST_FILE), manifest.as_bytes())?;
        total += manifest.len() as u64;
        sync_dir(&staging.join(CKPT_DIR));
        sync_dir(&staging);

        // Replace: durably log the old entry's death, then clear its
        // directory so the rename lands.
        let dst = self.object_dir(key);
        if let Some(old) = inner.entries.remove(&key) {
            append_record(&mut inner.index, &IndexRecord::Del { key })?;
            inner.total_bytes -= old.bytes;
            let _ = fs::remove_dir_all(&dst);
        }
        fs::rename(&staging, &dst).map_err(|e| io_err(format!("renaming {}", dst.display()), e))?;
        sync_dir(&self.root.join(OBJECTS_DIR));
        let manifest_crc = crc32(manifest.as_bytes());
        let rec = IndexRecord::Put { key, warm, bytes: total, ranks, flags, manifest_crc };
        append_record(&mut inner.index, &rec)?;
        inner.clock += 1;
        let used = inner.clock;
        inner.entries.insert(key, Entry { warm, bytes: total, ranks, flags, manifest_crc, used });
        inner.total_bytes += total;
        self.publishes.fetch_add(1, Ordering::Relaxed);

        let (evicted, freed_bytes) = self.evict_to_cap(&mut inner, self.cap_bytes)?;
        Ok(PublishReport { published: true, evicted, freed_bytes })
    }

    /// Look up a published result by exact content key. `Ok(Some(text))`
    /// is the CRC-verified payload; `Ok(None)` is a plain miss; a typed
    /// [`StoreError::Corrupt`] means the entry failed verification and
    /// has been evicted — callers treat it exactly like a miss.
    pub fn lookup_result(&self, key: u64) -> Result<Option<String>, StoreError> {
        let mut inner = self.lock();
        let Some(entry) = inner.entries.get(&key).cloned() else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return Ok(None);
        };
        if !entry.has_result() {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return Ok(None);
        }
        let files = match self.verified_manifest(key, &entry) {
            Ok(files) => files,
            Err(detail) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return Err(self.drop_corrupt(&mut inner, key, detail));
            }
        };
        let Some(meta) = files.iter().find(|f| f.name == RESULT_FILE) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return Err(self.drop_corrupt(&mut inner, key, "manifest lists no result".into()));
        };
        let path = self.object_dir(key).join(RESULT_FILE);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return Err(self.drop_corrupt(&mut inner, key, format!("unreadable result: {e}")));
            }
        };
        if bytes.len() as u64 != meta.len || crc32(&bytes) != meta.crc {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return Err(self.drop_corrupt(&mut inner, key, "result payload CRC mismatch".into()));
        }
        let Ok(text) = String::from_utf8(bytes) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return Err(self.drop_corrupt(&mut inner, key, "result is not UTF-8".into()));
        };
        self.touch(&mut inner, key)?;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Ok(Some(text))
    }

    /// Is an entry (result or checkpoint) live under this exact key?
    pub fn contains(&self, key: u64) -> bool {
        self.lock().entries.contains_key(&key)
    }

    /// Does the entry under this exact key carry a published result?
    pub fn contains_result(&self, key: u64) -> bool {
        self.lock().entries.get(&key).is_some_and(|e| e.has_result())
    }

    /// Seed a job's checkpoint directory from the best warm-key match:
    /// the journal plus every rank snapshot of the matching entry with
    /// the most committed rank layers (ties: most recently used). Every
    /// file is CRC-verified before it lands in `dest`; a corrupt
    /// candidate is evicted and the next-best one tried. `Ok(None)` means
    /// no usable match.
    pub fn seed_checkpoint(
        &self,
        warm: u64,
        dest: &Path,
    ) -> Result<Option<SeedReport>, StoreError> {
        let mut inner = self.lock();
        loop {
            let best = inner
                .entries
                .iter()
                .filter(|(_, e)| e.warm == warm && e.has_ckpt())
                .map(|(k, e)| (*k, e.clone()))
                .max_by_key(|(_, e)| (e.ranks, e.used));
            let Some((key, entry)) = best else { return Ok(None) };
            match self.try_seed(key, &entry, dest) {
                Ok(ranks) => {
                    self.touch(&mut inner, key)?;
                    self.partial_hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(Some(SeedReport { source_key: key, ranks }));
                }
                Err(detail) => {
                    // Typed corruption: evict and try the next candidate.
                    let _ = fs::remove_dir_all(dest);
                    let _ = self.drop_corrupt(&mut inner, key, detail);
                }
            }
        }
    }

    fn try_seed(&self, key: u64, entry: &Entry, dest: &Path) -> Result<u32, String> {
        let files = self.verified_manifest(key, entry)?;
        let ckpt: Vec<&ManifestFile> =
            files.iter().filter(|f| f.name.starts_with(&format!("{CKPT_DIR}/"))).collect();
        if !ckpt.iter().any(|f| f.name == format!("{CKPT_DIR}/{JOURNAL_FILE}")) {
            return Err("no checkpoint journal in entry".into());
        }
        fs::create_dir_all(dest).map_err(|e| format!("cannot create {}: {e}", dest.display()))?;
        let mut ranks = 0u32;
        for f in ckpt {
            let src = self.object_dir(key).join(&f.name);
            let bytes = fs::read(&src).map_err(|e| format!("unreadable {}: {e}", f.name))?;
            if bytes.len() as u64 != f.len || crc32(&bytes) != f.crc {
                return Err(format!("{} CRC mismatch", f.name));
            }
            let name = f.name.strip_prefix(&format!("{CKPT_DIR}/")).unwrap_or(&f.name);
            if is_rank_name(name) {
                ranks += 1;
            }
            write_file_synced(&dest.join(name), &bytes)
                .map_err(|e| format!("cannot seed {name}: {e}"))?;
        }
        sync_dir(dest);
        Ok(ranks)
    }

    /// Evict LRU entries until the store is under `cap_override` (or the
    /// configured cap when `None`).
    pub fn gc(&self, cap_override: Option<u64>) -> Result<GcReport, StoreError> {
        let cap = cap_override.unwrap_or(self.cap_bytes);
        let mut inner = self.lock();
        let (evicted, freed_bytes) = self.evict_to_cap(&mut inner, cap)?;
        Ok(GcReport {
            evicted,
            freed_bytes,
            entries: inner.entries.len() as u64,
            bytes: inner.total_bytes,
        })
    }

    /// Re-verify every artifact of every entry against its manifest and
    /// the manifest against the index; drop (evict) anything corrupt.
    pub fn verify(&self) -> Result<VerifyReport, StoreError> {
        let mut inner = self.lock();
        let keys: Vec<u64> = inner.entries.keys().copied().collect();
        let mut report = VerifyReport::default();
        for key in keys {
            let Some(entry) = inner.entries.get(&key).cloned() else { continue };
            let ok = self.verified_manifest(key, &entry).and_then(|files| {
                for f in &files {
                    let path = self.object_dir(key).join(&f.name);
                    let bytes =
                        fs::read(&path).map_err(|e| format!("unreadable {}: {e}", f.name))?;
                    if bytes.len() as u64 != f.len || crc32(&bytes) != f.crc {
                        return Err(format!("{} CRC mismatch", f.name));
                    }
                }
                Ok(())
            });
            match ok {
                Ok(()) => report.verified += 1,
                Err(detail) => {
                    let _ = self.drop_corrupt(&mut inner, key, detail);
                    report.corrupt_dropped += 1;
                }
            }
        }
        Ok(report)
    }

    /// Current counters and footprint.
    pub fn stats(&self) -> StoreStats {
        let inner = self.lock();
        StoreStats {
            entries: inner.entries.len() as u64,
            bytes: inner.total_bytes,
            cap_bytes: self.cap_bytes,
            hits: self.hits.load(Ordering::Relaxed),
            partial_hits: self.partial_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            corrupt_dropped: self.corrupt_dropped.load(Ordering::Relaxed),
            publishes: self.publishes.load(Ordering::Relaxed),
        }
    }

    // -------------------------------------------------------- internals

    /// Read and verify the entry's manifest (bytes against the index's
    /// CRC, then structure). Returns the parsed file list or a
    /// description of what is wrong.
    fn verified_manifest(&self, key: u64, entry: &Entry) -> Result<Vec<ManifestFile>, String> {
        let path = self.object_dir(key).join(MANIFEST_FILE);
        let bytes = fs::read(&path).map_err(|e| format!("unreadable manifest: {e}"))?;
        if crc32(&bytes) != entry.manifest_crc {
            return Err("manifest CRC mismatch against index".into());
        }
        let text = String::from_utf8(bytes).map_err(|_| "manifest is not UTF-8".to_string())?;
        let (mkey, _, files) = parse_manifest(&text).ok_or("manifest is malformed")?;
        if mkey != key {
            return Err("manifest names a different key".into());
        }
        Ok(files)
    }

    /// Durably drop a corrupt entry and build its typed error.
    fn drop_corrupt(&self, inner: &mut Inner, key: u64, detail: String) -> StoreError {
        if let Some(old) = inner.entries.remove(&key) {
            inner.total_bytes -= old.bytes;
            let _ = append_record(&mut inner.index, &IndexRecord::Del { key });
            let _ = fs::remove_dir_all(self.object_dir(key));
            self.corrupt_dropped.fetch_add(1, Ordering::Relaxed);
        }
        StoreError::Corrupt { key, detail }
    }

    fn touch(&self, inner: &mut Inner, key: u64) -> Result<(), StoreError> {
        append_record(&mut inner.index, &IndexRecord::Touch { key })?;
        inner.clock += 1;
        let clock = inner.clock;
        if let Some(e) = inner.entries.get_mut(&key) {
            e.used = clock;
        }
        Ok(())
    }

    fn evict_to_cap(&self, inner: &mut Inner, cap: u64) -> Result<(u64, u64), StoreError> {
        if cap == 0 {
            return Ok((0, 0));
        }
        let mut evicted = 0u64;
        let mut freed = 0u64;
        while inner.total_bytes > cap {
            let Some((&key, _)) = inner.entries.iter().min_by_key(|(_, e)| e.used) else { break };
            let entry = inner.entries.remove(&key).expect("key just found");
            append_record(&mut inner.index, &IndexRecord::Del { key })?;
            let _ = fs::remove_dir_all(self.object_dir(key));
            inner.total_bytes -= entry.bytes;
            evicted += 1;
            freed += entry.bytes;
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        Ok((evicted, freed))
    }
}

fn is_rank_file(p: &Path) -> bool {
    p.file_name().and_then(|n| n.to_str()).is_some_and(is_rank_name)
}

fn is_rank_name(name: &str) -> bool {
    name.starts_with("rank-") && name.ends_with(".bdd")
}

/// Write bytes to `path` and fsync the file.
fn write_file_synced(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let mut f =
        File::create(path).map_err(|e| io_err(format!("creating {}", path.display()), e))?;
    f.write_all(bytes).map_err(|e| io_err(format!("writing {}", path.display()), e))?;
    f.sync_all().map_err(|e| io_err(format!("syncing {}", path.display()), e))
}

/// Best-effort directory fsync (required for rename durability on POSIX;
/// a failure here narrows the crash window rather than breaking it).
pub fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// Append one framed, CRC'd, fsync'd record to the open index handle.
fn append_record(index: &mut File, rec: &IndexRecord) -> Result<(), StoreError> {
    let payload = encode_record(rec);
    let mut frame = Vec::with_capacity(payload.len() + 8);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    index.write_all(&frame).map_err(|e| io_err("appending index record", e))?;
    index.sync_data().map_err(|e| io_err("syncing index", e))
}

/// Rewrite the index compactly (one `Put` per live entry, LRU order) via
/// tmp + rename + fsync, then reopen it for appending.
fn rewrite_index(root: &Path, entries: &HashMap<u64, Entry>) -> Result<File, StoreError> {
    let path = root.join(INDEX_FILE);
    let tmp = root.join(format!("{INDEX_FILE}.tmp"));
    let mut ordered: Vec<(&u64, &Entry)> = entries.iter().collect();
    ordered.sort_by_key(|(_, e)| e.used);
    {
        let mut f =
            File::create(&tmp).map_err(|e| io_err(format!("creating {}", tmp.display()), e))?;
        f.write_all(INDEX_MAGIC).map_err(|e| io_err("writing index header", e))?;
        f.write_all(&INDEX_VERSION.to_le_bytes()).map_err(|e| io_err("writing index header", e))?;
        for (key, e) in ordered {
            let payload = encode_record(&IndexRecord::Put {
                key: *key,
                warm: e.warm,
                bytes: e.bytes,
                ranks: e.ranks,
                flags: e.flags,
                manifest_crc: e.manifest_crc,
            });
            let mut frame = Vec::with_capacity(payload.len() + 8);
            frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            frame.extend_from_slice(&crc32(&payload).to_le_bytes());
            frame.extend_from_slice(&payload);
            f.write_all(&frame).map_err(|e| io_err("writing index record", e))?;
        }
        f.sync_all().map_err(|e| io_err("syncing index", e))?;
    }
    fs::rename(&tmp, &path).map_err(|e| io_err(format!("renaming {}", path.display()), e))?;
    sync_dir(root);
    OpenOptions::new()
        .append(true)
        .open(&path)
        .map_err(|e| io_err(format!("opening {}", path.display()), e))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "stsyn-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id(),
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn ckpt_fixture(root: &Path, ranks: usize) -> PathBuf {
        let dir = root.join("ckpt-fixture");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(JOURNAL_FILE), b"journal-bytes-journal-bytes").unwrap();
        for i in 1..=ranks {
            fs::write(dir.join(format!("rank-{i:05}.bdd")), format!("rank layer {i}")).unwrap();
        }
        dir
    }

    #[test]
    fn publish_lookup_roundtrip_and_reopen() {
        let root = temp_root("roundtrip");
        let store = Store::open(&root, 0).unwrap();
        let rep = store.publish(7, 77, Some("{\"ok\":true,\"id\":1}"), None).unwrap();
        assert!(rep.published);
        assert_eq!(store.lookup_result(7).unwrap().as_deref(), Some("{\"ok\":true,\"id\":1}"));
        assert_eq!(store.lookup_result(8).unwrap(), None);
        let s = store.stats();
        assert_eq!((s.entries, s.hits, s.misses, s.publishes), (1, 1, 1, 1));
        drop(store);

        // Everything survives a reopen (the fsync'd index + objects).
        let store = Store::open(&root, 0).unwrap();
        assert_eq!(store.lookup_result(7).unwrap().as_deref(), Some("{\"ok\":true,\"id\":1}"));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn republish_is_idempotent_and_upgrades() {
        let root = temp_root("idem");
        let store = Store::open(&root, 0).unwrap();
        let ck1 = ckpt_fixture(&root, 1);
        assert!(store.publish(5, 55, None, Some(&ck1)).unwrap().published);
        // Same-or-worse: skipped.
        assert!(!store.publish(5, 55, None, Some(&ck1)).unwrap().published);
        // Strictly better (more rank layers): replaces.
        let ck3 = {
            let dir = root.join("ckpt-fixture");
            let _ = fs::remove_dir_all(&dir);
            ckpt_fixture(&root, 3)
        };
        assert!(store.publish(5, 55, None, Some(&ck3)).unwrap().published);
        // A result upgrade also replaces.
        assert!(store.publish(5, 55, Some("{\"ok\":true}"), None).unwrap().published);
        assert_eq!(store.lookup_result(5).unwrap().as_deref(), Some("{\"ok\":true}"));
        assert_eq!(store.stats().entries, 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn seed_checkpoint_materializes_verified_prefix() {
        let root = temp_root("seed");
        let store = Store::open(&root, 0).unwrap();
        let ck = ckpt_fixture(&root, 2);
        store.publish(11, 99, None, Some(&ck)).unwrap();
        let dest = root.join("dest-ckpt");
        let seeded = store.seed_checkpoint(99, &dest).unwrap().unwrap();
        assert_eq!((seeded.source_key, seeded.ranks), (11, 2));
        assert_eq!(fs::read(dest.join(JOURNAL_FILE)).unwrap(), b"journal-bytes-journal-bytes");
        assert!(dest.join("rank-00002.bdd").is_file());
        assert_eq!(store.seed_checkpoint(98, &root.join("none")).unwrap(), None);
        assert_eq!(store.stats().partial_hits, 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn lru_eviction_respects_cap_and_recency() {
        let root = temp_root("lru");
        // Small cap: entries are ~60-80 bytes each (result + manifest).
        let store = Store::open(&root, 400).unwrap();
        store.publish(1, 0, Some(&"a".repeat(64)), None).unwrap();
        store.publish(2, 0, Some(&"b".repeat(64)), None).unwrap();
        // Touch 1 so 2 becomes the LRU candidate.
        assert!(store.lookup_result(1).unwrap().is_some());
        let rep = store.publish(3, 0, Some(&"c".repeat(64)), None).unwrap();
        assert!(rep.published);
        assert!(rep.evicted >= 1, "cap must force an eviction");
        assert!(store.contains(1), "recently-used entry must survive");
        assert!(!store.contains(2), "LRU entry must be evicted first");
        let s = store.stats();
        assert!(s.bytes <= 400, "store must end under its cap, got {}", s.bytes);
        assert_eq!(s.evictions, rep.evicted);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn gc_with_override_and_to_zero() {
        let root = temp_root("gc");
        let store = Store::open(&root, 0).unwrap();
        for k in 0..4u64 {
            store.publish(k, 0, Some(&format!("{{\"k\":{k}}}")), None).unwrap();
        }
        assert_eq!(store.stats().entries, 4);
        let rep = store.gc(Some(1)).unwrap();
        assert_eq!(rep.evicted, 4);
        assert_eq!(rep.entries, 0);
        assert_eq!(store.stats().bytes, 0);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_result_is_typed_error_and_miss_never_wrong() {
        let root = temp_root("corrupt");
        let store = Store::open(&root, 0).unwrap();
        store.publish(9, 0, Some("{\"ok\":true,\"payload\":\"real\"}"), None).unwrap();
        // Flip one byte of the stored payload.
        let path = root.join(OBJECTS_DIR).join(format!("{:016x}", 9)).join(RESULT_FILE);
        let mut bytes = fs::read(&path).unwrap();
        bytes[10] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        match store.lookup_result(9) {
            Err(StoreError::Corrupt { key, .. }) => assert_eq!(key, 9),
            other => panic!("corruption must surface typed, got {other:?}"),
        }
        // The entry is gone: the next lookup is a clean miss.
        assert_eq!(store.lookup_result(9).unwrap(), None);
        assert_eq!(store.stats().corrupt_dropped, 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_seed_candidate_is_skipped_not_served() {
        let root = temp_root("corrupt-seed");
        let store = Store::open(&root, 0).unwrap();
        let ck = ckpt_fixture(&root, 1);
        store.publish(21, 5, None, Some(&ck)).unwrap();
        // Corrupt the journal in place.
        let path =
            root.join(OBJECTS_DIR).join(format!("{:016x}", 21)).join(CKPT_DIR).join(JOURNAL_FILE);
        fs::write(&path, b"not the journal").unwrap();
        let dest = root.join("dest");
        assert_eq!(store.seed_checkpoint(5, &dest).unwrap(), None, "corrupt candidate dropped");
        assert!(!dest.join(JOURNAL_FILE).exists(), "no partial seed may remain");
        assert_eq!(store.stats().corrupt_dropped, 1);
        let _ = fs::remove_dir_all(&root);
    }

    /// The seeded crash sweep over publish/read points: manufacture every
    /// intermediate on-disk state a kill could leave behind and prove the
    /// next open recovers to a store that never serves a wrong artifact.
    #[test]
    fn crash_state_sweep_recovers_cleanly() {
        // State A: leftover staging directory (killed mid-publish).
        let root = temp_root("crash-a");
        {
            let store = Store::open(&root, 0).unwrap();
            store.publish(1, 0, Some("{\"ok\":true}"), None).unwrap();
        }
        fs::create_dir_all(root.join(TMP_DIR).join("00000000000000aa-3")).unwrap();
        fs::write(root.join(TMP_DIR).join("00000000000000aa-3").join(RESULT_FILE), b"half")
            .unwrap();
        let store = Store::open(&root, 0).unwrap();
        assert!(!root.join(TMP_DIR).join("00000000000000aa-3").exists(), "staging wiped");
        assert_eq!(store.lookup_result(1).unwrap().as_deref(), Some("{\"ok\":true}"));
        drop(store);
        let _ = fs::remove_dir_all(&root);

        // State B: object directory renamed live but the index append
        // never happened (orphan) — removed, lookups miss cleanly.
        let root = temp_root("crash-b");
        {
            let _ = Store::open(&root, 0).unwrap();
        }
        let orphan = root.join(OBJECTS_DIR).join(format!("{:016x}", 0xBB));
        fs::create_dir_all(&orphan).unwrap();
        fs::write(orphan.join(MANIFEST_FILE), "stsyn-store-manifest v1\n").unwrap();
        let store = Store::open(&root, 0).unwrap();
        assert!(!orphan.exists(), "orphan object dir must be removed");
        assert_eq!(store.lookup_result(0xBB).unwrap(), None);
        drop(store);
        let _ = fs::remove_dir_all(&root);

        // State C: Del record appended but directory removal lost — the
        // reopened store finishes the removal.
        let root = temp_root("crash-c");
        {
            let store = Store::open(&root, 0).unwrap();
            store.publish(0xCC, 0, Some("{\"ok\":true}"), None).unwrap();
            store.gc(Some(1)).unwrap(); // appends Del + removes dir
        }
        // Recreate the directory as if the removal had been lost.
        let dir = root.join(OBJECTS_DIR).join(format!("{:016x}", 0xCC));
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(MANIFEST_FILE), "garbage").unwrap();
        let store = Store::open(&root, 0).unwrap();
        assert!(!dir.exists(), "logically-deleted dir must be cleaned up");
        assert_eq!(store.lookup_result(0xCC).unwrap(), None);
        drop(store);
        let _ = fs::remove_dir_all(&root);

        // State D: torn index tail at every truncation point — the valid
        // prefix is salvaged, never a panic, never a wrong result.
        let root = temp_root("crash-d");
        {
            let store = Store::open(&root, 0).unwrap();
            store.publish(1, 0, Some("{\"v\":1}"), None).unwrap();
            store.publish(2, 0, Some("{\"v\":2}"), None).unwrap();
        }
        let index_bytes = fs::read(root.join(INDEX_FILE)).unwrap();
        for cut in (0..index_bytes.len()).step_by(3) {
            let sweep_root = temp_root(&format!("crash-d-{cut}"));
            fs::create_dir_all(&sweep_root).unwrap();
            copy_dir(&root, &sweep_root);
            fs::write(sweep_root.join(INDEX_FILE), &index_bytes[..cut]).unwrap();
            let store = Store::open(&sweep_root, 0).unwrap();
            for key in [1u64, 2] {
                match store.lookup_result(key) {
                    Ok(Some(text)) => assert_eq!(text, format!("{{\"v\":{key}}}")),
                    Ok(None) => {} // a miss is always sound
                    Err(e) => panic!("salvaged store must not error: {e}"),
                }
            }
            drop(store);
            let _ = fs::remove_dir_all(&sweep_root);
        }
        let _ = fs::remove_dir_all(&root);
    }

    fn copy_dir(src: &Path, dst: &Path) {
        for entry in fs::read_dir(src).unwrap().flatten() {
            let to = dst.join(entry.file_name());
            if entry.path().is_dir() {
                fs::create_dir_all(&to).unwrap();
                copy_dir(&entry.path(), &to);
            } else {
                fs::copy(entry.path(), &to).unwrap();
            }
        }
    }

    #[test]
    fn concurrent_publish_and_lookup_are_consistent() {
        let root = temp_root("concurrent");
        let store = std::sync::Arc::new(Store::open(&root, 0).unwrap());
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let store = std::sync::Arc::clone(&store);
                scope.spawn(move || {
                    for i in 0..25u64 {
                        let key = (t * 25 + i) % 17;
                        let payload = format!("{{\"key\":{key}}}");
                        store.publish(key, 0, Some(&payload), None).unwrap();
                        match store.lookup_result(key) {
                            Ok(Some(text)) => assert_eq!(text, payload),
                            Ok(None) => {} // racing evict/replace: a miss is sound
                            Err(e) => panic!("unexpected corruption under races: {e}"),
                        }
                    }
                });
            }
        });
        let s = store.stats();
        assert_eq!(s.entries, 17);
        assert_eq!(s.corrupt_dropped, 0);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn verify_drops_corrupt_entries_and_keeps_good_ones() {
        let root = temp_root("verify");
        let store = Store::open(&root, 0).unwrap();
        store.publish(1, 0, Some("{\"good\":1}"), None).unwrap();
        let ck = ckpt_fixture(&root, 1);
        store.publish(2, 7, None, Some(&ck)).unwrap();
        // Corrupt entry 2's rank snapshot.
        let path = root
            .join(OBJECTS_DIR)
            .join(format!("{:016x}", 2))
            .join(CKPT_DIR)
            .join("rank-00001.bdd");
        fs::write(&path, b"zap").unwrap();
        let rep = store.verify().unwrap();
        assert_eq!((rep.verified, rep.corrupt_dropped), (1, 1));
        assert!(store.contains(1));
        assert!(!store.contains(2));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn index_records_roundtrip_and_reject_junk() {
        for rec in [
            IndexRecord::Put {
                key: 7,
                warm: 8,
                bytes: 9,
                ranks: 3,
                flags: FLAG_RESULT | FLAG_CKPT,
                manifest_crc: 0xABCD,
            },
            IndexRecord::Touch { key: u64::MAX },
            IndexRecord::Del { key: 0 },
        ] {
            assert_eq!(decode_record(&encode_record(&rec)).as_ref(), Some(&rec));
        }
        assert_eq!(decode_record(&[]), None);
        assert_eq!(decode_record(&[9, 1, 2, 3]), None);
        assert_eq!(decode_record(&[1, 0]), None, "truncated Put");
    }

    #[test]
    fn manifest_rejects_traversal_and_malformed_lines() {
        let files = vec![ManifestFile { name: "result.json".into(), crc: 1, len: 2 }];
        let text = render_manifest(1, 2, &files);
        let (k, w, parsed) = parse_manifest(&text).unwrap();
        assert_eq!((k, w, parsed), (1, 2, files));
        assert!(parse_manifest("nope").is_none());
        let evil = "stsyn-store-manifest v1\nkey 0000000000000001\nwarm 0000000000000002\nfile 00000001 2 ../../etc/passwd\n";
        assert!(parse_manifest(evil).is_none(), "path traversal must be rejected");
    }
}
