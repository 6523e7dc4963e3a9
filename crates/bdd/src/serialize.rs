//! Durable BDD serialization (DDDMP-style) for checkpoint/restore.
//!
//! A dump captures a *set of roots* together with the variable order they
//! were built under, as a topologically-sorted node table: children always
//! precede their parents, so a single forward pass rebuilds the DAG. The
//! format is versioned, every node record is length-prefixed, and the whole
//! file carries a CRC-32 checksum; deserialization validates all of it and
//! returns a typed [`SerializeError`] on any corruption — it never panics
//! and never constructs an ill-formed node.
//!
//! ## File layout (version 1, all integers little-endian `u32`)
//!
//! ```text
//! magic      8 bytes  b"STSYNBDD"
//! version    u32      1
//! num_vars   u32
//! perm       num_vars × u32      variable → level (the dumped order)
//! num_recs   u32
//! num_roots  u32
//! records    num_recs × { len=12 | var | lo | hi }   (topological)
//! roots      num_roots × u32
//! checksum   u32      CRC-32 (IEEE) of every preceding byte
//! ```
//!
//! Node references inside records and roots use a compact numbering:
//! `0` is the `FALSE` terminal, `1` is `TRUE`, and `k + 2` is the `k`-th
//! record. A valid dump is *reduced*: no record has `lo == hi`, no two
//! records coincide, and every record's variable sits strictly above its
//! children in the dumped order — so loading into a fresh manager
//! reproduces the DAG node-for-node (identical node counts).

use crate::manager::{Bdd, Manager, TERMINAL_LEVEL};
use crate::{BddError, VarId};
use std::collections::HashMap;
use std::fmt;
use std::io::{self, Read};

/// File magic: identifies a stsyn-bdd dump.
pub const MAGIC: &[u8; 8] = b"STSYNBDD";
/// Current format version.
pub const FORMAT_VERSION: u32 = 1;
/// Payload length of a version-1 node record (var, lo, hi).
const RECORD_LEN: u32 = 12;

/// Typed deserialization failure. Every way a dump can be malformed maps
/// to a variant here; corrupted input is reported, never panicked on.
#[derive(Debug)]
pub enum SerializeError {
    /// Underlying reader/writer failure.
    Io(io::Error),
    /// The first 8 bytes are not [`MAGIC`] — not a BDD dump at all.
    BadMagic,
    /// The dump's format version is newer than this library understands.
    UnsupportedVersion(u32),
    /// The input ended before the declared structure was complete.
    Truncated,
    /// The trailing CRC-32 does not match the bytes read.
    ChecksumMismatch {
        /// Checksum stored in the file.
        stored: u32,
        /// Checksum recomputed over the bytes actually read.
        computed: u32,
    },
    /// A header field is malformed (e.g. `perm` is not a permutation).
    BadHeader(&'static str),
    /// Node record `index` is malformed (bad length prefix, dangling or
    /// forward reference, redundant or duplicate node, order violation).
    BadRecord {
        /// Zero-based index of the offending record.
        index: u32,
        /// What was wrong with it.
        reason: &'static str,
    },
    /// A root reference points past the node table.
    BadRoot {
        /// Zero-based index of the offending root.
        index: u32,
    },
    /// Bytes remain after the checksum — the file has trailing garbage.
    TrailingData,
    /// The target manager's variable count does not match the dump.
    VarCountMismatch {
        /// Variables in the target manager.
        expected: u32,
        /// Variables declared by the dump.
        found: u32,
    },
    /// The resource budget of the target manager tripped while rebuilding
    /// the dump under a different variable order.
    Resource(BddError),
}

impl fmt::Display for SerializeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SerializeError::Io(e) => write!(f, "I/O error: {e}"),
            SerializeError::BadMagic => write!(f, "not a stsyn-bdd dump (bad magic)"),
            SerializeError::UnsupportedVersion(v) => {
                write!(f, "unsupported dump format version {v} (expected {FORMAT_VERSION})")
            }
            SerializeError::Truncated => write!(f, "dump is truncated"),
            SerializeError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch (stored {stored:#010x}, computed {computed:#010x}) — \
                 the dump is corrupted"
            ),
            SerializeError::BadHeader(why) => write!(f, "malformed dump header: {why}"),
            SerializeError::BadRecord { index, reason } => {
                write!(f, "malformed node record {index}: {reason}")
            }
            SerializeError::BadRoot { index } => write!(f, "root {index} references no node"),
            SerializeError::TrailingData => write!(f, "trailing bytes after checksum"),
            SerializeError::VarCountMismatch { expected, found } => {
                write!(f, "dump has {found} variables but the target manager has {expected}")
            }
            SerializeError::Resource(e) => write!(f, "budget exhausted while loading: {e}"),
        }
    }
}

impl std::error::Error for SerializeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SerializeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SerializeError {
    fn from(e: io::Error) -> Self {
        SerializeError::Io(e)
    }
}

// --- CRC-32 (IEEE 802.3, reflected) ------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE) of `bytes` — the checksum used by the dump format.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// --- Little-endian buffer helpers ---------------------------------------

fn push_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take_u32(&mut self) -> Result<u32, SerializeError> {
        let end = self.pos.checked_add(4).ok_or(SerializeError::Truncated)?;
        let bytes = self.buf.get(self.pos..end).ok_or(SerializeError::Truncated)?;
        self.pos = end;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4-byte slice")))
    }
}

// --- Parsed form ---------------------------------------------------------

/// A structurally-validated dump, before materialization into a manager.
struct Parsed {
    perm: Vec<u32>,
    /// `(var, lo_ref, hi_ref)` triples in topological (children-first) order.
    records: Vec<(u32, u32, u32)>,
    /// Root references into the record numbering.
    roots: Vec<u32>,
}

fn parse(buf: &[u8]) -> Result<Parsed, SerializeError> {
    if buf.len() < MAGIC.len() + 4 {
        return Err(SerializeError::Truncated);
    }
    if &buf[..MAGIC.len()] != MAGIC {
        return Err(SerializeError::BadMagic);
    }
    let mut cur = Cursor { buf, pos: MAGIC.len() };
    let version = cur.take_u32()?;
    if version != FORMAT_VERSION {
        return Err(SerializeError::UnsupportedVersion(version));
    }
    // Verify the trailing checksum before trusting any count field: a
    // single flipped byte anywhere is caught here.
    if buf.len() < cur.pos + 4 {
        return Err(SerializeError::Truncated);
    }
    let body = &buf[..buf.len() - 4];
    let stored = u32::from_le_bytes(buf[buf.len() - 4..].try_into().expect("4-byte slice"));
    let computed = crc32(body);
    if stored != computed {
        return Err(SerializeError::ChecksumMismatch { stored, computed });
    }

    let num_vars = cur.take_u32()?;
    let mut perm = Vec::with_capacity(num_vars as usize);
    let mut seen_level = vec![false; num_vars as usize];
    for _ in 0..num_vars {
        let level = cur.take_u32()?;
        if level >= num_vars {
            return Err(SerializeError::BadHeader("perm level out of range"));
        }
        if std::mem::replace(&mut seen_level[level as usize], true) {
            return Err(SerializeError::BadHeader("perm is not a permutation"));
        }
        perm.push(level);
    }
    let num_recs = cur.take_u32()?;
    let num_roots = cur.take_u32()?;
    // The remaining length is fully determined by the counts.
    let expected = (num_recs as u64) * (4 + RECORD_LEN as u64) + (num_roots as u64) * 4 + 4;
    let remaining = (buf.len() - cur.pos) as u64;
    if remaining < expected {
        return Err(SerializeError::Truncated);
    }
    if remaining > expected {
        return Err(SerializeError::TrailingData);
    }

    let mut records = Vec::with_capacity(num_recs as usize);
    let mut dedup: HashMap<(u32, u32, u32), u32> = HashMap::with_capacity(num_recs as usize);
    for index in 0..num_recs {
        let len = cur.take_u32()?;
        if len != RECORD_LEN {
            return Err(SerializeError::BadRecord { index, reason: "bad length prefix" });
        }
        let var = cur.take_u32()?;
        let lo = cur.take_u32()?;
        let hi = cur.take_u32()?;
        if var >= num_vars {
            return Err(SerializeError::BadRecord { index, reason: "variable out of range" });
        }
        if lo >= index + 2 || hi >= index + 2 {
            return Err(SerializeError::BadRecord {
                index,
                reason: "child reference is forward or dangling",
            });
        }
        if lo == hi {
            return Err(SerializeError::BadRecord { index, reason: "redundant node (lo == hi)" });
        }
        // Children must sit strictly below the parent in the dumped order.
        let level = perm[var as usize];
        for child in [lo, hi] {
            let child_level = if child < 2 {
                TERMINAL_LEVEL
            } else {
                let (cvar, _, _) = records[(child - 2) as usize];
                perm[cvar as usize]
            };
            if level >= child_level {
                return Err(SerializeError::BadRecord { index, reason: "variable order violated" });
            }
        }
        if dedup.insert((var, lo, hi), index).is_some() {
            return Err(SerializeError::BadRecord { index, reason: "duplicate node" });
        }
        records.push((var, lo, hi));
    }
    let mut roots = Vec::with_capacity(num_roots as usize);
    for index in 0..num_roots {
        let r = cur.take_u32()?;
        if r >= num_recs + 2 {
            return Err(SerializeError::BadRoot { index });
        }
        roots.push(r);
    }
    Ok(Parsed { perm, records, roots })
}

impl Manager {
    /// Serialize `roots` (and every node reachable from them) to a byte
    /// vector in the versioned dump format, capturing the current
    /// variable order.
    #[must_use = "the dump is returned, not written anywhere"]
    pub fn dump_bdds_to_vec(&self, roots: &[Bdd]) -> Vec<u8> {
        // Topological numbering: children-first DFS from each root.
        let mut refs: HashMap<u32, u32> = HashMap::new();
        refs.insert(0, 0);
        refs.insert(1, 1);
        let mut records: Vec<(u32, u32, u32)> = Vec::new();
        let mut stack: Vec<(Bdd, bool)> = Vec::new();
        for &root in roots {
            stack.push((root, false));
            while let Some((f, expanded)) = stack.pop() {
                if expanded {
                    if refs.contains_key(&f.0) {
                        continue;
                    }
                    let n = self.node(f);
                    let lo = refs[&n.lo];
                    let hi = refs[&n.hi];
                    let r = 2 + u32::try_from(records.len()).expect("dump too large");
                    records.push((n.var, lo, hi));
                    refs.insert(f.0, r);
                } else if !refs.contains_key(&f.0) {
                    let n = self.node(f);
                    stack.push((f, true));
                    stack.push((Bdd(n.hi), false));
                    stack.push((Bdd(n.lo), false));
                }
            }
        }

        let mut buf = Vec::with_capacity(
            MAGIC.len() + 16 + self.num_vars() as usize * 4 + records.len() * 16 + roots.len() * 4,
        );
        buf.extend_from_slice(MAGIC);
        push_u32(&mut buf, FORMAT_VERSION);
        push_u32(&mut buf, self.num_vars());
        for &level in &self.perm {
            push_u32(&mut buf, level);
        }
        push_u32(&mut buf, u32::try_from(records.len()).expect("dump too large"));
        push_u32(&mut buf, u32::try_from(roots.len()).expect("too many roots"));
        for &(var, lo, hi) in &records {
            push_u32(&mut buf, RECORD_LEN);
            push_u32(&mut buf, var);
            push_u32(&mut buf, lo);
            push_u32(&mut buf, hi);
        }
        for &root in roots {
            push_u32(&mut buf, refs[&root.0]);
        }
        let crc = crc32(&buf);
        push_u32(&mut buf, crc);
        buf
    }

    /// Deserialize a dump into a **fresh** manager, restoring the dumped
    /// variable order. The rebuilt DAG is node-for-node identical to the
    /// dumped one (same node counts, same structure); returns the manager
    /// and the roots in dump order.
    #[must_use = "a corrupted dump is reported through the Result"]
    pub fn load_bdds(r: &mut dyn Read) -> Result<(Manager, Vec<Bdd>), SerializeError> {
        let mut buf = Vec::new();
        r.read_to_end(&mut buf)?;
        let parsed = parse(&buf)?;
        let mut mgr = Manager::new();
        mgr.new_vars(parsed.perm.len());
        mgr.perm.copy_from_slice(&parsed.perm);
        for (var, &level) in parsed.perm.iter().enumerate() {
            mgr.invperm[level as usize] = var as u32;
        }
        let mut handles: Vec<Bdd> = Vec::with_capacity(parsed.records.len() + 2);
        handles.push(Bdd::FALSE);
        handles.push(Bdd::TRUE);
        for &(var, lo, hi) in &parsed.records {
            let before = mgr.live_nodes();
            let f = mgr.mk(var, handles[lo as usize], handles[hi as usize]);
            debug_assert!(mgr.live_nodes() == before + 1, "validated record was not fresh");
            handles.push(f);
        }
        let roots = parsed.roots.iter().map(|&r| handles[r as usize]).collect();
        Ok((mgr, roots))
    }

    /// Deserialize a dump into **this** manager, which must have the same
    /// number of variables. When the current variable order matches the
    /// dumped one the DAG is rebuilt directly; otherwise each node is
    /// re-derived through (budgeted) `ite`, which re-canonicalizes under
    /// the current order — semantics are preserved either way.
    #[must_use = "a corrupted dump is reported through the Result"]
    pub fn load_bdds_into(&mut self, r: &mut dyn Read) -> Result<Vec<Bdd>, SerializeError> {
        let mut buf = Vec::new();
        r.read_to_end(&mut buf)?;
        let parsed = parse(&buf)?;
        let num_vars = u32::try_from(parsed.perm.len()).expect("validated var count");
        if num_vars != self.num_vars() {
            return Err(SerializeError::VarCountMismatch {
                expected: self.num_vars(),
                found: num_vars,
            });
        }
        let same_order = self.perm == parsed.perm;
        let mut handles: Vec<Bdd> = Vec::with_capacity(parsed.records.len() + 2);
        handles.push(Bdd::FALSE);
        handles.push(Bdd::TRUE);
        for &(var, lo, hi) in &parsed.records {
            let (lo, hi) = (handles[lo as usize], handles[hi as usize]);
            let f = if same_order {
                self.mk(var, lo, hi)
            } else {
                let v = self.var(VarId(var));
                self.try_ite(v, hi, lo).map_err(SerializeError::Resource)?
            };
            handles.push(f);
        }
        Ok(parsed.roots.iter().map(|&r| handles[r as usize]).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_manager() -> (Manager, Vec<Bdd>) {
        let mut m = Manager::new();
        let vars = m.new_vars(4);
        let x: Vec<Bdd> = vars.iter().map(|&v| m.var(v)).collect();
        let a = m.and(x[0], x[1]);
        let nb = m.not(x[2]);
        let f = m.or(a, nb);
        let g = m.xor(x[1], x[3]);
        let h = m.and(f, g);
        (m, vec![f, g, h, Bdd::TRUE, Bdd::FALSE])
    }

    fn all_assignments(n: usize) -> impl Iterator<Item = Vec<bool>> {
        (0..1usize << n).map(move |bits| (0..n).map(|i| bits >> i & 1 == 1).collect())
    }

    #[test]
    fn round_trip_into_fresh_manager() {
        let (m, roots) = sample_manager();
        let bytes = m.dump_bdds_to_vec(&roots);
        let (loaded, new_roots) = Manager::load_bdds(&mut &bytes[..]).unwrap();
        assert_eq!(new_roots.len(), roots.len());
        assert_eq!(loaded.current_order(), m.current_order());
        assert_eq!(loaded.node_count_many(&new_roots), m.node_count_many(&roots));
        for (old, new) in roots.iter().zip(&new_roots) {
            assert_eq!(loaded.node_count(*new), m.node_count(*old));
            for a in all_assignments(4) {
                assert_eq!(loaded.eval(*new, &a), m.eval(*old, &a));
            }
        }
        // Canonical structure ⇒ a re-dump is byte-identical.
        assert_eq!(loaded.dump_bdds_to_vec(&new_roots), bytes);
    }

    #[test]
    fn round_trip_preserves_non_identity_order() {
        let (mut m, roots) = sample_manager();
        let target: Vec<VarId> = [3u32, 1, 0, 2].iter().map(|&v| VarId(v)).collect();
        m.reorder_to(&target, &roots);
        assert_eq!(m.current_order(), target);
        let bytes = m.dump_bdds_to_vec(&roots);
        let (loaded, new_roots) = Manager::load_bdds(&mut &bytes[..]).unwrap();
        assert_eq!(loaded.current_order(), target);
        assert!(loaded.check_order_invariant());
        assert_eq!(loaded.node_count_many(&new_roots), m.node_count_many(&roots));
        for (old, new) in roots.iter().zip(&new_roots) {
            for a in all_assignments(4) {
                assert_eq!(loaded.eval(*new, &a), m.eval(*old, &a));
            }
        }
    }

    #[test]
    fn load_into_same_manager_is_identity() {
        let (mut m, roots) = sample_manager();
        let bytes = m.dump_bdds_to_vec(&roots);
        let loaded = m.load_bdds_into(&mut &bytes[..]).unwrap();
        // Hash-consing: identical structure under the same order resolves
        // to the very same handles.
        assert_eq!(loaded, roots);
    }

    #[test]
    fn load_into_differently_ordered_manager_preserves_semantics() {
        let (m, roots) = sample_manager();
        let bytes = m.dump_bdds_to_vec(&roots);
        let mut other = Manager::new();
        let ovars = other.new_vars(4);
        let target: Vec<VarId> = [2u32, 0, 3, 1].iter().map(|&v| VarId(v)).collect();
        let keep: Vec<Bdd> = ovars.iter().map(|&v| other.var(v)).collect();
        other.reorder_to(&target, &keep);
        let loaded = other.load_bdds_into(&mut &bytes[..]).unwrap();
        for (old, new) in roots.iter().zip(&loaded) {
            for a in all_assignments(4) {
                assert_eq!(other.eval(*new, &a), m.eval(*old, &a));
            }
        }
    }

    #[test]
    fn var_count_mismatch_is_detected() {
        let (m, roots) = sample_manager();
        let bytes = m.dump_bdds_to_vec(&roots);
        let mut small = Manager::new();
        small.new_vars(2);
        match small.load_bdds_into(&mut &bytes[..]) {
            Err(SerializeError::VarCountMismatch { expected: 2, found: 4 }) => {}
            other => panic!("expected VarCountMismatch, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_and_version_are_detected() {
        let (m, roots) = sample_manager();
        let mut bytes = m.dump_bdds_to_vec(&roots);
        bytes[0] ^= 0xFF;
        assert!(matches!(Manager::load_bdds(&mut &bytes[..]), Err(SerializeError::BadMagic)));

        let mut bytes = m.dump_bdds_to_vec(&roots);
        bytes[8] = 99; // version field
        assert!(matches!(
            Manager::load_bdds(&mut &bytes[..]),
            Err(SerializeError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        let (m, roots) = sample_manager();
        let bytes = m.dump_bdds_to_vec(&roots);
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x40;
            assert!(
                Manager::load_bdds(&mut &corrupt[..]).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        let (m, roots) = sample_manager();
        let bytes = m.dump_bdds_to_vec(&roots);
        for len in 0..bytes.len() {
            assert!(
                Manager::load_bdds(&mut &bytes[..len]).is_err(),
                "truncation to {len} bytes went undetected"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let (m, roots) = sample_manager();
        let mut bytes = m.dump_bdds_to_vec(&roots);
        bytes.extend_from_slice(&[0, 1, 2, 3]);
        assert!(Manager::load_bdds(&mut &bytes[..]).is_err());
    }

    #[test]
    fn empty_root_set_round_trips() {
        let m = Manager::new();
        let bytes = m.dump_bdds_to_vec(&[]);
        let (loaded, roots) = Manager::load_bdds(&mut &bytes[..]).unwrap();
        assert!(roots.is_empty());
        assert_eq!(loaded.num_vars(), 0);
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic IEEE CRC-32 test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }
}
