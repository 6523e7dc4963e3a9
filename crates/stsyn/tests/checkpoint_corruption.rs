//! Recovery from corrupted and truncated checkpoints: every trial damages
//! a real checkpoint directory (left by a genuinely interrupted run) and
//! requires `--resume` semantics to degrade to the longest valid journal
//! prefix — typed errors and warnings, never a panic — while still
//! finishing with output bit-identical to an uninterrupted run.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use stsyn_bdd::Budget;
use stsyn_cases::matching::matching;
use stsyn_core::{AddConvergence, Options, Outcome, SynthesisError};
use stsyn_protocol::expr::Expr;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("stsyn-corrupt-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn printed(outcome: &Outcome, invariant: &Expr) -> String {
    stsyn_protocol::printer::to_dsl("out", &outcome.extract_protocol(), invariant)
}

/// Snapshot every file in a checkpoint directory (the lock is gone once
/// the session drops, so this is journal + rank snapshots).
fn snapshot(dir: &Path) -> HashMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (e.file_name().into_string().unwrap(), std::fs::read(e.path()).unwrap())
        })
        .collect()
}

fn restore(dir: &Path, files: &HashMap<String, Vec<u8>>) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap();
    for (name, bytes) in files {
        std::fs::write(dir.join(name), bytes).unwrap();
    }
}

/// Frame boundaries of a journal: offsets after the header and after each
/// `len | crc | payload` frame.
fn frame_boundaries(journal: &[u8]) -> Vec<usize> {
    let mut bounds = vec![12]; // 8-byte magic + 4-byte version
    let mut off = 12;
    while off + 8 <= journal.len() {
        let len = u32::from_le_bytes(journal[off..off + 4].try_into().unwrap()) as usize;
        off += 8 + len;
        assert!(off <= journal.len(), "reference journal is itself torn");
        bounds.push(off);
    }
    bounds
}

/// A checkpointed run on matching(3) interrupted once it has journaled a
/// rank layer, plus the canonical uninterrupted output to compare resumes
/// against.
fn interrupted_checkpoint(tag: &str) -> (PathBuf, HashMap<String, Vec<u8>>, String, Expr) {
    let (p, i) = matching(3);
    let problem = AddConvergence::new(p.clone(), i.clone()).unwrap();

    let ref_dir = temp_dir(&format!("{tag}-ref"));
    let huge = Options {
        budget: Some(Budget::unlimited().with_max_ticks(u64::MAX >> 1)),
        ..Options::default()
    };
    let reference = problem.synthesize_resumable(&huge, &ref_dir).unwrap();
    let want = printed(&reference, &i);
    let total = reference.stats.bdd_ticks;
    std::fs::remove_dir_all(&ref_dir).unwrap();

    // The first twentieth of the reference's ticks, from three fifths on,
    // at which the run has written a rank snapshot: where that falls
    // depends on how the work splits between ranking and recovery.
    let dir = temp_dir(tag);
    for twentieths in 12..20 {
        let inject = Options {
            budget: Some(Budget::unlimited().with_fail_at_tick(total * twentieths / 20)),
            ..Options::default()
        };
        let _ = std::fs::remove_dir_all(&dir);
        match problem.synthesize_resumable(&inject, &dir) {
            Err(SynthesisError::ResourceExhausted { .. }) => {}
            other => panic!("injection did not fire: {:?}", other.map(|_| ())),
        }
        let files = snapshot(&dir);
        assert!(files.contains_key("journal.bin"));
        if files.keys().any(|k| k.starts_with("rank-")) {
            return (dir, files, want, i);
        }
    }
    panic!("no interrupted run left a rank snapshot")
}

fn resume_and_check(dir: &Path, i: &Expr, want: &str, what: &str) {
    let (p, inv) = matching(3);
    assert_eq!(&inv, i);
    let problem = AddConvergence::new(p, inv).unwrap();
    let mut resumed = problem
        .synthesize_resumable(&Options::default(), dir)
        .unwrap_or_else(|e| panic!("{what}: resume failed: {e}"));
    assert_eq!(want, printed(&resumed, i), "{what}: resumed output differs");
    assert!(resumed.verify_strong(), "{what}: re-verification failed");
}

#[test]
fn journal_truncated_at_every_record_boundary_resumes_identically() {
    let (dir, files, want, i) = interrupted_checkpoint("trunc");
    let journal = &files["journal.bin"];
    for &cut in &frame_boundaries(journal) {
        restore(&dir, &files);
        std::fs::write(dir.join("journal.bin"), &journal[..cut]).unwrap();
        resume_and_check(&dir, &i, &want, &format!("truncate at {cut}"));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn journal_with_any_flipped_byte_resumes_identically() {
    let (dir, files, want, i) = interrupted_checkpoint("flip");
    let journal = &files["journal.bin"];
    // Every byte would mean thousands of full resumes; a stride of 7 still
    // hits every frame and every field type many times over.
    for pos in (0..journal.len()).step_by(7) {
        restore(&dir, &files);
        let mut corrupt = journal.clone();
        corrupt[pos] ^= 0x40;
        std::fs::write(dir.join("journal.bin"), &corrupt).unwrap();
        resume_and_check(&dir, &i, &want, &format!("flip at {pos}"));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_rank_snapshots_are_recomputed_not_trusted() {
    let (dir, files, want, i) = interrupted_checkpoint("rank");
    let rank_files: Vec<&String> = files.keys().filter(|k| k.starts_with("rank-")).collect();
    for name in rank_files {
        let bytes = &files[name];
        // Flip a byte in the middle (node table) and one in the header.
        for pos in [1usize, bytes.len() / 2, bytes.len() - 1] {
            restore(&dir, &files);
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0xFF;
            std::fs::write(dir.join(name), &corrupt).unwrap();
            resume_and_check(&dir, &i, &want, &format!("{name} flipped at {pos}"));
        }
        // Delete the snapshot outright.
        restore(&dir, &files);
        std::fs::remove_file(dir.join(name)).unwrap();
        resume_and_check(&dir, &i, &want, &format!("{name} deleted"));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn empty_and_garbage_journals_degrade_to_fresh_runs() {
    let (dir, files, want, i) = interrupted_checkpoint("garbage");
    for journal in [&b""[..], &b"NOTAJRNL"[..], &[0xFFu8; 64][..]] {
        restore(&dir, &files);
        std::fs::write(dir.join("journal.bin"), journal).unwrap();
        resume_and_check(&dir, &i, &want, "garbage journal");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
