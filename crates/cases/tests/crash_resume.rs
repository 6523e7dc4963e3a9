//! Crash-injection sweep for checkpoint/resume: kill a checkpointed
//! synthesis at many points across the run, resume each from its journal,
//! and require the resumed outcome to be **bit-identical** to an
//! uninterrupted run (same printed protocol text) and to re-pass the
//! independent strong-convergence model check.
//!
//! `Budget::with_fail_at_tick(n)` is the crash: journaling itself performs
//! no BDD operations, so the tick coordinate system of a checkpointed run
//! matches a plain one and a single reference run calibrates the sweep.
//!
//! The full sweep covers ≥100 injection points across three case studies;
//! CI sets `CRASH_SWEEP_POINTS` to run a reduced sweep.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use stsyn_bdd::Budget;
use stsyn_cases::{coloring, matching, token_ring};
use stsyn_core::checkpoint::{self, Record};
use stsyn_core::{AddConvergence, Options, Outcome, SynthesisError};
use stsyn_protocol::expr::Expr;
use stsyn_protocol::Protocol;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("stsyn-crash-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn printed(outcome: &Outcome, invariant: &Expr) -> String {
    stsyn_protocol::printer::to_dsl("out", &outcome.extract_protocol(), invariant)
}

/// Points per case from `CRASH_SWEEP_POINTS` (total across the suite is
/// roughly 2× this per-case figure; the default full sweep is ≥100).
fn points_per_case(default: u64) -> u64 {
    match std::env::var("CRASH_SWEEP_POINTS") {
        Ok(v) => v.parse::<u64>().expect("CRASH_SWEEP_POINTS must be a number").max(1),
        Err(_) => default,
    }
}

/// Reference run: checkpointed under a huge (never-violated) budget so it
/// shares both the tick coordinate system and the journal trajectory with
/// the injected runs. Returns the canonical printed output and the total
/// tick count.
fn reference(tag: &str, p: &Protocol, i: &Expr) -> (String, u64) {
    let dir = temp_dir(&format!("{tag}-ref"));
    let opts = Options {
        budget: Some(Budget::unlimited().with_max_ticks(u64::MAX >> 1)),
        ..Options::default()
    };
    let problem = AddConvergence::new(p.clone(), i.clone()).unwrap();
    let outcome = problem
        .synthesize_resumable(&opts, &dir)
        .expect("huge budget must not interrupt synthesis");
    let total = outcome.stats.bdd_ticks;
    assert!(total > 0, "{tag}: a synthesis run must consume ticks");
    std::fs::remove_dir_all(&dir).unwrap();
    (printed(&outcome, i), total)
}

/// Kill a checkpointed run at ~`points` distinct ticks, resume each, and
/// compare against the uninterrupted reference. Returns the number of
/// points at which the injection actually fired mid-synthesis.
fn sweep(tag: &str, p: &Protocol, i: &Expr, points: u64) -> u64 {
    let (want, total) = reference(tag, p, i);
    let problem = AddConvergence::new(p.clone(), i.clone()).unwrap();
    let step = (total / points).max(1);
    let mut crashed_and_resumed = 0;
    let mut n = 1;
    while n <= total {
        let dir = temp_dir(tag);
        let inject = Options {
            budget: Some(Budget::unlimited().with_fail_at_tick(n)),
            ..Options::default()
        };
        match problem.synthesize_resumable(&inject, &dir) {
            Err(SynthesisError::ResourceExhausted { .. }) => {
                // The crash fired; resume from the journal with no budget.
                let mut resumed = problem
                    .synthesize_resumable(&Options::default(), &dir)
                    .unwrap_or_else(|e| panic!("{tag}: tick {n}: resume failed: {e}"));
                assert_eq!(
                    want,
                    printed(&resumed, i),
                    "{tag}: tick {n}: resumed output differs from uninterrupted run"
                );
                assert!(
                    resumed.verify_strong(),
                    "{tag}: tick {n}: resumed protocol failed re-verification"
                );
                crashed_and_resumed += 1;
            }
            Ok(outcome) => {
                // Injection landed after the last BDD op; the run
                // completed — it must still be correct.
                assert_eq!(want, printed(&outcome, i), "{tag}: tick {n}: output differs");
            }
            Err(e) => panic!("{tag}: tick {n}: unexpected error: {e}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
        n += step;
    }
    crashed_and_resumed
}

#[test]
fn matching_crash_sweep_resumes_bit_identical() {
    let (p, i) = matching::matching(3);
    let points = points_per_case(50);
    let exercised = sweep("matching3", &p, &i, points);
    assert!(exercised > 0, "sweep exercised no crash points");
}

#[test]
fn coloring_crash_sweep_resumes_bit_identical() {
    let (p, i) = coloring::coloring(3);
    let points = points_per_case(35);
    let exercised = sweep("coloring3", &p, &i, points);
    assert!(exercised > 0, "sweep exercised no crash points");
}

#[test]
fn token_ring_crash_sweep_resumes_bit_identical() {
    let (p, i) = token_ring::token_ring(3, 2);
    let points = points_per_case(20);
    let exercised = sweep("tokenring32", &p, &i, points);
    assert!(exercised > 0, "sweep exercised no crash points");
}

/// A cut inside a schedule step that kept two or more groups: the journal
/// holds the step's `Group` records but not its `StepDone` fence, as after
/// a kill between the two appends. The resume commits those groups as one
/// batch through the same function a live step uses, finishes the step
/// live, and must end bit-identical, with the groups in the same order.
#[test]
fn cut_inside_a_multi_group_step_resumes_bit_identical() {
    let (p, i) = coloring::coloring(4);
    let problem = AddConvergence::new(p, i.clone()).unwrap();
    let dir = temp_dir("multi-group");
    let reference = problem.synthesize_resumable(&Options::default(), &dir).unwrap();

    // Walk the journal frame by frame (u32 length, u32 CRC, payload) to
    // the StepDone of the first step with at least two groups.
    let path = dir.join(checkpoint::JOURNAL_FILE);
    let bytes = std::fs::read(&path).unwrap();
    let records = checkpoint::read_journal(&path).unwrap().records;
    let mut pos = checkpoint::JOURNAL_MAGIC.len() + 4;
    let mut groups_in_step = 0;
    let mut cut = None;
    for rec in &records {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        match rec {
            Record::Group { .. } => groups_in_step += 1,
            Record::StepDone { .. } if groups_in_step >= 2 => {
                cut = Some(pos);
                break;
            }
            Record::StepDone { .. } => groups_in_step = 0,
            _ => {}
        }
        pos += 8 + len;
    }
    let cut = cut.expect("coloring(4) has a step that keeps two or more groups");
    std::fs::OpenOptions::new().write(true).open(&path).unwrap().set_len(cut as u64).unwrap();

    let resumed = problem.synthesize_resumable(&Options::default(), &dir).unwrap();
    assert_eq!(printed(&reference, &i), printed(&resumed, &i));
    assert_eq!(reference.added, resumed.added, "groups committed in a different order");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A run crashed *twice* (injection during the resumed run as well) must
/// still converge to the identical output on the third, uninjected resume.
#[test]
fn double_crash_still_resumes_bit_identical() {
    let (p, i) = matching::matching(3);
    let (want, total) = reference("double", &p, &i);
    let problem = AddConvergence::new(p.clone(), i.clone()).unwrap();
    let dir = temp_dir("double-run");
    let first = Options {
        budget: Some(Budget::unlimited().with_fail_at_tick(total / 3)),
        ..Options::default()
    };
    match problem.synthesize_resumable(&first, &dir) {
        Err(SynthesisError::ResourceExhausted { .. }) => {}
        other => panic!("first injection did not fire: {:?}", other.map(|_| ())),
    }
    // Second crash mid-way through the *resumed* run. Replay skips work,
    // so the resumed run is shorter; a third of the original total lands
    // somewhere inside it (if it completes instead, that's fine too — the
    // output check below still applies).
    let second = Options {
        budget: Some(Budget::unlimited().with_fail_at_tick(total / 3)),
        ..Options::default()
    };
    match problem.synthesize_resumable(&second, &dir) {
        Err(SynthesisError::ResourceExhausted { .. }) => {
            let mut resumed = problem.synthesize_resumable(&Options::default(), &dir).unwrap();
            assert_eq!(want, printed(&resumed, &i));
            assert!(resumed.verify_strong());
        }
        Ok(outcome) => assert_eq!(want, printed(&outcome, &i)),
        Err(e) => panic!("unexpected error: {e}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
