//! Problem III.1 — *Adding Convergence* — as a library interface.
//!
//! Input: a protocol `p`, a state predicate `I` closed in `p`, the desired
//! convergence strength, and the topology (already carried by `p`).
//! Output: `p_ss` with `I` unchanged, `δ_pss|I = δ_p|I`, and `p_ss`
//! converging to `I` — or a diagnosed failure.

use crate::heuristic::{synthesize, Outcome};
use crate::schedule::Schedule;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use stsyn_protocol::expr::{Expr, Ty};
use stsyn_protocol::group::GroupDesc;
use stsyn_protocol::Protocol;
use stsyn_symbolic::{BddError, Budget};

/// Panic message for infallible wrappers around `try_*` operations: when
/// no budget is installed the fallible core cannot fail.
pub(crate) const INFALLIBLE: &str = "budget exhausted inside an infallible synthesis \
     operation (use the budgeted entry points when a budget is installed)";

/// Tunable knobs for a synthesis run.
#[derive(Debug, Clone)]
pub struct Options {
    /// When set, recovery groups are added orbit-atomically under this
    /// topology automorphism, so the synthesized protocol is symmetric by
    /// construction (§VIII "Symmetry"). `None` reproduces the paper's
    /// plain heuristic.
    pub symmetry: Option<crate::symmetry::Symmetry>,
    /// Resource budget (node ceiling, tick count, wall-clock deadline,
    /// cooperative cancellation) enforced throughout the run. `None` runs
    /// unbudgeted; exhaustion surfaces as
    /// [`SynthesisError::ResourceExhausted`] carrying well-formed partial
    /// progress.
    pub budget: Option<Budget>,
    /// Trace sink for the run: phase spans, per-rank frontier sizes,
    /// SCC/GC/reorder events and the final statistics record all flow
    /// through it (see the `stsyn-obs` crate). The default is the
    /// disabled tracer, whose hooks cost one `Option` check. Excluded
    /// from checkpoint fingerprints, so traced and untraced runs share
    /// journals.
    pub tracer: stsyn_obs::Tracer,
}

impl Default for Options {
    fn default() -> Self {
        Options { symmetry: None, budget: None, tracer: stsyn_obs::Tracer::disabled() }
    }
}

/// Which stage of the synthesis pipeline a budget violation interrupted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Compilation, closure checking, preprocessing and candidate
    /// enumeration — before any rank was layered.
    Setup,
    /// `ComputeRanks` over the maximal candidate protocol `p_im`.
    Ranking,
    /// One of the three recovery passes of `Add_Convergence`.
    Recovery {
        /// The pass (1–3) that was running.
        pass: u8,
    },
    /// The independent model-checking pass over the synthesized protocol.
    Verification,
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Phase::Setup => write!(f, "setup"),
            Phase::Ranking => write!(f, "ranking"),
            Phase::Recovery { pass } => write!(f, "recovery pass {pass}"),
            Phase::Verification => write!(f, "verification"),
        }
    }
}

/// Well-formed partial progress salvaged from a budget-interrupted run.
/// The rank prefix is correctly layered (`ranks_layered` backward-BFS
/// layers were completed, each exact) and every group in `groups_added`
/// had passed `Identify_Resolve_Cycles` when the run stopped.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialProgress {
    /// Number of exact rank layers `ComputeRanks` completed (0 when the
    /// run died before or at the start of ranking).
    pub ranks_layered: usize,
    /// Recovery groups already added *and* cycle-checked.
    pub groups_added: Vec<GroupDesc>,
    /// Live BDD nodes in the manager at the moment of interruption.
    pub live_nodes: usize,
    /// BDD operation ticks consumed.
    pub ticks: u64,
    /// Did the manager pass its unique-table/root consistency audit after
    /// the interruption? (Always expected `true`; exposed so harnesses can
    /// assert it.)
    pub manager_consistent: bool,
}

/// Why a synthesis attempt failed.
#[derive(Debug, Clone, PartialEq)]
pub enum SynthesisError {
    /// The invariant expression is not boolean-typed.
    InvariantNotBool,
    /// The invariant denotes the empty set — nothing to converge to.
    EmptyInvariant,
    /// `I` is not closed in `p` (violates the problem's input condition).
    NotClosed,
    /// Preprocessing found a non-progress cycle in `δ_p | ¬I` whose
    /// participating groups have groupmates originating in `I`; breaking
    /// the cycle would change `δ_p | I`, so the instance is rejected
    /// (paper §V, preprocessing step).
    CycleUnremovable,
    /// `ComputeRanks` found states with rank ∞: by Theorem IV.1 **no**
    /// stabilizing version of `p` exists at all.
    NoStabilizingVersion {
        /// How many states cannot reach `I` under any candidate recovery.
        unreachable_states: f64,
    },
    /// The (incomplete) heuristic could not resolve every deadlock; a
    /// different schedule may still succeed.
    DeadlocksRemain {
        /// Number of unresolved deadlock states after Pass 3.
        remaining: f64,
    },
    /// The supplied schedule is not a permutation of the processes.
    BadSchedule,
    /// The invariant expression is structurally invalid (e.g. a modulo
    /// divisor that is zero or non-constant).
    InvalidExpression(String),
    /// Every schedule tried by a parallel exploration failed; carries the
    /// error of the first schedule.
    AllSchedulesFailed(Box<SynthesisError>),
    /// A parallel synthesis worker panicked (an internal bug, reported
    /// instead of poisoning the whole exploration).
    WorkerPanicked,
    /// The resource budget ran out. Carries the phase that was
    /// interrupted, the underlying BDD-level violation, and well-formed
    /// partial progress.
    ResourceExhausted {
        /// The pipeline stage that was running.
        phase: Phase,
        /// The BDD-level budget violation.
        cause: BddError,
        /// Progress salvaged from the interrupted run.
        partial: Box<PartialProgress>,
    },
    /// A checkpointed run could not open, journal to, or resume from its
    /// checkpoint directory (see [`crate::checkpoint::CheckpointError`]).
    Checkpoint(crate::checkpoint::CheckpointError),
}

impl fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthesisError::InvariantNotBool => write!(f, "invariant is not boolean-typed"),
            SynthesisError::EmptyInvariant => write!(f, "invariant denotes the empty set"),
            SynthesisError::NotClosed => {
                write!(f, "I is not closed in p (input condition of Problem III.1)")
            }
            SynthesisError::CycleUnremovable => write!(
                f,
                "δ_p|¬I contains a non-progress cycle whose groups reach into I; cannot break it without changing δ_p|I"
            ),
            SynthesisError::NoStabilizingVersion { unreachable_states } => write!(
                f,
                "no stabilizing version exists: {unreachable_states} states have rank ∞ (Theorem IV.1)"
            ),
            SynthesisError::DeadlocksRemain { remaining } => write!(
                f,
                "heuristic failure: {remaining} deadlock states remain after Pass 3 (try another schedule)"
            ),
            SynthesisError::BadSchedule => {
                write!(f, "schedule is not a permutation of the protocol's processes")
            }
            SynthesisError::InvalidExpression(m) => write!(f, "invalid expression: {m}"),
            SynthesisError::AllSchedulesFailed(first) => {
                write!(f, "every schedule failed; first error: {first}")
            }
            SynthesisError::WorkerPanicked => {
                write!(f, "a parallel synthesis worker panicked (internal error)")
            }
            SynthesisError::ResourceExhausted { phase, cause, partial } => write!(
                f,
                "resource budget exhausted during {phase}: {cause} \
                 ({} rank layers, {} groups added before interruption)",
                partial.ranks_layered,
                partial.groups_added.len()
            ),
            SynthesisError::Checkpoint(e) => write!(f, "checkpoint failure: {e}"),
        }
    }
}

impl std::error::Error for SynthesisError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SynthesisError::ResourceExhausted { cause, .. } => Some(cause),
            SynthesisError::AllSchedulesFailed(first) => Some(&**first),
            SynthesisError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

/// An instance of Problem III.1: protocol plus legitimate-state predicate.
#[derive(Debug, Clone)]
pub struct AddConvergence {
    protocol: Protocol,
    invariant: Expr,
}

impl AddConvergence {
    /// Bundle an instance; the invariant must typecheck as boolean.
    /// (Closure of `I` in `p` is checked symbolically at synthesis time.)
    pub fn new(protocol: Protocol, invariant: Expr) -> Result<Self, SynthesisError> {
        match invariant.typecheck() {
            Ok(Ty::Bool) => {}
            _ => return Err(SynthesisError::InvariantNotBool),
        }
        invariant
            .validate_moduli()
            .map_err(|e| SynthesisError::InvalidExpression(e.to_string()))?;
        Ok(AddConvergence { protocol, invariant })
    }

    /// The protocol `p`.
    pub fn protocol(&self) -> &Protocol {
        &self.protocol
    }

    /// The predicate `I`.
    pub fn invariant(&self) -> &Expr {
        &self.invariant
    }

    /// The default recovery schedule `(P1, …, P_{k-1}, P0)` — the order
    /// the paper uses for its running example.
    pub fn default_schedule(&self) -> Schedule {
        let k = self.protocol.num_processes();
        if k == 0 {
            Schedule::identity(0)
        } else {
            Schedule::rotated(k, 1 % k)
        }
    }

    /// Add **strong** convergence with the default schedule.
    pub fn synthesize(&self, opts: &Options) -> Result<Outcome, SynthesisError> {
        self.synthesize_with(opts, self.default_schedule())
    }

    /// Add strong convergence with an explicit recovery schedule.
    pub fn synthesize_with(
        &self,
        opts: &Options,
        schedule: Schedule,
    ) -> Result<Outcome, SynthesisError> {
        synthesize(&self.protocol, &self.invariant, opts, schedule)
    }

    /// Add strong convergence with **crash-safe checkpointing**: the run
    /// write-ahead-journals every committed rank layer and accepted
    /// recovery group into `checkpoint_dir`, and — when the directory
    /// already holds a compatible journal — resumes from it, skipping all
    /// completed work. A resumed run produces a protocol bit-identical to
    /// an uninterrupted one. Uses the default schedule; see
    /// [`AddConvergence::synthesize_resumable_with`] for explicit control.
    pub fn synthesize_resumable(
        &self,
        opts: &Options,
        checkpoint_dir: &std::path::Path,
    ) -> Result<Outcome, SynthesisError> {
        let resume = checkpoint_dir.join(crate::checkpoint::JOURNAL_FILE).exists();
        self.synthesize_resumable_with(opts, self.default_schedule(), checkpoint_dir, resume)
    }

    /// [`AddConvergence::synthesize_resumable`] with an explicit schedule
    /// and resume mode. With `resume = false` the directory must not
    /// already hold a journal ([`crate::checkpoint::CheckpointError::Exists`]
    /// otherwise); with `resume = true` an existing journal is validated
    /// against this problem/schedule/options (the budget is excluded from
    /// the comparison, so a crashed budgeted run can be resumed with a
    /// larger budget or none) and replayed — a corrupt or torn journal
    /// tail degrades to the last valid prefix with a warning. On
    /// [`SynthesisError::ResourceExhausted`] a final checkpoint marker is
    /// journaled before returning, so a follow-up resume picks up exactly
    /// where the budget cut off.
    pub fn synthesize_resumable_with(
        &self,
        opts: &Options,
        schedule: Schedule,
        checkpoint_dir: &std::path::Path,
        resume: bool,
    ) -> Result<Outcome, SynthesisError> {
        let fp = crate::checkpoint::fingerprint(&self.protocol, &self.invariant, opts, &schedule);
        let mut session = if resume {
            crate::checkpoint::CheckpointSession::resume(checkpoint_dir, fp)
        } else {
            crate::checkpoint::CheckpointSession::create(checkpoint_dir, fp)
        }
        .map_err(SynthesisError::Checkpoint)?;
        let result = crate::heuristic::synthesize_checkpointed(
            &self.protocol,
            &self.invariant,
            opts,
            schedule,
            Some(&mut session),
        );
        match &result {
            Ok(_) => session.record_done().map_err(SynthesisError::Checkpoint)?,
            Err(SynthesisError::ResourceExhausted { phase, .. }) => {
                // The final checkpoint: everything committed is already
                // journaled; the cut marks it deliberate for resume and
                // syncs it, so the promised resume survives an OS crash.
                session.record_cut(phase).map_err(SynthesisError::Checkpoint)?;
            }
            Err(_) => {}
        }
        result
    }

    /// Add **weak** convergence (Theorem IV.1: sound and complete) with
    /// default options.
    pub fn synthesize_weak(&self) -> Result<Outcome, SynthesisError> {
        self.synthesize_weak_with(&Options::default())
    }

    /// Add weak convergence under explicit options (only the budget is
    /// consulted — weak synthesis has no SCC or symmetry knobs).
    pub fn synthesize_weak_with(&self, opts: &Options) -> Result<Outcome, SynthesisError> {
        crate::weak::synthesize_weak(&self.protocol, &self.invariant, opts)
    }

    /// Race several schedules, one per thread (the paper's Fig. 1 runs one
    /// synthesizer instance per schedule on separate machines). Returns
    /// the first success in schedule order, or — when every schedule
    /// fails — `AllSchedulesFailed` carrying the first schedule's error.
    ///
    /// The workers share a cooperative cancellation flag: the first to
    /// succeed cancels the rest, whose `ResourceExhausted(Cancelled)`
    /// results are not counted as failures. A worker panic is contained
    /// and reported as [`SynthesisError::WorkerPanicked`] rather than
    /// aborting the exploration.
    pub fn synthesize_parallel(
        &self,
        opts: &Options,
        schedules: Vec<Schedule>,
    ) -> Result<Outcome, SynthesisError> {
        if schedules.is_empty() {
            return Err(SynthesisError::BadSchedule);
        }
        let cancel = Arc::new(AtomicBool::new(false));
        let results: Vec<Result<Outcome, SynthesisError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = schedules
                .into_iter()
                .map(|sch| {
                    let mut opts = opts.clone();
                    let cancel = Arc::clone(&cancel);
                    opts.budget = Some(
                        opts.budget.take().unwrap_or_default().with_cancel(Arc::clone(&cancel)),
                    );
                    scope.spawn(move || {
                        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            synthesize(&self.protocol, &self.invariant, &opts, sch)
                        }));
                        match r {
                            Ok(Ok(out)) => {
                                // Tell the siblings to stop working.
                                cancel.store(true, Ordering::Relaxed);
                                Ok(out)
                            }
                            Ok(Err(e)) => Err(e),
                            Err(_) => Err(SynthesisError::WorkerPanicked),
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or(Err(SynthesisError::WorkerPanicked)))
                .collect()
        });
        let mut first_err: Option<SynthesisError> = None;
        for r in results {
            match r {
                Ok(out) => return Ok(out),
                // A worker cancelled because a sibling won is not a
                // failure of its schedule; skip it when picking the error
                // to report.
                Err(SynthesisError::ResourceExhausted { cause, .. })
                    if cause.resource() == stsyn_symbolic::Resource::Cancelled => {}
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        // Every schedule failed; all-cancelled without a success cannot
        // happen (only a success sets the flag), but fall back gracefully.
        Err(SynthesisError::AllSchedulesFailed(Box::new(
            first_err.unwrap_or(SynthesisError::WorkerPanicked),
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stsyn_protocol::action::Action;
    use stsyn_protocol::topology::{ProcIdx, ProcessDecl, VarDecl, VarIdx};

    fn v(i: usize) -> Expr {
        Expr::var(VarIdx(i))
    }

    #[test]
    fn rejects_integer_invariant() {
        let vars = vec![VarDecl::new("a", 2)];
        let procs = vec![ProcessDecl::new("P0", vec![VarIdx(0)], vec![VarIdx(0)]).unwrap()];
        let p = Protocol::new(vars, procs, vec![]).unwrap();
        assert!(matches!(
            AddConvergence::new(p, Expr::int(1)),
            Err(SynthesisError::InvariantNotBool)
        ));
    }

    #[test]
    fn default_schedule_rotates() {
        let vars: Vec<VarDecl> = (0..3).map(|i| VarDecl::new(format!("x{i}"), 2)).collect();
        let procs: Vec<ProcessDecl> = (0..3)
            .map(|j| ProcessDecl::new(format!("P{j}"), vec![VarIdx(j)], vec![VarIdx(j)]).unwrap())
            .collect();
        let p = Protocol::new(vars, procs, vec![]).unwrap();
        let prob = AddConvergence::new(p, Expr::Bool(true)).unwrap();
        assert_eq!(prob.default_schedule(), Schedule::rotated(3, 1));
    }

    #[test]
    fn parallel_synthesis_returns_a_success() {
        // Two independent bits, I = both zero; any schedule works.
        let vars = vec![VarDecl::new("a", 2), VarDecl::new("b", 2)];
        let procs = vec![
            ProcessDecl::new("P0", vec![VarIdx(0)], vec![VarIdx(0)]).unwrap(),
            ProcessDecl::new("P1", vec![VarIdx(1)], vec![VarIdx(1)]).unwrap(),
        ];
        let p = Protocol::new(vars, procs, vec![]).unwrap();
        let i = v(0).eq(Expr::int(0)).and(v(1).eq(Expr::int(0)));
        let prob = AddConvergence::new(p, i).unwrap();
        let mut out =
            prob.synthesize_parallel(&Options::default(), Schedule::all_rotations(2)).unwrap();
        assert!(out.verify_strong());
    }

    #[test]
    fn unremovable_cycle_is_rejected() {
        // P0 reads/writes only `a`; `b` is readable by nobody's writes…
        // Action: toggle a unconditionally. Its two groups each cover both
        // values of b. I = {b == 0} is closed (b never written). ¬I has
        // the cycle (0,1) ↔ (1,1) whose groups also act inside I.
        let vars = vec![VarDecl::new("a", 2), VarDecl::new("b", 2)];
        let procs = vec![ProcessDecl::new("P0", vec![VarIdx(0)], vec![VarIdx(0)]).unwrap()];
        let toggle =
            Action::new(ProcIdx(0), Expr::Bool(true), vec![(VarIdx(0), Expr::int(1).sub(v(0)))]);
        let p = Protocol::new(vars, procs, vec![toggle]).unwrap();
        let i = v(1).eq(Expr::int(0));
        let prob = AddConvergence::new(p, i).unwrap();
        assert!(matches!(
            prob.synthesize(&Options::default()),
            Err(SynthesisError::CycleUnremovable)
        ));
    }

    #[test]
    fn all_schedules_failed_propagates_first_error() {
        // Unwritable variable pinned by I: every schedule fails with
        // NoStabilizingVersion.
        let vars = vec![VarDecl::new("a", 2), VarDecl::new("b", 2)];
        let procs = vec![
            ProcessDecl::new("P0", vec![VarIdx(0), VarIdx(1)], vec![VarIdx(0)]).unwrap(),
            ProcessDecl::new("P1", vec![VarIdx(0), VarIdx(1)], vec![VarIdx(0)]).unwrap(),
        ];
        let p = Protocol::new(vars, procs, vec![]).unwrap();
        let i = v(1).eq(Expr::int(0)).and(v(0).eq(Expr::int(0)));
        let prob = AddConvergence::new(p, i).unwrap();
        match prob.synthesize_parallel(&Options::default(), Schedule::all_rotations(2)) {
            Err(SynthesisError::AllSchedulesFailed(inner)) => {
                assert!(matches!(*inner, SynthesisError::NoStabilizingVersion { .. }));
            }
            other => panic!("expected AllSchedulesFailed, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn error_messages_are_informative() {
        assert!(SynthesisError::NotClosed.to_string().contains("closed"));
        assert!(SynthesisError::NoStabilizingVersion { unreachable_states: 3.0 }
            .to_string()
            .contains("Theorem IV.1"));
        assert!(SynthesisError::DeadlocksRemain { remaining: 2.0 }
            .to_string()
            .contains("schedule"));
    }
}
