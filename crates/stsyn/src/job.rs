//! A library-level job entry point: one call from a *job specification*
//! to a finished, verified synthesis run.
//!
//! Both the `stsyn` command-line tool and the `stsyn-serve` job service
//! funnel through [`JobSpec::run`], so a service never has to shell out to
//! the CLI: the specification carries the protocol and invariant (built
//! programmatically or parsed from DSL text via [`JobSpec::from_dsl`]),
//! the synthesis mode, an optional explicit recovery schedule, an optional
//! resource [`Budget`], and an optional checkpoint directory for
//! crash-safe, resumable execution.
//!
//! Errors are split three ways so front-ends can map them to distinct
//! exit codes / wire errors without pattern-matching deep into
//! [`SynthesisError`]:
//!
//! * [`JobError::Spec`] — the specification itself is inconsistent
//!   (e.g. checkpointing a weak-mode job, a schedule that is not a
//!   permutation of the processes),
//! * [`JobError::Input`] — the protocol/invariant was rejected before
//!   synthesis started (parse error, non-boolean invariant, bad
//!   symmetry), and
//! * [`JobError::Synthesis`] — synthesis (or checkpointing, or budget
//!   enforcement) failed after it started.

use crate::heuristic::Outcome;
use crate::problem::{AddConvergence, Options, PartialProgress, Phase, SynthesisError};
use crate::schedule::Schedule;
use std::fmt;
use std::path::PathBuf;
use stsyn_protocol::expr::Expr;
use stsyn_protocol::{dsl, printer, ProcIdx, Protocol};
use stsyn_symbolic::Budget;

/// How convergence is added.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JobMode {
    /// Strong convergence with a single recovery schedule (the paper's
    /// main heuristic). The only mode that supports checkpointing.
    #[default]
    Strong,
    /// Weak convergence (sound and complete, Theorem IV.1).
    Weak,
    /// Race all schedule rotations in parallel, first success wins.
    Parallel,
}

/// Checkpointing configuration for a [`JobMode::Strong`] job.
#[derive(Debug, Clone)]
pub struct JobCheckpoint {
    /// Directory holding the write-ahead journal and rank snapshots.
    pub dir: PathBuf,
    /// Resume an existing journal (`true`) or require a fresh directory
    /// (`false`). [`JobCheckpoint::auto`] picks based on what is on disk.
    pub resume: bool,
}

impl JobCheckpoint {
    /// Checkpoint into `dir`, resuming if it already holds a journal —
    /// the mode a restarted service wants for in-flight jobs.
    pub fn auto(dir: PathBuf) -> JobCheckpoint {
        let resume = dir.join(crate::checkpoint::JOURNAL_FILE).exists();
        JobCheckpoint { dir, resume }
    }
}

/// A complete description of one synthesis job.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Protocol name (used for reporting and for the emitted `_SS` name).
    pub name: String,
    /// The input protocol `p`.
    pub protocol: Protocol,
    /// The legitimate-state predicate `I`.
    pub invariant: Expr,
    /// Strong / weak / parallel.
    pub mode: JobMode,
    /// Explicit recovery schedule (process indices); `None` uses the
    /// paper's default rotation. Ignored by [`JobMode::Parallel`].
    pub schedule: Option<Vec<usize>>,
    /// Add recovery orbit-atomically under ring-rotation symmetry.
    pub symmetric: bool,
    /// Resource budget (node / tick / deadline / cancellation limits).
    pub budget: Option<Budget>,
    /// Crash-safe checkpointing ([`JobMode::Strong`] only).
    pub checkpoint: Option<JobCheckpoint>,
    /// Tracer threaded through the whole pipeline (disabled by default;
    /// see [`stsyn_obs::Tracer`]).
    pub tracer: stsyn_obs::Tracer,
}

/// Why a job could not produce a report.
#[derive(Debug, Clone)]
pub enum JobError {
    /// The job specification is internally inconsistent.
    Spec(String),
    /// The protocol/invariant input was rejected before synthesis.
    Input(String),
    /// Synthesis, verification, budget enforcement or checkpointing
    /// failed after the run started.
    Synthesis(SynthesisError),
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Spec(m) => write!(f, "invalid job specification: {m}"),
            JobError::Input(m) => write!(f, "{m}"),
            JobError::Synthesis(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for JobError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JobError::Synthesis(e) => Some(e),
            _ => None,
        }
    }
}

/// Everything a front-end needs to report a finished job.
pub struct JobReport {
    /// The job's protocol name.
    pub name: String,
    /// Was the job weak-mode?
    pub weak: bool,
    /// Verdict of the independent model-checking pass.
    pub verified: bool,
    /// The full synthesis outcome (stats, added groups, symbolic state).
    pub outcome: Outcome,
    /// Name of the emitted stabilizing protocol (`<name>_SS`).
    pub emitted_name: String,
    /// The synthesized protocol, pretty-printed in the DSL — byte-stable
    /// for a given problem/schedule, which is what lets a service diff
    /// resumed runs against uninterrupted ones.
    pub emitted_dsl: String,
}

impl JobSpec {
    /// A strong-mode spec with default knobs.
    pub fn new(name: impl Into<String>, protocol: Protocol, invariant: Expr) -> JobSpec {
        JobSpec {
            name: name.into(),
            protocol,
            invariant,
            mode: JobMode::Strong,
            schedule: None,
            symmetric: false,
            budget: None,
            checkpoint: None,
            tracer: stsyn_obs::Tracer::disabled(),
        }
    }

    /// Build a spec from DSL text (the payload format job services
    /// accept). Parse and validation failures surface as
    /// [`JobError::Input`] with the parser's line information.
    pub fn from_dsl(src: &str) -> Result<JobSpec, JobError> {
        let parsed = dsl::parse(src).map_err(|e| JobError::Input(e.to_string()))?;
        Ok(JobSpec::new(parsed.name, parsed.protocol, parsed.invariant))
    }

    /// Resolve the recovery schedule this spec will run with.
    pub fn resolved_schedule(&self, problem: &AddConvergence) -> Schedule {
        match &self.schedule {
            Some(order) => Schedule::new(order.iter().map(|&i| ProcIdx(i)).collect()),
            None => problem.default_schedule(),
        }
    }

    /// Validate the spec's internal consistency without running it.
    pub fn validate(&self) -> Result<(), JobError> {
        if self.checkpoint.is_some() && self.mode != JobMode::Strong {
            return Err(JobError::Spec(
                "checkpointing applies to strong single-schedule synthesis only".into(),
            ));
        }
        if let Some(order) = &self.schedule {
            let k = self.protocol.num_processes();
            let sched = Schedule::new(order.iter().map(|&i| ProcIdx(i)).collect());
            if !sched.is_permutation_of(k) {
                return Err(JobError::Spec(format!(
                    "schedule {order:?} is not a permutation of the {k} processes"
                )));
            }
        }
        Ok(())
    }

    /// Bundle the spec's protocol and invariant into the Problem III.1
    /// interface (rejecting invalid inputs as [`JobError::Input`]).
    pub fn problem(&self) -> Result<AddConvergence, JobError> {
        AddConvergence::new(self.protocol.clone(), self.invariant.clone())
            .map_err(|e| JobError::Input(e.to_string()))
    }

    /// Run the job end to end: validate, synthesize (checkpointed when
    /// configured), independently re-verify, and pretty-print the result.
    pub fn run(&self) -> Result<JobReport, JobError> {
        self.validate()?;
        let k = self.protocol.num_processes();
        let problem = self.problem()?;
        let symmetry = if self.symmetric {
            match crate::symmetry::Symmetry::ring_rotation(problem.protocol()) {
                Ok(sym) => Some(sym),
                Err(e) => return Err(JobError::Input(format!("symmetry rejected: {e}"))),
            }
        } else {
            None
        };
        let opts = Options { symmetry, budget: self.budget.clone(), tracer: self.tracer.clone() };
        let schedule = self.resolved_schedule(&problem);
        let job_span =
            self.tracer.span_with("job", &[("job", stsyn_obs::Json::from(self.name.as_str()))]);

        let result = match self.mode {
            JobMode::Weak => problem.synthesize_weak_with(&opts),
            JobMode::Parallel => problem.synthesize_parallel(&opts, Schedule::all_rotations(k)),
            JobMode::Strong => match &self.checkpoint {
                Some(c) => problem.synthesize_resumable_with(&opts, schedule, &c.dir, c.resume),
                None => problem.synthesize_with(&opts, schedule),
            },
        };
        let mut outcome = result.map_err(JobError::Synthesis)?;

        let verified = match self.mode {
            JobMode::Weak => outcome.try_verify_weak(),
            _ => outcome.try_verify_strong(),
        }
        .map_err(|cause| {
            // The budget died inside the re-verification pass: surface it
            // with the same structure synthesis-phase exhaustion has.
            let partial = PartialProgress {
                ranks_layered: outcome.stats.max_rank,
                groups_added: outcome.added.clone(),
                live_nodes: cause_live_nodes(&cause),
                ticks: outcome.stats.bdd_ticks,
                manager_consistent: true,
            };
            JobError::Synthesis(SynthesisError::ResourceExhausted {
                phase: Phase::Verification,
                cause,
                partial: Box::new(partial),
            })
        })?;

        job_span.close();
        let emitted_name = format!("{}_SS", self.name);
        let pss = outcome.extract_protocol();
        let emitted_dsl = printer::to_dsl(&emitted_name, &pss, &self.invariant);
        Ok(JobReport {
            name: self.name.clone(),
            weak: self.mode == JobMode::Weak,
            verified,
            outcome,
            emitted_name,
            emitted_dsl,
        })
    }
}

fn cause_live_nodes(e: &stsyn_symbolic::BddError) -> usize {
    match e {
        stsyn_symbolic::BddError::BudgetExhausted { live_nodes, .. } => *live_nodes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RAMP: &str = r#"
        protocol Ramp {
          var c : 0..3;
          process P0 reads c writes c { }
          invariant c == 3;
        }
    "#;

    #[test]
    fn dsl_job_runs_and_verifies() {
        let spec = JobSpec::from_dsl(RAMP).unwrap();
        let report = spec.run().unwrap();
        assert!(report.verified);
        assert_eq!(report.name, "Ramp");
        assert!(report.emitted_dsl.starts_with("protocol Ramp_SS"));
        assert!(!report.outcome.added.is_empty());
    }

    #[test]
    fn bad_dsl_is_an_input_error() {
        match JobSpec::from_dsl("protocol Bad {\n  var a @ 0..1;\n}") {
            Err(JobError::Input(m)) => assert!(m.contains("line 2"), "{m}"),
            other => panic!("expected Input error, got {other:?}"),
        }
    }

    #[test]
    fn checkpointed_weak_is_a_spec_error() {
        let mut spec = JobSpec::from_dsl(RAMP).unwrap();
        spec.mode = JobMode::Weak;
        spec.checkpoint = Some(JobCheckpoint { dir: "/tmp/never-used".into(), resume: false });
        assert!(matches!(spec.run(), Err(JobError::Spec(_))));
    }

    #[test]
    fn non_permutation_schedule_is_a_spec_error() {
        let mut spec = JobSpec::from_dsl(RAMP).unwrap();
        spec.schedule = Some(vec![0, 0]);
        assert!(matches!(spec.run(), Err(JobError::Spec(_))));
    }

    #[test]
    fn weak_mode_reports_weak() {
        let mut spec = JobSpec::from_dsl(RAMP).unwrap();
        spec.mode = JobMode::Weak;
        let report = spec.run().unwrap();
        assert!(report.weak && report.verified);
    }

    #[test]
    fn checkpointed_run_resumes_to_identical_output() {
        let dir = std::env::temp_dir().join(format!(
            "stsyn-job-ckpt-{}-{}",
            std::process::id(),
            std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_nanos()
        ));
        let mut spec = JobSpec::from_dsl(RAMP).unwrap();
        spec.checkpoint = Some(JobCheckpoint { dir: dir.clone(), resume: false });
        let first = spec.run().unwrap();
        // Auto mode resumes the finished journal and replays to the same
        // bytes.
        spec.checkpoint = Some(JobCheckpoint::auto(dir.clone()));
        assert!(spec.checkpoint.as_ref().unwrap().resume);
        let second = spec.run().unwrap();
        assert_eq!(first.emitted_dsl, second.emitted_dsl);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
