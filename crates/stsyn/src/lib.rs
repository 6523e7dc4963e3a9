//! # stsyn-core — automated addition of convergence
//!
//! The paper's primary contribution (Ebnenasir & Farahat, IPDPS 2011): a
//! lightweight formal method that takes a *non-stabilizing* protocol `p`,
//! a closed legitimate-state predicate `I` and the read/write topology, and
//! automatically produces a **self-stabilizing** version `p_ss` such that
//!
//! 1. `I` is unchanged,
//! 2. `p_ss | I = p | I` (no interference with fault-free behaviour), and
//! 3. `p_ss` strongly (or weakly) converges to `I`
//!
//! — Problem III.1. The solution is *correct by construction*, and
//! [`JobSpec`] (behind the CLI and the daemon) re-verifies every output
//! with an independent symbolic model-checking pass
//! ([`Outcome::try_verify_strong`]).
//!
//! ## Pipeline
//!
//! * [`problem`] — the Problem III.1 interface ([`AddConvergence`]) and
//!   result/error types.
//! * [`candidates`] — the candidate recovery groups: all transition groups
//!   whose every transition originates outside `I` (constraint C1), and
//!   the maximal candidate protocol `p_im` of §IV.
//! * [`heuristic`] — the three-pass synthesis heuristic of §V
//!   (`Add_Convergence` / `Add_Recovery` / `Identify_Resolve_Cycles`,
//!   Fig. 3), guided by the rank layering of `ComputeRanks` (Fig. 2).
//! * [`weak`] — sound **and complete** synthesis of weakly stabilizing
//!   protocols (Theorem IV.1).
//! * [`schedule`] — recovery schedules, plus parallel exploration of
//!   several schedules (the paper's Fig. 1 runs one instance per schedule
//!   per machine; we run one per thread).
//! * [`extract`] — turning the added transition groups back into minimized
//!   Dijkstra-style guarded commands, so output reads like the paper's.
//! * [`stats`] — ranking time / SCC-detection time / BDD node counts: the
//!   quantities plotted in the paper's Figures 6–11.
//! * [`checkpoint`] — crash-safe checkpointing: the group-committed
//!   write-ahead journal and atomic BDD snapshots behind
//!   [`AddConvergence::synthesize_resumable`], which let an interrupted
//!   run resume mid-pass and still produce bit-identical output.
//! * [`analysis`] — the local-correctability analysis behind the paper's
//!   case-study table (Fig. 5).
//! * [`job`] — the [`JobSpec`] → [`JobReport`] entry point shared by the
//!   CLI and the `stsyn-serve` job service: one call bundling parsing,
//!   mode/schedule selection, budgets, checkpointing and re-verification.
//!
//! ## Quick start
//!
//! ```
//! use stsyn_core::{AddConvergence, Options};
//! use stsyn_protocol::dsl;
//!
//! let src = r#"
//!     protocol Ramp {
//!       var c : 0..3;
//!       process P0 reads c writes c { }
//!       invariant c == 3;
//!     }
//! "#;
//! let parsed = dsl::parse(src).unwrap();
//! let problem = AddConvergence::new(parsed.protocol, parsed.invariant).unwrap();
//! let mut outcome = problem.synthesize(&Options::default()).unwrap();
//! assert!(outcome.verify_strong());
//! let pss = outcome.extract_protocol();
//! assert!(!pss.actions().is_empty()); // recovery actions were added
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod candidates;
pub mod checkpoint;
pub mod extract;
pub mod heuristic;
pub mod job;
pub mod problem;
pub mod schedule;
pub mod stats;
pub mod symmetry;
pub mod weak;

pub use checkpoint::{CheckpointError, CheckpointSession};
pub use heuristic::Outcome;
pub use job::{JobCheckpoint, JobError, JobMode, JobReport, JobSpec};
pub use problem::{AddConvergence, Options, PartialProgress, Phase, SynthesisError};
pub use schedule::Schedule;
pub use stats::SynthesisStats;
