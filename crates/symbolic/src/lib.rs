//! # stsyn-symbolic — BDD encodings and symbolic graph algorithms
//!
//! This crate bridges the modelling layer (`stsyn-protocol`) and the BDD
//! substrate (`stsyn-bdd`), providing everything §IV–V of the paper
//! compute symbolically:
//!
//! * [`SymbolicContext`] — log-encodes every finite-domain protocol
//!   variable onto *interleaved* current/primed boolean variables, compiles
//!   predicate expressions to BDDs, and builds per-group transition
//!   relations (`group relation = readable-source cube ∧ written-target
//!   cube ∧ frame`),
//! * [`image`] — image/preimage and forward/backward reachability,
//! * [`ranks`] — `ComputeRanks` (Fig. 2): the rank layering of `¬I` that
//!   both decides weak stabilization (Theorem IV.1) and guides the
//!   heuristic,
//! * [`scc`] — the cycle check `Identify_Resolve_Cycles` runs (which
//!   groups have a transition inside a non-trivial SCC, building only the
//!   SCCs that decide it) and a cycle-existence test for the verifier. The
//!   check replaces the skeleton-based SCC-Find of Gentilini–Piazza–
//!   Policriti that the paper's `Detect_SCC` runs over the whole graph,
//!   which builds every SCC where the check builds only those that decide
//!   a group,
//! * [`check`] — symbolic closure / deadlock / strong- and weak-
//!   convergence checking (Proposition II.1), used to *verify* every
//!   synthesized protocol,
//! * [`trace`] — concrete counterexample/witness executions (paths,
//!   non-progress cycles, recovery demonstrations) extracted from the
//!   symbolic representation.

#![warn(missing_docs)]

pub mod check;
pub mod encode;
pub mod image;
pub mod ranks;
pub mod scc;
pub mod trace;

pub use check::{closure_holds, deadlock_states, strong_convergence, weak_convergence};
pub use encode::{SymbolicContext, VarOrder};
pub use ranks::{
    compute_ranks, try_compute_ranks, try_compute_ranks_resumed, RankLayerObserver, RankTable,
    RanksInterrupted,
};
pub use scc::has_cycle;
pub use stsyn_bdd::{BddError, Budget, Resource};
