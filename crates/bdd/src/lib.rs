//! # stsyn-bdd — a from-scratch Binary Decision Diagram package
//!
//! This crate is the symbolic substrate of the STSyn reproduction. The
//! original tool (Ebnenasir & Farahat, IPDPS 2011) used the CUDD/GLU 2.1
//! library for BDD manipulation; this crate replaces it with a pure-Rust
//! implementation providing everything the synthesis heuristic needs:
//!
//! * a hash-consed **unique table** guaranteeing canonicity (reduced ordered
//!   BDDs — equality is pointer equality),
//! * memoized boolean operations (`and`, `or`, `xor`, `not`, `ite`, ...),
//!   sharing one bounded, lossy **computed table**,
//! * **quantification** (`exists`, `forall`) and the fused **relational
//!   product** `and_exists` used for image/preimage computation,
//! * order-preserving **variable renaming** (current-state ↔ next-state),
//! * model counting (`sat_count`), cube enumeration and evaluation,
//! * node-count statistics — the paper's space metric (Figures 7, 9, 11)
//!   is "number of BDD nodes", which is a property of the DAG and therefore
//!   directly comparable across BDD packages,
//! * mark-and-sweep garbage collection with a slot free-list so that live
//!   handles remain valid across collections, run at the callers' safe
//!   points ([`Manager::safe_point`]) once the live nodes reach a trigger
//!   of [`GC_FLOOR`] or twice the last collection's survivors,
//! * **dynamic variable reordering** — in-place adjacent-level swaps and
//!   Rudell's sifting ([`Manager::sift`]); handles survive, interned
//!   varsets/rename maps are generation-checked.
//!
//! ## Design
//!
//! Nodes live in a flat arena and are addressed by `u32` indices wrapped in
//! the copyable handle type [`Bdd`]. Index `0` is the `FALSE` terminal and
//! index `1` is `TRUE`. Every internal node stores the *level* (position in
//! the variable order) of its decision variable and the two cofactor edges.
//! Variable levels are allocated in creation order via [`Manager::new_var`];
//! the synthesizer interleaves current and primed state variables (`x` at
//! level `2i`, `x'` at level `2i+1`) which keeps frame conditions
//! (`x' = x`) linear in size.
//!
//! Two flat tables sit beside the arena, both sized from it, as in CUDD.
//! The unique table is open-addressed over arena indices and compares keys
//! by reading the nodes, at a load of at most one half. The computed table
//! is one direct-mapped array of `(op, a, b, c) → r` entries for every
//! memoized operation (at least one entry per arena slot, from 2^12 up to
//! 2^23); a colliding insert overwrites the old entry. Memory therefore
//! grows with the number of nodes, not with the number of operations, and
//! a forgotten result only costs a recomputation.
//!
//! ## Example
//!
//! ```
//! use stsyn_bdd::Manager;
//!
//! let mut m = Manager::new();
//! let a = m.new_var();
//! let b = m.new_var();
//! let fa = m.var(a);
//! let fb = m.var(b);
//! let conj = m.and(fa, fb);
//! let disj = m.or(fa, fb);
//! assert!(m.implies_holds(conj, disj));
//! assert_eq!(m.sat_count(conj, 2), 1.0);
//! assert_eq!(m.sat_count(disj, 2), 3.0);
//! ```

#![warn(missing_docs)]

mod budget;
mod explore;
mod hash;
mod manager;
mod ops;
mod quant;
mod rename;
mod reorder;
mod serialize;
mod table;
mod varset;

pub use budget::{BddError, Budget, Resource, GC_FLOOR};
pub use explore::CubeIter;
pub use manager::{Bdd, Manager, ManagerStats, VarId};
pub use rename::RenameId;
pub use serialize::{crc32, SerializeError, FORMAT_VERSION, MAGIC};
pub use varset::VarSetId;

#[cfg(test)]
mod tests;
