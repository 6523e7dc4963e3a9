//! Symbolic strongly-connected-component decomposition.
//!
//! `Identify_Resolve_Cycles` (Fig. 3 of the paper) needs the state sets of
//! the SCCs of `p_ss | ¬I`; STSyn used the skeleton-based algorithm of
//! Gentilini, Piazza and Policriti ("Computing strongly connected
//! components in a linear number of symbolic steps", SODA 2003). This
//! module implements that algorithm ([`SccAlgorithm::Skeleton`]) along with
//! two classical alternatives used for cross-validation and for the
//! ablation benchmark:
//!
//! * [`SccAlgorithm::Lockstep`] — Bloem–Gabow–Somenzi lockstep search,
//! * [`SccAlgorithm::XieBeerel`] — the original forward/backward-set
//!   algorithm.
//!
//! All three return the same partition (verified against explicit Tarjan
//! in the property tests). A cheaper trimming-based *cycle existence* test
//! ([`has_cycle`]) serves the preprocessing step and the convergence
//! verifier, which only need a yes/no answer.

use crate::encode::{SymbolicContext, INFALLIBLE};
use stsyn_bdd::{Bdd, BddError};
use stsyn_obs::{Json, TraceLevel};

/// Which symbolic SCC algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SccAlgorithm {
    /// Gentilini–Piazza–Policriti skeleton-based SCC-Find (the paper's
    /// choice; linear number of symbolic steps).
    Skeleton,
    /// Bloem–Gabow–Somenzi lockstep search (O(n log n) symbolic steps).
    Lockstep,
    /// Xie–Beerel forward/backward decomposition.
    XieBeerel,
}

/// Does `relation` restricted to `x` contain a cycle?
///
/// Computed by trimming: repeatedly drop states lacking a successor or a
/// predecessor inside the set; the fixpoint is non-empty iff a cycle
/// exists. Much cheaper than a full SCC decomposition when only existence
/// matters (the preprocessing check of §V and Proposition II.1's second
/// condition).
pub fn has_cycle(ctx: &mut SymbolicContext, relation: Bdd, x: Bdd) -> bool {
    try_has_cycle(ctx, relation, x).expect(INFALLIBLE)
}

/// Fallible variant of [`has_cycle`] for budgeted runs.
#[must_use = "a budget violation is reported through the Result"]
pub fn try_has_cycle(ctx: &mut SymbolicContext, relation: Bdd, x: Bdd) -> Result<bool, BddError> {
    // νZ. X ∧ pre(Z): the states with an infinite forward path inside X —
    // non-empty iff a cycle exists. One-directional trimming converges in
    // the same number of iterations but halves the image computations and
    // keeps the intermediate sets backward-closed (empirically far smaller
    // BDDs than the two-directional variant).
    Ok(!forward_core(ctx, relation, x)?.is_false())
}

/// νZ. X ∧ pre(Z): states from which an infinite path inside `x` exists.
fn forward_core(ctx: &mut SymbolicContext, relation: Bdd, x: Bdd) -> Result<Bdd, BddError> {
    let mut set = x;
    loop {
        if set.is_false() {
            return Ok(set);
        }
        let with_succ = ctx.try_pre(relation, set)?;
        let next = ctx.mgr().try_and(set, with_succ)?;
        if next == set {
            return Ok(set);
        }
        set = next;
    }
}

/// νZ. X ∧ img(Z): states into which an infinite path inside `x` leads.
fn backward_core(ctx: &mut SymbolicContext, relation: Bdd, x: Bdd) -> Result<Bdd, BddError> {
    let mut set = x;
    loop {
        if set.is_false() {
            return Ok(set);
        }
        let with_pred = ctx.try_img(relation, set)?;
        let next = ctx.mgr().try_and(set, with_pred)?;
        if next == set {
            return Ok(set);
        }
        set = next;
    }
}

/// Decompose `relation | x` into its **non-trivial** SCCs (components
/// containing at least one internal transition — i.e. a cycle; a singleton
/// qualifies only with a self-loop). Returns one state-set BDD per SCC.
pub fn scc_decomposition(
    ctx: &mut SymbolicContext,
    relation: Bdd,
    x: Bdd,
    algorithm: SccAlgorithm,
) -> Vec<Bdd> {
    try_scc_decomposition(ctx, relation, x, algorithm).expect(INFALLIBLE)
}

/// Fallible variant of [`scc_decomposition`] for budgeted runs. Tick,
/// deadline and cancellation budgets are honoured throughout; the node
/// ceiling is *not* enforced mid-decomposition (the worklists hold
/// handles that are not registered roots), so node pressure surfaces at
/// the next safe point of the caller instead.
#[must_use = "a budget violation is reported through the Result"]
pub fn try_scc_decomposition(
    ctx: &mut SymbolicContext,
    relation: Bdd,
    x: Bdd,
    algorithm: SccAlgorithm,
) -> Result<Vec<Bdd>, BddError> {
    // Pre-trim: only states on or between cycles can belong to a
    // non-trivial SCC, and trimming is cheap. This mirrors the "restrict
    // attention to the cyclic core" optimization in symbolic SCC practice.
    let core = trim(ctx, relation, x)?;
    let mut iters = 0usize;
    let mut keep = Vec::new();
    if !core.is_false() {
        let mut all = match algorithm {
            SccAlgorithm::Skeleton => skeleton_sccs(ctx, relation, core, &mut iters)?,
            SccAlgorithm::Lockstep => lockstep_sccs(ctx, relation, core, &mut iters)?,
            SccAlgorithm::XieBeerel => xie_beerel_sccs(ctx, relation, core, &mut iters)?,
        };
        keep.reserve(all.len());
        for scc in all.drain(..) {
            let internal = ctx.try_restrict_relation(relation, scc)?;
            if !internal.is_false() {
                keep.push(scc);
            }
        }
    }
    if ctx.mgr_ref().tracer().level_enabled(TraceLevel::Info) {
        let nodes: usize = keep.iter().map(|&s| ctx.mgr_ref().node_count(s)).sum();
        ctx.mgr_ref().tracer().info(
            "scc.call",
            &[
                ("algorithm", Json::from(format!("{algorithm:?}").as_str())),
                ("sccs", Json::from(keep.len() as u64)),
                ("iterations", Json::from(iters as u64)),
                ("nodes", Json::from(nodes as u64)),
            ],
        );
    }
    Ok(keep)
}

/// Trimming fixpoint: the intersection of the two ν-fixpoints — states on
/// or between cycles. Every non-trivial SCC lies inside this core.
fn trim(ctx: &mut SymbolicContext, relation: Bdd, x: Bdd) -> Result<Bdd, BddError> {
    let fwd = forward_core(ctx, relation, x)?;
    if fwd.is_false() {
        return Ok(fwd);
    }
    backward_core(ctx, relation, fwd)
}

/// A single concrete state of a non-empty set, as a BDD cube.
fn pick_singleton(ctx: &mut SymbolicContext, set: Bdd) -> Result<Bdd, BddError> {
    let state = ctx.pick_state(set).expect("pick from empty set");
    ctx.try_singleton(&state)
}

// --- Gentilini–Piazza–Policriti skeleton algorithm -----------------------

/// Forward search from `start` inside `v`, returning the forward set, the
/// skeleton path (as a node set) and its final node.
fn skel_forward(
    ctx: &mut SymbolicContext,
    relation: Bdd,
    v: Bdd,
    start: Bdd,
) -> Result<(Bdd, Bdd, Bdd), BddError> {
    // Onion rings of the BFS.
    let mut rings: Vec<Bdd> = Vec::new();
    let mut fw = Bdd::FALSE;
    let mut layer = start;
    while !layer.is_false() {
        rings.push(layer);
        fw = ctx.mgr().try_or(fw, layer)?;
        let next = ctx.try_img(relation, layer)?;
        let in_v = ctx.mgr().try_and(next, v)?;
        let not_fw = ctx.mgr().try_not(fw)?;
        layer = ctx.mgr().try_and(in_v, not_fw)?;
    }
    // Build the skeleton path backwards from a node of the last ring.
    let last = *rings.last().expect("start was non-empty");
    let mut node = pick_singleton(ctx, last)?;
    let new_n = node;
    let mut new_s = node;
    for ring in rings.iter().rev().skip(1) {
        let preds = ctx.try_pre(relation, node)?;
        let in_ring = ctx.mgr().try_and(preds, *ring)?;
        node = pick_singleton(ctx, in_ring)?;
        new_s = ctx.mgr().try_or(new_s, node)?;
    }
    Ok((fw, new_s, new_n))
}

/// SCC-Find with skeletons, iterative via an explicit worklist.
fn skeleton_sccs(
    ctx: &mut SymbolicContext,
    relation: Bdd,
    x: Bdd,
    iters: &mut usize,
) -> Result<Vec<Bdd>, BddError> {
    let mut out = Vec::new();
    // (vertex set V, skeleton S, skeleton head N); invariant N ⊆ S ⊆ V and
    // S = ∅ ⟺ N = ∅.
    let mut work: Vec<(Bdd, Bdd, Bdd)> = vec![(x, Bdd::FALSE, Bdd::FALSE)];
    while let Some((v, s, n)) = work.pop() {
        *iters += 1;
        if v.is_false() {
            continue;
        }
        let pivot = if s.is_false() { pick_singleton(ctx, v)? } else { pick_singleton(ctx, n)? };
        let (fw, new_s, new_n) = skel_forward(ctx, relation, v, pivot)?;
        // SCC(pivot) = backward closure of pivot inside FW.
        let mut scc = pivot;
        loop {
            let preds = ctx.try_pre(relation, scc)?;
            let in_fw = ctx.mgr().try_and(preds, fw)?;
            let grown = ctx.mgr().try_or(scc, in_fw)?;
            if grown == scc {
                break;
            }
            scc = grown;
        }
        out.push(scc);
        let not_scc = ctx.mgr().try_not(scc)?;
        // Recursion 1: V ∖ FW with the surviving prefix of the old path.
        let not_fw = ctx.mgr().try_not(fw)?;
        let v1 = ctx.mgr().try_and(v, not_fw)?;
        let s1 = ctx.mgr().try_and(s, not_scc)?;
        let swallowed = ctx.mgr().try_and(scc, s)?;
        let n1 = {
            let preds = ctx.try_pre(relation, swallowed)?;
            ctx.mgr().try_and(preds, s1)?
        };
        // If the SCC swallowed none of the old path, keep the old head.
        let n1 = if swallowed.is_false() { ctx.mgr().try_and(n, not_scc)? } else { n1 };
        work.push((v1, s1, n1));
        // Recursion 2: FW ∖ SCC with the suffix of the new path.
        let v2 = ctx.mgr().try_and(fw, not_scc)?;
        let s2 = ctx.mgr().try_and(new_s, not_scc)?;
        let n2 = ctx.mgr().try_and(new_n, not_scc)?;
        work.push((v2, s2, n2));
    }
    Ok(out)
}

// --- Lockstep (Bloem–Gabow–Somenzi) ---------------------------------------

fn lockstep_sccs(
    ctx: &mut SymbolicContext,
    relation: Bdd,
    x: Bdd,
    iters: &mut usize,
) -> Result<Vec<Bdd>, BddError> {
    let mut out = Vec::new();
    let mut work: Vec<Bdd> = vec![x];
    while let Some(v) = work.pop() {
        *iters += 1;
        if v.is_false() {
            continue;
        }
        let pivot = pick_singleton(ctx, v)?;
        let mut fw = pivot;
        let mut bw = pivot;
        let mut f_front = pivot;
        let mut b_front = pivot;
        // Advance both searches in lockstep until one stabilizes.
        let (converged, mut other, mut other_front, other_is_fw) = loop {
            if !f_front.is_false() {
                let next = ctx.try_img(relation, f_front)?;
                let in_v = ctx.mgr().try_and(next, v)?;
                let not_fw = ctx.mgr().try_not(fw)?;
                f_front = ctx.mgr().try_and(in_v, not_fw)?;
                fw = ctx.mgr().try_or(fw, f_front)?;
            }
            if f_front.is_false() {
                break (fw, bw, b_front, false);
            }
            if !b_front.is_false() {
                let next = ctx.try_pre(relation, b_front)?;
                let in_v = ctx.mgr().try_and(next, v)?;
                let not_bw = ctx.mgr().try_not(bw)?;
                b_front = ctx.mgr().try_and(in_v, not_bw)?;
                bw = ctx.mgr().try_or(bw, b_front)?;
            }
            if b_front.is_false() {
                break (bw, fw, f_front, true);
            }
        };
        // Finish the slower search, but only inside the converged set.
        while !ctx.mgr().try_and(other_front, converged)?.is_false() {
            let next = if other_is_fw {
                ctx.try_img(relation, other_front)?
            } else {
                ctx.try_pre(relation, other_front)?
            };
            let in_conv = ctx.mgr().try_and(next, converged)?;
            let not_other = ctx.mgr().try_not(other)?;
            other_front = ctx.mgr().try_and(in_conv, not_other)?;
            other = ctx.mgr().try_or(other, other_front)?;
        }
        let scc = ctx.mgr().try_and(converged, other)?;
        out.push(scc);
        let not_scc = ctx.mgr().try_not(scc)?;
        let rest_inside = ctx.mgr().try_and(converged, not_scc)?;
        let not_conv = ctx.mgr().try_not(converged)?;
        let rest_outside = ctx.mgr().try_and(v, not_conv)?;
        work.push(rest_inside);
        work.push(rest_outside);
    }
    Ok(out)
}

// --- Xie–Beerel ------------------------------------------------------------

fn xie_beerel_sccs(
    ctx: &mut SymbolicContext,
    relation: Bdd,
    x: Bdd,
    iters: &mut usize,
) -> Result<Vec<Bdd>, BddError> {
    let mut out = Vec::new();
    let mut work: Vec<Bdd> = vec![x];
    while let Some(v) = work.pop() {
        *iters += 1;
        if v.is_false() {
            continue;
        }
        let pivot = pick_singleton(ctx, v)?;
        let fw = closure_within(ctx, relation, v, pivot, true)?;
        let bw = closure_within(ctx, relation, v, pivot, false)?;
        let scc = ctx.mgr().try_and(fw, bw)?;
        out.push(scc);
        let not_scc = ctx.mgr().try_not(scc)?;
        let f_rest = ctx.mgr().try_and(fw, not_scc)?;
        let b_rest = ctx.mgr().try_and(bw, not_scc)?;
        let fw_or_bw = ctx.mgr().try_or(fw, bw)?;
        let not_either = ctx.mgr().try_not(fw_or_bw)?;
        let outside = ctx.mgr().try_and(v, not_either)?;
        work.push(f_rest);
        work.push(b_rest);
        work.push(outside);
    }
    Ok(out)
}

fn closure_within(
    ctx: &mut SymbolicContext,
    relation: Bdd,
    v: Bdd,
    start: Bdd,
    forward: bool,
) -> Result<Bdd, BddError> {
    let mut reach = start;
    loop {
        let step =
            if forward { ctx.try_img(relation, reach)? } else { ctx.try_pre(relation, reach)? };
        let in_v = ctx.mgr().try_and(step, v)?;
        let next = ctx.mgr().try_or(reach, in_v)?;
        if next == reach {
            return Ok(reach);
        }
        reach = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stsyn_protocol::topology::{ProcessDecl, VarDecl, VarIdx};
    use stsyn_protocol::Protocol;

    /// Protocol shell over one variable of domain `n` with no actions;
    /// tests install arbitrary relations over it.
    fn shell(n: u32) -> SymbolicContext {
        let vars = vec![VarDecl::new("c", n)];
        let procs = vec![ProcessDecl::new("P0", vec![VarIdx(0)], vec![VarIdx(0)]).unwrap()];
        SymbolicContext::new(Protocol::new(vars, procs, vec![]).unwrap())
    }

    /// Build a relation from explicit (value, value) edges over variable 0.
    fn relation(ctx: &mut SymbolicContext, edges: &[(u32, u32)]) -> Bdd {
        let mut rel = Bdd::FALSE;
        for &(a, b) in edges {
            let src = ctx.value(VarIdx(0), a);
            let dst = ctx.value_primed(VarIdx(0), b);
            let edge = ctx.mgr().and(src, dst);
            rel = ctx.mgr().or(rel, edge);
        }
        rel
    }

    fn decode_scc(ctx: &mut SymbolicContext, scc: Bdd, n: u32) -> Vec<u32> {
        let mut out = Vec::new();
        for v in 0..n {
            let cube = ctx.value(VarIdx(0), v);
            if !ctx.mgr().and(cube, scc).is_false() {
                out.push(v);
            }
        }
        out
    }

    const ALGOS: [SccAlgorithm; 3] =
        [SccAlgorithm::Skeleton, SccAlgorithm::Lockstep, SccAlgorithm::XieBeerel];

    #[test]
    fn single_cycle_one_scc() {
        for algo in ALGOS {
            let mut ctx = shell(4);
            let t = relation(&mut ctx, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
            let all = ctx.all_states();
            let sccs = scc_decomposition(&mut ctx, t, all, algo);
            assert_eq!(sccs.len(), 1, "{algo:?}");
            assert_eq!(decode_scc(&mut ctx, sccs[0], 4), vec![0, 1, 2, 3]);
            assert!(has_cycle(&mut ctx, t, all));
        }
    }

    #[test]
    fn dag_has_no_nontrivial_scc() {
        for algo in ALGOS {
            let mut ctx = shell(4);
            let t = relation(&mut ctx, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
            let all = ctx.all_states();
            assert!(scc_decomposition(&mut ctx, t, all, algo).is_empty(), "{algo:?}");
            assert!(!has_cycle(&mut ctx, t, all));
        }
    }

    #[test]
    fn self_loop_is_nontrivial() {
        for algo in ALGOS {
            let mut ctx = shell(3);
            let t = relation(&mut ctx, &[(0, 1), (1, 1), (1, 2)]);
            let all = ctx.all_states();
            let sccs = scc_decomposition(&mut ctx, t, all, algo);
            assert_eq!(sccs.len(), 1, "{algo:?}");
            assert_eq!(decode_scc(&mut ctx, sccs[0], 3), vec![1]);
        }
    }

    #[test]
    fn two_separate_cycles() {
        for algo in ALGOS {
            let mut ctx = shell(6);
            let t = relation(&mut ctx, &[(0, 1), (1, 0), (2, 3), (3, 4), (4, 2), (1, 2)]);
            let all = ctx.all_states();
            let mut sccs: Vec<Vec<u32>> = scc_decomposition(&mut ctx, t, all, algo)
                .into_iter()
                .map(|s| decode_scc(&mut ctx, s, 6))
                .collect();
            sccs.sort();
            assert_eq!(sccs, vec![vec![0, 1], vec![2, 3, 4]], "{algo:?}");
        }
    }

    #[test]
    fn restricted_vertex_set_breaks_cycle() {
        for algo in ALGOS {
            let mut ctx = shell(4);
            let t = relation(&mut ctx, &[(0, 1), (1, 2), (2, 0)]);
            // Exclude state 2 from the vertex set: no cycle remains.
            let s2 = ctx.value(VarIdx(0), 2);
            let x = ctx.not_states(s2);
            assert!(scc_decomposition(&mut ctx, t, x, algo).is_empty(), "{algo:?}");
            assert!(!has_cycle(&mut ctx, t, x));
        }
    }

    #[test]
    fn tangled_graph_matches_tarjan_shape() {
        // A graph with nested cycles and a tail:
        // 0→1→2→0 (SCC A), 2→3, 3→4→5→3 (SCC B), 5→6 (tail), 6→6 (self).
        for algo in ALGOS {
            let mut ctx = shell(7);
            let t = relation(
                &mut ctx,
                &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3), (5, 6), (6, 6)],
            );
            let all = ctx.all_states();
            let mut sccs: Vec<Vec<u32>> = scc_decomposition(&mut ctx, t, all, algo)
                .into_iter()
                .map(|s| decode_scc(&mut ctx, s, 7))
                .collect();
            sccs.sort();
            assert_eq!(sccs, vec![vec![0, 1, 2], vec![3, 4, 5], vec![6]], "{algo:?}");
        }
    }

    #[test]
    fn sccs_are_disjoint_and_cover_cyclic_core() {
        for algo in ALGOS {
            let mut ctx = shell(8);
            let t = relation(
                &mut ctx,
                &[(0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (4, 4), (5, 6), (6, 7)],
            );
            let all = ctx.all_states();
            let sccs = scc_decomposition(&mut ctx, t, all, algo);
            let mut union = Bdd::FALSE;
            for &s in &sccs {
                assert!(ctx.mgr().and(union, s).is_false(), "{algo:?}: SCCs overlap");
                union = ctx.mgr().or(union, s);
            }
            // Cyclic states: {0,1}, {2,3}, {4}.
            assert_eq!(decode_scc(&mut ctx, union, 8), vec![0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn empty_vertex_set() {
        for algo in ALGOS {
            let mut ctx = shell(3);
            let t = relation(&mut ctx, &[(0, 1), (1, 0)]);
            assert!(scc_decomposition(&mut ctx, t, Bdd::FALSE, algo).is_empty());
            assert!(!has_cycle(&mut ctx, t, Bdd::FALSE));
        }
    }
}
