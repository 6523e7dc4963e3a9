//! Symbolic cycle checks.
//!
//! `Identify_Resolve_Cycles` (Fig. 3 of the paper) and the preprocessing
//! step of §V ask one yes/no question per group: does the group have a
//! transition inside a non-trivial SCC of `relation | x` (a strongly
//! connected component with at least one internal transition — a
//! singleton qualifies only with a self-loop)? [`try_cyclic_groups`]
//! answers it for a batch of groups and builds only the SCCs it needs:
//!
//! 1. Trim `x` to its *core* `νZ. x ∧ img(Z)`, the states of `x`
//!    reachable inside `x` from a cycle inside `x`: one backward
//!    fixpoint. Every non-trivial SCC lies inside it; an empty core
//!    answers "no" for every group.
//! 2. Restrict each group to the transitions with both ends in the core.
//!    A group with none answers "no".
//! 3. While some group is undecided, pick a source state `s` of the first
//!    one and build `SCC(s)`: the backward closure of `s` inside its
//!    forward closure, both within the core. Every undecided group with a
//!    transition inside `SCC(s) × SCC(s)` answers "yes". Then `SCC(s)`
//!    leaves the core and the transitions leaving it leave every
//!    undecided group; a group left with none answers "no".
//! 4. When its own pivot did not decide a group, keep only its
//!    transitions whose source is reachable inside the core from one of
//!    its targets. A group whose transitions all fall between SCCs
//!    usually empties here, at the price of one forward closure instead
//!    of one SCC per source.
//!
//! Why it is exact: every state of a non-trivial SCC has a predecessor in
//! that SCC, so the core keeps every non-trivial SCC of `relation | x`
//! whole. The core lies inside `x`, so an SCC built inside the core is the
//! SCC of `relation | x`, a transition inside an SCC has both ends in the
//! core, and a path inside the SCC stays inside the core. The core may
//! also keep states downstream of a cycle, which lie in no non-trivial
//! SCC; their transitions are decided like any other. A transition lies
//! inside a non-trivial SCC exactly when both its ends share an SCC, that
//! is, when its source is reachable from its own target, so step 4 keeps
//! every such transition. Removing a whole SCC from the core leaves every
//! other SCC as it was. Each round removes at least one transition, one
//! leaving `s`, from the group that supplied `s`, so the loop ends.
//!
//! This check replaces the skeleton-based SCC-Find of Gentilini, Piazza
//! and Policriti ("Computing strongly connected components in a linear
//! number of symbolic steps", SODA 2003) that STSyn runs over the whole
//! graph: a full decomposition builds every SCC, where the check builds
//! only those that decide a group. A cycle *existence* test
//! ([`has_cycle`]) serves the convergence verifier, which only needs one
//! yes/no answer for the whole relation.
//!
//! badTrans asks about a relation with more structure:
//! [`try_cyclic_added_groups`] serves it. Preprocessing leaves `δ_p | ¬I`
//! acyclic, and badTrans adds only groups with no transition in an SCC,
//! so the synthesized relation restricted to `¬I` stays acyclic after
//! every step. Every cycle of `(pss ∪ added) | ¬I` therefore uses an added
//! transition, and leads from a target of `added` back to a source of
//! `added`. A forward closure from the targets that never meets a source
//! ([`try_reaches_back`]) proves that no cycle exists and answers "no" for
//! every group without trimming; when it meets one, the full check runs.
//!
//! Tick, deadline and cancellation budgets are honoured throughout. A
//! safe point ([`stsyn_bdd::Manager::safe_point`]) runs once per
//! iteration of the core fixpoint, once per pivot round of
//! [`try_cyclic_groups`] and once per layer of [`try_reaches_back`]. Their
//! arguments and live handles (the core so far, the undecided groups'
//! transitions, the SCCs built, the frontier) survive the collection it
//! may run; every other handle the caller holds must be registered
//! ([`SymbolicContext::register_roots`]).

use crate::encode::{SymbolicContext, INFALLIBLE};
use stsyn_bdd::{Bdd, BddError};
use stsyn_obs::{Json, TraceLevel};

/// Does `relation` restricted to `x` contain a cycle?
///
/// Computed as the forward fixpoint `νZ. x ∧ pre(Z)`: repeatedly drop the
/// states without a successor inside the set. The fixpoint holds the
/// states with an infinite path inside `x`, so it is non-empty iff a
/// cycle exists (Proposition II.1's second condition).
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
    // BDDs than the two-directional variant). The cycle check runs the
    // backward fixpoint instead, but the verifier keeps the forward one:
    // with the backward fixpoint here, verifying coloring(15)'s `pss|¬I`
    // took 0.85 s per solve instead of 0.011 s.
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

/// νZ. X ∧ img(Z): states into which an infinite path inside `x` leads,
/// that is, the states of `x` reachable inside `x` from a cycle inside
/// `x`. Returns the fixpoint and the number of images it took. A safe
/// point runs once per iteration, keeping the set so far and `args`
/// alive.
fn backward_core(
    ctx: &mut SymbolicContext,
    relation: Bdd,
    x: Bdd,
    args: &[Bdd],
) -> Result<(Bdd, usize), BddError> {
    let mut set = x;
    let mut iterations = 0;
    loop {
        if set.is_false() {
            return Ok((set, iterations));
        }
        let roots: Vec<Bdd> = [set].into_iter().chain(args.iter().copied()).collect();
        ctx.mgr().safe_point(&roots)?;
        iterations += 1;
        let with_pred = ctx.try_img(relation, set)?;
        let next = ctx.mgr().try_and(set, with_pred)?;
        if next == set {
            return Ok((set, iterations));
        }
        set = next;
    }
}

/// What [`try_cyclic_groups`] found.
#[derive(Debug, Clone)]
pub struct CycleCheck {
    /// Per group, in input order: does it have a transition inside a
    /// non-trivial SCC of `relation | x`?
    pub cyclic: Vec<bool>,
    /// The non-trivial SCCs the check built on the way (state sets), in
    /// the order it built them. Not every SCC of `relation | x` — only
    /// those around the pivots the undecided groups supplied.
    pub sccs: Vec<Bdd>,
}

/// Which of `groups` have a transition inside a non-trivial SCC of
/// `relation | x`? See the module docs for the algorithm.
pub fn cyclic_groups(
    ctx: &mut SymbolicContext,
    relation: Bdd,
    x: Bdd,
    groups: &[Bdd],
) -> CycleCheck {
    try_cyclic_groups(ctx, relation, x, groups).expect(INFALLIBLE)
}

/// Fallible variant of [`cyclic_groups`] for budgeted runs.
#[must_use = "a budget violation is reported through the Result"]
pub fn try_cyclic_groups(
    ctx: &mut SymbolicContext,
    relation: Bdd,
    x: Bdd,
    groups: &[Bdd],
) -> Result<CycleCheck, BddError> {
    let args: Vec<Bdd> = [relation, x].into_iter().chain(groups.iter().copied()).collect();
    check_groups(ctx, relation, x, groups, &args)
}

/// [`try_cyclic_groups`], keeping `args` (the caller's arguments) alive
/// through a collection at a safe point.
fn check_groups(
    ctx: &mut SymbolicContext,
    relation: Bdd,
    x: Bdd,
    groups: &[Bdd],
    args: &[Bdd],
) -> Result<CycleCheck, BddError> {
    let mut cyclic = vec![false; groups.len()];
    let mut sccs = Vec::new();
    let traced = ctx.mgr_ref().tracer().level_enabled(TraceLevel::Info);
    let (mut core, core_iterations) = backward_core(ctx, relation, x, args)?;
    let core_nodes = if traced { ctx.mgr_ref().node_count(core) } else { 0 };
    // The undecided groups: index and the transitions still in question.
    let mut live: Vec<(usize, Bdd)> = Vec::new();
    if !core.is_false() {
        for (gi, &g) in groups.iter().enumerate() {
            let edges = ctx.try_restrict_relation(g, core)?;
            if !edges.is_false() {
                live.push((gi, edges));
            }
        }
    }
    let mut pivots = 0usize;
    while let Some(&(supplier, edges)) = live.first() {
        pivots += 1;
        let roots: Vec<Bdd> = [core]
            .into_iter()
            .chain(args.iter().copied())
            .chain(live.iter().map(|&(_, e)| e))
            .chain(sccs.iter().copied())
            .collect();
        ctx.mgr().safe_point(&roots)?;
        // The current-state bits of a satisfying assignment of `edges` are
        // a source state of one of its transitions.
        let pivot = pick_singleton(ctx, edges)?;
        let fw = closure_within(ctx, relation, core, pivot, true)?;
        let scc = closure_within(ctx, relation, fw, pivot, false)?;
        let scc_primed = {
            let m = ctx.cur_to_primed();
            ctx.mgr().try_rename(scc, m)?
        };
        // An SCC of two or more states has an internal transition; a
        // singleton needs a self-loop.
        let nontrivial = scc != pivot || {
            let out = ctx.mgr().try_and(relation, scc)?;
            ctx.mgr().try_intersects(out, scc_primed)?
        };
        let not_scc = ctx.mgr().try_not(scc)?;
        core = ctx.mgr().try_and(core, not_scc)?;
        let mut undecided = Vec::with_capacity(live.len());
        for (gi, edges) in live {
            if nontrivial {
                let inside = ctx.mgr().try_and(edges, scc)?;
                if ctx.mgr().try_intersects(inside, scc_primed)? {
                    cyclic[gi] = true;
                    continue;
                }
            }
            let rest = ctx.mgr().try_and(edges, not_scc)?;
            if !rest.is_false() {
                undecided.push((gi, rest));
            }
        }
        live = undecided;
        if nontrivial {
            sccs.push(scc);
        }
        // Its own pivot did not decide the supplier: keep only the edges
        // whose source its targets reach inside the core, since an edge on
        // a cycle leads back to its own source.
        if let Some(&(gi, edges)) = live.first().filter(|&&(gi, _)| gi == supplier) {
            let all = ctx.all_states();
            let targets = ctx.try_img(edges, all)?;
            let reach = closure_within(ctx, relation, core, targets, true)?;
            let rest = ctx.mgr().try_and(edges, reach)?;
            if rest.is_false() {
                live.remove(0);
            } else {
                live[0] = (gi, rest);
            }
        }
    }
    if traced {
        let nodes: usize = sccs.iter().map(|&s| ctx.mgr_ref().node_count(s)).sum();
        ctx.mgr_ref().tracer().info(
            "scc.call",
            &[
                ("sccs", Json::from(sccs.len() as u64)),
                ("iterations", Json::from(pivots as u64)),
                ("nodes", Json::from(nodes as u64)),
                ("core_iterations", Json::from(core_iterations as u64)),
                ("core_nodes", Json::from(core_nodes as u64)),
            ],
        );
    }
    Ok(CycleCheck { cyclic, sccs })
}

/// [`try_cyclic_groups`] for a `relation` (restricted to `x`) whose
/// transitions outside `added ⊆ relation` form no cycle. When
/// [`try_reaches_back`] says no cycle can pass through `added`, every
/// group answers "no" and no SCC is built; otherwise it is
/// [`try_cyclic_groups`]. See the module docs for why it is exact.
#[must_use = "a budget violation is reported through the Result"]
pub fn try_cyclic_added_groups(
    ctx: &mut SymbolicContext,
    relation: Bdd,
    added: Bdd,
    x: Bdd,
    groups: &[Bdd],
) -> Result<CycleCheck, BddError> {
    let args: Vec<Bdd> = [relation, added, x].into_iter().chain(groups.iter().copied()).collect();
    if reaches_back(ctx, relation, added, &args)? {
        check_groups(ctx, relation, x, groups, &args)
    } else {
        Ok(CycleCheck { cyclic: vec![false; groups.len()], sccs: Vec::new() })
    }
}

/// Is some source of `added` reachable inside `relation` from some
/// target of `added` (in zero or more steps)? If not, no cycle of
/// `relation` uses a transition of `added`. Expands one breadth-first
/// layer at a time and stops at the first layer that meets a source.
#[must_use = "a budget violation is reported through the Result"]
pub fn try_reaches_back(
    ctx: &mut SymbolicContext,
    relation: Bdd,
    added: Bdd,
) -> Result<bool, BddError> {
    reaches_back(ctx, relation, added, &[relation, added])
}

/// [`try_reaches_back`], keeping `args` (the caller's arguments) alive
/// through a collection at a safe point.
fn reaches_back(
    ctx: &mut SymbolicContext,
    relation: Bdd,
    added: Bdd,
    args: &[Bdd],
) -> Result<bool, BddError> {
    let all = ctx.all_states();
    let mut frontier = ctx.try_img(added, all)?;
    let mut reach = frontier;
    loop {
        let roots: Vec<Bdd> = [reach, frontier].into_iter().chain(args.iter().copied()).collect();
        ctx.mgr().safe_point(&roots)?;
        // A state of the layer is a source of `added` iff it meets `added`
        // as a relation: no source set needs building.
        if ctx.mgr().try_intersects(frontier, added)? {
            return Ok(true);
        }
        let step = ctx.try_img(relation, frontier)?;
        frontier = ctx.mgr().try_diff(step, reach)?;
        if frontier.is_false() {
            return Ok(false);
        }
        reach = ctx.mgr().try_or(reach, frontier)?;
    }
}

/// A single concrete state of a non-empty set, as a BDD cube.
fn pick_singleton(ctx: &mut SymbolicContext, set: Bdd) -> Result<Bdd, BddError> {
    let state = ctx.pick_state(set).expect("pick from empty set");
    ctx.try_singleton(&state)
}

/// The closure of `start` under `relation` (forward, or backward), inside
/// `v`.
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

    /// Ask [`cyclic_groups`] about the graph of `edges` inside `x`, with
    /// one group per edge: each edge's verdict, and the SCCs the check
    /// built, decoded and sorted. Every cyclic edge is decided inside its
    /// own SCC, so the SCCs built are all the non-trivial ones.
    fn check_edges(
        ctx: &mut SymbolicContext,
        edges: &[(u32, u32)],
        x: Bdd,
        n: u32,
    ) -> (Vec<bool>, Vec<Vec<u32>>) {
        let t = relation(ctx, edges);
        let groups: Vec<Bdd> = edges.iter().map(|&e| relation(ctx, &[e])).collect();
        let check = cyclic_groups(ctx, t, x, &groups);
        let mut sccs: Vec<Vec<u32>> = check.sccs.iter().map(|&s| decode_scc(ctx, s, n)).collect();
        sccs.sort();
        (check.cyclic, sccs)
    }

    #[test]
    fn single_cycle_one_scc() {
        let mut ctx = shell(4);
        let edges = [(0, 1), (1, 2), (2, 3), (3, 0)];
        let all = ctx.all_states();
        let (cyclic, sccs) = check_edges(&mut ctx, &edges, all, 4);
        assert_eq!(cyclic, vec![true; 4]);
        assert_eq!(sccs, vec![vec![0, 1, 2, 3]]);
        let t = relation(&mut ctx, &edges);
        assert!(has_cycle(&mut ctx, t, all));
    }

    #[test]
    fn dag_has_no_nontrivial_scc() {
        let mut ctx = shell(4);
        let edges = [(0, 1), (1, 2), (0, 2), (2, 3)];
        let all = ctx.all_states();
        let (cyclic, sccs) = check_edges(&mut ctx, &edges, all, 4);
        assert_eq!(cyclic, vec![false; 4]);
        assert!(sccs.is_empty());
        let t = relation(&mut ctx, &edges);
        assert!(!has_cycle(&mut ctx, t, all));
    }

    #[test]
    fn self_loop_is_nontrivial() {
        let mut ctx = shell(3);
        let all = ctx.all_states();
        let (cyclic, sccs) = check_edges(&mut ctx, &[(0, 1), (1, 1), (1, 2)], all, 3);
        assert_eq!(cyclic, vec![false, true, false]);
        assert_eq!(sccs, vec![vec![1]]);
    }

    #[test]
    fn two_separate_cycles() {
        let mut ctx = shell(6);
        let edges = [(0, 1), (1, 0), (2, 3), (3, 4), (4, 2), (1, 2)];
        let all = ctx.all_states();
        let (cyclic, sccs) = check_edges(&mut ctx, &edges, all, 6);
        assert_eq!(cyclic, vec![true, true, true, true, true, false]);
        assert_eq!(sccs, vec![vec![0, 1], vec![2, 3, 4]]);
    }

    #[test]
    fn restricted_vertex_set_breaks_cycle() {
        let mut ctx = shell(4);
        let edges = [(0, 1), (1, 2), (2, 0)];
        // Exclude state 2 from the vertex set: no cycle remains.
        let s2 = ctx.value(VarIdx(0), 2);
        let x = ctx.not_states(s2);
        let (cyclic, sccs) = check_edges(&mut ctx, &edges, x, 4);
        assert_eq!(cyclic, vec![false; 3]);
        assert!(sccs.is_empty());
        let t = relation(&mut ctx, &edges);
        assert!(!has_cycle(&mut ctx, t, x));
    }

    #[test]
    fn tangled_graph_matches_tarjan_shape() {
        // A graph with nested cycles and a tail:
        // 0→1→2→0 (SCC A), 2→3, 3→4→5→3 (SCC B), 5→6 (tail), 6→6 (self).
        let mut ctx = shell(7);
        let edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3), (5, 6), (6, 6)];
        let all = ctx.all_states();
        let (cyclic, sccs) = check_edges(&mut ctx, &edges, all, 7);
        assert_eq!(cyclic, vec![true, true, true, false, true, true, true, false, true]);
        assert_eq!(sccs, vec![vec![0, 1, 2], vec![3, 4, 5], vec![6]]);
    }

    #[test]
    fn sccs_are_disjoint_and_cover_cyclic_core() {
        let mut ctx = shell(8);
        let edges = [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (4, 4), (5, 6), (6, 7)];
        let t = relation(&mut ctx, &edges);
        let groups: Vec<Bdd> = edges.iter().map(|&e| relation(&mut ctx, &[e])).collect();
        let all = ctx.all_states();
        let check = cyclic_groups(&mut ctx, t, all, &groups);
        assert_eq!(check.cyclic, vec![true, true, false, true, true, true, false, false]);
        let mut union = Bdd::FALSE;
        for &s in &check.sccs {
            assert!(ctx.mgr().and(union, s).is_false(), "SCCs overlap");
            union = ctx.mgr().or(union, s);
        }
        // Cyclic states: {0,1}, {2,3}, {4}.
        assert_eq!(decode_scc(&mut ctx, union, 8), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn cyclic_groups_decide_each_group() {
        // 0⇄1 (SCC), 1→2 (bridge), 2→3→4→2 (SCC), 4→5 (tail), 5→5 (self-loop),
        // 6→7 (DAG edge).
        let mut ctx = shell(8);
        let edges = [(0, 1), (1, 0), (1, 2), (2, 3), (3, 4), (4, 2), (4, 5), (5, 5), (6, 7)];
        let t = relation(&mut ctx, &edges);
        let groups: Vec<Bdd> =
            [&[(0, 1)][..], &[(1, 2)], &[(1, 2), (3, 4)], &[(4, 5)], &[(5, 5)], &[(6, 7)]]
                .iter()
                .map(|g| relation(&mut ctx, g))
                .collect();
        let all = ctx.all_states();
        let check = cyclic_groups(&mut ctx, t, all, &groups);
        assert_eq!(check.cyclic, vec![true, false, true, false, true, false]);
        let mut sccs: Vec<Vec<u32>> =
            check.sccs.iter().map(|&s| decode_scc(&mut ctx, s, 8)).collect();
        sccs.sort();
        assert_eq!(sccs, vec![vec![0, 1], vec![2, 3, 4], vec![5]]);
        // Outside `x` nothing is cyclic, and no group means no SCC is built.
        let check = cyclic_groups(&mut ctx, t, Bdd::FALSE, &groups);
        assert_eq!(check.cyclic, vec![false; 6]);
        assert!(cyclic_groups(&mut ctx, t, all, &[]).sccs.is_empty());
    }

    #[test]
    fn tails_around_a_cycle_are_not_cyclic() {
        // Upstream tail 0→1→2, the entering edge 2→3, the cycle 3→4→5→3,
        // downstream tail 5→6→7. The backward core keeps the cycle and the
        // downstream tail; only the cycle is an SCC.
        let mut ctx = shell(8);
        let edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 3), (5, 6), (6, 7)];
        let t = relation(&mut ctx, &edges);
        let all = ctx.all_states();
        let (core, _) = backward_core(&mut ctx, t, all, &[]).unwrap();
        assert_eq!(decode_scc(&mut ctx, core, 8), vec![3, 4, 5, 6, 7]);
        let groups: Vec<Bdd> = [&[(0, 1), (1, 2)][..], &[(5, 6), (6, 7)], &[(2, 3)], &[(4, 5)]]
            .iter()
            .map(|g| relation(&mut ctx, g))
            .collect();
        let check = cyclic_groups(&mut ctx, t, all, &groups);
        assert_eq!(check.cyclic, vec![false, false, false, true]);
        let sccs: Vec<Vec<u32>> = check.sccs.iter().map(|&s| decode_scc(&mut ctx, s, 8)).collect();
        assert_eq!(sccs, vec![vec![3, 4, 5]]);
        // One group per edge: only the cycle's edges are cyclic.
        let (cyclic, sccs) = check_edges(&mut ctx, &edges, all, 8);
        assert_eq!(cyclic, vec![false, false, false, true, true, true, false, false]);
        assert_eq!(sccs, vec![vec![3, 4, 5]]);
    }

    #[test]
    fn empty_vertex_set() {
        let mut ctx = shell(3);
        let edges = [(0, 1), (1, 0)];
        let (cyclic, sccs) = check_edges(&mut ctx, &edges, Bdd::FALSE, 3);
        assert_eq!(cyclic, vec![false; 2]);
        assert!(sccs.is_empty());
        let t = relation(&mut ctx, &edges);
        assert!(!has_cycle(&mut ctx, t, Bdd::FALSE));
    }
}
