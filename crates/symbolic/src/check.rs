//! Symbolic verification of closure and convergence (Proposition II.1).
//!
//! Every protocol the synthesizer emits is re-verified through this module
//! — "correct by construction" is backed by an independent model-checking
//! pass, and the test suite additionally cross-validates these verdicts
//! against the explicit-state engine.

use crate::encode::{SymbolicContext, INFALLIBLE};
use crate::scc::try_has_cycle;
use stsyn_bdd::{Bdd, BddError};

/// Is `i` closed in `relation`? (`T ∧ I ∧ ¬I'` must be empty.)
pub fn closure_holds(ctx: &mut SymbolicContext, relation: Bdd, i: Bdd) -> bool {
    try_closure_holds(ctx, relation, i).expect(INFALLIBLE)
}

/// Fallible variant of [`closure_holds`] for budgeted runs.
#[must_use = "a budget violation is reported through the Result"]
pub fn try_closure_holds(
    ctx: &mut SymbolicContext,
    relation: Bdd,
    i: Bdd,
) -> Result<bool, BddError> {
    let map = ctx.cur_to_primed();
    let i_primed = ctx.mgr().try_rename(i, map)?;
    let not_i_primed = ctx.mgr().try_not(i_primed)?;
    let from_i = ctx.mgr().try_and(relation, i)?;
    Ok(ctx.mgr().try_and(from_i, not_i_primed)?.is_false())
}

/// Deadlock states outside `i`: `¬I ∧ ¬(∃s'. T)`.
pub fn deadlock_states(ctx: &mut SymbolicContext, relation: Bdd, i: Bdd) -> Bdd {
    try_deadlock_states(ctx, relation, i).expect(INFALLIBLE)
}

/// Fallible variant of [`deadlock_states`] for budgeted runs.
#[must_use = "a budget violation is reported through the Result"]
pub fn try_deadlock_states(
    ctx: &mut SymbolicContext,
    relation: Bdd,
    i: Bdd,
) -> Result<Bdd, BddError> {
    let enabled = ctx.try_enabled(relation)?;
    let not_i = ctx.try_not_states(i)?;
    let not_enabled = ctx.mgr().try_not(enabled)?;
    ctx.mgr().try_and(not_i, not_enabled)
}

/// Strong convergence to `i` (Proposition II.1): no deadlock state in
/// `¬I` and no non-progress cycle in `T | ¬I`.
pub fn strong_convergence(ctx: &mut SymbolicContext, relation: Bdd, i: Bdd) -> bool {
    try_strong_convergence(ctx, relation, i).expect(INFALLIBLE)
}

/// Fallible variant of [`strong_convergence`] for budgeted runs.
#[must_use = "a budget violation is reported through the Result"]
pub fn try_strong_convergence(
    ctx: &mut SymbolicContext,
    relation: Bdd,
    i: Bdd,
) -> Result<bool, BddError> {
    if !try_deadlock_states(ctx, relation, i)?.is_false() {
        return Ok(false);
    }
    let not_i = ctx.try_not_states(i)?;
    let restricted = ctx.try_restrict_relation(relation, not_i)?;
    Ok(!try_has_cycle(ctx, restricted, not_i)?)
}

/// Weak convergence to `i`: every state can reach `i` (the backward
/// closure of `i` covers the state space).
pub fn weak_convergence(ctx: &mut SymbolicContext, relation: Bdd, i: Bdd) -> bool {
    try_weak_convergence(ctx, relation, i).expect(INFALLIBLE)
}

/// Fallible variant of [`weak_convergence`] for budgeted runs.
#[must_use = "a budget violation is reported through the Result"]
pub fn try_weak_convergence(
    ctx: &mut SymbolicContext,
    relation: Bdd,
    i: Bdd,
) -> Result<bool, BddError> {
    let reach = ctx.try_backward_closure(relation, i)?;
    Ok(ctx.try_not_states(reach)?.is_false())
}

#[cfg(test)]
mod tests {
    use super::*;
    use stsyn_protocol::action::Action;
    use stsyn_protocol::expr::Expr;
    use stsyn_protocol::topology::{ProcIdx, ProcessDecl, VarDecl, VarIdx};
    use stsyn_protocol::Protocol;

    fn one_var(n: u32, actions: Vec<Action>) -> SymbolicContext {
        let vars = vec![VarDecl::new("c", n)];
        let procs = vec![ProcessDecl::new("P0", vec![VarIdx(0)], vec![VarIdx(0)]).unwrap()];
        SymbolicContext::new(Protocol::new(vars, procs, actions).unwrap())
    }

    fn c() -> Expr {
        Expr::var(VarIdx(0))
    }

    #[test]
    fn ramp_is_strongly_stabilizing() {
        // c < 3 → c := c+1 converges to {c == 3}.
        let inc =
            Action::new(ProcIdx(0), c().lt(Expr::int(3)), vec![(VarIdx(0), c().add(Expr::int(1)))]);
        let mut ctx = one_var(4, vec![inc]);
        let t = ctx.protocol_relation();
        let i = ctx.compile(&c().eq(Expr::int(3)));
        assert!(closure_holds(&mut ctx, t, i));
        assert!(strong_convergence(&mut ctx, t, i));
        assert!(weak_convergence(&mut ctx, t, i));
        assert!(closure_holds(&mut ctx, t, i) && strong_convergence(&mut ctx, t, i));
    }

    #[test]
    fn deadlock_breaks_strong_convergence() {
        // Only c == 0 moves (to 1); c == 2 is a ¬I deadlock.
        let step = Action::new(ProcIdx(0), c().eq(Expr::int(0)), vec![(VarIdx(0), Expr::int(1))]);
        let mut ctx = one_var(3, vec![step]);
        let t = ctx.protocol_relation();
        let i = ctx.compile(&c().eq(Expr::int(1)));
        let dead = deadlock_states(&mut ctx, t, i);
        assert_eq!(ctx.count_states(dead), 1.0);
        assert_eq!(ctx.pick_state(dead).unwrap(), vec![2]);
        assert!(!strong_convergence(&mut ctx, t, i));
        // And weak convergence fails for the same reason here.
        assert!(!weak_convergence(&mut ctx, t, i));
    }

    #[test]
    fn cycle_outside_i_breaks_strong_but_not_weak() {
        // 0↔1 cycle plus 0→2; I = {2}. Strong fails (cycle), weak holds.
        let a01 = Action::new(ProcIdx(0), c().eq(Expr::int(0)), vec![(VarIdx(0), Expr::int(1))]);
        let a10 = Action::new(ProcIdx(0), c().eq(Expr::int(1)), vec![(VarIdx(0), Expr::int(0))]);
        let a02 = Action::new(ProcIdx(0), c().eq(Expr::int(0)), vec![(VarIdx(0), Expr::int(2))]);
        let mut ctx = one_var(3, vec![a01, a10, a02]);
        let t = ctx.protocol_relation();
        let i = ctx.compile(&c().eq(Expr::int(2)));
        assert!(closure_holds(&mut ctx, t, i)); // 2 has no outgoing action
        assert!(!strong_convergence(&mut ctx, t, i));
        assert!(weak_convergence(&mut ctx, t, i));
        assert!(closure_holds(&mut ctx, t, i) && weak_convergence(&mut ctx, t, i));
        assert!(!(closure_holds(&mut ctx, t, i) && strong_convergence(&mut ctx, t, i)));
    }

    #[test]
    fn closure_violation_detected() {
        // I = {0,1} but 1 → 2 escapes.
        let a = Action::new(ProcIdx(0), c().eq(Expr::int(1)), vec![(VarIdx(0), Expr::int(2))]);
        let mut ctx = one_var(3, vec![a]);
        let t = ctx.protocol_relation();
        let i = ctx.compile(&c().lt(Expr::int(2)));
        assert!(!closure_holds(&mut ctx, t, i));
    }

    #[test]
    fn deadlock_inside_i_is_fine() {
        // I = {2}, and 2 is silent — that is a *silent* stabilizing
        // protocol, not a deadlock violation.
        let a0 = Action::new(ProcIdx(0), c().eq(Expr::int(0)), vec![(VarIdx(0), Expr::int(2))]);
        let a1 = Action::new(ProcIdx(0), c().eq(Expr::int(1)), vec![(VarIdx(0), Expr::int(2))]);
        let mut ctx = one_var(3, vec![a0, a1]);
        let t = ctx.protocol_relation();
        let i = ctx.compile(&c().eq(Expr::int(2)));
        assert!(deadlock_states(&mut ctx, t, i).is_false());
        assert!(strong_convergence(&mut ctx, t, i));
    }
}
