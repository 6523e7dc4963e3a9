//! Symbolic verification of closure and convergence (Proposition II.1).
//!
//! Every protocol the synthesizer emits is re-verified through this module
//! — "correct by construction" is backed by an independent model-checking
//! pass, and the test suite additionally cross-validates these verdicts
//! against the explicit-state engine.

use crate::encode::{SymbolicContext, INFALLIBLE};
use crate::scc::try_has_cycle;
use stsyn_bdd::{Bdd, BddError};

/// Outcome of a convergence check, with symbolic witnesses.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// Does the property hold?
    pub holds: bool,
    /// A non-empty set of witness states when it does not (deadlocks, a
    /// cycle region, or states that cannot reach `I`, depending on the
    /// check).
    pub witness: Bdd,
}

impl Verdict {
    pub(crate) fn ok() -> Self {
        Verdict { holds: true, witness: Bdd::FALSE }
    }

    pub(crate) fn fail(witness: Bdd) -> Self {
        Verdict { holds: false, witness }
    }
}

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
pub fn strong_convergence(ctx: &mut SymbolicContext, relation: Bdd, i: Bdd) -> Verdict {
    try_strong_convergence(ctx, relation, i).expect(INFALLIBLE)
}

/// Fallible variant of [`strong_convergence`] for budgeted runs.
#[must_use = "a budget violation is reported through the Result"]
pub fn try_strong_convergence(
    ctx: &mut SymbolicContext,
    relation: Bdd,
    i: Bdd,
) -> Result<Verdict, BddError> {
    let dead = try_deadlock_states(ctx, relation, i)?;
    if !dead.is_false() {
        return Ok(Verdict::fail(dead));
    }
    let not_i = ctx.try_not_states(i)?;
    let restricted = ctx.try_restrict_relation(relation, not_i)?;
    if try_has_cycle(ctx, restricted, not_i)? {
        // Witness: the trimmed cyclic core.
        let mut core = not_i;
        loop {
            let with_succ = ctx.try_pre(restricted, core)?;
            let with_pred = ctx.try_img(restricted, core)?;
            let mut next = ctx.mgr().try_and(core, with_succ)?;
            next = ctx.mgr().try_and(next, with_pred)?;
            if next == core {
                break;
            }
            core = next;
        }
        return Ok(Verdict::fail(core));
    }
    Ok(Verdict::ok())
}

/// Weak convergence to `i`: every state can reach `i` (the backward
/// closure of `i` covers the state space).
pub fn weak_convergence(ctx: &mut SymbolicContext, relation: Bdd, i: Bdd) -> Verdict {
    try_weak_convergence(ctx, relation, i).expect(INFALLIBLE)
}

/// Fallible variant of [`weak_convergence`] for budgeted runs.
#[must_use = "a budget violation is reported through the Result"]
pub fn try_weak_convergence(
    ctx: &mut SymbolicContext,
    relation: Bdd,
    i: Bdd,
) -> Result<Verdict, BddError> {
    let reach = ctx.try_backward_closure(relation, i)?;
    let missing = ctx.try_not_states(reach)?;
    Ok(if missing.is_false() { Verdict::ok() } else { Verdict::fail(missing) })
}

/// Full self-stabilization check: closure plus the requested flavor of
/// convergence.
pub fn self_stabilizing(ctx: &mut SymbolicContext, relation: Bdd, i: Bdd, strong: bool) -> bool {
    try_self_stabilizing(ctx, relation, i, strong).expect(INFALLIBLE)
}

/// Fallible variant of [`self_stabilizing`] for budgeted runs.
#[must_use = "a budget violation is reported through the Result"]
pub fn try_self_stabilizing(
    ctx: &mut SymbolicContext,
    relation: Bdd,
    i: Bdd,
    strong: bool,
) -> Result<bool, BddError> {
    Ok(try_closure_holds(ctx, relation, i)?
        && if strong {
            try_strong_convergence(ctx, relation, i)?.holds
        } else {
            try_weak_convergence(ctx, relation, i)?.holds
        })
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
        assert!(strong_convergence(&mut ctx, t, i).holds);
        assert!(weak_convergence(&mut ctx, t, i).holds);
        assert!(self_stabilizing(&mut ctx, t, i, true));
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
        let verdict = strong_convergence(&mut ctx, t, i);
        assert!(!verdict.holds);
        assert_eq!(verdict.witness, dead);
        // And weak convergence fails for the same reason here.
        assert!(!weak_convergence(&mut ctx, t, i).holds);
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
        let strong = strong_convergence(&mut ctx, t, i);
        assert!(!strong.holds);
        // The witness covers the 0↔1 cycle.
        assert_eq!(ctx.count_states(strong.witness), 2.0);
        assert!(weak_convergence(&mut ctx, t, i).holds);
        assert!(self_stabilizing(&mut ctx, t, i, false));
        assert!(!self_stabilizing(&mut ctx, t, i, true));
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
        assert!(strong_convergence(&mut ctx, t, i).holds);
    }
}
