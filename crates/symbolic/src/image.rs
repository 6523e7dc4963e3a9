//! Image, preimage and reachability over a symbolic transition relation.
//!
//! Every operation comes in two flavours: the classic infallible name and
//! a `try_*` variant returning `Result<_, BddError>` for budgeted runs.
//! The closure fixpoints additionally hit a *safe point*
//! ([`stsyn_bdd::Manager::safe_point`]) once per iteration, which may
//! collect garbage; a caller that has registered roots or installed a node
//! ceiling must therefore keep the manager's registered root set complete
//! for every handle it holds across the call (see
//! [`SymbolicContext::register_roots`]).

use crate::encode::{SymbolicContext, INFALLIBLE};
use stsyn_bdd::{Bdd, BddError};

impl SymbolicContext {
    /// Forward image: the states reachable from `x` in exactly one
    /// transition of `t`. `img(t, x) = (∃cur. t ∧ x)[primed ↦ cur]`.
    pub fn img(&mut self, t: Bdd, x: Bdd) -> Bdd {
        self.try_img(t, x).expect(INFALLIBLE)
    }

    /// Fallible variant of [`SymbolicContext::img`].
    #[must_use = "a budget violation is reported through the Result"]
    pub fn try_img(&mut self, t: Bdd, x: Bdd) -> Result<Bdd, BddError> {
        let cur = self.cur_set();
        let map = self.primed_to_cur();
        let shifted = self.mgr().try_and_exists(t, x, cur)?;
        self.mgr().try_rename(shifted, map)
    }

    /// Backward image: the states with a `t`-successor in `x`.
    /// `pre(t, x) = ∃primed. t ∧ x[cur ↦ primed]`.
    pub fn pre(&mut self, t: Bdd, x: Bdd) -> Bdd {
        self.try_pre(t, x).expect(INFALLIBLE)
    }

    /// Fallible variant of [`SymbolicContext::pre`].
    #[must_use = "a budget violation is reported through the Result"]
    pub fn try_pre(&mut self, t: Bdd, x: Bdd) -> Result<Bdd, BddError> {
        let primed = self.primed_set();
        let map = self.cur_to_primed();
        let xp = self.mgr().try_rename(x, map)?;
        self.mgr().try_and_exists(t, xp, primed)
    }

    /// States with at least one outgoing `t` transition.
    pub fn enabled(&mut self, t: Bdd) -> Bdd {
        self.try_enabled(t).expect(INFALLIBLE)
    }

    /// Fallible variant of [`SymbolicContext::enabled`].
    #[must_use = "a budget violation is reported through the Result"]
    pub fn try_enabled(&mut self, t: Bdd) -> Result<Bdd, BddError> {
        let primed = self.primed_set();
        self.mgr().try_exists(t, primed)
    }

    /// All states reachable from `x` (reflexive-transitive forward
    /// closure).
    pub fn forward_closure(&mut self, t: Bdd, x: Bdd) -> Bdd {
        self.try_forward_closure(t, x).expect(INFALLIBLE)
    }

    /// Fallible variant of [`SymbolicContext::forward_closure`]; hits a
    /// safe point before every frontier expansion.
    #[must_use = "a budget violation is reported through the Result"]
    pub fn try_forward_closure(&mut self, t: Bdd, x: Bdd) -> Result<Bdd, BddError> {
        let mut reach = x;
        loop {
            self.mgr().safe_point(&[t, x, reach])?;
            let step = self.try_img(t, reach)?;
            let next = self.mgr().try_or(reach, step)?;
            if next == reach {
                return Ok(reach);
            }
            reach = next;
        }
    }

    /// All states that can reach `x` (reflexive-transitive backward
    /// closure).
    pub fn backward_closure(&mut self, t: Bdd, x: Bdd) -> Bdd {
        self.try_backward_closure(t, x).expect(INFALLIBLE)
    }

    /// Fallible variant of [`SymbolicContext::backward_closure`]; hits a
    /// safe point before every frontier expansion.
    #[must_use = "a budget violation is reported through the Result"]
    pub fn try_backward_closure(&mut self, t: Bdd, x: Bdd) -> Result<Bdd, BddError> {
        let mut reach = x;
        loop {
            self.mgr().safe_point(&[t, x, reach])?;
            let step = self.try_pre(t, reach)?;
            let next = self.mgr().try_or(reach, step)?;
            if next == reach {
                return Ok(reach);
            }
            reach = next;
        }
    }

    /// Restrict a relation to transitions that start **and** end inside
    /// `x` — the paper's `δ|X` projection.
    pub fn restrict_relation(&mut self, t: Bdd, x: Bdd) -> Bdd {
        self.try_restrict_relation(t, x).expect(INFALLIBLE)
    }

    /// Fallible variant of [`SymbolicContext::restrict_relation`].
    #[must_use = "a budget violation is reported through the Result"]
    pub fn try_restrict_relation(&mut self, t: Bdd, x: Bdd) -> Result<Bdd, BddError> {
        let map = self.cur_to_primed();
        let xp = self.mgr().try_rename(x, map)?;
        let t1 = self.mgr().try_and(t, x)?;
        self.mgr().try_and(t1, xp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stsyn_protocol::action::Action;
    use stsyn_protocol::expr::Expr;
    use stsyn_protocol::topology::{ProcIdx, ProcessDecl, VarDecl, VarIdx};
    use stsyn_protocol::Protocol;

    /// A 4-counter that increments forever (one cycle through 0..3).
    fn counter() -> Protocol {
        let vars = vec![VarDecl::new("c", 4)];
        let procs = vec![ProcessDecl::new("P0", vec![VarIdx(0)], vec![VarIdx(0)]).unwrap()];
        let a = Action::new(
            ProcIdx(0),
            Expr::Bool(true),
            vec![(VarIdx(0), Expr::var(VarIdx(0)).add(Expr::int(1)).modulo(Expr::int(4)))],
        );
        Protocol::new(vars, procs, vec![a]).unwrap()
    }

    /// A ramp: increments only while c < 3 (converges to c == 3).
    fn ramp() -> Protocol {
        let vars = vec![VarDecl::new("c", 4)];
        let procs = vec![ProcessDecl::new("P0", vec![VarIdx(0)], vec![VarIdx(0)]).unwrap()];
        let a = Action::new(
            ProcIdx(0),
            Expr::var(VarIdx(0)).lt(Expr::int(3)),
            vec![(VarIdx(0), Expr::var(VarIdx(0)).add(Expr::int(1)))],
        );
        Protocol::new(vars, procs, vec![a]).unwrap()
    }

    #[test]
    fn img_and_pre_are_adjoint_on_counter() {
        let mut ctx = SymbolicContext::new(counter());
        let t = ctx.protocol_relation();
        let s1 = ctx.compile(&Expr::var(VarIdx(0)).eq(Expr::int(1)));
        let s2 = ctx.compile(&Expr::var(VarIdx(0)).eq(Expr::int(2)));
        assert_eq!(ctx.img(t, s1), s2);
        assert_eq!(ctx.pre(t, s2), s1);
    }

    #[test]
    fn closures_on_counter_reach_everything() {
        let mut ctx = SymbolicContext::new(counter());
        let t = ctx.protocol_relation();
        let s0 = ctx.compile(&Expr::var(VarIdx(0)).eq(Expr::int(0)));
        let all = ctx.all_states();
        assert_eq!(ctx.forward_closure(t, s0), all);
        assert_eq!(ctx.backward_closure(t, s0), all);
    }

    #[test]
    fn closures_on_ramp_are_directional() {
        let mut ctx = SymbolicContext::new(ramp());
        let t = ctx.protocol_relation();
        let top = ctx.compile(&Expr::var(VarIdx(0)).eq(Expr::int(3)));
        let all = ctx.all_states();
        // Everything reaches the top...
        assert_eq!(ctx.backward_closure(t, top), all);
        // ...but the top reaches only itself.
        assert_eq!(ctx.forward_closure(t, top), top);
    }

    #[test]
    fn enabled_states_of_ramp() {
        let mut ctx = SymbolicContext::new(ramp());
        let t = ctx.protocol_relation();
        let en = ctx.enabled(t);
        let expect = ctx.compile(&Expr::var(VarIdx(0)).lt(Expr::int(3)));
        assert_eq!(en, expect);
    }

    #[test]
    fn restrict_relation_cuts_boundary() {
        let mut ctx = SymbolicContext::new(counter());
        let t = ctx.protocol_relation();
        let low = ctx.compile(&Expr::var(VarIdx(0)).lt(Expr::int(2)));
        let r = ctx.restrict_relation(t, low);
        // Only 0→1 survives (1→2 leaves `low`).
        let s0 = ctx.compile(&Expr::var(VarIdx(0)).eq(Expr::int(0)));
        let s1 = ctx.compile(&Expr::var(VarIdx(0)).eq(Expr::int(1)));
        assert_eq!(ctx.img(r, s0), s1);
        assert!(ctx.img(r, s1).is_false());
    }
}
