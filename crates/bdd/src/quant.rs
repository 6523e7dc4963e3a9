//! Quantification and the fused relational product.
//!
//! `exists`/`forall` eliminate a set of variables; `and_exists` computes
//! `∃V. f ∧ g` without materializing the conjunction — the workhorse of
//! symbolic image/preimage computation (CUDD calls it `bddAndAbstract`).

use crate::budget::{expect_budget, BddError};
use crate::manager::{Bdd, Manager};
use crate::table::Op;
use crate::varset::VarSetId;

impl Manager {
    /// Existential quantification `∃ vars. f`.
    pub fn exists(&mut self, f: Bdd, vars: VarSetId) -> Bdd {
        expect_budget(self.try_exists(f, vars))
    }

    /// Fallible existential quantification `∃ vars. f`.
    #[must_use = "a budget violation is reported through the Result"]
    pub fn try_exists(&mut self, f: Bdd, vars: VarSetId) -> Result<Bdd, BddError> {
        self.check_varset(vars);
        self.exists_rec(f, vars, 0)
    }

    /// Universal quantification `∀ vars. f = ¬∃ vars. ¬f`.
    pub fn forall(&mut self, f: Bdd, vars: VarSetId) -> Bdd {
        expect_budget(self.try_forall(f, vars))
    }

    /// Fallible universal quantification.
    #[must_use = "a budget violation is reported through the Result"]
    pub fn try_forall(&mut self, f: Bdd, vars: VarSetId) -> Result<Bdd, BddError> {
        let nf = self.try_not(f)?;
        let e = self.try_exists(nf, vars)?;
        self.try_not(e)
    }

    /// The relational product `∃ vars. f ∧ g`.
    pub fn and_exists(&mut self, f: Bdd, g: Bdd, vars: VarSetId) -> Bdd {
        expect_budget(self.try_and_exists(f, g, vars))
    }

    /// Fallible relational product `∃ vars. f ∧ g`.
    #[must_use = "a budget violation is reported through the Result"]
    pub fn try_and_exists(&mut self, f: Bdd, g: Bdd, vars: VarSetId) -> Result<Bdd, BddError> {
        self.check_varset(vars);
        self.and_exists_rec(f, g, vars, 0)
    }

    /// Recursion for `exists`. `cursor` indexes into the sorted level list
    /// of `vars` and only ever moves forward; the memo key is `(f, vars)`
    /// because levels before the cursor are guaranteed to be above `f`'s
    /// top level, hence irrelevant to the result.
    fn exists_rec(&mut self, f: Bdd, vars: VarSetId, mut cursor: usize) -> Result<Bdd, BddError> {
        self.tick()?;
        if f.is_const() {
            return Ok(f);
        }
        let top = self.level(f);
        let levels = &self.varsets[vars.idx as usize];
        while cursor < levels.len() && levels[cursor] < top {
            cursor += 1;
        }
        if cursor == levels.len() {
            return Ok(f); // no quantified variable occurs in f
        }
        if let Some(r) = self.cached(Op::Exists, f.0, vars.idx, 0) {
            return Ok(r);
        }
        let quantify_here = self.varsets[vars.idx as usize][cursor] == top;
        let n = self.node(f);
        let r = if quantify_here {
            let lo = self.exists_rec(Bdd(n.lo), vars, cursor + 1)?;
            if lo.is_true() {
                Bdd::TRUE
            } else {
                let hi = self.exists_rec(Bdd(n.hi), vars, cursor + 1)?;
                self.try_or(lo, hi)?
            }
        } else {
            let lo = self.exists_rec(Bdd(n.lo), vars, cursor)?;
            let hi = self.exists_rec(Bdd(n.hi), vars, cursor)?;
            self.mk_level(top, lo, hi)
        };
        Ok(self.memo(Op::Exists, f.0, vars.idx, 0, r))
    }

    fn and_exists_rec(
        &mut self,
        mut f: Bdd,
        mut g: Bdd,
        vars: VarSetId,
        mut cursor: usize,
    ) -> Result<Bdd, BddError> {
        self.tick()?;
        if f.is_false() || g.is_false() {
            return Ok(Bdd::FALSE);
        }
        if f.is_true() {
            return self.exists_rec(g, vars, cursor);
        }
        if g.is_true() || f == g {
            return self.exists_rec(f, vars, cursor);
        }
        // Conjunction is commutative: normalize for the cache.
        if f.0 > g.0 {
            std::mem::swap(&mut f, &mut g);
        }
        let top = self.level(f).min(self.level(g));
        {
            let levels = &self.varsets[vars.idx as usize];
            while cursor < levels.len() && levels[cursor] < top {
                cursor += 1;
            }
            if cursor == levels.len() {
                // No quantified variable remains in either operand.
                return self.try_and(f, g);
            }
        }
        if let Some(r) = self.cached(Op::AndExists, f.0, g.0, vars.idx) {
            return Ok(r);
        }
        let quantify_here = self.varsets[vars.idx as usize][cursor] == top;
        let (f0, f1) = self.cofactors_at(f, top);
        let (g0, g1) = self.cofactors_at(g, top);
        let r = if quantify_here {
            let lo = self.and_exists_rec(f0, g0, vars, cursor + 1)?;
            if lo.is_true() {
                Bdd::TRUE
            } else {
                let hi = self.and_exists_rec(f1, g1, vars, cursor + 1)?;
                self.try_or(lo, hi)?
            }
        } else {
            let lo = self.and_exists_rec(f0, g0, vars, cursor)?;
            let hi = self.and_exists_rec(f1, g1, vars, cursor)?;
            self.mk_level(top, lo, hi)
        };
        Ok(self.memo(Op::AndExists, f.0, g.0, vars.idx, r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::VarId;

    fn setup() -> (Manager, Vec<VarId>) {
        let mut m = Manager::new();
        let vs = m.new_vars(4);
        (m, vs)
    }

    #[test]
    fn exists_removes_variable() {
        let (mut m, vs) = setup();
        let a = m.var(vs[0]);
        let b = m.var(vs[1]);
        let f = m.and(a, b);
        let set = m.varset(&[vs[0]]);
        let e = m.exists(f, set);
        assert_eq!(e, b);
    }

    #[test]
    fn exists_of_tautology_in_var() {
        let (mut m, vs) = setup();
        let a = m.var(vs[0]);
        let na = m.not(a);
        let f = m.or(a, na);
        let set = m.varset(&[vs[0]]);
        assert!(m.exists(f, set).is_true());
    }

    #[test]
    fn forall_dual() {
        let (mut m, vs) = setup();
        let a = m.var(vs[0]);
        let b = m.var(vs[1]);
        let f = m.or(a, b);
        let set = m.varset(&[vs[0]]);
        // ∀a. a ∨ b  =  b
        assert_eq!(m.forall(f, set), b);
        // ∃a. a ∨ b  =  true
        assert!(m.exists(f, set).is_true());
    }

    #[test]
    fn exists_multiple_vars() {
        let (mut m, vs) = setup();
        let lits: Vec<Bdd> = vs.iter().map(|&v| m.var(v)).collect();
        let f = m.and_many(&lits);
        let set = m.varset(&vs);
        assert!(m.exists(f, set).is_true());
        let partial = m.varset(&[vs[0], vs[2]]);
        let e = m.exists(f, partial);
        let expect = m.and(lits[1], lits[3]);
        assert_eq!(e, expect);
    }

    #[test]
    fn and_exists_equals_exists_of_and() {
        let (mut m, vs) = setup();
        let a = m.var(vs[0]);
        let b = m.var(vs[1]);
        let c = m.var(vs[2]);
        let nb = m.not(b);
        let f = m.xor(a, b);
        let g = {
            let t = m.and(nb, c);
            m.or(a, t)
        };
        let set = m.varset(&[vs[1]]);
        let fused = m.and_exists(f, g, set);
        let plain = {
            let conj = m.and(f, g);
            m.exists(conj, set)
        };
        assert_eq!(fused, plain);
    }

    #[test]
    fn and_exists_disjoint_quantifier() {
        let (mut m, vs) = setup();
        let a = m.var(vs[0]);
        let b = m.var(vs[1]);
        let f = m.and(a, b);
        let set = m.varset(&[vs[3]]); // variable absent from f ∧ g
        let r = m.and_exists(f, f, set);
        assert_eq!(r, f);
    }

    #[test]
    fn quantifying_nothing_is_identity() {
        let (mut m, vs) = setup();
        let a = m.var(vs[0]);
        let b = m.var(vs[1]);
        let f = m.iff(a, b);
        let empty = m.varset(&[]);
        assert_eq!(m.exists(f, empty), f);
        assert_eq!(m.forall(f, empty), f);
    }
}
