//! Memoized boolean connectives: `not`, `and`, `or`, `xor`, `ite`, and the
//! derived operations (`implies`, `iff`, `diff`) the synthesizer uses.
//!
//! Every operation comes in two flavours: a fallible `try_*` variant that
//! charges the installed [`crate::Budget`] one tick per recursive step and
//! returns [`crate::BddError`] on exhaustion, and the classic infallible
//! name, a thin wrapper that panics only if a budget is installed *and*
//! exhausted (budgeted callers must use `try_*`).

use crate::budget::{expect_budget, BddError};
use crate::manager::{Bdd, BinOp, Manager};
use crate::table::Op;

impl Manager {
    /// Negation `¬f`.
    pub fn not(&mut self, f: Bdd) -> Bdd {
        expect_budget(self.try_not(f))
    }

    /// Fallible negation `¬f`.
    #[must_use = "a budget violation is reported through the Result"]
    pub fn try_not(&mut self, f: Bdd) -> Result<Bdd, BddError> {
        self.tick()?;
        if f.is_false() {
            return Ok(Bdd::TRUE);
        }
        if f.is_true() {
            return Ok(Bdd::FALSE);
        }
        if let Some(r) = self.cached(Op::Not, f.0, 0, 0) {
            return Ok(r);
        }
        let n = self.node(f);
        let lo = self.try_not(Bdd(n.lo))?;
        let hi = self.try_not(Bdd(n.hi))?;
        let r = self.mk(n.var, lo, hi);
        Ok(self.memo(Op::Not, f.0, 0, 0, r))
    }

    /// Conjunction `f ∧ g`.
    pub fn and(&mut self, f: Bdd, g: Bdd) -> Bdd {
        expect_budget(self.try_and(f, g))
    }

    /// Fallible conjunction `f ∧ g`.
    #[must_use = "a budget violation is reported through the Result"]
    pub fn try_and(&mut self, f: Bdd, g: Bdd) -> Result<Bdd, BddError> {
        self.apply_bin(BinOp::And, f, g)
    }

    /// Disjunction `f ∨ g`.
    pub fn or(&mut self, f: Bdd, g: Bdd) -> Bdd {
        expect_budget(self.try_or(f, g))
    }

    /// Fallible disjunction `f ∨ g`.
    #[must_use = "a budget violation is reported through the Result"]
    pub fn try_or(&mut self, f: Bdd, g: Bdd) -> Result<Bdd, BddError> {
        self.apply_bin(BinOp::Or, f, g)
    }

    /// Exclusive or `f ⊕ g`.
    pub fn xor(&mut self, f: Bdd, g: Bdd) -> Bdd {
        expect_budget(self.try_xor(f, g))
    }

    /// Fallible exclusive or `f ⊕ g`.
    #[must_use = "a budget violation is reported through the Result"]
    pub fn try_xor(&mut self, f: Bdd, g: Bdd) -> Result<Bdd, BddError> {
        self.apply_bin(BinOp::Xor, f, g)
    }

    /// Implication `f ⇒ g`, i.e. `¬f ∨ g`.
    pub fn implies(&mut self, f: Bdd, g: Bdd) -> Bdd {
        expect_budget(self.try_implies(f, g))
    }

    /// Fallible implication `f ⇒ g`.
    #[must_use = "a budget violation is reported through the Result"]
    pub fn try_implies(&mut self, f: Bdd, g: Bdd) -> Result<Bdd, BddError> {
        let nf = self.try_not(f)?;
        self.try_or(nf, g)
    }

    /// Biconditional `f ⇔ g`, i.e. `¬(f ⊕ g)`.
    pub fn iff(&mut self, f: Bdd, g: Bdd) -> Bdd {
        expect_budget(self.try_iff(f, g))
    }

    /// Fallible biconditional `f ⇔ g`.
    #[must_use = "a budget violation is reported through the Result"]
    pub fn try_iff(&mut self, f: Bdd, g: Bdd) -> Result<Bdd, BddError> {
        let x = self.try_xor(f, g)?;
        self.try_not(x)
    }

    /// Set difference `f ∧ ¬g` (reads naturally when BDDs denote state sets).
    pub fn diff(&mut self, f: Bdd, g: Bdd) -> Bdd {
        expect_budget(self.try_diff(f, g))
    }

    /// Fallible set difference `f ∧ ¬g`.
    #[must_use = "a budget violation is reported through the Result"]
    pub fn try_diff(&mut self, f: Bdd, g: Bdd) -> Result<Bdd, BddError> {
        let ng = self.try_not(g)?;
        self.try_and(f, ng)
    }

    /// Conjunction of a slice of functions (right fold; `true` for empty).
    pub fn and_many(&mut self, fs: &[Bdd]) -> Bdd {
        expect_budget(self.try_and_many(fs))
    }

    /// Fallible conjunction of a slice of functions.
    #[must_use = "a budget violation is reported through the Result"]
    pub fn try_and_many(&mut self, fs: &[Bdd]) -> Result<Bdd, BddError> {
        let mut acc = Bdd::TRUE;
        for &f in fs {
            acc = self.try_and(acc, f)?;
            if acc.is_false() {
                break;
            }
        }
        Ok(acc)
    }

    /// Disjunction of a slice of functions (`false` for empty).
    pub fn or_many(&mut self, fs: &[Bdd]) -> Bdd {
        expect_budget(self.try_or_many(fs))
    }

    /// Fallible disjunction of a slice of functions.
    #[must_use = "a budget violation is reported through the Result"]
    pub fn try_or_many(&mut self, fs: &[Bdd]) -> Result<Bdd, BddError> {
        let mut acc = Bdd::FALSE;
        for &f in fs {
            acc = self.try_or(acc, f)?;
            if acc.is_true() {
                break;
            }
        }
        Ok(acc)
    }

    /// If-then-else `(f ∧ g) ∨ (¬f ∧ h)` — the universal ternary connective.
    pub fn ite(&mut self, f: Bdd, g: Bdd, h: Bdd) -> Bdd {
        expect_budget(self.try_ite(f, g, h))
    }

    /// Fallible if-then-else.
    #[must_use = "a budget violation is reported through the Result"]
    pub fn try_ite(&mut self, f: Bdd, g: Bdd, h: Bdd) -> Result<Bdd, BddError> {
        self.tick()?;
        // Terminal and absorption cases.
        if f.is_true() {
            return Ok(g);
        }
        if f.is_false() {
            return Ok(h);
        }
        if g == h {
            return Ok(g);
        }
        if g.is_true() && h.is_false() {
            return Ok(f);
        }
        if g.is_false() && h.is_true() {
            return self.try_not(f);
        }
        if f == g {
            return self.try_or(f, h); // ite(f,f,h) = f ∨ h
        }
        if f == h {
            return self.try_and(f, g); // ite(f,g,f) = f ∧ g
        }
        if let Some(r) = self.cached(Op::Ite, f.0, g.0, h.0) {
            return Ok(r);
        }
        let top = self.level(f).min(self.level(g)).min(self.level(h));
        let (f0, f1) = self.cofactors_at(f, top);
        let (g0, g1) = self.cofactors_at(g, top);
        let (h0, h1) = self.cofactors_at(h, top);
        let lo = self.try_ite(f0, g0, h0)?;
        let hi = self.try_ite(f1, g1, h1)?;
        let r = self.mk_level(top, lo, hi);
        Ok(self.memo(Op::Ite, f.0, g.0, h.0, r))
    }

    /// Does `f ⇒ g` hold for all assignments? (Set inclusion when BDDs
    /// denote sets.) Computed as `¬(f ∧ ¬g ≠ ∅)`: only `¬g` is built (and
    /// memoized), never the implication or the difference.
    pub fn implies_holds(&mut self, f: Bdd, g: Bdd) -> bool {
        expect_budget(self.try_implies_holds(f, g))
    }

    /// Fallible set-inclusion test.
    #[must_use = "a budget violation is reported through the Result"]
    pub fn try_implies_holds(&mut self, f: Bdd, g: Bdd) -> Result<bool, BddError> {
        let ng = self.try_not(g)?;
        Ok(!self.try_intersects(f, ng)?)
    }

    /// Do `f` and `g` share a satisfying assignment? (Set intersection
    /// non-emptiness.) Creates no node.
    pub fn intersects(&mut self, f: Bdd, g: Bdd) -> bool {
        expect_budget(self.try_intersects(f, g))
    }

    /// Fallible intersection-non-emptiness test. Walks the cofactor pairs
    /// of `f ∧ g` and stops at the first one that is satisfiable, so it
    /// builds nothing. A memoized `f ∧ g` answers at once; a pair found
    /// disjoint is memoized as `f ∧ g = false`, which is exactly the
    /// conjunction's value, so later `and` calls hit it too.
    #[must_use = "a budget violation is reported through the Result"]
    pub fn try_intersects(&mut self, mut f: Bdd, mut g: Bdd) -> Result<bool, BddError> {
        self.tick()?;
        // The terminal cases of `And`, read as emptiness.
        if f.is_false() || g.is_false() {
            return Ok(false);
        }
        if f.is_true() || g.is_true() || f == g {
            return Ok(true);
        }
        if f.0 > g.0 {
            std::mem::swap(&mut f, &mut g);
        }
        if let Some(r) = self.cached(Op::And, f.0, g.0, 0) {
            return Ok(!r.is_false());
        }
        let top = self.level(f).min(self.level(g));
        let (f0, f1) = self.cofactors_at(f, top);
        let (g0, g1) = self.cofactors_at(g, top);
        if self.try_intersects(f0, g0)? || self.try_intersects(f1, g1)? {
            return Ok(true);
        }
        self.memo(Op::And, f.0, g.0, 0, Bdd::FALSE);
        Ok(false)
    }

    /// Both cofactors of `f` with respect to the variable at `level`
    /// (which must be at or above `f`'s own top level).
    #[inline]
    pub(crate) fn cofactors_at(&self, f: Bdd, level: u32) -> (Bdd, Bdd) {
        if self.level(f) == level {
            let n = self.node(f);
            (Bdd(n.lo), Bdd(n.hi))
        } else {
            (f, f)
        }
    }

    fn apply_bin(&mut self, op: BinOp, mut f: Bdd, mut g: Bdd) -> Result<Bdd, BddError> {
        self.tick()?;
        // Terminal cases per operator.
        match op {
            BinOp::And => {
                if f.is_false() || g.is_false() {
                    return Ok(Bdd::FALSE);
                }
                if f.is_true() {
                    return Ok(g);
                }
                if g.is_true() {
                    return Ok(f);
                }
                if f == g {
                    return Ok(f);
                }
            }
            BinOp::Or => {
                if f.is_true() || g.is_true() {
                    return Ok(Bdd::TRUE);
                }
                if f.is_false() {
                    return Ok(g);
                }
                if g.is_false() {
                    return Ok(f);
                }
                if f == g {
                    return Ok(f);
                }
            }
            BinOp::Xor => {
                if f == g {
                    return Ok(Bdd::FALSE);
                }
                if f.is_false() {
                    return Ok(g);
                }
                if g.is_false() {
                    return Ok(f);
                }
                if f.is_true() {
                    return self.try_not(g);
                }
                if g.is_true() {
                    return self.try_not(f);
                }
            }
        }
        // All three operators are commutative: normalize the cache key.
        if f.0 > g.0 {
            std::mem::swap(&mut f, &mut g);
        }
        if let Some(r) = self.cached(op.into(), f.0, g.0, 0) {
            return Ok(r);
        }
        let top = self.level(f).min(self.level(g));
        let (f0, f1) = self.cofactors_at(f, top);
        let (g0, g1) = self.cofactors_at(g, top);
        let lo = self.apply_bin(op, f0, g0)?;
        let hi = self.apply_bin(op, f1, g1)?;
        let r = self.mk_level(top, lo, hi);
        Ok(self.memo(op.into(), f.0, g.0, 0, r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup3() -> (Manager, Bdd, Bdd, Bdd) {
        let mut m = Manager::new();
        let a = m.new_var();
        let b = m.new_var();
        let c = m.new_var();
        let (fa, fb, fc) = (m.var(a), m.var(b), m.var(c));
        (m, fa, fb, fc)
    }

    #[test]
    fn de_morgan() {
        let (mut m, a, b, _) = setup3();
        let lhs = {
            let x = m.and(a, b);
            m.not(x)
        };
        let rhs = {
            let na = m.not(a);
            let nb = m.not(b);
            m.or(na, nb)
        };
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn double_negation() {
        let (mut m, a, b, _) = setup3();
        let f = m.xor(a, b);
        let nf = m.not(f);
        assert_eq!(m.not(nf), f);
    }

    #[test]
    fn distributivity() {
        let (mut m, a, b, c) = setup3();
        let bc = m.or(b, c);
        let lhs = m.and(a, bc);
        let ab = m.and(a, b);
        let ac = m.and(a, c);
        let rhs = m.or(ab, ac);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn xor_via_ite() {
        let (mut m, a, b, _) = setup3();
        let nb = m.not(b);
        let via_ite = m.ite(a, nb, b);
        assert_eq!(via_ite, m.xor(a, b));
    }

    #[test]
    fn ite_absorptions() {
        let (mut m, a, b, c) = setup3();
        assert_eq!(m.ite(Bdd::TRUE, b, c), b);
        assert_eq!(m.ite(Bdd::FALSE, b, c), c);
        assert_eq!(m.ite(a, b, b), b);
        assert_eq!(m.ite(a, Bdd::TRUE, Bdd::FALSE), a);
        let na = m.not(a);
        assert_eq!(m.ite(a, Bdd::FALSE, Bdd::TRUE), na);
        let a_or_c = m.or(a, c);
        assert_eq!(m.ite(a, a, c), a_or_c);
        let a_and_b = m.and(a, b);
        assert_eq!(m.ite(a, b, a), a_and_b);
    }

    #[test]
    fn implies_and_iff() {
        let (mut m, a, b, _) = setup3();
        let ab = m.and(a, b);
        assert!(m.implies_holds(ab, a));
        assert!(!m.implies_holds(a, ab));
        let i1 = m.iff(a, a);
        assert!(i1.is_true());
        let i2 = m.iff(a, b);
        let x = m.xor(a, b);
        let nx = m.not(x);
        assert_eq!(i2, nx);
    }

    #[test]
    fn many_folds() {
        let (mut m, a, b, c) = setup3();
        let all = m.and_many(&[a, b, c]);
        let ab = m.and(a, b);
        let abc = m.and(ab, c);
        assert_eq!(all, abc);
        let any = m.or_many(&[a, b, c]);
        let ob = m.or(a, b);
        let obc = m.or(ob, c);
        assert_eq!(any, obc);
        assert!(m.and_many(&[]).is_true());
        assert!(m.or_many(&[]).is_false());
    }

    #[test]
    fn intersects_and_diff() {
        let (mut m, a, b, _) = setup3();
        let na = m.not(a);
        assert!(!m.intersects(a, na));
        assert!(m.intersects(a, b));
        let d = m.diff(a, a);
        assert!(d.is_false());
    }
}
