//! Inspection of BDDs: evaluation, model counting, the node-free test of a
//! conjunction of cofactors, node counting, support computation and cube
//! (satisfying path) enumeration.

use crate::hash::{FxHashMap, FxHashSet};
use crate::manager::{Bdd, Manager, VarId, TERMINAL_LEVEL};

impl Manager {
    /// Evaluate `f` under a total assignment: `assignment[level]` is the
    /// value of the variable at `level`. Levels beyond the slice are taken
    /// as `false`.
    pub fn eval(&self, f: Bdd, assignment: &[bool]) -> bool {
        let mut cur = f;
        while !cur.is_const() {
            let n = self.node(cur);
            let bit = assignment.get(n.var as usize).copied().unwrap_or(false);
            cur = Bdd(if bit { n.hi } else { n.lo });
        }
        cur.is_true()
    }

    /// Number of satisfying assignments of `f` over the variable levels
    /// `0..nvars` (as an `f64`; exact for counts below 2^53).
    pub fn sat_count(&self, f: Bdd, nvars: u32) -> f64 {
        let mut memo: FxHashMap<u32, f64> = FxHashMap::default();
        self.sat_count_rec(f, &mut memo, nvars) * 2f64.powi(self.level_or(f, nvars) as i32)
    }

    fn level_or(&self, f: Bdd, nvars: u32) -> u32 {
        let l = self.level(f);
        if l == TERMINAL_LEVEL {
            nvars
        } else {
            l
        }
    }

    /// Count of solutions over levels `[level(f) .. nvars)`.
    fn sat_count_rec(&self, f: Bdd, memo: &mut FxHashMap<u32, f64>, nvars: u32) -> f64 {
        if f.is_false() {
            return 0.0;
        }
        if f.is_true() {
            return 1.0;
        }
        if let Some(&c) = memo.get(&f.0) {
            return c;
        }
        let n = self.node(f);
        let lo = Bdd(n.lo);
        let hi = Bdd(n.hi);
        let lf = self.level(f);
        let c_lo = self.sat_count_rec(lo, memo, nvars)
            * 2f64.powi((self.level_or(lo, nvars) - lf - 1) as i32);
        let c_hi = self.sat_count_rec(hi, memo, nvars)
            * 2f64.powi((self.level_or(hi, nvars) - lf - 1) as i32);
        let c = c_lo + c_hi;
        memo.insert(f.0, c);
        c
    }

    /// Number of satisfying assignments of `f` counting only the given
    /// variables, which must be sorted ascending and must cover `f`'s
    /// support (checked). Variables in the list but not in the support
    /// contribute a factor of 2 each, as usual.
    pub fn sat_count_over(&self, f: Bdd, vars: &[VarId]) -> f64 {
        debug_assert!(
            self.support(f).iter().all(|v| vars.contains(v)),
            "vars must cover the support of f"
        );
        // Order by the *current* levels so the positional gap arithmetic
        // below works under any variable order.
        let mut ordered: Vec<VarId> = vars.to_vec();
        ordered.sort_unstable_by_key(|v| self.level_of(*v));
        ordered.dedup();
        let mut memo: FxHashMap<u32, f64> = FxHashMap::default();
        self.sat_over_rec(f, &ordered, 0, &mut memo)
    }

    /// Solutions of `f` over `vars[from..]` (f's top level is ≥ vars[from]).
    fn sat_over_rec(
        &self,
        f: Bdd,
        vars: &[VarId],
        from: usize,
        memo: &mut FxHashMap<u32, f64>,
    ) -> f64 {
        // Position of f's top level within vars.
        let pos = match f.is_const() {
            true => vars.len(),
            false => {
                let top_var = self.node(f).var;
                from + vars[from..]
                    .iter()
                    .position(|v| v.0 == top_var)
                    .expect("support not covered by vars")
            }
        };
        let free = (pos - from) as i32;
        let inner = if f.is_false() {
            0.0
        } else if f.is_true() {
            1.0
        } else if let Some(&c) = memo.get(&f.0) {
            c
        } else {
            let n = self.node(f);
            let c = self.sat_over_rec(Bdd(n.lo), vars, pos + 1, memo)
                + self.sat_over_rec(Bdd(n.hi), vars, pos + 1, memo);
            memo.insert(f.0, c);
            c
        };
        inner * 2f64.powi(free)
    }

    /// Is `f[lits_f] ∧ g[lits_g]` satisfiable? `f[lits]` is the cofactor
    /// that substitutes constants for the variables of `lits` (at most one
    /// literal per variable; any order). One early-exit walk over the
    /// cofactor pairs answers it without building either cofactor or the
    /// conjunction: one tick per step, a per-call memo of the pairs found
    /// disjoint, and [`Manager::try_intersects`], which shares the computed
    /// table, once both literal lists are used up. Creates no node.
    #[must_use = "a budget violation is reported through the Result"]
    pub fn try_cofactors_intersect(
        &mut self,
        f: Bdd,
        lits_f: &[(VarId, bool)],
        g: Bdd,
        lits_g: &[(VarId, bool)],
    ) -> Result<bool, crate::BddError> {
        let by_level = |m: &Manager, lits: &[(VarId, bool)]| {
            let mut out: Vec<(u32, bool)> = lits.iter().map(|&(v, b)| (m.level_of(v), b)).collect();
            out.sort_unstable();
            out
        };
        let (lf, lg) = (by_level(self, lits_f), by_level(self, lits_g));
        self.cofactors_intersect_rec(f, &lf, g, &lg, &mut FxHashSet::default())
    }

    /// One step of [`Manager::try_cofactors_intersect`]. After both
    /// operands are walked past their literals, the literals left are
    /// those below each operand's top level, so `(f, g)` alone keys the
    /// memo of disjoint pairs.
    fn cofactors_intersect_rec(
        &mut self,
        f: Bdd,
        lf: &[(u32, bool)],
        g: Bdd,
        lg: &[(u32, bool)],
        disjoint: &mut FxHashSet<(u32, u32)>,
    ) -> Result<bool, crate::BddError> {
        self.tick()?;
        let (f, lf) = self.substitute_from_top(f, lf);
        let (g, lg) = self.substitute_from_top(g, lg);
        if lf.is_empty() && lg.is_empty() {
            return self.try_intersects(f, g);
        }
        if f.is_false() || g.is_false() || disjoint.contains(&(f.0, g.0)) {
            return Ok(false);
        }
        let top = self.level(f).min(self.level(g));
        let (f0, f1) = self.cofactors_at(f, top);
        let (g0, g1) = self.cofactors_at(g, top);
        if self.cofactors_intersect_rec(f0, lf, g0, lg, disjoint)?
            || self.cofactors_intersect_rec(f1, lf, g1, lg, disjoint)?
        {
            return Ok(true);
        }
        disjoint.insert((f.0, g.0));
        Ok(false)
    }

    /// Follow `f` down through the literals (sorted by level) at or above
    /// its top level: a literal above `f` does not touch it, and one at its
    /// top picks a child. Returns the node reached and the literals below.
    fn substitute_from_top<'l>(
        &self,
        mut f: Bdd,
        mut lits: &'l [(u32, bool)],
    ) -> (Bdd, &'l [(u32, bool)]) {
        while let Some((&(level, b), rest)) = lits.split_first() {
            let top = self.level(f);
            if level > top {
                break;
            }
            if level == top {
                let n = self.node(f);
                f = Bdd(if b { n.hi } else { n.lo });
            }
            lits = rest;
        }
        (f, lits)
    }

    /// Number of distinct DAG nodes in `f`, terminals included (CUDD's
    /// `Cudd_DagSize` convention). This is the paper's space metric.
    pub fn node_count(&self, f: Bdd) -> usize {
        let mut seen: FxHashSet<u32> = FxHashSet::default();
        let mut stack = vec![f.0];
        while let Some(i) = stack.pop() {
            if seen.insert(i) {
                let n = self.nodes[i as usize];
                if n.var != TERMINAL_LEVEL {
                    stack.push(n.lo);
                    stack.push(n.hi);
                }
            }
        }
        seen.len()
    }

    /// Total distinct DAG nodes across several functions (shared nodes
    /// counted once) — used for the "total program size" series of the
    /// paper's space figures where the program is a set of group relations.
    pub fn node_count_many(&self, fs: &[Bdd]) -> usize {
        let mut seen: FxHashSet<u32> = FxHashSet::default();
        let mut stack: Vec<u32> = fs.iter().map(|f| f.0).collect();
        while let Some(i) = stack.pop() {
            if seen.insert(i) {
                let n = self.nodes[i as usize];
                if n.var != TERMINAL_LEVEL {
                    stack.push(n.lo);
                    stack.push(n.hi);
                }
            }
        }
        seen.len()
    }

    /// The set of variables `f` actually depends on, sorted ascending.
    pub fn support(&self, f: Bdd) -> Vec<VarId> {
        let mut seen: FxHashSet<u32> = FxHashSet::default();
        let mut vars: FxHashSet<u32> = FxHashSet::default();
        let mut stack = vec![f.0];
        while let Some(i) = stack.pop() {
            if seen.insert(i) {
                let n = self.nodes[i as usize];
                if n.var != TERMINAL_LEVEL {
                    vars.insert(n.var);
                    stack.push(n.lo);
                    stack.push(n.hi);
                }
            }
        }
        let mut out: Vec<VarId> = vars.into_iter().map(VarId).collect();
        out.sort_unstable();
        out
    }

    /// One satisfying partial assignment (a cube) of `f`, as
    /// `(variable, polarity)` pairs sorted by level, or `None` if `f` is
    /// unsatisfiable. Variables not mentioned are don't-cares.
    pub fn pick_cube(&self, f: Bdd) -> Option<Vec<(VarId, bool)>> {
        if f.is_false() {
            return None;
        }
        let mut cube = Vec::new();
        let mut cur = f;
        while !cur.is_const() {
            let n = self.node(cur);
            // Prefer the lo branch when it is satisfiable, hi otherwise;
            // at least one must be (ROBDDs have no all-false internal node).
            if n.lo != 0 {
                cube.push((VarId(n.var), false));
                cur = Bdd(n.lo);
            } else {
                cube.push((VarId(n.var), true));
                cur = Bdd(n.hi);
            }
        }
        Some(cube)
    }

    /// Iterate every cube (path to the `true` terminal) of `f`. Each item
    /// is a sorted list of `(variable, polarity)` pairs; unlisted variables
    /// are don't-cares. The number of cubes can be exponential — callers
    /// use this only over small local-variable predicates (guard
    /// extraction).
    pub fn cubes(&self, f: Bdd) -> CubeIter<'_> {
        CubeIter { mgr: self, stack: if f.is_false() { vec![] } else { vec![(f, Vec::new())] } }
    }
}

/// Iterator over the cubes of a BDD; see [`Manager::cubes`].
pub struct CubeIter<'a> {
    mgr: &'a Manager,
    stack: Vec<(Bdd, Vec<(VarId, bool)>)>,
}

impl<'a> Iterator for CubeIter<'a> {
    type Item = Vec<(VarId, bool)>;

    fn next(&mut self) -> Option<Self::Item> {
        while let Some((f, prefix)) = self.stack.pop() {
            if f.is_true() {
                return Some(prefix);
            }
            if f.is_false() {
                continue;
            }
            let n = self.mgr.node(f);
            let mut hi_prefix = prefix.clone();
            hi_prefix.push((VarId(n.var), true));
            let mut lo_prefix = prefix;
            lo_prefix.push((VarId(n.var), false));
            // Push hi first so cubes come out in lexicographic (lo-first)
            // order, which makes extraction output deterministic.
            self.stack.push((Bdd(n.hi), hi_prefix));
            self.stack.push((Bdd(n.lo), lo_prefix));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Manager, Vec<VarId>) {
        let mut m = Manager::new();
        let vs = m.new_vars(4);
        (m, vs)
    }

    #[test]
    fn eval_basic() {
        let (mut m, vs) = setup();
        let a = m.var(vs[0]);
        let b = m.var(vs[1]);
        let f = m.xor(a, b);
        assert!(!m.eval(f, &[false, false]));
        assert!(m.eval(f, &[true, false]));
        assert!(m.eval(f, &[false, true]));
        assert!(!m.eval(f, &[true, true]));
    }

    #[test]
    fn sat_count_matches_truth_table() {
        let (mut m, vs) = setup();
        let a = m.var(vs[0]);
        let b = m.var(vs[1]);
        let c = m.var(vs[2]);
        let ab = m.and(a, b);
        let f = m.or(ab, c);
        // over 3 vars: a∧b (2 with c free... ) brute force:
        let mut count = 0;
        for bits in 0..8u32 {
            let asg = [(bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0];
            if m.eval(f, &asg) {
                count += 1;
            }
        }
        assert_eq!(m.sat_count(f, 3), count as f64);
        assert_eq!(m.sat_count(f, 4), (count * 2) as f64);
        assert_eq!(m.sat_count(Bdd::TRUE, 4), 16.0);
        assert_eq!(m.sat_count(Bdd::FALSE, 4), 0.0);
    }

    #[test]
    fn sat_count_over_subset() {
        let (mut m, vs) = setup();
        let a = m.var(vs[0]);
        let c = m.var(vs[2]);
        let f = m.and(a, c);
        assert_eq!(m.sat_count_over(f, &[vs[0], vs[2]]), 1.0);
        assert_eq!(m.sat_count_over(f, &[vs[0], vs[1], vs[2]]), 2.0);
    }

    #[test]
    fn node_count_shared() {
        let (mut m, vs) = setup();
        let a = m.var(vs[0]);
        let b = m.var(vs[1]);
        let f = m.xor(a, b);
        // xor over 2 vars: 1 root + 2 nodes for b + 2 terminals = 5
        assert_eq!(m.node_count(f), 5);
        let g = m.iff(a, b);
        // f and g share the b-level nodes and terminals.
        let both = m.node_count_many(&[f, g]);
        assert!(both < m.node_count(f) + m.node_count(g));
    }

    #[test]
    fn support_is_exact() {
        let (mut m, vs) = setup();
        let a = m.var(vs[0]);
        let d = m.var(vs[3]);
        let f = m.or(a, d);
        assert_eq!(m.support(f), vec![vs[0], vs[3]]);
        assert!(m.support(Bdd::TRUE).is_empty());
    }

    #[test]
    fn pick_cube_satisfies() {
        let (mut m, vs) = setup();
        let a = m.var(vs[0]);
        let nb = m.nvar(vs[1]);
        let f = m.and(a, nb);
        let cube = m.pick_cube(f).unwrap();
        let mut asg = vec![false; 4];
        for (v, val) in cube {
            asg[v.0 as usize] = val;
        }
        assert!(m.eval(f, &asg));
        assert!(m.pick_cube(Bdd::FALSE).is_none());
    }

    #[test]
    fn cubes_cover_exactly_the_function() {
        let (mut m, vs) = setup();
        let a = m.var(vs[0]);
        let b = m.var(vs[1]);
        let c = m.var(vs[2]);
        let ab = m.and(a, b);
        let f = m.or(ab, c);
        // Rebuild f from its cubes and compare.
        let mut rebuilt = Bdd::FALSE;
        for cube in m.cubes(f).collect::<Vec<_>>() {
            let lits: Vec<Bdd> = cube.iter().map(|&(v, val)| m.literal(v, val)).collect();
            let cb = m.and_many(&lits);
            rebuilt = m.or(rebuilt, cb);
        }
        assert_eq!(rebuilt, f);
    }

    #[test]
    fn cubes_of_constants() {
        let (m, _vs) = setup();
        assert_eq!(m.cubes(Bdd::FALSE).count(), 0);
        let all: Vec<_> = m.cubes(Bdd::TRUE).collect();
        assert_eq!(all, vec![Vec::new()]);
    }
}
