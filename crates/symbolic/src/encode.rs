//! Log-encoding of protocols onto BDD variables.
//!
//! Every finite-domain protocol variable `v` with domain `d` occupies
//! `⌈log₂ d⌉` boolean variable *pairs*: the current-state bit at an even
//! level and its primed (next-state) partner immediately after it. This
//! interleaving keeps the identity relation `v' = v` — and hence each
//! process's frame condition — linear in the number of bits, which is the
//! standard CUDD-era layout the original STSyn inherits.
//!
//! Domains that are not powers of two leave *invalid codes*; every
//! predicate built here is intersected with the valid-code constraint, and
//! complements must go through [`SymbolicContext::not_states`] (which does
//! that intersection) rather than raw BDD negation.

use stsyn_bdd::{Bdd, BddError, Budget, Manager, RenameId, VarId, VarSetId};
use stsyn_protocol::expr::{BinOp, Expr, Ty, UnOp};
use stsyn_protocol::group::GroupDesc;
use stsyn_protocol::state::State;
use stsyn_protocol::topology::{ProcIdx, VarIdx};
use stsyn_protocol::Protocol;

/// Bit layout of one protocol variable.
#[derive(Debug, Clone)]
struct VarBits {
    /// Current-state bits, least-significant first.
    cur: Vec<VarId>,
    /// Primed bits, aligned with `cur`.
    primed: Vec<VarId>,
    domain: u32,
}

/// The symbolic encoding of one protocol: owns the BDD manager plus every
/// precomputed constant the algorithms need.
pub struct SymbolicContext {
    protocol: Protocol,
    mgr: Manager,
    bits: Vec<VarBits>,
    /// Conjunction of valid-code constraints over current bits.
    valid_cur: Bdd,
    /// Same over primed bits.
    valid_primed: Bdd,
    /// Per-variable value cubes: `value_cur[v][val]`.
    value_cur: Vec<Vec<Bdd>>,
    value_primed: Vec<Vec<Bdd>>,
    /// Per-variable identity `v' = v`.
    var_identity: Vec<Bdd>,
    /// Per-process frame: identity over every variable the process does
    /// not write.
    frames: Vec<Bdd>,
    cur_set: VarSetId,
    primed_set: VarSetId,
    cur_to_primed: RenameId,
    primed_to_cur: RenameId,
    cur_vars_sorted: Vec<VarId>,
}

/// How current and primed boolean variables are laid out in the BDD
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VarOrder {
    /// Each current bit immediately followed by its primed partner —
    /// the CUDD-era default that keeps identity/frame relations linear.
    #[default]
    Interleaved,
    /// All current bits first, then all primed bits. Deliberately bad for
    /// relations (each `v' = v` conjunct spans the whole order); provided
    /// for the variable-ordering ablation benchmark.
    Blocked,
}

/// Panic message of the infallible wrappers: with a budget installed the
/// fallible `try_*` variants must be used instead.
pub(crate) const INFALLIBLE: &str = "budget exhausted inside an infallible symbolic \
     operation (use the try_* variants when a budget is installed)";

impl SymbolicContext {
    /// Build the encoding for a protocol with the default
    /// ([`VarOrder::Interleaved`]) layout.
    pub fn new(protocol: Protocol) -> Self {
        Self::with_order(protocol, VarOrder::Interleaved)
    }

    /// Build the encoding with an explicit variable layout.
    pub fn with_order(protocol: Protocol, order: VarOrder) -> Self {
        let mut mgr = Manager::new();
        let mut bits = Vec::with_capacity(protocol.num_vars());
        match order {
            VarOrder::Interleaved => {
                for v in protocol.vars() {
                    let nbits = bits_for(v.domain);
                    let mut cur = Vec::with_capacity(nbits);
                    let mut primed = Vec::with_capacity(nbits);
                    for _ in 0..nbits {
                        cur.push(mgr.new_var());
                        primed.push(mgr.new_var());
                    }
                    bits.push(VarBits { cur, primed, domain: v.domain });
                }
            }
            VarOrder::Blocked => {
                // All current bits, then all primed bits (cur → primed
                // stays order-preserving, so renaming still works).
                for v in protocol.vars() {
                    let nbits = bits_for(v.domain);
                    let cur = (0..nbits).map(|_| mgr.new_var()).collect();
                    bits.push(VarBits { cur, primed: Vec::new(), domain: v.domain });
                }
                for (v, vb) in protocol.vars().iter().zip(bits.iter_mut()) {
                    let nbits = bits_for(v.domain);
                    vb.primed = (0..nbits).map(|_| mgr.new_var()).collect();
                }
            }
        }

        // Value cubes.
        let mut value_cur = Vec::with_capacity(bits.len());
        let mut value_primed = Vec::with_capacity(bits.len());
        for vb in &bits {
            let mut vc = Vec::with_capacity(vb.domain as usize);
            let mut vp = Vec::with_capacity(vb.domain as usize);
            for val in 0..vb.domain {
                vc.push(encode_value(&mut mgr, &vb.cur, val));
                vp.push(encode_value(&mut mgr, &vb.primed, val));
            }
            value_cur.push(vc);
            value_primed.push(vp);
        }

        // Valid-code constraints.
        let mut valid_cur = mgr.one();
        let mut valid_primed = mgr.one();
        for (i, vb) in bits.iter().enumerate() {
            if !vb.domain.is_power_of_two() {
                let vc = mgr.or_many(&value_cur[i]);
                valid_cur = mgr.and(valid_cur, vc);
                let vp = mgr.or_many(&value_primed[i]);
                valid_primed = mgr.and(valid_primed, vp);
            }
        }

        // Per-variable identity relations.
        let mut var_identity = Vec::with_capacity(bits.len());
        for vb in &bits {
            let mut id = mgr.one();
            // Build bottom-up (highest level first) to keep intermediate
            // BDDs small under the interleaved order.
            for k in (0..vb.cur.len()).rev() {
                let c = mgr.var(vb.cur[k]);
                let p = mgr.var(vb.primed[k]);
                let eq = mgr.iff(c, p);
                id = mgr.and(id, eq);
            }
            var_identity.push(id);
        }

        // Per-process frames.
        let mut frames = Vec::with_capacity(protocol.num_processes());
        for j in 0..protocol.num_processes() {
            let proc = &protocol.processes()[j];
            let mut frame = mgr.one();
            for i in (0..bits.len()).rev() {
                if !proc.writes.contains(&VarIdx(i)) {
                    frame = mgr.and(frame, var_identity[i]);
                }
            }
            frames.push(frame);
        }

        let all_cur: Vec<VarId> = bits.iter().flat_map(|vb| vb.cur.iter().copied()).collect();
        let all_primed: Vec<VarId> = bits.iter().flat_map(|vb| vb.primed.iter().copied()).collect();
        let cur_set = mgr.varset(&all_cur);
        let primed_set = mgr.varset(&all_primed);
        let fwd: Vec<(VarId, VarId)> =
            all_cur.iter().copied().zip(all_primed.iter().copied()).collect();
        let bwd: Vec<(VarId, VarId)> =
            all_primed.iter().copied().zip(all_cur.iter().copied()).collect();
        let cur_to_primed = mgr.rename_map(&fwd);
        let primed_to_cur = mgr.rename_map(&bwd);
        let mut cur_vars_sorted = all_cur;
        cur_vars_sorted.sort_unstable();

        SymbolicContext {
            protocol,
            mgr,
            bits,
            valid_cur,
            valid_primed,
            value_cur,
            value_primed,
            var_identity,
            frames,
            cur_set,
            primed_set,
            cur_to_primed,
            primed_to_cur,
            cur_vars_sorted,
        }
    }

    /// Install a resource budget on the underlying manager.
    ///
    /// Also registers this context's precomputed constants as the
    /// persistent GC root set (which lets safe points collect garbage, see
    /// [`Manager::safe_point`]) and — under the interleaved layout — the
    /// `(current, primed)` bit pairs the node-pressure degradation path
    /// may reorder with [`Manager::sift_pairs`]. Callers that hold further
    /// long-lived handles (relations, invariants, rank layers, ...) must
    /// extend the root set via [`SymbolicContext::register_roots`] before
    /// any call that may hit a safe point.
    pub fn set_budget(&mut self, budget: &Budget) {
        let roots = self.roots();
        let pairs: Vec<(VarId, VarId)> = self
            .bits
            .iter()
            .flat_map(|vb| vb.cur.iter().copied().zip(vb.primed.iter().copied()))
            .collect();
        self.mgr.set_gc_roots(roots);
        self.mgr.set_reorder_pairs(pairs);
        self.mgr.set_budget(budget.clone());
    }

    /// Remove any installed budget; the tick counter is preserved so
    /// callers can still read [`Manager::ticks_used`].
    pub fn clear_budget(&mut self) {
        self.mgr.clear_budget();
    }

    /// Re-register the persistent GC root set as this context's constants
    /// plus `extra`. Replaces (does not accumulate) previous extras. From
    /// then on safe points may collect garbage without a budget, so
    /// `extra` must name every handle the caller holds across them.
    pub fn register_roots(&mut self, extra: &[Bdd]) {
        let mut roots = self.roots();
        roots.extend_from_slice(extra);
        self.mgr.set_gc_roots(roots);
    }

    /// The encoded protocol.
    pub fn protocol(&self) -> &Protocol {
        &self.protocol
    }

    /// Mutable access to the underlying BDD manager.
    pub fn mgr(&mut self) -> &mut Manager {
        &mut self.mgr
    }

    /// Read-only access to the underlying BDD manager.
    pub fn mgr_ref(&self) -> &Manager {
        &self.mgr
    }

    /// The set of all current-state boolean variables.
    pub fn cur_set(&self) -> VarSetId {
        self.cur_set
    }

    /// The set of all primed boolean variables.
    pub fn primed_set(&self) -> VarSetId {
        self.primed_set
    }

    /// Rename map current → primed.
    pub fn cur_to_primed(&self) -> RenameId {
        self.cur_to_primed
    }

    /// Rename map primed → current.
    pub fn primed_to_cur(&self) -> RenameId {
        self.primed_to_cur
    }

    /// The valid-code constraint over current bits — the symbolic
    /// representation of the full state space `S_p`.
    pub fn all_states(&self) -> Bdd {
        self.valid_cur
    }

    /// Complement **within the state space**: `S_p ∧ ¬f`.
    pub fn not_states(&mut self, f: Bdd) -> Bdd {
        self.try_not_states(f).expect(INFALLIBLE)
    }

    /// Fallible variant of [`SymbolicContext::not_states`].
    #[must_use = "a budget violation is reported through the Result"]
    pub fn try_not_states(&mut self, f: Bdd) -> Result<Bdd, BddError> {
        let nf = self.mgr.try_not(f)?;
        self.mgr.try_and(self.valid_cur, nf)
    }

    /// The cube `v = val` over current bits.
    pub fn value(&self, v: VarIdx, val: u32) -> Bdd {
        self.value_cur[v.0][val as usize]
    }

    /// The cube `v' = val` over primed bits.
    pub fn value_primed(&self, v: VarIdx, val: u32) -> Bdd {
        self.value_primed[v.0][val as usize]
    }

    /// The frame relation of process `j`: every non-written variable
    /// unchanged.
    pub fn frame(&self, j: ProcIdx) -> Bdd {
        self.frames[j.0]
    }

    /// The singleton predicate {s}.
    pub fn state_cube(&mut self, s: &State) -> Bdd {
        self.try_state_cube(s).expect(INFALLIBLE)
    }

    /// Fallible variant of [`SymbolicContext::state_cube`].
    #[must_use = "a budget violation is reported through the Result"]
    pub fn try_state_cube(&mut self, s: &State) -> Result<Bdd, BddError> {
        let cubes: Vec<Bdd> =
            s.iter().enumerate().map(|(i, &val)| self.value_cur[i][val as usize]).collect();
        self.mgr.try_and_many(&cubes)
    }

    /// Number of protocol states in a (current-vocabulary) predicate.
    pub fn count_states(&self, f: Bdd) -> f64 {
        self.mgr.sat_count_over(f, &self.cur_vars_sorted)
    }

    /// Extract one concrete protocol state from a non-empty predicate.
    pub fn pick_state(&self, f: Bdd) -> Option<State> {
        let cube = self.mgr.pick_cube(f)?;
        let mut asg = vec![false; self.mgr.num_vars() as usize];
        for (v, b) in cube {
            asg[v.0 as usize] = b;
        }
        // Don't-care bits default to false — still inside `f`, and inside
        // the valid region because f ⊆ valid_cur for all predicates built
        // through this context.
        let mut state = Vec::with_capacity(self.bits.len());
        for vb in &self.bits {
            let mut val = 0u32;
            for (k, bit) in vb.cur.iter().enumerate() {
                if asg[bit.0 as usize] {
                    val |= 1 << k;
                }
            }
            debug_assert!(val < vb.domain, "picked an invalid code");
            state.push(val);
        }
        Some(state)
    }

    /// The singleton predicate {s} as a BDD, from a picked state — inverse
    /// of [`SymbolicContext::pick_state`].
    pub fn singleton(&mut self, s: &State) -> Bdd {
        self.state_cube(s)
    }

    /// Fallible variant of [`SymbolicContext::singleton`].
    #[must_use = "a budget violation is reported through the Result"]
    pub fn try_singleton(&mut self, s: &State) -> Result<Bdd, BddError> {
        self.try_state_cube(s)
    }

    /// Compile a boolean expression into a current-vocabulary predicate
    /// (intersected with the valid-code constraint).
    pub fn compile(&mut self, e: &Expr) -> Bdd {
        self.try_compile(e).expect(INFALLIBLE)
    }

    /// Fallible variant of [`SymbolicContext::compile`].
    #[must_use = "a budget violation is reported through the Result"]
    pub fn try_compile(&mut self, e: &Expr) -> Result<Bdd, BddError> {
        debug_assert_eq!(e.typecheck().ok(), Some(Ty::Bool));
        let raw = self.compile_bool(e)?;
        self.mgr.try_and(raw, self.valid_cur)
    }

    fn compile_bool(&mut self, e: &Expr) -> Result<Bdd, BddError> {
        Ok(match e {
            Expr::Bool(b) => {
                if *b {
                    self.mgr.one()
                } else {
                    self.mgr.zero()
                }
            }
            Expr::Un(UnOp::Not, inner) => {
                let f = self.compile_bool(inner)?;
                self.mgr.try_not(f)?
            }
            Expr::Bin(op, a, b) => {
                use BinOp::*;
                match op {
                    And | Or | Implies | Iff => {
                        let fa = self.compile_bool(a)?;
                        let fb = self.compile_bool(b)?;
                        match op {
                            And => self.mgr.try_and(fa, fb)?,
                            Or => self.mgr.try_or(fa, fb)?,
                            Implies => self.mgr.try_implies(fa, fb)?,
                            Iff => self.mgr.try_iff(fa, fb)?,
                            _ => unreachable!(),
                        }
                    }
                    Eq | Ne if a.typecheck() == Ok(Ty::Bool) => {
                        let fa = self.compile_bool(a)?;
                        let fb = self.compile_bool(b)?;
                        let eq = self.mgr.try_iff(fa, fb)?;
                        if *op == Eq {
                            eq
                        } else {
                            self.mgr.try_not(eq)?
                        }
                    }
                    Eq | Ne | Lt | Le | Gt | Ge => {
                        let ta = self.compile_int(a)?;
                        let tb = self.compile_int(b)?;
                        let mut acc = self.mgr.zero();
                        for &(va, ca) in &ta {
                            for &(vb, cb) in &tb {
                                let holds = match op {
                                    Eq => va == vb,
                                    Ne => va != vb,
                                    Lt => va < vb,
                                    Le => va <= vb,
                                    Gt => va > vb,
                                    Ge => va >= vb,
                                    _ => unreachable!(),
                                };
                                if holds {
                                    let both = self.mgr.try_and(ca, cb)?;
                                    acc = self.mgr.try_or(acc, both)?;
                                }
                            }
                        }
                        acc
                    }
                    _ => panic!("non-boolean operator in boolean position: {op:?}"),
                }
            }
            Expr::Int(_) | Expr::Var(_) | Expr::Un(UnOp::Neg, _) => {
                panic!("integer expression in boolean position")
            }
        })
    }

    /// Compile an integer expression into its value partition: a list of
    /// `(value, condition)` pairs whose conditions are disjoint and cover
    /// the valid states. Exponential in the number of *distinct variables
    /// mentioned*, which locality keeps tiny.
    fn compile_int(&mut self, e: &Expr) -> Result<Vec<(i64, Bdd)>, BddError> {
        Ok(match e {
            Expr::Int(i) => vec![(*i, self.mgr.one())],
            Expr::Var(v) => (0..self.bits[v.0].domain)
                .map(|val| (val as i64, self.value_cur[v.0][val as usize]))
                .collect(),
            Expr::Un(UnOp::Neg, inner) => {
                self.compile_int(inner)?.into_iter().map(|(v, c)| (-v, c)).collect()
            }
            Expr::Bin(op, a, b) => {
                use BinOp::*;
                let ta = self.compile_int(a)?;
                let tb = self.compile_int(b)?;
                let mut merged: Vec<(i64, Bdd)> = Vec::new();
                for &(va, ca) in &ta {
                    for &(vb, cb) in &tb {
                        let cond = self.mgr.try_and(ca, cb)?;
                        if cond.is_false() {
                            continue;
                        }
                        let val = match op {
                            Add => va + vb,
                            Sub => va - vb,
                            Mul => va * vb,
                            // Moduli are validated at parse/problem-construction
                            // time (`Expr::validate_moduli`); reaching zero here
                            // is an internal invariant violation.
                            Mod => {
                                assert!(vb != 0, "modulo by zero in predicate");
                                va.rem_euclid(vb)
                            }
                            _ => panic!("boolean operator in integer position: {op:?}"),
                        };
                        match merged.iter_mut().find(|(v, _)| *v == val) {
                            Some((_, c)) => *c = self.mgr.try_or(*c, cond)?,
                            None => merged.push((val, cond)),
                        }
                    }
                }
                merged
            }
            Expr::Bool(_) | Expr::Un(UnOp::Not, _) => {
                panic!("boolean expression in integer position")
            }
        })
    }

    /// The transition relation of one group: readable source cube ∧
    /// written target cube ∧ the process frame.
    pub fn group_relation(&mut self, g: &GroupDesc) -> Bdd {
        self.try_group_relation(g).expect(INFALLIBLE)
    }

    /// Fallible variant of [`SymbolicContext::group_relation`].
    #[must_use = "a budget violation is reported through the Result"]
    pub fn try_group_relation(&mut self, g: &GroupDesc) -> Result<Bdd, BddError> {
        // Value cubes are Copy handles: collect them while the process
        // borrow is live, then conjoin — no per-call clone of the
        // read/write sets in this hot path.
        let proc = &self.protocol.processes()[g.process.0];
        let mut constraints: Vec<Bdd> = Vec::with_capacity(g.pre.len() + g.post.len());
        for (r, &val) in proc.reads.iter().zip(&g.pre) {
            constraints.push(self.value_cur[r.0][val as usize]);
        }
        for (w, &val) in proc.writes.iter().zip(&g.post) {
            constraints.push(self.value_primed[w.0][val as usize]);
        }
        let mut rel = self.frame(g.process);
        // Conjoin highest-level constraints first (reads/writes are sorted
        // ascending; go in reverse to build bottom-up).
        for c in constraints.into_iter().rev() {
            rel = self.mgr.try_and(rel, c)?;
        }
        Ok(rel)
    }

    /// The source-state predicate of a group: the cube over its readable
    /// variables (i.e. all states from which the group has a transition).
    pub fn group_source(&mut self, g: &GroupDesc) -> Bdd {
        self.try_group_source(g).expect(INFALLIBLE)
    }

    /// Fallible variant of [`SymbolicContext::group_source`].
    #[must_use = "a budget violation is reported through the Result"]
    pub fn try_group_source(&mut self, g: &GroupDesc) -> Result<Bdd, BddError> {
        let proc = &self.protocol.processes()[g.process.0];
        let cubes: Vec<Bdd> = proc
            .reads
            .iter()
            .zip(&g.pre)
            .map(|(r, &val)| self.value_cur[r.0][val as usize])
            .collect();
        let mut src = self.valid_cur;
        for c in cubes.into_iter().rev() {
            src = self.mgr.try_and(src, c)?;
        }
        Ok(src)
    }

    /// The transition relation denoted by the protocol's guarded commands,
    /// `δ_p`, as the union of each process's action groups.
    pub fn protocol_relation(&mut self) -> Bdd {
        self.try_protocol_relation().expect(INFALLIBLE)
    }

    /// Fallible variant of [`SymbolicContext::protocol_relation`].
    #[must_use = "a budget violation is reported through the Result"]
    pub fn try_protocol_relation(&mut self) -> Result<Bdd, BddError> {
        let mut rel = self.mgr.zero();
        for j in 0..self.protocol.num_processes() {
            let groups = stsyn_protocol::group::groups_of_actions(&self.protocol, ProcIdx(j));
            for g in &groups {
                let gr = self.try_group_relation(g)?;
                rel = self.mgr.try_or(rel, gr)?;
            }
        }
        Ok(rel)
    }

    /// The literal list (current bits) encoding `v = val` — the cube form
    /// used to substitute a value into a predicate.
    pub fn cur_literals(&self, v: VarIdx, val: u32) -> Vec<(VarId, bool)> {
        let vb = &self.bits[v.0];
        vb.cur.iter().enumerate().map(|(k, &bit)| (bit, (val >> k) & 1 == 1)).collect()
    }

    /// Roots that must survive any garbage collection: every precomputed
    /// constant of this context.
    pub fn roots(&self) -> Vec<Bdd> {
        let mut r = vec![self.valid_cur, self.valid_primed];
        r.extend(self.value_cur.iter().flatten().copied());
        r.extend(self.value_primed.iter().flatten().copied());
        r.extend(self.var_identity.iter().copied());
        r.extend(self.frames.iter().copied());
        r
    }

    /// Garbage-collect the manager, keeping this context's constants and
    /// the caller's `extra` roots alive.
    pub fn gc(&mut self, extra: &[Bdd]) -> usize {
        let mut roots = self.roots();
        roots.extend_from_slice(extra);
        self.mgr.gc(&roots)
    }
}

/// Number of bits to encode a domain of size `d`.
fn bits_for(d: u32) -> usize {
    debug_assert!(d >= 1);
    if d == 1 {
        1 // keep one (constant-0) bit so every variable has a slot
    } else {
        (32 - (d - 1).leading_zeros()) as usize
    }
}

/// The cube `bits == val` (LSB-first).
fn encode_value(mgr: &mut Manager, bits: &[VarId], val: u32) -> Bdd {
    let mut cube = mgr.one();
    for (k, &b) in bits.iter().enumerate().rev() {
        let lit = mgr.literal(b, (val >> k) & 1 == 1);
        cube = mgr.and(cube, lit);
    }
    cube
}

#[cfg(test)]
mod tests {
    use super::*;
    use stsyn_protocol::action::Action;
    use stsyn_protocol::topology::{ProcessDecl, VarDecl};

    fn mini() -> Protocol {
        // Two vars of domain 3 (non-power-of-two exercises valid-code
        // handling), one process reading both, writing the first.
        let vars = vec![VarDecl::new("a", 3), VarDecl::new("b", 3)];
        let procs =
            vec![ProcessDecl::new("P0", vec![VarIdx(0), VarIdx(1)], vec![VarIdx(0)]).unwrap()];
        // a != b → a := b
        let a = Action::new(
            ProcIdx(0),
            Expr::var(VarIdx(0)).ne(Expr::var(VarIdx(1))),
            vec![(VarIdx(0), Expr::var(VarIdx(1)))],
        );
        Protocol::new(vars, procs, vec![a]).unwrap()
    }

    #[test]
    fn bits_for_domains() {
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 1);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(4), 2);
        assert_eq!(bits_for(5), 3);
        assert_eq!(bits_for(8), 3);
        assert_eq!(bits_for(9), 4);
    }

    #[test]
    fn state_space_count() {
        let ctx = SymbolicContext::new(mini());
        let all = ctx.all_states();
        assert_eq!(ctx.count_states(all), 9.0);
    }

    #[test]
    fn value_cubes_partition() {
        // Raw value cubes constrain only their own variable's bits; state
        // counting therefore goes through an intersection with the valid
        // state space (b's two bits admit an invalid fourth code).
        let mut ctx = SymbolicContext::new(mini());
        let all = ctx.all_states();
        let mut union = ctx.mgr().zero();
        for val in 0..3 {
            let c = ctx.value(VarIdx(0), val);
            let c_valid = ctx.mgr().and(c, all);
            assert_eq!(ctx.count_states(c_valid), 3.0); // b free over 3 values
            union = ctx.mgr().or(union, c_valid);
        }
        assert_eq!(union, all);
    }

    #[test]
    fn compile_matches_explicit_evaluation() {
        let p = mini();
        let mut ctx = SymbolicContext::new(p.clone());
        let e =
            Expr::var(VarIdx(0)).add(Expr::int(1)).modulo(Expr::int(3)).eq(Expr::var(VarIdx(1)));
        let f = ctx.compile(&e);
        for s in p.space().states() {
            let cube = ctx.state_cube(&s);
            let inside = !ctx.mgr().and(cube, f).is_false();
            assert_eq!(inside, e.holds(&s), "state {s:?}");
        }
    }

    #[test]
    fn compile_bool_connectives() {
        let p = mini();
        let mut ctx = SymbolicContext::new(p.clone());
        let e = Expr::var(VarIdx(0))
            .eq(Expr::int(0))
            .implies(Expr::var(VarIdx(1)).ne(Expr::int(2)))
            .and(Expr::Bool(true));
        let f = ctx.compile(&e);
        for s in p.space().states() {
            let cube = ctx.state_cube(&s);
            let inside = !ctx.mgr().and(cube, f).is_false();
            assert_eq!(inside, e.holds(&s));
        }
    }

    #[test]
    fn not_states_stays_within_space() {
        let mut ctx = SymbolicContext::new(mini());
        let zero = ctx.compile(&Expr::var(VarIdx(0)).eq(Expr::int(0)));
        let rest = ctx.not_states(zero);
        assert_eq!(ctx.count_states(rest), 6.0);
        let all = ctx.all_states();
        let union = ctx.mgr().or(zero, rest);
        assert_eq!(union, all);
    }

    #[test]
    fn group_relation_semantics() {
        let p = mini();
        let mut ctx = SymbolicContext::new(p.clone());
        // Group: a=0, b=1 → a:=1.
        let g = GroupDesc { process: ProcIdx(0), pre: vec![0, 1], post: vec![1] };
        let rel = ctx.group_relation(&g);
        // Exactly one transition: ⟨0,1⟩ → ⟨1,1⟩ (b unreadable? no — b is
        // read, so the group pins b; frame keeps b unchanged).
        let src_states = ctx_src(&mut ctx, rel);
        let src = ctx.pick_state(src_states).unwrap();
        assert_eq!(src, vec![0, 1]);
        // Count transition pairs: source fixed (1 state) × target 1.
        let src_pred = ctx.group_source(&g);
        assert_eq!(ctx.count_states(src_pred), 1.0);
    }

    fn ctx_src(ctx: &mut SymbolicContext, rel: Bdd) -> Bdd {
        let pv = ctx.primed_set();
        ctx.mgr().exists(rel, pv)
    }

    #[test]
    fn protocol_relation_matches_explicit_graph() {
        let p = mini();
        let mut ctx = SymbolicContext::new(p.clone());
        let rel = ctx.protocol_relation();
        let graph = stsyn_protocol::explicit::ExplicitGraph::of_protocol(&p);
        let space = p.space();
        // Each explicit edge must be in rel and vice versa (count check +
        // membership check).
        let mut expected = 0;
        for s in space.states() {
            let sid = space.encode(&s);
            for &t in graph.successors(sid) {
                expected += 1;
                let t_state = space.decode(t as u64);
                let s_cube = ctx.state_cube(&s);
                let t_cube = ctx.state_cube(&t_state);
                let map = ctx.cur_to_primed();
                let t_primed = ctx.mgr().rename(t_cube, map);
                let edge = ctx.mgr().and(s_cube, t_primed);
                assert!(!ctx.mgr().and(edge, rel).is_false(), "missing edge {s:?}→{t_state:?}");
            }
        }
        // Total symbolic edges equal the explicit count.
        let cur = ctx.cur_vars_sorted.clone();
        let primed: Vec<VarId> = {
            let pv = ctx.primed_set();
            ctx.mgr_ref().varset_vars(pv)
        };
        let mut all: Vec<VarId> = cur.into_iter().chain(primed).collect();
        all.sort_unstable();
        assert_eq!(ctx.mgr_ref().sat_count_over(rel, &all), expected as f64);
    }

    #[test]
    fn frame_keeps_unwritten_vars() {
        let p = mini();
        let mut ctx = SymbolicContext::new(p.clone());
        let frame = ctx.frame(ProcIdx(0));
        // b (index 1) must be unchanged: frame ∧ (b=0) ∧ (b'=1) is empty.
        let b0 = ctx.value(VarIdx(1), 0);
        let b1p = ctx.value_primed(VarIdx(1), 1);
        let both = ctx.mgr().and(b0, b1p);
        assert!(ctx.mgr().and(frame, both).is_false());
        // a is unconstrained by the frame.
        let a0 = ctx.value(VarIdx(0), 0);
        let a1p = ctx.value_primed(VarIdx(0), 1);
        let moved = ctx.mgr().and(a0, a1p);
        assert!(!ctx.mgr().and(frame, moved).is_false());
    }

    #[test]
    fn pick_state_roundtrip() {
        let p = mini();
        let mut ctx = SymbolicContext::new(p.clone());
        let e = Expr::var(VarIdx(0)).eq(Expr::int(2)).and(Expr::var(VarIdx(1)).eq(Expr::int(1)));
        let f = ctx.compile(&e);
        let s = ctx.pick_state(f).unwrap();
        assert_eq!(s, vec![2, 1]);
        let cube = ctx.singleton(&s);
        assert_eq!(cube, f);
        assert!(ctx.pick_state(Bdd::FALSE).is_none());
    }

    #[test]
    fn blocked_order_is_semantically_identical_but_bigger() {
        use crate::encode::VarOrder;
        let p = mini();
        let mut inter = SymbolicContext::new(p.clone());
        let mut blocked = SymbolicContext::with_order(p.clone(), VarOrder::Blocked);
        // Same state counts, same predicate semantics.
        let e = Expr::var(VarIdx(0)).ne(Expr::var(VarIdx(1)));
        let fi = inter.compile(&e);
        let fb = blocked.compile(&e);
        assert_eq!(inter.count_states(fi), blocked.count_states(fb));
        // Same relation semantics: image of a state agrees.
        let ti = inter.protocol_relation();
        let tb = blocked.protocol_relation();
        for s in p.space().states() {
            let ci = inter.state_cube(&s);
            let cb = blocked.state_cube(&s);
            let img_i = inter.img(ti, ci);
            let img_b = blocked.img(tb, cb);
            assert_eq!(inter.count_states(img_i), blocked.count_states(img_b), "{s:?}");
        }
        // The frame (identity) relation is strictly larger when blocked —
        // the point of the interleaved default.
        let frame_i = inter.frame(ProcIdx(0));
        let frame_b = blocked.frame(ProcIdx(0));
        assert!(
            blocked.mgr_ref().node_count(frame_b) >= inter.mgr_ref().node_count(frame_i),
            "blocked frame must not be smaller"
        );
    }

    #[test]
    fn gc_keeps_context_usable() {
        let p = mini();
        let mut ctx = SymbolicContext::new(p.clone());
        let keep = ctx.compile(&Expr::var(VarIdx(0)).eq(Expr::var(VarIdx(1))));
        let _garbage = ctx.protocol_relation();
        ctx.gc(&[keep]);
        assert_eq!(ctx.count_states(keep), 3.0);
        // Context constants still valid after GC.
        let rel = ctx.protocol_relation();
        assert!(!rel.is_false());
    }
}
