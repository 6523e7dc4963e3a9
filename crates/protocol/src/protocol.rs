//! The protocol tuple ⟨V_p, δ_p, Π_p, T_p⟩ and its validation.

use crate::action::Action;
use crate::expr::Ty;
use crate::state::{State, StateSpace};
use crate::topology::{ProcIdx, ProcessDecl, VarDecl, VarIdx};
use std::fmt;

/// Errors raised by [`Protocol::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// An action's guard or right-hand side failed to typecheck.
    Type(String),
    /// An action of process `p` reads a variable outside `r_p`.
    ReadsUnreadable {
        /// Label (or index) of the offending action.
        action: String,
        /// Name of the variable read illegally.
        var: String,
    },
    /// An action of process `p` writes a variable outside `w_p`.
    WritesUnwritable {
        /// Label (or index) of the offending action.
        action: String,
        /// Name of the variable written illegally.
        var: String,
    },
    /// An action assigns the same variable twice.
    DuplicateTarget {
        /// Label (or index) of the offending action.
        action: String,
        /// Name of the doubly-assigned variable.
        var: String,
    },
    /// An action can produce a value outside the target's domain.
    DomainOverflow {
        /// Label (or index) of the offending action.
        action: String,
        /// Name of the target variable.
        var: String,
        /// The out-of-domain value the right-hand side produced.
        value: i64,
    },
    /// The action's guard is not boolean-typed.
    GuardNotBool {
        /// Label (or index) of the offending action.
        action: String,
    },
    /// An action references a process index out of range.
    NoSuchProcess {
        /// Label (or index) of the offending action.
        action: String,
    },
    /// The product of the variable domains exceeds `u64` (or a domain is
    /// empty) — the instance cannot be represented.
    StateSpaceTooLarge,
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Type(m) => write!(f, "{m}"),
            ProtocolError::ReadsUnreadable { action, var } => {
                write!(f, "action {action}: reads unreadable variable {var}")
            }
            ProtocolError::WritesUnwritable { action, var } => {
                write!(f, "action {action}: writes unwritable variable {var}")
            }
            ProtocolError::DuplicateTarget { action, var } => {
                write!(f, "action {action}: assigns {var} twice")
            }
            ProtocolError::DomainOverflow { action, var, value } => {
                write!(f, "action {action}: may assign {value} to {var}, outside its domain")
            }
            ProtocolError::GuardNotBool { action } => {
                write!(f, "action {action}: guard is not boolean")
            }
            ProtocolError::NoSuchProcess { action } => {
                write!(f, "action {action}: process index out of range")
            }
            ProtocolError::StateSpaceTooLarge => {
                write!(f, "state space exceeds u64 (or a variable domain is empty)")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

/// A protocol `p = ⟨V_p, δ_p, Π_p, T_p⟩`: variables, guarded commands
/// (denoting δ_p), processes, and the read/write topology.
#[derive(Debug, Clone)]
pub struct Protocol {
    vars: Vec<VarDecl>,
    processes: Vec<ProcessDecl>,
    actions: Vec<Action>,
    space: StateSpace,
}

impl Protocol {
    /// Assemble and validate a protocol.
    ///
    /// Validation is *complete* yet cheap: because locality restricts every
    /// action to its process's readable variables, exhaustively enumerating
    /// the readable valuations (a small set, independent of `|S_p|`)
    /// suffices to prove that no reachable execution of any action
    /// overflows a domain.
    pub fn new(
        vars: Vec<VarDecl>,
        processes: Vec<ProcessDecl>,
        actions: Vec<Action>,
    ) -> Result<Self, ProtocolError> {
        let space = StateSpace::try_new(&vars).ok_or(ProtocolError::StateSpaceTooLarge)?;
        let p = Protocol { vars, processes, actions, space };
        p.validate()?;
        Ok(p)
    }

    fn action_name(&self, idx: usize) -> String {
        match &self.actions[idx].label {
            Some(l) => l.clone(),
            None => format!("#{idx}"),
        }
    }

    fn validate(&self) -> Result<(), ProtocolError> {
        for (idx, a) in self.actions.iter().enumerate() {
            let name = self.action_name(idx);
            let proc = self
                .processes
                .get(a.process.0)
                .ok_or_else(|| ProtocolError::NoSuchProcess { action: name.clone() })?;
            // Guard must be boolean; all expressions must typecheck.
            match a.guard.typecheck() {
                Ok(Ty::Bool) => {}
                Ok(Ty::Int) => return Err(ProtocolError::GuardNotBool { action: name }),
                Err(e) => return Err(ProtocolError::Type(format!("action {name}: {e}"))),
            }
            // Moduli must be nonzero constants *before* the domain-safety
            // loop below evaluates any expression.
            a.guard
                .validate_moduli()
                .map_err(|e| ProtocolError::Type(format!("action {name}: {e}")))?;
            for (_, rhs) in &a.assigns {
                rhs.validate_moduli()
                    .map_err(|e| ProtocolError::Type(format!("action {name}: {e}")))?;
            }
            for (t, rhs) in &a.assigns {
                match rhs.typecheck() {
                    Ok(Ty::Int) => {}
                    Ok(Ty::Bool) => {
                        return Err(ProtocolError::Type(format!(
                            "action {name}: boolean assigned to {}",
                            self.vars[t.0].name
                        )))
                    }
                    Err(e) => return Err(ProtocolError::Type(format!("action {name}: {e}"))),
                }
            }
            // Locality: reads ⊆ r_j, writes ⊆ w_j.
            for v in a.guard.vars() {
                if !proc.can_read(v) {
                    return Err(ProtocolError::ReadsUnreadable {
                        action: name,
                        var: self.vars[v.0].name.clone(),
                    });
                }
            }
            let mut targets: Vec<VarIdx> = Vec::new();
            for (t, rhs) in &a.assigns {
                if !proc.can_write(*t) {
                    return Err(ProtocolError::WritesUnwritable {
                        action: name,
                        var: self.vars[t.0].name.clone(),
                    });
                }
                if targets.contains(t) {
                    return Err(ProtocolError::DuplicateTarget {
                        action: name,
                        var: self.vars[t.0].name.clone(),
                    });
                }
                targets.push(*t);
                for v in rhs.vars() {
                    if !proc.can_read(v) {
                        return Err(ProtocolError::ReadsUnreadable {
                            action: name,
                            var: self.vars[v.0].name.clone(),
                        });
                    }
                }
            }
            // Domain safety over every readable valuation, each written in
            // place into one probe state (mixed radix over `r_j`).
            let mut probe: State = vec![0; self.vars.len()];
            let total: u64 = proc.reads.iter().map(|v| self.vars[v.0].domain as u64).product();
            for mut k in 0..total {
                for v in &proc.reads {
                    let radix = self.vars[v.0].domain as u64;
                    probe[v.0] = (k % radix) as u32;
                    k /= radix;
                }
                if !a.guard.holds(&probe) {
                    continue;
                }
                for (t, rhs) in &a.assigns {
                    let val = rhs.eval(&probe).as_int();
                    if val < 0 || val >= self.vars[t.0].domain as i64 {
                        return Err(ProtocolError::DomainOverflow {
                            action: name,
                            var: self.vars[t.0].name.clone(),
                            value: val,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// The variable declarations `V_p`.
    pub fn vars(&self) -> &[VarDecl] {
        &self.vars
    }

    /// The process declarations `Π_p` with their localities `T_p`.
    pub fn processes(&self) -> &[ProcessDecl] {
        &self.processes
    }

    /// The guarded commands denoting `δ_p`.
    pub fn actions(&self) -> &[Action] {
        &self.actions
    }

    /// Actions belonging to process `j`.
    pub fn actions_of(&self, j: ProcIdx) -> impl Iterator<Item = &Action> {
        self.actions.iter().filter(move |a| a.process == j)
    }

    /// The mixed-radix state-space codec.
    pub fn space(&self) -> &StateSpace {
        &self.space
    }

    /// Number of processes `k`.
    pub fn num_processes(&self) -> usize {
        self.processes.len()
    }

    /// Number of variables `N`.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Look up a variable by name.
    pub fn var_by_name(&self, name: &str) -> Option<VarIdx> {
        self.vars.iter().position(|v| v.name == name).map(VarIdx)
    }

    /// Look up a process by name.
    pub fn proc_by_name(&self, name: &str) -> Option<ProcIdx> {
        self.processes.iter().position(|p| p.name == name).map(ProcIdx)
    }

    /// The variables process `j` cannot read (the complement of `r_j`),
    /// sorted ascending — these induce the transition groups.
    pub fn unreadable(&self, j: ProcIdx) -> Vec<VarIdx> {
        let proc = &self.processes[j.0];
        (0..self.vars.len()).map(VarIdx).filter(|v| !proc.can_read(*v)).collect()
    }

    /// Successor states of `state` under all actions (δ_p image of a
    /// single state). Duplicates are removed; a self-loop appears as the
    /// state itself if some enabled action leaves the state unchanged.
    pub fn successors(&self, state: &State) -> Vec<State> {
        let domains: Vec<u32> = self.vars.iter().map(|v| v.domain).collect();
        let mut out: Vec<State> = Vec::new();
        for a in &self.actions {
            if let Some(next) = a.apply(state, &domains) {
                if !out.contains(&next) {
                    out.push(next);
                }
            }
        }
        out
    }

    /// Replace the action set wholesale (used by the synthesizer when
    /// materializing `p_ss` from `p` plus recovery actions). The new
    /// actions are validated against the existing topology.
    pub fn with_actions(&self, actions: Vec<Action>) -> Result<Protocol, ProtocolError> {
        Protocol::new(self.vars.clone(), self.processes.clone(), actions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;

    /// The paper's 4-process token ring with domain {0,1,2}.
    fn token_ring() -> Protocol {
        let vars: Vec<VarDecl> = (0..4).map(|i| VarDecl::new(format!("x{i}"), 3)).collect();
        let mut processes = Vec::new();
        let mut actions = Vec::new();
        for j in 0..4usize {
            let prev = if j == 0 { 3 } else { j - 1 };
            processes.push(
                ProcessDecl::new(format!("P{j}"), vec![VarIdx(prev), VarIdx(j)], vec![VarIdx(j)])
                    .unwrap(),
            );
            let xj = Expr::var(VarIdx(j));
            let xprev = Expr::var(VarIdx(prev));
            let (guard, rhs) = if j == 0 {
                (xj.clone().eq(xprev.clone()), xprev.clone().add(Expr::int(1)).modulo(Expr::int(3)))
            } else {
                (xj.clone().add(Expr::int(1)).modulo(Expr::int(3)).eq(xprev.clone()), xprev.clone())
            };
            actions.push(Action::labeled(
                format!("A{j}"),
                ProcIdx(j),
                guard,
                vec![(VarIdx(j), rhs)],
            ));
        }
        Protocol::new(vars, processes, actions).unwrap()
    }

    #[test]
    fn token_ring_builds_and_steps() {
        let p = token_ring();
        assert_eq!(p.space().size(), 81);
        assert_eq!(p.num_processes(), 4);
        // From ⟨1,0,0,0⟩, only P1 holds the token: x1+1 == x0.
        let succs = p.successors(&vec![1, 0, 0, 0]);
        assert_eq!(succs, vec![vec![1, 1, 0, 0]]);
        // From the all-equal state, only P0 moves.
        let succs0 = p.successors(&vec![2, 2, 2, 2]);
        assert_eq!(succs0, vec![vec![0, 2, 2, 2]]);
    }

    #[test]
    fn deadlock_state_has_no_successors() {
        let p = token_ring();
        // The paper: ⟨0,0,1,2⟩ is a deadlock state of the non-stabilizing TR.
        assert!(p.successors(&vec![0, 0, 1, 2]).is_empty());
    }

    #[test]
    fn unreadable_complement() {
        let p = token_ring();
        assert_eq!(p.unreadable(ProcIdx(1)), vec![VarIdx(2), VarIdx(3)]);
        assert_eq!(p.unreadable(ProcIdx(0)), vec![VarIdx(1), VarIdx(2)]);
    }

    #[test]
    fn rejects_unreadable_guard() {
        let vars = vec![VarDecl::new("a", 2), VarDecl::new("b", 2)];
        let procs = vec![ProcessDecl::new("P0", vec![VarIdx(0)], vec![VarIdx(0)]).unwrap()];
        let bad = Action::new(
            ProcIdx(0),
            Expr::var(VarIdx(1)).eq(Expr::int(0)), // reads b, unreadable
            vec![(VarIdx(0), Expr::int(1))],
        );
        let err = Protocol::new(vars, procs, vec![bad]).unwrap_err();
        assert!(matches!(err, ProtocolError::ReadsUnreadable { .. }));
    }

    #[test]
    fn rejects_unwritable_target() {
        let vars = vec![VarDecl::new("a", 2), VarDecl::new("b", 2)];
        let procs =
            vec![ProcessDecl::new("P0", vec![VarIdx(0), VarIdx(1)], vec![VarIdx(0)]).unwrap()];
        let bad = Action::new(ProcIdx(0), Expr::Bool(true), vec![(VarIdx(1), Expr::int(0))]);
        let err = Protocol::new(vars, procs, vec![bad]).unwrap_err();
        assert!(matches!(err, ProtocolError::WritesUnwritable { .. }));
    }

    #[test]
    fn rejects_domain_overflow() {
        let vars = vec![VarDecl::new("a", 3)];
        let procs = vec![ProcessDecl::new("P0", vec![VarIdx(0)], vec![VarIdx(0)]).unwrap()];
        // a := a + 1 overflows when a == 2.
        let bad = Action::new(
            ProcIdx(0),
            Expr::Bool(true),
            vec![(VarIdx(0), Expr::var(VarIdx(0)).add(Expr::int(1)))],
        );
        let err = Protocol::new(vars, procs, vec![bad]).unwrap_err();
        assert!(matches!(err, ProtocolError::DomainOverflow { value: 3, .. }));
    }

    #[test]
    fn guarded_overflow_is_fine() {
        let vars = vec![VarDecl::new("a", 3)];
        let procs = vec![ProcessDecl::new("P0", vec![VarIdx(0)], vec![VarIdx(0)]).unwrap()];
        // Guard protects the increment.
        let ok = Action::new(
            ProcIdx(0),
            Expr::var(VarIdx(0)).lt(Expr::int(2)),
            vec![(VarIdx(0), Expr::var(VarIdx(0)).add(Expr::int(1)))],
        );
        assert!(Protocol::new(vars, procs, vec![ok]).is_ok());
    }

    #[test]
    fn rejects_int_guard_and_bool_rhs() {
        let vars = vec![VarDecl::new("a", 2)];
        let procs = vec![ProcessDecl::new("P0", vec![VarIdx(0)], vec![VarIdx(0)]).unwrap()];
        let g = Action::new(ProcIdx(0), Expr::int(1), vec![]);
        assert!(matches!(
            Protocol::new(vars.clone(), procs.clone(), vec![g]).unwrap_err(),
            ProtocolError::GuardNotBool { .. }
        ));
        let r = Action::new(ProcIdx(0), Expr::Bool(true), vec![(VarIdx(0), Expr::Bool(false))]);
        assert!(matches!(Protocol::new(vars, procs, vec![r]).unwrap_err(), ProtocolError::Type(_)));
    }

    #[test]
    fn lookups_by_name() {
        let p = token_ring();
        assert_eq!(p.var_by_name("x2"), Some(VarIdx(2)));
        assert_eq!(p.proc_by_name("P3"), Some(ProcIdx(3)));
        assert_eq!(p.var_by_name("nope"), None);
    }
}
