//! Property tests: every model-checking verdict of the symbolic engine —
//! closure, deadlocks, strong convergence, weak convergence — agrees with
//! the explicit-state oracle on randomly generated protocols *with*
//! actions (the cross-crate suite in `tests/properties.rs` covers the
//! synthesis pipeline; this one stresses the checkers directly).

// Property tests need the external `proptest` crate, which is not
// available offline; opt in with `--features proptest` after restoring the
// dev-dependency (see Cargo.toml).
#![cfg(feature = "proptest")]

use proptest::prelude::*;
use stsyn_protocol::action::Action;
use stsyn_protocol::explicit::{check_convergence, is_closed, predicate_states, ExplicitGraph};
use stsyn_protocol::expr::Expr;
use stsyn_protocol::topology::{ProcIdx, ProcessDecl, VarDecl, VarIdx};
use stsyn_protocol::Protocol;
use stsyn_symbolic::check::{closure_holds, deadlock_states, strong_convergence, weak_convergence};
use stsyn_symbolic::SymbolicContext;

#[derive(Debug, Clone)]
struct Spec {
    domains: Vec<u32>,
    localities: Vec<(u8, u8)>,
    actions: Vec<(usize, Vec<(usize, u32)>, usize, Option<usize>, u32)>,
    invariant: Vec<Vec<(usize, u32)>>,
}

fn build(spec: &Spec) -> Option<(Protocol, Expr)> {
    let nvars = spec.domains.len();
    let vars: Vec<VarDecl> =
        spec.domains.iter().enumerate().map(|(i, &d)| VarDecl::new(format!("v{i}"), d)).collect();
    let mut procs = Vec::new();
    for (j, &(rmask, wmask)) in spec.localities.iter().enumerate() {
        let reads: Vec<VarIdx> = (0..nvars).filter(|i| rmask >> i & 1 == 1).map(VarIdx).collect();
        let writes: Vec<VarIdx> =
            (0..nvars).filter(|i| (wmask & rmask) >> i & 1 == 1).map(VarIdx).collect();
        if reads.is_empty() || writes.is_empty() {
            return None;
        }
        procs.push(ProcessDecl::new(format!("P{j}"), reads, writes).ok()?);
    }
    let mut actions = Vec::new();
    for (pj, guard_lits, wslot, src, val) in &spec.actions {
        let pj = pj % procs.len();
        let proc = &procs[pj];
        let guard = Expr::conj(
            guard_lits
                .iter()
                .map(|&(slot, v)| {
                    let var = proc.reads[slot % proc.reads.len()];
                    Expr::var(var).eq(Expr::int((v % spec.domains[var.0]) as i64))
                })
                .collect(),
        );
        let target = proc.writes[wslot % proc.writes.len()];
        let d = spec.domains[target.0] as i64;
        let rhs = match src {
            Some(rslot) => {
                let from = proc.reads[rslot % proc.reads.len()];
                Expr::var(from).modulo(Expr::int(d))
            }
            None => Expr::int((*val as i64) % d),
        };
        actions.push(Action::new(ProcIdx(pj), guard, vec![(target, rhs)]));
    }
    let invariant = Expr::disj(
        spec.invariant
            .iter()
            .map(|conj| {
                Expr::conj(
                    conj.iter()
                        .map(|&(vi, val)| {
                            let vi = vi % nvars;
                            Expr::var(VarIdx(vi)).eq(Expr::int((val % spec.domains[vi]) as i64))
                        })
                        .collect(),
                )
            })
            .collect(),
    );
    let p = Protocol::new(vars, procs, actions).ok()?;
    Some((p, invariant))
}

fn arb_spec() -> impl Strategy<Value = Spec> {
    (
        proptest::collection::vec(2u32..=3, 2..=3),
        proptest::collection::vec((1u8..8, 1u8..8), 1..=3),
        proptest::collection::vec(
            (
                0usize..3,
                proptest::collection::vec((0usize..3, 0u32..3), 0..=2),
                0usize..3,
                proptest::option::of(0usize..3),
                0u32..3,
            ),
            0..=8,
        ),
        proptest::collection::vec(proptest::collection::vec((0usize..3, 0u32..3), 1..=2), 1..=2),
    )
        .prop_map(|(domains, localities, actions, invariant)| Spec {
            domains,
            localities,
            actions,
            invariant,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn verdicts_match_explicit_oracle(spec in arb_spec()) {
        let Some((p, i_expr)) = build(&spec) else { return Ok(()); };
        let mut ctx = SymbolicContext::new(p.clone());
        let t = ctx.protocol_relation();
        let i = ctx.compile(&i_expr);

        // Closure.
        prop_assert_eq!(closure_holds(&mut ctx, t, i), is_closed(&p, &i_expr));

        // Deadlocks outside I (set equality via counting + membership).
        let dead_sym = deadlock_states(&mut ctx, t, i);
        let graph = ExplicitGraph::of_protocol(&p);
        let i_set = predicate_states(&p, &i_expr);
        let mut dead_exp = graph.deadlocks();
        dead_exp.intersect_with(&i_set.complement());
        prop_assert_eq!(ctx.count_states(dead_sym) as usize, dead_exp.count());
        for sid in dead_exp.iter() {
            let s = p.space().decode(sid);
            let cube = ctx.singleton(&s);
            prop_assert!(!ctx.mgr().and(cube, dead_sym).is_false(), "missing deadlock {s:?}");
        }

        // Strong and weak convergence. (With an empty I both engines
        // agree vacuously: a finite deadlock-free graph must contain a
        // cycle, so "strongly converges to ∅" is false on both sides.)
        let report = check_convergence(&p, &i_expr);
        prop_assert_eq!(strong_convergence(&mut ctx, t, i).holds, report.strongly_converges());
        prop_assert_eq!(weak_convergence(&mut ctx, t, i).holds, report.weakly_converges());
    }

    #[test]
    fn trace_extraction_agrees_with_reachability(spec in arb_spec()) {
        let Some((p, i_expr)) = build(&spec) else { return Ok(()); };
        let mut ctx = SymbolicContext::new(p.clone());
        let t = ctx.protocol_relation();
        let i = ctx.compile(&i_expr);
        let graph = ExplicitGraph::of_protocol(&p);
        let i_set = predicate_states(&p, &i_expr);
        if i_set.count() == 0 { return Ok(()); }
        let ranks = graph.backward_ranks(&i_set);
        for (sid, s) in p.space().states().enumerate() {
            let trace = ctx.recovery_trace(t, &s, i);
            match trace {
                Some(path) => {
                    // Shortest: length-1 equals the BFS rank.
                    prop_assert_eq!(path.len() as u32 - 1, ranks[sid], "state {:?}", s);
                    // Each step is a real transition; ends in I.
                    prop_assert!(i_expr.holds(path.last().unwrap()));
                    for w in path.windows(2) {
                        prop_assert!(
                            p.successors(&w[0]).contains(&w[1]),
                            "bogus step {:?} → {:?}",
                            w[0],
                            w[1]
                        );
                    }
                }
                None => prop_assert_eq!(ranks[sid], u32::MAX, "state {:?}", s),
            }
        }
    }
}
