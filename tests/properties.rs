//! Differential tests of the paper's two guarantees, and of the symbolic
//! engine beneath them, on small random protocols checked against the
//! explicit-state engine (`stsyn_protocol::explicit`):
//! - ComputeRanks' layers equal explicit backward BFS, and the weak
//!   verdict equals explicit reachability under `p_im` (Thm IV.1);
//! - every protocol the heuristic returns verifies strongly stabilizing,
//!   symbolically and explicitly, under every schedule (Thm V.2);
//! - the cycle check, asked with one group per transition, marks exactly
//!   the transitions inside Tarjan's SCCs and builds exactly its
//!   non-trivial SCCs;
//! - closure, deadlock, strong and weak verdicts equal
//!   `check_convergence`, and `recovery_trace` is a shortest real path;
//! - the DSL printer and parser keep a protocol's semantics and names.
//!
//! Every instance comes from one seeded generator, [`random_protocol`].
//! `PROPERTY_SEEDS` sets the number of seeds per property (default 200);
//! CI runs a wider sweep in release mode. Every failure names its seed.

use stsyn_repro::bdd::Bdd;
use stsyn_repro::protocol::action::Action;
use stsyn_repro::protocol::dsl;
use stsyn_repro::protocol::explicit::{
    check_convergence, is_closed, predicate_states, ExplicitGraph, StateSet,
};
use stsyn_repro::protocol::group::all_groups_of;
use stsyn_repro::protocol::printer::to_dsl;
use stsyn_repro::protocol::sim::SimRng;
use stsyn_repro::protocol::topology::{ProcessDecl, VarDecl};
use stsyn_repro::protocol::{Expr, ProcIdx, Protocol, StateId, VarIdx};
use stsyn_repro::symbolic::check::{
    closure_holds, deadlock_states, strong_convergence, weak_convergence,
};
use stsyn_repro::symbolic::scc::cyclic_groups;
use stsyn_repro::symbolic::{compute_ranks, SymbolicContext};
use stsyn_repro::synth::{AddConvergence, Options, Outcome, Schedule, SynthesisError};

const DEFAULT_SEEDS: u64 = 200;

fn seeds() -> u64 {
    std::env::var("PROPERTY_SEEDS").ok().and_then(|s| s.parse().ok()).unwrap_or(DEFAULT_SEEDS)
}

const NAMES: [&str; 3] = ["red", "green", "blue"];

/// A random protocol and invariant: 2–3 variables of domain 2–3, each
/// named by value with probability 1/2; 1–3 processes with `w ⊆ r`; up to
/// `max_actions` guarded commands of up to two guard literals over the
/// process's reads, assigning one written variable a constant or a read
/// variable modulo its domain; and an invariant that is a disjunction of
/// one or two conjunctions of one or two `var == val` literals.
fn random_protocol(seed: u64, max_actions: usize) -> (Protocol, Expr) {
    let mut rng = SimRng::new(seed);
    let mut below = |n: usize| rng.gen_below(n as u64) as usize;
    let nvars = 2 + below(2);
    let domains: Vec<u32> = (0..nvars).map(|_| 2 + below(2) as u32).collect();
    let mut vars = Vec::new();
    for (i, &d) in domains.iter().enumerate() {
        vars.push(if below(2) == 0 {
            VarDecl::with_names(format!("v{i}"), &NAMES[..d as usize])
        } else {
            VarDecl::new(format!("v{i}"), d)
        });
    }
    let of_mask = |mask: usize| (0..nvars).filter(|i| mask >> i & 1 == 1).map(VarIdx).collect();
    let mut procs = Vec::new();
    for j in 0..1 + below(3) {
        let reads = 1 + below((1 << nvars) - 1);
        let writes = loop {
            let w = reads & below(1 << nvars);
            if w != 0 {
                break w;
            }
        };
        procs.push(ProcessDecl::new(format!("P{j}"), of_mask(reads), of_mask(writes)).unwrap());
    }
    let literal = |v: VarIdx, val: usize| Expr::var(v).eq(Expr::int(val as i64));
    let mut actions = Vec::new();
    for _ in 0..below(max_actions + 1) {
        let j = below(procs.len());
        let (reads, writes) = (&procs[j].reads, &procs[j].writes);
        let mut guard = Vec::new();
        for _ in 0..below(3) {
            let v = reads[below(reads.len())];
            guard.push(literal(v, below(domains[v.0] as usize)));
        }
        let target = writes[below(writes.len())];
        let d = Expr::int(domains[target.0] as i64);
        let rhs = match below(2) {
            0 => Expr::var(reads[below(reads.len())]).modulo(d),
            _ => Expr::int(below(domains[target.0] as usize) as i64),
        };
        actions.push(Action::new(ProcIdx(j), Expr::conj(guard), vec![(target, rhs)]));
    }
    let mut disjuncts = Vec::new();
    for _ in 0..1 + below(2) {
        let mut conj = Vec::new();
        for _ in 0..1 + below(2) {
            let v = VarIdx(below(nvars));
            conj.push(literal(v, below(domains[v.0] as usize)));
        }
        disjuncts.push(Expr::conj(conj));
    }
    let p = Protocol::new(vars, procs, actions).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    (p, Expr::disj(disjuncts))
}

/// Run `check` on the random protocol of every seed. Its first argument
/// names the seed, for every assertion message.
fn for_each_protocol(max_actions: usize, mut check: impl FnMut(&str, Protocol, Expr)) {
    for seed in 0..seeds() {
        let (p, i) = random_protocol(seed, max_actions);
        check(&format!("seed {seed} (rerun: PROPERTY_SEEDS={})", seed + 1), p, i);
    }
}

/// The states that cannot reach `I` under `p_im`, counted explicitly for
/// a protocol without actions: `p_im` holds every transition of every
/// group that is no self-loop and has no member starting in `I` (C1).
fn explicit_p_im_unreachable(p: &Protocol, i_expr: &Expr) -> usize {
    let i_set = predicate_states(p, i_expr);
    let mut edges = Vec::new();
    for j in 0..p.num_processes() {
        for g in all_groups_of(p, ProcIdx(j)) {
            let transitions = g.transitions(p);
            if !g.is_self_loop(p) && transitions.iter().all(|&(s0, _)| !i_set.contains(s0)) {
                edges.extend(transitions);
            }
        }
    }
    let graph = ExplicitGraph::from_edges(p.space().size() as usize, edges);
    graph.backward_ranks(&i_set).iter().filter(|&&r| r == u32::MAX).count()
}

/// Thm V.2 on one outcome: it verifies strongly stabilizing symbolically,
/// keeps `δ|I`, and its extracted protocol converges explicitly.
fn assert_strongly_stabilizing(case: &str, mut outcome: Outcome, i_expr: &Expr) {
    assert!(outcome.verify_strong(), "{case}: symbolic verification failed");
    assert!(outcome.preserves_i_behavior(), "{case}: δ|I changed");
    let report = check_convergence(&outcome.extract_protocol(), i_expr);
    assert!(report.strongly_converges(), "{case}: explicit verification failed");
}

#[test]
fn symbolic_ranks_match_explicit_bfs() {
    for_each_protocol(6, |case, p, i_expr| {
        let explicit =
            ExplicitGraph::of_protocol(&p).backward_ranks(&predicate_states(&p, &i_expr));
        let mut ctx = SymbolicContext::new(p.clone());
        let t = ctx.protocol_relation();
        let i = ctx.compile(&i_expr);
        let table = compute_ranks(&mut ctx, t, i);
        for (id, s) in p.space().states().enumerate() {
            let cube = ctx.state_cube(&s);
            let rank = (0..=table.max_rank())
                .find(|&r| ctx.mgr().intersects(cube, table.rank(r)))
                .map_or(u32::MAX, |r| r as u32);
            assert_eq!(rank, explicit[id], "{case}: rank of {s:?}");
            let infinite = ctx.mgr().intersects(cube, table.infinite);
            assert_eq!(infinite, explicit[id] == u32::MAX, "{case}: rank ∞ of {s:?}");
        }
    });
}

#[test]
fn symbolic_sccs_match_tarjan() {
    for_each_protocol(8, |case, p, _| {
        let graph = ExplicitGraph::of_protocol(&p);
        let (comp, ncomp) = graph.tarjan_scc();
        let mut members: Vec<Vec<StateId>> = vec![Vec::new(); ncomp];
        for (s, &c) in comp.iter().enumerate() {
            members[c as usize].push(s as StateId);
        }
        let mut explicit: Vec<Vec<StateId>> = members
            .into_iter()
            .filter(|m| m.len() > 1 || graph.successors(m[0]).contains(&(m[0] as u32)))
            .collect();
        explicit.sort();

        // One group per explicit transition: every cyclic one is decided
        // inside its own SCC, so the check builds every non-trivial SCC.
        let edges: Vec<(StateId, StateId)> = (0..graph.num_states() as StateId)
            .flat_map(|s| graph.successors(s).iter().map(move |&t| (s, StateId::from(t))))
            .collect();
        let mut ctx = SymbolicContext::new(p.clone());
        let t = ctx.protocol_relation();
        let all = ctx.all_states();
        let to_primed = ctx.cur_to_primed();
        let groups: Vec<Bdd> = edges
            .iter()
            .map(|&(s, t)| {
                let src = ctx.state_cube(&p.space().decode(s));
                let dst = ctx.state_cube(&p.space().decode(t));
                let dst = ctx.mgr().rename(dst, to_primed);
                ctx.mgr().and(src, dst)
            })
            .collect();
        let check = cyclic_groups(&mut ctx, t, all, &groups);
        for (&(s, t), &cyclic) in edges.iter().zip(&check.cyclic) {
            // An edge with both ends in one SCC makes that SCC non-trivial.
            let expected = comp[s as usize] == comp[t as usize];
            assert_eq!(cyclic, expected, "{case}: edge {s} -> {t}");
        }
        let mut symbolic: Vec<Vec<StateId>> = check
            .sccs
            .iter()
            .map(|&scc| {
                let mut states = Vec::new();
                for (id, s) in p.space().states().enumerate() {
                    let cube = ctx.state_cube(&s);
                    if ctx.mgr().intersects(cube, scc) {
                        states.push(id as StateId);
                    }
                }
                states
            })
            .collect();
        symbolic.sort();
        assert_eq!(symbolic, explicit, "{case}: SCCs built");
    });
}

#[test]
fn synthesis_outcomes_verify_symbolically_and_explicitly() {
    // Without actions `I` is closed, so every instance with a non-empty
    // `I` is a valid Problem III.1 input.
    for_each_protocol(0, |case, p, i_expr| {
        let i_states = predicate_states(&p, &i_expr).count();
        let problem = AddConvergence::new(p.clone(), i_expr.clone()).unwrap();
        match problem.synthesize(&Options::default()) {
            Ok(outcome) => assert_strongly_stabilizing(case, outcome, &i_expr),
            Err(SynthesisError::EmptyInvariant) => assert_eq!(i_states, 0, "{case}"),
            Err(SynthesisError::NoStabilizingVersion { unreachable_states }) => {
                assert!(i_states > 0, "{case}: empty I must raise EmptyInvariant");
                let explicit = explicit_p_im_unreachable(&p, &i_expr);
                assert!(explicit > 0, "{case}: the explicit p_im reaches I from everywhere");
                assert_eq!(unreachable_states, explicit as f64, "{case}: unreachable states");
            }
            // The heuristic is incomplete, but it only gives up once
            // ComputeRanks has ranked every state.
            Err(SynthesisError::DeadlocksRemain { .. }) => {
                assert_eq!(explicit_p_im_unreachable(&p, &i_expr), 0, "{case}");
            }
            Err(e) => panic!("{case}: unexpected error: {e}"),
        }
    });
}

#[test]
fn weak_verdict_matches_explicit_reachability() {
    for_each_protocol(0, |case, p, i_expr| {
        let i_states = predicate_states(&p, &i_expr).count();
        let problem = AddConvergence::new(p.clone(), i_expr.clone()).unwrap();
        match problem.synthesize_weak() {
            Ok(mut outcome) => {
                assert_eq!(explicit_p_im_unreachable(&p, &i_expr), 0, "{case}: weak verdict");
                assert!(outcome.verify_weak(), "{case}: symbolic verification failed");
                assert!(outcome.preserves_i_behavior(), "{case}: δ|I changed");
                let report = check_convergence(&outcome.extract_protocol(), &i_expr);
                assert!(report.weakly_converges(), "{case}: explicit verification failed");
            }
            Err(SynthesisError::EmptyInvariant) => assert_eq!(i_states, 0, "{case}"),
            Err(SynthesisError::NoStabilizingVersion { unreachable_states }) => {
                let explicit = explicit_p_im_unreachable(&p, &i_expr);
                assert!(explicit > 0, "{case}: weak verdict");
                assert_eq!(unreachable_states, explicit as f64, "{case}: unreachable states");
            }
            Err(e) => panic!("{case}: unexpected error: {e}"),
        }
    });
}

#[test]
fn schedules_never_affect_soundness() {
    for_each_protocol(0, |case, p, i_expr| {
        let k = p.num_processes();
        let problem = AddConvergence::new(p, i_expr.clone()).unwrap();
        for schedule in Schedule::all_rotations(k) {
            let label = format!("{case}, schedule {:?}", schedule.order());
            if let Ok(outcome) = problem.synthesize_with(&Options::default(), schedule) {
                assert_strongly_stabilizing(&label, outcome, &i_expr);
            }
        }
    });
}

#[test]
fn verdicts_match_explicit_oracle() {
    for_each_protocol(8, |case, p, i_expr| {
        let mut ctx = SymbolicContext::new(p.clone());
        let t = ctx.protocol_relation();
        let i = ctx.compile(&i_expr);
        assert_eq!(closure_holds(&mut ctx, t, i), is_closed(&p, &i_expr), "{case}: closure");

        // Deadlocks outside I: equal counts, and every explicit one found.
        let dead = deadlock_states(&mut ctx, t, i);
        let mut explicit_dead = ExplicitGraph::of_protocol(&p).deadlocks();
        explicit_dead.intersect_with(&predicate_states(&p, &i_expr).complement());
        assert_eq!(ctx.count_states(dead) as usize, explicit_dead.count(), "{case}: deadlocks");
        for sid in explicit_dead.iter() {
            let s = p.space().decode(sid);
            let cube = ctx.singleton(&s);
            assert!(ctx.mgr().intersects(cube, dead), "{case}: missing deadlock {s:?}");
        }

        // With an empty I both engines agree vacuously: a finite
        // deadlock-free graph has a cycle, so neither converges to ∅.
        let report = check_convergence(&p, &i_expr);
        let strong = strong_convergence(&mut ctx, t, i);
        assert_eq!(strong, report.strongly_converges(), "{case}: strong convergence");
        let weak = weak_convergence(&mut ctx, t, i);
        assert_eq!(weak, report.weakly_converges(), "{case}: weak convergence");
    });
}

#[test]
fn recovery_trace_is_shortest_and_real() {
    for_each_protocol(8, |case, p, i_expr| {
        let i_set = predicate_states(&p, &i_expr);
        let ranks = ExplicitGraph::of_protocol(&p).backward_ranks(&i_set);
        let mut ctx = SymbolicContext::new(p.clone());
        let t = ctx.protocol_relation();
        let i = ctx.compile(&i_expr);
        for (sid, s) in p.space().states().enumerate() {
            match ctx.recovery_trace(t, &s, i) {
                Some(path) => {
                    assert_eq!(path.len() as u32 - 1, ranks[sid], "{case}: trace from {s:?}");
                    assert!(i_expr.holds(path.last().unwrap()), "{case}: trace from {s:?}");
                    for w in path.windows(2) {
                        let real = p.successors(&w[0]).contains(&w[1]);
                        assert!(real, "{case}: bogus step {:?} → {:?}", w[0], w[1]);
                    }
                }
                None => assert_eq!(ranks[sid], u32::MAX, "{case}: no trace from {s:?}"),
            }
        }
    });
}

#[test]
fn dsl_round_trip_keeps_semantics_and_names() {
    for_each_protocol(8, |case, p, i| {
        let text = to_dsl("RoundTrip", &p, &i);
        let reparsed =
            dsl::parse(&text).unwrap_or_else(|e| panic!("{case}: re-parse failed: {e}\n{text}"));
        let q = &reparsed.protocol;
        assert_eq!(q.vars(), p.vars(), "{case}: declarations\n{text}");
        assert_eq!(q.processes(), p.processes(), "{case}: processes\n{text}");
        for s in p.space().states() {
            let (mut a, mut b) = (p.successors(&s), q.successors(&s));
            a.sort();
            b.sort();
            assert_eq!(a, b, "{case}: successors of {s:?}\n{text}");
            let (ia, ib) = (i.holds(&s), reparsed.invariant.holds(&s));
            assert_eq!(ia, ib, "{case}: invariant at {s:?}\n{text}");
        }
        // The parser reads a value name and its index alike, so only the
        // text shows whether a named value was printed by name.
        for v in p.vars().iter().filter(|v| v.value_names.is_some()) {
            let by_index = text
                .match_indices(&format!("{} == ", v.name))
                .any(|(at, m)| text[at + m.len()..].starts_with(|c: char| c.is_ascii_digit()));
            assert!(!by_index, "{case}: a value of {} printed by index\n{text}", v.name);
        }
    });
}

#[test]
fn stateset_iter_roundtrip() {
    // Deterministic sanity for the helper the properties lean on.
    let mut s = StateSet::empty(100);
    for id in [0u64, 63, 64, 99] {
        s.insert(id);
    }
    let collected: Vec<u64> = s.iter().collect();
    assert_eq!(collected, vec![0, 63, 64, 99]);
}
