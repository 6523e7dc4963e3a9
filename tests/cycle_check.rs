//! Differential tests of the symbolic cycle checks
//! (`stsyn_symbolic::scc::{cyclic_groups, try_cyclic_added_groups}`)
//! against explicit Tarjan, and of the invariant the second one rests on.
//!
//! For each case study a seeded random subset of the candidate recovery
//! groups is chosen. Two relations are asked about, both restricted to
//! `¬I`:
//! - `δ_p` plus the chosen groups, with the groups of `δ_p` (what
//!   preprocessing asks) and the chosen groups bundled into random
//!   clusters of one to three (what badTrans asks);
//! - an acyclic base plus added clusters, the shape badTrans sees. The base
//!   is `δ_p` plus half of the chosen groups, less every group with a
//!   transition inside an SCC. The clusters come from the other half.
//!
//! A group's verdict must equal "some transition of the group has both
//! ends in one SCC of the explicit graph". Every SCC the check reports
//! must be a non-trivial SCC of that graph, state for state. A third sweep
//! repeats the second under a node ceiling that makes the check collect
//! garbage mid-run.
//!
//! `CYCLE_CHECK_SEEDS` sets the number of seeds per instance (default 12);
//! CI runs a wider sweep in release mode.

use stsyn_repro::bdd::{Bdd, Budget};
use stsyn_repro::cases::{coloring, matching, mis, token_ring, two_ring};
use stsyn_repro::protocol::explicit::{predicate_states, ExplicitGraph};
use stsyn_repro::protocol::group::{groups_of_protocol, GroupDesc};
use stsyn_repro::protocol::sim::SimRng;
use stsyn_repro::protocol::{Expr, Protocol, StateId};
use stsyn_repro::symbolic::scc::{cyclic_groups, try_cyclic_added_groups, try_reaches_back};
use stsyn_repro::symbolic::SymbolicContext;
use stsyn_repro::synth::candidates::CandidateSet;
use stsyn_repro::synth::symmetry::Symmetry;
use stsyn_repro::synth::{AddConvergence, Options, Schedule};

const DEFAULT_SEEDS: u64 = 12;

fn seeds() -> u64 {
    std::env::var("CYCLE_CHECK_SEEDS").ok().and_then(|s| s.parse().ok()).unwrap_or(DEFAULT_SEEDS)
}

fn instances() -> Vec<(&'static str, (Protocol, Expr))> {
    vec![
        ("coloring(5)", coloring::coloring(5)),
        ("matching(5)", matching::matching(5)),
        ("token_ring(4,4)", token_ring::token_ring(4, 4)),
        ("mis(4)", mis::mis(4)),
        ("mis(5)", mis::mis(5)),
        ("two_ring(2,3)", two_ring::two_ring(2, 3)),
    ]
}

/// One group asked about: its relation and its explicit transitions.
struct Group {
    rel: Bdd,
    edges: Vec<(StateId, StateId)>,
}

fn group(ctx: &mut SymbolicContext, p: &Protocol, members: &[&GroupDesc]) -> Group {
    let mut rel = Bdd::FALSE;
    let mut edges = Vec::new();
    for g in members {
        let r = ctx.group_relation(g);
        rel = ctx.mgr().or(rel, r);
        edges.extend(g.transitions(p));
    }
    Group { rel, edges }
}

/// Which relation a sweep asks about.
#[derive(Clone, Copy, PartialEq)]
enum Shape {
    /// `δ_p` plus chosen groups, through `cyclic_groups`.
    Any,
    /// An acyclic base plus added clusters, through
    /// `try_cyclic_added_groups`.
    AcyclicBase,
}

/// What a sweep saw.
#[derive(Default)]
struct Tally {
    cyclic: usize,
    acyclic: usize,
    sccs: usize,
    /// Pretest answers (`AcyclicBase` only): reached a source, or not.
    reached: usize,
    not_reached: usize,
    /// Collections the node ceiling forced inside the checks.
    gc_runs: usize,
}

impl Tally {
    fn add(&mut self, t: Tally) {
        self.cyclic += t.cyclic;
        self.acyclic += t.acyclic;
        self.sccs += t.sccs;
        self.reached += t.reached;
        self.not_reached += t.not_reached;
        self.gc_runs += t.gc_runs;
    }
}

/// The explicit graph of `edges` split by Tarjan: each state's component
/// and, per component, whether it has an internal transition.
fn components(n: usize, edges: &[(StateId, StateId)]) -> (Vec<u32>, Vec<bool>) {
    let (comp, ncomp) = ExplicitGraph::from_edges(n, edges.to_vec()).tarjan_scc();
    let mut nontrivial = vec![false; ncomp];
    for &(s, t) in edges {
        if comp[s as usize] == comp[t as usize] {
            nontrivial[comp[s as usize] as usize] = true;
        }
    }
    (comp, nontrivial)
}

/// Run `seeds` random checks of one shape on one instance, each compared
/// with Tarjan; under `ceiling`, with that many live nodes at most.
fn sweep(name: &str, (p, inv): (Protocol, Expr), shape: Shape, ceiling: Option<usize>) -> Tally {
    let mut tally = Tally::default();
    let mut ctx = SymbolicContext::new(p.clone());
    let i = ctx.compile(&inv);
    let not_i = ctx.not_states(i);
    let delta_p = ctx.protocol_relation();
    let cands = CandidateSet::build(&mut ctx, i);
    if let Some(max) = ceiling {
        ctx.set_budget(&Budget::unlimited().with_max_nodes(max));
        let mut roots = cands.roots();
        roots.extend([i, not_i, delta_p]);
        ctx.register_roots(&roots);
    }
    let n = p.space().size() as usize;
    let in_i = predicate_states(&p, &inv);
    let outside = |&(s, t): &(StateId, StateId)| !in_i.contains(s) && !in_i.contains(t);
    let dp_groups = groups_of_protocol(&p);

    for seed in 0..seeds() {
        let mut rng = SimRng::new(seed);
        // Between 1/8 and 1/2 of the candidates, by seed.
        let density = seed % 4 + 1;
        let mut chosen: Vec<&GroupDesc> =
            cands.all.iter().filter(|_| rng.gen_below(8) < density).map(|c| &c.desc).collect();
        for k in (1..chosen.len()).rev() {
            chosen.swap(k, rng.gen_below(k as u64 + 1) as usize);
        }
        // The base relation's groups, and the chosen groups left to add.
        let mut base: Vec<Group> = dp_groups.iter().map(|g| group(&mut ctx, &p, &[g])).collect();
        let mut rest = &chosen[..];
        if shape == Shape::AcyclicBase {
            let (kept, added) = chosen.split_at(chosen.len() / 2);
            base.extend(kept.iter().map(|g| group(&mut ctx, &p, &[g])));
            // Dropping every group with a transition inside an SCC leaves
            // only transitions between SCCs: an acyclic relation.
            let edges: Vec<_> =
                base.iter().flat_map(|g| g.edges.iter().copied()).filter(outside).collect();
            let (comp, _) = components(n, &edges);
            base.retain(|g| {
                !g.edges
                    .iter()
                    .filter(|e| outside(e))
                    .any(|&(s, t)| comp[s as usize] == comp[t as usize])
            });
            rest = added;
        }
        let mut clusters = Vec::new();
        while !rest.is_empty() {
            let size = (rng.gen_below(3) as usize + 1).min(rest.len());
            clusters.push(group(&mut ctx, &p, &rest[..size]));
            rest = &rest[size..];
        }

        let mut edges: Vec<_> =
            base.iter().flat_map(|g| g.edges.iter().copied()).filter(outside).collect();
        let ctx_msg = format!("{name}, seed {seed} (rerun: CYCLE_CHECK_SEEDS={})", seed + 1);
        if shape == Shape::AcyclicBase {
            let (_, nontrivial) = components(n, &edges);
            assert!(!nontrivial.contains(&true), "{ctx_msg}: the base has a cycle");
        }
        edges.extend(clusters.iter().flat_map(|g| g.edges.iter().copied()).filter(outside));
        let (comp, nontrivial) = components(n, &edges);

        // Symbolic: (base ∪ clusters) | ¬I.
        let mut added = Bdd::FALSE;
        for g in &clusters {
            added = ctx.mgr().or(added, g.rel);
        }
        let mut relation = added;
        for g in &base {
            relation = ctx.mgr().or(relation, g.rel);
        }
        let restricted = ctx.restrict_relation(relation, not_i);
        let added = ctx.restrict_relation(added, not_i);
        let gc_before = ctx.mgr_ref().stats().gc_runs;
        let (check, asked) = match shape {
            Shape::Any => {
                // Preprocessing's question about δ_p's groups as well.
                let asked: Vec<&Group> = base.iter().chain(&clusters).collect();
                let rels: Vec<Bdd> = asked.iter().map(|g| g.rel).collect();
                (cyclic_groups(&mut ctx, restricted, not_i, &rels), asked)
            }
            Shape::AcyclicBase => {
                let rels: Vec<Bdd> = clusters.iter().map(|g| g.rel).collect();
                let check = try_cyclic_added_groups(&mut ctx, restricted, added, not_i, &rels)
                    .unwrap_or_else(|e| panic!("{ctx_msg}: {e}"));
                (check, clusters.iter().collect())
            }
        };
        tally.gc_runs += ctx.mgr_ref().stats().gc_runs - gc_before;

        assert_eq!(check.cyclic.len(), asked.len(), "{ctx_msg}");
        for (gi, g) in asked.iter().enumerate() {
            let expected = g
                .edges
                .iter()
                .filter(|e| outside(e))
                .any(|&(s, t)| comp[s as usize] == comp[t as usize]);
            assert_eq!(check.cyclic[gi], expected, "{ctx_msg}: group {gi} of {}", asked.len());
            *if expected { &mut tally.cyclic } else { &mut tally.acyclic } += 1;
        }
        tally.sccs += check.sccs.len();
        for &scc in &check.sccs {
            let state = ctx.pick_state(scc).expect("reported SCCs are non-empty");
            let c = comp[p.space().encode(&state) as usize];
            assert!(nontrivial[c as usize], "{ctx_msg}: reported a trivial SCC");
            let members: Vec<StateId> =
                (0..n as StateId).filter(|&s| comp[s as usize] == c).collect();
            assert_eq!(ctx.count_states(scc), members.len() as f64, "{ctx_msg}: SCC size");
            for s in members {
                let cube = ctx.state_cube(&p.space().decode(s));
                assert!(!ctx.mgr().and(cube, scc).is_false(), "{ctx_msg}: SCC misses a state");
            }
        }
        if shape == Shape::AcyclicBase {
            // The pretest on its own, last, since it keeps only its
            // arguments through a collection: "no" must mean no cycle.
            let reached = try_reaches_back(&mut ctx, restricted, added)
                .unwrap_or_else(|e| panic!("{ctx_msg}: {e}"));
            assert!(reached || !nontrivial.contains(&true), "{ctx_msg}: pretest missed a cycle");
            *if reached { &mut tally.reached } else { &mut tally.not_reached } += 1;
        }
    }
    tally
}

#[test]
fn cyclic_groups_match_explicit_tarjan() {
    let mut seen = Tally::default();
    for (name, case) in instances() {
        seen.add(sweep(name, case, Shape::Any, None));
    }
    println!(
        "{} cyclic and {} acyclic verdicts, {} SCCs built",
        seen.cyclic, seen.acyclic, seen.sccs
    );
    assert!(
        seen.cyclic > 0 && seen.acyclic > 0 && seen.sccs > 0,
        "the sweep must exercise both verdicts"
    );
}

#[test]
fn cyclic_added_groups_over_an_acyclic_base_match_explicit_tarjan() {
    let mut seen = Tally::default();
    for (name, case) in instances() {
        seen.add(sweep(name, case, Shape::AcyclicBase, None));
    }
    println!(
        "{} cyclic and {} acyclic verdicts, {} SCCs built; pretest reached a source {} times, \
         not {} times",
        seen.cyclic, seen.acyclic, seen.sccs, seen.reached, seen.not_reached
    );
    assert!(
        seen.cyclic > 0 && seen.acyclic > 0 && seen.reached > 0 && seen.not_reached > 0,
        "the sweep must exercise both verdicts and both pretest answers"
    );
}

#[test]
fn cycle_check_under_a_node_ceiling_collects_and_matches_tarjan() {
    for (name, case) in
        [("matching(5)", matching::matching(5)), ("token_ring(4,4)", token_ring::token_ring(4, 4))]
    {
        // The nodes the sweep keeps as roots, plus a small working margin.
        let roots = {
            let (p, inv) = case.clone();
            let mut ctx = SymbolicContext::new(p);
            let i = ctx.compile(&inv);
            let not_i = ctx.not_states(i);
            let delta_p = ctx.protocol_relation();
            let mut roots = CandidateSet::build(&mut ctx, i).roots();
            roots.extend([i, not_i, delta_p]);
            ctx.gc(&roots);
            ctx.mgr_ref().live_nodes()
        };
        let t = sweep(name, case, Shape::AcyclicBase, Some(2 * roots));
        assert!(t.gc_runs > 0, "{name}: the ceiling never made the check collect");
        println!("{name}: {} collections inside the checks", t.gc_runs);
    }
}

/// The invariant the pretest rests on, end to end: the synthesized
/// relation restricted to `¬I` has no cycle, by explicit Tarjan. `pss`
/// only grows after preprocessing, so this covers every committed step.
#[test]
fn synthesized_relation_is_acyclic_outside_i() {
    let symmetric = |p: &Protocol| Options {
        symmetry: Some(Symmetry::ring_rotation(p).expect("ring topology")),
        ..Options::default()
    };
    let mut runs: Vec<(String, Protocol, Expr, Options, Schedule)> = Vec::new();
    for (name, (p, inv)) in [
        ("coloring(5)", coloring::coloring(5)),
        ("matching(5)", matching::matching(5)),
        ("token_ring(4,4)", token_ring::token_ring(4, 4)),
        ("mis(5)", mis::mis(5)),
    ] {
        let k = p.num_processes();
        for r in 0..k {
            runs.push((
                format!("{name} rotated {r}"),
                p.clone(),
                inv.clone(),
                Options::default(),
                Schedule::rotated(k, r),
            ));
        }
        if name.starts_with("coloring") || name.starts_with("matching") {
            let opts = symmetric(&p);
            runs.push((format!("{name} symmetric"), p, inv, opts, Schedule::identity(k)));
        }
    }
    for (label, p, inv, opts, schedule) in runs {
        let problem = AddConvergence::new(p.clone(), inv.clone()).unwrap();
        let out =
            problem.synthesize_with(&opts, schedule).unwrap_or_else(|e| panic!("{label}: {e:?}"));
        let in_i = predicate_states(&p, &inv);
        let edges: Vec<(StateId, StateId)> = out
            .pss_descs()
            .iter()
            .flat_map(|g| g.transitions(&p))
            .filter(|&(s, t)| !in_i.contains(s) && !in_i.contains(t))
            .collect();
        let (_, nontrivial) = components(p.space().size() as usize, &edges);
        assert!(!nontrivial.contains(&true), "{label}: pss | ¬I has a cycle");
    }
}
