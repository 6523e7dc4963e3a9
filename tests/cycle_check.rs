//! Differential test of the symbolic cycle check
//! (`stsyn_symbolic::scc::cyclic_groups`) against explicit Tarjan.
//!
//! For each case study, the relation is `δ_p` plus a seeded random subset
//! of the candidate recovery groups, restricted to `¬I`. The groups asked
//! about are the groups of `δ_p` (what preprocessing asks) and the chosen
//! candidates, bundled into random clusters of one to three (what badTrans
//! asks). A group's verdict must equal "some transition of the group has
//! both ends in one SCC of the explicit graph", and every SCC the check
//! reports must be a non-trivial SCC of that graph, state for state.
//!
//! `CYCLE_CHECK_SEEDS` sets the number of seeds per instance (default 12);
//! CI runs a wider sweep in release mode.

use stsyn_repro::bdd::Bdd;
use stsyn_repro::cases::{coloring, matching, mis, token_ring, two_ring};
use stsyn_repro::protocol::explicit::{predicate_states, ExplicitGraph};
use stsyn_repro::protocol::group::{groups_of_protocol, GroupDesc};
use stsyn_repro::protocol::sim::SimRng;
use stsyn_repro::protocol::{Expr, Protocol, StateId};
use stsyn_repro::symbolic::scc::cyclic_groups;
use stsyn_repro::symbolic::SymbolicContext;
use stsyn_repro::synth::candidates::CandidateSet;

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

#[test]
fn cyclic_groups_match_explicit_tarjan() {
    let seeds = seeds();
    // (yes verdicts, no verdicts, SCCs reported) over the whole sweep.
    let mut seen = (0usize, 0usize, 0usize);
    for (name, (p, inv)) in instances() {
        let mut ctx = SymbolicContext::new(p.clone());
        let i = ctx.compile(&inv);
        let not_i = ctx.not_states(i);
        let delta_p = ctx.protocol_relation();
        let cands = CandidateSet::build(&mut ctx, i);
        let n = p.space().size() as usize;
        let in_i = predicate_states(&p, &inv);
        let dp = ExplicitGraph::of_protocol(&p);
        let dp_edges: Vec<(StateId, StateId)> = (0..n as StateId)
            .flat_map(|s| dp.successors(s).iter().map(move |&t| (s, t as StateId)))
            .collect();
        let dp_groups = groups_of_protocol(&p);

        for seed in 0..seeds {
            let mut rng = SimRng::new(seed);
            // Between 1/8 and 1/2 of the candidates, by seed.
            let density = seed % 4 + 1;
            let mut chosen: Vec<&GroupDesc> =
                cands.all.iter().filter(|_| rng.gen_below(8) < density).map(|c| &c.desc).collect();
            for k in (1..chosen.len()).rev() {
                chosen.swap(k, rng.gen_below(k as u64 + 1) as usize);
            }
            let mut groups: Vec<Group> =
                dp_groups.iter().map(|g| group(&mut ctx, &p, &[g])).collect();
            let mut rest = &chosen[..];
            while !rest.is_empty() {
                let size = (rng.gen_below(3) as usize + 1).min(rest.len());
                groups.push(group(&mut ctx, &p, &rest[..size]));
                rest = &rest[size..];
            }

            // Symbolic: (δ_p ∪ chosen) | ¬I.
            let mut relation = delta_p;
            for g in &groups[dp_groups.len()..] {
                relation = ctx.mgr().or(relation, g.rel);
            }
            let restricted = ctx.restrict_relation(relation, not_i);
            let rels: Vec<Bdd> = groups.iter().map(|g| g.rel).collect();
            let check = cyclic_groups(&mut ctx, restricted, not_i, &rels);

            // Explicit: the same graph, split by Tarjan.
            let outside = |&(s, t): &(StateId, StateId)| !in_i.contains(s) && !in_i.contains(t);
            let mut edges: Vec<(StateId, StateId)> =
                dp_edges.iter().copied().filter(outside).collect();
            for g in &groups[dp_groups.len()..] {
                edges.extend(g.edges.iter().copied().filter(outside));
            }
            let graph = ExplicitGraph::from_edges(n, edges.clone());
            let (comp, ncomp) = graph.tarjan_scc();
            let mut nontrivial = vec![false; ncomp];
            for &(s, t) in &edges {
                if comp[s as usize] == comp[t as usize] {
                    nontrivial[comp[s as usize] as usize] = true;
                }
            }

            let ctx_msg = format!("{name}, seed {seed} (rerun: CYCLE_CHECK_SEEDS={})", seed + 1);
            assert_eq!(check.cyclic.len(), groups.len(), "{ctx_msg}");
            for (gi, g) in groups.iter().enumerate() {
                let expected = g
                    .edges
                    .iter()
                    .filter(|e| outside(e))
                    .any(|&(s, t)| comp[s as usize] == comp[t as usize]);
                assert_eq!(check.cyclic[gi], expected, "{ctx_msg}: group {gi} of {}", groups.len());
                if expected {
                    seen.0 += 1;
                } else {
                    seen.1 += 1;
                }
            }
            seen.2 += check.sccs.len();
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
        }
    }
    let (yes, no, sccs) = seen;
    println!("{yes} cyclic and {no} acyclic verdicts, {sccs} SCCs built");
    assert!(yes > 0 && no > 0 && sccs > 0, "the sweep must exercise both verdicts");
}
