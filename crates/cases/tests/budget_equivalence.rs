//! An enormous-but-finite budget must be observationally free: the
//! synthesized protocol, the recovery description and the deterministic
//! statistics must be identical to an unbudgeted run on every case study.
//! (Only timings, tick counters and GC-sensitive peaks may differ.)
//! The same case studies also check that `pss` is exactly the union of
//! its group relations.

use stsyn_bdd::Budget;
use stsyn_cases::{coloring, matching, mis, token_ring, two_ring};
use stsyn_core::{AddConvergence, Options, Outcome};
use stsyn_protocol::expr::Expr;
use stsyn_protocol::group::GroupDesc;
use stsyn_protocol::Protocol;

/// Everything deterministic about an outcome, in comparable form.
struct Fingerprint {
    added: Vec<GroupDesc>,
    recovery: String,
    extracted: String,
    candidates: usize,
    groups_added: usize,
    max_rank: usize,
    finished_in_pass: u8,
    program_nodes: usize,
}

fn fingerprint(outcome: &Outcome) -> Fingerprint {
    Fingerprint {
        added: outcome.added.clone(),
        recovery: outcome.describe_recovery(),
        extracted: format!("{:?}", outcome.extract_protocol()),
        candidates: outcome.stats.candidates,
        groups_added: outcome.stats.groups_added,
        max_rank: outcome.stats.max_rank,
        finished_in_pass: outcome.stats.finished_in_pass,
        program_nodes: outcome.stats.program_nodes,
    }
}

fn huge_budget() -> Budget {
    Budget::unlimited()
        .with_max_ticks(u64::MAX >> 1)
        .with_max_nodes(usize::MAX >> 1)
        .with_timeout(std::time::Duration::from_secs(3600))
}

fn assert_budget_free(name: &str, p: Protocol, i: Expr) {
    let plain = AddConvergence::new(p.clone(), i.clone())
        .unwrap()
        .synthesize(&Options::default())
        .unwrap_or_else(|e| panic!("{name}: unbudgeted synthesis failed: {e}"));
    let budgeted_opts = Options { budget: Some(huge_budget()), ..Options::default() };
    let budgeted = AddConvergence::new(p, i)
        .unwrap()
        .synthesize(&budgeted_opts)
        .unwrap_or_else(|e| panic!("{name}: budgeted synthesis failed: {e}"));
    assert!(budgeted.stats.bdd_ticks > 0, "{name}: tick accounting missing");

    let a = fingerprint(&plain);
    let b = fingerprint(&budgeted);
    assert_eq!(a.added, b.added, "{name}: added groups differ");
    assert_eq!(a.recovery, b.recovery, "{name}: recovery description differs");
    assert_eq!(a.extracted, b.extracted, "{name}: extracted protocol differs");
    assert_eq!(a.candidates, b.candidates, "{name}: candidate count differs");
    assert_eq!(a.groups_added, b.groups_added, "{name}: group count differs");
    assert_eq!(a.max_rank, b.max_rank, "{name}: rank count differs");
    assert_eq!(a.finished_in_pass, b.finished_in_pass, "{name}: pass differs");
    assert_eq!(a.program_nodes, b.program_nodes, "{name}: program size differs");
}

#[test]
fn token_ring_is_budget_free() {
    let (p, i) = token_ring(3, 2);
    assert_budget_free("token_ring(3,2)", p, i);
}

#[test]
fn matching_is_budget_free() {
    let (p, i) = matching(3);
    assert_budget_free("matching(3)", p, i);
}

#[test]
fn coloring_is_budget_free() {
    let (p, i) = coloring(3);
    assert_budget_free("coloring(3)", p, i);
}

#[test]
fn two_ring_is_budget_free() {
    let (p, i) = two_ring(2, 2);
    assert_budget_free("two_ring(2,2)", p, i);
}

#[test]
fn mis_is_budget_free() {
    let (p, i) = mis(3);
    assert_budget_free("mis(3)", p, i);
}

#[test]
fn weak_synthesis_is_budget_free() {
    let (p, i) = matching(3);
    let plain = AddConvergence::new(p.clone(), i.clone()).unwrap().synthesize_weak().unwrap();
    let opts = Options { budget: Some(huge_budget()), ..Options::default() };
    let budgeted = AddConvergence::new(p, i).unwrap().synthesize_weak_with(&opts).unwrap();
    assert_eq!(plain.added, budgeted.added);
    assert_eq!(plain.stats.max_rank, budgeted.stats.max_rank);
    assert_eq!(plain.stats.program_nodes, budgeted.stats.program_nodes);
}

/// Every group enters `pss` through the heuristic's batched commit, so
/// `pss` must be the same BDD as the union of `pss_descs()`'s relations.
#[test]
fn pss_is_the_union_of_its_group_relations() {
    let cases = [
        ("token_ring(3,2)", token_ring(3, 2)),
        ("matching(3)", matching(3)),
        ("coloring(3)", coloring(3)),
        ("two_ring(2,2)", two_ring(2, 2)),
        ("mis(3)", mis(3)),
    ];
    for (name, (p, i)) in cases {
        let problem = AddConvergence::new(p, i).unwrap();
        let mut out =
            problem.synthesize(&Options::default()).unwrap_or_else(|e| panic!("{name}: {e}"));
        let descs = out.pss_descs();
        let ctx = out.ctx();
        let mut union = ctx.mgr().zero();
        for d in &descs {
            let rel = ctx.group_relation(d);
            union = ctx.mgr().or(union, rel);
        }
        assert_eq!(union, out.pss, "{name}: pss differs from the union of its groups");
    }
}
