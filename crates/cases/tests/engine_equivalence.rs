//! The partitioned and saturation engines must be observationally
//! invisible: every symbolic operator (image, preimage, enabledness,
//! closures), the full rank table and the synthesized protocol text must
//! be identical — canonical BDD for canonical BDD, byte for byte — to
//! the monolithic engine on every case study. This is what makes
//! `--engine` a pure performance knob.

use stsyn_cases::{coloring, matching, mis, token_ring, two_ring};
use stsyn_core::job::JobSpec;
use stsyn_core::{AddConvergence, Engine, Options};
use stsyn_protocol::expr::Expr;
use stsyn_protocol::group::groups_of_protocol;
use stsyn_protocol::Protocol;
use stsyn_symbolic::ranks::{compute_ranks, compute_ranks_parts};
use stsyn_symbolic::SymbolicContext;

fn all_cases() -> Vec<(&'static str, Protocol, Expr)> {
    let mut out = Vec::new();
    let (p, i) = token_ring(3, 2);
    out.push(("token_ring(3,2)", p, i));
    let (p, i) = matching(3);
    out.push(("matching(3)", p, i));
    let (p, i) = coloring(3);
    out.push(("coloring(3)", p, i));
    let (p, i) = two_ring(2, 2);
    out.push(("two_ring(2,2)", p, i));
    let (p, i) = mis(3);
    out.push(("mis(3)", p, i));
    out
}

/// Compare every partitioned operator against its monolithic twin on a
/// spread of operand predicates: `I`, `¬I`, all states, and the
/// frontier sets a closure actually walks through.
#[test]
fn operators_agree_with_monolithic_on_every_case_study() {
    for (name, p, i_expr) in all_cases() {
        let mut ctx = SymbolicContext::new(p.clone());
        let t = ctx.protocol_relation();
        let i = ctx.compile(&i_expr);
        let parts = ctx.partitioned_relation(&groups_of_protocol(&p));

        let tt = ctx.mgr().one();
        let not_i = ctx.mgr().not(i);
        let one_step = ctx.img(t, i);
        let operands = [i, not_i, tt, one_step];
        for x in operands {
            assert_eq!(ctx.img(t, x), ctx.img_parts(&parts, x), "{name}: img");
            assert_eq!(ctx.pre(t, x), ctx.pre_parts(&parts, x), "{name}: pre");
            for engine in [Engine::Partitioned, Engine::Saturation] {
                assert_eq!(
                    ctx.forward_closure(t, x),
                    ctx.forward_closure_parts(engine, &parts, x),
                    "{name}: forward closure under {engine}"
                );
                assert_eq!(
                    ctx.backward_closure(t, x),
                    ctx.backward_closure_parts(engine, &parts, x),
                    "{name}: backward closure under {engine}"
                );
            }
        }
        assert_eq!(ctx.enabled(t), ctx.enabled_parts(&parts), "{name}: enabled");
    }
}

/// The clustered builder collapses to the monolithic relation when the
/// node cap admits a single cluster — on real case studies, not just
/// the toy protocols of the unit tests.
#[test]
fn single_cluster_equals_monolithic_relation() {
    for (name, p, _) in all_cases() {
        let mut ctx = SymbolicContext::new(p.clone());
        let t = ctx.protocol_relation();
        let descs = groups_of_protocol(&p);
        let merged = ctx
            .try_partitioned_relation_capped(&descs, usize::MAX)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        if descs.is_empty() {
            // Some seeds (e.g. matching) start with no actions at all.
            assert!(t.is_false(), "{name}: actionless seed with non-empty relation");
            assert!(merged.is_empty(), "{name}: partitions out of thin air");
            continue;
        }
        assert_eq!(merged.len(), 1, "{name}: cap ∞ must merge everything");
        assert_eq!(merged.parts()[0].relation(), t, "{name}: merged ≠ monolithic");
    }
}

/// `ComputeRanks` walks the same BFS layers regardless of engine: the
/// rank table must match layer by layer, not just in summary.
#[test]
fn rank_tables_are_identical_layer_by_layer() {
    for (name, p, i_expr) in all_cases() {
        let mut ctx = SymbolicContext::new(p.clone());
        let t = ctx.protocol_relation();
        let i = ctx.compile(&i_expr);
        let parts = ctx.partitioned_relation(&groups_of_protocol(&p));
        let mono = compute_ranks(&mut ctx, t, i);
        let part = compute_ranks_parts(&mut ctx, &parts, i);
        assert_eq!(mono.ranks, part.ranks, "{name}: rank layers differ");
        assert_eq!(mono.explored, part.explored, "{name}: explored sets differ");
        assert_eq!(mono.infinite, part.infinite, "{name}: infinite sets differ");
    }
}

/// The partitioned engines verify the union of `pss_descs()` in place of
/// `pss`. That is sound only while every group enters the result through
/// the heuristic's batched commit, so the two must be the same BDD.
#[test]
fn pss_is_the_union_of_its_group_relations() {
    for (name, p, i_expr) in all_cases() {
        let problem = AddConvergence::new(p, i_expr).unwrap();
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

/// End-to-end: all three engines must synthesize byte-identical
/// protocol text (and all verify) on every case study, strong and weak.
#[test]
fn synthesized_dsl_is_byte_identical_across_engines() {
    for (name, p, i_expr) in all_cases() {
        for weak in [false, true] {
            let run = |engine: Engine| {
                let mut job = JobSpec::new(name.to_string(), p.clone(), i_expr.clone());
                job.engine = engine;
                if weak {
                    job.mode = stsyn_core::JobMode::Weak;
                }
                job.run().unwrap_or_else(|e| panic!("{name} [{engine}, weak={weak}]: {e}"))
            };
            let mono = run(Engine::Monolithic);
            assert!(mono.verified, "{name}: monolithic run failed verification");
            for engine in [Engine::Partitioned, Engine::Saturation] {
                let other = run(engine);
                assert!(other.verified, "{name} [{engine}]: verification failed");
                assert_eq!(
                    mono.emitted_dsl, other.emitted_dsl,
                    "{name} [{engine}, weak={weak}]: synthesized text differs"
                );
            }
        }
    }
}
