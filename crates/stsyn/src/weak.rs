//! Weak-stabilization synthesis (Theorem IV.1).
//!
//! `ComputeRanks` is a *sound and complete* decision procedure for weak
//! stabilization: run it on the maximal candidate protocol `p_im`; if no
//! state has rank ∞, `p_im` itself is a weakly stabilizing version of `p`
//! (every state has *some* computation reaching `I`); otherwise no
//! stabilizing version of `p` exists at all.

use crate::candidates::CandidateSet;
use crate::heuristic::{resource_err, Outcome};
use crate::problem::{Options, Phase, SynthesisError};
use crate::schedule::Schedule;
use crate::stats::SynthesisStats;
use std::time::Instant;
use stsyn_protocol::expr::Expr;
use stsyn_protocol::Protocol;
use stsyn_symbolic::check::try_closure_holds;
use stsyn_symbolic::ranks::try_compute_ranks;
use stsyn_symbolic::SymbolicContext;

/// Produce the weakly stabilizing `p_im`, or prove none exists.
///
/// Honors [`Options::budget`] with the same failure semantics as the
/// strong-stabilization heuristic (setup and ranking phases only — weak
/// synthesis has no recovery passes).
pub fn synthesize_weak(
    protocol: &Protocol,
    invariant: &Expr,
    opts: &Options,
) -> Result<Outcome, SynthesisError> {
    let start = Instant::now();
    let mut ctx = SymbolicContext::new(protocol.clone());
    if let Some(b) = &opts.budget {
        ctx.set_budget(b);
    }
    macro_rules! setup {
        ($e:expr) => {
            match $e {
                Ok(v) => v,
                Err(cause) => return Err(resource_err(&ctx, Phase::Setup, cause, 0, &[])),
            }
        };
    }
    let i = setup!(ctx.try_compile(invariant));
    if i.is_false() {
        return Err(SynthesisError::EmptyInvariant);
    }
    let delta_p = setup!(ctx.try_protocol_relation());
    if !setup!(try_closure_holds(&mut ctx, delta_p, i)) {
        return Err(SynthesisError::NotClosed);
    }
    let mut cands = setup!(CandidateSet::try_build(&mut ctx, i));
    let pim = setup!(cands.try_pim(&mut ctx, delta_p));

    if opts.budget.is_some() {
        let mut roots = cands.roots();
        roots.extend([i, delta_p, pim]);
        ctx.register_roots(&roots);
    }
    let rank_start = Instant::now();
    let ranks = match try_compute_ranks(&mut ctx, pim, i) {
        Ok(t) => t,
        Err(interrupted) => {
            return Err(resource_err(
                &ctx,
                Phase::Ranking,
                interrupted.cause,
                interrupted.ranks_so_far.len(),
                &[],
            ))
        }
    };
    let ranking_time = rank_start.elapsed();
    if !ranks.complete() {
        let count = ctx.count_states(ranks.infinite);
        return Err(SynthesisError::NoStabilizingVersion { unreachable_states: count });
    }

    // Every candidate not already contained in δ_p counts as added.
    let mut added = Vec::new();
    for c in &mut cands.all {
        c.included = true;
        let subsumed = match ctx.mgr().try_implies_holds(c.relation, delta_p) {
            Ok(v) => v,
            Err(cause) => {
                return Err(resource_err(&ctx, Phase::Ranking, cause, ranks.ranks.len(), &[]))
            }
        };
        if !subsumed {
            added.push(c.desc.clone());
        }
    }
    let m = ctx.mgr_ref().stats();
    let stats = SynthesisStats {
        ranking_time,
        total_time: start.elapsed(),
        max_rank: ranks.max_rank(),
        candidates: cands.len(),
        groups_added: added.len(),
        program_nodes: ctx.mgr_ref().node_count(pim),
        peak_live_nodes: m.peak_live_nodes,
        bdd_ticks: ctx.mgr_ref().ticks_used(),
        gc_runs: m.gc_runs,
        cache_lookups: m.cache_lookups,
        cache_hits: m.cache_hits,
        ..SynthesisStats::default()
    };
    ctx.clear_budget();
    let k = protocol.num_processes();
    Ok(Outcome {
        i,
        delta_p,
        pss: pim,
        added,
        removed_from_p: Vec::new(),
        stats,
        schedule: Schedule::identity(k),
        ctx,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use stsyn_protocol::action::Action;
    use stsyn_protocol::topology::{ProcIdx, ProcessDecl, VarDecl, VarIdx};

    fn v(i: usize) -> Expr {
        Expr::var(VarIdx(i))
    }

    #[test]
    fn weak_synthesis_of_empty_protocol() {
        let vars = vec![VarDecl::new("a", 4)];
        let procs = vec![ProcessDecl::new("P0", vec![VarIdx(0)], vec![VarIdx(0)]).unwrap()];
        let p = Protocol::new(vars, procs, vec![]).unwrap();
        let i = v(0).eq(Expr::int(0));
        let mut out = synthesize_weak(&p, &i, &Options::default()).unwrap();
        assert!(out.verify_weak());
        assert!(out.preserves_i_behavior());
        assert!(!out.added.is_empty());
    }

    #[test]
    fn weak_version_may_not_be_strong() {
        // p_im typically contains ¬I cycles: weak but not strong. With a
        // 3-value variable and I = {0}, p_im has 1↔2 cycles.
        let vars = vec![VarDecl::new("a", 3)];
        let procs = vec![ProcessDecl::new("P0", vec![VarIdx(0)], vec![VarIdx(0)]).unwrap()];
        let p = Protocol::new(vars, procs, vec![]).unwrap();
        let i = v(0).eq(Expr::int(0));
        let mut out = synthesize_weak(&p, &i, &Options::default()).unwrap();
        assert!(out.verify_weak());
        assert!(!out.verify_strong()); // cycle 1↔2 exists in p_im
    }

    #[test]
    fn completeness_detects_impossible_instances() {
        // I pins an unwritable variable: Theorem IV.1 says "no stabilizing
        // version exists", weak or strong.
        let vars = vec![VarDecl::new("a", 2), VarDecl::new("b", 2)];
        let procs =
            vec![ProcessDecl::new("P0", vec![VarIdx(0), VarIdx(1)], vec![VarIdx(0)]).unwrap()];
        let p = Protocol::new(vars, procs, vec![]).unwrap();
        let i = v(1).eq(Expr::int(0)).and(v(0).eq(Expr::int(0)));
        assert!(matches!(
            synthesize_weak(&p, &i, &Options::default()),
            Err(SynthesisError::NoStabilizingVersion { .. })
        ));
    }

    #[test]
    fn weak_rejects_unclosed() {
        let vars = vec![VarDecl::new("a", 2)];
        let procs = vec![ProcessDecl::new("P0", vec![VarIdx(0)], vec![VarIdx(0)]).unwrap()];
        let esc = Action::new(ProcIdx(0), v(0).eq(Expr::int(0)), vec![(VarIdx(0), Expr::int(1))]);
        let p = Protocol::new(vars, procs, vec![esc]).unwrap();
        let i = v(0).eq(Expr::int(0));
        assert!(matches!(
            synthesize_weak(&p, &i, &Options::default()),
            Err(SynthesisError::NotClosed)
        ));
    }
}
