//! Weak-stabilization synthesis (Theorem IV.1).
//!
//! `ComputeRanks` is a *sound and complete* decision procedure for weak
//! stabilization: run it on the maximal candidate protocol `p_im`; if no
//! state has rank ∞, `p_im` itself is a weakly stabilizing version of `p`
//! (every state has *some* computation reaching `I`); otherwise no
//! stabilizing version of `p` exists at all.

use crate::candidates::CandidateSet;
use crate::heuristic::{in_setup, ranked, stopped, Outcome, Setup};
use crate::problem::{Options, Phase, SynthesisError};
use crate::schedule::Schedule;
use crate::stats::SynthesisStats;
use std::time::Instant;
use stsyn_protocol::expr::Expr;
use stsyn_protocol::Protocol;
use stsyn_symbolic::ranks::try_compute_ranks;

/// Produce the weakly stabilizing `p_im`, or prove none exists.
///
/// Shares the strong heuristic's start ([`Setup`]) and its reading of the
/// rank table, so it honors [`Options::budget`] and [`Options::tracer`]
/// the same way (setup and ranking phases only — weak synthesis has no
/// preprocessing and no recovery passes). It emits no `synthesis.stats`
/// record.
pub fn synthesize_weak(
    protocol: &Protocol,
    invariant: &Expr,
    opts: &Options,
) -> Result<Outcome, SynthesisError> {
    let Setup { mut ctx, i, delta_p, started, span } = Setup::new(protocol, invariant, opts)?;
    let mut cands = CandidateSet::try_build(&mut ctx, i).map_err(in_setup(&ctx))?;
    let pim = cands.try_pim(&mut ctx, delta_p).map_err(in_setup(&ctx))?;
    let mut roots = cands.roots();
    roots.extend([i, delta_p, pim]);
    ctx.register_roots(&roots);
    span.close();

    let ranking_span = opts.tracer.span("phase.ranking");
    let rank_start = Instant::now();
    let table = try_compute_ranks(&mut ctx, pim, i);
    let ranks = ranked(&ctx, table)?;
    let ranking_time = rank_start.elapsed();
    // Every candidate not already contained in δ_p counts as added.
    let mut added = Vec::new();
    for c in &mut cands.all {
        c.included = true;
        let subsumed = ctx.mgr().try_implies_holds(c.relation, delta_p);
        if !subsumed.map_err(|e| stopped(&ctx, Phase::Ranking, ranks.ranks.len(), &[], e))? {
            added.push(c.desc.clone());
        }
    }
    ranking_span.close();
    let stats = SynthesisStats {
        ranking_time,
        max_rank: ranks.max_rank(),
        candidates: cands.len(),
        groups_added: added.len(),
        ..SynthesisStats::default()
    };
    let k = protocol.num_processes();
    let outcome = Outcome {
        i,
        delta_p,
        pss: pim,
        added,
        removed_from_p: Vec::new(),
        stats,
        schedule: Schedule::identity(k),
        ctx,
    };
    Ok(outcome.finish(started))
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
