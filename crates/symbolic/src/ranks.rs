//! `ComputeRanks` (Fig. 2 of the paper): the backward-BFS layering of the
//! state space that approximates strong convergence.
//!
//! Given a transition relation `T` (normally the *maximal candidate
//! protocol* `p_im`) and a closed predicate `I`, `Rank[i]` is the set of
//! states whose shortest `T`-path to `I` has length exactly `i`
//! (`Rank[0] = I`). States never reached by the backward search have rank
//! ∞; by Theorem IV.1 their existence proves **no** stabilizing version of
//! the protocol exists, and their absence makes `p_im` itself a weakly
//! stabilizing version — `ComputeRanks` is a sound and complete decision
//! procedure for weak stabilization.

use crate::encode::{SymbolicContext, INFALLIBLE};
use stsyn_bdd::{Bdd, BddError, Manager};
use stsyn_obs::{Json, TraceLevel};

/// Callback invoked after every rank layer is committed (checkpointing
/// hook): receives the manager, the layer index and the layer predicate.
pub type RankLayerObserver<'a> = &'a mut dyn FnMut(&Manager, usize, Bdd);

/// The result of `ComputeRanks`.
#[derive(Debug, Clone)]
pub struct RankTable {
    /// `ranks[i]` is the predicate `Rank[i]`; `ranks[0] = I`.
    pub ranks: Vec<Bdd>,
    /// Union of every rank — the backward-reachable set `explored`.
    pub explored: Bdd,
    /// States with rank ∞ (empty iff a weakly stabilizing version exists).
    pub infinite: Bdd,
}

impl RankTable {
    /// Highest finite rank `M`.
    pub fn max_rank(&self) -> usize {
        self.ranks.len() - 1
    }

    /// The predicate `Rank[i]`, or `false` when `i` exceeds `M`.
    pub fn rank(&self, i: usize) -> Bdd {
        self.ranks.get(i).copied().unwrap_or(Bdd::FALSE)
    }

    /// Is every state covered by some finite rank? (Theorem IV.1: iff a
    /// weakly stabilizing version exists.)
    pub fn complete(&self) -> bool {
        self.infinite.is_false()
    }
}

/// A `ComputeRanks` run cut short by the resource budget. The layers
/// computed before the interruption are a *correct prefix* of the full
/// table: `ranks_so_far[i]` is exactly the set of states at backward
/// distance `i` from `I`, and `explored` is their union.
#[derive(Debug, Clone)]
pub struct RanksInterrupted {
    /// The budget violation that stopped the computation.
    pub cause: BddError,
    /// Correctly-layered rank prefix (`ranks_so_far[0] = I`).
    pub ranks_so_far: Vec<Bdd>,
    /// Union of the prefix layers.
    pub explored: Bdd,
}

/// Compute the rank layering of `relation` towards `i` (which must be a
/// current-vocabulary predicate). Mirrors Fig. 2: repeated one-step
/// backward images, each minus the already-explored set, until a fixpoint.
pub fn compute_ranks(ctx: &mut SymbolicContext, relation: Bdd, i: Bdd) -> RankTable {
    match try_compute_ranks(ctx, relation, i) {
        Ok(table) => table,
        Err(e) => panic!("{INFALLIBLE}: {}", e.cause),
    }
}

/// Fallible variant of [`compute_ranks`] for budgeted runs. Hits a safe
/// point before every backward step (callers holding further long-lived
/// handles must have registered them, see
/// [`SymbolicContext::register_roots`]); on any budget violation the
/// layers completed so far are returned as [`RanksInterrupted`].
#[must_use = "an interrupted ranking is reported through the Result"]
pub fn try_compute_ranks(
    ctx: &mut SymbolicContext,
    relation: Bdd,
    i: Bdd,
) -> Result<RankTable, Box<RanksInterrupted>> {
    try_compute_ranks_resumed(ctx, relation, i, &[], None)
}

/// [`try_compute_ranks`] with checkpoint/resume support.
///
/// `prefix` is a correctly-layered rank prefix *excluding* `Rank[0] = I`
/// (e.g. the `ranks_so_far[1..]` of an earlier [`RanksInterrupted`], or
/// layers replayed from a journal): the backward search continues from its
/// frontier instead of starting at `I`. Because each layer is uniquely
/// determined by `relation` and `I`, the completed table is identical to
/// an uninterrupted run's. `observer`, when given, fires after every
/// *newly computed* layer is committed (not for the replayed prefix, which
/// the caller has already journaled) so a checkpointing caller can persist
/// layers as they are produced.
#[must_use = "an interrupted ranking is reported through the Result"]
pub fn try_compute_ranks_resumed(
    ctx: &mut SymbolicContext,
    relation: Bdd,
    i: Bdd,
    prefix: &[Bdd],
    mut observer: Option<RankLayerObserver<'_>>,
) -> Result<RankTable, Box<RanksInterrupted>> {
    let mut ranks = vec![i];
    let mut explored = i;
    for &layer in prefix {
        match ctx.mgr().try_or(explored, layer) {
            Ok(e) => {
                explored = e;
                ranks.push(layer);
            }
            Err(cause) => {
                return Err(Box::new(RanksInterrupted { cause, ranks_so_far: ranks, explored }))
            }
        }
    }
    macro_rules! step {
        ($e:expr) => {
            match $e {
                Ok(v) => v,
                Err(cause) => {
                    return Err(Box::new(RanksInterrupted { cause, ranks_so_far: ranks, explored }))
                }
            }
        };
    }
    loop {
        {
            let mut extra: Vec<Bdd> = Vec::with_capacity(ranks.len() + 2);
            extra.push(relation);
            extra.push(explored);
            extra.extend(ranks.iter().copied());
            step!(ctx.mgr().safe_point(&extra));
        }
        let back = step!(ctx.try_pre(relation, explored));
        let not_explored = step!(ctx.mgr().try_not(explored));
        let fresh = step!(ctx.mgr().try_and(back, not_explored));
        if fresh.is_false() {
            break;
        }
        ranks.push(fresh);
        explored = step!(ctx.mgr().try_or(explored, fresh));
        // The per-rank frontier size is the paper's Fig. 7/9 space metric;
        // the node count is only computed when a Debug-level sink wants it.
        if ctx.mgr_ref().tracer().level_enabled(TraceLevel::Debug) {
            let nodes = ctx.mgr_ref().node_count(fresh) as u64;
            ctx.mgr_ref().tracer().debug(
                "rank.layer",
                &[("rank", Json::from((ranks.len() - 1) as u64)), ("nodes", Json::from(nodes))],
            );
        }
        if let Some(obs) = observer.as_mut() {
            obs(ctx.mgr_ref(), ranks.len() - 1, fresh);
        }
    }
    let infinite = step!(ctx.try_not_states(explored));
    Ok(RankTable { ranks, explored, infinite })
}

#[cfg(test)]
mod tests {
    use super::*;
    use stsyn_protocol::action::Action;
    use stsyn_protocol::explicit::{predicate_states, ExplicitGraph};
    use stsyn_protocol::expr::Expr;
    use stsyn_protocol::topology::{ProcIdx, ProcessDecl, VarDecl, VarIdx};
    use stsyn_protocol::Protocol;

    fn ramp(n: u32) -> (Protocol, Expr) {
        let vars = vec![VarDecl::new("c", n)];
        let procs = vec![ProcessDecl::new("P0", vec![VarIdx(0)], vec![VarIdx(0)]).unwrap()];
        let a = Action::new(
            ProcIdx(0),
            Expr::var(VarIdx(0)).lt(Expr::int((n - 1) as i64)),
            vec![(VarIdx(0), Expr::var(VarIdx(0)).add(Expr::int(1)))],
        );
        let p = Protocol::new(vars, procs, vec![a]).unwrap();
        let i = Expr::var(VarIdx(0)).eq(Expr::int((n - 1) as i64));
        (p, i)
    }

    #[test]
    fn ranks_of_ramp_are_distances() {
        let (p, i) = ramp(5);
        let mut ctx = SymbolicContext::new(p);
        let t = ctx.protocol_relation();
        let i_bdd = ctx.compile(&i);
        let table = compute_ranks(&mut ctx, t, i_bdd);
        assert_eq!(table.max_rank(), 4);
        assert!(table.complete());
        for r in 0..=4u32 {
            let pred = table.rank(r as usize);
            assert_eq!(ctx.count_states(pred), 1.0);
            let s = ctx.pick_state(pred).unwrap();
            assert_eq!(s[0], 4 - r);
        }
        assert!(table.rank(99).is_false());
    }

    #[test]
    fn ranks_match_explicit_bfs() {
        let (p, i) = ramp(7);
        let graph = ExplicitGraph::of_protocol(&p);
        let i_set = predicate_states(&p, &i);
        let explicit = graph.backward_ranks(&i_set);
        let mut ctx = SymbolicContext::new(p.clone());
        let t = ctx.protocol_relation();
        let i_bdd = ctx.compile(&i);
        let table = compute_ranks(&mut ctx, t, i_bdd);
        for (id, s) in p.space().states().enumerate() {
            let cube = ctx.state_cube(&s);
            let symbolic_rank = (0..=table.max_rank())
                .find(|&r| {
                    let pred = table.rank(r);
                    !ctx.mgr().and(cube, pred).is_false()
                })
                .map(|r| r as u32)
                .unwrap_or(u32::MAX);
            assert_eq!(symbolic_rank, explicit[id], "state {s:?}");
        }
    }

    #[test]
    fn infinite_ranks_detected() {
        // No actions: every ¬I state has rank ∞ — no stabilizing version.
        let vars = vec![VarDecl::new("c", 3)];
        let procs = vec![ProcessDecl::new("P0", vec![VarIdx(0)], vec![VarIdx(0)]).unwrap()];
        let p = Protocol::new(vars, procs, vec![]).unwrap();
        let i = Expr::var(VarIdx(0)).eq(Expr::int(0));
        let mut ctx = SymbolicContext::new(p);
        let t = ctx.protocol_relation(); // empty
        let i_bdd = ctx.compile(&i);
        let table = compute_ranks(&mut ctx, t, i_bdd);
        assert!(!table.complete());
        assert_eq!(ctx.count_states(table.infinite), 2.0);
        assert_eq!(table.max_rank(), 0);
    }

    #[test]
    fn interrupted_ranks_are_a_correct_prefix() {
        use stsyn_bdd::Budget;

        // Reference table from a budgeted-but-unlimited run (so both runs
        // share the tick coordinate system and the op trajectory).
        let (p, i) = ramp(8);
        let huge = Budget::unlimited().with_max_ticks(u64::MAX >> 1);
        let mut ctx = SymbolicContext::new(p.clone());
        ctx.set_budget(&huge);
        let t = ctx.try_protocol_relation().unwrap();
        let i_bdd = ctx.try_compile(&i).unwrap();
        let full = try_compute_ranks(&mut ctx, t, i_bdd).unwrap();
        let total = ctx.mgr_ref().ticks_used();
        assert!(total > 0);

        for n in 1..=total {
            let mut ctx2 = SymbolicContext::new(p.clone());
            ctx2.set_budget(&Budget::unlimited().with_fail_at_tick(n));
            // Injection may fire during setup; those points exercise the
            // callers' setup phases, not ComputeRanks.
            let Ok(t2) = ctx2.try_protocol_relation() else { continue };
            let Ok(i2) = ctx2.try_compile(&i) else { continue };
            match try_compute_ranks(&mut ctx2, t2, i2) {
                Ok(table) => assert_eq!(table.ranks, full.ranks, "tick {n}"),
                Err(ri) => {
                    // Identical deterministic op sequences give identical
                    // hash-consed handles, so prefix layers compare exactly.
                    assert!(ri.ranks_so_far.len() <= full.ranks.len(), "tick {n}");
                    for (layer, (got, want)) in ri.ranks_so_far.iter().zip(&full.ranks).enumerate()
                    {
                        assert_eq!(got, want, "tick {n}, layer {layer}");
                    }
                    ctx2.mgr_ref().check_consistency().expect("manager corrupted");
                }
            }
        }
    }

    #[test]
    fn rank_zero_is_exactly_i() {
        let (p, i) = ramp(4);
        let mut ctx = SymbolicContext::new(p);
        let t = ctx.protocol_relation();
        let i_bdd = ctx.compile(&i);
        let table = compute_ranks(&mut ctx, t, i_bdd);
        assert_eq!(table.rank(0), i_bdd);
        // Ranks partition the explored set.
        let mut union = Bdd::FALSE;
        for r in 0..=table.max_rank() {
            let pred = table.rank(r);
            assert!(ctx.mgr().and(union, pred).is_false(), "ranks overlap");
            union = ctx.mgr().or(union, pred);
        }
        assert_eq!(union, table.explored);
    }
}
