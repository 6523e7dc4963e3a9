//! The three-pass synthesis heuristic of §V (Fig. 3).
//!
//! Recovery transitions are added in whole groups, rank-by-rank, from
//! deadlock states towards `I`, under four constraints:
//!
//! * **C1** — no group with a groupmate originating in `I` (baked into the
//!   candidate set),
//! * **C2** — recovery goes from `Rank[i]` to `Rank[i−1]` (relaxed in
//!   Pass 3),
//! * **C3** — the groupmates of added recovery must not close a cycle
//!   outside `I` (enforced by `Identify_Resolve_Cycles` on every addition),
//! * **C4** — no groupmate may end in a deadlock state (relaxed in Pass 2).
//!
//! The heuristic is **sound** (everything it returns verifies strongly
//! stabilizing — [`Outcome::try_verify_strong`] checks that independently,
//! and [`crate::JobSpec`] always runs it) and incomplete:
//! it may fail on protocols for which stabilizing versions exist, in which
//! case [`crate::SynthesisError::DeadlocksRemain`] reports the residue.

use crate::candidates::CandidateSet;
use crate::checkpoint::{CheckpointError, CheckpointSession};
use crate::problem::{Options, PartialProgress, Phase, SynthesisError};
use crate::schedule::Schedule;
use crate::stats::SynthesisStats;
use std::time::Instant;
use stsyn_bdd::{Bdd, BddError, Manager};
use stsyn_obs::{Json, Span, TraceLevel};
use stsyn_protocol::expr::Expr;
use stsyn_protocol::group::{groups_of_protocol, GroupDesc};
use stsyn_protocol::Protocol;
use stsyn_symbolic::check::{
    closure_holds, strong_convergence, try_closure_holds, try_strong_convergence,
    try_weak_convergence, weak_convergence,
};
use stsyn_symbolic::ranks::{try_compute_ranks_resumed, RankTable, RanksInterrupted};
use stsyn_symbolic::scc::{try_cyclic_added_groups, try_cyclic_groups};
use stsyn_symbolic::SymbolicContext;

/// What can stop a run short of its result: the BDD budget, or — in
/// checkpointed runs — a journal write failure.
pub(crate) enum StepError {
    Bdd(BddError),
    Ckpt(CheckpointError),
}

impl From<BddError> for StepError {
    fn from(e: BddError) -> Self {
        StepError::Bdd(e)
    }
}

/// The one map from a stopped run to its error. A budget violation
/// becomes [`SynthesisError::ResourceExhausted`] in `phase`, carrying the
/// partial progress (`ranks_layered`, `groups_added`) and a snapshot of
/// the manager; a journal failure becomes [`SynthesisError::Checkpoint`].
pub(crate) fn stopped(
    ctx: &SymbolicContext,
    phase: Phase,
    ranks_layered: usize,
    groups_added: &[GroupDesc],
    e: impl Into<StepError>,
) -> SynthesisError {
    let cause = match e.into() {
        StepError::Bdd(cause) => cause,
        StepError::Ckpt(e) => return SynthesisError::Checkpoint(e),
    };
    let mgr = ctx.mgr_ref();
    SynthesisError::ResourceExhausted {
        phase,
        cause,
        partial: Box::new(PartialProgress {
            ranks_layered,
            groups_added: groups_added.to_vec(),
            live_nodes: mgr.stats().live_nodes,
            ticks: mgr.ticks_used(),
            manager_consistent: mgr.check_consistency().is_ok(),
        }),
    }
}

/// [`stopped`] before any rank is layered: no partial progress yet.
pub(crate) fn in_setup(ctx: &SymbolicContext) -> impl Fn(BddError) -> SynthesisError + '_ {
    move |e| stopped(ctx, Phase::Setup, 0, &[], e)
}

/// The start strong and weak synthesis share: a context carrying the
/// run's tracer and budget, the compiled `I` (never empty) and `δ_p`
/// (with `I` closed in it), the run's start time and its open
/// `phase.setup` span.
pub(crate) struct Setup {
    pub(crate) ctx: SymbolicContext,
    pub(crate) i: Bdd,
    pub(crate) delta_p: Bdd,
    pub(crate) started: Instant,
    pub(crate) span: Span,
}

impl Setup {
    pub(crate) fn new(
        protocol: &Protocol,
        invariant: &Expr,
        opts: &Options,
    ) -> Result<Setup, SynthesisError> {
        let started = Instant::now();
        let mut ctx = SymbolicContext::new(protocol.clone());
        ctx.mgr().set_tracer(opts.tracer.clone());
        if let Some(b) = &opts.budget {
            ctx.set_budget(b);
        }
        let span = opts.tracer.span("phase.setup");
        let i = ctx.try_compile(invariant).map_err(in_setup(&ctx))?;
        if i.is_false() {
            return Err(SynthesisError::EmptyInvariant);
        }
        let delta_p = ctx.try_protocol_relation().map_err(in_setup(&ctx))?;
        if !try_closure_holds(&mut ctx, delta_p, i).map_err(in_setup(&ctx))? {
            return Err(SynthesisError::NotClosed);
        }
        Ok(Setup { ctx, i, delta_p, started, span })
    }
}

/// `ComputeRanks`' table as the run's result: an interrupted table stops
/// the run in [`Phase::Ranking`] with the layers it completed, and a table
/// with rank-∞ states proves that no stabilizing version exists
/// (Theorem IV.1).
pub(crate) fn ranked(
    ctx: &SymbolicContext,
    table: Result<RankTable, Box<RanksInterrupted>>,
) -> Result<RankTable, SynthesisError> {
    let ranks =
        table.map_err(|r| stopped(ctx, Phase::Ranking, r.ranks_so_far.len(), &[], r.cause))?;
    if !ranks.complete() {
        let unreachable_states = ctx.count_states(ranks.infinite);
        return Err(SynthesisError::NoStabilizingVersion { unreachable_states });
    }
    Ok(ranks)
}

/// A successful synthesis: the symbolic context, the synthesized relation,
/// the added groups, and the run's statistics.
pub struct Outcome {
    pub(crate) ctx: SymbolicContext,
    /// Compiled legitimate-state predicate `I`.
    pub i: Bdd,
    /// The input protocol's transition relation `δ_p` (after preprocessing
    /// removed any safely-removable cyclic groups).
    pub delta_p: Bdd,
    /// The synthesized relation `δ_pss`.
    pub pss: Bdd,
    /// The recovery groups the heuristic added.
    pub added: Vec<GroupDesc>,
    /// Groups of `p` removed during preprocessing (cycle participants with
    /// no groupmate in `I`); empty in the common case.
    pub removed_from_p: Vec<GroupDesc>,
    /// Run statistics (Figures 6–11 quantities).
    pub stats: SynthesisStats,
    /// The recovery schedule that produced this outcome.
    pub schedule: Schedule,
}

impl Outcome {
    /// Complete the statistics from the manager (program size, peak live
    /// nodes, ticks, GC runs, cache probes) and the clock, and hand the
    /// context back unbudgeted, with the outcome's own relations as its
    /// registered roots: follow-up queries on the outcome (extraction,
    /// re-verification) must not trip a stale budget, and a collection at
    /// their safe points must keep `I`, `δ_p` and `δ_pss`.
    pub(crate) fn finish(mut self, started: Instant) -> Outcome {
        let mgr = self.ctx.mgr_ref();
        let m = mgr.stats();
        self.stats.program_nodes = mgr.node_count(self.pss);
        self.stats.peak_live_nodes = m.peak_live_nodes;
        self.stats.bdd_ticks = mgr.ticks_used();
        self.stats.gc_runs = m.gc_runs;
        self.stats.cache_lookups = m.cache_lookups;
        self.stats.cache_hits = m.cache_hits;
        self.stats.total_time = started.elapsed();
        self.ctx.clear_budget();
        self.ctx.register_roots(&[self.i, self.delta_p, self.pss]);
        self
    }

    /// The symbolic context (for further queries against the result).
    pub fn ctx(&mut self) -> &mut SymbolicContext {
        &mut self.ctx
    }

    /// The input protocol (topology and original actions).
    pub fn protocol(&self) -> &Protocol {
        self.ctx.protocol()
    }

    /// The group descriptors whose relations OR into `pss`: the input
    /// protocol's groups minus the preprocessed removals, plus the added
    /// recovery. The OR of their relations is exactly [`Outcome::pss`].
    pub fn pss_descs(&self) -> Vec<GroupDesc> {
        let mut descs: Vec<GroupDesc> = groups_of_protocol(self.ctx.protocol())
            .into_iter()
            .filter(|g| !self.removed_from_p.contains(g))
            .collect();
        descs.extend(self.added.iter().cloned());
        descs
    }

    /// Independently verify that `p_ss` is strongly stabilizing to `I`
    /// (closure + Proposition II.1).
    pub fn verify_strong(&mut self) -> bool {
        closure_holds(&mut self.ctx, self.pss, self.i)
            && strong_convergence(&mut self.ctx, self.pss, self.i)
    }

    /// Fallible variant of [`Outcome::verify_strong`] for budgeted runs.
    #[must_use = "failures are reported through the Result"]
    pub fn try_verify_strong(&mut self) -> Result<bool, BddError> {
        Ok(try_closure_holds(&mut self.ctx, self.pss, self.i)?
            && try_strong_convergence(&mut self.ctx, self.pss, self.i)?)
    }

    /// Independently verify weak stabilization.
    pub fn verify_weak(&mut self) -> bool {
        closure_holds(&mut self.ctx, self.pss, self.i)
            && weak_convergence(&mut self.ctx, self.pss, self.i)
    }

    /// Fallible variant of [`Outcome::verify_weak`] for budgeted runs.
    #[must_use = "failures are reported through the Result"]
    pub fn try_verify_weak(&mut self) -> Result<bool, BddError> {
        Ok(try_closure_holds(&mut self.ctx, self.pss, self.i)?
            && try_weak_convergence(&mut self.ctx, self.pss, self.i)?)
    }

    /// `δ_pss | I` must equal `δ_p | I` (Problem III.1, output constraint
    /// 2). Always true by construction; exposed for the test suite.
    pub fn preserves_i_behavior(&mut self) -> bool {
        let pss_in_i = self.ctx.restrict_relation(self.pss, self.i);
        // Also require: no pss transition *starts* in I beyond δ_p's
        // (recovery must not fire inside I at all).
        let p_in_i = self.ctx.restrict_relation(self.delta_p, self.i);
        let pss_from_i = self.ctx.mgr().and(self.pss, self.i);
        let p_from_i = self.ctx.mgr().and(self.delta_p, self.i);
        pss_in_i == p_in_i && pss_from_i == p_from_i
    }

    /// Materialize `p_ss` as a [`Protocol`]: the original guarded commands
    /// plus minimized recovery actions extracted from the added groups.
    pub fn extract_protocol(&self) -> Protocol {
        crate::extract::merge_into_protocol(self.ctx.protocol(), &self.added, &self.removed_from_p)
    }

    /// Pretty-print the added recovery, one guarded command per line.
    pub fn describe_recovery(&self) -> String {
        crate::extract::describe(self.ctx.protocol(), &self.added)
    }
}

/// Preprocessing (§V): drop every group of `p` with a transition on a
/// non-progress cycle of `δ_p | ¬I`. Returns the kept relation and the
/// dropped groups. The paper's preprocessing exits when such a group has
/// a groupmate starting in `I`, since dropping it would change `δ_p | I`.
fn preprocess(
    ctx: &mut SymbolicContext,
    i: Bdd,
    not_i: Bdd,
    delta_p: Bdd,
) -> Result<(Bdd, Vec<GroupDesc>), SynthesisError> {
    let groups = groups_of_protocol(ctx.protocol());
    let rels = groups
        .iter()
        .map(|g| ctx.try_group_relation(g))
        .collect::<Result<Vec<_>, _>>()
        .map_err(in_setup(ctx))?;
    let restricted = ctx.try_restrict_relation(delta_p, not_i).map_err(in_setup(ctx))?;
    ctx.register_roots(&[i, delta_p]);
    let check = try_cyclic_groups(ctx, restricted, not_i, &rels).map_err(in_setup(ctx))?;
    let mut removed = Vec::new();
    if !check.cyclic.contains(&true) {
        return Ok((delta_p, removed));
    }
    let mut keep = Bdd::FALSE;
    for ((g, rel), cyclic) in groups.into_iter().zip(rels).zip(check.cyclic) {
        if !cyclic {
            keep = ctx.mgr().try_or(keep, rel).map_err(in_setup(ctx))?;
            continue;
        }
        let src = ctx.try_group_source(&g).map_err(in_setup(ctx))?;
        if ctx.mgr().try_intersects(src, i).map_err(in_setup(ctx))? {
            return Err(SynthesisError::CycleUnremovable);
        }
        removed.push(g);
    }
    Ok((keep, removed))
}

/// Shared mutable state threaded through the passes. Three quantities are
/// maintained *incrementally* because the heuristic queries them after
/// every group addition: the synthesized relation, its restriction to
/// `¬I` (what cycle detection runs on), and the union of enabled-state
/// predicates (whose complement against `¬I` is the deadlock set — each
/// added group contributes its source cube, so no quantifier is needed).
struct Engine {
    ctx: SymbolicContext,
    i: Bdd,
    not_i: Bdd,
    delta_p: Bdd,
    pss: Bdd,
    /// `pss | ¬I` — maintained incrementally.
    pss_restricted: Bdd,
    /// States with at least one outgoing `pss` transition.
    enabled_union: Bdd,
    /// The rank predicates, kept as GC roots.
    rank_bdds: Vec<Bdd>,
    cands: CandidateSet,
    /// Descriptor → candidate index, built lazily for symmetry mode.
    cand_index: Option<std::collections::HashMap<GroupDesc, usize>>,
    added: Vec<GroupDesc>,
    stats: SynthesisStats,
    opts: Options,
}

impl Engine {
    /// The deadlock states: `¬I` states with no outgoing `pss` transition.
    fn deadlocks(&mut self) -> Result<Bdd, BddError> {
        let not_enabled = self.ctx.mgr().try_not(self.enabled_union)?;
        self.ctx.mgr().try_and(self.not_i, not_enabled)
    }

    /// Every handle the engine keeps across steps, plus `extra`: the roots
    /// of every collection during a solve.
    fn roots(&self, extra: &[Bdd]) -> Vec<Bdd> {
        let mut roots = self.cands.roots();
        roots.extend([
            self.i,
            self.not_i,
            self.delta_p,
            self.pss,
            self.pss_restricted,
            self.enabled_union,
        ]);
        roots.extend(self.rank_bdds.iter().copied());
        roots.extend_from_slice(extra);
        roots
    }

    /// The safe point before each schedule step: register the engine's
    /// handles and `extra` as the roots that every collection keeps during
    /// the step, then run the manager's safe point.
    fn safe_point(&mut self, extra: &[Bdd]) -> Result<(), BddError> {
        let roots = self.roots(extra);
        self.ctx.register_roots(&roots);
        self.ctx.mgr().safe_point(&[])
    }

    /// [`stopped`] in `phase`, with the engine's progress so far.
    fn fail<E: Into<StepError>>(&self, phase: Phase) -> impl Fn(E) -> SynthesisError + '_ {
        move |e| stopped(&self.ctx, phase, self.rank_bdds.len(), &self.added, e)
    }

    /// Commit the candidates `cis` as one batch: extend the synthesized
    /// relation, its `¬I` restriction and the enabled-state union by the
    /// unions of their relations and sources, then mark them included,
    /// append their descriptors in order and journal them under `journal`.
    /// `restricted`, when given, is the `¬I` restriction of exactly that
    /// relation union. The **only** way a group enters the result — shared
    /// by the live path and journal replay so both perform the identical
    /// symbolic updates. All three unions finish before any bookkeeping
    /// changes, so a budget error leaves `pss`, `added` and the journal
    /// consistent.
    fn commit_groups(
        &mut self,
        cis: &[usize],
        restricted: Option<Bdd>,
        journal: Option<(&mut CheckpointSession, (u8, u32, u32))>,
    ) -> Result<(), StepError> {
        if cis.is_empty() {
            return Ok(());
        }
        let (mut rel, mut src) = (Bdd::FALSE, Bdd::FALSE);
        for &ci in cis {
            rel = self.ctx.mgr().try_or(rel, self.cands.all[ci].relation)?;
            src = self.ctx.mgr().try_or(src, self.cands.all[ci].source)?;
        }
        let rel_restricted = match restricted {
            Some(r) => r,
            None => self.ctx.try_restrict_relation(rel, self.not_i)?,
        };
        let pss = self.ctx.mgr().try_or(self.pss, rel)?;
        let pss_restricted = self.ctx.mgr().try_or(self.pss_restricted, rel_restricted)?;
        let enabled_union = self.ctx.mgr().try_or(self.enabled_union, src)?;
        (self.pss, self.pss_restricted, self.enabled_union) = (pss, pss_restricted, enabled_union);
        let first = self.added.len();
        for &ci in cis {
            self.cands.all[ci].included = true;
            self.added.push(self.cands.all[ci].desc.clone());
        }
        self.stats.groups_added += cis.len();
        if let Some((c, (pass, rank, step))) = journal {
            for desc in &self.added[first..] {
                c.record_group(pass, rank, step, desc).map_err(StepError::Ckpt)?;
            }
        }
        Ok(())
    }

    /// Re-apply journaled groups (in journal order — which is the order
    /// the crashed run committed them, so `added` and every incremental
    /// predicate end up identical to that run's state).
    fn replay_groups(&mut self, groups: &[GroupDesc]) -> Result<(), StepError> {
        if groups.is_empty() {
            return Ok(());
        }
        let index =
            self.cand_index.get_or_insert_with(|| crate::symmetry::candidate_index(&self.cands));
        let mut cis = Vec::with_capacity(groups.len());
        for desc in groups {
            match index.get(desc) {
                Some(&ci) if !self.cands.all[ci].included && !cis.contains(&ci) => cis.push(ci),
                Some(_) => {}
                // The journal names a group this problem does not have:
                // it belongs to a different run (fingerprint collision).
                None => return Err(StepError::Ckpt(CheckpointError::Mismatch)),
            }
        }
        self.commit_groups(&cis, None, None)
    }

    /// `Add_Recovery` (Fig. 3): let process `j` contribute groups with a
    /// transition from `From` to `To`, excluding `ruledOutTrans`
    /// (`ruled_out_deadlocks` carries the pass-1-only C4 component; the C1
    /// component is baked into the candidate set), then run
    /// `Identify_Resolve_Cycles` and keep only the cycle-free additions.
    fn add_recovery(
        &mut self,
        from: Bdd,
        to: Bdd,
        j: usize,
        ruled_out_deadlocks: Option<Bdd>,
        key: (u8, u32, u32),
        ckpt: &mut Option<&mut CheckpointSession>,
    ) -> Result<bool, StepError> {
        let scan_start = Instant::now();
        let mut picked: Vec<usize> = Vec::new();
        let idxs = self.cands.by_process[j].clone();
        // A group with readable-source cube `src` (reads ← pre) and written
        // target `post` has a transition From → To iff
        //     src ∧ From ∧ To[writes ← post]  ≠  ∅,
        // because the target state agrees with the source everywhere else.
        // As `src` is a cube over the reads, that is
        //     From[reads ← pre] ∧ To[reads∖writes ← pre, writes ← post]  ≠  ∅,
        // one node-free test per candidate. The pass-1 C4 test (some
        // groupmate reaches a deadlock) is the same with `From` = true and
        // `To` = Dead.
        let proc = &self.ctx.protocol().processes()[j];
        let (reads, writes) = (proc.reads.clone(), proc.writes.clone());
        for ci in idxs {
            if self.cands.all[ci].included {
                continue;
            }
            let desc = &self.cands.all[ci].desc;
            let (mut lits_from, mut lits_to) = (Vec::new(), Vec::new());
            for (&r, &val) in reads.iter().zip(&desc.pre) {
                let lits = self.ctx.cur_literals(r, val);
                if !writes.contains(&r) {
                    lits_to.extend_from_slice(&lits);
                }
                lits_from.extend(lits);
            }
            for (&w, &val) in writes.iter().zip(&desc.post) {
                lits_to.extend(self.ctx.cur_literals(w, val));
            }
            // Must have a transition From → To.
            if !self.ctx.mgr().try_cofactors_intersect(from, &lits_from, to, &lits_to)? {
                continue;
            }
            // Pass-1 constraint C4: no groupmate may reach a deadlock.
            if let Some(dead) = ruled_out_deadlocks {
                if self.ctx.mgr().try_cofactors_intersect(Bdd::TRUE, &[], dead, &lits_to)? {
                    continue;
                }
            }
            picked.push(ci);
        }
        // Symmetry mode: expand every selected group to its full orbit, or
        // drop it when the orbit is not wholly available (which signals an
        // asymmetric invariant). Each cluster is accepted or rejected by
        // cycle resolution as a unit.
        let mut clusters: Vec<Vec<usize>> = Vec::new();
        let mut claimed: std::collections::HashSet<usize> = std::collections::HashSet::new();
        if let Some(sym) = self.opts.symmetry.clone() {
            let index = self
                .cand_index
                .get_or_insert_with(|| crate::symmetry::candidate_index(&self.cands))
                .clone();
            let protocol = self.ctx.protocol().clone();
            for ci in picked {
                if claimed.contains(&ci) {
                    continue;
                }
                match sym.orbit_indices(&protocol, &self.cands, &index, ci) {
                    Some(orbit) => {
                        let fresh: Vec<usize> = orbit
                            .into_iter()
                            .filter(|&m| !self.cands.all[m].included && !claimed.contains(&m))
                            .collect();
                        claimed.extend(fresh.iter().copied());
                        if !fresh.is_empty() {
                            clusters.push(fresh);
                        }
                    }
                    None => continue, // orbit incomplete: skip this group
                }
            }
        } else {
            clusters = picked.into_iter().map(|ci| vec![ci]).collect();
        }
        let mut cluster_rels = Vec::with_capacity(clusters.len());
        let mut union_added = Bdd::FALSE;
        for cluster in &clusters {
            let mut rel = self.cands.all[cluster[0]].relation;
            for &ci in &cluster[1..] {
                rel = self.ctx.mgr().try_or(rel, self.cands.all[ci].relation)?;
            }
            union_added = self.ctx.mgr().try_or(union_added, rel)?;
            cluster_rels.push(rel);
        }
        self.stats.scan_time += scan_start.elapsed();
        if clusters.is_empty() {
            return Ok(false);
        }
        // Identify_Resolve_Cycles over (pss ∪ added) | ¬I, whose pss part
        // is maintained incrementally and stays acyclic. badTrans: a whole
        // cluster is dropped if any member has a transition inside an SCC.
        let added_restricted = self.ctx.try_restrict_relation(union_added, self.not_i)?;
        let restricted = self.ctx.mgr().try_or(self.pss_restricted, added_restricted)?;
        let scc_start = Instant::now();
        let check = try_cyclic_added_groups(
            &mut self.ctx,
            restricted,
            added_restricted,
            self.not_i,
            &cluster_rels,
        )?;
        self.stats.scc_time += scc_start.elapsed();
        self.stats.scc_calls += 1;
        self.stats.sccs_found += check.sccs.len();
        for &scc in &check.sccs {
            self.stats.scc_nodes_total += self.ctx.mgr_ref().node_count(scc);
        }
        let include_start = Instant::now();
        let tried = clusters.len();
        let mut kept = 0usize;
        let mut kept_cis: Vec<usize> = Vec::new();
        for (cluster, cyclic) in clusters.into_iter().zip(check.cyclic) {
            if !cyclic {
                kept_cis.extend(cluster);
                kept += 1;
            }
        }
        // When every cluster survived, the kept union is `union_added`,
        // whose `¬I` restriction is already at hand.
        let restricted = (kept == tried).then_some(added_restricted);
        self.commit_groups(&kept_cis, restricted, ckpt.as_deref_mut().map(|c| (c, key)))?;
        self.stats.include_time += include_start.elapsed();
        if self.ctx.mgr_ref().tracer().level_enabled(TraceLevel::Debug) {
            self.ctx.mgr_ref().tracer().debug(
                "heuristic.step",
                &[
                    ("pass", Json::from(key.0 as u64)),
                    ("rank", Json::from(key.1 as u64)),
                    ("step", Json::from(key.2 as u64)),
                    ("tried", Json::from(tried as u64)),
                    ("kept", Json::from(kept as u64)),
                    ("discarded", Json::from((tried - kept) as u64)),
                ],
            );
        }
        Ok(kept > 0)
    }

    /// `Add_Convergence` (Fig. 3): walk the recovery schedule, letting each
    /// process add recovery from `From` to `To`; recompute deadlocks after
    /// every process and — in pass 1 — refresh the C4 rule-out set.
    /// Returns the remaining deadlock states.
    ///
    /// Each schedule step is keyed by `(pass, rank_key, step)` and takes
    /// one path: re-apply the groups a resumed journal holds for it
    /// (possibly none), then, unless the journal marks the step done, run
    /// `Add_Recovery` live with write-ahead journaling and fence the step.
    /// An unchecked run is the case "no groups, not done". Replayed state
    /// is canonical, so the control flow (deadlock recomputation, early
    /// exits) retraces the crashed run exactly.
    fn add_convergence(
        &mut self,
        from: Bdd,
        to: Bdd,
        mut deadlocks: Bdd,
        coord: (u8, u32),
        schedule: &Schedule,
        ckpt: &mut Option<&mut CheckpointSession>,
    ) -> Result<Bdd, StepError> {
        let (pass, rank_key) = coord;
        let mut ruled_out = if pass == 1 { Some(deadlocks) } else { None };
        for (step, p) in schedule.order().iter().enumerate() {
            self.safe_point(&[from, to, deadlocks])?;
            let key = (pass, rank_key, step as u32);
            let (groups, done) = match ckpt.as_deref() {
                Some(c) => c.journaled(key.0, key.1, key.2),
                None => (&[][..], false),
            };
            let mut changed = !groups.is_empty();
            self.replay_groups(groups)?;
            if !done {
                changed |= self.add_recovery(from, to, p.0, ruled_out, key, ckpt)?;
                if let Some(c) = ckpt.as_deref_mut() {
                    c.record_step_done(key.0, key.1, key.2, self.ctx.mgr_ref())
                        .map_err(StepError::Ckpt)?;
                }
            }
            if changed {
                let dl_start = Instant::now();
                deadlocks = self.deadlocks()?;
                self.stats.deadlock_time += dl_start.elapsed();
                if deadlocks.is_false() {
                    return Ok(deadlocks);
                }
            }
            if pass == 1 {
                ruled_out = Some(deadlocks);
            }
        }
        Ok(deadlocks)
    }

    /// `ComputeRanks` over `p_im` (§IV approximation). A resuming
    /// checkpoint session may hold journaled rank layers: when they are
    /// complete they are loaded instead of recomputed, otherwise the search
    /// continues from the loaded prefix (each layer is uniquely determined
    /// by `p_im` and `I`, so it is the very same search).
    fn compute_ranks(
        &mut self,
        ckpt: &mut Option<&mut CheckpointSession>,
    ) -> Result<RankTable, SynthesisError> {
        let (prefix, complete) = match ckpt.as_deref_mut() {
            Some(c) => {
                let loaded = c.load_rank_prefix(&mut self.ctx);
                let tracer = self.ctx.mgr_ref().tracer();
                for w in c.warnings() {
                    eprintln!("stsyn: checkpoint warning: {w}");
                    tracer.warn("checkpoint.warning", &[("message", Json::from(w.as_str()))]);
                }
                // Continue the crashed run's cumulative counters (gc runs,
                // cache probes, peak live) instead of restarting them with
                // the rebuilt manager.
                if let Some(prior) = c.prior_counters() {
                    self.ctx.mgr().adopt_counters(&prior);
                }
                loaded
            }
            None => (Vec::new(), false),
        };
        let table = if complete {
            // The journal certifies the layering finished, so `p_im` (only
            // ever used as the ranking relation) is not needed.
            let roots = self.roots(&prefix);
            self.ctx.register_roots(&roots);
            let mut explored = self.i;
            for &layer in &prefix {
                explored =
                    self.ctx.mgr().try_or(explored, layer).map_err(self.fail(Phase::Ranking))?;
            }
            let infinite = self.ctx.try_not_states(explored).map_err(self.fail(Phase::Ranking))?;
            Ok(RankTable { ranks: [&[self.i], &prefix[..]].concat(), explored, infinite })
        } else {
            let pim =
                self.cands.try_pim(&mut self.ctx, self.delta_p).map_err(self.fail(Phase::Setup))?;
            let roots = self.roots(&[&prefix[..], &[pim]].concat());
            self.ctx.register_roots(&roots);
            let mut persist = |mgr: &Manager, idx: usize, layer: Bdd| {
                if let Some(c) = ckpt.as_deref_mut() {
                    c.observe_rank_layer(mgr, idx, layer);
                }
            };
            let table =
                try_compute_ranks_resumed(&mut self.ctx, pim, self.i, &prefix, Some(&mut persist));
            if let Some(e) = ckpt.as_deref_mut().and_then(|c| c.take_error()) {
                return Err(SynthesisError::Checkpoint(e));
            }
            table
        };
        ranked(&self.ctx, table)
    }
}

/// Run the full heuristic for one schedule. This is the engine behind
/// [`crate::AddConvergence::synthesize`].
///
/// When [`Options::budget`] is set, every symbolic operation is budgeted;
/// a violation aborts the run with [`SynthesisError::ResourceExhausted`]
/// carrying the interrupted [`Phase`] and the partial progress salvaged so
/// far (exact rank layers, cycle-checked recovery groups).
pub fn synthesize(
    protocol: &Protocol,
    invariant: &Expr,
    opts: &Options,
    schedule: Schedule,
) -> Result<Outcome, SynthesisError> {
    synthesize_checkpointed(protocol, invariant, opts, schedule, None)
}

/// [`synthesize`] with an optional checkpoint session. When `ckpt` is
/// `Some`, every committed rank layer and recovery group is journaled
/// before the run proceeds past it, and journaled work found at startup is
/// *replayed* instead of recomputed. Because all heuristic decisions are
/// functions of the (canonical, hash-consed) BDD state, a resumed run
/// retraces the original exactly and the final outcome is bit-identical to
/// an uninterrupted run's.
pub(crate) fn synthesize_checkpointed(
    protocol: &Protocol,
    invariant: &Expr,
    opts: &Options,
    schedule: Schedule,
    mut ckpt: Option<&mut CheckpointSession>,
) -> Result<Outcome, SynthesisError> {
    if !schedule.is_permutation_of(protocol.num_processes()) {
        return Err(SynthesisError::BadSchedule);
    }
    let Setup { mut ctx, i, delta_p, started, span } = Setup::new(protocol, invariant, opts)?;
    let not_i = ctx.try_not_states(i).map_err(in_setup(&ctx))?;
    let (delta_p, removed_from_p) = preprocess(&mut ctx, i, not_i, delta_p)?;
    let pss_restricted = ctx.try_restrict_relation(delta_p, not_i).map_err(in_setup(&ctx))?;
    let enabled_union = ctx.try_enabled(delta_p).map_err(in_setup(&ctx))?;
    let cands = CandidateSet::try_build(&mut ctx, i).map_err(in_setup(&ctx))?;
    let mut engine = Engine {
        i,
        not_i,
        delta_p,
        pss: delta_p,
        pss_restricted,
        enabled_union,
        rank_bdds: Vec::new(),
        stats: SynthesisStats { candidates: cands.len(), ..SynthesisStats::default() },
        cands,
        cand_index: None,
        added: Vec::new(),
        opts: opts.clone(),
        ctx,
    };
    // Groups of p itself that qualify as candidates are already present in
    // pss; mark them included once, up front.
    if !delta_p.is_false() {
        for ci in 0..engine.cands.all.len() {
            let in_p = engine.ctx.mgr().try_implies_holds(engine.cands.all[ci].relation, delta_p);
            if in_p.map_err(engine.fail(Phase::Setup))? {
                engine.cands.all[ci].included = true;
            }
        }
    }
    span.close();

    let ranking_span = opts.tracer.span("phase.ranking");
    let rank_start = Instant::now();
    let ranks = engine.compute_ranks(&mut ckpt)?;
    engine.stats.ranking_time = rank_start.elapsed();
    ranking_span.close();
    engine.stats.max_rank = ranks.max_rank();
    if let Some(c) = ckpt.as_deref_mut() {
        c.record_ranks_done(ranks.max_rank()).map_err(SynthesisError::Checkpoint)?;
    }
    engine.rank_bdds = ranks.ranks.clone();
    let mut deadlocks = engine.deadlocks().map_err(engine.fail(Phase::Ranking))?;

    // --- Passes 1–3 ------------------------------------------------------
    // Passes 1 and 2 recover rank by rank, from the deadlocks of `Rank[ri]`
    // to `Rank[ri − 1]`; pass 3 from all remaining deadlocks to anywhere.
    let mut finished = 0u8;
    if !deadlocks.is_false() {
        let recovery_span = opts.tracer.span("phase.recovery");
        'passes: for pass in 1u8..=3 {
            let rank_keys = if pass <= 2 { 1..=ranks.max_rank() } else { 0..=0 };
            for ri in rank_keys {
                let (from, to) = if pass <= 2 {
                    let from = engine.ctx.mgr().try_and(ranks.rank(ri), deadlocks);
                    (from.map_err(engine.fail(Phase::Recovery { pass }))?, ranks.rank(ri - 1))
                } else {
                    (deadlocks, engine.ctx.all_states())
                };
                if from.is_false() {
                    continue;
                }
                deadlocks = engine
                    .add_convergence(from, to, deadlocks, (pass, ri as u32), &schedule, &mut ckpt)
                    .map_err(engine.fail(Phase::Recovery { pass }))?;
                if deadlocks.is_false() {
                    finished = pass;
                    break 'passes;
                }
            }
        }
        if !deadlocks.is_false() {
            let remaining = engine.ctx.count_states(deadlocks);
            return Err(SynthesisError::DeadlocksRemain { remaining });
        }
        recovery_span.close();
    }

    engine.stats.finished_in_pass = finished;
    let outcome = Outcome {
        ctx: engine.ctx,
        i,
        delta_p,
        pss: engine.pss,
        added: engine.added,
        removed_from_p,
        stats: engine.stats,
        schedule,
    }
    .finish(started);
    if opts.tracer.level_enabled(TraceLevel::Info) {
        opts.tracer.info("synthesis.stats", &outcome.stats.record());
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stsyn_protocol::action::Action;
    use stsyn_protocol::topology::{ProcessDecl, VarDecl};
    use stsyn_protocol::{ProcIdx, VarIdx};

    fn c() -> Expr {
        Expr::var(VarIdx(0))
    }

    fn one_var(n: u32, actions: Vec<Action>) -> Protocol {
        let vars = vec![VarDecl::new("c", n)];
        let procs = vec![ProcessDecl::new("P0", vec![VarIdx(0)], vec![VarIdx(0)]).unwrap()];
        Protocol::new(vars, procs, actions).unwrap()
    }

    #[test]
    fn synthesizes_recovery_for_empty_protocol() {
        // No actions, I = {c == 0}: heuristic must add recovery from every
        // other state.
        let p = one_var(4, vec![]);
        let i = c().eq(Expr::int(0));
        let mut out = synthesize(&p, &i, &Options::default(), Schedule::identity(1)).unwrap();
        assert!(out.verify_strong());
        assert!(out.preserves_i_behavior());
        assert!(!out.added.is_empty());
        assert!(out.stats.finished_in_pass >= 1);
    }

    #[test]
    fn already_stabilizing_protocol_needs_nothing() {
        // c < 3 → c := c + 1 already converges to c == 3.
        let inc =
            Action::new(ProcIdx(0), c().lt(Expr::int(3)), vec![(VarIdx(0), c().add(Expr::int(1)))]);
        let p = one_var(4, vec![inc]);
        let i = c().eq(Expr::int(3));
        let mut out = synthesize(&p, &i, &Options::default(), Schedule::identity(1)).unwrap();
        assert!(out.added.is_empty());
        assert_eq!(out.stats.finished_in_pass, 0);
        assert!(out.verify_strong());
    }

    #[test]
    fn rejects_unclosed_invariant() {
        // 0 → 1 but I = {0}: not closed.
        let esc = Action::new(ProcIdx(0), c().eq(Expr::int(0)), vec![(VarIdx(0), Expr::int(1))]);
        let p = one_var(2, vec![esc]);
        let i = c().eq(Expr::int(0));
        assert!(matches!(
            synthesize(&p, &i, &Options::default(), Schedule::identity(1)),
            Err(SynthesisError::NotClosed)
        ));
    }

    #[test]
    fn rejects_empty_invariant() {
        let p = one_var(2, vec![]);
        let i = Expr::Bool(false);
        assert!(matches!(
            synthesize(&p, &i, &Options::default(), Schedule::identity(1)),
            Err(SynthesisError::EmptyInvariant)
        ));
    }

    #[test]
    fn rejects_bad_schedule() {
        let p = one_var(2, vec![]);
        let i = c().eq(Expr::int(0));
        assert!(matches!(
            synthesize(&p, &i, &Options::default(), Schedule::identity(3)),
            Err(SynthesisError::BadSchedule)
        ));
    }

    #[test]
    fn impossible_when_variable_unwritable() {
        // Two vars; P0 can only read (not write) `b`, and I pins b == 0:
        // states with b == 1 can never recover (rank ∞).
        let vars = vec![VarDecl::new("a", 2), VarDecl::new("b", 2)];
        let procs =
            vec![ProcessDecl::new("P0", vec![VarIdx(0), VarIdx(1)], vec![VarIdx(0)]).unwrap()];
        let p = Protocol::new(vars, procs, vec![]).unwrap();
        let i = Expr::var(VarIdx(1)).eq(Expr::int(0)).and(Expr::var(VarIdx(0)).eq(Expr::int(0)));
        match synthesize(&p, &i, &Options::default(), Schedule::identity(1)) {
            Err(SynthesisError::NoStabilizingVersion { unreachable_states }) => {
                assert_eq!(unreachable_states, 2.0); // the two b == 1 states
            }
            Ok(_) => panic!("expected NoStabilizingVersion, got a success"),
            Err(other) => panic!("expected NoStabilizingVersion, got {other:?}"),
        }
    }

    #[test]
    fn preprocessing_rejects_protected_cycle() {
        // 1 → 2 → 1 is a ¬I cycle; P0 reads/writes everything so each
        // action is a singleton group. Make one cycle group also start in
        // I by... here groups are per-valuation so the cycle groups start
        // only at 1/2. Give the *same group* an I-transition by making I
        // contain state 1: then the 1→2 group starts inside I and the
        // cycle is unremovable.
        let a12 = Action::new(ProcIdx(0), c().eq(Expr::int(1)), vec![(VarIdx(0), Expr::int(2))]);
        let a21 = Action::new(ProcIdx(0), c().eq(Expr::int(2)), vec![(VarIdx(0), Expr::int(1))]);
        let p = one_var(3, vec![a12, a21]);
        // I = {1}: not closed though (1→2 leaves I) — use I = {0} with a
        // self-contained cycle outside I instead and verify removal works,
        // then the protected case via closure... Here: I = {0}.
        let i = c().eq(Expr::int(0));
        // Cycle 1↔2 lies outside I and neither group starts in I, so the
        // preprocessing may *remove* both groups and then add recovery.
        let mut out = synthesize(&p, &i, &Options::default(), Schedule::identity(1)).unwrap();
        assert!(out.verify_strong());
        assert_eq!(out.removed_from_p.len(), 2);
    }

    #[test]
    fn stats_are_populated() {
        let p = one_var(5, vec![]);
        let i = c().eq(Expr::int(2));
        let out = synthesize(&p, &i, &Options::default(), Schedule::identity(1)).unwrap();
        assert!(out.stats.candidates > 0);
        assert!(out.stats.groups_added > 0);
        assert!(out.stats.program_nodes > 0);
        assert!(out.stats.max_rank >= 1);
        assert!(out.stats.total_time >= out.stats.ranking_time);
    }
}
