//! Dynamic variable reordering: adjacent-level swap and Rudell's sifting.
//!
//! The variable order makes or breaks BDD sizes (the paper's §VII blames
//! part of STSyn's irregular behaviour on "BDDs not effectively
//! optimized"). This module provides the classical remedy: each variable
//! is *sifted* through every position of the order by repeated adjacent
//! swaps and left at the position minimizing the live node count.
//!
//! ## Contract
//!
//! * Node indices — and therefore every outstanding [`Bdd`] handle — stay
//!   valid across reordering: a swap rewrites affected nodes **in place**,
//!   so a handle denotes the same boolean function before and after.
//! * Interned [`crate::VarSetId`]s and [`crate::RenameId`]s store
//!   order-dependent level information and are invalidated: the reorder
//!   generation is bumped and any use of a stale id panics with a clear
//!   message. Re-intern after sifting.
//! * The implementation favours clarity over raw speed: finding the nodes
//!   of a level scans the unique table (`O(arena)` per swap), which
//!   is fine for the analysis workloads it targets; production CUDD keeps
//!   per-level lists.

use crate::manager::{Bdd, Manager, Node, VarId, TERMINAL_LEVEL};
use stsyn_obs::{Json, TraceLevel};

impl Manager {
    /// Emit a `bdd.reorder` event with before/after root-cone sizes.
    fn trace_reorder(&self, kind: &'static str, before: usize, after: usize) {
        if self.tracer.level_enabled(TraceLevel::Info) {
            self.tracer.info(
                "bdd.reorder",
                &[
                    ("reorder", Json::from(kind)),
                    ("before", Json::from(before as u64)),
                    ("after", Json::from(after as u64)),
                ],
            );
        }
    }

    /// Swap the variables at `level` and `level + 1`, preserving the
    /// function of every node index. Returns the change in live node
    /// count (negative = shrank).
    pub fn swap_adjacent(&mut self, level: u32) -> isize {
        let l = level as usize;
        assert!(l + 1 < self.perm.len(), "swap_adjacent out of range");
        let x = self.invperm[l]; // variable moving down
        let y = self.invperm[l + 1]; // variable moving up
        let before = self.unique.len() as isize;

        // Collect the x-labeled nodes that interact with y: they must be
        // restructured. (Nodes of x without y-children simply change level
        // with the permutation; nodes of other variables are untouched.)
        let affected: Vec<u32> = self
            .unique
            .iter()
            .filter(|&idx| {
                let n = self.nodes[idx as usize];
                n.var == x
                    && (self.nodes[n.lo as usize].var == y || self.nodes[n.hi as usize].var == y)
            })
            .collect();

        // Update the permutation first so `mk` places new x-nodes below y.
        self.perm[x as usize] = level + 1;
        self.perm[y as usize] = level;
        self.invperm[l] = y;
        self.invperm[l + 1] = x;

        for idx in affected {
            let n = self.nodes[idx as usize];
            debug_assert_eq!(n.var, x);
            let (f0, f1) = (n.lo, n.hi);
            let cof = |m: &Manager, f: u32| -> (u32, u32) {
                let fn_ = m.nodes[f as usize];
                if fn_.var == y {
                    (fn_.lo, fn_.hi)
                } else {
                    (f, f)
                }
            };
            let (f00, f01) = cof(self, f0);
            let (f10, f11) = cof(self, f1);
            // New else/then children test x (now one level lower).
            let a = self.mk(x, Bdd(f00), Bdd(f10));
            let b = self.mk(x, Bdd(f01), Bdd(f11));
            debug_assert_ne!(a, b, "swap produced a redundant node");
            // Rewrite idx in place as a y-node; the index keeps denoting
            // the same function, so parents and external handles survive.
            // It leaves the unique table under its old key and re-enters
            // under the new one.
            self.unique.remove(&self.nodes, idx);
            self.nodes[idx as usize] = Node { var: y, lo: a.index(), hi: b.index() };
            self.unique.insert(&self.nodes, idx);
        }
        // Level information changed: structural caches keyed by varset or
        // rename ids would be stale; conservative flush. (Pure node-index
        // caches — and/or/not/ite — remain valid because node functions
        // are preserved, but we flush everything for simplicity.)
        self.computed.clear();
        self.unique.len() as isize - before
    }

    /// Rudell's sifting: move every variable through all positions of the
    /// order (by adjacent swaps) and leave it where the total size of the
    /// `roots` cones is minimal. Garbage-collects against `roots` before
    /// and after. Bumps the reorder generation (stale varset/rename ids
    /// will panic on use). Returns `(nodes_before, nodes_after)` measured
    /// over the root cones.
    pub fn sift(&mut self, roots: &[Bdd]) -> (usize, usize) {
        self.gc(roots);
        let before = self.node_count_many(roots);
        let n = self.perm.len();
        if n >= 2 {
            // Process variables in decreasing occurrence order — the
            // standard heuristic: big levels first.
            let mut occupancy: Vec<(usize, VarId)> = (0..n)
                .map(|v| {
                    let count = self
                        .unique
                        .iter()
                        .filter(|&idx| self.nodes[idx as usize].var as usize == v)
                        .count();
                    (count, VarId(v as u32))
                })
                .collect();
            occupancy.sort_by_key(|e| std::cmp::Reverse(e.0));
            for (_, v) in occupancy {
                self.sift_one(v, roots);
            }
        }
        self.order_generation += 1;
        self.varsets.clear();
        self.varset_ids.clear();
        self.renames.clear();
        self.rename_ids.clear();
        self.computed.clear();
        self.gc(roots);
        let after = self.node_count_many(roots);
        self.trace_reorder("sift", before, after);
        (before, after)
    }

    /// Sift a single variable to the level minimizing the root-cone size.
    /// Swaps leave dead nodes behind (no reference counting), so the
    /// metric is recomputed from the roots after every swap.
    fn sift_one(&mut self, v: VarId, roots: &[Bdd]) {
        // Swaps strand dead nodes in the unique table, and every swap scans
        // that table — collect up front so each pass stays O(live).
        self.gc(roots);
        let n = self.perm.len() as u32;
        let start = self.perm[v.0 as usize];
        let mut best_size = self.node_count_many(roots);
        let mut best_level = start;
        // Phase 1: sink to the bottom.
        let mut level = start;
        while level + 1 < n {
            self.swap_adjacent(level);
            level += 1;
            let size = self.node_count_many(roots);
            if size < best_size {
                best_size = size;
                best_level = level;
            }
        }
        self.gc(roots);
        // Phase 2: float to the top.
        while level > 0 {
            self.swap_adjacent(level - 1);
            level -= 1;
            let size = self.node_count_many(roots);
            if size < best_size {
                best_size = size;
                best_level = level;
            }
        }
        self.gc(roots);
        // Phase 3: descend to the best position seen.
        while level < best_level {
            self.swap_adjacent(level);
            level += 1;
        }
        debug_assert_eq!(self.perm[v.0 as usize], best_level);
    }

    /// Sift *pairs* of variables as indivisible 2-blocks, preserving the
    /// interleaved `(current, primed)` layout the symbolic engine relies
    /// on. Used by the budget degradation path ([`Manager::safe_point`])
    /// because — unlike [`Manager::sift`] — it does **not** bump the reorder
    /// generation: within-pair adjacency is maintained, so interned rename
    /// maps (keyed by variable id) stay strictly monotone, and interned
    /// varsets are remapped in place to their new level lists under the
    /// same ids.
    ///
    /// `pairs` must tile the whole order as adjacent `(cur, primed)`
    /// blocks with `cur` at an even level; if they do not (or there are
    /// fewer than two blocks) the call is a no-op. Returns
    /// `(nodes_before, nodes_after)` over the root cones.
    pub fn sift_pairs(&mut self, pairs: &[(VarId, VarId)], roots: &[Bdd]) -> (usize, usize) {
        self.gc(roots);
        let before = self.node_count_many(roots);
        let n = self.perm.len();
        let tiles = n.is_multiple_of(2)
            && pairs.len() * 2 == n
            && pairs.iter().all(|&(c, p)| {
                let lc = self.perm[c.0 as usize];
                lc.is_multiple_of(2) && self.perm[p.0 as usize] == lc + 1
            });
        if !tiles || pairs.len() < 2 {
            return (before, before);
        }
        // Varset ids survive this reordering: snapshot each interned level
        // list as variable ids now, rewrite to the new levels afterwards.
        let saved_varsets: Vec<Vec<u32>> = self
            .varsets
            .iter()
            .map(|levels| levels.iter().map(|&l| self.invperm[l as usize]).collect())
            .collect();

        let nblocks = pairs.len();
        let mut occupancy: Vec<(usize, VarId, VarId)> = pairs
            .iter()
            .map(|&(c, p)| {
                let count = self
                    .unique
                    .iter()
                    .filter(|&idx| {
                        let var = self.nodes[idx as usize].var;
                        var == c.0 || var == p.0
                    })
                    .count();
                (count, c, p)
            })
            .collect();
        occupancy.sort_by_key(|e| std::cmp::Reverse(e.0));
        for (_, c, p) in occupancy {
            self.sift_block(c, p, nblocks, roots);
        }

        // Rewrite the interned varsets to their level lists under the new
        // order; indices (and thus outstanding `VarSetId`s) are unchanged,
        // which is why the generation is *not* bumped.
        for (idx, vars) in saved_varsets.iter().enumerate() {
            let mut levels: Vec<u32> = vars.iter().map(|&v| self.perm[v as usize]).collect();
            levels.sort_unstable();
            self.varsets[idx] = levels;
        }
        self.varset_ids.clear();
        for (idx, levels) in self.varsets.iter().enumerate() {
            self.varset_ids.insert(levels.clone(), idx as u32);
        }
        self.computed.clear();
        self.gc(roots);
        let after = self.node_count_many(roots);
        self.trace_reorder("sift_pairs", before, after);
        (before, after)
    }

    /// Exchange the adjacent 2-blocks at levels `[2k, 2k+1]` and
    /// `[2k+2, 2k+3]` with four adjacent swaps; both blocks keep their
    /// internal (cur, primed) order.
    fn exchange_blocks(&mut self, k: usize) {
        let l = 2 * k as u32;
        // [x0 x1 y0 y1] → [x0 y0 x1 y1] → [y0 x0 x1 y1]
        //              → [y0 x0 y1 x1] → [y0 y1 x0 x1]
        self.swap_adjacent(l + 1);
        self.swap_adjacent(l);
        self.swap_adjacent(l + 2);
        self.swap_adjacent(l + 1);
    }

    /// Sift one (cur, primed) block to the position minimizing the
    /// root-cone size, mirroring [`Manager::sift_one`] at block
    /// granularity.
    fn sift_block(&mut self, c: VarId, p: VarId, nblocks: usize, roots: &[Bdd]) {
        self.gc(roots);
        let start_block = (self.perm[c.0 as usize] / 2) as usize;
        let mut best_size = self.node_count_many(roots);
        let mut best_block = start_block;
        // Phase 1: sink to the bottom.
        let mut block = start_block;
        while block + 1 < nblocks {
            self.exchange_blocks(block);
            block += 1;
            let size = self.node_count_many(roots);
            if size < best_size {
                best_size = size;
                best_block = block;
            }
        }
        self.gc(roots);
        // Phase 2: float to the top.
        while block > 0 {
            self.exchange_blocks(block - 1);
            block -= 1;
            let size = self.node_count_many(roots);
            if size < best_size {
                best_size = size;
                best_block = block;
            }
        }
        self.gc(roots);
        // Phase 3: descend to the best position seen.
        while block < best_block {
            self.exchange_blocks(block);
            block += 1;
        }
        debug_assert_eq!(self.perm[c.0 as usize] as usize, 2 * best_block);
        debug_assert_eq!(self.perm[p.0 as usize] as usize, 2 * best_block + 1);
    }

    /// Deterministically restore or impose a target variable order (e.g.
    /// one computed offline) by bubble-sorting with adjacent swaps. Bumps
    /// the reorder generation like [`Manager::sift`].
    pub fn reorder_to(&mut self, target: &[VarId], roots: &[Bdd]) {
        assert_eq!(target.len(), self.perm.len(), "order must list every variable");
        let mut seen = vec![false; target.len()];
        for v in target {
            assert!(!seen[v.0 as usize], "duplicate variable in target order");
            seen[v.0 as usize] = true;
        }
        // Selection-sort the levels top-down; O(n²) swaps.
        let n = self.perm.len() as u32;
        for level in 0..n {
            // Find the variable that should sit at `level` and bubble it up.
            let v = target[level as usize];
            let mut cur = self.perm[v.0 as usize];
            while cur > level {
                self.swap_adjacent(cur - 1);
                cur -= 1;
            }
            self.gc(roots);
        }
        self.order_generation += 1;
        self.varsets.clear();
        self.varset_ids.clear();
        self.renames.clear();
        self.rename_ids.clear();
        self.computed.clear();
        self.gc(roots);
        debug_assert_eq!(self.current_order(), target);
    }

    /// The current variable order, top to bottom (for diagnostics).
    pub fn current_order(&self) -> Vec<VarId> {
        self.invperm.iter().map(|&v| VarId(v)).collect()
    }

    /// Sanity check (used by tests): every node in the unique table is
    /// found by its own key, and its variable sits strictly above its
    /// children's in the current order.
    pub fn check_order_invariant(&self) -> bool {
        self.unique.iter().all(|idx| {
            let n = self.nodes[idx as usize];
            if self.unique.find(&self.nodes, n) != Ok(idx) {
                return false; // unique table out of sync
            }
            let level = self.perm[n.var as usize];
            let ok = |child: u32| {
                let cv = self.nodes[child as usize].var;
                cv == TERMINAL_LEVEL || self.perm[cv as usize] > level
            };
            ok(n.lo) && ok(n.hi)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build a function from a 32-row truth table over 5 variables.
    fn from_table(m: &mut Manager, vars: &[VarId], table: u32) -> Bdd {
        let mut f = Bdd::FALSE;
        for row in 0..32u32 {
            if (table >> row) & 1 == 1 {
                let lits: Vec<Bdd> =
                    (0..5).map(|i| m.literal(vars[i], (row >> i) & 1 == 1)).collect();
                let cube = m.and_many(&lits);
                f = m.or(f, cube);
            }
        }
        f
    }

    fn truth_table(m: &Manager, f: Bdd) -> u32 {
        let mut t = 0u32;
        for row in 0..32u32 {
            let asg: Vec<bool> = (0..5).map(|i| (row >> i) & 1 == 1).collect();
            if m.eval(f, &asg) {
                t |= 1 << row;
            }
        }
        t
    }

    #[test]
    fn swap_preserves_functions() {
        let mut lcg = 0x1234_5678_9abc_def0u64;
        for _ in 0..40 {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let table = (lcg >> 24) as u32;
            let mut m = Manager::new();
            let vars = m.new_vars(5);
            let f = from_table(&mut m, &vars, table);
            assert_eq!(truth_table(&m, f), table);
            for level in [0u32, 2, 3, 1, 0, 3] {
                m.swap_adjacent(level);
                assert!(m.check_order_invariant(), "order invariant broken");
                assert_eq!(truth_table(&m, f), table, "function changed by swap");
            }
        }
    }

    #[test]
    fn swap_is_its_own_inverse_on_sizes() {
        let mut m = Manager::new();
        let vars = m.new_vars(5);
        let f = from_table(&mut m, &vars, 0xDEAD_BEEF);
        m.gc(&[f]);
        let before = m.live_nodes();
        let _ = m.swap_adjacent(1);
        let _ = m.swap_adjacent(1);
        // Two swaps restore the order; dead nodes accumulate (no reference
        // counting) but after a collection the arena is exactly as before.
        m.gc(&[f]);
        assert_eq!(m.live_nodes(), before);
        assert_eq!(m.current_order(), vars);
    }

    #[test]
    fn canonicity_holds_after_swap() {
        let mut m = Manager::new();
        let vars = m.new_vars(5);
        let f = from_table(&mut m, &vars, 0x0F0F_3CC3);
        m.swap_adjacent(0);
        m.swap_adjacent(2);
        // Rebuilding the same function under the new order must return the
        // identical handle.
        let g = from_table(&mut m, &vars, 0x0F0F_3CC3);
        assert_eq!(f, g);
    }

    #[test]
    fn sift_shrinks_the_classic_worst_case() {
        // f = (x0 ∧ x3) ∨ (x1 ∧ x4) ∨ (x2 ∧ x5) with the pairs maximally
        // separated: exponential under the given order, linear when the
        // pairs are adjacent. Sifting must find a big reduction.
        let mut m = Manager::new();
        let vars = m.new_vars(6);
        let mut f = Bdd::FALSE;
        for i in 0..3 {
            let a = m.var(vars[i]);
            let b = m.var(vars[i + 3]);
            let pair = m.and(a, b);
            f = m.or(f, pair);
        }
        m.gc(&[f]);
        let before = m.node_count(f);
        let (live_before, live_after) = m.sift(&[f]);
        assert!(live_after <= live_before);
        let after = m.node_count(f);
        assert!(after < before, "sift must shrink {before} → {after}");
        assert!(m.check_order_invariant());
        // Function unchanged.
        for row in 0..64u32 {
            let asg: Vec<bool> = (0..6).map(|i| (row >> i) & 1 == 1).collect();
            let expect = (asg[0] && asg[3]) || (asg[1] && asg[4]) || (asg[2] && asg[5]);
            assert_eq!(m.eval(f, &asg), expect);
        }
    }

    #[test]
    fn sift_invalidates_varsets_and_renames() {
        let mut m = Manager::new();
        let vars = m.new_vars(4);
        let f = {
            let a = m.var(vars[0]);
            let b = m.var(vars[2]);
            m.and(a, b)
        };
        let stale_set = m.varset(&[vars[0]]);
        m.sift(&[f]);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.exists(f, stale_set);
        }));
        assert!(result.is_err(), "stale varset must panic");
        // Fresh interning works and is correct.
        let fresh = m.varset(&[vars[0]]);
        let e = m.exists(f, fresh);
        let b = m.var(vars[2]);
        assert_eq!(e, b);
    }

    #[test]
    fn sift_pairs_preserves_varsets_and_renames() {
        let mut m = Manager::new();
        let vs = m.new_vars(8); // four interleaved (cur, primed) pairs
        let pairs: Vec<(VarId, VarId)> = (0..4).map(|i| (vs[2 * i], vs[2 * i + 1])).collect();
        let cur: Vec<Bdd> = (0..4).map(|i| m.var(vs[2 * i])).collect();
        // Pairs of *blocks* maximally separated: (c0 ∧ c2) ∨ (c1 ∧ c3).
        let f = {
            let a = m.and(cur[0], cur[2]);
            let b = m.and(cur[1], cur[3]);
            m.or(a, b)
        };
        let primed_set = m.varset(&[vs[1], vs[3], vs[5], vs[7]]);
        let to_primed =
            m.rename_map(&[(vs[0], vs[1]), (vs[2], vs[3]), (vs[4], vs[5]), (vs[6], vs[7])]);
        let fp_before = m.rename(f, to_primed);
        let back_before = m.exists(fp_before, primed_set);
        assert!(back_before.is_true());

        let (before, after) = m.sift_pairs(&pairs, &[f, fp_before]);
        assert!(after <= before);
        assert!(m.check_order_invariant());
        // The pair layout is intact...
        for &(c, p) in &pairs {
            let lc = m.perm[c.0 as usize];
            assert_eq!(lc % 2, 0);
            assert_eq!(m.perm[p.0 as usize], lc + 1);
        }
        // ...and the *same* interned ids still work and agree.
        let fp_after = m.rename(f, to_primed);
        assert_eq!(fp_after, fp_before);
        assert!(m.exists(fp_after, primed_set).is_true());
    }

    #[test]
    fn sift_pairs_rejects_non_tiling_pairs() {
        let mut m = Manager::new();
        let vs = m.new_vars(6);
        let a = m.var(vs[0]);
        let b = m.var(vs[2]);
        let f = m.and(a, b);
        m.gc(&[f]);
        let live = m.node_count_many(&[f]);
        // Swapped (primed, cur) pairs do not tile the order: no-op.
        let bad: Vec<(VarId, VarId)> = (0..3).map(|i| (vs[2 * i + 1], vs[2 * i])).collect();
        assert_eq!(m.sift_pairs(&bad, &[f]), (live, live));
        // Too few pairs: no-op as well.
        assert_eq!(m.sift_pairs(&[(vs[0], vs[1])], &[f]), (live, live));
    }

    #[test]
    fn reorder_to_reverses_and_restores() {
        let mut m = Manager::new();
        let vars = m.new_vars(5);
        let f = from_table(&mut m, &vars, 0xA5A5_5A5A);
        let table = truth_table(&m, f);
        let reversed: Vec<VarId> = vars.iter().rev().copied().collect();
        m.reorder_to(&reversed, &[f]);
        assert_eq!(m.current_order(), reversed);
        assert!(m.check_order_invariant());
        assert_eq!(truth_table(&m, f), table);
        m.reorder_to(&vars, &[f]);
        assert_eq!(m.current_order(), vars);
        assert_eq!(truth_table(&m, f), table);
    }

    #[test]
    fn handles_survive_sift() {
        let mut m = Manager::new();
        let vars = m.new_vars(5);
        let f = from_table(&mut m, &vars, 0xCAFE_BABE);
        let g = from_table(&mut m, &vars, 0x1357_9BDF);
        let t_f = truth_table(&m, f);
        let t_g = truth_table(&m, g);
        m.sift(&[f, g]);
        assert_eq!(truth_table(&m, f), t_f);
        assert_eq!(truth_table(&m, g), t_g);
        // Operations still work after sifting.
        let h = m.and(f, g);
        assert_eq!(truth_table(&m, h), t_f & t_g);
    }
}
