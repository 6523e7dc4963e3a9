//! The BDD manager: node arena, hash-consing unique table, computed
//! table, variable allocation, and mark-and-sweep garbage collection.

use crate::hash::FxHashMap;
use crate::table::{ComputedTable, Op, UniqueTable};
use stsyn_obs::{Json, TraceLevel, Tracer};

/// A BDD variable, identified by its *level* (position in the global
/// variable order). Levels are assigned in creation order by
/// [`Manager::new_var`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub u32);

impl VarId {
    /// The level of this variable in the manager's order.
    #[inline]
    pub fn level(self) -> u32 {
        self.0
    }
}

/// A handle to a (shared, immutable) BDD node owned by a [`Manager`].
///
/// Handles are plain indices: copying is free and **equality of handles is
/// equivalence of the boolean functions** they denote, thanks to
/// hash-consing. A handle is only meaningful together with the manager that
/// produced it, and is invalidated if a [`Manager::gc`] call runs without
/// listing it (directly or transitively) among the roots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bdd(pub(crate) u32);

impl Bdd {
    /// The constant-`false` function.
    pub const FALSE: Bdd = Bdd(0);
    /// The constant-`true` function.
    pub const TRUE: Bdd = Bdd(1);

    /// Is this the constant `false`?
    #[inline]
    pub fn is_false(self) -> bool {
        self.0 == 0
    }

    /// Is this the constant `true`?
    #[inline]
    pub fn is_true(self) -> bool {
        self.0 == 1
    }

    /// Is this one of the two terminal nodes?
    #[inline]
    pub fn is_const(self) -> bool {
        self.0 <= 1
    }

    /// The raw arena index (for diagnostics only).
    #[inline]
    pub fn index(self) -> u32 {
        self.0
    }
}

/// Level value used for the two terminal nodes: below every real variable.
pub(crate) const TERMINAL_LEVEL: u32 = u32::MAX;

/// One decision node: `if var then hi else lo`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Node {
    pub var: u32,
    pub lo: u32,
    pub hi: u32,
}

/// Point-in-time counters describing a manager, used by the benchmark
/// harness to reproduce the paper's space figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ManagerStats {
    /// Nodes currently reachable (allocated minus freed), terminals included.
    pub live_nodes: usize,
    /// Total arena slots ever allocated (high-water mark of the arena).
    pub allocated_nodes: usize,
    /// Maximum `live_nodes` ever observed.
    pub peak_live_nodes: usize,
    /// Number of garbage collections performed.
    pub gc_runs: usize,
    /// Number of boolean variables created.
    pub num_vars: usize,
    /// Computed-table probes by every memoized operation (apply/ITE/not/
    /// exists/and-exists/rename/intersects). The table is lossy, so a
    /// result it forgot is recomputed and probed for again.
    pub cache_lookups: u64,
    /// Probes that hit (the paper's workloads live or die by this rate).
    pub cache_hits: u64,
}

impl ManagerStats {
    /// Cache hit rate in `[0, 1]`, or 0 when no probe has happened.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.cache_lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.cache_lookups as f64
        }
    }
}

/// Tags for the memoized binary operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BinOp {
    And,
    Or,
    Xor,
}

/// The owner of all BDD nodes: allocates variables, hash-conses nodes, and
/// hosts every operation (as `&mut self` methods, since operations may
/// create nodes and populate caches).
pub struct Manager {
    pub(crate) nodes: Vec<Node>,
    pub(crate) unique: UniqueTable,
    pub(crate) free: Vec<u32>,
    num_vars: u32,
    /// Variable → level (position in the order). Identity until the first
    /// reordering.
    pub(crate) perm: Vec<u32>,
    /// Level → variable (inverse of `perm`).
    pub(crate) invperm: Vec<u32>,
    /// Bumped by every reordering; interned varsets and rename maps carry
    /// the generation they were created under and refuse to be used after
    /// a reorder (their cached level information would be stale).
    pub(crate) order_generation: u32,

    /// Memo of every operation (cleared on GC and reordering).
    pub(crate) computed: ComputedTable,

    // Interned variable sets / rename maps (survive GC).
    pub(crate) varsets: Vec<Vec<u32>>,
    pub(crate) varset_ids: FxHashMap<Vec<u32>, u32>,
    pub(crate) renames: Vec<Vec<(u32, u32)>>,
    pub(crate) rename_ids: FxHashMap<Vec<(u32, u32)>, u32>,

    gc_runs: usize,
    peak_live: usize,
    pub(crate) cache_lookups: u64,
    pub(crate) cache_hits: u64,
    pub(crate) tracer: Tracer,

    // Resource budget, registered persistent roots, interleaved
    // (current, primed) pairs for the degradation path and the safe
    // points' collection trigger (see `budget.rs`).
    pub(crate) budget: crate::budget::BudgetState,
    pub(crate) gc_roots: Vec<Bdd>,
    pub(crate) reorder_pairs: Vec<(VarId, VarId)>,
    /// Live nodes at which a safe point collects; `None` until roots are
    /// registered.
    pub(crate) next_gc: Option<usize>,
}

impl Default for Manager {
    fn default() -> Self {
        Self::new()
    }
}

impl Manager {
    /// Create an empty manager holding just the two terminal nodes.
    pub fn new() -> Self {
        let terminals = vec![
            Node { var: TERMINAL_LEVEL, lo: 0, hi: 0 }, // FALSE
            Node { var: TERMINAL_LEVEL, lo: 1, hi: 1 }, // TRUE
        ];
        Manager {
            nodes: terminals,
            unique: UniqueTable::new(),
            free: Vec::new(),
            num_vars: 0,
            perm: Vec::new(),
            invperm: Vec::new(),
            order_generation: 0,
            computed: ComputedTable::new(),
            varsets: Vec::new(),
            varset_ids: FxHashMap::default(),
            renames: Vec::new(),
            rename_ids: FxHashMap::default(),
            gc_runs: 0,
            peak_live: 2,
            cache_lookups: 0,
            cache_hits: 0,
            tracer: Tracer::disabled(),
            budget: crate::budget::BudgetState::default(),
            gc_roots: Vec::new(),
            reorder_pairs: Vec::new(),
            next_gc: None,
        }
    }

    /// Allocate a fresh boolean variable at the next level of the order.
    pub fn new_var(&mut self) -> VarId {
        let v = VarId(self.num_vars);
        self.num_vars += 1;
        self.perm.push(v.0);
        self.invperm.push(v.0);
        v
    }

    /// The current level (order position) of a variable.
    #[inline]
    pub fn level_of(&self, v: VarId) -> u32 {
        self.perm[v.0 as usize]
    }

    /// The reorder generation (see [`Manager::sift`]); varsets and rename
    /// maps are only usable within the generation they were interned in.
    #[inline]
    pub fn generation(&self) -> u32 {
        self.order_generation
    }

    /// Allocate `n` fresh variables, returned in order.
    pub fn new_vars(&mut self, n: usize) -> Vec<VarId> {
        (0..n).map(|_| self.new_var()).collect()
    }

    /// Number of variables created so far.
    #[inline]
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// The constant `false` function.
    #[inline]
    pub fn zero(&self) -> Bdd {
        Bdd::FALSE
    }

    /// The constant `true` function.
    #[inline]
    pub fn one(&self) -> Bdd {
        Bdd::TRUE
    }

    /// The literal function `v` (true iff variable `v` is 1).
    pub fn var(&mut self, v: VarId) -> Bdd {
        debug_assert!(v.0 < self.num_vars, "variable not allocated");
        self.mk(v.0, Bdd::FALSE, Bdd::TRUE)
    }

    /// The negated literal `¬v`.
    pub fn nvar(&mut self, v: VarId) -> Bdd {
        debug_assert!(v.0 < self.num_vars, "variable not allocated");
        self.mk(v.0, Bdd::TRUE, Bdd::FALSE)
    }

    /// A literal with the given polarity: `var(v)` if `value` else `nvar(v)`.
    pub fn literal(&mut self, v: VarId, value: bool) -> Bdd {
        if value {
            self.var(v)
        } else {
            self.nvar(v)
        }
    }

    /// Hash-consed node constructor (the only way nodes come to exist).
    /// Maintains the two ROBDD invariants: no redundant tests
    /// (`lo == hi` collapses) and no duplicate nodes (unique table).
    pub(crate) fn mk(&mut self, var: u32, lo: Bdd, hi: Bdd) -> Bdd {
        if lo == hi {
            return lo;
        }
        debug_assert!(
            self.perm[var as usize] < self.level(lo) && self.perm[var as usize] < self.level(hi),
            "variable order violated in mk: var {} (level {}) above children at levels {}/{}",
            var,
            self.perm[var as usize],
            self.level(lo),
            self.level(hi),
        );
        let node = Node { var, lo: lo.0, hi: hi.0 };
        let vacant = match self.unique.find(&self.nodes, node) {
            Ok(idx) => return Bdd(idx),
            Err(vacant) => vacant,
        };
        let idx = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot as usize] = node;
                slot
            }
            None => {
                let slot = u32::try_from(self.nodes.len()).expect("BDD arena overflow (>4G nodes)");
                self.nodes.push(node);
                slot
            }
        };
        self.unique.insert_at(vacant, idx);
        // Both tables are sized from the arena, which grows when no slot
        // was free.
        self.unique.fit(&self.nodes);
        self.computed.fit(self.nodes.len());
        let live = self.live_nodes();
        if live > self.peak_live {
            self.peak_live = live;
        }
        Bdd(idx)
    }

    /// Node constructor addressed by *level*: used by the recursive
    /// operations, which work over the order rather than variable ids.
    #[inline]
    pub(crate) fn mk_level(&mut self, level: u32, lo: Bdd, hi: Bdd) -> Bdd {
        let var = self.invperm[level as usize];
        self.mk(var, lo, hi)
    }

    /// Level (order position) of the decision variable of `f`; terminals
    /// report [`TERMINAL_LEVEL`], i.e. below everything.
    #[inline]
    pub(crate) fn level(&self, f: Bdd) -> u32 {
        let var = self.nodes[f.0 as usize].var;
        if var == TERMINAL_LEVEL {
            TERMINAL_LEVEL
        } else {
            self.perm[var as usize]
        }
    }

    /// The decision variable of a non-terminal node.
    pub fn node_var(&self, f: Bdd) -> VarId {
        debug_assert!(!f.is_const(), "terminals have no variable");
        VarId(self.nodes[f.0 as usize].var)
    }

    /// The else-cofactor edge of a non-terminal node.
    pub fn node_lo(&self, f: Bdd) -> Bdd {
        debug_assert!(!f.is_const());
        Bdd(self.nodes[f.0 as usize].lo)
    }

    /// The then-cofactor edge of a non-terminal node.
    pub fn node_hi(&self, f: Bdd) -> Bdd {
        debug_assert!(!f.is_const());
        Bdd(self.nodes[f.0 as usize].hi)
    }

    #[inline]
    pub(crate) fn node(&self, f: Bdd) -> Node {
        self.nodes[f.0 as usize]
    }

    /// Nodes currently live (terminals included).
    pub fn live_nodes(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> ManagerStats {
        ManagerStats {
            live_nodes: self.live_nodes(),
            allocated_nodes: self.nodes.len(),
            peak_live_nodes: self.peak_live,
            gc_runs: self.gc_runs,
            num_vars: self.num_vars as usize,
            cache_lookups: self.cache_lookups,
            cache_hits: self.cache_hits,
        }
    }

    /// Probe the computed table for `(op, a, b, c)`, counting the lookup
    /// and, if the entry is still there, the hit.
    #[inline]
    pub(crate) fn cached(&mut self, op: Op, a: u32, b: u32, c: u32) -> Option<Bdd> {
        self.cache_lookups += 1;
        let r = self.computed.get(op, a, b, c)?;
        self.cache_hits += 1;
        Some(Bdd(r))
    }

    /// Memoize `(op, a, b, c) → r` in the computed table.
    #[inline]
    pub(crate) fn memo(&mut self, op: Op, a: u32, b: u32, c: u32, r: Bdd) -> Bdd {
        self.computed.insert(op, a, b, c, r.0);
        r
    }

    /// Install a tracer; BDD-layer events (GC, reorder, budget
    /// degradation) flow through it. The default is the disabled tracer,
    /// whose hooks are single `Option` checks.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The installed tracer (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Seed this manager's cumulative counters from a prior run's
    /// [`ManagerStats`] — used by checkpoint resume, which rebuilds the
    /// manager from serialized BDDs and would otherwise silently reset
    /// `gc_runs`/cache statistics, making resumed-run metrics
    /// incomparable to fresh runs. Monotone counters add; peak-style
    /// gauges take the maximum.
    pub fn adopt_counters(&mut self, prior: &ManagerStats) {
        self.gc_runs += prior.gc_runs;
        self.cache_lookups += prior.cache_lookups;
        self.cache_hits += prior.cache_hits;
        self.peak_live = self.peak_live.max(prior.peak_live_nodes);
    }

    /// Mark-and-sweep garbage collection.
    ///
    /// Everything reachable from `roots` survives; every other node's slot
    /// is recycled through a free list, so **surviving handles remain
    /// valid** (no compaction). The unique table is rebuilt from the mark
    /// bitmap and the computed table is cleared. Returns the number of
    /// freed nodes.
    pub fn gc(&mut self, roots: &[Bdd]) -> usize {
        let cap = self.nodes.len();
        let mut marked = vec![false; cap];
        marked[0] = true;
        marked[1] = true;
        let mut stack: Vec<u32> = Vec::with_capacity(256);
        for &r in roots {
            debug_assert!((r.0 as usize) < cap, "root handle out of range");
            if !marked[r.0 as usize] {
                marked[r.0 as usize] = true;
                stack.push(r.0);
            }
        }
        while let Some(idx) = stack.pop() {
            let n = self.nodes[idx as usize];
            if n.var == TERMINAL_LEVEL {
                continue;
            }
            for child in [n.lo, n.hi] {
                if !marked[child as usize] {
                    marked[child as usize] = true;
                    stack.push(child);
                }
            }
        }
        let before = self.unique.len();
        let live = (2..cap as u32).filter(|&idx| marked[idx as usize]);
        self.unique.rebuild(&self.nodes, live);
        let freed = before - self.unique.len();
        // Rebuild the free list from scratch: a slot is free iff it is
        // unmarked and not already an (unreused) free slot. Recomputing from
        // the mark bitmap covers both.
        self.free.clear();
        for (idx, &m) in marked.iter().enumerate().take(cap).skip(2) {
            if !m {
                self.free.push(idx as u32);
            }
        }
        self.computed.clear();
        self.gc_runs += 1;
        if self.tracer.level_enabled(TraceLevel::Info) {
            self.tracer.info(
                "bdd.gc",
                &[
                    ("run", Json::from(self.gc_runs as u64)),
                    ("freed", Json::from(freed as u64)),
                    ("live", Json::from(self.live_nodes() as u64)),
                    ("unique", Json::from(self.unique.len() as u64)),
                ],
            );
        }
        freed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminals_are_fixed() {
        let m = Manager::new();
        assert!(m.zero().is_false());
        assert!(m.one().is_true());
        assert_eq!(m.live_nodes(), 2);
    }

    #[test]
    fn var_nodes_are_hash_consed() {
        let mut m = Manager::new();
        let a = m.new_var();
        let f1 = m.var(a);
        let f2 = m.var(a);
        assert_eq!(f1, f2);
        assert_eq!(m.live_nodes(), 3);
    }

    #[test]
    fn mk_collapses_redundant_tests() {
        let mut m = Manager::new();
        let _a = m.new_var();
        let t = m.one();
        let f = m.mk(0, t, t);
        assert!(f.is_true());
    }

    #[test]
    fn gc_frees_unreachable_keeps_roots() {
        let mut m = Manager::new();
        let a = m.new_var();
        let b = m.new_var();
        let fa = m.var(a);
        let fb = m.var(b);
        let keep = m.and(fa, fb);
        let _dead = m.or(fa, fb);
        let live_before = m.live_nodes();
        let freed = m.gc(&[keep]);
        assert!(freed > 0);
        assert_eq!(m.live_nodes(), live_before - freed);
        // keep is still evaluable and correct.
        assert!(m.eval(keep, &[true, true]));
        assert!(!m.eval(keep, &[true, false]));
    }

    #[test]
    fn gc_recycles_slots() {
        let mut m = Manager::new();
        let a = m.new_var();
        let b = m.new_var();
        let fa = m.var(a);
        let fb = m.var(b);
        let _dead = m.and(fa, fb);
        let allocated_before = m.stats().allocated_nodes; // 0,1,a,b,a∧b = 5
        m.gc(&[fa, fb]); // frees exactly the a∧b node
                         // xor(a,b) needs two fresh nodes (¬b and the root); one must land in
                         // the recycled slot, so the arena grows by only one slot.
        let _reborn = m.xor(fa, fb);
        assert_eq!(m.stats().allocated_nodes, allocated_before + 1);
    }

    #[test]
    fn stats_track_peak_and_gc() {
        let mut m = Manager::new();
        let vs = m.new_vars(4);
        let mut f = m.one();
        for &v in &vs {
            let lit = m.var(v);
            f = m.and(f, lit);
        }
        let s1 = m.stats();
        assert_eq!(s1.num_vars, 4);
        assert!(s1.peak_live_nodes >= s1.live_nodes);
        m.gc(&[]);
        let s2 = m.stats();
        assert_eq!(s2.gc_runs, 1);
        assert_eq!(s2.live_nodes, 2);
    }
}
