//! Resource budgets, cooperative cancellation, graceful degradation and
//! consistency checking for the BDD manager.
//!
//! A [`Budget`] bounds a symbolic computation along four axes:
//!
//! * **operation ticks** — every recursive step of the memoized operations
//!   (`apply`, `ite`, quantification, renaming, the emptiness tests) counts one
//!   tick; a tick ceiling bounds total work deterministically,
//! * **wall clock** — a deadline checked every 1024 ticks (so unbudgeted
//!   hot loops never touch the clock),
//! * **cooperative cancellation** — shared [`AtomicBool`] flags polled on
//!   the same cadence, letting another thread stop a synthesis,
//! * **live nodes** — a ceiling on the unique table, enforced at *safe
//!   points* (see [`Manager::enforce_node_budget`]) where the caller can
//!   name every handle it holds; on pressure the manager first degrades
//!   gracefully (mark-and-sweep [`Manager::gc`] over the registered roots,
//!   then one pair-block sifting retry) before surfacing
//!   [`BddError::BudgetExhausted`].
//!
//! Budgets also host the deterministic **fault injector** used by the
//! robustness test-suite: [`Budget::with_fail_at_tick`] forces a
//! `BudgetExhausted` error at the N-th tick, letting tests sweep an error
//! through every point of a synthesis run and assert that the error
//! surfaces structurally with the manager left consistent
//! ([`Manager::check_consistency`]).
//!
//! The fallible operation variants (`try_and`, `try_ite`, `try_exists`,
//! …) return `Result<_, BddError>`; the classic infallible names remain as
//! thin wrappers that panic *only* if a caller installs a budget and then
//! bypasses the `try_*` API. Without a budget installed the fast path is a
//! single counter increment and a branch.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::hash::FxHashSet;
use crate::manager::{Bdd, Manager, VarId, TERMINAL_LEVEL};

/// Which budget axis ran out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resource {
    /// The live-node ceiling, after GC and one sifting retry failed to get
    /// back under it.
    Nodes,
    /// The operation-tick ceiling.
    Ticks,
    /// The wall-clock deadline.
    WallClock,
    /// A cooperative-cancel flag was raised by another thread.
    Cancelled,
    /// The deterministic fault injector fired ([`Budget::with_fail_at_tick`]).
    Injected,
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Resource::Nodes => "live-node ceiling",
            Resource::Ticks => "operation-tick ceiling",
            Resource::WallClock => "wall-clock deadline",
            Resource::Cancelled => "cancelled",
            Resource::Injected => "injected fault",
        };
        f.write_str(s)
    }
}

/// Structured error surfaced by the fallible (`try_*`) BDD operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BddError {
    /// The installed [`Budget`] was exhausted (or a fault was injected).
    BudgetExhausted {
        /// The axis that ran out.
        resource: Resource,
        /// Operation ticks consumed when the limit was hit.
        ticks: u64,
        /// Live nodes in the manager when the limit was hit.
        live_nodes: usize,
    },
}

impl BddError {
    /// The exhausted resource.
    pub fn resource(&self) -> Resource {
        match self {
            BddError::BudgetExhausted { resource, .. } => *resource,
        }
    }
}

impl fmt::Display for BddError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BddError::BudgetExhausted { resource, ticks, live_nodes } => write!(
                f,
                "BDD budget exhausted ({resource}) after {ticks} operation ticks \
                 with {live_nodes} live nodes"
            ),
        }
    }
}

impl std::error::Error for BddError {}

/// A resource budget for symbolic computation. All limits are optional and
/// compose; [`Budget::unlimited`] (the default) never fails.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    pub(crate) max_live_nodes: Option<usize>,
    pub(crate) max_ticks: Option<u64>,
    pub(crate) timeout: Option<Duration>,
    pub(crate) cancel: Vec<Arc<AtomicBool>>,
    pub(crate) fail_at_tick: Option<u64>,
}

impl Budget {
    /// A budget with no limits. Installing it still counts ticks (useful
    /// for instrumentation) but never fails.
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Cap the number of live nodes. Enforced at safe points via
    /// [`Manager::enforce_node_budget`], with graceful degradation (GC,
    /// then one sifting retry) before erroring.
    pub fn with_max_nodes(mut self, n: usize) -> Self {
        self.max_live_nodes = Some(n);
        self
    }

    /// Cap the number of operation ticks. A cap of 0 fails on the very
    /// first operation.
    pub fn with_max_ticks(mut self, n: u64) -> Self {
        self.max_ticks = Some(n);
        self
    }

    /// Set a wall-clock deadline, measured from [`Manager::set_budget`].
    pub fn with_timeout(mut self, d: Duration) -> Self {
        self.timeout = Some(d);
        self
    }

    /// Attach a cooperative-cancel flag; raising it makes the next polled
    /// operation fail with [`Resource::Cancelled`]. May be called several
    /// times — any raised flag cancels.
    pub fn with_cancel(mut self, flag: Arc<AtomicBool>) -> Self {
        self.cancel.push(flag);
        self
    }

    /// Deterministic fault injection: fail with [`Resource::Injected`] at
    /// tick `n` (and every tick after it). Test-only in spirit; ticks are
    /// deterministic for a fixed computation, so a sweep over `n` drives an
    /// error through every point of a run.
    pub fn with_fail_at_tick(mut self, n: u64) -> Self {
        self.fail_at_tick = Some(n);
        self
    }

    /// Does this budget impose any limit at all?
    pub fn is_limited(&self) -> bool {
        self.max_live_nodes.is_some()
            || self.max_ticks.is_some()
            || self.timeout.is_some()
            || !self.cancel.is_empty()
            || self.fail_at_tick.is_some()
    }
}

/// Internal per-manager budget state.
#[derive(Debug, Default)]
pub(crate) struct BudgetState {
    pub(crate) active: Option<ActiveBudget>,
    pub(crate) ticks: u64,
}

#[derive(Debug)]
pub(crate) struct ActiveBudget {
    spec: Budget,
    deadline: Option<Instant>,
    sift_tried: bool,
}

/// How often (in ticks) the wall clock and cancel flags are polled.
const POLL_MASK: u64 = 0x3ff;

pub(crate) fn expect_budget<T>(r: Result<T, BddError>) -> T {
    match r {
        Ok(v) => v,
        Err(e) => panic!(
            "budget exhausted inside an infallible BDD operation \
             (use the try_* variants when a budget is installed): {e}"
        ),
    }
}

impl Manager {
    /// Install a budget. Resets the tick counter to zero and starts the
    /// wall-clock deadline (if any) now. Replaces any previous budget.
    pub fn set_budget(&mut self, budget: Budget) {
        let deadline = budget.timeout.map(|d| Instant::now() + d);
        self.budget.ticks = 0;
        self.budget.active = Some(ActiveBudget { spec: budget, deadline, sift_tried: false });
    }

    /// Remove the installed budget. The tick counter keeps its value so
    /// callers can read [`Manager::ticks_used`] afterwards.
    pub fn clear_budget(&mut self) {
        self.budget.active = None;
    }

    /// Operation ticks consumed since the last [`Manager::set_budget`]
    /// (or since manager creation if none was ever installed).
    pub fn ticks_used(&self) -> u64 {
        self.budget.ticks
    }

    /// Register the caller's persistent root set. [`Manager::enforce_node_budget`]
    /// preserves these (plus its `extra_roots` argument) when it collects
    /// garbage under node pressure, and [`Manager::check_consistency`]
    /// verifies none of them dangles.
    pub fn set_gc_roots(&mut self, roots: Vec<Bdd>) {
        self.gc_roots = roots;
    }

    /// The currently registered persistent roots.
    pub fn gc_roots(&self) -> &[Bdd] {
        &self.gc_roots
    }

    /// Register the `(current, primed)` variable pairs of an interleaved
    /// encoding. When the node ceiling is hit, the degradation path may run
    /// one [`Manager::sift_pairs`] pass over these (which preserves interned
    /// varsets and rename maps — see `reorder.rs`).
    pub fn set_reorder_pairs(&mut self, pairs: Vec<(VarId, VarId)>) {
        self.reorder_pairs = pairs;
    }

    /// One budget tick. Called at the top of every recursive step of the
    /// memoized operations; the no-budget fast path is an increment and a
    /// branch.
    #[inline]
    pub(crate) fn tick(&mut self) -> Result<(), BddError> {
        self.budget.ticks += 1;
        if self.budget.active.is_none() {
            Ok(())
        } else {
            self.tick_slow()
        }
    }

    #[cold]
    fn tick_slow(&mut self) -> Result<(), BddError> {
        let t = self.budget.ticks;
        let a = self.budget.active.as_ref().expect("tick_slow without active budget");
        if let Some(n) = a.spec.fail_at_tick {
            if t >= n {
                return Err(self.budget_error(Resource::Injected));
            }
        }
        if let Some(n) = a.spec.max_ticks {
            if t > n {
                return Err(self.budget_error(Resource::Ticks));
            }
        }
        if t & POLL_MASK == 0 {
            if let Some(d) = a.deadline {
                if Instant::now() >= d {
                    return Err(self.budget_error(Resource::WallClock));
                }
            }
            for flag in &a.spec.cancel {
                if flag.load(Ordering::Relaxed) {
                    return Err(self.budget_error(Resource::Cancelled));
                }
            }
        }
        Ok(())
    }

    /// A `BudgetExhausted` error snapshotting the current counters. Public
    /// so higher layers (e.g. a pre-flight zero-budget check) can surface
    /// the same structured error.
    pub fn budget_error(&self, resource: Resource) -> BddError {
        BddError::BudgetExhausted {
            resource,
            ticks: self.budget.ticks,
            live_nodes: self.live_nodes(),
        }
    }

    /// Check the budget without doing any work (a "zeroth tick"): lets
    /// callers fail fast before starting a phase. Checks the injector, the
    /// tick ceiling, the deadline and the cancel flags.
    pub fn check_budget(&mut self) -> Result<(), BddError> {
        let Some(a) = self.budget.active.as_ref() else { return Ok(()) };
        let t = self.budget.ticks;
        if let Some(n) = a.spec.fail_at_tick {
            if t + 1 >= n {
                return Err(self.budget_error(Resource::Injected));
            }
        }
        if let Some(n) = a.spec.max_ticks {
            if t >= n {
                return Err(self.budget_error(Resource::Ticks));
            }
        }
        if let Some(d) = a.deadline {
            if Instant::now() >= d {
                return Err(self.budget_error(Resource::WallClock));
            }
        }
        for flag in &a.spec.cancel {
            if flag.load(Ordering::Relaxed) {
                return Err(self.budget_error(Resource::Cancelled));
            }
        }
        Ok(())
    }

    /// Enforce the live-node ceiling at a *safe point* — a moment when the
    /// registered [`Manager::set_gc_roots`] set plus `extra_roots` covers
    /// every handle any caller still needs (intermediate results inside an
    /// operation are *not* roots, which is why this is never called from
    /// within the recursions).
    ///
    /// Degradation order on pressure:
    /// 1. mark-and-sweep [`Manager::gc`] over registered + extra roots,
    /// 2. once per installed budget: a [`Manager::sift_pairs`] reordering
    ///    retry (only if interleaved pairs were registered),
    /// 3. [`BddError::BudgetExhausted`] with [`Resource::Nodes`].
    pub fn enforce_node_budget(&mut self, extra_roots: &[Bdd]) -> Result<(), BddError> {
        let Some(max) = self.budget.active.as_ref().and_then(|a| a.spec.max_live_nodes) else {
            return Ok(());
        };
        if self.live_nodes() <= max {
            return Ok(());
        }
        let pressured = self.live_nodes();
        let mut roots = self.gc_roots.clone();
        roots.extend_from_slice(extra_roots);
        self.gc(&roots);
        self.trace_degrade("gc", pressured, max);
        if self.live_nodes() <= max {
            return Ok(());
        }
        let sift_tried = self.budget.active.as_ref().is_none_or(|a| a.sift_tried);
        if !sift_tried && !self.reorder_pairs.is_empty() {
            if let Some(a) = self.budget.active.as_mut() {
                a.sift_tried = true;
            }
            let pairs = self.reorder_pairs.clone();
            self.sift_pairs(&pairs, &roots);
            self.trace_degrade("sift_pairs", pressured, max);
            if self.live_nodes() <= max {
                return Ok(());
            }
        }
        self.trace_degrade("exhausted", pressured, max);
        Err(self.budget_error(Resource::Nodes))
    }

    /// Emit a `bdd.degrade` event describing one step of the node-ceiling
    /// degradation path.
    fn trace_degrade(&self, action: &'static str, pressured: usize, ceiling: usize) {
        if self.tracer.level_enabled(stsyn_obs::TraceLevel::Info) {
            self.tracer.info(
                "bdd.degrade",
                &[
                    ("action", stsyn_obs::Json::from(action)),
                    ("pressured", stsyn_obs::Json::from(pressured as u64)),
                    ("ceiling", stsyn_obs::Json::from(ceiling as u64)),
                    ("live", stsyn_obs::Json::from(self.live_nodes() as u64)),
                ],
            );
        }
    }

    /// Deep structural consistency check, intended for use after a failed
    /// or interrupted computation (it is `O(arena)` and allocates).
    ///
    /// Verifies:
    /// * the unique table and the node arena agree (every indexed node is
    ///   found by its own key, and none is indexed twice), and every node's
    ///   variable sits strictly above its children's in the current order,
    /// * every arena slot is accounted for exactly once (terminal, live in
    ///   the unique table, or on the free list),
    /// * the free list has no duplicates, no terminals and no out-of-range
    ///   slots,
    /// * no registered root dangles: the full cone of every root avoids
    ///   the free list.
    pub fn check_consistency(&self) -> Result<(), String> {
        if !self.check_order_invariant() {
            return Err("unique table out of sync with arena, or variable order violated".into());
        }
        let cap = self.nodes.len();
        let mut free_set: FxHashSet<u32> = FxHashSet::default();
        for &slot in &self.free {
            if slot < 2 {
                return Err(format!("terminal slot {slot} on the free list"));
            }
            if slot as usize >= cap {
                return Err(format!("free slot {slot} out of range (arena size {cap})"));
            }
            if !free_set.insert(slot) {
                return Err(format!("slot {slot} appears twice on the free list"));
            }
        }
        if self.unique.len() + free_set.len() + 2 != cap {
            return Err(format!(
                "slot accounting broken: {} unique + {} free + 2 terminals != {} allocated",
                self.unique.len(),
                free_set.len(),
                cap
            ));
        }
        let mut indexed: FxHashSet<u32> = FxHashSet::default();
        for idx in self.unique.iter() {
            if !indexed.insert(idx) {
                return Err(format!("slot {idx} appears twice in the unique table"));
            }
            if free_set.contains(&idx) {
                return Err(format!("slot {idx} is both live (unique table) and free"));
            }
        }
        // No dangling roots: every node in every root's cone must be live.
        let mut seen: FxHashSet<u32> = FxHashSet::default();
        let mut stack: Vec<u32> = Vec::new();
        for &r in &self.gc_roots {
            if r.0 as usize >= cap {
                return Err(format!("registered root {} out of range", r.0));
            }
            stack.push(r.0);
        }
        while let Some(idx) = stack.pop() {
            if !seen.insert(idx) {
                continue;
            }
            if free_set.contains(&idx) {
                return Err(format!("registered root cone reaches freed slot {idx}"));
            }
            let n = self.nodes[idx as usize];
            if n.var != TERMINAL_LEVEL {
                stack.push(n.lo);
                stack.push(n.hi);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_fails() {
        let mut m = Manager::new();
        let vs = m.new_vars(8);
        m.set_budget(Budget::unlimited());
        let lits: Vec<Bdd> = vs.iter().map(|&v| m.var(v)).collect();
        let f = m.try_and_many(&lits).unwrap();
        assert!(!f.is_const());
        assert!(m.ticks_used() > 0);
    }

    #[test]
    fn zero_tick_budget_fails_immediately() {
        let mut m = Manager::new();
        let vs = m.new_vars(2);
        let a = m.var(vs[0]);
        let b = m.var(vs[1]);
        m.set_budget(Budget::unlimited().with_max_ticks(0));
        let err = m.try_and(a, b).unwrap_err();
        assert_eq!(err.resource(), Resource::Ticks);
        assert!(m.check_budget().is_err());
    }

    #[test]
    fn fail_at_tick_is_deterministic() {
        let run = |fail_at: u64| -> (u64, Result<Bdd, BddError>) {
            let mut m = Manager::new();
            let vs = m.new_vars(12);
            m.set_budget(Budget::unlimited().with_fail_at_tick(fail_at));
            let mut f = Bdd::TRUE;
            let r = (|| {
                for i in 0..6 {
                    let x = m.var(vs[i]);
                    let y = m.var(vs[i + 6]);
                    let t = m.try_xor(x, y)?;
                    f = m.try_and(f, t)?;
                }
                Ok(f)
            })();
            (m.ticks_used(), r)
        };
        let (t_clean, ok) = run(u64::MAX);
        assert!(ok.is_ok());
        // Inject at a mid-run tick twice: identical failure point.
        let at = t_clean / 2;
        let (t1, r1) = run(at);
        let (t2, r2) = run(at);
        assert_eq!(t1, t2);
        assert_eq!(r1, r2);
        assert_eq!(r1.unwrap_err().resource(), Resource::Injected);
    }

    #[test]
    fn cancel_flag_stops_work() {
        let mut m = Manager::new();
        let vs = m.new_vars(40);
        let flag = Arc::new(AtomicBool::new(true)); // pre-raised
        m.set_budget(Budget::unlimited().with_cancel(flag));
        // The flag is polled every POLL_MASK+1 ticks; build something big
        // enough to cross the boundary.
        let mut r = Ok(Bdd::TRUE);
        let mut f = Bdd::TRUE;
        'outer: for i in 0..20 {
            let x = m.var(vs[i]);
            let y = m.var(vs[i + 20]);
            for g in [x, y] {
                match m.try_and(f, g) {
                    Ok(v) => f = v,
                    Err(e) => {
                        r = Err(e);
                        break 'outer;
                    }
                }
            }
            let big = m.try_xor(f, x).and_then(|t| m.try_or(t, y));
            match big {
                Ok(_) => {}
                Err(e) => {
                    r = Err(e);
                    break 'outer;
                }
            }
        }
        // Either the computation was too small to cross a poll boundary
        // (then check_budget reports it) or we got the structured error.
        match r {
            Err(e) => assert_eq!(e.resource(), Resource::Cancelled),
            Ok(_) => assert_eq!(m.check_budget().unwrap_err().resource(), Resource::Cancelled),
        }
    }

    #[test]
    fn deadline_in_the_past_fails() {
        let mut m = Manager::new();
        let _vs = m.new_vars(2);
        m.set_budget(Budget::unlimited().with_timeout(Duration::from_secs(0)));
        assert_eq!(m.check_budget().unwrap_err().resource(), Resource::WallClock);
    }

    #[test]
    fn node_ceiling_degrades_via_gc_then_errors() {
        let mut m = Manager::new();
        let vs = m.new_vars(16);
        // Build garbage, keep one small root.
        let lits: Vec<Bdd> = vs.iter().map(|&v| m.var(v)).collect();
        let keep = m.and(lits[0], lits[1]);
        for i in 0..8 {
            let _garbage = m.xor(lits[i], lits[i + 8]);
        }
        m.set_gc_roots(vec![keep]);
        m.set_budget(Budget::unlimited().with_max_nodes(m.live_nodes() - 4));
        // GC alone gets back under the ceiling.
        assert!(m.enforce_node_budget(&[]).is_ok());
        assert!(m.live_nodes() <= m.live_nodes());
        // An impossible ceiling errors with Resource::Nodes.
        m.set_budget(Budget::unlimited().with_max_nodes(1));
        let err = m.enforce_node_budget(&[]).unwrap_err();
        assert_eq!(err.resource(), Resource::Nodes);
        assert!(m.check_consistency().is_ok());
    }

    #[test]
    fn clear_budget_restores_infallibility() {
        let mut m = Manager::new();
        let vs = m.new_vars(2);
        let a = m.var(vs[0]);
        let b = m.var(vs[1]);
        m.set_budget(Budget::unlimited().with_max_ticks(0));
        assert!(m.try_and(a, b).is_err());
        m.clear_budget();
        let f = m.and(a, b); // must not panic
        assert!(!f.is_const());
    }

    #[test]
    fn consistency_check_accepts_healthy_manager() {
        let mut m = Manager::new();
        let vs = m.new_vars(6);
        let lits: Vec<Bdd> = vs.iter().map(|&v| m.var(v)).collect();
        let f = m.and_many(&lits);
        let g = m.or_many(&lits);
        m.set_gc_roots(vec![f, g]);
        m.gc(&[f, g]);
        assert!(m.check_consistency().is_ok());
    }

    #[test]
    fn consistency_check_catches_dangling_root() {
        let mut m = Manager::new();
        let vs = m.new_vars(4);
        let a = m.var(vs[0]);
        let b = m.var(vs[1]);
        let f = m.and(a, b);
        m.set_gc_roots(vec![f]);
        m.gc(&[]); // collect *without* the registered root: f now dangles
        assert!(m.check_consistency().is_err());
    }

    #[test]
    fn budget_display_is_readable() {
        let e = BddError::BudgetExhausted { resource: Resource::Ticks, ticks: 42, live_nodes: 7 };
        let s = e.to_string();
        assert!(s.contains("42"), "{s}");
        assert!(s.contains("operation-tick"), "{s}");
        let src: &dyn std::error::Error = &e;
        assert!(src.source().is_none());
    }
}
