//! Resource budgets, cooperative cancellation, safe-point garbage
//! collection, graceful degradation and consistency checking for the BDD
//! manager.
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
//!   points* (see [`Manager::safe_point`]) where the caller can name every
//!   handle it holds; on pressure the manager first degrades gracefully
//!   (mark-and-sweep [`Manager::gc`] over the registered roots, then one
//!   pair-block sifting retry) before surfacing
//!   [`BddError::BudgetExhausted`].
//!
//! The same safe points collect garbage with or without a budget, once the
//! owner has registered its roots ([`Manager::set_gc_roots`]): a
//! collection runs when the live nodes reach a trigger that starts at
//! [`GC_FLOOR`] and is reset to twice the survivors after each collection.
//! The arena and both tables, which are sized from it, therefore follow a
//! computation's live nodes instead of everything it ever built. A manager
//! whose owner never registered roots never collects on its own, so its
//! handles stay valid without a ceiling.
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
    /// [`Manager::safe_point`], with graceful degradation (GC, then one
    /// sifting retry) before erroring.
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

/// The live-node count at which a safe point first collects garbage once
/// roots are registered, and the least the trigger is ever reset to.
pub const GC_FLOOR: usize = 1 << 16;

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

    /// Register the caller's persistent root set. [`Manager::safe_point`]
    /// preserves these (plus its `extra_roots` argument) when it collects
    /// garbage, and [`Manager::check_consistency`] verifies none of them
    /// dangles. The first registration also declares that every handle
    /// the owner holds at a safe point is registered or passed there, and
    /// so lets safe points collect without a node ceiling, from
    /// [`GC_FLOOR`] live nodes on.
    pub fn set_gc_roots(&mut self, roots: Vec<Bdd>) {
        self.gc_roots = roots;
        self.next_gc.get_or_insert(GC_FLOOR);
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

    /// A *safe point*: a moment when the registered
    /// [`Manager::set_gc_roots`] set plus `extra_roots` covers every handle
    /// any caller still needs (intermediate results inside an operation are
    /// *not* roots, which is why this is never called from within the
    /// recursions).
    ///
    /// In order:
    /// 1. mark-and-sweep [`Manager::gc`] over registered + extra roots,
    ///    when roots are registered and the live nodes reach the trigger
    ///    (which then becomes `max(GC_FLOOR, 2 × survivors)`), or when they
    ///    exceed the budget's node ceiling;
    /// 2. still over the ceiling, once per installed budget: a
    ///    [`Manager::sift_pairs`] reordering retry (only if interleaved
    ///    pairs were registered);
    /// 3. still over it: [`BddError::BudgetExhausted`] with
    ///    [`Resource::Nodes`].
    pub fn safe_point(&mut self, extra_roots: &[Bdd]) -> Result<(), BddError> {
        let live = self.live_nodes();
        // The node ceiling, when the live nodes exceed it.
        let exceeded = self.budget.active.as_ref().and_then(|a| a.spec.max_live_nodes);
        let exceeded = exceeded.filter(|&max| live > max);
        if exceeded.is_none() && self.next_gc.is_none_or(|n| live < n) {
            return Ok(());
        }
        let mut roots = self.gc_roots.clone();
        roots.extend_from_slice(extra_roots);
        self.gc(&roots);
        self.next_gc = self.next_gc.map(|_| GC_FLOOR.max(2 * self.live_nodes()));
        let Some(max) = exceeded else { return Ok(()) };
        self.trace_degrade("gc", live, max);
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
            self.trace_degrade("sift_pairs", live, max);
            if self.live_nodes() <= max {
                return Ok(());
            }
        }
        self.trace_degrade("exhausted", live, max);
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
        assert!(m.safe_point(&[]).is_ok());
        assert!(m.live_nodes() <= m.live_nodes());
        // An impossible ceiling errors with Resource::Nodes.
        m.set_budget(Budget::unlimited().with_max_nodes(1));
        let err = m.safe_point(&[]).unwrap_err();
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

    /// Bits per word of [`words_equal`]: two such functions, or one and
    /// the garbage of building it, hold more than [`GC_FLOOR`] nodes.
    const BITS: usize = 14;

    /// `y == rotl(x, shift)` over two [`BITS`]-bit words, `x` on variables
    /// `0..BITS` and `y` on `BITS..2·BITS`. Every `x` bit lies above every
    /// `y` bit, so the result has about `3 · 2^BITS` nodes, and results for
    /// different shifts share few of them.
    fn words_equal(m: &mut Manager, shift: usize) -> Bdd {
        let pairs: Vec<Bdd> = (0..BITS)
            .map(|k| {
                let x = m.var(VarId(k as u32));
                let y = m.var(VarId((BITS + (k + shift) % BITS) as u32));
                m.iff(x, y)
            })
            .collect();
        m.and_many(&pairs)
    }

    fn rotl(a: u32, shift: usize) -> u32 {
        ((a << shift) | (a >> (BITS - shift))) & ((1 << BITS) - 1)
    }

    /// Does `eq` decide `y == rotl(x, shift)` right on a sample of pairs,
    /// matching ones included?
    fn decides_equality(m: &Manager, eq: Bdd, shift: usize) -> bool {
        let sample = [0u32, 1, 2, 0x155, 0x2aaa, 0x3fff, 0x1234];
        sample.iter().all(|&a| {
            sample.iter().chain(&[rotl(a, shift)]).all(|&b| {
                let bits: Vec<bool> = (0..BITS)
                    .map(|k| a >> k & 1 == 1)
                    .chain((0..BITS).map(|k| b >> k & 1 == 1))
                    .collect();
                m.eval(eq, &bits) == (b == rotl(a, shift))
            })
        })
    }

    #[test]
    fn safe_point_without_registered_roots_never_collects() {
        let mut m = Manager::new();
        m.new_vars(2 * BITS);
        let eq = words_equal(&mut m, 0);
        let eq_rot = words_equal(&mut m, 1);
        let live = m.live_nodes();
        assert!(live > GC_FLOOR, "{live} live nodes");
        assert!(m.safe_point(&[]).is_ok());
        assert_eq!(m.stats().gc_runs, 0);
        assert_eq!(m.live_nodes(), live);
        assert!(decides_equality(&m, eq, 0));
        assert!(decides_equality(&m, eq_rot, 1));
    }

    #[test]
    fn safe_point_collects_at_the_trigger_once_roots_are_registered() {
        let mut m = Manager::new();
        let vs = m.new_vars(2 * BITS);
        let x0 = m.var(vs[0]);
        let y_last = m.var(vs[2 * BITS - 1]);
        m.set_gc_roots(vec![x0]);
        assert_eq!(m.next_gc, Some(GC_FLOOR));
        assert!(m.safe_point(&[]).is_ok());
        assert_eq!(m.stats().gc_runs, 0, "collected below the floor");

        // The registered root holds more than half the floor, so the
        // trigger ends above it.
        let reg = words_equal(&mut m, 0);
        let extra = m.xor(x0, y_last);
        m.set_gc_roots(vec![reg]);
        assert!(m.live_nodes() >= GC_FLOOR);
        assert!(m.safe_point(&[extra]).is_ok());
        assert_eq!(m.stats().gc_runs, 1);
        let survivors = m.live_nodes();
        assert_eq!(m.next_gc, Some(GC_FLOOR.max(2 * survivors)));
        assert!(2 * survivors > GC_FLOOR, "{survivors} survivors");
        assert!(m.safe_point(&[extra]).is_ok());
        assert_eq!(m.stats().gc_runs, 1, "collected below the trigger");

        // Garbage past the new trigger: collected again.
        let mut shift = 1;
        while m.live_nodes() < m.next_gc.unwrap() {
            assert!(shift < BITS, "the garbage never reached the trigger");
            let _garbage = words_equal(&mut m, shift);
            shift += 1;
        }
        assert!(m.safe_point(&[extra]).is_ok());
        assert_eq!(m.stats().gc_runs, 2);
        assert_eq!(m.live_nodes(), survivors);
        assert_eq!(m.next_gc, Some(GC_FLOOR.max(2 * survivors)));
        assert!(decides_equality(&m, reg, 0));
        for bits in 0..4usize {
            let mut a = vec![false; 2 * BITS];
            (a[0], a[2 * BITS - 1]) = (bits & 1 == 1, bits & 2 == 2);
            assert_eq!(m.eval(extra, &a), a[0] != a[2 * BITS - 1]);
        }
        assert!(m.check_consistency().is_ok());
    }

    #[test]
    fn ceiling_below_the_trigger_degrades_via_gc_then_sift_then_errors() {
        let mut m = Manager::new();
        let vs = m.new_vars(8);
        let (tracer, sink) = stsyn_obs::Tracer::memory(stsyn_obs::TraceLevel::Info);
        m.set_tracer(tracer);
        m.set_reorder_pairs(vs.chunks(2).map(|p| (p[0], p[1])).collect());
        let lits: Vec<Bdd> = vs.iter().map(|&v| m.var(v)).collect();
        let keep = m.and(lits[0], lits[2]);
        for i in 0..4 {
            let _garbage = m.xor(lits[i], lits[i + 4]);
        }
        m.set_gc_roots(vec![keep]);
        assert!(m.live_nodes() < GC_FLOOR);
        m.set_budget(Budget::unlimited().with_max_nodes(1));
        let err = m.safe_point(&[]).unwrap_err();
        assert_eq!(err.resource(), Resource::Nodes);
        let actions: Vec<String> = sink
            .lines()
            .iter()
            .map(|l| stsyn_obs::Json::parse(l).unwrap())
            .filter(|r| r.get("name").and_then(stsyn_obs::Json::as_str) == Some("bdd.degrade"))
            .map(|r| r.get("action").and_then(stsyn_obs::Json::as_str).unwrap().to_string())
            .collect();
        assert_eq!(actions, ["gc", "sift_pairs", "exhausted"]);
        assert!(m.stats().gc_runs >= 1);
        assert!(m.eval(keep, &[true, false, true]));
        assert!(!m.eval(keep, &[true, true, false]));
        assert!(m.check_consistency().is_ok());
    }
}
