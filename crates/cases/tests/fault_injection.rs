//! Deterministic fault-injection harness for the resource-budget layer.
//!
//! `Budget::with_fail_at_tick(n)` forces a synthetic `BudgetExhausted`
//! error at the n-th BDD operation. Because the tick counter is a
//! deterministic coordinate system over a synthesis run, sweeping `n`
//! across the full run exercises an abort at every phase of the pipeline:
//! compilation, preprocessing, candidate construction, ranking and each
//! recovery pass. At every injection point the run must
//!
//! 1. not panic,
//! 2. surface `SynthesisError::ResourceExhausted` with the injected cause,
//! 3. leave the BDD manager's invariants intact (checked via the
//!    consistency snapshot embedded in the partial-progress report).

use stsyn_bdd::{Budget, Resource};
use stsyn_cases::{coloring, matching, token_ring};
use stsyn_core::{AddConvergence, Options, Phase, SynthesisError};
use stsyn_protocol::expr::Expr;
use stsyn_protocol::Protocol;

/// Run one unlimited-but-budgeted synthesis to learn the total tick count
/// of the run — the sweep's coordinate range.
fn learn_total_ticks(p: &Protocol, i: &Expr) -> u64 {
    let opts = Options {
        budget: Some(Budget::unlimited().with_max_ticks(u64::MAX >> 1)),
        ..Options::default()
    };
    let outcome = AddConvergence::new(p.clone(), i.clone())
        .unwrap()
        .synthesize(&opts)
        .expect("huge budget must not interrupt synthesis");
    let total = outcome.stats.bdd_ticks;
    assert!(total > 0, "a synthesis run must consume ticks");
    total
}

/// Sweep ~`points` distinct injection ticks over a full synthesis run.
/// Returns the number of distinct points actually exercised.
fn sweep(p: &Protocol, i: &Expr, points: u64) -> u64 {
    let total = learn_total_ticks(p, i);
    let step = (total / points).max(1);
    let mut exercised = 0;
    let mut n = 1;
    while n <= total {
        let opts = Options {
            budget: Some(Budget::unlimited().with_fail_at_tick(n)),
            ..Options::default()
        };
        let result = AddConvergence::new(p.clone(), i.clone()).unwrap().synthesize(&opts);
        match result {
            Err(SynthesisError::ResourceExhausted { phase, cause, partial }) => {
                assert_eq!(
                    cause.resource(),
                    Resource::Injected,
                    "tick {n}: wrong exhaustion cause"
                );
                assert!(
                    partial.manager_consistent,
                    "tick {n} ({phase}): manager invariants violated after abort"
                );
                // The salvaged group list only ever names fully-committed
                // groups, so it can never exceed the unlimited run's total.
                if phase == Phase::Setup {
                    assert!(partial.groups_added.is_empty());
                    assert_eq!(partial.ranks_layered, 0);
                }
            }
            Ok(_) => panic!("injection at tick {n} (≤ total {total}) did not fire"),
            Err(e) => panic!("tick {n}: expected ResourceExhausted, got: {e}"),
        }
        exercised += 1;
        n += step;
    }
    exercised
}

#[test]
fn fault_sweep_matching() {
    let (p, i) = matching(3);
    let exercised = sweep(&p, &i, 120);
    assert!(exercised >= 100, "only {exercised} injection points exercised");
}

#[test]
fn fault_sweep_coloring() {
    let (p, i) = coloring(3);
    let exercised = sweep(&p, &i, 120);
    assert!(exercised >= 100, "only {exercised} injection points exercised");
}

#[test]
fn fault_sweep_token_ring() {
    let (p, i) = token_ring(3, 2);
    let exercised = sweep(&p, &i, 20);
    assert!(exercised >= 15, "only {exercised} injection points exercised");
}

#[test]
fn zero_tick_budget_returns_immediately_with_empty_partial() {
    let (p, i) = matching(3);
    let opts =
        Options { budget: Some(Budget::unlimited().with_max_ticks(0)), ..Options::default() };
    match AddConvergence::new(p, i).unwrap().synthesize(&opts) {
        Err(SynthesisError::ResourceExhausted { phase, cause, partial }) => {
            assert_eq!(phase, Phase::Setup);
            assert_eq!(cause.resource(), Resource::Ticks);
            assert_eq!(partial.ranks_layered, 0);
            assert!(partial.groups_added.is_empty());
            assert!(partial.manager_consistent);
        }
        Ok(_) => panic!("expected immediate ResourceExhausted, got success"),
        Err(e) => panic!("expected immediate ResourceExhausted, got {e}"),
    }
}

#[test]
fn cooperative_cancel_aborts_synthesis() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let flag = Arc::new(AtomicBool::new(true)); // pre-cancelled
    let (p, i) = coloring(3);
    let opts = Options {
        budget: Some(Budget::unlimited().with_cancel(Arc::clone(&flag))),
        ..Options::default()
    };
    match AddConvergence::new(p, i).unwrap().synthesize(&opts) {
        Err(SynthesisError::ResourceExhausted { cause, partial, .. }) => {
            assert_eq!(cause.resource(), Resource::Cancelled);
            assert!(partial.manager_consistent);
        }
        Ok(_) => panic!("expected cancellation, got success"),
        Err(e) => panic!("expected cancellation, got {e}"),
    }
    flag.store(false, Ordering::Relaxed);
}
