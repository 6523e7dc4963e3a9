//! The deterministic perf trajectory: BDD and heuristic counters of the
//! benchmark's three synthesis workloads at smoke size, pinned in
//! `BENCH_counters.json` at the repository root.
//!
//! Each instance is synthesized under every rotated schedule, as the
//! benchmark does. Per instance, `bdd_ticks`, `cache_lookups`,
//! `scc_calls` and `groups_added` are summed over the rotations and
//! `peak_live_nodes` is the maximum. Tick and node counts do not drift
//! with the host, so any move of more than 2% in either direction is a
//! change of the program: a loss fails the test, and a gain must be
//! written into the file in the same change, so the file's history is
//! the trajectory. The measured values are printed on every run.
//!
//! To refresh the file, run `cargo test -q --test bench_counters --
//! --nocapture` and copy the printed values into `BENCH_counters.json`.

use stsyn_core::{AddConvergence, Options, Schedule};
use stsyn_obs::Json;
use stsyn_protocol::expr::Expr;
use stsyn_protocol::Protocol;

/// The keys of one instance's entry in `BENCH_counters.json`.
const KEYS: [&str; 5] =
    ["bdd_ticks", "cache_lookups", "peak_live_nodes", "scc_calls", "groups_added"];

/// Allowed relative distance from the pinned value.
const TOLERANCE: f64 = 0.02;

type Case = (&'static str, fn() -> (Protocol, Expr));

/// The smoke instances of `coloring-scan`, `matching-cycles` and
/// `token-ring-deep`.
const CASES: [Case; 3] = [
    ("coloring5", || stsyn_cases::coloring(5)),
    ("matching5", || stsyn_cases::matching(5)),
    ("token_ring4_4", || stsyn_cases::token_ring(4, 4)),
];

/// The counters of `KEYS`, in order, over every rotation of one instance.
fn measure(build: fn() -> (Protocol, Expr)) -> [u64; 5] {
    let (p, i) = build();
    let problem = AddConvergence::new(p, i).unwrap();
    let k = problem.protocol().num_processes();
    let mut sums = [0u64; 5];
    for r in 0..k {
        let out = problem.synthesize_with(&Options::default(), Schedule::rotated(k, r)).unwrap();
        let s = &out.stats;
        sums[0] += s.bdd_ticks;
        sums[1] += s.cache_lookups;
        sums[2] = sums[2].max(s.peak_live_nodes as u64);
        sums[3] += s.scc_calls as u64;
        sums[4] += s.groups_added as u64;
    }
    sums
}

#[test]
fn smoke_counters_match_bench_counters_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_counters.json");
    let pinned = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let mut moved = Vec::new();
    for (label, build) in CASES {
        let got = measure(build);
        let line: Vec<String> =
            KEYS.iter().zip(got).map(|(k, v)| format!("\"{k}\": {v}")).collect();
        println!("\"{label}\": {{{}}}", line.join(", "));
        let entry = pinned.get(label).unwrap_or_else(|| panic!("no `{label}` in {path}"));
        for (key, value) in KEYS.iter().zip(got) {
            let want = entry.get(key).and_then(Json::as_u64);
            let want = want.unwrap_or_else(|| panic!("no `{label}.{key}` in {path}"));
            if (value as f64 - want as f64).abs() > TOLERANCE * want as f64 {
                moved.push(format!("{label}.{key}: pinned {want}, measured {value}"));
            }
        }
    }
    assert!(moved.is_empty(), "counters moved more than 2% from {path}:\n{}", moved.join("\n"));
}
