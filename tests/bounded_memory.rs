//! Memory that follows the live nodes: a solve collects garbage at its safe
//! points once the live nodes reach `GC_FLOOR`, so its peak stays within
//! twice the floor, and the protocols it emits are unchanged.
//!
//! matching(7), the `matching-cycles` benchmark instance, is solved under
//! every rotated schedule the way the benchmark does it: print the case
//! study, parse the text, bundle it with `AddConvergence::new`, synthesize
//! and model-check. Each emitted protocol must hash to its row of
//! `perfbench/golden.txt`. Without collection during a solve its peak was
//! 161,819 live nodes.

use stsyn_repro::bdd::GC_FLOOR;
use stsyn_repro::protocol::{dsl, printer};
use stsyn_repro::synth::{AddConvergence, Options, Schedule};

/// The benchmark's golden hashes, one `instance rotation hash` row each.
const GOLDEN: &str = include_str!("../perfbench/golden.txt");

/// 64-bit FNV-1a, the hash of the golden table.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn golden(instance: &str, rotation: usize) -> u64 {
    GOLDEN
        .lines()
        .find_map(|line| {
            let f: Vec<&str> = line.split_whitespace().collect();
            (f.len() == 3 && f[0] == instance && f[1] == rotation.to_string())
                .then(|| u64::from_str_radix(f[2], 16).unwrap())
        })
        .unwrap_or_else(|| panic!("no golden row for {instance} r{rotation}"))
}

#[test]
fn matching7_peak_stays_within_twice_the_floor_with_unchanged_output() {
    let (p, i) = stsyn_repro::cases::matching(7);
    let parsed = dsl::parse(&printer::to_dsl("matching7", &p, &i)).unwrap();
    let problem = AddConvergence::new(parsed.protocol, parsed.invariant).unwrap();
    let k = problem.protocol().num_processes();
    for r in 0..k {
        let mut out =
            problem.synthesize_with(&Options::default(), Schedule::rotated(k, r)).unwrap();
        assert!(out.try_verify_strong().unwrap(), "r{r}: not strongly stabilizing");
        let text = printer::to_dsl("matching7_SS", &out.extract_protocol(), problem.invariant());
        assert_eq!(fnv1a64(text.as_bytes()), golden("matching7", r), "r{r}: output changed");
        let (gc_runs, peak) = (out.stats.gc_runs, out.stats.peak_live_nodes);
        assert!(gc_runs >= 1, "r{r}: no collection during the solve");
        assert!(peak <= 2 * GC_FLOOR, "r{r}: peak {peak} live nodes, over twice {GC_FLOOR}");
    }
}
