//! # perfbench — the repository benchmark
//!
//! One binary, four workloads, one result line per run:
//!
//! ```text
//! cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! * `coloring-scan`, `matching-cycles`, `token-ring-deep` — in-process
//!   synthesis of one case study over every recovery-schedule rotation
//!   (see [`synth`]);
//! * `service-mix` — an in-process job daemon with the artifact store on,
//!   driven by two clients as a closed loop of fresh jobs and store hits
//!   (see [`service`]).
//!
//! With `--trace 0` a run reports the end-to-end metrics of
//! [`END_TO_END`]; with `--trace 1` it reports the per-layer breakdown of
//! [`PER_LAYER`], read from the program's own trace records and counters
//! (see [`layers`]). Every layer is timed from outside: the benchmark adds
//! no timers to the program. Each run checks every output — the
//! independent model check, golden hashes of the emitted protocol, and
//! store hits against their cold results — and counts any miss in
//! `failed`.

#![warn(missing_docs)]

pub mod layers;
pub mod service;
pub mod synth;

use std::collections::BTreeMap;
use stsyn_obs::Json;

/// End-to-end metrics (`--trace 0`), with units, in output order.
/// `BENCHMARK.json` declares the same list with its bounds; the smoke test
/// checks that the two agree.
pub const END_TO_END: &[(&str, &str)] =
    &[("solve_s", "s"), ("jobs_per_s", "1/s"), ("peak_rss_mb", "MB"), ("setup_s", "s")];

/// Per-layer metrics (`--trace 1`), with units, in output order. A layer
/// a workload does not pass through (the service layers on the
/// synthesis workloads) or cannot be isolated from outside (the emit step
/// inside the daemon) reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("bdd.ticks", "count"),
    ("bdd.cache_lookups", "count"),
    ("bdd.cache_hit_rate", "ratio"),
    ("bdd.peak_nodes", "count"),
    ("bdd.gc_runs", "count"),
    ("symbolic.ranking_s", "s"),
    ("symbolic.scc_s", "s"),
    ("symbolic.scc_calls", "count"),
    ("symbolic.sccs_found", "count"),
    ("symbolic.avg_scc_nodes", "count"),
    ("stsyn.setup_s", "s"),
    ("stsyn.scan_s", "s"),
    ("stsyn.include_s", "s"),
    ("stsyn.deadlock_s", "s"),
    ("stsyn.verify_s", "s"),
    ("stsyn.candidates", "count"),
    ("stsyn.groups_added", "count"),
    ("stsyn.keep_ratio", "ratio"),
    ("stsyn.unattributed_s", "s"),
    ("protocol.emit_s", "s"),
    ("serve.submit_ms_p50", "ms"),
    ("serve.queue_ms_mean", "ms"),
    ("serve.run_ms_mean", "ms"),
    ("serve.publish_ms_mean", "ms"),
    ("serve.cold_ms_p99", "ms"),
    ("serve.failed", "count"),
    ("store.hit_ratio", "ratio"),
    ("store.hit_ms_p50", "ms"),
    ("obs.trace_overhead", "ratio"),
];

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] =
    &["coloring-scan", "matching-cycles", "token-ring-deep", "service-mix"];

/// How one run is configured.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Seed for every input the run generates.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Per-layer run (`--trace 1`) instead of the end-to-end run.
    pub trace: bool,
    /// Tiny instances and a fixed amount of work, for the smoke test.
    pub smoke: bool,
}

/// The outcome of one run: operation counts and named metric values.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (solves or jobs).
    pub attempted: u64,
    /// Operations that failed, did not verify, or did not match their
    /// golden or cold result.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Record one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Count one operation, failed or not.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Did every operation succeed and every metric get a value?
    pub fn correct(&self, catalogue: &[(&str, &str)]) -> bool {
        self.failed == 0
            && self.attempted > 0
            && catalogue.iter().all(|(name, _)| self.values.contains_key(name))
    }

    /// Print one `workload metric value unit` line per metric of the
    /// catalogue, then the one-line JSON result.
    pub fn print(&self, workload: &str, catalogue: &[(&'static str, &'static str)]) {
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        println!("{workload} attempted {} count", self.attempted);
        println!("{workload} error_rate {error_rate} ratio");
        let mut metrics = Vec::new();
        for &(name, unit) in catalogue {
            let value = self.values.get(name).copied().unwrap_or(f64::NAN);
            println!("{workload} {name} {value} {unit}");
            metrics
                .push((name, Json::obj(vec![("value", Json::Num(value)), ("unit", unit.into())])));
        }
        let line = Json::obj(vec![
            ("correct", self.correct(catalogue).into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", Json::obj(metrics)),
        ]);
        println!("{line}");
    }
}

/// Nearest-rank percentile of an ascending-sorted, non-empty sample: the
/// smallest value with at least `p` percent of the sample at or below it.
/// Unlike interpolating estimators it always returns an observed value,
/// and `p99` of fewer than 100 samples is honestly the maximum.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank median of a non-empty sample, in any order.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// Geometric mean over inputs of each input's median: the typical time of
/// one operation on a workload whose inputs differ in cost. A median of
/// the pooled samples would sit in the gap between two inputs' costs and
/// jump across it with small changes in their shares. Inputs without
/// samples are skipped; at least one must have some.
pub fn geomean_of_medians(by_input: &[Vec<f64>]) -> f64 {
    let medians: Vec<f64> = by_input.iter().filter(|v| !v.is_empty()).map(|v| median(v)).collect();
    assert!(!medians.is_empty(), "geometric mean of no samples");
    (medians.iter().map(|m| m.ln()).sum::<f64>() / medians.len() as f64).exp()
}

/// FNV-1a, 64-bit: the hash the golden table stores for each emitted
/// protocol text.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Peak resident set size of this process (`VmHWM`), in MiB. Linux only.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// The golden hash of the protocol emitted for `instance` under schedule
/// rotation `rotation`, from `golden.txt` (taken from the code the
/// benchmark was defined on; the synthesized protocols must stay
/// byte-identical).
pub fn golden(instance: &str, rotation: usize) -> Option<u64> {
    include_str!("../golden.txt").lines().find_map(|line| {
        let mut f = line.split_whitespace();
        let (name, rot, hash) = (f.next()?, f.next()?, f.next()?);
        (name == instance && rot.parse() == Ok(rotation))
            .then(|| u64::from_str_radix(hash, 16).ok())
            .flatten()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 6.0);
        assert_eq!(percentile(&s, 90.0), 11.0);
        // With 12 samples, p99 is the maximum, not the 11th value.
        assert_eq!(percentile(&s, 99.0), 12.0);
        assert_eq!(percentile(&s, 100.0), 12.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 99.0), 99.0);
        assert_eq!(percentile(&hundred, 1.0), 1.0);
    }

    #[test]
    fn median_sorts_its_input() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn percentile_of_nothing_panics() {
        percentile(&[], 50.0);
    }

    #[test]
    fn geomean_of_medians_weighs_inputs_equally() {
        // Medians 2 and 8, whatever the sample counts: geometric mean 4.
        let by_input = vec![vec![1.0, 2.0, 3.0], vec![8.0], vec![]];
        assert!((geomean_of_medians(&by_input) - 4.0).abs() < 1e-12);
        assert!((geomean_of_medians(&[vec![5.0, 5.0]]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn golden_table_covers_every_instance_and_rotation() {
        for case in synth::CASES {
            for instance in [&case.full, &case.smoke] {
                let k = (instance.build)().0.num_processes();
                for rot in 0..k {
                    assert!(golden(instance.label, rot).is_some(), "{} r{rot}", instance.label);
                }
            }
        }
        assert_eq!(golden("no-such-instance", 0), None);
    }

    #[test]
    fn report_json_is_the_last_line_shape() {
        let mut r = Report::default();
        r.count(true);
        r.set("a", 1.5);
        assert!(r.correct(&[("a", "s")]));
        assert!(!r.correct(&[("a", "s"), ("b", "s")]));
        r.count(false);
        assert!(!r.correct(&[("a", "s")]));
    }
}
