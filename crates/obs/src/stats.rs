//! Synthesis statistics — the quantities the paper's evaluation plots.
//!
//! Figures 6/8/10 plot *ranking time*, *SCC-detection time* and *total
//! execution time*; Figures 7/9/11 plot *average SCC size* and *total
//! program size*, both measured in **BDD nodes** (the paper argues node
//! counts are the platform-independent space metric). [`SynthesisStats`]
//! accumulates exactly those series during a synthesis run.
//!
//! [`STATS`] is the one table over its fields. It builds the
//! `synthesis.stats` trace record and the job result's `stats`
//! ([`SynthesisStats::record`]), the one-shot `--metrics` exposition
//! ([`SynthesisStats::metrics`]) and the statistics block shared by the
//! CLI and `trace-summary` ([`SynthesisStats::render_block`]), and it
//! reads a recorded run back ([`SynthesisStats::from_record`]).

use crate::json::Json;
use crate::metrics::{Kind, MetricsText, Value};
use std::fmt::Write as _;
use std::time::Duration;

/// Counters filled in by one synthesis run.
#[derive(Debug, Clone, Default)]
pub struct SynthesisStats {
    /// Wall time spent in `ComputeRanks` (the §IV approximation).
    pub ranking_time: Duration,
    /// Wall time spent inside the symbolic cycle check
    /// (`Identify_Resolve_Cycles`), summed over all invocations.
    pub scc_time: Duration,
    /// Total wall time of the synthesis call.
    pub total_time: Duration,
    /// Number of `Identify_Resolve_Cycles` cycle checks (one per schedule
    /// step that tried a group; preprocessing's check is not counted).
    pub scc_calls: usize,
    /// Number of non-trivial SCCs the cycle checks built. A check builds
    /// only the SCCs that decide its groups, not every SCC of the graph.
    pub sccs_found: usize,
    /// Sum of the BDD node counts of every SCC counted in `sccs_found`
    /// (for the average-SCC-size series; 0 when none were built).
    pub scc_nodes_total: usize,
    /// BDD node count of the final `p_ss` transition relation — the
    /// "total program size" series.
    pub program_nodes: usize,
    /// Peak live BDD nodes in the manager over the run.
    pub peak_live_nodes: usize,
    /// Number of ranks `M` computed by `ComputeRanks`.
    pub max_rank: usize,
    /// Number of recovery groups included in `p_ss`.
    pub groups_added: usize,
    /// Number of candidate groups considered.
    pub candidates: usize,
    /// Which pass resolved the last deadlock (1–3); 0 when no recovery was
    /// needed at all.
    pub finished_in_pass: u8,
    /// Diagnostic: time scanning candidates (guard/From/To tests).
    pub scan_time: Duration,
    /// Diagnostic: time recomputing deadlock predicates.
    pub deadlock_time: Duration,
    /// Diagnostic: time folding accepted groups into `p_ss`.
    pub include_time: Duration,
    /// Budget ticks consumed by the run's BDD operations — a deterministic,
    /// platform-independent work metric (also the coordinate system for the
    /// fault-injection harness).
    pub bdd_ticks: u64,
    /// Garbage collections the run's BDD manager performed.
    pub gc_runs: usize,
    /// Operation-cache probes of the run's BDD manager.
    pub cache_lookups: u64,
    /// Operation-cache probes that hit.
    pub cache_hits: u64,
}

/// How the statistics block prints a row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// A plain count.
    Count,
    /// A count of BDD nodes.
    Nodes,
    /// Seconds, to the millisecond.
    Secs,
}

/// One [`SynthesisStats`] field: its record key, its Prometheus series
/// and its line in the statistics block.
pub struct Stat {
    /// Key in the `synthesis.stats` record and the job result's `stats`.
    pub key: &'static str,
    /// Series in the one-shot `--metrics` exposition.
    pub prom: &'static str,
    /// Prometheus type.
    pub kind: Kind,
    /// `# HELP` text.
    pub help: &'static str,
    /// Label in the statistics block, or `None` to leave the row out.
    pub label: Option<&'static str>,
    /// How the statistics block prints the value.
    pub unit: Unit,
    /// Reads the field.
    pub get: fn(&SynthesisStats) -> f64,
    /// Writes the field back from a record value.
    pub set: fn(&mut SynthesisStats, f64),
}

/// A [`Stat`] row over a `Duration` field (`secs`, keyed explicitly), or
/// over an integer field, keyed by the field's name.
macro_rules! stat {
    ($field:ident: secs $key:literal, $prom:literal, $help:literal, $label:expr) => {
        Stat {
            key: $key,
            prom: $prom,
            kind: Kind::Gauge,
            help: $help,
            label: $label,
            unit: Unit::Secs,
            get: |s| s.$field.as_secs_f64(),
            set: |s, v| s.$field = Duration::try_from_secs_f64(v).unwrap_or_default(),
        }
    };
    ($field:ident: $unit:ident $kind:ident, $prom:literal, $help:literal, $label:expr) => {
        Stat {
            key: stringify!($field),
            prom: $prom,
            kind: Kind::$kind,
            help: $help,
            label: $label,
            unit: Unit::$unit,
            get: |s| s.$field as f64,
            set: |s, v| s.$field = v as _,
        }
    };
}

/// Every [`SynthesisStats`] field, in `synthesis.stats` record order.
#[rustfmt::skip]
pub static STATS: &[Stat] = &[
    stat!(max_rank: Count Gauge, "stsyn_max_rank", "Number of ranks (paper's M)", Some("ranks (M)")),
    stat!(candidates: Count Counter, "stsyn_candidates_total", "Candidate groups considered", Some("candidates considered")),
    stat!(groups_added: Count Counter, "stsyn_groups_added_total", "Recovery groups added", Some("groups added")),
    stat!(finished_in_pass: Count Gauge, "stsyn_finished_in_pass", "Pass that removed the last deadlock", Some("finished in pass")),
    stat!(scc_calls: Count Counter, "stsyn_scc_calls_total", "Cycle checks of Identify_Resolve_Cycles", Some("SCC calls")),
    stat!(sccs_found: Count Counter, "stsyn_sccs_found_total", "Non-trivial SCCs the cycle checks built", Some("SCCs found")),
    stat!(scc_nodes_total: Nodes Counter, "stsyn_scc_nodes_total", "BDD nodes summed over every SCC the cycle checks built", None),
    stat!(program_nodes: Nodes Gauge, "stsyn_program_nodes", "Synthesized program size in BDD nodes", Some("program size")),
    stat!(peak_live_nodes: Nodes Gauge, "stsyn_peak_live_nodes", "Peak live BDD nodes", Some("peak live nodes")),
    stat!(bdd_ticks: Count Counter, "stsyn_bdd_ticks_total", "Budgeted BDD operations", Some("BDD ticks")),
    stat!(ranking_time: secs "ranking_secs", "stsyn_ranking_seconds", "Wall time of ComputeRanks", Some("ranking time")),
    stat!(scc_time: secs "scc_secs", "stsyn_scc_seconds", "Wall time of the cycle checks", Some("SCC detection time")),
    stat!(total_time: secs "total_secs", "stsyn_total_seconds", "Wall time of the whole run", Some("total time")),
    stat!(scan_time: secs "scan_secs", "stsyn_scan_seconds", "Wall time scanning candidates", None),
    stat!(deadlock_time: secs "deadlock_secs", "stsyn_deadlock_seconds", "Wall time recomputing deadlocks", None),
    stat!(include_time: secs "include_secs", "stsyn_include_seconds", "Wall time including groups", None),
    stat!(gc_runs: Count Counter, "stsyn_bdd_gc_runs_total", "BDD garbage collections", None),
    stat!(cache_lookups: Count Counter, "stsyn_bdd_cache_lookups_total", "BDD operation-cache probes", None),
    stat!(cache_hits: Count Counter, "stsyn_bdd_cache_hits_total", "BDD operation-cache hits", None),
];

impl SynthesisStats {
    /// Average SCC size in BDD nodes (the Fig. 7/9/11 series), or 0.0 when
    /// no SCC was ever detected (e.g. the locally-correctable coloring
    /// protocol).
    pub fn avg_scc_nodes(&self) -> f64 {
        if self.sccs_found == 0 {
            0.0
        } else {
            self.scc_nodes_total as f64 / self.sccs_found as f64
        }
    }

    /// Seconds spent ranking (convenience for the bench harness).
    pub fn ranking_secs(&self) -> f64 {
        self.ranking_time.as_secs_f64()
    }

    /// Seconds spent in SCC detection.
    pub fn scc_secs(&self) -> f64 {
        self.scc_time.as_secs_f64()
    }

    /// Total seconds.
    pub fn total_secs(&self) -> f64 {
        self.total_time.as_secs_f64()
    }

    /// Operation-cache hit rate in `[0, 1]`, or 0 when nothing was probed.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.cache_lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.cache_lookups as f64
        }
    }

    /// Every field as `(key, value)`: the fields of the `synthesis.stats`
    /// trace record and of a job result's `stats`.
    pub fn record(&self) -> Vec<(&'static str, Json)> {
        STATS.iter().map(|st| (st.key, Json::Num((st.get)(self)))).collect()
    }

    /// Read a recorded run back: `field` looks a record key up. Missing
    /// keys stay zero.
    pub fn from_record(field: impl Fn(&str) -> Option<f64>) -> SynthesisStats {
        let mut s = SynthesisStats::default();
        for st in STATS {
            if let Some(v) = field(st.key) {
                (st.set)(&mut s, v);
            }
        }
        s
    }

    /// The run as Prometheus text, one series per field.
    pub fn metrics(&self) -> MetricsText {
        let mut m = MetricsText::new();
        for st in STATS {
            m.sample(st.prom, st.kind, st.help, &Value::Num((st.get)(self)));
        }
        m
    }

    /// The statistics block: one line per labelled row, then the average
    /// SCC size and the operation-cache hit rate derived from them.
    pub fn render_block(&self) -> String {
        let mut out = String::new();
        let mut line = |label: &str, text: String| {
            let _ = writeln!(out, "  {label:<21} : {text}");
        };
        for st in STATS {
            let Some(label) = st.label else { continue };
            let v = (st.get)(self);
            line(
                label,
                match st.unit {
                    Unit::Count => format!("{}", v as u64),
                    Unit::Nodes => format!("{} BDD nodes", v as u64),
                    Unit::Secs => format!("{v:.3}s"),
                },
            );
        }
        line("avg SCC size", format!("{:.1} BDD nodes", self.avg_scc_nodes()));
        line(
            "op-cache hit rate",
            format!(
                "{:.1}% ({} / {})",
                100.0 * self.cache_hit_rate(),
                self.cache_hits,
                self.cache_lookups
            ),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn avg_scc_nodes_handles_zero() {
        let s = SynthesisStats::default();
        assert_eq!(s.avg_scc_nodes(), 0.0);
        let s2 = SynthesisStats { sccs_found: 4, scc_nodes_total: 100, ..Default::default() };
        assert_eq!(s2.avg_scc_nodes(), 25.0);
    }

    #[test]
    fn second_conversions() {
        let s = SynthesisStats {
            ranking_time: Duration::from_millis(250),
            scc_time: Duration::from_millis(500),
            total_time: Duration::from_secs(1),
            ..Default::default()
        };
        assert!((s.ranking_secs() - 0.25).abs() < 1e-9);
        assert!((s.scc_secs() - 0.5).abs() < 1e-9);
        assert!((s.total_secs() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn every_surface_comes_from_the_table() {
        let s = SynthesisStats {
            max_rank: 4,
            groups_added: 7,
            sccs_found: 2,
            scc_nodes_total: 30,
            ranking_time: Duration::from_millis(125),
            cache_lookups: 200,
            cache_hits: 50,
            ..Default::default()
        };
        let record = s.record();
        assert_eq!(record.len(), STATS.len());
        let back = SynthesisStats::from_record(|k| {
            record.iter().find(|(key, _)| *key == k).and_then(|(_, v)| v.as_f64())
        });
        assert_eq!(back.record(), record);

        let text = s.metrics().into_string();
        for st in STATS {
            assert!(crate::metrics::valid_name(st.prom));
            assert!(text.contains(&format!("# TYPE {} {}", st.prom, st.kind.name())));
        }
        assert!(text.contains("\nstsyn_groups_added_total 7\n"));
        assert!(text.contains("\nstsyn_ranking_seconds 0.125\n"));

        let block = s.render_block();
        assert!(block.contains("  ranks (M)             : 4\n"));
        assert!(block.contains("  ranking time          : 0.125s\n"));
        assert!(block.contains("  avg SCC size          : 15.0 BDD nodes\n"));
        assert!(block.contains("  op-cache hit rate     : 25.0% (50 / 200)\n"));
        assert_eq!(block.lines().count(), STATS.iter().filter(|st| st.label.is_some()).count() + 2);
    }
}
