//! # stsyn-bench — the evaluation harness
//!
//! Regenerates every table and figure of the paper's evaluation (§VII):
//!
//! | Paper artifact | Series | Harness entry point |
//! |---|---|---|
//! | Fig. 5 ("Table 1") | local correctability of the 4 case studies | [`table1_local_correctability`] |
//! | Fig. 6 | matching: ranking / SCC / total time vs K | [`matching_sweep`] |
//! | Fig. 7 | matching: avg SCC size & program size (BDD nodes) vs K | [`matching_sweep`] |
//! | Fig. 8 | coloring: times vs K (5..40) | [`coloring_sweep`] |
//! | Fig. 9 | coloring: BDD nodes vs K | [`coloring_sweep`] |
//! | Fig. 10 | token ring (&#124;D&#124;=4): times vs n | [`token_ring_sweep`] |
//! | Fig. 11 | token ring (&#124;D&#124;=4): BDD nodes vs n | [`token_ring_sweep`] |
//! | §VI-C | TR² synthesis | [`two_ring_run`] |
//! | §VII (omitted study) | domain-size sweep | [`domain_sweep`] |
//! | §VII (omitted study) | recovery-schedule sweep | [`schedule_sweep_matching`] |
//!
//! One [`Row`] per instance carries **both** the time series (Figs. 6, 8,
//! 10) and the space series (Figs. 7, 9, 11), because the paper draws the
//! two figures of each pair from the same runs. The `reproduce` binary
//! prints them in the paper's layout and writes CSV files; the Criterion
//! benches under `benches/` wrap the same entry points for statistically
//! sound timing.

#![warn(missing_docs)]

pub mod harness;

use std::fmt::Write as _;
use stsyn_cases::{coloring, matching, token_ring, two_ring};
use stsyn_core::analysis::{local_correctability, LocalCorrectability};
use stsyn_core::{AddConvergence, Options};

/// One synthesis run's measurements — a point on every series of one
/// figure pair.
#[derive(Debug, Clone)]
pub struct Row {
    /// Number of processes.
    pub processes: usize,
    /// `|S_p|` as a string (exceeds u64 for coloring(40)).
    pub states: String,
    /// Fig. 6/8/10 series: seconds in `ComputeRanks`.
    pub ranking_secs: f64,
    /// Fig. 6/8/10 series: seconds in SCC detection.
    pub scc_secs: f64,
    /// Fig. 6/8/10 series: total synthesis seconds.
    pub total_secs: f64,
    /// Fig. 7/9/11 series: average SCC size in BDD nodes.
    pub avg_scc_nodes: f64,
    /// Fig. 7/9/11 series: total program size in BDD nodes.
    pub program_nodes: usize,
    /// Supplementary: peak live BDD nodes.
    pub peak_nodes: usize,
    /// Supplementary: number of SCCs resolved.
    pub sccs: usize,
    /// Supplementary: recovery groups added.
    pub groups_added: usize,
    /// Which pass finished (0 = none needed).
    pub pass: u8,
    /// Did the independent model check pass?
    pub verified: bool,
}

fn run_one(p: stsyn_protocol::Protocol, i: stsyn_protocol::Expr, states: String) -> Row {
    let k = p.num_processes();
    let problem = AddConvergence::new(p, i).expect("well-typed invariant");
    let mut outcome = problem.synthesize(&Options::default()).expect("synthesis succeeds");
    let verified = outcome.verify_strong();
    let s = &outcome.stats;
    Row {
        processes: k,
        states,
        ranking_secs: s.ranking_secs(),
        scc_secs: s.scc_secs(),
        total_secs: s.total_secs(),
        avg_scc_nodes: s.avg_scc_nodes(),
        program_nodes: s.program_nodes,
        peak_nodes: s.peak_live_nodes,
        sccs: s.sccs_found,
        groups_added: s.groups_added,
        pass: s.finished_in_pass,
        verified,
    }
}

/// Figs. 6 & 7: synthesize maximal matching for each `K` in `ks`
/// (the paper sweeps 5..=11).
pub fn matching_sweep(ks: &[usize]) -> Vec<Row> {
    ks.iter()
        .map(|&k| {
            let (p, i) = matching(k);
            run_one(p, i, format!("3^{k}"))
        })
        .collect()
}

/// Figs. 8 & 9: synthesize three-coloring for each `K` in `ks`
/// (the paper sweeps 5, 10, …, 40).
pub fn coloring_sweep(ks: &[usize]) -> Vec<Row> {
    ks.iter()
        .map(|&k| {
            let (p, i) = coloring(k);
            run_one(p, i, format!("3^{k}"))
        })
        .collect()
}

/// Figs. 10 & 11: synthesize the token ring with domain size `d`
/// (the paper fixes |D| = 4 and sweeps the process count).
pub fn token_ring_sweep(ns: &[usize], d: u32) -> Vec<Row> {
    ns.iter()
        .map(|&n| {
            let (p, i) = token_ring(n, d);
            run_one(p, i, format!("{d}^{n}"))
        })
        .collect()
}

/// §VI-C: one TR² synthesis (`r` processes per ring, domain `d`; the
/// paper's instance is `r = 4, d = 4`).
pub fn two_ring_run(r: usize, d: u32) -> Row {
    let (p, i) = two_ring(r, d);
    let states = format!("2·{d}^{}", 2 * r);
    run_one(p, i, states)
}

/// Supplementary series (the paper references this study but omits it for
/// space): effect of the **variable domain size** on token-ring synthesis
/// at a fixed process count.
pub fn domain_sweep(n: usize, ds: &[u32]) -> Vec<Row> {
    ds.iter()
        .map(|&d| {
            let (p, i) = token_ring(n, d);
            run_one(p, i, format!("{d}^{n}"))
        })
        .collect()
}

/// One schedule-exploration measurement.
#[derive(Debug, Clone)]
pub struct ScheduleRow {
    /// The schedule, in the paper's `(P1, P2, …)` notation.
    pub schedule: String,
    /// Did this schedule find a solution?
    pub success: bool,
    /// Total synthesis seconds (or time to failure).
    pub total_secs: f64,
    /// Groups added on success.
    pub groups_added: usize,
    /// Pass that finished (on success).
    pub pass: u8,
    /// SCCs resolved along the way.
    pub sccs: usize,
}

/// Supplementary series: effect of the **recovery schedule** — run every
/// rotation of the process order on the same instance (the paper's Fig. 1
/// method runs these on separate machines; `synthesize_parallel` on
/// threads; here we run them sequentially to time each individually).
pub fn schedule_sweep_matching(k: usize) -> Vec<ScheduleRow> {
    use std::time::Instant;
    stsyn_core::Schedule::all_rotations(k)
        .into_iter()
        .map(|sch| {
            let (p, i) = matching(k);
            let problem = AddConvergence::new(p, i).unwrap();
            let label = sch.to_string();
            let t = Instant::now();
            match problem.synthesize_with(&Options::default(), sch) {
                Ok(out) => ScheduleRow {
                    schedule: label,
                    success: true,
                    total_secs: out.stats.total_secs(),
                    groups_added: out.stats.groups_added,
                    pass: out.stats.finished_in_pass,
                    sccs: out.stats.sccs_found,
                },
                Err(_) => ScheduleRow {
                    schedule: label,
                    success: false,
                    total_secs: t.elapsed().as_secs_f64(),
                    groups_added: 0,
                    pass: 0,
                    sccs: 0,
                },
            }
        })
        .collect()
}

/// Render schedule rows as CSV.
pub fn schedule_rows_to_csv(rows: &[ScheduleRow]) -> String {
    let mut out = String::from(
        "schedule,success,total_secs,groups_added,pass,sccs
",
    );
    for r in rows {
        let _ = writeln!(
            out,
            "\"{}\",{},{:.6},{},{},{}",
            r.schedule, r.success, r.total_secs, r.groups_added, r.pass, r.sccs
        );
    }
    out
}

/// One row of the paper's case-study table (Fig. 5).
#[derive(Debug, Clone)]
pub struct CorrectabilityRow {
    /// Case-study name as in the paper.
    pub case_study: &'static str,
    /// Instance analyzed.
    pub instance: String,
    /// The analyzer's verdict.
    pub verdict: String,
    /// The table's Yes/No column.
    pub locally_correctable: bool,
}

/// Fig. 5 ("Table 1: Local Correctability of Case Studies").
pub fn table1_local_correctability() -> Vec<CorrectabilityRow> {
    let mut rows = Vec::new();
    let (p, i) = coloring(5);
    let v = local_correctability(&p, &i);
    rows.push(CorrectabilityRow {
        case_study: "3-Coloring",
        instance: "ring of 5".into(),
        locally_correctable: v == LocalCorrectability::Yes,
        verdict: v.to_string(),
    });
    let (p, i) = matching(5);
    let v = local_correctability(&p, &i);
    rows.push(CorrectabilityRow {
        case_study: "Matching",
        instance: "ring of 5".into(),
        locally_correctable: v == LocalCorrectability::Yes,
        verdict: v.to_string(),
    });
    let (p, i) = token_ring(4, 3);
    let v = local_correctability(&p, &i);
    rows.push(CorrectabilityRow {
        case_study: "Token Ring (TR)",
        instance: "4 processes, |D| = 3".into(),
        locally_correctable: v == LocalCorrectability::Yes,
        verdict: v.to_string(),
    });
    let (p, i) = two_ring(2, 3);
    let v = local_correctability(&p, &i);
    rows.push(CorrectabilityRow {
        case_study: "Two-Ring TR",
        instance: "2×2 processes, |D| = 3".into(),
        locally_correctable: v == LocalCorrectability::Yes,
        verdict: v.to_string(),
    });
    rows
}

/// Render rows as CSV (time and space series together).
pub fn rows_to_csv(rows: &[Row]) -> String {
    let mut out = String::from(
        "processes,states,ranking_secs,scc_secs,total_secs,avg_scc_nodes,program_nodes,peak_nodes,sccs,groups_added,pass,verified\n",
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{},{},{:.6},{:.6},{:.6},{:.1},{},{},{},{},{},{}",
            r.processes,
            r.states,
            r.ranking_secs,
            r.scc_secs,
            r.total_secs,
            r.avg_scc_nodes,
            r.program_nodes,
            r.peak_nodes,
            r.sccs,
            r.groups_added,
            r.pass,
            r.verified
        );
    }
    out
}

/// Render the time figure (Figs. 6/8/10 layout).
pub fn format_time_figure(title: &str, rows: &[Row]) -> String {
    let mut out = format!("{title}\n");
    let _ = writeln!(
        out,
        "{:>6} {:>14} {:>14} {:>14} {:>14} {:>10}",
        "# proc", "states", "ranking (s)", "SCC (s)", "total (s)", "verified"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:>6} {:>14} {:>14.4} {:>14.4} {:>14.4} {:>10}",
            r.processes, r.states, r.ranking_secs, r.scc_secs, r.total_secs, r.verified
        );
    }
    out
}

/// Render the space figure (Figs. 7/9/11 layout).
pub fn format_space_figure(title: &str, rows: &[Row]) -> String {
    let mut out = format!("{title}\n");
    let _ = writeln!(
        out,
        "{:>6} {:>14} {:>18} {:>20} {:>14}",
        "# proc", "states", "avg SCC (nodes)", "program size (nodes)", "peak nodes"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:>6} {:>14} {:>18.1} {:>20} {:>14}",
            r.processes, r.states, r.avg_scc_nodes, r.program_nodes, r.peak_nodes
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweeps_produce_verified_rows() {
        let rows = token_ring_sweep(&[2, 3], 3);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.verified));
        assert!(rows[1].total_secs >= 0.0);
        let rows = coloring_sweep(&[4]);
        assert!(rows[0].verified);
        assert_eq!(rows[0].sccs, 0);
    }

    #[test]
    fn table1_matches_paper() {
        let rows = table1_local_correctability();
        assert_eq!(rows.len(), 4);
        let by_name: std::collections::HashMap<&str, bool> =
            rows.iter().map(|r| (r.case_study, r.locally_correctable)).collect();
        assert!(by_name["3-Coloring"]);
        assert!(!by_name["Matching"]);
        assert!(!by_name["Token Ring (TR)"]);
        assert!(!by_name["Two-Ring TR"]);
    }

    #[test]
    fn csv_and_figures_render() {
        let rows = token_ring_sweep(&[3], 3);
        let csv = rows_to_csv(&rows);
        assert!(csv.lines().count() == 2);
        assert!(csv.starts_with("processes,"));
        let t = format_time_figure("Fig. X", &rows);
        assert!(t.contains("ranking"));
        let s = format_space_figure("Fig. Y", &rows);
        assert!(s.contains("program size"));
    }

    #[test]
    fn domain_sweep_rows_verify() {
        let rows = domain_sweep(3, &[2, 3, 4]);
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.verified));
        assert_eq!(rows[2].states, "4^3");
    }

    #[test]
    fn schedule_sweep_covers_all_rotations() {
        let rows = schedule_sweep_matching(5);
        assert_eq!(rows.len(), 5);
        assert!(rows.iter().all(|r| r.success), "every rotation succeeds on matching(5)");
        let csv = schedule_rows_to_csv(&rows);
        assert_eq!(csv.lines().count(), 6);
        assert!(csv.contains("(P1, P2, P3, P4, P0)"));
    }

    #[test]
    fn two_ring_row_verifies() {
        let row = two_ring_run(2, 3);
        assert!(row.verified);
        assert_eq!(row.processes, 4);
    }
}
