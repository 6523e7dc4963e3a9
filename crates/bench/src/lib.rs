//! # stsyn-bench — the evaluation harness
//!
//! Regenerates every table and figure of the paper's evaluation (§VII)
//! and this repository's ablations. The `reproduce` binary runs each entry
//! point, prints it in the paper's layout and writes `results/<name>.csv`:
//!
//! | Artifact | Series | Entry point |
//! |---|---|---|
//! | Fig. 5 ("Table 1") | local correctability of the 4 case studies | [`table1_local_correctability`] |
//! | Figs. 6/7 | matching: times, avg SCC size & program size vs K | [`matching_sweep`] |
//! | Figs. 8/9 | coloring: times & BDD nodes vs K (5..40) | [`coloring_sweep`] |
//! | Figs. 10/11 | token ring (&#124;D&#124;=4): times & BDD nodes vs n | [`token_ring_sweep`] |
//! | §VI-C | TR² synthesis | [`two_ring_run`] |
//! | §VII (omitted study) | domain-size sweep | [`domain_sweep`] |
//! | §VII (omitted study) | recovery-schedule sweep | [`schedule_sweep_matching`] |
//! | ablation | explicit vs symbolic ComputeRanks and convergence check | [`symbolic_vs_explicit`] |
//! | ablation | interleaved vs blocked vs sifted variable order | [`variable_order`] |
//!
//! One [`Row`] per synthesis run carries **both** the time series (Figs. 6,
//! 8, 10) and the space series (Figs. 7, 9, 11), because the paper draws
//! the two figures of each pair from the same runs. Its CSV columns are
//! the instance columns, then every [`STATS`] key in table order, then
//! `verified`: the same keys as the `synthesis.stats` trace record and a
//! job result's `stats`. Each ablation writes its deterministic columns
//! (node counts, ranks, verdicts) next to a single-shot time.
//!
//! The SCC columns (`scc_calls`, `sccs_found`, `scc_nodes_total`) count
//! what the heuristic's cycle check built. It replaces the paper's
//! Gentilini SCC-Find, a decomposition of the whole graph, with a pivot
//! check that builds only the SCCs that decide a group; one-shot at the
//! default schedule, that took matching K=11 from ~129 s to under 5 s.

#![warn(missing_docs)]

use std::fmt::Write as _;
use std::time::Instant;
use stsyn_bdd::Bdd;
use stsyn_cases::{coloring, dijkstra_token_ring};
use stsyn_cases::{matching, token_ring, two_ring};
use stsyn_core::analysis::{local_correctability, LocalCorrectability};
use stsyn_core::candidates::CandidateSet;
use stsyn_core::{AddConvergence, Options};
use stsyn_obs::stats::{SynthesisStats, Unit, STATS};
use stsyn_protocol::explicit::{check_convergence, predicate_states, ExplicitGraph};
use stsyn_symbolic::check::strong_convergence;
use stsyn_symbolic::{compute_ranks, SymbolicContext, VarOrder};

/// One synthesis run — a point on every series of one figure pair.
#[derive(Debug, Clone)]
pub struct Row {
    /// The instance columns as `(header, value)`: `processes` and
    /// `states` for a size sweep, `schedule` and `success` for the
    /// schedule sweep.
    pub instance: [(&'static str, String); 2],
    /// The run's statistics (all zero but the total time when a schedule
    /// failed).
    pub stats: SynthesisStats,
    /// Did the independent model check pass?
    pub verified: bool,
}

/// The sizes one `reproduce` series runs: in full, as checked in under
/// `results/`, and trimmed by `--fast`.
#[derive(Debug, Clone, Copy)]
pub struct Sizes<T: 'static> {
    /// The full sweep.
    pub full: &'static [T],
    /// The `--fast` sweep.
    pub fast: &'static [T],
}

impl<T> Sizes<T> {
    /// The full or the `--fast` sizes.
    pub fn get(&self, fast: bool) -> &'static [T] {
        if fast {
            self.fast
        } else {
            self.full
        }
    }
}

/// [`matching_sweep`]'s K (the paper: 5..=11).
pub const MATCHING_KS: Sizes<usize> = Sizes { full: &[5, 6, 7, 8, 9, 10, 11], fast: &[5, 6, 7, 8] };
/// [`coloring_sweep`]'s K (the paper: 5, 10, …, 40).
pub const COLORING_KS: Sizes<usize> =
    Sizes { full: &[5, 10, 15, 20, 25, 30, 35, 40], fast: &[5, 10, 15, 20] };
/// [`token_ring_sweep`]'s n at |D| = 4 (the paper: up to 5).
pub const TOKEN_RING_NS: Sizes<usize> = Sizes { full: &[2, 3, 4, 5], fast: &[2, 3, 4] };
/// [`two_ring_run`]'s (r, |D|) (the paper: 8 processes, |D| = 4).
pub const TWO_RING_RD: Sizes<(usize, u32)> = Sizes { full: &[(4, 4)], fast: &[(3, 3)] };
/// [`domain_sweep`]'s |D| at n = 4.
pub const DOMAIN_DS: Sizes<u32> = Sizes { full: &[3, 4, 5, 6], fast: &[3, 4] };
/// [`schedule_sweep_matching`]'s K: one row per rotation.
pub const SCHEDULE_K: Sizes<usize> = Sizes { full: &[7], fast: &[6] };
/// [`symbolic_vs_explicit`]'s matching K for ComputeRanks.
pub const RANKS_KS: Sizes<usize> = Sizes { full: &[6, 8], fast: &[6] };
/// [`symbolic_vs_explicit`]'s token-ring n for the convergence check.
pub const CHECK_NS: Sizes<usize> = Sizes { full: &[4, 5], fast: &[4] };
/// [`variable_order`]'s token rings (n, |D|).
pub const VARIABLE_ORDER_TRS: Sizes<(usize, u32)> =
    Sizes { full: &[(4, 3), (5, 4), (6, 4)], fast: &[(4, 3), (5, 4)] };

/// Where the evaluation binaries write: `results/`, or the git-ignored
/// `results/fast/` for `--fast` runs, so that a trimmed run never
/// overwrites the checked-in full-size series.
pub fn results_dir(fast: bool) -> &'static str {
    if fast {
        "results/fast"
    } else {
        "results"
    }
}

fn run_one(p: stsyn_protocol::Protocol, i: stsyn_protocol::Expr, states: String) -> Row {
    let processes = p.num_processes().to_string();
    let problem = AddConvergence::new(p, i).expect("well-typed invariant");
    let mut outcome = problem.synthesize(&Options::default()).expect("synthesis succeeds");
    let verified = outcome.verify_strong();
    Row { instance: [("processes", processes), ("states", states)], stats: outcome.stats, verified }
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
    run_one(p, i, format!("2·{d}^{}", 2 * r))
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

/// Supplementary series: effect of the **recovery schedule** — run every
/// rotation of the process order on the same instance (the paper's Fig. 1
/// method runs these on separate machines; `synthesize_parallel` on
/// threads; here we run them sequentially to time each individually).
pub fn schedule_sweep_matching(k: usize) -> Vec<Row> {
    stsyn_core::Schedule::all_rotations(k)
        .into_iter()
        .map(|sch| {
            let (p, i) = matching(k);
            let problem = AddConvergence::new(p, i).expect("well-typed invariant");
            let instance =
                |success: bool| [("schedule", sch.to_string()), ("success", success.to_string())];
            let t = Instant::now();
            match problem.synthesize_with(&Options::default(), sch.clone()) {
                Ok(mut out) => Row {
                    instance: instance(true),
                    verified: out.verify_strong(),
                    stats: out.stats,
                },
                Err(_) => {
                    let stats =
                        SynthesisStats { total_time: t.elapsed(), ..SynthesisStats::default() };
                    Row { instance: instance(false), stats, verified: false }
                }
            }
        })
        .collect()
}

/// One row of the paper's case-study table (Fig. 5).
#[derive(Debug, Clone)]
pub struct CorrectabilityRow {
    /// Case-study name as in the paper.
    pub case_study: &'static str,
    /// Instance analyzed.
    pub instance: &'static str,
    /// The analyzer's verdict.
    pub verdict: String,
    /// The table's Yes/No column.
    pub locally_correctable: bool,
}

/// Fig. 5 ("Table 1: Local Correctability of Case Studies").
pub fn table1_local_correctability() -> Vec<CorrectabilityRow> {
    [
        ("3-Coloring", "ring of 5", coloring(5)),
        ("Matching", "ring of 5", matching(5)),
        ("Token Ring (TR)", "4 processes, |D| = 3", token_ring(4, 3)),
        ("Two-Ring TR", "2×2 processes, |D| = 3", two_ring(2, 3)),
    ]
    .into_iter()
    .map(|(case_study, instance, (p, i))| {
        let v = local_correctability(&p, &i);
        CorrectabilityRow {
            case_study,
            instance,
            locally_correctable: v == LocalCorrectability::Yes,
            verdict: v.to_string(),
        }
    })
    .collect()
}

/// Render rows as CSV: the instance columns, every [`STATS`] key in table
/// order (seconds to the microsecond), then `verified`.
pub fn rows_to_csv(rows: &[Row]) -> String {
    let Some(first) = rows.first() else { return String::new() };
    let mut header: Vec<&str> = first.instance.iter().map(|(key, _)| *key).collect();
    header.extend(STATS.iter().map(|st| st.key));
    header.push("verified");
    let mut out = header.join(",") + "\n";
    for r in rows {
        let mut cells: Vec<String> = r
            .instance
            .iter()
            .map(|(_, v)| if v.contains(',') { format!("\"{v}\"") } else { v.clone() })
            .collect();
        cells.extend(STATS.iter().map(|st| match st.unit {
            Unit::Secs => format!("{:.6}", (st.get)(&r.stats)),
            Unit::Count | Unit::Nodes => (st.get)(&r.stats).to_string(),
        }));
        cells.push(r.verified.to_string());
        out += &cells.join(",");
        out.push('\n');
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
        let s = &r.stats;
        let _ = writeln!(
            out,
            "{:>6} {:>14} {:>14.4} {:>14.4} {:>14.4} {:>10}",
            r.instance[0].1,
            r.instance[1].1,
            s.ranking_secs(),
            s.scc_secs(),
            s.total_secs(),
            r.verified
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
        let s = &r.stats;
        let _ = writeln!(
            out,
            "{:>6} {:>14} {:>18.1} {:>20} {:>14}",
            r.instance[0].1,
            r.instance[1].1,
            s.avg_scc_nodes(),
            s.program_nodes,
            s.peak_live_nodes
        );
    }
    out
}

/// Render an ablation's CSV as a right-aligned text table.
pub fn format_csv_table(csv: &str) -> String {
    let cells: Vec<Vec<&str>> = csv.lines().map(|l| l.split(',').collect()).collect();
    let cols = cells.first().map_or(0, Vec::len);
    let widths: Vec<usize> =
        (0..cols).map(|c| cells.iter().map(|r| r[c].len()).max().unwrap_or(0)).collect();
    let mut out = String::new();
    for row in &cells {
        let padded: Vec<String> =
            row.iter().zip(&widths).map(|(v, w)| format!("{v:>w$}")).collect();
        out += &padded.join("  ");
        out.push('\n');
    }
    out
}

/// Ablation: explicit-state versus symbolic computation of the method's
/// two pillars on the same instances. `ComputeRanks` runs over the
/// maximal candidate protocol `p_im` of `matching(k)` for each `k` in
/// `ks`, from the same candidate groups: BFS over their expanded
/// transitions versus the BDD fixpoint. The strong-convergence check runs
/// on `dijkstra_token_ring(n, 4)` for each `n` in `ns`. Each row gives the
/// explicit edge count, the symbolic relation's BDD nodes, both results
/// (the highest rank `M`, or the verdict), and each engine's seconds.
pub fn symbolic_vs_explicit(ks: &[usize], ns: &[usize]) -> String {
    let mut out = String::from(
        "check,protocol,processes,explicit_edges,symbolic_nodes,explicit,symbolic,explicit_secs,symbolic_secs\n",
    );
    for &k in ks {
        let (p, i_expr) = matching(k);
        let mut ctx = SymbolicContext::new(p.clone());
        let i = ctx.compile(&i_expr);
        let cands = CandidateSet::build(&mut ctx, i);
        let start = Instant::now();
        let pim = cands.pim(&mut ctx, Bdd::FALSE);
        let symbolic = compute_ranks(&mut ctx, pim, i).max_rank();
        let symbolic_secs = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let edges = cands.all.iter().flat_map(|c| c.desc.transitions(&p)).collect();
        let graph = ExplicitGraph::from_edges(p.space().size() as usize, edges);
        let ranks = graph.backward_ranks(&predicate_states(&p, &i_expr));
        let explicit = ranks.into_iter().filter(|&r| r != u32::MAX).max().unwrap_or(0) as usize;
        let explicit_secs = start.elapsed().as_secs_f64();
        assert_eq!(explicit, symbolic, "ranks disagree on matching({k})");
        let nodes = ctx.mgr_ref().node_count(pim);
        let _ = writeln!(
            out,
            "compute_ranks,matching,{k},{},{nodes},{explicit},{symbolic},{explicit_secs:.6},{symbolic_secs:.6}",
            graph.num_edges()
        );
    }
    for &n in ns {
        let (p, i_expr) = dijkstra_token_ring(n, 4);
        let start = Instant::now();
        let explicit = check_convergence(&p, &i_expr).strongly_converges();
        let explicit_secs = start.elapsed().as_secs_f64();
        let edges = ExplicitGraph::of_protocol(&p).num_edges();
        let start = Instant::now();
        let mut ctx = SymbolicContext::new(p);
        let t = ctx.protocol_relation();
        let i = ctx.compile(&i_expr);
        let symbolic = strong_convergence(&mut ctx, t, i);
        let symbolic_secs = start.elapsed().as_secs_f64();
        assert_eq!(explicit, symbolic, "verdicts disagree on dijkstra_token_ring({n}, 4)");
        let nodes = ctx.mgr_ref().node_count(t);
        let _ = writeln!(
            out,
            "strong_convergence,dijkstra_token_ring_d4,{n},{edges},{nodes},{explicit},{symbolic},{explicit_secs:.6},{symbolic_secs:.6}"
        );
    }
    out
}

/// Ablation: the BDD size of Dijkstra's token-ring relation under the
/// interleaved current/primed order, under the blocked
/// (all-current-then-all-primed) order, and after Rudell's sifting from
/// the blocked order, for each `(n, |D|)` in `instances`, with the
/// sifting's seconds. Interleaving keeps every frame condition
/// (`v' = v` for all unwritten `v`) linear; the blocked order makes each
/// conjunct span the whole order, and sifting recovers a compact order
/// without knowing the protocol.
pub fn variable_order(instances: &[(usize, u32)]) -> String {
    let mut out = String::from("processes,domain,interleaved,blocked,blocked_sifted,sift_secs\n");
    for &(n, d) in instances {
        let size = |order| {
            let mut ctx = SymbolicContext::with_order(dijkstra_token_ring(n, d).0, order);
            let t = ctx.protocol_relation();
            (ctx.mgr_ref().node_count(t), ctx, t)
        };
        let (interleaved, ..) = size(VarOrder::Interleaved);
        let (blocked, mut ctx, t) = size(VarOrder::Blocked);
        let start = Instant::now();
        let (_, sifted) = ctx.mgr().sift(&[t]);
        let secs = start.elapsed().as_secs_f64();
        let _ = writeln!(out, "{n},{d},{interleaved},{blocked},{sifted},{secs:.6}");
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
        assert!(rows[1].stats.total_secs() >= 0.0);
        let rows = coloring_sweep(&[4]);
        assert!(rows[0].verified);
        assert_eq!(rows[0].stats.sccs_found, 0);
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
    fn csv_columns_are_the_stats_table() {
        let rows = token_ring_sweep(&[3], 3);
        let csv = rows_to_csv(&rows);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        let header: Vec<&str> = lines[0].split(',').collect();
        let keys: Vec<&str> = STATS.iter().map(|st| st.key).collect();
        assert_eq!(header[..2], ["processes", "states"]);
        assert_eq!(header[2..header.len() - 1], keys[..]);
        assert_eq!(header.last(), Some(&"verified"));
        assert_eq!(lines[1].split(',').count(), header.len());
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
        assert_eq!(rows[2].instance[1].1, "4^3");
    }

    #[test]
    fn schedule_sweep_covers_all_rotations() {
        let rows = schedule_sweep_matching(5);
        assert_eq!(rows.len(), 5);
        assert!(rows.iter().all(|r| r.verified), "every rotation succeeds on matching(5)");
        let csv = rows_to_csv(&rows);
        assert_eq!(csv.lines().count(), 6);
        assert!(csv.starts_with("schedule,success,"));
        assert!(csv.contains("\"(P1, P2, P3, P4, P0)\",true,"));
    }

    #[test]
    fn two_ring_row_verifies() {
        let row = two_ring_run(2, 3);
        assert!(row.verified);
        assert_eq!(row.instance[0].1, "4");
    }

    #[test]
    fn ablations_render_one_row_per_measurement() {
        let csv = symbolic_vs_explicit(&[4], &[3]);
        assert_eq!(csv.lines().count(), 3);
        assert!(format_csv_table(&csv).contains("compute_ranks"));
        assert!(csv.contains("strong_convergence,dijkstra_token_ring_d4,3,"));
        let csv = variable_order(&[(3, 3)]);
        let row: Vec<usize> =
            csv.lines().nth(1).unwrap().split(',').take(5).map(|v| v.parse().unwrap()).collect();
        assert!(row[4] <= row[3], "sifting never grows the blocked relation");
    }
}
