//! `reproduce` — regenerate the paper's evaluation artifacts.
//!
//! ```text
//! cargo run --release -p stsyn-bench --bin reproduce -- all [--fast]
//! cargo run --release -p stsyn-bench --bin reproduce -- fig6 fig7
//! ```
//!
//! Artifacts: `table1`, `fig6`/`fig7` (matching), `fig8`/`fig9`
//! (coloring), `fig10`/`fig11` (token ring |D| = 4), `tr2` (§VI-C),
//! `domains`, `schedules`, and the ablations `symbolic_vs_explicit` and
//! `variable_order`. CSV copies of every series land in `results/`.
//! `--fast` trims each sweep to the sizes that finish in seconds and
//! writes to the git-ignored `results/fast/` instead.

use std::collections::BTreeSet;
use stsyn_bench::*;

const ALL: &[&str] = &[
    "table1",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "tr2",
    "domains",
    "schedules",
    "symbolic_vs_explicit",
    "variable_order",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast");
    let mut wanted: BTreeSet<&str> =
        args.iter().filter(|a| !a.starts_with("--")).map(String::as_str).collect();
    if wanted.is_empty() || wanted.contains("all") {
        wanted = ALL.iter().copied().collect();
    }
    if let Some(unknown) = wanted.iter().find(|a| !ALL.contains(a)) {
        eprintln!("unknown artifact `{unknown}`; expected `all` or one of {ALL:?}");
        std::process::exit(2);
    }
    let dir = results_dir(fast);
    std::fs::create_dir_all(dir).expect("create results dir");
    let write =
        |name: &str, csv: String| std::fs::write(format!("{dir}/{name}"), csv).expect("write CSV");

    if wanted.contains("table1") {
        println!("== Table 1 (Fig. 5): Local Correctability of Case Studies ==\n");
        println!("{:<18} {:<24} {:<10} Analyzer verdict", "Case Study", "Instance", "Locally");
        println!("{:<18} {:<24} {:<10}", "", "", "Correctable");
        let rows = table1_local_correctability();
        for r in &rows {
            println!(
                "{:<18} {:<24} {:<10} {}",
                r.case_study,
                r.instance,
                if r.locally_correctable { "Yes" } else { "No" },
                r.verdict
            );
        }
        let lines: Vec<String> =
            rows.iter().map(|r| format!("{}: {}", r.case_study, r.locally_correctable)).collect();
        write("table1.txt", lines.join("\n"));
        println!();
    }

    if wanted.contains("fig6") || wanted.contains("fig7") {
        let ks = MATCHING_KS.get(fast);
        eprintln!("running matching sweep K = {ks:?} (paper: 5..=11, ~65 s at 11)…");
        let rows = matching_sweep(ks);
        if wanted.contains("fig6") {
            println!("{}", format_time_figure("== Fig. 6: Execution Times for Matching ==", &rows));
        }
        if wanted.contains("fig7") {
            println!("{}", format_space_figure("== Fig. 7: Memory Usage for Matching ==", &rows));
        }
        write("matching.csv", rows_to_csv(&rows));
    }

    if wanted.contains("fig8") || wanted.contains("fig9") {
        let ks = COLORING_KS.get(fast);
        eprintln!("running coloring sweep K = {ks:?} (paper: 5..=40 step 5)…");
        let rows = coloring_sweep(ks);
        if wanted.contains("fig8") {
            println!(
                "{}",
                format_time_figure("== Fig. 8: Execution Times for 3-Coloring ==", &rows)
            );
        }
        if wanted.contains("fig9") {
            println!("{}", format_space_figure("== Fig. 9: Memory Usage for 3-Coloring ==", &rows));
        }
        write("coloring.csv", rows_to_csv(&rows));
    }

    if wanted.contains("fig10") || wanted.contains("fig11") {
        let ns = TOKEN_RING_NS.get(fast);
        eprintln!("running token-ring sweep n = {ns:?}, |D| = 4 (paper: up to 5)…");
        let rows = token_ring_sweep(ns, 4);
        if wanted.contains("fig10") {
            println!(
                "{}",
                format_time_figure("== Fig. 10: Execution Times of Token Ring |D|=4 ==", &rows)
            );
        }
        if wanted.contains("fig11") {
            println!(
                "{}",
                format_space_figure("== Fig. 11: Memory Usage of Token Ring |D|=4 ==", &rows)
            );
        }
        write("token_ring.csv", rows_to_csv(&rows));
    }

    if wanted.contains("tr2") {
        let (r, d) = TWO_RING_RD.get(fast)[0];
        eprintln!("running TR² (r = {r}, |D| = {d}; paper: 8 processes, |D| = 4)…");
        let row = two_ring_run(r, d);
        let s = &row.stats;
        println!("== §VI-C: Two-Ring Token Ring ==");
        println!(
            "{} processes, {} states: total {:.3} s (SCC {:.3} s), {} groups, pass {}, verified {}\n",
            row.instance[0].1,
            row.instance[1].1,
            s.total_secs(),
            s.scc_secs(),
            s.groups_added,
            s.finished_in_pass,
            row.verified
        );
        write("two_ring.csv", rows_to_csv(&[row]));
    }

    if wanted.contains("domains") {
        let ds = DOMAIN_DS.get(fast);
        eprintln!("running domain sweep: token ring n = 4, |D| = {ds:?}…");
        let rows = domain_sweep(4, ds);
        println!("== Supplementary: effect of domain size (token ring, n = 4) ==");
        println!(
            "{:>8} {:>14} {:>14} {:>14} {:>10}",
            "|D|", "SCC (s)", "total (s)", "program", "verified"
        );
        for (d, r) in ds.iter().zip(&rows) {
            let s = &r.stats;
            println!(
                "{:>8} {:>14.4} {:>14.4} {:>14} {:>10}",
                d,
                s.scc_secs(),
                s.total_secs(),
                s.program_nodes,
                r.verified
            );
        }
        println!();
        write("domains.csv", rows_to_csv(&rows));
    }

    if wanted.contains("schedules") {
        let k = SCHEDULE_K.get(fast)[0];
        eprintln!("running schedule sweep: matching({k}), all {k} rotations…");
        let rows = schedule_sweep_matching(k);
        println!("== Supplementary: effect of the recovery schedule (matching, K = {k}) ==");
        println!(
            "{:<30} {:>8} {:>12} {:>8} {:>6} {:>8}",
            "schedule", "success", "total (s)", "groups", "pass", "SCCs"
        );
        for r in &rows {
            let s = &r.stats;
            println!(
                "{:<30} {:>8} {:>12.4} {:>8} {:>6} {:>8}",
                r.instance[0].1,
                r.instance[1].1,
                s.total_secs(),
                s.groups_added,
                s.finished_in_pass,
                s.sccs_found
            );
        }
        println!();
        write("schedules.csv", rows_to_csv(&rows));
    }

    if wanted.contains("symbolic_vs_explicit") {
        let (ks, ns) = (RANKS_KS.get(fast), CHECK_NS.get(fast));
        eprintln!("running explicit vs symbolic: ranks on matching {ks:?}, check on TR {ns:?}…");
        let csv = symbolic_vs_explicit(ks, ns);
        println!("== Ablation: explicit-state vs symbolic ComputeRanks and convergence check ==");
        println!("{}", format_csv_table(&csv));
        write("symbolic_vs_explicit.csv", csv);
    }

    if wanted.contains("variable_order") {
        let instances = VARIABLE_ORDER_TRS.get(fast);
        eprintln!("running variable orders on TR {instances:?}…");
        let csv = variable_order(instances);
        println!("== Ablation: variable order of the token-ring relation (BDD nodes) ==");
        println!("{}", format_csv_table(&csv));
        write("variable_order.csv", csv);
    }

    eprintln!("CSV series written to {dir}/");
}
