//! Keeps `results/` in step with the code: the smallest instance of each
//! series `reproduce` writes is run again through the same functions, and
//! its heuristic-determined columns must equal the first data row of the
//! checked-in CSV, read by header.
//!
//! Times are never compared. Neither are `peak_live_nodes`, `bdd_ticks`,
//! `gc_runs` and `cache_*`: `BENCH_counters.json` pins those
//! (`tests/bench_counters.rs`). `two_ring.csv` is left out: its one
//! instance, TR² with 8 processes, takes seconds even in release.
//!
//! Every checked-in series must also have the full sweep's rows, so a
//! trimmed `--fast` run cannot stand in for it.
//!
//! After a deliberate change to what the heuristic decides, regenerate
//! the files with `cargo run --release -p stsyn-bench --bin reproduce --
//! all`.

use std::collections::HashMap;
use stsyn_bench::{
    coloring_sweep, domain_sweep, matching_sweep, rows_to_csv, schedule_sweep_matching,
    symbolic_vs_explicit, token_ring_sweep, variable_order, CHECK_NS, COLORING_KS, DOMAIN_DS,
    MATCHING_KS, RANKS_KS, SCHEDULE_K, TOKEN_RING_NS, TWO_RING_RD, VARIABLE_ORDER_TRS,
};

/// The synthesis columns that follow from the heuristic's decisions.
const DETERMINED: &[&str] = &[
    "program_nodes",
    "max_rank",
    "candidates",
    "groups_added",
    "finished_in_pass",
    "scc_calls",
    "sccs_found",
    "scc_nodes_total",
    "verified",
];

/// The cells of one CSV line; a quoted cell may hold commas.
fn cells(line: &str) -> Vec<String> {
    let mut out = vec![String::new()];
    let mut quoted = false;
    for c in line.chars() {
        match c {
            '"' => quoted = !quoted,
            ',' if !quoted => out.push(String::new()),
            _ => out.last_mut().unwrap().push(c),
        }
    }
    out
}

/// The first data row of a CSV, keyed by its header.
fn first_row(csv: &str) -> HashMap<String, String> {
    let mut lines = csv.lines();
    let header = lines.next().expect("CSV has a header");
    let row = lines.next().expect("CSV has a data row");
    cells(header).into_iter().zip(cells(row)).collect()
}

/// The checked-in `results/<file>`.
fn stored(file: &str) -> String {
    let path = format!("{}/results/{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Compare `columns` of the fresh CSV's first row with the checked-in
/// `results/<file>`; every column name must appear in both.
fn assert_matches_results(file: &str, fresh: &str, columns: &[&str]) {
    let (stored, fresh) = (first_row(&stored(file)), first_row(fresh));
    for &col in columns {
        let (Some(want), Some(got)) = (stored.get(col), fresh.get(col)) else {
            panic!("{file}: column `{col}` missing (regenerate with `reproduce all`)");
        };
        assert_eq!(got, want, "{file}: `{col}` moved (regenerate with `reproduce all`)");
    }
}

#[test]
fn smallest_instance_of_each_sweep_matches_results() {
    assert_matches_results("matching.csv", &rows_to_csv(&matching_sweep(&[5])), DETERMINED);
    assert_matches_results("coloring.csv", &rows_to_csv(&coloring_sweep(&[5])), DETERMINED);
    assert_matches_results("token_ring.csv", &rows_to_csv(&token_ring_sweep(&[2], 4)), DETERMINED);
    assert_matches_results("domains.csv", &rows_to_csv(&domain_sweep(4, &[3])), DETERMINED);
}

#[test]
fn first_schedule_matches_results() {
    // The sweep has one size, matching(7); its first row is the first
    // rotation, (P0, …, P6). About 2.5 s in debug.
    let fresh = rows_to_csv(&schedule_sweep_matching(7));
    assert_matches_results(
        "schedules.csv",
        &fresh,
        &[&["schedule", "success"], DETERMINED].concat(),
    );
}

#[test]
fn smallest_instance_of_each_ablation_matches_results() {
    // Every column but the single-shot times.
    let deterministic = |csv: &str| -> Vec<String> {
        let header = csv.lines().next().unwrap_or_default();
        header.split(',').filter(|c| !c.ends_with("secs")).map(String::from).collect()
    };
    for (file, fresh) in [
        ("symbolic_vs_explicit.csv", symbolic_vs_explicit(&[6], &[])),
        ("variable_order.csv", variable_order(&[(4, 3)])),
    ] {
        let columns = deterministic(&fresh);
        let columns: Vec<&str> = columns.iter().map(String::as_str).collect();
        assert_matches_results(file, &fresh, &columns);
    }
}

#[test]
fn every_series_has_the_full_sweeps_rows() {
    let sizes = |ks: &[usize]| ks.iter().map(usize::to_string).collect::<Vec<_>>();
    for (file, processes) in [
        ("matching.csv", MATCHING_KS.full),
        ("coloring.csv", COLORING_KS.full),
        ("token_ring.csv", TOKEN_RING_NS.full),
    ] {
        let csv = stored(file);
        let column: Vec<String> = csv.lines().skip(1).map(|l| cells(l)[0].clone()).collect();
        assert_eq!(column, sizes(processes), "{file}: not the full sweep (`reproduce all`)");
    }
    for (file, rows) in [
        ("two_ring.csv", TWO_RING_RD.full.len()),
        ("domains.csv", DOMAIN_DS.full.len()),
        ("schedules.csv", SCHEDULE_K.full[0]),
        ("symbolic_vs_explicit.csv", RANKS_KS.full.len() + CHECK_NS.full.len()),
        ("variable_order.csv", VARIABLE_ORDER_TRS.full.len()),
    ] {
        let got = stored(file).lines().count() - 1;
        assert_eq!(got, rows, "{file}: {got} rows, the full sweep has {rows} (`reproduce all`)");
    }
}
