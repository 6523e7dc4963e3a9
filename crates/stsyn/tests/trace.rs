//! Observability pipeline tests: every record a traced synthesis emits
//! passes the NDJSON schema validator, spans nest well-formed across a
//! full run, the summarizer's Table-1 numbers agree *exactly* with the
//! run's own `SynthesisStats`, and a disabled tracer leaves the
//! synthesized protocol byte-identical to the untraced path.

use stsyn_bdd::Budget;
use stsyn_cases::coloring::coloring;
use stsyn_cases::matching::matching;
use stsyn_cases::two_ring::two_ring;
use stsyn_core::{AddConvergence, Options, Outcome};
use stsyn_obs::{open_spans, parse_trace, summarize, Json, TraceLevel, Tracer};

fn printed(outcome: &Outcome, invariant: &stsyn_protocol::expr::Expr) -> String {
    let p = outcome.extract_protocol();
    stsyn_protocol::printer::to_dsl("out", &p, invariant)
}

/// Run synthesis with a memory-sink tracer; return the outcome and the
/// schema-validated records.
fn traced_run(problem: &AddConvergence, base: &Options, level: TraceLevel) -> (Outcome, Vec<Json>) {
    let (tracer, sink) = Tracer::memory(level);
    let opts = Options { tracer, ..base.clone() };
    let outcome = problem.synthesize(&opts).unwrap();
    let text = sink.lines().join("\n");
    let records = parse_trace(text.as_bytes()).expect("emitted trace fails schema validation");
    (outcome, records)
}

#[test]
fn every_record_validates_and_spans_nest_over_full_matching_run() {
    let (p, i) = matching(3);
    let problem = AddConvergence::new(p, i).unwrap();
    let (_, records) = traced_run(&problem, &Options::default(), TraceLevel::Debug);
    assert!(!records.is_empty());
    // parse_trace already rejected malformed records, unknown kinds,
    // double-opens and mismatched closes; what remains to check is that
    // every opened span was closed by the end of the run.
    assert_eq!(open_spans(&records), 0, "spans left open at end of run");
    // The run must have produced the structural events the summarizer
    // feeds on.
    for name in ["phase.setup", "phase.ranking", "synthesis.stats", "rank.layer"] {
        assert!(
            records.iter().any(|r| r.get("name").and_then(Json::as_str) == Some(name)),
            "no `{name}` record in the trace"
        );
    }
}

#[test]
fn summarizer_matches_synthesis_stats_exactly() {
    let (p, i) = coloring(5);
    let problem = AddConvergence::new(p, i).unwrap();
    let (outcome, records) = traced_run(&problem, &Options::default(), TraceLevel::Debug);
    let summary = summarize(&records);
    let s = &outcome.stats;

    // Integer columns of the paper's Table 1.
    assert_eq!(summary.stat("max_rank"), Some(s.max_rank as f64));
    assert_eq!(summary.stat("candidates"), Some(s.candidates as f64));
    assert_eq!(summary.stat("groups_added"), Some(s.groups_added as f64));
    assert_eq!(summary.stat("finished_in_pass"), Some(f64::from(s.finished_in_pass)));
    assert_eq!(summary.stat("scc_calls"), Some(s.scc_calls as f64));
    assert_eq!(summary.stat("sccs_found"), Some(s.sccs_found as f64));
    assert_eq!(summary.stat("program_nodes"), Some(s.program_nodes as f64));
    assert_eq!(summary.stat("peak_live_nodes"), Some(s.peak_live_nodes as f64));
    assert_eq!(summary.stat("bdd_ticks"), Some(s.bdd_ticks as f64));

    // Timings round-trip *exactly*: the JSON encoder uses shortest
    // round-trip float formatting, so display → parse is the identity.
    assert_eq!(summary.stat("ranking_secs"), Some(s.ranking_secs()));
    assert_eq!(summary.stat("scc_secs"), Some(s.scc_secs()));
    assert_eq!(summary.stat("total_secs"), Some(s.total_secs()));

    // Per-rank frontier: one rank.layer event per rank, 1..=max_rank.
    let ranks: Vec<u64> = summary.rank_nodes.iter().map(|&(r, _)| r).collect();
    let want: Vec<u64> = (1..=s.max_rank as u64).collect();
    assert_eq!(ranks, want, "rank.layer events do not cover 1..=M");
    assert!(summary.rank_nodes.iter().all(|&(_, n)| n > 0));

    // Per-phase wall times from spans are consistent with the run's own
    // clocks: each phase fits inside the recorded total, and ranking's
    // span covers at least the ranking time the stats recorded.
    for phase in ["phase.setup", "phase.ranking", "phase.recovery"] {
        let secs = summary.phase_secs.get(phase).copied().unwrap();
        assert!(secs <= s.total_secs() + 1e-3, "{phase} span longer than the whole run");
    }
    assert!(summary.phase_secs.get("phase.ranking").copied().unwrap() + 1e-4 >= s.ranking_secs());
}

#[test]
fn disabled_tracer_output_is_byte_identical_to_untraced_path() {
    let (p, i) = matching(3);
    let problem = AddConvergence::new(p, i).unwrap();
    let plain = problem.synthesize(&Options::default()).unwrap();

    // Explicitly-disabled tracer (what the seed path now runs through).
    let opts = Options { tracer: Tracer::disabled(), ..Options::default() };
    let disabled = problem.synthesize(&opts).unwrap();
    assert_eq!(printed(&plain, &i_of(&problem)), printed(&disabled, &i_of(&problem)));
    assert_eq!(plain.added, disabled.added);
    assert_eq!(plain.stats.bdd_ticks, disabled.stats.bdd_ticks);

    // A *recording* tracer must not change the result either — tracing
    // is observation, never behavior.
    let (tracer, _sink) = Tracer::memory(TraceLevel::Debug);
    let traced = problem.synthesize(&Options { tracer, ..Options::default() }).unwrap();
    assert_eq!(printed(&plain, &i_of(&problem)), printed(&traced, &i_of(&problem)));
    assert_eq!(plain.added, traced.added);
    assert_eq!(plain.stats.bdd_ticks, traced.stats.bdd_ticks);
}

fn i_of(problem: &AddConvergence) -> stsyn_protocol::expr::Expr {
    problem.invariant().clone()
}

#[test]
fn budgeted_traced_run_emits_degradation_events_without_changing_results() {
    // two_ring(2, 3) peaks at ~26k live nodes unbudgeted. Under a 5,700
    // node ceiling GC alone is not enough: the run completes only because
    // the one sifting retry shrinks the live set below the ceiling. The
    // degradation events must pass schema validation and must not perturb
    // the outcome.
    let (p, i) = two_ring(2, 3);
    let problem = AddConvergence::new(p, i).unwrap();
    let plain = problem.synthesize(&Options::default()).unwrap();

    let budget = Budget::unlimited().with_max_nodes(5_700);
    let (tracer, sink) = Tracer::memory(TraceLevel::Debug);
    let opts = Options { budget: Some(budget), tracer, ..Options::default() };
    let traced = problem.synthesize(&opts).expect("the sift retry rescues the run");
    let text = sink.lines().join("\n");
    let records = parse_trace(text.as_bytes()).expect("trace of budgeted run fails validation");
    assert_eq!(plain.added, traced.added);
    let sifted = records.iter().any(|r| {
        r.get("name").and_then(Json::as_str) == Some("bdd.degrade")
            && r.get("action").and_then(Json::as_str) == Some("sift_pairs")
    });
    assert!(sifted, "no bdd.degrade record with action sift_pairs");
}

#[test]
fn weak_run_traces_setup_and_ranking_without_a_stats_record() {
    let (p, i) = coloring(3);
    let problem = AddConvergence::new(p, i).unwrap();
    let (tracer, sink) = Tracer::memory(TraceLevel::Debug);
    let mut outcome =
        problem.synthesize_weak_with(&Options { tracer, ..Options::default() }).unwrap();
    assert!(outcome.verify_weak());
    let text = sink.lines().join("\n");
    let records = parse_trace(text.as_bytes()).expect("weak trace fails schema validation");
    assert_eq!(open_spans(&records), 0, "spans left open at end of run");
    let named =
        |name: &str| records.iter().any(|r| r.get("name").and_then(Json::as_str) == Some(name));
    for name in ["phase.setup", "phase.ranking", "rank.layer"] {
        assert!(named(name), "no `{name}` record in the weak trace");
    }
    // perfbench counts one solve per `synthesis.stats` record; weak runs
    // are not solves of the strong heuristic.
    assert!(!named("synthesis.stats"), "weak run emitted `synthesis.stats`");
}
