//! `trace_overhead` — cost of the observability hooks (PR 5 guard).
//!
//! ```text
//! cargo run --release -p stsyn-bench --bin trace_overhead [-- --fast]
//! ```
//!
//! For each of three case studies the harness runs full synthesis four
//! ways: with the seed path (no tracer field touched beyond its
//! `Option` check), with an explicitly-disabled tracer, with a disabled
//! tracer plus an attached no-subscriber [`ProgressBus`] (the live
//! `watch` tee, nobody listening), and with an NDJSON file tracer at
//! debug level. Median-of-N wall times land in
//! `results/trace_overhead.csv` (`results/fast/` with `--fast`, which
//! takes fewer runs), and the run *fails* when the disabled
//! tracer — or the unwatched progress bus — costs more than 5% over the
//! no-op baseline: the hooks must be free when observability is off,
//! and cheap enough to leave armed when nobody is watching.

use std::time::{Duration, Instant};
use stsyn_cases::{coloring::coloring, matching::matching, token_ring::token_ring};
use stsyn_core::{AddConvergence, Options};
use stsyn_obs::{ProgressBus, TraceLevel, Tracer};
use stsyn_protocol::expr::Expr;
use stsyn_protocol::Protocol;

const OVERHEAD_LIMIT: f64 = 0.05;

struct Row {
    case: &'static str,
    baseline_ms: f64,
    disabled_ms: f64,
    bus_ms: f64,
    ndjson_ms: f64,
    disabled_overhead: f64,
    bus_overhead: f64,
    ndjson_overhead: f64,
}

fn median_ms(samples: &mut [Duration]) -> f64 {
    samples.sort_unstable();
    samples[samples.len() / 2].as_secs_f64() * 1e3
}

fn timed_run(problem: &AddConvergence, opts: &Options) -> Duration {
    let t = Instant::now();
    problem.synthesize(opts).expect("synthesis failed");
    t.elapsed()
}

fn measure(case: &'static str, p: Protocol, i: Expr, n: usize, dir: &std::path::Path) -> Row {
    let problem = AddConvergence::new(p, i).expect("bad case");
    // Baseline: Options::default() — the seed path, tracer never set.
    // Disabled tracer: explicitly constructed, still a no-op.
    // Bus: disabled tracer with a progress bus attached and nobody
    // subscribed — the daemon's steady state for every running job once
    // `watch` exists.
    // NDJSON: file tracer at the most verbose level.
    let trace_path = dir.join(format!("{case}.trace"));
    let ndjson_tracer = Tracer::to_file(&trace_path, TraceLevel::Debug).expect("open trace file");
    let configs = [
        Options::default(),
        Options { tracer: Tracer::disabled(), ..Options::default() },
        Options {
            tracer: Tracer::disabled().with_progress(ProgressBus::default()),
            ..Options::default()
        },
        Options { tracer: ndjson_tracer, ..Options::default() },
    ];
    // One untimed warm-up per config, then n *interleaved* rounds: each
    // round times every config back to back, so slow machine-level drift
    // (frequency scaling, noisy neighbours) hits all columns equally
    // instead of biasing whichever block ran during the disturbance.
    let mut samples: [Vec<Duration>; 4] = Default::default();
    for opts in &configs {
        problem.synthesize(opts).expect("synthesis failed");
    }
    for _ in 0..n {
        for (opts, bucket) in configs.iter().zip(samples.iter_mut()) {
            bucket.push(timed_run(&problem, opts));
        }
    }
    let [baseline_ms, disabled_ms, bus_ms, ndjson_ms] = samples.each_mut().map(|s| median_ms(s));
    Row {
        case,
        baseline_ms,
        disabled_ms,
        bus_ms,
        ndjson_ms,
        disabled_overhead: disabled_ms / baseline_ms - 1.0,
        bus_overhead: bus_ms / baseline_ms - 1.0,
        ndjson_overhead: ndjson_ms / baseline_ms - 1.0,
    }
}

fn main() {
    let fast = std::env::args().any(|a| a == "--fast");
    let n = if fast { 5 } else { 15 };
    let dir = stsyn_bench::results_dir(fast);
    std::fs::create_dir_all(dir).expect("create results dir");
    let scratch = std::env::temp_dir().join(format!("stsyn-trace-overhead-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create scratch dir");

    let (cp, ci) = coloring(5);
    let (mp, mi) = matching(5);
    let (tp, ti) = token_ring(4, 4);
    let rows = vec![
        measure("coloring5", cp, ci, n, &scratch),
        measure("matching5", mp, mi, n, &scratch),
        measure("token_ring4", tp, ti, n, &scratch),
    ];

    let mut csv = String::from(
        "case,baseline_ms,disabled_ms,bus_ms,ndjson_ms,\
         disabled_overhead,bus_overhead,ndjson_overhead\n",
    );
    println!(
        "{:<14} {:<12} {:<12} {:<12} {:<12} {:<10} {:<10} ndjson_ovh",
        "case", "baseline_ms", "disabled_ms", "bus_ms", "ndjson_ms", "disabled_ovh", "bus_ovh"
    );
    let mut worst = f64::MIN;
    for r in &rows {
        println!(
            "{:<14} {:<12.3} {:<12.3} {:<12.3} {:<12.3} {:<+10.1}% {:<+10.1}% {:+.1}%",
            r.case,
            r.baseline_ms,
            r.disabled_ms,
            r.bus_ms,
            r.ndjson_ms,
            r.disabled_overhead * 100.0,
            r.bus_overhead * 100.0,
            r.ndjson_overhead * 100.0
        );
        csv.push_str(&format!(
            "{},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4}\n",
            r.case,
            r.baseline_ms,
            r.disabled_ms,
            r.bus_ms,
            r.ndjson_ms,
            r.disabled_overhead,
            r.bus_overhead,
            r.ndjson_overhead
        ));
        worst = worst.max(r.disabled_overhead).max(r.bus_overhead);
    }
    std::fs::write(format!("{dir}/trace_overhead.csv"), csv).expect("write csv");
    let _ = std::fs::remove_dir_all(&scratch);
    eprintln!("series written to {dir}/trace_overhead.csv");

    // The guard: hooks must be free when tracing is off, and the
    // unwatched progress bus must stay inside the same envelope.
    assert!(
        worst < OVERHEAD_LIMIT,
        "disabled-tracer/no-subscriber-bus overhead {:.1}% exceeds the {:.0}% budget",
        worst * 100.0,
        OVERHEAD_LIMIT * 100.0
    );
    eprintln!(
        "guard ok: worst disabled-tracer/no-subscriber-bus overhead {:+.1}% (< {:.0}%)",
        worst * 100.0,
        OVERHEAD_LIMIT * 100.0
    );
}
