//! The in-process synthesis workloads.
//!
//! Each workload synthesizes one case study, one solve per recovery
//! schedule rotation. A solve is what a user of the library or the
//! one-shot CLI waits for: `synthesize_with`, the independent model check
//! (`try_verify_strong`), and extraction plus printing of the protocol.
//!
//! The seed picks the rotation a run starts from (seed 1 is the paper's
//! default schedule `(P1, …, P0)`); every round then visits all `k`
//! rotations, and a run measures whole rounds only. Rotations differ in
//! cost by up to 40% on the token ring, so covering all of them keeps the
//! typical solve time (the geometric mean over rotations of each one's
//! median) a property of the workload rather than of the seed, and keeps
//! per-solve tick counts exactly repeatable.

use crate::layers::Layers;
use crate::{geomean_of_medians, golden, median, peak_rss_mb, Report, RunConfig};
use std::hint::black_box;
use std::time::Instant;
use stsyn_core::{AddConvergence, Options, Schedule};
use stsyn_obs::{parse_trace, TraceLevel, Tracer};
use stsyn_protocol::{dsl, expr::Expr, printer, Protocol};

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 25;

/// One case-study instance.
pub struct Instance {
    /// Name used for the emitted protocol and the golden table.
    pub label: &'static str,
    /// Builds the protocol and its legitimate-state predicate.
    pub build: fn() -> (Protocol, Expr),
}

/// A synthesis workload: its full-size and smoke-test instances.
pub struct Case {
    /// Workload name.
    pub workload: &'static str,
    /// The benchmark's instance.
    pub full: Instance,
    /// A seconds-long instance of the same case for the smoke test.
    pub smoke: Instance,
}

/// The synthesis workloads. Why each was chosen:
///
/// * `coloring-scan` — locally correctable, so no cycle is ever found
///   (every SCC call comes back empty); candidate scan and group
///   inclusion do most of the work. A scan or include optimisation
///   shows here, a cycle-check optimisation should not.
/// * `matching-cycles` — SCC detection is ~90% of a solve, over
///   thousands of small SCCs; scan is ~3%. The targeted cycle check
///   shows here.
/// * `token-ring-deep` — SCC detection dominates again but with a
///   handful of large SCCs, the largest BDDs and the highest peak node
///   count; the place where unique-table and computed-table changes show
///   in ticks and memory.
pub const CASES: &[Case] = &[
    Case {
        workload: "coloring-scan",
        full: Instance { label: "coloring15", build: || stsyn_cases::coloring(15) },
        smoke: Instance { label: "coloring5", build: || stsyn_cases::coloring(5) },
    },
    Case {
        workload: "matching-cycles",
        full: Instance { label: "matching7", build: || stsyn_cases::matching(7) },
        smoke: Instance { label: "matching5", build: || stsyn_cases::matching(5) },
    },
    Case {
        workload: "token-ring-deep",
        full: Instance { label: "token_ring5_6", build: || stsyn_cases::token_ring(5, 6) },
        smoke: Instance { label: "token_ring4_4", build: || stsyn_cases::token_ring(4, 4) },
    },
];

/// Latencies, by rotation, and layer sums of one measured phase.
struct Measured {
    by_rotation: Vec<Vec<f64>>,
    solves: usize,
    wall_s: f64,
    layers: Layers,
}

impl Measured {
    /// Typical solve time in milliseconds (see [`geomean_of_medians`]).
    fn solve_ms(&self) -> Option<f64> {
        (self.solves > 0).then(|| geomean_of_medians(&self.by_rotation))
    }
}

/// One solve: synthesize, verify, print, and check the text against the
/// golden hash. Returns the wall milliseconds, or `None` when the solve
/// failed or its output did not check out.
fn solve(
    problem: &AddConvergence,
    inst: &Instance,
    rotation: usize,
    layers: Option<&mut Layers>,
) -> Option<f64> {
    let k = problem.protocol().num_processes();
    let schedule = Schedule::rotated(k, rotation);
    let (tracer, sink) = match layers {
        Some(_) => {
            let (t, s) = Tracer::memory(TraceLevel::Debug);
            (t, Some(s))
        }
        None => (Tracer::disabled(), None),
    };
    let opts = Options { tracer, ..Options::default() };
    let t0 = Instant::now();
    let mut outcome = match problem.synthesize_with(&opts, schedule) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{} r{rotation}: synthesis failed: {e}", inst.label);
            return None;
        }
    };
    let t_synth = t0.elapsed();
    let verified = outcome.try_verify_strong().unwrap_or(false);
    let t_verify = t0.elapsed();
    let text = printer::to_dsl(
        &format!("{}_SS", inst.label),
        &outcome.extract_protocol(),
        problem.invariant(),
    );
    let wall = t0.elapsed();
    black_box(&text);

    if let (Some(layers), Some(sink)) = (layers, sink) {
        let text = sink.lines().join("\n");
        let records = parse_trace(text.as_bytes()).expect("the program's trace is well-formed");
        layers.absorb(&records);
        layers.wall_s += wall.as_secs_f64();
        layers.verify_s += (t_verify - t_synth).as_secs_f64();
        layers.emit_s += (wall - t_verify).as_secs_f64();
    }
    let golden_ok = golden(inst.label, rotation) == Some(crate::fnv1a64(text.as_bytes()));
    if !verified || !golden_ok {
        eprintln!("{} r{rotation}: verified={verified} golden_match={golden_ok}", inst.label);
        return None;
    }
    Some(wall.as_secs_f64() * 1e3)
}

/// Whole rounds over every rotation, starting at `start`, until another
/// round would overrun `seconds` (always at least one round).
fn measure(
    problem: &AddConvergence,
    inst: &Instance,
    start: usize,
    seconds: f64,
    traced: bool,
    report: &mut Report,
) -> Measured {
    let k = problem.protocol().num_processes();
    let mut m = Measured {
        by_rotation: vec![Vec::new(); k],
        solves: 0,
        wall_s: 0.0,
        layers: Layers::default(),
    };
    let t0 = Instant::now();
    loop {
        let round_start = t0.elapsed().as_secs_f64();
        for j in 0..k {
            let rotation = (start + j) % k;
            let ms = solve(problem, inst, rotation, traced.then_some(&mut m.layers));
            report.count(ms.is_some());
            m.solves += usize::from(ms.is_some());
            m.by_rotation[rotation].extend(ms);
        }
        let now = t0.elapsed().as_secs_f64();
        if now + (now - round_start) > seconds {
            break;
        }
    }
    m.wall_s = t0.elapsed().as_secs_f64();
    m
}

/// Run one synthesis workload.
pub fn run(case: &Case, cfg: &RunConfig) -> Report {
    let inst = if cfg.smoke { &case.smoke } else { &case.full };
    let mut report = Report::default();

    // Set-up, as the one-shot CLI pays it before solving: parse the
    // protocol text and bundle it as a Problem III.1 instance.
    let (p, i) = (inst.build)();
    let text = printer::to_dsl(inst.label, &p, &i);
    let setup = || {
        let parsed = dsl::parse(&text).expect("printed case studies parse");
        AddConvergence::new(parsed.protocol, parsed.invariant).expect("case studies are well-typed")
    };
    let problem = setup();
    let k = problem.protocol().num_processes();
    let start = (cfg.seed % k as u64) as usize;

    // Warm-up: one untimed round, checked like any other. The first
    // solves of a process ran up to a third slower than the rest.
    measure(&problem, inst, start, 0.0, false, &mut report);
    let seconds = if cfg.smoke { 0.0 } else { cfg.seconds };

    if cfg.trace {
        // Plain and traced halves: the traced half gives the layer
        // figures, the two together the tracing overhead.
        let plain = measure(&problem, inst, start, seconds / 2.0, false, &mut report);
        let traced = measure(&problem, inst, start, seconds / 2.0, true, &mut report);
        traced.layers.report(&mut report);
        crate::service::report_no_service(&mut report);
        let overhead = match (plain.solve_ms(), traced.solve_ms()) {
            (Some(plain), Some(traced)) => traced / plain - 1.0,
            _ => 0.0,
        };
        report.set("obs.trace_overhead", overhead);
    } else {
        // Set-up is timed in the warmed process: timed first thing, its
        // median moved by half between runs.
        let setups: Vec<f64> = (0..SETUP_REPS)
            .map(|_| {
                let t = Instant::now();
                black_box(setup());
                t.elapsed().as_secs_f64()
            })
            .collect();
        let m = measure(&problem, inst, start, seconds, false, &mut report);
        if let Some(ms) = m.solve_ms() {
            report.set("solve_s", ms / 1e3);
            report.set("jobs_per_s", m.solves as f64 / m.wall_s);
        }
        report.set("setup_s", median(&setups));
        report.set("peak_rss_mb", peak_rss_mb());
    }
    report
}
