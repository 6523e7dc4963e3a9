//! `perfbench` — run one workload of the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>] [--smoke]
//! ```
//!
//! Prints one `workload metric value unit` line per metric, then one JSON
//! object as the last line. Exits 1 when any operation failed or did not
//! check out, 2 on a usage error.
//!
//! `--session <i>` (with `--workload service-mix`) runs session `i` of that
//! workload alone and prints what it saw as one JSON line: the benchmark
//! starts itself that way to give each session a process of its own.

use perfbench::{service, synth, RunConfig, END_TO_END, PER_LAYER, WORKLOADS};

fn usage(problem: &str) -> ! {
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> [--seconds <s>] [--trace <0|1>] [--smoke]",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn main() {
    let mut workload: Option<String> = None;
    let mut seed: Option<u64> = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut smoke = false;
    let mut session: Option<u64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage(&format!("{arg} needs a value")));
        match arg.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => seed = Some(value().parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .unwrap_or_else(|| usage("bad --seconds"));
            }
            "--trace" => {
                trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--smoke" => smoke = true,
            "--session" => {
                session = Some(value().parse().unwrap_or_else(|_| usage("bad --session")));
            }
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let seed = seed.unwrap_or_else(|| usage("--seed is required"));
    let cfg = RunConfig { seed, seconds, trace, smoke };
    if let Some(index) = session {
        if workload != "service-mix" {
            usage("--session is for --workload service-mix");
        }
        service::run_session(&cfg, index);
        return;
    }

    let report = if workload == "service-mix" {
        service::run(&cfg)
    } else {
        match synth::CASES.iter().find(|c| c.workload == workload) {
            Some(case) => synth::run(case, &cfg),
            None => usage(&format!("unknown workload `{workload}`")),
        }
    };
    let catalogue = if trace { PER_LAYER } else { END_TO_END };
    report.print(&workload, catalogue);
    if !report.correct(catalogue) {
        std::process::exit(1);
    }
}
