//! `stsyn` — the STabilization Synthesizer command-line tool.
//!
//! Four modes share one binary:
//!
//! * **one-shot** (`stsyn FILE [flags]`): read a protocol description
//!   (see `stsyn_protocol::dsl` for the format), add convergence, and
//!   print the synthesized recovery actions plus an independent
//!   verification verdict and the run statistics;
//! * **daemon** (`stsyn serve [flags]`): run the `stsyn-serve` job
//!   service — a persistent queue plus worker pool accepting concurrent
//!   submissions over newline-delimited JSON on TCP;
//! * **router** (`stsyn route --shard HOST:PORT ...`): the fleet front
//!   door — consistent-hashes submissions across N daemons, probes shard
//!   health, and fails pending jobs over to surviving shards when a
//!   daemon dies (see `stsyn_serve::router`);
//! * **client** (`stsyn client --addr HOST:PORT VERB ...`): drive a
//!   running daemon or router — submit, status, result, cancel, ping,
//!   stats, fleet-stats, fleet-metrics, shutdown.
//!
//! ```text
//! stsyn FILE [--weak] [--schedule 1,2,3,0] [--parallel] [--symmetric]
//!            [--timeout SECS] [--max-nodes N]
//!            [--checkpoint-dir DIR] [--resume]
//!            [--emit-dsl OUT.stsyn] [--quiet]
//! stsyn serve [--addr HOST:PORT] [--workers N] [--queue N]
//!             [--state-dir DIR] [--print-addr]
//!             [--max-conns N] [--io-timeout SECS] [--quarantine-after K]
//!             [--store-dir DIR] [--store-cap-bytes N] [--retain-jobs K]
//! stsyn route --shard HOST:PORT [--shard HOST:PORT ...]
//!             [--addr HOST:PORT] [--print-addr]
//!             [--probe-interval-ms MS] [--probe-timeout-ms MS]
//!             [--down-after K] [--io-timeout SECS]
//! stsyn client --addr HOST:PORT [--retries N] [--retry-base-ms MS]
//!              submit (FILE | --case NAME --n N [--d D])
//!              [--weak] [--schedule 1,2,3,0] [--priority P]
//!              [--timeout SECS] [--max-nodes N] [--max-ticks N]
//!              [--wait [--wait-secs S]] [--emit-dsl OUT.stsyn] [--quiet]
//! stsyn client --addr HOST:PORT status ID
//! stsyn client --addr HOST:PORT result ID [--emit-dsl OUT.stsyn] [--quiet]
//! stsyn client --addr HOST:PORT cancel ID
//! stsyn client --addr HOST:PORT stats
//! stsyn client --addr HOST:PORT metrics
//! stsyn client --addr HOST:PORT ping
//! stsyn client --addr HOST:PORT fleet-stats
//! stsyn client --addr HOST:PORT fleet-metrics
//! stsyn client --addr HOST:PORT shutdown [--mode drain|checkpoint]
//! stsyn store stats --addr HOST:PORT
//! stsyn store gc --addr HOST:PORT [--cap-bytes N]
//! stsyn store verify --dir PATH
//! stsyn trace-summary TRACE.ndjson
//! ```
//!
//! One-shot and serve modes accept `--trace PATH` (append NDJSON trace
//! records — spans, events, counters — to `PATH`) and `--trace-level
//! warn|info|debug` (default `info`). One-shot runs add `--metrics` to
//! print the run's statistics as Prometheus text exposition;
//! `stsyn trace-summary` renders a trace file into the paper's Table-1
//! columns plus per-rank frontier sizes and per-phase wall times.
//!
//! With `--checkpoint-dir DIR` a one-shot run write-ahead-journals every
//! committed rank layer and accepted recovery group into `DIR`; `--resume`
//! replays a journal left by an interrupted (crashed or budget-cut) run
//! and continues where it stopped, producing output bit-identical to an
//! uninterrupted run. Checkpointing applies to strong single-schedule
//! synthesis only (`--weak` and `--parallel` are rejected alongside it).
//! The daemon applies the same machinery per job, which is what lets a
//! `SIGKILL`ed daemon resume its in-flight jobs on restart.
//!
//! The daemon hardens itself against hostile or unlucky clients and
//! jobs: `--max-conns` caps concurrent connections (excess ones get a
//! typed `busy` rejection), `--io-timeout` reaps stalled or idle
//! connections, and `--quarantine-after` moves a job that keeps crashing
//! its worker into a durable quarantine instead of retrying it forever.
//! The client retries transient failures (connection loss, `queue-full`,
//! `busy`) with jittered exponential backoff — `--retries` bounds the
//! attempts, `--retry-base-ms` sets the first delay, and idempotent
//! submission keys make retried submits safe.
//!
//! With `--store-dir` the daemon keeps a content-addressed artifact
//! store: finished results and checkpoint prefixes are published under
//! the submission's content fingerprint, resubmissions of identical
//! content are answered from the store without queueing, and strong
//! jobs matching a stored budget-free fingerprint warm-start from the
//! stored checkpoint prefix. `--store-cap-bytes` bounds the store with
//! LRU eviction, `--retain-jobs K` prunes completed job directories
//! beyond the newest K once their results are published, and
//! `stsyn store stats|gc|verify` inspect and maintain it (`verify`
//! works offline on a store directory; `stats`/`gc` talk to a daemon or
//! router — the router fans out to every reachable shard).
//!
//! Exit codes: 0 success, 1 synthesis failure (including a verification
//! FAIL), 2 usage error, 3 input error (unreadable file, parse or type
//! error), 4 resource budget exhausted (`--timeout` / `--max-nodes`),
//! 5 checkpoint error (`--checkpoint-dir` unwritable, locked by a live
//! process, or holding a journal from a different problem), 6 service
//! connection or protocol error, 7 submission rejected by the daemon
//! (queue full, connection cap, or shutting down), 8 fleet degraded
//! (the router answered `degraded` or `no-shards` — the needed shard is
//! down and retries were exhausted).

use std::process::ExitCode;
use std::time::Duration;
use stsyn_core::job::{JobCheckpoint, JobError, JobMode, JobReport, JobSpec};
use stsyn_core::SynthesisError;
use stsyn_obs::{TraceLevel, Tracer};
use stsyn_protocol::dsl;
use stsyn_serve::{
    Client, ClientError, Json, RetryPolicy, Router, RouterConfig, Server, ServerConfig,
    ShutdownMode, SubmitSpec,
};
use stsyn_symbolic::Budget;

const EXIT_SYNTH: u8 = 1;
const EXIT_USAGE: u8 = 2;
const EXIT_INPUT: u8 = 3;
const EXIT_RESOURCES: u8 = 4;
const EXIT_CHECKPOINT: u8 = 5;
const EXIT_SERVICE: u8 = 6;
const EXIT_REJECTED: u8 = 7;
const EXIT_FLEET: u8 = 8;

/// A typed CLI failure carrying its exit code — every user-input and
/// I/O failure path funnels through this instead of panicking.
enum CliError {
    /// Bad flags; an optional explanation precedes the usage text (exit 2).
    Usage(Option<String>),
    /// Unreadable or invalid input (exit 3).
    Input(String),
    /// Could not reach or talk to the daemon (exit 6).
    Service(String),
    /// The daemon refused the request, or the awaited job failed; the
    /// wire error code picks the exit code.
    Refused { exit: u8, message: String },
}

impl CliError {
    fn usage(msg: impl Into<String>) -> CliError {
        CliError::Usage(Some(msg.into()))
    }
}

fn usage_text() -> &'static str {
    "usage: stsyn FILE [--weak] [--schedule 1,2,3,0] [--parallel] [--symmetric] \
     [--timeout SECS] [--max-nodes N] \
     [--checkpoint-dir DIR] [--resume] \
     [--emit-dsl OUT.stsyn] [--quiet]\n\
     \x20      stsyn serve [--addr HOST:PORT] [--workers N] [--queue N] \
     [--state-dir DIR] [--print-addr] \
     [--max-conns N] [--io-timeout SECS] [--quarantine-after K] \
     [--store-dir DIR] [--store-cap-bytes N] [--retain-jobs K]\n\
     \x20      stsyn route --shard HOST:PORT [--shard HOST:PORT ...] [--addr HOST:PORT] \
     [--print-addr] [--probe-interval-ms MS] [--probe-timeout-ms MS] \
     [--down-after K] [--io-timeout SECS]\n\
     \x20      stsyn client --addr HOST:PORT [--retries N] [--retry-base-ms MS] \
     submit (FILE | --case NAME --n N [--d D]) \
     [--weak] [--priority P] [--wait] [--emit-dsl OUT.stsyn]\n\
     \x20      stsyn client --addr HOST:PORT status ID | watch ID | result ID | cancel ID | \
     ping | stats | metrics | fleet-stats | fleet-metrics | shutdown [--mode drain|checkpoint]\n\
     \x20      stsyn store stats --addr HOST:PORT | gc --addr HOST:PORT [--cap-bytes N] | \
     verify --dir PATH\n\
     \x20      stsyn trace-summary TRACE.ndjson\n\
     \x20      one-shot/serve: [--trace PATH] [--trace-level warn|info|debug]; \
     one-shot adds [--metrics]\n\
     exit codes: 0 ok, 1 synthesis/verification failure, 2 usage, \
     3 input error, 4 budget exhausted, 5 checkpoint error, \
     6 service connection error, 7 rejected by daemon, 8 fleet degraded"
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("serve") => serve_main(&argv[1..]),
        Some("route") => route_main(&argv[1..]),
        Some("client") => client_main(&argv[1..]),
        Some("store") => store_main(&argv[1..]),
        Some("trace-summary") => trace_summary_main(&argv[1..]),
        _ => oneshot_main(&argv),
    };
    match result {
        Ok(code) => code,
        Err(CliError::Usage(msg)) => {
            if let Some(m) = msg {
                eprintln!("stsyn: {m}");
            }
            eprintln!("{}", usage_text());
            ExitCode::from(EXIT_USAGE)
        }
        Err(CliError::Input(m)) => {
            eprintln!("stsyn: {m}");
            ExitCode::from(EXIT_INPUT)
        }
        Err(CliError::Service(m)) => {
            eprintln!("stsyn: {m}");
            ExitCode::from(EXIT_SERVICE)
        }
        Err(CliError::Refused { exit, message }) => {
            eprintln!("stsyn: {message}");
            ExitCode::from(exit)
        }
    }
}

/// Pull the value of a flag, failing with a usage error when missing.
fn flag_value(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, CliError> {
    it.next().ok_or_else(|| CliError::usage(format!("{flag} needs a value")))
}

fn parse_schedule(spec: &str) -> Result<Vec<usize>, CliError> {
    spec.split(',')
        .map(|s| s.trim().parse::<usize>())
        .collect::<Result<Vec<usize>, _>>()
        .map_err(|_| CliError::usage(format!("--schedule `{spec}` is not a list of indices")))
}

// ---------------------------------------------------------------- one-shot

struct Args {
    file: String,
    weak: bool,
    parallel: bool,
    quiet: bool,
    symmetric: bool,
    emit_dsl: Option<String>,
    schedule: Option<Vec<usize>>,
    timeout: Option<f64>,
    max_nodes: Option<usize>,
    checkpoint_dir: Option<String>,
    resume: bool,
    trace: Option<String>,
    trace_level: TraceLevel,
    metrics: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, CliError> {
    let mut args = Args {
        file: String::new(),
        weak: false,
        parallel: false,
        quiet: false,
        symmetric: false,
        emit_dsl: None,
        schedule: None,
        timeout: None,
        max_nodes: None,
        checkpoint_dir: None,
        resume: false,
        trace: None,
        trace_level: TraceLevel::Info,
        metrics: false,
    };
    let mut it = argv.iter().cloned();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--weak" => args.weak = true,
            "--parallel" => args.parallel = true,
            "--quiet" => args.quiet = true,
            "--symmetric" => args.symmetric = true,
            "--emit-dsl" => args.emit_dsl = Some(flag_value(&mut it, "--emit-dsl")?),
            "--schedule" => {
                args.schedule = Some(parse_schedule(&flag_value(&mut it, "--schedule")?)?);
            }
            "--timeout" => {
                let v = flag_value(&mut it, "--timeout")?;
                match v.parse::<f64>() {
                    Ok(secs) if secs > 0.0 && secs.is_finite() => args.timeout = Some(secs),
                    _ => {
                        return Err(CliError::usage(format!(
                            "--timeout `{v}` is not a positive number of seconds"
                        )))
                    }
                }
            }
            "--max-nodes" => {
                let v = flag_value(&mut it, "--max-nodes")?;
                match v.parse::<usize>() {
                    Ok(n) if n > 0 => args.max_nodes = Some(n),
                    _ => {
                        return Err(CliError::usage(format!(
                            "--max-nodes `{v}` is not a positive integer"
                        )))
                    }
                }
            }
            "--checkpoint-dir" => {
                args.checkpoint_dir = Some(flag_value(&mut it, "--checkpoint-dir")?);
            }
            "--resume" => args.resume = true,
            "--trace" => args.trace = Some(flag_value(&mut it, "--trace")?),
            "--trace-level" => {
                args.trace_level = parse_trace_level(&flag_value(&mut it, "--trace-level")?)?;
            }
            "--metrics" => args.metrics = true,
            "--help" | "-h" => return Err(CliError::Usage(None)),
            f if !f.starts_with('-') && args.file.is_empty() => args.file = f.to_string(),
            other => return Err(CliError::usage(format!("unexpected argument `{other}`"))),
        }
    }
    if args.file.is_empty() {
        return Err(CliError::Usage(None));
    }
    // Checkpointing journals the single strong-synthesis schedule; weak
    // synthesis has no journaled decision points and parallel exploration
    // races schedules that would fight over one directory.
    if args.checkpoint_dir.is_some() && (args.weak || args.parallel) {
        return Err(CliError::usage(
            "--checkpoint-dir cannot be combined with --weak or --parallel",
        ));
    }
    if args.resume && args.checkpoint_dir.is_none() {
        return Err(CliError::usage("--resume requires --checkpoint-dir"));
    }
    Ok(args)
}

fn parse_trace_level(v: &str) -> Result<TraceLevel, CliError> {
    TraceLevel::parse(v)
        .ok_or_else(|| CliError::usage(format!("--trace-level `{v}` is not warn|info|debug")))
}

fn open_trace(path: &str, level: TraceLevel) -> Result<Tracer, CliError> {
    Tracer::to_file(std::path::Path::new(path), level)
        .map_err(|e| CliError::Input(format!("cannot open trace file {path}: {e}")))
}

fn build_budget(timeout: Option<f64>, max_nodes: Option<usize>) -> Option<Budget> {
    let mut budget = Budget::unlimited();
    if let Some(secs) = timeout {
        budget = budget.with_timeout(Duration::from_secs_f64(secs));
    }
    if let Some(n) = max_nodes {
        budget = budget.with_max_nodes(n);
    }
    budget.is_limited().then_some(budget)
}

fn oneshot_main(argv: &[String]) -> Result<ExitCode, CliError> {
    let args = parse_args(argv)?;
    let src = std::fs::read_to_string(&args.file)
        .map_err(|e| CliError::Input(format!("cannot read {}: {e}", args.file)))?;
    let parsed = dsl::parse(&src).map_err(|e| CliError::Input(format!("{}: {e}", args.file)))?;

    let mut job = JobSpec::new(parsed.name, parsed.protocol, parsed.invariant);
    job.mode = if args.weak {
        JobMode::Weak
    } else if args.parallel {
        JobMode::Parallel
    } else {
        JobMode::Strong
    };
    job.schedule = args.schedule.clone();
    job.symmetric = args.symmetric;
    job.budget = build_budget(args.timeout, args.max_nodes);
    if let Some(dir) = &args.checkpoint_dir {
        job.checkpoint =
            Some(JobCheckpoint { dir: std::path::PathBuf::from(dir), resume: args.resume });
    }
    if let Some(path) = &args.trace {
        job.tracer = open_trace(path, args.trace_level)?;
    }

    match job.run() {
        Ok(report) => Ok(print_report(&report, &args)),
        Err(JobError::Input(m)) | Err(JobError::Spec(m)) => Err(CliError::Input(m)),
        Err(JobError::Synthesis(e)) => Ok(report_synthesis_error(e)),
    }
}

fn print_report(report: &JobReport, args: &Args) -> ExitCode {
    println!(
        "synthesized {} ({} stabilization) with schedule {}",
        report.name,
        if report.weak { "weak" } else { "strong" },
        report.outcome.schedule,
    );
    println!(
        "verification: {}",
        if report.verified { "PASS (independent model check)" } else { "FAIL" }
    );
    if !report.outcome.added.is_empty() {
        println!("\nrecovery actions added:");
        print!("{}", report.outcome.describe_recovery());
    } else {
        println!("\nno recovery needed — the protocol already stabilizes");
    }
    if let Some(path) = &args.emit_dsl {
        match std::fs::write(path, &report.emitted_dsl) {
            Ok(()) => println!("\nsynthesized protocol written to {path}"),
            Err(e) => eprintln!("stsyn: cannot write {path}: {e}"),
        }
    }
    if !args.quiet {
        print!("\nstatistics:\n{}", report.outcome.stats.render_block());
    }
    if args.metrics {
        print!("{}", report.outcome.stats.metrics().render());
    }
    if report.verified {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_SYNTH)
    }
}

fn report_synthesis_error(e: SynthesisError) -> ExitCode {
    match e {
        SynthesisError::ResourceExhausted { phase, cause, partial } => {
            report_exhausted(&phase, &cause, &partial)
        }
        // Parallel exploration wraps per-schedule failures; when the budget
        // killed every schedule, surface that as exhaustion, not as the
        // heuristic failing.
        SynthesisError::AllSchedulesFailed(inner)
            if matches!(*inner, SynthesisError::ResourceExhausted { .. }) =>
        {
            let SynthesisError::ResourceExhausted { phase, cause, partial } = *inner else {
                unreachable!()
            };
            report_exhausted(&phase, &cause, &partial)
        }
        SynthesisError::Checkpoint(e) => {
            eprintln!("stsyn: checkpoint error: {e}");
            ExitCode::from(EXIT_CHECKPOINT)
        }
        e => {
            eprintln!("stsyn: synthesis failed: {e}");
            ExitCode::from(EXIT_SYNTH)
        }
    }
}

fn report_exhausted(
    phase: &stsyn_core::Phase,
    cause: &stsyn_symbolic::BddError,
    partial: &stsyn_core::PartialProgress,
) -> ExitCode {
    eprintln!("stsyn: resource budget exhausted during {phase}: {cause}");
    eprintln!(
        "stsyn: partial progress: {} rank layers, {} recovery groups added, \
         {} live BDD nodes, {} ticks (manager {})",
        partial.ranks_layered,
        partial.groups_added.len(),
        partial.live_nodes,
        partial.ticks,
        if partial.manager_consistent { "consistent" } else { "INCONSISTENT" },
    );
    eprintln!("stsyn: raise --timeout / --max-nodes and retry");
    ExitCode::from(EXIT_RESOURCES)
}

// --------------------------------------------------------- trace-summary

fn trace_summary_main(argv: &[String]) -> Result<ExitCode, CliError> {
    let [file] = argv else {
        return Err(CliError::usage("trace-summary takes exactly one trace file"));
    };
    let summary = stsyn_obs::summarize_file(std::path::Path::new(file))
        .map_err(|e| CliError::Input(format!("{file}: {e}")))?;
    print!("{}", summary.render_table());
    Ok(ExitCode::SUCCESS)
}

// ------------------------------------------------------------------ serve

fn serve_main(argv: &[String]) -> Result<ExitCode, CliError> {
    let mut cfg = ServerConfig::new("stsyn-serve-state");
    cfg.addr = "127.0.0.1:7411".to_string();
    let mut print_addr = false;
    let mut trace: Option<String> = None;
    let mut trace_level = TraceLevel::Info;
    let mut it = argv.iter().cloned();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => cfg.addr = flag_value(&mut it, "--addr")?,
            "--workers" => {
                let v = flag_value(&mut it, "--workers")?;
                cfg.workers = v.parse::<usize>().ok().filter(|&n| n > 0).ok_or_else(|| {
                    CliError::usage(format!("--workers `{v}` is not a positive integer"))
                })?;
            }
            "--queue" => {
                let v = flag_value(&mut it, "--queue")?;
                cfg.queue_capacity =
                    v.parse::<usize>().ok().filter(|&n| n > 0).ok_or_else(|| {
                        CliError::usage(format!("--queue `{v}` is not a positive integer"))
                    })?;
            }
            "--state-dir" => cfg.state_dir = flag_value(&mut it, "--state-dir")?.into(),
            "--max-conns" => {
                let v = flag_value(&mut it, "--max-conns")?;
                cfg.max_conns = v.parse::<usize>().ok().filter(|&n| n > 0).ok_or_else(|| {
                    CliError::usage(format!("--max-conns `{v}` is not a positive integer"))
                })?;
            }
            "--io-timeout" => {
                let v = flag_value(&mut it, "--io-timeout")?;
                let secs =
                    v.parse::<f64>().ok().filter(|&s| s >= 0.0 && s.is_finite()).ok_or_else(
                        || {
                            CliError::usage(format!(
                                "--io-timeout `{v}` is not a non-negative number of seconds"
                            ))
                        },
                    )?;
                // 0 disables the socket deadlines.
                cfg.io_timeout = Duration::from_secs_f64(secs);
            }
            "--quarantine-after" => {
                let v = flag_value(&mut it, "--quarantine-after")?;
                cfg.quarantine_after =
                    v.parse::<u32>().ok().filter(|&k| k > 0).ok_or_else(|| {
                        CliError::usage(format!(
                            "--quarantine-after `{v}` is not a positive integer"
                        ))
                    })?;
            }
            "--store-dir" => cfg.store_dir = Some(flag_value(&mut it, "--store-dir")?.into()),
            "--store-cap-bytes" => {
                let v = flag_value(&mut it, "--store-cap-bytes")?;
                cfg.store_cap_bytes = v.parse::<u64>().ok().ok_or_else(|| {
                    CliError::usage(format!(
                        "--store-cap-bytes `{v}` is not a byte count (0 = unbounded)"
                    ))
                })?;
            }
            "--retain-jobs" => {
                let v = flag_value(&mut it, "--retain-jobs")?;
                cfg.retain_jobs =
                    Some(v.parse::<usize>().ok().filter(|&k| k > 0).ok_or_else(|| {
                        CliError::usage(format!("--retain-jobs `{v}` is not a positive integer"))
                    })?);
            }
            "--trace" => trace = Some(flag_value(&mut it, "--trace")?),
            "--trace-level" => {
                trace_level = parse_trace_level(&flag_value(&mut it, "--trace-level")?)?;
            }
            "--print-addr" => print_addr = true,
            "--help" | "-h" => return Err(CliError::Usage(None)),
            other => return Err(CliError::usage(format!("unexpected argument `{other}`"))),
        }
    }
    if cfg.store_dir.is_none() && (cfg.store_cap_bytes != 0 || cfg.retain_jobs.is_some()) {
        return Err(CliError::usage(
            "--store-cap-bytes and --retain-jobs need --store-dir (the store is off without it)",
        ));
    }
    if let Some(path) = &trace {
        cfg.tracer = open_trace(path, trace_level)?;
    }
    let handle =
        Server::start(cfg).map_err(|e| CliError::Service(format!("cannot start daemon: {e}")))?;
    if print_addr {
        // Machine-readable single line for harnesses that bind port 0.
        use std::io::Write as _;
        println!("listening on {}", handle.addr());
        let _ = std::io::stdout().flush();
    } else {
        eprintln!("stsyn-serve: listening on {}", handle.addr());
    }
    handle.join();
    Ok(ExitCode::SUCCESS)
}

// ------------------------------------------------------------------ route

fn route_main(argv: &[String]) -> Result<ExitCode, CliError> {
    let mut shards: Vec<String> = Vec::new();
    let mut addr = "127.0.0.1:7410".to_string();
    let mut print_addr = false;
    let mut trace: Option<String> = None;
    let mut trace_level = TraceLevel::Info;
    let mut probe_interval: Option<Duration> = None;
    let mut probe_timeout: Option<Duration> = None;
    let mut down_after: Option<u32> = None;
    let mut io_timeout: Option<Duration> = None;
    let mut it = argv.iter().cloned();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--shard" => shards.push(flag_value(&mut it, "--shard")?),
            "--addr" => addr = flag_value(&mut it, "--addr")?,
            "--probe-interval-ms" => {
                let v = flag_value(&mut it, "--probe-interval-ms")?;
                let ms = v.parse::<u64>().ok().filter(|&ms| ms > 0).ok_or_else(|| {
                    CliError::usage(format!("--probe-interval-ms `{v}` is not a positive integer"))
                })?;
                probe_interval = Some(Duration::from_millis(ms));
            }
            "--probe-timeout-ms" => {
                let v = flag_value(&mut it, "--probe-timeout-ms")?;
                let ms = v.parse::<u64>().ok().filter(|&ms| ms > 0).ok_or_else(|| {
                    CliError::usage(format!("--probe-timeout-ms `{v}` is not a positive integer"))
                })?;
                probe_timeout = Some(Duration::from_millis(ms));
            }
            "--down-after" => {
                let v = flag_value(&mut it, "--down-after")?;
                down_after = Some(v.parse::<u32>().ok().filter(|&k| k > 0).ok_or_else(|| {
                    CliError::usage(format!("--down-after `{v}` is not a positive integer"))
                })?);
            }
            "--io-timeout" => {
                let v = flag_value(&mut it, "--io-timeout")?;
                let secs =
                    v.parse::<f64>().ok().filter(|&s| s >= 0.0 && s.is_finite()).ok_or_else(
                        || {
                            CliError::usage(format!(
                                "--io-timeout `{v}` is not a non-negative number of seconds"
                            ))
                        },
                    )?;
                io_timeout = Some(Duration::from_secs_f64(secs));
            }
            "--trace" => trace = Some(flag_value(&mut it, "--trace")?),
            "--trace-level" => {
                trace_level = parse_trace_level(&flag_value(&mut it, "--trace-level")?)?;
            }
            "--print-addr" => print_addr = true,
            "--help" | "-h" => return Err(CliError::Usage(None)),
            other => return Err(CliError::usage(format!("unexpected argument `{other}`"))),
        }
    }
    if shards.is_empty() {
        return Err(CliError::usage("route needs at least one --shard HOST:PORT"));
    }
    let mut cfg = RouterConfig::new(shards);
    cfg.addr = addr;
    if let Some(d) = probe_interval {
        cfg.probe_interval = d;
    }
    if let Some(d) = probe_timeout {
        cfg.probe_timeout = d;
    }
    if let Some(k) = down_after {
        cfg.down_after = k;
    }
    if let Some(d) = io_timeout {
        cfg.io_timeout = d;
    }
    if let Some(path) = &trace {
        cfg.tracer = open_trace(path, trace_level)?;
    }
    let handle =
        Router::start(cfg).map_err(|e| CliError::Service(format!("cannot start router: {e}")))?;
    if print_addr {
        use std::io::Write as _;
        println!("listening on {}", handle.addr());
        let _ = std::io::stdout().flush();
    } else {
        eprintln!("stsyn-route: listening on {}", handle.addr());
    }
    handle.join();
    Ok(ExitCode::SUCCESS)
}

// ----------------------------------------------------------------- client

fn client_main(argv: &[String]) -> Result<ExitCode, CliError> {
    let mut addr: Option<String> = None;
    let mut policy = RetryPolicy::default();
    let mut i = 0;
    while i + 1 < argv.len() {
        match argv[i].as_str() {
            "--addr" => addr = Some(argv[i + 1].clone()),
            "--retries" => {
                policy.max_retries = argv[i + 1]
                    .parse::<u32>()
                    .map_err(|_| CliError::usage("--retries needs a non-negative integer"))?;
            }
            "--retry-base-ms" => {
                let ms =
                    argv[i + 1].parse::<u64>().ok().filter(|&ms| ms > 0).ok_or_else(|| {
                        CliError::usage("--retry-base-ms needs a positive integer")
                    })?;
                policy.base_delay = Duration::from_millis(ms);
            }
            _ => break,
        }
        i += 2;
    }
    let addr = addr.ok_or_else(|| CliError::usage("client needs --addr HOST:PORT"))?;
    let Some(verb) = argv.get(i) else {
        return Err(CliError::usage("client needs a verb"));
    };
    let args = &argv[i + 1..];
    let mut client = Client::connect_with(addr.as_str(), policy)
        .map_err(|e| CliError::Service(e.to_string()))?;
    match verb.as_str() {
        "submit" => client_submit(&mut client, args),
        "status" => {
            let id = parse_id(args)?;
            let resp = client.status(id).map_err(map_client_err)?;
            println!("job {id}: {}", resp.get("state").and_then(Json::as_str).unwrap_or("unknown"));
            Ok(ExitCode::SUCCESS)
        }
        "watch" => {
            let id = parse_id(args)?;
            let status = client.watch(id, render_watch_frame).map_err(map_client_err)?;
            let state = status.get("state").and_then(Json::as_str).unwrap_or("unknown");
            println!("job {id}: {state}");
            if state == "done" {
                Ok(ExitCode::SUCCESS)
            } else {
                Ok(ExitCode::from(EXIT_SYNTH))
            }
        }
        "result" => {
            let id = parse_id(args)?;
            let resp = client.result(id).map_err(map_client_err)?;
            print_wire_result(&resp, &args[1..])?;
            Ok(ExitCode::SUCCESS)
        }
        "cancel" => {
            let id = parse_id(args)?;
            let resp = client.cancel(id).map_err(map_client_err)?;
            println!("job {id}: {}", resp.get("state").and_then(Json::as_str).unwrap_or("unknown"));
            Ok(ExitCode::SUCCESS)
        }
        "stats" => {
            let resp = client.stats().map_err(map_client_err)?;
            if let Json::Obj(pairs) = &resp {
                for (k, v) in pairs.iter().filter(|(k, _)| k != "ok") {
                    println!("{k:<14} {v}");
                }
            }
            Ok(ExitCode::SUCCESS)
        }
        "metrics" => {
            let text = client.metrics().map_err(map_client_err)?;
            print!("{text}");
            Ok(ExitCode::SUCCESS)
        }
        "ping" => {
            let resp = client.ping().map_err(map_client_err)?;
            println!(
                "pong from {} ({} up {:.1}s)",
                addr,
                resp.get("role").and_then(Json::as_str).unwrap_or("daemon"),
                resp.get("uptime_secs").and_then(Json::as_f64).unwrap_or(0.0),
            );
            Ok(ExitCode::SUCCESS)
        }
        "fleet-stats" => {
            let resp = client.fleet_stats().map_err(map_client_err)?;
            if let Some(Json::Obj(pairs)) = resp.get("router") {
                for (k, v) in pairs.iter().filter(|(k, _)| k != "role") {
                    println!("{k:<18} {v}");
                }
            }
            if let Some(Json::Arr(shards)) = resp.get("shards") {
                for s in shards {
                    println!(
                        "shard {} {:<22} {:<9} consec_failures={} latency_us={}",
                        s.get("shard").and_then(Json::as_u64).unwrap_or(0),
                        s.get("addr").and_then(Json::as_str).unwrap_or("?"),
                        s.get("health").and_then(Json::as_str).unwrap_or("?"),
                        s.get("consec_failures").and_then(Json::as_u64).unwrap_or(0),
                        s.get("latency_us").and_then(Json::as_u64).unwrap_or(0),
                    );
                }
            }
            Ok(ExitCode::SUCCESS)
        }
        "fleet-metrics" => {
            let text = client.fleet_metrics().map_err(map_client_err)?;
            print!("{text}");
            Ok(ExitCode::SUCCESS)
        }
        "shutdown" => {
            let mode = match args {
                [] => ShutdownMode::Drain,
                [m, v] if m == "--mode" && v == "drain" => ShutdownMode::Drain,
                [m, v] if m == "--mode" && v == "checkpoint" => ShutdownMode::Checkpoint,
                _ => return Err(CliError::usage("shutdown takes --mode drain|checkpoint")),
            };
            client.shutdown(mode).map_err(map_client_err)?;
            println!("shutdown requested");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(CliError::usage(format!("unknown client verb `{other}`"))),
    }
}

/// Render one live `watch` frame. Progress events print compactly
/// (sequence number, event name, fields); gap markers announce dropped
/// frames; heartbeats are liveness plumbing and stay silent.
fn render_watch_frame(frame: &stsyn_serve::WatchFrame) {
    use stsyn_serve::WatchFrame;
    match frame {
        WatchFrame::Progress { seq, event } => {
            let name = event.get("name").and_then(Json::as_str).unwrap_or("?");
            let mut line = format!("  #{seq:<4} {name}");
            if let Json::Obj(pairs) = event {
                for (k, v) in pairs {
                    if matches!(k.as_str(), "ts_us" | "kind" | "level" | "name" | "span" | "parent")
                    {
                        continue;
                    }
                    line.push(' ');
                    line.push_str(k);
                    line.push('=');
                    line.push_str(&v.to_string());
                }
            }
            println!("{line}");
        }
        WatchFrame::Gap { missed } => {
            println!("  ...  {missed} frame(s) dropped (replay window exceeded)");
        }
        WatchFrame::Heartbeat { .. } | WatchFrame::Status(_) => {}
    }
}

fn parse_id(args: &[String]) -> Result<u64, CliError> {
    args.first()
        .and_then(|s| s.parse::<u64>().ok())
        .ok_or_else(|| CliError::usage("expected a numeric job ID"))
}

// ------------------------------------------------------------------ store

/// `stsyn store stats|gc|verify` — inspect and maintain the artifact
/// store. `stats` and `gc` talk to a running daemon or router (the
/// router fans out to every reachable shard); `verify` opens a store
/// directory offline, re-checks every artifact's CRC, and drops corrupt
/// entries (exit 1 when any were found).
fn store_main(argv: &[String]) -> Result<ExitCode, CliError> {
    let Some(verb) = argv.first().map(String::as_str) else {
        return Err(CliError::usage("store needs a verb: stats, gc or verify"));
    };
    let rest = &argv[1..];
    let mut addr: Option<String> = None;
    let mut dir: Option<String> = None;
    let mut cap_bytes: Option<u64> = None;
    let mut it = rest.iter().cloned();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => addr = Some(flag_value(&mut it, "--addr")?),
            "--dir" => dir = Some(flag_value(&mut it, "--dir")?),
            "--cap-bytes" => {
                let v = flag_value(&mut it, "--cap-bytes")?;
                cap_bytes = Some(v.parse::<u64>().ok().ok_or_else(|| {
                    CliError::usage(format!("--cap-bytes `{v}` is not a byte count"))
                })?);
            }
            "--help" | "-h" => return Err(CliError::Usage(None)),
            other => return Err(CliError::usage(format!("unexpected argument `{other}`"))),
        }
    }
    match verb {
        "stats" => {
            let addr = addr.ok_or_else(|| CliError::usage("store stats needs --addr"))?;
            let mut client =
                Client::connect(addr.as_str()).map_err(|e| CliError::Service(e.to_string()))?;
            let resp = client.store_stats().map_err(map_client_err)?;
            print_store_response(&resp);
            Ok(ExitCode::SUCCESS)
        }
        "gc" => {
            let addr = addr.ok_or_else(|| CliError::usage("store gc needs --addr"))?;
            let mut client =
                Client::connect(addr.as_str()).map_err(|e| CliError::Service(e.to_string()))?;
            let resp = client.store_gc(cap_bytes).map_err(map_client_err)?;
            print_store_response(&resp);
            Ok(ExitCode::SUCCESS)
        }
        "verify" => {
            let dir = dir.ok_or_else(|| CliError::usage("store verify needs --dir PATH"))?;
            let store = stsyn_store::Store::open(&dir, 0)
                .map_err(|e| CliError::Input(format!("{dir}: {e}")))?;
            let report = store
                .verify()
                .map_err(|e| CliError::Input(format!("{dir}: verification failed: {e}")))?;
            println!("verified        {}", report.verified);
            println!("corrupt_dropped {}", report.corrupt_dropped);
            if report.corrupt_dropped > 0 {
                eprintln!("stsyn: store had corrupt entries; they were dropped");
                return Ok(ExitCode::from(EXIT_SYNTH));
            }
            Ok(ExitCode::SUCCESS)
        }
        other => Err(CliError::usage(format!("unknown store verb `{other}`"))),
    }
}

/// Print a `store-stats`/`store-gc` response: scalar totals first, then
/// one line per shard when a router answered.
fn print_store_response(resp: &Json) {
    if let Json::Obj(pairs) = resp {
        for (k, v) in pairs {
            match (k.as_str(), v) {
                ("ok", _) => {}
                ("shards", Json::Arr(shards)) => {
                    for shard in shards {
                        let i = shard.get("shard").and_then(Json::as_u64).unwrap_or(0);
                        let addr = shard.get("addr").and_then(Json::as_str).unwrap_or("?");
                        match shard.get("response") {
                            Some(r) => println!("shard {i} ({addr}): {r}"),
                            None => println!(
                                "shard {i} ({addr}): error {}",
                                shard.get("error").and_then(Json::as_str).unwrap_or("?")
                            ),
                        }
                    }
                }
                _ => println!("{k:<16} {v}"),
            }
        }
    }
}

fn map_client_err(e: ClientError) -> CliError {
    match e {
        ClientError::Rejected { code, message } => {
            let exit = match code.as_str() {
                "queue-full" | "busy" | "shutting-down" => EXIT_REJECTED,
                "degraded" | "no-shards" => EXIT_FLEET,
                "input-error" | "bad-request" | "bad-spec" | "unknown-job" => EXIT_INPUT,
                "budget-exhausted" => EXIT_RESOURCES,
                "checkpoint-error" => EXIT_CHECKPOINT,
                _ => EXIT_SYNTH,
            };
            CliError::Refused { exit, message: format!("{code}: {message}") }
        }
        other => CliError::Service(other.to_string()),
    }
}

fn client_submit(client: &mut Client, args: &[String]) -> Result<ExitCode, CliError> {
    let mut file: Option<String> = None;
    let mut case: Option<String> = None;
    let mut n: Option<usize> = None;
    let mut d: u32 = 0;
    let mut wait = false;
    let mut wait_secs: f64 = 600.0;
    let mut spec = SubmitSpec::new(stsyn_serve::JobSource::Dsl(String::new()));
    let mut emit_dsl: Option<String> = None;
    let mut quiet = false;
    let mut it = args.iter().cloned();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--case" => case = Some(flag_value(&mut it, "--case")?),
            "--n" => {
                n = Some(
                    flag_value(&mut it, "--n")?
                        .parse()
                        .map_err(|_| CliError::usage("--n needs a positive integer"))?,
                )
            }
            "--d" => {
                d = flag_value(&mut it, "--d")?
                    .parse()
                    .map_err(|_| CliError::usage("--d needs a positive integer"))?
            }
            "--weak" => spec.weak = true,
            "--schedule" => {
                spec.schedule = Some(parse_schedule(&flag_value(&mut it, "--schedule")?)?);
            }
            "--priority" => {
                spec.priority = flag_value(&mut it, "--priority")?
                    .parse()
                    .map_err(|_| CliError::usage("--priority needs an integer"))?
            }
            "--timeout" => {
                spec.timeout_secs = Some(
                    flag_value(&mut it, "--timeout")?
                        .parse()
                        .map_err(|_| CliError::usage("--timeout needs a number of seconds"))?,
                )
            }
            "--max-nodes" => {
                spec.max_nodes = Some(
                    flag_value(&mut it, "--max-nodes")?
                        .parse()
                        .map_err(|_| CliError::usage("--max-nodes needs a positive integer"))?,
                )
            }
            "--max-ticks" => {
                spec.max_ticks = Some(
                    flag_value(&mut it, "--max-ticks")?
                        .parse()
                        .map_err(|_| CliError::usage("--max-ticks needs a positive integer"))?,
                )
            }
            "--wait" => wait = true,
            "--wait-secs" => {
                wait_secs = flag_value(&mut it, "--wait-secs")?
                    .parse()
                    .map_err(|_| CliError::usage("--wait-secs needs a number of seconds"))?
            }
            "--emit-dsl" => emit_dsl = Some(flag_value(&mut it, "--emit-dsl")?),
            "--quiet" => quiet = true,
            f if !f.starts_with('-') && file.is_none() => file = Some(f.to_string()),
            other => return Err(CliError::usage(format!("unexpected argument `{other}`"))),
        }
    }
    spec.source = match (file, case) {
        (Some(path), None) => {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| CliError::Input(format!("cannot read {path}: {e}")))?;
            stsyn_serve::JobSource::Dsl(text)
        }
        (None, Some(name)) => {
            let n = n.ok_or_else(|| CliError::usage("--case needs --n N"))?;
            stsyn_serve::JobSource::Case { name, n, d }
        }
        _ => return Err(CliError::usage("submit needs exactly one of FILE or --case NAME")),
    };
    let id = client.submit(&spec).map_err(map_client_err)?;
    println!("submitted job {id}");
    if !wait {
        return Ok(ExitCode::SUCCESS);
    }
    let resp = client.wait(id, Duration::from_secs_f64(wait_secs)).map_err(map_client_err)?;
    let mut trailing: Vec<String> = Vec::new();
    if let Some(p) = emit_dsl {
        trailing.push("--emit-dsl".to_string());
        trailing.push(p);
    }
    if quiet {
        trailing.push("--quiet".to_string());
    }
    print_wire_result(&resp, &trailing)?;
    Ok(ExitCode::SUCCESS)
}

/// Print a `result` response; honors trailing `--emit-dsl PATH` and
/// `--quiet` options.
fn print_wire_result(resp: &Json, args: &[String]) -> Result<(), CliError> {
    let mut emit_dsl: Option<&str> = None;
    let mut quiet = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--emit-dsl" if i + 1 < args.len() => {
                emit_dsl = Some(&args[i + 1]);
                i += 1;
            }
            "--quiet" => quiet = true,
            other => return Err(CliError::usage(format!("unexpected argument `{other}`"))),
        }
        i += 1;
    }
    let verified = resp.get("verified").and_then(Json::as_bool).unwrap_or(false);
    let weak = resp.get("weak").and_then(Json::as_bool).unwrap_or(false);
    println!(
        "job {}: {} ({} stabilization), verification: {}",
        resp.get("id").and_then(Json::as_u64).unwrap_or(0),
        resp.get("name").and_then(Json::as_str).unwrap_or("?"),
        if weak { "weak" } else { "strong" },
        if verified { "PASS" } else { "FAIL" },
    );
    if !quiet {
        if let Some(recovery) = resp.get("recovery").and_then(Json::as_str) {
            if !recovery.is_empty() {
                println!("recovery actions added:\n{recovery}");
            }
        }
    }
    if let Some(path) = emit_dsl {
        let text = resp
            .get("protocol")
            .and_then(Json::as_str)
            .ok_or_else(|| CliError::Service("result carries no protocol text".into()))?;
        std::fs::write(path, text)
            .map_err(|e| CliError::Input(format!("cannot write {path}: {e}")))?;
        println!("synthesized protocol written to {path}");
    }
    if !quiet {
        if let Some(Json::Obj(pairs)) = resp.get("stats") {
            println!("statistics:");
            for (k, v) in pairs {
                println!("  {k:<16} {v}");
            }
        }
    }
    Ok(())
}
