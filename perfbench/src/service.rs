//! The `service-mix` workload: the job daemon, its queue, workers and
//! artifact store, driven over loopback TCP.
//!
//! A session starts an in-process daemon with 2 workers and the store on,
//! connects 2 clients — one thread and one connection each, as many as the
//! machine the benchmark was defined on has cores — and drives it as a
//! closed loop: each client sends [`JOBS_PER_CLIENT`] submit→wait jobs, one
//! after the other. Each job is fresh or a repeat with probability ½; a
//! client's first job is fresh.
//!
//! * A fresh job is a small case study — coloring(7|8), matching(6),
//!   mis(8|9) or two_ring(3,2) — under a seeded schedule permutation not
//!   drawn before in the session. It is a true cold run: it writes its job
//!   directory, checkpoint journal and store entry.
//! * A repeat resubmits, under a new idempotency key, the exact spec of a
//!   job the same client already completed, so the store answers it.
//!
//! Synthesis takes milliseconds here, so the wire, admission, queue,
//! store and publish layers dominate, and writes sit beside reads. A
//! session starts on an empty state directory. A run repeats whole
//! sessions while another fits in its time. An end-to-end run times its
//! set-ups on daemons of their own, then runs each session in a child
//! process (`--session`), so that the peak memory it reports is that of
//! one session.
//!
//! Every result must be verified, a fresh job must not be a store hit,
//! and a repeat must return the very protocol text its cold run did.

use crate::layers::Layers;
use crate::{fnv1a64, geomean_of_medians, median, peak_rss_mb, percentile, Report, RunConfig};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};
use stsyn_obs::{parse_trace, MemorySink, TraceLevel, Tracer};
use stsyn_serve::{
    Client, JobSource, Json, Server, ServerConfig, ServerHandle, ShutdownMode, SubmitSpec,
    XorShift64,
};

/// Client threads (and connections) driving the daemon.
const CLIENTS: usize = 2;
/// Daemon worker threads.
const WORKERS: usize = 2;
/// Jobs each client sends per session. The daemon keeps every finished
/// job in memory, so a session of fixed size keeps peak memory
/// independent of how many jobs the machine gets through in a run.
pub const JOBS_PER_CLIENT: usize = 1000;
/// Smoke mode: one session of 40 jobs in all.
const SMOKE_JOBS_PER_CLIENT: usize = 20;
/// Set-ups timed per end-to-end run; `setup_s` is their median.
const SETUP_REPS: usize = 51;
/// Where state directories go, relative to the working directory.
const STATE_ROOT: &str = ".bench_state";

/// Fresh-job cases `(case, n, d)`: every schedule of each succeeds, in
/// milliseconds. (A two_ring(3,3) solve took 40 to 340 ms and peaked at
/// 120k to 410k BDD nodes depending on the schedule, so the permutations a
/// seed happened to draw decided a run's tail latency and peak memory.)
const FRESH_CASES: &[(&str, usize, u32)] = &[
    ("coloring", 7, 0),
    ("coloring", 8, 0),
    ("matching", 6, 0),
    ("mis", 8, 0),
    ("mis", 9, 0),
    ("two_ring", 3, 2),
];

/// Each fresh case's spec, with its number of processes.
fn fresh_cases() -> Vec<(SubmitSpec, usize)> {
    FRESH_CASES
        .iter()
        .map(|&(name, n, d)| {
            let spec = SubmitSpec::new(JobSource::Case { name: name.into(), n, d });
            let k = spec.materialize().expect("fresh case").protocol.num_processes();
            (spec, k)
        })
        .collect()
}

/// `count` fresh specs for one session, each with the index of its case:
/// a seeded case under a seeded schedule permutation, drawn without
/// replacement, so that no fresh job of the session can be answered from
/// the store.
fn fresh_specs(
    rng: &mut XorShift64,
    cases: &[(SubmitSpec, usize)],
    count: usize,
) -> Vec<(usize, SubmitSpec)> {
    let mut seen = HashSet::new();
    let mut specs = Vec::with_capacity(count);
    while specs.len() < count {
        let index = rng.below(cases.len() as u64) as usize;
        let (case, k) = &cases[index];
        let mut order: Vec<usize> = (0..*k).collect();
        for j in (1..order.len()).rev() {
            order.swap(j, rng.below(j as u64 + 1) as usize);
        }
        let mut spec = case.clone();
        spec.schedule = Some(order);
        if seen.insert(spec.fingerprint()) {
            specs.push((index, spec));
        }
    }
    specs
}

/// What the clients of one or more sessions saw.
#[derive(Default)]
struct Log {
    jobs: u64,
    failed: u64,
    /// Fresh jobs' submit→result, with their case, and their submit
    /// round trips.
    cold_ms: Vec<(usize, f64)>,
    cold_submit_ms: Vec<f64>,
    /// Every submit round trip.
    submit_ms: Vec<f64>,
    /// Repeats' submit→result, with their case, and how many the store
    /// answered.
    hit_ms: Vec<(usize, f64)>,
    repeats: u64,
    store_hits: u64,
    /// Seconds the clients were driving the daemons.
    wall_s: f64,
    /// Sums over the daemons' queue-wait and run histograms.
    queue_us: f64,
    run_us: f64,
    runs: f64,
    /// Failed jobs the daemons counted.
    daemon_failed: f64,
    /// Trace records of traced sessions.
    records: Vec<Json>,
    /// Peak memory of each session run in a child process, in MiB.
    peak_rss_mb: Vec<f64>,
}

impl Log {
    fn merge(&mut self, other: Log) {
        self.jobs += other.jobs;
        self.failed += other.failed;
        self.cold_ms.extend(other.cold_ms);
        self.cold_submit_ms.extend(other.cold_submit_ms);
        self.submit_ms.extend(other.submit_ms);
        self.hit_ms.extend(other.hit_ms);
        self.repeats += other.repeats;
        self.store_hits += other.store_hits;
        self.wall_s += other.wall_s;
        self.queue_us += other.queue_us;
        self.run_us += other.run_us;
        self.runs += other.runs;
        self.daemon_failed += other.daemon_failed;
        self.records.extend(other.records);
        self.peak_rss_mb.extend(other.peak_rss_mb);
    }

    fn record(&mut self, who: usize, outcome: Result<(), String>) {
        self.jobs += 1;
        if let Err(e) = outcome {
            eprintln!("service-mix client {who}: {e}");
            self.failed += 1;
        }
    }
}

/// What one submit→wait round saw.
struct Job {
    submit_ms: f64,
    total_ms: f64,
    store_hit: bool,
    hash: u64,
}

/// Submit `spec` under idempotency key `key`, wait for its result, and
/// check it verified.
fn submit_wait(client: &mut Client, spec: &SubmitSpec, key: u64) -> Result<Job, String> {
    let mut spec = spec.clone();
    spec.idem = Some(key);
    let t0 = Instant::now();
    let req = Json::obj(vec![("op", "submit".into()), ("job", spec.to_json())]);
    let resp = client.request(&req).map_err(|e| format!("submit: {e}"))?;
    let submit_ms = t0.elapsed().as_secs_f64() * 1e3;
    let id = resp.get("id").and_then(Json::as_u64).ok_or("submit response without an id")?;
    let result = client.wait(id, Duration::from_secs(120)).map_err(|e| format!("job {id}: {e}"))?;
    let total_ms = t0.elapsed().as_secs_f64() * 1e3;
    if result.get("verified").and_then(Json::as_bool) != Some(true) {
        return Err(format!("job {id}: result not verified"));
    }
    let text = result.get("protocol").and_then(Json::as_str).ok_or("result without a protocol")?;
    Ok(Job {
        submit_ms,
        total_ms,
        store_hit: resp.get("store").and_then(Json::as_str) == Some("hit"),
        hash: fnv1a64(text.as_bytes()),
    })
}

/// Client `c`'s closed loop: `jobs` jobs, each fresh (the next of
/// `fresh`) or, with probability ½ once it has completed one, a repeat of
/// a random spec it completed.
fn drive(
    client: &mut Client,
    c: usize,
    mut rng: XorShift64,
    fresh: &[(usize, SubmitSpec)],
    jobs: usize,
) -> Log {
    let mut log = Log::default();
    let mut fresh = fresh.iter();
    let mut done: Vec<(usize, SubmitSpec, u64)> = Vec::new();
    for j in 0..jobs {
        let key = ((c as u64 + 1) << 32) + j as u64;
        let outcome = if !done.is_empty() && rng.below(2) == 1 {
            let (case, spec, hash) = &done[rng.below(done.len() as u64) as usize];
            submit_wait(client, spec, key).and_then(|job| {
                if job.hash != *hash {
                    return Err("a repeat returned a different protocol".to_string());
                }
                log.submit_ms.push(job.submit_ms);
                log.hit_ms.push((*case, job.total_ms));
                log.repeats += 1;
                log.store_hits += u64::from(job.store_hit);
                Ok(())
            })
        } else {
            let (case, spec) = fresh.next().expect("a fresh spec for every job");
            submit_wait(client, spec, key).and_then(|job| {
                if job.store_hit {
                    return Err("a fresh job was answered from the store".to_string());
                }
                log.cold_ms.push((*case, job.total_ms));
                log.cold_submit_ms.push(job.submit_ms);
                log.submit_ms.push(job.submit_ms);
                done.push((*case, spec.clone(), job.hash));
                Ok(())
            })
        };
        log.record(c, outcome);
    }
    log
}

/// A started daemon with its connected clients.
struct Session {
    dir: PathBuf,
    handle: ServerHandle,
    clients: Vec<Client>,
    sink: Option<Arc<MemorySink>>,
}

/// Set-up: start the daemon (store open included) and connect every
/// client. Returns the session and the seconds it took.
fn start(dir: &Path, traced: bool) -> (Session, f64) {
    let _ = std::fs::remove_dir_all(dir);
    let (tracer, sink) = if traced {
        let (t, s) = Tracer::memory(TraceLevel::Debug);
        (t, Some(s))
    } else {
        (Tracer::disabled(), None)
    };
    let t = Instant::now();
    let mut cfg = ServerConfig::new(dir).with_store(0);
    cfg.workers = WORKERS;
    cfg.tracer = tracer;
    let handle = Server::start(cfg).expect("start the daemon");
    let clients: Vec<Client> =
        (0..CLIENTS).map(|_| Client::connect(handle.addr()).expect("connect")).collect();
    let secs = t.elapsed().as_secs_f64();
    (Session { dir: dir.to_path_buf(), handle, clients, sink }, secs)
}

/// Stop the daemon, remove its state, and return its trace records.
fn stop(session: Session) -> Vec<Json> {
    session.handle.shutdown(ShutdownMode::Drain);
    drop(session.clients);
    session.handle.join();
    let _ = std::fs::remove_dir_all(&session.dir);
    let _ = std::fs::remove_dir(STATE_ROOT); // only once empty
    session.sink.map_or_else(Vec::new, |sink| {
        let text = sink.lines().join("\n");
        parse_trace(text.as_bytes()).expect("the daemon's trace is well-formed")
    })
}

fn state_dir(tag: &str) -> PathBuf {
    Path::new(STATE_ROOT).join(format!("service-{}-{tag}", std::process::id()))
}

/// Sum and count of a daemon latency histogram from `stats`, in µs.
fn histogram(stats: &Json, name: &str) -> (f64, f64) {
    let h = stats.get("latency").and_then(|l| l.get(name));
    let field = |f: &str| h.and_then(|h| h.get(f)).and_then(Json::as_f64).unwrap_or(0.0);
    (field("sum_us"), field("count"))
}

/// Session `index`: start a daemon, run every client's closed loop on its
/// own thread, read the daemon's `stats`, and stop it. The inputs depend
/// on the seed and the index alone.
fn session(cfg: &RunConfig, index: u64, traced: bool) -> Log {
    let jobs = if cfg.smoke { SMOKE_JOBS_PER_CLIENT } else { JOBS_PER_CLIENT };
    let mut rng = XorShift64::new(cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ index);
    // At most every job is fresh; client `c` takes every CLIENTS-th spec,
    // so no two clients share one.
    let fresh = fresh_specs(&mut rng, &fresh_cases(), jobs * CLIENTS);
    let rngs: Vec<XorShift64> = (0..CLIENTS).map(|_| XorShift64::new(rng.next_u64())).collect();

    let tag = format!("{}{index}", if traced { "traced" } else { "plain" });
    let (mut s, _) = start(&state_dir(&tag), traced);
    let t = Instant::now();
    let mut log = std::thread::scope(|scope| {
        let joins: Vec<_> = s
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let mine: Vec<_> = fresh.iter().skip(c).step_by(CLIENTS).cloned().collect();
                let rng = rngs[c].clone();
                scope.spawn(move || drive(client, c, rng, &mine, jobs))
            })
            .collect();
        let mut log = Log::default();
        for j in joins {
            log.merge(j.join().expect("client thread"));
        }
        log
    });
    log.wall_s = t.elapsed().as_secs_f64();
    let stats = s.clients[0].stats().unwrap_or(Json::Null);
    (log.queue_us, _) = histogram(&stats, "queue_wait");
    (log.run_us, log.runs) = histogram(&stats, "run");
    log.daemon_failed = stats.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
    log.records = stop(s);
    log
}

fn samples_to_json(samples: &[(usize, f64)]) -> Json {
    Json::Arr(samples.iter().map(|&(case, ms)| Json::Arr(vec![case.into(), ms.into()])).collect())
}

fn samples_from_json(json: Option<&Json>) -> Vec<(usize, f64)> {
    let pairs = json.and_then(Json::as_arr).unwrap_or_default();
    pairs
        .iter()
        .filter_map(|p| match p.as_arr()? {
            [case, ms] => Some((case.as_u64()? as usize, ms.as_f64()?)),
            _ => None,
        })
        .collect()
}

/// `--session <index>`: run end-to-end session `index` in this process
/// and print what its clients saw, with the process's peak memory, as one
/// JSON line.
pub fn run_session(cfg: &RunConfig, index: u64) {
    let log = session(cfg, index, false);
    let line = Json::obj(vec![
        ("jobs", log.jobs.into()),
        ("failed", log.failed.into()),
        ("cold_ms", samples_to_json(&log.cold_ms)),
        ("hit_ms", samples_to_json(&log.hit_ms)),
        ("wall_s", log.wall_s.into()),
        ("peak_rss_mb", peak_rss_mb().into()),
    ]);
    println!("{line}");
}

/// End-to-end session `index`, in a child process of its own. In one
/// process, what each daemon left allocated raised the next one's peak.
fn session_in_child(cfg: &RunConfig, index: u64) -> Log {
    let exe = std::env::current_exe().expect("the benchmark's own executable");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", "service-mix", "--seed", &cfg.seed.to_string()]);
    cmd.args(["--session", &index.to_string()]);
    if cfg.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.stdin(Stdio::null()).stderr(Stdio::inherit()).output();
    let line = out.ok().filter(|o| o.status.success()).and_then(|o| {
        let text = String::from_utf8(o.stdout).ok()?;
        Json::parse(text.lines().last()?).ok()
    });
    let Some(line) = line else {
        eprintln!("service-mix: session {index}'s child process failed");
        return Log { jobs: 1, failed: 1, ..Log::default() };
    };
    let num = |k: &str| line.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    Log {
        jobs: num("jobs") as u64,
        failed: num("failed") as u64,
        cold_ms: samples_from_json(line.get("cold_ms")),
        hit_ms: samples_from_json(line.get("hit_ms")),
        wall_s: num("wall_s"),
        peak_rss_mb: vec![num("peak_rss_mb")],
        ..Log::default()
    }
}

/// Sessions, each run by `one` from its index, until another would
/// overrun `seconds` (always at least one; exactly one in smoke mode).
fn sessions(cfg: &RunConfig, seconds: f64, mut one: impl FnMut(u64) -> Log) -> Log {
    let t0 = Instant::now();
    let mut log = Log::default();
    for index in 0.. {
        let started = t0.elapsed().as_secs_f64();
        log.merge(one(index));
        let now = t0.elapsed().as_secs_f64();
        if cfg.smoke || now + (now - started) > seconds {
            break;
        }
    }
    log
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Typical latency in milliseconds of `(case, ms)` samples (see
/// [`geomean_of_medians`]), if there are any.
fn typical_ms(samples: &[(usize, f64)]) -> Option<f64> {
    let mut by_case = vec![Vec::new(); FRESH_CASES.len()];
    for &(case, ms) in samples {
        by_case[case].push(ms);
    }
    (!samples.is_empty()).then(|| geomean_of_medians(&by_case))
}

fn median_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

fn count(report: &mut Report, log: &Log) {
    report.attempted += log.jobs;
    report.failed += log.failed;
}

/// Run the `service-mix` workload.
pub fn run(cfg: &RunConfig) -> Report {
    let mut report = Report::default();
    if cfg.trace {
        // Plain and traced halves, on the same inputs: the traced half
        // gives the layer figures, the two together the tracing overhead.
        let half = cfg.seconds / 2.0;
        let plain = sessions(cfg, half, |index| session(cfg, index, false));
        let traced = sessions(cfg, half, |index| session(cfg, index, true));
        count(&mut report, &plain);
        count(&mut report, &traced);

        let mut layers = Layers::default();
        layers.absorb(&traced.records);
        layers.attribute_daemon_spans();
        layers.report(&mut report);

        let runs = traced.runs.max(1.0);
        let (queue_ms, run_ms) = (traced.queue_us / runs / 1e3, traced.run_us / runs / 1e3);
        report.set("serve.submit_ms_p50", median_or_zero(&traced.submit_ms));
        report.set("serve.queue_ms_mean", queue_ms);
        report.set("serve.run_ms_mean", run_ms);
        report.set(
            "serve.publish_ms_mean",
            mean(&traced.cold_ms.iter().map(|&(_, ms)| ms).collect::<Vec<_>>())
                - mean(&traced.cold_submit_ms)
                - queue_ms
                - run_ms,
        );
        // Latencies from the untraced half, as users see them.
        let mut cold: Vec<f64> = plain.cold_ms.iter().map(|&(_, ms)| ms).collect();
        cold.sort_by(f64::total_cmp);
        let p99 = if cold.is_empty() { 0.0 } else { percentile(&cold, 99.0) };
        report.set("serve.cold_ms_p99", p99);
        report.set("serve.failed", traced.daemon_failed);
        report.set("store.hit_ratio", traced.store_hits as f64 / traced.repeats.max(1) as f64);
        report.set("store.hit_ms_p50", typical_ms(&plain.hit_ms).unwrap_or(0.0));
        let overhead = match (typical_ms(&plain.cold_ms), typical_ms(&traced.cold_ms)) {
            (Some(plain), Some(traced)) => traced / plain - 1.0,
            _ => 0.0,
        };
        report.set("obs.trace_overhead", overhead);
    } else {
        // Set-up, timed on daemons of its own before the run's.
        let reps = if cfg.smoke { 2 } else { SETUP_REPS };
        let setups: Vec<f64> = (0..reps)
            .map(|rep| {
                let (s, secs) = start(&state_dir(&format!("setup{rep}")), false);
                stop(s);
                secs
            })
            .collect();
        let log = sessions(cfg, cfg.seconds, |index| session_in_child(cfg, index));
        count(&mut report, &log);
        if let Some(ms) = typical_ms(&log.cold_ms) {
            report.set("solve_s", ms / 1e3);
        }
        report.set("jobs_per_s", log.jobs as f64 / log.wall_s);
        report.set("setup_s", median(&setups));
        if !log.peak_rss_mb.is_empty() {
            report.set("peak_rss_mb", median(&log.peak_rss_mb));
        }
    }
    report
}

/// The service-layer metrics of a workload that does not use the
/// service: zero.
pub fn report_no_service(report: &mut Report) {
    for &(name, _) in crate::PER_LAYER {
        if name.starts_with("serve.") || name.starts_with("store.") {
            report.set(name, 0.0);
        }
    }
}
