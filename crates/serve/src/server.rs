//! The synthesis job daemon: listener, worker pool, job registry and
//! persistent state directory.
//!
//! ## Lifecycle of a job
//!
//! 1. **submit** — the spec is validated (DSL parsed, case bounds and
//!    schedule checked) *synchronously*, persisted to
//!    `state/jobs/<id>/spec.json`, registered, and pushed into the bounded
//!    priority queue. A full queue rejects the submission with a distinct
//!    `queue-full` error — backpressure, never unbounded memory. A
//!    submission carrying an idempotency key that the daemon has already
//!    admitted is answered with the existing job id instead of a second
//!    enqueue, which is what makes client-side retry safe.
//! 2. **run** — a worker claims the job, attaches its cancel flag (plus
//!    the server-wide checkpoint-shutdown flag) to the job's [`Budget`],
//!    and runs it through [`stsyn_core::job::JobSpec::run`]. Strong jobs
//!    checkpoint into `state/jobs/<id>/ckpt/`, so a killed daemon resumes
//!    them on restart. Every attempt is fenced by `catch_unwind`: a
//!    panicking job is recorded as a crash, not a lost worker.
//! 3. **finish** — the result (success or failure) is written atomically
//!    to `result.json`; a user cancellation leaves a `cancelled` marker.
//!    Either file makes the job terminal across restarts.
//!
//! ## Restart recovery
//!
//! On startup every `state/jobs/*` directory is reloaded: terminal jobs
//! (result or cancel marker present) come back queryable; everything else
//! is re-enqueued — with `resume` semantics when a checkpoint journal
//! exists, which replays the killed run's committed work and produces a
//! result byte-identical to an uninterrupted run (PR 2's guarantee).
//! Quarantined jobs (see below) are reloaded queryable but never re-run.
//!
//! ## Self-healing
//!
//! * Every accepted socket gets read/write deadlines; a stalled or idle
//!   connection is reaped instead of pinning a handler thread forever.
//! * Concurrent connection handlers are capped (`max_conns`); excess
//!   connections get a typed `busy` rejection.
//! * Each job attempt is appended to a durable `attempts.log` ledger in
//!   its job directory (`start` / `done` / `cut` / `crash <msg>` lines).
//!   An attempt that never closed — a panic, or a SIGKILL'd daemon that
//!   died mid-run without a checkpoint cut — leaves its `start`
//!   unmatched. A job accumulating `quarantine_after` suspect attempts is
//!   moved to `state/quarantine/<id>/` and never retried again, so one
//!   poison job cannot starve the pool across restarts.
//! * A supervisor thread respawns worker threads killed by a panic that
//!   escapes the job fence.
//!
//! ## Shutdown
//!
//! * **drain** — stop admitting, finish queued and running jobs, exit.
//! * **checkpoint** — stop admitting, discard the in-memory queue (the
//!   jobs stay on disk), raise the shared cancel flag so running jobs cut
//!   a final checkpoint, exit. Both leave the state directory ready for
//!   the next daemon.

use crate::json::Json;
use crate::queue::{PriorityQueue, PushError};
use crate::wire::{
    error_json, read_line_bounded, serve_conn, write_line, ChaosJob, SubmitSpec, MAX_REQUEST_BYTES,
};
use std::collections::HashMap;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use stsyn_core::job::{JobCheckpoint, JobError, JobMode};
use stsyn_core::SynthesisError;
use stsyn_obs::metrics::{json_pairs, Kind::*, Names, Row, Value, LATENCY_BUCKET_BOUNDS_US};
use stsyn_obs::{HistogramSnapshot, LatencyHistogram, MetricsText, Progress, ProgressBus, Tracer};
use stsyn_store::{Store, StoreStats};
use stsyn_symbolic::Resource;

/// File names inside a job directory.
const SPEC_FILE: &str = "spec.json";
const RESULT_FILE: &str = "result.json";
const CANCEL_MARKER: &str = "cancelled";
const CKPT_DIR: &str = "ckpt";
/// Durable per-attempt ledger (`start`/`done`/`cut`/`crash <msg>` lines).
const ATTEMPTS_FILE: &str = "attempts.log";
/// Marker + metadata written when a job is quarantined.
const QUARANTINE_INFO: &str = "quarantine.json";
/// Sibling of `jobs/` holding quarantined job directories.
const QUARANTINE_DIR: &str = "quarantine";

/// Bounded pool of short-lived threads that answer `busy` to connections
/// beyond `max_conns`; past this, excess sockets are simply dropped.
const MAX_REJECTORS: usize = 8;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads (each runs one synthesis job at a time).
    pub workers: usize,
    /// Bounded queue capacity; submissions beyond it are rejected.
    pub queue_capacity: usize,
    /// Hard cap on concurrent connection-handler threads; connections
    /// beyond it receive a typed `busy` rejection.
    pub max_conns: usize,
    /// Read/write deadline on every accepted socket; a connection idle
    /// or stalled past it is reaped. Zero disables the deadlines.
    pub io_timeout: Duration,
    /// Quarantine a job once this many of its attempts died without a
    /// clean finish (panic or daemon kill mid-run).
    pub quarantine_after: u32,
    /// Persistent state directory (created if missing).
    pub state_dir: PathBuf,
    /// Artifact store directory. `None` (the default) disables the
    /// store entirely: no admission lookups, no publishes. `stsyn serve
    /// --store-dir` turns it on (conventionally `state/store/`).
    pub store_dir: Option<PathBuf>,
    /// Store byte cap for LRU eviction; 0 = unbounded.
    pub store_cap_bytes: u64,
    /// Keep at most this many completed job directories; older completed
    /// jobs are pruned **only once their result is published to the
    /// store** (so nothing observable is ever lost — a resubmission gets
    /// the stored result). `None` disables pruning.
    pub retain_jobs: Option<usize>,
    /// Tracer for daemon diagnostics and per-job spans. Defaults to
    /// NDJSON warnings on stderr; `stsyn serve --trace` swaps in a file
    /// sink at the requested level.
    pub tracer: Tracer,
}

impl ServerConfig {
    /// Loopback defaults with the given state directory.
    pub fn new(state_dir: impl Into<PathBuf>) -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 64,
            max_conns: 64,
            io_timeout: Duration::from_secs(30),
            quarantine_after: 3,
            state_dir: state_dir.into(),
            store_dir: None,
            store_cap_bytes: 0,
            retain_jobs: None,
            tracer: Tracer::to_stderr(stsyn_obs::TraceLevel::Warn),
        }
    }

    /// Enable the artifact store under `state/store/` (the conventional
    /// location) with the given byte cap.
    pub fn with_store(mut self, cap_bytes: u64) -> ServerConfig {
        self.store_dir = Some(self.state_dir.join("store"));
        self.store_cap_bytes = cap_bytes;
        self
    }
}

/// How to stop the daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShutdownMode {
    /// Finish queued and running jobs, then exit.
    Drain,
    /// Checkpoint running jobs and exit; queued jobs wait on disk.
    Checkpoint,
}

/// Service counters (per daemon instance; job *state* is persistent,
/// counters are not). Each field is a row of [`DAEMON_ROWS`] or
/// [`STORE_ROWS`], whose help text says what it counts.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    accepted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    cancelled: AtomicU64,
    resumed: AtomicU64,
    crashed: AtomicU64,
    quarantined: AtomicU64,
    conn_rejected: AtomicU64,
    worker_respawns: AtomicU64,
    dedup_hits: AtomicU64,
    peak_nodes_max: AtomicU64,
    queue_wait_ms_total: AtomicU64,
    run_ms_total: AtomicU64,
    queue_wait_hist: LatencyHistogram,
    run_hist: LatencyHistogram,
    submit_result_hist: LatencyHistogram,
    pruned: AtomicU64,
}

#[derive(Debug, Clone, PartialEq)]
enum JobState {
    Queued,
    Running,
    Done,
    Failed,
    Cancelled,
    /// Cut by a checkpoint shutdown; will resume on the next start.
    Interrupted,
    /// Poison job: crashed its worker too often; parked durably, never
    /// retried.
    Quarantined,
}

impl JobState {
    /// No further state transitions (and no further progress frames).
    fn terminal(&self) -> bool {
        !matches!(self, JobState::Queued | JobState::Running)
    }

    fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
            JobState::Interrupted => "interrupted",
            JobState::Quarantined => "quarantined",
        }
    }
}

struct JobEntry {
    spec: SubmitSpec,
    state: JobState,
    cancel: Arc<AtomicBool>,
    user_cancelled: bool,
    queued_at: Instant,
    queue_ms: Option<u64>,
    run_ms: Option<u64>,
    resumed: bool,
    /// The job's checkpoint dir was seeded from a store warm hit; if the
    /// resume machinery rejects the seed, the job retries cold instead
    /// of failing.
    warm: bool,
    /// Terminal payload (the stored `result.json` value) for Done/Failed.
    result: Option<Json>,
    /// Admission time; unlike `queued_at` it is never reset by retries,
    /// so it anchors the submit→result latency histogram.
    submitted_at: Instant,
    /// Per-job progress ring the tracer tees into and `watch` streams
    /// from; closed when the job reaches a terminal state.
    bus: ProgressBus,
}

impl JobEntry {
    fn new(spec: SubmitSpec) -> JobEntry {
        JobEntry {
            spec,
            state: JobState::Queued,
            cancel: Arc::new(AtomicBool::new(false)),
            user_cancelled: false,
            queued_at: Instant::now(),
            queue_ms: None,
            run_ms: None,
            resumed: false,
            warm: false,
            result: None,
            submitted_at: Instant::now(),
            bus: ProgressBus::default(),
        }
    }

    /// Force a state (used when registering already-terminal entries —
    /// recovery and store hits); terminal states close the progress bus
    /// so a `watch` ends immediately instead of waiting for frames.
    fn with_state(mut self, state: JobState) -> JobEntry {
        if state.terminal() {
            self.bus.close();
        }
        self.state = state;
        self
    }
}

struct Shared {
    cfg: ServerConfig,
    queue: PriorityQueue<u64>,
    jobs: Mutex<HashMap<u64, JobEntry>>,
    /// Idempotency key -> job id, for dedup of retried submissions.
    idem: Mutex<HashMap<u64, u64>>,
    next_id: AtomicU64,
    counters: Counters,
    busy: AtomicUsize,
    live_workers: AtomicUsize,
    /// Open (admitted) client connections, for the `max_conns` cap.
    conns: AtomicUsize,
    stop: AtomicBool,
    shutdown_cancel: Arc<AtomicBool>,
    started: Instant,
    /// Content-addressed artifact store; `None` when `--store-dir` is
    /// not configured.
    store: Option<Store>,
}

impl Shared {
    fn job_dir(&self, id: u64) -> PathBuf {
        self.cfg.state_dir.join("jobs").join(format!("{id:08}"))
    }

    fn quarantine_dir(&self, id: u64) -> PathBuf {
        self.cfg.state_dir.join(QUARANTINE_DIR).join(format!("{id:08}"))
    }

    fn begin_shutdown(&self, mode: ShutdownMode) {
        self.stop.store(true, Ordering::SeqCst);
        match mode {
            ShutdownMode::Drain => self.queue.close(),
            ShutdownMode::Checkpoint => {
                let _ = self.queue.close_and_clear();
                self.shutdown_cancel.store(true, Ordering::SeqCst);
            }
        }
    }
}

/// Lock the job registry, recovering from a poisoned lock: a panicking
/// worker must not take the whole registry (and thus the daemon) down.
fn lock_jobs(shared: &Shared) -> MutexGuard<'_, HashMap<u64, JobEntry>> {
    shared.jobs.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn lock_idem(shared: &Shared) -> MutexGuard<'_, HashMap<u64, u64>> {
    shared.idem.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A running daemon. Dropping the handle does **not** stop the server;
/// call [`ServerHandle::shutdown`] then [`ServerHandle::join`].
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: JoinHandle<()>,
    supervisor: JoinHandle<()>,
}

impl ServerHandle {
    /// The actually-bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Initiate a shutdown (same path as the wire `shutdown` op).
    pub fn shutdown(&self, mode: ShutdownMode) {
        self.shared.begin_shutdown(mode);
    }

    /// Wait for workers (via their supervisor) and the acceptor to exit.
    pub fn join(self) {
        let _ = self.supervisor.join();
        let _ = self.acceptor.join();
    }
}

/// The job service.
pub struct Server;

impl Server {
    /// Start the daemon: recover persisted jobs, bind the listener, and
    /// spawn the worker pool, its supervisor, and the acceptor.
    pub fn start(cfg: ServerConfig) -> io::Result<ServerHandle> {
        let workers = cfg.workers.max(1);
        let queue_capacity = cfg.queue_capacity.max(1);
        std::fs::create_dir_all(cfg.state_dir.join("jobs"))?;
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        // The store opens (and recovers) before job recovery, so the
        // retention pass below can already trust `contains_result`.
        let store = match &cfg.store_dir {
            Some(dir) => Some(Store::open(dir, cfg.store_cap_bytes).map_err(io::Error::other)?),
            None => None,
        };

        let shared = Arc::new(Shared {
            queue: PriorityQueue::new(queue_capacity),
            jobs: Mutex::new(HashMap::new()),
            idem: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            counters: Counters::default(),
            busy: AtomicUsize::new(0),
            live_workers: AtomicUsize::new(workers),
            conns: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            shutdown_cancel: Arc::new(AtomicBool::new(false)),
            started: Instant::now(),
            store,
            cfg,
        });
        recover_jobs(&shared)?;
        prune_job_dirs(&shared);

        let worker_handles: Vec<JoinHandle<()>> =
            (0..workers).map(|_| spawn_worker(&shared)).collect();
        let supervisor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || supervise_workers(&shared, worker_handles))
        };

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let rejectors = Arc::new(AtomicUsize::new(0));
                loop {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            if shared.conns.load(Ordering::SeqCst) >= shared.cfg.max_conns.max(1) {
                                reject_busy(&shared, stream, &rejectors);
                                continue;
                            }
                            shared.conns.fetch_add(1, Ordering::SeqCst);
                            let shared = Arc::clone(&shared);
                            std::thread::spawn(move || {
                                let _ = handle_conn(&shared, stream);
                                shared.conns.fetch_sub(1, Ordering::SeqCst);
                            });
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            // Keep serving status/result queries while a drain
                            // shutdown lets the workers finish; exit once they
                            // are all gone.
                            if shared.stop.load(Ordering::SeqCst)
                                && shared.live_workers.load(Ordering::SeqCst) == 0
                            {
                                break;
                            }
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Err(_) => break,
                    }
                }
            })
        };

        Ok(ServerHandle { addr, shared, acceptor, supervisor })
    }
}

fn spawn_worker(shared: &Arc<Shared>) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::spawn(move || {
        // Decrement on *any* exit, clean or panicking, so the acceptor's
        // drain condition and the supervisor both see the truth.
        struct LiveGuard(Arc<Shared>);
        impl Drop for LiveGuard {
            fn drop(&mut self) {
                self.0.live_workers.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let _live = LiveGuard(Arc::clone(&shared));
        worker_loop(&shared);
    })
}

/// Reap finished worker threads. Workers exit cleanly only when the
/// queue is closed (shutdown); any earlier exit is a panic that escaped
/// the job fence — respawn a replacement so the pool keeps its size.
fn supervise_workers(shared: &Arc<Shared>, mut handles: Vec<JoinHandle<()>>) {
    loop {
        let mut i = 0;
        while i < handles.len() {
            if handles[i].is_finished() {
                let dead = handles.swap_remove(i);
                let _ = dead.join();
                // Recheck right before respawning: a shutdown that began
                // after the worker died must win.
                if !shared.stop.load(Ordering::SeqCst) {
                    shared.live_workers.fetch_add(1, Ordering::SeqCst);
                    shared.counters.worker_respawns.fetch_add(1, Ordering::Relaxed);
                    shared.cfg.tracer.warn(
                        "serve.worker_respawn",
                        &[("live", Json::from(shared.live_workers.load(Ordering::SeqCst) as u64))],
                    );
                    handles.push(spawn_worker(shared));
                }
            } else {
                i += 1;
            }
        }
        if handles.is_empty() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn scan_job_ids(dir: &Path) -> io::Result<Vec<u64>> {
    let mut ids: Vec<u64> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(id) = entry.file_name().to_str().and_then(|s| s.parse::<u64>().ok()) {
            ids.push(id);
        }
    }
    ids.sort_unstable();
    Ok(ids)
}

fn load_spec(shared: &Shared, dir: &Path, id: u64) -> Option<SubmitSpec> {
    let spec = std::fs::read_to_string(dir.join(SPEC_FILE))
        .ok()
        .and_then(|s| Json::parse(&s).ok())
        .and_then(|v| SubmitSpec::from_json(&v).ok());
    if spec.is_none() {
        shared.cfg.tracer.warn(
            "serve.unreadable_spec",
            &[("job", Json::from(id)), ("message", Json::from("unreadable spec, skipping"))],
        );
    }
    spec
}

/// Record a recovered job's idempotency key so a client retrying across
/// a daemon restart still dedups onto the original id.
fn remember_idem(shared: &Shared, spec: &SubmitSpec, id: u64) {
    if let Some(key) = spec.idem {
        lock_idem(shared).entry(key).or_insert(id);
    }
}

/// Reload the persistent state directory into the registry and queue.
fn recover_jobs(shared: &Shared) -> io::Result<()> {
    let mut max_id = 0;

    // Quarantined jobs: queryable, never re-enqueued.
    let qdir = shared.cfg.state_dir.join(QUARANTINE_DIR);
    if qdir.is_dir() {
        for id in scan_job_ids(&qdir)? {
            max_id = max_id.max(id);
            let dir = qdir.join(format!("{id:08}"));
            let Some(spec) = load_spec(shared, &dir, id) else { continue };
            remember_idem(shared, &spec, id);
            let entry = JobEntry::new(spec).with_state(JobState::Quarantined);
            lock_jobs(shared).insert(id, entry);
        }
    }

    let jobs_dir = shared.cfg.state_dir.join("jobs");
    for id in scan_job_ids(&jobs_dir)? {
        max_id = max_id.max(id);
        let dir = shared.job_dir(id);
        let Some(spec) = load_spec(shared, &dir, id) else { continue };
        remember_idem(shared, &spec, id);
        let mut entry = JobEntry::new(spec);
        if let Ok(text) = std::fs::read_to_string(dir.join(RESULT_FILE)) {
            if let Ok(result) = Json::parse(&text) {
                let state = if result.get("ok").and_then(Json::as_bool).unwrap_or(false) {
                    JobState::Done
                } else {
                    JobState::Failed
                };
                entry.result = Some(result);
                lock_jobs(shared).insert(id, entry.with_state(state));
                continue;
            }
        }
        if dir.join(CANCEL_MARKER).exists() {
            lock_jobs(shared).insert(id, entry.with_state(JobState::Cancelled));
            continue;
        }
        // A quarantine marker whose directory rename failed: treat it as
        // quarantined in place.
        if dir.join(QUARANTINE_INFO).exists() {
            lock_jobs(shared).insert(id, entry.with_state(JobState::Quarantined));
            continue;
        }
        // Queued or in flight when the previous daemon died: re-enqueue.
        // A checkpoint journal means the run had started — it will resume
        // from its committed prefix. The attempts ledger keeps counting
        // across restarts, so a job that keeps killing daemons reaches
        // quarantine instead of looping forever (checked at claim time).
        entry.resumed = dir.join(CKPT_DIR).join("journal.bin").exists();
        if entry.resumed {
            shared.counters.resumed.fetch_add(1, Ordering::Relaxed);
        }
        let priority = entry.spec.priority;
        lock_jobs(shared).insert(id, entry);
        let _ = shared.queue.push_recovered(priority, id);
    }
    shared.next_id.store(max_id + 1, Ordering::SeqCst);
    Ok(())
}

/// Atomically persist a JSON document (temp file + rename + fsync).
fn write_json_atomic(path: &Path, value: &Json) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(value.to_string().as_bytes())?;
        f.write_all(b"\n")?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// Append one fsync'd line to the job's attempt ledger.
fn append_attempt(dir: &Path, line: &str) -> io::Result<()> {
    let mut f =
        std::fs::OpenOptions::new().create(true).append(true).open(dir.join(ATTEMPTS_FILE))?;
    f.write_all(line.as_bytes())?;
    f.write_all(b"\n")?;
    f.sync_all()
}

/// Attempts that died without a clean finish: `start` lines minus
/// `done`/`cut` lines. A panic leaves its start unmatched (the `crash`
/// line is diagnostic only), and so does a SIGKILL mid-run — which is
/// exactly the set of attempts that should count toward quarantine.
fn suspect_attempts(dir: &Path) -> u32 {
    let Ok(text) = std::fs::read_to_string(dir.join(ATTEMPTS_FILE)) else { return 0 };
    let mut open: i64 = 0;
    for line in text.lines() {
        match line.split_whitespace().next() {
            Some("start") => open += 1,
            Some("done" | "cut") => open -= 1,
            _ => {}
        }
    }
    open.max(0) as u32
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(id) = shared.queue.pop() {
        run_claimed(shared, id);
    }
}

/// Decrements `busy` when the attempt ends; while armed, also converts a
/// panic unwinding through the worker thread into a recorded crash, so
/// even a job that kills its worker (panic outside the fence) is retried
/// or quarantined rather than silently stuck in `running`.
struct JobGuard {
    shared: Arc<Shared>,
    id: u64,
    armed: bool,
}

impl Drop for JobGuard {
    fn drop(&mut self) {
        self.shared.busy.fetch_sub(1, Ordering::SeqCst);
        if self.armed {
            handle_crash(&self.shared, self.id, "worker thread died mid-job");
        }
    }
}

/// Run one popped job id through claim, poison check, fenced execution
/// and crash accounting.
fn run_claimed(shared: &Arc<Shared>, id: u64) {
    // Claim the job; a cancel that won the race leaves it non-Queued.
    let claimed = {
        let mut jobs = lock_jobs(shared);
        match jobs.get_mut(&id) {
            Some(e) if e.state == JobState::Queued => {
                e.state = JobState::Running;
                let queue_us = e.queued_at.elapsed().as_micros() as u64;
                let queue_ms = queue_us / 1000;
                e.queue_ms = Some(queue_ms);
                Some((
                    e.spec.clone(),
                    Arc::clone(&e.cancel),
                    e.resumed,
                    e.warm,
                    queue_ms,
                    queue_us,
                    e.bus.clone(),
                ))
            }
            _ => None,
        }
    };
    let Some((spec, cancel, resumed, warm, queue_ms, queue_us, bus)) = claimed else { return };
    bus.publish_event("job.state", &[("id", Json::from(id)), ("state", Json::from("running"))]);

    // Poison check before burning another attempt on it.
    let dir = shared.job_dir(id);
    let suspect = suspect_attempts(&dir);
    if suspect >= shared.cfg.quarantine_after.max(1) {
        quarantine_job(shared, id, suspect);
        return;
    }
    let _ = append_attempt(&dir, "start");

    shared.counters.queue_wait_ms_total.fetch_add(queue_ms, Ordering::Relaxed);
    shared.counters.queue_wait_hist.observe_us(queue_us);
    shared.busy.fetch_add(1, Ordering::SeqCst);
    let mut guard = JobGuard { shared: Arc::clone(shared), id, armed: true };
    if spec.chaos_job() == Some(ChaosJob::LoseWorker) {
        // Deliberately outside the fence: kills this worker thread, so
        // the crash path *and* the supervisor respawn path both fire.
        panic!("chaos: __lose_worker__ kills its worker thread");
    }
    let span = shared
        .cfg
        .tracer
        .span_with("serve.job", &[("id", Json::from(id)), ("queue_ms", Json::from(queue_ms))]);
    let started = Instant::now();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        execute_job(shared, id, &spec, &cancel, &bus)
    }));
    let run_us = started.elapsed().as_micros() as u64;
    let run_ms = run_us / 1000;
    span.close();
    shared.counters.run_ms_total.fetch_add(run_ms, Ordering::Relaxed);
    shared.counters.run_hist.observe_us(run_us);
    guard.armed = false;
    drop(guard);
    match outcome {
        // A warm-seeded checkpoint the resume machinery rejected (which
        // a matching warm fingerprint should make impossible — this is
        // the safety net): wipe the seed and retry the job cold rather
        // than failing it. The store must never make a job worse.
        Ok(JobOutcome::Failed { code: "checkpoint-error", message }) if warm => {
            let _ = append_attempt(&dir, "done");
            shared.cfg.tracer.warn(
                "store.seed_rejected",
                &[("job", Json::from(id)), ("message", Json::from(message.as_str()))],
            );
            let _ = std::fs::remove_dir_all(dir.join(CKPT_DIR));
            let priority = {
                let mut jobs = lock_jobs(shared);
                match jobs.get_mut(&id) {
                    Some(e) => {
                        e.state = JobState::Queued;
                        e.queued_at = Instant::now();
                        e.warm = false;
                        e.resumed = false;
                        Some(e.spec.priority)
                    }
                    None => None,
                }
            };
            if let Some(priority) = priority {
                if shared.queue.push_recovered(priority, id).is_err() {
                    record_finish(
                        shared,
                        id,
                        resumed,
                        run_ms,
                        JobOutcome::Failed { code: "checkpoint-error", message },
                    );
                }
            }
        }
        Ok(outcome) => record_finish(shared, id, resumed, run_ms, outcome),
        Err(payload) => handle_crash(shared, id, &panic_message(payload.as_ref())),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Record one crashed attempt; retry the job unless it just hit the
/// quarantine threshold.
fn handle_crash(shared: &Shared, id: u64, message: &str) {
    shared.counters.crashed.fetch_add(1, Ordering::Relaxed);
    let dir = shared.job_dir(id);
    let one_line = message.replace('\n', " ");
    let _ = append_attempt(&dir, &format!("crash {one_line}"));
    shared.cfg.tracer.warn(
        "serve.job_crashed",
        &[("job", Json::from(id)), ("message", Json::from(one_line.as_str()))],
    );
    let suspect = suspect_attempts(&dir);
    if suspect >= shared.cfg.quarantine_after.max(1) {
        quarantine_job(shared, id, suspect);
        return;
    }
    // Below the threshold: requeue for another attempt (resuming from
    // the checkpoint journal when one exists).
    let priority = {
        let mut jobs = lock_jobs(shared);
        match jobs.get_mut(&id) {
            Some(e) => {
                e.state = JobState::Queued;
                e.queued_at = Instant::now();
                e.resumed = dir.join(CKPT_DIR).join("journal.bin").exists();
                e.bus.publish_event(
                    "job.state",
                    &[
                        ("id", Json::from(id)),
                        ("state", Json::from("queued")),
                        ("retry", Json::from(true)),
                    ],
                );
                Some(e.spec.priority)
            }
            None => None,
        }
    };
    let Some(priority) = priority else { return };
    if shared.queue.push_recovered(priority, id).is_err() {
        // Queue already closed. A checkpoint shutdown parks the job for
        // the next daemon; a drain must settle it now.
        if shared.shutdown_cancel.load(Ordering::SeqCst) {
            if let Some(e) = lock_jobs(shared).get_mut(&id) {
                e.state = JobState::Interrupted;
            }
        } else {
            record_finish(shared, id, false, 0, JobOutcome::Crashed { message: one_line });
        }
    }
}

/// Park a poison job durably: metadata marker, directory move to
/// `state/quarantine/<id>/`, registry state, counter, trace event.
fn quarantine_job(shared: &Shared, id: u64, crashes: u32) {
    let dir = shared.job_dir(id);
    let info = Json::obj(vec![
        ("id", id.into()),
        ("suspect_attempts", u64::from(crashes).into()),
        ("reason", "crashed or killed its worker too many times".into()),
    ]);
    // The marker alone already quarantines the job (recovery honours it
    // in place), so a failed rename cannot un-poison anything.
    let _ = write_json_atomic(&dir.join(QUARANTINE_INFO), &info);
    let qdir = shared.quarantine_dir(id);
    if let Some(parent) = qdir.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    let _ = std::fs::rename(&dir, &qdir);
    if let Some(e) = lock_jobs(shared).get_mut(&id) {
        e.state = JobState::Quarantined;
        e.bus.publish_event(
            "job.state",
            &[("id", Json::from(id)), ("state", Json::from("quarantined"))],
        );
        e.bus.close();
    }
    shared.counters.quarantined.fetch_add(1, Ordering::Relaxed);
    shared.cfg.tracer.warn(
        "serve.job_quarantined",
        &[("job", Json::from(id)), ("suspect_attempts", Json::from(u64::from(crashes)))],
    );
}

enum JobOutcome {
    Done {
        result: Json,
        peak_nodes: u64,
    },
    Failed {
        code: &'static str,
        message: String,
    },
    /// The job panicked; recorded so retry/quarantine accounting and the
    /// stored result stay typed.
    Crashed {
        message: String,
    },
    CancelledByUser,
    CutByShutdown,
}

/// Run one job under its budget and checkpoint directory.
fn execute_job(
    shared: &Shared,
    id: u64,
    spec: &SubmitSpec,
    cancel: &Arc<AtomicBool>,
    bus: &ProgressBus,
) -> JobOutcome {
    if spec.chaos_job() == Some(ChaosJob::Crash) {
        // Inside the catch_unwind fence: exercises crash recording,
        // retry and quarantine without losing the worker thread.
        panic!("chaos: __crash__ panics inside the job fence");
    }
    let mut job = match spec.materialize() {
        Ok(j) => j,
        Err(m) => return JobOutcome::Failed { code: "input-error", message: m },
    };
    // Cancellation is always armed: the per-job flag (live `cancel` op)
    // and the server-wide checkpoint-shutdown flag.
    //
    // The tracer is derived per attempt so this job's progress-relevant
    // records (phase spans, rank.layer, heuristic steps) also land on
    // its own bus for `watch` subscribers, while the daemon-wide sink
    // keeps seeing exactly what it saw before.
    job.tracer = shared.cfg.tracer.with_progress(bus.clone());
    job.budget = Some(
        job.budget
            .take()
            .unwrap_or_default()
            .with_cancel(Arc::clone(cancel))
            .with_cancel(Arc::clone(&shared.shutdown_cancel)),
    );
    if job.mode == JobMode::Strong {
        let ckpt = shared.job_dir(id).join(CKPT_DIR);
        if std::fs::create_dir_all(&ckpt).is_err() {
            return JobOutcome::Failed {
                code: "io-error",
                message: format!("cannot create checkpoint dir {}", ckpt.display()),
            };
        }
        job.checkpoint = Some(JobCheckpoint::auto(ckpt));
    }
    match job.run() {
        Ok(report) => {
            let s = &report.outcome.stats;
            let result = Json::obj(vec![
                ("ok", true.into()),
                ("state", "done".into()),
                ("id", id.into()),
                ("name", report.name.as_str().into()),
                ("weak", report.weak.into()),
                ("verified", report.verified.into()),
                ("schedule", report.outcome.schedule.to_string().as_str().into()),
                ("recovery", report.outcome.describe_recovery().as_str().into()),
                ("protocol", report.emitted_dsl.as_str().into()),
                ("stats", Json::obj(s.record())),
            ]);
            JobOutcome::Done { result, peak_nodes: s.peak_live_nodes as u64 }
        }
        Err(JobError::Synthesis(SynthesisError::ResourceExhausted { cause, .. }))
            if cause.resource() == Resource::Cancelled =>
        {
            if cancel.load(Ordering::SeqCst) {
                JobOutcome::CancelledByUser
            } else {
                JobOutcome::CutByShutdown
            }
        }
        Err(JobError::Synthesis(e @ SynthesisError::ResourceExhausted { .. })) => {
            JobOutcome::Failed { code: "budget-exhausted", message: e.to_string() }
        }
        Err(JobError::Synthesis(SynthesisError::Checkpoint(e))) => {
            JobOutcome::Failed { code: "checkpoint-error", message: e.to_string() }
        }
        Err(JobError::Synthesis(e)) => {
            JobOutcome::Failed { code: "synthesis-failed", message: e.to_string() }
        }
        Err(JobError::Input(m)) => JobOutcome::Failed { code: "input-error", message: m },
        Err(JobError::Spec(m)) => JobOutcome::Failed { code: "bad-spec", message: m },
    }
}

fn record_finish(shared: &Shared, id: u64, resumed: bool, run_ms: u64, finished: JobOutcome) {
    let dir = shared.job_dir(id);
    // Close this attempt in the ledger: `cut` keeps a checkpoint-cut run
    // out of the suspect count without marking it clean-finished.
    let closing = if matches!(finished, JobOutcome::CutByShutdown) { "cut" } else { "done" };
    let _ = append_attempt(&dir, closing);
    let spec = lock_jobs(shared).get(&id).map(|e| e.spec.clone());
    let (state, result) = match finished {
        JobOutcome::Done { mut result, peak_nodes } => {
            if let Json::Obj(pairs) = &mut result {
                pairs.push(("run_ms".into(), run_ms.into()));
                pairs.push(("resumed".into(), resumed.into()));
            }
            let _ = write_json_atomic(&dir.join(RESULT_FILE), &result);
            shared.counters.completed.fetch_add(1, Ordering::Relaxed);
            shared.counters.peak_nodes_max.fetch_max(peak_nodes, Ordering::Relaxed);
            if let Some(spec) = &spec {
                publish_to_store(shared, spec, &dir, Some(&result));
            }
            (JobState::Done, Some(result))
        }
        JobOutcome::Failed { code, message } => {
            let result = failed_result(id, code, &message, run_ms);
            let _ = write_json_atomic(&dir.join(RESULT_FILE), &result);
            shared.counters.failed.fetch_add(1, Ordering::Relaxed);
            // A budget-exhausted run still committed a correct checkpoint
            // prefix — publish it (without a result) so a resubmission
            // with a bigger budget warm-starts from where this one ran
            // out instead of from scratch.
            if code == "budget-exhausted" {
                if let Some(spec) = &spec {
                    publish_to_store(shared, spec, &dir, None);
                }
            }
            (JobState::Failed, Some(result))
        }
        JobOutcome::Crashed { message } => {
            let result = failed_result(id, "crashed", &message, run_ms);
            let _ = write_json_atomic(&dir.join(RESULT_FILE), &result);
            shared.counters.failed.fetch_add(1, Ordering::Relaxed);
            (JobState::Failed, Some(result))
        }
        JobOutcome::CancelledByUser => {
            let _ = std::fs::write(dir.join(CANCEL_MARKER), b"cancelled by client\n");
            shared.counters.cancelled.fetch_add(1, Ordering::Relaxed);
            (JobState::Cancelled, None)
        }
        // Leave spec + checkpoint untouched: the next daemon resumes it.
        JobOutcome::CutByShutdown => (JobState::Interrupted, None),
    };
    let bus = {
        let mut jobs = lock_jobs(shared);
        match jobs.get_mut(&id) {
            Some(e) => {
                e.state = state.clone();
                e.run_ms = Some(run_ms);
                e.result = result;
                shared
                    .counters
                    .submit_result_hist
                    .observe_us(e.submitted_at.elapsed().as_micros() as u64);
                Some(e.bus.clone())
            }
            None => None,
        }
    };
    // Retention GC runs *before* the terminal frame: a `wait` riding the
    // watch stream wakes the instant the bus closes, so all observable
    // post-completion bookkeeping must already be done by then.
    prune_job_dirs(shared);
    // Terminal frame + close *after* the registry shows the terminal
    // state, so a watcher woken by the close reads a consistent status.
    if let Some(bus) = bus {
        bus.publish_event(
            "job.state",
            &[("id", Json::from(id)), ("state", Json::from(state.name()))],
        );
        bus.close();
    }
}

/// Publish a finished job's artifacts: its terminal result (when it
/// completed) and, for strong jobs, the checkpoint prefix it committed.
/// Quarantined, crashed, cancelled and chaos jobs never reach here.
fn publish_to_store(shared: &Shared, spec: &SubmitSpec, dir: &Path, result: Option<&Json>) {
    let Some(store) = &shared.store else { return };
    if spec.chaos_job().is_some() {
        return;
    }
    let ckpt = dir.join(CKPT_DIR);
    let ckpt_dir = ckpt.is_dir().then_some(ckpt.as_path());
    let result_text = result.map(Json::to_string);
    match store.publish(
        spec.fingerprint(),
        spec.warm_fingerprint(),
        result_text.as_deref(),
        ckpt_dir,
    ) {
        Ok(rep) => {
            if rep.evicted > 0 {
                shared.cfg.tracer.counter("store.evict", rep.evicted);
                shared.cfg.tracer.debug(
                    "store.evict",
                    &[
                        ("evicted", Json::from(rep.evicted)),
                        ("freed_bytes", Json::from(rep.freed_bytes)),
                    ],
                );
            }
        }
        Err(e) => {
            shared
                .cfg
                .tracer
                .warn("store.publish_failed", &[("message", Json::from(e.to_string()))]);
        }
    }
}

/// Retention GC: keep the newest `retain_jobs` completed job
/// directories; prune older ones **only** when their result is
/// published to the store (nothing observable is lost — resubmitting
/// the same content gets the stored result). The persisted idempotency
/// map self-prunes with them: it is rebuilt from surviving `spec.json`
/// files at startup, and the in-memory entries are dropped here.
fn prune_job_dirs(shared: &Shared) {
    let Some(keep) = shared.cfg.retain_jobs else { return };
    let Some(store) = &shared.store else { return };
    // Collect candidates without holding the registry lock across any
    // I/O (and never hold `jobs` and `idem` together: admission takes
    // them in the other order).
    let mut done: Vec<(u64, u64, Option<u64>)> = lock_jobs(shared)
        .iter()
        .filter(|(_, e)| e.state == JobState::Done)
        .map(|(id, e)| (*id, e.spec.fingerprint(), e.spec.idem))
        .collect();
    done.sort_unstable_by_key(|e| std::cmp::Reverse(e.0)); // newest (largest id) first
    let mut pruned: Vec<(u64, Option<u64>)> = Vec::new();
    for &(id, fingerprint, idem) in done.iter().skip(keep) {
        if !store.contains_result(fingerprint) {
            continue;
        }
        if std::fs::remove_dir_all(shared.job_dir(id)).is_ok() {
            pruned.push((id, idem));
        }
    }
    if pruned.is_empty() {
        return;
    }
    {
        let mut idem_map = lock_idem(shared);
        idem_map.retain(|_, mapped| !pruned.iter().any(|&(id, _)| *mapped == id));
    }
    let mut jobs = lock_jobs(shared);
    for &(id, _) in &pruned {
        jobs.remove(&id);
    }
    drop(jobs);
    shared.counters.pruned.fetch_add(pruned.len() as u64, Ordering::Relaxed);
    shared.cfg.tracer.debug("serve.jobs_pruned", &[("count", Json::from(pruned.len() as u64))]);
}

fn failed_result(id: u64, code: &str, message: &str, run_ms: u64) -> Json {
    Json::obj(vec![
        ("ok", false.into()),
        ("state", "failed".into()),
        ("id", id.into()),
        ("code", code.into()),
        ("error", message.into()),
        ("run_ms", run_ms.into()),
    ])
}

/// Reject one over-cap connection with a typed `busy` line, from a
/// bounded pool of short-lived threads (beyond the pool, just drop).
fn reject_busy(shared: &Arc<Shared>, stream: TcpStream, rejectors: &Arc<AtomicUsize>) {
    shared.counters.conn_rejected.fetch_add(1, Ordering::Relaxed);
    shared.cfg.tracer.warn(
        "serve.conn_rejected",
        &[("max_conns", Json::from(shared.cfg.max_conns.max(1) as u64))],
    );
    if rejectors.fetch_add(1, Ordering::SeqCst) >= MAX_REJECTORS {
        rejectors.fetch_sub(1, Ordering::SeqCst);
        return;
    }
    let limit = shared.cfg.max_conns.max(1);
    let rejectors = Arc::clone(rejectors);
    std::thread::spawn(move || {
        let _ = busy_response(stream, limit);
        rejectors.fetch_sub(1, Ordering::SeqCst);
    });
}

/// Read one request line first — so the client's send completes and our
/// answer is not destroyed by a TCP reset on unread data — then answer
/// `busy` and close.
fn busy_response(stream: TcpStream, max_conns: usize) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(1)))?;
    stream.set_write_timeout(Some(Duration::from_secs(1)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let _ = read_line_bounded(&mut reader, MAX_REQUEST_BYTES);
    let resp = error_json("busy", &format!("connection limit reached ({max_conns}); retry later"));
    write_line(&mut &stream, &resp.to_string())
}

/// One client connection (see [`serve_conn`]); `watch` streams through
/// [`op_watch_stream`].
fn handle_conn(shared: &Shared, stream: TcpStream) -> io::Result<()> {
    serve_conn(
        stream,
        shared.cfg.io_timeout,
        |req, writer| op_watch_stream(shared, req, writer),
        |req| dispatch(shared, req),
    )
}

/// Interval between `watch` heartbeat frames: half the socket deadline,
/// so a healthy-but-quiet watch (job queued behind others, long fixpoint
/// between rank layers) is never reaped by `--io-timeout`.
fn heartbeat_interval(io_timeout: Duration) -> Duration {
    if io_timeout.is_zero() {
        Duration::from_secs(1)
    } else {
        (io_timeout / 2).max(Duration::from_millis(10))
    }
}

/// `watch` op: stream a job's progress frames over the connection.
///
/// Frames (one JSON object per line):
/// - `{"frame":"progress","seq":N,"event":{..trace record..}}`
/// - `{"frame":"gap","missed":N}` — the ring dropped frames (slow reader
///   or late subscribe past the replay window)
/// - `{"frame":"heartbeat","state":S}` — liveness while nothing happens
/// - `{"frame":"status",..full status..}` — terminal; always last
///
/// Returns `Ok(None)` after streaming through the terminal frame, or
/// `Ok(Some(resp))` when setup failed and one error line should be sent
/// instead. An `Err` is a dead connection (the job is unaffected).
fn op_watch_stream(
    shared: &Shared,
    req: &Json,
    writer: &mut TcpStream,
) -> io::Result<Option<Json>> {
    let id = match req_id(req) {
        Ok(id) => id,
        Err(e) => return Ok(Some(e)),
    };
    let from_seq = req.get("from_seq").and_then(Json::as_u64);
    let mut rx = {
        let jobs = lock_jobs(shared);
        match jobs.get(&id) {
            None => return Ok(Some(error_json("unknown-job", &format!("no job {id}")))),
            Some(e) => e.bus.subscribe(from_seq),
        }
    };
    let heartbeat = heartbeat_interval(shared.cfg.io_timeout);
    loop {
        match rx.next(heartbeat) {
            Progress::Event { seq, line } => {
                write_line(
                    writer,
                    &format!("{{\"frame\":\"progress\",\"seq\":{seq},\"event\":{line}}}"),
                )?;
            }
            Progress::Gap { missed } => {
                write_line(writer, &format!("{{\"frame\":\"gap\",\"missed\":{missed}}}"))?;
            }
            Progress::Idle => {
                // Robustness: if some path made the job terminal without
                // closing its bus, end the stream rather than heartbeat
                // forever. A pruned job also ends here.
                let state = lock_jobs(shared).get(&id).map(|e| e.state.clone());
                match state {
                    Some(s) if !s.terminal() => {
                        let frame = Json::obj(vec![
                            ("frame", "heartbeat".into()),
                            ("state", s.name().into()),
                        ]);
                        write_line(writer, &frame.to_string())?;
                    }
                    _ => break,
                }
            }
            Progress::Closed => break,
        }
    }
    // Terminal status frame: same shape as `status`, tagged as a frame.
    let mut status = op_status(shared, req);
    if let Json::Obj(pairs) = &mut status {
        pairs.insert(0, ("frame".to_string(), "status".into()));
    }
    write_line(writer, &status.to_string())?;
    Ok(None)
}

fn dispatch(shared: &Shared, req: &Json) -> Json {
    match req.get("op").and_then(Json::as_str) {
        Some("submit") => op_submit(shared, req),
        Some("status") => op_status(shared, req),
        Some("result") => op_result(shared, req),
        Some("cancel") => op_cancel(shared, req),
        Some("ping") => op_ping(shared),
        Some("stats") => op_stats(shared),
        Some("metrics") => op_metrics(shared),
        Some("store-stats") => op_store_stats(shared),
        Some("store-gc") => op_store_gc(shared, req),
        Some("shutdown") => op_shutdown(shared, req),
        Some(other) => error_json("bad-request", &format!("unknown op `{other}`")),
        None => error_json("bad-request", "request needs a string `op` field"),
    }
}

/// `ping` op: a minimal liveness probe. It touches no locks and no disk,
/// so a healthy-but-busy daemon still answers it instantly — which is
/// what makes it a usable health signal for a router's prober (probe
/// latency measures the daemon's event loop, not a contended registry).
fn op_ping(shared: &Shared) -> Json {
    Json::obj(vec![
        ("ok", true.into()),
        ("pong", true.into()),
        ("workers", shared.cfg.workers.max(1).into()),
        ("uptime_secs", shared.started.elapsed().as_secs_f64().into()),
    ])
}

fn op_submit(shared: &Shared, req: &Json) -> Json {
    if shared.stop.load(Ordering::SeqCst) {
        return error_json("shutting-down", "daemon is shutting down");
    }
    let Some(job_field) = req.get("job") else {
        return error_json("bad-request", "submit needs a `job` object");
    };
    let spec = match SubmitSpec::from_json(job_field) {
        Ok(s) => s,
        Err(m) => return error_json("bad-request", &m),
    };
    // Validate the workload up front so a client learns about a bad
    // protocol now, not from a failed job later.
    if let Err(m) = spec.materialize() {
        return error_json("input-error", &m);
    }
    match spec.idem {
        // Hold the idempotency lock across the whole admission so two
        // racing resubmissions of one key cannot both enqueue.
        Some(key) => {
            let mut idem = lock_idem(shared);
            if let Some(&existing) = idem.get(&key) {
                shared.counters.dedup_hits.fetch_add(1, Ordering::Relaxed);
                return Json::obj(vec![
                    ("ok", true.into()),
                    ("id", existing.into()),
                    ("dedup", true.into()),
                ]);
            }
            let resp = admit_job(shared, spec);
            if resp.get("ok").and_then(Json::as_bool) == Some(true) {
                if let Some(id) = resp.get("id").and_then(Json::as_u64) {
                    idem.insert(key, id);
                }
            }
            resp
        }
        None => admit_job(shared, spec),
    }
}

/// Persist, register and enqueue an already-validated submission — or
/// answer it straight from the artifact store when the exact content
/// key has a published result.
fn admit_job(shared: &Shared, spec: SubmitSpec) -> Json {
    if let Some(resp) = store_exact_hit(shared, &spec) {
        return resp;
    }
    let id = shared.next_id.fetch_add(1, Ordering::SeqCst);
    let dir = shared.job_dir(id);
    let persisted = std::fs::create_dir_all(&dir)
        .and_then(|()| write_json_atomic(&dir.join(SPEC_FILE), &spec.to_json()));
    if let Err(e) = persisted {
        let _ = std::fs::remove_dir_all(&dir);
        return error_json("io-error", &format!("cannot persist job: {e}"));
    }
    let warm = seed_warm_start(shared, &spec, &dir);
    let priority = spec.priority;
    let mut entry = JobEntry::new(spec);
    entry.warm = warm;
    let bus = entry.bus.clone();
    lock_jobs(shared).insert(id, entry);
    match shared.queue.push(priority, id) {
        Ok(()) => {
            shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
            bus.publish_event(
                "job.state",
                &[
                    ("id", Json::from(id)),
                    ("state", Json::from("queued")),
                    ("warm", Json::from(warm)),
                ],
            );
            Json::obj(vec![("ok", true.into()), ("id", id.into())])
        }
        Err(kind) => {
            lock_jobs(shared).remove(&id);
            let _ = std::fs::remove_dir_all(&dir);
            match kind {
                PushError::Full => {
                    shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
                    error_json(
                        "queue-full",
                        &format!(
                            "queue is at capacity ({}); retry later",
                            shared.cfg.queue_capacity
                        ),
                    )
                }
                PushError::Closed => error_json("shutting-down", "daemon is shutting down"),
            }
        }
    }
}

/// Answer a submission from the store when its exact content key has a
/// published (CRC-verified) result: the job is registered terminal
/// under a fresh id — persisted like any finished job, so `status`,
/// `result` and restart recovery all see it — without ever queueing.
/// Any store trouble (miss, corruption, I/O) falls through to a normal
/// admission; the store can make a submit cheaper, never break it.
fn store_exact_hit(shared: &Shared, spec: &SubmitSpec) -> Option<Json> {
    let store = shared.store.as_ref()?;
    if spec.chaos_job().is_some() {
        return None;
    }
    let key = spec.fingerprint();
    let text = match store.lookup_result(key) {
        Ok(Some(text)) => text,
        Ok(None) => return None,
        Err(e) => {
            // Typed corruption: the store already evicted the entry.
            shared.cfg.tracer.warn("store.corrupt", &[("message", Json::from(e.to_string()))]);
            return None;
        }
    };
    let Ok(mut result) = Json::parse(&text) else {
        // CRC-verified bytes that fail to parse should be impossible;
        // run the job rather than trust them.
        return None;
    };
    let id = shared.next_id.fetch_add(1, Ordering::SeqCst);
    if let Json::Obj(pairs) = &mut result {
        for (k, v) in pairs.iter_mut() {
            if k == "id" {
                *v = id.into();
            }
        }
        pairs.push(("store".into(), "hit".into()));
    }
    let dir = shared.job_dir(id);
    let persisted = std::fs::create_dir_all(&dir)
        .and_then(|()| write_json_atomic(&dir.join(SPEC_FILE), &spec.to_json()))
        .and_then(|()| write_json_atomic(&dir.join(RESULT_FILE), &result));
    if persisted.is_err() {
        let _ = std::fs::remove_dir_all(&dir);
        return None;
    }
    let mut entry = JobEntry::new(spec.clone());
    entry.queue_ms = Some(0);
    entry.run_ms = Some(0);
    entry.result = Some(result);
    let elapsed_us = entry.submitted_at.elapsed().as_micros() as u64;
    lock_jobs(shared).insert(id, entry.with_state(JobState::Done));
    shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
    shared.counters.completed.fetch_add(1, Ordering::Relaxed);
    // A store hit is still a completed submission: it lands in the
    // submit→result distribution as the near-zero latency it really had.
    shared.counters.submit_result_hist.observe_us(elapsed_us);
    shared.cfg.tracer.counter("store.hit", 1);
    shared.cfg.tracer.debug("store.hit", &[("id", Json::from(id)), ("key", Json::from(key))]);
    Some(Json::obj(vec![("ok", true.into()), ("id", id.into()), ("store", "hit".into())]))
}

/// Seed a freshly admitted strong job's checkpoint directory from the
/// store's best budget-free ("warm") match, so `synthesize_resumable`
/// replays the prior run's committed prefix instead of recomputing it.
/// Returns whether the job runs warm-seeded.
fn seed_warm_start(shared: &Shared, spec: &SubmitSpec, dir: &Path) -> bool {
    let Some(store) = &shared.store else { return false };
    // Weak jobs never checkpoint; chaos markers never synthesize.
    if spec.weak || spec.chaos_job().is_some() {
        return false;
    }
    let ckpt = dir.join(CKPT_DIR);
    match store.seed_checkpoint(spec.warm_fingerprint(), &ckpt) {
        Ok(Some(seed)) => {
            shared.cfg.tracer.counter("store.partial_hit", 1);
            shared.cfg.tracer.debug(
                "store.partial_hit",
                &[
                    ("source_key", Json::from(seed.source_key)),
                    ("ranks", Json::from(u64::from(seed.ranks))),
                ],
            );
            true
        }
        Ok(None) => {
            shared.cfg.tracer.counter("store.miss", 1);
            false
        }
        Err(e) => {
            shared.cfg.tracer.warn("store.corrupt", &[("message", Json::from(e.to_string()))]);
            let _ = std::fs::remove_dir_all(&ckpt);
            false
        }
    }
}

fn req_id(req: &Json) -> Result<u64, Json> {
    req.get("id")
        .and_then(Json::as_u64)
        .ok_or_else(|| error_json("bad-request", "request needs an integer `id`"))
}

fn op_status(shared: &Shared, req: &Json) -> Json {
    let id = match req_id(req) {
        Ok(id) => id,
        Err(e) => return e,
    };
    let jobs = lock_jobs(shared);
    match jobs.get(&id) {
        None => error_json("unknown-job", &format!("no job {id}")),
        Some(e) => {
            let mut pairs: Vec<(&str, Json)> = vec![
                ("ok", true.into()),
                ("id", id.into()),
                ("state", e.state.name().into()),
                ("resumed", e.resumed.into()),
            ];
            if let Some(q) = e.queue_ms {
                pairs.push(("queue_ms", q.into()));
            }
            if let Some(r) = e.run_ms {
                pairs.push(("run_ms", r.into()));
            }
            Json::obj(pairs)
        }
    }
}

fn op_result(shared: &Shared, req: &Json) -> Json {
    let id = match req_id(req) {
        Ok(id) => id,
        Err(e) => return e,
    };
    let jobs = lock_jobs(shared);
    match jobs.get(&id) {
        None => error_json("unknown-job", &format!("no job {id}")),
        Some(e) => match (&e.state, &e.result) {
            (JobState::Done | JobState::Failed, Some(r)) => r.clone(),
            (JobState::Cancelled, _) => error_json("cancelled", "job was cancelled"),
            (JobState::Quarantined, _) => error_json(
                "quarantined",
                "job crashed its worker too many times and was quarantined",
            ),
            (JobState::Interrupted, _) => {
                error_json("interrupted", "job was checkpointed by a shutdown; resubmit-free resume happens on the next daemon start")
            }
            (state, _) => {
                let mut resp = error_json("not-finished", "job has not finished");
                if let Json::Obj(pairs) = &mut resp {
                    pairs.push(("state".into(), state.name().into()));
                }
                resp
            }
        },
    }
}

fn op_cancel(shared: &Shared, req: &Json) -> Json {
    let id = match req_id(req) {
        Ok(id) => id,
        Err(e) => return e,
    };
    let mut jobs = lock_jobs(shared);
    match jobs.get_mut(&id) {
        None => error_json("unknown-job", &format!("no job {id}")),
        Some(e) => {
            match e.state {
                JobState::Queued => {
                    // Never ran: mark terminal directly; the worker skips
                    // non-Queued ids it pops.
                    e.state = JobState::Cancelled;
                    e.user_cancelled = true;
                    let _ = std::fs::write(
                        shared.job_dir(id).join(CANCEL_MARKER),
                        b"cancelled by client (queued)\n",
                    );
                    shared.counters.cancelled.fetch_add(1, Ordering::Relaxed);
                    e.bus.publish_event(
                        "job.state",
                        &[("id", Json::from(id)), ("state", Json::from("cancelled"))],
                    );
                    e.bus.close();
                }
                JobState::Running => {
                    // Cooperative: the job's budget polls this flag and
                    // aborts within one tick-check interval.
                    e.user_cancelled = true;
                    e.cancel.store(true, Ordering::SeqCst);
                }
                _ => {} // already terminal: no-op
            }
            Json::obj(vec![
                ("ok", true.into()),
                ("id", id.into()),
                ("state", e.state.name().into()),
            ])
        }
    }
}

/// Jobs currently parked in quarantine (registry scan).
fn quarantined_now(shared: &Shared) -> usize {
    lock_jobs(shared).values().filter(|e| e.state == JobState::Quarantined).count()
}

/// A counter's reading, for a table getter.
pub(crate) fn load(counter: &AtomicU64) -> Value {
    counter.load(Ordering::Relaxed).into()
}

/// Busy workers over pool size.
fn utilization(s: &Shared) -> Value {
    (s.busy.load(Ordering::SeqCst) as f64 / s.cfg.workers.max(1) as f64).into()
}

type DaemonRow = Row<Shared>;
type StoreRow = Row<StoreView>;

/// Every daemon counter, gauge and latency histogram, in `stats` key
/// order: the single source of `stats`, `metrics` and the router's fleet
/// sums. Histogram rows sit in the `latency` object of `stats`.
#[rustfmt::skip]
static DAEMON_ROWS: &[DaemonRow] = &[
    DaemonRow::new(Counter, Some("accepted"), Some("stsyn_jobs_accepted_total"), "Submissions admitted to the queue",
                   |s| load(&s.counters.accepted)).fleet("stsyn_fleet_jobs_accepted_total"),
    DaemonRow::new(Counter, Some("rejected"), Some("stsyn_jobs_rejected_total"), "Submissions rejected by backpressure",
                   |s| load(&s.counters.rejected)),
    DaemonRow::new(Counter, Some("completed"), Some("stsyn_jobs_completed_total"), "Jobs finished successfully",
                   |s| load(&s.counters.completed)).fleet("stsyn_fleet_jobs_completed_total"),
    DaemonRow::new(Counter, Some("failed"), Some("stsyn_jobs_failed_total"), "Jobs that failed (synthesis, input or budget failure)",
                   |s| load(&s.counters.failed)).fleet("stsyn_fleet_jobs_failed_total"),
    DaemonRow::new(Counter, Some("cancelled"), Some("stsyn_jobs_cancelled_total"), "Jobs cancelled by a client",
                   |s| load(&s.counters.cancelled)),
    DaemonRow::new(Counter, Some("resumed"), Some("stsyn_jobs_resumed_total"), "In-flight jobs re-enqueued from a checkpoint journal at startup",
                   |s| load(&s.counters.resumed)),
    DaemonRow::new(Counter, Some("crashed"), Some("stsyn_jobs_crashed_total"), "Job attempts that panicked or killed their worker",
                   |s| load(&s.counters.crashed)),
    DaemonRow::new(Gauge, Some("quarantined"), Some("stsyn_quarantined_jobs"), "Jobs currently parked in quarantine",
                   |s| quarantined_now(s).into()),
    DaemonRow::new(Counter, None, Some("stsyn_jobs_quarantined_total"), "Jobs moved to quarantine by this daemon",
                   |s| load(&s.counters.quarantined)),
    DaemonRow::new(Counter, Some("dedup_hits"), Some("stsyn_submit_dedup_total"), "Submissions answered from the idempotency map",
                   |s| load(&s.counters.dedup_hits)),
    DaemonRow::new(Counter, Some("conn_rejected"), Some("stsyn_conns_rejected_total"), "Connections rejected at the connection cap",
                   |s| load(&s.counters.conn_rejected)),
    DaemonRow::new(Counter, Some("worker_respawns"), Some("stsyn_worker_respawns_total"), "Dead worker threads respawned by the supervisor",
                   |s| load(&s.counters.worker_respawns)),
    DaemonRow::new(Gauge, Some("conns"), Some("stsyn_conns_open"), "Open client connections",
                   |s| s.conns.load(Ordering::SeqCst).into()),
    DaemonRow::new(Gauge, Some("queue_depth"), Some("stsyn_queue_depth"), "Jobs currently queued",
                   |s| s.queue.len().into()).fleet("stsyn_fleet_queue_depth"),
    DaemonRow::new(Gauge, Some("running"), Some("stsyn_workers_busy"), "Workers currently running a job",
                   |s| s.busy.load(Ordering::SeqCst).into()).fleet("stsyn_fleet_running"),
    DaemonRow::new(Gauge, Some("workers"), Some("stsyn_workers"), "Worker pool size",
                   |s| s.cfg.workers.max(1).into()),
    DaemonRow::new(Gauge, Some("live_workers"), Some("stsyn_workers_live"), "Worker threads currently alive",
                   |s| s.live_workers.load(Ordering::SeqCst).into()),
    DaemonRow::new(Gauge, Some("utilization"), Some("stsyn_worker_utilization"), "Busy workers over pool size",
                   utilization),
    DaemonRow::new(Gauge, Some("peak_nodes_max"), Some("stsyn_peak_nodes_max"), "Largest per-job peak live BDD node count",
                   |s| load(&s.counters.peak_nodes_max)),
    DaemonRow::new(Counter, Some("queue_wait_ms_total"), Some("stsyn_queue_wait_ms_total"), "Milliseconds claimed jobs spent queued",
                   |s| load(&s.counters.queue_wait_ms_total)),
    DaemonRow::new(Counter, Some("run_ms_total"), Some("stsyn_run_ms_total"), "Milliseconds workers spent running jobs",
                   |s| load(&s.counters.run_ms_total)),
    DaemonRow::new(Histogram, Some("queue_wait"), Some("stsyn_queue_wait_seconds"), "Queue wait (enqueue to claim) of each claimed attempt",
                   |s| s.counters.queue_wait_hist.snapshot().into()).fleet("stsyn_fleet_queue_wait_seconds"),
    DaemonRow::new(Histogram, Some("run"), Some("stsyn_run_seconds"), "Run-time distribution of finished job attempts",
                   |s| s.counters.run_hist.snapshot().into()).fleet("stsyn_fleet_run_seconds"),
    DaemonRow::new(Histogram, Some("submit_to_result"), Some("stsyn_submit_to_result_seconds"), "Submission to terminal state, across retries and resumes",
                   |s| s.counters.submit_result_hist.snapshot().into()).fleet("stsyn_fleet_submit_to_result_seconds"),
    DaemonRow::new(Gauge, Some("uptime_secs"), Some("stsyn_uptime_seconds"), "Daemon uptime",
                   |s| s.started.elapsed().as_secs_f64().into()),
];

/// What the store rows read: one snapshot of the artifact store, and the
/// job directories retention GC removed.
struct StoreView {
    store: StoreStats,
    pruned: u64,
}

fn store_view(shared: &Shared) -> Option<StoreView> {
    let store = shared.store.as_ref()?.stats();
    Some(StoreView { store, pruned: shared.counters.pruned.load(Ordering::Relaxed) })
}

/// Every artifact-store row, in key order. `stats` publishes them under
/// these keys, `store-stats` without the `store_` prefix (see
/// [`store_stats_key`]).
#[rustfmt::skip]
static STORE_ROWS: &[StoreRow] = &[
    StoreRow::new(Gauge, Some("store_entries"), Some("stsyn_store_entries"), "Live artifact store entries",
                  |v| v.store.entries.into()).fleet("stsyn_fleet_store_entries"),
    StoreRow::new(Gauge, Some("store_bytes"), Some("stsyn_store_bytes"), "Artifact store footprint in bytes",
                  |v| v.store.bytes.into()).fleet("stsyn_fleet_store_bytes"),
    StoreRow::new(Gauge, Some("store_cap_bytes"), Some("stsyn_store_cap_bytes"), "Configured store byte cap (0 = unbounded)",
                  |v| v.store.cap_bytes.into()),
    StoreRow::new(Counter, Some("store_hits"), Some("stsyn_store_hits_total"), "Submissions answered from the artifact store",
                  |v| v.store.hits.into()).fleet("stsyn_fleet_store_hits_total"),
    StoreRow::new(Counter, Some("store_partial_hits"), Some("stsyn_store_partial_hits_total"), "Jobs warm-started from a stored checkpoint prefix",
                  |v| v.store.partial_hits.into()).fleet("stsyn_fleet_store_partial_hits_total"),
    StoreRow::new(Counter, Some("store_misses"), Some("stsyn_store_misses_total"), "Store lookups that found nothing",
                  |v| v.store.misses.into()).fleet("stsyn_fleet_store_misses_total"),
    StoreRow::new(Counter, Some("store_evictions"), Some("stsyn_store_evictions_total"), "Store entries evicted (LRU/GC)",
                  |v| v.store.evictions.into()).fleet("stsyn_fleet_store_evictions_total"),
    StoreRow::new(Counter, Some("store_corrupt_dropped"), Some("stsyn_store_corrupt_dropped_total"), "Store entries dropped after failing CRC verification",
                  |v| v.store.corrupt_dropped.into()),
    StoreRow::new(Counter, Some("store_publishes"), Some("stsyn_store_publishes_total"), "Artifacts published to the store",
                  |v| v.store.publishes.into()),
    StoreRow::new(Counter, Some("jobs_pruned"), Some("stsyn_jobs_pruned_total"), "Completed job directories removed by retention GC",
                  |v| v.pruned.into()),
];

/// The key a store row has in `store-stats`.
pub(crate) fn store_stats_key(names: &Names) -> Option<&'static str> {
    names.key.map(|k| k.strip_prefix("store_").unwrap_or(k))
}

/// The names of every daemon row, in `stats` order: the job rows, then
/// the store rows.
pub fn row_names() -> impl Iterator<Item = Names> {
    DAEMON_ROWS.iter().map(|r| r.names).chain(store_row_names())
}

/// The names of every store row, in `store-stats` order.
pub(crate) fn store_row_names() -> impl Iterator<Item = Names> {
    STORE_ROWS.iter().map(|r| r.names)
}

/// A store row's value in a `store-stats` answer, or a daemon row's
/// value in a `stats` answer (histograms sit in its `latency` object).
pub(crate) fn stats_value(stats: &Json, names: &Names) -> Option<Value> {
    let key = names.key?;
    if names.kind == Histogram {
        let h = stats.get("latency")?.get(key)?;
        HistogramSnapshot::from_json(h).map(Value::Hist)
    } else {
        stats.get(key).and_then(Json::as_f64).map(Value::Num)
    }
}

/// `stats` op: every keyed row of [`DAEMON_ROWS`] (histograms grouped
/// under `latency`, with their bucket bounds), then the store rows.
fn op_stats(shared: &Shared) -> Json {
    let bounds = LATENCY_BUCKET_BOUNDS_US.iter().map(|&b| Json::from(b)).collect();
    let mut latency = vec![("bounds_us", Json::Arr(bounds))];
    let mut latency_at = None;
    let mut pairs = vec![("ok", Json::from(true))];
    for row in DAEMON_ROWS {
        let Some(key) = row.names.key else { continue };
        match (row.get)(shared) {
            Value::Hist(h) => {
                latency_at.get_or_insert(pairs.len());
                latency.push((key, h.to_json()));
            }
            v => pairs.push((key, v.to_json())),
        }
    }
    if let Some(at) = latency_at {
        pairs.insert(at, ("latency", Json::obj(latency)));
    }
    if let Some(view) = store_view(shared) {
        pairs.push(("store_enabled", true.into()));
        pairs.extend(json_pairs(STORE_ROWS, &view));
    }
    Json::obj(pairs)
}

/// `metrics` op: the same rows as `stats`, rendered as Prometheus text
/// (returned in the `metrics` field so the response stays one JSON line
/// on the wire).
fn op_metrics(shared: &Shared) -> Json {
    let mut m = MetricsText::new();
    m.rows(DAEMON_ROWS, shared);
    if let Some(view) = store_view(shared) {
        m.rows(STORE_ROWS, &view);
    }
    Json::obj(vec![("ok", true.into()), ("metrics", m.render().into())])
}

/// `store-stats` op: the artifact store's rows.
fn op_store_stats(shared: &Shared) -> Json {
    let Some(view) = store_view(shared) else {
        return error_json(
            "store-disabled",
            "no artifact store configured (start with --store-dir)",
        );
    };
    let mut pairs = vec![("ok", Json::from(true))];
    for row in STORE_ROWS {
        if let Some(key) = store_stats_key(&row.names) {
            pairs.push((key, (row.get)(&view).to_json()));
        }
    }
    Json::obj(pairs)
}

/// `store-gc` op: evict LRU entries down to the configured cap, or to
/// an explicit `cap_bytes` override carried in the request.
fn op_store_gc(shared: &Shared, req: &Json) -> Json {
    let Some(store) = &shared.store else {
        return error_json(
            "store-disabled",
            "no artifact store configured (start with --store-dir)",
        );
    };
    let cap = req.get("cap_bytes").and_then(Json::as_u64);
    match store.gc(cap) {
        Ok(rep) => {
            if rep.evicted > 0 {
                shared.cfg.tracer.counter("store.evict", rep.evicted);
            }
            Json::obj(vec![
                ("ok", true.into()),
                ("evicted", rep.evicted.into()),
                ("freed_bytes", rep.freed_bytes.into()),
                ("entries", rep.entries.into()),
                ("bytes", rep.bytes.into()),
            ])
        }
        Err(e) => error_json("io-error", &format!("store gc failed: {e}")),
    }
}

fn op_shutdown(shared: &Shared, req: &Json) -> Json {
    let mode = match req.get("mode").and_then(Json::as_str) {
        None | Some("drain") => ShutdownMode::Drain,
        Some("checkpoint") => ShutdownMode::Checkpoint,
        Some(other) => {
            return error_json("bad-request", &format!("unknown shutdown mode `{other}`"))
        }
    };
    shared.begin_shutdown(mode);
    Json::obj(vec![
        ("ok", true.into()),
        (
            "mode",
            match mode {
                ShutdownMode::Drain => "drain".into(),
                ShutdownMode::Checkpoint => "checkpoint".into(),
            },
        ),
    ])
}
