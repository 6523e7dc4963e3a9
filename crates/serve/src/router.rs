//! `stsyn route` — a sharded, failover-capable front door for a fleet of
//! `stsyn serve` daemons.
//!
//! One daemon is one failure domain. The router makes N of them look
//! like one service that keeps serving when any single daemon dies:
//!
//! ```text
//!                        ┌─ probe ─▶ shard 0 (stsyn serve)
//!  clients ──▶ router ───┼─ probe ─▶ shard 1 (stsyn serve)
//!   NDJSON     hash ring └─ probe ─▶ shard 2 (stsyn serve)
//! ```
//!
//! ## Routing
//!
//! Every submission carries an idempotency key (client-derived, or
//! derived here for bare submissions). A consistent [`HashRing`] with
//! [`HashRing::VNODES`] virtual points per shard maps the key to a home
//! shard, so identical workloads from different clients land on the same
//! daemon and its server-side dedup collapses them. Removing a shard
//! from the candidate set remaps only the keys that lived on it — the
//! ring's minimal-disruption property, asserted by this module's tests.
//!
//! ## Probe state machine
//!
//! A prober thread sends the `ping` verb to every shard each
//! `probe_interval` and classifies:
//!
//! ```text
//!            fast pong                    pong slower than
//!          ┌───────────┐                 `degraded_latency`
//!          ▼           │               ┌─────────────────┐
//!        ┌────┐      ┌─┴──────────┐    ▼                 │
//!        │ Up │─────▶│  Degraded  │────┘   ≥ `down_after` consecutive
//!        └────┘ any  └────────────┘        failures (probe *or* forward)
//!          ▲    failure    │                        │
//!          │               ▼                        ▼
//!          │           ┌──────┐                ┌──────┐
//!          └───────────│ Down │◀───────────────│ Down │
//!            next pong └──────┘                └──────┘
//! ```
//!
//! `Up` and `Degraded` shards serve traffic (`Degraded` is a warning
//! visible in `fleet-stats`); `Down` shards are excluded from the ring
//! walk. One successful pong re-adopts a `Down` shard — no restart, no
//! config push: from any reachable fault state the fleet converges back
//! to a legitimate serving state by itself, the systems analogue of the
//! self-stabilization this repository synthesizes.
//!
//! ## Failover via idempotency
//!
//! When a job's home shard dies, a `status`/`result`/`wait` lookup fails
//! the job over: the router resubmits the *same spec under the same
//! idempotency key* to the next surviving shard on the ring. That is
//! safe precisely because of the existing guarantees: resubmitting a key
//! a daemon has already admitted dedups server-side (no duplicate work
//! per shard), and synthesis is deterministic, so whichever shard
//! ultimately runs the job produces byte-identical results. Under a
//! partition the old shard may finish its copy too — wasted cycles, but
//! never a client-visible duplicate and never divergent bytes. A `cancel`
//! aimed at a dead shard is the one operation that cannot fail over
//! (there is nothing live to cancel); it answers a typed
//! [`crate::wire::CODE_DEGRADED`] error instead of hanging, and when no
//! shard is reachable at all, every operation answers
//! [`crate::wire::CODE_NO_SHARDS`]. Both map to CLI exit code 8.

use crate::client::{Client, ClientError, RetryPolicy};
use crate::json::Json;
use crate::server::{self, load, stats_value, store_stats_key};
use crate::wire::{
    error_json, fold_idem, read_line_bounded, serve_conn, write_line, SubmitSpec, CODE_DEGRADED,
    CODE_NO_SHARDS, MAX_REQUEST_BYTES,
};
use std::collections::HashMap;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use stsyn_obs::metrics::{json_pairs, Kind, Kind::*, Names, Row, Value};
use stsyn_obs::{HistogramSnapshot, MetricsText, Tracer};

/// splitmix64 finalizer: a bijective avalanche mix, so distinct inputs
/// give distinct ring points and key hashes spread uniformly.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// A consistent-hash ring over shard indices.
///
/// Each shard owns [`HashRing::VNODES`] pseudo-random points on the u64
/// circle; a key belongs to the shard owning the first point at or after
/// the key's hash (wrapping). Virtual points keep the load balanced; the
/// successor rule gives minimal disruption — when a shard is excluded,
/// only its keys move, each to the next surviving point.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(point, shard)` pairs sorted by point.
    points: Vec<(u64, usize)>,
    shards: usize,
}

impl HashRing {
    /// Virtual points per shard. 128 keeps the worst shard within a few
    /// tens of percent of the fair share (asserted by tests) while the
    /// whole ring for a realistic fleet still fits in a few KiB.
    pub const VNODES: usize = 128;

    /// A ring over shards `0..shards`.
    pub fn new(shards: usize) -> HashRing {
        let mut points = Vec::with_capacity(shards * Self::VNODES);
        for s in 0..shards {
            for v in 0..Self::VNODES {
                // mix64 is bijective and the inputs are distinct, so no
                // two points collide.
                points.push((mix64(((s as u64) << 32) | v as u64), s));
            }
        }
        points.sort_unstable();
        HashRing { points, shards }
    }

    /// Number of shards the ring was built over.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The key's home shard (`None` only for an empty ring).
    pub fn shard_for(&self, key: u64) -> Option<usize> {
        self.shard_for_available(key, |_| true)
    }

    /// The first shard at or after the key's ring position for which
    /// `available` holds — the home shard when it is available, otherwise
    /// the deterministic failover target. `None` when no shard qualifies.
    pub fn shard_for_available<F: Fn(usize) -> bool>(
        &self,
        key: u64,
        available: F,
    ) -> Option<usize> {
        if self.points.is_empty() {
            return None;
        }
        let h = mix64(key);
        let start = self.points.partition_point(|&(p, _)| p < h);
        let n = self.points.len();
        for i in 0..n {
            let (_, shard) = self.points[(start + i) % n];
            if available(shard) {
                return Some(shard);
            }
        }
        None
    }
}

/// A shard's health as seen by the router's prober.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardHealth {
    /// Answering probes promptly; serves traffic.
    Up,
    /// Suspect: slow pongs or recent failures below the down threshold.
    /// Still serves traffic, flagged in `fleet-stats`.
    Degraded,
    /// Unreachable: excluded from routing until a probe succeeds again.
    Down,
}

impl ShardHealth {
    fn from_u8(v: u8) -> ShardHealth {
        match v {
            0 => ShardHealth::Up,
            1 => ShardHealth::Degraded,
            _ => ShardHealth::Down,
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            ShardHealth::Up => 0,
            ShardHealth::Degraded => 1,
            ShardHealth::Down => 2,
        }
    }

    /// Wire/stats name.
    pub fn name(self) -> &'static str {
        match self {
            ShardHealth::Up => "up",
            ShardHealth::Degraded => "degraded",
            ShardHealth::Down => "down",
        }
    }
}

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Backend daemon addresses — one entry per shard, order defines
    /// shard indices.
    pub shards: Vec<String>,
    /// How often the prober pings every shard.
    pub probe_interval: Duration,
    /// Per-probe connect/read deadline; a probe slower than this is a
    /// failure.
    pub probe_timeout: Duration,
    /// Consecutive failures (probe or forward) that mark a shard `Down`.
    pub down_after: u32,
    /// Pong latency above this marks a shard `Degraded`.
    pub degraded_latency: Duration,
    /// Read/write deadline on client-facing sockets (zero disables).
    pub io_timeout: Duration,
    /// Deadline on each router→shard request.
    pub shard_io_timeout: Duration,
    /// Tracer for router diagnostics (`route.*` events).
    pub tracer: Tracer,
}

impl RouterConfig {
    /// Loopback defaults over the given shard addresses.
    pub fn new(shards: Vec<String>) -> RouterConfig {
        RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            shards,
            probe_interval: Duration::from_millis(500),
            probe_timeout: Duration::from_secs(1),
            down_after: 3,
            degraded_latency: Duration::from_millis(250),
            io_timeout: Duration::from_secs(30),
            shard_io_timeout: Duration::from_secs(10),
            tracer: Tracer::to_stderr(stsyn_obs::TraceLevel::Warn),
        }
    }
}

/// Router-local counters (the fleet's job counters live on the shards;
/// `fleet-stats` aggregates both). Each field is a row of
/// [`ROUTER_ROWS`], whose help text says what it counts.
#[derive(Debug, Default)]
struct RouterCounters {
    accepted: AtomicU64,
    dedup_hits: AtomicU64,
    failovers: AtomicU64,
    no_shards: AtomicU64,
    degraded: AtomicU64,
    forwarded: AtomicU64,
    forward_errors: AtomicU64,
}

struct ShardState {
    addr: String,
    health: AtomicU8,
    consec_failures: AtomicU32,
    last_latency_us: AtomicU64,
    probes_ok: AtomicU64,
    probes_failed: AtomicU64,
    /// Times this shard transitioned to `Down`.
    went_down: AtomicU64,
}

impl ShardState {
    fn health(&self) -> ShardHealth {
        ShardHealth::from_u8(self.health.load(Ordering::SeqCst))
    }
}

/// Where the router believes one admitted job lives.
struct RouteEntry {
    /// The spec as forwarded — `idem` is always set, which is what makes
    /// failover resubmission safe.
    spec: SubmitSpec,
    shard: usize,
    /// The job id *on that shard* (shard ids are per-daemon; clients only
    /// ever see router ids).
    shard_id: u64,
    failovers: u32,
}

struct Shared {
    cfg: RouterConfig,
    ring: HashRing,
    shards: Vec<ShardState>,
    jobs: Mutex<HashMap<u64, RouteEntry>>,
    /// Idempotency key → router id: retried and duplicate submissions
    /// collapse here before any shard is touched.
    idem: Mutex<HashMap<u64, u64>>,
    next_id: AtomicU64,
    counters: RouterCounters,
    stop: AtomicBool,
    started: Instant,
    /// Salt for auto-derived idempotency keys of bare submissions.
    salt: u64,
    seq: AtomicU64,
}

fn lock_jobs(shared: &Shared) -> MutexGuard<'_, HashMap<u64, RouteEntry>> {
    shared.jobs.lock().unwrap_or_else(PoisonError::into_inner)
}

fn lock_idem(shared: &Shared) -> MutexGuard<'_, HashMap<u64, u64>> {
    shared.idem.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A running router. Stop it with [`RouterHandle::shutdown`] then
/// [`RouterHandle::join`].
pub struct RouterHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: JoinHandle<()>,
    prober: JoinHandle<()>,
}

impl RouterHandle {
    /// The actually-bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A shard's current health, for tests and tooling.
    pub fn shard_health(&self, shard: usize) -> Option<ShardHealth> {
        self.shared.shards.get(shard).map(ShardState::health)
    }

    /// Initiate shutdown (same path as the wire `shutdown` op). Only the
    /// router stops; the shard daemons are independent processes.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
    }

    /// Wait for the acceptor and prober to exit.
    pub fn join(self) {
        let _ = self.prober.join();
        let _ = self.acceptor.join();
    }
}

/// The fleet front door.
pub struct Router;

impl Router {
    /// Start the router: bind the listener, spawn the prober and the
    /// acceptor. Fails if no shards were configured.
    pub fn start(cfg: RouterConfig) -> io::Result<RouterHandle> {
        if cfg.shards.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "router needs at least one shard",
            ));
        }
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let shards = cfg
            .shards
            .iter()
            .map(|a| ShardState {
                addr: a.clone(),
                // Optimistic start: shards are assumed Up until the first
                // probe cycle says otherwise, so a router fronting a
                // healthy fleet serves from its first request.
                health: AtomicU8::new(ShardHealth::Up.as_u8()),
                consec_failures: AtomicU32::new(0),
                last_latency_us: AtomicU64::new(0),
                probes_ok: AtomicU64::new(0),
                probes_failed: AtomicU64::new(0),
                went_down: AtomicU64::new(0),
            })
            .collect::<Vec<_>>();
        let ring = HashRing::new(shards.len());
        let salt = {
            let nanos = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| u64::from(d.subsec_nanos()) ^ d.as_secs())
                .unwrap_or(0);
            mix64(nanos ^ (u64::from(std::process::id()) << 32))
        };
        let shared = Arc::new(Shared {
            ring,
            shards,
            jobs: Mutex::new(HashMap::new()),
            idem: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            counters: RouterCounters::default(),
            stop: AtomicBool::new(false),
            started: Instant::now(),
            salt,
            seq: AtomicU64::new(0),
            cfg,
        });

        let prober = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || prober_loop(&shared))
        };
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let shared = Arc::clone(&shared);
                        std::thread::spawn(move || {
                            let _ = handle_conn(&shared, stream);
                        });
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        if shared.stop.load(Ordering::SeqCst) {
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => break,
                }
            })
        };
        Ok(RouterHandle { addr, shared, acceptor, prober })
    }
}

// ------------------------------------------------------------- probing

fn prober_loop(shared: &Arc<Shared>) {
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        for i in 0..shared.shards.len() {
            probe_shard(shared, i);
        }
        // Sleep in small slices so shutdown stays responsive.
        let mut left = shared.cfg.probe_interval;
        while !left.is_zero() {
            if shared.stop.load(Ordering::SeqCst) {
                return;
            }
            let slice = left.min(Duration::from_millis(20));
            std::thread::sleep(slice);
            left -= slice;
        }
    }
}

fn probe_shard(shared: &Shared, i: usize) {
    let started = Instant::now();
    match ping_once(&shared.shards[i].addr, shared.cfg.probe_timeout) {
        Ok(()) => record_probe_ok(shared, i, started.elapsed()),
        Err(_) => record_failure(shared, i, "probe"),
    }
}

/// One `ping` round trip under a hard deadline, on a dedicated
/// connection (never the forwarding path — a probe must measure the
/// daemon, not the router's own queues).
fn ping_once(addr: &str, timeout: Duration) -> io::Result<()> {
    let sockaddr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "unresolvable shard addr"))?;
    let stream = TcpStream::connect_timeout(&sockaddr, timeout)?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let mut writer = stream.try_clone()?;
    writer.write_all(b"{\"op\":\"ping\"}\n")?;
    writer.flush()?;
    let mut reader = BufReader::new(stream);
    let line = read_line_bounded(&mut reader, MAX_REQUEST_BYTES)?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "shard closed on ping"))?;
    let v = Json::parse(&line)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    if v.get("pong").and_then(Json::as_bool) == Some(true) {
        Ok(())
    } else {
        Err(io::Error::new(io::ErrorKind::InvalidData, "peer did not pong"))
    }
}

fn record_probe_ok(shared: &Shared, i: usize, latency: Duration) {
    let shard = &shared.shards[i];
    shard.consec_failures.store(0, Ordering::SeqCst);
    shard.last_latency_us.store(latency.as_micros() as u64, Ordering::Relaxed);
    shard.probes_ok.fetch_add(1, Ordering::Relaxed);
    let new =
        if latency > shared.cfg.degraded_latency { ShardHealth::Degraded } else { ShardHealth::Up };
    let old = ShardHealth::from_u8(shard.health.swap(new.as_u8(), Ordering::SeqCst));
    if old == ShardHealth::Down {
        // Automatic re-adoption: the shard rejoins the ring with no
        // operator action.
        shared.cfg.tracer.warn(
            "route.shard_readopted",
            &[
                ("shard", Json::from(i as u64)),
                ("addr", Json::from(shard.addr.as_str())),
                ("latency_us", Json::from(latency.as_micros() as u64)),
            ],
        );
    } else if old != new && new == ShardHealth::Degraded {
        shared.cfg.tracer.warn(
            "route.shard_degraded",
            &[
                ("shard", Json::from(i as u64)),
                ("latency_us", Json::from(latency.as_micros() as u64)),
            ],
        );
    }
}

/// Record one failed interaction (probe or forward) with a shard and
/// advance its health state machine.
fn record_failure(shared: &Shared, i: usize, source: &'static str) {
    let shard = &shared.shards[i];
    if source == "probe" {
        shard.probes_failed.fetch_add(1, Ordering::Relaxed);
    }
    let consec = shard.consec_failures.fetch_add(1, Ordering::SeqCst) + 1;
    let new = if consec >= shared.cfg.down_after.max(1) {
        ShardHealth::Down
    } else {
        ShardHealth::Degraded
    };
    let old = ShardHealth::from_u8(shard.health.swap(new.as_u8(), Ordering::SeqCst));
    if new == ShardHealth::Down && old != ShardHealth::Down {
        shard.went_down.fetch_add(1, Ordering::Relaxed);
        shared.cfg.tracer.warn(
            "route.shard_down",
            &[
                ("shard", Json::from(i as u64)),
                ("addr", Json::from(shard.addr.as_str())),
                ("consec_failures", Json::from(u64::from(consec))),
                ("source", Json::from(source)),
            ],
        );
    }
}

// ---------------------------------------------------------- forwarding

/// One request to one shard on a fresh connection. A single transport
/// retry rides on the client's policy; rejections come back as
/// `Rejected` untouched.
fn shard_request(shared: &Shared, i: usize, req: &Json) -> Result<Json, ClientError> {
    shared.counters.forwarded.fetch_add(1, Ordering::Relaxed);
    let policy = RetryPolicy {
        max_retries: 1,
        base_delay: Duration::from_millis(20),
        max_delay: Duration::from_millis(100),
        io_timeout: Some(shared.cfg.shard_io_timeout),
        seed: Some(mix64(shared.salt ^ i as u64)),
    };
    let result = Client::connect_with(shared.shards[i].addr.as_str(), policy)
        .and_then(|mut c| c.request(req));
    // Transport-level trouble counts against the shard's health, so a
    // dead daemon is discovered at request time, not only at the next
    // probe cycle. A typed rejection is the daemon *answering*.
    if let Err(ClientError::Io(_) | ClientError::Protocol(_)) = &result {
        shared.counters.forward_errors.fetch_add(1, Ordering::Relaxed);
        record_failure(shared, i, "forward");
    }
    result
}

/// Shards currently eligible for new work.
fn shard_available(shared: &Shared, i: usize) -> bool {
    shared.shards[i].health() != ShardHealth::Down
}

/// Forward a submit to the key's home shard, walking the ring past
/// shards that are down or fail the forward. Returns the shard index and
/// the shard's response.
fn forward_submit(shared: &Shared, key: u64, spec: &SubmitSpec) -> Result<(usize, Json), Json> {
    let req = Json::obj(vec![("op", "submit".into()), ("job", spec.to_json())]);
    let mut tried = vec![false; shared.shards.len()];
    loop {
        let Some(target) =
            shared.ring.shard_for_available(key, |s| !tried[s] && shard_available(shared, s))
        else {
            shared.counters.no_shards.fetch_add(1, Ordering::Relaxed);
            return Err(error_json(
                CODE_NO_SHARDS,
                "no shard available to accept the submission; the fleet is down or unreachable",
            ));
        };
        tried[target] = true;
        match shard_request(shared, target, &req) {
            Ok(resp) => return Ok((target, resp)),
            Err(ClientError::Rejected { code, message }) => {
                // The shard is alive and said no (queue-full, input-error,
                // shutting-down, ...): pass its typed answer through.
                return Err(error_json(&code, &message));
            }
            Err(_) => continue, // transport failure: try the next shard
        }
    }
}

// ------------------------------------------------------------- serving

fn handle_conn(shared: &Shared, stream: TcpStream) -> io::Result<()> {
    serve_conn(
        stream,
        shared.cfg.io_timeout,
        |req, writer| op_watch_proxy(shared, req, writer),
        |req| dispatch(shared, req),
    )
}

fn dispatch(shared: &Shared, req: &Json) -> Json {
    match req.get("op").and_then(Json::as_str) {
        Some("submit") => op_submit(shared, req),
        Some(op @ ("status" | "result" | "cancel")) => op_job(shared, req, op),
        Some("ping") => Json::obj(vec![
            ("ok", true.into()),
            ("pong", true.into()),
            ("role", "router".into()),
            ("shards", (shared.shards.len() as u64).into()),
            ("uptime_secs", shared.started.elapsed().as_secs_f64().into()),
        ]),
        Some("stats") => op_router_stats(shared),
        Some("fleet-stats") => op_fleet_stats(shared),
        Some("metrics" | "fleet-metrics") => op_fleet_metrics(shared),
        Some(op @ ("store-stats" | "store-gc")) => op_store_fanout(shared, req, op),
        Some("shutdown") => {
            shared.stop.store(true, Ordering::SeqCst);
            Json::obj(vec![("ok", true.into()), ("role", "router".into())])
        }
        Some(other) => error_json("bad-request", &format!("unknown op `{other}`")),
        None => error_json("bad-request", "request needs a string `op` field"),
    }
}

fn op_submit(shared: &Shared, req: &Json) -> Json {
    if shared.stop.load(Ordering::SeqCst) {
        return error_json("shutting-down", "router is shutting down");
    }
    let Some(job_field) = req.get("job") else {
        return error_json("bad-request", "submit needs a `job` object");
    };
    let mut spec = match SubmitSpec::from_json(job_field) {
        Ok(s) => s,
        Err(m) => return error_json("bad-request", &m),
    };
    // Every routed submission carries an idempotency key: it is both the
    // ring key and the failover safety argument. A bare submission gets a
    // per-submission key (distinct across submissions, like the client's
    // own derivation).
    let key = match spec.idem {
        Some(k) => k,
        None => {
            let seq = shared.seq.fetch_add(1, Ordering::Relaxed);
            let k = fold_idem(spec.fingerprint() ^ mix64(shared.salt.wrapping_add(seq)));
            spec.idem = Some(k);
            k
        }
    };
    // Hold the idempotency lock across admission so two racing
    // resubmissions of one key cannot both reach a shard.
    let mut idem = lock_idem(shared);
    if let Some(&existing) = idem.get(&key) {
        shared.counters.dedup_hits.fetch_add(1, Ordering::Relaxed);
        return Json::obj(vec![
            ("ok", true.into()),
            ("id", existing.into()),
            ("dedup", true.into()),
        ]);
    }
    let (shard, resp) = match forward_submit(shared, key, &spec) {
        Ok(ok) => ok,
        Err(err) => return err,
    };
    let Some(shard_id) = resp.get("id").and_then(Json::as_u64) else {
        return error_json("bad-gateway", "shard's submit response lacks an id");
    };
    let id = shared.next_id.fetch_add(1, Ordering::SeqCst);
    lock_jobs(shared).insert(id, RouteEntry { spec, shard, shard_id, failovers: 0 });
    idem.insert(key, id);
    shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
    let mut pairs =
        vec![("ok", Json::from(true)), ("id", id.into()), ("shard", (shard as u64).into())];
    if resp.get("dedup").and_then(Json::as_bool) == Some(true) {
        // The shard already knew this key (e.g. re-route after a router
        // restart): surface the shard-side dedup too.
        pairs.push(("dedup", true.into()));
    }
    if let Some(hit) = resp.get("store").and_then(Json::as_str) {
        // The shard answered from its artifact store: surface that so
        // clients and benches can tell a cache hit from a synthesis.
        pairs.push(("store", hit.into()));
    }
    Json::obj(pairs)
}

/// Resubmit a tracked job to a surviving shard after its home shard
/// died. Same spec, same idempotency key — the shard-side dedup and the
/// determinism of synthesis make this exactly-once from the client's
/// point of view. Returns the new `(shard, shard_id)`.
fn failover(shared: &Shared, id: u64, dead: usize) -> Result<(usize, u64), Json> {
    let spec = match lock_jobs(shared).get(&id) {
        Some(e) => e.spec.clone(),
        None => return Err(error_json("unknown-job", &format!("no job {id}"))),
    };
    let key = spec.idem.unwrap_or_default();
    // The ring walk naturally skips the dead shard (it is Down); exclude
    // it explicitly too in case its health flapped back mid-failover.
    let result = {
        let req = Json::obj(vec![("op", "submit".into()), ("job", spec.to_json())]);
        let mut tried = vec![false; shared.shards.len()];
        tried[dead] = true;
        loop {
            let Some(target) =
                shared.ring.shard_for_available(key, |s| !tried[s] && shard_available(shared, s))
            else {
                break None;
            };
            tried[target] = true;
            match shard_request(shared, target, &req) {
                Ok(resp) => break Some((target, resp)),
                Err(ClientError::Rejected { code, message }) => {
                    return Err(error_json(&code, &message))
                }
                Err(_) => continue,
            }
        }
    };
    let Some((target, resp)) = result else {
        shared.counters.degraded.fetch_add(1, Ordering::Relaxed);
        return Err(error_json(
            CODE_DEGRADED,
            &format!("job {id}'s shard is down and no surviving shard can adopt it"),
        ));
    };
    let Some(shard_id) = resp.get("id").and_then(Json::as_u64) else {
        return Err(error_json("bad-gateway", "shard's failover response lacks an id"));
    };
    if let Some(e) = lock_jobs(shared).get_mut(&id) {
        e.shard = target;
        e.shard_id = shard_id;
        e.failovers += 1;
    }
    shared.counters.failovers.fetch_add(1, Ordering::Relaxed);
    shared.cfg.tracer.warn(
        "route.failover",
        &[
            ("job", Json::from(id)),
            ("from", Json::from(dead as u64)),
            ("to", Json::from(target as u64)),
        ],
    );
    Ok((target, shard_id))
}

/// Proxy one per-job verb shard-aware, failing `status`/`result` over to
/// a surviving shard when the home shard is down. `cancel` cannot fail
/// over — there is nothing live to cancel on a dead shard — so it
/// answers `degraded` and the client may retry once the shard is
/// re-adopted.
fn op_job(shared: &Shared, req: &Json, op: &str) -> Json {
    let Some(id) = req.get("id").and_then(Json::as_u64) else {
        return error_json("bad-request", "request needs an integer `id`");
    };
    let Some((mut shard, mut shard_id)) = lock_jobs(shared).get(&id).map(|e| (e.shard, e.shard_id))
    else {
        return error_json("unknown-job", &format!("no job {id}"));
    };
    // Two chances: the routed attempt, and one failover attempt if the
    // home shard turns out dead. Never more — every path out is typed.
    for attempt in 0..2 {
        if shared.shards[shard].health() == ShardHealth::Down {
            if op == "cancel" {
                shared.counters.degraded.fetch_add(1, Ordering::Relaxed);
                return error_json(
                    CODE_DEGRADED,
                    &format!("job {id}'s shard is down; cancel again after re-adoption"),
                );
            }
            match failover(shared, id, shard) {
                Ok((s, sid)) => {
                    shard = s;
                    shard_id = sid;
                }
                Err(e) => return e,
            }
        }
        let fwd = Json::obj(vec![("op", op.into()), ("id", shard_id.into())]);
        match shard_request(shared, shard, &fwd) {
            Ok(resp) => return with_router_identity(resp, id, shard),
            Err(ClientError::Rejected { code, message }) => {
                return with_router_identity(error_json(&code, &message), id, shard)
            }
            Err(_) if attempt == 0 => {
                // Transport failure: record_failure already ran inside
                // shard_request; loop once more so the Down branch above
                // can fail over (or answer `degraded`).
                continue;
            }
            Err(e) => {
                shared.counters.degraded.fetch_add(1, Ordering::Relaxed);
                return error_json(CODE_DEGRADED, &format!("job {id}'s shard is unreachable: {e}"));
            }
        }
    }
    unreachable!("both attempts return");
}

/// Rewrite a shard response so clients only ever see router identities:
/// the top-level `id` becomes the router id and the serving shard index
/// is attached.
fn with_router_identity(mut resp: Json, id: u64, shard: usize) -> Json {
    if let Json::Obj(pairs) = &mut resp {
        for (k, v) in pairs.iter_mut() {
            if k == "id" {
                *v = id.into();
            }
        }
        pairs.push(("shard".into(), (shard as u64).into()));
    }
    resp
}

/// How one proxied watch stream against a shard ended.
enum StreamOutcome {
    /// Terminal status frame forwarded; the stream is complete.
    Done,
    /// The shard answered with a one-line refusal before streaming;
    /// forward it as the (single) response.
    Reply(Json),
    /// Transport trouble with the shard mid-stream; retry (possibly on a
    /// failover target) resuming from the carried cursor.
    Retry(Option<u64>),
}

/// Proxy the `watch` verb: attach to the owning shard's stream and
/// forward frames to the client. When the shard dies mid-stream the
/// stream *re-attaches*: the job is failed over to a surviving shard
/// (same spec, same idempotency key) and the watch restarts against the
/// new shard from sequence 0 — the new shard's bus numbers frames from
/// scratch, and the terminal status frame is never lost because every
/// attached stream ends with one. Returns `Ok(None)` when the stream
/// completed on the wire, `Ok(Some(resp))` for a one-line refusal.
fn op_watch_proxy(shared: &Shared, req: &Json, writer: &mut TcpStream) -> io::Result<Option<Json>> {
    let Some(id) = req.get("id").and_then(Json::as_u64) else {
        return Ok(Some(error_json("bad-request", "request needs an integer `id`")));
    };
    let Some((mut shard, mut shard_id)) = lock_jobs(shared).get(&id).map(|e| (e.shard, e.shard_id))
    else {
        return Ok(Some(error_json("unknown-job", &format!("no job {id}"))));
    };
    let mut cursor: Option<u64> = req.get("from_seq").and_then(Json::as_u64);
    let mut failures: u32 = 0;
    loop {
        if shared.shards[shard].health() == ShardHealth::Down {
            match failover(shared, id, shard) {
                Ok((s, sid)) => {
                    shard = s;
                    shard_id = sid;
                    // A new shard means a new progress bus whose sequence
                    // numbers restart at 0: resume from the top, not from
                    // the dead shard's cursor.
                    cursor = None;
                }
                Err(e) => return Ok(Some(e)),
            }
        }
        match watch_shard_stream(shared, shard, shard_id, id, cursor, writer)? {
            StreamOutcome::Done => return Ok(None),
            StreamOutcome::Reply(resp) => return Ok(Some(resp)),
            StreamOutcome::Retry(c) => {
                cursor = c;
                failures += 1;
                if failures > 10 {
                    shared.counters.degraded.fetch_add(1, Ordering::Relaxed);
                    return Ok(Some(error_json(
                        CODE_DEGRADED,
                        &format!("job {id}'s watch stream keeps failing; retry later"),
                    )));
                }
                // Brief pause so repeated connect-refused attempts march
                // the shard's failure counter to `Down` (unlocking the
                // failover branch above) without spinning.
                std::thread::sleep(Duration::from_millis(25).saturating_mul(failures.min(8)));
            }
        }
    }
}

/// One watch attempt against one shard on a dedicated connection,
/// forwarding frames to `writer` (the client). Shard-side trouble comes
/// back as [`StreamOutcome::Retry`]; a client-side write failure is the
/// `Err` arm — the client is gone and the proxy should just stop.
fn watch_shard_stream(
    shared: &Shared,
    shard: usize,
    shard_id: u64,
    router_id: u64,
    mut cursor: Option<u64>,
    writer: &mut TcpStream,
) -> io::Result<StreamOutcome> {
    shared.counters.forwarded.fetch_add(1, Ordering::Relaxed);
    let shard_fail = || {
        shared.counters.forward_errors.fetch_add(1, Ordering::Relaxed);
        record_failure(shared, shard, "forward");
    };
    let dial = || -> io::Result<TcpStream> {
        let sockaddr = shared.shards[shard].addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "unresolvable shard addr")
        })?;
        let s = TcpStream::connect_timeout(&sockaddr, shared.cfg.shard_io_timeout)?;
        s.set_nodelay(true).ok();
        s.set_read_timeout(Some(shared.cfg.shard_io_timeout))?;
        s.set_write_timeout(Some(shared.cfg.shard_io_timeout))?;
        Ok(s)
    };
    let stream = match dial() {
        Ok(s) => s,
        Err(_) => {
            shard_fail();
            return Ok(StreamOutcome::Retry(cursor));
        }
    };
    let mut shard_writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => {
            shard_fail();
            return Ok(StreamOutcome::Retry(cursor));
        }
    };
    let mut pairs: Vec<(&str, Json)> = vec![("op", "watch".into()), ("id", shard_id.into())];
    if let Some(seq) = cursor {
        pairs.push(("from_seq", seq.into()));
    }
    let mut req_line = Json::obj(pairs).to_string();
    req_line.push('\n');
    if shard_writer.write_all(req_line.as_bytes()).and_then(|()| shard_writer.flush()).is_err() {
        shard_fail();
        return Ok(StreamOutcome::Retry(cursor));
    }
    let mut reader = BufReader::new(stream);
    loop {
        let line = match read_line_bounded(&mut reader, MAX_REQUEST_BYTES) {
            Ok(Some(l)) => l,
            Ok(None) => {
                // Shard hung up mid-stream (killed, restarted, draining).
                shard_fail();
                return Ok(StreamOutcome::Retry(cursor));
            }
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                // The shard went quiet past our socket deadline — its
                // heartbeat cadence (daemon io-timeout / 2) may simply be
                // slower than `shard_io_timeout`. Keep the client socket
                // alive with a proxy heartbeat and keep listening, unless
                // the prober has since declared the shard dead.
                if shared.shards[shard].health() == ShardHealth::Down {
                    return Ok(StreamOutcome::Retry(cursor));
                }
                writer.write_all(b"{\"frame\":\"heartbeat\",\"state\":\"proxied\"}\n")?;
                writer.flush()?;
                continue;
            }
            Err(_) => {
                shard_fail();
                return Ok(StreamOutcome::Retry(cursor));
            }
        };
        let v = match Json::parse(&line) {
            Ok(v) => v,
            Err(_) => {
                shard_fail();
                return Ok(StreamOutcome::Retry(cursor));
            }
        };
        match v.get("frame").and_then(Json::as_str) {
            Some("status") => {
                // Terminal frame: rewrite to the router's identity (the
                // shard-local id must never leak) and finish the stream.
                write_line(writer, &with_router_identity(v, router_id, shard).to_string())?;
                return Ok(StreamOutcome::Done);
            }
            Some(_) => {
                if let Some(seq) = v.get("seq").and_then(Json::as_u64) {
                    cursor = Some(seq + 1);
                }
                // Progress / gap / heartbeat frames forward verbatim (the
                // line still carries its newline).
                writer.write_all(line.as_bytes())?;
                writer.flush()?;
            }
            None => {
                // A one-line response instead of a stream: a typed
                // refusal (unknown-job after a shard restart, bad-request
                // from a daemon predating `watch`, ...).
                if v.get("ok").and_then(Json::as_bool) == Some(false) {
                    let code = v.get("code").and_then(Json::as_str).unwrap_or("error").to_string();
                    let message = v.get("error").and_then(Json::as_str).unwrap_or("").to_string();
                    return Ok(StreamOutcome::Reply(with_router_identity(
                        error_json(&code, &message),
                        router_id,
                        shard,
                    )));
                }
                shard_fail();
                return Ok(StreamOutcome::Retry(cursor));
            }
        }
    }
}

// ----------------------------------------------------- stats & metrics

fn shards_in(shared: &Shared, health: ShardHealth) -> Value {
    shared.shards.iter().filter(|s| s.health() == health).count().into()
}

/// Every router counter and gauge, in `stats` key order: the single
/// source of the router's `stats` and of the router half of
/// `fleet-metrics`.
#[rustfmt::skip]
static ROUTER_ROWS: &[Row<Shared>] = &[
    Row::new(Gauge, Some("shards"), Some("stsyn_fleet_shards"), "Configured shards",
             |s| s.shards.len().into()),
    Row::new(Gauge, Some("shards_up"), Some("stsyn_fleet_shards_up"), "Shards currently up",
             |s| shards_in(s, ShardHealth::Up)),
    Row::new(Gauge, Some("shards_degraded"), Some("stsyn_fleet_shards_degraded"), "Shards currently degraded",
             |s| shards_in(s, ShardHealth::Degraded)),
    Row::new(Gauge, Some("shards_down"), Some("stsyn_fleet_shards_down"), "Shards currently down",
             |s| shards_in(s, ShardHealth::Down)),
    Row::new(Counter, Some("accepted"), Some("stsyn_route_accepted_total"), "Submissions admitted by the router",
             |s| load(&s.counters.accepted)),
    Row::new(Counter, Some("dedup_hits"), Some("stsyn_route_dedup_total"), "Submissions answered from the router's idempotency map",
             |s| load(&s.counters.dedup_hits)),
    Row::new(Counter, Some("failovers"), Some("stsyn_route_failovers_total"), "Jobs resubmitted to a surviving shard after shard death",
             |s| load(&s.counters.failovers)),
    Row::new(Counter, Some("no_shards"), Some("stsyn_route_no_shards_total"), "Requests answered no-shards (whole fleet unreachable)",
             |s| load(&s.counters.no_shards)),
    Row::new(Counter, Some("degraded_answered"), Some("stsyn_route_degraded_total"), "Requests answered degraded (home shard down, no failover path)",
             |s| load(&s.counters.degraded)),
    Row::new(Counter, Some("forwarded"), Some("stsyn_route_forwarded_total"), "Requests forwarded to shards",
             |s| load(&s.counters.forwarded)),
    Row::new(Counter, Some("forward_errors"), Some("stsyn_route_forward_errors_total"), "Forwards that failed at the transport layer",
             |s| load(&s.counters.forward_errors)),
    Row::new(Gauge, Some("jobs_tracked"), None, "Router ids in the job map",
             |s| lock_jobs(s).len().into()),
    Row::new(Gauge, Some("uptime_secs"), Some("stsyn_route_uptime_seconds"), "Router uptime",
             |s| s.started.elapsed().as_secs_f64().into()),
];

fn router_counter_pairs(shared: &Shared) -> Vec<(&'static str, Json)> {
    let mut pairs = vec![("role", Json::from("router"))];
    pairs.extend(json_pairs(ROUTER_ROWS, shared));
    pairs
}

fn op_router_stats(shared: &Shared) -> Json {
    let mut pairs = vec![("ok", Json::from(true))];
    pairs.extend(router_counter_pairs(shared));
    Json::obj(pairs)
}

/// `fleet-stats`: the router's own counters plus one entry per shard —
/// health, probe telemetry, and (for reachable shards) the shard's own
/// `stats` response inline.
fn op_fleet_stats(shared: &Shared) -> Json {
    let mut shard_objs = Vec::with_capacity(shared.shards.len());
    for (i, s) in shared.shards.iter().enumerate() {
        let mut pairs: Vec<(&str, Json)> = vec![
            ("shard", (i as u64).into()),
            ("addr", s.addr.as_str().into()),
            ("health", s.health().name().into()),
            ("consec_failures", u64::from(s.consec_failures.load(Ordering::SeqCst)).into()),
            ("latency_us", s.last_latency_us.load(Ordering::Relaxed).into()),
            ("probes_ok", s.probes_ok.load(Ordering::Relaxed).into()),
            ("probes_failed", s.probes_failed.load(Ordering::Relaxed).into()),
            ("went_down", s.went_down.load(Ordering::Relaxed).into()),
        ];
        if s.health() != ShardHealth::Down {
            if let Ok(stats) = shard_request(shared, i, &Json::obj(vec![("op", "stats".into())])) {
                pairs.push(("stats", stats));
            }
        }
        shard_objs.push(Json::obj(pairs));
    }
    let mut pairs = vec![("ok", Json::from(true))];
    pairs.push(("router", Json::obj(router_counter_pairs(shared))));
    pairs.push(("shards", Json::Arr(shard_objs)));
    Json::obj(pairs)
}

/// `store-stats` / `store-gc`: fan the store verb out to every
/// reachable shard and answer with per-shard responses plus fleet
/// totals (a shard with its store disabled reports but contributes
/// nothing to the sums). `store-gc` forwards an optional `cap_bytes`
/// override verbatim.
fn op_store_fanout(shared: &Shared, req: &Json, op: &str) -> Json {
    // `store-stats` sums every store counter, and every store gauge that
    // also has a fleet series (not the configured cap).
    let sum_keys: Vec<&str> = if op == "store-gc" {
        vec!["evicted", "freed_bytes", "entries", "bytes"]
    } else {
        server::store_row_names()
            .filter(|n| n.kind == Kind::Counter || n.fleet.is_some())
            .filter_map(|n| store_stats_key(&n))
            .collect()
    };
    let mut fwd_pairs: Vec<(&str, Json)> = vec![("op", op.into())];
    if let Some(cap) = req.get("cap_bytes").and_then(Json::as_u64) {
        fwd_pairs.push(("cap_bytes", cap.into()));
    }
    let fwd = Json::obj(fwd_pairs);
    let mut shard_objs = Vec::with_capacity(shared.shards.len());
    let mut totals = vec![0u64; sum_keys.len()];
    let mut reporting = 0u64;
    for (i, s) in shared.shards.iter().enumerate() {
        if s.health() == ShardHealth::Down {
            continue;
        }
        let mut pairs: Vec<(&str, Json)> =
            vec![("shard", (i as u64).into()), ("addr", s.addr.as_str().into())];
        match shard_request(shared, i, &fwd) {
            Ok(resp) => {
                if resp.get("ok").and_then(Json::as_bool) == Some(true) {
                    reporting += 1;
                    for (slot, key) in totals.iter_mut().zip(&sum_keys) {
                        *slot += resp.get(key).and_then(Json::as_u64).unwrap_or(0);
                    }
                }
                pairs.push(("response", resp));
            }
            Err(e) => pairs.push(("error", e.to_string().as_str().into())),
        }
        shard_objs.push(Json::obj(pairs));
    }
    let mut pairs: Vec<(&str, Json)> = vec![
        ("ok", true.into()),
        ("role", "router".into()),
        ("shards_reporting", reporting.into()),
    ];
    for (key, total) in sum_keys.iter().zip(&totals) {
        pairs.push((key, (*total).into()));
    }
    pairs.push(("shards", Json::Arr(shard_objs)));
    Json::obj(pairs)
}

/// `fleet-metrics`: Prometheus text aggregating the fleet — the router's
/// own rows, plus every daemon row with a fleet series summed over the
/// reachable shards' `stats`. Histograms sum bucket-wise — the whole
/// point of shipping buckets (not averages) on the wire.
fn op_fleet_metrics(shared: &Shared) -> Json {
    let mut m = MetricsText::new();
    m.rows(ROUTER_ROWS, shared);
    let summed: Vec<(&str, Names)> =
        server::row_names().filter_map(|n| Some((n.fleet?, n))).collect();
    let mut totals: Vec<Value> = summed
        .iter()
        .map(|(_, n)| match n.kind {
            Kind::Histogram => Value::Hist(HistogramSnapshot::empty()),
            _ => Value::Num(0.0),
        })
        .collect();
    let mut reachable = 0u64;
    for (i, s) in shared.shards.iter().enumerate() {
        if s.health() == ShardHealth::Down {
            continue;
        }
        let Ok(stats) = shard_request(shared, i, &Json::obj(vec![("op", "stats".into())])) else {
            continue;
        };
        for ((_, names), total) in summed.iter().zip(&mut totals) {
            match (total, stats_value(&stats, names)) {
                (Value::Num(t), Some(Value::Num(v))) => *t += v,
                (Value::Hist(t), Some(Value::Hist(h))) => t.merge(&h),
                _ => {}
            }
        }
        reachable += 1;
    }
    for ((series, names), total) in summed.iter().zip(&totals) {
        let help = format!("{} across reachable shards", names.help);
        m.sample(series, names.kind, &help, total);
    }
    m.sample(
        "stsyn_fleet_shards_reporting",
        Kind::Gauge,
        "Shards that answered the stats scrape",
        &reachable.into(),
    );
    Json::obj(vec![("ok", true.into()), ("metrics", m.render().into())])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_deterministic_and_covers_all_shards() {
        let a = HashRing::new(5);
        let b = HashRing::new(5);
        let mut seen = std::collections::HashSet::new();
        for key in 0..2000u64 {
            let s = a.shard_for(key).unwrap();
            assert_eq!(Some(s), b.shard_for(key), "ring must be deterministic");
            seen.insert(s);
        }
        assert_eq!(seen.len(), 5, "2000 keys must touch every shard");
    }

    #[test]
    fn ring_balances_keys_within_bound() {
        const SHARDS: usize = 3;
        const KEYS: u64 = 30_000;
        let ring = HashRing::new(SHARDS);
        let mut counts = [0u64; SHARDS];
        for key in 0..KEYS {
            counts[ring.shard_for(key).unwrap()] += 1;
        }
        let fair = KEYS / SHARDS as u64;
        for (s, &c) in counts.iter().enumerate() {
            assert!(
                c > fair / 2 && c < fair * 2,
                "shard {s} holds {c} of {KEYS} keys (fair share {fair}); counts {counts:?}"
            );
        }
    }

    #[test]
    fn removing_a_shard_remaps_only_its_keys() {
        const SHARDS: usize = 4;
        const REMOVED: usize = 2;
        let ring = HashRing::new(SHARDS);
        let mut moved = 0u64;
        for key in 0..10_000u64 {
            let before = ring.shard_for(key).unwrap();
            let after = ring.shard_for_available(key, |s| s != REMOVED).unwrap();
            if before == REMOVED {
                moved += 1;
                assert_ne!(after, REMOVED);
            } else {
                // Minimal disruption: a key not on the removed shard must
                // not move at all.
                assert_eq!(before, after, "key {key} moved needlessly");
            }
        }
        assert!(moved > 0, "the removed shard must have owned some keys");
    }

    #[test]
    fn failover_walk_is_deterministic_and_exhaustion_is_none() {
        let ring = HashRing::new(3);
        for key in 0..500u64 {
            let a = ring.shard_for_available(key, |s| s == 1);
            assert_eq!(a, Some(1), "only shard 1 available");
            assert_eq!(ring.shard_for_available(key, |_| false), None);
        }
        assert_eq!(HashRing::new(0).shard_for(7), None);
    }

    #[test]
    fn vnode_points_do_not_collide() {
        let ring = HashRing::new(8);
        let mut points: Vec<u64> = ring.points.iter().map(|&(p, _)| p).collect();
        let n = points.len();
        points.dedup();
        assert_eq!(n, points.len(), "mix64 of distinct inputs must not collide");
        assert_eq!(n, 8 * HashRing::VNODES);
    }

    #[test]
    fn health_names_round_trip() {
        for h in [ShardHealth::Up, ShardHealth::Degraded, ShardHealth::Down] {
            assert_eq!(ShardHealth::from_u8(h.as_u8()), h);
        }
        assert_eq!(ShardHealth::Up.name(), "up");
        assert_eq!(ShardHealth::Down.name(), "down");
    }
}
