//! A blocking client for the job service, used by `stsyn client ...`,
//! the loopback test-suite and the throughput bench.
//!
//! ## Resilience
//!
//! Transient failures — a refused or dropped connection, a `queue-full`
//! or `busy` rejection, a read that hit the socket deadline — are
//! retried with capped exponential backoff and jitter, up to
//! [`RetryPolicy::max_retries`] times per request. Retrying a `submit`
//! is safe because every logical submission carries an idempotency key
//! (auto-derived per [`Client::submit`] call): if the first attempt
//! reached the daemon and only the *response* was lost, the retry is
//! answered with the already-admitted job id instead of enqueueing a
//! duplicate. Permanent rejections (`input-error`, `unknown-job`,
//! `quarantined`, ...) are never retried.

use crate::chaos::XorShift64;
use crate::json::Json;
use crate::server::ShutdownMode;
use crate::wire::SubmitSpec;
use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Why a client call failed.
#[derive(Debug, Clone)]
pub enum ClientError {
    /// Connecting, reading or writing the socket failed.
    Io(String),
    /// The server answered with something unparseable (or hung up).
    Protocol(String),
    /// The server refused the request; carries the wire error code
    /// (`queue-full`, `busy`, `input-error`, `unknown-job`, ...) and
    /// message.
    Rejected {
        /// Machine-readable error code.
        code: String,
        /// Human-readable explanation.
        message: String,
    },
    /// A wait timed out before the job reached a terminal state.
    Timeout,
}

impl ClientError {
    /// The wire error code, when the server refused the request.
    pub fn code(&self) -> Option<&str> {
        match self {
            ClientError::Rejected { code, .. } => Some(code),
            _ => None,
        }
    }

    /// Is this worth another attempt? Connection trouble, garbled frames
    /// and explicit backpressure are transient; everything else is a
    /// definitive answer.
    fn is_transient(&self) -> bool {
        match self {
            ClientError::Io(_) | ClientError::Protocol(_) => true,
            // `degraded` / `no-shards` come from the router while the
            // fleet is mid-fault; a stabilizing fleet serves them soon.
            ClientError::Rejected { code, .. } => {
                matches!(code.as_str(), "queue-full" | "busy" | "degraded" | "no-shards")
            }
            ClientError::Timeout => false,
        }
    }
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(m) => write!(f, "connection error: {m}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Rejected { code, message } => write!(f, "{code}: {message}"),
            ClientError::Timeout => write!(f, "timed out waiting for the job to finish"),
        }
    }
}

impl std::error::Error for ClientError {}

/// One frame of a `watch` stream (see `op_watch_stream` in the server).
#[derive(Debug, Clone)]
pub enum WatchFrame {
    /// A progress event teed from the job's tracer (or a `job.state`
    /// lifecycle event), with its bus sequence number.
    Progress {
        /// Bus sequence number (resume cursor).
        seq: u64,
        /// The trace/lifecycle record.
        event: Json,
    },
    /// The bus dropped `missed` frames before this point (slow reader or
    /// late subscribe past the replay window).
    Gap {
        /// How many frames were lost.
        missed: u64,
    },
    /// Liveness frame while the job makes no visible progress.
    Heartbeat {
        /// Job state at heartbeat time (`queued` / `running`).
        state: String,
    },
    /// Terminal frame: the job's final `status` payload. Always last.
    Status(Json),
}

impl WatchFrame {
    fn from_json(v: &Json) -> Option<WatchFrame> {
        match v.get("frame").and_then(Json::as_str)? {
            "progress" => Some(WatchFrame::Progress {
                seq: v.get("seq").and_then(Json::as_u64)?,
                event: v.get("event").cloned().unwrap_or(Json::Null),
            }),
            "gap" => Some(WatchFrame::Gap { missed: v.get("missed").and_then(Json::as_u64)? }),
            "heartbeat" => Some(WatchFrame::Heartbeat {
                state: v.get("state").and_then(Json::as_str).unwrap_or("unknown").to_string(),
            }),
            "status" => Some(WatchFrame::Status(v.clone())),
            _ => None,
        }
    }
}

/// Retry/backoff configuration for one [`Client`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Extra attempts after the first failure (0 = fail fast).
    pub max_retries: u32,
    /// First backoff delay; doubles per attempt.
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
    /// Socket read/write deadline; `None` blocks forever (a `wait` on a
    /// long job polls, so requests themselves are always short).
    pub io_timeout: Option<Duration>,
    /// Jitter seed; `None` seeds from time/pid (tests pin it for
    /// reproducible schedules).
    pub seed: Option<u64>,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 4,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(2),
            io_timeout: Some(Duration::from_secs(30)),
            seed: None,
        }
    }
}

impl RetryPolicy {
    /// Fail-fast policy: no retries, no socket deadline. The error the
    /// daemon actually sent is what the caller sees.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
            io_timeout: None,
            seed: None,
        }
    }
}

fn auto_seed() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| u64::from(d.subsec_nanos()) ^ d.as_secs())
        .unwrap_or(0);
    nanos
        ^ (u64::from(std::process::id()) << 32)
        ^ COUNTER.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed)
}

/// One connection to a daemon; requests are serialized on it. The client
/// reconnects transparently when a retryable request finds the
/// connection dead.
pub struct Client {
    addr: String,
    policy: RetryPolicy,
    conn: Option<(BufReader<TcpStream>, TcpStream)>,
    rng: XorShift64,
    /// Salt for auto-derived idempotency keys: distinct per client, so
    /// two clients submitting the same workload still get two jobs.
    client_key: u64,
    /// Logical-submission counter feeding the auto idempotency key.
    seq: u64,
    /// Transient failures retried so far (observability; the CLI and
    /// tests read it).
    retries: u64,
}

impl Client {
    /// Connect to `addr` (e.g. `127.0.0.1:7411`) with the default retry
    /// policy.
    pub fn connect<A: ToSocketAddrs + ToString>(addr: A) -> Result<Client, ClientError> {
        Client::connect_with(addr, RetryPolicy::default())
    }

    /// Connect with an explicit retry policy. The initial dial itself is
    /// retried under the policy, so racing a daemon's startup works.
    pub fn connect_with<A: ToSocketAddrs + ToString>(
        addr: A,
        policy: RetryPolicy,
    ) -> Result<Client, ClientError> {
        let seed = policy.seed.unwrap_or_else(auto_seed);
        let mut rng = XorShift64::new(seed);
        let client_key = rng.next_u64();
        let mut client = Client {
            addr: addr.to_string(),
            policy,
            conn: None,
            rng,
            client_key,
            seq: 0,
            retries: 0,
        };
        let mut attempt: u32 = 0;
        loop {
            match client.dial() {
                Ok(()) => return Ok(client),
                Err(e) if attempt < client.policy.max_retries => {
                    attempt += 1;
                    client.retries += 1;
                    let delay = client.backoff_delay(attempt);
                    std::thread::sleep(delay);
                    let _ = e;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Transient failures retried by this client so far.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    fn dial(&mut self) -> Result<(), ClientError> {
        let stream =
            TcpStream::connect(self.addr.as_str()).map_err(|e| ClientError::Io(e.to_string()))?;
        stream.set_nodelay(true).ok();
        if let Some(t) = self.policy.io_timeout {
            stream.set_read_timeout(Some(t)).map_err(|e| ClientError::Io(e.to_string()))?;
            stream.set_write_timeout(Some(t)).map_err(|e| ClientError::Io(e.to_string()))?;
        }
        let reader =
            BufReader::new(stream.try_clone().map_err(|e| ClientError::Io(e.to_string()))?);
        self.conn = Some((reader, stream));
        Ok(())
    }

    /// Exponential backoff with half-jitter: half the nominal delay is
    /// deterministic, the other half uniformly random, so retrying
    /// clients don't stampede in lockstep.
    fn backoff_delay(&mut self, attempt: u32) -> Duration {
        let exp = self
            .policy
            .base_delay
            .saturating_mul(1u32 << (attempt - 1).min(16))
            .min(self.policy.max_delay);
        let nanos = exp.as_nanos() as u64;
        if nanos == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(nanos / 2 + self.rng.below(nanos / 2 + 1))
    }

    /// Send one request object, read one response object. Responses with
    /// `"ok": false` surface as [`ClientError::Rejected`]. Transient
    /// failures are retried per the policy, reconnecting as needed.
    pub fn request(&mut self, req: &Json) -> Result<Json, ClientError> {
        let mut attempt: u32 = 0;
        loop {
            let result = self.request_once(req);
            match result {
                Ok(v) => return Ok(v),
                Err(e) if e.is_transient() && attempt < self.policy.max_retries => {
                    attempt += 1;
                    self.retries += 1;
                    // Connection state after an I/O or framing failure is
                    // unknowable — and a `busy` rejection is followed by a
                    // server-side close — so start the next attempt fresh.
                    self.conn = None;
                    let delay = self.backoff_delay(attempt);
                    std::thread::sleep(delay);
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn request_once(&mut self, req: &Json) -> Result<Json, ClientError> {
        if self.conn.is_none() {
            self.dial()?;
        }
        let (reader, writer) = self.conn.as_mut().expect("dial() just set the connection");
        let mut line = req.to_string();
        line.push('\n');
        let sent = writer.write_all(line.as_bytes()).and_then(|()| writer.flush());
        if let Err(e) = sent {
            self.conn = None;
            return Err(ClientError::Io(e.to_string()));
        }
        let mut resp = String::new();
        let n = match reader.read_line(&mut resp) {
            Ok(n) => n,
            Err(e) => {
                self.conn = None;
                return Err(ClientError::Io(e.to_string()));
            }
        };
        if n == 0 {
            self.conn = None;
            return Err(ClientError::Protocol("server closed the connection".into()));
        }
        let v = match Json::parse(&resp) {
            Ok(v) => v,
            Err(e) => {
                self.conn = None;
                return Err(ClientError::Protocol(e.to_string()));
            }
        };
        if v.get("ok").and_then(Json::as_bool) == Some(false) {
            return Err(ClientError::Rejected {
                code: v.get("code").and_then(Json::as_str).unwrap_or("error").to_string(),
                message: v.get("error").and_then(Json::as_str).unwrap_or("").to_string(),
            });
        }
        Ok(v)
    }

    /// Submit a job; returns its id. When the spec carries no explicit
    /// idempotency key, one is derived for this call — stable across the
    /// call's internal retries (no duplicate jobs when a response is
    /// lost), distinct across calls (submitting the same workload twice
    /// on purpose still yields two jobs).
    pub fn submit(&mut self, spec: &SubmitSpec) -> Result<u64, ClientError> {
        let mut spec = spec.clone();
        if spec.idem.is_none() {
            self.seq += 1;
            spec.idem = Some(crate::wire::fold_idem(
                spec.fingerprint()
                    ^ self.client_key.wrapping_add(self.seq).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ));
        }
        let resp =
            self.request(&Json::obj(vec![("op", "submit".into()), ("job", spec.to_json())]))?;
        resp.get("id")
            .and_then(Json::as_u64)
            .ok_or_else(|| ClientError::Protocol("submit response lacks an id".into()))
    }

    /// Submit with content-addressed dedup: the idempotency key is the
    /// spec's [`fingerprint`](SubmitSpec::fingerprint), so an identical
    /// workload already known to the daemon — from any client, or from a
    /// previous daemon via restart recovery — returns the existing id.
    pub fn submit_dedup(&mut self, spec: &SubmitSpec) -> Result<u64, ClientError> {
        let mut spec = spec.clone();
        spec.idem = Some(spec.fingerprint());
        self.submit(&spec)
    }

    /// Job status (`state`, timings).
    pub fn status(&mut self, id: u64) -> Result<Json, ClientError> {
        self.request(&Json::obj(vec![("op", "status".into()), ("id", id.into())]))
    }

    /// The job's state string, for polling.
    pub fn state(&mut self, id: u64) -> Result<String, ClientError> {
        Ok(self.status(id)?.get("state").and_then(Json::as_str).unwrap_or("unknown").to_string())
    }

    /// Fetch the result of a finished job. A failed job surfaces as
    /// [`ClientError::Rejected`] with its failure code.
    pub fn result(&mut self, id: u64) -> Result<Json, ClientError> {
        self.request(&Json::obj(vec![("op", "result".into()), ("id", id.into())]))
    }

    /// Request cooperative cancellation.
    pub fn cancel(&mut self, id: u64) -> Result<Json, ClientError> {
        self.request(&Json::obj(vec![("op", "cancel".into()), ("id", id.into())]))
    }

    /// Service counters.
    pub fn stats(&mut self) -> Result<Json, ClientError> {
        self.request(&Json::obj(vec![("op", "stats".into())]))
    }

    /// Health probe: one `ping` round trip. Works against both a daemon
    /// and a router (the router's pong carries `role: "router"`).
    pub fn ping(&mut self) -> Result<Json, ClientError> {
        self.request(&Json::obj(vec![("op", "ping".into())]))
    }

    /// Fleet-wide stats from a router: its own counters plus per-shard
    /// health and (for reachable shards) each shard's `stats` inline.
    pub fn fleet_stats(&mut self) -> Result<Json, ClientError> {
        self.request(&Json::obj(vec![("op", "fleet-stats".into())]))
    }

    /// Fleet-wide Prometheus text from a router (router series plus job
    /// counters aggregated across reachable shards).
    pub fn fleet_metrics(&mut self) -> Result<String, ClientError> {
        let resp = self.request(&Json::obj(vec![("op", "fleet-metrics".into())]))?;
        resp.get("metrics")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| ClientError::Protocol("metrics response lacks a metrics field".into()))
    }

    /// Artifact store counters and footprint. Against a daemon this is
    /// its own store; against a router, per-shard responses plus fleet
    /// totals. Errors `store-disabled` when no store is configured.
    pub fn store_stats(&mut self) -> Result<Json, ClientError> {
        self.request(&Json::obj(vec![("op", "store-stats".into())]))
    }

    /// Evict store entries down to the configured cap, or to an
    /// explicit byte-cap override. A router fans the GC out to every
    /// reachable shard.
    pub fn store_gc(&mut self, cap_bytes: Option<u64>) -> Result<Json, ClientError> {
        let mut pairs: Vec<(&str, Json)> = vec![("op", "store-gc".into())];
        if let Some(cap) = cap_bytes {
            pairs.push(("cap_bytes", cap.into()));
        }
        self.request(&Json::obj(pairs))
    }

    /// Service counters and gauges as Prometheus text-format exposition.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        let resp = self.request(&Json::obj(vec![("op", "metrics".into())]))?;
        resp.get("metrics")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| ClientError::Protocol("metrics response lacks a metrics field".into()))
    }

    /// Ask the daemon to shut down.
    pub fn shutdown(&mut self, mode: ShutdownMode) -> Result<(), ClientError> {
        let mode = match mode {
            ShutdownMode::Drain => "drain",
            ShutdownMode::Checkpoint => "checkpoint",
        };
        self.request(&Json::obj(vec![("op", "shutdown".into()), ("mode", mode.into())])).map(|_| ())
    }

    /// Stream live progress for a job until it reaches a terminal state.
    /// `on_frame` sees every frame (progress events, gap markers,
    /// heartbeats) and finally the terminal [`WatchFrame::Status`], whose
    /// payload is also the return value. Transient transport failures
    /// mid-stream are retried per the policy, resuming from the last
    /// sequence number seen (dropped frames surface as
    /// [`WatchFrame::Gap`] if the bus has moved past it).
    pub fn watch(
        &mut self,
        id: u64,
        mut on_frame: impl FnMut(&WatchFrame),
    ) -> Result<Json, ClientError> {
        let mut cursor: Option<u64> = None;
        let mut attempt: u32 = 0;
        loop {
            match self.watch_once(id, &mut cursor, None, &mut on_frame) {
                Ok(status) => return Ok(status),
                Err(e) if e.is_transient() && attempt < self.policy.max_retries => {
                    attempt += 1;
                    self.retries += 1;
                    self.conn = None;
                    let delay = self.backoff_delay(attempt);
                    std::thread::sleep(delay);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// One watch attempt on the current connection. Updates `cursor` to
    /// `last seq + 1` as progress frames arrive so a retry resumes where
    /// this attempt stopped. With a `deadline`, per-read socket timeouts
    /// are clamped to the time remaining and expiry surfaces as
    /// [`ClientError::Timeout`].
    fn watch_once(
        &mut self,
        id: u64,
        cursor: &mut Option<u64>,
        deadline: Option<Instant>,
        on_frame: &mut dyn FnMut(&WatchFrame),
    ) -> Result<Json, ClientError> {
        if self.conn.is_none() {
            self.dial()?;
        }
        let (reader, writer) = self.conn.as_mut().expect("dial() just set the connection");
        let mut pairs: Vec<(&str, Json)> = vec![("op", "watch".into()), ("id", id.into())];
        if let Some(seq) = *cursor {
            pairs.push(("from_seq", seq.into()));
        }
        let mut line = Json::obj(pairs).to_string();
        line.push('\n');
        if let Err(e) = writer.write_all(line.as_bytes()).and_then(|()| writer.flush()) {
            self.conn = None;
            return Err(ClientError::Io(e.to_string()));
        }
        loop {
            if let Some(dl) = deadline {
                let remaining = dl.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    // The stream is mid-flight; this connection can't be
                    // reused for request/response traffic.
                    self.conn = None;
                    return Err(ClientError::Timeout);
                }
                let per_read = match self.policy.io_timeout {
                    Some(t) => t.min(remaining),
                    None => remaining,
                };
                writer.set_read_timeout(Some(per_read.max(Duration::from_millis(1)))).ok();
            }
            let mut resp = String::new();
            let n = match reader.read_line(&mut resp) {
                Ok(n) => n,
                Err(e) => {
                    self.conn = None;
                    let timed_out = matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    );
                    if timed_out && deadline.is_some_and(|dl| Instant::now() >= dl) {
                        return Err(ClientError::Timeout);
                    }
                    return Err(ClientError::Io(e.to_string()));
                }
            };
            if n == 0 {
                self.conn = None;
                return Err(ClientError::Protocol("server closed the connection".into()));
            }
            let v = match Json::parse(&resp) {
                Ok(v) => v,
                Err(e) => {
                    self.conn = None;
                    return Err(ClientError::Protocol(e.to_string()));
                }
            };
            if v.get("frame").is_none() {
                // A plain response instead of a stream: the setup was
                // refused (e.g. an unknown job). The connection stays
                // usable for ordinary requests.
                if v.get("ok").and_then(Json::as_bool) == Some(false) {
                    if deadline.is_some() {
                        writer.set_read_timeout(self.policy.io_timeout).ok();
                    }
                    return Err(ClientError::Rejected {
                        code: v.get("code").and_then(Json::as_str).unwrap_or("error").to_string(),
                        message: v.get("error").and_then(Json::as_str).unwrap_or("").to_string(),
                    });
                }
                self.conn = None;
                return Err(ClientError::Protocol("expected a watch frame".into()));
            }
            let frame = match WatchFrame::from_json(&v) {
                Some(f) => f,
                None => continue, // unknown frame kind from a newer server: skip
            };
            if let WatchFrame::Progress { seq, .. } = frame {
                *cursor = Some(seq + 1);
            }
            let terminal = matches!(frame, WatchFrame::Status(_));
            on_frame(&frame);
            if terminal {
                if deadline.is_some() {
                    // Restore the policy-wide socket deadline we clamped.
                    writer.set_read_timeout(self.policy.io_timeout).ok();
                }
                return Ok(v);
            }
        }
    }

    /// Wait until the job reaches a terminal state, then fetch its
    /// result. Cancelled jobs surface as `Rejected { code: "cancelled" }`.
    ///
    /// Rides the live progress stream (`watch`): one long-lived read that
    /// wakes the moment the terminal frame lands. A stream that drops is
    /// re-attached from its cursor with the policy's backoff; once the
    /// retries run out, the last stream error is returned. A refused
    /// watch (e.g. `unknown-job`) is returned at once.
    pub fn wait(&mut self, id: u64, timeout: Duration) -> Result<Json, ClientError> {
        let deadline = Instant::now() + timeout;
        let mut cursor: Option<u64> = None;
        let mut attempt: u32 = 0;
        loop {
            match self.watch_once(id, &mut cursor, Some(deadline), &mut |_| {}) {
                Ok(_status) => return self.result(id),
                Err(e) if e.is_transient() && attempt < self.policy.max_retries => {
                    attempt += 1;
                    self.retries += 1;
                    self.conn = None;
                    std::thread::sleep(
                        self.backoff_delay(attempt)
                            .min(deadline.saturating_duration_since(Instant::now())),
                    );
                }
                Err(e) => return Err(e),
            }
            if Instant::now() >= deadline {
                return Err(ClientError::Timeout);
            }
        }
    }
}
