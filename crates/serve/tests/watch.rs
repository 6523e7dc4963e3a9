//! Integration tests of the `watch` streaming verb: live rank-layer
//! frames end to end, heartbeats outliving `--io-timeout`, re-attach
//! through the router across a shard SIGKILL, and a seeded chaos sweep
//! cutting watch streams mid-flight without disturbing the job.

use std::time::{Duration, Instant};
use stsyn_serve::{
    ChaosProxy, Client, FaultPlan, JobSource, Json, RetryPolicy, Server, ServerConfig,
    ShutdownMode, SubmitSpec, WatchFrame,
};

/// Minimal self-cleaning temp dir (no external crate).
mod tempdir {
    use std::path::PathBuf;

    pub struct TempDir {
        pub path: PathBuf,
    }

    impl TempDir {
        pub fn new(tag: &str) -> TempDir {
            let path = std::env::temp_dir().join(format!(
                "stsyn-watch-{tag}-{}-{}",
                std::process::id(),
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .unwrap()
                    .as_nanos()
            ));
            std::fs::create_dir_all(&path).unwrap();
            TempDir { path }
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }
}

const WAIT: Duration = Duration::from_secs(300);

fn case(name: &str, n: usize) -> SubmitSpec {
    SubmitSpec::new(JobSource::Case { name: name.into(), n, d: 0 })
}

fn start(cfg: ServerConfig) -> (stsyn_serve::ServerHandle, std::net::SocketAddr) {
    let handle = Server::start(cfg).unwrap();
    let addr = handle.addr();
    (handle, addr)
}

fn poll_state(client: &mut Client, id: u64, want: &str, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    loop {
        let state = client.state(id).unwrap();
        if state == want {
            return;
        }
        assert!(Instant::now() < deadline, "job {id} stuck in `{state}` waiting for `{want}`");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Everything a test wants to know about one watch stream, gathered by
/// the `on_frame` callback.
#[derive(Default)]
struct Collected {
    /// `rank` field of every `rank.layer` progress frame, in order.
    ranks: Vec<u64>,
    /// `max_rank` from the `synthesis.stats` progress frame, if seen.
    max_rank: Option<u64>,
    /// Names of all progress-frame events, in order.
    names: Vec<String>,
    /// Heartbeat states, in order.
    heartbeats: Vec<String>,
    /// Frames lost to gap markers.
    gaps: u64,
    /// Did the terminal status frame arrive, and was it the last frame?
    terminal_last: bool,
}

impl Collected {
    fn sink(&mut self) -> impl FnMut(&WatchFrame) + '_ {
        |frame| {
            self.terminal_last = false;
            match frame {
                WatchFrame::Progress { event, .. } => {
                    let name = event.get("name").and_then(Json::as_str).unwrap_or("").to_string();
                    if name == "rank.layer" {
                        if let Some(rank) = event.get("rank").and_then(Json::as_u64) {
                            self.ranks.push(rank);
                        }
                    }
                    if name == "synthesis.stats" {
                        self.max_rank = event.get("max_rank").and_then(Json::as_u64);
                    }
                    self.names.push(name);
                }
                WatchFrame::Gap { missed } => self.gaps += missed,
                WatchFrame::Heartbeat { state } => self.heartbeats.push(state.clone()),
                WatchFrame::Status(_) => self.terminal_last = true,
            }
        }
    }
}

/// The tentpole acceptance path: a watch attached while the job is still
/// queued streams one `rank.layer` frame per rank layer of a token-ring
/// synthesis, the stream ends with the terminal status frame, and the
/// daemon's `metrics` expose the latency histograms the run fed.
#[test]
fn watch_streams_every_rank_layer_then_terminal_status() {
    let dir = tempdir::TempDir::new("layers");
    let mut cfg = ServerConfig::new(&dir.path);
    cfg.workers = 1;
    let (handle, addr) = start(cfg);
    let mut client = Client::connect(addr).unwrap();

    // A long job pins the single worker so the watch attaches while the
    // token-ring job is still queued: the tracer tee only emits detail
    // while a subscriber is on the bus, so subscribing before the run
    // starts is what guarantees every rank layer is seen live.
    let _blocker = client.submit(&case("coloring", 12)).unwrap();
    let id = client.submit(&case("token_ring", 4)).unwrap();

    let mut got = Collected::default();
    let status = client.watch(id, got.sink()).unwrap();

    assert_eq!(status.get("state").and_then(Json::as_str), Some("done"), "status: {status}");
    assert!(got.terminal_last, "the status frame must be the last frame of the stream");
    assert_eq!(got.gaps, 0, "a live watch of a small job must not drop frames");

    // One frame per rank layer: the observed ranks cover 1..=max_rank
    // exactly, with max_rank read from the synthesis.stats frame of the
    // same stream.
    let max_rank = got.max_rank.expect("stream carried no synthesis.stats frame");
    assert!(max_rank >= 1, "token_ring(4) must rank at least one layer");
    let seen: std::collections::HashSet<u64> = got.ranks.iter().copied().collect();
    let missing: Vec<u64> = (1..=max_rank).filter(|r| !seen.contains(r)).collect();
    assert!(
        missing.is_empty(),
        "rank.layer frames missing layers {missing:?} of 1..={max_rank} (saw {:?})",
        got.ranks
    );

    // Lifecycle frames replayed from the bus ring bracket the detail.
    assert!(
        got.names.iter().any(|n| n == "job.state"),
        "expected job.state lifecycle frames, saw {:?}",
        got.names
    );

    // The finished jobs fed the latency histograms surfaced by `stats`
    // and the Prometheus `metrics` exposition.
    let done = client.wait(id, WAIT).unwrap();
    assert_eq!(done.get("state").and_then(Json::as_str), Some("done"));

    // Waiting on an id the daemon never issued is a typed rejection,
    // answered at once rather than after the wait's timeout.
    let asked = Instant::now();
    let err = client.wait(999_999, WAIT).unwrap_err();
    assert_eq!(err.code(), Some("unknown-job"), "{err:?}");
    assert!(asked.elapsed() < Duration::from_secs(5), "took {:?}", asked.elapsed());

    let stats = client.stats().unwrap();
    let latency = stats.get("latency").expect("stats lacks the latency histograms");
    for key in ["queue_wait", "run", "submit_to_result"] {
        let h = latency.get(key).unwrap_or_else(|| panic!("latency lacks `{key}`: {latency}"));
        assert!(h.get("count").and_then(Json::as_u64).unwrap() >= 1, "{key}: {h}");
    }
    let text = client.metrics().unwrap();
    for series in [
        "stsyn_queue_wait_seconds_bucket",
        "stsyn_run_seconds_bucket",
        "stsyn_submit_to_result_seconds_bucket",
        "stsyn_run_seconds_sum",
        "stsyn_run_seconds_count",
    ] {
        assert!(text.contains(series), "metrics missing `{series}`:\n{text}");
    }
    assert!(text.contains("# TYPE stsyn_run_seconds histogram"), "{text}");

    handle.shutdown(ShutdownMode::Drain);
    handle.join();
}

/// A watch with *nothing to say* — the job is parked in the queue behind
/// a long blocker — must survive well past the socket deadline on
/// heartbeats alone. The client uses a no-retry policy with a read
/// timeout shorter than the blocker's runtime, so if heartbeats stopped
/// the watch would fail instead of completing.
#[test]
fn heartbeats_keep_a_quiet_watch_alive_past_io_timeout() {
    let dir = tempdir::TempDir::new("heartbeat");
    let mut cfg = ServerConfig::new(&dir.path);
    cfg.workers = 1;
    // Tight daemon deadline: heartbeats fire every ~100 ms.
    cfg.io_timeout = Duration::from_millis(200);
    let (handle, addr) = start(cfg);

    let policy = RetryPolicy {
        max_retries: 0,
        base_delay: Duration::from_millis(5),
        max_delay: Duration::from_millis(50),
        io_timeout: Some(Duration::from_millis(500)),
        seed: Some(11),
    };
    let mut client = Client::connect_with(addr, policy).unwrap();
    // The blocker runs until its wall-clock budget ends it, however fast
    // the synthesizer is: coloring(40) takes several seconds to solve.
    let mut blocker = case("coloring", 40);
    blocker.timeout_secs = Some(1.5);
    let blocker = client.submit(&blocker).unwrap();
    poll_state(&mut client, blocker, "running", WAIT);
    let id = client.submit(&case("token_ring", 3)).unwrap();

    let mut got = Collected::default();
    let status = client.watch(id, got.sink()).unwrap();

    assert_eq!(status.get("state").and_then(Json::as_str), Some("done"), "status: {status}");
    assert!(got.terminal_last);
    assert!(
        got.heartbeats.iter().filter(|s| s.as_str() == "queued").count() >= 2,
        "expected queued-state heartbeats while parked behind the blocker, saw {:?}",
        got.heartbeats
    );

    handle.shutdown(ShutdownMode::Drain);
    handle.join();
}

/// One real `stsyn serve` child process (SIGKILLed on drop).
struct Daemon {
    child: std::process::Child,
    addr: String,
}

impl Daemon {
    fn spawn(state_dir: &std::path::Path) -> Daemon {
        use std::io::BufRead;
        let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_stsyn"))
            .arg("serve")
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--workers")
            .arg("1")
            .arg("--state-dir")
            .arg(state_dir)
            .arg("--print-addr")
            .stdout(std::process::Stdio::piped())
            .spawn()
            .unwrap();
        let mut line = String::new();
        std::io::BufReader::new(child.stdout.take().unwrap()).read_line(&mut line).unwrap();
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected daemon banner: {line:?}"));
        Daemon { child, addr: addr.to_string() }
    }

    fn kill(&mut self) {
        let _ = self.child.kill(); // SIGKILL on Unix — no cleanup runs
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill();
    }
}

/// SIGKILL the shard that owns a watched job: the router re-attaches the
/// stream to the failover shard and still delivers the terminal status
/// frame — under the router's identity — without the client redialing.
/// The fleet metrics then expose the merged latency histograms.
#[test]
fn watch_reattaches_through_router_after_shard_sigkill() {
    let dir = tempdir::TempDir::new("failover");
    let spec = case("coloring", 14);
    let reference = spec.materialize().unwrap().run().unwrap().emitted_dsl;

    let mut daemons: Vec<Daemon> =
        (0..2).map(|i| Daemon::spawn(&dir.path.join(format!("shard{i}")))).collect();
    let mut cfg = stsyn_serve::RouterConfig::new(daemons.iter().map(|d| d.addr.clone()).collect());
    cfg.probe_interval = Duration::from_millis(50);
    cfg.probe_timeout = Duration::from_millis(250);
    cfg.down_after = 2;
    cfg.shard_io_timeout = Duration::from_secs(2);
    let router = stsyn_serve::Router::start(cfg).unwrap();

    let policy = RetryPolicy {
        max_retries: 10,
        base_delay: Duration::from_millis(50),
        max_delay: Duration::from_secs(1),
        io_timeout: Some(Duration::from_secs(30)),
        seed: Some(23),
    };
    let mut client = Client::connect_with(router.addr(), policy.clone()).unwrap();
    let resp =
        client.request(&Json::obj(vec![("op", "submit".into()), ("job", spec.to_json())])).unwrap();
    let id = resp.get("id").and_then(Json::as_u64).unwrap();
    let victim = resp.get("shard").and_then(Json::as_u64).unwrap() as usize;
    poll_state(&mut client, id, "running", WAIT);

    // Watch from a second connection so killing the shard interrupts a
    // stream that is genuinely mid-flight.
    let router_addr = router.addr();
    let watcher = std::thread::spawn(move || {
        let mut client = Client::connect_with(router_addr, policy).unwrap();
        let mut got = Collected::default();
        let status = client.watch(id, got.sink());
        (status, got)
    });
    // Give the watcher a moment to attach, then pull the shard out.
    std::thread::sleep(Duration::from_millis(150));
    daemons[victim].kill();

    let (status, got) = watcher.join().unwrap();
    let status = status.expect("watch lost across the shard failover");
    assert_eq!(status.get("state").and_then(Json::as_str), Some("done"), "status: {status}");
    assert_eq!(
        status.get("id").and_then(Json::as_u64),
        Some(id),
        "terminal frame must carry the router's job id, not the shard's"
    );
    assert!(status.get("shard").is_some(), "terminal frame lacks the owning shard: {status}");
    assert!(got.terminal_last, "the stream must end with the terminal status frame");

    // The job itself is intact: byte-identical to the single-shot run,
    // and the router recorded the failover.
    let result = client.wait(id, WAIT).unwrap();
    assert_eq!(result.get("protocol").and_then(Json::as_str), Some(reference.as_str()));
    let fs = client.fleet_stats().unwrap();
    let failovers = fs.get("router").and_then(|r| r.get("failovers")).and_then(Json::as_u64);
    assert!(failovers.unwrap() >= 1, "router never failed the job over: {fs}");

    // Fleet metrics aggregate the shards' latency histograms.
    let text = client.fleet_metrics().unwrap();
    for series in [
        "stsyn_fleet_queue_wait_seconds_bucket",
        "stsyn_fleet_run_seconds_bucket",
        "stsyn_fleet_submit_to_result_seconds_bucket",
    ] {
        assert!(text.contains(series), "fleet metrics missing `{series}`:\n{text}");
    }

    router.shutdown();
    router.join();
    for d in &mut daemons {
        d.kill();
    }
}

fn watch_sweep_points() -> u64 {
    std::env::var("WATCH_SWEEP_POINTS").ok().and_then(|v| v.parse().ok()).unwrap_or(6)
}

/// Seeded chaos sweep over watch streams: each point routes a fresh
/// watch through a fault proxy that cuts, tears, stalls or slow-walks
/// the stream mid-flight. The client resumes from its cursor; every
/// watched job still completes exactly once with reference bytes.
#[test]
fn chaos_cut_watch_streams_resume_and_leave_jobs_untouched() {
    let points = watch_sweep_points();
    let dir = tempdir::TempDir::new("chaos");
    let mut cfg = ServerConfig::new(&dir.path);
    cfg.workers = 1;
    // Short deadline: severed watch connections are reaped quickly and
    // heartbeats (deadline/2) outpace the client's per-read timeout.
    cfg.io_timeout = Duration::from_millis(250);
    let handle = Server::start(cfg).unwrap();
    let upstream = handle.addr();

    let spec = case("coloring", 10);
    let reference = spec.materialize().unwrap().run().unwrap().emitted_dsl;

    let mut ids = Vec::new();
    let mut fired_total: u64 = 0;
    for point in 0..points {
        let plan = FaultPlan::derive(0x57A7C4, point, Duration::from_millis(300));
        let proxy = ChaosProxy::start(upstream, plan)
            .unwrap_or_else(|e| panic!("point {point}: proxy failed to start: {e}"));
        let policy = RetryPolicy {
            max_retries: 10,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(50),
            io_timeout: Some(Duration::from_millis(800)),
            seed: Some(point),
        };
        let mut client = Client::connect_with(proxy.addr(), policy)
            .unwrap_or_else(|e| panic!("point {point} ({plan:?}): connect failed: {e}"));
        let id = client
            .submit(&spec)
            .unwrap_or_else(|e| panic!("point {point} ({plan:?}): submit failed: {e}"));
        let mut got = Collected::default();
        let status = client
            .watch(id, got.sink())
            .unwrap_or_else(|e| panic!("point {point} ({plan:?}): watch of job {id} lost: {e}"));
        assert_eq!(
            status.get("state").and_then(Json::as_str),
            Some("done"),
            "point {point} ({plan:?}): job {id} did not complete: {status}"
        );
        assert!(got.terminal_last, "point {point} ({plan:?}): stream did not end on status");
        ids.push(id);
        fired_total += proxy.fired();
        proxy.stop();
    }

    // Each point was a distinct logical submission; faults must not have
    // duplicated (or lost) any of them, and the watched jobs' results
    // are byte-identical to the fault-free reference.
    let unique: std::collections::HashSet<u64> = ids.iter().copied().collect();
    assert_eq!(unique.len() as u64, points, "duplicate job ids in {ids:?}");
    let mut direct = Client::connect(upstream).unwrap();
    for &id in &ids {
        let result = direct.result(id).unwrap();
        assert_eq!(
            result.get("protocol").and_then(Json::as_str),
            Some(reference.as_str()),
            "job {id}: result diverged after its watch was cut"
        );
    }
    let stats = direct.stats().unwrap();
    assert_eq!(stats.get("accepted").and_then(Json::as_u64), Some(points), "stats: {stats}");
    assert_eq!(stats.get("completed").and_then(Json::as_u64), Some(points), "stats: {stats}");
    // The sweep proves nothing if the faults never landed mid-stream.
    assert!(fired_total >= points / 3, "only {fired_total}/{points} fault points fired");

    handle.shutdown(ShutdownMode::Drain);
    handle.join();
}
