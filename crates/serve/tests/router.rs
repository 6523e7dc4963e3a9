//! Loopback integration tests of the fleet router: shard-aware
//! proxying with id rewriting, router-level idempotency, typed
//! `degraded`/`no-shards` answers with bounded latency, failover to a
//! surviving shard, and automatic re-adoption after the fault heals.
//!
//! Shards here are in-process [`Server`]s behind [`LinkProxy`]s, so a
//! "shard death" is a black-holed or refused link — the daemon process
//! keeps running but is unreachable, exactly the partition case. Real
//! SIGKILL fleet faults live in `tests/fleet_chaos.rs`.

use std::time::{Duration, Instant};
use stsyn_serve::{
    Client, ClientError, JobSource, Json, LinkMode, LinkProxy, RetryPolicy, Router, RouterConfig,
    Server, ServerConfig, ShutdownMode, SubmitSpec,
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
                "stsyn-route-{tag}-{}-{}",
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

fn case(name: &str, n: usize) -> SubmitSpec {
    SubmitSpec::new(JobSource::Case { name: name.into(), n, d: 0 })
}

fn direct_protocol_text(spec: &SubmitSpec) -> String {
    spec.materialize().unwrap().run().unwrap().emitted_dsl
}

/// A fleet of in-process shards, each behind a switchable link, fronted
/// by one router.
struct Fleet {
    _dir: tempdir::TempDir,
    shards: Vec<stsyn_serve::ServerHandle>,
    links: Vec<LinkProxy>,
    router: stsyn_serve::RouterHandle,
}

impl Fleet {
    /// `n` single-worker shards with fast fault detection (probe every
    /// 50 ms, two consecutive failures mark a shard down).
    fn start(tag: &str, n: usize) -> Fleet {
        Fleet::start_cfg(tag, n, false)
    }

    /// Like [`Fleet::start`], with each shard's artifact store enabled.
    fn start_with_store(tag: &str, n: usize) -> Fleet {
        Fleet::start_cfg(tag, n, true)
    }

    fn start_cfg(tag: &str, n: usize, store: bool) -> Fleet {
        let dir = tempdir::TempDir::new(tag);
        let mut shards = Vec::new();
        let mut links = Vec::new();
        for i in 0..n {
            let mut cfg = ServerConfig::new(dir.path.join(format!("shard{i}")));
            if store {
                cfg = cfg.with_store(0);
            }
            cfg.workers = 1;
            let handle = Server::start(cfg).unwrap();
            links.push(LinkProxy::start(handle.addr()).unwrap());
            shards.push(handle);
        }
        let mut cfg = RouterConfig::new(links.iter().map(|l| l.addr().to_string()).collect());
        cfg.probe_interval = Duration::from_millis(50);
        cfg.probe_timeout = Duration::from_millis(250);
        cfg.down_after = 2;
        cfg.shard_io_timeout = Duration::from_millis(500);
        let router = Router::start(cfg).unwrap();
        Fleet { _dir: dir, shards, links, router }
    }

    fn client(&self) -> Client {
        Client::connect_with(self.router.addr(), RetryPolicy::default()).unwrap()
    }

    /// Wait until the router sees the shard in the wanted health state.
    fn await_health(&self, shard: usize, want: stsyn_serve::ShardHealth, timeout: Duration) {
        let deadline = Instant::now() + timeout;
        loop {
            let got = self.router.shard_health(shard).unwrap();
            if got == want {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "shard {shard} stuck in {got:?} waiting for {want:?}"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    fn stop(self) {
        self.router.shutdown();
        self.router.join();
        for l in self.links {
            l.stop();
        }
        for s in self.shards {
            s.shutdown(ShutdownMode::Drain);
            s.join();
        }
    }
}

const WAIT: Duration = Duration::from_secs(300);

#[test]
fn router_proxies_verbs_with_router_identities() {
    let fleet = Fleet::start("proxy", 2);
    let mut client = fleet.client();

    // The router pongs with its role.
    let pong = client.ping().unwrap();
    assert_eq!(pong.get("role").and_then(Json::as_str), Some("router"));
    assert_eq!(pong.get("shards").and_then(Json::as_u64), Some(2));

    // Enough submissions to hit both shards with overwhelming likelihood.
    let specs: Vec<SubmitSpec> = ["coloring", "matching", "token_ring"]
        .iter()
        .flat_map(|c| (0..2).map(|_| case(c, 3)))
        .collect();
    let mut ids = Vec::new();
    let mut shards_used = std::collections::HashSet::new();
    for spec in &specs {
        let resp = {
            let mut spec = spec.clone();
            spec.idem = Some(spec.fingerprint() ^ ids.len() as u64);
            client
                .request(&Json::obj(vec![("op", "submit".into()), ("job", spec.to_json())]))
                .unwrap()
        };
        let id = resp.get("id").and_then(Json::as_u64).unwrap();
        shards_used.insert(resp.get("shard").and_then(Json::as_u64).unwrap());
        ids.push(id);
    }
    // Router ids are unique and dense from 1 (shard-local ids, which
    // also start at 1 per daemon, must never leak through).
    let unique: std::collections::HashSet<u64> = ids.iter().copied().collect();
    assert_eq!(unique.len(), ids.len());
    assert_eq!(shards_used.len(), 2, "6 workloads should spread across both shards");

    for (spec, &id) in specs.iter().zip(&ids) {
        let result = client.wait(id, WAIT).unwrap();
        assert_eq!(result.get("state").and_then(Json::as_str), Some("done"));
        // The top-level id is the router's, and the serving shard rides along.
        assert_eq!(result.get("id").and_then(Json::as_u64), Some(id));
        assert!(result.get("shard").and_then(Json::as_u64).is_some());
        assert_eq!(
            result.get("protocol").and_then(Json::as_str),
            Some(direct_protocol_text(spec).as_str()),
            "routed result diverged from the single-shot run"
        );
    }

    // Wait via the router (a `watch` stream) returns the done result.
    let resp = client.wait(ids[0], Duration::from_secs(60)).unwrap();
    assert_eq!(resp.get("state").and_then(Json::as_str), Some("done"));
    assert_eq!(resp.get("id").and_then(Json::as_u64), Some(ids[0]));
    // The router has no server-side `wait` verb.
    let err =
        client.request(&Json::obj(vec![("op", "wait".into()), ("id", ids[0].into())])).unwrap_err();
    assert_eq!(err.code(), Some("bad-request"));

    // Unknown ids answer typed, not hang.
    let err = client.status(999_999).unwrap_err();
    assert_eq!(err.code(), Some("unknown-job"));

    // fleet-stats: both shards up, with their own stats inline.
    let fs = client.fleet_stats().unwrap();
    let shards = match fs.get("shards") {
        Some(Json::Arr(v)) => v.clone(),
        other => panic!("fleet-stats lacks a shards array: {other:?}"),
    };
    assert_eq!(shards.len(), 2);
    for s in &shards {
        assert_eq!(s.get("health").and_then(Json::as_str), Some("up"));
        assert!(s.get("stats").is_some(), "an up shard should report stats inline");
    }
    let router_accepted =
        fs.get("router").and_then(|r| r.get("accepted")).and_then(Json::as_u64).unwrap();
    assert_eq!(router_accepted, ids.len() as u64);

    // fleet-metrics aggregates shard counters into fleet series.
    let text = client.fleet_metrics().unwrap();
    assert!(text.contains("stsyn_fleet_shards_up 2"));
    assert!(text.contains(&format!("stsyn_route_accepted_total {}", ids.len())));
    assert!(text.contains(&format!("stsyn_fleet_jobs_completed_total {}", ids.len())));

    fleet.stop();
}

#[test]
fn router_dedups_idempotent_submissions() {
    let fleet = Fleet::start("dedup", 2);
    let mut a = fleet.client();
    let mut b = fleet.client();

    let spec = case("coloring", 3);
    let id_a = a.submit_dedup(&spec).unwrap();
    // A different client, same content-addressed key: same router id,
    // without a second shard submission.
    let id_b = b.submit_dedup(&spec).unwrap();
    assert_eq!(id_a, id_b);
    let result = a.wait(id_a, WAIT).unwrap();
    assert_eq!(result.get("state").and_then(Json::as_str), Some("done"));

    let fs = a.fleet_stats().unwrap();
    let router = fs.get("router").unwrap().clone();
    assert_eq!(router.get("accepted").and_then(Json::as_u64), Some(1));
    assert_eq!(router.get("dedup_hits").and_then(Json::as_u64), Some(1));

    fleet.stop();
}

#[test]
fn router_fans_out_store_verbs_and_aggregates_store_metrics() {
    let fleet = Fleet::start_with_store("storestats", 2);
    let mut client = fleet.client();

    // One completed job on some shard publishes one store entry.
    let id = client.submit(&case("coloring", 3)).unwrap();
    let result = client.wait(id, WAIT).unwrap();
    assert_eq!(result.get("state").and_then(Json::as_str), Some("done"));

    // store-stats fans out to every live shard and sums the counters.
    let ss = client.store_stats().unwrap();
    assert_eq!(ss.get("role").and_then(Json::as_str), Some("router"), "store-stats: {ss}");
    assert_eq!(ss.get("shards_reporting").and_then(Json::as_u64), Some(2), "store-stats: {ss}");
    assert_eq!(ss.get("entries").and_then(Json::as_u64), Some(1), "store-stats: {ss}");
    assert!(ss.get("bytes").and_then(Json::as_u64).unwrap() > 0, "store-stats: {ss}");
    let shards = match ss.get("shards") {
        Some(Json::Arr(v)) => v.clone(),
        other => panic!("store-stats lacks a shards array: {other:?}"),
    };
    assert_eq!(shards.len(), 2);
    assert!(shards.iter().all(|s| s.get("response").is_some()));

    // store-gc with no cap is a fleet-wide no-op that still reports.
    let gc = client.store_gc(None).unwrap();
    assert_eq!(gc.get("role").and_then(Json::as_str), Some("router"), "store-gc: {gc}");
    assert_eq!(gc.get("evicted").and_then(Json::as_u64), Some(0), "store-gc: {gc}");
    assert_eq!(gc.get("entries").and_then(Json::as_u64), Some(1), "store-gc: {gc}");

    // The fleet exposition carries the aggregated store series.
    let text = client.fleet_metrics().unwrap();
    assert!(text.contains("stsyn_fleet_store_entries 1"), "{text}");
    assert!(text.contains("stsyn_fleet_store_hits_total"), "{text}");
    assert!(text.contains("stsyn_fleet_store_misses_total"), "{text}");

    fleet.stop();
}

#[test]
fn router_surfaces_shard_store_hits() {
    // One shard, so the resubmission is guaranteed to land where the
    // artifact was published.
    let fleet = Fleet::start_with_store("storehit", 1);
    let mut client = fleet.client();

    let spec = case("matching", 3);
    let id = client.submit(&spec).unwrap();
    let first = client.wait(id, WAIT).unwrap();
    assert_eq!(first.get("state").and_then(Json::as_str), Some("done"));

    // Fresh idempotency key: the shard answers from its store and the
    // router passes the marker through with its own id.
    let resp = {
        let mut s = spec.clone();
        s.idem = Some(s.fingerprint() ^ 1);
        client.request(&Json::obj(vec![("op", "submit".into()), ("job", s.to_json())])).unwrap()
    };
    assert_eq!(resp.get("store").and_then(Json::as_str), Some("hit"), "resp: {resp}");
    let hit_id = resp.get("id").and_then(Json::as_u64).unwrap();
    assert_ne!(hit_id, id);
    let cached = client.wait(hit_id, WAIT).unwrap();
    assert_eq!(
        cached.get("protocol").and_then(Json::as_str),
        first.get("protocol").and_then(Json::as_str)
    );

    fleet.stop();
}

#[test]
fn dead_fleet_answers_no_shards_typed_and_fast() {
    let fleet = Fleet::start("noshards", 2);
    for l in &fleet.links {
        l.set_mode(LinkMode::Refuse);
    }
    fleet.await_health(0, stsyn_serve::ShardHealth::Down, Duration::from_secs(10));
    fleet.await_health(1, stsyn_serve::ShardHealth::Down, Duration::from_secs(10));

    // Fail-fast policy: the typed answer must come straight through.
    let mut client = Client::connect_with(fleet.router.addr(), RetryPolicy::none()).unwrap();
    let started = Instant::now();
    let err = client.submit(&case("coloring", 3)).unwrap_err();
    match err {
        ClientError::Rejected { ref code, .. } => assert_eq!(code, "no-shards"),
        other => panic!("expected a typed no-shards rejection, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "a dead fleet must answer typed errors promptly, not hang"
    );

    fleet.stop();
}

#[test]
fn failover_completes_jobs_and_heals() {
    let fleet = Fleet::start("failover", 2);
    let mut client = fleet.client();

    // Submit via raw request to learn the home shard.
    let spec = {
        let mut s = case("coloring", 3);
        s.idem = Some(s.fingerprint());
        s
    };
    let want = direct_protocol_text(&spec);
    let resp =
        client.request(&Json::obj(vec![("op", "submit".into()), ("job", spec.to_json())])).unwrap();
    let id = resp.get("id").and_then(Json::as_u64).unwrap();
    let home = resp.get("shard").and_then(Json::as_u64).unwrap() as usize;

    // Partition the home shard away mid-flight. The daemon still runs —
    // the router just can't reach it, the worst case for duplicates.
    fleet.links[home].set_mode(LinkMode::Refuse);
    fleet.await_health(home, stsyn_serve::ShardHealth::Down, Duration::from_secs(10));

    // The pending lookup fails over: same spec, same idempotency key,
    // surviving shard — and still one result, byte-identical.
    let result = client.wait(id, WAIT).unwrap();
    assert_eq!(result.get("state").and_then(Json::as_str), Some("done"));
    assert_eq!(result.get("id").and_then(Json::as_u64), Some(id));
    let survivor = result.get("shard").and_then(Json::as_u64).unwrap() as usize;
    assert_ne!(survivor, home, "the result must come from a surviving shard");
    assert_eq!(result.get("protocol").and_then(Json::as_str), Some(want.as_str()));

    // New submissions keep flowing while the shard is down, and the ring
    // walk never hands one to it.
    let id2 = client.submit(&case("matching", 3)).unwrap();
    let r2 = client.wait(id2, WAIT).unwrap();
    assert_eq!(r2.get("state").and_then(Json::as_str), Some("done"));
    assert_ne!(r2.get("shard").and_then(Json::as_u64), Some(home as u64));

    // Heal the link: the prober re-adopts the shard automatically.
    fleet.links[home].set_mode(LinkMode::Forward);
    fleet.await_health(home, stsyn_serve::ShardHealth::Up, Duration::from_secs(10));
    let fs = client.fleet_stats().unwrap();
    let router = fs.get("router").unwrap().clone();
    assert!(router.get("failovers").and_then(Json::as_u64).unwrap() >= 1);
    assert_eq!(router.get("shards_down").and_then(Json::as_u64), Some(0));

    fleet.stop();
}

#[test]
fn lookup_with_whole_fleet_down_answers_degraded() {
    let fleet = Fleet::start("degraded", 1);
    let mut client = fleet.client();
    let id = client.submit(&case("coloring", 3)).unwrap();
    let result = client.wait(id, WAIT).unwrap();
    assert_eq!(result.get("state").and_then(Json::as_str), Some("done"));

    fleet.links[0].set_mode(LinkMode::Refuse);
    fleet.await_health(0, stsyn_serve::ShardHealth::Down, Duration::from_secs(10));

    // The only shard is down and there is nowhere to fail over: both the
    // lookup and the cancel answer typed `degraded`, promptly.
    let mut fast = Client::connect_with(fleet.router.addr(), RetryPolicy::none()).unwrap();
    let started = Instant::now();
    assert_eq!(fast.status(id).unwrap_err().code(), Some("degraded"));
    assert_eq!(fast.cancel(id).unwrap_err().code(), Some("degraded"));
    assert!(started.elapsed() < Duration::from_secs(5), "degraded answers must not hang");

    fleet.stop();
}
