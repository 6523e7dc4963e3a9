//! `service_throughput` — a closed-loop load generator for the job
//! service, single daemons and routed fleets alike.
//!
//! ```text
//! cargo run --release -p stsyn-bench --bin service_throughput [-- --fast]
//! ```
//!
//! Each topology is flooded by concurrent clients that loop
//! submit→wait over small synthesis jobs. The harness records
//! wall-clock throughput (jobs/sec), queue latency (time a job sat
//! queued before a worker claimed it, from the `status` verb), and
//! end-to-end submit→result latency per job (p50/p99 across the whole
//! batch). Topologies:
//!
//! * `direct` — one in-process daemon, worker pools of 1/2/4;
//! * `routed` — a `stsyn route` front door consistent-hashing the same
//!   load across 2 or 3 single-worker in-process shards, measuring what
//!   the fleet hop costs and what sharding buys;
//! * `store` — a store-enabled daemon fed distinct workloads cold, then
//!   the same workloads again: the resubmissions are answered from the
//!   artifact store, and the cold vs hit p50/p99 columns
//!   (`cold_p50_ms`/`cold_p99_ms`/`hit_p50_ms`/`hit_p99_ms`, zero on
//!   the other rows) quantify what a hit saves.
//!
//! The series lands in `results/service_throughput.csv`.

use std::time::{Duration, Instant};
use stsyn_bench::percentile;
use stsyn_serve::{
    Client, JobSource, Json, Router, RouterConfig, Server, ServerConfig, ShutdownMode, SubmitSpec,
};

struct Row {
    topology: &'static str,
    shards: usize,
    workers: usize,
    jobs: usize,
    clients: usize,
    wall_secs: f64,
    jobs_per_sec: f64,
    mean_queue_ms: f64,
    p95_queue_ms: u64,
    p50_latency_ms: f64,
    p99_latency_ms: f64,
    cold_p50_ms: f64,
    cold_p99_ms: f64,
    hit_p50_ms: f64,
    hit_p99_ms: f64,
}

fn main() {
    let fast = std::env::args().any(|a| a == "--fast");
    let jobs = if fast { 12 } else { 32 };
    let clients = 4;
    std::fs::create_dir_all("results").expect("create results dir");

    let mut rows = Vec::new();
    for workers in [1, 2, 4] {
        eprintln!("service_throughput: direct, {workers} worker(s), {jobs} jobs…");
        rows.push(run_direct(workers, jobs, clients));
    }
    for shards in [2, 3] {
        eprintln!("service_throughput: routed, {shards} shard(s), {jobs} jobs…");
        rows.push(run_routed(shards, jobs, clients));
    }
    eprintln!("service_throughput: store, cold batch then resubmission…");
    rows.push(run_store_resub(clients));

    let mut csv = String::from(
        "topology,shards,workers,jobs,clients,wall_secs,jobs_per_sec,\
         mean_queue_ms,p95_queue_ms,p50_latency_ms,p99_latency_ms,\
         cold_p50_ms,cold_p99_ms,hit_p50_ms,hit_p99_ms\n",
    );
    println!(
        "{:<8} {:<7} {:<8} {:<6} {:<10} {:<8} {:<14} {:<13} {:<15} p99_latency_ms",
        "topology",
        "shards",
        "workers",
        "jobs",
        "wall_s",
        "jobs/s",
        "mean_queue_ms",
        "p95_queue_ms",
        "p50_latency_ms"
    );
    for r in &rows {
        println!(
            "{:<8} {:<7} {:<8} {:<6} {:<10.3} {:<8.1} {:<14.1} {:<13} {:<15.1} {:.1}",
            r.topology,
            r.shards,
            r.workers,
            r.jobs,
            r.wall_secs,
            r.jobs_per_sec,
            r.mean_queue_ms,
            r.p95_queue_ms,
            r.p50_latency_ms,
            r.p99_latency_ms
        );
        csv.push_str(&format!(
            "{},{},{},{},{},{:.4},{:.2},{:.2},{},{:.2},{:.2},{:.2},{:.2},{:.2},{:.2}\n",
            r.topology,
            r.shards,
            r.workers,
            r.jobs,
            r.clients,
            r.wall_secs,
            r.jobs_per_sec,
            r.mean_queue_ms,
            r.p95_queue_ms,
            r.p50_latency_ms,
            r.p99_latency_ms,
            r.cold_p50_ms,
            r.cold_p99_ms,
            r.hit_p50_ms,
            r.hit_p99_ms
        ));
    }
    std::fs::write("results/service_throughput.csv", csv).expect("write csv");
    eprintln!("series written to results/service_throughput.csv");
}

fn state_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("stsyn-throughput-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run_direct(workers: usize, jobs: usize, clients: usize) -> Row {
    let dir = state_dir(&format!("direct-{workers}"));
    let mut cfg = ServerConfig::new(&dir);
    cfg.workers = workers;
    cfg.queue_capacity = jobs + 8;
    let handle = Server::start(cfg).expect("start daemon");

    let (row_core, _) = drive(handle.addr(), jobs, clients);
    handle.shutdown(ShutdownMode::Drain);
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
    Row { topology: "direct", shards: 1, workers, ..row_core }
}

fn run_routed(shards: usize, jobs: usize, clients: usize) -> Row {
    let dir = state_dir(&format!("routed-{shards}"));
    let handles: Vec<_> = (0..shards)
        .map(|i| {
            let mut cfg = ServerConfig::new(dir.join(format!("shard{i}")));
            cfg.workers = 1;
            cfg.queue_capacity = jobs + 8;
            Server::start(cfg).expect("start shard")
        })
        .collect();
    let cfg = RouterConfig::new(handles.iter().map(|h| h.addr().to_string()).collect());
    let router = Router::start(cfg).expect("start router");

    let (row_core, _) = drive(router.addr(), jobs, clients);
    router.shutdown();
    router.join();
    for h in handles {
        h.shutdown(ShutdownMode::Drain);
        h.join();
    }
    let _ = std::fs::remove_dir_all(&dir);
    Row { topology: "routed", shards, workers: shards, ..row_core }
}

/// Closed-loop drive: each client loops submit→wait over its share of
/// the batch, timing every job end to end. Works identically against a
/// daemon and a router (same wire protocol).
fn drive(addr: std::net::SocketAddr, jobs: usize, clients: usize) -> (Row, Vec<u64>) {
    let started = Instant::now();
    let per_job: Vec<(u64, f64)> = std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for c in 0..clients {
            let share = jobs / clients + usize::from(c < jobs % clients);
            joins.push(scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let spec = SubmitSpec::new(JobSource::Case { name: "coloring".into(), n: 3, d: 0 });
                (0..share)
                    .map(|_| {
                        let t0 = Instant::now();
                        let id = client.submit(&spec).expect("submit");
                        client.wait(id, Duration::from_secs(600)).expect("job result");
                        (id, t0.elapsed().as_secs_f64() * 1e3)
                    })
                    .collect::<Vec<(u64, f64)>>()
            }));
        }
        joins.into_iter().flat_map(|j| j.join().unwrap()).collect()
    });
    let wall_secs = started.elapsed().as_secs_f64();

    let ids: Vec<u64> = per_job.iter().map(|&(id, _)| id).collect();
    let mut latency_ms: Vec<f64> = per_job.iter().map(|&(_, l)| l).collect();
    latency_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let p50_latency_ms = percentile(&latency_ms, 50.0);
    let p99_latency_ms = percentile(&latency_ms, 99.0);

    // Queue latency: how long each job sat before a worker claimed it
    // (`status` proxies shard-aware through a router).
    let mut client = Client::connect(addr).expect("connect");
    let mut queue_ms: Vec<u64> = ids
        .iter()
        .map(|&id| {
            client.status(id).expect("status").get("queue_ms").and_then(Json::as_u64).unwrap_or(0)
        })
        .collect();
    queue_ms.sort_unstable();
    let mean_queue_ms = queue_ms.iter().sum::<u64>() as f64 / queue_ms.len().max(1) as f64;
    let p95_queue_ms = percentile(&queue_ms, 95.0);

    (
        Row {
            topology: "direct",
            shards: 0,
            workers: 0,
            jobs,
            clients,
            wall_secs,
            jobs_per_sec: jobs as f64 / wall_secs,
            mean_queue_ms,
            p95_queue_ms,
            p50_latency_ms,
            p99_latency_ms,
            cold_p50_ms: 0.0,
            cold_p99_ms: 0.0,
            hit_p50_ms: 0.0,
            hit_p99_ms: 0.0,
        },
        ids,
    )
}

/// Nearest-rank p50 and p99 of an unsorted latency sample (consumes it).
fn p50_p99(mut ms: Vec<f64>) -> (f64, f64) {
    ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    (percentile(&ms, 50.0), percentile(&ms, 99.0))
}

/// Cold batch vs store-hit resubmission: distinct workloads (so no
/// warm-start sharing muddies the cold numbers) submitted once each,
/// then resubmitted with fresh idempotency keys. The second batch must
/// be answered entirely by the artifact store.
fn run_store_resub(clients: usize) -> Row {
    let dir = state_dir("store");
    let mut cfg = ServerConfig::new(&dir).with_store(0);
    cfg.workers = 2;
    let handle = Server::start(cfg).expect("start daemon");
    let addr = handle.addr();

    let specs: Vec<SubmitSpec> = [
        ("coloring", 3),
        ("matching", 3),
        ("token_ring", 3),
        ("two_ring", 3),
        ("mis", 3),
        ("coloring", 4),
    ]
    .into_iter()
    .map(|(name, n)| SubmitSpec::new(JobSource::Case { name: name.into(), n, d: 0 }))
    .collect();

    let started = Instant::now();
    let submit_batch = |salt: u64| -> Vec<(f64, bool)> {
        std::thread::scope(|scope| {
            let joins: Vec<_> = specs
                .chunks(specs.len().div_ceil(clients))
                .map(|chunk| {
                    scope.spawn(move || {
                        let mut client = Client::connect(addr).expect("connect");
                        chunk
                            .iter()
                            .map(|spec| {
                                let mut spec = spec.clone();
                                spec.idem = Some(
                                    (spec.fingerprint() ^ salt.wrapping_mul(0x9E37_79B9))
                                        & ((1 << 53) - 1),
                                );
                                let t0 = Instant::now();
                                let resp = client
                                    .request(&Json::obj(vec![
                                        ("op", "submit".into()),
                                        ("job", spec.to_json()),
                                    ]))
                                    .expect("submit");
                                let id = resp.get("id").and_then(Json::as_u64).expect("id");
                                let hit = resp.get("store").and_then(Json::as_str) == Some("hit");
                                client.wait(id, Duration::from_secs(600)).expect("job result");
                                (t0.elapsed().as_secs_f64() * 1e3, hit)
                            })
                            .collect::<Vec<(f64, bool)>>()
                    })
                })
                .collect();
            joins.into_iter().flat_map(|j| j.join().unwrap()).collect()
        })
    };
    let cold = submit_batch(1);
    assert!(cold.iter().all(|&(_, hit)| !hit), "cold batch must not hit the store");
    let hits = submit_batch(2);
    assert!(hits.iter().all(|&(_, hit)| hit), "resubmission batch must be all store hits");
    let wall_secs = started.elapsed().as_secs_f64();

    handle.shutdown(ShutdownMode::Drain);
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);

    let jobs = cold.len() + hits.len();
    let all_ms: Vec<f64> = cold.iter().chain(hits.iter()).map(|&(ms, _)| ms).collect();
    let (p50_latency_ms, p99_latency_ms) = p50_p99(all_ms);
    let (cold_p50_ms, cold_p99_ms) = p50_p99(cold.into_iter().map(|(ms, _)| ms).collect());
    let (hit_p50_ms, hit_p99_ms) = p50_p99(hits.into_iter().map(|(ms, _)| ms).collect());
    eprintln!(
        "service_throughput: store cold p50/p99 {cold_p50_ms:.1}/{cold_p99_ms:.1} ms, \
         hit p50/p99 {hit_p50_ms:.1}/{hit_p99_ms:.1} ms"
    );

    Row {
        topology: "store",
        shards: 1,
        workers: 2,
        jobs,
        clients,
        wall_secs,
        jobs_per_sec: jobs as f64 / wall_secs,
        mean_queue_ms: 0.0,
        p95_queue_ms: 0,
        p50_latency_ms,
        p99_latency_ms,
        cold_p50_ms,
        cold_p99_ms,
        hit_p50_ms,
        hit_p99_ms,
    }
}
