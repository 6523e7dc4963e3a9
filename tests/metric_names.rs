//! Pins the name of every published counter, and checks that the
//! surfaces which publish the same counter agree on its value.
//!
//! One in-process daemon (store on) behind a one-shard router runs one
//! `coloring(3)` job. The JSON keys and Prometheus series each surface
//! publishes are compared with lists pinned below. A surface may gain a
//! name only where the synthesis table allows it: the job result's
//! `stats` and the one-shot `--metrics` series may gain rows of
//! [`STATS`], nothing else may. Once the daemon is idle, every daemon row
//! that is both in `stats` and in `metrics` must read the same, and the
//! router's fleet sums over its one shard must equal that shard's
//! `stats`.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use stsyn_obs::metrics::{valid_name, Kind};
use stsyn_obs::stats::STATS;
use stsyn_obs::{Json, SynthesisStats, TraceLevel, Tracer};
use stsyn_serve::server::row_names;
use stsyn_serve::{
    Client, JobSource, Router, RouterConfig, Server, ServerConfig, ShutdownMode, SubmitSpec,
};

const STATS_KEYS: &[&str] = &[
    "ok",
    "accepted",
    "rejected",
    "completed",
    "failed",
    "cancelled",
    "resumed",
    "crashed",
    "quarantined",
    "dedup_hits",
    "conn_rejected",
    "worker_respawns",
    "conns",
    "queue_depth",
    "running",
    "workers",
    "live_workers",
    "utilization",
    "peak_nodes_max",
    "queue_wait_ms_total",
    "run_ms_total",
    "latency",
    "uptime_secs",
    "store_enabled",
    "store_entries",
    "store_bytes",
    "store_cap_bytes",
    "store_hits",
    "store_partial_hits",
    "store_misses",
    "store_evictions",
    "store_corrupt_dropped",
    "store_publishes",
    "jobs_pruned",
];

const LATENCY_KEYS: &[&str] = &["bounds_us", "queue_wait", "run", "submit_to_result"];

const STORE_STATS_KEYS: &[&str] = &[
    "ok",
    "entries",
    "bytes",
    "cap_bytes",
    "hits",
    "partial_hits",
    "misses",
    "evictions",
    "corrupt_dropped",
    "publishes",
    "jobs_pruned",
];

const ROUTER_STATS_KEYS: &[&str] = &[
    "ok",
    "role",
    "shards",
    "shards_up",
    "shards_degraded",
    "shards_down",
    "accepted",
    "dedup_hits",
    "failovers",
    "no_shards",
    "degraded_answered",
    "forwarded",
    "forward_errors",
    "jobs_tracked",
    "uptime_secs",
];

const METRICS_TYPES: &[&str] = &[
    "stsyn_jobs_accepted_total counter",
    "stsyn_jobs_rejected_total counter",
    "stsyn_jobs_completed_total counter",
    "stsyn_jobs_failed_total counter",
    "stsyn_jobs_cancelled_total counter",
    "stsyn_jobs_resumed_total counter",
    "stsyn_jobs_crashed_total counter",
    "stsyn_jobs_quarantined_total counter",
    "stsyn_conns_rejected_total counter",
    "stsyn_worker_respawns_total counter",
    "stsyn_submit_dedup_total counter",
    "stsyn_queue_wait_ms_total counter",
    "stsyn_run_ms_total counter",
    "stsyn_queue_depth gauge",
    "stsyn_quarantined_jobs gauge",
    "stsyn_conns_open gauge",
    "stsyn_workers_busy gauge",
    "stsyn_workers gauge",
    "stsyn_workers_live gauge",
    "stsyn_worker_utilization gauge",
    "stsyn_queue_wait_seconds histogram",
    "stsyn_run_seconds histogram",
    "stsyn_submit_to_result_seconds histogram",
    "stsyn_peak_nodes_max gauge",
    "stsyn_uptime_seconds gauge",
    "stsyn_store_hits_total counter",
    "stsyn_store_partial_hits_total counter",
    "stsyn_store_misses_total counter",
    "stsyn_store_evictions_total counter",
    "stsyn_store_corrupt_dropped_total counter",
    "stsyn_store_publishes_total counter",
    "stsyn_jobs_pruned_total counter",
    "stsyn_store_entries gauge",
    "stsyn_store_bytes gauge",
    "stsyn_store_cap_bytes gauge",
];

const FLEET_METRICS_TYPES: &[&str] = &[
    "stsyn_route_accepted_total counter",
    "stsyn_route_dedup_total counter",
    "stsyn_route_failovers_total counter",
    "stsyn_route_no_shards_total counter",
    "stsyn_route_degraded_total counter",
    "stsyn_route_forwarded_total counter",
    "stsyn_route_forward_errors_total counter",
    "stsyn_fleet_shards gauge",
    "stsyn_fleet_shards_up gauge",
    "stsyn_fleet_shards_degraded gauge",
    "stsyn_fleet_shards_down gauge",
    "stsyn_route_uptime_seconds gauge",
    "stsyn_fleet_jobs_accepted_total counter",
    "stsyn_fleet_jobs_completed_total counter",
    "stsyn_fleet_jobs_failed_total counter",
    "stsyn_fleet_store_hits_total counter",
    "stsyn_fleet_store_partial_hits_total counter",
    "stsyn_fleet_store_misses_total counter",
    "stsyn_fleet_store_evictions_total counter",
    "stsyn_fleet_queue_depth gauge",
    "stsyn_fleet_running gauge",
    "stsyn_fleet_store_entries gauge",
    "stsyn_fleet_store_bytes gauge",
    "stsyn_fleet_shards_reporting gauge",
    "stsyn_fleet_queue_wait_seconds histogram",
    "stsyn_fleet_run_seconds histogram",
    "stsyn_fleet_submit_to_result_seconds histogram",
];

const SYNTHESIS_STATS_FIELDS: &[&str] = &[
    "max_rank",
    "candidates",
    "groups_added",
    "finished_in_pass",
    "scc_calls",
    "sccs_found",
    "scc_nodes_total",
    "program_nodes",
    "peak_live_nodes",
    "bdd_ticks",
    "ranking_secs",
    "scc_secs",
    "total_secs",
    "scan_secs",
    "deadlock_secs",
    "include_secs",
    "gc_runs",
    "cache_lookups",
    "cache_hits",
];

const JOB_RESULT_STATS_KEYS: &[&str] = &[
    "candidates",
    "groups_added",
    "max_rank",
    "finished_in_pass",
    "ranking_secs",
    "scc_secs",
    "total_secs",
    "program_nodes",
    "peak_live_nodes",
    "bdd_ticks",
];

const ONESHOT_TYPES: &[&str] = &[
    "stsyn_candidates_total counter",
    "stsyn_groups_added_total counter",
    "stsyn_scc_calls_total counter",
    "stsyn_sccs_found_total counter",
    "stsyn_bdd_ticks_total counter",
    "stsyn_max_rank gauge",
    "stsyn_finished_in_pass gauge",
    "stsyn_program_nodes gauge",
    "stsyn_peak_live_nodes gauge",
    "stsyn_ranking_seconds gauge",
    "stsyn_scc_seconds gauge",
    "stsyn_total_seconds gauge",
];

fn keys(v: &Json) -> Vec<&str> {
    match v {
        Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
        _ => panic!("not an object: {v}"),
    }
}

/// The `# TYPE` lines of an exposition, as `name kind`, sorted.
fn types(text: &str) -> Vec<&str> {
    let mut t: Vec<&str> = text.lines().filter_map(|l| l.strip_prefix("# TYPE ")).collect();
    t.sort_unstable();
    t
}

fn sorted(list: &[&'static str]) -> Vec<&'static str> {
    let mut v = list.to_vec();
    v.sort_unstable();
    v
}

/// `name -> value` of every sample line of an exposition.
fn samples(text: &str) -> BTreeMap<&str, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_once(' '))
        .map(|(name, v)| (name, v.parse().unwrap()))
        .collect()
}

/// A daemon row's reading in `stats` and in an exposition, as
/// `[value]` or, for a histogram, `[count, sum in seconds]`.
fn readings(stats: &Json, text: &BTreeMap<&str, f64>, key: &str, prom: &str) -> [Vec<f64>; 2] {
    match stats.get("latency").and_then(|l| l.get(key)) {
        Some(h) => [
            vec![
                h.get("count").unwrap().as_f64().unwrap(),
                h.get("sum_us").unwrap().as_f64().unwrap() / 1e6,
            ],
            vec![text[format!("{prom}_count").as_str()], text[format!("{prom}_sum").as_str()]],
        ],
        None => [vec![stats.get(key).unwrap().as_f64().unwrap()], vec![text[prom]]],
    }
}

/// Whether two `stats` answers agree on every row but the clock.
fn same_stats(a: &Json, b: &Json) -> bool {
    let strip = |v: &Json| match v {
        Json::Obj(p) => p.iter().filter(|(k, _)| k != "uptime_secs").cloned().collect::<Vec<_>>(),
        _ => Vec::new(),
    };
    strip(a) == strip(b)
}

#[test]
fn every_surface_keeps_its_names_and_agrees_on_values() {
    let started = Instant::now();
    let dir = std::env::temp_dir().join(format!("stsyn-metric-names-{}", std::process::id()));
    let (tracer, sink) = Tracer::memory(TraceLevel::Info);
    let mut cfg = ServerConfig::new(&dir).with_store(0);
    cfg.workers = 1;
    cfg.tracer = tracer;
    let daemon = Server::start(cfg).unwrap();
    let router = Router::start(RouterConfig::new(vec![daemon.addr().to_string()])).unwrap();
    let mut shard = Client::connect(daemon.addr()).unwrap();
    let mut fleet = Client::connect(router.addr()).unwrap();

    let spec = SubmitSpec::new(JobSource::Case { name: "coloring".into(), n: 3, d: 0 });
    let id = fleet.submit(&spec).unwrap();
    let result = fleet.wait(id, Duration::from_secs(60)).unwrap();
    assert_eq!(result.get("state").and_then(Json::as_str), Some("done"));

    // Idle: nothing queued or running, and the result is in the store.
    let deadline = Instant::now() + Duration::from_secs(2);
    let stats = loop {
        let s = shard.stats().unwrap();
        let num = |k: &str| s.get(k).and_then(Json::as_u64).unwrap();
        if num("queue_depth") + num("running") == 0 && num("store_publishes") == 1 {
            break s;
        }
        assert!(Instant::now() < deadline, "daemon never went idle: {s}");
        std::thread::sleep(Duration::from_millis(5));
    };

    // The synthesis table: `synthesis.stats` keeps exactly its fields;
    // the job result and the one-shot series may gain table rows only.
    let records: Vec<Json> = sink
        .lines()
        .iter()
        .map(|l| Json::parse(l).unwrap())
        .filter(|r| r.get("name").and_then(Json::as_str) == Some("synthesis.stats"))
        .collect();
    assert_eq!(records.len(), 1, "one solve, one synthesis.stats record");
    let record = &records[0];
    let fields: Vec<&str> = keys(record)
        .into_iter()
        .filter(|k| !["ts_us", "kind", "level", "name", "span"].contains(k))
        .collect();
    assert_eq!(fields, SYNTHESIS_STATS_FIELDS);
    let table_keys: Vec<&str> = STATS.iter().map(|st| st.key).collect();
    let job_stats = result.get("stats").unwrap();
    for key in JOB_RESULT_STATS_KEYS {
        assert!(keys(job_stats).contains(key), "job result lost `{key}`");
    }
    for (key, value) in match job_stats {
        Json::Obj(pairs) => pairs,
        _ => unreachable!(),
    } {
        assert!(table_keys.contains(&key.as_str()), "job result gained `{key}`, not a table row");
        assert_eq!(record.get(key), Some(value), "job result and trace disagree on `{key}`");
    }
    let oneshot = SynthesisStats::from_record(|k| record.get(k).and_then(Json::as_f64)).metrics();
    let oneshot_types = types(oneshot.render());
    for t in ONESHOT_TYPES {
        assert!(oneshot_types.contains(t), "one-shot metrics lost `{t}`");
    }
    for t in &oneshot_types {
        let name = t.split(' ').next().unwrap();
        assert!(
            STATS.iter().any(|st| st.prom == name),
            "one-shot gained `{name}`, not a table row"
        );
    }

    // The daemon and router surfaces keep their names exactly.
    assert_eq!(keys(&stats), STATS_KEYS);
    assert_eq!(keys(stats.get("latency").unwrap()), LATENCY_KEYS);
    assert_eq!(keys(&shard.store_stats().unwrap()), STORE_STATS_KEYS);
    assert_eq!(keys(&fleet.stats().unwrap()), ROUTER_STATS_KEYS);
    let fleet_text = fleet.fleet_metrics().unwrap();
    assert_eq!(types(&fleet_text), sorted(FLEET_METRICS_TYPES));

    // `stats` and `metrics` read the same rows: take a `metrics` scrape
    // between two equal `stats` answers, so no connection came or went.
    let (stats, text) = loop {
        let before = shard.stats().unwrap();
        let text = shard.metrics().unwrap();
        if same_stats(&before, &shard.stats().unwrap()) {
            break (before, text);
        }
        assert!(Instant::now() < deadline, "daemon stats never settled");
    };
    assert_eq!(types(&text), sorted(METRICS_TYPES));
    let daemon_samples = samples(&text);
    let fleet_samples = samples(&fleet_text);
    for names in row_names() {
        let (Some(key), Some(prom)) = (names.key, names.prom) else { continue };
        if key != "uptime_secs" {
            let [json, prom_value] = readings(&stats, &daemon_samples, key, prom);
            assert_eq!(json, prom_value, "`stats.{key}` disagrees with `{prom}`");
        }
        // One shard: each fleet sum is that shard's own reading.
        if let Some(series) = names.fleet {
            let [json, fleet_value] = readings(&stats, &fleet_samples, key, series);
            assert_eq!(json, fleet_value, "`{series}` is not the sum of `stats.{key}`");
            assert_eq!(names.kind == Kind::Histogram, stats.get(key).is_none());
        }
    }
    assert_eq!(fleet_samples["stsyn_fleet_shards_reporting"], 1.0);

    for t in types(&text).iter().chain(&types(&fleet_text)).chain(&oneshot_types) {
        let name = t.split(' ').next().unwrap();
        assert!(valid_name(name), "`{name}` is not a valid series name");
    }

    router.shutdown();
    router.join();
    daemon.shutdown(ShutdownMode::Drain);
    daemon.join();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(started.elapsed() < Duration::from_secs(5), "took {:?}", started.elapsed());
}
