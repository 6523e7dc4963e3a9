//! Per-layer totals read from the program's own trace records.
//!
//! A traced solve (in process, or a fresh job inside the daemon) emits
//! phase spans, `heuristic.step` events and one `synthesis.stats` event
//! carrying the counters `SynthesisStats` and the BDD manager keep. This
//! module sums them over many solves and turns the sums into per-solve
//! figures, so that the layer times add up to the solve time they were
//! cut from; the remainder is reported as `stsyn.unattributed_s`.

use crate::Report;
use stsyn_obs::Json;

/// Sums over every traced solve of a run.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    /// `synthesis.stats` events seen — the number of solves summed.
    pub solves: u64,
    /// Solve wall time as the caller saw it: the benchmark's own timer
    /// in process, the `serve.job` span inside the daemon.
    pub wall_s: f64,
    /// Independent model check (timed by the benchmark in process; the
    /// `job` span minus synthesis inside the daemon).
    pub verify_s: f64,
    /// Protocol extraction and printing (timed by the benchmark; not
    /// separable inside the daemon).
    pub emit_s: f64,
    setup_s: f64,
    job_s: f64,
    serve_job_s: f64,
    total_s: f64,
    ranking_s: f64,
    scc_s: f64,
    scan_s: f64,
    include_s: f64,
    deadlock_s: f64,
    ticks: f64,
    lookups: f64,
    hits: f64,
    gc_runs: f64,
    peak_nodes: f64,
    scc_calls: f64,
    sccs_found: f64,
    scc_nodes: f64,
    candidates: f64,
    groups_added: f64,
    tried: f64,
    kept: f64,
}

fn num(rec: &Json, field: &str) -> f64 {
    rec.get(field).and_then(Json::as_f64).unwrap_or(0.0)
}

impl Layers {
    /// Add the records of one validated trace (see
    /// [`stsyn_obs::parse_trace`]).
    pub fn absorb(&mut self, records: &[Json]) {
        let summary = stsyn_obs::summarize(records);
        let span = |name: &str| summary.phase_secs.get(name).copied().unwrap_or(0.0);
        self.setup_s += span("phase.setup");
        self.job_s += span("job");
        self.serve_job_s += span("serve.job");
        for rec in records {
            match rec.get("name").and_then(Json::as_str) {
                Some("synthesis.stats") => {
                    self.solves += 1;
                    self.total_s += num(rec, "total_secs");
                    self.ranking_s += num(rec, "ranking_secs");
                    self.scc_s += num(rec, "scc_secs");
                    self.scan_s += num(rec, "scan_secs");
                    self.include_s += num(rec, "include_secs");
                    self.deadlock_s += num(rec, "deadlock_secs");
                    self.ticks += num(rec, "bdd_ticks");
                    self.lookups += num(rec, "cache_lookups");
                    self.hits += num(rec, "cache_hits");
                    self.gc_runs += num(rec, "gc_runs");
                    self.peak_nodes = self.peak_nodes.max(num(rec, "peak_live_nodes"));
                    self.scc_calls += num(rec, "scc_calls");
                    self.sccs_found += num(rec, "sccs_found");
                    self.scc_nodes += num(rec, "scc_nodes_total");
                    self.candidates += num(rec, "candidates");
                    self.groups_added += num(rec, "groups_added");
                }
                Some("heuristic.step") => {
                    self.tried += num(rec, "tried");
                    self.kept += num(rec, "kept");
                }
                _ => {}
            }
        }
    }

    /// Inside the daemon the solve is the `serve.job` span and
    /// verification is what the `job` span holds beyond synthesis.
    pub fn attribute_daemon_spans(&mut self) {
        self.wall_s = self.serve_job_s;
        self.verify_s = (self.job_s - self.total_s).max(0.0);
    }

    /// Write the per-solve `bdd.*`, `symbolic.*`, `stsyn.*` and
    /// `protocol.*` metrics.
    pub fn report(&self, r: &mut Report) {
        let n = self.solves.max(1) as f64;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let named = self.setup_s
            + self.ranking_s
            + self.scan_s
            + self.scc_s
            + self.include_s
            + self.deadlock_s
            + self.verify_s
            + self.emit_s;
        r.set("bdd.ticks", self.ticks / n);
        r.set("bdd.cache_lookups", self.lookups / n);
        r.set("bdd.cache_hit_rate", ratio(self.hits, self.lookups));
        r.set("bdd.peak_nodes", self.peak_nodes);
        r.set("bdd.gc_runs", self.gc_runs / n);
        r.set("symbolic.ranking_s", self.ranking_s / n);
        r.set("symbolic.scc_s", self.scc_s / n);
        r.set("symbolic.scc_calls", self.scc_calls / n);
        r.set("symbolic.sccs_found", self.sccs_found / n);
        r.set("symbolic.avg_scc_nodes", ratio(self.scc_nodes, self.sccs_found));
        r.set("stsyn.setup_s", self.setup_s / n);
        r.set("stsyn.scan_s", self.scan_s / n);
        r.set("stsyn.include_s", self.include_s / n);
        r.set("stsyn.deadlock_s", self.deadlock_s / n);
        r.set("stsyn.verify_s", self.verify_s / n);
        r.set("stsyn.candidates", self.candidates / n);
        r.set("stsyn.groups_added", self.groups_added / n);
        r.set("stsyn.keep_ratio", ratio(self.kept, self.tried));
        r.set("stsyn.unattributed_s", (self.wall_s - named) / n);
        r.set("protocol.emit_s", self.emit_s / n);
    }
}
