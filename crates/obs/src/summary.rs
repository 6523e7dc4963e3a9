//! Trace-file validation and summarization.
//!
//! Turns an NDJSON trace (see [`crate::trace`] for the record schema)
//! into the paper's Table-1 columns: per-rank frontier sizes, per-phase
//! wall times, and the end-of-run synthesis statistics. The same parser
//! backs the `stsyn trace-summary` subcommand, the CI `trace-smoke` job
//! (which fails on any malformed record) and the trace test-suite.

use crate::json::Json;
use crate::stats::SynthesisStats;
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::io::BufRead;
use std::path::Path;

/// A malformed trace record (or unreadable file), with its 1-based line.
#[derive(Debug, Clone)]
pub struct TraceError {
    /// 1-based line number of the offending record (0 for file-level errors).
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "trace error: {}", self.message)
        } else {
            write!(f, "trace error at line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for TraceError {}

fn bad(line: usize, message: impl Into<String>) -> TraceError {
    TraceError { line, message: message.into() }
}

const KINDS: [&str; 4] = ["span_open", "span_close", "event", "counter"];
const LEVELS: [&str; 3] = ["warn", "info", "debug"];

/// A leniently parsed trace: the records this version of the schema
/// understands, plus a count of well-formed records it skipped because a
/// newer writer used a `kind` or `level` this reader does not know.
#[derive(Debug, Clone, Default)]
pub struct LenientTrace {
    /// Validated records of known kinds, in file order.
    pub records: Vec<Json>,
    /// Records skipped for carrying an unknown `kind` or `level`.
    pub skipped_unknown: usize,
}

/// Parse and schema-validate every line of an NDJSON trace. Each record
/// must be a JSON object with a `ts_us` timestamp, a known `kind` and
/// `level`, a non-empty `name`, and the kind-specific fields; span opens
/// and closes must pair up (`parent` links must point at a span that is
/// open at that moment). Returns the records in file order.
///
/// Forward compatibility: a structurally valid record whose `kind` or
/// `level` this reader does not recognise is **skipped**, not rejected —
/// a trace from a newer writer still summarizes (see
/// [`parse_trace_lenient`] for the skip count). Malformed JSON and
/// violations of the known schema remain hard errors.
pub fn parse_trace<R: BufRead>(reader: R) -> Result<Vec<Json>, TraceError> {
    Ok(parse_trace_lenient(reader)?.records)
}

/// [`parse_trace`], also reporting how many well-formed records were
/// skipped for an unknown `kind`/`level` (future schema versions).
pub fn parse_trace_lenient<R: BufRead>(reader: R) -> Result<LenientTrace, TraceError> {
    let mut out = LenientTrace::default();
    // span id → (name, still open)
    let mut spans: BTreeMap<u64, (String, bool)> = BTreeMap::new();
    for (i, line) in reader.lines().enumerate() {
        let lineno = i + 1;
        let line = line.map_err(|e| bad(lineno, format!("unreadable line: {e}")))?;
        if line.trim().is_empty() {
            continue;
        }
        let rec = Json::parse(&line).map_err(|e| bad(lineno, format!("not valid JSON: {e}")))?;
        if !matches!(rec, Json::Obj(_)) {
            return Err(bad(lineno, "record is not a JSON object"));
        }
        rec.get("ts_us")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad(lineno, "missing or non-integer `ts_us`"))?;
        let kind = rec
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| bad(lineno, "missing `kind`"))?
            .to_string();
        let level = rec
            .get("level")
            .and_then(Json::as_str)
            .ok_or_else(|| bad(lineno, "missing `level`"))?;
        if !KINDS.contains(&kind.as_str()) || !LEVELS.contains(&level) {
            // A newer writer's record: skip it wholesale (its fields may
            // follow a schema we cannot validate) but keep count.
            out.skipped_unknown += 1;
            continue;
        }
        let name = rec
            .get("name")
            .and_then(Json::as_str)
            .filter(|n| !n.is_empty())
            .ok_or_else(|| bad(lineno, "missing or empty `name`"))?
            .to_string();
        match kind.as_str() {
            "span_open" => {
                let id = rec
                    .get("span")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad(lineno, "span_open without a `span` id"))?;
                if spans.contains_key(&id) {
                    return Err(bad(lineno, format!("span id {id} opened twice")));
                }
                if let Some(p) = rec.get("parent") {
                    let p = p.as_u64().ok_or_else(|| bad(lineno, "non-integer `parent`"))?;
                    if !matches!(spans.get(&p), Some((_, true))) {
                        return Err(bad(lineno, format!("parent span {p} is not open")));
                    }
                }
                spans.insert(id, (name, true));
            }
            "span_close" => {
                let id = rec
                    .get("span")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad(lineno, "span_close without a `span` id"))?;
                rec.get("dur_us")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad(lineno, "span_close without `dur_us`"))?;
                match spans.get_mut(&id) {
                    Some((open_name, open)) if *open => {
                        if *open_name != name {
                            return Err(bad(
                                lineno,
                                format!("span {id} opened as `{open_name}`, closed as `{name}`"),
                            ));
                        }
                        *open = false;
                    }
                    Some(_) => return Err(bad(lineno, format!("span {id} closed twice"))),
                    None => return Err(bad(lineno, format!("span {id} closed but never opened"))),
                }
            }
            "counter" => {
                rec.get("value")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad(lineno, "counter without an integer `value`"))?;
            }
            _ => {}
        }
        out.records.push(rec);
    }
    Ok(out)
}

/// How many spans a trace leaves open (0 for a run that finished).
pub fn open_spans(records: &[Json]) -> usize {
    let mut open: BTreeMap<u64, ()> = BTreeMap::new();
    for rec in records {
        let (Some(kind), Some(id)) =
            (rec.get("kind").and_then(Json::as_str), rec.get("span").and_then(Json::as_u64))
        else {
            continue;
        };
        match kind {
            "span_open" => {
                open.insert(id, ());
            }
            "span_close" => {
                open.remove(&id);
            }
            _ => {}
        }
    }
    open.len()
}

/// The Table-1 view of one trace.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// Total validated records.
    pub records: usize,
    /// Number of spans opened.
    pub spans: usize,
    /// Per-rank frontier sizes from `rank.layer` events: `(rank, nodes)`.
    pub rank_nodes: Vec<(u64, u64)>,
    /// Aggregate wall seconds per span name (from `span_close.dur_us`).
    pub phase_secs: BTreeMap<String, f64>,
    /// Numeric fields of the last `synthesis.stats` event — the
    /// authoritative end-of-run figures (identical to what the CLI's
    /// statistics block prints).
    pub stats: BTreeMap<String, f64>,
    /// Last sample of each named counter.
    pub counters: BTreeMap<String, u64>,
    /// `warn`-level event names and messages.
    pub warnings: Vec<String>,
    /// Well-formed records skipped for an unknown `kind`/`level` — a
    /// newer trace-schema version (see [`parse_trace_lenient`]).
    pub skipped_unknown: usize,
}

impl TraceSummary {
    /// A stat field from the `synthesis.stats` event, if present.
    pub fn stat(&self, name: &str) -> Option<f64> {
        self.stats.get(name).copied()
    }

    /// Render the summary as the paper's Table-1 columns.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "trace summary: {} records, {} spans", self.records, self.spans);
        if !self.stats.is_empty() {
            let stats = SynthesisStats::from_record(|k| self.stat(k));
            let _ = write!(out, "\nTable-1 columns:\n{}", stats.render_block());
        }
        if !self.rank_nodes.is_empty() {
            let _ = writeln!(out, "\nper-rank frontier (rank: BDD nodes):");
            for (rank, nodes) in &self.rank_nodes {
                let _ = writeln!(out, "  {rank:>4}: {nodes}");
            }
        }
        if !self.phase_secs.is_empty() {
            let _ = writeln!(out, "\nper-phase wall time (from spans):");
            for (name, secs) in &self.phase_secs {
                let _ = writeln!(out, "  {name:<22} {secs:.3}s");
            }
        }
        if !self.warnings.is_empty() {
            let _ = writeln!(out, "\nwarnings:");
            for w in &self.warnings {
                let _ = writeln!(out, "  {w}");
            }
        }
        if self.skipped_unknown > 0 {
            let _ = writeln!(
                out,
                "\nwarning: skipped {} record(s) with an unrecognized kind/level \
                 (trace written by a newer stsyn?)",
                self.skipped_unknown
            );
        }
        out
    }
}

/// Summarize validated records (see [`parse_trace`]).
pub fn summarize(records: &[Json]) -> TraceSummary {
    let mut s = TraceSummary { records: records.len(), ..TraceSummary::default() };
    for rec in records {
        let kind = rec.get("kind").and_then(Json::as_str).unwrap_or("");
        let name = rec.get("name").and_then(Json::as_str).unwrap_or("");
        match kind {
            "span_open" => s.spans += 1,
            "span_close" => {
                if let Some(dur) = rec.get("dur_us").and_then(Json::as_u64) {
                    *s.phase_secs.entry(name.to_string()).or_insert(0.0) += dur as f64 / 1e6;
                }
            }
            "counter" => {
                if let Some(v) = rec.get("value").and_then(Json::as_u64) {
                    s.counters.insert(name.to_string(), v);
                }
            }
            "event" => {
                let level = rec.get("level").and_then(Json::as_str).unwrap_or("");
                if level == "warn" {
                    let msg = rec
                        .get("message")
                        .and_then(Json::as_str)
                        .map(|m| format!("{name}: {m}"))
                        .unwrap_or_else(|| name.to_string());
                    s.warnings.push(msg);
                }
                match name {
                    "rank.layer" => {
                        if let (Some(rank), Some(nodes)) = (
                            rec.get("rank").and_then(Json::as_u64),
                            rec.get("nodes").and_then(Json::as_u64),
                        ) {
                            s.rank_nodes.push((rank, nodes));
                        }
                    }
                    "synthesis.stats" => {
                        if let Json::Obj(pairs) = rec {
                            s.stats = pairs
                                .iter()
                                .filter_map(|(k, v)| v.as_f64().map(|n| (k.clone(), n)))
                                .collect();
                        }
                    }
                    _ => {}
                }
            }
            _ => {}
        }
    }
    s
}

/// Parse, validate and summarize a trace file. Records written by a
/// newer schema version are skipped and surfaced via
/// [`TraceSummary::skipped_unknown`] rather than failing the parse.
pub fn summarize_file(path: &Path) -> Result<TraceSummary, TraceError> {
    let file = std::fs::File::open(path)
        .map_err(|e| bad(0, format!("cannot open {}: {e}", path.display())))?;
    let parsed = parse_trace_lenient(std::io::BufReader::new(file))?;
    let mut summary = summarize(&parsed.records);
    summary.skipped_unknown = parsed.skipped_unknown;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TraceLevel, Tracer};

    fn trace_lines() -> Vec<String> {
        let (t, sink) = Tracer::memory(TraceLevel::Debug);
        {
            let _run = t.span("phase.ranking");
            t.debug("rank.layer", &[("rank", Json::from(1u64)), ("nodes", Json::from(10u64))]);
            t.debug("rank.layer", &[("rank", Json::from(2u64)), ("nodes", Json::from(25u64))]);
            t.counter("bdd.ticks", 500);
        }
        t.info(
            "synthesis.stats",
            &[
                ("max_rank", Json::from(2u64)),
                ("ranking_secs", Json::Num(0.125)),
                ("total_secs", Json::Num(0.5)),
            ],
        );
        sink.lines()
    }

    #[test]
    fn parses_and_summarizes_a_valid_trace() {
        let text = trace_lines().join("\n");
        let recs = parse_trace(text.as_bytes()).unwrap();
        assert_eq!(open_spans(&recs), 0);
        let s = summarize(&recs);
        assert_eq!(s.rank_nodes, vec![(1, 10), (2, 25)]);
        assert_eq!(s.counters.get("bdd.ticks"), Some(&500));
        assert_eq!(s.stat("ranking_secs"), Some(0.125));
        assert_eq!(s.stat("max_rank"), Some(2.0));
        let table = s.render_table();
        assert!(table.contains("ranking time          : 0.125s"));
        assert!(table.contains("   1: 10"));
        assert!(table.contains("phase.ranking"));
    }

    #[test]
    fn rejects_malformed_records() {
        assert!(parse_trace("not json".as_bytes()).is_err());
        assert!(parse_trace("{\"kind\":\"event\"}".as_bytes()).is_err());
        // Close without open.
        assert!(parse_trace(
            "{\"ts_us\":1,\"kind\":\"span_close\",\"level\":\"info\",\"name\":\"x\",\"span\":9,\"dur_us\":1}"
                .as_bytes()
        )
        .is_err());
        // Name mismatch between open and close.
        let bad_pair = "{\"ts_us\":1,\"kind\":\"span_open\",\"level\":\"info\",\"name\":\"a\",\"span\":1}\n\
             {\"ts_us\":2,\"kind\":\"span_close\",\"level\":\"info\",\"name\":\"b\",\"span\":1,\"dur_us\":1}";
        assert!(parse_trace(bad_pair.as_bytes()).is_err());
    }

    #[test]
    fn future_versioned_trace_is_skipped_not_rejected() {
        // A trace from a hypothetical newer stsyn: two record kinds and a
        // level this reader has never heard of, interleaved with records
        // it fully understands.
        let mut lines = trace_lines();
        lines.insert(
            1,
            "{\"ts_us\":5,\"kind\":\"stream_attach\",\"level\":\"info\",\"name\":\"watch\",\"v\":2}"
                .to_string(),
        );
        lines.push(
            "{\"ts_us\":900,\"kind\":\"event\",\"level\":\"trace\",\"name\":\"rank.micro\"}"
                .to_string(),
        );
        lines.push(
            "{\"ts_us\":901,\"kind\":\"histogram\",\"level\":\"info\",\"name\":\"lat\",\"b\":[1,2]}"
                .to_string(),
        );
        let text = lines.join("\n");
        let parsed = parse_trace_lenient(text.as_bytes()).unwrap();
        assert_eq!(parsed.skipped_unknown, 3);
        // The known records still validate and summarize as before.
        let s = summarize(&parsed.records);
        assert_eq!(s.rank_nodes, vec![(1, 10), (2, 25)]);
        // `parse_trace` keeps its old shape for existing callers.
        let recs = parse_trace(text.as_bytes()).unwrap();
        assert_eq!(recs.len(), parsed.records.len());
        // And the rendered table surfaces the skip count.
        let mut s2 = s.clone();
        s2.skipped_unknown = parsed.skipped_unknown;
        assert!(s2.render_table().contains("skipped 3 record(s)"));
        // Records missing `kind`/`level` entirely are still hard errors.
        assert!(parse_trace("{\"ts_us\":1,\"name\":\"x\",\"level\":\"info\"}".as_bytes()).is_err());
    }

    #[test]
    fn counts_open_spans() {
        let only_open =
            "{\"ts_us\":1,\"kind\":\"span_open\",\"level\":\"info\",\"name\":\"a\",\"span\":1}";
        let recs = parse_trace(only_open.as_bytes()).unwrap();
        assert_eq!(open_spans(&recs), 1);
    }

    #[test]
    fn warn_events_are_collected() {
        let line = "{\"ts_us\":1,\"kind\":\"event\",\"level\":\"warn\",\"name\":\"checkpoint.warning\",\"message\":\"torn tail\"}";
        let recs = parse_trace(line.as_bytes()).unwrap();
        let s = summarize(&recs);
        assert_eq!(s.warnings, vec!["checkpoint.warning: torn tail".to_string()]);
    }
}
