//! Wire-level job specifications and protocol constants.
//!
//! A submission names its workload either as DSL text (`{"dsl": "..."}`)
//! or as a parametric case study from the paper
//! (`{"case": "coloring", "n": 5}`), plus mode, schedule, priority and
//! per-job budget caps. [`SubmitSpec`] round-trips through JSON — the
//! same encoding is sent over the socket and persisted to the state
//! directory, so a restarted daemon rebuilds exactly the job the client
//! submitted — and [`SubmitSpec::materialize`] lowers it onto the
//! library-level [`stsyn_core::job::JobSpec`] entry point (the service
//! never shells out to the CLI).

use crate::json::Json;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;
use stsyn_core::job::{JobMode, JobSpec};
use stsyn_symbolic::Budget;

/// Hard cap on one request line (framing bound, checked before parsing).
pub const MAX_REQUEST_BYTES: usize = 4 << 20;
/// Hard cap on submitted DSL text (checked again by `parse_bounded`).
pub const MAX_DSL_BYTES: usize = 1 << 20;
/// Largest accepted `n` for parametric case studies.
pub const MAX_CASE_SIZE: usize = 64;

/// Read one newline-terminated frame, bounded at `max` bytes.
///
/// Returns `Ok(None)` on a clean EOF before any byte. An over-long line
/// or non-UTF-8 bytes surface as [`io::ErrorKind::InvalidData`] — a
/// *typed* framing error the daemon answers with a `bad-request`
/// response instead of panicking or buffering without bound. A final
/// line without a trailing newline (a torn frame ending in EOF) is
/// returned as-is and left to the JSON parser to reject.
pub fn read_line_bounded(reader: &mut impl BufRead, max: usize) -> io::Result<Option<String>> {
    let mut buf = Vec::new();
    let n = reader.by_ref().take(max as u64 + 1).read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(None);
    }
    if buf.last() != Some(&b'\n') && buf.len() > max {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "request line too long"));
    }
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "request is not UTF-8"))
}

/// Serve one client connection: newline-delimited JSON requests in, one
/// JSON response line per request out — the loop the daemon and the
/// router share.
///
/// `io_timeout` (zero = none) bounds every read and write; a connection
/// that idles or stalls past it is reaped. An oversized or non-UTF-8
/// frame breaks the framing beyond recovery, but is still answered once
/// with a typed `bad-request` before the connection drops. `watch` is
/// the one streaming verb: `watch` takes the connection over, writes its
/// frames, and returns `Ok(None)` to hand back to the loop, or
/// `Ok(Some(resp))` to answer with one line instead. Every other request
/// is answered by `dispatch`.
pub(crate) fn serve_conn(
    stream: TcpStream,
    io_timeout: Duration,
    watch: impl Fn(&Json, &mut TcpStream) -> io::Result<Option<Json>>,
    dispatch: impl Fn(&Json) -> Json,
) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    if !io_timeout.is_zero() {
        stream.set_read_timeout(Some(io_timeout))?;
        stream.set_write_timeout(Some(io_timeout))?;
    }
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    loop {
        let (response, last) = match read_line_bounded(&mut reader, MAX_REQUEST_BYTES) {
            Ok(None) => return Ok(()), // client closed
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                return Ok(()); // idle or stalled past the deadline: reap
            }
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                (error_json("bad-request", &e.to_string()), true)
            }
            Err(e) => return Err(e),
            Ok(Some(line)) if line.trim().is_empty() => continue,
            Ok(Some(line)) => match Json::parse(&line) {
                Ok(req) if req.get("op").and_then(Json::as_str) == Some("watch") => {
                    match watch(&req, &mut writer)? {
                        None => continue,
                        Some(resp) => (resp, false),
                    }
                }
                Ok(req) => (dispatch(&req), false),
                Err(e) => (error_json("bad-request", &format!("malformed request: {e}")), false),
            },
        };
        write_line(&mut writer, &response.to_string())?;
        if last {
            return Ok(());
        }
    }
}

/// Write one newline-terminated frame and flush it.
pub(crate) fn write_line(writer: &mut impl Write, line: &str) -> io::Result<()> {
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

/// Fold a 64-bit hash into the 53 bits an f64-backed JSON number
/// round-trips exactly — idempotency keys cross the wire as numbers.
pub(crate) fn fold_idem(h: u64) -> u64 {
    (h ^ (h >> 53)) & ((1u64 << 53) - 1)
}

/// A wire error response: `{"ok":false,"code":...,"error":...}`. The
/// daemon and the router build every refusal through this, so clients
/// can always rely on the `code` field for typed handling.
pub fn error_json(code: &str, message: &str) -> Json {
    Json::obj(vec![("ok", false.into()), ("code", code.into()), ("error", message.into())])
}

/// Error code a router answers when a request's home shard is down and
/// the operation cannot be failed over to a surviving shard.
pub const CODE_DEGRADED: &str = "degraded";
/// Error code a router answers when no shard is available at all.
pub const CODE_NO_SHARDS: &str = "no-shards";

/// Reserved chaos-testing workloads (the `__crash__` / `__lose_worker__`
/// case names): deterministic fault triggers the supervision layer is
/// tested — and demonstrated — against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosJob {
    /// The job panics inside the worker's `catch_unwind` fence: exercises
    /// crash recording, retry and poison-job quarantine.
    Crash,
    /// The job panics *outside* the fence, killing its worker thread:
    /// exercises worker respawn by the supervisor.
    LoseWorker,
}

/// The workload of a submission.
#[derive(Debug, Clone, PartialEq)]
pub enum JobSource {
    /// A parametric case study: `coloring`, `matching`, `token_ring`,
    /// `two_ring` or `mis`, with ring size `n` (and domain size `d` for
    /// the token rings).
    Case {
        /// Case-study name.
        name: String,
        /// Ring size / process count parameter.
        n: usize,
        /// Domain size (token rings only; 0 elsewhere).
        d: u32,
    },
    /// Protocol DSL text, parsed with `stsyn_protocol::dsl::parse_bounded`.
    Dsl(String),
}

/// A complete submission: workload plus knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitSpec {
    /// What to synthesize.
    pub source: JobSource,
    /// Weak instead of strong convergence.
    pub weak: bool,
    /// Explicit recovery schedule (process indices).
    pub schedule: Option<Vec<usize>>,
    /// Queue priority; higher pops first, default 0.
    pub priority: i64,
    /// Wall-clock budget in seconds.
    pub timeout_secs: Option<f64>,
    /// Live BDD node ceiling.
    pub max_nodes: Option<usize>,
    /// BDD operation tick ceiling.
    pub max_ticks: Option<u64>,
    /// Idempotency key: resubmitting a key the daemon has already
    /// accepted returns the existing job id instead of enqueueing a
    /// duplicate, which is what makes client-side submit retries safe.
    /// [`Client::submit`](crate::Client::submit) derives one per logical
    /// submission; set it to [`SubmitSpec::fingerprint`] for
    /// content-addressed dedup of identical workloads.
    pub idem: Option<u64>,
}

impl SubmitSpec {
    /// A default-knob submission of the given source.
    pub fn new(source: JobSource) -> SubmitSpec {
        SubmitSpec {
            source,
            weak: false,
            schedule: None,
            priority: 0,
            timeout_secs: None,
            max_nodes: None,
            max_ticks: None,
            idem: None,
        }
    }

    /// Encode for the socket / the persistent spec file.
    pub fn to_json(&self) -> Json {
        let mut pairs = self.content_pairs();
        if let Some(k) = self.idem {
            pairs.push(("idem", k.into()));
        }
        Json::obj(pairs)
    }

    /// The submission's content identity: a stable FNV-1a hash of its
    /// canonical JSON encoding *excluding* the idempotency key, so the
    /// same workload + knobs always fingerprint the same regardless of
    /// which submission attempt carried it. Folded to 53 bits so the
    /// value survives the wire's f64-backed JSON numbers exactly.
    pub fn fingerprint(&self) -> u64 {
        let canonical = Json::obj(self.content_pairs()).to_string();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in canonical.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        fold_idem(h)
    }

    /// The reserved chaos-testing workload this spec names, if any.
    pub fn chaos_job(&self) -> Option<ChaosJob> {
        match &self.source {
            JobSource::Case { name, .. } if name == "__crash__" => Some(ChaosJob::Crash),
            JobSource::Case { name, .. } if name == "__lose_worker__" => Some(ChaosJob::LoseWorker),
            _ => None,
        }
    }

    /// The budget-free synthesis identity: what is being synthesized
    /// (workload, mode, schedule) with the knobs that only shape *how
    /// long* the run may take (budget, priority) left out. Two specs
    /// with equal [`SubmitSpec::warm_fingerprint`]s walk byte-identical
    /// rank layers, which is what lets one job's checkpoint prefix
    /// warm-start another's run.
    pub fn warm_fingerprint(&self) -> u64 {
        let canonical = Json::obj(self.synthesis_pairs()).to_string();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in canonical.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        fold_idem(h)
    }

    /// The pairs that determine the synthesis walk itself — everything
    /// [`SubmitSpec::materialize`] feeds into protocol construction and
    /// scheduling, nothing that only bounds or prioritizes the run.
    fn synthesis_pairs(&self) -> Vec<(&'static str, Json)> {
        let mut pairs: Vec<(&str, Json)> = Vec::new();
        match &self.source {
            JobSource::Case { name, n, d } => {
                pairs.push(("case", name.as_str().into()));
                pairs.push(("n", (*n).into()));
                if *d != 0 {
                    pairs.push(("d", u64::from(*d).into()));
                }
            }
            JobSource::Dsl(text) => pairs.push(("dsl", text.as_str().into())),
        }
        if self.weak {
            pairs.push(("weak", true.into()));
        }
        if let Some(s) = &self.schedule {
            pairs.push(("schedule", Json::Arr(s.iter().map(|&i| Json::from(i)).collect())));
        }
        pairs
    }

    fn content_pairs(&self) -> Vec<(&'static str, Json)> {
        let mut pairs = self.synthesis_pairs();
        if self.priority != 0 {
            pairs.push(("priority", self.priority.into()));
        }
        if let Some(t) = self.timeout_secs {
            pairs.push(("timeout_secs", t.into()));
        }
        if let Some(n) = self.max_nodes {
            pairs.push(("max_nodes", n.into()));
        }
        if let Some(n) = self.max_ticks {
            pairs.push(("max_ticks", n.into()));
        }
        pairs
    }

    /// Decode a submission object, rejecting malformed fields with a
    /// client-facing message.
    pub fn from_json(v: &Json) -> Result<SubmitSpec, String> {
        let source = match (v.get("dsl"), v.get("case")) {
            (Some(d), None) => {
                let text = d.as_str().ok_or("`dsl` must be a string")?;
                JobSource::Dsl(text.to_string())
            }
            (None, Some(c)) => {
                let name = c.as_str().ok_or("`case` must be a string")?.to_string();
                let n = v
                    .get("n")
                    .and_then(Json::as_u64)
                    .ok_or("case submissions need an integer `n`")?
                    as usize;
                let d = v.get("d").and_then(Json::as_u64).unwrap_or(0) as u32;
                JobSource::Case { name, n, d }
            }
            _ => return Err("submission must have exactly one of `dsl` or `case`".to_string()),
        };
        let mut spec = SubmitSpec::new(source);
        if let Some(w) = v.get("weak") {
            spec.weak = w.as_bool().ok_or("`weak` must be a boolean")?;
        }
        if let Some(s) = v.get("schedule") {
            let items = s.as_arr().ok_or("`schedule` must be an array of process indices")?;
            let mut order = Vec::with_capacity(items.len());
            for it in items {
                order
                    .push(it.as_u64().ok_or("`schedule` entries must be non-negative integers")?
                        as usize);
            }
            spec.schedule = Some(order);
        }
        // Specs written when the image/preimage engine was selectable may
        // still name one. Every engine gave the same protocol, so a known
        // name is accepted and ignored.
        if let Some(e) = v.get("engine") {
            let name = e.as_str().ok_or("`engine` must be a string")?;
            if !matches!(name, "monolithic" | "partitioned" | "saturation") {
                return Err("`engine` must be monolithic, partitioned or saturation".to_string());
            }
        }
        if let Some(p) = v.get("priority") {
            spec.priority = p.as_i64().ok_or("`priority` must be an integer")?;
        }
        if let Some(t) = v.get("timeout_secs") {
            let secs = t.as_f64().ok_or("`timeout_secs` must be a number")?;
            if !(secs > 0.0 && secs.is_finite()) {
                return Err("`timeout_secs` must be positive and finite".to_string());
            }
            spec.timeout_secs = Some(secs);
        }
        if let Some(n) = v.get("max_nodes") {
            spec.max_nodes =
                Some(n.as_u64().ok_or("`max_nodes` must be a non-negative integer")? as usize);
        }
        if let Some(n) = v.get("max_ticks") {
            spec.max_ticks = Some(n.as_u64().ok_or("`max_ticks` must be a non-negative integer")?);
        }
        if let Some(k) = v.get("idem") {
            spec.idem = Some(k.as_u64().ok_or("`idem` must be a non-negative integer")?);
        }
        Ok(spec)
    }

    /// The per-job [`Budget`] from the submission's caps (cancellation
    /// flags are attached by the worker), or `None` when uncapped.
    pub fn budget(&self) -> Option<Budget> {
        let mut b = Budget::unlimited();
        if let Some(secs) = self.timeout_secs {
            b = b.with_timeout(std::time::Duration::from_secs_f64(secs));
        }
        if let Some(n) = self.max_nodes {
            b = b.with_max_nodes(n);
        }
        if let Some(n) = self.max_ticks {
            b = b.with_max_ticks(n);
        }
        b.is_limited().then_some(b)
    }

    /// Lower onto the library entry point: build (or parse) the protocol
    /// and invariant and fill in mode, schedule and budget. Errors are
    /// client-facing strings — every failure here is the submitter's.
    pub fn materialize(&self) -> Result<JobSpec, String> {
        let (name, protocol, invariant) = match &self.source {
            JobSource::Dsl(text) => {
                let parsed = stsyn_protocol::dsl::parse_bounded(text, MAX_DSL_BYTES)
                    .map_err(|e| format!("protocol text rejected: {e}"))?;
                (parsed.name, parsed.protocol, parsed.invariant)
            }
            JobSource::Case { name, n, d } => {
                let n = *n;
                if !(2..=MAX_CASE_SIZE).contains(&n) {
                    return Err(format!("case size n={n} outside 2..={MAX_CASE_SIZE}"));
                }
                let d = if *d == 0 { 3 } else { *d };
                let (p, i) = match name.as_str() {
                    // Chaos self-test workloads: a real (tiny) problem so
                    // the spec validates; the daemon's worker recognizes
                    // the marker and panics at the scripted point.
                    "__crash__" | "__lose_worker__" => stsyn_cases::coloring(n),
                    "coloring" => stsyn_cases::coloring(n),
                    "matching" => stsyn_cases::matching(n),
                    "token_ring" => stsyn_cases::token_ring(n, d),
                    "two_ring" => stsyn_cases::two_ring(n, d),
                    "mis" => stsyn_cases::mis(n),
                    other => {
                        return Err(format!(
                            "unknown case `{other}` (expected coloring, matching, token_ring, \
                             two_ring or mis)"
                        ))
                    }
                };
                (format!("{name}{n}"), p, i)
            }
        };
        let mut job = JobSpec::new(name, protocol, invariant);
        job.mode = if self.weak { JobMode::Weak } else { JobMode::Strong };
        job.schedule = self.schedule.clone();
        job.budget = self.budget();
        job.validate().map_err(|e| e.to_string())?;
        Ok(job)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_spec_roundtrips_through_json() {
        let mut spec = SubmitSpec::new(JobSource::Case { name: "token_ring".into(), n: 4, d: 3 });
        spec.weak = true;
        spec.schedule = Some(vec![1, 2, 3, 0]);
        spec.priority = -2;
        spec.timeout_secs = Some(1.5);
        spec.max_nodes = Some(100_000);
        spec.max_ticks = Some(42);
        spec.idem = Some(0xFEED_F00D);
        let back = SubmitSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);

        let dsl = SubmitSpec::new(JobSource::Dsl("protocol X {\n}".into()));
        assert_eq!(SubmitSpec::from_json(&dsl.to_json()).unwrap(), dsl);
    }

    #[test]
    fn rejects_ambiguous_and_malformed_sources() {
        assert!(SubmitSpec::from_json(&Json::obj(vec![])).is_err());
        assert!(SubmitSpec::from_json(&Json::obj(vec![
            ("dsl", "x".into()),
            ("case", "coloring".into()),
        ]))
        .is_err());
        assert!(SubmitSpec::from_json(&Json::obj(vec![("case", "coloring".into())])).is_err());
        assert!(SubmitSpec::from_json(&Json::obj(vec![
            ("case", "coloring".into()),
            ("n", 3u64.into()),
            ("timeout_secs", (-1i64).into()),
        ]))
        .is_err());
    }

    #[test]
    fn materialize_builds_the_case_studies() {
        for name in ["coloring", "matching", "token_ring", "two_ring", "mis"] {
            let spec = SubmitSpec::new(JobSource::Case { name: name.into(), n: 3, d: 0 });
            let job = spec.materialize().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(job.protocol.num_processes() > 0, "{name}");
        }
    }

    #[test]
    fn materialize_rejects_bad_inputs() {
        let huge = SubmitSpec::new(JobSource::Case { name: "coloring".into(), n: 1000, d: 0 });
        assert!(huge.materialize().is_err());
        let unknown = SubmitSpec::new(JobSource::Case { name: "nope".into(), n: 3, d: 0 });
        assert!(unknown.materialize().unwrap_err().contains("unknown case"));
        let bad_dsl = SubmitSpec::new(JobSource::Dsl("protocol {".into()));
        assert!(bad_dsl.materialize().unwrap_err().contains("rejected"));
        let mut bad_sched =
            SubmitSpec::new(JobSource::Case { name: "coloring".into(), n: 3, d: 0 });
        bad_sched.schedule = Some(vec![0, 0, 1]);
        assert!(bad_sched.materialize().is_err());
    }

    #[test]
    fn fingerprint_is_content_identity_not_submission_identity() {
        let mut a = SubmitSpec::new(JobSource::Case { name: "coloring".into(), n: 3, d: 0 });
        let mut b = a.clone();
        // The idempotency key is transport identity, not content identity.
        a.idem = Some(1);
        b.idem = Some(2);
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Any content knob changes the fingerprint.
        b.priority = 7;
        assert_ne!(a.fingerprint(), b.fingerprint());
        let dsl = SubmitSpec::new(JobSource::Dsl("protocol X {\n}".into()));
        assert_ne!(a.fingerprint(), dsl.fingerprint());
    }

    #[test]
    fn warm_fingerprint_ignores_budget_and_priority_only() {
        let base = SubmitSpec::new(JobSource::Case { name: "coloring".into(), n: 3, d: 0 });
        // Budget and priority knobs change the exact key but not the
        // warm key — the synthesis walk is identical.
        let mut budgeted = base.clone();
        budgeted.timeout_secs = Some(30.0);
        budgeted.max_nodes = Some(1 << 20);
        budgeted.max_ticks = Some(1 << 30);
        budgeted.priority = 5;
        assert_ne!(base.fingerprint(), budgeted.fingerprint());
        assert_eq!(base.warm_fingerprint(), budgeted.warm_fingerprint());
        // Anything that alters the walk alters the warm key too.
        let mut bigger = base.clone();
        bigger.source = JobSource::Case { name: "coloring".into(), n: 4, d: 0 };
        assert_ne!(base.warm_fingerprint(), bigger.warm_fingerprint());
        let mut weak = base.clone();
        weak.weak = true;
        assert_ne!(base.warm_fingerprint(), weak.warm_fingerprint());
        let mut sched = base.clone();
        sched.schedule = Some(vec![2, 1, 0]);
        assert_ne!(sched.warm_fingerprint(), weak.warm_fingerprint());
    }

    #[test]
    fn legacy_engine_field_is_ignored_and_unknown_names_rejected() {
        let with_engine = |name: &str| {
            Json::obj(vec![
                ("case", "coloring".into()),
                ("n", 3u64.into()),
                ("engine", name.into()),
            ])
        };
        for name in ["monolithic", "partitioned", "saturation"] {
            let spec = SubmitSpec::from_json(&with_engine(name)).unwrap();
            assert_eq!(spec, case_spec(), "{name}");
            assert_eq!(spec.to_json().get("engine"), None, "{name}");
        }
        let err = SubmitSpec::from_json(&with_engine("quantum")).unwrap_err();
        assert_eq!(err, "`engine` must be monolithic, partitioned or saturation");
    }

    #[test]
    fn default_spec_keys_are_pinned() {
        // Store keys and journal identities live on disk across releases:
        // a default coloring(3) job must keep the keys it always had.
        let spec = case_spec();
        assert_eq!(spec.fingerprint(), 0x5499_6328_aa4f);
        assert_eq!(spec.warm_fingerprint(), 0x5499_6328_aa4f);
        let job = spec.materialize().unwrap();
        let schedule = job.resolved_schedule(&job.problem().unwrap());
        let journal = stsyn_core::checkpoint::fingerprint(
            &job.protocol,
            &job.invariant,
            &stsyn_core::Options::default(),
            &schedule,
        );
        assert_eq!(journal, 0x5592_2469_9a89_c1c6);
    }

    #[test]
    fn chaos_markers_are_recognized_and_materialize() {
        for (name, marker) in
            [("__crash__", ChaosJob::Crash), ("__lose_worker__", ChaosJob::LoseWorker)]
        {
            let spec = SubmitSpec::new(JobSource::Case { name: name.into(), n: 3, d: 0 });
            assert_eq!(spec.chaos_job(), Some(marker));
            assert!(spec.materialize().is_ok(), "{name} must pass submit validation");
        }
        assert_eq!(case_spec().chaos_job(), None);
    }

    fn case_spec() -> SubmitSpec {
        SubmitSpec::new(JobSource::Case { name: "coloring".into(), n: 3, d: 0 })
    }

    #[test]
    fn read_line_bounded_rejects_oversize_and_non_utf8_with_typed_errors() {
        use std::io::{Cursor, ErrorKind};
        let mut ok = Cursor::new(b"{\"op\":\"stats\"}\n".to_vec());
        assert_eq!(
            read_line_bounded(&mut ok, 64).unwrap().as_deref(),
            Some("{\"op\":\"stats\"}\n")
        );
        let mut eof = Cursor::new(Vec::new());
        assert!(read_line_bounded(&mut eof, 64).unwrap().is_none());
        // A torn final frame (EOF, no newline) within the bound comes
        // back for the JSON parser to reject.
        let mut torn = Cursor::new(b"{\"op\":".to_vec());
        assert_eq!(read_line_bounded(&mut torn, 64).unwrap().as_deref(), Some("{\"op\":"));
        // Over-long and non-UTF-8 are typed framing errors, not panics.
        let mut long = Cursor::new(vec![b'a'; 100]);
        assert_eq!(read_line_bounded(&mut long, 64).unwrap_err().kind(), ErrorKind::InvalidData);
        let mut bad = Cursor::new(vec![0xFF, 0xFE, b'\n']);
        assert_eq!(read_line_bounded(&mut bad, 64).unwrap_err().kind(), ErrorKind::InvalidData);
        // Exactly at the bound, with its newline, still fits.
        let mut exact = Cursor::new([vec![b'x'; 63], vec![b'\n']].concat());
        assert_eq!(read_line_bounded(&mut exact, 64).unwrap().unwrap().len(), 64);
    }

    #[test]
    fn budget_caps_compose() {
        let mut spec = SubmitSpec::new(JobSource::Case { name: "coloring".into(), n: 3, d: 0 });
        assert!(spec.budget().is_none());
        spec.max_ticks = Some(10);
        assert!(spec.budget().is_some());
    }
}
