//! `stsyn-obs` — std-only tracing and metrics for the synthesis pipeline.
//!
//! The paper's empirical story (Table 1, Figs. 7/9/10) is told through two
//! observables — BDD node counts and per-phase synthesis time — that the
//! rest of the workspace previously reported only as one-shot end-of-run
//! numbers. This crate provides the shared observability layer:
//!
//! - [`trace`] — a cheap cloneable [`Tracer`] with span/event/counter
//!   hooks and an NDJSON sink (file, stderr, or in-memory). A disabled
//!   tracer costs one `Option` check per hook.
//! - [`progress`] — [`ProgressBus`], a bounded per-job ring of progress
//!   frames the tracer tees into, backing the serve daemon's live
//!   `watch` streaming.
//! - [`metrics`] — the counter [`Row`] tables every layer publishes
//!   through, [`MetricsText`] (the Prometheus text format), and the
//!   log-bucketed [`LatencyHistogram`] behind the `stsyn_*_seconds`
//!   series.
//! - [`stats`] — [`SynthesisStats`], a synthesis run's counters, and
//!   the one table that renders them on every surface.
//! - [`summary`] — validation and Table-1-style summarization of trace
//!   files, backing `stsyn trace-summary` and the CI trace-smoke job.
//! - [`json`] — the dependency-free JSON value used both for trace
//!   records and (re-exported by `stsyn-serve`) the wire protocol.

#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod progress;
pub mod stats;
pub mod summary;
pub mod trace;

pub use json::{Json, JsonError};
pub use metrics::{
    HistogramSnapshot, Kind, LatencyHistogram, MetricsText, Names, Row, Value, LATENCY_BUCKETS,
};
pub use progress::{is_progress_event, Progress, ProgressBus, ProgressReceiver};
pub use stats::SynthesisStats;
pub use summary::{
    open_spans, parse_trace, parse_trace_lenient, summarize, summarize_file, LenientTrace,
    TraceError, TraceSummary,
};
pub use trace::{MemorySink, Span, TraceLevel, TraceSink, Tracer};
