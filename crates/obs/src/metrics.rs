//! Counter tables and the Prometheus text format.
//!
//! Every counter the pipeline publishes is named once, in one table per
//! layer. A table row holds the counter's JSON key, its Prometheus
//! series, its type, its help text and a getter that reads it from the
//! layer's own state:
//!
//! - [`Row`] tables in `stsyn-serve`: the daemon's job counters, gauges,
//!   latency histograms and store counters (`stats`, `metrics`,
//!   `store-stats`, and the router's fleet sums via [`Row::fleet`]),
//!   and the router's own counters;
//! - [`crate::stats::STATS`] over [`crate::stats::SynthesisStats`]: the
//!   `synthesis.stats` trace record, the job result's `stats`, the
//!   one-shot `--metrics` output and the statistics block.
//!
//! Every surface renders by looping over its table, so a JSON key and
//! its series can never drift apart. [`MetricsText`] renders rows in the
//! Prometheus text format (`# HELP` / `# TYPE` headers, one sample per
//! line); [`valid_name`] is the name check every series must pass.

use crate::json::Json;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// Upper bounds (microseconds, inclusive) of the log-spaced latency
/// buckets shared by every `stsyn_*_seconds` histogram: powers of four
/// from 1 ms to ~262 s, plus an implicit `+Inf` overflow bucket. Using
/// one fixed layout everywhere is what lets the router sum shard buckets
/// element-wise into the `stsyn_fleet_*` series.
pub const LATENCY_BUCKET_BOUNDS_US: [u64; 10] = [
    1_000,
    4_000,
    16_000,
    64_000,
    256_000,
    1_024_000,
    4_096_000,
    16_384_000,
    65_536_000,
    262_144_000,
];

/// Number of bucket counters, including the `+Inf` overflow slot.
pub const LATENCY_BUCKETS: usize = LATENCY_BUCKET_BOUNDS_US.len() + 1;

/// A lock-free log-bucketed latency histogram (fixed
/// [`LATENCY_BUCKET_BOUNDS_US`] layout). Writers call
/// [`LatencyHistogram::observe_us`]; readers take a consistent-enough
/// [`HistogramSnapshot`] for rendering or cross-shard aggregation.
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    sum_us: AtomicU64,
    count: AtomicU64,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram::default()
    }

    /// Record one latency sample, in microseconds.
    pub fn observe_us(&self, us: u64) {
        let idx = LATENCY_BUCKET_BOUNDS_US
            .iter()
            .position(|&bound| us <= bound)
            .unwrap_or(LATENCY_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time copy of the per-bucket counts, sum and count.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            sum_us: self.sum_us.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
        }
    }
}

/// A copied histogram state — what `stats` exposes on the wire and what
/// the router sums across shards.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket (non-cumulative) counts; `buckets[LATENCY_BUCKETS-1]`
    /// is the `+Inf` overflow slot.
    pub buckets: Vec<u64>,
    /// Sum of all observed samples, microseconds.
    pub sum_us: u64,
    /// Number of observed samples.
    pub count: u64,
}

impl HistogramSnapshot {
    /// An all-zero snapshot with the standard bucket layout.
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot { buckets: vec![0; LATENCY_BUCKETS], sum_us: 0, count: 0 }
    }

    /// Wire form, as exposed in the serve daemon's `stats` response:
    /// `{"buckets":[..],"sum_us":N,"count":N}`.
    pub fn to_json(&self) -> crate::json::Json {
        Json::obj(vec![
            ("buckets", Json::Arr(self.buckets.iter().map(|&b| Json::from(b)).collect())),
            ("sum_us", self.sum_us.into()),
            ("count", self.count.into()),
        ])
    }

    /// Parse the wire form back (used by the router's fleet aggregation).
    pub fn from_json(v: &crate::json::Json) -> Option<HistogramSnapshot> {
        let buckets = match v.get("buckets")? {
            Json::Arr(items) => items.iter().map(Json::as_u64).collect::<Option<Vec<u64>>>()?,
            _ => return None,
        };
        Some(HistogramSnapshot {
            buckets,
            sum_us: v.get("sum_us").and_then(Json::as_u64)?,
            count: v.get("count").and_then(Json::as_u64)?,
        })
    }

    /// Element-wise accumulate `other` into `self` (fleet aggregation).
    /// Snapshots with a foreign bucket layout are merged by sum/count
    /// only, with their samples folded into the overflow bucket.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if self.buckets.len() != LATENCY_BUCKETS {
            *self = HistogramSnapshot::empty();
        }
        if other.buckets.len() == LATENCY_BUCKETS {
            for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
                *mine += theirs;
            }
        } else {
            self.buckets[LATENCY_BUCKETS - 1] += other.count;
        }
        self.sum_us += other.sum_us;
        self.count += other.count;
    }
}

/// Render a bucket bound as its Prometheus `le` label value, in seconds.
fn le_label(bound_us: u64) -> String {
    let secs = bound_us as f64 / 1e6;
    // Trim trailing zeros so 1.024000 renders as 1.024 and 0.001000 as 0.001.
    let mut s = format!("{secs:.6}");
    while s.ends_with('0') {
        s.pop();
    }
    if s.ends_with('.') {
        s.push('0');
    }
    s
}

/// The Prometheus type of a row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A monotonically increasing count.
    Counter,
    /// A point-in-time value.
    Gauge,
    /// A latency distribution in the [`LATENCY_BUCKET_BOUNDS_US`] layout.
    Histogram,
}

impl Kind {
    /// The word on the `# TYPE` line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// A row's value at one instant.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A counter or gauge reading.
    Num(f64),
    /// A histogram reading.
    Hist(HistogramSnapshot),
}

impl Value {
    /// The JSON form: a number, or the histogram's wire form.
    pub fn to_json(&self) -> Json {
        match self {
            Value::Num(n) => Json::Num(*n),
            Value::Hist(h) => h.to_json(),
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::Num(v as f64)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::Num(v as f64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Num(v)
    }
}

impl From<HistogramSnapshot> for Value {
    fn from(v: HistogramSnapshot) -> Value {
        Value::Hist(v)
    }
}

/// Every name one counter is published under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Names {
    /// Key in the layer's JSON answer, or `None` for a series-only row.
    pub key: Option<&'static str>,
    /// Prometheus series, or `None` for a JSON-only row.
    pub prom: Option<&'static str>,
    /// Prometheus type.
    pub kind: Kind,
    /// `# HELP` text.
    pub help: &'static str,
    /// Series under which a fleet router publishes this row summed over
    /// its shards, if it does.
    pub fleet: Option<&'static str>,
}

/// One counter of a table over the state `S`: its names, and how to
/// read it.
pub struct Row<S> {
    /// Every name the row is published under.
    pub names: Names,
    /// Reads the row from the layer's state.
    pub get: fn(&S) -> Value,
}

impl<S> Row<S> {
    /// A row published under `key` in JSON and `prom` in Prometheus.
    pub const fn new(
        kind: Kind,
        key: Option<&'static str>,
        prom: Option<&'static str>,
        help: &'static str,
        get: fn(&S) -> Value,
    ) -> Row<S> {
        Row { names: Names { key, prom, kind, help, fleet: None }, get }
    }

    /// The same row, also summed over a router's shards as `series`.
    pub const fn fleet(mut self, series: &'static str) -> Row<S> {
        self.names.fleet = Some(series);
        self
    }
}

/// The `(key, value)` pairs of every row of `rows` that has a JSON key,
/// in table order.
pub fn json_pairs<S>(rows: &[Row<S>], state: &S) -> Vec<(&'static str, Json)> {
    rows.iter().filter_map(|r| Some((r.names.key?, (r.get)(state).to_json()))).collect()
}

/// Whether `name` is a valid Prometheus metric name.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b':')
        && !name.as_bytes()[0].is_ascii_digit()
}

/// Accumulates metric samples and renders the Prometheus text format.
#[derive(Debug, Default)]
pub struct MetricsText {
    buf: String,
}

impl MetricsText {
    /// An empty exposition.
    pub fn new() -> MetricsText {
        MetricsText::default()
    }

    /// Add one sample. A counter renders as an integer, a gauge as a
    /// float; a histogram renders in the standard Prometheus expansion:
    /// cumulative `{name}_bucket{le="..."}` samples (seconds),
    /// `{name}_sum` (seconds) and `{name}_count`, so its `name` should
    /// end in `_seconds`.
    pub fn sample(&mut self, name: &str, kind: Kind, help: &str, value: &Value) -> &mut Self {
        debug_assert!(valid_name(name), "invalid metric name {name:?}");
        let _ = writeln!(self.buf, "# HELP {name} {help}");
        let _ = writeln!(self.buf, "# TYPE {name} {}", kind.name());
        match value {
            Value::Num(v) if kind == Kind::Counter => {
                let _ = writeln!(self.buf, "{name} {}", *v as u64);
            }
            Value::Num(v) => {
                let _ = writeln!(self.buf, "{name} {v}");
            }
            Value::Hist(snap) => {
                let mut cumulative = 0u64;
                for (i, bound) in LATENCY_BUCKET_BOUNDS_US.iter().enumerate() {
                    cumulative += snap.buckets.get(i).copied().unwrap_or(0);
                    let le = le_label(*bound);
                    let _ = writeln!(self.buf, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
                }
                let _ = writeln!(self.buf, "{name}_bucket{{le=\"+Inf\"}} {}", snap.count);
                let _ = writeln!(self.buf, "{name}_sum {}", snap.sum_us as f64 / 1e6);
                let _ = writeln!(self.buf, "{name}_count {}", snap.count);
            }
        }
        self
    }

    /// Add a sample for every row of `rows` that has a series.
    pub fn rows<S>(&mut self, rows: &[Row<S>], state: &S) -> &mut Self {
        for r in rows {
            if let Some(name) = r.names.prom {
                self.sample(name, r.names.kind, r.names.help, &(r.get)(state));
            }
        }
        self
    }

    /// The rendered exposition text.
    pub fn render(&self) -> &str {
        &self.buf
    }

    /// Consume the builder, returning the exposition text.
    pub fn into_string(self) -> String {
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Pool {
        completed: u64,
        depth: usize,
        busy: f64,
    }

    const POOL: &[Row<Pool>] = &[
        Row::new(
            Kind::Counter,
            Some("completed"),
            Some("stsyn_jobs_completed_total"),
            "Jobs finished successfully.",
            |p| p.completed.into(),
        ),
        Row::new(
            Kind::Gauge,
            Some("depth"),
            Some("stsyn_queue_depth"),
            "Jobs waiting in the queue.",
            |p| p.depth.into(),
        ),
        Row::new(Kind::Gauge, None, Some("stsyn_worker_utilization"), "Busy fraction.", |p| {
            p.busy.into()
        }),
        Row::new(Kind::Gauge, Some("json_only"), None, "Not exported.", |_| 7u64.into()),
    ];

    #[test]
    fn renders_a_table_as_prometheus_text_and_json() {
        let pool = Pool { completed: 3, depth: 2, busy: 0.5 };
        let mut m = MetricsText::new();
        m.rows(POOL, &pool);
        let text = m.render();
        assert!(text.contains("# TYPE stsyn_jobs_completed_total counter"));
        assert!(text.contains("stsyn_jobs_completed_total 3"));
        assert!(text.contains("# HELP stsyn_queue_depth Jobs waiting in the queue."));
        assert!(text.contains("stsyn_queue_depth 2"));
        assert!(text.contains("stsyn_worker_utilization 0.5"));
        assert!(!text.contains("json_only"));
        // Every non-comment line is `name value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.split_whitespace();
            assert!(valid_name(parts.next().unwrap()));
            assert!(parts.next().unwrap().parse::<f64>().is_ok());
            assert!(parts.next().is_none());
        }
        let json = Json::obj(json_pairs(POOL, &pool));
        assert_eq!(json.to_string(), r#"{"completed":3,"depth":2,"json_only":7}"#);
    }

    #[test]
    fn histogram_buckets_are_log_spaced_and_cumulative() {
        let h = LatencyHistogram::new();
        h.observe_us(500); // ≤ 1ms
        h.observe_us(500); // ≤ 1ms
        h.observe_us(3_000); // ≤ 4ms
        h.observe_us(100_000); // ≤ 256ms
        h.observe_us(10_000_000_000); // > 262s → +Inf
        let snap = h.snapshot();
        assert_eq!(snap.count, 5);
        assert_eq!(snap.buckets[0], 2);
        assert_eq!(snap.buckets[1], 1);
        assert_eq!(snap.buckets[LATENCY_BUCKETS - 1], 1);
        let mut m = MetricsText::new();
        m.sample("stsyn_queue_wait_seconds", Kind::Histogram, "Queue wait.", &snap.into());
        let text = m.render();
        assert!(text.contains("# TYPE stsyn_queue_wait_seconds histogram"));
        assert!(text.contains("stsyn_queue_wait_seconds_bucket{le=\"0.001\"} 2"));
        assert!(text.contains("stsyn_queue_wait_seconds_bucket{le=\"0.004\"} 3"));
        assert!(text.contains("stsyn_queue_wait_seconds_bucket{le=\"0.256\"} 4"));
        assert!(text.contains("stsyn_queue_wait_seconds_bucket{le=\"262.144\"} 4"));
        assert!(text.contains("stsyn_queue_wait_seconds_bucket{le=\"+Inf\"} 5"));
        assert!(text.contains("stsyn_queue_wait_seconds_count 5"));
        // `le` buckets are cumulative and monotone.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.contains("_bucket")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last);
            last = v;
        }
    }

    #[test]
    fn snapshot_merge_is_element_wise() {
        let a = {
            let h = LatencyHistogram::new();
            h.observe_us(500);
            h.observe_us(2_000);
            h.snapshot()
        };
        let b = {
            let h = LatencyHistogram::new();
            h.observe_us(700);
            h.snapshot()
        };
        let mut fleet = HistogramSnapshot::empty();
        fleet.merge(&a);
        fleet.merge(&b);
        assert_eq!(fleet.count, 3);
        assert_eq!(fleet.buckets[0], 2);
        assert_eq!(fleet.buckets[1], 1);
        assert_eq!(fleet.sum_us, 3_200);
        // Foreign layout degrades to overflow, never panics.
        let foreign = HistogramSnapshot { buckets: vec![9; 3], sum_us: 10, count: 9 };
        fleet.merge(&foreign);
        assert_eq!(fleet.count, 12);
        assert_eq!(fleet.buckets[LATENCY_BUCKETS - 1], 9);
    }

    #[test]
    fn name_validation() {
        assert!(valid_name("stsyn_bdd_ticks_total"));
        assert!(!valid_name("9starts_with_digit"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(""));
    }
}
