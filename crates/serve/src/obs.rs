//! Observability substrate: lock-free log2-bucketed histograms, per-request
//! trace records, and the slowest-trace ring buffer behind `GET /debug/slow`.
//!
//! ## Histograms
//!
//! [`LogHistogram`] is an HDR-style histogram: one atomic counter per bucket,
//! where buckets are log2 octaves subdivided into [`SUB_BUCKETS`] linear
//! sub-buckets. Values below `2 * SUB_BUCKETS` (= 32) get an exact bucket
//! each; above that, a bucket's width is `2^octave`, so any reported
//! percentile overshoots the true nearest-rank value by **at most one bucket
//! width**, a relative error bounded by `1 / SUB_BUCKETS` (6.25%). Recording
//! is two relaxed `fetch_add`s and one `fetch_max` — no mutex, no allocation,
//! no sorting — so a `/metrics` scrape can never block a recording thread,
//! and recording threads can never block each other. Snapshots are plain
//! `Vec<u64>` copies that [merge](HistogramSnapshot::merge) and
//! [subtract](HistogramSnapshot::minus), which is what lets the
//! `serve_throughput` bench report per-sweep-stage percentiles from one
//! shared histogram.
//!
//! ## Traces
//!
//! A [`RequestTrace`] is minted by the connection layer the moment a request
//! finishes parsing and rides along with it through the handler pool, the
//! batch queues and back out the socket. Each boundary crossing stamps one
//! slot (a plain write — the trace is owned by exactly one thread at a time):
//!
//! ```text
//! parse done ─► handler start ─► queue enqueue ─► batch drain ─► scored
//!   (birth)       [dispatch]       [prepare]      [queue_wait]   [score]
//!                                     ─► response queued ─► last byte written
//!                                          [respond]            [write]
//! ```
//!
//! The bracketed names are the **stage durations** between consecutive
//! present stamps; they are non-overlapping and sum to the end-to-end
//! latency. When the final byte of the response hits the socket, the poller
//! [finalizes](Obs::finalize) the trace: each stage duration lands in its
//! per-endpoint [`LogHistogram`] and the whole trace is offered to the
//! [`SlowTraceBuffer`]. Endpoints that never touch a batch queue
//! (`/healthz`, `/metrics`) simply skip the queue stamps; durations are
//! computed between *present* stamps, so the accounting stays additive.
//!
//! ## The slow ring
//!
//! [`SlowTraceBuffer`] keeps the [`SLOW_TRACES`] slowest completed traces.
//! The hot path is one relaxed atomic load: a trace cheaper than the cheapest
//! kept entry is rejected without taking any lock, so sustained fast traffic
//! pays nothing for the feature. Only a genuinely slow trace (rare by
//! definition) takes the mutex to displace the current minimum.

use holistix_corpus::json::JsonValue;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Linear sub-buckets per log2 octave. Bounds percentile relative error by
/// `1 / SUB_BUCKETS` for values ≥ `SUB_BUCKETS`.
pub const SUB_BUCKETS: usize = 16;

/// Octaves above the exact range. The histogram covers values up to
/// `2^(OCTAVES + 5) - 1` µs (≈ 38 years at 36 octaves); larger values clamp
/// into the final bucket.
const OCTAVES: usize = 36;

/// Total buckets: `[0, 2*SUB)` exact, then `OCTAVES` octaves × `SUB` each.
const N_BUCKETS: usize = 2 * SUB_BUCKETS + OCTAVES * SUB_BUCKETS;

/// Completed traces the slow ring retains, slowest first.
pub const SLOW_TRACES: usize = 32;

/// Map a value to its bucket index. Exact below `2 * SUB_BUCKETS`; above,
/// log2 octave + linear sub-bucket.
fn bucket_index(value: u64) -> usize {
    if value < (2 * SUB_BUCKETS) as u64 {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros() as usize;
    let octave = msb - (SUB_BUCKETS.trailing_zeros() as usize); // ≥ 1
    let within = ((value >> (msb - SUB_BUCKETS.trailing_zeros() as usize)) as usize) - SUB_BUCKETS;
    let index = (octave + 1) * SUB_BUCKETS + within;
    index.min(N_BUCKETS - 1)
}

/// The largest value a bucket covers (inclusive).
pub fn bucket_upper_bound(index: usize) -> u64 {
    if index < 2 * SUB_BUCKETS {
        return index as u64;
    }
    let octave = index / SUB_BUCKETS - 1;
    let within = (index % SUB_BUCKETS) as u64;
    ((SUB_BUCKETS as u64 + within + 1) << octave) - 1
}

/// The `[lower, upper]` value range (inclusive) of the bucket holding
/// `value` — what "within one bucket width" means for this histogram's
/// percentile error bound.
pub fn bucket_bounds(value: u64) -> (u64, u64) {
    let index = bucket_index(value);
    let upper = bucket_upper_bound(index);
    let lower = if index == 0 {
        0
    } else {
        bucket_upper_bound(index - 1) + 1
    };
    (lower, upper)
}

/// A lock-free log2-bucketed histogram. See the module docs for the error
/// bound; recording is wait-free (three relaxed atomic RMWs).
pub struct LogHistogram {
    buckets: Box<[AtomicU64; N_BUCKETS]>,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for LogHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snapshot = self.snapshot();
        f.debug_struct("LogHistogram")
            .field("count", &snapshot.count())
            .field("sum", &snapshot.sum())
            .field("max", &snapshot.max())
            .finish()
    }
}

impl LogHistogram {
    /// An empty histogram (all buckets zero).
    pub fn new() -> Self {
        Self {
            buckets: Box::new(std::array::from_fn(|_| AtomicU64::new(0))),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one value. Wait-free: no lock, no allocation.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters. Concurrent recording keeps
    /// going; the snapshot is internally consistent to within the writes in
    /// flight during the copy (counts never go backwards).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }

    /// Exact maximum recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }
}

/// An owned copy of a [`LogHistogram`]'s counters: percentiles, merging and
/// subtraction (for interval deltas) happen here, away from the live atomics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    counts: Vec<u64>,
    sum: u64,
    max: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot (useful as the zero point for deltas).
    pub fn empty() -> Self {
        Self {
            counts: vec![0; N_BUCKETS],
            sum: 0,
            max: 0,
        }
    }

    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Sum of recorded values (for means and Prometheus `_sum`).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean recorded value, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        let n = self.count();
        (n > 0).then(|| self.sum as f64 / n as f64)
    }

    /// Nearest-rank percentile estimate: the upper bound of the bucket
    /// holding the rank-`ceil(q·n)` value, clamped to the exact recorded
    /// maximum. Overshoots the true value by at most one bucket width.
    /// `None` when the snapshot is empty.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (index, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                // The final bucket absorbs every value past the covered
                // range, so its nominal upper bound is meaningless there —
                // the recorded max is the only honest answer.
                if index == N_BUCKETS - 1 {
                    return Some(self.max);
                }
                return Some(bucket_upper_bound(index).min(self.max));
            }
        }
        Some(self.max)
    }

    /// Fold another snapshot into this one (histogram merge is bucket-wise
    /// addition — the property that makes sharded recording exact).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// The delta since an `earlier` snapshot of the same histogram: what was
    /// recorded in between. The max is the later snapshot's (a true interval
    /// max is not recoverable from cumulative counters).
    pub fn minus(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: self
                .counts
                .iter()
                .zip(&earlier.counts)
                .map(|(now, before)| now.saturating_sub(*before))
                .collect(),
            sum: self.sum.saturating_sub(earlier.sum),
            max: self.max,
        }
    }

    /// Non-empty `(upper_bound, count)` buckets in ascending value order —
    /// the raw material for JSON and Prometheus exposition.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &count)| count > 0)
            .map(|(index, &count)| (bucket_upper_bound(index), count))
    }
}

/// The instrumented boundary crossings of one request, in stamp order.
/// Indexes into [`RequestTrace`]'s stamp array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceStamp {
    /// A handler thread picked the parsed request off the dispatch queue.
    HandlerStart = 0,
    /// The request's texts entered a scorer's batch queue.
    QueueEnqueue = 1,
    /// The batch containing the request's texts was drained for scoring.
    BatchDrain = 2,
    /// The scorer returned the request's probabilities.
    Scored = 3,
    /// The finished response was queued back to the owning poller.
    ResponseQueued = 4,
    /// The last byte of the response reached the socket.
    WriteDone = 5,
}

/// Number of stamp slots in a trace (parse completion is the implicit zero).
pub const N_STAMPS: usize = 6;

/// Stage names, indexed by the stamp that *ends* the stage. Each stage spans
/// from the previous present stamp (or parse completion) to its own stamp,
/// so the stages partition the end-to-end latency without overlap.
pub const STAGE_NAMES: [&str; N_STAMPS] = [
    "dispatch",
    "prepare",
    "queue_wait",
    "score",
    "respond",
    "write",
];

/// One request's trace: an id, the parse-completion instant, and the
/// boundary stamps accumulated as the request moves through the stack.
/// Owned by exactly one thread at any moment (poller → handler → poller), so
/// stamping is a plain array write — the atomics live in the histograms the
/// finalized trace is folded into.
#[derive(Debug, Clone)]
pub struct RequestTrace {
    /// Unique per server run; serialized as 16 hex digits in `X-Trace-Id`.
    pub id: u64,
    /// Parse completion — the trace's zero point.
    pub started: Instant,
    /// Offsets from `started`, one per [`TraceStamp`]; `None` until stamped.
    stamps: [Option<Duration>; N_STAMPS],
    /// Endpoint name, set by the router (`"other"` until routed).
    pub endpoint: &'static str,
    /// Resolved model kind for predict/explain requests.
    pub kind: Option<String>,
}

impl RequestTrace {
    /// A fresh trace born at `started` (parse completion).
    pub fn new(id: u64, started: Instant) -> Self {
        Self {
            id,
            started,
            stamps: [None; N_STAMPS],
            endpoint: "other",
            kind: None,
        }
    }

    /// The id as the 16-hex-digit string carried in `X-Trace-Id`.
    pub fn id_hex(&self) -> String {
        format!("{:016x}", self.id)
    }

    /// Stamp `which` at `at`. Later re-stamps are ignored — the first
    /// crossing of a boundary is the truth.
    pub fn stamp_at(&mut self, which: TraceStamp, at: Instant) {
        let slot = which as usize;
        if self.stamps[slot].is_none() {
            self.stamps[slot] = Some(at.saturating_duration_since(self.started));
        }
    }

    /// Stamp `which` now.
    pub fn stamp(&mut self, which: TraceStamp) {
        self.stamp_at(which, Instant::now());
    }

    /// The offset of a stamp from parse completion, if stamped.
    pub fn offset(&self, which: TraceStamp) -> Option<Duration> {
        self.stamps[which as usize]
    }

    /// End-to-end duration: the latest stamp's offset (zero if unstamped).
    pub fn total(&self) -> Duration {
        self.stamps
            .iter()
            .flatten()
            .copied()
            .max()
            .unwrap_or(Duration::ZERO)
    }

    /// `(stage_index, duration)` for every present stamp: the interval from
    /// the previous present stamp (or parse completion) to it. Non-negative
    /// by construction because stamps are taken in causal order.
    pub fn stage_durations(&self) -> Vec<(usize, Duration)> {
        let mut stages = Vec::new();
        let mut previous = Duration::ZERO;
        for (index, stamp) in self.stamps.iter().enumerate() {
            if let Some(offset) = stamp {
                stages.push((index, offset.saturating_sub(previous)));
                previous = *offset;
            }
        }
        stages
    }

    /// The per-stage breakdown as JSON — what `?trace=1` inlines into a
    /// predict/explain response and `/debug/slow` serves per trace. Stages
    /// appear in stamp order with both the absolute offset (`at_us`, from
    /// parse completion) and the stage duration (`dur_us`).
    pub fn stages_json(&self) -> JsonValue {
        let stages: Vec<JsonValue> = self
            .stage_durations()
            .into_iter()
            .map(|(index, duration)| {
                let at = self.stamps[index].unwrap_or(Duration::ZERO);
                JsonValue::object(vec![
                    ("stage", JsonValue::string(STAGE_NAMES[index])),
                    ("at_us", JsonValue::Number(at.as_micros() as f64)),
                    ("dur_us", JsonValue::Number(duration.as_micros() as f64)),
                ])
            })
            .collect();
        JsonValue::Array(stages)
    }
}

/// A finalized trace retained by the slow ring: everything `/debug/slow`
/// serves, detached from the live `Instant`s.
#[derive(Debug, Clone)]
struct SlowEntry {
    id: u64,
    endpoint: &'static str,
    kind: Option<String>,
    total_us: u64,
    /// `(stage_index, at_us, dur_us)` in stamp order.
    stages: Vec<(usize, u64, u64)>,
}

/// A bounded buffer of the slowest completed traces. The fast-path rejection
/// (a trace no slower than the cheapest kept one) is a single relaxed atomic
/// load; only admissions take the mutex.
pub struct SlowTraceBuffer {
    capacity: usize,
    /// Total µs of the cheapest kept trace once the buffer is full; 0 while
    /// filling (so everything is admitted until capacity).
    floor_us: AtomicU64,
    entries: Mutex<Vec<SlowEntry>>,
}

impl SlowTraceBuffer {
    fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            floor_us: AtomicU64::new(0),
            entries: Mutex::new(Vec::new()),
        }
    }

    /// Offer a finalized trace. Cheap traces bounce off the atomic floor
    /// without locking.
    fn offer(&self, trace: &RequestTrace) {
        let total_us = trace.total().as_micros() as u64;
        if total_us <= self.floor_us.load(Ordering::Relaxed) {
            return;
        }
        let entry = SlowEntry {
            id: trace.id,
            endpoint: trace.endpoint,
            kind: trace.kind.clone(),
            total_us,
            stages: trace
                .stage_durations()
                .into_iter()
                .map(|(index, duration)| {
                    let at = trace.stamps[index].unwrap_or(Duration::ZERO);
                    (index, at.as_micros() as u64, duration.as_micros() as u64)
                })
                .collect(),
        };
        let mut entries = self.entries.lock().unwrap();
        entries.push(entry);
        if entries.len() > self.capacity {
            // Drop the cheapest; the new floor is the cheapest survivor.
            let (min_index, _) = entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.total_us)
                .expect("non-empty");
            entries.swap_remove(min_index);
        }
        if entries.len() == self.capacity {
            let floor = entries.iter().map(|e| e.total_us).min().unwrap_or(0);
            // ordering: the floor is a best-effort pre-filter — a stale read
            // only lets a borderline trace reach `offer`, where the `entries`
            // mutex re-checks it; every store happens under that same mutex,
            // so no thread synchronizes through this atomic.
            self.floor_us.store(floor, Ordering::Relaxed);
        }
    }

    /// The kept traces as JSON, slowest first — the `/debug/slow` body.
    pub fn to_json(&self) -> JsonValue {
        let mut entries = self.entries.lock().unwrap().clone();
        entries.sort_by_key(|entry| std::cmp::Reverse(entry.total_us));
        let traces: Vec<JsonValue> = entries
            .into_iter()
            .map(|entry| {
                let stages: Vec<JsonValue> = entry
                    .stages
                    .iter()
                    .map(|&(index, at_us, dur_us)| {
                        JsonValue::object(vec![
                            ("stage", JsonValue::string(STAGE_NAMES[index])),
                            ("at_us", JsonValue::Number(at_us as f64)),
                            ("dur_us", JsonValue::Number(dur_us as f64)),
                        ])
                    })
                    .collect();
                JsonValue::object(vec![
                    ("trace_id", JsonValue::string(format!("{:016x}", entry.id))),
                    ("endpoint", JsonValue::string(entry.endpoint)),
                    (
                        "model",
                        match entry.kind {
                            Some(kind) => JsonValue::string(kind),
                            None => JsonValue::Null,
                        },
                    ),
                    ("total_us", JsonValue::Number(entry.total_us as f64)),
                    ("stages", JsonValue::Array(stages)),
                ])
            })
            .collect();
        JsonValue::object(vec![
            ("capacity", JsonValue::Number(self.capacity as f64)),
            ("traces", JsonValue::Array(traces)),
        ])
    }
}

/// Splitmix64 finalizer: turns the sequential trace counter into ids that
/// look unrelated (still a bijection, so distinctness is preserved).
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Endpoint names in stable order — indexes into [`Obs`]'s per-endpoint stage
/// histogram table and label values in the Prometheus exposition.
pub const ENDPOINT_NAMES: [&str; 7] = [
    "predict",
    "explain",
    "reload",
    "healthz",
    "metrics",
    "debug_slow",
    "other",
];

/// The per-server observability state: the trace-id mint, per-endpoint ×
/// per-stage duration histograms, and the slow-trace ring. Lives inside
/// [`ServeMetrics`](crate::metrics::ServeMetrics) so every layer that already
/// holds the metrics sink can stamp and finalize traces.
pub struct Obs {
    trace_counter: AtomicU64,
    /// `[endpoint][stage]` duration histograms (µs).
    endpoint_stages: Vec<[LogHistogram; N_STAMPS]>,
    slow: SlowTraceBuffer,
}

impl Default for Obs {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("traces_minted", &self.trace_counter.load(Ordering::Relaxed))
            .finish()
    }
}

impl Obs {
    /// Fresh state: zeroed histograms, empty slow ring.
    pub fn new() -> Self {
        Self {
            trace_counter: AtomicU64::new(0),
            endpoint_stages: ENDPOINT_NAMES
                .iter()
                .map(|_| std::array::from_fn(|_| LogHistogram::new()))
                .collect(),
            slow: SlowTraceBuffer::new(SLOW_TRACES),
        }
    }

    /// Mint a fresh trace born at `started` (parse completion). Ids are
    /// unique per server run.
    pub fn begin_trace(&self, started: Instant) -> RequestTrace {
        let seq = self.trace_counter.fetch_add(1, Ordering::Relaxed);
        RequestTrace::new(mix64(seq), started)
    }

    /// Traces minted so far.
    pub fn traces_started(&self) -> u64 {
        self.trace_counter.load(Ordering::Relaxed)
    }

    fn endpoint_index(endpoint: &str) -> usize {
        ENDPOINT_NAMES
            .iter()
            .position(|&name| name == endpoint)
            .unwrap_or(ENDPOINT_NAMES.len() - 1)
    }

    /// Fold a completed trace into the per-endpoint stage histograms and
    /// offer it to the slow ring. Called by the poller when the last response
    /// byte is written; costs a handful of atomic adds for fast traces.
    pub fn finalize(&self, trace: &RequestTrace) {
        let stages = &self.endpoint_stages[Self::endpoint_index(trace.endpoint)];
        for (index, duration) in trace.stage_durations() {
            stages[index].record(duration.as_micros() as u64);
        }
        self.slow.offer(trace);
    }

    /// The slow ring (for `/debug/slow`).
    pub fn slow_traces(&self) -> &SlowTraceBuffer {
        &self.slow
    }

    /// Snapshot of one endpoint × stage histogram (µs), for tests and the
    /// bench.
    pub fn stage_snapshot(&self, endpoint: &str, stage: usize) -> HistogramSnapshot {
        self.endpoint_stages[Self::endpoint_index(endpoint)][stage].snapshot()
    }
}

/// Append one histogram's cumulative `_bucket` / `_sum` / `_count` series
/// with the given extra labels (no trailing comma; may be empty).
pub fn append_histogram(out: &mut String, name: &str, labels: &str, snapshot: &HistogramSnapshot) {
    let sep = if labels.is_empty() { "" } else { "," };
    let mut cumulative = 0u64;
    for (upper, count) in snapshot.nonzero_buckets() {
        cumulative += count;
        out.push_str(&format!(
            "{name}_bucket{{{labels}{sep}le=\"{upper}\"}} {cumulative}\n"
        ));
    }
    out.push_str(&format!(
        "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {}\n",
        snapshot.count()
    ));
    if labels.is_empty() {
        out.push_str(&format!("{name}_sum {}\n", snapshot.sum()));
        out.push_str(&format!("{name}_count {}\n", snapshot.count()));
    } else {
        out.push_str(&format!("{name}_sum{{{labels}}} {}\n", snapshot.sum()));
        out.push_str(&format!("{name}_count{{{labels}}} {}\n", snapshot.count()));
    }
}

/// Validate a Prometheus text exposition: every `# TYPE` family must have at
/// least one sample; histogram `_bucket` series must be cumulative
/// (non-decreasing in `le` order) and end in `le="+Inf"` with the `_count`
/// value. Returns the first violation found. This is the checker the CI
/// smoke runs against the live `/metrics?format=prometheus` scrape.
pub fn validate_exposition(text: &str) -> Result<(), String> {
    use std::collections::BTreeMap;
    let mut families: Vec<(String, String)> = Vec::new(); // (name, kind)
    let mut samples: Vec<(String, String)> = Vec::new(); // (metric, labels+value)
    for (line_no, line) in text.lines().enumerate() {
        let line_no = line_no + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts
                .next()
                .ok_or_else(|| format!("line {line_no}: TYPE without a name"))?;
            let kind = parts
                .next()
                .ok_or_else(|| format!("line {line_no}: TYPE {name} without a kind"))?;
            families.push((name.to_string(), kind.to_string()));
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        // A sample: `name{labels} value` or `name value`.
        let (metric_and_labels, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {line_no}: sample without a value: {line:?}"))?;
        value
            .parse::<f64>()
            .map_err(|_| format!("line {line_no}: unparseable value {value:?}"))?;
        let metric = match metric_and_labels.split_once('{') {
            Some((name, labels)) => {
                if !labels.ends_with('}') {
                    return Err(format!("line {line_no}: unterminated label set: {line:?}"));
                }
                name
            }
            None => metric_and_labels,
        };
        samples.push((metric.to_string(), line.to_string()));
    }
    if families.is_empty() {
        return Err("no # TYPE lines in exposition".to_string());
    }
    for (name, kind) in &families {
        let has_samples = if kind == "histogram" {
            samples.iter().any(|(metric, _)| {
                metric == &format!("{name}_bucket")
                    || metric == &format!("{name}_sum")
                    || metric == &format!("{name}_count")
            })
        } else {
            samples.iter().any(|(metric, _)| metric == name)
        };
        if !has_samples {
            return Err(format!("# TYPE {name} {kind} has no samples"));
        }
        if kind != "histogram" {
            continue;
        }
        // Group bucket series by their label set minus `le` and check
        // cumulativity + +Inf termination against the matching _count.
        let bucket_metric = format!("{name}_bucket");
        let mut series: BTreeMap<String, Vec<(String, f64)>> = BTreeMap::new();
        for (metric, line) in &samples {
            if metric != &bucket_metric {
                continue;
            }
            let (labels_part, value) = line.rsplit_once(' ').expect("validated above");
            let labels = labels_part
                .split_once('{')
                .map(|(_, l)| l.trim_end_matches('}'))
                .unwrap_or("");
            let mut le = None;
            let mut rest: Vec<&str> = Vec::new();
            for pair in labels.split(',').filter(|p| !p.is_empty()) {
                match pair.strip_prefix("le=") {
                    Some(v) => le = Some(v.trim_matches('"').to_string()),
                    None => rest.push(pair),
                }
            }
            let le = le.ok_or_else(|| format!("{bucket_metric} series without le label"))?;
            series
                .entry(rest.join(","))
                .or_default()
                .push((le, value.parse().expect("validated above")));
        }
        for (labels, buckets) in &series {
            let mut previous = f64::NEG_INFINITY;
            for (le, cumulative) in buckets {
                if *cumulative < previous {
                    return Err(format!(
                        "{bucket_metric}{{{labels}}} not cumulative at le={le}"
                    ));
                }
                previous = *cumulative;
            }
            match buckets.last() {
                Some((le, _)) if le == "+Inf" => {}
                _ => {
                    return Err(format!(
                        "{bucket_metric}{{{labels}}} does not end in le=\"+Inf\""
                    ))
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_get_exact_buckets() {
        for v in 0..(2 * SUB_BUCKETS as u64) {
            let (lower, upper) = bucket_bounds(v);
            assert_eq!((lower, upper), (v, v), "value {v}");
        }
    }

    #[test]
    fn bucket_bounds_partition_the_value_range() {
        // Consecutive buckets tile the u64 range without gap or overlap.
        let mut previous_upper: Option<u64> = None;
        for index in 0..N_BUCKETS - 1 {
            let upper = bucket_upper_bound(index);
            if let Some(prev) = previous_upper {
                assert!(upper > prev, "bucket {index} not increasing");
            }
            previous_upper = Some(upper);
        }
        // Every probe value maps into a bucket whose bounds contain it.
        for &v in &[0u64, 1, 31, 32, 33, 100, 1_000, 123_456, u32::MAX as u64] {
            let (lower, upper) = bucket_bounds(v);
            assert!(
                lower <= v && v <= upper,
                "value {v} outside [{lower},{upper}]"
            );
            // Relative width bound: width ≤ value / SUB_BUCKETS for v ≥ SUB.
            if v >= SUB_BUCKETS as u64 {
                assert!(
                    upper - lower <= v / SUB_BUCKETS as u64,
                    "bucket too wide at {v}: [{lower},{upper}]"
                );
            }
        }
    }

    #[test]
    fn percentiles_are_exact_for_small_values() {
        let histogram = LogHistogram::new();
        for v in 1..=20u64 {
            histogram.record(v);
        }
        let snapshot = histogram.snapshot();
        assert_eq!(snapshot.percentile(0.50), Some(10));
        assert_eq!(snapshot.percentile(0.99), Some(20));
        assert_eq!(snapshot.percentile(0.999), Some(20));
        assert_eq!(snapshot.max(), 20);
        assert_eq!(snapshot.count(), 20);
        assert_eq!(snapshot.mean(), Some(10.5));
    }

    #[test]
    fn empty_snapshot_has_no_percentiles() {
        let snapshot = LogHistogram::new().snapshot();
        assert_eq!(snapshot.percentile(0.5), None);
        assert_eq!(snapshot.mean(), None);
        assert_eq!(snapshot.count(), 0);
    }

    #[test]
    fn giant_values_clamp_into_the_final_bucket() {
        let histogram = LogHistogram::new();
        histogram.record(u64::MAX);
        histogram.record(1);
        let snapshot = histogram.snapshot();
        assert_eq!(snapshot.count(), 2);
        assert_eq!(snapshot.max(), u64::MAX);
        // p99 lands in the last bucket, clamped to the recorded max.
        assert_eq!(snapshot.percentile(0.99), Some(u64::MAX));
    }

    #[test]
    fn merge_is_bucketwise_addition_and_minus_inverts_it() {
        let a = LogHistogram::new();
        let b = LogHistogram::new();
        for v in [3u64, 50, 700, 9_000] {
            a.record(v);
        }
        for v in [5u64, 50, 80_000] {
            b.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.count(), 7);
        assert_eq!(merged.sum(), 3 + 50 + 700 + 9_000 + 5 + 50 + 80_000);
        assert_eq!(merged.max(), 80_000);
        let delta = merged.minus(&a.snapshot());
        assert_eq!(delta.count(), b.snapshot().count());
        assert_eq!(delta.sum(), b.snapshot().sum());
    }

    #[test]
    fn concurrent_recording_during_snapshots_loses_nothing() {
        // The lock-freedom claim, observable: writer threads hammer record()
        // while a reader snapshots in a loop; when the writers finish, the
        // final snapshot holds every single recording. With a mutex-and-sort
        // window this test would also pass, but only after the readers
        // serialized every writer — here neither side can block the other,
        // and the exact count proves no recording was dropped or torn.
        const WRITERS: usize = 4;
        const PER_WRITER: u64 = 50_000;
        let histogram = LogHistogram::new();
        crossbeam::thread::scope(|scope| {
            for w in 0..WRITERS {
                let histogram = &histogram;
                scope.spawn(move |_| {
                    for i in 0..PER_WRITER {
                        histogram.record((w as u64 * 7 + i) % 10_000);
                    }
                });
            }
            // Concurrent scrapes: counts move forward, never backwards.
            let mut last = 0u64;
            for _ in 0..50 {
                let n = histogram.snapshot().count();
                assert!(n >= last, "snapshot count went backwards: {n} < {last}");
                last = n;
            }
        })
        .unwrap();
        assert_eq!(histogram.count(), WRITERS as u64 * PER_WRITER);
    }

    #[test]
    fn trace_stages_partition_the_total() {
        let started = Instant::now();
        let mut trace = RequestTrace::new(7, started);
        trace.stamp_at(
            TraceStamp::HandlerStart,
            started + Duration::from_micros(10),
        );
        trace.stamp_at(
            TraceStamp::QueueEnqueue,
            started + Duration::from_micros(25),
        );
        trace.stamp_at(TraceStamp::BatchDrain, started + Duration::from_micros(125));
        trace.stamp_at(TraceStamp::Scored, started + Duration::from_micros(1_125));
        trace.stamp_at(
            TraceStamp::ResponseQueued,
            started + Duration::from_micros(1_150),
        );
        trace.stamp_at(
            TraceStamp::WriteDone,
            started + Duration::from_micros(1_200),
        );
        let stages = trace.stage_durations();
        assert_eq!(stages.len(), N_STAMPS);
        let total: Duration = stages.iter().map(|(_, d)| *d).sum();
        assert_eq!(total, trace.total());
        assert_eq!(trace.total(), Duration::from_micros(1_200));
        // Stage offsets are monotonic.
        let offsets: Vec<u64> = (0..N_STAMPS)
            .filter_map(|i| trace.stamps[i].map(|d| d.as_micros() as u64))
            .collect();
        assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn trace_skipped_stamps_keep_accounting_additive() {
        // A /healthz request never touches a batch queue.
        let started = Instant::now();
        let mut trace = RequestTrace::new(9, started);
        trace.stamp_at(TraceStamp::HandlerStart, started + Duration::from_micros(5));
        trace.stamp_at(
            TraceStamp::ResponseQueued,
            started + Duration::from_micros(40),
        );
        trace.stamp_at(TraceStamp::WriteDone, started + Duration::from_micros(60));
        let stages = trace.stage_durations();
        assert_eq!(stages.len(), 3);
        let total: Duration = stages.iter().map(|(_, d)| *d).sum();
        assert_eq!(total, Duration::from_micros(60));
    }

    #[test]
    fn restamping_is_ignored() {
        let started = Instant::now();
        let mut trace = RequestTrace::new(1, started);
        trace.stamp_at(TraceStamp::Scored, started + Duration::from_micros(100));
        trace.stamp_at(TraceStamp::Scored, started + Duration::from_micros(999));
        assert_eq!(
            trace.offset(TraceStamp::Scored),
            Some(Duration::from_micros(100))
        );
    }

    #[test]
    fn slow_ring_keeps_the_slowest_and_floors_fast_traces() {
        let obs = Obs::new();
        let started = Instant::now();
        // 100 traces with totals 1..=100 ms: only the 32 slowest survive.
        for ms in 1..=100u64 {
            let mut trace = obs.begin_trace(started);
            trace.endpoint = "predict";
            trace.stamp_at(TraceStamp::WriteDone, started + Duration::from_millis(ms));
            obs.finalize(&trace);
        }
        let document = obs.slow_traces().to_json();
        let traces = document.get("traces").unwrap().as_array().unwrap();
        assert_eq!(traces.len(), SLOW_TRACES);
        let totals: Vec<f64> = traces
            .iter()
            .map(|t| t.get("total_us").unwrap().as_f64().unwrap())
            .collect();
        // Slowest first, and exactly the top 32 of 1..=100 ms.
        assert!(totals.windows(2).all(|w| w[0] >= w[1]));
        assert_eq!(totals[0], 100_000.0);
        assert_eq!(
            *totals.last().unwrap(),
            (100 - SLOW_TRACES as u64 + 1) as f64 * 1_000.0
        );
    }

    #[test]
    fn trace_ids_are_distinct() {
        let obs = Obs::new();
        let started = Instant::now();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            assert!(seen.insert(obs.begin_trace(started).id));
        }
    }

    #[test]
    fn finalize_records_stage_histograms_per_endpoint() {
        let obs = Obs::new();
        let started = Instant::now();
        let mut trace = obs.begin_trace(started);
        trace.endpoint = "predict";
        trace.stamp_at(
            TraceStamp::HandlerStart,
            started + Duration::from_micros(10),
        );
        trace.stamp_at(TraceStamp::WriteDone, started + Duration::from_micros(50));
        obs.finalize(&trace);
        let dispatch = obs.stage_snapshot("predict", TraceStamp::HandlerStart as usize);
        assert_eq!(dispatch.count(), 1);
        assert_eq!(dispatch.percentile(0.5), Some(10));
        let write = obs.stage_snapshot("predict", TraceStamp::WriteDone as usize);
        assert_eq!(write.percentile(0.5), Some(40));
        // Other endpoints untouched.
        assert_eq!(obs.stage_snapshot("healthz", 0).count(), 0);
    }

    #[test]
    fn exposition_validator_accepts_own_output_and_rejects_breakage() {
        let histogram = LogHistogram::new();
        for v in [10u64, 200, 3_000] {
            histogram.record(v);
        }
        let mut text = String::from(
            "# HELP holistix_test_us A test histogram.\n# TYPE holistix_test_us histogram\n",
        );
        append_histogram(
            &mut text,
            "holistix_test_us",
            "kind=\"LR\"",
            &histogram.snapshot(),
        );
        text.push_str("# TYPE holistix_up gauge\nholistix_up 1\n");
        validate_exposition(&text).expect("well-formed exposition");

        // A TYPE line with no samples.
        let orphan = format!("{text}# TYPE holistix_ghost counter\n");
        assert!(validate_exposition(&orphan)
            .unwrap_err()
            .contains("no samples"));

        // Buckets that do not end in +Inf.
        let truncated = "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n";
        assert!(validate_exposition(truncated).unwrap_err().contains("+Inf"));

        // Non-cumulative buckets.
        let shrinking =
            "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n";
        assert!(validate_exposition(shrinking)
            .unwrap_err()
            .contains("not cumulative"));
    }
}
