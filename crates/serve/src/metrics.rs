//! Serving metrics: request counters, per-kind queue statistics, batch-size
//! and latency histograms, per-endpoint stage histograms and the slow-trace
//! ring — exposed as JSON *and* Prometheus text by `GET /metrics`.
//!
//! Everything on the recording path is lock-free: counters are atomics and
//! every histogram is a [`LogHistogram`] (one atomic counter per log2
//! bucket), so a `/metrics` scrape can never block a recording thread and
//! recording threads never block each other. The only mutexes left guard
//! registration-time state (the queue list, the thread plan, the admission
//! limits, the registry's fit stats), touched once per server start or
//! reload and once per scrape — never per request or per text.
//!
//! Every registered scorer owns a [`QueueMetrics`]: its live queue depth, its
//! own batch-size histogram, and separate `queue_wait` (enqueue → batch
//! drain) and `score` (one batched `probabilities` call) histograms, so a
//! saturated transformer queue is visible *next to* a healthy classical one.
//! The cross-queue aggregates (`texts_scored`, the global batch histogram)
//! are not recorded separately: a scrape merges them from the per-queue
//! sections, which is exact because histogram merge is bucket-wise addition.
//!
//! A scrape reads this state once, in `ServeMetrics::families`, the list the
//! `family` module renders as both the JSON document and Prometheus text.
//!
//! End-to-end request latency is recorded when a response's **last byte
//! reaches the socket** (trace finalization in the poller), not when the
//! response is built — so a client that drains slowly shows up in the tail.

use crate::family::{self, Family, Value};
use crate::obs::{HistogramSnapshot, LogHistogram, Obs, RequestTrace, ENDPOINT_NAMES, STAGE_NAMES};
use crate::registry::FitStats;
use holistix_corpus::json::JsonValue;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Crate version and git describe (the latter baked in by `build.rs` when
/// the repository is available at compile time). Served by `/healthz`'s
/// `build` section and mirrored as the `holistix_build_info` gauge.
pub fn build_info() -> (&'static str, &'static str) {
    (
        env!("CARGO_PKG_VERSION"),
        option_env!("HOLISTIX_GIT_DESCRIBE").unwrap_or("unknown"),
    )
}

/// Which endpoint a request hit, for per-endpoint counters and stage
/// histograms. [`Endpoint::name`] values double as the `endpoint` label in
/// the Prometheus exposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /predict`.
    Predict,
    /// `POST /explain`.
    Explain,
    /// `POST /reload`.
    Reload,
    /// `GET /healthz`.
    Health,
    /// `GET /metrics`.
    Metrics,
    /// `GET /debug/slow`.
    DebugSlow,
    /// Anything else: unknown paths, wrong methods, unparseable requests.
    Other,
}

impl Endpoint {
    /// Every endpoint, in [`index`](Self::index) order.
    pub const ALL: [Endpoint; 7] = [
        Endpoint::Predict,
        Endpoint::Explain,
        Endpoint::Reload,
        Endpoint::Health,
        Endpoint::Metrics,
        Endpoint::DebugSlow,
        Endpoint::Other,
    ];

    /// Stable index into the per-endpoint counter array — aligned with
    /// [`crate::obs::ENDPOINT_NAMES`].
    pub fn index(self) -> usize {
        match self {
            Endpoint::Predict => 0,
            Endpoint::Explain => 1,
            Endpoint::Reload => 2,
            Endpoint::Health => 3,
            Endpoint::Metrics => 4,
            Endpoint::DebugSlow => 5,
            Endpoint::Other => 6,
        }
    }

    /// The endpoint's name: JSON key in the `requests` section and
    /// `endpoint` label value in Prometheus.
    pub fn name(self) -> &'static str {
        crate::obs::ENDPOINT_NAMES[self.index()]
    }

    /// Route a parsed request line to its endpoint. The single source of
    /// routing truth: the server's routing and the rate-limit labeling both
    /// use this, so a rate-limited `/predict` is counted as `predict` even
    /// though it is never parsed further.
    pub fn resolve(method: &str, path: &str) -> Endpoint {
        match (method, path) {
            ("POST", "/predict") => Endpoint::Predict,
            ("POST", "/explain") => Endpoint::Explain,
            ("POST", "/reload") => Endpoint::Reload,
            ("GET", "/healthz") => Endpoint::Health,
            ("GET", "/metrics") => Endpoint::Metrics,
            ("GET", "/debug/slow") => Endpoint::DebugSlow,
            _ => Endpoint::Other,
        }
    }
}

/// Why a request was shed with `429 Too Many Requests`. Doubles as the
/// `reason` label on `holistix_shed_total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The target kind's batch queue was at its configured depth cap.
    QueueFull,
    /// The connection's token bucket was empty.
    RateLimited,
    /// Graceful degradation: `/explain` shed under aggregate queue pressure
    /// so `/predict` could keep serving.
    Degraded,
}

impl ShedReason {
    /// Every reason, in [`index`](Self::index) order.
    pub const ALL: [ShedReason; 3] = [
        ShedReason::QueueFull,
        ShedReason::RateLimited,
        ShedReason::Degraded,
    ];

    /// Stable index into the per-reason counter array.
    pub fn index(self) -> usize {
        match self {
            ShedReason::QueueFull => 0,
            ShedReason::RateLimited => 1,
            ShedReason::Degraded => 2,
        }
    }

    /// The reason's name: JSON key and Prometheus `reason` label value.
    pub fn name(self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue_full",
            ShedReason::RateLimited => "rate_limited",
            ShedReason::Degraded => "degraded",
        }
    }
}

/// The configured admission limits, echoed into `/metrics` so an operator can
/// read the active policy next to the counters it drives.
#[derive(Debug, Clone, Copy)]
struct AdmissionLimits {
    max_queue_depth: u64,
    global_intake_limit: u64,
    explain_shed_depth: u64,
    /// `(rate_per_s, burst)` when per-client rate limiting is on.
    rate_limit: Option<(f64, f64)>,
}

/// Admission-control observability: shed counters per endpoint × reason, the
/// intake-valve gauge and its open→closed transition counter, and an echo of
/// the configured limits. Lives in [`ServeMetrics`] so the admission policy
/// and `/metrics` read the same state.
#[derive(Debug)]
pub struct AdmissionMetrics {
    /// Shed (429) responses, indexed `[Endpoint::index()][ShedReason::index()]`.
    shed: [[AtomicU64; 3]; 7],
    /// 1 while the global intake valve is closed (pollers not reading).
    intake_closed: AtomicU64,
    /// Open→closed transitions of the intake valve.
    intake_closures_total: AtomicU64,
    limits: Mutex<Option<AdmissionLimits>>,
}

impl Default for AdmissionMetrics {
    fn default() -> Self {
        Self {
            shed: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            intake_closed: AtomicU64::new(0),
            intake_closures_total: AtomicU64::new(0),
            limits: Mutex::new(None),
        }
    }
}

impl AdmissionMetrics {
    /// Count one shed (429) response.
    pub fn record_shed(&self, endpoint: Endpoint, reason: ShedReason) {
        self.shed[endpoint.index()][reason.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Sheds so far for one endpoint × reason cell.
    pub fn shed_count(&self, endpoint: Endpoint, reason: ShedReason) -> u64 {
        self.shed[endpoint.index()][reason.index()].load(Ordering::Relaxed)
    }

    /// Total sheds across every endpoint and reason.
    pub fn shed_total(&self) -> u64 {
        self.shed
            .iter()
            .flat_map(|row| row.iter())
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Maintain the valve gauge; an open→closed edge bumps the transition
    /// counter exactly once even when several pollers observe it (the swap
    /// returns the previous value, so only the first closer sees 0).
    pub fn set_intake_closed(&self, closed: bool) {
        // ordering: the gauge is observational — scrapers and the valve edge
        // counter read it, but no data is published under it; pollers decide
        // intake from `QueueMetrics::try_admit`, not from this flag.
        let prev = self.intake_closed.swap(closed as u64, Ordering::Relaxed);
        if closed && prev == 0 {
            self.intake_closures_total.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Whether the intake valve is currently closed.
    pub fn intake_closed(&self) -> bool {
        self.intake_closed.load(Ordering::Relaxed) != 0
    }

    /// Open→closed valve transitions so far.
    pub fn intake_closures_total(&self) -> u64 {
        self.intake_closures_total.load(Ordering::Relaxed)
    }

    /// Echo the active admission limits (called once by
    /// [`Admission::new`](crate::admission::Admission::new)).
    pub fn set_limits(
        &self,
        max_queue_depth: u64,
        global_intake_limit: u64,
        explain_shed_depth: u64,
        rate_limit: Option<(f64, f64)>,
    ) {
        *self.limits.lock().unwrap() = Some(AdmissionLimits {
            max_queue_depth,
            global_intake_limit,
            explain_shed_depth,
            rate_limit,
        });
    }
}

/// Connection-layer statistics for the nonblocking multiplexer: the open
/// connection gauge, lifetime accept/close totals, readiness wakeups (one per
/// `poll(2)` return that reported at least one ready fd), pipelined requests
/// (parsed while an earlier request on the same connection was still in
/// flight) and idle-timeout evictions.
#[derive(Debug, Default)]
pub struct ConnectionMetrics {
    open: AtomicU64,
    accepted_total: AtomicU64,
    closed_total: AtomicU64,
    wakeups_total: AtomicU64,
    pipelined_total: AtomicU64,
    idle_evictions_total: AtomicU64,
}

impl ConnectionMetrics {
    /// Count one accepted connection (raises the open gauge).
    pub fn record_accepted(&self) {
        self.open.fetch_add(1, Ordering::Relaxed);
        self.accepted_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one closed connection (lowers the open gauge).
    pub fn record_closed(&self) {
        self.open.fetch_sub(1, Ordering::Relaxed);
        self.closed_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one readiness wakeup (a `poll` return with ≥ 1 ready fd).
    pub fn record_wakeup(&self) {
        self.wakeups_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one request parsed while an earlier one was still in flight.
    pub fn record_pipelined(&self) {
        self.pipelined_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one connection its poller evicted because no byte moved for the
    /// idle timeout. The eviction also closes the connection, which is
    /// recorded separately via [`record_closed`](Self::record_closed).
    pub fn record_idle_eviction(&self) {
        self.idle_evictions_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Connections currently open.
    pub fn open(&self) -> u64 {
        self.open.load(Ordering::Relaxed)
    }

    /// Requests served pipelined so far.
    pub fn pipelined_total(&self) -> u64 {
        self.pipelined_total.load(Ordering::Relaxed)
    }

    /// Idle-timeout evictions so far.
    pub fn idle_evictions_total(&self) -> u64 {
        self.idle_evictions_total.load(Ordering::Relaxed)
    }
}

/// Read this process's live OS thread count from `/proc/self/status`
/// (`Threads:` line). Linux-specific; returns `None` elsewhere or when the
/// file is unreadable. The flat-thread-count guarantee of the multiplexer is
/// asserted against exactly this number.
pub fn os_thread_count() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("Threads:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Per-queue statistics: one instance per registered scorer kind, shared
/// between the pollers that submit to that kind's queue (depth reservations)
/// and its drain loop (depth decrements, batch sizes, per-text queue wait
/// and per-batch scoring time). Depth counts texts, not requests.
///
/// Every depth change is mirrored into the server-wide `aggregate` counter
/// (shared across all queues via [`ServeMetrics::queue`]), which the global
/// intake valve and `/explain` shedding read — so "total texts queued" is one
/// atomic load, not a walk over the queue list.
#[derive(Debug, Default)]
pub struct QueueMetrics {
    depth: AtomicU64,
    /// Aggregate depth across every queue of the owning server; a standalone
    /// `QueueMetrics::default()` (unit tests) gets a private one.
    aggregate: Arc<AtomicU64>,
    texts_scored: AtomicU64,
    /// Scored batch sizes. Below 32 every size gets an exact bucket.
    batch_sizes: LogHistogram,
    /// Per-text enqueue → batch-drain wait (µs).
    queue_wait: LogHistogram,
    /// Per-batch `probabilities` call duration (µs).
    score: LogHistogram,
}

impl QueueMetrics {
    /// A fresh section whose depth changes also move the shared `aggregate`.
    fn with_aggregate(aggregate: Arc<AtomicU64>) -> Self {
        Self {
            aggregate,
            ..Self::default()
        }
    }

    /// Count one text entering the queue.
    pub fn record_enqueued(&self) {
        self.depth.fetch_add(1, Ordering::Relaxed);
        self.aggregate.fetch_add(1, Ordering::Relaxed);
    }

    /// Reserve room for `texts` more texts, all or nothing: succeeds (and
    /// counts them as enqueued) only if the resulting depth stays within
    /// `cap`. The compare-exchange makes the check-and-increment atomic, so
    /// two pollers racing for the last slots cannot both win it —
    /// admission never overshoots the cap.
    pub fn try_admit(&self, texts: u64, cap: u64) -> bool {
        let mut current = self.depth.load(Ordering::Relaxed);
        loop {
            let next = match current.checked_add(texts) {
                Some(next) if next <= cap => next,
                _ => return false,
            };
            // ordering: pure depth accounting — the counter itself is the
            // entire shared state. No memory is published under a successful
            // reservation (the job travels through the channel, which does
            // its own synchronization), so relaxed CAS is sufficient.
            match self.depth.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.aggregate.fetch_add(texts, Ordering::Relaxed);
                    return true;
                }
                Err(actual) => current = actual,
            }
        }
    }

    /// Count `texts` leaving the queue unscored (model not loaded, or an
    /// admitted reservation whose send failed).
    pub fn record_dropped(&self, texts: usize) {
        self.depth.fetch_sub(texts as u64, Ordering::Relaxed);
        self.aggregate.fetch_sub(texts as u64, Ordering::Relaxed);
    }

    /// Record one scored batch of `size` texts: each text's queue wait
    /// (enqueue → drain, µs) and the batch's single scoring call duration.
    /// Decrements the queue depth by the batch size.
    pub fn record_batch(&self, size: usize, text_wait_us: &[u64], score_us: u64) {
        if size == 0 {
            return;
        }
        self.depth.fetch_sub(size as u64, Ordering::Relaxed);
        self.aggregate.fetch_sub(size as u64, Ordering::Relaxed);
        self.texts_scored.fetch_add(size as u64, Ordering::Relaxed);
        self.batch_sizes.record(size as u64);
        for &micros in text_wait_us {
            self.queue_wait.record(micros);
        }
        self.score.record(score_us);
    }

    /// Texts currently waiting in (or being scored from) this queue.
    pub fn depth(&self) -> u64 {
        self.depth.load(Ordering::Relaxed)
    }

    /// The largest batch this queue has scored (0 before the first batch).
    pub fn max_batch_size(&self) -> usize {
        self.batch_sizes.max() as usize
    }
}

/// Shared metrics sink. One instance per server, shared by pollers, the
/// admin thread and the per-kind batch queues. Also owns the [`Obs`]
/// observability state (trace-id mint, per-endpoint stage histograms,
/// slow-trace ring).
#[derive(Debug)]
pub struct ServeMetrics {
    started: Instant,
    /// Per-endpoint request counters, indexed by [`Endpoint::index`].
    requests: [AtomicU64; 7],
    error_responses: AtomicU64,
    /// Requests served on an already-used connection (the 2nd, 3rd, … request
    /// of a keep-alive session). Zero means every request paid a TCP setup.
    keepalive_reuses: AtomicU64,
    /// Completed registry reloads (a `/reload` fit + swap; startup not counted).
    reloads_total: AtomicU64,
    /// Stats of the fit behind the serving registry, recorded when the server
    /// starts and again by every reload, right after its swap.
    fit: Mutex<FitStats>,
    /// End-to-end request latency (parse done → last byte written), recorded
    /// at trace finalization.
    request_latency: LogHistogram,
    /// Per-kind queue sections, in registration order.
    queues: Mutex<Vec<(String, String, Arc<QueueMetrics>)>>,
    /// Jobs queued across every kind, maintained by the [`QueueMetrics`]
    /// registered through [`queue`](Self::queue). Read by the intake valve
    /// and `/explain` shedding.
    aggregate_depth: Arc<AtomicU64>,
    /// Shed counters, intake-valve state and configured limits.
    admission: AdmissionMetrics,
    /// Connection-layer counters for the nonblocking multiplexer.
    connections: ConnectionMetrics,
    /// Configured thread plan `[pollers, admin, queues]`, set once at
    /// server start; the point of the multiplexer is that this plan — not the
    /// connection count — determines the process's thread count.
    thread_plan: Mutex<Option<[usize; 3]>>,
    /// Trace-id mint, per-endpoint × per-stage histograms, slow-trace ring.
    obs: Obs,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServeMetrics {
    /// A fresh, all-zero sink. `started` anchors the uptime gauge.
    pub fn new() -> Self {
        Self {
            started: Instant::now(),
            requests: std::array::from_fn(|_| AtomicU64::new(0)),
            error_responses: AtomicU64::new(0),
            keepalive_reuses: AtomicU64::new(0),
            reloads_total: AtomicU64::new(0),
            fit: Mutex::new(FitStats::default()),
            request_latency: LogHistogram::new(),
            queues: Mutex::new(Vec::new()),
            aggregate_depth: Arc::new(AtomicU64::new(0)),
            admission: AdmissionMetrics::default(),
            connections: ConnectionMetrics::default(),
            thread_plan: Mutex::new(None),
            obs: Obs::new(),
        }
    }

    /// Count a request against its endpoint.
    pub fn record_request(&self, endpoint: Endpoint) {
        self.requests[endpoint.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Count an error (4xx/5xx) response.
    pub fn record_error(&self) {
        self.error_responses.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one request served on a reused (keep-alive) connection.
    pub fn record_keepalive_reuse(&self) {
        self.keepalive_reuses.fetch_add(1, Ordering::Relaxed);
    }

    /// Requests served on reused connections so far.
    pub fn keepalive_reuses_total(&self) -> u64 {
        self.keepalive_reuses.load(Ordering::Relaxed)
    }

    /// The connection-layer counters (shared with pollers).
    pub fn connections(&self) -> &ConnectionMetrics {
        &self.connections
    }

    /// The admission-control counters (shed, intake valve, limits).
    pub fn admission(&self) -> &AdmissionMetrics {
        &self.admission
    }

    /// Count one shed (429) response against its endpoint and reason.
    pub fn record_shed(&self, endpoint: Endpoint, reason: ShedReason) {
        self.admission.record_shed(endpoint, reason);
    }

    /// Jobs currently queued (or being scored) across every kind's queue.
    pub fn aggregate_queue_depth(&self) -> u64 {
        self.aggregate_depth.load(Ordering::Relaxed)
    }

    /// The observability state: trace-id mint, stage histograms, slow ring.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Time since this sink (the server) was created.
    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    /// Fold a completed request trace into the latency and stage histograms
    /// and offer it to the slow-trace ring. Called by the poller when the
    /// last byte of the response reaches the socket.
    pub fn finalize_trace(&self, trace: &RequestTrace) {
        self.request_latency
            .record(trace.total().as_micros() as u64);
        self.obs.finalize(trace);
    }

    /// A snapshot of the end-to-end request-latency histogram (µs). The
    /// `serve_throughput` bench diffs successive snapshots
    /// ([`HistogramSnapshot::minus`]) for per-sweep-stage percentiles.
    pub fn latency_snapshot(&self) -> HistogramSnapshot {
        self.request_latency.snapshot()
    }

    /// Record the configured thread plan: how many poller, admin and
    /// batch-queue threads the server runs. Reported under `threads` in the
    /// snapshot next to the live OS thread count.
    pub fn set_thread_plan(&self, pollers: usize, admin: usize, queues: usize) {
        *self.thread_plan.lock().unwrap() = Some([pollers, admin, queues]);
    }

    /// Record the stats of the fit behind the serving registry (called once
    /// when the server starts).
    pub fn record_fit(&self, fit: FitStats) {
        *self.fit.lock().expect("fit stats lock poisoned") = fit;
    }

    /// Count one completed `/reload` (fresh registry fitted and swapped in)
    /// and record its fit stats.
    pub fn record_reload(&self, fit: FitStats) {
        self.record_fit(fit);
        self.reloads_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Completed reloads so far.
    pub fn reloads_total(&self) -> u64 {
        self.reloads_total.load(Ordering::Relaxed)
    }

    /// Register (or fetch) the per-queue section for a scorer kind. Called by
    /// the server when it spawns a kind's drain loop; idempotent so a restart
    /// of the queue set reuses the existing section (the first registration's
    /// `scorer_kind` family label wins). `scorer_kind` is the coarse scorer
    /// family ("classical" / "transformer" / "quantized") exposed as an extra
    /// Prometheus label on the per-queue series; the JSON snapshot stays keyed
    /// by kind name alone.
    pub fn queue(&self, kind_name: &str, scorer_kind: &str) -> Arc<QueueMetrics> {
        let mut queues = self.queues.lock().unwrap();
        if let Some((_, _, metrics)) = queues.iter().find(|(name, _, _)| name == kind_name) {
            return Arc::clone(metrics);
        }
        let metrics = Arc::new(QueueMetrics::with_aggregate(Arc::clone(
            &self.aggregate_depth,
        )));
        queues.push((
            kind_name.to_string(),
            scorer_kind.to_string(),
            Arc::clone(&metrics),
        ));
        metrics
    }

    /// The largest batch scored so far across all queues (0 before the first
    /// batch).
    pub fn max_batch_size(&self) -> usize {
        let queues = self.queues.lock().expect("queue list lock poisoned");
        queues
            .iter()
            .map(|(_, _, q)| q.max_batch_size())
            .max()
            .unwrap_or(0)
    }

    /// Total requests across all endpoints (including unroutable ones, so
    /// `total` is always ≥ `errors`).
    pub fn total_requests(&self) -> u64 {
        self.requests
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// The `GET /metrics` JSON document.
    pub fn snapshot(&self) -> JsonValue {
        family::render_json(&self.families())
    }

    /// The `GET /metrics?format=prometheus` text exposition (version 0.0.4).
    pub fn render_prometheus(&self) -> String {
        family::render_prometheus(&self.families())
    }

    /// Every metric family `/metrics` exports, read now. The order is the
    /// JSON document's key order. The cross-queue `texts_scored` and
    /// `batches` are merged from one snapshot of each queue, so they always
    /// agree with the per-queue sections of the same scrape.
    pub(crate) fn families(&self) -> Vec<Family> {
        let int = |counter: &AtomicU64| Value::Int(counter.load(Ordering::Relaxed));
        let (version, git) = build_info();
        let connections = &self.connections;
        let admission = &self.admission;
        let limits = *admission.limits.lock().expect("limits lock poisoned");
        let thread_plan = *self.thread_plan.lock().expect("thread plan lock poisoned");
        let fit = *self.fit.lock().expect("fit stats lock poisoned");
        let queues = self.queues.lock().expect("queue list lock poisoned");
        let texts: Vec<u64> = queues
            .iter()
            .map(|(_, _, q)| q.texts_scored.load(Ordering::Relaxed))
            .collect();
        let sizes: Vec<HistogramSnapshot> = queues
            .iter()
            .map(|(_, _, q)| q.batch_sizes.snapshot())
            .collect();
        let mut all_sizes = HistogramSnapshot::empty();
        for snapshot in &sizes {
            all_sizes.merge(snapshot);
        }
        let per_queue = |family: Family, read: &dyn Fn(usize, &QueueMetrics) -> Value| {
            family
                .labels(&["kind", "scorer_kind"])
                .samples(
                    queues
                        .iter()
                        .enumerate()
                        .map(|(i, (kind, scorer_kind, q))| {
                            ([kind.as_str(), scorer_kind.as_str()], read(i, q))
                        }),
                )
        };
        let stages = ENDPOINT_NAMES.iter().flat_map(|&endpoint| {
            STAGE_NAMES
                .iter()
                .enumerate()
                .filter_map(move |(stage, &name)| {
                    let snapshot = self.obs.stage_snapshot(endpoint, stage);
                    (snapshot.count() > 0).then_some(([endpoint, name], Value::Histogram(snapshot)))
                })
        });
        let limit = |read: fn(&AdmissionLimits) -> Value| limits.map(|l| ([""; 0], read(&l)));
        let roles = ["pollers", "admin", "queues"];
        let planned = thread_plan
            .into_iter()
            .flat_map(|plan| roles.into_iter().zip(plan));

        vec![
            Family::gauge(
                "holistix_build_info",
                "Build metadata as labels; value is always 1.",
                "",
            )
            .labels(&["version", "git"])
            .samples([([version, git], Value::Int(1))]),
            Family::gauge(
                "holistix_uptime_seconds",
                "Seconds since the server started.",
                "uptime_s",
            )
            .value(Value::Float(self.uptime().as_secs_f64())),
            Family::counter(
                "holistix_requests_total",
                "Requests received, by endpoint.",
                "requests.{endpoint}",
            )
            .labels(&["endpoint"])
            .with_json_total("requests.total")
            .samples(Endpoint::ALL.map(|e| ([e.name()], int(&self.requests[e.index()])))),
            Family::counter(
                "holistix_error_responses_total",
                "Responses with a 4xx/5xx status.",
                "requests.errors",
            )
            .value(int(&self.error_responses)),
            Family::counter(
                "holistix_keepalive_reuses_total",
                "Requests served on a reused keep-alive connection.",
                "keepalive_reuses_total",
            )
            .value(int(&self.keepalive_reuses)),
            Family::counter(
                "holistix_texts_scored_total",
                "Texts scored across all batch queues.",
                "texts_scored",
            )
            .value(Value::Int(texts.iter().sum())),
            Family::histogram(
                "holistix_batch_size",
                "Scored micro-batch sizes (texts per batch), all queues.",
                "batches",
            )
            .value(Value::Sizes(all_sizes)),
            Family::histogram(
                "holistix_request_latency_us",
                "End-to-end request latency (parse done to last byte written), microseconds.",
                "latency_us",
            )
            .value(Value::Histogram(self.request_latency.snapshot())),
            Family::histogram(
                "holistix_stage_duration_us",
                "Per-stage request latency in microseconds.",
                "stages.{endpoint}.{stage}",
            )
            .labels(&["endpoint", "stage"])
            .samples(stages),
            Family::gauge(
                "holistix_connections_open",
                "Connections currently open.",
                "connections.open",
            )
            .value(int(&connections.open)),
            Family::counter(
                "holistix_connections_accepted_total",
                "Connections accepted.",
                "connections.accepted_total",
            )
            .value(int(&connections.accepted_total)),
            Family::counter(
                "holistix_connections_closed_total",
                "Connections closed.",
                "connections.closed_total",
            )
            .value(int(&connections.closed_total)),
            Family::counter(
                "holistix_poll_wakeups_total",
                "poll(2) returns reporting at least one ready fd.",
                "connections.wakeups_total",
            )
            .value(int(&connections.wakeups_total)),
            Family::counter(
                "holistix_pipelined_requests_total",
                "Requests parsed while an earlier one was in flight.",
                "connections.pipelined_requests_total",
            )
            .value(int(&connections.pipelined_total)),
            Family::counter(
                "holistix_idle_timeout_evictions_total",
                "Connections evicted after moving no byte for the idle timeout.",
                "connections.idle_timeout_evictions_total",
            )
            .value(int(&connections.idle_evictions_total)),
            Family::gauge(
                "holistix_queue_depth_aggregate",
                "Jobs queued across every kind's batch queue.",
                "admission.aggregate_depth",
            )
            .value(int(&self.aggregate_depth)),
            Family::gauge(
                "holistix_intake_closed",
                "1 while the global intake valve is closed (pollers not reading).",
                "admission.intake_closed",
            )
            .value(Value::Flag(admission.intake_closed())),
            Family::counter(
                "holistix_intake_closures_total",
                "Open-to-closed transitions of the intake valve.",
                "admission.intake_closures_total",
            )
            .value(int(&admission.intake_closures_total)),
            Family::counter(
                "holistix_shed_total",
                "Requests shed with 429, by endpoint and reason.",
                "admission.shed.{endpoint}.{reason}",
            )
            .labels(&["endpoint", "reason"])
            .with_json_total("admission.shed_total")
            .samples(Endpoint::ALL.iter().flat_map(|&e| {
                ShedReason::ALL.map(|r| {
                    (
                        [e.name(), r.name()],
                        int(&admission.shed[e.index()][r.index()]),
                    )
                })
            })),
            Family::gauge(
                "holistix_admission_queue_depth_limit",
                "Configured per-kind queue depth cap.",
                "admission.limits.max_queue_depth",
            )
            .samples(limit(|l| Value::Int(l.max_queue_depth))),
            Family::gauge(
                "holistix_admission_intake_limit",
                "Aggregate depth at which the intake valve closes.",
                "admission.limits.global_intake_limit",
            )
            .samples(limit(|l| Value::Int(l.global_intake_limit))),
            Family::gauge(
                "holistix_admission_explain_shed_depth",
                "Aggregate depth at which /explain sheds.",
                "admission.limits.explain_shed_depth",
            )
            .samples(limit(|l| Value::Int(l.explain_shed_depth))),
            Family::gauge(
                "holistix_admission_rate_per_s",
                "Per-connection token-bucket refill rate, tokens per second.",
                "admission.limits.rate_per_s",
            )
            .samples(limit(|l| {
                l.rate_limit
                    .map_or(Value::Unknown, |(r, _)| Value::Float(r))
            })),
            Family::gauge(
                "holistix_admission_burst",
                "Per-connection token-bucket capacity, tokens.",
                "admission.limits.burst",
            )
            .samples(limit(|l| {
                l.rate_limit
                    .map_or(Value::Unknown, |(_, b)| Value::Float(b))
            })),
            Family::gauge(
                "holistix_planned_threads",
                "Threads the server was configured to run, by role.",
                "threads.{role}",
            )
            .labels(&["role"])
            .samples(planned.map(|(role, n)| ([role], Value::Int(n as u64)))),
            Family::gauge(
                "holistix_os_threads",
                "Live OS threads in this process.",
                "threads.os_threads",
            )
            .value(os_thread_count().map_or(Value::Unknown, Value::Int)),
            per_queue(
                Family::gauge(
                    "holistix_queue_depth",
                    "Jobs waiting in (or being scored from) the queue.",
                    "queues.{kind}.depth",
                ),
                &|_, q| Value::Int(q.depth()),
            ),
            per_queue(
                Family::counter(
                    "holistix_queue_texts_scored_total",
                    "Texts this queue has scored.",
                    "queues.{kind}.texts_scored",
                ),
                &|i, _| Value::Int(texts[i]),
            ),
            per_queue(
                Family::histogram(
                    "holistix_queue_batch_size",
                    "Scored batch sizes for this queue.",
                    "queues.{kind}.batches",
                ),
                &|i, _| Value::Sizes(sizes[i].clone()),
            ),
            per_queue(
                Family::histogram(
                    "holistix_queue_wait_us",
                    "Per-job wait from enqueue to batch drain, microseconds.",
                    "queues.{kind}.queue_wait_us",
                ),
                &|_, q| Value::Histogram(q.queue_wait.snapshot()),
            ),
            per_queue(
                Family::histogram(
                    "holistix_queue_score_us",
                    "Per-batch scoring call duration, microseconds.",
                    "queues.{kind}.score_us",
                ),
                &|_, q| Value::Histogram(q.score.snapshot()),
            ),
            Family::counter(
                "holistix_reloads_total",
                "Completed registry reloads.",
                "registry.reloads_total",
            )
            .value(int(&self.reloads_total)),
            Family::gauge(
                "holistix_registry_last_fit_us",
                "Duration of the registry's most recent fit, microseconds.",
                "registry.last_fit_us",
            )
            .value(Value::Int(fit.duration.as_micros() as u64)),
            Family::gauge(
                "holistix_registry_fit_shards",
                "Shards the most recent fit ran across.",
                "registry.fit_shards",
            )
            .value(Value::Int(fit.shards as u64)),
            Family::gauge(
                "holistix_registry_corpus_size",
                "Posts in the corpus behind the serving registry.",
                "registry.corpus_size",
            )
            .value(Value::Int(fit.corpus_size as u64)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::{validate_exposition, TraceStamp};

    /// A finalized trace with the given endpoint and end-to-end total.
    fn finalize_total(metrics: &ServeMetrics, endpoint: Endpoint, total: Duration) {
        let started = Instant::now();
        let mut trace = metrics.obs().begin_trace(started);
        trace.endpoint = endpoint.name();
        trace.stamp_at(TraceStamp::WriteDone, started + total);
        metrics.finalize_trace(&trace);
    }

    #[test]
    fn batch_histogram_tracks_sizes_and_texts() {
        // The cross-queue aggregates are merged from the per-queue sections.
        let metrics = ServeMetrics::new();
        let lr = metrics.queue("LR", "classical");
        let bert = metrics.queue("BERT", "transformer");
        assert!(lr.try_admit(5, 5) && bert.try_admit(4, 4));
        lr.record_batch(1, &[1], 10);
        lr.record_batch(4, &[1; 4], 10);
        bert.record_batch(4, &[1; 4], 10);
        lr.record_batch(0, &[], 10); // ignored
        assert_eq!(metrics.aggregate_queue_depth(), 0);
        assert_eq!(metrics.max_batch_size(), 4);
        let snapshot = metrics.snapshot();
        assert_eq!(snapshot.get("texts_scored").unwrap().as_f64(), Some(9.0));
        let batches = snapshot.get("batches").unwrap();
        assert_eq!(batches.get("count").unwrap().as_f64(), Some(3.0));
        assert_eq!(batches.get("max_size").unwrap().as_f64(), Some(4.0));
        let histogram = batches.get("histogram").unwrap();
        assert_eq!(histogram.get("1").unwrap().as_f64(), Some(1.0));
        assert_eq!(histogram.get("4").unwrap().as_f64(), Some(2.0));
        assert_eq!(histogram.get("2"), None);
    }

    #[test]
    fn latency_percentiles_come_from_finalized_traces() {
        let metrics = ServeMetrics::new();
        for micros in 1..=100u64 {
            finalize_total(&metrics, Endpoint::Predict, Duration::from_micros(micros));
        }
        let snapshot = metrics.snapshot();
        let latency = snapshot.get("latency_us").unwrap();
        assert_eq!(latency.get("count").unwrap().as_f64(), Some(100.0));
        // Values ≥ 32 land in log2 buckets: the estimate may overshoot the
        // exact nearest-rank value by at most one bucket width.
        let p50 = latency.get("p50").unwrap().as_f64().unwrap();
        let (_, p50_upper) = crate::obs::bucket_bounds(50);
        assert!((50.0..=p50_upper as f64).contains(&p50), "p50 {p50}");
        let p99 = latency.get("p99").unwrap().as_f64().unwrap();
        let (_, p99_upper) = crate::obs::bucket_bounds(99);
        assert!((99.0..=p99_upper as f64).contains(&p99), "p99 {p99}");
        assert_eq!(latency.get("max").unwrap().as_f64(), Some(100.0));
        // The stage histogram for the endpoint saw the same traces.
        let write = metrics
            .obs()
            .stage_snapshot("predict", TraceStamp::WriteDone as usize);
        assert_eq!(write.count(), 100);
        // The JSON `stages` section lists only endpoints with traces.
        let stages = snapshot.get("stages").unwrap();
        assert!(stages.get("predict").unwrap().get("write").is_some());
        assert_eq!(stages.get("healthz"), None);
    }

    #[test]
    fn empty_latency_histogram_reports_null() {
        let snapshot = ServeMetrics::new().snapshot();
        let latency = snapshot.get("latency_us").unwrap();
        assert_eq!(latency.get("p50"), Some(&JsonValue::Null));
        assert_eq!(latency.get("count").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn endpoint_counters_sum_into_total() {
        let metrics = ServeMetrics::new();
        metrics.record_request(Endpoint::Predict);
        metrics.record_request(Endpoint::Predict);
        metrics.record_request(Endpoint::Health);
        metrics.record_request(Endpoint::Reload);
        metrics.record_request(Endpoint::DebugSlow);
        metrics.record_error();
        assert_eq!(metrics.total_requests(), 5);
        let snapshot = metrics.snapshot();
        let requests = snapshot.get("requests").unwrap();
        assert_eq!(requests.get("predict").unwrap().as_f64(), Some(2.0));
        assert_eq!(requests.get("reload").unwrap().as_f64(), Some(1.0));
        assert_eq!(requests.get("debug_slow").unwrap().as_f64(), Some(1.0));
        assert_eq!(requests.get("errors").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn keepalive_reuse_counter_round_trips() {
        let metrics = ServeMetrics::new();
        assert_eq!(metrics.keepalive_reuses_total(), 0);
        metrics.record_keepalive_reuse();
        metrics.record_keepalive_reuse();
        assert_eq!(metrics.keepalive_reuses_total(), 2);
        let snapshot = metrics.snapshot();
        assert_eq!(
            snapshot.get("keepalive_reuses_total").unwrap().as_f64(),
            Some(2.0)
        );
    }

    #[test]
    fn queue_sections_track_depth_batches_wait_and_score() {
        let metrics = ServeMetrics::new();
        let lr = metrics.queue("LR", "classical");
        let bert = metrics.queue("BERT", "transformer");
        // Idempotent registration returns the same section.
        assert!(Arc::ptr_eq(&lr, &metrics.queue("LR", "classical")));

        for _ in 0..5 {
            lr.record_enqueued();
        }
        assert_eq!(lr.depth(), 5);
        lr.record_batch(3, &[10, 20, 30], 250);
        assert_eq!(lr.depth(), 2);
        assert_eq!(lr.max_batch_size(), 3);
        bert.record_enqueued();
        bert.record_dropped(1);
        assert_eq!(bert.depth(), 0);

        let snapshot = metrics.snapshot();
        let queues = snapshot.get("queues").unwrap();
        let lr_section = queues.get("LR").unwrap();
        assert_eq!(lr_section.get("depth").unwrap().as_f64(), Some(2.0));
        assert_eq!(lr_section.get("texts_scored").unwrap().as_f64(), Some(3.0));
        let lr_batches = lr_section.get("batches").unwrap();
        assert_eq!(lr_batches.get("max_size").unwrap().as_f64(), Some(3.0));
        let lr_wait = lr_section.get("queue_wait_us").unwrap();
        // Waits below 32 µs land in exact buckets: p50 of {10,20,30} is 20.
        assert_eq!(lr_wait.get("p50").unwrap().as_f64(), Some(20.0));
        assert_eq!(lr_wait.get("count").unwrap().as_f64(), Some(3.0));
        let lr_score = lr_section.get("score_us").unwrap();
        assert_eq!(lr_score.get("count").unwrap().as_f64(), Some(1.0));
        assert_eq!(lr_score.get("max").unwrap().as_f64(), Some(250.0));
        let bert_section = queues.get("BERT").unwrap();
        assert_eq!(bert_section.get("depth").unwrap().as_f64(), Some(0.0));
        assert_eq!(
            bert_section.get("queue_wait_us").unwrap().get("p50"),
            Some(&JsonValue::Null)
        );
    }

    #[test]
    fn connection_counters_and_thread_plan_round_trip() {
        let metrics = ServeMetrics::new();
        let conns = metrics.connections();
        conns.record_accepted();
        conns.record_accepted();
        conns.record_wakeup();
        conns.record_pipelined();
        conns.record_idle_eviction();
        conns.record_closed();
        assert_eq!(conns.open(), 1);
        metrics.set_thread_plan(2, 1, 3);

        let snapshot = metrics.snapshot();
        let section = snapshot.get("connections").unwrap();
        assert_eq!(section.get("open").unwrap().as_f64(), Some(1.0));
        assert_eq!(section.get("accepted_total").unwrap().as_f64(), Some(2.0));
        assert_eq!(section.get("closed_total").unwrap().as_f64(), Some(1.0));
        assert_eq!(section.get("wakeups_total").unwrap().as_f64(), Some(1.0));
        assert_eq!(
            section.get("pipelined_requests_total").unwrap().as_f64(),
            Some(1.0)
        );
        assert_eq!(
            section
                .get("idle_timeout_evictions_total")
                .unwrap()
                .as_f64(),
            Some(1.0)
        );
        let threads = snapshot.get("threads").unwrap();
        assert_eq!(threads.get("pollers").unwrap().as_f64(), Some(2.0));
        assert_eq!(threads.get("admin").unwrap().as_f64(), Some(1.0));
        assert_eq!(threads.get("queues").unwrap().as_f64(), Some(3.0));
        // On Linux the live OS thread count is a positive number.
        let os_threads = os_thread_count().expect("Linux /proc/self/status");
        assert!(os_threads >= 1);
        assert!(threads.get("os_threads").unwrap().as_f64().unwrap() >= 1.0);
    }

    #[test]
    fn registry_fit_stats_round_trip_through_snapshot() {
        let metrics = ServeMetrics::new();
        // Before any fit is recorded, the section reports zeros.
        let bare = metrics.snapshot();
        let section = bare.get("registry").unwrap();
        assert_eq!(section.get("reloads_total").unwrap().as_f64(), Some(0.0));
        assert_eq!(section.get("last_fit_us").unwrap().as_f64(), Some(0.0));

        let startup = FitStats {
            duration: Duration::from_micros(900),
            shards: 1,
            corpus_size: 90,
        };
        metrics.record_fit(startup);
        let section = metrics.snapshot().get("registry").unwrap().clone();
        assert_eq!(section.get("reloads_total").unwrap().as_f64(), Some(0.0));
        assert_eq!(section.get("corpus_size").unwrap().as_f64(), Some(90.0));

        // Each reload counts and replaces the stats with its own fit's.
        let fit = FitStats {
            duration: Duration::from_micros(12_500),
            shards: 4,
            corpus_size: 2_000,
        };
        metrics.record_reload(startup);
        metrics.record_reload(fit);
        assert_eq!(metrics.reloads_total(), 2);
        let snapshot = metrics.snapshot();
        let section = snapshot.get("registry").unwrap();
        assert_eq!(section.get("reloads_total").unwrap().as_f64(), Some(2.0));
        assert_eq!(section.get("last_fit_us").unwrap().as_f64(), Some(12_500.0));
        assert_eq!(section.get("fit_shards").unwrap().as_f64(), Some(4.0));
        assert_eq!(section.get("corpus_size").unwrap().as_f64(), Some(2_000.0));
    }

    #[test]
    fn prometheus_exposition_is_valid_and_matches_json() {
        let metrics = ServeMetrics::new();
        metrics.record_request(Endpoint::Predict);
        metrics.record_request(Endpoint::Predict);
        metrics.record_request(Endpoint::Metrics);
        metrics.record_error();
        metrics.record_keepalive_reuse();
        let lr = metrics.queue("LR", "classical");
        for _ in 0..3 {
            lr.record_enqueued();
        }
        lr.record_batch(3, &[15, 40, 1000], 900);
        let bert = metrics.queue("BERT", "transformer");
        assert!(bert.try_admit(40, 40));
        bert.record_batch(40, &[5; 40], 9_000); // a log2-bucketed size
        finalize_total(&metrics, Endpoint::Predict, Duration::from_micros(480));
        metrics.set_thread_plan(2, 1, 1);
        metrics.record_fit(FitStats {
            duration: Duration::from_micros(7_000),
            shards: 2,
            corpus_size: 90,
        });

        let text = metrics.render_prometheus();
        validate_exposition(&text).expect("valid exposition");

        // Counters agree with the JSON snapshot.
        let json = metrics.snapshot();
        let predict_json = json
            .get("requests")
            .unwrap()
            .get("predict")
            .unwrap()
            .as_f64()
            .unwrap();
        assert!(text.contains(&format!(
            "holistix_requests_total{{endpoint=\"predict\"}} {predict_json}"
        )));
        let scored_json = json.get("texts_scored").unwrap().as_f64().unwrap();
        assert!(text.contains(&format!("holistix_texts_scored_total {scored_json}")));
        // Histogram series exist with cumulative buckets ending in +Inf.
        assert!(text.contains("holistix_request_latency_us_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("holistix_queue_wait_us_bucket{kind=\"LR\""));
        assert!(text.contains("holistix_batch_size_count 2"));
        // Build info and fit gauges are present.
        assert!(text.contains("holistix_build_info{version=\""));
        assert!(text.contains("holistix_registry_corpus_size 90"));
        // The per-endpoint stage histogram from the finalized trace.
        assert!(
            text.contains("holistix_stage_duration_us_bucket{endpoint=\"predict\",stage=\"write\"")
        );
    }

    #[test]
    fn queue_series_carry_scorer_kind_labels() {
        // Every per-queue Prometheus series carries both the fine-grained
        // `kind` label and the coarse `scorer_kind` family, while the JSON
        // snapshot stays keyed by kind name alone (no shape change).
        let metrics = ServeMetrics::new();
        let lr = metrics.queue("LR", "classical");
        let bert = metrics.queue("BERT", "transformer");
        let quant = metrics.queue("MentalBERT-i8", "quantized");
        lr.record_enqueued();
        lr.record_batch(1, &[25], 400);
        bert.record_enqueued();
        bert.record_batch(1, &[900], 48_000);
        quant.record_enqueued();
        quant.record_batch(1, &[60], 2_000);

        let text = metrics.render_prometheus();
        validate_exposition(&text).expect("valid exposition with scorer_kind labels");
        for (kind, family) in [
            ("LR", "classical"),
            ("BERT", "transformer"),
            ("MentalBERT-i8", "quantized"),
        ] {
            let labels = format!("kind=\"{kind}\",scorer_kind=\"{family}\"");
            assert!(
                text.contains(&format!("holistix_queue_depth{{{labels}}}")),
                "missing depth series for {kind}"
            );
            assert!(
                text.contains(&format!("holistix_queue_texts_scored_total{{{labels}}}")),
                "missing scored counter for {kind}"
            );
            assert!(
                text.contains(&format!("holistix_queue_wait_us_bucket{{{labels},le=")),
                "missing wait histogram for {kind}"
            );
            assert!(
                text.contains(&format!("holistix_queue_score_us_bucket{{{labels},le=")),
                "missing score histogram for {kind}"
            );
        }
        // Registering the same kind again (even with a different family)
        // returns the original handle and never forks the series.
        let again = metrics.queue("LR", "quantized");
        assert!(Arc::ptr_eq(&lr, &again));
        let text = metrics.render_prometheus();
        assert!(text.contains("kind=\"LR\",scorer_kind=\"classical\""));
        assert!(!text.contains("kind=\"LR\",scorer_kind=\"quantized\""));

        // JSON snapshot: still one object per kind name, no scorer_kind key.
        let snapshot = metrics.snapshot();
        let queues = snapshot.get("queues").unwrap();
        for kind in ["LR", "BERT", "MentalBERT-i8"] {
            let section = queues.get(kind).unwrap();
            assert!(section.get("scorer_kind").is_none());
            assert_eq!(section.get("texts_scored").unwrap().as_f64(), Some(1.0));
        }
    }

    #[test]
    fn empty_sink_renders_valid_prometheus() {
        // No traffic at all: histograms are omitted, counters are zero, and
        // the exposition still validates (no TYPE line without samples).
        let metrics = ServeMetrics::new();
        let text = metrics.render_prometheus();
        validate_exposition(&text).expect("valid empty exposition");
        assert!(!text.contains("holistix_request_latency_us"));
        assert!(text.contains("holistix_requests_total{endpoint=\"predict\"} 0"));
        // Shed counters and valve state are always present (zero-valued
        // counters still carry samples, so the exposition stays valid).
        assert!(text.contains("holistix_shed_total{endpoint=\"predict\",reason=\"queue_full\"} 0"));
        assert!(text.contains("holistix_queue_depth_aggregate 0"));
        assert!(text.contains("holistix_intake_closed 0"));
        // Limit gauges appear only once an Admission has echoed its config.
        assert!(!text.contains("holistix_admission_queue_depth_limit"));
    }

    #[test]
    fn try_admit_is_all_or_nothing_at_the_cap() {
        let queue = QueueMetrics::default();
        assert!(queue.try_admit(3, 4));
        assert_eq!(queue.depth(), 3);
        // 3 + 2 > 4: refused without partial admission.
        assert!(!queue.try_admit(2, 4));
        assert_eq!(queue.depth(), 3);
        assert!(queue.try_admit(1, 4));
        assert!(!queue.try_admit(1, 4));
        queue.record_batch(2, &[5, 5], 10);
        assert!(queue.try_admit(2, 4));
        assert_eq!(queue.depth(), 4);
        // A huge cap must not overflow the reservation arithmetic.
        assert!(!queue.try_admit(u64::MAX, u64::MAX));
    }

    #[test]
    fn aggregate_depth_sums_across_queues() {
        let metrics = ServeMetrics::new();
        let lr = metrics.queue("LR", "classical");
        let bert = metrics.queue("BERT", "transformer");
        lr.record_enqueued();
        lr.record_enqueued();
        assert!(bert.try_admit(3, 10));
        assert_eq!(metrics.aggregate_queue_depth(), 5);
        bert.record_dropped(1);
        lr.record_batch(2, &[1, 1], 10);
        assert_eq!(metrics.aggregate_queue_depth(), 2);
        assert_eq!(lr.depth(), 0);
        assert_eq!(bert.depth(), 2);
    }

    #[test]
    fn shed_counters_and_valve_round_trip_json_and_prometheus() {
        let metrics = ServeMetrics::new();
        metrics.record_shed(Endpoint::Predict, ShedReason::QueueFull);
        metrics.record_shed(Endpoint::Predict, ShedReason::QueueFull);
        metrics.record_shed(Endpoint::Explain, ShedReason::Degraded);
        metrics.record_shed(Endpoint::Health, ShedReason::RateLimited);
        let admission = metrics.admission();
        admission.set_intake_closed(true);
        admission.set_intake_closed(true); // no second transition while closed
        admission.set_intake_closed(false);
        admission.set_intake_closed(true);
        admission.set_limits(64, 256, 32, Some((10.0, 4.0)));
        assert_eq!(
            admission.shed_count(Endpoint::Predict, ShedReason::QueueFull),
            2
        );
        assert_eq!(admission.shed_total(), 4);
        assert!(admission.intake_closed());
        assert_eq!(admission.intake_closures_total(), 2);

        let snapshot = metrics.snapshot();
        let section = snapshot.get("admission").unwrap();
        assert_eq!(section.get("aggregate_depth").unwrap().as_f64(), Some(0.0));
        assert_eq!(section.get("intake_closed").unwrap().as_bool(), Some(true));
        assert_eq!(
            section.get("intake_closures_total").unwrap().as_f64(),
            Some(2.0)
        );
        assert_eq!(section.get("shed_total").unwrap().as_f64(), Some(4.0));
        let shed = section.get("shed").unwrap();
        assert_eq!(
            shed.get("predict")
                .unwrap()
                .get("queue_full")
                .unwrap()
                .as_f64(),
            Some(2.0)
        );
        assert_eq!(
            shed.get("explain")
                .unwrap()
                .get("degraded")
                .unwrap()
                .as_f64(),
            Some(1.0)
        );
        assert_eq!(
            shed.get("explain")
                .unwrap()
                .get("queue_full")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
        let limits = section.get("limits").unwrap();
        assert_eq!(limits.get("max_queue_depth").unwrap().as_f64(), Some(64.0));
        assert_eq!(limits.get("rate_per_s").unwrap().as_f64(), Some(10.0));
        assert_eq!(limits.get("burst").unwrap().as_f64(), Some(4.0));

        let text = metrics.render_prometheus();
        validate_exposition(&text).expect("valid exposition");
        assert!(text.contains("holistix_shed_total{endpoint=\"predict\",reason=\"queue_full\"} 2"));
        assert!(text.contains("holistix_shed_total{endpoint=\"explain\",reason=\"degraded\"} 1"));
        assert!(text.contains("holistix_intake_closed 1"));
        assert!(text.contains("holistix_intake_closures_total 2"));
        assert!(text.contains("holistix_admission_queue_depth_limit 64"));
        assert!(text.contains("holistix_admission_rate_per_s 10"));
    }

    #[test]
    fn endpoint_resolve_matches_every_route() {
        assert_eq!(Endpoint::resolve("POST", "/predict"), Endpoint::Predict);
        assert_eq!(Endpoint::resolve("POST", "/explain"), Endpoint::Explain);
        assert_eq!(Endpoint::resolve("POST", "/reload"), Endpoint::Reload);
        assert_eq!(Endpoint::resolve("GET", "/healthz"), Endpoint::Health);
        assert_eq!(Endpoint::resolve("GET", "/metrics"), Endpoint::Metrics);
        assert_eq!(Endpoint::resolve("GET", "/debug/slow"), Endpoint::DebugSlow);
        assert_eq!(Endpoint::resolve("GET", "/predict"), Endpoint::Other);
        assert_eq!(Endpoint::resolve("POST", "/nope"), Endpoint::Other);
    }
}
