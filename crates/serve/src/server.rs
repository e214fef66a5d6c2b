//! The HTTP server: a nonblocking connection multiplexer in front of the
//! per-kind batch queues.
//!
//! Thread model — no count here scales with the number of connected
//! clients:
//!
//! * **two poller threads** (`POLLERS`) own the connections. Each
//!   runs a readiness loop over `poll(2)` ([`crate::poller`]): it accepts new
//!   sockets (the nonblocking listener is polled by every poller; the kernel
//!   breaks the tie), reads whatever bytes are available into each
//!   connection's incremental parser, routes parsed requests, and writes
//!   completed responses back out with partial-write resumption
//!   ([`crate::conn`]). A poller answers `/healthz`, `/debug/slow`, 404/405
//!   and every refused request itself, and admits each `/predict` and
//!   `/explain` onto its kind's batch queue. Pollers never block on a socket
//!   or a model, so ten thousand idle keep-alive clients cost two sleeping
//!   threads, not ten thousand.
//! * **one batch-queue thread per registered scorer** ([`crate::batcher`])
//!   coalesces texts across concurrent requests — a slow transformer batch
//!   never delays a classical one — builds each answer and hands it back to
//!   the owning poller through its completion list + waker.
//! * **one admin thread** answers the two routes too slow for a poller:
//!   `/metrics` (a render costs about half a millisecond) and `/reload` body
//!   validation (up to 1 MiB of JSONL). It hands its answers back the same
//!   way; the reload fit runs on a thread of its own.
//!
//! Connections are pipelined: a poller keeps parsing (and routing) request
//! `N+1` while `N` is still being scored, and the per-connection reorder
//! buffer guarantees responses go out in request order. Idle connections are
//! evicted by the poller itself, never by a blocking read timeout: each round
//! rebuilds the poll set from every connection, closes on the way each one
//! that moved no byte for the idle timeout, and sleeps until the earliest
//! remaining deadline. The same check evicts a client that stops draining its
//! responses, and one that stalls partway through a request.
//!
//! Shutdown: [`ServerHandle::shutdown`] flips the running flag and wakes
//! every poller. Pollers drop their connections and exit, dropping their
//! queue senders and the admin sender; every batch queue finishes its
//! in-flight jobs, explains included, and exits, and so does the admin
//! thread — the scope then joins everything.

use crate::admission::{Admission, AdmissionConfig};
use crate::batcher::{build_queues, BatchConfig, BatcherHandle, PredictError, Reply, Work};
use crate::conn::Connection;
use crate::http::{Request, Response};
use crate::metrics::{build_info, Endpoint, ServeMetrics, ShedReason};
use crate::obs::{RequestTrace, TraceStamp};
use crate::poller::{waker_pair, Interest, PollSet, ReadyEvent, WakeReader, Waker};
use crate::registry::{ModelRegistry, SharedRegistry};
use holistix::corpus::WellnessDimension;
use holistix::linalg::argmax;
use holistix::ml::ThreadBudget;
use holistix::{BaselineKind, Scorer};
use holistix_corpus::json::JsonValue;
use holistix_explain::{LimeConfig, LimeExplainer, LimeExplanation};
use std::net::{SocketAddr, TcpListener};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Most posts one `/reload` corpus may carry. Defense in depth: the 1 MiB
/// request-body cap in `http.rs` already rejects any corpus this large (a
/// parseable post line is far more than 10 bytes), so this guard only binds
/// if that cap is ever raised — it keeps the fit-memory bound explicit rather
/// than implied by a transport limit.
pub const MAX_RELOAD_POSTS: usize = 100_000;

/// Most texts one `/predict` request may carry (independent of micro-batching;
/// this bounds per-request memory, not throughput).
pub const MAX_TEXTS_PER_REQUEST: usize = 256;

/// Most distinct word types `/explain` accepts. LIME's surrogate regression
/// solves an `(features+1)²` system, so an uncapped text could turn one
/// request into an hours-long, memory-exploding solve; real posts have tens
/// of distinct words.
pub const MAX_EXPLAIN_FEATURES: usize = 512;

/// Poller threads. Each owns a share of the connections and multiplexes them
/// with readiness polling; two is plenty below tens of thousands of clients,
/// since pollers do no model work.
const POLLERS: usize = 2;

/// Longest a poller sleeps: when no idle deadline is nearer. Purely a
/// liveness backstop — wakeups for I/O, completions and shutdown all
/// interrupt it.
const FALLBACK_POLL: Duration = Duration::from_millis(500);

/// Poll-set token for a poller's own waker pipe.
const TOKEN_WAKER: usize = usize::MAX;

/// Poll-set token for the shared listener.
const TOKEN_LISTENER: usize = usize::MAX - 1;

/// Thread budget for a `/reload` refit: half the machine (at least one), so
/// the background fit leaves cores for the pollers and the batch queues that
/// are serving live traffic off the old registry.
fn reload_fit_threads() -> usize {
    (ThreadBudget::machine().threads / 2).max(1)
}

/// Keep-alive policy for one connection.
#[derive(Debug, Clone)]
pub struct KeepAliveConfig {
    /// Most requests one connection may carry before the server closes it
    /// (announced via `Connection: close` on the final response). Bounds how
    /// much state one client session can accumulate.
    pub max_requests: usize,
    /// How long a connection may sit idle (no bytes moving in either
    /// direction) before its poller evicts it. Also bounds how long a
    /// non-draining client can hold buffered responses. A timeout too large
    /// for [`Instant`] to add never evicts.
    pub idle_timeout: Duration,
}

impl Default for KeepAliveConfig {
    fn default() -> Self {
        Self {
            max_requests: 1000,
            idle_timeout: Duration::from_secs(5),
        }
    }
}

/// Server configuration.
#[derive(Debug, Clone, Default)]
pub struct ServeConfig {
    /// Micro-batching knobs, shared by every registered scorer's queue.
    pub batch: BatchConfig,
    /// Connection keep-alive policy.
    pub keep_alive: KeepAliveConfig,
    /// LIME defaults for `/explain` (per-request `top_k` / `n_samples`
    /// overrides apply on top). The server scores each perturbation set on
    /// its kind's batch queue in [`BatchConfig::max_batch`] chunks, so
    /// [`LimeConfig::batch_size`] does not apply here.
    pub lime: LimeConfig,
    /// Admission control: per-kind queue caps, the global intake valve,
    /// `/explain` shedding and per-client rate limiting. The defaults are
    /// permissive (see [`AdmissionConfig`]).
    pub admission: AdmissionConfig,
}

/// A running server. Dropping the handle shuts the server down.
pub struct ServerHandle {
    addr: SocketAddr,
    running: Arc<AtomicBool>,
    metrics: Arc<ServeMetrics>,
    wakers: Vec<Waker>,
    thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the ephemeral port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live metrics sink (the same data `GET /metrics` serves).
    pub fn metrics(&self) -> Arc<ServeMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Stop accepting, drop every connection, join every thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if let Some(thread) = self.thread.take() {
            // ordering: SeqCst — shutdown is a synchronization edge: pollers
            // must observe the flag before draining, and this path is cold.
            self.running.store(false, Ordering::SeqCst);
            // Wake every poller so each observes the flag immediately.
            for waker in &self.wakers {
                waker.wake();
            }
            let _ = thread.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Bind `addr` (use port 0 for an ephemeral port) and start serving the
/// registry's warm scorers. Returns once the listener is bound — fitting has
/// already happened in [`ModelRegistry`] construction, so the server answers
/// from its first request.
pub fn serve(
    addr: &str,
    registry: ModelRegistry,
    config: ServeConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local_addr = listener.local_addr()?;
    let running = Arc::new(AtomicBool::new(true));
    let metrics = Arc::new(ServeMetrics::new());
    metrics.record_fit(registry.fit_stats());
    let mut wakers = Vec::new();
    let mut readers = Vec::new();
    for _ in 0..POLLERS {
        let (waker, reader) = waker_pair()?;
        wakers.push(waker);
        readers.push(reader);
    }
    let state = ServerState {
        listener,
        registry: SharedRegistry::new(registry),
        admission: Admission::new(config.admission.clone(), Arc::clone(&metrics)),
        config,
        running: Arc::clone(&running),
        metrics: Arc::clone(&metrics),
        reloading: Arc::new(AtomicBool::new(false)),
    };
    let thread = {
        let wakers = wakers.clone();
        std::thread::spawn(move || serve_loop(state, readers, wakers))
    };
    Ok(ServerHandle {
        addr: local_addr,
        running,
        metrics,
        wakers,
        thread: Some(thread),
    })
}

/// Everything the pollers and the admin thread read, owned by the server
/// thread for the server's lifetime.
struct ServerState {
    listener: TcpListener,
    registry: SharedRegistry,
    config: ServeConfig,
    running: Arc<AtomicBool>,
    metrics: Arc<ServeMetrics>,
    admission: Admission,
    /// Set while a `/reload` fit runs.
    reloading: Arc<AtomicBool>,
}

/// A finished response on its way back to the owning poller, with the trace
/// stamped along the way (the poller stamps the final last-byte-written
/// boundary and finalizes it).
struct Completion {
    slot: usize,
    generation: u64,
    seq: u64,
    response: Response,
    trace: RequestTrace,
}

/// The answering side of one poller: where completions are pushed, and the
/// waker that tells the poller to collect them.
struct PollerShared {
    completions: Mutex<Vec<Completion>>,
    waker: Waker,
}

/// Where an answer made off the poller goes: the owning poller and the
/// request's place on its connection.
struct ReplyTo {
    poller: Arc<PollerShared>,
    slot: usize,
    generation: u64,
    seq: u64,
}

impl ReplyTo {
    /// Queue `response` back to the owning poller and wake it.
    fn send(self, metrics: &ServeMetrics, response: Response, mut trace: RequestTrace) {
        finish(metrics, &response, &mut trace);
        let completion = Completion {
            slot: self.slot,
            generation: self.generation,
            seq: self.seq,
            response,
            trace,
        };
        self.poller
            .completions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(completion);
        self.poller.waker.wake();
    }
}

/// Every answer's last step: count an error status, stamp `ResponseQueued`.
fn finish(metrics: &ServeMetrics, response: &Response, trace: &mut RequestTrace) {
    if response.status >= 400 {
        metrics.record_error();
    }
    trace.stamp(TraceStamp::ResponseQueued);
}

/// A `/metrics` or `/reload` request on its way to the admin thread.
struct AdminJob {
    request: Request,
    trace: RequestTrace,
    reply_to: ReplyTo,
}

fn serve_loop(state: ServerState, readers: Vec<WakeReader>, wakers: Vec<Waker>) {
    // One batch queue per scorer registered at startup. `/reload` refits keep
    // the kind set, so the queue set never needs to change at runtime.
    let (batcher, queues) = build_queues(
        &state.registry,
        &state.config.batch,
        &state.metrics,
        state.config.admission.max_queue_depth,
    );
    let metrics = &state.metrics;
    metrics.set_thread_plan(readers.len(), 1, queues.len());
    let (admin, admin_jobs) = mpsc::channel();
    let state = &state;
    crossbeam::thread::scope(|scope| {
        for queue in queues {
            scope.spawn(move |_| queue.run());
        }
        scope.spawn(move |_| admin_loop(state, admin_jobs));
        for (reader, waker) in readers.into_iter().zip(wakers) {
            let routes = Routes {
                state,
                batcher: batcher.clone(),
                admin: admin.clone(),
            };
            scope.spawn(move |_| Poller::new(reader, waker, routes).run());
        }
        // The pollers hold the other senders: when the last poller exits,
        // every batch queue and the admin thread drain out.
        drop(batcher);
        drop(admin);
    })
    .expect("server thread scope failed");
}

/// The admin thread: answer `/metrics` and `/reload` until every poller is
/// gone.
fn admin_loop(state: &ServerState, jobs: mpsc::Receiver<AdminJob>) {
    for mut job in jobs {
        job.trace.stamp(TraceStamp::Routed);
        let response = match Endpoint::resolve(&job.request.method, &job.request.path) {
            Endpoint::Reload => reload(&job.request.body, state),
            _ => metrics_page(&job.request, &state.metrics),
        };
        job.reply_to.send(&state.metrics, response, job.trace);
    }
}

/// What a poller routes requests with: the server state and its own
/// handles on the batch queues and the admin thread.
struct Routes<'a> {
    state: &'a ServerState,
    batcher: BatcherHandle,
    admin: mpsc::Sender<AdminJob>,
}

impl Routes<'_> {
    /// Route one parsed request. Returns the answer when the poller answers
    /// it itself — `/healthz`, `/debug/slow`, 404/405 and every refused
    /// request; a queued `/predict` or `/explain` and the admin routes are
    /// answered later, through `reply_to`.
    fn route(
        &self,
        request: Request,
        mut trace: RequestTrace,
        reply_to: ReplyTo,
    ) -> Option<(Response, RequestTrace)> {
        let metrics = &self.state.metrics;
        let endpoint = Endpoint::resolve(&request.method, &request.path);
        trace.endpoint = endpoint.name();
        metrics.record_request(endpoint);
        if let Endpoint::Metrics | Endpoint::Reload = endpoint {
            let job = AdminJob {
                request,
                trace,
                reply_to,
            };
            let mpsc::SendError(job) = self.admin.send(job).err()?;
            return Some((Response::error(503, "server is shutting down"), job.trace));
        }
        trace.stamp(TraceStamp::Routed);
        // `Ok`: a job for its kind's queue; `Err`: the answer, given now.
        let job = match endpoint {
            Endpoint::Predict => self.predict(&request, reply_to),
            Endpoint::Explain => self.explain(&request, reply_to),
            Endpoint::Health => Err(self.healthz()),
            Endpoint::DebugSlow => Err(Response::ok(
                metrics.obs().slow_traces().to_json().to_string(),
            )),
            _ => Err(match request.path.as_str() {
                "/healthz" | "/metrics" | "/predict" | "/explain" | "/reload" | "/debug/slow" => {
                    Response::error(405, "method not allowed")
                }
                _ => Response::error(404, "no such endpoint"),
            }),
        };
        let (kind, work) = match job {
            Ok(job) => job,
            Err(response) => return Some((response, trace)),
        };
        trace.kind = Some(kind.name());
        trace.stamp(TraceStamp::QueueEnqueue);
        // A refusal is answered here: `429` + `Retry-After` for a full
        // queue, `503` when the model or the queue is gone.
        let (error, trace) = *self.batcher.submit(kind, work, trace).err()?;
        let response = if let PredictError::QueueFull { .. } = error {
            metrics.record_shed(endpoint, ShedReason::QueueFull);
            Response::too_many(&error.to_string(), self.state.admission.retry_after_secs())
        } else {
            Response::error(error.status(), &error.to_string())
        };
        trace.map(|trace| (response, trace))
    }

    fn healthz(&self) -> Response {
        let registry = self.state.registry.current();
        let models = registry
            .kinds()
            .into_iter()
            .map(|k| JsonValue::string(k.name()));
        let (version, git) = build_info();
        let build = [("version", version), ("git", git)].map(|(k, v)| (k, JsonValue::string(v)));
        let metrics = &self.state.metrics;
        let default = JsonValue::string(registry.default_kind().name());
        let reloading = JsonValue::Bool(self.state.reloading.load(Ordering::SeqCst));
        let open = JsonValue::Number(metrics.connections().open() as f64);
        let uptime = JsonValue::Number(metrics.uptime().as_secs_f64());
        let health = JsonValue::object(vec![
            ("status", JsonValue::string("ok")),
            ("models", JsonValue::Array(models.collect())),
            ("default_model", default),
            ("reloading", reloading),
            ("open_connections", open),
            ("uptime_s", uptime),
            ("build", JsonValue::object(build.to_vec())),
        ]);
        Response::ok(health.to_string())
    }

    /// `POST /predict`: `{"texts": ["…", …]}` (or `{"text": "…"}`), optional
    /// `"model"`. The texts go to their model's batch queue as one job, so
    /// concurrent requests for the same kind share scoring batches — and
    /// requests for different kinds never wait on each other. Returns the
    /// job, or the 4xx the body draws.
    fn predict(
        &self,
        request: &Request,
        reply_to: ReplyTo,
    ) -> Result<(BaselineKind, Work), Response> {
        let document = JsonValue::parse(&request.body)
            .map_err(|e| Response::error(400, &format!("invalid JSON body: {e}")))?;
        let array = document.get("texts").and_then(|v| v.as_array());
        let texts: Vec<String> = match (array, document.get("text").and_then(|v| v.as_str())) {
            (Some(array), _) => array
                .iter()
                .map(|item| item.as_str().map(str::to_string))
                .collect::<Option<_>>()
                .ok_or_else(|| Response::error(400, "`texts` must be an array of strings"))?,
            (None, Some(text)) => vec![text.to_string()],
            (None, None) => {
                let message = "body needs a `texts` array or a `text` string";
                return Err(Response::error(400, message));
            }
        };
        if texts.is_empty() {
            return Err(Response::error(400, "no texts to score"));
        }
        if texts.len() > MAX_TEXTS_PER_REQUEST {
            let message = format!("at most {MAX_TEXTS_PER_REQUEST} texts per request");
            return Err(Response::error(413, &message));
        }
        let (kind, scorer) = self.resolve(&document)?;
        let reply = self.reply(request, reply_to, move |rows| predict_fields(kind, rows));
        Ok((kind, Work::predict(scorer, texts, reply)))
    }

    /// `POST /explain`: `{"text": "…"}`, optional `"model"`, `"top_k"`,
    /// `"n_samples"`. A job on its kind's batch queue that reserves the whole
    /// perturbation set; the drain thread samples it, scores it in
    /// `max_batch` chunks between predicts and fits the surrogate. Any
    /// backend explains the same way — LIME sees only `dyn Scorer`.
    fn explain(
        &self,
        request: &Request,
        reply_to: ReplyTo,
    ) -> Result<(BaselineKind, Work), Response> {
        let admission = &self.state.admission;
        // Graceful degradation: an explanation scores hundreds of texts, so
        // it is the first thing to go under queue pressure — checked before
        // even parsing the body, while `/predict` keeps serving until its
        // own (higher) per-kind cap.
        if admission.should_shed_explain() {
            let metrics = &self.state.metrics;
            metrics.record_shed(Endpoint::Explain, ShedReason::Degraded);
            let message = "explanations are shed under load; retry later";
            return Err(Response::too_many(message, admission.retry_after_secs()));
        }
        let document = JsonValue::parse(&request.body)
            .map_err(|e| Response::error(400, &format!("invalid JSON body: {e}")))?;
        let text = document.get("text").and_then(|v| v.as_str());
        let text = text.ok_or_else(|| Response::error(400, "body needs a `text` string"))?;
        // LIME's cost is driven by the number of interpretable features
        // (distinct word types), not bytes: cap it before the surrogate
        // solve, counting exactly what the explainer will solve over.
        let n_features = holistix_explain::interpretable_features(text).len();
        if n_features > MAX_EXPLAIN_FEATURES {
            let message = format!(
                "text has {n_features} distinct words; /explain accepts at most {MAX_EXPLAIN_FEATURES}"
            );
            return Err(Response::error(413, &message));
        }
        let (kind, scorer) = self.resolve(&document)?;
        let mut lime = self.state.config.lime.clone();
        if let Some(n_samples) = document.get("n_samples").and_then(|v| v.as_usize()) {
            lime.n_samples = n_samples.clamp(10, 2000);
        }
        // The whole perturbation set must fit the kind's queue, or the
        // request would draw a 429 it can never get past.
        let max_depth = admission.config().max_queue_depth;
        lime.n_samples = lime.n_samples.min(max_depth.saturating_sub(1));
        if let Some(top_k) = document.get("top_k").and_then(|v| v.as_usize()) {
            lime.top_k = top_k.clamp(1, 50);
        }
        let top_k = lime.top_k;
        let reply = self.reply(request, reply_to, move |e| explain_fields(kind, top_k, &e));
        let explainer = LimeExplainer::new(lime);
        let work = Work::explain(scorer, text.to_string(), n_features, explainer, reply);
        Ok((kind, work))
    }

    /// The body's `"model"` (the default when absent) and its scorer, pinned
    /// now: the request gets every row from this model even if a `/reload`
    /// swaps the registry while it waits.
    fn resolve(&self, document: &JsonValue) -> Result<(BaselineKind, Arc<dyn Scorer>), Response> {
        let model = document.get("model").and_then(|v| v.as_str());
        let resolved = self.state.registry.current().resolve(model);
        resolved.map_err(|e| Response::error(400, &e))
    }

    /// A reply that answers `request` with the JSON object `render` makes of
    /// its queue's answer (an error answers with its status), and queues it
    /// back to the owning poller. With `?trace=1` the object gains a `trace`
    /// section: the id and the stages stamped so far (the write stage is
    /// still ahead — it can only appear in `/debug/slow`).
    fn reply<T>(
        &self,
        request: &Request,
        reply_to: ReplyTo,
        render: impl FnOnce(T) -> Fields + Send + 'static,
    ) -> Reply<T> {
        let metrics = Arc::clone(&self.state.metrics);
        let inline = request.query_param("trace") == Some("1");
        Reply::new(move |answer, trace| {
            let response = match answer.map(render) {
                Ok(mut fields) => {
                    if inline {
                        let id = JsonValue::string(trace.id_hex());
                        let stages = trace.stages_json();
                        let section = JsonValue::object(vec![("trace_id", id), ("stages", stages)]);
                        fields.push(("trace", section));
                    }
                    Response::ok(JsonValue::object(fields).to_string())
                }
                Err(e) => Response::error(e.status(), &e.to_string()),
            };
            reply_to.send(&metrics, response, trace);
        })
    }
}

/// The fields of a JSON object, in order.
type Fields = Vec<(&'static str, JsonValue)>;

/// The `/predict` answer: per text, its probabilities, label and label index.
fn predict_fields(kind: BaselineKind, rows: Vec<Vec<f64>>) -> Fields {
    let results = rows.into_iter().map(|row| {
        let label_index = argmax(&row).unwrap_or(0);
        let probabilities = row.into_iter().map(JsonValue::Number).collect();
        let label = WellnessDimension::from_index(label_index).code();
        JsonValue::object(vec![
            ("probabilities", JsonValue::Array(probabilities)),
            ("label", JsonValue::string(label)),
            ("label_index", JsonValue::Number(label_index as f64)),
        ])
    });
    vec![
        ("model", JsonValue::string(kind.name())),
        ("results", JsonValue::Array(results.collect())),
    ]
}

/// The `/explain` answer: the explained class and the `top_k` heaviest
/// tokens.
fn explain_fields(kind: BaselineKind, top_k: usize, explanation: &LimeExplanation) -> Fields {
    let tokens = explanation
        .token_weights
        .iter()
        .take(top_k)
        .map(|(token, weight)| {
            let token = JsonValue::string(token.clone());
            JsonValue::object(vec![
                ("token", token),
                ("weight", JsonValue::Number(*weight)),
            ])
        });
    let class = explanation.target_class;
    let label = JsonValue::string(WellnessDimension::from_index(class).code());
    let probability = JsonValue::Number(explanation.target_probability);
    vec![
        ("model", JsonValue::string(kind.name())),
        ("label", label),
        ("target_class", JsonValue::Number(class as f64)),
        ("target_probability", probability),
        ("tokens", JsonValue::Array(tokens.collect())),
    ]
}

/// `GET /metrics`: Prometheus text when asked for via `?format=prometheus`
/// or an `Accept` admitting text/plain; the JSON document otherwise.
fn metrics_page(request: &Request, metrics: &ServeMetrics) -> Response {
    if request.query_param("format") == Some("prometheus")
        || request.accept.to_ascii_lowercase().contains("text/plain")
    {
        Response::text(200, metrics.render_prometheus())
    } else {
        Response::ok(metrics.snapshot().to_string())
    }
}

/// `POST /reload`: the body is a JSONL corpus in the `corpus::io` schema. The
/// admin thread only parses and validates; the fit of the fresh registry
/// runs on its own dedicated thread — never on a poller or a batch queue —
/// and the new registry is atomically swapped in when ready, so `/predict`
/// keeps answering (from the old models) for the whole duration. Responds
/// `202` with the accepted post count, `400` on a malformed or empty corpus,
/// `409` if a reload is already in flight. Completion is observable in
/// `GET /metrics` (`registry.reloads_total`, `registry.corpus_size`) and
/// `GET /healthz` (`reloading`).
fn reload(body: &str, state: &ServerState) -> Response {
    let posts = match holistix_corpus::io::from_jsonl(body) {
        Ok(posts) => posts,
        Err(e) => return Response::error(400, &format!("invalid JSONL corpus: {e}")),
    };
    if posts.is_empty() {
        return Response::error(400, "reload corpus has no posts");
    }
    if posts.len() > MAX_RELOAD_POSTS {
        return Response::error(413, &format!("at most {MAX_RELOAD_POSTS} posts per reload"));
    }
    // One reload at a time: claim the flag before spawning; losing claimants
    // are told to retry rather than queueing fits.
    // ordering: SeqCst — the flag gates a whole model-fit critical section,
    // and reloads are rare enough that the fence cost is irrelevant.
    if state.reloading.swap(true, Ordering::SeqCst) {
        return Response::error(409, "a reload is already in progress");
    }
    let n_posts = posts.len();
    let shared = state.registry.clone();
    let metrics = Arc::clone(&state.metrics);
    let reloading = Arc::clone(&state.reloading);
    std::thread::spawn(move || {
        // The flag must clear even if the fit panics on a pathological corpus;
        // a detached thread swallows panics, so without this guard a failed
        // reload would wedge /reload behind 409s until process restart.
        struct ClearOnExit(Arc<AtomicBool>);
        impl Drop for ClearOnExit {
            fn drop(&mut self) {
                // ordering: SeqCst to pair with the claiming `swap` — the
                // next claimant must see the registry swap that preceded us.
                self.0.store(false, Ordering::SeqCst);
            }
        }
        let _clear = ClearOnExit(reloading);
        let texts: Vec<&str> = posts.iter().map(|p| p.post.text.as_str()).collect();
        let labels: Vec<usize> = posts.iter().map(|p| p.label.index()).collect();
        // Half the machine: the fit must not starve the pollers and the
        // batch queues, which are serving live traffic off the old registry.
        let fresh = shared.current().refit_budgeted(
            &texts,
            &labels,
            ThreadBudget::new(reload_fit_threads()),
        );
        let fit = fresh.fit_stats();
        shared.swap(fresh);
        metrics.record_reload(fit);
    });
    Response::json(
        202,
        JsonValue::object(vec![
            ("status", JsonValue::string("reloading")),
            ("posts", JsonValue::Number(n_posts as f64)),
        ])
        .to_string(),
    )
}

/// One poller thread: a readiness loop over its share of the connections,
/// the shared listener, and its waker pipe.
struct Poller<'a> {
    state: &'a ServerState,
    reader: WakeReader,
    shared: Arc<PollerShared>,
    routes: Routes<'a>,
    conns: Vec<Option<Connection>>,
    free: Vec<usize>,
    next_generation: u64,
    set: PollSet,
}

impl<'a> Poller<'a> {
    fn new(reader: WakeReader, waker: Waker, routes: Routes<'a>) -> Self {
        Self {
            state: routes.state,
            reader,
            shared: Arc::new(PollerShared {
                completions: Mutex::new(Vec::new()),
                waker,
            }),
            routes,
            conns: Vec::new(),
            free: Vec::new(),
            next_generation: 0,
            set: PollSet::new(),
        }
    }

    fn run(mut self) {
        let idle_timeout = self.state.config.keep_alive.idle_timeout;
        let idle_timeout = idle_timeout.max(Duration::from_millis(1));
        while self.state.running.load(Ordering::SeqCst) {
            let timeout = self.build_set(Instant::now(), idle_timeout);
            let n_ready = match self.set.wait(timeout) {
                Ok(n) => n,
                Err(_) => {
                    // A failed poll is unrecoverable per-call but transient
                    // per-process; back off instead of spinning.
                    std::thread::sleep(Duration::from_millis(10));
                    continue;
                }
            };
            let now = Instant::now();
            if n_ready > 0 {
                self.state.metrics.connections().record_wakeup();
            }

            let events: Vec<ReadyEvent> = self.set.ready().collect();
            let mut touched: Vec<usize> = Vec::new();
            for event in events {
                match event.token {
                    TOKEN_WAKER => self.reader.drain(),
                    TOKEN_LISTENER => self.accept_new(now, &mut touched),
                    slot => {
                        let conn = self.conns[slot].as_mut();
                        if event.readable && conn.is_some_and(|c| c.on_readable(now).is_err()) {
                            self.close(slot);
                        } else {
                            touched.push(slot);
                        }
                    }
                }
            }

            // Collect completions every round, not only on waker events: the
            // wake and the push are not atomic together, and a spurious
            // collection is one cheap lock.
            let completed: Vec<Completion> = std::mem::take(
                &mut self
                    .shared
                    .completions
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner),
            );
            for completion in completed {
                if let Some(conn) = self.conns[completion.slot].as_mut() {
                    if conn.generation == completion.generation {
                        conn.complete(completion.seq, completion.response, completion.trace);
                        touched.push(completion.slot);
                    }
                }
            }

            touched.sort_unstable();
            touched.dedup();
            for slot in touched {
                self.pump(slot, now);
            }
        }
        // Shutdown: drop every connection (close the sockets, settle the
        // open-connection gauge).
        for slot in 0..self.conns.len() {
            self.close(slot);
        }
    }

    /// Rebuild the poll set from the live connection table, evicting on the
    /// way every connection past its [idle deadline](Connection::idle_deadline)
    /// (counted in `idle_timeout_evictions_total`). Returns how long the
    /// poller may sleep: until the earliest remaining deadline, rounded up to
    /// a whole millisecond because `poll(2)` rounds down, and at most
    /// [`FALLBACK_POLL`]. O(connections) per wait, but a single FFI call and
    /// trivially correct under churn — a closed fd is simply never submitted
    /// again.
    fn build_set(&mut self, now: Instant, idle_timeout: Duration) -> Duration {
        // The global intake valve: while aggregate queue depth is at or past
        // the configured limit, this poller neither accepts nor reads — the
        // same withdraw-read-interest mechanism the per-connection pipelining
        // cap uses, applied to every socket at once. The endpoint of unread
        // bytes is unknowable, so the gate is total (a `/metrics` scrape
        // waits too; in-process readers use `ServerHandle::metrics`).
        // Reopening is detected on the next build: completions draining the
        // queues wake the poller, and `FALLBACK_POLL` bounds the worst case.
        let intake_open = self.state.admission.intake_open();
        self.set.clear();
        self.set.push(self.reader.fd(), Interest::READ, TOKEN_WAKER);
        if intake_open {
            self.set.push(
                self.state.listener.as_raw_fd(),
                Interest::READ,
                TOKEN_LISTENER,
            );
        }
        let mut wake = now + FALLBACK_POLL;
        for slot in 0..self.conns.len() {
            let Some(conn) = &self.conns[slot] else {
                continue;
            };
            match conn.idle_deadline(idle_timeout) {
                Some(deadline) if deadline <= now => {
                    self.state.metrics.connections().record_idle_eviction();
                    self.close(slot);
                    continue;
                }
                Some(deadline) => wake = wake.min(deadline),
                None => {}
            }
            // A connection at the pipelining cap (or past its final request)
            // withdraws read interest: backpressure lands in the kernel's
            // receive buffer. Hangups still surface — poll reports them
            // regardless of the requested events.
            let interest = Interest {
                read: intake_open && conn.wants_read(),
                write: conn.wants_write(),
            };
            self.set.push(conn.fd(), interest, slot);
        }
        Duration::from_millis((wake - now).as_nanos().div_ceil(1_000_000) as u64)
    }

    /// Drain the listener's accept queue. Every poller races on the same
    /// listener; losers see `WouldBlock` immediately.
    fn accept_new(&mut self, now: Instant, touched: &mut Vec<usize>) {
        loop {
            match self.state.listener.accept() {
                Ok((stream, _)) => {
                    self.next_generation += 1;
                    let generation = self.next_generation;
                    let bucket = self.state.admission.new_bucket(now);
                    let Ok(conn) = Connection::new(stream, generation, now, bucket) else {
                        continue;
                    };
                    let slot = match self.free.pop() {
                        Some(slot) => {
                            self.conns[slot] = Some(conn);
                            slot
                        }
                        None => {
                            self.conns.push(Some(conn));
                            self.conns.len() - 1
                        }
                    };
                    self.state.metrics.connections().record_accepted();
                    touched.push(slot);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                // Transient accept failures (EMFILE, aborted handshakes):
                // back off briefly instead of busy-spinning on the error.
                Err(_) => {
                    std::thread::sleep(Duration::from_millis(10));
                    break;
                }
            }
        }
    }

    /// Drive one connection as far as it will go without blocking: parse and
    /// route new requests, serialize completed responses in order, flush,
    /// and close if the session is over.
    fn pump(&mut self, slot: usize, now: Instant) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        let generation = conn.generation;
        let requests = conn.take_requests(
            now,
            self.state.config.keep_alive.max_requests,
            &self.state.metrics,
            &self.state.admission,
        );
        for (seq, request, trace) in requests {
            let reply_to = ReplyTo {
                poller: Arc::clone(&self.shared),
                slot,
                generation,
                seq,
            };
            if let Some((response, mut trace)) = self.routes.route(request, trace, reply_to) {
                finish(&self.state.metrics, &response, &mut trace);
                conn.complete(seq, response, trace);
            }
        }
        conn.serialize_ready(self.state.running.load(Ordering::SeqCst));
        let broken = conn.wants_write() && conn.on_writable(now, &self.state.metrics).is_err();
        if broken || conn.should_close() {
            self.close(slot);
        }
    }

    /// Drop the connection in `slot` (closing its socket) and recycle the
    /// slot.
    fn close(&mut self, slot: usize) {
        if self.conns[slot].take().is_some() {
            self.free.push(slot);
            self.state.metrics.connections().record_closed();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::HttpClient;
    use crate::registry::RegistryConfig;
    use holistix::{BaselineKind, SpeedProfile};

    fn tiny_server() -> ServerHandle {
        let registry = ModelRegistry::fit_synthetic(&RegistryConfig {
            kinds: vec![BaselineKind::LogisticRegression],
            profile: SpeedProfile::Tiny,
            training_posts: 90,
            seed: 3,
        });
        let config = ServeConfig {
            batch: BatchConfig { max_batch: 8 },
            lime: LimeConfig {
                n_samples: 40,
                ..LimeConfig::default()
            },
            ..ServeConfig::default()
        };
        serve("127.0.0.1:0", registry, config).expect("bind loopback")
    }

    /// An LR server whose connections follow `keep_alive`.
    fn keep_alive_server(keep_alive: KeepAliveConfig) -> ServerHandle {
        let registry = ModelRegistry::fit_synthetic(&RegistryConfig {
            kinds: vec![BaselineKind::LogisticRegression],
            profile: SpeedProfile::Tiny,
            training_posts: 90,
            seed: 3,
        });
        let config = ServeConfig {
            keep_alive,
            ..ServeConfig::default()
        };
        serve("127.0.0.1:0", registry, config).expect("bind loopback")
    }

    #[test]
    fn healthz_predict_explain_and_metrics_round_trip() {
        let server = tiny_server();
        let mut client = HttpClient::connect(server.addr()).expect("connect");

        let (status, body) = client.request("GET", "/healthz", None).unwrap();
        assert_eq!(status, 200, "{body}");
        let health = JsonValue::parse(&body).unwrap();
        assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(health.get("default_model").unwrap().as_str(), Some("LR"));

        let (status, body) = client
            .request(
                "POST",
                "/predict",
                Some(r#"{"texts":["i feel so alone lately","my job exhausts me"]}"#),
            )
            .unwrap();
        assert_eq!(status, 200, "{body}");
        let predict = JsonValue::parse(&body).unwrap();
        let results = predict.get("results").unwrap().as_array().unwrap();
        assert_eq!(results.len(), 2);
        for result in results {
            let probabilities = result.get("probabilities").unwrap().as_array().unwrap();
            assert_eq!(probabilities.len(), 6);
            let total: f64 = probabilities.iter().map(|p| p.as_f64().unwrap()).sum();
            assert!((total - 1.0).abs() < 1e-9);
            assert!(result.get("label").unwrap().as_str().is_some());
        }

        let (status, body) = client
            .request(
                "POST",
                "/explain",
                Some(r#"{"text":"i feel alone and isolated every day","top_k":3}"#),
            )
            .unwrap();
        assert_eq!(status, 200, "{body}");
        let explain = JsonValue::parse(&body).unwrap();
        assert!(explain.get("tokens").unwrap().as_array().unwrap().len() <= 3);

        let (status, body) = client.request("GET", "/metrics", None).unwrap();
        assert_eq!(status, 200);
        let metrics = JsonValue::parse(&body).unwrap();
        let requests = metrics.get("requests").unwrap();
        assert_eq!(requests.get("predict").unwrap().as_f64(), Some(1.0));
        assert_eq!(requests.get("explain").unwrap().as_f64(), Some(1.0));
        assert!(metrics.get("texts_scored").unwrap().as_f64().unwrap() >= 2.0);
        // The per-kind queue section exists for the one registered scorer.
        let queues = metrics.get("queues").unwrap();
        let lr = queues.get("LR").unwrap();
        assert_eq!(lr.get("depth").unwrap().as_f64(), Some(0.0));
        assert!(lr.get("texts_scored").unwrap().as_f64().unwrap() >= 2.0);

        server.shutdown();
    }

    #[test]
    fn keep_alive_connection_serves_multiple_requests() {
        let server = tiny_server();
        let addr = server.addr();

        let mut client = HttpClient::connect(addr).expect("connect");
        for round in 0..3 {
            let (status, body) = client.request("GET", "/healthz", None).unwrap();
            assert_eq!(status, 200, "round {round}: {body}");
        }
        let (status, body) = client
            .request("POST", "/predict", Some(r#"{"text":"i feel alone"}"#))
            .unwrap();
        assert_eq!(status, 200, "{body}");
        drop(client);

        // 4 requests over one connection: 3 of them reused it.
        assert_eq!(server.metrics().keepalive_reuses_total(), 3);
        server.shutdown();
    }

    #[test]
    fn server_honors_connection_close_and_request_cap() {
        let server = keep_alive_server(KeepAliveConfig {
            max_requests: 2,
            idle_timeout: Duration::from_secs(5),
        });
        let addr = server.addr();

        // A client that sends Connection: close gets a response announcing
        // the close, cannot send again, and the server lets the socket go.
        let mut client = HttpClient::connect(addr).expect("connect");
        let close = [("Connection", "close")];
        let (status, _, headers) = client
            .request_full("GET", "/healthz", None, &close)
            .unwrap();
        assert_eq!(status, 200);
        let connection = headers
            .iter()
            .find(|(name, _)| name.eq_ignore_ascii_case("connection"));
        assert_eq!(connection.map(|(_, value)| value.as_str()), Some("close"));
        let err = client.request("GET", "/healthz", None).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::NotConnected, "{err}");
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.metrics().connections().open() > 0 {
            assert!(
                Instant::now() < deadline,
                "the closed connection stayed open"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        drop(client);

        // A keep-alive client is cut off after max_requests: the 2nd response
        // announces Connection: close, so the 3rd request fails client-side.
        let mut client = HttpClient::connect(addr).expect("connect");
        assert_eq!(client.request("GET", "/healthz", None).unwrap().0, 200);
        assert_eq!(client.request("GET", "/healthz", None).unwrap().0, 200);
        let err = client.request("GET", "/healthz", None).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::NotConnected, "{err}");
        drop(client);

        assert_eq!(server.metrics().keepalive_reuses_total(), 1);
        server.shutdown();
    }

    #[test]
    fn idle_connections_are_closed_after_the_timeout() {
        let server = keep_alive_server(KeepAliveConfig {
            max_requests: 100,
            idle_timeout: Duration::from_millis(300),
        });
        let metrics = server.metrics();

        // Activity postpones the deadline: a request every 50 ms for 1 s
        // keeps the connection, and nothing is evicted early.
        let mut client = HttpClient::connect(server.addr()).expect("connect");
        let busy_until = Instant::now() + Duration::from_secs(1);
        while Instant::now() < busy_until {
            assert_eq!(client.request("GET", "/healthz", None).unwrap().0, 200);
            std::thread::sleep(Duration::from_millis(50));
        }
        assert_eq!(metrics.connections().idle_evictions_total(), 0);

        // Once the client goes quiet, the server evicts the connection and
        // counts it.
        let deadline = Instant::now() + Duration::from_secs(10);
        while metrics.connections().idle_evictions_total() == 0 {
            assert!(Instant::now() < deadline, "the idle connection stayed open");
            std::thread::sleep(Duration::from_millis(10));
        }
        // The server closed, so the next round trip fails (broken pipe on
        // write or EOF on read).
        assert!(client.request("GET", "/healthz", None).is_err());
        drop(client);
        assert_eq!(metrics.connections().idle_evictions_total(), 1);
        server.shutdown();
    }

    #[test]
    fn an_idle_timeout_too_large_for_instant_never_evicts() {
        let server = keep_alive_server(KeepAliveConfig {
            max_requests: 100,
            idle_timeout: Duration::MAX,
        });
        let mut client = HttpClient::connect(server.addr()).expect("connect");
        assert_eq!(client.request("GET", "/healthz", None).unwrap().0, 200);
        assert_eq!(client.request("GET", "/healthz", None).unwrap().0, 200);
        drop(client);
        assert_eq!(server.metrics().connections().idle_evictions_total(), 0);
        server.shutdown();
    }

    #[test]
    fn bad_requests_get_4xx_json_errors() {
        let server = tiny_server();
        let mut client = HttpClient::connect(server.addr()).expect("connect");

        let (status, body) = client
            .request("POST", "/predict", Some("not json"))
            .unwrap();
        assert_eq!(status, 400);
        assert!(JsonValue::parse(&body).unwrap().get("error").is_some());

        let (status, _) = client
            .request("POST", "/predict", Some("{\"texts\":[]}"))
            .unwrap();
        assert_eq!(status, 400);

        let unknown_model = r#"{"texts":["x"],"model":"resnet"}"#;
        let (status, body) = client
            .request("POST", "/predict", Some(unknown_model))
            .unwrap();
        assert_eq!(status, 400);
        assert!(body.contains("unknown model"));

        let (status, _) = client.request("GET", "/nowhere", None).unwrap();
        assert_eq!(status, 404);

        let (status, _) = client.request("POST", "/healthz", Some("{}")).unwrap();
        assert_eq!(status, 405);

        // A text with more distinct words than LIME can affordably explain.
        let huge: Vec<String> = (0..600).map(|i| format!("word{i}")).collect();
        let body = format!("{{\"text\":\"{}\"}}", huge.join(" "));
        let (status, body) = client.request("POST", "/explain", Some(&body)).unwrap();
        assert_eq!(status, 413, "{body}");
        assert!(body.contains("distinct words"));

        let snapshot = server.metrics().snapshot();
        let requests = snapshot.get("requests").unwrap();
        let errors = requests.get("errors").unwrap().as_f64().unwrap();
        let total = requests.get("total").unwrap().as_f64().unwrap();
        assert!(errors >= 6.0);
        // Unroutable requests count into the total, so error rates stay ≤ 1.
        assert!(total >= errors, "total {total} < errors {errors}");
        server.shutdown();
    }

    #[test]
    fn reload_validates_body_and_swaps_models() {
        use holistix_corpus::HolistixCorpus;
        let server = tiny_server();
        let addr = server.addr();
        let mut client = HttpClient::connect(addr).expect("connect");

        // Malformed and empty corpora are rejected on the admin thread.
        let (status, body) = client
            .request("POST", "/reload", Some("not jsonl"))
            .unwrap();
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("invalid JSONL"));
        let (status, body) = client.request("POST", "/reload", Some("\n\n")).unwrap();
        assert_eq!(status, 400, "{body}");
        let (status, _) = client.request("GET", "/reload", None).unwrap();
        assert_eq!(status, 405);

        // A valid corpus is accepted and eventually swapped in.
        let corpus = HolistixCorpus::generate_small(60, 17);
        let n_posts = corpus.posts.len() as f64;
        let jsonl = holistix_corpus::io::to_jsonl(&corpus.posts);
        let (status, body) = client.request("POST", "/reload", Some(&jsonl)).unwrap();
        assert_eq!(status, 202, "{body}");
        let accepted = JsonValue::parse(&body).unwrap();
        assert_eq!(accepted.get("posts").unwrap().as_f64(), Some(n_posts));

        let deadline = Instant::now() + Duration::from_secs(30);
        while server.metrics().reloads_total() < 1 {
            assert!(Instant::now() < deadline, "reload did not complete");
            std::thread::sleep(Duration::from_millis(20));
        }
        // A fresh connection: the held one may have sat idle through the
        // fit past the idle timeout.
        let mut client = HttpClient::connect(addr).expect("reconnect");
        let (status, body) = client.request("GET", "/metrics", None).unwrap();
        assert_eq!(status, 200);
        let metrics = JsonValue::parse(&body).unwrap();
        let registry = metrics.get("registry").unwrap();
        assert_eq!(registry.get("reloads_total").unwrap().as_f64(), Some(1.0));
        assert_eq!(registry.get("corpus_size").unwrap().as_f64(), Some(n_posts));
        assert!(registry.get("last_fit_us").unwrap().as_f64().unwrap() > 0.0);

        // The swapped registry still answers.
        let (status, body) = client
            .request("POST", "/predict", Some(r#"{"text":"i feel alone"}"#))
            .unwrap();
        assert_eq!(status, 200, "{body}");
        server.shutdown();
    }

    #[test]
    fn shutdown_joins_cleanly_and_port_is_released() {
        let server = tiny_server();
        let addr = server.addr();
        let mut client = HttpClient::connect(addr).expect("connect");
        assert_eq!(client.request("GET", "/healthz", None).unwrap().0, 200);
        drop(client);
        server.shutdown();
        // The listener is gone: either the connection is refused or the probe
        // request fails; a fresh bind to the same port must succeed.
        let rebind = TcpListener::bind(addr);
        assert!(rebind.is_ok(), "port not released after shutdown");
    }
}
