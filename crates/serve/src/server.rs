//! The HTTP server: a nonblocking connection multiplexer in front of a small
//! fixed pool of request handlers.
//!
//! Thread model — every count here is configuration, none scale with the
//! number of connected clients:
//!
//! * [`ServeConfig::pollers`] **poller threads** own the connections. Each
//!   runs a readiness loop over `poll(2)` ([`crate::poller`]): it accepts new
//!   sockets (the nonblocking listener is polled by every poller; the kernel
//!   breaks the tie), reads whatever bytes are available into each
//!   connection's incremental parser, dispatches parsed requests to the
//!   handler pool, and writes completed responses back out with partial-write
//!   resumption ([`crate::conn`]). Pollers never block on a socket or a
//!   model, so ten thousand idle keep-alive clients cost two sleeping
//!   threads, not ten thousand.
//! * [`ServeConfig::handlers`] **handler threads** run the routes. They pull
//!   parsed requests off one shared queue, block as needed (`/predict` waits
//!   on the model's batch queue, `/explain` runs LIME), and hand the finished
//!   response back to the owning poller through its completion list + waker.
//! * **one batch-queue thread per registered scorer** ([`crate::batcher`])
//!   coalesces texts across concurrent requests — a slow transformer batch
//!   never delays a classical one.
//!
//! Connections are pipelined: a poller keeps parsing (and dispatching)
//! request `N+1` while `N` is still being scored, and the per-connection
//! reorder buffer guarantees responses go out in request order. Idle
//! connections are evicted by a timer wheel, never by a blocking read
//! timeout; a client that stops draining its responses is evicted by the same
//! wheel once no bytes have moved for the idle timeout.
//!
//! Shutdown: [`ServerHandle::shutdown`] flips the running flag and wakes
//! every poller. Pollers drop their connections and exit; the job channel
//! closes, handlers finish their in-flight requests and exit; their batcher
//! handles drop, and every batch queue drains and exits — the scope then
//! joins everything.

use crate::admission::{Admission, AdmissionConfig};
use crate::batcher::{build_queues, BatchConfig, BatcherHandle, PredictError};
use crate::conn::{Connection, TimerWheel};
use crate::http::{Request, Response};
use crate::metrics::{build_info, Endpoint, ServeMetrics, ShedReason};
use crate::obs::{RequestTrace, TraceStamp};
use crate::poller::{waker_pair, Interest, PollSet, ReadyEvent, WakeReader, Waker};
use crate::registry::{ModelRegistry, SharedRegistry};
use holistix::corpus::WellnessDimension;
use holistix::linalg::argmax;
use holistix::ml::ThreadBudget;
use holistix::Scorer;
use holistix_corpus::json::JsonValue;
use holistix_explain::{LimeConfig, LimeExplainer};
use std::net::{SocketAddr, TcpListener};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
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

/// How long a poller sleeps when no timer is pending. Purely a liveness
/// backstop — wakeups for I/O, completions and shutdown all interrupt it.
const FALLBACK_POLL: Duration = Duration::from_millis(500);

/// Buckets in each poller's idle-timeout wheel.
const WHEEL_BUCKETS: usize = 32;

/// Poll-set token for a poller's own waker pipe.
const TOKEN_WAKER: usize = usize::MAX;

/// Poll-set token for the shared listener.
const TOKEN_LISTENER: usize = usize::MAX - 1;

/// Thread budget for a `/reload` refit: half the machine (at least one), so
/// the background fit leaves cores for the handler pool and the batch queues
/// that are serving live traffic off the old registry.
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
    /// direction) before the timer wheel evicts it. Also bounds how long a
    /// non-draining client can hold buffered responses.
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
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Poller threads. Each owns a share of the connections and multiplexes
    /// them with readiness polling; two is plenty below tens of thousands of
    /// clients, since pollers do no model work.
    pub pollers: usize,
    /// Handler threads: the request-level concurrency ceiling. Handlers run
    /// the routes and may block (batch queues, LIME, reload validation);
    /// connections are *not* pinned to handlers, so a handful serve
    /// thousands of keep-alive clients.
    pub handlers: usize,
    /// Micro-batching knobs, shared by every registered scorer's queue.
    pub batch: BatchConfig,
    /// Connection keep-alive policy.
    pub keep_alive: KeepAliveConfig,
    /// LIME defaults for `/explain` (per-request `top_k` / `n_samples`
    /// overrides apply on top; `batch_size` controls how perturbation sets
    /// chunk through the batched scoring path).
    pub lime: LimeConfig,
    /// Admission control: per-kind queue caps, the global intake valve,
    /// `/explain` shedding and per-client rate limiting. The defaults are
    /// permissive (see [`AdmissionConfig`]).
    pub admission: AdmissionConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            pollers: 2,
            handlers: 8,
            batch: BatchConfig::default(),
            keep_alive: KeepAliveConfig::default(),
            lime: LimeConfig::default(),
            admission: AdmissionConfig::default(),
        }
    }
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
    let registry = SharedRegistry::new(registry);
    let mut wakers = Vec::new();
    let mut readers = Vec::new();
    for _ in 0..config.pollers.max(1) {
        let (waker, reader) = waker_pair()?;
        wakers.push(waker);
        readers.push(reader);
    }
    let thread = {
        let running = Arc::clone(&running);
        let metrics = Arc::clone(&metrics);
        let wakers = wakers.clone();
        std::thread::spawn(move || {
            serve_loop(
                listener, registry, config, running, metrics, readers, wakers,
            )
        })
    };
    Ok(ServerHandle {
        addr: local_addr,
        running,
        metrics,
        wakers,
        thread: Some(thread),
    })
}

/// A parsed request on its way from a poller to the handler pool, carrying
/// the trace minted at parse completion.
struct HandlerJob {
    poller: usize,
    slot: usize,
    generation: u64,
    seq: u64,
    request: Request,
    trace: RequestTrace,
}

/// A finished response on its way back to the owning poller, with the trace
/// the handler stamped along the way (the poller stamps the final
/// last-byte-written boundary and finalizes it).
struct Completion {
    slot: usize,
    generation: u64,
    seq: u64,
    response: Response,
    trace: RequestTrace,
}

/// The handler-facing side of one poller: where completions are pushed, and
/// the waker that tells the poller to collect them.
struct PollerShared {
    completions: Mutex<Vec<Completion>>,
    waker: Waker,
}

/// Everything a handler needs to answer requests.
struct RequestContext<'a> {
    registry: &'a SharedRegistry,
    batcher: BatcherHandle,
    lime: &'a LimeConfig,
    metrics: &'a Arc<ServeMetrics>,
    reloading: &'a Arc<AtomicBool>,
    admission: &'a Admission,
}

fn serve_loop(
    listener: TcpListener,
    registry: SharedRegistry,
    config: ServeConfig,
    running: Arc<AtomicBool>,
    metrics: Arc<ServeMetrics>,
    readers: Vec<WakeReader>,
    wakers: Vec<Waker>,
) {
    let reloading = Arc::new(AtomicBool::new(false));
    let admission = Admission::new(config.admission.clone(), Arc::clone(&metrics));
    // One batch queue per scorer registered at startup. `/reload` refits keep
    // the kind set, so the queue set never needs to change at runtime.
    let (batcher, queues) = build_queues(
        &registry,
        &config.batch,
        &metrics,
        config.admission.max_queue_depth,
    );
    let n_handlers = config.handlers.max(1);
    metrics.set_thread_plan(readers.len(), n_handlers, queues.len());

    let (job_sender, job_receiver) = mpsc::channel::<HandlerJob>();
    let job_receiver = Mutex::new(job_receiver);
    let poller_shared: Vec<Arc<PollerShared>> = wakers
        .iter()
        .map(|waker| {
            Arc::new(PollerShared {
                completions: Mutex::new(Vec::new()),
                waker: waker.clone(),
            })
        })
        .collect();

    let registry = &registry;
    let keep_alive = &config.keep_alive;
    let lime_config = &config.lime;
    let admission = &admission;
    let metrics = &metrics;
    let reloading = &reloading;
    let running = &running;
    let listener = &listener;
    let job_receiver = &job_receiver;
    let poller_shared = &poller_shared;

    crossbeam::thread::scope(|scope| {
        for queue in queues {
            scope.spawn(move |_| queue.run(registry));
        }

        for _ in 0..n_handlers {
            let batcher = batcher.clone();
            scope.spawn(move |_| {
                let context = RequestContext {
                    registry,
                    batcher,
                    lime: lime_config,
                    metrics,
                    reloading,
                    admission,
                };
                handler_loop(&context, job_receiver, poller_shared);
            });
        }
        // The handlers hold clones; drop the original so the handlers' exit
        // is what disconnects the batch queues.
        drop(batcher);

        for (index, reader) in readers.into_iter().enumerate() {
            let job_sender = job_sender.clone();
            let shared = Arc::clone(&poller_shared[index]);
            scope.spawn(move |_| {
                Poller::new(
                    index, reader, shared, listener, job_sender, running, keep_alive, metrics,
                    admission,
                )
                .run();
            });
        }
        // The pollers hold clones; when the last poller exits, the job
        // channel disconnects and the handlers drain out.
        drop(job_sender);
    })
    .expect("server thread scope failed");
}

/// Pop parsed requests, run the route, push the response back to the owning
/// poller. Exits when every poller (job sender) is gone.
fn handler_loop(
    context: &RequestContext<'_>,
    receiver: &Mutex<mpsc::Receiver<HandlerJob>>,
    pollers: &[Arc<PollerShared>],
) {
    loop {
        // Take the lock only to pop; handling runs unlocked so the rest of
        // the pool keeps draining jobs.
        // lint:allow(guard-across-send): intentional — mpsc::Receiver is not
        // Sync, so handlers take turns blocking in `recv` under this mutex;
        // the guard is a temporary that dies at the statement's `;`, and no
        // other lock or work is ever taken while it is held.
        let job = { receiver.lock().unwrap().recv() };
        let Ok(mut job) = job else { break };
        job.trace.stamp(TraceStamp::HandlerStart);
        let response = route(&job.request, context, &mut job.trace);
        if response.status >= 400 {
            context.metrics.record_error();
        }
        job.trace.stamp(TraceStamp::ResponseQueued);
        let shared = &pollers[job.poller];
        shared.completions.lock().unwrap().push(Completion {
            slot: job.slot,
            generation: job.generation,
            seq: job.seq,
            response,
            trace: job.trace,
        });
        shared.waker.wake();
    }
}

/// One poller thread: a readiness loop over its share of the connections,
/// the shared listener, and its waker pipe.
struct Poller<'a> {
    index: usize,
    reader: WakeReader,
    shared: Arc<PollerShared>,
    listener: &'a TcpListener,
    job_sender: mpsc::Sender<HandlerJob>,
    running: &'a AtomicBool,
    keep_alive: &'a KeepAliveConfig,
    metrics: &'a Arc<ServeMetrics>,
    admission: &'a Admission,
    conns: Vec<Option<Connection>>,
    free: Vec<usize>,
    next_generation: u64,
    wheel: TimerWheel,
    granularity: Duration,
    set: PollSet,
}

impl<'a> Poller<'a> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        index: usize,
        reader: WakeReader,
        shared: Arc<PollerShared>,
        listener: &'a TcpListener,
        job_sender: mpsc::Sender<HandlerJob>,
        running: &'a AtomicBool,
        keep_alive: &'a KeepAliveConfig,
        metrics: &'a Arc<ServeMetrics>,
        admission: &'a Admission,
    ) -> Self {
        // Wheel granularity: fine enough that evictions land near the
        // deadline, coarse enough that an idle server barely ticks.
        let granularity =
            (keep_alive.idle_timeout / 8).clamp(Duration::from_millis(10), Duration::from_secs(1));
        Self {
            index,
            reader,
            shared,
            listener,
            job_sender,
            running,
            keep_alive,
            metrics,
            admission,
            conns: Vec::new(),
            free: Vec::new(),
            next_generation: 0,
            wheel: TimerWheel::new(granularity, WHEEL_BUCKETS, Instant::now()),
            granularity,
            set: PollSet::new(),
        }
    }

    fn run(mut self) {
        let idle_timeout = self.keep_alive.idle_timeout.max(Duration::from_millis(1));
        while self.running.load(Ordering::SeqCst) {
            self.build_set();
            let now = Instant::now();
            let timeout = self
                .wheel
                .next_timeout(now)
                .unwrap_or(FALLBACK_POLL)
                .min(FALLBACK_POLL);
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
                self.metrics.connections().record_wakeup();
            }

            let events: Vec<ReadyEvent> = self.set.ready().collect();
            let mut touched: Vec<usize> = Vec::new();
            for event in &events {
                if event.token == TOKEN_WAKER {
                    self.reader.drain();
                } else if event.token == TOKEN_LISTENER {
                    self.accept_new(now, idle_timeout, &mut touched);
                }
            }
            for event in &events {
                if event.token >= TOKEN_LISTENER || !event.readable {
                    continue;
                }
                let slot = event.token;
                if let Some(conn) = self.conns[slot].as_mut() {
                    if conn.on_readable(now).is_err() {
                        self.close(slot);
                        continue;
                    }
                }
                touched.push(slot);
            }
            for event in &events {
                if event.token < TOKEN_LISTENER && event.writable && !event.readable {
                    touched.push(event.token);
                }
            }

            // Collect completions every round, not only on waker events: the
            // wake and the push are not atomic together, and a spurious
            // collection is one cheap lock.
            let completed: Vec<Completion> =
                std::mem::take(&mut self.shared.completions.lock().unwrap());
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
            self.expire_timers(now, idle_timeout);
        }
        // Shutdown: drop every connection (close the sockets, settle the
        // open-connection gauge).
        for slot in 0..self.conns.len() {
            self.close(slot);
        }
    }

    /// Rebuild the poll set from the live connection table. O(connections)
    /// per wait, but a single FFI call and trivially correct under churn — a
    /// closed fd is simply never submitted again.
    fn build_set(&mut self) {
        // The global intake valve: while aggregate queue depth is at or past
        // the configured limit, this poller neither accepts nor reads — the
        // same withdraw-read-interest mechanism the per-connection pipelining
        // cap uses, applied to every socket at once. The endpoint of unread
        // bytes is unknowable, so the gate is total (a `/metrics` scrape
        // waits too; in-process readers use `ServerHandle::metrics`).
        // Reopening is detected on the next build: completions draining the
        // queues wake the poller, and `FALLBACK_POLL` bounds the worst case.
        let intake_open = self.admission.intake_open();
        self.set.clear();
        self.set.push(self.reader.fd(), Interest::READ, TOKEN_WAKER);
        if intake_open {
            self.set
                .push(self.listener.as_raw_fd(), Interest::READ, TOKEN_LISTENER);
        }
        for (slot, conn) in self.conns.iter().enumerate() {
            if let Some(conn) = conn {
                // A connection at the pipelining cap (or past its final
                // request) withdraws read interest: backpressure lands in the
                // kernel's receive buffer. Hangups still surface — poll
                // reports them regardless of the requested events.
                let interest = Interest {
                    read: intake_open && conn.wants_read(),
                    write: conn.wants_write(),
                };
                self.set.push(conn.fd(), interest, slot);
            }
        }
    }

    /// Drain the listener's accept queue. Every poller races on the same
    /// listener; losers see `WouldBlock` immediately.
    fn accept_new(&mut self, now: Instant, idle_timeout: Duration, touched: &mut Vec<usize>) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    self.next_generation += 1;
                    let generation = self.next_generation;
                    let bucket = self.admission.new_bucket(now);
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
                    self.metrics.connections().record_accepted();
                    self.wheel.schedule(now + idle_timeout, slot, generation);
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
    /// dispatch new requests, serialize completed responses in order, flush,
    /// and close if the session is over.
    fn pump(&mut self, slot: usize, now: Instant) {
        let mut broken = false;
        {
            let Some(conn) = self.conns[slot].as_mut() else {
                return;
            };
            let generation = conn.generation;
            let requests = conn.take_requests(
                now,
                self.keep_alive.max_requests,
                self.metrics,
                self.admission,
            );
            for (seq, request, trace) in requests {
                let job = HandlerJob {
                    poller: self.index,
                    slot,
                    generation,
                    seq,
                    request,
                    trace,
                };
                if self.job_sender.send(job).is_err() {
                    // Shutting down: the response will never come, and the
                    // poller is about to drop the connection anyway.
                    break;
                }
            }
            let conn = self.conns[slot].as_mut().expect("connection still live");
            conn.serialize_ready(self.running.load(Ordering::SeqCst));
            if conn.wants_write() {
                broken = conn.on_writable(now, self.metrics).is_err();
            }
        }
        if broken
            || self.conns[slot]
                .as_ref()
                .is_some_and(|conn| conn.should_close())
        {
            self.close(slot);
        }
    }

    /// Fire due timers with lazy revalidation: evict only connections that
    /// are genuinely idle (or wedged mid-write) past the timeout; reschedule
    /// everything else for its remaining lifetime.
    fn expire_timers(&mut self, now: Instant, idle_timeout: Duration) {
        for (slot, generation) in self.wheel.expire(now) {
            let Some(conn) = self.conns[slot].as_ref() else {
                continue;
            };
            if conn.generation != generation {
                continue; // the slot was reused; the old connection is gone
            }
            let idle_for = now.duration_since(conn.last_activity);
            // `wants_write` past the timeout means the client stopped
            // draining its responses — evict it just like an idle one. A
            // connection merely waiting on a slow model batch has in-flight
            // work and no stuck output, so it is rescheduled, not evicted.
            if idle_for >= idle_timeout && (conn.is_idle() || conn.wants_write()) {
                self.metrics.connections().record_idle_eviction();
                self.close(slot);
            } else {
                let deadline = (conn.last_activity + idle_timeout).max(now + self.granularity);
                self.wheel.schedule(deadline, slot, generation);
            }
        }
    }

    /// Drop the connection in `slot` (closing its socket) and recycle the
    /// slot.
    fn close(&mut self, slot: usize) {
        if self.conns[slot].take().is_some() {
            self.free.push(slot);
            self.metrics.connections().record_closed();
        }
    }
}

fn route(request: &Request, context: &RequestContext<'_>, trace: &mut RequestTrace) -> Response {
    let endpoint = Endpoint::resolve(&request.method, &request.path);
    trace.endpoint = endpoint.name();
    context.metrics.record_request(endpoint);
    match endpoint {
        Endpoint::Health => handle_healthz(context),
        Endpoint::Metrics => {
            // Content negotiation: Prometheus text when asked for via
            // `?format=prometheus` or an `Accept` admitting text/plain; the
            // JSON document otherwise.
            if request.query_param("format") == Some("prometheus")
                || request.accept.to_ascii_lowercase().contains("text/plain")
            {
                Response::text(200, context.metrics.render_prometheus())
            } else {
                Response::ok(context.metrics.snapshot().to_string())
            }
        }
        Endpoint::DebugSlow => {
            Response::ok(context.metrics.obs().slow_traces().to_json().to_string())
        }
        Endpoint::Predict => handle_predict(request, context, trace),
        Endpoint::Explain => handle_explain(request, context, trace),
        Endpoint::Reload => handle_reload(&request.body, context),
        Endpoint::Other => match request.path.as_str() {
            "/healthz" | "/metrics" | "/predict" | "/explain" | "/reload" | "/debug/slow" => {
                Response::error(405, "method not allowed")
            }
            _ => Response::error(404, "no such endpoint"),
        },
    }
}

/// Inline the trace's stage breakdown into a response body when the client
/// opted in with `?trace=1`: the body's top-level object gains a `trace`
/// section with the id and the stages stamped so far (the write stage is
/// still ahead — it can only appear in `/debug/slow`).
fn inline_trace(request: &Request, trace: &RequestTrace, fields: &mut Vec<(&str, JsonValue)>) {
    if request.query_param("trace") != Some("1") {
        return;
    }
    fields.push((
        "trace",
        JsonValue::object(vec![
            ("trace_id", JsonValue::string(trace.id_hex())),
            ("stages", trace.stages_json()),
        ]),
    ));
}

fn handle_healthz(context: &RequestContext<'_>) -> Response {
    let registry = context.registry.current();
    let models = registry
        .kinds()
        .iter()
        .map(|k| JsonValue::string(k.name()))
        .collect();
    let (version, git) = build_info();
    Response::ok(
        JsonValue::object(vec![
            ("status", JsonValue::string("ok")),
            ("models", JsonValue::Array(models)),
            (
                "default_model",
                JsonValue::string(registry.default_kind().name()),
            ),
            (
                "reloading",
                JsonValue::Bool(context.reloading.load(Ordering::SeqCst)),
            ),
            (
                "open_connections",
                JsonValue::Number(context.metrics.connections().open() as f64),
            ),
            (
                "uptime_s",
                JsonValue::Number(context.metrics.uptime().as_secs_f64()),
            ),
            (
                "build",
                JsonValue::object(vec![
                    ("version", JsonValue::string(version)),
                    ("git", JsonValue::string(git)),
                ]),
            ),
        ])
        .to_string(),
    )
}

/// `POST /predict`: `{"texts": ["…", …]}` (or `{"text": "…"}`), optional
/// `"model"`. Every text goes through its model's batch queue, so concurrent
/// requests for the same kind share scoring batches — and requests for
/// different kinds never wait on each other. Stamps the trace's enqueue /
/// batch-drain / scored boundaries; `?trace=1` inlines the breakdown.
fn handle_predict(
    request: &Request,
    context: &RequestContext<'_>,
    trace: &mut RequestTrace,
) -> Response {
    let document = match JsonValue::parse(&request.body) {
        Ok(v) => v,
        Err(e) => return Response::error(400, &format!("invalid JSON body: {e}")),
    };
    let texts: Vec<String> = if let Some(array) = document.get("texts").and_then(|v| v.as_array()) {
        let mut texts = Vec::with_capacity(array.len());
        for item in array {
            match item.as_str() {
                Some(s) => texts.push(s.to_string()),
                None => return Response::error(400, "`texts` must be an array of strings"),
            }
        }
        texts
    } else if let Some(text) = document.get("text").and_then(|v| v.as_str()) {
        vec![text.to_string()]
    } else {
        return Response::error(400, "body needs a `texts` array or a `text` string");
    };
    if texts.is_empty() {
        return Response::error(400, "no texts to score");
    }
    if texts.len() > MAX_TEXTS_PER_REQUEST {
        return Response::error(
            413,
            &format!("at most {MAX_TEXTS_PER_REQUEST} texts per request"),
        );
    }

    let model_name = document.get("model").and_then(|v| v.as_str());
    let (kind, _model) = match context.registry.current().resolve(model_name) {
        Ok(resolved) => resolved,
        Err(e) => return Response::error(400, &e),
    };
    trace.kind = Some(kind.name());

    trace.stamp(TraceStamp::QueueEnqueue);
    let (rows, timing) = match context.batcher.predict_many(kind, texts) {
        Ok(scored) => scored,
        // 429 = healthy but full (retry after the hint); 503 = the model or
        // server is unavailable (the reload/shutdown path); 500 = broke.
        Err(e @ PredictError::QueueFull { .. }) => {
            context
                .metrics
                .record_shed(Endpoint::Predict, ShedReason::QueueFull);
            return Response::too_many(&e.to_string(), context.admission.retry_after_secs());
        }
        Err(e @ (PredictError::NotLoaded(_) | PredictError::Shutdown)) => {
            return Response::error(503, &e.to_string())
        }
        Err(e @ PredictError::Failed) => return Response::error(500, &e.to_string()),
    };
    if let Some(timing) = timing {
        trace.stamp_at(TraceStamp::BatchDrain, timing.drained);
        trace.stamp_at(TraceStamp::Scored, timing.scored);
    }

    let results: Vec<JsonValue> = rows
        .into_iter()
        .map(|row| {
            let label_index = argmax(&row).unwrap_or(0);
            JsonValue::object(vec![
                (
                    "probabilities",
                    JsonValue::Array(row.iter().map(|&p| JsonValue::Number(p)).collect()),
                ),
                (
                    "label",
                    JsonValue::string(WellnessDimension::from_index(label_index).code()),
                ),
                ("label_index", JsonValue::Number(label_index as f64)),
            ])
        })
        .collect();
    let mut fields = vec![
        ("model", JsonValue::string(kind.name())),
        ("results", JsonValue::Array(results)),
    ];
    inline_trace(request, trace, &mut fields);
    Response::ok(JsonValue::object(fields).to_string())
}

/// `POST /explain`: `{"text": "…"}`, optional `"model"`, `"top_k"`,
/// `"n_samples"`. Runs LIME against the warm scorer (any backend — the
/// explainer sees only `dyn Scorer`); the perturbation set is scored through
/// the batched `predict_proba` path in [`LimeConfig::batch_size`] chunks.
/// The LIME run is the `score` stage of the request's trace (it bypasses the
/// batch queues, so there are no enqueue/drain boundaries).
fn handle_explain(
    request: &Request,
    context: &RequestContext<'_>,
    trace: &mut RequestTrace,
) -> Response {
    // Graceful degradation: an explanation costs hundreds of LIME scoring
    // calls, so it is the first thing to go under queue pressure — checked
    // before even parsing the body, while `/predict` keeps serving until its
    // own (higher) per-kind cap.
    if context.admission.should_shed_explain() {
        context
            .metrics
            .record_shed(Endpoint::Explain, ShedReason::Degraded);
        return Response::too_many(
            "explanations are shed under load; retry later",
            context.admission.retry_after_secs(),
        );
    }
    let document = match JsonValue::parse(&request.body) {
        Ok(v) => v,
        Err(e) => return Response::error(400, &format!("invalid JSON body: {e}")),
    };
    let text = match document.get("text").and_then(|v| v.as_str()) {
        Some(t) => t,
        None => return Response::error(400, "body needs a `text` string"),
    };
    // LIME's cost is driven by the number of interpretable features (distinct
    // word types), not bytes: cap it before the surrogate solve, counting
    // exactly what the explainer will solve over.
    let distinct_words = holistix_explain::interpretable_features(text).len();
    if distinct_words > MAX_EXPLAIN_FEATURES {
        return Response::error(
            413,
            &format!(
                "text has {distinct_words} distinct words; /explain accepts at most {MAX_EXPLAIN_FEATURES}"
            ),
        );
    }
    // Pin the scorer Arc now: if a reload swaps the registry mid-explanation,
    // this request still finishes on the model it started with.
    let (kind, model) = match context
        .registry
        .current()
        .resolve(document.get("model").and_then(|v| v.as_str()))
    {
        Ok(resolved) => resolved,
        Err(e) => return Response::error(400, &e),
    };
    trace.kind = Some(kind.name());

    let mut lime = context.lime.clone();
    if let Some(n_samples) = document.get("n_samples").and_then(|v| v.as_usize()) {
        lime.n_samples = n_samples.clamp(10, 2000);
    }
    if let Some(top_k) = document.get("top_k").and_then(|v| v.as_usize()) {
        lime.top_k = top_k.clamp(1, 50);
    }
    let top_k = lime.top_k;
    let model: &dyn Scorer = &*model;
    let explanation = LimeExplainer::new(lime).explain(model, text, None);
    trace.stamp(TraceStamp::Scored);

    let tokens: Vec<JsonValue> = explanation
        .token_weights
        .iter()
        .take(top_k)
        .map(|(token, weight)| {
            JsonValue::object(vec![
                ("token", JsonValue::string(token.clone())),
                ("weight", JsonValue::Number(*weight)),
            ])
        })
        .collect();
    let mut fields = vec![
        ("model", JsonValue::string(kind.name())),
        (
            "label",
            JsonValue::string(WellnessDimension::from_index(explanation.target_class).code()),
        ),
        (
            "target_class",
            JsonValue::Number(explanation.target_class as f64),
        ),
        (
            "target_probability",
            JsonValue::Number(explanation.target_probability),
        ),
        ("tokens", JsonValue::Array(tokens)),
    ];
    inline_trace(request, trace, &mut fields);
    Response::ok(JsonValue::object(fields).to_string())
}

/// `POST /reload`: the body is a JSONL corpus in the `corpus::io` schema. The
/// handler thread only parses and validates; the fit of the fresh registry
/// runs on its own dedicated thread — never on an HTTP handler or a batch
/// queue — and the new registry is atomically swapped in when ready, so
/// `/predict` keeps answering (from the old models) for the whole duration.
/// Responds `202` with the accepted post count, `400` on a malformed or empty
/// corpus, `409` if a reload is already in flight. Completion is observable
/// in `GET /metrics` (`registry.reloads_total`, `registry.corpus_size`) and
/// `GET /healthz` (`reloading`).
fn handle_reload(body: &str, context: &RequestContext<'_>) -> Response {
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
    if context.reloading.swap(true, Ordering::SeqCst) {
        return Response::error(409, "a reload is already in progress");
    }
    let n_posts = posts.len();
    let shared = context.registry.clone();
    let metrics = Arc::clone(context.metrics);
    let reloading = Arc::clone(context.reloading);
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
        // Half the machine: the fit must not starve the handler pool and the
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{http_request, HttpClient};
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
            handlers: 4,
            batch: BatchConfig { max_batch: 8 },
            lime: LimeConfig {
                n_samples: 40,
                ..LimeConfig::default()
            },
            ..ServeConfig::default()
        };
        serve("127.0.0.1:0", registry, config).expect("bind loopback")
    }

    #[test]
    fn healthz_predict_explain_and_metrics_round_trip() {
        let server = tiny_server();
        let addr = server.addr();

        let (status, body) = http_request(addr, "GET", "/healthz", None).unwrap();
        assert_eq!(status, 200, "{body}");
        let health = JsonValue::parse(&body).unwrap();
        assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(health.get("default_model").unwrap().as_str(), Some("LR"));

        let (status, body) = http_request(
            addr,
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

        let (status, body) = http_request(
            addr,
            "POST",
            "/explain",
            Some(r#"{"text":"i feel alone and isolated every day","top_k":3}"#),
        )
        .unwrap();
        assert_eq!(status, 200, "{body}");
        let explain = JsonValue::parse(&body).unwrap();
        assert!(explain.get("tokens").unwrap().as_array().unwrap().len() <= 3);

        let (status, body) = http_request(addr, "GET", "/metrics", None).unwrap();
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
        let registry = ModelRegistry::fit_synthetic(&RegistryConfig {
            kinds: vec![BaselineKind::LogisticRegression],
            profile: SpeedProfile::Tiny,
            training_posts: 90,
            seed: 3,
        });
        let config = ServeConfig {
            handlers: 2,
            keep_alive: KeepAliveConfig {
                max_requests: 2,
                idle_timeout: Duration::from_secs(5),
            },
            ..ServeConfig::default()
        };
        let server = serve("127.0.0.1:0", registry, config).expect("bind loopback");
        let addr = server.addr();

        // The one-shot client sends Connection: close; the server must not
        // hold the socket open afterwards (http_request reads to completion).
        let (status, _) = http_request(addr, "GET", "/healthz", None).unwrap();
        assert_eq!(status, 200);

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
        let registry = ModelRegistry::fit_synthetic(&RegistryConfig {
            kinds: vec![BaselineKind::LogisticRegression],
            profile: SpeedProfile::Tiny,
            training_posts: 90,
            seed: 3,
        });
        let config = ServeConfig {
            handlers: 2,
            keep_alive: KeepAliveConfig {
                max_requests: 100,
                idle_timeout: Duration::from_millis(100),
            },
            ..ServeConfig::default()
        };
        let server = serve("127.0.0.1:0", registry, config).expect("bind loopback");
        let addr = server.addr();

        let mut client = HttpClient::connect(addr).expect("connect");
        assert_eq!(client.request("GET", "/healthz", None).unwrap().0, 200);
        // Sit idle past the timeout; the server closes, so the next round
        // trip fails (broken pipe on write or EOF on read).
        std::thread::sleep(Duration::from_millis(400));
        assert!(client.request("GET", "/healthz", None).is_err());
        drop(client);
        // The eviction is visible in the connection counters.
        assert!(server.metrics().connections().idle_evictions_total() >= 1);
        server.shutdown();
    }

    #[test]
    fn bad_requests_get_4xx_json_errors() {
        let server = tiny_server();
        let addr = server.addr();

        let (status, body) = http_request(addr, "POST", "/predict", Some("not json")).unwrap();
        assert_eq!(status, 400);
        assert!(JsonValue::parse(&body).unwrap().get("error").is_some());

        let (status, _) = http_request(addr, "POST", "/predict", Some("{\"texts\":[]}")).unwrap();
        assert_eq!(status, 400);

        let (status, body) = http_request(
            addr,
            "POST",
            "/predict",
            Some(r#"{"texts":["x"],"model":"resnet"}"#),
        )
        .unwrap();
        assert_eq!(status, 400);
        assert!(body.contains("unknown model"));

        let (status, _) = http_request(addr, "GET", "/nowhere", None).unwrap();
        assert_eq!(status, 404);

        let (status, _) = http_request(addr, "POST", "/healthz", Some("{}")).unwrap();
        assert_eq!(status, 405);

        // A text with more distinct words than LIME can affordably explain.
        let huge: Vec<String> = (0..600).map(|i| format!("word{i}")).collect();
        let body = format!("{{\"text\":\"{}\"}}", huge.join(" "));
        let (status, body) = http_request(addr, "POST", "/explain", Some(&body)).unwrap();
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

        // Malformed and empty corpora are rejected on the handler thread.
        let (status, body) = http_request(addr, "POST", "/reload", Some("not jsonl")).unwrap();
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("invalid JSONL"));
        let (status, body) = http_request(addr, "POST", "/reload", Some("\n\n")).unwrap();
        assert_eq!(status, 400, "{body}");
        let (status, _) = http_request(addr, "GET", "/reload", None).unwrap();
        assert_eq!(status, 405);

        // A valid corpus is accepted and eventually swapped in.
        let corpus = HolistixCorpus::generate_small(60, 17);
        let n_posts = corpus.posts.len() as f64;
        let jsonl = holistix_corpus::io::to_jsonl(&corpus.posts);
        let (status, body) = http_request(addr, "POST", "/reload", Some(&jsonl)).unwrap();
        assert_eq!(status, 202, "{body}");
        let accepted = JsonValue::parse(&body).unwrap();
        assert_eq!(accepted.get("posts").unwrap().as_f64(), Some(n_posts));

        let deadline = Instant::now() + Duration::from_secs(30);
        while server.metrics().reloads_total() < 1 {
            assert!(Instant::now() < deadline, "reload did not complete");
            std::thread::sleep(Duration::from_millis(20));
        }
        let (status, body) = http_request(addr, "GET", "/metrics", None).unwrap();
        assert_eq!(status, 200);
        let metrics = JsonValue::parse(&body).unwrap();
        let registry = metrics.get("registry").unwrap();
        assert_eq!(registry.get("reloads_total").unwrap().as_f64(), Some(1.0));
        assert_eq!(registry.get("corpus_size").unwrap().as_f64(), Some(n_posts));
        assert!(registry.get("last_fit_us").unwrap().as_f64().unwrap() > 0.0);

        // The swapped registry still answers.
        let (status, body) =
            http_request(addr, "POST", "/predict", Some(r#"{"text":"i feel alone"}"#)).unwrap();
        assert_eq!(status, 200, "{body}");
        server.shutdown();
    }

    #[test]
    fn shutdown_joins_cleanly_and_port_is_released() {
        let server = tiny_server();
        let addr = server.addr();
        let (status, _) = http_request(addr, "GET", "/healthz", None).unwrap();
        assert_eq!(status, 200);
        server.shutdown();
        // The listener is gone: either the connection is refused or the probe
        // request fails; a fresh bind to the same port must succeed.
        let rebind = TcpListener::bind(addr);
        assert!(rebind.is_ok(), "port not released after shutdown");
    }
}
