//! # holistix-serve
//!
//! Warm-model HTTP serving for the Holistix reproduction: the layer that turns
//! the fitted Table IV baselines into an online prediction service.
//!
//! Hand-rolled HTTP/1.1 over `std::net::TcpListener` (the build is offline,
//! so no tokio/hyper) with **persistent connections**, where **concurrent
//! requests share scoring batches**, per model, without head-of-line
//! blocking across models.
//!
//! ## Architecture
//!
//! Since the connection-multiplexer redesign, no thread count scales with the
//! number of connected clients: 2 pollers + 1 admin thread + one batch queue
//! per scorer serve any number of keep-alive connections. A `/predict`
//! crosses two threads: its poller and its kind's queue.
//!
//! ```text
//!                  ┌────────────────────────────────── server thread ──────┐
//!  clients ───────►│ nonblocking listener ─ accepted by any poller         │
//!  (keep-alive,    │                                                       │
//!   pipelined)     │  poller threads (2, fixed) — poll(2) readiness loop   │
//!                  │  │ per connection (owned by one poller):              │
//!                  │  │   incremental RequestParser ── reorder buffer ──►  │
//!                  │  │   seq-numbered routing         in-order responses, │
//!                  │  │   (≤32 pipelined)              partial-write       │
//!                  │  │   idle deadline                resumption          │
//!                  │  │ answers /healthz, /debug/slow, 404/405 and every   │
//!                  │  │ refusal; admits /predict and /explain              │
//!                  │  │                                                    │
//!                  │  ├─ /metrics, /reload ─► admin thread ─────────┐      │
//!                  │  ▼ per-kind job mpsc (one job per request)            │
//!                  │   ┌─ BatchQueue "LR"   ── when idle, drain ──┐ │      │
//!                  │   │                       what is queued,    │ │      │
//!                  │   ├─ BatchQueue "BERT" ── up to max_batch ───┤ │      │
//!                  │   │      …                texts, no timer    │ │      │
//!                  │   └──────────────┬───────────────────────────┘ │      │
//!                  │                  ▼                             │      │
//!                  │     Arc<dyn Scorer>::probabilities             │      │
//!                  │     (one batched call per queue batch)         │      │
//!                  │                  ▼                             ▼      │
//!                  │   response built ─► owning poller's completions       │
//!                  │                     + waker                           │
//!                  └───────────────────────────────────────────────────────┘
//! ```
//!
//! * **[`poller`]** — the `std`-only readiness layer: a safe wrapper over the
//!   `poll(2)` symbol libc already provides (the build is offline, so no
//!   mio/tokio), plus the `UnixStream`-pair waker the batch queues and the
//!   admin thread use to hand completed responses back to the owning poller.
//! * **[`conn`]** — per-connection state machines: incremental request
//!   framing that resumes from any byte boundary, response write-out with
//!   partial-write resumption, request pipelining with an in-order reorder
//!   buffer, keep-alive accounting, and each connection's idle deadline,
//!   which its poller checks while rebuilding the poll set every round.
//!
//! * **The [`Scorer`](holistix::Scorer) seam** — everything here is written
//!   against `Arc<dyn Scorer>` (batched `probabilities` + `kind`), never a
//!   concrete model type. The classical sparse
//!   pipeline, the transformer analogues
//!   ([`TransformerScorer`](holistix::TransformerScorer)) and any future
//!   backend plug into the registry, the batch queues and `/explain` by
//!   implementing that one trait.
//! * **[`registry`]** — fits scorers at startup (one scoped thread per
//!   [`BaselineKind`](holistix::BaselineKind), each classical fit sharded via
//!   the map-reduce fit of `holistix-ml` across its slice of the machine's
//!   thread budget) and keeps them warm behind `Arc<dyn Scorer>`s;
//!   [`ModelRegistry::from_scorers`](registry::ModelRegistry::from_scorers)
//!   registers heterogeneous or externally trained scorers directly. The
//!   registry itself is immutable;
//!   [`SharedRegistry`] makes it *replaceable* —
//!   `POST /reload` fits a fresh registry from an uploaded JSONL corpus **on
//!   a dedicated thread** (never a poller or a batch queue) and
//!   atomically swaps the `Arc`, so in-flight requests finish on the old
//!   models and `/predict` keeps answering throughout (an integration test
//!   pins this liveness).
//! * **[`batcher`]** — one `BatchQueue` per registered scorer: its own
//!   channel and drain thread. A poller enqueues each request as one job
//!   that owns its reply; the drain thread scores it, builds the response
//!   and pushes it to the owning poller. The drain is work-conserving: it
//!   takes whatever is queued, up to [`BatchConfig::max_batch`] texts, into
//!   one `probabilities` call, so batches grow with load and nothing waits
//!   on a timer. An explain's LIME perturbation set is scored in
//!   `max_batch`-text chunks between predicts. A saturated transformer
//!   queue cannot delay a classical batch, and batched scoring is bit-for-bit
//!   identical to text-at-a-time scoring (integration tests pin both).
//! * **[`http`]** — the minimal HTTP/1.1 subset with keep-alive:
//!   `Content-Length` framing on both sides (a conflicting `Content-Length`
//!   or any `Transfer-Encoding` is a 400), `Connection: close` honored,
//!   per-connection request cap and idle timeout
//!   ([`KeepAliveConfig`]). [`RequestParser`](http::RequestParser) is the
//!   incremental server-side parser the pollers feed byte fragments into;
//!   [`HttpClient`] is the one client: it holds a connection open across any
//!   number of requests, and sends raw bytes for the connection tests. The
//!   tests, the `serve_throughput` bench and the CI smoke drive it.
//! * **[`metrics`]** — request, connection and admission counters, per-kind
//!   queue sections (depth, batch sizes, queue-wait and scoring times), the
//!   thread plan next to the live OS thread count, and end-to-end latency.
//!   The crate-private `family` module renders them for `GET /metrics` as
//!   JSON *and* Prometheus text from one list of metric families.
//! * **[`obs`]** — the observability layer: lock-free log2-bucketed
//!   histograms, per-request traces, the slow-trace ring, and the Prometheus
//!   exposition helpers. See **Observability** below.
//! * **[`admission`]** — the overload-protection layer: per-kind queue-depth
//!   caps, a per-connection token-bucket rate limiter, the global intake
//!   valve, and graceful degradation (`/explain` sheds first). See
//!   **Admission & overload** below.
//!
//! ## Endpoints
//!
//! | Endpoint          | Body                                          | Answer |
//! |-------------------|-----------------------------------------------|--------|
//! | `POST /predict`   | `{"texts": […], "model"?: "LR"}`             | per-text 6-dimension probabilities + label; `?trace=1` adds the stage breakdown |
//! | `POST /explain`   | `{"text": "…", "top_k"?, "n_samples"?}`      | LIME token attributions via the batched perturbation path; `?trace=1` as above |
//! | `POST /reload`    | JSONL corpus (the `corpus::io` schema)        | `202` + post count; fits off-thread, swaps atomically (`409` if already reloading) |
//! | `GET /healthz`    | —                                             | status + loaded models + `reloading` flag + open connections + `uptime_s` + `build` (version, git describe) |
//! | `GET /metrics`    | —                                             | JSON by default; Prometheus text via `Accept: text/plain` or `?format=prometheus` |
//! | `GET /debug/slow` | —                                             | the N slowest completed request traces with per-stage timings |
//!
//! Every response carries an `X-Trace-Id` header.
//!
//! ## Admission & overload
//!
//! A server with bounded threads and bounded queues must decide what happens
//! when offered load exceeds capacity. [`AdmissionConfig`] (on
//! [`ServeConfig`]) configures four nested bounds, all enforced on the
//! pollers before anything is queued — see [`admission`]: the global intake
//! valve (pollers stop reading), a per-connection token bucket, graceful
//! degradation (`/explain` sheds first) and the per-kind queue cap (an
//! all-or-nothing depth reservation). An explain reserves its whole
//! perturbation set (`n_samples + 1` texts, with `n_samples` clamped below
//! the cap), so every bound counts LIME work, and an explain flood sheds
//! instead of starving the other routes.
//!
//! **429 vs 503**: `429 Too Many Requests` always means *healthy but full —
//! retry this same server after `Retry-After` seconds*; `503 Service
//! Unavailable` is reserved for the reload path (model not loaded / shutting
//! down). Shed responses count in `requests.errors` and in the per-endpoint,
//! per-reason `admission.shed` counters (`queue_full`, `rate_limited`,
//! `degraded`); the valve exports its state and the configured limits.
//! Defaults are permissive (caps in the thousands, no rate limit);
//! `tests/integration_admission.rs` pins the overload behaviour
//! deterministically, and the repository benchmark (`holibench`) measures
//! the server under open-loop load from the client side.
//!
//! JSON parsing and serialisation are shared with the corpus crate's
//! [`holistix_corpus::json`] module (hoisted out of its JSONL reader), whose
//! `f64` formatting round-trips bit-for-bit — so probabilities survive the
//! HTTP boundary exactly.
//!
//! ## Observability
//!
//! Every request is traced from parse completion to the last byte written,
//! and every duration lands in a lock-free histogram — nothing on the hot
//! path takes a mutex or allocates per stamp.
//!
//! ```text
//!  trace lifecycle (one request; ── is a stage, │ a stamped boundary):
//!
//!  poller                                batch queue            poller
//!  ──────                                ───────────            ──────
//!  parse done ─► routed ─► enqueued ───► batch drained ─►       response
//!  │ id minted   │ Routed  │ QueueEnqueue │ BatchDrain          serialized,
//!  │ (conn.rs)   │         │              │ rows returned       written out
//!  │             │         │              │ Scored              │ WriteDone
//!  │             │         │              │ response built      │ finalize:
//!  │             │         │              │ ResponseQueued ──►  │ histograms
//!  │             │         │              │                     │ + slow ring
//!  └─ dispatch ──┴ prepare ┴─ queue_wait ─┴─ score ── respond ──┴── write
//! ```
//!
//! **Stage glossary** (each stage ends at its stamp; together they partition
//! the end-to-end latency): `dispatch` = parse completion → routed (about
//! zero on the poller; for `/metrics` and `/reload`, until the admin thread
//! takes the request); `prepare` = body parsing, validation, admission and
//! model resolution on the poller until the job is enqueued; `queue_wait` =
//! batch-queue residency until the drain loop first takes the job; `score`
//! = first drain → the job's last texts scored (for `/explain`, LIME
//! sampling and every chunk, with the waits between them); `respond` =
//! response building on the drain or admin thread (for `/explain`, the
//! surrogate fit too) until the completion is queued back to the poller;
//! `write` = reorder-buffer wait plus socket write-out until the last byte
//! is on the wire. Requests the poller answers itself go from `dispatch`
//! straight to `respond`.
//!
//! **Histogram error bounds**: any reported percentile is within one bucket
//! (6.25%) of the exact nearest-rank value; see [`obs::LogHistogram`].
//!
//! **Metric families**: both `/metrics` formats render one list,
//! `ServeMetrics::families` in `metrics.rs`, where each family names its
//! Prometheus name, help, type and labels next to its JSON location (a dot
//! path such as `queues.{kind}.depth`); that list is the naming table. The
//! renderers in `family.rs` follow these rules:
//!
//! * JSON writes each sample at its location with `{label}` segments filled
//!   in; labels the location does not name (the queues' `scorer_kind`) are
//!   Prometheus-only. Keys keep the family order, and a labeled family with
//!   no samples still renders its parent object (`"stages": {}`).
//! * `requests.total` and `admission.shed_total` are JSON sums of their
//!   family's samples; in Prometheus, `sum()` over the family gives them.
//! * Prometheus omits empty histograms and values that are unknown or not
//!   configured (JSON `null` or absent), and drops a family left with no
//!   samples, so every `# TYPE` line has samples.
//! * The build info is Prometheus-only; JSON readers get it from `/healthz`.
//!
//! ## Threading invariants
//!
//! The crate hand-rolls its event loop and its lock-free metrics, so the
//! invariants that keep them correct are enforced mechanically by
//! `holistix-lint` (`cargo run -p holistix-lint --release -- check`, a
//! required CI gate) rather than by convention:
//!
//! * **Event-loop files never panic** (`no-panic-in-event-loop`). `poller`
//!   and `conn` carry a `//! lint: no_panic` header: a panic there kills a
//!   poller thread and silently orphans every connection it owns while the
//!   rest of the server keeps accepting — a failure mode that presents as
//!   packet loss, worse than a crash. Invariant violations on those paths are
//!   handled as error paths (drop the connection, not the thread).
//! * **Relaxed atomics are justified** (`atomic-ordering-audit`). Monotone
//!   counters (`fetch_add` and friends) are relaxed by design; any `Relaxed`
//!   *store/swap/CAS* — an operation another thread could mistake for a
//!   synchronization edge — carries an `// ordering:` comment stating why no
//!   data is published under it (e.g. the intake gauge in [`metrics`], the
//!   slow-trace floor in [`obs`], the admission depth CAS).
//! * **Unsafe states its contract** (`safety-comment`). The crate's unsafe
//!   surface is one FFI call (`poll(2)` in [`poller`]) and it carries a
//!   `// SAFETY:` comment; any new `unsafe` must too.
//! * **No lock guard held across a blocking call** (`guard-across-send`).
//!   Holding a `Mutex`/`RwLock` guard at a `send`/`recv`/`join`/`sleep` is
//!   the classic contention-only deadlock. Every channel here has one
//!   consumer that owns its receiver, so the crate carries no waiver.
//!
//! A waiver names the rule plus a mandatory reason, inline at the site, so
//! `grep -rn 'lint:allow'` is the complete exception ledger.
//! Best-effort Miri and ThreadSanitizer CI lanes run the serve unit tests
//! when the nightly components are available, backstopping the lexical rules
//! with dynamic checking.
//!
//! ## Quick start
//!
//! ```no_run
//! use holistix_serve::{serve, ModelRegistry, RegistryConfig, ServeConfig};
//!
//! let registry = ModelRegistry::fit_synthetic(&RegistryConfig::default());
//! let server = serve("127.0.0.1:8080", registry, ServeConfig::default()).unwrap();
//! println!("serving on http://{}", server.addr());
//! // … server.shutdown() when done.
//! ```

pub mod admission;
pub mod batcher;
pub mod conn;
mod family;
pub mod http;
pub mod metrics;
pub mod obs;
pub mod poller;
pub mod registry;
pub mod server;

pub use admission::{Admission, AdmissionConfig, RateLimitConfig, TokenBucket};
pub use batcher::{BatchConfig, PredictError};
pub use http::{HttpClient, Request, Response};
pub use metrics::{
    build_info, os_thread_count, AdmissionMetrics, ConnectionMetrics, Endpoint, QueueMetrics,
    ServeMetrics, ShedReason,
};
pub use obs::{validate_exposition, HistogramSnapshot, LogHistogram, RequestTrace, TraceStamp};
pub use registry::{parse_kind, FitStats, ModelRegistry, RegistryConfig, SharedRegistry};
pub use server::{
    serve, KeepAliveConfig, ServeConfig, ServerHandle, MAX_RELOAD_POSTS, MAX_TEXTS_PER_REQUEST,
};
