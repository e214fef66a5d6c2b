//! # holistix-serve
//!
//! Warm-model HTTP serving for the Holistix reproduction: the layer that turns
//! the fitted Table IV baselines into an online prediction service.
//!
//! The ROADMAP's north star is a system that serves heavy traffic, and PR 1
//! built the substrate for that: sparse TF-IDF end to end plus batched
//! parallel scoring. This crate adds the request front end on top —
//! hand-rolled HTTP/1.1 over `std::net::TcpListener` (the build is offline,
//! so no tokio/hyper) with **persistent connections** and the property that
//! made the batched path worth building: **concurrent requests share scoring
//! batches**, per model, without head-of-line blocking across models.
//!
//! ## Architecture
//!
//! Since the connection-multiplexer redesign, no thread count scales with the
//! number of connected clients: P pollers + H handlers + one batch queue per
//! scorer serve any number of keep-alive connections.
//!
//! ```text
//!                  ┌────────────────────────────────── server thread ──────┐
//!  clients ───────►│ nonblocking listener ─ accepted by any poller         │
//!  (keep-alive,    │                                                       │
//!   pipelined)     │  poller threads (P, fixed) — poll(2) readiness loop   │
//!                  │  │ per connection (owned by one poller):              │
//!                  │  │   incremental RequestParser ── reorder buffer ──►  │
//!                  │  │   seq-numbered dispatch        in-order responses, │
//!                  │  │   (≤32 pipelined)              partial-write       │
//!                  │  │   idle-timeout wheel           resumption          │
//!                  │  ▼ job mpsc              ▲ completions + waker        │
//!                  │  handler threads (H, fixed): route ─ respond          │
//!                  │  │ /predict blocks here, never on a poller            │
//!                  │  ▼ per-kind job mpsc                                  │
//!                  │   ┌─ BatchQueue "LR"   ── drain ≤max_batch ──┐        │
//!                  │   │                       or until max_wait  │        │
//!                  │   ├─ BatchQueue "BERT" ── (own window sized ─┤        │
//!                  │   │      …                from cost_hint)    │        │
//!                  │   └──────────────┬───────────────────────────┘        │
//!                  │                  ▼                                    │
//!                  │     Arc<dyn Scorer>::probabilities                    │
//!                  │     (one batched call per queue batch)                │
//!                  │                  ▼                                    │
//!                  │     per-job reply channels ─► handlers ─► pollers     │
//!                  └───────────────────────────────────────────────────────┘
//! ```
//!
//! * **[`poller`]** — the `std`-only readiness layer: a safe wrapper over the
//!   `poll(2)` symbol libc already provides (the build is offline, so no
//!   mio/tokio), plus the `UnixStream`-pair waker handlers use to hand
//!   completed responses back to the owning poller.
//! * **[`conn`]** — per-connection state machines: incremental request
//!   framing that resumes from any byte boundary, response write-out with
//!   partial-write resumption, request pipelining with an in-order reorder
//!   buffer, keep-alive accounting, and the hashed idle-timeout wheel with
//!   lazy revalidation.
//!
//! * **The [`Scorer`](holistix::Scorer) seam** — everything here is written
//!   against `Arc<dyn Scorer>` (batched `probabilities` + `kind` +
//!   `cost_hint`), never a concrete model type. The classical sparse
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
//!   [`SharedRegistry`](registry::SharedRegistry) makes it *replaceable* —
//!   `POST /reload` fits a fresh registry from an uploaded JSONL corpus **on
//!   a dedicated thread** (never an HTTP worker or a batch queue) and
//!   atomically swaps the `Arc`, so in-flight requests finish on the old
//!   models and `/predict` keeps answering throughout (an integration test
//!   pins this liveness).
//! * **[`batcher`]** — one `BatchQueue` per registered
//!   scorer: its own channel, its own drain thread, its own
//!   [`BatchConfig`] window sized from the scorer's `cost_hint`
//!   ([`BatchConfig::sized_for`]). Request workers enqueue texts on their
//!   model's queue and block on per-job reply channels; each drain loop
//!   coalesces up to [`BatchConfig::max_batch`] texts (or whatever arrived
//!   within its window) and scores them with one `probabilities` call. A
//!   saturated transformer queue therefore cannot delay a classical batch —
//!   the isolation an integration test pins with a deliberately slow scorer
//!   stub. Batching is invisible in the answers: batched scoring is
//!   bit-for-bit identical to text-at-a-time scoring, a property the core
//!   pipeline tests pin and the loopback integration test re-asserts over
//!   HTTP.
//! * **[`http`]** — the minimal HTTP/1.1 subset with keep-alive:
//!   `Content-Length` framing on both sides, `Connection: close` honored,
//!   per-connection request cap and idle timeout
//!   ([`KeepAliveConfig`]). [`RequestParser`](http::RequestParser) is the
//!   incremental server-side parser the pollers feed byte fragments into;
//!   [`http_request`] is the one-shot blocking client; [`HttpClient`] holds
//!   one connection open across any number of requests (what the
//!   `serve_throughput` bench and the CI smoke drive).
//! * **[`metrics`]** — request counters, per-kind queue sections (depth,
//!   batch-size histogram, queue-wait and scoring-time percentiles),
//!   `keepalive_reuses_total`, the connection section (open gauge,
//!   accept/close totals, readiness wakeups, pipelined requests, idle
//!   evictions), the configured thread plan next to the live OS thread
//!   count, the cross-queue batch histogram and end-to-end request latency
//!   percentiles. The crate-private `family` module renders them for
//!   `GET /metrics` as JSON *and* Prometheus text from one list of metric
//!   families.
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
//! when offered load exceeds capacity; doing nothing means unbounded queue
//! growth and latency collapse for everyone. [`AdmissionConfig`] (on
//! [`ServeConfig`]) configures four nested bounds, outermost first:
//!
//! 1. **Global intake valve** (`global_intake_limit`) — when the *aggregate*
//!    queued-job count across every batch queue reaches this limit, the
//!    pollers withdraw read interest from the listener and from every
//!    connection (the same mechanism per-connection pipelining already uses),
//!    so overload backpressure propagates into kernel socket buffers and TCP
//!    receive windows instead of server memory. Nothing is rejected — reads
//!    resume as soon as the backlog drains (bounded by the poll fallback
//!    timeout).
//! 2. **Per-connection token bucket** (`rate_limit`:
//!    [`RateLimitConfig`]) — each accepted connection gets its own
//!    [`TokenBucket`] holding at most `burst` tokens, refilled continuously
//!    at `rate_per_s` tokens per second; every parsed request takes one
//!    token or is answered `429` without ever reaching a handler. Keyed on
//!    connection identity: a client that reconnects starts a fresh bucket,
//!    but also pays the connection setup. Off by default (`None`).
//! 3. **Graceful degradation** (`explain_shed_depth`) — `/explain` costs
//!    hundreds of batched scoring calls per request, so it is shed *first*:
//!    once aggregate depth reaches this (lower) threshold, `/explain`
//!    answers `429` while `/predict` keeps serving until its own per-kind
//!    cap. An integration test pins the ordering.
//! 4. **Per-kind queue cap** (`max_queue_depth`) — each `BatchQueue` admits
//!    a request's texts all-or-nothing via a compare-and-swap reservation on
//!    its depth gauge; a request that would push the queue past the cap is
//!    rejected `429` with nothing enqueued, and a full transformer queue
//!    cannot make the classical queue reject (per-kind isolation).
//!
//! **429 vs 503**: `429 Too Many Requests` always means *healthy but full —
//! retry this same server after `Retry-After` seconds* (every shed response
//! carries the header, seconds granularity, from
//! `AdmissionConfig::retry_after`). `503 Service Unavailable` is reserved
//! for the reload path (model not loaded / shutting down) where retrying
//! soon won't help. Shed responses count in `requests.errors` and in the
//! per-endpoint, per-reason `admission.shed` counters (reasons:
//! `queue_full`, `rate_limited`, `degraded`); the valve exports its state
//! (`intake_closed`, `intake_closures_total`) and the configured limits.
//!
//! Defaults are permissive (caps in the thousands, no rate limit) — the
//! open-loop `serve_load` bench in `holistix-bench` ramps fixed-TPS clients
//! against a real server until a p99-latency or shed-rate SLO trips, and
//! records the last sustainable step in `BENCH_serve.json`.
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
//!  poller             handler              batch queue          poller
//!  ──────             ───────              ───────────          ──────
//!  parse done ───────► picked off queue ─► texts enqueued ─►    response
//!  │ id minted        │ HandlerStart      │ QueueEnqueue        serialized,
//!  │ (conn.rs)        │                   │ batch drained ─►    written out
//!  │                  │                   │ BatchDrain          │ WriteDone
//!  │                  │                   │ rows returned       │ finalize:
//!  │                  │                   │ Scored              │ histograms
//!  │                  │ response built    │                     │ + slow ring
//!  │                  │ ResponseQueued ───┴──────────────────►  │
//!  └── dispatch ──────┴── prepare ── queue_wait ── score ── respond ── write
//! ```
//!
//! **Stage glossary** (each stage ends at its stamp; together they partition
//! the end-to-end latency): `dispatch` = parse completion → a handler picks
//! the job up (queueing in the handler pool); `prepare` = request parsing /
//! validation / model resolution in the handler; `queue_wait` = batch-queue
//! residency until the drain loop takes the batch; `score` = the batched
//! `probabilities` call (or the LIME run for `/explain`); `respond` =
//! fan-out and response building until the completion is queued back to the
//! poller; `write` = reorder-buffer wait plus socket write-out until the
//! last byte is on the wire.
//!
//! **Histogram error bounds**: [`obs::LogHistogram`] buckets values at 16
//! sub-buckets per power of two, so any reported percentile is within one
//! bucket of the exact nearest-rank value — a relative error of at most
//! 1/16 (6.25%); values below 32 are exact. Recording is two relaxed
//! `fetch_add`s and a `fetch_max`; scrapes read the buckets without stopping
//! writers (a test records under sustained concurrent scraping and loses
//! nothing).
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
//!   the classic contention-only deadlock. The one intentional case — the
//!   handler pool taking turns on the shared job receiver — is waived inline
//!   with its rationale.
//!
//! Waivers are always of the form
//! `// lint:allow(guard-across-send): receivers take turns by design` — the
//! rule name plus a mandatory reason — so `grep -rn 'lint:allow'` is the
//! complete exception ledger.
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
pub use batcher::{BatchConfig, BatchTiming, BatcherHandle, PredictError};
pub use http::{http_request, HttpClient, Request, Response};
pub use metrics::{
    build_info, os_thread_count, AdmissionMetrics, ConnectionMetrics, Endpoint, QueueMetrics,
    ServeMetrics, ShedReason,
};
pub use obs::{validate_exposition, HistogramSnapshot, LogHistogram, RequestTrace, TraceStamp};
pub use registry::{parse_kind, FitStats, ModelRegistry, RegistryConfig, SharedRegistry};
pub use server::{
    serve, KeepAliveConfig, ServeConfig, ServerHandle, MAX_RELOAD_POSTS, MAX_TEXTS_PER_REQUEST,
};
