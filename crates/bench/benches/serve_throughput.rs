//! Serving-layer throughput: requests/s over keep-alive connections.
//!
//! This is the ROADMAP's "once keep-alive lands" bench: with one request per
//! connection, TCP setup/teardown dominated and the batching knobs were
//! untunable from data. Now each client holds one persistent [`HttpClient`]
//! connection for its whole request stream, so the measured quantity is the
//! serving stack itself — HTTP parse, per-kind batch queue, one batched
//! `Scorer::probabilities` call, fan-out, response write.
//!
//! The corpus is the paper-scale one the other serving benches use: the
//! Table I lexicon augmented with a 12k-term synthetic vocabulary
//! (`HolistixCorpus::augment_vocabulary`), so per-text scoring cost is
//! realistic. The headline run drives concurrent keep-alive clients against
//! the default batch queue and prints requests/s and the mean scored-batch
//! size; criterion per-iteration timings follow.
//!
//! Since the connection-multiplexer redesign there is a second headline
//! sweep: requests/s and resident OS thread count as a function of **idle
//! keep-alive connections parked on the server** (100 → 2 000). Under the old
//! one-thread-per-connection pool those idle clients would each pin a worker;
//! under the multiplexer they cost poll-set entries, so throughput and thread
//! count must both stay flat. The sweep's trajectory is merged into
//! `BENCH_serve.json` at the repository root under the `"serve_throughput"`
//! key (preserving what the other serving benches wrote) so successive runs
//! can be compared. Each step also records p50/p99/p999 request latency,
//! read from the server's own log-bucketed histogram and snapshot-subtracted
//! so every step reports only its own requests — the same instrumentation
//! `/metrics` exposes, exercised here as the regression gate for its
//! overhead.
//!
//! Correctness is pinned elsewhere (the loopback integration tests assert
//! bit-identical answers over keep-alive connections and batches); this bench
//! compares only speed.

use criterion::{criterion_group, criterion_main, Criterion};
use holistix::corpus::JsonValue;
use holistix::prelude::*;
use holistix::transformer::ModelKind;
use holistix_bench::report::merge_section;
use holistix_serve::{
    os_thread_count, serve, AdmissionConfig, HttpClient, KeepAliveConfig, ModelRegistry,
    ServeConfig, ServerHandle,
};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Synthetic lexicon size: paper-scale vocabulary.
const AUGMENT_TERMS: usize = 12_000;
/// Filler terms appended per post.
const AUGMENT_WORDS_PER_POST: usize = 60;
/// Training corpus size (augmented).
const TRAIN_POSTS: usize = 400;
/// Concurrent keep-alive clients.
const CLIENTS: usize = 4;
/// Requests each client issues per measured run.
const REQUESTS_PER_CLIENT: usize = 50;

/// Start an LR server fitted on the augmented corpus (the registry is fitted
/// per call because the server owns it; fit cost is outside the measured
/// request loops).
fn start_server(corpus: &HolistixCorpus, idle_timeout: Duration) -> ServerHandle {
    let texts = corpus.texts();
    let labels = corpus.label_indices();
    let registry = ModelRegistry::fit(
        &[BaselineKind::LogisticRegression],
        SpeedProfile::Tiny,
        &texts,
        &labels,
        42,
    );
    let config = ServeConfig {
        keep_alive: KeepAliveConfig {
            idle_timeout,
            ..KeepAliveConfig::default()
        },
        ..ServeConfig::default()
    };
    serve("127.0.0.1:0", registry, config).expect("bind loopback")
}

/// Park `n` keep-alive connections on the server that never send a byte.
/// Returned streams must stay alive for the duration of the measurement.
/// Connects with retry: a burst of thousands of SYNs can transiently overrun
/// the listen backlog.
fn open_idle_clients(addr: SocketAddr, n: usize) -> Vec<TcpStream> {
    let mut idle = Vec::with_capacity(n);
    for i in 0..n {
        let mut attempts = 0;
        loop {
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    idle.push(stream);
                    break;
                }
                Err(e) => {
                    attempts += 1;
                    assert!(attempts < 200, "idle client {i} could not connect: {e}");
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
    }
    idle
}

/// Drive `CLIENTS` persistent connections × `REQUESTS_PER_CLIENT` single-text
/// predicts; returns total wall-clock. Panics on any non-200 so a broken
/// server cannot masquerade as a fast one.
fn drive(addr: SocketAddr, pool: &[String]) -> Duration {
    let started = Instant::now();
    crossbeam::thread::scope(|scope| {
        for client_id in 0..CLIENTS {
            scope.spawn(move |_| {
                let mut client = HttpClient::connect(addr).expect("connect");
                for i in 0..REQUESTS_PER_CLIENT {
                    let text = &pool[(client_id * REQUESTS_PER_CLIENT + i) % pool.len()];
                    let body =
                        format!("{{\"text\":{}}}", holistix::corpus::json::json_escape(text));
                    let (status, response) = client
                        .request("POST", "/predict", Some(&body))
                        .expect("keep-alive predict");
                    assert_eq!(status, 200, "{response}");
                }
            });
        }
    })
    .expect("client scope failed");
    started.elapsed()
}

/// Drive `clients` persistent connections × `requests` single-text predicts
/// against one named model; returns total wall-clock.
fn drive_model(
    addr: SocketAddr,
    pool: &[String],
    model: &str,
    clients: usize,
    requests: usize,
) -> Duration {
    let started = Instant::now();
    crossbeam::thread::scope(|scope| {
        for client_id in 0..clients {
            scope.spawn(move |_| {
                let mut client = HttpClient::connect(addr).expect("connect");
                for i in 0..requests {
                    let text = &pool[(client_id * requests + i) % pool.len()];
                    let body = format!(
                        "{{\"text\":{},\"model\":{}}}",
                        holistix::corpus::json::json_escape(text),
                        holistix::corpus::json::json_escape(model),
                    );
                    let (status, response) = client
                        .request("POST", "/predict", Some(&body))
                        .expect("keep-alive predict");
                    assert_eq!(status, 200, "{response}");
                }
            });
        }
    })
    .expect("client scope failed");
    started.elapsed()
}

/// The long-promised real-slow-backend sweep: a `Fast`-profile MentalBERT
/// analogue and its i8-quantized sibling registered beside LR via
/// [`ModelRegistry::from_scorers`], so per-kind queue isolation and
/// `explain_shed_depth` degradation are measured against a genuinely slow
/// scorer instead of a flag-gated stub.
/// Returns the sweep's JSON section for the trajectory files.
fn real_backend_sweep() -> JsonValue {
    let corpus = HolistixCorpus::generate_small(120, 7);
    let texts = corpus.texts();
    let labels = corpus.label_indices();
    let pool: Vec<String> = texts.iter().map(|t| t.to_string()).collect();

    let lr: Arc<dyn Scorer> = fit_scorer(
        BaselineKind::LogisticRegression,
        SpeedProfile::Tiny,
        &texts,
        &labels,
        7,
        1,
    );
    let f64_scorer = TransformerScorer::fit(
        ModelKind::MentalBert,
        SpeedProfile::Fast,
        &texts,
        &labels,
        7,
    );
    let i8_arc: Arc<dyn Scorer> = Arc::new(QuantizedScorer::from_transformer(&f64_scorer));
    let f64_arc: Arc<dyn Scorer> = Arc::new(f64_scorer);

    let start = || {
        let registry = ModelRegistry::from_scorers(vec![
            Arc::clone(&lr),
            Arc::clone(&f64_arc),
            Arc::clone(&i8_arc),
        ]);
        let config = ServeConfig {
            admission: AdmissionConfig {
                max_queue_depth: 512,
                global_intake_limit: 4096,
                explain_shed_depth: 8,
                ..AdmissionConfig::default()
            },
            ..ServeConfig::default()
        };
        serve("127.0.0.1:0", registry, config).expect("bind loopback")
    };

    // Per-kind throughput, each kind on a fresh server so queue metrics and
    // warmup effects never bleed across arms. The f64-vs-i8 ratio is the
    // serving-level quantization speedup: both queues drain the same way, so
    // it is the kernels' ratio diluted by the serving stack's shared cost.
    let requests = 25usize;
    let total = (CLIENTS * requests) as f64;
    let mut req_per_s = Vec::new();
    println!("serve_real_backend: {CLIENTS} keep-alive clients x {requests} requests per kind");
    for model in ["LR", "MentalBERT", "MentalBERT-i8"] {
        let server = start();
        let elapsed = drive_model(server.addr(), &pool, model, CLIENTS, requests);
        let rps = total / elapsed.as_secs_f64();
        println!("{model:>13}: {rps:>7.0} req/s");
        req_per_s.push((model, rps));
        server.shutdown();
    }
    let serve_speedup = req_per_s[2].1 / req_per_s[1].1;
    println!("serving speedup MentalBERT-i8 vs MentalBERT: {serve_speedup:.2}x");

    // Queue isolation: half the clients hammer the slow f64 transformer while
    // the other half run LR. LR requests must never wait behind transformer
    // batches — its queue-wait p99 stays near its own scoring time, not the
    // transformer's service time.
    let server = start();
    let addr = server.addr();
    crossbeam::thread::scope(|scope| {
        let pool = &pool;
        scope.spawn(move |_| drive_model(addr, pool, "MentalBERT", CLIENTS / 2, requests));
        scope.spawn(move |_| drive_model(addr, pool, "LR", CLIENTS / 2, requests));
    })
    .expect("mixed traffic scope");
    let snapshot = server.metrics().snapshot();
    let queues = snapshot.get("queues").unwrap();
    let wait_p99 = |kind: &str| {
        queues
            .get(kind)
            .unwrap()
            .get("queue_wait_us")
            .unwrap()
            .get("p99")
            .unwrap()
            .as_f64()
            .unwrap_or(0.0)
    };
    let lr_p99 = wait_p99("LR");
    let bert_p99 = wait_p99("MentalBERT");
    println!("mixed traffic: LR queue-wait p99 {lr_p99:.0} us, MentalBERT p99 {bert_p99:.0} us");
    assert!(
        lr_p99 < 10_000.0,
        "LR waited {lr_p99} us behind the transformer queue — isolation broke"
    );

    // Degradation: saturate the f64 transformer queue past `explain_shed_depth`
    // (8) and watch `/explain` shed with 429 while the flood's predicts still
    // serve. Each flood request carries 100 texts, so the queue holds hundreds
    // of texts × ~ms-scale scoring — a wide window for the explain probe.
    let flood_body = {
        let items: Vec<String> = pool
            .iter()
            .cycle()
            .take(100)
            .map(|t| holistix::corpus::json::json_escape(t))
            .collect();
        format!(
            "{{\"texts\":[{}],\"model\":\"MentalBERT\"}}",
            items.join(",")
        )
    };
    let explain_body = format!(
        "{{\"text\":{},\"model\":\"LR\",\"n_samples\":50,\"top_k\":3}}",
        holistix::corpus::json::json_escape(&pool[0])
    );
    let shed_seen = crossbeam::thread::scope(|scope| {
        for _ in 0..4 {
            let flood_body = &flood_body;
            scope.spawn(move |_| {
                let mut client = HttpClient::connect(addr).expect("connect flood");
                for _ in 0..3 {
                    let (status, response) = client
                        .request("POST", "/predict", Some(flood_body))
                        .expect("flood predict");
                    assert!(status == 200 || status == 429, "{response}");
                }
            });
        }
        let mut client = HttpClient::connect(addr).expect("connect explain probe");
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut seen = false;
        while Instant::now() < deadline {
            let (status, _) = client
                .request("POST", "/explain", Some(&explain_body))
                .expect("explain probe");
            if status == 429 {
                seen = true;
                break;
            }
        }
        seen
    })
    .expect("flood scope");
    let shed_total = server
        .metrics()
        .snapshot()
        .get("admission")
        .unwrap()
        .get("shed")
        .unwrap()
        .get("explain")
        .unwrap()
        .get("degraded")
        .unwrap()
        .as_f64()
        .unwrap();
    assert!(
        shed_seen && shed_total >= 1.0,
        "explain never shed under a saturated transformer queue \
         (seen={shed_seen}, counter={shed_total})"
    );
    println!("explain shed under transformer flood: {shed_total} degraded sheds");
    server.shutdown();

    JsonValue::object(vec![
        ("lr_req_per_s", JsonValue::Number(req_per_s[0].1)),
        ("transformer_req_per_s", JsonValue::Number(req_per_s[1].1)),
        ("quantized_req_per_s", JsonValue::Number(req_per_s[2].1)),
        ("serve_speedup_i8_vs_f64", JsonValue::Number(serve_speedup)),
        ("mixed_lr_wait_p99_us", JsonValue::Number(lr_p99)),
        ("mixed_transformer_wait_p99_us", JsonValue::Number(bert_p99)),
        ("explain_degraded_sheds", JsonValue::Number(shed_total)),
    ])
}

fn bench_serve_throughput(c: &mut Criterion) {
    let mut corpus = HolistixCorpus::generate_small(TRAIN_POSTS, 42);
    corpus.augment_vocabulary(AUGMENT_TERMS, AUGMENT_WORDS_PER_POST, 42);
    let pool: Vec<String> = corpus.texts().iter().map(|t| t.to_string()).collect();

    let total_requests = (CLIENTS * REQUESTS_PER_CLIENT) as f64;

    // Headline requests/s (criterion per-iteration timings below).
    println!(
        "serve_throughput: {CLIENTS} keep-alive clients x {REQUESTS_PER_CLIENT} requests, \
         12k-term vocabulary"
    );
    let server = start_server(&corpus, Duration::from_secs(5));
    let elapsed = drive(server.addr(), &pool);
    let metrics = server.metrics();
    let reuses = metrics.keepalive_reuses_total();
    let snapshot = metrics.snapshot();
    let batches = snapshot.get("batches").unwrap();
    let batch_count = batches.get("count").unwrap().as_f64().unwrap();
    let scored = snapshot.get("texts_scored").unwrap().as_f64().unwrap();
    let mean_batch = if batch_count > 0.0 {
        scored / batch_count
    } else {
        0.0
    };
    assert!(
        reuses as f64 >= total_requests - CLIENTS as f64,
        "clients reconnected: only {reuses} reuses"
    );
    println!(
        "{:>7.0} req/s  (mean batch {:.2}, {} reuses)",
        total_requests / elapsed.as_secs_f64(),
        mean_batch,
        reuses
    );
    server.shutdown();

    // The multiplexer's headline: park 100 → 2 000 idle keep-alive clients on
    // one server and re-measure active-client throughput and the process's OS
    // thread count at each step. Both must stay flat — idle connections are
    // poll-set entries, not threads.
    let idle_counts = [100usize, 500, 1000, 2000];
    // One server for the whole sweep (so the thread-count comparison is
    // apples-to-apples) with a long idle timeout so the parked clients are
    // not evicted mid-measurement.
    let server = start_server(&corpus, Duration::from_secs(600));
    let addr = server.addr();
    println!("serve_idle_sweep: {CLIENTS} active clients against parked idle connections");
    let mut trajectory: Vec<JsonValue> = Vec::new();
    let mut thread_counts: Vec<u64> = Vec::new();
    let mut idle_pool: Vec<TcpStream> = Vec::new();
    for &target in &idle_counts {
        idle_pool.extend(open_idle_clients(addr, target - idle_pool.len()));
        // Snapshot the cumulative latency histogram around the drive so each
        // sweep step reports the percentiles of *its own* requests only
        // (histogram subtraction is exact — the buckets are atomic counters).
        let latency_before = server.metrics().latency_snapshot();
        let elapsed = drive(addr, &pool);
        let latency = server.metrics().latency_snapshot().minus(&latency_before);
        let req_per_s = total_requests / elapsed.as_secs_f64();
        // `drive` joins its client threads, but the kernel can still list a
        // joined thread in /proc for a beat afterwards. Dying threads only
        // inflate the count, so the minimum over a short window is the
        // settled value.
        let os_threads = (0..20)
            .map(|_| {
                std::thread::sleep(Duration::from_millis(10));
                os_thread_count().unwrap_or(0)
            })
            .min()
            .unwrap_or(0);
        let open = server.metrics().connections().open();
        assert!(
            open >= target as u64,
            "only {open} connections open with {target} idle clients parked"
        );
        thread_counts.push(os_threads);
        let pct = |q: f64| latency.percentile(q).unwrap_or(0);
        let (p50, p99, p999) = (pct(0.50), pct(0.99), pct(0.999));
        println!(
            "idle {target:>4}: {req_per_s:>7.0} req/s  p50 {p50} us  p99 {p99} us  p999 {p999} us  \
             ({os_threads} OS threads, {open} open connections)"
        );
        trajectory.push(JsonValue::object(vec![
            ("idle_clients", JsonValue::Number(target as f64)),
            ("req_per_s", JsonValue::Number(req_per_s)),
            ("latency_p50_us", JsonValue::Number(p50 as f64)),
            ("latency_p99_us", JsonValue::Number(p99 as f64)),
            ("latency_p999_us", JsonValue::Number(p999 as f64)),
            ("os_threads", JsonValue::Number(os_threads as f64)),
            ("open_connections", JsonValue::Number(open as f64)),
        ]));
    }
    drop(idle_pool);
    server.shutdown();
    assert!(
        thread_counts.windows(2).all(|w| w[0] == w[1]),
        "OS thread count moved with idle connections: {thread_counts:?}"
    );
    let real_backend = real_backend_sweep();

    let report = JsonValue::object(vec![
        ("active_clients", JsonValue::Number(CLIENTS as f64)),
        (
            "requests_per_client",
            JsonValue::Number(REQUESTS_PER_CLIENT as f64),
        ),
        ("idle_sweep", JsonValue::Array(trajectory)),
        ("real_backend", real_backend.clone()),
    ]);
    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    merge_section(out_path, "serve_throughput", report);
    println!("idle-sweep trajectory written to {out_path}");
    // The serving-level quantization speedup also belongs in the transformer
    // trajectory file, next to the kernel-level numbers.
    merge_section(
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_transformer.json"),
        "serve",
        real_backend,
    );

    let mut group = c.benchmark_group("serve_throughput");
    group.sample_size(10);
    let server = start_server(&corpus, Duration::from_secs(5));
    let addr = server.addr();
    group.bench_function("keepalive_predict", |b| b.iter(|| drive(addr, &pool)));
    server.shutdown();
    group.finish();
}

criterion_group!(benches, bench_serve_throughput);
criterion_main!(benches);
