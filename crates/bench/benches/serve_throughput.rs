//! Serving-layer throughput with idle keep-alive connections parked on the
//! server.
//!
//! Requests/s and resident OS thread count as a function of **idle
//! keep-alive connections parked on the server** (100 → 2 000). Under a
//! one-thread-per-connection pool those idle clients would each pin a
//! worker; under the connection multiplexer they cost poll-set entries, so
//! the thread count must stay flat. This is the repository's only
//! measurement of throughput with idle connections parked: the repository
//! benchmark (`holibench`) measures the server from the client side, under
//! open-loop load on a fixed set of active connections.
//!
//! At each step, 4 active clients each hold one persistent [`HttpClient`]
//! connection and send single-text LR predicts back to back for a fixed
//! window of 1 s. Each step runs 3 windows and reports the median req/s,
//! with all three windows beside it, so a reader can see the spread. The
//! corpus is paper-scale: the Table I lexicon augmented with a 12k-term
//! synthetic vocabulary (`HolistixCorpus::augment_vocabulary`), so per-text
//! scoring cost is realistic. Each step records p50/p99/p999 request latency
//! over its three windows, read from the server's own log-bucketed histogram
//! and snapshot-subtracted so every step reports only its own requests. The
//! trajectory is merged into `BENCH_serve.json` at the repository root under
//! the `"serve_throughput"` key, so successive runs can be compared.
//!
//! Each step asserts the open-connection count, and the sweep asserts a flat
//! OS thread count. Correctness is pinned elsewhere (the loopback
//! integration tests assert bit-identical answers over keep-alive
//! connections and batches).

use holistix::corpus::JsonValue;
use holistix::prelude::*;
use holistix_bench::report::merge_section;
use holistix_serve::{
    os_thread_count, serve, HttpClient, KeepAliveConfig, ModelRegistry, ServeConfig, ServerHandle,
};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Synthetic lexicon size: paper-scale vocabulary.
const AUGMENT_TERMS: usize = 12_000;
/// Filler terms appended per post.
const AUGMENT_WORDS_PER_POST: usize = 60;
/// Training corpus size (augmented).
const TRAIN_POSTS: usize = 400;
/// Concurrent keep-alive clients.
const CLIENTS: usize = 4;
/// How long the clients send requests in one measured window.
const WINDOW: Duration = Duration::from_secs(1);
/// Measured windows per sweep step; the step reports their median.
const WINDOWS_PER_STEP: usize = 3;

/// Start an LR server fitted on the augmented corpus, with an idle timeout
/// long enough that the parked clients are not evicted mid-measurement, and
/// no request cap that an active client could reach within a window.
fn start_server(corpus: &HolistixCorpus) -> ServerHandle {
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
            max_requests: usize::MAX,
            idle_timeout: Duration::from_secs(600),
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

/// Drive `CLIENTS` persistent connections, each sending single-text
/// predicts back to back until `WINDOW` has passed; returns the requests
/// answered per second. Panics on any non-200 so a broken server cannot
/// masquerade as a fast one.
fn drive(addr: SocketAddr, pool: &[String]) -> f64 {
    let started = Instant::now();
    let until = started + WINDOW;
    let requests: usize = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|client_id| {
                scope.spawn(move || {
                    let mut client = HttpClient::connect(addr).expect("connect");
                    let mut sent = 0;
                    while Instant::now() < until {
                        let text = &pool[(client_id + sent * CLIENTS) % pool.len()];
                        let body =
                            format!("{{\"text\":{}}}", holistix::corpus::json::json_escape(text));
                        let (status, response) = client
                            .request("POST", "/predict", Some(&body))
                            .expect("keep-alive predict");
                        assert_eq!(status, 200, "{response}");
                        sent += 1;
                    }
                    sent
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().expect("client")).sum()
    });
    requests as f64 / started.elapsed().as_secs_f64()
}

fn main() {
    let mut corpus = HolistixCorpus::generate_small(TRAIN_POSTS, 42);
    corpus.augment_vocabulary(AUGMENT_TERMS, AUGMENT_WORDS_PER_POST, 42);
    let pool: Vec<String> = corpus.texts().iter().map(|t| t.to_string()).collect();

    // One server for the whole sweep, so the thread counts compare like for
    // like.
    let idle_counts = [100usize, 500, 1000, 2000];
    let server = start_server(&corpus);
    let addr = server.addr();
    println!(
        "serve_idle_sweep: {CLIENTS} active clients, median of {WINDOWS_PER_STEP} windows \
         of {WINDOW:?} per step, 12k-term vocabulary, against parked idle connections"
    );
    let mut trajectory: Vec<JsonValue> = Vec::new();
    let mut thread_counts: Vec<u64> = Vec::new();
    let mut idle_pool: Vec<TcpStream> = Vec::new();
    for &target in &idle_counts {
        idle_pool.extend(open_idle_clients(addr, target - idle_pool.len()));
        // Snapshot the cumulative latency histogram around the drives so each
        // sweep step reports the percentiles of *its own* requests only
        // (histogram subtraction is exact — the buckets are atomic counters).
        let latency_before = server.metrics().latency_snapshot();
        let mut windows: Vec<f64> = (0..WINDOWS_PER_STEP).map(|_| drive(addr, &pool)).collect();
        let latency = server.metrics().latency_snapshot().minus(&latency_before);
        windows.sort_by(f64::total_cmp);
        let req_per_s = windows[WINDOWS_PER_STEP / 2];
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
            "idle {target:>4}: {req_per_s:>7.0} req/s (windows {windows:.0?})  p50 {p50} us  \
             p99 {p99} us  p999 {p999} us  ({os_threads} OS threads, {open} open connections)"
        );
        let windows = windows.into_iter().map(JsonValue::Number).collect();
        trajectory.push(JsonValue::object(vec![
            ("idle_clients", JsonValue::Number(target as f64)),
            ("req_per_s", JsonValue::Number(req_per_s)),
            ("req_per_s_windows", JsonValue::Array(windows)),
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

    let report = JsonValue::object(vec![
        ("active_clients", JsonValue::Number(CLIENTS as f64)),
        ("window_s", JsonValue::Number(WINDOW.as_secs_f64())),
        (
            "windows_per_step",
            JsonValue::Number(WINDOWS_PER_STEP as f64),
        ),
        ("idle_sweep", JsonValue::Array(trajectory)),
    ]);
    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    merge_section(out_path, "serve_throughput", report);
    println!("idle-sweep trajectory written to {out_path}");
}
