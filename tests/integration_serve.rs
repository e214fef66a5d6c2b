//! Loopback integration test for `holistix-serve`: the acceptance bar for
//! cross-request micro-batching.
//!
//! A real server on an ephemeral port, driven by genuinely concurrent clients,
//! must (a) coalesce concurrent single-text requests that queue behind a busy
//! scorer into one scoring batch (visible in the `/metrics` batch histogram),
//! and (b) return per-request probabilities **bit-identical** to what the
//! warm model answers for the same text via `probabilities_one` — batching
//! may change latency, never answers. The JSON layer's shortest-round-trip
//! `f64` formatting is what makes the bitwise comparison across the HTTP
//! boundary possible.

use holistix::corpus::JsonValue;
use holistix::{BaselineKind, FittedBaseline, Scorer, SpeedProfile};
use holistix_corpus::HolistixCorpus;
use holistix_serve::{
    serve, BatchConfig, HttpClient, KeepAliveConfig, ModelRegistry, RegistryConfig, ServeConfig,
};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn lr_registry() -> ModelRegistry {
    ModelRegistry::fit_synthetic(&RegistryConfig {
        kinds: vec![BaselineKind::LogisticRegression],
        profile: SpeedProfile::Tiny,
        training_posts: 120,
        seed: 13,
    })
}

fn serve_registry(registry: ModelRegistry) -> holistix_serve::ServerHandle {
    let config = ServeConfig {
        batch: BatchConfig { max_batch: 8 },
        ..ServeConfig::default()
    };
    serve("127.0.0.1:0", registry, config).expect("bind loopback")
}

fn start_server() -> (holistix_serve::ServerHandle, Arc<dyn Scorer>) {
    let registry = lr_registry();
    let model = registry.get(BaselineKind::LogisticRegression).unwrap();
    (serve_registry(registry), model)
}

fn predict_one(addr: std::net::SocketAddr, text: &str) -> Vec<f64> {
    let body = format!("{{\"text\":{}}}", holistix::corpus::json::json_escape(text));
    let (status, body) = HttpClient::connect(addr)
        .expect("connect")
        .request("POST", "/predict", Some(&body))
        .expect("predict");
    assert_eq!(status, 200, "predict failed: {body}");
    let document = JsonValue::parse(&body).expect("predict response is JSON");
    let results = document.get("results").unwrap().as_array().unwrap();
    assert_eq!(results.len(), 1);
    results[0]
        .get("probabilities")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|p| p.as_f64().unwrap())
        .collect()
}

fn max_batch_from_metrics(addr: std::net::SocketAddr) -> usize {
    let (status, body) = HttpClient::connect(addr)
        .expect("connect")
        .request("GET", "/metrics", None)
        .expect("metrics");
    assert_eq!(status, 200);
    let document = JsonValue::parse(&body).expect("metrics response is JSON");
    let batches = document.get("batches").unwrap();
    let max_size = batches.get("max_size").unwrap().as_usize().unwrap();
    // The histogram must corroborate the max: some batch of that size exists.
    if max_size > 0 {
        let histogram = batches.get("histogram").unwrap();
        let count = histogram
            .get(&max_size.to_string())
            .and_then(|v| v.as_usize())
            .unwrap_or(0);
        assert!(count > 0, "histogram missing the max batch size {max_size}");
    }
    max_size
}

/// The warm LR model behind a gate: every scoring call waits (with a hard
/// deadline, so a failing test cannot wedge the queue thread) until the test
/// opens it.
struct GatedLr {
    inner: Arc<dyn Scorer>,
    open: Arc<AtomicBool>,
}

impl Scorer for GatedLr {
    fn probabilities(&self, texts: &[&str]) -> Vec<Vec<f64>> {
        let deadline = Instant::now() + Duration::from_secs(20);
        while !self.open.load(Ordering::SeqCst) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        self.inner.probabilities(texts)
    }

    fn kind(&self) -> BaselineKind {
        self.inner.kind()
    }
}

/// The acceptance test: concurrent requests that queue behind a busy scorer
/// batch together, and every client gets probabilities bit-identical to
/// single-text scoring. Deterministic: the first batch is held in a gate
/// until the queue depth shows every other request admitted behind it, so
/// the next drain takes them as one batch.
#[test]
fn concurrent_requests_batch_together_and_stay_bit_identical() {
    let registry = lr_registry();
    let model = registry.get(BaselineKind::LogisticRegression).unwrap();
    let open = Arc::new(AtomicBool::new(false));
    let server = serve_registry(ModelRegistry::from_scorers(vec![Arc::new(GatedLr {
        inner: Arc::clone(&model),
        open: Arc::clone(&open),
    })]));
    let addr = server.addr();
    let metrics = server.metrics();

    let corpus = HolistixCorpus::generate_small(30, 99);
    let texts: Vec<String> = corpus
        .texts()
        .iter()
        .take(4)
        .map(|t| t.to_string())
        .collect();
    assert_eq!(texts.len(), 4);
    let expected: Vec<Vec<f64>> = texts.iter().map(|t| model.probabilities_one(t)).collect();

    let mismatches = AtomicUsize::new(0);
    crossbeam::thread::scope(|scope| {
        for (text, want) in texts.iter().zip(&expected) {
            let mismatches = &mismatches;
            scope.spawn(move |_| {
                let got = predict_one(addr, text);
                assert_eq!(got.len(), want.len());
                for (g, w) in got.iter().zip(want) {
                    if g.to_bits() != w.to_bits() {
                        mismatches.fetch_add(1, Ordering::SeqCst);
                    }
                }
            });
        }
        // Depth counts a text from admission until its batch is scored, and
        // the first batch cannot finish while the gate is shut: depth 4
        // means the other requests are queued behind it.
        let deadline = Instant::now() + Duration::from_secs(20);
        while metrics.queue("LR", "classical").depth() < texts.len() as u64 {
            assert!(Instant::now() < deadline, "requests never queued");
            std::thread::sleep(Duration::from_millis(2));
        }
        open.store(true, Ordering::SeqCst);
    })
    .expect("client scope failed");

    assert_eq!(
        mismatches.load(Ordering::SeqCst),
        0,
        "served probabilities diverged bitwise from probabilities_one"
    );
    let max_batch = max_batch_from_metrics(addr);
    assert!(
        max_batch >= 2,
        "no cross-request batch formed (max batch size {max_batch})"
    );
    server.shutdown();
}

/// A multi-text request is scored as one batch even with no concurrency, and
/// the answers match single-text scoring bitwise.
#[test]
fn multi_text_request_forms_its_own_batch() {
    let (server, model) = start_server();
    let addr = server.addr();

    let corpus = HolistixCorpus::generate_small(30, 5);
    let texts: Vec<&str> = corpus.texts().iter().take(3).copied().collect();
    let escaped: Vec<String> = texts
        .iter()
        .map(|t| holistix::corpus::json::json_escape(t))
        .collect();
    let body = format!("{{\"texts\":[{}]}}", escaped.join(","));
    let (status, response) = HttpClient::connect(addr)
        .expect("connect")
        .request("POST", "/predict", Some(&body))
        .unwrap();
    assert_eq!(status, 200, "{response}");

    let document = JsonValue::parse(&response).unwrap();
    let results = document.get("results").unwrap().as_array().unwrap();
    assert_eq!(results.len(), 3);
    for (result, text) in results.iter().zip(&texts) {
        let got: Vec<f64> = result
            .get("probabilities")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|p| p.as_f64().unwrap())
            .collect();
        let want = model.probabilities_one(text);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.to_bits(), w.to_bits(), "row for {text:?} diverged");
        }
        // The reported label is the argmax of the probabilities.
        let label_index = result.get("label_index").unwrap().as_usize().unwrap();
        let argmax = holistix::linalg::argmax(&want).unwrap();
        assert_eq!(label_index, argmax);
    }
    assert!(max_batch_from_metrics(addr) >= 3);
    server.shutdown();
}

/// The `/reload` liveness bar: while a slow reload fit runs on its dedicated
/// thread, `/predict` must keep answering — the fit never runs on an HTTP
/// worker or the batcher, and the registry swap is atomic, so no request ever
/// waits on training or observes a half-fitted model.
#[test]
fn predict_keeps_answering_during_a_slow_reload() {
    let (server, _model) = start_server();
    let addr = server.addr();

    // A reload corpus big enough that the refit takes real wall-clock time on
    // any machine (the startup corpus is 120 posts; this is ~20×).
    let corpus = HolistixCorpus::generate_small(2400, 77);
    let jsonl = holistix_corpus::io::to_jsonl(&corpus.posts);
    assert!(jsonl.len() < 1 << 20, "reload body must fit the 1 MiB cap");
    let n_posts = corpus.posts.len();

    let (status, body) = HttpClient::connect(addr)
        .expect("connect")
        .request("POST", "/reload", Some(&jsonl))
        .expect("reload");
    assert_eq!(status, 202, "{body}");

    // Immediately hammer /predict while the fit runs. Every request must get a
    // well-formed answer (old or new model — liveness, not pinning, is the
    // contract), and none may error.
    let during_reload = Arc::new(AtomicUsize::new(0));
    for round in 0..6 {
        let text = format!("i feel alone and exhausted round {round}");
        let probabilities = predict_one(addr, &text);
        assert_eq!(probabilities.len(), 6);
        let total: f64 = probabilities.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "round {round} sum {total}");
        if server.metrics().reloads_total() == 0 {
            during_reload.fetch_add(1, Ordering::SeqCst);
        }
    }

    // Wait for the swap, then confirm the new registry is live and serving.
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while server.metrics().reloads_total() < 1 {
        assert!(
            std::time::Instant::now() < deadline,
            "reload never completed"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    let (status, body) = HttpClient::connect(addr)
        .expect("connect")
        .request("GET", "/metrics", None)
        .unwrap();
    assert_eq!(status, 200);
    let metrics = JsonValue::parse(&body).unwrap();
    let registry = metrics.get("registry").unwrap();
    assert_eq!(registry.get("reloads_total").unwrap().as_f64(), Some(1.0));
    assert_eq!(
        registry.get("corpus_size").unwrap().as_f64(),
        Some(n_posts as f64)
    );
    let probabilities = predict_one(addr, "i feel alone after the reload");
    assert_eq!(probabilities.len(), 6);
    // Informational: on most machines some predicts land mid-fit. Liveness is
    // asserted above either way.
    println!(
        "predicts answered during reload: {}/6",
        during_reload.load(Ordering::SeqCst)
    );
    server.shutdown();
}

/// The keep-alive bar: one TCP connection carries many requests, the server's
/// reuse counter proves no reconnects happened, and every answer over the
/// persistent connection stays bit-identical to direct scoring — connection
/// reuse, like batching, changes latency, never answers.
#[test]
fn keep_alive_session_reuses_one_connection_bitwise() {
    let (server, model) = start_server();
    let addr = server.addr();

    let corpus = HolistixCorpus::generate_small(30, 41);
    let texts: Vec<&str> = corpus.texts().iter().take(5).copied().collect();

    let mut client = HttpClient::connect(addr).expect("connect");
    for text in &texts {
        let body = format!("{{\"text\":{}}}", holistix::corpus::json::json_escape(text));
        let (status, response) = client
            .request("POST", "/predict", Some(&body))
            .expect("keep-alive predict");
        assert_eq!(status, 200, "{response}");
        let document = JsonValue::parse(&response).unwrap();
        let results = document.get("results").unwrap().as_array().unwrap();
        let got: Vec<f64> = results[0]
            .get("probabilities")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|p| p.as_f64().unwrap())
            .collect();
        let want = model.probabilities_one(text);
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.to_bits(), w.to_bits(), "row for {text:?} diverged");
        }
    }
    // /metrics over the same connection: 5 predicts + this = 5 reuses.
    let (status, body) = client.request("GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    let metrics = JsonValue::parse(&body).unwrap();
    let reuses = metrics
        .get("keepalive_reuses_total")
        .unwrap()
        .as_usize()
        .unwrap();
    assert_eq!(reuses, texts.len(), "expected every follow-up to reuse");
    drop(client);
    server.shutdown();
}

/// A deliberately slow scorer that blocks inside `probabilities` until the
/// test releases it (with a hard deadline so a failing test cannot wedge the
/// server's queue thread forever). Registered as the BERT analogue.
struct GatedScorer {
    started: Arc<AtomicBool>,
    release: Arc<AtomicBool>,
}

impl Scorer for GatedScorer {
    fn probabilities(&self, texts: &[&str]) -> Vec<Vec<f64>> {
        self.started.store(true, Ordering::SeqCst);
        let deadline = std::time::Instant::now() + Duration::from_secs(20);
        while !self.release.load(Ordering::SeqCst) && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        texts
            .iter()
            .map(|_| vec![0.5, 0.1, 0.1, 0.1, 0.1, 0.1])
            .collect()
    }

    fn kind(&self) -> BaselineKind {
        BaselineKind::Transformer(holistix::transformer::ModelKind::Bert)
    }
}

/// The per-kind queue isolation bar: with the slow (transformer) queue
/// *provably in the middle of scoring a batch*, classical `/predict` requests
/// must keep completing with bit-identical answers. Under the old
/// single-batcher design every one of these requests would sit behind the
/// blocked `probabilities` call; with per-kind queues the classical drain
/// loop never sees the slow batch. Deterministic — the slow scorer is gated
/// on a flag, not a sleep, so no timing assumptions.
#[test]
fn classical_predicts_complete_while_slow_scorer_batch_is_in_flight() {
    let corpus = HolistixCorpus::generate_small(120, 13);
    let texts = corpus.texts();
    let labels = corpus.label_indices();
    let lr = Arc::new(FittedBaseline::fit(
        BaselineKind::LogisticRegression,
        SpeedProfile::Tiny,
        &texts,
        &labels,
        13,
    ));
    let started = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));
    let registry = ModelRegistry::from_scorers(vec![
        lr.clone() as Arc<dyn Scorer>,
        Arc::new(GatedScorer {
            started: Arc::clone(&started),
            release: Arc::clone(&release),
        }),
    ]);
    let server = serve(
        "127.0.0.1:0",
        registry,
        ServeConfig {
            batch: BatchConfig { max_batch: 8 },
            ..ServeConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.addr();

    let slow_done = Arc::new(AtomicBool::new(false));
    crossbeam::thread::scope(|scope| {
        let slow_done_flag = Arc::clone(&slow_done);
        scope.spawn(move |_| {
            let (status, body) = HttpClient::connect(addr)
                .expect("connect")
                .request(
                    "POST",
                    "/predict",
                    Some(r#"{"text":"saturate the slow queue","model":"BERT"}"#),
                )
                .expect("slow predict");
            assert_eq!(status, 200, "{body}");
            slow_done_flag.store(true, Ordering::SeqCst);
        });

        // Wait until the slow queue is demonstrably inside its scoring call.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !started.load(Ordering::SeqCst) {
            assert!(
                std::time::Instant::now() < deadline,
                "slow scorer never started"
            );
            std::thread::sleep(Duration::from_millis(2));
        }

        // Classical requests must answer — correctly — while the slow batch
        // is still in flight.
        for (i, text) in texts.iter().take(6).enumerate() {
            let got = predict_one(addr, text);
            let want = lr.probabilities_one(text);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.to_bits(), w.to_bits(), "classical row {i} diverged");
            }
            assert!(
                !slow_done.load(Ordering::SeqCst),
                "slow request finished before release — the gate is broken"
            );
        }

        // The slow queue's depth is visible in /metrics while it is stuck.
        let (status, body) = HttpClient::connect(addr)
            .expect("connect")
            .request("GET", "/metrics", None)
            .unwrap();
        assert_eq!(status, 200);
        let metrics = JsonValue::parse(&body).unwrap();
        let queues = metrics.get("queues").unwrap();
        assert!(queues.get("BERT").is_some(), "no BERT queue section");
        assert!(queues.get("LR").is_some(), "no LR queue section");

        release.store(true, Ordering::SeqCst);
    })
    .expect("isolation scope failed");

    assert!(
        slow_done.load(Ordering::SeqCst),
        "slow request never finished"
    );
    server.shutdown();
}

/// The idle timer evicts a silent connection only when it has no request in
/// flight: a request its scorer holds for six idle timeouts still gets its
/// answer, and no eviction is counted.
#[test]
fn a_request_held_past_the_idle_timeout_still_answers() {
    let started = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));
    let registry = ModelRegistry::from_scorers(vec![Arc::new(GatedScorer {
        started: Arc::clone(&started),
        release: Arc::clone(&release),
    }) as Arc<dyn Scorer>]);
    let config = ServeConfig {
        keep_alive: KeepAliveConfig {
            idle_timeout: Duration::from_millis(100),
            ..KeepAliveConfig::default()
        },
        ..ServeConfig::default()
    };
    let server = serve("127.0.0.1:0", registry, config).expect("bind loopback");
    let addr = server.addr();
    std::thread::scope(|scope| {
        let held = scope.spawn(|| {
            let mut client = HttpClient::connect(addr).expect("connect");
            client.request("POST", "/predict", Some(r#"{"text":"hold me"}"#))
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        while !started.load(Ordering::SeqCst) {
            assert!(Instant::now() < deadline, "slow scorer never started");
            std::thread::sleep(Duration::from_millis(2));
        }
        std::thread::sleep(Duration::from_millis(600));
        release.store(true, Ordering::SeqCst);
        let (status, body) = held.join().unwrap().expect("held predict");
        assert_eq!(status, 200, "{body}");
    });
    assert_eq!(server.metrics().connections().idle_evictions_total(), 0);
    server.shutdown();
}

/// `/explain` over HTTP agrees with running the LIME explainer directly
/// against the warm model (same config, same seed).
#[test]
fn explain_endpoint_matches_direct_lime() {
    use holistix_explain::{LimeConfig, LimeExplainer};
    let (server, model) = start_server();
    let addr = server.addr();

    let text = "i feel alone and isolated and nobody understands me";
    let lime = LimeConfig {
        n_samples: 50,
        ..LimeConfig::default()
    };
    let direct = LimeExplainer::new(lime).explain(&*model, text, None);

    let body = format!(
        "{{\"text\":{},\"n_samples\":50}}",
        holistix::corpus::json::json_escape(text)
    );
    let (status, response) = HttpClient::connect(addr)
        .expect("connect")
        .request("POST", "/explain", Some(&body))
        .unwrap();
    assert_eq!(status, 200, "{response}");
    let document = JsonValue::parse(&response).unwrap();
    assert_eq!(
        document.get("target_class").unwrap().as_usize().unwrap(),
        direct.target_class
    );
    let tokens = document.get("tokens").unwrap().as_array().unwrap();
    assert!(!tokens.is_empty());
    for (served, (token, weight)) in tokens.iter().zip(&direct.token_weights) {
        assert_eq!(served.get("token").unwrap().as_str(), Some(token.as_str()));
        assert_eq!(
            served.get("weight").unwrap().as_f64().unwrap().to_bits(),
            weight.to_bits()
        );
    }
    server.shutdown();
}
