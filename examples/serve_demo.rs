//! Serving demo and CI smoke: start the warm-model HTTP server and drive
//! every route over loopback, failing loudly on the first broken contract.
//!
//! ```bash
//! cargo run --release -p holistix-serve --example serve_demo -- --smoke
//! ```
//!
//! Keep-alive reuse, 256 parked idle connections at a flat OS thread count,
//! one `/explain` counted in its queue, the thread plan, `/reload`, both
//! `/metrics` formats, `/debug/slow`, admission 429s and a quantized kind.
//! The `--smoke` flag is accepted for CI's command line; the demo always
//! runs the smoke (the repository benchmark, `holibench`, is the load
//! generator).

use holistix::prelude::*;
use holistix_serve::{
    serve, validate_exposition, AdmissionConfig, BatchConfig, HttpClient, ModelRegistry,
    RateLimitConfig, RegistryConfig, ServeConfig,
};
use std::net::SocketAddr;
use std::time::Duration;

fn fail(message: &str) -> ! {
    eprintln!("serve_demo: {message}");
    std::process::exit(1);
}

/// The settled `threads.os_threads` from `/metrics`: the minimum over a few
/// scrapes 10 ms apart. A thread that was just joined (the startup fit's)
/// can still be listed in /proc for a moment, and dying threads only ever
/// inflate the count.
fn settled_os_threads(addr: SocketAddr) -> u64 {
    (0..5)
        .map(|_| {
            std::thread::sleep(Duration::from_millis(10));
            os_threads_from(&request_ok(addr, "GET", "/metrics", None))
        })
        .min()
        .unwrap_or(0)
}

/// Pull `threads.os_threads` out of a `/metrics` document.
fn os_threads_from(metrics_body: &str) -> u64 {
    let document = match holistix::corpus::JsonValue::parse(metrics_body) {
        Ok(document) => document,
        Err(e) => fail(&format!("metrics response is not JSON: {e}")),
    };
    match document
        .get("threads")
        .and_then(|t| t.get("os_threads"))
        .and_then(|v| v.as_f64())
    {
        Some(n) => n as u64,
        None => fail("metrics missing threads.os_threads"),
    }
}

/// The `/metrics` JSON document.
fn metrics_json(addr: SocketAddr) -> holistix::corpus::JsonValue {
    match holistix::corpus::JsonValue::parse(&request_ok(addr, "GET", "/metrics", None)) {
        Ok(document) => document,
        Err(e) => fail(&format!("metrics response is not JSON: {e}")),
    }
}

/// The value of the Prometheus sample `series` (name and labels), if present.
fn prom_value(exposition: &str, series: &str) -> Option<f64> {
    exposition
        .lines()
        .find_map(|line| line.strip_prefix(series)?.trim().parse().ok())
}

/// The LR queue's `texts_scored`, from the JSON and the Prometheus scrape.
fn lr_texts_scored(addr: SocketAddr) -> (usize, usize) {
    let json = metrics_json(addr)
        .get("queues")
        .and_then(|q| q.get("LR"))
        .and_then(|q| q.get("texts_scored"))
        .and_then(|v| v.as_f64())
        .unwrap_or_else(|| fail("metrics missing queues.LR.texts_scored"));
    let prometheus = request_ok(addr, "GET", "/metrics?format=prometheus", None);
    let series = "holistix_queue_texts_scored_total{kind=\"LR\",scorer_kind=\"classical\"}";
    let prom = prom_value(&prometheus, series)
        .unwrap_or_else(|| fail(&format!("Prometheus is missing {series}")));
    (json as usize, prom as usize)
}

/// One request on a connection of its own: a connection held across the
/// smoke would sit idle past the server's idle timeout while `/reload` fits,
/// and be evicted.
fn request_ok(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> String {
    match HttpClient::connect(addr).and_then(|mut client| client.request(method, path, body)) {
        Ok((200, body)) => body,
        Ok((status, body)) => fail(&format!("{method} {path} -> {status}: {body}")),
        Err(e) => fail(&format!("{method} {path} failed: {e}")),
    }
}

fn main() {
    println!("fitting registry (Tiny profile, 90 training posts)…");
    let kinds = vec![BaselineKind::LogisticRegression, BaselineKind::GaussianNb];
    let registry = ModelRegistry::fit_synthetic(&RegistryConfig {
        kinds: kinds.clone(),
        profile: SpeedProfile::Tiny,
        training_posts: 90,
        seed: 42,
    });

    let config = ServeConfig {
        batch: BatchConfig { max_batch: 32 },
        ..ServeConfig::default()
    };
    let server = match serve("127.0.0.1:0", registry, config) {
        Ok(server) => server,
        Err(e) => fail(&format!("bind failed: {e}")),
    };
    let addr = server.addr();
    println!("serving on http://{addr}");

    let health = request_ok(addr, "GET", "/healthz", None);
    println!("healthz: {health}");

    let body = r#"{"texts":["i feel alone and cut off from everyone"]}"#;

    // Keep-alive round-trip: ≥2 requests over ONE persistent connection,
    // then assert the server counted the reuse — proof the connection was
    // actually held open, not silently reopened per request.
    let mut client = match HttpClient::connect(addr) {
        Ok(client) => client,
        Err(e) => fail(&format!("keep-alive connect failed: {e}")),
    };
    let mut predict = String::new();
    for round in 0..3 {
        match client.request("POST", "/predict", Some(body)) {
            Ok((200, response)) => predict = response,
            Ok((status, response)) => fail(&format!(
                "keep-alive predict {round} -> {status}: {response}"
            )),
            Err(e) => fail(&format!("keep-alive predict {round} failed: {e}")),
        }
    }
    drop(client);
    println!("predict: {predict}");
    if !predict.contains("probabilities") {
        fail("predict response carries no probabilities");
    }
    let reuses = server.metrics().keepalive_reuses_total();
    if reuses < 2 {
        fail(&format!(
            "3 requests over one connection produced only {reuses} keep-alive reuses"
        ));
    }
    println!("keep-alive ok ({reuses} reuses over one connection)");

    // Connection-multiplexer smoke: park 256 idle keep-alive connections
    // and assert via /metrics that the OS thread count is a function of
    // the pollers + admin thread + queues, not of the client count.
    // This runs BEFORE the /reload check because /reload legitimately
    // spawns a detached fit thread and would move the baseline.
    let threads_before = settled_os_threads(addr);
    let mut parked = Vec::with_capacity(256);
    for i in 0..256 {
        let mut attempts = 0;
        loop {
            match std::net::TcpStream::connect(addr) {
                Ok(stream) => {
                    parked.push(stream);
                    break;
                }
                Err(e) => {
                    attempts += 1;
                    if attempts >= 200 {
                        fail(&format!("idle connection {i} could not connect: {e}"));
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        if server.metrics().connections().open() >= 256 {
            break;
        }
        if std::time::Instant::now() >= deadline {
            fail(&format!(
                "only {} of 256 idle connections were accepted within 30s",
                server.metrics().connections().open()
            ));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let during_idle = request_ok(addr, "POST", "/predict", Some(body));
    if !during_idle.contains("probabilities") {
        fail("predict with 256 idle connections parked carries no probabilities");
    }
    let threads_after = settled_os_threads(addr);
    if threads_after != threads_before {
        fail(&format!(
            "OS thread count moved with idle connections: {threads_before} -> {threads_after}"
        ));
    }
    drop(parked);
    println!(
        "multiplexer ok (256 idle connections parked, {threads_before} OS threads before and after)"
    );

    // /reload round-trip: upload a fresh JSONL corpus, confirm 202, keep
    // predicting while the off-thread fit runs, wait for the atomic swap.
    let reload_corpus = HolistixCorpus::generate_small(150, 99);
    let jsonl = holistix::corpus::io::to_jsonl(&reload_corpus.posts);
    let n_posts = reload_corpus.posts.len();
    let reload = HttpClient::connect(addr)
        .and_then(|mut client| client.request("POST", "/reload", Some(&jsonl)));
    match reload {
        Ok((202, body)) => println!("reload accepted: {body}"),
        Ok((status, body)) => fail(&format!("POST /reload -> {status}: {body}")),
        Err(e) => fail(&format!("POST /reload failed: {e}")),
    }
    let during = request_ok(addr, "POST", "/predict", Some(body));
    if !during.contains("probabilities") {
        fail("predict during reload carries no probabilities");
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        if server.metrics().reloads_total() >= 1 {
            break;
        }
        if std::time::Instant::now() >= deadline {
            fail("reload did not complete within 60s");
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    let metrics = request_ok(addr, "GET", "/metrics", None);
    if !metrics.contains(&format!("\"corpus_size\":{n_posts}")) {
        fail(&format!(
            "metrics do not show the reloaded corpus size {n_posts}: {metrics}"
        ));
    }
    let after = request_ok(addr, "POST", "/predict", Some(body));
    if !after.contains("probabilities") {
        fail("predict after reload carries no probabilities");
    }
    println!("reload round-trip ok ({n_posts} posts)");

    // Observability round-trip: scrape JSON then Prometheus, validate the
    // exposition format, and assert the two documents agree on counters
    // that don't move between scrapes (the scrape itself increments the
    // metrics endpoint's own request counter, so that one is excluded).
    let json_metrics = request_ok(addr, "GET", "/metrics", None);
    let document = match holistix::corpus::JsonValue::parse(&json_metrics) {
        Ok(document) => document,
        Err(e) => fail(&format!("metrics response is not JSON: {e}")),
    };
    let json_predicts = document
        .get("requests")
        .and_then(|r| r.get("predict"))
        .and_then(|v| v.as_f64())
        .unwrap_or_else(|| fail("metrics missing requests.predict"));
    let prometheus = request_ok(addr, "GET", "/metrics?format=prometheus", None);
    if let Err(violation) = validate_exposition(&prometheus) {
        fail(&format!("invalid Prometheus exposition: {violation}"));
    }
    let prom_predict_line = format!(
        "holistix_requests_total{{endpoint=\"predict\"}} {}",
        json_predicts as u64
    );
    if !prometheus.contains(&prom_predict_line) {
        fail(&format!(
            "Prometheus scrape disagrees with JSON: wanted {prom_predict_line:?}"
        ));
    }
    println!(
        "prometheus ok ({} exposition lines, predict counter matches JSON)",
        prometheus.lines().count()
    );

    // /explain on its kind's queue: the whole perturbation set (n_samples + 1
    // texts) shows up in the LR queue's texts_scored, in both formats.
    let n_samples = 50;
    let scored_before = lr_texts_scored(addr);
    let explain = request_ok(
        addr,
        "POST",
        "/explain",
        Some(&format!(
            r#"{{"text":"i feel alone and my job drains me","model":"LR","n_samples":{n_samples}}}"#
        )),
    );
    if !explain.contains("tokens") {
        fail(&format!("explain response carries no tokens: {explain}"));
    }
    let scored = lr_texts_scored(addr);
    if scored
        != (
            scored_before.0 + n_samples + 1,
            scored_before.1 + n_samples + 1,
        )
    {
        fail(&format!(
            "one explain with {n_samples} samples moved the LR queue's texts_scored \
             (JSON, Prometheus) from {scored_before:?} to {scored:?}"
        ));
    }
    println!(
        "explain ok ({} texts scored on the LR queue)",
        n_samples + 1
    );

    // The thread plan: pollers + one admin thread + one queue per kind, and
    // no handler pool, in both formats.
    let document = metrics_json(addr);
    let planned = |role: &str| {
        document
            .get("threads")
            .and_then(|t| t.get(role))
            .and_then(|v| v.as_f64())
    };
    let plan = (planned("pollers"), planned("admin"), planned("queues"));
    if plan != (Some(2.0), Some(1.0), Some(kinds.len() as f64)) || planned("handlers").is_some() {
        fail(&format!(
            "JSON thread plan (pollers, admin, queues) is {plan:?}, handlers {:?}",
            planned("handlers")
        ));
    }
    let prometheus = request_ok(addr, "GET", "/metrics?format=prometheus", None);
    let prom_total: f64 = ["pollers", "admin", "queues"]
        .iter()
        .map(|role| {
            prom_value(
                &prometheus,
                &format!("holistix_planned_threads{{role=\"{role}\"}}"),
            )
            .unwrap_or_else(|| fail(&format!("Prometheus has no {role} thread plan")))
        })
        .sum();
    if prom_value(&prometheus, "holistix_planned_threads{role=\"admin\"}") != Some(1.0)
        || prometheus.contains("role=\"handlers\"")
        || prom_total != (2 + 1 + kinds.len()) as f64
    {
        fail("Prometheus thread plan is not pollers + 1 admin + one queue per kind");
    }
    println!(
        "thread plan ok ({} planned threads: 2 pollers, 1 admin, {} queues)",
        prom_total,
        kinds.len()
    );

    // /debug/slow round-trip: the smoke's own predicts must be retained
    // with their stage breakdowns. Traces finalize at last-byte-written,
    // one poller tick after the client reads a response — poll briefly.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let slow_count = loop {
        let slow = request_ok(addr, "GET", "/debug/slow", None);
        let document = match holistix::corpus::JsonValue::parse(&slow) {
            Ok(document) => document,
            Err(e) => fail(&format!("/debug/slow response is not JSON: {e}")),
        };
        let traces = document
            .get("traces")
            .and_then(|t| t.as_array().map(<[_]>::len))
            .unwrap_or_else(|| fail("/debug/slow missing traces array"));
        if traces > 0 {
            break traces;
        }
        if std::time::Instant::now() >= deadline {
            fail("/debug/slow never retained a trace");
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    println!("debug/slow ok ({slow_count} retained traces)");

    // Admission round-trip: a second server with a zero-refill token
    // bucket (rate 0 never refills, so each connection gets exactly
    // `burst` requests — fully deterministic, no timing). The third
    // predict over one connection must draw a counted 429 with a
    // parseable Retry-After, and the shed must show up in both metrics
    // documents.
    let shed_registry = ModelRegistry::fit_synthetic(&RegistryConfig {
        kinds: vec![BaselineKind::LogisticRegression],
        profile: SpeedProfile::Tiny,
        training_posts: 90,
        seed: 7,
    });
    let shed_server = match serve(
        "127.0.0.1:0",
        shed_registry,
        ServeConfig {
            admission: AdmissionConfig {
                rate_limit: Some(RateLimitConfig {
                    rate_per_s: 0.0,
                    burst: 2.0,
                }),
                retry_after: Duration::from_secs(1),
                ..AdmissionConfig::default()
            },
            ..ServeConfig::default()
        },
    ) {
        Ok(server) => server,
        Err(e) => fail(&format!("admission server bind failed: {e}")),
    };
    let shed_addr = shed_server.addr();
    let mut client = match HttpClient::connect(shed_addr) {
        Ok(client) => client,
        Err(e) => fail(&format!("admission connect failed: {e}")),
    };
    let mut rejected = 0u64;
    for round in 0..3 {
        match client.request_full("POST", "/predict", Some(body), &[]) {
            Ok((200, _, _)) => {}
            Ok((429, _, headers)) => {
                let retry_after = headers
                    .iter()
                    .find(|(name, _)| name.eq_ignore_ascii_case("retry-after"))
                    .and_then(|(_, value)| value.trim().parse::<u64>().ok())
                    .unwrap_or_else(|| fail("429 without a whole-seconds Retry-After header"));
                if retry_after == 0 {
                    fail("Retry-After of 0 tells clients to hammer immediately");
                }
                rejected += 1;
            }
            Ok((status, response, _)) => fail(&format!(
                "admission predict {round} -> {status}: {response}"
            )),
            Err(e) => fail(&format!("admission predict {round} failed: {e}")),
        }
    }
    drop(client);
    if rejected == 0 {
        fail("3 predicts past a burst of 2 produced no 429");
    }
    let shed_json = request_ok(shed_addr, "GET", "/metrics", None);
    let document = match holistix::corpus::JsonValue::parse(&shed_json) {
        Ok(document) => document,
        Err(e) => fail(&format!("admission metrics response is not JSON: {e}")),
    };
    let json_sheds = document
        .get("admission")
        .and_then(|a| a.get("shed"))
        .and_then(|s| s.get("predict"))
        .and_then(|p| p.get("rate_limited"))
        .and_then(|v| v.as_f64())
        .unwrap_or_else(|| fail("metrics missing admission.shed.predict.rate_limited"));
    if json_sheds as u64 != rejected {
        fail(&format!(
            "JSON shed counter disagrees with the client: {json_sheds} vs {rejected} 429s"
        ));
    }
    let shed_prometheus = request_ok(shed_addr, "GET", "/metrics?format=prometheus", None);
    if let Err(violation) = validate_exposition(&shed_prometheus) {
        fail(&format!("invalid Prometheus exposition: {violation}"));
    }
    let shed_line =
        format!("holistix_shed_total{{endpoint=\"predict\",reason=\"rate_limited\"}} {rejected}");
    if !shed_prometheus.contains(&shed_line) {
        fail(&format!(
            "Prometheus scrape disagrees with JSON: wanted {shed_line:?}"
        ));
    }
    shed_server.shutdown();
    println!("admission ok ({rejected} rate-limit 429s counted in both metrics formats)");

    // Quantized-transformer round-trip: a registry mixing classical LR
    // with an i8-quantized transformer (Tiny profile keeps the fit in CI
    // smoke territory), one /predict routed to the quantized kind, and
    // the per-kind queue visible — with its `scorer_kind` label — in
    // both /metrics formats.
    let quant_corpus = HolistixCorpus::generate_small(60, 21);
    let quant_texts = quant_corpus.texts();
    let quant_labels = quant_corpus.label_indices();
    let lr = fit_scorer(
        BaselineKind::LogisticRegression,
        SpeedProfile::Tiny,
        &quant_texts,
        &quant_labels,
        21,
        1,
    );
    let f64_scorer = TransformerScorer::fit(
        ModelKind::MentalBert,
        SpeedProfile::Tiny,
        &quant_texts,
        &quant_labels,
        21,
    );
    let quantized: std::sync::Arc<dyn Scorer> =
        std::sync::Arc::new(QuantizedScorer::from_transformer(&f64_scorer));
    let quant_kind = quantized.kind().name();
    let quant_registry = ModelRegistry::from_scorers(vec![lr, quantized]);
    let quant_server = match serve("127.0.0.1:0", quant_registry, ServeConfig::default()) {
        Ok(server) => server,
        Err(e) => fail(&format!("quantized server bind failed: {e}")),
    };
    let quant_addr = quant_server.addr();
    let quant_body = format!(
        "{{\"texts\":[\"i feel alone and cut off from everyone\"],\"model\":\"{quant_kind}\"}}"
    );
    let quant_predict = request_ok(quant_addr, "POST", "/predict", Some(&quant_body));
    if !quant_predict.contains("probabilities") {
        fail("quantized predict response carries no probabilities");
    }
    let quant_json = request_ok(quant_addr, "GET", "/metrics", None);
    let document = match holistix::corpus::JsonValue::parse(&quant_json) {
        Ok(document) => document,
        Err(e) => fail(&format!("quantized metrics response is not JSON: {e}")),
    };
    let scored = document
        .get("queues")
        .and_then(|q| q.get(&quant_kind))
        .and_then(|k| k.get("texts_scored"))
        .and_then(|v| v.as_f64())
        .unwrap_or_else(|| fail(&format!("metrics missing queues.{quant_kind}.texts_scored")));
    if scored < 1.0 {
        fail(&format!(
            "quantized queue scored {scored} texts after one predict"
        ));
    }
    let quant_prometheus = request_ok(quant_addr, "GET", "/metrics?format=prometheus", None);
    if let Err(violation) = validate_exposition(&quant_prometheus) {
        fail(&format!("invalid Prometheus exposition: {violation}"));
    }
    let quant_series = format!(
        "holistix_queue_texts_scored_total{{kind=\"{quant_kind}\",scorer_kind=\"quantized\"}}"
    );
    if !quant_prometheus.contains(&quant_series) {
        fail(&format!(
            "Prometheus scrape is missing the quantized queue series {quant_series:?}"
        ));
    }
    quant_server.shutdown();
    println!("quantized ok ({quant_kind} served, per-kind queue in both metrics formats)");

    server.shutdown();
    println!("smoke ok");
}
