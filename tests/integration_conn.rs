//! Connection-layer integration tests for the nonblocking multiplexer:
//! clients that write raw bytes to exercise exactly the cases a blocking-read
//! server never sees — two requests in one segment (pipelining), one byte per
//! segment (incremental framing), hostile framing (oversized heads, garbage
//! request lines, framing the parser cannot delimit) that must draw a `400`
//! without taking the poller down, and requests that stall partway, which
//! the idle timer must evict.

use holistix::{BaselineKind, SpeedProfile};
use holistix_corpus::json::JsonValue;
use holistix_serve::{
    serve, BatchConfig, HttpClient, KeepAliveConfig, ModelRegistry, RegistryConfig, ServeConfig,
    ServerHandle,
};
use std::time::{Duration, Instant};

fn start_server(keep_alive: KeepAliveConfig) -> ServerHandle {
    let registry = ModelRegistry::fit_synthetic(&RegistryConfig {
        kinds: vec![BaselineKind::LogisticRegression],
        profile: SpeedProfile::Tiny,
        training_posts: 120,
        seed: 29,
    });
    let config = ServeConfig {
        batch: BatchConfig { max_batch: 8 },
        keep_alive,
        ..ServeConfig::default()
    };
    serve("127.0.0.1:0", registry, config).expect("bind loopback")
}

/// `requests.errors` from the server's own metrics.
fn request_errors(server: &ServerHandle) -> f64 {
    let snapshot = server.metrics().snapshot();
    let requests = snapshot.get("requests").unwrap();
    requests.get("errors").unwrap().as_f64().unwrap()
}

fn predict_request(text: &str) -> String {
    let body = format!("{{\"text\":{}}}", holistix::corpus::json::json_escape(text));
    format!(
        "POST /predict HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        body
    )
}

/// The pipelining bar: two complete requests in one `write` are answered in
/// request order, and each body is byte-identical to the same request sent
/// sequentially on its own connection — pipelining changes scheduling, never
/// answers. The `/metrics` pipelined counter proves the overlap happened.
#[test]
fn two_requests_in_one_write_answer_in_order_bit_identically() {
    let server = start_server(KeepAliveConfig::default());
    let addr = server.addr();

    let text_a = "i feel so alone lately and nobody calls";
    let text_b = "my job exhausts me beyond what i can carry";
    // Sequential reference answers, one connection each.
    let body_a = format!(
        "{{\"text\":{}}}",
        holistix::corpus::json::json_escape(text_a)
    );
    let body_b = format!(
        "{{\"text\":{}}}",
        holistix::corpus::json::json_escape(text_b)
    );
    let (status, want_a) = HttpClient::connect(addr)
        .expect("connect")
        .request("POST", "/predict", Some(&body_a))
        .unwrap();
    assert_eq!(status, 200, "{want_a}");
    let (status, want_b) = HttpClient::connect(addr)
        .expect("connect")
        .request("POST", "/predict", Some(&body_b))
        .unwrap();
    assert_eq!(status, 200, "{want_b}");
    assert_ne!(want_a, want_b, "texts must produce distinguishable answers");

    // Both requests in a single write; the poller parses both from one read
    // and dispatches the second while the first is still in flight.
    let mut client = HttpClient::connect(addr).expect("connect");
    let pipelined = format!("{}{}", predict_request(text_a), predict_request(text_b));
    client.send_raw(pipelined.as_bytes()).expect("write");
    let (status_a, got_a, _) = client.read_response().expect("first response");
    let (status_b, got_b, _) = client.read_response().expect("second response");
    assert_eq!(status_a, 200, "{got_a}");
    assert_eq!(status_b, 200, "{got_b}");
    assert_eq!(got_a, want_a, "first pipelined answer diverged");
    assert_eq!(got_b, want_b, "second pipelined answer diverged");
    drop(client);

    assert!(
        server.metrics().connections().pipelined_total() >= 1,
        "the second request never overlapped the first"
    );
    server.shutdown();
}

/// The incremental-framing bar: a request delivered one byte per segment
/// (every byte its own `write`, TCP_NODELAY on) parses and answers exactly
/// like a request that arrived whole.
#[test]
fn one_byte_at_a_time_request_parses_over_tcp() {
    let server = start_server(KeepAliveConfig::default());

    let mut client = HttpClient::connect(server.addr()).expect("connect");
    let request = predict_request("i feel alone");
    for byte in request.as_bytes() {
        client
            .send_raw(std::slice::from_ref(byte))
            .expect("write byte");
        // A real pause between segments, so coalescing cannot hide the
        // fragmentation from the server.
        std::thread::sleep(Duration::from_micros(200));
    }
    let (status, body, _) = client.read_response().expect("response");
    assert_eq!(status, 200, "{body}");
    let document = JsonValue::parse(&body).expect("predict response is JSON");
    let results = document.get("results").unwrap().as_array().unwrap();
    assert_eq!(results.len(), 1);
    drop(client);
    server.shutdown();
}

/// The robustness bar: hostile framing draws exactly one `400` (and a
/// close), counted once, and the poller that absorbed it keeps serving
/// everyone else.
#[test]
fn oversized_and_malformed_requests_get_400_without_killing_the_poller() {
    let server = start_server(KeepAliveConfig::default());
    let addr = server.addr();

    let endless_head = vec![b'a'; 20 << 10];
    let huge = format!(
        "POST /predict HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
        8 << 20
    );
    let chunked = "POST /predict HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n";
    let hostile: [(&[u8], &str); 4] = [
        // Garbage request line.
        (b"WHAT\r\n\r\n", "malformed request"),
        // A head that never terminates, past the 16 KiB head cap.
        (&endless_head, "head exceeds"),
        // A declared body over the 1 MiB cap (rejected from the head alone —
        // the server never waits for, or buffers, the body).
        (huge.as_bytes(), "exceeds"),
        // A chunked body: the server frames bodies by Content-Length only,
        // so the body's end is unknown. Read as a bodiless request, its
        // chunks would parse as a second request and draw a second answer.
        (chunked.as_bytes(), "Transfer-Encoding"),
    ];
    for (bytes, reason) in hostile {
        let errors = request_errors(&server);
        let mut client = HttpClient::connect(addr).expect("connect");
        client.send_raw(bytes).expect("write");
        let (status, body, _) = client.read_response().expect("response");
        assert_eq!(status, 400, "{body}");
        assert!(body.contains(reason), "{body}");
        // Exactly one answer, counted once: the server closes after it.
        assert!(client.read_response().is_err(), "second answer: {reason}");
        assert_eq!(request_errors(&server), errors + 1.0, "{reason}");
    }

    // The server shrugged them all off: a well-formed client still answers,
    // and the errors were counted.
    let mut client = HttpClient::connect(addr).expect("connect");
    let (status, body) = client.request("GET", "/healthz", None).unwrap();
    assert_eq!(status, 200, "{body}");
    let health = JsonValue::parse(&body).unwrap();
    assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));
    let errors = request_errors(&server);
    assert!(errors >= 3.0, "expected ≥3 recorded errors, got {errors}");
    server.shutdown();
}

/// The slow-loris bar: a client that sends part of a request and goes
/// silent (a head cut short, a body cut short) is closed by the idle timer
/// like an idle one, and each eviction is counted.
#[test]
fn requests_stalled_partway_are_evicted_and_counted() {
    let server = start_server(KeepAliveConfig {
        idle_timeout: Duration::from_millis(100),
        ..KeepAliveConfig::default()
    });
    let stalled: Vec<HttpClient> = [
        &b"GET /healthz HTTP/1.1\r\n"[..],
        b"POST /predict HTTP/1.1\r\nContent-Length: 40\r\n\r\n{\"te",
    ]
    .into_iter()
    .map(|partial| {
        let mut client = HttpClient::connect(server.addr()).expect("connect");
        client.send_raw(partial).expect("write");
        client
    })
    .collect();
    let metrics = server.metrics();
    let connections = metrics.connections();
    let deadline = Instant::now() + Duration::from_secs(10);
    while connections.idle_evictions_total() < 2 || connections.open() > 0 {
        assert!(
            Instant::now() < deadline,
            "stalled connections still open: {} open, {} evicted",
            connections.open(),
            connections.idle_evictions_total()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(connections.idle_evictions_total(), 2);
    // The server closed them: each client reads EOF, not an answer.
    for mut client in stalled {
        assert!(client.read_response().is_err());
    }
    server.shutdown();
}
