//! Connection-layer integration tests for the nonblocking multiplexer: raw
//! TCP clients that exercise exactly the cases a blocking-read server never
//! sees — two requests in one segment (pipelining), one byte per segment
//! (incremental framing), and hostile framing (oversized heads, garbage
//! request lines) that must draw a `400` without taking the poller down.

use holistix::{BaselineKind, Scorer, SpeedProfile};
use holistix_corpus::json::JsonValue;
use holistix_serve::{
    http_request, serve, BatchConfig, ModelRegistry, RegistryConfig, ServeConfig, ServerHandle,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn start_server() -> (ServerHandle, Arc<dyn Scorer>) {
    let registry = ModelRegistry::fit_synthetic(&RegistryConfig {
        kinds: vec![BaselineKind::LogisticRegression],
        profile: SpeedProfile::Tiny,
        training_posts: 120,
        seed: 29,
    });
    let model = registry.get(BaselineKind::LogisticRegression).unwrap();
    let config = ServeConfig {
        batch: BatchConfig { max_batch: 8 },
        ..ServeConfig::default()
    };
    let server = serve("127.0.0.1:0", registry, config).expect("bind loopback");
    (server, model)
}

/// Read exactly one `Content-Length`-framed response off the wire.
fn read_response(reader: &mut BufReader<&TcpStream>) -> (u16, String) {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .unwrap_or_else(|| panic!("bad status line {status_line:?}"))
        .parse()
        .expect("numeric status");
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header).expect("header line");
        if header == "\r\n" || header == "\n" || header.is_empty() {
            break;
        }
        if let Some(rest) = header.to_ascii_lowercase().strip_prefix("content-length:") {
            content_length = rest.trim().parse().expect("content-length value");
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("response body");
    (status, String::from_utf8(body).expect("UTF-8 body"))
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
    let (server, _model) = start_server();
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
    let (status, want_a) = http_request(addr, "POST", "/predict", Some(&body_a)).unwrap();
    assert_eq!(status, 200, "{want_a}");
    let (status, want_b) = http_request(addr, "POST", "/predict", Some(&body_b)).unwrap();
    assert_eq!(status, 200, "{want_b}");
    assert_ne!(want_a, want_b, "texts must produce distinguishable answers");

    // Both requests in a single write; the poller parses both from one read
    // and dispatches the second while the first is still in flight.
    let stream = TcpStream::connect(addr).expect("connect");
    let pipelined = format!("{}{}", predict_request(text_a), predict_request(text_b));
    (&stream).write_all(pipelined.as_bytes()).expect("write");
    let mut reader = BufReader::new(&stream);
    let (status_a, got_a) = read_response(&mut reader);
    let (status_b, got_b) = read_response(&mut reader);
    assert_eq!(status_a, 200, "{got_a}");
    assert_eq!(status_b, 200, "{got_b}");
    assert_eq!(got_a, want_a, "first pipelined answer diverged");
    assert_eq!(got_b, want_b, "second pipelined answer diverged");
    drop(stream);

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
    let (server, _model) = start_server();
    let addr = server.addr();

    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let request = predict_request("i feel alone");
    for byte in request.as_bytes() {
        (&stream)
            .write_all(std::slice::from_ref(byte))
            .expect("write byte");
        // A real pause between segments, so coalescing cannot hide the
        // fragmentation from the server.
        std::thread::sleep(Duration::from_micros(200));
    }
    let mut reader = BufReader::new(&stream);
    let (status, body) = read_response(&mut reader);
    assert_eq!(status, 200, "{body}");
    let document = JsonValue::parse(&body).expect("predict response is JSON");
    let results = document.get("results").unwrap().as_array().unwrap();
    assert_eq!(results.len(), 1);
    drop(stream);
    server.shutdown();
}

/// The robustness bar: hostile framing draws a `400` (and a close), and the
/// poller that absorbed it keeps serving everyone else.
#[test]
fn oversized_and_malformed_requests_get_400_without_killing_the_poller() {
    let (server, _model) = start_server();
    let addr = server.addr();

    // Garbage request line.
    let stream = TcpStream::connect(addr).expect("connect");
    (&stream).write_all(b"WHAT\r\n\r\n").expect("write");
    let (status, body) = read_response(&mut BufReader::new(&stream));
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("malformed request"), "{body}");
    drop(stream);

    // A head that never terminates, past the 16 KiB head cap.
    let stream = TcpStream::connect(addr).expect("connect");
    let endless_head = vec![b'a'; 20 << 10];
    (&stream).write_all(&endless_head).expect("write");
    let (status, body) = read_response(&mut BufReader::new(&stream));
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("head exceeds"), "{body}");
    drop(stream);

    // A declared body over the 1 MiB cap (rejected from the head alone —
    // the server never waits for, or buffers, the body).
    let stream = TcpStream::connect(addr).expect("connect");
    let huge = format!(
        "POST /predict HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
        8 << 20
    );
    (&stream).write_all(huge.as_bytes()).expect("write");
    let (status, body) = read_response(&mut BufReader::new(&stream));
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("exceeds"), "{body}");
    drop(stream);

    // The server shrugged all three off: a well-formed client still answers,
    // and the errors were counted.
    let (status, body) = http_request(addr, "GET", "/healthz", None).unwrap();
    assert_eq!(status, 200, "{body}");
    let health = JsonValue::parse(&body).unwrap();
    assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));
    let snapshot = server.metrics().snapshot();
    let errors = snapshot
        .get("requests")
        .unwrap()
        .get("errors")
        .unwrap()
        .as_f64()
        .unwrap();
    assert!(errors >= 3.0, "expected ≥3 recorded errors, got {errors}");
    server.shutdown();
}
