//! Admission-control integration tests: the overload bars for `holistix-serve`.
//!
//! Every test is deterministic — saturation is produced by a flag-gated slow
//! scorer (the PR 5 pattern), never by a sleep, so the assertions hold on any
//! machine: a queue filled to its cap rejects the next request with `429` and
//! a parseable `Retry-After` while the *other* kind keeps answering
//! bit-identically; `/explain` sheds before `/predict`; an explain reserves
//! its whole perturbation set against its kind's queue, so an explain flood
//! sheds instead of starving the other routes; a per-connection token bucket
//! admits exactly its burst; and the global intake valve stops reading new
//! requests until the backlog drains.

use holistix::corpus::JsonValue;
use holistix::{BaselineKind, FittedBaseline, Scorer, SpeedProfile};
use holistix_corpus::HolistixCorpus;
use holistix_explain::{LimeConfig, LimeExplainer};
use holistix_serve::{
    serve, AdmissionConfig, BatchConfig, Endpoint, HttpClient, ModelRegistry, RateLimitConfig,
    ServeConfig, ShedReason,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A scorer that blocks inside `probabilities` until the test releases it
/// (with a hard deadline so a failing test cannot wedge the queue thread
/// forever). Registered as the BERT analogue; while it is gated, every job
/// sent to its queue holds its depth reservation — which is how these tests
/// drive a queue to an exact depth with no timing assumptions.
struct GatedScorer {
    release: Arc<AtomicBool>,
}

impl Scorer for GatedScorer {
    fn probabilities(&self, texts: &[&str]) -> Vec<Vec<f64>> {
        let deadline = Instant::now() + Duration::from_secs(20);
        while !self.release.load(Ordering::SeqCst) && Instant::now() < deadline {
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

/// Poll `check` until it holds — a progress deadline, not a timing
/// assumption: the condition is driven by a flag or a counter, so the only
/// way to miss the (generous) deadline is a genuine bug.
fn wait_until(what: &str, check: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !check() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The `Retry-After` header's value, which must parse as whole seconds.
fn retry_after_secs(headers: &[(String, String)]) -> u64 {
    let value = headers
        .iter()
        .find(|(name, _)| name.eq_ignore_ascii_case("retry-after"))
        .map(|(_, value)| value.as_str())
        .expect("429 without a Retry-After header");
    value
        .trim()
        .parse()
        .unwrap_or_else(|_| panic!("unparseable Retry-After {value:?}"))
}

/// The tentpole bar: a queue gated mid-score and filled to its cap draws
/// `429 + Retry-After` on the next enqueue — while `/predict` on the *other*
/// kind answers bit-identically (cross-kind isolation) and `/explain` sheds
/// first (graceful degradation). Releasing the gate completes every admitted
/// request; nothing admitted is lost, nothing rejected was enqueued.
#[test]
fn full_queue_rejects_with_retry_after_while_other_kind_serves() {
    let corpus = HolistixCorpus::generate_small(120, 29);
    let texts = corpus.texts();
    let labels = corpus.label_indices();
    let lr = Arc::new(FittedBaseline::fit(
        BaselineKind::LogisticRegression,
        SpeedProfile::Tiny,
        &texts,
        &labels,
        29,
    ));
    let release = Arc::new(AtomicBool::new(false));
    let registry = ModelRegistry::from_scorers(vec![
        lr.clone() as Arc<dyn Scorer>,
        Arc::new(GatedScorer {
            release: Arc::clone(&release),
        }),
    ]);
    let server = serve(
        "127.0.0.1:0",
        registry,
        ServeConfig {
            batch: BatchConfig { max_batch: 8 },
            admission: AdmissionConfig {
                max_queue_depth: 3,
                // Same threshold: once BERT holds 3 jobs, /explain sheds too.
                explain_shed_depth: 3,
                // Far above anything here — the valve must stay open so the
                // 429s are observable (a closed valve rejects nothing, it
                // just stops reading).
                global_intake_limit: 1000,
                rate_limit: None,
                retry_after: Duration::from_secs(2),
            },
            ..ServeConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.addr();
    let metrics = server.metrics();

    crossbeam::thread::scope(|scope| {
        // Fill the gated queue to exactly its cap: 3 single-text requests,
        // each blocking on a reply that cannot come until the gate opens.
        for i in 0..3 {
            scope.spawn(move |_| {
                let (status, body) = HttpClient::connect(addr)
                    .expect("connect")
                    .request(
                        "POST",
                        "/predict",
                        Some(r#"{"text":"hold the queue","model":"BERT"}"#),
                    )
                    .expect("admitted predict");
                assert_eq!(status, 200, "admitted request {i}: {body}");
                let document = JsonValue::parse(&body).unwrap();
                let row = document.get("results").unwrap().as_array().unwrap()[0]
                    .get("probabilities")
                    .unwrap()
                    .as_array()
                    .unwrap()
                    .iter()
                    .map(|p| p.as_f64().unwrap())
                    .sum::<f64>();
                assert!((row - 1.0).abs() < 1e-9);
            });
        }
        // Depth counts up at admission (before the drain loop can see the
        // jobs), so depth == 3 proves all three reservations are held.
        wait_until("the BERT queue to fill to its cap", || {
            metrics.queue("BERT", "transformer").depth() == 3
        });

        // The 4th draws 429 with a parseable Retry-After, and nothing of it
        // was enqueued (depth stays exactly at the cap).
        let mut client = HttpClient::connect(addr).expect("connect");
        let (status, body, headers) = client
            .request_full(
                "POST",
                "/predict",
                Some(r#"{"text":"one too many","model":"BERT"}"#),
                &[],
            )
            .expect("shed predict");
        assert_eq!(status, 429, "{body}");
        assert!(body.contains("full"), "{body}");
        assert_eq!(retry_after_secs(&headers), 2);
        assert_eq!(metrics.queue("BERT", "transformer").depth(), 3);

        // Cross-kind isolation: LR admits and answers bit-identically to
        // direct scoring while BERT is saturated.
        let text = texts[0];
        let body = format!(
            "{{\"text\":{},\"model\":\"LR\"}}",
            holistix::corpus::json::json_escape(text)
        );
        let (status, response) = client
            .request("POST", "/predict", Some(&body))
            .expect("LR predict");
        assert_eq!(status, 200, "{response}");
        let document = JsonValue::parse(&response).unwrap();
        let got: Vec<f64> = document.get("results").unwrap().as_array().unwrap()[0]
            .get("probabilities")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|p| p.as_f64().unwrap())
            .collect();
        let want = lr.probabilities_one(text);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.to_bits(), w.to_bits(), "LR row diverged under load");
        }

        // Graceful degradation: aggregate depth (3) is at the explain
        // threshold, so /explain sheds while /predict on LR still serves.
        let (status, body, headers) = client
            .request_full("POST", "/explain", Some(r#"{"text":"explain me"}"#), &[])
            .expect("shed explain");
        assert_eq!(status, 429, "{body}");
        assert!(retry_after_secs(&headers) >= 1);

        // The sheds are attributed per endpoint and reason, in the
        // in-process counters and in the /metrics JSON.
        assert_eq!(
            metrics
                .admission()
                .shed_count(Endpoint::Predict, ShedReason::QueueFull),
            1
        );
        assert_eq!(
            metrics
                .admission()
                .shed_count(Endpoint::Explain, ShedReason::Degraded),
            1
        );
        let (status, body) = client.request("GET", "/metrics", None).unwrap();
        assert_eq!(status, 200);
        let document = JsonValue::parse(&body).unwrap();
        let admission = document.get("admission").unwrap();
        assert_eq!(
            admission.get("aggregate_depth").unwrap().as_f64(),
            Some(3.0)
        );
        let shed = admission.get("shed").unwrap();
        assert_eq!(
            shed.get("predict")
                .unwrap()
                .get("queue_full")
                .unwrap()
                .as_f64(),
            Some(1.0)
        );
        assert_eq!(
            shed.get("explain")
                .unwrap()
                .get("degraded")
                .unwrap()
                .as_f64(),
            Some(1.0)
        );
        assert_eq!(
            admission
                .get("limits")
                .unwrap()
                .get("max_queue_depth")
                .unwrap()
                .as_f64(),
            Some(3.0)
        );
        drop(client);

        // Open the gate: every admitted request completes (asserted in the
        // client threads) and the backlog drains to zero.
        release.store(true, Ordering::SeqCst);
    })
    .expect("admission scope failed");

    wait_until("the BERT queue to drain", || {
        metrics.queue("BERT", "transformer").depth() == 0
    });
    server.shutdown();
}

/// An explain flood against a gated stub, under the default admission and
/// LIME settings: each admitted explain reserves its whole perturbation set
/// (201 texts) on the stub's queue, so once the queue holds three of them
/// the rest shed at `explain_shed_depth` (512) — and while the three are
/// gated, LR `/predict` and `/healthz` still answer, because no route waits
/// on a thread the explains hold. After the release the admitted explains
/// answer exactly what LIME answers directly, and the stub's queue counted
/// every text LIME scored.
#[test]
fn explain_flood_reserves_queue_depth_and_sheds_past_the_threshold() {
    let corpus = HolistixCorpus::generate_small(120, 29);
    let texts = corpus.texts();
    let labels = corpus.label_indices();
    let lr = Arc::new(FittedBaseline::fit(
        BaselineKind::LogisticRegression,
        SpeedProfile::Tiny,
        &texts,
        &labels,
        29,
    ));
    let release = Arc::new(AtomicBool::new(false));
    let registry = ModelRegistry::from_scorers(vec![
        lr.clone() as Arc<dyn Scorer>,
        Arc::new(GatedScorer {
            release: Arc::clone(&release),
        }),
    ]);
    let server = serve("127.0.0.1:0", registry, ServeConfig::default()).expect("bind loopback");
    let addr = server.addr();
    let metrics = server.metrics();
    let stub = metrics.queue("BERT", "transformer");
    let degraded = || {
        metrics
            .admission()
            .shed_count(Endpoint::Explain, ShedReason::Degraded)
    };
    let text = "i feel alone and my job drains me every single day";
    let body = format!(
        "{{\"text\":{},\"model\":\"BERT\"}}",
        holistix::corpus::json::json_escape(text)
    );

    let answers = crossbeam::thread::scope(|scope| {
        let mut explains = Vec::new();
        for i in 0..8 {
            let (depth, shed) = (stub.depth(), degraded());
            let body = &body;
            explains.push(scope.spawn(move |_| {
                let mut client = HttpClient::connect(addr).expect("connect");
                client
                    .request_full("POST", "/explain", Some(body), &[])
                    .expect("explain")
            }));
            wait_until(&format!("explain {i} to be admitted or shed"), || {
                stub.depth() > depth || degraded() > shed
            });
        }
        // Three perturbation sets hold the stub's queue; the rest shed.
        assert_eq!(stub.depth(), 603);
        assert_eq!(degraded(), 5);

        // While the gate holds, the other routes answer.
        let mut client = HttpClient::connect(addr).expect("connect");
        let body = format!(
            "{{\"text\":{},\"model\":\"LR\"}}",
            holistix::corpus::json::json_escape(texts[0])
        );
        let (status, response) = client.request("POST", "/predict", Some(&body)).unwrap();
        assert_eq!(status, 200, "{response}");
        let document = JsonValue::parse(&response).unwrap();
        let got: Vec<u64> = document.get("results").unwrap().as_array().unwrap()[0]
            .get("probabilities")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|p| p.as_f64().unwrap().to_bits())
            .collect();
        let want: Vec<u64> = lr
            .probabilities_one(texts[0])
            .iter()
            .map(|p| p.to_bits())
            .collect();
        assert_eq!(got, want, "LR row diverged under the explain flood");
        let (status, response) = client.request("GET", "/healthz", None).unwrap();
        assert_eq!(status, 200, "{response}");

        release.store(true, Ordering::SeqCst);
        explains
            .into_iter()
            .map(|explain| explain.join().expect("explain client"))
            .collect::<Vec<_>>()
    })
    .expect("explain flood scope failed");

    let gated: &dyn Scorer = &GatedScorer { release };
    let direct = LimeExplainer::new(LimeConfig::default()).explain(gated, text, None);
    let (admitted, shed): (Vec<_>, Vec<_>) =
        answers.iter().partition(|(status, _, _)| *status == 200);
    assert_eq!(admitted.len(), 3);
    for (_, response, _) in admitted {
        let document = JsonValue::parse(response).unwrap();
        assert_eq!(
            document.get("target_class").unwrap().as_usize(),
            Some(direct.target_class)
        );
        assert_eq!(
            document
                .get("target_probability")
                .unwrap()
                .as_f64()
                .map(f64::to_bits),
            Some(direct.target_probability.to_bits())
        );
        let tokens = document.get("tokens").unwrap().as_array().unwrap();
        assert_eq!(tokens.len(), LimeConfig::default().top_k);
        for (served, (token, weight)) in tokens.iter().zip(&direct.token_weights) {
            assert_eq!(served.get("token").unwrap().as_str(), Some(token.as_str()));
            assert_eq!(
                served.get("weight").unwrap().as_f64().map(f64::to_bits),
                Some(weight.to_bits())
            );
        }
    }
    assert_eq!(shed.len(), 5);
    for (status, response, headers) in shed {
        assert_eq!(*status, 429, "{response}");
        assert!(retry_after_secs(headers) >= 1);
    }
    let snapshot = metrics.snapshot();
    let queue = snapshot.get("queues").unwrap().get("BERT").unwrap();
    assert_eq!(queue.get("texts_scored").unwrap().as_f64(), Some(603.0));
    assert_eq!(queue.get("depth").unwrap().as_f64(), Some(0.0));
    server.shutdown();
}

/// The per-connection token bucket: with a zero refill rate the bucket is
/// pure burst, so one connection gets exactly `burst` requests and then 429s
/// (connection still open, framing intact), while a fresh connection mints a
/// fresh bucket.
#[test]
fn token_bucket_admits_exactly_the_burst_per_connection() {
    let registry = ModelRegistry::fit_synthetic(&holistix_serve::RegistryConfig {
        kinds: vec![BaselineKind::LogisticRegression],
        profile: SpeedProfile::Tiny,
        training_posts: 90,
        seed: 3,
    });
    let server = serve(
        "127.0.0.1:0",
        registry,
        ServeConfig {
            admission: AdmissionConfig {
                // rate 0 never refills: the bucket admits exactly `burst`
                // requests per connection, ever — fully deterministic.
                rate_limit: Some(RateLimitConfig {
                    rate_per_s: 0.0,
                    burst: 2.0,
                }),
                ..AdmissionConfig::default()
            },
            ..ServeConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.addr();

    let mut client = HttpClient::connect(addr).expect("connect");
    for i in 0..2 {
        let (status, body) = client.request("GET", "/healthz", None).unwrap();
        assert_eq!(status, 200, "burst request {i}: {body}");
    }
    // The 3rd and every later request on this connection is shed — but the
    // connection itself survives (429 is an answer, not a hangup).
    for _ in 0..2 {
        let (status, body, headers) = client.request_full("GET", "/healthz", None, &[]).unwrap();
        assert_eq!(status, 429, "{body}");
        assert!(retry_after_secs(&headers) >= 1);
    }
    drop(client);

    // A new connection starts a fresh bucket.
    let mut fresh = HttpClient::connect(addr).expect("reconnect");
    let (status, _) = fresh.request("GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);
    drop(fresh);

    assert_eq!(
        server
            .metrics()
            .admission()
            .shed_count(Endpoint::Health, ShedReason::RateLimited),
        2
    );
    server.shutdown();
}

/// The global intake valve: once the aggregate backlog reaches the limit,
/// pollers stop reading — a new client's request sits unread (bounded
/// negative check) until the backlog drains, then completes normally. The
/// valve rejects nothing; it converts overload into TCP backpressure.
#[test]
fn intake_valve_pauses_reads_until_the_backlog_drains() {
    let release = Arc::new(AtomicBool::new(false));
    let registry = ModelRegistry::from_scorers(vec![Arc::new(GatedScorer {
        release: Arc::clone(&release),
    }) as Arc<dyn Scorer>]);
    let server = serve(
        "127.0.0.1:0",
        registry,
        ServeConfig {
            batch: BatchConfig { max_batch: 8 },
            admission: AdmissionConfig {
                global_intake_limit: 2,
                // Only the valve is under test: keep the shedding bounds out
                // of the way.
                max_queue_depth: 1000,
                explain_shed_depth: 1000,
                rate_limit: None,
                retry_after: Duration::from_secs(1),
            },
            ..ServeConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.addr();
    let metrics = server.metrics();

    crossbeam::thread::scope(|scope| {
        // Two admitted-and-gated jobs push the aggregate depth to the limit.
        for _ in 0..2 {
            scope.spawn(move |_| {
                let (status, body) = HttpClient::connect(addr)
                    .expect("connect")
                    .request("POST", "/predict", Some(r#"{"text":"hold"}"#))
                    .expect("gated predict");
                assert_eq!(status, 200, "{body}");
            });
        }
        // The valve state is maintained by the pollers' build_set pass, so
        // observing it closed proves a poller has already withdrawn read
        // interest everywhere.
        wait_until("the intake valve to close", || {
            metrics.admission().intake_closed()
        });

        // A client arriving now connects (kernel backlog) but its request
        // is not read, so it cannot complete while the valve is closed.
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        scope.spawn(move |_| {
            let (status, body) = HttpClient::connect(addr)
                .expect("connect")
                .request("GET", "/healthz", None)
                .expect("post-drain healthz");
            assert_eq!(status, 200, "{body}");
            done_tx.send(()).unwrap();
        });
        // Bounded one-direction check: a broken valve answers /healthz in
        // microseconds, so a full second of silence is decisive; a working
        // valve never answers, and the release below keeps the test finite.
        assert!(
            done_rx.recv_timeout(Duration::from_secs(1)).is_err(),
            "request was served while the intake valve was closed"
        );

        // Draining the backlog reopens the valve; the parked client is read
        // and served.
        release.store(true, Ordering::SeqCst);
        done_rx
            .recv_timeout(Duration::from_secs(20))
            .expect("valve never reopened");
    })
    .expect("valve scope failed");

    assert!(metrics.admission().intake_closures_total() >= 1);
    wait_until("the valve to reopen", || {
        !metrics.admission().intake_closed()
    });
    server.shutdown();
}
