//! The traced run's view into the layers, taken only from outside the
//! program: the server's own `/metrics` histograms and counters (read before
//! and after a phase and subtracted), spans the benchmark records around
//! every scorer call ([`TracedScorer`]), and a replay of the same texts at
//! the observed call sizes through each layer's public functions.

use crate::workload::{self, Models};
use holistix::corpus::json::JsonValue;
use holistix::explain::{LimeConfig, LimeExplainer, ProbabilityModel};
use holistix::linalg::{FeatureMatrix, Rng64};
use holistix::ml::Classifier;
use holistix::pipeline::ClassicalClassifier;
use holistix::tensor::Graph;
use holistix::{BaselineKind, FittedBaseline, Scorer};
use holistix_serve::{HistogramSnapshot, ServerHandle};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The per-layer metric each stage of the server's request traces is
/// reported as, in stamp order (dispatch, prepare, queue wait, score,
/// respond, write).
pub const STAGE_METRICS: [&str; 6] = [
    "server.dispatch_us",
    "server.prepare_us",
    "server.queue_wait_us",
    "server.score_us",
    "server.respond_us",
    "conn.write_us",
];

/// One scorer call as the wrapper saw it.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub texts: usize,
    pub duration: Duration,
}

/// A scorer that records a span around every `probabilities` call and
/// otherwise delegates unchanged: `kind`, `labels` and `cost_hint` pass
/// through, so the server sizes its batch windows exactly as it would for
/// the bare scorer.
pub struct TracedScorer {
    inner: Arc<dyn Scorer>,
    spans: Mutex<Vec<Span>>,
}

impl TracedScorer {
    pub fn new(inner: Arc<dyn Scorer>) -> Self {
        Self {
            inner,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// The spans recorded since the last call.
    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span log poisoned"))
    }
}

impl Scorer for TracedScorer {
    fn probabilities(&self, texts: &[&str]) -> Vec<Vec<f64>> {
        let started = Instant::now();
        let rows = self.inner.probabilities(texts);
        let duration = started.elapsed();
        self.spans.lock().expect("span log poisoned").push(Span {
            texts: texts.len(),
            duration,
        });
        rows
    }

    fn kind(&self) -> BaselineKind {
        self.inner.kind()
    }

    fn cost_hint(&self) -> Duration {
        self.inner.cost_hint()
    }

    fn labels(&self) -> Vec<String> {
        self.inner.labels()
    }
}

/// Cumulative count and sum of one histogram in the server's JSON document.
#[derive(Debug, Clone, Copy, Default)]
struct CountSum {
    count: f64,
    sum: f64,
}

impl CountSum {
    fn read(histogram: Option<&JsonValue>) -> Self {
        let field = |name: &str| {
            histogram
                .and_then(|h| h.get(name))
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0)
        };
        let count = field("count");
        Self {
            count,
            sum: count * field("mean"),
        }
    }

    fn minus(self, earlier: Self) -> Self {
        Self {
            count: self.count - earlier.count,
            sum: self.sum - earlier.sum,
        }
    }

    fn mean(self) -> f64 {
        if self.count > 0.0 {
            self.sum / self.count
        } else {
            0.0
        }
    }
}

/// One batch queue's cumulative counters.
#[derive(Debug, Clone, Default)]
struct QueueCounters {
    kind: String,
    queue_wait: CountSum,
    score: CountSum,
    texts: f64,
    batches: f64,
}

/// The server's cumulative counters at one instant, as `/metrics` reports
/// them.
#[derive(Debug, Clone)]
pub struct ServerCounters {
    latency: HistogramSnapshot,
    stages: Vec<HistogramSnapshot>,
    wakeups: f64,
    pipelined: f64,
    queues: Vec<QueueCounters>,
    shed: u64,
    intake_closures: u64,
}

impl ServerCounters {
    pub fn read(server: &ServerHandle, endpoint: &str) -> Self {
        let metrics = server.metrics();
        let document = metrics.snapshot();
        let number = |section: &str, name: &str| {
            document
                .get(section)
                .and_then(|s| s.get(name))
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0)
        };
        let queues = match document.get("queues") {
            Some(JsonValue::Object(fields)) => fields
                .iter()
                .map(|(kind, q)| QueueCounters {
                    kind: kind.clone(),
                    queue_wait: CountSum::read(q.get("queue_wait_us")),
                    score: CountSum::read(q.get("score_us")),
                    texts: q
                        .get("texts_scored")
                        .and_then(JsonValue::as_f64)
                        .unwrap_or(0.0),
                    batches: q
                        .get("batches")
                        .and_then(|b| b.get("count"))
                        .and_then(JsonValue::as_f64)
                        .unwrap_or(0.0),
                })
                .collect(),
            _ => Vec::new(),
        };
        Self {
            latency: metrics.latency_snapshot(),
            stages: (0..STAGE_METRICS.len())
                .map(|stage| metrics.obs().stage_snapshot(endpoint, stage))
                .collect(),
            wakeups: number("connections", "wakeups_total"),
            pipelined: number("connections", "pipelined_requests_total"),
            queues,
            shed: metrics.admission().shed_total(),
            intake_closures: metrics.admission().intake_closures_total(),
        }
    }
}

/// One batch queue over one phase.
#[derive(Debug, Clone)]
pub struct QueueDelta {
    pub kind: String,
    pub queue_wait_us: f64,
    pub score_us: f64,
    pub batches: f64,
    pub texts: f64,
    pub fill: f64,
}

/// What the server did during one phase: `later - earlier`.
#[derive(Debug, Clone)]
pub struct ServerDelta {
    /// Requests finalized (last byte written).
    pub requests: f64,
    /// Mean server-side latency, parse completion to last byte written, µs.
    pub mean_us: f64,
    /// Each stage's share of the mean request, µs (stage sum ÷ requests, so
    /// the stages add up to `mean_us`).
    pub stage_us: Vec<f64>,
    pub wakeups_per_req: f64,
    pub pipelined_share: f64,
    /// Per queue, then pooled over every queue.
    pub queues: Vec<QueueDelta>,
    pub queue_wait_us: f64,
    pub batch_score_us: f64,
    pub batch_fill: f64,
    pub shed: u64,
    pub intake_closures: u64,
}

impl ServerDelta {
    pub fn between(earlier: &ServerCounters, later: &ServerCounters) -> Self {
        let latency = later.latency.minus(&earlier.latency);
        let requests = latency.count() as f64;
        let per_request = |sum: f64| if requests > 0.0 { sum / requests } else { 0.0 };
        let stage_us = later
            .stages
            .iter()
            .zip(&earlier.stages)
            .map(|(l, e)| per_request(l.minus(e).sum() as f64))
            .collect();
        let mut pooled_wait = CountSum::default();
        let mut pooled_score = CountSum::default();
        let (mut texts, mut batches) = (0.0, 0.0);
        let queues = later
            .queues
            .iter()
            .map(|l| {
                let e = earlier
                    .queues
                    .iter()
                    .find(|q| q.kind == l.kind)
                    .cloned()
                    .unwrap_or_default();
                let wait = l.queue_wait.minus(e.queue_wait);
                let score = l.score.minus(e.score);
                let (t, b) = (l.texts - e.texts, l.batches - e.batches);
                pooled_wait = CountSum {
                    count: pooled_wait.count + wait.count,
                    sum: pooled_wait.sum + wait.sum,
                };
                pooled_score = CountSum {
                    count: pooled_score.count + score.count,
                    sum: pooled_score.sum + score.sum,
                };
                texts += t;
                batches += b;
                QueueDelta {
                    kind: l.kind.clone(),
                    queue_wait_us: wait.mean(),
                    score_us: score.mean(),
                    batches: b,
                    texts: t,
                    fill: fill(t, b),
                }
            })
            .collect();
        Self {
            requests,
            mean_us: per_request(latency.sum() as f64),
            stage_us,
            wakeups_per_req: per_request(later.wakeups - earlier.wakeups),
            pipelined_share: per_request(later.pipelined - earlier.pipelined),
            queues,
            queue_wait_us: pooled_wait.mean(),
            batch_score_us: pooled_score.mean(),
            batch_fill: fill(texts, batches),
            shed: later.shed - earlier.shed,
            intake_closures: later.intake_closures - earlier.intake_closures,
        }
    }
}

/// Texts per batch as a share of the server's `max_batch`.
fn fill(texts: f64, batches: f64) -> f64 {
    if batches > 0.0 {
        texts / batches / workload::serve_config().batch.max_batch as f64
    } else {
        0.0
    }
}

/// Mean duration (µs) and mean size of a set of scorer spans.
pub fn span_means(spans: &[Span]) -> (f64, f64) {
    if spans.is_empty() {
        return (0.0, 0.0);
    }
    let n = spans.len() as f64;
    let us: f64 = spans.iter().map(|s| s.duration.as_secs_f64() * 1e6).sum();
    let texts: f64 = spans.iter().map(|s| s.texts as f64).sum();
    (us / n, texts / n)
}

/// Per-call layer times from replaying request texts through each layer's
/// public functions, µs per call.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// `FittedBaseline::probabilities` (the whole classical scorer call).
    pub lr_call_us: f64,
    /// `TfidfVectorizer::analyze_document` on every text of the call.
    pub tokenize_us: f64,
    /// `transform_sparse` minus the tokenizing it contains.
    pub featurize_us: f64,
    /// `predict_proba_features` on the CSR rows.
    pub model_us: f64,
    /// Call minus transform and model: chunking, `vstack`, row copies (on a
    /// call of more than 64 texts it goes negative, because the chunks run
    /// in parallel).
    pub overhead_us: f64,
    /// `TransformerClassifier::encode` on every text of the call.
    pub encode_us: f64,
    /// `encode_hidden` per text.
    pub encoder_us: f64,
    /// `forward_logits` minus `encode_hidden`, per text: pooling and head.
    pub head_us: f64,
    /// `predict_proba_texts` on the whole call.
    pub batch_us: f64,
    /// `QuantizedTransformer::predict_proba_texts` on the whole call.
    pub quant_us: f64,
    /// One `LimeExplainer::explain` against LR.
    pub lime_us: f64,
    /// Time inside the model's `predict_proba` during one explanation.
    pub lime_score_us: f64,
}

/// How long each replay may run, and how few calls it may average over.
const REPLAY_BUDGET: Duration = Duration::from_millis(400);
const REPLAY_MIN_CALLS: usize = 5;
const REPLAY_MAX_CALLS: usize = 400;

/// Run `call` on successive batches (sizes cycled from `sizes`, texts cycled
/// from `pool`) until the budget is spent; return the mean of each timed
/// part.
fn replay_calls<const N: usize>(
    pool: &[String],
    sizes: &[usize],
    mut call: impl FnMut(&[&str]) -> [Duration; N],
) -> [f64; N] {
    let sizes: Vec<usize> = if sizes.is_empty() {
        vec![1]
    } else {
        sizes.to_vec()
    };
    let mut totals = [0.0f64; N];
    let started = Instant::now();
    let mut next_text = 0;
    let mut calls = 0;
    while calls < REPLAY_MAX_CALLS
        && (calls < REPLAY_MIN_CALLS || started.elapsed() < REPLAY_BUDGET)
    {
        let size = sizes[calls % sizes.len()].max(1);
        let texts: Vec<&str> = (0..size)
            .map(|i| pool[(next_text + i) % pool.len()].as_str())
            .collect();
        next_text += size;
        for (total, part) in totals.iter_mut().zip(call(&texts)) {
            *total += part.as_secs_f64() * 1e6;
        }
        calls += 1;
    }
    totals.map(|t| t / calls as f64)
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let started = Instant::now();
    let out = black_box(f());
    (out, started.elapsed())
}

/// Replay the pool through every layer: the classical path at `lr_sizes`,
/// the f64 transformer at `f64_sizes`, the i8 one at `i8_sizes`, and a few
/// LIME explanations against LR.
pub fn replay(
    models: &Models,
    pool: &[String],
    lr_sizes: &[usize],
    f64_sizes: &[usize],
    i8_sizes: &[usize],
) -> Replay {
    let mut out = Replay::default();
    if let Some(lr) = &models.lr {
        let FittedBaseline::Classical {
            vectorizer,
            classifier,
            ..
        } = &**lr
        else {
            unreachable!("the LR scorer is a classical baseline");
        };
        let classifier: &dyn Classifier = match classifier {
            ClassicalClassifier::LogisticRegression(m) => m,
            ClassicalClassifier::LinearSvm(m) => m,
            ClassicalClassifier::GaussianNb(m) => m,
        };
        let [call, tokenize, transform, model] = replay_calls(pool, lr_sizes, |texts| {
            // One untimed pass first, so the whole call and each of its parts
            // all run on warm caches and compare like with like.
            black_box(lr.probabilities(texts));
            let (_, call) = timed(|| lr.probabilities(texts));
            let (_, tokenize) = timed(|| {
                texts
                    .iter()
                    .map(|t| vectorizer.analyze_document(t).len())
                    .sum::<usize>()
            });
            let (csr, transform) = timed(|| vectorizer.transform_sparse(texts));
            let features = FeatureMatrix::Sparse(csr);
            let (_, model) = timed(|| classifier.predict_proba_features(&features));
            [call, tokenize, transform, model]
        });
        out.lr_call_us = call;
        out.tokenize_us = tokenize;
        out.featurize_us = transform - tokenize;
        out.model_us = model;
        out.overhead_us = call - transform - model;

        let explainer = LimeExplainer::new(LimeConfig::default());
        let scorer: &dyn Scorer = &**lr;
        let [lime, inside] = replay_calls(pool, &[1], |texts| {
            let model = TimedModel {
                inner: scorer,
                inside: Cell::new(Duration::ZERO),
            };
            let (_, lime) = timed(|| explainer.explain(&model, texts[0], None));
            [lime, model.inside.get()]
        });
        out.lime_us = lime;
        out.lime_score_us = inside;
    }
    if let Some(bert) = &models.bert {
        let model = bert.trainer().model().expect("a fitted transformer");
        let [encode, encoder, forward, batch] = replay_calls(pool, f64_sizes, |texts| {
            let (encoded, encode) =
                timed(|| texts.iter().map(|t| model.encode(t)).collect::<Vec<_>>());
            let (mut encoder, mut forward) = (Duration::ZERO, Duration::ZERO);
            for tokens in &encoded {
                let mut graph = Graph::new();
                let (_, d) =
                    timed(|| model.encode_hidden(&mut graph, tokens, false, &mut Rng64::new(0)));
                encoder += d;
                let mut graph = Graph::new();
                let (_, d) =
                    timed(|| model.forward_logits(&mut graph, tokens, false, &mut Rng64::new(0)));
                forward += d;
            }
            let (_, batch) = timed(|| model.predict_proba_texts(texts));
            [encode, encoder, forward, batch]
        });
        out.encode_us = encode;
        out.encoder_us = encoder;
        out.head_us = forward - encoder;
        out.batch_us = batch;
    }
    if let Some(quant) = &models.quant {
        let [forward] = replay_calls(pool, i8_sizes, |texts| {
            let (_, d) = timed(|| quant.model().predict_proba_texts(texts));
            [d]
        });
        out.quant_us = forward;
    }
    out
}

/// A probability model that clocks the time spent inside the wrapped
/// scorer, so a LIME run splits into scoring and surrogate fitting.
struct TimedModel<'a> {
    inner: &'a dyn Scorer,
    inside: Cell<Duration>,
}

impl ProbabilityModel for TimedModel<'_> {
    fn predict_proba(&self, texts: &[&str]) -> Vec<Vec<f64>> {
        let (rows, d) = timed(|| self.inner.probabilities(texts));
        self.inside.set(self.inside.get() + d);
        rows
    }

    fn n_classes(&self) -> usize {
        self.inner.labels().len()
    }
}

/// Time `GET /metrics?format=prometheus` over a fresh connection, from the
/// request's write to the last response byte, µs.
pub fn time_scrape(addr: std::net::SocketAddr) -> std::io::Result<f64> {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let request =
        b"GET /metrics?format=prometheus HTTP/1.1\r\nHost: holibench\r\nConnection: close\r\n\r\n";
    let started = Instant::now();
    stream.write_all(request)?;
    let mut body = Vec::new();
    stream.read_to_end(&mut body)?;
    let elapsed = started.elapsed();
    if !body.starts_with(b"HTTP/1.1 200") {
        return Err(std::io::Error::other("scrape did not answer 200"));
    }
    Ok(elapsed.as_secs_f64() * 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;
    use holistix::corpus::HolistixCorpus;
    use holistix::SpeedProfile;

    #[test]
    fn traced_scorer_delegates_and_records() {
        let corpus = HolistixCorpus::generate_small(90, 3);
        let texts = corpus.texts();
        let labels = corpus.label_indices();
        let lr: Arc<dyn Scorer> = Arc::new(FittedBaseline::fit(
            BaselineKind::LogisticRegression,
            SpeedProfile::Tiny,
            &texts,
            &labels,
            1,
        ));
        let traced = TracedScorer::new(Arc::clone(&lr));
        assert_eq!(traced.kind(), lr.kind());
        assert_eq!(traced.cost_hint(), lr.cost_hint());
        assert_eq!(traced.labels(), lr.labels());
        assert_eq!(
            traced.probabilities(&texts[..3]),
            lr.probabilities(&texts[..3])
        );
        let spans = traced.take_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].texts, 3);
        assert!(traced.take_spans().is_empty());
    }
}
