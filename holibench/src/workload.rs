//! The workloads: what each one fits, serves and sends.

use crate::layers::TracedScorer;
use holistix::corpus::json::JsonValue;
use holistix::corpus::HolistixCorpus;
use holistix::transformer::ModelKind;
use holistix::{
    BaselineKind, FittedBaseline, QuantizedScorer, Scorer, SpeedProfile, TransformerScorer,
};
use holistix_serve::{serve, KeepAliveConfig, ModelRegistry, ServeConfig, ServerHandle};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Posts the transformer kinds are fine-tuned on: a seeded subset of the
/// corpus, which keeps a MentalBERT fit near two seconds.
pub const BERT_TRAIN_POSTS: usize = 100;

/// Requests per connection the server allows before closing it. The default
/// (1 000) would close a lane mid-phase and change the connection count.
pub const MAX_REQUESTS_PER_CONNECTION: usize = 1_000_000;

/// Connections (and so client lanes) every workload uses.
pub const LANES: usize = 2;

/// Steps of the `max_rps` bisection; the last one is
/// `(search_hi_rps - high_rps) / 2^SEARCH_STEPS` wide.
pub const SEARCH_STEPS: usize = 6;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PredictLr,
    PredictBert,
}

/// A workload's fixed load settings, chosen once from the knee measured when
/// the benchmark was written, and never derived from a run.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// The `low` phase's offered rate (~15% of that knee), req/s.
    pub low_rps: f64,
    /// The `high` phase's offered rate (~60% of that knee), req/s.
    pub high_rps: f64,
    /// Upper end of the `max_rps` bisection bracket (the lower end is
    /// `high_rps`), req/s.
    pub search_hi_rps: f64,
    /// Client p99 limit a sustainable rate must meet, ms.
    pub limit_ms: f64,
    /// The percentile `latency_tail_ms` reports: the highest one that
    /// repeated between runs on a shared 2-vCPU machine and still reads the
    /// slow path the workload exists for.
    pub tail_quantile: f64,
    /// Distinct request texts, drawn from the corpus by the seed.
    pub pool_size: usize,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::PredictLr, Workload::PredictBert];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PredictLr => "predict_lr",
            Workload::PredictBert => "predict_bert",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn plan(self) -> Plan {
        match self {
            Workload::PredictLr => Plan {
                low_rps: 220.0,
                high_rps: 880.0,
                search_hi_rps: 3000.0,
                limit_ms: 50.0,
                tail_quantile: 0.90,
                pool_size: usize::MAX,
            },
            Workload::PredictBert => Plan {
                low_rps: 120.0,
                high_rps: 420.0,
                search_hi_rps: 1600.0,
                limit_ms: 250.0,
                tail_quantile: 0.95,
                pool_size: 256,
            },
        }
    }

    /// The kinds the workload's server registers, default first.
    pub fn kinds(self) -> Vec<BaselineKind> {
        match self {
            Workload::PredictLr => vec![BaselineKind::LogisticRegression],
            Workload::PredictBert => vec![
                BaselineKind::QuantizedTransformer(ModelKind::MentalBert),
                BaselineKind::Transformer(ModelKind::MentalBert),
            ],
        }
    }

    /// Request slot `s` of the workload's endless stream: `(lane, kind
    /// index, text index)`. `predict_bert` sends every tenth request to the
    /// f64 kind on its own connection, so neither kind waits behind the
    /// other's responses (HTTP/1.1 answers in order per connection).
    pub fn slot(self, s: usize, pool_len: usize) -> (usize, usize, usize) {
        match self {
            Workload::PredictBert if s % 10 == 9 => (1, 1, s % pool_len),
            Workload::PredictBert => (0, 0, s % pool_len),
            Workload::PredictLr => (s % LANES, 0, s % pool_len),
        }
    }

    /// The lane the correctness gate sends kind `kind` on.
    pub fn gate_lane(self, kind: usize, text: usize) -> usize {
        match self {
            Workload::PredictBert => kind,
            Workload::PredictLr => text % LANES,
        }
    }
}

/// The fitted models of one setup, with how long each fit took.
#[derive(Default)]
pub struct Models {
    pub lr: Option<Arc<FittedBaseline>>,
    pub bert: Option<Arc<TransformerScorer>>,
    pub quant: Option<Arc<QuantizedScorer>>,
    pub fit_lr_s: f64,
    pub fit_bert_s: f64,
    pub quantize_s: f64,
}

impl Models {
    /// Fit LR on the whole corpus and/or MentalBERT (plus its i8 sibling) on
    /// the seeded subset, under `SpeedProfile::Fast`.
    pub fn fit(corpus: &HolistixCorpus, seed: u64, lr: bool, bert: bool) -> Models {
        let texts = corpus.texts();
        let labels = corpus.label_indices();
        let mut models = Models::default();
        if lr {
            let started = Instant::now();
            let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
            models.lr = Some(Arc::new(FittedBaseline::fit_with_threads(
                BaselineKind::LogisticRegression,
                SpeedProfile::Fast,
                &texts,
                &labels,
                seed,
                threads,
            )));
            models.fit_lr_s = started.elapsed().as_secs_f64();
        }
        if bert {
            let n = BERT_TRAIN_POSTS.min(texts.len());
            let started = Instant::now();
            let f64_scorer = TransformerScorer::fit(
                ModelKind::MentalBert,
                SpeedProfile::Fast,
                &texts[..n],
                &labels[..n],
                seed,
            );
            models.fit_bert_s = started.elapsed().as_secs_f64();
            let started = Instant::now();
            models.quant = Some(Arc::new(QuantizedScorer::from_transformer(&f64_scorer)));
            models.quantize_s = started.elapsed().as_secs_f64();
            models.bert = Some(Arc::new(f64_scorer));
        }
        models
    }

    /// The scorer serving `kind`.
    pub fn scorer(&self, kind: BaselineKind) -> Arc<dyn Scorer> {
        let scorer: Option<Arc<dyn Scorer>> = match kind {
            BaselineKind::LogisticRegression => self.lr.clone().map(|s| s as Arc<dyn Scorer>),
            BaselineKind::Transformer(_) => self.bert.clone().map(|s| s as Arc<dyn Scorer>),
            BaselineKind::QuantizedTransformer(_) => {
                self.quant.clone().map(|s| s as Arc<dyn Scorer>)
            }
            _ => None,
        };
        scorer.expect("the workload's models were fitted")
    }
}

/// The server configuration every workload runs: the defaults, except the
/// per-connection request cap.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        keep_alive: KeepAliveConfig {
            max_requests: MAX_REQUESTS_PER_CONNECTION,
            ..KeepAliveConfig::default()
        },
        ..ServeConfig::default()
    }
}

/// Start a server on an ephemeral loopback port over the workload's kinds,
/// each wrapped in a [`TracedScorer`] when `tracers` is given (the wrappers
/// are pushed there, in kind order).
pub fn start_server(
    workload: Workload,
    models: &Models,
    tracers: Option<&mut Vec<Arc<TracedScorer>>>,
) -> std::io::Result<ServerHandle> {
    let raw: Vec<Arc<dyn Scorer>> = workload
        .kinds()
        .into_iter()
        .map(|k| models.scorer(k))
        .collect();
    let scorers = match tracers {
        None => raw,
        Some(tracers) => raw
            .into_iter()
            .map(|inner| {
                let traced = Arc::new(TracedScorer::new(inner));
                tracers.push(Arc::clone(&traced));
                traced as Arc<dyn Scorer>
            })
            .collect(),
    };
    serve(
        "127.0.0.1:0",
        ModelRegistry::from_scorers(scorers),
        serve_config(),
    )
}

/// The distinct request texts: corpus texts, deduplicated, in an order
/// shuffled by the seed, cut to the workload's pool size.
pub fn pool(corpus: &HolistixCorpus, seed: u64, size: usize) -> Vec<String> {
    let mut texts: Vec<String> = Vec::new();
    for text in corpus.texts() {
        if !texts.iter().any(|t| t == text) {
            texts.push(text.to_string());
        }
    }
    let mut state = seed ^ 0x5EED_BE4C_4A11_0000;
    for i in (1..texts.len()).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        texts.swap(i, j);
    }
    texts.truncate(size);
    texts
}

/// Poisson arrivals: `n` due offsets with exponential gaps of mean
/// `1 / rate`, drawn from `seed`. Independent users arrive this way, and
/// unlike a uniform grid the schedule cannot fall into step with a batch
/// window.
pub fn poisson_offsets(rate: f64, n: usize, seed: u64) -> Vec<Duration> {
    let mut state = seed ^ 0xA11C_E5ED_0000_0001;
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            let offset = Duration::from_secs_f64(t);
            // Uniform in (0, 1], so the logarithm stays finite.
            let u = ((splitmix64(&mut state) >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
            t += -u.ln() / rate;
            offset
        })
        .collect()
}

/// Evenly spaced due offsets, `1 / rate` apart.
pub fn uniform_offsets(rate: f64, n: usize) -> Vec<Duration> {
    (0..n)
        .map(|i| Duration::from_secs_f64(i as f64 / rate))
        .collect()
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The endpoint every workload sends to, and the name its stage histograms
/// are filed under.
pub const PATH: &str = "/predict";
pub const ENDPOINT: &str = "predict";

/// Every request the workload can send, pre-rendered: `requests[kind][text]`.
pub struct Requests {
    pub bytes: Vec<Vec<Vec<u8>>>,
}

impl Requests {
    pub fn new(workload: Workload, pool: &[String]) -> Requests {
        let bytes = workload
            .kinds()
            .into_iter()
            .map(|kind| {
                pool.iter()
                    .map(|text| {
                        let body = JsonValue::object(vec![
                            ("text", JsonValue::string(text.as_str())),
                            ("model", JsonValue::string(kind.name())),
                        ])
                        .to_string();
                        http_post(PATH, &body)
                    })
                    .collect()
            })
            .collect();
        Requests { bytes }
    }
}

/// A keep-alive `POST` with a JSON body, as one buffer.
pub fn http_post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: holibench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bert_slots_send_a_tenth_to_the_f64_lane() {
        let slots: Vec<_> = (0..100).map(|s| Workload::PredictBert.slot(s, 7)).collect();
        let f64_count = slots
            .iter()
            .filter(|(lane, kind, _)| *lane == 1 && *kind == 1)
            .count();
        assert_eq!(f64_count, 10);
        assert!(slots.iter().all(|(lane, kind, _)| lane == kind));
        for s in 0..100 {
            let (lane, kind, text) = Workload::PredictLr.slot(s, 7);
            assert_eq!((lane, kind, text), (s % 2, 0, s % 7));
        }
    }

    #[test]
    fn poisson_offsets_average_the_rate() {
        let offsets = poisson_offsets(1000.0, 20_000, 7);
        assert_eq!(offsets, poisson_offsets(1000.0, 20_000, 7));
        assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        let span = offsets.last().unwrap().as_secs_f64();
        assert!(
            (span - 20.0).abs() < 0.5,
            "20 000 arrivals at 1000/s took {span} s"
        );
        assert_eq!(uniform_offsets(4.0, 3)[2], Duration::from_millis(500));
    }

    #[test]
    fn pool_is_seeded_and_distinct() {
        let corpus = HolistixCorpus::generate_small(80, 3);
        let a = pool(&corpus, 1, 20);
        assert_eq!(a, pool(&corpus, 1, 20));
        assert_ne!(a, pool(&corpus, 2, 20));
        for (i, t) in a.iter().enumerate() {
            assert!(!a[..i].contains(t));
        }
    }
}
