//! Per-kind batch queues: cross-request micro-batching without head-of-line
//! blocking between models.
//!
//! Request worker threads never score texts themselves: each request's texts
//! enter its model's queue as one [`Job`], and the worker blocks on that
//! job's reply channel. Each registered kind owns a [`BatchQueue`]: its own
//! `mpsc` channel and its own drain loop on its own thread, so a 50 ms
//! transformer batch never stalls the logistic-regression batch queued behind
//! it. Queues share nothing but the registry handle and the metrics sink, so
//! saturating one cannot delay another.
//!
//! The drain is work-conserving. It blocks until a job arrives, takes
//! whatever else is already queued until the batch holds
//! [`BatchConfig::max_batch`] texts, and scores the lot with one
//! [`Scorer::probabilities`](holistix::Scorer::probabilities) call. Nothing
//! waits on a timer: requests that arrive while a batch scores form the next
//! batch, so batches grow with load, and an idle queue scores a lone request
//! at once. A request is never split across scorer calls.
//!
//! Batching is invisible in the results: `probabilities` rows depend only on
//! their own text (a property the core pipeline tests pin), so coalescing
//! concurrent requests changes latency, never answers.

use crate::metrics::{QueueMetrics, ServeMetrics};
use crate::registry::SharedRegistry;
use holistix::BaselineKind;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;

/// Micro-batching knobs for one queue.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Texts at which a drain stops taking queued requests. A request is
    /// never split, so one multi-text request can carry a batch past this.
    pub max_batch: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self { max_batch: 32 }
    }
}

/// One request's texts awaiting scoring, with the channel their answer goes
/// back on.
struct Job {
    texts: Vec<String>,
    reply: Sender<JobReply>,
    /// When the job entered its queue, for per-queue latency percentiles.
    enqueued: Instant,
}

/// A job's answer: one probability row per text, plus the batch timing the
/// worker stamps into its request trace.
type JobReply = Result<(Vec<Vec<f64>>, BatchTiming), PredictError>;

/// Batch-stage timing for one request: when the drain loop took its batch
/// out of the queue and when the batch's `probabilities` call returned.
#[derive(Debug, Clone, Copy)]
pub struct BatchTiming {
    /// When the request's batch left the queue.
    pub drained: Instant,
    /// When the request's batch finished scoring.
    pub scored: Instant,
}

/// Why [`BatcherHandle::predict_many`] refused or failed. Typed so the server
/// can map each cause to the right status code: [`QueueFull`](Self::QueueFull)
/// is `429 + Retry-After` (the server is healthy but full — retry), while
/// [`NotLoaded`](Self::NotLoaded) and [`Shutdown`](Self::Shutdown) are `503`
/// (the model or server is unavailable) and [`Failed`](Self::Failed) is `500`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PredictError {
    /// The kind's batch queue was at its configured depth cap; nothing was
    /// enqueued (admission is all-or-nothing per request).
    QueueFull {
        /// The saturated kind's name.
        kind: String,
        /// The queue depth observed at rejection.
        depth: u64,
    },
    /// No scorer is loaded for the kind: never registered at startup, or a
    /// swapped-in registry dropped it (the reload path).
    NotLoaded(String),
    /// The server is shutting down (the queue's receiver is gone).
    Shutdown,
    /// The queue's drain loop died mid-request, or the scorer answered the
    /// wrong number of rows.
    Failed,
}

impl std::fmt::Display for PredictError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PredictError::QueueFull { kind, depth } => {
                write!(f, "queue for model {kind:?} is full ({depth} jobs queued)")
            }
            PredictError::NotLoaded(kind) => write!(f, "model {kind:?} is not loaded"),
            PredictError::Shutdown => write!(f, "server is shutting down"),
            PredictError::Failed => write!(f, "scoring failed"),
        }
    }
}

/// The sending half of one kind's queue.
struct QueueSender {
    kind: BaselineKind,
    sender: Sender<Job>,
    metrics: Arc<QueueMetrics>,
    /// Admission cap: most texts this queue may hold, queued or scoring.
    max_depth: u64,
}

impl QueueSender {
    /// Reserve `texts.len()` slots against the depth cap and enqueue the
    /// texts as one job; returns the channel its answer comes back on.
    /// Admission is all-or-nothing ([`QueueMetrics::try_admit`]), so a
    /// rejection ([`PredictError::QueueFull`]) leaves the queue untouched.
    fn submit(&self, texts: Vec<String>) -> Result<Receiver<JobReply>, PredictError> {
        let n = texts.len();
        // Depth counts up strictly before the drain loop can see the job:
        // incrementing after send() would let a fast drain score the job and
        // decrement first, wrapping the unsigned depth gauge.
        if !self.metrics.try_admit(n as u64, self.max_depth) {
            return Err(PredictError::QueueFull {
                kind: self.kind.name().to_string(),
                depth: self.metrics.depth(),
            });
        }
        let (reply, receiver) = std::sync::mpsc::channel();
        let job = Job {
            texts,
            reply,
            enqueued: Instant::now(),
        };
        if self.sender.send(job).is_err() {
            // Nothing was queued: release the whole reservation.
            self.metrics.record_dropped(n);
            return Err(PredictError::Shutdown);
        }
        Ok(receiver)
    }
}

/// Cloneable producer handle the request workers use to hand texts to the
/// per-kind queues and wait for probabilities.
#[derive(Clone)]
pub struct BatcherHandle {
    queues: Arc<Vec<QueueSender>>,
}

impl BatcherHandle {
    fn queue(&self, kind: BaselineKind) -> Option<&QueueSender> {
        self.queues.iter().find(|q| q.kind == kind)
    }

    /// Score `texts` with the warm model for `kind` via its batch queue. The
    /// texts travel as one job, so they are scored in one batch. Returns the
    /// probability rows plus the batch timing for the caller's request trace
    /// (`None` when `texts` was empty — nothing was ever queued).
    pub fn predict_many(
        &self,
        kind: BaselineKind,
        texts: Vec<String>,
    ) -> Result<(Vec<Vec<f64>>, Option<BatchTiming>), PredictError> {
        let queue = self
            .queue(kind)
            .ok_or_else(|| PredictError::NotLoaded(kind.name().to_string()))?;
        if texts.is_empty() {
            return Ok((Vec::new(), None));
        }
        let n = texts.len();
        let (rows, timing) = queue
            .submit(texts)?
            .recv()
            .map_err(|_| PredictError::Failed)??;
        if rows.len() != n {
            return Err(PredictError::Failed);
        }
        Ok((rows, Some(timing)))
    }
}

/// One kind's queue: the receiving half plus everything its drain loop needs.
/// Built by [`build_queues`]; the server spawns [`BatchQueue::run`] on its own
/// scoped thread.
pub(crate) struct BatchQueue {
    kind: BaselineKind,
    receiver: Receiver<Job>,
    max_batch: usize,
    metrics: Arc<QueueMetrics>,
}

impl BatchQueue {
    /// The drain loop, until every producer handle is dropped: block for a
    /// job, take whatever is already queued behind it until the batch holds
    /// `max_batch` texts, score, answer. The scorer is resolved once per
    /// batch from the shared registry, so a `/reload` swap lands between
    /// batches: an assembled batch always finishes on the scorer it started
    /// with.
    pub(crate) fn run(self, registry: &SharedRegistry) {
        while let Ok(first) = self.receiver.recv() {
            let mut texts = first.texts.len();
            let mut jobs = vec![first];
            while texts < self.max_batch {
                let Ok(job) = self.receiver.try_recv() else {
                    break;
                };
                texts += job.texts.len();
                jobs.push(job);
            }
            self.score_batch(jobs, texts, registry);
        }
    }

    /// Score one assembled batch of `texts` texts with this queue's scorer
    /// (one batched `probabilities` call) and answer every job, carrying the
    /// batch's drain and score instants so each waiting worker can stamp its
    /// trace.
    fn score_batch(&self, jobs: Vec<Job>, texts: usize, registry: &SharedRegistry) {
        let drained = Instant::now();
        // The queue exists because the startup registry had this kind, and
        // refits keep kinds — so a miss only happens if a swapped-in registry
        // dropped the model. Answer rather than hang the workers, and record
        // no batch: no model scored these texts.
        let Some(scorer) = registry.current().get(self.kind) else {
            self.metrics.record_dropped(texts);
            for job in jobs {
                let _ = job
                    .reply
                    .send(Err(PredictError::NotLoaded(self.kind.name().to_string())));
            }
            return;
        };
        let batch: Vec<&str> = jobs
            .iter()
            .flat_map(|job| job.texts.iter().map(String::as_str))
            .collect();
        let mut rows = scorer.probabilities(&batch).into_iter();
        let scored = Instant::now();
        // Queue-wait samples stay per text: each text waited as long as its job.
        let waits: Vec<u64> = jobs
            .iter()
            .flat_map(|job| {
                let wait = drained.duration_since(job.enqueued).as_micros() as u64;
                std::iter::repeat_n(wait, job.texts.len())
            })
            .collect();
        let score_us = scored.duration_since(drained).as_micros() as u64;
        self.metrics.record_batch(texts, &waits, score_us);
        let timing = BatchTiming { drained, scored };
        for job in jobs {
            let job_rows = rows.by_ref().take(job.texts.len()).collect();
            // A dropped receiver just means the client went away mid-request.
            let _ = job.reply.send(Ok((job_rows, timing)));
        }
    }
}

/// Build one queue per registered scorer: the shared [`BatcherHandle`] for the
/// worker pool and the [`BatchQueue`]s for the server to spawn. `max_depth`
/// is the per-kind admission cap
/// ([`AdmissionConfig::max_queue_depth`](crate::AdmissionConfig)); each kind
/// gets its own budget, so one saturated queue sheds alone.
pub(crate) fn build_queues(
    registry: &SharedRegistry,
    config: &BatchConfig,
    metrics: &ServeMetrics,
    max_depth: usize,
) -> (BatcherHandle, Vec<BatchQueue>) {
    let mut senders = Vec::new();
    let mut queues = Vec::new();
    for kind in registry.current().kinds() {
        let (sender, receiver) = std::sync::mpsc::channel();
        let queue_metrics = metrics.queue(&kind.name(), kind.scorer_family());
        senders.push(QueueSender {
            kind,
            sender,
            metrics: Arc::clone(&queue_metrics),
            max_depth: max_depth as u64,
        });
        queues.push(BatchQueue {
            kind,
            receiver,
            max_batch: config.max_batch,
            metrics: queue_metrics,
        });
    }
    (
        BatcherHandle {
            queues: Arc::new(senders),
        },
        queues,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{ModelRegistry, RegistryConfig};
    use holistix::{Scorer, SpeedProfile};
    use std::sync::Mutex;

    const LR: BaselineKind = BaselineKind::LogisticRegression;

    fn tiny_registry() -> ModelRegistry {
        ModelRegistry::fit_synthetic(&RegistryConfig {
            kinds: vec![LR],
            profile: SpeedProfile::Tiny,
            training_posts: 90,
            seed: 5,
        })
    }

    /// Spawn every queue's drain loop in a crossbeam scope, run `body` with
    /// the handle, and join cleanly when the handle drops.
    fn with_queues<F: FnOnce(&BatcherHandle) + Send>(
        registry: &SharedRegistry,
        config: &BatchConfig,
        metrics: &ServeMetrics,
        body: F,
    ) {
        let (handle, queues) = build_queues(registry, config, metrics, usize::MAX);
        crossbeam::thread::scope(|scope| {
            for queue in queues {
                scope.spawn(move |_| queue.run(registry));
            }
            body(&handle);
            drop(handle); // lets every drain loop exit
        })
        .unwrap();
    }

    /// The tiny LR model behind a log of every scorer call's size.
    struct CallLog {
        inner: Arc<dyn Scorer>,
        calls: Mutex<Vec<usize>>,
    }

    impl Scorer for CallLog {
        fn probabilities(&self, texts: &[&str]) -> Vec<Vec<f64>> {
            self.calls.lock().unwrap().push(texts.len());
            self.inner.probabilities(texts)
        }

        fn kind(&self) -> BaselineKind {
            self.inner.kind()
        }
    }

    /// Queue every request before the LR queue's drain starts, then run the
    /// drain to completion on this thread, so the batches depend only on the
    /// backlog, never on timing. Asserts every answer is bit-identical to
    /// `probabilities_one` and returns the size of each scorer call.
    fn drain_backlog(max_batch: usize, requests: &[&[&str]]) -> Vec<usize> {
        let model = tiny_registry().get(LR).unwrap();
        let log = Arc::new(CallLog {
            inner: Arc::clone(&model),
            calls: Mutex::new(Vec::new()),
        });
        let registry = SharedRegistry::new(ModelRegistry::from_scorers(vec![
            Arc::clone(&log) as Arc<dyn Scorer>
        ]));
        let metrics = ServeMetrics::new();
        let (handle, queues) =
            build_queues(&registry, &BatchConfig { max_batch }, &metrics, usize::MAX);
        let receivers: Vec<_> = requests
            .iter()
            .map(|texts| {
                let texts = texts.iter().map(|t| t.to_string()).collect();
                handle.queue(LR).unwrap().submit(texts).unwrap()
            })
            .collect();
        drop(handle); // the drain exits once the backlog is gone
        for queue in queues {
            queue.run(&registry);
        }
        for (texts, receiver) in requests.iter().zip(receivers) {
            let (rows, _) = receiver.recv().unwrap().unwrap();
            let expected: Vec<Vec<f64>> =
                texts.iter().map(|t| model.probabilities_one(t)).collect();
            assert_eq!(rows, expected);
        }
        assert_eq!(metrics.queue("LR", "classical").depth(), 0);
        let calls = log.calls.lock().unwrap().clone();
        calls
    }

    #[test]
    fn backlog_drains_in_max_batch_chunks() {
        let texts = [
            "i feel alone and tired",
            "my job is destroying me",
            "i cannot sleep at night",
            "money worries never stop",
            "my friends stopped calling",
            "i skip meals most days",
            "nothing feels meaningful",
            "i argue with my family",
            "i feel numb",
        ];
        let requests: Vec<&[&str]> = texts.iter().map(std::slice::from_ref).collect();
        assert_eq!(drain_backlog(4, &requests), vec![4, 4, 1]);
    }

    #[test]
    fn multi_text_request_over_max_batch_is_scored_in_one_call() {
        let big: &[&str] = &[
            "i feel alone and tired",
            "my job is destroying me",
            "i cannot sleep at night",
            "money worries never stop",
            "my friends stopped calling",
            "i skip meals most days",
        ];
        let small: &[&str] = &["i feel numb"];
        // The big request alone overfills the batch, so the drain stops
        // there and the next request forms the next batch.
        assert_eq!(drain_backlog(4, &[big, small]), vec![6, 1]);
        // A request is never split: one that crosses max_batch rides whole.
        assert_eq!(drain_backlog(4, &[small, big]), vec![7]);
    }

    #[test]
    fn batched_replies_match_direct_scoring() {
        let registry = SharedRegistry::new(tiny_registry());
        let model = registry.current().get(LR).unwrap();
        let metrics = ServeMetrics::new();
        let config = BatchConfig { max_batch: 8 };

        let texts = vec![
            "i feel alone and tired".to_string(),
            "my job is destroying me".to_string(),
            "i cannot sleep at night".to_string(),
        ];
        let expected: Vec<Vec<f64>> = texts.iter().map(|t| model.probabilities_one(t)).collect();

        with_queues(&registry, &config, &metrics, |handle| {
            let (got, timing) = handle.predict_many(LR, texts.clone()).unwrap();
            assert_eq!(got, expected);
            // One batch: its timing is ordered and after enqueue.
            let timing = timing.expect("scored at least one text");
            assert!(timing.drained <= timing.scored);
        });

        // The request's three texts travel as one job, so they were scored
        // as one batch — visible globally and in the LR queue.
        assert_eq!(metrics.max_batch_size(), 3);
        let lr_queue = metrics.queue("LR", "classical");
        assert_eq!(lr_queue.max_batch_size(), 3);
        assert_eq!(lr_queue.depth(), 0);
    }

    #[test]
    fn unregistered_kind_is_an_error_and_records_no_metrics() {
        let registry = SharedRegistry::new(tiny_registry());
        let metrics = ServeMetrics::new();
        let config = BatchConfig::default();
        with_queues(&registry, &config, &metrics, |handle| {
            // No Linear SVM scorer was registered, so no queue exists for it:
            // the error comes straight from the handle, nothing is enqueued.
            let got = handle.predict_many(BaselineKind::LinearSvm, vec!["text".to_string()]);
            let err = got.err().unwrap();
            assert!(matches!(err, PredictError::NotLoaded(_)));
            assert!(err.to_string().contains("not loaded"));
        });
        // Nothing was scored, so nothing shows up as a batch.
        assert_eq!(metrics.max_batch_size(), 0);
        let snapshot = metrics.snapshot();
        assert_eq!(snapshot.get("texts_scored").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn predict_many_fails_cleanly_after_shutdown() {
        let registry = SharedRegistry::new(tiny_registry());
        let metrics = ServeMetrics::new();
        let (handle, queues) = build_queues(&registry, &BatchConfig::default(), &metrics, 1024);
        drop(queues); // receivers gone: every send errors
        assert_eq!(
            handle.predict_many(LR, vec!["x".to_string()]).err(),
            Some(PredictError::Shutdown)
        );
        // The failed send released its reservation: depth is back to zero.
        assert_eq!(metrics.queue("LR", "classical").depth(), 0);
    }

    #[test]
    fn over_cap_requests_draw_queue_full_without_enqueueing() {
        let registry = SharedRegistry::new(tiny_registry());
        let metrics = ServeMetrics::new();
        // No drain loop running: jobs sit in the channel, depth only grows.
        let (handle, _queues) = build_queues(&registry, &BatchConfig::default(), &metrics, 3);
        let texts = |n: usize| vec!["hello".to_string(); n];

        // A request bigger than the whole cap is rejected outright.
        let err = handle.predict_many(LR, texts(4)).err().unwrap();
        assert!(matches!(err, PredictError::QueueFull { .. }));
        assert!(err.to_string().contains("full"));
        assert_eq!(metrics.queue("LR", "classical").depth(), 0);

        // Fill the cap exactly; with no drain the reservations stay held.
        let queue = handle.queue(LR).unwrap();
        let _held: Vec<_> = (0..3).map(|_| queue.submit(texts(1)).unwrap()).collect();
        // The cap is reached: one more text is shed, all-or-nothing.
        let err = handle.predict_many(LR, texts(1)).err().unwrap();
        assert!(matches!(err, PredictError::QueueFull { depth: 3, .. }));
        assert_eq!(metrics.queue("LR", "classical").depth(), 3);
    }
}
