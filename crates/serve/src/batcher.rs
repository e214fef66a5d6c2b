//! Per-kind batch queues: cross-request micro-batching without head-of-line
//! blocking between models.
//!
//! Request worker threads never score texts themselves: they enqueue [`Job`]s
//! and block on a per-job reply channel. The original design ran **one**
//! batcher thread over one queue for every model, which meant a 50 ms
//! transformer batch stalled the 200 µs logistic-regression batch queued
//! behind it. Since the `Scorer` redesign each registered kind owns a
//! [`BatchQueue`]: its own `mpsc` channel, its own drain loop on its own
//! thread, and its own [`BatchConfig`] sized from the scorer's
//! [`cost_hint`](holistix::Scorer::cost_hint) — expensive scorers coalesce
//! over wider windows (waiting is cheap relative to their batch service
//! time), cheap scorers keep the low-latency window. Queues share nothing but
//! the registry handle and the metrics sink, so saturating one cannot delay
//! another.
//!
//! Each drain loop collects up to [`BatchConfig::max_batch`] texts (or
//! whatever has accumulated when [`BatchConfig::max_wait`] elapses after the
//! first), scores them with one [`Scorer::probabilities`] call, and fans the
//! per-row results back out to the waiting workers.
//!
//! Batching is invisible in the results: `probabilities` rows depend only on
//! their own text (a property the core pipeline tests pin), so coalescing
//! concurrent requests changes latency, never answers.

use crate::metrics::{QueueMetrics, ServeMetrics};
use crate::registry::SharedRegistry;
use holistix::{BaselineKind, Scorer};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Micro-batching knobs for one queue.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Largest batch the scheduler assembles before scoring.
    pub max_batch: usize,
    /// How long the scheduler waits for more texts after the first one arrives.
    pub max_wait: Duration,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self {
            max_batch: 32,
            max_wait: Duration::from_millis(5),
        }
    }
}

/// Widest coalescing window a cost hint may stretch a queue to: even a very
/// slow scorer should not hold a lone request for more than this.
const MAX_COST_SIZED_WAIT: Duration = Duration::from_millis(100);

impl BatchConfig {
    /// Derive a queue's config from this base config and a scorer's expected
    /// per-text cost: the coalescing window is at least one text's scoring
    /// time (while one text scores, the next batch assembles for free — a
    /// wider window trades no throughput for bigger, better-amortised
    /// batches), never narrower than the base window, and capped at
    /// [`MAX_COST_SIZED_WAIT`]. A ~200 µs classical scorer keeps the base
    /// 5 ms window; a ~50 ms transformer queue widens to 50 ms.
    pub fn sized_for(&self, cost_hint: Duration) -> BatchConfig {
        BatchConfig {
            max_batch: self.max_batch,
            max_wait: self.max_wait.max(cost_hint.min(MAX_COST_SIZED_WAIT)),
        }
    }
}

/// One text awaiting scoring, with the channel its probabilities go back on.
pub(crate) struct Job {
    pub text: String,
    pub reply: Sender<JobReply>,
    /// When the job entered its queue, for per-queue latency percentiles.
    pub enqueued: Instant,
}

/// One scored row on its way back to the waiting worker, carrying the batch
/// timing the worker stamps into its request trace.
pub(crate) struct JobReply {
    /// The probability row (empty = the model was not loaded).
    pub row: Vec<f64>,
    /// When the drain loop pulled the batch out of the queue.
    pub drained: Instant,
    /// When the batch's `probabilities` call returned.
    pub scored: Instant,
}

/// Batch-stage timing for one `predict_many` call: when its texts left the
/// queue and when scoring finished. A multi-text request may span several
/// batches; this is the envelope (earliest drain, latest score), which is
/// what the request trace wants — the request's queue wait ends at the first
/// drain and its scoring ends at the last row.
#[derive(Debug, Clone, Copy)]
pub struct BatchTiming {
    /// Earliest batch drain among the request's texts.
    pub drained: Instant,
    /// Latest scoring completion among the request's texts.
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
    /// The queue's drain loop died mid-request.
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
    /// Admission cap: most jobs this queue may hold, queued or scoring.
    max_depth: u64,
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

    /// Score `texts` with the warm model for `kind` via its batch queue. All
    /// jobs are enqueued before the first reply is awaited, so a multi-text
    /// request forms (or joins) a batch as a whole. Returns the probability
    /// rows plus the batch timing envelope for the caller's request trace
    /// (`None` when `texts` was empty — nothing was ever queued).
    ///
    /// Admission is all-or-nothing: the whole request's worth of slots is
    /// reserved against the queue's depth cap up front
    /// ([`QueueMetrics::try_admit`]), so a request never half-enqueues and a
    /// rejection ([`PredictError::QueueFull`]) leaves the queue untouched.
    pub fn predict_many(
        &self,
        kind: BaselineKind,
        texts: Vec<String>,
    ) -> Result<(Vec<Vec<f64>>, Option<BatchTiming>), PredictError> {
        let queue = self
            .queue(kind)
            .ok_or_else(|| PredictError::NotLoaded(kind.name().to_string()))?;
        let jobs = texts.len() as u64;
        // Depth counts up strictly before the drain loop can see any job:
        // incrementing after send() would let a fast drain score the job and
        // decrement first, wrapping the unsigned depth gauge.
        if !queue.metrics.try_admit(jobs, queue.max_depth) {
            return Err(PredictError::QueueFull {
                kind: kind.name().to_string(),
                depth: queue.metrics.depth(),
            });
        }
        let mut receivers = Vec::with_capacity(texts.len());
        for (sent, text) in texts.into_iter().enumerate() {
            let (reply, receiver) = std::sync::mpsc::channel();
            if queue
                .sender
                .send(Job {
                    text,
                    reply,
                    enqueued: Instant::now(),
                })
                .is_err()
            {
                // Release the reservation for this job and every unsent one;
                // already-sent jobs are torn down by the shutdown drain.
                queue.metrics.record_dropped((jobs as usize) - sent);
                return Err(PredictError::Shutdown);
            }
            receivers.push(receiver);
        }
        let mut timing: Option<BatchTiming> = None;
        let mut rows = Vec::with_capacity(receivers.len());
        for rx in receivers {
            let reply = rx.recv().map_err(|_| PredictError::Failed)?;
            if reply.row.is_empty() {
                return Err(PredictError::NotLoaded(kind.name().to_string()));
            }
            timing = Some(match timing {
                None => BatchTiming {
                    drained: reply.drained,
                    scored: reply.scored,
                },
                Some(t) => BatchTiming {
                    drained: t.drained.min(reply.drained),
                    scored: t.scored.max(reply.scored),
                },
            });
            rows.push(reply.row);
        }
        Ok((rows, timing))
    }
}

/// One kind's queue: the receiving half plus everything its drain loop needs.
/// Built by [`build_queues`]; the server spawns [`BatchQueue::run`] on its own
/// scoped thread.
pub(crate) struct BatchQueue {
    kind: BaselineKind,
    receiver: Receiver<Job>,
    config: BatchConfig,
    metrics: Arc<QueueMetrics>,
}

impl BatchQueue {
    /// The drain loop: recv → coalesce → score → fan out, until every producer
    /// handle is dropped. The scorer is resolved once per batch from the
    /// shared registry, so a `/reload` swap lands between batches: an
    /// assembled batch always finishes on the scorer it started with.
    pub(crate) fn run(self, registry: &SharedRegistry) {
        let max_batch = self.config.max_batch.max(1);
        while let Ok(first) = self.receiver.recv() {
            let deadline = Instant::now() + self.config.max_wait;
            let mut jobs = vec![first];
            while jobs.len() < max_batch {
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    break;
                }
                match self.receiver.recv_timeout(remaining) {
                    Ok(job) => jobs.push(job),
                    Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => break,
                }
            }
            self.score_batch(&jobs, registry);
        }
    }

    /// Score one assembled batch with this queue's scorer (one batched
    /// `probabilities` call) and reply to every job, carrying the batch's
    /// drain and score instants so each waiting worker can stamp its trace.
    fn score_batch(&self, jobs: &[Job], registry: &SharedRegistry) {
        let drained = Instant::now();
        let (rows, scored) = match registry.current().get(self.kind) {
            Some(scorer) => {
                let rows = score_jobs(scorer.as_ref(), jobs);
                let scored = Instant::now();
                let waits: Vec<u64> = jobs
                    .iter()
                    .map(|j| drained.duration_since(j.enqueued).as_micros() as u64)
                    .collect();
                let score_us = scored.duration_since(drained).as_micros() as u64;
                self.metrics.record_batch(jobs.len(), &waits, score_us);
                (rows, scored)
            }
            // The queue exists because the startup registry had this kind, and
            // refits keep kinds — so this only happens if a swapped-in registry
            // dropped the model. Answer with the empty-row sentinel (which
            // predict_many surfaces as an error) rather than hanging workers,
            // and record no batch — no model scored these texts.
            None => {
                self.metrics.record_dropped(jobs.len());
                (vec![Vec::new(); jobs.len()], drained)
            }
        };
        for (job, row) in jobs.iter().zip(rows) {
            // A dropped receiver just means the client went away mid-request.
            let _ = job.reply.send(JobReply {
                row,
                drained,
                scored,
            });
        }
    }
}

fn score_jobs(scorer: &dyn Scorer, jobs: &[Job]) -> Vec<Vec<f64>> {
    let texts: Vec<&str> = jobs.iter().map(|j| j.text.as_str()).collect();
    scorer.probabilities(&texts)
}

/// Build one queue per registered scorer: the shared [`BatcherHandle`] for the
/// worker pool and the [`BatchQueue`]s for the server to spawn, each queue's
/// window sized from its scorer's cost hint via [`BatchConfig::sized_for`].
/// `max_depth` is the per-kind admission cap
/// ([`AdmissionConfig::max_queue_depth`](crate::AdmissionConfig)); each kind
/// gets its own budget, so one saturated queue sheds alone.
pub(crate) fn build_queues(
    registry: &SharedRegistry,
    base: &BatchConfig,
    metrics: &ServeMetrics,
    max_depth: usize,
) -> (BatcherHandle, Vec<BatchQueue>) {
    let current = registry.current();
    let mut senders = Vec::new();
    let mut queues = Vec::new();
    for (kind, scorer) in current.scorers() {
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
            config: base.sized_for(scorer.cost_hint()),
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
    use holistix::SpeedProfile;

    fn tiny_registry() -> ModelRegistry {
        ModelRegistry::fit_synthetic(&RegistryConfig {
            kinds: vec![BaselineKind::LogisticRegression],
            profile: SpeedProfile::Tiny,
            training_posts: 90,
            seed: 5,
        })
    }

    /// Spawn every queue's drain loop in a crossbeam scope, run `body` with
    /// the handle, and join cleanly when the handle drops.
    fn with_queues<F: FnOnce(&BatcherHandle) + Send>(
        registry: &SharedRegistry,
        base: &BatchConfig,
        metrics: &ServeMetrics,
        body: F,
    ) {
        let (handle, queues) = build_queues(registry, base, metrics, usize::MAX);
        crossbeam::thread::scope(|scope| {
            for queue in queues {
                scope.spawn(move |_| queue.run(registry));
            }
            body(&handle);
            drop(handle); // lets every drain loop exit
        })
        .unwrap();
    }

    #[test]
    fn batched_replies_match_direct_scoring() {
        let registry = SharedRegistry::new(tiny_registry());
        let model = registry
            .current()
            .get(BaselineKind::LogisticRegression)
            .unwrap();
        let metrics = ServeMetrics::new();
        let config = BatchConfig {
            max_batch: 8,
            max_wait: Duration::from_millis(20),
        };

        let texts = vec![
            "i feel alone and tired".to_string(),
            "my job is destroying me".to_string(),
            "i cannot sleep at night".to_string(),
        ];
        let expected: Vec<Vec<f64>> = texts.iter().map(|t| model.probabilities_one(t)).collect();

        with_queues(&registry, &config, &metrics, |handle| {
            let (got, timing) = handle
                .predict_many(BaselineKind::LogisticRegression, texts.clone())
                .unwrap();
            assert_eq!(got, expected);
            // One batch: its timing envelope is ordered and after enqueue.
            let timing = timing.expect("scored at least one text");
            assert!(timing.drained <= timing.scored);
        });

        // All three jobs were enqueued before any reply was awaited, so they
        // were scored as one batch — visible globally and in the LR queue.
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
            handle
                .predict_many(BaselineKind::LogisticRegression, vec!["x".to_string()])
                .err(),
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
        let (handle, queues) = build_queues(&registry, &BatchConfig::default(), &metrics, 3);
        let texts = |n: usize| vec!["hello".to_string(); n];

        // A request bigger than the whole cap is rejected outright.
        let err = handle
            .predict_many(BaselineKind::LogisticRegression, texts(4))
            .err()
            .unwrap();
        assert!(matches!(err, PredictError::QueueFull { .. }));
        assert!(err.to_string().contains("full"));
        assert_eq!(metrics.queue("LR", "classical").depth(), 0);

        // Fill the cap exactly by enqueueing without awaiting replies: send
        // the jobs by hand through a second handle thread would block on
        // recv, so reserve via the public path in a scope that never drains.
        crossbeam::thread::scope(|scope| {
            for _ in 0..3 {
                let handle = handle.clone();
                scope.spawn(move |_| {
                    // Blocks on recv until the queues are dropped below; the
                    // reservation itself is what this test observes.
                    let _ = handle.predict_many(BaselineKind::LogisticRegression, texts(1));
                });
            }
            // Deterministic wait: depth is incremented before send, so poll
            // the gauge (no timing assumption — just a progress deadline).
            let deadline = Instant::now() + Duration::from_secs(20);
            while metrics.queue("LR", "classical").depth() < 3 {
                assert!(Instant::now() < deadline, "queue never filled");
                std::thread::sleep(Duration::from_millis(2));
            }
            // The cap is reached: one more text is shed, all-or-nothing.
            let err = handle
                .predict_many(BaselineKind::LogisticRegression, texts(1))
                .err()
                .unwrap();
            assert!(matches!(err, PredictError::QueueFull { depth: 3, .. }));
            assert_eq!(metrics.queue("LR", "classical").depth(), 3);
            drop(queues); // disconnects the channel, unblocking the senders
        })
        .unwrap();
    }

    #[test]
    fn cost_sized_windows_widen_for_expensive_scorers() {
        let base = BatchConfig::default();
        let classical = base.sized_for(Duration::from_micros(200));
        assert_eq!(classical.max_wait, base.max_wait);
        let transformer = base.sized_for(Duration::from_millis(50));
        assert_eq!(transformer.max_wait, Duration::from_millis(50));
        // Pathologically slow scorers are capped.
        let glacial = base.sized_for(Duration::from_secs(10));
        assert_eq!(glacial.max_wait, MAX_COST_SIZED_WAIT);
        assert_eq!(glacial.max_batch, base.max_batch);
    }
}
