//! Per-kind batch queues: cross-request micro-batching without head-of-line
//! blocking between models.
//!
//! Pollers never score texts: a `/predict` enters its model's queue as one
//! `Work::predict` job, a `/explain` as one `Work::explain` job, each
//! with the scorer pinned at admission (so a request that waits across a
//! `/reload` swap still gets every row from one model) and its own `Reply`,
//! through which the drain thread answers the owning poller. Each registered
//! kind owns a `BatchQueue`: its own `mpsc` channel and drain thread, so a
//! 50 ms transformer batch never stalls the logistic-regression batch queued
//! behind it.
//!
//! The drain is work-conserving. It blocks until a job arrives, takes
//! whatever else is already queued until the batch holds
//! [`BatchConfig::max_batch`] texts, and scores the lot with one
//! [`Scorer::probabilities`] call per pinned scorer. Nothing waits on a
//! timer, so batches grow with load and an idle queue scores a lone request
//! at once. A predict is never split across scorer calls. An explain is: it
//! samples its LIME perturbation set when first drained
//! ([`LimeExplainer::perturb`]), each batch takes its next texts up to the
//! room left, and between chunks it waits in a queue local to the drain
//! thread, behind the jobs that arrived meanwhile — so a predict waits for at
//! most one chunk of each explain ahead of it. After its last chunk the drain
//! fits the surrogate ([`LimeExplainer::fit`]) and answers.
//!
//! Batching is invisible in the results: `probabilities` rows depend only on
//! their own text (a property the core pipeline tests pin), so coalescing
//! concurrent requests changes latency, never answers.

use crate::metrics::{QueueMetrics, ServeMetrics};
use crate::obs::{RequestTrace, TraceStamp};
use crate::registry::SharedRegistry;
use holistix::{BaselineKind, Scorer};
use holistix_explain::{LimeExplainer, LimeExplanation, Perturbations};
use std::collections::VecDeque;
use std::sync::mpsc::{Receiver, SendError, Sender};
use std::sync::Arc;
use std::time::Instant;

/// Micro-batching knobs for one queue.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Texts at which a drain stops taking queued requests. A predict is
    /// never split, so one multi-text request can carry a batch past this.
    pub max_batch: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self { max_batch: 32 }
    }
}

/// Why a job was refused or failed; [`status`](Self::status) maps each cause
/// to its status code.
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
    /// No queue serves the kind: it was not registered at startup.
    NotLoaded(String),
    /// The server is shutting down (the queue's receiver is gone).
    Shutdown,
    /// The job was dropped unanswered, or the scorer answered the wrong
    /// number of rows.
    Failed,
}

impl PredictError {
    /// `429` (healthy but full: retry after the hint), `503` (the model or
    /// the server is unavailable) or `500` (scoring broke).
    pub fn status(&self) -> u16 {
        match self {
            PredictError::QueueFull { .. } => 429,
            PredictError::NotLoaded(_) | PredictError::Shutdown => 503,
            PredictError::Failed => 500,
        }
    }
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

/// Where a job's answer goes, given the answer and the request's trace.
type Deliver<T> = Box<dyn FnOnce(Result<T, PredictError>, RequestTrace) + Send>;

/// A queued request's answer path. The job owns it, and admission attaches
/// the request's trace, so every admitted job is answered exactly once: by
/// its drain thread, or, when the job is dropped unanswered (a panicked drain
/// thread, a torn-down queue), by the reply itself with
/// [`PredictError::Failed`]. A refused job is answered by its submitter.
pub(crate) struct Reply<T> {
    deliver: Option<Deliver<T>>,
    trace: Option<RequestTrace>,
}

impl<T> Reply<T> {
    pub(crate) fn new(
        deliver: impl FnOnce(Result<T, PredictError>, RequestTrace) + Send + 'static,
    ) -> Self {
        let deliver: Option<Deliver<T>> = Some(Box::new(deliver));
        let trace = None;
        Self { deliver, trace }
    }

    fn send(mut self, answer: Result<T, PredictError>) {
        if let (Some(deliver), Some(trace)) = (self.deliver.take(), self.trace.take()) {
            deliver(answer, trace);
        }
    }

    fn stamp_at(&mut self, which: TraceStamp, at: Instant) {
        if let Some(trace) = &mut self.trace {
            trace.stamp_at(which, at);
        }
    }
}

impl<T> Drop for Reply<T> {
    fn drop(&mut self) {
        if let (Some(deliver), Some(trace)) = (self.deliver.take(), self.trace.take()) {
            deliver(Err(PredictError::Failed), trace);
        }
    }
}

/// What a queue scores for one request: texts, all from the scorer pinned
/// at admission (so a request that waits across a `/reload` swap still gets
/// every row from one model), then the answer made from their rows.
pub(crate) struct Work {
    scorer: Arc<dyn Scorer>,
    /// The texts to score. An explain holds the text to explain until it is
    /// first drained, then its perturbation set, which starts with that text.
    texts: Vec<String>,
    /// How many texts the request scores: what it reserves of the depth.
    total: usize,
    /// Rows scored so far.
    rows: Vec<Vec<f64>>,
    answer: Answer,
}

/// What a request answers with its rows.
enum Answer {
    /// A `/predict` answers the rows themselves, scored in one call.
    Rows(Reply<Vec<Vec<f64>>>),
    /// A `/explain`, scored in chunks between predicts, answers the LIME
    /// explanation fitted to them.
    Explanation {
        explainer: LimeExplainer,
        perturbations: Option<Perturbations>,
        reply: Reply<LimeExplanation>,
    },
}

impl Work {
    /// Score `texts` together.
    pub(crate) fn predict(
        scorer: Arc<dyn Scorer>,
        texts: Vec<String>,
        reply: Reply<Vec<Vec<f64>>>,
    ) -> Self {
        let total = texts.len();
        Self::new(scorer, texts, total, Answer::Rows(reply))
    }

    /// Explain `text`, which has `n_features` interpretable features.
    pub(crate) fn explain(
        scorer: Arc<dyn Scorer>,
        text: String,
        n_features: usize,
        explainer: LimeExplainer,
        reply: Reply<LimeExplanation>,
    ) -> Self {
        let total = explainer.texts_scored(n_features);
        let perturbations = None;
        let answer = Answer::Explanation {
            explainer,
            perturbations,
            reply,
        };
        Self::new(scorer, vec![text], total, answer)
    }

    fn new(scorer: Arc<dyn Scorer>, texts: Vec<String>, total: usize, answer: Answer) -> Self {
        let rows = Vec::new();
        Self {
            scorer,
            texts,
            total,
            rows,
            answer,
        }
    }

    /// Texts the next batch takes with `room` left in it: a predict goes
    /// whole, an explain its next texts up to the room.
    fn take(&self, room: usize) -> usize {
        let left = self.total - self.rows.len();
        match self.answer {
            Answer::Rows(_) => left,
            Answer::Explanation { .. } => left.min(room),
        }
    }

    /// The request's trace, attached to the reply at admission.
    fn trace(&mut self) -> &mut Option<RequestTrace> {
        match &mut self.answer {
            Answer::Rows(reply) => &mut reply.trace,
            Answer::Explanation { reply, .. } => &mut reply.trace,
        }
    }

    /// Sample an explain's perturbation set, the first time it is drained.
    fn sample(&mut self) {
        if let Answer::Explanation {
            explainer,
            perturbations: perturbations @ None,
            ..
        } = &mut self.answer
        {
            let text = self.texts.first().map_or("", String::as_str);
            let mut sampled = explainer.perturb(text);
            self.texts = std::mem::take(&mut sampled.texts);
            *perturbations = Some(sampled);
        }
    }

    /// Answer from the rows, or with [`PredictError::Failed`] when the
    /// request's last scoring call failed.
    fn finish(self, complete: bool, scored: Instant) {
        let rows = complete.then_some(self.rows);
        match self.answer {
            Answer::Rows(mut reply) => {
                reply.stamp_at(TraceStamp::Scored, scored);
                reply.send(rows.ok_or(PredictError::Failed));
            }
            Answer::Explanation {
                explainer,
                perturbations,
                mut reply,
                ..
            } => {
                reply.stamp_at(TraceStamp::Scored, scored);
                let explanation = perturbations.zip(rows);
                let explanation = explanation.map(|(p, rows)| explainer.fit(p, &rows, None));
                reply.send(explanation.ok_or(PredictError::Failed));
            }
        }
    }
}

/// A refused submission: the cause, and the request's trace for the
/// submitter to answer with. Boxed: refusals are rare, and a trace is large.
pub(crate) type Refused = Box<(PredictError, Option<RequestTrace>)>;

/// One queued request.
struct Job {
    work: Work,
    /// When the job entered its queue, for per-text queue-wait samples.
    enqueued: Instant,
}

/// The sending half of one kind's queue.
struct QueueSender {
    kind: BaselineKind,
    sender: Sender<Job>,
    metrics: Arc<QueueMetrics>,
    /// Admission cap: most texts this queue may hold, queued or scoring.
    max_depth: u64,
}

/// Cloneable producer handle the pollers hand requests to the queues with.
#[derive(Clone)]
pub(crate) struct BatcherHandle {
    queues: Arc<Vec<QueueSender>>,
}

impl BatcherHandle {
    /// Enqueue `work` for the request traced by `trace` on `kind`'s queue,
    /// reserving every text it will score against the depth cap,
    /// all-or-nothing ([`QueueMetrics::try_admit`]). A refusal leaves the
    /// queue untouched and never answers through the job's reply.
    pub(crate) fn submit(
        &self,
        kind: BaselineKind,
        mut work: Work,
        trace: RequestTrace,
    ) -> Result<(), Refused> {
        let Some(queue) = self.queues.iter().find(|q| q.kind == kind) else {
            let error = PredictError::NotLoaded(kind.name());
            return Err(Box::new((error, Some(trace))));
        };
        let n = work.total;
        // Depth counts up strictly before the drain loop can see the job:
        // incrementing after send() would let a fast drain score the job and
        // decrement first, wrapping the unsigned depth gauge.
        if !queue.metrics.try_admit(n as u64, queue.max_depth) {
            let depth = queue.metrics.depth();
            let error = PredictError::QueueFull {
                kind: kind.name(),
                depth,
            };
            return Err(Box::new((error, Some(trace))));
        }
        *work.trace() = Some(trace);
        let enqueued = Instant::now();
        if let Err(SendError(mut job)) = queue.sender.send(Job { work, enqueued }) {
            // Nothing was queued: release the whole reservation.
            queue.metrics.record_dropped(n);
            return Err(Box::new((PredictError::Shutdown, job.work.trace().take())));
        }
        Ok(())
    }
}

/// One kind's queue: the receiving half plus everything its drain loop needs.
/// Built by [`build_queues`]; the server spawns [`BatchQueue::run`] on its own
/// scoped thread.
pub(crate) struct BatchQueue {
    receiver: Receiver<Job>,
    max_batch: usize,
    metrics: Arc<QueueMetrics>,
}

impl BatchQueue {
    /// The drain loop, until every producer handle is dropped and every
    /// admitted job is answered: take the next job, then whatever is queued
    /// behind it until the batch holds `max_batch` texts, score, answer.
    pub(crate) fn run(self) {
        // Explains with texts left, in arrival order. Local to this thread:
        // the drain holds no sender to its own channel, which must still
        // disconnect at shutdown.
        let mut waiting: VecDeque<Job> = VecDeque::new();
        let max_batch = self.max_batch.max(1);
        while let Some(first) = waiting.pop_front().or_else(|| self.receiver.recv().ok()) {
            let mut filled = first.work.take(max_batch);
            let mut batch = vec![(first, filled)];
            while filled < max_batch {
                let next = waiting.pop_front();
                let Some(job) = next.or_else(|| self.receiver.try_recv().ok()) else {
                    break;
                };
                let take = job.work.take(max_batch - filled);
                filled += take;
                batch.push((job, take));
            }
            // One call per scorer the batch's jobs are pinned to.
            let drained = Instant::now();
            let mut calls: Vec<Batch> = Vec::new();
            for (job, take) in batch {
                let same =
                    |call: &&mut Batch| Arc::ptr_eq(&call[0].0.work.scorer, &job.work.scorer);
                match calls.iter_mut().find(same) {
                    Some(call) => call.push((job, take)),
                    None => calls.push(vec![(job, take)]),
                }
            }
            let unfinished: Vec<Job> = calls
                .into_iter()
                .flat_map(|call| self.score(call, drained))
                .collect();
            if !unfinished.is_empty() {
                // Behind the jobs that arrived while this batch scored.
                waiting.extend(self.receiver.try_iter());
                waiting.extend(unfinished);
            }
        }
    }

    /// One `probabilities` call over the next texts of `call`'s jobs, which
    /// share a scorer, recorded as one batch; answers every job it completes
    /// and returns the explains with texts left. A call that answers the
    /// wrong number of rows fails every job in it.
    fn score(&self, mut call: Batch, drained: Instant) -> Vec<Job> {
        for (job, _) in &mut call {
            if let Some(trace) = job.work.trace() {
                trace.stamp_at(TraceStamp::BatchDrain, drained);
            }
            job.work.sample();
        }
        let texts: Vec<&str> = call
            .iter()
            .flat_map(|(job, take)| {
                let next = job.work.rows.len()..job.work.rows.len() + take;
                job.work.texts.get(next).unwrap_or(&[])
            })
            .map(String::as_str)
            .collect();
        // Queue-wait samples stay per text: each text waited as long as its job.
        let waits: Vec<u64> = call
            .iter()
            .flat_map(|(job, take)| {
                let wait = drained.duration_since(job.enqueued).as_micros() as u64;
                std::iter::repeat_n(wait, *take)
            })
            .collect();
        let scorer = Arc::clone(&call[0].0.work.scorer);
        let called = Instant::now();
        let rows = scorer.probabilities(&texts);
        let scored = Instant::now();
        let score_us = scored.duration_since(called).as_micros() as u64;
        self.metrics.record_batch(texts.len(), &waits, score_us);
        let complete = rows.len() == texts.len();
        let mut rows = rows.into_iter();
        let mut unfinished = Vec::new();
        for (mut job, take) in call {
            let left = job.work.total - job.work.rows.len() - take;
            job.work.rows.extend(rows.by_ref().take(take));
            if complete && left > 0 {
                unfinished.push(job);
            } else {
                // Done, or failed: release whatever it will never score.
                self.metrics.record_dropped(left);
                job.work.finish(complete, scored);
            }
        }
        unfinished
    }
}

/// Jobs scored together, each with how many of its texts the batch takes.
type Batch = Vec<(Job, usize)>;

/// Build one queue per registered scorer: the shared [`BatcherHandle`] for the
/// pollers and the [`BatchQueue`]s for the server to spawn. `max_depth`
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
        let metrics = metrics.queue(&kind.name(), kind.scorer_family());
        let max_depth = max_depth as u64;
        let max_batch = config.max_batch;
        senders.push(QueueSender {
            kind,
            sender,
            metrics: Arc::clone(&metrics),
            max_depth,
        });
        queues.push(BatchQueue {
            receiver,
            max_batch,
            metrics,
        });
    }
    let senders = Arc::new(senders);
    (BatcherHandle { queues: senders }, queues)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{ModelRegistry, RegistryConfig};
    use holistix::SpeedProfile;
    use holistix_explain::LimeConfig;
    use std::sync::{mpsc, Mutex};

    const LR: BaselineKind = BaselineKind::LogisticRegression;

    type Inbox<T> = mpsc::Receiver<(Result<T, PredictError>, RequestTrace)>;

    fn tiny_registry() -> ModelRegistry {
        ModelRegistry::fit_synthetic(&RegistryConfig {
            kinds: vec![LR],
            profile: SpeedProfile::Tiny,
            training_posts: 90,
            seed: 5,
        })
    }

    /// A reply whose answer, with its trace, arrives on the returned channel.
    fn reply<T: Send + 'static>() -> (Reply<T>, Inbox<T>) {
        let (sender, receiver) = mpsc::channel();
        let reply = Reply::new(move |answer, trace| {
            let _ = sender.send((answer, trace));
        });
        (reply, receiver)
    }

    fn trace() -> RequestTrace {
        RequestTrace::new(0, Instant::now())
    }

    fn predict(scorer: &Arc<dyn Scorer>, texts: &[&str]) -> (Work, Inbox<Vec<Vec<f64>>>) {
        let (reply, answer) = reply();
        let scorer = Arc::clone(scorer);
        let texts = texts.iter().map(|t| t.to_string()).collect();
        (Work::predict(scorer, texts, reply), answer)
    }

    fn explainer(n_samples: usize) -> LimeExplainer {
        LimeExplainer::new(LimeConfig {
            n_samples,
            ..LimeConfig::default()
        })
    }

    fn explain(
        scorer: &Arc<dyn Scorer>,
        text: &str,
        n_samples: usize,
    ) -> (Work, Inbox<LimeExplanation>) {
        let (reply, answer) = reply();
        let n_features = holistix_explain::interpretable_features(text).len();
        let work = Work::explain(
            Arc::clone(scorer),
            text.to_string(),
            n_features,
            explainer(n_samples),
            reply,
        );
        (work, answer)
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
                scope.spawn(move |_| queue.run());
            }
            body(&handle);
            drop(handle); // lets every drain loop exit
        })
        .unwrap();
    }

    /// A scorer behind a log of the texts of every call it answers.
    struct CallLog {
        inner: Arc<dyn Scorer>,
        calls: Mutex<Vec<Vec<String>>>,
    }

    impl CallLog {
        fn new(inner: Arc<dyn Scorer>) -> Arc<Self> {
            Arc::new(Self {
                inner,
                calls: Mutex::new(Vec::new()),
            })
        }

        fn calls(&self) -> Vec<Vec<String>> {
            self.calls.lock().unwrap().clone()
        }

        fn sizes(&self) -> Vec<usize> {
            self.calls().iter().map(Vec::len).collect()
        }
    }

    impl Scorer for CallLog {
        fn probabilities(&self, texts: &[&str]) -> Vec<Vec<f64>> {
            let call = texts.iter().map(|t| t.to_string()).collect();
            self.calls.lock().unwrap().push(call);
            self.inner.probabilities(texts)
        }

        fn kind(&self) -> BaselineKind {
            self.inner.kind()
        }
    }

    /// Submit `backlog` to the LR queue before its drain starts, then run
    /// the drain to completion on this thread, so the batches depend only on
    /// the backlog, never on timing. Every reservation is released at the
    /// end.
    fn drain(registry: &SharedRegistry, max_batch: usize, backlog: Vec<Work>) {
        let metrics = ServeMetrics::new();
        let (handle, queues) =
            build_queues(registry, &BatchConfig { max_batch }, &metrics, usize::MAX);
        for work in backlog {
            handle.submit(LR, work, trace()).unwrap();
        }
        drop(handle); // the drain exits once the backlog is gone
        for queue in queues {
            queue.run();
        }
        assert_eq!(metrics.queue("LR", "classical").depth(), 0);
    }

    /// [`drain`] a backlog of predicts, assert every answer is bit-identical
    /// to `probabilities_one`, and return the size of each scorer call.
    fn drain_backlog(max_batch: usize, requests: &[&[&str]]) -> Vec<usize> {
        let model = tiny_registry().get(LR).unwrap();
        let log = CallLog::new(Arc::clone(&model));
        let registry = SharedRegistry::new(ModelRegistry::from_scorers(vec![
            Arc::clone(&log) as Arc<dyn Scorer>
        ]));
        let scorer = Arc::clone(&log) as Arc<dyn Scorer>;
        let (backlog, answers): (Vec<_>, Vec<_>) =
            requests.iter().map(|texts| predict(&scorer, texts)).unzip();
        drain(&registry, max_batch, backlog);
        for (texts, answer) in requests.iter().zip(answers) {
            let rows = answer.recv().unwrap().0.unwrap();
            let expected: Vec<Vec<f64>> =
                texts.iter().map(|t| model.probabilities_one(t)).collect();
            assert_eq!(rows, expected);
        }
        log.sizes()
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
    fn an_explain_fills_the_room_between_predicts() {
        let model = tiny_registry().get(LR).unwrap();
        let log = CallLog::new(Arc::clone(&model));
        let registry = SharedRegistry::new(ModelRegistry::from_scorers(vec![
            Arc::clone(&log) as Arc<dyn Scorer>
        ]));
        let text = "my job leaves me tired and alone";
        let perturbed = explainer(6).perturb(text).texts;
        assert_eq!(perturbed.len(), 7);
        let scorer = Arc::clone(&log) as Arc<dyn Scorer>;
        let (a, a_answer) = predict(&scorer, &["i feel numb"]);
        let (e, e_answer) = explain(&scorer, text, 6);
        let (b, b_answer) = predict(&scorer, &["i cannot sleep", "money worries never stop"]);
        let (c, c_answer) = predict(&scorer, &["my friends stopped calling"]);
        drain(&registry, 4, vec![a, e, b, c]);

        // The explain takes the room the predicts leave; its last texts wait
        // behind the predicts that arrived while its first chunk scored.
        let call = |predicts: &[&str], explain: std::ops::Range<usize>| -> Vec<String> {
            let predicts = predicts.iter().map(|t| t.to_string());
            predicts.chain(perturbed[explain].iter().cloned()).collect()
        };
        assert_eq!(
            log.calls(),
            vec![
                call(&["i feel numb"], 0..3),
                call(
                    &[
                        "i cannot sleep",
                        "money worries never stop",
                        "my friends stopped calling"
                    ],
                    3..4
                ),
                call(&[], 4..7),
            ]
        );
        for (answer, texts) in [
            (a_answer, &["i feel numb"][..]),
            (
                b_answer,
                &["i cannot sleep", "money worries never stop"][..],
            ),
            (c_answer, &["my friends stopped calling"][..]),
        ] {
            let expected: Vec<Vec<f64>> =
                texts.iter().map(|t| model.probabilities_one(t)).collect();
            assert_eq!(answer.recv().unwrap().0.unwrap(), expected);
        }
        let (explanation, trace) = e_answer.recv().unwrap();
        assert_eq!(
            explanation.unwrap(),
            explainer(6).explain(&*model, text, None)
        );
        assert!(trace.offset(TraceStamp::BatchDrain) <= trace.offset(TraceStamp::Scored));
    }

    /// Constant rows: whatever it scores is visibly not the LR model's.
    struct Uniform;

    impl Scorer for Uniform {
        fn probabilities(&self, texts: &[&str]) -> Vec<Vec<f64>> {
            vec![vec![1.0 / 6.0; 6]; texts.len()]
        }

        fn kind(&self) -> BaselineKind {
            LR
        }
    }

    #[test]
    fn an_explain_is_scored_by_its_pinned_scorer_across_a_swap() {
        let model = tiny_registry().get(LR).unwrap();
        let old_log = CallLog::new(Arc::clone(&model));
        let new_log = CallLog::new(Arc::new(Uniform));
        let registry = SharedRegistry::new(ModelRegistry::from_scorers(vec![
            Arc::clone(&old_log) as Arc<dyn Scorer>
        ]));
        let text = "my job leaves me tired and alone";
        let (e, e_answer) = explain(&registry.current().get(LR).unwrap(), text, 6);
        // A reload lands; the next request is admitted against the new model.
        registry.swap(ModelRegistry::from_scorers(vec![
            Arc::clone(&new_log) as Arc<dyn Scorer>
        ]));
        let (p, p_answer) = predict(&registry.current().get(LR).unwrap(), &["i feel numb"]);
        drain(&registry, 4, vec![e, p]);

        // The explain's second chunk shares a batch with the predict, but
        // not a call: every explain row comes from the model it was
        // admitted against.
        assert_eq!(old_log.sizes(), vec![4, 3]);
        assert_eq!(new_log.calls(), vec![vec!["i feel numb".to_string()]]);
        let rows = p_answer.recv().unwrap().0.unwrap();
        assert_eq!(rows, Uniform.probabilities(&["i feel numb"]));
        let explanation = e_answer.recv().unwrap().0.unwrap();
        assert_eq!(explanation, explainer(6).explain(&*model, text, None));
    }

    #[test]
    fn a_job_dropped_unanswered_is_answered_500() {
        let registry = SharedRegistry::new(tiny_registry());
        let metrics = ServeMetrics::new();
        let (handle, queues) = build_queues(&registry, &BatchConfig::default(), &metrics, 1024);
        let (work, answer) = predict(&registry.current().get(LR).unwrap(), &["i feel numb"]);
        handle.submit(LR, work, trace()).unwrap();
        // The queue is torn down with the job still in it.
        drop(queues);
        drop(handle);
        let error = answer.recv().unwrap().0.unwrap_err();
        assert_eq!(error, PredictError::Failed);
        assert_eq!(error.status(), 500);
    }

    #[test]
    fn batched_replies_match_direct_scoring() {
        let registry = SharedRegistry::new(tiny_registry());
        let model = registry.current().get(LR).unwrap();
        let metrics = ServeMetrics::new();
        let config = BatchConfig { max_batch: 8 };

        let texts = [
            "i feel alone and tired",
            "my job is destroying me",
            "i cannot sleep at night",
        ];
        let expected: Vec<Vec<f64>> = texts.iter().map(|t| model.probabilities_one(t)).collect();

        with_queues(&registry, &config, &metrics, |handle| {
            let (work, answer) = predict(&model, &texts);
            handle.submit(LR, work, trace()).unwrap();
            let (got, trace) = answer.recv().unwrap();
            assert_eq!(got.unwrap(), expected);
            // One batch: its stamps are ordered.
            let drained = trace.offset(TraceStamp::BatchDrain).unwrap();
            assert!(drained <= trace.offset(TraceStamp::Scored).unwrap());
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
            // the error comes straight from the handle, nothing is enqueued,
            // and the reply hands its trace back unanswered.
            let (work, answer) = predict(&(Arc::new(Uniform) as Arc<dyn Scorer>), &["text"]);
            let (err, trace) = *handle
                .submit(BaselineKind::LinearSvm, work, trace())
                .unwrap_err();
            assert!(matches!(err, PredictError::NotLoaded(_)));
            assert!(err.to_string().contains("not loaded"));
            assert!(trace.is_some());
            assert!(answer.try_recv().is_err());
        });
        // Nothing was scored, so nothing shows up as a batch.
        assert_eq!(metrics.max_batch_size(), 0);
        let snapshot = metrics.snapshot();
        assert_eq!(snapshot.get("texts_scored").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn submit_fails_cleanly_after_shutdown() {
        let registry = SharedRegistry::new(tiny_registry());
        let metrics = ServeMetrics::new();
        let (handle, queues) = build_queues(&registry, &BatchConfig::default(), &metrics, 1024);
        drop(queues); // receivers gone: every send errors
        let (work, answer) = predict(&(Arc::new(Uniform) as Arc<dyn Scorer>), &["x", "y"]);
        let (err, trace) = *handle.submit(LR, work, trace()).unwrap_err();
        assert_eq!(err, PredictError::Shutdown);
        assert_eq!(err.status(), 503);
        // The submitter answers a refusal; the reply never does.
        assert!(trace.is_some());
        assert!(answer.try_recv().is_err());
        // The failed send released its reservation: depth is back to zero.
        assert_eq!(metrics.queue("LR", "classical").depth(), 0);
    }

    #[test]
    fn over_cap_requests_draw_queue_full_without_enqueueing() {
        let registry = SharedRegistry::new(tiny_registry());
        let metrics = ServeMetrics::new();
        // No drain loop running: jobs sit in the channel, depth only grows.
        let (handle, _queues) = build_queues(&registry, &BatchConfig::default(), &metrics, 3);
        let uniform: Arc<dyn Scorer> = Arc::new(Uniform);
        let texts = |n: usize| predict(&uniform, &vec!["hello"; n]).0;

        // A request bigger than the whole cap is rejected outright.
        let (err, _) = *handle.submit(LR, texts(4), trace()).unwrap_err();
        assert!(matches!(err, PredictError::QueueFull { .. }));
        assert!(err.to_string().contains("full"));
        assert_eq!(err.status(), 429);
        assert_eq!(metrics.queue("LR", "classical").depth(), 0);

        // Fill the cap exactly; with no drain the reservations stay held.
        for _ in 0..3 {
            handle.submit(LR, texts(1), trace()).unwrap();
        }
        // The cap is reached: one more text is shed, all-or-nothing.
        let (err, _) = *handle.submit(LR, texts(1), trace()).unwrap_err();
        assert!(matches!(err, PredictError::QueueFull { depth: 3, .. }));
        assert_eq!(metrics.queue("LR", "classical").depth(), 3);
    }
}
