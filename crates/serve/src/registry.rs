//! The warm-model registry: fitted scorers held in memory for the lifetime
//! of the server, behind an atomically swappable handle.
//!
//! Fitting a model (vectoriser + classifier, or a transformer fine-tune) is
//! seconds-to-minutes of work; serving a request against a fitted model is
//! microseconds-to-milliseconds. The registry pays the fitting cost up front —
//! one crossbeam scoped thread per requested [`BaselineKind`], each classical
//! fit itself sharded across its slice of the machine's
//! [`ThreadBudget`](holistix::ml::ThreadBudget) — and hands out
//! `Arc<dyn Scorer>` clones to the batch queues and the `/explain` handlers.
//!
//! Since the `Scorer` API redesign the registry is backend-agnostic: it stores
//! [`Arc<dyn Scorer>`](Scorer), so a classical sparse pipeline, a
//! transformer analogue and any future backend (or a test stub) serve behind
//! the same lookup, and the per-kind batch queues size themselves from each
//! scorer's [`cost_hint`](Scorer::cost_hint). Heterogeneous entries come in
//! through [`ModelRegistry::from_scorers`].
//!
//! A registry is immutable once built; *replacement* is what [`SharedRegistry`]
//! adds. `POST /reload` fits a fresh [`ModelRegistry`] off-thread and
//! [`swap`](SharedRegistry::swap)s it in: readers grab an `Arc` per request (or
//! per batch), so in-flight work finishes on the registry it started with and
//! new work sees the new models, with no lock held across a fit or a score.

use holistix::ml::{scoped_map, ThreadBudget};
use holistix::{fit_scorer, BaselineKind, Scorer, SpeedProfile};
use holistix_corpus::HolistixCorpus;
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// How a registry is trained at startup.
#[derive(Debug, Clone)]
pub struct RegistryConfig {
    /// Which baselines to fit and keep warm.
    pub kinds: Vec<BaselineKind>,
    /// Training cost profile.
    pub profile: SpeedProfile,
    /// Size of the synthetic training corpus (for [`ModelRegistry::fit_synthetic`]).
    pub training_posts: usize,
    /// Seed for corpus generation and model fitting.
    pub seed: u64,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        Self {
            kinds: BaselineKind::CLASSICAL.to_vec(),
            profile: SpeedProfile::Fast,
            training_posts: 400,
            seed: 42,
        }
    }
}

/// Statistics from the most recent registry fit, exposed by `GET /metrics`
/// (all zero for a registry that was not fitted here).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FitStats {
    /// Wall-clock time of the whole fit (all kinds, fan-out included).
    pub duration: Duration,
    /// Vectoriser fit shards each classical kind used.
    pub shards: usize,
    /// Number of training documents.
    pub corpus_size: usize,
}

/// Warm fitted scorers, keyed by [`BaselineKind`]. Immutable once built;
/// every scorer is behind an `Arc<dyn Scorer>` so request handlers and the
/// batch queues share them without copies — and without knowing the backend.
/// Replacement happens one level up, in [`SharedRegistry`].
pub struct ModelRegistry {
    entries: Vec<(BaselineKind, Arc<dyn Scorer>)>,
    profile: SpeedProfile,
    seed: u64,
    stats: FitStats,
}

impl ModelRegistry {
    /// Fit every configured baseline on a synthetic Holistix corpus. This is
    /// the offline-friendly startup path; a deployment with the real corpus
    /// would read JSONL via `corpus::io` and call [`Self::fit`] — or upload it
    /// to a running server via `POST /reload`.
    pub fn fit_synthetic(config: &RegistryConfig) -> Self {
        let corpus = HolistixCorpus::generate_small(config.training_posts, config.seed);
        let texts = corpus.texts();
        let labels = corpus.label_indices();
        Self::fit(&config.kinds, config.profile, &texts, &labels, config.seed)
    }

    /// Fit the given baselines on explicit training data with the machine's
    /// thread budget. See [`Self::fit_budgeted`].
    pub fn fit(
        kinds: &[BaselineKind],
        profile: SpeedProfile,
        texts: &[&str],
        labels: &[usize],
        seed: u64,
    ) -> Self {
        Self::fit_budgeted(kinds, profile, texts, labels, seed, ThreadBudget::machine())
    }

    /// Fit the given baselines on explicit training data, one scoped thread
    /// per kind (the same fan-out pattern the cross-validation driver uses for
    /// folds), with each classical kind's vectoriser fit sharded across its
    /// slice of `budget` (`kinds × shards ≤ budget.threads`). Every kind goes
    /// through [`fit_scorer`], so classical kinds come back as sparse
    /// [`FittedBaseline`](holistix::FittedBaseline)s and transformer kinds as
    /// [`TransformerScorer`](holistix::TransformerScorer)s. Panics if `kinds`
    /// is empty — a server with no models cannot answer anything.
    pub fn fit_budgeted(
        kinds: &[BaselineKind],
        profile: SpeedProfile,
        texts: &[&str],
        labels: &[usize],
        seed: u64,
        budget: ThreadBudget,
    ) -> Self {
        assert!(!kinds.is_empty(), "registry needs at least one baseline");
        let shards = budget.shards_per_fold(kinds.len());
        let started = Instant::now();
        let entries = scoped_map(kinds, |&kind| {
            (kind, fit_scorer(kind, profile, texts, labels, seed, shards))
        });
        Self {
            entries,
            profile,
            seed,
            stats: FitStats {
                duration: started.elapsed(),
                shards,
                corpus_size: texts.len(),
            },
        }
    }

    /// Fit a fresh registry with this registry's kinds, profile and seed on a
    /// new training corpus, using the machine's full thread budget. The
    /// receiver is untouched; the caller swaps the result into a
    /// [`SharedRegistry`] when ready.
    pub fn refit(&self, texts: &[&str], labels: &[usize]) -> Self {
        self.refit_budgeted(texts, labels, ThreadBudget::machine())
    }

    /// [`refit`](Self::refit) with an explicit thread budget — the `/reload`
    /// path passes a reduced budget so a background refit does not starve the
    /// threads serving live traffic.
    pub fn refit_budgeted(&self, texts: &[&str], labels: &[usize], budget: ThreadBudget) -> Self {
        Self::fit_budgeted(
            &self.kinds(),
            self.profile,
            texts,
            labels,
            self.seed,
            budget,
        )
    }

    /// A registry around already-fitted scorers, keyed by each scorer's own
    /// [`kind`](Scorer::kind). The heterogeneity entry point: mix classical
    /// baselines, transformer scorers and test stubs in one registry (the
    /// slow-scorer isolation test registers a deliberately slow stub next to
    /// LR this way). Panics on an empty list or on duplicate kinds.
    pub fn from_scorers(scorers: Vec<Arc<dyn Scorer>>) -> Self {
        assert!(!scorers.is_empty(), "registry needs at least one scorer");
        let entries: Vec<(BaselineKind, Arc<dyn Scorer>)> =
            scorers.into_iter().map(|s| (s.kind(), s)).collect();
        for (i, (kind, _)) in entries.iter().enumerate() {
            assert!(
                entries[..i].iter().all(|(k, _)| k != kind),
                "duplicate scorer for kind {:?}",
                kind.name()
            );
        }
        Self {
            entries,
            profile: SpeedProfile::Fast,
            seed: 0,
            stats: FitStats::default(),
        }
    }

    /// Statistics of the fit that produced this registry (zeroed for
    /// [`Self::from_scorers`]).
    pub fn fit_stats(&self) -> FitStats {
        self.stats
    }

    /// The training cost profile the registry was fitted under.
    pub fn profile(&self) -> SpeedProfile {
        self.profile
    }

    /// The warm scorer for a kind, if registered.
    pub fn get(&self, kind: BaselineKind) -> Option<Arc<dyn Scorer>> {
        self.entries
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, m)| Arc::clone(m))
    }

    /// The registered kinds, in registration order.
    pub fn kinds(&self) -> Vec<BaselineKind> {
        self.entries.iter().map(|(k, _)| *k).collect()
    }

    /// `(kind, scorer)` pairs in registration order — what the server iterates
    /// to spawn one batch queue per registered scorer.
    pub fn scorers(&self) -> impl Iterator<Item = (BaselineKind, &Arc<dyn Scorer>)> {
        self.entries.iter().map(|(k, s)| (*k, s))
    }

    /// The default model: the first registered one.
    pub fn default_kind(&self) -> BaselineKind {
        self.entries[0].0
    }

    /// Resolve a request's optional `model` field to a warm scorer. `None`
    /// selects the default; unknown names and unregistered kinds are errors
    /// that list what is available.
    pub fn resolve(&self, name: Option<&str>) -> Result<(BaselineKind, Arc<dyn Scorer>), String> {
        let kind = match name {
            None => self.default_kind(),
            Some(name) => parse_kind(name).ok_or_else(|| {
                format!(
                    "unknown model {name:?}; registered models: {}",
                    self.registered_names()
                )
            })?,
        };
        match self.get(kind) {
            Some(model) => Ok((kind, model)),
            None => Err(format!(
                "model {:?} is not loaded; registered models: {}",
                kind.name(),
                self.registered_names()
            )),
        }
    }

    fn registered_names(&self) -> String {
        self.entries
            .iter()
            .map(|(k, _)| format!("{:?}", k.name()))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// A cheaply cloneable, atomically swappable handle to the current
/// [`ModelRegistry`].
///
/// Readers call [`current`](Self::current) and get an `Arc` pinning whatever
/// registry was live at that instant; [`swap`](Self::swap) replaces the inner
/// `Arc` under a write lock held only for the pointer assignment. A `/reload`
/// therefore never blocks scoring: the fit happens entirely outside the lock,
/// in-flight requests finish on the old registry's models, and the old
/// registry is freed when its last reader drops.
#[derive(Clone)]
pub struct SharedRegistry {
    inner: Arc<RwLock<Arc<ModelRegistry>>>,
}

impl SharedRegistry {
    /// Wrap a fitted registry.
    pub fn new(registry: ModelRegistry) -> Self {
        Self {
            inner: Arc::new(RwLock::new(Arc::new(registry))),
        }
    }

    /// The registry live right now. The returned `Arc` keeps that registry
    /// (and its models) alive through any number of subsequent swaps.
    pub fn current(&self) -> Arc<ModelRegistry> {
        Arc::clone(&self.inner.read().expect("registry lock poisoned"))
    }

    /// Atomically replace the current registry. In-flight readers are
    /// unaffected; the next [`current`](Self::current) sees `registry`.
    pub fn swap(&self, registry: ModelRegistry) {
        *self.inner.write().expect("registry lock poisoned") = Arc::new(registry);
    }
}

/// Parse a model name: the Table IV row labels (`"LR"`, `"Linear SVM"`,
/// `"Gaussian NB"`, `"BERT"`, …) case-insensitively, plus a few obvious
/// aliases for the classical models.
pub fn parse_kind(name: &str) -> Option<BaselineKind> {
    let lower = name.trim().to_ascii_lowercase();
    match lower.as_str() {
        "lr" | "logistic" | "logistic regression" | "logistic_regression" => {
            return Some(BaselineKind::LogisticRegression)
        }
        "svm" | "linear svm" | "linear_svm" => return Some(BaselineKind::LinearSvm),
        "nb" | "gaussian nb" | "gaussian_nb" | "naive bayes" | "naive_bayes" => {
            return Some(BaselineKind::GaussianNb)
        }
        _ => {}
    }
    BaselineKind::ALL
        .into_iter()
        .chain(BaselineKind::QUANTIZED)
        .find(|kind| kind.name().eq_ignore_ascii_case(&lower))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_registry() -> ModelRegistry {
        ModelRegistry::fit_synthetic(&RegistryConfig {
            kinds: vec![BaselineKind::LogisticRegression, BaselineKind::GaussianNb],
            profile: SpeedProfile::Tiny,
            training_posts: 90,
            seed: 7,
        })
    }

    #[test]
    fn fits_and_serves_warm_models() {
        let registry = tiny_registry();
        assert_eq!(
            registry.kinds(),
            vec![BaselineKind::LogisticRegression, BaselineKind::GaussianNb]
        );
        let model = registry.get(BaselineKind::LogisticRegression).unwrap();
        let proba = model.probabilities_one("i feel alone and exhausted");
        assert_eq!(proba.len(), 6);
        assert!(registry.get(BaselineKind::LinearSvm).is_none());
    }

    #[test]
    fn resolve_defaults_to_first_registered_model() {
        let registry = tiny_registry();
        let (kind, _) = registry.resolve(None).unwrap();
        assert_eq!(kind, BaselineKind::LogisticRegression);
        let (kind, _) = registry.resolve(Some("gaussian nb")).unwrap();
        assert_eq!(kind, BaselineKind::GaussianNb);
    }

    #[test]
    fn resolve_rejects_unknown_and_unloaded_models() {
        let registry = tiny_registry();
        let unknown = registry.resolve(Some("resnet")).err().unwrap();
        assert!(unknown.contains("unknown model"), "{unknown}");
        let unloaded = registry.resolve(Some("Linear SVM")).err().unwrap();
        assert!(unloaded.contains("not loaded"), "{unloaded}");
    }

    #[test]
    fn fit_records_stats() {
        let registry = tiny_registry();
        let stats = registry.fit_stats();
        // generate_small may round the corpus up to balance classes.
        assert!(stats.corpus_size >= 90);
        assert!(stats.shards >= 1);
        assert!(stats.duration > Duration::ZERO);
        assert_eq!(registry.profile(), SpeedProfile::Tiny);
    }

    #[test]
    fn refit_keeps_kinds_profile_and_seed() {
        let registry = tiny_registry();
        let corpus = HolistixCorpus::generate_small(60, 21);
        let texts = corpus.texts();
        let labels = corpus.label_indices();
        let refitted = registry.refit(&texts, &labels);
        assert_eq!(refitted.kinds(), registry.kinds());
        assert_eq!(refitted.profile(), registry.profile());
        assert_eq!(refitted.fit_stats().corpus_size, texts.len());
        // Refitting with the registry's own original corpus reproduces the
        // models bit for bit (same kinds, profile, seed, data).
        let original = HolistixCorpus::generate_small(90, 7);
        let same = registry.refit(&original.texts(), &original.label_indices());
        let text = "i feel alone and exhausted";
        assert_eq!(
            same.get(BaselineKind::LogisticRegression)
                .unwrap()
                .probabilities_one(text),
            registry
                .get(BaselineKind::LogisticRegression)
                .unwrap()
                .probabilities_one(text),
        );
    }

    #[test]
    fn shared_registry_swaps_while_readers_hold_the_old_arc() {
        let shared = SharedRegistry::new(tiny_registry());
        let before = shared.current();
        assert_eq!(before.kinds().len(), 2);

        let corpus = HolistixCorpus::generate_small(60, 33);
        let texts = corpus.texts();
        let old_size = before.fit_stats().corpus_size;
        assert_ne!(old_size, texts.len());
        let replacement = before.refit(&texts, &corpus.label_indices());
        shared.swap(replacement);

        let after = shared.current();
        // The pinned Arc still answers from the old registry...
        assert_eq!(before.fit_stats().corpus_size, old_size);
        // ...while new readers see the swapped-in one.
        assert_eq!(after.fit_stats().corpus_size, texts.len());
        assert!(!Arc::ptr_eq(&before, &after));
        // Clones of the handle observe the same current registry.
        assert!(Arc::ptr_eq(&shared.clone().current(), &after));
    }

    #[test]
    fn from_scorers_keys_by_scorer_kind() {
        use holistix::FittedBaseline;
        let corpus = HolistixCorpus::generate_small(90, 11);
        let texts = corpus.texts();
        let labels = corpus.label_indices();
        let lr = Arc::new(FittedBaseline::fit(
            BaselineKind::LogisticRegression,
            SpeedProfile::Tiny,
            &texts,
            &labels,
            11,
        ));
        let registry = ModelRegistry::from_scorers(vec![lr.clone() as Arc<dyn Scorer>]);
        assert_eq!(registry.kinds(), vec![BaselineKind::LogisticRegression]);
        assert_eq!(registry.fit_stats(), FitStats::default());
        let served = registry.get(BaselineKind::LogisticRegression).unwrap();
        assert_eq!(
            served.probabilities_one(texts[0]),
            lr.probabilities_one(texts[0])
        );
    }

    #[test]
    #[should_panic(expected = "duplicate scorer")]
    fn from_scorers_rejects_duplicate_kinds() {
        use holistix::FittedBaseline;
        let corpus = HolistixCorpus::generate_small(60, 13);
        let texts = corpus.texts();
        let labels = corpus.label_indices();
        let fit = || -> Arc<dyn Scorer> {
            Arc::new(FittedBaseline::fit(
                BaselineKind::GaussianNb,
                SpeedProfile::Tiny,
                &texts,
                &labels,
                13,
            ))
        };
        let _ = ModelRegistry::from_scorers(vec![fit(), fit()]);
    }

    #[test]
    fn parse_kind_accepts_table_names_and_aliases() {
        use holistix::transformer::ModelKind;
        assert_eq!(parse_kind("LR"), Some(BaselineKind::LogisticRegression));
        assert_eq!(parse_kind("linear svm"), Some(BaselineKind::LinearSvm));
        assert_eq!(parse_kind(" NB "), Some(BaselineKind::GaussianNb));
        assert_eq!(
            parse_kind("mentalbert"),
            Some(BaselineKind::Transformer(ModelKind::MentalBert))
        );
        assert_eq!(parse_kind("resnet"), None);
    }
}
